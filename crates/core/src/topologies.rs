//! A uniform way to build all eight Table II topologies at paper scale or
//! at a reduced "fits on a laptop" scale, where the figure binaries run
//! unless given `--full` (README "Substitutions").

use hxnet::dragonfly::DragonflyParams;
use hxnet::fattree::FatTreeParams;
use hxnet::hammingmesh::HxMeshParams;
use hxnet::hyperx::HyperXParams;
use hxnet::torus::TorusParams;
use hxnet::Network;

/// The eight topologies of Table II, in row order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyChoice {
    FatTree,
    FatTree50,
    FatTree75,
    Dragonfly,
    HyperX,
    Hx2Mesh,
    Hx4Mesh,
    Torus,
}

impl TopologyChoice {
    pub fn all() -> [TopologyChoice; 8] {
        use TopologyChoice::*;
        [
            FatTree, FatTree50, FatTree75, Dragonfly, HyperX, Hx2Mesh, Hx4Mesh, Torus,
        ]
    }

    /// Stable machine-readable identifier used by the `hxserve` scenario
    /// specs ([`std::str::FromStr`] is the inverse).
    pub fn spec_name(self) -> &'static str {
        match self {
            TopologyChoice::FatTree => "fat_tree",
            TopologyChoice::FatTree50 => "fat_tree_50",
            TopologyChoice::FatTree75 => "fat_tree_75",
            TopologyChoice::Dragonfly => "dragonfly",
            TopologyChoice::HyperX => "hyperx",
            TopologyChoice::Hx2Mesh => "hx2mesh",
            TopologyChoice::Hx4Mesh => "hx4mesh",
            TopologyChoice::Torus => "torus",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            TopologyChoice::FatTree => "nonblocking fat tree",
            TopologyChoice::FatTree50 => "50% tapered fat tree",
            TopologyChoice::FatTree75 => "75% tapered fat tree",
            TopologyChoice::Dragonfly => "Dragonfly",
            TopologyChoice::HyperX => "2D HyperX",
            TopologyChoice::Hx2Mesh => "Hx2Mesh",
            TopologyChoice::Hx4Mesh => "Hx4Mesh",
            TopologyChoice::Torus => "2D torus",
        }
    }

    /// Build at the paper's small-cluster scale (~1,024 accelerators).
    pub fn build_small(self) -> Network {
        match self {
            TopologyChoice::FatTree => FatTreeParams::small_nonblocking().build(),
            TopologyChoice::FatTree50 => FatTreeParams::small_tapered50().build(),
            TopologyChoice::FatTree75 => FatTreeParams::small_tapered75().build(),
            TopologyChoice::Dragonfly => DragonflyParams::small().build(),
            TopologyChoice::HyperX => HyperXParams::small().build(),
            TopologyChoice::Hx2Mesh => HxMeshParams::small_hx2().build(),
            TopologyChoice::Hx4Mesh => HxMeshParams::small_hx4().build(),
            TopologyChoice::Torus => TorusParams::small().build(),
        }
    }

    /// Build a reduced-scale variant with ~`n` accelerators (n must make
    /// the grid shapes work out; 64, 256 and 1024 are safe). The shapes
    /// mirror the paper's proportions: Hx2 uses an (√n/2)² board grid etc.
    pub fn build_scaled(self, n: usize) -> Network {
        let side = (n as f64).sqrt().round() as usize;
        assert_eq!(
            side * side,
            n,
            "scaled builds need a square accelerator count"
        );
        match self {
            TopologyChoice::FatTree => FatTreeParams::scaled_nonblocking(n, 64).build(),
            TopologyChoice::FatTree50 => FatTreeParams::scaled_tapered(n, 64, 0.5).build(),
            TopologyChoice::FatTree75 => FatTreeParams::scaled_tapered(n, 64, 0.75).build(),
            TopologyChoice::Dragonfly => DragonflyParams::scaled(n).build(),
            TopologyChoice::HyperX => HyperXParams {
                x: side,
                y: side,
                radix: 64,
            }
            .build(),
            TopologyChoice::Hx2Mesh => {
                assert_eq!(side % 2, 0, "Hx2 needs an even side");
                HxMeshParams::square(2, side / 2).build()
            }
            TopologyChoice::Hx4Mesh => {
                assert_eq!(side % 4, 0, "Hx4 needs side divisible by 4");
                HxMeshParams::square(4, side / 4).build()
            }
            TopologyChoice::Torus => TorusParams {
                cols: side,
                rows: side,
                board: 2,
            }
            .build(),
        }
    }
}

impl std::str::FromStr for TopologyChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        TopologyChoice::all()
            .into_iter()
            .find(|t| t.spec_name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = TopologyChoice::all()
                    .map(TopologyChoice::spec_name)
                    .to_vec();
                format!(
                    "unknown topology {s:?} (expected one of: {})",
                    names.join(", ")
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_names_round_trip() {
        for t in TopologyChoice::all() {
            assert_eq!(t.spec_name().parse::<TopologyChoice>(), Ok(t));
        }
        assert!("fat-tree".parse::<TopologyChoice>().is_err());
    }

    #[test]
    fn all_scaled_topologies_build_at_256() {
        for t in TopologyChoice::all() {
            let net = t.build_scaled(256);
            assert!(
                net.endpoints.len() >= 256,
                "{}: {} endpoints",
                t.name(),
                net.endpoints.len()
            );
            net.topo.validate().unwrap();
        }
    }

    #[test]
    fn small_builds_have_paper_sizes() {
        for t in TopologyChoice::all() {
            let net = t.build_small();
            assert!(
                (1024..=1071).contains(&net.endpoints.len()),
                "{}: {}",
                t.name(),
                net.endpoints.len()
            );
        }
    }
}
