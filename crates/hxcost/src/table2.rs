//! The sixteen network configurations of Table II with their App. C bills
//! of materials.
//!
//! Counts are the paper's closed forms (App. C1/C2); tests assert that the
//! resulting costs reproduce the Table II cost column to within its
//! printed precision. Two deliberate deviations (README "Substitutions"):
//! the torus is priced with AoC inter-board cables (the paper's text says
//! DAC but its dollar figure matches AoC), and the large-HyperX switch
//! count follows the per-plane arithmetic that matches the paper's dollar
//! figure (its prose doubles it inconsistently).

use crate::diameter;
use crate::inventory::{Inventory, Prices};

/// Which of the two design points of §III-D.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClusterSize {
    /// ≈1,000 accelerators.
    Small,
    /// ≈16,000 accelerators.
    Large,
}

/// One row of Table II.
#[derive(Clone, Debug)]
pub struct Table2Entry {
    pub name: &'static str,
    pub cluster: ClusterSize,
    pub endpoints: usize,
    pub inventory: Inventory,
    pub diameter: u32,
    /// The cost printed in Table II (M$), for regression checks.
    pub paper_cost_musd: f64,
    /// The diameter printed in Table II.
    pub paper_diameter: u32,
}

impl Table2Entry {
    pub fn cost_musd(&self) -> f64 {
        self.inventory.cost_musd(&Prices::default())
    }
}

/// All eight topologies for the given cluster size, in Table II row order.
pub fn table2_entries(cluster: ClusterSize) -> Vec<Table2Entry> {
    match cluster {
        ClusterSize::Small => vec![
            Table2Entry {
                name: "nonblocking fat tree",
                cluster,
                endpoints: 1024,
                // 16 planes of (32+16 switches, 1,024 DAC, 1,024 AoC).
                inventory: Inventory::new(48, 1024, 1024).planes(16),
                diameter: diameter::fat_tree_diameter(1024, 64),
                paper_cost_musd: 25.3,
                paper_diameter: 4,
            },
            Table2Entry {
                name: "50% tapered fat tree",
                cluster,
                endpoints: 1050,
                inventory: Inventory::new(34, 1050, 550).planes(16),
                diameter: diameter::fat_tree_diameter(1050, 64),
                paper_cost_musd: 17.6,
                paper_diameter: 4,
            },
            Table2Entry {
                name: "75% tapered fat tree",
                cluster,
                endpoints: 1071,
                inventory: Inventory::new(26, 1071, 273).planes(16),
                diameter: diameter::fat_tree_diameter(1071, 64),
                paper_cost_musd: 13.2,
                paper_diameter: 4,
            },
            Table2Entry {
                name: "Dragonfly",
                cluster,
                endpoints: 1024,
                // 16 planes of (64 physical switches, 1,920 DAC, 512 AoC).
                inventory: Inventory::new(64, 1920, 512).planes(16),
                diameter: diameter::dragonfly_diameter(8, 8),
                paper_cost_musd: 27.9,
                paper_diameter: 3,
            },
            Table2Entry {
                name: "2D HyperX",
                cluster,
                endpoints: 1024,
                // 4 planes of (64 switches, 2,048 DAC, 2,048 AoC).
                inventory: Inventory::new(64, 2048, 2048).planes(4),
                diameter: diameter::hyperx_diameter(32, 32, 64),
                paper_cost_musd: 10.8,
                paper_diameter: 4,
            },
            Table2Entry {
                name: "Hx2Mesh",
                cluster,
                endpoints: 1024,
                inventory: Inventory::new(32, 1024, 1024).planes(4),
                diameter: diameter::hxmesh_diameter(2, 2, 16, 16, 64),
                paper_cost_musd: 5.4,
                paper_diameter: 4,
            },
            Table2Entry {
                name: "Hx4Mesh",
                cluster,
                endpoints: 1024,
                inventory: Inventory::new(16, 512, 512).planes(4),
                diameter: diameter::hxmesh_diameter(4, 4, 8, 8, 64),
                paper_cost_musd: 2.7,
                paper_diameter: 8,
            },
            Table2Entry {
                name: "2D torus",
                cluster,
                endpoints: 1024,
                // 4 planes of 1,024 inter-board cables, no switches.
                // Priced as AoC: that matches the paper's $2.5M figure; its
                // text says DAC.
                inventory: Inventory::new(0, 0, 1024).planes(4),
                diameter: diameter::torus_diameter(32, 32),
                paper_cost_musd: 2.5,
                paper_diameter: 32,
            },
        ],
        ClusterSize::Large => vec![
            Table2Entry {
                name: "nonblocking fat tree",
                cluster,
                endpoints: 16384,
                // 16 planes of (512+512+256 switches, 16,384 DAC, 32,768 AoC).
                inventory: Inventory::new(1280, 16384, 32768).planes(16),
                diameter: diameter::fat_tree_diameter(16384, 64),
                paper_cost_musd: 680.0,
                paper_diameter: 6,
            },
            Table2Entry {
                name: "50% tapered fat tree",
                cluster,
                endpoints: 16380,
                // App. C2a: 794 switches, 17,160 AoC, 16,380 DAC per plane.
                inventory: Inventory::new(794, 16380, 17160).planes(16),
                diameter: diameter::fat_tree_diameter(16380, 64),
                paper_cost_musd: 419.0,
                paper_diameter: 6,
            },
            Table2Entry {
                name: "75% tapered fat tree",
                cluster,
                endpoints: 16422,
                // App. C2a: 8,304 switches total; 16,422 DAC and 8,372 AoC
                // per plane.
                inventory: Inventory::new(8304, 0, 0)
                    .add(Inventory::new(0, 16422, 8372).planes(16)),
                diameter: diameter::fat_tree_diameter(16422, 64),
                paper_cost_musd: 271.0,
                paper_diameter: 6,
            },
            Table2Entry {
                name: "Dragonfly",
                cluster,
                endpoints: 16320,
                // App. C2b: 960 switches, 31,200 DAC, 7,680 AoC per plane.
                inventory: Inventory::new(960, 31200, 7680).planes(16),
                diameter: diameter::dragonfly_diameter(16, 30),
                paper_cost_musd: 429.0,
                paper_diameter: 5,
            },
            Table2Entry {
                name: "2D HyperX",
                cluster,
                endpoints: 16384,
                // Per plane: 128 row trees + 128 column trees of 12
                // switches each = 3,072; 32,768 DAC; 98,304 AoC.
                inventory: Inventory::new(3072, 32768, 98304).planes(4),
                diameter: diameter::hyperx_diameter(128, 128, 64),
                paper_cost_musd: 448.0,
                paper_diameter: 8,
            },
            Table2Entry {
                name: "Hx2Mesh",
                cluster,
                endpoints: 16384,
                // Per plane: 2*64 row lines + 2*64 column lines, each a
                // 128-port tree of 6 switches = 1,536; 16,384 DAC;
                // 16,384 + 2*16,384 = 49,152 AoC.
                inventory: Inventory::new(1536, 16384, 49152).planes(4),
                diameter: diameter::hxmesh_diameter(2, 2, 64, 64, 64),
                paper_cost_musd: 224.0,
                paper_diameter: 8,
            },
            Table2Entry {
                name: "Hx4Mesh",
                cluster,
                endpoints: 16384,
                // Per plane: 4 single switches per board row/column:
                // 2*32*4 = 256 switches; 8,192 DAC; 8,192 AoC.
                inventory: Inventory::new(256, 8192, 8192).planes(4),
                diameter: diameter::hxmesh_diameter(4, 4, 32, 32, 64),
                paper_cost_musd: 43.3,
                paper_diameter: 8,
            },
            Table2Entry {
                name: "2D torus",
                cluster,
                endpoints: 16384,
                inventory: Inventory::new(0, 0, 16384).planes(4),
                diameter: diameter::torus_diameter(128, 128),
                paper_cost_musd: 39.5,
                paper_diameter: 128,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every computed cost must match Table II to its printed precision
    /// (±0.5% covers the paper's rounding to 3 significant digits).
    #[test]
    fn costs_match_table2() {
        for cluster in [ClusterSize::Small, ClusterSize::Large] {
            for e in table2_entries(cluster) {
                let got = e.cost_musd();
                let rel = (got - e.paper_cost_musd).abs() / e.paper_cost_musd;
                // Table II prints 2-3 significant digits (2.47 -> "2.5").
                assert!(
                    rel < 0.015,
                    "{:?} {}: computed {:.2} M$, paper {} M$ ({:.2}% off)",
                    e.cluster,
                    e.name,
                    got,
                    e.paper_cost_musd,
                    rel * 100.0
                );
            }
        }
    }

    #[test]
    fn diameters_match_table2() {
        for cluster in [ClusterSize::Small, ClusterSize::Large] {
            for e in table2_entries(cluster) {
                assert_eq!(
                    e.diameter, e.paper_diameter,
                    "{:?} {}: diameter formula disagrees with Table II",
                    e.cluster, e.name
                );
            }
        }
    }

    /// Cable counts from the constructed graphs must agree with the closed
    /// forms for the small cluster (where App. C is explicit).
    #[test]
    fn small_graph_counts_agree_with_closed_forms() {
        use hxnet::Cable;
        let entries = table2_entries(ClusterSize::Small);

        let ft = hxnet::fattree::FatTreeParams::small_nonblocking().build();
        assert_eq!(
            ft.topo.count_cables(Cable::Dac) as u64 * 16,
            entries[0].inventory.dac_cables
        );
        assert_eq!(
            ft.topo.count_cables(Cable::Aoc) as u64 * 16,
            entries[0].inventory.aoc_cables
        );
        assert_eq!(
            ft.topo.count_switches() as u64 * 16,
            entries[0].inventory.switches
        );

        let df = hxnet::dragonfly::DragonflyParams::small().build();
        // The paper packs two 31-port virtual switches per 64-port physical
        // switch, turning one local DAC per physical switch into an
        // internal trace: 1,984 graph cables - 64 = 1,920 priced cables.
        assert_eq!(df.topo.count_cables(Cable::Dac) as u64, 1984);
        assert_eq!(
            (df.topo.count_cables(Cable::Dac) as u64 - 64) * 16,
            entries[3].inventory.dac_cables
        );
        assert_eq!(
            df.topo.count_cables(Cable::Aoc) as u64 * 16,
            entries[3].inventory.aoc_cables
        );

        let hx2 = hxnet::hammingmesh::HxMeshParams::small_hx2().build();
        assert_eq!(
            hx2.topo.count_cables(Cable::Dac) as u64 * 4,
            entries[5].inventory.dac_cables
        );
        assert_eq!(
            hx2.topo.count_cables(Cable::Aoc) as u64 * 4,
            entries[5].inventory.aoc_cables
        );

        let hx4 = hxnet::hammingmesh::HxMeshParams::small_hx4().build();
        assert_eq!(
            hx4.topo.count_cables(Cable::Dac) as u64 * 4,
            entries[6].inventory.dac_cables
        );

        let torus = hxnet::torus::TorusParams::small().build();
        assert_eq!(
            torus.topo.count_cables(Cable::Aoc) as u64 * 4,
            entries[7].inventory.aoc_cables
        );
    }

    /// Table II derived claim (§I): Hx4Mesh allreduce is >8x cheaper than a
    /// nonblocking fat tree; sanity-check the cost ratios behind it.
    #[test]
    fn headline_cost_ratios() {
        let small = table2_entries(ClusterSize::Small);
        let ft = small[0].cost_musd();
        let hx4 = small[6].cost_musd();
        assert!(ft / hx4 > 8.0, "small: {ft:.1} / {hx4:.1}");
        let large = table2_entries(ClusterSize::Large);
        let ft = large[0].cost_musd();
        let hx4 = large[6].cost_musd();
        assert!(ft / hx4 > 14.0, "large: {ft:.1} / {hx4:.1}");
    }
}
