//! 2D HyperX topology.
//!
//! The paper observes (§III, footnote 2) that a 2D HyperX is identical to
//! an Hx1Mesh — a HammingMesh with 1x1 boards, where each "board" is a
//! single accelerator whose E/W ports attach to the row network and N/S
//! ports to the column network, and every row/column network is a single
//! switch (dimension-wise fully connected). We therefore build HyperX
//! through the HammingMesh constructor, which also gives us its adaptive
//! routing for free, and [`crate::route::Router::next_hops`] routes HyperX
//! traffic around failed cables exactly like an Hx1Mesh's.

use crate::graph::Network;
use crate::hammingmesh::HxMeshParams;

/// Parameters of a 2D HyperX: an `x` x `y` grid of accelerators,
/// dimension-wise fully connected through row/column switches.
#[derive(Clone, Debug)]
pub struct HyperXParams {
    pub x: usize,
    pub y: usize,
    /// Switch radix (64 in the paper).
    pub radix: usize,
}

impl HyperXParams {
    /// The paper's small-cluster 32x32 2D HyperX (1,024 accelerators).
    pub fn small() -> Self {
        Self {
            x: 32,
            y: 32,
            radix: 64,
        }
    }

    /// The paper's large-cluster 128x128 2D HyperX (16,384 accelerators).
    pub fn large() -> Self {
        Self {
            x: 128,
            y: 128,
            radix: 64,
        }
    }

    pub fn num_accelerators(&self) -> usize {
        self.x * self.y
    }

    /// Equivalent HammingMesh parameterization (Hx1Mesh).
    pub fn as_hxmesh(&self) -> HxMeshParams {
        HxMeshParams {
            a: 1,
            b: 1,
            x: self.x,
            y: self.y,
            taper: 0.0,
            radix: self.radix,
        }
    }

    pub fn build(&self) -> Network {
        let mut net = self.as_hxmesh().build();
        net.name = format!("{}x{} 2D HyperX", self.x, self.y);
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Cable;

    #[test]
    fn small_hyperx_counts_match_appendix_c() {
        // 32x32 Hx1Mesh: 32+32 = 64 switches per plane; 2,048 DAC and
        // 2,048 AoC endpoint cables per plane (App. C1d).
        let net = HyperXParams::small().build();
        assert_eq!(net.endpoints.len(), 1024);
        assert_eq!(net.topo.count_switches(), 64);
        assert_eq!(net.topo.count_cables(Cable::Dac), 2048);
        assert_eq!(net.topo.count_cables(Cable::Aoc), 2048);
        assert_eq!(net.topo.count_cables(Cable::Pcb), 0);
    }

    #[test]
    fn routing_survives_a_failed_row_cable() {
        use crate::graph::PortId;
        let mut net = HyperXParams {
            x: 4,
            y: 4,
            radix: 64,
        }
        .build();
        // Endpoint 0's East port (port 0, wired first) is a row cable.
        let src = net.endpoints[0];
        let dead = PortId(0);
        assert!(net.topo.kind(net.topo.peer(src, dead).node).is_switch());
        net.topo.fail_link(src, dead);
        // Every destination is still reached, never over the dead link.
        for d in 1..net.endpoints.len() {
            crate::walk(&net, 0, d, 8);
        }
    }

    #[test]
    fn hyperx_diameter_is_short() {
        // src -> row switch -> intermediate -> col switch -> dst: at most
        // 4 cable hops endpoint-to-endpoint for 1x1 boards... plus entry.
        let net = HyperXParams {
            x: 8,
            y: 8,
            radix: 64,
        }
        .build();
        let d = net.topo.bfs_hops(net.endpoints[0]);
        let max = net.endpoints.iter().map(|e| d[e.idx()]).max().unwrap();
        assert!(max <= 4, "HyperX endpoint diameter {max} > 4");
    }
}
