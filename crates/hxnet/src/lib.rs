//! # hxnet — network topology substrate for HammingMesh
//!
//! This crate provides the network-graph substrate used throughout the
//! HammingMesh reproduction: node/port/link types, builders for every
//! topology evaluated in the paper (HammingMesh, fat tree, Dragonfly,
//! 2D HyperX, 2D torus), and the topology-specific adaptive routing
//! algorithms of §IV-C.
//!
//! The central type is [`Topology`], an explicit port-level multigraph:
//! every node (accelerator or switch) owns a list of ports, and every port
//! is connected to exactly one peer port by a full-duplex [`Link`] with a
//! latency, a serialization rate, and a [`Cable`] kind (PCB trace, DAC,
//! AoC). Cable kinds drive the cost model in `hxcost`.
//!
//! Builders return a [`Network`], which pairs the graph with a boxed
//! [`route::Router`] implementing the deadlock-free adaptive routing for
//! that topology, plus the list of endpoint (accelerator) nodes in rank
//! order.
//!
//! ```
//! use hxnet::hammingmesh::HxMeshParams;
//!
//! // A 4x4 Hx2Mesh: 2x2 boards, 4x4 global arrangement = 64 accelerators.
//! let net = HxMeshParams::square(2, 4).build();
//! assert_eq!(net.endpoints.len(), 64);
//! ```

pub mod dragonfly;
pub mod fattree;
pub mod graph;
pub mod hammingmesh;
pub mod hyperx;
pub mod route;
pub mod torus;

pub use graph::{
    Cable, FailureSetId, Link, LinkSpec, Network, Node, NodeId, NodeKind, PortId, PortRef, Topology,
};
pub use route::Router;

/// Link rate of a single 400 Gb/s port, expressed as picoseconds per byte.
///
/// 400 Gb/s = 50 GB/s = 0.05 B/ps, i.e. 20 ps per byte.
pub const PS_PER_BYTE_400G: f64 = 20.0;

/// Cable latency used for DAC and AoC cables in the paper's SST setup (20 ns).
pub const CABLE_LATENCY_PS: u64 = 20_000;

/// On-board PCB trace latency in the paper's SST setup (1 ns).
pub const PCB_LATENCY_PS: u64 = 1_000;

/// Switch input/output buffer latency (40 ns in App. F). Charged once per
/// switch traversal by the simulator.
pub const SWITCH_LATENCY_PS: u64 = 40_000;

/// Convenience: the default [`LinkSpec`] for a 400 Gb/s cable link.
pub fn cable_link(cable: Cable) -> LinkSpec {
    LinkSpec {
        latency_ps: CABLE_LATENCY_PS,
        ps_per_byte: PS_PER_BYTE_400G,
        cable,
    }
}

/// Convenience: the default [`LinkSpec`] for a 400 Gb/s on-board PCB trace.
pub fn pcb_link() -> LinkSpec {
    LinkSpec {
        latency_ps: PCB_LATENCY_PS,
        ps_per_byte: PS_PER_BYTE_400G,
        cable: Cable::Pcb,
    }
}

#[cfg(test)]
/// Test helper: walk the first hop of [`Router::next_hops`] from endpoint
/// `src` to endpoint `dst` and return the hop count. Every step asserts
/// that the set is non-empty, that every offered hop is healthy and that
/// every VC is below `num_vcs()` (the escape VC only while a cable is
/// failed), and the walk may take at most `max_hops`. On a healthy
/// network `next_hops` is `candidates`, so this is the scheme's own route.
pub(crate) fn walk(net: &Network, src: usize, dst: usize, max_hops: u32) -> u32 {
    let (s, d) = (net.endpoints[src], net.endpoints[dst]);
    let vcs = net.router.num_vcs() + u8::from(net.topo.has_failures());
    let (mut node, mut vc, mut hops) = (s, 0u8, 0u32);
    let mut cand = Vec::new();
    while node != d {
        net.router.next_hops(&net.topo, node, vc, d, &mut cand);
        assert!(!cand.is_empty(), "stuck at {node:?} (vc {vc}) toward {d:?}");
        for h in &cand {
            assert!(
                !net.topo.link_failed(node, h.port),
                "dead link offered at {node:?}"
            );
            assert!(h.vc < vcs, "vc {} out of range at {node:?}", h.vc);
        }
        node = net.topo.peer(node, cand[0].port).node;
        vc = cand[0].vc;
        hops += 1;
        assert!(hops <= max_hops, "{src}->{dst} took over {max_hops} hops");
    }
    hops
}
