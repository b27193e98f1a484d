//! Quickstart: build a HammingMesh, inspect it, price it, and measure one
//! collective on the packet simulator.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hammingmesh::prelude::*;

fn main() {
    // An 8x8 Hx2Mesh: 8x8 boards of 2x2 accelerators = 256 accelerators.
    let params = HxMeshParams::square(2, 8);
    let net = params.build();
    println!(
        "built {}: {} accelerators, {} switches, {} links",
        net.name,
        net.num_ranks(),
        net.topo.count_switches(),
        net.topo.num_links()
    );

    // Price one plane x 4 (the paper charges switches, DAC and AoC cables).
    let inv = Inventory::from_network(&net, 4);
    println!(
        "bill of materials (4 planes): {} switches, {} DAC, {} AoC -> ${:.2} M",
        inv.switches,
        inv.dac_cables,
        inv.aoc_cables,
        inv.cost_musd(&Prices::default())
    );

    // Measure a 4 MiB allreduce with the paper's two algorithms, on both
    // simulation backends: the packet engine is the ground truth, the
    // flow-level fast path trades per-packet fidelity for orders of
    // magnitude more speed at scale (see README "Two simulation engines").
    for algo in [AllreduceAlgo::DisjointRings, AllreduceAlgo::Torus2D] {
        for engine in EngineKind::all() {
            let m = experiments::allreduce_bandwidth(&net, algo, 4 << 20, engine);
            println!(
                "{algo:?} on {engine} engine: {:.1} us simulated, {:.1}% of the allreduce optimum",
                m.time_ps as f64 / 1e6,
                m.bw_fraction * 100.0
            );
            assert!(m.clean, "simulation must deliver every message");
        }
    }

    // And an alltoall, which HxMesh deliberately under-provisions (§II-D:
    // global bandwidth is rarely needed by deep learning workloads).
    let m = experiments::alltoall_bandwidth(
        &net,
        64 << 10,
        2,
        EngineKind::Packet,
        SimConfig::default(),
    );
    println!(
        "alltoall: {:.1}% of injection bandwidth (cut bound for Hx2Mesh: 25%)",
        m.bw_fraction * 100.0
    );
}
