//! Explore the Table II design space: build every topology at a reduced
//! scale, and print its structure, price (at paper scale), diameter, and a
//! quick measured bandwidth snapshot.
//!
//! ```sh
//! cargo run --release --example topology_explorer
//! ```

use hammingmesh::prelude::*;

fn main() {
    println!(
        "{:<24} {:>6} {:>8} {:>7} {:>10} {:>9} {:>9}",
        "topology (256 accel)", "switch", "links", "diam", "cost[M$]*", "a2a BW%", "ared BW%"
    );
    let paper_costs = hammingmesh::hxcost::table2_entries(ClusterSize::Small);
    for (i, choice) in TopologyChoice::all().into_iter().enumerate() {
        let net = choice.build_scaled(256);
        // BFS diameter over a sample of endpoints.
        let d = net.topo.bfs_hops(net.endpoints[0]);
        let diam = net.endpoints.iter().map(|e| d[e.idx()]).max().unwrap();
        let a2a = experiments::alltoall_bandwidth(
            &net,
            32 << 10,
            2,
            EngineKind::Packet,
            SimConfig::default(),
        );
        let ar = experiments::allreduce_bandwidth(
            &net,
            AllreduceAlgo::DisjointRings,
            16 << 20,
            EngineKind::Packet,
        );
        println!(
            "{:<24} {:>6} {:>8} {:>7} {:>10.1} {:>8.1} {:>8.1}",
            choice.name(),
            net.topo.count_switches(),
            net.topo.num_links(),
            diam,
            paper_costs[i].cost_musd(),
            a2a.bw_fraction * 100.0,
            ar.bw_fraction * 100.0
        );
    }
    println!("\n* cost shown for the paper's 1k-accelerator configuration (Table II).");
    println!(
        "The tradeoff of Fig. 1: HxMeshes give up global (alltoall) bandwidth for an\n\
         order of magnitude lower cost while keeping allreduce bandwidth high."
    );
}
