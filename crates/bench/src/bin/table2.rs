//! Regenerates **Table II**: cost, diameter, and (with `--simulate` or by
//! default at reduced scale) the global-alltoall and allreduce bandwidth
//! columns for all eight topologies.
//!
//! Costs and diameters are exact (closed forms from App. C/E); bandwidths
//! come from the packet simulator on scaled topologies (256 endpoints by
//! default, the paper-size 1,024-endpoint "small cluster" with `--full`).

use hammingmesh::prelude::*;
use hxbench::{header, timed, HarnessArgs};
use hxserve::render::fmt_bytes;

fn main() {
    let args = HarnessArgs::parse();

    header("Table II — capital expenditure and diameter (closed forms)");
    println!(
        "{:<24} {:>10} {:>10} {:>6}   {:>10} {:>10} {:>6}",
        "topology", "cost[M$]", "paper", "diam", "cost[M$]", "paper", "diam"
    );
    println!(
        "{:<24} {:>28}   {:>28}",
        "", "— small cluster —", "— large cluster —"
    );
    let small = hammingmesh::hxcost::table2_entries(ClusterSize::Small);
    let large = hammingmesh::hxcost::table2_entries(ClusterSize::Large);
    for (s, l) in small.iter().zip(&large) {
        println!(
            "{:<24} {:>10.1} {:>10.1} {:>6}   {:>10.1} {:>10.1} {:>6}",
            s.name,
            s.cost_musd(),
            s.paper_cost_musd,
            s.diameter,
            l.cost_musd(),
            l.paper_cost_musd,
            l.diameter
        );
    }

    // Quick scale is 64 endpoints / 128 KiB base message: 256 endpoints of
    // packet simulation across 8 topologies takes minutes (the harness
    // contract is "quick finishes in seconds").
    let (n, msg) = if args.full {
        (1024usize, 1u64 << 20)
    } else {
        (64, 128 << 10)
    };
    header(&format!(
        "Table II — simulated bandwidths ({n} endpoints, {} messages)",
        fmt_bytes(msg)
    ));
    println!(
        "{:<24} {:>14} {:>14}",
        "topology", "glob.BW[%inj]", "ared.BW[%peak]"
    );
    for choice in TopologyChoice::all() {
        let net = if args.full {
            choice.build_small()
        } else {
            choice.build_scaled(n)
        };
        let a2a = timed(&format!("{} alltoall", choice.name()), || {
            experiments::alltoall_bandwidth(
                &net,
                msg / 16,
                2,
                EngineKind::Packet,
                SimConfig::default(),
            )
        });
        let ar = timed(&format!("{} allreduce", choice.name()), || {
            experiments::allreduce_bandwidth(
                &net,
                AllreduceAlgo::DisjointRings,
                msg * 32,
                EngineKind::Packet,
            )
        });
        println!(
            "{:<24} {:>13.1}% {:>13.1}%{}",
            choice.name(),
            a2a.bw_fraction * 100.0,
            ar.bw_fraction * 100.0,
            if a2a.clean && ar.clean {
                ""
            } else {
                "  [INCOMPLETE RUN]"
            }
        );
    }
    println!(
        "\nNote: paper values (small cluster) for reference — glob.BW: 99.9/51.2/25.7/62.9/\n\
         91.6/25.4/11.3/2.0; ared.BW: 98.9/98.9/98.9/98.8/98.1/98.3/98.4/98.1. Scaled-down\n\
         runs reproduce ordering and oversubscription ratios, not absolute percentages."
    );
}
