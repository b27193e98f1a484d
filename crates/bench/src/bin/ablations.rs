//! Ablation studies for three of the paper's design choices:
//!
//! 1. **Global-tree tapering** (§III-F): sweep the HxMesh taper factor and
//!    measure alltoall (should degrade) vs allreduce (should not) and the
//!    switch/cable savings.
//! 2. **Board size** (Fig. 1's local-vs-global dial): Hx1/2/4/8 at equal
//!    accelerator count — the alltoall fraction should track the 1/2a cut.
//! 3. **Adaptive routing ingredients**: waypoints (column-first / Valiant)
//!    on vs off.

use hammingmesh::hxcost::Inventory;
use hammingmesh::prelude::*;
use hxbench::{header, timed, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse();
    let engine = args.engine();
    // Quick-mode message sizes; --full restores the paper-scale 32 KiB
    // alltoall / 16 MiB allreduce used for the reported numbers. The
    // topology shapes themselves cannot shrink: ablation 1 needs 2x = 96
    // ports per line to force two-level (taperable) global trees.
    let (a2a_msg, ared_msg): (u64, u64) = if args.full {
        (32 << 10, 16 << 20)
    } else {
        (16 << 10, 1 << 20)
    };

    header("Ablation 1 — HxMesh global-network tapering (§III-F)");
    println!(
        "{:>8} {:>9} {:>9} {:>11} {:>12}",
        "taper", "switches", "AoC", "a2a BW%", "ared BW%"
    );
    // Lines of 2x = 96 ports force two-level trees where taper applies.
    for taper in [0.0, 0.5, 0.75] {
        let p = hammingmesh::hxnet::hammingmesh::HxMeshParams {
            a: 2,
            b: 2,
            x: 48,
            y: 1,
            taper,
            radix: 64,
        };
        let net = p.build();
        let inv = Inventory::from_network(&net, 1);
        let a2a = timed(&format!("taper {taper} a2a"), || {
            experiments::alltoall_bandwidth(&net, a2a_msg, 2, engine, SimConfig::default())
        });
        let ar = timed(&format!("taper {taper} ared"), || {
            experiments::allreduce_bandwidth(&net, AllreduceAlgo::DisjointRings, ared_msg, engine)
        });
        println!(
            "{:>8} {:>9} {:>9} {:>10.1}% {:>11.1}%",
            taper,
            inv.switches,
            inv.aoc_cables,
            a2a.bw_fraction * 100.0,
            ar.bw_fraction * 100.0
        );
    }
    println!("Expected: tapering cuts switches/cables and alltoall, allreduce unharmed\n(rings need only 2 ports between neighboring switches — Fig. 6).");

    header("Ablation 2 — board size at 256 accelerators (the 1/2a dial)");
    println!(
        "{:>8} {:>10} {:>11} {:>12}",
        "board", "cut bound", "a2a BW%", "ared BW%"
    );
    for board in [1usize, 2, 4, 8] {
        let side = 16 / board;
        let p = HxMeshParams::square(board, side);
        let net = p.build();
        let a2a = timed(&format!("hx{board} a2a"), || {
            experiments::alltoall_bandwidth(&net, a2a_msg, 2, engine, SimConfig::default())
        });
        let ar = timed(&format!("hx{board} ared"), || {
            experiments::allreduce_bandwidth(&net, AllreduceAlgo::DisjointRings, ared_msg, engine)
        });
        println!(
            "{:>8} {:>9.1}% {:>10.1}% {:>11.1}%",
            format!("{board}x{board}"),
            100.0 / (2.0 * board as f64),
            a2a.bw_fraction * 100.0,
            ar.bw_fraction * 100.0
        );
    }

    header("Ablation 3 — source-adaptive waypoints");
    for use_waypoints in [true, false] {
        let net = HxMeshParams::square(2, if args.full { 8 } else { 4 }).build();
        let cfg = SimConfig {
            use_waypoints,
            ..Default::default()
        };
        let mut app = hammingmesh::hxsim::apps::Alltoall::new(net.num_ranks(), a2a_msg, 2);
        let stats = timed(&format!("waypoints={use_waypoints}"), || {
            simulate(&net, cfg, engine, &mut app)
        });
        let frac = hammingmesh::hxcollect::model::alltoall_bw_fraction(
            app.bytes_per_rank(),
            stats.finish_ps,
            net.injection_bytes_per_ps(0),
        );
        println!(
            "waypoints {:>5}: alltoall {:>5.1}% of injection (clean={})",
            use_waypoints,
            frac * 100.0,
            stats.clean()
        );
    }
    println!("Expected: disabling column-first waypoints funnels diagonal traffic\nthrough row-first paths only, lowering alltoall throughput.");
}
