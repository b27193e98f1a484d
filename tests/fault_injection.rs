//! Fault injection end to end: kill cables with
//! [`hammingmesh::hxnet::Topology::fail_link`] and assert both simulation
//! engines still deliver every message. Every router is failure-aware —
//! the HxMesh router routes around dead cables (other board-line exit,
//! other tree entry), and every router's hops re-route through
//! `hxnet::Router::next_hops`, so the baseline topologies (fat tree,
//! Dragonfly, HyperX, torus) can be simulated under faults too.
//!
//! Scope: any cable (accelerator <-> switch, switch <-> switch, and the
//! torus' inter-board links) may fail; on-board PCB traces are assumed
//! reliable, as in the paper's fault model where board replacement — not
//! trace failure — is the repair unit.

use hammingmesh::hxnet::dragonfly::DragonflyParams;
use hammingmesh::hxnet::fattree::FatTreeParams;
use hammingmesh::hxnet::hammingmesh::{HxCoord, HxMeshParams};
use hammingmesh::hxnet::hyperx::HyperXParams;
use hammingmesh::hxnet::torus::TorusParams;
use hammingmesh::hxnet::{Cable, Network, NodeId, PortId};
use hammingmesh::hxsim::apps::{Alltoall, MessageBlast, UniformRandom};
use hammingmesh::hxsim::{simulate, EngineKind, SimConfig};

/// Ports of `node` whose peer is a switch (global cables), in port order.
fn cable_ports(net: &Network, node: NodeId) -> Vec<PortId> {
    (0..net.topo.num_ports(node))
        .map(|p| PortId(p as u16))
        .filter(|&p| net.topo.kind(net.topo.peer(node, p).node).is_switch())
        .collect()
}

/// The accelerator wiring order makes the *row* cable (E or W) of a board
/// edge accelerator its first switch-facing port; the column cable (N or
/// S) is the second.
fn row_cable(net: &Network, node: NodeId) -> PortId {
    cable_ports(net, node)[0]
}

fn col_cable(net: &Network, node: NodeId) -> PortId {
    cable_ports(net, node)[1]
}

#[test]
fn targeted_send_routes_around_failed_row_cable() {
    let params = HxMeshParams::square(2, 4);
    let mut net = params.build();
    // Kill the West row cable of the accelerator at board (0,0), r=0, c=0.
    let co = HxCoord {
        bi: 0,
        bj: 0,
        r: 0,
        c: 0,
    };
    let src = net.endpoints[params.rank_of(co)];
    net.topo.fail_link(src, row_cable(&net, src));
    assert_eq!(net.topo.count_failed_links(), 1);

    // Traffic from that accelerator across its board row must now leave
    // through the East edge and still arrive, on both engines.
    let dst = params.rank_of(HxCoord {
        bi: 0,
        bj: 2,
        r: 0,
        c: 1,
    });
    for kind in EngineKind::all() {
        let mut app = MessageBlast::pairs(vec![(params.rank_of(co) as u32, dst as u32, 1 << 20)]);
        let stats = simulate(&net, SimConfig::default(), kind, &mut app);
        assert!(stats.clean(), "{kind}: {stats:?}");
        assert_eq!(stats.messages_delivered, 1);
    }
}

#[test]
fn targeted_send_routes_around_failed_entry_cable() {
    let params = HxMeshParams::square(2, 4);
    let mut net = params.build();
    // Kill the *destination-side* West entry cable: the row-line tree must
    // deliver through the East edge of the target board instead.
    let dco = HxCoord {
        bi: 1,
        bj: 3,
        r: 1,
        c: 0,
    };
    let entry = net.endpoints[params.rank_of(dco)];
    net.topo.fail_link(entry, row_cable(&net, entry));

    let src = params.rank_of(HxCoord {
        bi: 1,
        bj: 0,
        r: 1,
        c: 0,
    });
    for kind in EngineKind::all() {
        let mut app =
            MessageBlast::pairs(vec![(src as u32, params.rank_of(dco) as u32, 512 << 10)]);
        let stats = simulate(&net, SimConfig::default(), kind, &mut app);
        assert!(stats.clean(), "{kind}: {stats:?}");
    }
}

#[test]
fn alltoall_survives_row_and_column_cable_failures() {
    let params = HxMeshParams::square(2, 4);
    let mut net = params.build();
    // One row cable and one column cable, on different boards.
    let a = net.endpoints[params.rank_of(HxCoord {
        bi: 0,
        bj: 1,
        r: 0,
        c: 0,
    })];
    net.topo.fail_link(a, row_cable(&net, a));
    let b = net.endpoints[params.rank_of(HxCoord {
        bi: 2,
        bj: 2,
        r: 0,
        c: 1,
    })];
    net.topo.fail_link(b, col_cable(&net, b));
    assert_eq!(net.topo.count_failed_links(), 2);

    for kind in EngineKind::all() {
        let mut app = Alltoall::new(net.num_ranks(), 16 << 10, 2);
        let stats = simulate(&net, SimConfig::default(), kind, &mut app);
        assert!(stats.clean(), "{kind}: {stats:?}");
        assert_eq!(stats.messages_delivered as usize, 64 * 63);
    }
}

#[test]
fn uniform_random_survives_failures_and_repair_restores_determinism() {
    let params = HxMeshParams::square(2, 2);
    let mut net = params.build();
    let baseline = {
        let mut app = UniformRandom::new(net.num_ranks(), 24 << 10, 4, 11);
        simulate(&net, SimConfig::default(), EngineKind::Packet, &mut app).finish_ps
    };
    // Fail a cable: the run still completes (likely slower routes).
    let e = net.endpoints[params.rank_of(HxCoord {
        bi: 0,
        bj: 0,
        r: 1,
        c: 1,
    })];
    let cable = row_cable(&net, e);
    net.topo.fail_link(e, cable);
    {
        let mut app = UniformRandom::new(net.num_ranks(), 24 << 10, 4, 11);
        let stats = simulate(&net, SimConfig::default(), EngineKind::Packet, &mut app);
        assert!(stats.clean(), "{stats:?}");
    }
    // Repair: behavior must be bit-identical to the pristine topology.
    net.topo.restore_link(e, cable);
    assert_eq!(net.topo.count_failed_links(), 0);
    let repaired = {
        let mut app = UniformRandom::new(net.num_ranks(), 24 << 10, 4, 11);
        simulate(&net, SimConfig::default(), EngineKind::Packet, &mut app).finish_ps
    };
    assert_eq!(baseline, repaired);
}

#[test]
fn failed_link_carries_no_traffic() {
    // The walk-based check: with the West cable of (0,0,r0,c0) dead, no
    // route produced by the router may use it.
    let params = HxMeshParams::square(2, 4);
    let mut net = params.build();
    let co = HxCoord {
        bi: 0,
        bj: 0,
        r: 0,
        c: 0,
    };
    let src = net.endpoints[params.rank_of(co)];
    let dead = row_cable(&net, src);
    net.topo.fail_link(src, dead);

    // Exhaustively walk from the affected accelerator to every other rank
    // following first candidates; the dead port must never be offered.
    for d in 0..net.num_ranks() {
        let dn = net.endpoints[d];
        if dn == src {
            continue;
        }
        let mut node = src;
        let mut vc = 0u8;
        let mut hops = 0;
        while node != dn {
            let mut cand = Vec::new();
            net.router.next_hops(&net.topo, node, vc, dn, &mut cand);
            assert!(!cand.is_empty(), "stuck at {node:?} toward rank {d}");
            for h in &cand {
                assert!(
                    !net.topo.link_failed(node, h.port),
                    "router offered dead link {node:?}:{:?} toward rank {d}",
                    h.port
                );
            }
            node = net.topo.peer(node, cand[0].port).node;
            vc = cand[0].vc;
            hops += 1;
            assert!(hops < 64, "livelock routing to rank {d}");
        }
    }
}

// ---------------------------------------------------------------------------
// Baseline topologies: the failure-aware routing extends beyond HxMesh.
// ---------------------------------------------------------------------------

/// Alltoall delivery on every baseline topology with failed cables, on
/// both engines: nothing is lost, nothing livelocks.
#[test]
fn baselines_deliver_alltoall_with_failed_cables() {
    let nets: Vec<(Box<dyn Fn() -> Network>, usize)> = vec![
        (
            Box::new(|| FatTreeParams::scaled_nonblocking(16, 8).build()),
            3,
        ),
        (
            Box::new(|| {
                DragonflyParams {
                    a: 4,
                    p: 2,
                    h: 2,
                    groups: 4,
                }
                .build()
            }),
            3,
        ),
        (
            Box::new(|| {
                HyperXParams {
                    x: 4,
                    y: 4,
                    radix: 64,
                }
                .build()
            }),
            3,
        ),
        (
            Box::new(|| {
                TorusParams {
                    cols: 4,
                    rows: 4,
                    board: 2,
                }
                .build()
            }),
            2,
        ),
    ];
    for (build, failures) in nets {
        for kind in EngineKind::all() {
            let mut net = build();
            assert_eq!(net.fail_spread_cables(failures), failures);
            let p = net.num_ranks();
            let mut app = Alltoall::new(p, 8 << 10, 2);
            let stats = simulate(&net, SimConfig::default(), kind, &mut app);
            assert!(stats.clean(), "{} ({kind}): {stats:?}", net.name);
            assert_eq!(
                stats.messages_delivered as usize,
                p * (p - 1),
                "{} ({kind})",
                net.name
            );
        }
    }
}

/// A targeted fat-tree case: kill a leaf's up link; traffic out of that
/// leaf shifts to the remaining spines and still arrives.
#[test]
fn fat_tree_targeted_send_survives_failed_up_link() {
    for kind in EngineKind::all() {
        let mut net = FatTreeParams::scaled_nonblocking(32, 8).build();
        // First inter-switch cable: a leaf -> spine up link.
        let (node, port) = net
            .topo
            .cables()
            .into_iter()
            .find(|&(n, p)| {
                net.topo.kind(n).is_switch() && net.topo.kind(net.topo.peer(n, p).node).is_switch()
            })
            .expect("inter-switch cable");
        net.topo.fail_link(node, port);
        let mut app = MessageBlast::pairs(vec![(0, 31, 1 << 20)]);
        let stats = simulate(&net, SimConfig::default(), kind, &mut app);
        assert!(stats.clean(), "{kind}: {stats:?}");
        assert_eq!(stats.messages_delivered, 1);
    }
}

/// A targeted Dragonfly case: kill a global (AoC) cable; inter-group
/// traffic detours over the surviving global links on both engines.
#[test]
fn dragonfly_targeted_send_survives_failed_global_cable() {
    for kind in EngineKind::all() {
        let mut net = DragonflyParams {
            a: 4,
            p: 2,
            h: 2,
            groups: 4,
        }
        .build();
        let (node, port) = net
            .topo
            .cables()
            .into_iter()
            .find(|&(n, p)| net.topo.link(n, p).spec.cable == Cable::Aoc)
            .expect("global cable");
        net.topo.fail_link(node, port);
        // Cross-group pairs in both directions.
        let p = net.num_ranks() as u32;
        let mut app = MessageBlast::pairs(vec![(0, p - 1, 256 << 10), (p - 1, 0, 256 << 10)]);
        let stats = simulate(&net, SimConfig::default(), kind, &mut app);
        assert!(stats.clean(), "{kind}: {stats:?}");
        assert_eq!(stats.messages_delivered, 2);
    }
}

/// Torus wrap-around failure: uniform-random traffic still drains on both
/// engines with two inter-board cables down.
#[test]
fn torus_uniform_random_survives_failed_cables() {
    for kind in EngineKind::all() {
        let mut net = TorusParams {
            cols: 4,
            rows: 4,
            board: 2,
        }
        .build();
        assert_eq!(net.fail_spread_cables(2), 2);
        let mut app = UniformRandom::new(net.num_ranks(), 16 << 10, 4, 7);
        let stats = simulate(&net, SimConfig::default(), kind, &mut app);
        assert!(stats.clean(), "{kind}: {stats:?}");
    }
}

/// restore_link round-trip at the routing level, on every baseline: fail
/// a cable on the deterministic greedy route, the route changes and
/// avoids it; restore, and the original route comes back hop for hop.
#[test]
fn restore_link_brings_the_original_route_back() {
    let nets: Vec<Network> = vec![
        FatTreeParams::scaled_nonblocking(16, 8).build(),
        DragonflyParams {
            a: 4,
            p: 2,
            h: 2,
            groups: 4,
        }
        .build(),
        HyperXParams {
            x: 4,
            y: 4,
            radix: 64,
        }
        .build(),
        TorusParams {
            cols: 4,
            rows: 4,
            board: 2,
        }
        .build(),
        HxMeshParams::square(2, 3).build(),
    ];
    for mut net in nets {
        let (src, dst) = (net.endpoints[0], *net.endpoints.last().unwrap());
        let walk = |net: &Network| -> Vec<(NodeId, PortId)> {
            let mut route = Vec::new();
            let (mut node, mut vc) = (src, 0u8);
            while node != dst {
                let mut cand = Vec::new();
                net.router.next_hops(&net.topo, node, vc, dst, &mut cand);
                assert!(!cand.is_empty(), "{}: stuck at {node:?}", net.name);
                route.push((node, cand[0].port));
                vc = cand[0].vc;
                node = net.topo.peer(node, cand[0].port).node;
                assert!(route.len() < 64, "{}: route too long", net.name);
            }
            route
        };
        let pristine = walk(&net);
        // Fail the first cable on the pristine route whose loss does not
        // disconnect the pair (skip PCB hops — outside the fault model —
        // and single-attachment NIC cables, whose loss isolates an
        // endpoint and is covered by the unreachability proptest).
        let (n, p) = {
            let mut pick = None;
            for &(n, p) in &pristine {
                if net.topo.link(n, p).spec.cable == Cable::Pcb {
                    continue;
                }
                net.topo.fail_link(n, p);
                let d = net.topo.bfs_hops_healthy(src);
                let ok = d[dst.idx()] != u32::MAX && d[src.idx()] != u32::MAX;
                net.topo.restore_link(n, p);
                if ok {
                    pick = Some((n, p));
                    break;
                }
            }
            pick.unwrap_or_else(|| panic!("{}: no redundant cable on route", net.name))
        };
        net.topo.fail_link(n, p);
        let rerouted = walk(&net);
        assert_ne!(pristine, rerouted, "{}: route did not change", net.name);
        assert!(
            rerouted
                .iter()
                .all(|&(rn, rp)| !net.topo.link_failed(rn, rp)),
            "{}: rerouted path uses the dead cable",
            net.name
        );
        net.topo.restore_link(n, p);
        assert_eq!(pristine, walk(&net), "{}: repair did not restore", net.name);
    }
}

/// Regression for `restore_link` against the topology's failure-aware
/// distances: a fail -> restore -> fail cycle on the *same* cable must
/// produce hop sets identical to the first failure at every hop, on every
/// topology. Every change of the failure set drops the distances, so the
/// interleaved healthy and failed queries may not bleed into each other.
#[test]
fn refail_same_cable_reproduces_first_failure_routes() {
    let nets: Vec<Network> = vec![
        FatTreeParams::scaled_nonblocking(16, 8).build(),
        DragonflyParams {
            a: 4,
            p: 2,
            h: 2,
            groups: 4,
        }
        .build(),
        HyperXParams {
            x: 4,
            y: 4,
            radix: 64,
        }
        .build(),
        TorusParams {
            cols: 4,
            rows: 4,
            board: 2,
        }
        .build(),
        HxMeshParams::square(2, 3).build(),
    ];
    for mut net in nets {
        let (src, dst) = (net.endpoints[0], *net.endpoints.last().unwrap());
        // Walk first candidates to the destination, recording the FULL
        // candidate set at every hop — any stale cache entry shows up as
        // a changed set somewhere along the walk.
        let walk_sets = |net: &Network| -> Vec<Vec<(PortId, u8)>> {
            let mut sets = Vec::new();
            let (mut node, mut vc) = (src, 0u8);
            while node != dst {
                let mut cand = Vec::new();
                net.router.next_hops(&net.topo, node, vc, dst, &mut cand);
                assert!(!cand.is_empty(), "{}: stuck at {node:?}", net.name);
                sets.push(cand.iter().map(|h| (h.port, h.vc)).collect());
                vc = cand[0].vc;
                node = net.topo.peer(node, cand[0].port).node;
                assert!(sets.len() < 64, "{}: route too long", net.name);
            }
            sets
        };
        let pristine = walk_sets(&net);
        // First redundant non-PCB cable along the first-candidate walk
        // (same selection as restore_link_brings_the_original_route_back).
        let mut pick = None;
        let (mut node, mut vc) = (src, 0u8);
        while node != dst && pick.is_none() {
            let mut cand = Vec::new();
            net.router.next_hops(&net.topo, node, vc, dst, &mut cand);
            let hop = cand[0];
            if net.topo.link(node, hop.port).spec.cable != Cable::Pcb {
                net.topo.fail_link(node, hop.port);
                let ok = net.topo.bfs_hops_healthy(src)[dst.idx()] != u32::MAX;
                net.topo.restore_link(node, hop.port);
                if ok {
                    pick = Some((node, hop.port));
                }
            }
            vc = hop.vc;
            node = net.topo.peer(node, hop.port).node;
        }
        let (n, p) = pick.unwrap_or_else(|| panic!("{}: no redundant cable", net.name));

        net.topo.fail_link(n, p);
        let first_failure = walk_sets(&net);
        net.topo.restore_link(n, p);
        assert_eq!(
            pristine,
            walk_sets(&net),
            "{}: restore did not bring pristine candidate sets back",
            net.name
        );
        net.topo.fail_link(n, p);
        assert_eq!(
            first_failure,
            walk_sets(&net),
            "{}: refailing the same cable diverged from the first failure",
            net.name
        );
        // And a second restore closes the cycle.
        net.topo.restore_link(n, p);
        assert_eq!(pristine, walk_sets(&net), "{}: second repair", net.name);
    }
}

/// End-to-end repair determinism on a baseline topology (mirrors the
/// HxMesh test above): fail -> still clean (the nonblocking tree has the
/// spare capacity to absorb one dead up link, so timing may not even
/// move) -> restore -> bit-identical to the pristine run.
#[test]
fn fat_tree_repair_restores_determinism() {
    let mut net = FatTreeParams::scaled_nonblocking(16, 8).build();
    let run = |net: &Network| {
        let mut app = UniformRandom::new(net.num_ranks(), 24 << 10, 4, 11);
        simulate(net, SimConfig::default(), EngineKind::Packet, &mut app).finish_ps
    };
    let baseline = run(&net);
    let (node, port) = net
        .topo
        .cables()
        .into_iter()
        .find(|&(n, p)| {
            net.topo.kind(n).is_switch() && net.topo.kind(net.topo.peer(n, p).node).is_switch()
        })
        .expect("inter-switch cable");
    net.topo.fail_link(node, port);
    {
        let mut app = UniformRandom::new(net.num_ranks(), 24 << 10, 4, 11);
        let stats = simulate(&net, SimConfig::default(), EngineKind::Packet, &mut app);
        assert!(stats.clean(), "degraded run lost traffic: {stats:?}");
    }
    net.topo.restore_link(node, port);
    assert_eq!(baseline, run(&net));
}
