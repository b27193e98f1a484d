//! Property-based tests over the core invariants (proptest).

use hammingmesh::hxalloc::{BoardMesh, Heuristics};
use hammingmesh::hxcollect::logical::check_allreduce;
use hammingmesh::hxcollect::rings::{
    disjoint_hamiltonian_cycles, feasible, validate_cycle, validate_disjoint,
};
use hammingmesh::hxcollect::{
    bidirectional_ring_allreduce, binomial_tree_allreduce, ring_allreduce, torus2d_allreduce,
};
use hammingmesh::hxnet::route::ShortestPathRouter;
use hammingmesh::hxnet::{Network, NodeId, PortId};
use hammingmesh::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ring allreduce is numerically correct for arbitrary sizes.
    #[test]
    fn prop_ring_allreduce_correct(p in 2usize..12, n in 1usize..80) {
        let n = n.max(p);
        check_allreduce(&ring_allreduce(p, n)).unwrap();
    }

    #[test]
    fn prop_bidirectional_ring_correct(p in 2usize..10, n in 2usize..64) {
        let n = n.max(2 * p);
        check_allreduce(&bidirectional_ring_allreduce(p, n)).unwrap();
    }

    #[test]
    fn prop_torus2d_allreduce_correct(r in 2usize..6, c in 2usize..6, k in 1usize..4) {
        let n = r * c * k * 4;
        check_allreduce(&torus2d_allreduce(r, c, n, k % 2 == 0)).unwrap();
    }

    #[test]
    fn prop_binomial_tree_correct(p in 2usize..20, n in 1usize..40) {
        check_allreduce(&binomial_tree_allreduce(p, n)).unwrap();
    }

    /// Whenever Bae et al.'s conditions hold, the construction yields two
    /// valid edge-disjoint Hamiltonian cycles.
    #[test]
    fn prop_disjoint_cycles_valid(c in 2usize..9, k in 1usize..5) {
        let r = c * k;
        prop_assume!(feasible(r, c).is_ok());
        let (g, red) = disjoint_hamiltonian_cycles(r, c).unwrap();
        validate_cycle(&g, r, c).unwrap();
        validate_cycle(&red, r, c).unwrap();
        validate_disjoint(&g, &red).unwrap();
    }

    /// The allocator never double-books boards, never uses failed boards,
    /// and every placement's rows share one column set.
    #[test]
    fn prop_allocator_invariants(
        x in 2usize..12,
        y in 2usize..12,
        jobs in proptest::collection::vec((1usize..5, 1usize..5), 0..24),
        failures in proptest::collection::vec((0usize..12, 0usize..12), 0..6),
    ) {
        let mut mesh = BoardMesh::new(x, y);
        for (r, c) in failures {
            if r < y && c < x && mesh.owner(r, c).is_none() {
                mesh.fail_board(r, c);
            }
        }
        for (id, (u, v)) in jobs.into_iter().enumerate() {
            let _ = mesh.allocate(id as u32, u, v, Heuristics::all());
        }
        mesh.check_invariants().unwrap();
        prop_assert!(mesh.allocated_boards() <= mesh.working_boards());
    }

    /// Freeing everything returns the mesh to empty.
    #[test]
    fn prop_allocate_free_roundtrip(
        x in 2usize..10,
        y in 2usize..10,
        jobs in proptest::collection::vec((1usize..4, 1usize..4), 1..12),
    ) {
        let mut mesh = BoardMesh::new(x, y);
        let mut placed = Vec::new();
        for (id, (u, v)) in jobs.into_iter().enumerate() {
            if mesh.allocate(id as u32, u, v, Heuristics::all()).is_ok() {
                placed.push(id as u32);
            }
        }
        for id in placed {
            mesh.free(id);
        }
        prop_assert_eq!(mesh.allocated_boards(), 0);
        mesh.check_invariants().unwrap();
    }

    /// HxMesh routing reaches every destination within the diameter bound
    /// for random shapes, following random candidates.
    #[test]
    fn prop_hxmesh_routing_terminates(
        a in 1usize..4,
        b in 1usize..4,
        x in 1usize..5,
        y in 1usize..5,
        seed in 0u64..1000,
    ) {
        prop_assume!(a * b * x * y >= 2);
        prop_assume!(x >= 2 || y >= 2 || a * b >= 2);
        let net = HxMeshParams { a, b, x, y, taper: 0.0, radix: 64 }.build();
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = net.num_ranks();
        for _ in 0..16 {
            let s = rng.random_range(0..n);
            let d = rng.random_range(0..n);
            if s == d { continue; }
            let (mut node, dst) = (net.endpoints[s], net.endpoints[d]);
            let mut vc = 0u8;
            let mut hops = 0u32;
            while node != dst {
                let mut cand = Vec::new();
                net.router.candidates(&net.topo, node, vc, dst, &mut cand);
                prop_assert!(!cand.is_empty(), "stuck at {:?}", node);
                let h = cand[rng.random_range(0..cand.len())];
                prop_assert!(h.vc < net.router.num_vcs());
                node = net.topo.peer(node, h.port).node;
                vc = h.vc;
                hops += 1;
                prop_assert!(hops < 128, "livelock {}->{}", s, d);
            }
        }
    }

    /// Failure-aware routing, for every topology x router combination:
    /// under a random set of up to k failed cables that keeps all
    /// endpoints connected, every route — following *random* candidate
    /// choices — terminates within the hop bound, never traverses a
    /// failed link, and delivers to the destination.
    #[test]
    fn prop_failure_aware_routing_delivers(
        net_idx in 0usize..7,
        k in 0usize..6,
        seed in 0u64..10_000,
    ) {
        let mut net = fault_net(net_idx);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let failed = net.fail_random_cables(k, &mut rng);
        prop_assert!(failed <= k);
        let n = net.num_ranks();
        let max_hops = 4 * net.topo.num_nodes() as u32;
        for _ in 0..12 {
            let s = rng.random_range(0..n);
            let d = rng.random_range(0..n);
            if s == d { continue; }
            let (mut node, dst) = (net.endpoints[s], net.endpoints[d]);
            let mut vc = 0u8;
            let mut hops = 0u32;
            while node != dst {
                let mut cand = Vec::new();
                net.router.next_hops(&net.topo, node, vc, dst, &mut cand);
                prop_assert!(
                    !cand.is_empty(),
                    "{}: stuck at {:?} toward rank {} ({} failed cables)",
                    net.name, node, d, failed
                );
                let h = cand[rng.random_range(0..cand.len())];
                prop_assert!(
                    !net.topo.link_failed(node, h.port),
                    "{}: dead link {:?}:{:?} offered", net.name, node, h.port
                );
                node = net.topo.peer(node, h.port).node;
                vc = h.vc;
                hops += 1;
                prop_assert!(hops < max_hops, "{}: livelock {}->{}", net.name, s, d);
            }
        }
    }

    /// Disconnection is reported, not looped on: isolating an endpoint
    /// (all its links failed) makes every router return an empty
    /// candidate set toward it — and from it — instead of a dead link.
    #[test]
    fn prop_disconnected_endpoint_is_unreachable(
        net_idx in 0usize..7,
        victim in 0usize..16,
        probe in 0usize..16,
    ) {
        let mut net = fault_net(net_idx);
        let n = net.num_ranks();
        let (victim, probe) = (victim % n, probe % n);
        prop_assume!(victim != probe);
        let vnode = net.endpoints[victim];
        for p in 0..net.topo.num_ports(vnode) {
            net.topo.fail_link(vnode, PortId(p as u16));
        }
        let pnode = net.endpoints[probe];
        let mut cand = Vec::new();
        net.router.next_hops(&net.topo, pnode, 0, vnode, &mut cand);
        prop_assert!(cand.is_empty(), "{}: {:?}", net.name, cand);
        net.router.next_hops(&net.topo, vnode, 0, pnode, &mut cand);
        prop_assert!(cand.is_empty(), "{}: {:?}", net.name, cand);
        // Repair: routing between the pair works again.
        for p in 0..net.topo.num_ports(vnode) {
            net.topo.restore_link(vnode, PortId(p as u16));
        }
        net.router.next_hops(&net.topo, pnode, 0, vnode, &mut cand);
        prop_assert!(!cand.is_empty(), "{}: no route after repair", net.name);
    }

    /// A long-lived topology answers like a freshly failed one. One
    /// network takes a random sequence of connectivity-preserving fail
    /// and restore steps, returns to earlier failure sets included, with
    /// queries in between that fill its failure-aware distances. After
    /// every step, `next_hops` on every VC (the escape VC included) and
    /// the waypoint reachability answer random queries exactly like a
    /// fresh build of the same family with the same cables failed.
    #[test]
    fn prop_long_lived_topology_answers_like_a_fresh_one(
        net_idx in 0usize..7,
        seed in 0u64..10_000,
    ) {
        use hammingmesh::hxnet::route::ZeroLoad;
        use rand::{Rng, SeedableRng};
        let mut net = fault_net(net_idx);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cables = net.topo.cables();
        let mut failed: Vec<(NodeId, PortId)> = Vec::new();
        let mut earlier = vec![Vec::new()];
        for _ in 0..10 {
            match rng.random_range(0..3) {
                0 => {
                    let (n, p) = cables[rng.random_range(0..cables.len())];
                    if net.topo.fail_link(n, p) {
                        if net.endpoints_connected() {
                            failed.push((n, p));
                        } else {
                            net.topo.restore_link(n, p);
                        }
                    }
                }
                1 if !failed.is_empty() => {
                    let (n, p) = failed.remove(rng.random_range(0..failed.len()));
                    net.topo.restore_link(n, p);
                }
                _ => {
                    let set: Vec<(NodeId, PortId)> =
                        earlier[rng.random_range(0..earlier.len())].clone();
                    for &(n, p) in failed.iter().filter(|c| !set.contains(c)) {
                        net.topo.restore_link(n, p);
                    }
                    for &(n, p) in &set {
                        net.topo.fail_link(n, p);
                    }
                    failed = set;
                }
            }
            earlier.push(failed.clone());
            let mut fresh = fault_net(net_idx);
            for &(n, p) in &failed {
                fresh.topo.fail_link(n, p);
            }
            prop_assert_eq!(net.topo.failure_set_id(), fresh.topo.failure_set_id());
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for _ in 0..12 {
                let node = NodeId(rng.random_range(0..net.topo.num_nodes() as u32));
                let src = net.endpoints[rng.random_range(0..net.num_ranks())];
                let dst = net.endpoints[rng.random_range(0..net.num_ranks())];
                let vc = rng.random_range(0..net.router.num_vcs() + 1);
                net.router.next_hops(&net.topo, node, vc, dst, &mut got);
                fresh.router.next_hops(&fresh.topo, node, vc, dst, &mut want);
                prop_assert_eq!(&got, &want, "{}: {:?} vc {} -> {:?}", net.name, node, vc, dst);
                prop_assert_eq!(net.topo.reachable(node, dst), fresh.topo.reachable(node, dst));
                if src == dst {
                    continue;
                }
                let (mut ways, mut fresh_ways) = (Vec::new(), Vec::new());
                net.router.waypoint_options(&net.topo, src, dst, &mut ways);
                fresh.router.waypoint_options(&fresh.topo, src, dst, &mut fresh_ways);
                prop_assert_eq!(ways, fresh_ways, "{}: {:?} -> {:?}", net.name, src, dst);
                let pick_seed = rng.random_range(0..u64::MAX);
                let pick = |n: &Network| {
                    let mut r = rand::rngs::StdRng::seed_from_u64(pick_seed);
                    n.router.select_waypoint(&n.topo, src, dst, &ZeroLoad, &mut r)
                };
                prop_assert_eq!(pick(&net), pick(&fresh), "{}: {:?} -> {:?}", net.name, src, dst);
            }
        }
    }

    /// Any interleaving of allocate / deallocate / cable-fail / repair
    /// events — the full cluster-lifetime op mix `hxcluster` drives —
    /// leaves both substrates consistent after every single step: no
    /// double-allocated board, allocation never exceeds working boards,
    /// the incremental failed-link count matches the shadow set, and the
    /// failure-set id returns to pristine once everything is repaired.
    #[test]
    fn prop_interleaved_lifecycle_preserves_invariants(
        ops in proptest::collection::vec(
            (0usize..4, 0usize..64, 1usize..4, 1usize..4), 1..50),
    ) {
        use hammingmesh::hxnet::FailureSetId;
        let mut net = HxMeshParams::square(2, 3).build();
        let mut mesh = BoardMesh::new(3, 3);
        let cables = net.topo.cables();
        let mut failed: Vec<(_, _)> = Vec::new();
        // Shadow ledger (job id, boards granted), maintained by the test
        // itself: the mesh's allocation accounting is checked against an
        // independent count, like the failed-cable set below.
        let mut live: Vec<(u32, usize)> = Vec::new();
        let mut next_id = 0u32;
        for (op, sel, u, v) in ops {
            match op {
                0 => {
                    let _ = mesh.allocate(next_id, u, v, Heuristics::all())
                        .map(|p| live.push((next_id, p.boards())));
                    next_id += 1;
                }
                1 => {
                    if !live.is_empty() {
                        mesh.free(live.remove(sel % live.len()).0);
                    }
                }
                2 => {
                    let (n, p) = cables[sel % cables.len()];
                    if net.topo.fail_link(n, p) {
                        if net.endpoints_connected() {
                            failed.push((n, p));
                        } else {
                            net.topo.restore_link(n, p);
                        }
                    }
                }
                3 => {
                    if !failed.is_empty() {
                        let (n, p) = failed.remove(sel % failed.len());
                        prop_assert!(net.topo.restore_link(n, p));
                    }
                }
                _ => unreachable!(),
            }
            mesh.check_invariants().unwrap();
            prop_assert!(mesh.allocated_boards() <= mesh.working_boards());
            let shadow_boards: usize = live.iter().map(|&(_, b)| b).sum();
            prop_assert_eq!(mesh.allocated_boards(), shadow_boards);
            prop_assert_eq!(net.topo.count_failed_links(), failed.len());
            prop_assert_eq!(net.topo.has_failures(), !failed.is_empty());
            prop_assert_eq!(net.topo.failure_set_id().count as usize, failed.len());
            // The surviving failure set was connectivity-preserving at
            // every step, so all endpoints stay mutually reachable.
            prop_assert!(net.endpoints_connected(), "endpoints cut off");
        }
        // Drain everything: both substrates return to pristine.
        for (n, p) in failed {
            net.topo.restore_link(n, p);
        }
        for (id, _) in live {
            mesh.free(id);
        }
        prop_assert_eq!(net.topo.count_failed_links(), 0);
        prop_assert_eq!(net.topo.failure_set_id(), FailureSetId::default());
        prop_assert_eq!(mesh.allocated_boards(), 0);
        mesh.check_invariants().unwrap();
    }

    /// Random traffic on random small HxMeshes always drains (deadlock
    /// freedom of the 3-VC scheme under credit flow control).
    #[test]
    fn prop_hxmesh_simulation_drains(
        board in 1usize..3,
        n in 2usize..4,
        msgs in 2u32..6,
        seed in 0u64..500,
    ) {
        let net = HxMeshParams::square(board, n).build();
        let mut app = hammingmesh::hxsim::apps::UniformRandom::new(
            net.num_ranks(), 16 * 1024, msgs, seed);
        let cfg = SimConfig { max_time_ps: 100_000_000_000, ..Default::default() };
        let stats = Engine::new(&net, cfg).run(&mut app);
        prop_assert!(stats.clean(), "{:?}", stats);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random connectivity-preserving *mid-run* fail/repair schedules on
    /// every fault-model topology always deliver all traffic, on both
    /// engines. Connectivity is validated once with every drawn cable
    /// failed simultaneously — connectivity is monotone in the edge set,
    /// so every epoch the schedule can reach (a subset of the drawn
    /// cables down at a time) is connected too, and the run must end
    /// clean: flows re-route (flow engine) or dropped packets retransmit
    /// (packet engine) until every message lands.
    #[test]
    fn prop_midrun_fail_repair_always_delivers(
        net_idx in 0usize..7,
        engine_idx in 0usize..2,
        k in 1usize..4,
        with_repairs in 0usize..2,
        seed in 0u64..5_000,
    ) {
        use hammingmesh::hxsim::FailureSchedule;
        use rand::{Rng, SeedableRng};
        let mut net = fault_net(net_idx);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cables = net.topo.cables();
        let mut sched = FailureSchedule::new();
        let mut drawn = Vec::new();
        for _ in 0..k {
            let (n, p) = cables[rng.random_range(0..cables.len())];
            if !net.topo.fail_link(n, p) {
                continue; // duplicate draw
            }
            if !net.endpoints_connected() {
                net.topo.restore_link(n, p);
                continue; // load-bearing cable: redraw
            }
            let at = rng.random_range(1_000..4_000_000u64);
            sched = sched.fail(at, n, p);
            if with_repairs == 1 {
                sched = sched.repair(at + rng.random_range(1_000..4_000_000u64), n, p);
            }
            drawn.push((n, p));
        }
        // The run starts on the pristine fabric; the engines advance
        // their private failure epoch from the schedule.
        for (n, p) in drawn {
            net.topo.restore_link(n, p);
        }
        prop_assume!(!sched.is_empty());
        let engine = [EngineKind::Packet, EngineKind::Flow][engine_idx];
        let mut app = hammingmesh::hxsim::apps::Alltoall::new(net.num_ranks(), 2048, 2);
        let cfg = SimConfig {
            max_time_ps: 200_000_000_000,
            failures: sched,
            ..Default::default()
        };
        let stats = simulate(&net, cfg, engine, &mut app);
        prop_assert!(
            stats.clean(),
            "{} / {:?}: mid-run schedule lost traffic: {:?}",
            net.name, engine, stats
        );
    }

    /// A schedule whose events all land beyond the horizon never touches
    /// the run: zero retransmissions, zero re-routes, zero stall time,
    /// zero applied epoch events — on either engine. No failure ever hits
    /// an in-flight packet, so the recovery counters must stay silent.
    #[test]
    fn prop_after_horizon_schedule_counters_stay_zero(
        net_idx in 0usize..7,
        engine_idx in 0usize..2,
        k in 1usize..5,
        seed in 0u64..5_000,
    ) {
        use hammingmesh::hxsim::FailureSchedule;
        use rand::{Rng, SeedableRng};
        let net = fault_net(net_idx);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cables = net.topo.cables();
        let mut sched = FailureSchedule::new();
        for i in 0..k {
            let (n, p) = cables[rng.random_range(0..cables.len())];
            let at = 1_000_000_000_000_000 + i as u64;
            sched = sched.fail(at, n, p).repair(at + 1_000, n, p);
        }
        let engine = [EngineKind::Packet, EngineKind::Flow][engine_idx];
        let mut app = hammingmesh::hxsim::apps::Alltoall::new(net.num_ranks(), 2048, 2);
        let cfg = SimConfig {
            failures: sched,
            ..Default::default()
        };
        let stats = simulate(&net, cfg, engine, &mut app);
        prop_assert!(stats.clean(), "{} / {:?}: {:?}", net.name, engine, stats);
        prop_assert_eq!(stats.packet_retransmits, 0);
        prop_assert_eq!(stats.flows_rerouted, 0);
        prop_assert_eq!(stats.flow_stall_ps, 0);
        prop_assert_eq!(stats.link_fail_events, 0);
        prop_assert_eq!(stats.link_repair_events, 0);
    }
}

/// The topology x router combinations the fault-model proptests cover:
/// every baseline topology under its own adaptive router, plus the
/// generic [`ShortestPathRouter`] over representative switch-centric and
/// accelerator-forwarding graphs. Shapes are kept small so each proptest
/// case builds its network from scratch in microseconds.
fn fault_net(idx: usize) -> Network {
    match idx {
        0 => FatTreeParams::scaled_nonblocking(16, 8).build(),
        1 => DragonflyParams {
            a: 4,
            p: 2,
            h: 2,
            groups: 4,
        }
        .build(),
        2 => HyperXParams {
            x: 4,
            y: 4,
            radix: 64,
        }
        .build(),
        3 => TorusParams {
            cols: 4,
            rows: 4,
            board: 2,
        }
        .build(),
        4 => HxMeshParams::square(2, 3).build(),
        5 | 6 => {
            let mut net = if idx == 5 {
                FatTreeParams::scaled_nonblocking(16, 8).build()
            } else {
                TorusParams {
                    cols: 4,
                    rows: 4,
                    board: 2,
                }
                .build()
            };
            net.router = Box::new(ShortestPathRouter::build(&net.topo, &net.endpoints));
            net.name = format!("{} + shortest-path router", net.name);
            net
        }
        _ => unreachable!("fault_net index out of range"),
    }
}
