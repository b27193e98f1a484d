//! Mid-run link failure tests: in-run fail/repair epochs, stall/resume,
//! retransmit recovery, structured disconnection errors, and the
//! escape-VC discipline (see `hxnet::Router::next_hops`).

use crate::apps::{Alltoall, MessageBlast};
use crate::{
    simulate, Application, Ctx, EngineKind, FailureSchedule, MsgInfo, RateMode, SimConfig, SimError,
};
use hxnet::fattree::single_switch;
use hxnet::hammingmesh::HxMeshParams;
use hxnet::torus::TorusParams;
use hxnet::PortId;

/// Torus port slots (same order the builder wires them).
const EAST: PortId = PortId(0);
const WEST: PortId = PortId(1);

fn small_torus() -> hxnet::Network {
    TorusParams {
        cols: 4,
        rows: 4,
        board: 2,
    }
    .build()
}

/// Tentpole acceptance: failing a cable that carries active flows
/// mid-transfer still delivers every byte, on both engines. Rank 0 sends
/// to rank 2 (two hops east or west); the east first-hop link dies
/// shortly after injection, while traffic is in flight on it.
#[test]
fn midrun_failure_conserves_bytes_on_both_engines() {
    let net = small_torus();
    let bytes: u64 = 4 << 20;
    for kind in EngineKind::all() {
        let mut app = MessageBlast::pairs(vec![(0, 2, bytes)]);
        let cfg = SimConfig {
            failures: FailureSchedule::new().fail(1_000, net.endpoints[0], EAST),
            max_time_ps: 10_000_000_000,
            ..SimConfig::default()
        };
        let stats = simulate(&net, cfg, kind, &mut app);
        assert!(stats.clean(), "{kind}: {stats:?}");
        assert_eq!(stats.messages_delivered, 1, "{kind}");
        assert_eq!(stats.bytes_delivered, bytes, "{kind}");
        assert_eq!(stats.link_fail_events, 1, "{kind}");
        match kind {
            EngineKind::Flow => {
                assert!(stats.flows_rerouted >= 1, "{kind}: {stats:?}")
            }
            EngineKind::Packet => {
                // The packet transmitted at t=0 is still on the wire at
                // t=1 ns: it is dropped and recovered by retransmission.
                assert!(stats.packet_retransmits >= 1, "{kind}: {stats:?}")
            }
        }
    }
}

/// A fail/repair pair that temporarily disconnects the destination: the
/// flow engine stalls the flow (accumulating stall time) and resumes it
/// on repair; the packet engine parks and retransmits. Both finish clean.
#[test]
fn stalled_flows_resume_after_repair() {
    // Two endpoints behind one switch: each endpoint has exactly one
    // link, so failing endpoint 1's link cuts off the destination.
    let net = single_switch(2, "pair");
    let dst_port = PortId(0);
    let bytes: u64 = 1 << 20;
    for kind in EngineKind::all() {
        let mut app = MessageBlast::pairs(vec![(0, 1, bytes)]);
        let cfg = SimConfig {
            failures: FailureSchedule::new()
                .fail(2_000, net.endpoints[1], dst_port)
                .repair(5_000_000, net.endpoints[1], dst_port),
            max_time_ps: 10_000_000_000,
            ..SimConfig::default()
        };
        let stats = simulate(&net, cfg, kind, &mut app);
        assert!(stats.clean(), "{kind}: {stats:?}");
        assert_eq!(stats.bytes_delivered, bytes, "{kind}");
        assert_eq!(stats.link_fail_events, 1, "{kind}");
        assert_eq!(stats.link_repair_events, 1, "{kind}");
        if kind == EngineKind::Flow {
            assert!(stats.flow_stall_ps > 0, "{kind}: {stats:?}");
        }
        // Completion can't beat the repair instant plus the drain time.
        assert!(stats.finish_ps > 5_000_000, "{kind}: {stats:?}");
    }
}

/// A send injected while its destination is disconnected stalls at the
/// NIC (flow engine) instead of panicking, and resumes on repair.
struct DelayedSend {
    bytes: u64,
}

impl Application for DelayedSend {
    fn start(&mut self, ctx: &mut Ctx) {
        ctx.compute(0, 2_000_000, 1); // send fires at 2 µs, mid-outage
    }

    fn on_compute_done(&mut self, ctx: &mut Ctx, rank: u32, _tag: u64) {
        ctx.send(rank, 1, self.bytes, 0);
    }

    fn on_message(&mut self, _ctx: &mut Ctx, _info: MsgInfo) {}
}

#[test]
fn send_while_disconnected_stalls_until_repair() {
    let net = single_switch(2, "pair");
    let dst_port = PortId(0);
    let bytes: u64 = 256 * 1024;
    for kind in EngineKind::all() {
        let mut app = DelayedSend { bytes };
        let cfg = SimConfig {
            failures: FailureSchedule::new()
                .fail(1_000_000, net.endpoints[1], dst_port)
                .repair(8_000_000, net.endpoints[1], dst_port),
            max_time_ps: 10_000_000_000,
            ..SimConfig::default()
        };
        let stats = simulate(&net, cfg, kind, &mut app);
        assert!(stats.clean(), "{kind}: {stats:?}");
        assert_eq!(stats.bytes_delivered, bytes, "{kind}");
        assert!(stats.finish_ps > 8_000_000, "{kind}: {stats:?}");
        if kind == EngineKind::Flow {
            // Stalled from injection (2 µs) to repair (8 µs).
            assert!(stats.flow_stall_ps >= 5_000_000, "{kind}: {stats:?}");
        }
    }
}

/// A failure that permanently disconnects the destination ends the run
/// with a structured [`SimError::Disconnected`] — not a panic.
#[test]
fn permanent_disconnection_reports_error_not_panic() {
    let net = single_switch(2, "pair");
    let dst_port = PortId(0);
    for kind in EngineKind::all() {
        let mut app = MessageBlast::pairs(vec![(0, 1, 1 << 20)]);
        let cfg = SimConfig {
            failures: FailureSchedule::new().fail(2_000, net.endpoints[1], dst_port),
            max_time_ps: 1_000_000_000,
            ..SimConfig::default()
        };
        let stats = simulate(&net, cfg, kind, &mut app);
        assert!(!stats.clean(), "{kind}: {stats:?}");
        assert_eq!(stats.undelivered_messages, 1, "{kind}");
        match stats.error {
            Some(SimError::Disconnected {
                src_rank: 0,
                dst_rank: 1,
                failed_links: 1,
            }) => {}
            ref other => panic!("{kind}: expected Disconnected, got {other:?}"),
        }
    }
}

/// Differential pin (satellite 2): a schedule whose events all land
/// beyond the traffic horizon is bitwise-identical to no schedule at
/// all, on both engines and both rate modes. `Debug` formatting covers
/// every stat field, including float bit patterns printed exactly.
#[test]
fn after_horizon_schedule_is_bitwise_inert() {
    let net = HxMeshParams::square(2, 2).build();
    let cable = net.topo.cables()[0];
    for kind in EngineKind::all() {
        for rate_mode in [RateMode::Full, RateMode::Incremental] {
            let run = |failures: FailureSchedule| {
                let mut app = Alltoall::new(net.num_ranks(), 16 * 1024, 2);
                let cfg = SimConfig {
                    failures,
                    rate_mode,
                    trace_rates: kind == EngineKind::Flow,
                    ..SimConfig::default()
                };
                simulate(&net, cfg, kind, &mut app)
            };
            let base = run(FailureSchedule::default());
            assert!(base.clean());
            let horizon = base.finish_ps + 1_000_000;
            let sched = FailureSchedule::new()
                .fail(horizon, cable.0, cable.1)
                .repair(horizon + 500_000, cable.0, cable.1);
            let with = run(sched);
            assert_eq!(
                format!("{base:?}"),
                format!("{with:?}"),
                "{kind}/{rate_mode:?}: after-horizon schedule perturbed the run"
            );
            assert_eq!(with.packet_retransmits, 0);
            assert_eq!(with.link_fail_events, 0);
        }
    }
}

/// Escape-VC discipline: when the failure set empties a router's
/// structured candidate set, the failover detour hops escape to the
/// dedicated VC (== the router's structured VC count) instead of
/// inheriting the primary's.
#[test]
fn failover_detours_escape_to_the_dedicated_vc() {
    let net = small_torus();
    let mut topo = net.topo.clone();
    let n0 = net.endpoints[0];
    // Kill both X-direction links of node 0: any same-row destination
    // now requires a detour through N/S, which only the escape VC serves.
    topo.fail_link(n0, EAST);
    topo.fail_link(n0, WEST);
    let mut cand = Vec::new();
    net.router
        .next_hops(&topo, n0, 0, net.endpoints[2], &mut cand);
    assert!(!cand.is_empty(), "failover produced no detour");
    for h in &cand {
        assert_eq!(
            h.vc,
            net.router.num_vcs(),
            "detour hop must use the escape VC"
        );
        assert!(!topo.link_failed(n0, h.port), "dead link offered");
    }
    // And the escape VC keeps making progress from any node.
    let mut cand2 = Vec::new();
    net.router.next_hops(
        &topo,
        net.endpoints[4],
        net.router.num_vcs(),
        net.endpoints[2],
        &mut cand2,
    );
    assert!(!cand2.is_empty(), "escape VC stuck mid-path");
}

/// Deadlock regression for the torus/HxMesh wrap cases: heavy traffic
/// over a failure set that forces escape-VC detours across the wrap
/// links must still drain (packet engine, both topologies).
#[test]
fn escape_vc_survives_wrap_traffic_under_failures() {
    let fail_x = |net: &mut hxnet::Network| {
        let n0 = net.endpoints[0];
        net.topo.fail_link(n0, EAST);
        net.topo.fail_link(n0, WEST);
    };
    let mut torus = small_torus();
    fail_x(&mut torus);
    let mut hxmesh = HxMeshParams::square(2, 2).build();
    // HxMesh board-edge detours cross the sparse mesh links; fail the
    // first two cables (deterministic) to force them.
    for c in hxmesh.topo.cables().into_iter().take(2) {
        hxmesh.topo.fail_link(c.0, c.1);
    }
    for net in [&torus, &hxmesh] {
        let mut app = Alltoall::new(net.num_ranks(), 32 * 1024, 4);
        let cfg = SimConfig {
            max_time_ps: 50_000_000_000,
            ..SimConfig::default()
        };
        let stats = simulate(net, cfg, EngineKind::Packet, &mut app);
        assert!(stats.clean(), "{}: {stats:?}", net.name);
        assert_eq!(
            stats.messages_delivered as usize,
            net.num_ranks() * (net.num_ranks() - 1),
            "{}",
            net.name
        );
    }
}

/// The retransmit/backoff policy parses from config and the Reroute
/// policy also recovers dropped packets (faster turnaround, same
/// delivery guarantee).
#[test]
fn reroute_policy_recovers_dropped_packets() {
    let net = small_torus();
    let bytes: u64 = 4 << 20;
    let mut app = MessageBlast::pairs(vec![(0, 2, bytes)]);
    let cfg = SimConfig {
        failures: FailureSchedule::new().fail(1_000, net.endpoints[0], EAST),
        retransmit: crate::RetransmitPolicy::Reroute,
        max_time_ps: 10_000_000_000,
        ..SimConfig::default()
    };
    let stats = simulate(&net, cfg, EngineKind::Packet, &mut app);
    assert!(stats.clean(), "{stats:?}");
    assert_eq!(stats.bytes_delivered, bytes);
    assert!(stats.packet_retransmits >= 1, "{stats:?}");
}
