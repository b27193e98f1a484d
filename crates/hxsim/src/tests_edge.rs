//! Engine edge-case tests: tiny buffers, congestion backpressure, window
//! effects, and timeouts.

use crate::apps::{Alltoall, MessageBlast, UniformRandom};
use crate::{simulate, Application, Ctx, Engine, EngineKind, MsgInfo, SimConfig, Time};
use hxnet::fattree::single_switch;
use hxnet::hammingmesh::HxMeshParams;
use hxnet::torus::TorusParams;
use hxnet::PortId;

#[test]
fn tiny_buffers_still_drain() {
    // One packet of buffer per (port, VC): maximum backpressure.
    let net = HxMeshParams::square(2, 2).build();
    let cfg = SimConfig {
        buffer_bytes: crate::PACKET_BYTES,
        max_time_ps: 500_000_000_000,
        ..SimConfig::default()
    };
    let mut app = Alltoall::new(net.num_ranks(), 64 << 10, 2);
    let stats = Engine::new(&net, cfg).run(&mut app);
    assert!(stats.clean(), "{stats:?}");
}

#[test]
fn congestion_backpressure_reduces_bandwidth_not_correctness() {
    // Everyone sends to rank 0: an incast. All messages must still arrive,
    // at roughly the ejection-port line rate.
    let net = single_switch(9, "incast");
    let sends: Vec<(u32, u32, u64)> = (1..9).map(|s| (s, 0, 1 << 20)).collect();
    let total: u64 = sends.iter().map(|s| s.2).sum();
    let mut app = MessageBlast::pairs(sends);
    let stats = Engine::new(&net, SimConfig::default()).run(&mut app);
    assert!(stats.clean());
    // One 400 Gb/s ejection link: at least total * 20 ps.
    assert!(
        stats.finish_ps >= total * 20,
        "{} < {}",
        stats.finish_ps,
        total * 20
    );
    assert!(
        stats.finish_ps < total * 20 * 2,
        "incast should stream near line rate"
    );
}

/// A run cut short by `max_time_ps` reports the timeout and counts the
/// message it sent but never delivered, on both engines.
#[test]
fn max_time_guard_reports_timeout() {
    let net = single_switch(2, "pair");
    let cfg = SimConfig {
        max_time_ps: 10,
        ..SimConfig::default()
    };
    for kind in EngineKind::all() {
        let mut app = MessageBlast::pairs(vec![(0, 1, 1 << 20)]);
        let stats = simulate(&net, cfg.clone(), kind, &mut app);
        assert!(stats.timed_out, "{kind}");
        assert!(!stats.clean(), "{kind}");
        assert_eq!(stats.messages_sent, 1, "{kind}");
        assert_eq!(stats.undelivered_messages, 1, "{kind}");
    }
}

#[test]
fn single_byte_messages_work() {
    let net = HxMeshParams::square(2, 2).build();
    let mut app = MessageBlast::pairs(vec![(0, 5, 1), (5, 0, 1)]);
    let stats = Engine::new(&net, SimConfig::default()).run(&mut app);
    assert!(stats.clean());
    assert_eq!(stats.messages_delivered, 2);
    assert_eq!(stats.bytes_delivered, 2);
}

#[test]
fn node_forwarded_counters_conserve_packets() {
    let net = HxMeshParams::square(2, 2).build();
    let mut app = UniformRandom::new(net.num_ranks(), 32 << 10, 4, 5);
    let stats = Engine::new(&net, SimConfig::default()).run(&mut app);
    assert!(stats.clean());
    let sum: u64 = stats.node_forwarded.iter().sum();
    assert_eq!(sum, stats.packets_forwarded);
    // Sources forwarded at least their own injected packets.
    assert!(sum >= stats.messages_sent);
}

#[test]
fn narrow_nic_window_serializes_but_completes() {
    let net = HxMeshParams::square(2, 2).build();
    let run = |window: u64| {
        let cfg = SimConfig {
            nic_window_bytes: window,
            nic_port_window_bytes: window,
            ..SimConfig::default()
        };
        let mut app = Alltoall::new(net.num_ranks(), 32 << 10, 2);
        let stats = Engine::new(&net, cfg).run(&mut app);
        assert!(stats.clean(), "window {window}: {stats:?}");
        stats.finish_ps
    };
    let narrow = run(crate::PACKET_BYTES);
    let wide = run(64 * crate::PACKET_BYTES);
    assert!(
        wide <= narrow,
        "wider window must not be slower: {wide} vs {narrow}"
    );
}

#[test]
fn waypoints_off_still_completes_alltoall() {
    let net = HxMeshParams::square(2, 4).build();
    let cfg = SimConfig {
        use_waypoints: false,
        ..SimConfig::default()
    };
    let mut app = Alltoall::new(net.num_ranks(), 16 << 10, 2);
    let stats = Engine::new(&net, cfg).run(&mut app);
    assert!(stats.clean(), "{stats:?}");
}

#[test]
fn stats_bandwidth_helpers() {
    let net = single_switch(2, "pair");
    let mut app = MessageBlast::pairs(vec![(0, 1, 1 << 20)]);
    let stats = Engine::new(&net, SimConfig::default()).run(&mut app);
    assert!(stats.delivered_gbps() > 100.0);
    assert!(stats.delivered_bytes_per_ps() > 0.0);
    let per_rank = stats.rank_recv_bytes_per_ps();
    assert!(per_rank[1] > 0.0);
}

#[test]
fn mean_link_utilization_is_sane_on_both_engines() {
    // One saturating pair through a single switch: its two cables should
    // be busy a large share of the run, the idle ones not at all — the
    // mean over all directed links lands strictly inside (0, 1].
    let net = single_switch(4, "quad");
    let links = net.topo.num_links();
    for kind in crate::EngineKind::all() {
        let mut app = MessageBlast::pairs(vec![(0, 1, 4 << 20)]);
        let stats = crate::simulate(&net, SimConfig::default(), kind, &mut app);
        assert!(stats.clean(), "{kind}: {stats:?}");
        let u = stats.mean_link_utilization(links);
        assert!(u > 0.05 && u <= 1.0, "{kind}: utilization {u}");
        assert_eq!(stats.mean_link_utilization(0), 0.0);
    }
}

/// Rank 0 queues a `large` message toward `large_dst`, then, 1 ps later,
/// one packet toward `small_dst`; records each message's delivery time.
struct LargeThenSmall {
    large_dst: u32,
    small_dst: u32,
    large: u64,
    done_ps: [Time; 2],
}

impl Application for LargeThenSmall {
    fn start(&mut self, ctx: &mut Ctx) {
        ctx.send(0, self.large_dst, self.large, 0);
        ctx.compute(0, 1, 0);
    }

    fn on_compute_done(&mut self, ctx: &mut Ctx, _rank: u32, _tag: u64) {
        ctx.send(0, self.small_dst, crate::PACKET_BYTES, 1);
    }

    fn on_message(&mut self, ctx: &mut Ctx, info: MsgInfo) {
        self.done_ps[info.tag as usize] = ctx.now();
    }
}

/// The NIC does not head-of-line block: a one-packet message queued
/// behind a 32-packet one on another output port leaves at once, because
/// the large message's packets defer once their port holds the per-port
/// window. Skipping pumps that cannot inject must keep this.
#[test]
fn nic_pump_does_not_head_of_line_block_other_ports() {
    let net = TorusParams {
        cols: 4,
        rows: 4,
        board: 2,
    }
    .build();
    let src = net.endpoints[0];
    let (east, west) = (PortId(0), PortId(1));
    let neighbor = |port| net.rank_of(net.topo.peer(src, port).node);
    // Each neighbor is reachable over its own port only.
    for port in [east, west] {
        let mut cand = Vec::new();
        let dst = net.endpoints[neighbor(port) as usize];
        net.router.candidates(&net.topo, src, 0, dst, &mut cand);
        assert!(
            !cand.is_empty() && cand.iter().all(|h| h.port == port),
            "{cand:?}"
        );
    }
    let mut app = LargeThenSmall {
        large_dst: neighbor(east),
        small_dst: neighbor(west),
        large: 32 * crate::PACKET_BYTES,
        done_ps: [0; 2],
    };
    let stats = Engine::new(&net, SimConfig::default()).run(&mut app);
    assert!(stats.clean(), "{stats:?}");
    let packet_ps =
        (crate::PACKET_BYTES as f64 * net.topo.link(src, east).spec.ps_per_byte) as Time;
    let [large_ps, small_ps] = app.done_ps;
    // The large message's last packet leaves after 31 serializations.
    assert!(small_ps < 3 * packet_ps, "small message took {small_ps} ps");
    assert!(
        large_ps > 30 * packet_ps,
        "large message took {large_ps} ps"
    );
}
