//! # hxsim — network simulator with packet-level and flow-level backends
//!
//! A from-scratch network simulator standing in for the Structural
//! Simulation Toolkit (SST) the paper uses (App. F). Two interchangeable
//! backends share one [`Application`] callback surface, one [`SimConfig`],
//! and one [`SimStats`] output (select one with [`EngineKind`] /
//! [`simulate`]):
//!
//! * **[`Engine`]** — the packet-level discrete-event engine: 8 KiB
//!   packets, per-hop serialization at the link rate, credit-based flow
//!   control with per-(port, VC) buffers, packet-level adaptive routing
//!   over the topology's [`hxnet::Router`] candidates, virtual channels
//!   for deadlock freedom (§IV-C3), and source-side waypoint selection
//!   (Valiant / column-first).
//! * **[`FlowEngine`]** — the flow-level fluid fast path: every message
//!   becomes a handful of subflows with fixed routes, links are shared by
//!   max-min fairness, and time advances in rate-change epochs. Orders of
//!   magnitude faster at large scale, at the fidelity cost documented in
//!   [`flow`].
//!
//! Both backends keep the bookkeeping around a simulation in one private
//! run ledger (`ledger.rs`): the [`SimStats`], every sent message with its
//! send instant, the failure-epoch topology that in-run
//! [`FailureSchedule`] events advance, the end-of-run rules, and the
//! hxtelemetry counters and trace events, whose names are spelled there
//! once. So a packet run and a flow run report the same metrics schema,
//! and an engine keeps only transport (packets, flows, routes, queues)
//! and one path to the [`Application`]. Both pop
//! their timed events from one [`EventQueue`] (earliest first, push order
//! among equal times), which hxcluster's lifetime loop uses too.
//!
//! Time is measured in integer **picoseconds**; at 400 Gb/s one byte is
//! exactly 20 ps, so all serialization times are exact.
//!
//! ```
//! use hxnet::hammingmesh::HxMeshParams;
//! use hxsim::{simulate, EngineKind, SimConfig, apps::MessageBlast};
//!
//! let net = HxMeshParams::square(2, 2).build();
//! for kind in EngineKind::all() {
//!     let mut app = MessageBlast::pairs(vec![(0, 15, 1 << 20)]); // 1 MiB
//!     let stats = simulate(&net, SimConfig::default(), kind, &mut app);
//!     assert_eq!(stats.messages_delivered, 1);
//!     assert!(stats.finish_ps > 0);
//! }
//! ```

pub mod app;
pub mod apps;
pub mod engine;
pub mod failure;
pub mod flow;
mod ledger;
pub mod queue;
pub mod stats;

#[cfg(test)]
mod tests_edge;
#[cfg(test)]
mod tests_midrun;
#[cfg(test)]
mod tests_pump;

pub use app::{Application, Cmd, Ctx, MsgInfo};
pub use engine::{Engine, RateMode, SimConfig};
pub use failure::{FailureSchedule, LinkEvent, LinkEventKind, RetransmitPolicy};
pub use flow::FlowEngine;
pub use queue::EventQueue;
pub use stats::{SimError, SimStats};

/// Simulated time in picoseconds.
pub type Time = u64;

/// Maximum payload per network packet from the paper's SST configuration
/// (App. F: 8 KiB).
pub const PACKET_BYTES: u64 = 8192;

/// Fixed per-hop pipeline latency added to every packet reception
/// (input+output buffer latency; App. F: 40 ns).
pub const HOP_LATENCY_PS: Time = 40_000;

/// Flit size for the cut-through forwarding latency (App. F: 256 B).
pub const FLIT_BYTES: u64 = 256;

/// Default per-(port,VC) input buffer. The paper uses 32 MB per port; we
/// split it evenly across at most 4 VCs.
pub const DEFAULT_BUFFER_BYTES: u64 = 8 * 1024 * 1024;

/// Which simulation backend to run. Both accept the same [`SimConfig`] and
/// [`Application`] and produce the same [`SimStats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Packet-level discrete-event simulation ([`Engine`]): highest
    /// fidelity, runtime proportional to packets x hops.
    Packet,
    /// Flow-level fluid simulation ([`FlowEngine`]): max-min fair rate
    /// sharing in rate-change epochs; the fast path for large scales.
    Flow,
}

impl EngineKind {
    pub fn all() -> [EngineKind; 2] {
        [EngineKind::Packet, EngineKind::Flow]
    }

    pub fn as_str(self) -> &'static str {
        match self {
            EngineKind::Packet => "packet",
            EngineKind::Flow => "flow",
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "packet" => Ok(EngineKind::Packet),
            "flow" => Ok(EngineKind::Flow),
            other => Err(format!(
                "unknown engine {other:?} (expected \"packet\" or \"flow\")"
            )),
        }
    }
}

/// Run `app` on `net` with the selected backend. The single entry point
/// call sites use to stay engine-agnostic.
pub fn simulate(
    net: &hxnet::Network,
    cfg: SimConfig,
    kind: EngineKind,
    app: &mut dyn Application,
) -> SimStats {
    match kind {
        EngineKind::Packet => Engine::new(net, cfg).run(app),
        EngineKind::Flow => FlowEngine::new(net, cfg).run(app),
    }
}
