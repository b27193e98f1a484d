//! Run statistics collected by the engine.

use crate::Time;

/// A structured, non-fatal simulation failure. Replaces the engines'
/// historical `panic!` on a disconnected destination: a run whose
/// failure set (static or mid-run) leaves some traffic with no path
/// *reports* through [`SimStats::error`] instead of aborting the
/// process, so sweep drivers can record the cell and move on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// Traffic between the named ranks was still cut off from its
    /// destination when the run ended (stalled flows / parked packets
    /// with no repair left on the schedule).
    Disconnected {
        src_rank: u32,
        dst_rank: u32,
        /// Failed-link count at the end of the run, for the message.
        failed_links: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Disconnected {
                src_rank,
                dst_rank,
                failed_links,
            } => write!(
                f,
                "rank {src_rank} -> rank {dst_rank} disconnected at end of run \
                 ({failed_links} failed links)"
            ),
        }
    }
}

/// Counters and timing collected over one simulation run.
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// Simulated time at which the last event executed.
    pub finish_ps: Time,
    pub events: u64,
    pub messages_sent: u64,
    pub messages_delivered: u64,
    pub bytes_delivered: u64,
    pub packets_forwarded: u64,
    /// Messages still in flight when the event queue drained — nonzero
    /// means a routing/flow-control deadlock or a missing dependency.
    pub undelivered_messages: usize,
    /// The run hit `max_time_ps`.
    pub timed_out: bool,
    /// Flow engine only: number of epochs on which the max-min solver ran
    /// at least one progressive filling. Drains of flows that shared no
    /// link with any still-active flow skip the recompute, so this stays
    /// well below `events` on low-contention traffic. Always 0 for the
    /// packet engine.
    pub rate_recomputes: u64,
    /// Flow engine only: recompute epochs whose fills covered *every*
    /// active flow — the solver found no component it could leave alone.
    /// Under `RateMode::Full` every recompute epoch lands here. The rest,
    /// `rate_recomputes - rate_recomputes_full`, covered a proper subset
    /// of the active flows — the O(affected) win; the perf_smoke
    /// `flow_scale` gate asserts those dominate (≥90%) at 16k endpoints.
    pub rate_recomputes_full: u64,
    /// Flow engine only: cumulative flows touched by fills, summed over
    /// recompute epochs. Under `RateMode::Full` this is Σ active-flow
    /// counts; `Incremental` is provably ≤ that (pinned differentially).
    pub rate_touched_flows: u64,
    /// Flow engine only: max-min level rounds, summed over every fill. A
    /// deterministic work counter for the fill itself: the same run gives
    /// the same count on any host. `Incremental` is ≤ `RateMode::Full`
    /// (pinned differentially).
    pub rate_fill_rounds: u64,
    /// Flow engine only, populated when `SimConfig::trace_rates` is set:
    /// one `(now.to_bits(), msg_id, rate.to_bits())` entry per active
    /// flow per epoch, sorted by msg id within an epoch. The
    /// differential suite compares this bitwise across solver modes.
    pub rate_trace: Vec<(u64, u32, u64)>,
    /// Sum of busy picoseconds over all directed links.
    pub total_link_busy_ps: u64,
    /// Per destination rank: time its last message completed.
    pub rank_recv_done_ps: Vec<Time>,
    /// Per destination rank: total bytes received.
    pub rank_recv_bytes: Vec<u64>,
    /// Per node (accelerator or switch): packets it transmitted on any of
    /// its output ports. Used to verify the §IV-A no-interference claim —
    /// traffic of a job never crosses boards of another job.
    pub node_forwarded: Vec<u64>,
    /// Mid-run cable failures applied from the [`crate::FailureSchedule`]
    /// (no-op re-fails of an already-dead cable are not counted).
    pub link_fail_events: u64,
    /// Mid-run cable repairs applied from the schedule (no-op repairs of
    /// a healthy cable are not counted).
    pub link_repair_events: u64,
    /// Flow engine: flows whose route set was rebuilt because a mid-run
    /// failure cut a link they were crossing.
    pub flows_rerouted: u64,
    /// Flow engine: cumulative picoseconds flows spent stalled with no
    /// healthy route, waiting for a repair (or the end of the run).
    pub flow_stall_ps: u64,
    /// Packet engine: packets dropped on a failed cable and re-injected
    /// by the sender under the configured [`crate::RetransmitPolicy`].
    pub packet_retransmits: u64,
    /// Structured failure report (see [`SimError`]); `Some` makes the
    /// run not [`SimStats::clean`].
    pub error: Option<SimError>,
}

impl SimStats {
    /// Aggregate delivered bandwidth in bytes per picosecond.
    pub fn delivered_bytes_per_ps(&self) -> f64 {
        if self.finish_ps == 0 {
            return 0.0;
        }
        self.bytes_delivered as f64 / self.finish_ps as f64
    }

    /// Aggregate delivered bandwidth in Gb/s.
    pub fn delivered_gbps(&self) -> f64 {
        self.delivered_bytes_per_ps() * 8.0 * 1000.0
    }

    /// Per-rank receive bandwidth in bytes/ps, for ranks that received.
    pub fn rank_recv_bytes_per_ps(&self) -> Vec<f64> {
        self.rank_recv_bytes
            .iter()
            .zip(self.rank_recv_done_ps.iter())
            .map(|(&b, &t)| if t > 0 { b as f64 / t as f64 } else { 0.0 })
            .collect()
    }

    /// True if the run completed every message without timing out or
    /// reporting a structured error.
    pub fn clean(&self) -> bool {
        !self.timed_out && self.undelivered_messages == 0 && self.error.is_none()
    }

    /// Mean utilization of the network's directed links over the run:
    /// busy link-picoseconds divided by `2 * num_links` (each full-duplex
    /// link is two directed channels) times the run length. Both engines
    /// account `total_link_busy_ps` exactly (every byte a link carries
    /// contributes its serialization time), so this is comparable across
    /// backends. `hxcluster` weights it by job runtime for its
    /// cluster-wide link-utilization metric.
    pub fn mean_link_utilization(&self, num_links: usize) -> f64 {
        if self.finish_ps == 0 || num_links == 0 {
            return 0.0;
        }
        self.total_link_busy_ps as f64 / (2.0 * num_links as f64 * self.finish_ps as f64)
    }
}
