//! # hxcluster — cluster-lifetime simulation over an HxMesh
//!
//! The top layer of the reproduction: where `hxalloc` packs one static job
//! mix and `hxsim` times one collective, this crate simulates a *cluster's
//! life*: jobs arrive over (simulated) hours, queue, get placed, train for
//! many iterations, and depart, while cables fail and are repaired **mid
//! run** — the time-varying failure model the static layers cannot
//! express. The architecture follows the host/scheduler split of
//! discrete-event cluster frameworks (DSLab): a deterministic event queue
//! (the simulators' own [`hxsim::EventQueue`]) drives a scheduler (FIFO + backfill + optional defragmentation) against
//! a placement substrate ([`hxalloc::BoardMesh`]) and a rate oracle (the
//! [`hxsim`] engines replaying each job's [`hxcollect`] schedule on its
//! virtual sub-HxMesh).
//!
//! What it models:
//! * job wait time, completion time, and their distributions,
//! * allocation fragmentation and utilization as *time averages*,
//! * cluster-wide link utilization from per-iteration busy time,
//! * graceful degradation: a failure epoch advancing mid-run re-rates
//!   every in-flight job on the degraded network (and a repair re-rates
//!   them back), with iteration times memoized per failure set.
//!
//! What it deliberately does **not** model: inter-job network
//! interference (exact for healthy HxMesh by the paper's §IV-A
//! no-interference property; approximate while failover detours are
//! active), checkpoint/restart cost of defragmentation (the paper argues
//! sub-second), board-level failures (covered by the static Fig. 10
//! sweeps), and preemption or priorities.
//!
//! ```
//! use hxcluster::{ClusterConfig, ClusterSim};
//!
//! let mut cfg = ClusterConfig::quick();
//! cfg.num_jobs = 6;
//! cfg.mean_fail_interval_ps = Some(20_000_000_000); // churn every ~20 ms
//! let report = ClusterSim::new(cfg).run();
//! assert_eq!(report.jobs.len(), 6);
//! assert!(report.makespan_ps > 0);
//! ```

pub mod job;
pub mod metrics;
pub mod sim;

pub use job::JobSpec;
pub use metrics::{ClusterReport, JobRecord};
pub use sim::{iteration_ps, ClusterConfig, ClusterSim};
