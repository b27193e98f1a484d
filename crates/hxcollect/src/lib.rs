//! # hxcollect — collective communication for HammingMesh
//!
//! Implements the collective algorithms of §V-A2 as *schedules*: explicit
//! per-rank dependency graphs of send/receive/compute operations, in which
//! every receive names the send it takes. One schedule can be executed two
//! ways:
//!
//! * [`logical::execute`] runs it on real `f32` vectors and checks
//!   numerical correctness (every allreduce really computes the global sum),
//! * [`simapp::ScheduleApp`] replays it on either [`hxsim`] engine, packet
//!   or flow, to measure time on a concrete topology.
//!
//! Provided algorithms:
//!
//! * pipelined ring allreduce (§V-A2b), unidirectional and bidirectional,
//! * the two edge-disjoint Hamiltonian-cycle bidirectional rings used to
//!   drive all four HxMesh ports ([`rings`], App. D / Bae et al.),
//! * the two-dimensional torus allreduce (reduce-scatter + column allreduce
//!   + allgather, §V-A2c),
//! * binomial-tree allreduce for small messages (§V-A2a),
//! * ring broadcast and allgather building blocks,
//! * α-β analytic runtime models for all of the above ([`model`]).

pub mod allreduce;
pub mod logical;
pub mod model;
pub mod rings;
pub mod schedule;
pub mod simapp;

pub use allreduce::{
    bidirectional_ring_allreduce, binomial_tree_allreduce, disjoint_rings_allreduce,
    ring_allgather, ring_allreduce, ring_broadcast, ring_reduce_scatter, torus2d_allreduce,
};
pub use schedule::{Op, OpKind, Payload, RecvAction, Schedule};

/// Element width used throughout (FP32 gradients, §V-B "trained in FP32").
pub const ELEM_BYTES: u64 = 4;

#[cfg(test)]
mod tests_replay;
