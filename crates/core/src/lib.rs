//! # hammingmesh — a network topology for large-scale deep learning
//!
//! A from-scratch Rust implementation of the system described in
//! *HammingMesh: A Network Topology for Large-Scale Deep Learning*
//! (Hoefler et al., SC 2022): the HxMesh topology family and every
//! substrate its evaluation depends on — the baseline topologies, a
//! packet-level network simulator, the collective-communication
//! algorithms, the capex cost model, the job allocator, the DNN
//! workload models, and the cluster-lifetime simulator that composes
//! them all ([`hxcluster`]).
//!
//! This crate is the facade: it re-exports the subsystem crates and adds
//! the high-level experiment drivers used by the benchmark harness and the
//! examples.
//!
//! ```
//! use hammingmesh::prelude::*;
//!
//! // Build a small HammingMesh and measure a ring allreduce on it.
//! let net = HxMeshParams::square(2, 4).build();
//! let m = experiments::allreduce_bandwidth(
//!     &net,
//!     AllreduceAlgo::DisjointRings,
//!     1 << 20,
//!     EngineKind::Packet,
//! );
//! assert!(m.bw_fraction > 0.2, "{}", m.bw_fraction);
//! ```

pub use hxalloc;
pub use hxcluster;
pub use hxcollect;
pub use hxcost;
pub use hxmodels;
pub use hxnet;
pub use hxsim;
pub use hxtelemetry;

pub mod experiments;
pub mod topologies;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::experiments::{self, AllreduceAlgo, Measurement};
    pub use crate::topologies::{self, TopologyChoice};
    pub use hxalloc::{BoardMesh, Heuristics};
    pub use hxcluster::{ClusterConfig, ClusterReport, ClusterSim};
    pub use hxcollect::schedule::Schedule;
    pub use hxcost::{ClusterSize, Inventory, Prices};
    pub use hxmodels::DnnWorkload;
    pub use hxnet::dragonfly::DragonflyParams;
    pub use hxnet::fattree::FatTreeParams;
    pub use hxnet::hammingmesh::HxMeshParams;
    pub use hxnet::hyperx::HyperXParams;
    pub use hxnet::torus::TorusParams;
    pub use hxnet::Network;
    pub use hxsim::{simulate, Engine, EngineKind, FlowEngine, SimConfig};
}
