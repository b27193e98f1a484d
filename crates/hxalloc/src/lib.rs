//! # hxalloc — job allocation on HammingMesh (§IV)
//!
//! HxMesh jobs request a `u x v` block of boards, but — unlike on a torus —
//! the rows of a *virtual sub-HxMesh* need not be contiguous: any set of
//! boards where all selected rows share the same set of column coordinates
//! forms a full-bandwidth virtual HxMesh (§III-E). This turns allocation
//! from 2D bin packing (strongly NP-hard, §IV) into the simple greedy
//! row-intersection procedure of §IV-A, implemented here together with the
//! paper's optimization heuristics:
//!
//! * **transpose** — retry `v x u`,
//! * **aspect** — try alternative aspect ratios up to 8,
//! * **sort** — place large jobs first,
//! * **locality** — prefer shapes/placements that keep traffic out of the
//!   upper fat-tree levels (Fig. 9's metric),
//!
//! plus board failures (Fig. 10) and the synthetic job-size workload
//! standing in for the Alibaba MLaaS trace, which is not redistributable
//! (Fig. 7; README "Substitutions").

pub mod experiments;
pub mod mesh;
pub mod workload;

pub use mesh::{AllocError, BoardMesh, Heuristics, JobId, Placement};
pub use workload::{JobMix, JobSizeDistribution};
