//! The board mesh, the §IV-A greedy allocator, and its heuristics.

use std::collections::BTreeMap;

pub type JobId = u32;

/// A placed job: the selected board rows and the column coordinates shared
/// by every selected row (the §III-E virtual sub-HxMesh condition).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    pub job: JobId,
    /// Physical board-row indexes (length `u`).
    pub rows: Vec<usize>,
    /// Physical board-column indexes (length `v`), identical in all rows.
    pub cols: Vec<usize>,
}

impl Placement {
    pub fn boards(&self) -> usize {
        self.rows.len() * self.cols.len()
    }

    /// All (row, col) board coordinates of this placement.
    pub fn cells(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.rows
            .iter()
            .flat_map(move |&r| self.cols.iter().map(move |&c| (r, c)))
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// No feasible row set exists for any attempted shape.
    NoSpace,
    /// The request exceeds the mesh dimensions in every allowed shape.
    TooLarge,
}

/// Which §IV-A optimization heuristics to apply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Heuristics {
    /// Retry the transposed shape on failure.
    pub transpose: bool,
    /// Try alternative aspect ratios (up to [`Heuristics::MAX_ASPECT`]).
    pub aspect: bool,
    /// Prefer the candidate placement minimizing upper-tree traffic.
    pub locality: bool,
}

impl Heuristics {
    /// The paper allows reshaping up to aspect ratio 8 (§IV-B).
    pub const MAX_ASPECT: usize = 8;

    pub fn none() -> Self {
        Self::default()
    }

    pub fn all() -> Self {
        Self {
            transpose: true,
            aspect: true,
            locality: true,
        }
    }
}

/// An `x`-columns by `y`-rows mesh of boards with an allocation map.
#[derive(Clone, Debug)]
pub struct BoardMesh {
    x: usize,
    y: usize,
    /// `state[r * x + c]`: None = free, Some(id) = owner job or FAILED.
    state: Vec<Option<JobId>>,
    /// Keyed in a `BTreeMap` so iteration (`placements()`, defrag
    /// checkpointing, invariant scans, float accumulations over jobs) is
    /// in job-id order — deterministic across processes and thread
    /// counts, unlike `HashMap`'s per-instance `RandomState` order.
    placements: BTreeMap<JobId, Placement>,
    /// Boards per leaf switch along a line (for the locality metric);
    /// 64-port leaves serve 32 line ports = 16 boards.
    leaf_span: usize,
}

/// Sentinel owner for failed boards.
pub const FAILED: JobId = JobId::MAX;

impl BoardMesh {
    pub fn new(x: usize, y: usize) -> Self {
        Self {
            x,
            y,
            state: vec![None; x * y],
            placements: BTreeMap::new(),
            leaf_span: 16,
        }
    }

    pub fn total_boards(&self) -> usize {
        self.x * self.y
    }

    pub fn failed_boards(&self) -> usize {
        self.state.iter().filter(|s| **s == Some(FAILED)).count()
    }

    pub fn working_boards(&self) -> usize {
        self.total_boards() - self.failed_boards()
    }

    pub fn allocated_boards(&self) -> usize {
        self.state
            .iter()
            .filter(|s| s.is_some() && **s != Some(FAILED))
            .count()
    }

    /// Utilization over *working* boards (Fig. 10's y-axis).
    pub fn utilization(&self) -> f64 {
        if self.working_boards() == 0 {
            return 0.0;
        }
        self.allocated_boards() as f64 / self.working_boards() as f64
    }

    /// Working boards currently unallocated.
    pub fn free_boards(&self) -> usize {
        self.working_boards() - self.allocated_boards()
    }

    /// Largest `u x v` virtual sub-mesh the greedy allocator could place
    /// right now, by area. For each candidate width `v` this runs
    /// [`BoardMesh::allocate`]'s greedy row scan over every row; the rows
    /// it keeps are precisely the largest `u` for which `greedy_find(u, v)`
    /// would succeed. Rows need not be adjacent, columns must be common:
    /// this is the allocator's own feasibility, not the NP-hard maximum
    /// biclique.
    pub fn largest_free_rect(&self) -> (usize, usize) {
        let mut best = (0usize, 0usize);
        for v in 1..=self.x {
            let rows = self.greedy_scan(v, self.y).0.len();
            if rows * v > best.0 * best.1 {
                best = (rows, v);
            }
        }
        best
    }

    /// External fragmentation of the free space: the fraction of free
    /// boards that do **not** fit in the largest greedily-placeable
    /// rectangle ([`BoardMesh::largest_free_rect`]). 0.0 when the free
    /// space is one placeable block (or there is none); approaches 1.0
    /// when the free boards are scattered so no large job can land. This
    /// is the quantity `hxcluster` integrates over time.
    pub fn fragmentation(&self) -> f64 {
        let free = self.free_boards();
        if free == 0 {
            return 0.0;
        }
        let (u, v) = self.largest_free_rect();
        1.0 - (u * v) as f64 / free as f64
    }

    pub fn owner(&self, row: usize, col: usize) -> Option<JobId> {
        self.state[row * self.x + col]
    }

    pub fn placement(&self, job: JobId) -> Option<&Placement> {
        self.placements.get(&job)
    }

    pub fn placements(&self) -> impl Iterator<Item = &Placement> {
        self.placements.values()
    }

    /// Mark a board failed (it must be free; failing allocated boards
    /// would first require checkpoint/restart of the owner, §IV-A).
    pub fn fail_board(&mut self, row: usize, col: usize) {
        let slot = &mut self.state[row * self.x + col];
        assert!(slot.is_none(), "failing an allocated board");
        *slot = Some(FAILED);
    }

    /// Free column indexes per row.
    fn free_cols(&self, row: usize) -> Vec<usize> {
        (0..self.x)
            .filter(|&c| self.state[row * self.x + c].is_none())
            .collect()
    }

    /// The §IV-A greedy core: find `u` rows whose free-column intersection
    /// holds at least `v` columns. Returns (rows, columns).
    fn greedy_find(&self, u: usize, v: usize) -> Option<(Vec<usize>, Vec<usize>)> {
        if u > self.y || v > self.x {
            return None;
        }
        let (rows, mut cols) = self.greedy_scan(v, u);
        cols.truncate(v);
        (rows.len() == u).then_some((rows, cols))
    }

    /// The greedy row scan for width `v`: walk the rows in order and keep
    /// each row whose free columns, intersected with those of the rows
    /// kept so far, still number at least `v`, until `limit` rows are
    /// kept. Returns the kept rows and their common free columns.
    fn greedy_scan(&self, v: usize, limit: usize) -> (Vec<usize>, Vec<usize>) {
        let mut selected: Vec<usize> = Vec::new();
        let mut common: Vec<usize> = Vec::new();
        for row in 0..self.y {
            if selected.len() == limit {
                break;
            }
            let free = self.free_cols(row);
            if free.len() < v {
                continue;
            }
            if selected.is_empty() {
                common = free;
            } else {
                let inter: Vec<usize> = common
                    .iter()
                    .copied()
                    .filter(|c| free.contains(c))
                    .collect();
                if inter.len() < v {
                    continue;
                }
                common = inter;
            }
            selected.push(row);
        }
        (selected, common)
    }

    /// Candidate shapes for `boards` boards under the heuristics, in
    /// preference order (most square first — §IV-B default).
    fn shapes(&self, u: usize, v: usize, h: Heuristics) -> Vec<(usize, usize)> {
        let mut shapes = vec![(u, v)];
        if h.transpose && u != v {
            shapes.push((v, u));
        }
        if h.aspect {
            let boards = u * v;
            let mut alts: Vec<(usize, usize)> = Vec::new();
            for uu in 1..=boards {
                if !boards.is_multiple_of(uu) {
                    continue;
                }
                let vv = boards / uu;
                let aspect = uu.max(vv) / uu.min(vv).max(1);
                if aspect <= Heuristics::MAX_ASPECT && !shapes.contains(&(uu, vv)) {
                    alts.push((uu, vv));
                }
            }
            // Most square alternatives first.
            alts.sort_by_key(|&(a, b)| (a.max(b) - a.min(b), a.max(b)));
            shapes.extend(alts);
        }
        shapes
    }

    /// Allocate a `u x v` job. On success the mesh records the placement.
    pub fn allocate(
        &mut self,
        job: JobId,
        u: usize,
        v: usize,
        h: Heuristics,
    ) -> Result<Placement, AllocError> {
        assert!(u >= 1 && v >= 1);
        assert!(
            !self.placements.contains_key(&job),
            "job {job} already placed"
        );
        let shapes = self.shapes(u, v, h);
        if shapes.iter().all(|&(a, b)| a > self.y || b > self.x) {
            return Err(AllocError::TooLarge);
        }
        let mut candidates: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
        for (uu, vv) in shapes {
            if let Some(found) = self.greedy_find(uu, vv) {
                if h.locality {
                    candidates.push(found);
                } else {
                    return Ok(self.commit(job, found));
                }
            }
        }
        if candidates.is_empty() {
            return Err(AllocError::NoSpace);
        }
        // Locality: minimize the estimated upper-tree traffic share.
        let best = candidates
            .into_iter()
            .min_by(|a, b| {
                let ta = self.upper_traffic_alltoall(&a.0, &a.1);
                let tb = self.upper_traffic_alltoall(&b.0, &b.1);
                ta.total_cmp(&tb)
            })
            // hxlint: allow(P001) candidates.is_empty() returned NoSpace above
            .unwrap();
        Ok(self.commit(job, best))
    }

    fn commit(&mut self, job: JobId, (rows, cols): (Vec<usize>, Vec<usize>)) -> Placement {
        let p = Placement { job, rows, cols };
        for (r, c) in p.cells() {
            debug_assert!(self.state[r * self.x + c].is_none());
            self.state[r * self.x + c] = Some(job);
        }
        self.placements.insert(job, p.clone());
        p
    }

    /// Release a job's boards.
    pub fn free(&mut self, job: JobId) {
        let Some(p) = self.placements.remove(&job) else {
            return;
        };
        for (r, c) in p.cells() {
            self.state[r * self.x + c] = None;
        }
    }

    /// Fraction of a job's alltoall traffic that crosses the upper level of
    /// the line fat trees (Fig. 9): pairs of selected coordinates living
    /// under different leaf switches, over all pairs, averaged over the
    /// row and column dimensions.
    pub fn upper_traffic_alltoall(&self, rows: &[usize], cols: &[usize]) -> f64 {
        let frac = |coords: &[usize]| -> f64 {
            let n = coords.len();
            if n < 2 {
                return 0.0;
            }
            let mut cross = 0usize;
            for i in 0..n {
                for j in 0..n {
                    if i != j && coords[i] / self.leaf_span != coords[j] / self.leaf_span {
                        cross += 1;
                    }
                }
            }
            cross as f64 / (n * (n - 1)) as f64
        };
        (frac(cols) + frac(rows)) / 2.0
    }

    /// Fraction of a job's ring-allreduce traffic crossing the upper levels
    /// (Fig. 9, right): ring neighbors in sorted coordinate order that land
    /// under different leaves.
    pub fn upper_traffic_allreduce(&self, rows: &[usize], cols: &[usize]) -> f64 {
        let frac = |coords: &[usize]| -> f64 {
            let n = coords.len();
            if n < 2 {
                return 0.0;
            }
            let mut sorted = coords.to_vec();
            sorted.sort_unstable();
            let mut cross = 0usize;
            for i in 0..n {
                let a = sorted[i];
                let b = sorted[(i + 1) % n];
                if a / self.leaf_span != b / self.leaf_span {
                    cross += 1;
                }
            }
            cross as f64 / n as f64
        };
        (frac(cols) + frac(rows)) / 2.0
    }

    /// Defragmentation (§IV-A-b): checkpoint every job, clear the mesh,
    /// and restart them largest-first. The paper argues this takes under a
    /// second of wall-clock data movement on a real system; here it models
    /// the utilization recovery. Returns the number of jobs that could not
    /// be re-placed (0 in the common case — they are restored to their
    /// original placement if replacement fails).
    pub fn defragment(&mut self, h: Heuristics) -> usize {
        let mut jobs: Vec<Placement> = self.placements.values().cloned().collect();
        // Job id breaks board-count ties: without it the restart order —
        // and therefore the resulting placements — would inherit the
        // HashMap's per-process iteration order and differ run to run.
        jobs.sort_by_key(|p| (std::cmp::Reverse(p.boards()), p.job));
        // Checkpoint: clear all placements.
        for p in &jobs {
            for (r, c) in p.cells() {
                self.state[r * self.x + c] = None;
            }
        }
        self.placements.clear();
        // Restart largest-first.
        let mut dropped = 0;
        for p in &jobs {
            if self.allocate(p.job, p.rows.len(), p.cols.len(), h).is_err() {
                // Restore the original placement — it is guaranteed free
                // because earlier jobs were placed greedily into at least
                // as much space, but guard anyway.
                if p.cells().all(|(r, c)| self.state[r * self.x + c].is_none()) {
                    self.commit(p.job, (p.rows.clone(), p.cols.clone()));
                } else {
                    dropped += 1;
                }
            }
        }
        dropped
    }

    /// §IV-A(a): no two jobs may share a board, and each job's rows must
    /// share identical column sets (checked from the committed state).
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = vec![false; self.x * self.y];
        for p in self.placements.values() {
            for (r, c) in p.cells() {
                let idx = r * self.x + c;
                if seen[idx] {
                    return Err(format!("board ({r},{c}) double-booked"));
                }
                seen[idx] = true;
                if self.state[idx] != Some(p.job) {
                    return Err(format!("board ({r},{c}) state mismatch"));
                }
            }
            // Row-consistency is structural (same `cols` vector per row).
            let mut sorted_rows = p.rows.clone();
            sorted_rows.dedup();
            if sorted_rows.len() != p.rows.len() {
                return Err(format!("job {} repeats a row", p.job));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_block_allocation() {
        let mut m = BoardMesh::new(4, 4);
        let p = m.allocate(1, 2, 3, Heuristics::none()).unwrap();
        assert_eq!(p.rows.len(), 2);
        assert_eq!(p.cols.len(), 3);
        assert_eq!(m.allocated_boards(), 6);
        m.check_invariants().unwrap();
    }

    #[test]
    fn non_contiguous_rows_form_virtual_submesh() {
        let mut m = BoardMesh::new(4, 4);
        // Fill row 1 fully so a following 2-row job must skip it.
        m.allocate(9, 1, 4, Heuristics::none()).unwrap();
        let p9 = m.placement(9).unwrap().clone();
        let blocked_row = p9.rows[0];
        let p = m.allocate(1, 2, 4, Heuristics::none()).unwrap();
        assert!(!p.rows.contains(&blocked_row));
        m.check_invariants().unwrap();
    }

    #[test]
    fn figure5_failure_scenario() {
        // 4x4 Hx2Mesh with 3 failures (Fig. 5): a 2x4 and a 3x3 job still
        // fit using non-contiguous columns.
        let mut m = BoardMesh::new(4, 4);
        // Paper coordinates are 1-based (row, col); failures at
        // (3,2)? — Fig. 5 shows failures leaving rows {0,1,3} with a
        // common set of 3 columns. Reproduce: fail (2,1), (2,3), (3,2).
        m.fail_board(2, 1);
        m.fail_board(2, 3);
        m.fail_board(3, 2);
        let p = m.allocate(1, 3, 3, Heuristics::none()).unwrap();
        assert_eq!(p.boards(), 9);
        m.check_invariants().unwrap();
        // The 2x4 job of the figure needs two full rows.
        let p2 = m.allocate(2, 2, 4, Heuristics::transpose_only());
        // Rows 0/1 are partially taken by the 3x3 job now; expect failure
        // or success depending on column overlap — invariants must hold
        // either way.
        let _ = p2;
        m.check_invariants().unwrap();
    }

    impl Heuristics {
        pub fn transpose_only() -> Self {
            Self {
                transpose: true,
                ..Self::default()
            }
        }
    }

    #[test]
    fn transpose_rescues_tall_jobs() {
        let mut m = BoardMesh::new(8, 2);
        // 4x2 does not fit (only 2 rows); transposed 2x4 does.
        assert_eq!(
            m.allocate(1, 4, 2, Heuristics::none()),
            Err(AllocError::TooLarge)
        );
        let p = m.allocate(1, 4, 2, Heuristics::transpose_only()).unwrap();
        assert_eq!((p.rows.len(), p.cols.len()), (2, 4));
    }

    #[test]
    fn aspect_reshapes_when_square_fails() {
        let mut m = BoardMesh::new(16, 1);
        let h = Heuristics {
            aspect: true,
            transpose: true,
            locality: false,
        };
        // 4x4 cannot fit in one row; 1x16 (aspect 16 > 8) is not allowed,
        // but 2x8 transposed... also impossible with y=1. Only 1x16 would
        // fit and it's beyond MAX_ASPECT, so this must fail.
        assert!(m.allocate(1, 4, 4, h).is_err());
        // 2x4 -> 1x8 via aspect works.
        let p = m.allocate(2, 2, 4, h).unwrap();
        assert_eq!((p.rows.len(), p.cols.len()), (1, 8));
    }

    #[test]
    fn free_returns_boards() {
        let mut m = BoardMesh::new(4, 4);
        m.allocate(1, 2, 2, Heuristics::none()).unwrap();
        assert_eq!(m.allocated_boards(), 4);
        m.free(1);
        assert_eq!(m.allocated_boards(), 0);
        let p = m.allocate(2, 4, 4, Heuristics::none()).unwrap();
        assert_eq!(p.boards(), 16);
    }

    #[test]
    fn utilization_accounts_failures() {
        let mut m = BoardMesh::new(2, 2);
        m.fail_board(0, 0);
        m.allocate(1, 1, 2, Heuristics::none()).unwrap();
        m.allocate(2, 1, 1, Heuristics::none()).unwrap();
        assert_eq!(m.working_boards(), 3);
        assert!((m.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn locality_prefers_compact_columns() {
        let mut m = BoardMesh::new(64, 2);
        // Occupy columns 0..8 of row 0 to push the naive choice around.
        m.allocate(7, 1, 8, Heuristics::none()).unwrap();
        let h = Heuristics {
            locality: true,
            aspect: false,
            transpose: false,
        };
        let p = m.allocate(1, 2, 8, h).unwrap();
        // All chosen columns should sit under one leaf (span 16):
        let t = m.upper_traffic_alltoall(&p.rows, &p.cols);
        assert!(t <= 0.5, "upper traffic {t}");
        m.check_invariants().unwrap();
    }

    #[test]
    fn largest_free_rect_and_fragmentation() {
        let mut m = BoardMesh::new(4, 4);
        assert_eq!(m.largest_free_rect(), (4, 4));
        assert_eq!(m.fragmentation(), 0.0);
        assert_eq!(m.free_boards(), 16);

        // A full middle row splits nothing column-wise: rows need not be
        // contiguous, so a 3x4 virtual sub-mesh survives.
        m.allocate(1, 1, 4, Heuristics::none()).unwrap();
        assert_eq!(m.largest_free_rect(), (3, 4));
        assert_eq!(m.fragmentation(), 0.0);

        // Staggered failures fragment the free space: the free columns
        // alternate between rows, so no rectangle covers all 12 free
        // boards and fragmentation becomes positive.
        let mut m = BoardMesh::new(4, 4);
        for r in 0..4 {
            m.fail_board(r, if r % 2 == 0 { 0 } else { 1 });
        }
        let (u, v) = m.largest_free_rect();
        assert!(u * v >= 8 && u * v < 12, "({u},{v})");
        assert_eq!(m.free_boards(), 12);
        let f = m.fragmentation();
        assert!(f > 0.0 && f < 0.5, "{f}");

        // A narrow early row must be *skipped*, as greedy_find skips it:
        // row 0 offers one free column, row 1 four — the feasible rect is
        // the 1x4 strip (greedy_find(1, 4) succeeds), not a 2x1 column.
        let mut m = BoardMesh::new(4, 2);
        m.fail_board(0, 1);
        m.fail_board(0, 2);
        m.fail_board(0, 3);
        assert_eq!(m.largest_free_rect(), (1, 4));
        assert!(m.allocate(1, 1, 4, Heuristics::none()).is_ok());
        assert!((m.fragmentation() - 0.0).abs() < 1e-9); // 1 board left

        // Full mesh: no free boards, fragmentation defined as 0.
        let mut m = BoardMesh::new(2, 2);
        m.allocate(1, 2, 2, Heuristics::none()).unwrap();
        assert_eq!(m.free_boards(), 0);
        assert_eq!(m.fragmentation(), 0.0);
    }

    #[test]
    fn upper_traffic_metrics_bounds() {
        let m = BoardMesh::new(64, 64);
        // Same leaf -> 0.
        assert_eq!(m.upper_traffic_alltoall(&[0, 1], &[2, 3]), 0.0);
        // Different leaves -> 1 for the column part.
        let t = m.upper_traffic_alltoall(&[0], &[0, 16]);
        assert!(t > 0.49 && t <= 0.51, "{t}");
        let t = m.upper_traffic_allreduce(&[0], &[0, 16]);
        assert!(t > 0.49 && t <= 0.51, "{t}");
    }
}
