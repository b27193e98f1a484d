//! Collective schedule generators (§V-A2).
//!
//! All generators are pure functions from parameters to a [`Schedule`]; the
//! same schedule is checked for numerical correctness by the logical
//! executor and timed by either simulation engine. Rings operate over an
//! arbitrary rank *order*, so the same code drives plain rings, the two
//! edge-disjoint Hamiltonian cycles, and the row/column phases of the 2D
//! torus algorithm.

use crate::rings;
use crate::schedule::{Payload, RecvAction, Schedule};

/// Split `[off, off+len)` into `p` nearly equal chunks.
fn chunks(off: u32, len: u32, p: usize) -> Vec<(u32, u32)> {
    let base = len / p as u32;
    let rem = len % p as u32;
    let mut out = Vec::with_capacity(p);
    let mut o = off;
    for j in 0..p as u32 {
        let l = base + u32::from(j < rem);
        out.push((o, l));
        o += l;
    }
    out
}

/// The segment payload of chunk `(off, len)`.
fn segment((off, len): (u32, u32)) -> Payload {
    Payload::Segment { off, len }
}

/// Pipelined ring reduce-scatter over `order` on `[off, off+len)`.
///
/// After completion, the member at ring position `i` owns the fully
/// reduced chunk `(i+1) mod p` (chunks split the range near-evenly).
/// `entry[i]` are dependencies gating position `i`'s first send.
/// Returns per-position indices of the op that completes the owned chunk.
pub fn ring_reduce_scatter_on(
    s: &mut Schedule,
    order: &[u32],
    off: u32,
    len: u32,
    entry: &[Vec<u32>],
) -> Vec<u32> {
    let p = order.len();
    assert!(p >= 2);
    let ch = chunks(off, len, p);
    let mut last = Vec::new();
    for k in 0..p - 1 {
        last = s.shift_round(
            order,
            1,
            |i| {
                let deps = if k == 0 {
                    entry[i].clone()
                } else {
                    vec![last[i]]
                };
                (segment(ch[(i + p - k) % p]), deps)
            },
            |i| (RecvAction::Reduce, entry[i].clone()),
        );
    }
    last
}

/// Pipelined ring allgather over `order` on `[off, off+len)`, assuming the
/// position-`i` member owns chunk `(i+1) mod p` (the reduce-scatter
/// post-condition). `entry[i]` gates position `i`'s first send.
pub fn ring_allgather_on(
    s: &mut Schedule,
    order: &[u32],
    off: u32,
    len: u32,
    entry: &[Vec<u32>],
) -> Vec<u32> {
    let p = order.len();
    assert!(p >= 2);
    let ch = chunks(off, len, p);
    let mut last = Vec::new();
    for k in 0..p - 1 {
        last = s.shift_round(
            order,
            1,
            |i| {
                let deps = if k == 0 {
                    entry[i].clone()
                } else {
                    vec![last[i]]
                };
                (segment(ch[(i + 1 + p - k) % p]), deps)
            },
            |_| (RecvAction::Copy, Vec::new()),
        );
    }
    last
}

/// Full pipelined ring allreduce over `order` on `[off, off+len)`:
/// reduce-scatter followed by allgather (§V-A2b, Tp ≈ 2pα + 2Sβ).
/// Returns the per-position final op indices.
pub fn ring_allreduce_on(
    s: &mut Schedule,
    order: &[u32],
    off: u32,
    len: u32,
    entry: &[Vec<u32>],
) -> Vec<u32> {
    let rs = ring_reduce_scatter_on(s, order, off, len, entry);
    let gate: Vec<Vec<u32>> = rs.into_iter().map(|d| vec![d]).collect();
    ring_allgather_on(s, order, off, len, &gate)
}

/// Unidirectional pipelined ring allreduce over `p` ranks and `n` elements.
pub fn ring_allreduce(p: usize, n: usize) -> Schedule {
    let mut s = Schedule::new(p, n);
    let order: Vec<u32> = (0..p as u32).collect();
    let entry = vec![Vec::new(); p];
    ring_allreduce_on(&mut s, &order, 0, n as u32, &entry);
    s
}

/// Bidirectional pipelined ring allreduce (§V-A2b, Tbp ≈ 2pα + Sβ): half
/// the data travels each direction, using two NICs concurrently.
pub fn bidirectional_ring_allreduce(p: usize, n: usize) -> Schedule {
    let mut s = Schedule::new(p, n);
    let fwd: Vec<u32> = (0..p as u32).collect();
    let bwd: Vec<u32> = (0..p as u32).rev().collect();
    let entry = vec![Vec::new(); p];
    let half = (n / 2) as u32;
    ring_allreduce_on(&mut s, &fwd, 0, half, &entry);
    ring_allreduce_on(&mut s, &bwd, half, n as u32 - half, &entry);
    s
}

/// Allreduce over a logical `r x c` torus using **two bidirectional rings
/// on edge-disjoint Hamiltonian cycles** (§V-A2b "rings", App. D): each of
/// the four quarters of the data travels one direction of one cycle,
/// Trings ≈ 2pα + (S/4)·2β /2 = 2pα + Sβ/2 with four ports.
///
/// Ranks are row-major over the torus. Returns the schedule and the number
/// of distinct cycles used (2 when the Bae et al. conditions hold for
/// `r x c` or its transpose; 1 with a single-cycle fallback).
pub fn disjoint_rings_allreduce(r: usize, c: usize, n: usize) -> (Schedule, usize) {
    let p = r * c;
    let mut s = Schedule::new(p, n);
    let entry = vec![Vec::new(); p];
    let rank_of = |co: (usize, usize)| (co.0 * c + co.1) as u32;

    let cycles: (Vec<u32>, Option<Vec<u32>>) = match rings::disjoint_hamiltonian_cycles(r, c) {
        Ok((g, red)) => (
            g.into_iter().map(rank_of).collect(),
            Some(red.into_iter().map(rank_of).collect()),
        ),
        Err(_) => match rings::disjoint_hamiltonian_cycles(c, r) {
            // Transposed construction: swap coordinates back.
            Ok((g, red)) => (
                g.into_iter().map(|(i, j)| rank_of((j, i))).collect(),
                Some(red.into_iter().map(|(i, j)| rank_of((j, i))).collect()),
            ),
            Err(_) => {
                let cy = rings::single_hamiltonian_cycle(r, c)
                    .map(|cy| cy.into_iter().map(rank_of).collect::<Vec<_>>())
                    .unwrap_or_else(|| (0..p as u32).collect());
                (cy, None)
            }
        },
    };

    match cycles {
        (g, Some(red)) => {
            // Four quarters: green fwd/bwd, red fwd/bwd.
            let q = (n / 4) as u32;
            let segs = [(0, q), (q, q), (2 * q, q), (3 * q, n as u32 - 3 * q)];
            let gr: Vec<u32> = g.iter().rev().copied().collect();
            let rr: Vec<u32> = red.iter().rev().copied().collect();
            ring_allreduce_on(&mut s, &g, segs[0].0, segs[0].1, &entry);
            ring_allreduce_on(&mut s, &gr, segs[1].0, segs[1].1, &entry);
            ring_allreduce_on(&mut s, &red, segs[2].0, segs[2].1, &entry);
            ring_allreduce_on(&mut s, &rr, segs[3].0, segs[3].1, &entry);
            (s, 2)
        }
        (g, None) => {
            let half = (n / 2) as u32;
            let gr: Vec<u32> = g.iter().rev().copied().collect();
            ring_allreduce_on(&mut s, &g, 0, half, &entry);
            ring_allreduce_on(&mut s, &gr, half, n as u32 - half, &entry);
            (s, 1)
        }
    }
}

/// Two-dimensional torus allreduce (§V-A2c): row reduce-scatter, column
/// allreduce on the owned chunk, row allgather. With `doubled`, two
/// instances (the second with transposed roles) each handle half the data,
/// driving all four ports: T ≈ 4√p α + Sβ(1+2√p)/(4√p).
pub fn torus2d_allreduce(rows: usize, cols: usize, n: usize, doubled: bool) -> Schedule {
    let p = rows * cols;
    let mut s = Schedule::new(p, n);
    if doubled {
        let half = n / 2;
        let a = torus2d_instance(rows, cols, 0, half as u32, false);
        let b = torus2d_instance(rows, cols, half as u32, (n - half) as u32, true);
        s.merge(&a);
        s.merge(&b);
        s
    } else {
        let inst = torus2d_instance(rows, cols, 0, n as u32, false);
        s.merge(&inst);
        s
    }
}

/// One torus-allreduce instance on `[off, off+len)`; `transposed` swaps the
/// roles of rows and columns (for the doubled variant).
fn torus2d_instance(rows: usize, cols: usize, off: u32, len: u32, transposed: bool) -> Schedule {
    let p = rows * cols;
    // Effective grid.
    let (er, ec) = if transposed {
        (cols, rows)
    } else {
        (rows, cols)
    };
    let rank_of = |i: usize, j: usize| -> u32 {
        if transposed {
            (j * cols + i) as u32
        } else {
            (i * cols + j) as u32
        }
    };
    let mut s = Schedule::new(p, (off + len) as usize);
    s.data_len = (off + len) as usize; // merged later into the real length
    let no_deps: Vec<Vec<u32>> = vec![Vec::new(); ec.max(er)];

    if ec == 1 {
        // Degenerate: single column; just ring-allreduce each column.
        for j in 0..ec {
            let order: Vec<u32> = (0..er).map(|i| rank_of(i, j)).collect();
            ring_allreduce_on(&mut s, &order, off, len, &no_deps[..er]);
        }
        return s;
    }

    let ch = chunks(off, len, ec);
    // Phase 1: per-row reduce-scatter.
    let mut rs_exit: Vec<Vec<u32>> = vec![Vec::new(); p]; // per rank: gating deps
    for i in 0..er {
        let order: Vec<u32> = (0..ec).map(|j| rank_of(i, j)).collect();
        let entry: Vec<Vec<u32>> = vec![Vec::new(); ec];
        let exits = ring_reduce_scatter_on(&mut s, &order, off, len, &entry);
        for (pos, e) in exits.into_iter().enumerate() {
            rs_exit[order[pos] as usize] = vec![e];
        }
    }
    // Phase 2: per-column allreduce on the chunk owned by that column's
    // position: position j in a row owns chunk (j+1) mod ec.
    let mut col_exit: Vec<Vec<u32>> = vec![Vec::new(); p];
    for j in 0..ec {
        let owned = ch[(j + 1) % ec];
        let order: Vec<u32> = (0..er).map(|i| rank_of(i, j)).collect();
        if er >= 2 && owned.1 > 0 {
            let entry: Vec<Vec<u32>> = order
                .iter()
                .map(|&rk| rs_exit[rk as usize].clone())
                .collect();
            let exits = ring_allreduce_on(&mut s, &order, owned.0, owned.1, &entry);
            for (pos, e) in exits.into_iter().enumerate() {
                col_exit[order[pos] as usize] = vec![e];
            }
        } else {
            for &rk in &order {
                col_exit[rk as usize] = rs_exit[rk as usize].clone();
            }
        }
    }
    // Phase 3: per-row allgather.
    for i in 0..er {
        let order: Vec<u32> = (0..ec).map(|j| rank_of(i, j)).collect();
        let entry: Vec<Vec<u32>> = order
            .iter()
            .map(|&rk| col_exit[rk as usize].clone())
            .collect();
        ring_allgather_on(&mut s, &order, off, len, &entry);
    }
    s
}

/// Binomial-tree allreduce (reduce to rank 0, then broadcast) — the
/// small-message algorithm of §V-A2a (T ≈ log2(p)(α + Sβ)). Requires no
/// power-of-two: uses the standard fold into the lower half.
pub fn binomial_tree_allreduce(p: usize, n: usize) -> Schedule {
    let mut s = Schedule::new(p, n);
    let seg = Payload::Segment {
        off: 0,
        len: n as u32,
    };
    // Reduce phase.
    let mut gate: Vec<Option<u32>> = vec![None; p];
    let mut dist = 1usize;
    while dist < p {
        for r in (0..p).step_by(2 * dist) {
            let peer = r + dist;
            if peer >= p {
                continue;
            }
            let deps_s: Vec<u32> = gate[peer].iter().copied().collect();
            let tx = s.send(peer, r as u32, seg, deps_s);
            let deps_r: Vec<u32> = gate[r].iter().copied().collect();
            let rv = s.recv(r, peer as u32, tx, RecvAction::Reduce, deps_r);
            gate[r] = Some(rv);
        }
        dist *= 2;
    }
    // Broadcast phase (mirror).
    let mut levels = Vec::new();
    let mut d = 1usize;
    while d < p {
        levels.push(d);
        d *= 2;
    }
    for &dist in levels.iter().rev() {
        for r in (0..p).step_by(2 * dist) {
            let peer = r + dist;
            if peer >= p {
                continue;
            }
            let deps_s: Vec<u32> = gate[r].iter().copied().collect();
            let tx = s.send(r, peer as u32, seg, deps_s);
            let rv = s.recv(peer, r as u32, tx, RecvAction::Copy, Vec::new());
            gate[peer] = Some(rv);
        }
    }
    s
}

/// Pipelined ring broadcast from `root` over `p` ranks: the root streams
/// `p` segments around the ring; everyone forwards (§V-A2d mentions
/// broadcast follows the allgather epoch's tradeoffs).
pub fn ring_broadcast(p: usize, n: usize, root: usize) -> Schedule {
    let mut s = Schedule::new(p, n);
    assert!(root < p);
    let nseg = p.min(n).max(1);
    let ch = chunks(0, n as u32, nseg);
    // Ring order starting at root.
    let order: Vec<u32> = (0..p).map(|i| ((root + i) % p) as u32).collect();
    let mut last_recv: Vec<Option<u32>> = vec![None; p];
    for &(o, l) in &ch {
        if l == 0 {
            continue;
        }
        for pos in 0..p - 1 {
            let rank = order[pos] as usize;
            let next = order[pos + 1];
            let deps = if pos == 0 {
                Vec::new()
            } else {
                // hxlint: allow(P001) pos > 0: the previous ring position recorded a recv
                vec![last_recv[rank].unwrap()]
            };
            let tx = s.send(rank, next, segment((o, l)), deps);
            let rv = s.recv(next as usize, rank as u32, tx, RecvAction::Copy, Vec::new());
            last_recv[next as usize] = Some(rv);
        }
    }
    s
}

/// Plain reduce-scatter over `p` ranks (exposed for CosmoFlow's layers).
pub fn ring_reduce_scatter(p: usize, n: usize) -> Schedule {
    let mut s = Schedule::new(p, n);
    let order: Vec<u32> = (0..p as u32).collect();
    let entry = vec![Vec::new(); p];
    ring_reduce_scatter_on(&mut s, &order, 0, n as u32, &entry);
    s
}

/// Plain allgather over `p` ranks, assuming rank `i` owns chunk `(i+1)%p`.
pub fn ring_allgather(p: usize, n: usize) -> Schedule {
    let mut s = Schedule::new(p, n);
    let order: Vec<u32> = (0..p as u32).collect();
    let entry = vec![Vec::new(); p];
    ring_allgather_on(&mut s, &order, 0, n as u32, &entry);
    s
}

/// Per-job schedule instantiation for the cluster simulator: the gradient
/// allreduce one training iteration of a placed job runs, over the job's
/// `rows x cols` accelerator grid (ranks row-major over the grid, exactly
/// the layout `hxcluster` maps onto the virtual sub-HxMesh).
///
/// Algorithm selection follows the shape: grids with both dimensions ≥ 2
/// use the four-port disjoint-rings algorithm (with its built-in
/// single-cycle and linear-order fallbacks for infeasible dimensions);
/// strips (`1 x n` / `n x 1`) use the bidirectional ring, which is what
/// their two usable line directions support; a single rank degenerates to
/// an empty schedule (nothing to reduce). `elems` is raised to `4 * p`
/// when smaller, so every pipelined chunk is non-empty.
pub fn job_allreduce(rows: usize, cols: usize, elems: usize) -> Schedule {
    let p = rows * cols;
    if p <= 1 {
        return Schedule::new(p.max(1), elems.max(1));
    }
    let elems = elems.max(4 * p);
    if rows == 1 || cols == 1 {
        bidirectional_ring_allreduce(p, elems)
    } else {
        disjoint_rings_allreduce(rows, cols, elems).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::check_allreduce;

    #[test]
    fn ring_allreduce_is_correct() {
        for p in [2, 3, 4, 7, 8] {
            for n in [4, 16, 37] {
                if n < p {
                    continue;
                }
                let s = ring_allreduce(p, n);
                check_allreduce(&s).unwrap_or_else(|e| panic!("p={p} n={n}: {e}"));
            }
        }
    }

    #[test]
    fn bidirectional_ring_is_correct() {
        for p in [2, 4, 5, 8] {
            let s = bidirectional_ring_allreduce(p, 64);
            check_allreduce(&s).unwrap_or_else(|e| panic!("p={p}: {e}"));
        }
    }

    #[test]
    fn disjoint_rings_allreduce_is_correct() {
        // Feasible sizes use 2 cycles.
        let (s, ncyc) = disjoint_rings_allreduce(4, 4, 64);
        assert_eq!(ncyc, 2);
        check_allreduce(&s).unwrap();
        let (s, ncyc) = disjoint_rings_allreduce(8, 4, 128);
        assert_eq!(ncyc, 2);
        check_allreduce(&s).unwrap();
        // Infeasible size falls back to one cycle but stays correct.
        let (s, ncyc) = disjoint_rings_allreduce(4, 6, 96);
        assert_eq!(ncyc, 1);
        check_allreduce(&s).unwrap();
    }

    #[test]
    fn torus2d_allreduce_is_correct() {
        for (r, c) in [(2, 2), (3, 3), (4, 4), (2, 4), (4, 2), (3, 5)] {
            let n = 4 * r * c;
            let s = torus2d_allreduce(r, c, n, false);
            check_allreduce(&s).unwrap_or_else(|e| panic!("{r}x{c}: {e}"));
        }
    }

    #[test]
    fn torus2d_doubled_is_correct() {
        for (r, c) in [(2, 2), (4, 4), (3, 4)] {
            let n = 8 * r * c;
            let s = torus2d_allreduce(r, c, n, true);
            check_allreduce(&s).unwrap_or_else(|e| panic!("{r}x{c} doubled: {e}"));
        }
    }

    #[test]
    fn binomial_tree_is_correct() {
        for p in [2, 3, 4, 5, 8, 13] {
            let s = binomial_tree_allreduce(p, 16);
            check_allreduce(&s).unwrap_or_else(|e| panic!("p={p}: {e}"));
        }
    }

    #[test]
    fn broadcast_distributes_roots_data() {
        use crate::logical::execute;
        let p = 5;
        let n = 10;
        let s = ring_broadcast(p, n, 2);
        let mut inputs = vec![vec![0.0f32; n]; p];
        inputs[2] = (0..n).map(|i| i as f32 + 1.0).collect();
        let res = execute(&s, &inputs).unwrap();
        for r in 0..p {
            assert_eq!(res.data[r], inputs[2], "rank {r}");
        }
    }

    #[test]
    fn job_allreduce_is_correct_for_every_job_shape() {
        // Every shape the allocator can hand the cluster simulator must
        // produce a numerically correct allreduce: square grids, skewed
        // grids, infeasible-ring grids (odd x odd), strips, and the
        // degenerate single rank.
        for (rows, cols) in [
            (1, 1),
            (1, 2),
            (1, 6),
            (4, 1),
            (2, 2),
            (2, 3),
            (3, 3),
            (4, 2),
            (6, 4),
            (5, 3),
        ] {
            let s = job_allreduce(rows, cols, 8);
            assert_eq!(s.nranks, (rows * cols).max(1));
            check_allreduce(&s).unwrap_or_else(|e| panic!("{rows}x{cols}: {e}"));
        }
    }

    #[test]
    fn ring_volume_matches_theory() {
        // Reduce-scatter + allgather move 2*(p-1)/p * S bytes per rank.
        let (p, n) = (8, 64);
        let s = ring_allreduce(p, n);
        let total = s.total_send_bytes();
        let expect = 2 * (p as u64 - 1) * (n as u64 * 4);
        assert_eq!(total, expect);
    }
}
