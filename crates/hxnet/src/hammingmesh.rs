//! HammingMesh (HxMesh) topology and routing — the paper's contribution.
//!
//! A 2D HammingMesh connects `x*y` boards of `a*b` accelerators each
//! (Fig. 3). Accelerators on a board form a 2D mesh of free PCB traces;
//! board edges connect into global networks: one per **accelerator line**
//! (the E/W ports of accelerator row `r` across all boards of board row
//! `bi`, and the N/S ports of accelerator column `c` across board column
//! `bj`) — "each plane fully-connected in x / y". A line's `2x` (or `2y`)
//! ports are connected by a single 64-port switch when they fit, otherwise
//! by a two-level fat tree (App. C), optionally tapered (§III-F).
//!
//! Each accelerator forwards packets within a plane through its four ports
//! (E, W, N, S) like a small 4x4 switch; we build and simulate a single
//! plane, as the paper does (§III-D).
//!
//! Routing follows §IV-C: adaptive minimal within boards using the
//! north-last turn model, up*/down* inside the global trees, and at most
//! one intermediate board when source and destination differ in both board
//! coordinates. Deadlock freedom uses the paper's scheme (§IV-C3): the VC
//! is incremented every time a packet jumps from a board into a global
//! network, which bounds the scheme at three VCs because any path crosses
//! at most two trees (wrap-around shortcuts are suppressed once the last
//! VC is reached).

use crate::graph::{Cable, Network, NodeId, PortId, Topology};
use crate::route::{FailoverTable, Hop, LoadProbe, Router, UpDownTable};
use crate::{cable_link, pcb_link};
use std::collections::BTreeMap;

/// Compass direction of an accelerator port within a plane.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dir {
    East = 0,
    West = 1,
    North = 2,
    South = 3,
}

/// Coordinates of an accelerator: board row/column in the global
/// arrangement, and row/column within the board.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct HxCoord {
    /// Board row, `0..y`.
    pub bi: u16,
    /// Board column, `0..x`.
    pub bj: u16,
    /// Accelerator row within the board, `0..a`.
    pub r: u16,
    /// Accelerator column within the board, `0..b`.
    pub c: u16,
}

/// Parameters of an `x` x `y` HxMesh with `a` x `b` boards.
#[derive(Clone, Debug)]
pub struct HxMeshParams {
    /// Rows per board.
    pub a: usize,
    /// Columns per board.
    pub b: usize,
    /// Boards per row of the global arrangement (number of board columns).
    pub x: usize,
    /// Boards per column of the global arrangement (number of board rows).
    pub y: usize,
    /// Fraction of global-tree up links removed (§III-F). 0.0 = full
    /// bandwidth. Ignored when a line fits in a single switch.
    pub taper: f64,
    /// Switch radix (64 in the paper).
    pub radix: usize,
}

impl HxMeshParams {
    /// Square HxaMesh on an `n` x `n` board grid, e.g. `square(2, 16)` is
    /// the paper's small-cluster 16x16 Hx2Mesh.
    pub fn square(board: usize, n: usize) -> Self {
        Self {
            a: board,
            b: board,
            x: n,
            y: n,
            taper: 0.0,
            radix: 64,
        }
    }

    /// The paper's small-cluster 16x16 Hx2Mesh (1,024 accelerators).
    pub fn small_hx2() -> Self {
        Self::square(2, 16)
    }

    /// The paper's small-cluster 8x8 Hx4Mesh (1,024 accelerators).
    pub fn small_hx4() -> Self {
        Self::square(4, 8)
    }

    /// The paper's large-cluster 64x64 Hx2Mesh (16,384 accelerators).
    pub fn large_hx2() -> Self {
        Self::square(2, 64)
    }

    /// The paper's large-cluster 32x32 Hx4Mesh (16,384 accelerators).
    pub fn large_hx4() -> Self {
        Self::square(4, 32)
    }

    pub fn num_accelerators(&self) -> usize {
        self.a * self.b * self.x * self.y
    }

    /// Ports of one row line (E+W of one accelerator row across the board
    /// row).
    pub fn row_line_ports(&self) -> usize {
        2 * self.x
    }

    /// Ports of one column line.
    pub fn col_line_ports(&self) -> usize {
        2 * self.y
    }

    /// Rank of the accelerator at a coordinate: row-major over the global
    /// accelerator grid of `(y*a)` rows by `(x*b)` columns.
    pub fn rank_of(&self, co: HxCoord) -> usize {
        let gi = co.bi as usize * self.a + co.r as usize;
        let gj = co.bj as usize * self.b + co.c as usize;
        gi * (self.x * self.b) + gj
    }

    /// Inverse of [`HxMeshParams::rank_of`].
    pub fn coord_of(&self, rank: usize) -> HxCoord {
        let cols = self.x * self.b;
        let (gi, gj) = (rank / cols, rank % cols);
        HxCoord {
            bi: (gi / self.a) as u16,
            bj: (gj / self.b) as u16,
            r: (gi % self.a) as u16,
            c: (gj % self.b) as u16,
        }
    }

    /// Build the single-plane topology and its router.
    pub fn build(&self) -> Network {
        assert!(self.a >= 1 && self.b >= 1 && self.x >= 1 && self.y >= 1);
        let n = self.num_accelerators();
        let mut topo = Topology::with_capacity(n + self.x + self.y);
        let mut endpoints = vec![NodeId(0); n];
        let mut coords = vec![
            HxCoord {
                bi: 0,
                bj: 0,
                r: 0,
                c: 0
            };
            n
        ];
        let acc_index = |bi: usize, bj: usize, r: usize, c: usize| {
            ((bi * self.x + bj) * self.a + r) * self.b + c
        };
        let mut acc_at = vec![NodeId(0); n];
        for bi in 0..self.y {
            for bj in 0..self.x {
                for r in 0..self.a {
                    for c in 0..self.b {
                        let co = HxCoord {
                            bi: bi as u16,
                            bj: bj as u16,
                            r: r as u16,
                            c: c as u16,
                        };
                        let rank = self.rank_of(co);
                        let node = topo.add_accelerator(rank as u32);
                        endpoints[rank] = node;
                        coords[node.idx()] = co;
                        acc_at[acc_index(bi, bj, r, c)] = node;
                    }
                }
            }
        }

        // Per-accelerator port ids in E, W, N, S order; filled as we wire.
        let mut ports = vec![[PortId(u16::MAX); 4]; n];

        // On-board PCB mesh links.
        for bi in 0..self.y {
            for bj in 0..self.x {
                for r in 0..self.a {
                    for c in 0..self.b.saturating_sub(1) {
                        let west = acc_at[acc_index(bi, bj, r, c)];
                        let east = acc_at[acc_index(bi, bj, r, c + 1)];
                        let (pw, pe) = topo.connect(west, east, pcb_link());
                        ports[west.idx()][Dir::East as usize] = pw;
                        ports[east.idx()][Dir::West as usize] = pe;
                    }
                }
                for c in 0..self.b {
                    for r in 0..self.a.saturating_sub(1) {
                        let north = acc_at[acc_index(bi, bj, r, c)];
                        let south = acc_at[acc_index(bi, bj, r + 1, c)];
                        let (pn, ps) = topo.connect(north, south, pcb_link());
                        ports[north.idx()][Dir::South as usize] = pn;
                        ports[south.idx()][Dir::North as usize] = ps;
                    }
                }
            }
        }

        // Global line networks. Row lines use DAC endpoint cables, column
        // lines AoC (§III-D layout); inter-switch links are always AoC.
        let mut leaves_all: Vec<NodeId> = Vec::new();
        let mut spines_all: Vec<NodeId> = Vec::new();
        let mut up_boundary: BTreeMap<NodeId, usize> = BTreeMap::new();
        let mut switch_net: BTreeMap<NodeId, NetRef> = BTreeMap::new();
        let mut group = 0u32;

        let mut build_line = |topo: &mut Topology,
                              ports: &mut Vec<[PortId; 4]>,
                              attachments: Vec<(NodeId, Dir)>,
                              cable: Cable,
                              net: NetRef| {
            let q = attachments.len();
            group += 1;
            if q <= self.radix {
                // Single crossbar switch for the whole line.
                let sw = topo.add_switch(0, group, 0);
                for (acc, dir) in attachments {
                    let (pa, _) = topo.connect(acc, sw, cable_link(cable));
                    ports[acc.idx()][dir as usize] = pa;
                }
                up_boundary.insert(sw, topo.num_ports(sw));
                switch_net.insert(sw, net);
                leaves_all.push(sw);
            } else {
                // Two-level fat tree over the line, optionally tapered.
                let down = self.radix / 2;
                let nleaves = q.div_ceil(down);
                let up = (((self.radix / 2) as f64) * (1.0 - self.taper))
                    .round()
                    .max(1.0) as usize;
                let nspines = (nleaves * up).div_ceil(self.radix).max(1);
                let leaves: Vec<NodeId> = (0..nleaves)
                    .map(|i| topo.add_switch(0, group, i as u32))
                    .collect();
                let spines: Vec<NodeId> = (0..nspines)
                    .map(|i| topo.add_switch(1, group, i as u32))
                    .collect();
                for (k, (acc, dir)) in attachments.into_iter().enumerate() {
                    let leaf = leaves[k / down];
                    let (pa, _) = topo.connect(acc, leaf, cable_link(cable));
                    ports[acc.idx()][dir as usize] = pa;
                }
                for (li, &leaf) in leaves.iter().enumerate() {
                    up_boundary.insert(leaf, topo.num_ports(leaf));
                    for j in 0..up {
                        let spine = spines[(li + j) % nspines];
                        topo.connect(leaf, spine, cable_link(Cable::Aoc));
                    }
                }
                for &s in &spines {
                    up_boundary.insert(s, topo.num_ports(s));
                    switch_net.insert(s, net);
                }
                for &l in &leaves {
                    switch_net.insert(l, net);
                }
                leaves_all.extend(leaves);
                spines_all.extend(spines);
            }
        };

        for bi in 0..self.y {
            for r in 0..self.a {
                let mut attach = Vec::with_capacity(self.row_line_ports());
                for bj in 0..self.x {
                    attach.push((acc_at[acc_index(bi, bj, r, 0)], Dir::West));
                    attach.push((acc_at[acc_index(bi, bj, r, self.b - 1)], Dir::East));
                }
                build_line(
                    &mut topo,
                    &mut ports,
                    attach,
                    Cable::Dac,
                    NetRef::RowLine {
                        bi: bi as u16,
                        r: r as u16,
                    },
                );
            }
        }
        for bj in 0..self.x {
            for c in 0..self.b {
                let mut attach = Vec::with_capacity(self.col_line_ports());
                for bi in 0..self.y {
                    attach.push((acc_at[acc_index(bi, bj, 0, c)], Dir::North));
                    attach.push((acc_at[acc_index(bi, bj, self.a - 1, c)], Dir::South));
                }
                build_line(
                    &mut topo,
                    &mut ports,
                    attach,
                    Cable::Aoc,
                    NetRef::ColLine {
                        bj: bj as u16,
                        c: c as u16,
                    },
                );
            }
        }

        let levels = vec![leaves_all, spines_all];
        let table = UpDownTable::build(
            &topo,
            &levels,
            |sw, p| p.idx() >= up_boundary[&sw],
            |sw, p| {
                let peer = topo.peer(sw, p).node;
                topo.kind(peer).is_accelerator().then_some(peer)
            },
        );

        let router = HxMeshRouter {
            a: self.a as u16,
            b: self.b as u16,
            x: self.x as u16,
            coords,
            ports,
            acc_at,
            table,
            switch_net,
            failover: FailoverTable::new(),
        };
        Network {
            topo,
            endpoints,
            router: Box::new(router),
            name: format!("{}x{} Hx{}x{}Mesh", self.x, self.y, self.a, self.b),
        }
    }
}

/// Which global line network a switch belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum NetRef {
    /// E/W network of accelerator row `r` across board row `bi`.
    RowLine { bi: u16, r: u16 },
    /// N/S network of accelerator column `c` across board column `bj`.
    ColLine { bj: u16, c: u16 },
}

/// Adaptive minimal HxMesh routing (§IV-C) with the 3-VC deadlock scheme.
pub struct HxMeshRouter {
    a: u16,
    b: u16,
    x: u16,
    /// Coordinates per accelerator node index.
    coords: Vec<HxCoord>,
    /// E,W,N,S port ids per accelerator node index.
    ports: Vec<[PortId; 4]>,
    /// Accelerator node at flattened (bi, bj, r, c).
    acc_at: Vec<NodeId>,
    table: UpDownTable,
    switch_net: BTreeMap<NodeId, NetRef>,
    /// Safety net for fault injection beyond the structured handling
    /// below: guarantees progress and failed-link avoidance for *any*
    /// failure set (e.g. both exits of a board line cut at once), not
    /// just the single-cable cases §IV-C's adaptivity covers.
    failover: FailoverTable,
}

/// Highest VC of the 3-VC scheme; wrap shortcuts are disabled here.
const LAST_VC: u8 = 2;

impl HxMeshRouter {
    #[inline]
    fn acc(&self, bi: u16, bj: u16, r: u16, c: u16) -> NodeId {
        let (a, b, x) = (self.a as usize, self.b as usize, self.x as usize);
        self.acc_at[((bi as usize * x + bj as usize) * a + r as usize) * b + c as usize]
    }

    pub fn coord(&self, node: NodeId) -> HxCoord {
        self.coords[node.idx()]
    }

    /// Best-case walk length from a tree entry edge to offset `t` on a line
    /// of `len` (the tree can deliver to either end of the line).
    #[inline]
    fn edge_walk(t: u16, len: u16) -> u32 {
        (t as u32).min((len - 1 - t) as u32)
    }

    /// The board-edge accelerator whose `dir`-side cable the `dir` exit of
    /// `co`'s line uses, and that cable's port.
    fn edge_cable(&self, co: HxCoord, dir: Dir) -> (NodeId, PortId) {
        let node = match dir {
            Dir::West => self.acc(co.bi, co.bj, co.r, 0),
            Dir::East => self.acc(co.bi, co.bj, co.r, self.b - 1),
            Dir::North => self.acc(co.bi, co.bj, 0, co.c),
            Dir::South => self.acc(co.bi, co.bj, self.a - 1, co.c),
        };
        (node, self.ports[node.idx()][dir as usize])
    }

    /// Whether the global cable used by the `dir` exit of `co`'s line is
    /// healthy (fault injection, [`Topology::fail_link`]).
    fn exit_ok(&self, topo: &Topology, co: HxCoord, dir: Dir) -> bool {
        let (node, port) = self.edge_cable(co, dir);
        !topo.link_failed(node, port)
    }

    /// Minimal remaining distance along one board line with optional
    /// wrap-around through the global line network (2 cable hops + edge
    /// walk).
    fn line_dist(p: u16, t: u16, len: u16, wrap_ok: bool) -> u32 {
        let direct = (p as i32 - t as i32).unsigned_abs();
        if !wrap_ok || len == 1 {
            return direct;
        }
        let e = Self::edge_walk(t, len);
        direct
            .min(p as u32 + 2 + e)
            .min((len - 1 - p) as u32 + 2 + e)
    }

    /// Emit the minimal first hops along one line: `neg`/`pos` are the port
    /// slots for decreasing/increasing coordinate; edge ports double as
    /// tree ports (VC bump). `wrap_ok` allows the wrap-around through the
    /// global line network (caller combines the VC bound with line health).
    #[allow(clippy::too_many_arguments)]
    fn line_candidates(
        &self,
        node: NodeId,
        p: u16,
        t: u16,
        len: u16,
        neg: Dir,
        pos: Dir,
        vc: u8,
        wrap_ok: bool,
        out: &mut Vec<Hop>,
    ) {
        let d = Self::line_dist(p, t, len, wrap_ok);
        debug_assert!(d > 0);
        let e = Self::edge_walk(t, len);
        // Negative direction.
        let cost_neg = if p > 0 {
            1 + Self::line_dist(p - 1, t, len, wrap_ok)
        } else if wrap_ok {
            2 + e // tree port at the edge
        } else {
            u32::MAX
        };
        if cost_neg == d {
            let port = self.ports[node.idx()][neg as usize];
            let nvc = if p == 0 { vc + 1 } else { vc };
            out.push(Hop { port, vc: nvc });
        }
        // Positive direction.
        let cost_pos = if p < len - 1 {
            1 + Self::line_dist(p + 1, t, len, wrap_ok)
        } else if wrap_ok {
            2 + e
        } else {
            u32::MAX
        };
        if cost_pos == d {
            let port = self.ports[node.idx()][pos as usize];
            let nvc = if p == len - 1 { vc + 1 } else { vc };
            out.push(Hop { port, vc: nvc });
        }
    }

    /// Candidates for leaving the board through the row (E/W) network of
    /// the current accelerator row: adaptive toward the nearer edge,
    /// skipping edges whose global cable has failed (unless both have, in
    /// which case health is ignored — the line is unreachable either way).
    fn exit_row_candidates(
        &self,
        topo: &Topology,
        node: NodeId,
        co: HxCoord,
        vc: u8,
        out: &mut Vec<Hop>,
    ) {
        let mut ok_w = self.exit_ok(topo, co, Dir::West);
        let mut ok_e = self.exit_ok(topo, co, Dir::East);
        if !ok_w && !ok_e {
            (ok_w, ok_e) = (true, true);
        }
        if self.b == 1 {
            // Both E and W are ports into the same row network.
            for (dir, ok) in [(Dir::West, ok_w), (Dir::East, ok_e)] {
                if ok {
                    let port = self.ports[node.idx()][dir as usize];
                    out.push(Hop {
                        port,
                        vc: (vc + 1).min(LAST_VC),
                    });
                }
            }
            return;
        }
        let cost_w = if ok_w { co.c as u32 } else { u32::MAX };
        let cost_e = if ok_e {
            (self.b - 1 - co.c) as u32
        } else {
            u32::MAX
        };
        let best = cost_w.min(cost_e);
        if cost_w == best {
            let port = self.ports[node.idx()][Dir::West as usize];
            let nvc = if co.c == 0 { (vc + 1).min(LAST_VC) } else { vc };
            out.push(Hop { port, vc: nvc });
        }
        if cost_e == best {
            let port = self.ports[node.idx()][Dir::East as usize];
            let nvc = if co.c == self.b - 1 {
                (vc + 1).min(LAST_VC)
            } else {
                vc
            };
            out.push(Hop { port, vc: nvc });
        }
    }

    /// Candidates for leaving the board through the column (N/S) network of
    /// the current accelerator column. `allow_north` enforces the
    /// north-last turn restriction (§IV-C3). Edges with failed global
    /// cables are skipped like in [`HxMeshRouter::exit_row_candidates`].
    fn exit_col_candidates(
        &self,
        topo: &Topology,
        node: NodeId,
        co: HxCoord,
        vc: u8,
        allow_north: bool,
        out: &mut Vec<Hop>,
    ) {
        let mut ok_n = self.exit_ok(topo, co, Dir::North);
        let mut ok_s = self.exit_ok(topo, co, Dir::South);
        if !ok_n && !ok_s {
            (ok_n, ok_s) = (true, true);
        }
        if self.a == 1 {
            // Both N and S are ports into the same column network.
            for (dir, ok) in [(Dir::North, ok_n), (Dir::South, ok_s)] {
                if ok {
                    let port = self.ports[node.idx()][dir as usize];
                    out.push(Hop {
                        port,
                        vc: (vc + 1).min(LAST_VC),
                    });
                }
            }
            return;
        }
        let cost_n = if ok_n { co.r as u32 } else { u32::MAX };
        let cost_s = if ok_s {
            (self.a - 1 - co.r) as u32
        } else {
            u32::MAX
        };
        let best = if allow_north {
            cost_n.min(cost_s)
        } else {
            cost_s
        };
        if allow_north && cost_n == best {
            let port = self.ports[node.idx()][Dir::North as usize];
            let nvc = if co.r == 0 { (vc + 1).min(LAST_VC) } else { vc };
            out.push(Hop { port, vc: nvc });
        }
        if cost_s == best && best != u32::MAX {
            let port = self.ports[node.idx()][Dir::South as usize];
            let nvc = if co.r == self.a - 1 {
                (vc + 1).min(LAST_VC)
            } else {
                vc
            };
            out.push(Hop { port, vc: nvc });
        }
    }

    /// Entry accelerators through which the line network `net` delivers a
    /// packet heading for `t`: the target board's edge nodes on this line,
    /// as a two-slot array and the number of slots used. Entries whose
    /// global cable failed are skipped, unless that would leave none.
    fn entries(&self, topo: &Topology, net: NetRef, t: HxCoord) -> ([NodeId; 2], usize) {
        let edges = match net {
            NetRef::RowLine { bi, r } => [
                (self.acc(bi, t.bj, r, 0), Dir::West),
                (self.acc(bi, t.bj, r, self.b - 1), Dir::East),
            ],
            NetRef::ColLine { bj, c } => [
                (self.acc(t.bi, bj, 0, c), Dir::North),
                (self.acc(t.bi, bj, self.a - 1, c), Dir::South),
            ],
        };
        let mut out = [edges[0].0; 2];
        let mut n = 0;
        for (node, dir) in edges {
            if !topo.link_failed(node, self.ports[node.idx()][dir as usize])
                && !out[..n].contains(&node)
            {
                out[n] = node;
                n += 1;
            }
        }
        (out, n.max(1))
    }
    /// The structured §IV-C candidate set (board lines, exits, trees),
    /// locally failure-aware for single-cable cases; `candidates` runs
    /// it through the [`FailoverTable`] whenever any link is failed.
    fn structured_candidates(
        &self,
        topo: &Topology,
        node: NodeId,
        vc: u8,
        target: NodeId,
        out: &mut Vec<Hop>,
    ) {
        if let Some(&net) = self.switch_net.get(&node) {
            // Global-network switch: up*/down* toward the entry accelerators,
            // skipping failed links as long as a healthy candidate remains.
            let t = self.coords[target.idx()];
            let (entries, n) = self.entries(topo, net, t);
            let entries = &entries[..n];
            let mut produced = false;
            for e in entries {
                let ports = self.table.down_ports(node, *e);
                for &port in ports {
                    if !topo.link_failed(node, port) && !out.iter().any(|h| h.port == port) {
                        out.push(Hop { port, vc });
                        produced = true;
                    }
                }
            }
            if !produced {
                // Not reachable going down from here: go up.
                for &port in self.table.up_ports(node) {
                    if !topo.link_failed(node, port) {
                        out.push(Hop { port, vc });
                    }
                }
            }
            if out.is_empty() {
                // Every healthy option is gone (isolating failure): fall
                // back to the failure-blind candidate set so the contract
                // of a non-empty set when node != target holds.
                for e in entries {
                    for &port in self.table.down_ports(node, *e) {
                        if !out.iter().any(|h| h.port == port) {
                            out.push(Hop { port, vc });
                        }
                    }
                }
                if out.is_empty() {
                    out.extend(
                        self.table
                            .up_ports(node)
                            .iter()
                            .map(|&port| Hop { port, vc }),
                    );
                }
            }
            debug_assert!(!out.is_empty(), "tree switch with no candidates");
            return;
        }

        debug_assert!(topo.kind(node).is_accelerator());
        let co = self.coords[node.idx()];
        let t = self.coords[target.idx()];

        if co.bi == t.bi && co.bj == t.bj {
            // Same board: X then Y (north-last), wraps below LAST_VC and
            // only while both of the line's edge cables are healthy.
            if co.c != t.c {
                let wrap = vc < LAST_VC
                    && self.exit_ok(topo, co, Dir::West)
                    && self.exit_ok(topo, co, Dir::East);
                self.line_candidates(node, co.c, t.c, self.b, Dir::West, Dir::East, vc, wrap, out);
            } else {
                debug_assert_ne!(co.r, t.r);
                let wrap = vc < LAST_VC
                    && self.exit_ok(topo, co, Dir::North)
                    && self.exit_ok(topo, co, Dir::South);
                self.line_candidates(
                    node,
                    co.r,
                    t.r,
                    self.a,
                    Dir::North,
                    Dir::South,
                    vc,
                    wrap,
                    out,
                );
            }
        } else if co.bi == t.bi {
            // Same board row: leave through this accelerator row's network;
            // the row fix-up (to t.r) can also start early going south.
            self.exit_row_candidates(topo, node, co, vc, out);
            if t.r > co.r {
                let port = self.ports[node.idx()][Dir::South as usize];
                out.push(Hop { port, vc });
            }
        } else if co.bj == t.bj {
            // Same board column: leave through this accelerator column's
            // network; the column fix-up (to t.c) may happen first — and
            // must, before any northward move (north-last).
            let need_ew = co.c != t.c;
            if need_ew {
                let dir = if t.c > co.c { Dir::East } else { Dir::West };
                let port = self.ports[node.idx()][dir as usize];
                out.push(Hop { port, vc });
            }
            self.exit_col_candidates(topo, node, co, vc, !need_ew, out);
        } else {
            // Different row and column: row dimension first (the
            // column-first alternative is expressed via a waypoint).
            self.exit_row_candidates(topo, node, co, vc, out);
        }
    }
}

impl Router for HxMeshRouter {
    fn num_vcs(&self) -> u8 {
        3
    }

    fn candidates(
        &self,
        topo: &Topology,
        node: NodeId,
        vc: u8,
        target: NodeId,
        out: &mut Vec<Hop>,
    ) {
        if vc >= self.num_vcs() {
            // Escape VC: sticky failure-epoch routing (see FailoverTable).
            self.failover.escape_candidates(topo, node, vc, target, out);
            return;
        }
        if node == target {
            return;
        }
        self.structured_candidates(topo, node, vc, target, out);
        if topo.has_failures() {
            self.failover
                .filter(topo, node, self.num_vcs(), target, out);
        }
    }

    fn select_waypoint(
        &self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        probe: &dyn LoadProbe,
        rng: &mut dyn rand::RngCore,
    ) -> Option<NodeId> {
        let s = self.coords[src.idx()];
        let d = self.coords[dst.idx()];
        if s.bi == d.bi || s.bj == d.bj {
            return None;
        }
        // Under fault injection, only offer the column-first class when
        // the failure set leaves both phases of it routable.
        if topo.has_failures() {
            let w = self.acc(d.bi, s.bj, d.r, d.c);
            if !(self.failover.reachable(topo, src, w) && self.failover.reachable(topo, w, dst)) {
                return None;
            }
        }
        // Choose row-first (no waypoint) or column-first (waypoint on the
        // board (d.bi, s.bj)) by comparing local queue occupancy of the two
        // exits, with a random tie-break — a UGAL-style local decision.
        let node = src;
        let row_q: u64 = [Dir::East, Dir::West]
            .iter()
            .map(|&dir| probe.queued_bytes(node, self.ports[node.idx()][dir as usize]))
            .min()
            .unwrap_or(0);
        let col_q: u64 = [Dir::North, Dir::South]
            .iter()
            .map(|&dir| probe.queued_bytes(node, self.ports[node.idx()][dir as usize]))
            .min()
            .unwrap_or(0);
        let column_first = match row_q.cmp(&col_q) {
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Equal => (rng.next_u32() & 1) == 1,
        };
        if column_first {
            Some(self.acc(d.bi, s.bj, d.r, d.c))
        } else {
            None
        }
    }

    fn waypoint_options(&self, topo: &Topology, src: NodeId, dst: NodeId, out: &mut Vec<NodeId>) {
        // Diagonal traffic has exactly two path classes: row-first (the
        // direct candidates) and column-first, expressed as a waypoint on
        // the board (d.bi, s.bj) — mirrors select_waypoint's option set,
        // including its fault-injection reachability guard (so the flow
        // engine never builds a subflow through a cut-off board).
        let s = self.coords[src.idx()];
        let d = self.coords[dst.idx()];
        if s.bi != d.bi && s.bj != d.bj {
            let w = self.acc(d.bi, s.bj, d.r, d.c);
            if !topo.has_failures()
                || (self.failover.reachable(topo, src, w) && self.failover.reachable(topo, w, dst))
            {
                out.push(w);
            }
        }
    }

    fn waypoint_reached(&self, _topo: &Topology, node: NodeId, waypoint: NodeId) -> bool {
        if node == waypoint {
            return true;
        }
        // Any accelerator on the waypoint's board completes the phase.
        if node.idx() >= self.coords.len() {
            return false; // switch
        }
        let a = self.coords[node.idx()];
        let w = self.coords[waypoint.idx()];
        a.bi == w.bi && a.bj == w.bj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn walk(net: &Network, src: usize, dst: usize, max_hops: u32) -> u32 {
        let (s, d) = (net.endpoints[src], net.endpoints[dst]);
        let mut node = s;
        let mut vc = 0u8;
        let mut hops = 0;
        while node != d {
            let mut cand = Vec::new();
            net.router.candidates(&net.topo, node, vc, d, &mut cand);
            assert!(!cand.is_empty(), "stuck at {node:?} (vc {vc}) toward {d:?}");
            let hop = cand[0];
            node = net.topo.peer(node, hop.port).node;
            vc = hop.vc;
            hops += 1;
            assert!(hops <= max_hops, "path too long {s:?}->{d:?} ({hops} hops)");
        }
        hops
    }

    #[test]
    fn counts_match_appendix_c_hx2() {
        // 16x16 Hx2Mesh: one switch per line x (16 rows * 2 + 16 cols * 2)
        // would be 64, but the paper packs a board row's two lines into one
        // 64-port switch — our graph keeps one switch per line (32 ports
        // used); cable counts are identical: 1,024 DAC + 1,024 AoC/plane.
        let net = HxMeshParams::small_hx2().build();
        assert_eq!(net.endpoints.len(), 1024);
        assert_eq!(net.topo.count_switches(), 64);
        assert_eq!(net.topo.count_cables(Cable::Dac), 1024);
        assert_eq!(net.topo.count_cables(Cable::Aoc), 1024);
        net.topo.validate().unwrap();
    }

    #[test]
    fn counts_match_appendix_c_hx4() {
        // 8x8 Hx4Mesh: 512 DAC + 512 AoC per plane (App. C); the paper
        // packs 4 lines per 64-port switch (16 switches/plane), our graph
        // keeps one 16-port switch per line (64 logical switches).
        let net = HxMeshParams::small_hx4().build();
        assert_eq!(net.endpoints.len(), 1024);
        assert_eq!(net.topo.count_switches(), 64);
        assert_eq!(net.topo.count_cables(Cable::Dac), 512);
        assert_eq!(net.topo.count_cables(Cable::Aoc), 512);
    }

    #[test]
    fn every_accelerator_has_four_ports() {
        let net = HxMeshParams::square(2, 4).build();
        for &e in &net.endpoints {
            assert_eq!(net.topo.num_ports(e), 4, "{e:?}");
        }
    }

    #[test]
    fn rank_coord_roundtrip() {
        let p = HxMeshParams {
            a: 2,
            b: 3,
            x: 4,
            y: 5,
            taper: 0.0,
            radix: 64,
        };
        for rank in 0..p.num_accelerators() {
            assert_eq!(p.rank_of(p.coord_of(rank)), rank);
        }
    }

    #[test]
    fn routing_reaches_all_cases() {
        let p = HxMeshParams::square(2, 4); // 64 accels
        let net = p.build();
        walk(&net, 0, 1, 6); // same board
        walk(&net, 0, 7, 8); // same board row
        walk(
            &net,
            0,
            p.rank_of(HxCoord {
                bi: 3,
                bj: 0,
                r: 1,
                c: 0,
            }),
            8,
        ); // same column
        walk(
            &net,
            0,
            p.rank_of(HxCoord {
                bi: 3,
                bj: 3,
                r: 1,
                c: 1,
            }),
            12,
        ); // diagonal
    }

    #[test]
    fn exhaustive_pairs_on_tiny_mesh() {
        let p = HxMeshParams::square(2, 2);
        let net = p.build();
        let n = net.endpoints.len();
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    walk(&net, s, d, 12);
                }
            }
        }
    }

    #[test]
    fn exhaustive_pairs_on_hx3mesh() {
        // Odd board size exercises interior nodes.
        let p = HxMeshParams::square(3, 2);
        let net = p.build();
        let n = net.endpoints.len();
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    walk(&net, s, d, 16);
                }
            }
        }
    }

    #[test]
    fn hx1mesh_is_hyperx() {
        let p = HxMeshParams::square(1, 8);
        let net = p.build();
        assert_eq!(net.endpoints.len(), 64);
        for s in [0usize, 5, 63] {
            for d in [0usize, 7, 56, 62] {
                if s != d {
                    walk(&net, s, d, 8);
                }
            }
        }
    }

    #[test]
    fn large_lines_use_fat_trees() {
        // Lines of 2*40 = 80 ports > 64 -> 2-level trees on rows.
        let p = HxMeshParams {
            a: 2,
            b: 2,
            x: 40,
            y: 2,
            taper: 0.0,
            radix: 64,
        };
        let net = p.build();
        assert!(net.topo.count_switches() > 4 * 2 + 80);
        walk(&net, 0, net.endpoints.len() - 1, 16);
    }

    #[test]
    fn diameter_within_paper_formula() {
        // §III-B: 2(⌊(a-1)/2⌋+⌊(b-1)/2⌋) + 2 + 2 cables for single-switch
        // lines. Verify by BFS on an 8x8 Hx4Mesh (diam 8 in Table II).
        let net = HxMeshParams::small_hx4().build();
        let d = net.topo.bfs_hops(net.endpoints[0]);
        let max = net.endpoints.iter().map(|e| d[e.idx()]).max().unwrap();
        assert!(max <= 8, "Hx4Mesh endpoint diameter {max} > 8");
    }

    #[test]
    fn waypoint_only_for_diagonal_traffic() {
        let p = HxMeshParams::square(2, 4);
        let net = p.build();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let probe = crate::route::ZeroLoad;
        for _ in 0..8 {
            assert!(net
                .router
                .select_waypoint(
                    &net.topo,
                    net.endpoints[0],
                    net.endpoints[1],
                    &probe,
                    &mut rng
                )
                .is_none());
        }
        let d = p.rank_of(HxCoord {
            bi: 2,
            bj: 2,
            r: 0,
            c: 0,
        });
        let mut some = 0;
        for _ in 0..32 {
            if net
                .router
                .select_waypoint(
                    &net.topo,
                    net.endpoints[0],
                    net.endpoints[d],
                    &probe,
                    &mut rng,
                )
                .is_some()
            {
                some += 1;
            }
        }
        assert!(some > 0 && some < 32, "tie-break should mix: {some}/32");
    }

    #[test]
    fn random_walks_respect_vc_bound_and_terminate() {
        let p = HxMeshParams::square(4, 4);
        let net = p.build();
        let n = net.endpoints.len();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        use rand::Rng;
        for _ in 0..300 {
            let s = rng.random_range(0..n);
            let d = rng.random_range(0..n);
            if s == d {
                continue;
            }
            let (sn, dn) = (net.endpoints[s], net.endpoints[d]);
            let mut node = sn;
            let mut vc = 0u8;
            let mut hops = 0;
            while node != dn {
                let mut cand = Vec::new();
                net.router.candidates(&net.topo, node, vc, dn, &mut cand);
                assert!(!cand.is_empty(), "stuck {s}->{d} at {node:?}");
                let pick = cand[rng.random_range(0..cand.len())];
                assert!(pick.vc <= LAST_VC, "vc overflow at {node:?}");
                node = net.topo.peer(node, pick.port).node;
                vc = pick.vc;
                hops += 1;
                assert!(hops < 64, "{s}->{d} livelock");
            }
        }
    }
}
