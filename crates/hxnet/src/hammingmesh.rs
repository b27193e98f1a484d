//! HammingMesh (HxMesh) topology and routing — the paper's contribution.
//!
//! A 2D HammingMesh connects `x*y` boards of `a*b` accelerators each
//! (Fig. 3). Accelerators on a board form a 2D mesh of free PCB traces;
//! board edges connect into global networks: one per **accelerator line**
//! (the E/W ports of accelerator row `r` across all boards of board row
//! `bi`, and the N/S ports of accelerator column `c` across board column
//! `bj`) — "each plane fully-connected in x / y". A line's `2x` (or `2y`)
//! ports are connected by a single 64-port switch when they fit, otherwise
//! by a two-level fat tree (App. C), optionally tapered (§III-F): the shape
//! of [`FatTreeParams::scaled_tapered`], wired by the fat tree's one
//! two-level wiring. The up*/down* table over all lines reads each port's
//! direction from the switch levels (a port points up iff its peer is a
//! spine).
//!
//! Each accelerator forwards packets within a plane through its four ports
//! (E, W, N, S) like a small 4x4 switch; we build and simulate a single
//! plane, as the paper does (§III-D).
//!
//! Routing follows §IV-C: adaptive minimal within boards using the
//! north-last turn model, up*/down* inside the global trees, and at most
//! one intermediate board when source and destination differ in both board
//! coordinates. Rows and columns are routed alike: each rule (the walk
//! along a board line, the exit into a line network, the tree entries) is
//! stated once and takes the axis as a parameter. North-last is the one
//! asymmetry in the rules: X is fixed before Y on a board, and a column
//! exit taken before an east/west fix-up never goes north. Diagonal
//! traffic goes row-first directly and column-first through a waypoint.
//! Deadlock freedom uses the paper's scheme (§IV-C3): the VC is
//! incremented every time a packet jumps from a board into a global
//! network, which bounds the scheme at three VCs because any path crosses
//! at most two trees (wrap-around shortcuts are suppressed once the last
//! VC is reached).

use crate::fattree::FatTreeParams;
use crate::graph::{Cable, Network, NodeId, PortId, Topology};
use crate::pcb_link;
use crate::route::{Hop, LoadProbe, Router, UpDownTable};

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
    /// Fraction of global-tree up links removed (§III-F), in `[0, 1)`.
    /// 0.0 = full bandwidth. Ignored when a line fits in a single switch.
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
        // Accelerators are the first nodes, in (bi, bj, r, c) order, so the
        // router finds them by arithmetic (`HxMeshRouter::acc`).
        let acc = |bi: usize, bj: usize, r: usize, c: usize| {
            NodeId((((bi * self.x + bj) * self.a + r) * self.b + c) as u32)
        };
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
                        debug_assert_eq!(node, acc(bi, bj, r, c));
                        endpoints[rank] = node;
                        coords[node.idx()] = co;
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
                        let west = acc(bi, bj, r, c);
                        let east = acc(bi, bj, r, c + 1);
                        let (pw, pe) = topo.connect(west, east, pcb_link());
                        ports[west.idx()][Dir::East as usize] = pw;
                        ports[east.idx()][Dir::West as usize] = pe;
                    }
                }
                for c in 0..self.b {
                    for r in 0..self.a.saturating_sub(1) {
                        let north = acc(bi, bj, r, c);
                        let south = acc(bi, bj, r + 1, c);
                        let (pn, ps) = topo.connect(north, south, pcb_link());
                        ports[north.idx()][Dir::South as usize] = pn;
                        ports[south.idx()][Dir::North as usize] = ps;
                    }
                }
            }
        }

        // Global line networks: one crossbar when a line fits the radix,
        // else a two-level tapered fat tree. Row lines use DAC endpoint
        // cables, column lines AoC (§III-D layout); inter-switch links are
        // always AoC. Even attachments are a board's W (N) edge, odd ones
        // its E (S) edge.
        let shape = |q: usize| {
            if q <= self.radix {
                FatTreeParams::crossbar(q)
            } else {
                FatTreeParams::scaled_tapered(q, self.radix, self.taper)
            }
        };
        let (row_shape, col_shape) = (shape(self.row_line_ports()), shape(self.col_line_ports()));
        let mut levels = vec![Vec::new(); 2];
        // Switches are numbered after every accelerator, one line at a
        // time, so each line extends this to the topology's new size.
        let mut switch_net: Vec<Option<NetRef>> = vec![None; topo.num_nodes()];
        let mut group = 0u32;
        let mut wire_line = |attach: &[NodeId], net: NetRef| {
            let (shape, cable, dirs) = match net {
                NetRef::RowLine { .. } => (&row_shape, Cable::Dac, Axis::Row.dirs()),
                NetRef::ColLine { .. } => (&col_shape, Cable::Aoc, Axis::Col.dirs()),
            };
            group += 1;
            shape.wire_two_level(&mut topo, group, attach, cable, &mut levels, |k, port| {
                ports[attach[k].idx()][dirs[k % 2] as usize] = port;
            });
            switch_net.resize(topo.num_nodes(), Some(net));
        };

        let mut attach = Vec::with_capacity(self.row_line_ports().max(self.col_line_ports()));
        for bi in 0..self.y {
            for r in 0..self.a {
                attach.clear();
                for bj in 0..self.x {
                    attach.push(acc(bi, bj, r, 0));
                    attach.push(acc(bi, bj, r, self.b - 1));
                }
                let (bi, r) = (bi as u16, r as u16);
                wire_line(&attach, NetRef::RowLine { bi, r });
            }
        }
        for bj in 0..self.x {
            for c in 0..self.b {
                attach.clear();
                for bi in 0..self.y {
                    attach.push(acc(bi, bj, 0, c));
                    attach.push(acc(bi, bj, self.a - 1, c));
                }
                let (bj, c) = (bj as u16, c as u16);
                wire_line(&attach, NetRef::ColLine { bj, c });
            }
        }
        let table = UpDownTable::build(&topo, &levels);

        let router = HxMeshRouter {
            a: self.a as u16,
            b: self.b as u16,
            x: self.x as u16,
            coords,
            ports,
            table,
            switch_net,
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

/// The dimension of a board line: a row runs W to E over the board's `b`
/// columns, a column N to S over its `a` rows. Routing states each rule
/// once and takes the axis as a parameter.
#[derive(Clone, Copy)]
enum Axis {
    Row,
    Col,
}

impl Axis {
    /// The line's two edge ports: toward its first, then its last
    /// position.
    fn dirs(self) -> [Dir; 2] {
        match self {
            Axis::Row => [Dir::West, Dir::East],
            Axis::Col => [Dir::North, Dir::South],
        }
    }
}

/// The exit rule's axes as const generic arguments, so each axis gets its
/// own copy of the rule with the axis folded in.
const ROW: bool = false;
const COL: bool = true;

/// Adaptive minimal HxMesh routing (§IV-C) with the 3-VC deadlock scheme.
pub struct HxMeshRouter {
    a: u16,
    b: u16,
    x: u16,
    /// Coordinates per accelerator node index.
    coords: Vec<HxCoord>,
    /// E,W,N,S port ids per accelerator node index.
    ports: Vec<[PortId; 4]>,
    table: UpDownTable,
    /// The line network of each global switch, by node index (`None` for
    /// accelerators).
    switch_net: Vec<Option<NetRef>>,
}

/// Highest VC of the 3-VC scheme; wrap shortcuts are disabled here.
const LAST_VC: u8 = 2;

impl HxMeshRouter {
    /// The accelerator at board `(bi, bj)`, row `r`, column `c`: the
    /// builder numbers accelerators first, in that order.
    #[inline]
    fn acc(&self, bi: u16, bj: u16, r: u16, c: u16) -> NodeId {
        let (a, b, x) = (self.a as u32, self.b as u32, self.x as u32);
        NodeId(((bi as u32 * x + bj as u32) * a + r as u32) * b + c as u32)
    }

    /// `co`'s position on its `axis` line and the line's length.
    fn on_line(&self, axis: Axis, co: HxCoord) -> (u16, u16) {
        match axis {
            Axis::Row => (co.c, self.b),
            Axis::Col => (co.r, self.a),
        }
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

    /// Emit the minimal first hops from `co` along its `axis` line toward
    /// `t`'s position on it; edge ports double as tree ports (VC bump).
    /// The line may wrap around through its global network below
    /// `LAST_VC` while both of its edge cables are healthy.
    fn line_candidates(
        &self,
        topo: &Topology,
        node: NodeId,
        co: HxCoord,
        t: HxCoord,
        axis: Axis,
        vc: u8,
        out: &mut Vec<Hop>,
    ) {
        let [neg, pos] = axis.dirs();
        let (p, len) = self.on_line(axis, co);
        let (t, _) = self.on_line(axis, t);
        let wrap_ok = vc < LAST_VC && self.exit_ok(topo, co, neg) && self.exit_ok(topo, co, pos);
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

    /// Candidates for leaving the board through the global network of the
    /// current accelerator row (`COLUMN` false) or column: adaptive toward
    /// the nearer edge, skipping edges whose global cable has failed
    /// (unless both have, in which case health is ignored — the line is
    /// unreachable either way); the hop out of the edge bumps the VC. A
    /// line one accelerator long offers both of its ports. `north_ok` is
    /// false only for a column exit taken before an east/west fix-up,
    /// which the north-last turn model (§IV-C3) keeps from going north.
    fn exit_candidates<const COLUMN: bool>(
        &self,
        topo: &Topology,
        node: NodeId,
        co: HxCoord,
        vc: u8,
        north_ok: bool,
        out: &mut Vec<Hop>,
    ) {
        let axis = if COLUMN { Axis::Col } else { Axis::Row };
        let dirs = axis.dirs();
        let healthy = |dir| self.exit_ok(topo, co, dir);
        let mut ok = [healthy(dirs[0]), healthy(dirs[1])];
        if ok == [false, false] {
            ok = [true, true];
        }
        let (p, len) = self.on_line(axis, co);
        let bump = (vc + 1).min(LAST_VC);
        if len == 1 {
            // Both edge ports lead into the same line network.
            for (dir, ok) in dirs.into_iter().zip(ok) {
                if ok {
                    let port = self.ports[node.idx()][dir as usize];
                    out.push(Hop { port, vc: bump });
                }
            }
            return;
        }
        // Walk to the nearer usable edge; at the edge the hop enters the
        // line network. `u16::MAX` exceeds any walk on a `u16` line.
        let first = if ok[0] && north_ok { p } else { u16::MAX };
        let last = if ok[1] { len - 1 - p } else { u16::MAX };
        let best = first.min(last);
        for (dir, cost) in dirs.into_iter().zip([first, last]) {
            if cost == best && best != u16::MAX {
                let port = self.ports[node.idx()][dir as usize];
                let nvc = if cost == 0 { bump } else { vc };
                out.push(Hop { port, vc: nvc });
            }
        }
    }

    /// Entry accelerators through which the line network `net` delivers a
    /// packet heading for `t`: the target board's edge nodes on this line,
    /// as a two-slot array and the number of slots used. Entries whose
    /// global cable failed are skipped, unless that would leave none.
    fn entries(&self, topo: &Topology, net: NetRef, t: HxCoord) -> ([NodeId; 2], usize) {
        let edges = match net {
            NetRef::RowLine { bi, r } => {
                let edge = |dir| self.edge_cable(HxCoord { bi, r, ..t }, dir);
                [edge(Dir::West), edge(Dir::East)]
            }
            NetRef::ColLine { bj, c } => {
                let edge = |dir| self.edge_cable(HxCoord { bj, c, ..t }, dir);
                [edge(Dir::North), edge(Dir::South)]
            }
        };
        let mut out = [edges[0].0; 2];
        let mut n = 0;
        for (node, port) in edges {
            if !topo.link_failed(node, port) && !out[..n].contains(&node) {
                out[n] = node;
                n += 1;
            }
        }
        (out, n.max(1))
    }

    /// The column-first path class of a diagonal pair: a waypoint on the
    /// board `(d.bi, s.bj)`. `None` when the pair shares a board row or
    /// column, or when the failure set cuts either phase (so neither
    /// engine steers traffic through a cut-off board).
    fn column_first(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<NodeId> {
        let s = self.coords[src.idx()];
        let d = self.coords[dst.idx()];
        if s.bi == d.bi || s.bj == d.bj {
            return None;
        }
        let w = self.acc(d.bi, s.bj, d.r, d.c);
        let cut = topo.has_failures() && !(topo.reachable(src, w) && topo.reachable(w, dst));
        (!cut).then_some(w)
    }
}

impl Router for HxMeshRouter {
    fn num_vcs(&self) -> u8 {
        3
    }

    /// The §IV-C set (board lines, exits, trees), locally failure-aware
    /// for the single-cable cases; [`Router::next_hops`] covers any other
    /// failure set (e.g. both exits of a board line cut at once).
    fn candidates(
        &self,
        topo: &Topology,
        node: NodeId,
        vc: u8,
        target: NodeId,
        out: &mut Vec<Hop>,
    ) {
        if node == target {
            return;
        }
        if let Some(net) = self.switch_net[node.idx()] {
            // Global-network switch: up*/down* toward the entry accelerators,
            // skipping failed links. Empty when every down and up port
            // failed; `Router::next_hops` then detours.
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
            return;
        }

        debug_assert!(topo.kind(node).is_accelerator());
        let co = self.coords[node.idx()];
        let t = self.coords[target.idx()];

        if co.bi == t.bi && co.bj == t.bj {
            // Same board: X then Y (north-last).
            let axis = if co.c != t.c { Axis::Row } else { Axis::Col };
            self.line_candidates(topo, node, co, t, axis, vc, out);
        } else if co.bi == t.bi {
            // Same board row: leave through this accelerator row's network;
            // the row fix-up (to t.r) can also start early going south.
            self.exit_candidates::<ROW>(topo, node, co, vc, true, out);
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
            self.exit_candidates::<COL>(topo, node, co, vc, !need_ew, out);
        } else {
            // Different row and column: row dimension first (the
            // column-first alternative is expressed via a waypoint).
            self.exit_candidates::<ROW>(topo, node, co, vc, true, out);
        }
    }

    /// Row-first (no waypoint) or column-first (a waypoint on the board
    /// `(d.bi, s.bj)`) by the local queue occupancy of the two exits, with
    /// a random tie-break — a UGAL-style local decision.
    fn select_waypoint(
        &self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        probe: &dyn LoadProbe,
        rng: &mut dyn rand::RngCore,
    ) -> Option<NodeId> {
        let w = self.column_first(topo, src, dst)?;
        let queue = |axis: Axis| {
            let [q0, q1] = axis
                .dirs()
                .map(|dir| probe.queued_bytes(src, self.ports[src.idx()][dir as usize]));
            q0.min(q1)
        };
        let column_first = match queue(Axis::Row).cmp(&queue(Axis::Col)) {
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Equal => (rng.next_u32() & 1) == 1,
        };
        column_first.then_some(w)
    }

    /// Diagonal traffic has exactly two path classes: row-first (the
    /// direct candidates) and column-first.
    fn waypoint_options(&self, topo: &Topology, src: NodeId, dst: NodeId, out: &mut Vec<NodeId>) {
        out.extend(self.column_first(topo, src, dst));
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
    use crate::walk;
    use rand::SeedableRng;

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
    fn tapered_two_level_lines_pin_counts_and_routes() {
        // Radix 8: the 12-port rows and 10-port columns are all two-level
        // trees of 3 leaves with 4 up links each; tapering halves, then
        // quarters those up links, and with them spines and AoC cables.
        for (taper, switches, aoc) in [(0.0, 140, 516), (0.5, 112, 348), (0.75, 112, 264)] {
            let net = HxMeshParams {
                a: 2,
                b: 3,
                x: 6,
                y: 5,
                taper,
                radix: 8,
            }
            .build();
            assert_eq!(net.topo.count_switches(), switches, "taper {taper}");
            assert_eq!(net.topo.count_cables(Cable::Dac), 120, "taper {taper}");
            assert_eq!(net.topo.count_cables(Cable::Aoc), aoc, "taper {taper}");
            // Two trees of up to 4 cables each plus the on-board hops.
            let n = net.endpoints.len();
            for s in 0..n {
                for d in 0..n {
                    if s != d {
                        walk(&net, s, d, 12);
                    }
                }
            }
        }
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
