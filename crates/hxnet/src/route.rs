//! Routing abstractions shared by all topologies.
//!
//! The simulator is routing-agnostic: at every hop it asks the topology's
//! [`Router`] for the set of minimal `(output port, next VC)` candidates and
//! picks the least-loaded one (packet-level adaptive routing, as in
//! Slingshot/InfiniBand — §IV-C). Source-side decisions that need global
//! state (Valiant bounce groups for Dragonfly, the intermediate board for
//! HammingMesh) are expressed as a *waypoint* stored in the packet header.

use crate::graph::{NodeId, PortId, Topology};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Mutex;

/// Congestion oracle the simulator exposes to routers for source-side
/// decisions (e.g. UGAL's local-queue comparison).
pub trait LoadProbe {
    /// Bytes currently queued at `node` for output `port` (all VCs).
    fn queued_bytes(&self, node: NodeId, port: PortId) -> u64;
}

/// A no-congestion probe: every queue reports empty. Used by tests and by
/// analytic consumers that only need path enumeration.
pub struct ZeroLoad;

impl LoadProbe for ZeroLoad {
    fn queued_bytes(&self, _node: NodeId, _port: PortId) -> u64 {
        0
    }
}

/// A candidate next hop: take `port`, continue on virtual channel `vc`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hop {
    pub port: PortId,
    pub vc: u8,
}

/// Topology-specific deadlock-free adaptive routing.
pub trait Router: Send + Sync {
    /// Number of virtual channels this routing scheme requires.
    fn num_vcs(&self) -> u8;

    /// Append all minimal next-hop candidates for a packet currently at
    /// `node` on VC `vc`, heading for `target`, into `out`.
    ///
    /// `target` is the packet's waypoint while one is active, the final
    /// destination afterwards. Implementations must guarantee progress: the
    /// candidate set is non-empty whenever `node != target`, and following
    /// any sequence of candidates reaches `target` in finitely many hops.
    ///
    /// **Fault-injection contract** (every shipped router honors it, via
    /// [`FailoverTable`]): no candidate ever uses a link marked failed by
    /// [`Topology::fail_link`], and the progress guarantee holds as long
    /// as the current failure set leaves `target` reachable from `node`.
    /// When failures *disconnect* the pair, the candidate set is empty —
    /// the router reports unreachability instead of looping — and the
    /// simulation engines turn that into a hard error naming the pair.
    fn candidates(&self, topo: &Topology, node: NodeId, vc: u8, target: NodeId, out: &mut Vec<Hop>);

    /// Source-side path selection, called once at injection. Returning
    /// `Some(w)` routes the packet to waypoint `w` first (per
    /// [`Router::waypoint_reached`]), then to the destination.
    fn select_waypoint(
        &self,
        _topo: &Topology,
        _src: NodeId,
        _dst: NodeId,
        _probe: &dyn LoadProbe,
        _rng: &mut dyn rand::RngCore,
    ) -> Option<NodeId> {
        None
    }

    /// Whether the waypoint phase is complete for a packet at `node`.
    /// Default: exact node match. Dragonfly overrides this with "same
    /// group"; HammingMesh with "same board".
    fn waypoint_reached(&self, _topo: &Topology, node: NodeId, waypoint: NodeId) -> bool {
        node == waypoint
    }

    /// Enumerate the deterministic source-side path *classes* between
    /// `src` and `dst` as waypoints, for consumers that want to use every
    /// class at once (the flow-level engine splits a message into subflows
    /// over the direct route plus each option returned here). Unlike
    /// [`Router::select_waypoint`] this must not depend on load or
    /// randomness. Default: no alternative classes (minimal routing only).
    fn waypoint_options(
        &self,
        _topo: &Topology,
        _src: NodeId,
        _dst: NodeId,
        _out: &mut Vec<NodeId>,
    ) {
    }
}

/// Failure-aware routing fallback shared by every topology router.
///
/// The structured routers (up*/down*, UGAL, dimension-order, HxMesh) are
/// built for the healthy graph; under fault injection their candidate sets
/// can offer a dead link or — worse — steer a packet into a region whose
/// only way out was cut. `FailoverTable` repairs that generically: while
/// [`Topology::has_failures`] holds, a router passes its structured
/// candidate set through [`FailoverTable::filter`], which
///
/// 1. drops candidates whose immediate link is failed, and candidates
///    that do not strictly decrease the *failure-aware* BFS distance to
///    the target (so every surviving hop makes provable progress and no
///    walk can revisit a node, no matter how ties are broken);
/// 2. if nothing survives — all minimal routes are cut — replaces the set
///    with every healthy port on a failure-aware shortest path (the
///    "failover" routes), escaping to the dedicated failover VC (see
///    below);
/// 3. leaves the set empty when the failure set disconnects the pair,
///    which per the [`Router`] contract means "unreachable".
///
/// Distances are healthy-graph BFS trees rooted at each requested target,
/// computed lazily and memoized per [`Topology::failure_set_id`]: the
/// cache is invalidated whenever the failure *set* changes, and — because
/// the id is content-based, not a monotone epoch — it is *retained* when
/// the set returns to the cached one, as in the cluster simulator's
/// fail → restore → fail churn on the same cable. With no failures present
/// the router never calls in here, so pristine-network routing (and its
/// performance) is bit-identical to the failure-blind code.
///
/// ## Failover VC discipline
///
/// Step-2 failover routes do **not** inherit the packet's current VC:
/// they escape to a dedicated VC, `escape_vc = Router::num_vcs()` (the
/// engines allocate one VC beyond what the router's structured scheme
/// uses). Inheriting the primary VC is unsound on the wrap topologies —
/// a torus/HxMesh failover hop can traverse a dateline the structured
/// VC ladder never crosses on that VC, closing a credit cycle. The
/// escape VC is *sticky*: once a packet rides it, every later hop comes
/// from [`FailoverTable::escape_candidates`], which offers exactly the
/// healthy ports that strictly decrease the failure-aware BFS distance
/// to the target. Strictly-decreasing routing over one shared distance
/// function is acyclic per destination, so the escape network is
/// deadlock-free on its own VC, and the structured VCs keep their own
/// guarantees because nothing new enters them
/// (`tests/fault_injection.rs` pins the torus/HxMesh wrap regression).
///
/// The remaining trade-off is fidelity, not correctness: while any
/// failure exists, non-minimal adaptive escapes (HxMesh wrap-arounds,
/// Dragonfly local detours) that don't shorten the failure-aware
/// distance are suppressed.
#[derive(Debug, Default)]
pub struct FailoverTable {
    cache: Mutex<FailoverCache>,
}

#[derive(Debug, Default)]
struct FailoverCache {
    /// Failure set the cached distances were computed under.
    set: crate::graph::FailureSetId,
    /// Per target: failure-aware BFS distance from every node to it.
    dist: BTreeMap<NodeId, Vec<u32>>,
}

impl FailoverTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` with the failure-aware distance vector toward `target`
    /// (recomputing the cache if the failure set changed since it was
    /// filled — a set the cache already holds is served as-is, however
    /// many fail/restore transitions happened in between).
    fn with_dist<R>(&self, topo: &Topology, target: NodeId, f: impl FnOnce(&[u32]) -> R) -> R {
        // hxlint: allow(P001) lock poisoning only follows a panic already unwinding this thread's caller
        let mut cache = self.cache.lock().unwrap();
        if cache.set != topo.failure_set_id() {
            cache.set = topo.failure_set_id();
            cache.dist.clear();
        }
        let dist = cache
            .dist
            .entry(target)
            // Links are full-duplex and fail in both directions, so the
            // BFS tree rooted at the target doubles as distance-to-target.
            .or_insert_with(|| topo.bfs_hops_healthy(target));
        f(dist)
    }

    /// Whether the current failure set leaves `target` reachable from
    /// `node`. Used by source-side waypoint selection to avoid steering
    /// packets at a cut-off intermediate.
    pub fn reachable(&self, topo: &Topology, node: NodeId, target: NodeId) -> bool {
        if !topo.has_failures() {
            return true;
        }
        self.with_dist(topo, target, |dist| dist[node.idx()] != u32::MAX)
    }

    /// Apply the failure filter described on [`FailoverTable`] to a
    /// structured candidate set. `escape_vc` is the dedicated failover
    /// VC the step-2 routes escape to — routers pass their own
    /// `num_vcs()` (the engines allocate one VC beyond it). Call only
    /// when [`Topology::has_failures`] — the healthy path must stay
    /// untouched.
    pub fn filter(
        &self,
        topo: &Topology,
        node: NodeId,
        escape_vc: u8,
        target: NodeId,
        out: &mut Vec<Hop>,
    ) {
        debug_assert!(topo.has_failures());
        if node == target {
            out.clear();
            return;
        }
        self.with_dist(topo, target, |dist| {
            let d = dist[node.idx()];
            if d == u32::MAX {
                out.clear(); // disconnected: report unreachable
                return;
            }
            out.retain(|h| {
                let link = topo.link(node, h.port);
                !link.failed && dist[link.peer.node.idx()] < d
            });
            if out.is_empty() {
                // All structured routes are cut here: fail over to every
                // healthy shortest-path port in the failure-aware graph,
                // escaping to the dedicated failover VC (see the VC
                // discipline section on [`FailoverTable`]).
                for (p, link) in topo.node(node).ports.iter().enumerate() {
                    if !link.failed && dist[link.peer.node.idx()] + 1 == d {
                        out.push(Hop {
                            port: PortId(p as u16),
                            vc: escape_vc,
                        });
                    }
                }
            } else {
                // The retain above can leave duplicates when a router
                // offers the same port under several roles.
                let mut i = 0;
                while i < out.len() {
                    if out[..i].iter().any(|h| h.port == out[i].port) {
                        out.swap_remove(i);
                    } else {
                        i += 1;
                    }
                }
            }
            debug_assert!(
                !out.is_empty(),
                "reachable target {target:?} but no healthy shortest-path port at {node:?}"
            );
        });
    }

    /// Candidates for a packet already riding the escape VC (sticky —
    /// see the VC discipline section on [`FailoverTable`]): every
    /// healthy port that strictly decreases the failure-aware BFS
    /// distance to `target`, all on `escape_vc`. Replaces the
    /// structured scheme entirely; a router whose `candidates` is
    /// called with `vc >= num_vcs()` must delegate here unconditionally
    /// (even after every failure repaired — in-flight escape packets
    /// outlive the failure set, and the healthy-graph BFS keeps them
    /// progressing and acyclic). Leaves `out` empty when the pair is
    /// disconnected.
    pub fn escape_candidates(
        &self,
        topo: &Topology,
        node: NodeId,
        escape_vc: u8,
        target: NodeId,
        out: &mut Vec<Hop>,
    ) {
        out.clear();
        if node == target {
            return;
        }
        self.with_dist(topo, target, |dist| {
            let d = dist[node.idx()];
            if d == u32::MAX {
                return; // disconnected: report unreachable
            }
            for (p, link) in topo.node(node).ports.iter().enumerate() {
                if !link.failed && dist[link.peer.node.idx()] < d {
                    out.push(Hop {
                        port: PortId(p as u16),
                        vc: escape_vc,
                    });
                }
            }
            debug_assert!(
                !out.is_empty(),
                "reachable target {target:?} but no distance-decreasing port at {node:?}"
            );
        });
    }
}

/// Up*/down* routing tables for tree-structured (sub)networks.
///
/// Built by the fat-tree and HammingMesh constructors, which know which
/// ports point "up". Routing is the classic scheme: while the target is not
/// in this switch's down-table, go up (any up port, adaptively); once it
/// is, follow the recorded down ports. One VC suffices (up/down is
/// deadlock-free), so the table never changes VCs.
///
/// Flat layout: every node id maps to its switch index (or to none, outside
/// the tree); each switch owns a range of up ports and a range of down
/// entries `(target, port range)`, sorted by target so a lookup is one
/// index plus one binary search. A target's down ports are in ascending
/// port order, and all ports sit in one shared array.
#[derive(Clone, Debug, Default)]
pub struct UpDownTable {
    /// Per node id: its switch index, `u32::MAX` outside the tree.
    switch_of: Vec<u32>,
    /// Per switch: its up ports, a range of `ports`.
    up: Vec<Range<u32>>,
    /// Per switch: its down entries, a range of `down`.
    down_of: Vec<Range<u32>>,
    /// Down entries: a target accelerator and the range of `ports` that
    /// reaches it minimally inside the tree.
    down: Vec<(NodeId, Range<u32>)>,
    ports: Vec<PortId>,
}

impl UpDownTable {
    /// Build from an explicit description of the tree:
    /// `levels[0]` are the leaf switches, `levels.last()` the roots, and
    /// `leaf_targets(leaf, port)` names the accelerator(s) served by a leaf
    /// down port (`None` for up ports or ports outside the tree).
    ///
    /// `is_up(node, port)` must classify every port of every listed switch.
    pub fn build(
        topo: &Topology,
        levels: &[Vec<NodeId>],
        is_up: impl Fn(NodeId, PortId) -> bool,
        leaf_target: impl Fn(NodeId, PortId) -> Option<NodeId>,
    ) -> Self {
        let mut table = UpDownTable {
            switch_of: vec![u32::MAX; topo.num_nodes()],
            ..Self::default()
        };
        // Levels in order, so a switch's children are complete when it
        // collects the targets below each of its down ports.
        let mut below: Vec<(NodeId, PortId)> = Vec::new();
        for (lvl, switches) in levels.iter().enumerate() {
            for &sw in switches {
                below.clear();
                let up_start = table.ports.len() as u32;
                for p in 0..topo.num_ports(sw) {
                    let port = PortId(p as u16);
                    if is_up(sw, port) {
                        table.ports.push(port);
                    } else if lvl == 0 {
                        if let Some(t) = leaf_target(sw, port) {
                            below.push((t, port));
                        }
                    } else {
                        let child = topo.peer(sw, port).node;
                        if let Some(c) = table.switch(child) {
                            let entries = table.entry_range(c);
                            below.extend(table.down[entries].iter().map(|e| (e.0, port)));
                        }
                    }
                }
                let up_end = table.ports.len() as u32;
                // By target, then port: each target's ports ascend.
                below.sort_unstable();
                let first_entry = table.down.len() as u32;
                for (i, &(t, port)) in below.iter().enumerate() {
                    let at = table.ports.len() as u32;
                    if i == 0 || below[i - 1].0 != t {
                        table.down.push((t, at..at));
                    }
                    table.ports.push(port);
                    let last = table.down.len() - 1;
                    table.down[last].1.end = at + 1;
                }
                table.switch_of[sw.idx()] = table.up.len() as u32;
                table.up.push(up_start..up_end);
                table.down_of.push(first_entry..table.down.len() as u32);
            }
        }
        table
    }

    /// The switch index of `node`, if the tree contains it.
    fn switch(&self, node: NodeId) -> Option<usize> {
        match self.switch_of.get(node.idx()) {
            Some(&s) if s != u32::MAX => Some(s as usize),
            _ => None,
        }
    }

    fn entry_range(&self, s: usize) -> Range<usize> {
        let r = &self.down_of[s];
        r.start as usize..r.end as usize
    }

    fn port_slice(&self, r: &Range<u32>) -> &[PortId] {
        &self.ports[r.start as usize..r.end as usize]
    }

    /// The down ports of switch `s` toward `target`, if it has an entry.
    fn find_down(&self, s: usize, target: NodeId) -> Option<&[PortId]> {
        let entries = &self.down[self.entry_range(s)];
        let i = entries.binary_search_by_key(&target, |e| e.0).ok()?;
        Some(self.port_slice(&entries[i].1))
    }

    /// Is this node part of the tree this table describes?
    pub fn contains(&self, node: NodeId) -> bool {
        self.switch(node).is_some()
    }

    /// Appends up/down candidates at `node` for `target` on the given VC.
    /// Returns `true` if any candidate was produced.
    pub fn candidates(&self, node: NodeId, target: NodeId, vc: u8, out: &mut Vec<Hop>) -> bool {
        let Some(s) = self.switch(node) else {
            return false;
        };
        let ports = self
            .find_down(s, target)
            .unwrap_or_else(|| self.port_slice(&self.up[s]));
        out.extend(ports.iter().map(|&port| Hop { port, vc }));
        !ports.is_empty()
    }

    /// All down ports at `node` toward `target` (empty slice if none).
    pub fn down_ports(&self, node: NodeId, target: NodeId) -> &[PortId] {
        self.switch(node)
            .and_then(|s| self.find_down(s, target))
            .unwrap_or(&[])
    }

    pub fn up_ports(&self, node: NodeId) -> &[PortId] {
        self.switch(node)
            .map_or(&[], |s| self.port_slice(&self.up[s]))
    }
}

/// Shortest-path table router: BFS all-pairs over the raw graph, candidates
/// are every port that lies on some shortest path. No VC management (always
/// VC 0) — **not** deadlock-free in general; used as a reference router in
/// tests and for diameter measurements, not in the evaluation runs.
///
/// Failure-aware: under fault injection the static table is corrected by
/// a [`FailoverTable`], so candidates avoid failed links and re-route over
/// the failure-aware shortest paths.
pub struct ShortestPathRouter {
    /// dist[node][target_endpoint_index]
    dist: Vec<Vec<u32>>,
    /// endpoint node -> dense index
    endpoint_index: BTreeMap<NodeId, usize>,
    failover: FailoverTable,
}

impl ShortestPathRouter {
    pub fn build(topo: &Topology, endpoints: &[NodeId]) -> Self {
        let endpoint_index: BTreeMap<NodeId, usize> =
            endpoints.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        // dist[target][node], computed by BFS from each endpoint.
        let mut per_target = vec![Vec::new(); endpoints.len()];
        for (i, &e) in endpoints.iter().enumerate() {
            per_target[i] = topo.bfs_hops(e);
        }
        // Transpose into dist[node][target].
        let n = topo.num_nodes();
        let mut dist = vec![vec![u32::MAX; endpoints.len()]; n];
        for (t, d) in per_target.iter().enumerate() {
            for (node, &dd) in d.iter().enumerate() {
                dist[node][t] = dd;
            }
        }
        Self {
            dist,
            endpoint_index,
            failover: FailoverTable::new(),
        }
    }

    pub fn distance(&self, node: NodeId, target: NodeId) -> u32 {
        self.dist[node.idx()][self.endpoint_index[&target]]
    }
}

impl Router for ShortestPathRouter {
    fn num_vcs(&self) -> u8 {
        1
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
        let ti = self.endpoint_index[&target];
        let d = self.dist[node.idx()][ti];
        if d == 0 {
            return;
        }
        for (p, link) in topo.node(node).ports.iter().enumerate() {
            if self.dist[link.peer.node.idx()][ti] + 1 == d {
                out.push(Hop {
                    port: PortId(p as u16),
                    vc,
                });
            }
        }
        if topo.has_failures() {
            self.failover
                .filter(topo, node, self.num_vcs(), target, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Cable, LinkSpec};

    fn spec() -> LinkSpec {
        LinkSpec {
            latency_ps: 1000,
            ps_per_byte: 20.0,
            cable: Cable::Dac,
        }
    }

    /// Two endpoints under two leaves under one root.
    fn tiny_tree() -> (Topology, Vec<NodeId>, Vec<Vec<NodeId>>) {
        let mut t = Topology::new();
        let e0 = t.add_accelerator(0);
        let e1 = t.add_accelerator(1);
        let l0 = t.add_switch(0, 0, 0);
        let l1 = t.add_switch(0, 0, 1);
        let r = t.add_switch(1, 0, 0);
        t.connect(e0, l0, spec()); // l0 port 0 = down
        t.connect(e1, l1, spec()); // l1 port 0 = down
        t.connect(l0, r, spec()); // l0 port 1 = up, r port 0 = down
        t.connect(l1, r, spec()); // l1 port 1 = up, r port 1 = down
        (t, vec![e0, e1], vec![vec![l0, l1], vec![r]])
    }

    #[test]
    fn updown_routes_through_root() {
        let (t, eps, levels) = tiny_tree();
        let table = UpDownTable::build(
            &t,
            &levels,
            |sw, p| {
                // Leaf switches: port 1 is up; root has no up ports.
                t.kind(sw)
                    == crate::graph::NodeKind::Switch {
                        level: 0,
                        group: 0,
                        pos: 0,
                    }
                    && p == PortId(1)
                    || matches!(
                        t.kind(sw),
                        crate::graph::NodeKind::Switch {
                            level: 0,
                            pos: 1,
                            ..
                        }
                    ) && p == PortId(1)
            },
            |sw, p| {
                let peer = t.peer(sw, p).node;
                t.kind(peer).is_accelerator().then_some(peer)
            },
        );
        // At leaf l0, target e1: must go up.
        let mut out = Vec::new();
        assert!(table.candidates(levels[0][0], eps[1], 0, &mut out));
        assert_eq!(
            out,
            vec![Hop {
                port: PortId(1),
                vc: 0
            }]
        );
        // At root, target e1: down port 1.
        out.clear();
        assert!(table.candidates(levels[1][0], eps[1], 0, &mut out));
        assert_eq!(
            out,
            vec![Hop {
                port: PortId(1),
                vc: 0
            }]
        );
        // At leaf l1, target e1: down port 0.
        out.clear();
        assert!(table.candidates(levels[0][1], eps[1], 0, &mut out));
        assert_eq!(
            out,
            vec![Hop {
                port: PortId(0),
                vc: 0
            }]
        );
    }

    /// The up*/down* table before the flat layout: a `BTreeMap` of up
    /// ports and a `BTreeMap` of `BTreeMap`s of down ports. Kept as the
    /// oracle of [`flat_updown_table_matches_map_table`].
    type MapTable = (
        BTreeMap<NodeId, Vec<PortId>>,
        BTreeMap<NodeId, BTreeMap<NodeId, Vec<PortId>>>,
    );

    fn map_table(
        topo: &Topology,
        levels: &[Vec<NodeId>],
        is_up: impl Fn(NodeId, PortId) -> bool,
        leaf_target: impl Fn(NodeId, PortId) -> Option<NodeId>,
    ) -> MapTable {
        let (mut up, mut down) = (BTreeMap::new(), BTreeMap::new());
        for (lvl, switches) in levels.iter().enumerate() {
            for &sw in switches {
                let mut ups = Vec::new();
                let mut downs: BTreeMap<NodeId, Vec<PortId>> = BTreeMap::new();
                for p in 0..topo.num_ports(sw) {
                    let port = PortId(p as u16);
                    if is_up(sw, port) {
                        ups.push(port);
                    } else if lvl == 0 {
                        if let Some(t) = leaf_target(sw, port) {
                            downs.entry(t).or_default().push(port);
                        }
                    }
                }
                up.insert(sw, ups);
                down.insert(sw, downs);
            }
        }
        for lvl in 1..levels.len() {
            for &sw in &levels[lvl] {
                let mut mine: BTreeMap<NodeId, Vec<PortId>> = BTreeMap::new();
                for p in 0..topo.num_ports(sw) {
                    let port = PortId(p as u16);
                    if is_up(sw, port) {
                        continue;
                    }
                    if let Some(child) = down.get(&topo.peer(sw, port).node) {
                        for target in child.keys() {
                            mine.entry(*target).or_default().push(port);
                        }
                    }
                }
                down.insert(sw, mine);
            }
        }
        (up, down)
    }

    /// Random three-level trees with parallel links, wired in shuffled
    /// order so a target's down ports are several and interleaved with
    /// other targets' ports: every lookup of the flat table equals the
    /// map table's, ports in the same (ascending) order.
    #[test]
    fn flat_updown_table_matches_map_table() {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut multi_port_targets = 0;
        for seed in 0..8 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut t = Topology::new();
            let eps: Vec<NodeId> = (0..12).map(|r| t.add_accelerator(r)).collect();
            let leaves: Vec<NodeId> = (0..4).map(|i| t.add_switch(0, 0, i)).collect();
            let mids: Vec<NodeId> = (0..3).map(|i| t.add_switch(1, 0, i)).collect();
            let roots: Vec<NodeId> = (0..2).map(|i| t.add_switch(2, 0, i)).collect();
            let mut links: Vec<(NodeId, NodeId)> = Vec::new();
            for (i, &e) in eps.iter().enumerate() {
                links.push((e, leaves[i % leaves.len()]));
            }
            for &l in &leaves {
                for &m in &mids {
                    for _ in 0..rng.random_range(1..3) {
                        links.push((l, m));
                    }
                }
            }
            for &m in &mids {
                for &r in &roots {
                    links.push((m, r));
                }
            }
            links.shuffle(&mut rng);
            for (a, b) in links {
                t.connect(a, b, spec());
            }
            let level = |n: NodeId| match t.kind(n) {
                crate::graph::NodeKind::Switch { level, .. } => Some(level),
                _ => None,
            };
            let is_up = |sw: NodeId, p: PortId| level(t.peer(sw, p).node) > level(sw);
            let leaf_target = |sw: NodeId, p: PortId| {
                let peer = t.peer(sw, p).node;
                t.kind(peer).is_accelerator().then_some(peer)
            };
            let levels = [leaves.clone(), mids.clone(), roots.clone()];
            let flat = UpDownTable::build(&t, &levels, is_up, leaf_target);
            let (up, down) = map_table(&t, &levels, is_up, leaf_target);
            let targets = eps.iter().chain(&leaves[..1]);
            for n in (0..t.num_nodes() as u32).map(NodeId) {
                assert_eq!(flat.contains(n), up.contains_key(&n), "{n:?}");
                let ups = up.get(&n).map_or(&[][..], |v| v.as_slice());
                assert_eq!(flat.up_ports(n), ups, "{n:?}");
                for &target in targets.clone() {
                    let downs = down.get(&n).and_then(|m| m.get(&target));
                    let want = downs.map_or(&[][..], |v| v.as_slice());
                    assert_eq!(flat.down_ports(n, target), want, "{n:?} -> {target:?}");
                    multi_port_targets += usize::from(want.len() >= 2);
                    let mut got = Vec::new();
                    let produced = flat.candidates(n, target, 1, &mut got);
                    let ports = downs.map_or(ups, |v| v.as_slice());
                    let expect: Vec<Hop> = if up.contains_key(&n) {
                        ports.iter().map(|&port| Hop { port, vc: 1 }).collect()
                    } else {
                        Vec::new()
                    };
                    assert_eq!(produced, !expect.is_empty(), "{n:?} -> {target:?}");
                    assert_eq!(got, expect, "{n:?} -> {target:?}");
                }
            }
        }
        assert!(multi_port_targets > 0, "no target had two down ports");
    }

    #[test]
    fn shortest_path_router_is_minimal() {
        let (t, eps, _) = tiny_tree();
        let r = ShortestPathRouter::build(&t, &eps);
        assert_eq!(r.distance(eps[0], eps[1]), 4); // e0-l0-r-l1-e1
        let mut out = Vec::new();
        r.candidates(&t, eps[0], 0, eps[1], &mut out);
        assert_eq!(out.len(), 1);
    }

    /// Two leaves under two roots: failing one root's link re-routes the
    /// shortest-path candidates through the other; failing both reports
    /// the destination unreachable (empty candidate set).
    #[test]
    fn failover_reroutes_and_reports_unreachable() {
        let mut t = Topology::new();
        let e0 = t.add_accelerator(0);
        let e1 = t.add_accelerator(1);
        let l0 = t.add_switch(0, 0, 0);
        let l1 = t.add_switch(0, 0, 1);
        let ra = t.add_switch(1, 0, 0);
        let rb = t.add_switch(1, 0, 1);
        t.connect(e0, l0, spec());
        t.connect(e1, l1, spec());
        let (l0a, _) = t.connect(l0, ra, spec());
        t.connect(l1, ra, spec());
        let (l0b, _) = t.connect(l0, rb, spec());
        t.connect(l1, rb, spec());
        let r = ShortestPathRouter::build(&t, &[e0, e1]);

        let cands = |t: &Topology, node| {
            let mut out = Vec::new();
            r.candidates(t, node, 0, e1, &mut out);
            out
        };
        assert_eq!(cands(&t, l0).len(), 2); // either root works

        t.fail_link(l0, l0a);
        let c = cands(&t, l0);
        assert_eq!(c.len(), 1, "{c:?}");
        assert_eq!(c[0].port, l0b);
        assert!(!t.link_failed(l0, c[0].port));
        assert!(r.failover.reachable(&t, l0, e1));

        t.fail_link(l0, l0b);
        assert!(cands(&t, l0).is_empty(), "disconnected pair must be empty");
        assert!(cands(&t, e0).is_empty());
        assert!(!r.failover.reachable(&t, l0, e1));

        // Repair brings the original candidate set back.
        t.restore_link(l0, l0a);
        t.restore_link(l0, l0b);
        assert_eq!(cands(&t, l0).len(), 2);
    }

    /// The content-keyed failover cache must never serve one failure set's
    /// distances for another: failing cable A, repairing it, and failing
    /// cable B instead has to route around B (not A), and the cycle
    /// A -> repair -> A again must reproduce the first failure's routes
    /// exactly (the satellite regression for `restore_link` interaction
    /// with cached failover state).
    #[test]
    fn failover_cache_is_keyed_on_the_failure_set() {
        let mut t = Topology::new();
        let e0 = t.add_accelerator(0);
        let e1 = t.add_accelerator(1);
        let l0 = t.add_switch(0, 0, 0);
        let l1 = t.add_switch(0, 0, 1);
        let ra = t.add_switch(1, 0, 0);
        let rb = t.add_switch(1, 0, 1);
        t.connect(e0, l0, spec());
        t.connect(e1, l1, spec());
        let (l0a, _) = t.connect(l0, ra, spec());
        t.connect(l1, ra, spec());
        let (l0b, _) = t.connect(l0, rb, spec());
        t.connect(l1, rb, spec());
        let r = ShortestPathRouter::build(&t, &[e0, e1]);
        let cands = |t: &Topology| {
            let mut out = Vec::new();
            r.candidates(t, l0, 0, e1, &mut out);
            out
        };

        t.fail_link(l0, l0a);
        let around_a = cands(&t);
        assert_eq!(around_a.len(), 1);
        assert_eq!(around_a[0].port, l0b);

        // Same-size, different set: the cache must recompute, not replay A.
        t.restore_link(l0, l0a);
        t.fail_link(l0, l0b);
        let around_b = cands(&t);
        assert_eq!(around_b.len(), 1);
        assert_eq!(around_b[0].port, l0a);

        // fail -> restore -> fail on the same cable: identical routes to
        // the first failure (served from the retained cache entry).
        t.restore_link(l0, l0b);
        t.fail_link(l0, l0b);
        assert_eq!(cands(&t), around_b);
        t.restore_link(l0, l0b);
        t.fail_link(l0, l0a);
        assert_eq!(cands(&t), around_a);
    }
}
