//! Port-level network multigraph.
//!
//! A [`Topology`] is an explicit list of nodes; each node owns an ordered
//! list of ports, and each port is wired to exactly one peer port through a
//! full-duplex [`Link`]. Accelerators and switches are both nodes; in
//! HammingMesh accelerators forward packets themselves (the per-plane 4x4
//! switch of Fig. 3), so the simulator treats the two kinds uniformly and
//! only the routing algorithms care about the distinction.

use std::fmt;
use std::sync::OnceLock;

/// Identifier of a node (accelerator or switch) inside one [`Topology`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of a port, local to its owning node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u16);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl NodeId {
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl PortId {
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// One endpoint of a link: a specific port on a specific node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PortRef {
    pub node: NodeId,
    pub port: PortId,
}

/// Physical cable technology of a link. Drives the cost model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cable {
    /// Short metal trace on a PCB board — free in the cost model (§III-C).
    Pcb,
    /// 5 m Direct Attach Copper cable ($272 in App. E).
    Dac,
    /// 20 m Active optical Cable ($603 in App. E).
    Aoc,
}

/// Physical parameters of a link, set by the topology builders.
#[derive(Clone, Copy, Debug)]
pub struct LinkSpec {
    /// Propagation latency in picoseconds.
    pub latency_ps: u64,
    /// Serialization rate: picoseconds per byte (20 ps/B at 400 Gb/s).
    pub ps_per_byte: f64,
    pub cable: Cable,
}

/// A directed half of a full-duplex link, stored from the sender's side.
#[derive(Clone, Copy, Debug)]
pub struct Link {
    pub peer: PortRef,
    pub spec: LinkSpec,
    /// The link has been killed by fault injection ([`Topology::fail_link`]).
    /// Failure-aware routers route around it.
    pub failed: bool,
}

/// Role of a node in the topology.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// An accelerator with an attached NIC. `rank` is the global rank of
    /// this accelerator (index into [`Network::endpoints`]).
    Accelerator { rank: u32 },
    /// A packet switch. `level` distinguishes tree levels (0 = leaf level),
    /// `group`/`pos` are generic coordinates the builders use for labeling.
    Switch { level: u8, group: u32, pos: u32 },
}

impl NodeKind {
    #[inline]
    pub fn is_accelerator(self) -> bool {
        matches!(self, NodeKind::Accelerator { .. })
    }

    #[inline]
    pub fn is_switch(self) -> bool {
        matches!(self, NodeKind::Switch { .. })
    }
}

/// A node together with its ports. Ports are created by [`Topology::connect`]
/// in call order, so builders control port numbering.
#[derive(Clone, Debug)]
pub struct Node {
    pub kind: NodeKind,
    pub ports: Vec<Link>,
}

/// Content identity of a failure *set*: the number of failed full-duplex
/// links plus an order-independent fingerprint of which ones they are.
///
/// The set id returns to a previous value when the failure set does: a
/// fail → restore → fail cycle on the same cable yields the same id as
/// the first failure. The cluster simulator's iteration-time memo keys on
/// this, so its fail/repair churn (which toggles the same few cables over
/// days of simulated time) re-simulates a recurring set once, while any
/// *different* set — including the empty one — changes the id. (The
/// failure-aware routing distances are not keyed on it: they live in the
/// [`Topology`] and are dropped by every change of the set.)
///
/// The fingerprint XORs a splitmix64-mixed hash of each failed cable's
/// canonical end; XOR is commutative and self-inverse, so it is maintained
/// in O(1) per transition. Two distinct sets of equal size collide only if
/// their mixed hashes XOR equal — vanishingly unlikely and not achievable
/// by the simulators' random sweeps.
// `Ord` so the id can key ordered maps (hxcluster's iteration-time memo
// keys on it; D001 keeps hash maps out of the sim crates).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct FailureSetId {
    /// Number of failed full-duplex links.
    pub count: u32,
    /// XOR of the per-cable mixed hashes.
    pub fingerprint: u64,
}

/// splitmix64 finalizer: the cable-id mixer behind [`FailureSetId`].
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The port-level multigraph.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    /// Number of currently failed full-duplex links (each counted once).
    failed_links: usize,
    /// XOR-accumulated fingerprint of the current failure set (see
    /// [`FailureSetId`]); updated in O(1) alongside `failed_links`.
    failure_fingerprint: u64,
    /// Per target node: the failure-aware hop distance from every node to
    /// it ([`Topology::hops_to`]). One slot per node, each filled on first
    /// use; every change to the graph or the failure set drops them all.
    dist_to: OnceLock<Box<[OnceLock<Vec<u32>>]>>,
}

impl Topology {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(nodes: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(nodes),
            ..Self::default()
        }
    }

    /// Add a node with no ports yet; returns its id.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        self.dist_to.take();
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind,
            ports: Vec::new(),
        });
        id
    }

    pub fn add_accelerator(&mut self, rank: u32) -> NodeId {
        self.add_node(NodeKind::Accelerator { rank })
    }

    pub fn add_switch(&mut self, level: u8, group: u32, pos: u32) -> NodeId {
        self.add_node(NodeKind::Switch { level, group, pos })
    }

    /// Connect two nodes with a new full-duplex link; allocates one new port
    /// on each side and returns them as `(port_on_a, port_on_b)`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (PortId, PortId) {
        assert_ne!(a, b, "self-loops are not allowed");
        self.dist_to.take();
        let pa = PortId(self.nodes[a.idx()].ports.len() as u16);
        let pb = PortId(self.nodes[b.idx()].ports.len() as u16);
        self.nodes[a.idx()].ports.push(Link {
            peer: PortRef { node: b, port: pb },
            spec,
            failed: false,
        });
        self.nodes[b.idx()].ports.push(Link {
            peer: PortRef { node: a, port: pa },
            spec,
            failed: false,
        });
        (pa, pb)
    }

    /// Look up `(node, port)` for fault injection, panicking with a clear
    /// message instead of a bare index error when the port does not exist.
    /// The audit of the original `fail_link` showed that a typo'd port id
    /// would either panic deep inside `peer()` or — worse, when it aliased
    /// another valid port — silently kill the wrong cable; an explicit
    /// bounds check keeps the failure loud and attributable.
    fn checked_peer(&self, node: NodeId, port: PortId) -> PortRef {
        let n = self
            .nodes
            .get(node.idx())
            // hxlint: allow(P001) documented contract: bad fault-injection input must fail loudly, not kill another cable
            .unwrap_or_else(|| panic!("fault injection on nonexistent node {node:?}"));
        n.ports
            .get(port.idx())
            // hxlint: allow(P001) documented contract: bad fault-injection input must fail loudly, not kill another cable
            .unwrap_or_else(|| panic!("fault injection on nonexistent port {node:?}:{port:?}"))
            .peer
    }

    /// Fault injection: mark the full-duplex link at `(node, port)` as
    /// failed, in both directions. Failure-aware routers stop offering the
    /// link as a candidate and route around it.
    ///
    /// Failing an already-failed link is a **no-op** (returns `false`):
    /// the failure count and epoch stay untouched, so sweeps that sample
    /// cables with replacement cannot corrupt the bookkeeping. A
    /// nonexistent `(node, port)` panics with a descriptive message.
    /// Returns `true` when the link actually transitioned to failed.
    pub fn fail_link(&mut self, node: NodeId, port: PortId) -> bool {
        let peer = self.checked_peer(node, port);
        if self.nodes[node.idx()].ports[port.idx()].failed {
            return false;
        }
        self.nodes[node.idx()].ports[port.idx()].failed = true;
        self.nodes[peer.node.idx()].ports[peer.port.idx()].failed = true;
        self.failed_links += 1;
        self.failure_fingerprint ^= Self::cable_hash(node, port, peer);
        self.dist_to.take();
        true
    }

    /// Order-independent hash of one full-duplex cable, computed from its
    /// canonical (lexicographically smaller) end so both directions agree.
    fn cable_hash(node: NodeId, port: PortId, peer: PortRef) -> u64 {
        let a = ((node.0 as u64) << 16) | port.0 as u64;
        let b = ((peer.node.0 as u64) << 16) | peer.port.0 as u64;
        mix64(a.min(b))
    }

    /// Undo [`Topology::fail_link`] (repair), in both directions.
    /// Restoring a healthy link is a no-op (returns `false`); a
    /// nonexistent `(node, port)` panics like [`Topology::fail_link`].
    pub fn restore_link(&mut self, node: NodeId, port: PortId) -> bool {
        let peer = self.checked_peer(node, port);
        if !self.nodes[node.idx()].ports[port.idx()].failed {
            return false;
        }
        self.nodes[node.idx()].ports[port.idx()].failed = false;
        self.nodes[peer.node.idx()].ports[peer.port.idx()].failed = false;
        self.failed_links -= 1;
        self.failure_fingerprint ^= Self::cable_hash(node, port, peer);
        self.dist_to.take();
        true
    }

    /// Whether any link is currently failed. O(1); routers use this to
    /// keep the healthy-network fast path entirely failure-blind.
    #[inline]
    pub fn has_failures(&self) -> bool {
        self.failed_links > 0
    }

    /// Content identity of the current failure set (see [`FailureSetId`]).
    /// Equal ids ⇔ (up to fingerprint collision) equal sets, regardless of
    /// the fail/restore order that produced them.
    #[inline]
    pub fn failure_set_id(&self) -> FailureSetId {
        FailureSetId {
            count: self.failed_links as u32,
            fingerprint: self.failure_fingerprint,
        }
    }

    /// Whether the directed link out of `(node, port)` is failed.
    #[inline]
    pub fn link_failed(&self, node: NodeId, port: PortId) -> bool {
        self.nodes[node.idx()].ports[port.idx()].failed
    }

    /// Number of failed full-duplex links (each counted once). Maintained
    /// incrementally by [`Topology::fail_link`] / [`Topology::restore_link`].
    pub fn count_failed_links(&self) -> usize {
        debug_assert_eq!(
            self.failed_links,
            self.nodes
                .iter()
                .flat_map(|n| n.ports.iter())
                .filter(|l| l.failed)
                .count()
                / 2
        );
        self.failed_links
    }

    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.idx()]
    }

    #[inline]
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.nodes[id.idx()].kind
    }

    #[inline]
    pub fn link(&self, node: NodeId, port: PortId) -> &Link {
        &self.nodes[node.idx()].ports[port.idx()]
    }

    #[inline]
    pub fn peer(&self, node: NodeId, port: PortId) -> PortRef {
        self.nodes[node.idx()].ports[port.idx()].peer
    }

    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    #[inline]
    pub fn num_ports(&self, node: NodeId) -> usize {
        self.nodes[node.idx()].ports.len()
    }

    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Total number of full-duplex links (each counted once).
    pub fn num_links(&self) -> usize {
        self.nodes.iter().map(|n| n.ports.len()).sum::<usize>() / 2
    }

    /// Count links of a given cable kind (each full-duplex link once).
    pub fn count_cables(&self, cable: Cable) -> usize {
        self.nodes
            .iter()
            .flat_map(|n| n.ports.iter())
            .filter(|l| l.spec.cable == cable)
            .count()
            / 2
    }

    /// Count switch nodes.
    pub fn count_switches(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.is_switch()).count()
    }

    /// Shared BFS body of [`Topology::bfs_hops`] /
    /// [`Topology::bfs_hops_healthy`], so the failure-blind and
    /// failure-aware metrics cannot drift apart.
    fn bfs(&self, src: NodeId, skip_failed: bool) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        dist[src.idx()] = 0;
        queue.push_back(src);
        while let Some(n) = queue.pop_front() {
            let d = dist[n.idx()];
            for link in &self.nodes[n.idx()].ports {
                let p = link.peer.node;
                if !(skip_failed && link.failed) && dist[p.idx()] == u32::MAX {
                    dist[p.idx()] = d + 1;
                    queue.push_back(p);
                }
            }
        }
        dist
    }

    /// Unweighted BFS hop distance (in links) from `src` to every node,
    /// ignoring fault injection. Used by diameter verification and
    /// routing-table construction.
    pub fn bfs_hops(&self, src: NodeId) -> Vec<u32> {
        self.bfs(src, false)
    }

    /// Unweighted BFS hop distance from `src` over **healthy** links only:
    /// failed links are treated as absent. `u32::MAX` marks nodes the
    /// current failure set disconnects from `src`. This is the metric the
    /// failure-aware routing rule and the cable-failure sweeps use.
    pub fn bfs_hops_healthy(&self, src: NodeId) -> Vec<u32> {
        self.bfs(src, true)
    }

    /// Failure-aware hop distance from every node to `target` under the
    /// current failure set (`u32::MAX`: disconnected), computed on first
    /// use and kept until [`Topology::fail_link`] or
    /// [`Topology::restore_link`] changes the set. The distances behind
    /// [`crate::route::Router::next_hops`] and the waypoint reachability
    /// checks.
    pub fn hops_to(&self, target: NodeId) -> &[u32] {
        let slots = self
            .dist_to
            .get_or_init(|| self.nodes.iter().map(|_| OnceLock::new()).collect());
        // Links are full-duplex and fail in both directions, so the BFS
        // tree rooted at the target doubles as distance-to-target.
        slots[target.idx()].get_or_init(|| self.bfs_hops_healthy(target))
    }

    /// Whether the current failure set leaves `target` reachable from
    /// `node` (over [`Topology::hops_to`]).
    pub fn reachable(&self, node: NodeId, target: NodeId) -> bool {
        self.hops_to(target)[node.idx()] != u32::MAX
    }

    /// All cables — non-PCB full-duplex links — as one canonical
    /// `(node, port)` end each (the lexicographically smaller end). The
    /// shared enumeration behind every cable-failure sweep and fault
    /// suite, so they all sample the same fault model.
    pub fn cables(&self) -> Vec<(NodeId, PortId)> {
        let mut out = Vec::new();
        for (id, node) in self.nodes() {
            for (p, link) in node.ports.iter().enumerate() {
                let port = PortId(p as u16);
                if link.spec.cable != Cable::Pcb && (id, port) < (link.peer.node, link.peer.port) {
                    out.push((id, port));
                }
            }
        }
        out
    }

    /// Consistency check: every link's peer relation is symmetric.
    pub fn validate(&self) -> Result<(), String> {
        for (id, node) in self.nodes.iter().enumerate() {
            for (pidx, link) in node.ports.iter().enumerate() {
                let peer = link.peer;
                let back = self
                    .nodes
                    .get(peer.node.idx())
                    .and_then(|n| n.ports.get(peer.port.idx()))
                    .ok_or_else(|| format!("n{id}:p{pidx} points to missing {peer:?}"))?;
                if back.peer.node.idx() != id || back.peer.port.idx() != pidx {
                    return Err(format!(
                        "asymmetric link n{id}:p{pidx} <-> {:?} (peer back-ref {:?})",
                        peer, back.peer
                    ));
                }
            }
        }
        Ok(())
    }
}

/// A built network: the graph, the rank-ordered endpoints, and the routing
/// algorithm appropriate for the topology.
pub struct Network {
    pub topo: Topology,
    /// Accelerator nodes in rank order: `endpoints[r]` is the node of rank r.
    pub endpoints: Vec<NodeId>,
    pub router: Box<dyn crate::route::Router>,
    /// Human-readable name, e.g. `"16x16 Hx2Mesh"`.
    pub name: String,
}

impl Network {
    /// Rank of an accelerator node (panics if `node` is a switch).
    pub fn rank_of(&self, node: NodeId) -> u32 {
        match self.topo.kind(node) {
            NodeKind::Accelerator { rank } => rank,
            // hxlint: allow(P001) documented contract: rank_of is accelerator-only
            k => panic!("rank_of called on {k:?}"),
        }
    }

    pub fn num_ranks(&self) -> usize {
        self.endpoints.len()
    }

    /// Whether the current failure set leaves every endpoint connected
    /// (over healthy links).
    pub fn endpoints_connected(&self) -> bool {
        let d = self.topo.bfs_hops_healthy(self.endpoints[0]);
        self.endpoints.iter().all(|e| d[e.idx()] != u32::MAX)
    }

    /// Fault-injection driver: fail up to `want` cables drawn uniformly at
    /// random, rolling back any draw that would disconnect an endpoint.
    /// Returns the number actually failed (less than `want` only when the
    /// topology runs out of redundant cables).
    pub fn fail_random_cables(&mut self, want: usize, rng: &mut dyn rand::RngCore) -> usize {
        use rand::seq::SliceRandom;
        let mut pool = self.topo.cables();
        pool.shuffle(rng);
        self.fail_while_connected(&pool, want)
    }

    /// The shared failure-draw recipe of the Fig. 10 routed sweep and the
    /// `hxserve` scenario service: draw `want` random
    /// connectivity-preserving cable failures from an RNG derived from
    /// `(seed, draw)`, so draw `t` produces the same failure set on every
    /// thread count, machine, and caller. Returns the number actually
    /// failed, like [`Network::fail_random_cables`].
    pub fn fail_random_cables_drawn(&mut self, want: usize, seed: u64, draw: u64) -> usize {
        use rand::SeedableRng;
        let mut rng =
            rand::rngs::StdRng::seed_from_u64(seed ^ draw.wrapping_mul(0x9E3779B97F4A7C15));
        self.fail_random_cables(want, &mut rng)
    }

    /// Deterministic sibling of [`Network::fail_random_cables`]: scans the
    /// cable list in strided order so the failures spread across the
    /// machine, rolling back disconnecting draws the same way.
    pub fn fail_spread_cables(&mut self, count: usize) -> usize {
        let pool = self.topo.cables();
        let stride = (pool.len() / count.max(1)).max(1);
        let mut order = Vec::with_capacity(pool.len());
        for offset in 0..stride {
            order.extend(pool.iter().copied().skip(offset).step_by(stride));
        }
        self.fail_while_connected(&order, count)
    }

    fn fail_while_connected(&mut self, order: &[(NodeId, PortId)], want: usize) -> usize {
        let mut failed = 0;
        for &(node, port) in order {
            if failed == want {
                break;
            }
            if !self.topo.fail_link(node, port) {
                continue;
            }
            if self.endpoints_connected() {
                failed += 1;
            } else {
                self.topo.restore_link(node, port);
            }
        }
        failed
    }

    /// Injection bandwidth of one endpoint in bytes/ps (sum over its ports).
    pub fn injection_bytes_per_ps(&self, rank: usize) -> f64 {
        let node = self.endpoints[rank];
        self.topo
            .node(node)
            .ports
            .iter()
            .map(|l| 1.0 / l.spec.ps_per_byte)
            .sum()
    }
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("name", &self.name)
            .field("nodes", &self.topo.num_nodes())
            .field("endpoints", &self.endpoints.len())
            .field("links", &self.topo.num_links())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> LinkSpec {
        LinkSpec {
            latency_ps: 1000,
            ps_per_byte: 20.0,
            cable: Cable::Dac,
        }
    }

    #[test]
    fn connect_is_symmetric() {
        let mut t = Topology::new();
        let a = t.add_accelerator(0);
        let b = t.add_switch(0, 0, 0);
        let (pa, pb) = t.connect(a, b, spec());
        assert_eq!(t.peer(a, pa), PortRef { node: b, port: pb });
        assert_eq!(t.peer(b, pb), PortRef { node: a, port: pa });
        t.validate().unwrap();
    }

    #[test]
    fn multi_links_get_distinct_ports() {
        let mut t = Topology::new();
        let a = t.add_switch(0, 0, 0);
        let b = t.add_switch(0, 0, 1);
        let (p1, _) = t.connect(a, b, spec());
        let (p2, _) = t.connect(a, b, spec());
        assert_ne!(p1, p2);
        assert_eq!(t.num_links(), 2);
        t.validate().unwrap();
    }

    #[test]
    fn bfs_distances_on_path() {
        let mut t = Topology::new();
        let n: Vec<_> = (0..4).map(|i| t.add_switch(0, 0, i)).collect();
        for w in n.windows(2) {
            t.connect(w[0], w[1], spec());
        }
        let d = t.bfs_hops(n[0]);
        assert_eq!(d, vec![0, 1, 2, 3]);
    }

    #[test]
    fn fail_link_is_idempotent_and_tracked() {
        let mut t = Topology::new();
        let a = t.add_switch(0, 0, 0);
        let b = t.add_switch(0, 0, 1);
        let (pa, pb) = t.connect(a, b, spec());
        assert!(!t.has_failures());

        assert!(t.fail_link(a, pa));
        assert_eq!(t.count_failed_links(), 1);
        // Failing the same link again — from either side — is a no-op.
        assert!(!t.fail_link(a, pa));
        assert!(!t.fail_link(b, pb));
        assert_eq!(t.count_failed_links(), 1);

        // Restoring a healthy link is also a no-op.
        assert!(t.restore_link(b, pb));
        assert!(!t.restore_link(a, pa));
        assert_eq!(t.count_failed_links(), 0);
        assert!(!t.has_failures());
    }

    #[test]
    fn failure_set_id_tracks_content_not_history() {
        let mut t = Topology::new();
        let a = t.add_switch(0, 0, 0);
        let b = t.add_switch(0, 0, 1);
        let c = t.add_switch(0, 0, 2);
        let (pab, pba) = t.connect(a, b, spec());
        let (pbc, _) = t.connect(b, c, spec());
        let healthy = t.failure_set_id();
        assert_eq!(healthy, FailureSetId::default());

        // The id is direction-independent and returns to its previous
        // value across a fail -> restore -> fail cycle on the same cable.
        t.fail_link(a, pab);
        let first = t.failure_set_id();
        assert_ne!(first, healthy);
        t.restore_link(b, pba);
        assert_eq!(t.failure_set_id(), healthy);
        t.fail_link(b, pba);
        assert_eq!(t.failure_set_id(), first);

        // A different single-cable set has a different id; equal-size
        // sets built in different orders agree.
        t.restore_link(a, pab);
        t.fail_link(b, pbc);
        let other = t.failure_set_id();
        assert_ne!(other, first);
        t.fail_link(a, pab);
        let both = t.failure_set_id();
        t.restore_link(a, pab);
        t.restore_link(b, pbc);
        t.fail_link(a, pab);
        t.fail_link(b, pbc);
        assert_eq!(t.failure_set_id(), both);
    }

    /// Pins the O(1) maintenance rule the caches rely on: the fingerprint
    /// of a failure set is exactly the XOR of the singleton fingerprints,
    /// so `fail_link`/`restore_link` can update it incrementally without
    /// ever rescanning the graph — and `count` (not the fingerprint) is
    /// what separates the empty set from any set that XORs to zero.
    #[test]
    fn failure_set_fingerprint_composes_by_xor() {
        let mut t = Topology::new();
        let a = t.add_switch(0, 0, 0);
        let b = t.add_switch(0, 0, 1);
        let c = t.add_switch(0, 0, 2);
        let (pab, _) = t.connect(a, b, spec());
        let (pbc, _) = t.connect(b, c, spec());

        t.fail_link(a, pab);
        let only_ab = t.failure_set_id();
        t.restore_link(a, pab);
        t.fail_link(b, pbc);
        let only_bc = t.failure_set_id();
        t.fail_link(a, pab);
        let both = t.failure_set_id();

        assert_eq!(both.count, 2);
        assert_eq!(both.fingerprint, only_ab.fingerprint ^ only_bc.fingerprint);
        // Singleton fingerprints are the mixed cable hashes themselves —
        // nonzero, distinct, and wiped back out by the inverse transition.
        assert_ne!(only_ab.fingerprint, 0);
        assert_ne!(only_ab.fingerprint, only_bc.fingerprint);
        t.restore_link(b, pbc);
        assert_eq!(t.failure_set_id(), only_ab);
    }

    #[test]
    #[should_panic(expected = "nonexistent port")]
    fn fail_link_on_missing_port_panics_loudly() {
        let mut t = Topology::new();
        let a = t.add_switch(0, 0, 0);
        let b = t.add_switch(0, 0, 1);
        t.connect(a, b, spec());
        t.fail_link(a, PortId(7));
    }

    #[test]
    fn healthy_bfs_skips_failed_links() {
        // Ring of 4: kill one link, distances must go the long way round.
        let mut t = Topology::new();
        let n: Vec<_> = (0..4).map(|i| t.add_switch(0, 0, i)).collect();
        let mut first_port = None;
        for i in 0..4 {
            let (p, _) = t.connect(n[i], n[(i + 1) % 4], spec());
            first_port.get_or_insert((n[i], p));
        }
        assert_eq!(t.bfs_hops_healthy(n[0]), vec![0, 1, 2, 1]);
        let (fn0, fp0) = first_port.unwrap();
        t.fail_link(fn0, fp0); // kills 0 <-> 1
        assert_eq!(t.bfs_hops_healthy(n[0]), vec![0, 3, 2, 1]);
        // The failure-blind BFS still sees the pristine ring.
        assert_eq!(t.bfs_hops(n[0]), vec![0, 1, 2, 1]);
    }

    #[test]
    fn cable_counting() {
        let mut t = Topology::new();
        let a = t.add_switch(0, 0, 0);
        let b = t.add_switch(0, 0, 1);
        let c = t.add_switch(0, 0, 2);
        t.connect(
            a,
            b,
            LinkSpec {
                cable: Cable::Aoc,
                ..spec()
            },
        );
        t.connect(b, c, spec());
        assert_eq!(t.count_cables(Cable::Aoc), 1);
        assert_eq!(t.count_cables(Cable::Dac), 1);
        assert_eq!(t.count_cables(Cable::Pcb), 0);
        assert_eq!(t.count_switches(), 3);
    }
}
