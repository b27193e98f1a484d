//! Fat-tree topologies (nonblocking and tapered), App. C configurations.
//!
//! Two- and three-level folded-Clos trees built from `radix`-port switches.
//! Endpoints attach with DAC cables, inter-switch links are AoC (as the
//! paper's cost layouts prescribe). Tapering removes up links at the first
//! level (§III-D: "fat trees are tapered beginning from the second level"
//! means the reduction shows between level 1 and level 2).
//!
//! One two-level wiring (`FatTreeParams::wire_two_level`) builds every
//! two-level tree: the two-level fat trees, the [`single_switch`] crossbar
//! and each HammingMesh line network. The three-level tree wires its own
//! pods. Either way the router's [`UpDownTable`] comes from the switches by
//! level alone: a port points up iff its peer is a switch of a later level.

use crate::cable_link;
use crate::graph::{Cable, Network, NodeId, PortId, Topology};
use crate::route::{Hop, Router, UpDownTable};

/// Parameters of a fat tree. Use the preset constructors for the paper's
/// exact App. C configurations.
#[derive(Clone, Debug)]
pub struct FatTreeParams {
    pub name: String,
    pub num_endpoints: usize,
    /// Endpoints per leaf switch.
    pub leaf_down: usize,
    /// Up links per leaf switch.
    pub leaf_up: usize,
    /// `2` or `3` levels of switches.
    pub levels: u8,
    /// 3-level only: leaf switches per pod.
    pub pod_leaves: usize,
    /// 3-level only: middle switches per pod.
    pub pod_mid: usize,
    /// 3-level only: up links per middle switch.
    pub mid_up: usize,
    /// Number of top-level (spine/root) switches.
    pub num_spines: usize,
}

impl FatTreeParams {
    /// Two-level nonblocking fat tree for ~1k endpoints (App. C1a):
    /// 32 leaf switches (32 down / 32 up), 16 spines.
    pub fn small_nonblocking() -> Self {
        Self {
            name: "nonblocking fat tree (1k)".into(),
            num_endpoints: 1024,
            leaf_down: 32,
            leaf_up: 32,
            levels: 2,
            pod_leaves: 0,
            pod_mid: 0,
            mid_up: 0,
            num_spines: 16,
        }
    }

    /// Two-level 50%-tapered fat tree (App. C1b): 25 leaves with 42 down /
    /// 22 up ports, 9 spines, 1,050 endpoints.
    pub fn small_tapered50() -> Self {
        Self {
            name: "50% tapered fat tree (1k)".into(),
            num_endpoints: 1050,
            leaf_down: 42,
            leaf_up: 22,
            levels: 2,
            pod_leaves: 0,
            pod_mid: 0,
            mid_up: 0,
            num_spines: 9,
        }
    }

    /// Two-level 75%-tapered fat tree (App. C1b): 21 leaves with 51 down /
    /// 13 up ports, 5 spines, 1,071 endpoints.
    pub fn small_tapered75() -> Self {
        Self {
            name: "75% tapered fat tree (1k)".into(),
            num_endpoints: 1071,
            leaf_down: 51,
            leaf_up: 13,
            levels: 2,
            pod_leaves: 0,
            pod_mid: 0,
            mid_up: 0,
            num_spines: 5,
        }
    }

    /// Three-level nonblocking fat tree for 16,384 endpoints (App. C2a):
    /// 512 leaves, 512 middle switches (pods of 16+16), 256 roots.
    pub fn large_nonblocking() -> Self {
        Self {
            name: "nonblocking fat tree (16k)".into(),
            num_endpoints: 16384,
            leaf_down: 32,
            leaf_up: 32,
            levels: 3,
            pod_leaves: 16,
            pod_mid: 16,
            mid_up: 32,
            num_spines: 256,
        }
    }

    /// A reduced-scale nonblocking tree for fast simulation: two levels,
    /// `radix`-port switches, as many leaves as needed for `n` endpoints.
    pub fn scaled_nonblocking(n: usize, radix: usize) -> Self {
        let down = radix / 2;
        let leaves = n.div_ceil(down);
        let spines = (leaves * down).div_ceil(radix).max(1);
        Self {
            name: format!("nonblocking fat tree ({n})"),
            num_endpoints: n,
            leaf_down: down,
            leaf_up: down,
            levels: 2,
            pod_leaves: 0,
            pod_mid: 0,
            mid_up: 0,
            num_spines: spines,
        }
    }

    /// A reduced-scale tapered tree: `taper` is the fraction of up links
    /// removed (0.5 or 0.75 in the paper).
    pub fn scaled_tapered(n: usize, radix: usize, taper: f64) -> Self {
        assert!((0.0..1.0).contains(&taper));
        let mut p = Self::scaled_nonblocking(n, radix);
        p.leaf_up = ((p.leaf_up as f64) * (1.0 - taper)).round().max(1.0) as usize;
        p.num_spines = (p.num_leaves() * p.leaf_up).div_ceil(radix).max(1);
        p.name = format!("{}% tapered fat tree ({n})", (taper * 100.0) as u32);
        p
    }

    pub fn num_leaves(&self) -> usize {
        self.num_endpoints.div_ceil(self.leaf_down)
    }

    pub fn num_pods(&self) -> usize {
        if self.levels == 3 {
            self.num_leaves().div_ceil(self.pod_leaves)
        } else {
            0
        }
    }

    /// One `n`-port crossbar switch: a two-level tree with a single leaf
    /// and no spines.
    pub(crate) fn crossbar(n: usize) -> Self {
        Self {
            name: String::new(),
            num_endpoints: n,
            leaf_down: n.max(1),
            leaf_up: 0,
            levels: 2,
            pod_leaves: 0,
            pod_mid: 0,
            mid_up: 0,
            num_spines: 0,
        }
    }

    /// Construct the topology and its up/down router.
    pub fn build(&self) -> Network {
        let mut topo = Topology::new();
        let endpoints: Vec<NodeId> = (0..self.num_endpoints)
            .map(|r| topo.add_accelerator(r as u32))
            .collect();
        let levels = if self.levels == 2 {
            let mut levels = vec![Vec::new(); 2];
            self.wire_two_level(&mut topo, 0, &endpoints, Cable::Dac, &mut levels, |_, _| {});
            levels
        } else {
            assert_eq!(self.levels, 3, "only 2- and 3-level trees are supported");
            let leaves: Vec<NodeId> = (0..self.num_leaves())
                .map(|i| topo.add_switch(0, (i / self.pod_leaves) as u32, i as u32))
                .collect();
            // Endpoint attachment: DAC.
            for (r, &e) in endpoints.iter().enumerate() {
                topo.connect(e, leaves[r / self.leaf_down], cable_link(Cable::Dac));
            }
            let num_pods = self.num_pods();
            let mids: Vec<NodeId> = (0..num_pods * self.pod_mid)
                .map(|i| topo.add_switch(1, (i / self.pod_mid) as u32, i as u32))
                .collect();
            let spines: Vec<NodeId> = (0..self.num_spines)
                .map(|i| topo.add_switch(2, 0, i as u32))
                .collect();
            // Leaf -> pod mids.
            for (li, &leaf) in leaves.iter().enumerate() {
                let pod = li / self.pod_leaves;
                for j in 0..self.leaf_up {
                    let mid = mids[pod * self.pod_mid + (li + j) % self.pod_mid];
                    topo.connect(leaf, mid, cable_link(Cable::Aoc));
                }
            }
            // Mid -> spines.
            for (mi, &mid) in mids.iter().enumerate() {
                for j in 0..self.mid_up {
                    let spine = spines[(mi + j) % self.num_spines];
                    topo.connect(mid, spine, cable_link(Cable::Aoc));
                }
            }
            vec![leaves, mids, spines]
        };
        let table = UpDownTable::build(&topo, &levels);
        Network {
            router: Box::new(FatTreeRouter { table }),
            topo,
            endpoints,
            name: self.name.clone(),
        }
    }

    /// The two-level wiring of every two-level tree: fat trees, the
    /// [`single_switch`] crossbar and each HammingMesh line network.
    /// Adds `num_leaves()` leaves, then `num_spines` spines, all in switch
    /// group `group`, and appends them to `levels[0]` and `levels[1]`.
    /// `attach[k]` hangs off leaf `k / leaf_down` by a `cable` link, and
    /// `attached(k, port)` learns the port at `attach[k]`'s end; then leaf
    /// `i`'s `j`-th up link goes to spine `(i + j) % num_spines` (AoC).
    /// Every switch connects its attachments before its up links.
    pub(crate) fn wire_two_level(
        &self,
        topo: &mut Topology,
        group: u32,
        attach: &[NodeId],
        cable: Cable,
        levels: &mut [Vec<NodeId>],
        mut attached: impl FnMut(usize, PortId),
    ) {
        let (first_leaf, first_spine) = (levels[0].len(), levels[1].len());
        for i in 0..self.num_leaves() {
            levels[0].push(topo.add_switch(0, group, i as u32));
        }
        for i in 0..self.num_spines {
            levels[1].push(topo.add_switch(1, group, i as u32));
        }
        let (leaves, spines) = (&levels[0][first_leaf..], &levels[1][first_spine..]);
        for (k, &node) in attach.iter().enumerate() {
            let (port, _) = topo.connect(node, leaves[k / self.leaf_down], cable_link(cable));
            attached(k, port);
        }
        for (i, &leaf) in leaves.iter().enumerate() {
            for j in 0..self.leaf_up {
                let spine = spines[(i + j) % self.num_spines];
                topo.connect(leaf, spine, cable_link(Cable::Aoc));
            }
        }
    }
}

/// Up*/down* adaptive routing on a fat tree (one VC; deadlock-free).
///
/// Under fault injection [`Router::next_hops`] corrects the up/down set:
/// dead up/down ports are skipped, up ports whose spine can no longer
/// reach the target are not offered, and when a switch's whole structured
/// set is cut the hops fall back to failure-aware shortest paths.
pub struct FatTreeRouter {
    table: UpDownTable,
}

impl Router for FatTreeRouter {
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
        if node == target {
            return;
        }
        if topo.kind(node).is_accelerator() {
            // Endpoints inject on all their (usually one) ports.
            for p in 0..topo.num_ports(node) {
                out.push(Hop {
                    port: PortId(p as u16),
                    vc,
                });
            }
        } else {
            self.table.candidates(node, target, vc, out);
        }
    }
}

/// A single `radix`-port crossbar switch connecting `n` endpoints — used by
/// HammingMesh rows/columns when they fit in one switch, and handy in tests.
pub fn single_switch(n: usize, name: &str) -> Network {
    FatTreeParams {
        name: name.to_string(),
        ..FatTreeParams::crossbar(n)
    }
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::ZeroLoad;
    use crate::walk;

    #[test]
    fn small_nonblocking_counts_match_appendix_c() {
        let net = FatTreeParams::small_nonblocking().build();
        assert_eq!(net.endpoints.len(), 1024);
        // 32 leaves + 16 spines per plane.
        assert_eq!(net.topo.count_switches(), 48);
        // 1,024 DAC endpoint cables; 1,024 AoC switch-switch cables.
        assert_eq!(net.topo.count_cables(Cable::Dac), 1024);
        assert_eq!(net.topo.count_cables(Cable::Aoc), 1024);
        net.topo.validate().unwrap();
    }

    #[test]
    fn tapered_counts_match_appendix_c() {
        let net = FatTreeParams::small_tapered50().build();
        assert_eq!(net.topo.count_switches(), 25 + 9);
        assert_eq!(net.topo.count_cables(Cable::Dac), 1050);
        assert_eq!(net.topo.count_cables(Cable::Aoc), 550);

        let net = FatTreeParams::small_tapered75().build();
        assert_eq!(net.topo.count_switches(), 21 + 5);
        assert_eq!(net.topo.count_cables(Cable::Dac), 1071);
        assert_eq!(net.topo.count_cables(Cable::Aoc), 273);
    }

    #[test]
    fn large_nonblocking_counts_match_appendix_c() {
        let net = FatTreeParams::large_nonblocking().build();
        assert_eq!(net.endpoints.len(), 16384);
        assert_eq!(net.topo.count_switches(), 512 + 512 + 256);
        assert_eq!(net.topo.count_cables(Cable::Dac), 16384);
        assert_eq!(net.topo.count_cables(Cable::Aoc), 2 * 16384);
    }

    #[test]
    fn routing_reaches_destination() {
        let net = FatTreeParams::small_nonblocking().build();
        for (s, d) in [(0, 1), (0, 33), (5, 1000), (1023, 0), (512, 513)] {
            walk(&net, s, d, 4);
        }
    }

    #[test]
    fn three_level_routing_reaches_destination() {
        let mut p = FatTreeParams::large_nonblocking();
        // shrink: 4 pods of 4+4, 256 endpoints, 8 roots
        p.num_endpoints = 16 * 16;
        p.leaf_down = 16;
        p.leaf_up = 4;
        p.pod_leaves = 4;
        p.pod_mid = 4;
        p.mid_up = 4;
        p.num_spines = 8;
        let net = p.build();
        for (s, d) in [(0, 255), (0, 15), (16, 17), (100, 200)] {
            walk(&net, s, d, 6);
        }
    }

    #[test]
    fn single_switch_routes_in_two_hops() {
        let net = single_switch(8, "sw");
        walk(&net, 0, 7, 2);
        walk(&net, 3, 4, 2);
    }

    #[test]
    fn no_waypoints_for_fat_tree() {
        let net = FatTreeParams::small_nonblocking().build();
        let mut rng = rand::rng();
        assert!(net
            .router
            .select_waypoint(
                &net.topo,
                net.endpoints[0],
                net.endpoints[9],
                &ZeroLoad,
                &mut rng
            )
            .is_none());
    }

    #[test]
    fn routing_avoids_failed_up_and_down_links() {
        let mut net = FatTreeParams::scaled_nonblocking(32, 8).build();
        let (src, dst) = (net.endpoints[0], net.endpoints[31]);
        // The source leaf and its up ports.
        let leaf = net.topo.peer(src, PortId(0)).node;
        let ups: Vec<PortId> = (0..net.topo.num_ports(leaf))
            .map(|p| PortId(p as u16))
            .filter(|&p| {
                let peer = net.topo.peer(leaf, p).node;
                matches!(net.topo.kind(peer), NodeKind::Switch { level: 1, .. })
            })
            .collect();
        assert!(ups.len() >= 2, "need multiple spines for this test");
        // Kill all but one up link; the survivor must be the only offer.
        for &p in &ups[1..] {
            net.topo.fail_link(leaf, p);
        }
        let mut cand = Vec::new();
        net.router.next_hops(&net.topo, leaf, 0, dst, &mut cand);
        assert_eq!(cand.len(), 1);
        assert_eq!(cand[0].port, ups[0]);
        // Also kill the surviving spine's *down* link toward dst's leaf:
        // strict up*/down* is now cut, and the failover shortest path
        // detours down through another leaf and back up — longer, but it
        // delivers without touching a dead link.
        let spine = net.topo.peer(leaf, ups[0]).node;
        let dleaf = net.topo.peer(dst, PortId(0)).node;
        let down = (0..net.topo.num_ports(spine))
            .map(|p| PortId(p as u16))
            .find(|&p| net.topo.peer(spine, p).node == dleaf)
            .expect("spine-down link");
        net.topo.fail_link(spine, down);
        walk(&net, 0, 31, 6);
        // Isolating dst entirely makes the router report unreachable
        // (empty candidate set) instead of looping.
        net.topo.fail_link(dst, PortId(0));
        net.router.next_hops(&net.topo, leaf, 0, dst, &mut cand);
        assert!(cand.is_empty(), "{cand:?}");
        // Repair: the full candidate set returns.
        net.topo.restore_link(dst, PortId(0));
        net.topo.restore_link(spine, down);
        for &p in &ups[1..] {
            net.topo.restore_link(leaf, p);
        }
        net.router.next_hops(&net.topo, leaf, 0, dst, &mut cand);
        assert_eq!(cand.len(), ups.len());
        walk(&net, 0, 31, 4);
    }

    use crate::graph::NodeKind;

    #[test]
    fn scaled_constructors_produce_sane_trees() {
        let net = FatTreeParams::scaled_nonblocking(256, 64).build();
        assert_eq!(net.endpoints.len(), 256);
        let net = FatTreeParams::scaled_tapered(256, 64, 0.5).build();
        assert_eq!(net.endpoints.len(), 256);
        net.topo.validate().unwrap();
    }
}
