//! Dragonfly topology (Kim et al., ISCA'08) with UGAL-style routing.
//!
//! Canonical configuration `a = 2p = 2h`: groups of `a` switches, each with
//! `p` endpoints and `h` global links; switches within a group are fully
//! connected (DAC), groups are connected all-to-all by distributing each
//! group's `a*h` global ports round-robin over the other groups (AoC).
//!
//! Routing is minimal (local, global, local) with adaptive escape to a
//! Valiant intermediate group chosen UGAL-style from local queue occupancy
//! — the paper simulates Dragonfly with UGAL-L (App. F). Deadlock freedom:
//! the VC is incremented on every global hop (3 VCs suffice for Valiant
//! paths l-g-l-g-l).

use crate::cable_link;
use crate::graph::{Cable, Network, NodeId, PortId, Topology};
use crate::route::{Hop, LoadProbe, Router};

#[derive(Clone, Debug)]
pub struct DragonflyParams {
    /// Switches per group.
    pub a: usize,
    /// Endpoints per switch.
    pub p: usize,
    /// Global links per switch.
    pub h: usize,
    /// Number of groups.
    pub groups: usize,
}

impl DragonflyParams {
    /// The paper's small cluster (App. C1c): a=16, p=8, h=8, 8 groups,
    /// 1,024 endpoints.
    pub fn small() -> Self {
        Self {
            a: 16,
            p: 8,
            h: 8,
            groups: 8,
        }
    }

    /// The paper's large cluster (App. C2b): a=32, p=17, h=16, 30 groups,
    /// 16,320 endpoints.
    pub fn large() -> Self {
        Self {
            a: 32,
            p: 17,
            h: 16,
            groups: 30,
        }
    }

    /// A reduced-scale balanced Dragonfly with ~n endpoints.
    pub fn scaled(n: usize) -> Self {
        // a = 2p = 2h, g <= a*h + 1; pick p so that a*p*g >= n with g = 2p^2+1 capped.
        let mut p = 2;
        loop {
            let a = 2 * p;
            let g_max = a * p + 1;
            let g_needed = n.div_ceil(a * p);
            if g_needed <= g_max || p > 64 {
                return Self {
                    a,
                    p,
                    h: p,
                    groups: g_needed.max(2),
                };
            }
            p += 1;
        }
    }

    pub fn num_endpoints(&self) -> usize {
        self.a * self.p * self.groups
    }

    pub fn build(&self) -> Network {
        assert!(self.groups >= 2);
        let mut topo = Topology::new();
        let mut endpoints = Vec::with_capacity(self.num_endpoints());
        let mut switches = Vec::with_capacity(self.groups * self.a);
        // Create switches then endpoints so routers can use dense maps.
        for g in 0..self.groups {
            for s in 0..self.a {
                switches.push(topo.add_switch(0, g as u32, s as u32));
            }
        }
        let sw = |g: usize, s: usize| switches[g * self.a + s];
        let mut endpoint_switch = Vec::new();
        let mut rank = 0u32;
        for g in 0..self.groups {
            for s in 0..self.a {
                for _ in 0..self.p {
                    let e = topo.add_accelerator(rank);
                    topo.connect(e, sw(g, s), cable_link(Cable::Dac));
                    endpoints.push(e);
                    endpoint_switch.push(sw(g, s));
                    rank += 1;
                }
            }
        }
        // Local all-to-all within each group (DAC). Per switch index and
        // in-group switch: the local port (`None` toward itself).
        let mut local: Vec<Option<PortId>> = vec![None; self.groups * self.a * self.a];
        for g in 0..self.groups {
            for s1 in 0..self.a {
                for s2 in (s1 + 1)..self.a {
                    let (p1, p2) = topo.connect(sw(g, s1), sw(g, s2), cable_link(Cable::Dac));
                    local[(g * self.a + s1) * self.a + s2] = Some(p1);
                    local[(g * self.a + s2) * self.a + s1] = Some(p2);
                }
            }
        }
        // Global links: round-robin over group pairs until the per-switch
        // budget `h` is exhausted (AoC). The pick prefers switches that do
        // not yet reach the peer group so that — whenever `h >= groups-1`,
        // as in the canonical small configuration — every switch has a
        // direct link to every other group (giving the diameter-3 paths of
        // Table II).
        let mut budget = vec![self.h; self.groups * self.a];
        let mut covers = vec![false; self.groups * self.a * self.groups];
        // Per switch index and target group: the direct global ports.
        let mut direct: Vec<Vec<PortId>> = vec![Vec::new(); self.groups * self.a * self.groups];
        let mut next_switch = vec![0usize; self.groups]; // rotating pick
        'outer: loop {
            let mut connected_any = false;
            for g1 in 0..self.groups {
                for g2 in (g1 + 1)..self.groups {
                    // Find a switch with remaining budget in each group,
                    // preferring one that does not cover the peer yet.
                    let pick = |g: usize,
                                peer: usize,
                                next: &mut [usize],
                                budget: &[usize],
                                covers: &[bool]|
                     -> Option<usize> {
                        let mut fallback = None;
                        for k in 0..self.a {
                            let s = (next[g] + k) % self.a;
                            if budget[g * self.a + s] == 0 {
                                continue;
                            }
                            if !covers[(g * self.a + s) * self.groups + peer] {
                                next[g] = (s + 1) % self.a;
                                return Some(s);
                            }
                            fallback.get_or_insert(s);
                        }
                        if let Some(s) = fallback {
                            next[g] = (s + 1) % self.a;
                        }
                        fallback
                    };
                    let (Some(s1), Some(s2)) = (
                        pick(g1, g2, &mut next_switch, &budget, &covers),
                        pick(g2, g1, &mut next_switch, &budget, &covers),
                    ) else {
                        continue;
                    };
                    budget[g1 * self.a + s1] -= 1;
                    budget[g2 * self.a + s2] -= 1;
                    covers[(g1 * self.a + s1) * self.groups + g2] = true;
                    covers[(g2 * self.a + s2) * self.groups + g1] = true;
                    let (p1, p2) = topo.connect(sw(g1, s1), sw(g2, s2), cable_link(Cable::Aoc));
                    direct[(g1 * self.a + s1) * self.groups + g2].push(p1);
                    direct[(g2 * self.a + s2) * self.groups + g1].push(p2);
                    connected_any = true;
                }
            }
            if !connected_any {
                break 'outer;
            }
        }

        let router = DragonflyRouter {
            groups: self.groups as u32,
            a: self.a,
            endpoint_switch,
            direct,
            local,
        };
        Network {
            topo,
            endpoints,
            router: Box::new(router),
            name: format!(
                "Dragonfly a={} p={} h={} g={}",
                self.a, self.p, self.h, self.groups
            ),
        }
    }
}

/// Minimal + Valiant (UGAL-L) Dragonfly routing.
///
/// Under fault injection [`Router::next_hops`] corrects the minimal set:
/// dead global cables stop being offered, local hops toward switches that
/// lost their direct link are suppressed, and cut minimal routes fall
/// back to failure-aware shortest paths. UGAL's Valiant escape only picks
/// intermediates the failure set leaves reachable.
pub struct DragonflyRouter {
    groups: u32,
    a: usize,
    /// Per endpoint rank: its switch.
    endpoint_switch: Vec<NodeId>,
    /// Per switch index `s` and target group `g`, at `s * groups + g`: the
    /// switch's direct global ports to `g`. Switches are the first nodes,
    /// so a switch's index is its node index and its group is `s / a`.
    direct: Vec<Vec<PortId>>,
    /// Per switch index `s` and in-group switch `k`, at `s * a + k`: the
    /// local port to `k` (`None` for `s` itself).
    local: Vec<Option<PortId>>,
}

impl DragonflyRouter {
    /// The group of a switch or of an endpoint's switch.
    fn group_of_node(&self, topo: &Topology, node: NodeId) -> u32 {
        (self.switch_of_target(topo, node).idx() / self.a) as u32
    }

    /// Switch the target endpoint hangs off.
    fn switch_of_target(&self, topo: &Topology, target: NodeId) -> NodeId {
        match topo.kind(target) {
            crate::graph::NodeKind::Accelerator { rank } => self.endpoint_switch[rank as usize],
            crate::graph::NodeKind::Switch { .. } => target,
        }
    }

    fn direct(&self, s: usize, group: usize) -> &[PortId] {
        &self.direct[s * self.groups as usize + group]
    }
}

impl Router for DragonflyRouter {
    fn num_vcs(&self) -> u8 {
        3
    }

    /// The failure-blind minimal (l, g, l) set.
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
            for p in 0..topo.num_ports(node) {
                out.push(Hop {
                    port: PortId(p as u16),
                    vc,
                });
            }
            return;
        }
        let tsw = self.switch_of_target(topo, target);
        let (s, tgroup) = (node.idx(), tsw.idx() / self.a);
        let gvc = (vc + 1).min(self.num_vcs() - 1);
        if node == tsw {
            // The switch end of the target endpoint's only link.
            out.push(Hop {
                port: topo.peer(target, PortId(0)).port,
                vc,
            });
            return;
        }
        if s / self.a == tgroup {
            // Direct local hop.
            if let Some(port) = self.local[s * self.a + tsw.idx() % self.a] {
                out.push(Hop { port, vc });
            }
            return;
        }
        // Different group: direct global ports first.
        for &port in self.direct(s, tgroup) {
            out.push(Hop { port, vc: gvc });
        }
        // Local hops to switches with a direct global link, in ascending
        // switch index (= `NodeId`) order, which fixes the candidate order
        // the engines' adaptive tie-breaks see.
        let first = s - s % self.a;
        for k in 0..self.a {
            if let Some(port) = self.local[s * self.a + k] {
                if !self.direct(first + k, tgroup).is_empty() {
                    out.push(Hop { port, vc });
                }
            }
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
        let sg = self.group_of_node(topo, src);
        let dg = self.group_of_node(topo, dst);
        if sg == dg {
            return None;
        }
        // UGAL-L: compare the source switch's queue toward the minimal
        // route against the queue toward a random Valiant group, weighting
        // by path length (2 global hops for Valiant vs 1 minimal).
        let ssw = self.switch_of_target(topo, src);
        // Both probes route into one buffer (`next_hops` clears it).
        let mut cand = Vec::new();
        let mut queue = |target: NodeId| {
            self.next_hops(topo, ssw, 0, target, &mut cand);
            cand.iter()
                .map(|h| probe.queued_bytes(ssw, h.port))
                .min()
                .unwrap_or(0)
        };
        let min_q = queue(dst);
        // Pick a random intermediate group != sg, dg.
        let mut ig = rng.next_u32() % self.groups;
        while ig == sg || ig == dg {
            ig = rng.next_u32() % self.groups;
        }
        let iw = NodeId((ig as usize * self.a + rng.next_u32() as usize % self.a) as u32);
        // Under fault injection, never steer a packet at an intermediate
        // the failure set cut off (in either phase of the Valiant path).
        if topo.has_failures() && !(topo.reachable(ssw, iw) && topo.reachable(iw, dst)) {
            return None;
        }
        let val_q = queue(iw);
        // UGAL decision: go Valiant when the minimal queue is more than
        // twice the Valiant queue (hop-count ratio) plus a small offset.
        if min_q > 2 * val_q + 4096 {
            Some(iw)
        } else {
            None
        }
    }

    fn waypoint_reached(&self, topo: &Topology, node: NodeId, waypoint: NodeId) -> bool {
        node == waypoint || self.group_of_node(topo, node) == self.group_of_node(topo, waypoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk;

    #[test]
    fn small_dragonfly_shape() {
        let p = DragonflyParams::small();
        let net = p.build();
        assert_eq!(net.endpoints.len(), 1024);
        assert_eq!(net.topo.count_switches(), 8 * 16);
        // 512 global AoC cables (App. C1c).
        assert_eq!(net.topo.count_cables(Cable::Aoc), 512);
        // DAC: 1,024 endpoint + 8 * (16*15/2) local = 1,984.
        assert_eq!(net.topo.count_cables(Cable::Dac), 1024 + 8 * 120);
        net.topo.validate().unwrap();
    }

    #[test]
    fn minimal_paths_are_at_most_five_hops() {
        // endpoint-sw, local, global, local, sw-endpoint = 5 cables (diam 3
        // switch hops as in Table II, which counts switch-to-switch).
        let net = DragonflyParams {
            a: 4,
            p: 2,
            h: 2,
            groups: 5,
        }
        .build();
        let n = net.endpoints.len();
        for s in (0..n).step_by(3) {
            for d in (0..n).step_by(7) {
                if s != d {
                    walk(&net, s, d, 6);
                }
            }
        }
    }

    #[test]
    fn every_group_pair_is_connected() {
        let p = DragonflyParams::small();
        let net = p.build();
        // Check via graph: BFS from an endpoint reaches all nodes.
        let d = net.topo.bfs_hops(net.endpoints[0]);
        assert!(d.iter().all(|&x| x != u32::MAX));
    }

    #[test]
    fn global_budget_respected() {
        let p = DragonflyParams::small();
        let net = p.build();
        for (id, node) in net.topo.nodes() {
            if net.topo.kind(id).is_switch() {
                let globals = node
                    .ports
                    .iter()
                    .filter(|l| l.spec.cable == Cable::Aoc)
                    .count();
                assert!(globals <= p.h, "switch {id:?} has {globals} global links");
            }
        }
    }
}
