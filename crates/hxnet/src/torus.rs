//! 2D torus with 2x2 boards (the paper's switchless baseline).
//!
//! A `cols` x `rows` accelerator torus. Links inside a board are free PCB
//! traces; links between boards are cables. §III-D describes DAC cables
//! between boards, but the Table II cost figure ($2.5M for the small
//! cluster) matches AoC pricing (4 planes x 1,024 cables x $603), so the
//! builder uses AoC to stay faithful to the paper's numbers (README
//! "Substitutions").
//!
//! Routing: strict dimension-order (X then Y) with minimal-direction
//! adaptivity on each ring and dateline virtual channels for deadlock
//! freedom: VCs {0,1} in the X phase, {2,3} in the Y phase; crossing a
//! wrap-around link bumps the dateline bit.

use crate::graph::{Cable, Network, NodeId, PortId, Topology};
use crate::route::{Hop, Router};
use crate::{cable_link, pcb_link};

/// Port slots of a torus accelerator, same order as HammingMesh.
const EAST: usize = 0;
const WEST: usize = 1;
const NORTH: usize = 2;
const SOUTH: usize = 3;

#[derive(Clone, Debug)]
pub struct TorusParams {
    /// Accelerators per row (X dimension).
    pub cols: usize,
    /// Accelerators per column (Y dimension).
    pub rows: usize,
    /// Board edge length; accelerators in the same `board x board` tile are
    /// connected with PCB traces (2 in the paper).
    pub board: usize,
}

impl TorusParams {
    /// The paper's small-cluster 32x32 torus with 2x2 boards.
    pub fn small() -> Self {
        Self {
            cols: 32,
            rows: 32,
            board: 2,
        }
    }

    pub fn num_accelerators(&self) -> usize {
        self.cols * self.rows
    }

    pub fn build(&self) -> Network {
        assert!(self.cols >= 2 && self.rows >= 2);
        let n = self.num_accelerators();
        let mut topo = Topology::with_capacity(n);
        let mut endpoints = Vec::with_capacity(n);
        for r in 0..n {
            endpoints.push(topo.add_accelerator(r as u32));
        }
        let at = |r: usize, c: usize| endpoints[r * self.cols + c];
        let mut ports = vec![[PortId(u16::MAX); 4]; n];

        let same_board = |u: usize, v: usize| (u / self.board) == (v / self.board);

        // X rings (east-west), wrap included.
        for r in 0..self.rows {
            for c in 0..self.cols {
                let c2 = (c + 1) % self.cols;
                let spec = if c2 != 0 && same_board(c, c2) {
                    pcb_link()
                } else {
                    cable_link(Cable::Aoc)
                };
                let (pe, pw) = topo.connect(at(r, c), at(r, c2), spec);
                ports[at(r, c).idx()][EAST] = pe;
                ports[at(r, c2).idx()][WEST] = pw;
            }
        }
        // Y rings (north-south), wrap included.
        for c in 0..self.cols {
            for r in 0..self.rows {
                let r2 = (r + 1) % self.rows;
                let spec = if r2 != 0 && same_board(r, r2) {
                    pcb_link()
                } else {
                    cable_link(Cable::Aoc)
                };
                let (ps, pn) = topo.connect(at(r, c), at(r2, c), spec);
                ports[at(r, c).idx()][SOUTH] = ps;
                ports[at(r2, c).idx()][NORTH] = pn;
            }
        }

        let router = TorusRouter {
            cols: self.cols as u16,
            rows: self.rows as u16,
            ports,
        };
        Network {
            topo,
            endpoints,
            router: Box::new(router),
            name: format!("{}x{} 2D torus", self.cols, self.rows),
        }
    }
}

/// Dimension-order adaptive-direction torus routing with dateline VCs.
///
/// Under fault injection [`Router::next_hops`] corrects the
/// dimension-order set: a dead ring link in the minimal direction diverts
/// traffic the long way round (or through the other dimension first)
/// along failure-aware shortest paths.
pub struct TorusRouter {
    cols: u16,
    rows: u16,
    /// E,W,N,S ports per accelerator node index.
    ports: Vec<[PortId; 4]>,
}

impl TorusRouter {
    #[inline]
    fn coord(&self, node: NodeId) -> (u16, u16) {
        let i = node.idx() as u16;
        (i / self.cols, i % self.cols) // (row, col)
    }
}

impl Router for TorusRouter {
    fn num_vcs(&self) -> u8 {
        4
    }

    fn candidates(
        &self,
        _topo: &Topology,
        node: NodeId,
        vc: u8,
        target: NodeId,
        out: &mut Vec<Hop>,
    ) {
        if node == target {
            return;
        }
        let (r, c) = self.coord(node);
        let (tr, tc) = self.coord(target);
        let slots = &self.ports[node.idx()];
        // The ring being routed: position, target, length, forward and
        // backward port, its first VC and the current dateline bit. X
        // runs on VCs {0,1}, then Y on {2,3}; entering Y resets the bit.
        let (p, t, len, fwd_port, bwd_port, first_vc, bit) = if c != tc {
            (c, tc, self.cols, slots[EAST], slots[WEST], 0, vc & 1)
        } else {
            let bit = if vc >= 2 { vc & 1 } else { 0 };
            (r, tr, self.rows, slots[SOUTH], slots[NORTH], 2, bit)
        };
        // Minimal direction(s); crossing a wrap link sets the bit.
        let fwd = (t + len - p) % len;
        let bwd = (p + len - t) % len;
        if fwd <= bwd {
            let vc = first_vc + if p == len - 1 { 1 } else { bit };
            out.push(Hop { port: fwd_port, vc });
        }
        if bwd <= fwd {
            let vc = first_vc + if p == 0 { 1 } else { bit };
            out.push(Hop { port: bwd_port, vc });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk;

    #[test]
    fn small_torus_counts_match_appendix_c() {
        let net = TorusParams::small().build();
        assert_eq!(net.endpoints.len(), 1024);
        assert_eq!(net.topo.count_switches(), 0);
        // 2*4/2*16*16 = 1,024 inter-board cables per plane (App. C1e).
        assert_eq!(net.topo.count_cables(Cable::Aoc), 1024);
        // PCB traces: 1 horizontal + 1 vertical per 2x2 board * 2 = 1,024.
        assert_eq!(net.topo.count_cables(Cable::Pcb), 1024);
        net.topo.validate().unwrap();
    }

    #[test]
    fn routing_takes_shortest_way_around() {
        let net = TorusParams {
            cols: 8,
            rows: 8,
            board: 2,
        }
        .build();
        // col 0 -> col 7 is 1 hop west (wrap).
        assert_eq!(walk(&net, 0, 7, 64), 1);
        // col 0 -> col 4 is 4 hops either way.
        assert_eq!(walk(&net, 0, 4, 64), 4);
        // (0,0) -> (7,7): 1 west + 1 north = 2.
        assert_eq!(walk(&net, 0, 63, 64), 2);
    }

    #[test]
    fn exhaustive_routing_on_tiny_torus() {
        let net = TorusParams {
            cols: 4,
            rows: 4,
            board: 2,
        }
        .build();
        for s in 0..16 {
            for d in 0..16 {
                if s != d {
                    walk(&net, s, d, 4);
                }
            }
        }
    }

    #[test]
    fn vcs_stay_in_range() {
        let net = TorusParams {
            cols: 6,
            rows: 6,
            board: 2,
        }
        .build();
        // The walk asserts every offered VC is below `num_vcs()`.
        for s in 0..36 {
            for d in 0..36 {
                if s != d {
                    walk(&net, s, d, 64);
                }
            }
        }
    }

    #[test]
    fn routing_diverts_around_failed_wrap_link() {
        let net = TorusParams {
            cols: 8,
            rows: 8,
            board: 2,
        }
        .build();
        let mut net = net;
        // 0 -> 7 is normally 1 hop west through the wrap; kill that cable.
        let src = net.endpoints[0];
        let west = PortId(1); // port order: E, W, N, S (wired E first)
        let dead_peer = net.topo.peer(src, west).node;
        assert_eq!(dead_peer, net.endpoints[7], "wrap wiring assumption");
        net.topo.fail_link(src, west);
        // Shortest healthy detour: south, west through row 1's wrap, north.
        assert_eq!(walk(&net, 0, 7, 8), 3, "expected the S-W-N detour");
        // Repair restores the single-hop wrap route.
        net.topo.restore_link(src, west);
        assert_eq!(walk(&net, 0, 7, 64), 1);
    }

    #[test]
    fn dateline_bumps_vc_on_wrap() {
        let net = TorusParams {
            cols: 8,
            rows: 8,
            board: 2,
        }
        .build();
        // 0 -> 7 goes west through the wrap: vc must become 1.
        let (sn, dn) = (net.endpoints[0], net.endpoints[7]);
        let mut cand = Vec::new();
        net.router.candidates(&net.topo, sn, 0, dn, &mut cand);
        assert_eq!(cand.len(), 1);
        assert_eq!(cand[0].vc, 1);
    }
}
