//! Ready-made traffic applications: point-to-point blasts, the
//! balanced-shift alltoall of §V-A1a, random permutations (§V-A1b), and
//! uniform-random background traffic for stress tests.

use crate::engine::{Application, Ctx, MsgInfo};
use crate::Time;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Sends a fixed list of (src, dst, bytes) messages at time 0 and records
/// their completion times.
pub struct MessageBlast {
    sends: Vec<(u32, u32, u64)>,
    pub completions: Vec<(u32, u32, Time)>,
}

impl MessageBlast {
    pub fn pairs(sends: Vec<(u32, u32, u64)>) -> Self {
        Self {
            sends,
            completions: Vec::new(),
        }
    }
}

impl Application for MessageBlast {
    fn start(&mut self, ctx: &mut Ctx) {
        for (i, &(s, d, b)) in self.sends.iter().enumerate() {
            ctx.send(s, d, b, i as u64);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx, info: MsgInfo) {
        self.completions
            .push((info.src_rank, info.dst_rank, ctx.now()));
    }
}

/// Balanced-shift alltoall: each of `p` ranks performs `p-1` iterations; in
/// iteration `i`, rank `j` sends `bytes` to rank `(j + i) mod p` (§V-A1a).
/// `window` iterations may be in flight per rank; the next send is issued
/// when the previous one completes locally.
pub struct Alltoall {
    p: u32,
    bytes: u64,
    window: u32,
    /// Iterations (shifts) each rank performs; `p - 1` for the full
    /// alltoall, less for a shift-capped scale benchmark.
    shifts: u32,
    /// Next iteration index per rank.
    next_iter: Vec<u32>,
    pub done_ranks: u32,
    pub finish: Time,
}

impl Alltoall {
    pub fn new(p: usize, bytes: u64, window: u32) -> Self {
        Self::with_shifts(p, bytes, window, p as u32 - 1)
    }

    /// An alltoall truncated to the first `shifts` of its `p - 1`
    /// balanced-shift iterations: in iteration `i`, rank `j` still sends
    /// to `(j + i + 1) mod p`, so every iteration is a full permutation
    /// and the traffic keeps the alltoall's uniform all-pairs character —
    /// there is just less of it. This is what makes a 16k-endpoint
    /// "quick-scale" run feasible (`perf_smoke`'s `flow_scale` step: the
    /// untruncated pattern would be p·(p-1) ≈ 2.7·10⁸ messages).
    pub fn with_shifts(p: usize, bytes: u64, window: u32, shifts: u32) -> Self {
        Self {
            p: p as u32,
            bytes,
            window: window.max(1),
            shifts: shifts.clamp(1, p as u32 - 1),
            next_iter: vec![0; p],
            done_ranks: 0,
            finish: 0,
        }
    }

    /// Total bytes each rank sends.
    pub fn bytes_per_rank(&self) -> u64 {
        self.bytes * self.shifts as u64
    }

    fn issue(&mut self, ctx: &mut Ctx, rank: u32) {
        let i = self.next_iter[rank as usize];
        if i >= self.shifts {
            if i == self.shifts {
                self.done_ranks += 1;
                self.finish = ctx.now();
                self.next_iter[rank as usize] += 1;
            }
            return;
        }
        self.next_iter[rank as usize] = i + 1;
        let dst = (rank + i + 1) % self.p;
        ctx.send(rank, dst, self.bytes, rank as u64);
    }
}

impl Application for Alltoall {
    fn start(&mut self, ctx: &mut Ctx) {
        for r in 0..self.p {
            for _ in 0..self.window {
                self.issue(ctx, r);
            }
        }
    }

    fn on_message(&mut self, _ctx: &mut Ctx, _info: MsgInfo) {}

    fn on_send_complete(&mut self, ctx: &mut Ctx, info: MsgInfo) {
        self.issue(ctx, info.src_rank);
    }
}

/// Random-permutation traffic (§V-A1b): every rank sends `bytes` to a
/// unique random peer, in `rounds` back-to-back messages.
pub struct Permutation {
    perm: Vec<u32>,
    bytes: u64,
    rounds: u32,
    sent: Vec<u32>,
}

impl Permutation {
    pub fn new(p: usize, bytes: u64, rounds: u32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // Derangement-ish: shuffle until no fixed points (cheap for p >= 2).
        let mut perm: Vec<u32> = (0..p as u32).collect();
        loop {
            perm.shuffle(&mut rng);
            if perm.iter().enumerate().all(|(i, &d)| i as u32 != d) {
                break;
            }
        }
        Self {
            perm,
            bytes,
            rounds: rounds.max(1),
            sent: vec![0; p],
        }
    }

    pub fn destination(&self, rank: usize) -> u32 {
        self.perm[rank]
    }

    fn issue(&mut self, ctx: &mut Ctx, rank: u32) {
        if self.sent[rank as usize] >= self.rounds {
            return;
        }
        self.sent[rank as usize] += 1;
        ctx.send(rank, self.perm[rank as usize], self.bytes, rank as u64);
    }
}

impl Application for Permutation {
    fn start(&mut self, ctx: &mut Ctx) {
        for r in 0..self.perm.len() as u32 {
            self.issue(ctx, r);
        }
    }

    fn on_message(&mut self, _ctx: &mut Ctx, _info: MsgInfo) {}

    fn on_send_complete(&mut self, ctx: &mut Ctx, info: MsgInfo) {
        self.issue(ctx, info.src_rank);
    }
}

/// Uniform-random traffic: each rank sends `count` messages of `bytes` to
/// independently chosen random destinations. Used for deadlock smoke tests.
pub struct UniformRandom {
    p: u32,
    bytes: u64,
    seed: u64,
    remaining: Vec<u32>,
}

impl UniformRandom {
    pub fn new(p: usize, bytes: u64, count: u32, seed: u64) -> Self {
        Self {
            p: p as u32,
            bytes,
            seed,
            remaining: vec![count; p],
        }
    }

    fn issue(&mut self, ctx: &mut Ctx, rank: u32, rng: &mut StdRng) {
        if self.remaining[rank as usize] == 0 {
            return;
        }
        self.remaining[rank as usize] -= 1;
        let mut dst = rng.random_range(0..self.p);
        while dst == rank {
            dst = rng.random_range(0..self.p);
        }
        ctx.send(rank, dst, self.bytes, rank as u64);
    }
}

impl Application for UniformRandom {
    fn start(&mut self, ctx: &mut Ctx) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        for r in 0..self.p {
            self.issue(ctx, r, &mut rng);
        }
    }

    fn on_message(&mut self, _ctx: &mut Ctx, _info: MsgInfo) {}

    fn on_send_complete(&mut self, ctx: &mut Ctx, info: MsgInfo) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ (info.tag << 17) ^ info.src_rank as u64);
        self.issue(ctx, info.src_rank, &mut rng);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{simulate, Engine, EngineKind, SimConfig};
    use hxnet::fattree::single_switch;
    use hxnet::hammingmesh::HxMeshParams;
    use hxnet::torus::TorusParams;

    #[test]
    fn single_message_latency_is_sane() {
        // Two endpoints on one switch: 64 KiB at 400 Gb/s.
        let net = single_switch(2, "pair");
        let mut app = MessageBlast::pairs(vec![(0, 1, 65536)]);
        let stats = Engine::new(&net, SimConfig::default()).run(&mut app);
        assert!(stats.clean(), "{stats:?}");
        assert_eq!(stats.bytes_delivered, 65536);
        // Serialization alone is 65536 B * 20 ps = 1.31 us over 2 hops with
        // pipelining at packet granularity; total must be under 3 us and
        // above the pure serialization time.
        let ser = 65536 * 20;
        assert!(stats.finish_ps > ser, "{}", stats.finish_ps);
        assert!(stats.finish_ps < 3 * ser, "{}", stats.finish_ps);
    }

    #[test]
    fn bandwidth_approaches_line_rate_for_large_messages() {
        let net = single_switch(2, "pair");
        let bytes = 4 << 20;
        let mut app = MessageBlast::pairs(vec![(0, 1, bytes)]);
        let stats = Engine::new(&net, SimConfig::default()).run(&mut app);
        assert!(stats.clean());
        let gbps = stats.delivered_gbps();
        assert!(gbps > 350.0 && gbps <= 400.0, "got {gbps} Gb/s");
    }

    // The smoke checks below run once per engine: the packet engine's
    // tests are here, the flow engine's call the same checks from
    // `flow::tests`.

    pub(crate) fn check_alltoall_completes_on_hxmesh(kind: EngineKind) {
        let net = HxMeshParams::square(2, 2).build();
        let mut app = Alltoall::new(net.num_ranks(), 16 * 1024, 2);
        let stats = simulate(&net, SimConfig::default(), kind, &mut app);
        assert!(stats.clean(), "{kind}: {stats:?}");
        assert_eq!(stats.messages_delivered as usize, 16 * 15);
    }

    pub(crate) fn check_permutation_completes_on_torus(kind: EngineKind) {
        let net = TorusParams {
            cols: 4,
            rows: 4,
            board: 2,
        }
        .build();
        let mut app = Permutation::new(net.num_ranks(), 32 * 1024, 2, 7);
        let stats = simulate(&net, SimConfig::default(), kind, &mut app);
        assert!(stats.clean(), "{kind}: {stats:?}");
        assert_eq!(stats.messages_delivered, 32);
    }

    pub(crate) fn check_uniform_random_on_all_topologies(kind: EngineKind) {
        let nets = vec![
            HxMeshParams::square(2, 4).build(),
            TorusParams {
                cols: 8,
                rows: 8,
                board: 2,
            }
            .build(),
            hxnet::dragonfly::DragonflyParams {
                a: 4,
                p: 2,
                h: 2,
                groups: 5,
            }
            .build(),
            hxnet::fattree::FatTreeParams::scaled_nonblocking(64, 16).build(),
            hxnet::hyperx::HyperXParams {
                x: 8,
                y: 8,
                radix: 64,
            }
            .build(),
        ];
        for net in &nets {
            let mut app = UniformRandom::new(net.num_ranks(), 24 * 1024, 8, 99);
            // 200 ms guard
            let cfg = SimConfig {
                max_time_ps: 200_000_000_000,
                ..Default::default()
            };
            let stats = simulate(net, cfg, kind, &mut app);
            assert!(stats.clean(), "{} ({kind}): {stats:?}", net.name);
        }
    }

    pub(crate) fn check_deterministic_given_seed(kind: EngineKind) {
        let net = HxMeshParams::square(2, 2).build();
        let run = || {
            let mut app = Alltoall::new(net.num_ranks(), 8192, 1);
            simulate(&net, SimConfig::default(), kind, &mut app).finish_ps
        };
        assert_eq!(run(), run(), "{kind}");
    }

    #[test]
    fn alltoall_completes_on_hxmesh() {
        check_alltoall_completes_on_hxmesh(EngineKind::Packet);
    }

    #[test]
    fn permutation_completes_on_torus() {
        check_permutation_completes_on_torus(EngineKind::Packet);
    }

    #[test]
    fn uniform_random_is_deadlock_free_on_all_topologies() {
        check_uniform_random_on_all_topologies(EngineKind::Packet);
    }

    #[test]
    fn shift_capped_alltoall_sends_one_permutation_per_shift() {
        let net = HxMeshParams::square(2, 2).build();
        let p = net.num_ranks();
        let mut app = Alltoall::with_shifts(p, 8192, 2, 3);
        let stats = crate::FlowEngine::new(&net, SimConfig::default()).run(&mut app);
        assert!(stats.clean(), "{stats:?}");
        assert_eq!(stats.messages_delivered as usize, p * 3);
        assert_eq!(app.bytes_per_rank(), 8192 * 3);
        // The cap degenerates to the full alltoall at shifts = p - 1.
        let full = Alltoall::new(p, 8192, 2);
        assert_eq!(full.bytes_per_rank(), 8192 * (p as u64 - 1));
    }

    #[test]
    fn deterministic_given_seed() {
        check_deterministic_given_seed(EngineKind::Packet);
    }
}
