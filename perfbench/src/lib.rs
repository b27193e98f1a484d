//! The benchmark's four workloads, built and run through the crates'
//! public API.
//!
//! Each workload is a closed batch job: one operation is one simulation
//! (for `flow_rings_256`, the Hx2Mesh and the torus simulation of one
//! round; for `cluster_heavy_8x8`, one cluster lifetime). [`setup`]
//! builds everything an operation needs, [`run`] executes one operation
//! and checks its output. With an enabled [`Tracer`], both record spans
//! around their calls into each layer, and [`setup`] installs
//! [`trace::TracedRouter`]s on the networks.

// Host wall-clock time is what a benchmark measures.
#![allow(clippy::disallowed_methods)]

pub mod reference;
pub mod trace;

use hxcluster::{ClusterConfig, ClusterReport, ClusterSim, JobRecord};
use hxcollect::allreduce::disjoint_rings_allreduce;
use hxcollect::schedule::{OpKind, Schedule};
use hxcollect::simapp::ScheduleApp;
use hxnet::hammingmesh::HxMeshParams;
use hxnet::torus::TorusParams;
use hxnet::Network;
use hxsim::apps::Alltoall;
use hxsim::{
    Application, Engine, EngineKind, FlowEngine, RateMode, RetransmitPolicy, SimConfig, SimStats,
};
use std::sync::Arc;
use std::time::Instant;
use trace::{trace_router, RouteCount, RouteProbe, TracedApp, Tracer};

const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;
const MS_PS: u64 = 1_000_000_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Flow engine, 16,384-endpoint Hx4Mesh, shift-capped alltoall.
    FlowA2a16k,
    /// Flow engine, Fig. 13 disjoint-rings allreduce on the 256-endpoint
    /// Hx2Mesh and 2D torus.
    FlowRings256,
    /// Packet engine, Fig. 11 alltoall on the 64-endpoint Hx2Mesh.
    PacketA2a64,
    /// Cluster lifetime on the 8x8-board Hx2Mesh under heavy load.
    ClusterHeavy8x8,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FlowA2a16k,
        Workload::FlowRings256,
        Workload::PacketA2a64,
        Workload::ClusterHeavy8x8,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FlowA2a16k => "flow_a2a_16k",
            Workload::FlowRings256 => "flow_rings_256",
            Workload::PacketA2a64 => "packet_a2a_64",
            Workload::ClusterHeavy8x8 => "cluster_heavy_8x8",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Engine configuration with every environment-derived field set
/// explicitly (`SimConfig::default()` reads `HX_RATES` and
/// `HX_RETRANSMIT`). The workload seed becomes the engine seed: it
/// varies the packet engine's adaptive tie-breaking; the flow engine
/// draws no random numbers.
fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        rate_mode: RateMode::Incremental,
        retransmit: RetransmitPolicy::Timeout,
        seed,
        ..SimConfig::default()
    }
}

/// The cluster workload: `ClusterConfig::quick()` with 120 jobs arriving
/// every 5 ms on average and jobs up to half the machine. Its job trace
/// is fixed (the quick config's seed) whatever the workload seed: the
/// work in a lifetime varies 1.7x across job-trace seeds, which would
/// swamp any bound on `wall_s`. The cluster's internal engine
/// configuration comes from `SimConfig::default()`, which is why the
/// benchmark clears `HX_RATES` and `HX_RETRANSMIT` at start.
fn cluster_config() -> ClusterConfig {
    let quick = ClusterConfig::quick();
    let boards = quick.mesh.x * quick.mesh.y;
    ClusterConfig {
        num_jobs: 120,
        mean_interarrival_ps: 5 * MS_PS,
        size_dist: hxalloc::workload::JobSizeDistribution {
            max_boards: boards / 2,
            ..quick.size_dist.clone()
        },
        engine: EngineKind::Flow,
        in_situ_failures: false,
        ..quick
    }
}

/// Alltoall workloads: the HxMesh, ranks, bytes per pair, window and
/// shifts (63 of 63 on 64 ranks: the full alltoall).
fn a2a_shape(w: Workload) -> (HxMeshParams, usize, u64, u32, u32) {
    match w {
        Workload::FlowA2a16k => (HxMeshParams::square(4, 32), 16_384, 64 * KIB, 1, 4),
        _ => (HxMeshParams::square(2, 4), 64, 512 * KIB, 2, 63),
    }
}

fn engine_kind(w: Workload) -> EngineKind {
    match w {
        Workload::PacketA2a64 => EngineKind::Packet,
        _ => EngineKind::Flow,
    }
}

/// Data elements per rank of the rings allreduce (64 MiB of FP32).
const RINGS_ELEMS: usize = (64 * MIB / hxcollect::ELEM_BYTES) as usize;

/// What [`setup`] builds and [`run`] reuses: the networks and schedules.
/// Engines, applications and cluster simulators are consumed by a run,
/// so [`run`] constructs fresh ones from these.
pub struct Inputs {
    pub workload: Workload,
    seed: u64,
    nets: Vec<Network>,
    sched: Option<Schedule>,
    /// The probe behind the networks' traced routers, when traced.
    route: Option<Arc<RouteProbe>>,
}

/// Build the workload's inputs from its seed. Everything one operation
/// needs is constructed here, including the engines, the applications'
/// schedule binding and the cluster simulator, so the time this takes is
/// the workload's whole set-up.
pub fn setup(w: Workload, seed: u64, tr: &mut Tracer) -> Inputs {
    let route = tr.enabled().then(|| Arc::new(RouteProbe::default()));
    let build = |tr: &mut Tracer, f: &dyn Fn() -> Network| {
        let net = tr.span("hxnet.build", |_| f());
        match &route {
            Some(probe) => trace_router(net, probe),
            None => net,
        }
    };
    let (nets, sched) = match w {
        Workload::FlowA2a16k | Workload::PacketA2a64 => {
            let (mesh, p, bytes, window, shifts) = a2a_shape(w);
            let net = build(tr, &|| mesh.build());
            drop(new_engine(&net, engine_kind(w), seed, tr));
            drop(Alltoall::with_shifts(p, bytes, window, shifts));
            (vec![net], None)
        }
        Workload::FlowRings256 => {
            let nets = vec![
                build(tr, &|| HxMeshParams::square(2, 8).build()),
                build(tr, &|| {
                    TorusParams {
                        cols: 16,
                        rows: 16,
                        board: 2,
                    }
                    .build()
                }),
            ];
            let sched = tr.span("hxcollect.sched", |_| {
                disjoint_rings_allreduce(16, 16, RINGS_ELEMS).0
            });
            for net in &nets {
                drop(tr.span("hxcollect.bind", |_| ScheduleApp::new(&sched)));
                drop(new_engine(net, EngineKind::Flow, seed, tr));
            }
            (nets, Some(sched))
        }
        Workload::ClusterHeavy8x8 => {
            drop(tr.span("hxcluster.new", |_| ClusterSim::new(cluster_config())));
            (Vec::new(), None)
        }
    };
    Inputs {
        workload: w,
        seed,
        nets,
        sched,
        route,
    }
}

// One short-lived value per simulation; boxing would buy nothing.
#[allow(clippy::large_enum_variant)]
enum AnyEngine<'n> {
    Packet(Engine<'n>),
    Flow(FlowEngine<'n>),
}

fn new_engine<'n>(net: &'n Network, kind: EngineKind, seed: u64, tr: &mut Tracer) -> AnyEngine<'n> {
    tr.span("hxsim.new", |_| match kind {
        EngineKind::Packet => AnyEngine::Packet(Engine::new(net, sim_config(seed))),
        EngineKind::Flow => AnyEngine::Flow(FlowEngine::new(net, sim_config(seed))),
    })
}

/// What one operation simulated, for the output check, the per-layer
/// counters and the transparency test.
#[derive(Debug)]
pub enum Outcome {
    Sims(Vec<SimStats>),
    Cluster(ClusterReport),
}

pub struct OpResult {
    /// Host seconds from the first simulated event to the checked result.
    pub wall_s: f64,
    pub check: Result<(), String>,
    pub outcome: Outcome,
    /// Application callbacks and the host seconds spent in them (traced
    /// runs only).
    pub app_callbacks: u64,
    pub app_busy_s: f64,
    /// Router calls during the operation (traced runs only).
    pub route: RouteCount,
    /// Links of the networks simulated, and operations of the schedule
    /// replayed (0 where the cluster builds its own).
    pub links: u64,
    pub sched_ops: u64,
}

impl Outcome {
    /// The simulated results checked against [`reference`]: each
    /// simulation's `finish_ps`, or the cluster's makespan and mean job
    /// completion time.
    pub fn results(&self) -> Vec<f64> {
        match self {
            Outcome::Sims(stats) => stats.iter().map(|s| s.finish_ps as f64).collect(),
            Outcome::Cluster(r) => vec![r.makespan_ps as f64, r.mean_jct_ps()],
        }
    }
}

/// Run one operation on `inp` and check its output. `wall_s` covers the
/// simulations and their checks, not the engine construction and
/// schedule binding that precede each simulation.
pub fn run(inp: &Inputs, tr: &mut Tracer) -> OpResult {
    let (w, seed) = (inp.workload, inp.seed);
    let route_before = inp.route.as_ref().map(|p| p.snapshot()).unwrap_or_default();
    let mut out = OpResult {
        wall_s: 0.0,
        check: Ok(()),
        outcome: Outcome::Sims(Vec::new()),
        app_callbacks: 0,
        app_busy_s: 0.0,
        route: RouteCount::default(),
        links: inp.nets.iter().map(|n| n.topo.num_links() as u64).sum(),
        sched_ops: inp.sched.as_ref().map_or(0, |s| s.num_ops() as u64),
    };
    let mut check = Ok(());
    match w {
        Workload::FlowA2a16k | Workload::PacketA2a64 => {
            let (_, p, bytes, window, shifts) = a2a_shape(w);
            let net = &inp.nets[0];
            let mut app = Alltoall::with_shifts(p, bytes, window, shifts);
            let engine = new_engine(net, engine_kind(w), seed, tr);
            let t = Instant::now();
            let stats = simulate(engine, &mut app, tr, &mut out);
            let msgs = p as u64 * shifts as u64;
            check = check_sim(&stats, net, msgs, msgs * bytes).and_then(|()| {
                if app.done_ranks as usize == p {
                    Ok(())
                } else {
                    Err(format!("{} of {p} ranks finished", app.done_ranks))
                }
            });
            out.wall_s += t.elapsed().as_secs_f64();
            out.outcome = Outcome::Sims(vec![stats]);
        }
        Workload::FlowRings256 => {
            let sched = inp.sched.as_ref().expect("rings inputs carry a schedule");
            let (msgs, bytes) = sends(sched);
            let mut all = Vec::new();
            for net in &inp.nets {
                let mut app = tr.span("hxcollect.bind", |_| ScheduleApp::new(sched));
                let engine = new_engine(net, EngineKind::Flow, seed, tr);
                let t = Instant::now();
                let stats = simulate(engine, &mut app, tr, &mut out);
                check = check
                    .and_then(|()| check_sim(&stats, net, msgs, bytes))
                    .and_then(|()| {
                        if app.is_done() {
                            Ok(())
                        } else {
                            Err("schedule not complete".to_string())
                        }
                    });
                out.wall_s += t.elapsed().as_secs_f64();
                all.push(stats);
            }
            out.outcome = Outcome::Sims(all);
        }
        Workload::ClusterHeavy8x8 => {
            let cfg = cluster_config();
            let jobs = cfg.num_jobs;
            let sim = tr.span("hxcluster.new", |_| ClusterSim::new(cfg));
            let t = Instant::now();
            let report = tr.span("hxcluster.run", |_| sim.run());
            check = check_cluster(&report, jobs);
            out.wall_s += t.elapsed().as_secs_f64();
            out.outcome = Outcome::Cluster(report);
        }
    }
    let t = Instant::now();
    out.check = check.and_then(|()| reference::check(w, &out.outcome.results()));
    out.wall_s += t.elapsed().as_secs_f64();
    if let Some(p) = &inp.route {
        out.route = p.snapshot().since(route_before);
    }
    out
}

/// Run `engine` to completion, through a [`TracedApp`] when tracing.
fn simulate(
    engine: AnyEngine,
    app: &mut dyn Application,
    tr: &mut Tracer,
    out: &mut OpResult,
) -> SimStats {
    let run = |app: &mut dyn Application| match engine {
        AnyEngine::Packet(e) => e.run(app),
        AnyEngine::Flow(e) => e.run(app),
    };
    tr.span("hxsim.run", |tr| {
        if !tr.enabled() {
            return run(app);
        }
        let mut traced = TracedApp::new(app);
        let stats = run(&mut traced);
        out.app_callbacks += traced.callbacks;
        out.app_busy_s += traced.busy_ns as f64 * 1e-9;
        stats
    })
}

/// Messages and bytes a schedule sends, as `ScheduleApp` issues them.
fn sends(sched: &Schedule) -> (u64, u64) {
    let mut msgs = 0;
    let mut bytes = 0;
    for op in sched.ops.iter().flatten() {
        if let OpKind::Send { payload, .. } = op.kind {
            msgs += 1;
            bytes += payload.bytes(sched.elem_bytes).max(1);
        }
    }
    (msgs, bytes)
}

/// Exact conservation plus the injection bound: every message delivered,
/// every byte accounted for, and no rank faster than its NICs allow.
fn check_sim(stats: &SimStats, net: &Network, msgs: u64, bytes: u64) -> Result<(), String> {
    if !stats.clean() {
        return Err(format!(
            "run not clean: timed_out={} undelivered={} error={:?}",
            stats.timed_out, stats.undelivered_messages, stats.error
        ));
    }
    if stats.messages_sent != msgs || stats.messages_delivered != msgs {
        return Err(format!(
            "messages sent {} / delivered {}, expected {msgs}",
            stats.messages_sent, stats.messages_delivered
        ));
    }
    if stats.bytes_delivered != bytes {
        return Err(format!(
            "bytes delivered {}, expected {bytes}",
            stats.bytes_delivered
        ));
    }
    let per_rank = bytes as f64 / net.num_ranks() as f64;
    let bound_ps = per_rank / net.injection_bytes_per_ps(0);
    if (stats.finish_ps as f64) < bound_ps {
        return Err(format!(
            "finished at {} ps, before the injection bound {bound_ps:.0} ps",
            stats.finish_ps
        ));
    }
    Ok(())
}

/// Every submitted job finished after it started, or was rejected.
fn check_cluster(report: &ClusterReport, jobs: usize) -> Result<(), String> {
    if report.jobs.len() != jobs {
        return Err(format!("{} of {jobs} jobs reported", report.jobs.len()));
    }
    let ran = |j: &&JobRecord| j.arrival_ps <= j.start_ps && j.start_ps < j.finish_ps;
    if let Some(j) = report.jobs.iter().find(|j| !j.rejected && !ran(j)) {
        return Err(format!("job {} did not run to completion: {j:?}", j.id));
    }
    if report.jobs.iter().all(|j| j.rejected) {
        return Err("every job was rejected".to_string());
    }
    Ok(())
}
