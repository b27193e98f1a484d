//! The cluster-lifetime event loop.
//!
//! [`ClusterSim`] owns the composition: jobs arrive (Poisson, sized by the
//! Fig. 7 workload model), queue FIFO with backfill, get placed on the
//! [`hxalloc::BoardMesh`] with the paper's §IV-A heuristics, and then
//! *train*: each placed job's iteration time is measured by replaying its
//! `hxcollect::job_allreduce` schedule on its virtual sub-HxMesh inside
//! the [`hxsim`] flow engine (packet engine available for spot-checks).
//! Cable fail/repair events advance the network's failure epoch **during**
//! the run; every running job is then re-rated — progress is banked at the
//! old rate and the remainder proceeds at an iteration time re-measured on
//! the degraded (or repaired) network, served from a cache keyed on the
//! failure-set id so recurring sets cost one simulation total.
//!
//! An iteration sim that does run reuses what it can: the bound
//! `ScheduleApp` of the job's shape (grid rows, grid columns, elements per
//! rank). [`ClusterSim`] keeps one bound app per shape that some running
//! job has and rebinds it to each placement it measures
//! ([`ScheduleApp::rebind`]), so a lifetime generates and binds each shape
//! only while jobs of that shape run, not once per sim. Before every sim
//! the cache drops each shape no running job has, except the one being
//! measured (a job being placed is not running yet). Keeping every shape
//! ever seen would hold the schedules of long-gone jobs: on the 8x8 heavy
//! lifetime perfbench runs (`cluster_heavy_8x8`), that raised peak RSS
//! from 21 to 33 MiB. With eviction, that lifetime binds 27 times for 306
//! sims and holds at most 134,400 ops.
//!
//! Jobs are simulated in isolation even though they share the machine:
//! for HammingMesh this is the paper's §IV-A no-interference property
//! (traffic of a job placed on a virtual sub-HxMesh does not cross other
//! jobs' boards), so the approximation is exact on the healthy network
//! and only second-order under failures (failover detours can graze a
//! neighbor's lines). Queueing, placement, and failure dynamics — the
//! quantities this layer reports — are modeled exactly.

use crate::events::{Event, EventQueue};
use crate::job::{exponential_ps, sample_jobs, JobSpec};
use crate::metrics::{ClusterReport, JobRecord};
use hxalloc::workload::JobSizeDistribution;
use hxalloc::{AllocError, BoardMesh, Heuristics, Placement};
use hxcollect::allreduce::job_allreduce;
use hxcollect::simapp::ScheduleApp;
use hxnet::graph::FailureSetId;
use hxnet::hammingmesh::{HxCoord, HxMeshParams};
use hxnet::{Network, NodeId, PortId};
use hxsim::{simulate, EngineKind, FailureSchedule, LinkEventKind, SimConfig, SimStats};
use hxtelemetry::{CounterId, GaugeId, HistId, HistogramU64, Registry, Sampler, TraceSink};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

/// Everything a cluster run is parameterized by.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// The machine: an `x * y` board mesh of `a * b` boards (one plane).
    pub mesh: HxMeshParams,
    /// Jobs submitted over the run.
    pub num_jobs: usize,
    /// Mean Poisson interarrival gap.
    pub mean_interarrival_ps: u64,
    /// Job-size distribution (defaults to the Fig. 7 calibration capped
    /// to the cluster).
    pub size_dist: JobSizeDistribution,
    /// Uniform range of training iterations per job.
    pub iters: (u32, u32),
    /// Gradient bytes per accelerator reduced each iteration.
    pub grad_bytes: u64,
    /// Compute time of one iteration (ps).
    pub compute_ps: u64,
    /// Fraction of communication overlappable with compute (§V-B):
    /// iteration = compute + comm - min(overlap * comm, compute).
    pub overlap: f64,
    /// Placement heuristics (§IV-A/B).
    pub heuristics: Heuristics,
    /// When the head-of-queue job is blocked but its boards would fit the
    /// free space, run the §IV-A-b checkpoint/restart defragmentation and
    /// retry (the "incremental re-packing" policy).
    pub defrag_on_block: bool,
    /// Mean gap between cable failures; `None` disables fault injection.
    pub mean_fail_interval_ps: Option<u64>,
    /// Mean repair time of a failed cable.
    pub mean_repair_ps: u64,
    /// Measure the iteration *interrupted* by each fail/repair event with
    /// an in-situ [`FailureSchedule`] — the event lands mid-flight at the
    /// job's fractional position, flows re-route (or packets retransmit)
    /// inside the simulation, and the extra cost over the frozen-epoch
    /// model is charged to that job once. `false` (the default) keeps the
    /// classic frozen-epoch re-rate and byte-identical legacy output.
    pub in_situ_failures: bool,
    /// Simulation backend for iteration timing.
    pub engine: EngineKind,
    /// Master seed: arrivals, sizes, failure draws, and the network
    /// simulator's tie-breaking all derive from it.
    pub seed: u64,
}

impl ClusterConfig {
    /// Quick-scale default: an 8x8 Hx2Mesh (64 boards, 256 accelerators),
    /// 40 jobs, fail/repair churn fast enough that several epochs land
    /// inside the run. Finishes in seconds on the flow engine.
    pub fn quick() -> Self {
        let mesh = HxMeshParams::square(2, 8);
        let boards = mesh.x * mesh.y;
        Self {
            mesh,
            num_jobs: 40,
            mean_interarrival_ps: 40 * MS,
            size_dist: JobSizeDistribution::for_cluster(boards),
            iters: (40, 120),
            grad_bytes: 1 << 20,
            compute_ps: 2 * MS,
            overlap: 0.8,
            heuristics: Heuristics::all(),
            defrag_on_block: true,
            mean_fail_interval_ps: Some(200 * MS),
            mean_repair_ps: 150 * MS,
            in_situ_failures: false,
            engine: EngineKind::Flow,
            seed: 0xC0FFEE,
        }
    }
}

const MS: u64 = 1_000_000_000;

/// A placed, training job.
#[derive(Debug)]
struct Running {
    spec: JobSpec,
    placement: Placement,
    start_ps: u64,
    /// Iterations finished as of `last_update_ps` (fractional: an epoch
    /// change banks partial progress).
    done_iters: f64,
    last_update_ps: u64,
    /// Current full iteration time (compute + exposed communication).
    iter_ps: u64,
    /// Communication part of the current iteration (pre-overlap), kept so
    /// an in-situ event can be placed at the job's fractional position
    /// inside the communication phase.
    comm_ps: u64,
    /// Busy directed-link picoseconds one iteration contributes.
    busy_per_iter: u64,
    /// Invalidates stale completion events after a re-rate.
    generation: u32,
    resims: u32,
}

type IterKey = (Vec<usize>, Vec<usize>, FailureSetId, u64);

/// A job's `job_allreduce` shape: grid rows, grid columns, elements per
/// rank.
type Shape = (usize, usize, usize);

/// The cluster simulator. Build with [`ClusterSim::new`], consume with
/// [`ClusterSim::run`].
pub struct ClusterSim {
    cfg: ClusterConfig,
    net: Network,
    mesh: BoardMesh,
    jobs: Vec<JobSpec>,
    queue: VecDeque<u32>,
    /// Keyed and iterated in job-id order (a BTreeMap): metric sums and
    /// re-rates walk this map, and float summation order must not depend
    /// on hash-map iteration for runs to reproduce byte-identically.
    running: BTreeMap<u32, Running>,
    events: EventQueue,
    /// Iteration-time memo: (placement rows, cols, failure set, bytes) ->
    /// (communication ps, busy link-ps). The failure-set key means a
    /// fail -> repair cycle returning to a seen set costs no simulation.
    iter_cache: BTreeMap<IterKey, (u64, u64)>,
    /// Bound iteration schedules by job shape, each rebound per sim; only
    /// the shapes of running jobs stay (see the module doc).
    apps: BTreeMap<Shape, ScheduleApp>,
    records: BTreeMap<u32, JobRecord>,
    fail_rng: StdRng,
    // Metric integrals over time.
    last_metric_ps: u64,
    frag_integral: f64,
    util_integral: f64,
    busy_link_ps: f64,
    fail_events: u32,
    repair_events: u32,
    resims: u32,
    defrag_passes: u32,
    sim_invocations: u32,
    /// Flow re-routes observed inside in-situ interrupted-iteration sims.
    flows_rerouted: u64,
    // Telemetry. The enabled flags are cached at construction so every
    // hot-path site costs one branch when the channels are off.
    sink: TraceSink,
    tel_metrics: bool,
    tel_any: bool,
    reg: Registry,
    sampler: Sampler,
    c_jobs_queued: CounterId,
    c_jobs_placed: CounterId,
    c_jobs_preempted: CounterId,
    h_wait: HistId,
    h_jct: HistId,
    g_queue_depth: GaugeId,
    g_running_jobs: GaugeId,
    g_free_boards: GaugeId,
    // Streaming wait/JCT histograms, fed in complete_job and handed to
    // the report (plus merged into the registry when metrics are on).
    wait_hist: HistogramU64,
    jct_hist: HistogramU64,
}

impl ClusterSim {
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(cfg.num_jobs > 0, "a run needs jobs");
        let net = cfg.mesh.build();
        let mesh = BoardMesh::new(cfg.mesh.x, cfg.mesh.y);
        let mut workload_rng = StdRng::seed_from_u64(cfg.seed);
        let jobs = sample_jobs(
            cfg.num_jobs,
            cfg.mean_interarrival_ps,
            &cfg.size_dist,
            cfg.iters,
            cfg.grad_bytes,
            cfg.compute_ps,
            &mut workload_rng,
        );
        let mut events = EventQueue::new();
        for j in &jobs {
            events.push(j.arrival_ps, Event::Arrival(j.id));
        }
        let mut fail_rng = StdRng::seed_from_u64(cfg.seed ^ 0xFA11_FA11_FA11_FA11);
        if let Some(mean) = cfg.mean_fail_interval_ps {
            events.push(exponential_ps(mean, &mut fail_rng), Event::CableFail);
        }
        let trace = hxtelemetry::collect::trace_enabled();
        let tel_metrics = hxtelemetry::collect::metrics_enabled();
        let mut reg = Registry::new();
        let g_queue_depth = reg.gauge("queue_depth");
        let g_running_jobs = reg.gauge("running_jobs");
        let g_free_boards = reg.gauge("free_boards");
        // Sample cluster state once per mean interarrival gap of sim time;
        // the ring keeps the most recent 512 snapshots.
        let sampler = Sampler::new(
            &reg,
            cfg.mean_interarrival_ps,
            512,
            vec![g_queue_depth, g_running_jobs, g_free_boards],
        );
        Self {
            cfg,
            net,
            mesh,
            jobs,
            queue: VecDeque::new(),
            running: BTreeMap::new(),
            events,
            iter_cache: BTreeMap::new(),
            apps: BTreeMap::new(),
            records: BTreeMap::new(),
            fail_rng,
            last_metric_ps: 0,
            frag_integral: 0.0,
            util_integral: 0.0,
            busy_link_ps: 0.0,
            fail_events: 0,
            repair_events: 0,
            resims: 0,
            defrag_passes: 0,
            sim_invocations: 0,
            flows_rerouted: 0,
            sink: TraceSink::new(trace),
            tel_metrics,
            tel_any: trace || tel_metrics,
            c_jobs_queued: reg.counter("jobs_queued"),
            c_jobs_placed: reg.counter("jobs_placed"),
            c_jobs_preempted: reg.counter("jobs_preempted"),
            h_wait: reg.histogram("job_wait_ps"),
            h_jct: reg.histogram("job_jct_ps"),
            g_queue_depth,
            g_running_jobs,
            g_free_boards,
            reg,
            sampler,
            wait_hist: HistogramU64::new(),
            jct_hist: HistogramU64::new(),
        }
    }

    /// Run to completion and report. Every submitted job either finishes
    /// or is rejected (shape larger than the mesh in every orientation),
    /// so termination is structural: arrivals are finite, completions
    /// drain the queue, and stale events are skipped.
    pub fn run(mut self) -> ClusterReport {
        let mut makespan = 0u64;
        while let Some((now, ev)) = self.events.pop() {
            if !self.work_remains() {
                // Every job is done or rejected; whatever is left in the
                // heap (pending repairs, the next failure draw) happens on
                // an idle cluster and would only dilute the time averages.
                break;
            }
            self.integrate_metrics(now);
            match ev {
                Event::Arrival(id) => {
                    self.queue.push_back(id);
                    if self.tel_any {
                        self.sink.instant_args(
                            "job_queued",
                            "cluster",
                            now,
                            vec![("job", id as u64)],
                        );
                        self.reg.inc(self.c_jobs_queued, 1);
                    }
                    self.place_queued(now);
                }
                Event::Completion { job, generation } => {
                    let current = self.running.get(&job).map(|r| r.generation);
                    if current != Some(generation) {
                        continue; // stale: the job was re-rated meanwhile
                    }
                    self.complete_job(job, now);
                    makespan = makespan.max(now);
                    self.place_queued(now);
                }
                Event::CableFail => {
                    self.fail_one_cable(now);
                    if let Some(mean) = self.cfg.mean_fail_interval_ps {
                        let gap = exponential_ps(mean, &mut self.fail_rng);
                        self.events.push(now + gap.max(1), Event::CableFail);
                    }
                }
                Event::CableRepair { node, port } => {
                    if self.net.topo.restore_link(node, port) {
                        self.repair_events += 1;
                        if self.sink.enabled() {
                            self.sink.instant_args(
                                "cable_repair",
                                "cluster",
                                now,
                                vec![("node", node.0 as u64), ("port", port.0 as u64)],
                            );
                        }
                        self.rerate_with_event(now, Some((node, port, LinkEventKind::Repair)));
                    }
                }
            }
            if self.tel_metrics {
                self.reg.set(self.g_queue_depth, self.queue.len() as i64);
                self.reg.set(self.g_running_jobs, self.running.len() as i64);
                self.reg
                    .set(self.g_free_boards, self.mesh.free_boards() as i64);
            }
        }
        assert!(
            self.queue.is_empty() && self.running.is_empty(),
            "event queue drained with work left: {} queued, {} running",
            self.queue.len(),
            self.running.len()
        );
        if self.tel_any {
            if self.tel_metrics {
                self.reg.merge_hist(self.h_wait, &self.wait_hist);
                self.reg.merge_hist(self.h_jct, &self.jct_hist);
                let fails = self.reg.counter("cable_fails");
                self.reg.inc(fails, self.fail_events as u64);
                let repairs = self.reg.counter("cable_repairs");
                self.reg.inc(repairs, self.repair_events as u64);
            }
            let names = self.sampler.gauge_names().to_vec();
            let samples = self.sampler.take_samples();
            let reg = std::mem::take(&mut self.reg);
            let sink = std::mem::replace(&mut self.sink, TraceSink::disabled());
            hxtelemetry::collect::submit_with_samples(reg, sink, names, samples);
        }
        let mut jobs: Vec<JobRecord> = self.records.into_values().collect();
        jobs.sort_by_key(|r| r.id);
        let rejected_jobs = jobs.iter().filter(|j| j.rejected).count() as u32;
        let links = self.net.topo.num_links();
        ClusterReport {
            jobs,
            makespan_ps: makespan,
            frag_time_avg: if makespan > 0 {
                self.frag_integral / makespan as f64
            } else {
                0.0
            },
            util_time_avg: if makespan > 0 {
                self.util_integral / makespan as f64
            } else {
                0.0
            },
            link_util: if makespan > 0 && links > 0 {
                self.busy_link_ps / (2.0 * links as f64 * makespan as f64)
            } else {
                0.0
            },
            fail_events: self.fail_events,
            repair_events: self.repair_events,
            resims: self.resims,
            flows_rerouted: self.flows_rerouted,
            rejected_jobs,
            defrag_passes: self.defrag_passes,
            sim_invocations: self.sim_invocations,
            wait_hist: self.wait_hist,
            jct_hist: self.jct_hist,
        }
    }

    fn work_remains(&self) -> bool {
        !self.queue.is_empty() || !self.running.is_empty() || self.records.len() < self.jobs.len()
    }

    /// Advance the time integrals to `now` using the state that held on
    /// `[last_metric_ps, now)`.
    fn integrate_metrics(&mut self, now: u64) {
        if self.tel_metrics {
            // The gauges still hold the state that ruled on
            // [last_metric_ps, now), so snapshot before the event mutates.
            self.sampler.advance(now, &self.reg);
        }
        let dt = now.saturating_sub(self.last_metric_ps);
        if dt > 0 {
            let dtf = dt as f64;
            self.frag_integral += self.mesh.fragmentation() * dtf;
            self.util_integral += self.mesh.utilization() * dtf;
            for r in self.running.values() {
                self.busy_link_ps += dtf / r.iter_ps as f64 * r.busy_per_iter as f64;
            }
            self.last_metric_ps = now;
        }
    }

    /// FIFO-with-backfill placement pass: try the head; if it is blocked
    /// and defrag-on-block applies, checkpoint/restart-defragment once and
    /// retry; then let smaller queued jobs backfill around a still-blocked
    /// head. Shapes too large for the mesh in every orientation are
    /// rejected at first attempt.
    fn place_queued(&mut self, now: u64) {
        let mut defragged = false;
        let mut idx = 0;
        while idx < self.queue.len() {
            let id = self.queue[idx];
            let spec = self.jobs[id as usize].clone();
            match self.try_place(&spec, now) {
                Ok(()) => {
                    self.queue.remove(idx);
                    continue; // a placement may unblock nothing else, but
                              // re-test from the same index
                }
                Err(AllocError::TooLarge) => {
                    self.queue.remove(idx);
                    self.records.insert(
                        id,
                        JobRecord {
                            id,
                            boards: spec.boards(),
                            placed_u: 0,
                            placed_v: 0,
                            arrival_ps: spec.arrival_ps,
                            start_ps: u64::MAX,
                            finish_ps: 0,
                            resims: 0,
                            rejected: true,
                        },
                    );
                    continue;
                }
                Err(AllocError::NoSpace) => {
                    // Head blocked: one defrag attempt per pass, then
                    // backfill the rest of the queue around it.
                    if idx == 0
                        && self.cfg.defrag_on_block
                        && !defragged
                        && spec.boards() <= self.mesh.free_boards()
                    {
                        defragged = true;
                        self.defrag_passes += 1;
                        let dropped = self.mesh.defragment(self.cfg.heuristics);
                        debug_assert_eq!(dropped, 0, "defragment dropped jobs");
                        // Defragmentation moves (and may reshape) running
                        // jobs: refresh every placement from the mesh, so
                        // the re-rate below — and all later epoch
                        // measurements — simulate the boards the job
                        // *now* occupies, not the pre-defrag ones.
                        for (id, r) in self.running.iter_mut() {
                            let fresh = self
                                .mesh
                                .placement(*id)
                                // hxlint: allow(P001) defragment() restores or re-places every running job
                                .expect("running job lost by defragment")
                                .clone();
                            if self.tel_any && fresh != r.placement {
                                self.sink.instant_args(
                                    "job_preempted",
                                    "cluster",
                                    now,
                                    vec![("job", *id as u64)],
                                );
                                self.reg.inc(self.c_jobs_preempted, 1);
                            }
                            r.placement = fresh;
                        }
                        self.rerate_running(now);
                        continue; // retry the head on the compacted mesh
                    }
                    idx += 1;
                }
            }
        }
    }

    fn try_place(&mut self, spec: &JobSpec, now: u64) -> Result<(), AllocError> {
        let placement = self
            .mesh
            .allocate(spec.id, spec.u, spec.v, self.cfg.heuristics)?;
        let (comm_ps, busy) = self.measure_iteration(&placement, spec.grad_bytes);
        let iter_ps = iteration_ps(spec.compute_ps, comm_ps, self.cfg.overlap);
        if self.tel_any {
            self.sink.instant_args(
                "job_placed",
                "cluster",
                now,
                vec![
                    ("job", spec.id as u64),
                    ("boards", placement.boards() as u64),
                    ("rows", placement.rows.len() as u64),
                    ("cols", placement.cols.len() as u64),
                ],
            );
            self.reg.inc(self.c_jobs_placed, 1);
        }
        let finish = now + spec.iters as u64 * iter_ps;
        self.events.push(
            finish,
            Event::Completion {
                job: spec.id,
                generation: 0,
            },
        );
        self.running.insert(
            spec.id,
            Running {
                spec: spec.clone(),
                placement,
                start_ps: now,
                done_iters: 0.0,
                last_update_ps: now,
                iter_ps,
                comm_ps,
                busy_per_iter: busy,
                generation: 0,
                resims: 0,
            },
        );
        Ok(())
    }

    fn complete_job(&mut self, id: u32, now: u64) {
        let r = self
            .running
            .remove(&id)
            // hxlint: allow(P001) completions are only enqueued for jobs in `running`
            .expect("completion for unknown job");
        debug_assert_eq!(
            self.mesh.placement(id),
            Some(&r.placement),
            "job {id}: cached placement drifted from the mesh"
        );
        self.mesh.free(id);
        self.wait_hist.record(r.start_ps - r.spec.arrival_ps);
        self.jct_hist.record(now - r.spec.arrival_ps);
        self.records.insert(
            id,
            JobRecord {
                id,
                boards: r.placement.boards(),
                placed_u: r.placement.rows.len(),
                placed_v: r.placement.cols.len(),
                arrival_ps: r.spec.arrival_ps,
                start_ps: r.start_ps,
                finish_ps: now,
                resims: r.resims,
                rejected: false,
            },
        );
    }

    /// Draw one connectivity-preserving cable failure, schedule its
    /// repair, and re-rate every running job on the new epoch.
    fn fail_one_cable(&mut self, now: u64) {
        let mut pool = self.net.topo.cables();
        pool.shuffle(&mut self.fail_rng);
        for (node, port) in pool {
            if !self.net.topo.fail_link(node, port) {
                continue; // already failed
            }
            if !self.net.endpoints_connected() {
                self.net.topo.restore_link(node, port);
                continue;
            }
            self.fail_events += 1;
            if self.sink.enabled() {
                self.sink.instant_args(
                    "cable_fail",
                    "cluster",
                    now,
                    vec![("node", node.0 as u64), ("port", port.0 as u64)],
                );
            }
            let repair = exponential_ps(self.cfg.mean_repair_ps, &mut self.fail_rng);
            self.events
                .push(now + repair.max(1), Event::CableRepair { node, port });
            self.rerate_with_event(now, Some((node, port, LinkEventKind::Fail)));
            return;
        }
        // Every remaining cable is load-bearing: skip this failure draw.
    }

    /// A defrag moved the placements: bank each running job's progress at
    /// its old rate, re-measure its iteration time on the current network,
    /// and schedule a fresh completion.
    fn rerate_running(&mut self, now: u64) {
        self.rerate_with_event(now, None);
    }

    /// The failure epoch moved (or, with `event = None`, a defrag moved
    /// the placements): bank each running job's progress at its old rate,
    /// re-measure its iteration time on the current network, and schedule
    /// a fresh completion. With `in_situ_failures` on and a link event at
    /// hand, the iteration each job had in flight is additionally
    /// measured *in situ* — simulated from the pre-event epoch with the
    /// event injected at the job's fractional position, so flows re-route
    /// (or packets retransmit) inside the run — and the measured excess
    /// over the frozen-epoch model is charged to that job's finish time.
    fn rerate_with_event(&mut self, now: u64, event: Option<(NodeId, PortId, LinkEventKind)>) {
        let ids: Vec<u32> = self.running.keys().copied().collect(); // id order

        // In-situ pass: the communication time of each interrupted
        // iteration, keyed by job. Runs on the pre-event topology.
        let mut interrupted: BTreeMap<u32, u64> = BTreeMap::new();
        if self.cfg.in_situ_failures {
            if let Some((node, port, kind)) = event {
                // Flip the link back to the state the in-flight iterations
                // started under; the event then lands mid-simulation.
                let flipped = match kind {
                    LinkEventKind::Fail => self.net.topo.restore_link(node, port),
                    LinkEventKind::Repair => self.net.topo.fail_link(node, port),
                };
                debug_assert!(flipped, "epoch event did not change the link");
                for &id in &ids {
                    let (placement, grad_bytes, frac, comm_old) = {
                        let r = &self.running[&id];
                        let dt = now - r.last_update_ps;
                        let done = r.done_iters + dt as f64 / r.iter_ps as f64;
                        let frac = if done >= r.spec.iters as f64 {
                            0.0
                        } else {
                            done.fract()
                        };
                        (r.placement.clone(), r.spec.grad_bytes, frac, r.comm_ps)
                    };
                    if frac <= 0.0 || comm_old == 0 {
                        continue; // between iterations: nothing in flight
                    }
                    let t_mid = ((frac * comm_old as f64) as u64).max(1);
                    let sched = match kind {
                        LinkEventKind::Fail => FailureSchedule::new().fail(t_mid, node, port),
                        LinkEventKind::Repair => FailureSchedule::new().repair(t_mid, node, port),
                    };
                    let stats = self.run_iteration(&placement, grad_bytes, sched);
                    self.flows_rerouted += stats.flows_rerouted;
                    interrupted.insert(id, stats.finish_ps);
                }
                // Back to the post-event epoch for the steady-state rates.
                let restored = match kind {
                    LinkEventKind::Fail => self.net.topo.fail_link(node, port),
                    LinkEventKind::Repair => self.net.topo.restore_link(node, port),
                };
                debug_assert!(restored, "post-event epoch not restored");
            }
        }
        for id in ids {
            // Measure with the borrow released, then write back.
            let (placement, grad_bytes) = {
                let r = &self.running[&id];
                (r.placement.clone(), r.spec.grad_bytes)
            };
            let (comm_ps, busy) = self.measure_iteration(&placement, grad_bytes);
            // hxlint: allow(P001) `id` was read out of `running` just above
            let r = self.running.get_mut(&id).unwrap();
            let dt = now - r.last_update_ps;
            let old_iter_ps = r.iter_ps;
            let done_new = r.done_iters + dt as f64 / r.iter_ps as f64;
            let frac = if done_new >= r.spec.iters as f64 {
                0.0
            } else {
                done_new.fract()
            };
            r.done_iters = done_new.min(r.spec.iters as f64);
            r.last_update_ps = now;
            r.iter_ps = iteration_ps(r.spec.compute_ps, comm_ps, self.cfg.overlap);
            r.comm_ps = comm_ps;
            r.busy_per_iter = busy;
            r.generation += 1;
            r.resims += 1;
            self.resims += 1;
            // The frozen-epoch model prices the cut iteration as `frac`
            // at the old rate plus the remainder at the new; the in-situ
            // measurement replaces that with the simulated truth, and any
            // excess is a one-time charge on this job's finish.
            let penalty = interrupted
                .get(&id)
                .map(|&comm_mid| {
                    let in_situ =
                        iteration_ps(r.spec.compute_ps, comm_mid, self.cfg.overlap) as f64;
                    let frozen = frac * old_iter_ps as f64 + (1.0 - frac) * r.iter_ps as f64;
                    (in_situ - frozen).max(0.0) as u64
                })
                .unwrap_or(0);
            let remaining = (r.spec.iters as f64 - r.done_iters).max(0.0);
            let finish = now + (remaining * r.iter_ps as f64).ceil() as u64 + penalty;
            self.events.push(
                finish,
                Event::Completion {
                    job: id,
                    generation: r.generation,
                },
            );
        }
    }

    /// One iteration's communication time and busy link-ps for a placed
    /// job on the *current* network state, via the configured hxsim
    /// backend; memoized on (placement, failure set, bytes).
    fn measure_iteration(&mut self, placement: &Placement, grad_bytes: u64) -> (u64, u64) {
        let key: IterKey = (
            placement.rows.clone(),
            placement.cols.clone(),
            self.net.topo.failure_set_id(),
            grad_bytes,
        );
        if let Some(&hit) = self.iter_cache.get(&key) {
            return hit;
        }
        let stats = self.run_iteration(placement, grad_bytes, FailureSchedule::default());
        let out = (stats.finish_ps, stats.total_link_busy_ps);
        self.iter_cache.insert(key, out);
        out
    }

    /// The `job_allreduce` shape of a job placed on `placement`.
    fn shape(&self, placement: &Placement, grad_bytes: u64) -> Shape {
        (
            placement.rows.len() * self.cfg.mesh.a,
            placement.cols.len() * self.cfg.mesh.b,
            (grad_bytes / hxcollect::ELEM_BYTES) as usize,
        )
    }

    /// The shapes of the running jobs.
    fn running_shapes(&self) -> Vec<Shape> {
        self.running
            .values()
            .map(|r| self.shape(&r.placement, r.spec.grad_bytes))
            .collect()
    }

    /// Uncached: simulate one iteration of a placed job on the current
    /// network, with `failures` applied as in-run events (empty for the
    /// steady-state measurements). The in-situ path cannot memoize — the
    /// event lands at a per-job fractional instant, so no two interrupted
    /// iterations share a key.
    fn run_iteration(
        &mut self,
        placement: &Placement,
        grad_bytes: u64,
        failures: FailureSchedule,
    ) -> SimStats {
        let shape = self.shape(placement, grad_bytes);
        let running = self.running_shapes();
        self.apps.retain(|s, _| *s == shape || running.contains(s));
        let p = &self.cfg.mesh;
        let (grid_rows, grid_cols, elems) = shape;
        let mut mapping = Vec::with_capacity(grid_rows * grid_cols);
        for gi in 0..grid_rows {
            let bi = placement.rows[gi / p.a] as u16;
            let r = (gi % p.a) as u16;
            for gj in 0..grid_cols {
                let bj = placement.cols[gj / p.b] as u16;
                let c = (gj % p.b) as u16;
                mapping.push(p.rank_of(HxCoord { bi, bj, r, c }) as u32);
            }
        }
        let app = match self.apps.entry(shape) {
            Entry::Occupied(e) => {
                let app = e.into_mut();
                app.rebind(mapping);
                app
            }
            Entry::Vacant(e) => e.insert(ScheduleApp::with_mapping(
                &job_allreduce(grid_rows, grid_cols, elems),
                mapping,
            )),
        };
        let cfg = SimConfig {
            seed: self.cfg.seed ^ 0x51u64,
            failures,
            ..SimConfig::default()
        };
        let stats = simulate(&self.net, cfg, self.cfg.engine, app);
        assert!(
            stats.clean() && app.is_done(),
            "iteration sim incomplete for placement {:?}x{:?} under {:?}",
            placement.rows,
            placement.cols,
            self.net.topo.failure_set_id()
        );
        self.sim_invocations += 1;
        #[cfg(test)]
        {
            let cached = self.apps.keys().copied().collect();
            tests::APP_LOG.with_borrow_mut(|log| log.push((cached, running, shape)));
        }
        stats
    }
}

/// Iteration time under partial compute/communication overlap:
/// `compute + comm - min(overlap * comm, compute)`. With `overlap = 1`
/// this is `max(compute, comm)`; with `overlap = 0`, their sum.
pub fn iteration_ps(compute_ps: u64, comm_ps: u64, overlap: f64) -> u64 {
    let hidden = (overlap.clamp(0.0, 1.0) * comm_ps as f64).min(compute_ps as f64);
    compute_ps + comm_ps - hidden.round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// After one iteration sim: the cached shapes, the running jobs'
    /// shapes and the shape just measured.
    type AppRecord = (Vec<Shape>, Vec<Shape>, Shape);

    thread_local! {
        /// One record per iteration sim this thread ran.
        pub(super) static APP_LOG: RefCell<Vec<AppRecord>> = const { RefCell::new(Vec::new()) };
    }

    #[test]
    fn overlap_formula_limits() {
        assert_eq!(iteration_ps(100, 40, 0.0), 140);
        assert_eq!(iteration_ps(100, 40, 1.0), 100);
        assert_eq!(iteration_ps(40, 100, 1.0), 100);
        assert_eq!(iteration_ps(100, 40, 0.5), 120);
    }

    fn tiny_cfg() -> ClusterConfig {
        ClusterConfig {
            mesh: HxMeshParams::square(2, 4),
            num_jobs: 12,
            mean_interarrival_ps: 10 * MS,
            size_dist: JobSizeDistribution::for_cluster(16),
            iters: (3, 8),
            grad_bytes: 256 << 10,
            compute_ps: MS,
            mean_fail_interval_ps: Some(30 * MS),
            mean_repair_ps: 20 * MS,
            seed: 42,
            ..ClusterConfig::quick()
        }
    }

    #[test]
    fn tiny_cluster_run_completes_every_job() {
        let report = ClusterSim::new(tiny_cfg()).run();
        assert_eq!(report.jobs.len(), 12);
        assert!(report.jobs.iter().all(|j| j.rejected || j.finish_ps > 0));
        assert!(report.makespan_ps > 0);
        assert!(report.util_time_avg > 0.0 && report.util_time_avg <= 1.0);
        assert!((0.0..=1.0).contains(&report.frag_time_avg));
        assert!(report.link_util > 0.0 && report.link_util < 1.0);
        // Waits are consistent: start >= arrival, finish > start.
        for j in report.jobs.iter().filter(|j| !j.rejected) {
            assert!(j.start_ps >= j.arrival_ps, "{j:?}");
            assert!(j.finish_ps > j.start_ps, "{j:?}");
        }
    }

    #[test]
    fn same_seed_same_report_different_seed_different_schedule() {
        let a = ClusterSim::new(tiny_cfg()).run();
        let b = ClusterSim::new(tiny_cfg()).run();
        let mut csv_a = String::new();
        let mut csv_b = String::new();
        a.write_csv("x", &mut csv_a);
        b.write_csv("x", &mut csv_b);
        assert_eq!(csv_a, csv_b, "same seed must reproduce byte-identically");

        let c = ClusterSim::new(ClusterConfig {
            seed: 43,
            ..tiny_cfg()
        })
        .run();
        let mut csv_c = String::new();
        c.write_csv("x", &mut csv_c);
        assert_ne!(csv_a, csv_c, "different seed should differ");
    }

    #[test]
    fn failures_rerate_running_jobs() {
        // Aggressive churn: failures every few ms with slow repairs force
        // mid-run epochs; at least one job must have been re-rated, and
        // fail/repair counts must be consistent.
        let cfg = ClusterConfig {
            mean_fail_interval_ps: Some(5 * MS),
            mean_repair_ps: 50 * MS,
            ..tiny_cfg()
        };
        let report = ClusterSim::new(cfg).run();
        assert!(report.fail_events > 0, "no failures drawn");
        assert!(report.resims > 0, "failures never re-rated a running job");
        assert!(report.repair_events <= report.fail_events);
        assert!(report.jobs.iter().any(|j| j.resims > 0));
    }

    #[test]
    fn in_situ_failures_reroute_flows_under_heavy_churn() {
        // Heavy-load smoke: aggressive churn with in-situ measurement on
        // must catch at least one job's flows in flight on a failing (or
        // repairing) cable and re-route them inside the interrupted
        // iteration's simulation. The legacy frozen-epoch path must keep
        // the counter at zero, and every job still completes either way.
        let churn = |in_situ| ClusterConfig {
            mean_fail_interval_ps: Some(5 * MS),
            mean_repair_ps: 50 * MS,
            in_situ_failures: in_situ,
            ..tiny_cfg()
        };
        let report = ClusterSim::new(churn(true)).run();
        assert!(report.fail_events > 0, "no failures drawn");
        assert!(
            report.flows_rerouted >= 1,
            "in-situ epochs never rerouted a flow in flight"
        );
        assert_eq!(report.jobs.len(), 12);
        assert!(report.jobs.iter().all(|j| j.rejected || j.finish_ps > 0));

        let legacy = ClusterSim::new(churn(false)).run();
        assert_eq!(
            legacy.flows_rerouted, 0,
            "frozen-epoch model must not report in-situ re-routes"
        );
        // In-situ only ever *adds* a one-time charge to interrupted jobs:
        // the completion order and counts stay intact.
        assert_eq!(legacy.jobs.len(), report.jobs.len());
    }

    #[test]
    fn no_failures_means_no_resims() {
        let cfg = ClusterConfig {
            mean_fail_interval_ps: None,
            defrag_on_block: false,
            ..tiny_cfg()
        };
        let report = ClusterSim::new(cfg).run();
        assert_eq!(report.fail_events, 0);
        assert_eq!(report.resims, 0);
        assert!(report.jobs.iter().all(|j| j.resims == 0));
    }

    #[test]
    fn defrag_refreshes_running_placements() {
        // A saturating stream of half-cluster giants forces
        // defrag-on-block re-packs with jobs in flight; the placement
        // debug-assert in complete_job then verifies every cached
        // placement tracked the mesh through the moves.
        let cfg = ClusterConfig {
            num_jobs: 24,
            mean_interarrival_ps: 2 * MS,
            size_dist: JobSizeDistribution {
                max_boards: 8,
                ..JobSizeDistribution::for_cluster(16)
            },
            mean_fail_interval_ps: Some(25 * MS),
            // Rigid placement (no transpose/aspect/locality): requests
            // block on fragmented space far more often, which is what
            // drives the defrag path this test is after.
            heuristics: Heuristics::none(),
            ..tiny_cfg()
        };
        let report = ClusterSim::new(cfg).run();
        assert!(report.defrag_passes > 0, "load never triggered a defrag");
        assert_eq!(
            report.jobs.iter().filter(|j| !j.rejected).count() as u32 + report.rejected_jobs,
            24
        );
    }

    #[test]
    fn streaming_histograms_match_job_records() {
        let report = ClusterSim::new(tiny_cfg()).run();
        let completed = report.jobs.iter().filter(|j| !j.rejected).count() as u64;
        assert_eq!(report.wait_hist.count(), completed);
        assert_eq!(report.jct_hist.count(), completed);
        // The streaming percentile agrees with a sort within one bucket
        // (exact below 128 ps, <= 1/64 relative error above).
        let mut waits: Vec<u64> = report
            .jobs
            .iter()
            .filter(|j| !j.rejected)
            .map(|j| j.wait_ps())
            .collect();
        waits.sort_unstable();
        for p in [0.5, 0.9, 1.0] {
            let idx = ((waits.len() as f64 * p).ceil() as usize).clamp(1, waits.len()) - 1;
            let exact = waits[idx];
            let streamed = report.wait_percentile_ps(p);
            assert!(streamed >= exact, "p{p}: {streamed} < {exact}");
            assert!(
                streamed - exact <= exact / 64 + 1,
                "p{p}: {streamed} vs {exact}"
            );
        }
    }

    /// After every iteration sim the bound-app cache holds the shape just
    /// measured and otherwise only shapes of running jobs; the churn and
    /// defrag of the run both evict shapes and reuse bound apps.
    #[test]
    fn app_cache_holds_only_running_shapes() {
        let cfg = ClusterConfig {
            num_jobs: 24,
            mean_interarrival_ps: 4 * MS,
            mean_fail_interval_ps: Some(5 * MS),
            mean_repair_ps: 10 * MS,
            ..tiny_cfg()
        };
        APP_LOG.with_borrow_mut(Vec::clear);
        let report = ClusterSim::new(cfg).run();
        let log = APP_LOG.take();
        assert_eq!(log.len(), report.sim_invocations as usize);
        let mut binds = 0;
        let mut evictions = 0;
        let mut prev: &[Shape] = &[];
        for (cached, running, measured) in &log {
            assert!(cached.contains(measured), "{measured:?} not cached");
            for s in cached {
                assert!(
                    s == measured || running.contains(s),
                    "{s:?} cached, running {running:?}, measured {measured:?}"
                );
            }
            binds += usize::from(!prev.contains(measured));
            evictions += prev.iter().filter(|s| !cached.contains(s)).count();
            prev = cached;
        }
        assert!(evictions > 0, "no shape was ever evicted");
        assert!(
            binds < log.len(),
            "no bound app was reused: {binds} binds for {} sims",
            log.len()
        );
    }

    #[test]
    fn failure_set_cache_bounds_sim_invocations() {
        // measure_iteration is called once per placement plus once per
        // re-rate; the (placement, failure-set, bytes) memo must absorb
        // repeats — in particular fail -> repair cycles that return to the
        // healthy set. With churn enabled, strictly fewer network
        // simulations than measurement calls proves the cache hits.
        let cfg = ClusterConfig {
            mean_fail_interval_ps: Some(5 * MS),
            mean_repair_ps: 10 * MS,
            ..tiny_cfg()
        };
        let report = ClusterSim::new(cfg).run();
        let placed = report.jobs.iter().filter(|j| !j.rejected).count() as u32;
        let measure_calls = placed + report.resims;
        assert!(report.resims > 0, "churn produced no re-rates");
        assert!(
            report.sim_invocations < measure_calls,
            "no cache hits: {} sims for {} measurement calls",
            report.sim_invocations,
            measure_calls
        );
    }
}
