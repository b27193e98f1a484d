//! Cluster-run metrics: per-job records plus time-averaged cluster state,
//! and the deterministic CSV the `cluster_sweep` binary emits.

use hxtelemetry::HistogramU64;

/// Outcome of one job.
#[derive(Clone, Debug)]
pub struct JobRecord {
    pub id: u32,
    /// Boards actually granted (after transpose/aspect reshaping).
    pub boards: usize,
    /// Placed shape (rows x cols of boards); `(0, 0)` for rejected jobs.
    pub placed_u: usize,
    pub placed_v: usize,
    pub arrival_ps: u64,
    /// Placement time; `u64::MAX` when the job was rejected outright
    /// (its shape exceeds the mesh in every allowed orientation).
    pub start_ps: u64,
    pub finish_ps: u64,
    /// Times the job was re-rated by a mid-run fail/repair event.
    pub resims: u32,
    pub rejected: bool,
}

impl JobRecord {
    pub fn wait_ps(&self) -> u64 {
        if self.rejected {
            return 0;
        }
        self.start_ps - self.arrival_ps
    }

    pub fn jct_ps(&self) -> u64 {
        if self.rejected {
            return 0;
        }
        self.finish_ps - self.arrival_ps
    }
}

/// Everything a cluster-lifetime run reports.
#[derive(Clone, Debug, Default)]
pub struct ClusterReport {
    /// Per-job outcomes, in job-id (= arrival) order.
    pub jobs: Vec<JobRecord>,
    /// Time of the last completion.
    pub makespan_ps: u64,
    /// Time average of `BoardMesh::fragmentation()` over the run.
    pub frag_time_avg: f64,
    /// Time average of `BoardMesh::utilization()` over the run.
    pub util_time_avg: f64,
    /// Cluster-wide mean directed-link utilization: busy link-ps of every
    /// job iteration executed, over `2 * links * makespan`.
    pub link_util: f64,
    pub fail_events: u32,
    pub repair_events: u32,
    /// Total job re-ratings triggered by failure-epoch advances.
    pub resims: u32,
    /// Flow re-routes observed inside in-situ interrupted-iteration
    /// simulations (always 0 under the default frozen-epoch model —
    /// see `ClusterConfig::in_situ_failures`). Deliberately not a CSV
    /// column: the legacy `cluster_sweep` output stays byte-identical.
    pub flows_rerouted: u64,
    /// Jobs whose shape could never fit the mesh.
    pub rejected_jobs: u32,
    /// Defragmentation passes triggered by blocked head-of-queue jobs.
    pub defrag_passes: u32,
    /// Network simulations actually executed (iteration measurements that
    /// missed the failure-set cache).
    pub sim_invocations: u32,
}

impl ClusterReport {
    fn completed(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.iter().filter(|j| !j.rejected)
    }

    pub fn mean_wait_ps(&self) -> f64 {
        let n = self.completed().count();
        if n == 0 {
            return 0.0;
        }
        self.completed().map(|j| j.wait_ps() as f64).sum::<f64>() / n as f64
    }

    pub fn mean_jct_ps(&self) -> f64 {
        let n = self.completed().count();
        if n == 0 {
            return 0.0;
        }
        self.completed().map(|j| j.jct_ps() as f64).sum::<f64>() / n as f64
    }

    /// `p`-quantile (0..=1) of completed-job wait times, nearest-rank,
    /// answered from a histogram of `jobs` — no sort, no Vec of waits.
    /// Values below 128 ps are bucket-exact; larger ones are reported at
    /// their bucket's upper bound (relative error at most 1/64).
    pub fn wait_percentile_ps(&self, p: f64) -> u64 {
        self.histogram(JobRecord::wait_ps).percentile(p)
    }

    /// `p`-quantile (0..=1) of completed-job completion times.
    pub fn jct_percentile_ps(&self, p: f64) -> u64 {
        self.histogram(JobRecord::jct_ps).percentile(p)
    }

    fn histogram(&self, value: fn(&JobRecord) -> u64) -> HistogramU64 {
        let mut h = HistogramU64::new();
        for j in self.completed() {
            h.record(value(j));
        }
        h
    }

    /// CSV header shared by job and summary rows (`kind` discriminates).
    pub fn csv_header() -> &'static str {
        "kind,label,job,boards,placed_u,placed_v,arrival_ps,start_ps,finish_ps,\
         wait_ps,jct_ps,resims,frag_avg,util_avg,link_util,fails,repairs,\
         makespan_ps,mean_wait_ps,mean_jct_ps"
    }

    /// Append this run's rows (one per job, one summary) under `label`.
    /// Formatting is fixed-precision throughout, so identical runs render
    /// byte-identical CSVs.
    pub fn write_csv(&self, label: &str, out: &mut String) {
        use std::fmt::Write as _;
        for j in &self.jobs {
            if j.rejected {
                writeln!(
                    out,
                    "rejected,{label},{},{},0,0,{},,,,,0,,,,,,,,",
                    j.id, j.boards, j.arrival_ps
                )
                // hxlint: allow(P001) fmt::Write into a String is infallible
                .unwrap();
                continue;
            }
            writeln!(
                out,
                "job,{label},{},{},{},{},{},{},{},{},{},{},,,,,,,,",
                j.id,
                j.boards,
                j.placed_u,
                j.placed_v,
                j.arrival_ps,
                j.start_ps,
                j.finish_ps,
                j.wait_ps(),
                j.jct_ps(),
                j.resims
            )
            // hxlint: allow(P001) fmt::Write into a String is infallible
            .unwrap();
        }
        writeln!(
            out,
            "summary,{label},{},,,,,,,,,,{:.6},{:.6},{:.6},{},{},{},{:.1},{:.1}",
            self.jobs.len(),
            self.frag_time_avg,
            self.util_time_avg,
            self.link_util,
            self.fail_events,
            self.repair_events,
            self.makespan_ps,
            self.mean_wait_ps(),
            self.mean_jct_ps()
        )
        // hxlint: allow(P001) fmt::Write into a String is infallible
        .unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, arrival: u64, start: u64, finish: u64) -> JobRecord {
        JobRecord {
            id,
            boards: 4,
            placed_u: 2,
            placed_v: 2,
            arrival_ps: arrival,
            start_ps: start,
            finish_ps: finish,
            resims: 0,
            rejected: false,
        }
    }

    #[test]
    fn means_and_percentiles() {
        let r = ClusterReport {
            jobs: vec![rec(0, 0, 10, 110), rec(1, 5, 45, 145), rec(2, 10, 10, 20)],
            makespan_ps: 145,
            ..Default::default()
        };
        assert_eq!(r.mean_wait_ps(), (10.0 + 40.0 + 0.0) / 3.0);
        assert_eq!(r.mean_jct_ps(), (110.0 + 140.0 + 10.0) / 3.0);
        assert_eq!(r.wait_percentile_ps(0.5), 10);
        assert_eq!(r.wait_percentile_ps(1.0), 40);
        assert_eq!(r.jct_percentile_ps(0.5), 110);
    }

    #[test]
    fn histograms_ignore_rejected_jobs() {
        let mut r = ClusterReport {
            jobs: vec![rec(0, 0, 10, 110)],
            ..Default::default()
        };
        r.jobs.push(JobRecord {
            rejected: true,
            start_ps: u64::MAX,
            ..rec(1, 3, 0, 0)
        });
        assert_eq!(r.wait_percentile_ps(0.0), 10);
        assert_eq!(r.jct_percentile_ps(0.0), 110);
    }

    #[test]
    fn csv_is_rectangular() {
        let mut r = ClusterReport {
            jobs: vec![rec(0, 0, 10, 110)],
            makespan_ps: 110,
            ..Default::default()
        };
        r.jobs.push(JobRecord {
            rejected: true,
            start_ps: u64::MAX,
            ..rec(1, 3, 0, 0)
        });
        let mut csv = String::from(ClusterReport::csv_header());
        csv.push('\n');
        r.write_csv("test", &mut csv);
        let cols = ClusterReport::csv_header().split(',').count();
        for line in csv.lines() {
            assert_eq!(line.split(',').count(), cols, "{line}");
        }
        assert_eq!(csv.lines().count(), 1 + 2 + 1);
    }
}
