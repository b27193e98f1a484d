//! Named metric handles: counters, gauges, and histograms registered once
//! and updated through copyable ids, plus a sim-time gauge sampler.
//!
//! The registry is deliberately a plain value type — engines own a local
//! `Registry`, update it lock-free on the hot path, and hand it to
//! [`crate::collect::submit`] when the run retires. Names are resolved to
//! ids exactly once at construction, so the per-event cost is an indexed
//! add. Everything is keyed on *simulated* time; there is no wall clock
//! anywhere in this module.

use crate::hist::HistogramU64;

/// Handle for a monotonically increasing counter.
#[derive(Clone, Copy, Debug)]
pub struct CounterId(usize);

/// Handle for a point-in-time signed gauge.
#[derive(Clone, Copy, Debug)]
pub struct GaugeId(usize);

/// Handle for a [`HistogramU64`].
#[derive(Clone, Copy, Debug)]
pub struct HistId(usize);

/// A bag of named metrics. Registration is idempotent per name.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, i64)>,
    hists: Vec<(String, HistogramU64)>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or look up) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(i);
        }
        self.counters.push((name.to_string(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Register (or look up) a gauge by name.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(n, _)| n == name) {
            return GaugeId(i);
        }
        self.gauges.push((name.to_string(), 0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Register (or look up) a full-range histogram by name.
    pub fn histogram(&mut self, name: &str) -> HistId {
        self.histogram_with_max(name, u64::MAX)
    }

    /// Register (or look up) a histogram that saturates at `max_value`.
    pub fn histogram_with_max(&mut self, name: &str, max_value: u64) -> HistId {
        if let Some(i) = self.hists.iter().position(|(n, _)| n == name) {
            return HistId(i);
        }
        self.hists
            .push((name.to_string(), HistogramU64::with_max(max_value)));
        HistId(self.hists.len() - 1)
    }

    #[inline]
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counters[id.0].1 += by;
    }

    #[inline]
    pub fn set(&mut self, id: GaugeId, value: i64) {
        self.gauges[id.0].1 = value;
    }

    #[inline]
    pub fn add(&mut self, id: GaugeId, delta: i64) {
        self.gauges[id.0].1 += delta;
    }

    #[inline]
    pub fn record(&mut self, id: HistId, value: u64) {
        self.hists[id.0].1.record(value);
    }

    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    pub fn gauge_value(&self, id: GaugeId) -> i64 {
        self.gauges[id.0].1
    }

    pub fn gauge_name(&self, id: GaugeId) -> &str {
        &self.gauges[id.0].0
    }

    pub fn hist(&self, id: HistId) -> &HistogramU64 {
        &self.hists[id.0].1
    }

    /// Counters as `(name, value)`, sorted by name.
    pub fn counters_sorted(&self) -> Vec<(&str, u64)> {
        let mut v: Vec<_> = self
            .counters
            .iter()
            .map(|(n, c)| (n.as_str(), *c))
            .collect();
        v.sort_unstable_by(|a, b| a.0.cmp(b.0));
        v
    }

    /// Gauges as `(name, value)`, sorted by name.
    pub fn gauges_sorted(&self) -> Vec<(&str, i64)> {
        let mut v: Vec<_> = self.gauges.iter().map(|(n, g)| (n.as_str(), *g)).collect();
        v.sort_unstable_by(|a, b| a.0.cmp(b.0));
        v
    }

    /// Histograms as `(name, hist)`, sorted by name.
    pub fn hists_sorted(&self) -> Vec<(&str, &HistogramU64)> {
        let mut v: Vec<_> = self.hists.iter().map(|(n, h)| (n.as_str(), h)).collect();
        v.sort_unstable_by(|a, b| a.0.cmp(b.0));
        v
    }

    /// True when nothing was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Fold another registry into this one by name: counters add, gauges
    /// take the incoming value (last write wins), histograms merge.
    pub fn merge(&mut self, other: &Registry) {
        for (name, v) in &other.counters {
            let id = self.counter(name);
            self.counters[id.0].1 += *v;
        }
        for (name, v) in &other.gauges {
            let id = self.gauge(name);
            self.gauges[id.0].1 = *v;
        }
        for (name, h) in &other.hists {
            if let Some(i) = self.hists.iter().position(|(n, _)| n == name) {
                self.hists[i].1.merge(h);
            } else {
                self.hists.push((name.clone(), h.clone()));
            }
        }
    }
}

/// One sampler snapshot: the simulated timestamp and the sampled gauge
/// values, in the order the sampler was configured with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    pub ts_ps: u64,
    pub values: Vec<i64>,
}

/// Snapshots selected gauges every `period_ps` of *simulated* time into a
/// bounded ring (oldest samples evicted first). Drive it from the event
/// loop with [`Sampler::advance`]; it never reads a clock of its own, so
/// it passes the D002 determinism rule by construction.
#[derive(Clone, Debug)]
pub struct Sampler {
    period_ps: u64,
    next_ps: u64,
    cap: usize,
    gauges: Vec<GaugeId>,
    gauge_names: Vec<String>,
    ring: std::collections::VecDeque<Sample>,
}

impl Sampler {
    /// A sampler over `gauges`, firing every `period_ps`, keeping the most
    /// recent `cap` samples. A zero period disables sampling entirely.
    pub fn new(reg: &Registry, period_ps: u64, cap: usize, gauges: Vec<GaugeId>) -> Self {
        let gauge_names = gauges
            .iter()
            .map(|&g| reg.gauge_name(g).to_string())
            .collect();
        Sampler {
            period_ps,
            next_ps: period_ps,
            cap,
            gauges,
            gauge_names,
            ring: std::collections::VecDeque::new(),
        }
    }

    /// Advance simulated time to `now_ps`, emitting one snapshot per
    /// period boundary crossed. Boundaries that would immediately be
    /// evicted from the ring are skipped, so a large time jump costs at
    /// most `cap` snapshots.
    pub fn advance(&mut self, now_ps: u64, reg: &Registry) {
        if self.period_ps == 0 || self.cap == 0 || now_ps < self.next_ps {
            return;
        }
        let crossed = (now_ps - self.next_ps) / self.period_ps + 1;
        let skip = crossed.saturating_sub(self.cap as u64);
        let mut ts = self.next_ps + skip * self.period_ps;
        for _ in 0..crossed - skip {
            if self.ring.len() == self.cap {
                self.ring.pop_front();
            }
            let values = self.gauges.iter().map(|&g| reg.gauge_value(g)).collect();
            self.ring.push_back(Sample { ts_ps: ts, values });
            ts += self.period_ps;
        }
        self.next_ps += crossed * self.period_ps;
    }

    /// Names of the sampled gauges, in column order.
    pub fn gauge_names(&self) -> &[String] {
        &self.gauge_names
    }

    /// Drain the ring, oldest first.
    pub fn take_samples(&mut self) -> Vec<Sample> {
        self.ring.drain(..).collect()
    }

    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let mut r = Registry::new();
        let c = r.counter("events");
        let g = r.gauge("depth");
        r.inc(c, 3);
        r.inc(c, 4);
        r.set(g, -2);
        r.add(g, 5);
        assert_eq!(r.counter_value(c), 7);
        assert_eq!(r.gauge_value(g), 3);
        // Registration is idempotent: same name, same slot.
        let c2 = r.counter("events");
        r.inc(c2, 1);
        assert_eq!(r.counter_value(c), 8);
    }

    #[test]
    fn merge_sums_counters_and_merges_hists() {
        let mut a = Registry::new();
        let ca = a.counter("n");
        let ha = a.histogram("lat");
        a.inc(ca, 2);
        a.record(ha, 10);
        let mut b = Registry::new();
        let cb = b.counter("n");
        let hb = b.histogram("lat");
        b.inc(cb, 5);
        b.record(hb, 40);
        a.merge(&b);
        assert_eq!(a.counter_value(ca), 7);
        assert_eq!(a.hist(ha).count(), 2);
        assert_eq!(a.hist(ha).max(), 40);
    }

    #[test]
    fn sampler_fires_on_period_boundaries_and_bounds_the_ring() {
        let mut r = Registry::new();
        let g = r.gauge("q");
        let mut s = Sampler::new(&r, 10, 3, vec![g]);
        r.set(g, 1);
        s.advance(25, &r); // boundaries at 10, 20
        r.set(g, 9);
        s.advance(95, &r); // boundaries at 30..=90, ring keeps last 3
        let rows = s.take_samples();
        assert_eq!(
            rows,
            vec![
                Sample {
                    ts_ps: 70,
                    values: vec![9]
                },
                Sample {
                    ts_ps: 80,
                    values: vec![9]
                },
                Sample {
                    ts_ps: 90,
                    values: vec![9]
                },
            ]
        );
        // Next boundary is 100, untouched by the drain.
        s.advance(100, &r);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn sampler_with_zero_period_never_fires() {
        let mut r = Registry::new();
        let g = r.gauge("q");
        let mut s = Sampler::new(&r, 0, 8, vec![g]);
        s.advance(1_000_000, &r);
        assert!(s.is_empty());
    }
}
