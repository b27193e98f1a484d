//! Max-min fair allocation of one link-sharing component.
//!
//! [`Fill`] is the recycled scratch behind
//! [`super::FlowEngine::fill_component`]. A fill first copies its
//! component, unit by unit in canonical (flow id, route index) order,
//! into contiguous per-fill arrays: dense local link ids, one `u32`
//! buffer holding every unit's span of local link ids, and per-local-link
//! residual, unsatisfied-count and share arrays. The level rounds then
//! run over that copy, so each round reads contiguous memory; a route's
//! own link vector is read once per fill.

use super::FlowId;

/// Water-filling level slack: every route whose own bottleneck share is
/// within this factor of the round's tightest share freezes in the same
/// round, at its own share. Collapses clusters of near-identical levels
/// (ubiquitous under symmetric traffic) into one round each; the rate
/// assignment error is bounded by the slack and only affects routes whose
/// fair share was within 5% of the level anyway.
const LEVEL_SLACK: f64 = 0.05;

/// Scratch and result of one component fill, reused across fills so the
/// steady state allocates nothing. A *unit* is one (flow, route) pair.
#[derive(Default)]
pub(super) struct Fill {
    /// Per directed link of the network: `(fill stamp, local id)`. The
    /// local id belongs to the current fill only while the stamp equals
    /// `stamp`, so starting a fill costs no clearing pass.
    slot: Vec<(u32, u32)>,
    stamp: u32,
    /// Per local link: capacity left, units still crossing it (a route
    /// that crosses a link twice counts twice), and the fair share
    /// `residual / unsat` as of the current round.
    residual: Vec<f64>,
    unsat: Vec<u32>,
    share: Vec<f64>,
    /// Per local link: the last round whose freezes changed its residual.
    changed_in: Vec<u32>,
    /// Local links whose residual changed in the last round: the only
    /// shares the next round must recompute.
    changed: Vec<u32>,
    /// Local links some pending unit still crosses, in first-touch order.
    live: Vec<u32>,
    /// Unit `u` crosses the local links `links[start[u]..start[u + 1]]`.
    links: Vec<u32>,
    start: Vec<u32>,
    /// Per unit: the index of its flow in `flows`.
    unit_flow: Vec<u32>,
    /// Units not frozen yet, in canonical order.
    pending: Vec<u32>,
    /// Per flow, in push order: `(flow id, first unit, end unit)`.
    pub(super) flows: Vec<(FlowId, u32, u32)>,
    /// Per unit: the route's max-min rate (`-1.0` if it never froze).
    pub(super) unit_rate: Vec<f64>,
    /// Per entry of `flows`: the sum of the flow's route rates,
    /// accumulated in freeze order.
    pub(super) flow_rate: Vec<f64>,
}

impl Fill {
    /// Start a fill on a network of `nlinks` directed links.
    pub(super) fn begin(&mut self, nlinks: usize) {
        if self.slot.len() < nlinks {
            self.slot.resize(nlinks, (0, 0));
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.slot.fill((0, 0));
            self.stamp = 1;
        }
        self.residual.clear();
        self.unsat.clear();
        self.links.clear();
        self.start.clear();
        self.start.push(0);
        self.unit_flow.clear();
        self.flows.clear();
        self.unit_rate.clear();
        self.flow_rate.clear();
    }

    /// Append the next unit in canonical order: a route of `flow` over the
    /// directed links `route`, whose capacities `link_cap` holds.
    pub(super) fn push(&mut self, flow: FlowId, route: &[u32], link_cap: &[f64]) {
        let u = self.unit_rate.len() as u32;
        match self.flows.last_mut() {
            Some(last) if last.0 == flow => last.2 = u + 1,
            _ => {
                self.flows.push((flow, u, u + 1));
                self.flow_rate.push(0.0);
            }
        }
        self.unit_flow.push(self.flows.len() as u32 - 1);
        self.unit_rate.push(-1.0);
        for &li in route {
            let slot = &mut self.slot[li as usize];
            if slot.0 != self.stamp {
                *slot = (self.stamp, self.residual.len() as u32);
                self.residual.push(link_cap[li as usize]);
                self.unsat.push(0);
            }
            self.unsat[slot.1 as usize] += 1;
            self.links.push(slot.1);
        }
        self.start.push(self.links.len() as u32);
    }

    /// Max-min fair rates of the pushed units by progressive filling,
    /// batched by level: each round finds the tightest fair share over
    /// the still-constrained links, freezes **every** pending unit whose
    /// own bottleneck sits at (or within `LEVEL_SLACK` of) that level at
    /// its own share, and subtracts the shares from the links those units
    /// cross. Returns the number of rounds, which is proportional to the
    /// number of distinct bottleneck levels, not the number of links.
    ///
    /// Units freeze in push order within a round, and shares hold their
    /// round-start values while they do, so the float accumulations into
    /// `residual` and `flow_rate` happen in one fixed order. A share is a
    /// pure function of `(residual, unsat)`, so recomputing only the
    /// shares of links a round changed gives the same bits as recomputing
    /// all of them.
    pub(super) fn solve(&mut self) -> u64 {
        let Fill {
            residual,
            unsat,
            share,
            changed_in,
            changed,
            live,
            links,
            start,
            unit_flow,
            pending,
            unit_rate,
            flow_rate,
            ..
        } = self;
        let nlocal = residual.len() as u32;
        share.clear();
        share.resize(residual.len(), 0.0);
        changed_in.clear();
        changed_in.resize(residual.len(), 0);
        changed.clear();
        changed.extend(0..nlocal);
        live.clear();
        live.extend(0..nlocal);
        pending.clear();
        pending.extend(0..unit_rate.len() as u32);
        let mut rounds = 0u32;
        while !pending.is_empty() {
            for &l in changed.iter() {
                let l = l as usize;
                if unsat[l] > 0 {
                    share[l] = residual[l].max(0.0) / unsat[l] as f64;
                }
            }
            changed.clear();
            // The level: the tightest share over all still-constrained
            // links. Links no pending unit crosses leave for good.
            let mut level = f64::INFINITY;
            live.retain(|&l| {
                let l = l as usize;
                if unsat[l] == 0 {
                    return false;
                }
                if share[l] < level {
                    level = share[l];
                }
                true
            });
            if !level.is_finite() {
                break; // cannot happen: every pending unit crosses a link
            }
            rounds += 1;
            let lim = level * (1.0 + LEVEL_SLACK) + f64::MIN_POSITIVE;
            // Freeze every pending unit bottlenecked at (or within the
            // slack of) this level, each at its own bottleneck share.
            let before = pending.len();
            pending.retain(|&u| {
                let u = u as usize;
                let span = &links[start[u] as usize..start[u + 1] as usize];
                let mut own = f64::INFINITY;
                for &l in span {
                    let s = share[l as usize];
                    if s < own {
                        own = s;
                    }
                }
                if own > lim {
                    return true;
                }
                unit_rate[u] = own;
                flow_rate[unit_flow[u] as usize] += own;
                for &l in span {
                    let l = l as usize;
                    residual[l] -= own;
                    unsat[l] -= 1;
                    if changed_in[l] != rounds {
                        changed_in[l] = rounds;
                        changed.push(l as u32);
                    }
                }
                false
            });
            debug_assert!(pending.len() < before, "water-filling stalled");
        }
        u64::from(rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// What a fill computes: per-unit rates, per-flow rates, rounds.
    type Solved = (Vec<f64>, Vec<f64>, u64);

    /// A component: canonically ordered `(flow, route links)` units over
    /// a network with capacities `caps`.
    struct Component {
        units: Vec<(FlowId, Vec<u32>)>,
        caps: Vec<f64>,
    }

    /// The oracle: the same level rounds without the flat copy. Every
    /// round recomputes the share of every touched link and walks each
    /// pending unit's links through the input's own vectors.
    fn rescanning_fill(c: &Component) -> Solved {
        let n = c.caps.len();
        let (mut residual, mut unsat, mut share) = (vec![0.0; n], vec![0u32; n], vec![0.0; n]);
        let mut seen = vec![false; n];
        let mut touched = Vec::new();
        let mut unit_rate = vec![-1.0; c.units.len()];
        let mut flow_rate: Vec<f64> = Vec::new();
        let mut flow_of = Vec::new();
        for (u, (f, route)) in c.units.iter().enumerate() {
            if u == 0 || c.units[u - 1].0 != *f {
                flow_rate.push(0.0);
            }
            flow_of.push(flow_rate.len() - 1);
            for &li in route {
                let li = li as usize;
                if !seen[li] {
                    seen[li] = true;
                    residual[li] = c.caps[li];
                    touched.push(li);
                }
                unsat[li] += 1;
            }
        }
        let mut pending: Vec<usize> = (0..c.units.len()).collect();
        let mut rounds = 0;
        while !pending.is_empty() {
            let mut level = f64::INFINITY;
            for &li in &touched {
                if unsat[li] > 0 {
                    let s = residual[li].max(0.0) / unsat[li] as f64;
                    share[li] = s;
                    if s < level {
                        level = s;
                    }
                }
            }
            if !level.is_finite() {
                break;
            }
            rounds += 1;
            let lim = level * (1.0 + LEVEL_SLACK) + f64::MIN_POSITIVE;
            pending.retain(|&u| {
                let route = &c.units[u].1;
                let mut own = f64::INFINITY;
                for &li in route {
                    let s = share[li as usize];
                    if s < own {
                        own = s;
                    }
                }
                if own > lim {
                    return true;
                }
                unit_rate[u] = own;
                flow_rate[flow_of[u]] += own;
                for &li in route {
                    residual[li as usize] -= own;
                    unsat[li as usize] -= 1;
                }
                false
            });
        }
        (unit_rate, flow_rate, rounds)
    }

    fn flat_fill(fill: &mut Fill, c: &Component) -> Solved {
        fill.begin(c.caps.len());
        for (f, route) in &c.units {
            fill.push(*f, route, &c.caps);
        }
        let rounds = fill.solve();
        // The per-flow records the engine writes rates back through
        // partition the units, flow by flow.
        let mut end = 0;
        let records: Vec<_> = c
            .units
            .chunk_by(|a, b| a.0 == b.0)
            .map(|units| {
                end += units.len() as u32;
                (units[0].0, end - units.len() as u32, end)
            })
            .collect();
        assert_eq!(fill.flows, records);
        (fill.unit_rate.clone(), fill.flow_rate.clone(), rounds)
    }

    /// A random component of `nunits` units: flows of 1-4 routes with
    /// increasing ids, routes of 1-8 links drawn with replacement from a
    /// pool of 2-12 links scattered over a 64-link network (so links are
    /// shared and some routes cross a link twice). Capacities mix equal,
    /// near-equal (inside `LEVEL_SLACK`) and distant values.
    fn component(seed: u64, nunits: usize) -> Component {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = [0.05, 0.1, 1.0 / 3.0][rng.random_range(0..3usize)];
        let mult = [1.0, 1.0, 1.0, 1.01, 1.03, 1.049, 1.07, 1.5, 2.0, 0.4];
        let mut caps = vec![0.0; 64];
        let pool: Vec<u32> = (0..rng.random_range(2..13))
            .map(|_| {
                let li = rng.random_range(0..64u32);
                caps[li as usize] = base * mult[rng.random_range(0..mult.len())];
                li
            })
            .collect();
        let mut units = Vec::with_capacity(nunits);
        let mut flow: FlowId = rng.random_range(0..4);
        while units.len() < nunits {
            for _ in 0..rng.random_range(1..5usize).min(nunits - units.len()) {
                let route = (0..rng.random_range(1..9))
                    .map(|_| pool[rng.random_range(0..pool.len())])
                    .collect();
                units.push((flow, route));
            }
            flow += rng.random_range(1..5u32);
        }
        Component { units, caps }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The flat fill reproduces the rescanning fill bit for bit: route
        /// rates, flow rates and round counts. Two components run through
        /// one `Fill` back to back, so stale scratch would show.
        #[test]
        fn prop_flat_fill_matches_rescanning_fill(
            a in (1usize..65, 0u64..u64::MAX),
            b in (1usize..65, 0u64..u64::MAX),
        ) {
            let mut fill = Fill::default();
            for (nunits, seed) in [a, b] {
                let c = component(seed, nunits);
                let (want_u, want_f, want_r) = rescanning_fill(&c);
                let (got_u, got_f, got_r) = flat_fill(&mut fill, &c);
                prop_assert_eq!(bits(&got_u), bits(&want_u), "route rates diverged");
                prop_assert_eq!(bits(&got_f), bits(&want_f), "flow rates diverged");
                prop_assert_eq!(got_r, want_r, "round counts diverged");
            }
        }
    }

    /// The generator reaches the cases the property is about: multi-round
    /// fills, where level batching, round-start shares and the freeze
    /// order all matter.
    #[test]
    fn random_components_take_several_rounds() {
        let rounds: Vec<u64> = (0..256)
            .map(|seed| rescanning_fill(&component(seed, 1 + seed as usize % 64)).2)
            .collect();
        let deep = rounds.iter().filter(|&&r| r >= 3).count();
        assert!(
            deep >= 128,
            "only {deep} of 256 components took >= 3 rounds"
        );
    }

    /// Scratch is recycled: a second fill of the same component on a
    /// used `Fill` gives the same bits as on a fresh one, and neither
    /// grows the per-link slot table.
    #[test]
    fn scratch_is_recycled() {
        let c = component(7, 64);
        let mut fill = Fill::default();
        let first = flat_fill(&mut fill, &c);
        let cap = (fill.links.capacity(), fill.slot.len());
        let second = flat_fill(&mut fill, &c);
        assert_eq!(bits(&first.0), bits(&second.0));
        assert_eq!(bits(&first.1), bits(&second.1));
        assert_eq!(cap, (fill.links.capacity(), fill.slot.len()));
    }
}
