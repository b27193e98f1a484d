//! The traced run measures the same program as the timed run: with the
//! traced router and application wrappers installed and hxtelemetry's
//! metrics channel on, every workload's `SimStats` or `ClusterReport` is
//! identical, field for field and bit for bit, to the bare run's.
//!
//! One test walks every workload in turn: the telemetry switch is
//! process-wide, so the workloads must not run concurrently.

use perfbench::trace::Tracer;
use perfbench::{run, setup, Outcome, Workload};

#[test]
fn wrappers_change_no_simulated_result() {
    for w in Workload::ALL {
        let bare = run(&setup(w, 7, &mut Tracer::off()), &mut Tracer::off());
        assert_eq!(
            bare.check,
            Ok(()),
            "{}: bare run failed its check",
            w.name()
        );

        hxtelemetry::collect::set_metrics_enabled(true);
        let mut tr = Tracer::on();
        let traced = run(&setup(w, 7, &mut tr), &mut tr);
        hxtelemetry::collect::set_metrics_enabled(false);
        hxtelemetry::collect::reset();
        assert_eq!(
            traced.check,
            Ok(()),
            "{}: traced run failed its check",
            w.name()
        );

        // Debug output of a float round-trips exactly, so equal text means
        // equal bits.
        assert!(
            format!("{:?}", bare.outcome) == format!("{:?}", traced.outcome),
            "{}: traced run simulated something else",
            w.name()
        );

        // The wrappers were really in the path.
        if let Outcome::Sims(_) = traced.outcome {
            assert!(traced.route.calls > 0, "{}: no router calls seen", w.name());
            assert!(traced.app_callbacks > 0, "{}: no callbacks seen", w.name());
        }
        assert!(tr
            .spans()
            .iter()
            .any(|s| s.name == "hxsim.run" || s.name == "hxcluster.run"));
        tr.chrome_trace(w.name())
            .unwrap_or_else(|e| panic!("{}: invalid Chrome trace: {e}", w.name()));
    }
}

#[test]
fn reference_band_rejects_a_solver_off_by_a_fifth() {
    use perfbench::reference::{check, expected};
    for w in Workload::ALL {
        let want = expected(w);
        assert_eq!(check(w, want), Ok(()));
        let slow: Vec<f64> = want.iter().map(|v| v * 1.2).collect();
        let fast: Vec<f64> = want.iter().map(|v| v / 1.2).collect();
        assert!(check(w, &slow).is_err(), "{}", w.name());
        assert!(check(w, &fast).is_err(), "{}", w.name());
    }
}
