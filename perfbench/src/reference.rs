//! Reference results and the band a run's results must land in.
//!
//! Values are simulated picoseconds: `finish_ps` of each simulation
//! (`flow_rings_256`: Hx2Mesh, then torus), and for the cluster its
//! makespan and mean job completion time. Only `packet_a2a_64` depends
//! on the seed, by under 4% over the 16 seeds measured, so one value
//! per workload serves every seed. A failing check prints the result it
//! got; change these values only with a change that is meant to move
//! simulated results.
//!
//! The bands leave room for a max-min fill that drops `LEVEL_SLACK`
//! batching (route rates move by at most its 5%) while catching a
//! solver that is off by a larger factor.

use crate::Workload;

/// Allowed relative distance from the reference value.
fn band(w: Workload) -> f64 {
    match w {
        // Cluster results pass simulated iteration times through queueing
        // and placement, which amplify small rate changes.
        Workload::ClusterHeavy8x8 => 0.15,
        _ => 0.10,
    }
}

/// Reference values of workload `w`.
pub fn expected(w: Workload) -> &'static [f64] {
    match w {
        Workload::FlowA2a16k => &[13_957_941.0],
        Workload::FlowRings256 => &[1_027_038_469.0, 670_266_200.0],
        Workload::PacketA2a64 => &[830_000_000.0],
        Workload::ClusterHeavy8x8 => &[1_528_189_050_390.0, 244_179_771_297.8],
    }
}

/// Check `got` against the reference of workload `w`.
pub fn check(w: Workload, got: &[f64]) -> Result<(), String> {
    let want = expected(w);
    let band = band(w);
    if got.len() != want.len() {
        return Err(format!("{} results, expected {}", got.len(), want.len()));
    }
    for (g, e) in got.iter().zip(want) {
        if (g - e).abs() > band * e {
            return Err(format!(
                "result {g} is outside {e} +/- {:.0}%",
                band * 100.0
            ));
        }
    }
    Ok(())
}
