//! D002 fixture (broken): library code configured through the process
//! environment. Linted as `hxsim` lib code by `tests/fixtures.rs`; never
//! compiled.
use std::env::{self, var_os, vars};

pub fn rate_mode() -> String {
    std::env::var("HX_RATES").unwrap_or_default()
}

pub fn debug_enabled() -> bool {
    var_os("HXSIM_DEBUG").is_some() || vars().count() > 0
}

pub fn set_threads(n: usize) {
    env::set_var("RAYON_NUM_THREADS", n.to_string());
    env::remove_var("HX_RETRANSMIT");
}
