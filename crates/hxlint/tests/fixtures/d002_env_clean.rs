//! D002 fixture (clean): configuration arrives as an explicit value, and
//! the `std::env` functions that read no variable stay legal.
use std::path::PathBuf;

pub struct RunConfig {
    pub threads: usize,
}

pub fn threads(cfg: &RunConfig) -> usize {
    cfg.threads
}

pub fn scratch_file(name: &str) -> PathBuf {
    std::env::temp_dir().join(name)
}

pub fn invocation() -> (Vec<String>, std::io::Result<PathBuf>) {
    (std::env::args().collect(), std::env::current_dir())
}

pub fn manifest_dir() -> &'static str {
    env!("CARGO_MANIFEST_DIR")
}

#[cfg(test)]
mod tests {
    // Tests may read the environment: D002 only covers shipped library code.
    #[test]
    fn reads_home() {
        let _ = std::env::var("HOME");
    }
}
