//! Regenerates **Fig. 7**: the cumulative distribution of the proportion
//! of boards allocated to jobs of a given size, for the synthetic stand-in
//! of the Alibaba MLaaS trace (README "Substitutions") and for the
//! mixes actually sampled onto a cluster.

use hammingmesh::hxalloc::workload::{JobMix, JobSizeDistribution};
use hxbench::{header, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse();
    let cluster = if args.full { 4096 } else { 1024 };
    let dist = JobSizeDistribution::default();

    header("Fig. 7 — board-weighted job-size CDF (synthetic Alibaba stand-in)");
    println!("{:>10} {:>12} {:>12}", "size", "original", "sampled");
    let sizes = [1usize, 2, 4, 8, 16, 32, 64, 100, 128, 256, 512, 1024];
    // "Original": the distribution itself; "sampled": mixes drawn to fill
    // the cluster (truncation changes the tail, as in the paper's figure).
    let traces = args.traces.unwrap_or(200);
    let cluster_dist = JobSizeDistribution::for_cluster(cluster);
    let mut sampled_sizes: Vec<usize> = Vec::new();
    for t in 0..traces {
        let mix = JobMix::draw(&cluster_dist, cluster, args.seed + t as u64);
        sampled_sizes.extend(mix.shapes.iter().map(|&(u, v)| u * v));
    }
    let total_boards: usize = sampled_sizes.iter().sum();
    for &s in &sizes {
        let original = dist.board_weighted_cdf(s, 100_000, args.seed);
        let sampled: usize = sampled_sizes.iter().filter(|&&x| x <= s).sum();
        println!(
            "{:>10} {:>11.1}% {:>11.1}%",
            s,
            original * 100.0,
            sampled as f64 / total_boards as f64 * 100.0
        );
    }
    println!(
        "\nPaper's calibration knee: ~39% of boards to jobs of <100 boards; ours at 100: {:.1}%",
        dist.board_weighted_cdf(100, 200_000, args.seed) * 100.0
    );
}
