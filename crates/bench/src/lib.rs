//! Shared harness of the `repro` binary (one subcommand per figure /
//! theorem / experiment of the paper): the run settings parsed once, the
//! one sweep loop the figure experiments share, the workload scenario
//! baseline, and the one JSON emitter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rechord_analysis::{parallel_trials, seed_range, write_csv, Stats, Table};
use rechord_core::network::ReChordNetwork;
use rechord_sim::FixpointReport;
use rechord_topology::TopologyKind;
use rechord_workload::{LatencyModel, TrafficConfig, WorkloadConfig};
use std::path::{Path, PathBuf};

/// The paper's §5 sweep: "various numbers of (real) nodes: 5, 15, 25, 35,
/// 45, 65, 85, 105".
pub const PAPER_SIZES: [usize; 8] = [5, 15, 25, 35, 45, 65, 85, 105];

/// Round budget safety cap for stabilization runs.
pub const MAX_ROUNDS: u64 = 200_000;

/// The settings of one `repro` invocation, read once from the command line
/// and the environment and handed to every experiment.
#[derive(Clone, Copy, Debug)]
pub struct Harness {
    /// Trials per sweep point: the paper's "30 different graphs" unless
    /// `RECHORD_TRIALS` scales the sweeps down.
    pub trials: usize,
    /// OS threads the independent trials of a sweep point are spread over.
    pub threads: usize,
    /// `--smoke`: the small asserted configuration of the traffic-driving
    /// experiments (the figure sweeps are scaled by `trials` instead).
    pub smoke: bool,
}

impl Harness {
    /// Reads `[--smoke]` from `flags` and `RECHORD_TRIALS` from the
    /// environment; the error is the usage complaint to print.
    pub fn from_flags(flags: &[String]) -> Result<Self, String> {
        let trials = match std::env::var("RECHORD_TRIALS") {
            Err(_) => 30,
            // Zero trials would write an all-zero CSV that looks like data.
            Ok(s) => s
                .parse()
                .ok()
                .filter(|&t| t > 0)
                .ok_or(format!("RECHORD_TRIALS must be a positive integer, got `{s}`"))?,
        };
        let mut smoke = false;
        for flag in flags {
            match flag.as_str() {
                "--smoke" => smoke = true,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
        Ok(Harness { trials, threads, smoke })
    }

    /// The loop every figure/theorem experiment runs: at each point,
    /// `trials` independent trials on the seeds `seed_base(point)..`, spread
    /// over the harness threads with results in seed order, each trial
    /// returning `K` values that are reduced to one [`Stats`] per value.
    pub fn sweep<P: Copy + Sync, const K: usize>(
        &self,
        trials: usize,
        points: &[P],
        seed_base: impl Fn(P) -> u64,
        trial: impl Fn(P, u64) -> [f64; K] + Sync,
    ) -> Vec<Point<P, K>> {
        points
            .iter()
            .map(|&at| {
                let seeds = seed_range(seed_base(at), trials);
                let raw = parallel_trials(&seeds, self.threads, |seed| trial(at, seed));
                let stats = std::array::from_fn(|k| {
                    Stats::from_slice(&raw.iter().map(|r| r[k]).collect::<Vec<_>>())
                });
                Point { at, raw, stats }
            })
            .collect()
    }
}

/// The shared deployment baseline of the traffic-driving experiments
/// (traffic, sweep, adversary): 250-tick crash detection, 5–15-tick hop
/// latency, replication 2, 2-tick per-peer service time, a 128-hop
/// budget with 2 retries at 40-tick backoff, and a 50-tick round
/// cadence. Experiments override the knobs they vary (key universe,
/// round tempo, repair bandwidth) and leave the rest alone.
pub fn scenario_config(seed: u64, horizon: u64, interarrival: f64) -> WorkloadConfig {
    WorkloadConfig {
        seed,
        traffic: TrafficConfig {
            mean_interarrival: interarrival,
            key_universe: 256,
            zipf_exponent: 0.9,
            put_fraction: 0.1,
            hot_key: None,
        },
        traffic_start: 0,
        traffic_end: horizon,
        round_every: 50,
        latency: LatencyModel::Uniform { lo: 5, hi: 15 },
        replication: 2,
        max_retries: 2,
        retry_backoff: 40,
        hop_budget: 128,
        max_rounds: MAX_ROUNDS,
        detection_lag: 250,
        service_time: 2,     // finite per-peer capacity: loaded peers queue
        repair_bandwidth: 0, // instantaneous fixpoint repair unless overridden
        max_keys_per_peer: 0,
        ..Default::default() // honest peers, the accurate detector
    }
}

/// One point of a [`Harness::sweep`].
pub struct Point<P, const K: usize> {
    /// The swept parameter (a size, a topology × size, an ablated rule, …).
    pub at: P,
    /// The `K` values of every trial, in seed order.
    pub raw: Vec<[f64; K]>,
    /// Per value, the statistics over the trials.
    pub stats: [Stats; K],
}

impl<P, const K: usize> Point<P, K> {
    /// Sum of value `k` over the trials (exact for the counts it is used on).
    pub fn sum(&self, k: usize) -> f64 {
        self.raw.iter().map(|r| r[k]).sum()
    }
}

/// The per-point means of value `k`: one series of a figure, the input of
/// the `fit` lines.
pub fn means<P, const K: usize>(points: &[Point<P, K>], k: usize) -> Vec<f64> {
    points.iter().map(|p| p.stats[k].mean).collect()
}

/// A table cell: `x` with `decimals` fractional digits.
pub fn cell(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

/// Writes `table` as `<results dir>/<name>.csv` and says where.
pub fn write_table(name: &str, table: &Table) {
    let path = results_dir().join(format!("{name}.csv"));
    table.write_csv(&path).expect("write csv");
    println!("wrote {}", path.display());
}

/// Builds the paper's random weakly connected initial state and runs it to
/// the stable fixpoint, returning the network and the report. Panics if the
/// budget is exhausted (a convergence bug, not a tuning matter).
pub fn stabilized_random(n: usize, seed: u64) -> (ReChordNetwork, FixpointReport) {
    let topo = TopologyKind::Random.generate(n, seed);
    let mut net = ReChordNetwork::from_topology(&topo, 1);
    let report = net.run_until_stable(MAX_ROUNDS);
    assert!(report.converged, "n={n} seed={seed} did not stabilize in {MAX_ROUNDS} rounds");
    (net, report)
}

/// An already-stable overlay for the traffic-driving experiments to serve
/// requests on.
pub fn stable_net(n: usize, seed: u64) -> ReChordNetwork {
    let (net, report) = ReChordNetwork::bootstrap_stable(n, seed, 1, MAX_ROUNDS);
    assert!(report.converged, "seed {seed}: bootstrap must stabilize");
    net
}

/// Where experiment outputs are written (`RECHORD_RESULTS_DIR`, default
/// `results/`).
pub fn results_dir() -> PathBuf {
    PathBuf::from(std::env::var("RECHORD_RESULTS_DIR").unwrap_or_else(|_| "results".into()))
}

/// A float of an experiment record, six fractional digits; JSON has no
/// NaN/inf, so those become `null`.
pub fn json_fixed(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".into()
    }
}

/// One-line JSON object from already rendered values (numbers and booleans
/// by `to_string`, floats by [`json_fixed`], labels quoted by the caller's
/// `format!("{label:?}")`), so every field keeps its schema's precision.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let fields: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", fields.join(", "))
}

/// Writes one experiment record: the `head` fields on one line each, then
/// every grid as an array with one cell per line (`grep` and `diff` stay
/// useful on them).
pub fn write_json(
    path: &Path,
    head: &[(&str, String)],
    grids: &[(&str, Vec<String>)],
) -> std::io::Result<()> {
    let mut fields: Vec<String> = head.iter().map(|(k, v)| format!("  \"{k}\": {v}")).collect();
    for (key, cells) in grids {
        let cells: Vec<String> = cells.iter().map(|cell| format!("    {cell}")).collect();
        fields.push(format!("  \"{key}\": [\n{}\n  ]", cells.join(",\n")));
    }
    // `write_csv` is the analysis crate's "text to a file, parents created".
    write_csv(path, &format!("{{\n{}\n}}\n", fields.join(",\n")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_matches_paper() {
        assert_eq!(PAPER_SIZES, [5, 15, 25, 35, 45, 65, 85, 105]);
    }

    #[test]
    fn stabilized_random_converges() {
        let (net, report) = stabilized_random(6, 1);
        assert!(report.converged);
        assert_eq!(net.len(), 6);
    }
}
