//! `repro <experiment>|all [--smoke]` — every figure, theorem
//! and experiment of the paper, one subcommand each. An experiment prints
//! its table and the lines that compare it with the paper's claim, asserts
//! what must hold, and writes `results/<experiment>.csv` (or `.json`).
//!
//! `RECHORD_TRIALS` scales the figure sweeps down from the paper's 30
//! graphs per size; `--smoke` selects the small asserted configuration of
//! the traffic-driving experiments (ci.sh runs those); `RECHORD_RESULTS_DIR`
//! moves the outputs. Any other flag is a usage error (exit 2).

use rechord_bench::Harness;

mod adversary;
mod figures;
mod sweep;
mod traffic;

/// Subcommand, the claim it reproduces, entry point.
type Experiment = (&'static str, &'static str, fn(&Harness));

const EXPERIMENTS: [Experiment; 13] = [
    ("fig5", "Figure 5: stable-state edges and virtual nodes vs n", figures::fig5),
    ("fig6", "Figure 6: rounds to the stable / almost-stable state vs n", figures::fig6),
    ("fig7", "Figure 7: total edges vs total nodes, one point per run", figures::fig7),
    ("lemma31", "Lemma 3.1: O(log n) virtual nodes per gap, Θ(n log n) nodes", figures::lemma31),
    ("convergence", "Theorem 1.1: self-stabilization in O(n log n) rounds", figures::convergence),
    ("join_leave", "Theorems 4.1/4.2: O(log² n) join, O(log n) leave/crash", figures::join_leave),
    ("phases", "§3.1: first round each of the five proof phases holds", figures::phases),
    ("ablation", "§2.3: what breaks with each of rules 2–6 disabled", figures::ablation),
    ("baseline_compare", "§1: Chord stays loopy, Re-Chord merges", figures::baseline_compare),
    ("routing", "§1.1 / Fact 2.1: O(log n)-hop Chord routing on top", figures::routing),
    ("traffic", "client SLOs under churn: five open-loop scenarios", traffic::run),
    ("sweep", "SLO grid: seeds × storm intensities × repair bandwidths", sweep::run),
    ("adversary", "byzantine envelope: crimes × corrupted fraction", adversary::run),
];

fn usage(complaint: &str) -> ! {
    eprintln!("repro: {complaint}");
    eprintln!("usage: repro <experiment>|all [--smoke]\nexperiments:");
    for (name, claim, _) in EXPERIMENTS {
        eprintln!("  {name:<17} {claim}");
    }
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((which, flags)) = args.split_first() else { usage("no experiment named") };
    let selected: Vec<_> =
        EXPERIMENTS.iter().filter(|(name, ..)| which == "all" || which == name).collect();
    if selected.is_empty() {
        usage(&format!("unknown experiment `{which}`"));
    }
    let harness = Harness::from_flags(flags).unwrap_or_else(|complaint| usage(&complaint));
    for (k, (_, _, run)) in selected.iter().enumerate() {
        if k > 0 {
            println!("\n{}\n", "=".repeat(72));
        }
        run(&harness);
    }
}
