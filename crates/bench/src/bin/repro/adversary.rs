//! The edge of the self-stabilization envelope: how much byzantine mass
//! can the six rules carry before convergence — and the service built on
//! it — give way?
//!
//! Two scans share one crime catalog (`rechord_core::adversary`):
//!
//! * **core scan** — protocol-layer crimes (lying about successors,
//!   suppressing individual rules) over byzantine-fraction × crime × seed:
//!   rounds to *honest-stability* (the honest subset quiet for
//!   `HONEST_QUIET_ROUNDS` in a row — with persistent liars the global
//!   fixpoint may never exist) or the divergence cutoff, plus whether the
//!   honest ring ordering survived;
//! * **workload scan** — request-path crimes (dropped/misrouted forwards,
//!   poisoned reads, sybil waves, stalled heartbeats) under open-loop
//!   traffic: availability floor, corrupted-read rate, and the failure
//!   detector's suspicion count.
//!
//! `--smoke` runs a small grid and *asserts* the headline contract: a
//! fraction-0 adversary config is byte-identical to the honest simulator
//! (same request trace), availability degrades monotonically as the
//! corrupted fraction grows, and nothing panics even at fraction 1/2.
//! ci.sh runs it.

use rechord_bench::{
    json_fixed, json_object, results_dir, scenario_config, stable_net, write_json, Harness,
};
use rechord_core::adversary::{run_adversarial, AdversaryOutcome};
use rechord_core::{Crime, CrimeSet};
use rechord_topology::TimedChurnPlan;
use rechord_workload::{
    AdversaryConfig, DetectorConfig, SimReport, SloSummary, TrafficSim, WorkloadConfig,
};

/// Byzantine fractions scanned, smallest to largest. 0 is the control: it
/// must reproduce the honest runs exactly.
const FRACTIONS: [f64; 4] = [0.0, 0.125, 0.25, 0.5];

/// The protocol-layer (core scan) crime sets.
fn core_crimes() -> Vec<(&'static str, CrimeSet)> {
    vec![
        ("lie-successor", CrimeSet::single(Crime::LieAboutSuccessor)),
        ("suppress-own-rules", (2..=6).map(Crime::ViolateRule).collect()),
        ("suppress-linearize", CrimeSet::single(Crime::ViolateRule(4))),
        ("lie+suppress", CrimeSet::single(Crime::LieAboutSuccessor).with(Crime::ViolateRule(5))),
    ]
}

/// The request-path (workload scan) crime sets.
fn workload_crimes() -> Vec<(&'static str, CrimeSet)> {
    vec![
        ("drop-forward", CrimeSet::single(Crime::DropForward)),
        ("misroute", CrimeSet::single(Crime::MisrouteForward)),
        ("poison-reads", CrimeSet::single(Crime::StaleReadPoison)),
        ("stall-heartbeats", CrimeSet::single(Crime::StallHeartbeats)),
        ("sybil+poison", CrimeSet::single(Crime::SybilJoinWave).with(Crime::StaleReadPoison)),
        (
            "everything",
            CrimeSet::single(Crime::DropForward)
                .with(Crime::MisrouteForward)
                .with(Crime::StaleReadPoison)
                .with(Crime::StallHeartbeats)
                .with(Crime::SybilJoinWave)
                .with(Crime::LieAboutSuccessor),
        ),
    ]
}

struct Knobs {
    n: usize,
    seeds: Vec<u64>,
    /// Core-scan round budget: honest-stability not reached by then counts
    /// as divergence.
    cutoff: u64,
    horizon: u64,
    interarrival: f64,
}

struct CoreCell {
    crime: &'static str,
    seed: u64,
    out: AdversaryOutcome,
}

struct LoadCell {
    crime: &'static str,
    fraction: f64,
    seed: u64,
    summary: SloSummary,
    suspicions: usize,
    stable: bool,
}

impl LoadCell {
    /// Share of requests answered by a poisoning replica.
    fn corrupted_rate(&self) -> f64 {
        self.summary.corrupted as f64 / self.summary.total.max(1) as f64
    }
}

/// Serves `cfg`'s open-loop traffic on a stable overlay with no organic
/// churn: whatever goes wrong is the adversary's doing.
fn serve(cfg: WorkloadConfig, k: &Knobs) -> SimReport {
    let mut sim = TrafficSim::new(cfg, stable_net(k.n, cfg.seed), &TimedChurnPlan::default());
    sim.preload();
    sim.run()
}

fn run_load(crimes: CrimeSet, fraction: f64, seed: u64, k: &Knobs) -> SimReport {
    let mut cfg = scenario_config(seed, k.horizon, k.interarrival);
    cfg.adversary = AdversaryConfig {
        fraction,
        crimes,
        sybil_wave: if crimes.contains(Crime::SybilJoinWave) { 2 } else { 0 },
        sybil_at: k.horizon / 4,
    };
    if crimes.contains(Crime::StallHeartbeats) {
        // Give the stalled-heartbeat attack a detector worth attacking.
        cfg.detector = DetectorConfig { suspect_for: 400 };
    }
    serve(cfg, k)
}

/// The honest-control trace: the full per-request log of a run with the
/// all-default adversary/detector knobs.
fn honest_trace(seed: u64, k: &Knobs) -> String {
    serve(scenario_config(seed, k.horizon, k.interarrival), k).sink.trace()
}

/// For one crime, the smallest scanned fraction at which any seed trips
/// `failed` (`None` = clean everywhere we looked). Used for both envelope
/// edges: honest-stability lost (divergence) and honest ring ordering
/// corrupted.
fn boundary(
    cells: &[CoreCell],
    crime: &str,
    failed: impl Fn(&AdversaryOutcome) -> bool,
) -> Option<f64> {
    FRACTIONS.iter().copied().find(|&f| {
        cells
            .iter()
            .any(|c| c.crime == crime && (c.out.fraction - f).abs() < 1e-9 && failed(&c.out))
    })
}

/// Writes the scan record: the grid's configuration and one object per
/// core and per workload cell.
fn write_record(
    path: &std::path::Path,
    k: &Knobs,
    core: &[CoreCell],
    load: &[LoadCell],
) -> std::io::Result<()> {
    let config = json_object(&[
        ("peers", k.n.to_string()),
        ("seeds", k.seeds.len().to_string()),
        ("cutoff", k.cutoff.to_string()),
        ("horizon", k.horizon.to_string()),
        ("fractions", format!("{FRACTIONS:?}")),
    ]);
    let core = core
        .iter()
        .map(|c| {
            json_object(&[
                ("crime", format!("{:?}", c.crime)),
                ("seed", c.seed.to_string()),
                ("fraction", c.out.fraction.to_string()),
                ("byzantine", c.out.byzantine.to_string()),
                ("converged", c.out.converged.to_string()),
                ("rounds", c.out.rounds.to_string()),
                ("honest_ring_ok", c.out.honest_ring_ok.to_string()),
            ])
        })
        .collect();
    let load = load
        .iter()
        .map(|c| {
            json_object(&[
                ("crime", format!("{:?}", c.crime)),
                ("seed", c.seed.to_string()),
                ("fraction", c.fraction.to_string()),
                ("requests", c.summary.total.to_string()),
                ("availability", json_fixed(c.summary.availability)),
                ("corrupted_rate", json_fixed(c.corrupted_rate())),
                ("lost", c.summary.lost.to_string()),
                ("suspicions", c.suspicions.to_string()),
                ("stable", c.stable.to_string()),
                ("p99", c.summary.p99.to_string()),
            ])
        })
        .collect();
    write_json(path, &[("config", config)], &[("core", core), ("workload", load)])
}

pub fn run(h: &Harness) {
    let smoke = h.smoke;
    let (n, seeds, cutoff, horizon, interarrival) = if smoke {
        (16, vec![1, 2], 20_000, 6_000, 10.0)
    } else {
        (48, vec![1, 2, 3], 100_000, 20_000, 5.0)
    };
    let k = Knobs { n, seeds, cutoff, horizon, interarrival };
    println!(
        "Adversary scan: {} peers, seeds {:?}, fractions {:?}{}\n",
        k.n,
        k.seeds,
        FRACTIONS,
        if smoke { " [smoke]" } else { "" }
    );

    // ---- core scan: convergence under protocol-layer crimes -------------
    let mut core = Vec::new();
    println!("core scan (rounds to honest-stability; '-' = diverged at cutoff {}):", k.cutoff);
    println!(
        "{:<20} {:>8} {:>6} {:>4} {:>10} {:>6}",
        "crime", "fraction", "seed", "byz", "rounds", "ring"
    );
    for (name, crimes) in core_crimes() {
        for &fraction in &FRACTIONS {
            for &seed in &k.seeds {
                let (out, _) = run_adversarial(k.n, seed, fraction, crimes, k.cutoff);
                println!(
                    "{:<20} {:>8} {:>6} {:>4} {:>10} {:>6}",
                    name,
                    fraction,
                    seed,
                    out.byzantine,
                    if out.converged { out.rounds.to_string() } else { "-".into() },
                    if out.honest_ring_ok { "ok" } else { "BROKEN" }
                );
                core.push(CoreCell { crime: name, seed, out });
            }
        }
    }
    println!("\nenvelope edges per crime (first scanned fraction that failed):");
    for (name, _) in core_crimes() {
        let diverge = match boundary(&core, name, |o| !o.converged) {
            Some(f) => format!("diverges at {f}"),
            None => "honest-stable at every fraction".into(),
        };
        let ring = match boundary(&core, name, |o| !o.honest_ring_ok) {
            Some(f) => format!("honest ring breaks at {f}"),
            None => "honest ring survives every fraction".into(),
        };
        println!("  {name:<20} {diverge}; {ring}");
    }

    // ---- workload scan: service quality under request-path crimes -------
    let mut load = Vec::new();
    println!("\nworkload scan (open-loop traffic, no organic churn):");
    println!(
        "{:<18} {:>8} {:>6} {:>6} {:>7} {:>9} {:>6} {:>9} {:>7}",
        "crime", "fraction", "seed", "reqs", "avail", "corrupt", "lost", "suspects", "p99"
    );
    for (name, crimes) in workload_crimes() {
        for &fraction in &FRACTIONS {
            for &seed in &k.seeds {
                let r = run_load(crimes, fraction, seed, &k);
                let cell = LoadCell {
                    crime: name,
                    fraction,
                    seed,
                    summary: r.summary,
                    suspicions: r.suspicions,
                    stable: r.stable_at_end,
                };
                println!(
                    "{:<18} {:>8} {:>6} {:>6} {:>7.4} {:>9.4} {:>6} {:>9} {:>7}",
                    cell.crime,
                    cell.fraction,
                    cell.seed,
                    cell.summary.total,
                    cell.summary.availability,
                    cell.corrupted_rate(),
                    cell.summary.lost,
                    cell.suspicions,
                    cell.summary.p99
                );
                load.push(cell);
            }
        }
    }

    let path = results_dir().join("adversary.json");
    write_record(&path, &k, &core, &load).expect("write adversary.json");
    println!("\nwrote {}", path.display());

    // ---- assertions: the headline contract -------------------------------
    // (1) Fraction 0 is the honest simulator, bit for bit: declaring a
    // crime catalog with nobody to commit it must not move a single event.
    for &seed in &k.seeds {
        let honest = honest_trace(seed, &k);
        for (name, crimes) in workload_crimes() {
            // Note stall-heartbeats arms the detector (suspect_for > 0),
            // but with zero attackers nothing schedules a detector tick,
            // so it never raises a suspicion — parity must still hold.
            let r = run_load(crimes, 0.0, seed, &k);
            assert_eq!(
                r.sink.trace(),
                honest,
                "seed {seed}, crime {name}: fraction 0 must be trace-identical to honest"
            );
        }
    }
    println!("fraction-0 parity: all workload crime configs reproduce the honest trace");

    for c in core.iter().filter(|c| c.out.fraction == 0.0) {
        assert!(c.out.converged && c.out.honest_ring_ok, "fraction-0 core run must converge");
    }

    // (2) Monotone degradation: averaged over seeds, availability must not
    // improve as the corrupted fraction grows, and the largest fraction
    // must hurt measurably for the crimes that attack the request path
    // directly.
    for (name, _) in workload_crimes() {
        let mean_avail: Vec<f64> = FRACTIONS
            .iter()
            .map(|&f| {
                let cells: Vec<&LoadCell> = load
                    .iter()
                    .filter(|c| c.crime == name && (c.fraction - f).abs() < 1e-9)
                    .collect();
                cells.iter().map(|c| c.summary.availability).sum::<f64>() / cells.len() as f64
            })
            .collect();
        for w in mean_avail.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "{name}: availability must degrade monotonically in the corrupted fraction \
                 (got {mean_avail:?})"
            );
        }
        if name == "drop-forward" || name == "everything" {
            assert!(
                mean_avail[3] < mean_avail[0],
                "{name}: half the network corrupted must hurt (got {mean_avail:?})"
            );
        }
    }
    println!("monotone degradation: mean availability never improves with corruption");

    // (3) Poisoned reads surface as corruption, scaling with the fraction.
    let poison_rate = |f: f64| {
        load.iter()
            .filter(|c| c.crime == "poison-reads" && (c.fraction - f).abs() < 1e-9)
            .map(|c| c.corrupted_rate())
            .sum::<f64>()
    };
    assert_eq!(poison_rate(0.0), 0.0, "no corruption without attackers");
    assert!(poison_rate(0.5) > 0.0, "poisoning half the peers must corrupt some reads");

    // (4) Nothing panicked at fraction 1/2 (reaching this line is the
    // assertion), and every half-corrupted run still completed its scan.
    assert!(
        load.iter().filter(|c| (c.fraction - 0.5).abs() < 1e-9).all(|c| c.summary.total > 0),
        "fraction-1/2 runs must still process traffic"
    );
    println!("fraction-1/2 runs complete without panic");

    println!("\nadversary: all scan assertions hold");
}
