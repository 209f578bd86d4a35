//! Statistical SLO sweep: seeds × churn intensities × repair bandwidths,
//! as a grid.
//!
//! `traffic --smoke` asserts SLO recovery for *pinned* seeds; this
//! experiment makes the claim statistical. It scans a grid of master seeds × churn
//! intensities (join-heavy storms of increasing size) × anti-entropy
//! repair bandwidths (keys moved per tick; 0 = infinite, the instantaneous
//! pre-paced model), runs the full co-simulated workload for every cell,
//! and reports the **availability floor** (worst windowed availability
//! over the run) and p99 latency per cell plus grid-level aggregates —
//! along with the placement engine's repair cost and timeline (keys moved,
//! arcs touched, backlog peak, ticks, slowest time-to-full-replication) so
//! both the O(moved keys) claim and the bandwidth/availability trade-off
//! are visible across the whole grid.
//!
//! Output: a human table on stdout and machine-readable JSON under
//! `results/sweep.json` (`--smoke` writes `results/sweep_smoke.json`).
//!
//! `--smoke` runs a tiny deterministic grid and *asserts* the headline
//! behavior: every cell re-stabilizes and recovers at the tail, the repair
//! timeline is internally consistent (a pass never moves more keys than
//! its starting backlog), and the availability floor degrades monotonically
//! as the repair bandwidth shrinks. ci.sh runs it, so neither the
//! statistical harness nor the paced-repair model can silently rot.

use rechord_analysis::Table;
use rechord_bench::{
    json_fixed, json_object, results_dir, scenario_config, stable_net, write_json, Harness,
};
use rechord_topology::TimedChurnPlan;
use rechord_workload::{SloSummary, TrafficSim};

/// Shared between the runs and the JSON config block, so the record always
/// matches the experiment.
const REPLICATION: usize = 2;
const SERVICE_TIME: u64 = 2;
const KEY_UNIVERSE: u64 = 4_096;

struct Knobs {
    n: usize,
    horizon: u64,
    interarrival: f64,
    window: u64,
    seeds: Vec<u64>,
    intensities: Vec<usize>,
    /// Keys repaired per tick; 0 = infinite (instantaneous fixpoint repair).
    bandwidths: Vec<usize>,
}

struct Cell {
    seed: u64,
    storm_events: usize,
    repair_bandwidth: usize,
    /// The run's SLO summary, repair cost and timeline included.
    summary: SloSummary,
    /// Worst windowed availability over the run (the "floor").
    floor: f64,
    /// Availability of the final window (did the SLO recover?).
    tail: f64,
    lost_keys: usize,
    stable: bool,
    /// Passes churn preempted mid-drain.
    preempted_repairs: usize,
}

fn run_cell(seed: u64, storm_events: usize, bandwidth: usize, k: &Knobs) -> Cell {
    // The shared deployment baseline, with this experiment's overrides:
    // a bigger uniform key universe (staleness anywhere is sampled), fast
    // rounds so fixpoints land between churn strikes, and the swept
    // repair bandwidth.
    let mut cfg = scenario_config(seed, k.horizon, k.interarrival);
    cfg.traffic.key_universe = KEY_UNIVERSE;
    cfg.traffic.zipf_exponent = 0.0;
    cfg.round_every = 10;
    cfg.replication = REPLICATION;
    cfg.service_time = SERVICE_TIME;
    cfg.repair_bandwidth = bandwidth;
    // A join-heavy storm in the middle of the run; intensity = how many
    // churn events strike. Joins are what make repair bandwidth *visible*:
    // every split arc is unreadable at its new primary until the paced
    // drain copies it over, so a starved budget stretches the stale window
    // (crashes, by contrast, leave in-window survivors that keep serving).
    let storm = TimedChurnPlan::storm(storm_events, 0.7, k.horizon / 4, 300, seed ^ 0x5eed);
    let mut sim = TrafficSim::new(cfg, stable_net(k.n, seed), &storm);
    sim.preload();
    let r = sim.run();
    let windows = r.sink.windows(k.window);
    let floor = windows.iter().map(|w| w.availability()).fold(1.0f64, f64::min);
    let tail = windows.last().map_or(1.0, |w| w.availability());
    // Timeline consistency, checked on every cell: a pass can never move
    // more keys than its starting backlog held, nor end before it started.
    for pass in r.sink.repairs() {
        assert!(
            pass.stats.keys_moved <= pass.backlog_at_start,
            "seed {seed}: pass moved {} of a {}-key backlog",
            pass.stats.keys_moved,
            pass.backlog_at_start
        );
        assert!(pass.at >= pass.started_at, "seed {seed}: pass ended before it began");
    }
    Cell {
        seed,
        storm_events,
        repair_bandwidth: bandwidth,
        summary: r.summary,
        floor,
        tail,
        lost_keys: r.lost_keys,
        stable: r.stable_at_end,
        preempted_repairs: r.sink.repairs().iter().filter(|p| p.preempted).count(),
    }
}

/// Writes the grid record: the experiment's configuration, the grid-level
/// aggregates, and one object per cell with its repair timeline.
fn write_record(path: &std::path::Path, k: &Knobs, cells: &[Cell]) -> std::io::Result<()> {
    let config = json_object(&[
        ("peers", k.n.to_string()),
        ("horizon", k.horizon.to_string()),
        ("mean_interarrival", k.interarrival.to_string()),
        ("window", k.window.to_string()),
        ("replication", REPLICATION.to_string()),
        ("service_time", SERVICE_TIME.to_string()),
    ]);
    let aggregate = json_object(&[
        ("cells", cells.len().to_string()),
        ("availability_floor", json_fixed(cells.iter().map(|c| c.floor).fold(1.0, f64::min))),
        ("worst_p99", cells.iter().map(|c| c.summary.p99).max().unwrap_or(0).to_string()),
    ]);
    let cells = cells
        .iter()
        .map(|c| {
            json_object(&[
                ("seed", c.seed.to_string()),
                ("storm_events", c.storm_events.to_string()),
                ("repair_bandwidth", c.repair_bandwidth.to_string()),
                ("requests", c.summary.total.to_string()),
                ("availability", json_fixed(c.summary.availability)),
                ("floor", json_fixed(c.floor)),
                ("tail", json_fixed(c.tail)),
                ("p99", c.summary.p99.to_string()),
                ("lost_keys", c.lost_keys.to_string()),
                ("stable", c.stable.to_string()),
                ("repairs", c.summary.repairs.to_string()),
                ("repair_keys_moved", c.summary.repair_keys_moved.to_string()),
                ("repair_arcs_touched", c.summary.repair_arcs_touched.to_string()),
                ("repair_backlog_peak", c.summary.repair_backlog_peak.to_string()),
                ("repair_ticks", c.summary.repair_ticks.to_string()),
                ("slowest_repair", c.summary.slowest_repair.to_string()),
                ("preempted_repairs", c.preempted_repairs.to_string()),
            ])
        })
        .collect();
    write_json(path, &[("config", config), ("aggregate", aggregate)], &[("cells", cells)])
}

fn bw_label(bw: usize) -> String {
    if bw == 0 {
        "inf".to_string()
    } else {
        bw.to_string()
    }
}

pub fn run(h: &Harness) {
    let smoke = h.smoke;
    let k = if smoke {
        Knobs {
            n: 20,
            horizon: 12_000,
            interarrival: 5.0,
            window: 1_000,
            seeds: vec![0xa1, 0xb2, 0xc3, 0x11],
            intensities: vec![8, 12],
            bandwidths: vec![0, 3, 1],
        }
    } else {
        Knobs {
            n: 48,
            horizon: 40_000,
            interarrival: 5.0,
            window: 2_000,
            seeds: vec![1, 2, 3, 5, 8, 13],
            intensities: vec![8, 12, 16],
            bandwidths: vec![0, 8, 3, 1],
        }
    };
    println!(
        "SLO sweep: {} seeds × {} intensities × {} repair bandwidths, {} peers, horizon {}{}\n",
        k.seeds.len(),
        k.intensities.len(),
        k.bandwidths.len(),
        k.n,
        k.horizon,
        if smoke { " [smoke]" } else { "" }
    );

    let mut cells = Vec::new();
    for &bw in &k.bandwidths {
        for &storm_events in &k.intensities {
            for &seed in &k.seeds {
                cells.push(run_cell(seed, storm_events, bw, &k));
            }
        }
    }

    let mut table = Table::new(&[
        "seed", "storm", "bw", "reqs", "avail", "floor", "tail", "p99", "lost", "stable",
        "repairs", "moved", "backlog", "slowest",
    ]);
    for c in &cells {
        table.row(&[
            format!("{:#x}", c.seed),
            c.storm_events.to_string(),
            bw_label(c.repair_bandwidth),
            c.summary.total.to_string(),
            format!("{:.4}", c.summary.availability),
            format!("{:.4}", c.floor),
            format!("{:.4}", c.tail),
            c.summary.p99.to_string(),
            c.lost_keys.to_string(),
            c.stable.to_string(),
            c.summary.repairs.to_string(),
            c.summary.repair_keys_moved.to_string(),
            c.summary.repair_backlog_peak.to_string(),
            c.summary.slowest_repair.to_string(),
        ]);
    }
    table.print();

    let floor = cells.iter().map(|c| c.floor).fold(1.0f64, f64::min);
    let recovered = cells.iter().filter(|c| c.tail == 1.0).count();
    println!(
        "\ngrid availability floor {:.4}; {recovered}/{} cells end their last window fully available",
        floor,
        cells.len()
    );
    // The headline trade-off: mean availability floor per repair bandwidth.
    println!("\navailability floor by repair bandwidth (keys/tick):");
    let mut floors_by_bw: Vec<(usize, f64)> = Vec::new();
    for &bw in &k.bandwidths {
        let group: Vec<f64> =
            cells.iter().filter(|c| c.repair_bandwidth == bw).map(|c| c.floor).collect();
        let mean = group.iter().sum::<f64>() / group.len() as f64;
        println!("  bw {:>4}: mean floor {:.4}", bw_label(bw), mean);
        floors_by_bw.push((bw, mean));
    }

    let name = if smoke { "sweep_smoke.json" } else { "sweep.json" };
    let path = results_dir().join(name);
    write_record(&path, &k, &cells).expect("write sweep json");
    println!("wrote {}", path.display());

    // The statistical gate: across the whole grid — not one pinned seed —
    // the overlay must re-stabilize and serve again. These hold
    // deterministically for the grid above, so ci.sh catches regressions.
    for c in &cells {
        assert!(
            c.stable,
            "seed {:#x} × {} events × bw {}: did not re-stabilize",
            c.seed,
            c.storm_events,
            bw_label(c.repair_bandwidth)
        );
        assert!(c.summary.total > 300, "seed {:#x}: too few requests to judge", c.seed);
        // Starved repair bandwidth legitimately loses keys (a second crash
        // lands before the first one's re-replication reaches them); those
        // keys read stale forever, so the tail gate discounts them — but
        // surviving keys must be served again, and the damage stays small.
        let dead = c.lost_keys as f64 / KEY_UNIVERSE as f64;
        assert!(
            c.lost_keys as u64 <= KEY_UNIVERSE / 40,
            "seed {:#x} × {} events × bw {}: {} lost keys is out of bounds",
            c.seed,
            c.storm_events,
            bw_label(c.repair_bandwidth),
            c.lost_keys
        );
        assert!(
            c.tail >= 0.99 - 2.0 * dead,
            "seed {:#x} × {} events × bw {}: tail availability {:.4} never recovered ({} dead keys)",
            c.seed,
            c.storm_events,
            bw_label(c.repair_bandwidth),
            c.tail,
            c.lost_keys
        );
        assert!(c.summary.repairs > 0, "churned cells must run fixpoint repairs");
        if c.repair_bandwidth > 0 {
            assert!(c.summary.repair_backlog_peak > 0, "paced cells must gauge their backlog");
        }
    }
    assert!(
        cells.iter().any(|c| c.floor < 1.0),
        "storms this size must dent availability somewhere in the grid"
    );

    // The bandwidth/availability trade-off, asserted: shrinking the repair
    // bandwidth can only degrade the mean availability floor (the grid is
    // configured with bandwidths in decreasing order, 0 = infinite first).
    for pair in floors_by_bw.windows(2) {
        let ((wide, wide_floor), (narrow, narrow_floor)) = (pair[0], pair[1]);
        assert!(
            narrow_floor <= wide_floor + 1e-9,
            "shrinking repair bandwidth {} -> {} must not raise the mean floor ({:.4} -> {:.4})",
            bw_label(wide),
            bw_label(narrow),
            wide_floor,
            narrow_floor
        );
    }
    let widest = floors_by_bw.first().expect("grid has bandwidths").1;
    let narrowest = floors_by_bw.last().expect("grid has bandwidths").1;
    assert!(
        narrowest < widest,
        "the starved bandwidth must visibly dent the floor ({widest:.4} -> {narrowest:.4})"
    );
    // Data durability degrades the same way: a starved budget leaves keys
    // under-replicated longer, so a follow-up crash can destroy them.
    let lost_at = |bw: usize| -> usize {
        cells.iter().filter(|c| c.repair_bandwidth == bw).map(|c| c.lost_keys).sum()
    };
    let (wide_bw, narrow_bw) =
        (*k.bandwidths.first().expect("bandwidths"), *k.bandwidths.last().expect("bandwidths"));
    assert!(
        lost_at(narrow_bw) >= lost_at(wide_bw),
        "starving repair bandwidth cannot *save* data ({} -> {} lost keys)",
        lost_at(wide_bw),
        lost_at(narrow_bw)
    );

    // The JSON record carries the repair timeline: spot-check the fields
    // made it to disk (ci greps nothing — this is the machine check).
    let written = std::fs::read_to_string(&path).expect("re-read sweep json");
    for field in [
        "repair_bandwidth",
        "repair_backlog_peak",
        "repair_ticks",
        "slowest_repair",
        "preempted_repairs",
    ] {
        assert!(written.contains(field), "sweep JSON must carry {field}");
    }

    println!("\nsweep: all grid assertions hold");
}
