//! The five workloads and the repetition harness they share.
//!
//! Every workload is a closed loop on one thread. A run executes the
//! workload's fixed work several times, each time on identical fresh state
//! built by its set-up; timed phases are cut into fixed-work segments so
//! the element-wise minimum over repetitions ([`crate::stats`]) can discard
//! the host's interference segment by segment.

pub mod cluster_lockstep;
pub mod engine;
pub mod traffic;

use crate::stats::Segment;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Workload names, in the order `all` runs them.
pub const NAMES: [&str; 5] = [
    "stabilize-cold",
    "churn-restabilize",
    "traffic-churn",
    "traffic-dataplane",
    "cluster-lockstep",
];

/// Full size, or about a tenth of it (`--smoke`: same code, same checks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the committed numbers are measured at.
    Full,
    /// Every workload small enough that all five finish in under 30 s.
    Smoke,
}

impl Scale {
    /// `full` at full scale, `smoke` under `--smoke`.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// What one invocation asks of a workload.
#[derive(Clone)]
pub struct Ctx {
    /// Drives topology, traffic stream and entry-peer draws.
    pub seed: u64,
    /// Measuring budget: repetitions continue until the timed phases have
    /// run this long (and at least [`MIN_REPS`] times).
    pub seconds: f64,
    /// Full or smoke sizes.
    pub scale: Scale,
    /// The span recorder (off for the end-to-end run).
    pub tracer: Rc<Tracer>,
    /// Execute exactly this many repetitions, whatever the budget (the
    /// traced run and the untraced repetitions it is compared with).
    pub fixed_reps: Option<usize>,
}

/// Repetitions the min-estimator needs before the budget may stop a run.
pub const MIN_REPS: usize = 3;
/// Upper limit on repetitions, whatever the budget says.
const MAX_REPS: usize = 16;
/// A set-up cheaper than this is executed again after each repetition
/// until the extra executions add up to it, so that a sub-millisecond
/// set-up is sampled all along the run and still yields a steady median.
const CHEAP_SETUP_S: f64 = 0.02;
/// Upper limit on those extra set-ups, per repetition.
const MAX_EXTRA_SETUPS: usize = 64;

/// One number a workload reports beside the common end-to-end metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct Detail {
    /// Metric name.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count behind a percentile (0 where it does not apply).
    pub samples: usize,
}

impl Detail {
    /// A detail without a sample count.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Detail { name, value, unit, samples: 0 }
    }
}

/// Everything a workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Duration of every set-up executed, seconds.
    pub setup_s: Vec<f64>,
    /// What one operation of `ops_per_s` / `op_us` is.
    pub op: &'static str,
    /// Operations per second of the workload's throughput phase.
    pub ops_per_s: f64,
    /// Typical cost of one operation, microseconds: the median where
    /// operations are timed one by one, the mean where the program runs
    /// them inside one opaque call.
    pub op_us: f64,
    /// The workload's own metrics, under the names the issue gave them.
    pub details: Vec<Detail>,
    /// Simulated statistics that must not move when only speed changes.
    pub fingerprint: BTreeMap<String, String>,
    /// Fixpoint runs + requests + RPCs of one repetition.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// The sizes this run used.
    pub sizes: Vec<(&'static str, String)>,
    /// Repetitions executed.
    pub reps: usize,
    /// Wall time (min-estimate) of the segments a traced run records
    /// spans in; the traced and untraced runs' ratio is the overhead.
    pub traced_window_s: f64,
    /// Cross-repetition or oracle mismatches (empty when correct).
    pub errors: Vec<String>,
}

/// One repetition's timed phases plus what it observed.
pub struct RepOutcome {
    /// Segments of each timed phase, by phase name.
    pub phases: Vec<(&'static str, Vec<Segment>)>,
    /// Simulated statistics of this repetition.
    pub fingerprint: BTreeMap<String, String>,
}

/// All repetitions of a run, ready for the min-estimator.
pub struct Repeated {
    /// Duration of every set-up executed.
    pub setup_s: Vec<f64>,
    /// Per phase, the segments of every repetition.
    pub phases: BTreeMap<&'static str, Vec<Vec<Segment>>>,
    /// The (identical) fingerprint of the repetitions.
    pub fingerprint: BTreeMap<String, String>,
    /// Repetitions executed.
    pub reps: usize,
    /// Fingerprint disagreements between repetitions.
    pub errors: Vec<String>,
}

impl Repeated {
    /// The repetitions of one phase.
    pub fn phase(&self, name: &str) -> &[Vec<Segment>] {
        self.phases.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Runs `setup` then `run` repeatedly: at least [`MIN_REPS`] times and
/// until the timed phases have consumed `ctx.seconds` (or exactly
/// `ctx.fixed_reps` times). `setup` builds identical fresh state from the
/// seed each time and is timed on its own; values observed by `run` must
/// be identical across repetitions.
pub fn repeat<S>(
    ctx: &Ctx,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S) -> RepOutcome,
) -> Repeated {
    let mut out = Repeated {
        setup_s: Vec::new(),
        phases: BTreeMap::new(),
        fingerprint: BTreeMap::new(),
        reps: 0,
        errors: Vec::new(),
    };
    let (min_reps, max_reps) = ctx.fixed_reps.map_or((MIN_REPS, MAX_REPS), |n| (n, n));
    let mut timed = 0.0;
    while out.reps < min_reps || (timed < ctx.seconds && out.reps < max_reps) {
        let t = Instant::now();
        let state = {
            let _s = ctx.tracer.span("bench.setup");
            setup()
        };
        out.setup_s.push(t.elapsed().as_secs_f64());
        let rep = {
            let _s = ctx.tracer.span("bench.repetition");
            run(state)
        };
        timed += rep.phases.iter().flat_map(|(_, s)| s).map(|s| s.secs).sum::<f64>();
        for (name, segs) in rep.phases {
            out.phases.entry(name).or_default().push(segs);
        }
        if out.reps == 0 {
            out.fingerprint = rep.fingerprint;
        } else if rep.fingerprint != out.fingerprint {
            for (k, v) in &rep.fingerprint {
                if out.fingerprint.get(k) != Some(v) {
                    out.errors.push(format!(
                        "repetition {} disagrees on {k}: {v} vs {:?}",
                        out.reps,
                        out.fingerprint.get(k)
                    ));
                }
            }
        }
        out.reps += 1;
        ctx.tracer.seal(); // the first repetition is the trace
                           // A cheap set-up is sampled more often, so its median is steady too.
        let (mut extra_s, mut extra) = (0.0, 0);
        while out.setup_s[out.setup_s.len() - 1] < CHEAP_SETUP_S
            && extra_s < CHEAP_SETUP_S
            && extra < MAX_EXTRA_SETUPS
            && !ctx.tracer.is_on()
        {
            let t = Instant::now();
            std::hint::black_box(setup());
            out.setup_s.push(t.elapsed().as_secs_f64());
            extra_s += out.setup_s[out.setup_s.len() - 1];
            extra += 1;
        }
    }
    out
}

/// Runs `f`; returns its result and the seconds it took.
pub fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Times `f` as one segment.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Segment) {
    let (r, t) = secs(f);
    (r, Segment::of(t))
}

/// A fingerprint entry read back as a number (0 when absent).
pub fn number(fingerprint: &BTreeMap<String, String>, key: &str) -> f64 {
    fingerprint.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
}

/// FNV-1a over a byte string — the digest fingerprints are recorded as.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Runs the named workload.
pub fn run(name: &str, ctx: &Ctx) -> Option<Report> {
    Some(match name {
        "stabilize-cold" => engine::stabilize_cold(ctx),
        "churn-restabilize" => engine::churn_restabilize(ctx),
        "traffic-churn" => traffic::churn(ctx),
        "traffic-dataplane" => traffic::dataplane(ctx),
        "cluster-lockstep" => cluster_lockstep::run(ctx),
        _ => return None,
    })
}
