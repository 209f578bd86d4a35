//! The repository's benchmark: five workloads over the whole stack, a
//! per-layer ledger, and timing that survives a noisy two-core host.
//!
//! ```text
//! rechord-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! rechord-benchmark all [--seed N] [--smoke]
//! rechord-benchmark --selfcheck [--seed N] [--smoke]
//! rechord-benchmark --spread N [--workload <name>] [--seed N] [--smoke]
//! ```
//!
//! One workload per process (peak memory is per process). The last line of
//! standard output is one JSON object — `correct`, `attempted`, `failed`,
//! `metrics` — holding every end-to-end metric (`--trace 0`) or every
//! per-layer metric (`--trace 1`) named in `BENCHMARK.json`; the lines
//! before it are for people. See `benchmark/README.md`.

mod host;
mod json;
mod ledger;
mod stats;
mod trace;
mod transport;
mod workloads;

use json::Json;
use ledger::Metric;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::rc::Rc;
use workloads::{Ctx, Report, Scale};

/// The seed whose fingerprints are recorded in `benchmark/expected.json`
/// (`0xe5`, the seed of the legacy `1m-keys` scenario).
const DEFAULT_SEED: u64 = 0xe5;
/// Measuring budget when `--seconds` is absent (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 12.0;

/// Measuring budget of a `--smoke` run.
const SMOKE_SECONDS: f64 = 1.0;

#[derive(Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    selfcheck: bool,
    /// `--spread N`: run on N consecutive seeds and report the spreads.
    spread: usize,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: rechord-benchmark (--workload <name> | <name> | all | --selfcheck | --spread N) \
         [--seed N] [--seconds S] [--trace [0|1]] [--smoke]\nworkloads: {}",
        workloads::NAMES.join(", ")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        scale: Scale::Full,
        selfcheck: false,
        spread: 0,
    };
    let mut explicit_seconds = false;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => a.workload = Some(args.next()?),
            "--seed" => a.seed = args.next()?.parse().ok()?,
            "--seconds" => {
                a.seconds = args.next()?.parse().ok().filter(|s: &f64| *s > 0.0)?;
                explicit_seconds = true;
            }
            "--trace" => {
                // `--trace 0|1` (the driver) or a bare `--trace` (run.sh).
                a.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => a.scale = Scale::Smoke,
            "--selfcheck" => a.selfcheck = true,
            "--spread" => a.spread = args.next()?.parse().ok().filter(|n| *n >= 2)?,
            name if !name.starts_with('-') && a.workload.is_none() => {
                a.workload = Some(name.to_string())
            }
            _ => return None,
        }
    }
    if !explicit_seconds && a.scale == Scale::Smoke {
        a.seconds = SMOKE_SECONDS;
    }
    (a.selfcheck || a.spread > 0 || a.workload.is_some()).then_some(a)
}

/// The checkout root: the directory holding `BENCHMARK.json` (run.sh
/// changes into it; a bare binary is usually started there too).
fn repo_root() -> PathBuf {
    let here = PathBuf::from(".");
    if here.join("BENCHMARK.json").exists() {
        return here;
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// `BENCHMARK.json`, or the exit code of a run that cannot read it.
fn load_spec(root: &Path) -> Result<Json, ExitCode> {
    read_json(&root.join("BENCHMARK.json")).map_err(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `(name, unit, better, bound)` of every metric in one list of
/// `BENCHMARK.json`.
fn declared(spec: &Json, list: &str) -> Vec<(String, String, String, f64)> {
    spec.get(list)
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
            (
                s("name"),
                s("unit"),
                s("better"),
                m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
            )
        })
        .collect()
}

fn scale_name(scale: Scale) -> &'static str {
    scale.pick("full", "smoke")
}

/// Compares a run's fingerprint with the one recorded for the default
/// seed. Returns the mismatches and how many more operations failed than
/// the record allows.
fn check_expected(
    root: &Path,
    workload: &str,
    args: &Args,
    fingerprint: &BTreeMap<String, String>,
) -> (Vec<String>, u64) {
    if args.seed != DEFAULT_SEED {
        println!(
            "fingerprint: seed {} has no record; cross-repetition and oracle checks only",
            args.seed
        );
        return (Vec::new(), 0);
    }
    let expected = match read_json(&root.join("benchmark/expected.json")) {
        Ok(e) => e,
        Err(e) => return (vec![format!("cannot read the recorded fingerprints: {e}")], 0),
    };
    let Some(want) = expected.get(scale_name(args.scale)).and_then(|s| s.get(workload)) else {
        return (vec![format!("no recorded fingerprint for {workload} at this scale")], 0);
    };
    let mut errors = Vec::new();
    let mut keys = 0;
    for (k, v) in want.members() {
        keys += 1;
        let got = fingerprint.get(k).map(String::as_str);
        if got != v.as_str() {
            errors.push(format!("fingerprint {k}: got {got:?}, recorded {:?}", v.as_str()));
        }
    }
    if keys != fingerprint.len() {
        errors.push(format!("fingerprint has {} keys, the record {keys}", fingerprint.len()));
    }
    let count = |m: Option<&str>| m.and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    let beyond = count(fingerprint.get("non_success").map(String::as_str))
        .saturating_sub(count(want.get("non_success").and_then(Json::as_str)));
    if errors.is_empty() {
        println!("fingerprint: equals the record for seed {}", args.seed);
    }
    (errors, beyond)
}

fn print_report(workload: &str, args: &Args, r: &Report, steal: f64, root: &Path) {
    println!(
        "workload {workload}  seed {}  scale {}  repetitions {}  host_cores {}  steal {steal:.2}%  rev {}",
        args.seed,
        scale_name(args.scale),
        r.reps,
        host::cores(),
        host::git_rev(root)
    );
    let sizes: Vec<String> = r.sizes.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("sizes: {}  (one op of ops_per_s / op_us = one {})", sizes.join(" "), r.op);
    for d in &r.details {
        let n = if d.samples > 0 { format!("  (n={})", d.samples) } else { String::new() };
        println!("  {:<28} {:>16.4} {}{n}", d.name, d.value, d.unit);
    }
    for (k, v) in &r.fingerprint {
        println!("  fingerprint.{k} = {v}");
    }
}

/// The JSON object of one metric list.
fn metrics_json(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json::quote(name),
                json::quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// Writes `benchmark/results/<workload>[-smoke][-trace].json`: everything
/// the run printed, with the host facts, for later comparison.
fn write_result(
    root: &Path,
    workload: &str,
    args: &Args,
    r: &Report,
    metrics: &[Metric],
    steal: f64,
    correct: bool,
) {
    let dir = root.join("benchmark/results");
    let suffix = format!(
        "{}{}",
        if args.scale == Scale::Smoke { "-smoke" } else { "" },
        if args.trace { "-trace" } else { "" }
    );
    fn obj<'a>(pairs: impl Iterator<Item = (&'a str, &'a str)>) -> String {
        let items: Vec<String> =
            pairs.map(|(k, v)| format!("{}: {}", json::quote(k), json::quote(v))).collect();
        format!("{{{}}}", items.join(", "))
    }
    let details: Vec<Metric> =
        r.details.iter().map(|d| (d.name.to_string(), d.value, d.unit)).collect();
    let text = format!(
        "{{\n\"schema\": \"rechord-benchmark/v1\",\n\"workload\": {},\n\"seed\": {},\n\"scale\": {},\n\
         \"traced\": {},\n\"host_cores\": {},\n\"cpu_steal_pct\": {steal},\n\"git_rev\": {},\n\
         \"repetitions\": {},\n\"correct\": {correct},\n\"attempted\": {},\n\"failed\": {},\n\
         \"sizes\": {},\n\"metrics\": {},\n\"details\": {},\n\"fingerprint\": {}\n}}\n",
        json::quote(workload),
        args.seed,
        json::quote(scale_name(args.scale)),
        args.trace,
        host::cores(),
        json::quote(&host::git_rev(root)),
        r.reps,
        r.attempted,
        r.failed,
        obj(r.sizes.iter().map(|(k, v)| (*k, v.as_str()))),
        metrics_json(metrics),
        metrics_json(&details),
        obj(r.fingerprint.iter().map(|(k, v)| (k.as_str(), v.as_str()))),
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{workload}{suffix}.json")), text));
    if let Err(e) = written {
        eprintln!("warning: could not write the result file: {e}");
    }
}

/// Runs one workload in this process and prints its result line.
fn run_one(workload: &str, args: &Args) -> ExitCode {
    let root = repo_root();
    let spec = match load_spec(&root) {
        Ok(spec) => spec,
        Err(code) => return code,
    };
    let steal = host::StealMeter::start();
    let quiet = Rc::new(trace::Tracer::new(false));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale,
        tracer: quiet,
        fixed_reps: None,
    };

    let (report, metrics, optional) = if args.trace {
        // The workload untraced, then traced, a few repetitions each (their
        // difference is the tracing overhead), then the per-layer ledger.
        let reps = Some(workloads::MIN_REPS);
        let Some(plain) = workloads::run(workload, &Ctx { fixed_reps: reps, ..ctx.clone() }) else {
            return usage();
        };
        let tracer = Rc::new(trace::Tracer::new(true));
        let traced_ctx = Ctx { tracer: Rc::clone(&tracer), fixed_reps: reps, ..ctx.clone() };
        let traced = workloads::run(workload, &traced_ctx).expect("name checked above");
        let path = root.join(format!("benchmark/results/trace-{workload}.json"));
        if let Err(e) = tracer.write_json(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
        let ledger::Out { mut metrics, optional } = ledger::run(&ctx);
        metrics.extend(ledger::span_metrics(&tracer.spans(), &plain, &traced));
        (traced, metrics, optional)
    } else {
        let Some(report) = workloads::run(workload, &ctx) else { return usage() };
        let metrics = vec![
            ("setup_s".to_string(), stats::median(&report.setup_s), "s"),
            ("ops_per_s".to_string(), report.ops_per_s, "1/s"),
            ("op_us".to_string(), report.op_us, "us"),
            ("peak_rss_mb".to_string(), host::peak_rss_mb(), "MiB"),
        ];
        (report, metrics, Vec::new())
    };

    let steal = steal.percent();
    print_report(workload, args, &report, steal, &root);
    let (mut errors, beyond) = check_expected(&root, workload, args, &report.fingerprint);
    errors.extend(report.errors.iter().cloned());

    // Every declared metric is printed, and nothing undeclared.
    let list = if args.trace { "per_layer" } else { "end_to_end" };
    let want = declared(&spec, list);
    for (name, unit, ..) in &want {
        match metrics.iter().find(|m| &m.0 == name) {
            None => errors.push(format!("{list} metric {name} was not measured")),
            Some(m) if m.2 != unit => {
                errors.push(format!("{name}: unit {} ≠ declared {unit}", m.2))
            }
            Some(_) => {}
        }
    }
    for m in &metrics {
        if !want.iter().any(|w| w.0 == m.0) {
            errors.push(format!("metric {} is not declared in BENCHMARK.json", m.0));
        }
        let exact = if m.2 == "count" { "  (exact count)" } else { "" };
        println!("  {:<36} {:>18.6} {}{exact}", m.0, m.1, m.2);
    }
    if args.trace && optional.is_empty() {
        println!("  net.tcp.*: this host has no loopback interface; not measured");
    }
    for m in &optional {
        println!("  {:<36} {:>18.6} {}  (host loopback; not in BENCHMARK.json)", m.0, m.1, m.2);
    }
    for e in &errors {
        println!("ERROR: {e}");
    }
    let correct = errors.is_empty();
    let failed = report.failed + beyond;
    write_result(&root, workload, args, &report, &metrics, steal, correct);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        report.attempted.max(1),
        metrics_json(&metrics)
    );
    exit_code(correct && failed == 0)
}

/// One child run: exit status, the result line, everything it printed.
struct Child {
    ok: bool,
    result: Option<Json>,
    output: String,
}

/// Runs one workload in a process of its own and waits for it.
fn spawn(workload: &str, args: &Args) -> Child {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()]);
    cmd.args(["--seconds", &args.seconds.to_string()]);
    cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    match cmd.output() {
        Ok(out) => {
            let output = String::from_utf8_lossy(&out.stdout).into_owned();
            let result = output.lines().last().and_then(|l| json::parse(l).ok());
            Child { ok: out.status.success(), result, output }
        }
        Err(e) => Child { ok: false, result: None, output: format!("spawn failed: {e}") },
    }
}

/// `all`: every workload, each in its own process.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in workloads::NAMES {
        let child = spawn(w, args);
        print!("{}", child.output);
        ok &= child.ok;
    }
    exit_code(ok)
}

/// `--selfcheck`: every workload twice, back to back, side by side; fails
/// when an end-to-end metric differs by more than its bound or a
/// fingerprint (hence `correct`) differs.
fn selfcheck(args: &Args) -> ExitCode {
    let root = repo_root();
    let spec = match load_spec(&root) {
        Ok(spec) => spec,
        Err(code) => return code,
    };
    let bounds = declared(&spec, "end_to_end");
    let steal = host::StealMeter::start();
    let mut ok = true;
    println!(
        "selfcheck  seed {}  scale {}  host_cores {}  rev {}",
        args.seed,
        scale_name(args.scale),
        host::cores(),
        host::git_rev(&root)
    );
    println!(
        "{:<20} {:<14} {:>18} {:>18} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for w in workloads::NAMES {
        let runs = [spawn(w, args), spawn(w, args)];
        for (i, r) in runs.iter().enumerate() {
            if !r.ok {
                println!("{w}: run {} failed:\n{}", i + 1, r.output);
                ok = false;
            }
        }
        let (Some(a), Some(b)) = (&runs[0].result, &runs[1].result) else {
            ok = false;
            continue;
        };
        for key in ["correct", "attempted", "failed"] {
            if a.get(key) != b.get(key) {
                println!("{w}: {key} differs: {:?} vs {:?}", a.get(key), b.get(key));
                ok = false;
            }
        }
        let fp = |out: &str| -> Vec<String> {
            out.lines()
                .filter(|l| l.trim_start().starts_with("fingerprint."))
                .map(String::from)
                .collect()
        };
        if fp(&runs[0].output) != fp(&runs[1].output) {
            println!("{w}: fingerprints differ between the two runs");
            ok = false;
        }
        for (name, unit, better, bound) in &bounds {
            let value = |r: &Json| {
                r.get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
            };
            let (Some(x), Some(y)) = (value(a), value(b)) else {
                println!("{w}: metric {name} missing from a run");
                ok = false;
                continue;
            };
            // How much worse the second run is than the first.
            let worse = if better == "higher" { (x - y) / x } else { (y - x) / x };
            let verdict = if worse.abs() > *bound { "FAIL" } else { "" };
            ok &= worse.abs() <= *bound;
            println!(
                "{w:<20} {name:<14} {x:>18.6} {y:>18.6} {:>+8.2}% {:>6.0}% {unit} {verdict}",
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    println!("cpu steal over the selfcheck: {:.2}%", steal.percent());
    println!("selfcheck: {}", if ok { "PASS" } else { "FAIL" });
    exit_code(ok)
}

/// `--spread N`: each workload on N consecutive seeds, one process per
/// run; per end-to-end metric, the median and the interquartile distance as
/// a share of it — the acceptance check of the benchmark itself. A spread
/// is steady below a third of the metric's bound and fails above the bound
/// (`setup_s` is reported but exempt: its inputs differ with the seed).
fn spread(args: &Args) -> ExitCode {
    let root = repo_root();
    let spec = match load_spec(&root) {
        Ok(spec) => spec,
        Err(code) => return code,
    };
    let bounds = declared(&spec, "end_to_end");
    let names: Vec<&str> = match args.workload.as_deref() {
        Some(w) if w != "all" => vec![w],
        _ => workloads::NAMES.to_vec(),
    };
    let mut ok = true;
    println!(
        "spread over seeds {}..{}  host_cores {}",
        args.seed,
        args.seed + args.spread as u64,
        host::cores()
    );
    println!("{:<20} {:<14} {:>18} {:>9} {:>7}", "workload", "metric", "median", "spread", "bound");
    for w in names {
        let runs: Vec<Child> = (0..args.spread as u64)
            .map(|k| spawn(w, &Args { seed: args.seed + k, ..args.clone() }))
            .collect();
        for r in runs.iter().filter(|r| !r.ok) {
            println!("{w}: a run failed:\n{}", r.output);
            ok = false;
        }
        for (name, unit, _, bound) in &bounds {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| {
                    r.result.as_ref()?.get("metrics")?.get(name)?.get("value")?.as_f64()
                })
                .collect();
            if values.len() < 2 {
                ok = false;
                continue;
            }
            let spread = stats::spread(&values);
            let verdict = match spread {
                _ if name == "setup_s" => "(exempt)",
                s if s <= bound / 3.0 => "steady",
                s if s <= *bound => "within bound",
                _ => {
                    ok = false;
                    "FAIL"
                }
            };
            println!(
                "{w:<20} {name:<14} {:>18.6} {:>8.2}% {:>6.0}% {unit} {verdict}",
                stats::median(&values),
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    exit_code(ok)
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else { return usage() };
    if args.selfcheck {
        return selfcheck(&args);
    }
    if args.spread > 0 {
        return spread(&args);
    }
    match args.workload.as_deref() {
        Some("all") => run_all(&args),
        Some(w) if workloads::NAMES.contains(&w) => run_one(w, &args),
        _ => usage(),
    }
}
