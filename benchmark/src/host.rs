//! What every output records about the machine: core count, CPU steal over
//! the run, peak resident memory, and the source revision.

use std::path::Path;

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The aggregate `cpu` line of `/proc/stat`: `(steal, total)` jiffies.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Samples `/proc/stat` at creation; [`StealMeter::percent`] reports the
/// share of all CPU time since then that the hypervisor gave to someone
/// else — the first thing to look at when two identical runs disagree.
pub struct StealMeter {
    start: Option<(u64, u64)>,
}

impl StealMeter {
    /// Starts measuring.
    pub fn start() -> Self {
        StealMeter { start: cpu_jiffies() }
    }

    /// Steal since [`StealMeter::start`], percent of all jiffies (0 where
    /// `/proc/stat` is unavailable).
    pub fn percent(&self) -> f64 {
        match (self.start, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                100.0 * (s1 - s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` without spawning a process;
/// `"unknown"` outside a git checkout (the driver's copy is not one).
pub fn git_rev(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}
