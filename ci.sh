#!/usr/bin/env bash
# Tier-1 verification gate: everything a PR must keep green.
#
# Usage: ./ci.sh
#
# The build environment is offline; all dependencies are intra-workspace
# (including the vendored shims under vendor/), so --offline is safe and
# catches any accidental registry dependency sneaking in.
set -euo pipefail
cd "$(dirname "$0")"

run() {
  echo
  echo "==> $*"
  "$@"
}

# 0. Formatting gate: rustfmt must be a no-op (style is pinned by
#    rustfmt.toml; `cargo fmt` fixes violations).
run cargo fmt --check

# 0a. One overlay representation: `core::network::Overlay` reads the
#     overlay's nodes and edges off peer states, and nothing in a library
#     or binary source may bring back a second, collected graph of it.
if grep -rnE 'OverlayGraph|snapshot_states' crates/*/src src; then
  echo 'ci.sh: a source under crates/*/src or src/ names OverlayGraph or snapshot_states; read core::network::Overlay instead' >&2
  exit 1
fi
#     Likewise one rule gate and one source of suspicion: a peer's
#     `CrimeSet`. Ablating rule k is every peer committing
#     `Crime::ViolateRule(k)`; only `Crime::StallHeartbeats` makes the
#     failure detector suspect a live peer.
if grep -rnE 'RuleMask|from_topology_with_mask|false_suspect_every' crates/*/src src; then
  echo 'ci.sh: a source under crates/*/src or src/ names RuleMask, from_topology_with_mask or false_suspect_every; use ablation::ablate or Crime::StallHeartbeats instead' >&2
  exit 1
fi
#     Likewise one future-event list in the traffic simulator: every
#     `TrafficSim` event sits on its keyed `EventQueue`.
if grep -nE 'BinaryHeap|run_data_batch' crates/workload/src/sim.rs; then
  echo 'ci.sh: crates/workload/src/sim.rs names BinaryHeap or run_data_batch; schedule on the keyed EventQueue instead' >&2
  exit 1
fi

# 0b. Report only: the size of the library code, the count simplicity
#     changes quote. Non-blank lines before the first `#[cfg(test)]` of
#     each crates/*/src file; proptests.rs and bin/ are left out.
# shellcheck disable=SC2046
awk 'FNR == 1 { t = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1 } !t && NF { n++ }
  END { print "non-test library Rust: " n " lines" }' \
  $(find crates/*/src -name '*.rs' ! -name proptests.rs ! -path '*/bin/*' | sort)

# 1. Release build of every workspace member (libs, bins).
run cargo build --release --offline

# 2. Full test suite: unit, integration, and doc tests. The TCP tests skip
#    (and pass) where 127.0.0.1 cannot be bound, which is right for a
#    network-less sandbox and wrong here: assert the loopback probe first,
#    so a skip can never pass silently where a network exists.
if ! cargo test -q --offline -p rechord_net --lib -- --ignored --exact tcp::tests::loopback_is_up; then
  echo "ci.sh: no loopback interface — the TCP and process-cluster tests would skip; run ci.sh where 127.0.0.1 binds" >&2
  exit 1
fi
run cargo test -q --offline

# 3. Every target must at least compile.
run cargo check --workspace --all-targets --offline

# 3a. Every example runs in release mode and passes its own asserts:
#     dht_lookup and visualize exercise the overlay walk, the projection,
#     the routing table and the DOT rendering (visualize writes its .dot
#     files under the git-ignored results/).
for ex in churn_recovery dht_lookup partition_heal quickstart traffic_storm visualize; do
  run cargo run --release --offline -q --example "$ex"
done

# 3b. The traffic subsystem smoke test: a tiny deterministic run of all
#     five workload scenarios (including the million-key paced-repair one),
#     with built-in SLO assertions (availability dips under churn and
#     recovers to 100% after re-stabilization; the million-key handoff
#     drains through the bounded repair budget).
run cargo run --release --offline --bin repro -- traffic --smoke

# 3c. The statistical SLO sweep (seeds × churn intensities × repair
#     bandwidths) on its smoke grid: every cell must re-stabilize and
#     recover, the repair timeline must be internally consistent
#     (keys moved <= backlog at start), the availability floor must degrade
#     monotonically as repair bandwidth shrinks, and the grid JSON with the
#     repair-backlog fields must be written.
run cargo run --release --offline --bin repro -- sweep --smoke

# 3d. The byzantine fault-injection scan on its smoke grid: protocol-layer
#     crimes (lies, rule suppression) scanned for convergence/ring
#     boundaries, request-path crimes (drops, misroutes, poisoned reads,
#     sybil waves, stalled heartbeats) scanned for availability floors —
#     with built-in assertions: fraction 0 reproduces the honest traces
#     byte-for-byte, mean availability degrades monotonically in the
#     corrupted fraction, and nothing panics at fraction 1/2.
run cargo run --release --offline --bin repro -- adversary --smoke

# 3e. The ten figure/theorem experiments at two trials per point. Each
#     asserts what must hold (convergence, milestones observed before the
#     fixpoint, clean audits, routing success), and together they run every
#     observer of the engine's fixpoint loop that repro has.
for e in fig5 fig6 fig7 lemma31 convergence join_leave phases ablation baseline_compare routing; do
  run env RECHORD_TRIALS=2 cargo run --release --offline -q --bin repro -- "$e"
done

# 3f. The benchmark package is outside the workspace, so nothing above
#     compiles it: its smoke run fails here on any change to a signature,
#     struct field or trait method it builds against, or to a fingerprint
#     it recorded (every workload must print "equals the record"). The
#     traced run is the one the driver also scores, and its ledger is the
#     only code that executes the accepted-and-ignored values the package
#     pins (`cfg.workers = 2`, `from_raw_states(_, 2)`,
#     `ServiceQueue::sync_peers`): compiling is not enough.
run bash benchmark/run.sh all --smoke
run bash benchmark/run.sh all --smoke --trace

# 3g. Placement-engine scale smoke in release mode: ≥100k keys / 256 peers,
#     a single join/leave must repair far less than 20% of the keys, and
#     the delta-vs-rebuild proptests must hold.
run cargo test -q --release --offline -p rechord_placement

# 3i. Round goldens at benchmark scale: the release-only runs of
#     tests/round_golden.rs (160 cold peers, the 96-peer churn sequence)
#     pin rounds, messages, the per-round sequence and every final state.
#     And the perf trajectory stays one JSON object per line.
run cargo test --release -q --offline --test round_golden -- --include-ignored
if grep -qv '^{"pr":' perf/trajectory.jsonl; then
  echo 'ci.sh: every line of perf/trajectory.jsonl must start with {"pr":' >&2
  exit 1
fi

# 3k. The active-set engine against its full-sweep oracle at benchmark
#     scale, in release mode: tests/active_set.rs runs a copy of the
#     step-every-peer round beside the engine and compares states, tallies
#     and dirty lists every round, including the ignored 160-peer cold
#     start and the 96-peer churn sequence.
run cargo test --release -q --offline --test active_set -- --include-ignored

# 3j. The cluster serving gate at sweep scale, in release mode: every
#     random cluster the engine converges on must serve (n = 16 over seeds
#     0..256, n = 64 over seeds 224..240), including clusters whose largest
#     peer has no direct edge to the smallest. Then the benchmark's
#     cluster-lockstep at seed 232; that seed has no fingerprint record, so
#     the run checks its repetitions against each other and the oracle only.
run cargo test --release -q --offline -p rechord_net --test serving_gate -- --ignored
run bash benchmark/run.sh cluster-lockstep --seed 232 --smoke

# 3h. The static-analysis gate: first prove the linter itself works (the
#     fixture corpus must match its goldens and every rule must fire on
#     the known-bad files), then lint the whole workspace — zero unwaived
#     findings allowed — and check the machine-readable report keeps its
#     schema keys.
run cargo run --release --offline -q -p rechord_lint --bin rechord-lint -- --fixtures-self-test
run cargo run --release --offline -q -p rechord_lint --bin rechord-lint -- --root .
for key in '"schema": "rechord-lint/v1"' '"total_unwaived": 0' '"determinism"' '"net_double_lock"' '"files_scanned"'; do
  if ! grep -qF "$key" results/lint.json; then
    echo "ci.sh: results/lint.json lost the $key key" >&2
    exit 1
  fi
done

# 4. Rustdoc must build warning-free (broken intra-doc links are bugs).
RUSTDOCFLAGS="-D warnings" run cargo doc --no-deps --workspace --offline

# 5. Lint wall: clippy clean across every target.
run cargo clippy --workspace --all-targets --offline -- -D warnings

echo
echo "ci.sh: all green"
