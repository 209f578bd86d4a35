//! The co-simulation driver: protocol rounds, churn, and client requests on
//! one discrete-event clock, one thread.
//!
//! A [`TrafficSim`] owns a live [`ReChordNetwork`] and a [`RoutingTable`]
//! kept current through the engine's dirty-peer hook. Requests route **hop
//! by hop** — each hop re-reads the table as it stands at that instant — so
//! a lookup issued mid-stabilization can stall, land on a crashed peer, get
//! retried from another entry point, or be lost: exactly the client
//! experience the convergence theorems are silent about.
//!
//! Every event lives on one [`EventQueue`], and [`TrafficSim::run`] pops
//! and dispatches until it drains. Events of one instant fire in one
//! canonical order, set by their same-instant key:
//!
//! * **control events** — rounds, churn, detector ticks, sybil joins,
//!   repair slices — come first, in scheduling order;
//! * **request events** — hops and service completions, the hot 99% — come
//!   next, by request id. Every request has at most one event in flight, so
//!   the id is a total order among them;
//! * the next open-loop **arrival** comes last: its request id exceeds
//!   every id in flight. The request itself is generated when the clock
//!   gets there.
//!
//! Outcomes are therefore recorded in `(completed_at, request id)` order.
//! Every random draw on the request path is a pure function of `(seed,
//! tag, request id, attempt)`, not a position in an rng stream. The literal
//! goldens in `tests/data_plane_golden.rs` pin the resulting traces.
//!
//! Storage follows Chord's successor-list replication: a put writes the
//! responsible peer and its `replication - 1` cyclic successors; a get
//! probes the same set (one extra hop per miss). Placement itself — which
//! peers hold which keys — is owned by the shared
//! [`rechord_placement::PlacementMap`] engine: churn events become arc
//! split/merge deltas (graceful leaves hand their copies to the successor,
//! crashes lose them), and when a round leaves the network stable again an
//! **incremental** anti-entropy pass re-replicates only the arcs adjacent
//! to the changed peers — O(moved keys), not O(all keys).
//!
//! Repair is **paced**, not free: with `repair_bandwidth > 0` the fixpoint
//! only *opens* a pass, and `RepairTick`-event slices move at
//! most that many keys per virtual tick, each transferred copy admitted
//! through the receiving peer's [`ServiceQueue`] — repair traffic and
//! foreground requests queue behind one another. While a key's window is
//! still un-repaired, a get landing on a not-yet-copied replica surfaces
//! as a [`OutcomeKind::StaleRead`] — the client-visible cost the old
//! instantaneous-repair model hid. New churn preempts the pass (the plan
//! is invalidated; the next fixpoint re-begins from the surviving dirty
//! set), and `repair_bandwidth: 0` keeps the legacy
//! instantaneous-at-the-fixpoint behavior. The whole timeline — pass
//! start/end instants, per-tick backlog gauge, time-to-full-replication,
//! capacity-cap rejections — is recorded in the [`SloSink`].

use crate::adversary::AdversaryConfig;
use crate::detector::{DetectorConfig, FailureDetector};
use crate::event::EventQueue;
use crate::generator::{Op, Request, TrafficConfig, TrafficGen};
use crate::latency::{LatencyModel, ServiceQueue};
use crate::metrics::{OutcomeKind, RequestOutcome, SloSink, SloSummary};
use rechord_core::adversary::{mix, AdversaryMap, Crime};
use rechord_core::network::ReChordNetwork;
use rechord_id::{successor_index, IdSpace, Ident};
use rechord_placement::{Departure, PlacementMap};
use rechord_routing::{walk, RoutingTable, Walk};
use rechord_topology::{ChurnEvent, TimedChurnPlan};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Domain tag for pure per-hop latency draws.
const LAT_TAG: u64 = 0x1a7e_4c1e;
/// Domain tag for pure entry-peer picks.
const ENTRY_TAG: u64 = 0xe417_2ee1;

/// Everything that parameterizes a workload run (traffic shape aside, see
/// [`TrafficConfig`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadConfig {
    /// Master seed: id space, latency draws, entry-point choices, and the
    /// generator stream all derive from it.
    pub seed: u64,
    /// The offered load.
    pub traffic: TrafficConfig,
    /// First request no earlier than this instant.
    pub traffic_start: u64,
    /// No requests injected after this instant.
    pub traffic_end: u64,
    /// Ticks between protocol rounds (the network stabilizes at this pace
    /// while traffic flows).
    pub round_every: u64,
    /// Per-hop latency law.
    pub latency: LatencyModel,
    /// Replica count (responsible peer + successors), clamped to >= 1.
    pub replication: usize,
    /// Retries before a request is declared lost.
    pub max_retries: u32,
    /// Ticks a retry waits before re-entering at a fresh peer.
    pub retry_backoff: u64,
    /// Total peer-to-peer hops a request may take across retries.
    pub hop_budget: u32,
    /// Hard cap on protocol rounds (budget guard; generously above any
    /// realistic stabilization).
    pub max_rounds: u64,
    /// Failure-detection lag: after a crash, survivors' routing-table
    /// entries keep pointing at the ghost for this many ticks (requests
    /// forwarded to it bounce and retry) before the full view is scrubbed.
    /// `0` models an oracle failure detector.
    pub detection_lag: u64,
    /// Per-peer service capacity: ticks one request occupies the receiving
    /// peer's server, FIFO — a hop through a loaded peer waits for the
    /// backlog ahead of it. `0` models infinite service rate (no queueing).
    pub service_time: u64,
    /// Repair bandwidth: at most this many keys move per virtual tick once
    /// a stabilization fixpoint opens an anti-entropy pass, with every
    /// transferred copy admitted through the receiving peer's service
    /// queue (repair competes with foreground traffic). `0` models
    /// infinite bandwidth — the pre-paced behavior where the whole repair
    /// lands instantaneously at the fixpoint.
    pub repair_bandwidth: usize,
    /// Per-peer storage cap for the **paced** repair path
    /// (`repair_bandwidth > 0`): a repair copy headed for a peer already
    /// holding this many keys is rejected (the key stays readable at its
    /// primary, under-replicated until churn re-dirties its arc). `0`
    /// models unlimited storage. Puts are never rejected, and the
    /// instantaneous model (`repair_bandwidth: 0`) is the uncapped legacy
    /// oracle — the cap is ignored there.
    pub max_keys_per_peer: usize,
    /// Byzantine crime injection ([`AdversaryConfig`]). The default is
    /// fully honest and reproduces legacy traces bit-for-bit.
    pub adversary: AdversaryConfig,
    /// Failure-detector knobs ([`DetectorConfig`]). The default
    /// (`suspect_for: 0`) is the legacy never-erring detector.
    pub detector: DetectorConfig,
    /// Accepted and ignored: the simulator is single-threaded. The field
    /// survives only because `benchmark/` builds this struct literally.
    pub workers: usize,
    /// Accepted and ignored, like [`WorkloadConfig::workers`].
    pub arcs: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 1,
            traffic: TrafficConfig::default(),
            traffic_start: 0,
            traffic_end: 10_000,
            round_every: 50,
            latency: LatencyModel::Uniform { lo: 5, hi: 15 },
            replication: 2,
            max_retries: 2,
            retry_backoff: 40,
            hop_budget: 128,
            max_rounds: 50_000,
            detection_lag: 200,
            service_time: 0,
            repair_bandwidth: 0,
            max_keys_per_peer: 0,
            adversary: AdversaryConfig::default(),
            detector: DetectorConfig::default(),
            workers: 1,
            arcs: 0,
        }
    }
}

/// What the run produced.
#[derive(Debug)]
pub struct SimReport {
    /// Aggregate SLO summary.
    pub summary: SloSummary,
    /// The full outcome log (timelines, histograms, traces).
    pub sink: SloSink,
    /// Protocol rounds executed.
    pub rounds: u64,
    /// Was the final round a fixpoint?
    pub stable_at_end: bool,
    /// Peers alive at the end.
    pub final_peers: usize,
    /// Acknowledged keys with no surviving copy anywhere (every replica
    /// crashed before a repair could run).
    pub lost_keys: usize,
    /// Suspicions the failure detector raised (heartbeat-stalling
    /// attacks; 0 under the legacy accurate detector).
    pub suspicions: usize,
    /// Request events processed (hops plus queued service completions) —
    /// the throughput denominator the benches report.
    pub events: u64,
    /// [`PlacementMap::digest`] of the final placement.
    pub placement_digest: u64,
}

/// Everything that happens on the simulator's clock. The request events
/// (`Arrival`, `Hop`, `Serve`) are the hot path; the rest are control
/// events: rare and globally coupled.
enum SimEvent {
    /// The next open-loop request enters the system.
    Arrival,
    /// A request arrives at `peer` after a network hop (it still has to be
    /// admitted through the peer's service queue).
    Hop(InFlight),
    /// The receiving peer's server gets to the request (post-queueing).
    Serve(InFlight),
    /// One protocol round.
    Round,
    /// A scheduled churn event strikes.
    Churn(ChurnEvent),
    /// Reconfigure the generator's hot key (flash crowds).
    SetHotKey(Option<(u64, f64)>),
    /// The failure detector concludes the named peer's crash: scrub the
    /// routing view of ghosts — unless the peer rejoined in the meantime,
    /// in which case the detection is stale and must be ignored.
    DetectCrash(Ident),
    /// The failure detector's suspicion cadence: heartbeat-stalling
    /// attackers frame their clockwise neighbors.
    DetectorTick,
    /// One sybil identity joins via its sponsoring attacker.
    SybilJoin {
        /// The byzantine peer sponsoring the join.
        attacker: Ident,
        /// The fresh identity being injected.
        sybil: Ident,
    },
    /// One paced anti-entropy slice: move at most `repair_bandwidth` keys.
    /// The epoch stamps which repair plan the tick belongs to — churn bumps
    /// the epoch, so ticks of a preempted plan land as no-ops.
    RepairTick(u64),
}

impl SimEvent {
    /// The same-instant order key (see module docs): control events `0`,
    /// request events `1 + request id`, the arrival last.
    fn order_key(&self) -> u64 {
        match self {
            SimEvent::Arrival => u64::MAX,
            SimEvent::Hop(f) | SimEvent::Serve(f) => 1 + f.req.id,
            _ => 0,
        }
    }
}

struct InFlight {
    req: Request,
    peer: Ident,
    cursor: Ident,
    hops: u32,
    retries: u32,
}

/// The discrete-event traffic simulator (see module docs).
pub struct TrafficSim {
    cfg: WorkloadConfig,
    net: ReChordNetwork,
    table: RoutingTable,
    space: IdSpace,
    gen: TrafficGen,
    /// The one future-event list, keyed by [`SimEvent::order_key`].
    queue: EventQueue<SimEvent, u64>,
    /// Seed for all pure request-path draws (latency, entry picks).
    draw_seed: u64,
    /// Request hops and service completions processed so far.
    events_done: u64,
    /// Who stores what: the shared placement engine (replica sets, handoff,
    /// crash loss, incremental repair). Versions are put request ids.
    placement: PlacementMap<()>,
    /// Per-peer FIFO service capacity (queueing delay at loaded peers).
    service: ServiceQueue,
    /// Keys whose put (or preload) was acknowledged to a client.
    acked: BTreeSet<u64>,
    sink: SloSink,
    pending_churn: usize,
    churn_applied: usize,
    round_scheduled: bool,
    rounds_run: u64,
    was_stable: bool,
    /// Paced repair: the plan generation currently valid (churn bumps it,
    /// orphaning any in-flight [`SimEvent::RepairTick`]) and whether a
    /// drain is in progress.
    repair_epoch: u64,
    repair_running: bool,
    /// Per-peer crime sets, shared with the protocol layer. An
    /// all-honest map takes every fast path and the run is bit-identical
    /// to the pre-adversary simulator.
    adversary: Arc<AdversaryMap>,
    /// Failure detection: the suspect/clear state.
    detector: FailureDetector,
}

impl TrafficSim {
    /// Builds a simulator over `net` (in whatever state it is in — stable or
    /// mid-recovery) with `churn` laid onto the clock. Traffic and rounds
    /// are scheduled per `cfg`.
    pub fn new(cfg: WorkloadConfig, mut net: ReChordNetwork, churn: &TimedChurnPlan) -> Self {
        let mut table = RoutingTable::default();
        table.refresh_from_network(&net);
        let mut placement = PlacementMap::from_peers(table.peers(), cfg.replication);
        placement.set_peer_capacity(cfg.max_keys_per_peer);
        // Freeze the crime map and install it into the protocol layer.
        // An all-honest map is not installed at all: installing goes
        // through `Engine::protocol_mut`, which drops the step cache.
        let (adversary, sybils) = cfg.adversary.build(table.peers(), cfg.seed);
        let adversary = Arc::new(adversary);
        if !adversary.is_all_honest() {
            net.set_adversary(Arc::clone(&adversary));
        }
        let mut sim = TrafficSim {
            space: IdSpace::new(cfg.seed),
            gen: TrafficGen::new(cfg.traffic, cfg.seed),
            draw_seed: cfg.seed ^ 0x6c61_7465_6e63_7921,
            pending_churn: churn.len(),
            placement,
            service: ServiceQueue::new(cfg.service_time),
            events_done: 0,
            cfg,
            net,
            table,
            queue: EventQueue::default(),
            acked: BTreeSet::new(),
            sink: SloSink::new(),
            churn_applied: 0,
            round_scheduled: true,
            rounds_run: 0,
            was_stable: false,
            repair_epoch: 0,
            repair_running: false,
            detector: FailureDetector::new(cfg.detector),
            adversary,
        };
        for e in churn.events() {
            sim.schedule(e.at, SimEvent::Churn(e.event));
        }
        sim.schedule(cfg.round_every.max(1), SimEvent::Round);
        for &(attacker, sybil) in &sybils {
            sim.schedule(cfg.adversary.sybil_at, SimEvent::SybilJoin { attacker, sybil });
        }
        if cfg.detector.suspect_for > 0 && sim.adversary.any_commits(Crime::StallHeartbeats) {
            sim.schedule(cfg.detection_lag.max(1), SimEvent::DetectorTick);
        }
        if cfg.traffic_start <= cfg.traffic_end {
            sim.schedule(cfg.traffic_start, SimEvent::Arrival);
        }
        sim
    }

    /// Puts `event` on the clock at `at`, in its same-instant order.
    fn schedule(&mut self, at: u64, event: SimEvent) {
        self.queue.push_keyed(at, event.order_key(), event);
    }

    /// Schedules a hot-key reconfiguration at virtual time `at` (call before
    /// [`TrafficSim::run`]).
    pub fn schedule_hot_key(&mut self, at: u64, hot: Option<(u64, f64)>) {
        self.schedule(at, SimEvent::SetHotKey(hot));
    }

    /// Seeds every key of the universe (version 0) onto its current replica
    /// set, acknowledged — so gets have something to find from tick one.
    /// Bulk-loads the placement shards (sorted group construction instead
    /// of per-key tree inserts), which is what makes 10M-key scenarios
    /// load in seconds.
    pub fn preload(&mut self) {
        let space = self.space;
        let universe = self.gen.config().key_universe;
        self.placement.bulk_load((1..=universe).map(|key| (space.key_position(key), key, 0, ())));
        self.acked.extend(1..=universe);
    }

    /// Runs the simulation to completion: the queue drains once traffic has
    /// ended, every request has resolved, all churn has struck, and the
    /// network has re-stabilized (or the round budget is exhausted).
    pub fn run(mut self) -> SimReport {
        while let Some((now, ev)) = self.queue.pop() {
            self.events_done += u64::from(matches!(ev, SimEvent::Hop(_) | SimEvent::Serve(_)));
            match ev {
                SimEvent::Arrival => self.on_arrival(now),
                SimEvent::Hop(f) => self.on_hop(now, f),
                SimEvent::Serve(f) => self.advance(now, f),
                SimEvent::Round => self.on_round(),
                SimEvent::Churn(e) => self.on_churn(e),
                SimEvent::SetHotKey(h) => self.gen.set_hot_key(h),
                SimEvent::DetectCrash(victim) => self.on_detect_crash(victim),
                SimEvent::DetectorTick => self.on_detector_tick(),
                SimEvent::SybilJoin { attacker, sybil } => self.on_sybil_join(attacker, sybil),
                SimEvent::RepairTick(epoch) => self.on_repair_tick(epoch),
            }
        }
        let lost_keys = self
            .acked
            .iter()
            .filter(|&&key| !self.placement.contains(self.space.key_position(key), key))
            .count();
        SimReport {
            summary: self.sink.summary(),
            sink: self.sink,
            rounds: self.rounds_run,
            stable_at_end: self.was_stable,
            final_peers: self.net.len(),
            lost_keys,
            suspicions: self.detector.timeline().len(),
            events: self.events_done,
            placement_digest: self.placement.digest(),
        }
    }

    // ---- control event handlers -------------------------------------------

    fn on_round(&mut self) {
        self.round_scheduled = false;
        let (out, dirty) = self.net.round_dirty();
        self.rounds_run += 1;
        self.table.refresh_dirty(&self.net, &dirty);
        if out.changed {
            self.was_stable = false;
        } else {
            if !self.was_stable {
                // Just reached a fixpoint: open the anti-entropy pass that
                // re-replicates surviving data onto its current replica
                // sets — only the arcs dirtied by churn since the last
                // repair. A fixpoint with nothing dirty (e.g. the first
                // round of an already-placed run) records no repair event.
                self.start_repair();
            }
            self.was_stable = true;
        }
        // Keep rounds ticking while the overlay is off its fixpoint or churn
        // is still due; a stable, churn-free network needs no rounds for
        // traffic to proceed.
        if (!self.was_stable || self.pending_churn > 0) && self.rounds_run < self.cfg.max_rounds {
            self.schedule_round();
        }
    }

    fn on_churn(&mut self, event: ChurnEvent) {
        self.pending_churn -= 1;
        let k = self.churn_applied;
        self.churn_applied += 1;
        // Deterministic but varying victim/contact selector, mirroring
        // `ReChordNetwork::run_churn_plan`.
        let selector = (k as u64).wrapping_mul(0x9e37) ^ self.cfg.seed;
        let applied = self.net.apply_event(&event, selector, self.cfg.seed.wrapping_add(k as u64));
        if let Some(peer) = applied {
            self.preempt_repair();
            match event {
                ChurnEvent::Join { .. } => {
                    // Only the joiner's state is new; everyone else is
                    // untouched until the next round. The engine splits the
                    // joiner's arc off its successor and marks the window
                    // dirty for the next fixpoint repair.
                    self.table.refresh_peer(&self.net, peer);
                    self.placement.apply_join(peer);
                }
                ChurnEvent::GracefulLeave => {
                    // The leaver hands its copies to the next peer clockwise
                    // before disappearing (a polite shutdown drains itself).
                    self.table.refresh_from_network(&self.net);
                    self.placement.apply_leave(peer, Departure::Graceful);
                    self.service.forget(peer);
                }
                ChurnEvent::Crash => {
                    // Data dies with the peer, and the peer itself is gone
                    // — but survivors only notice once the failure detector
                    // fires: until then the table keeps routing through the
                    // ghost and requests bounce off it.
                    self.placement.apply_leave(peer, Departure::Crash);
                    self.service.forget(peer);
                    self.table.remove_peer(peer);
                    let at = self.queue.now() + self.cfg.detection_lag;
                    self.schedule(at, SimEvent::DetectCrash(peer));
                }
            }
        }
        self.membership_changed();
    }

    /// Membership is about to change: churn invalidates the repair plan
    /// mid-drain, so orphan any in-flight ticks and let the next fixpoint
    /// re-begin from the surviving dirty set.
    fn preempt_repair(&mut self) {
        if self.repair_running {
            self.repair_running = false;
            self.repair_epoch += 1;
            self.sink.repair_preempted(self.queue.now());
        }
    }

    /// Membership changed: the overlay is off its fixpoint, so make sure a
    /// round is coming.
    fn membership_changed(&mut self) {
        debug_assert!(
            self.table.peers() == self.placement.peers(),
            "routing table and placement map must agree on membership between control events"
        );
        self.was_stable = false;
        if !self.round_scheduled && self.rounds_run < self.cfg.max_rounds {
            self.schedule_round();
        }
    }

    // ---- failure detection & adversary events -----------------------------

    /// The detector concludes a crash `detection_lag` after the
    /// fact. A peer that *rejoined under the same identity* before the
    /// event fired is alive — the detection is stale and must be ignored,
    /// not scrub the live peer's view entries.
    fn on_detect_crash(&mut self, victim: Ident) {
        if self.net.engine().contains(victim) {
            return; // rejoined before detection: cancelled
        }
        self.table.refresh_from_network(&self.net);
    }

    /// The suspicion cadence, every `detection_lag` ticks:
    /// heartbeat-stalling attackers framing their clockwise neighbors.
    fn on_detector_tick(&mut self) {
        let now = self.queue.now();
        self.detector.prune(now);
        let peers = self.table.peers().to_vec();
        if !peers.is_empty() {
            for attacker in self.adversary.byzantine_peers() {
                if !self.adversary.commits(attacker, Crime::StallHeartbeats)
                    || self.table.knowledge_of(attacker).is_none()
                {
                    continue;
                }
                // The victim is the attacker's clockwise successor: the
                // peer whose heartbeats it relays — and starves.
                let after = Ident::from_raw(attacker.raw().wrapping_add(1));
                let victim = peers[successor_index(&peers, after).expect("peers is non-empty")];
                if victim != attacker {
                    self.detector.suspect(victim, now);
                }
            }
        }
        let period = self.cfg.detection_lag.max(1);
        if now + period <= self.cfg.traffic_end {
            self.schedule(now + period, SimEvent::DetectorTick);
        }
    }

    /// One sybil identity joins through its sponsoring attacker. The wave
    /// needs its sponsor alive; a crashed attacker injects nothing.
    fn on_sybil_join(&mut self, attacker: Ident, sybil: Ident) {
        if !self.net.join_via(sybil, attacker) {
            return;
        }
        // Same as organic churn: the join splits an arc.
        self.preempt_repair();
        self.table.refresh_peer(&self.net, sybil);
        self.placement.apply_join(sybil);
        self.membership_changed();
    }

    // ---- paced anti-entropy -----------------------------------------------

    /// Opens the repair pass a stabilization fixpoint owes. With
    /// `repair_bandwidth == 0` the whole pass lands instantaneously at the
    /// fixpoint (the pre-paced model); otherwise the first bounded slice
    /// runs right here and the rest drains one `RepairTick` per tick. An
    /// unbounded paced budget therefore degenerates to the unpaced
    /// behavior — trace-identically when `service_time == 0` (the
    /// default); with finite service capacity the paced path additionally
    /// admits every transfer through the receivers' queues, which delays
    /// foreground traffic (that contention *is* the model, so the two
    /// modes then agree on placement and repair totals but not on
    /// request timings).
    fn start_repair(&mut self) {
        if self.cfg.repair_bandwidth == 0 {
            let stats = self.placement.repair_delta();
            if stats.arcs_touched > 0 {
                self.sink.record_repair(self.queue.now(), stats);
            }
            return;
        }
        if self.repair_running {
            // A mid-convergence wobble (rounds changing with no churn)
            // cannot dirty placement; the running drain is still valid.
            return;
        }
        let backlog = self.placement.begin_repair();
        if !self.placement.repair_pending() {
            return; // nothing dirty: the fixpoint owes no repair
        }
        self.sink.repair_started(self.queue.now(), backlog);
        self.repair_running = true;
        self.repair_slice();
    }

    fn on_repair_tick(&mut self, epoch: u64) {
        if epoch != self.repair_epoch || !self.repair_running {
            return; // a tick of a plan churn already preempted
        }
        self.repair_slice();
    }

    /// One bounded slice: move at most `repair_bandwidth` keys, push every
    /// transferred copy through the receiving peer's service queue (repair
    /// occupies the same servers foreground hops do — a loaded peer makes
    /// *both* wait), and schedule the next slice until the backlog drains.
    ///
    /// Deliberate simplification: a copy becomes readable at the tick
    /// instant — the admission models the server time the transfer *costs*
    /// (contention with foreground work), not the arrival time of the
    /// bytes. Time-to-full-replication therefore bounds the data-layer
    /// work, slightly optimistically on a deeply backlogged receiver.
    fn repair_slice(&mut self) {
        let now = self.queue.now();
        let step = self.placement.repair_step(self.cfg.repair_bandwidth);
        for &(peer, copies) in &step.transfers {
            for _ in 0..copies {
                self.service.admit(peer, now);
            }
        }
        let backlog = self.placement.repair_backlog_keys();
        self.sink.repair_tick(now, step.stats, step.rejected_copies, backlog);
        if step.done {
            self.repair_running = false;
            self.sink.repair_finished(now);
        } else {
            self.schedule(now + 1, SimEvent::RepairTick(self.repair_epoch));
        }
    }

    fn schedule_round(&mut self) {
        self.schedule(self.queue.now() + self.cfg.round_every.max(1), SimEvent::Round);
        self.round_scheduled = true;
    }
}

/// Entry-point choice as a pure draw keyed by `(request id, attempt)`:
/// arrival staging (attempt 0) and retries (attempt = the retry ordinal)
/// share the scheme without sharing an rng, so the pick cannot depend on
/// the order requests are processed in.
/// Clients avoid suspected entry points: the draw goes over the *filtered*
/// list when any suspicion is active (never taken under the accurate
/// default detector, keeping honest runs on the unfiltered stream).
fn pick_entry(
    peers: &[Ident],
    detector: &FailureDetector,
    now: u64,
    draw_seed: u64,
    req_id: u64,
    attempt: u64,
) -> Option<Ident> {
    if peers.is_empty() {
        return None;
    }
    let h = mix(&[draw_seed, ENTRY_TAG, req_id, attempt]);
    if detector.has_active(now) {
        let clear: Vec<Ident> =
            peers.iter().copied().filter(|&p| !detector.is_suspected(p, now)).collect();
        if !clear.is_empty() {
            return Some(clear[(h % clear.len() as u64) as usize]);
        }
    }
    Some(peers[(h % peers.len() as u64) as usize])
}

/// The request lifecycle: the handlers of the `Arrival`, `Hop` and `Serve`
/// events.
impl TrafficSim {
    /// The generator's next request enters the system at a keyed-random
    /// entry peer — or is lost at the door when there is none.
    fn on_arrival(&mut self, at: u64) {
        let req = self.gen.next_request(at);
        let next = at + self.gen.next_gap();
        if next <= self.cfg.traffic_end {
            self.schedule(next, SimEvent::Arrival);
        }
        match pick_entry(self.table.peers(), &self.detector, at, self.draw_seed, req.id, 0) {
            Some(via) => {
                // Entering the system is an arrival at the entry peer:
                // it pays the same service-queue admission a hop does.
                let f = InFlight { req, peer: via, cursor: via, hops: 0, retries: 0 };
                self.schedule(at, SimEvent::Hop(f));
            }
            None => self.sink.record(RequestOutcome {
                id: req.id,
                op: req.op,
                key: req.key,
                issued_at: at,
                completed_at: at,
                hops: 0,
                retries: 0,
                kind: OutcomeKind::Lost,
            }),
        }
    }

    /// A hop lands at its receiving peer: admit it through the peer's
    /// service queue. Hop events fire in `(time, request id)` order, so
    /// admission is FIFO in *arrival* order; a loaded peer parks the
    /// request until its server gets to it.
    fn on_hop(&mut self, now: u64, f: InFlight) {
        if self.table.knowledge_of(f.peer).is_none() {
            // The receiving peer died while the hop was in flight: nothing
            // is there to serve it (and its forgotten service queue must not
            // be resurrected) — bounce straight to the retry path.
            return self.retry(now, f);
        }
        if self.detector.is_suspected(f.peer, now) {
            // Live but suspected: the sender treats the silence as a crash
            // and re-enters elsewhere — the availability tax a stalled
            // heartbeat levies on a healthy peer.
            return self.retry(now, f);
        }
        let served_at = self.service.admit(f.peer, now);
        if served_at > now {
            self.schedule(served_at, SimEvent::Serve(f));
        } else {
            self.advance(now, f);
        }
    }

    /// Drives a request from its current resident peer: free local steps
    /// until the route either needs a network hop (scheduled with a purely
    /// keyed latency draw), completes, or gets stuck. A resident peer that
    /// crashed while the request was in flight is unknown to the table, so
    /// the walk is stuck there and the request retries.
    fn advance(&mut self, now: u64, mut f: InFlight) {
        let key_pos = self.space.key_position(f.req.key);
        let (mut next, mut next_cursor) =
            match walk(&self.table, f.peer, &mut f.cursor, key_pos, None) {
                Walk::Arrived => return self.complete(now, f, key_pos),
                Walk::Forward { peer, cursor } => (peer, cursor),
                Walk::Stuck | Walk::OutOfSteps => return self.retry(now, f),
            };
        // The *forwarder* (the current resident peer) decides the hop's
        // fate before the honest greedy choice ships.
        if !self.adversary.is_all_honest() {
            let crimes = self.adversary.crimes_of(f.peer);
            if crimes.contains(Crime::DropForward) {
                // Silent drop: the client times out and pays the full retry
                // price.
                return self.retry(now, f);
            }
            if crimes.contains(Crime::MisrouteForward) {
                if let Some(worst) = self.worst_forward(f.peer, key_pos) {
                    // Ship the request to the worst known peer without
                    // advancing the route cursor: a hop is burned and no
                    // logical progress is made.
                    next = worst;
                    next_cursor = f.cursor;
                }
            }
        }
        f.cursor = next_cursor;
        f.hops += 1;
        if f.hops > self.cfg.hop_budget {
            return self.retry(now, f);
        }
        f.peer = next;
        let time = now + self.hop_latency(&f);
        self.schedule(time, SimEvent::Hop(f));
    }

    /// One purely keyed latency draw. `(request id, hops)` never repeats —
    /// hops increments before every draw, across hops *and* retries — so
    /// every draw is an independent sample of the latency law.
    fn hop_latency(&self, f: &InFlight) -> u64 {
        self.cfg.latency.sample_keyed(&[self.draw_seed, LAT_TAG, f.req.id, u64::from(f.hops)])
    }

    fn retry(&mut self, now: u64, mut f: InFlight) {
        f.retries += 1;
        if f.retries > self.cfg.max_retries {
            return self.finish(now, f, OutcomeKind::Lost);
        }
        let via = pick_entry(
            self.table.peers(),
            &self.detector,
            now,
            self.draw_seed,
            f.req.id,
            u64::from(f.retries),
        );
        match via {
            Some(via) => {
                f.peer = via;
                f.cursor = via;
                // Reaching the fresh entry peer is a real network hop:
                // count it against the budget and pay one sampled hop
                // latency on top of the backoff. (Retries used to teleport
                // — zero hops, zero latency — making them *cheaper* per
                // hop than first attempts and skewing p99 optimistic
                // under churn.)
                f.hops += 1;
                if f.hops > self.cfg.hop_budget {
                    return self.finish(now, f, OutcomeKind::Lost);
                }
                let time = now + self.cfg.retry_backoff + self.hop_latency(&f);
                self.schedule(time, SimEvent::Hop(f));
            }
            None => self.finish(now, f, OutcomeKind::Lost),
        }
    }

    /// The request reached the responsible peer — the key's placement
    /// primary.
    fn complete(&mut self, now: u64, mut f: InFlight, key_pos: Ident) {
        match f.req.op {
            Op::Put => {
                self.placement.put(key_pos, f.req.key, f.req.id, ());
                self.acked.insert(f.req.key);
                self.finish(now, f, OutcomeKind::Success);
            }
            Op::Get => {
                let probe = self.placement.lookup(key_pos, f.req.key);
                let kind =
                    match probe.hit {
                        Some((probes, _)) => {
                            f.hops += probes as u32; // each successor probe is a hop
                            if !self.adversary.is_all_honest()
                                && self.placement.replica_set(key_pos).get(probes).is_some_and(
                                    |&s| self.adversary.commits(s, Crime::StaleReadPoison),
                                )
                            {
                                // The replica that answered holds the value but
                                // serves a deliberately stale copy: the client
                                // gets an answer — just the wrong one.
                                OutcomeKind::Corrupted
                            } else {
                                OutcomeKind::Success
                            }
                        }
                        None if self.acked.contains(&f.req.key) => {
                            f.hops += (probe.replicas as u32).saturating_sub(1);
                            OutcomeKind::StaleRead
                        }
                        None => OutcomeKind::Success, // clean empty read: key never written
                    };
                self.finish(now, f, kind);
            }
        }
    }

    fn finish(&mut self, now: u64, f: InFlight, kind: OutcomeKind) {
        self.sink.record(RequestOutcome {
            id: f.req.id,
            op: f.req.op,
            key: f.req.key,
            issued_at: f.req.issued_at,
            completed_at: now,
            hops: f.hops,
            retries: f.retries,
            kind,
        });
    }

    /// The misrouter's pick: among everything `from` knows, the live peer
    /// from which `key_pos` is *farthest* clockwise — maximal anti-progress
    /// while still shipping to a real, reachable peer (ties broken by
    /// ident so the crime is deterministic).
    fn worst_forward(&self, from: Ident, key_pos: Ident) -> Option<Ident> {
        let known = self.table.knowledge_of(from)?;
        known
            .iter()
            .map(|r| r.owner)
            .filter(|&p| p != from && self.table.knowledge_of(p).is_some())
            .max_by_key(|&p| (p.dist_cw(key_pos), p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stable_net(n: usize, seed: u64) -> ReChordNetwork {
        let (net, report) = ReChordNetwork::bootstrap_stable(n, seed, 1, 50_000);
        assert!(report.converged);
        net
    }

    fn steady_cfg(seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            seed,
            traffic: TrafficConfig {
                mean_interarrival: 20.0,
                key_universe: 64,
                ..Default::default()
            },
            traffic_end: 4_000,
            ..Default::default()
        }
    }

    #[test]
    fn same_instant_events_run_control_then_requests_by_id_then_the_arrival() {
        let mut cfg = steady_cfg(3);
        cfg.traffic_start = cfg.traffic_end + 1; // no arrival of its own
        let mut sim = TrafficSim::new(cfg, stable_net(4, 3), &TimedChurnPlan::default());
        let inflight = |id| {
            let req = Request { id, op: Op::Get, key: 0, issued_at: 0 };
            let at = Ident::from_raw(0);
            InFlight { req, peer: at, cursor: at, hops: 0, retries: 0 }
        };
        sim.schedule(9, SimEvent::Hop(inflight(1)));
        sim.schedule(3, SimEvent::Arrival);
        sim.schedule(3, SimEvent::Hop(inflight(7)));
        sim.schedule(3, SimEvent::SetHotKey(Some((5, 0.5))));
        sim.schedule(3, SimEvent::Serve(inflight(2)));
        sim.schedule(3, SimEvent::SetHotKey(None));
        let order: Vec<_> = std::iter::from_fn(|| sim.queue.pop())
            .take(6)
            .map(|(at, ev)| match ev {
                SimEvent::Arrival => (at, "arrival", 0),
                SimEvent::Hop(f) => (at, "hop", f.req.id),
                SimEvent::Serve(f) => (at, "serve", f.req.id),
                SimEvent::SetHotKey(hot) => (at, "hot key", hot.map_or(0, |(key, _)| key)),
                _ => (at, "other control", 0),
            })
            .collect();
        assert_eq!(
            order,
            [
                (3, "hot key", 5),
                (3, "hot key", 0),
                (3, "serve", 2),
                (3, "hop", 7),
                (3, "arrival", 0),
                (9, "hop", 1),
            ],
            "control in scheduling order, then request ids ascending, then the arrival"
        );
    }

    #[test]
    fn steady_state_is_fully_available() {
        let mut sim = TrafficSim::new(steady_cfg(5), stable_net(16, 5), &TimedChurnPlan::default());
        sim.preload();
        let report = sim.run();
        assert!(report.summary.total > 100, "enough requests ran");
        assert_eq!(report.summary.availability, 1.0, "{}", report.summary);
        assert_eq!(report.summary.lost, 0);
        assert_eq!(report.lost_keys, 0);
        assert!(report.stable_at_end);
        assert!(report.summary.p50 > 0, "hops cost virtual time");
        assert!(report.summary.p99 >= report.summary.p50);
        assert!(report.events > report.summary.total as u64, "every request takes >= 1 data event");
    }

    #[test]
    fn runs_are_bit_identical() {
        let run = || {
            let mut sim = TrafficSim::new(
                steady_cfg(9),
                stable_net(12, 9),
                &TimedChurnPlan::storm(4, 0.5, 500, 200, 7),
            );
            sim.preload();
            let r = sim.run();
            (r.sink.trace(), format!("{}", r.summary), r.rounds)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn churn_degrades_then_recovers() {
        let mut cfg = steady_cfg(3);
        cfg.traffic_end = 20_000;
        cfg.replication = 3;
        // Aggressive storm: 10 events striking every 120 ticks from t=2000.
        let storm = TimedChurnPlan::storm(10, 0.4, 2_000, 120, 13);
        let mut sim = TrafficSim::new(cfg, stable_net(24, 3), &storm);
        sim.preload();
        let report = sim.run();
        assert!(report.stable_at_end, "network re-stabilized under the round budget");
        let windows = report.sink.windows(2_000);
        let tail = windows.last().unwrap();
        assert_eq!(tail.availability(), 1.0, "tail window fully available: {}", report.summary);
        assert!(report.summary.total > 500);
    }

    #[test]
    fn join_wave_keeps_acked_data_reachable() {
        let mut cfg = steady_cfg(11);
        cfg.traffic_end = 12_000;
        cfg.replication = 2;
        let wave = TimedChurnPlan::join_wave(6, 1_000, 400, 21);
        let mut sim = TrafficSim::new(cfg, stable_net(12, 11), &wave);
        sim.preload();
        let report = sim.run();
        assert_eq!(report.lost_keys, 0, "joins never destroy data");
        assert_eq!(report.final_peers, 18);
        assert!(report.summary.availability > 0.95, "{}", report.summary);
    }

    #[test]
    fn single_peer_network_serves_every_request_locally() {
        // One peer is *not* an empty network: everything routes to itself
        // and succeeds locally, losing nothing.
        let topo = rechord_topology::TopologyKind::SortedLine.generate(1, 1);
        let net = ReChordNetwork::from_topology(&topo, 1);
        let mut cfg = steady_cfg(1);
        cfg.traffic_end = 200;
        let sim = TrafficSim::new(cfg, net, &TimedChurnPlan::default());
        let report = sim.run();
        assert!(report.summary.total > 0);
        assert_eq!(report.summary.lost, 0);
    }

    #[test]
    fn peerless_network_records_every_request_lost() {
        // A genuinely peer-less network: `pick_entry` has nowhere to
        // inject, so every arrival must be recorded `Lost` — never dropped
        // silently, never panicking.
        let topo = rechord_topology::TopologyKind::SortedLine.generate(0, 1);
        let net = ReChordNetwork::from_topology(&topo, 1);
        assert_eq!(net.len(), 0);
        let mut cfg = steady_cfg(2);
        cfg.traffic_end = 500;
        let sim = TrafficSim::new(cfg, net, &TimedChurnPlan::default());
        let report = sim.run();
        assert!(report.summary.total > 0, "arrivals still fire with no peers");
        assert_eq!(report.summary.lost, report.summary.total, "all lost: {}", report.summary);
        assert_eq!(report.summary.availability, 0.0);
        assert_eq!(report.final_peers, 0);
        for o in report.sink.outcomes() {
            assert_eq!((o.kind, o.hops, o.retries), (OutcomeKind::Lost, 0, 0));
            assert_eq!(o.completed_at, o.issued_at, "lost at the door, instantly");
        }
    }

    #[test]
    fn dead_peer_hop_never_resurrects_service_backlog() {
        // Crash semantics of the service queue: once a peer dies, its
        // queue is forgotten, and a hop still in flight toward it must
        // bounce off the `on_hop` knowledge-check guard *without* admitting
        // anything (which would resurrect backlog for a ghost).
        let mut cfg = steady_cfg(31);
        cfg.service_time = 8;
        let mut sim = TrafficSim::new(cfg, stable_net(8, 31), &TimedChurnPlan::default());
        sim.preload();
        let victim = sim.table.peers()[0];
        sim.service.admit(victim, 0);
        sim.service.admit(victim, 0);
        assert!(sim.service.backlog_of(victim, 0) > 0, "victim has live backlog");

        // The peer crashes: placement loses its copies, the service queue
        // forgets it, the routing view drops it (what `on_churn` does).
        sim.placement.apply_leave(victim, Departure::Crash);
        sim.service.forget(victim);
        sim.table.remove_peer(victim);

        // A hop dispatched before the crash lands now.
        let req = Request { id: 900, op: Op::Get, key: 3, issued_at: 0 };
        let f = InFlight { req, peer: victim, cursor: victim, hops: 1, retries: 0 };
        let queued = sim.queue.len();
        sim.on_hop(0, f);
        assert_eq!(sim.service.backlog_of(victim, 1), 0, "guard must not resurrect the queue");
        assert_eq!(sim.queue.len(), queued + 1, "the request went to the retry path");
    }

    #[test]
    fn retries_pay_a_hop_and_its_latency() {
        // A retry re-enters at a fresh peer: that is a real network hop and
        // must cost one sampled latency on top of the backoff — retried
        // requests can never be cheaper per hop than first attempts.
        let mut cfg = steady_cfg(33);
        cfg.retry_backoff = 40;
        let mut sim = TrafficSim::new(cfg, stable_net(8, 33), &TimedChurnPlan::default());
        sim.preload();
        // Kill a peer so a staged hop bounces straight to the retry path.
        let gone = sim.table.peers()[1];
        sim.placement.apply_leave(gone, Departure::Crash);
        sim.table.remove_peer(gone);
        let req = Request { id: 901, op: Op::Get, key: 5, issued_at: 0 };
        let f = InFlight { req, peer: gone, cursor: gone, hops: 2, retries: 0 };
        sim.on_hop(0, f);
        // The retry hop is the only request event on the clock.
        let (at, wire) = std::iter::from_fn(|| sim.queue.pop())
            .find(|(_, ev)| matches!(ev, SimEvent::Hop(_) | SimEvent::Serve(_)))
            .expect("the retry hop is queued");
        let SimEvent::Hop(f) = wire else { panic!("expected a hop event") };
        assert_eq!(f.req.id, 901);
        assert_eq!(f.retries, 1);
        assert_eq!(f.hops, 3, "re-entry counts as a hop");
        assert!(
            at > sim.cfg.retry_backoff,
            "re-entry pays latency beyond the bare backoff (landed at {at})"
        );
    }

    #[test]
    fn service_capacity_adds_deterministic_queueing_delay() {
        // Same seed, same traffic: finite per-peer service rate must slow
        // requests down (hops queue behind each other at loaded peers) but
        // never fail them — and stay bit-deterministic.
        let run = |service_time: u64| {
            let mut cfg = steady_cfg(21);
            cfg.traffic.mean_interarrival = 4.0; // enough load to collide
            cfg.service_time = service_time;
            let mut sim = TrafficSim::new(cfg, stable_net(10, 21), &TimedChurnPlan::default());
            sim.preload();
            let r = sim.run();
            (r.summary.p50, r.summary.p99, r.summary.availability, r.sink.trace())
        };
        let (p50_inf, p99_inf, avail_inf, _) = run(0);
        let (p50_q, p99_q, avail_q, trace_q) = run(8);
        assert_eq!(avail_inf, 1.0);
        assert_eq!(avail_q, 1.0, "queueing delays, never fails");
        assert!(p50_q > p50_inf, "finite capacity must raise p50 ({p50_inf} -> {p50_q})");
        assert!(p99_q >= p99_inf);
        assert_eq!(trace_q, run(8).3, "queueing is deterministic");
    }

    #[test]
    fn fixpoint_repairs_are_incremental_and_recorded() {
        let mut cfg = steady_cfg(7);
        cfg.traffic_end = 16_000;
        cfg.replication = 3;
        let storm = TimedChurnPlan::storm(6, 0.5, 2_000, 400, 5);
        let mut sim = TrafficSim::new(cfg, stable_net(20, 7), &storm);
        sim.preload();
        let report = sim.run();
        let universe = 64usize; // steady_cfg key universe
        let repairs = report.sink.repairs();
        assert!(!repairs.is_empty(), "churn must trigger fixpoint repairs");
        assert!(report.summary.repair_keys_moved > 0, "churn moves keys");
        assert_eq!(report.summary.repairs, repairs.len());
        for r in repairs {
            assert!(r.stats.keys_moved <= r.stats.keys_examined);
            assert!(
                r.stats.keys_examined <= universe,
                "repair examined {} keys of a {universe}-key universe",
                r.stats.keys_examined
            );
        }
        // Single-event repairs touch only the replication window around the
        // changed peer, never every arc.
        let max_arcs = repairs.iter().map(|r| r.stats.arcs_touched).max().unwrap();
        assert!(
            max_arcs < report.final_peers,
            "incremental repair touched {max_arcs} arcs with {} peers",
            report.final_peers
        );
    }

    #[test]
    fn infinite_bandwidth_paced_repair_matches_the_unpaced_traces() {
        // The paced machinery with an unbounded budget must degenerate to
        // the pre-paced model: one synchronous drain at the fixpoint, the
        // same request outcomes bit for bit — when `service_time == 0`.
        // With finite service capacity the paced path additionally charges
        // the receivers for every transfer (that contention is the model),
        // so there the modes must still agree on placement and repair
        // totals, but request timings legitimately diverge.
        let run = |bandwidth: usize, service_time: u64| {
            let mut cfg = steady_cfg(9);
            cfg.traffic_end = 16_000;
            cfg.replication = 3;
            cfg.repair_bandwidth = bandwidth;
            cfg.service_time = service_time;
            let storm = TimedChurnPlan::storm(6, 0.5, 2_000, 400, 5);
            let mut sim = TrafficSim::new(cfg, stable_net(20, 9), &storm);
            sim.preload();
            sim.run()
        };
        let unpaced = run(0, 0);
        let infinite = run(usize::MAX, 0);
        assert_eq!(unpaced.sink.trace(), infinite.sink.trace(), "traces must be identical");
        assert_eq!(unpaced.rounds, infinite.rounds, "round counts must match");
        assert_eq!(unpaced.summary.repairs, infinite.summary.repairs);
        assert_eq!(unpaced.summary.repair_keys_moved, infinite.summary.repair_keys_moved);

        let unpaced_q = run(0, 4);
        let infinite_q = run(usize::MAX, 4);
        assert_eq!(unpaced_q.summary.repairs, infinite_q.summary.repairs);
        assert_eq!(
            unpaced_q.summary.repair_keys_moved, infinite_q.summary.repair_keys_moved,
            "queued or not, the same keys move"
        );
        assert_eq!(unpaced_q.lost_keys, infinite_q.lost_keys);
        assert_eq!(
            unpaced_q.summary.total, infinite_q.summary.total,
            "every request still completes under repair contention"
        );
    }

    #[test]
    fn throttled_repair_stretches_the_stale_window() {
        let run = |bandwidth: usize| {
            let mut cfg = steady_cfg(23);
            cfg.traffic_end = 16_000;
            cfg.replication = 2;
            cfg.repair_bandwidth = bandwidth;
            let storm = TimedChurnPlan::storm(6, 0.6, 2_000, 500, 11);
            let mut sim = TrafficSim::new(cfg, stable_net(16, 23), &storm);
            sim.preload();
            sim.run()
        };
        let unpaced = run(0);
        let paced = run(2);
        assert_eq!(unpaced.summary.slowest_repair, 0, "unpaced repair is instantaneous");
        let psum = &paced.summary;
        assert!(psum.repairs > 0);
        assert!(psum.repair_ticks > psum.repairs, "a 2-key budget needs many ticks per pass");
        assert!(psum.slowest_repair > 0, "paced repair takes virtual time: {psum}");
        assert!(psum.repair_backlog_peak > 0, "the backlog gauge saw outstanding keys");
        assert!(
            psum.stale >= unpaced.summary.stale,
            "a longer repair window cannot shrink stale reads ({} -> {})",
            unpaced.summary.stale,
            psum.stale
        );
        // The paced run still converges: repair finished and the acked data
        // that survived the crashes is fully re-replicated.
        assert!(paced.stable_at_end);
        let last = paced.sink.repairs().last().unwrap();
        assert!(!last.preempted, "the final pass ran to completion");
        assert_eq!(paced.sink.backlog_gauge().last().unwrap().1, 0, "backlog drained to zero");
    }

    #[test]
    fn churn_mid_drain_preempts_the_repair_pass() {
        // A trickle budget against a dense storm: fixpoints open passes
        // that the next churn event interrupts mid-drain. The preempted
        // pass is recorded as such and its remainder lands in a later pass.
        let mut cfg = steady_cfg(29);
        cfg.traffic_end = 20_000;
        cfg.traffic.key_universe = 2_048; // a backlog deep enough to outlast the storm spacing
        cfg.replication = 3;
        cfg.round_every = 10; // fast fixpoints: passes open between storm strikes
        cfg.repair_bandwidth = 1;
        let storm = TimedChurnPlan::storm(10, 0.5, 2_000, 300, 17);
        let mut sim = TrafficSim::new(cfg, stable_net(20, 29), &storm);
        sim.preload();
        let report = sim.run();
        let repairs = report.sink.repairs();
        assert!(repairs.iter().any(|r| r.preempted), "a 1-key/tick drain must get interrupted");
        assert!(!repairs.last().unwrap().preempted, "but the last pass completes");
        assert!(report.stable_at_end);
        for r in repairs {
            assert!(r.stats.keys_moved <= r.backlog_at_start, "budget accounting: {r:?}");
            assert!(r.at >= r.started_at);
        }
        assert_eq!(report.sink.backlog_gauge().last().unwrap().1, 0);
    }

    #[test]
    fn storage_cap_rejects_surplus_repair_copies() {
        // 64 keys × replication 3 on 10 peers ≈ 19 copies per peer; a cap
        // of 14 leaves no headroom, so post-crash re-replication must
        // reject surplus copies — and the data stays readable at primaries.
        let mut cfg = steady_cfg(27);
        cfg.traffic_end = 12_000;
        cfg.replication = 3;
        cfg.repair_bandwidth = 8;
        cfg.max_keys_per_peer = 14;
        let storm = TimedChurnPlan::storm(3, 1.0, 2_000, 400, 19);
        let mut sim = TrafficSim::new(cfg, stable_net(10, 27), &storm);
        sim.preload();
        let report = sim.run();
        assert!(
            report.summary.repair_rejected_copies > 0,
            "an over-quota network must reject surplus repair copies: {}",
            report.summary
        );
        assert!(report.stable_at_end);
        assert_eq!(report.lost_keys, 0, "rejection never destroys surviving data");
    }

    #[test]
    fn hot_key_schedule_fires() {
        let mut cfg = steady_cfg(17);
        cfg.traffic.mean_interarrival = 5.0;
        cfg.traffic_end = 3_000;
        let mut sim = TrafficSim::new(cfg, stable_net(10, 17), &TimedChurnPlan::default());
        sim.preload();
        sim.schedule_hot_key(1_000, Some((7, 0.9)));
        sim.schedule_hot_key(2_000, None);
        let report = sim.run();
        let mid: Vec<_> = report
            .sink
            .outcomes()
            .iter()
            .filter(|o| (1_000..2_000).contains(&o.issued_at))
            .collect();
        let hot = mid.iter().filter(|o| o.key == 7).count();
        assert!(hot * 10 > mid.len() * 7, "{hot}/{} mid-run requests on the hot key", mid.len());
    }

    // ---- fault injection & failure detection ------------------------------

    use rechord_core::CrimeSet;

    fn adversarial_cfg(seed: u64, fraction: f64, crimes: CrimeSet) -> WorkloadConfig {
        let mut cfg = steady_cfg(seed);
        cfg.adversary = AdversaryConfig { fraction, crimes, ..Default::default() };
        cfg
    }

    #[test]
    fn stale_detection_of_a_rejoined_peer_is_cancelled() {
        // A peer crashes and *rejoins under the same identity* before the
        // failure detector fires. The pending `DetectCrash` is stale: it
        // must be ignored, not act on a live peer. (With natural churn this
        // never happens — rejoining idents are fresh — so the regression is
        // driven by hand.)
        let mut sim =
            TrafficSim::new(steady_cfg(41), stable_net(10, 41), &TimedChurnPlan::default());
        let victim = sim.table.peers()[2];
        let contact = sim.table.peers()[0];
        sim.placement.apply_leave(victim, Departure::Crash);
        sim.table.remove_peer(victim);
        assert!(sim.net.crash(victim), "victim crashed");
        assert!(sim.net.join_via(victim, contact), "…and rejoined as itself");

        // Make the routing table observably stale: drop an unrelated peer
        // from the *view only*. A full refresh would resurrect it.
        let canary = sim.table.peers()[4];
        sim.table.remove_peer(canary);
        assert!(sim.table.knowledge_of(canary).is_none());

        sim.on_detect_crash(victim);
        assert!(
            sim.table.knowledge_of(canary).is_none(),
            "stale detection of a live peer must be a no-op, not a view refresh"
        );

        // The same detection against a peer that stayed dead must scrub.
        let dead = sim.table.peers()[1];
        sim.placement.apply_leave(dead, Departure::Crash);
        sim.table.remove_peer(dead);
        assert!(sim.net.crash(dead));
        sim.on_detect_crash(dead);
        assert!(
            sim.table.knowledge_of(canary).is_some(),
            "a genuine detection refreshes every survivor's view"
        );
    }

    #[test]
    fn poisoned_reads_surface_as_corrupted() {
        let cfg = adversarial_cfg(19, 0.5, CrimeSet::single(Crime::StaleReadPoison));
        let mut sim = TrafficSim::new(cfg, stable_net(12, 19), &TimedChurnPlan::default());
        sim.preload();
        let report = sim.run();
        assert!(report.summary.corrupted > 0, "poisoners must corrupt reads: {}", report.summary);
        assert!(report.summary.availability < 1.0, "corruption counts against the SLO");
        assert_eq!(report.summary.lost, 0, "poison answers; it does not drop");
    }

    #[test]
    fn forward_droppers_degrade_availability_monotonically() {
        let run = |fraction| {
            let cfg = adversarial_cfg(23, fraction, CrimeSet::single(Crime::DropForward));
            let mut sim = TrafficSim::new(cfg, stable_net(16, 23), &TimedChurnPlan::default());
            sim.preload();
            sim.run().summary.availability
        };
        let (clean, mild, heavy) = (run(0.0), run(0.25), run(0.5));
        assert_eq!(clean, 1.0, "fraction 0 is the honest simulator");
        assert!(mild < clean, "a quarter of peers dropping forwards must hurt");
        assert!(heavy <= mild, "more droppers can never help (got {mild} -> {heavy})");
    }

    #[test]
    fn false_suspicions_bounce_requests_off_live_peers() {
        let mut cfg = adversarial_cfg(29, 0.25, CrimeSet::single(Crime::StallHeartbeats));
        cfg.detector = DetectorConfig { suspect_for: 300 };
        let mut sim = TrafficSim::new(cfg, stable_net(12, 29), &TimedChurnPlan::default());
        sim.preload();
        let report = sim.run();
        assert!(report.suspicions > 0, "stalled heartbeats must raise suspicions");
        assert!(
            report.sink.outcomes().iter().any(|o| o.retries > 0),
            "bounces off suspected (live!) peers show up as retries"
        );
        assert!(
            report.summary.availability < 1.0,
            "every suspected peer is alive, yet the framed suspicions cost real availability"
        );
        assert!(report.summary.availability > 0.5, "{}", report.summary);
    }

    #[test]
    fn sybil_wave_grows_the_network_with_byzantine_identities() {
        let mut cfg = steady_cfg(37);
        cfg.adversary = AdversaryConfig {
            fraction: 0.25,
            crimes: CrimeSet::single(Crime::SybilJoinWave).with(Crime::StaleReadPoison),
            sybil_wave: 2,
            sybil_at: 500,
        };
        let mut sim = TrafficSim::new(cfg, stable_net(12, 37), &TimedChurnPlan::default());
        sim.preload();
        let report = sim.run();
        assert_eq!(report.final_peers, 12 + 3 * 2, "each attacker injected its wave");
        assert!(report.stable_at_end, "the rules absorb the wave");
    }

    #[test]
    fn inert_adversary_config_is_trace_identical_to_honest() {
        // Declaring a fraction with an *empty* crime set corrupts nobody:
        // the run must be byte-for-byte the honest simulator — no policy
        // map installed, no draw key changed, no event reordered.
        let run = |cfg: WorkloadConfig| {
            let mut sim = TrafficSim::new(
                cfg,
                stable_net(10, 43),
                &TimedChurnPlan::storm(3, 0.5, 500, 200, 7),
            );
            sim.preload();
            let r = sim.run();
            (r.sink.trace(), r.rounds, r.suspicions)
        };
        let honest = run(steady_cfg(43));
        let inert = run(adversarial_cfg(43, 0.5, CrimeSet::EMPTY));
        assert_eq!(honest, inert);
        assert_eq!(honest.2, 0, "the legacy detector never suspects");
    }
}
