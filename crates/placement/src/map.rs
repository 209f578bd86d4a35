//! The [`PlacementMap`] itself: arc-sharded records, topology deltas, and
//! the incremental repair pass.

use rechord_id::{successor_index, successors, Ident};
use std::collections::{BTreeMap, BTreeSet};

/// How a peer left the network — decides what happens to its copies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Departure {
    /// A polite shutdown: the leaver drains its copies to its cyclic
    /// successor before disappearing (max-merge — the engine keeps one
    /// authoritative version per key, so the newer version always wins).
    Graceful,
    /// The peer dies taking its copies with it; a key whose last copy was
    /// there is lost forever.
    Crash,
}

/// What one repair pass (incremental or full) did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Ring arcs (shards) whose records were re-examined.
    pub arcs_touched: usize,
    /// Records visited across the touched arcs.
    pub keys_examined: usize,
    /// Records whose holder set actually changed.
    pub keys_moved: usize,
    /// Copies created (re-replication onto a peer that lacked one).
    pub copies_added: usize,
    /// Stale copies dropped (peer no longer in the key's replica set).
    pub copies_dropped: usize,
}

impl RepairStats {
    /// Folds another pass into this one (for run-level totals).
    pub fn merge(&mut self, other: RepairStats) {
        self.arcs_touched += other.arcs_touched;
        self.keys_examined += other.keys_examined;
        self.keys_moved += other.keys_moved;
        self.copies_added += other.copies_added;
        self.copies_dropped += other.copies_dropped;
    }

    /// True iff the pass changed nothing.
    pub fn is_noop(&self) -> bool {
        self.keys_moved == 0
    }
}

/// One stored key: its authoritative version/value and the peers currently
/// holding a copy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record<V> {
    /// Version of the authoritative value (callers supply monotone versions
    /// — request ids, write counters — so "newest wins" is a `max`).
    pub version: u64,
    /// The value itself (`()` when only placement is simulated).
    pub value: V,
    /// Peers holding a copy, ascending. Between a topology change and the
    /// next repair this may lag the current replica set.
    holders: Vec<Ident>,
}

impl<V> Record<V> {
    /// Peers currently holding a copy, ascending.
    pub fn holders(&self) -> &[Ident] {
        &self.holders
    }

    /// Does `peer` hold a copy?
    pub fn holds(&self, peer: Ident) -> bool {
        self.holders.binary_search(&peer).is_ok()
    }
}

/// `(ring position, raw key)` — the identity of a record. The position
/// comes first so a shard's `BTreeMap` stores records in ring order and an
/// arc split is a range extraction.
type ShardKey = (Ident, u64);
type Shard<V> = BTreeMap<ShardKey, Record<V>>;

/// What one bounded [`PlacementMap::repair_step`] call did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RepairStep {
    /// The step's work, in the same units as a full pass.
    pub stats: RepairStats,
    /// Copies created per receiving peer this step, ascending by peer —
    /// exactly the transfers a bandwidth model should admit through the
    /// receiver's service queue.
    pub transfers: Vec<(Ident, usize)>,
    /// Copies withheld because the receiving peer sat at its capacity cap
    /// (the key stays readable at its primary but under-replicated until
    /// the next churn re-dirties its arc).
    pub rejected_copies: usize,
    /// True when this step drained the plan completely (the map is clean).
    pub done: bool,
}

/// Resume state of an in-progress paced repair (see
/// [`PlacementMap::begin_repair`]). Transient: it never participates in
/// placement equality, and any topology change drops it (the surviving
/// dirty set seeds the next plan).
#[derive(Clone, Debug, PartialEq, Eq)]
struct PlanState {
    /// Dirty primaries in ascending ring order; `idx` is the next to drain.
    worklist: Vec<Ident>,
    idx: usize,
    /// Last examined key of the current arc — the resume point after a
    /// budget-exhausted step.
    cursor: Option<ShardKey>,
    /// Keys left to examine (the backlog gauge; best-effort under puts
    /// landing mid-plan, which are placed clean and need no repair).
    remaining: usize,
}

/// What probing a key's replica set found (see [`PlacementMap::lookup`]).
#[derive(Debug)]
pub struct Probe<'a, V> {
    /// Size of the key's current replica set (`min(replication, peers)`).
    pub replicas: usize,
    /// `(probe index, record)` for the first replica holding a copy —
    /// `None` when no current replica has one (the copy may exist on a
    /// stale holder, invisible until repair re-replicates it).
    pub hit: Option<(usize, &'a Record<V>)>,
}

/// Key→replica placement sharded by ring arc.
///
/// The map owns a peer snapshot (kept current by the caller through
/// [`PlacementMap::apply_join`] / [`PlacementMap::apply_leave`]) and one
/// shard per peer: the records whose primary — cyclic successor of the
/// key's ring position — is that peer, in ring order. A per-peer copy index
/// makes crash loss and graceful handoff O(copies at the peer), and a dirty
/// set of arc markers makes [`PlacementMap::repair_delta`] O(moved keys).
///
/// **Invariant** (what the proptests pin): outside dirty arcs, every
/// record's holder set equals its current replica set; composing
/// `repair_delta` over any churn trace therefore reaches the exact state
/// [`PlacementMap::rebuild`] computes from scratch.
#[derive(Clone, Debug)]
pub struct PlacementMap<V> {
    peers: Vec<Ident>,
    replication: usize,
    shards: BTreeMap<Ident, Shard<V>>,
    /// peer → identities of the records it holds a copy of (no empty sets).
    held: BTreeMap<Ident, BTreeSet<ShardKey>>,
    /// Arc markers possibly needing repair. An entry is the ident of the
    /// peer whose arc changed *at marking time*; it may since have departed
    /// (its arc merged clockwise — resolution follows the successor) or had
    /// its arc split (the new sub-arc was marked by its own join).
    dirty: BTreeSet<Ident>,
    /// The active paced-repair plan, if a [`PlacementMap::begin_repair`] is
    /// mid-drain. Invalidated by any join/leave.
    plan: Option<PlanState>,
    /// Per-peer storage cap enforced on **repair** copies (`0` = unlimited;
    /// puts and graceful handoffs are never rejected — the cap models
    /// background re-replication yielding to live data).
    max_keys_per_peer: usize,
}

/// Placement equality is over the durable state — peers, records, holders,
/// dirty markers — never the transient repair cursor: a paced drain that
/// just finished equals the same map repaired in one shot.
impl<V: PartialEq> PartialEq for PlacementMap<V> {
    fn eq(&self, other: &Self) -> bool {
        self.peers == other.peers
            && self.replication == other.replication
            && self.shards == other.shards
            && self.held == other.held
            && self.dirty == other.dirty
    }
}

impl<V: Eq> Eq for PlacementMap<V> {}

impl<V> PlacementMap<V> {
    /// An empty map with no peers. `replication` is clamped to at least 1.
    pub fn new(replication: usize) -> Self {
        Self::from_peers(&[], replication)
    }

    /// A map over a peer snapshot (sorted and deduplicated internally).
    pub fn from_peers(peers: &[Ident], replication: usize) -> Self {
        let mut peers = peers.to_vec();
        peers.sort_unstable();
        peers.dedup();
        let shards = peers.iter().map(|&p| (p, Shard::new())).collect();
        PlacementMap {
            peers,
            replication: replication.max(1),
            shards,
            held: BTreeMap::new(),
            dirty: BTreeSet::new(),
            plan: None,
            max_keys_per_peer: 0,
        }
    }

    /// Caps how many copies a peer may hold before **repair** stops adding
    /// more there (`0` = unlimited, the default). The cap never rejects the
    /// primary copy — the arc owner's responsibility is not optional — and
    /// never applies to puts or graceful handoffs, so data is refused only
    /// by background re-replication, never by the write path.
    pub fn set_peer_capacity(&mut self, max_keys_per_peer: usize) {
        self.max_keys_per_peer = max_keys_per_peer;
    }

    /// The current peer snapshot, ascending.
    pub fn peers(&self) -> &[Ident] {
        &self.peers
    }

    /// Configured replica count (clamped to the population at use sites).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Number of keys with at least one surviving copy.
    pub fn key_count(&self) -> usize {
        self.shards.values().map(Shard::len).sum()
    }

    /// Every stored key (unordered across shards, ring-ordered within one).
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.shards.values().flat_map(|s| s.keys().map(|&(_, k)| k))
    }

    /// The peer responsible for ring position `pos` — its cyclic successor
    /// among the current peers (consistent hashing, paper §1.1).
    pub fn primary_for(&self, pos: Ident) -> Option<Ident> {
        successor_index(&self.peers, pos).map(|i| self.peers[i])
    }

    /// The responsible peer plus its `replication − 1` cyclic successors
    /// for a ring position, in probe order, clamped to the population.
    ///
    /// This is the **one** replica-set computation in the workspace; the
    /// DHT (`KvStore`) and the workload simulator both delegate here, and a
    /// cluster's `NodePeer` walks the same [`successors`] window.
    pub fn replica_set(&self, pos: Ident) -> Vec<Ident> {
        successors(&self.peers, pos).take(self.replication).collect()
    }

    /// Does any peer hold a copy of `key` (hashed to `pos`)?
    pub fn contains(&self, pos: Ident, key: u64) -> bool {
        self.primary_for(pos)
            .and_then(|p| self.shards.get(&p))
            .is_some_and(|s| s.contains_key(&(pos, key)))
    }

    /// Copies currently held by `peer` (the load-accounting primitive).
    pub fn load_of(&self, peer: Ident) -> usize {
        self.held.get(&peer).map_or(0, BTreeSet::len)
    }

    /// `(max load, mean load)` over all peers — consistent hashing's load
    /// balance (`O(log n)` imbalance factor w.h.p.).
    pub fn load_balance(&self) -> (usize, f64) {
        if self.peers.is_empty() {
            return (0, 0.0);
        }
        let total: usize = self.peers.iter().map(|&p| self.load_of(p)).sum();
        let max = self.peers.iter().map(|&p| self.load_of(p)).max().unwrap_or(0);
        (max, total as f64 / self.peers.len() as f64)
    }

    /// Writes `value` under `key` at ring position `pos`: the record's
    /// version/value are replaced iff `version` is at least the stored
    /// version (newest wins; equal versions take the latest write), and a
    /// copy is ensured at every current replica either way. Stale copies
    /// elsewhere are left for the next repair to collect (a put does not
    /// chase them). Returns the replica count the write reached (0 with no
    /// peers — nothing is stored).
    pub fn put(&mut self, pos: Ident, key: u64, version: u64, value: V) -> usize {
        let window = successors(&self.peers, pos).take(self.replication);
        let Some(primary) = window.clone().next() else {
            return 0;
        };
        let sk = (pos, key);
        let shard = self.shards.get_mut(&primary).expect("primary shard exists");
        let rec = match shard.entry(sk) {
            std::collections::btree_map::Entry::Occupied(e) => {
                let rec = e.into_mut();
                // Max-merge: a write completing late (stale version) must
                // not regress the authoritative record.
                if version >= rec.version {
                    rec.version = version;
                    rec.value = value;
                }
                rec
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(Record { version, value, holders: Vec::new() })
            }
        };
        for peer in window {
            if let Err(i) = rec.holders.binary_search(&peer) {
                rec.holders.insert(i, peer);
                self.held.entry(peer).or_default().insert(sk);
            }
        }
        self.replication.min(self.peers.len())
    }

    /// Probes `key`'s current replica set in order, as a get does: the hit
    /// index is the number of extra successor hops the read cost.
    pub fn lookup(&self, pos: Ident, key: u64) -> Probe<'_, V> {
        let mut window = successors(&self.peers, pos).take(self.replication);
        let rec = window.clone().next().and_then(|p| self.shards.get(&p)?.get(&(pos, key)));
        let hit = rec.and_then(|rec| window.position(|p| rec.holds(p)).map(|k| (k, rec)));
        Probe { replicas: self.replication.min(self.peers.len()), hit }
    }

    /// A peer joins: its arc is split off its successor's shard and the
    /// replication-wide window around it is marked dirty. O(keys in the
    /// split arc). Returns `false` (a no-op) if the peer already exists.
    pub fn apply_join(&mut self, peer: Ident) -> bool {
        let Err(idx) = self.peers.binary_search(&peer) else {
            return false;
        };
        self.plan = None; // churn preempts any paced repair in progress
        self.peers.insert(idx, peer);
        let n = self.peers.len();
        let mut shard = Shard::new();
        if n > 1 {
            let pred = self.peers[(idx + n - 1) % n];
            let succ = self.peers[(idx + 1) % n];
            let src = self.shards.get_mut(&succ).expect("successor shard exists");
            for (sk, rec) in extract_arc(src, pred, peer) {
                shard.insert(sk, rec);
            }
        }
        self.shards.insert(peer, shard);
        self.mark_dirty_around(peer);
        true
    }

    /// A peer departs: its shard merges into its successor's, its copies
    /// hand off (graceful) or die (crash), and the replication-wide window
    /// around it is marked dirty. O(keys in the merged arc + copies at the
    /// peer). Returns `false` (a no-op) if the peer is unknown.
    pub fn apply_leave(&mut self, peer: Ident, departure: Departure) -> bool {
        let Ok(idx) = self.peers.binary_search(&peer) else {
            return false;
        };
        self.plan = None; // churn preempts any paced repair in progress
        self.peers.remove(idx);
        let old_shard = self.shards.remove(&peer).expect("departing shard exists");
        let held_by = self.held.remove(&peer).unwrap_or_default();
        if self.peers.is_empty() {
            // The last peer took every record with it, however it left.
            self.held.clear();
            self.dirty.clear();
            return true;
        }
        let succ = self.peers[idx % self.peers.len()];
        let dst = self.shards.get_mut(&succ).expect("successor shard exists");
        dst.extend(old_shard);
        for sk in held_by {
            let primary = self.primary_for(sk.0).expect("peers nonempty");
            let shard = self.shards.get_mut(&primary).expect("primary shard exists");
            let Some(rec) = shard.get_mut(&sk) else {
                continue;
            };
            if let Ok(i) = rec.holders.binary_search(&peer) {
                rec.holders.remove(i);
            }
            match departure {
                Departure::Graceful => {
                    if let Err(i) = rec.holders.binary_search(&succ) {
                        rec.holders.insert(i, succ);
                        self.held.entry(succ).or_default().insert(sk);
                    }
                }
                Departure::Crash => {
                    if rec.holders.is_empty() {
                        shard.remove(&sk); // last copy died with the peer
                    }
                }
            }
        }
        self.mark_dirty_around(peer);
        true
    }

    /// Marks the arcs whose replica window gains or loses a member when the
    /// population changes at `anchor`: the arc owning `anchor`'s position
    /// plus the `replication − 1` preceding arcs.
    fn mark_dirty_around(&mut self, anchor: Ident) {
        let Some(i) = successor_index(&self.peers, anchor) else {
            return;
        };
        let n = self.peers.len();
        self.dirty.insert(self.peers[i]);
        for k in 1..=(self.replication - 1).min(n - 1) {
            self.dirty.insert(self.peers[(i + n - k) % n]);
        }
    }

    /// Starts (or restarts) a **paced** repair: the dirty markers are
    /// canonicalized to their owning primaries and queued in ascending ring
    /// order for [`PlacementMap::repair_step`] to drain. Returns the backlog
    /// — keys sitting in dirty arcs that the plan will examine. Beginning
    /// with nothing dirty yields an empty plan (the first step reports
    /// `done`). Any join/leave invalidates the plan; the next
    /// `begin_repair` resumes from the surviving dirty set.
    pub fn begin_repair(&mut self) -> usize {
        let canon: BTreeSet<Ident> =
            self.dirty.iter().filter_map(|&d| self.primary_for(d)).collect();
        self.dirty = canon.clone();
        let worklist: Vec<Ident> = canon.into_iter().collect();
        let remaining = worklist.iter().map(|p| self.shards.get(p).map_or(0, Shard::len)).sum();
        self.plan = Some(PlanState { worklist, idx: 0, cursor: None, remaining });
        remaining
    }

    /// Is there repair work outstanding? An arc leaves the dirty set only
    /// once fully drained, so the dirty set alone answers this — for a
    /// plan mid-drain exactly the pending worklist arcs are still dirty.
    pub fn repair_pending(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Keys still to examine before the map is fully repaired — the
    /// backlog gauge a bandwidth model reports per tick. O(1) with a plan
    /// active, O(dirty arcs) otherwise.
    pub fn repair_backlog_keys(&self) -> usize {
        match &self.plan {
            Some(p) => p.remaining,
            None => {
                let canon: BTreeSet<Ident> =
                    self.dirty.iter().filter_map(|&d| self.primary_for(d)).collect();
                canon.iter().map(|p| self.shards.get(p).map_or(0, Shard::len)).sum()
            }
        }
    }

    /// One bounded slice of the active repair plan: drains dirty arcs in
    /// ring order, moving at most `max_keys` records (examining a record
    /// that already sits on its replica set is free — only actual copy
    /// movement spends budget). A step that exhausts its budget parks a
    /// cursor mid-arc and resumes there next call; an arc leaves the dirty
    /// set only once fully drained, so a plan preempted by churn re-begins
    /// from everything still unrepaired. Auto-begins a plan when none is
    /// active. With `max_keys = usize::MAX` and no capacity cap, one step
    /// is exactly [`PlacementMap::repair_delta`].
    pub fn repair_step(&mut self, max_keys: usize) -> RepairStep {
        if self.plan.is_none() {
            self.begin_repair();
        }
        let mut plan = self.plan.take().expect("plan just ensured");
        let mut step = RepairStep::default();
        let mut transfers: BTreeMap<Ident, usize> = BTreeMap::new();
        while plan.idx < plan.worklist.len() && step.stats.keys_moved < max_keys {
            let primary = plan.worklist[plan.idx];
            let finished = self.step_shard(primary, &mut plan, max_keys, &mut step, &mut transfers);
            if !finished {
                break; // budget ran out mid-arc; cursor marks the spot
            }
            step.stats.arcs_touched += 1;
            self.dirty.remove(&primary);
            plan.idx += 1;
            plan.cursor = None;
        }
        step.done = plan.idx >= plan.worklist.len();
        self.plan = if step.done { None } else { Some(plan) };
        step.transfers = transfers.into_iter().collect();
        step
    }

    /// Drains one arc from the plan cursor, stopping at the move budget.
    /// Returns true iff the arc finished.
    fn step_shard(
        &mut self,
        primary: Ident,
        plan: &mut PlanState,
        max_keys: usize,
        step: &mut RepairStep,
        transfers: &mut BTreeMap<Ident, usize>,
    ) -> bool {
        use std::ops::Bound::{Excluded, Unbounded};
        if self.peers.binary_search(&primary).is_err() {
            return true; // primary vanished mid-plan: impossible (churn invalidates), skip
        }
        let mut target: Vec<Ident> =
            successors(&self.peers, primary).take(self.replication).collect();
        target.sort_unstable();
        let cap = self.max_keys_per_peer;
        // Take the shard out so the holder index can be edited alongside.
        let mut shard = std::mem::take(self.shards.get_mut(&primary).expect("shard per peer"));
        let mut finished = true;
        let range = match plan.cursor {
            Some(c) => shard.range_mut((Excluded(c), Unbounded)),
            None => shard.range_mut(..),
        };
        for (sk, rec) in range {
            if step.stats.keys_moved >= max_keys {
                finished = false;
                break;
            }
            step.stats.keys_examined += 1;
            plan.remaining = plan.remaining.saturating_sub(1);
            plan.cursor = Some(*sk);
            if rec.holders == target {
                continue;
            }
            let mut changed = false;
            rec.holders.retain(|h| {
                if target.binary_search(h).is_ok() {
                    return true;
                }
                changed = true;
                step.stats.copies_dropped += 1;
                if let Some(set) = self.held.get_mut(h) {
                    set.remove(sk);
                    if set.is_empty() {
                        self.held.remove(h);
                    }
                }
                false
            });
            for &t in &target {
                if rec.holders.binary_search(&t).is_err() {
                    // The primary copy is mandatory (it owns the arc); only
                    // surplus replicas yield to the capacity cap.
                    if t != primary && cap != 0 && self.held.get(&t).map_or(0, BTreeSet::len) >= cap
                    {
                        step.rejected_copies += 1;
                        continue;
                    }
                    changed = true;
                    step.stats.copies_added += 1;
                    *transfers.entry(t).or_insert(0) += 1;
                    self.held.entry(t).or_default().insert(*sk);
                    let at = rec.holders.binary_search(&t).unwrap_err();
                    rec.holders.insert(at, t);
                }
            }
            if changed {
                step.stats.keys_moved += 1;
            }
        }
        *self.shards.get_mut(&primary).expect("shard per peer") = shard;
        finished
    }

    /// The incremental anti-entropy pass: re-replicates exactly the arcs
    /// marked dirty since the last repair — every record in a touched arc
    /// ends with its holder set equal to the arc's current replica set
    /// (copies created where missing, stale ones dropped). O(keys in dirty
    /// arcs), not O(all keys); a repair with nothing dirty is free. Ignores
    /// the capacity cap (it is the uncapped, unpaced oracle) and restarts
    /// any active paced plan. Implemented as one unbounded
    /// [`PlacementMap::repair_step`] — the pacing machinery has exactly one
    /// repair implementation, verified against [`PlacementMap::rebuild`].
    pub fn repair_delta(&mut self) -> RepairStats {
        let cap = std::mem::take(&mut self.max_keys_per_peer);
        self.begin_repair();
        let step = self.repair_step(usize::MAX);
        debug_assert!(step.done, "an unbounded step drains the whole plan");
        self.max_keys_per_peer = cap;
        step.stats
    }

    /// Recomputes the **entire** placement from the current snapshot — the
    /// O(all keys) fallback kept solely as the property-test oracle for
    /// [`PlacementMap::repair_delta`] (and as a bench baseline).
    pub fn rebuild(&mut self) -> RepairStats {
        self.plan = None;
        self.dirty.clear();
        let n = self.peers.len();
        let mut stats = RepairStats { arcs_touched: n, ..Default::default() };
        let mut held: BTreeMap<Ident, BTreeSet<ShardKey>> = BTreeMap::new();
        for &primary in &self.peers {
            let mut target: Vec<Ident> =
                successors(&self.peers, primary).take(self.replication).collect();
            target.sort_unstable();
            let shard = self.shards.get_mut(&primary).expect("shard per peer");
            for (sk, rec) in shard.iter_mut() {
                stats.keys_examined += 1;
                if rec.holders != target {
                    stats.keys_moved += 1;
                    stats.copies_added +=
                        target.iter().filter(|t| rec.holders.binary_search(t).is_err()).count();
                    stats.copies_dropped +=
                        rec.holders.iter().filter(|h| target.binary_search(h).is_err()).count();
                    rec.holders.clone_from(&target);
                }
                for &t in &target {
                    held.entry(t).or_default().insert(*sk);
                }
            }
        }
        self.held = held;
        stats
    }

    /// Stores a batch of *fresh* records in bulk: `entries` yields
    /// `(position, key, version, value)` rows, each placed exactly as
    /// [`PlacementMap::put`] would place it (full current replica set,
    /// copy index updated), but grouped per shard and built via sorted
    /// bulk construction instead of per-key tree inserts — the fast path
    /// for preloading millions of keys. A row whose `(position, key)`
    /// already exists replaces the old record outright (no max-merge), so
    /// this is for load, not for the write path. Returns the rows stored
    /// (0 with no peers).
    pub fn bulk_load(&mut self, entries: impl IntoIterator<Item = (Ident, u64, u64, V)>) -> usize {
        if self.peers.is_empty() {
            return 0;
        }
        let mut rows: Vec<(usize, ShardKey, u64, V)> = entries
            .into_iter()
            .map(|(pos, key, version, value)| {
                let start = successor_index(&self.peers, pos).expect("peers nonempty");
                (start, (pos, key), version, value)
            })
            .collect();
        rows.sort_by_key(|a| (a.0, a.1));
        let stored = rows.len();
        let mut rows = rows.into_iter().peekable();
        while let Some(&(start, ..)) = rows.peek() {
            let primary = self.peers[start];
            let mut holders: Vec<Ident> =
                successors(&self.peers, primary).take(self.replication).collect();
            holders.sort_unstable();
            let mut group: Vec<(ShardKey, Record<V>)> = Vec::new();
            while let Some(&(s, ..)) = rows.peek() {
                if s != start {
                    break;
                }
                let (_, sk, version, value) = rows.next().expect("peeked");
                group.push((sk, Record { version, value, holders: holders.clone() }));
            }
            for &h in &holders {
                self.held.entry(h).or_default().extend(group.iter().map(|(sk, _)| *sk));
            }
            let shard = self.shards.get_mut(&primary).expect("shard per peer");
            if shard.is_empty() {
                *shard = group.into_iter().collect();
            } else {
                shard.extend(group);
            }
        }
        stored
    }

    /// Deterministic digest of the durable placement state — peers,
    /// replication, every record's `(position, key, version, holders)`, the
    /// holder index, and the dirty markers. Stored values are excluded
    /// (they need no `Hash` bound), as is the transient repair cursor,
    /// matching [`PartialEq`]. Equal maps digest equally; the golden
    /// suites pin digests without cloning maps.
    pub fn digest(&self) -> u64 {
        fn step(h: u64, x: u64) -> u64 {
            (h ^ x).wrapping_mul(0x100_0000_01b3) // FNV-1a, 64-bit prime
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        h = step(h, self.peers.len() as u64);
        for p in &self.peers {
            h = step(h, p.raw());
        }
        h = step(h, self.replication as u64);
        for (primary, shard) in &self.shards {
            h = step(h, primary.raw());
            for (&(pos, key), rec) in shard {
                h = step(h, pos.raw());
                h = step(h, key);
                h = step(h, rec.version);
                for holder in &rec.holders {
                    h = step(h, holder.raw());
                }
            }
        }
        for (peer, set) in &self.held {
            h = step(h, peer.raw());
            h = step(h, set.len() as u64);
            for &(pos, key) in set {
                h = step(h, step(pos.raw(), key));
            }
        }
        for d in &self.dirty {
            h = step(h, d.raw());
        }
        h
    }

    /// Structural self-check used by the property tests: shard bucketing,
    /// holder/index lockstep, no empty holder sets or index entries.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.peers.windows(2).any(|w| w[0] >= w[1]) {
            return Err("peers not strictly ascending".into());
        }
        let shard_keys: Vec<Ident> = self.shards.keys().copied().collect();
        if shard_keys != self.peers {
            return Err("shard set diverged from peer set".into());
        }
        let mut held_check: BTreeMap<Ident, BTreeSet<ShardKey>> = BTreeMap::new();
        for (&primary, shard) in &self.shards {
            for (&sk, rec) in shard {
                if self.primary_for(sk.0) != Some(primary) {
                    return Err(format!("record {sk:?} bucketed under wrong primary"));
                }
                if rec.holders.is_empty() {
                    return Err(format!("record {sk:?} has no holders"));
                }
                if rec.holders.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(format!("record {sk:?} holders not sorted"));
                }
                for &h in &rec.holders {
                    if self.peers.binary_search(&h).is_err() {
                        return Err(format!("record {sk:?} held by non-peer {h}"));
                    }
                    held_check.entry(h).or_default().insert(sk);
                }
            }
        }
        if held_check != self.held {
            return Err("holder index diverged from record holders".into());
        }
        if let Some(plan) = &self.plan {
            for p in &plan.worklist[plan.idx.min(plan.worklist.len())..] {
                if self.peers.binary_search(p).is_err() {
                    return Err(format!("plan worklist names non-peer {p}"));
                }
                if !self.dirty.contains(p) {
                    return Err(format!("pending plan arc {p} missing from dirty set"));
                }
            }
        }
        Ok(())
    }
}

/// Removes and returns the records of `src` with position in the cyclic
/// half-open arc `(from, to]`.
fn extract_arc<V>(src: &mut Shard<V>, from: Ident, to: Ident) -> Vec<(ShardKey, Record<V>)> {
    use std::ops::Bound::{Excluded, Included, Unbounded};
    let mut keys: Vec<ShardKey> = Vec::new();
    if from < to {
        keys.extend(
            src.range((Excluded((from, u64::MAX)), Included((to, u64::MAX)))).map(|(k, _)| *k),
        );
    } else {
        // The arc wraps through the top of the ring.
        keys.extend(src.range((Excluded((from, u64::MAX)), Unbounded)).map(|(k, _)| *k));
        keys.extend(src.range(..=(to, u64::MAX)).map(|(k, _)| *k));
    }
    keys.into_iter().map(|k| (k, src.remove(&k).expect("ranged key present"))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechord_id::IdSpace;

    fn idents(n: u64, seed: u64) -> Vec<Ident> {
        let space = IdSpace::new(seed);
        (0..n).map(|a| space.ident_of(a)).collect()
    }

    fn filled(n: u64, keys: u64, r: usize, seed: u64) -> (PlacementMap<u64>, IdSpace) {
        let space = IdSpace::new(seed);
        let mut pm = PlacementMap::from_peers(&idents(n, seed), r);
        for k in 0..keys {
            pm.put(space.key_position(k), k, k, k * 10);
        }
        (pm, space)
    }

    /// Total copies across all peers.
    fn copies<V>(pm: &PlacementMap<V>) -> usize {
        pm.peers().iter().map(|&p| pm.load_of(p)).sum()
    }

    #[test]
    fn put_places_on_replica_window_and_lookup_hits_primary() {
        let (pm, space) = filled(8, 100, 3, 1);
        pm.check_invariants().unwrap();
        assert_eq!(pm.key_count(), 100);
        assert_eq!(copies(&pm), 300);
        for k in 0..100u64 {
            let pos = space.key_position(k);
            let probe = pm.lookup(pos, k);
            let (at, rec) = probe.hit.expect("stored key must be found");
            assert_eq!(at, 0, "fresh put always hits the primary");
            assert_eq!(rec.value, k * 10);
            let mut expect = pm.replica_set(pos);
            expect.sort_unstable();
            assert_eq!(rec.holders(), expect);
        }
    }

    #[test]
    fn replica_set_clamps_and_wraps() {
        let (pm, _) = filled(3, 0, 10, 5);
        let rs = pm.replica_set(Ident::from_raw(5));
        assert_eq!(rs.len(), 3, "cannot replicate past the population");
        let mut dedup = rs.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), rs.len());
        // A position beyond the largest peer wraps to the smallest.
        let max = *pm.peers().last().unwrap();
        let wrapped = pm.replica_set(Ident::from_raw(max.raw().wrapping_add(1)));
        assert_eq!(wrapped[0], pm.peers()[0]);
    }

    #[test]
    fn empty_map_is_inert() {
        let mut pm: PlacementMap<()> = PlacementMap::new(2);
        assert_eq!(pm.put(Ident::from_raw(1), 1, 0, ()), 0);
        assert!(pm.lookup(Ident::from_raw(1), 1).hit.is_none());
        assert_eq!(pm.replica_set(Ident::from_raw(1)), Vec::<Ident>::new());
        assert!(pm.repair_delta().is_noop());
        assert_eq!(pm.load_balance(), (0, 0.0));
        pm.check_invariants().unwrap();
    }

    #[test]
    fn join_split_keeps_every_record_reachable() {
        let (mut pm, space) = filled(8, 200, 2, 3);
        let joiner = space.ident_of(1_000);
        assert!(pm.apply_join(joiner));
        assert!(!pm.apply_join(joiner), "double join is a no-op");
        pm.check_invariants().unwrap();
        assert_eq!(pm.key_count(), 200, "a join never destroys records");
        // Before repair, reads may pay extra probes but every key that kept
        // a replica in its (shifted) window still answers.
        let stats = pm.repair_delta();
        assert!(stats.keys_examined <= 200);
        pm.check_invariants().unwrap();
        for k in 0..200u64 {
            let pos = space.key_position(k);
            assert_eq!(pm.lookup(pos, k).hit.expect("key survives a join").0, 0);
        }
        let mut oracle = pm.clone();
        assert!(oracle.rebuild().is_noop(), "delta repair already converged");
        assert_eq!(pm, oracle);
    }

    #[test]
    fn crash_loses_only_fully_dead_keys() {
        let space = IdSpace::new(9);
        let peers = idents(6, 9);
        let mut pm: PlacementMap<()> = PlacementMap::from_peers(&peers, 2);
        for k in 0..300u64 {
            pm.put(space.key_position(k), k, 0, ());
        }
        // Crash one peer: keys with their only... replication 2 means every
        // key keeps its other copy; nothing is lost.
        let victim = peers[2];
        assert!(pm.apply_leave(victim, Departure::Crash));
        pm.check_invariants().unwrap();
        assert_eq!(pm.key_count(), 300, "replication 2 survives one crash");
        assert_eq!(pm.load_of(victim), 0);
        pm.repair_delta();
        pm.check_invariants().unwrap();
        assert_eq!(copies(&pm), 600, "repair restored full replication");

        // Now crash both current replicas of one key before repairing: the
        // key must be lost, everything else must survive.
        let pos = space.key_position(7);
        let rs = pm.replica_set(pos);
        assert_eq!(rs.len(), 2);
        pm.apply_leave(rs[0], Departure::Crash);
        pm.apply_leave(rs[1], Departure::Crash);
        pm.check_invariants().unwrap();
        assert!(!pm.contains(space.key_position(7), 7), "both copies died");
        assert!(pm.key_count() < 300);
        pm.repair_delta();
        pm.check_invariants().unwrap();
    }

    #[test]
    fn graceful_leave_hands_off_to_the_successor() {
        let space = IdSpace::new(11);
        let peers = idents(5, 11);
        let mut pm: PlacementMap<u64> = PlacementMap::from_peers(&peers, 1);
        for k in 0..200u64 {
            pm.put(space.key_position(k), k, k, k);
        }
        // Replication 1: a crash would lose every key the victim held; a
        // graceful leave loses none.
        let leaver = peers[3];
        let moved = pm.load_of(leaver);
        assert!(moved > 0);
        assert!(pm.apply_leave(leaver, Departure::Graceful));
        pm.check_invariants().unwrap();
        assert_eq!(pm.key_count(), 200, "graceful leave never destroys data");
        let stats = pm.repair_delta();
        assert!(stats.keys_examined < 200, "repair is incremental");
        pm.check_invariants().unwrap();
        for k in 0..200u64 {
            let probe = pm.lookup(space.key_position(k), k);
            assert_eq!(probe.hit.expect("key survives").1.value, k);
        }
    }

    #[test]
    fn last_peer_leaving_takes_everything() {
        let space = IdSpace::new(13);
        let peers = idents(1, 13);
        let mut pm: PlacementMap<()> = PlacementMap::from_peers(&peers, 3);
        for k in 0..10u64 {
            pm.put(space.key_position(k), k, 0, ());
        }
        pm.apply_leave(peers[0], Departure::Graceful);
        pm.check_invariants().unwrap();
        assert_eq!(pm.key_count(), 0);
        assert!(pm.peers().is_empty());
        assert!(pm.repair_delta().is_noop());
    }

    #[test]
    fn repair_stats_account_for_moves() {
        let (mut pm, space) = filled(16, 500, 3, 17);
        let joiner = space.ident_of(777);
        pm.apply_join(joiner);
        let stats = pm.repair_delta();
        assert_eq!(stats.arcs_touched, 3, "join dirties its replication window");
        assert!(stats.keys_moved <= stats.keys_examined);
        assert!(stats.copies_added > 0, "the joiner receives its arcs' copies");
        assert!(!pm.repair_pending());
        assert!(pm.repair_delta().is_noop(), "second repair is free");
    }

    #[test]
    fn put_is_newest_wins() {
        let space = IdSpace::new(23);
        let mut pm: PlacementMap<&'static str> = PlacementMap::from_peers(&idents(4, 23), 2);
        pm.put(space.key_position(1), 1, 1, "old");
        pm.put(space.key_position(1), 1, 2, "new");
        let probe = pm.lookup(space.key_position(1), 1);
        let rec = probe.hit.unwrap().1;
        assert_eq!((rec.version, rec.value), (2, "new"));
        assert_eq!(pm.key_count(), 1);
        // A write completing late (stale version) must not regress the
        // record, but an equal-version write takes the latest value.
        pm.put(space.key_position(1), 1, 1, "stale");
        let rec = pm.lookup(space.key_position(1), 1).hit.unwrap().1;
        assert_eq!((rec.version, rec.value), (2, "new"));
        pm.put(space.key_position(1), 1, 2, "rewrite");
        let rec = pm.lookup(space.key_position(1), 1).hit.unwrap().1;
        assert_eq!((rec.version, rec.value), (2, "rewrite"));
        pm.check_invariants().unwrap();
    }

    #[test]
    fn paced_steps_converge_to_the_one_shot_oracle() {
        let (mut pm, space) = filled(12, 400, 3, 31);
        pm.apply_join(space.ident_of(5_000));
        let victim = pm.peers()[4];
        pm.apply_leave(victim, Departure::Crash);

        let mut oracle = pm.clone();
        oracle.repair_delta();

        let backlog = pm.begin_repair();
        assert!(backlog > 0, "churn left a backlog");
        assert_eq!(pm.repair_backlog_keys(), backlog);
        let mut steps = 0;
        let mut moved = 0;
        let mut added = 0;
        let mut last_backlog = backlog;
        loop {
            let step = pm.repair_step(7);
            steps += 1;
            moved += step.stats.keys_moved;
            added += step.stats.copies_added;
            assert!(step.stats.keys_moved <= 7, "budget respected: {:?}", step.stats);
            let per_peer: usize = step.transfers.iter().map(|&(_, c)| c).sum();
            assert_eq!(per_peer, step.stats.copies_added, "transfers account for every copy");
            let now_backlog = pm.repair_backlog_keys();
            assert!(now_backlog <= last_backlog, "backlog gauge is non-increasing");
            last_backlog = now_backlog;
            pm.check_invariants().unwrap();
            if step.done {
                break;
            }
        }
        assert!(steps > 2, "a 7-key budget needs several steps here");
        assert!(moved <= backlog, "cannot move more keys than the backlog held");
        assert!(added > 0);
        assert_eq!(pm.repair_backlog_keys(), 0);
        assert!(!pm.repair_pending());
        assert_eq!(pm, oracle, "paced drain must match the one-shot repair bit for bit");
        assert!(pm.repair_step(usize::MAX).done, "clean map: step is an instant no-op");
    }

    #[test]
    fn zero_budget_step_probes_without_progress() {
        let (mut pm, space) = filled(8, 100, 2, 37);
        pm.apply_join(space.ident_of(9_999));
        let before = pm.clone();
        let step = pm.repair_step(0);
        assert!(!step.done, "dirty arcs remain");
        assert!(step.stats.is_noop());
        assert_eq!(pm, before, "a zero budget moves nothing");
        assert!(pm.repair_pending());
    }

    #[test]
    fn churn_preempts_the_plan_and_the_survivor_set_reseeds_it() {
        let (mut pm, space) = filled(10, 300, 3, 41);
        pm.apply_leave(pm.peers()[2], Departure::Crash);
        pm.begin_repair();
        let step = pm.repair_step(5);
        assert!(!step.done, "plenty of backlog left");
        // New churn mid-plan: the plan is dropped, dirty markers survive.
        pm.apply_join(space.ident_of(4_242));
        pm.check_invariants().unwrap();
        assert!(pm.repair_pending(), "surviving dirty set keeps repair pending");
        let backlog = pm.begin_repair();
        assert!(backlog > 0);
        while !pm.repair_step(11).done {
            pm.check_invariants().unwrap();
        }
        let mut oracle = pm.clone();
        assert!(oracle.rebuild().is_noop(), "paced drain reached the rebuild fixpoint");
        assert_eq!(pm, oracle);
    }

    #[test]
    fn capacity_cap_rejects_surplus_copies_but_never_the_primary() {
        let space = IdSpace::new(47);
        let peers = idents(6, 47);
        let mut pm: PlacementMap<()> = PlacementMap::from_peers(&peers, 3);
        for k in 0..240u64 {
            pm.put(space.key_position(k), k, 0, ());
        }
        // A tight cap: every peer is already far over it, so repair may
        // not add any surplus copies — only mandatory primary ones.
        pm.set_peer_capacity(10);
        pm.apply_leave(peers[1], Departure::Crash);
        pm.begin_repair();
        let mut rejected = 0;
        loop {
            let step = pm.repair_step(usize::MAX);
            rejected += step.rejected_copies;
            if step.done {
                break;
            }
        }
        assert!(rejected > 0, "an over-quota network must reject surplus repair copies");
        pm.check_invariants().unwrap();
        // Every surviving key is still served by its primary even though
        // re-replication was refused.
        for k in 0..240u64 {
            let pos = space.key_position(k);
            if pm.contains(pos, k) {
                assert_eq!(pm.lookup(pos, k).hit.expect("primary copy is mandatory").0, 0);
            }
        }
        // With the cap lifted, a full pass restores complete replication —
        // rejection is deferred work, not permanent damage.
        pm.set_peer_capacity(0);
        let healed = pm.rebuild();
        assert!(healed.copies_added > 0, "lifting the cap lets repair finish the job");
        pm.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_equals_per_key_puts() {
        let space = IdSpace::new(53);
        let peers = idents(12, 53);
        let mut bulk: PlacementMap<u64> = PlacementMap::from_peers(&peers, 3);
        let mut slow: PlacementMap<u64> = PlacementMap::from_peers(&peers, 3);
        let rows: Vec<(Ident, u64, u64, u64)> =
            (0..1_000u64).map(|k| (space.key_position(k), k, k, k + 7)).collect();
        for &(pos, k, v, val) in &rows {
            slow.put(pos, k, v, val);
        }
        assert_eq!(bulk.bulk_load(rows), 1_000);
        bulk.check_invariants().unwrap();
        assert_eq!(bulk, slow, "bulk construction is bit-identical to puts");
        // And an empty map stays inert.
        let mut none: PlacementMap<u64> = PlacementMap::new(2);
        assert_eq!(none.bulk_load(vec![(Ident::from_raw(1), 1, 0, 0)]), 0);
        none.check_invariants().unwrap();
    }

    #[test]
    fn scale_smoke_single_churn_touches_under_20_percent() {
        // ≥100k keys on 256 peers: one join and one leave must each repair
        // only the arcs adjacent to the changed peer — a few percent of the
        // keys, far under the 20% ceiling (a full rebuild would be 100%).
        let space = IdSpace::new(42);
        let peers = idents(256, 42);
        let mut pm: PlacementMap<()> = PlacementMap::from_peers(&peers, 3);
        let keys: u64 = 100_000;
        for k in 0..keys {
            pm.put(space.key_position(k), k, 0, ());
        }
        assert_eq!(pm.key_count(), keys as usize);

        let joiner = space.ident_of(1_000_000);
        pm.apply_join(joiner);
        let join_stats = pm.repair_delta();
        assert!(
            join_stats.keys_examined * 5 < keys as usize,
            "join repair touched {} of {keys} keys (≥20%)",
            join_stats.keys_examined
        );

        pm.apply_leave(joiner, Departure::Graceful);
        let leave_stats = pm.repair_delta();
        assert!(
            leave_stats.keys_examined * 5 < keys as usize,
            "leave repair touched {} of {keys} keys (≥20%)",
            leave_stats.keys_examined
        );

        // And the incremental path converged to the oracle's answer.
        let mut oracle = pm.clone();
        assert!(oracle.rebuild().is_noop());
        assert_eq!(pm, oracle);
    }
}
