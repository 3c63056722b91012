//! One shard: an instance table plus batching consensus executor.
//!
//! A [`ShardCore`] owns every instance whose id hashes to it. Each
//! instance is a single-shot consensus: the proposals that have
//! arrived by the time the shard ticks form the instance's *batch*, the
//! batch becomes the participant set of a fresh [`consensus_stack`]
//! over an [`AtomicMemory`] built for exactly that batch and run in
//! lockstep, and the stack's decision is frozen into a [`CommitFact`].
//! Proposals that arrive after the decision never re-run consensus —
//! they read the stored fact (idempotence).
//!
//! `AtomicMemory` is the lock-free substrate by default and the
//! lock-based reference under the `coarse-substrate` feature, so that
//! build runs the whole service on the reference objects.
//!
//! The core is single-owner and synchronous; the async frontend in
//! [`service`](crate::service) wraps one core per shard in a mutex and
//! ticks it from a worker thread, and the deterministic mode in
//! [`det`](crate::det) drives cores directly on one thread. Both paths
//! execute this exact code, so the deterministic suite exercises the
//! same batching and decision logic the threaded service runs.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

use sift_adopt_commit::GafniSnapshotAc;
use sift_consensus::{ConsensusOutcome, ConsensusProtocol};
use sift_core::{Epsilon, Persona, SnapshotConciliator};
use sift_obs::ObsReport;
use sift_shmem::memory::AtomicMemory;
use sift_shmem::run_lockstep_on;
use sift_sim::rng::SeedSplitter;
use sift_sim::{LayoutBuilder, ProcessId};

use crate::fact::{CommitFact, DecideMeta, InstanceId, ServiceError};
use crate::runtime::oneshot;

/// The completion side of one proposal: resolved with the instance's
/// commit fact (or a rejection) when the shard processes it.
pub type Waiter = oneshot::Sender<Result<CommitFact, ServiceError>>;

/// Per-shard configuration.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Master seed; every consensus run draws its randomness from
    /// `(seed, shard, instance, attempt)`, so decisions are replayable.
    pub seed: u64,
    /// Decided facts retained per shard. When the table exceeds this,
    /// the oldest decided instances are evicted (their facts dropped,
    /// later proposals rejected with
    /// [`ServiceError::Evicted`]). `usize::MAX` retains everything.
    pub capacity: usize,
    /// Phase budget of the first consensus attempt. Unanimous batches
    /// commit in one phase; contended ones need a few more, and an
    /// exhausted attempt retries with the budget doubled.
    pub base_phases: usize,
    /// Cap for the escalating phase budget.
    pub max_phases: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            capacity: usize::MAX,
            base_phases: 4,
            max_phases: 64,
        }
    }
}

/// One proposal travelling through the service.
#[derive(Debug)]
pub struct Proposal {
    /// Target instance.
    pub instance: InstanceId,
    /// Proposed value.
    pub value: u64,
    /// Client-chosen tag, echoed in [`DecideMeta::deciding_tag`] if
    /// this proposal's value wins.
    pub tag: u64,
    /// Completion channel; `None` for fire-and-forget submission (the
    /// deterministic driver reads facts from [`ShardCore::tick`]
    /// instead).
    pub waiter: Option<Waiter>,
    /// Submission time for latency accounting; `None` in deterministic
    /// mode, which must not read the wall clock.
    pub submitted: Option<Instant>,
}

/// Introspection snapshot of one shard's table (leak assertions in the
/// negative-path tests are built on this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Proposals waiting for the next tick.
    pub pending: usize,
    /// How many of those carry a live completion channel.
    pub waiters: usize,
    /// Decided facts currently retained.
    pub decided: usize,
    /// Instances evicted so far (tombstones).
    pub evicted: usize,
}

impl ShardStats {
    /// Key-wise sum, for aggregating across shards.
    pub fn merge(self, other: ShardStats) -> ShardStats {
        ShardStats {
            pending: self.pending + other.pending,
            waiters: self.waiters + other.waiters,
            decided: self.decided + other.decided,
            evicted: self.evicted + other.evicted,
        }
    }
}

/// The state of one shard. See the module docs for the lifecycle.
#[derive(Debug)]
pub struct ShardCore {
    id: u16,
    config: ShardConfig,
    /// Proposals accepted since the last tick, in arrival order.
    inbox: Vec<Proposal>,
    /// Decided instances and their immutable facts.
    decided: HashMap<InstanceId, CommitFact>,
    /// Decision order, for FIFO eviction under `capacity`.
    decided_order: VecDeque<InstanceId>,
    /// Tombstones: evicted instances are remembered (one u64 each) so
    /// late proposals get a definite rejection instead of silently
    /// re-deciding a fresh instance.
    evicted: HashSet<InstanceId>,
    seq: u64,
    obs: ObsReport,
}

impl ShardCore {
    /// Creates an empty shard with the given id and configuration.
    pub fn new(id: u16, config: ShardConfig) -> Self {
        Self {
            id,
            config,
            inbox: Vec::new(),
            decided: HashMap::new(),
            decided_order: VecDeque::new(),
            evicted: HashSet::new(),
            seq: 0,
            obs: ObsReport::new(),
        }
    }

    /// This shard's id.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Accepts one proposal. Decided instances answer immediately from
    /// the table; evicted ones reject immediately; open ones batch
    /// until the next [`tick`](Self::tick).
    ///
    /// Returns `true` if the proposal is waiting for a tick (the
    /// caller should schedule one).
    pub fn submit(&mut self, proposal: Proposal) -> bool {
        self.obs.add_count("proposals", 1);
        if let Some(fact) = self.decided.get(&proposal.instance) {
            self.obs.add_count("idempotent", 1);
            let fact = fact.clone();
            self.complete(proposal, Ok(fact));
            return false;
        }
        if self.evicted.contains(&proposal.instance) {
            self.obs.add_count("evicted_rejects", 1);
            let instance = proposal.instance;
            self.complete(proposal, Err(ServiceError::Evicted(instance)));
            return false;
        }
        self.inbox.push(proposal);
        true
    }

    /// Processes every proposal accepted since the last tick: groups
    /// them by instance (arrival order preserved), runs one consensus
    /// per still-open instance, completes all waiters, and applies the
    /// eviction policy. Returns the newly minted facts in decision
    /// order.
    pub fn tick(&mut self) -> Vec<CommitFact> {
        self.tick_crashing(usize::MAX)
    }

    /// [`tick`](Self::tick) with a simulated worker crash: only the
    /// first `crash_after` instance batches are decided; every later
    /// batch's proposals return to the inbox *untouched* — no fact, no
    /// sequence number, no observation, waiters intact. Because batch
    /// grouping depends only on arrival order and decisions only on
    /// `(seed, shard, instance, attempt)` and batch content, a retry
    /// tick after the "restart" decides exactly the facts this tick
    /// would have (provided no new proposals interleave), which is the
    /// crash-recovery invariant the soak tier checks.
    pub fn tick_crashing(&mut self, crash_after: usize) -> Vec<CommitFact> {
        if self.inbox.is_empty() {
            return Vec::new();
        }
        let inbox = std::mem::take(&mut self.inbox);
        // Group by instance, keeping both first-arrival instance order
        // and intra-batch arrival order — the batch order is what makes
        // deterministic runs replayable.
        let mut batches: Vec<(InstanceId, Vec<Proposal>)> = Vec::new();
        let mut index: HashMap<InstanceId, usize> = HashMap::new();
        for proposal in inbox {
            match index.entry(proposal.instance) {
                Entry::Occupied(slot) => batches[*slot.get()].1.push(proposal),
                Entry::Vacant(slot) => {
                    slot.insert(batches.len());
                    batches.push((proposal.instance, vec![proposal]));
                }
            }
        }
        let mut remaining = batches.into_iter();
        let mut facts = Vec::new();
        for (instance, batch) in remaining.by_ref().take(crash_after) {
            let fact = self.decide(instance, &batch);
            for proposal in batch {
                self.complete(proposal, Ok(fact.clone()));
            }
            self.decided.insert(instance, fact.clone());
            self.decided_order.push_back(instance);
            facts.push(fact);
            self.enforce_capacity();
        }
        // Crash point: the undecided batches go back into the inbox in
        // order, so the post-restart tick regroups them identically.
        for (_, batch) in remaining {
            self.inbox.extend(batch);
        }
        facts
    }

    /// Runs the consensus stack for one instance's batch.
    fn decide(&mut self, instance: InstanceId, batch: &[Proposal]) -> CommitFact {
        let n = batch.len();
        let mut phases = self.config.base_phases.max(1);
        let mut attempt: u64 = 0;
        let (value, decider_phases) = loop {
            let split = self.run_seed(instance, attempt);
            let mut builder = LayoutBuilder::new();
            let protocol = consensus_stack(&mut builder, n, phases);
            let layout = builder.build();
            let memory = AtomicMemory::new(&layout);
            let participants: Vec<_> = batch
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let mut rng = split.stream("participant", i as u64);
                    protocol.participant(ProcessId(i), p.value, &mut rng)
                })
                .collect();
            let outcomes = run_lockstep_on(&memory, participants);
            // Agreement is absolute, so the first decider speaks for
            // all; exhausted participants would have adopted the same
            // value had they been given more phases.
            if let Some(decision) = outcomes.iter().find_map(|o| match o {
                ConsensusOutcome::Decided(d) => Some(d),
                ConsensusOutcome::Exhausted { .. } => None,
            }) {
                break (decision.value, decision.phases);
            }
            // Every participant exhausted its phases (probability at
            // most (1-δ)^phases per attempt): retry with a doubled
            // budget and fresh randomness.
            attempt += 1;
            assert!(
                attempt < 64,
                "shard {} instance {instance}: 64 consensus attempts all exhausted",
                self.id
            );
            self.obs.add_count("retries", 1);
            phases = (phases * 2).min(self.config.max_phases.max(1));
        };
        let deciding_tag = batch
            .iter()
            .find(|p| p.value == value)
            .map(|p| p.tag)
            .expect("validity: decided value was proposed by someone in the batch");
        let fact = CommitFact {
            instance,
            value,
            meta: DecideMeta {
                shard: self.id,
                seq: self.seq,
                batch_size: n as u32,
                attempts: attempt as u32 + 1,
                phases: decider_phases as u32,
                deciding_tag,
            },
        };
        self.seq += 1;
        self.obs.add_count("decided", 1);
        self.obs.record_hist("batch_size", n as u64);
        self.obs.record_hist("phases", decider_phases as u64);
        self.obs.observe_max("max_batch", n as u64);
        fact
    }

    /// Seed material for `(seed, shard, instance, attempt)`.
    fn run_seed(&self, instance: InstanceId, attempt: u64) -> SeedSplitter {
        let shard_seed = SeedSplitter::new(self.config.seed).seed("shard", self.id as u64);
        let instance_seed = SeedSplitter::new(shard_seed).seed("instance", instance.0);
        SeedSplitter::new(SeedSplitter::new(instance_seed).seed("attempt", attempt))
    }

    /// Resolves one proposal, recording latency; a dropped receiver
    /// (client cancelled mid-proposal) is counted, never an error.
    fn complete(&mut self, proposal: Proposal, result: Result<CommitFact, ServiceError>) {
        if let Some(submitted) = proposal.submitted {
            self.obs
                .record_hist("latency_ns", submitted.elapsed().as_nanos() as u64);
        }
        if let Some(waiter) = proposal.waiter {
            if waiter.send(result).is_err() {
                self.obs.add_count("cancelled", 1);
            }
        }
    }

    fn enforce_capacity(&mut self) {
        while self.decided.len() > self.config.capacity {
            let Some(oldest) = self.decided_order.pop_front() else {
                break;
            };
            self.decided.remove(&oldest);
            self.evicted.insert(oldest);
            self.obs.add_count("evictions", 1);
        }
    }

    /// Explicitly evicts a *decided* instance: drops its fact and
    /// leaves a tombstone. Returns `false` if the instance is not
    /// currently decided (open, unknown, or already evicted).
    pub fn evict(&mut self, instance: InstanceId) -> bool {
        if self.decided.remove(&instance).is_none() {
            return false;
        }
        self.decided_order.retain(|&id| id != instance);
        self.evicted.insert(instance);
        self.obs.add_count("evictions", 1);
        true
    }

    /// The stored fact for `instance`, if it is decided and retained.
    pub fn fact(&self, instance: InstanceId) -> Option<&CommitFact> {
        self.decided.get(&instance)
    }

    /// Current table introspection (see [`ShardStats`]).
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            pending: self.inbox.len(),
            waiters: self.inbox.iter().filter(|p| p.waiter.is_some()).count(),
            decided: self.decided.len(),
            evicted: self.evicted.len(),
        }
    }

    /// This shard's observations so far.
    pub fn obs(&self) -> &ObsReport {
        &self.obs
    }
}

/// The consensus stack one instance runs for a batch of `n`
/// proposals: `phases` phases, each a [`SnapshotConciliator`]
/// (ε = 1/2) followed by a [`GafniSnapshotAc`] on persona inputs.
pub fn consensus_stack(
    builder: &mut LayoutBuilder,
    n: usize,
    phases: usize,
) -> ConsensusProtocol<SnapshotConciliator, GafniSnapshotAc<Persona>> {
    ConsensusProtocol::allocate(
        builder,
        n,
        phases,
        |b| SnapshotConciliator::allocate(b, n, Epsilon::HALF),
        |b| GafniSnapshotAc::allocate(b, n, |p: &Persona| p.input()),
    )
}

/// Maps an instance id onto one of `shards` shards with a fixed
/// splitmix-style mix, so placement is stable across runs, workers, and
/// processes.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn shard_of(instance: InstanceId, shards: usize) -> usize {
    assert!(shards > 0, "need at least one shard");
    let mut z = instance.0.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_shmem::max_register::LockFreeMaxRegister;
    use sift_shmem::memory::{ObjectMemory, SharedSnapshot};
    use sift_shmem::register::LockFreeRegister;
    use sift_shmem::snapshot::LockFreeSnapshot;
    use sift_sim::ScanView;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static SNAPSHOTS_BUILT: AtomicUsize = AtomicUsize::new(0);

    /// A lock-free snapshot that counts its constructions.
    #[derive(Debug)]
    struct CountingSnapshot(LockFreeSnapshot<Persona>);

    impl SharedSnapshot<Persona> for CountingSnapshot {
        fn new(components: usize) -> Self {
            SNAPSHOTS_BUILT.fetch_add(1, Ordering::SeqCst);
            Self(LockFreeSnapshot::new(components))
        }
        fn update(&self, component: usize, value: Persona) {
            self.0.update(component, value)
        }
        fn scan(&self) -> ScanView<Persona> {
            self.0.scan()
        }
    }

    #[test]
    fn a_one_phase_decision_builds_only_its_phase_objects() {
        // The shard's n = 64 stack allocates its default 4 phases up
        // front; a decision in phase 1 touches only phase 1's objects.
        let n = 64;
        let mut builder = LayoutBuilder::new();
        let protocol = consensus_stack(&mut builder, n, ShardConfig::default().base_phases);
        let layout = builder.build();
        assert_eq!(layout.snapshot_components().len(), 36);
        let memory: ObjectMemory<
            Persona,
            LockFreeRegister<Persona>,
            CountingSnapshot,
            LockFreeMaxRegister<Persona>,
        > = ObjectMemory::new(&layout);
        let split = SeedSplitter::new(7);
        let participants: Vec<_> = (0..n)
            .map(|i| {
                let mut rng = split.stream("participant", i as u64);
                protocol.participant(ProcessId(i), 1000 + i as u64, &mut rng)
            })
            .collect();
        let outcomes = run_lockstep_on(&memory, participants);
        assert!(outcomes.iter().all(|o| matches!(
            o,
            ConsensusOutcome::Decided(d) if d.phases == 1
        )));
        assert_eq!(SNAPSHOTS_BUILT.load(Ordering::SeqCst), 9, "9 of 36 built");
    }

    fn proposal(instance: u64, value: u64, tag: u64) -> Proposal {
        Proposal {
            instance: InstanceId(instance),
            value,
            tag,
            waiter: None,
            submitted: None,
        }
    }

    #[test]
    fn single_proposal_decides_its_own_value() {
        let mut core = ShardCore::new(0, ShardConfig::default());
        assert!(core.submit(proposal(7, 42, 1)));
        let facts = core.tick();
        assert_eq!(facts.len(), 1);
        assert_eq!(facts[0].value, 42);
        assert_eq!(facts[0].meta.batch_size, 1);
        assert_eq!(facts[0].meta.deciding_tag, 1);
        assert_eq!(facts[0].meta.seq, 0);
    }

    #[test]
    fn conflicting_batch_decides_one_proposed_value() {
        let mut core = ShardCore::new(3, ShardConfig::default());
        for (i, v) in [5u64, 9, 5, 13].into_iter().enumerate() {
            core.submit(proposal(1, v, i as u64));
        }
        let facts = core.tick();
        assert_eq!(facts.len(), 1);
        assert!([5, 9, 13].contains(&facts[0].value));
        assert_eq!(facts[0].meta.batch_size, 4);
        // The deciding tag names the first proposal with the value.
        let expected_tag = [5u64, 9, 5, 13]
            .iter()
            .position(|&v| v == facts[0].value)
            .unwrap() as u64;
        assert_eq!(facts[0].meta.deciding_tag, expected_tag);
    }

    #[test]
    fn repeat_proposals_return_the_original_fact() {
        let mut core = ShardCore::new(0, ShardConfig::default());
        core.submit(proposal(2, 10, 0));
        let original = core.tick().remove(0);
        // Late proposal with a *different* value: answered from the
        // table, no new consensus, identical fact.
        assert!(!core.submit(proposal(2, 999, 7)));
        assert!(core.tick().is_empty());
        assert_eq!(core.fact(InstanceId(2)), Some(&original));
        assert_eq!(core.obs().count("idempotent"), 1);
        assert_eq!(core.obs().count("decided"), 1);
    }

    #[test]
    fn decisions_are_replayable_from_the_seed() {
        let run = || {
            let mut core = ShardCore::new(1, ShardConfig::default());
            for i in 0..6u64 {
                core.submit(proposal(4, i % 3, i));
            }
            core.tick().remove(0)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn capacity_evicts_oldest_decided_first() {
        let config = ShardConfig {
            capacity: 2,
            ..ShardConfig::default()
        };
        let mut core = ShardCore::new(0, config);
        for id in 0..4u64 {
            core.submit(proposal(id, id, id));
            core.tick();
        }
        let stats = core.stats();
        assert_eq!(stats.decided, 2);
        assert_eq!(stats.evicted, 2);
        assert!(core.fact(InstanceId(0)).is_none());
        assert!(core.fact(InstanceId(3)).is_some());
        // A late proposal to an evicted instance is rejected.
        let (tx, rx) = oneshot::channel();
        core.submit(Proposal {
            instance: InstanceId(0),
            value: 1,
            tag: 0,
            waiter: Some(tx),
            submitted: None,
        });
        assert_eq!(
            crate::runtime::block_on(rx).unwrap(),
            Err(ServiceError::Evicted(InstanceId(0)))
        );
    }

    #[test]
    fn explicit_evict_only_touches_decided_instances() {
        let mut core = ShardCore::new(0, ShardConfig::default());
        assert!(!core.evict(InstanceId(9)), "unknown instance");
        core.submit(proposal(9, 1, 0));
        assert!(!core.evict(InstanceId(9)), "still open");
        core.tick();
        assert!(core.evict(InstanceId(9)));
        assert!(!core.evict(InstanceId(9)), "already evicted");
    }

    #[test]
    fn zero_capacity_still_decides_and_answers() {
        let config = ShardConfig {
            capacity: 0,
            ..ShardConfig::default()
        };
        let mut core = ShardCore::new(0, config);
        let (tx, rx) = oneshot::channel();
        core.submit(Proposal {
            instance: InstanceId(5),
            value: 77,
            tag: 0,
            waiter: Some(tx),
            submitted: None,
        });
        core.tick();
        let fact = crate::runtime::block_on(rx).unwrap().unwrap();
        assert_eq!(fact.value, 77);
        // The fact was delivered, then immediately evicted.
        assert_eq!(core.stats().decided, 0);
        assert_eq!(core.stats().evicted, 1);
    }

    #[test]
    fn crashed_tick_plus_retry_equals_clean_tick() {
        let feed = |core: &mut ShardCore| {
            for i in 0..12u64 {
                core.submit(proposal(i % 4, i % 3, i));
            }
        };
        let mut clean = ShardCore::new(2, ShardConfig::default());
        feed(&mut clean);
        let clean_facts = clean.tick();

        for crash_after in 0..=4usize {
            let mut crashed = ShardCore::new(2, ShardConfig::default());
            feed(&mut crashed);
            let mut facts = crashed.tick_crashing(crash_after);
            assert_eq!(facts.len(), crash_after.min(4));
            // Restarted worker retries the surviving inbox.
            facts.extend(crashed.tick());
            assert_eq!(facts, clean_facts, "crash_after={crash_after}");
            assert_eq!(crashed.obs().count("decided"), 4);
        }
    }

    #[test]
    fn crashed_batches_emit_nothing_and_keep_waiters() {
        let mut core = ShardCore::new(0, ShardConfig::default());
        core.submit(proposal(1, 10, 0));
        let (tx, rx) = oneshot::channel();
        core.submit(Proposal {
            instance: InstanceId(2),
            value: 20,
            tag: 1,
            waiter: Some(tx),
            submitted: None,
        });
        let facts = core.tick_crashing(1);
        assert_eq!(facts.len(), 1);
        assert_eq!(facts[0].instance, InstanceId(1));
        // The crashed instance decided nothing: no fact, no seq burn,
        // no observation, and the waiter is still pending.
        assert!(core.fact(InstanceId(2)).is_none());
        assert_eq!(core.obs().count("decided"), 1);
        assert_eq!(core.stats().pending, 1);
        assert_eq!(core.stats().waiters, 1);
        let retry = core.tick();
        assert_eq!(retry.len(), 1);
        assert_eq!(retry[0].meta.seq, 1);
        let fact = crate::runtime::block_on(rx).unwrap().unwrap();
        assert_eq!(fact.value, 20);
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in [1usize, 2, 7, 64] {
            for id in 0..200u64 {
                let s = shard_of(InstanceId(id), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(InstanceId(id), shards));
            }
        }
    }
}
