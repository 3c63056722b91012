//! The `batch-contended` workload: `DeterministicService` on one
//! thread, exactly [`BATCH`] conflicting proposals per fresh instance
//! and one `tick_all` per instance, so every decision runs the paper's
//! conciliator and adopt-commit with n = 64.

use std::time::{Duration, Instant};

use sift_service::{CommitFact, DeterministicService, InstanceId, ShardConfig};
use sift_sim::rng::SeedSplitter;

use crate::service::SHARDS;
use crate::stats::{Windows, WINDOWS};
use crate::trace::{Layer, Tracer, ROOT};
use crate::Checks;

/// Proposals per instance.
pub const BATCH: usize = 64;
/// Proposal values are drawn from `0..VALUES`, so a batch conflicts.
const VALUES: u64 = 16;
/// Instances per round; every complete round must give one digest.
pub const ROUND: usize = 1500;
/// Instances decided before timing.
const WARMUP: usize = 100;

/// A seeded sequence of instance batches.
#[derive(Debug, Clone)]
pub struct Script {
    /// `(instance, proposed values in arrival order)`.
    pub batches: Vec<(InstanceId, Vec<u64>)>,
}

impl Script {
    /// `count` instances of `n` proposals each, drawn from the seed
    /// under `label`; instance ids start at 1.
    pub fn new(seed: u64, label: &str, count: usize, n: usize) -> Self {
        let mut rng = SeedSplitter::new(seed).stream(label, 0);
        let batches = (0..count)
            .map(|i| {
                let values = (0..n).map(|_| rng.range_u64(VALUES)).collect();
                (InstanceId(i as u64 + 1), values)
            })
            .collect();
        Self { batches }
    }
}

/// A fresh deterministic service with the benchmark's shape.
pub fn new_service(seed: u64) -> DeterministicService {
    DeterministicService::new(
        SHARDS,
        ShardConfig {
            seed,
            ..ShardConfig::default()
        },
    )
}

/// Proposes one batch (tags are arrival positions) and ticks once.
/// Returns the decision's latency in ns (proposals plus tick) and its
/// fact if the decision is correct: one fact, for this instance, stored
/// in the table, over the whole batch, deciding a value proposed in it
/// and naming the first proposal of that value. Records `shard.submit`
/// and `shard.tick` spans when `tracer` is set.
pub fn decide_batch(
    service: &mut DeterministicService,
    instance: InstanceId,
    values: &[u64],
    tracer: Option<&mut Tracer>,
) -> (u64, Option<CommitFact>) {
    let t0 = Instant::now();
    let mut facts = match tracer {
        None => {
            for (tag, &value) in values.iter().enumerate() {
                service.propose(instance, value, tag as u64);
            }
            service.tick_all()
        }
        Some(tracer) => {
            for (tag, &value) in values.iter().enumerate() {
                let start = tracer.now();
                service.propose(instance, value, tag as u64);
                let end = tracer.now();
                tracer.record(instance.0, ROOT, Layer::ShardSubmit, start, end);
            }
            let start = tracer.now();
            let facts = service.tick_all();
            let end = tracer.now();
            tracer.record(instance.0, ROOT, Layer::ShardTick, start, end);
            facts
        }
    };
    let ns = t0.elapsed().as_nanos() as u64;
    let fact = facts.pop().filter(|fact| {
        facts.is_empty()
            && fact.instance == instance
            && service.fact(instance) == Some(fact)
            && fact.meta.batch_size as usize == values.len()
            && values.iter().position(|&v| v == fact.value) == Some(fact.meta.deciding_tag as usize)
    });
    (ns, fact)
}

/// Runs [`decide_batch`] over the script until it ends or a decision
/// completes after `deadline`, pushing each latency sample and counting
/// wrong decisions into `failed`. Returns the decisions made.
pub fn run_script(
    service: &mut DeterministicService,
    script: &Script,
    deadline: Option<Instant>,
    latencies: &mut Windows,
    failed: &mut u64,
) -> usize {
    let mut decided = 0;
    for (instance, values) in &script.batches {
        let (ns, fact) = decide_batch(service, *instance, values, None);
        let end = Instant::now();
        latencies.push(end, ns);
        decided += 1;
        if fact.is_none() {
            *failed += 1;
        }
        if deadline.is_some_and(|d| end >= d) {
            break;
        }
    }
    decided
}

/// The set-up state: the round script, warmed up.
pub struct Contended {
    /// The instances one round decides.
    pub script: Script,
    seed: u64,
}

impl Contended {
    /// Draws the round script and decides a warm-up script (discarded).
    pub fn setup(seed: u64, checks: &mut Checks) -> Self {
        let script = Script::new(seed, "batch-contended.round", ROUND, BATCH);
        let warm = Script::new(seed, "batch-contended.warmup", WARMUP, BATCH);
        let mut failed = 0;
        run_script(
            &mut new_service(seed),
            &warm,
            None,
            &mut Windows::new(Instant::now(), Duration::MAX, 1),
            &mut failed,
        );
        checks.expect(
            "batch-contended.warmup_decisions",
            failed == 0,
            format!("{failed} warm-up decisions wrong"),
        );
        Self { script, seed }
    }

    /// Runs whole rounds (each on a fresh service) for `budget`,
    /// returning the latencies, decisions, wrong decisions and the
    /// digest of every round that completed.
    pub fn run(&self, budget: Duration) -> RoundsResult {
        let start = Instant::now();
        let deadline = start + budget;
        let mut result = RoundsResult {
            latencies: Windows::new(start, budget, WINDOWS),
            decided: 0,
            failed: 0,
            undecided: 0,
            digests: Vec::new(),
            elapsed: Duration::ZERO,
        };
        while Instant::now() < deadline {
            let mut service = new_service(self.seed);
            let decided = run_script(
                &mut service,
                &self.script,
                Some(deadline),
                &mut result.latencies,
                &mut result.failed,
            );
            result.decided += decided as u64;
            if decided == self.script.batches.len() {
                result.digests.push(service.digest());
                result.undecided += (decided as u64).saturating_sub(service.stats().decided as u64);
            }
        }
        result.elapsed = start.elapsed();
        result
    }
}

/// What [`Contended::run`] measured.
#[derive(Debug)]
pub struct RoundsResult {
    /// One sample (ns) per decision, in [`WINDOWS`] windows.
    pub latencies: Windows,
    /// Decisions made.
    pub decided: u64,
    /// Decisions that failed the per-decision check.
    pub failed: u64,
    /// Instances of complete rounds missing from the decided table.
    pub undecided: u64,
    /// `DeterministicService::digest` of each complete round.
    pub digests: Vec<u64>,
    /// Wall time of all rounds.
    pub elapsed: Duration,
}
