//! Decision anatomy: where one shard decision's time goes.
//!
//! Each batch shape runs twice per batch: once through
//! `DeterministicService` (timed `propose` and `tick_all`, the shard
//! layer as a whole), and once replayed through the layer calls a shard
//! decision makes, one call at a time, each in its own span. The replay
//! must reach the service's decision exactly (value, attempts and
//! phases), and the stages' self times must add up to the shard's
//! per-decision tick time within [`STAGE_MARGIN`] plus
//! [`STAGE_SLACK_NS`]: the remainder is shard bookkeeping that no layer
//! call covers (grouping, the fact, the table, the observation keys),
//! plus timer noise.
//!
//! The isolated runs time the conciliator and the adopt-commit object
//! alone, each on a layout of its own, and count their steps.

use std::time::Instant;

use sift_adopt_commit::{try_check_ac_properties, AdoptCommit, GafniSnapshotAc};
use sift_consensus::{ConsensusOutcome, ConsensusProtocol};
use sift_core::{try_check_validity, Conciliator, Epsilon, Persona, SnapshotConciliator};
use sift_service::{shard_of, CommitFact, InstanceId, ShardConfig};
use sift_shmem::memory::AtomicMemory;
use sift_shmem::run_lockstep_on;
use sift_sim::rng::SeedSplitter;
use sift_sim::{LayoutBuilder, OpResult, Process, ProcessId, Step};

use crate::contended::{decide_batch, new_service, Script};
use crate::service::SHARDS;
use crate::trace::{Layer, Tracer, ROOT};
use crate::Checks;

/// Largest share of the shard tick the stages may leave unexplained,
/// or exceed it by.
pub const STAGE_MARGIN: f64 = 0.10;
/// Fixed per-decision shard bookkeeping allowed on top of
/// [`STAGE_MARGIN`], in ns.
pub const STAGE_SLACK_NS: f64 = 2_000.0;

/// The replay stages whose self times must add up to the tick.
pub const STAGES: [Layer; 6] = [
    Layer::ConsensusAllocate,
    Layer::LayoutBuild,
    Layer::ShmemMemoryNew,
    Layer::ConsensusParticipants,
    Layer::ShmemLockstep,
    Layer::DecideTeardown,
];

/// A process wrapper that counts the operations it issues.
struct Counted<P> {
    inner: P,
    ops: u64,
}

impl<P> Counted<P> {
    fn new(inner: P) -> Self {
        Self { inner, ops: 0 }
    }
}

impl<P: Process> Process for Counted<P> {
    type Value = P::Value;
    type Output = (P::Output, u64);

    fn step(&mut self, prev: Option<OpResult<P::Value>>) -> Step<P::Value, Self::Output> {
        match self.inner.step(prev) {
            Step::Issue(op) => {
                self.ops += 1;
                Step::Issue(op)
            }
            Step::Done(output) => Step::Done((output, self.ops)),
        }
    }
}

/// What one batch shape measured.
#[derive(Debug, Default)]
pub struct Shape {
    /// Timed decisions.
    pub decisions: u64,
    /// Mean `DeterministicService::propose` time, ns.
    pub submit_ns: f64,
    /// Mean `tick_all` time per decision, ns.
    pub tick_ns: f64,
    /// Mean self time per decision of each of [`STAGES`], ns.
    pub stage_ns: Vec<(Layer, f64)>,
    /// Operations executed by the replayed lockstep runs.
    pub ops: u64,
    /// Median over decisions of stage self time ÷ tick time.
    pub share_of_tick: f64,
    /// Mean deciding phases.
    pub phases_mean: f64,
    /// Extra consensus attempts (phase-budget retries).
    pub retries: u64,
    /// Spans of the timed batches.
    pub tracer: Option<Tracer>,
}

impl Shape {
    /// Mean self time per decision of `layer`, ns.
    pub fn stage(&self, layer: Layer) -> f64 {
        self.stage_ns
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, ns)| *ns)
    }

    /// Sum of the stage self times per decision, ns.
    pub fn stage_sum(&self) -> f64 {
        self.stage_ns.iter().map(|(_, ns)| ns).sum()
    }

    /// Lockstep time per executed operation, ns.
    pub fn ns_per_op(&self) -> f64 {
        self.stage(Layer::ShmemLockstep) * self.decisions as f64 / self.ops.max(1) as f64
    }
}

/// The median over decisions of (sum of the decision's stage self
/// times) ÷ (its tick time). Pairing each replay with its own tick keeps
/// a stall in one pass from moving the figure.
fn paired_share(tracer: &Tracer) -> f64 {
    let mut per_decision: std::collections::HashMap<u64, (u64, u64)> =
        std::collections::HashMap::new();
    for span in tracer.spans() {
        let entry = per_decision.entry(span.trace).or_default();
        if span.layer == Layer::ShardTick {
            entry.0 += span.ns();
        } else if STAGES.contains(&span.layer) {
            entry.1 += span.ns();
        }
    }
    let shares: Vec<f64> = per_decision
        .values()
        .filter(|(tick, _)| *tick > 0)
        .map(|&(tick, stages)| stages as f64 / tick as f64)
        .collect();
    if shares.is_empty() {
        return 0.0;
    }
    crate::stats::median(&shares)
}

/// Runs `warmup + count` batches of `n` proposals: each through the
/// service, then through the replay; only the last `count` are traced.
pub fn shape(
    seed: u64,
    n: usize,
    warmup: usize,
    count: usize,
    epoch: Instant,
    checks: &mut Checks,
) -> Shape {
    let script = Script::new(seed, &format!("anatomy.n{n}"), warmup + count, n);
    let config = ShardConfig {
        seed,
        ..ShardConfig::default()
    };
    let mut service = new_service(seed);
    let mut tracer = Tracer::with_capacity(epoch, count * (n + 12));
    let (mut wrong, mut mismatched, mut phases) = (0u64, 0u64, 0u64);
    let mut result = Shape::default();
    for (k, (instance, values)) in script.batches.iter().enumerate() {
        let traced = k >= warmup;
        let (_, fact) = decide_batch(
            &mut service,
            *instance,
            values,
            traced.then_some(&mut tracer),
        );
        let shard = shard_of(*instance, SHARDS) as u16;
        let mut scratch = Tracer::new(epoch);
        let replayed = replay(
            &config,
            shard,
            *instance,
            values,
            if traced { &mut tracer } else { &mut scratch },
        );
        match fact {
            None => wrong += 1,
            Some(fact) if !replayed.matches(&fact) => mismatched += 1,
            Some(_) => {}
        }
        if traced {
            result.decisions += 1;
            result.ops += replayed.ops;
            result.retries += replayed.attempts - 1;
            phases += replayed.phases;
        }
    }
    checks.expect(
        &format!("anatomy.n{n}.service_decisions"),
        wrong == 0,
        format!("{wrong} wrong decisions"),
    );
    checks.expect(
        &format!("anatomy.n{n}.replay_matches_service"),
        mismatched == 0,
        format!("{mismatched} replayed decisions differ from the service's"),
    );
    let decisions = result.decisions.max(1) as f64;
    let totals = tracer.self_times();
    let mean = |layer: Layer| totals.get(&layer).map_or(0.0, |(ns, _)| *ns as f64) / decisions;
    let submits = totals
        .get(&Layer::ShardSubmit)
        .map_or(1, |(_, c)| (*c).max(1));
    result.submit_ns = totals
        .get(&Layer::ShardSubmit)
        .map_or(0.0, |(ns, _)| *ns as f64)
        / submits as f64;
    result.tick_ns = mean(Layer::ShardTick);
    result.stage_ns = STAGES.iter().map(|&layer| (layer, mean(layer))).collect();
    result.phases_mean = phases as f64 / decisions;
    result.share_of_tick = paired_share(&tracer);
    result.tracer = Some(tracer);
    let margin = STAGE_MARGIN + STAGE_SLACK_NS / result.tick_ns.max(1.0);
    checks.expect(
        &format!("anatomy.n{n}.stages_add_up"),
        (result.share_of_tick - 1.0).abs() <= margin,
        format!(
            "stages cover {:.3} of the tick (median per decision; tick {:.0} ns); allowed 1 ± {margin:.3}",
            result.share_of_tick, result.tick_ns,
        ),
    );
    result
}

/// One replayed decision.
#[derive(Debug)]
struct Replayed {
    value: Option<u64>,
    attempts: u64,
    phases: u64,
    ops: u64,
}

impl Replayed {
    fn matches(&self, fact: &CommitFact) -> bool {
        self.value == Some(fact.value)
            && self.attempts == u64::from(fact.meta.attempts)
            && self.phases == u64::from(fact.meta.phases)
    }
}

/// Replays the shard's decision procedure for one batch through the
/// public layer calls, one span per call under a `decide` root: the
/// same per-attempt seed derivation, phase budget and escalation.
fn replay(
    config: &ShardConfig,
    shard: u16,
    instance: InstanceId,
    values: &[u64],
    tracer: &mut Tracer,
) -> Replayed {
    let n = values.len();
    let root_start = tracer.now();
    let root = tracer.record(instance.0, ROOT, Layer::Decide, root_start, root_start);
    let mut phases = config.base_phases.max(1);
    let mut replayed = Replayed {
        value: None,
        attempts: 0,
        phases: 0,
        ops: 0,
    };
    let span = |tracer: &mut Tracer, layer, start| {
        let end = tracer.now();
        tracer.record(instance.0, root, layer, start, end);
        end
    };
    while replayed.value.is_none() && replayed.attempts < 64 {
        let t0 = tracer.now();
        let mut builder = LayoutBuilder::new();
        let protocol = ConsensusProtocol::allocate(
            &mut builder,
            n,
            phases,
            |b| SnapshotConciliator::allocate(b, n, Epsilon::HALF),
            |b| GafniSnapshotAc::<Persona>::allocate(b, n, |p: &Persona| p.input()),
        );
        let t1 = span(tracer, Layer::ConsensusAllocate, t0);
        let layout = builder.build();
        let t2 = span(tracer, Layer::LayoutBuild, t1);
        let memory = AtomicMemory::<Persona>::new(&layout);
        let t3 = span(tracer, Layer::ShmemMemoryNew, t2);
        let split = attempt_seeds(config.seed, shard, instance, replayed.attempts);
        let participants: Vec<_> = values
            .iter()
            .enumerate()
            .map(|(i, &value)| {
                let mut rng = split.stream("participant", i as u64);
                Counted::new(protocol.participant(ProcessId(i), value, &mut rng))
            })
            .collect();
        let t4 = span(tracer, Layer::ConsensusParticipants, t3);
        let outcomes = run_lockstep_on(&memory, participants);
        let t5 = span(tracer, Layer::ShmemLockstep, t4);
        replayed.attempts += 1;
        replayed.ops += outcomes.iter().map(|(_, ops)| ops).sum::<u64>();
        if let Some(decision) = outcomes.iter().find_map(|(outcome, _)| match outcome {
            ConsensusOutcome::Decided(decision) => Some(decision),
            ConsensusOutcome::Exhausted { .. } => None,
        }) {
            replayed.value = Some(decision.value);
            replayed.phases = decision.phases as u64;
        }
        drop((outcomes, memory, layout, protocol));
        span(tracer, Layer::DecideTeardown, t5);
        phases = (phases * 2).min(config.max_phases.max(1));
    }
    let root_end = tracer.now();
    tracer.close(root, root_end);
    replayed
}

/// The seed material a shard derives for `(seed, shard, instance,
/// attempt)`.
fn attempt_seeds(seed: u64, shard: u16, instance: InstanceId, attempt: u64) -> SeedSplitter {
    let shard_seed = SeedSplitter::new(seed).seed("shard", u64::from(shard));
    let instance_seed = SeedSplitter::new(shard_seed).seed("instance", instance.0);
    SeedSplitter::new(SeedSplitter::new(instance_seed).seed("attempt", attempt))
}

/// What the isolated conciliator and adopt-commit runs measured.
#[derive(Debug, Default)]
pub struct Isolated {
    /// Timed runs (each: one conciliator, then one adopt-commit).
    pub runs: u64,
    /// Mean `run_lockstep_on` time of the conciliator, ns.
    pub conciliator_ns: f64,
    /// Operations per process in the conciliator.
    pub conciliator_steps_per_proc: f64,
    /// Mean `run_lockstep_on` time of the adopt-commit object, ns.
    pub adopt_commit_ns: f64,
    /// Operations per process in the adopt-commit object.
    pub adopt_commit_steps_per_proc: f64,
    /// Runs whose adopt-commit committed.
    pub commits: u64,
}

/// Runs `SnapshotConciliator` alone on `n` processes with conflicting
/// inputs, then `GafniSnapshotAc` alone on its outputs, each over fresh
/// `AtomicMemory` for its own layout, and checks conciliator validity
/// and the adopt-commit properties. Only the last `count` runs are
/// timed and traced.
pub fn isolated(
    seed: u64,
    n: usize,
    warmup: usize,
    count: usize,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Isolated {
    let script = Script::new(seed, "anatomy.isolated", warmup + count, n);
    let split = SeedSplitter::new(seed);
    let mut result = Isolated::default();
    let (mut conciliator_ops, mut ac_ops, mut violations) = (0u64, 0u64, 0u64);
    let (mut conciliator_ns, mut ac_ns) = (0u64, 0u64);
    for (k, (instance, values)) in script.batches.iter().enumerate() {
        let mut builder = LayoutBuilder::new();
        let conciliator = SnapshotConciliator::allocate(&mut builder, n, Epsilon::HALF);
        let memory = AtomicMemory::<Persona>::new(&builder.build());
        let mut rng = split.stream("anatomy.isolated.personas", k as u64);
        let processes: Vec<_> = values
            .iter()
            .enumerate()
            .map(|(i, &value)| Counted::new(conciliator.participant(ProcessId(i), value, &mut rng)))
            .collect();
        let t0 = tracer.now();
        let personas = run_lockstep_on(&memory, processes);
        let t1 = tracer.now();

        let mut builder = LayoutBuilder::new();
        let ac = GafniSnapshotAc::<Persona>::allocate(&mut builder, n, |p: &Persona| p.input());
        let memory = AtomicMemory::<Persona>::new(&builder.build());
        let proposers: Vec<_> = personas
            .iter()
            .enumerate()
            .map(|(i, (persona, _))| {
                Counted::new(ac.proposer(ProcessId(i), persona.input(), persona.clone()))
            })
            .collect();
        let t2 = tracer.now();
        let verdicts = run_lockstep_on(&memory, proposers);
        let t3 = tracer.now();

        let outputs: Vec<_> = personas.iter().map(|(p, _)| Some(p.clone())).collect();
        let codes: Vec<u64> = personas.iter().map(|(p, _)| p.input()).collect();
        let ac_outputs: Vec<_> = verdicts.iter().map(|(o, _)| Some(o.clone())).collect();
        if try_check_validity(values, &outputs).is_err()
            || try_check_ac_properties(&codes, &ac_outputs).is_err()
        {
            violations += 1;
        }
        if k >= warmup {
            tracer.record(instance.0, ROOT, Layer::CoreConciliator, t0, t1);
            tracer.record(instance.0, ROOT, Layer::AdoptCommit, t2, t3);
            result.runs += 1;
            conciliator_ns += t1 - t0;
            ac_ns += t3 - t2;
            conciliator_ops += personas.iter().map(|(_, ops)| ops).sum::<u64>();
            ac_ops += verdicts.iter().map(|(_, ops)| ops).sum::<u64>();
            result.commits += u64::from(verdicts.iter().any(|(o, _)| o.is_commit()));
        }
    }
    checks.expect(
        "anatomy.isolated.safety",
        violations == 0,
        format!("{violations} runs broke conciliator validity or adopt-commit safety"),
    );
    let runs = result.runs.max(1) as f64;
    let procs = runs * n as f64;
    result.conciliator_ns = conciliator_ns as f64 / runs;
    result.adopt_commit_ns = ac_ns as f64 / runs;
    result.conciliator_steps_per_proc = conciliator_ops as f64 / procs;
    result.adopt_commit_steps_per_proc = ac_ops as f64 / procs;
    result
}
