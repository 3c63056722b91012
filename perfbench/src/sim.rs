//! The `sim-sifting` workload: Algorithm 2 (`SiftingConciliator`,
//! ε = 1/2) at n = 1024 on the `sift_sim` event engine under seeded
//! `RandomInterleave` schedules, one trial after another.

use std::time::Instant;

use sift_core::{Conciliator, Epsilon, SiftingConciliator};
use sift_sim::rng::SeedSplitter;
use sift_sim::schedule::RandomInterleave;
use sift_sim::{Engine, Layout, LayoutBuilder, ProcessId, StopReason};

use crate::trace::{Layer, Tracer, ROOT};
use crate::Checks;

/// Processes per trial.
pub const N: usize = 1024;
/// Trials run before timing.
const WARMUP: u64 = 50;
/// Trial indices at and above this are warm-up trials.
const WARMUP_BASE: u64 = 1 << 40;

/// What one trial produced.
#[derive(Debug, Clone, Copy)]
pub struct Trial {
    /// Participant construction, `Engine::new`, `Engine::run` and the
    /// output checks, in ns.
    pub ns: u64,
    /// `Engine::run` alone, in ns.
    pub run_ns: u64,
    /// Every process ran to completion (`StopReason::AllDone`).
    pub all_done: bool,
    /// Every output carries some process's input.
    pub valid: bool,
    /// Every output is the same persona (allowed to fail with
    /// probability ε).
    pub agree: bool,
    /// Scheduled slots (executed operations plus free skips).
    pub slots: u64,
    /// Mean operations per process.
    pub ops_mean: f64,
    /// Most operations any process took.
    pub ops_max: u64,
}

impl Trial {
    /// Whether the trial counts as failed: truncated or invalid.
    pub fn failed(&self) -> bool {
        !(self.all_done && self.valid)
    }
}

/// The protocol objects every trial reuses.
pub struct Sim {
    conciliator: SiftingConciliator,
    layout: Layout,
    seed: u64,
}

impl Sim {
    /// Allocates the conciliator's layout and runs the warm-up trials.
    pub fn setup(seed: u64, checks: &mut Checks) -> Self {
        let mut builder = LayoutBuilder::new();
        let conciliator = SiftingConciliator::allocate(&mut builder, N, Epsilon::HALF);
        let sim = Self {
            conciliator,
            layout: builder.build(),
            seed,
        };
        let failed = (0..WARMUP)
            .filter(|&i| sim.trial(WARMUP_BASE + i, None).failed())
            .count();
        checks.expect(
            "sim-sifting.warmup_trials",
            failed == 0,
            format!("{failed} warm-up trials failed"),
        );
        sim
    }

    /// Runs trial `index`: seeded inputs, personas and schedule; records
    /// `sim.engine_new` and `sim.run` spans when `tracer` is set.
    pub fn trial(&self, index: u64, tracer: Option<&mut Tracer>) -> Trial {
        let mut rng = SeedSplitter::new(self.seed).stream("sim-sifting.trial", index);
        let inputs: Vec<u64> = (0..N).map(|_| rng.next_u64()).collect();
        let schedule = RandomInterleave::new(N, rng.next_u64());
        let mut sorted = inputs.clone();
        sorted.sort_unstable();
        let start = Instant::now();
        let processes: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(i, &input)| self.conciliator.participant(ProcessId(i), input, &mut rng))
            .collect();
        let t_new = Instant::now();
        let engine = Engine::new(&self.layout, processes);
        let t_run = Instant::now();
        let report = engine.run(schedule);
        let t_done = Instant::now();
        let valid = report.outputs.iter().all(|output| {
            output
                .as_ref()
                .is_some_and(|persona| sorted.binary_search(&persona.input()).is_ok())
        });
        let all_done = report.stop_reason == StopReason::AllDone;
        let agree = report.outputs_agree();
        let metrics = &report.metrics;
        let (slots, ops_mean, ops_max) = (
            metrics.scheduled_slots(),
            metrics.mean_individual_steps(),
            metrics.max_individual_steps(),
        );
        drop(report);
        let end = Instant::now();
        if let Some(tracer) = tracer {
            let (new, run, done) = (tracer.at(t_new), tracer.at(t_run), tracer.at(t_done));
            tracer.record(index, ROOT, Layer::SimEngineNew, new, run);
            tracer.record(index, ROOT, Layer::SimRun, run, done);
        }
        Trial {
            ns: (end - start).as_nanos() as u64,
            run_ns: (t_done - t_run).as_nanos() as u64,
            all_done,
            valid,
            agree,
            slots,
            ops_mean,
            ops_max,
        }
    }
}
