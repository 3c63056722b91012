//! The repository benchmark. One command runs one workload against the
//! public APIs of `sift-service`, `sift-consensus`, `sift-core`,
//! `sift-adopt-commit`, `sift-shmem` and `sift-sim`, checks every
//! output, prints each metric with its unit and sample count, and ends
//! with one JSON line:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced per-layer pass instead. The process exits
//! with code 1 when any correctness check fails and 2 on bad arguments.
//! See `README.md` next to this crate for the workloads and metrics.

mod anatomy;
mod contended;
mod service;
mod sim;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use service::{ReadHot, Stop, WriteFresh};
use sift_obs::ObsReport;
use stats::{median, summarize, Summary, Windows};
use trace::{Layer, Tracer};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Requests per client in the traced `read-hot` pass.
const TRACE_HOT: u64 = 200_000;
/// Requests per client in the traced `write-fresh` pass.
const TRACE_FRESH: u64 = 15_000;
/// Instances in the traced `batch-contended` pass.
const TRACE_CONTENDED: usize = 400;
/// Trials in the traced `sim-sifting` pass.
const TRACE_TRIALS: u64 = 200;
/// `(n, warm-up batches, timed batches)` of the decision anatomy.
const ANATOMY: [(usize, usize, usize); 2] = [(1, 500, 4_000), (contended::BATCH, 20, 200)];
/// Warm-up and timed runs of the isolated conciliator and adopt-commit.
const ISOLATED: (usize, usize) = (10, 200);
/// Leading `sim-sifting` trials whose agreement count is printed.
const AGREEMENT_PREFIX: u64 = 1_000;
/// Spans written to the trace file at most.
const SPANS_WRITTEN: usize = 50_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ReadHot,
    WriteFresh,
    BatchContended,
    SimSifting,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ReadHot,
        Workload::WriteFresh,
        Workload::BatchContended,
        Workload::SimSifting,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read-hot",
            Workload::WriteFresh => "write-fresh",
            Workload::BatchContended => "batch-contended",
            Workload::SimSifting => "sim-sifting",
        }
    }

    /// The issue-facing name of this workload's throughput.
    fn throughput_name(self) -> &'static str {
        match self {
            Workload::ReadHot | Workload::WriteFresh => "proposals_per_s",
            Workload::BatchContended => "decisions_per_s",
            Workload::SimSifting => "trials_per_s",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <read-hot|write-fresh|batch-contended|sim-sifting> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Named correctness checks; any failure fails the run.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
    passed: usize,
}

impl Checks {
    /// Records one check; `detail` is printed if it failed.
    pub fn expect(&mut self, name: &str, ok: bool, detail: String) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(format!("{name}: {detail}"));
        }
    }
}

/// One reported metric; `json` marks the ones in the final JSON line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: u64,
    json: bool,
}

/// Everything one run reports.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.push(name, value, unit, samples, true);
    }

    /// A metric printed for the reader but not part of the JSON line.
    fn info(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.push(name, value, unit, samples, false);
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: u64, json: bool) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            json,
        });
    }

    /// Adds throughput and latency: medians over the windows of each
    /// window's completions per second, p50 and p99 (in µs).
    fn timed(&mut self, workload: Workload, windows: &mut Windows, items: u64, elapsed: Duration) {
        let w = windows.summarize();
        self.metric("throughput_per_s", w.rate, "1/s", w.samples);
        self.info(workload.throughput_name(), w.rate, "1/s", w.samples);
        self.info(
            "throughput_whole_run_per_s",
            items as f64 / elapsed.as_secs_f64(),
            "1/s",
            items,
        );
        // Printed, not bounded: on a shared host single-thread speed
        // flips between two modes about 1.4x apart, and the median of a
        // two-mode mixture jumps between them (see README.md).
        self.info("latency_p50_us", w.p50 / 1e3, "us", w.samples);
        self.metric("latency_p99_us", w.p99 / 1e3, "us", w.samples);
        self.info("latency_windows", w.windows as f64, "count", w.samples);
        self.info(
            "latency_min_beyond_p99_per_window",
            w.min_beyond_p99 as f64,
            "count",
            w.samples,
        );
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times, dropping each result before the
/// next, and returns the last result with the median set-up time.
fn repeated_setup<T>(mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = state.take() {
            teardown(old);
        }
        let start = Instant::now();
        state = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), median(&times))
}

/// The untraced run: set-up, then `seconds` of timed work.
fn measure(workload: Workload, seed: u64, seconds: u64, checks: &mut Checks) -> Report {
    let mut report = Report::default();
    let budget = Duration::from_secs(seconds);
    let setup_s = match workload {
        Workload::ReadHot => {
            let (hot, setup_s) = repeated_setup(
                || ReadHot::setup(seed, checks),
                |old: ReadHot| drop(old.service.shutdown()),
            );
            let mut result = hot.run(Stop::After(budget), None);
            hot.check_table(checks);
            drop(hot.service.shutdown());
            let completed = result.completed();
            report.timed(workload, &mut result.windows, completed, result.elapsed);
            (report.attempted, report.failed) = (result.completed(), result.failed);
            setup_s
        }
        Workload::WriteFresh => {
            let (mut fresh, setup_s) = repeated_setup(
                || WriteFresh::setup(seed, checks),
                |old: WriteFresh| drop(old.service.shutdown()),
            );
            let mut result = fresh.run(Stop::After(budget), None);
            let decided = fresh.service.stats().decided as u64;
            checks.expect(
                "write-fresh.decided_equals_instances",
                decided == fresh.sent,
                format!("{decided} decided, {} instances", fresh.sent),
            );
            drop(fresh.service.shutdown());
            let completed = result.completed();
            report.timed(workload, &mut result.windows, completed, result.elapsed);
            (report.attempted, report.failed) = (result.completed(), result.failed);
            setup_s
        }
        Workload::BatchContended => {
            let (state, setup_s) =
                repeated_setup(|| contended::Contended::setup(seed, checks), drop);
            let mut result = state.run(budget);
            check_digests(&result.digests, checks);
            checks.expect(
                "batch-contended.decided_equals_instances",
                result.undecided == 0,
                format!("{} instances undecided", result.undecided),
            );
            report.notes.push(format!(
                "digest {:016x} rounds {} instances_per_round {}",
                result.digests.first().copied().unwrap_or(0),
                result.digests.len(),
                contended::ROUND
            ));
            report.timed(
                workload,
                &mut result.latencies,
                result.decided,
                result.elapsed,
            );
            report.attempted = result.decided;
            report.failed = result.failed + result.undecided;
            setup_s
        }
        Workload::SimSifting => {
            let (state, setup_s) = repeated_setup(|| sim::Sim::setup(seed, checks), drop);
            let start = Instant::now();
            let mut latencies = Windows::new(start, budget, stats::WINDOWS);
            let (mut trials, mut agreed, mut failed) = (0u64, 0u64, 0u64);
            let mut agreed_first = 0u64;
            for index in 0.. {
                let trial = state.trial(index, None);
                let end = Instant::now();
                latencies.push(end, trial.ns);
                trials += 1;
                agreed += u64::from(trial.agree);
                failed += u64::from(trial.failed());
                if index < AGREEMENT_PREFIX {
                    agreed_first += u64::from(trial.agree);
                }
                if end - start >= budget {
                    break;
                }
            }
            let elapsed = start.elapsed();
            // The first trials are the same on every commit for one
            // seed, so their agreement count diffs across commits.
            report.notes.push(format!(
                "agreement {agreed_first}/{} first trials, {agreed}/{trials} all trials",
                trials.min(AGREEMENT_PREFIX)
            ));
            report.info("agree_frac", agreed as f64 / trials as f64, "ratio", trials);
            report.timed(workload, &mut latencies, trials, elapsed);
            (report.attempted, report.failed) = (trials, failed);
            setup_s
        }
    };
    report.metric("setup_s", setup_s, "s", SETUP_REPEATS as u64);
    report
}

/// Every complete `batch-contended` round must give the same digest.
fn check_digests(digests: &[u64], checks: &mut Checks) {
    checks.expect(
        "batch-contended.digest_repeats",
        !digests.is_empty() && digests.iter().all(|&d| d == digests[0]),
        format!("round digests {digests:x?}"),
    );
}

/// Per-item time of the untraced reference and the traced pass, for
/// the tracing overhead.
struct Overhead {
    untraced_ns: f64,
    traced_ns: f64,
}

fn per_item(elapsed: Duration, items: u64) -> f64 {
    elapsed.as_nanos() as f64 / items.max(1) as f64
}

/// What one traced service pass measured.
struct ServicePass {
    propose: Summary,
    resolve: Summary,
    obs: ObsReport,
    overhead: Option<Overhead>,
}

/// A traced `read-hot` (`hot`) or `write-fresh` pass of fixed size,
/// then, with `reference` set, an untraced run of that length for the
/// tracing overhead. The observation report is taken right after the
/// traced pass, so its counts repeat exactly for one seed.
fn service_pass(
    seed: u64,
    hot: bool,
    epoch: Instant,
    reference: Option<Duration>,
    report: &mut Report,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> ServicePass {
    let (traced, obs, untraced) = if hot {
        let hot = ReadHot::setup(seed, checks);
        let traced = hot.run(Stop::Count(TRACE_HOT), Some(epoch));
        let obs = hot.service.obs_report();
        let untraced = reference.map(|r| hot.run(Stop::After(r), None));
        hot.check_table(checks);
        drop(hot.service.shutdown());
        (traced, obs, untraced)
    } else {
        let mut fresh = WriteFresh::setup(seed, checks);
        let traced = fresh.run(Stop::Count(TRACE_FRESH), Some(epoch));
        let obs = fresh.service.obs_report();
        let untraced = reference.map(|r| fresh.run(Stop::After(r), None));
        let decided = fresh.service.stats().decided as u64;
        checks.expect(
            "write-fresh.decided_equals_instances",
            decided == fresh.sent,
            format!("{decided} decided, {} instances", fresh.sent),
        );
        drop(fresh.service.shutdown());
        (traced, obs, untraced)
    };
    let traced_ns = per_item(traced.elapsed, traced.completed());
    report.attempted += traced.completed();
    report.failed += traced.failed;
    let spans = traced.tracer.expect("a traced pass records spans");
    let pass = ServicePass {
        propose: summarize(&mut spans.durations(Layer::ServicePropose)),
        resolve: summarize(&mut spans.durations(Layer::ServiceResolve)),
        obs,
        overhead: untraced.map(|r| {
            report.attempted += r.completed();
            report.failed += r.failed;
            Overhead {
                untraced_ns: per_item(r.elapsed, r.completed()),
                traced_ns,
            }
        }),
    };
    tracer.absorb(spans);
    pass
}

/// The traced run: every layer's pass, each of fixed size. The
/// workload's own pass is followed by an untraced reference of
/// `seconds / 2` for the tracing overhead. `service.propose_ns` comes
/// from a `read-hot` pass and `service.resolve_ns` from a `write-fresh`
/// pass; the `shard.*` counters from the workload's own service, or the
/// `read-hot` pass for `sim-sifting`.
fn traced(workload: Workload, seed: u64, seconds: u64, checks: &mut Checks) -> (Report, Tracer) {
    let mut report = Report::default();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let reference = Duration::from_secs(seconds).div_f64(2.0);
    let own = |w: Workload| (workload == w).then_some(reference);
    let hot = service_pass(
        seed,
        true,
        epoch,
        own(Workload::ReadHot),
        &mut report,
        &mut tracer,
        checks,
    );
    let fresh = service_pass(
        seed,
        false,
        epoch,
        own(Workload::WriteFresh),
        &mut report,
        &mut tracer,
        checks,
    );
    for (name, s) in [
        ("service.propose_ns", hot.propose),
        ("service.resolve_ns", fresh.resolve),
    ] {
        report.metric(&format!("{name}.p50"), s.p50 as f64, "ns", s.count as u64);
        report.metric(&format!("{name}.p99"), s.p99 as f64, "ns", s.count as u64);
    }
    let overhead = match workload {
        Workload::ReadHot | Workload::SimSifting => {
            shard_counters(&mut report, &hot.obs);
            hot.overhead
        }
        Workload::WriteFresh => {
            shard_counters(&mut report, &fresh.obs);
            fresh.overhead
        }
        Workload::BatchContended => {
            let state = contended::Contended::setup(seed, checks);
            let mut service = contended::new_service(seed);
            let start = Instant::now();
            let mut wrong = 0;
            for (instance, values) in &state.script.batches[..TRACE_CONTENDED] {
                let (_, fact) =
                    contended::decide_batch(&mut service, *instance, values, Some(&mut tracer));
                wrong += u64::from(fact.is_none());
            }
            let traced_ns = per_item(start.elapsed(), TRACE_CONTENDED as u64);
            shard_counters(&mut report, &service.obs_report());
            report.notes.push(format!(
                "digest {:016x} instances {TRACE_CONTENDED}",
                service.digest()
            ));
            let reference_run = state.run(reference);
            check_digests(&reference_run.digests, checks);
            report.attempted += TRACE_CONTENDED as u64 + reference_run.decided;
            report.failed += wrong + reference_run.failed + reference_run.undecided;
            Some(Overhead {
                untraced_ns: per_item(reference_run.elapsed, reference_run.decided),
                traced_ns,
            })
        }
    };
    // The simulator pass: the workload itself for sim-sifting, a side
    // pass otherwise.
    let sim = sim::Sim::setup(seed, checks);
    let start = Instant::now();
    let trials: Vec<_> = (0..TRACE_TRIALS)
        .map(|i| sim.trial(i, Some(&mut tracer)))
        .collect();
    let sim_traced_ns = per_item(start.elapsed(), TRACE_TRIALS);
    sim_metrics(&mut report, &trials, &tracer);
    report.attempted += TRACE_TRIALS;
    report.failed += trials.iter().filter(|t| t.failed()).count() as u64;
    let overhead = overhead.or_else(|| {
        (workload == Workload::SimSifting).then(|| {
            let start = Instant::now();
            let mut count = 0;
            while start.elapsed() < reference {
                report.failed += u64::from(sim.trial(TRACE_TRIALS + count, None).failed());
                count += 1;
            }
            report.attempted += count;
            Overhead {
                untraced_ns: per_item(start.elapsed(), count),
                traced_ns: sim_traced_ns,
            }
        })
    });
    let overhead = overhead.expect("every workload measures its tracing overhead");
    report.metric(
        "trace.overhead_ns_per_item",
        overhead.traced_ns - overhead.untraced_ns,
        "ns",
        1,
    );
    report.metric(
        "trace.overhead_frac",
        overhead.traced_ns / overhead.untraced_ns - 1.0,
        "ratio",
        1,
    );

    for (n, warmup, count) in ANATOMY {
        let mut shape = anatomy::shape(seed, n, warmup, count, epoch, checks);
        let decisions = shape.decisions;
        for (name, value) in [
            ("shard.submit_ns", shape.submit_ns),
            ("shard.tick_ns_per_decision", shape.tick_ns),
            (
                "consensus.allocate_ns",
                shape.stage(Layer::ConsensusAllocate),
            ),
            ("layout.build_ns", shape.stage(Layer::LayoutBuild)),
            ("shmem.memory_new_ns", shape.stage(Layer::ShmemMemoryNew)),
            (
                "consensus.participants_ns",
                shape.stage(Layer::ConsensusParticipants),
            ),
            ("shmem.lockstep_ns", shape.stage(Layer::ShmemLockstep)),
            ("decide.teardown_ns", shape.stage(Layer::DecideTeardown)),
            ("stages.sum_ns", shape.stage_sum()),
            ("shmem.ns_per_op", shape.ns_per_op()),
        ] {
            report.metric(&format!("{name}.n{n}"), value, "ns", decisions);
        }
        report.metric(
            &format!("stages.share_of_tick.n{n}"),
            shape.share_of_tick,
            "ratio",
            decisions,
        );
        report.metric(
            &format!("consensus.phases.mean.n{n}"),
            shape.phases_mean,
            "count",
            decisions,
        );
        report.metric(
            &format!("consensus.retries.n{n}"),
            shape.retries as f64,
            "count",
            decisions,
        );
        report.metric(
            &format!("shmem.ops_per_decision.n{n}"),
            shape.ops as f64 / decisions.max(1) as f64,
            "count",
            decisions,
        );
        tracer.absorb(shape.tracer.take().expect("shape spans"));
    }
    let isolated = anatomy::isolated(
        seed,
        contended::BATCH,
        ISOLATED.0,
        ISOLATED.1,
        &mut tracer,
        checks,
    );
    let runs = isolated.runs;
    report.metric("core.conciliator_ns", isolated.conciliator_ns, "ns", runs);
    report.metric(
        "core.conciliator_steps_per_proc",
        isolated.conciliator_steps_per_proc,
        "count",
        runs,
    );
    report.metric("adopt_commit.ns", isolated.adopt_commit_ns, "ns", runs);
    report.metric(
        "adopt_commit.steps_per_proc",
        isolated.adopt_commit_steps_per_proc,
        "count",
        runs,
    );
    report.metric(
        "adopt_commit.commit_frac",
        isolated.commits as f64 / runs.max(1) as f64,
        "ratio",
        runs,
    );
    for (layer, (self_ns, count)) in tracer.self_times() {
        report.info(
            &format!("self.{}_ns", layer.name()),
            self_ns as f64,
            "ns",
            count,
        );
    }
    report.info("trace.spans", tracer.spans().len() as f64, "count", 1);
    (report, tracer)
}

/// Shard counters from a service's merged observation report, taken
/// when no proposal is pending.
fn shard_counters(report: &mut Report, obs: &ObsReport) {
    let decided = obs.count("service.decided");
    let retries = obs.count("service.retries");
    let batched = obs.count("service.proposals")
        - obs.count("service.idempotent")
        - obs.count("service.evicted_rejects");
    let per_shard: Vec<u64> = (0..service::SHARDS)
        .map(|shard| obs.count(&format!("shard{shard:03}.proposals")))
        .collect();
    let busiest = per_shard.iter().copied().max().unwrap_or(0) as f64;
    let mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len() as f64;
    report.metric("shard.decided", decided as f64, "count", decided);
    report.metric(
        "shard.idempotent",
        obs.count("service.idempotent") as f64,
        "count",
        decided,
    );
    report.metric("shard.retries", retries as f64, "count", decided);
    report.metric(
        "shard.attempt_yield",
        decided as f64 / (decided + retries).max(1) as f64,
        "ratio",
        decided,
    );
    report.metric(
        "shard.batch_size.mean",
        batched as f64 / decided.max(1) as f64,
        "count",
        decided,
    );
    report.metric(
        "shard.batch_size.max",
        obs.max("service.max_batch") as f64,
        "count",
        decided,
    );
    report.metric(
        "shard.hot_share",
        busiest / mean.max(1.0),
        "ratio",
        per_shard.len() as u64,
    );
}

/// Simulator metrics over the traced trials.
fn sim_metrics(report: &mut Report, trials: &[sim::Trial], tracer: &Tracer) {
    let count = trials.len() as u64;
    let run_ns: u64 = trials.iter().map(|t| t.run_ns).sum();
    let slots: u64 = trials.iter().map(|t| t.slots).sum();
    let agreed = trials.iter().filter(|t| t.agree).count();
    let mut runs = tracer.durations(Layer::SimRun);
    let run = summarize(&mut runs);
    let mut news = tracer.durations(Layer::SimEngineNew);
    let new = summarize(&mut news);
    report.metric("sim.run_ns", run.p50 as f64, "ns", run.count as u64);
    report.metric("sim.engine_new_ns", new.p50 as f64, "ns", new.count as u64);
    report.metric(
        "sim.events_per_s",
        slots as f64 / (run_ns as f64 / 1e9),
        "1/s",
        count,
    );
    report.metric(
        "sim.ops_per_proc.mean",
        trials.iter().map(|t| t.ops_mean).sum::<f64>() / count as f64,
        "count",
        count,
    );
    report.metric(
        "sim.ops_per_proc.max",
        trials.iter().map(|t| t.ops_max).max().unwrap_or(0) as f64,
        "count",
        count,
    );
    report.metric(
        "sim.agree_frac",
        agreed as f64 / count as f64,
        "ratio",
        count,
    );
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} clients={} workers={} shards={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        service::CLIENTS,
        service::WORKERS,
        service::SHARDS,
    );
    let mut checks = Checks::default();
    let mut report = if args.trace {
        let (report, tracer) = traced(args.workload, args.seed, args.seconds, &mut checks);
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-{}.tsv",
            args.workload.name(),
            args.seed
        ));
        match tracer.write_tsv(&path, SPANS_WRITTEN) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# spans not written ({}): {e}", path.display()),
        }
        report
    } else {
        measure(args.workload, args.seed, args.seconds, &mut checks)
    };
    if !args.trace {
        match stats::peak_rss_mb() {
            Some(mb) => report.metric("peak_rss_mb", mb, "MB", 1),
            None => checks.expect(
                "peak_rss_readable",
                false,
                "no VmHWM in /proc/self/status".into(),
            ),
        }
    }
    // Each check counts as one more attempt, so `failed` never exceeds
    // `attempted`.
    let failed = report.failed + checks.failures.len() as u64;
    let attempted = report.attempted + (checks.passed + checks.failures.len()) as u64;
    report.info(
        "failed_frac",
        failed as f64 / attempted as f64,
        "ratio",
        attempted,
    );
    for note in &report.notes {
        println!("{note}");
    }
    for metric in &report.metrics {
        println!(
            "metric {} {} {} samples={}",
            metric.name, metric.value, metric.unit, metric.samples
        );
    }
    println!(
        "checks passed={} failed={}",
        checks.passed,
        checks.failures.len()
    );
    for failure in &checks.failures {
        println!("check FAILED {failure}");
    }
    let correct = failed == 0;
    let mut json = String::new();
    for metric in report.metrics.iter().filter(|m| m.json) {
        if !json.is_empty() {
            json.push_str(", ");
        }
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            0.0
        };
        write!(
            json,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        )
        .expect("writing to a String cannot fail");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}"
    );
    if !correct {
        std::process::exit(1);
    }
}
