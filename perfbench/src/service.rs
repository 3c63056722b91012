//! The threaded service workloads: `read-hot` and `write-fresh`.
//!
//! Both drive one [`Service`] (16 shards, 2 workers) from 2 closed-loop
//! client threads: a client sends its next proposal only after the
//! previous one's `ProposeFuture` resolved. Every reply is checked as
//! it arrives, and each request's latency is one exact sample, from
//! just before `Service::propose` to just after the future resolved.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use sift_service::runtime::block_on;
use sift_service::{CommitFact, InstanceId, Service, ServiceConfig, ServiceError, ShardConfig};
use sift_sim::rng::{SeedSplitter, Xoshiro256StarStar};

use crate::stats::{Windows, WINDOWS};
use crate::trace::{Layer, Tracer, ROOT};
use crate::Checks;

/// Shards in every service the benchmark starts.
pub const SHARDS: usize = 16;
/// Shard worker threads (the machine this was sized on has 2 cores).
pub const WORKERS: usize = 2;
/// Closed-loop client threads.
pub const CLIENTS: usize = 2;
/// Instances `read-hot` decides during set-up.
pub const HOT_INSTANCES: u64 = 100_000;
/// Zipf skew of `read-hot` instance popularity.
pub const ZIPF_THETA: f64 = 0.99;
/// Seeded `(rank, value)` draws per `read-hot` client, cycled.
const HOT_DRAWS: usize = 1 << 20;
/// Proposals per client discarded before timing (`read-hot`).
const HOT_WARMUP: u64 = 100_000;
/// Proposals per client discarded before timing (`write-fresh`).
const FRESH_WARMUP: u64 = 10_000;
/// Seeded values per `write-fresh` client, cycled.
const FRESH_VALUES: usize = 1 << 16;

/// Starts a service with the benchmark's fixed shape.
pub fn start(seed: u64) -> Service {
    Service::start(ServiceConfig {
        shards: SHARDS,
        workers: WORKERS,
        shard: ShardConfig {
            seed,
            ..ShardConfig::default()
        },
    })
}

/// When a closed loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After the first request that completes this long after the start.
    After(Duration),
    /// After this many requests per client.
    Count(u64),
}

/// What a closed loop measured.
#[derive(Debug)]
pub struct LoopResult {
    /// One latency sample (ns) per completed request, all clients,
    /// in [`WINDOWS`] windows for [`Stop::After`] and one otherwise.
    pub windows: Windows,
    /// Requests sent by each client.
    pub per_client: Vec<u64>,
    /// Requests whose reply was an error or failed the check.
    pub failed: u64,
    /// From the first client's start to the last client's end.
    pub elapsed: Duration,
    /// `service.propose` and `service.resolve` spans, when traced.
    pub tracer: Option<Tracer>,
}

impl LoopResult {
    /// Requests sent by all clients.
    pub fn completed(&self) -> u64 {
        self.per_client.iter().sum()
    }
}

/// Runs [`CLIENTS`] closed-loop clients. Client `c`'s `i`-th request
/// proposes `input(c, i)`; `check` judges each reply. With `trace`
/// set, every request records a `service.propose` span (the call) and
/// a `service.resolve` span (awaiting the future) on that epoch.
pub fn closed_loop<I, C>(
    service: &Service,
    stop: Stop,
    trace: Option<Instant>,
    input: I,
    check: C,
) -> LoopResult
where
    I: Fn(usize, u64) -> (InstanceId, u64) + Sync,
    C: Fn(InstanceId, u64, &Result<CommitFact, ServiceError>) -> bool + Sync,
{
    let (span, windows, capacity) = match stop {
        Stop::After(d) => (d, WINDOWS, 0),
        Stop::Count(n) => (Duration::MAX, 1, n as usize),
    };
    let barrier = Barrier::new(CLIENTS);
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (barrier, input, check) = (&barrier, &input, &check);
                scope.spawn(move || {
                    let mut tracer = trace.map(|epoch| Tracer::with_capacity(epoch, 2 * capacity));
                    let mut failed = 0u64;
                    let mut sent = 0u64;
                    barrier.wait();
                    let start = Instant::now();
                    let mut latencies = Windows::new(start, span, windows);
                    let end = loop {
                        let (instance, value) = input(client, sent);
                        let t0 = Instant::now();
                        let reply = match tracer.as_mut() {
                            None => block_on(service.propose(instance, value)),
                            Some(tracer) => {
                                let future = service.propose(instance, value);
                                let t1 = Instant::now();
                                let reply = block_on(future);
                                let id = (sent << 8) | client as u64;
                                let (s0, s1, s2) = (tracer.at(t0), tracer.at(t1), tracer.now());
                                tracer.record(id, ROOT, Layer::ServicePropose, s0, s1);
                                tracer.record(id, ROOT, Layer::ServiceResolve, s1, s2);
                                reply
                            }
                        };
                        let end = Instant::now();
                        latencies.push(end, (end - t0).as_nanos() as u64);
                        if !check(instance, value, &reply) {
                            failed += 1;
                        }
                        sent += 1;
                        let done = match stop {
                            Stop::After(d) => end - start >= d,
                            Stop::Count(n) => sent >= n,
                        };
                        if done {
                            break end;
                        }
                    };
                    (latencies, sent, failed, start, end, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let first_start = outcomes.iter().map(|o| o.3).min().expect("clients ran");
    let last_end = outcomes.iter().map(|o| o.4).max().expect("clients ran");
    let mut outcomes = outcomes.into_iter();
    let first = outcomes.next().expect("clients ran");
    let mut result = LoopResult {
        windows: first.0,
        per_client: vec![first.1],
        failed: first.2,
        elapsed: last_end - first_start,
        tracer: first.5,
    };
    for (latencies, sent, failed, _, _, tracer) in outcomes {
        result.windows.absorb(latencies);
        result.per_client.push(sent);
        result.failed += failed;
        if let (Some(all), Some(one)) = (result.tracer.as_mut(), tracer) {
            all.absorb(one);
        }
    }
    result
}

/// Zipf(θ) over ranks `0..n` by inverse CDF on a cumulative table.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: u64, theta: f64) -> Self {
        let mut total = 0.0;
        let mut cumulative: Vec<f64> = (0..n)
            .map(|rank| {
                total += 1.0 / ((rank + 1) as f64).powf(theta);
                total
            })
            .collect();
        for c in &mut cumulative {
            *c /= total;
        }
        Self { cumulative }
    }

    fn sample(&self, rng: &mut Xoshiro256StarStar) -> usize {
        let u = rng.unit_f64();
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

/// `read-hot`'s instance for popularity rank `rank`. Fixed across seeds,
/// so shard placement of the hot instances does not vary with the seed.
fn hot_instance(rank: usize) -> InstanceId {
    InstanceId(rank as u64 + 1)
}

/// A started service whose `HOT_INSTANCES` instances are all decided,
/// with the seeded request stream of each client.
pub struct ReadHot {
    /// The service under test.
    pub service: Service,
    /// The fact each instance decided during set-up, by rank.
    pub facts: Vec<CommitFact>,
    draws: Vec<Vec<(u32, u32)>>,
}

impl ReadHot {
    /// Starts the service, decides every instance (one proposal each,
    /// sent without waiting), builds the Zipf request streams and runs
    /// the warm-up slice. Set-up violations go to `checks`.
    pub fn setup(seed: u64, checks: &mut Checks) -> Self {
        let service = start(seed);
        let split = SeedSplitter::new(seed);
        let mut rng = split.stream("read-hot.values", 0);
        let values: Vec<u64> = (0..HOT_INSTANCES).map(|_| rng.next_u64() >> 40).collect();
        let replies = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let (service, values) = (&service, &values);
                    scope.spawn(move || {
                        let pending: Vec<_> = (client..values.len())
                            .step_by(CLIENTS)
                            .map(|rank| (rank, service.propose(hot_instance(rank), values[rank])))
                            .collect();
                        pending
                            .into_iter()
                            .map(|(rank, future)| (rank, block_on(future)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut replies: Vec<_> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("set-up client panicked"))
                .collect();
            replies.sort_by_key(|(rank, _)| *rank);
            replies
        });
        let mut facts = Vec::with_capacity(replies.len());
        let mut bad = 0u64;
        for (rank, reply) in replies {
            match reply {
                Ok(fact)
                    if fact.instance == hot_instance(rank)
                        && fact.value == values[rank]
                        && fact.meta.batch_size == 1 =>
                {
                    facts.push(fact)
                }
                _ => bad += 1,
            }
        }
        checks.expect(
            "read-hot.setup_decides_proposed_values",
            bad == 0,
            format!("{bad} set-up replies wrong"),
        );
        let zipf = Zipf::new(HOT_INSTANCES, ZIPF_THETA);
        let draws = (0..CLIENTS)
            .map(|client| {
                let mut rng = split.stream("read-hot.draws", client as u64);
                (0..HOT_DRAWS)
                    .map(|_| (zipf.sample(&mut rng) as u32, rng.next_u64() as u32))
                    .collect()
            })
            .collect();
        let hot = Self {
            service,
            facts,
            draws,
        };
        if bad == 0 {
            let warm = hot.run(Stop::Count(HOT_WARMUP), None);
            checks.expect(
                "read-hot.warmup_replies",
                warm.failed == 0,
                format!("{} warm-up replies wrong", warm.failed),
            );
        }
        hot
    }

    /// Runs the timed (or traced) repeat-proposal phase. A reply is
    /// correct if it is exactly the fact decided at set-up.
    pub fn run(&self, stop: Stop, trace: Option<Instant>) -> LoopResult {
        closed_loop(
            &self.service,
            stop,
            trace,
            |client, i| {
                let (rank, value) = self.draws[client][i as usize % HOT_DRAWS];
                (hot_instance(rank as usize), u64::from(value))
            },
            |instance, _, reply| matches!(reply, Ok(fact) if *fact == self.facts[instance.0 as usize - 1]),
        )
    }

    /// Checks that the table still holds exactly the set-up decisions.
    pub fn check_table(&self, checks: &mut Checks) {
        let decided = self.service.stats().decided as u64;
        checks.expect(
            "read-hot.decided_equals_instances",
            decided == HOT_INSTANCES,
            format!("{decided} decided, {HOT_INSTANCES} instances"),
        );
    }
}

/// A started service plus the seeded values `write-fresh` proposes.
pub struct WriteFresh {
    /// The service under test.
    pub service: Service,
    values: Vec<Vec<u64>>,
    /// The lowest instance id no proposal has used yet.
    next_id: u64,
    /// Proposals sent so far, each to an instance of its own.
    pub sent: u64,
}

impl WriteFresh {
    /// Starts the service and runs the warm-up slice.
    pub fn setup(seed: u64, checks: &mut Checks) -> Self {
        let split = SeedSplitter::new(seed);
        let values = (0..CLIENTS)
            .map(|client| {
                let mut rng = split.stream("write-fresh.values", client as u64);
                (0..FRESH_VALUES).map(|_| rng.next_u64() >> 40).collect()
            })
            .collect();
        let mut fresh = Self {
            service: start(seed),
            values,
            next_id: 1,
            sent: 0,
        };
        let warm = fresh.run(Stop::Count(FRESH_WARMUP), None);
        checks.expect(
            "write-fresh.warmup_replies",
            warm.failed == 0,
            format!("{} warm-up replies wrong", warm.failed),
        );
        fresh
    }

    /// Runs one phase in which every proposal opens a new instance. A
    /// reply is correct if it decides the proposal's own value for its
    /// own instance in a batch of one.
    pub fn run(&mut self, stop: Stop, trace: Option<Instant>) -> LoopResult {
        let base = self.next_id;
        let result = closed_loop(
            &self.service,
            stop,
            trace,
            |client, i| {
                let id = base + i * CLIENTS as u64 + client as u64;
                let values = &self.values[client];
                (InstanceId(id), values[i as usize % values.len()])
            },
            |instance, value, reply| {
                matches!(reply, Ok(fact) if fact.instance == instance
                    && fact.value == value
                    && fact.meta.batch_size == 1)
            },
        );
        let longest = result.per_client.iter().copied().max().unwrap_or(0);
        self.next_id = base + CLIENTS as u64 * longest;
        self.sent += result.completed();
        result
    }
}
