//! Cross-runtime equivalence: the same protocol state machines run on
//! the deterministic simulator and on the threaded substrate, and the
//! sequential drivers — over the simulator's memory or the threaded
//! objects — reproduce the engine's outcome exactly.

use std::fmt::Debug;

use sift::core::{Conciliator, Epsilon, SiftingConciliator, SnapshotConciliator};
use sift::service::consensus_stack;
use sift::shmem::{run_lockstep_on, run_threads, AtomicMemory};
use sift::sim::rng::SeedSplitter;
use sift::sim::schedule::RoundRobin;
use sift::sim::{drive, Engine, Layout, LayoutBuilder, Memory, Process, ProcessId};

fn sifting_participants(n: usize, seed: u64) -> (Layout, Vec<sift::core::SiftingParticipant>) {
    let mut b = LayoutBuilder::new();
    let c = SiftingConciliator::allocate(&mut b, n, Epsilon::HALF);
    let layout = b.build();
    let split = SeedSplitter::new(seed);
    let procs = (0..n)
        .map(|i| {
            let mut rng = split.stream("process", i as u64);
            c.participant(ProcessId(i), i as u64, &mut rng)
        })
        .collect();
    (layout, procs)
}

/// Runs the participants `make` builds three ways — `sift_sim::drive`
/// in round-robin order over the simulator's plain `Memory`, the
/// lockstep driver over the threaded objects, and the engine under
/// `RoundRobin` — and demands identical outputs. The engine resumes a
/// state machine immediately after its op executes, so "one op per
/// scheduled slot" is the same discipline in all three.
fn assert_runtimes_agree<P>(make: impl Fn() -> (Layout, Vec<P>), label: &str)
where
    P: Process,
    P::Output: PartialEq + Debug,
{
    let (layout, procs) = make();
    let n = procs.len();
    let mut memory = Memory::new(&layout);
    let driven: Vec<_> = drive(procs, (0..n).cycle(), |_, op| memory.execute(op))
        .into_iter()
        .map(|o| o.expect("round robin runs every process to completion"))
        .collect();
    let (layout, procs) = make();
    let lockstep = run_lockstep_on(&AtomicMemory::new(&layout), procs);
    let (layout, procs) = make();
    let engine = Engine::new(&layout, procs)
        .run(RoundRobin::new(n))
        .unwrap_outputs();
    assert_eq!(driven, lockstep, "{label}: drive vs lockstep");
    assert_eq!(engine, lockstep, "{label}: engine vs lockstep");
}

/// The sifting conciliator, and the consensus stack a service shard
/// decides each batch with (phase budget 4, conflicting inputs) at the
/// batch sizes from a solo proposal to the contended 64: all three
/// sequential runtimes agree exactly.
#[test]
fn lockstep_threads_match_simulator_exactly() {
    for seed in 0..20 {
        assert_runtimes_agree(
            || sifting_participants(9, seed),
            &format!("sifting seed {seed}"),
        );
    }
    for n in [1usize, 4, 16, 64] {
        for seed in 0..50u64 {
            let make = || {
                let mut b = LayoutBuilder::new();
                let stack = consensus_stack(&mut b, n, 4);
                let split = SeedSplitter::new(seed);
                let procs: Vec<_> = (0..n)
                    .map(|i| {
                        let mut rng = split.stream("participant", i as u64);
                        stack.participant(ProcessId(i), i as u64 % 5, &mut rng)
                    })
                    .collect();
                (b.build(), procs)
            };
            assert_runtimes_agree(make, &format!("stack n {n} seed {seed}"));
        }
    }
}

#[test]
fn lockstep_matches_for_snapshot_conciliator_too() {
    let n = 6;
    for seed in 0..10 {
        let make = || {
            let mut b = LayoutBuilder::new();
            let c = SnapshotConciliator::allocate(&mut b, n, Epsilon::HALF);
            let split = SeedSplitter::new(seed);
            let procs: Vec<_> = (0..n)
                .map(|i| {
                    let mut rng = split.stream("process", i as u64);
                    c.participant(ProcessId(i), 10 + i as u64, &mut rng)
                })
                .collect();
            (b.build(), procs)
        };
        assert_runtimes_agree(make, &format!("snapshot seed {seed}"));
    }
}

/// Free-running threads (the OS schedules) still satisfy validity and
/// exact step counts.
#[test]
fn free_threads_preserve_protocol_invariants() {
    let n = 6;
    let (layout, procs) = sifting_participants(n, 5);
    let rounds = {
        let mut b = LayoutBuilder::new();
        SiftingConciliator::allocate(&mut b, n, Epsilon::HALF).rounds() as u64
    };
    let report = run_threads(&layout, procs);
    for p in &report.outputs {
        assert!(p.input() < n as u64);
    }
    assert!(report.ops.iter().all(|&o| o == rounds));
}
