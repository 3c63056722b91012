//! An idle service must not spin: once the queued work is decided, the
//! shard workers sleep until a proposal wakes them, with no periodic
//! timeout behind the wake.
//!
//! The check reads the kernel's per-thread `voluntary_ctxt_switches`
//! counters for the `sift-shard-*` threads, so it is Linux-only, and it
//! sits alone in this test binary: any other test here would start
//! shard workers of its own and blur the count.

#![cfg(target_os = "linux")]

use std::fs;
use std::time::Duration;

use sift::service::{InstanceId, Service, ServiceConfig};

/// Sum of `voluntary_ctxt_switches` over this process's threads whose
/// name starts with `sift-shard-`, and how many such threads there are.
fn shard_worker_switches() -> (u64, usize) {
    let mut total = 0;
    let mut threads = 0;
    for task in fs::read_dir("/proc/self/task").expect("read /proc/self/task") {
        let path = task.expect("task entry").path();
        // A thread may exit between the listing and the reads.
        let (Ok(comm), Ok(status)) = (
            fs::read_to_string(path.join("comm")),
            fs::read_to_string(path.join("status")),
        ) else {
            continue;
        };
        if !comm.starts_with("sift-shard-") {
            continue;
        }
        threads += 1;
        total += status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|count| count.trim().parse::<u64>().ok())
            .expect("voluntary_ctxt_switches in task status");
    }
    (total, threads)
}

#[test]
fn idle_shard_workers_stay_asleep() {
    let service = Service::start(ServiceConfig {
        shards: 16,
        workers: 4,
        ..ServiceConfig::default()
    });
    let fact = service.propose_sync(InstanceId(1), 7).expect("decides");
    assert_eq!(fact.value, 7);
    std::thread::sleep(Duration::from_millis(200));

    let (before, threads) = shard_worker_switches();
    assert_eq!(threads, 4, "every shard worker is visible in /proc");
    std::thread::sleep(Duration::from_secs(1));
    let (after, _) = shard_worker_switches();

    // A parked worker does not run at all; a worker that wakes on a
    // timer switches out once per tick (about 1000 times a second).
    let delta = after - before;
    assert!(
        delta <= 8,
        "idle shard workers switched {delta} times in 1 s; they should stay parked"
    );
    service.shutdown();
}
