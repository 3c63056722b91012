//! Proof the inline register paths are actually taken: under a pure
//! small-payload register workload the substrate counters must show
//! inline activity and **zero** Pile machinery (no retires, no
//! reclamation, no reader-guard entries, no slot CAS retries). A last
//! phase pins the snapshot's delta, full-copy and rebuild counts for
//! one burst-then-scan pattern.
//!
//! Only meaningful with the `obs` feature (the hooks are no-op stubs
//! otherwise), and deliberately a **single** test function: the
//! substrate counters are process-global, and the phases below reset
//! and re-read them sequentially — a sibling test running concurrently
//! in this binary would race the counters. Keeping this file to one
//! test is what makes the exact-equality assertions sound.

#![cfg(feature = "obs")]

use sift_shmem::max_register::LockFreeMaxRegister;
use sift_shmem::obs;
use sift_shmem::register::LockFreeRegister;
use sift_shmem::snapshot::LockFreeSnapshot;

const WRITES: u64 = 256;

#[test]
fn inline_paths_bypass_pile_machinery() {
    // Phase 1: pure register workload over an inline payload. Every
    // write goes through the seqlock cell; nothing touches a pile.
    obs::reset();
    let r: LockFreeRegister<(u64, u64)> = LockFreeRegister::new();
    assert!(r.is_inline());
    for k in 0..WRITES {
        r.write((k, k * 2));
        assert_eq!(r.read(), Some((k, k * 2)));
    }
    let snap = obs::snapshot();
    assert_eq!(snap.inline_register_writes, WRITES, "fast path taken");
    assert_eq!(snap.retired_nodes, 0, "no node retirement");
    assert_eq!(snap.reclaimed_nodes, 0, "no reclamation");
    assert_eq!(snap.reclaim_passes, 0, "no reclamation passes");
    assert_eq!(snap.guard_entries, 0, "no reader guards");
    assert_eq!(snap.slot_cas_retries, 0, "no slot CAS traffic");
    assert_eq!(snap.retire_pile_hwm, 0, "piles never occupied");

    // Phase 2: combining max register over an inline payload. Every
    // write either installs (claim winner) or returns covered; the
    // two must account for all of them, again with zero pile traffic.
    obs::reset();
    let m: LockFreeMaxRegister<u64> = LockFreeMaxRegister::new();
    assert!(m.is_combining());
    for k in 0..WRITES {
        m.write(k, k);
    }
    for k in 0..WRITES {
        m.write(k, k); // dominated: the fast covered path
    }
    assert_eq!(m.read(), Some((WRITES - 1, WRITES - 1)));
    let snap = obs::snapshot();
    assert_eq!(
        snap.combine_installs + snap.combine_covered,
        2 * WRITES,
        "every write installed or was covered"
    );
    assert!(snap.combine_covered >= WRITES, "repeats are all dominated");
    assert_eq!(snap.combine_batch.count(), snap.combine_installs);
    assert_eq!(snap.retired_nodes, 0, "no node retirement");
    assert_eq!(snap.guard_entries, 0, "no reader guards");

    // Phase 3 (control): an oversized payload must still go through
    // pointer publication — retires happen, inline counters stay zero.
    obs::reset();
    let big: LockFreeRegister<String> = LockFreeRegister::new();
    assert!(!big.is_inline());
    for k in 0..WRITES {
        big.write(k.to_string());
    }
    let snap = obs::snapshot();
    assert!(snap.retired_nodes > 0, "published path retires nodes");
    assert_eq!(snap.inline_register_writes, 0);

    // Phase 4: snapshot bursts in lockstep waves (every process
    // updates, then every process scans).
    obs::reset();
    const N: usize = 8;
    let snap: LockFreeSnapshot<u64> = LockFreeSnapshot::new(N);
    // A full burst from the unscanned initial state: N - 1 delta
    // states, then the fold at the depth cap copies once. The folded
    // state is flat, so its scans build nothing.
    for c in 0..N {
        snap.update(c, c as u64);
    }
    for _ in 0..N {
        assert_eq!(snap.scan()[N - 1], Some(N as u64 - 1));
    }
    // A partial burst: the first update finds a scanned state and
    // copies eagerly, the next two are deltas. The first scan builds
    // and caches the delta state's vector; the other N - 1 reuse it.
    for c in 0..3 {
        snap.update(c, 10 + c as u64);
    }
    for _ in 0..N {
        assert_eq!(snap.scan()[2], Some(12));
    }
    // The same again with a burst of two: one copy, one delta, one
    // build.
    snap.update(0, 20);
    snap.update(1, 21);
    assert_eq!(&snap.scan()[..3], &[Some(20), Some(21), Some(12)]);
    let snap = obs::snapshot();
    assert_eq!(snap.snapshot_delta_publishes, (N as u64 - 1) + 2 + 1);
    assert_eq!(snap.snapshot_full_copies, 3);
    assert_eq!(snap.snapshot_rebuilds, 2);
    assert_eq!(snap.republish_conflicts, 0, "one thread: no CAS conflicts");
}
