//! # sift-shmem — threaded shared-memory substrate
//!
//! Real-thread counterparts of the simulator's shared objects, plus a
//! runtime that drives the same [`Process`](sift_sim::Process) state
//! machines on OS threads:
//!
//! * [`register::LockFreeRegister`] — lock-free linearizable MWMR
//!   register (an allocation-free inline seqlock cell for ≤16-byte
//!   trivially-destructible values, pointer publication for the rest);
//!   [`register::LockRegister`] is the lock-based reference and
//!   [`register::AtomicIndexRegister`] a single-word `u32` register.
//! * [`snapshot::LockFreeSnapshot`] — lock-free snapshot: versioned
//!   delta publication. Updates are `O(1)` until a scan or the `n`-th
//!   delta forces one `O(n)` copy; an `O(1)` update is one allocation,
//!   a state node that owns the delta states it extends, so a chain of
//!   them is retired once, as a unit. A scan clones one `Arc`, and the
//!   first scan of a delta state builds and caches its vector.
//!   [`snapshot::CoarseSnapshot`] is the lock-based reference;
//!   [`snapshot::WaitFreeSnapshot`] is the Afek et al. construction
//!   from single-writer registers, the one the paper's unit-cost
//!   accounting abstracts away.
//! * [`max_register::LockFreeMaxRegister`] — max register with a
//!   combining announce-array fast path for small values (concurrent
//!   writers collapse into `O(1)` amortized CAS traffic) and a
//!   compare-exchange publication path for the rest;
//!   [`max_register::LockMaxRegister`] is the lock-based
//!   reference and [`max_register::TreeMaxRegister`] the switch-trie
//!   construction from monotone circuits (footnote 1's object, built
//!   from plain bits).
//! * [`memory::AtomicMemory`] + [`runtime::run_threads`] — instantiate a
//!   protocol's [`Layout`](sift_sim::Layout) over these objects (each
//!   built on its first touch) and run its participants on threads. `AtomicMemory` uses the lock-free
//!   objects; building with the `coarse-substrate` feature switches it
//!   to the lock-based references for differential testing.
//! * [`runtime::run_lockstep_on`] / [`runtime::run_script_on`] — the
//!   same participants driven single-threaded in a fixed slot order
//!   through [`sift_sim::drive`], the simulator's sequential driver.
//!
//! Statistical claims are measured on the simulator, where the adversary
//! is controlled; this crate shows the algorithms running on real
//! atomics and provides the substrate for wall-clock benches.
//!
//! All `unsafe` in the crate lives in two audited leaf modules: the
//! private `lockfree` module (pointer publication with reader-gated
//! reclamation, plus the inline seqlock cells' bitwise payload
//! encoding) and the tiny [`affinity`] module (one raw
//! `sched_setaffinity` syscall for bench core pinning); everything
//! else forbids it.
//!
//! Building with the `obs` feature turns on the [`obs`] module's
//! contention counters and per-op latency histograms; without it every
//! recording hook is an empty inline stub.

#![warn(missing_docs)]
#![deny(unsafe_code)]

#[allow(unsafe_code)]
pub mod affinity;
pub mod history;
#[allow(unsafe_code)]
mod lockfree;
pub mod max_register;
pub mod memory;
pub mod obs;
pub mod register;
pub mod runtime;
pub mod snapshot;
pub mod sync;

pub use history::{history_fingerprint, RecordingMemory};
pub use memory::{AtomicMemory, CoarseMemory, ExecuteOps, LockFreeMemory, ObjectMemory};
pub use runtime::{
    run_lockstep, run_lockstep_on, run_lockstep_recorded, run_script_on, run_threads,
    run_threads_recorded, ThreadReport,
};
