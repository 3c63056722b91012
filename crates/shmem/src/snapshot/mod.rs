//! Snapshot objects for real threads.
//!
//! Three implementations of the same linearizable scan/update interface:
//!
//! * [`LockFreeSnapshot`] — the whole state behind one lock-free
//!   publication cell. An update publishes an `O(1)` delta state
//!   (component, value, on top of its predecessor) with one
//!   compare-exchange, and copies the vector only when the current
//!   state was already scanned or its delta chain reached the component
//!   count. A scan is one load plus an `Arc` clone; the first scan of a
//!   delta state builds the vector once and caches it. What the runtime
//!   uses by default.
//! * [`CoarseSnapshot`] — a reader-writer lock around the component
//!   vector. Simple and obviously linearizable; kept as the reference
//!   implementation (the `coarse-substrate` feature switches the
//!   runtime back to it for differential testing and benchmarking).
//! * [`WaitFreeSnapshot`] — the classic Afek et al. construction from
//!   single-writer registers (double collect with embedded-scan
//!   helping). Built here to demonstrate that the model's snapshot
//!   object is implementable from registers alone; its operations cost
//!   `O(n)` register accesses, which is exactly the gap the paper's
//!   "unit-cost snapshot" accounting abstracts away (and which the
//!   simulator's `CostModel::RegisterImplemented` charges).

mod coarse;
mod lockfree;
mod waitfree;

pub use coarse::CoarseSnapshot;
pub use lockfree::LockFreeSnapshot;
pub use waitfree::WaitFreeSnapshot;
