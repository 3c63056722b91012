//! Thread-safe shared memory mirroring a simulator [`Layout`].
//!
//! [`ObjectMemory`] assembles any trio of object implementations
//! ([`SharedRegister`], [`SharedSnapshot`], [`SharedMaxRegister`]) into
//! an [`Op`]-executing memory. Two assemblies are named:
//!
//! * [`LockFreeMemory`] — the lock-free objects
//!   ([`LockFreeRegister`], [`LockFreeSnapshot`],
//!   [`LockFreeMaxRegister`]); registers and max registers holding
//!   small `Copy`-like payloads take allocation-free inline fast
//!   paths (seqlock cells and a combining announce array) instead of
//!   pointer publication;
//! * [`CoarseMemory`] — the lock-based references ([`LockRegister`],
//!   [`CoarseSnapshot`], [`LockMaxRegister`]).
//!
//! [`AtomicMemory`] — the alias the runtime and every protocol harness
//! use — is `LockFreeMemory` by default and `CoarseMemory` when the
//! crate is built with the `coarse-substrate` feature, so the whole
//! test suite doubles as a differential test between the two
//! substrates.
//!
//! Objects are built on first touch. A layout often declares far more
//! objects than a run uses (the service's consensus stack allocates
//! four phases, and most decisions end in the first), so construction
//! only sizes one pointer per object. The first operation on an object
//! builds it and installs it with a compare-exchange from null; racing
//! first operations each build one, every loser drops its copy and uses
//! the winner's, and nobody waits, so memory stays lock-free.

use sift_sim::{Layout, MaxRegisterId, Op, OpResult, RegisterId, ScanView, SnapshotId, Value};

use crate::lockfree::OnceArc;
use crate::max_register::{LockFreeMaxRegister, LockMaxRegister};
use crate::register::{LockFreeRegister, LockRegister};
use crate::snapshot::{CoarseSnapshot, LockFreeSnapshot};

/// A linearizable MWMR register usable from any thread.
pub trait SharedRegister<V: Value>: Send + Sync {
    /// Creates a register holding ⊥.
    fn new() -> Self;
    /// Reads the register (`None` is ⊥).
    fn read(&self) -> Option<V>;
    /// Writes `value`.
    fn write(&self, value: V);
}

/// A linearizable snapshot object usable from any thread.
pub trait SharedSnapshot<V: Value>: Send + Sync {
    /// Creates a snapshot object with `components` components, all ⊥.
    fn new(components: usize) -> Self;
    /// Atomically replaces one component.
    fn update(&self, component: usize, value: V);
    /// Returns an atomic view of all components.
    fn scan(&self) -> ScanView<V>;
}

/// A linearizable max register usable from any thread.
pub trait SharedMaxRegister<V: Value>: Send + Sync {
    /// Creates an empty max register.
    fn new() -> Self;
    /// Reads the current maximum entry.
    fn read(&self) -> Option<(u64, V)>;
    /// Writes `(key, value)`, kept only if `key` exceeds the current
    /// maximum.
    fn write(&self, key: u64, value: V);
}

macro_rules! impl_shared_register {
    ($ty:ident) => {
        impl<V: Value> SharedRegister<V> for $ty<V> {
            fn new() -> Self {
                $ty::new()
            }
            fn read(&self) -> Option<V> {
                $ty::read(self)
            }
            fn write(&self, value: V) {
                $ty::write(self, value)
            }
        }
    };
}

impl_shared_register!(LockRegister);
impl_shared_register!(LockFreeRegister);

macro_rules! impl_shared_snapshot {
    ($ty:ident) => {
        impl<V: Value> SharedSnapshot<V> for $ty<V> {
            fn new(components: usize) -> Self {
                $ty::new(components)
            }
            fn update(&self, component: usize, value: V) {
                $ty::update(self, component, value)
            }
            fn scan(&self) -> ScanView<V> {
                $ty::scan(self)
            }
        }
    };
}

impl_shared_snapshot!(CoarseSnapshot);
impl_shared_snapshot!(LockFreeSnapshot);

macro_rules! impl_shared_max_register {
    ($ty:ident) => {
        impl<V: Value> SharedMaxRegister<V> for $ty<V> {
            fn new() -> Self {
                $ty::new()
            }
            fn read(&self) -> Option<(u64, V)> {
                $ty::read(self)
            }
            fn write(&self, key: u64, value: V) {
                $ty::write(self, key, value)
            }
        }
    };
}

impl_shared_max_register!(LockMaxRegister);
impl_shared_max_register!(LockFreeMaxRegister);

/// Anything that can execute the model's [`Op`]s against shared state.
///
/// Implemented by every memory assembly here and by
/// [`RecordingMemory`](crate::history::RecordingMemory), which wraps
/// one of them and records a timestamped history.
pub trait ExecuteOps<V: Value>: Send + Sync {
    /// Executes one operation atomically.
    fn execute(&self, op: Op<V>) -> OpResult<V>;
}

/// Shared memory for real threads, instantiated from the same
/// [`Layout`] a protocol declares for the simulator — so a protocol
/// written once runs on both runtimes unchanged.
///
/// Generic over the three object implementations; use the
/// [`AtomicMemory`] alias unless you are explicitly pinning a
/// substrate (as the differential tests and benches do via
/// [`LockFreeMemory`] / [`CoarseMemory`]).
///
/// All objects are linearizable; operations take `&self` and are safe to
/// call from any number of threads.
///
/// # Examples
///
/// ```
/// use sift_shmem::memory::AtomicMemory;
/// use sift_sim::{LayoutBuilder, Op};
///
/// let mut b = LayoutBuilder::new();
/// let r = b.register();
/// let mem: AtomicMemory<u32> = AtomicMemory::new(&b.build());
/// mem.execute(Op::RegisterWrite(r, 9)).expect_ack();
/// assert_eq!(mem.execute(Op::RegisterRead(r)).expect_register(), Some(9));
/// ```
#[derive(Debug)]
pub struct ObjectMemory<V, R, S, M>
where
    V: Value,
    R: SharedRegister<V>,
    S: SharedSnapshot<V>,
    M: SharedMaxRegister<V>,
{
    registers: Vec<OnceArc<R>>,
    /// Each snapshot with its component count.
    snapshots: Vec<(usize, OnceArc<S>)>,
    max_registers: Vec<OnceArc<M>>,
    _marker: std::marker::PhantomData<V>,
}

/// Memory assembled from the lock-free objects.
pub type LockFreeMemory<V> =
    ObjectMemory<V, LockFreeRegister<V>, LockFreeSnapshot<V>, LockFreeMaxRegister<V>>;

/// Memory assembled from the lock-based reference objects.
pub type CoarseMemory<V> = ObjectMemory<V, LockRegister<V>, CoarseSnapshot<V>, LockMaxRegister<V>>;

/// The substrate the runtime uses: [`LockFreeMemory`] by default,
/// [`CoarseMemory`] under the `coarse-substrate` feature.
#[cfg(not(feature = "coarse-substrate"))]
pub type AtomicMemory<V> = LockFreeMemory<V>;

/// The substrate the runtime uses: [`LockFreeMemory`] by default,
/// [`CoarseMemory`] under the `coarse-substrate` feature.
#[cfg(feature = "coarse-substrate")]
pub type AtomicMemory<V> = CoarseMemory<V>;

impl<V, R, S, M> ObjectMemory<V, R, S, M>
where
    V: Value,
    R: SharedRegister<V>,
    S: SharedSnapshot<V>,
    M: SharedMaxRegister<V>,
{
    /// Instantiates thread-safe memory for `layout`. Objects are built
    /// on first touch; until then each costs one null pointer.
    pub fn new(layout: &Layout) -> Self {
        Self {
            registers: (0..layout.register_count())
                .map(|_| OnceArc::new())
                .collect(),
            snapshots: layout
                .snapshot_components()
                .iter()
                .map(|&c| (c, OnceArc::new()))
                .collect(),
            max_registers: (0..layout.max_register_count())
                .map(|_| OnceArc::new())
                .collect(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Executes one operation atomically.
    ///
    /// # Panics
    ///
    /// Panics if an object id is out of range for the layout.
    pub fn execute(&self, op: Op<V>) -> OpResult<V> {
        #[cfg(feature = "obs")]
        let (kind, start) = (op.kind(), std::time::Instant::now());
        #[cfg(feature = "obs")]
        let _latency = crate::obs::LatencyRecorder { kind, start };
        match op {
            Op::RegisterRead(id) => OpResult::RegisterValue(self.register(id).read()),
            Op::RegisterWrite(id, v) => {
                self.register(id).write(v);
                OpResult::Ack
            }
            Op::SnapshotUpdate(id, component, v) => {
                self.snapshot(id).update(component, v);
                OpResult::Ack
            }
            Op::SnapshotScan(id) => OpResult::SnapshotView(self.snapshot(id).scan()),
            Op::MaxRead(id) => OpResult::MaxValue(self.max_register(id).read()),
            Op::MaxWrite(id, key, v) => {
                self.max_register(id).write(key, v);
                OpResult::Ack
            }
        }
    }

    fn register(&self, id: RegisterId) -> &R {
        self.registers[id.index()].get_or_init(R::new)
    }

    fn snapshot(&self, id: SnapshotId) -> &S {
        let (components, cell) = &self.snapshots[id.index()];
        cell.get_or_init(|| S::new(*components))
    }

    fn max_register(&self, id: MaxRegisterId) -> &M {
        self.max_registers[id.index()].get_or_init(M::new)
    }
}

impl<V, R, S, M> ExecuteOps<V> for ObjectMemory<V, R, S, M>
where
    V: Value,
    R: SharedRegister<V>,
    S: SharedSnapshot<V>,
    M: SharedMaxRegister<V>,
{
    fn execute(&self, op: Op<V>) -> OpResult<V> {
        ObjectMemory::execute(self, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_sim::LayoutBuilder;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};

    fn exercise<Mem: ExecuteOps<u32>>(mem: &Mem, layout: (RegisterId, SnapshotId, MaxRegisterId)) {
        let (r, s, m) = layout;
        mem.execute(Op::RegisterWrite(r, 1)).expect_ack();
        assert_eq!(mem.execute(Op::RegisterRead(r)).expect_register(), Some(1));

        mem.execute(Op::SnapshotUpdate(s, 2, 5)).expect_ack();
        let view = mem.execute(Op::SnapshotScan(s)).expect_view();
        assert_eq!(view[2], Some(5));

        mem.execute(Op::MaxWrite(m, 9, 90)).expect_ack();
        mem.execute(Op::MaxWrite(m, 3, 30)).expect_ack();
        assert_eq!(mem.execute(Op::MaxRead(m)).expect_max(), Some((9, 90)));
    }

    #[test]
    fn both_substrates_mirror_layout_objects() {
        let mut b = LayoutBuilder::new();
        let r = b.register();
        let s = b.snapshot(4);
        let m = b.max_register();
        let layout = b.build();

        let lock_free: LockFreeMemory<u32> = LockFreeMemory::new(&layout);
        exercise(&lock_free, (r, s, m));
        let coarse: CoarseMemory<u32> = CoarseMemory::new(&layout);
        exercise(&coarse, (r, s, m));
    }

    /// Constructions and live instances of [`Counting`] snapshots, one
    /// pair per test (`ID`), so parallel tests do not share counters.
    static BUILT: [AtomicUsize; 2] = [const { AtomicUsize::new(0) }; 2];
    static LIVE: [AtomicUsize; 2] = [const { AtomicUsize::new(0) }; 2];

    /// A lock-free snapshot that counts its constructions and drops.
    #[derive(Debug)]
    struct Counting<const ID: usize>(LockFreeSnapshot<u32>);

    impl<const ID: usize> SharedSnapshot<u32> for Counting<ID> {
        fn new(components: usize) -> Self {
            BUILT[ID].fetch_add(1, Ordering::SeqCst);
            LIVE[ID].fetch_add(1, Ordering::SeqCst);
            Self(LockFreeSnapshot::new(components))
        }
        fn update(&self, component: usize, value: u32) {
            self.0.update(component, value)
        }
        fn scan(&self) -> ScanView<u32> {
            self.0.scan()
        }
    }

    impl<const ID: usize> Drop for Counting<ID> {
        fn drop(&mut self) {
            LIVE[ID].fetch_sub(1, Ordering::SeqCst);
        }
    }

    type CountingMemory<const ID: usize> =
        ObjectMemory<u32, LockFreeRegister<u32>, Counting<ID>, LockFreeMaxRegister<u32>>;

    #[test]
    fn untouched_objects_are_never_built() {
        let mut b = LayoutBuilder::new();
        let snapshots = b.snapshots(5, 3);
        let layout = b.build();
        let mem: CountingMemory<0> = ObjectMemory::new(&layout);
        assert_eq!(
            BUILT[0].load(Ordering::SeqCst),
            0,
            "construction builds nothing"
        );
        mem.execute(Op::SnapshotUpdate(snapshots[2], 1, 7))
            .expect_ack();
        for _ in 0..3 {
            let view = mem.execute(Op::SnapshotScan(snapshots[2])).expect_view();
            assert_eq!(&view[..], &[None, Some(7), None]);
        }
        assert_eq!(BUILT[0].load(Ordering::SeqCst), 1, "one touched, one built");
        drop(mem);
        assert_eq!(LIVE[0].load(Ordering::SeqCst), 0);
    }

    #[test]
    fn racing_first_touches_leave_one_object() {
        const THREADS: usize = 4;
        let mut b = LayoutBuilder::new();
        let s = b.snapshot(THREADS);
        let mem: Arc<CountingMemory<1>> = Arc::new(ObjectMemory::new(&b.build()));
        let start = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (mem, start) = (Arc::clone(&mem), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    mem.execute(Op::SnapshotUpdate(s, t, t as u32)).expect_ack();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let built = BUILT[1].load(Ordering::SeqCst);
        assert!((1..=THREADS).contains(&built), "built {built}");
        assert_eq!(LIVE[1].load(Ordering::SeqCst), 1, "losers drop their copy");
        // Every racer's update landed on the one installed object.
        let view = mem.execute(Op::SnapshotScan(s)).expect_view();
        assert_eq!(&view[..], &[Some(0), Some(1), Some(2), Some(3)]);
        drop(mem);
        assert_eq!(LIVE[1].load(Ordering::SeqCst), 0);
    }

    #[test]
    fn empty_layout_is_fine() {
        let mem: AtomicMemory<u32> = AtomicMemory::new(&LayoutBuilder::new().build());
        let _ = mem;
    }
}
