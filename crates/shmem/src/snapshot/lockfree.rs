//! Lock-free snapshot via versioned delta publication with a
//! scan-built, cached view.
//!
//! The whole object state lives behind **one** publication [`Slot`]
//! holding an immutable [`State`]: a monotone version number, the
//! component vector of its nearest *flat* ancestor (`base`) and, for a
//! *delta state*, the one update `(component, value)` it made to its
//! predecessor. A flat state has no update: `base` is its component
//! vector. A delta state whose predecessor was a delta state too owns
//! that predecessor (its node's owning link, see
//! [`Slot::try_publish`]), so the delta states since the last flat one
//! form a chain, newest first, headed by the published state.
//!
//! * **update** publishes a successor state with a compare-exchange,
//!   rebuilding it from the freshest state on every conflict in the
//!   same allocation. Usually the successor is a delta state: the same
//!   `base` and the update moved into the state node — `O(1)`, one
//!   allocation, no value clone, whatever the component count. The
//!   update copies the whole vector eagerly (`O(n)`, a new flat state)
//!   in two cases only: the current state has already been scanned
//!   (scanners are active, and a flat successor spares their next
//!   scans a build), or the chain would reach the component count
//!   (which bounds both the walk a build pays and the memory a chain
//!   retains to `O(n)`).
//! * **scan** of a flat state is one guarded load plus one `Arc`
//!   refcount increment of `base`. A delta state is materialized once:
//!   its first scan copies `base`, applies the chain's updates oldest
//!   first, and installs the vector in the state's set-once
//!   [`OnceArc`] cell with a compare-exchange from null. Later scans
//!   clone the cached `Arc`. Racing first scans each build a copy; the
//!   losers drop theirs and return the winner's, so no scan ever
//!   waits. Every scan also sets the state's `scanned` flag (a store
//!   only if it was clear), which is how the next update knows
//!   scanners are active.
//!
//! Cost model: the paper analyses its protocols in the unit-cost
//! snapshot model, where an update is one cheap step. Delta
//! publication gets close to that under the access pattern the
//! sequential driver produces. In a lockstep wave, all `n` processes
//! update one object, then all `n` scan it. A wave then costs at most
//! two `O(n)` copies instead of `n`: the eager copy, if the wave starts
//! from a scanned state, and either the fold at the `n`-th update or
//! the first scan's build. Under free-running threads that alternate
//! updates and scans, every state is scanned before the next update,
//! so every update copies eagerly and every state is flat: one `O(n)`
//! copy per update, as with plain copy-on-write.
//!
//! # Why not an optimistic double collect?
//!
//! The classic alternative keeps one slot per component (updates are
//! then `O(1)`) and has scans retry a collect of all `n` pointers until
//! two consecutive collects agree, escalating to updater *helping*
//! under interference — [`WaitFreeSnapshot`](super::WaitFreeSnapshot)
//! is exactly that construction and remains in the crate as the
//! theory-faithful reference. As a *performance* substrate it is the
//! wrong trade: with 8 threads mixing scans and updates, the aggregate
//! update inter-arrival time drops to roughly the duration of a single
//! collect, so clean double collects become vanishingly rare and every
//! scan pays the helping path (measured: 7–12× *slower* than the
//! lock-based [`CoarseSnapshot`](super::CoarseSnapshot) at 1-in-8
//! writes). Single-pointer publication keeps every scan an atomic
//! observation of one immutable state, so scan latency never depends
//! on update traffic.
//!
//! Memory reclamation (displaced states, and the ABA-safety of the
//! pointer CAS) is inherited from the [`Pile`] reader gates — see the
//! [`lockfree`](crate::lockfree) module docs. A delta state displaced
//! by another delta state is not retired: its successor adopts it. The
//! whole chain is retired once, when a flat state displaces its newest
//! node, with a stamp drawn after every node of the chain was unlinked,
//! so the reader gates cover each node as they cover a single state.
//! Bases and cached views are reference-counted, so a retired state
//! keeps exactly the parts its successors still share.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::lockfree::{Candidate, Loaded, OnceArc, Pile, Slot};

use sift_sim::{ScanView, Value};

/// One immutable published state: the version is the number of updates
/// that ever succeeded; the components are `base` with the updates of
/// this state and its chain of older delta states applied oldest first.
#[derive(Debug)]
struct State<V> {
    version: u64,
    /// The components of the nearest flat ancestor (of this state
    /// itself when `update` is `None`).
    base: Arc<Vec<Option<V>>>,
    /// The update a delta state made to its predecessor; `None` for a
    /// flat state. A delta state's node owns its predecessor when that
    /// was a delta state too, so the chain of delta states is retired
    /// as one unit, by the flat state that displaces its newest node.
    update: Option<(usize, V)>,
    /// Delta states since `base`: the length of the chain this state
    /// heads.
    depth: usize,
    /// Set by the first scan. Only a hint for the next update's copy
    /// policy, so `Relaxed`: it publishes no data.
    scanned: AtomicBool,
    /// The components of a delta state, built once by its first scan.
    /// Never filled for a flat state.
    view: OnceArc<Vec<Option<V>>>,
}

impl<V: Value> State<V> {
    fn flat(version: u64, components: Vec<Option<V>>) -> Self {
        Self::new(version, Arc::new(components), None, 0)
    }

    fn new(
        version: u64,
        base: Arc<Vec<Option<V>>>,
        update: Option<(usize, V)>,
        depth: usize,
    ) -> Self {
        Self {
            version,
            base,
            update,
            depth,
            scanned: AtomicBool::new(false),
            view: OnceArc::new(),
        }
    }

    /// The components of the state `head` loaded with `component`
    /// replaced by `value`: the vector an eager update publishes. Each
    /// component is cloned once, the replaced one not at all, unless
    /// the chain's updates still have to be applied.
    fn with_component(head: Loaded<'_, Self>, component: usize, value: V) -> Vec<Option<V>> {
        let state = head.get().expect("a loaded state");
        let components = match (&state.update, state.view.get()) {
            (None, _) => &state.base,
            (Some(_), Some(view)) => view,
            (Some(_), None) => {
                let mut components = Self::build(head);
                components[component] = Some(value);
                return components;
            }
        };
        let mut out = Vec::with_capacity(components.len());
        out.extend_from_slice(&components[..component]);
        out.push(Some(value));
        out.extend_from_slice(&components[component + 1..]);
        out
    }

    /// The components of the state `head` loaded, built from `base`
    /// with the updates of its chain applied oldest first.
    fn build(head: Loaded<'_, Self>) -> Vec<Option<V>> {
        let state = head.get().expect("a loaded state");
        let mut components = Vec::clone(&state.base);
        let mut newest_first = Vec::with_capacity(state.depth);
        let mut link = head;
        while let Some(state) = link.get() {
            newest_first.extend(&state.update);
            link = link.older();
        }
        for (component, value) in newest_first.into_iter().rev() {
            components[*component] = Some(value.clone());
        }
        components
    }

    /// The first scan of the delta state `head` loaded: builds its
    /// components and installs them as the cached view (or adopts the
    /// view a racing scan installed first).
    #[cold]
    #[inline(never)]
    fn materialize(head: Loaded<'_, Self>) -> Arc<Vec<Option<V>>> {
        crate::obs::note_snapshot_rebuild();
        let view = &head.get().expect("a loaded state").view;
        view.set(Arc::new(Self::build(head)))
    }

    /// Takes back the value an unpublished candidate was built around,
    /// so the next attempt can move it into its rebuilt candidate.
    fn take_value(&mut self, component: usize) -> V {
        match self.update.take() {
            Some((_, value)) => value,
            None => Arc::get_mut(&mut self.base)
                .and_then(|components| components[component].take())
                .expect("an unpublished flat candidate owns its vector"),
        }
    }
}

/// A lock-free linearizable snapshot object.
///
/// See the [module docs](self) for the algorithm and the comparison
/// with [`CoarseSnapshot`](super::CoarseSnapshot) (the lock-based
/// reference implementation, selected by the `coarse-substrate`
/// feature).
///
/// Linearization points:
///
/// * *update* — its successful compare-exchange on the root pointer:
///   the published state contains every earlier update (the candidate
///   was built from the pointer the CAS then displaced, whether as a
///   delta state extending it or as a full copy of it) and becomes
///   visible to every later load atomically. Failed attempts publish
///   nothing: the candidate is rebuilt from the state that won;
/// * *scan* — its root pointer load: the returned view is the complete
///   component vector of the state loaded. A cached view is a pure
///   function of that immutable state, so it does not matter which
///   scan installed it, or when.
///
/// Because the root pointer is the entire object, linearizability is
/// immediate — the operations literally execute in the order of their
/// atomic accesses to one location.
///
/// # Examples
///
/// ```
/// use sift_shmem::snapshot::LockFreeSnapshot;
/// let snap: LockFreeSnapshot<u32> = LockFreeSnapshot::new(3);
/// snap.update(1, 7);
/// let view = snap.scan();
/// assert_eq!(&view[..], &[None, Some(7), None]);
/// ```
#[derive(Debug)]
pub struct LockFreeSnapshot<V: Value> {
    root: Slot<State<V>>,
    pile: Pile<State<V>>,
    /// Component count, cached so `len` needs no guard.
    components: usize,
}

impl<V: Value> LockFreeSnapshot<V> {
    /// Creates a snapshot object with `components` components, all ⊥.
    pub fn new(components: usize) -> Self {
        let snap = Self {
            root: Slot::new(),
            pile: Pile::new(),
            components,
        };
        snap.root
            .store(State::flat(0, vec![None; components]), &snap.pile);
        snap
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components
    }

    /// Returns `true` if the object has no components.
    pub fn is_empty(&self) -> bool {
        self.components == 0
    }

    /// Atomically replaces component `component` with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `component` is out of range.
    pub fn update(&self, component: usize, mut value: V) {
        assert!(
            component < self.components,
            "component {component} out of range for {}-component snapshot",
            self.components
        );
        let guard = self.pile.enter();
        let mut current = self.root.load_current(&guard);
        let mut full_copy = false;
        let mut spare: Option<Candidate<State<V>>> = None;
        let mut attempts = 0u32;
        loop {
            let cur = current
                .get()
                .expect("root state is published at construction");
            let version = cur.version + 1;
            // Sticky across retries: a conflict means the state this
            // update found scanned was displaced by another writer's,
            // not that its scanners went away.
            full_copy |= cur.scanned.load(Ordering::Relaxed) || cur.depth + 1 >= self.components;
            let state = if full_copy {
                State::flat(version, State::with_component(current, component, value))
            } else {
                State::new(
                    version,
                    Arc::clone(&cur.base),
                    Some((component, value)),
                    cur.depth + 1,
                )
            };
            let candidate = match spare.take() {
                Some(mut candidate) => {
                    *candidate.get_mut() = state;
                    candidate
                }
                None => Candidate::new(state),
            };
            // A delta state on a delta state extends its chain; anything
            // else retires the displaced state (and the chain it heads).
            let adopt = !full_copy && cur.update.is_some();
            match self.root.try_publish(current, candidate, adopt, &self.pile) {
                Ok(()) => break,
                Err((mut lost, now)) => {
                    value = lost.get_mut().take_value(component);
                    spare = Some(lost);
                    current = now;
                    // Bounded backoff: under a write burst, each failed
                    // CAS costs a rebuild (an `O(n)` copy on the eager
                    // path), so a short pause that lets the winner
                    // finish is much cheaper than re-colliding at once.
                    for _ in 0..(1u32 << attempts.min(6)) {
                        std::hint::spin_loop();
                    }
                    attempts += 1;
                }
            }
        }
        if full_copy {
            crate::obs::note_snapshot_full_copy();
        } else {
            crate::obs::note_snapshot_delta();
        }
    }

    /// Atomically scans the object, with no retry loop whatever the
    /// concurrent update traffic: `O(1)`, except that the first scan of
    /// a delta state builds its vector (`O(n)`) once.
    pub fn scan(&self) -> ScanView<V> {
        let guard = self.pile.enter();
        let current = self.root.load_current(&guard);
        let state = current
            .get()
            .expect("root state is published at construction");
        if !state.scanned.load(Ordering::Relaxed) {
            state.scanned.store(true, Ordering::Relaxed);
        }
        if state.update.is_none() {
            return ScanView::from_arc(Arc::clone(&state.base));
        }
        ScanView::from_arc(
            state
                .view
                .get_arc()
                .unwrap_or_else(|| State::materialize(current)),
        )
    }

    /// The number of updates that have linearized so far.
    pub fn version(&self) -> u64 {
        let guard = self.pile.enter();
        self.root
            .load(&guard)
            .expect("root state is published at construction")
            .version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicIsize;
    use std::sync::Barrier;

    #[test]
    fn empty_scan_is_all_bottom() {
        let snap: LockFreeSnapshot<u32> = LockFreeSnapshot::new(4);
        assert_eq!(snap.len(), 4);
        assert!(!snap.is_empty());
        assert_eq!(snap.version(), 0);
        let view = snap.scan();
        assert_eq!(&view[..], &[None, None, None, None]);
    }

    #[test]
    fn update_then_scan_round_trip() {
        let snap = LockFreeSnapshot::new(3);
        snap.update(0, 10u64);
        snap.update(2, 30);
        let view = snap.scan();
        assert_eq!(&view[..], &[Some(10), None, Some(30)]);
        snap.update(0, 11);
        assert_eq!(&snap.scan()[..], &[Some(11), None, Some(30)]);
        assert_eq!(snap.version(), 3);
    }

    #[test]
    fn quiescent_scans_share_one_vector() {
        let snap = LockFreeSnapshot::new(2);
        snap.update(0, 1u32);
        let first = snap.scan();
        let second = snap.scan();
        assert!(
            Arc::ptr_eq(first.as_arc(), second.as_arc()),
            "scans of an unchanged state must share the published vector"
        );
        snap.update(1, 2);
        let third = snap.scan();
        assert!(!Arc::ptr_eq(first.as_arc(), third.as_arc()));
        // The earlier view is immutable even after the update.
        assert_eq!(&first[..], &[Some(1), None]);
    }

    #[test]
    fn scans_after_a_burst_share_one_vector() {
        // A lockstep wave: every process updates, then every process
        // scans. A full burst folds at the depth cap into a flat state;
        // a partial one leaves a delta state the first scan caches.
        const N: usize = 64;
        for burst in [N, N / 2, 1] {
            let snap = LockFreeSnapshot::new(N);
            for c in 0..burst {
                snap.update(c, c as u64);
            }
            let first = snap.scan();
            for _ in 1..N {
                let view = snap.scan();
                assert!(
                    Arc::ptr_eq(first.as_arc(), view.as_arc()),
                    "burst {burst}: every scan of one state shares one vector"
                );
            }
            let expected: Vec<_> = (0..N).map(|c| (c < burst).then_some(c as u64)).collect();
            assert_eq!(&first[..], &expected[..], "burst {burst}");
        }
    }

    #[test]
    fn delta_lists_fold_and_repeat_components() {
        // Repeated writes to one component inside a delta chain must
        // resolve to the newest; folds at the depth cap must keep
        // everything.
        let snap = LockFreeSnapshot::new(4);
        let mut model = [None; 4];
        for k in 0..40u64 {
            let c = (k * 7 % 5 % 4) as usize;
            snap.update(c, k);
            model[c] = Some(k);
            if k % 3 == 0 {
                assert_eq!(&snap.scan()[..], &model[..], "after update {k}");
            }
        }
        assert_eq!(&snap.scan()[..], &model[..]);
        assert_eq!(snap.version(), 40);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_out_of_range_panics() {
        let snap = LockFreeSnapshot::new(2);
        snap.update(2, 1u32);
    }

    #[test]
    fn version_counts_every_successful_update() {
        let snap = Arc::new(LockFreeSnapshot::new(4));
        let handles: Vec<_> = (0..4usize)
            .map(|c| {
                let snap = Arc::clone(&snap);
                std::thread::spawn(move || {
                    for k in 0..250u64 {
                        snap.update(c, k);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // No update may be lost to a CAS conflict.
        assert_eq!(snap.version(), 4 * 250);
        assert_eq!(&snap.scan()[..], &[Some(249); 4]);
    }

    #[test]
    fn concurrent_scans_never_observe_regressions() {
        // Single writer per component; each writes an increasing
        // counter. Any atomic view must be component-wise monotone
        // w.r.t. previously observed views.
        let snap = Arc::new(LockFreeSnapshot::new(4));
        let writers: Vec<_> = (0..4usize)
            .map(|c| {
                let snap = Arc::clone(&snap);
                std::thread::spawn(move || {
                    for k in 0..400u64 {
                        snap.update(c, k);
                    }
                })
            })
            .collect();
        let scanners: Vec<_> = (0..4)
            .map(|_| {
                let snap = Arc::clone(&snap);
                std::thread::spawn(move || {
                    let mut seen = [None::<u64>; 4];
                    for _ in 0..400 {
                        let view = snap.scan();
                        for (c, slot) in view.iter().enumerate() {
                            match (seen[c], *slot) {
                                (Some(old), None) => {
                                    panic!("component {c} regressed from {old} to ⊥")
                                }
                                (Some(old), Some(new)) => {
                                    assert!(new >= old, "component {c}: {old} -> {new}");
                                    seen[c] = Some(new);
                                }
                                (None, new) => seen[c] = new,
                            }
                        }
                    }
                })
            })
            .collect();
        for h in writers.into_iter().chain(scanners) {
            h.join().unwrap();
        }
        assert_eq!(&snap.scan()[..], &[Some(399); 4]);
    }

    #[test]
    fn drop_counts_are_exact_under_bursts_folds_and_scan_races() {
        // Every value the object creates or clones must be dropped
        // exactly once: `live` counts constructions plus clones minus
        // drops, so a leak leaves it positive and a double drop drives
        // it negative.
        #[derive(Debug)]
        struct Counted(Arc<AtomicIsize>);
        impl Counted {
            fn new(live: &Arc<AtomicIsize>) -> Self {
                live.fetch_add(1, Ordering::SeqCst);
                Counted(Arc::clone(live))
            }
        }
        impl Clone for Counted {
            fn clone(&self) -> Self {
                Counted::new(&self.0)
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }

        const N: usize = 8;
        let live = Arc::new(AtomicIsize::new(0));
        let mut kept = Vec::new();
        {
            let snap = Arc::new(LockFreeSnapshot::new(N));
            // Sequential bursts of every length up to past the depth
            // cap, each followed by a scan: delta states, cached
            // views, eager copies of scanned states and folds.
            for burst in 1..=2 * N {
                for k in 0..burst {
                    snap.update(k % N, Counted::new(&live));
                }
                kept.push(snap.scan());
            }
            // Racing first scans: in each round one thread publishes a
            // short burst (leaving a delta state), then one barrier
            // releases all threads to scan it at once. Whichever scan
            // installs the view, all of them must return it.
            const THREADS: usize = 4;
            let barrier = Arc::new(Barrier::new(THREADS));
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (snap, live) = (Arc::clone(&snap), Arc::clone(&live));
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        let mut views = Vec::new();
                        for round in 0..100usize {
                            if t == 0 {
                                for k in 0..2 + round % (N - 2) {
                                    snap.update(k, Counted::new(&live));
                                }
                            }
                            barrier.wait();
                            views.push(snap.scan());
                            barrier.wait();
                        }
                        views
                    })
                })
                .collect();
            let raced: Vec<Vec<_>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for round in 0..100 {
                assert!(
                    raced
                        .iter()
                        .all(|views| Arc::ptr_eq(views[round].as_arc(), raced[0][round].as_arc())),
                    "round {round}: racing scans of one state share one vector"
                );
            }
            kept.extend(raced.into_iter().flatten());
            // Free-running bursts and scans: CAS conflicts on both the
            // delta and the eager path, folds, and unforced scan races.
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (snap, live) = (Arc::clone(&snap), Arc::clone(&live));
                    std::thread::spawn(move || {
                        let mut views = Vec::new();
                        for round in 0..200usize {
                            for k in 0..(round + t) % (2 * N) {
                                snap.update((t + k) % N, Counted::new(&live));
                            }
                            let view = snap.scan();
                            if round % 50 == 0 {
                                views.push(view);
                            }
                        }
                        views
                    })
                })
                .collect();
            for h in handles {
                kept.extend(h.join().unwrap());
            }
            // Conflicting writers: all threads released at once into
            // unscanned bursts, so most updates race to extend one
            // delta chain and a lost candidate has linked (and must
            // not keep) the state that beat it.
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (snap, live) = (Arc::clone(&snap), Arc::clone(&live));
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        for _ in 0..100 {
                            barrier.wait();
                            for k in 0..N {
                                snap.update((t + k) % N, Counted::new(&live));
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            kept.push(snap.scan());
            assert!(live.load(Ordering::SeqCst) > 0);
            // Dropping the object frees the current state and every
            // retired one; the views kept outlive it.
        }
        assert!(kept.iter().all(|view| view.len() == N));
        drop(kept);
        assert_eq!(
            live.load(Ordering::SeqCst),
            0,
            "every created or cloned value dropped exactly once"
        );
    }

    #[test]
    fn long_unscanned_chains_drop_in_constant_stack() {
        // Every update but the fold is a delta state owning its
        // predecessor, so the object ends up heading a chain of
        // N - 1 states. Dropping it must not recurse once per link.
        const N: usize = 200_000;
        let snap = LockFreeSnapshot::new(N);
        for c in 0..N - 1 {
            snap.update(c, c as u64);
        }
        {
            let guard = snap.pile.enter();
            let state = snap.root.load(&guard).unwrap();
            assert_eq!(state.depth, N - 1, "one unbroken chain");
        }
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || drop(snap))
            .unwrap()
            .join()
            .expect("dropping a long chain overflowed a 256 KiB stack");
    }
}
