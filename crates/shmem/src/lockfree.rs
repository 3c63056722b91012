//! Lock-free publication cells with reader-gated reclamation, plus the
//! allocation-free inline cells the small-payload register paths use.
//!
//! Everything lock-free in `sift-shmem` (registers, max registers,
//! snapshot states, the snapshot's cached scan views) is built from
//! the types here:
//!
//! * [`Slot<T>`] — an atomic pointer to an immutable heap node holding a
//!   `T` (null encodes ⊥). Writers publish with a single
//!   [`swap`](Slot::store), a [`compare_exchange`](Slot::publish_max)
//!   loop, or single copy-on-write attempts
//!   ([`try_publish`](Slot::try_publish)) that reuse one unpublished
//!   [`Candidate`] across retries; readers dereference under a
//!   [`ReadGuard`]. A node published with `adopt` owns the node it
//!   displaced, so a run of publications that each extend their
//!   predecessor (the snapshot's delta states) forms a *chain* that is
//!   retired once, as a unit. See "Chains" below.
//! * [`Pile<T>`] — the retire pile shared by the slots of one object:
//!   *striped* reader pins plus a Treiber stack of stamped retired
//!   nodes.
//! * [`OnceArc<T>`] — a set-once `Arc` cell filled by one
//!   compare-exchange from null (racing fillers never wait; losers drop
//!   their copy). The snapshot caches a materialized scan view in it.
//! * [`SeqCell<T>`] and [`CombiningMax<T>`] — inline seqlock cells for
//!   payloads that pass [`inline_ok`]: no allocation, no retirement, no
//!   guards. See the "Inline cells" section below.
//!
//! # Reclamation protocol (interval stamps)
//!
//! A node that is swapped out of a slot is *retired* onto the pile, not
//! freed: a concurrent reader may still hold a reference into it. The
//! pile decides what is safe to free with retire-sequence **stamps**
//! rather than by waiting for global quiescence (which, under sustained
//! read traffic from many threads, simply never occurs):
//!
//! 1. every retired node is stamped with a ticket from the pile's
//!    monotone retire sequence — assigned *after* the `SeqCst` swap
//!    that unlinked the node from its slot;
//! 2. a guard, on entry, **pins** a value the sequence has already
//!    reached (a read-mostly *epoch* copy, refreshed at reclaim time)
//!    into its stripe: each stripe packs an occupancy count with the
//!    minimum pin of its current occupants;
//! 3. the reclaimer (every [`RECLAIM_INTERVAL`]-th retire, and `Drop`)
//!    detaches the whole retire chain, reads all stripes, takes the
//!    minimum pin over the *occupied* ones, frees exactly the nodes
//!    stamped strictly below that minimum, and splices the survivors
//!    back.
//!
//! Soundness: every pointer publication, detach, stripe RMW, stripe
//! read and sequence access is `SeqCst`, so they share one total order
//! `S`. Suppose a reader `R` holds a reference into node `N`. `R`'s
//! slot load returned `N`, so that load precedes `N`'s unlink swap in
//! `S` (a later load returns a newer publication); `R`'s pin read
//! precedes its enter-CAS, which precedes the load; and `N`'s stamp is
//! drawn from the sequence *after* the unlink. Monotonicity then gives
//! `pin(R) ≤ seq-at-pin-read ≤ stamp(N)` (the pinned epoch never
//! exceeds the sequence). The reclaimer reads `R`'s stripe after the
//! detach; if `R`'s enter-CAS precedes that read in `S`, the stripe's
//! packed minimum is `≤ pin(R) ≤ stamp(N)` and `N` survives. If instead
//! `R` enters *after* the stripe read, then `R`'s slot load follows the
//! read, follows the detach, follows every unlink of every node in the
//! detached chain — so `R` cannot acquire `N` at all. Either way no
//! freed node is reachable. (Stripes are shared by design: later
//! entrants only lower the packed minimum, exits never raise it, and it
//! resets to a fresh pin only on an empty-to-occupied transition.)
//!
//! The pins are striped across [`STRIPES`] cache-line-padded words,
//! indexed by a per-thread id: a guard enter/exit is an (almost always
//! uncontended) RMW on the thread's own line, while the reclaimer —
//! which runs rarely — pays to read all stripes.
//!
//! All operations are lock-free: no step ever blocks on another
//! thread, a stalled reader only delays *reclamation of the nodes
//! retired after it pinned* (memory is freed later, never unsafely
//! early), and a stalled writer delays nobody. Unreclaimed memory is
//! bounded by the retires during the longest in-flight guard plus the
//! reclaim interval — crucially, steady read traffic does *not* stall
//! reclamation, because each fresh guard pins a fresh sequence value
//! and the occupied minimum keeps advancing. Everything still
//! unreclaimed is freed in `Drop`, when `&mut self` proves no reader
//! can exist.
//!
//! # Chains
//!
//! [`Slot::try_publish`] with `adopt` hands the displaced node to the
//! new one through the new node's owning `older` link instead of
//! retiring it. Each such publication extends a chain, newest first; a
//! publication without `adopt` retires the chain's newest node, and
//! with it the whole chain, with one stamp. That stamp is drawn after
//! the unlink of the newest node, which follows the unlink of every
//! older one, so for every node `N` of the chain `pin(R) ≤
//! stamp(chain)` holds for any reader `R` that can hold `N`: the
//! argument above applies to the chain as it does to a single node. A
//! reader that reaches an older node through the links ([`Loaded::older`])
//! holds the chain's newest node, which owns it. A candidate that loses
//! its CAS clears its link before it is handed back, so it never owns
//! the publication that beat it. A node frees the chain it owns in a
//! loop when it drops, not by recursion.

use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Reader-gate stripes per pile (power of two).
const STRIPES: usize = 16;

/// Retires between opportunistic reclamation attempts.
const RECLAIM_INTERVAL: u64 = 64;

/// Stripe word layout: low bits count the stripe's occupants, the rest
/// hold the minimum retire-sequence pin among them (meaningless while
/// the count is zero). 16 bits allow far more nested guards per stripe
/// than any realistic thread count; 48 stamp bits outlast any run.
const COUNT_MASK: u64 = (1 << STAMP_SHIFT) - 1;
const STAMP_SHIFT: u32 = 16;

/// One reader stripe (packed count + minimum pin), padded to its own
/// cache line pair so enter/exit RMWs from different threads never
/// false-share.
#[repr(align(128))]
#[derive(Debug)]
struct Stripe(AtomicU64);

/// The stripe this thread's guards use. Thread ids are handed out once
/// per thread from a global counter; with up to [`STRIPES`] live
/// threads every thread gets a private line.
fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) & (STRIPES - 1);
    }
    STRIPE.with(|s| *s)
}

/// An immutable published value plus the retire-chain link.
///
/// `value` is written once, before publication, and never mutated
/// afterwards; `next` is only touched while the node is exclusively
/// owned (before a retire push, or by the reclaimer after a detach).
pub(crate) struct Node<T: Send> {
    value: T,
    next: AtomicPtr<Node<T>>,
    /// Retire-sequence ticket, written at retirement. Atomic because
    /// readers may still hold `&Node` when the retirer writes it.
    stamp: AtomicU64,
    /// The node this one displaced, when it was published with `adopt`
    /// (see "Chains" in the module docs); null otherwise. Owning, and
    /// written only while the node is exclusively owned: before its
    /// publication, or when a lost candidate is handed back. Atomic so
    /// that readers walking a chain need no `unsafe` aliasing argument.
    older: AtomicPtr<Node<T>>,
    /// Nodes freed with this one: 1 plus the length of the chain it
    /// owns. Written before publication; feeds the retire and reclaim
    /// counters.
    #[cfg(feature = "obs")]
    nodes: u64,
}

impl<T: Send> Node<T> {
    fn new(value: T) -> Self {
        Node {
            value,
            next: AtomicPtr::new(ptr::null_mut()),
            stamp: AtomicU64::new(0),
            older: AtomicPtr::new(ptr::null_mut()),
            #[cfg(feature = "obs")]
            nodes: 1,
        }
    }

    fn boxed(value: T) -> *mut Node<T> {
        Box::into_raw(Box::new(Node::new(value)))
    }

    /// The node count the `nodes` field records (1 without `obs`).
    ///
    /// # Safety
    ///
    /// `node` must be live.
    unsafe fn node_count(node: *const Node<T>) -> u64 {
        #[cfg(feature = "obs")]
        return (*node).nodes;
        #[cfg(not(feature = "obs"))]
        {
            let _ = node;
            1
        }
    }
}

impl<T: Send> Drop for Node<T> {
    /// Frees the chain this node owns in a loop, so chains of any length
    /// drop in constant stack.
    fn drop(&mut self) {
        let mut cur = *self.older.get_mut();
        while !cur.is_null() {
            // Safety: `older` owns `cur`, and dropping its owner proves no
            // reader can reach the chain any more. Detaching the next link
            // first keeps `cur`'s own drop from recursing.
            let mut node = unsafe { Box::from_raw(cur) };
            cur = std::mem::replace(node.older.get_mut(), ptr::null_mut());
            drop(node);
        }
    }
}

/// The reader gate and retire pile shared by one object's slots.
#[derive(Debug)]
pub(crate) struct Pile<T: Send> {
    stripes: [Stripe; STRIPES],
    /// A *stale* copy of [`seq`](Self::seq), refreshed only at reclaim
    /// time, that guards pin instead of the live sequence. Pinning an
    /// older value is always sound (it only keeps nodes longer), and it
    /// turns the reader's hottest shared load into a read-mostly hit:
    /// this line changes once per [`RECLAIM_INTERVAL`] retires, while
    /// `seq` changes on every one. Own cache line pair so writer
    /// traffic on the neighbouring fields never invalidates it.
    epoch: Stripe,
    /// The monotone retire sequence stamps dole out of.
    seq: AtomicU64,
    retired: AtomicPtr<Node<T>>,
    /// The pile owns the retired nodes (and therefore their `T`s).
    _owns: PhantomData<Node<T>>,
}

/// Proof that a reader-count stripe of a [`Pile`] is elevated;
/// references obtained from [`Slot::load`] under this guard stay valid
/// until the guard drops.
#[derive(Debug)]
pub(crate) struct ReadGuard<'p, T: Send> {
    pile: &'p Pile<T>,
    stripe: usize,
}

impl<T: Send> Pile<T> {
    pub(crate) fn new() -> Self {
        Self {
            stripes: std::array::from_fn(|_| Stripe(AtomicU64::new(0))),
            epoch: Stripe(AtomicU64::new(0)),
            seq: AtomicU64::new(0),
            retired: AtomicPtr::new(ptr::null_mut()),
            _owns: PhantomData,
        }
    }

    /// Enters a read-side critical section, pinning the current retire
    /// sequence into this thread's stripe: a load plus one (almost
    /// always uncontended) CAS on the thread's own line. See the module
    /// docs for the soundness argument.
    pub(crate) fn enter(&self) -> ReadGuard<'_, T> {
        let stripe = stripe_index();
        let pin = self.epoch.0.load(Ordering::SeqCst);
        // The extra sequence load exists only in `obs` builds; a stale
        // pin (epoch behind the live sequence) is sound but keeps
        // retired nodes alive up to one extra reclaim interval.
        #[cfg(feature = "obs")]
        crate::obs::note_guard_entry(pin < self.seq.load(Ordering::Relaxed));
        let word = &self.stripes[stripe].0;
        let mut old = word.load(Ordering::SeqCst);
        loop {
            let count = old & COUNT_MASK;
            let min_pin = if count == 0 {
                pin
            } else {
                pin.min(old >> STAMP_SHIFT)
            };
            let new = (count + 1) | (min_pin << STAMP_SHIFT);
            match word.compare_exchange_weak(old, new, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => break,
                Err(now) => old = now,
            }
        }
        ReadGuard { pile: self, stripe }
    }

    /// Retires `node` (already unreachable from every slot) and
    /// occasionally attempts reclamation.
    fn retire(&self, node: *mut Node<T>) {
        debug_assert!(!node.is_null());
        // Safety: the caller unlinked `node`; it is live until reclaimed.
        crate::obs::note_retire(unsafe { Node::node_count(node) });
        let stamp = self.seq.fetch_add(1, Ordering::SeqCst);
        // Safety: unlinked and not yet pushed — no other writer touches
        // `stamp`; concurrent readers may hold `&Node`, hence atomic.
        unsafe { (*node).stamp.store(stamp, Ordering::Relaxed) };
        let mut head = self.retired.load(Ordering::Relaxed);
        loop {
            // Safety: until the compare_exchange below succeeds, `node`
            // is exclusively owned by this thread.
            unsafe { (*node).next.store(head, Ordering::Relaxed) };
            match self.retired.compare_exchange_weak(
                head,
                node,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(current) => head = current,
            }
        }
        // Reclaim in batches: reading all gate stripes touches many
        // lines, so doing it on every retire would defeat the striping.
        // Stamps are unique and consecutive, so they pace the batches.
        if stamp % RECLAIM_INTERVAL == RECLAIM_INTERVAL - 1 {
            self.try_reclaim();
        }
    }

    /// Detaches the retire chain, frees every node stamped before the
    /// minimum pin of the occupied stripes, and splices the survivors
    /// back. Lock-free and safe to call from any thread at any time.
    fn try_reclaim(&self) {
        // Advance the pinnable epoch (any value `seq` has already
        // reached is sound — see the `epoch` field docs).
        self.epoch
            .0
            .store(self.seq.load(Ordering::SeqCst), Ordering::SeqCst);
        let head = self.retired.swap(ptr::null_mut(), Ordering::SeqCst);
        if head.is_null() {
            return;
        }
        // Minimum pin among stripes that currently host a reader; ∞
        // when none does. Read *after* the detach (the module docs'
        // argument needs that order).
        let min_pin = self.stripes.iter().fold(u64::MAX, |min, s| {
            let word = s.0.load(Ordering::SeqCst);
            if word & COUNT_MASK == 0 {
                min
            } else {
                min.min(word >> STAMP_SHIFT)
            }
        });
        let mut keep_head: *mut Node<T> = ptr::null_mut();
        let mut keep_tail: *mut Node<T> = ptr::null_mut();
        let mut cur = head;
        let (mut freed, mut kept) = (0u64, 0u64);
        while !cur.is_null() {
            // Safety: the detached chain is exclusively ours.
            let next = unsafe { (*cur).next.load(Ordering::Relaxed) };
            let nodes = unsafe { Node::node_count(cur) };
            if unsafe { (*cur).stamp.load(Ordering::Relaxed) } < min_pin {
                // Safety: retired before every active reader pinned —
                // unreachable (module docs).
                drop(unsafe { Box::from_raw(cur) });
                freed += nodes;
            } else {
                unsafe { (*cur).next.store(keep_head, Ordering::Relaxed) };
                if keep_head.is_null() {
                    keep_tail = cur;
                }
                keep_head = cur;
                kept += nodes;
            }
            cur = next;
        }
        crate::obs::note_reclaim(freed, kept);
        if !keep_head.is_null() {
            // Safety: `keep_head..keep_tail` is an exclusively owned
            // chain; splice it back for a later attempt.
            unsafe { self.splice(keep_head, keep_tail) };
        }
    }

    /// Re-links an exclusively owned chain onto the retire stack.
    ///
    /// # Safety
    ///
    /// `head..tail` must be a well-formed chain this thread exclusively
    /// owns (obtained from the detach in [`try_reclaim`]).
    unsafe fn splice(&self, head: *mut Node<T>, tail: *mut Node<T>) {
        let mut current = self.retired.load(Ordering::Relaxed);
        loop {
            (*tail).next.store(current, Ordering::Relaxed);
            match self.retired.compare_exchange_weak(
                current,
                head,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => current = now,
            }
        }
    }
}

impl<T: Send> Drop for Pile<T> {
    fn drop(&mut self) {
        // `&mut self`: no guard can be alive, every retired node is ours.
        let head = *self.retired.get_mut();
        if !head.is_null() {
            unsafe { free_chain(head) };
        }
    }
}

impl<T: Send> Drop for ReadGuard<'_, T> {
    fn drop(&mut self) {
        self.pile.stripes[self.stripe]
            .0
            .fetch_sub(1, Ordering::SeqCst);
    }
}

/// Frees a detached retire chain.
///
/// # Safety
///
/// The chain must be exclusively owned by the caller and unreachable
/// from any slot or reader.
unsafe fn free_chain<T: Send>(mut head: *mut Node<T>) {
    while !head.is_null() {
        let node = Box::from_raw(head);
        head = node.next.load(Ordering::Relaxed);
    }
}

/// An atomic publication cell: a pointer to the current [`Node`], null
/// for ⊥.
///
/// A `Slot` must always be used with the [`Pile`] of the object that
/// owns it: loads require a guard on that pile, and stores retire the
/// displaced node into it. The modules building on this one keep the
/// pairing a private invariant of each object. All pointer operations
/// are `SeqCst` — the reclamation gate's soundness argument needs the
/// single total order (module docs), and on x86 a `SeqCst` load is a
/// plain load anyway.
#[derive(Debug)]
pub(crate) struct Slot<T: Send> {
    ptr: AtomicPtr<Node<T>>,
    /// The slot owns its current node (and therefore a `T`).
    _owns: PhantomData<Node<T>>,
}

impl<T: Send> Slot<T> {
    pub(crate) fn new() -> Self {
        Self {
            ptr: AtomicPtr::new(ptr::null_mut()),
            _owns: PhantomData,
        }
    }

    /// The raw current pointer. Stable for the lifetime of `guard`:
    /// nodes are never freed while a reader is inside the pile.
    fn load_raw(&self, _guard: &ReadGuard<'_, T>) -> *mut Node<T> {
        self.ptr.load(Ordering::SeqCst)
    }

    /// Dereferences a pointer returned by [`load_raw`](Slot::load_raw)
    /// (or by a failed compare-exchange) under a guard that is still
    /// held.
    fn deref_raw<'g>(raw: *mut Node<T>, _guard: &'g ReadGuard<'_, T>) -> Option<&'g T> {
        if raw.is_null() {
            None
        } else {
            // Safety: the guard keeps every node published before or
            // during it alive (reclamation gates on the reader count).
            Some(unsafe { &(*raw).value })
        }
    }

    /// Reads the current value under `guard`.
    pub(crate) fn load<'g>(&self, guard: &'g ReadGuard<'_, T>) -> Option<&'g T> {
        Self::deref_raw(self.load_raw(guard), guard)
    }

    /// The current publication, as the expected value of a later
    /// [`try_publish`](Slot::try_publish).
    pub(crate) fn load_current<'g>(&self, guard: &'g ReadGuard<'_, T>) -> Loaded<'g, T> {
        // Safety: the guard keeps every node published before or during
        // it alive.
        unsafe { Loaded::new(self.load_raw(guard)) }
    }

    /// Publishes `value` unconditionally (register semantics), retiring
    /// the displaced node onto `pile`. A single swap: wait-free.
    pub(crate) fn store(&self, value: T, pile: &Pile<T>) {
        let node = Node::boxed(value);
        let old = self.ptr.swap(node, Ordering::SeqCst);
        if !old.is_null() {
            pile.retire(old);
        }
    }

    /// Publishes `value` only while `keep(current)` says the current
    /// entry loses to it (max-register semantics): a compare-exchange
    /// loop that retires each displaced node. Returns `true` if the
    /// value was published.
    ///
    /// Lock-free: a failed CAS means another writer published, which is
    /// system-wide progress.
    pub(crate) fn publish_max(
        &self,
        value: T,
        pile: &Pile<T>,
        guard: &ReadGuard<'_, T>,
        mut keep: impl FnMut(&T) -> bool,
    ) -> bool {
        let mut pending = Some(value);
        let mut new: *mut Node<T> = ptr::null_mut();
        let mut current = self.load_raw(guard);
        loop {
            if let Some(cur) = Self::deref_raw(current, guard) {
                if keep(cur) {
                    // The current entry wins; free our unpublished node.
                    if !new.is_null() {
                        // Safety: never published, exclusively ours.
                        drop(unsafe { Box::from_raw(new) });
                    }
                    return false;
                }
            }
            if new.is_null() {
                new = Node::boxed(pending.take().expect("node allocated at most once"));
            }
            match self
                .ptr
                .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(old) => {
                    if !old.is_null() {
                        pile.retire(old);
                    }
                    return true;
                }
                Err(now) => {
                    crate::obs::note_cas_retry();
                    current = now;
                }
            }
        }
    }
}

impl<T: Send> Slot<T> {
    /// One compare-exchange that publishes `candidate` in place of
    /// `current` (copy-on-write semantics: the caller built `candidate`
    /// from `current`).
    ///
    /// With `adopt`, the published node takes ownership of the node it
    /// displaced through its `older` link, and nothing is retired: the
    /// pair is retired later, as one chain, by whichever publication
    /// without `adopt` displaces the chain's newest node. Without
    /// `adopt`, the displaced node is retired onto `pile`, together
    /// with any chain it owns.
    ///
    /// On a lost race the candidate comes back with its link cleared
    /// (it never owns the node it linked), ready to be rebuilt in
    /// place, together with the publication that won.
    pub(crate) fn try_publish<'g>(
        &self,
        current: Loaded<'g, T>,
        mut candidate: Candidate<T>,
        adopt: bool,
        pile: &Pile<T>,
    ) -> Result<(), (Candidate<T>, Loaded<'g, T>)> {
        let older = if adopt { current.raw } else { ptr::null_mut() };
        *candidate.0.older.get_mut() = older;
        #[cfg(feature = "obs")]
        {
            // Safety: `current` is live under the guard it was loaded
            // with.
            candidate.0.nodes = 1 + if older.is_null() {
                0
            } else {
                unsafe { Node::node_count(older) }
            };
        }
        let new = Box::into_raw(candidate.0);
        match self
            .ptr
            .compare_exchange(current.raw, new, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(old) => {
                if !adopt && !old.is_null() {
                    pile.retire(old);
                }
                Ok(())
            }
            Err(now) => {
                crate::obs::note_republish_conflict();
                // Safety: the CAS failed, so `new` was never published
                // and is still exclusively ours.
                let mut lost = unsafe { Box::from_raw(new) };
                // `older` still belongs to the slot, or to whoever
                // displaced it: unlink it before the candidate can drop
                // it.
                *lost.older.get_mut() = ptr::null_mut();
                // Safety: `now` was loaded under the guard `current`
                // was, which is still held.
                Err((Candidate(lost), unsafe { Loaded::new(now) }))
            }
        }
    }
}

/// A publication loaded from a [`Slot`] under a guard, or a node of
/// the chain it owns: the expected value of a [`Slot::try_publish`].
/// Valid for the guard's lifetime.
#[derive(Debug)]
pub(crate) struct Loaded<'g, T: Send> {
    raw: *mut Node<T>,
    _guard: PhantomData<&'g T>,
}

impl<T: Send> Clone for Loaded<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: Send> Copy for Loaded<'_, T> {}

impl<'g, T: Send> Loaded<'g, T> {
    /// # Safety
    ///
    /// `raw` is null or a node that stays live for `'g`.
    unsafe fn new(raw: *mut Node<T>) -> Self {
        Self {
            raw,
            _guard: PhantomData,
        }
    }

    /// The loaded value (`None` is ⊥).
    pub(crate) fn get(self) -> Option<&'g T> {
        // Safety: live for `'g` (see `new`).
        (!self.raw.is_null()).then(|| unsafe { &(*self.raw).value })
    }

    /// The node this one displaced and owns, if it was published with
    /// `adopt`; ⊥ otherwise.
    pub(crate) fn older(self) -> Self {
        if self.raw.is_null() {
            return self;
        }
        // Safety: `raw` is live for `'g`, and it owns its `older` node,
        // which therefore lives as long. The link was stored before
        // `raw` was published, which orders it before the load that
        // found `raw`.
        unsafe { Self::new((*self.raw).older.load(Ordering::Relaxed)) }
    }
}

/// A node built but not yet published: exclusively owned by its
/// builder, and reusable across [`Slot::try_publish`] attempts.
pub(crate) struct Candidate<T: Send>(Box<Node<T>>);

impl<T: Send> Candidate<T> {
    pub(crate) fn new(value: T) -> Self {
        Self(Box::new(Node::new(value)))
    }

    pub(crate) fn get_mut(&mut self) -> &mut T {
        &mut self.0.value
    }
}

impl<T: Clone + Send> Slot<T> {
    /// Reads and clones the current value in one guarded section.
    pub(crate) fn read_cloned(&self, pile: &Pile<T>) -> Option<T> {
        let guard = pile.enter();
        self.load(&guard).cloned()
    }
}

impl<T: Send> Drop for Slot<T> {
    fn drop(&mut self) {
        let current = *self.ptr.get_mut();
        if !current.is_null() {
            // Safety: `&mut self` — no reader can hold this node.
            drop(unsafe { Box::from_raw(current) });
        }
    }
}

/// A cell that starts empty and is filled with an `Arc<T>` at most
/// once: the snapshot's cache of a materialized scan view.
///
/// Filling never waits. Racing callers each build their own value and
/// one compare-exchange from null picks the winner; every loser drops
/// its copy and gets the winner's. Once filled, the pointer never
/// changes until the cell drops, which is what makes the borrowed
/// [`get`](Self::get) sound.
#[derive(Debug)]
pub(crate) struct OnceArc<T> {
    ptr: AtomicPtr<T>,
    /// The cell owns one strong count of the installed `Arc`.
    _owns: PhantomData<Arc<T>>,
}

impl<T> OnceArc<T> {
    pub(crate) const fn new() -> Self {
        Self {
            ptr: AtomicPtr::new(ptr::null_mut()),
            _owns: PhantomData,
        }
    }

    /// The installed value, if any.
    pub(crate) fn get(&self) -> Option<&T> {
        let raw = self.ptr.load(Ordering::Acquire);
        // Safety: a non-null pointer came from `Arc::into_raw` in `set`,
        // and the cell keeps that strong count until it drops, which
        // the `&self` borrow rules out.
        (!raw.is_null()).then(|| unsafe { &*raw })
    }

    /// A new strong reference to the installed value, if any.
    pub(crate) fn get_arc(&self) -> Option<Arc<T>> {
        let raw = self.ptr.load(Ordering::Acquire);
        // Safety: as in `get`; the increment adds the count the
        // returned `Arc` owns.
        (!raw.is_null()).then(|| unsafe {
            Arc::increment_strong_count(raw);
            Arc::from_raw(raw)
        })
    }

    /// Installs `value` unless the cell is already filled, and returns
    /// a strong reference to whichever value the cell now holds.
    pub(crate) fn set(&self, value: Arc<T>) -> Arc<T> {
        let installed = self.install(value);
        // Safety: `installed` is the cell's pointer, kept alive by the
        // cell's own count; the increment adds the returned `Arc`'s.
        unsafe {
            Arc::increment_strong_count(installed);
            Arc::from_raw(installed)
        }
    }

    /// The installed value, built by `make` and installed first if the
    /// cell is empty. Racing callers each build one; every loser drops
    /// its copy and gets the winner's.
    pub(crate) fn get_or_init(&self, make: impl FnOnce() -> T) -> &T {
        match self.get() {
            Some(value) => value,
            // Safety: as in `get`: the installed pointer stays valid
            // while the cell, borrowed by `&self`, holds its count.
            None => unsafe { &*self.install(Arc::new(make())) },
        }
    }

    /// Installs `value` unless the cell is already filled, and returns
    /// the cell's pointer (the cell keeps its count).
    fn install(&self, value: Arc<T>) -> *const T {
        let ours = Arc::into_raw(value).cast_mut();
        match self
            .ptr
            .compare_exchange(ptr::null_mut(), ours, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => ours,
            Err(winner) => {
                // Safety: `ours` was never published; this reclaims the
                // count `into_raw` leaked.
                drop(unsafe { Arc::from_raw(ours) });
                winner
            }
        }
    }
}

impl<T> Drop for OnceArc<T> {
    fn drop(&mut self) {
        let raw = *self.ptr.get_mut();
        if !raw.is_null() {
            // Safety: the cell's own strong count, released once.
            drop(unsafe { Arc::from_raw(raw) });
        }
    }
}

// ---------------------------------------------------------------------
// Inline cells: allocation-free fast paths for small payloads.
//
// The pointer-publication machinery above is the general case; a plain
// register holding a ≤16-byte trivially-destructible value does not
// need any of it. The cells below keep the payload *inline* in atomic
// words behind a seqlock-style sequence word: writes are a claim CAS
// plus plain stores, reads are pure loads (no RMW, so concurrent
// readers never bounce a cache line between cores), and there is no
// allocation, retirement or reclamation anywhere on the path.
//
// The issue text sketches these as a single `AtomicU128` CAS; stable
// Rust has no 128-bit atomic, and on x86-64 a 16-byte atomic *load*
// would compile to `lock cmpxchg16b` — an RMW that makes every reader a
// writer of the cache line. The seqlock form is both portable and
// strictly cheaper for the 63/64-read workloads the protocols run, at
// the cost of writers serializing on the claim word (readers stay
// non-blocking: a read only retries while a writer is mid-publication).
// DESIGN.md ("Inline seqlock registers") carries the full argument.
// ---------------------------------------------------------------------

use std::sync::atomic::fence;

/// Words of inline payload a [`SeqCell`]/[`CombiningMax`] holds.
pub(crate) const INLINE_WORDS: usize = 2;

/// Whether `T` may travel through the inline cells: it must fit the
/// inline words and be trivially destructible (the cells duplicate the
/// value bitwise on every read and never run `Drop`, which is only
/// sound when there is no `Drop`).
pub(crate) const fn inline_ok<T>() -> bool {
    std::mem::size_of::<T>() <= INLINE_WORDS * 8 && !std::mem::needs_drop::<T>()
}

/// Bounded exponential spin, then yield. On oversubscribed hosts (more
/// threads than cores — the CI containers run the whole contention
/// bench on one core) the conflicting writer may not even be running,
/// so burning the rest of the timeslice in `spin_loop` is the worst
/// possible wait; yielding hands the core to the thread we are waiting
/// for.
fn backoff(spins: &mut u32) {
    if *spins < 6 {
        for _ in 0..(1u32 << *spins) {
            std::hint::spin_loop();
        }
        *spins += 1;
    } else {
        std::thread::yield_now();
    }
}

/// Copies `value`'s object representation into zero-initialized words.
///
/// Any padding bytes of `T` pass through as whatever bits the zeroed
/// buffer keeps for them — the convention of production seqlocks
/// (`ptr::copy_nonoverlapping` is documented as an untyped byte copy):
/// the bits are never reinterpreted except by [`decode`], which only
/// promises a valid `T` because the words hold a real `T`'s bytes.
fn encode<T>(value: &T) -> [u64; INLINE_WORDS] {
    debug_assert!(inline_ok::<T>());
    let mut words = [0u64; INLINE_WORDS];
    // Safety: `size_of::<T>() <= size_of_val(&words)` is checked by
    // `inline_ok` at cell construction; both regions are plain memory.
    unsafe {
        ptr::copy_nonoverlapping(
            (value as *const T).cast::<u8>(),
            words.as_mut_ptr().cast::<u8>(),
            std::mem::size_of::<T>(),
        );
    }
    words
}

/// Rebuilds a `T` from words produced by [`encode`].
///
/// # Safety
///
/// `words` must hold the image of exactly one complete [`encode`] of a
/// `T` (the seqlock validation below is what establishes this: the
/// sequence word was stable across the word loads).
unsafe fn decode<T>(words: [u64; INLINE_WORDS]) -> T {
    debug_assert!(inline_ok::<T>());
    unsafe { ptr::read_unaligned(words.as_ptr().cast::<T>()) }
}

/// An allocation-free register cell for payloads passing [`inline_ok`].
///
/// Layout: a sequence word plus [`INLINE_WORDS`] payload words, padded
/// to a cache-line pair. Sequence values: `0` = ⊥ (never written),
/// *odd* = a writer owns the cell, *even ≥ 2* = the payload words hold
/// a stable [`encode`] image.
///
/// The memory-ordering discipline is the classic seqlock (the same one
/// `crossbeam`'s `AtomicCell` fallback uses): a writer claims with an
/// `Acquire` CAS to odd, orders its payload stores behind the claim
/// with a `Release` fence, and publishes with a `Release` store to
/// even; a reader loads the sequence with `Acquire`, loads the payload
/// words `Relaxed`, then re-validates the sequence behind an `Acquire`
/// fence — the fence pair guarantees that if the reader saw any of a
/// writer's payload stores, the validation load sees that writer's
/// claim and the read retries.
///
/// Progress: reads never block writers and perform no RMW; a read only
/// retries while a writer is mid-publication, and writers serialize on
/// the claim word. Writes linearize at the `Release` publish store,
/// reads at their first sequence load of the validated attempt.
#[repr(align(128))]
#[derive(Debug)]
pub(crate) struct SeqCell<T> {
    seq: AtomicU64,
    words: [AtomicU64; INLINE_WORDS],
    /// Torn-publication mode: the validated image this write displaced
    /// (the committed payload at the sequence the writer claimed from).
    #[cfg(feature = "torn-publication")]
    prev: [AtomicU64; INLINE_WORDS],
    /// Torn-publication mode: which window `prev` belongs to. During an
    /// odd window `s + 1` it holds `s` until the new payload words are
    /// fully stored, then `s + 1` — so it doubles as the *committed*
    /// marker that tells readers the new image is safe to decode.
    #[cfg(feature = "torn-publication")]
    prev_seq: AtomicU64,
    /// Torn-publication mode: parity stream deciding whether an
    /// in-window reader observes the new or the old image.
    #[cfg(feature = "torn-publication")]
    torn_coin: AtomicU64,
    _marker: PhantomData<T>,
}

impl<T: Send> SeqCell<T> {
    /// Creates a cell holding ⊥. Panics if `T` fails [`inline_ok`].
    pub(crate) fn new() -> Self {
        assert!(inline_ok::<T>(), "SeqCell payload must pass inline_ok");
        Self {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
            #[cfg(feature = "torn-publication")]
            prev: std::array::from_fn(|_| AtomicU64::new(0)),
            #[cfg(feature = "torn-publication")]
            prev_seq: AtomicU64::new(0),
            #[cfg(feature = "torn-publication")]
            torn_coin: AtomicU64::new(0),
            _marker: PhantomData,
        }
    }

    /// Writes `value`: claim (CAS to odd), store words, publish (store
    /// to even).
    #[cfg(not(feature = "torn-publication"))]
    pub(crate) fn write(&self, value: T) {
        let words = encode(&value);
        let mut spins = 0u32;
        let mut cur = self.seq.load(Ordering::Relaxed);
        loop {
            if cur & 1 == 0 {
                match self.seq.compare_exchange_weak(
                    cur,
                    cur + 1,
                    Ordering::Acquire,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(now) => {
                        crate::obs::note_inline_write_retry();
                        cur = now;
                        continue;
                    }
                }
            }
            crate::obs::note_inline_write_retry();
            backoff(&mut spins);
            cur = self.seq.load(Ordering::Relaxed);
        }
        fence(Ordering::Release);
        for (w, v) in self.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        self.seq.store(cur + 2, Ordering::Release);
        crate::obs::note_inline_register_write();
    }

    /// Writes `value` under torn-publication semantics: the full write
    /// is the split-phase protocol run to completion, so the cell's
    /// committed states are identical to the plain seqlock's.
    #[cfg(feature = "torn-publication")]
    pub(crate) fn write(&self, value: T) {
        let claimed = self.begin_torn_write(value);
        self.finish_torn_write(claimed);
    }

    /// Claims the cell and stores the new payload, but does **not**
    /// publish: the sequence is left odd, so concurrent readers sit in
    /// the torn window until [`finish_torn_write`](Self::finish_torn_write)
    /// runs. Returns the even sequence the write claimed from.
    ///
    /// Protocol (window `s + 1`, claimed from even `s`):
    ///
    /// 1. take a *validated* snapshot of the committed words at `s`
    ///    (skipped when `s == 0`: the displaced value is ⊥);
    /// 2. CAS `s → s + 1`. The sequence is monotone, so success proves
    ///    it never moved since the snapshot validated — the snapshot
    ///    *is* the image this write displaces;
    /// 3. store the snapshot into `prev`, then `prev_seq := s`
    ///    (`Release`): readers may now serve the old value;
    /// 4. store the new payload words, then `prev_seq := s + 1`
    ///    (`Release`): the committed marker — readers may now choose
    ///    either image.
    #[cfg(feature = "torn-publication")]
    pub(crate) fn begin_torn_write(&self, value: T) -> u64 {
        let words = encode(&value);
        let mut spins = 0u32;
        let (cur, displaced) = loop {
            let s = self.seq.load(Ordering::Acquire);
            if s & 1 == 0 {
                let snapshot = if s == 0 {
                    None
                } else {
                    let image: [u64; INLINE_WORDS] =
                        std::array::from_fn(|i| self.words[i].load(Ordering::Relaxed));
                    fence(Ordering::Acquire);
                    if self.seq.load(Ordering::Relaxed) != s {
                        crate::obs::note_inline_write_retry();
                        backoff(&mut spins);
                        continue;
                    }
                    Some(image)
                };
                match self
                    .seq
                    .compare_exchange(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
                {
                    Ok(_) => break (s, snapshot),
                    Err(_) => {
                        crate::obs::note_inline_write_retry();
                        backoff(&mut spins);
                        continue;
                    }
                }
            }
            crate::obs::note_inline_write_retry();
            backoff(&mut spins);
        };
        if let Some(image) = displaced {
            for (w, v) in self.prev.iter().zip(image) {
                w.store(v, Ordering::Relaxed);
            }
        }
        self.prev_seq.store(cur, Ordering::Release);
        fence(Ordering::Release);
        for (w, v) in self.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        self.prev_seq.store(cur + 1, Ordering::Release);
        cur
    }

    /// Publishes a write begun by [`begin_torn_write`](Self::begin_torn_write):
    /// stores the even sequence, closing the torn window.
    #[cfg(feature = "torn-publication")]
    pub(crate) fn finish_torn_write(&self, claimed: u64) {
        self.seq.store(claimed + 2, Ordering::Release);
        crate::obs::note_inline_register_write();
    }

    /// One attempt at serving a read that landed in the odd window
    /// `s1`. `Some(...)` is a successfully validated answer; `None`
    /// means the window state was mid-transition and the caller should
    /// retry.
    ///
    /// The window has two reader-visible phases, distinguished by
    /// `prev_seq`:
    ///
    /// * `prev_seq == s1 - 1` — the old image is installed in `prev`
    ///   but the new words are not yet committed: the read must resolve
    ///   to the *old* value (⊥ when `s1 == 1`).
    /// * `prev_seq == s1` — both images are complete and stable: the
    ///   read draws a parity coin and resolves to either. This is the
    ///   sub-window where genuine new/old inversions (the regular-
    ///   register behaviour Wing–Gong atomic checking rejects) arise.
    ///
    /// Any other `prev_seq` value means the writer has not reached step
    /// 3 yet, or the world moved on — retry. Both decode paths
    /// re-validate `seq` *and* `prev_seq` behind an `Acquire` fence, so
    /// a stable pair proves the loaded words are one complete `encode`
    /// image (`prev` is only mutated before `prev_seq := s1 - 1`, the
    /// new words only before `prev_seq := s1`, and no later writer can
    /// touch either without first moving `seq`).
    #[cfg(feature = "torn-publication")]
    fn read_torn(&self, s1: u64) -> Option<Option<T>> {
        debug_assert!(s1 & 1 == 1);
        let ps = self.prev_seq.load(Ordering::Acquire);
        if ps != s1 && ps != s1 - 1 {
            return None;
        }
        let take_new = ps == s1 && self.torn_coin.fetch_add(1, Ordering::Relaxed) & 1 == 0;
        if take_new {
            let words = std::array::from_fn(|i| self.words[i].load(Ordering::Relaxed));
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == s1 && self.prev_seq.load(Ordering::Relaxed) == ps
            {
                // Safety: `prev_seq == s1` was stable across the word
                // loads, so the new-image words are one complete
                // `encode` (see above).
                return Some(Some(unsafe { decode(words) }));
            }
            return None;
        }
        if s1 == 1 {
            // First-ever write in flight: the displaced value is ⊥.
            return Some(None);
        }
        let words = std::array::from_fn(|i| self.prev[i].load(Ordering::Relaxed));
        fence(Ordering::Acquire);
        if self.seq.load(Ordering::Relaxed) == s1 && self.prev_seq.load(Ordering::Relaxed) == ps {
            // Safety: `seq`/`prev_seq` were stable across the loads, so
            // `prev` holds the writer's validated snapshot of the
            // committed image at `s1 - 1` (see above).
            return Some(Some(unsafe { decode(words) }));
        }
        None
    }

    /// Reads the current value (`None` is ⊥): pure loads, validated by
    /// the sequence word.
    pub(crate) fn read(&self) -> Option<T> {
        let mut spins = 0u32;
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 == 0 {
                return None;
            }
            if s1 & 1 == 0 {
                let words = std::array::from_fn(|i| self.words[i].load(Ordering::Relaxed));
                fence(Ordering::Acquire);
                if self.seq.load(Ordering::Relaxed) == s1 {
                    // Safety: the sequence was stable and even across
                    // the word loads, so `words` is one complete
                    // `encode` image (see the type docs).
                    return Some(unsafe { decode(words) });
                }
            } else {
                // Torn-publication mode: a read that lands in a
                // writer's odd window may resolve to the old *or* the
                // new image instead of retrying — the injected
                // regular-register (non-atomic) behaviour.
                #[cfg(feature = "torn-publication")]
                if let Some(resolved) = self.read_torn(s1) {
                    return resolved;
                }
            }
            crate::obs::note_inline_read_retry();
            backoff(&mut spins);
        }
    }
}

/// One combining cell: a monotone `claim`/`done` stamp pair plus inline
/// payload words, padded to a cache-line pair.
///
/// Stamps hold `key + 1` (`0` is ⊥). Invariants: stamps only grow;
/// `done ≤ claim` in every stable state; `claim == done` exactly when
/// the payload words hold a complete [`encode`] image for key
/// `done - 1`. A writer moves `claim` above `done` with a CAS (taking
/// exclusive ownership of the words), stores the payload, then stores
/// `done` and finally `claim` back to equality. The `claim` word doubles
/// as the seqlock sequence: it changes on every ownership transfer, so
/// an unchanged `claim` across a reader's word loads validates them.
#[repr(align(128))]
#[derive(Debug)]
struct PairCell {
    claim: AtomicU64,
    done: AtomicU64,
    words: [AtomicU64; INLINE_WORDS],
}

impl PairCell {
    fn new() -> Self {
        Self {
            claim: AtomicU64::new(0),
            done: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// One optimistic validated read. `Ok(None)` = ⊥, `Ok(Some((stamp,
    /// words)))` = a stable image, `Err(Unstable)` = a writer was
    /// mid-flight.
    fn try_read(&self) -> Result<Option<(u64, [u64; INLINE_WORDS])>, Unstable> {
        let c1 = self.claim.load(Ordering::Acquire);
        let d1 = self.done.load(Ordering::Acquire);
        if d1 == 0 {
            // No write has completed at the `done` load: a ⊥ read
            // linearizes there even if a first write is in flight.
            return Ok(None);
        }
        if c1 != d1 {
            return Err(Unstable);
        }
        let words = std::array::from_fn(|i| self.words[i].load(Ordering::Relaxed));
        fence(Ordering::Acquire);
        if self.claim.load(Ordering::Relaxed) == c1 {
            Ok(Some((d1, words)))
        } else {
            Err(Unstable)
        }
    }

    /// One non-blocking attempt to publish `(tag, words)` into this
    /// cell: succeeds only if the cell is stable and strictly below
    /// `tag`. Used for the announce slots — a failed attempt is fine,
    /// the writer's own combining loop still covers its value.
    fn try_announce(&self, tag: u64, words: [u64; INLINE_WORDS]) -> bool {
        let c = self.claim.load(Ordering::Relaxed);
        let d = self.done.load(Ordering::Relaxed);
        if c != d || c >= tag {
            return false;
        }
        if self
            .claim
            .compare_exchange(c, tag, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        fence(Ordering::Release);
        for (w, v) in self.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        self.done.store(tag, Ordering::Release);
        true
    }
}

/// Marker for a [`PairCell::try_read`] that raced a writer.
#[derive(Debug)]
struct Unstable;

/// An allocation-free combining max register for payloads passing
/// [`inline_ok`].
///
/// The authoritative maximum lives in one [`PairCell`] (`root`);
/// concurrent writers additionally publish into per-thread announce
/// cells (indexed by [`stripe_index`], like the pile's reader stripes).
/// A write first checks `root.done` — if the global maximum already
/// covers its key it returns immediately with **zero RMWs**. Otherwise
/// it announces, then competes for the root claim; the single winner
/// (the *combiner*) scans every stable announce cell and installs the
/// batch maximum with one store sequence, so `w` concurrent writes
/// collapse into `O(1)` root CAS traffic and the losers return as soon
/// as they observe `done` at or above their key.
///
/// Correctness sketch (the full argument is in DESIGN.md): a losing
/// writer only returns when it *observes* `root.done ≥ key + 1`, and
/// `done` is only advanced by a combiner that either scanned the
/// loser's announced value or installed a larger key — either way the
/// loser's write is covered by a linearizable order that places it
/// (as a dropped, dominated write) after the install. Keys are strictly
/// monotone along the root's modification order, so the stamp words
/// never ABA.
#[derive(Debug)]
pub(crate) struct CombiningMax<T> {
    root: PairCell,
    announce: [PairCell; STRIPES],
    _marker: PhantomData<T>,
}

impl<T: Send> CombiningMax<T> {
    /// Creates an empty register. Panics if `T` fails [`inline_ok`].
    pub(crate) fn new() -> Self {
        assert!(inline_ok::<T>(), "CombiningMax payload must pass inline_ok");
        Self {
            root: PairCell::new(),
            announce: std::array::from_fn(|_| PairCell::new()),
            _marker: PhantomData,
        }
    }

    /// Writes `(key, value)`, kept only if `key` exceeds the current
    /// maximum (ties keep the incumbent). `key` must be below
    /// `u64::MAX` (the stamp encoding reserves it).
    pub(crate) fn write(&self, key: u64, value: T) {
        let tag = key
            .checked_add(1)
            .expect("max-register keys must be below u64::MAX");
        // Dominated fast path: most writes under contention lose to the
        // running maximum and finish with this single shared load.
        if self.root.done.load(Ordering::Acquire) >= tag {
            crate::obs::note_combine_covered();
            return;
        }
        let words = encode(&value);
        // Publish into this thread's announce cell so a concurrent
        // combiner can carry this value; failure is harmless (the loop
        // below still covers it).
        self.announce[stripe_index()].try_announce(tag, words);
        let mut spins = 0u32;
        loop {
            let d = self.root.done.load(Ordering::Acquire);
            if d >= tag {
                crate::obs::note_combine_covered();
                return;
            }
            let c = self.root.claim.load(Ordering::Relaxed);
            if c == d {
                match self
                    .root
                    .claim
                    .compare_exchange(c, tag, Ordering::Acquire, Ordering::Relaxed)
                {
                    Ok(_) => {
                        self.install(tag, words, d);
                        return;
                    }
                    Err(_) => {
                        crate::obs::note_cas_retry();
                        continue;
                    }
                }
            }
            backoff(&mut spins);
        }
    }

    /// Combiner body: owns the root words (claim is above done). Scans
    /// the announce cells, installs the batch maximum, and restores
    /// `claim == done` at the new stamp.
    fn install(&self, own_tag: u64, own_words: [u64; INLINE_WORDS], prev_done: u64) {
        let (mut best_tag, mut best_words) = (own_tag, own_words);
        let mut batch = 1u64;
        for cell in &self.announce {
            if let Ok(Some((tag, words))) = cell.try_read() {
                if tag > prev_done && tag != own_tag {
                    batch += 1;
                }
                if tag > best_tag {
                    best_tag = tag;
                    best_words = words;
                }
            }
        }
        fence(Ordering::Release);
        for (w, v) in self.root.words.iter().zip(best_words) {
            w.store(v, Ordering::Relaxed);
        }
        self.root.done.store(best_tag, Ordering::Release);
        self.root.claim.store(best_tag, Ordering::Release);
        crate::obs::note_combine_install(batch);
    }

    /// Reads the current maximum entry: pure loads, validated on the
    /// root claim word.
    pub(crate) fn read(&self) -> Option<(u64, T)> {
        let mut spins = 0u32;
        loop {
            match self.root.try_read() {
                Ok(None) => return None,
                Ok(Some((stamp, words))) => {
                    // Safety: claim was stable across the word loads,
                    // so `words` is the complete image for `stamp`.
                    return Some((stamp - 1, unsafe { decode(words) }));
                }
                Err(Unstable) => {
                    crate::obs::note_inline_read_retry();
                    backoff(&mut spins);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn store_and_load_round_trip() {
        let pile = Pile::new();
        let slot = Slot::new();
        let guard = pile.enter();
        assert_eq!(slot.load(&guard), None);
        drop(guard);
        slot.store(41u64, &pile);
        slot.store(42u64, &pile);
        assert_eq!(slot.read_cloned(&pile), Some(42));
    }

    #[test]
    fn publish_max_keeps_winner() {
        let pile = Pile::new();
        let slot: Slot<(u64, &str)> = Slot::new();
        let g = pile.enter();
        assert!(slot.publish_max((5, "five"), &pile, &g, |cur| cur.0 >= 5));
        assert!(!slot.publish_max((3, "three"), &pile, &g, |cur| cur.0 >= 3));
        assert!(slot.publish_max((9, "nine"), &pile, &g, |cur| cur.0 >= 9));
        assert_eq!(slot.load(&g), Some(&(9, "nine")));
    }

    #[test]
    fn guards_keep_displaced_nodes_alive() {
        let pile = Pile::new();
        let slot = Slot::new();
        slot.store(String::from("first"), &pile);
        let guard = pile.enter();
        let held = slot.load(&guard).unwrap();
        slot.store(String::from("second"), &pile);
        // `held` points into the retired node; the guard keeps it valid.
        assert_eq!(held, "first");
        assert_eq!(slot.load(&guard), Some(&String::from("second")));
        drop(guard);
        assert_eq!(slot.read_cloned(&pile), Some(String::from("second")));
    }

    /// A value with its own drop counter.
    struct Tracked(Arc<AtomicUsize>);

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn tracked() -> (Tracked, Arc<AtomicUsize>) {
        let drops = Arc::new(AtomicUsize::new(0));
        (Tracked(Arc::clone(&drops)), drops)
    }

    /// Publishes `value` on top of whatever `slot` holds, adopting the
    /// displaced node when `adopt`.
    fn publish(slot: &Slot<Tracked>, pile: &Pile<Tracked>, value: Tracked, adopt: bool) {
        let guard = pile.enter();
        let current = slot.load_current(&guard);
        assert!(slot
            .try_publish(current, Candidate::new(value), adopt, pile)
            .is_ok());
    }

    #[test]
    fn guards_keep_adopted_chains_alive() {
        // A reader holds the oldest node of a chain while the chain is
        // retired whole and the pile reclaims around it.
        let pile = Pile::new();
        let slot = Slot::new();
        let (a, a_drops) = tracked();
        slot.store(a, &pile);
        let guard = pile.enter();
        let held = slot.load(&guard).unwrap();
        let mut chain = Vec::new();
        for _ in 0..3 {
            let (value, drops) = tracked();
            publish(&slot, &pile, value, true);
            chain.push(drops);
        }
        // Retire the 4-node chain, then enough single nodes to run
        // several reclamation passes.
        let mut singles = Vec::new();
        for _ in 0..3 * RECLAIM_INTERVAL {
            let (value, drops) = tracked();
            publish(&slot, &pile, value, false);
            singles.push(drops);
        }
        // Read through the held reference: a freed node would be a
        // use after free (and `a` dropped).
        assert_eq!(held.0.load(Ordering::SeqCst), 0, "held node freed");
        assert!(chain.iter().all(|d| d.load(Ordering::SeqCst) == 0));
        drop(guard);
        for _ in 0..RECLAIM_INTERVAL {
            let (value, drops) = tracked();
            publish(&slot, &pile, value, false);
            singles.push(drops);
        }
        assert_eq!(a_drops.load(Ordering::SeqCst), 1, "chain reclaimed once");
        assert!(chain.iter().all(|d| d.load(Ordering::SeqCst) == 1));
        drop((slot, pile));
        assert!(singles.iter().all(|d| d.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn lost_candidates_never_own_the_winner() {
        let pile = Pile::new();
        let slot = Slot::new();
        let (a, a_drops) = tracked();
        slot.store(a, &pile);
        let guard = pile.enter();
        let stale = slot.load_current(&guard);
        // Another writer extends the chain first: `b` now owns `a`.
        let (b, b_drops) = tracked();
        publish(&slot, &pile, b, true);
        let (c, c_drops) = tracked();
        let (lost, now) = match slot.try_publish(stale, Candidate::new(c), true, &pile) {
            Ok(()) => panic!("a stale expected value must lose"),
            Err(lost) => lost,
        };
        assert!(now.get().is_some() && now.older().get().is_some());
        drop(lost);
        assert_eq!(c_drops.load(Ordering::SeqCst), 1);
        assert_eq!(a_drops.load(Ordering::SeqCst), 0, "the loser freed `a`");
        drop(guard);
        drop((slot, pile));
        assert_eq!(a_drops.load(Ordering::SeqCst), 1);
        assert_eq!(b_drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn drop_counts_are_exact_under_churn() {
        // Every publication's value must be dropped exactly once, no
        // matter how reclamation interleaves with readers.
        struct Counted(Arc<std::sync::atomic::AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        impl Clone for Counted {
            fn clone(&self) -> Self {
                Counted(Arc::clone(&self.0))
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let published = Arc::new(AtomicUsize::new(0));
        {
            let pile = Arc::new(Pile::new());
            let slot = Arc::new(Slot::new());
            let writers: Vec<_> = (0..4)
                .map(|_| {
                    let (pile, slot) = (Arc::clone(&pile), Arc::clone(&slot));
                    let (drops, published) = (Arc::clone(&drops), Arc::clone(&published));
                    std::thread::spawn(move || {
                        for _ in 0..500 {
                            slot.store(Counted(Arc::clone(&drops)), &pile);
                            published.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                })
                .collect();
            let readers: Vec<_> = (0..3)
                .map(|_| {
                    let (pile, slot) = (Arc::clone(&pile), Arc::clone(&slot));
                    std::thread::spawn(move || {
                        for _ in 0..2000 {
                            let guard = pile.enter();
                            let _ = slot.load(&guard);
                        }
                    })
                })
                .collect();
            for h in writers.into_iter().chain(readers) {
                h.join().unwrap();
            }
            // Dropping the slot frees the current node; dropping the
            // pile frees whatever is still retired.
        }
        assert_eq!(
            drops.load(Ordering::SeqCst),
            published.load(Ordering::SeqCst),
            "every published node dropped exactly once"
        );
    }

    #[test]
    fn once_arc_first_set_wins_and_losers_drop_their_copy() {
        let cell: Arc<OnceArc<String>> = Arc::new(OnceArc::new());
        assert!(cell.get().is_none() && cell.get_arc().is_none());
        let start = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let (cell, start) = (Arc::clone(&cell), Arc::clone(&start));
                std::thread::spawn(move || {
                    let ours = Arc::new(format!("copy {t}"));
                    let weak = Arc::downgrade(&ours);
                    start.wait();
                    (cell.set(ours), weak)
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let winner = Arc::clone(&results[0].0);
        assert!(results.iter().all(|(got, _)| Arc::ptr_eq(got, &winner)));
        // Exactly one thread's copy is installed; every loser's is gone.
        let alive = results
            .iter()
            .filter(|(_, w)| w.upgrade().is_some())
            .count();
        assert_eq!(alive, 1, "losers must drop their copies");
        assert_eq!(cell.get(), Some(&*winner));
        assert!(Arc::ptr_eq(&cell.get_arc().unwrap(), &winner));
        // A set on a filled cell keeps the installed value.
        assert!(Arc::ptr_eq(&cell.set(Arc::new("late".into())), &winner));
        let weak = Arc::downgrade(&winner);
        drop((results, winner));
        assert!(weak.upgrade().is_some(), "the cell keeps its own count");
        drop(cell);
        assert!(weak.upgrade().is_none(), "dropping the cell releases it");
    }

    #[test]
    fn concurrent_max_publication_is_monotone() {
        let pile = Arc::new(Pile::new());
        let slot: Arc<Slot<u64>> = Arc::new(Slot::new());
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let (pile, slot) = (Arc::clone(&pile), Arc::clone(&slot));
                std::thread::spawn(move || {
                    for k in 0..300 {
                        let key = t * 300 + k;
                        let g = pile.enter();
                        slot.publish_max(key, &pile, &g, |cur| *cur >= key);
                    }
                })
            })
            .collect();
        let reader = {
            let (pile, slot) = (Arc::clone(&pile), Arc::clone(&slot));
            std::thread::spawn(move || {
                let mut last = 0u64;
                for _ in 0..2000 {
                    if let Some(v) = slot.read_cloned(&pile) {
                        assert!(v >= last, "max went backwards: {last} -> {v}");
                        last = v;
                    }
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(slot.read_cloned(&pile), Some(8 * 300 - 1));
    }

    #[test]
    fn inline_ok_gates_on_size_and_drop() {
        assert!(inline_ok::<u64>());
        assert!(inline_ok::<(u64, u64)>());
        assert!(inline_ok::<(u32, char)>());
        assert!(inline_ok::<[u8; 16]>());
        assert!(!inline_ok::<[u8; 17]>(), "too large");
        assert!(!inline_ok::<String>(), "needs drop");
        assert!(!inline_ok::<(u64, u64, u64)>(), "too large");
    }

    #[test]
    fn seq_cell_round_trips_all_inline_shapes() {
        let c: SeqCell<u64> = SeqCell::new();
        assert_eq!(c.read(), None);
        c.write(0);
        assert_eq!(c.read(), Some(0), "0 must be distinguishable from ⊥");
        c.write(u64::MAX);
        assert_eq!(c.read(), Some(u64::MAX));

        let p: SeqCell<(u32, char)> = SeqCell::new();
        p.write((7, 'x'));
        p.write((9, 'y'));
        assert_eq!(p.read(), Some((9, 'y')));

        let b: SeqCell<[u8; 16]> = SeqCell::new();
        b.write([0xAB; 16]);
        assert_eq!(b.read(), Some([0xAB; 16]));
    }

    #[test]
    fn seq_cell_concurrent_reads_never_tear() {
        let c: Arc<SeqCell<(u64, u64)>> = Arc::new(SeqCell::new());
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for k in 0..2000 {
                        c.write((k, k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ t));
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..4000 {
                        if let Some((k, tagged)) = c.read() {
                            let t = tagged ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                            assert!(t < 4, "torn read: ({k}, {tagged:#x})");
                        }
                    }
                })
            })
            .collect();
        for h in writers.into_iter().chain(readers) {
            h.join().unwrap();
        }
        let (k, _) = c.read().expect("someone wrote");
        assert_eq!(k, 1999, "final value is some writer's last write");
    }

    #[test]
    fn combining_max_keeps_maximum_and_first_on_tie() {
        let m: CombiningMax<u64> = CombiningMax::new();
        assert_eq!(m.read(), None);
        m.write(5, 50);
        m.write(3, 30);
        assert_eq!(m.read(), Some((5, 50)));
        m.write(7, 70);
        m.write(7, 71);
        assert_eq!(m.read(), Some((7, 70)), "ties keep the first value");
        m.write(0, 1);
        assert_eq!(m.read(), Some((7, 70)));
    }

    #[test]
    #[should_panic(expected = "below u64::MAX")]
    fn combining_max_rejects_reserved_key() {
        let m: CombiningMax<u64> = CombiningMax::new();
        m.write(u64::MAX, 0);
    }

    #[test]
    fn combining_max_concurrent_writes_keep_global_maximum() {
        let m: Arc<CombiningMax<(u32, u32)>> = Arc::new(CombiningMax::new());
        let writers: Vec<_> = (0..8u64)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for k in 0..300 {
                        m.write(t * 300 + k, (t as u32, k as u32));
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    for _ in 0..2000 {
                        if let Some((key, (t, k))) = m.read() {
                            assert_eq!(
                                key,
                                u64::from(t) * 300 + u64::from(k),
                                "entry is self-consistent (no torn key/value pair)"
                            );
                            assert!(key >= last, "max went backwards: {last} -> {key}");
                            last = key;
                        }
                    }
                })
            })
            .collect();
        for h in writers.into_iter().chain(readers) {
            h.join().unwrap();
        }
        assert_eq!(m.read(), Some((7 * 300 + 299, (7, 299))));
    }
}
