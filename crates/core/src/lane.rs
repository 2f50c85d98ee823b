//! The lock-free lane fast path: seqlock-published top, borrow-state
//! exclusive acquisition, and a wait-free MPSC insert side-buffer.
//!
//! A [`Lane`] replaces the old `Mutex<BinaryHeap<V>>` front door with four
//! cooperating words (DESIGN.md §13):
//!
//! - **`borrow`** — an `AtomicRefCell`-style borrow word holding only the
//!   exclusive-borrow flag ([`EXCL`], held by drains, steals, shrinks and
//!   direct inserts). Acquisition is a single `fetch_or`; a loser has
//!   nothing to undo because the `fetch_or` of an already-set bit is a
//!   no-op, and the holder releases with a plain store.
//! - **`publishers`** — the count of in-flight side-buffer publishers, on
//!   a word of its own so that a borrow release need not preserve it.
//! - **`top_seq`/`top`** — a seqlock-style stamped top-of-lane. `top_seq`
//!   is odd exactly while a *drain-type* exclusive section (one that may
//!   remove the current minimum) is in progress, so a lock-free reader can
//!   tell "this top may be mid-removal" apart from a settled value and
//!   never acts on a torn top-vs-emptiness observation. Insert-type
//!   sections do not bump the stamp: publishing a new top is a single
//!   atomic store and both the old and new value are valid samples.
//! - **`side`** — a Vyukov-style MPSC intrusive queue (stub-node variant of
//!   the Michael–Scott idiom). When an inserter loses the borrow race it
//!   pushes its entry here in two wait-free steps (`swap` + link store) and
//!   leaves; whoever holds the exclusive borrow folds the side-buffer into
//!   the heap at acquire and release, so conservation holds by
//!   construction.
//!
//! The lane also publishes its own element count — the heap length, a
//! single-writer store at guard release, plus a credit that only the side
//! path touches — and [`Lane::empty_stamp`], one read of the double collect
//! behind the queue's quiescent-empty claim. No word of a lane is written
//! by an operation on another lane.
//!
//! **Layout.** A lane fills one 128-byte `CachePadded` slot as two 64-byte
//! lines, split by writer. The first line holds every word the borrow
//! holder writes: `borrow`, `top_seq`, `top`, the published `len` and the
//! heap's header. The second holds the words side publishers write —
//! `tail`, `side_len` and `publishers` — plus the consumer `head`, which a
//! fold writes only when it found side entries. Every insert and
//! deleteMin goes to a random lane, so on two cores about half of all
//! borrows land on a line the other core wrote last; with this split an
//! uncontended borrow moves one line and costs one RMW (the `fetch_or`),
//! and side publishers do not pull the holder's line away from it.
//!
//! This module is the one place in the crate allowed to use `unsafe`: the
//! heap sits in an `UnsafeCell` proven unique by the `EXCL` bit, and the
//! side-buffer nodes are raw-pointer linked. Every `unsafe` block carries
//! its proof obligation inline.

#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::ptr;

use seq_pq::{BinaryHeap, Key, SequentialPriorityQueue};

use crate::sync::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// Sentinel published in [`Lane::top`] ([`Lane::sample_top`]) when the lane
/// holds no element. Inserting `u64::MAX` as a key is rejected at the API
/// boundary (`check_key`) so the sentinel is unambiguous.
pub(crate) const EMPTY_TOP: u64 = u64::MAX;

/// Exclusive-borrow flag: the only value [`Lane::borrow`] holds besides 0.
const EXCL: u64 = 1 << 63;

/// One node of the side-buffer. `value` is an `Option` only so the single
/// consumer can move it out of the node that then becomes the new stub.
struct SideNode<V> {
    next: AtomicPtr<SideNode<V>>,
    key: Key,
    value: Option<V>,
}

/// Vyukov-style MPSC queue with a stub node: multi-producer wait-free
/// `push`, single-consumer `pop` (callers prove single-consumer by holding
/// the lane's exclusive borrow). `repr(C)` keeps its two words where
/// [`Lane`]'s layout puts them.
#[repr(C)]
struct SideQueue<V> {
    /// Consumer-owned head (the current stub); written only under `EXCL`,
    /// atomic so the lock-free emptiness read can compare it with `tail`.
    head: AtomicPtr<SideNode<V>>,
    /// Producer-side tail; the last node whose `next` is still null (or
    /// about to be linked).
    tail: AtomicPtr<SideNode<V>>,
}

impl<V> SideQueue<V> {
    fn new() -> Self {
        let stub = Box::into_raw(Box::new(SideNode {
            next: AtomicPtr::new(ptr::null_mut()),
            key: EMPTY_TOP,
            value: None,
        }));
        Self {
            head: AtomicPtr::new(stub),
            tail: AtomicPtr::new(stub),
        }
    }

    /// Wait-free multi-producer push: two unconditional atomic steps, no
    /// CAS loop. Between the `swap` and the link store the node is
    /// reachable from `tail` but not yet from `head`; the consumer simply
    /// reports empty past that point and retrieves the entry at a later
    /// fold (the publisher count in `Lane::publishers` is what makes a
    /// shrink wait for the link to land).
    fn push(&self, key: Key, value: V) {
        let node = Box::into_raw(Box::new(SideNode {
            next: AtomicPtr::new(ptr::null_mut()),
            key,
            value: Some(value),
        }));
        let prev = self.tail.swap(node, Ordering::AcqRel);
        // SAFETY: `prev` cannot have been freed: the consumer frees a node
        // only after reading a non-null `next` out of it, and `prev.next`
        // stays null until this very store.
        unsafe { (*prev).next.store(node, Ordering::Release) };
    }

    /// Single-consumer pop.
    ///
    /// # Safety
    /// The caller must hold the lane's exclusive borrow (`EXCL`), which is
    /// what makes `head` uniquely owned.
    unsafe fn pop(&self) -> Option<(Key, V)> {
        // SAFETY (whole body): `EXCL` makes us the only thread reading or
        // writing `head`; nodes reachable from `head` were fully published
        // by the `Release` link store that made them reachable, which our
        // `Acquire` load synchronizes with.
        unsafe {
            let head = self.head.load(Ordering::Relaxed);
            let next = (*head).next.load(Ordering::Acquire);
            if next.is_null() {
                return None; // empty, or a push is mid-link
            }
            let key = (*next).key;
            let value = (*next).value.take().expect("side node consumed twice");
            self.head.store(next, Ordering::Release); // `next` becomes the new stub
            drop(Box::from_raw(head));
            Some((key, value))
        }
    }

    /// Whether every push that has started has also been consumed: `tail`
    /// still is the consumer's stub. Unlike `head.next == null` this also
    /// sees a push that has swapped `tail` but not yet linked its node.
    fn is_drained(&self) -> bool {
        let head = self.head.load(Ordering::Acquire);
        self.tail.load(Ordering::Acquire) == head
    }
}

impl<V> Drop for SideQueue<V> {
    fn drop(&mut self) {
        // `&mut self` proves no concurrent producers or consumer, and every
        // completed `push` completed its link store, so the chain is whole.
        // SAFETY: exclusive access per above; `pop`'s requirement (unique
        // consumer) is met trivially.
        unsafe {
            while self.pop().is_some() {}
            drop(Box::from_raw(*self.head.get_mut()));
        }
    }
}

// SAFETY: the queue hands `V`s across threads (producer boxes them,
// consumer unboxes them) but never shares a `&V`, so `V: Send` suffices.
unsafe impl<V: Send> Send for SideQueue<V> {}
// SAFETY: all shared-path mutation goes through atomics; `head` is only
// touched under the caller-supplied exclusive-borrow proof.
unsafe impl<V: Send> Sync for SideQueue<V> {}

/// One lane: borrow word + seqlock-stamped top + heap on the holder's
/// line, side-buffer + side count + publisher count on the publishers'
/// line (module docs, "Layout"). `repr(C)` fixes that field order; the
/// `CachePadded` slot around each lane keeps the pair of lines to itself.
#[repr(C)]
pub(crate) struct Lane<V> {
    // ---- line 1: written by the borrow holder only ----
    /// Borrow word: [`EXCL`] while exclusively borrowed, 0 otherwise.
    borrow: AtomicU64,
    /// Seqlock stamp for `top`: odd while a drain-type exclusive section
    /// is in progress.
    top_seq: AtomicU64,
    /// Cached minimum key, [`EMPTY_TOP`] when the lane is empty. Published
    /// by [`LaneGuard`] release.
    top: AtomicU64,
    /// Heap length as of the last guard release; single writer (the
    /// `EXCL` holder), so a plain store.
    len: AtomicUsize,
    /// The sequential heap; unique access proven by the `EXCL` bit. Only
    /// its header lives here; the entries are on the heap's own allocation.
    heap: UnsafeCell<BinaryHeap<V>>,
    // ---- line 2: written by side publishers (and by non-empty folds) ----
    /// Wait-free insert side-buffer, folded into `heap` under `EXCL`.
    side: SideQueue<V>,
    /// Side-buffered entries not yet folded: credited by side publishers
    /// before their push, debited by the fold that moves them into the
    /// heap. Only the side path ever touches it.
    side_len: AtomicUsize,
    /// In-flight side publishers, registered before their lane-table
    /// re-validation and deregistered after their pushes landed.
    publishers: AtomicU64,
}

// SAFETY: `heap` is only touched, and `side.head` only written, while
// `borrow`'s `EXCL` bit grants unique access (acquire/release on the borrow
// word order those accesses); everything else is atomics. Moving `V`s across threads needs
// `V: Send` only — no `&V` is ever shared.
unsafe impl<V: Send> Send for Lane<V> {}
unsafe impl<V: Send> Sync for Lane<V> {}

impl<V> Lane<V> {
    pub(crate) fn new() -> Self {
        Self {
            borrow: AtomicU64::new(0),
            top_seq: AtomicU64::new(0),
            top: AtomicU64::new(EMPTY_TOP),
            len: AtomicUsize::new(0),
            heap: UnsafeCell::new(BinaryHeap::new()),
            side: SideQueue::new(),
            side_len: AtomicUsize::new(0),
            publishers: AtomicU64::new(0),
        }
    }

    /// Attempts the exclusive borrow; on success returns a guard with
    /// unique heap access, having already folded any settled side-buffer
    /// entries into the heap. A `drain`-type guard (one that may remove
    /// the current minimum) marks `top_seq` odd for its whole critical
    /// section so lock-free top readers can refuse a mid-removal sample.
    ///
    /// Failure is free: `fetch_or` of an already-set bit changed nothing,
    /// so there is no loser cleanup (the AtomicRefCell trick).
    pub(crate) fn try_exclusive(&self, drain: bool) -> Option<LaneGuard<'_, V>> {
        if self.borrow.fetch_or(EXCL, Ordering::Acquire) != 0 {
            return None;
        }
        if drain {
            // Plain load+store: `top_seq` is only written under `EXCL`, so
            // there is exactly one writer — no RMW needed (seqlock idiom).
            let s = self.top_seq.load(Ordering::Relaxed);
            self.top_seq.store(s + 1, Ordering::Release); // odd: mid-drain
        }
        let mut guard = LaneGuard { lane: self, drain };
        guard.fold();
        Some(guard)
    }

    /// Acquires the exclusive borrow, spinning until the current holder
    /// releases. Only drains, steals, resizes and diagnostics block here;
    /// the insert path never does (it side-publishes instead).
    pub(crate) fn exclusive_blocking(&self, drain: bool) -> LaneGuard<'_, V> {
        let mut spins = 0u32;
        loop {
            if let Some(guard) = self.try_exclusive(drain) {
                return guard;
            }
            crate::sync::spin(&mut spins);
        }
    }

    /// Registers an in-flight side publisher in [`Self::publishers`].
    /// `SeqCst` pairs with the `SeqCst` lane-table store in
    /// `resize_locked`: if the publisher's
    /// subsequent table load sees the pre-shrink table, this increment is
    /// ordered before the shrinker's [`Self::wait_inserters_idle`] loop,
    /// so the shrink waits for the push to land (Dekker-style store/load
    /// pairing; see DESIGN.md §13.4).
    pub(crate) fn register_inserter(&self) {
        self.publishers.fetch_add(1, Ordering::SeqCst);
    }

    /// Deregisters a side publisher after its pushes are visible; `Release`
    /// so a shrinker's idle-read of the count synchronizes with the push.
    pub(crate) fn deregister_inserter(&self) {
        self.publishers.fetch_sub(1, Ordering::Release);
    }

    /// Wait-free side-buffer publish of every entry; the caller must be
    /// registered via [`Self::register_inserter`]. The side credit lands
    /// before the pushes, so an entry is never folded (and debited) ahead
    /// of its credit and [`Self::approx_len`] cannot underflow.
    pub(crate) fn side_push_all(&self, entries: &mut impl ExactSizeIterator<Item = (Key, V)>) {
        self.side_len.fetch_add(entries.len(), Ordering::Relaxed);
        for (key, value) in entries {
            self.side.push(key, value);
        }
    }

    /// Spins until no side publisher is in flight. Used by the shrink path
    /// (under a drain-type exclusive borrow) before its final fold:
    /// registered publishers either saw the pre-shrink table (their push
    /// lands before the count returns to zero) or will see the post-shrink
    /// table and deregister without pushing — either way, once the count
    /// is zero the fold is complete.
    pub(crate) fn wait_inserters_idle(&self) {
        let mut spins = 0u32;
        while self.publishers.load(Ordering::SeqCst) != 0 {
            crate::sync::spin(&mut spins);
        }
    }

    /// Seqlock read of the cached top: `None` when a drain-type section is
    /// in progress (stamp odd or moved), `Some(EMPTY_TOP)` for a settled
    /// empty lane. Zero lock acquisitions, and never a torn
    /// top-vs-emptiness observation: a `Some` sample was published by a
    /// completed critical section.
    pub(crate) fn sample_top(&self) -> Option<u64> {
        let s1 = self.top_seq.load(Ordering::Acquire);
        if s1 & 1 != 0 {
            return None;
        }
        let top = self.top.load(Ordering::Acquire);
        if self.top_seq.load(Ordering::Acquire) != s1 {
            return None;
        }
        Some(top)
    }

    /// Raw (possibly mid-drain) read of the cached top, for heuristics and
    /// diagnostics that tolerate staleness.
    pub(crate) fn load_top(&self) -> u64 {
        self.top.load(Ordering::Relaxed)
    }

    /// The lane's element count: heap length at the last release plus
    /// unfolded side credits. Never counts an element twice (a fold debits
    /// the credit before the release republishes the length), exact when
    /// the lane is quiescent.
    pub(crate) fn approx_len(&self) -> usize {
        self.len.load(Ordering::Relaxed) + self.side_len.load(Ordering::Relaxed)
    }

    /// One read of the quiescent-empty double collect: the lane's `top_seq`
    /// when it reads settled empty — borrow word 0 (no `EXCL`), no side
    /// publisher in flight, an even stamp, [`EMPTY_TOP`] published and a
    /// side-buffer whose `tail` is its consumer head — and `None`
    /// otherwise. Two reads returning the same stamp bracket an instant at
    /// which the lane held nothing: an element arriving in between leaves
    /// `top`, the borrow word, the publisher count or `tail` non-empty, and
    /// one leaving in between went through a drain-type section, which
    /// moved the stamp (DESIGN.md §13.3).
    pub(crate) fn empty_stamp(&self) -> Option<u64> {
        if self.borrow.load(Ordering::Acquire) != 0 || self.publishers.load(Ordering::Acquire) != 0
        {
            return None;
        }
        let seq = self.top_seq.load(Ordering::Acquire);
        if seq & 1 != 0 || self.top.load(Ordering::Acquire) != EMPTY_TOP {
            return None;
        }
        self.side.is_drained().then_some(seq)
    }
}

impl<V> fmt::Debug for Lane<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The heap is not readable without the borrow; report the words.
        f.debug_struct("Lane")
            .field("borrowed", &(self.borrow.load(Ordering::Relaxed) != 0))
            .field("publishers", &self.publishers.load(Ordering::Relaxed))
            .field("top", &self.top.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// RAII witness of the exclusive borrow; dereferences to the lane heap.
/// Release folds the side-buffer once more, republishes `top`, closes the
/// seqlock section (drain-type only) and clears the borrow word with a
/// plain store.
pub(crate) struct LaneGuard<'a, V> {
    lane: &'a Lane<V>,
    drain: bool,
}

impl<V> LaneGuard<'_, V> {
    /// Folds every settled side-buffer entry into the heap. Called at
    /// acquire and release automatically; the shrink path also calls it
    /// explicitly after [`Lane::wait_inserters_idle`].
    pub(crate) fn fold(&mut self) {
        // Nothing pushed since the last fold: return on the lane's own
        // words, before touching the stub node (another allocation, whose
        // line a side publisher's link store writes).
        if self.lane.side.is_drained() {
            return;
        }
        let mut folded = 0;
        // SAFETY: the guard witnesses `EXCL`, satisfying `pop`'s
        // single-consumer requirement; the heap reference is unique for
        // the same reason.
        unsafe {
            while let Some((key, value)) = self.lane.side.pop() {
                (*self.lane.heap.get()).push(key, value);
                folded += 1;
            }
        }
        if folded > 0 {
            // Side path only: the uncontended fold finds nothing and
            // performs no RMW.
            self.lane.side_len.fetch_sub(folded, Ordering::Relaxed);
        }
    }
}

impl<V> Deref for LaneGuard<'_, V> {
    type Target = BinaryHeap<V>;
    fn deref(&self) -> &BinaryHeap<V> {
        // SAFETY: `EXCL` is held for the guard's lifetime.
        unsafe { &*self.lane.heap.get() }
    }
}

impl<V> DerefMut for LaneGuard<'_, V> {
    fn deref_mut(&mut self) -> &mut BinaryHeap<V> {
        // SAFETY: `EXCL` is held for the guard's lifetime.
        unsafe { &mut *self.lane.heap.get() }
    }
}

impl<V> Drop for LaneGuard<'_, V> {
    fn drop(&mut self) {
        self.fold();
        let top = self.peek_key().unwrap_or(EMPTY_TOP);
        if self.lane.top.load(Ordering::Relaxed) != top {
            self.lane.top.store(top, Ordering::Release);
        }
        // Single writer under `EXCL`: a plain store on the lane's own line.
        self.lane.len.store(self.len(), Ordering::Relaxed);
        if self.drain {
            // Single writer under `EXCL` (same argument as acquire).
            let s = self.lane.top_seq.load(Ordering::Relaxed);
            self.lane.top_seq.store(s + 1, Ordering::Release); // even again
        }
        // Only the holder writes the borrow word while `EXCL` is set (a
        // loser's `fetch_or` rewrites the same value), so a store releases.
        self.lane.borrow.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_queue_is_fifo_and_frees_everything() {
        let q: SideQueue<String> = SideQueue::new();
        q.push(3, "c".into());
        q.push(1, "a".into());
        q.push(2, "b".into());
        // SAFETY: single-threaded test — trivially the unique consumer.
        unsafe {
            assert_eq!(q.pop(), Some((3, "c".into())));
            assert_eq!(q.pop(), Some((1, "a".into())));
        }
        // One entry left; Drop must free it plus the stub (miri/asan
        // territory, but the test at least exercises the path).
    }

    #[test]
    fn exclusive_borrow_is_mutual_and_cheap_to_lose() {
        let lane: Lane<u32> = Lane::new();
        let g = lane.try_exclusive(false).expect("uncontended");
        assert!(lane.try_exclusive(false).is_none());
        assert!(lane.try_exclusive(true).is_none());
        drop(g);
        assert!(lane.try_exclusive(true).is_some());
    }

    #[test]
    fn drain_sections_hide_top_from_samplers() {
        let lane: Lane<u32> = Lane::new();
        {
            let mut g = lane.try_exclusive(false).expect("uncontended");
            g.push(7, 70);
        }
        assert_eq!(lane.sample_top(), Some(7));
        {
            let g = lane.try_exclusive(true).expect("uncontended");
            assert_eq!(lane.sample_top(), None, "mid-drain sample must refuse");
            drop(g);
        }
        assert_eq!(lane.sample_top(), Some(7));
    }

    #[test]
    fn guard_folds_side_entries_and_republishes_top() {
        let lane: Lane<u32> = Lane::new();
        let g = lane.try_exclusive(false).expect("uncontended");
        lane.register_inserter();
        lane.side_push_all(&mut std::iter::once((5, 50)));
        lane.deregister_inserter();
        assert_eq!(lane.approx_len(), 1, "side credit counts before the fold");
        assert_eq!(lane.empty_stamp(), None, "borrowed and side-buffered");
        drop(g); // release fold picks the entry up
        assert_eq!(lane.sample_top(), Some(5));
        assert_eq!(lane.approx_len(), 1, "folded: counted once, in the heap");
        let mut g = lane.try_exclusive(true).expect("uncontended");
        assert_eq!(g.pop(), Some((5, 50)));
        drop(g);
        assert_eq!(lane.sample_top(), Some(EMPTY_TOP));
        assert_eq!(lane.approx_len(), 0);
        assert_eq!(lane.empty_stamp(), Some(2), "two drain sections, even");
    }

    /// The layout the module docs promise: every word the borrow holder
    /// writes on the slot's first line, every word a side publisher writes
    /// on its second, and still one 128-byte slot per lane. (The explorer's
    /// atomic wrappers are laid out differently, hence the gate.)
    #[cfg(not(feature = "check"))]
    #[test]
    fn holder_and_publisher_words_sit_on_separate_lines() {
        use crossbeam_utils::CachePadded;
        use std::mem::{offset_of, size_of};
        type L = Lane<u64>;
        let holder = [
            ("borrow", offset_of!(L, borrow), size_of::<AtomicU64>()),
            ("top_seq", offset_of!(L, top_seq), size_of::<AtomicU64>()),
            ("top", offset_of!(L, top), size_of::<AtomicU64>()),
            ("len", offset_of!(L, len), size_of::<AtomicUsize>()),
            ("heap", offset_of!(L, heap), size_of::<BinaryHeap<u64>>()),
        ];
        for (name, offset, size) in holder {
            assert!(
                offset + size <= 64,
                "holder word `{name}` at {offset}+{size}"
            );
        }
        let publisher = [
            (
                "tail",
                offset_of!(L, side) + offset_of!(SideQueue<u64>, tail),
                size_of::<AtomicPtr<SideNode<u64>>>(),
            ),
            (
                "side_len",
                offset_of!(L, side_len),
                size_of::<AtomicUsize>(),
            ),
            (
                "publishers",
                offset_of!(L, publishers),
                size_of::<AtomicU64>(),
            ),
        ];
        for (name, offset, size) in publisher {
            assert!(
                (64..=128 - size).contains(&offset),
                "publisher word `{name}` at {offset}+{size}"
            );
        }
        assert_eq!(
            size_of::<CachePadded<L>>(),
            128,
            "one 128-byte slot per lane"
        );
    }

    /// The release store clears the borrow only: a publisher that
    /// registered during the section is still counted afterwards.
    #[test]
    fn release_keeps_a_publisher_registered_and_debug_shows_both_words() {
        let lane: Lane<u32> = Lane::new();
        let g = lane.try_exclusive(false).expect("uncontended");
        lane.register_inserter();
        let shown = format!("{lane:?}");
        assert!(shown.contains("borrowed: true, publishers: 1"), "{shown}");
        drop(g);
        let shown = format!("{lane:?}");
        assert!(shown.contains("borrowed: false, publishers: 1"), "{shown}");
        assert_eq!(lane.empty_stamp(), None, "publisher still in flight");
        lane.deregister_inserter();
        assert_eq!(lane.empty_stamp(), Some(0));
    }

    #[test]
    fn empty_stamp_sees_an_unfolded_side_entry() {
        let lane: Lane<u32> = Lane::new();
        assert_eq!(lane.empty_stamp(), Some(0));
        lane.register_inserter();
        assert_eq!(lane.empty_stamp(), None, "publisher in flight");
        lane.side_push_all(&mut std::iter::once((5, 50)));
        lane.deregister_inserter();
        // Top still reads empty (nothing folded yet); only `tail` shows it.
        assert_eq!(lane.load_top(), EMPTY_TOP);
        assert_eq!(lane.empty_stamp(), None, "unfolded side entry");
    }
}
