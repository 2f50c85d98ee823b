//! Array-backed binary min-heap.
//!
//! This is the default lane of the concurrent MultiQueue. It is written from
//! scratch (rather than wrapping `std::collections::BinaryHeap`) so that we
//! control tie-breaking, expose `peek_key` without constructing a `Reverse`
//! wrapper, and keep insertion-order stability for equal keys — useful when
//! the sequential process inserts strictly increasing labels and we want
//! deterministic behaviour for duplicate priorities in applications.
//!
//! # Layout
//!
//! One `Vec<(Key, u64, V)>` in implicit binary-tree order: the children of
//! slot `i` are `2i + 1` and `2i + 2`. The middle field is a per-heap
//! insertion sequence number, so every entry carries a unique rank
//! `(key, seq)` and the heap is ordered by that pair alone. Because ranks
//! never tie, the pop sequence is a function of the pushes only — not of
//! the sifting strategy or the resulting slot layout.
//!
//! # Sifting with a hole
//!
//! Both sift directions move entries into a *hole* instead of swapping
//! them, as `std::collections::BinaryHeap` does. The moving entry is read
//! out of its slot once, every step copies one neighbour into the vacated
//! slot, and the entry is written back once where the walk stops:
//!
//! - `push` appends the entry and sifts it up, moving parents down into the
//!   hole with one rank comparison per level.
//! - `pop` takes the root and puts the last entry in its place, then sifts
//!   it *bottom-up*: the hole walks the smaller-child path all the way to a
//!   leaf, one comparison per level, and the entry is sifted back up from
//!   there. The old last entry came from the bottom level, so it tends to
//!   belong near the bottom and climbs back little, and the walk saves the
//!   second comparison per level a classic sift-down makes.
//!
//! The hole lives in the private `sift` module, the one place in the crate
//! allowed to use `unsafe` (`ptr::read`, `ptr::copy_nonoverlapping` and a
//! `Drop` that writes the entry back). Every `unsafe` block in it carries
//! its proof obligation inline.

use crate::{Key, SequentialPriorityQueue};

/// One slot of the heap: key, insertion sequence number, value.
type Entry<V> = (Key, u64, V);

/// An array-backed binary min-heap of `(Key, V)` entries.
///
/// Ties on `Key` are broken by insertion order (earlier insertions pop first),
/// which makes the structure stable and keeps runs reproducible.
#[derive(Clone, Debug)]
pub struct BinaryHeap<V> {
    // Each slot stores (key, sequence, value); `sequence` implements stability.
    entries: Vec<Entry<V>>,
    next_sequence: u64,
}

impl<V> Default for BinaryHeap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> BinaryHeap<V> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
            next_sequence: 0,
        }
    }

    /// Creates an empty heap with space reserved for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            entries: Vec::with_capacity(capacity),
            next_sequence: 0,
        }
    }

    /// Current capacity of the backing storage.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Checks the heap invariant; used by tests and `debug_assert!`s.
    pub fn is_valid_heap(&self) -> bool {
        let rank = |(k, s, _): &Entry<V>| (*k, *s);
        (1..self.entries.len()).all(|i| rank(&self.entries[i]) > rank(&self.entries[(i - 1) / 2]))
    }

    /// Iterates over all entries in unspecified (heap) order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &V)> {
        self.entries.iter().map(|(k, _, v)| (*k, v))
    }
}

impl<V> SequentialPriorityQueue<V> for BinaryHeap<V> {
    fn push(&mut self, key: Key, value: V) {
        let seq = self.next_sequence;
        self.next_sequence += 1;
        let pos = self.entries.len();
        self.entries.push((key, seq, value));
        sift::sift_up(&mut self.entries, pos);
    }

    fn peek(&self) -> Option<(Key, &V)> {
        self.entries.first().map(|(k, _, v)| (*k, v))
    }

    fn peek_key(&self) -> Option<Key> {
        self.entries.first().map(|(k, _, _)| *k)
    }

    fn pop(&mut self) -> Option<(Key, V)> {
        let mut item = self.entries.pop()?;
        if let Some(root) = self.entries.first_mut() {
            std::mem::swap(&mut item, root);
            sift::sift_down_to_bottom(&mut self.entries);
        }
        let (key, _, value) = item;
        Some((key, value))
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.next_sequence = 0;
    }
}

/// Hole-based sifting over the heap's slots: the crate's only `unsafe` code.
#[allow(unsafe_code)]
#[warn(unsafe_op_in_unsafe_fn)]
mod sift {
    use super::Entry;
    use crate::Key;
    use std::mem::ManuallyDrop;
    use std::ptr;

    /// A slot whose entry has been read out and is held in `elt`.
    ///
    /// While the hole exists, `data[pos]` is logically uninitialised (its
    /// bits are a stale duplicate of `elt` or of an entry moved out of it).
    /// Every other slot holds exactly one live entry. Dropping the hole
    /// writes `elt` into `data[pos]`, restoring "every slot live, every
    /// entry once" even if a caller unwinds.
    struct Hole<'a, V> {
        data: &'a mut [Entry<V>],
        elt: ManuallyDrop<Entry<V>>,
        pos: usize,
    }

    impl<'a, V> Hole<'a, V> {
        /// Opens a hole at `pos`, taking its entry into the hole.
        ///
        /// # Safety
        ///
        /// `pos` must be in bounds of `data`.
        #[inline]
        unsafe fn new(data: &'a mut [Entry<V>], pos: usize) -> Self {
            debug_assert!(pos < data.len());
            // SAFETY: `pos` is in bounds (caller contract), so the read is of
            // an initialised entry. The slot now counts as vacant: nothing
            // reads it as an entry again until `Drop` overwrites it, and the
            // copy in `elt` is the only live one.
            let elt = unsafe { ptr::read(data.get_unchecked(pos)) };
            Hole {
                data,
                elt: ManuallyDrop::new(elt),
                pos,
            }
        }

        #[inline]
        fn pos(&self) -> usize {
            self.pos
        }

        /// The rank of the entry held in the hole.
        #[inline]
        fn rank(&self) -> (Key, u64) {
            (self.elt.0, self.elt.1)
        }

        /// The rank of the entry in slot `index`.
        ///
        /// # Safety
        ///
        /// `index` must be in bounds and must not be the hole's position.
        #[inline]
        unsafe fn rank_at(&self, index: usize) -> (Key, u64) {
            debug_assert!(index != self.pos);
            debug_assert!(index < self.data.len());
            // SAFETY: `index` is in bounds and is not the vacant slot
            // (caller contract), so it holds a live entry; only its `Copy`
            // key and sequence fields are read.
            let entry = unsafe { self.data.get_unchecked(index) };
            (entry.0, entry.1)
        }

        /// Moves the entry in slot `index` into the hole's slot; the hole
        /// moves to `index`.
        ///
        /// # Safety
        ///
        /// `index` must be in bounds and must not be the hole's position.
        #[inline]
        unsafe fn move_to(&mut self, index: usize) {
            debug_assert!(index != self.pos);
            debug_assert!(index < self.data.len());
            // SAFETY: both indices are in bounds (`pos` by the type
            // invariant, `index` by the caller) and differ, so the two
            // one-element ranges do not overlap. The live entry at `index`
            // is moved, not duplicated: its old slot becomes the new hole.
            unsafe {
                let base = self.data.as_mut_ptr();
                ptr::copy_nonoverlapping(base.add(index), base.add(self.pos), 1);
            }
            self.pos = index;
        }
    }

    impl<V> Drop for Hole<'_, V> {
        #[inline]
        fn drop(&mut self) {
            // SAFETY: `pos` is in bounds and is the one vacant slot, so
            // writing `elt` there leaves every slot holding exactly one live
            // entry. `elt` is `ManuallyDrop` and not used after this, so the
            // entry is not dropped here as well.
            unsafe {
                let pos = self.pos;
                ptr::copy_nonoverlapping(&*self.elt, self.data.get_unchecked_mut(pos), 1);
            }
        }
    }

    /// Sifts the entry at `pos` towards the root, moving larger parents
    /// down into the hole.
    ///
    /// # Panics
    ///
    /// If `pos` is out of bounds.
    #[inline]
    pub(super) fn sift_up<V>(data: &mut [Entry<V>], pos: usize) {
        assert!(pos < data.len(), "sift_up position out of bounds");
        // SAFETY: `pos` is in bounds (asserted above).
        let mut hole = unsafe { Hole::new(data, pos) };
        let rank = hole.rank();
        while hole.pos() > 0 {
            let parent = (hole.pos() - 1) / 2;
            // SAFETY: `parent < hole.pos()`, so it is in bounds and is not
            // the hole.
            if rank > unsafe { hole.rank_at(parent) } {
                break;
            }
            // SAFETY: as above.
            unsafe { hole.move_to(parent) };
        }
    }

    /// Restores the heap after the root slot was overwritten: walks a hole
    /// from the root down the smaller-child path to a leaf, then sifts the
    /// old root entry back up from there (bottom-up deletion).
    #[inline]
    pub(super) fn sift_down_to_bottom<V>(data: &mut [Entry<V>]) {
        let end = data.len();
        if end == 0 {
            return;
        }
        // SAFETY: slot 0 is in bounds (`end > 0`).
        let mut hole = unsafe { Hole::new(data, 0) };
        let mut child = 1;
        // Both children exist while `child + 1 < end`. The step is written
        // as a branch, not as `child += (right < left) as usize`: a
        // predicted branch lets the CPU start loading the next level before
        // this comparison resolves, while a select makes every level's
        // cache miss wait for the previous one (on a 2^19-entry heap on a
        // 2-vCPU Xeon VM the select measured 273-280 ns per push + pop, the
        // branch 152-162; DESIGN.md §13.7).
        while child + 1 < end {
            // SAFETY: `child` and `child + 1` are below `end` and both are
            // children of the hole, so neither is the hole.
            if unsafe { hole.rank_at(child + 1) < hole.rank_at(child) } {
                // SAFETY: as above.
                unsafe { hole.move_to(child + 1) };
                child = 2 * child + 3;
            } else {
                // SAFETY: as above.
                unsafe { hole.move_to(child) };
                child = 2 * child + 1;
            }
        }
        if child + 1 == end {
            // SAFETY: `child == end - 1` is in bounds and is a child of the
            // hole.
            unsafe { hole.move_to(child) };
        }
        let pos = hole.pos();
        drop(hole);
        sift_up(data, pos);
    }
}

impl<V> FromIterator<(Key, V)> for BinaryHeap<V> {
    fn from_iter<I: IntoIterator<Item = (Key, V)>>(iter: I) -> Self {
        let mut heap = Self::new();
        for (k, v) in iter {
            heap.push(k, v);
        }
        heap
    }
}

impl<V> Extend<(Key, V)> for BinaryHeap<V> {
    fn extend<I: IntoIterator<Item = (Key, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.push(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::collections::BTreeSet;

    #[test]
    fn empty_heap() {
        let mut h: BinaryHeap<()> = BinaryHeap::new();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(h.peek(), None);
        assert_eq!(h.peek_key(), None);
        assert_eq!(h.pop(), None);
        assert!(h.is_valid_heap());
    }

    #[test]
    fn push_pop_sorted_order() {
        let mut h = BinaryHeap::new();
        for k in [9u64, 4, 7, 1, 8, 2, 6, 3, 5, 0] {
            h.push(k, k * 10);
        }
        assert!(h.is_valid_heap());
        let mut out = Vec::new();
        while let Some((k, v)) = h.pop() {
            assert_eq!(v, k * 10);
            out.push(k);
        }
        assert_eq!(out, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut h = BinaryHeap::new();
        h.push(5, "first");
        h.push(5, "second");
        h.push(5, "third");
        assert_eq!(h.pop(), Some((5, "first")));
        assert_eq!(h.pop(), Some((5, "second")));
        assert_eq!(h.pop(), Some((5, "third")));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut h = BinaryHeap::new();
        h.push(2, 'b');
        h.push(1, 'a');
        assert_eq!(h.peek(), Some((1, &'a')));
        assert_eq!(h.peek_key(), Some(1));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn clear_resets_state() {
        let mut h: BinaryHeap<u32> = (0..10u64).map(|k| (k, k as u32)).collect();
        assert_eq!(h.len(), 10);
        h.clear();
        assert!(h.is_empty());
        h.push(3, 3);
        assert_eq!(h.pop(), Some((3, 3)));
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut h: BinaryHeap<&str> = vec![(3, "c"), (1, "a")].into_iter().collect();
        h.extend(vec![(2, "b")]);
        assert_eq!(h.pop(), Some((1, "a")));
        assert_eq!(h.pop(), Some((2, "b")));
        assert_eq!(h.pop(), Some((3, "c")));
    }

    #[test]
    fn interleaved_push_pop_maintains_invariant() {
        let mut h = BinaryHeap::new();
        for round in 0..50u64 {
            for k in 0..20u64 {
                h.push((k * 7919 + round * 104729) % 1000, ());
            }
            for _ in 0..10 {
                h.pop();
            }
            assert!(h.is_valid_heap());
        }
    }

    #[test]
    fn iter_visits_every_entry() {
        let h: BinaryHeap<u64> = (0..25u64).map(|k| (k, k)).collect();
        let mut keys: Vec<Key> = h.iter().map(|(k, _)| k).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..25).collect::<Vec<u64>>());
    }

    /// A value that counts its own drops in a shared table.
    struct Counted<'a> {
        id: usize,
        drops: &'a [Cell<u32>],
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            let cell = &self.drops[self.id];
            cell.set(cell.get() + 1);
        }
    }

    #[test]
    fn every_value_drops_exactly_once() {
        const VALUES: usize = 300;
        let drops: Vec<Cell<u32>> = (0..VALUES).map(|_| Cell::new(0)).collect();
        let counted = |id: usize| Counted { id, drops: &drops };
        // Keys repeat and arrive out of order so both sift paths move entries.
        let key = |id: usize| ((id * 7919) % 61) as Key;
        let mut held = Vec::new();
        {
            let mut h = BinaryHeap::new();
            for id in 0..100 {
                h.push(key(id), counted(id));
            }
            for _ in 0..40 {
                let (_, value) = h.pop().expect("non-empty");
                held.push(value);
            }
            assert!(
                drops.iter().all(|d| d.get() == 0),
                "popped values are still held"
            );
            for id in 100..150 {
                h.push(key(id), counted(id));
                h.pop();
            }
            assert!(h.is_valid_heap());
            h.clear();
            assert!(h.is_empty());
            let dropped: u32 = drops.iter().map(Cell::get).sum();
            assert_eq!(dropped, 150 - 40, "clear drops every entry it held");
            for id in 150..VALUES {
                h.push(key(id), counted(id));
            }
            for _ in 0..70 {
                h.pop();
            }
            assert!(h.is_valid_heap());
            assert_eq!(h.len(), VALUES - 150 - 70);
            // The non-empty heap drops here.
        }
        for value in &held {
            assert_eq!(
                drops[value.id].get(),
                0,
                "value {} dropped while held",
                value.id
            );
        }
        drop(held);
        for (id, d) in drops.iter().enumerate() {
            assert_eq!(d.get(), 1, "value {id} dropped {} times", d.get());
        }
    }

    proptest! {
        #[test]
        fn prop_pop_order_matches_sorted_input(mut keys in proptest::collection::vec(0u64..10_000, 0..300)) {
            let mut heap = BinaryHeap::new();
            for &k in &keys {
                heap.push(k, ());
                prop_assert!(heap.is_valid_heap());
            }
            let mut popped = Vec::new();
            while let Some((k, ())) = heap.pop() {
                popped.push(k);
            }
            keys.sort_unstable();
            prop_assert_eq!(popped, keys);
        }

        #[test]
        fn prop_len_tracks_operations(ops in proptest::collection::vec(proptest::option::of(0u64..100), 0..200)) {
            // Some(k) = push k, None = pop.
            let mut heap = BinaryHeap::new();
            let mut expected_len = 0usize;
            for op in ops {
                match op {
                    Some(k) => {
                        heap.push(k, k);
                        expected_len += 1;
                    }
                    None => {
                        let had = heap.pop().is_some();
                        if had {
                            expected_len -= 1;
                        }
                    }
                }
                prop_assert_eq!(heap.len(), expected_len);
                prop_assert!(heap.is_valid_heap());
            }
        }

        #[test]
        fn prop_heavy_ties_pop_in_stable_order(ops in proptest::collection::vec(proptest::option::of(0u64..8), 0..400)) {
            // Some(k) = push k, None = pop. The model pops the smallest
            // (key, insertion index): a stable sort by key.
            let mut heap = BinaryHeap::new();
            let mut model = BTreeSet::new();
            for (index, op) in ops.into_iter().enumerate() {
                match op {
                    Some(k) => {
                        heap.push(k, index);
                        model.insert((k, index));
                    }
                    None => prop_assert_eq!(heap.pop(), model.pop_first()),
                }
                prop_assert!(heap.is_valid_heap());
                prop_assert_eq!(heap.len(), model.len());
                prop_assert_eq!(heap.peek_key(), model.first().map(|&(k, _)| k));
            }
            while let Some(entry) = heap.pop() {
                prop_assert_eq!(Some(entry), model.pop_first());
                prop_assert!(heap.is_valid_heap());
            }
            prop_assert!(model.is_empty());
        }

        #[test]
        fn prop_peek_is_minimum(keys in proptest::collection::vec(0u64..1_000, 1..100)) {
            let heap: BinaryHeap<()> = keys.iter().map(|&k| (k, ())).collect();
            let min = *keys.iter().min().unwrap();
            prop_assert_eq!(heap.peek_key(), Some(min));
        }
    }
}
