//! Sequential priority queue substrates.
//!
//! The MultiQueue of the paper is built from `n` *sequential* priority queues,
//! each protected by its own lock (the original implementation uses boost
//! d-ary heaps). This crate provides several interchangeable sequential
//! implementations behind the [`SequentialPriorityQueue`] trait:
//!
//! * [`BinaryHeap`] — an array-backed binary min-heap (one `Vec` of
//!   `(key, seq, value)` slots, hole-based sifting, bottom-up pop);
//!   the default lane used by the concurrent MultiQueue.
//! * [`PairingHeap`] — a pointer-based pairing heap
//!   with `O(1)` insert and amortised `O(log n)` pop; useful when the workload
//!   is insert-heavy.
//! * [`SkipListPq`] — a randomized skiplist keeping all
//!   elements in sorted order, mirroring the structure used by skiplist-based
//!   concurrent priority queues such as Linden–Jonsson.
//! * [`BucketQueue`] — a monotone bucket queue for
//!   bounded integer priorities, the classic structure for Dijkstra with small
//!   edge weights.
//!
//! All queues are **min**-queues over `(key, value)` pairs: `pop` returns the
//! entry with the smallest key, matching the paper's convention that a smaller
//! label means a higher priority.
//!
//! # Example
//!
//! ```
//! use seq_pq::{BinaryHeap, SequentialPriorityQueue};
//!
//! let mut pq = BinaryHeap::new();
//! pq.push(30, "c");
//! pq.push(10, "a");
//! pq.push(20, "b");
//! assert_eq!(pq.peek(), Some((10, &"a")));
//! assert_eq!(pq.pop(), Some((10, "a")));
//! assert_eq!(pq.len(), 2);
//! ```

//!
//! # Unsafe code
//!
//! `unsafe` is denied crate-wide and re-allowed in exactly one private
//! module: the `sift` module of [`binary_heap`], whose `Hole` moves entries
//! with `ptr::read` / `ptr::copy_nonoverlapping` instead of swapping them.
//! Every `unsafe` block there carries a `// SAFETY:` comment, which clippy
//! enforces (`undocumented_unsafe_blocks`).

// `unsafe` is denied crate-wide and re-allowed only in `binary_heap::sift`.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod binary_heap;
pub mod bucket_queue;
pub mod pairing_heap;
pub mod skiplist;

pub use binary_heap::BinaryHeap;
pub use bucket_queue::BucketQueue;
pub use pairing_heap::PairingHeap;
pub use skiplist::SkipListPq;

/// The priority key type used throughout the workspace.
///
/// Smaller keys are higher priority. `u64` covers timestamps, path distances
/// and the strictly increasing labels of the sequential process.
pub type Key = u64;

/// A sequential min-priority queue over `(Key, V)` entries.
///
/// Implementations are not thread-safe by themselves; the concurrent
/// MultiQueue wraps each instance in its own lock.
pub trait SequentialPriorityQueue<V> {
    /// Inserts an entry.
    fn push(&mut self, key: Key, value: V);

    /// Returns the minimum-key entry without removing it.
    fn peek(&self) -> Option<(Key, &V)>;

    /// Returns the minimum key without removing it (cheaper than [`Self::peek`]
    /// for implementations that cache it).
    fn peek_key(&self) -> Option<Key> {
        self.peek().map(|(k, _)| k)
    }

    /// Removes and returns the minimum-key entry.
    fn pop(&mut self) -> Option<(Key, V)>;

    /// Number of stored entries.
    fn len(&self) -> usize;

    /// Returns `true` if the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all entries.
    fn clear(&mut self);
}

/// Which sequential queue implementation to use for a MultiQueue lane.
///
/// This is a plain configuration enum so benchmarks can sweep backends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Array-backed binary min-heap (default).
    #[default]
    BinaryHeap,
    /// Pairing heap.
    PairingHeap,
    /// Skiplist-based priority queue.
    SkipList,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::BinaryHeap => write!(f, "binary-heap"),
            Backend::PairingHeap => write!(f, "pairing-heap"),
            Backend::SkipList => write!(f, "skiplist"),
        }
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn exercise<Q: SequentialPriorityQueue<u64> + Default>() {
        let mut q = Q::default();
        assert!(q.is_empty());
        assert_eq!(q.peek_key(), None);
        q.push(5, 50);
        q.push(3, 30);
        q.push(8, 80);
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_key(), Some(3));
        assert_eq!(q.pop(), Some((3, 30)));
        assert_eq!(q.pop(), Some((5, 50)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn all_backends_satisfy_the_trait_contract() {
        exercise::<BinaryHeap<u64>>();
        exercise::<PairingHeap<u64>>();
        exercise::<SkipListPq<u64>>();
    }

    #[test]
    fn backend_display_names() {
        assert_eq!(Backend::BinaryHeap.to_string(), "binary-heap");
        assert_eq!(Backend::PairingHeap.to_string(), "pairing-heap");
        assert_eq!(Backend::SkipList.to_string(), "skiplist");
        assert_eq!(Backend::default(), Backend::BinaryHeap);
    }
}
