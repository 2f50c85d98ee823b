//! The lane fast-path protocol under the interleaving explorer.
//!
//! Two layers, mirroring `check_lane_table`:
//!
//! 1. **The production `MultiQueue`** compiled with `--features check`, driven
//!    straight into the historical batched-insert `len` underflow window
//!    (first test below — it failed before the fix moved the `len` credit
//!    under the exclusive borrow; the global counter is gone since, and the
//!    per-lane counts must keep the same bounds).
//! 2. **A coarsened model of the lane protocol** (DESIGN.md §13): the borrow
//!    word, the publisher word, the seqlock-stamped top, the side-buffer
//!    fold points, the Dekker-style publisher-count/shrink pairing and the
//!    double-collect quiescent-empty claim, each proven exhaustively clean
//!    — and each tempting shortcut (top published before the heap update,
//!    side-buffer folded after the pop, publisher count decremented before
//!    the push lands, the count packed into a borrow word that is released
//!    with a store, a single collect, a collect that ignores the
//!    side-buffer `tail`) shown to fail, with the failing schedule replayed
//!    live and from a pinned string.
//!
//! Run with: `cargo test --features check --test check_lane_fastpath`

#![cfg(feature = "check")]

use std::sync::Arc;

use check::sync::{AtomicU64, Ordering};
use choice_check as check;
use choice_pq::{HandlePolicy, MultiQueue, MultiQueueConfig, PqHandle, SharedPq};

/// Regression model for the batched-insert `len` underflow: a batch flush
/// used to publish its elements into the lane heap under the lane lock but
/// bump the global `len` only after releasing it, so a drain scheduled into
/// that window popped the elements and `fetch_sub`'d `len` below zero —
/// wrapping `approx_len()` to ~2^64. The explorer drives the production
/// queue straight into that window. The count is per lane now (published
/// heap length plus side credits), and the same bounds must hold: never
/// more than was inserted, exact at quiescence.
#[test]
fn batched_insert_never_underflows_len() {
    let schedules = check::schedule_budget(2_000);
    check::model_with(
        check::Config {
            max_steps: 20_000,
            ..check::Config::random(schedules, 0xBA7C4)
        },
        || {
            let q = Arc::new(MultiQueue::<u64>::new(
                MultiQueueConfig::with_queues(1).with_seed(11),
            ));
            // One element pre-published so the racing drain has work before
            // the batch lands.
            q.register_with(HandlePolicy::plain()).insert(0, 0);
            let qa = Arc::clone(&q);
            let inserter = check::spawn(move || {
                let mut h = qa.register_with(HandlePolicy::plain().with_insert_batch(2));
                h.insert(1, 1);
                h.insert(2, 2); // second buffered insert flushes the batch
            });
            let qb = Arc::clone(&q);
            let drainer = check::spawn(move || {
                let mut h = qb.register_with(HandlePolicy::plain());
                let mut out = Vec::new();
                for _ in 0..2 {
                    h.delete_min_batch_into(3, &mut out);
                    let len = qb.approx_len();
                    assert!(
                        len <= 3,
                        "approx_len() exceeds total-inserted: {len} (len underflow)"
                    );
                }
                out.len()
            });
            inserter.join();
            let drained = drainer.join();
            let len = q.approx_len();
            assert!(
                len <= 3,
                "approx_len() exceeds total-inserted at quiescence: {len}"
            );
            assert_eq!(len, 3 - drained, "conservation: len + drained == inserted");
        },
    );
}

// ---------------------------------------------------------------------------
// Coarsened protocol model (DESIGN.md §13).
//
// `crate::lane::Lane` reduced to what the protocol orders: the borrow word
// (`EXCL` or 0, released with a plain store), the publisher word (in-flight
// side publishers), the seqlock stamp, the published top and the
// side-buffer's producer `tail` / consumer `head`. Each model moves a
// single element (key 5), so the heap and the side-buffer coarsen to
// one-element atomic slots (0 = empty) and `tail`/`head` to counters of
// pushes started / consumed — the real heap is an `UnsafeCell` proven unique
// by `EXCL` and the real side-buffer a wait-free MPSC list, and neither adds
// protocol-relevant interleavings beyond the atomic visibility the slots
// keep. One schedule point per touch keeps every model small enough for
// the DFS to exhaust.
//
// `present` is a ghost, not part of the protocol: a plain `std` atomic
// (no schedule point) counting the elements in the lane, moved in the same
// step as the access that makes an element enter (the `tail` swap, the
// direct heap store) or leave (the pop). Only one virtual thread runs at a
// time, so reading it gives the exact state at that instant.
// ---------------------------------------------------------------------------

const EMPTY: u64 = u64::MAX;
const EXCL: u64 = 1 << 63;
/// Low bits of a borrow word that also carries the publisher count (the
/// `split_publisher_word: false` variant only).
const COUNT_MASK: u64 = EXCL - 1;

/// Which orderings the model performs faithfully. Each `false` is one of
/// the tempting mis-orderings the protocol comments warn about.
#[derive(Clone, Copy)]
struct Variant {
    /// Publish `top` only after the element is in the heap (the real
    /// protocol); `false` advertises the top first.
    top_after_element: bool,
    /// Fold the side-buffer into the heap *before* popping (the real
    /// protocol's fold-at-acquire); `false` folds only at release.
    fold_before_pop: bool,
    /// Keep the publisher count up until the side push lands (the real
    /// protocol); `false` is the blind decrement before the push.
    deregister_after_push: bool,
    /// Count publishers on a word of their own (the real protocol);
    /// `false` packs the count into the borrow word, whose release is still
    /// a plain store — so a release wipes in-flight registrations.
    split_publisher_word: bool,
    /// Read every lane twice and claim emptiness only if both collects
    /// agree (the real protocol); `false` trusts a single collect.
    double_collect: bool,
    /// Require the side-buffer `tail` to equal the consumer head (the real
    /// protocol); `false` ignores the side-buffer in the emptiness read.
    collect_reads_tail: bool,
}

const FAITHFUL: Variant = Variant {
    top_after_element: true,
    fold_before_pop: true,
    deregister_after_push: true,
    split_publisher_word: true,
    double_collect: true,
    collect_reads_tail: true,
};

/// One lane, coarsened to single-element heap/side slots.
struct LaneModel {
    /// Borrow word: [`EXCL`] while borrowed, 0 otherwise.
    borrow: AtomicU64,
    /// Publisher word: in-flight side publishers.
    publishers: AtomicU64,
    /// Seqlock stamp: odd while a drain-type exclusive section runs.
    top_seq: AtomicU64,
    /// Published cached minimum ([`EMPTY`] for an empty lane).
    top: AtomicU64,
    /// Side-buffer slot: the key, or 0 for empty.
    side: AtomicU64,
    /// Side-buffer producer end: pushes started (the real `tail.swap`).
    tail: AtomicU64,
    /// Side-buffer consumer end: pushes folded (the real stub `head`).
    head: AtomicU64,
    /// Heap slot: the key, or 0 for empty.
    heap: AtomicU64,
    /// Ghost element count (see the section comment).
    present: std::sync::atomic::AtomicU64,
}

impl LaneModel {
    fn new() -> Self {
        Self {
            borrow: AtomicU64::new(0),
            publishers: AtomicU64::new(0),
            top_seq: AtomicU64::new(0),
            top: AtomicU64::new(EMPTY),
            side: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            head: AtomicU64::new(0),
            heap: AtomicU64::new(0),
            present: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Ghost bookkeeping; never a schedule point.
    fn ghost(&self, delta: i64) {
        self.present
            .fetch_add(delta as u64, std::sync::atomic::Ordering::SeqCst);
    }

    /// The word side publishers register in: its own, or — in the packed
    /// variant — the borrow word.
    fn publisher_word(&self, variant: Variant) -> &AtomicU64 {
        if variant.split_publisher_word {
            &self.publishers
        } else {
            &self.borrow
        }
    }

    /// `try_exclusive`: one `fetch_or`; `false` when already borrowed.
    fn try_borrow(&self) -> bool {
        self.borrow.fetch_or(EXCL, Ordering::AcqRel) & EXCL == 0
    }

    /// `LaneGuard::drop`'s release: a plain store.
    fn release(&self) {
        self.borrow.store(0, Ordering::Release);
    }

    /// The wait-free side push: `tail` swap (the element is now in the
    /// lane), then the link store that makes it foldable.
    fn side_push(&self, key: u64) {
        self.tail.fetch_add(1, Ordering::AcqRel);
        self.ghost(1);
        self.side.store(key, Ordering::Release);
    }

    /// Folds the side slot into the heap slot (caller holds `EXCL`).
    fn fold(&self) {
        let k = self.side.swap(0, Ordering::AcqRel);
        if k != 0 {
            self.heap.store(k, Ordering::Release);
            // Single writer under `EXCL`; one step keeps the DFS small.
            self.head.fetch_add(1, Ordering::Release);
        }
    }

    /// Pops the heap slot (caller holds `EXCL`).
    fn pop_min(&self) -> Option<u64> {
        let k = self.heap.swap(0, Ordering::AcqRel);
        if k != 0 {
            self.ghost(-1);
        }
        (k != 0).then_some(k)
    }

    /// One read of the quiescent-empty collect (`Lane::empty_stamp`):
    /// the stamp when the lane reads settled empty.
    fn empty_stamp(&self, variant: Variant) -> Option<u64> {
        if self.borrow.load(Ordering::Acquire) != 0 || self.publishers.load(Ordering::Acquire) != 0
        {
            return None;
        }
        let seq = self.top_seq.load(Ordering::Acquire);
        if seq & 1 != 0 || self.top.load(Ordering::Acquire) != EMPTY {
            return None;
        }
        if variant.collect_reads_tail {
            let head = self.head.load(Ordering::Acquire);
            if self.tail.load(Ordering::Acquire) != head {
                return None;
            }
        }
        Some(seq)
    }
}

// ---------------------------------------------------------------------------
// Property 1: a settled non-empty top sample is backed by a published
// element — `sample_top()` never advertises a phantom key.
// ---------------------------------------------------------------------------

/// A direct insert publishes key 5 under the exclusive borrow while a
/// lock-free sampler performs the seqlock read from `Lane::sample_top`. The
/// faithful order (heap, then `top`) means a validated non-[`EMPTY`] sample
/// always sees the element in the heap; the broken order stores `top`
/// first, so the sampler acts on a key no drain could return.
fn phantom_top_model(variant: Variant) {
    let lane = Arc::new(LaneModel::new());
    let li = Arc::clone(&lane);
    let inserter = check::spawn(move || {
        assert!(li.try_borrow(), "sole borrower in this model");
        // Insert-type section: the seqlock stamp stays even throughout.
        if variant.top_after_element {
            li.heap.store(5, Ordering::Release);
            li.top.store(5, Ordering::Release);
        } else {
            li.top.store(5, Ordering::Release); // advertised before it exists
            li.heap.store(5, Ordering::Release);
        }
        li.release();
    });
    let ls = Arc::clone(&lane);
    let sampler = check::spawn(move || {
        // Lane::sample_top, with the witness (the heap slot) read inside
        // the window.
        let s1 = ls.top_seq.load(Ordering::Acquire);
        if s1 & 1 != 0 {
            return;
        }
        let top = ls.top.load(Ordering::Acquire);
        let heap = ls.heap.load(Ordering::Acquire);
        if ls.top_seq.load(Ordering::Acquire) != s1 {
            return;
        }
        if top != EMPTY {
            // Every heap removal happens inside a drain-type (odd-stamp)
            // section, so a validated even-stamp window with a non-empty
            // top must overlap the element's presence.
            assert!(
                heap != 0,
                "phantom top: sampler saw key {top} with no published element"
            );
        }
    });
    inserter.join();
    sampler.join();
    assert_eq!(lane.heap.load(Ordering::Acquire), 5);
    assert_eq!(lane.top.load(Ordering::Acquire), 5);
}

#[test]
fn faithful_top_publish_is_backed_by_an_element() {
    let report = check::explore(check::Config::dfs(100_000), || phantom_top_model(FAITHFUL))
        .expect("publishing top after the heap update leaves no phantom window");
    assert!(report.exhausted, "model small enough to exhaust");
}

#[test]
fn top_published_before_heap_update_advertises_a_phantom_element() {
    let variant = Variant {
        top_after_element: false,
        ..FAITHFUL
    };
    let failure = check::explore(check::Config::dfs(100_000), move || {
        phantom_top_model(variant)
    })
    .expect_err("storing top first lets a sampler act on a key no drain can return");
    assert!(
        failure.message.contains("phantom top"),
        "unexpected failure: {failure}"
    );
    let replayed = check::replay(&failure.schedule, move || phantom_top_model(variant))
        .expect_err("failing schedule must replay deterministically");
    assert_eq!(replayed.message, failure.message);
    assert_eq!(
        failure.schedule, PINNED_PHANTOM_TOP,
        "DFS is deterministic: first failing schedule is stable; \
         update the pinned constant if the model legitimately changed"
    );
}

// ---------------------------------------------------------------------------
// Property 2: an exclusive drain acquired after a completed side publish
// sees the element — the fold-at-acquire is what linearizes the wait-free
// insert before the drain.
// ---------------------------------------------------------------------------

/// One wait-free side publisher races one drain. If the publisher finished
/// (push landed, publisher count back down) before the drain even started,
/// the drain must pop the element; the broken variant folds the side-buffer
/// only at release, after the pop, so a completed insert stays invisible to
/// the very drain that should return it. (The seqlock stamp and `top` are
/// untouched here — property 1 covers them — to keep the space small.)
fn side_fold_model(variant: Variant) {
    let lane = Arc::new(LaneModel::new());
    let done = Arc::new(AtomicU64::new(0));
    let (li, done_w) = (Arc::clone(&lane), Arc::clone(&done));
    let inserter = check::spawn(move || {
        // The side-publish path: register, push, deregister. (`tail` is
        // left out: no collector reads it here, and the DFS stays small.)
        li.publishers.fetch_add(1, Ordering::SeqCst);
        li.side.store(5, Ordering::Release);
        li.publishers.fetch_sub(1, Ordering::Release);
        done_w.store(1, Ordering::Release);
    });
    let (ld, done_r) = (Arc::clone(&lane), Arc::clone(&done));
    let drainer = check::spawn(move || {
        let insert_was_complete = done_r.load(Ordering::Acquire) == 1;
        assert!(ld.try_borrow(), "side publishers never hold the borrow");
        if variant.fold_before_pop {
            ld.fold();
        }
        let popped = ld.pop_min();
        if !variant.fold_before_pop {
            ld.fold();
        }
        ld.release();
        if insert_was_complete {
            assert_eq!(
                popped,
                Some(5),
                "stale drain: completed side publish invisible to a later exclusive drain"
            );
        }
        popped
    });
    inserter.join();
    let popped = drainer.join();
    let left = usize::from(lane.heap.load(Ordering::Acquire) != 0)
        + usize::from(lane.side.load(Ordering::Acquire) != 0);
    assert_eq!(
        left + usize::from(popped.is_some()),
        1,
        "conservation: the element is popped or still held"
    );
}

#[test]
fn faithful_drain_sees_every_completed_side_publish() {
    let report = check::explore(check::Config::dfs(100_000), || side_fold_model(FAITHFUL))
        .expect("the fold-at-acquire linearizes completed side publishes before the pop");
    assert!(report.exhausted, "model small enough to exhaust");
}

#[test]
fn side_buffer_folded_after_pop_hides_a_completed_insert() {
    let variant = Variant {
        fold_before_pop: false,
        ..FAITHFUL
    };
    let failure = check::explore(check::Config::dfs(100_000), move || {
        side_fold_model(variant)
    })
    .expect_err("folding only at release makes a finished insert invisible to the drain");
    assert!(
        failure.message.contains("stale drain"),
        "unexpected failure: {failure}"
    );
    let replayed = check::replay(&failure.schedule, move || side_fold_model(variant))
        .expect_err("failing schedule must replay deterministically");
    assert_eq!(replayed.message, failure.message);
    assert_eq!(
        failure.schedule, PINNED_STALE_DRAIN,
        "DFS is deterministic: first failing schedule is stable; \
         update the pinned constant if the model legitimately changed"
    );
}

// ---------------------------------------------------------------------------
// Property 3: the shrink idle-check is sound — observing a zero publisher
// count after publishing the shrunk table means no element can land in the
// retired lane afterwards (DESIGN.md §13.4, the Dekker pairing).
// ---------------------------------------------------------------------------

/// An inserter side-publishes into lane 1 while a shrinker retires it
/// (2 → 1 lanes). The shrinker publishes the shrunk table, takes the
/// drain-type borrow, and — like `resize_locked` — treats a zero publisher
/// count as "every racing publisher either landed its push or will see the
/// new table and reroute". The real shrinker spins until the count is zero;
/// the model checks the soundness of the *observed-idle* decision itself,
/// so a non-zero count simply aborts the retire (vacuously fine). The
/// broken variant decrements the count before the push lands, so the
/// shrinker's idle read passes early and the element strands in a lane no
/// d-choice sample will ever visit again.
fn shrink_idle_model(variant: Variant) {
    let lane = Arc::new(LaneModel::new()); // the retiring lane (index 1)
    let active = Arc::new(AtomicU64::new(2));
    let floor = Arc::new(AtomicU64::new(0)); // surviving lane 0, coarsened
    let (li, ai, fi) = (Arc::clone(&lane), Arc::clone(&active), Arc::clone(&floor));
    let inserter = check::spawn(move || {
        // side_publish: register, revalidate against the table, push.
        li.publishers.fetch_add(1, Ordering::SeqCst);
        if ai.load(Ordering::SeqCst) < 2 {
            // Revalidation failed: the lane is retiring; reroute.
            li.publishers.fetch_sub(1, Ordering::Release);
            fi.store(5, Ordering::Release);
        } else if variant.deregister_after_push {
            li.side.store(5, Ordering::Release);
            li.publishers.fetch_sub(1, Ordering::Release);
        } else {
            li.publishers.fetch_sub(1, Ordering::Release); // blind decrement
            li.side.store(5, Ordering::Release);
        }
    });
    let (ls, table, fs) = (Arc::clone(&lane), Arc::clone(&active), Arc::clone(&floor));
    let shrinker = check::spawn(move || {
        table.store(1, Ordering::SeqCst); // publish the shrunk table first (§7)
        assert!(ls.try_borrow(), "side publishers never hold the borrow");
        let retired = if ls.publishers.load(Ordering::SeqCst) == 0 {
            // Idle observed: final fold, refugees to the surviving lane.
            let refugee = ls.side.swap(0, Ordering::AcqRel);
            if refugee != 0 {
                fs.store(refugee, Ordering::Release);
            }
            true
        } else {
            false // the real shrinker would spin and re-read
        };
        ls.release();
        retired
    });
    inserter.join();
    let retired = shrinker.join();
    if retired {
        assert_eq!(
            lane.side.load(Ordering::Acquire),
            0,
            "stranded element: shrink observed an idle lane, then a push landed in it"
        );
        assert_eq!(
            floor.load(Ordering::Acquire),
            5,
            "the key survives in the active prefix"
        );
    }
}

#[test]
fn faithful_shrink_idle_check_strands_no_element() {
    let report = check::explore(check::Config::dfs(100_000), || shrink_idle_model(FAITHFUL))
        .expect("a publisher is counted until its push lands, so idle means folded");
    assert!(report.exhausted, "model small enough to exhaust");
}

#[test]
fn blind_deregister_lets_shrink_retire_a_lane_mid_publish() {
    let variant = Variant {
        deregister_after_push: false,
        ..FAITHFUL
    };
    let failure = check::explore(check::Config::dfs(100_000), move || {
        shrink_idle_model(variant)
    })
    .expect_err("decrementing before the push lets the idle check pass early");
    assert!(
        failure.message.contains("stranded element"),
        "unexpected failure: {failure}"
    );
    let replayed = check::replay(&failure.schedule, move || shrink_idle_model(variant))
        .expect_err("failing schedule must replay deterministically");
    assert_eq!(replayed.message, failure.message);
    assert_eq!(
        failure.schedule, PINNED_STRANDED,
        "DFS is deterministic: first failing schedule is stable; \
         update the pinned constant if the model legitimately changed"
    );
}

/// The idle read that the shrink's soundness rests on — "count zero means
/// no push in flight" — must survive a borrow release. The lane starts
/// exclusively borrowed (the situation that sends inserters down the side
/// path); a publisher registers, pushes and deregisters while the model's
/// main thread ends that section with the release's plain store, and a
/// shrinker then takes the borrow and reads the count. `pending` is a
/// ghost (no schedule point): 1 from the registration until the push
/// lands. The store is sound only because the count lives on a word of
/// its own; the packed variant's release wipes a registration made during
/// the section, and the shrinker reads idle with the push still in flight.
fn release_store_model(variant: Variant) {
    let lane = Arc::new(LaneModel::new());
    lane.borrow.store(EXCL, Ordering::Relaxed);
    let pending = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let (lp, pp) = (Arc::clone(&lane), Arc::clone(&pending));
    let publisher = check::spawn(move || {
        let word = lp.publisher_word(variant);
        word.fetch_add(1, Ordering::SeqCst);
        pp.store(1, std::sync::atomic::Ordering::SeqCst);
        lp.side.store(5, Ordering::Release);
        pp.store(0, std::sync::atomic::Ordering::SeqCst);
        word.fetch_sub(1, Ordering::Release);
    });
    lane.release(); // the holder's section ends
    let (ls, ps) = (Arc::clone(&lane), Arc::clone(&pending));
    let shrinker = check::spawn(move || {
        if !ls.try_borrow() {
            return; // the real shrinker would spin for the borrow
        }
        let count = ls.publisher_word(variant).load(Ordering::SeqCst) & COUNT_MASK;
        let in_flight = ps.load(std::sync::atomic::Ordering::SeqCst);
        assert!(
            count != 0 || in_flight == 0,
            "wiped publisher: the shrinker read idle with a push in flight"
        );
        ls.release();
    });
    publisher.join();
    shrinker.join();
}

#[test]
fn faithful_release_store_keeps_every_publisher_counted() {
    let report = check::explore(check::Config::dfs(100_000), || {
        release_store_model(FAITHFUL)
    })
    .expect("a release store on the borrow word leaves the publisher word alone");
    assert!(report.exhausted, "model small enough to exhaust");
}

#[test]
fn store_release_of_a_packed_borrow_word_wipes_a_publisher() {
    let variant = Variant {
        split_publisher_word: false,
        ..FAITHFUL
    };
    let failure = check::explore(check::Config::dfs(100_000), move || {
        release_store_model(variant)
    })
    .expect_err("a store release of a packed word drops in-flight registrations");
    assert!(
        failure.message.contains("wiped publisher"),
        "unexpected failure: {failure}"
    );
    let replayed = check::replay(&failure.schedule, move || release_store_model(variant))
        .expect_err("failing schedule must replay deterministically");
    assert_eq!(replayed.message, failure.message);
    assert_eq!(
        failure.schedule, PINNED_WIPED_PUBLISHER,
        "DFS is deterministic: first failing schedule is stable; \
         update the pinned constant if the model legitimately changed"
    );
}

// ---------------------------------------------------------------------------
// Property 4: the quiescent-empty claim is sound — a double collect that
// reads the lane settled empty twice, with the same stamp, brackets an
// instant at which the lane held no element (DESIGN.md §13.3). This is what
// replaced the global `len == 0` witness.
// ---------------------------------------------------------------------------

/// What the thread racing the collector does to the lane.
#[derive(Clone, Copy, Debug)]
enum Mutator {
    /// Wait-free side publish of a fresh key.
    SidePublish,
    /// Direct insert of a fresh key under an insert-type section.
    DirectInsert,
    /// Drain of a pre-published key under a drain-type section.
    Drain,
}

/// A collector runs the emptiness read of `MultiQueue::observe_empty` on
/// one lane while a [`Mutator`] works on it. The ghost count is read at the
/// instant between the two collects — for a single collect, right after
/// it — and a claim made while it is non-zero is a false empty. A single
/// collect lets a direct insert land in words it has already read; a
/// collect that ignores `tail` misses an element that sits linked but
/// unfolded in the side-buffer.
fn empty_claim_model(variant: Variant, mutator: Mutator) {
    let drain = matches!(mutator, Mutator::Drain);
    let lane = Arc::new(LaneModel::new());
    if drain {
        // Pre-published by a completed insert-type section.
        lane.heap.store(5, Ordering::Relaxed);
        lane.top.store(5, Ordering::Relaxed);
        lane.ghost(1);
    }
    let lm = Arc::clone(&lane);
    let worker = check::spawn(move || match mutator {
        Mutator::SidePublish => {
            lm.publishers.fetch_add(1, Ordering::SeqCst);
            lm.side_push(5);
            lm.publishers.fetch_sub(1, Ordering::Release);
        }
        Mutator::DirectInsert => {
            assert!(lm.try_borrow(), "sole borrower in this model");
            lm.heap.store(5, Ordering::Release);
            lm.ghost(1);
            lm.top.store(5, Ordering::Release);
            lm.release();
        }
        Mutator::Drain => {
            assert!(lm.try_borrow(), "sole borrower in this model");
            lm.top_seq.store(1, Ordering::Release); // odd: mid-drain
            assert_eq!(lm.pop_min(), Some(5));
            lm.top.store(EMPTY, Ordering::Release);
            lm.top_seq.store(2, Ordering::Release); // even again
            lm.release();
        }
    });
    let lc = Arc::clone(&lane);
    let collector = check::spawn(move || {
        let first = lc.empty_stamp(variant);
        let present = lc.present.load(std::sync::atomic::Ordering::SeqCst);
        let second = if variant.double_collect {
            lc.empty_stamp(variant)
        } else {
            first
        };
        if first.is_some() && second == first {
            assert_eq!(
                present, 0,
                "false empty: the collect claimed an empty lane holding an element"
            );
        }
    });
    worker.join();
    collector.join();
}

#[test]
fn faithful_double_collect_never_claims_a_held_element_empty() {
    // The side-publish space is the largest: ~116k schedules.
    for mutator in [Mutator::SidePublish, Mutator::DirectInsert, Mutator::Drain] {
        let report = check::explore(check::Config::dfs(200_000), move || {
            empty_claim_model(FAITHFUL, mutator)
        })
        .unwrap_or_else(|f| panic!("{mutator:?}: agreeing collects bracket an empty instant: {f}"));
        assert!(report.exhausted, "model small enough to exhaust");
    }
}

/// Explores one broken collect against `mutator`, checks the failure
/// replays, and returns its first DFS schedule.
fn broken_collect_schedule(variant: Variant, mutator: Mutator) -> String {
    let failure = check::explore(check::Config::dfs(100_000), move || {
        empty_claim_model(variant, mutator)
    })
    .expect_err("the broken collect claims empty while an element is held");
    assert!(
        failure.message.contains("false empty"),
        "unexpected failure: {failure}"
    );
    let replayed = check::replay(&failure.schedule, move || {
        empty_claim_model(variant, mutator)
    })
    .expect_err("failing schedule must replay deterministically");
    assert_eq!(replayed.message, failure.message);
    failure.schedule
}

#[test]
fn single_collect_claims_empty_under_an_arriving_element() {
    let schedule = broken_collect_schedule(
        Variant {
            double_collect: false,
            ..FAITHFUL
        },
        Mutator::DirectInsert,
    );
    assert_eq!(
        schedule, PINNED_SINGLE_COLLECT,
        "DFS is deterministic: first failing schedule is stable; \
         update the pinned constant if the model legitimately changed"
    );
}

#[test]
fn collect_ignoring_tail_misses_a_side_buffered_element() {
    let schedule = broken_collect_schedule(
        Variant {
            collect_reads_tail: false,
            ..FAITHFUL
        },
        Mutator::SidePublish,
    );
    assert_eq!(
        schedule, PINNED_TAILLESS_COLLECT,
        "DFS is deterministic: first failing schedule is stable; \
         update the pinned constant if the model legitimately changed"
    );
}

// ---------------------------------------------------------------------------
// Pinned replay regressions (schedule strings captured from the DFS runs
// above; regenerate by printing `failure.schedule` if a model changes).
// ---------------------------------------------------------------------------

/// Replays every pinned schedule, so a regression in the explorer or the
/// protocol reproduces from this file alone.
#[test]
fn pinned_schedules_replay_every_broken_variant() {
    let phantom = check::replay(PINNED_PHANTOM_TOP, || {
        phantom_top_model(Variant {
            top_after_element: false,
            ..FAITHFUL
        })
    })
    .expect_err("pinned phantom-top schedule still fails");
    assert!(phantom.message.contains("phantom top"));
    let stale = check::replay(PINNED_STALE_DRAIN, || {
        side_fold_model(Variant {
            fold_before_pop: false,
            ..FAITHFUL
        })
    })
    .expect_err("pinned stale-drain schedule still fails");
    assert!(stale.message.contains("stale drain"));
    let stranded = check::replay(PINNED_STRANDED, || {
        shrink_idle_model(Variant {
            deregister_after_push: false,
            ..FAITHFUL
        })
    })
    .expect_err("pinned stranded-element schedule still fails");
    assert!(stranded.message.contains("stranded element"));
    let wiped = check::replay(PINNED_WIPED_PUBLISHER, || {
        release_store_model(Variant {
            split_publisher_word: false,
            ..FAITHFUL
        })
    })
    .expect_err("pinned wiped-publisher schedule still fails");
    assert!(wiped.message.contains("wiped publisher"));
    for (pinned, variant, mutator) in [
        (
            PINNED_SINGLE_COLLECT,
            Variant {
                double_collect: false,
                ..FAITHFUL
            },
            Mutator::DirectInsert,
        ),
        (
            PINNED_TAILLESS_COLLECT,
            Variant {
                collect_reads_tail: false,
                ..FAITHFUL
            },
            Mutator::SidePublish,
        ),
    ] {
        let empty = check::replay(pinned, move || empty_claim_model(variant, mutator))
            .expect_err("pinned false-empty schedule still fails");
        assert!(empty.message.contains("false empty"));
    }
}

/// First failing DFS schedule for the phantom-top variant.
const PINNED_PHANTOM_TOP: &str = "0,0,0,1,1,1,2,2,2,2,1,1,0,2";
/// First failing DFS schedule for the fold-after-pop variant.
const PINNED_STALE_DRAIN: &str = "0,0,0,1,1,1,1,1,0,2,2,2,2,2,2,2,2";
/// First failing DFS schedule for the blind-decrement variant.
const PINNED_STRANDED: &str = "0,0,0,1,1,1,1,2,2,2,2,2,1,0,2,0,0";
/// First failing DFS schedule for the packed borrow word released by a store.
const PINNED_WIPED_PUBLISHER: &str = "0,0,0,1,1,0,0,2,2,2";
/// First failing DFS schedule for the single-collect variant.
const PINNED_SINGLE_COLLECT: &str = "0,0,0,1,2,2,1,1,2,2,2,1,1,0,2,2";
/// First failing DFS schedule for the collect that ignores `tail`.
const PINNED_TAILLESS_COLLECT: &str = "0,0,0,1,1,1,1,1,0,2,2,2,2,2,2,2,2,2";
