//! The *real* `MultiQueue` under explored schedules (`--features check`).
//!
//! `tests/check_lane_table.rs` checks a miniature of the resize protocol
//! exhaustively; this suite closes the model–implementation gap by running
//! the production `choice_pq::MultiQueue` itself — its mutexes and atomics
//! routed through the explorer by the `check` cargo feature — under
//! bounded-random schedules. Exhaustive DFS is out of reach here (a single
//! real operation has dozens of schedule points), so coverage scales with
//! `CHECK_SCHEDULES` (PR CI keeps the default; the stress job deepens it).
//!
//! Run with: `cargo test --features check --test check_multiqueue`

#![cfg(feature = "check")]

use std::sync::Arc;

use choice_check as check;
use choice_pq::{ElasticPolicy, HandlePolicy, MultiQueue, MultiQueueConfig, PqHandle};

/// A 2-lane elastic queue whose controller is parked (huge check interval):
/// resizes happen only where the model calls `resize_active`.
fn small_config() -> MultiQueueConfig {
    MultiQueueConfig::with_queues(2).with_elastic(
        ElasticPolicy::default()
            .with_min_lanes(1)
            .with_check_interval(1_000_000),
    )
}

/// Two sessions insert and pop while a third thread shrinks and re-grows
/// the lane table. Whatever the interleaving, the multiset of keys out must
/// equal the multiset in: nothing lost in a retired lane, nothing duplicated
/// by the refugee re-publish.
#[test]
fn real_multiqueue_conserves_keys_across_concurrent_resize() {
    let schedules = check::schedule_budget(192);
    check::model_with(
        check::Config {
            max_steps: 20_000,
            ..check::Config::random(schedules, 0xC0FFEE)
        },
        || {
            let q = Arc::new(MultiQueue::<u64>::new(small_config()));
            let mut workers = Vec::new();
            for t in 0..2u64 {
                let q = Arc::clone(&q);
                workers.push(check::spawn(move || {
                    let mut h = q.register_with(HandlePolicy::plain());
                    let mut popped = Vec::new();
                    h.insert(10 + t, 10 + t);
                    h.insert(20 + t, 20 + t);
                    if let Some((k, v)) = h.delete_min() {
                        assert_eq!(k, v, "key/value pairing broken");
                        popped.push(k);
                    }
                    popped
                }));
            }
            let qr = Arc::clone(&q);
            let resizer = check::spawn(move || {
                qr.resize_active(1);
                qr.resize_active(2);
            });
            let mut seen: Vec<u64> = workers.into_iter().flat_map(|w| w.join()).collect();
            resizer.join();

            // Quiesced: drain the remainder. Bounded loop — a sparse sample
            // can miss once, but with no writers the steal fallback finds
            // every survivor within a few attempts.
            let mut h = q.register_with(HandlePolicy::plain());
            for _ in 0..16 {
                if seen.len() == 4 {
                    break;
                }
                if let Some((k, _)) = h.delete_min() {
                    seen.push(k);
                }
            }
            seen.sort_unstable();
            assert_eq!(
                seen,
                vec![10, 11, 20, 21],
                "keys lost or duplicated across resize (epoch {}, active {})",
                q.resize_epoch(),
                q.active_lanes()
            );
        },
    );
}

/// Single-session sanity under the explorer: the handle hot path (sticky
/// lanes, per-handle RNG, batch buffer) behaves identically with
/// instrumented primitives.
#[test]
fn real_multiqueue_single_session_orders_keys() {
    check::model_with(check::Config::random(check::schedule_budget(32), 7), || {
        let q = MultiQueue::<u32>::new(small_config());
        let mut h = q.register_with(HandlePolicy::plain());
        for k in [5u64, 3, 9, 1] {
            h.insert(k, k as u32);
        }
        let mut out = Vec::new();
        while let Some((k, _)) = h.delete_min() {
            out.push(k);
        }
        assert_eq!(out, vec![1, 3, 5, 9], "single session must drain in order");
    });
}

/// Runs one uncontended `insert` + `delete_min` pair on a 4-lane queue,
/// after a warm-up insert so it runs on a populated structure, and returns
/// the atomic RMWs and `SeqCst` accesses it cost this thread.
fn uncontended_pair_counts() -> (u64, u64) {
    let q = MultiQueue::<u64>::new(MultiQueueConfig::with_queues(4).with_seed(3));
    let mut h = q.register_with(HandlePolicy::plain());
    h.insert(100, 100);
    let (rmws, seqcsts) = (check::sync::rmw_count(), check::sync::seqcst_count());
    h.insert(1, 1);
    assert!(h.delete_min().is_some());
    (
        check::sync::rmw_count() - rmws,
        check::sync::seqcst_count() - seqcsts,
    )
}

/// The hot-path atomic budget, counted instead of timed: one uncontended
/// `insert` + `delete_min` pair on a 4-lane queue performs exactly two
/// atomic read-modify-writes — the exclusive-borrow `fetch_or` on each
/// visited lane's own borrow word (the release is a plain store) — and no
/// RMW on any structure-wide line. A change that adds a hot-path atomic
/// fails here deterministically, whatever the machine's timing noise.
#[test]
fn uncontended_pair_costs_two_lane_local_rmws() {
    let (rmws, _) = uncontended_pair_counts();
    assert_eq!(
        rmws, 2,
        "uncontended insert + delete_min must cost 2 lane-local RMWs, got {rmws}"
    );
}

/// The same pair performs no `SeqCst` access: the only `SeqCst` operations
/// in the engine are the side publisher's registration and table read, and
/// the resize path's Dekker pairing (DESIGN.md §13.4), none of which an
/// uncontended direct insert or removal takes.
#[test]
fn uncontended_pair_performs_no_seqcst_access() {
    let (_, seqcsts) = uncontended_pair_counts();
    assert_eq!(
        seqcsts, 0,
        "uncontended insert + delete_min must perform no SeqCst access, got {seqcsts}"
    );
}
