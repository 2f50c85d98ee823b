//! The `pairs_*` phases: a closed loop in which every worker thread
//! alternates `insert` and `delete_min` through its own session handle, and
//! the instrumented replays that give the exact rank of every removal.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use power_of_choice::multiqueue::{HandlePolicy, HandleStats, MultiQueue, MultiQueueConfig};
use power_of_choice::prelude::{PqHandle, SharedPq};
use power_of_choice::stats::rng::{RandomSource, Xoshiro256};
use power_of_choice::stats::InversionCounter;

use crate::measure::{median, mix, quantile, Multiset, Spans};

/// Shape of a closed-loop pairs run.
#[derive(Clone, Copy, Debug)]
pub struct PairsSpec {
    pub threads: usize,
    pub prefill: usize,
}

/// 2 workers over 4 lanes with 4 096 keys: about 1k entries per lane, so
/// the heaps stay in cache and the engine, lane protocol and cross-thread
/// cache-line traffic carry the cost.
pub const HOT: PairsSpec = PairsSpec {
    threads: 2,
    prefill: 4096,
};

/// 1 worker over the same queue with 2^21 keys (about 48 MB of entries,
/// far past L2): sifting through deep heaps carries the cost.
pub const DEEP: PairsSpec = PairsSpec {
    threads: 1,
    prefill: 1 << 21,
};

/// The queue every pairs phase runs on: sized for two threads (4 lanes,
/// d = 2).
pub fn queue_config(seed: u64) -> MultiQueueConfig {
    MultiQueueConfig::for_threads(2).with_seed(seed)
}

/// Keys are 48-bit uniform draws: never the reserved `Key::MAX`.
pub fn next_key(rng: &mut Xoshiro256) -> u64 {
    rng.next_u64() >> 16
}

/// Builds the queue and inserts `prefill` seeded keys; returns the queue and
/// the multiset of keys inserted.
pub fn setup(spec: PairsSpec, seed: u64) -> (MultiQueue<u64>, Multiset) {
    let queue = MultiQueue::<u64>::new(queue_config(seed));
    let mut inserted = Multiset::default();
    let mut rng = Xoshiro256::seeded(seed ^ 0x5052_4546_494C_4C00);
    {
        let mut handle = queue.register();
        for _ in 0..spec.prefill {
            let key = next_key(&mut rng);
            handle.insert(key, mix(key));
            inserted.add(key);
        }
    }
    (queue, inserted)
}

/// Outcome of one or more closed-loop runs.
pub struct ClosedLoop {
    /// Completed operations per second, one per 100 ms slice.
    pub rates: Vec<f64>,
    /// Operations completed inside the measured windows and after them.
    pub ops: u64,
    pub stats: HandleStats,
    /// Removals whose value did not match their key.
    pub corrupt: u64,
    /// Inserted keys equal removed keys plus the final drain.
    pub conserved: bool,
}

impl ClosedLoop {
    /// Completed operations per second: the median over slices.
    pub fn ops_per_s(&self) -> f64 {
        median(&self.rates)
    }

    /// Folds another run of the same phase into this one.
    pub fn merge(&mut self, other: ClosedLoop) {
        self.rates.extend(other.rates);
        self.ops += other.ops;
        self.stats.merge(&other.stats);
        self.corrupt += other.corrupt;
        self.conserved &= other.conserved;
    }
}

/// Per-thread operation counter on its own cache line, so the sampler adds
/// no sharing between the workers.
#[repr(align(128))]
#[derive(Default)]
struct Counter(AtomicU64);

/// Pairs one worker runs between two looks at its stop flag.
const CHUNK: u64 = 256;
/// Length of one throughput slice.
const SLICE: Duration = Duration::from_millis(100);
/// Time the loop runs before the first slice counts.
const WARMUP: Duration = Duration::from_millis(300);
/// One call in this many is timed as a span when tracing.
const SPAN_EVERY: u64 = 64;

struct WorkerOut {
    inserted: Multiset,
    removed: Multiset,
    stats: HandleStats,
    corrupt: u64,
    spans: Vec<(&'static str, Instant, u64)>,
}

/// Runs the closed loop for `measure` after a warm-up, then drains the queue
/// and checks conservation. With `spans`, one call in [`SPAN_EVERY`] is timed
/// and recorded.
pub fn closed_loop(
    spec: PairsSpec,
    seed: u64,
    measure: Duration,
    mut spans: Option<&mut Spans>,
) -> ClosedLoop {
    let (queue, mut inserted) = setup(spec, seed);
    let traced = spans.is_some();
    let stop = AtomicBool::new(false);
    let counters: Vec<Counter> = (0..spec.threads).map(|_| Counter::default()).collect();
    let mut rates = Vec::new();
    let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..spec.threads)
            .map(|t| {
                let (queue, stop, counter) = (&queue, &stop, &counters[t]);
                scope.spawn(move || {
                    // One worker per CPU, the same placement every run.
                    crate::affinity::pin(t % 2);
                    worker(queue, seed ^ ((t as u64 + 1) << 32), stop, counter, traced)
                })
            })
            .collect();
        let total = || {
            counters
                .iter()
                .map(|c| c.0.load(Ordering::Relaxed))
                .sum::<u64>()
        };
        std::thread::sleep(WARMUP);
        let (mut last_ops, mut last_at) = (total(), Instant::now());
        let end = last_at + measure;
        while last_at < end {
            std::thread::sleep(SLICE);
            let (ops, at) = (total(), Instant::now());
            rates.push((ops - last_ops) as f64 / (at - last_at).as_secs_f64());
            (last_ops, last_at) = (ops, at);
        }
        stop.store(true, Ordering::Relaxed);
        joins
            .into_iter()
            .map(|j| j.join().expect("pairs worker panicked"))
            .collect()
    });
    let mut removed = Multiset::default();
    let mut stats = HandleStats::default();
    let mut corrupt = 0;
    for out in &outs {
        inserted.merge(&out.inserted);
        removed.merge(&out.removed);
        stats.merge(&out.stats);
        corrupt += out.corrupt;
        if let Some(spans) = spans.as_deref_mut() {
            for &(layer, start, dur) in &out.spans {
                spans.record(layer, None, start, dur);
            }
        }
    }
    let mut drain = queue.register();
    while let Some((key, value)) = drain.delete_min() {
        corrupt += u64::from(value != mix(key));
        removed.add(key);
    }
    ClosedLoop {
        rates,
        ops: stats.operations(),
        stats,
        corrupt,
        conserved: inserted == removed,
    }
}

fn worker(
    queue: &MultiQueue<u64>,
    seed: u64,
    stop: &AtomicBool,
    counter: &Counter,
    traced: bool,
) -> WorkerOut {
    let mut handle = queue.register();
    let mut rng = Xoshiro256::seeded(seed);
    let mut out = WorkerOut {
        inserted: Multiset::default(),
        removed: Multiset::default(),
        stats: HandleStats::default(),
        corrupt: 0,
        spans: Vec::new(),
    };
    let mut pairs = 0u64;
    while !stop.load(Ordering::Relaxed) {
        for i in 0..CHUNK {
            let key = next_key(&mut rng);
            let got = if traced && (pairs + i).is_multiple_of(SPAN_EVERY) {
                let t0 = Instant::now();
                handle.insert(key, mix(key));
                let t1 = Instant::now();
                let got = handle.delete_min();
                let t2 = Instant::now();
                out.spans
                    .push(("mq.insert", t0, (t1 - t0).as_nanos() as u64));
                out.spans
                    .push(("mq.delete_min", t1, (t2 - t1).as_nanos() as u64));
                got
            } else {
                handle.insert(key, mix(key));
                handle.delete_min()
            };
            out.inserted.add(key);
            if let Some((k, v)) = got {
                out.corrupt += u64::from(v != mix(k));
                out.removed.add(k);
            }
        }
        pairs += CHUNK;
        counter.0.store(2 * pairs, Ordering::Relaxed);
    }
    out.stats = handle.stats();
    out
}

/// Exact ranks of the removals of an instrumented replay.
pub struct Ranks {
    /// Mean rank (1 = the true minimum was removed).
    pub mean: f64,
    /// Median over [`SEGMENTS`] equal segments of each segment's maximum.
    pub max_median: f64,
    pub p99: u64,
    pub max: u64,
    pub removals: usize,
}

/// Segments a replay is cut into for [`Ranks::max_median`].
const SEGMENTS: usize = 16;

/// Replays `pairs` insert/delete_min pairs on `threads` instrumented
/// sessions over `config`, drains the queue, and ranks every removal with
/// [`InversionCounter`]. Only the pair-phase removals are summarised; the
/// drain is there so that every rank is exact.
///
/// Keys follow the paper's Section 5 method: the prefill is `0..prefill`
/// and every insert takes the next fresh, larger key. No key inserted after
/// a removal is smaller than it, so "removed later and smaller" counts
/// exactly the keys that were present and better.
pub fn rank_replay(
    config: MultiQueueConfig,
    prefill: usize,
    pairs: usize,
    threads: usize,
) -> Ranks {
    let queue = MultiQueue::<u64>::new(config);
    {
        let mut handle = queue.register();
        for key in 0..prefill as u64 {
            handle.insert(key, key);
        }
    }
    let fresh = AtomicU64::new(prefill as u64);
    let mut counter = InversionCounter::new();
    let logs: Vec<_> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..threads)
            .map(|_| {
                let (queue, fresh) = (&queue, &fresh);
                scope.spawn(move || {
                    let mut handle = queue.register_with(HandlePolicy::instrumented());
                    for _ in 0..pairs / threads {
                        let key = fresh.fetch_add(1, Ordering::Relaxed);
                        handle.insert(key, key);
                        handle.delete_min();
                    }
                    handle.take_log()
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("replay worker panicked"))
            .collect()
    });
    let phase_removals: usize = logs.iter().map(Vec::len).sum();
    for log in logs {
        counter.record_all(log);
    }
    let mut drain = queue.register_with(HandlePolicy::instrumented());
    while drain.delete_min().is_some() {}
    counter.record_all(drain.take_log());
    // Drain timestamps follow every pair-phase timestamp, so the phase is
    // the prefix of the timestamp-ordered ranks.
    let ranks = counter.per_removal_ranks();
    let phase = &ranks[..phase_removals];
    let mut sorted = phase.to_vec();
    sorted.sort_unstable();
    let seg = phase.len() / SEGMENTS;
    let maxima: Vec<f64> = phase
        .chunks(seg.max(1))
        .take(SEGMENTS)
        .map(|c| *c.iter().max().expect("non-empty segment") as f64)
        .collect();
    Ranks {
        mean: phase.iter().sum::<u64>() as f64 / phase.len() as f64,
        max_median: median(&maxima),
        p99: quantile(&sorted, 0.99),
        max: *sorted.last().expect("replay removed something"),
        removals: phase.len(),
    }
}
