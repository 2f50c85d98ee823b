//! The layer ladder: one seeded key stream sent through each layer's public
//! API in turn, in-process and single-threaded. A layer's self time is the
//! difference between its rung and the rung below it:
//!
//! | rung | structure | self time |
//! |---|---|---|
//! | `seq_pq` | `seq_pq::BinaryHeap` | the rung itself |
//! | 1-lane MQ | `MultiQueue` with one lane | `lane` = rung − `seq_pq` |
//! | 4-lane MQ | `MultiQueue` with 4 lanes, d = 2 | `engine` = rung − 1-lane |
//! | `dyn` | `Box<dyn PqHandle>` on the 4-lane queue | `dyn` = rung − 4-lane |
//! | `obs` | 4 lanes with a `QueueObs` attached | `obs` = rung − 4-lane |
//!
//! The 4-lane queues hold the workload's prefill; the heap and the 1-lane
//! queue hold a quarter of it, so every rung sifts heaps of the same depth
//! and the differences are the layers, not the depth.
//!
//! Rungs run in rotating order, repeated until the time budget is spent,
//! and each reports its median.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use power_of_choice::multiqueue::{DynSharedPq, MultiQueue, MultiQueueConfig, QueueObs};
use power_of_choice::obs::ObsHub;
use power_of_choice::prelude::{BinaryHeap, PqHandle, SequentialPriorityQueue, SharedPq};
use power_of_choice::registry::{QueueRegistry, QuotaSpec, DEFAULT_QUEUE};
use power_of_choice::service::{Request, Response};
use power_of_choice::stats::rng::Xoshiro256;

use crate::measure::median;
use crate::pairs::{self, next_key};

/// Pairs per rung per round.
const PAIRS: usize = 1 << 16;
/// Rounds every rung runs at least, whatever the budget.
const MIN_ROUNDS: usize = 5;

/// Median nanoseconds per insert + delete_min pair on each rung, and per
/// request + response in the codec and admission layers.
pub struct Ladder {
    pub seq_pq: f64,
    pub lane1: f64,
    pub lanes4: f64,
    pub dyn4: f64,
    pub obs4: f64,
    pub encode: f64,
    pub decode: f64,
    pub admit: f64,
}

fn time_pairs(keys: &[u64], mut pair: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for &k in keys {
        pair(k);
    }
    t.elapsed().as_nanos() as f64 / keys.len() as f64
}

fn prefilled(config: MultiQueueConfig, prefill: &[u64], obs: Option<&ObsHub>) -> MultiQueue<u64> {
    let mut queue = MultiQueue::new(config);
    if let Some(hub) = obs {
        queue.attach_obs(QueueObs::new(hub, "ladder"));
    }
    let mut handle = queue.register();
    for &k in prefill {
        handle.insert(k, k);
    }
    drop(handle);
    queue
}

/// Runs every rung, the 4-lane ones over `prefill` keys, until `budget`
/// is spent.
pub fn run(prefill: usize, seed: u64, budget: Duration) -> Ladder {
    let mut rng = Xoshiro256::seeded(seed ^ 0x4C41_4444_4552_0000);
    let fill: Vec<u64> = (0..prefill).map(|_| next_key(&mut rng)).collect();
    let keys: Vec<u64> = (0..PAIRS).map(|_| next_key(&mut rng)).collect();
    let config = pairs::queue_config(seed);

    let lane_fill = &fill[..prefill / config.queues];
    let mut heap = BinaryHeap::with_capacity(lane_fill.len() + 1);
    for &k in lane_fill {
        heap.push(k, k);
    }
    let mq1 = prefilled(
        MultiQueueConfig::with_queues(1).with_seed(seed),
        lane_fill,
        None,
    );
    let mq4 = prefilled(config.clone(), &fill, None);
    let hub = ObsHub::new();
    let mq4_obs = prefilled(config, &fill, Some(&hub));
    let mut h1 = mq1.register();
    let mut h4 = mq4.register();
    let mut hdyn: Box<dyn PqHandle<u64> + '_> = DynSharedPq::register_dyn(&mq4);
    let mut hobs = mq4_obs.register();

    let mut rungs: [Vec<f64>; 5] = Default::default();
    let started = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || started.elapsed() < budget {
        for i in 0..rungs.len() {
            let rung = (i + round) % rungs.len();
            let ns = match rung {
                0 => time_pairs(&keys, |k| {
                    heap.push(k, k);
                    black_box(heap.pop());
                }),
                1 => time_pairs(&keys, |k| {
                    h1.insert(k, k);
                    black_box(h1.delete_min());
                }),
                2 => time_pairs(&keys, |k| {
                    h4.insert(k, k);
                    black_box(h4.delete_min());
                }),
                3 => time_pairs(&keys, |k| {
                    hdyn.insert(k, k);
                    black_box(hdyn.delete_min());
                }),
                _ => time_pairs(&keys, |k| {
                    hobs.insert(k, k);
                    black_box(hobs.delete_min());
                }),
            };
            rungs[rung].push(ns);
        }
        round += 1;
    }
    let (encode, decode) = codec(&keys);
    Ladder {
        seq_pq: median(&rungs[0]),
        lane1: median(&rungs[1]),
        lanes4: median(&rungs[2]),
        dyn4: median(&rungs[3]),
        obs4: median(&rungs[4]),
        encode,
        decode,
        admit: admission(&keys, seed),
    }
}

/// The workload's request/response mix: alternating `Insert` → `Inserted`
/// and `DeleteMin` → `Entry`.
fn mix_of(keys: &[u64]) -> Vec<(Request, Response)> {
    keys.iter()
        .enumerate()
        .map(|(i, &key)| {
            if i % 2 == 0 {
                (Request::Insert { key, value: key }, Response::Inserted)
            } else {
                (Request::DeleteMin, Response::Entry { key, value: key })
            }
        })
        .collect()
}

/// Median ns to encode, and to decode, one request and its response.
fn codec(keys: &[u64]) -> (f64, f64) {
    let frames = mix_of(keys);
    let mut out = Vec::with_capacity(frames.len() * 64);
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..MIN_ROUNDS {
        out.clear();
        let t = Instant::now();
        for (request, response) in &frames {
            request.encode(&mut out);
            response.encode(&mut out);
        }
        enc.push(t.elapsed().as_nanos() as f64 / frames.len() as f64);
        black_box(&out);

        let t = Instant::now();
        let mut at = 0;
        while at < out.len() {
            let (request, used) = Request::decode(&out[at..]).expect("own request frame decodes");
            at += used;
            let (response, used) =
                Response::decode(&out[at..]).expect("own response frame decodes");
            at += used;
            black_box((request, response));
        }
        dec.push(t.elapsed().as_nanos() as f64 / frames.len() as f64);
    }
    (median(&enc), median(&dec))
}

/// Median ns of registry admission per request, following the server's
/// sequence: `admit_insert` for an insert; `admit_removal` then
/// `note_removed` for a removal.
fn admission(keys: &[u64], seed: u64) -> f64 {
    let registry = QueueRegistry::default();
    registry.set_obs(ObsHub::new());
    let queue: Arc<dyn DynSharedPq<u64>> =
        Arc::new(MultiQueue::<u64>::new(pairs::queue_config(seed)));
    registry
        .install(DEFAULT_QUEUE, queue, QuotaSpec::unlimited())
        .expect("a fresh registry takes the default queue");
    let binding = registry.bind(DEFAULT_QUEUE).expect("default queue binds");
    let mut per = Vec::new();
    let mut requests = 0u64;
    for _ in 0..MIN_ROUNDS {
        per.push(time_pairs(keys, |k| {
            requests += 1;
            if requests % 2 == 1 {
                black_box(binding.admit_insert(k)).expect("unlimited quota admits");
            } else {
                black_box(binding.admit_removal()).expect("unlimited quota admits");
                binding.note_removed(1);
            }
        }));
    }
    median(&per)
}
