//! The `sched_edf` phase: the benchmark's injector thread feeds a 1-worker
//! `Scheduler` with Poisson arrivals in three deadline classes; the worker
//! burns each task's work after noting when it started.

use std::time::{Duration, Instant};

use power_of_choice::multiqueue::MultiQueue;
use power_of_choice::prelude::{Scheduler, SchedulerConfig};
use power_of_choice::sched::traffic::burn;
use power_of_choice::stats::rng::{RandomSource, Xoshiro256};

use crate::measure::{merge_checks, tail_quartile, windows, Latencies, Spans};
use crate::pairs;

/// Arrivals per second: half of the 94k tasks/s the one worker completes
/// when saturated with this task mix (2-vCPU Xeon reference machine).
const RATE: f64 = 47_000.0;

/// (share of arrivals, start-by deadline after arrival, burn units); a burn
/// unit costs about 0.2 ns there, so tasks take 4, 10 and 16 us.
const CLASSES: [(f64, u64, u32); 3] = [
    (0.2, 50_000, 20_000),
    (0.5, 200_000, 50_000),
    (0.3, 1_000_000, 80_000),
];

/// One injected task.
#[derive(Clone, Copy, Debug)]
pub struct Task {
    id: u64,
    due_ns: u64,
    deadline_ns: u64,
    work: u32,
}

/// Outcome of one or more runs of the phase.
pub struct SchedRun {
    /// Arrival to start of execution, in start order.
    pub start_delay: Latencies,
    /// Whether each task started after its deadline, in start order.
    pub late: Vec<bool>,
    pub injected: u64,
    pub executed: u64,
    /// Worker idle backoff waits, empty polls, contended retries and
    /// deadline inversions, from the `SchedulerReport`.
    pub backoff_waits: u64,
    pub empty_polls: u64,
    pub retries: u64,
    pub inversions: u64,
    /// How late the injector ran.
    pub lag: Latencies,
    /// Sampled `Injector::inject` durations.
    pub inject_ns: Vec<f64>,
    pub checks: Vec<(String, bool)>,
}

impl SchedRun {
    /// Share of tasks started after their deadline, per window of tasks, at
    /// the lower quartile over windows (see [`tail_quartile`]).
    pub fn miss_share(&self) -> f64 {
        tail_quartile(&windows(&self.late, |w| {
            w.iter().filter(|&&l| l).count() as f64 / w.len() as f64
        }))
    }

    /// Folds another run of the phase into this one.
    pub fn merge(&mut self, other: SchedRun) {
        self.start_delay.extend(&other.start_delay);
        self.late.extend(other.late);
        self.injected += other.injected;
        self.executed += other.executed;
        self.backoff_waits += other.backoff_waits;
        self.empty_polls += other.empty_polls;
        self.retries += other.retries;
        self.inversions += other.inversions;
        self.lag.extend(&other.lag);
        self.inject_ns.extend(other.inject_ns);
        merge_checks(&mut self.checks, other.checks);
    }
}

/// The queue the scheduler runs on.
pub fn setup(seed: u64) -> MultiQueue<Task> {
    MultiQueue::new(pairs::queue_config(seed))
}

/// One inject in this many is timed as a span when tracing.
const SPAN_EVERY: u64 = 16;

/// Runs the open loop for `measure` and waits for the pool to drain.
pub fn run(
    queue: MultiQueue<Task>,
    seed: u64,
    measure: Duration,
    mut spans: Option<&mut Spans>,
) -> SchedRun {
    let scheduler = Scheduler::new(&queue, SchedulerConfig::new(1));
    let expected = (RATE * measure.as_secs_f64() * 1.2) as usize + 16;
    let epoch = Instant::now();
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let traced = spans.is_some();
    let (report, starts, lag, inject_spans, injected) = std::thread::scope(|scope| {
        let mut injector = scheduler.injector();
        let feeder = scope.spawn(move || {
            let mut rng = Xoshiro256::seeded(seed ^ 0x5343_4845_4400_0000);
            let mut lag = Latencies::with_capacity(expected);
            let mut inject_spans = Vec::new();
            let end = measure.as_nanos() as f64;
            let mut due = rng.next_exponential(1e9 / RATE);
            let mut id = 0u64;
            while due < end {
                let mut now = now_ns();
                while (now as f64) < due {
                    std::thread::yield_now();
                    now = now_ns();
                }
                let u = rng.next_f64();
                let mut class = CLASSES.len() - 1;
                let mut acc = 0.0;
                for (i, c) in CLASSES.iter().enumerate() {
                    acc += c.0;
                    if u < acc {
                        class = i;
                        break;
                    }
                }
                let (_, budget, work) = CLASSES[class];
                let task = Task {
                    id,
                    due_ns: due as u64,
                    deadline_ns: due as u64 + budget,
                    work,
                };
                lag.push(now - task.due_ns);
                let t0 = Instant::now();
                injector.inject(task.deadline_ns, task);
                if traced && id.is_multiple_of(SPAN_EVERY) {
                    inject_spans.push((t0, t0.elapsed().as_nanos() as u64));
                }
                id += 1;
                due += rng.next_exponential(1e9 / RATE);
            }
            (lag, inject_spans, id)
            // Dropping the injector closes the source; the pool can then
            // reach quiescence.
        });
        let (report, states) = scheduler.run(
            |_| Vec::with_capacity(expected),
            |starts: &mut Vec<(u64, u64, bool)>, _ctx, _key, task: Task| {
                let now = now_ns();
                starts.push((
                    task.id,
                    now.saturating_sub(task.due_ns),
                    now > task.deadline_ns,
                ));
                burn(task.work);
            },
        );
        let (lag, inject_spans, injected) = feeder.join().expect("injector panicked");
        (report, states, lag, inject_spans, injected)
    });
    let mut start_delay = Latencies::with_capacity(expected);
    let mut ids = Vec::with_capacity(expected);
    let mut late = Vec::with_capacity(expected);
    for &(id, delay, was_late) in starts.iter().flatten() {
        start_delay.push(delay);
        late.push(was_late);
        ids.push(id);
    }
    ids.sort_unstable();
    let exactly_once = ids.iter().enumerate().all(|(i, &id)| id == i as u64);
    let mut inject_ns = Vec::with_capacity(inject_spans.len());
    for (start, dur) in inject_spans {
        if let Some(spans) = spans.as_deref_mut() {
            spans.record("sched.inject", None, start, dur);
        }
        inject_ns.push(dur as f64);
    }
    let checks = vec![(
        "sched: executed tasks equal injected tasks, each exactly once".to_string(),
        report.executed == injected && ids.len() as u64 == injected && exactly_once,
    )];
    SchedRun {
        start_delay,
        late,
        injected,
        executed: report.executed,
        backoff_waits: report.workers.iter().map(|w| w.backoff_waits).sum(),
        empty_polls: report.empty_polls(),
        retries: report.contended_retries(),
        inversions: report.inversions.count(),
        lag,
        inject_ns,
        checks,
    }
}
