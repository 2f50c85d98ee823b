//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pairs_hot|pairs_deep|sched_edf> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run reports every end-to-end metric (`--trace 0`) or every
//! per-layer metric (`--trace 1`) as the last line of standard output, and
//! exits non-zero if a correctness check failed. See `perfbench/README.md`
//! for what each workload and metric measures.

mod affinity;
mod ladder;
mod measure;
mod pairs;
mod sched;
mod wire;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use measure::{median, top_percentile, Latencies, Sheet, Spans};
use pairs::PairsSpec;

/// The end-to-end metrics, printed by every `--trace 0` run.
const END_TO_END: &[&str] = &[
    "ops_per_s",
    "rank_mean",
    "rank_max",
    "start_delay_p50_us",
    "start_delay_p99_us",
    "deadline_miss_share",
    "setup_s",
    "peak_rss_mb",
];

/// The per-layer metrics, printed by every `--trace 1` run.
const PER_LAYER: &[&str] = &[
    "seq_pq.pair_ns",
    "lane.self_ns",
    "engine.self_ns",
    "engine.contention_ns",
    "engine.retries_per_op",
    "engine.failed_removal_share",
    "engine.rank_p99_2t",
    "engine.rank_max_2t",
    "dyn.self_ns",
    "obs.attached_ns",
    "wire.encode_ns",
    "wire.decode_ns",
    "wire.rtt_p50_us",
    "wire.rtt_p99_us",
    "wire.max_rate_rps",
    "wire.frames_per_read",
    "registry.admit_ns",
    "server.self_us",
    "socket.us",
    "sched.inject_ns",
    "sched.backoff_waits_per_task",
    "sched.empty_polls_per_task",
    "sched.retries_per_task",
    "sched.inversions_per_k",
    "gen.lag_p99_us",
    "trace.overhead_share",
    "ladder.unaccounted_share",
    "failed_share",
    "rtt.samples",
    "rtt.top_pct",
    "start_delay.samples",
    "start_delay.top_pct",
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    PairsHot,
    PairsDeep,
    SchedEdf,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "pairs_hot" => Self::PairsHot,
            "pairs_deep" => Self::PairsDeep,
            "sched_edf" => Self::SchedEdf,
            _ => return None,
        })
    }

    /// The pairs configuration this run measures: the workload's own, or
    /// the hot one for the workloads whose own phase is elsewhere.
    fn pairs_spec(self) -> PairsSpec {
        match self {
            Self::PairsDeep => pairs::DEEP,
            _ => pairs::HOT,
        }
    }

    /// Share of the measured time given to the pairs, wire and sched
    /// phases. The workload's own phase gets the largest share; the others
    /// run as reference probes so that every run reports every metric. The
    /// wire phase carries the wire checks and per-layer figures, whose
    /// round trips vary with the host's CPU speed and need the time; start
    /// delays hardly vary, so the sched probe is the shortest.
    fn shares(self) -> [f64; 3] {
        match self {
            Self::PairsHot | Self::PairsDeep => [0.5, 0.35, 0.15],
            Self::SchedEdf => [0.2, 0.4, 0.4],
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("# stamp {}", stamp(&args));
    let mut sheet = Sheet::default();
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    if let Err(e) = run(&args, &mut sheet) {
        eprintln!("perfbench: run failed: {e}");
        return ExitCode::FAILURE;
    }
    for (name, ok) in sheet.checks() {
        eprintln!("check {}: {name}", if *ok { "ok" } else { "FAILED" });
    }
    match sheet.result_json(names) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if sheet.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Commit, CPU count, CPU model and seed, so a result can be traced to
/// where it was measured.
fn stamp(args: &Args) -> String {
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        })
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"commit\": \"{commit}\", \"nproc\": {nproc}, \"cpu\": \"{cpu}\", \"seed\": {}, \"workload\": \"{:?}\", \"seconds\": {}, \"trace\": {}}}",
        args.seed, args.workload, args.seconds, args.trace
    )
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Fewest repetitions of one set-up, and the time after which no more are
/// started: cheap set-ups repeat until the time is spent, so that the
/// median of a millisecond-long set-up is as steady as that of a long one.
const SETUP_REPEATS: usize = 9;
const SETUP_TIME: Duration = Duration::from_millis(250);

/// Median wall time of `setup`, repeated at least [`SETUP_REPEATS`] times
/// and until [`SETUP_TIME`] is spent; what it built is dropped outside the
/// timed region.
fn time_setup<T>(mut setup: impl FnMut() -> T) -> f64 {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < SETUP_REPEATS || started.elapsed() < SETUP_TIME {
        let t = Instant::now();
        let built = std::hint::black_box(setup());
        times.push(t.elapsed().as_secs_f64());
        drop(built);
    }
    median(&times)
}

/// The three phases of one pass over the run's time budget.
struct Phases {
    pairs: pairs::ClosedLoop,
    wire: wire::WireRun,
    sched: sched::SchedRun,
}

/// Rounds a pass is cut into. Each phase runs once per round, so every
/// metric samples the whole pass instead of one stretch of it: on a shared
/// VM the host's interference comes and goes over seconds.
const ROUNDS: u32 = 3;

/// Runs the pairs, wire and sched phases for their shares of `total`
/// seconds, in [`ROUNDS`] rounds, and checks their outputs.
fn phases(
    args: &Args,
    sheet: &mut Sheet,
    total: f64,
    mut spans: Option<&mut Spans>,
) -> Result<Phases, String> {
    let shares = args.workload.shares();
    let time = |phase: usize| Duration::from_secs_f64(total * shares[phase]) / ROUNDS;
    let spec = args.workload.pairs_spec();
    let mut passes: Option<Phases> = None;
    for _ in 0..ROUNDS {
        let closed = pairs::closed_loop(spec, args.seed, time(0), spans.as_deref_mut());

        // The server's threads, the scheduler's worker and the injector
        // inherit this thread's CPU (see `affinity`).
        affinity::pin(affinity::OPEN_LOOP);
        let open_loops = wire::setup(args.seed)
            .and_then(|rig| {
                let (reference, sustained) = (time(1).mul_f64(0.65), time(1).mul_f64(0.35));
                wire::run(rig, args.seed, reference, sustained, spans.as_deref_mut())
            })
            .map_err(|e| format!("wire phase: {e}"))
            .map(|w| {
                let queue = sched::setup(args.seed);
                (
                    w,
                    sched::run(queue, args.seed, time(2), spans.as_deref_mut()),
                )
            });
        affinity::unpin();
        let (w, s) = open_loops?;

        match passes.as_mut() {
            None => {
                passes = Some(Phases {
                    pairs: closed,
                    wire: w,
                    sched: s,
                })
            }
            Some(p) => {
                p.pairs.merge(closed);
                p.wire.merge(w);
                p.sched.merge(s);
            }
        }
    }
    let p = passes.expect("at least one round");
    let what = if spans.is_some() { " (traced)" } else { "" };
    sheet.attempted += p.pairs.ops + p.wire.requests + p.sched.injected;
    sheet.failed += p.pairs.stats.failed_removals
        + p.pairs.corrupt
        + p.wire.failed
        + p.sched.injected.saturating_sub(p.sched.executed);
    sheet.check(
        format!("pairs{what}: inserted keys equal removed keys plus the final drain"),
        p.pairs.conserved,
    );
    sheet.check(
        format!("pairs{what}: every removed value matches its key"),
        p.pairs.corrupt == 0,
    );
    for (name, ok) in p.wire.checks.iter().chain(&p.sched.checks) {
        sheet.check(format!("{name}{what}"), *ok);
    }
    eprintln!(
        "pairs{what} {:?}: {:.0} ops/s, {} ops, retries={} failed_removals={}",
        spec,
        p.pairs.ops_per_s(),
        p.pairs.ops,
        p.pairs.stats.contended_retries,
        p.pairs.stats.failed_removals
    );
    eprintln!("{}", p.wire.rtt.describe("wire rtt at reference rate"));
    eprintln!(
        "wire max rate: {:.0} req/s with p99 {:.1}us (limit {}us), {:.2} frames/read",
        p.wire.max_rate_rps(),
        p.wire.max_rate_p99_us(),
        wire::LIMIT_P99_US,
        p.wire.frames_per_read()
    );
    if p.wire.max_rate_p99_us() > wire::LIMIT_P99_US {
        eprintln!("warning: the max rate missed its p99 latency limit");
    }
    eprintln!("{}", p.sched.start_delay.describe("sched start delay"));
    eprintln!(
        "sched: {} tasks, {} missed, {} backoff waits",
        p.sched.injected,
        p.sched.late.iter().filter(|&&l| l).count(),
        p.sched.backoff_waits
    );
    Ok(p)
}

fn run(args: &Args, sheet: &mut Sheet) -> Result<(), String> {
    let seed = args.seed;
    let spec = args.workload.pairs_spec();

    // Set-up: every phase's structure, built and torn down several times.
    let setup_s = time_setup(|| pairs::setup(spec, seed))
        + time_setup(|| wire::setup(seed).map_err(|e| e.to_string()))
        + time_setup(|| sched::setup(seed));
    sheet.metric("setup_s", setup_s, "s");

    // Rank: exact, from an instrumented single-thread replay; and the
    // self-check that a replay sampling every lane removes the minimum.
    let ranks = pairs::rank_replay(pairs::queue_config(seed), spec.prefill, REPLAY_PAIRS, 1);
    sheet.metric("rank_mean", ranks.mean, "rank");
    sheet.metric("rank_max", ranks.max_median, "rank");
    eprintln!(
        "rank replay: removals={} mean={:.3} p99={} max={} median of segment maxima={}",
        ranks.removals, ranks.mean, ranks.p99, ranks.max, ranks.max_median
    );
    let config = pairs::queue_config(seed);
    let lanes = config.queues;
    let exact = pairs::rank_replay(config.with_d(lanes), pairs::HOT.prefill, 1 << 14, 1);
    sheet.check(
        "rank: a 1-thread replay sampling every lane removes the minimum every time",
        exact.max == 1,
    );

    // A traced run spends half its time untraced, as the reference its
    // tracing overhead is measured against.
    let untraced_time = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = phases(args, sheet, untraced_time, None)?;
    sheet.metric("ops_per_s", plain.pairs.ops_per_s(), "1/s");
    sheet.metric(
        "start_delay_p50_us",
        plain.sched.start_delay.quantile_us(0.50),
        "us",
    );
    sheet.metric(
        "start_delay_p99_us",
        plain.sched.start_delay.tail_us(0.99),
        "us",
    );
    sheet.metric("deadline_miss_share", plain.sched.miss_share(), "share");

    if args.trace {
        let mut spans = Spans::new();
        let traced = phases(args, sheet, args.seconds / 2.0, Some(&mut spans))?;
        per_layer(sheet, args, &plain, &traced);
        write_spans(args, &spans);
    }

    sheet.metric(
        "peak_rss_mb",
        peak_rss_mb().ok_or("no /proc/self/status")?,
        "MB",
    );
    Ok(())
}

/// Pairs in each rank replay.
const REPLAY_PAIRS: usize = 1 << 18;

/// Fills in the per-layer metrics of a traced run.
fn per_layer(sheet: &mut Sheet, args: &Args, plain: &Phases, traced: &Phases) {
    let seed = args.seed;
    let spec = args.workload.pairs_spec();
    let l = ladder::run(spec.prefill, seed, Duration::from_secs(3));
    sheet.metric("seq_pq.pair_ns", l.seq_pq, "ns");
    sheet.metric("lane.self_ns", l.lane1 - l.seq_pq, "ns");
    sheet.metric("engine.self_ns", l.lanes4 - l.lane1, "ns");
    sheet.metric("dyn.self_ns", l.dyn4 - l.lanes4, "ns");
    sheet.metric("obs.attached_ns", l.obs4 - l.lanes4, "ns");
    sheet.metric("wire.encode_ns", l.encode, "ns");
    sheet.metric("wire.decode_ns", l.decode, "ns");
    sheet.metric("registry.admit_ns", l.admit, "ns");
    eprintln!(
        "ladder ns/pair: seq_pq={:.1} 1-lane={:.1} 4-lane={:.1} dyn={:.1} obs={:.1}",
        l.seq_pq, l.lane1, l.lanes4, l.dyn4, l.obs4
    );

    // Contention: the hot queue with two workers against one.
    let probe = Duration::from_secs(1);
    let one = pairs::closed_loop(
        pairs::PairsSpec {
            threads: 1,
            ..pairs::HOT
        },
        seed,
        probe,
        None,
    );
    let two = pairs::closed_loop(pairs::HOT, seed, probe, None);
    for (what, c) in [("1 thread", &one), ("2 threads", &two)] {
        sheet.attempted += c.ops;
        sheet.failed += c.stats.failed_removals + c.corrupt;
        sheet.check(
            format!("contention probe, {what}: inserted keys equal removed keys plus the drain"),
            c.conserved && c.corrupt == 0,
        );
    }
    let ns_per_op = |c: &pairs::ClosedLoop, threads: usize| threads as f64 * 1e9 / c.ops_per_s();
    sheet.metric(
        "engine.contention_ns",
        ns_per_op(&two, 2) - ns_per_op(&one, 1),
        "ns",
    );
    sheet.metric(
        "engine.retries_per_op",
        two.stats.contended_retries as f64 / two.stats.operations().max(1) as f64,
        "1/op",
    );
    sheet.metric(
        "engine.failed_removal_share",
        two.stats.failed_removals as f64
            / (two.stats.removals + two.stats.failed_removals).max(1) as f64,
        "share",
    );
    let r2 = pairs::rank_replay(
        pairs::queue_config(seed),
        pairs::HOT.prefill,
        REPLAY_PAIRS,
        2,
    );
    sheet.metric("engine.rank_p99_2t", r2.p99 as f64, "rank");
    sheet.metric("engine.rank_max_2t", r2.max as f64, "rank");

    // The ladder should account for the untraced per-operation time of the
    // run's pairs phase: half a 4-lane pair, plus contention with two
    // workers.
    let measured = ns_per_op(&plain.pairs, spec.threads);
    let mut ladder_ns = l.lanes4 / 2.0;
    if spec.threads > 1 {
        ladder_ns += ns_per_op(&two, 2) - ns_per_op(&one, 1);
    }
    let unaccounted = 1.0 - ladder_ns / measured;
    sheet.metric("ladder.unaccounted_share", unaccounted, "share");
    eprintln!(
        "ladder accounts for {:.1} of {:.1} ns/op ({:+.1}% unaccounted; stated tolerance ±{:.0}%)",
        ladder_ns,
        measured,
        unaccounted * 100.0,
        LADDER_TOLERANCE * 100.0
    );
    if unaccounted.abs() > LADDER_TOLERANCE {
        eprintln!("warning: the ladder does not account for the measured per-op time");
    }

    let (w, s) = (&plain.wire, &plain.sched);
    sheet.metric("wire.rtt_p50_us", w.rtt.quantile_us(0.50), "us");
    sheet.metric("wire.rtt_p99_us", w.rtt.tail_us(0.99), "us");
    sheet.metric("wire.max_rate_rps", w.max_rate_rps(), "1/s");
    sheet.metric("wire.frames_per_read", w.frames_per_read(), "frames");
    sheet.metric("server.self_us", median(&traced.wire.server_ns) / 1e3, "us");
    sheet.metric("socket.us", median(&traced.wire.socket_ns) / 1e3, "us");
    sheet.metric("sched.inject_ns", median(&traced.sched.inject_ns), "ns");
    let tasks = s.executed.max(1) as f64;
    sheet.metric(
        "sched.backoff_waits_per_task",
        s.backoff_waits as f64 / tasks,
        "1/task",
    );
    sheet.metric(
        "sched.empty_polls_per_task",
        s.empty_polls as f64 / tasks,
        "1/task",
    );
    sheet.metric("sched.retries_per_task", s.retries as f64 / tasks, "1/task");
    sheet.metric(
        "sched.inversions_per_k",
        s.inversions as f64 * 1e3 / tasks,
        "1/ktask",
    );
    let mut lag = Latencies::default();
    lag.extend(&w.lag);
    lag.extend(&s.lag);
    sheet.metric("gen.lag_p99_us", lag.quantile_us(0.99), "us");

    // Tracing overhead on the workload's own headline figure.
    let overhead = match args.workload {
        Workload::PairsHot | Workload::PairsDeep => {
            plain.pairs.ops_per_s() / traced.pairs.ops_per_s() - 1.0
        }
        Workload::SchedEdf => {
            traced.sched.start_delay.quantile_us(0.5) / s.start_delay.quantile_us(0.5) - 1.0
        }
    };
    sheet.metric("trace.overhead_share", overhead, "share");
    sheet.metric(
        "failed_share",
        sheet.failed as f64 / sheet.attempted.max(1) as f64,
        "share",
    );
    sheet.metric("rtt.samples", w.rtt.len() as f64, "count");
    sheet.metric("rtt.top_pct", top_percentile(w.rtt.len()), "pct");
    sheet.metric("start_delay.samples", s.start_delay.len() as f64, "count");
    sheet.metric(
        "start_delay.top_pct",
        top_percentile(s.start_delay.len()),
        "pct",
    );
}

/// Share of the measured per-op time the ladder may leave unexplained
/// before the run warns.
const LADDER_TOLERANCE: f64 = 0.35;

/// Writes the traced run's spans under `perfbench/out/`.
fn write_spans(args: &Args, spans: &Spans) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{:?}-{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, spans.to_jsonl())) {
        Ok(()) => eprintln!("spans: {} written to {}", spans.kept.len(), path.display()),
        Err(e) => eprintln!("spans: not written ({e})"),
    }
}
