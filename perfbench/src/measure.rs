//! Measurement helpers shared by every phase: exact quantiles over kept
//! samples, medians, the multiset fingerprint behind the conservation
//! checks, sampled spans, and the run's result sheet.

use std::collections::BTreeMap;
use std::time::Instant;

/// Nearest-rank quantile of `sorted` (ascending); `q` in `[0, 1]`.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it, so a tail figure is never a single outlier.
pub fn top_percentile(samples: usize) -> f64 {
    let mut best = 50.0;
    for p in [90.0, 99.0, 99.9, 99.99, 99.999] {
        if samples as f64 * (1.0 - p / 100.0) >= 10.0 {
            best = p;
        }
    }
    best
}

/// Linearly interpolated `q` quantile of `values`.
fn interpolated(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    interpolated(values, 0.5)
}

/// Samples per window for [`windows`]: enough that a window's p99 has
/// twenty samples beyond it.
pub const WINDOW: usize = 2000;

/// `per_window` applied to consecutive windows of [`WINDOW`] items (one
/// window for fewer items).
pub fn windows<T>(items: &[T], per_window: impl Fn(&[T]) -> f64) -> Vec<f64> {
    let count = (items.len() / WINDOW).max(1);
    let len = items.len().div_ceil(count);
    items.chunks(len.max(1)).map(per_window).collect()
}

// Tail figures. Two kinds of interference from outside the benchmark reach
// a run on a shared VM: the host descheduling a CPU for 0.5-20 ms, several
// times a second and in busy periods in most windows; and the speed of a
// CPU shifting by up to a third for seconds at a time with what its
// neighbours run. A p50 over the whole run is robust to both: stalls touch
// a minority of samples, and the speed shifts average out. A tail is not:
// stalls only ever inflate it, and a whole-run p99 swung from ~40 us to
// several ms between runs. Tail figures (p99s, the deadline-miss share) are
// therefore taken per window of samples and reported at the lower quartile
// over windows, which ignores up to three windows in four being stalled.

/// Lower quartile over windows, for tail figures.
pub fn tail_quartile(values: &[f64]) -> f64 {
    interpolated(values, 0.25)
}

/// A latency sample set in nanoseconds, kept whole and in arrival order so
/// that every reported quantile comes from the samples themselves.
#[derive(Default)]
pub struct Latencies {
    ns: Vec<u64>,
}

impl Latencies {
    pub fn with_capacity(n: usize) -> Self {
        Self {
            ns: Vec::with_capacity(n),
        }
    }

    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn extend(&mut self, other: &Latencies) {
        self.ns.extend_from_slice(&other.ns);
    }

    /// The `q` quantile of the whole set, in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        quantile_of(&self.ns, q)
    }

    /// The `q` quantile in microseconds per window of [`WINDOW`] samples,
    /// as the lower quartile over windows: for tail figures.
    pub fn tail_us(&self, q: f64) -> f64 {
        tail_quartile(&windows(&self.ns, |w| quantile_of(w, q)))
    }

    /// One stderr line: sample count; whole-set p50, p99 and the top
    /// percentile that has at least ten samples beyond it; and the windowed
    /// p99, reported and median.
    pub fn describe(&self, name: &str) -> String {
        let top = top_percentile(self.len());
        let p99s = windows(&self.ns, |w| quantile_of(w, 0.99));
        format!(
            "{name}: n={} p50={:.2}us p99={:.2}us p{top}={:.2}us; windowed p99={:.2}us (median window {:.2}us)",
            self.len(),
            self.quantile_us(0.50),
            self.quantile_us(0.99),
            self.quantile_us(top / 100.0),
            tail_quartile(&p99s),
            median(&p99s),
        )
    }
}

fn quantile_of(ns: &[u64], q: f64) -> f64 {
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    quantile(&sorted, q) as f64 / 1e3
}

/// SplitMix64 finaliser: the value stored with every key, checked on
/// removal, and the per-key term of the multiset fingerprint.
pub fn mix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-independent fingerprint of a multiset of keys: equal multisets
/// always compare equal; different ones collide with negligible chance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Multiset {
    count: u64,
    sum: u64,
    mixed: u64,
}

impl Multiset {
    pub fn add(&mut self, key: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(key);
        self.mixed = self.mixed.wrapping_add(mix(key));
    }

    pub fn merge(&mut self, other: &Multiset) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.mixed = self.mixed.wrapping_add(other.mixed);
    }
}

/// One sampled span around a call into a layer. `parent` is the span id of
/// the enclosing call, if the span has one.
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub layer: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// In-memory span store, written out once at the end of a traced run.
pub struct Spans {
    epoch: Instant,
    next_id: u64,
    per_layer: BTreeMap<&'static str, usize>,
    pub kept: Vec<Span>,
}

/// Upper bound on the spans one run keeps per layer.
const MAX_SPANS_PER_LAYER: usize = 10_000;

impl Spans {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: 1,
            per_layer: BTreeMap::new(),
            kept: Vec::new(),
        }
    }

    /// Records a span that started at `start` and lasted `dur_ns`; returns
    /// its id so children can name it.
    pub fn record(
        &mut self,
        layer: &'static str,
        parent: Option<u64>,
        start: Instant,
        dur_ns: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let count = self.per_layer.entry(layer).or_default();
        if *count < MAX_SPANS_PER_LAYER {
            *count += 1;
            self.kept.push(Span {
                id,
                parent,
                layer,
                start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
                dur_ns,
            });
        }
        id
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}\n",
                s.id, parent, s.layer, s.start_ns, s.dur_ns
            ));
        }
        out
    }
}

/// Folds `more` into `checks`: a check named in both passes only if it
/// passed every time.
pub fn merge_checks(checks: &mut Vec<(String, bool)>, more: Vec<(String, bool)>) {
    for (name, ok) in more {
        match checks.iter_mut().find(|(n, _)| *n == name) {
            Some((_, passed)) => *passed &= ok,
            None => checks.push((name, ok)),
        }
    }
}

/// Everything one run reports: operation counts, correctness checks and
/// named metrics with units.
#[derive(Default)]
pub struct Sheet {
    pub attempted: u64,
    pub failed: u64,
    checks: Vec<(String, bool)>,
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Sheet {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("CHECK FAILED: {name}");
        }
        self.checks.push((name, ok));
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    pub fn checks(&self) -> &[(String, bool)] {
        &self.checks
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and the
    /// metrics named in `names`, in that order. A name without a finite
    /// value is an error: the run must not print a partial result.
    pub fn result_json(&self, names: &[&str]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(names.len());
        for name in names {
            let (value, unit) = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }
}
