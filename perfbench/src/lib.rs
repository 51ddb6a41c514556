//! The repository benchmark. [`run`] generates one workload's inputs from
//! a seed, repeats set-up and measurement until the time budget is spent,
//! checks every repetition's output, and returns the end-to-end metrics
//! (untraced) or the per-layer metrics (traced). See `README.md` for the
//! workloads, their sizes, and which layer metric should move which
//! end-to-end metric.

mod conc;
mod gen;
mod seq;
pub mod trace;

pub use conc::pool_frames;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use prodsys::MatchEngine;
use relstore::{OpSnapshot, Restriction, Tuple};

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SeqLarge,
    ConcMem,
    DurablePaged,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SeqLarge,
        Workload::ConcMem,
        Workload::DurablePaged,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SeqLarge => "seq-large",
            Workload::ConcMem => "conc-mem",
            Workload::DurablePaged => "durable-paged",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes: `Full` is what the benchmark measures, `Tiny` is for the
/// benchmark's own smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Measurement budget; repetitions continue until it is spent.
    pub budget: Duration,
    /// Fewest repetitions of every input, whatever the budget.
    pub min_reps: usize,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub scale: Scale,
    /// Off-by-one the expected firing count, so the output check must
    /// fail (used by the benchmark's own tests).
    pub tamper: bool,
    /// Directory for the paged store's files and the span dump.
    pub work_dir: PathBuf,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }

    pub fn equal<T: PartialEq + std::fmt::Debug>(name: &str, got: T, want: T) -> Self {
        let ok = got == want;
        Check::new(name, ok, format!("got {got:?}, want {want:?}"))
    }
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Which of the workload's inputs this repetition ran.
    pub input: usize,
    pub setup_s: f64,
    /// Latency of each external change.
    pub change_ns: Vec<u64>,
    /// Latency of each firing (a `step()`, or one single-firing `run`).
    pub fire_ns: Vec<u64>,
    /// Firings committed by the run phase, and its wall time.
    pub fired: u64,
    pub run_s: f64,
    pub recovery_s: f64,
    /// Wall time of the whole repetition.
    pub wall_s: f64,
    /// Fired count and final-WM digest, compared across engines.
    pub outcome: (u64, u64),
    pub checks: Vec<Check>,
    /// Operations attempted and failed (failed checks are added later).
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer metrics (traced repetitions only).
    pub layers: BTreeMap<&'static str, f64>,
    /// The repetition's spans as JSON lines (traced repetitions only).
    pub spans_jsonl: String,
}

/// A prepared workload: inputs generated once, repetitions on demand.
pub trait Bench {
    /// Inputs generated from the seed; a round runs each once.
    fn inputs(&self) -> usize;
    fn rep(&mut self, cfg: &Config, input: usize, traced: bool) -> Rep;
    /// Checks made once per run, after every repetition.
    fn final_checks(&mut self, cfg: &Config, reps: &[&Rep]) -> Vec<Check>;
    /// One line on the sizes, for the human-readable summary.
    fn describe(&self) -> String;
}

/// End-to-end metrics and their units, in output order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("changes_per_s", "1/s"),
    ("change_p50_us", "us"),
    ("firings_per_s", "1/s"),
    ("fire_p50_us", "us"),
    ("recovery_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and their units, in output order. Every workload
/// reports every one; a layer a workload bypasses reads 0. The p99
/// latencies sit here rather than among the end-to-end metrics because
/// host noise moves them by more than any bound the benchmark could hold.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("tail.change_p99_us", "us"),
    ("tail.fire_p99_us", "us"),
    ("ops5.compile_ms", "ms"),
    ("engine.maintain_ms", "ms"),
    ("engine.detect_ms", "ms"),
    ("engine.propagate_ms", "ms"),
    ("engine.apply_ms", "ms"),
    ("engine.pattern_probes", "count"),
    ("engine.pattern_scanned", "count"),
    ("engine.scanned_per_probe", "ratio"),
    ("engine.match_entries", "count"),
    ("engine.match_bytes", "B"),
    ("engine.critical_ms", "ms"),
    ("engine.bootstrap_ms", "ms"),
    ("rete.cs_peak", "count"),
    ("rete.cs_end", "count"),
    ("exec.candidates_ms", "ms"),
    ("exec.step_ms", "ms"),
    ("exec.eligible_ratio", "ratio"),
    ("exec.run_ms", "ms"),
    ("exec.rounds", "count"),
    ("exec.critical_share", "ratio"),
    ("exec.commit_ratio", "ratio"),
    ("exec.unattributed_ms", "ms"),
    ("txn.locks_acquired", "count"),
    ("txn.lock_waits", "count"),
    ("txn.lock_wait_ms", "ms"),
    ("txn.deadlock_aborts", "count"),
    ("txn.aborts", "count"),
    ("query.tuples_read", "count"),
    ("query.index_probes", "count"),
    ("query.scans", "count"),
    ("query.pred_evals", "count"),
    ("query.reads_per_firing", "ratio"),
    ("wal.bytes", "B"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("wal.records_replayed", "count"),
    ("pool.wm_pages", "count"),
    ("pool.page_reads", "count"),
    ("pool.page_writes", "count"),
    ("pool.hits", "count"),
    ("pool.evictions", "count"),
    ("pool.hit_rate", "ratio"),
    ("db.checkpoint_ms", "ms"),
    ("db.open_ms", "ms"),
    ("self.ops5_ms", "ms"),
    ("self.db_ms", "ms"),
    ("self.engine_ms", "ms"),
    ("self.exec_ms", "ms"),
    ("self.bench_ms", "ms"),
    ("self.unspanned_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The result line.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub checks: Vec<Check>,
    pub reps: usize,
    pub summary: String,
}

impl Report {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            write!(m, r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#).unwrap();
        }
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{m}}}}}"#,
            self.correct, self.attempted, self.failed
        )
    }
}

pub fn prepare(cfg: &Config) -> Box<dyn Bench> {
    match cfg.workload {
        Workload::SeqLarge => Box::new(seq::Seq::new(cfg)),
        Workload::ConcMem | Workload::DurablePaged => Box::new(conc::Conc::new(cfg)),
    }
}

/// Run one workload: repeat its inputs in turn until the budget is spent
/// and each has run `min_reps` times; check every repetition, and
/// aggregate.
pub fn run(cfg: &Config) -> Report {
    let mut bench = prepare(cfg);
    let start = Instant::now();
    let mut by_input: Vec<Vec<Rep>> = (0..bench.inputs()).map(|_| Vec::new()).collect();
    let mut traced: Vec<Rep> = Vec::new();
    let mut n = 0;
    while n < cfg.min_reps * by_input.len() || start.elapsed() < cfg.budget {
        let input = n % by_input.len();
        by_input[input].push(bench.rep(cfg, input, false));
        if cfg.trace {
            traced.push(bench.rep(cfg, input, true));
        }
        n += 1;
    }
    // Read before the final checks, which may run other engines.
    let peak_rss_mb = peak_rss_mb();
    let all: Vec<&Rep> = by_input.iter().flatten().chain(&traced).collect();
    let mut checks: Vec<Check> = all.iter().flat_map(|r| r.checks.iter().cloned()).collect();
    checks.extend(bench.final_checks(cfg, &all));
    let failed_checks = checks.iter().filter(|c| !c.ok).count() as u64;
    let attempted = all.iter().map(|r| r.attempted).sum::<u64>() + checks.len() as u64;
    let failed = all.iter().map(|r| r.failed).sum::<u64>() + failed_checks;
    let metrics = if cfg.trace {
        per_layer(&by_input, &traced)
    } else {
        end_to_end(&by_input, peak_rss_mb)
    };
    if let Some(last) = traced.last() {
        let path = cfg.work_dir.join(format!(
            "{}-seed{}.spans.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        if std::fs::create_dir_all(&cfg.work_dir).is_ok() {
            let _ = std::fs::write(path, &last.spans_jsonl);
        }
    }
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        checks,
        reps: n,
        summary: bench.describe(),
    }
}

/// Host interference only ever slows a repetition down, so a figure is
/// the fast quartile of an input's repetitions: the lower quartile of a
/// time, the upper quartile of a rate. It is then averaged over the
/// inputs, so one input's draw does not set it.
fn fast(by_input: &[Vec<Rep>], f: &dyn Fn(&Rep) -> f64, higher_is_better: bool) -> f64 {
    let q = if higher_is_better { 0.75 } else { 0.25 };
    by_input
        .iter()
        .map(|reps| quantile(reps.iter().map(f).collect(), q))
        .sum::<f64>()
        / by_input.len().max(1) as f64
}

/// A latency percentile in microseconds: taken per repetition, then as
/// [`fast`].
fn latency_us(by_input: &[Vec<Rep>], f: &dyn Fn(&Rep) -> &[u64], p: f64) -> f64 {
    let per_rep = |r: &Rep| {
        let mut v = f(r).to_vec();
        v.sort_unstable();
        percentile(&v, p) / 1e3
    };
    fast(by_input, &per_rep, false)
}

fn end_to_end(by_input: &[Vec<Rep>], peak_rss_mb: f64) -> Vec<(&'static str, f64, &'static str)> {
    let values = [
        fast(by_input, &|r| r.setup_s, false),
        fast(
            by_input,
            &|r| r.change_ns.len() as f64 / secs(r.change_ns.iter().sum()),
            true,
        ),
        latency_us(by_input, &|r| &r.change_ns, 0.50),
        fast(by_input, &|r| r.fired as f64 / r.run_s, true),
        latency_us(by_input, &|r| &r.fire_ns, 0.50),
        fast(by_input, &|r| r.recovery_s, false),
        peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

/// Per-layer values are medians over the traced repetitions. The tracing
/// overhead compares those with the untraced repetitions of the same
/// inputs, and the tail latencies come from the untraced repetitions.
fn per_layer(by_input: &[Vec<Rep>], traced: &[Rep]) -> Vec<(&'static str, f64, &'static str)> {
    let plain_wall: f64 = by_input.iter().flatten().map(|r| r.wall_s).sum();
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                "trace.overhead" => traced.iter().map(|r| r.wall_s).sum::<f64>() / plain_wall,
                "tail.change_p99_us" => latency_us(by_input, &|r| &r.change_ns, 0.99),
                "tail.fire_p99_us" => latency_us(by_input, &|r| &r.fire_ns, 0.99),
                _ => median(
                    traced
                        .iter()
                        .map(|r| r.layers.get(name).copied().unwrap_or(0.0))
                        .collect(),
                ),
            };
            (name, v, unit)
        })
        .collect()
}

/// Record the self times of a traced repetition's spans as `self.*`
/// metrics, plus the wall they add up to and the share spans cover.
pub(crate) fn record_self_times(layers: &mut BTreeMap<&'static str, f64>, spans: &[trace::Span]) {
    let selfs = trace::self_times(spans);
    let ms = |layer: &str| selfs.get(layer).copied().unwrap_or(0) as f64 / 1e6;
    let wall: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_ns())
        .sum();
    for (metric, layer) in [
        ("self.ops5_ms", "ops5"),
        ("self.db_ms", "db"),
        ("self.engine_ms", "engine"),
        ("self.exec_ms", "exec"),
        ("self.bench_ms", "bench"),
        ("self.unspanned_ms", "rep"),
    ] {
        layers.insert(metric, ms(layer));
    }
    layers.insert("trace.wall_ms", wall as f64 / 1e6);
    layers.insert(
        "trace.coverage",
        1.0 - ms("rep") / (wall.max(1) as f64 / 1e6),
    );
}

/// Storage counters of one phase as `txn.*`, `query.*` and `pool.*`
/// metrics.
pub(crate) fn record_storage(
    layers: &mut BTreeMap<&'static str, f64>,
    ops: &OpSnapshot,
    fired: u64,
) {
    let pairs: [(&'static str, f64); 13] = [
        ("txn.locks_acquired", ops.locks_acquired as f64),
        ("txn.lock_waits", ops.lock_waits as f64),
        ("txn.lock_wait_ms", ops.lock_wait_ns as f64 / 1e6),
        ("txn.aborts", ops.aborts as f64),
        ("query.tuples_read", ops.tuples_read as f64),
        ("query.index_probes", ops.index_probes as f64),
        ("query.scans", ops.scans as f64),
        ("query.pred_evals", ops.pred_evals as f64),
        ("query.reads_per_firing", ratio(ops.tuples_read, fired)),
        ("pool.page_reads", ops.page_reads as f64),
        ("pool.page_writes", ops.page_writes as f64),
        ("pool.hits", ops.pool_hits as f64),
        ("pool.evictions", ops.pool_evictions as f64),
    ];
    layers.extend(pairs);
    layers.insert(
        "pool.hit_rate",
        ratio(ops.pool_hits, ops.pool_hits + ops.page_reads),
    );
}

/// Engine-side metrics read after a traced repetition: the `cond.maintain`
/// profiler tree, the pattern-store counters and the match-state size.
pub(crate) fn record_engine(
    layers: &mut BTreeMap<&'static str, f64>,
    engine: &dyn MatchEngine,
    profile: &obs::Profile,
) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let roots = &profile.roots;
    layers.insert(
        "engine.maintain_ms",
        ms(trace::prof_ns(roots, "cond.maintain")),
    );
    for (metric, node) in [
        ("engine.detect_ms", "detect"),
        ("engine.propagate_ms", "propagate"),
        ("engine.apply_ms", "apply"),
    ] {
        layers.insert(
            metric,
            ms(trace::prof_ns_within(roots, "cond.maintain", node)),
        );
    }
    let (probes, scanned) = engine.pattern_io().unwrap_or((0, 0));
    layers.insert("engine.pattern_probes", probes as f64);
    layers.insert("engine.pattern_scanned", scanned as f64);
    layers.insert("engine.scanned_per_probe", ratio(scanned, probes));
    let space = engine.space();
    layers.insert("engine.match_entries", space.match_entries as f64);
    layers.insert("engine.match_bytes", space.match_bytes as f64);
}

/// Sum of the durations of the spans called `name`, in milliseconds.
pub(crate) fn span_ms(spans: &[trace::Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns())
        .sum::<u64>() as f64
        / 1e6
}

/// Sorted tuples of every WM class.
pub(crate) fn wm_dump(engine: &dyn MatchEngine) -> Vec<Vec<Tuple>> {
    let pdb = engine.pdb();
    (0..pdb.class_count())
        .map(|c| {
            let mut rows: Vec<Tuple> = pdb
                .db()
                .select(pdb.class_rel(ops5::ClassId(c)), &Restriction::default())
                .expect("wm select")
                .into_iter()
                .map(|(_, t)| t)
                .collect();
            rows.sort();
            rows
        })
        .collect()
}

/// FNV-1a digest of a WM dump.
pub(crate) fn digest(dump: &[Vec<Tuple>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (c, rows) in dump.iter().enumerate() {
        for t in rows {
            for b in format!("{c}:{t}\n").bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

pub(crate) fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub(crate) fn median(v: Vec<f64>) -> f64 {
    quantile(v, 0.5)
}

/// The `q` quantile (0..=1) of `v`, interpolating between neighbours; 0
/// when empty.
pub(crate) fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Nearest-rank percentile of sorted samples.
pub(crate) fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 when unknown.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
