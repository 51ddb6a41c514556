//! Machine-readable benchmark snapshots: `harness --bench-json FILE`.
//!
//! Runs a workload — the [`OBS_DEMO`](crate::obs_run) demo, the scaled
//! skewed join, or the §5 worker sweep — and emits one row per engine or
//! variant as one JSON document in a stable schema (`sellis88-bench/v1`),
//! so successive snapshots — `BENCH_seed.json`, `BENCH_<change>.json` —
//! can be diffed across PRs without scraping harness tables. Every row
//! is built by one `measure`.

use std::time::Instant;

use obs::json::{Arr, Obj};
use prodsys::{
    make_engine, ClassId, ConcurrentExecutor, EngineKind, MatchEngine, ProductionDb,
    ProductionSystem, SequentialExecutor, SpaceStats, Strategy,
};
use relstore::{tuple, OpSnapshot};

use crate::obs_run::{OBS_DEMO, OBS_ITEMS};

/// Schema identifier embedded in every snapshot. Bump only when a field
/// is renamed or removed; adding fields is backward compatible.
pub const BENCH_SCHEMA: &str = "sellis88-bench/v1";

/// One engine's measurements over the demo workload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchRow {
    /// Row label: the engine (`rete`, `db-rete`, `query`, `cond`,
    /// `marker`) or a variant of it (`query-nl`, `concurrent-w4`, …).
    pub engine: String,
    /// Wall time of the timed part of the pass, in nanoseconds (the
    /// fastest of two passes).
    pub wall_ns: u64,
    /// Productions fired.
    pub fired: u64,
    /// Logical I/O (tuples read + inserted + deleted) of the run.
    pub logical_io: u64,
    /// Entries held in match-support memory after the run.
    pub match_entries: u64,
    /// Approximate bytes of match-support memory after the run.
    pub match_bytes: u64,
    /// Matching-pattern index probes served (0 for engines without a
    /// pattern store).
    pub pattern_probes: u64,
    /// Matching patterns examined during maintenance — the candidate
    /// lists behind probes, plus whole groups where no hash site applies.
    pub pattern_scanned: u64,
    /// Pages faulted in from the page file (0 for in-memory rows).
    pub page_reads: u64,
    /// Pages written to the page file (0 for in-memory rows).
    pub page_writes: u64,
    /// Page requests served from the buffer pool without I/O.
    pub pool_hits: u64,
    /// Buffer-pool frames evicted to make room (0 unless the pool is
    /// smaller than the working set).
    pub pool_evictions: u64,
    /// Lock requests that blocked during the run (0 for the sequential
    /// rows, which are single-threaded and never contend).
    pub lock_waits: u64,
    /// Total nanoseconds transactions spent blocked on locks.
    pub lock_wait_ns: u64,
    /// Per-lock-shard contention `(shard, waits, wait_ns)` for shards
    /// where at least one request blocked — the §5 sharding evidence:
    /// contention localizes to the shards the workload actually hits.
    pub lock_shards: Vec<(u32, u64, u64)>,
    /// Bytes allocated during the profiled re-run (0 when the row was
    /// built without profiling, or in binaries that don't install
    /// [`obs::alloc::CountingAlloc`]).
    pub alloc_bytes: u64,
    /// Wall time of the profiled re-run (0 when not profiled) — the
    /// denominator for span attribution; `wall_ns` stays profiler-free.
    pub prof_wall_ns: u64,
    /// Merged span call tree of the profiled re-run (empty when not
    /// profiled).
    pub profile: obs::Profile,
}

impl BenchRow {
    /// Top-`n` self-time hotspots of the profiled re-run.
    pub fn hotspots(&self, n: usize) -> Vec<obs::prof::Hotspot> {
        self.profile.hotspots(n)
    }

    /// Share of the profiled re-run's wall time attributed to named
    /// spans (0.0 when the row was not profiled).
    pub fn attribution(&self) -> f64 {
        if self.prof_wall_ns == 0 {
            return 0.0;
        }
        self.profile.total_ns() as f64 / self.prof_wall_ns as f64
    }
}

/// What one pass of a bench row measured: the wall time of the part the
/// pass chose to time, plus the counters of the system it left behind.
struct Pass {
    wall_ns: u64,
    fired: u64,
    ops: OpSnapshot,
    space: SpaceStats,
    pattern_io: (u64, u64),
    /// `(lock_waits, lock_wait_ns, per-shard contention)`; zero for the
    /// single-threaded passes.
    locks: (u64, u64, Vec<(u32, u64, u64)>),
}

impl Pass {
    /// The counters of `engine` after a pass that fired `fired` times.
    fn of(engine: &dyn MatchEngine, start: Instant, fired: u64) -> Pass {
        Pass {
            wall_ns: start.elapsed().as_nanos() as u64,
            fired,
            ops: engine.pdb().db().stats().snapshot(),
            space: engine.space(),
            pattern_io: engine.pattern_io().unwrap_or((0, 0)),
            locks: (0, 0, Vec::new()),
        }
    }
}

/// Fresh passes per row; the row keeps the fastest. The run-to-run
/// jitter of the scan-heavy rows (allocator and page-cache state) reaches
/// ~40%, which the bench-check 25% band cannot absorb, while the min of
/// two passes is stable. Each pass builds its own system, so the
/// deterministic counters are identical whichever pass the row keeps;
/// the concurrent rows' lock counters are the kept pass's own.
const PASSES: usize = 2;

/// Build one bench row from [`PASSES`] runs of `pass`, keeping the
/// fastest. With `profiled`, one more run under the span profiler and the
/// allocation counters fills the hotspot and allocation columns; the
/// timed passes always run profiler-off, so `wall_ns` stays comparable
/// across snapshots. The profiler is process-global: rows are measured
/// one at a time.
fn measure(label: impl Into<String>, profiled: bool, pass: impl Fn() -> Pass) -> BenchRow {
    let best = (0..PASSES)
        .map(|_| pass())
        .min_by_key(|p| p.wall_ns)
        .expect("at least one pass");
    let (mut profile, mut prof_wall_ns, mut alloc_bytes) = (obs::Profile::new(), 0, 0);
    if profiled {
        obs::prof::reset();
        obs::alloc::reset();
        obs::prof::set_enabled(true);
        let start = Instant::now();
        pass();
        prof_wall_ns = start.elapsed().as_nanos() as u64;
        obs::prof::set_enabled(false);
        profile = obs::prof::take();
        alloc_bytes = obs::alloc::stats().bytes;
    }
    let Pass {
        wall_ns,
        fired,
        ops,
        space,
        pattern_io: (pattern_probes, pattern_scanned),
        locks: (lock_waits, lock_wait_ns, lock_shards),
    } = best;
    BenchRow {
        engine: label.into(),
        wall_ns,
        fired,
        logical_io: ops.logical_io(),
        match_entries: space.match_entries as u64,
        match_bytes: space.match_bytes as u64,
        pattern_probes,
        pattern_scanned,
        page_reads: ops.page_reads,
        page_writes: ops.page_writes,
        pool_hits: ops.pool_hits,
        pool_evictions: ops.pool_evictions,
        lock_waits,
        lock_wait_ns,
        lock_shards,
        alloc_bytes,
        prof_wall_ns,
        profile,
    }
}

/// One benchmark document: a workload's rows plus what the bench check
/// needs to judge them.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Workload name (`obs-demo`, `scaled-skew`, `concurrent-workers`).
    pub workload: &'static str,
    /// Workload size the rows ran at.
    pub items: i64,
    /// Lock-manager shard count of the concurrent rows.
    pub shards: usize,
    pub rows: Vec<BenchRow>,
}

/// One pass of the demo workload on a fresh `kind` system, timed from
/// compile through the run.
fn demo_pass(kind: EngineKind) -> Pass {
    let start = Instant::now();
    let mut sys = ProductionSystem::from_source(OBS_DEMO, kind, Strategy::Fifo)
        .expect("demo program compiles");
    for i in 0..OBS_ITEMS {
        sys.insert("Item", tuple![i, i * 2]).expect("Item class");
    }
    let out = sys.run(10_000);
    Pass::of(sys.engine(), start, out.fired as u64)
}

/// The demo workload on every engine, one row each (workload
/// `obs-demo`). Fresh system per pass, so no measurement sees another's
/// caches or statistics.
pub fn bench_snapshot(profiled: bool) -> Snapshot {
    Snapshot {
        workload: "obs-demo",
        items: OBS_ITEMS,
        shards: relstore::DEFAULT_LOCK_SHARDS,
        rows: EngineKind::ALL
            .iter()
            .map(|&kind| measure(kind.label(), profiled, || demo_pass(kind)))
            .collect(),
    }
}

/// Scaled skewed-join workload (`harness --bench-json F --items N`).
///
/// `Match` joins every `Item` with the small `Ref` relation on `^k` and
/// fires once per item whose key has a referent, guarded by a negated
/// `Hit` CE. The key distribution is skewed — three quarters of the
/// items funnel onto [`SCALED_HOT`] hot keys with *no* referent, the
/// rest spread over the cold tail where the referents live — so the
/// join is selective and the fired count stays far below `N` while the
/// per-change maintenance cost of tuple-at-a-time engines is dominated
/// by `N` full re-evaluations during the load. Set-oriented engines
/// (§4.2 delta batching) collapse that load into one batched pass.
pub const SCALED_DEMO: &str = r#"
    (literalize Item n k)
    (literalize Ref k w)
    (literalize Hit n)
    (p Match (Item ^n <N> ^k <K>) (Ref ^k <K> ^w <W>) -(Hit ^n <N>) --> (make Hit ^n <N>))
"#;

/// Distinct join keys the scaled workload draws from.
pub const SCALED_KEYS: i64 = 64;
/// Hot keys (referent-free) that three quarters of the items hit.
pub const SCALED_HOT: i64 = 4;
/// Cold keys that have a `Ref` row (the join's probe targets).
pub const SCALED_REFS: i64 = 4;
/// Upper bound on `--items` (keeps tuple-at-a-time baselines tractable).
pub const SCALED_MAX_ITEMS: i64 = 10_000;

/// The skewed key of item `i`: items `i % 4 != 0` pile onto the hot
/// keys, the rest cycle through the cold tail.
fn scaled_key(i: i64) -> i64 {
    if i % 4 != 0 {
        i % SCALED_HOT
    } else {
        SCALED_HOT + (i / 4) % (SCALED_KEYS - SCALED_HOT)
    }
}

/// How many productions the scaled workload fires at `items` — every
/// item whose key is one of the [`SCALED_REFS`] referenced cold keys,
/// exactly once. Closed form of the [`scaled_key`] skew; every engine
/// row must agree with it.
pub fn scaled_fired(items: i64) -> u64 {
    (0..items)
        .filter(|&i| {
            let k = scaled_key(i);
            (SCALED_HOT..SCALED_HOT + SCALED_REFS).contains(&k)
        })
        .count() as u64
}

/// Load + run the scaled workload on a fresh system of `kind`; returns
/// the system and the productions fired.
fn scaled_run(kind: EngineKind, items: i64, batch: bool) -> (ProductionSystem, u64) {
    let mut sys = ProductionSystem::from_source(SCALED_DEMO, kind, Strategy::Fifo)
        .expect("scaled program compiles");
    sys.set_batching(batch);
    let refs: Vec<_> = (0..SCALED_REFS)
        .map(|r| tuple![SCALED_HOT + r, r * 10])
        .collect();
    let item_rows: Vec<_> = (0..items).map(|i| tuple![i, scaled_key(i)]).collect();
    if batch {
        sys.insert_batch("Ref", refs).expect("Ref class");
        sys.insert_batch("Item", item_rows).expect("Item class");
    } else {
        for t in refs {
            sys.insert("Ref", t).expect("Ref class");
        }
        for t in item_rows {
            sys.insert("Item", t).expect("Item class");
        }
    }
    let out = sys.run(100_000);
    (sys, out.fired as u64)
}

/// One scaled pass, timed over load + run.
fn scaled_pass(kind: EngineKind, items: i64, batch: bool) -> Pass {
    let start = Instant::now();
    let (sys, fired) = scaled_run(kind, items, batch);
    Pass::of(sys.engine(), start, fired)
}

/// Buffer-pool frames for the `query-paged` row — deliberately far
/// smaller than the scaled workload's working set, so the row always
/// exercises eviction, write-back, and page faults rather than running
/// as an in-memory benchmark with extra bookkeeping.
pub const SCALED_PAGED_POOL: usize = 2;

/// One scaled pass of the Query engine over a *file-backed* working
/// memory (§3.2 made literal): heap pages under a [`SCALED_PAGED_POOL`]
/// buffer pool, WAL-before-data on eviction. Same program, same skew,
/// same batching as the in-memory `query` row, so `fired` must agree
/// exactly; only the storage layer differs.
fn scaled_paged_run(items: i64, pool_pages: usize) -> (SequentialExecutor, u64) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sellis88-bench-paged-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let db = relstore::Database::new_paged(&dir, pool_pages).expect("paged database");
    let rules = ops5::compile(SCALED_DEMO).expect("scaled program compiles");
    let pdb = ProductionDb::with_db(std::sync::Arc::new(db), rules).expect("paged pdb");
    let mut engine = make_engine(EngineKind::Query, pdb);
    engine.set_batching(true);
    let mut exec = SequentialExecutor::new(engine, Strategy::Fifo);
    let refs: Vec<_> = (0..SCALED_REFS)
        .map(|r| tuple![SCALED_HOT + r, r * 10])
        .collect();
    exec.insert_batch(ClassId(1), refs);
    let item_rows: Vec<_> = (0..items).map(|i| tuple![i, scaled_key(i)]).collect();
    exec.insert_batch(ClassId(0), item_rows);
    let out = exec.run(100_000);
    std::fs::remove_dir_all(&dir).ok();
    (exec, out.fired as u64)
}

/// Paged-vs-memory smoke check (`harness --paged`): run the scaled
/// workload once on the in-memory Query engine and once over file-backed
/// pages with a `pool_pages`-frame pool, then verify the two runs fire
/// identically, leave identical working memories, and that the paged run
/// actually evicted (i.e. the pool was smaller than the working set).
/// Returns the shared fired count; `Err` describes the first divergence.
pub fn paged_smoke(items: i64, pool_pages: usize) -> Result<u64, String> {
    let items = items.clamp(1, SCALED_MAX_ITEMS);
    let (sys, mem_fired) = scaled_run(EngineKind::Query, items, true);
    let (exec, paged_fired) = scaled_paged_run(items, pool_pages);
    let expect = scaled_fired(items);
    if mem_fired != expect || paged_fired != expect {
        return Err(format!(
            "fired diverged at {items} items: in-memory {mem_fired}, \
             paged {paged_fired}, expected {expect}"
        ));
    }
    let dump = |db: &relstore::Database| -> Vec<(String, Vec<relstore::Tuple>)> {
        let mut out: Vec<_> = db
            .relation_names()
            .into_iter()
            .map(|(rid, name)| {
                let mut rows: Vec<relstore::Tuple> = db
                    .select(rid, &relstore::Restriction::default())
                    .expect("dump select")
                    .into_iter()
                    .map(|(_, t)| t)
                    .collect();
                rows.sort();
                (name, rows)
            })
            .collect();
        out.sort();
        out
    };
    if dump(sys.engine().pdb().db()) != dump(exec.engine().pdb().db()) {
        return Err("final working memories diverged between in-memory and paged runs".into());
    }
    let ops = exec.engine().pdb().db().stats().snapshot();
    if ops.pool_evictions == 0 {
        return Err(format!(
            "pool of {pool_pages} pages never evicted at {items} items — \
             the smoke run is not exercising the page layer"
        ));
    }
    Ok(paged_fired)
}

/// Consuming variant of [`SCALED_DEMO`] for the §5 concurrent rows: the
/// same skewed `Item ⋈ Ref` join, but the RHS only *removes* the matched
/// item. Every transaction then takes shared locks plus one exclusive
/// lock on its own `Item` tuple — no relation-level exclusive lock, no
/// negated-CE relation lock — so distinct instantiations are
/// lock-disjoint and workers genuinely overlap. (With `SCALED_DEMO`'s
/// `make Hit` RHS, the exclusive relation lock on `Hit` would serialize
/// every firing and the worker count could never matter.)
pub const SCALED_CONC_DEMO: &str = r#"
    (literalize Item n k)
    (literalize Ref k w)
    (p Match (Item ^n <N> ^k <K>) (Ref ^k <K> ^w <W>) --> (remove 1))
"#;

/// Simulated per-tuple I/O latency for the concurrent rows. Each firing
/// is a handful of logical I/Os; at 200µs each, one transaction costs a
/// deterministic ~1ms of "disk" time, so the 1-vs-4-worker wall ratio
/// measures overlap rather than scheduler noise.
pub const SCALED_CONC_IO_COST_NS: u64 = 200_000;

/// One §5 concurrent pass: load the [`SCALED_CONC_DEMO`] WM into a
/// database whose lock manager has `shards` shards, switch on the
/// simulated I/O latency, then time `run` alone under `workers` worker
/// threads. Fires exactly [`scaled_fired`]`(items)` transactions —
/// identical to the sequential engines' count on the same skew.
fn concurrent_pass(items: i64, workers: usize, shards: usize) -> Pass {
    let rules = ops5::compile(SCALED_CONC_DEMO).expect("concurrent program compiles");
    let db = std::sync::Arc::new(relstore::Database::new_with_shards(shards));
    let pdb = ProductionDb::with_db(db, rules).unwrap();
    let mut engine = make_engine(EngineKind::Rete, pdb);
    for r in 0..SCALED_REFS {
        engine.insert(ClassId(1), tuple![SCALED_HOT + r, r * 10]);
    }
    for i in 0..items {
        engine.insert(ClassId(0), tuple![i, scaled_key(i)]);
    }
    // Latency only for the timed concurrent run, not the load above.
    engine.pdb().db().set_io_cost_ns(SCALED_CONC_IO_COST_NS);
    let mut exec = ConcurrentExecutor::new(engine, workers);
    exec.set_batching(true);
    let start = Instant::now();
    let stats = exec.run(items as usize * 4);
    let handle = exec.engine();
    let engine = handle.lock();
    Pass {
        locks: (stats.lock_waits, stats.lock_wait_ns, stats.shard_contention),
        ..Pass::of(engine.as_ref(), start, stats.committed as u64)
    }
}

/// One row per worker count of the §5 concurrent workload.
fn concurrent_rows(items: i64, workers: &[usize], shards: usize, profiled: bool) -> Vec<BenchRow> {
    workers
        .iter()
        .map(|&w| {
            measure(format!("concurrent-w{w}"), profiled, || {
                concurrent_pass(items, w, shards)
            })
        })
        .collect()
}

/// Worker counts of the §5 throughput-vs-workers sweep
/// (`harness --bench-workers`).
pub const SCALED_WORKER_SWEEP: [usize; 5] = [1, 4, 16, 32, 64];

/// The §5 throughput-vs-workers sweep (workload `concurrent-workers`):
/// one [`SCALED_CONC_DEMO`] row per worker count over a `shards`-way
/// sharded working memory, all at the same `items`. Unlike
/// [`bench_scaled_snapshot`], `items` is *not* clamped to
/// [`SCALED_MAX_ITEMS`]: the sweep never runs the tuple-at-a-time
/// baselines, and its whole point is the 100k-WME scale where a single
/// lock table used to be the ceiling. Every row must commit exactly
/// [`scaled_fired`]`(items)` transactions regardless of worker count.
pub fn bench_workers_snapshot(items: i64, workers: &[usize], shards: usize) -> Snapshot {
    Snapshot {
        workload: "concurrent-workers",
        items,
        shards,
        rows: concurrent_rows(items, workers, shards, false),
    }
}

/// The scaled skewed-join workload at `items` (workload `scaled-skew`),
/// every row measured in the same run, on the same machine:
/// - every engine in set-oriented mode, labelled by engine;
/// - tuple-at-a-time nested-loop baselines of the query and marker
///   engines (`query-nl`, `marker-nl`);
/// - three §5 rows (`concurrent-w1`, `concurrent-w4`, `concurrent-w16`)
///   running the consuming variant of the same skew under simulated
///   I/O latency over the default 16-way sharded lock manager — same
///   fired count, diverging wall clock;
/// - `query-paged`, the Query engine over file-backed pages with a
///   [`SCALED_PAGED_POOL`]-frame buffer pool (§3.2), so its page counters
///   are live and its `fired` must match the in-memory rows.
pub fn bench_scaled_snapshot(items: i64, profiled: bool) -> Snapshot {
    let items = items.clamp(1, SCALED_MAX_ITEMS);
    let shards = relstore::DEFAULT_LOCK_SHARDS;
    let mut rows: Vec<BenchRow> = EngineKind::ALL
        .iter()
        .map(|&kind| measure(kind.label(), profiled, || scaled_pass(kind, items, true)))
        .collect();
    for kind in [EngineKind::Query, EngineKind::Marker] {
        rows.push(measure(format!("{}-nl", kind.label()), profiled, || {
            scaled_pass(kind, items, false)
        }));
    }
    rows.extend(concurrent_rows(items, &[1, 4, 16], shards, profiled));
    rows.push(measure("query-paged", profiled, || {
        let start = Instant::now();
        let (exec, fired) = scaled_paged_run(items, SCALED_PAGED_POOL);
        Pass::of(exec.engine(), start, fired)
    }));
    Snapshot {
        workload: "scaled-skew",
        items,
        shards,
        rows,
    }
}

impl Snapshot {
    /// Render as one `sellis88-bench/v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut engines = Arr::new();
        for row in &self.rows {
            engines = engines.raw(
                &Obj::new()
                    .str("engine", &row.engine)
                    .u64("wall_ns", row.wall_ns)
                    .u64("fired", row.fired)
                    .u64("logical_io", row.logical_io)
                    .u64("match_entries", row.match_entries)
                    .u64("match_bytes", row.match_bytes)
                    .u64("pattern_probes", row.pattern_probes)
                    .u64("pattern_scanned", row.pattern_scanned)
                    .u64("page_reads", row.page_reads)
                    .u64("page_writes", row.page_writes)
                    .u64("pool_hits", row.pool_hits)
                    .u64("pool_evictions", row.pool_evictions)
                    .u64("lock_waits", row.lock_waits)
                    .u64("lock_wait_ns", row.lock_wait_ns)
                    .raw("lock_shards", &{
                        let mut ls = Arr::new();
                        for &(shard, waits, wait_ns) in &row.lock_shards {
                            ls = ls.raw(
                                &Obj::new()
                                    .u64("shard", u64::from(shard))
                                    .u64("waits", waits)
                                    .u64("wait_ns", wait_ns)
                                    .finish(),
                            );
                        }
                        ls.finish()
                    })
                    .u64("alloc_bytes", row.alloc_bytes)
                    .raw("hotspots", &{
                        let mut hs = Arr::new();
                        for h in row.hotspots(3) {
                            hs = hs.raw(&h.to_json());
                        }
                        hs.finish()
                    })
                    .finish(),
            );
        }
        Obj::new()
            .str("schema", BENCH_SCHEMA)
            .str("workload", self.workload)
            .u64("items", self.items as u64)
            .raw("engines", &engines.finish())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::invariants;

    fn labels(snap: &Snapshot) -> Vec<&str> {
        snap.rows.iter().map(|r| r.engine.as_str()).collect()
    }

    #[test]
    fn demo_rows_cover_every_engine_and_hold_the_invariants() {
        let snap = bench_snapshot(false);
        assert_eq!(
            labels(&snap),
            ["rete", "db-rete", "query", "cond", "marker"]
        );
        assert_eq!(invariants(&snap), Vec::<String>::new());
        for row in &snap.rows {
            assert!(row.logical_io > 0, "{}", row.engine);
        }
    }

    #[test]
    fn scaled_snapshot_schema_matches_v1() {
        let json = bench_scaled_snapshot(96, true).to_json();
        assert!(
            json.starts_with("{\"schema\":\"sellis88-bench/v1\""),
            "{json}"
        );
        assert!(json.contains("\"workload\":\"scaled-skew\""), "{json}");
        assert!(json.contains("\"items\":96"), "{json}");
        for engine in ["query", "cond", "query-nl", "marker-nl", "query-paged"] {
            assert!(
                json.contains(&format!("{{\"engine\":\"{engine}\",\"wall_ns\":")),
                "{json}"
            );
        }
    }

    #[test]
    fn snapshot_schema_is_stable() {
        let json = bench_snapshot(true).to_json();
        assert!(
            json.starts_with("{\"schema\":\"sellis88-bench/v1\""),
            "{json}"
        );
        assert!(json.contains("\"workload\":\"obs-demo\""), "{json}");
        assert!(json.contains("\"items\":24"), "{json}");
        for engine in ["rete", "db-rete", "query", "cond", "marker"] {
            assert!(
                json.contains(&format!("{{\"engine\":\"{engine}\",\"wall_ns\":")),
                "{json}"
            );
        }
        for field in [
            "fired",
            "logical_io",
            "match_entries",
            "match_bytes",
            "pattern_probes",
            "pattern_scanned",
            "page_reads",
            "page_writes",
            "pool_hits",
            "pool_evictions",
            "lock_waits",
            "lock_wait_ns",
            "lock_shards",
        ] {
            assert!(json.contains(&format!("\"{field}\":")), "{json}");
        }
    }

    #[test]
    fn workers_sweep_rows_agree_on_fired() {
        let snap = bench_workers_snapshot(384, &[1, 4], 4);
        assert_eq!(labels(&snap), ["concurrent-w1", "concurrent-w4"]);
        assert_eq!(invariants(&snap), Vec::<String>::new());
        let json = snap.to_json();
        assert!(
            json.contains("\"workload\":\"concurrent-workers\""),
            "{json}"
        );
        assert!(json.contains("{\"engine\":\"concurrent-w4\""), "{json}");
    }
}
