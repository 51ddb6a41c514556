//! Profiler-facing harness pieces: folded flamegraph output
//! (`harness --profile`), the append-only `BENCH_history.jsonl`
//! time-series, and the bench check — the deterministic row
//! [`invariants`], the same-run [`wall_gates`], and the `--bench-check`
//! regression gate against the last committed history entry.

use std::fmt::Write as _;

use obs::json::Value;

use crate::bench_json::{
    bench_scaled_snapshot, bench_snapshot, bench_workers_snapshot, scaled_fired, BenchRow, Snapshot,
};
use crate::obs_run::OBS_ITEMS;

/// `--bench-check` fails when an engine's wall time grows by more than
/// this factor over the last committed history entry.
pub const WALL_REGRESSION: f64 = 1.25;
/// `--bench-check` fails when an engine's profiled allocation volume
/// grows by more than this factor.
pub const ALLOC_REGRESSION: f64 = 2.0;
/// Absolute wall-time slack: sub-slack deltas are machine noise (the
/// fast engines finish in ~2ms, where run-to-run jitter alone exceeds
/// 25%), so the wall gate needs both the ratio *and* this delta blown.
pub const WALL_SLACK_NS: u64 = 10_000_000;
/// The COND wall-time gap gate: `cond` must finish within this factor of
/// the `query` engine's wall clock *on the same run*. Before the
/// interned/arena pattern store the gap was ~90x; the gate holds it near
/// the ~8x it measures now, with room for machine variance.
pub const COND_VS_QUERY_WALL: f64 = 25.0;
/// `cond` rows get a tighter allocation-regression bound than the
/// generic [`ALLOC_REGRESSION`]: their hot path is supposed to be
/// allocation-free, so even a 1.5x creep means a reintroduced per-delta
/// clone.
pub const COND_ALLOC_REGRESSION: f64 = 1.5;
/// The §5 scaling gate: 16 workers must finish the concurrent workload
/// at least this much faster than 4 workers (wall-clock ratio), with the
/// usual absolute slack. Transactions overlap their simulated I/O, so a
/// sharded lock manager that stopped scaling (workers re-serialized on
/// one table) trips this long before throughput numbers are eyeballed.
pub const CONCURRENT_SCALING: f64 = 2.0;
/// The §5 overlap gate: one worker must take at least this many times
/// the 4-worker wall clock, with no absolute slack.
pub const CONCURRENT_W1_VS_W4: f64 = 1.5;

/// The rows of a `scaled-skew` snapshot, in order.
pub const SCALED_ROWS: [&str; 11] = [
    "rete",
    "db-rete",
    "query",
    "cond",
    "marker",
    "query-nl",
    "marker-nl",
    "concurrent-w1",
    "concurrent-w4",
    "concurrent-w16",
    "query-paged",
];

/// Render every profiled row as folded flamegraph stacks, one line per
/// call path: `engine;span;child <self_ns>` — the input format of
/// `flamegraph.pl` / speedscope.
pub fn folded_stacks(rows: &[BenchRow]) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&row.profile.folded(&row.engine));
    }
    out
}

/// Format a signed byte delta for the Δalloc columns.
fn fmt_delta(cur: u64, base: u64) -> String {
    if cur >= base {
        format!("+{}", cur - base)
    } else {
        format!("-{}", base - cur)
    }
}

/// One line of the attribution table printed alongside `--profile`:
/// how much of the profiled wall clock the named spans account for.
/// With a `baseline` (the last `BENCH_history.jsonl` entry), two Δalloc
/// columns diff the engine's total allocation and its top spans'
/// per-span allocation against the recorded hotspots — new bytes on a
/// supposedly allocation-free path show up here before they show up as
/// a wall regression.
pub fn attribution_table(rows: &[BenchRow], baseline: Option<&HistoryEntry>) -> Vec<Vec<String>> {
    rows.iter()
        .map(|row| {
            let top = row
                .hotspots(3)
                .iter()
                .map(|h| {
                    format!(
                        "{} {:.0}%",
                        h.path,
                        100.0 * h.self_ns as f64 / row.prof_wall_ns.max(1) as f64
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            let base = baseline.and_then(|b| b.rows.iter().find(|r| r.engine == row.engine));
            let total_delta = match base {
                Some(b) if b.alloc_bytes > 0 => fmt_delta(row.alloc_bytes, b.alloc_bytes),
                _ => "n/a".to_string(),
            };
            let span_delta = match base {
                Some(b) if !b.span_allocs.is_empty() => row
                    .hotspots(3)
                    .iter()
                    .map(|h| {
                        match b.span_allocs.iter().find(|(p, _)| *p == h.path) {
                            Some((_, bytes)) => {
                                format!("{} {}", h.path, fmt_delta(h.alloc_bytes, *bytes))
                            }
                            // Span absent from the recorded hotspots:
                            // either brand new or previously too cold to
                            // rank — all its bytes count as growth.
                            None => format!("{} +{} (new)", h.path, h.alloc_bytes),
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(", "),
                _ => "n/a".to_string(),
            };
            vec![
                row.engine.clone(),
                format!("{:.1}%", 100.0 * row.attribution()),
                format!("{}", row.alloc_bytes),
                total_delta,
                span_delta,
                top,
            ]
        })
        .collect()
}

/// One engine's comparable numbers from a parsed history line.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckRow {
    pub engine: String,
    pub wall_ns: u64,
    pub alloc_bytes: u64,
    /// `(span path, alloc_bytes)` of the recorded top hotspots — the
    /// per-span baseline the `--profile` Δalloc column diffs against.
    pub span_allocs: Vec<(String, u64)>,
}

/// A parsed `BENCH_history.jsonl` entry.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    pub workload: String,
    pub items: i64,
    pub rows: Vec<CheckRow>,
}

/// Parse the *last* line of a `BENCH_history.jsonl` document — the
/// baseline `--bench-check` compares against.
pub fn parse_history_last(text: &str) -> Result<HistoryEntry, String> {
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("history is empty")?;
    let v = obs::json::parse(line)?;
    let schema = v.get("schema").and_then(Value::as_str).unwrap_or("");
    if !schema.starts_with("sellis88-bench/") {
        return Err(format!("unexpected schema {schema:?}"));
    }
    let workload = v
        .get("workload")
        .and_then(Value::as_str)
        .ok_or("missing workload")?
        .to_string();
    let items = v
        .get("items")
        .and_then(Value::as_u64)
        .ok_or("missing items")? as i64;
    let engines = v
        .get("engines")
        .and_then(Value::as_array)
        .ok_or("missing engines array")?;
    let mut rows = Vec::new();
    for e in engines {
        let span_allocs = e
            .get("hotspots")
            .and_then(Value::as_array)
            .map(|hs| {
                hs.iter()
                    .filter_map(|h| {
                        Some((
                            h.get("path").and_then(Value::as_str)?.to_string(),
                            h.get("alloc_bytes").and_then(Value::as_u64)?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default();
        rows.push(CheckRow {
            engine: e
                .get("engine")
                .and_then(Value::as_str)
                .ok_or("row missing engine")?
                .to_string(),
            wall_ns: e
                .get("wall_ns")
                .and_then(Value::as_u64)
                .ok_or("row missing wall_ns")?,
            // Absent in pre-profiler history lines: treat as unknown.
            alloc_bytes: e.get("alloc_bytes").and_then(Value::as_u64).unwrap_or(0),
            span_allocs,
        });
    }
    if rows.is_empty() {
        return Err("history entry has no engine rows".into());
    }
    Ok(HistoryEntry {
        workload,
        items,
        rows,
    })
}

/// Compare a fresh run against the baseline, engine by engine. Returns
/// one human-readable message per regression; empty means the gate
/// passes. Engines present on only one side are skipped (schema is
/// additive), and an alloc baseline of 0 (pre-profiler entry, or a
/// binary without the counting allocator) skips the allocation check.
pub fn regressions(baseline: &[CheckRow], current: &[BenchRow]) -> Vec<String> {
    let mut out = Vec::new();
    for b in baseline {
        let Some(c) = current.iter().find(|c| c.engine == b.engine) else {
            continue;
        };
        if b.wall_ns > 0
            && c.wall_ns as f64 > b.wall_ns as f64 * WALL_REGRESSION
            && c.wall_ns.saturating_sub(b.wall_ns) > WALL_SLACK_NS
        {
            out.push(format!(
                "{}: wall {:.2}ms vs baseline {:.2}ms (> {:.0}% regression)",
                b.engine,
                c.wall_ns as f64 / 1e6,
                b.wall_ns as f64 / 1e6,
                (WALL_REGRESSION - 1.0) * 100.0
            ));
        }
        let alloc_bound = if b.engine.starts_with("cond") {
            COND_ALLOC_REGRESSION
        } else {
            ALLOC_REGRESSION
        };
        if b.alloc_bytes > 0 && c.alloc_bytes as f64 > b.alloc_bytes as f64 * alloc_bound {
            out.push(format!(
                "{}: alloc {} bytes vs baseline {} (> {:.1}x regression)",
                b.engine, c.alloc_bytes, b.alloc_bytes, alloc_bound
            ));
        }
    }
    out
}

/// The bench check of one snapshot: its deterministic [`invariants`]
/// plus the same-run [`wall_gates`]. Empty means it passes. `--bench-json`,
/// `--bench-workers`, and `--bench-check` all run it.
pub fn check(snap: &Snapshot) -> Vec<String> {
    let mut out = invariants(snap);
    out.extend(wall_gates(&snap.rows));
    out
}

/// The deterministic invariants of a snapshot's rows: counters only,
/// never wall time, so they hold on any host at any load.
/// - Every row fires what the workload fires: `2 × OBS_ITEMS` on the
///   demo, [`scaled_fired`] on the scaled and worker-sweep workloads,
///   and never 0.
/// - Every `lock_shards` entry names a shard below the snapshot's shard
///   count and at least one wait.
/// - `scaled-skew` has exactly the [`SCALED_ROWS`], and:
///   - `query-nl`/`marker-nl` do at least 2x the logical I/O of their
///     batched rows;
///   - `cond`'s pattern index serves lookups and examines at most 2
///     patterns per probe (a full-scan store has 0 probes);
///   - `query-paged` faults, writes, and evicts pages, while no other
///     row reads a page or evicts a frame;
///   - the single-threaded `query` row never waits on a lock.
pub fn invariants(snap: &Snapshot) -> Vec<String> {
    let mut out = Vec::new();
    let expect = match snap.workload {
        "obs-demo" => 2 * OBS_ITEMS as u64,
        _ => scaled_fired(snap.items),
    };
    for r in &snap.rows {
        if r.fired != expect || r.fired == 0 {
            out.push(format!(
                "{}: fired {} (expected {expect})",
                r.engine, r.fired
            ));
        }
        for &(shard, waits, _) in &r.lock_shards {
            if shard as usize >= snap.shards || waits == 0 {
                out.push(format!(
                    "{}: lock shard {shard} with {waits} waits (of {} shards)",
                    r.engine, snap.shards
                ));
            }
        }
    }
    if snap.workload != "scaled-skew" {
        return out;
    }
    let labels: Vec<&str> = snap.rows.iter().map(|r| r.engine.as_str()).collect();
    if labels != SCALED_ROWS {
        out.push(format!("rows {labels:?}, expected {SCALED_ROWS:?}"));
        return out;
    }
    let row = |label: &str| {
        snap.rows
            .iter()
            .find(|r| r.engine == label)
            .expect("labels checked")
    };
    for (nl, batched) in [("query-nl", "query"), ("marker-nl", "marker")] {
        let (nl, batched) = (row(nl), row(batched));
        if nl.logical_io < 2 * batched.logical_io {
            out.push(format!(
                "{}: logical I/O {} is under 2x {}'s {}",
                nl.engine, nl.logical_io, batched.engine, batched.logical_io
            ));
        }
    }
    let cond = row("cond");
    if cond.pattern_probes == 0 || cond.pattern_scanned > 2 * cond.pattern_probes {
        out.push(format!(
            "cond: {} patterns scanned over {} index probes (need probes > 0, scanned <= 2x probes)",
            cond.pattern_scanned, cond.pattern_probes
        ));
    }
    let paged = row("query-paged");
    if paged.pool_evictions == 0 || paged.page_reads == 0 || paged.page_writes == 0 {
        out.push(format!(
            "query-paged: {} evictions, {} page reads, {} page writes (all must be > 0)",
            paged.pool_evictions, paged.page_reads, paged.page_writes
        ));
    }
    for r in snap.rows.iter().filter(|r| r.engine != "query-paged") {
        if r.page_reads != 0 || r.pool_evictions != 0 {
            out.push(format!(
                "{}: in-memory row read {} pages, evicted {} frames",
                r.engine, r.page_reads, r.pool_evictions
            ));
        }
    }
    if row("query").lock_waits != 0 {
        out.push(format!("query: {} lock waits", row("query").lock_waits));
    }
    out
}

/// The wall-clock gates, each comparing two rows of the *same* run (same
/// machine, same pass, so no cross-run noise); a gate whose rows are
/// absent is silent.
/// - COND gap: `cond` within [`COND_VS_QUERY_WALL`]x `query`, over a
///   [`WALL_SLACK_NS`] floor so sub-floor workloads can't flake.
/// - Overlap: `concurrent-w1` at least [`CONCURRENT_W1_VS_W4`]x
///   `concurrent-w4`, no slack.
/// - Scaling: `concurrent-w16` at least [`CONCURRENT_SCALING`]x faster
///   than `concurrent-w4` (modulo [`WALL_SLACK_NS`]) while committing the
///   *same* number of transactions — a speedup that drops firings is a
///   correctness bug, not a win.
pub fn wall_gates(rows: &[BenchRow]) -> Vec<String> {
    let find = |name: &str| rows.iter().find(|r| r.engine == name);
    let ms = |r: &BenchRow| r.wall_ns as f64 / 1e6;
    let mut out = Vec::new();
    if let (Some(cond), Some(q)) = (find("cond"), find("query")) {
        let bound = (q.wall_ns as f64 * COND_VS_QUERY_WALL).max(WALL_SLACK_NS as f64);
        if cond.wall_ns as f64 > bound {
            out.push(format!(
                "cond: wall {:.2}ms vs query {:.2}ms (> {:.0}x COND gap gate)",
                ms(cond),
                ms(q),
                COND_VS_QUERY_WALL
            ));
        }
    }
    if let (Some(w1), Some(w4)) = (find("concurrent-w1"), find("concurrent-w4")) {
        if (w1.wall_ns as f64) < CONCURRENT_W1_VS_W4 * w4.wall_ns as f64 {
            out.push(format!(
                "concurrent-w1: wall {:.2}ms vs concurrent-w4 {:.2}ms (< {:.1}x overlap gate)",
                ms(w1),
                ms(w4),
                CONCURRENT_W1_VS_W4
            ));
        }
    }
    if let (Some(w4), Some(w16)) = (find("concurrent-w4"), find("concurrent-w16")) {
        if w4.fired != w16.fired {
            out.push(format!(
                "concurrent-w16: committed {} transactions vs concurrent-w4's {} (must be identical)",
                w16.fired, w4.fired
            ));
        }
        let bound = w4.wall_ns as f64 / CONCURRENT_SCALING + WALL_SLACK_NS as f64;
        if w16.wall_ns as f64 > bound {
            out.push(format!(
                "concurrent-w16: wall {:.2}ms vs concurrent-w4 {:.2}ms (< {:.1}x scaling gate)",
                ms(w16),
                ms(w4),
                CONCURRENT_SCALING
            ));
        }
    }
    out
}

/// Parse every `BENCH_history.jsonl` line and keep the *last* entry per
/// distinct workload, in first-appearance order — `--bench-check` gates
/// each tracked workload against its own most recent baseline, so
/// appending a new workload's entry can never silently un-gate an older
/// one.
pub fn parse_history_workloads(text: &str) -> Result<Vec<HistoryEntry>, String> {
    let mut order: Vec<String> = Vec::new();
    let mut last: std::collections::HashMap<String, HistoryEntry> =
        std::collections::HashMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let entry = parse_history_last(line)?;
        if !last.contains_key(&entry.workload) {
            order.push(entry.workload.clone());
        }
        last.insert(entry.workload.clone(), entry);
    }
    if order.is_empty() {
        return Err("history is empty".into());
    }
    Ok(order
        .into_iter()
        .map(|w| last.remove(&w).expect("entry recorded"))
        .collect())
}

/// Re-run the baseline's workload at its recorded size, compare it with
/// the baseline and run the [`check`] on it. `Ok` carries a short pass
/// summary; `Err` the list of failures.
pub fn bench_check(history_text: &str) -> Result<String, Vec<String>> {
    let entries = parse_history_workloads(history_text).map_err(|e| vec![e])?;
    let mut bad = Vec::new();
    let mut gated = Vec::new();
    for base in &entries {
        let snap = match base.workload.as_str() {
            "scaled-skew" => bench_scaled_snapshot(base.items, true),
            "obs-demo" => bench_snapshot(true),
            // The scaling gate only needs the two rows it compares; the
            // full 1–64 sweep stays a snapshot-time artifact.
            "concurrent-workers" => {
                bench_workers_snapshot(base.items, &[4, 16], relstore::DEFAULT_LOCK_SHARDS)
            }
            other => {
                bad.push(format!("unknown history workload {other:?}"));
                continue;
            }
        };
        let mut msgs = regressions(&base.rows, &snap.rows);
        msgs.extend(check(&snap));
        bad.extend(msgs.into_iter().map(|m| format!("[{}] {m}", base.workload)));
        gated.push(format!("{} @ {} items", base.workload, base.items));
    }
    if bad.is_empty() {
        let mut s = String::new();
        let _ = write!(
            s,
            "bench-check: {} within {:.0}% wall / {:.0}x alloc ({:.1}x cond) of baseline; row invariants hold; cond within {:.0}x of query; concurrent-w1 >= {:.1}x concurrent-w4 >= {:.1}x concurrent-w16 with equal commits",
            gated.join(", "),
            (WALL_REGRESSION - 1.0) * 100.0,
            ALLOC_REGRESSION,
            COND_ALLOC_REGRESSION,
            COND_VS_QUERY_WALL,
            CONCURRENT_W1_VS_W4,
            CONCURRENT_SCALING
        );
        Ok(s)
    } else {
        Err(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn row(engine: &str, wall: u64, alloc: u64) -> CheckRow {
        CheckRow {
            engine: engine.to_string(),
            wall_ns: wall,
            alloc_bytes: alloc,
            span_allocs: Vec::new(),
        }
    }

    fn cur(engine: &str, wall: u64, alloc: u64) -> BenchRow {
        BenchRow {
            engine: engine.to_string(),
            wall_ns: wall,
            alloc_bytes: alloc,
            ..BenchRow::default()
        }
    }

    fn conc(engine: &str, wall: u64, fired: u64) -> BenchRow {
        BenchRow {
            engine: engine.to_string(),
            wall_ns: wall,
            fired,
            ..BenchRow::default()
        }
    }

    #[test]
    fn parses_last_history_line() {
        let text = concat!(
            "{\"schema\":\"sellis88-bench/v1\",\"workload\":\"scaled-skew\",\"items\":100,\"engines\":[{\"engine\":\"rete\",\"wall_ns\":5}]}\n",
            "{\"schema\":\"sellis88-bench/v1\",\"workload\":\"scaled-skew\",\"items\":2000,\"engines\":[",
            "{\"engine\":\"rete\",\"wall_ns\":100,\"alloc_bytes\":64},",
            "{\"engine\":\"cond\",\"wall_ns\":900}]}\n",
        );
        let e = parse_history_last(text).unwrap();
        assert_eq!(e.workload, "scaled-skew");
        assert_eq!(e.items, 2000);
        assert_eq!(e.rows.len(), 2);
        assert_eq!(e.rows[0], row("rete", 100, 64));
        assert_eq!(e.rows[1], row("cond", 900, 0), "missing alloc_bytes -> 0");
    }

    #[test]
    fn rejects_empty_and_malformed_history() {
        assert!(parse_history_last("").is_err());
        assert!(parse_history_last("\n\n").is_err());
        assert!(parse_history_last("{not json}").is_err());
        assert!(parse_history_last("{\"schema\":\"other/v1\"}").is_err());
    }

    #[test]
    fn regression_gate_thresholds() {
        let base = vec![row("rete", 100 * MS, 100), row("cond", 100 * MS, 0)];
        // Within bounds: +24% wall, 2.0x alloc exactly.
        let ok = vec![cur("rete", 124 * MS, 200), cur("cond", 124 * MS, 999)];
        assert!(regressions(&base, &ok).is_empty());
        // Wall blown on one engine.
        let wall_bad = vec![cur("rete", 130 * MS, 100), cur("cond", 100 * MS, 0)];
        let msgs = regressions(&base, &wall_bad);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].starts_with("rete: wall"), "{msgs:?}");
        // Alloc blown; zero-alloc baseline (cond) never trips.
        let alloc_bad = vec![cur("rete", 100 * MS, 201), cur("cond", 100 * MS, 1 << 40)];
        let msgs = regressions(&base, &alloc_bad);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].starts_with("rete: alloc"), "{msgs:?}");
        // Engines missing from the current run are skipped.
        assert!(regressions(&base, &[cur("marker", MS, 1)]).is_empty());
    }

    #[test]
    fn parses_span_allocs_from_hotspots() {
        let text = concat!(
            "{\"schema\":\"sellis88-bench/v1\",\"workload\":\"scaled-skew\",\"items\":10,",
            "\"engines\":[{\"engine\":\"cond\",\"wall_ns\":5,\"alloc_bytes\":7,",
            "\"hotspots\":[{\"path\":\"a;b\",\"self_ns\":1,\"calls\":1,\"allocs\":2,\"alloc_bytes\":64}]}]}"
        );
        let e = parse_history_last(text).unwrap();
        assert_eq!(e.rows[0].span_allocs, vec![("a;b".to_string(), 64)]);
    }

    #[test]
    fn cond_gap_gate_bounds_cond_wall_by_query_wall() {
        // Within 25x (and over the absolute slack): passes.
        let ok = vec![cur("query", 2 * MS, 0), cur("cond", 12 * MS, 0)];
        assert!(wall_gates(&ok).is_empty());
        // Blown: 60ms against a 2ms query (25x bound = 50ms).
        let bad = vec![cur("query", 2 * MS, 0), cur("cond", 60 * MS, 0)];
        let msgs = wall_gates(&bad);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("COND gap gate"), "{msgs:?}");
        // Sub-slack workloads can't flake even at a huge ratio.
        let tiny = vec![cur("query", 100, 0), cur("cond", 9 * MS, 0)];
        assert!(wall_gates(&tiny).is_empty());
        // Either row missing: gate is silent.
        assert!(wall_gates(&[cur("query", MS, 0)]).is_empty());
    }

    #[test]
    fn cond_rows_use_tighter_alloc_bound() {
        let base = vec![row("cond", 100 * MS, 1000)];
        let ok = vec![cur("cond", 100 * MS, 1499)];
        assert!(regressions(&base, &ok).is_empty());
        let bad = vec![cur("cond", 100 * MS, 1600)];
        let msgs = regressions(&base, &bad);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("1.5x"), "{msgs:?}");
    }

    #[test]
    fn wall_slack_absorbs_fast_engine_jitter() {
        // A 2ms engine doubling is noise, not a regression; the same
        // ratio at 100ms is caught.
        let base = vec![row("query", 2 * MS, 0), row("cond", 100 * MS, 0)];
        let noisy = vec![cur("query", 4 * MS, 0), cur("cond", 100 * MS, 0)];
        assert!(regressions(&base, &noisy).is_empty());
        let slow = vec![cur("query", 2 * MS, 0), cur("cond", 200 * MS, 0)];
        assert_eq!(regressions(&base, &slow).len(), 1);
    }

    #[test]
    fn concurrent_gate_requires_scaling_and_equal_commits() {
        // 4x scaling with equal commits: passes.
        let ok = vec![
            conc("concurrent-w4", 400 * MS, 1667),
            conc("concurrent-w16", 100 * MS, 1667),
        ];
        assert!(wall_gates(&ok).is_empty());
        // Not even 2x: fails.
        let slow = vec![
            conc("concurrent-w4", 400 * MS, 1667),
            conc("concurrent-w16", 300 * MS, 1667),
        ];
        let msgs = wall_gates(&slow);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("scaling gate"), "{msgs:?}");
        // Fast but committing less work: the "speedup" is rejected.
        let cheat = vec![
            conc("concurrent-w4", 400 * MS, 1667),
            conc("concurrent-w16", 50 * MS, 1600),
        ];
        let msgs = wall_gates(&cheat);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("must be identical"), "{msgs:?}");
        // Sub-slack workloads can't flake: 4ms vs 3ms is noise.
        let tiny = vec![
            conc("concurrent-w4", 4 * MS, 36),
            conc("concurrent-w16", 3 * MS, 36),
        ];
        assert!(wall_gates(&tiny).is_empty());
        // Either row missing: gate is silent.
        assert!(wall_gates(&[conc("concurrent-w4", MS, 1)]).is_empty());
    }

    #[test]
    fn overlap_gate_needs_one_worker_1_5x_slower_than_four() {
        let gate = |w1: u64, w4: u64| {
            wall_gates(&[conc("concurrent-w1", w1, 36), conc("concurrent-w4", w4, 36)])
        };
        assert!(gate(150 * MS, 100 * MS).is_empty());
        // No absolute slack: even a sub-10ms run is held to the ratio.
        let msgs = gate(149, 100);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("overlap gate"), "{msgs:?}");
    }

    /// The scaled rows at a small size hold every invariant, and each
    /// invariant trips on a row set doctored to break just it.
    #[test]
    fn invariants_hold_on_scaled_rows_and_trip_on_doctored_ones() {
        let snap = bench_scaled_snapshot(192, false);
        assert_eq!(invariants(&snap), Vec::<String>::new());
        let stats = |label: &str| {
            let r = snap.rows.iter().find(|r| r.engine == label).unwrap();
            (r.pattern_probes, r.logical_io)
        };
        let (probes, query_io) = (stats("cond").0, stats("query").1);
        type Doctor = Box<dyn Fn(&mut BenchRow)>;
        let cases: Vec<(&str, Doctor, &str)> = vec![
            ("marker", Box::new(|r| r.fired += 1), "marker: fired"),
            (
                "concurrent-w4",
                Box::new(|r| r.fired = 0),
                "concurrent-w4: fired 0",
            ),
            (
                "query-nl",
                Box::new(move |r| r.logical_io = 2 * query_io - 1),
                "query-nl: logical I/O",
            ),
            ("cond", Box::new(|r| r.pattern_probes = 0), "cond:"),
            (
                "cond",
                Box::new(move |r| r.pattern_scanned = 2 * probes + 1),
                "cond:",
            ),
            (
                "query-paged",
                Box::new(|r| r.pool_evictions = 0),
                "query-paged:",
            ),
            (
                "query-paged",
                Box::new(|r| r.page_reads = 0),
                "query-paged:",
            ),
            (
                "query-paged",
                Box::new(|r| r.page_writes = 0),
                "query-paged:",
            ),
            ("rete", Box::new(|r| r.page_reads = 1), "rete: in-memory"),
            (
                "db-rete",
                Box::new(|r| r.pool_evictions = 1),
                "db-rete: in-memory",
            ),
            (
                "query",
                Box::new(|r| r.lock_waits = 1),
                "query: 1 lock waits",
            ),
            (
                "concurrent-w16",
                Box::new(|r| r.lock_shards = vec![(16, 1, 5)]),
                "lock shard 16",
            ),
            (
                "concurrent-w1",
                Box::new(|r| r.lock_shards = vec![(3, 0, 0)]),
                "lock shard 3 with 0 waits",
            ),
            (
                "marker-nl",
                Box::new(|r| r.engine = "marker-x".into()),
                "rows",
            ),
        ];
        for (label, doctor, want) in cases {
            let mut bad = snap.clone();
            doctor(bad.rows.iter_mut().find(|r| r.engine == label).unwrap());
            let msgs = invariants(&bad);
            assert_eq!(msgs.len(), 1, "{label}: {msgs:?}");
            assert!(msgs[0].contains(want), "{label}: {msgs:?}");
        }
        // A dropped row is caught too.
        let mut short = snap.clone();
        short.rows.pop();
        assert!(invariants(&short)[0].starts_with("rows"));
        // Worker-sweep rows: unequal fired counts trip.
        let mut sweep = Snapshot {
            workload: "concurrent-workers",
            rows: snap.rows[7..10].to_vec(),
            ..snap.clone()
        };
        assert_eq!(invariants(&sweep), Vec::<String>::new());
        sweep.rows[2].fired -= 1;
        assert_eq!(invariants(&sweep).len(), 1);
        // Demo rows fire 2 × OBS_ITEMS each.
        let demo = Snapshot {
            workload: "obs-demo",
            rows: vec![conc("rete", 1, 2 * OBS_ITEMS as u64), conc("cond", 1, 47)],
            ..snap
        };
        assert_eq!(invariants(&demo), vec!["cond: fired 47 (expected 48)"]);
    }

    #[test]
    fn check_runs_invariants_and_wall_gates() {
        let snap = Snapshot {
            workload: "concurrent-workers",
            items: 2000,
            shards: 4,
            rows: vec![
                conc("concurrent-w4", 400 * MS, 36),
                conc("concurrent-w16", 300 * MS, 35),
            ],
        };
        let msgs = check(&snap);
        assert_eq!(msgs.len(), 3, "{msgs:?}");
        assert!(msgs[0].starts_with("concurrent-w16: fired 35"), "{msgs:?}");
        assert!(msgs[1].contains("must be identical"), "{msgs:?}");
        assert!(msgs[2].contains("scaling gate"), "{msgs:?}");
    }

    #[test]
    fn history_keeps_last_entry_per_workload() {
        let text = concat!(
            "{\"schema\":\"sellis88-bench/v1\",\"workload\":\"scaled-skew\",\"items\":100,\"engines\":[{\"engine\":\"rete\",\"wall_ns\":5}]}\n",
            "{\"schema\":\"sellis88-bench/v1\",\"workload\":\"concurrent-workers\",\"items\":100000,\"engines\":[{\"engine\":\"concurrent-w4\",\"wall_ns\":7,\"fired\":1667}]}\n",
            "{\"schema\":\"sellis88-bench/v1\",\"workload\":\"scaled-skew\",\"items\":2000,\"engines\":[{\"engine\":\"rete\",\"wall_ns\":9}]}\n",
        );
        let entries = parse_history_workloads(text).unwrap();
        assert_eq!(entries.len(), 2, "one entry per distinct workload");
        assert_eq!(entries[0].workload, "scaled-skew");
        assert_eq!(entries[0].items, 2000, "later line supersedes earlier");
        assert_eq!(entries[1].workload, "concurrent-workers");
        assert_eq!(entries[1].items, 100_000);
        assert!(parse_history_workloads("").is_err());
    }

    #[test]
    fn folded_stacks_prefix_rows_with_engine_label() {
        let mut profile = obs::Profile::new();
        profile.roots.push(obs::prof::ProfNode {
            name: "exec.load".into(),
            calls: 1,
            incl_ns: 10,
            allocs: 0,
            alloc_bytes: 0,
            children: vec![obs::prof::ProfNode {
                name: "cond.maintain".into(),
                calls: 1,
                incl_ns: 7,
                allocs: 0,
                alloc_bytes: 0,
                children: Vec::new(),
            }],
        });
        let row = BenchRow {
            prof_wall_ns: 10,
            profile,
            ..cur("cond", 10, 0)
        };
        let text = folded_stacks(&[row]);
        assert!(text.contains("cond;exec.load 3\n"), "{text}");
        assert!(text.contains("cond;exec.load;cond.maintain 7\n"), "{text}");
    }
}
