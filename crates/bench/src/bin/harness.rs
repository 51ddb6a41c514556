//! The experiment harness: regenerates every table and figure of the
//! reproduction (see DESIGN.md §4 and EXPERIMENTS.md).
//!
//! ```sh
//! cargo run -p prodsys-bench --release --bin harness            # everything
//! cargo run -p prodsys-bench --release --bin harness -- e1 e3   # a subset
//! ```

use prodsys_bench as bench;
use workload::paper;
use workload::tables::{cond_relation, format_table, rule_def};

// Allocation attribution (the `alloc_bytes` bench column and the
// profiler's per-span byte counts) needs the counting allocator in the
// binary that runs the workloads. Free when the profiler is off: one
// relaxed atomic load per allocation.
#[global_allocator]
static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc;

/// Default size of the `--profile` / `--bench-check` scaled workload.
const PROFILE_DEFAULT_ITEMS: i64 = 2_000;

/// The time-series `--bench-json` appends to and `--bench-check` reads.
const HISTORY_DEFAULT: &str = "BENCH_history.jsonl";

/// Default `--record` workload size (items).
const RECORD_DEFAULT_ITEMS: i64 = 24;

/// Default `--paged` smoke workload size (items) — big enough that the
/// default pool must evict, small enough for CI.
const PAGED_SMOKE_ITEMS: i64 = 512;
/// Default `--bench-workers` sweep size: the 100k-WME scale where the
/// single-lock-table ceiling used to bite.
const WORKERS_SWEEP_ITEMS: i64 = 100_000;

fn t1() {
    let rs = paper::example2_rules();
    println!("\n## T1 — §4.1.1 COND relations for Example 2\n");
    println!("COND-Goal:");
    print!(
        "{}",
        format_table(
            &["Rule-ID", "CEN", "Type", "Object"],
            &cond_relation(&rs, rs.class_id("Goal").unwrap())
        )
    );
    println!("\nCOND-Expression:");
    print!(
        "{}",
        format_table(
            &["Rule-ID", "CEN", "Name", "Arg1", "Op", "Arg2"],
            &cond_relation(&rs, rs.class_id("Expression").unwrap())
        )
    );
}

fn t2() {
    let rs = paper::example2_rules();
    println!("\n## T2 — §4.1.1 RULE-DEF relation\n");
    print!(
        "{}",
        format_table(&["Rule-ID", "Cond#", "Class", "Check"], &rule_def(&rs))
    );
}

fn t3() {
    let rs = paper::example4_rules();
    println!("\n## T3 — Example 4 initial COND relations\n");
    for class in ["A", "B", "C"] {
        println!("COND-{class}:");
        let arity = rs.class(rs.class_id(class).unwrap()).arity();
        let mut header = vec!["Rule-ID".to_string(), "CEN".to_string()];
        header.extend(rs.class(rs.class_id(class).unwrap()).attrs.iter().cloned());
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        print!(
            "{}",
            format_table(
                &header_refs,
                &cond_relation(&rs, rs.class_id(class).unwrap())
            )
        );
        let _ = arity;
    }
}

fn t4() {
    println!("\n## T4 — Example 5 insertion trace (matching-pattern engine)\n");
    for (label, rows) in bench::t4_trace_rows() {
        if !label.is_empty() {
            println!("\n{label}");
        }
        for r in rows {
            println!("  {}", r.join(" | "));
        }
    }
    println!("\n(Rule-1 must enter the conflict set exactly on B(4,7,b);");
    println!(" compare the COND tables above with the paper's Example 5.)");
}

fn f1_e3() {
    let pts = bench::e3_chain(&[1, 2, 4, 8, 16, 32, 64]);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.n.to_string(),
                p.rete_depth.to_string(),
                p.rete_activations.to_string(),
                p.rete_ns.to_string(),
                p.cond_ns.to_string(),
                p.cond_detect_ns.to_string(),
            ]
        })
        .collect();
    bench::print_rows(
        "F1/E3 — chain C1∧…∧Cn: propagation depth and final-insert cost",
        &[
            "n",
            "rete depth",
            "rete activations",
            "rete ns",
            "cond ns",
            "cond detect ns",
        ],
        &rows,
    );
    println!("(expected shape: rete depth and activations grow linearly in n; cond detection stays flat.");
    println!(" cond columns are 0 above n={}: the pattern store grows super-quadratically on deep chains,", prodsys_bench::E3_COND_MAX);
    println!(" the space trade-off conceded in §4.2.3)");
}

fn f3() {
    let plan = rete::NetworkPlan::compile(&paper::example2_rules());
    println!("\n## F3 — compiled network for Example 2 (Figure 3)\n");
    println!(
        "alpha nodes:        {} (Goal shared between rules)",
        plan.alphas.len()
    );
    println!(
        "two-input nodes:    {} (Goal join shared)",
        plan.two_input_nodes()
    );
    println!("production nodes:   {}", plan.production_nodes());
    println!("max depth:          {}", plan.max_depth());
}

fn e1() {
    let pts = bench::e1_match_scaling(&[16, 64, 256, 1024], 300);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.rules.to_string(),
                p.engine.to_string(),
                p.ns_per_op.to_string(),
                p.io_per_op.to_string(),
                p.preds_per_op.to_string(),
            ]
        })
        .collect();
    bench::print_rows(
        "E1 — match cost per WM change vs rule-base size",
        &[
            "rules",
            "engine",
            "ns/op",
            "logical I/O/op",
            "pred evals/op",
        ],
        &rows,
    );
    println!("(expected shape: query grows fastest (join recomputation); cond/marker/rete stay flat-ish)");
}

fn e2() {
    let pts = bench::e2_space(&[100, 400, 1600]);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.wm.to_string(),
                p.engine.to_string(),
                p.match_entries.to_string(),
                p.match_bytes.to_string(),
            ]
        })
        .collect();
    bench::print_rows(
        "E2 — match-structure space vs WM size",
        &["wm tuples", "engine", "entries", "bytes"],
        &rows,
    );
    println!("(expected shape: rete/db-rete/cond grow with WM; query/marker are data-independent)");
}

fn e4() {
    let pts = bench::e4_detect(400);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.engine.to_string(),
                p.avg_detect_ns.to_string(),
                p.avg_total_ns.to_string(),
            ]
        })
        .collect();
    bench::print_rows(
        "E4 — conflict-set detection latency vs total op time",
        &["engine", "avg detect ns", "avg total ns"],
        &rows,
    );
    println!("(expected shape: cond updates the conflict set before maintenance; rete only after full propagation)");
}

fn e5() {
    let pts = bench::e5_parallel(&[2, 4, 8], 250);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.classes.to_string(),
                p.serial_ns.to_string(),
                p.parallel_ns.to_string(),
                format!("{:.2}", p.serial_ns as f64 / p.parallel_ns.max(1) as f64),
            ]
        })
        .collect();
    bench::print_rows(
        "E5 — parallel COND propagation",
        &["classes", "serial ns", "parallel ns", "speedup"],
        &rows,
    );
    println!("(expected shape: speedup grows with the number of COND relations to update)");
}

fn e6() {
    let pts = bench::e6_concurrent(48, &[1, 2, 4, 8]);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.label.to_string(),
                p.workers.to_string(),
                p.wall_ns.to_string(),
                p.committed.to_string(),
                p.deadlock_aborts.to_string(),
                p.invalidated.to_string(),
                p.rounds.to_string(),
                p.lock_waits.to_string(),
                format!("{:.3}", p.lock_wait_ns as f64 / 1e6),
            ]
        })
        .collect();
    bench::print_rows(
        "E6 — concurrent vs serial execution of the conflict set",
        &[
            "workload",
            "workers",
            "wall ns",
            "committed",
            "deadlock aborts",
            "invalidated",
            "rounds",
            "lock waits",
            "lock wait ms",
        ],
        &rows,
    );
    println!("(expected shape: independent scales with workers; skewed serializes on the shared relation)");
}

fn e7() {
    let pts = bench::e7_schedules(&[2, 3, 4]);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.label.to_string(),
                p.txns.to_string(),
                p.critical_path.to_string(),
                p.equivalent_schedules.to_string(),
                p.upper_bound.to_string(),
            ]
        })
        .collect();
    bench::print_rows(
        "E7 — [RASC87] concurrency measures",
        &[
            "workload",
            "txns",
            "critical path",
            "equivalent schedules",
            "free-interleaving bound",
        ],
        &rows,
    );
    println!("(expected shape: independent ≈ bound; skewed collapses toward 1 with a long critical path)");
}

fn e8() {
    let pts = bench::e8_false_drops(&[2, 5, 20, 100], 250);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.domain.to_string(),
                p.marker_false_drops.to_string(),
                p.marker_io_per_op.to_string(),
                p.cond_io_per_op.to_string(),
            ]
        })
        .collect();
    bench::print_rows(
        "E8 — marker (POSTGRES-style) false drops vs matching patterns",
        &[
            "constant domain",
            "marker false drops",
            "marker I/O/op",
            "cond I/O/op",
        ],
        &rows,
    );
    println!("(expected shape: small domains → overlapping markers → many false drops)");
}

fn e9() {
    let pts = bench::e9_predindex(&[100, 1_000, 10_000, 20_000], 200);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.conditions.to_string(),
                p.index.to_string(),
                p.stab_ns.to_string(),
                p.stab_visits.to_string(),
                p.query_ns.to_string(),
            ]
        })
        .collect();
    bench::print_rows(
        "E9 — predicate indexing: point stabbing and rule-base queries",
        &[
            "conditions",
            "index",
            "stab ns",
            "stab visits",
            "box-query ns",
        ],
        &rows,
    );
    println!(
        "(expected shape: trees ≪ linear beyond ~1k conditions; R+ stabbing visits a single path)"
    );
}

fn e10() {
    let a = bench::e10_index_ablation(250);
    let rows: Vec<Vec<String>> = a
        .iter()
        .map(|p| {
            vec![
                p.index.to_string(),
                p.ns_per_op.to_string(),
                p.index_visits.to_string(),
            ]
        })
        .collect();
    bench::print_rows(
        "E10a — COND-relation index ablation (query engine, 512 rules)",
        &["index", "ns/op", "index visits/op"],
        &rows,
    );

    let b = bench::e10_delete_ablation(&[0.0, 0.2, 0.45], 300);
    let rows: Vec<Vec<String>> = b
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.delete_fraction),
                p.cond_ns_per_op.to_string(),
                p.rete_ns_per_op.to_string(),
                p.cond_patterns_end.to_string(),
            ]
        })
        .collect();
    bench::print_rows(
        "E10b — delete-heavy traces (support counters at work)",
        &[
            "delete fraction",
            "cond ns/op",
            "rete ns/op",
            "final cond patterns",
        ],
        &rows,
    );

    let c = bench::e10_cond_index_ablation(250);
    let rows: Vec<Vec<String>> = c
        .iter()
        .map(|p| {
            vec![
                p.variant.to_string(),
                p.ns_per_op.to_string(),
                p.io_per_op.to_string(),
            ]
        })
        .collect();
    bench::print_rows(
        "E10c — indexing the COND relations themselves (§4.2.3, 512 rules)",
        &["COND search", "ns/op", "logical I/O/op"],
        &rows,
    );
}

fn obs(trace: Option<&str>, report: Option<&str>) {
    println!("\n## Observability — instrumented run (all engines + §5 concurrent)\n");
    match bench::observability_run(trace, report) {
        Ok(run) => {
            println!(
                "sequential pass: {} productions fired across 5 engines",
                run.fired
            );
            println!("concurrent pass: {}", run.concurrent);
            if let Some(p) = trace {
                println!("trace  -> {p}");
            }
            match report {
                Some(p) => println!("report -> {p}"),
                None => println!("report:\n{}", run.report_json),
            }
        }
        Err(e) => {
            eprintln!("observability run failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Write `snap` to `path`, append it as one line of the `history`
/// time-series (what `--bench-check` regresses against), then run the
/// bench check on it: exit 1 on a failure, after both files are written
/// so the failing snapshot can be inspected.
fn write_snapshot(path: &str, snap: &bench::Snapshot, history: &str) {
    let mut json = snap.to_json();
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("bench snapshot ({}) -> {path}", bench::BENCH_SCHEMA);
    json.push('\n');
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(history)
        .and_then(|mut f| std::io::Write::write_all(&mut f, json.as_bytes()));
    match appended {
        Ok(()) => println!("history row -> {history}"),
        Err(e) => {
            eprintln!("error: cannot append {history}: {e}");
            std::process::exit(1);
        }
    }
    let failures = bench::check(snap);
    if !failures.is_empty() {
        eprintln!("bench check FAILED on {path}:");
        for m in failures {
            eprintln!("  {m}");
        }
        std::process::exit(1);
    }
    println!("bench check OK: {} @ {} items", snap.workload, snap.items);
}

fn bench_json(path: &str, items: Option<i64>, history: &str) {
    let snap = match items {
        // --items switches the snapshot to the scaled skewed-join
        // workload, which also measures the query/marker nested-loop
        // baselines in the same run.
        Some(n) => bench::bench_scaled_snapshot(n, true),
        None => bench::bench_snapshot(true),
    };
    write_snapshot(path, &snap, history);
}

fn bench_workers(path: &str, items: Option<i64>, shards: Option<usize>, history: &str) {
    let items = items.unwrap_or(WORKERS_SWEEP_ITEMS);
    let shards = shards.unwrap_or(relstore::DEFAULT_LOCK_SHARDS);
    let snap = bench::bench_workers_snapshot(items, &bench::SCALED_WORKER_SWEEP, shards);
    println!(
        "throughput-vs-workers sweep ({items} items, {shards} lock shards, workers {:?})",
        bench::SCALED_WORKER_SWEEP
    );
    write_snapshot(path, &snap, history);
}

fn profile(path: &str, items: Option<i64>, history: &str) {
    let items = items.unwrap_or(PROFILE_DEFAULT_ITEMS);
    let rows = bench::bench_scaled_snapshot(items, true).rows;
    if let Err(e) = std::fs::write(path, bench::folded_stacks(&rows)) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("folded stacks ({items} items) -> {path}");
    // Per-span allocation deltas against the last committed history
    // entry, when one exists (silently absent otherwise — a fresh
    // checkout without the time-series still profiles fine).
    let baseline = std::fs::read_to_string(history)
        .ok()
        .and_then(|t| bench::parse_history_last(&t).ok());
    if let Some(b) = &baseline {
        println!(
            "Δalloc baseline: last entry of {history} ({} @ {} items)",
            b.workload, b.items
        );
    }
    bench::print_rows(
        "Profile — span attribution per engine (profiled re-run)",
        &[
            "engine",
            "attributed",
            "alloc bytes",
            "Δalloc",
            "Δalloc by span",
            "top self-time spans",
        ],
        &bench::attribution_table(&rows, baseline.as_ref()),
    );
}

fn bench_check(history: &str) {
    let text = std::fs::read_to_string(history).unwrap_or_else(|e| {
        eprintln!("error: cannot read {history}: {e}");
        std::process::exit(1);
    });
    match bench::bench_check(&text) {
        Ok(summary) => println!("{summary}"),
        Err(msgs) => {
            eprintln!("bench-check FAILED vs last entry of {history}:");
            for m in msgs {
                eprintln!("  {m}");
            }
            std::process::exit(1);
        }
    }
}

fn explain(rule: &str) {
    let run = match bench::explain_run(rule) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    println!("\n## EXPLAIN {} — match plans per engine\n", run.rule);
    for plan in &run.plans {
        println!("{plan}");
    }
    println!(
        "## Derivations of {} ({} firing(s), {} total)\n",
        run.rule,
        run.derivations.len(),
        run.fired
    );
    for d in &run.derivations {
        println!("{}", d.trim_start());
    }
}

fn record_cmd(path: &str, engine: Option<&str>, workers: Option<usize>, items: Option<i64>) {
    let (kind, default_workers) = match bench::parse_engine(engine.unwrap_or("concurrent")) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let workers = workers.or(default_workers).unwrap_or(0);
    let items = items.unwrap_or(RECORD_DEFAULT_ITEMS);
    match bench::record_run(path, kind, workers, items) {
        Ok(out) => println!(
            "recorded {} {} run ({} items, {} firings) -> {path}",
            out.mode,
            kind.label(),
            items,
            out.fired
        ),
        Err(e) => {
            eprintln!("error: record failed: {e}");
            std::process::exit(1);
        }
    }
}

fn replay_cmd(path: &str) {
    match bench::replay_run(path) {
        Ok(out) => println!(
            "replay OK: {} {} firing(s) reproduced exactly, final WM verified ({} entries)",
            out.mode, out.firings, out.final_wm
        ),
        Err(e) => {
            eprintln!("replay FAILED: {e}");
            std::process::exit(1);
        }
    }
}

fn journal_cmd(path: &str, why: Option<&str>, why_not: Option<&str>) {
    let mut asked = false;
    if let Some(spec) = why {
        asked = true;
        match bench::why_run(path, spec) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(spec) = why_not {
        asked = true;
        match bench::why_not_run(path, spec) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    if !asked {
        eprintln!("error: --journal needs --why or --why-not (see --help)");
        std::process::exit(2);
    }
}

/// Everything the harness accepts; `--help` output and the whitelist the
/// argument parser checks selectors against.
const SELECTORS: &[(&str, &str)] = &[
    (
        "all",
        "every table, figure, and experiment below (the default)",
    ),
    ("t1", "§4.1.1 COND relations for Example 2"),
    ("t2", "§4.1.1 RULE-DEF relation"),
    ("t3", "Example 4 initial COND relations"),
    ("t4", "Example 5 insertion trace (matching-pattern engine)"),
    (
        "f1",
        "chain workload: propagation depth / final-insert cost",
    ),
    ("e3", "alias for f1"),
    ("f3", "compiled Rete network for Example 2 (Figure 3)"),
    ("e1", "match cost per WM change vs rule-base size"),
    ("e2", "match-structure space vs WM size"),
    ("e4", "conflict-set detection latency vs total op time"),
    ("e5", "parallel COND propagation"),
    ("e6", "concurrent vs serial execution of the conflict set"),
    ("e7", "[RASC87] concurrency measures"),
    ("e8", "marker (POSTGRES-style) false drops"),
    ("e9", "predicate indexing: stabbing and rule-base queries"),
    ("e10", "index/delete ablations (a, b, c)"),
    ("obs", "instrumented run: all engines + §5 concurrent pass"),
];

fn usage() {
    println!("usage: harness [SELECTOR...] [FLAGS]");
    println!("\nRegenerates the paper-reproduction tables and figures (EXPERIMENTS.md).");
    println!("With no arguments, runs everything.");
    println!("\nselectors:");
    for (name, what) in SELECTORS {
        println!("  {name:<18} {what}");
    }
    println!("\nflags:");
    println!("  --trace FILE       stream JSONL events of the instrumented run to FILE");
    println!("  --report FILE      write the instrumented run's JSON report to FILE");
    println!("  --bench-json FILE  write a per-engine benchmark snapshot (sellis88-bench/v1),");
    println!("                     append it as one line of the history time-series, then");
    println!("                     run the bench check on it (exit 1 on a failure)");
    println!("  --items N          with --bench-json: run the scaled skewed-join workload at");
    println!(
        "                     N items (clamped to {}) instead of the obs demo; adds",
        bench::SCALED_MAX_ITEMS
    );
    println!("                     query-nl/marker-nl nested-loop baseline rows, the §5");
    println!("                     concurrent-w1/w4/w16 worker-scaling rows, and a");
    println!("                     query-paged row over file-backed pages (§3.2)");
    println!("  --bench-workers FILE  write the §5 throughput-vs-workers sweep (workload");
    println!(
        "                     concurrent-workers; workers {:?}, {WORKERS_SWEEP_ITEMS} items or --items N,",
        bench::SCALED_WORKER_SWEEP
    );
    println!("                     unclamped), append it as one history line, and run the");
    println!("                     bench check on it (exit 1 on a failure)");
    println!(
        "  --shards N         with --bench-workers: lock-manager shard count (default {})",
        relstore::DEFAULT_LOCK_SHARDS
    );
    println!("  --paged            smoke-check paged storage: run the scaled workload on the");
    println!("                     Query engine in-memory and over file-backed pages, verify");
    println!("                     identical firings and working memory, require evictions");
    println!(
        "                     ({PAGED_SMOKE_ITEMS} items, or --items N; exit 1 on divergence)"
    );
    println!(
        "  --pool-pages N     with --paged: buffer-pool frames (default {})",
        bench::SCALED_PAGED_POOL
    );
    println!("  --explain RULE     run the explain workload; print RULE's match plan per");
    println!("                     engine and the full derivation of each of its firings");
    println!("  --profile FILE     run the scaled workload under the span profiler and write");
    println!(
        "                     folded flamegraph stacks to FILE ({PROFILE_DEFAULT_ITEMS} items, or --items N);"
    );
    println!("                     prints per-engine attribution and top self-time spans");
    println!("  --bench-check      re-run the last entry per workload of the history file and");
    println!("                     fail (exit 1) on a >25% wall-time or >2x allocation");
    println!("                     regression per engine, or a failed bench check: a row");
    println!("                     invariant (fired counts, nested-loop I/O, pattern-index");
    println!("                     probes, paged faults, lock shards) or a same-run wall gate");
    println!("                     (cond within 25x query; concurrent-w1 >= 1.5x w4 >= 2x w16)");
    println!("  --history FILE     history file for --bench-json/--bench-workers/--bench-check");
    println!("                     (default {HISTORY_DEFAULT})");
    println!("  --record FILE      run the demo workload with the flight recorder on and write");
    println!("                     a sellis88-journal/v1 JSONL journal (self-contained: program,");
    println!("                     load script, WM deltas, conflict set, locks, commit order)");
    println!("  --engine NAME      with --record: rete|db-rete|query|cond|marker record a");
    println!(
        "                     sequential pass; concurrent = query engine + {} workers",
        bench::recorder::DEFAULT_WORKERS
    );
    println!("                     (default concurrent)");
    println!("  --workers N        with --record: §5 worker count (0 = sequential pass)");
    println!("                     with --items N: journal workload size (default {RECORD_DEFAULT_ITEMS} items)");
    println!("  --replay FILE      re-execute a journal pinning its recorded commit schedule;");
    println!("                     verifies the exact firing sequence and final WM (exit 1 on");
    println!("                     any divergence)");
    println!("  --journal FILE     load a journal into relstore relations (j_event, j_firing,");
    println!("                     j_wm_delta, j_conflict, j_txn, j_lock, j_deadlock) for:");
    println!("  --why RULE@CYCLE     which instantiation committed there, its support tuples,");
    println!("                       and the WM context (a query over j_firing/j_wm_delta)");
    println!("  --why-not RULE@CYCLE why the rule had no firing: replays WM to the cycle and");
    println!("                       probes the LHS prefix-by-prefix for the failing CE");
    println!("  --help, -h         this text");
    println!("\n--trace/--report, --bench-json, --profile, --bench-check, and --explain run");
    println!("only their own workload unless selectors are also given.");
}

fn flag_value(flag: &str, raw: &mut impl Iterator<Item = String>) -> String {
    raw.next().unwrap_or_else(|| {
        eprintln!("error: {flag} requires a value");
        std::process::exit(2);
    })
}

fn main() {
    let mut raw = std::env::args().skip(1);
    let mut args: Vec<String> = Vec::new();
    let mut trace: Option<String> = None;
    let mut report: Option<String> = None;
    let mut bench_path: Option<String> = None;
    let mut explain_rule: Option<String> = None;
    let mut items: Option<i64> = None;
    let mut profile_path: Option<String> = None;
    let mut check = false;
    let mut history: Option<String> = None;
    let mut record: Option<String> = None;
    let mut replay: Option<String> = None;
    let mut journal: Option<String> = None;
    let mut why: Option<String> = None;
    let mut why_not: Option<String> = None;
    let mut engine: Option<String> = None;
    let mut workers: Option<usize> = None;
    let mut paged = false;
    let mut pool_pages: Option<usize> = None;
    let mut bench_workers_path: Option<String> = None;
    let mut shards: Option<usize> = None;
    while let Some(a) = raw.next() {
        match a.as_str() {
            "--help" | "-h" => {
                usage();
                return;
            }
            "--trace" => trace = Some(flag_value("--trace", &mut raw)),
            "--report" => report = Some(flag_value("--report", &mut raw)),
            "--bench-json" => bench_path = Some(flag_value("--bench-json", &mut raw)),
            "--bench-workers" => {
                bench_workers_path = Some(flag_value("--bench-workers", &mut raw));
            }
            "--shards" => {
                let v = flag_value("--shards", &mut raw);
                shards = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("error: --shards expects an integer, got {v:?}");
                    std::process::exit(2);
                }));
            }
            "--items" => {
                let v = flag_value("--items", &mut raw);
                items = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("error: --items expects an integer, got {v:?}");
                    std::process::exit(2);
                }));
            }
            "--explain" => explain_rule = Some(flag_value("--explain", &mut raw)),
            "--profile" => profile_path = Some(flag_value("--profile", &mut raw)),
            "--bench-check" => check = true,
            "--history" => history = Some(flag_value("--history", &mut raw)),
            "--record" => record = Some(flag_value("--record", &mut raw)),
            "--replay" => replay = Some(flag_value("--replay", &mut raw)),
            "--journal" => journal = Some(flag_value("--journal", &mut raw)),
            "--why" => why = Some(flag_value("--why", &mut raw)),
            "--why-not" => why_not = Some(flag_value("--why-not", &mut raw)),
            "--engine" => engine = Some(flag_value("--engine", &mut raw)),
            "--paged" => paged = true,
            "--pool-pages" => {
                let v = flag_value("--pool-pages", &mut raw);
                pool_pages = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("error: --pool-pages expects an integer, got {v:?}");
                    std::process::exit(2);
                }));
            }
            "--workers" => {
                let v = flag_value("--workers", &mut raw);
                workers = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("error: --workers expects an integer, got {v:?}");
                    std::process::exit(2);
                }));
            }
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown flag {flag} (see --help)");
                std::process::exit(2);
            }
            sel if SELECTORS.iter().any(|(name, _)| *name == sel) => args.push(a),
            other => {
                eprintln!("error: unknown selector {other:?} (see --help)");
                std::process::exit(2);
            }
        }
    }
    // `harness --trace t.jsonl`, `--bench-json b.json`, or `--explain R`
    // alone runs only that workload, not the whole experiment suite.
    let obs_requested = trace.is_some() || report.is_some();
    let recorder_requested = record.is_some() || replay.is_some() || journal.is_some();
    let standalone = obs_requested
        || bench_path.is_some()
        || bench_workers_path.is_some()
        || explain_rule.is_some()
        || profile_path.is_some()
        || recorder_requested
        || check
        || paged;
    if shards.is_some() && bench_workers_path.is_none() {
        eprintln!("error: --shards only applies to --bench-workers (see --help)");
        std::process::exit(2);
    }
    if pool_pages.is_some() && !paged {
        eprintln!("error: --pool-pages only applies to --paged (see --help)");
        std::process::exit(2);
    }
    if (why.is_some() || why_not.is_some()) && journal.is_none() {
        eprintln!("error: --why/--why-not need --journal FILE (see --help)");
        std::process::exit(2);
    }
    if (engine.is_some() || workers.is_some()) && record.is_none() {
        eprintln!("error: --engine/--workers only apply to --record (see --help)");
        std::process::exit(2);
    }
    let run_all = (args.is_empty() && !standalone) || args.iter().any(|a| a == "all");
    let want = |name: &str| run_all || args.iter().any(|a| a == name);

    println!("prodsys experiment harness — Sellis/Lin/Raschid SIGMOD '88 reproduction");
    if want("t1") {
        t1();
    }
    if want("t2") {
        t2();
    }
    if want("t3") {
        t3();
    }
    if want("t4") {
        t4();
    }
    if want("f1") || want("e3") {
        f1_e3();
    }
    if want("f3") {
        f3();
    }
    if want("e1") {
        e1();
    }
    if want("e2") {
        e2();
    }
    if want("e4") {
        e4();
    }
    if want("e5") {
        e5();
    }
    if want("e6") {
        e6();
    }
    if want("e7") {
        e7();
    }
    if want("e8") {
        e8();
    }
    if want("e9") {
        e9();
    }
    if want("e10") {
        e10();
    }
    if obs_requested || want("obs") {
        obs(trace.as_deref(), report.as_deref());
    }
    let history = history.as_deref().unwrap_or(HISTORY_DEFAULT);
    if let Some(path) = bench_path.as_deref() {
        bench_json(path, items, history);
    } else if items.is_some()
        && profile_path.is_none()
        && record.is_none()
        && bench_workers_path.is_none()
        && !paged
    {
        eprintln!(
            "error: --items requires --bench-json, --bench-workers, --profile, --record, \
             or --paged (see --help)"
        );
        std::process::exit(2);
    }
    if let Some(path) = bench_workers_path.as_deref() {
        bench_workers(path, items, shards, history);
    }
    if paged {
        let n = items.unwrap_or(PAGED_SMOKE_ITEMS);
        let pool = pool_pages.unwrap_or(bench::SCALED_PAGED_POOL);
        match bench::paged_smoke(n, pool) {
            Ok(fired) => println!(
                "paged smoke OK: {fired} fired at {n} items over a {pool}-page pool, \
                 identical to the in-memory run"
            ),
            Err(e) => {
                eprintln!("paged smoke FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = record.as_deref() {
        record_cmd(path, engine.as_deref(), workers, items);
    }
    if let Some(path) = replay.as_deref() {
        replay_cmd(path);
    }
    if let Some(path) = journal.as_deref() {
        journal_cmd(path, why.as_deref(), why_not.as_deref());
    }
    if let Some(path) = profile_path.as_deref() {
        profile(path, items, history);
    }
    if check {
        bench_check(history);
    }
    if let Some(rule) = explain_rule.as_deref() {
        explain(rule);
    }
}
