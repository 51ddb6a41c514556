//! The instrumented run behind `harness --trace` / `--report`.
//!
//! One tracer — and therefore one shared metrics registry — is threaded
//! through a sequential pass of the same demo program on all five engines
//! plus a §5 concurrent pass, so a single JSON report carries per-rule
//! fire counts, match-latency histograms, a detect/maintain split per
//! engine, and lock-contention totals.

use std::time::Instant;

use obs::json::Obj;
use obs::{Event, RunReport, Sink, Tracer};
use prodsys::{
    make_engine, plans_to_json, ClassId, ConcurrentExecutor, ConcurrentStats, EndReason,
    EngineKind, MatchPlan, ProductionDb, ProductionSystem, Strategy,
};
use relstore::tuple;
use workload::paper;

use crate::experiments::E6_IO_COST_NS;

/// Chained demo program: `Mark` tags every `Item`, `Tally` consumes
/// tagged items into `Total`. Every cycle both grows and shrinks the
/// conflict set, so all per-rule counters come out non-trivial.
pub(crate) const OBS_DEMO: &str = r#"
    (literalize Item n v)
    (literalize Done n)
    (literalize Total n v)
    (p Mark (Item ^n <N> ^v <V>) -(Done ^n <N>) --> (make Done ^n <N>))
    (p Tally (Item ^n <N> ^v <V>) (Done ^n <N>) --> (remove 1) (make Total ^n <N> ^v <V>))
"#;

/// Skewed §5 workload for the lock-contention part of the report: every
/// firing funnels into the single shared `Total` relation.
const OBS_SKEWED: &str = r#"
    (literalize Item n v)
    (literalize Total n v)
    (p Funnel (Item ^n <N> ^v <V>) --> (remove 1) (make Total ^n <N> ^v <V>))
"#;

pub(crate) const OBS_ITEMS: i64 = 24;
const OBS_WORKERS: usize = 4;

/// Paper Example 3 (R1, R2) plus a negated-CE rule: `NoDept` audits
/// employees whose department is missing — the workload behind
/// `harness --explain`, chosen so a derivation with an *absent pattern*
/// is always among the firings.
pub(crate) const EXPLAIN_DEMO: &str = r#"
    (literalize Emp name salary manager dno)
    (literalize Dept dno dname floor manager)
    (literalize Audit name)
    (p R1
        (Emp ^name Mike ^salary <S> ^manager <M>)
        (Emp ^name <M> ^salary {<S1> < <S>})
        -->
        (remove 1))
    (p R2
        (Emp ^dno <D>)
        (Dept ^dno <D> ^dname Toy ^floor 1)
        -->
        (remove 1))
    (p NoDept
        (Emp ^name <N> ^dno <D>)
        -(Dept ^dno <D>)
        -->
        (make Audit ^name <N>)
        (remove 1))
"#;

/// What [`observability_run`] produced, for the harness to print.
pub struct ObsRun {
    /// The rendered `--report` JSON document.
    pub report_json: String,
    /// Productions fired across the five sequential passes.
    pub fired: u64,
    /// Stats of the §5 concurrent pass.
    pub concurrent: ConcurrentStats,
}

/// Run the instrumented demo: a sequential pass over all five engines
/// (sharing one tracer, so the report's detect/maintain section covers
/// each engine) followed by a §5 concurrent pass that exercises the lock
/// manager. Streams JSONL events to `trace` and writes the report JSON to
/// `report` when those paths are given.
pub fn observability_run(trace: Option<&str>, report: Option<&str>) -> std::io::Result<ObsRun> {
    let sink = match trace {
        Some(path) => Sink::jsonl_file(path)?,
        None => Sink::Null,
    };
    let tracer = Tracer::new(sink);
    // Span profile of the whole instrumented run (both passes): the
    // report's `profile` section is the call tree, merged across the
    // concurrent pass's worker threads.
    obs::prof::reset();
    obs::prof::set_enabled(true);

    let start = Instant::now();
    let mut fired = 0u64;
    let mut halted = false;
    let mut plans: Vec<MatchPlan> = Vec::new();
    let mut analyze_json: Option<String> = None;
    for kind in EngineKind::ALL {
        let mut sys = ProductionSystem::from_source(OBS_DEMO, kind, Strategy::Fifo)
            .expect("demo program compiles");
        sys.set_tracer(tracer.clone());
        for i in 0..OBS_ITEMS {
            sys.insert("Item", tuple![i, i * 2]).expect("Item class");
        }
        // EXPLAIN against the loaded (pre-run) working memory: the run
        // itself empties `Item`, which would zero every actual count.
        plans.extend(sys.engine().match_plan());
        let out = sys.run(10_000);
        fired += out.fired as u64;
        halted |= out.end == EndReason::Halted;
        if kind == EngineKind::Query {
            // ANALYZE the query engine's database after its run: its
            // executor is the one feeding the observed selectivities.
            analyze_json = Some(relstore::analyze(sys.engine().pdb().db()).to_json());
        }
    }

    // §5 concurrent pass: skewed workload plus simulated I/O latency so
    // transactions overlap and block on the shared relation's locks.
    let rules = ops5::compile(OBS_SKEWED).expect("skewed program compiles");
    let mut engine = make_engine(EngineKind::Rete, ProductionDb::new(rules).unwrap());
    for i in 0..OBS_ITEMS {
        engine.insert(ClassId(0), tuple![i, i * 3]);
    }
    engine.pdb().db().set_io_cost_ns(E6_IO_COST_NS);
    let mut exec = ConcurrentExecutor::new(engine, OBS_WORKERS);
    exec.set_tracer(tracer.clone());
    let stats = exec.run(OBS_ITEMS as usize * 4);
    let wall_ns = start.elapsed().as_nanos() as u64;
    tracer.flush();
    obs::prof::set_enabled(false);
    let profile = obs::prof::take();

    let concurrent = Obj::new()
        .u64("workers", OBS_WORKERS as u64)
        .u64("committed", stats.committed as u64)
        .u64("deadlock_aborts", stats.deadlock_aborts as u64)
        .u64("retries", stats.retries as u64)
        .u64("invalidated", stats.invalidated as u64)
        .u64("rounds", stats.rounds as u64)
        .u64("lock_waits", stats.lock_waits)
        .u64("lock_wait_ns", stats.lock_wait_ns)
        .u64("critical_ns", stats.critical_ns)
        .str("end", stats.end.label())
        // `null` unless the run gave up at the stall guard; then the
        // eligible instantiations it left unfired.
        .raw(
            "stalled",
            &match stats.end {
                EndReason::Stalled { remaining } => remaining.to_string(),
                _ => "null".to_string(),
            },
        )
        .finish();
    let report_json = RunReport::new("all-engines", "obs-demo")
        .wall_ns(wall_ns)
        .fired(fired)
        .halted(halted || stats.end == EndReason::Halted)
        .section("concurrent", concurrent)
        .section("profile", profile.to_json())
        .section("match_plans", plans_to_json(&plans))
        .section("analyze", analyze_json.expect("query engine ran"))
        .to_json(tracer.metrics().expect("tracer is enabled"));
    if let Some(path) = report {
        std::fs::write(path, &report_json)?;
    }
    Ok(ObsRun {
        report_json,
        fired,
        concurrent: stats,
    })
}

/// What [`explain_run`] produced, for the harness to print.
#[derive(Debug)]
pub struct ExplainRun {
    /// The rule that was explained.
    pub rule: String,
    /// Its match plan under every engine (rendered text).
    pub plans: Vec<String>,
    /// One rendered derivation line per firing of the rule.
    pub derivations: Vec<String>,
    /// Total productions fired by the run (all rules).
    pub fired: usize,
}

/// Run the [`EXPLAIN_DEMO`] paper workload (Example 3 + a negated-CE
/// audit rule) on the query engine and explain `rule`: its match plan
/// under every engine's ordering policy, then the full derivation of each
/// of its firings — supporting WM elements with storage tuple ids, and
/// for negated CEs the concrete pattern whose absence enabled the firing.
pub fn explain_run(rule: &str) -> Result<ExplainRun, String> {
    let rules = ops5::compile(EXPLAIN_DEMO).expect("explain demo compiles");
    if !rules.rules.iter().any(|r| r.name == rule) {
        let known: Vec<&str> = rules.rules.iter().map(|r| r.name.as_str()).collect();
        return Err(format!(
            "unknown rule {rule:?}; the explain workload defines: {}",
            known.join(", ")
        ));
    }

    let tracer = Tracer::new(Sink::ring(4096));
    let mut sys = ProductionSystem::from_source(EXPLAIN_DEMO, EngineKind::Query, Strategy::Fifo)
        .expect("explain demo compiles");
    sys.set_tracer(tracer.clone());
    for (class, t) in paper::example3_wm() {
        sys.insert(class, t).expect("example 3 class");
    }
    // An employee with no department, so NoDept's negated CE matters.
    sys.insert("Emp", tuple!["Orphan", 1000, "Sam", 99])
        .expect("Emp class");

    // Plans before firing: the run consumes the matched WM elements.
    let mut plans = Vec::new();
    for kind in EngineKind::ALL {
        let rules = ops5::compile(EXPLAIN_DEMO).expect("explain demo compiles");
        let mut probe =
            ProductionSystem::from_rules(rules, kind, Strategy::Fifo).expect("probe system");
        for (class, t) in paper::example3_wm() {
            probe.insert(class, t).expect("example 3 class");
        }
        probe
            .insert("Emp", tuple!["Orphan", 1000, "Sam", 99])
            .expect("Emp class");
        plans.extend(
            probe
                .engine()
                .match_plan()
                .iter()
                .filter(|p| p.rule_name == rule)
                .map(MatchPlan::render),
        );
    }

    let out = sys.run(10_000);
    let derivations = tracer
        .ring_events()
        .unwrap_or_default()
        .iter()
        .filter(|e| matches!(e, Event::Derivation { rule_name, .. } if rule_name == rule))
        .map(Event::watch_line)
        .collect();
    Ok(ExplainRun {
        rule: rule.to_string(),
        plans,
        derivations,
        fired: out.fired,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_rules_engines_and_locks() {
        let run = observability_run(None, None).unwrap();
        // Each engine fires Mark and Tally once per item.
        assert_eq!(run.fired, 5 * 2 * OBS_ITEMS as u64);
        assert_eq!(run.concurrent.committed, OBS_ITEMS as usize);
        let json = &run.report_json;
        for engine in ["rete", "db-rete", "query", "cond", "marker"] {
            assert!(
                json.contains(&format!("\"engine\":\"{engine}\"")),
                "missing split for {engine}: {json}"
            );
        }
        for rule in ["Mark", "Tally"] {
            assert!(json.contains(&format!("\"name\":\"{rule}\"")), "{json}");
        }
        assert!(json.contains("\"match_latency_ns\""), "{json}");
        assert!(json.contains("\"concurrent\":{\"workers\":4"), "{json}");
        // §5 critical-section accounting: the per-run total in the
        // concurrent section and the per-txn histogram in the metrics.
        assert!(json.contains("\"critical_ns\":"), "{json}");
        assert!(json.contains("\"critical_section_ns\":"), "{json}");
        // The concurrent pass drains, so it reports no stall.
        assert!(json.contains("\"stalled\":null"), "{json}");
        // EXPLAIN section: per-rule plans for every engine, with
        // estimated and actual cardinalities.
        assert!(json.contains("\"match_plans\":["), "{json}");
        for engine in ["rete", "db-rete", "query", "cond", "marker"] {
            assert!(
                json.contains(&format!("{{\"engine\":\"{engine}\",\"rule\":")),
                "missing plans for {engine}: {json}"
            );
        }
        assert!(json.contains("\"estimated\":"), "{json}");
        assert!(json.contains("\"actual\":"), "{json}");
        // ANALYZE section: relation statistics + observed selectivities.
        assert!(json.contains("\"analyze\":{\"relations\":["), "{json}");
        assert!(json.contains("\"selection_selectivity\":"), "{json}");
    }

    #[test]
    fn explain_run_prints_derivations_with_absent_patterns() {
        let run = explain_run("NoDept").unwrap();
        assert_eq!(run.plans.len(), 5, "one plan per engine");
        assert_eq!(run.derivations.len(), 1, "only Orphan lacks a department");
        let d = &run.derivations[0];
        assert!(d.contains("NoDept"), "{d}");
        assert!(d.contains("Orphan"), "{d}");
        assert!(d.contains("[t"), "support tuple ids: {d}");
        assert!(d.contains("absent:"), "{d}");
        assert!(d.contains("Dept"), "{d}");
    }

    #[test]
    fn explain_run_rejects_unknown_rules() {
        let err = explain_run("Nope").unwrap_err();
        assert!(err.contains("NoDept"), "{err}");
    }

    #[test]
    fn trace_and_report_files_are_written() {
        let dir = std::env::temp_dir().join(format!("obs_run_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        let report = dir.join("report.json");
        observability_run(trace.to_str(), report.to_str()).unwrap();
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_text.lines().count() > 100, "trace should be dense");
        for line in trace_text.lines() {
            assert!(line.starts_with("{\"seq\":"), "not JSONL: {line}");
            assert!(line.ends_with('}'), "truncated: {line}");
        }
        let report_text = std::fs::read_to_string(&report).unwrap();
        assert!(report_text.starts_with("{\"engine\":\"all-engines\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
