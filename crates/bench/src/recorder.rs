//! The flight recorder behind `harness --record / --replay / --journal`.
//!
//! `--record` runs the chained demo workload with a journal sink
//! installed *before* the working memory is loaded, so the resulting
//! `sellis88-journal/v1` file is self-contained: its meta line carries
//! the full OPS5 program and load script, and its events carry every WM
//! delta, conflict-set change, lock grant, and committed firing in
//! total order. `--replay` rebuilds the run from nothing but that file
//! and pins the recorded commit schedule; `--journal … --why/--why-not`
//! loads the file into relstore relations and answers time-travel
//! questions with ordinary queries.

use std::collections::BTreeMap;

use obs::{Event, Journal, JournalMeta, LoadOp, LoadValue, Sink, Tracer};
use prodsys::{
    make_engine, ClassId, ConcurrentExecutor, EndReason, EngineKind, ProductionDb,
    ProductionSystem, ScheduleOracle, Strategy,
};
use relstore::{CompOp, QueryExecutor, Restriction, Selection, Tuple, Value};

use crate::obs_run::OBS_DEMO;

/// Default worker count of `--engine concurrent`.
pub const DEFAULT_WORKERS: usize = 4;

/// Resolve an `--engine` argument: a matching-engine label
/// (`rete`, `db-rete`, `query`, `cond`, `marker`) records a sequential
/// run; `concurrent` is shorthand for the query engine under the §5
/// concurrent executor.
pub fn parse_engine(s: &str) -> Result<(EngineKind, Option<usize>), String> {
    if s == "concurrent" {
        return Ok((EngineKind::Query, Some(DEFAULT_WORKERS)));
    }
    EngineKind::ALL
        .into_iter()
        .find(|k| k.label() == s)
        .map(|k| (k, None))
        .ok_or_else(|| {
            format!("unknown engine {s:?} (rete, db-rete, query, cond, marker, concurrent)")
        })
}

fn engine_kind(label: &str) -> Result<EngineKind, String> {
    EngineKind::ALL
        .into_iter()
        .find(|k| k.label() == label)
        .ok_or_else(|| format!("journal meta names unknown engine {label:?}"))
}

fn load_value(v: &LoadValue) -> Value {
    match v {
        LoadValue::Null => Value::Null,
        LoadValue::Bool(b) => Value::Bool(*b),
        LoadValue::Int(i) => Value::Int(*i),
        LoadValue::Float(f) => Value::Float(*f),
        LoadValue::Str(s) => Value::str(s),
    }
}

/// The recorded demo workload: `items` rows of `(Item ^n i ^v 2i)` into
/// the [`OBS_DEMO`] program (Mark tags each Item, Tally consumes it).
fn demo_load(items: i64) -> Vec<LoadOp> {
    (0..items)
        .map(|i| LoadOp {
            insert: true,
            class: 0, // Item is the first literalize of OBS_DEMO
            values: vec![LoadValue::Int(i), LoadValue::Int(i * 2)],
        })
        .collect()
}

/// What [`record_run`] produced.
#[derive(Debug)]
pub struct RecordOutcome {
    /// Productions committed/fired.
    pub fired: usize,
    /// `sequential` or `concurrent`.
    pub mode: &'static str,
}

/// Record one run of the demo workload to `path`. `workers == 0` records
/// a sequential pass (canonical conflict resolution, so the run is
/// reproducible by construction); `workers > 0` records a §5 concurrent
/// pass whose commit schedule the journal captures for `--replay`.
pub fn record_run(
    path: &str,
    kind: EngineKind,
    workers: usize,
    items: i64,
) -> Result<RecordOutcome, String> {
    let max_fired = (items as usize * 4).max(64);
    record_run_with(path, kind, workers, OBS_DEMO, demo_load(items), max_fired)
}

/// Record a run of an arbitrary OPS5 `program` and `load` script — the
/// general form behind [`record_run`], used by tests to journal their
/// own workloads (regression fixtures, randomized record→replay).
pub fn record_run_with(
    path: &str,
    kind: EngineKind,
    workers: usize,
    program: &str,
    load: Vec<LoadOp>,
    max_fired: usize,
) -> Result<RecordOutcome, String> {
    let mode = if workers > 0 {
        "concurrent"
    } else {
        "sequential"
    };
    let meta = JournalMeta {
        engine: kind.label().to_string(),
        mode: mode.to_string(),
        workers,
        batching: true,
        strategy: "canonical".to_string(),
        max_fired: max_fired as u64,
        program: program.to_string(),
        load,
    };
    let sink = obs::journal::recording_sink(path, &meta)
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    let tracer = Tracer::new(sink);
    let rules = ops5::compile(&meta.program).map_err(|e| e.to_string())?;
    let fired = if workers > 0 {
        let mut engine = make_engine(kind, ProductionDb::new(rules).map_err(|e| e.to_string())?);
        // Tracer first: the load itself is part of the record, so the
        // journal's WM fold starts from an empty working memory.
        engine.set_tracer(tracer.clone());
        for op in &meta.load {
            let t = Tuple::new(op.values.iter().map(load_value).collect::<Vec<Value>>());
            engine.insert(ClassId(op.class as usize), t);
        }
        let mut exec = ConcurrentExecutor::new(engine, workers);
        let stats = exec.run(max_fired);
        stats.committed
    } else {
        let mut sys = ProductionSystem::from_rules(rules, kind, Strategy::Canonical)
            .map_err(|e| e.to_string())?;
        sys.set_tracer(tracer.clone());
        for op in &meta.load {
            let name = sys
                .engine()
                .pdb()
                .rules()
                .class(ClassId(op.class as usize))
                .name
                .clone();
            let t = Tuple::new(op.values.iter().map(load_value).collect::<Vec<Value>>());
            sys.insert(&name, t).map_err(|e| e.to_string())?;
        }
        sys.run(max_fired).fired
    };
    tracer.flush();
    Ok(RecordOutcome { fired, mode })
}

/// What a successful [`replay_run`] verified.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Firings reproduced (equal to the journal's).
    pub firings: usize,
    /// `sequential` or `concurrent`.
    pub mode: String,
    /// Distinct (class, tuple) entries in the verified final WM.
    pub final_wm: usize,
}

fn engine_final_wm(pdb: &ProductionDb) -> BTreeMap<(u32, String), i64> {
    let mut wm = BTreeMap::new();
    for class in 0..pdb.class_count() {
        for (_, t) in pdb.wm_scan(ClassId(class)).expect("wm scan") {
            *wm.entry((class as u32, t.to_string())).or_insert(0) += 1;
        }
    }
    wm
}

fn firing_keys_of(events: &[Event]) -> Vec<(String, String)> {
    let mut firings: Vec<(u64, String, String)> = events
        .iter()
        .filter_map(|e| match e {
            Event::Firing {
                seq,
                rule_name,
                wmes,
                ..
            } => Some((*seq, rule_name.clone(), wmes.clone())),
            _ => None,
        })
        .collect();
    firings.sort_by_key(|(seq, _, _)| *seq);
    firings.into_iter().map(|(_, r, w)| (r, w)).collect()
}

/// Re-execute the journaled run from nothing but the journal file,
/// pinning the recorded commit schedule, and verify both the firing
/// sequence and the final working memory against the record. Any
/// difference — divergence, extra/missing firing, WM drift — is an `Err`
/// naming the first discrepancy.
pub fn replay_run(path: &str) -> Result<ReplayOutcome, String> {
    let journal = Journal::read_file(path)?;
    let meta = &journal.meta;
    let kind = engine_kind(&meta.engine)?;
    let rules = ops5::compile(&meta.program).map_err(|e| e.to_string())?;
    let expected_keys = journal.firing_keys();
    let expected_wm = journal.final_wm();
    let tracer = Tracer::new(Sink::ring(1 << 20));

    let (actual_keys, actual_wm) = if meta.mode == "concurrent" {
        let mut engine = make_engine(kind, ProductionDb::new(rules).map_err(|e| e.to_string())?);
        engine.set_tracer(tracer.clone());
        for op in &meta.load {
            let t = Tuple::new(op.values.iter().map(load_value).collect::<Vec<Value>>());
            engine.insert(ClassId(op.class as usize), t);
        }
        let mut exec = ConcurrentExecutor::new(engine, meta.workers.max(1));
        exec.set_oracle(ScheduleOracle::new(expected_keys.clone()));
        let stats = exec.run(meta.max_fired as usize);
        if let EndReason::Diverged(d) = stats.end {
            return Err(d);
        }
        let keys = firing_keys_of(&tracer.ring_events().unwrap_or_default());
        let eng = exec.engine();
        let g = eng.lock();
        (keys, engine_final_wm(g.pdb()))
    } else {
        let mut sys = ProductionSystem::from_rules(rules, kind, Strategy::Canonical)
            .map_err(|e| e.to_string())?;
        sys.set_tracer(tracer.clone());
        for op in &meta.load {
            let name = sys
                .engine()
                .pdb()
                .rules()
                .class(ClassId(op.class as usize))
                .name
                .clone();
            let t = Tuple::new(op.values.iter().map(load_value).collect::<Vec<Value>>());
            sys.insert(&name, t).map_err(|e| e.to_string())?;
        }
        sys.run(meta.max_fired as usize);
        let keys = firing_keys_of(&tracer.ring_events().unwrap_or_default());
        (keys, engine_final_wm(sys.engine().pdb()))
    };

    if actual_keys != expected_keys {
        let at = actual_keys
            .iter()
            .zip(&expected_keys)
            .position(|(a, e)| a != e)
            .unwrap_or(actual_keys.len().min(expected_keys.len()));
        return Err(format!(
            "replay firing sequence differs at firing {at}: recorded {:?}, replayed {:?} ({} vs {} firings)",
            expected_keys.get(at),
            actual_keys.get(at),
            expected_keys.len(),
            actual_keys.len(),
        ));
    }
    if actual_wm != expected_wm {
        let diff: Vec<String> = expected_wm
            .iter()
            .filter(|(k, n)| actual_wm.get(k) != Some(n))
            .chain(
                actual_wm
                    .iter()
                    .filter(|(k, _)| !expected_wm.contains_key(k)),
            )
            .take(3)
            .map(|((c, t), n)| format!("class {c} {t} x{n}"))
            .collect();
        return Err(format!(
            "replay final WM differs from the journal's (first diffs: {})",
            diff.join(", ")
        ));
    }
    Ok(ReplayOutcome {
        firings: actual_keys.len(),
        mode: meta.mode.clone(),
        final_wm: actual_wm.len(),
    })
}

/// Parse a `RULE@CYCLE` spec.
pub fn parse_spec(spec: &str) -> Result<(String, u64), String> {
    let (rule, cycle) = spec
        .rsplit_once('@')
        .ok_or_else(|| format!("expected RULE@CYCLE, got {spec:?}"))?;
    let cycle = cycle
        .parse()
        .map_err(|_| format!("bad cycle number in {spec:?}"))?;
    if rule.is_empty() {
        return Err(format!("empty rule name in {spec:?}"));
    }
    Ok((rule.to_string(), cycle))
}

/// `--why RULE@CYCLE`: which instantiation(s) of the rule committed at
/// that round, answered by ordinary selections over the ingested
/// `j_firing` relation, with working memory context reconstructed by a
/// range query over `j_wm_delta`.
pub fn why_run(path: &str, spec: &str) -> Result<String, String> {
    let (rule, round) = parse_spec(spec)?;
    let journal = Journal::read_file(path)?;
    let db = relstore::Database::new();
    let rels = relstore::ingest(&db, &journal).map_err(|e| e.to_string())?;
    let rows = db
        .select(
            rels.firing,
            &Restriction::new(vec![
                Selection::new(5, CompOp::Eq, rule.as_str()),
                Selection::new(2, CompOp::Eq, round as i64),
            ]),
        )
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    if rows.is_empty() {
        let all = db
            .select(
                rels.firing,
                &Restriction::new(vec![Selection::new(5, CompOp::Eq, rule.as_str())]),
            )
            .map_err(|e| e.to_string())?;
        let rounds: Vec<String> = all
            .iter()
            .filter_map(|(_, t)| match &t.values()[2] {
                Value::Int(n) => Some(n.to_string()),
                _ => None,
            })
            .collect();
        out.push_str(&format!(
            "{rule} did not fire at round {round} (journal has {} {rule} firing(s){}{}).\n",
            all.len(),
            if rounds.is_empty() { "" } else { " at rounds " },
            rounds.join(", "),
        ));
        out.push_str(&format!(
            "Ask --why-not '{rule}@{round}' for the failing condition element.\n"
        ));
        return Ok(out);
    }
    for (_, t) in &rows {
        let v = t.values();
        let (fseq, seq, txn) = match (&v[0], &v[1], &v[3]) {
            (Value::Int(f), Value::Int(s), Value::Int(x)) => (*f, *s, *x),
            _ => (0, 0, 0),
        };
        let text = |i: usize| match &v[i] {
            Value::Str(s) => s.to_string(),
            other => format!("{other:?}"),
        };
        out.push_str(&format!(
            "{rule} fired at round {round} (commit #{fseq}, txn {txn}):\n  wmes:    {}\n",
            text(6)
        ));
        let support = text(7);
        if !support.is_empty() {
            out.push_str(&format!("  support: {support}\n"));
        }
        let wm = relstore::wm_as_of(&db, &rels, seq as u64).map_err(|e| e.to_string())?;
        out.push_str(&format!(
            "  WM just before the commit: {} distinct (class, tuple) entries\n",
            wm.len()
        ));
    }
    Ok(out)
}

/// `--why-not RULE@CYCLE`: replay the journal to just before the given
/// round, then probe the rule's condition elements front-to-back with
/// prefix conjunctive queries against the reconstructed working memory.
/// The first prefix with no result names the failing CE; the longest
/// satisfiable prefix is the nearest partial match.
pub fn why_not_run(path: &str, spec: &str) -> Result<String, String> {
    let (rule_name, round) = parse_spec(spec)?;
    let journal = Journal::read_file(path)?;
    let meta = &journal.meta;
    let kind = engine_kind(&meta.engine)?;
    let rules = ops5::compile(&meta.program).map_err(|e| e.to_string())?;
    let rule = rules
        .rules
        .iter()
        .find(|r| r.name == rule_name)
        .cloned()
        .ok_or_else(|| {
            let known: Vec<&str> = rules.rules.iter().map(|r| r.name.as_str()).collect();
            format!(
                "journal's program has no rule {rule_name:?} (rules: {})",
                known.join(", ")
            )
        })?;
    // Firings strictly before the asked-about round; replaying exactly
    // that many commits reconstructs WM as of the round's start.
    let budget = journal
        .firings()
        .iter()
        .filter(|f| match f {
            Event::Firing { round: r, .. } => *r < round,
            _ => false,
        })
        .count();
    let keys: Vec<(String, String)> = journal.firing_keys().into_iter().take(budget).collect();

    let mut engine = make_engine(
        kind,
        ProductionDb::new(rules.clone()).map_err(|e| e.to_string())?,
    );
    for op in &meta.load {
        let t = Tuple::new(op.values.iter().map(load_value).collect::<Vec<Value>>());
        engine.insert(ClassId(op.class as usize), t);
    }
    let mut exec = ConcurrentExecutor::new(engine, 1);
    exec.set_oracle(ScheduleOracle::new(keys));
    let stats = exec.run(budget);
    if let EndReason::Diverged(d) = stats.end {
        return Err(format!("could not reconstruct WM as of round {round}: {d}"));
    }

    let eng = exec.engine();
    let g = eng.lock();
    let pdb = g.pdb();
    let class_rels: Vec<relstore::RelId> = (0..pdb.class_count())
        .map(|c| pdb.class_rel(ClassId(c)))
        .collect();
    let class_name = |c: ClassId| pdb.rules().class(c).name.clone();
    let db = pdb.db().clone();
    let exec_q = QueryExecutor::new(&db);

    let mut out = format!(
        "why not {rule_name} at round {round}? (WM replayed through {budget} prior firing(s))\n"
    );
    let mut prev: Vec<relstore::Binding> = Vec::new();
    for k in 1..=rule.ces.len() {
        if rule.ces[..k].iter().all(|ce| ce.negated) {
            continue; // a query needs at least one positive term
        }
        let mut prefix = rule.clone();
        prefix.ces.truncate(k);
        let results = exec_q
            .exec(&prefix.to_query(&class_rels), None)
            .map_err(|e| e.to_string())?;
        let ce = &rule.ces[k - 1];
        let desc = format!(
            "CE {k}: {}({}){}",
            if ce.negated { "-" } else { "" },
            class_name(ce.class),
            if ce.joins.is_empty() { "" } else { " [joined]" },
        );
        if results.is_empty() {
            out.push_str(&format!(
                "  FAILS at {desc} — no instantiation survives it.\n"
            ));
            if let Some(b) = prev.first() {
                let mut parts = Vec::new();
                for slot in b.slots.iter().flatten() {
                    parts.push(format!("{}[{}]", slot.1, slot.0));
                }
                out.push_str(&format!(
                    "  nearest partial match (first {} CE(s)): {}\n",
                    k - 1,
                    parts.join(" ")
                ));
            } else {
                out.push_str("  no partial match at all: the first condition element is empty.\n");
            }
            return Ok(out);
        }
        out.push_str(&format!("  {desc}: {} partial match(es)\n", results.len()));
        prev = results;
    }
    out.push_str(&format!(
        "  every condition element is satisfiable: {} full instantiation(s) exist as of round {round}.\n",
        prev.len()
    ));
    out.push_str(
        "  (If it still did not fire, check refraction or conflict resolution in j_conflict.)\n",
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("recorder_{}_{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn record_then_replay_concurrent() {
        let path = tmp("conc.jsonl");
        let rec = record_run(&path, EngineKind::Query, 4, 12).unwrap();
        assert_eq!(rec.fired, 24, "Mark + Tally per item");
        let rep = replay_run(&path).unwrap();
        assert_eq!(rep.firings, 24);
        assert_eq!(rep.mode, "concurrent");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn record_then_replay_sequential() {
        let path = tmp("seq.jsonl");
        let rec = record_run(&path, EngineKind::Cond, 0, 8).unwrap();
        assert_eq!(rec.fired, 16);
        let rep = replay_run(&path).unwrap();
        assert_eq!(rep.firings, 16);
        assert_eq!(rep.mode, "sequential");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn why_finds_firing_and_why_not_names_failing_ce() {
        let path = tmp("why.jsonl");
        record_run(&path, EngineKind::Query, 2, 6).unwrap();
        let journal = Journal::read_file(&path).unwrap();
        // Pick a real firing to ask about.
        let (rule, round) = journal
            .firings()
            .iter()
            .find_map(|f| match f {
                Event::Firing {
                    rule_name, round, ..
                } => Some((rule_name.clone(), *round)),
                _ => None,
            })
            .unwrap();
        let why = why_run(&path, &format!("{rule}@{round}")).unwrap();
        assert!(
            why.contains(&format!("{rule} fired at round {round}")),
            "{why}"
        );
        assert!(why.contains("wmes:"), "{why}");
        // Tally needs (Item, Done); at round 1 nothing is Done yet, so the
        // Done CE is the one that fails.
        let why_not = why_not_run(&path, "Tally@1").unwrap();
        assert!(
            why_not.contains("FAILS") || why_not.contains("full instantiation"),
            "{why_not}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn spec_parsing_rejects_garbage() {
        assert!(parse_spec("Mark@3").is_ok());
        assert!(parse_spec("Mark").is_err());
        assert!(parse_spec("@3").is_err());
        assert!(parse_spec("Mark@x").is_err());
    }
}
