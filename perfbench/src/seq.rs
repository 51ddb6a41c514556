//! `seq-large`: a generated rule base on the COND engine under the
//! sequential executor with `Strategy::Canonical`. Set-up compiles and
//! batch-loads; the stream phase applies external changes one at a time
//! (closed loop, one caller); the run phase steps to quiescence; recovery
//! rebuilds a fresh COND engine over the final WM.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use prodsys::{bootstrap, make_engine, EngineKind, ProductionDb, SequentialExecutor, Strategy};

use crate::gen::{seq_input, Change, Rng, SeqInput, SeqSizes};
use crate::trace::{self, Recorder};
use crate::{
    digest, record_engine, record_self_times, record_storage, span_ms, wm_dump, Bench, Check,
    Config, Rep, Scale,
};

pub fn sizes(scale: Scale) -> SeqSizes {
    match scale {
        Scale::Full => SeqSizes {
            rules: 128,
            classes: 8,
            keys: 400,
            tags: 10,
            initial: 2_500,
            changes: 10_000,
        },
        Scale::Tiny => SeqSizes {
            rules: 16,
            classes: 4,
            keys: 20,
            tags: 2,
            initial: 60,
            changes: 200,
        },
    }
}

/// Inputs per run. One generated rule base and trace set the conflict
/// set's size, and the run phase's cost grows faster than that size, so a
/// run cycles through several inputs drawn from its seed to keep the
/// figures from following one draw.
pub const INPUTS: usize = 8;

pub struct Seq {
    sizes: SeqSizes,
    inputs: Vec<SeqInput>,
    /// The DB-Rete outcome of each input, computed once when needed.
    references: Vec<Option<(u64, u64)>>,
    reps: u64,
}

/// A step limit far above any quiescent run: the run fails if it is hit.
fn step_limit(sizes: &SeqSizes) -> usize {
    20 * (sizes.initial + sizes.changes) + 1_000
}

impl Seq {
    pub fn new(cfg: &Config) -> Self {
        let sizes = sizes(cfg.scale);
        let mut rng = Rng::new(cfg.seed);
        Seq {
            sizes,
            inputs: (0..INPUTS)
                .map(|_| seq_input(sizes, rng.next_u64()))
                .collect(),
            references: vec![None; INPUTS],
            reps: 0,
        }
    }

    /// The untimed reference: the same input through DB-Rete. Returns the
    /// fired count and the final-WM digest.
    fn reference(input: &SeqInput, limit: usize) -> (u64, u64) {
        let rules = ops5::compile(&input.source).expect("generated rules compile");
        let pdb = ProductionDb::new(rules).expect("wm relations");
        let mut exec =
            SequentialExecutor::new(make_engine(EngineKind::DbRete, pdb), Strategy::Canonical);
        for (class, tuples) in &input.initial {
            exec.insert_batch(*class, tuples.clone());
        }
        for change in &input.stream {
            match change {
                Change::Insert(class, t) => exec.insert(*class, t.clone()),
                Change::Remove(class, t) => exec.remove(*class, t),
            }
        }
        let out = exec.run(limit);
        (out.fired as u64, digest(&wm_dump(exec.engine())))
    }
}

impl Bench for Seq {
    fn inputs(&self) -> usize {
        INPUTS
    }

    fn rep(&mut self, _cfg: &Config, input: usize, traced: bool) -> Rep {
        self.reps += 1;
        let mut rep = Rep {
            input,
            ..Rep::default()
        };
        let input = &self.inputs[input];
        let mut rec = Recorder::new(traced);
        let wall = Instant::now();
        let root = rec.begin("rep", self.reps);

        // Set-up: compile, create the store, batch-load the initial WM.
        let t = Instant::now();
        let rules = rec.span("ops5.compile", 0, || {
            ops5::compile(&input.source).expect("generated rules compile")
        });
        let pdb = rec.span("db.create", 0, || {
            ProductionDb::new(rules).expect("wm relations")
        });
        let db = pdb.db().clone();
        let mut exec = rec.span("engine.create", 0, || {
            SequentialExecutor::new(make_engine(EngineKind::Cond, pdb), Strategy::Canonical)
        });
        for (class, tuples) in &input.initial {
            let tuples = tuples.clone();
            rec.span("exec.insert_batch", class.0 as u64, || {
                exec.insert_batch(*class, tuples)
            });
        }
        rep.setup_s = t.elapsed().as_secs_f64();
        let base = db.stats().snapshot();
        if traced {
            obs::prof::reset();
            obs::prof::set_enabled(true);
        }

        // Stream: one external change at a time.
        let mut cs_peak = exec.engine().conflict_set().len();
        rep.change_ns.reserve(input.stream.len());
        for (i, change) in input.stream.iter().enumerate() {
            let t = Instant::now();
            match change {
                Change::Insert(class, tuple) => rec.span("exec.insert", i as u64, || {
                    exec.insert(*class, tuple.clone())
                }),
                Change::Remove(class, tuple) => {
                    rec.span("exec.remove", i as u64, || exec.remove(*class, tuple))
                }
            }
            rep.change_ns.push(t.elapsed().as_nanos() as u64);
            if traced {
                cs_peak = cs_peak.max(exec.engine().conflict_set().len());
            }
        }

        // Run: step to quiescence. Traced repetitions time one extra
        // `candidates()` per cycle to expose the refraction cost.
        let limit = step_limit(&self.sizes);
        let (mut eligible, mut cs_seen) = (0u64, 0u64);
        let t = Instant::now();
        loop {
            let step = rep.fired;
            if traced {
                let n = rec.span("exec.candidates", step, || exec.candidates().len());
                eligible += n as u64;
                let cs = exec.engine().conflict_set().len();
                cs_seen += cs as u64;
                cs_peak = cs_peak.max(cs);
            }
            let ts = Instant::now();
            let fired = rec.span("exec.step", step, || exec.step()).is_some();
            if !fired {
                break;
            }
            rep.fire_ns.push(ts.elapsed().as_nanos() as u64);
            rep.fired += 1;
            if rep.fired as usize >= limit {
                rep.failed += 1;
                rep.checks.push(Check::new(
                    "seq.quiescent",
                    false,
                    format!("hit the {limit}-step limit"),
                ));
                break;
            }
        }
        rep.run_s = t.elapsed().as_secs_f64();
        let ops = db.stats().snapshot().since(&base);
        let profile = traced.then(|| {
            obs::prof::set_enabled(false);
            obs::prof::take()
        });
        rep.attempted += (input.stream.len() as u64) + rep.fired;

        let dump = rec.span("bench.digest", 0, || wm_dump(exec.engine()));
        rep.outcome = (rep.fired, digest(&dump));

        // Recovery: a fresh engine attached to the same store, rebuilt by
        // bootstrap, must hold the same conflict set.
        let rules = exec.engine().pdb().rules().clone();
        let t = Instant::now();
        let pdb = rec.span("db.attach", 0, || {
            ProductionDb::attach(Arc::clone(&db), rules).expect("attach")
        });
        let mut fresh = rec.span("engine.create", 1, || make_engine(EngineKind::Cond, pdb));
        rec.span("engine.bootstrap", 0, || bootstrap(fresh.as_mut()));
        rep.recovery_s = t.elapsed().as_secs_f64();
        let same_cs = rec.span("bench.check", 0, || {
            fresh.conflict_set().sorted() == exec.engine().conflict_set().sorted()
        });
        rep.checks.push(Check::new(
            "seq.bootstrap_conflict_set",
            same_cs,
            "a bootstrapped engine rebuilds the live conflict set",
        ));
        // Bypass: the sequential in-memory path takes no locks and no pages.
        rep.checks.push(Check::equal(
            "seq.bypass.locks",
            (ops.locks_acquired, ops.lock_waits),
            (0, 0),
        ));
        rep.checks.push(Check::equal(
            "seq.bypass.pages",
            (
                ops.page_reads,
                ops.page_writes,
                ops.pool_hits,
                ops.pool_evictions,
            ),
            (0, 0, 0, 0),
        ));

        rec.end(root);
        rep.wall_s = wall.elapsed().as_secs_f64();
        if let Some(profile) = profile {
            let mut layers = BTreeMap::new();
            layers.insert("ops5.compile_ms", span_ms(rec.spans(), "ops5.compile"));
            record_engine(&mut layers, exec.engine(), &profile);
            layers.insert(
                "engine.bootstrap_ms",
                span_ms(rec.spans(), "engine.bootstrap"),
            );
            layers.insert("rete.cs_peak", cs_peak as f64);
            layers.insert("rete.cs_end", exec.engine().conflict_set().len() as f64);
            layers.insert(
                "exec.candidates_ms",
                span_ms(rec.spans(), "exec.candidates"),
            );
            layers.insert("exec.step_ms", span_ms(rec.spans(), "exec.step"));
            layers.insert("exec.eligible_ratio", crate::ratio(eligible, cs_seen));
            layers.insert("exec.run_ms", rep.run_s * 1e3);
            record_storage(&mut layers, &ops, rep.fired);
            record_self_times(&mut layers, rec.spans());
            rep.layers = layers;
            rep.spans_jsonl = trace::to_jsonl(rec.spans());
        }
        rep
    }

    fn final_checks(&mut self, cfg: &Config, reps: &[&Rep]) -> Vec<Check> {
        let limit = step_limit(&self.sizes);
        reps.iter()
            .map(|r| {
                let (mut fired, digest) = *self.references[r.input]
                    .get_or_insert_with(|| Seq::reference(&self.inputs[r.input], limit));
                if cfg.tamper {
                    fired += 1;
                }
                Check::equal("seq.matches_db_rete", r.outcome, (fired, digest))
            })
            .collect()
    }

    fn describe(&self) -> String {
        let s = &self.sizes;
        format!(
            "seq-large: {INPUTS} inputs of {} rules over {} classes, join domain {}, \
             {} initial tuples, {} streamed changes",
            s.rules, s.classes, s.keys, s.initial, s.changes
        )
    }
}
