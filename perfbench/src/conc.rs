//! `conc-mem` and `durable-paged`: the §5 concurrent executor with two
//! workers on the COND engine, over an in-memory store or over file-backed
//! pages with a small buffer pool and a file WAL fsynced at every commit.
//!
//! Set-up compiles, creates the store, batch-loads `Ref`s and `Item`s
//! (and checkpoints the paged store). The run phase is one
//! `ConcurrentExecutor::run` to quiescence. The reaction phase then
//! inserts items one at a time, each enabling exactly one firing, and
//! runs the executor after each (closed loop, one caller): the insert is
//! a change, the run is a firing. Recovery reopens the store (paged) or
//! re-attaches to it (in memory) and bootstraps a fresh engine.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use prodsys::{
    bootstrap, make_engine, ConcurrentExecutor, ConcurrentStats, EngineKind, ProductionDb,
    SequentialExecutor, Strategy,
};
use relstore::{Database, PAGE_SIZE};

use crate::gen::{conc_input, ConcInput, ConcSizes, CONC_SOURCE, ITEM, REF};
use crate::trace::{self, Recorder};
use crate::{
    record_engine, record_self_times, record_storage, span_ms, wm_dump, Bench, Check, Config, Rep,
    Scale, Workload,
};

/// Worker threads: the host this benchmark is sized for has two cores.
pub const WORKERS: usize = 2;

/// Buffer-pool frames of `durable-paged`, far fewer than the WM's pages.
pub fn pool_frames(scale: Scale) -> usize {
    match scale {
        Scale::Full => 16,
        Scale::Tiny => 2,
    }
}

pub fn sizes(workload: Workload, scale: Scale) -> ConcSizes {
    match (workload, scale) {
        (Workload::DurablePaged, Scale::Full) => ConcSizes {
            items: 20_000,
            keys: 1_000,
            ref_permille: 100,
            hot_permille: 20,
            pad: 64,
            reacts: 1_500,
        },
        (_, Scale::Full) => ConcSizes {
            items: 100_000,
            keys: 1_000,
            ref_permille: 50,
            hot_permille: 20,
            pad: 16,
            reacts: 3_000,
        },
        (_, Scale::Tiny) => ConcSizes {
            items: 300,
            keys: 20,
            ref_permille: 300,
            hot_permille: 50,
            pad: 64,
            reacts: 20,
        },
    }
}

pub struct Conc {
    paged: bool,
    frames: usize,
    sizes: ConcSizes,
    input: ConcInput,
    reps: u64,
}

impl Conc {
    pub fn new(cfg: &Config) -> Self {
        let sizes = sizes(cfg.workload, cfg.scale);
        Conc {
            paged: cfg.workload == Workload::DurablePaged,
            frames: pool_frames(cfg.scale),
            sizes,
            input: conc_input(sizes, cfg.seed),
            reps: 0,
        }
    }

    fn dir(&self, cfg: &Config) -> PathBuf {
        cfg.work_dir.join(format!(
            "{}-{}-{}",
            cfg.workload.name(),
            std::process::id(),
            self.reps
        ))
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Committed ÷ every transaction outcome of a run.
fn commit_ratio(s: &ConcurrentStats) -> f64 {
    let all = s.committed + s.deadlock_aborts + s.invalidated + s.failed;
    crate::ratio(s.committed as u64, all as u64)
}

impl Bench for Conc {
    fn inputs(&self) -> usize {
        1
    }

    fn rep(&mut self, cfg: &Config, _input: usize, traced: bool) -> Rep {
        self.reps += 1;
        let dir = self.dir(cfg);
        let mut rec = Recorder::new(traced);
        let mut rep = Rep::default();
        let mut layers = BTreeMap::new();
        let wall = Instant::now();
        let root = rec.begin("rep", self.reps);
        let input = &self.input;

        // Set-up.
        let t = Instant::now();
        let rules = rec.span("ops5.compile", 0, || {
            ops5::compile(CONC_SOURCE).expect("program compiles")
        });
        let db = rec.span("db.create", 0, || {
            Arc::new(if self.paged {
                Database::new_paged(&dir, self.frames).expect("paged database")
            } else {
                Database::new()
            })
        });
        let pdb = rec.span("db.create", 1, || {
            ProductionDb::with_db(Arc::clone(&db), rules).expect("wm relations")
        });
        let mut loader = rec.span("engine.create", 0, || {
            SequentialExecutor::new(make_engine(EngineKind::Cond, pdb), Strategy::Canonical)
        });
        let (refs, items) = (input.refs.clone(), input.items.clone());
        rec.span("exec.insert_batch", REF.0 as u64, || {
            loader.insert_batch(REF, refs)
        });
        rec.span("exec.insert_batch", ITEM.0 as u64, || {
            loader.insert_batch(ITEM, items)
        });
        let mut exec = ConcurrentExecutor::new(loader.into_engine(), WORKERS);
        if self.paged {
            rec.span("db.checkpoint", 0, || db.checkpoint().expect("checkpoint"));
        }
        rep.setup_s = t.elapsed().as_secs_f64();
        let wm_pages = file_len(&dir.join("data.pages")) / PAGE_SIZE as u64;
        let wal_path = dir.join("wal.log");
        let wal_before = file_len(&wal_path);

        // Run: every loaded instantiation, to quiescence.
        let cs_start = exec.engine().lock().conflict_set().len();
        let base = db.stats().snapshot();
        if traced {
            obs::prof::reset();
            obs::prof::set_enabled(true);
        }
        let t = Instant::now();
        let stats = rec.span("exec.run", 0, || exec.run(usize::MAX));
        rep.run_s = t.elapsed().as_secs_f64();
        rep.fired = stats.committed as u64;
        let ops = db.stats().snapshot().since(&base);
        let wal_bytes = file_len(&wal_path).saturating_sub(wal_before);
        let mut expected = input.expected_bulk;
        if cfg.tamper {
            expected += 1;
        }
        rep.checks
            .push(Check::equal("conc.committed", stats.committed, expected));
        let left = exec.engine().lock().conflict_set().len();
        rep.checks.push(Check::equal("conc.quiescent", left, 0));
        rep.attempted += (stats.committed + stats.failed) as u64;
        rep.failed += stats.failed as u64;

        // Reaction: one change, then the one firing it enables.
        let mut react_committed = 0;
        for (i, item) in input.reacts.iter().enumerate() {
            let id = i as u64 + 1;
            let t = Instant::now();
            rec.span("engine.insert", id, || {
                exec.engine().lock().insert(ITEM, item.clone());
            });
            rep.change_ns.push(t.elapsed().as_nanos() as u64);
            let t = Instant::now();
            let s = rec.span("exec.run", id, || exec.run(usize::MAX));
            rep.fire_ns.push(t.elapsed().as_nanos() as u64);
            react_committed += s.committed;
            rep.attempted += 1 + (s.committed + s.failed) as u64;
            rep.failed += s.failed as u64;
        }
        rep.checks.push(Check::equal(
            "conc.react_committed",
            react_committed,
            input.reacts.len(),
        ));
        let dump = rec.span("bench.digest", 0, || {
            let engine = exec.engine();
            let g = engine.lock();
            wm_dump(g.as_ref())
        });
        rep.checks.push(Check::new(
            "conc.final_wm",
            dump == input.expected_wm,
            format!(
                "class sizes {:?}, want {:?}",
                dump.iter().map(Vec::len).collect::<Vec<_>>(),
                input.expected_wm.iter().map(Vec::len).collect::<Vec<_>>()
            ),
        ));
        // Bypass: the in-memory store never touches pages or a WAL; the
        // paged one must fault and evict, or it is not exercising the pool.
        if self.paged {
            rep.checks.push(Check::new(
                "paged.pool_exercised",
                ops.page_reads > 0 && ops.pool_evictions > 0 && wal_bytes > 0,
                format!(
                    "page reads {}, evictions {}, WAL bytes {wal_bytes}",
                    ops.page_reads, ops.pool_evictions
                ),
            ));
        } else {
            rep.checks.push(Check::equal(
                "mem.bypass.pages",
                (
                    ops.page_reads,
                    ops.page_writes,
                    ops.pool_hits,
                    ops.pool_evictions,
                    wal_bytes,
                ),
                (0, 0, 0, 0, 0),
            ));
        }
        rep.checks.push(Check::new(
            "conc.locks_taken",
            ops.locks_acquired > 0,
            "§5 transactions lock what they touch",
        ));

        if traced {
            obs::prof::set_enabled(false);
            let engine = exec.engine();
            let g = engine.lock();
            record_engine(&mut layers, g.as_ref(), &obs::prof::take());
            layers.insert("rete.cs_end", g.conflict_set().len() as f64);
            // The run only drains the conflict set the load built.
            layers.insert("rete.cs_peak", cs_start as f64);
        }
        let rules = exec.engine().lock().pdb().rules().clone();

        // Recovery: the paged store is dropped and reopened from its
        // checkpoint and WAL; the in-memory one is re-attached as it is.
        let mut replayed = 0;
        let t = Instant::now();
        let store = if self.paged {
            drop(exec);
            drop(db);
            let (back, report) = rec.span("db.open", 0, || {
                Database::open_paged(&dir, self.frames).expect("reopen")
            });
            replayed = report.records_replayed;
            Arc::new(back)
        } else {
            db
        };
        let pdb = rec.span("db.attach", 0, || {
            ProductionDb::attach(store, rules).expect("attach")
        });
        let mut fresh = rec.span("engine.create", 1, || make_engine(EngineKind::Cond, pdb));
        rec.span("engine.bootstrap", 0, || bootstrap(fresh.as_mut()));
        rep.recovery_s = t.elapsed().as_secs_f64();
        let recovered = rec.span("bench.check", 0, || wm_dump(fresh.as_ref()));
        rep.checks.push(Check::new(
            "conc.recovered_wm",
            recovered == dump,
            "every acknowledged commit survives recovery",
        ));
        rep.checks.push(Check::equal(
            "conc.recovered_quiescent",
            fresh.conflict_set().len(),
            0,
        ));
        rec.end(root);
        rep.wall_s = wall.elapsed().as_secs_f64();
        if self.paged {
            drop(fresh);
            let _ = std::fs::remove_dir_all(&dir);
        }

        if traced {
            let spans = rec.spans();
            layers.insert("ops5.compile_ms", span_ms(spans, "ops5.compile"));
            layers.insert("db.checkpoint_ms", span_ms(spans, "db.checkpoint"));
            layers.insert("db.open_ms", span_ms(spans, "db.open"));
            layers.insert("engine.critical_ms", stats.critical_ns as f64 / 1e6);
            layers.insert("engine.bootstrap_ms", span_ms(spans, "engine.bootstrap"));
            let run_ms = rep.run_s * 1e3;
            layers.insert("exec.run_ms", run_ms);
            layers.insert("exec.rounds", stats.rounds as f64);
            layers.insert(
                "exec.critical_share",
                stats.critical_ns as f64 / 1e6 / run_ms,
            );
            layers.insert("exec.commit_ratio", commit_ratio(&stats));
            layers.insert(
                "exec.unattributed_ms",
                (run_ms - stats.critical_ns as f64 / 1e6).max(0.0),
            );
            layers.insert("txn.deadlock_aborts", stats.deadlock_aborts as f64);
            record_storage(&mut layers, &ops, rep.fired);
            layers.insert("wal.bytes", wal_bytes as f64);
            layers.insert(
                "wal.bytes_per_user_byte",
                crate::ratio(wal_bytes, input.bulk_user_bytes),
            );
            layers.insert("wal.records_replayed", replayed as f64);
            layers.insert("pool.wm_pages", wm_pages as f64);
            record_self_times(&mut layers, spans);
            rep.spans_jsonl = trace::to_jsonl(spans);
        }
        rep.layers = layers;
        rep
    }

    fn final_checks(&mut self, _cfg: &Config, _reps: &[&Rep]) -> Vec<Check> {
        Vec::new()
    }

    fn describe(&self) -> String {
        let s = &self.sizes;
        let store = if self.paged {
            format!(
                "paged store, {}-frame pool, file WAL fsynced per commit",
                self.frames
            )
        } else {
            "in-memory store".to_string()
        };
        format!(
            "{} items over {} keys ({} per mille on the hot key), {} refs, {} reactions, {WORKERS} workers, {store}",
            s.items,
            s.keys,
            s.hot_permille,
            self.input.refs.len(),
            s.reacts
        )
    }
}
