//! The benchmark's own tests, on tiny inputs: each workload runs and
//! passes its checks, a tampered expected count fails the run, and the
//! traced run's layer self times add back up to its wall time.

use std::sync::Mutex;
use std::time::Duration;

use perfbench::trace::{self_times, Span};
use perfbench::{pool_frames, prepare, run, Config, Scale, Workload, END_TO_END, PER_LAYER};

/// The engine profiler is process-wide, so traced runs must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 7,
        budget: Duration::ZERO,
        min_reps: 1,
        trace,
        scale: Scale::Tiny,
        tamper: false,
        work_dir: std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench"),
    }
}

#[test]
fn every_workload_runs_and_passes_its_checks() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        let report = run(&tiny(workload, false));
        let failed: Vec<_> = report.checks.iter().filter(|c| !c.ok).collect();
        assert!(report.correct, "{}: {failed:?}", workload.name());
        assert_eq!(report.failed, 0, "{}", workload.name());
        assert!(report.attempted > 0);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, want, "{}", workload.name());
        for (name, value, _) in &report.metrics {
            assert!(*value > 0.0, "{}: {name} = {value}", workload.name());
        }
        let json = report.to_json();
        assert!(
            json.starts_with(r#"{"correct": true, "attempted": "#),
            "{json}"
        );
    }
}

#[test]
fn traced_runs_report_every_layer_metric() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        let report = run(&tiny(workload, true));
        assert!(report.correct, "{}", workload.name());
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, want, "{}", workload.name());
        let m = |name: &str| report.metric(name).unwrap();
        assert!(m("engine.maintain_ms") > 0.0, "{}", workload.name());
        assert!(m("trace.overhead") > 0.0, "{}", workload.name());
        // Each workload reads zero on the layers it is meant to bypass.
        match workload {
            Workload::SeqLarge => {
                assert_eq!(m("txn.locks_acquired"), 0.0);
                assert_eq!(m("pool.page_reads"), 0.0);
                assert!(m("exec.candidates_ms") > 0.0);
            }
            Workload::ConcMem => {
                assert!(m("txn.locks_acquired") > 0.0);
                assert_eq!(m("pool.page_reads") + m("pool.hits") + m("wal.bytes"), 0.0);
            }
            Workload::DurablePaged => {
                assert!(m("pool.evictions") > 0.0);
                assert!(m("wal.bytes") > 0.0);
                assert!(m("wal.records_replayed") > 0.0);
                assert!(m("pool.wm_pages") > pool_frames(Scale::Tiny) as f64);
            }
        }
    }
}

#[test]
fn a_tampered_expected_count_fails_the_run() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        let mut cfg = tiny(workload, false);
        cfg.tamper = true;
        let report = run(&cfg);
        assert!(!report.correct, "{}", workload.name());
        assert!(report.failed > 0, "{}", workload.name());
        assert!(report.to_json().starts_with(r#"{"correct": false"#));
    }
}

#[test]
fn layer_self_times_sum_to_the_traced_wall() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        let cfg = tiny(workload, true);
        let rep = prepare(&cfg).rep(&cfg, 0, true);
        let m = |name: &str| rep.layers[name];
        let selfs: f64 = [
            "self.ops5_ms",
            "self.db_ms",
            "self.engine_ms",
            "self.exec_ms",
            "self.bench_ms",
            "self.unspanned_ms",
        ]
        .iter()
        .map(|n| m(n))
        .sum();
        let wall = m("trace.wall_ms");
        assert!(wall > 0.0);
        assert!(
            (selfs - wall).abs() <= 1e-6 * wall,
            "{}: self times {selfs} ms vs wall {wall} ms",
            workload.name()
        );
        // The wall the spans cover is the repetition's own wall time.
        assert!((wall / 1e3 - rep.wall_s).abs() <= 0.01 * rep.wall_s + 1e-3);
    }
}

#[test]
fn self_time_subtracts_children() {
    let span = |name, parent, start_ns, end_ns| Span {
        name,
        id: 0,
        parent,
        start_ns,
        end_ns,
    };
    let spans = [
        span("rep", None, 0, 100),
        span("exec.step", Some(0), 10, 60),
        span("exec.candidates", Some(1), 20, 30),
        span("engine.bootstrap", Some(0), 70, 90),
    ];
    let selfs = self_times(&spans);
    assert_eq!(selfs["rep"], 30);
    assert_eq!(selfs["exec"], 50);
    assert_eq!(selfs["engine"], 20);
    assert_eq!(selfs.values().sum::<u64>(), 100);
}
