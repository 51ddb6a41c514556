//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable summary on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end when untraced, per-layer when traced). Exits 1
//! when an output check failed.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::{run, Config, Scale, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <seq-large|conc-mem|durable-paged> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let Some(value) = args.get(i + 1) else {
            return usage(&format!("{} needs a value", args[i]));
        };
        match args[i].as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value}")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage("--seed takes an unsigned integer"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 => seconds = s,
                _ => return usage("--seconds takes a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let cfg = Config {
        workload,
        seed,
        budget: Duration::from_secs_f64(seconds),
        // Two repetitions per input give every figure a quartile to take
        // without letting a slow host stretch a run far past its budget. A
        // traced run makes each repetition twice, untraced and traced, so
        // one per input keeps it near an untraced run's length.
        min_reps: if trace { 1 } else { 2 },
        trace,
        scale: Scale::Full,
        tamper: false,
        work_dir: PathBuf::from(".perfbench"),
    };
    let report = run(&cfg);
    eprintln!("{} (seed {seed})", report.summary);
    eprintln!("{} repetitions", report.reps);
    for (name, value, unit) in &report.metrics {
        eprintln!("  {name:<28} {value:>14.4} {unit}");
    }
    for check in report.checks.iter().filter(|c| !c.ok) {
        eprintln!("FAILED {}: {}", check.name, check.detail);
    }
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
