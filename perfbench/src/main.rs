//! `perfbench`: the repository's benchmark.
//!
//! ```sh
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads:
//!
//! - `serve_cifar100` — the `t2fsnn_serve` binary serving the
//!   cifar100-like model with early exit: the user-facing request path.
//! - `repro_cifar100` — the paper's Table II / Fig. 6 work in-process:
//!   rate/phase/burst simulations, GO, the four T2FSNN variants, then
//!   per-image and batch inference. Serving never runs.
//! - `serve_mixed` — the tiny and cifar100-like models behind one server,
//!   early exit on and off: four batch keys, the full-window path, and a
//!   model cheap enough that HTTP/JSON/queue overhead dominates.
//!
//! Every run prints a human-readable report, then one JSON result line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of the
//! traced run with `--trace 1`. A failed correctness check makes the run
//! exit 1; a model that did not learn, or a run that would retrain, makes
//! it exit 2 without numbers.

mod host;
mod metrics;
mod repro;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{layer_table, result_line, Outcome};
use serve::ServeSpec;
use spans::Recorder;
use t2fsnn::ImageInference;

const SERVE_CIFAR100: ServeSpec = ServeSpec {
    models: &["cifar100-like"],
    modes: &[true],
    images_per_model: 100,
};

const SERVE_MIXED: ServeSpec = ServeSpec {
    models: &["tiny", "cifar100-like"],
    modes: &[true, false],
    images_per_model: 25,
};

const WORKLOADS: [&str; 3] = ["serve_cifar100", "repro_cifar100", "serve_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the repro child process (see [`repro`]).
    worker: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        worker: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--worker" => {
                args.workload = value()?;
                args.worker = true;
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The "did it learn" guard: a model whose DNN test accuracy is below
/// twice chance would make every number downstream of it meaningless.
pub fn learn_guard(name: &str, accuracy: f32, classes: usize) -> Result<(), String> {
    let floor = 2.0 / classes as f32;
    if accuracy < floor {
        return Err(format!(
            "{name}: DNN test accuracy {:.1} % is below twice chance ({:.1} %)",
            100.0 * accuracy,
            100.0 * floor
        ));
    }
    Ok(())
}

/// Bit identity of two inference answers: label, decision step, steps,
/// the winning potential's bits, spikes and synops.
pub fn same_bits(a: &ImageInference, b: &ImageInference) -> bool {
    a.label == b.label
        && a.decision_step == b.decision_step
        && a.steps == b.steps
        && a.top_potential.to_bits() == b.top_potential.to_bits()
        && a.input_spikes == b.input_spikes
        && a.hidden_spikes == b.hidden_spikes
        && a.synop_adds == b.synop_adds
        && a.synop_mults == b.synop_mults
}

/// Where a traced run writes the benchmark's spans.
fn trace_path(workload: &str, seed: u64) -> PathBuf {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from(".bench_build"), PathBuf::from);
    dir.join("perfbench")
        .join(format!("{workload}-seed{seed}-trace.json"))
}

fn write_trace(rec: &Recorder, workload: &str, seed: u64) {
    let path = trace_path(workload, seed);
    match rec.write_chrome(&path) {
        Ok(n) => eprintln!(
            "[perfbench] wrote {n} benchmark spans to {}",
            path.display()
        ),
        Err(e) => eprintln!("[perfbench] cannot write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    // Pin the program's knobs in this process too (it computes the
    // reference answers): two engine threads, no log lines, full-size
    // scenarios, observability off until a traced pass turns it on.
    std::env::set_var("T2FSNN_THREADS", "2");
    std::env::set_var("T2FSNN_LOG", "off");
    for knob in [
        "T2FSNN_QUICK",
        "T2FSNN_PROFILE",
        "T2FSNN_TRACE",
        "T2FSNN_SIMD",
    ] {
        std::env::remove_var(knob);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let rec = Recorder::new(args.trace);
    if args.worker {
        return match repro::worker(args.seed, args.seconds, args.trace, &rec) {
            Ok(()) => {
                if args.trace {
                    write_trace(&rec, &args.workload, args.seed);
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench worker: {e}");
                ExitCode::from(2)
            }
        };
    }
    let result: Result<Outcome, String> = match args.workload.as_str() {
        "serve_cifar100" => serve::run(&SERVE_CIFAR100, args.seed, args.seconds, args.trace, &rec),
        "serve_mixed" => serve::run(&SERVE_MIXED, args.seed, args.seconds, args.trace, &rec),
        _ => repro::run(args.seed, args.seconds, args.trace),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    if args.trace && args.workload != "repro_cifar100" {
        write_trace(&rec, &args.workload, args.seed);
    }

    println!(
        "== perfbench {} (seed {}, {} s, trace {}) ==",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &outcome.lines {
        println!("{line}");
    }
    for (name, unit) in metrics::END_TO_END {
        if let Some(v) = outcome.e2e.get(name) {
            println!("{name:<24} {v:>14.4} {unit}");
        }
    }
    if args.trace {
        for line in layer_table(&outcome) {
            println!("{line}");
        }
    }
    for v in &outcome.violations {
        println!("CHECK FAILED: {v}");
    }
    println!("{}", result_line(&outcome, args.trace));
    if outcome.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
