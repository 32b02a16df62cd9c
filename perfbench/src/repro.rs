//! The in-process paper reproduction on the cifar100-like scenario:
//! rate/phase/burst simulations, GO calibration, the four T2FSNN
//! variants (Table II / Fig. 6), then per-image and batch inference.
//!
//! It runs in a child process of the benchmark so that its peak RSS is
//! its own and its stderr can be checked for retraining. The child
//! reports over stdout in `@@`-prefixed lines.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use t2fsnn::eval::{build_variant_calibrated, CodingMeasurement, Variant};
use t2fsnn::optimize::{GoCalibration, GoConfig};
use t2fsnn::{ImageInference, InferOptions, T2fsnn, T2fsnnConfig, TtfsRun};
use t2fsnn_bench::{prepare, Prepared, Scenario};
use t2fsnn_snn::coding::{BurstCoding, Coding, PhaseCoding, RateCoding};
use t2fsnn_snn::{simulate, SimConfig, SnnNetwork};
use t2fsnn_tensor::{profile, trace, Tensor};

use crate::host;
use crate::metrics::{profile_metric, Outcome, PROFILE_KEYS};
use crate::spans::{self_times, ProgramSpan, Recorder};
use crate::stats::{best_per_item, highest_supported_percentile, mean, median, quantile, SplitMix};

const SCENARIO: Scenario = Scenario::Cifar100Like;
/// Set-up (`prepare` + `T2fsnn::from_dnn`) is repeated and its median
/// reported.
const SETUPS: usize = 5;
/// Flight-recorder slots of the traced pass: holds every span of the
/// largest single call (the rate-coding simulation).
const TRACE_CAP: &str = "262144";
/// Share of `--seconds` given to single-image latency; batch throughput
/// gets the rest.
const LATENCY_SHARE: f64 = 0.5;

/// Runs the workload in a child process and collects its report.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let prepared = prepare(SCENARIO);
    crate::learn_guard(
        SCENARIO.name(),
        prepared.dnn_accuracy,
        prepared.test.spec.classes,
    )?;
    drop(prepared);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command.env_clear();
    if let Some(dir) = std::env::var_os("CARGO_TARGET_DIR") {
        command.env("CARGO_TARGET_DIR", dir);
    }
    let mut child = command
        .env("T2FSNN_THREADS", "2")
        .env("T2FSNN_TRACE_CAP", TRACE_CAP)
        .args(["--worker", "repro_cifar100", "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start the repro worker: {e}"))?;
    let mut err_pipe = child.stderr.take().expect("stderr is piped");
    let stderr_reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = err_pipe.read_to_string(&mut text);
        text
    });
    let mut outcome = Outcome::default();
    for line in BufReader::new(child.stdout.take().expect("stdout is piped")).lines() {
        let line = line.map_err(|e| e.to_string())?;
        let Some(rest) = line.strip_prefix("@@ ") else {
            continue;
        };
        let (kind, rest) = rest.split_once(' ').unwrap_or((rest, ""));
        let value = |rest: &str| -> Result<(String, f64), String> {
            let (name, v) = rest.rsplit_once(' ').ok_or("malformed worker line")?;
            Ok((
                name.to_string(),
                v.parse().map_err(|_| format!("bad value in {line}"))?,
            ))
        };
        match kind {
            "e2e" => {
                let (name, v) = value(rest)?;
                outcome.set(&name, v);
            }
            "layer" => {
                let (name, v) = value(rest)?;
                outcome.layer(&name, v);
            }
            "note" => outcome.note(rest.to_string()),
            "violation" => outcome.violate(rest.to_string()),
            "counts" => {
                let (a, f) = rest.split_once(' ').ok_or("malformed counts line")?;
                outcome.attempted = a.parse().map_err(|_| "bad attempted count")?;
                outcome.failed = f.parse().map_err(|_| "bad failed count")?;
            }
            _ => return Err(format!("unknown worker line: {line}")),
        }
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    let stderr = stderr_reader.join().unwrap_or_default();
    eprint!("{stderr}");
    if stderr.contains("[prepare] training") {
        return Err("the repro worker retrained a model during a timed run".to_string());
    }
    if !status.success() {
        return Err(format!("repro worker failed ({status})"));
    }
    Ok(outcome)
}

/// The child side: measures and prints `@@` lines.
pub fn worker(seed: u64, seconds: f64, trace: bool, rec: &Recorder) -> Result<(), String> {
    let root = rec.begin("perfbench/repro", 0);
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut prepares = Vec::new();
    let mut converts = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        let (p, took_prepare) = rec.time("scenario/prepare", root.id(), || prepare(SCENARIO));
        let (model, took_convert) = rec.time("core/from_dnn", root.id(), || {
            T2fsnn::from_dnn(
                &p.dnn,
                T2fsnnConfig::new(SCENARIO.time_window()),
                SCENARIO.initial_kernel(),
            )
        });
        model.map_err(|e| format!("conversion failed: {e}"))?;
        prepares.push(took_prepare.as_secs_f64());
        converts.push(took_convert.as_secs_f64());
        setups.push((took_prepare + took_convert).as_secs_f64());
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up");
    out.set("setup_s", median(&setups));
    out.layer("scenario.prepare_s", median(&prepares));
    out.layer("core.from_dnn_s", median(&converts));
    out.note(format!(
        "set-up: {SETUPS} x (prepare + from_dnn), median {:.3} s",
        median(&setups)
    ));

    let pass = measure(&prepared, seed, seconds, rec, root.id(), &mut out)?;
    if trace {
        // The traced pass repeats the work with the program's profile
        // table and flight recorder on; the untraced figures above stay
        // the reported ones.
        trace::set_enabled(true);
        profile::set_enabled(true);
        let mut traced = Outcome::default();
        let traced_pass = measure(&prepared, seed, seconds, rec, root.id(), &mut traced)?;
        out.violations.extend(traced.violations);
        let overhead = 100.0 * (traced_pass.sweep_s / pass.sweep_s - 1.0);
        out.layer("trace.overhead_pct", overhead);
        out.note(format!(
            "tracing overhead: sweep {:.3} s untraced vs {:.3} s traced ({overhead:+.1} %)",
            pass.sweep_s, traced_pass.sweep_s
        ));
        let entries = profile::entries();
        let split = self_times(&traced_pass.spans);
        for (key, _, _) in PROFILE_KEYS {
            let inclusive_ns = entries
                .iter()
                .find(|e| e.key == key)
                .map_or(0.0, |e| e.nanos as f64);
            let share = split.get(key).map_or(
                1.0,
                |&(incl, own)| if incl > 0.0 { own / incl } else { 1.0 },
            );
            out.layer(&profile_metric(key), inclusive_ns / 1e9 * share);
        }
        out.note(format!(
            "engine self times: profile table of the traced pass, split by {} recorder spans",
            traced_pass.spans.len()
        ));
    }
    out.set("peak_rss_mb", host::peak_rss_mb("self"));
    rec.end(root);

    for (name, v) in &out.e2e {
        println!("@@ e2e {name} {v}");
    }
    for (name, v) in &out.layers {
        println!("@@ layer {name} {v}");
    }
    for line in &out.lines {
        println!("@@ note {line}");
    }
    for v in &out.violations {
        println!("@@ violation {v}");
    }
    println!("@@ counts {} {}", out.attempted, out.failed);
    Ok(())
}

struct Pass {
    sweep_s: f64,
    /// Program spans collected call by call (traced pass only).
    spans: Vec<ProgramSpan>,
}

/// Calls `f` under a benchmark span; when the program's flight recorder
/// is on, drains it into `spans` so no call overflows the ring.
fn call<T>(
    rec: &Recorder,
    name: &str,
    parent: u64,
    spans: &mut Vec<ProgramSpan>,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let (out, took) = rec.time(name, parent, f);
    if trace::enabled() {
        spans.extend(trace::snapshot().into_iter().map(|e| ProgramSpan {
            key: e.key.to_string(),
            id: e.span_id,
            parent: e.parent_id,
            dur_ns: e.dur_ns as f64,
        }));
        trace::clear();
    }
    (out, took)
}

fn variant_metric(variant: Variant) -> String {
    format!(
        "core.run_s.{}",
        variant.name().to_lowercase().replace('+', "_")
    )
}

/// The timed work: the sweep, then single-image latency and batch
/// throughput of the T2FSNN+GO+EF model, with every check.
fn measure(
    prepared: &Prepared,
    seed: u64,
    seconds: f64,
    rec: &Recorder,
    root: u64,
    out: &mut Outcome,
) -> Result<Pass, String> {
    let mut spans = Vec::new();
    let (images, labels) = prepared.eval_subset(prepared.test.len());
    let n = labels.len();
    let cpu0 = host::cpu_times();

    // --- The sweep (repro_s): sims, GO calibration, four variants. ---
    let sweep = Instant::now();
    let snn = SnnNetwork::from_dnn(&prepared.dnn).map_err(|e| e.to_string())?;
    let codings: Vec<(Box<dyn Coding>, usize)> = vec![
        (Box::new(RateCoding::new()), SCENARIO.rate_steps()),
        (Box::new(PhaseCoding::new(8)), SCENARIO.fast_coding_steps()),
        (Box::new(BurstCoding::new(5)), SCENARIO.fast_coding_steps()),
    ];
    let mut burst = None;
    for (mut coding, steps) in codings {
        let name = coding.name().to_lowercase();
        let config = SimConfig::new(steps, (steps / 16).max(1));
        let (sim, took) = call(
            rec,
            &format!("snn/simulate.{name}"),
            root,
            &mut spans,
            || simulate(&snn, coding.as_mut(), &images, &labels, &config),
        );
        let sim = sim.map_err(|e| format!("{name} simulation failed: {e}"))?;
        out.layer(&format!("snn.simulate_s.{name}"), took.as_secs_f64());
        out.layer(
            &format!("snn.spikes_per_image.{name}"),
            sim.spikes_per_image(),
        );
        out.layer(
            &format!("snn.synop_adds.{name}"),
            sim.synop_adds as f64 / n as f64,
        );
        if name == "burst" {
            burst = Some(CodingMeasurement::from_sim(&sim, 0.005));
        }
    }
    let burst = burst.ok_or("burst coding did not run")?;
    let mut dnn = prepared.dnn.clone();
    let (calibration, took) = call(rec, "core/go_collect", root, &mut spans, || {
        GoCalibration::collect(&mut dnn, &prepared.train.images)
    });
    let calibration = calibration.map_err(|e| format!("GO calibration failed: {e}"))?;
    out.layer("core.optimize.collect_s", took.as_secs_f64());
    let mut build_s = 0.0;
    let mut final_model: Option<(T2fsnn, TtfsRun)> = None;
    for variant in Variant::ALL {
        let mut rng = ChaCha8Rng::seed_from_u64(SCENARIO.seed() + 6);
        let (model, took) = call(rec, "core/build_variant", root, &mut spans, || {
            build_variant_calibrated(
                &prepared.dnn,
                &calibration,
                SCENARIO.time_window(),
                variant,
                SCENARIO.initial_kernel(),
                &GoConfig::default(),
                &mut rng,
            )
        });
        build_s += took.as_secs_f64();
        let model = model.map_err(|e| format!("{} build failed: {e}", variant.name()))?;
        let (run, took) = call(rec, "core/run", root, &mut spans, || {
            model.run(&images, &labels)
        });
        let run = run.map_err(|e| format!("{} run failed: {e}", variant.name()))?;
        out.layer(&variant_metric(variant), took.as_secs_f64());
        if variant.go && variant.ef {
            final_model = Some((model, run));
        }
    }
    let sweep_s = sweep.elapsed().as_secs_f64();
    out.layer("core.optimize.build_s", build_s);
    out.layer("repro.sweep_s", sweep_s);
    let (model, run) = final_model.ok_or("T2FSNN+GO+EF was not built")?;

    let spikes = run.spikes_per_image();
    out.set("ttfs_accuracy", f64::from(run.accuracy));
    out.set("ttfs_spikes_per_image", spikes);
    out.set("synops_per_image", run.synop_adds as f64 / n as f64);
    out.set("ttfs_latency_steps", run.latency as f64);
    out.layer("core.run.spikes.input", run.input_spikes as f64 / n as f64);
    for layer in &run.layers {
        out.layer(
            &format!("core.run.spikes.{}", layer.name),
            layer.count as f64 / n as f64,
        );
    }
    let spikes_ratio = spikes / burst.spikes_per_image();
    let latency_ratio = run.latency as f64 / burst.latency as f64;
    out.layer("repro.spikes_vs_burst", spikes_ratio);
    out.layer("repro.latency_vs_burst", latency_ratio);
    out.note(format!(
        "sweep (rate/phase/burst sims, GO calibration, 4 variants over {n} test images): {sweep_s:.3} s"
    ));
    out.note(format!(
        "T2FSNN+GO+EF vs burst: latency {} vs {} steps ({:.1} %), spikes/image {spikes:.0} vs {:.0} ({:.2} %); accuracy {:.1} % (DNN {:.1} %)",
        run.latency,
        burst.latency,
        100.0 * latency_ratio,
        burst.spikes_per_image(),
        100.0 * spikes_ratio,
        100.0 * run.accuracy,
        100.0 * prepared.dnn_accuracy
    ));

    // --- References and checks. ---
    let dims = images.dims()[1..].to_vec();
    let max_spikes = dims.iter().product::<usize>() as u64
        + model
            .network()
            .neuron_count(&dims)
            .map_err(|e| e.to_string())? as u64;
    let singles: Vec<Tensor> = (0..n)
        .map(|i| {
            let image = images.index_axis0(i).expect("in range");
            Tensor::from_vec(vec![1, dims[0], dims[1], dims[2]], image.data().to_vec())
                .expect("image shape")
        })
        .collect();
    let solo = |opts: InferOptions| -> Result<Vec<ImageInference>, String> {
        singles
            .iter()
            .map(|x| {
                model
                    .infer(x, opts)
                    .map(|mut r| r.remove(0))
                    .map_err(|e| e.to_string())
            })
            .collect()
    };
    let solo_ee = solo(InferOptions::early_exit())?;
    let solo_full = solo(InferOptions::default())?;
    let mut checks = Checks::default();
    let (batch_ee, _) = call(rec, "core/infer_batch_ee", root, &mut spans, || {
        model.infer(&images, InferOptions::early_exit())
    });
    let batch_ee = batch_ee.map_err(|e| e.to_string())?;
    checks.compare(
        "batch early-exit infer vs solo",
        &batch_ee,
        &solo_ee,
        max_spikes,
    );
    checks.compare("solo full-window infer", &solo_full, &solo_full, max_spikes);
    let full_correct = solo_full
        .iter()
        .zip(&labels)
        .filter(|(r, &l)| r.label == l)
        .count();
    let run_correct = (f64::from(run.accuracy) * n as f64).round() as usize;
    checks.attempted += 1;
    if run_correct == full_correct {
        checks.ok += 1;
    } else {
        checks.violations.push(format!(
            "T2fsnn::run classifies {run_correct}/{n} correctly but full-window infer {full_correct}/{n}"
        ));
    }

    let ee_n = batch_ee.len().max(1) as f64;
    out.layer(
        "core.infer.steps_mean",
        batch_ee.iter().map(|r| r.steps as f64).sum::<f64>() / ee_n,
    );
    out.layer(
        "core.infer.decided_share",
        batch_ee.iter().filter(|r| r.decided()).count() as f64 / ee_n,
    );
    out.layer(
        "core.infer.spikes_mean",
        batch_ee
            .iter()
            .map(|r| r.total_spikes() as f64)
            .sum::<f64>()
            / ee_n,
    );
    out.layer(
        "core.infer.synop_adds_mean",
        batch_ee.iter().map(|r| r.synop_adds as f64).sum::<f64>() / ee_n,
    );

    // --- Single-image early-exit latency, in a seeded order. ---
    let mut rng = SplitMix::new(seed);
    let order = rng.cycles(n, 1000);
    let budget = Duration::from_secs_f64(seconds * LATENCY_SHARE);
    let mut latency = Vec::new();
    let start = Instant::now();
    let phase = rec.begin("perfbench/latency", root);
    for &i in &order {
        if start.elapsed() >= budget {
            break;
        }
        let t = Instant::now();
        let r = model
            .infer(&singles[i], InferOptions::early_exit())
            .map_err(|e| e.to_string())?;
        latency.push(t.elapsed().as_secs_f64() * 1e3);
        checks.compare(
            "single-image early-exit infer",
            &r,
            &solo_ee[i..=i],
            max_spikes,
        );
    }
    rec.end(phase);
    if trace::enabled() {
        trace::clear();
    }

    // --- Batch full-window throughput over the test split. ---
    let budget = Duration::from_secs_f64(seconds * (1.0 - LATENCY_SHARE));
    let mut inferred = 0usize;
    let mut call_rates = Vec::new();
    let start = Instant::now();
    let cpu_start = host::process_cpu_s(std::process::id());
    let phase = rec.begin("perfbench/throughput", root);
    while inferred == 0 || start.elapsed() < budget {
        let t = Instant::now();
        let r = model
            .infer(&images, InferOptions::default())
            .map_err(|e| e.to_string())?;
        call_rates.push(r.len() as f64 / t.elapsed().as_secs_f64());
        checks.compare(
            "batch full-window infer vs solo",
            &r,
            &solo_full,
            max_spikes,
        );
        inferred += r.len();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_s(std::process::id()) - cpu_start;
    rec.end(phase);
    if trace::enabled() {
        trace::clear();
    }
    let (steal, busy) = host::shares(cpu0, host::cpu_times());

    let best = best_per_item(order.iter().copied().zip(latency.iter().copied()), n);
    out.set("latency_p50_ms", quantile(&best, 0.5));
    out.set("latency_p90_ms", quantile(&best, 0.9));
    out.set("cpu_ms_per_request", 1e3 * cpu_s / inferred as f64);
    out.layer("core.infer.batch_images_per_s", median(&call_rates));
    out.set(
        "ok_share",
        checks.ok as f64 / checks.attempted.max(1) as f64,
    );
    out.layer("host.steal_pct", steal);
    out.layer("host.busy_pct", busy);
    let supported = highest_supported_percentile(latency.len()).map_or("n/a".to_string(), |p| {
        format!("p{p} {:.3} ms", quantile(&latency, p / 100.0))
    });
    out.note(format!(
        "single-image early-exit infer: {} calls, p50 {:.3} ms, p90 {:.3} ms, {supported}, mean {:.3} ms; best of {} repeats per image: p50 {:.3} ms, p90 {:.3} ms",
        latency.len(),
        quantile(&latency, 0.5),
        quantile(&latency, 0.9),
        mean(&latency),
        latency.len() / n,
        quantile(&best, 0.5),
        quantile(&best, 0.9)
    ));
    out.note(format!(
        "batch full-window infer: {inferred} images in {elapsed:.2} s -> {:.1} images/s overall, median {:.1} over {} calls; {:.3} CPU ms per image",
        inferred as f64 / elapsed,
        median(&call_rates),
        call_rates.len(),
        1e3 * cpu_s / inferred as f64
    ));
    out.note(format!(
        "host over the timed work: steal {steal:.2} %, busy {busy:.1} %"
    ));
    out.attempted += checks.attempted;
    out.violations.extend(checks.violations);
    Ok(Pass { sweep_s, spans })
}

#[derive(Default)]
struct Checks {
    attempted: u64,
    ok: u64,
    violations: Vec<String>,
}

impl Checks {
    /// Per-image bit identity of `got` against `want`, and the TTFS bound:
    /// every neuron (and input pixel) spikes at most once.
    fn compare(
        &mut self,
        what: &str,
        got: &[ImageInference],
        want: &[ImageInference],
        max_spikes: u64,
    ) {
        if got.len() != want.len() {
            self.attempted += want.len() as u64;
            self.violations.push(format!(
                "{what}: {} answers for {} images",
                got.len(),
                want.len()
            ));
            return;
        }
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            self.attempted += 1;
            let same = crate::same_bits(g, w);
            if !same {
                self.violations
                    .push(format!("{what}: image {i} differs from the solo reference"));
            } else if g.total_spikes() > max_spikes {
                self.violations.push(format!(
                    "{what}: image {i} emits {} spikes, more than its {max_spikes} neurons",
                    g.total_spikes()
                ));
            } else {
                self.ok += 1;
            }
        }
    }
}
