//! The benchmark's metric catalogue and the JSON result line it prints last.
//!
//! Every workload reports every metric of a list: an end-to-end metric
//! with no meaning on a workload does not exist (each one below has a
//! definition on all three), and a per-layer metric of a layer that a
//! workload never runs reads 0 — the layer did no work there, which is
//! exactly the prediction "no change on this workload".

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One end-to-end metric: name, unit.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_request", "ms"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
    ("ttfs_accuracy", "share"),
    ("ttfs_spikes_per_image", "count"),
    ("synops_per_image", "count"),
    ("ttfs_latency_steps", "steps"),
];

/// Hidden weighted layers of the cifar100-like network, in order.
pub const CIFAR100_LAYERS: [&str; 9] = [
    "conv1_1", "conv2_1", "conv3_1", "conv3_2", "conv4_1", "conv4_2", "conv5_1", "conv5_2", "fc6",
];

/// One per-layer metric: name, unit, and the end-to-end metric it
/// should move (on which workload).
pub struct LayerMetric {
    pub name: String,
    pub unit: &'static str,
    pub moves: &'static str,
}

/// Engine span keys whose self time the traced run reports, with the
/// crate that owns the site (`tensor` kernels run in `snn`/`core`
/// executors; `go/collect_activations` is the DNN forward pass).
pub const PROFILE_KEYS: [(&str, &str, &str); 10] = [
    (
        "op/conv_scatter_events",
        "tensor",
        "repro.sweep_s (sims) and serve.exec_ms_p50",
    ),
    (
        "op/pool_events",
        "tensor",
        "repro.sweep_s (sims) and serve.exec_ms_p50",
    ),
    (
        "op/linear_events",
        "tensor",
        "repro.sweep_s (sims) and serve.exec_ms_p50",
    ),
    (
        "op/conv_gemm_pm",
        "tensor",
        "serve.exec_ms_p50 -> latency_p50_ms @ serve_*",
    ),
    ("sim/fire", "tensor", "repro.sweep_s @ repro_cifar100"),
    (
        "sim/input_drive",
        "tensor",
        "repro.sweep_s @ repro_cifar100",
    ),
    (
        "ttfs/fire_scan",
        "tensor",
        "serve.exec_ms_p50 -> latency_p50_ms, cpu_ms_per_request @ serve_*",
    ),
    (
        "ttfs/input_window",
        "tensor",
        "serve.exec_ms_p50 -> latency_p50_ms, cpu_ms_per_request @ serve_*",
    ),
    (
        "ttfs/segment_propagate",
        "tensor",
        "serve.exec_ms_p50 -> latency_p50_ms, cpu_ms_per_request @ serve_*",
    ),
    (
        "go/collect_activations",
        "dnn",
        "repro.sweep_s @ repro_cifar100",
    ),
];

/// Per-layer metric name of an engine span key's self time.
pub fn profile_metric(key: &str) -> String {
    let owner = PROFILE_KEYS
        .iter()
        .find(|(k, _, _)| *k == key)
        .map_or("tensor", |(_, owner, _)| owner);
    format!("{owner}.{}_s", key.replace('/', "."))
}

/// The full per-layer catalogue, in report order.
pub fn per_layer() -> Vec<LayerMetric> {
    let mut out = Vec::new();
    let mut add = |name: &str, unit: &'static str, moves: &'static str| {
        out.push(LayerMetric {
            name: name.to_string(),
            unit,
            moves,
        });
    };
    add("scenario.prepare_s", "s", "setup_s @ all");
    add("core.from_dnn_s", "s", "setup_s @ all");
    add(
        "core.infer.steps_mean",
        "steps",
        "ttfs_latency_steps, latency_* @ serve_*",
    );
    add(
        "core.infer.decided_share",
        "share",
        "latency_* @ serve_* (early exit)",
    );
    add(
        "core.infer.spikes_mean",
        "count",
        "ttfs_spikes_per_image @ all",
    );
    add(
        "core.infer.synop_adds_mean",
        "count",
        "synops_per_image, latency_* @ all",
    );
    add(
        "core.optimize.collect_s",
        "s",
        "repro.sweep_s @ repro_cifar100",
    );
    add(
        "core.optimize.build_s",
        "s",
        "repro.sweep_s @ repro_cifar100",
    );
    add("core.run_s.t2fsnn", "s", "repro.sweep_s @ repro_cifar100");
    add(
        "core.run_s.t2fsnn_go",
        "s",
        "repro.sweep_s @ repro_cifar100",
    );
    add(
        "core.run_s.t2fsnn_ef",
        "s",
        "repro.sweep_s @ repro_cifar100",
    );
    add(
        "core.run_s.t2fsnn_go_ef",
        "s",
        "repro.sweep_s @ repro_cifar100",
    );
    add(
        "core.run.spikes.input",
        "count",
        "ttfs_spikes_per_image @ repro_cifar100",
    );
    for layer in CIFAR100_LAYERS {
        add(
            &format!("core.run.spikes.{layer}"),
            "count",
            "ttfs_spikes_per_image @ repro_cifar100",
        );
    }
    add("repro.sweep_s", "s", "the sweep wall time @ repro_cifar100");
    add(
        "repro.spikes_vs_burst",
        "ratio",
        "paper headline (<1 %) @ repro_cifar100",
    );
    add(
        "repro.latency_vs_burst",
        "ratio",
        "paper headline (22 %) @ repro_cifar100",
    );
    for coding in ["rate", "phase", "burst"] {
        let simulate: &'static str = "repro.sweep_s @ repro_cifar100; none @ serve_*";
        add(&format!("snn.simulate_s.{coding}"), "s", simulate);
        add(
            &format!("snn.spikes_per_image.{coding}"),
            "count",
            "repro.spikes_vs_burst @ repro_cifar100",
        );
        add(&format!("snn.synop_adds.{coding}"), "count", simulate);
    }
    add(
        "serve.queue_ms_p50",
        "ms",
        "latency_p50_ms @ serve_mixed; none @ repro",
    );
    add(
        "serve.exec_ms_p50",
        "ms",
        "latency_p50_ms @ serve_cifar100; cpu_ms_per_request",
    );
    add(
        "serve.transport_ms_p50",
        "ms",
        "latency_p50_ms @ serve_mixed; none @ repro",
    );
    add(
        "serve.batch_size_mean",
        "count",
        "cpu_ms_per_request @ serve_* (phase B)",
    );
    add(
        "serve.batch_fill",
        "share",
        "cpu_ms_per_request @ serve_* (phase B)",
    );
    add(
        "serve.throughput_rps",
        "1/s",
        "wall-clock phase-B rate; follows host steal",
    );
    add(
        "core.infer.batch_images_per_s",
        "1/s",
        "wall-clock batch rate @ repro; follows host steal",
    );
    for (key, _, moves) in PROFILE_KEYS {
        add(&profile_metric(key), "s", moves);
    }
    add(
        "host.steal_pct",
        "%",
        "diagnostic: explains a disturbed run",
    );
    add("host.busy_pct", "%", "diagnostic: explains a disturbed run");
    add(
        "generator.late_ms_p90",
        "ms",
        "diagnostic: open-loop sender lateness",
    );
    add(
        "trace.overhead_pct",
        "%",
        "diagnostic: traced vs untraced run",
    );
    out
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<String, f64>,
    /// Per-layer metric values by name (absent = the layer did no work).
    pub layers: BTreeMap<String, f64>,
    /// Operations checked (requests sent, inferences compared).
    pub attempted: u64,
    /// Operations that failed: non-200 answers and transport errors.
    pub failed: u64,
    /// Correctness violations, one line each.
    pub violations: Vec<String>,
    /// Report lines printed before the result line.
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.e2e.insert(name.to_string(), value);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Records a failed correctness check.
    pub fn violate(&mut self, what: String) {
        self.violations.push(what);
    }
}

/// Formats a finite number with every digit Rust's shortest round-trip
/// printing gives it (non-finite values cannot appear in JSON and are a
/// measurement bug).
fn number(value: f64) -> String {
    assert!(value.is_finite(), "non-finite metric value {value}");
    let text = format!("{value}");
    if text.contains('.') || text.contains('e') {
        text
    } else {
        format!("{text}.0")
    }
}

/// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`
/// with every end-to-end metric (`trace == false`) or every per-layer
/// metric (`trace == true`).
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let mut metrics = String::new();
    let mut push = |name: &str, value: f64, unit: &str| {
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        );
    };
    if trace {
        for m in per_layer() {
            push(
                &m.name,
                outcome.layers.get(&m.name).copied().unwrap_or(0.0),
                m.unit,
            );
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = outcome
                .e2e
                .get(name)
                .copied()
                .unwrap_or_else(|| panic!("workload did not measure {name}"));
            push(name, value, unit);
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.violations.is_empty(),
        outcome.attempted.max(1),
        outcome.failed
    )
}

/// The human-readable per-layer table of a traced run.
pub fn layer_table(outcome: &Outcome) -> Vec<String> {
    let mut lines = vec![format!(
        "{:<38} {:>14} {:<6} should move",
        "per-layer metric", "value", "unit"
    )];
    for m in per_layer() {
        let value = match outcome.layers.get(&m.name) {
            Some(v) => format!("{v:.4}"),
            None => "0 (not run)".to_string(),
        };
        lines.push(format!(
            "{:<38} {:>14} {:<6} {}",
            m.name, value, m.unit, m.moves
        ));
    }
    lines
}
