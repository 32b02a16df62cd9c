//! Closed-loop load generator for the `t2fsnn-serve` server.
//!
//! Drives `POST /v1/infer` over localhost at a configurable concurrency
//! (each worker thread runs a keep-alive connection and sends its next
//! request as soon as the previous answer lands), reports throughput and
//! latency quantiles, and optionally records them as a `serve` target in
//! `results/bench_baseline.json`.
//!
//! The client speaks the wire protocol with its own struct mirrors —
//! deliberately not importing the server's types, so the JSON contract
//! itself is what is exercised. Requests retry connection errors and
//! `429` backpressure with bounded exponential backoff + jitter from a
//! seeded generator, so runs are reproducible.
//!
//! ```sh
//! serve_load --addr 127.0.0.1:7878 --requests 200 --concurrency 4
//! serve_load --smoke                  # spawn a server, assert the gates
//! serve_load --smoke --record-label pr5-post
//! serve_load --chaos                  # fault injection + invariant gates
//! serve_load --overload               # deadline ladder under 2× load
//! serve_load --churn                  # hot model lifecycle under traffic
//! serve_load --perturb 9:igauss=0.15,jitter=2,drop=0.1,wgauss=0.05
//! serve_load --obs                    # observability read-only gates
//! ```
//!
//! The mode flags are mutually exclusive. A second mode flag, an unknown
//! flag, a missing value or a malformed one (`--requests abc`,
//! `--early-exit false`, `--deadline-ms 15ms`) exits 2 with a message
//! naming the offending token.
//!
//! All modes share one harness core: a [`Server`] that owns a spawned
//! child and its address and gates its clean shutdown, [`infer_body`]
//! for every inference request, [`once`] for one-off requests,
//! [`parse_answer`] for every inference outcome, [`closed_loop`] for
//! concurrent load with the [`LoadReport`] gates, [`metrics_or_fail`]
//! for `/metrics`, [`fetch_health`] for `/healthz`, and [`finish`] for
//! the verdict. A mode states only its traffic and its gates.
//!
//! `--smoke` is the CI correctness gate: it spawns the sibling
//! `t2fsnn_serve` binary on an ephemeral port, fires a burst, and
//! asserts ≥99 % 2xx, micro-batches beyond size 1, solo-vs-batched
//! bit-identical responses, and a clean ctrl-channel shutdown (exit 0).
//! Timing numbers are informational — never asserted — so the step can
//! block on correctness without flaking on machine speed.
//!
//! `--chaos` spawns the server with a fixed-seed `T2FSNN_SERVE_FAULTS`
//! spec (slow/aborted reads, mid-response drops, batch panics, batch
//! delays) and drives a mixed stream of valid, malformed, and
//! already-expired (`deadline_ms: 0`) requests. Its gates are the
//! robustness invariants: the loop finishes (no wedge), every request
//! reaches a terminal outcome, successful responses stay bit-identical
//! to a solo reference, malformed → `400`, doomed → `504`, error rates
//! stay bounded, injected panics are observed without the batcher ever
//! needing a respawn, `/healthz` reports `ok` under fire, and the
//! server still shuts down cleanly (exit 0).
//!
//! `--overload` measures full-window capacity, then drives ≥2× that
//! offered load with per-request deadlines so the degradation ladder
//! engages (forced early-exit, then shedding); it asserts that p99 of
//! *answered* requests stays within the deadline and writes the demo to
//! `results/serve_overload.json`.
//!
//! `--churn` is the model-lifecycle gate: four phases, each against its
//! own spawned server. Phase 1 runtime-loads a second model, drives
//! mixed traffic at two concurrencies, then reloads, unloads and
//! re-loads it under traffic — gating zero transport failures,
//! bit-identity of every `200` to its model's solo reference, and the
//! echoed `version` field proving admission-time pinning. Phase 2
//! exercises the per-model admission quota (`429` + counter). Phase 3
//! injects a `canary_fail` fault into a reload and asserts the poisoned
//! candidate never serves a byte (incumbent keeps answering v1
//! bit-exact) while the next reload promotes cleanly. Phase 4 injects a
//! `model_panic` burst to trip the per-model quarantine and gates the
//! `500 → trip → 503 → probe → readmit → 200` arc with bit-identity
//! after re-admission.
//!
//! `--perturb <spec>` sweeps the spec over severities {0, 0.5, 1}: each
//! severity spawns the server with `T2FSNN_SERVE_PERTURB` set to the
//! scaled spec (event/model families applied at load) while the client
//! applies the input families to the request images — the same split
//! the production path would use. Gates: severity-0 responses are
//! bit-identical to a clean-server baseline, every perturbed response
//! is bit-identical between solo and batched/concurrent execution,
//! `/healthz` stays `ok`, the perturbation-footprint metrics match the
//! spec, and every server shuts down cleanly.
//!
//! `--obs` is the observability CI gate. Part A runs the sibling
//! `repro_fig6` (quick grid) with `T2FSNN_TRACE` pointing at a scratch
//! file and validates the exported flight-recorder JSON: well-formed
//! Chrome trace-event structure, `ttfs/*` engine-phase spans present,
//! span ids populated, and at least one parent/child link. Part B
//! spawns two servers — tracing + structured logging off and on —
//! and drives the same request stream against both in interleaved
//! rounds (one warm-up, three counted), gating the read-only contract:
//! every per-image response bit-identical across the halves, a
//! `timing: true` request answered with a usable breakdown whose trace
//! id is then found in `/debug/trace`, `/debug/slow` serving its
//! threshold body, and the traced half's best-of-3 throughput within
//! 3 % of the untraced half.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use t2fsnn_bench::baseline::{BaselineFile, BenchRecord, LabeledSnapshot, Snapshot, TargetResult};
use t2fsnn_bench::report::results_dir;
use t2fsnn_bench::Scenario;
use t2fsnn_tensor::perturb::PerturbSpec;

/// Fixed fault spec for `--chaos`: every kind exercised, rates low
/// enough that most valid traffic still succeeds, panic rate high
/// enough that a run of ≥100 requests observes batch panics.
const CHAOS_FAULT_SPEC: &str =
    "1337:slow_read=0.05@20,abort_read=0.05,drop_resp=0.05,panic=0.15,batch_delay=0.05@5";

/// Bounded retry attempts per request (connection errors and `429`s).
const MAX_RETRIES: u32 = 3;

const USAGE: &str = "usage: serve_load [--addr host:port] [--requests N] [--concurrency C] \
     [--model NAME] [--early-exit 0|1] [--deadline-ms N] [--seed N] \
     [--smoke | --chaos | --overload | --churn | --obs | --perturb SPEC] \
     [--record-label LABEL]";

/// Client-side mirror of the server's `InferRequest`.
#[derive(Serialize)]
struct InferRequest {
    model: Option<String>,
    image: Vec<f32>,
    early_exit: Option<bool>,
    deadline_ms: Option<u64>,
    timing: Option<bool>,
}

/// The JSON body of one `POST /v1/infer`; `timing` opts into the
/// response's timing breakdown.
fn infer_body(
    model: &str,
    image: &[f32],
    early_exit: bool,
    deadline_ms: Option<u64>,
    timing: bool,
) -> Vec<u8> {
    serde_json::to_vec(&InferRequest {
        model: Some(model.to_string()),
        image: image.to_vec(),
        early_exit: Some(early_exit),
        deadline_ms,
        timing: timing.then_some(true),
    })
    .expect("serialize request")
}

/// Client-side mirror of the response's opt-in `timing` breakdown.
#[derive(Debug, Clone, Deserialize)]
struct TimingView {
    trace: u64,
    batch_trace: u64,
    queue_us: u64,
    infer_us: u64,
    total_us: u64,
}

/// Client-side mirror of the server's `InferResponse` (the fields the
/// generator checks; unknown fields are ignored by the shim).
#[derive(Debug, Clone, Deserialize)]
struct InferResponse {
    model: String,
    version: u64,
    label: usize,
    decision_step: Option<usize>,
    steps: usize,
    top_potential: f32,
    input_spikes: u64,
    hidden_spikes: u64,
    synop_adds: u64,
    synop_mults: u64,
    batch_size: usize,
    queue_us: u64,
    infer_us: u64,
    degraded: bool,
    timing: Option<TimingView>,
}

impl InferResponse {
    /// Byte-level identity of the inference-determined fields (the
    /// `degraded` marker is scheduling metadata, not inference output).
    fn same_bits(&self, other: &InferResponse) -> bool {
        self.label == other.label
            && self.decision_step == other.decision_step
            && self.steps == other.steps
            && self.top_potential.to_bits() == other.top_potential.to_bits()
            && self.input_spikes == other.input_spikes
            && self.hidden_spikes == other.hidden_spikes
            && self.synop_adds == other.synop_adds
            && self.synop_mults == other.synop_mults
    }
}

/// Terminal status and parsed `200` body of one inference request;
/// `(None, None)` is a transport failure after all retries.
type Answer = (Option<u16>, Option<InferResponse>);

/// Parses a terminal outcome of `request_with_retry` on `/v1/infer`.
fn parse_answer(terminal: Option<(u16, Vec<u8>)>) -> Answer {
    let Some((status, body)) = terminal else {
        return (None, None);
    };
    let response = (status == 200)
        .then(|| serde_json::from_slice(&body).ok())
        .flatten();
    (Some(status), response)
}

/// SplitMix64 — the client's own tiny deterministic generator for
/// backoff jitter (seeded, so retry schedules are reproducible).
struct Rng64(u64);

impl Rng64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Exponential backoff with jitter: 2/4/8 ms base plus up to one base
/// of seeded jitter.
fn backoff(attempt: u32, rng: &mut Rng64) -> Duration {
    let base = 2u64 << attempt.min(8);
    Duration::from_millis(base + rng.next() % base)
}

/// Retry counters, reported in every summary.
#[derive(Default)]
struct RetryStats {
    on_429: AtomicU64,
    on_transport: AtomicU64,
}

/// One keep-alive HTTP/1.1 client connection.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(90)))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request and reads one `Content-Length`-framed response.
    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: load\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        // Head.
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
            })?;
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .unwrap_or(0);
        while self.buf.len() < head_end + content_length {
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[head_end..head_end + content_length].to_vec();
        self.buf.drain(..head_end + content_length);
        Ok((status, body))
    }
}

/// One request with bounded retry: reconnects on transport errors and
/// backs off on `429`, both with seeded jitter. `None` means the
/// request never reached a terminal HTTP status (a client-visible
/// transport failure after all retries).
fn request_with_retry(
    slot: &mut Option<Client>,
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    rng: &mut Rng64,
    stats: &RetryStats,
) -> Option<(u16, Vec<u8>)> {
    let mut attempt = 0u32;
    loop {
        if slot.is_none() {
            match Client::connect(addr) {
                Ok(c) => *slot = Some(c),
                Err(_) => {
                    if attempt >= MAX_RETRIES {
                        return None;
                    }
                    stats.on_transport.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(backoff(attempt, rng));
                    attempt += 1;
                    continue;
                }
            }
        }
        match slot
            .as_mut()
            .expect("connected")
            .request(method, path, body)
        {
            Ok((429, _)) if attempt < MAX_RETRIES => {
                stats.on_429.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff(attempt, rng));
                attempt += 1;
            }
            Ok(resp) => return Some(resp),
            Err(_) => {
                // Broken connection: drop it and retry on a fresh one.
                *slot = None;
                if attempt >= MAX_RETRIES {
                    return None;
                }
                stats.on_transport.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff(attempt, rng));
                attempt += 1;
            }
        }
    }
}

/// One-off request on a fresh connection, with the bounded retry of
/// [`request_with_retry`] drawing its jitter from `rng`.
fn once(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    rng: &mut Rng64,
) -> Option<(u16, Vec<u8>)> {
    let stats = RetryStats::default();
    request_with_retry(&mut None, addr, method, path, body, rng, &stats)
}

/// Which flow runs; the mode flags select exactly one.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Drive the already-running server at `--addr`; no verdict.
    Plain,
    Smoke,
    Chaos,
    Overload,
    Churn,
    Obs,
    Perturb(PerturbSpec),
}

impl Mode {
    /// The mode's name in its verdict line.
    fn name(self) -> &'static str {
        match self {
            Mode::Plain => "LOAD",
            Mode::Smoke => "SMOKE",
            Mode::Chaos => "CHAOS",
            Mode::Overload => "OVERLOAD",
            Mode::Churn => "CHURN",
            Mode::Obs => "OBS",
            Mode::Perturb(_) => "PERTURB",
        }
    }
}

#[derive(Debug)]
struct Args {
    addr: Option<String>,
    requests: usize,
    concurrency: usize,
    model: String,
    early_exit: bool,
    deadline_ms: Option<u64>,
    seed: u64,
    mode: Mode,
    record_label: Option<String>,
}

/// Parses the command line (program name excluded). An unknown flag, a
/// missing or malformed value, or a second mode flag is an error that
/// names the offending token.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("bad value `{value}` for {flag}"))
    }
    let mut args = Args {
        addr: None,
        requests: 120,
        concurrency: 4,
        model: "tiny".to_string(),
        early_exit: true,
        deadline_ms: None,
        seed: 42,
        mode: Mode::Plain,
        record_label: None,
    };
    let mut rest = argv.iter();
    while let Some(flag) = rest.next() {
        let flag = flag.as_str();
        let mut value = || {
            rest.next()
                .map(String::as_str)
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag {
            "--addr" => args.addr = Some(value()?.to_string()),
            "--requests" => args.requests = number(flag, value()?)?,
            "--concurrency" => args.concurrency = number::<usize>(flag, value()?)?.max(1),
            "--model" => args.model = value()?.to_string(),
            "--early-exit" => {
                args.early_exit = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad value `{other}` for {flag} (want 0 or 1)")),
                }
            }
            "--deadline-ms" => args.deadline_ms = Some(number(flag, value()?)?),
            "--seed" => args.seed = number(flag, value()?)?,
            "--record-label" => args.record_label = Some(value()?.to_string()),
            "--smoke" | "--chaos" | "--overload" | "--churn" | "--obs" | "--perturb" => {
                if args.mode != Mode::Plain {
                    return Err(format!("`{flag}`: the mode flags are mutually exclusive"));
                }
                args.mode = match flag {
                    "--smoke" => Mode::Smoke,
                    "--chaos" => Mode::Chaos,
                    "--overload" => Mode::Overload,
                    "--churn" => Mode::Churn,
                    "--obs" => Mode::Obs,
                    _ => {
                        let spec = value()?;
                        Mode::Perturb(
                            PerturbSpec::parse(spec)
                                .map_err(|e| format!("bad value `{spec}` for {flag}: {e}"))?,
                        )
                    }
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.mode == Mode::Plain && args.addr.is_none() {
        return Err(
            "need --addr (drive a running server) or --smoke/--chaos/--overload/--churn/\
             --obs/--perturb (spawn one)"
                .to_string(),
        );
    }
    Ok(args)
}

/// A `t2fsnn_serve` child spawned on an ephemeral port. It owns its
/// address; [`Server::shutdown`] ends it and gates a clean exit.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Spawns the sibling `t2fsnn_serve` binary with `extra_env` on top
    /// of the harness defaults, and waits for its readiness line.
    fn spawn(model: &str, extra_env: &[(&str, String)]) -> Server {
        let exe = std::env::current_exe().expect("current_exe");
        let server_bin = exe.with_file_name("t2fsnn_serve");
        if !server_bin.exists() {
            eprintln!(
                "[serve_load] FATAL: {} not found — build it first \
                 (cargo build --release -p t2fsnn-serve)",
                server_bin.display()
            );
            std::process::exit(2);
        }
        let mut command = Command::new(&server_bin);
        command
            .env("T2FSNN_SERVE_ADDR", "127.0.0.1:0")
            .env("T2FSNN_SERVE_MODELS", model)
            .env("T2FSNN_SERVE_MAX_BATCH", "8")
            .env("T2FSNN_SERVE_MAX_DELAY_US", "4000")
            .env("T2FSNN_SERVE_QUEUE", "256")
            .env("T2FSNN_SERVE_WORKERS", "8")
            .stdout(Stdio::piped());
        for (key, value) in extra_env {
            command.env(key, value);
        }
        let mut child = command.spawn().expect("spawn t2fsnn_serve");
        let stdout = child.stdout.take().expect("child stdout");
        let mut reader = BufReader::new(stdout);
        let addr = loop {
            let mut line = String::new();
            let n = reader.read_line(&mut line).expect("read server stdout");
            if n == 0 {
                let status = child.wait().ok();
                eprintln!("[serve_load] FATAL: server exited before listening ({status:?})");
                std::process::exit(2);
            }
            print!("[server] {line}");
            if let Some(rest) = line.trim().strip_prefix("[serve] listening on ") {
                break rest.to_string();
            }
        };
        // Keep draining the child's stdout so it can never block on a
        // full pipe.
        std::thread::spawn(move || {
            for line in reader.lines().map_while(Result::ok) {
                println!("[server] {line}");
            }
        });
        Server { child, addr }
    }

    /// Requests the ctrl-channel shutdown (retrying — fault injection
    /// may eat the acknowledgment) and gates the child's exit 0.
    fn shutdown(mut self, failures: &mut Vec<String>) {
        let mut rng = Rng64(0xD00F);
        for _ in 0..10 {
            let _ = once(&self.addr, "POST", "/admin/shutdown", b"", &mut rng);
            let exited = poll(Duration::from_secs(3), Duration::from_millis(20), || {
                self.child.try_wait().ok().flatten()
            });
            match exited {
                Some(status) if status.success() => {
                    println!("[serve_load] server shut down cleanly (exit 0)");
                    return;
                }
                Some(status) => {
                    failures.push(format!("server exited with {status}"));
                    return;
                }
                None => {}
            }
        }
        failures.push("server did not exit after repeated shutdown requests".to_string());
        let _ = self.child.kill();
    }
}

/// Terminal outcome of one request after retries.
struct Outcome {
    index: usize,
    /// Final HTTP status; `None` = transport failure after all retries.
    status: Option<u16>,
    latency_us: u64,
    /// Parsed body of a `200`.
    response: Option<InferResponse>,
}

/// Everything a closed-loop run measured.
struct LoadReport {
    wall: Duration,
    outcomes: Vec<Outcome>,
    retries_429: u64,
    retries_transport: u64,
}

impl LoadReport {
    fn count_status(&self, status: u16) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status == Some(status))
            .count()
    }

    fn ok_count(&self) -> usize {
        self.count_status(200)
    }

    fn transport_errors(&self) -> usize {
        self.outcomes.iter().filter(|o| o.status.is_none()).count()
    }

    fn latencies_us(&self) -> Vec<u64> {
        self.outcomes
            .iter()
            .filter(|o| o.status.is_some())
            .map(|o| o.latency_us)
            .collect()
    }

    fn ok_latencies_us(&self) -> Vec<u64> {
        self.outcomes
            .iter()
            .filter(|o| o.status == Some(200))
            .map(|o| o.latency_us)
            .collect()
    }

    fn responses(&self) -> impl Iterator<Item = (usize, &InferResponse)> {
        self.outcomes
            .iter()
            .filter_map(|o| o.response.as_ref().map(|r| (o.index, r)))
    }

    fn degraded_count(&self) -> usize {
        self.responses().filter(|(_, r)| r.degraded).count()
    }

    /// Gate: every request answered `200`.
    fn gate_all_ok(&self, what: &str, failures: &mut Vec<String>) {
        if self.ok_count() != self.outcomes.len() {
            failures.push(format!(
                "{what}: only {}/{} requests answered 200",
                self.ok_count(),
                self.outcomes.len()
            ));
        }
    }

    /// Gate: no request ended in a transport failure.
    fn gate_no_transport_errors(&self, what: &str, failures: &mut Vec<String>) {
        if self.transport_errors() > 0 {
            failures.push(format!(
                "{what}: {} terminal transport failures",
                self.transport_errors()
            ));
        }
    }

    /// Gate: every `200` that `want` maps to a solo reference matches it
    /// bit for bit. Returns how many responses were checked.
    fn gate_bits<'r>(
        &self,
        what: &str,
        failures: &mut Vec<String>,
        want: impl Fn(usize) -> Option<&'r InferResponse>,
    ) -> usize {
        let mut checked = 0;
        for (i, r) in self.responses() {
            if let Some(want) = want(i) {
                checked += 1;
                if !r.same_bits(want) {
                    failures.push(format!(
                        "{what}: response {i} differs from its solo reference"
                    ));
                }
            }
        }
        checked
    }
}

/// `q`-quantile (by ceil rank) of an unsorted latency sample.
fn quantile_us(latencies: &[u64], q: f64) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil().max(1.0) as usize - 1).min(sorted.len() - 1);
    sorted[rank]
}

/// Runs the closed loop and prints its report under `label`:
/// `concurrency` workers, each with its own keep-alive connection and
/// seeded backoff stream, sending the next request as soon as the
/// previous one reaches a terminal outcome. `make_body` builds the JSON
/// body for request index `i`.
fn closed_loop(
    addr: &str,
    label: &str,
    requests: usize,
    concurrency: usize,
    seed: u64,
    make_body: impl Fn(usize) -> Vec<u8> + Sync,
) -> LoadReport {
    let next = AtomicU64::new(0);
    let sink: Mutex<Vec<Outcome>> = Mutex::new(Vec::with_capacity(requests));
    let stats = RetryStats::default();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..concurrency {
            let next = &next;
            let sink = &sink;
            let stats = &stats;
            let make_body = &make_body;
            scope.spawn(move || {
                let mut rng = Rng64(seed ^ (worker as u64).wrapping_mul(0xA076_1D64_78BD_642F));
                let mut slot: Option<Client> = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                    if i >= requests {
                        break;
                    }
                    let body = make_body(i);
                    let sent = Instant::now();
                    let terminal = request_with_retry(
                        &mut slot,
                        addr,
                        "POST",
                        "/v1/infer",
                        &body,
                        &mut rng,
                        stats,
                    );
                    let latency_us = sent.elapsed().as_micros() as u64;
                    let (status, response) = parse_answer(terminal);
                    sink.lock().expect("sink").push(Outcome {
                        index: i,
                        status,
                        latency_us,
                        response,
                    });
                }
            });
        }
    });
    let report = LoadReport {
        wall: started.elapsed(),
        outcomes: sink.into_inner().expect("sink"),
        retries_429: stats.on_429.load(Ordering::Relaxed),
        retries_transport: stats.on_transport.load(Ordering::Relaxed),
    };
    print_report(&report, label);
    report
}

/// Fetches `/metrics` (with retries) and returns the raw text.
fn fetch_metrics(addr: &str) -> Option<String> {
    match once(addr, "GET", "/metrics", b"", &mut Rng64(0xBEEF)) {
        Some((200, body)) => Some(String::from_utf8_lossy(&body).into_owned()),
        _ => None,
    }
}

/// `/metrics` text; when it cannot be fetched, a gate failure naming
/// the phase it followed.
fn metrics_or_fail(addr: &str, after: &str, failures: &mut Vec<String>) -> Option<String> {
    let text = fetch_metrics(addr);
    if text.is_none() {
        failures.push(format!("cannot fetch /metrics after {after}"));
    }
    text
}

/// Value of a plain `name value` counter line in the metrics text (a
/// labelled counter's `name` includes its `{label="…"}` set); 0 when no
/// line carries it.
fn metric_value(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| {
            let rest = line.strip_prefix(name)?;
            rest.trim().parse().ok()
        })
        .unwrap_or(0)
}

/// Parses `<name>{le="<edge>"} <count>` lines into ordered
/// `(upper_edge_us, count)` pairs. The server's histograms are
/// **per-bucket** (each line carries only its own slot's count, not a
/// cumulative tally); `+Inf` maps to `u64::MAX`.
fn histogram_buckets(text: &str, name: &str) -> Vec<(u64, u64)> {
    let prefix = format!("{name}{{le=\"");
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(&prefix)?;
            let (edge, rest) = rest.split_once("\"}")?;
            let edge = if edge == "+Inf" {
                u64::MAX
            } else {
                edge.parse().ok()?
            };
            Some((edge, rest.trim().parse().ok()?))
        })
        .collect()
}

/// Lower edge (µs) of the bucket holding the `q`-quantile sample of a
/// per-bucket histogram — i.e. the previous bucket's upper edge, 0 for
/// the first. Every sample in that bucket is ≥ this edge, so it is a
/// sound lower bound for any client-side measurement of the same
/// population.
fn histogram_quantile_lower_us(buckets: &[(u64, u64)], q: f64) -> u64 {
    let total: u64 = buckets.iter().map(|(_, c)| c).sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil().max(1.0)) as u64;
    let mut seen = 0u64;
    let mut lower = 0u64;
    for &(edge, count) in buckets {
        seen += count;
        if seen >= rank {
            return lower;
        }
        lower = edge;
    }
    lower
}

/// A solo reference response (batch of one), retried until it lands —
/// under fault injection a reference fetch may need several attempts,
/// but injection never changes response *bits*, so any clean `200` is
/// canonical.
fn solo_reference(addr: &str, model: &str, image: &[f32], early_exit: bool) -> InferResponse {
    let mut rng = Rng64(0x5010);
    let body = infer_body(model, image, early_exit, None, false);
    for _ in 0..20 {
        if let (_, Some(parsed)) = parse_answer(once(addr, "POST", "/v1/infer", &body, &mut rng)) {
            return parsed;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    eprintln!("[serve_load] FATAL: could not obtain a solo reference response");
    std::process::exit(2);
}

/// The verdict: `OK` when every gate held; otherwise each failure on
/// stderr and exit 1.
fn finish(mode: Mode, failures: &[String]) {
    let name = mode.name();
    if failures.is_empty() {
        println!("[serve_load] {name} OK — all gates passed");
        return;
    }
    for f in failures {
        eprintln!("[serve_load] {name} GATE FAILED: {f}");
    }
    std::process::exit(1);
}

/// Upserts the measured numbers as a `serve` target of the labeled
/// baseline snapshot (creating the label if absent).
fn record_baseline(label: &str, report: &LoadReport, requests: usize, concurrency: usize) {
    let path = results_dir().join("bench_baseline.json");
    let mut file: BaselineFile = std::fs::read(&path)
        .ok()
        .and_then(|bytes| serde_json::from_slice(&bytes).ok())
        .unwrap_or_else(|| {
            eprintln!("[serve_load] no readable baseline file; creating one");
            BaselineFile {
                machine: t2fsnn_bench::baseline::MachineInfo {
                    cores: std::thread::available_parallelism()
                        .map(|n| n.get() as u64)
                        .unwrap_or(1),
                    os: std::env::consts::OS.to_string(),
                    arch: std::env::consts::ARCH.to_string(),
                },
                pre: None,
                post: None,
                history: Vec::new(),
            }
        });
    let latencies = report.latencies_us();
    let (mean, min, max) = latency_stats_ns(&latencies);
    let samples = latencies.len() as u64;
    let mut records = vec![BenchRecord {
        group: "serve".into(),
        bench: format!("request_latency/c{concurrency}"),
        mean_ns: mean,
        min_ns: min,
        max_ns: max,
        samples,
    }];
    for (q, name) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
        let ns = quantile_us(&latencies, q) * 1000;
        records.push(BenchRecord {
            group: "serve".into(),
            bench: format!("request_latency_{name}/c{concurrency}"),
            mean_ns: ns,
            min_ns: ns,
            max_ns: ns,
            samples,
        });
    }
    let wall_per_request = (report.wall.as_nanos() / requests.max(1) as u128) as u64;
    records.push(BenchRecord {
        group: "serve".into(),
        bench: format!("wall_per_request/c{concurrency}"),
        mean_ns: wall_per_request,
        min_ns: wall_per_request,
        max_ns: wall_per_request,
        samples: requests as u64,
    });
    let target = TargetResult {
        target: "serve".into(),
        records,
    };
    let entry = match file.history.iter_mut().find(|s| s.label == label) {
        Some(entry) => entry,
        None => {
            file.history.push(LabeledSnapshot {
                label: label.to_string(),
                snapshot: Snapshot {
                    recorded_at_unix: std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .map(|d| d.as_secs())
                        .unwrap_or(0),
                    repro_fig6_seconds: 0.0,
                    repro_fig6_runs_seconds: Vec::new(),
                    targets: Vec::new(),
                },
            });
            file.history.last_mut().expect("just pushed")
        }
    };
    match entry
        .snapshot
        .targets
        .iter_mut()
        .find(|t| t.target == "serve")
    {
        Some(slot) => *slot = target,
        None => entry.snapshot.targets.push(target),
    }
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match serde_json::to_vec_pretty(&file) {
        Ok(bytes) => match std::fs::write(&path, bytes) {
            Ok(()) => println!(
                "[serve_load] recorded `serve` target under `{label}` in {}",
                path.display()
            ),
            Err(e) => eprintln!("[serve_load] cannot write {}: {e}", path.display()),
        },
        Err(e) => eprintln!("[serve_load] serialization failed: {e}"),
    }
}

fn latency_stats_ns(latencies_us: &[u64]) -> (u64, u64, u64) {
    if latencies_us.is_empty() {
        return (0, 0, 0);
    }
    let sum: u64 = latencies_us.iter().sum();
    let mean = sum / latencies_us.len() as u64;
    let min = *latencies_us.iter().min().expect("non-empty");
    let max = *latencies_us.iter().max().expect("non-empty");
    (mean * 1000, min * 1000, max * 1000)
}

fn print_report(report: &LoadReport, label: &str) {
    let ok = report.ok_count();
    let total = report.outcomes.len().max(1);
    let rps = ok as f64 / report.wall.as_secs_f64().max(1e-9);
    let latencies = report.latencies_us();
    let (mean_ns, min_ns, max_ns) = latency_stats_ns(&latencies);
    println!(
        "[serve_load] {label}: {} outcomes in {:.2}s — {:.1} ok/s, 2xx {:.1}%, 504 {}, \
         {} transport failures, retries {} (429) + {} (transport)",
        report.outcomes.len(),
        report.wall.as_secs_f64(),
        rps,
        ok as f64 / total as f64 * 100.0,
        report.count_status(504),
        report.transport_errors(),
        report.retries_429,
        report.retries_transport,
    );
    println!(
        "[serve_load] {label} latency µs: mean {} min {} max {} p50 {} p95 {} p99 {}",
        mean_ns / 1000,
        min_ns / 1000,
        max_ns / 1000,
        quantile_us(&latencies, 0.5),
        quantile_us(&latencies, 0.95),
        quantile_us(&latencies, 0.99),
    );
}

fn scenario_of(model: &str) -> Scenario {
    match model {
        "tiny" => Scenario::Tiny,
        "mnist-like" => Scenario::MnistLike,
        "cifar10-like" => Scenario::Cifar10Like,
        "cifar100-like" => Scenario::Cifar100Like,
        other => {
            eprintln!("[serve_load] unknown model `{other}`");
            std::process::exit(2);
        }
    }
}

/// Builds the deterministic per-model request images from the scenario
/// dataset (synthesis only — no training on the client side).
fn scenario_images(model: &str) -> Vec<Vec<f32>> {
    let data = scenario_of(model).dataset();
    let feature: usize = data.images.dims()[1..].iter().product();
    (0..data.len().min(32))
        .map(|i| data.images.data()[i * feature..(i + 1) * feature].to_vec())
        .collect()
}

/// The `--smoke` flow, or plain driving of the server at `--addr`
/// (which spawns nothing and returns no verdict).
fn smoke_or_plain(args: &Args, images: &[Vec<f32>], failures: &mut Vec<String>) {
    let server = (args.mode == Mode::Smoke).then(|| Server::spawn(&args.model, &[]));
    let addr = match &server {
        Some(server) => server.addr.as_str(),
        None => args.addr.as_deref().expect("plain mode requires --addr"),
    };

    // Solo reference before any load: a batch of exactly one.
    let solo = solo_reference(addr, &args.model, &images[0], args.early_exit);
    println!(
        "[serve_load] solo reference: label {}, steps {}, decision {:?}, batch {}",
        solo.label, solo.steps, solo.decision_step, solo.batch_size
    );
    if solo.batch_size != 1 {
        failures.push(format!(
            "solo reference ran in a batch of {}",
            solo.batch_size
        ));
    }

    println!(
        "[serve_load] closed loop: {} requests, concurrency {}, model `{}`, early_exit {}",
        args.requests, args.concurrency, args.model, args.early_exit
    );
    let report = closed_loop(
        addr,
        "load",
        args.requests,
        args.concurrency,
        args.seed,
        |i| {
            let image = &images[i % images.len()];
            infer_body(&args.model, image, args.early_exit, args.deadline_ms, false)
        },
    );

    let ok_ratio = report.ok_count() as f64 / report.outcomes.len().max(1) as f64;
    let max_batch_seen = report
        .responses()
        .map(|(_, r)| r.batch_size)
        .max()
        .unwrap_or(0);
    let batched = report.responses().filter(|(_, r)| r.batch_size > 1).count();
    println!(
        "[serve_load] batches: {batched}/{} responses ran in batches > 1 (max observed {max_batch_seen})",
        report.responses().count()
    );

    // Correctness gates (the verdict is given only in --smoke):
    if ok_ratio < 0.99 {
        failures.push(format!("2xx ratio {ok_ratio:.3} < 0.99"));
    }
    report.gate_no_transport_errors("load", failures);
    if max_batch_seen <= 1 {
        failures.push("no micro-batch beyond size 1 formed".to_string());
    }
    // Bit identity: request `i` carried `images[i % len]`, so every
    // response whose index is a multiple of `images.len()` repeated the
    // solo reference image under concurrent load — and must match it
    // byte for byte.
    let dup_checked = report.gate_bits("load", failures, |i| {
        (i % images.len() == 0).then_some(&solo)
    });
    if dup_checked == 0 {
        failures.push("load run never repeated the reference image".to_string());
    }
    println!("[serve_load] bit-identity: {dup_checked} duplicate-image responses matched solo");

    if let Some(label) = &args.record_label {
        record_baseline(label, &report, args.requests, args.concurrency);
    }

    // Metrics snapshot + the latency cross-check: the server's own
    // `latency_us` histogram observed the very 200s this client just
    // timed (plus the one solo reference). Client wall latency includes
    // transport on top of the server's admission-to-answer interval, so
    // each client quantile must be at least the *lower edge* of the
    // histogram bucket holding the server-side quantile — a sound,
    // machine-speed-independent bound tying the client's reported
    // p50/p95/p99 to the serving-path instrumentation.
    if let Some(text) = metrics_or_fail(addr, "load", failures) {
        for line in text.lines().filter(|l| {
            l.starts_with("t2fsnn_serve_batch_size_total")
                || l.starts_with("t2fsnn_serve_latency_us{")
                || l.starts_with("t2fsnn_serve_responses_total")
                || l.starts_with("t2fsnn_serve_queue")
                || l.starts_with("t2fsnn_serve_early_exit")
                || l.starts_with("t2fsnn_serve_deadline")
                || l.starts_with("t2fsnn_serve_forced_early_exit")
                || l.starts_with("t2fsnn_serve_worker_panics")
        }) {
            println!("[metrics] {line}");
        }
        let buckets = histogram_buckets(&text, "t2fsnn_serve_latency_us_bucket");
        let observed: u64 = buckets.iter().map(|(_, c)| c).sum();
        if observed < report.ok_count() as u64 {
            failures.push(format!(
                "latency histogram observed only {observed} requests, client saw {} 200s",
                report.ok_count()
            ));
        }
        let ok_latencies = report.ok_latencies_us();
        for (q, name) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
            let client = quantile_us(&ok_latencies, q);
            let server_lower = histogram_quantile_lower_us(&buckets, q);
            println!(
                "[serve_load] {name} cross-check: client wall {client} µs vs server \
                 histogram bucket lower edge {server_lower} µs"
            );
            if client < server_lower {
                failures.push(format!(
                    "client {name} {client} µs below the server histogram's {name} \
                     bucket lower edge {server_lower} µs"
                ));
            }
        }
    }

    if let Some(server) = server {
        server.shutdown(failures);
    }
}

/// Traffic class of chaos-mode request `i` (deterministic by index):
/// 70 % valid, 15 % malformed (short image → `400`), 15 % doomed
/// (`deadline_ms: 0` → deterministic `504` shed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChaosKind {
    Valid,
    Malformed,
    Doomed,
}

fn chaos_kind(i: usize) -> ChaosKind {
    match i % 20 {
        0..=13 => ChaosKind::Valid,
        14..=16 => ChaosKind::Malformed,
        _ => ChaosKind::Doomed,
    }
}

/// The `--chaos` flow: fixed-seed fault injection + invariant gates.
fn chaos_run(args: &Args, images: &[Vec<f32>], failures: &mut Vec<String>) {
    let fault_spec = std::env::var("T2FSNN_SERVE_FAULTS")
        .ok()
        .filter(|v| !v.trim().is_empty())
        .unwrap_or_else(|| CHAOS_FAULT_SPEC.to_string());
    println!("[serve_load] chaos fault spec: {fault_spec}");
    let server = Server::spawn(&args.model, &[("T2FSNN_SERVE_FAULTS", fault_spec)]);
    let addr = &server.addr;

    // Clean reference bits (fault injection never alters bits, so any
    // successful response is canonical).
    let solo = solo_reference(addr, &args.model, &images[0], true);
    println!(
        "[serve_load] chaos solo reference: label {}, steps {}, decision {:?}",
        solo.label, solo.steps, solo.decision_step
    );

    let requests = args.requests.max(160);
    let concurrency = args.concurrency.max(6);
    println!(
        "[serve_load] chaos closed loop: {requests} requests ({} valid / {} malformed / {} doomed), \
         concurrency {concurrency}",
        (0..requests).filter(|&i| chaos_kind(i) == ChaosKind::Valid).count(),
        (0..requests).filter(|&i| chaos_kind(i) == ChaosKind::Malformed).count(),
        (0..requests).filter(|&i| chaos_kind(i) == ChaosKind::Doomed).count(),
    );
    let report = closed_loop(addr, "chaos", requests, concurrency, args.seed, |i| {
        let image = &images[i % images.len()];
        match chaos_kind(i) {
            ChaosKind::Valid => infer_body(&args.model, image, true, None, false),
            ChaosKind::Malformed => infer_body(&args.model, &[0.0; 7], true, None, false),
            ChaosKind::Doomed => infer_body(&args.model, image, true, Some(0), false),
        }
    });

    // Invariant: the loop finished and every request reached a terminal
    // outcome (the closed loop returning at all is the no-wedge gate;
    // completeness catches lost replies).
    if report.outcomes.len() != requests {
        failures.push(format!(
            "only {}/{requests} requests reached a terminal outcome",
            report.outcomes.len()
        ));
    }

    // Invariant: per-class terminal outcomes. Transport failures are
    // legal everywhere (aborted reads / dropped responses land on
    // arbitrary requests); what matters is that an HTTP answer, when
    // given, is the *right* answer.
    let mut valid_total = 0usize;
    let mut valid_ok = 0usize;
    for outcome in &report.outcomes {
        let kind = chaos_kind(outcome.index);
        let Some(status) = outcome.status else {
            continue;
        };
        match kind {
            ChaosKind::Valid => {
                valid_total += 1;
                match status {
                    200 => valid_ok += 1,
                    // 500 = a batch the injector panicked; 429 = queue
                    // pressure that outlived the bounded retries.
                    500 | 429 => {}
                    other => {
                        failures.push(format!("valid request {} answered {other}", outcome.index));
                    }
                }
            }
            ChaosKind::Malformed => {
                if status != 400 {
                    failures.push(format!(
                        "malformed request {} answered {status} (want 400)",
                        outcome.index
                    ));
                }
            }
            ChaosKind::Doomed => {
                if status != 504 {
                    failures.push(format!(
                        "doomed request {} answered {status} (want 504)",
                        outcome.index
                    ));
                }
            }
        }
    }
    // Invariant: bounded error rate — most valid traffic still succeeds
    // under the configured fault rates.
    if valid_total > 0 && (valid_ok as f64) < 0.5 * valid_total as f64 {
        failures.push(format!(
            "only {valid_ok}/{valid_total} valid requests succeeded (< 50%)"
        ));
    }
    // Invariant: bit-identity of successful responses under chaos.
    let bits_checked = report.gate_bits("chaos", failures, |i| {
        (chaos_kind(i) == ChaosKind::Valid && i % images.len() == 0).then_some(&solo)
    });
    if bits_checked == 0 {
        failures.push("no reference-image response survived to bit-check".to_string());
    }
    println!("[serve_load] chaos bit-identity: {bits_checked} responses matched solo");

    // Invariant: the server is still ready under fire.
    match fetch_health(addr) {
        Some(health) if health.status == "ok" => {}
        other => failures.push(format!("healthz not ok after chaos: {other:?}")),
    }

    // Invariant: faults actually fired, panics were isolated (the
    // in-loop catch handled them; the supervisor backstop stayed idle).
    if let Some(text) = metrics_or_fail(addr, "chaos", failures) {
        let injected = metric_value(&text, "t2fsnn_serve_faults_injected_total");
        let panics = metric_value(&text, "t2fsnn_serve_worker_panics_total");
        let respawns = metric_value(&text, "t2fsnn_serve_batcher_respawns_total");
        let shed = metric_value(&text, "t2fsnn_serve_deadline_shed_total");
        println!(
            "[serve_load] chaos metrics: {injected} faults injected, {panics} batch panics, \
             {respawns} batcher respawns, {shed} deadline sheds"
        );
        if injected == 0 {
            failures.push("no fault was injected".to_string());
        }
        if panics == 0 {
            failures.push("no batch panic observed (panic rate too low?)".to_string());
        }
        if respawns != 0 {
            failures.push(format!(
                "batcher needed {respawns} respawns — a panic escaped catch_unwind"
            ));
        }
        if shed == 0 {
            failures.push("no deadline shed recorded despite doomed traffic".to_string());
        }
    }

    // Invariant: clean shutdown even with injection active.
    server.shutdown(failures);
}

/// What `--overload` writes to `results/serve_overload.json`.
#[derive(Serialize)]
struct OverloadRecord {
    recorded_at_unix: u64,
    model: String,
    deadline_ms: u64,
    capacity_concurrency: usize,
    capacity_rps: f64,
    overload_concurrency: usize,
    overload_requests: usize,
    offered_rps: f64,
    offered_over_capacity: f64,
    answered_200: usize,
    shed_504: usize,
    other_statuses: usize,
    transport_failures: usize,
    degraded_answers: usize,
    degraded_fraction_of_answered: f64,
    shed_fraction_of_offered: f64,
    p50_us_answered_wall: u64,
    p99_us_answered_wall: u64,
    p50_us_answered_server: u64,
    p99_us_answered_server: u64,
    metrics_deadline_shed_total: u64,
    metrics_unmeetable_shed_total: u64,
    metrics_forced_early_exit_total: u64,
    metrics_deadline_late_answers_total: u64,
}

/// The `--overload` flow: measure full-window capacity, then offer ≥2×
/// with deadlines and let the ladder degrade instead of collapse.
fn overload_run(args: &Args, images: &[Vec<f32>], failures: &mut Vec<String>) {
    let deadline_ms = args.deadline_ms.unwrap_or(15);
    // The loop is closed, so offered load can only exceed service
    // capacity through shedding: expired slots recycle in ~deadline
    // time. Concurrency must be high enough that slot-recycling rate
    // (c / deadline) clears 2× the full-window capacity.
    let overload_concurrency = args.concurrency.max(96);
    let overload_requests = args.requests.max(1500);
    // Workers sized to the client concurrency so the overload pressure
    // lands on the admission queue and batcher (the ladder), not on the
    // accept loop's connection backpressure.
    let server = Server::spawn(
        &args.model,
        &[
            ("T2FSNN_SERVE_WORKERS", overload_concurrency.to_string()),
            ("T2FSNN_SERVE_QUEUE", "512".to_string()),
        ],
    );
    let addr = &server.addr;
    let drive = |label: &str, requests, concurrency, early_exit, deadline_ms| {
        closed_loop(addr, label, requests, concurrency, args.seed, |i| {
            infer_body(
                &args.model,
                &images[i % images.len()],
                early_exit,
                deadline_ms,
                false,
            )
        })
    };

    // Warm-up + reference.
    let solo = solo_reference(addr, &args.model, &images[0], false);
    println!(
        "[serve_load] overload solo (full window): label {}, steps {}",
        solo.label, solo.steps
    );

    // Phase A: sustainable full-window capacity, no deadlines.
    let capacity_concurrency = 8;
    println!("[serve_load] phase A: full-window capacity at c{capacity_concurrency}");
    let capacity = drive("capacity", 200, capacity_concurrency, false, None);
    let capacity_rps = capacity.ok_count() as f64 / capacity.wall.as_secs_f64().max(1e-9);

    // Warm the ladder's anytime estimator: rung 3 (unmeetable shed) is
    // disabled until the batcher has seen an early-exit batch, so a
    // cold phase B would answer its first deadline-pressed batch late.
    println!("[serve_load] warm-up: anytime estimator (100 early-exit requests)");
    drive("warm-up", 100, capacity_concurrency, true, None);

    // Phase B: overload with deadlines; full-window requested, so every
    // degraded answer is the ladder's doing.
    println!(
        "[serve_load] phase B: overload at c{overload_concurrency}, deadline {deadline_ms} ms, \
         {overload_requests} requests"
    );
    let overload = drive(
        "overload",
        overload_requests,
        overload_concurrency,
        false,
        Some(deadline_ms),
    );

    let answered = overload.ok_count();
    let shed = overload.count_status(504);
    let degraded = overload.degraded_count();
    let ok_latencies = overload.ok_latencies_us();
    let p50_answered = quantile_us(&ok_latencies, 0.5);
    let p99_answered = quantile_us(&ok_latencies, 0.99);
    // The deadline contract is admission-to-answer (the server's clock
    // starts when the request is parsed); the response's own
    // `queue_us + infer_us` is that interval. Client-side wall latency
    // additionally counts transport and the load generator's own thread
    // scheduling, which is not what the deadline bounds — both are
    // reported, the gate applies to the server-side interval.
    let server_latencies: Vec<u64> = overload
        .responses()
        .map(|(_, r)| r.queue_us + r.infer_us)
        .collect();
    let p50_server = quantile_us(&server_latencies, 0.5);
    let p99_server = quantile_us(&server_latencies, 0.99);
    let offered_rps = overload.outcomes.len() as f64 / overload.wall.as_secs_f64().max(1e-9);
    let ratio = offered_rps / capacity_rps.max(1e-9);
    println!(
        "[serve_load] overload: offered {offered_rps:.1} req/s = {ratio:.2}× capacity \
         ({capacity_rps:.1}), answered {answered} (degraded {degraded}), shed {shed}, \
         admission-to-answer p50/p99 {p50_server}/{p99_server} µs (client-side wall \
         {p50_answered}/{p99_answered} µs) vs deadline {} µs",
        deadline_ms * 1000
    );

    let text = metrics_or_fail(addr, "overload", failures).unwrap_or_default();
    let m_shed = metric_value(&text, "t2fsnn_serve_deadline_shed_total");
    let m_unmeetable = metric_value(&text, "t2fsnn_serve_unmeetable_shed_total");
    let m_forced = metric_value(&text, "t2fsnn_serve_forced_early_exit_total");
    let m_late = metric_value(&text, "t2fsnn_serve_deadline_late_answers_total");
    println!(
        "[serve_load] overload metrics: {m_shed} sheds ({m_unmeetable} unmeetable), \
         {m_forced} forced early-exits, {m_late} late answers"
    );
    for line in text
        .lines()
        .filter(|l| l.starts_with("t2fsnn_serve_dispatch_slack_us_bucket"))
    {
        println!("[metrics] {line}");
    }

    // Gates.
    if ratio < 2.0 {
        failures.push(format!(
            "offered load only {ratio:.2}× capacity (need ≥ 2×)"
        ));
    }
    if answered == 0 {
        failures.push("no request was answered under overload".to_string());
    }
    if p99_server > deadline_ms * 1000 {
        failures.push(format!(
            "admission-to-answer p99 {p99_server} µs exceeds deadline {} µs",
            deadline_ms * 1000
        ));
    }
    if m_forced == 0 {
        failures.push("ladder never forced an early-exit (overload too mild?)".to_string());
    }
    overload.gate_no_transport_errors("overload", failures);

    let record = OverloadRecord {
        recorded_at_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        model: args.model.clone(),
        deadline_ms,
        capacity_concurrency,
        capacity_rps,
        overload_concurrency,
        overload_requests,
        offered_rps,
        offered_over_capacity: ratio,
        answered_200: answered,
        shed_504: shed,
        other_statuses: overload.outcomes.len() - answered - shed - overload.transport_errors(),
        transport_failures: overload.transport_errors(),
        degraded_answers: degraded,
        degraded_fraction_of_answered: degraded as f64 / answered.max(1) as f64,
        shed_fraction_of_offered: shed as f64 / overload.outcomes.len().max(1) as f64,
        p50_us_answered_wall: p50_answered,
        p99_us_answered_wall: p99_answered,
        p50_us_answered_server: p50_server,
        p99_us_answered_server: p99_server,
        metrics_deadline_shed_total: m_shed,
        metrics_unmeetable_shed_total: m_unmeetable,
        metrics_forced_early_exit_total: m_forced,
        metrics_deadline_late_answers_total: m_late,
    };
    let path = results_dir().join("serve_overload.json");
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match serde_json::to_vec_pretty(&record) {
        Ok(bytes) => match std::fs::write(&path, bytes) {
            Ok(()) => println!("[serve_load] overload demo recorded in {}", path.display()),
            Err(e) => failures.push(format!("cannot write {}: {e}", path.display())),
        },
        Err(e) => failures.push(format!("overload record serialization failed: {e}")),
    }

    server.shutdown(failures);
}

/// The `--perturb` flow: severity sweep through the serving path with
/// determinism and degradation gates at every point.
fn perturb_run(args: &Args, images: &[Vec<f32>], base: PerturbSpec, failures: &mut Vec<String>) {
    let dims = {
        let data = scenario_of(&args.model).dataset();
        let d = data.images.dims().to_vec();
        [d[1], d[2], d[3]]
    };
    let probe = images.len().min(8);

    // Clean-server baseline: solo early-exit references for the probe
    // images — the bits severity 0 must reproduce exactly.
    println!("[serve_load] perturb baseline: clean server, {probe} solo references");
    let clean_refs: Vec<InferResponse> = {
        let server = Server::spawn(&args.model, &[]);
        let refs = images[..probe]
            .iter()
            .map(|image| solo_reference(&server.addr, &args.model, image, true))
            .collect();
        server.shutdown(failures);
        refs
    };

    for severity in [0.0f32, 0.5, 1.0] {
        let what = format!("severity {severity}");
        let spec = base.scaled(severity);
        let rendered = spec.render();
        println!("[serve_load] perturb {what}: spec `{rendered}`");
        let server = Server::spawn(&args.model, &[("T2FSNN_SERVE_PERTURB", rendered)]);
        let addr = &server.addr;

        // The input families are the client's half of the split: the
        // request images carry them, the server carries event + weight.
        let view: Vec<Vec<f32>> = images[..probe]
            .iter()
            .map(|image| {
                let mut data = image.clone();
                spec.perturb_image(dims, &mut data);
                data
            })
            .collect();

        let solo: Vec<InferResponse> = view
            .iter()
            .map(|image| solo_reference(addr, &args.model, image, true))
            .collect();
        if severity == 0.0 {
            let mismatches = solo
                .iter()
                .zip(&clean_refs)
                .filter(|(s, r)| !s.same_bits(r))
                .count();
            if mismatches > 0 {
                failures.push(format!(
                    "severity 0: {mismatches}/{probe} responses differ from the clean baseline"
                ));
            } else {
                println!(
                    "[serve_load] severity-0 gate: {probe} responses bit-identical to clean \
                     baseline"
                );
            }
        }

        // Concurrent batched load over the same images: every answer
        // must reproduce its solo bits (batch/concurrency invariance of
        // the perturbed path).
        let requests = args.requests.clamp(24, 64);
        let label = format!("perturb s={severity}");
        let report = closed_loop(
            addr,
            &label,
            requests,
            args.concurrency.max(4),
            args.seed,
            |i| infer_body(&args.model, &view[i % view.len()], true, None, false),
        );
        report.gate_all_ok(&what, failures);
        let checked = report.gate_bits(&what, failures, |i| Some(&solo[i % view.len()]));
        println!("[serve_load] {what}: {checked} batched responses matched solo");

        // A perturbed server is a *healthy* server: degradation is for
        // broken artifacts, not requested perturbations.
        match fetch_health(addr) {
            Some(health) if health.status == "ok" => {}
            other => failures.push(format!("{what}: healthz not ok ({other:?})")),
        }

        // Perturbation-footprint metrics must match the spec.
        if let Some(text) = metrics_or_fail(addr, &what, failures) {
            let models = metric_value(&text, "t2fsnn_serve_perturbed_models_total");
            let rows = metric_value(&text, "t2fsnn_serve_perturbed_weight_rows_total");
            println!(
                "[serve_load] {what}: {models} perturbed models, {rows} perturbed weight rows"
            );
            let want_models = u64::from(!spec.is_identity());
            if models != want_models {
                failures.push(format!(
                    "{what}: perturbed_models_total {models} (want {want_models})"
                ));
            }
            if spec.weight_gauss > 0.0 && rows == 0 {
                failures.push(format!(
                    "{what}: wgauss > 0 but no weight row was rewritten"
                ));
            }
            if spec.is_identity() && rows != 0 {
                failures.push(format!("{what}: identity spec rewrote {rows} weight rows"));
            }
        }

        server.shutdown(failures);
    }
}

/// Client-side mirror of one `/healthz` model entry (the lifecycle
/// fields the churn gates read).
#[derive(Debug, Clone, Deserialize)]
struct HealthModelView {
    name: String,
    available: bool,
    state: String,
    version: u64,
}

/// Client-side mirror of the `/healthz` report.
#[derive(Debug, Clone, Deserialize)]
struct HealthView {
    status: String,
    models: Vec<HealthModelView>,
}

/// Fetches and parses `/healthz` (any status — a degraded report still
/// carries the per-model states).
fn fetch_health(addr: &str) -> Option<HealthView> {
    let (_, body) = once(addr, "GET", "/healthz", b"", &mut Rng64(0x4EA2))?;
    serde_json::from_slice(&body).ok()
}

/// One model's current `/healthz` entry, if the slot exists yet.
fn model_state(addr: &str, name: &str) -> Option<HealthModelView> {
    fetch_health(addr)?
        .models
        .into_iter()
        .find(|m| m.name == name)
}

/// Polls `/healthz` (50 ms cadence) until `name`'s entry satisfies
/// `pred` or the timeout expires.
fn wait_for_model(
    addr: &str,
    name: &str,
    timeout: Duration,
    pred: impl Fn(&HealthModelView) -> bool,
) -> Option<HealthModelView> {
    poll(timeout, Duration::from_millis(50), || {
        model_state(addr, name).filter(|m| pred(m))
    })
}

/// Polls a `/metrics` counter until `pred(value)` holds (a missing line
/// reads as 0) or the timeout expires; returns the satisfying value.
fn wait_for_metric(
    addr: &str,
    name: &str,
    timeout: Duration,
    pred: impl Fn(u64) -> bool,
) -> Option<u64> {
    poll(timeout, Duration::from_millis(25), || {
        Some(fetch_metrics(addr).map_or(0, |text| metric_value(&text, name))).filter(|&v| pred(v))
    })
}

/// Calls `probe` every `every` until it yields a value or `timeout`
/// expires.
fn poll<T>(timeout: Duration, every: Duration, mut probe: impl FnMut() -> Option<T>) -> Option<T> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(value) = probe() {
            return Some(value);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(every);
    }
}

/// `POST /admin/models/<name>/<action>` with retries; gates that it is
/// acknowledged with `want` and returns whether it was.
fn admin_model(
    addr: &str,
    name: &str,
    action: &str,
    want: u16,
    failures: &mut Vec<String>,
) -> bool {
    let path = format!("/admin/models/{name}/{action}");
    let got = once(addr, "POST", &path, b"", &mut Rng64(0xAD31));
    let acknowledged = matches!(&got, Some((status, _)) if *status == want);
    if !acknowledged {
        failures.push(format!(
            "{action} of {name} not acknowledged {want}: {got:?}"
        ));
    }
    acknowledged
}

/// Sequential single-connection traffic against one model until `stop`
/// is raised; every terminal outcome is recorded in order.
fn drive_model_until(
    addr: &str,
    model: &str,
    image: &[f32],
    stop: &std::sync::atomic::AtomicBool,
    seed: u64,
) -> Vec<Answer> {
    let stats = RetryStats::default();
    let mut rng = Rng64(seed);
    let mut slot = None;
    let body = infer_body(model, image, true, None, false);
    let mut out = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let terminal = request_with_retry(
            &mut slot,
            addr,
            "POST",
            "/v1/infer",
            &body,
            &mut rng,
            &stats,
        );
        out.push(parse_answer(terminal));
    }
    out
}

/// One sequential early-exit inference request on a fresh connection.
fn one_infer(addr: &str, model: &str, image: &[f32], seed: u64) -> Answer {
    let body = infer_body(model, image, true, None, false);
    parse_answer(once(addr, "POST", "/v1/infer", &body, &mut Rng64(seed)))
}

/// Churn phase 1: clean lifecycle — runtime load of a second model,
/// mixed traffic, reload / unload / re-load under traffic. Returns the
/// tiny solo reference (reused by the fault phases: conversion is
/// deterministic, so the bits hold across server processes).
fn churn_phase_lifecycle(
    failures: &mut Vec<String>,
    tiny_images: &[Vec<f32>],
    mnist_images: &[Vec<f32>],
) -> Option<InferResponse> {
    println!("[serve_load] churn phase 1: clean lifecycle (load / reload / unload under traffic)");
    let server = Server::spawn("tiny", &[]);
    let addr = &server.addr;

    let tiny_ref = solo_reference(addr, "tiny", &tiny_images[0], true);
    if tiny_ref.version != 1 {
        failures.push(format!("boot tiny serves v{} (want v1)", tiny_ref.version));
    }

    // Runtime load of a model the server was not booted with: 202, the
    // loader thread converts + canaries it, then /healthz flips ready.
    admin_model(addr, "mnist-like", "load", 202, failures);
    let Some(loaded) = wait_for_model(addr, "mnist-like", Duration::from_secs(300), |m| {
        m.state == "ready"
    }) else {
        failures.push("mnist-like never became ready after load".to_string());
        server.shutdown(failures);
        return None;
    };
    println!("[serve_load] mnist-like promoted at v{}", loaded.version);
    if loaded.version != 1 {
        failures.push(format!(
            "first mnist-like load is v{} (want v1)",
            loaded.version
        ));
    }
    let mnist_ref = solo_reference(addr, "mnist-like", &mnist_images[0], true);

    // Mixed traffic across both models at two concurrencies: every
    // answer bit-identical to its model's solo reference and pinned to
    // the expected version.
    for &concurrency in &[2usize, 8] {
        let what = format!("c{concurrency}");
        let label = format!("churn mixed {what}");
        let report = closed_loop(addr, &label, 80, concurrency, 42, |i| {
            if i % 2 == 0 {
                infer_body("tiny", &tiny_images[0], true, None, false)
            } else {
                infer_body("mnist-like", &mnist_images[0], true, None, false)
            }
        });
        report.gate_no_transport_errors(&what, failures);
        report.gate_all_ok(&what, failures);
        for (i, r) in report.responses() {
            let want = if r.model == "tiny" {
                &tiny_ref
            } else {
                &mnist_ref
            };
            if !r.same_bits(want) || r.version != 1 {
                failures.push(format!(
                    "{what}: response {i} (model {}, v{}) differs from its solo reference",
                    r.model, r.version
                ));
            }
        }
    }

    // Reload under traffic: v1 answers until the atomic swap, v2 after,
    // both bit-identical (deterministic conversion), tiny untouched.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let (tiny_out, mnist_out, promoted) = std::thread::scope(|scope| {
        let tiny_t = scope.spawn(|| drive_model_until(addr, "tiny", &tiny_images[0], &stop, 7));
        let mnist_t =
            scope.spawn(|| drive_model_until(addr, "mnist-like", &mnist_images[0], &stop, 8));
        std::thread::sleep(Duration::from_millis(100));
        let promoted = admin_model(addr, "mnist-like", "reload", 202, failures)
            .then(|| {
                wait_for_model(addr, "mnist-like", Duration::from_secs(120), |m| {
                    m.state == "ready" && m.version >= 2
                })
            })
            .flatten();
        // Keep traffic flowing briefly on the new version.
        std::thread::sleep(Duration::from_millis(200));
        stop.store(true, Ordering::Relaxed);
        (
            tiny_t.join().expect("tiny traffic"),
            mnist_t.join().expect("mnist traffic"),
            promoted,
        )
    });
    match promoted {
        Some(m) => println!("[serve_load] reload promoted mnist-like to v{}", m.version),
        None => failures.push("reload of mnist-like was not promoted to v2".to_string()),
    }
    for (status, r) in &tiny_out {
        match (status, r) {
            (Some(200), Some(r)) if r.same_bits(&tiny_ref) && r.version == 1 => {}
            other => failures.push(format!("tiny answer under reload broke: {other:?}")),
        }
    }
    let versions: Vec<u64> = mnist_out
        .iter()
        .filter_map(|(_, r)| r.as_ref())
        .map(|r| r.version)
        .collect();
    if !versions.contains(&1) || !versions.contains(&2) {
        failures.push(format!(
            "reload window saw versions {versions:?} (want both v1 and v2 answers)"
        ));
    }
    for (i, (status, r)) in mnist_out.iter().enumerate() {
        match (status, r) {
            (Some(200), Some(r)) if r.same_bits(&mnist_ref) && (1..=2).contains(&r.version) => {}
            other => failures.push(format!("mnist answer {i} under reload broke: {other:?}")),
        }
    }
    println!(
        "[serve_load] reload window: {} tiny + {} mnist answers, versions pinned",
        tiny_out.len(),
        mnist_out.len()
    );

    // Unload under traffic: a sequential client sees a monotone cutover
    // from bit-exact 200s to terminal 503s (evicted or rejected at
    // admission), and never a reordered or dropped answer.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let mnist_out = std::thread::scope(|scope| {
        let mnist_t =
            scope.spawn(|| drive_model_until(addr, "mnist-like", &mnist_images[0], &stop, 9));
        std::thread::sleep(Duration::from_millis(100));
        admin_model(addr, "mnist-like", "unload", 200, failures);
        std::thread::sleep(Duration::from_millis(150));
        stop.store(true, Ordering::Relaxed);
        mnist_t.join().expect("mnist traffic")
    });
    let mut seen_503 = false;
    let mut ok_during_unload = 0usize;
    for (i, (status, r)) in mnist_out.iter().enumerate() {
        match (status, r) {
            (Some(200), Some(r)) if r.same_bits(&mnist_ref) && r.version == 2 => {
                ok_during_unload += 1;
                if seen_503 {
                    failures.push(format!("answer {i}: 200 after the unload cutover"));
                }
            }
            (Some(503), _) => seen_503 = true,
            other => failures.push(format!("mnist answer {i} under unload broke: {other:?}")),
        }
    }
    if !seen_503 {
        failures.push("unload under traffic never produced a 503".to_string());
    }
    println!(
        "[serve_load] unload window: {ok_during_unload} bit-exact 200s, then 503s \
         (monotone cutover)"
    );
    // The surviving model is untouched by its neighbor's unload.
    let tiny_again = solo_reference(addr, "tiny", &tiny_images[0], true);
    if !tiny_again.same_bits(&tiny_ref) || tiny_again.version != 1 {
        failures.push("tiny bits changed across the mnist-like unload".to_string());
    }
    match fetch_health(addr) {
        Some(h) => {
            let m = h.models.iter().find(|m| m.name == "mnist-like");
            if h.status != "degraded"
                || !matches!(m, Some(m) if m.state == "unloaded" && !m.available)
            {
                failures.push(format!(
                    "healthz after unload: status {} / {m:?} (want degraded + unloaded)",
                    h.status
                ));
            }
        }
        None => failures.push("cannot fetch /healthz after unload".to_string()),
    }

    // Load again: a fresh version (the unload cleared the recorded
    // digest), same bits.
    admin_model(addr, "mnist-like", "load", 202, failures);
    match wait_for_model(addr, "mnist-like", Duration::from_secs(120), |m| {
        m.state == "ready" && m.version >= 3
    }) {
        Some(m) => println!("[serve_load] re-load promoted mnist-like at v{}", m.version),
        None => failures.push("mnist-like never became ready after re-load".to_string()),
    }
    let reloaded = solo_reference(addr, "mnist-like", &mnist_images[0], true);
    if !reloaded.same_bits(&mnist_ref) {
        failures.push("re-loaded mnist-like bits differ from v1".to_string());
    }
    match fetch_health(addr) {
        Some(h) if h.status == "ok" => {}
        other => failures.push(format!("healthz not ok after re-load: {other:?}")),
    }

    // Lifecycle counters: three promotions (load, reload, re-load), one
    // unload, and a clean run has neither canary rejections nor trips.
    if let Some(text) = metrics_or_fail(addr, "phase 1", failures) {
        let loads = metric_value(&text, "t2fsnn_serve_model_loads_total");
        let unloads = metric_value(&text, "t2fsnn_serve_model_unloads_total");
        let rejections = metric_value(&text, "t2fsnn_serve_canary_rejections_total");
        let trips = metric_value(&text, "t2fsnn_serve_quarantine_trips_total");
        println!(
            "[serve_load] phase 1 metrics: {loads} loads, {unloads} unloads, \
             {rejections} canary rejections, {trips} quarantine trips"
        );
        if loads != 3 || unloads != 1 || rejections != 0 || trips != 0 {
            failures.push(format!(
                "phase 1 counters off: loads {loads} (want 3), unloads {unloads} (want 1), \
                 rejections {rejections} (want 0), trips {trips} (want 0)"
            ));
        }
    }

    server.shutdown(failures);
    Some(tiny_ref)
}

/// Churn phase 2: the per-model admission quota answers `429` with a
/// labeled counter when one model's queued jobs exceed the cap.
fn churn_phase_quota(
    failures: &mut Vec<String>,
    tiny_images: &[Vec<f32>],
    tiny_ref: &InferResponse,
) {
    println!("[serve_load] churn phase 2: per-model admission quota");
    // max_batch 1 + a 100 ms batch delay on every batch makes the queue
    // hold jobs deterministically long; quota 2 then rejects the
    // overflow of 6-wide closed-loop traffic.
    let server = Server::spawn(
        "tiny",
        &[
            ("T2FSNN_SERVE_MAX_BATCH", "1".to_string()),
            ("T2FSNN_SERVE_MODEL_QUOTA", "2".to_string()),
            ("T2FSNN_SERVE_FAULTS", "7:batch_delay=1@100".to_string()),
        ],
    );
    let addr = &server.addr;
    let report = closed_loop(addr, "churn quota", 18, 6, 42, |_| {
        infer_body("tiny", &tiny_images[0], true, None, false)
    });
    let ok = report.ok_count();
    let rejected = report.count_status(429);
    report.gate_no_transport_errors("quota", failures);
    if rejected == 0 {
        failures.push("quota never rejected despite 6-wide traffic into quota 2".to_string());
    }
    if ok + rejected != report.outcomes.len() {
        failures.push(format!(
            "quota outcomes: {ok} ok + {rejected} rejected != {} total",
            report.outcomes.len()
        ));
    }
    report.gate_bits("quota", failures, |_| Some(tiny_ref));
    if let Some(text) = metrics_or_fail(addr, "quota phase", failures) {
        let counted = metric_value(
            &text,
            "t2fsnn_serve_model_quota_rejections_total{model=\"tiny\"}",
        );
        println!("[serve_load] quota: {rejected} terminal 429s, labeled counter {counted}");
        if counted == 0 {
            failures.push("model_quota_rejections_total{model=\"tiny\"} is 0".to_string());
        }
    }
    server.shutdown(failures);
}

/// Churn phase 3: a `canary_fail` burst poisons the first reload — the
/// candidate must never serve a byte while the incumbent keeps
/// answering bit-exact, and the next reload promotes cleanly.
fn churn_phase_canary(
    failures: &mut Vec<String>,
    tiny_images: &[Vec<f32>],
    tiny_ref: &InferResponse,
) {
    println!("[serve_load] churn phase 3: canary-gated promotion (injected rejection)");
    let server = Server::spawn(
        "tiny",
        &[("T2FSNN_SERVE_FAULTS", "7:canary_fail=1@1".to_string())],
    );
    let addr = &server.addr;
    let solo = solo_reference(addr, "tiny", &tiny_images[0], true);
    if !solo.same_bits(tiny_ref) || solo.version != 1 {
        failures.push("phase 3 boot bits differ from the phase 1 reference".to_string());
    }

    // First reload: the injected canary failure must reject it.
    admin_model(addr, "tiny", "reload", 202, failures);
    if wait_for_metric(
        addr,
        "t2fsnn_serve_canary_rejections_total",
        Duration::from_secs(60),
        |v| v >= 1,
    )
    .is_none()
    {
        failures.push("injected canary failure was never counted as a rejection".to_string());
    }
    match model_state(addr, "tiny") {
        Some(m) if m.state == "ready" && m.version == 1 && m.available => {}
        other => failures.push(format!(
            "after rejected reload tiny should serve v1 ready, got {other:?}"
        )),
    }
    // The failed canary never serves: the incumbent answers v1,
    // bit-exact, for every request.
    for i in 0..12u64 {
        match one_infer(addr, "tiny", &tiny_images[0], 0x3A00 + i) {
            (Some(200), Some(r)) if r.same_bits(tiny_ref) && r.version == 1 => {}
            other => failures.push(format!(
                "post-rejection answer {i} not a v1 bit-exact 200: {other:?}"
            )),
        }
    }
    println!("[serve_load] rejected candidate never served; incumbent answered v1 bit-exact");

    // Second reload: the one-shot burst is exhausted, promotion is
    // clean, bits unchanged (deterministic conversion).
    admin_model(addr, "tiny", "reload", 202, failures);
    match wait_for_model(addr, "tiny", Duration::from_secs(60), |m| {
        m.state == "ready" && m.version >= 2
    }) {
        Some(m) => println!("[serve_load] clean reload promoted tiny to v{}", m.version),
        None => failures.push("clean reload after burst exhaustion never promoted".to_string()),
    }
    match one_infer(addr, "tiny", &tiny_images[0], 0x3B00) {
        (Some(200), Some(r)) if r.same_bits(tiny_ref) && r.version >= 2 => {}
        other => failures.push(format!(
            "post-promotion answer not a bit-exact 200 on the new version: {other:?}"
        )),
    }
    if let Some(text) = metrics_or_fail(addr, "phase 3", failures) {
        let rejections = metric_value(&text, "t2fsnn_serve_canary_rejections_total");
        let loads = metric_value(&text, "t2fsnn_serve_model_loads_total");
        println!("[serve_load] phase 3 metrics: {rejections} rejections, {loads} loads");
        if rejections != 1 || loads != 1 {
            failures.push(format!(
                "phase 3 counters off: rejections {rejections} (want 1), loads {loads} (want 1)"
            ));
        }
    }
    server.shutdown(failures);
}

/// Churn phase 4: a `model_panic` burst trips the per-model quarantine;
/// the gate is the full `500 → trip → 503 → probe → readmit → 200` arc
/// with bit-identity after re-admission.
fn churn_phase_quarantine(
    failures: &mut Vec<String>,
    tiny_images: &[Vec<f32>],
    tiny_ref: &InferResponse,
) {
    println!("[serve_load] churn phase 4: quarantine trip, probe, re-admission");
    let server = Server::spawn(
        "tiny",
        &[
            ("T2FSNN_SERVE_FAULTS", "7:model_panic=1@3".to_string()),
            ("T2FSNN_SERVE_QUARANTINE_THRESHOLD", "3".to_string()),
            // Long enough that the fenced window is observable from the
            // client before the probe readmits.
            ("T2FSNN_SERVE_QUARANTINE_BACKOFF_MS", "1500".to_string()),
        ],
    );
    let addr = &server.addr;

    // No warm-up request: the burst poisons exactly the first three
    // batch executions, which must each answer 500.
    for i in 0..3u64 {
        match one_infer(addr, "tiny", &tiny_images[0], 0x4A00 + i) {
            (Some(500), _) => {}
            other => failures.push(format!(
                "poisoned execution {i} should answer 500, got {other:?}"
            )),
        }
    }
    if wait_for_metric(
        addr,
        "t2fsnn_serve_quarantine_trips_total",
        Duration::from_secs(10),
        |v| v >= 1,
    )
    .is_none()
    {
        failures.push("three consecutive panics never tripped the quarantine".to_string());
    }
    // Fenced: the model alone answers 503 while the breaker is open.
    match one_infer(addr, "tiny", &tiny_images[0], 0x4B00) {
        (Some(503), _) => {}
        other => failures.push(format!(
            "quarantined model should answer 503, got {other:?}"
        )),
    }
    match model_state(addr, "tiny") {
        Some(m) if m.state == "quarantined" && !m.available => {}
        other => failures.push(format!("healthz during quarantine: {other:?}")),
    }

    // The seeded-backoff canary probe readmits; the exact fenced Arc
    // returns, so the version and bits are unchanged.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut readmitted = None;
    let mut seed = 0x4C00u64;
    while Instant::now() < deadline {
        match one_infer(addr, "tiny", &tiny_images[0], seed) {
            (Some(200), Some(r)) => {
                readmitted = Some(r);
                break;
            }
            (Some(503), _) => std::thread::sleep(Duration::from_millis(100)),
            other => {
                failures.push(format!("unexpected outcome while fenced: {other:?}"));
                break;
            }
        }
        seed += 1;
    }
    match &readmitted {
        Some(r) if r.same_bits(tiny_ref) && r.version == 1 => {
            println!(
                "[serve_load] readmitted: v{} answers bit-exact again",
                r.version
            );
        }
        Some(r) => failures.push(format!(
            "readmitted answer differs (v{}, bits changed: {})",
            r.version,
            !r.same_bits(tiny_ref)
        )),
        None => failures.push("model was never readmitted within 30 s".to_string()),
    }
    for i in 0..6u64 {
        match one_infer(addr, "tiny", &tiny_images[0], 0x4D00 + i) {
            (Some(200), Some(r)) if r.same_bits(tiny_ref) && r.version == 1 => {}
            other => failures.push(format!(
                "post-readmission answer {i} not a v1 bit-exact 200: {other:?}"
            )),
        }
    }
    match model_state(addr, "tiny") {
        Some(m) if m.state == "ready" && m.available && m.version == 1 => {}
        other => failures.push(format!("healthz after re-admission: {other:?}")),
    }
    if let Some(text) = metrics_or_fail(addr, "phase 4", failures) {
        let trips = metric_value(&text, "t2fsnn_serve_quarantine_trips_total");
        let probes = metric_value(&text, "t2fsnn_serve_quarantine_probes_total");
        let readmissions = metric_value(&text, "t2fsnn_serve_quarantine_readmissions_total");
        let panics = metric_value(&text, "t2fsnn_serve_worker_panics_total");
        println!(
            "[serve_load] phase 4 metrics: {trips} trips, {probes} probes, \
             {readmissions} readmissions, {panics} batch panics"
        );
        if trips != 1 || probes < 1 || readmissions != 1 || panics != 3 {
            failures.push(format!(
                "phase 4 counters off: trips {trips} (want 1), probes {probes} (want ≥1), \
                 readmissions {readmissions} (want 1), panics {panics} (want 3)"
            ));
        }
    }
    server.shutdown(failures);
}

/// The `--churn` flow: the model-lifecycle gate (see the crate docs).
fn churn_run(failures: &mut Vec<String>) {
    let tiny_images = scenario_images("tiny");
    let mnist_images = scenario_images("mnist-like");
    match churn_phase_lifecycle(failures, &tiny_images, &mnist_images) {
        Some(tiny_ref) => {
            churn_phase_quota(failures, &tiny_images, &tiny_ref);
            churn_phase_canary(failures, &tiny_images, &tiny_ref);
            churn_phase_quarantine(failures, &tiny_images, &tiny_ref);
        }
        None => failures.push("phase 1 aborted; fault phases skipped".to_string()),
    }
}

/// Client-side mirror of a Chrome trace-event document (the subset the
/// `--obs` validator checks; field names match the JSON keys).
#[derive(Deserialize)]
#[allow(non_snake_case)]
struct ChromeTrace {
    displayTimeUnit: String,
    traceEvents: Vec<ChromeEvent>,
}

#[derive(Deserialize)]
struct ChromeEvent {
    name: String,
    ph: String,
    ts: Option<f64>,
    dur: Option<f64>,
    args: Option<ChromeArgs>,
}

#[derive(Deserialize)]
struct ChromeArgs {
    span: Option<u64>,
    parent: Option<u64>,
}

/// Obs part A: run the sibling `repro_fig6` (quick grid) with
/// `T2FSNN_TRACE` pointing at a scratch file and validate the exported
/// flight-recorder JSON — well-formed Chrome trace-event structure,
/// engine-phase spans present, and at least one parent/child link. The
/// ring keeps the newest events, so the expected keys are the
/// tail-biased inner-loop spans, not the whole run.
fn obs_fig6_trace(failures: &mut Vec<String>) {
    let trace_path =
        std::env::temp_dir().join(format!("t2fsnn_obs_trace_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&trace_path);
    let exe = std::env::current_exe().expect("current_exe");
    let fig6 = exe.with_file_name("repro_fig6");
    if !fig6.exists() {
        eprintln!(
            "[serve_load] FATAL: {} not found — build it first \
             (cargo build --release -p t2fsnn-bench)",
            fig6.display()
        );
        std::process::exit(2);
    }
    println!(
        "[serve_load] obs A: repro_fig6 (quick) with T2FSNN_TRACE={}",
        trace_path.display()
    );
    let status = Command::new(&fig6)
        .env("T2FSNN_QUICK", "1")
        .env("T2FSNN_TRACE", &trace_path)
        .stdout(Stdio::null())
        .status()
        .expect("spawn repro_fig6");
    if !status.success() {
        failures.push(format!("repro_fig6 exited with {status}"));
        return;
    }
    let bytes = match std::fs::read(&trace_path) {
        Ok(b) => b,
        Err(e) => {
            failures.push(format!("no trace file written by repro_fig6: {e}"));
            return;
        }
    };
    let doc: ChromeTrace = match serde_json::from_slice(&bytes) {
        Ok(d) => d,
        Err(e) => {
            failures.push(format!("trace export is not well-formed Chrome JSON: {e}"));
            return;
        }
    };
    if doc.displayTimeUnit != "ms" {
        failures.push(format!(
            "displayTimeUnit `{}` (want `ms`)",
            doc.displayTimeUnit
        ));
    }
    let spans: Vec<&ChromeEvent> = doc.traceEvents.iter().filter(|e| e.ph == "X").collect();
    println!(
        "[serve_load] obs A: {} events ({} complete spans) in the export",
        doc.traceEvents.len(),
        spans.len()
    );
    if spans.is_empty() {
        failures.push("trace export has no complete (ph=X) spans".to_string());
        return;
    }
    for e in &spans {
        if e.ts.is_none() || e.dur.is_none_or(|d| d < 0.0) {
            failures.push(format!("span `{}` lacks a sane ts/dur", e.name));
            break;
        }
        match &e.args {
            Some(a) if a.span.unwrap_or(0) != 0 => {}
            _ => {
                failures.push(format!("span `{}` lacks a recorder span id", e.name));
                break;
            }
        }
    }
    if !spans.iter().any(|e| e.name.starts_with("ttfs/")) {
        let mut names: Vec<&str> = spans.iter().map(|e| e.name.as_str()).collect();
        names.dedup();
        names.truncate(12);
        failures.push(format!(
            "no ttfs/* engine-phase span in the export (saw {names:?})"
        ));
    }
    if !spans
        .iter()
        .any(|e| e.args.as_ref().is_some_and(|a| a.parent.unwrap_or(0) != 0))
    {
        failures.push("no span carries a parent link (tree never nested)".to_string());
    }
    let _ = std::fs::remove_file(&trace_path);
}

/// One `--obs` serving half: a live server spawned with tracing +
/// structured logging either on (the production default, plus
/// `T2FSNN_LOG=debug`) or off, driven round by round so the two halves
/// interleave on the same machine state instead of each absorbing a
/// different slice of system drift.
struct ObsHalf {
    server: Server,
    label: &'static str,
    best_rps: f64,
    responses: Vec<InferResponse>,
}

impl ObsHalf {
    fn spawn(args: &Args, trace_on: bool) -> ObsHalf {
        // The overhead gate isolates the flight recorder (the always-on
        // production default); the profile aggregate is a separate
        // opt-in sink with its own per-span TLS cost and is covered by
        // the bit-identity property test, not this throughput budget.
        let env: Vec<(&str, String)> = if trace_on {
            vec![("T2FSNN_LOG", "debug".to_string())]
        } else {
            vec![
                ("T2FSNN_SERVE_TRACE", "0".to_string()),
                ("T2FSNN_LOG", "off".to_string()),
            ]
        };
        ObsHalf {
            server: Server::spawn(&args.model, &env),
            label: if trace_on { "trace-on" } else { "trace-off" },
            best_rps: 0.0,
            responses: Vec::new(),
        }
    }

    /// One closed-loop round; when `counted`, keeps the best throughput
    /// and the round's per-image responses (warm-up rounds only heat
    /// caches and allocator arenas).
    fn round(
        &mut self,
        args: &Args,
        images: &[Vec<f32>],
        round: u64,
        counted: bool,
        failures: &mut Vec<String>,
    ) {
        let tag = if counted { "" } else { " warm-up" };
        let report = closed_loop(
            &self.server.addr,
            &format!("obs {}{tag} r{round}", self.label),
            args.requests.max(200),
            args.concurrency.max(4),
            args.seed + round,
            |i| infer_body(&args.model, &images[i % images.len()], true, None, false),
        );
        report.gate_all_ok(&format!("{} r{round}", self.label), failures);
        if !counted {
            return;
        }
        let rps = report.ok_count() as f64 / report.wall.as_secs_f64().max(1e-9);
        self.best_rps = self.best_rps.max(rps);
        let mut by_image: Vec<Option<InferResponse>> = vec![None; images.len()];
        for (i, r) in report.responses() {
            by_image[i % images.len()].get_or_insert_with(|| r.clone());
        }
        self.responses = by_image.into_iter().flatten().collect();
    }
}

/// The traced half's endpoint checks: a `timing: true` request must
/// answer with a usable breakdown, the flight recorder must hold that
/// very trace id, and `/debug/slow` must serve its threshold body.
fn obs_tagged_checks(addr: &str, args: &Args, images: &[Vec<f32>], failures: &mut Vec<String>) {
    let mut rng = Rng64(0x0B5);
    let body = infer_body(&args.model, &images[0], true, None, true);
    let answer = parse_answer(once(addr, "POST", "/v1/infer", &body, &mut rng));
    match answer.1.as_ref().and_then(|r| r.timing.as_ref()) {
        Some(t) if t.trace != 0 && t.total_us > 0 => {
            println!(
                "[serve_load] obs B: tagged request trace {} (batch trace {}): \
                 queue {} µs + infer {} µs of {} µs total",
                t.trace, t.batch_trace, t.queue_us, t.infer_us, t.total_us
            );
            match once(addr, "GET", "/debug/trace", b"", &mut rng) {
                Some((200, trace_body)) => {
                    let text = String::from_utf8_lossy(&trace_body);
                    if !text.contains(&format!("\"trace\":{}", t.trace)) {
                        failures.push(format!("trace id {} absent from /debug/trace", t.trace));
                    }
                    if !text.contains("serve/request") {
                        failures.push("no serve/request span in /debug/trace".to_string());
                    }
                }
                other => failures.push(format!("/debug/trace not 200: {other:?}")),
            }
        }
        _ => failures.push(format!(
            "timing opt-in not answered 200 with a usable breakdown: {answer:?}"
        )),
    }
    match once(addr, "GET", "/debug/slow", b"", &mut rng) {
        Some((200, body)) if String::from_utf8_lossy(&body).contains("threshold_us") => {}
        other => failures.push(format!("/debug/slow not usable: {other:?}")),
    }
}

/// The `--obs` flow (the observability CI gate): validate the
/// repro-path flight-recorder export, then prove the serving path's
/// read-only contract end to end — responses bit-identical with
/// tracing+logging on vs off, a tagged request's trace id queryable
/// from `/debug/trace`, and best-of-3 interleaved throughput overhead
/// under 3 %.
fn obs_run(args: &Args, images: &[Vec<f32>], failures: &mut Vec<String>) {
    obs_fig6_trace(failures);

    println!("[serve_load] obs B: interleaved serve rounds, tracing off vs on");
    let mut off = ObsHalf::spawn(args, false);
    let mut on = ObsHalf::spawn(args, true);
    // Warm-up round per half (uncounted), then three counted rounds,
    // alternating halves so drift lands on both sides evenly.
    off.round(args, images, 0, false, failures);
    on.round(args, images, 0, false, failures);
    for round in 1..=3u64 {
        off.round(args, images, round, true, failures);
        on.round(args, images, round, true, failures);
    }

    obs_tagged_checks(&on.server.addr, args, images, failures);

    // Bit-identity across the halves: both streams cycled the same
    // images, so the per-image responses must match byte for byte.
    let paired = off.responses.len().min(on.responses.len());
    if paired == 0 {
        failures.push("no paired responses to bit-check across the halves".to_string());
    }
    let diverged = off
        .responses
        .iter()
        .zip(on.responses.iter())
        .filter(|(a, b)| !a.same_bits(b))
        .count();
    if diverged > 0 {
        failures.push(format!(
            "{diverged}/{paired} per-image responses differ between tracing off and on"
        ));
    } else {
        println!("[serve_load] obs B: {paired} per-image responses bit-identical across halves");
    }

    // Throughput overhead: tracing on must stay within 3 % of off
    // (best-of-3, interleaved, after warm-up — a single noisy round
    // cannot fail the gate).
    let overhead = 1.0 - on.best_rps / off.best_rps.max(1e-9);
    println!(
        "[serve_load] obs B: throughput {:.1} ok/s off vs {:.1} ok/s on ({:+.2} % overhead)",
        off.best_rps,
        on.best_rps,
        overhead * 100.0
    );
    if overhead > 0.03 {
        failures.push(format!(
            "tracing overhead {:.2} % exceeds the 3 % budget",
            overhead * 100.0
        ));
    }

    off.server.shutdown(failures);
    on.server.shutdown(failures);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("[serve_load] {e}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    });
    let images = scenario_images(&args.model);
    let mut failures = Vec::new();
    match args.mode {
        Mode::Plain | Mode::Smoke => smoke_or_plain(&args, &images, &mut failures),
        Mode::Chaos => chaos_run(&args, &images, &mut failures),
        Mode::Overload => overload_run(&args, &images, &mut failures),
        Mode::Churn => churn_run(&mut failures),
        Mode::Obs => obs_run(&args, &images, &mut failures),
        Mode::Perturb(spec) => perturb_run(&args, &images, spec, &mut failures),
    }
    if args.mode != Mode::Plain {
        finish(args.mode, &failures);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn ci_invocations_parse() {
        let args = parse("--chaos --requests 160").unwrap();
        assert_eq!((args.mode, args.requests), (Mode::Chaos, 160));
        let args = parse("--perturb 9:igauss=0.15,jitter=2,drop=0.1,wgauss=0.05").unwrap();
        assert!(matches!(args.mode, Mode::Perturb(spec) if spec.weight_gauss > 0.0));
        for (line, mode) in [
            ("--smoke", Mode::Smoke),
            ("--churn", Mode::Churn),
            ("--obs", Mode::Obs),
            ("--overload", Mode::Overload),
        ] {
            assert_eq!(parse(line).unwrap().mode, mode, "{line}");
        }
        let args = parse("--addr 127.0.0.1:7878 --early-exit 0 --deadline-ms 15 --seed 7").unwrap();
        assert_eq!(args.mode, Mode::Plain);
        assert!(!args.early_exit);
        assert_eq!((args.deadline_ms, args.seed), (Some(15), 7));
    }

    #[test]
    fn bad_arguments_are_rejected_naming_the_token() {
        for (line, token) in [
            ("--smoke --requests abc", "`abc`"),
            ("--smoke --seed x", "`x`"),
            ("--smoke --deadline-ms 15ms", "`15ms`"),
            ("--smoke --early-exit false", "`false`"),
            ("--smoke --chaos", "`--chaos`"),
            ("--chaos --chaos", "`--chaos`"),
            ("--smoke --concurrency", "--concurrency"),
            ("--smoke --bogus", "`--bogus`"),
            ("--perturb igauss", "`igauss`"),
            ("--requests 5", "--addr"),
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.contains(token), "{line}: {err}");
        }
    }

    #[test]
    fn metric_value_reads_plain_and_labelled_lines() {
        let text = "t2fsnn_serve_faults_injected_total{kind=\"drop\"} 9\n\
                    t2fsnn_serve_faults_injected_total 3\n\
                    t2fsnn_serve_model_quota_rejections_total{model=\"tiny\"} 5\n";
        assert_eq!(metric_value(text, "t2fsnn_serve_faults_injected_total"), 3);
        let labelled = "t2fsnn_serve_model_quota_rejections_total{model=\"tiny\"}";
        assert_eq!(metric_value(text, labelled), 5);
        assert_eq!(metric_value(text, "t2fsnn_serve_worker_panics_total"), 0);
    }

    #[test]
    fn histogram_buckets_are_per_bucket_with_inf_as_max() {
        let text = "h_bucket{le=\"100\"} 2\nh_bucket{le=\"1000\"} 0\n\
                    h_bucket{le=\"+Inf\"} 1\nh_sum 950\n";
        let buckets = histogram_buckets(text, "h_bucket");
        assert_eq!(buckets, vec![(100, 2), (1000, 0), (u64::MAX, 1)]);
        // Rank ceil(q·3): the 1st and 2nd samples sit in the first
        // bucket (lower edge 0), the 3rd in `+Inf` (lower edge 1000).
        assert_eq!(histogram_quantile_lower_us(&buckets, 0.0), 0);
        assert_eq!(histogram_quantile_lower_us(&buckets, 0.5), 0);
        assert_eq!(histogram_quantile_lower_us(&buckets, 0.99), 1000);
        assert_eq!(histogram_quantile_lower_us(&[], 0.5), 0);
    }

    #[test]
    fn quantile_us_uses_ceil_rank() {
        assert_eq!(quantile_us(&[], 0.5), 0);
        let sample = [50, 10, 30, 20, 40];
        assert_eq!(quantile_us(&sample, 0.0), 10);
        assert_eq!(quantile_us(&sample, 0.2), 10);
        assert_eq!(quantile_us(&sample, 0.21), 20);
        assert_eq!(quantile_us(&sample, 0.5), 30);
        assert_eq!(quantile_us(&sample, 1.0), 50);
    }

    #[test]
    fn infer_body_keeps_the_wire_format() {
        let body = String::from_utf8(infer_body("tiny", &[0.5], true, Some(0), false)).unwrap();
        assert_eq!(
            body,
            r#"{"model":"tiny","image":[0.5],"early_exit":true,"deadline_ms":0,"timing":null}"#
        );
        let tagged = String::from_utf8(infer_body("tiny", &[0.5], false, None, true)).unwrap();
        assert!(tagged.ends_with(r#""early_exit":false,"deadline_ms":null,"timing":true}"#));
    }
}
