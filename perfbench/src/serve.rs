//! The serving workloads: the `t2fsnn_serve` binary behind a seeded load
//! generator.
//!
//! Phase A is an open loop of Poisson arrivals at a fixed rate well below
//! capacity; it gives latency, timed from each request's due time. Phase B
//! is a closed loop on two connections; it gives throughput. No metric
//! sits at the latency knee, where latency grows like 1/(1-utilisation)
//! and turns a small drift in host capacity into a large latency change;
//! a saturated closed loop's throughput follows host noise 1:1 instead.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use t2fsnn::{ImageInference, InferOptions, T2fsnn, T2fsnnConfig};
use t2fsnn_bench::prepare;
use t2fsnn_serve::registry::scenario_by_name;
use t2fsnn_serve::Registry;
use t2fsnn_tensor::Tensor;

use crate::host;
use crate::metrics::{profile_metric, Outcome, PROFILE_KEYS};
use crate::spans::{self_times, ProgramSpan, Recorder};
use crate::stats::{best_per_item, highest_supported_percentile, mean, median, quantile, SplitMix};

/// One serving workload: which models the server loads, which early-exit
/// modes the requests use, and how many test images of each model.
pub struct ServeSpec {
    pub models: &'static [&'static str],
    pub modes: &'static [bool],
    /// Test images per model in the universe: few enough that phase A
    /// repeats every request several times.
    pub images_per_model: usize,
}

/// Phase-A Poisson arrival rate: well below the capacity of either
/// serving workload on a 2-core host, away from the latency knee.
const RATE_RPS: f64 = 50.0;

/// Server knobs pinned for every serving run. `max_batch` equals the
/// client's connection count, so a closed-loop batch fills as soon as
/// both requests are in and phase B measures compute, not the company
/// wait.
const CONNECTIONS: usize = 2;
const MAX_DELAY_US: u64 = 1000;
/// Set-up is repeated and its median reported.
const SETUP_SPAWNS: usize = 3;
/// Untimed requests sent to a fresh server before phase A.
const WARMUP_REQUESTS: usize = 40;
/// Share of `--seconds` given to phase A; phase B gets the rest.
const PHASE_A_SHARE: f64 = 0.8;
/// Phase-B throughput is counted per window of this length; the
/// reported figure is the median over windows.
const THROUGHPUT_WINDOW_S: f64 = 0.5;
/// Flight-recorder slots of the traced server: enough recent spans to
/// split engine time into self times, small enough to export quickly.
const TRACE_CAP: &str = "32768";

#[derive(Serialize)]
struct RequestBody {
    model: String,
    image: Vec<f32>,
    early_exit: bool,
    timing: Option<bool>,
}

#[derive(Deserialize)]
struct TimingView {
    total_us: u64,
}

/// The fields of a `/v1/infer` response the benchmark checks or reads.
#[derive(Deserialize)]
struct ResponseView {
    model: String,
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
    timing: Option<TimingView>,
}

impl ResponseView {
    /// The inference answer the response carries.
    fn answer(&self) -> ImageInference {
        ImageInference {
            label: self.label,
            decision_step: self.decision_step,
            steps: self.steps,
            top_potential: self.top_potential,
            input_spikes: self.input_spikes,
            hidden_spikes: self.hidden_spikes,
            synop_adds: self.synop_adds,
            synop_mults: self.synop_mults,
        }
    }
}

/// One request of the workload's universe: every (model, test image,
/// mode) combination, with its in-process solo reference answer.
struct Item {
    model: usize,
    label: usize,
    early_exit: bool,
    reference: ImageInference,
    body: Vec<u8>,
    traced_body: Vec<u8>,
}

struct ModelRef {
    name: &'static str,
    /// Input pixels plus neurons: no TTFS answer may spike more.
    max_spikes: u64,
}

// ---------------------------------------------------------------------
// HTTP client and server process.
// ---------------------------------------------------------------------

/// One keep-alive HTTP/1.1 connection.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(8192),
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
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        let mut chunk = [0u8; 8192];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or(std::io::ErrorKind::InvalidData)?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .unwrap_or(0);
        while self.buf.len() < head_end + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[head_end..head_end + length].to_vec();
        self.buf.drain(..head_end + length);
        Ok((status, body))
    }
}

fn get(addr: &str, path: &str) -> Option<(u16, Vec<u8>)> {
    Client::connect(addr).ok()?.request("GET", path, b"").ok()
}

/// A running `t2fsnn_serve` child. Dropping it kills the process and
/// waits for it and its pipe readers.
struct Server {
    child: Child,
    addr: String,
    stderr: Arc<Mutex<String>>,
    readers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Spawns the server and waits until `/healthz` answers 200; returns
    /// the set-up time (spawn to healthy: cache load, conversion, canary).
    fn spawn(bin: &Path, models: &[&str], traced: bool) -> Result<(Server, Duration), String> {
        let start = Instant::now();
        let mut command = Command::new(bin);
        command.env_clear();
        // The scenario cache lives under the build directory.
        if let Some(dir) = std::env::var_os("CARGO_TARGET_DIR") {
            command.env("CARGO_TARGET_DIR", dir);
        }
        command
            .env("T2FSNN_SERVE_ADDR", "127.0.0.1:0")
            .env("T2FSNN_SERVE_MODELS", models.join(","))
            .env("T2FSNN_THREADS", "2")
            .env("T2FSNN_SERVE_WORKERS", CONNECTIONS.to_string())
            .env("T2FSNN_SERVE_MAX_BATCH", CONNECTIONS.to_string())
            .env("T2FSNN_SERVE_MAX_DELAY_US", MAX_DELAY_US.to_string())
            .env("T2FSNN_SERVE_TRACE", if traced { "1" } else { "0" })
            .env("T2FSNN_PROFILE", if traced { "1" } else { "0" })
            .env("T2FSNN_TRACE_CAP", TRACE_CAP)
            .env("T2FSNN_LOG", "off")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr_text = Arc::new(Mutex::new(String::new()));
        let mut readers = Vec::new();
        let mut err_pipe = child.stderr.take().expect("stderr is piped");
        let sink = Arc::clone(&stderr_text);
        readers.push(std::thread::spawn(move || {
            let mut text = String::new();
            let _ = err_pipe.read_to_string(&mut text);
            sink.lock().expect("stderr sink").push_str(&text);
        }));
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            child,
            addr: String::new(),
            stderr: stderr_text,
            readers,
        };
        loop {
            let mut line = String::new();
            if out.read_line(&mut line).unwrap_or(0) == 0 {
                let status = server.child.wait();
                server.join_readers();
                return Err(format!(
                    "server exited before listening ({status:?}): {}",
                    server.stderr_text()
                ));
            }
            if let Some(addr) = line.trim().strip_prefix("[serve] listening on ") {
                server.addr = addr.to_string();
                break;
            }
        }
        server.readers.push(std::thread::spawn(move || {
            let mut sink = String::new();
            let _ = out.read_to_string(&mut sink);
        }));
        let deadline = Instant::now() + Duration::from_secs(120);
        while !matches!(get(&server.addr, "/healthz"), Some((200, _))) {
            if Instant::now() > deadline {
                return Err("server never reported healthy".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok((server, start.elapsed()))
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn stderr_text(&self) -> String {
        self.stderr.lock().expect("stderr sink").clone()
    }

    fn join_readers(&mut self) {
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }

    /// Asks the server to stop and waits for it; returns its stderr.
    fn shutdown(mut self) -> String {
        let _ =
            Client::connect(&self.addr).and_then(|mut c| c.request("POST", "/admin/shutdown", b""));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.join_readers();
        self.stderr_text()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.join_readers();
    }
}

// ---------------------------------------------------------------------
// Load generation.
// ---------------------------------------------------------------------

/// One request as the client saw it.
struct Sample {
    item: usize,
    tid: u32,
    status: u16,
    body: Vec<u8>,
    due: Instant,
    sent: Instant,
    done: Instant,
}

fn send(slot: &mut Option<Client>, addr: &str, body: &[u8]) -> (u16, Vec<u8>) {
    if slot.is_none() {
        *slot = Client::connect(addr).ok();
    }
    let Some(client) = slot.as_mut() else {
        return (0, Vec::new());
    };
    match client.request("POST", "/v1/infer", body) {
        Ok(answer) => answer,
        Err(_) => {
            *slot = None;
            (0, Vec::new())
        }
    }
}

/// How the load generator paces requests.
enum Pace<'a> {
    /// Open loop: request `k` is due `offsets[k]` seconds after the start;
    /// whichever connection is free sends it, at its due time or as soon
    /// as a connection frees up after it.
    Open(&'a [f64]),
    /// Closed loop: each connection sends its next request as soon as the
    /// previous one is answered, cycling through the order, until the
    /// deadline.
    Closed(Instant),
}

/// Sends `order` over `CONNECTIONS` keep-alive connections, one thread
/// each; samples come back sorted by due time.
fn generate(addr: &str, items: &[Item], order: &[usize], pace: Pace, traced: bool) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let per_thread: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|tid| {
                let (next, pace) = (&next, &pace);
                scope.spawn(move || {
                    let mut slot = Client::connect(addr).ok();
                    let mut samples = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let due = match pace {
                            Pace::Open(offsets) => {
                                let Some(offset) = offsets.get(k) else { break };
                                let due = start + Duration::from_secs_f64(*offset);
                                let now = Instant::now();
                                if due > now {
                                    std::thread::sleep(due - now);
                                }
                                due
                            }
                            Pace::Closed(end) => {
                                let now = Instant::now();
                                if now >= *end {
                                    break;
                                }
                                now
                            }
                        };
                        let item = order[k % order.len()];
                        let body = if traced {
                            &items[item].traced_body
                        } else {
                            &items[item].body
                        };
                        let sent = Instant::now();
                        let (status, body) = send(&mut slot, addr, body);
                        samples.push(Sample {
                            item,
                            tid: tid as u32 + 1,
                            status,
                            body,
                            due,
                            sent,
                            done: Instant::now(),
                        });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let mut samples: Vec<Sample> = per_thread.into_iter().flatten().collect();
    samples.sort_by_key(|s| s.due);
    samples
}

// ---------------------------------------------------------------------
// The workload.
// ---------------------------------------------------------------------

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Checked view of one phase's samples.
#[derive(Default)]
struct Checked {
    ok: Vec<(usize, ResponseView)>,
    failed: u64,
}

fn check(
    samples: &[Sample],
    items: &[Item],
    models: &[ModelRef],
    outcome: &mut Outcome,
) -> Checked {
    let mut checked = Checked::default();
    for (index, s) in samples.iter().enumerate() {
        outcome.attempted += 1;
        let item = &items[s.item];
        let model = &models[item.model];
        if s.status != 200 {
            checked.failed += 1;
            continue;
        }
        let view: ResponseView = match serde_json::from_slice(&s.body) {
            Ok(v) => v,
            Err(e) => {
                outcome.violate(format!("unparsable 200 response: {e}"));
                continue;
            }
        };
        if view.model != model.name || !crate::same_bits(&view.answer(), &item.reference) {
            outcome.violate(format!(
                "{} image answer differs from the solo in-process reference (label {} vs {}, steps {} vs {})",
                model.name, view.label, item.reference.label, view.steps, item.reference.steps
            ));
            continue;
        }
        if view.input_spikes + view.hidden_spikes > model.max_spikes {
            outcome.violate(format!(
                "{}: {} spikes exceed its {} neurons",
                model.name,
                view.input_spikes + view.hidden_spikes,
                model.max_spikes
            ));
            continue;
        }
        checked.ok.push((index, view));
    }
    outcome.failed += checked.failed;
    checked
}

/// Builds the universe: models prepared (cache preflight + learn guard),
/// converted exactly as the server converts them, and every request's
/// reference answered solo in-process.
fn build_items(spec: &ServeSpec, outcome: &mut Outcome) -> Result<Universe, String> {
    let mut items = Vec::new();
    let mut models = Vec::new();
    let mut prepare_s = 0.0;
    let mut from_dnn_s = 0.0;
    for (m, &name) in spec.models.iter().enumerate() {
        let scenario = scenario_by_name(name).ok_or_else(|| format!("unknown model {name}"))?;
        let t = Instant::now();
        let prepared = prepare(scenario);
        prepare_s += t.elapsed().as_secs_f64();
        crate::learn_guard(name, prepared.dnn_accuracy, prepared.test.spec.classes)?;
        let t = Instant::now();
        let converted = T2fsnn::from_dnn(
            &prepared.dnn,
            T2fsnnConfig::new(scenario.time_window()),
            scenario.initial_kernel(),
        )
        .map_err(|e| format!("{name}: conversion failed: {e}"))?;
        from_dnn_s += t.elapsed().as_secs_f64();
        drop(converted);
        // The reference is the server's own conversion path.
        let served = Registry::convert_model(name, None, 1)?;
        let dims = served.image_dims();
        let pixels = served.input_len() as u64;
        let neurons = served
            .model
            .network()
            .neuron_count(&dims)
            .map_err(|e| format!("{name}: {e}"))? as u64;
        models.push(ModelRef {
            name,
            max_spikes: pixels + neurons,
        });
        for i in 0..prepared.test.len().min(spec.images_per_model) {
            let image = prepared
                .test
                .images
                .index_axis0(i)
                .map_err(|e| e.to_string())?;
            let batch = Tensor::from_vec(vec![1, dims[0], dims[1], dims[2]], image.data().to_vec())
                .map_err(|e| e.to_string())?;
            for &early_exit in spec.modes {
                let reference = served
                    .model
                    .infer(&batch, InferOptions { early_exit })
                    .map_err(|e| format!("{name}: reference inference failed: {e}"))?
                    .remove(0);
                let body = |timing: Option<bool>| {
                    serde_json::to_vec(&RequestBody {
                        model: name.to_string(),
                        image: image.data().to_vec(),
                        early_exit,
                        timing,
                    })
                    .expect("request serializes")
                };
                items.push(Item {
                    model: m,
                    label: prepared.test.labels[i],
                    early_exit,
                    reference,
                    body: body(None),
                    traced_body: body(Some(true)),
                });
            }
        }
    }
    outcome.layer("scenario.prepare_s", prepare_s);
    outcome.layer("core.from_dnn_s", from_dnn_s);
    Ok(Universe { items, models })
}

/// Ok responses per second in each whole phase-B window.
fn window_rates(checked: &Checked, samples: &[Sample]) -> Vec<f64> {
    let Some(t0) = samples.iter().map(|s| s.sent).min() else {
        return Vec::new();
    };
    let end = samples.iter().map(|s| s.done).max().unwrap_or(t0);
    let whole = ((end - t0).as_secs_f64() / THROUGHPUT_WINDOW_S) as usize;
    let mut counts = vec![0usize; whole];
    for (index, _) in &checked.ok {
        let w = ((samples[*index].done - t0).as_secs_f64() / THROUGHPUT_WINDOW_S) as usize;
        if w < whole {
            counts[w] += 1;
        }
    }
    counts
        .iter()
        .map(|&c| c as f64 / THROUGHPUT_WINDOW_S)
        .collect()
}

/// A run's seeded request schedule.
struct Schedule {
    /// Phase A: the item of each request and its due time in seconds
    /// after the start, `cycles` permutations of the universe.
    order_a: Vec<usize>,
    offsets: Vec<f64>,
    cycles: usize,
    /// Phase B: items in sending order (reused cyclically) and duration.
    order_b: Vec<usize>,
    phase_b: Duration,
}

impl Schedule {
    fn new(universe: usize, seed: u64, seconds: f64) -> Schedule {
        let mut rng = SplitMix::new(seed);
        let phase_a_requests = seconds * PHASE_A_SHARE * RATE_RPS;
        let cycles = ((phase_a_requests / universe as f64).round() as usize).max(1);
        let order_a = rng.cycles(universe, cycles);
        let mut offsets = Vec::with_capacity(order_a.len());
        let mut t = 0.0;
        for _ in 0..order_a.len() {
            offsets.push(t);
            t += -rng.unit().ln() / RATE_RPS;
        }
        Schedule {
            order_a,
            offsets,
            cycles,
            order_b: rng.cycles(universe, 64),
            phase_b: Duration::from_secs_f64(seconds * (1.0 - PHASE_A_SHARE)),
        }
    }
}

/// The requests of a workload and the models they go to.
struct Universe {
    items: Vec<Item>,
    models: Vec<ModelRef>,
}

fn server_bin() -> Result<PathBuf, String> {
    Ok(std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("t2fsnn_serve"))
}

/// One pass (untraced or traced) of warm-up, phase A and phase B against
/// a running server.
struct Pass {
    phase_a: Vec<Sample>,
    phase_b: Vec<Sample>,
    phase_b_elapsed: Duration,
    steal_pct: f64,
    busy_pct: f64,
    server_cpu_a_s: f64,
    server_cpu_b_s: f64,
    peak_rss_mb: f64,
}

fn drive(server: &Server, items: &[Item], schedule: &Schedule, traced: bool) -> Pass {
    let warm: Vec<usize> = schedule.order_b[..WARMUP_REQUESTS.min(schedule.order_b.len())].to_vec();
    let _ = generate(
        &server.addr,
        items,
        &warm,
        Pace::Open(&vec![0.0; warm.len()]),
        traced,
    );
    let cpu0 = host::cpu_times();
    let proc_a0 = host::process_cpu_s(server.pid());
    let phase_a = generate(
        &server.addr,
        items,
        &schedule.order_a,
        Pace::Open(&schedule.offsets),
        traced,
    );
    let proc_b0 = host::process_cpu_s(server.pid());
    let phase_b = generate(
        &server.addr,
        items,
        &schedule.order_b,
        Pace::Closed(Instant::now() + schedule.phase_b),
        traced,
    );
    let phase_b_elapsed = match (
        phase_b.iter().map(|s| s.sent).min(),
        phase_b.iter().map(|s| s.done).max(),
    ) {
        (Some(first), Some(last)) => last - first,
        _ => schedule.phase_b,
    };
    let proc_b1 = host::process_cpu_s(server.pid());
    let (steal_pct, busy_pct) = host::shares(cpu0, host::cpu_times());
    Pass {
        phase_a,
        phase_b,
        phase_b_elapsed,
        steal_pct,
        busy_pct,
        server_cpu_a_s: proc_b0 - proc_a0,
        server_cpu_b_s: proc_b1 - proc_b0,
        peak_rss_mb: host::peak_rss_mb(&server.pid().to_string()),
    }
}

fn no_retraining(stderr: &str) -> Result<(), String> {
    if stderr.contains("[prepare] training") {
        Err("the server retrained a model during a timed run (cache preflight failed)".to_string())
    } else {
        Ok(())
    }
}

/// Runs one serving workload.
pub fn run(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    rec: &Recorder,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let root = rec.begin("perfbench/serve", 0);
    let (built, _) = rec.time("perfbench/references", root.id(), || {
        build_items(spec, &mut outcome)
    });
    let universe = built?;
    let (items, models) = (&universe.items, &universe.models);
    let bin = server_bin()?;
    let schedule = Schedule::new(items.len(), seed, seconds);
    let cycles = schedule.cycles;

    // Set-up, repeated; the last server stays up for the timed phases.
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_SPAWNS {
        if let Some(previous) = server.take() {
            no_retraining(&Server::shutdown(previous))?;
        }
        let open = rec.begin("perfbench/server_setup", root.id());
        let (s, took) = Server::spawn(&bin, spec.models, false)?;
        rec.end(open);
        setups.push(took.as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let open = rec.begin("perfbench/phases", root.id());
    let pass = drive(&server, items, &schedule, false);
    rec.end(open);
    no_retraining(&server.shutdown())?;

    let checked_a = check(&pass.phase_a, items, models, &mut outcome);
    let checked_b = check(&pass.phase_b, items, models, &mut outcome);
    let latency: Vec<f64> = pass.phase_a.iter().map(|s| ms(s.done - s.due)).collect();
    let late: Vec<f64> = pass.phase_a.iter().map(|s| ms(s.sent - s.due)).collect();
    let ok_b = checked_b.ok.len();
    let attempted = (pass.phase_a.len() + pass.phase_b.len()) as f64;
    let ok_all = (checked_a.ok.len() + ok_b) as f64;
    let views_a: Vec<(&Item, &ResponseView)> = checked_a
        .ok
        .iter()
        .map(|(i, v)| (&items[pass.phase_a[*i].item], v))
        .collect();
    let n_a = views_a.len().max(1) as f64;
    let correct = views_a
        .iter()
        .filter(|(item, v)| v.label == item.label)
        .count() as f64;
    let steps: f64 = views_a.iter().map(|(_, v)| v.steps as f64).sum::<f64>() / n_a;
    let spikes: f64 = views_a
        .iter()
        .map(|(_, v)| (v.input_spikes + v.hidden_spikes) as f64)
        .sum::<f64>()
        / n_a;
    let synops: f64 = views_a
        .iter()
        .map(|(_, v)| v.synop_adds as f64)
        .sum::<f64>()
        / n_a;
    let ee: Vec<&&ResponseView> = views_a
        .iter()
        .filter(|(item, _)| item.early_exit)
        .map(|(_, v)| v)
        .collect();
    let decided =
        ee.iter().filter(|v| v.decision_step.is_some()).count() as f64 / ee.len().max(1) as f64;

    outcome.set("setup_s", median(&setups));
    let window_rps = window_rates(&checked_b, &pass.phase_b);
    // A request that failed misses any latency limit: it counts as
    // taking the whole phase.
    let phase_ms = latency.iter().copied().fold(0.0, f64::max);
    let best = best_per_item(
        pass.phase_a
            .iter()
            .zip(&latency)
            .map(|(s, &l)| (s.item, if s.status == 200 { l } else { phase_ms })),
        items.len(),
    );
    outcome.set("latency_p50_ms", quantile(&best, 0.5));
    outcome.set("latency_p90_ms", quantile(&best, 0.9));
    // Server CPU per request over phase A: a fixed request set, and CPU
    // time is not charged for what the host steals.
    let cpu_ms_per_request = 1e3 * pass.server_cpu_a_s / checked_a.ok.len().max(1) as f64;
    outcome.set("cpu_ms_per_request", cpu_ms_per_request);
    outcome.set("ok_share", ok_all / attempted.max(1.0));
    outcome.set("peak_rss_mb", pass.peak_rss_mb);
    outcome.set("ttfs_accuracy", correct / n_a);
    outcome.set("ttfs_spikes_per_image", spikes);
    outcome.set("synops_per_image", synops);
    outcome.set("ttfs_latency_steps", steps);

    outcome.layer("core.infer.steps_mean", steps);
    outcome.layer("core.infer.decided_share", decided);
    outcome.layer("core.infer.spikes_mean", spikes);
    outcome.layer("core.infer.synop_adds_mean", synops);
    let batch_b: Vec<f64> = checked_b
        .ok
        .iter()
        .map(|(_, v)| v.batch_size as f64)
        .collect();
    outcome.layer("serve.batch_size_mean", mean(&batch_b));
    outcome.layer("serve.batch_fill", mean(&batch_b) / CONNECTIONS as f64);
    outcome.layer("serve.throughput_rps", median(&window_rps));
    outcome.layer("host.steal_pct", pass.steal_pct);
    outcome.layer("host.busy_pct", pass.busy_pct);
    outcome.layer("generator.late_ms_p90", quantile(&late, 0.9));

    outcome.note(format!(
        "set-up: {} spawns, median {:.3} s (each: spawn -> /healthz 200)",
        setups.len(),
        median(&setups)
    ));
    let supported = highest_supported_percentile(latency.len()).map_or("n/a".to_string(), |p| {
        format!("p{p} {:.3} ms", quantile(&latency, p / 100.0))
    });
    outcome.note(format!(
        "phase A (open loop, Poisson {:.0} req/s, {} requests = {cycles} cycles of {}): p50 {:.3} ms, p90 {:.3} ms, {supported}; sender late p90 {:.3} ms",
        RATE_RPS,
        latency.len(),
        items.len(),
        quantile(&latency, 0.5),
        quantile(&latency, 0.9),
        quantile(&late, 0.9)
    ));
    outcome.note(format!(
        "phase A best of {cycles} repeats per item, across {} items: p50 {:.3} ms, p90 {:.3} ms",
        best.len(),
        quantile(&best, 0.5),
        quantile(&best, 0.9)
    ));
    outcome.note(format!(
        "phase B (closed loop, {CONNECTIONS} connections, {:.1} s): {ok_b} ok of {} -> {:.1} req/s overall, median {:.1} over {} windows of {THROUGHPUT_WINDOW_S} s; mean batch {:.2}, server CPU {:.3} ms/request (phase A: {:.3})",
        pass.phase_b_elapsed.as_secs_f64(),
        pass.phase_b.len(),
        ok_b as f64 / pass.phase_b_elapsed.as_secs_f64(),
        median(&window_rps),
        window_rps.len(),
        mean(&batch_b),
        1e3 * pass.server_cpu_b_s / ok_b.max(1) as f64,
        cpu_ms_per_request
    ));
    outcome.note(format!(
        "host over the timed phases: steal {:.2} %, busy {:.1} %",
        pass.steal_pct, pass.busy_pct
    ));

    if trace {
        traced_pass(
            spec,
            &universe,
            &schedule,
            &pass,
            rec,
            root.id(),
            &mut outcome,
        )?;
    }
    rec.end(root);
    Ok(outcome)
}

/// The traced run: a second server with the flight recorder and profile
/// table on, driven by the same schedule with `timing: true` requests.
fn traced_pass(
    spec: &ServeSpec,
    universe: &Universe,
    schedule: &Schedule,
    untraced: &Pass,
    rec: &Recorder,
    root: u64,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let (items, models) = (&universe.items, &universe.models);
    let (server, _) = Server::spawn(&server_bin()?, spec.models, true)?;
    let open = rec.begin("perfbench/traced_phases", root);
    let pass = drive(&server, items, schedule, true);
    rec.end(open);
    let profile = get(&server.addr, "/metrics")
        .map(|(_, b)| String::from_utf8_lossy(&b).into_owned())
        .unwrap_or_default();
    let chrome = get(&server.addr, "/debug/trace")
        .map(|(_, b)| b)
        .unwrap_or_default();
    no_retraining(&server.shutdown())?;

    // The benchmark's own spans: one per request, under its phase.
    for (phase, samples) in [
        ("perfbench/phase_a", &pass.phase_a),
        ("perfbench/phase_b", &pass.phase_b),
    ] {
        let (Some(first), Some(last)) = (samples.first(), samples.iter().map(|s| s.done).max())
        else {
            continue;
        };
        let parent = rec.next_id();
        rec.record(
            phase,
            0,
            root,
            first.sent,
            last - first.sent,
            samples.len() as u64,
            parent,
        );
        for s in samples.iter() {
            rec.record(
                "perfbench/request",
                s.tid,
                parent,
                s.sent,
                s.done - s.sent,
                u64::from(s.status),
                0,
            );
        }
    }

    let mut scratch = Outcome::default();
    let checked = check(&pass.phase_a, items, models, &mut scratch);
    outcome.violations.extend(scratch.violations);
    let mut queue = Vec::new();
    let mut exec = Vec::new();
    let mut transport = Vec::new();
    let mut client = Vec::new();
    let mut accounted = Vec::new();
    for (index, view) in &checked.ok {
        let s = &pass.phase_a[*index];
        let Some(timing) = &view.timing else {
            outcome.violate("a timing: true request was answered without timing".to_string());
            continue;
        };
        queue.push(view.queue_us as f64 / 1e3);
        exec.push(view.infer_us as f64 / 1e3);
        let tr = ms(s.done - s.sent) - timing.total_us as f64 / 1e3;
        transport.push(tr);
        client.push(ms(s.done - s.due));
        accounted.push((view.queue_us + view.infer_us) as f64 / 1e3 + tr);
    }
    // Per request, client latency = queue + exec + transport + server
    // parse/respond + client-side wait for a free connection.
    let shares: Vec<f64> = accounted
        .iter()
        .zip(&client)
        .map(|(a, c)| a / c.max(1e-9))
        .collect();
    let (q, e, tr, c) = (
        median(&queue),
        median(&exec),
        median(&transport),
        median(&client),
    );
    outcome.layer("serve.queue_ms_p50", q);
    outcome.layer("serve.exec_ms_p50", e);
    outcome.layer("serve.transport_ms_p50", tr);
    outcome.note(format!(
        "traced phase A: client p50 {c:.3} ms; p50s of queue {q:.3} + exec {e:.3} + transport {tr:.3} = {:.3} ms; per request they account for {:.1} % of client latency (median; the rest is server parse/respond and client-side wait)",
        q + e + tr,
        100.0 * median(&shares)
    ));

    // Overhead in server CPU per phase-A request (the same request set
    // in both passes; CPU time does not include what the host steals).
    let untraced_cpu = untraced.server_cpu_a_s / untraced.phase_a.len().max(1) as f64;
    let traced_cpu = pass.server_cpu_a_s / pass.phase_a.len().max(1) as f64;
    let overhead = 100.0 * (traced_cpu / untraced_cpu.max(1e-12) - 1.0);
    outcome.layer("trace.overhead_pct", overhead);
    outcome.note(format!(
        "tracing overhead: server CPU {:.3} ms/request untraced vs {:.3} traced ({overhead:+.1} %)",
        1e3 * untraced_cpu,
        1e3 * traced_cpu
    ));

    // Engine self times: inclusive totals from the profile table, split
    // by the self/inclusive share of the spans still in the recorder.
    let spans = chrome_spans(&chrome);
    let split = self_times(&spans);
    for (key, _, _) in PROFILE_KEYS {
        let inclusive_ms = profile_ms(&profile, key);
        let share = split.get(key).map_or(
            1.0,
            |&(incl, own)| if incl > 0.0 { own / incl } else { 1.0 },
        );
        outcome.layer(&profile_metric(key), inclusive_ms / 1e3 * share);
    }
    outcome.note(format!(
        "engine self times: profile table of the traced server, split by {} recorder spans",
        spans.len()
    ));
    Ok(())
}

/// `t2fsnn_profile_ms{key="<key>"}` from a `/metrics` scrape.
fn profile_ms(metrics: &str, key: &str) -> f64 {
    let prefix = format!("t2fsnn_profile_ms{{key=\"{key}\"}} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Complete events of a Chrome trace export.
fn chrome_spans(bytes: &[u8]) -> Vec<ProgramSpan> {
    let Ok(doc) = serde_json::from_slice::<serde_json::Value>(bytes) else {
        return Vec::new();
    };
    let Some(events) = doc.get("traceEvents").and_then(|e| e.as_array()) else {
        return Vec::new();
    };
    events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .filter_map(|e| {
            let args = e.get("args")?;
            Some(ProgramSpan {
                key: e.get("name")?.as_str()?.to_string(),
                id: u64::try_from(args.get("span")?.as_i128()?).ok()?,
                parent: u64::try_from(args.get("parent")?.as_i128()?).ok()?,
                dur_ns: e.get("dur")?.as_f64()? * 1e3,
            })
        })
        .collect()
}
