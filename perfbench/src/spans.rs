//! Tracing for the traced run: the benchmark's own spans around each
//! public call it makes, exported as Chrome trace-event JSON (the format
//! of the program's `T2FSNN_TRACE` export), and self times of the
//! program's engine spans.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Event {
    name: String,
    tid: u32,
    id: u64,
    parent: u64,
    start: Duration,
    dur: Duration,
    aux: u64,
}

/// In-memory span store; written out once when the run ends. A disabled
/// recorder keeps nothing, so the timed runs record no spans.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    next_id: AtomicU64,
    events: Mutex<Vec<Event>>,
}

/// An open span; [`Recorder::end`] closes it.
pub struct Open {
    id: u64,
    parent: u64,
    name: String,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled,
            next_id: AtomicU64::new(1),
            events: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Event>> {
        self.events
            .lock()
            .expect("span store poisoned by a panicking thread")
    }

    /// A fresh span id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a span on the main thread under `parent` (0 = root).
    pub fn begin(&self, name: &str, parent: u64) -> Open {
        Open {
            id: self.next_id(),
            parent,
            name: name.to_string(),
            start: Instant::now(),
        }
    }

    /// Closes `open`, returning its duration.
    pub fn end(&self, open: Open) -> Duration {
        let dur = open.start.elapsed();
        self.record(&open.name, 0, open.parent, open.start, dur, 0, open.id);
        dur
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(&self, name: &str, parent: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.begin(name, parent);
        let out = f();
        (out, self.end(open))
    }

    /// Records an already-finished span (the load generator's requests
    /// are recorded after the phase from their timestamps); `id` 0 draws
    /// a fresh id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        name: &str,
        tid: u32,
        parent: u64,
        start: Instant,
        dur: Duration,
        aux: u64,
        id: u64,
    ) {
        if !self.enabled {
            return;
        }
        let id = if id == 0 { self.next_id() } else { id };
        self.lock().push(Event {
            name: name.to_string(),
            tid,
            id,
            parent,
            start: start.saturating_duration_since(self.epoch),
            dur,
            aux,
        });
    }

    /// Writes the spans as `{"traceEvents": [...]}` and returns the count.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<usize> {
        let events = self.lock();
        let mut out = String::from(
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":\"process_name\",\
             \"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"perfbench\"}}",
        );
        for e in events.iter() {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"aux\":{}}}}}",
                e.name,
                e.tid,
                e.start.as_secs_f64() * 1e6,
                e.dur.as_secs_f64() * 1e6,
                e.id,
                e.parent,
                e.aux
            );
        }
        out.push_str("]}");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)?;
        Ok(events.len())
    }
}

/// One completed program span, as read from the flight recorder or its
/// Chrome export.
pub struct ProgramSpan {
    pub key: String,
    pub id: u64,
    pub parent: u64,
    pub dur_ns: f64,
}

/// Per-key `(inclusive, self)` nanoseconds of a set of spans: a span's
/// self time is its duration minus the durations of its direct children.
pub fn self_times(spans: &[ProgramSpan]) -> HashMap<String, (f64, f64)> {
    let mut child_ns: HashMap<u64, f64> = HashMap::new();
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
    for s in spans {
        if s.parent != 0 && ids.contains(&s.parent) {
            *child_ns.entry(s.parent).or_default() += s.dur_ns;
        }
    }
    let mut out: HashMap<String, (f64, f64)> = HashMap::new();
    for s in spans {
        let own = (s.dur_ns - child_ns.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
        let slot = out.entry(s.key.clone()).or_default();
        slot.0 += s.dur_ns;
        slot.1 += own;
    }
    out
}
