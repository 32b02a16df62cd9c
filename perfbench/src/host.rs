//! Host and process readings from `/proc`: steal and busy shares of the
//! machine over a timed phase, a process's CPU time and its peak RSS.

use std::fs;

/// Cumulative jiffies of the aggregate `cpu` line of `/proc/stat`.
#[derive(Clone, Copy, Default)]
pub struct CpuTimes {
    total: u64,
    idle: u64,
    steal: u64,
}

/// Reads the aggregate CPU counters (zero when `/proc` is unavailable).
pub fn cpu_times() -> CpuTimes {
    let text = fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
        return CpuTimes::default();
    };
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    if v.len() < 8 {
        return CpuTimes::default();
    }
    CpuTimes {
        total: v.iter().sum(),
        idle: v[3] + v[4],
        steal: v[7],
    }
}

/// Machine-wide `(steal %, busy %)` between two readings. Busy excludes
/// idle, iowait and steal.
pub fn shares(from: CpuTimes, to: CpuTimes) -> (f64, f64) {
    let total = to.total.saturating_sub(from.total);
    if total == 0 {
        return (0.0, 0.0);
    }
    let steal = to.steal.saturating_sub(from.steal);
    let idle = to.idle.saturating_sub(from.idle);
    let busy = total.saturating_sub(idle + steal);
    (
        100.0 * steal as f64 / total as f64,
        100.0 * busy as f64 / total as f64,
    )
}

/// User plus system CPU seconds of a process so far.
pub fn process_cpu_s(pid: u32) -> f64 {
    let text = fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = text.rfind(')').map(|i| &text[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // USER_HZ is 100 on every Linux ABI this runs on.
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size (`VmHWM`) of a process in MB; `"self"` reads
/// the calling process.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let text = fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
