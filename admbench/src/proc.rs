//! Readers for the few `/proc` figures the benchmark records: a
//! process's CPU time and peak memory, the machine's steal time, and
//! the number of sockets in TIME_WAIT.

use std::fs;

/// Clock ticks per second of `/proc` CPU counters (`getconf CLK_TCK`,
/// which is 100 on every Linux ABI the service builds for).
pub const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// User plus system CPU time of process `pid`, in clock ticks. Counts
/// every thread the process ever ran, including exited ones.
pub fn cpu_ticks(pid: u32) -> Option<u64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in kB.
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Machine-wide steal ticks so far (the `cpu` line of `/proc/stat`).
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().next()?.to_string();
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Sockets in TIME_WAIT (state `06`) over IPv4 and IPv6.
pub fn time_wait_sockets() -> u64 {
    ["/proc/net/tcp", "/proc/net/tcp6"]
        .iter()
        .filter_map(|path| fs::read_to_string(path).ok())
        .map(|table| {
            table
                .lines()
                .skip(1)
                .filter(|line| line.split_whitespace().nth(3) == Some("06"))
                .count() as u64
        })
        .sum()
}
