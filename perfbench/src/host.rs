//! The host and build facts printed with every result, so that a number is
//! never compared with one from a different machine or commit unawares.

use std::process::Command;

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host facts as JSON object members (no braces).
pub fn describe() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let clocksource =
        read_trimmed("/sys/devices/system/clocksource/clocksource0/current_clocksource");
    let loadavg = read_trimmed("/proc/loadavg");
    let rustc = command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only a checkout that is itself a repository has a revision; never
    // let git search the parent directories for one.
    let (rev, dirty) = if std::path::Path::new(".git").exists() {
        let rev = command_output("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
        let dirty = command_output("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
        (rev, dirty.map_or("null".to_string(), |d| d.to_string()))
    } else {
        ("none".to_string(), "null".to_string())
    };
    format!(
        "\"nproc\": {nproc}, \"clocksource\": {}, \"rustc\": {}, \"git_rev\": {}, \"git_dirty\": {dirty}, \"loadavg_at_start\": {}",
        json_str(&clocksource),
        json_str(&rustc),
        json_str(&rev),
        json_str(&loadavg),
    )
}

/// CPU time the hypervisor has taken from this machine since boot, in
/// 1/100 s ticks (the `steal` column of `/proc/stat`); 0 where it is not
/// reported.  It tells a stretch of time in which this machine shared its
/// host with a busy neighbour from one in which it did not.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse().ok())
        .unwrap_or(0)
}

/// [`steal_ticks`] in seconds.
pub fn steal_s() -> f64 {
    steal_ticks() as f64 / 100.0
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
