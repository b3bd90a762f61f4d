//! What the harness reads from the host: per-process memory and CPU time
//! from `/proc/self`, and the facts needed to read a result later.

use std::process::Command;

use crate::json::Json;

/// `VmHWM` / `VmRSS` of this process in KiB (0 where `/proc` is missing).
pub fn vm_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// `(utime, stime)` of this process in clock ticks (`/proc/self/stat`
/// fields 14 and 15; 100 ticks per second on Linux).
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after
    // the closing parenthesis, at field 3.
    let mut fields = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .skip(11);
    let mut next = || fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    (next(), next())
}

/// Threads the host can run at once.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn first_line(path: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host facts recorded beside every result set.
pub fn facts() -> Json {
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    Json::obj([
        ("nproc", Json::from(parallelism())),
        ("rustc", Json::from(rustc)),
        (
            "profile",
            Json::from(if cfg!(debug_assertions) {
                "debug build: numbers are not comparable"
            } else {
                "release: opt-level=3 debug=true lto=off (mirrors the root manifest)"
            }),
        ),
        (
            "kernel",
            Json::from(first_line("/proc/sys/kernel/osrelease")),
        ),
        (
            "thp",
            Json::from(first_line("/sys/kernel/mm/transparent_hugepage/enabled")),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        // Linux-only facts; elsewhere the readers return zeros by contract.
        if std::path::Path::new("/proc/self/status").exists() {
            // The high-water mark read second cannot be below the earlier
            // resident size, whatever other test threads allocate meanwhile.
            let rss = vm_kb("VmRSS");
            assert!(rss > 0 && vm_kb("VmHWM") >= rss);
            // Burn CPU until user time is seen to advance (10 ms ticks).
            let started = std::time::Instant::now();
            let mut x = 0u64;
            while cpu_ticks().0 < 2 && started.elapsed().as_secs() < 5 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
            assert!(cpu_ticks().0 >= 2, "utime never advanced");
        }
        assert!(parallelism() >= 1);
    }
}
