//! The machine and process facts a result depends on, read from
//! `/proc` and the toolchain; anything unreadable reports "unknown".

use std::path::Path;
use std::process::Command;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

pub fn rustc_version() -> String {
    first_line("rustc", &["-V"])
}

/// The commit, where the benchmark runs inside a git work tree.
pub fn git_commit() -> String {
    first_line("git", &["rev-parse", "HEAD"])
}

/// Type and device of the filesystem holding `path` (longest mount
/// point that prefixes it).
pub fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|l| {
                    let mut f = l.split_whitespace();
                    let (dev, at, ty) = (f.next()?, f.next()?, f.next()?);
                    path.starts_with(at)
                        .then(|| (at.len(), format!("{ty} on {dev}")))
                })
                .max_by_key(|(len, _)| *len)
                .map(|(_, fs)| fs)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// CPU time of every live thread of this process, in ns. The
/// scheduler's per-thread counters have ns resolution; `/proc/self/stat`
/// counts 10 ms ticks and is the fallback.
pub fn process_cpu_ns() -> u64 {
    let from_tasks = std::fs::read_dir("/proc/self/task").ok().and_then(|tasks| {
        tasks
            .flatten()
            .map(|t| {
                std::fs::read_to_string(t.path().join("schedstat"))
                    .ok()
                    .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            })
            .sum::<Option<u64>>()
    });
    from_tasks.unwrap_or_else(|| {
        // utime and stime are the 14th and 15th fields; the 2nd (the
        // command, in parentheses) may hold spaces, so count from its end.
        let ticks: u64 = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| {
                let rest = s.rsplit_once(')')?.1;
                let f: Vec<&str> = rest.split_whitespace().collect();
                Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
            })
            .unwrap_or(0);
        ticks * 10_000_000
    })
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
