//! `/proc` readers: peak resident set and per-thread CPU time.

use std::fs;

/// `VmHWM` (peak resident set) of process `pid` in MB, if readable.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One thread of a process: its id, `comm` name and on-CPU nanoseconds
/// (first field of `schedstat`).
#[derive(Debug, Clone)]
pub struct ThreadCpu {
    pub tid: u32,
    pub comm: String,
    pub cpu_ns: u64,
}

/// Every live thread of `pid`.
pub fn threads(pid: u32) -> Vec<ThreadCpu> {
    let Ok(dir) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|entry| {
            let tid: u32 = entry.file_name().to_str()?.parse().ok()?;
            let base = entry.path();
            let stat = fs::read_to_string(base.join("schedstat")).ok()?;
            let cpu_ns = stat.split_whitespace().next()?.parse().ok()?;
            let comm = fs::read_to_string(base.join("comm")).ok()?;
            Some(ThreadCpu {
                tid,
                comm: comm.trim().to_string(),
                cpu_ns,
            })
        })
        .collect()
}

/// On-CPU nanoseconds summed over every live thread of `pid`.
pub fn process_cpu_ns(pid: u32) -> u64 {
    threads(pid).iter().map(|t| t.cpu_ns).sum()
}

/// On-CPU nanoseconds of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_process() {
        let pid = std::process::id();
        assert!(peak_rss_mb(pid).unwrap() > 0.5);
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(thread_cpu_ns() > 0);
        assert!(threads(pid)
            .iter()
            .any(|t| t.tid == pid || !t.comm.is_empty()));
        assert!(process_cpu_ns(pid) > 0);
    }
}
