//! What the artifact records about the machine and the process: the
//! numbers below only compare between runs whose header agrees.

use crate::json::Value;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// The bracketed choice of a sysfs selector file such as
/// `always [madvise] never`.
fn bracketed(s: &str) -> Option<&str> {
    let open = s.find('[')?;
    let close = s[open..].find(']')? + open;
    Some(&s[open + 1..close])
}

/// `VmHWM` of this process in MiB: the peak resident set, which is what
/// `peak_rss_mib` reports (one child process per workload run).
pub fn peak_rss_mib() -> f64 {
    read_trimmed("/proc/self/status")
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(target_os = "linux")]
mod affinity {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// Room for 1024 CPUs, the size of glibc's `cpu_set_t`.
    type Mask = [u64; 16];

    fn set(cpu: usize) -> bool {
        let mut mask: Mask = [0; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: a plain libc call on the calling thread (pid 0); the
        // mask outlives it and `cpusetsize` is its size in bytes.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }

    pub fn pin_to_current() -> Option<usize> {
        // SAFETY: no arguments, no memory.
        let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
        (cpu < 1024 && set(cpu)).then_some(cpu)
    }

    pub fn pin_to_nth_allowed(n: usize) -> Option<usize> {
        let mut mask: Mask = [0; 16];
        // SAFETY: as above; the kernel writes at most `cpusetsize` bytes.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let allowed: Vec<usize> = (0..1024)
            .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        let cpu = *allowed.get(n % allowed.len().max(1))?;
        set(cpu).then_some(cpu)
    }
}

/// Pin the calling thread (and every thread it spawns afterwards) to
/// the CPU it is running on. The simulator runs exactly one of its
/// process-threads at a time, so spreading them over CPUs only buys
/// cross-CPU wake-ups. Returns whether the pin took.
pub fn pin_to_current_cpu() -> bool {
    #[cfg(target_os = "linux")]
    {
        affinity::pin_to_current().is_some()
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// Pin the calling thread to the `n`-th CPU it is allowed on (wrapping).
/// Rank-threads of the closed loops take one each, as the paper binds
/// its processes: where two spinning threads start is otherwise the
/// scheduler's choice, and while they share a CPU nothing is measured.
/// Returns the CPU, or `None` where pinning is not possible.
pub fn pin_to_nth_allowed_cpu(n: usize) -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        affinity::pin_to_nth_allowed(n)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = n;
        None
    }
}

/// The host header of the artifact. `rustc` and `commit` come from
/// `run.sh` through the environment (the binary has no business
/// shelling out); a checkout that is not a git repository says so.
pub fn header() -> Value {
    let env_or_unknown = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let thp = read_trimmed("/sys/kernel/mm/transparent_hugepage/enabled");
    Value::obj()
        .with("nproc", nproc())
        .with("host_llc_bytes", nemesis_rt::tuner::host_llc_size())
        .with(
            "kernel",
            read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
        )
        .with("rustc", env_or_unknown("BENCH_RUSTC"))
        .with("commit", env_or_unknown("BENCH_COMMIT"))
        .with(
            "thp",
            thp.as_deref()
                .and_then(bracketed)
                .unwrap_or("unknown")
                .to_string(),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_selector() {
        assert_eq!(bracketed("always [madvise] never"), Some("madvise"));
        assert_eq!(bracketed("none"), None);
    }

    #[test]
    fn rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib() > 0.0);
        }
    }
}
