//! Facts about the machine a run measured on, so a noisy run can be told
//! apart from a slow program: cores, last-level cache, and how much CPU
//! time the hypervisor took away (steal) while the run measured.

use std::fs;

/// Cumulative CPU time counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    /// The counters now, or zeros where `/proc/stat` is unavailable.
    pub fn now() -> CpuTimes {
        let Ok(text) = fs::read_to_string("/proc/stat") else {
            return CpuTimes::default();
        };
        let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTimes::default();
        };
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user, so it is left out.
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        CpuTimes {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// Share of all CPU time between `self` and `later` that was stolen, in
    /// percent (0 when no time passed or the counters are unavailable).
    pub fn steal_pct_until(&self, later: &CpuTimes) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// CPU time the calling thread has run, in ns (`CLOCK_THREAD_CPUTIME_ID`).
///
/// The end-to-end times are taken on this clock: the load thread never
/// blocks, so its CPU time is the time the program needed. Unlike the wall
/// clock, it leaves out time the vCPU was runnable but the hypervisor ran
/// another guest (steal), on a guest kernel with paravirtual steal
/// accounting (`CONFIG_PARAVIRT_TIME_ACCOUNTING`), and time other processes
/// of the guest held the CPU.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `struct timespec` for the duration
    // of the call, and the clock id is a constant of the Linux ABI.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    t.tv_sec as u64 * 1_000_000_000 + t.tv_nsec as u64
}

/// Elsewhere the wall clock stands in for the thread's CPU clock.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_ns() -> u64 {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    START
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

/// Static machine facts.
#[derive(Debug, Clone)]
pub struct Machine {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// CPU model name from `/proc/cpuinfo`, when present.
    pub cpu_model: String,
    /// Size of the highest-level cache of CPU 0 in KiB, from `/sys`.
    pub llc_kib: Option<u64>,
}

impl Machine {
    /// Read the facts of this machine.
    pub fn detect() -> Machine {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_default();
        Machine {
            cores,
            cpu_model,
            llc_kib: last_level_cache_kib(),
        }
    }
}

/// The largest cache level listed under CPU 0 in `/sys`, in KiB.
fn last_level_cache_kib() -> Option<u64> {
    let dir = fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    let mut best: Option<(u32, u64)> = None;
    for entry in dir.flatten() {
        let path = entry.path();
        let level = fs::read_to_string(path.join("level")).ok();
        let size = fs::read_to_string(path.join("size")).ok();
        let (Some(level), Some(size)) = (level, size) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        if let Some(kib) = parse_cache_size(size.trim()) {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, kib));
            }
        }
    }
    best.map(|(_, kib)| kib)
}

/// Parse `/sys` cache sizes such as `32K`, `107520K` or `105M` into KiB.
fn parse_cache_size(text: &str) -> Option<u64> {
    let (digits, scale) = match text.as_bytes().last()? {
        b'K' => (&text[..text.len() - 1], 1),
        b'M' => (&text[..text.len() - 1], 1024),
        b'G' => (&text[..text.len() - 1], 1024 * 1024),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse_in_kib() {
        assert_eq!(parse_cache_size("32K"), Some(32));
        assert_eq!(parse_cache_size("105M"), Some(105 * 1024));
        assert_eq!(parse_cache_size("oops"), None);
    }

    #[test]
    fn thread_cpu_clock_advances_with_work() {
        let start = thread_cpu_ns();
        let mut x = 1u64;
        for _ in 0..1_000_000 {
            x = std::hint::black_box(x.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (x >> 7));
        }
        let used = thread_cpu_ns() - start;
        assert!(used > 0 && used < 10_000_000_000, "{used} ns");
    }
}
