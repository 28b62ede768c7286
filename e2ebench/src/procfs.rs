//! Process counters: CPU time, context switches and peak resident memory.
//!
//! CPU times and context switches come from `getrusage`, which covers
//! every thread, exited ones included. The switch counts of
//! `/proc/self/status` cover only the main thread, while the kernels'
//! worker threads, which come and go with every parallel call, are the
//! ones this counter is meant to show. Peak memory is `VmHWM` from
//! `/proc/self/status`.

/// Cumulative counters of the whole process, every thread included.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcCounters {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl ProcCounters {
    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &ProcCounters) -> ProcCounters {
        ProcCounters {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

impl ProcCounters {
    /// Reads the counters now; unreadable counters read as zero.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    pub fn now() -> ProcCounters {
        #[repr(C)]
        struct Timeval {
            sec: i64,
            usec: i64,
        }
        // `struct rusage` of 64-bit Linux: two timevals, then fourteen longs.
        #[repr(C)]
        struct Rusage {
            utime: Timeval,
            stime: Timeval,
            longs: [i64; 14],
        }
        extern "C" {
            fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        }
        const RUSAGE_SELF: i32 = 0;
        let mut usage = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            longs: [0; 14],
        };
        // SAFETY: `usage` is a writable value laid out as the C `struct
        // rusage` of this target, which `getrusage` fills and does not keep.
        if unsafe { getrusage(RUSAGE_SELF, &mut usage) } != 0 {
            return ProcCounters::default();
        }
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        ProcCounters {
            user_s: secs(&usage.utime),
            sys_s: secs(&usage.stime),
            // ru_nvcsw and ru_nivcsw are the last two longs.
            ctx_switches: (usage.longs[12] + usage.longs[13]).max(0) as u64,
        }
    }

    /// Reads the counters now; unreadable counters read as zero.
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    pub fn now() -> ProcCounters {
        ProcCounters::default()
    }
}

/// Peak resident set size (`VmHWM`) in MiB, or 0 when unreadable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotone_and_memory_is_reported() {
        let a = ProcCounters::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        std::thread::scope(|s| {
            s.spawn(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let d = ProcCounters::now().since(&a);
        assert!(d.user_s >= 0.0 && d.sys_s >= 0.0);
        assert!(d.ctx_switches >= 1, "a sleeping thread switches at least once");
        assert!(peak_rss_mb() > 0.0);
    }
}
