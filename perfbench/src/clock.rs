//! The host clock a workload times itself with.
//!
//! On a shared host, wall time also measures the neighbours: the time
//! the hypervisor gives another tenant (steal) and the time spent
//! waiting for a core. The kernel's process CPU clock counts neither
//! (with paravirtual steal accounting, as on KVM guests), so a workload
//! whose simulation runs on the calling thread times itself with it. A
//! workload whose drain runs on several threads keeps wall time: its CPU
//! time would count barrier spinning as work and hide a parallel
//! speed-up.

use std::sync::OnceLock;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Wall,
    /// CPU time of every thread of the process (`CLOCK_PROCESS_CPUTIME_ID`).
    ProcessCpu,
}

impl Clock {
    /// The process CPU clock where the platform has one, else wall time.
    pub fn process_cpu() -> Clock {
        if process_cpu_ns().is_some() {
            Clock::ProcessCpu
        } else {
            Clock::Wall
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::ProcessCpu => "process-cpu",
        }
    }

    /// Nanoseconds since a fixed origin of this clock.
    pub fn now_ns(self) -> u64 {
        match self {
            Clock::Wall => {
                static ORIGIN: OnceLock<Instant> = OnceLock::new();
                ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
            }
            Clock::ProcessCpu => {
                process_cpu_ns().expect("the process CPU clock was probed by Clock::process_cpu")
            }
        }
    }

    /// Nanoseconds of this clock since `start`, a reading of `now_ns`.
    pub fn since_ns(self, start: u64) -> u64 {
        self.now_ns().saturating_sub(start)
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn process_cpu_ns() -> Option<u64> {
    /// `struct timespec` on 64-bit Linux: two 64-bit fields.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable value with the layout of the C
    // `struct timespec` on this target, and `clock_gettime` writes only
    // through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    let secs = u64::try_from(ts.tv_sec).ok()?;
    let nanos = u64::try_from(ts.tv_nsec).ok()?;
    (rc == 0).then(|| secs * 1_000_000_000 + nanos)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn process_cpu_ns() -> Option<u64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_clock_counts_work_not_sleep() {
        let clock = Clock::process_cpu();
        let t = clock.now_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let busy = clock.since_ns(t);
        assert!(busy > 0);
        if clock == Clock::ProcessCpu {
            let t = clock.now_ns();
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert!(clock.since_ns(t) < 25_000_000, "sleep counted as CPU time");
        }
    }
}
