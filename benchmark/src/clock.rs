//! The two clocks every stage is timed by.
//!
//! Wall time is what a user waits. On a shared host it also counts the
//! time the hypervisor gave the cores to someone else, which comes and
//! goes in phases of minutes and can double it. Process CPU time — all
//! threads, user and system — leaves that out (the kernel's task clock
//! is steal-corrected under `CONFIG_PARAVIRT_TIME_ACCOUNTING`), so it is
//! the clock the bounded end-to-end metrics use.

use std::ffi::{c_int, c_long};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU time this process has used so far, all threads, in ns.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout 64-bit
    // Linux defines (two 64-bit fields), and the clock id is one the
    // kernel always has; the call writes `ts` and nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock always exists on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// What a stretch of work cost on each clock, in ms.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    pub wall_ms: f64,
    pub cpu_ms: f64,
}

pub struct Stopwatch {
    wall: Instant,
    cpu_ns: u64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu_ns: process_cpu_ns(),
        }
    }

    pub fn elapsed(&self) -> Cost {
        Cost {
            wall_ms: self.wall.elapsed().as_secs_f64() * 1e3,
            cpu_ms: (process_cpu_ns() - self.cpu_ns) as f64 / 1e6,
        }
    }
}

/// Runs `f` and returns its result with what it cost.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let watch = Stopwatch::start();
    let out = f();
    (out, watch.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;
    use std::time::Duration;

    #[test]
    fn cpu_clock_advances_with_work_and_never_runs_backwards() {
        // Terminates only if spinning is charged to the clock.
        let (spins, cost) = timed(|| {
            let start = process_cpu_ns();
            let mut spins = 0u64;
            while process_cpu_ns() - start < 20_000_000 {
                spins = black_box(spins + 1);
            }
            spins
        });
        assert!(spins > 0);
        assert!(cost.cpu_ms >= 20.0, "{cost:?}");
        assert!(cost.wall_ms > 0.0, "{cost:?}");

        let watch = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(30));
        assert!(watch.elapsed().wall_ms >= 30.0);
        let (a, b) = (process_cpu_ns(), process_cpu_ns());
        assert!(b >= a);
    }
}
