//! CPU clocks, and the machine-speed reference that gated timings are scaled by.
//!
//! The benchmark's host is shared: for minutes at a time the same work takes a fifth to a
//! third longer while other tenants load the caches and the memory bus.  That time is not
//! stolen from the process, it is spent more slowly, so the process's CPU time grows with
//! it as much as its wall time does.  A run therefore times a fixed reference kernel,
//! code of the benchmark's own that does not depend on the program under test, between
//! units of work, and scales each gated CPU time by [`REFERENCE_NS`] over the kernel's
//! median time in the run ([`Speed::factor`]).  On a calm host the factor is about 1 and
//! the figures are CPU times as measured; on a loaded one the kernel slows with the
//! program and the factor takes most of the slowdown back out.  A change to the program
//! moves the program's times and not the kernel's, so it shows in full.
//!
//! The kernel runs on the thread that measures, between two units of its work: the two
//! virtual CPUs of the benchmark's machine can sit on host cores loaded differently, and
//! a kernel timed on another thread tracked the workload about half as well.

use crate::stats::median;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::os::raw::{c_int, c_long};
use std::time::Duration;

/// Keys the reference kernel inserts.
pub const KERNEL_KEYS: u32 = 4096;
/// Kernel passes timed together as one sample.
pub const KERNEL_PASSES: usize = 4;
/// CPU time of one sample on a calm host, in nanoseconds: the scale the gated timings
/// are reported at.
pub const REFERENCE_NS: f64 = 4_000_000.0;

#[repr(C)]
struct Timespec {
    sec: c_long,
    nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn clock_getcpuclockid(pid: c_int, clock: *mut c_int) -> c_int;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const THREAD_CPU_CLOCK: c_int = 3;

fn read_clock(clock: c_int) -> std::io::Result<Duration> {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec for the whole call.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(Duration::new(ts.sec as u64, ts.nsec as u32))
}

/// CPU time the calling thread has used.
pub fn thread_cpu() -> Duration {
    read_clock(THREAD_CPU_CLOCK).expect("the calling thread's CPU clock is readable")
}

/// The CPU clock of another process: the CPU time all its threads have used, those that
/// have ended included.
#[derive(Debug, Clone, Copy)]
pub struct ProcessClock(c_int);

impl ProcessClock {
    /// The clock of process `pid`.
    pub fn of(pid: u32) -> std::io::Result<ProcessClock> {
        let mut clock = 0;
        // SAFETY: `clock` is a live, writable clock id for the whole call.
        match unsafe { clock_getcpuclockid(pid as c_int, &mut clock) } {
            0 => Ok(ProcessClock(clock)),
            errno => Err(std::io::Error::from_raw_os_error(errno)),
        }
    }

    /// CPU time the process has used since it started.
    pub fn now(&self) -> std::io::Result<Duration> {
        read_clock(self.0)
    }
}

/// The reference kernel: an ordered map of [`KERNEL_KEYS`] formatted keys, built and
/// dropped.  Allocation, formatting, string comparison and pointer chasing, as in parsing
/// and mining, over a working set that fits a core's own cache.  Returns the map's size.
pub fn kernel() -> usize {
    let mut map = BTreeMap::new();
    for i in 0..KERNEL_KEYS {
        map.insert(format!("k{}", i.wrapping_mul(2_654_435_761)), i);
    }
    map.len()
}

/// [`KERNEL_PASSES`] kernel passes, timed on the calling thread's CPU clock, in ns.  The
/// first pass refills the caches from memory, the others run from them, so a sample
/// feels both the memory and the core the host shares.
fn kernel_sample_ns() -> f64 {
    let start = thread_cpu();
    for _ in 0..KERNEL_PASSES {
        black_box(kernel());
    }
    (thread_cpu() - start).as_nanos() as f64
}

/// [`REFERENCE_NS`] over the median of `samples_ns` (NaN without samples).
pub fn factor(samples_ns: &[f64]) -> f64 {
    median(samples_ns).map_or(f64::NAN, |ns| REFERENCE_NS / ns)
}

/// Kernel samples taken through a run.
#[derive(Debug, Clone)]
pub struct Speed {
    samples_ns: Vec<f64>,
}

impl Default for Speed {
    fn default() -> Speed {
        Speed::new()
    }
}

impl Speed {
    /// A sampler whose kernel has run once untimed.
    pub fn new() -> Speed {
        black_box(kernel());
        Speed {
            samples_ns: Vec::new(),
        }
    }

    /// Takes one sample on the calling thread.  Call it where the benchmark's own work
    /// is idle, so the sample sees the host, not the benchmark.
    pub fn sample(&mut self) {
        self.samples_ns.push(kernel_sample_ns());
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.samples_ns.len()
    }

    /// What a CPU time measured in this run is multiplied by to report it at the
    /// reference speed: [`factor`] of the samples.
    pub fn factor(&self) -> f64 {
        factor(&self.samples_ns)
    }

    /// A report line stating the samples and the factor.
    pub fn note(&self) -> String {
        format!(
            "reference kernel: median {:.0} ns over {} samples (reference {REFERENCE_NS:.0} ns), \
             gated CPU times scaled by {:.4}",
            median(&self.samples_ns).unwrap_or(f64::NAN),
            self.samples(),
            self.factor()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_builds_every_key() {
        assert_eq!(kernel(), KERNEL_KEYS as usize);
    }

    #[test]
    fn factor_is_reference_over_median_sample() {
        let samples = [REFERENCE_NS * 2.0, REFERENCE_NS, REFERENCE_NS * 4.0];
        assert!((factor(&samples) - 0.5).abs() < 1e-12);
        assert!(factor(&[]).is_nan());
    }

    #[test]
    fn samples_accumulate() {
        let mut speed = Speed::new();
        assert!(speed.factor().is_nan());
        speed.sample();
        speed.sample();
        assert_eq!(speed.samples(), 2);
        assert!(speed.factor() > 0.0);
    }

    #[test]
    fn thread_clock_counts_work_not_sleep() {
        let start = thread_cpu();
        std::thread::sleep(Duration::from_millis(30));
        let slept = thread_cpu() - start;
        let start = thread_cpu();
        for _ in 0..4 {
            black_box(kernel());
        }
        let worked = thread_cpu() - start;
        assert!(
            slept < Duration::from_millis(10),
            "sleep used {slept:?} of CPU"
        );
        assert!(worked > Duration::ZERO);
    }

    #[test]
    fn process_clock_reads_a_child() {
        let mut child = std::process::Command::new("sh")
            .args(["-c", "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done"])
            .spawn()
            .expect("sh runs");
        let clock = ProcessClock::of(child.id()).expect("child's clock");
        let early = clock.now().expect("readable while the child lives");
        std::thread::sleep(Duration::from_millis(20));
        let later = clock.now().unwrap_or(early);
        assert!(later >= early);
        child.wait().expect("child ends");
    }
}
