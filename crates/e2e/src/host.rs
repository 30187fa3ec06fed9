//! What the benchmark reads about its own process and host: core count,
//! peak resident memory, CPU time, and an exact count of heap allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every heap allocation of the process; `exec.allocs_per_run` is a
/// difference of two readings around the warm loop.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the only addition is
// a relaxed counter increment, which publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations made by the process so far.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Cores the process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Executor threads, load-generator threads and connections: `min(nproc, 2)`.
pub fn threads() -> usize {
    cores().min(2)
}

/// Peak resident set size so far (`VmHWM`), in MB; NaN where `/proc` does
/// not provide it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1e3)
}

/// User plus system CPU time of the whole process so far, in ms (the kernel
/// reports clock ticks of 10 ms); NaN where `/proc` does not provide it.
pub fn cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name may hold spaces; fields are counted after it.
            let rest = s.rsplit_once(')')?.1;
            let mut f = rest.split_whitespace().skip(11);
            let utime: f64 = f.next()?.parse().ok()?;
            let stime: f64 = f.next()?.parse().ok()?;
            Some((utime + stime) * 10.0)
        })
        .unwrap_or(f64::NAN)
}
