//! Serving-engine driver: throughput vs concurrency over pooled contexts
//! (EXPERIMENTS.md E8), or `--smoke` for the CI assertions (every request
//! completes, batches coalesce, the health machine walks Ready → Stopped,
//! warm serve cycles allocate nothing — a counting global allocator is
//! installed here so the check is real).
//! Flags: `--smoke`, `--int8` (serve a quantized module through the same
//! engine — batching, deadlines and the zero-alloc warm path must hold on
//! the int8 plan), `--workers N`, `--clients a,b`, `--requests N`,
//! `--batch N`, `--models a,b`, `--full`, `--deadline-ms N` (engine-wide
//! request deadline), `--shed newest|oldest` (full-queue policy),
//! `--json` (single-line machine-readable summary).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn main() {
    let cfg = neocpu_bench::HarnessCfg::from_args();
    if !neocpu_bench::run_serve(&cfg, &|| ALLOCATIONS.load(Ordering::Relaxed)) {
        std::process::exit(1);
    }
}
