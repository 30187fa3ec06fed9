//! Thread-pool scalability scenario (Figure 4's axis): run the same model
//! on the custom SPSC fork-join pool and on the OpenMP-style pool at
//! increasing thread counts, and measure the per-region fork-join overhead
//! that separates them.
//!
//! ```text
//! cargo run --release --example scalability [threads...]
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use neocpu::{compile, CompileOptions, CpuTarget, OptLevel, PoolChoice};
use neocpu_models::{build, ModelKind, ModelScale};
use neocpu_tensor::{Layout, Tensor};
use neocpu_threadpool::{OmpLikePool, Parallelism, ThreadPool};

fn region_overhead(pool: &dyn Parallelism, regions: usize) -> f64 {
    let sink = AtomicUsize::new(0);
    let t0 = Instant::now();
    for _ in 0..regions {
        pool.run(pool.num_threads(), &|_, range| {
            sink.fetch_add(range.len(), Ordering::Relaxed);
        });
    }
    t0.elapsed().as_secs_f64() / regions as f64 * 1e6
}

fn main() {
    let threads: Vec<usize> = {
        let args: Vec<usize> =
            std::env::args().skip(1).filter_map(|a| a.parse().ok()).collect();
        if args.is_empty() {
            vec![1, 2, 4]
        } else {
            args
        }
    };

    println!("== per-region fork-join overhead (empty region, µs) ==");
    println!("{:>8}  {:>12}  {:>12}", "threads", "custom pool", "omp-like");
    for &n in &threads {
        let custom = ThreadPool::new(n);
        let omp = OmpLikePool::new(n);
        println!(
            "{n:>8}  {:>12.2}  {:>12.2}",
            region_overhead(&custom, 2000),
            region_overhead(&omp, 2000)
        );
    }

    let kind = ModelKind::ResNet50;
    let scale = ModelScale::tiny(kind);
    let graph = build(kind, scale, 11);
    let input =
        Tensor::random([1, 3, scale.input, scale.input], Layout::Nchw, 3, 1.0).expect("input");
    let target = CpuTarget::host();

    println!("\n== {} images/sec vs threads (batch 1) ==", kind.name());
    println!("{:>8}  {:>12}  {:>12}", "threads", "custom pool", "omp-like");
    for &n in &threads {
        let mut row = Vec::new();
        for pool in [PoolChoice::Custom, PoolChoice::OmpLike] {
            let opts = CompileOptions::level(OptLevel::O2).with_threads(n).with_pool(pool);
            let module = compile(&graph, &target, &opts).expect("compile");
            let _ = module.run(std::slice::from_ref(&input)).expect("warmup");
            let reps = 5;
            let t0 = Instant::now();
            for _ in 0..reps {
                let _ = module.run(std::slice::from_ref(&input)).expect("inference");
            }
            row.push(reps as f64 / t0.elapsed().as_secs_f64());
        }
        println!("{n:>8}  {:>12.2}  {:>12.2}", row[0], row[1]);
    }
    println!(
        "\nNote: thread counts above the host's cores oversubscribe; there the\n\
         overhead gap between the pools is the meaningful signal. Figure 4 is\n\
         measured, not projected, by `paper_tables fig4` (EXPERIMENTS.md E4)."
    );
}
