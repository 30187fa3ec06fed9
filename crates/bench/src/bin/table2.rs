//! Regenerates Table 2: overall latency of the 15 models under the three
//! software stacks, followed by the int8-vs-f32 conv-layer microbenchmark
//! at the AVX2 lane cap (the dtype dimension of the global search).
//! `--full` for paper-size workloads; `--models`, `--reps`, `--threads`
//! to narrow.
fn main() {
    let cfg = neocpu_bench::HarnessCfg::from_args();
    neocpu_bench::run_table2(&cfg);
}
