//! Regenerates Figure 4: thread-pool strong scaling (custom SPSC pool vs
//! OpenMP-like pool), measured on-host.
fn main() {
    let cfg = neocpu_bench::HarnessCfg::from_args();
    neocpu_bench::run_fig4(&cfg);
}
