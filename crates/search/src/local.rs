//! Local search: ranking candidate schedules of one convolution (§3.3.1).

use neocpu_kernels::conv::{Conv2dParams, ConvSchedule};
use neocpu_tensor::DType;

use crate::cost::{AnalyticalModel, CostModel};

/// One ranked schedule from a local search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedScheme {
    /// The schedule.
    pub schedule: ConvSchedule,
    /// Its (measured or predicted) execution time in seconds.
    pub time: f32,
}

/// Upper bound on the channel block factors a local search considers (the
/// paper lists all factors; capping at the line size keeps the space sane
/// for 2048-channel layers).
const MAX_BLOCK: usize = 64;

/// Local-search configuration.
#[derive(Debug, Clone, Copy)]
pub struct LocalSearchCfg {
    /// If set, the candidate space is first ranked by the analytical model
    /// and only the best `n` candidates are evaluated with the real cost
    /// model — the hybrid mode the harness uses to keep full-model searches
    /// inside a benchmarking time budget.
    pub preselect: Option<usize>,
    /// The model that ranks the preselection. It must describe the machine
    /// the schedules will run on — a 16-lane model preselects only `oc_bn`
    /// 16 schedules, which an 8-lane target runs as scalar code — so a
    /// compile sets it to its target's model.
    pub preselect_model: AnalyticalModel,
    /// Keep at most this many results (the global search only needs the
    /// head of the list; the paper bounds per-CONV pairs at ~100).
    pub keep: usize,
}

impl Default for LocalSearchCfg {
    fn default() -> Self {
        Self {
            preselect: None,
            preselect_model: AnalyticalModel::default(),
            keep: 16,
        }
    }
}

/// Walks the candidate space of one workload and returns schedules sorted
/// by ascending execution time (§3.3.1 steps 1–4).
pub fn local_search(
    params: &Conv2dParams,
    model: &dyn CostModel,
    cfg: &LocalSearchCfg,
) -> Vec<RankedScheme> {
    let mut candidates = ConvSchedule::candidates(params, MAX_BLOCK);
    if let Some(n) = cfg.preselect {
        let priced = rank(params, candidates, |s| cfg.preselect_model.conv_time(params, s));
        candidates = priced.into_iter().take(n).map(|r| r.schedule).collect();
    }
    let mut ranked = rank(params, candidates, |s| model.conv_time(params, s));
    ranked.truncate(cfg.keep.max(1));
    ranked
}

/// The int8 local search: every schedule the u8 template runs on the
/// workload ([`ConvSchedule::candidates_for`] at [`DType::U8`]), priced by
/// [`CostModel::conv_time_i8`], sorted, the best `keep` returned. There is
/// no preselect: the space is what the int8 strip table and
/// [`ConvSchedule::validate_int8`] admit. Empty where the template runs
/// nothing (a dense workload without an input-channel factor divisible by
/// 4).
pub fn local_search_i8(
    params: &Conv2dParams,
    model: &dyn CostModel,
    keep: usize,
) -> Vec<RankedScheme> {
    let candidates = ConvSchedule::candidates_for(params, MAX_BLOCK, DType::U8);
    let mut ranked = rank(params, candidates, |s| model.conv_time_i8(params, s));
    ranked.truncate(keep.max(1));
    ranked
}

/// Prices each candidate once (a row-aware price walks the row's strips)
/// and sorts them by ascending time, stably, so ties keep the generator's
/// order. A non-finite time (NaN from a degenerate measurement, or `+∞`
/// from a model asked for a schedule its kernel cannot run) is a fault:
/// the candidate is dropped with a warning, never sorted or handed to the
/// global search. `total_cmp` instead of `partial_cmp(..).expect(..)`: a
/// panic here would sit between a cost model and a compile result.
fn rank(
    params: &Conv2dParams,
    candidates: Vec<ConvSchedule>,
    time: impl Fn(&ConvSchedule) -> f32,
) -> Vec<RankedScheme> {
    let total = candidates.len();
    let mut ranked: Vec<RankedScheme> = candidates
        .into_iter()
        .map(|schedule| RankedScheme { schedule, time: time(&schedule) })
        .filter(|r| r.time.is_finite())
        .collect();
    if ranked.len() < total {
        eprintln!(
            "warning: local search dropped {} candidate(s) with non-finite cost for \
             {}x{} conv (kept {})",
            total - ranked.len(),
            params.in_channels,
            params.out_channels,
            ranked.len()
        );
    }
    ranked.sort_by(|a, b| a.time.total_cmp(&b.time));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AnalyticalModel;

    #[test]
    fn results_are_sorted_and_valid() {
        let p = Conv2dParams::square(32, 64, 28, 3, 1, 1);
        let r = local_search(&p, &AnalyticalModel::default(), &LocalSearchCfg::default());
        assert!(!r.is_empty());
        assert!(r.len() <= 16);
        for w in r.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        for s in &r {
            s.schedule.validate(&p).unwrap();
        }
    }

    #[test]
    fn preselect_limits_evaluations() {
        // A counting model proves preselect bounds the expensive calls.
        use std::cell::Cell;
        struct Counting(Cell<usize>);
        impl CostModel for Counting {
            fn conv_time(&self, p: &Conv2dParams, s: &ConvSchedule) -> f32 {
                self.0.set(self.0.get() + 1);
                AnalyticalModel::default().conv_time(p, s)
            }
            fn transform_time(&self, _: usize, _: usize, _: usize, _: usize, _: usize) -> f32 {
                0.0
            }
        }
        let p = Conv2dParams::square(64, 64, 28, 3, 1, 1);
        let model = Counting(Cell::new(0));
        let cfg = LocalSearchCfg { preselect: Some(10), ..Default::default() };
        let r = local_search(&p, &model, &cfg);
        assert_eq!(model.0.get(), 10);
        assert!(r.len() <= 10);
    }

    #[test]
    fn preselect_ranks_with_the_configured_target_model() {
        // The measured model only ever sees what the preselect hands it. On
        // an 8-lane (AVX2-class) target those must be the `oc_bn` 8
        // schedules its SIMD tier serves: the default 16-lane model would
        // hand over `oc_bn` 16 ones, which such a target runs as scalar
        // code.
        use neocpu_kernels::conv::simd_strip_exists;
        use std::cell::RefCell;
        struct Recording(RefCell<Vec<ConvSchedule>>);
        impl CostModel for Recording {
            fn conv_time(&self, _: &Conv2dParams, s: &ConvSchedule) -> f32 {
                self.0.borrow_mut().push(*s);
                1.0
            }
            fn transform_time(&self, _: usize, _: usize, _: usize, _: usize, _: usize) -> f32 {
                0.0
            }
        }
        let p = Conv2dParams::square(64, 64, 28, 3, 1, 1);
        let avx2 = AnalyticalModel { vec_lanes: 8, ..AnalyticalModel::default() };
        let seen = |preselect_model| {
            let model = Recording(RefCell::new(Vec::new()));
            let cfg = LocalSearchCfg { preselect: Some(8), preselect_model, ..Default::default() };
            local_search(&p, &model, &cfg);
            model.0.into_inner()
        };
        let narrow = seen(avx2);
        assert_eq!(narrow.len(), 8);
        for s in &narrow {
            assert_eq!(s.oc_bn, 8, "{s:?}");
            assert!(simd_strip_exists(8, s.dataflow, s.reg_n, p.kernel_w, DType::F32), "{s:?}");
        }
        assert!(seen(AnalyticalModel::default()).iter().all(|s| s.oc_bn == 16));
    }

    #[test]
    fn nan_cost_model_never_panics_and_drops_bad_candidates() {
        // A model that returns NaN for every schedule with ic_bn > 1 and a
        // finite time otherwise: the NaN candidates must be dropped, not
        // sorted (the old comparator panicked on them).
        struct Sometimes;
        impl CostModel for Sometimes {
            fn conv_time(&self, _: &Conv2dParams, s: &ConvSchedule) -> f32 {
                if s.ic_bn > 1 {
                    f32::NAN
                } else {
                    s.oc_bn as f32
                }
            }
            fn transform_time(&self, _: usize, _: usize, _: usize, _: usize, _: usize) -> f32 {
                0.0
            }
        }
        let p = Conv2dParams::square(16, 16, 8, 3, 1, 1);
        let r = local_search(&p, &Sometimes, &LocalSearchCfg::default());
        assert!(!r.is_empty());
        for s in &r {
            assert!(s.time.is_finite());
            assert_eq!(s.schedule.ic_bn, 1);
        }

        // All-NaN model: empty result, no panic — upstream synthesizes the
        // fallback schedule.
        struct AlwaysNan;
        impl CostModel for AlwaysNan {
            fn conv_time(&self, _: &Conv2dParams, _: &ConvSchedule) -> f32 {
                f32::NAN
            }
            fn transform_time(&self, _: usize, _: usize, _: usize, _: usize, _: usize) -> f32 {
                f32::NAN
            }
        }
        let r = local_search(&p, &AlwaysNan, &LocalSearchCfg::default());
        assert!(r.is_empty());
        // Preselect path runs the analytical sort first; still no panic.
        let cfg = LocalSearchCfg { preselect: Some(4), ..Default::default() };
        let r = local_search(&p, &AlwaysNan, &cfg);
        assert!(r.is_empty());
    }

    #[test]
    fn int8_search_ranks_only_what_the_u8_template_runs() {
        use neocpu_kernels::conv::simd_strip_exists;
        let m = AnalyticalModel::default();
        let p = Conv2dParams::square(64, 64, 56, 3, 1, 1);
        let r = local_search_i8(&p, &m, usize::MAX);
        assert_eq!(r.len(), ConvSchedule::candidates_for(&p, MAX_BLOCK, DType::U8).len());
        for w in r.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        for s in &r {
            s.schedule.validate_int8(&p).unwrap();
            if s.schedule.oc_bn == 16 {
                let (df, rn) = (s.schedule.dataflow, s.schedule.reg_n);
                assert!(simd_strip_exists(16, df, rn, 3, DType::U8), "{s:?}");
            }
        }
        assert_eq!(local_search_i8(&p, &m, 4).len(), 4);
        // The 3-channel stem has no schedule the template runs.
        let stem = Conv2dParams::square(3, 64, 224, 7, 2, 3);
        assert!(local_search_i8(&stem, &m, 16).is_empty());
    }

    #[test]
    fn analytical_search_selects_shift_reuse_on_stride1_conv() {
        use neocpu_kernels::conv::Dataflow;
        // The dataflow is a searched dimension: on a stride-1 3×3 workload
        // the shift-reuse strip issues fewer loads per FMA, so the
        // analytical winner must be non-output-stationary — and never
        // slower than the best fixed-OS schedule.
        let p = Conv2dParams::square(64, 64, 56, 3, 1, 1);
        let m = AnalyticalModel::default();
        let r = local_search(&p, &m, &LocalSearchCfg::default());
        assert_eq!(r[0].schedule.dataflow, Dataflow::ShiftReuse, "winner: {:?}", r[0].schedule);
        let best_os = r
            .iter()
            .find(|s| s.schedule.dataflow == Dataflow::OutputStationary)
            .expect("output-stationary candidates are always ranked");
        assert!(r[0].time <= best_os.time);
    }

    #[test]
    fn best_schedule_beats_fallback_under_model() {
        let p = Conv2dParams::square(64, 64, 56, 3, 1, 1);
        let m = AnalyticalModel::default();
        let r = local_search(&p, &m, &LocalSearchCfg::default());
        let fallback = ConvSchedule::fallback();
        assert!(r[0].time <= m.conv_time(&p, &fallback));
    }
}
