//! The multi-model registry: compiles a set of `(model, dtype)` routes,
//! owns one [`ServeEngine`] per route, and answers routing queries for
//! the TCP server. One process serves ResNet-50, Inception-v3, and
//! MobileNet (plus int8 variants of the quantized zoo) from independent
//! engines — each with its own batch memory plan and worker pool on its
//! own reserved cores, so a slow model cannot head-of-line block a fast
//! one and two routes never contend for the same core.
//!
//! Routes whose planned working set is small next to the heaviest route
//! get an [`LatencyClass::Interactive`] engine: it never holds a partial
//! batch waiting for more rows, so a lone request to a small model runs at
//! once. The heavy routes stay `Bulk` and coalesce.

use std::sync::Arc;
use std::time::Duration;

use neocpu::{
    compile, compile_quantized, CompileOptions, CpuTarget, EngineHealth, LatencyClass, Module,
    NeoError, OptLevel, PoolChoice, QuantizeOptions, Result, ServeEngine, ServeOptions,
    ServeReport,
};
use neocpu_models::{build, quantized_zoo, ModelKind, ModelScale};

use crate::codec::WireDtype;

/// Everything needed to compile one registry route deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelSpec {
    /// The architecture.
    pub kind: ModelKind,
    /// The numeric precision the route serves.
    pub dtype: WireDtype,
    /// Workload scale (including the serving batch size).
    pub scale: ModelScale,
    /// Weight seed (42 everywhere in serving, so a route's weights are the
    /// same in every process that builds it).
    pub seed: u64,
}

impl ModelSpec {
    /// The standard serving spec: seed 42, tiny or full scale, compiled at
    /// batch `batch` so the engine's dynamic batcher has headroom.
    pub fn serving(kind: ModelKind, dtype: WireDtype, full: bool, batch: usize) -> Self {
        let scale = if full { ModelScale::full(kind) } else { ModelScale::tiny(kind) };
        Self { kind, dtype, scale: scale.with_batch(batch.max(1)), seed: 42 }
    }

    /// Compiles the spec the way serving always has (O2, sequential
    /// in-module pool — the engine's workers are the parallelism). Returns
    /// the module and the number of convs on the int8 path (0 for f32).
    ///
    /// # Errors
    ///
    /// Fails if compilation fails, or — for int8 specs — if the accuracy
    /// gate rejected the quantized module or quantized no convs at all.
    pub fn compile(&self) -> Result<(Arc<Module>, usize)> {
        let graph = build(self.kind, self.scale, self.seed);
        let opts = CompileOptions::level(OptLevel::O2).with_pool(PoolChoice::Sequential);
        match self.dtype {
            WireDtype::F32 => Ok((Arc::new(compile(&graph, &CpuTarget::host(), &opts)?), 0)),
            WireDtype::Int8 => {
                let (module, report) = compile_quantized(
                    &graph,
                    &CpuTarget::host(),
                    &opts,
                    &QuantizeOptions::default(),
                )?;
                if report.fell_back {
                    return Err(NeoError::Config(format!(
                        "{}: int8 accuracy gate rejected the quantized module (err {})",
                        self.kind.name(),
                        report.max_abs_error
                    )));
                }
                if report.quantized == 0 {
                    return Err(NeoError::Config(format!(
                        "{}: int8 route quantized no convs",
                        self.kind.name()
                    )));
                }
                Ok((Arc::new(module), report.quantized))
            }
        }
    }
}

/// One live route: a spec, its engine, and the wire sizes the server needs
/// to pre-size its per-connection buffers.
#[derive(Debug)]
pub struct RegistryEntry {
    /// The route's compile spec.
    pub spec: ModelSpec,
    /// The compiled module the engine executes — kept so callers (tests,
    /// benches) can run reference inferences without recompiling.
    pub module: Arc<Module>,
    /// The engine executing this route.
    pub engine: ServeEngine,
    /// The latency class of this route's engine.
    pub latency_class: LatencyClass,
    /// Exact per-request input payload size: one image as LE `f32` bytes.
    pub input_bytes: usize,
    /// Size of an `Ok` response payload: argmax `u32` + one score row.
    pub output_bytes: usize,
    /// Convs on the int8 path in this route's module (0 for f32 routes).
    pub quantized_convs: usize,
}

/// The default serving trio (f32), plus int8 variants of the quantized zoo
/// when `int8` is set — the routes `netbench --serve` serves from one
/// process and `netbench --addr` drives.
pub fn default_specs(int8: bool, full: bool, batch: usize) -> Vec<ModelSpec> {
    let mut specs: Vec<ModelSpec> =
        [ModelKind::ResNet50, ModelKind::InceptionV3, ModelKind::MobileNet]
            .into_iter()
            .map(|kind| ModelSpec::serving(kind, WireDtype::F32, full, batch))
            .collect();
    if int8 {
        // Only the validated int8 deployments; Inception has no entry in
        // the quantized zoo, so its int8 route would fail the accuracy gate
        // audit that quantized_zoo() encodes.
        for kind in quantized_zoo() {
            specs.push(ModelSpec::serving(kind, WireDtype::Int8, full, batch));
        }
    }
    specs
}

/// A set of live routes, each backed by its own [`ServeEngine`].
#[derive(Debug)]
pub struct ModelRegistry {
    entries: Vec<RegistryEntry>,
}

impl ModelRegistry {
    /// Compiles every spec and starts one engine per route.
    ///
    /// # Errors
    ///
    /// Fails on a compile error, a duplicate `(model, dtype)` route, or an
    /// empty spec list.
    pub fn compile(specs: &[ModelSpec], opts: &ServeOptions) -> Result<Self> {
        let mut modules = Vec::with_capacity(specs.len());
        for spec in specs {
            let (module, quantized) = spec.compile()?;
            modules.push((*spec, module, quantized));
        }
        Self::from_compiled(modules, opts)
    }

    /// Builds a registry from already-compiled modules — the test suites
    /// compile each tiny module once and share it across many registries.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ModelRegistry::compile`], minus compilation.
    pub fn from_modules(
        modules: Vec<(ModelSpec, Arc<Module>)>,
        opts: &ServeOptions,
    ) -> Result<Self> {
        Self::from_compiled(modules.into_iter().map(|(spec, m)| (spec, m, 0)).collect(), opts)
    }

    fn from_compiled(
        modules: Vec<(ModelSpec, Arc<Module>, usize)>,
        opts: &ServeOptions,
    ) -> Result<Self> {
        if modules.is_empty() {
            return Err(NeoError::Config("registry needs at least one route".into()));
        }
        // A route is "small" when its planned working set is at most half
        // of the heaviest route's: its engine is interactive, so its
        // batches never wait out the batch timeout for more rows.
        let max_peak = modules
            .iter()
            .map(|(_, m, _)| m.memory_report().planned_peak_bytes)
            .max()
            .unwrap_or(0);
        let mut entries: Vec<RegistryEntry> = Vec::with_capacity(modules.len());
        for (spec, module, quantized_convs) in modules {
            if entries
                .iter()
                .any(|e| e.spec.kind == spec.kind && e.spec.dtype == spec.dtype)
            {
                return Err(NeoError::Config(format!(
                    "duplicate route {} {}",
                    spec.kind.name(),
                    spec.dtype
                )));
            }
            let row_elems = |shape: &neocpu_tensor::Shape| {
                shape.dims().iter().skip(1).product::<usize>().max(1)
            };
            let input_bytes = module
                .input_shapes()
                .first()
                .map(row_elems)
                .ok_or_else(|| NeoError::Config("module has no input".into()))?
                * 4;
            let output_bytes = 4 + module
                .output_shapes()
                .first()
                .map(row_elems)
                .ok_or_else(|| NeoError::Config("module has no output".into()))?
                * 4;
            let small = module.memory_report().planned_peak_bytes * 2 <= max_peak;
            let latency_class = if opts.latency_class == LatencyClass::Bulk && small {
                LatencyClass::Interactive
            } else {
                opts.latency_class
            };
            let route_opts = ServeOptions { latency_class, ..opts.clone() };
            let engine = ServeEngine::new(Arc::clone(&module), &route_opts)?;
            entries.push(RegistryEntry {
                spec,
                module,
                engine,
                latency_class,
                input_bytes,
                output_bytes,
                quantized_convs,
            });
        }
        Ok(Self { entries })
    }

    /// The live routes, in spec order.
    pub fn entries(&self) -> &[RegistryEntry] {
        &self.entries
    }

    /// Looks up the route for `(kind, dtype)`. Allocation-free — this is
    /// on the warm per-request path.
    pub fn route(&self, kind: ModelKind, dtype: WireDtype) -> Option<&RegistryEntry> {
        self.entries.iter().find(|e| e.spec.kind == kind && e.spec.dtype == dtype)
    }

    /// Index of the route for `(kind, dtype)` — lets a connection map a
    /// frame onto its pre-allocated per-route request slot without
    /// touching the heap.
    pub fn route_index(&self, kind: ModelKind, dtype: WireDtype) -> Option<usize> {
        self.entries.iter().position(|e| e.spec.kind == kind && e.spec.dtype == dtype)
    }

    /// Largest input payload across routes — the server sizes each
    /// connection's read buffer to this once.
    pub fn max_input_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.input_bytes).max().unwrap_or(0)
    }

    /// Largest `Ok` payload across routes — sizes the write buffer.
    pub fn max_output_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.output_bytes).max().unwrap_or(0)
    }

    /// Aggregate health: `Ready` only when every engine is ready, `Stopped`
    /// when all have stopped, `Starting` while any is still starting, and
    /// `Draining` for any mixed or draining state.
    pub fn health(&self) -> EngineHealth {
        let mut all_ready = true;
        let mut all_stopped = true;
        let mut any_starting = false;
        for e in &self.entries {
            match e.engine.health() {
                EngineHealth::Ready => all_stopped = false,
                EngineHealth::Stopped => all_ready = false,
                EngineHealth::Starting => {
                    any_starting = true;
                    all_ready = false;
                    all_stopped = false;
                }
                EngineHealth::Draining => {
                    all_ready = false;
                    all_stopped = false;
                }
            }
        }
        if all_ready {
            EngineHealth::Ready
        } else if all_stopped {
            EngineHealth::Stopped
        } else if any_starting {
            EngineHealth::Starting
        } else {
            EngineHealth::Draining
        }
    }

    /// Drains every route **concurrently**, each against the full
    /// `budget`. The previous sequential drain handed each route only the
    /// time its predecessors left over, so the last route of a busy
    /// registry could get a zero budget and hard-cancel all queued work;
    /// now every route races the same clock and the whole registry stops
    /// within one budget. Idempotent.
    pub fn shutdown_within(&self, budget: Duration) {
        std::thread::scope(|s| {
            for e in &self.entries {
                s.spawn(move || e.engine.shutdown_within(budget));
            }
        });
    }

    /// Unbounded concurrent drain of every engine. Idempotent.
    pub fn shutdown(&self) {
        std::thread::scope(|s| {
            for e in &self.entries {
                s.spawn(move || e.engine.shutdown());
            }
        });
    }

    /// Per-route serve reports, parallel to [`ModelRegistry::entries`].
    pub fn reports(&self) -> Vec<(ModelSpec, ServeReport)> {
        self.entries.iter().map(|e| (e.spec, e.engine.report())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_specs_cover_the_trio_and_int8_variants() {
        let f32_only = default_specs(false, false, 4);
        assert_eq!(f32_only.len(), 3);
        assert!(f32_only.iter().all(|s| s.dtype == WireDtype::F32));
        let with_int8 = default_specs(true, false, 4);
        assert_eq!(with_int8.len(), 3 + quantized_zoo().len());
        assert!(with_int8
            .iter()
            .filter(|s| s.dtype == WireDtype::Int8)
            .all(|s| quantized_zoo().contains(&s.kind)));
    }

    #[test]
    fn duplicate_routes_are_rejected() {
        let spec = ModelSpec::serving(ModelKind::MobileNet, WireDtype::F32, false, 1);
        let (module, _) = spec.compile().expect("tiny MobileNet compiles");
        let err = ModelRegistry::from_modules(
            vec![(spec, Arc::clone(&module)), (spec, module)],
            &ServeOptions { workers: 1, ..Default::default() },
        )
        .expect_err("duplicate route must be rejected");
        assert!(matches!(err, NeoError::Config(_)), "{err}");
    }

    #[test]
    fn registry_routes_and_sizes_and_drains() {
        let spec = ModelSpec::serving(ModelKind::MobileNet, WireDtype::F32, false, 2);
        let (module, _) = spec.compile().expect("tiny MobileNet compiles");
        let registry = ModelRegistry::from_modules(
            vec![(spec, module)],
            &ServeOptions { workers: 1, ..Default::default() },
        )
        .expect("registry starts");
        assert_eq!(registry.health(), EngineHealth::Ready);
        let entry = registry.route(ModelKind::MobileNet, WireDtype::F32).expect("route exists");
        // Tiny MobileNet input is 3×64×64 f32 per image.
        assert_eq!(entry.input_bytes, 3 * 64 * 64 * 4);
        // 10 classes → argmax + 10 scores.
        assert_eq!(entry.output_bytes, 4 + 10 * 4);
        assert!(registry.route(ModelKind::MobileNet, WireDtype::Int8).is_none());
        assert!(registry.route(ModelKind::ResNet50, WireDtype::F32).is_none());
        assert_eq!(registry.route_index(ModelKind::MobileNet, WireDtype::F32), Some(0));
        registry.shutdown_within(Duration::from_secs(5));
        assert_eq!(registry.health(), EngineHealth::Stopped);
    }

    #[test]
    fn small_routes_are_interactive_unless_every_route_is() {
        let small = ModelSpec::serving(ModelKind::MobileNet, WireDtype::F32, false, 1);
        let big = ModelSpec::serving(ModelKind::ResNet50, WireDtype::F32, false, 4);
        let modules = vec![
            (small, small.compile().expect("tiny MobileNet compiles").0),
            (big, big.compile().expect("tiny ResNet-50 compiles").0),
        ];
        let peak = |i: usize| modules[i].1.memory_report().planned_peak_bytes;
        assert!(peak(1) > 2 * peak(0), "ResNet-50 at batch 4 must dwarf MobileNet at batch 1");
        let classes = |opts: &ServeOptions| {
            let registry = ModelRegistry::from_modules(modules.clone(), opts).expect("starts");
            let classes: Vec<_> = registry.entries().iter().map(|e| e.latency_class).collect();
            registry.shutdown();
            classes
        };
        let opts = ServeOptions { workers: 1, ..Default::default() };
        assert_eq!(classes(&opts), [LatencyClass::Interactive, LatencyClass::Bulk]);
        let all_interactive = ServeOptions { latency_class: LatencyClass::Interactive, ..opts };
        assert_eq!(classes(&all_interactive), [LatencyClass::Interactive; 2]);
    }

    #[test]
    fn empty_registry_is_a_config_error() {
        let err = ModelRegistry::from_modules(Vec::new(), &ServeOptions::default())
            .expect_err("empty registry must fail");
        assert!(matches!(err, NeoError::Config(_)));
    }
}
