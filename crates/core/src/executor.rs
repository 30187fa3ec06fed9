//! The module executor: a topological interpreter over the compiled graph,
//! running on statically planned memory.
//!
//! At compile time the memory planner (`crate::memory`) assigns every
//! intermediate value an offset into a single 64-byte-aligned arena, with
//! in-place reuse (Relu/Flatten/residual-Add) decided by liveness
//! analysis rather than runtime reference juggling. A [`RunContext`] holds
//! that arena plus one prebuilt tensor *view* per node, so a warm inference
//! performs **zero heap allocations** for intermediates: kernels write
//! straight into planned slices, conv padding lands in planned scratch, and
//! fully-overwritten outputs skip the memset a fresh `Tensor::zeros` would
//! pay.
//!
//! [`Module::run`] keeps its shareable `&self` signature by pooling
//! contexts behind a mutex; latency-critical callers create their own via
//! [`Module::make_context`] and drive [`Module::run_with`] directly.
//!
//! **A module planned at batch B runs any n ∈ 1..=B rows.** Every value of
//! an `NCHW[x]c`/`NC` module puts the batch dimension outermost, so an
//! n-row run reads and writes only the first n rows' prefix of each planned
//! region, and no kernel's arithmetic on a row depends on N (conv jobs are
//! `(n, chunk, row)`; padded-input scratch is linear in N). A context holds
//! one view table per row count, built once, so an n-row run is as
//! allocation-free as a full one and its rows are bit-identical to the same
//! rows of a B-row run. The serving engine runs a formed batch of n
//! requests this way instead of padding it to B.
//!
//! Every node executes inside a **panic boundary**: an unwind out of kernel
//! or thread-pool code is caught and converted into
//! [`NeoError::Panicked`] with the node's identity, leaving the module and
//! its pool (and the borrowed context) reusable for the next request.
//! Kernel and tensor errors are likewise enriched with node context
//! ([`NeoError::AtNode`]) on their way out.
//!
//! One node loop and one node dispatch serve two storage strategies: the
//! planned arena views, and [`Module::run_reference`]'s fresh tensor per
//! node with no in-place reuse and no planned scratch — the correctness
//! oracle the plan is tested against. A per-node hook on that loop (node
//! id, value, wall time) is how [`Module::run_profiled`] times operators
//! and int8 calibration reads activation ranges from the arena run.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use neocpu_graph::{Graph, Op};
use neocpu_kernels::conv::{
    conv2d_nchw_direct, conv2d_nchwc, conv2d_nchwc_u8, ConvQuant, Epilogue,
};
use neocpu_kernels::elementwise::{add, add_assign, concat_channels, relu_inplace, scale_shift};
use neocpu_kernels::pool2d::{global_avg_pool, pool2d};
use neocpu_kernels::quantize::{f32_slice_as_u8_mut, quantize_slice_par};
use neocpu_kernels::{dense, padded_input_len, softmax};
use neocpu_tensor::{
    transform::to_layout_into,
    Arena, DType, Layout, Shape, Tensor,
};
use neocpu_threadpool::{panic_message, Parallelism};

use crate::memory::{plan_memory, MemoryPlan, MemoryReport};
use crate::{NeoError, Result};

/// Distinguishes modules so a [`RunContext`] can never be replayed against
/// a module it was not planned for.
static NEXT_MODULE_UID: AtomicU64 = AtomicU64::new(1);

/// Aggregated wall time of one operator kind during a profiled inference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpProfile {
    /// Operator name (e.g. `"conv2d"`, `"layout_transform"`).
    pub op: &'static str,
    /// Number of nodes of this kind executed.
    pub count: usize,
    /// Total wall time across those nodes, milliseconds.
    pub total_ms: f64,
}

/// Reusable per-inference execution state: the planned arena and, per row
/// count, one tensor view per node at its planned offset.
///
/// Create with [`Module::make_context`], drive with [`Module::run_with`].
/// Creation allocates (the arena and the view tables); every run afterwards
/// allocates nothing. A context is bound to the module that made it.
pub struct RunContext {
    module_uid: u64,
    arena: Arc<Arena>,
    /// `values[n - 1]` holds one view per node for an n-row run, at the
    /// node's planned offset with its inferred shape/layout, leading dim n.
    /// Aliased views (Flatten/in-place ops) share offsets by plan;
    /// the executor only ever *accesses* disjoint ones.
    values: Vec<Vec<Tensor>>,
    /// Row count of the most recent run: the table [`RunContext::outputs`]
    /// reads.
    rows: usize,
    output_ids: Vec<usize>,
    /// Reusable fan-in pointer buffer for `Concat` nodes, sized at context
    /// creation to the widest concat so warm runs never reallocate it.
    /// Holds no pointers outside a single node's execution (cleared after
    /// use), which is what makes the `Send` impl below sound.
    fanin: Vec<*const Tensor>,
}

// SAFETY: every field but `fanin` is `Send` by composition (`Arc<Arena>`
// and arena-view tensors are `Send + Sync`). `fanin` is an empty scratch
// buffer whenever the context is at rest — pointers are written and
// cleared within one `exec_node` call — so moving the context
// across threads never moves live aliases.
unsafe impl Send for RunContext {}

impl RunContext {
    /// Views of the graph outputs from the most recent successful
    /// [`Module::run_with`] on this context, with that run's row count.
    ///
    /// The views borrow the context's arena: they are valid until the next
    /// run reuses the storage. Clone a view to detach a snapshot.
    pub fn outputs(&self) -> Vec<&Tensor> {
        self.output_ids.iter().map(|&o| &self.values[self.rows - 1][o]).collect()
    }

    /// View of output `i`, if it exists (see [`RunContext::outputs`]).
    pub fn output(&self, i: usize) -> Option<&Tensor> {
        self.output_ids.get(i).map(|&o| &self.values[self.rows - 1][o])
    }

    /// Size of the planned arena in bytes (the module's peak intermediate
    /// memory).
    pub fn arena_bytes(&self) -> usize {
        self.arena.len() * 4
    }
}

impl std::fmt::Debug for RunContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunContext")
            .field("arena_bytes", &self.arena_bytes())
            .field("values", &self.values[0].len())
            .field("row_counts", &self.values.len())
            .finish()
    }
}

/// A compiled, executable model.
pub struct Module {
    graph: Graph,
    shapes: Vec<Shape>,
    layouts: Vec<Layout>,
    dtypes: Vec<DType>,
    pool: Arc<dyn Parallelism>,
    max_lanes: usize,
    plan: MemoryPlan,
    uid: u64,
    /// Idle contexts for [`Module::run`]; popped per call, pushed back
    /// after (also on error — a failed run leaves a context reusable).
    contexts: Mutex<Vec<RunContext>>,
}

impl Module {
    pub(crate) fn new(
        graph: Graph,
        shapes: Vec<Shape>,
        layouts: Vec<Layout>,
        dtypes: Vec<DType>,
        pool: Arc<dyn Parallelism>,
        max_lanes: usize,
    ) -> Result<Self> {
        let plan = plan_memory(&graph, &shapes, &layouts, &dtypes)?;
        Ok(Self {
            graph,
            shapes,
            layouts,
            dtypes,
            pool,
            max_lanes,
            plan,
            uid: NEXT_MODULE_UID.fetch_add(1, Ordering::Relaxed),
            contexts: Mutex::new(Vec::new()),
        })
    }

    /// The optimized graph this module executes.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Replaces the executor's thread pool (benchmark instrumentation).
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<dyn Parallelism>) -> Self {
        self.pool = pool;
        self
    }

    /// Number of `LayoutTransform` nodes on the inference path (the §3.2
    /// metric the ablation reports).
    pub fn transform_count(&self) -> usize {
        self.graph.transform_count()
    }

    /// Executors participating in parallel regions.
    pub fn threads(&self) -> usize {
        self.pool.num_threads()
    }

    /// The static memory plan's statistics (planned peak vs. naive
    /// allocation, reuse decisions, scratch reservation).
    pub fn memory_report(&self) -> &MemoryReport {
        &self.plan.report
    }

    /// Declared shapes of the graph's `Input` nodes, in consumption order
    /// (the order [`Module::run`] matches its `inputs` slice against).
    pub fn input_shapes(&self) -> Vec<Shape> {
        self.graph
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, Op::Input { .. }))
            .map(|(id, _)| self.shapes[id].clone())
            .collect()
    }

    /// Shapes of the graph outputs, in output order.
    pub fn output_shapes(&self) -> Vec<Shape> {
        self.graph.outputs.iter().map(|&o| self.shapes[o].clone()).collect()
    }

    /// Layouts the graph's `Input` nodes expect, parallel to
    /// [`Module::input_shapes`].
    pub(crate) fn input_layouts(&self) -> Vec<Layout> {
        self.graph
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, Op::Input { .. }))
            .map(|(id, _)| self.layouts[id])
            .collect()
    }

    /// Layouts of the graph outputs, parallel to [`Module::output_shapes`].
    pub(crate) fn output_layouts(&self) -> Vec<Layout> {
        self.graph.outputs.iter().map(|&o| self.layouts[o]).collect()
    }

    /// The module's unique id (contexts and serve requests are bound to it).
    pub(crate) fn uid(&self) -> u64 {
        self.uid
    }

    /// Creates a fresh execution context for this module.
    ///
    /// This is the only allocating step of steady-state serving: allocate
    /// one context per concurrent in-flight inference, then reuse it via
    /// [`Module::run_with`] for allocation-free runs. ([`Module::run`] does
    /// exactly that internally with a pooled context.)
    pub fn make_context(&self) -> RunContext {
        let arena = Arena::new(self.plan.arena_len);
        let batch = self.plan.report.batch;
        let values: Vec<Vec<Tensor>> = (1..=batch)
            .map(|rows| {
                (0..self.graph.len())
                    .map(|id| {
                        // SAFETY: the planner guarantees that views which
                        // are ever accessed simultaneously occupy disjoint
                        // arena ranges (verified at plan time); an n-row
                        // view is a prefix of its region, and in-bounds is
                        // re-checked here.
                        unsafe {
                            Tensor::arena_view_dtyped(
                                arena.clone(),
                                self.plan.offsets[id],
                                with_rows(&self.shapes[id], batch, rows),
                                self.layouts[id],
                                self.dtypes[id],
                            )
                        }
                        .expect("planned arena view was validated at compile time")
                    })
                    .collect()
            })
            .collect();
        let max_fanin = self
            .graph
            .nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Concat))
            .map(|n| n.inputs.len())
            .max()
            .unwrap_or(0);
        RunContext {
            module_uid: self.uid,
            arena,
            values,
            rows: batch,
            output_ids: self.graph.outputs.clone(),
            fanin: Vec::with_capacity(max_fanin),
        }
    }

    /// Runs one inference and reports per-operator wall time, aggregated by
    /// operator name — the profile that shows where transforms and CONVs
    /// spend the inference budget.
    ///
    /// # Errors
    ///
    /// Returns an error on input mismatch or kernel failure.
    pub fn run_profiled(&self, inputs: &[Tensor]) -> Result<(Vec<Tensor>, Vec<OpProfile>)> {
        let mut per_op: std::collections::HashMap<&'static str, OpProfile> =
            std::collections::HashMap::new();
        let outputs = self.run_hooked(inputs, Some(&mut |id, _, secs| {
            let op = self.graph.nodes[id].op.name();
            let e = per_op.entry(op).or_insert(OpProfile { op, count: 0, total_ms: 0.0 });
            e.count += 1;
            e.total_ms += secs * 1e3;
        }))?;
        let mut profiles: Vec<OpProfile> = per_op.into_values().collect();
        profiles.sort_by(|a, b| b.total_ms.total_cmp(&a.total_ms));
        Ok((outputs, profiles))
    }

    /// Runs one inference.
    ///
    /// `inputs` are matched to the graph's `Input` nodes in id order and
    /// must be `NCHW` (rank 4) or `NC` (rank 2) tensors of the declared
    /// shapes, except that the leading (batch) dim may be any n in `1..=B`
    /// for a module planned at batch B: the run then computes exactly n
    /// rows, each bit-identical to the same row of a B-row run. All inputs
    /// must share n; surplus tensors are rejected.
    ///
    /// Internally borrows a pooled [`RunContext`], so intermediates cost
    /// zero allocations on warm runs; only the returned output tensors are
    /// fresh copies (detached from the context so the next run cannot
    /// overwrite them).
    ///
    /// # Errors
    ///
    /// Returns an error on input mismatch or kernel failure. A panic in
    /// kernel or thread-pool code is caught at the per-node boundary and
    /// returned as [`NeoError::Panicked`]; the module stays usable.
    pub fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        self.run_hooked(inputs, None)
    }

    /// [`Module::run`] with an optional per-node hook (see
    /// [`Module::run_nodes`]). Profiling and int8 calibration observe the
    /// arena run through it.
    pub(crate) fn run_hooked(
        &self,
        inputs: &[Tensor],
        hook: Option<NodeHook<'_>>,
    ) -> Result<Vec<Tensor>> {
        let pooled =
            self.contexts.lock().unwrap_or_else(std::sync::PoisonError::into_inner).pop();
        let mut ctx = pooled.unwrap_or_else(|| self.make_context());
        let result = self.run_ctx(&mut ctx, inputs, hook);
        let outputs = result.map(|()| ctx.outputs().into_iter().cloned().collect());
        self.contexts.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(ctx);
        outputs
    }

    /// Runs one inference on a caller-owned context, allocation-free.
    ///
    /// Outputs stay inside `ctx` as arena views — read them with
    /// [`RunContext::outputs`] / [`RunContext::output`] before the next run
    /// on the same context overwrites the storage.
    ///
    /// # Errors
    ///
    /// As [`Module::run`]; additionally rejects a context created by a
    /// different module. After an error the context remains reusable.
    pub fn run_with(&self, ctx: &mut RunContext, inputs: &[Tensor]) -> Result<()> {
        self.run_ctx(ctx, inputs, None)
    }

    /// Runs one inference through the **reference storage strategy**: every
    /// node output is a freshly allocated tensor ([`Tensor::uninit`] — all
    /// kernels overwrite their outputs in full), nothing is reused in
    /// place, and all values live to the end of the run.
    ///
    /// This is the oracle the static memory plan is validated against: for
    /// any module and inputs, [`Module::run`] must produce **bit-identical**
    /// outputs to this method (same kernels, same order — only the storage
    /// strategy differs). It takes the declared shapes only: the n-row runs
    /// of [`Module::run`] are held to the B-row run instead.
    ///
    /// # Errors
    ///
    /// As [`Module::run`].
    pub fn run_reference(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        let mut values = Vec::with_capacity(self.graph.len());
        self.run_nodes(Values::Fresh(&mut values), &mut Vec::new(), inputs, None)?;
        Ok(self.graph.outputs.iter().map(|&o| values[o].clone()).collect())
    }

    fn run_ctx(
        &self,
        ctx: &mut RunContext,
        inputs: &[Tensor],
        hook: Option<NodeHook<'_>>,
    ) -> Result<()> {
        if ctx.module_uid != self.uid {
            return Err(NeoError::BadInput(
                "RunContext was created by a different Module".into(),
            ));
        }
        // The first input picks the row count; every `Input` node then
        // holds its tensor to that count's view shape, so inputs that
        // disagree on n are rejected there.
        let batch = ctx.values.len();
        let rows = inputs.first().map_or(batch, |t| t.shape().dims().first().copied().unwrap_or(0));
        if rows == 0 || rows > batch {
            return Err(NeoError::BadInput(format!(
                "input #0 has {rows} rows; this module runs 1..={batch} rows"
            )));
        }
        ctx.rows = rows;
        let values = Values::Planned { views: &mut ctx.values[rows - 1], arena: &ctx.arena };
        self.run_nodes(values, &mut ctx.fanin, inputs, hook)
    }

    /// The node loop of both storage strategies. Every node runs inside a
    /// panic boundary: an unwind from kernel code (including one re-raised
    /// by the pool's own containment) becomes a typed error instead of
    /// tearing down the serving thread. `hook` sees each node's id, value
    /// and wall time in seconds as soon as the node has run — before an
    /// in-place consumer can overwrite that value.
    fn run_nodes(
        &self,
        mut values: Values<'_>,
        fanin: &mut Vec<*const Tensor>,
        inputs: &[Tensor],
        mut hook: Option<NodeHook<'_>>,
    ) -> Result<()> {
        #[cfg(feature = "fault-injection")]
        let pool_wrap = crate::faults::WorkerFaultPar(&*self.pool);
        #[cfg(feature = "fault-injection")]
        let par: &dyn Parallelism = &pool_wrap;
        #[cfg(not(feature = "fault-injection"))]
        let par: &dyn Parallelism = &*self.pool;
        let mut feed = Feed { inputs, next_input: 0, par, fanin };

        for (id, node) in self.graph.nodes.iter().enumerate() {
            let t0 = hook.is_some().then(std::time::Instant::now);
            let unwound = panic::catch_unwind(AssertUnwindSafe(|| match &mut values {
                Values::Planned { views, arena } => {
                    // Split so earlier values stay readable while this
                    // node's view is written: planner disjointness makes the
                    // aliased cases (in-place, Flatten) never touch
                    // both sides at once.
                    let (before, rest) = views.split_at_mut(id);
                    let scratch = self.plan.scratch[id].map(|off| (&**arena, off));
                    let inplace = self.plan.inplace[id];
                    self.exec_node(id, before, &mut rest[0], inplace, scratch, &mut feed)
                }
                Values::Fresh(values) => {
                    let mut out = Tensor::uninit_dtyped(
                        self.shapes[id].clone(),
                        self.layouts[id],
                        self.dtypes[id],
                    )?;
                    self.exec_node(id, values, &mut out, None, None, &mut feed)?;
                    values.push(out);
                    Ok(())
                }
            }));
            match unwound {
                Ok(Ok(())) => {}
                Ok(Err(e)) => return Err(at_node(id, node.op.name(), e)),
                Err(payload) => {
                    return Err(NeoError::Panicked {
                        node: id,
                        op: node.op.name(),
                        message: panic_message(payload.as_ref()),
                    })
                }
            }
            if let (Some(h), Some(t0)) = (hook.as_deref_mut(), t0) {
                let value = match &values {
                    Values::Planned { views, .. } => &views[id],
                    Values::Fresh(values) => &values[id],
                };
                h(id, value, t0.elapsed().as_secs_f64());
            }
        }

        if feed.next_input != inputs.len() {
            return Err(NeoError::BadInput(format!(
                "graph consumes {} input tensor(s) but {} were provided",
                feed.next_input,
                inputs.len()
            )));
        }
        Ok(())
    }

    /// Executes node `id` into `out`, reading its operands from `before`
    /// (the values of nodes `0..id`). `inplace` and `scratch` are the
    /// plan's decisions for this node — which input `out` aliases, and the
    /// arena region for padded input — or `None` on the reference path,
    /// where the aliasing ops copy and convs pad into their own buffer.
    /// Called inside the per-node panic boundary of [`Module::run_nodes`].
    fn exec_node(
        &self,
        id: usize,
        before: &[Tensor],
        out: &mut Tensor,
        inplace: Option<usize>,
        scratch: Option<(&Arena, usize)>,
        feed: &mut Feed<'_>,
    ) -> Result<()> {
        let g = &self.graph;
        let node = &g.nodes[id];
        let par = feed.par;
        if !matches!(node.op, Op::Input { .. } | Op::LayoutTransform { .. }) {
            crate::faults::fire(crate::faults::KERNEL_ENTRY)?;
        }
        // The ops that allocated a fresh output buffer in the pre-planned
        // executor keep their allocation failpoint, now modelling "output
        // region acquisition" so fault tests exercise the same sites.
        if matches!(
            node.op,
            Op::Conv2d { .. }
                | Op::ScaleShift { .. }
                | Op::Pool { .. }
                | Op::GlobalAvgPool
                | Op::Add
                | Op::Concat
                | Op::Dense { .. }
                | Op::Softmax
                | Op::Quantize { .. }
        ) {
            crate::faults::fire(crate::faults::TENSOR_ALLOC)?;
        }
        match &node.op {
            Op::Input { shape } => {
                let i = feed.next_input;
                let t = feed
                    .inputs
                    .get(i)
                    .ok_or_else(|| NeoError::BadInput(format!("missing input #{i}")))?;
                feed.next_input += 1;
                // `out` is this run's view: the declared shape at n rows.
                if t.shape() != out.shape() {
                    return Err(NeoError::BadInput(format!(
                        "input #{i} has shape {}, expected {} (declared {shape:?})",
                        t.shape(),
                        out.shape(),
                    )));
                }
                if t.layout() != self.layouts[id] {
                    return Err(NeoError::BadInput(format!(
                        "input #{i} must be {}, got {}",
                        self.layouts[id],
                        t.layout()
                    )));
                }
                out.data_mut().copy_from_slice(t.data());
            }
            Op::Conv2d { params, weight, bias, schedule, relu, residual, quant, requant } => {
                let x = &before[node.inputs[0]];
                let res = residual.then(|| &before[node.inputs[1]]);
                let bias_data = bias.map(|b| g.params[b].data());
                let epi =
                    Epilogue { bias: bias_data, relu: *relu, residual: res, requant: *requant };
                // The planned scratch holds B rows of padded input; this
                // run pads the prefix its own rows need.
                let pad_len = |ic_bn| padded_input_len(params, ic_bn, x.shape().dims()[0]);
                match (schedule, quant) {
                    (Some(s), Some(q)) => {
                        // SAFETY: as below; the planner reserved the region
                        // in u8 elements for a quantized conv's input, so
                        // reinterpret the f32 slots and trim to exact size.
                        let scratch = scratch.map(|(arena, off)| {
                            let len = pad_len(s.ic_bn);
                            let slots = DType::U8.slots(len);
                            let raw = unsafe { arena.slice_mut(off, slots) };
                            &mut f32_slice_as_u8_mut(raw)[..len]
                        });
                        let cq = ConvQuant {
                            mult: g.params[q.mult].data(),
                            zero_point: q.in_zp,
                        };
                        conv2d_nchwc_u8(
                            x,
                            &g.params[*weight],
                            out,
                            params,
                            s,
                            &cq,
                            &epi,
                            par,
                            self.max_lanes,
                            scratch,
                        )?;
                    }
                    (None, Some(_)) => {
                        return Err(NeoError::Internal(
                            "quantized conv without a schedule".into(),
                        ));
                    }
                    (Some(s), None) => {
                        // SAFETY: the scratch region is live only at this
                        // node, so it overlaps no value view accessed here
                        // (planner invariant, verified at compile time).
                        let scratch = scratch
                            .map(|(arena, off)| unsafe { arena.slice_mut(off, pad_len(s.ic_bn)) });
                        conv2d_nchwc(
                            x,
                            &g.params[*weight],
                            out,
                            params,
                            s,
                            &epi,
                            par,
                            self.max_lanes,
                            scratch,
                        )?;
                    }
                    (None, None) => {
                        conv2d_nchw_direct(x, &g.params[*weight], out, params, &epi, par)?;
                    }
                }
            }
            Op::Quantize { scale, zero_point } => {
                let x = &before[node.inputs[0]];
                let (src, dst) = (x.data(), out.data_u8_mut());
                quantize_slice_par(src, dst, *scale, *zero_point, par, self.max_lanes);
            }
            Op::ScaleShift { scale, shift } => {
                let x = &before[node.inputs[0]];
                scale_shift(x, out, g.params[*scale].data(), g.params[*shift].data(), par)?;
            }
            // `simplify_inference` removes both before any module is built.
            Op::BatchNorm { .. } | Op::Dropout => {
                return Err(NeoError::Internal(format!("{} reached the executor", node.op.name())));
            }
            // Flatten is a shape view: with the plan's alias, `out` is the
            // producer's storage and nothing moves; Relu then clamps it
            // where it sits.
            Op::Relu | Op::Flatten => {
                if inplace.is_none() {
                    out.data_mut().copy_from_slice(before[node.inputs[0]].data());
                }
                if matches!(node.op, Op::Relu) {
                    relu_inplace(out, par);
                }
            }
            Op::Pool { params, kind } => {
                let x = &before[node.inputs[0]];
                pool2d(x, out, params, *kind, par)?;
            }
            Op::GlobalAvgPool => {
                let x = &before[node.inputs[0]];
                global_avg_pool(x, out, par)?;
            }
            Op::Add => match inplace {
                // `out` aliases input `pos`; accumulate the other operand
                // into it without ever forming an aliased `&`/`&mut` pair.
                Some(pos) => {
                    let other = &before[node.inputs[1 - pos]];
                    add_assign(out, other, par)?;
                }
                None => {
                    let a = &before[node.inputs[0]];
                    let b = &before[node.inputs[1]];
                    add(a, b, out, par)?;
                }
            },
            Op::Concat => {
                let fanin = &mut *feed.fanin;
                fanin.clear();
                fanin.extend(node.inputs.iter().map(|&i| std::ptr::from_ref(&before[i])));
                // SAFETY: `&Tensor` and `*const Tensor` have identical
                // layout, and each pointer was derived from a reference
                // that stays live for this whole call.
                let ins: &[&Tensor] = unsafe {
                    std::slice::from_raw_parts(fanin.as_ptr().cast::<&Tensor>(), fanin.len())
                };
                let result = concat_channels(ins, out, par);
                fanin.clear();
                result?;
            }
            Op::Dense { weight, bias, relu } => {
                let x = &before[node.inputs[0]];
                let bias_data = bias.map(|b| g.params[b].data());
                dense::dense(x, &g.params[*weight], out, bias_data, *relu, par)?;
            }
            Op::Softmax => {
                let x = &before[node.inputs[0]];
                softmax::softmax(x, out, par)?;
            }
            Op::LayoutTransform { .. } => {
                crate::faults::fire(crate::faults::LAYOUT_TRANSFORM)?;
                let x = &before[node.inputs[0]];
                to_layout_into(x, out)?;
            }
        }
        Ok(())
    }
}

/// A per-node observer: node id, its value, its wall time in seconds.
pub(crate) type NodeHook<'a> = &'a mut dyn FnMut(usize, &Tensor, f64);

/// Where a run keeps its node values.
enum Values<'a> {
    /// A context's planned arena views for this run's row count.
    Planned { views: &'a mut [Tensor], arena: &'a Arena },
    /// One fresh tensor per node, pushed as it is computed (the oracle).
    Fresh(&'a mut Vec<Tensor>),
}

/// What the node dispatch reads and advances across one run: the caller's
/// inputs and how many `Input` nodes have taken one, the pool, and the
/// `Concat` fan-in pointer buffer.
struct Feed<'a> {
    inputs: &'a [Tensor],
    next_input: usize,
    par: &'a dyn Parallelism,
    fanin: &'a mut Vec<*const Tensor>,
}

/// `shape` with its leading dim set to `rows`, when that dim is the plan's
/// batch `batch` (every value of a one-batch graph); other shapes as they
/// are.
pub(crate) fn with_rows(shape: &Shape, batch: usize, rows: usize) -> Shape {
    let mut dims = shape.dims().to_vec();
    if dims.first() == Some(&batch) {
        dims[0] = rows;
    }
    Shape::new(dims)
}

/// Wraps an execution error with the failing node's identity. User-facing
/// input mismatches stay bare — the node context of an `Input` op adds
/// nothing — as do errors already tagged with this node.
fn at_node(node: usize, op: &'static str, e: NeoError) -> NeoError {
    match e {
        NeoError::BadInput(_) => e,
        NeoError::AtNode { node: n, .. } | NeoError::Panicked { node: n, .. } if n == node => e,
        e => NeoError::AtNode { node, op, source: Box::new(e) },
    }
}

impl std::fmt::Debug for Module {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Module")
            .field("nodes", &self.graph.len())
            .field("transforms", &self.transform_count())
            .field("threads", &self.pool.num_threads())
            .field("arena_bytes", &self.plan.report.planned_peak_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompileOptions, CpuTarget, OptLevel};
    use neocpu_graph::GraphBuilder;

    #[test]
    fn rejects_wrong_inputs() {
        let mut b = GraphBuilder::new(1);
        let x = b.input([1, 4, 8, 8]);
        let c = b.conv2d(x, 4, 3, 1, 1);
        let g = b.finish(vec![c]);
        let m = compile(&g, &CpuTarget::host(), &CompileOptions::level(OptLevel::O0)).unwrap();
        // Missing input.
        assert!(m.run(&[]).is_err());
        // Wrong shape.
        let bad = Tensor::zeros([1, 4, 9, 9], Layout::Nchw).unwrap();
        assert!(m.run(&[bad]).is_err());
        // Wrong layout.
        let bad = Tensor::zeros([1, 4, 8, 8], Layout::NchwC(4)).unwrap();
        assert!(m.run(&[bad]).is_err());
    }

    #[test]
    fn rejects_surplus_inputs() {
        let mut b = GraphBuilder::new(1);
        let x = b.input([1, 4, 8, 8]);
        let c = b.conv2d(x, 4, 3, 1, 1);
        let g = b.finish(vec![c]);
        let m = compile(&g, &CpuTarget::host(), &CompileOptions::level(OptLevel::O0)).unwrap();
        let input = Tensor::random([1, 4, 8, 8], Layout::Nchw, 1, 1.0).unwrap();
        let extra = Tensor::random([1, 4, 8, 8], Layout::Nchw, 2, 1.0).unwrap();
        let err = m.run(&[input.clone(), extra]).unwrap_err();
        assert!(
            matches!(&err, NeoError::BadInput(m) if m.contains("1 input tensor(s) but 2")),
            "unexpected error: {err}"
        );
        // The exact number of inputs still works.
        m.run(&[input]).unwrap();
    }

    #[test]
    fn residual_network_executes_correctly_at_all_levels() {
        let mut b = GraphBuilder::new(2);
        let x = b.input([1, 8, 8, 8]);
        let c0 = b.conv2d(x, 8, 1, 1, 0);
        let c1 = b.conv_bn_relu(c0, 8, 3, 1, 1);
        let c2 = b.conv2d_opts(c1, 8, 3, 1, 1, false);
        let bn = b.batch_norm(c2);
        let a = b.add(bn, c0);
        let r = b.relu(a);
        let g = b.finish(vec![r]);
        let input = Tensor::random([1, 8, 8, 8], Layout::Nchw, 7, 1.0).unwrap();
        let target = CpuTarget::host();
        let base = compile(&g, &target, &CompileOptions::level(OptLevel::O0))
            .unwrap()
            .run(std::slice::from_ref(&input))
            .unwrap();
        for level in [OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            let out = compile(&g, &target, &CompileOptions::level(level))
                .unwrap()
                .run(std::slice::from_ref(&input))
                .unwrap();
            assert!(
                base[0].approx_eq(&out[0], 1e-4),
                "{level:?} diverged: {}",
                base[0].max_abs_diff(&out[0])
            );
        }
    }

    #[test]
    fn multi_output_graph() {
        let mut b = GraphBuilder::new(3);
        let x = b.input([1, 4, 8, 8]);
        let c1 = b.conv2d(x, 8, 3, 1, 1);
        let c2 = b.conv2d(x, 8, 3, 2, 1);
        let g = b.finish(vec![c1, c2]);
        let m = compile(&g, &CpuTarget::host(), &CompileOptions::level(OptLevel::O2)).unwrap();
        let input = Tensor::random([1, 4, 8, 8], Layout::Nchw, 9, 1.0).unwrap();
        let out = m.run(&[input]).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].shape().dims(), &[1, 8, 8, 8]);
        assert_eq!(out[1].shape().dims(), &[1, 8, 4, 4]);
        // Outputs come back in framework-default layout.
        assert_eq!(out[0].layout(), Layout::Nchw);
    }

    #[test]
    fn profiled_run_matches_plain_run_and_accounts_ops() {
        let mut b = GraphBuilder::new(8);
        let x = b.input([1, 8, 8, 8]);
        let c = b.conv_bn_relu(x, 16, 3, 1, 1);
        let p = b.max_pool(c, 2, 2, 0);
        let g = b.finish(vec![p]);
        let m = compile(&g, &CpuTarget::host(), &CompileOptions::level(OptLevel::O2)).unwrap();
        let input = Tensor::random([1, 8, 8, 8], Layout::Nchw, 21, 1.0).unwrap();
        let plain = m.run(std::slice::from_ref(&input)).unwrap();
        let (profiled, profile) = m.run_profiled(std::slice::from_ref(&input)).unwrap();
        assert_eq!(plain[0].data(), profiled[0].data());
        let names: Vec<&str> = profile.iter().map(|p| p.op).collect();
        assert!(names.contains(&"conv2d"));
        assert!(names.contains(&"max_pool"));
        assert!(names.contains(&"layout_transform"));
        let conv = profile.iter().find(|p| p.op == "conv2d").unwrap();
        assert_eq!(conv.count, 1);
        assert!(conv.total_ms >= 0.0);
        // Sorted by descending total time.
        for w in profile.windows(2) {
            assert!(w[0].total_ms >= w[1].total_ms);
        }
    }

    #[test]
    fn repeated_runs_are_deterministic() {
        let mut b = GraphBuilder::new(4);
        let x = b.input([1, 4, 8, 8]);
        let c = b.conv_bn_relu(x, 8, 3, 1, 1);
        let g = b.finish(vec![c]);
        let m = compile(&g, &CpuTarget::host(), &CompileOptions::level(OptLevel::O2)).unwrap();
        let input = Tensor::random([1, 4, 8, 8], Layout::Nchw, 11, 1.0).unwrap();
        let a = m.run(std::slice::from_ref(&input)).unwrap();
        let b2 = m.run(std::slice::from_ref(&input)).unwrap();
        assert_eq!(a[0].data(), b2[0].data());
    }

    #[test]
    fn explicit_context_runs_match_pooled_runs() {
        let mut b = GraphBuilder::new(6);
        let x = b.input([1, 8, 8, 8]);
        let c = b.conv_bn_relu(x, 8, 3, 1, 1);
        let g = b.finish(vec![c]);
        let m = compile(&g, &CpuTarget::host(), &CompileOptions::level(OptLevel::O2)).unwrap();
        let input = Tensor::random([1, 8, 8, 8], Layout::Nchw, 13, 1.0).unwrap();
        let pooled = m.run(std::slice::from_ref(&input)).unwrap();
        let mut ctx = m.make_context();
        // Warm the context, then run again: results must be identical (the
        // arena holds stale data between runs; every output is overwritten).
        m.run_with(&mut ctx, std::slice::from_ref(&input)).unwrap();
        m.run_with(&mut ctx, std::slice::from_ref(&input)).unwrap();
        let out = ctx.output(0).unwrap();
        assert!(out.is_view());
        assert_eq!(out.data(), pooled[0].data());
        // Cloning an output detaches it from the arena.
        let snap = out.clone();
        assert!(!snap.is_view());
    }

    #[test]
    fn context_from_another_module_is_rejected() {
        let mut b = GraphBuilder::new(6);
        let x = b.input([1, 4, 8, 8]);
        let c = b.conv2d(x, 4, 3, 1, 1);
        let g = b.finish(vec![c]);
        let m1 = compile(&g, &CpuTarget::host(), &CompileOptions::level(OptLevel::O2)).unwrap();
        let m2 = compile(&g, &CpuTarget::host(), &CompileOptions::level(OptLevel::O2)).unwrap();
        let mut ctx = m1.make_context();
        let input = Tensor::random([1, 4, 8, 8], Layout::Nchw, 17, 1.0).unwrap();
        let err = m2.run_with(&mut ctx, std::slice::from_ref(&input)).unwrap_err();
        assert!(matches!(err, NeoError::BadInput(_)), "unexpected error: {err}");
        m1.run_with(&mut ctx, &[input]).unwrap();
    }

    #[test]
    fn arena_run_is_bit_identical_to_reference_run() {
        let mut b = GraphBuilder::new(9);
        let x = b.input([1, 8, 8, 8]);
        let c0 = b.conv2d(x, 8, 1, 1, 0);
        let c1 = b.conv_bn_relu(c0, 8, 3, 1, 1);
        let a = b.add(c1, c0);
        let r = b.relu(a);
        let g = b.finish(vec![r]);
        let input = Tensor::random([1, 8, 8, 8], Layout::Nchw, 19, 1.0).unwrap();
        for level in [OptLevel::O0, OptLevel::O2, OptLevel::O3] {
            let m = compile(&g, &CpuTarget::host(), &CompileOptions::level(level)).unwrap();
            let planned = m.run(std::slice::from_ref(&input)).unwrap();
            let reference = m.run_reference(std::slice::from_ref(&input)).unwrap();
            assert_eq!(planned[0].data(), reference[0].data(), "{level:?} diverged");
        }
    }

    #[test]
    fn hook_sees_identical_values_in_arena_and_reference_storage() {
        // A residual block whose Add and trailing Relu the plan runs in
        // place: on the arena the hook must see each value before its
        // in-place consumer overwrites it.
        let mut b = GraphBuilder::new(9);
        let x = b.input([1, 8, 8, 8]);
        let c0 = b.conv2d(x, 8, 1, 1, 0);
        let c1 = b.conv_bn_relu(c0, 8, 3, 1, 1);
        let a = b.add(c1, c0);
        let r = b.relu(a);
        let g = b.finish(vec![r]);
        let input = [Tensor::random([1, 8, 8, 8], Layout::Nchw, 19, 1.0).unwrap()];
        let bits = |t: &Tensor| -> Vec<u32> { t.data().iter().map(|v| v.to_bits()).collect() };
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            let m = compile(&g, &CpuTarget::host(), &CompileOptions::level(level)).unwrap();
            let inplace: Vec<&str> = (0..m.graph.len())
                .filter(|&id| m.plan.inplace[id].is_some())
                .map(|id| m.graph.nodes[id].op.name())
                .collect();
            assert_eq!(inplace, ["add", "relu"], "{level:?}");
            let mut arena = Vec::new();
            let mut ctx = m.make_context();
            m.run_ctx(&mut ctx, &input, Some(&mut |id, t, _| arena.push((id, bits(t)))))
                .unwrap();
            let mut fresh = Vec::new();
            let mut values = Vec::new();
            let hook = &mut |id, t: &Tensor, _| fresh.push((id, bits(t)));
            m.run_nodes(Values::Fresh(&mut values), &mut Vec::new(), &input, Some(hook)).unwrap();
            assert_eq!(arena.len(), m.graph.len());
            assert!(arena == fresh, "{level:?}: a node value differs");
        }
    }

    #[test]
    fn memory_report_shows_reuse_below_naive() {
        let mut b = GraphBuilder::new(12);
        let x = b.input([1, 8, 16, 16]);
        let c1 = b.conv_bn_relu(x, 16, 3, 1, 1);
        let c2 = b.conv_bn_relu(c1, 16, 3, 1, 1);
        let c3 = b.conv_bn_relu(c2, 16, 3, 1, 1);
        let g = b.finish(vec![c3]);
        let m = compile(&g, &CpuTarget::host(), &CompileOptions::level(OptLevel::O2)).unwrap();
        let r = m.memory_report();
        assert!(r.planned_peak_bytes > 0);
        assert!(
            r.planned_peak_bytes < r.naive_bytes,
            "no reuse: peak {} vs naive {}",
            r.planned_peak_bytes,
            r.naive_bytes
        );
        assert!(r.scratch_bytes > 0, "padded convs must reserve scratch");
        let ctx = m.make_context();
        assert_eq!(ctx.arena_bytes(), r.planned_peak_bytes);
    }

    /// BatchNorm and Dropout never reach a module through `compile`; a
    /// graph that skips `simplify_inference` fails at the node, typed.
    #[test]
    fn unsimplified_ops_are_internal_errors_at_their_node() {
        use crate::compile::{finish_module, CompileReport};
        type Push = fn(&mut GraphBuilder, usize) -> usize;
        let target = CpuTarget::host();
        let opts = CompileOptions::level(OptLevel::O0);
        let input = Tensor::random([1, 4, 8, 8], Layout::Nchw, 1, 1.0).unwrap();
        let ops: [(&str, Push); 2] =
            [("batch_norm", GraphBuilder::batch_norm), ("dropout", GraphBuilder::dropout)];
        for (op, push) in ops {
            let mut b = GraphBuilder::new(3);
            let x = b.input([1, 4, 8, 8]);
            let y = push(&mut b, x);
            let g = b.finish(vec![y]);
            let m = finish_module(g, &target, &opts, &mut CompileReport::default()).unwrap();
            let err = m.run(std::slice::from_ref(&input)).unwrap_err();
            assert!(
                matches!(&err, NeoError::AtNode { node: 1, op: o, .. } if *o == op),
                "unexpected error: {err}"
            );
            assert!(matches!(err.root_cause(), NeoError::Internal(_)), "{err}");
        }
    }

    #[test]
    fn kernel_errors_carry_node_context() {
        let err = at_node(3, "conv2d", NeoError::Internal("x".into()));
        assert!(matches!(&err, NeoError::AtNode { node: 3, op: "conv2d", .. }));
        assert!(matches!(err.root_cause(), NeoError::Internal(_)));
        // BadInput stays bare; already-tagged errors are not double-wrapped.
        let bare = at_node(1, "input", NeoError::BadInput("y".into()));
        assert!(matches!(bare, NeoError::BadInput(_)));
        let tagged = at_node(2, "relu", NeoError::Panicked {
            node: 2,
            op: "relu",
            message: "z".into(),
        });
        assert!(matches!(tagged, NeoError::Panicked { .. }));
    }
}
