//! The static memory planner: compile-time liveness analysis + arena layout.
//!
//! The executor used to allocate (and memset) every node's output on every
//! inference and let `Drop` reclaim dead values. This module moves that
//! entire decision to compile time, in three steps:
//!
//! 1. **Liveness** — each node's output value is live over the interval
//!    `[def, last_use]` (graph outputs are pinned to the end of the run).
//! 2. **Slot merging** — values that may share storage are unioned into one
//!    slot: `Flatten`/`Dropout` always alias their producer (read-only
//!    reinterpretation), and `Relu`/`Add` run **in place** when the planner
//!    proves the overwritten input's slot dies at exactly that node. What
//!    the old executor decided at run time with `take_or_clone`, the plan
//!    decides once, for free.
//! 3. **Best-fit interval packing** — slots (plus per-conv padded-input
//!    scratch regions) are assigned offsets into one 64-byte-aligned arena,
//!    largest first, each taking the smallest already-freed gap that fits
//!    among the regions whose live intervals overlap its own.
//!
//! The resulting `MemoryPlan` is what makes steady-state inference
//! allocation-free: every intermediate tensor is a view of the arena at its
//! planned offset, and the plan's disjointness invariant (verified
//! post-packing, `O(n²)`, at compile time) is exactly the soundness
//! contract of [`neocpu_tensor::Arena`]'s unsafe slice accessors.

use neocpu_graph::{Graph, Op};
use neocpu_kernels::padded_input_len;
use neocpu_tensor::{DType, Layout, Shape};

use crate::{NeoError, Result};

/// Arena alignment quantum in `f32` elements (64 bytes / 4).
///
/// Every region size is rounded up to this, which keeps every planned
/// offset 64-byte aligned by induction — the SIMD kernels' contract.
pub const ALIGN_ELEMS: usize = 16;

/// A storage request over a half-open execution interval: the region must
/// not share memory with any other request whose `[start, end]` interval
/// overlaps this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveRange {
    /// First node index at which the region is written.
    pub start: usize,
    /// Last node index at which the region is read (`usize::MAX` pins the
    /// region to the end of the run, e.g. for graph outputs).
    pub end: usize,
    /// Region length in `f32` elements (already alignment-rounded by the
    /// planner; [`pack_live_ranges`] packs whatever it is given).
    pub len: usize,
}

impl LiveRange {
    /// Whether two requests are ever live at the same time (and therefore
    /// must not share arena bytes).
    pub fn overlaps(&self, other: &LiveRange) -> bool {
        self.start <= other.end && other.start <= self.end
    }
}

/// Memory-plan statistics surfaced through `CompileReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryReport {
    /// Bytes of the planned arena (peak intermediate memory, aligned).
    pub planned_peak_bytes: usize,
    /// Bytes a naive executor would allocate: the sum of every node's
    /// output size, the old per-run allocation bill.
    pub naive_bytes: usize,
    /// Storage-reuse decisions: values aliased onto their producer
    /// (`Flatten`/`Dropout`) or computed in place (`Relu`/`Add`).
    pub reused: usize,
    /// Bytes of planned conv padded-input scratch inside the arena.
    pub scratch_bytes: usize,
    /// Batch size the module was planned at (leading dim of the first
    /// graph input; 1 when the graph has no batched input). One plan is
    /// shared by every `RunContext` built from the module, so a serving
    /// context pool of `w` workers costs `w × planned_peak_bytes`.
    pub batch: usize,
}

impl MemoryReport {
    /// Planned arena bytes attributable to one image of the batch — the
    /// per-request memory cost a batched serving engine amortizes.
    pub fn per_image_peak_bytes(&self) -> usize {
        self.planned_peak_bytes / self.batch.max(1)
    }

    /// Total arena bytes for a pool of `contexts` concurrent
    /// `RunContext`s sharing this plan.
    pub fn pool_bytes(&self, contexts: usize) -> usize {
        self.planned_peak_bytes * contexts
    }
}

/// The compile-time storage assignment for one module.
#[derive(Debug, Clone)]
pub(crate) struct MemoryPlan {
    /// Arena element offset of each node's output value.
    pub offsets: Vec<usize>,
    /// Per-node padded-input scratch offset, for scheduled convs with
    /// nonzero padding. The region holds `padded_input_len` at the planned
    /// batch; an n-row run pads a prefix of it (the length is linear in N).
    pub scratch: Vec<Option<usize>>,
    /// For nodes whose output shares its input's storage: the position in
    /// `node.inputs` of the aliased input.
    pub inplace: Vec<Option<usize>>,
    /// Total arena length in `f32` elements.
    pub arena_len: usize,
    /// Plan statistics.
    pub report: MemoryReport,
}

/// Greedy best-fit offset packing over live ranges.
///
/// Processes ranges largest-first; each is placed at the smallest gap — among
/// the already-placed ranges whose intervals overlap it — that fits, or
/// appended past them. Returns the offsets (parallel to `ranges`) and the
/// total arena length. Offsets inherit the alignment of the input lengths:
/// if every `len` is a multiple of [`ALIGN_ELEMS`], so is every offset.
///
/// Exposed publicly so property tests can hammer the packer with random
/// DAG-shaped live ranges independently of graph construction.
pub fn pack_live_ranges(ranges: &[LiveRange]) -> (Vec<usize>, usize) {
    let mut order: Vec<usize> = (0..ranges.len()).filter(|&i| ranges[i].len > 0).collect();
    // Largest first (classic offset packing); ties broken by start then id
    // for determinism.
    order.sort_by(|&a, &b| {
        ranges[b]
            .len
            .cmp(&ranges[a].len)
            .then(ranges[a].start.cmp(&ranges[b].start))
            .then(a.cmp(&b))
    });
    let mut offsets = vec![0usize; ranges.len()];
    let mut placed: Vec<usize> = Vec::new();
    let mut total = 0usize;
    for &i in &order {
        let r = &ranges[i];
        let mut conflicts: Vec<(usize, usize)> = placed
            .iter()
            .filter(|&&j| ranges[j].overlaps(r))
            .map(|&j| (offsets[j], offsets[j] + ranges[j].len))
            .collect();
        conflicts.sort_unstable();
        // Scan the gaps between conflicting regions; take the tightest fit.
        // Candidate offsets are rounded up to the alignment quantum so the
        // guarantee holds even for requests with unaligned lengths.
        let mut best: Option<(usize, usize)> = None; // (gap_len, offset)
        let mut cursor = 0usize;
        for (s, e) in conflicts {
            let at = align_up(cursor);
            if s > at {
                let gap = s - at;
                if gap >= r.len && best.is_none_or(|(g, _)| gap < g) {
                    best = Some((gap, at));
                }
            }
            cursor = cursor.max(e);
        }
        let off = match best {
            Some((_, o)) => o,
            None => align_up(cursor),
        };
        offsets[i] = off;
        total = total.max(off + r.len);
        placed.push(i);
    }
    (offsets, total)
}

/// Rounds a length in elements up to the arena alignment quantum.
fn align_up(len: usize) -> usize {
    len.div_ceil(ALIGN_ELEMS) * ALIGN_ELEMS
}

/// Minimal union-find over node ids for slot merging.
struct Slots {
    parent: Vec<usize>,
}

impl Slots {
    fn new(n: usize) -> Self {
        Self { parent: (0..n).collect() }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        self.parent[ra] = rb;
    }
}

/// Builds the static memory plan for a compiled graph.
///
/// # Errors
///
/// Returns [`NeoError::Internal`] if the produced plan violates its own
/// disjointness invariant — a planner bug that must never reach the
/// executor's unsafe arena views.
pub(crate) fn plan_memory(
    g: &Graph,
    shapes: &[Shape],
    layouts: &[Layout],
    dtypes: &[DType],
) -> Result<MemoryPlan> {
    let n = g.len();

    // Liveness: last consumer per value; outputs pinned to the run's end.
    let mut last_use = vec![0usize; n];
    for (id, node) in g.nodes.iter().enumerate() {
        for &i in &node.inputs {
            last_use[i] = last_use[i].max(id);
        }
    }
    for &o in &g.outputs {
        last_use[o] = usize::MAX;
    }

    // Region sizes in arena slots (f32 quanta): byte-width-aware, so a u8
    // value occupies a quarter of the slots its f32 twin would.
    let sizes: Vec<usize> = shapes
        .iter()
        .zip(dtypes)
        .map(|(s, dt)| align_up(dt.slots(s.num_elements())))
        .collect();

    // Slot merging: alias and in-place decisions.
    let mut slots = Slots::new(n);
    let mut inplace: Vec<Option<usize>> = vec![None; n];
    let mut reused = 0usize;
    // A slot's live interval ends at the max `last_use` of its members;
    // track it incrementally at each slot root so in-place legality ("the
    // storage dies here") accounts for *every* value sharing the storage,
    // not just the direct input.
    let mut slot_end: Vec<usize> = last_use.clone();
    for (id, node) in g.nodes.iter().enumerate() {
        let merge = match &node.op {
            // Read-only reinterpretations always share their producer's
            // storage: Flatten is a shape view, Dropout is the identity at
            // inference time.
            Op::Flatten | Op::Dropout => Some(0),
            // Relu may overwrite its input iff that storage is never read
            // after this node.
            Op::Relu => {
                let root = slots.find(node.inputs[0]);
                (slot_end[root] == id).then_some(0)
            }
            // Add may accumulate into either input under the same death
            // rule — provided the two inputs do not already share storage
            // (add(x, x) must not turn into x += x while reading x).
            Op::Add => {
                let ra = slots.find(node.inputs[0]);
                let rb = slots.find(node.inputs[1]);
                if ra == rb {
                    None
                } else if slot_end[ra] == id {
                    Some(0)
                } else if slot_end[rb] == id {
                    Some(1)
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(pos) = merge {
            let input = node.inputs[pos];
            // Alias requires matching physical size: Flatten preserves the
            // element count by construction, and Relu/Add are element-wise.
            debug_assert_eq!(sizes[input], sizes[id]);
            let merged_end = slot_end[slots.find(id)]
                .max(slot_end[slots.find(input)])
                .max(last_use[id]);
            slots.union(id, input);
            let root = slots.find(id);
            slot_end[root] = merged_end;
            inplace[id] = Some(pos);
            reused += 1;
        } else {
            let root = slots.find(id);
            slot_end[root] = slot_end[root].max(last_use[id]);
        }
    }

    // One storage request per slot root, spanning from its earliest member
    // definition to its latest member use; plus one request per padded
    // scheduled conv for pad scratch, live only at that node.
    let mut request_of_root: std::collections::HashMap<usize, usize> =
        std::collections::HashMap::new();
    let mut ranges: Vec<LiveRange> = Vec::new();
    for id in 0..n {
        let root = slots.find(id);
        match request_of_root.get(&root) {
            Some(&req) => {
                let r = &mut ranges[req];
                r.start = r.start.min(id);
                r.end = r.end.max(last_use[id]);
                debug_assert_eq!(r.len, sizes[id]);
            }
            None => {
                request_of_root.insert(root, ranges.len());
                ranges.push(LiveRange { start: id, end: last_use[id], len: sizes[id] });
            }
        }
    }
    let mut scratch_reqs: Vec<(usize, usize)> = Vec::new(); // (node, range idx)
    let mut scratch_bytes = 0usize;
    for (id, node) in g.nodes.iter().enumerate() {
        if let Op::Conv2d { params, schedule: Some(s), .. } = &node.op {
            let batch = shapes[node.inputs[0]].dims().first().copied().unwrap_or(1);
            let len = padded_input_len(params, s.ic_bn, batch);
            if len > 0 {
                // A quantized conv pads u8 elements; the reservation is in
                // arena slots either way.
                let aligned = align_up(dtypes[node.inputs[0]].slots(len));
                scratch_reqs.push((id, ranges.len()));
                ranges.push(LiveRange { start: id, end: id, len: aligned });
                scratch_bytes += aligned * 4;
            }
        }
    }

    let (range_offsets, arena_len) = pack_live_ranges(&ranges);

    let mut offsets = vec![0usize; n];
    for (id, off) in offsets.iter_mut().enumerate() {
        let root = slots.find(id);
        *off = range_offsets[request_of_root[&root]];
    }
    let mut scratch: Vec<Option<usize>> = vec![None; n];
    for &(id, req) in &scratch_reqs {
        scratch[id] = Some(range_offsets[req]);
    }

    // Hard self-check: simultaneously-live requests must occupy disjoint
    // arena ranges. This is the invariant every unsafe arena view in the
    // executor relies on; violating it is a compiler bug, not a user error.
    for i in 0..ranges.len() {
        for j in i + 1..ranges.len() {
            let (a, b) = (&ranges[i], &ranges[j]);
            if a.len == 0 || b.len == 0 || !a.overlaps(b) {
                continue;
            }
            let (oa, ob) = (range_offsets[i], range_offsets[j]);
            if oa < ob + b.len && ob < oa + a.len {
                return Err(NeoError::Internal(format!(
                    "memory plan overlap: regions [{oa}, {}) and [{ob}, {}) are both live \
                     over nodes [{}, {}]",
                    oa + a.len,
                    ob + b.len,
                    a.start.max(b.start),
                    a.end.min(b.end),
                )));
            }
        }
    }
    let _ = layouts; // layouts participate via shapes; kept for signature symmetry

    let naive_bytes: usize =
        shapes.iter().zip(dtypes).map(|(s, dt)| s.num_elements() * dt.size_bytes()).sum();
    // Batch from the first graph input: every context built from this plan
    // serves that many images per run, which the report surfaces so a
    // context pool's memory bill is `pool_bytes(workers)`.
    let batch = g
        .nodes
        .iter()
        .enumerate()
        .find(|(_, node)| matches!(node.op, Op::Input { .. }))
        .and_then(|(id, _)| shapes[id].dims().first().copied())
        .unwrap_or(1);
    Ok(MemoryPlan {
        offsets,
        scratch,
        inplace,
        arena_len,
        report: MemoryReport {
            planned_peak_bytes: arena_len * 4,
            naive_bytes,
            reused,
            scratch_bytes,
            batch,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_respects_overlapping_intervals() {
        let ranges = vec![
            LiveRange { start: 0, end: 2, len: 32 },
            LiveRange { start: 1, end: 3, len: 32 },
            LiveRange { start: 4, end: 5, len: 32 },
        ];
        let (off, total) = pack_live_ranges(&ranges);
        // First two overlap in time → disjoint offsets; third reuses space.
        assert_ne!(off[0], off[1]);
        assert_eq!(total, 64);
        assert!(off[2] < 64);
    }

    #[test]
    fn packing_prefers_tightest_gap() {
        // A big region and a small region die; a small request should land
        // in the small gap, not the big one.
        let ranges = vec![
            LiveRange { start: 0, end: 10, len: 64 }, // pinned wide
            LiveRange { start: 0, end: 1, len: 16 },  // small, dies early
            LiveRange { start: 0, end: 1, len: 48 },  // big, dies early
            LiveRange { start: 2, end: 3, len: 16 },  // wants the 16-gap
            LiveRange { start: 2, end: 3, len: 48 },  // wants the 48-gap
        ];
        let (off, total) = pack_live_ranges(&ranges);
        assert_eq!(total, 128);
        // The late small request reuses the early small region's slot and
        // the late big one the big slot (sizes make the mapping unique).
        assert_eq!(off[3], off[1]);
        assert_eq!(off[4], off[2]);
    }

    #[test]
    fn packing_keeps_alignment() {
        let ranges: Vec<LiveRange> = (0..17)
            .map(|i| LiveRange { start: i % 5, end: i % 5 + 2, len: 16 * (1 + i % 3) })
            .collect();
        let (off, _) = pack_live_ranges(&ranges);
        for o in off {
            assert_eq!(o % ALIGN_ELEMS, 0);
        }
    }

    #[test]
    fn zero_len_ranges_are_ignored() {
        let ranges = vec![
            LiveRange { start: 0, end: 1, len: 0 },
            LiveRange { start: 0, end: 1, len: 16 },
        ];
        let (off, total) = pack_live_ranges(&ranges);
        assert_eq!(total, 16);
        assert_eq!(off[1], 0);
    }

    #[test]
    fn pinned_ranges_never_reused() {
        let ranges = vec![
            LiveRange { start: 0, end: usize::MAX, len: 16 },
            LiveRange { start: 5, end: 6, len: 16 },
        ];
        let (off, total) = pack_live_ranges(&ranges);
        assert_ne!(off[0], off[1]);
        assert_eq!(total, 32);
    }
}
