//! Search support for schedule auto-tuning.
//!
//! The tuner (in `mobile-backend`) explores per-op engine assignments:
//! each node of a graph is mapped to one of a small set of
//! [`SearchTarget`]s (an `(engine, dtype)` pair), and consecutive runs of
//! equal targets form the stages of a [`Schedule`]. This module provides
//! the *evaluation substrate* for that search:
//!
//! - [`CostModel`] pre-computes, once per (soc, graph, target-set), every
//!   per-(node, target) roofline term that [`StreamPlan::lower`] would
//!   derive — so candidate schedules are costed without re-lowering.
//! - [`PartialAssign`] is an incrementally-extended prefix assignment
//!   whose accumulators reproduce `StreamPlan::lower` +
//!   [`StreamPlan::sample_secs`]`(1.0, 1)` **bit-exactly** when the
//!   prefix is completed ([`CostModel::finish`]). This is what makes a
//!   branch-and-bound search sound at 0 ULPs: the incumbent and the
//!   candidates are scored by the same arithmetic as the executor. Its
//!   only per-node state is the assignment itself (one byte per node):
//!   stages are contiguous runs of equal targets, so the open stage's
//!   first node is all the stage bookkeeping a prefix needs.
//! - [`CostModel::bound_latency`] / [`CostModel::bound_energy`] give an
//!   admissible lower bound (committed exact cost + best-case roofline
//!   suffix) used to prune partials that cannot beat the incumbent.
//!   [`CostModel::peek_bound`] returns the same bound, bit for bit, for
//!   a one-node extension without building it, at O(fan-in) cost — so
//!   the search scores every extension and materializes only survivors.
//! - [`CostModel::evaluate_batch`] scores up to [`MAX_LANES`] complete
//!   assignments per pass, node-major over the lanes, with per-lane
//!   arithmetic identical to the scalar path (bit-equal results).
//!
//! Extension, peeking and both evaluators fold through one private step
//! function, so their bit-equality holds by construction.
//! - [`active_energy_j`] is the canonical energy objective: the active
//!   compute energy at nominal frequency — exactly the `power_time`
//!   numerator accumulated by `StreamPlan::lower` for
//!   [`StreamPlan::power_w`]. Launch/sync/transfer overheads draw
//!   platform idle power in the thermal model and are excluded here.
//!
//! [`StreamPlan::lower`]: crate::plan::StreamPlan::lower
//! [`StreamPlan::sample_secs`]: crate::plan::StreamPlan::sample_secs
//! [`StreamPlan::power_w`]: crate::plan::StreamPlan::power_w

use crate::engine::EngineId;
use crate::schedule::{Schedule, Stage};
use crate::soc::{InterconnectSpec, Soc};
use nn_graph::graph::{Graph, NodeId};
use nn_graph::DataType;
use serde::{Deserialize, Serialize};

/// Maximum number of assignment lanes per [`CostModel::evaluate_batch`]
/// pass — matches the SoA lane width of `plan_batch`.
pub const MAX_LANES: usize = 8;

/// One point of the per-op assignment space: run an op on `engine` at
/// `dtype`. The tuner derives the legal target set from the vendor
/// heuristic's stages, so every target is one the backend really uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SearchTarget {
    /// Engine to place the op on.
    pub engine: EngineId,
    /// Precision the stage runs at.
    pub dtype: DataType,
}

/// Scores of one complete assignment under both objectives.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchScore {
    /// Single-query latency in seconds at nominal frequency — bit-equal
    /// to [`crate::executor::estimate_query_secs`] on the induced
    /// schedule.
    pub latency_secs: f64,
    /// Active compute energy in joules — bit-equal to
    /// [`active_energy_j`] on the induced schedule.
    pub energy_j: f64,
}

/// A prefix of a per-op assignment, with exact incremental cost state.
///
/// Extended one node at a time (in topological order) via
/// [`CostModel::extend`]; the accumulators mirror the fold order of
/// `StreamPlan::lower` so that completing the prefix reproduces the
/// executor's score bit-for-bit.
///
/// Stages are contiguous runs of equal targets, so the assignment itself
/// is the whole stage table: the open stage's target is the last entry,
/// and a node lies in a closed stage exactly when it precedes
/// the open stage's first node. Copying a prefix copies one byte per node.
#[derive(Debug, Clone)]
pub struct PartialAssign {
    /// Target index per assigned node, in node order.
    pub assign: Vec<u8>,
    acc: Accum,
}

impl PartialAssign {
    /// Number of nodes assigned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.assign.len()
    }

    /// Whether no node has been assigned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assign.is_empty()
    }
}

/// The scalar cost state of an assignment prefix. It is a pure function
/// of the prefix, so [`CostModel::peek_bound`] can score an extension
/// from a copy of it without building one.
#[derive(Debug, Clone, Copy)]
struct Accum {
    /// Σ per-node roofline terms, in node order (the `ops` sum).
    ops_sum: f64,
    /// Σ transfer terms of *closed* stages, in stage order.
    transfer: f64,
    /// Query + launch + sync overheads committed so far.
    overhead: f64,
    /// Roofline time accumulated in the open stage.
    stage_time: f64,
    /// Active energy of closed stages.
    energy: f64,
    /// Cross-engine bytes flowing into the open stage.
    open_bytes: u64,
    /// Bitmask of engines already launched (by engine index).
    launched: u64,
    /// First node of the open stage.
    open_start: u32,
}

/// Pre-computed per-(node, target) roofline terms for one
/// (soc, graph, target-set) triple, plus the admissible suffix bounds.
#[derive(Debug, Clone)]
pub struct CostModel {
    num_nodes: usize,
    targets: Vec<SearchTarget>,
    node_ids: Vec<NodeId>,
    /// `compute.max(memory) + per_op_secs` per (node, target); infinity
    /// where unsupported. Row-major `[node][target]`.
    term: Vec<f64>,
    /// Whether (node, target) is legal: flops == 0 nodes run anywhere,
    /// else the engine must support the op class at the target dtype.
    supported: Vec<bool>,
    /// Output bytes of each node at each target's dtype (producer-stage
    /// dtype governs transfer size).
    out_bytes: Vec<u64>,
    /// Input node indices per node.
    inputs: Vec<Vec<u32>>,
    /// Engine index per target.
    engine_of: Vec<usize>,
    /// Active power (W) per target's engine.
    power_w: Vec<f64>,
    /// Launch overhead (secs) per engine of the SoC.
    launch_secs: Vec<f64>,
    /// Per-stage sync overhead, µs and secs.
    sync_us: f64,
    sync_secs: f64,
    /// Per-query overhead, µs and secs.
    query_us: f64,
    query_secs: f64,
    interconnect: InterconnectSpec,
    /// `suffix_term[i]` = Σ_{j ≥ i} best supported roofline term of node
    /// `j` — the admissible latency remainder.
    suffix_term: Vec<f64>,
    /// Suffix sums of the best supported `power · term` per node — the
    /// admissible energy remainder.
    suffix_energy: Vec<f64>,
}

impl CostModel {
    /// Builds the cost table for `graph` on `soc` over `targets`.
    ///
    /// `sync_overhead_us` / `query_overhead_us` are the transition
    /// penalties candidate schedules will carry — the tuner reads them
    /// off the vendor heuristic so candidates pay the same framework
    /// costs the heuristic does.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty or exceeds 32 entries, if the SoC has
    /// more than 64 engines, or if some op is supported by no target at
    /// all (the heuristic's own target always supports its ops, so a
    /// target set derived from a valid schedule never trips this).
    #[must_use]
    pub fn new(
        soc: &Soc,
        graph: &Graph,
        targets: &[SearchTarget],
        sync_overhead_us: f64,
        query_overhead_us: f64,
    ) -> CostModel {
        assert!(!targets.is_empty(), "search needs at least one target");
        assert!(targets.len() <= 32, "target set too large: {}", targets.len());
        assert!(soc.engines.len() <= 64, "engine bitmask limited to 64 engines");
        let n = graph.len();
        let t = targets.len();
        let mut term = vec![f64::INFINITY; n * t];
        let mut supported = vec![false; n * t];
        let mut out_bytes = vec![0u64; n * t];
        let mut best_term = vec![f64::INFINITY; n];
        let mut best_energy = vec![f64::INFINITY; n];
        for (i, node) in graph.iter().enumerate() {
            for (k, tgt) in targets.iter().enumerate() {
                let engine = &soc.engines[tgt.engine.0];
                out_bytes[i * t + k] = node.output.shape.byte_size(tgt.dtype) as u64;
                let ok = node.cost.flops == 0 || engine.supports(node.class(), tgt.dtype);
                if !ok {
                    continue;
                }
                // Exactly the arithmetic of `StreamPlan::lower`, term by
                // term: same operands, same operation order.
                let compute = if node.cost.flops == 0 {
                    0.0
                } else {
                    node.cost.flops as f64
                        / (engine.peak_ops(tgt.dtype) * engine.efficiency(node.class()))
                };
                let memory =
                    node.cost.total_bytes(tgt.dtype) as f64 / (engine.mem_bandwidth_gbps * 1e9);
                let v = compute.max(memory) + engine.per_op_overhead_us * 1e-6;
                term[i * t + k] = v;
                supported[i * t + k] = true;
                if v < best_term[i] {
                    best_term[i] = v;
                }
                let e = engine.active_power_w * v;
                if e < best_energy[i] {
                    best_energy[i] = e;
                }
            }
            assert!(
                best_term[i].is_finite(),
                "node {} ({}) supported by no search target",
                node.id,
                node.name
            );
        }
        let mut suffix_term = vec![0.0; n + 1];
        let mut suffix_energy = vec![0.0; n + 1];
        for i in (0..n).rev() {
            suffix_term[i] = best_term[i] + suffix_term[i + 1];
            suffix_energy[i] = best_energy[i] + suffix_energy[i + 1];
        }
        CostModel {
            num_nodes: n,
            targets: targets.to_vec(),
            node_ids: graph.iter().map(|nd| nd.id).collect(),
            term,
            supported,
            out_bytes,
            inputs: graph
                .iter()
                .map(|nd| nd.inputs.iter().map(|id| id.index() as u32).collect())
                .collect(),
            engine_of: targets.iter().map(|tgt| tgt.engine.0).collect(),
            power_w: targets.iter().map(|tgt| soc.engines[tgt.engine.0].active_power_w).collect(),
            launch_secs: soc.engines.iter().map(|e| e.launch_overhead_us * 1e-6).collect(),
            sync_us: sync_overhead_us,
            sync_secs: sync_overhead_us * 1e-6,
            query_us: query_overhead_us,
            query_secs: query_overhead_us * 1e-6,
            interconnect: soc.interconnect,
            suffix_term,
            suffix_energy,
        }
    }

    /// Number of graph nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The target set being searched.
    #[must_use]
    pub fn targets(&self) -> &[SearchTarget] {
        &self.targets
    }

    /// Whether target `k` may run node `i`.
    #[must_use]
    pub fn is_supported(&self, node: usize, target: usize) -> bool {
        self.supported[node * self.targets.len() + target]
    }

    /// The roofline term of node `i` on target `k` (infinite when
    /// unsupported).
    #[must_use]
    pub fn term(&self, node: usize, target: usize) -> f64 {
        self.term[node * self.targets.len() + target]
    }

    /// The empty prefix: only the per-query overhead is committed.
    #[must_use]
    pub fn root(&self) -> PartialAssign {
        PartialAssign { assign: Vec::with_capacity(self.num_nodes), acc: self.root_accum() }
    }

    fn root_accum(&self) -> Accum {
        Accum {
            ops_sum: 0.0,
            transfer: 0.0,
            overhead: self.query_secs,
            stage_time: 0.0,
            energy: 0.0,
            open_bytes: 0,
            launched: 0,
            open_start: 0,
        }
    }

    /// Advances `q`, the cost state of `prefix`, by assigning node
    /// `prefix.len()` to target `k`. This is the one place the
    /// incremental arithmetic lives: extension, peeking and both
    /// evaluators all fold through it. Always inlined: the evaluators'
    /// throughput depends on it.
    #[inline(always)]
    fn step(&self, q: &mut Accum, prefix: &[u8], k: u8) {
        let i = prefix.len();
        let t = self.targets.len();
        debug_assert!(i < self.num_nodes, "assignment already complete");
        debug_assert!(self.supported[i * t + k as usize]);
        if prefix.last() != Some(&k) {
            // Close the open stage (energy + transfer become committed)…
            if let Some(&prev) = prefix.last() {
                q.energy += self.power_w[prev as usize] * q.stage_time;
                if q.open_bytes > 0 {
                    q.transfer += self.interconnect.transfer_secs(q.open_bytes);
                }
                q.stage_time = 0.0;
                q.open_bytes = 0;
            }
            // …and open a new one: launch-if-first-use, then sync.
            q.open_start = i as u32;
            let e = self.engine_of[k as usize];
            if q.launched & (1 << e) == 0 {
                q.launched |= 1 << e;
                q.overhead += self.launch_secs[e];
            }
            q.overhead += self.sync_secs;
        }
        let term = self.term[i * t + k as usize];
        q.ops_sum += term;
        q.stage_time += term;
        // Inputs from closed stages on another engine feed bytes into the
        // open stage (producer stage dtype sizes the tensor, as in
        // `Schedule::cross_engine_bytes`).
        let my_engine = self.engine_of[k as usize];
        for &u in &self.inputs[i] {
            if u < q.open_start {
                let pt = prefix[u as usize] as usize;
                if self.engine_of[pt] != my_engine {
                    q.open_bytes += self.out_bytes[u as usize * t + pt];
                }
            }
        }
    }

    /// Extends `p` in place by assigning the next node to target `k`.
    ///
    /// # Panics
    ///
    /// Debug-asserts the target supports the node and the prefix is not
    /// already complete.
    pub fn extend_in_place(&self, p: &mut PartialAssign, k: u8) {
        self.step(&mut p.acc, &p.assign, k);
        p.assign.push(k);
    }

    /// Clone-and-extend: materializes one child of `p`.
    #[must_use]
    pub fn extend(&self, p: &PartialAssign, k: u8) -> PartialAssign {
        let mut q = p.clone();
        self.extend_in_place(&mut q, k);
        q
    }

    /// The objective's lower bound of `extend(p, k)` —
    /// [`CostModel::bound_energy`] when `energy_objective`, else
    /// [`CostModel::bound_latency`] — without building the extension.
    /// Same operands in the same order, so the value is bit-equal; the
    /// cost is O(fan-in) instead of a copy of the prefix.
    ///
    /// # Panics
    ///
    /// Debug-asserts the target supports the node and the prefix is not
    /// already complete.
    #[must_use]
    pub fn peek_bound(&self, p: &PartialAssign, k: u8, energy_objective: bool) -> f64 {
        let mut q = p.acc;
        self.step(&mut q, &p.assign, k);
        let len = p.assign.len() + 1;
        if energy_objective {
            self.energy_bound_of(&q, len, Some(k))
        } else {
            self.latency_bound_of(&q, len)
        }
    }

    /// Completes a full assignment's scores.
    ///
    /// For the latency score this is bit-equal to
    /// `estimate_query_secs(soc, graph, &self.schedule(&p.assign))`; for
    /// the energy score, to [`active_energy_j`] on the same schedule.
    ///
    /// # Panics
    ///
    /// Debug-asserts the assignment covers every node.
    #[must_use]
    pub fn finish(&self, p: &PartialAssign) -> SearchScore {
        debug_assert_eq!(p.assign.len(), self.num_nodes, "assignment incomplete");
        self.finish_accum(&p.acc, p.assign.last().copied())
    }

    fn finish_accum(&self, a: &Accum, open_target: Option<u8>) -> SearchScore {
        let mut transfer = a.transfer;
        let mut energy = a.energy;
        if let Some(t) = open_target {
            energy += self.power_w[t as usize] * a.stage_time;
            if a.open_bytes > 0 {
                transfer += self.interconnect.transfer_secs(a.open_bytes);
            }
        }
        // Matches `sample_secs(1.0, 1)` fold order:
        //   Σ ops  +  transfer_secs  +  overhead_secs.
        SearchScore { latency_secs: (a.ops_sum + transfer) + a.overhead, energy_j: energy }
    }

    /// Admissible latency lower bound for any completion of `p`:
    /// committed exact cost (including the open stage's transfer, whose
    /// bytes only grow) plus each remaining node's best supported term.
    ///
    /// Mathematically `bound ≤ finish(completion)` for every completion;
    /// floating-point association differences are covered by the pruning
    /// slack applied at the comparison site.
    #[must_use]
    pub fn bound_latency(&self, p: &PartialAssign) -> f64 {
        self.latency_bound_of(&p.acc, p.assign.len())
    }

    fn latency_bound_of(&self, a: &Accum, len: usize) -> f64 {
        let open_transfer = if a.open_bytes > 0 {
            self.interconnect.transfer_secs(a.open_bytes)
        } else {
            0.0
        };
        a.ops_sum + a.transfer + a.overhead + open_transfer + self.suffix_term[len]
    }

    /// Admissible energy lower bound: committed stage energy (the open
    /// stage's time only grows) plus each remaining node's best
    /// supported `power · term`.
    #[must_use]
    pub fn bound_energy(&self, p: &PartialAssign) -> f64 {
        self.energy_bound_of(&p.acc, p.assign.len(), p.assign.last().copied())
    }

    fn energy_bound_of(&self, a: &Accum, len: usize, open_target: Option<u8>) -> f64 {
        let open = open_target.map_or(0.0, |t| self.power_w[t as usize] * a.stage_time);
        a.energy + open + self.suffix_energy[len]
    }

    /// Greedily completes a prefix: each remaining node takes the
    /// supported target minimizing the objective's lower bound after the
    /// extension (lowest target index on ties — deterministic), scored
    /// with [`CostModel::peek_bound`] so only the chosen extension is
    /// built. Used by the tuner's rollout step to obtain early incumbents
    /// that tighten pruning; the completion's score is still evaluated
    /// exactly. The completion is a pure function of the prefix.
    #[must_use]
    pub fn greedy_complete(&self, p: &PartialAssign, energy_objective: bool) -> PartialAssign {
        let t = self.targets.len();
        let mut q = p.clone();
        for i in q.assign.len()..self.num_nodes {
            let mut best_k = u8::MAX;
            let mut best_bound = f64::INFINITY;
            for k in 0..t {
                if !self.supported[i * t + k] {
                    continue;
                }
                let bound = self.peek_bound(&q, k as u8, energy_objective);
                if bound < best_bound {
                    best_bound = bound;
                    best_k = k as u8;
                }
            }
            self.extend_in_place(&mut q, best_k);
        }
        q
    }

    /// Scores one complete assignment through the scalar incremental
    /// path (the K=1 baseline the batched evaluator is compared against).
    ///
    /// # Panics
    ///
    /// Panics if the assignment's length differs from the node count.
    #[must_use]
    pub fn evaluate(&self, assign: &[u8]) -> SearchScore {
        assert_eq!(assign.len(), self.num_nodes, "assignment length != node count");
        let mut a = self.root_accum();
        for (i, &k) in assign.iter().enumerate() {
            self.step(&mut a, &assign[..i], k);
        }
        self.finish_accum(&a, assign.last().copied())
    }

    /// Scores up to [`MAX_LANES`] complete assignments per pass,
    /// node-major across the lanes so the per-node cost-table row and
    /// adjacency list are fetched once for all lanes. Lane state is a
    /// fixed array of scalar accumulators, and each lane's own
    /// assignment doubles as its stage table — no per-lane vectors, no
    /// heap traffic in the walk. Per-lane arithmetic is the scalar
    /// path's (same operands, same operation order), so results are
    /// bit-equal lane by lane.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_LANES`] lanes are passed or a lane's
    /// length differs from the node count.
    #[must_use]
    pub fn evaluate_batch(&self, lanes: &[&[u8]]) -> Vec<SearchScore> {
        assert!(lanes.len() <= MAX_LANES, "at most {MAX_LANES} lanes per pass");
        for lane in lanes {
            assert_eq!(lane.len(), self.num_nodes, "lane length != node count");
        }
        let mut acc = [self.root_accum(); MAX_LANES];
        for i in 0..self.num_nodes {
            for (a, lane) in acc.iter_mut().zip(lanes) {
                self.step(a, &lane[..i], lane[i]);
            }
        }
        acc.iter()
            .zip(lanes)
            .map(|(a, lane)| self.finish_accum(a, lane.last().copied()))
            .collect()
    }

    /// Materializes the [`Schedule`] induced by a complete assignment:
    /// consecutive runs of equal targets become stages, every stage
    /// carries the model's sync overhead, and the schedule carries its
    /// query overhead.
    #[must_use]
    pub fn schedule(&self, assign: &[u8]) -> Schedule {
        assert_eq!(assign.len(), self.num_nodes, "assignment incomplete");
        let mut stages: Vec<Stage> = Vec::new();
        for (i, &k) in assign.iter().enumerate() {
            let tgt = self.targets[k as usize];
            match stages.last_mut() {
                Some(s) if s.engine == tgt.engine && s.dtype == tgt.dtype => {
                    s.nodes.push(self.node_ids[i]);
                }
                _ => stages.push(Stage {
                    engine: tgt.engine,
                    dtype: tgt.dtype,
                    nodes: vec![self.node_ids[i]],
                    sync_overhead_us: self.sync_us,
                }),
            }
        }
        Schedule { stages, query_overhead_us: self.query_us }
    }

    /// Maps a schedule back to a per-node target-index assignment, or
    /// `None` if some stage's `(engine, dtype)` is outside the target
    /// set. The schedule must be valid for the graph the model was built
    /// from.
    #[must_use]
    pub fn assignment_of(&self, schedule: &Schedule) -> Option<Vec<u8>> {
        let mut assign = vec![u8::MAX; self.num_nodes];
        for stage in &schedule.stages {
            let k = self
                .targets
                .iter()
                .position(|tgt| tgt.engine == stage.engine && tgt.dtype == stage.dtype)?
                as u8;
            for nid in &stage.nodes {
                assign[nid.index()] = k;
            }
        }
        if assign.contains(&u8::MAX) {
            return None;
        }
        Some(assign)
    }
}

/// Active compute energy of one query in joules, at nominal frequency:
/// the `Σ engine.active_power_w · stage_time` numerator that
/// `StreamPlan::lower` folds for [`StreamPlan::power_w`], replicated
/// term-for-term. Launch/sync/transfer intervals draw platform idle
/// power in the thermal model and are excluded — this is the energy the
/// *placement* controls, which is what the tuner's energy objective
/// optimizes.
///
/// [`StreamPlan::power_w`]: crate::plan::StreamPlan::power_w
///
/// # Panics
///
/// Panics if the schedule is invalid for the graph.
#[must_use]
pub fn active_energy_j(soc: &Soc, graph: &Graph, schedule: &Schedule) -> f64 {
    schedule
        .validate(graph)
        .unwrap_or_else(|e| panic!("invalid schedule for {}: {e}", graph.name()));
    let mut power_time = 0.0;
    for stage in &schedule.stages {
        let engine = &soc.engines[stage.engine.0];
        let mut stage_time = 0.0;
        for &nid in &stage.nodes {
            let node = graph.node(nid);
            let compute = if node.cost.flops == 0 {
                0.0
            } else {
                node.cost.flops as f64
                    / (engine.peak_ops(stage.dtype) * engine.efficiency(node.class()))
            };
            let memory =
                node.cost.total_bytes(stage.dtype) as f64 / (engine.mem_bandwidth_gbps * 1e9);
            stage_time += compute.max(memory) + engine.per_op_overhead_us * 1e-6;
        }
        power_time += engine.active_power_w * stage_time;
    }
    power_time
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ChipId;
    use crate::engine::EngineKind;
    use crate::executor::estimate_query_secs;
    use nn_graph::graph::retype;
    use nn_graph::models::ModelId;

    fn setup() -> (Soc, Graph, Vec<SearchTarget>) {
        let soc = ChipId::Dimensity1100.build();
        let graph = retype(&ModelId::MobileNetEdgeTpu.build(), DataType::U8);
        let npu = soc.engine_of_kind(EngineKind::Npu).unwrap();
        let cpu = soc.cpu();
        let targets = vec![
            SearchTarget { engine: npu, dtype: DataType::U8 },
            SearchTarget { engine: cpu, dtype: DataType::U8 },
        ];
        (soc, graph, targets)
    }

    /// Deterministic pseudo-random assignment stream (xorshift), mapped
    /// to supported targets only.
    fn random_assignments(model: &CostModel, count: usize, mut seed: u64) -> Vec<Vec<u8>> {
        let t = model.targets().len();
        (0..count)
            .map(|_| {
                (0..model.num_nodes())
                    .map(|i| {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        let mut k = (seed % t as u64) as usize;
                        while !model.is_supported(i, k) {
                            k = (k + 1) % t;
                        }
                        k as u8
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn incremental_matches_executor_bit_exactly() {
        let (soc, graph, targets) = setup();
        let model = CostModel::new(&soc, &graph, &targets, 10.0, 0.0);
        for assign in random_assignments(&model, 32, 0x5eed_cafe) {
            let score = model.evaluate(&assign);
            let schedule = model.schedule(&assign);
            let canon_lat = estimate_query_secs(&soc, &graph, &schedule);
            let canon_j = active_energy_j(&soc, &graph, &schedule);
            assert_eq!(score.latency_secs.to_bits(), canon_lat.to_bits(), "latency ULP drift");
            assert_eq!(score.energy_j.to_bits(), canon_j.to_bits(), "energy ULP drift");
        }
    }

    #[test]
    fn batch_matches_scalar_bit_exactly() {
        let (soc, graph, targets) = setup();
        let model = CostModel::new(&soc, &graph, &targets, 10.0, 190.0);
        let assigns = random_assignments(&model, MAX_LANES, 0xfeed_f00d);
        let lanes: Vec<&[u8]> = assigns.iter().map(Vec::as_slice).collect();
        let batch = model.evaluate_batch(&lanes);
        for (lane, got) in assigns.iter().zip(&batch) {
            let want = model.evaluate(lane);
            assert_eq!(got.latency_secs.to_bits(), want.latency_secs.to_bits());
            assert_eq!(got.energy_j.to_bits(), want.energy_j.to_bits());
        }
    }

    #[test]
    fn bounds_are_admissible_along_random_paths() {
        let (soc, graph, targets) = setup();
        let model = CostModel::new(&soc, &graph, &targets, 10.0, 0.0);
        // Relative slack for fold-order differences between the bound
        // (one big suffix sum) and the exact completion.
        let slack = 1e-9;
        for assign in random_assignments(&model, 8, 0xab5e_11e5) {
            let final_score = model.evaluate(&assign);
            let mut p = model.root();
            for &k in &assign {
                assert!(
                    model.bound_latency(&p) <= final_score.latency_secs * (1.0 + slack),
                    "latency bound overshoots completion"
                );
                assert!(
                    model.bound_energy(&p) <= final_score.energy_j * (1.0 + slack),
                    "energy bound overshoots completion"
                );
                model.extend_in_place(&mut p, k);
            }
            let done = model.finish(&p);
            assert_eq!(done.latency_secs.to_bits(), final_score.latency_secs.to_bits());
        }
    }

    #[test]
    fn assignment_round_trips_through_schedule() {
        let (soc, graph, targets) = setup();
        let model = CostModel::new(&soc, &graph, &targets, 10.0, 0.0);
        for assign in random_assignments(&model, 4, 0x0dd_ba11) {
            let schedule = model.schedule(&assign);
            schedule.validate(&graph).expect("induced schedule is valid");
            assert_eq!(model.assignment_of(&schedule), Some(assign));
        }
    }

    /// MobileBERT on Exynos 2100 over its three engines: 798 nodes whose
    /// attention and residual ops read several inputs, so random
    /// assignments put many multi-input nodes downstream of closed
    /// stages on other engines.
    fn mobilebert_setup() -> (Soc, Graph, Vec<SearchTarget>) {
        let soc = ChipId::Exynos2100.build();
        let graph = ModelId::MobileBert.build();
        let npu = soc.engine_of_kind(EngineKind::Npu).unwrap();
        let gpu = soc.engine_of_kind(EngineKind::Gpu).unwrap();
        let targets = vec![
            SearchTarget { engine: npu, dtype: DataType::U8 },
            SearchTarget { engine: gpu, dtype: DataType::F16 },
            SearchTarget { engine: soc.cpu(), dtype: DataType::F32 },
        ];
        (soc, graph, targets)
    }

    #[test]
    fn evaluators_match_executor_on_a_multi_input_graph() {
        let (soc, graph, targets) = mobilebert_setup();
        assert_eq!(graph.len(), 798);
        assert!(graph.iter().filter(|nd| nd.inputs.len() > 1).count() > 100);
        let model = CostModel::new(&soc, &graph, &targets, 10.0, 190.0);
        let assigns = random_assignments(&model, MAX_LANES, 0xbe27_5eed);
        let lanes: Vec<&[u8]> = assigns.iter().map(Vec::as_slice).collect();
        let batch = model.evaluate_batch(&lanes);
        for (assign, got) in assigns.iter().zip(&batch) {
            let schedule = model.schedule(assign);
            let canon_lat = estimate_query_secs(&soc, &graph, &schedule);
            let canon_j = active_energy_j(&soc, &graph, &schedule);
            let scalar = model.evaluate(assign);
            assert_eq!(scalar.latency_secs.to_bits(), canon_lat.to_bits(), "scalar latency");
            assert_eq!(scalar.energy_j.to_bits(), canon_j.to_bits(), "scalar energy");
            assert_eq!(got.latency_secs.to_bits(), canon_lat.to_bits(), "batched latency");
            assert_eq!(got.energy_j.to_bits(), canon_j.to_bits(), "batched energy");
        }
    }

    #[test]
    fn peek_bound_matches_the_built_extension_on_a_multi_input_graph() {
        let (soc, graph, targets) = mobilebert_setup();
        let model = CostModel::new(&soc, &graph, &targets, 10.0, 190.0);
        let assign = &random_assignments(&model, 1, 0x9ee6_b0d5)[0];
        let mut p = model.root();
        for (i, &next) in assign.iter().enumerate() {
            for k in 0..targets.len() {
                if !model.is_supported(i, k) {
                    continue;
                }
                let q = model.extend(&p, k as u8);
                assert_eq!(
                    model.peek_bound(&p, k as u8, false).to_bits(),
                    model.bound_latency(&q).to_bits(),
                    "latency bound of node {i} on target {k}"
                );
                assert_eq!(
                    model.peek_bound(&p, k as u8, true).to_bits(),
                    model.bound_energy(&q).to_bits(),
                    "energy bound of node {i} on target {k}"
                );
            }
            model.extend_in_place(&mut p, next);
        }
        assert_eq!(model.finish(&p), model.evaluate(assign));
    }
}
