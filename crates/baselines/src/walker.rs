//! Deterministic sharding-propagation program builder.
//!
//! The walker's bookkeeping reuses the synthesis crate's canonical
//! [`PropSet`] — the property sets the synthesis theory is stated in —
//! instead of private per-node `Vec`s and a `HashSet`: membership ("is `e`
//! available under placement `p`?") is one binary search over a single
//! sorted arena, per-node placements are a contiguous
//! [`PropSet::node_props`] slice, and the set's incrementally maintained
//! stable hash comes for free should callers ever want to hash-cons walker
//! states.

use hap_graph::{Graph, NodeId, Op, Placement, Role, Rule};
use hap_synthesis::{CollectiveInstr, DistInstr, DistProgram, PropSet};

/// How parameter gradients are synchronized.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GradSync {
    /// All-reduce the gradient and update replicated parameters (DDP).
    AllReduce,
    /// Reduce-scatter the gradient and update parameter shards (ZeRO).
    ReduceScatter,
}

/// Options for the propagation walker.
#[derive(Clone, Debug)]
pub struct WalkOptions {
    /// Gradient synchronization style.
    pub grad_sync: GradSync,
    /// Shard rank-3 parameters whose name matches this substring on their
    /// leading (expert) dimension — expert parallelism for MoE weights.
    pub expert_parallel: Option<String>,
    /// Apply sufficient factor broadcasting per gradient when the factor
    /// gathers are cheaper than the gradient all-reduce (TAG's decision).
    /// The tuple is (bytes-equivalent cost of 1 flop on the slowest device,
    /// number of devices) used for the greedy comparison.
    pub sfb_flop_cost: Option<f64>,
}

impl Default for WalkOptions {
    fn default() -> Self {
        WalkOptions { grad_sync: GradSync::AllReduce, expert_parallel: None, sfb_flop_cost: None }
    }
}

/// Walker failures.
#[derive(Debug, Clone, PartialEq)]
pub enum WalkError {
    /// No rule of the op could be satisfied even with conversions.
    Stuck(NodeId, String),
}

impl std::fmt::Display for WalkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalkError::Stuck(id, op) => write!(f, "no feasible placement for node {id} ({op})"),
        }
    }
}

impl std::error::Error for WalkError {}

struct Walk<'a> {
    graph: &'a Graph,
    opts: &'a WalkOptions,
    /// Every materialized `(node, placement)` pair — one canonical sorted
    /// set, probed by binary search (`contains`) and sliced per node
    /// (`node_props`) instead of the old per-node `Vec` linear scans.
    available: PropSet,
    /// The placement each node was *produced* under (its rule output /
    /// first leaf materialization), as opposed to conversions added later.
    produced: Vec<Option<Placement>>,
    /// Conversions already emitted (the dedup set), same canonical type.
    converted: PropSet,
    instrs: Vec<DistInstr>,
}

/// Builds a distributed program by propagating shardings through the graph.
pub fn propagate(graph: &Graph, opts: &WalkOptions) -> Result<DistProgram, WalkError> {
    let mut w = Walk {
        graph,
        opts,
        available: PropSet::new(),
        produced: vec![None; graph.len()],
        converted: PropSet::new(),
        instrs: Vec::new(),
    };
    for node in graph.nodes() {
        if node.op.is_leaf() {
            w.emit_leaf(node.id, w.leaf_placement(node.id));
        } else if matches!(node.op, Op::UpdateParam { .. }) {
            w.emit_update(node.id)?;
        } else {
            w.emit_compute(node.id)?;
        }
    }
    Ok(DistProgram { instrs: w.instrs, estimated_time: 0.0 })
}

impl Walk<'_> {
    fn leaf_placement(&self, id: NodeId) -> Placement {
        let node = self.graph.node(id);
        let batchable = node.shape.dims().first().is_some_and(|&d| d >= 2);
        match node.role {
            Role::Param => {
                if let Some(pat) = &self.opts.expert_parallel {
                    if node.shape.rank() == 3 && node.name.contains(pat.as_str()) && batchable {
                        return Placement::Shard(0);
                    }
                }
                Placement::Replicated
            }
            // Inputs, labels and gradient seeds are batch-sharded.
            _ if batchable => Placement::Shard(0),
            _ => Placement::Replicated,
        }
    }

    fn emit_leaf(&mut self, id: NodeId, placement: Placement) {
        if self.available.insert((id, placement)) {
            if self.produced[id].is_none() {
                self.produced[id] = Some(placement);
            }
            self.instrs.push(DistInstr::Leaf { node: id, placement });
        }
    }

    /// Makes `want` available for `id`, inserting a conversion collective or
    /// re-materializing a leaf. Returns false when impossible. When several
    /// materialized placements can convert, the cheapest conversion wins
    /// (ties to the canonical placement order) — the same minimum
    /// [`conversion_cost`](Self::conversion_cost) already priced.
    fn convert(&mut self, id: NodeId, want: Placement) -> bool {
        if self.available.contains(&(id, want)) {
            return true;
        }
        if self.graph.node(id).op.is_leaf() {
            if want == Placement::PartialSum {
                return false;
            }
            self.emit_leaf(id, want);
            return true;
        }
        let bytes = self.graph.node_bytes(id) as f64;
        let mut kind: Option<(f64, CollectiveInstr)> = None;
        for &(_, from) in self.available.node_props(id) {
            if let Some(k) = conversion(from, want) {
                let c = conversion_bytes(&k, bytes);
                if kind.as_ref().is_none_or(|(bc, _)| c < *bc) {
                    kind = Some((c, k));
                }
            }
        }
        match kind {
            Some((_, kind)) => {
                if self.converted.insert((id, want)) {
                    self.instrs.push(DistInstr::Collective { node: id, kind });
                    self.available.insert((id, want));
                }
                true
            }
            None => false,
        }
    }

    /// Bytes a conversion of `id` to `want` would move (None = impossible).
    fn conversion_cost(&self, id: NodeId, want: Placement) -> Option<f64> {
        if self.available.contains(&(id, want)) {
            return Some(0.0);
        }
        let bytes = self.graph.node_bytes(id) as f64;
        if self.graph.node(id).op.is_leaf() {
            return match want {
                Placement::PartialSum => None,
                // Re-materializing a leaf in a new placement "costs" its
                // size: it must be stored (and, for shards, loaded) again.
                _ => Some(bytes),
            };
        }
        self.available
            .node_props(id)
            .iter()
            .filter_map(|&(_, from)| conversion(from, want).map(|k| conversion_bytes(&k, bytes)))
            .fold(None, |acc: Option<f64>, c| Some(acc.map_or(c, |a| a.min(c))))
    }

    fn emit_compute(&mut self, id: NodeId) -> Result<(), WalkError> {
        let node = self.graph.node(id);
        let rules = self.graph.placement_rules(id);
        // Choose the rule with the cheapest total conversion bytes; ties go
        // to the earlier rule (rules list sharded executions first).
        let mut best: Option<(f64, &Rule)> = None;
        for rule in &rules {
            let mut cost = 0.0f64;
            let mut ok = true;
            for (&input, &want) in node.inputs.iter().zip(rule.inputs.iter()) {
                match self.conversion_cost(input, want) {
                    Some(c) => cost += c,
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok && best.as_ref().is_none_or(|(bc, _)| cost < *bc - 1e-9) {
                best = Some((cost, rule));
            }
        }
        let Some((_, rule)) = best else {
            return Err(WalkError::Stuck(id, node.op.name()));
        };
        let rule = rule.clone();
        for (&input, &want) in node.inputs.iter().zip(rule.inputs.iter()) {
            let converted = self.convert(input, want);
            debug_assert!(converted, "cost said convertible");
        }
        self.available.insert((id, rule.output));
        self.produced[id] = Some(rule.output);
        self.instrs.push(DistInstr::Compute { node: id, rule });
        Ok(())
    }

    fn emit_update(&mut self, id: NodeId) -> Result<(), WalkError> {
        let node = self.graph.node(id).clone();
        let (param, grad) = (node.inputs[0], node.inputs[1]);
        let grad_p = self.produced[grad].unwrap_or(Placement::Replicated);
        let target = match grad_p {
            Placement::PartialSum => {
                if self.try_sfb(id, param, grad) {
                    return Ok(());
                }
                match self.opts.grad_sync {
                    GradSync::AllReduce => {
                        self.instrs.push(DistInstr::Collective {
                            node: grad,
                            kind: CollectiveInstr::AllReduce,
                        });
                        self.available.insert((grad, Placement::Replicated));
                        Placement::Replicated
                    }
                    GradSync::ReduceScatter => {
                        // Shard on the first dimension that can be split.
                        let dims = self.graph.node(param).shape.dims();
                        match (0..dims.len()).find(|&d| dims[d] >= 2) {
                            Some(d) => {
                                self.instrs.push(DistInstr::Collective {
                                    node: grad,
                                    kind: CollectiveInstr::ReduceScatter { dim: d },
                                });
                                self.available.insert((grad, Placement::Shard(d)));
                                Placement::Shard(d)
                            }
                            None => {
                                self.instrs.push(DistInstr::Collective {
                                    node: grad,
                                    kind: CollectiveInstr::AllReduce,
                                });
                                self.available.insert((grad, Placement::Replicated));
                                Placement::Replicated
                            }
                        }
                    }
                }
            }
            p => p,
        };
        self.emit_leaf(param, target);
        let rule = Rule::new(vec![target, target], target);
        self.available.insert((id, rule.output));
        self.produced[id] = Some(rule.output);
        self.instrs.push(DistInstr::Compute { node: id, rule });
        Ok(())
    }

    /// TAG-style sufficient factor broadcasting: when enabled and the
    /// gradient is a two-operand product of batch-sharded factors, gather
    /// the factors and recompute the gradient replicated if that moves
    /// fewer bytes than the all-reduce.
    fn try_sfb(&mut self, _update: NodeId, param: NodeId, grad: NodeId) -> bool {
        let Some(flop_cost) = self.opts.sfb_flop_cost else {
            return false;
        };
        let gnode = self.graph.node(grad).clone();
        let factor_product =
            matches!(gnode.op, Op::MatMul2 { .. } | Op::LinearGradW | Op::Conv2dGradW { .. });
        if !factor_product || gnode.inputs.len() != 2 {
            return false;
        }
        let grad_bytes = self.graph.node_bytes(grad) as f64;
        let factor_bytes: f64 = gnode.inputs.iter().map(|&i| self.graph.node_bytes(i) as f64).sum();
        let replicated_flops = self.graph.node_flops(grad);
        // All-reduce moves ~2x the gradient; SFB gathers both factors and
        // redoes the full product on every device.
        let ar_cost = 2.0 * grad_bytes;
        let sfb_cost = factor_bytes + replicated_flops * flop_cost;
        if sfb_cost >= ar_cost {
            return false;
        }
        // Gather both factors, recompute the gradient replicated.
        for &input in &gnode.inputs {
            if !self.convert(input, Placement::Replicated) {
                return false;
            }
        }
        let rule = Rule::new(vec![Placement::Replicated; 2], Placement::Replicated);
        self.available.insert((grad, Placement::Replicated));
        self.instrs.push(DistInstr::Compute { node: grad, rule });
        self.emit_leaf(param, Placement::Replicated);
        let urule =
            Rule::new(vec![Placement::Replicated, Placement::Replicated], Placement::Replicated);
        self.available.insert((_update, urule.output));
        self.produced[_update] = Some(urule.output);
        self.instrs.push(DistInstr::Compute { node: _update, rule: urule });
        true
    }
}

/// The collective converting `from` into `want`, when one exists.
fn conversion(from: Placement, want: Placement) -> Option<CollectiveInstr> {
    match (from, want) {
        (Placement::PartialSum, Placement::Replicated) => Some(CollectiveInstr::AllReduce),
        (Placement::PartialSum, Placement::Shard(d)) => {
            Some(CollectiveInstr::ReduceScatter { dim: d })
        }
        (Placement::Shard(d), Placement::Replicated) => {
            Some(CollectiveInstr::AllGather { dim: d, grouped: false })
        }
        (Placement::Shard(a), Placement::Shard(b)) if a != b => {
            Some(CollectiveInstr::AllToAll { from: a, to: b })
        }
        _ => None,
    }
}

/// Rough bytes moved by a conversion (for greedy rule choice).
fn conversion_bytes(kind: &CollectiveInstr, bytes: f64) -> f64 {
    match kind {
        CollectiveInstr::AllReduce => 2.0 * bytes,
        CollectiveInstr::AllGather { .. } => bytes,
        CollectiveInstr::ReduceScatter { .. } => bytes,
        CollectiveInstr::AllToAll { .. } => bytes * 0.5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_models::{bert_moe, mlp, MlpConfig, MoeConfig};

    #[test]
    fn dp_program_is_complete_and_allreduces() {
        let graph = mlp(&MlpConfig::tiny());
        let q = propagate(&graph, &WalkOptions::default()).unwrap();
        assert!(q.is_complete(&graph));
        let ars = q
            .instrs
            .iter()
            .filter(|i| matches!(i, DistInstr::Collective { kind: CollectiveInstr::AllReduce, .. }))
            .count();
        // One all-reduce per parameter gradient.
        assert_eq!(ars, graph.parameters().len());
    }

    #[test]
    fn zero_style_reduce_scatters() {
        let graph = mlp(&MlpConfig::tiny());
        let q = propagate(
            &graph,
            &WalkOptions { grad_sync: GradSync::ReduceScatter, ..WalkOptions::default() },
        )
        .unwrap();
        assert!(q.is_complete(&graph));
        assert!(q.instrs.iter().any(|i| matches!(
            i,
            DistInstr::Collective { kind: CollectiveInstr::ReduceScatter { .. }, .. }
        )));
    }

    #[test]
    fn expert_parallel_inserts_all_to_all() {
        let graph = bert_moe(&MoeConfig::tiny(4));
        let q = propagate(
            &graph,
            &WalkOptions {
                grad_sync: GradSync::ReduceScatter,
                expert_parallel: Some("expert_w".into()),
                ..WalkOptions::default()
            },
        )
        .unwrap();
        assert!(q.is_complete(&graph));
        assert!(
            q.instrs.iter().any(|i| matches!(
                i,
                DistInstr::Collective { kind: CollectiveInstr::AllToAll { .. }, .. }
            )),
            "expert parallelism requires token exchange:\n{}",
            q.listing(&graph)
        );
        // Expert weights must be shard-materialized, not replicated.
        let expert_params: Vec<_> = graph
            .nodes()
            .iter()
            .filter(|n| n.role == hap_graph::Role::Param && n.name.contains("expert_w"))
            .map(|n| n.id)
            .collect();
        for p in expert_params {
            assert!(q.instrs.iter().any(|i| matches!(
                i,
                DistInstr::Leaf { node, placement: Placement::Shard(0) } if *node == p
            )));
        }
    }

    #[test]
    fn dp_without_expert_flag_replicates_experts() {
        let graph = bert_moe(&MoeConfig::tiny(4));
        let q = propagate(&graph, &WalkOptions::default()).unwrap();
        assert!(q.is_complete(&graph));
        let expert_param = graph
            .nodes()
            .iter()
            .find(|n| n.role == hap_graph::Role::Param && n.name.contains("expert_w1"))
            .map(|n| n.id)
            .unwrap();
        assert!(q.instrs.iter().any(|i| matches!(
            i,
            DistInstr::Leaf { node, placement: Placement::Replicated } if *node == expert_param
        )));
    }

    #[test]
    fn sfb_fires_for_small_batches() {
        // Tiny batch, huge weight: factors are much smaller than the grad.
        let graph = mlp(&MlpConfig { batch: 2, input: 512, hidden: vec![512], classes: 4 });
        let q = propagate(
            &graph,
            &WalkOptions { sfb_flop_cost: Some(1e-12), ..WalkOptions::default() },
        )
        .unwrap();
        assert!(q.is_complete(&graph));
        // The big weight gradients must not be all-reduced.
        let big_grads: Vec<_> = graph
            .nodes()
            .iter()
            .filter(|n| n.role == hap_graph::Role::Grad && n.shape.numel() >= 512 * 512)
            .map(|n| n.id)
            .collect();
        assert!(!big_grads.is_empty());
        for g in big_grads {
            assert!(
                !q.instrs.iter().any(|i| matches!(
                    i,
                    DistInstr::Collective { node, kind: CollectiveInstr::AllReduce } if *node == g
                )),
                "grad {g} should use SFB:\n{}",
                q.listing(&graph)
            );
        }
    }
}
