//! Functional SPMD execution and equivalence checking.

use std::collections::HashMap;

use hap_balancer::round_shards;
use hap_collectives::{all_gather, all_reduce, all_to_all, reduce_scatter};
use hap_graph::{eval_single_device, Graph, NodeId, Op, Placement, Tensor};
use hap_synthesis::{CollectiveInstr, DistInstr, DistProgram, Prop, PropSet, ShardingRatios};

/// Functional execution failures.
#[derive(Debug)]
pub enum ExecError {
    /// A leaf had no feed.
    MissingFeed(NodeId),
    /// An instruction consumed a distributed tensor that was never produced.
    MissingValue(NodeId, Placement),
    /// Underlying kernel failure.
    Eval(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::MissingFeed(n) => write!(f, "missing feed for leaf {n}"),
            ExecError::MissingValue(n, p) => {
                write!(f, "instruction needs ({n} | {p}) which was never produced")
            }
            ExecError::Eval(e) => write!(f, "kernel failure: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// A distributed tensor: one instance per device.
#[derive(Clone, Debug)]
struct DistTensor {
    shards: Vec<Tensor>,
}

/// The executor's event-dedup structure: every produced
/// `(node, placement)` pair, keyed through the synthesis crate's canonical
/// [`PropSet`] (the same sorted-arena machinery the baselines walker
/// uses) with the tensor payloads in a parallel vector at the matching
/// sorted index. Membership is one binary search; a node's placements are
/// a contiguous [`PropSet::node_props`] slice, which also makes output
/// reconstruction *deterministic* — the old `HashMap` picked whichever
/// placement its randomized iteration order surfaced first.
#[derive(Default)]
struct DistValues {
    keys: PropSet,
    tensors: Vec<DistTensor>,
}

impl DistValues {
    /// The tensor produced for `p`, if any.
    fn get(&self, p: &Prop) -> Option<&DistTensor> {
        self.keys.props().binary_search(p).ok().map(|idx| &self.tensors[idx])
    }

    /// Records `p -> t`, overwriting any earlier production (mirroring the
    /// pre-port `HashMap::insert` semantics).
    fn insert(&mut self, p: Prop, t: DistTensor) {
        match self.keys.props().binary_search(&p) {
            Ok(idx) => self.tensors[idx] = t,
            Err(idx) => {
                let inserted = self.keys.insert(p);
                debug_assert!(inserted, "binary search said absent");
                self.tensors.insert(idx, t);
            }
        }
    }

    /// The canonically-first placement produced for `node`, with its
    /// tensor: the deterministic choice for output reconstruction.
    fn first_for_node(&self, node: NodeId) -> Option<(Placement, &DistTensor)> {
        let slice = self.keys.node_props(node);
        let &(_, placement) = slice.first()?;
        self.get(&(node, placement)).map(|t| (placement, t))
    }
}

/// The reconstructed values of every produced (node, placement) pair.
pub struct EquivReport {
    /// Per-output relative error: `max|dist - ref| / (1 + max|ref|)`.
    ///
    /// Relative to the reference magnitude because f32 summation-order
    /// differences between the sharded and single-device programs grow with
    /// tensor magnitude (a sum-reduced loss over a large batch is big).
    pub output_errors: Vec<(NodeId, f32)>,
    /// The largest relative error across required outputs.
    pub max_error: f32,
}

/// Executes a distributed program functionally on `m` devices.
///
/// Returns the reconstructed reference tensor for every required output of
/// the graph (loss and updated parameters): replicas are taken from device
/// 0 after cross-checking, shards are concatenated, partial sums are summed.
pub fn execute_functional(
    graph: &Graph,
    program: &DistProgram,
    feeds: &HashMap<NodeId, Tensor>,
    ratios: &ShardingRatios,
    m: usize,
) -> Result<HashMap<NodeId, Tensor>, ExecError> {
    let mut values = DistValues::default();
    let row_for = |node: NodeId| -> &[f64] {
        let seg = graph.node(node).segment.min(ratios.len() - 1);
        &ratios[seg]
    };

    for instr in &program.instrs {
        match instr {
            DistInstr::Leaf { node, placement } => {
                let full = match graph.node(*node).op {
                    Op::Ones => Tensor::ones(graph.node(*node).shape.dims().to_vec()),
                    _ => feeds.get(node).ok_or(ExecError::MissingFeed(*node))?.clone(),
                };
                let shards = match placement {
                    Placement::Replicated => vec![full; m],
                    Placement::Shard(d) => {
                        let extent = full.shape().dims()[*d];
                        let sizes = round_shards(extent, row_for(*node));
                        full.split_sizes(*d, &sizes).map_err(|e| ExecError::Eval(e.to_string()))?
                    }
                    Placement::PartialSum => {
                        return Err(ExecError::Eval("leaves cannot be partial".into()))
                    }
                };
                values.insert((*node, *placement), DistTensor { shards });
            }
            DistInstr::Compute { node, rule } => {
                let n = graph.node(*node);
                let mut inputs: Vec<&DistTensor> = Vec::with_capacity(n.inputs.len());
                for (&input, &placement) in n.inputs.iter().zip(rule.inputs.iter()) {
                    inputs.push(
                        values
                            .get(&(input, placement))
                            .ok_or(ExecError::MissingValue(input, placement))?,
                    );
                }
                let mut shards = Vec::with_capacity(m);
                for j in 0..m {
                    let local: Vec<&Tensor> = inputs.iter().map(|t| &t.shards[j]).collect();
                    let op = localized_op(&n.op, rule.output, row_for(*node), j);
                    let out = hap_graph::eval_op(&op, &local)
                        .map_err(|e| ExecError::Eval(format!("{}: {e}", n.name)))?;
                    shards.push(out);
                }
                values.insert((*node, rule.output), DistTensor { shards });
            }
            DistInstr::Collective { node, kind } => {
                let input_p = kind.input_placement();
                let input =
                    values.get(&(*node, input_p)).ok_or(ExecError::MissingValue(*node, input_p))?;
                let extent_of = |d: usize| graph.node(*node).shape.dims()[d];
                let out_shards = match kind {
                    CollectiveInstr::AllReduce => all_reduce(&input.shards),
                    CollectiveInstr::AllGather { dim, .. } => all_gather(&input.shards, *dim),
                    CollectiveInstr::ReduceScatter { dim } => {
                        let sizes = round_shards(extent_of(*dim), row_for(*node));
                        reduce_scatter(&input.shards, *dim, &sizes)
                    }
                    CollectiveInstr::AllToAll { from, to } => {
                        let sizes = round_shards(extent_of(*to), row_for(*node));
                        all_to_all(&input.shards, *from, *to, &sizes)
                    }
                }
                .map_err(|e| ExecError::Eval(e.to_string()))?;
                values.insert((*node, kind.output_placement()), DistTensor { shards: out_shards });
            }
        }
    }

    // Reconstruct required outputs from the canonically-first placement
    // each node was produced under (deterministic; every placement of a
    // correct program reconstructs the same value up to float rounding).
    let mut out = HashMap::new();
    for o in graph.required_outputs() {
        let Some((placement, dist)) = values.first_for_node(o) else {
            continue;
        };
        let tensor = reconstruct(dist, placement, o, graph)?;
        out.insert(o, tensor);
    }
    Ok(out)
}

/// Recovers the reference tensor from a distributed tensor.
fn reconstruct(
    dist: &DistTensor,
    placement: Placement,
    node: NodeId,
    graph: &Graph,
) -> Result<Tensor, ExecError> {
    match placement {
        Placement::Replicated => Ok(dist.shards[0].clone()),
        Placement::Shard(d) => Tensor::concat(&dist.shards, d)
            .map_err(|e| ExecError::Eval(format!("gather of node {node}: {e}"))),
        Placement::PartialSum => {
            let mut acc = dist.shards[0].clone();
            for s in &dist.shards[1..] {
                acc = acc.add(s).map_err(|e| ExecError::Eval(e.to_string()))?;
            }
            let _ = graph;
            Ok(acc)
        }
    }
}

/// Adjusts op attributes that depend on the local shard (MoE capacities).
fn localized_op(op: &Op, output: Placement, row: &[f64], device: usize) -> Op {
    match (op, output) {
        (Op::Dispatch { experts, capacity }, Placement::Shard(1)) => {
            let local = round_shards(*capacity, row);
            Op::Dispatch { experts: *experts, capacity: local[device] }
        }
        (Op::CombineGrad { experts, capacity }, Placement::Shard(1)) => {
            let local = round_shards(*capacity, row);
            Op::CombineGrad { experts: *experts, capacity: local[device] }
        }
        _ => op.clone(),
    }
}

/// Runs the single-device program and the distributed program on the same
/// feeds and compares every required output.
pub fn verify_equivalence(
    graph: &Graph,
    program: &DistProgram,
    feeds: &HashMap<NodeId, Tensor>,
    ratios: &ShardingRatios,
    m: usize,
) -> Result<EquivReport, ExecError> {
    let reference = eval_single_device(graph, feeds).map_err(|e| ExecError::Eval(e.to_string()))?;
    let distributed = execute_functional(graph, program, feeds, ratios, m)?;
    let mut output_errors = Vec::new();
    let mut max_error = 0f32;
    for o in graph.required_outputs() {
        let dist = distributed.get(&o).ok_or(ExecError::MissingValue(o, Placement::Replicated))?;
        let abs = dist.max_abs_diff(&reference[o]).map_err(|e| ExecError::Eval(e.to_string()))?;
        let scale = reference[o].data().iter().fold(0f32, |m, v| m.max(v.abs()));
        let rel = abs / (1.0 + scale);
        max_error = max_error.max(rel);
        output_errors.push((o, rel));
    }
    Ok(EquivReport { output_errors, max_error })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_cluster::{ClusterSpec, Granularity};
    use hap_collectives::{profile_collectives, GroundTruthNet, NetworkParams};
    use hap_graph::{GraphBuilder, Role};
    use hap_synthesis::{synthesize, SynthConfig};

    fn feeds_for(graph: &Graph, seed: u64, classes: usize) -> HashMap<NodeId, Tensor> {
        let mut feeds = HashMap::new();
        for n in graph.nodes() {
            match n.role {
                Role::Input | Role::Param => {
                    feeds.insert(n.id, Tensor::randn(n.shape.dims().to_vec(), seed + n.id as u64));
                }
                Role::Label => {
                    let t = Tensor::randn(n.shape.dims().to_vec(), seed + n.id as u64).map(|v| {
                        ((v + 0.5) * classes as f32).floor().clamp(0.0, classes as f32 - 1.0)
                    });
                    feeds.insert(n.id, t);
                }
                _ => {}
            }
        }
        feeds
    }

    #[test]
    fn synthesized_mlp_training_is_equivalent() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", vec![16, 6]);
        let w1 = g.parameter("w1", vec![6, 12]);
        let b1 = g.parameter("b1", vec![12]);
        let w2 = g.parameter("w2", vec![12, 4]);
        let labels = g.label("y", vec![16]);
        let h = g.matmul(x, w1);
        let h = g.bias_add(h, b1);
        let h = g.relu(h);
        let logits = g.matmul(h, w2);
        let loss = g.cross_entropy(logits, labels);
        let graph = g.build_training(loss).unwrap();

        let cluster = ClusterSpec::fig17_cluster();
        let devices = cluster.virtual_devices(Granularity::PerGpu);
        let profile =
            profile_collectives(&GroundTruthNet::new(NetworkParams::paper_cloud()), devices.len());
        let ratios = vec![cluster.proportional_ratios(Granularity::PerGpu)];
        let q = synthesize(&graph, &devices, &profile, &ratios, &SynthConfig::default()).unwrap();
        let feeds = feeds_for(&graph, 5, 4);
        let report = verify_equivalence(&graph, &q, &feeds, &ratios, 4).unwrap();
        assert!(
            report.max_error < 1e-3,
            "max error {} in program:\n{}",
            report.max_error,
            q.listing(&graph)
        );
    }

    #[test]
    fn forced_sharded_program_is_equivalent() {
        // Hand-build a tensor-parallel program: w sharded on columns,
        // all-gather before the loss.
        use hap_graph::Placement::{Replicated, Shard};
        use hap_graph::Rule;
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", vec![6, 8]);
        let w = g.parameter("w", vec![8, 10]);
        let y = g.matmul(x, w);
        let l = g.sum_all(y);
        let graph = g.build_forward();
        let program = DistProgram {
            instrs: vec![
                DistInstr::Leaf { node: x, placement: Replicated },
                DistInstr::Leaf { node: w, placement: Shard(1) },
                DistInstr::Compute {
                    node: y,
                    rule: Rule::new(vec![Replicated, Shard(1)], Shard(1)),
                },
                DistInstr::Collective {
                    node: y,
                    kind: CollectiveInstr::AllGather { dim: 1, grouped: true },
                },
                DistInstr::Compute { node: l, rule: Rule::new(vec![Replicated], Replicated) },
            ],
            estimated_time: 0.0,
        };
        let feeds = feeds_for(&graph, 9, 4);
        // Uneven ratios stress the rounding path.
        let ratios = vec![vec![0.5, 0.3, 0.1, 0.1]];
        let reference = eval_single_device(&graph, &feeds).unwrap();
        let out = execute_functional(&graph, &program, &feeds, &ratios, 4).unwrap();
        let _ = reference;
        // The loss is replicated; compare against single-device.
        let single = eval_single_device(&graph, &feeds).unwrap();
        assert!(out[&l].allclose(&single[l], 1e-4));
    }

    #[test]
    fn missing_value_is_reported() {
        use hap_graph::Placement::Replicated;
        use hap_graph::Rule;
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", vec![4, 4]);
        let l = g.sum_all(x);
        let graph = g.build_forward();
        let program = DistProgram {
            instrs: vec![
                // x is never materialized.
                DistInstr::Compute { node: l, rule: Rule::new(vec![Replicated], Replicated) },
            ],
            estimated_time: 0.0,
        };
        let feeds = feeds_for(&graph, 1, 4);
        let err = execute_functional(&graph, &program, &feeds, &vec![vec![0.5, 0.5]], 2);
        assert!(matches!(err, Err(ExecError::MissingValue(_, _))));
    }

    #[test]
    fn dist_values_dedup_matches_a_hashmap_reference() {
        // The PropSet-backed structure must behave exactly like the
        // pre-port HashMap for membership, overwrite, and lookup — walked
        // over a pseudo-random op sequence covering collisions, repeats,
        // and all placement kinds.
        let marker = |v: f32| DistTensor { shards: vec![Tensor::ones(vec![1]).map(|_| v)] };
        let value_of = |t: &DistTensor| t.shards[0].data()[0];
        let mut ours = DistValues::default();
        let mut reference: HashMap<(NodeId, Placement), f32> = HashMap::new();
        let mut mix = 0xDEADBEEFu64;
        for step in 0..4_000u32 {
            mix = mix.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let node = (mix >> 8) as usize % 37;
            let placement = match (mix >> 16) % 4 {
                0 => Placement::Replicated,
                1 => Placement::PartialSum,
                d => Placement::Shard((d - 2) as usize),
            };
            if mix.is_multiple_of(3) {
                let v = step as f32;
                ours.insert((node, placement), marker(v));
                reference.insert((node, placement), v);
            } else {
                let got = ours.get(&(node, placement)).map(value_of);
                assert_eq!(got, reference.get(&(node, placement)).copied(), "step {step}");
            }
        }
        // Full-membership sweep at the end.
        for (&key, &v) in &reference {
            assert_eq!(ours.get(&key).map(value_of), Some(v));
        }
        assert_eq!(ours.keys.len(), reference.len());
    }

    #[test]
    fn execute_functional_is_bit_identical_across_runs() {
        // The reconstruct path used to pick an arbitrary placement out of
        // HashMap iteration order (randomized per process); the canonical
        // PropSet slice makes output selection deterministic. Two
        // independent executions must agree to the bit.
        let build = || {
            let mut g = GraphBuilder::new();
            let x = g.placeholder("x", vec![16, 6]);
            let w = g.parameter("w", vec![6, 4]);
            let labels = g.label("y", vec![16]);
            let h = g.matmul(x, w);
            let loss = g.cross_entropy(h, labels);
            g.build_training(loss).unwrap()
        };
        let graph = build();
        let cluster = ClusterSpec::fig17_cluster();
        let devices = cluster.virtual_devices(Granularity::PerGpu);
        let profile =
            profile_collectives(&GroundTruthNet::new(NetworkParams::paper_cloud()), devices.len());
        let ratios = vec![cluster.proportional_ratios(Granularity::PerGpu)];
        let q = synthesize(&graph, &devices, &profile, &ratios, &SynthConfig::default()).unwrap();
        let feeds = feeds_for(&graph, 3, 4);
        let a = execute_functional(&graph, &q, &feeds, &ratios, 4).unwrap();
        let graph_b = build();
        let b = execute_functional(&graph_b, &q, &feeds, &ratios, 4).unwrap();
        assert_eq!(a.len(), b.len());
        for (node, ta) in &a {
            let tb = &b[node];
            assert_eq!(ta.shape().dims(), tb.shape().dims());
            for (va, vb) in ta.data().iter().zip(tb.data().iter()) {
                assert_eq!(va.to_bits(), vb.to_bits(), "output {node} drifted");
            }
        }
    }

    #[test]
    fn reduce_scatter_path_is_equivalent() {
        use hap_graph::Placement::{PartialSum, Shard};
        use hap_graph::Rule;
        // x sharded on the contraction dim: matmul produces partial sums,
        // reduce-scatter shards them, sum of shard-sums equals the loss.
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", vec![6, 8]);
        let w = g.parameter("w", vec![8, 10]);
        let y = g.matmul(x, w);
        let l = g.sum_all(y);
        let graph = g.build_forward();
        let program = DistProgram {
            instrs: vec![
                DistInstr::Leaf { node: x, placement: Shard(1) },
                DistInstr::Leaf { node: w, placement: Shard(0) },
                DistInstr::Compute {
                    node: y,
                    rule: Rule::new(vec![Shard(1), Shard(0)], PartialSum),
                },
                DistInstr::Collective { node: y, kind: CollectiveInstr::ReduceScatter { dim: 0 } },
                DistInstr::Compute { node: l, rule: Rule::new(vec![Shard(0)], PartialSum) },
            ],
            estimated_time: 0.0,
        };
        let feeds = feeds_for(&graph, 13, 4);
        let ratios = vec![vec![0.4, 0.3, 0.2, 0.1]];
        let out = execute_functional(&graph, &program, &feeds, &ratios, 4).unwrap();
        let single = eval_single_device(&graph, &feeds).unwrap();
        assert!(out[&l].allclose(&single[l], 1e-3), "got {:?} want {:?}", out[&l], single[l]);
    }
}
