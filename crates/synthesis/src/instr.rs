//! The distributed instruction set and programs (paper Sec. 4.1, Fig. 8).

use std::fmt;

use hap_graph::{Graph, NodeId, Placement, Role, Rule};

/// A collective communication instruction on a distributed tensor.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CollectiveInstr {
    /// Sums partial replicas: `e | All-Reduce  ->  e | Identity`.
    AllReduce,
    /// Concatenates shards: `e | All-Gather(d)  ->  e | Identity`.
    ///
    /// `grouped` selects the grouped-Broadcast implementation for uneven
    /// shards (paper Sec. 2.5.1); `false` is the NCCL-style padded one.
    AllGather {
        /// Sharding dimension being gathered.
        dim: usize,
        /// Use grouped Broadcast instead of padded All-Gather.
        grouped: bool,
    },
    /// Sums partial replicas and shards the result:
    /// `e | All-Reduce  ->  e | All-Gather(d)`.
    ReduceScatter {
        /// Output sharding dimension.
        dim: usize,
    },
    /// Re-shards: `e | All-Gather(d1)  ->  e | All-Gather(d2)`.
    AllToAll {
        /// Current sharding dimension.
        from: usize,
        /// Target sharding dimension.
        to: usize,
    },
}

impl CollectiveInstr {
    /// The placement this collective consumes.
    pub fn input_placement(&self) -> Placement {
        match self {
            CollectiveInstr::AllReduce | CollectiveInstr::ReduceScatter { .. } => {
                Placement::PartialSum
            }
            CollectiveInstr::AllGather { dim, .. } => Placement::Shard(*dim),
            CollectiveInstr::AllToAll { from, .. } => Placement::Shard(*from),
        }
    }

    /// The placement this collective produces.
    pub fn output_placement(&self) -> Placement {
        match self {
            CollectiveInstr::AllReduce | CollectiveInstr::AllGather { .. } => Placement::Replicated,
            CollectiveInstr::ReduceScatter { dim } => Placement::Shard(*dim),
            CollectiveInstr::AllToAll { to, .. } => Placement::Shard(*to),
        }
    }
}

impl fmt::Display for CollectiveInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveInstr::AllReduce => write!(f, "all-reduce"),
            CollectiveInstr::AllGather { dim, grouped: false } => {
                write!(f, "all-gather({dim})")
            }
            CollectiveInstr::AllGather { dim, grouped: true } => {
                write!(f, "grouped-broadcast({dim})")
            }
            CollectiveInstr::ReduceScatter { dim } => write!(f, "reduce-scatter({dim})"),
            CollectiveInstr::AllToAll { from, to } => write!(f, "all-to-all({from},{to})"),
        }
    }
}

/// One instruction of a distributed program.
#[derive(Clone, PartialEq, Debug)]
pub enum DistInstr {
    /// Materializes a leaf tensor (`Placeholder`, `Parameter`, `Label`,
    /// `Ones`) replicated or directly sharded — the specialized
    /// `Placeholder-Shard` / `Parameter-Shard` instructions of Sec. 4.1.
    Leaf {
        /// The graph leaf being materialized.
        node: NodeId,
        /// Replicated or `Shard(d)`.
        placement: Placement,
    },
    /// Executes a compute op on all devices under one of its rules.
    Compute {
        /// The graph node whose op runs.
        node: NodeId,
        /// The placement rule it runs under.
        rule: Rule,
    },
    /// Communicates the distributed tensor of a reference node.
    Collective {
        /// The reference tensor.
        node: NodeId,
        /// Which collective.
        kind: CollectiveInstr,
    },
}

impl DistInstr {
    /// The reference node this instruction produces or communicates.
    pub fn node(&self) -> NodeId {
        match self {
            DistInstr::Leaf { node, .. }
            | DistInstr::Compute { node, .. }
            | DistInstr::Collective { node, .. } => *node,
        }
    }

    /// True for collectives (stage boundaries, paper Fig. 6).
    pub fn is_collective(&self) -> bool {
        matches!(self, DistInstr::Collective { .. })
    }

    /// Folds this instruction into a running FNV-1a fingerprint.
    ///
    /// The encoding is purely structural (discriminant tags plus field
    /// values), so the hash is stable across runs, processes, and thread
    /// counts — the parallel search uses it as a deterministic tie-break.
    pub(crate) fn mix_fingerprint(&self, h: u64) -> u64 {
        match self {
            DistInstr::Leaf { node, placement } => {
                mix_placement(fnv1a(fnv1a(h, 1), *node as u64), *placement)
            }
            DistInstr::Compute { node, rule } => {
                let mut h = fnv1a(fnv1a(h, 2), *node as u64);
                h = fnv1a(h, rule.inputs.len() as u64);
                for &p in &rule.inputs {
                    h = mix_placement(h, p);
                }
                mix_placement(h, rule.output)
            }
            DistInstr::Collective { node, kind } => {
                let h = fnv1a(fnv1a(h, 3), *node as u64);
                match kind {
                    CollectiveInstr::AllReduce => fnv1a(h, 10),
                    CollectiveInstr::AllGather { dim, grouped } => {
                        fnv1a(fnv1a(fnv1a(h, 11), *dim as u64), *grouped as u64)
                    }
                    CollectiveInstr::ReduceScatter { dim } => fnv1a(fnv1a(h, 12), *dim as u64),
                    CollectiveInstr::AllToAll { from, to } => {
                        fnv1a(fnv1a(fnv1a(h, 13), *from as u64), *to as u64)
                    }
                }
            }
        }
    }
}

pub(crate) use fingerprint::{fnv1a, FNV_OFFSET};

/// The FNV-1a primitive behind every determinism-critical hash in this
/// crate: program fingerprints, which the parallel A\* merge sorts
/// candidates by.
///
/// Exposed publicly so downstream consumers that need *the same* stable
/// hash — the wire codec's content-addressed request fingerprints, cache
/// keys in the plan service — share one primitive instead of growing
/// subtly different copies.
pub mod fingerprint {
    /// The FNV-1a 64-bit offset basis (the empty-input hash).
    pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    /// One FNV-1a step over the little-endian bytes of `v`.
    pub fn fnv1a(mut h: u64, v: u64) -> u64 {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// Folds a byte slice into a running FNV-1a hash, byte by byte.
    ///
    /// `fnv1a_bytes(FNV_OFFSET, b"...")` is the classic FNV-1a digest of
    /// the slice; content fingerprints of canonical wire encodings use
    /// exactly this.
    pub fn fnv1a_bytes(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        h
    }
}

/// Folds a placement into a running FNV-1a hash (stable encoding).
pub(crate) fn mix_placement(h: u64, p: Placement) -> u64 {
    match p {
        Placement::Replicated => fnv1a(h, 0),
        Placement::Shard(d) => fnv1a(fnv1a(h, 1), d as u64),
        Placement::PartialSum => fnv1a(h, 2),
    }
}

/// A synthesized SPMD program: the same instruction sequence runs on every
/// device (paper Fig. 7).
#[derive(Clone, Debug, Default)]
pub struct DistProgram {
    /// Instructions in execution order.
    pub instrs: Vec<DistInstr>,
    /// The synthesizer's estimated per-iteration time in seconds.
    pub estimated_time: f64,
}

/// One synchronization stage: a leading collective (absent for the first
/// stage) followed by computation (paper Fig. 6).
#[derive(Clone, Debug)]
pub struct Stage<'p> {
    /// The collective that opens the stage, if any.
    pub collective: Option<&'p DistInstr>,
    /// Compute/leaf instructions in the stage.
    pub computes: Vec<&'p DistInstr>,
}

impl DistProgram {
    /// Stable 64-bit fingerprint of the instruction sequence.
    ///
    /// Two programs have the same fingerprint iff they contain the same
    /// instructions in the same order (modulo hash collision); the value is
    /// identical across runs, platforms, and synthesis thread counts, so
    /// determinism tests compare it directly.
    pub fn fingerprint(&self) -> u64 {
        self.instrs.iter().fold(FNV_OFFSET, |h, i| i.mix_fingerprint(h))
    }

    /// Splits the program into synchronization stages.
    pub fn stages(&self) -> Vec<Stage<'_>> {
        let mut stages = vec![Stage { collective: None, computes: Vec::new() }];
        for instr in &self.instrs {
            if instr.is_collective() {
                stages.push(Stage { collective: Some(instr), computes: Vec::new() });
            } else {
                stages.last_mut().expect("at least one stage").computes.push(instr);
            }
        }
        stages
    }

    /// Number of collective instructions.
    pub fn collective_count(&self) -> usize {
        self.instrs.iter().filter(|i| i.is_collective()).count()
    }

    /// True when every required output of the graph is produced by some
    /// instruction (the semantic-constraint check; see paper Sec. 4.2).
    pub fn is_complete(&self, graph: &Graph) -> bool {
        graph.required_outputs().iter().all(|&o| {
            self.instrs.iter().any(|i| match i {
                DistInstr::Compute { node, .. } => *node == o,
                _ => false,
            })
        })
    }

    /// Renders the program like the listings in paper Fig. 11.
    pub fn listing(&self, graph: &Graph) -> String {
        let mut out = String::new();
        for instr in &self.instrs {
            let line = match instr {
                DistInstr::Leaf { node, placement } => {
                    let n = graph.node(*node);
                    let base = match n.role {
                        Role::Input => "placeholder",
                        Role::Label => "label",
                        Role::Param => "parameter",
                        _ => "ones",
                    };
                    match placement {
                        Placement::Shard(d) => format!("{} = {base}-shard({d})", n.name),
                        _ => format!("{} = {base}()", n.name),
                    }
                }
                DistInstr::Compute { node, rule } => {
                    let n = graph.node(*node);
                    format!("{} = {}()  # out: {}", n.name, n.op.name(), rule.output)
                }
                DistInstr::Collective { node, kind } => {
                    let n = graph.node(*node);
                    format!("{} = {kind}({})", n.name, n.name)
                }
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_graph::GraphBuilder;

    fn fig11_program() -> (Graph, DistProgram) {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("e1", vec![8, 4]);
        let w = g.parameter("e2", vec![4, 2]);
        let y = g.matmul(x, w);
        let l = g.sum_all(y);
        let graph = g.build_forward();
        let prog = DistProgram {
            instrs: vec![
                DistInstr::Leaf { node: x, placement: Placement::Shard(0) },
                DistInstr::Leaf { node: w, placement: Placement::Replicated },
                DistInstr::Compute {
                    node: y,
                    rule: Rule::new(
                        vec![Placement::Shard(0), Placement::Replicated],
                        Placement::Shard(0),
                    ),
                },
                DistInstr::Collective {
                    node: y,
                    kind: CollectiveInstr::AllGather { dim: 0, grouped: false },
                },
                DistInstr::Compute {
                    node: l,
                    rule: Rule::new(vec![Placement::Replicated], Placement::Replicated),
                },
            ],
            estimated_time: 0.0,
        };
        (graph, prog)
    }

    #[test]
    fn stages_split_on_collectives() {
        let (_, prog) = fig11_program();
        let stages = prog.stages();
        assert_eq!(stages.len(), 2);
        assert!(stages[0].collective.is_none());
        assert_eq!(stages[0].computes.len(), 3);
        assert!(stages[1].collective.is_some());
        assert_eq!(stages[1].computes.len(), 1);
    }

    #[test]
    fn collective_placements() {
        let c = CollectiveInstr::ReduceScatter { dim: 1 };
        assert_eq!(c.input_placement(), Placement::PartialSum);
        assert_eq!(c.output_placement(), Placement::Shard(1));
        let a = CollectiveInstr::AllToAll { from: 0, to: 2 };
        assert_eq!(a.input_placement(), Placement::Shard(0));
        assert_eq!(a.output_placement(), Placement::Shard(2));
    }

    #[test]
    fn chain_fingerprint_matches_program_fingerprint() {
        // The search extends a state's fingerprint one instruction at a
        // time from its parent's; the running fold must equal the
        // fingerprint of the materialized program at every prefix.
        let (_, prog) = fig11_program();
        assert_eq!(DistProgram::default().fingerprint(), FNV_OFFSET);
        let mut h = FNV_OFFSET;
        for (i, instr) in prog.instrs.iter().enumerate() {
            h = instr.mix_fingerprint(h);
            let prefix = DistProgram { instrs: prog.instrs[..=i].to_vec(), estimated_time: 0.0 };
            assert_eq!(h, prefix.fingerprint(), "prefix of {} instrs", i + 1);
        }
        assert_eq!(h, prog.fingerprint());
    }

    #[test]
    fn chains_share_prefixes() {
        // Siblings in the search tree extend their shared parent's
        // fingerprint: each must equal its own program's fingerprint, and
        // different last instructions must still hash apart.
        let (_, prog) = fig11_program();
        let base = prog.instrs[0].mix_fingerprint(FNV_OFFSET);
        let a = prog.instrs[1].mix_fingerprint(base);
        let b = prog.instrs[2].mix_fingerprint(base);
        assert_ne!(a, b);
        let with_tail = |tail: &DistInstr| DistProgram {
            instrs: vec![prog.instrs[0].clone(), tail.clone()],
            estimated_time: 0.0,
        };
        assert_eq!(a, with_tail(&prog.instrs[1]).fingerprint());
        assert_eq!(b, with_tail(&prog.instrs[2]).fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_order_and_content() {
        let (_, prog) = fig11_program();
        let mut reversed = prog.clone();
        reversed.instrs.reverse();
        assert_ne!(prog.fingerprint(), reversed.fingerprint());
        let mut truncated = prog.clone();
        truncated.instrs.pop();
        assert_ne!(prog.fingerprint(), truncated.fingerprint());
        assert_eq!(prog.fingerprint(), prog.clone().fingerprint());
    }

    #[test]
    fn listing_mentions_shard_instructions() {
        let (graph, prog) = fig11_program();
        let listing = prog.listing(&graph);
        assert!(listing.contains("placeholder-shard(0)"));
        assert!(listing.contains("parameter()"));
        assert!(listing.contains("all-gather(0)"));
    }
}
