//! Background theory construction (paper Sec. 4.2).
//!
//! The theory `T` is a set of Hoare triples `{pre} instr {post}` obtained by
//! matching per-op placement rules against the single-device graph, plus the
//! collective triples of Fig. 9 and the grouped-Broadcast rule of Sec. 4.4.
//!
//! Two of the paper's search-time optimizations (Sec. 4.5) are realized at
//! theory-construction time:
//!
//! * **Fusion of empty-precondition triples**: leaf instructions
//!   (`Placeholder-Shard`, `Parameter-Shard`, ...) never exist standalone;
//!   they are inlined into each consuming compute triple, so they always
//!   appear directly before their first consumer.
//! * **Single communication per tensor**: leaves get no communication
//!   triples at all (they can be materialized in any placement directly),
//!   and each comm triple carries its reference node so the search can
//!   enforce the at-most-once rule via `Communicated` markers.

use hap_graph::{Graph, NodeId, Placement, Role};

use crate::instr::{CollectiveInstr, DistInstr};
use crate::property::{for_each_bit, has_bit, Prop};

/// A Hoare triple of the background theory.
#[derive(Clone, Debug)]
pub struct Triple {
    /// Properties required before the instructions can run.
    pub pre: Vec<Prop>,
    /// Instructions appended when the triple fires (leaf materializations
    /// fused in front of their consumer).
    pub instrs: Vec<DistInstr>,
    /// Properties established afterwards.
    pub post: Vec<Prop>,
    /// `Some(e)` when this triple communicates reference tensor `e`
    /// (enforces the at-most-one-communication rule).
    pub comm_node: Option<NodeId>,
    /// The graph node this triple primarily produces (the compute output,
    /// or the communicated tensor).
    pub output: NodeId,
}

/// One triple compiled against its theory's bit numbering (see [`Theory`]).
#[derive(Clone, Copy)]
pub(crate) struct TripleBits<'a> {
    /// Bits of `pre`, in `pre` order (ascending).
    pub(crate) pre: &'a [u32],
    /// Bits of `post`, in `post` order.
    pub(crate) post: &'a [u32],
    /// Per instruction: the property bit a `Leaf` materializes (unused for
    /// the other instructions).
    pub(crate) leaf: &'a [u32],
    /// The communicated-marker bit of `comm_node`.
    pub(crate) comm: Option<u32>,
}

/// Where one triple's bits sit in [`Theory`]'s flat bit storage: `pre`
/// from `pre`, `post` from `post`, one `leaf` entry per instruction from
/// `leaf` up to `end`.
#[derive(Clone, Copy, Debug)]
struct BitSpan {
    pre: u32,
    post: u32,
    leaf: u32,
    end: u32,
    /// The communicated-marker bit, or [`NO_BIT`].
    comm: u32,
}

/// A [`BitSpan`] or leaf entry with no bit.
const NO_BIT: u32 = u32::MAX;

/// Lists keyed by property bit, stored back to back: list `b` is
/// `items[starts[b]..starts[b + 1]]`.
#[derive(Debug)]
struct BitIndex<T> {
    starts: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy + Default> BitIndex<T> {
    /// Builds the index of `pairs` (`(bit, item)`, bits below `bits`);
    /// each list keeps the order of `pairs`.
    fn build(bits: usize, pairs: &[(u32, T)]) -> Self {
        let mut starts = vec![0u32; bits + 1];
        for &(b, _) in pairs {
            starts[b as usize + 1] += 1;
        }
        for b in 0..bits {
            starts[b + 1] += starts[b];
        }
        let mut next = starts.clone();
        let mut items = vec![T::default(); pairs.len()];
        for &(b, item) in pairs {
            let at = &mut next[b as usize];
            items[*at as usize] = item;
            *at += 1;
        }
        BitIndex { starts, items }
    }

    /// The list of `bit`; empty for bits past the index.
    fn get(&self, bit: u32) -> &[T] {
        match (self.starts.get(bit as usize), self.starts.get(bit as usize + 1)) {
            (Some(&lo), Some(&hi)) => &self.items[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

/// The background theory for one graph.
///
/// Besides the triples, the theory carries the search's compiled view of
/// them. Every property that appears in some triple gets a bit, in sorted
/// order, so each node's properties are one contiguous bit range; every node
/// a collective can communicate gets a communicated-marker bit after those.
/// A search state's property set is then a fixed-width bitset of
/// [`Theory::set_words`] words. The triples are indexed by the bit of their
/// first (sorted) precondition, so a state's candidate triples are those
/// lists for its set bits plus the triples with an empty precondition. The
/// compiled view is built with the triples: `triples` must not be modified
/// afterwards.
#[derive(Debug)]
pub struct Theory {
    /// All triples.
    pub triples: Vec<Triple>,
    /// Consumers of each node.
    pub consumers: Vec<Vec<NodeId>>,
    /// Required-output nodes (loss + updated parameters).
    pub required: Vec<NodeId>,
    /// Live nodes: those from which a required output is reachable. Dead
    /// nodes (e.g. input gradients nothing consumes) are excluded from the
    /// admissible remaining-work bound and never count as search progress.
    pub live: Vec<bool>,
    /// Bit -> property, sorted.
    props: Vec<Prop>,
    /// Per node, the bit range `[lo, hi)` of its properties.
    node_bits: Vec<(u32, u32)>,
    /// Words per property-set bitset.
    words: usize,
    /// Every triple's compiled bits, back to back.
    bit_ids: Vec<u32>,
    /// Per triple, where its bits sit in `bit_ids`.
    spans: Vec<BitSpan>,
    /// Triple indices by the bit of their first precondition property.
    by_first_pre: BitIndex<u32>,
    /// Indices of the triples with an empty precondition.
    no_pre: Vec<u32>,
    /// Index: property bit -> compute-triple indices with it in `pre`.
    pre_index: BitIndex<usize>,
    /// Per node: producing it lowers the remaining-work bound (a live
    /// compute node).
    pub(crate) counts_flops: Vec<bool>,
    /// Per node: a required output.
    pub(crate) is_required: Vec<bool>,
}

// The wave-parallel search borrows the theory immutably from every worker
// thread; this guard fails to compile if interior mutability (Rc, RefCell,
// Cell, ...) ever sneaks into it.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Theory>()
};

/// Options controlling which optional rules enter the theory (used by the
/// Fig. 15 ablation).
#[derive(Clone, Copy, Debug)]
pub struct TheoryOptions {
    /// Include the grouped-Broadcast implementation of All-Gather.
    pub grouped_broadcast: bool,
    /// Include fully-replicated compute rules for gradient nodes (the rules
    /// that enable sufficient factor broadcasting, Sec. 2.5.2/4.4).
    pub sfb: bool,
}

impl Default for TheoryOptions {
    fn default() -> Self {
        TheoryOptions { grouped_broadcast: true, sfb: true }
    }
}

impl Theory {
    /// Builds the background theory for `graph` with default options.
    pub fn build(graph: &Graph) -> Self {
        Theory::build_with(graph, TheoryOptions::default())
    }

    /// Builds the background theory with explicit options.
    pub fn build_with(graph: &Graph, opts: TheoryOptions) -> Self {
        let mut triples = Vec::new();
        let consumers = graph.consumers();

        // Demanded placements per tensor: the placements that appear for it
        // in some consumer rule's precondition. Because each reference
        // tensor may be communicated at most once (Sec. 4.5, optimization
        // 2), a collective's output placement must directly satisfy a
        // consumer rule — so communication triples targeting undemanded
        // placements can be dropped without losing any complete program.
        let mut demanded: Vec<Vec<Placement>> = vec![Vec::new(); graph.len()];
        for node in graph.nodes() {
            if node.op.is_leaf() {
                continue;
            }
            for rule in graph.placement_rules(node.id) {
                for (&input, &placement) in node.inputs.iter().zip(rule.inputs.iter()) {
                    if !demanded[input].contains(&placement) {
                        demanded[input].push(placement);
                    }
                }
            }
        }

        for node in graph.nodes() {
            if node.op.is_leaf() {
                continue;
            }
            // Compute triples, one per applicable rule, with leaf inputs fused.
            'rules: for rule in graph.placement_rules(node.id) {
                if !opts.sfb
                    && node.role == Role::Grad
                    && rule.inputs.iter().all(|p| p.is_replicated())
                    && rule.output.is_replicated()
                    && node.inputs.iter().any(|&i| !graph.node(i).op.is_leaf())
                {
                    continue;
                }
                let mut pre: Vec<Prop> = Vec::new();
                let mut post: Vec<Prop> = Vec::new();
                let mut instrs: Vec<DistInstr> = Vec::new();
                for (&input, &placement) in node.inputs.iter().zip(rule.inputs.iter()) {
                    if graph.node(input).op.is_leaf() {
                        match placement {
                            Placement::PartialSum => continue 'rules, // unsatisfiable
                            p => {
                                let instr = DistInstr::Leaf { node: input, placement: p };
                                if !instrs.contains(&instr) {
                                    instrs.push(instr);
                                }
                                post.push((input, p));
                            }
                        }
                    } else {
                        pre.push((input, placement));
                    }
                }
                pre.sort_unstable();
                pre.dedup();
                post.push((node.id, rule.output));
                post.sort_unstable();
                post.dedup();
                instrs.push(DistInstr::Compute { node: node.id, rule: rule.clone() });
                triples.push(Triple { pre, instrs, post, comm_node: None, output: node.id });
            }

            // Communication triples (never for leaves: optimization 2),
            // restricted to placements some consumer actually demands.
            let dims = node.shape.dims();
            let shardable: Vec<usize> = (0..dims.len()).filter(|&d| dims[d] >= 2).collect();
            let want = &demanded[node.id];
            let wants = |p: Placement| want.contains(&p);
            let mut comm = |kind: CollectiveInstr| {
                let pre = vec![(node.id, kind.input_placement())];
                let post = vec![(node.id, kind.output_placement())];
                triples.push(Triple {
                    pre,
                    instrs: vec![DistInstr::Collective { node: node.id, kind }],
                    post,
                    comm_node: Some(node.id),
                    output: node.id,
                });
            };
            if wants(Placement::Replicated) {
                comm(CollectiveInstr::AllReduce);
            }
            for &d in &shardable {
                if wants(Placement::Shard(d)) {
                    comm(CollectiveInstr::ReduceScatter { dim: d });
                    for &d2 in &shardable {
                        if d2 != d {
                            comm(CollectiveInstr::AllToAll { from: d2, to: d });
                        }
                    }
                }
                if wants(Placement::Replicated) {
                    comm(CollectiveInstr::AllGather { dim: d, grouped: false });
                    if opts.grouped_broadcast {
                        comm(CollectiveInstr::AllGather { dim: d, grouped: true });
                    }
                }
            }
        }

        let required = graph.required_outputs();
        let mut live = vec![false; graph.len()];
        for &r in &required {
            live[r] = true;
        }
        for id in (0..graph.len()).rev() {
            if live[id] {
                for &input in &graph.node(id).inputs {
                    live[input] = true;
                }
            }
        }

        // The bit numbering: sorted properties, node by node, then
        // communicated markers.
        let mut placements: Vec<Vec<Placement>> = vec![Vec::new(); graph.len()];
        for &(n, p) in triples.iter().flat_map(|t| t.pre.iter().chain(&t.post)) {
            if !placements[n].contains(&p) {
                placements[n].push(p);
            }
        }
        let mut props: Vec<Prop> = Vec::new();
        let mut node_bits: Vec<(u32, u32)> = Vec::with_capacity(graph.len());
        for (n, node_placements) in placements.iter_mut().enumerate() {
            node_placements.sort_unstable();
            let lo = props.len() as u32;
            props.extend(node_placements.iter().map(|&p| (n, p)));
            node_bits.push((lo, props.len() as u32));
        }
        let bit_of =
            |p: &Prop| prop_bit(&props, &node_bits, p).expect("every triple property is numbered");
        let mut comm_bit: Vec<Option<u32>> = vec![None; graph.len()];
        let mut next_bit = props.len() as u32;
        for t in &triples {
            if let Some(e) = t.comm_node {
                comm_bit[e].get_or_insert_with(|| {
                    next_bit += 1;
                    next_bit - 1
                });
            }
        }
        let words = (next_bit as usize).div_ceil(64).max(1);

        let mut bit_ids: Vec<u32> = Vec::new();
        let mut first_pre: Vec<(u32, u32)> = Vec::new();
        let mut no_pre = Vec::new();
        let mut consumed: Vec<(u32, usize)> = Vec::new();
        let spans: Vec<BitSpan> = triples
            .iter()
            .enumerate()
            .map(|(i, t)| {
                // Applying a triple marks the nodes of its collectives as
                // communicated; the theory only emits collectives in
                // communication triples, of their own `comm_node`.
                debug_assert!(t.instrs.iter().all(|instr| match instr {
                    DistInstr::Collective { node, .. } => t.comm_node == Some(*node),
                    _ => true,
                }));
                // A successor records its skipped leaves as a `u32` mask.
                assert!(t.instrs.len() <= 32, "a triple fuses at most 32 instructions");
                let pre = bit_ids.len() as u32;
                bit_ids.extend(t.pre.iter().map(&bit_of));
                let post = bit_ids.len() as u32;
                bit_ids.extend(t.post.iter().map(&bit_of));
                let leaf = bit_ids.len() as u32;
                bit_ids.extend(t.instrs.iter().map(|instr| match instr {
                    DistInstr::Leaf { node, placement } => bit_of(&(*node, *placement)),
                    _ => NO_BIT,
                }));
                let pre_bits = &bit_ids[pre as usize..post as usize];
                match pre_bits.first() {
                    Some(&first) => first_pre.push((first, i as u32)),
                    None => no_pre.push(i as u32),
                }
                if t.comm_node.is_none() {
                    consumed.extend(pre_bits.iter().map(|&b| (b, i)));
                }
                BitSpan {
                    pre,
                    post,
                    leaf,
                    end: bit_ids.len() as u32,
                    comm: t.comm_node.and_then(|e| comm_bit[e]).unwrap_or(NO_BIT),
                }
            })
            .collect();
        let by_first_pre = BitIndex::build(props.len(), &first_pre);
        let pre_index = BitIndex::build(props.len(), &consumed);

        let counts_flops = graph.nodes().iter().map(|n| !n.op.is_leaf() && live[n.id]).collect();
        let mut is_required = vec![false; graph.len()];
        for &r in &required {
            is_required[r] = true;
        }

        Theory {
            triples,
            consumers,
            required,
            live,
            props,
            node_bits,
            words,
            bit_ids,
            spans,
            by_first_pre,
            no_pre,
            pre_index,
            counts_flops,
            is_required,
        }
    }

    /// Compute triples that need property `p` in their precondition.
    pub fn consumers_of_prop(&self, p: &Prop) -> &[usize] {
        prop_bit(&self.props, &self.node_bits, p).map_or(&[], |b| self.pre_index_of(b))
    }

    /// Compute triples with property bit `bit` in their precondition.
    pub(crate) fn pre_index_of(&self, bit: u32) -> &[usize] {
        self.pre_index.get(bit)
    }

    /// Triple `t`'s compiled bits.
    #[inline]
    pub(crate) fn bits(&self, t: u32) -> TripleBits<'_> {
        let span = self.spans[t as usize];
        let ids = |lo: u32, hi: u32| &self.bit_ids[lo as usize..hi as usize];
        TripleBits {
            pre: ids(span.pre, span.post),
            post: ids(span.post, span.leaf),
            leaf: ids(span.leaf, span.end),
            comm: (span.comm != NO_BIT).then_some(span.comm),
        }
    }

    /// Words per property-set bitset.
    pub(crate) fn set_words(&self) -> usize {
        self.words
    }

    /// True if any property of `node` is in `set` (the node is produced).
    #[inline]
    pub(crate) fn has_node(&self, set: &[u64], node: NodeId) -> bool {
        let (lo, hi) = self.node_bits[node];
        (lo..hi).any(|b| has_bit(set, b))
    }

    /// The triples that can apply to `set`, in theory order, into `out`: a
    /// triple applies only if its precondition holds, so only triples with
    /// an empty precondition or whose first precondition bit is set qualify.
    pub(crate) fn candidates(&self, set: &[u64], out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(&self.no_pre);
        for_each_bit(set, |b| out.extend_from_slice(self.by_first_pre.get(b)));
        out.sort_unstable();
    }

    /// Number of triples (reported by the Fig. 19 overhead experiment).
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True when the theory is empty.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }
}

/// The bit of property `p` in the numbering `props` (sorted, with each
/// node's properties at `node_bits[node]`), if numbered.
fn prop_bit(props: &[Prop], node_bits: &[(u32, u32)], p: &Prop) -> Option<u32> {
    let &(lo, hi) = node_bits.get(p.0)?;
    let at = props[lo as usize..hi as usize].binary_search(p).ok()?;
    Some(lo + at as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_graph::GraphBuilder;

    fn fig11_graph() -> Graph {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("e1", vec![8, 4]);
        let w = g.parameter("e2", vec![4, 2]);
        let y = g.matmul(x, w);
        let _l = g.sum_all(y);
        g.build_forward()
    }

    #[test]
    fn leaf_instructions_are_fused() {
        let t = Theory::build(&fig11_graph());
        // No triple should have an empty instruction list, and matmul triples
        // must carry their leaf materializations inline.
        let matmul_triples: Vec<&Triple> = t
            .triples
            .iter()
            .filter(|tr| tr.instrs.iter().any(|i| matches!(i, DistInstr::Compute { node: 2, .. })))
            .collect();
        assert!(!matmul_triples.is_empty());
        for tr in &matmul_triples {
            assert!(tr.pre.is_empty(), "both inputs are leaves; pre must be empty");
            assert!(tr.instrs.len() >= 2, "leaf instrs must be fused in");
        }
    }

    #[test]
    fn no_communication_triples_for_leaves() {
        let t = Theory::build(&fig11_graph());
        for tr in &t.triples {
            if let Some(e) = tr.comm_node {
                assert!(e >= 2, "leaves must not be communicated, got node {e}");
            }
        }
    }

    #[test]
    fn grouped_broadcast_toggle() {
        let g = fig11_graph();
        let with = Theory::build_with(&g, TheoryOptions::default());
        let without = Theory::build_with(&g, TheoryOptions { grouped_broadcast: false, sfb: true });
        let count = |t: &Theory| {
            t.triples
                .iter()
                .filter(|tr| {
                    tr.instrs.iter().any(|i| {
                        matches!(
                            i,
                            DistInstr::Collective {
                                kind: CollectiveInstr::AllGather { grouped: true, .. },
                                ..
                            }
                        )
                    })
                })
                .count()
        };
        assert!(count(&with) > 0);
        assert_eq!(count(&without), 0);
    }

    #[test]
    fn undemanded_tensors_get_no_communication_triples() {
        // The loss has no consumers, so no placement of it is demanded and
        // no communication triple is generated (with at most one collective
        // per tensor, a collective no consumer rule can use is dead code).
        let g = fig11_graph();
        let t = Theory::build(&g);
        let loss = g.loss().unwrap();
        let loss_comms: Vec<&Triple> =
            t.triples.iter().filter(|tr| tr.comm_node == Some(loss)).collect();
        assert!(loss_comms.is_empty());
        // The matmul output feeds `sum`, which demands every placement that
        // its rules mention, so it does get communication triples.
        let y_comms = t.triples.iter().filter(|tr| tr.comm_node == Some(2)).count();
        assert!(y_comms > 0);
    }

    #[test]
    fn required_outputs_cover_loss_and_updates() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", vec![8, 4]);
        let w = g.parameter("w", vec![4, 2]);
        let y = g.matmul(x, w);
        let l = g.sum_all(y);
        let graph = g.build_training(l).unwrap();
        let t = Theory::build(&graph);
        assert_eq!(t.required.len(), 2); // loss + update_w
    }

    #[test]
    fn pre_index_finds_consumers() {
        let g = fig11_graph();
        let t = Theory::build(&g);
        // The matmul output (node 2) sharded on dim 0 is consumed by sum.
        let hits = t.consumers_of_prop(&(2, Placement::Shard(0)));
        assert!(!hits.is_empty());
        for &i in hits {
            assert_eq!(t.triples[i].output, 3);
        }
    }
}
