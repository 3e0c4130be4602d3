//! Wave-parallel A\*-based distributed program search (paper Sec. 4.3,
//! Fig. 10).
//!
//! States are canonical property sets; the score of a partial program is
//! `cost + ecost`, where `cost` is the time of all closed stages plus the
//! running stage's per-device computation, and `ecost` is the admissible
//! remaining-work bound assuming infinite bandwidth and perfect balance.
//! Dominance pruning keeps, per property set, only the cheapest program
//! (Fig. 10 lines 9–14): a `Vec` of best costs indexed by the set's interned
//! id.
//!
//! # Parallel waves, deterministic results
//!
//! The search proceeds in *waves*: each wave pops the best [`WAVE_WIDTH`]
//! states from the frontier, expands them across the search's crew of
//! [`mini_rayon::Workers`], then merges the candidate successors
//! **sequentially in a stable order** — sorted by `(score, cost, program
//! fingerprint)` — before committing any of them to the set arena, the
//! dominance table, the incumbent, or the frontier. During a wave all of
//! those are frozen, so workers only perform deterministic reads; every
//! write happens in the deterministic merge. Set ids are therefore dense and
//! deterministic too. The result is bit-for-bit identical for every
//! `threads` value whenever the search terminates structurally (optimality
//! bound, expansion budget, or stall cutoff). Only the wall-clock budget
//! ([`SynthConfig::time_budget_secs`]) is inherently timing-dependent: when
//! it fires, the incumbent of the last completed wave — itself a
//! deterministic function of the wave count — is returned.
//!
//! Waves start no threads and, once their buffers have grown, allocate
//! nothing; only the search's own state (committed states, interned sets,
//! the frontier) keeps growing. The crew's helper threads start on the
//! search's first wave with more than one state, park between waves, and
//! are joined when the search returns (a search that expands no wave, such
//! as every zero-budget call, starts none). Each wave position owns a
//! [`Slot`] of expansion buffers for the whole search, which `expand`
//! clears and refills, and the merge sorts compact keys in one reused
//! buffer and reads the candidates from the slots.
//!
//! # Flat search states
//!
//! A state's property set is a fixed-width bitset over the theory's
//! numbering of its properties (see [`Theory`]), interned in one arena the
//! search owns; committed states are plain records in a `Vec`, their
//! running stages live in one flat `Vec<f64>`, and a state's program is the
//! chain of `(triple, skipped leaves)` steps through its ancestors'
//! records, materialized only for an incumbent. Expanding a state
//! enumerates its candidate triples from the theory's first-precondition
//! index (in theory order), costs each from dense precomputed
//! [`CostTables`], previews with its slot's scratch row, and builds
//! survivors into its slot's buffers, so dropping the search frees a
//! handful of vectors. [`HotPathBench`] replays this loop on a slot as a
//! micro-benchmarkable workload (`synthesis/expand_hot_path`), with a
//! `Direct` cost oracle preserving the pre-table behavior for comparison.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::time::{Duration, Instant};

use hap_cluster::VirtualDevice;
use hap_collectives::CommProfile;
use hap_graph::{Graph, NodeId, Rule};
use mini_rayon::ThreadPool;

use crate::cost::{CostModel, CostTables, ShardingRatios};
use crate::instr::{CollectiveInstr, DistInstr, DistProgram, FNV_OFFSET};
use crate::property::{has_bit, set_bit, SetArena};
use crate::theory::{Theory, TheoryOptions, Triple, TripleBits};

/// Synthesis options.
#[derive(Clone, Copy, Debug)]
pub struct SynthConfig {
    /// Maximum number of A\* expansions before giving up.
    pub max_expansions: usize,
    /// Optional beam width: when set, the open list is pruned to the best
    /// `N` states whenever it doubles past `N` (trades optimality for time).
    pub beam_width: Option<usize>,
    /// Wall-clock budget in seconds for the A\* refinement; when it runs
    /// out the best complete program found so far (at least the greedy
    /// incumbent) is returned. Workers observe the deadline cooperatively
    /// through a shared atomic flag, so a `0.0` budget returns the greedy
    /// incumbent without expanding a single state.
    pub time_budget_secs: f64,
    /// Stop refining after this many expansions without improving the
    /// incumbent (diminishing-returns cutoff).
    pub stall_expansions: usize,
    /// Include grouped-Broadcast rules (ablation toggle "C", Fig. 15).
    pub grouped_broadcast: bool,
    /// Include the SFB-enabling replicated gradient rules (Sec. 4.4).
    pub sfb: bool,
    /// Worker threads for the wave-parallel expansion, the calling thread
    /// included; `0` (the default) uses all available cores, `1` runs fully
    /// sequentially with no thread started. A search never runs more
    /// workers than `available_parallelism()`: the synthesized program is
    /// bit-for-bit identical for every value, so workers beyond the cores
    /// would only take turns on them.
    pub threads: usize,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            max_expansions: 2_000_000,
            beam_width: Some(20_000),
            time_budget_secs: 5.0,
            stall_expansions: 5_000,
            grouped_broadcast: true,
            sfb: true,
            threads: 0,
        }
    }
}

/// Synthesis failures.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthError {
    /// The search space was exhausted without a complete program.
    NoProgram,
    /// The expansion budget ran out before completion.
    ExpansionLimit(usize),
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::NoProgram => write!(f, "no semantically equivalent program exists"),
            SynthError::ExpansionLimit(n) => {
                write!(f, "expansion limit of {n} reached without a complete program")
            }
        }
    }
}

impl std::error::Error for SynthError {}

/// States expanded per wave. Fixed — never derived from the thread count —
/// so the pop order, and with it every downstream decision, is identical
/// whether the wave is expanded by 1 worker or 64.
const WAVE_WIDTH: usize = 64;

/// Workers re-check the shared deadline flag every this many candidate
/// triples.
const DEADLINE_STRIDE: usize = 256;

const EPS: f64 = 1e-12;

/// The parent of the root state.
const ROOT: u32 = u32::MAX;

/// [`Cand::set`] of a candidate whose property set was not interned when
/// its wave began (its words are in [`Expansion::new_sets`]).
const NEW_SET: u32 = u32::MAX;

/// A committed search state. Its running stage is `m` entries of
/// [`Arena::stages`] at the state's index.
#[derive(Clone, Copy, Debug)]
struct Node {
    /// Interned property-set id.
    set: u32,
    /// The state this one was expanded from ([`ROOT`] for the root).
    parent: u32,
    /// The triple applied to `parent`.
    triple: u32,
    /// Leaf instructions of `triple` not emitted because the leaf was
    /// already materialized (bit `i` for instruction `i`).
    skipped: u32,
    /// Stable fingerprint of the program so far.
    fingerprint: u64,
    /// Time of closed stages.
    closed: f64,
    /// Single-device flops of not-yet-produced compute nodes.
    remaining_flops: f64,
    /// Required outputs not yet produced.
    remaining_required: u32,
}

/// A state to expand or apply a triple to, borrowed from wherever it lives.
#[derive(Clone, Copy)]
struct StateRef<'a> {
    set: &'a [u64],
    /// Per-device computation accumulated in the running stage.
    stage: &'a [f64],
    closed: f64,
    remaining_flops: f64,
    remaining_required: u32,
}

impl StateRef<'_> {
    fn stage_max(&self) -> f64 {
        self.stage.iter().cloned().fold(0.0, f64::max)
    }
}

/// A successor under construction: [`apply`] overwrites every field, so
/// one buffer serves a whole expansion.
struct Succ {
    set: Vec<u64>,
    stage: Vec<f64>,
    closed: f64,
    remaining_flops: f64,
    remaining_required: u32,
    skipped: u32,
}

impl Succ {
    fn new(words: usize, m: usize) -> Self {
        Succ {
            set: vec![0; words],
            stage: vec![0.0; m],
            closed: 0.0,
            remaining_flops: 0.0,
            remaining_required: 0,
            skipped: 0,
        }
    }

    /// Overwrites this buffer with a copy of `state`.
    fn load(&mut self, state: &StateRef) {
        self.set.copy_from_slice(state.set);
        self.stage.copy_from_slice(state.stage);
        self.closed = state.closed;
        self.remaining_flops = state.remaining_flops;
        self.remaining_required = state.remaining_required;
    }

    fn view(&self) -> StateRef<'_> {
        StateRef {
            set: &self.set,
            stage: &self.stage,
            closed: self.closed,
            remaining_flops: self.remaining_flops,
            remaining_required: self.remaining_required,
        }
    }

    fn cost(&self) -> f64 {
        self.closed + self.view().stage_max()
    }
}

/// Everything a search commits, in flat vectors indexed by dense ids: the
/// interned property sets, the best committed cost per set (the dominance
/// table), and the committed states with their running stages. Written
/// only by the sequential merge; read by the wave's workers.
struct Arena {
    m: usize,
    sets: SetArena,
    /// Best committed cost per set id (Fig. 10 lines 9–14).
    dominance: Vec<f64>,
    nodes: Vec<Node>,
    /// `m` running-stage seconds per node.
    stages: Vec<f64>,
}

impl Arena {
    /// An arena holding the root state — no properties, nothing computed —
    /// committed at cost 0.
    fn new(theory: &Theory, graph: &Graph, m: usize) -> Self {
        let remaining_flops: f64 = graph
            .nodes()
            .iter()
            .filter(|n| !n.op.is_leaf() && theory.live[n.id])
            .map(|n| graph.node_flops(n.id))
            .sum();
        let root = Node {
            set: 0,
            parent: ROOT,
            triple: ROOT,
            skipped: 0,
            fingerprint: FNV_OFFSET,
            closed: 0.0,
            remaining_flops,
            remaining_required: theory.required.len() as u32,
        };
        let mut arena = Arena {
            m,
            sets: SetArena::new(theory.set_words()),
            dominance: Vec::new(),
            nodes: vec![root],
            stages: vec![0.0; m],
        };
        // The root's set: empty, interned first (id 0), committed at cost 0.
        arena.intern(&vec![0; theory.set_words()]);
        arena.dominance[0] = 0.0;
        arena
    }

    fn state(&self, id: u32) -> StateRef<'_> {
        let node = &self.nodes[id as usize];
        StateRef {
            set: self.sets.get(node.set),
            stage: &self.stages[id as usize * self.m..][..self.m],
            closed: node.closed,
            remaining_flops: node.remaining_flops,
            remaining_required: node.remaining_required,
        }
    }

    fn cost(&self, id: u32) -> f64 {
        let state = self.state(id);
        state.closed + state.stage_max()
    }

    /// Interns `set`, returning its id and whether it was new (a new set
    /// has no dominance entry yet: its best cost is infinite).
    fn intern(&mut self, set: &[u64]) -> (u32, bool) {
        let (id, fresh) = self.sets.insert(set, SetArena::hash(set));
        if fresh {
            self.dominance.push(f64::INFINITY);
        }
        (id, fresh)
    }

    /// Commits a state; returns its id.
    fn push(&mut self, node: Node, stage: &[f64]) -> u32 {
        let id = u32::try_from(self.nodes.len()).expect("search state ids exhausted");
        self.nodes.push(node);
        self.stages.extend_from_slice(stage);
        id
    }

    /// The program of state `id` followed by `(triple, skipped)`.
    fn program(&self, theory: &Theory, mut id: u32, last: (u32, u32)) -> Vec<DistInstr> {
        let mut steps = vec![last];
        while self.nodes[id as usize].parent != ROOT {
            let node = &self.nodes[id as usize];
            steps.push((node.triple, node.skipped));
            id = node.parent;
        }
        steps
            .iter()
            .rev()
            .flat_map(|&(t, skipped)| emitted(&theory.triples[t as usize], skipped).cloned())
            .collect()
    }
}

/// The instructions a triple emits when applied with the leaves in
/// `skipped` already materialized.
fn emitted(triple: &Triple, skipped: u32) -> impl Iterator<Item = &DistInstr> {
    triple.instrs.iter().enumerate().filter(move |(i, _)| (skipped >> i) & 1 == 0).map(|(_, i)| i)
}

/// The fingerprint of a program with fingerprint `h` once `triple` is
/// applied with the leaves in `skipped` already materialized.
fn extend_fingerprint(h: u64, triple: &Triple, skipped: u32) -> u64 {
    emitted(triple, skipped).fold(h, |h, instr| instr.mix_fingerprint(h))
}

/// A frontier entry: a committed state plus its cached admissible score.
struct Entry {
    score: f64,
    /// Commit sequence number: unique, assigned in deterministic merge
    /// order, and used as the heap tie-break (newer first — the depth-first
    /// bias that reaches complete programs quickly).
    seq: u64,
    node: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap pops the maximum, so "greater" must mean "expand
        // first": smaller score wins, ties go to the newer state.
        other.score.total_cmp(&self.score).then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Keeps only the best `beam` entries of the frontier. `(score, seq)` is a
/// total order, so the kept set — and with it the pop order — is the same
/// as a full sort would keep; selecting it is linear.
fn prune_to(frontier: &mut BinaryHeap<Entry>, beam: usize) {
    let mut entries = std::mem::take(frontier).into_vec();
    if beam == 0 {
        entries.clear();
    } else if entries.len() > beam {
        entries.select_nth_unstable_by(beam - 1, |a, b| b.cmp(a)); // best first
        entries.truncate(beam);
    }
    *frontier = BinaryHeap::from(entries);
}

/// The search's cost oracle.
///
/// Production synthesis always runs on [`CostTables`] — O(1) slice reads,
/// no allocation, no division. The `Direct` variant routes the identical
/// control flow through the original allocating [`CostModel`] calls; it
/// exists for the `synthesis/expand_hot_path` micro-bench and the
/// equivalence tests, which assert both variants produce bit-identical
/// costs on the same workload.
pub(crate) enum CostSource<'a> {
    /// Precomputed dense tables (the production hot path).
    Tables(&'a CostTables),
    /// Direct per-call evaluation (the pre-table baseline).
    Direct(&'a CostModel<'a>),
}

impl CostSource<'_> {
    /// Adds the per-device seconds of computing `node` under `rule` to
    /// `stage`.
    #[inline]
    fn add_compute(&self, stage: &mut [f64], node: NodeId, rule: &Rule) {
        match self {
            CostSource::Tables(t) => {
                for (s, d) in stage.iter_mut().zip(t.compute_row_for(node, rule)) {
                    *s += d;
                }
            }
            CostSource::Direct(cm) => {
                // The pre-table behavior: a fresh Vec per evaluation.
                let per_dev = cm.compute_seconds(node, rule);
                for (s, d) in stage.iter_mut().zip(per_dev.iter()) {
                    *s += d;
                }
            }
        }
    }

    /// Fused `stage += compute; max(stage)` in one pass (the preview inner
    /// loop). The running maximum folds in element order from `0.0`,
    /// exactly like a separate `fold(0.0, f64::max)` pass would.
    #[inline]
    fn add_compute_max(&self, stage: &mut [f64], node: NodeId, rule: &Rule) -> f64 {
        let mut max = 0.0f64;
        match self {
            CostSource::Tables(t) => {
                for (s, d) in stage.iter_mut().zip(t.compute_row_for(node, rule)) {
                    *s += d;
                    max = max.max(*s);
                }
            }
            CostSource::Direct(cm) => {
                let per_dev = cm.compute_seconds(node, rule);
                for (s, d) in stage.iter_mut().zip(per_dev.iter()) {
                    *s += d;
                    max = max.max(*s);
                }
            }
        }
        max
    }

    /// Fused `stage = base + compute; max(stage)` in one pass (the first
    /// compute of a preview, replacing a copy + add + fold triple pass).
    #[inline]
    fn set_compute_max(&self, stage: &mut [f64], base: &[f64], node: NodeId, rule: &Rule) -> f64 {
        let mut max = 0.0f64;
        match self {
            CostSource::Tables(t) => {
                let row = t.compute_row_for(node, rule);
                for ((s, &b), d) in stage.iter_mut().zip(base.iter()).zip(row) {
                    *s = b + d;
                    max = max.max(*s);
                }
            }
            CostSource::Direct(cm) => {
                let per_dev = cm.compute_seconds(node, rule);
                for ((s, &b), d) in stage.iter_mut().zip(base.iter()).zip(per_dev.iter()) {
                    *s = b + d;
                    max = max.max(*s);
                }
            }
        }
        max
    }

    #[inline]
    fn collective_secs(&self, node: NodeId, kind: &CollectiveInstr) -> f64 {
        match self {
            CostSource::Tables(t) => t.collective_secs(node, kind),
            CostSource::Direct(cm) => cm.collective_seconds(node, kind),
        }
    }

    #[inline]
    fn best_case_seconds(&self, flops: f64) -> f64 {
        match self {
            CostSource::Tables(t) => t.best_case_seconds(flops),
            CostSource::Direct(cm) => cm.best_case_seconds(flops),
        }
    }

    #[inline]
    fn node_flops(&self, node: NodeId) -> f64 {
        match self {
            CostSource::Tables(t) => t.node_flops(node),
            CostSource::Direct(cm) => cm.node_flops(node),
        }
    }
}

/// Per-synthesis search counters, collected by the wave coordinator.
///
/// Every counter is maintained in the *sequential* phases of the search —
/// the wave pop loop and the commit loop — never inside the parallel
/// `expand` calls, so profiling adds no atomics to the scatter path and
/// the numbers are bit-identical across thread counts (wave composition
/// and merge order are already thread-count independent).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SynthProfile {
    /// Waves popped from the frontier.
    pub waves: u64,
    /// States expanded (the budget the search spends).
    pub expansions: u64,
    /// Successors produced by expansion, before commit filtering.
    pub candidates: u64,
    /// Candidates that survived every bound and entered the frontier.
    pub committed: u64,
    /// Times a complete program improved the incumbent.
    pub improvements: u64,
    /// Popped entries skipped because a cheaper path to the same property
    /// set had already been committed (lazy-deletion hits).
    pub dominance_stale: u64,
    /// Candidates rejected by the dominance map at commit time.
    pub dominance_pruned: u64,
    /// Candidates rejected because their score could not beat the
    /// incumbent (branch-and-bound prunes).
    pub incumbent_pruned: u64,
    /// Largest frontier observed at a wave boundary.
    pub frontier_peak: u64,
    /// Search states retired by the wave merge: the wave's expanded states
    /// plus the candidates it did not commit. A storage statistic, not a
    /// search decision.
    pub recycled: u64,
    /// 1 if a warm-start program was accepted as the initial incumbent
    /// (summed across rounds when profiles are merged).
    pub warm_seeded: u64,
}

impl SynthProfile {
    /// Folds another synthesis run (e.g. a later round of the alternating
    /// optimization) into this profile.
    pub fn merge(&mut self, other: &SynthProfile) {
        self.waves += other.waves;
        self.expansions += other.expansions;
        self.candidates += other.candidates;
        self.committed += other.committed;
        self.improvements += other.improvements;
        self.dominance_stale += other.dominance_stale;
        self.dominance_pruned += other.dominance_pruned;
        self.incumbent_pruned += other.incumbent_pruned;
        self.frontier_peak = self.frontier_peak.max(other.frontier_peak);
        self.recycled += other.recycled;
        self.warm_seeded += other.warm_seeded;
    }

    /// The counters as `(name, value)` pairs, in a stable order — the
    /// shape upper layers use for wire encoding and trace annotations.
    pub fn entries(&self) -> [(&'static str, u64); 11] {
        [
            ("waves", self.waves),
            ("expansions", self.expansions),
            ("candidates", self.candidates),
            ("committed", self.committed),
            ("improvements", self.improvements),
            ("dominance_stale", self.dominance_stale),
            ("dominance_pruned", self.dominance_pruned),
            ("incumbent_pruned", self.incumbent_pruned),
            ("frontier_peak", self.frontier_peak),
            ("recycled", self.recycled),
            ("warm_seeded", self.warm_seeded),
        ]
    }
}

/// The best complete program found so far.
struct Incumbent {
    cost: f64,
    program: Vec<DistInstr>,
}

/// A successor produced by a wave expansion, not yet committed.
#[derive(Clone, Copy)]
struct Cand {
    score: f64,
    cost: f64,
    /// Stable program fingerprint — the cross-thread-count tie-break.
    fingerprint: u64,
    triple: u32,
    skipped: u32,
    /// Interned set id, or [`NEW_SET`].
    set: u32,
    /// For a [`NEW_SET`] candidate, the index of its words in
    /// [`Expansion::new_sets`].
    new_set: u32,
    closed: f64,
    remaining_flops: f64,
    remaining_required: u32,
}

/// One wave state's surviving successors, in theory order, with their
/// running stages and not-yet-interned sets in flat buffers.
#[derive(Default)]
struct Expansion {
    cands: Vec<Cand>,
    /// `m` stage seconds per candidate.
    stages: Vec<f64>,
    /// The words of each [`NEW_SET`] candidate's set.
    new_sets: Vec<u64>,
}

impl Expansion {
    /// Empties the buffers, keeping their capacity.
    fn clear(&mut self) {
        self.cands.clear();
        self.stages.clear();
        self.new_sets.clear();
    }

    /// Records `succ` as a candidate; `set` is its interned id or
    /// [`NEW_SET`], in which case its words are copied.
    fn push(
        &mut self,
        succ: &Succ,
        score: f64,
        cost: f64,
        fingerprint: u64,
        triple: u32,
        set: u32,
    ) -> &Cand {
        let new_set = if set == NEW_SET {
            let index = self.new_sets.len() / succ.set.len();
            self.new_sets.extend_from_slice(&succ.set);
            index as u32
        } else {
            0
        };
        self.stages.extend_from_slice(&succ.stage);
        self.cands.push(Cand {
            score,
            cost,
            fingerprint,
            triple,
            skipped: succ.skipped,
            set,
            new_set,
            closed: succ.closed,
            remaining_flops: succ.remaining_flops,
            remaining_required: succ.remaining_required,
        });
        self.cands.last().expect("just pushed")
    }
}

/// One wave position's expansion buffers. A search owns one per position
/// for its whole run: [`expand`] clears the slot (keeping every buffer's
/// capacity) and refills it, and the merge reads the candidates from it.
/// The alignment keeps the buffer headers a worker writes off every other
/// slot's cache lines.
#[repr(align(128))]
struct Slot {
    /// The surviving successors.
    out: Expansion,
    /// The preview's running-stage row.
    scratch: Vec<f64>,
    /// The successor under construction.
    succ: Succ,
    /// The expanded state's candidate triples.
    triples: Vec<u32>,
}

impl Slot {
    fn new(words: usize, m: usize) -> Self {
        Slot {
            out: Expansion::default(),
            scratch: vec![0.0; m],
            succ: Succ::new(words, m),
            triples: Vec::new(),
        }
    }
}

/// A candidate's place in the wave merge: its sort key, then where it
/// lives. Completing the key with the position makes an unstable sort put
/// the candidates in the stable order of `(score, cost, fingerprint)` over
/// the wave's slots in order.
#[derive(Clone, Copy)]
struct MergeKey {
    score: f64,
    cost: f64,
    fingerprint: u64,
    /// Position of the parent in its wave (and of its [`Slot`]).
    src: u32,
    /// Position of the candidate in its slot.
    index: u32,
}

impl MergeKey {
    fn order(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| self.cost.total_cmp(&other.cost))
            .then_with(|| self.fingerprint.cmp(&other.fingerprint))
            .then_with(|| (self.src, self.index).cmp(&(other.src, other.index)))
    }
}

/// Synthesizes the optimal distributed program for `graph` under sharding
/// ratios `ratios` on the given devices.
pub fn synthesize(
    graph: &Graph,
    devices: &[VirtualDevice],
    profile: &CommProfile,
    ratios: &ShardingRatios,
    config: &SynthConfig,
) -> Result<DistProgram, SynthError> {
    let theory = Theory::build_with(
        graph,
        TheoryOptions { grouped_broadcast: config.grouped_broadcast, sfb: config.sfb },
    );
    synthesize_with_theory(graph, &theory, devices, profile, ratios, config)
}

/// Synthesizes against a pre-built theory (lets callers reuse the theory
/// across iterations of the alternating optimization).
pub fn synthesize_with_theory(
    graph: &Graph,
    theory: &Theory,
    devices: &[VirtualDevice],
    profile: &CommProfile,
    ratios: &ShardingRatios,
    config: &SynthConfig,
) -> Result<DistProgram, SynthError> {
    synthesize_with_theory_warm(graph, theory, devices, profile, ratios, config, None)
}

/// [`synthesize_with_theory`] with an optional warm-start program.
///
/// The alternating Q/B loop re-synthesizes under freshly balanced ratios
/// every round; `warm_start` lets round *s* seed the A\* incumbent with
/// round *s−1*'s program, re-costed under the new ratio matrix via the same
/// table arithmetic the search uses. A warm incumbent is an upper bound
/// that prunes every state whose admissible score cannot beat it, which
/// typically cuts later rounds to a fraction of round 0's expansions. The
/// warm program only replaces the greedy seed when it is strictly cheaper,
/// and any strictly better program found by the search replaces it in turn.
///
/// Results are preserved up to exact cost ties: a warm incumbent only
/// suppresses programs that cannot beat it by more than [`EPS`], so warm
/// and cold runs can diverge only when the warm program ties the cold
/// optimum within that epsilon (in which case the warm run returns the
/// warm program itself — an equal-cost plan). The determinism suite pins
/// bit-for-bit equality on every benchmark model.
#[allow(clippy::too_many_arguments)]
pub fn synthesize_with_theory_warm(
    graph: &Graph,
    theory: &Theory,
    devices: &[VirtualDevice],
    profile: &CommProfile,
    ratios: &ShardingRatios,
    config: &SynthConfig,
    warm_start: Option<&DistProgram>,
) -> Result<DistProgram, SynthError> {
    let mut prof = SynthProfile::default();
    synthesize_core(graph, theory, devices, profile, ratios, config, warm_start, &mut prof)
}

/// [`synthesize_with_theory_warm`] that also returns the search's
/// [`SynthProfile`]. Profiling is collected unconditionally (it is a
/// handful of coordinator-side counter bumps); this variant merely keeps
/// the counters instead of dropping them, so profiled and unprofiled
/// calls run the identical search.
#[allow(clippy::too_many_arguments)]
pub fn synthesize_with_theory_profiled(
    graph: &Graph,
    theory: &Theory,
    devices: &[VirtualDevice],
    profile: &CommProfile,
    ratios: &ShardingRatios,
    config: &SynthConfig,
    warm_start: Option<&DistProgram>,
) -> Result<(DistProgram, SynthProfile), SynthError> {
    let mut prof = SynthProfile::default();
    let program =
        synthesize_core(graph, theory, devices, profile, ratios, config, warm_start, &mut prof)?;
    Ok((program, prof))
}

#[allow(clippy::too_many_arguments)]
fn synthesize_core(
    graph: &Graph,
    theory: &Theory,
    devices: &[VirtualDevice],
    profile: &CommProfile,
    ratios: &ShardingRatios,
    config: &SynthConfig,
    warm_start: Option<&DistProgram>,
    prof: &mut SynthProfile,
) -> Result<DistProgram, SynthError> {
    let cm = CostModel::new(graph, devices, profile, ratios);
    let tables = CostTables::build(&cm);
    let costs = CostSource::Tables(&tables);
    let m = cm.num_devices();
    // Helper threads start on the first wave with more than one state and
    // are joined when this function returns or unwinds.
    let mut workers = ThreadPool::new(config.threads).workers();
    let mut arena = Arena::new(theory, graph, m);
    let debug = std::env::var_os("HAP_SYNTH_DEBUG").is_some();

    // Seed the incumbent with a greedy descent: every later state whose
    // score cannot beat it is pruned, which bounds the exploration
    // (branch-and-bound on top of A*).
    let greedy_t0 = Instant::now();
    let mut incumbent: Option<Incumbent> =
        greedy_seed(arena.state(0), theory, &costs, graph.len(), debug)
            .map(|(cost, program)| Incumbent { cost, program });
    if debug {
        eprintln!(
            "greedy: {:?}, incumbent = {:?}",
            greedy_t0.elapsed(),
            incumbent.as_ref().map(|i| i.cost)
        );
    }

    // Warm start: a previous round's program, re-costed under the current
    // ratios with the exact arithmetic `apply` uses, becomes the incumbent
    // when it strictly beats the greedy seed.
    if let Some(warm) = warm_start {
        let warm_cost = replay_cost(warm, &costs, m);
        if incumbent.as_ref().is_none_or(|inc| warm_cost < inc.cost - EPS) {
            incumbent = Some(Incumbent { cost: warm_cost, program: warm.instrs.clone() });
            prof.warm_seeded = 1;
        }
    }

    let mut frontier = BinaryHeap::new();
    frontier.push(Entry {
        score: costs.best_case_seconds(arena.nodes[0].remaining_flops),
        seq: 0,
        node: 0,
    });
    let mut seq = 1u64;

    // The cooperative deadline: the coordinator checks it between waves and
    // workers poll the flag (and the clock, every DEADLINE_STRIDE triples)
    // inside a wave, so even a single oversized wave cannot spin past the
    // budget. A zero budget trips before the first wave is popped.
    let deadline = Instant::now() + Duration::from_secs_f64(config.time_budget_secs.max(0.0));
    let out_of_time = AtomicBool::new(false);

    let mut expansions = 0usize;
    let mut last_improvement = 0usize;

    // Buffers reused by every wave: its states, one slot of expansion
    // buffers per wave position (made on first use), and the merge keys.
    let mut wave: Vec<u32> = Vec::new();
    let mut slots: Vec<Slot> = Vec::new();
    let mut merge: Vec<MergeKey> = Vec::new();
    let words = theory.set_words();

    loop {
        if out_of_time.load(AtomicOrdering::Relaxed) || Instant::now() >= deadline {
            // Budget exhausted: fall back to the incumbent (paper-style
            // "seconds of overhead" guarantee).
            return budget_fallback(incumbent, expansions);
        }
        if incumbent.is_some()
            && expansions.saturating_sub(last_improvement) > config.stall_expansions
        {
            break; // diminishing returns: keep the incumbent
        }
        let budget_left = config.max_expansions.saturating_sub(expansions);
        if budget_left == 0 {
            if debug {
                eprintln!(
                    "astar: expansion budget {} exhausted over {} workers, frontier {}",
                    config.max_expansions,
                    workers.started() + 1,
                    frontier.len()
                );
            }
            return incumbent
                .map(Incumbent::into_program)
                .ok_or(SynthError::ExpansionLimit(config.max_expansions));
        }

        // Pop the wave: the globally best states, skipping entries that a
        // cheaper path to the same property set has made stale.
        wave.clear();
        while wave.len() < WAVE_WIDTH.min(budget_left) {
            let Some(entry) = frontier.pop() else { break };
            if let Some(inc) = &incumbent {
                if entry.score >= inc.cost - EPS {
                    // A* optimality: this is the frontier's minimum score,
                    // so no open state can beat the incumbent.
                    frontier.clear();
                    break;
                }
            }
            let set = arena.nodes[entry.node as usize].set;
            if arena.dominance[set as usize] < arena.cost(entry.node) - EPS {
                prof.dominance_stale += 1;
                continue; // stale
            }
            wave.push(entry.node);
        }
        if wave.is_empty() {
            break; // frontier exhausted or optimality proven
        }
        expansions += wave.len();
        prof.waves += 1;
        prof.expansions += wave.len() as u64;

        // Scatter: expand every wave state in parallel, each into its own
        // slot. The arena and the incumbent are frozen for the duration,
        // so workers only do deterministic reads.
        while slots.len() < wave.len() {
            slots.push(Slot::new(words, m));
        }
        let incumbent_cost = incumbent.as_ref().map(|i| i.cost);
        workers.for_each_mut(&mut slots[..wave.len()], |src, slot| {
            expand(&arena, wave[src], theory, &costs, incumbent_cost, &out_of_time, deadline, slot)
        });
        if out_of_time.load(AtomicOrdering::Relaxed) {
            // The wave was abandoned mid-expansion; its partial candidates
            // are discarded so the result is the last wave's incumbent.
            return budget_fallback(incumbent, expansions);
        }

        // Gather: merge the wave's candidates in a stable, thread-count
        // independent order before any of them takes effect.
        merge.clear();
        for (src, slot) in slots[..wave.len()].iter().enumerate() {
            merge.extend(slot.out.cands.iter().enumerate().map(|(index, c)| MergeKey {
                score: c.score,
                cost: c.cost,
                fingerprint: c.fingerprint,
                src: src as u32,
                index: index as u32,
            }));
        }
        prof.candidates += merge.len() as u64;
        merge.sort_unstable_by(MergeKey::order);

        // Commit sequentially in merge order: intern new sets, then the
        // dominance entry, the state, and its frontier entry.
        let committed_before = prof.committed;
        for key in &merge {
            if let Some(inc) = &incumbent {
                if key.score >= inc.cost - EPS {
                    prof.incumbent_pruned += 1;
                    continue; // cannot beat the incumbent
                }
            }
            let parent = wave[key.src as usize];
            let out = &slots[key.src as usize].out;
            let cand = &out.cands[key.index as usize];
            if cand.remaining_required == 0 {
                // Complete and strictly better (score == cost passed the
                // bound above). Equal-cost ties resolve to the candidate
                // with the smaller fingerprint: it commits first in merge
                // order and the bound then filters the rest.
                let program = arena.program(theory, parent, (cand.triple, cand.skipped));
                incumbent = Some(Incumbent { cost: cand.cost, program });
                last_improvement = expansions;
                prof.improvements += 1;
                continue;
            }
            let set = if cand.set == NEW_SET {
                arena.intern(&out.new_sets[cand.new_set as usize * words..][..words]).0
            } else {
                cand.set
            };
            if arena.dominance[set as usize] <= cand.cost + EPS {
                prof.dominance_pruned += 1;
                continue;
            }
            arena.dominance[set as usize] = cand.cost;
            let node = arena.push(
                Node {
                    set,
                    parent,
                    triple: cand.triple,
                    skipped: cand.skipped,
                    fingerprint: cand.fingerprint,
                    closed: cand.closed,
                    remaining_flops: cand.remaining_flops,
                    remaining_required: cand.remaining_required,
                },
                &out.stages[key.index as usize * m..][..m],
            );
            frontier.push(Entry { score: cand.score, seq, node });
            seq += 1;
            prof.committed += 1;
        }
        // The spent wave states retire, with every candidate not committed.
        prof.recycled += (wave.len() + merge.len()) as u64 - (prof.committed - committed_before);

        if let Some(beam) = config.beam_width {
            if frontier.len() > beam * 2 {
                prune_to(&mut frontier, beam);
            }
        }
        prof.frontier_peak = prof.frontier_peak.max(frontier.len() as u64);
    }

    if debug {
        eprintln!(
            "astar: {expansions} expansions over {} workers, frontier {} at exit, {} sets",
            workers.started() + 1,
            frontier.len(),
            arena.sets.len()
        );
    }
    incumbent.map(Incumbent::into_program).ok_or(SynthError::NoProgram)
}

impl Incumbent {
    fn into_program(self) -> DistProgram {
        DistProgram { instrs: self.program, estimated_time: self.cost }
    }
}

/// The time-budget exit: the incumbent if one exists, else an error.
fn budget_fallback(
    incumbent: Option<Incumbent>,
    expansions: usize,
) -> Result<DistProgram, SynthError> {
    incumbent.map(Incumbent::into_program).ok_or(SynthError::ExpansionLimit(expansions))
}

/// Expands committed state `node` into `slot`, replacing what the slot held
/// with the state's surviving successors. Runs on worker threads: reads the
/// frozen arena and incumbent bound, writes only its own slot, and polls
/// the shared deadline flag. Only the triples the theory's index offers for
/// the state's set are visited, in theory order; each is tested, previewed
/// against the bound without building anything, and only then built into
/// the slot's successor buffer.
#[allow(clippy::too_many_arguments)]
fn expand(
    arena: &Arena,
    node: u32,
    theory: &Theory,
    costs: &CostSource,
    incumbent_cost: Option<f64>,
    out_of_time: &AtomicBool,
    deadline: Instant,
    slot: &mut Slot,
) {
    let cur = arena.state(node);
    let parent_fingerprint = arena.nodes[node as usize].fingerprint;
    let Slot { out, scratch, succ, triples } = slot;
    out.clear();
    theory.candidates(cur.set, triples);
    let cur_stage_max = cur.stage_max();
    for (k, &t) in triples.iter().enumerate() {
        if k % DEADLINE_STRIDE == 0
            && (out_of_time.load(AtomicOrdering::Relaxed) || Instant::now() >= deadline)
        {
            out_of_time.store(true, AtomicOrdering::Relaxed);
            return;
        }
        if !applicable(cur.set, theory.bits(t)) {
            continue;
        }
        if let Some(bound) = incumbent_cost {
            let (pcost, premaining) = preview(&cur, cur_stage_max, t, theory, costs, scratch);
            if pcost + costs.best_case_seconds(premaining) >= bound - EPS {
                continue; // cannot beat the incumbent: skip without building
            }
        }
        apply(&cur, t, theory, costs, succ);
        let cost = succ.cost();
        if let Some(bound) = incumbent_cost {
            if cost >= bound - EPS {
                continue;
            }
        }
        let (score, set) = if succ.remaining_required == 0 {
            (cost, NEW_SET) // complete: becomes an incumbent, never a state
        } else {
            let set = match arena.sets.find(&succ.set, SetArena::hash(&succ.set)) {
                Some(id) if arena.dominance[id as usize] <= cost + EPS => {
                    continue; // dominated by a previous wave
                }
                Some(id) => id,
                None => NEW_SET,
            };
            let score = cost + costs.best_case_seconds(succ.remaining_flops);
            if let Some(bound) = incumbent_cost {
                if score >= bound - EPS {
                    continue; // admissible score cannot beat the incumbent
                }
            }
            (score, set)
        };
        let fingerprint =
            extend_fingerprint(parent_fingerprint, &theory.triples[t as usize], succ.skipped);
        out.push(succ, score, cost, fingerprint, t, set);
    }
}

/// Greedy descent to an initial complete program: from the root state,
/// repeatedly apply the best-scoring triple that produces a live node not
/// yet computed; only when none applies, the best-scoring "filler"
/// (a collective or an alternative placement) that reaches an unseen set
/// and unblocks such a triple. Returns `None` when the descent stalls (the
/// A\* then runs unseeded).
fn greedy_seed(
    root: StateRef,
    theory: &Theory,
    costs: &CostSource,
    graph_len: usize,
    debug: bool,
) -> Option<(f64, Vec<DistInstr>)> {
    let words = theory.set_words();
    let m = root.stage.len();
    let mut cur = Succ::new(words, m);
    cur.load(&root);
    let mut next = Succ::new(words, m);
    let mut probe = vec![0u64; words];
    let mut program: Vec<DistInstr> = Vec::new();
    // Been-here check over the sets the descent has moved to.
    let mut seen = SetArena::new(words);
    let mut scratch = vec![0.0; m];
    let mut triples = Vec::new();
    for _ in 0..graph_len.saturating_mul(8).max(64) {
        if cur.remaining_required == 0 {
            return Some((cur.cost(), program));
        }
        let view = cur.view();
        let cur_stage_max = view.stage_max();
        theory.candidates(view.set, &mut triples);
        // Candidates are scored with the cheap preview; only the winner's
        // state is built. Ties go to the first triple in theory order.
        let mut best: Option<(f64, u32)> = None;
        for &t in &triples {
            let output = theory.triples[t as usize].output;
            let progress = theory.live[output] && !theory.has_node(view.set, output);
            if progress && applicable(view.set, theory.bits(t)) {
                let (pcost, premaining) =
                    preview(&view, cur_stage_max, t, theory, costs, &mut scratch);
                let score = pcost + costs.best_case_seconds(premaining);
                if best.is_none_or(|(bs, _)| score < bs) {
                    best = Some((score, t));
                }
            }
        }
        if best.is_none() {
            // No progress triple applies, so every applicable triple is a
            // filler. One is useful only if its successor set is new to the
            // descent and lets some progress triple fire; only the set
            // matters, so the full successor is never built.
            for &t in &triples {
                let bits = theory.bits(t);
                if !applicable(view.set, bits) {
                    continue;
                }
                let (pcost, premaining) =
                    preview(&view, cur_stage_max, t, theory, costs, &mut scratch);
                let score = pcost + costs.best_case_seconds(premaining);
                if !best.is_none_or(|(bs, _)| score < bs) {
                    continue;
                }
                probe.copy_from_slice(view.set);
                if let Some(c) = bits.comm {
                    set_bit(&mut probe, c);
                }
                for &b in bits.post.iter() {
                    set_bit(&mut probe, b);
                }
                let unseen = seen.find(&probe, SetArena::hash(&probe)).is_none();
                if unseen && unblocks_progress(view.set, &probe, bits, theory) {
                    best = Some((score, t));
                }
            }
        }
        let Some((_, t)) = best else {
            if debug {
                eprintln!(
                    "greedy stalled: {} required outputs missing after {} instructions",
                    cur.remaining_required,
                    program.len()
                );
            }
            return None;
        };
        apply(&view, t, theory, costs, &mut next);
        program.extend(emitted(&theory.triples[t as usize], next.skipped).cloned());
        seen.insert(&next.set, SetArena::hash(&next.set));
        std::mem::swap(&mut cur, &mut next);
    }
    if debug {
        eprintln!(
            "greedy ran out of steps: {} required outputs missing after {} instructions",
            cur.remaining_required,
            program.len()
        );
    }
    None
}

/// True if a filler with compiled bits `filler`, taking the set `cur` to
/// `succ`, lets some compute triple fire that produces a live node not yet
/// produced.
///
/// Only triples consuming one of the filler's new properties are checked.
/// That is exact when no progress triple applies to `cur` (the greedy's
/// filler phase): a filler produces no new live node, so such a triple's
/// output is equally unproduced under `cur`; had its precondition held in
/// `cur` it would have applied there, so the precondition must contain a
/// property only `succ` has. A communication triple never counts, because
/// its precondition is a property of its own output node.
fn unblocks_progress(cur: &[u64], succ: &[u64], filler: TripleBits, theory: &Theory) -> bool {
    filler.post.iter().filter(|&&b| !has_bit(cur, b)).any(|&b| {
        theory.pre_index_of(b).iter().any(|&c| {
            let output = theory.triples[c].output;
            theory.live[output]
                && !theory.has_node(succ, output)
                && theory.bits(c as u32).pre.iter().all(|&p| has_bit(succ, p))
        })
    })
}

/// True when a triple with compiled bits `bits` can fire on `set`: its
/// communication (if any) has not already happened, its precondition
/// holds, and it establishes at least one new property. The one
/// applicability predicate shared by [`expand`], the greedy seed, and the
/// hot-path workload, so the three can never drift apart.
#[inline]
fn applicable(set: &[u64], bits: TripleBits) -> bool {
    if let Some(c) = bits.comm {
        if has_bit(set, c) {
            return false;
        }
    }
    bits.pre.iter().all(|&b| has_bit(set, b)) && !bits.post.iter().all(|&b| has_bit(set, b))
}

/// Cheaply previews the cost and remaining-work bound of applying triple
/// `t`, without building the successor or allocating: `scratch` (one per
/// expansion, reused across its triples) holds the in-progress stage vector
/// whenever the triple touches it, and `cur_stage_max` is the precomputed
/// makespan of the state's running stage (invariant across the expansion,
/// so callers hoist it out of the loop).
fn preview(
    cur: &StateRef,
    cur_stage_max: f64,
    t: u32,
    theory: &Theory,
    costs: &CostSource,
    scratch: &mut [f64],
) -> (f64, f64) {
    let triple = &theory.triples[t as usize];
    let mut closed = cur.closed;
    let mut stage_max = cur_stage_max;
    // True once `scratch` holds the running stage (after the first compute
    // or collective of this triple); until then the state's own stage is
    // authoritative and nothing is copied.
    let mut scratch_live = false;
    for instr in &triple.instrs {
        match instr {
            DistInstr::Leaf { .. } => {}
            DistInstr::Compute { node, rule } => {
                stage_max = if scratch_live {
                    costs.add_compute_max(scratch, *node, rule)
                } else {
                    scratch_live = true;
                    costs.set_compute_max(scratch, cur.stage, *node, rule)
                };
            }
            DistInstr::Collective { node, kind } => {
                closed += stage_max + costs.collective_secs(*node, kind);
                scratch.fill(0.0);
                scratch_live = true;
                stage_max = 0.0;
            }
        }
    }
    let mut remaining = cur.remaining_flops;
    for &(n, _) in &triple.post {
        if !theory.has_node(cur.set, n) && theory.live[n] {
            remaining = (remaining - costs.node_flops(n)).max(0.0);
        }
    }
    (closed + stage_max, remaining)
}

/// Applies triple `t` to `cur`, overwriting `out` with the successor: the
/// one place a state's property set, stage costs and remaining work change.
fn apply(cur: &StateRef, t: u32, theory: &Theory, costs: &CostSource, out: &mut Succ) {
    let triple = &theory.triples[t as usize];
    let bits = theory.bits(t);
    out.set.copy_from_slice(cur.set);
    out.stage.copy_from_slice(cur.stage);
    let mut closed = cur.closed;
    let mut skipped = 0u32;
    for (i, instr) in triple.instrs.iter().enumerate() {
        match instr {
            DistInstr::Leaf { .. } => {
                // Re-materializing an already-available leaf is skipped.
                // Postconditions (including this leaf's property) are
                // applied after the loop, so `cur.set` is the right test.
                if has_bit(cur.set, bits.leaf[i]) {
                    skipped |= 1 << i;
                }
            }
            DistInstr::Compute { node, rule } => costs.add_compute(&mut out.stage, *node, rule),
            DistInstr::Collective { node, kind } => {
                // A collective closes the running stage (paper Fig. 6).
                closed += out.stage.iter().cloned().fold(0.0, f64::max);
                out.stage.iter_mut().for_each(|s| *s = 0.0);
                closed += costs.collective_secs(*node, kind);
            }
        }
    }
    // The set effect: the communicated marker, then the postcondition; a
    // node first produced here lowers the remaining work.
    if let Some(c) = bits.comm {
        set_bit(&mut out.set, c);
    }
    let mut remaining_flops = cur.remaining_flops;
    let mut remaining_required = cur.remaining_required;
    for (&b, &(node, _)) in bits.post.iter().zip(&triple.post) {
        let newly_produced = !theory.has_node(&out.set, node);
        if set_bit(&mut out.set, b) && newly_produced {
            if theory.counts_flops[node] {
                remaining_flops = (remaining_flops - costs.node_flops(node)).max(0.0);
            }
            if theory.is_required[node] {
                remaining_required = remaining_required.saturating_sub(1);
            }
        }
    }
    out.closed = closed;
    out.remaining_flops = remaining_flops;
    out.remaining_required = remaining_required;
    out.skipped = skipped;
}

/// Re-costs an existing program, mirroring [`apply`]'s stage arithmetic
/// operation for operation so a warm-start incumbent's cost is bit-identical
/// to the cost the search would assign the same program.
fn replay_cost(program: &DistProgram, costs: &CostSource, m: usize) -> f64 {
    let mut closed = 0.0;
    let mut stage = vec![0.0; m];
    for instr in &program.instrs {
        match instr {
            DistInstr::Leaf { .. } => {}
            DistInstr::Compute { node, rule } => costs.add_compute(&mut stage, *node, rule),
            DistInstr::Collective { node, kind } => {
                closed += stage.iter().cloned().fold(0.0, f64::max);
                stage.iter_mut().for_each(|s| *s = 0.0);
                closed += costs.collective_secs(*node, kind);
            }
        }
    }
    closed + stage.iter().cloned().fold(0.0, f64::max)
}

/// A frozen expand-hot-path workload: reachable search states, isolated
/// from the frontier, the merge and the workers.
///
/// [`HotPathBench::run`] replays the inner loop of the search's `expand`
/// over the workload — enumerate each state's candidate triples from the
/// theory's index, test applicability, preview each applicable triple, and
/// build the successor of every one whose admissible score clears the
/// stored bound — through either cost oracle. The states are committed to a
/// search arena up front, like the wave states `expand` receives, so the
/// timed region contains only the inner loop. The
/// `synthesis/expand_hot_path` micro-bench times the two oracles; the
/// equivalence tests assert their checksums (cost and score bits,
/// successor fingerprints) are identical.
pub struct HotPathBench {
    graph: Graph,
    devices: Vec<VirtualDevice>,
    profile: CommProfile,
    ratios: ShardingRatios,
    theory: Theory,
    /// Built once here, not per run: production builds tables once per
    /// `synthesize_with_theory` call and amortizes them over the whole
    /// search, so the timed region must not re-pay the build.
    tables: CostTables,
    /// The workload's states, committed as a search commits them.
    arena: Arena,
    /// Ids of the workload's states in `arena`.
    states: Vec<u32>,
    /// 2nd-percentile preview score of the workload: applications below it
    /// build the successor, the rest are preview-pruned — mirroring a
    /// late-search wave under a tight incumbent, where almost every triple
    /// dies at preview time (pure cost lookup) and only the promising few
    /// build states.
    bound: f64,
    applications: usize,
}

impl HotPathBench {
    /// Collects up to `max_states` reachable states by breadth-first
    /// expansion from the root state (deterministic: FIFO order, no pruning
    /// other than property-set dedup).
    pub fn new(
        graph: Graph,
        devices: Vec<VirtualDevice>,
        profile: CommProfile,
        ratios: ShardingRatios,
        max_states: usize,
    ) -> Self {
        let theory = Theory::build(&graph);
        let tables = CostTables::build(&CostModel::new(&graph, &devices, &profile, &ratios));
        let m = devices.len();
        let mut arena = Arena::new(&theory, &graph, m);
        let mut states: Vec<u32> = Vec::with_capacity(max_states);
        let mut scores: Vec<f64> = Vec::new();
        let mut applications = 0;
        {
            let costs = CostSource::Tables(&tables);
            let mut scratch = vec![0.0; m];
            let mut cur = Succ::new(theory.set_words(), m);
            let mut succ = Succ::new(theory.set_words(), m);
            let mut triples = Vec::new();
            let mut queue: VecDeque<u32> = VecDeque::from([0]);
            while let Some(id) = queue.pop_front() {
                if states.len() >= max_states {
                    break;
                }
                cur.load(&arena.state(id));
                let parent_fingerprint = arena.nodes[id as usize].fingerprint;
                let state = cur.view();
                let stage_max = state.stage_max();
                theory.candidates(state.set, &mut triples);
                for &t in &triples {
                    if !applicable(state.set, theory.bits(t)) {
                        continue;
                    }
                    applications += 1;
                    let (pcost, premaining) =
                        preview(&state, stage_max, t, &theory, &costs, &mut scratch);
                    scores.push(pcost + costs.best_case_seconds(premaining));
                    apply(&state, t, &theory, &costs, &mut succ);
                    let (set, fresh) = arena.intern(&succ.set);
                    if fresh && queue.len() + states.len() < max_states {
                        let node = Node {
                            set,
                            parent: id,
                            triple: t,
                            skipped: succ.skipped,
                            fingerprint: extend_fingerprint(
                                parent_fingerprint,
                                &theory.triples[t as usize],
                                succ.skipped,
                            ),
                            closed: succ.closed,
                            remaining_flops: succ.remaining_flops,
                            remaining_required: succ.remaining_required,
                        };
                        queue.push_back(arena.push(node, &succ.stage));
                    }
                }
                states.push(id);
            }
        }
        scores.sort_unstable_by(f64::total_cmp);
        let bound = scores.get(scores.len() / 50).copied().unwrap_or(f64::INFINITY);
        HotPathBench {
            graph,
            devices,
            profile,
            ratios,
            theory,
            tables,
            arena,
            states,
            bound,
            applications,
        }
    }

    /// Number of `(state, triple)` applications one [`HotPathBench::run`]
    /// performs (the throughput unit of the micro-bench).
    pub fn applications(&self) -> usize {
        self.applications
    }

    /// Replays the workload through the table (`use_tables`) or direct cost
    /// oracle, returning `(applications, checksum)`. The checksum folds
    /// every preview score, surviving successor cost, and successor program
    /// fingerprint, so two runs agree iff their costs are bit-identical.
    pub fn run(&self, use_tables: bool) -> (usize, u64) {
        self.replay(use_tables, |_, _, _, cost, fingerprint| (cost, fingerprint))
    }

    /// [`HotPathBench::run`] through the table oracle, with every surviving
    /// successor recorded the way `expand` hands it to the wave merge: its
    /// set looked up among the interned sets, and the candidate, its stage
    /// and (when new) its set copied into the slot's output buffers. The
    /// checksum must match [`HotPathBench::run`] bit for bit (asserted by
    /// the micro-bench and the equivalence test); the
    /// `synthesis/expand_hot_path_arena` series gates what recording costs
    /// over building alone.
    pub fn run_arena(&self) -> (usize, u64) {
        self.replay(true, |out, succ, t, cost, fingerprint| {
            let set = self.arena.sets.find(&succ.set, SetArena::hash(&succ.set));
            let cand = out.push(succ, cost, cost, fingerprint, t, set.unwrap_or(NEW_SET));
            (cand.cost, cand.fingerprint)
        })
    }

    /// The shared replay loop, on one [`Slot`] that every state reuses the
    /// way a search's slots serve wave after wave: `record` sees each
    /// surviving successor with its triple, cost and fingerprint (and the
    /// slot's output buffers, cleared per state) and returns the cost and
    /// fingerprint to fold into the checksum.
    fn replay(
        &self,
        use_tables: bool,
        mut record: impl FnMut(&mut Expansion, &Succ, u32, f64, u64) -> (f64, u64),
    ) -> (usize, u64) {
        // The CostModel is rebuilt for both oracles (cheap: one flops vec);
        // the tables come prebuilt, mirroring production's once-per-search
        // amortization.
        let cm = CostModel::new(&self.graph, &self.devices, &self.profile, &self.ratios);
        let costs =
            if use_tables { CostSource::Tables(&self.tables) } else { CostSource::Direct(&cm) };
        let mut slot = Slot::new(self.theory.set_words(), self.devices.len());
        let Slot { out, scratch, succ, triples } = &mut slot;
        let mut applications = 0usize;
        let mut checksum = 0u64;
        for &id in &self.states {
            let state = self.arena.state(id);
            let parent_fingerprint = self.arena.nodes[id as usize].fingerprint;
            let stage_max = state.stage_max();
            out.clear();
            self.theory.candidates(state.set, triples);
            for &t in triples.iter() {
                if !applicable(state.set, self.theory.bits(t)) {
                    continue;
                }
                let (pcost, premaining) =
                    preview(&state, stage_max, t, &self.theory, &costs, scratch);
                let score = pcost + costs.best_case_seconds(premaining);
                applications += 1;
                checksum = checksum.rotate_left(1) ^ score.to_bits();
                if score < self.bound {
                    apply(&state, t, &self.theory, &costs, succ);
                    let fingerprint = extend_fingerprint(
                        parent_fingerprint,
                        &self.theory.triples[t as usize],
                        succ.skipped,
                    );
                    let (cost, fingerprint) = record(out, succ, t, succ.cost(), fingerprint);
                    checksum = checksum.rotate_left(1) ^ cost.to_bits() ^ fingerprint;
                }
            }
        }
        (applications, checksum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_cluster::{ClusterSpec, Granularity};
    use hap_collectives::{profile_collectives, GroundTruthNet, NetworkParams};
    use hap_graph::{GraphBuilder, Placement, Role};

    fn cluster_setup(m: usize) -> (Vec<VirtualDevice>, CommProfile, ShardingRatios) {
        let cluster = match m {
            4 => ClusterSpec::fig17_cluster(),
            _ => ClusterSpec::paper_heterogeneous(1),
        };
        let devices = cluster.virtual_devices(Granularity::PerGpu);
        let profile =
            profile_collectives(&GroundTruthNet::new(NetworkParams::paper_cloud()), devices.len());
        let ratios = vec![cluster.proportional_ratios(Granularity::PerGpu)];
        (devices, profile, ratios)
    }

    #[test]
    fn fig11_example_synthesizes_data_parallelism() {
        // loss = sum(x . w): the classic result is x sharded on batch, w
        // replicated, no communication at all (loss stays partial).
        let mut g = GraphBuilder::new();
        let x = g.placeholder("e1", vec![4096, 1024]);
        let w = g.parameter("e2", vec![1024, 512]);
        let y = g.matmul(x, w);
        let l = g.sum_all(y);
        let graph = g.build_forward();
        let (devices, profile, ratios) = cluster_setup(4);
        let q = synthesize(&graph, &devices, &profile, &ratios, &SynthConfig::default()).unwrap();
        assert!(q.is_complete(&graph));
        assert_eq!(q.collective_count(), 0, "program: {}", q.listing(&graph));
        // x must be shard-materialized on its batch dimension.
        assert!(q.instrs.iter().any(|i| matches!(
            i,
            DistInstr::Leaf { node, placement: Placement::Shard(0) } if *node == x
        )));
        let _ = (y, l);
    }

    #[test]
    fn training_iteration_synchronizes_gradients() {
        // With a big batch and a small model, replicating the forward pass is
        // far too expensive, so the optimal program shards the batch — and
        // then the weight gradient must be aggregated: expect at least one
        // collective (all-reduce or reduce-scatter).
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", vec![262144, 256]);
        let w = g.parameter("w", vec![256, 256]);
        let labels = g.label("y", vec![262144]);
        let h = g.matmul(x, w);
        let loss = g.cross_entropy(h, labels);
        let _ = x;
        let graph = g.build_training(loss).unwrap();
        let (devices, profile, ratios) = cluster_setup(4);
        let q = synthesize(&graph, &devices, &profile, &ratios, &SynthConfig::default()).unwrap();
        assert!(q.is_complete(&graph), "program:\n{}", q.listing(&graph));
        assert!(
            q.collective_count() >= 1,
            "gradient sync requires communication:\n{}",
            q.listing(&graph)
        );
        // Every required output is produced.
        for o in graph.required_outputs() {
            assert!(q
                .instrs
                .iter()
                .any(|i| matches!(i, DistInstr::Compute { node, .. } if *node == o)));
        }
    }

    #[test]
    fn tiny_batch_prefers_sfb() {
        // Fig. 5: with a small global batch, gathering the sufficient factors
        // (activations + output grads) is cheaper than all-reducing the
        // f x h gradient. Make f, h huge and b tiny.
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", vec![8, 4096]);
        let w = g.parameter("w", vec![4096, 4096]);
        let y = g.matmul(x, w);
        let l = g.sum_all(y);
        let graph = g.build_training(l).unwrap();
        let (devices, profile, ratios) = cluster_setup(4);
        let q = synthesize(&graph, &devices, &profile, &ratios, &SynthConfig::default()).unwrap();
        // The gradient of w must NOT be all-reduced; instead the factors are
        // gathered and the gradient computed replicated.
        let grad_w_node = graph
            .nodes()
            .iter()
            .find(|n| {
                n.role == Role::Grad && matches!(n.op, hap_graph::Op::MatMul2 { ta: true, .. })
            })
            .map(|n| n.id)
            .expect("weight gradient node");
        let allreduced_grad = q.instrs.iter().any(|i| {
            matches!(i, DistInstr::Collective { node, kind: crate::CollectiveInstr::AllReduce } if *node == grad_w_node)
        });
        assert!(
            !allreduced_grad,
            "SFB should avoid all-reducing the huge gradient:\n{}",
            q.listing(&graph)
        );
        let _ = (x, w, y, l);
    }

    #[test]
    fn disabling_sfb_changes_the_plan() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", vec![8, 4096]);
        let w = g.parameter("w", vec![4096, 4096]);
        let y = g.matmul(x, w);
        let l = g.sum_all(y);
        let graph = g.build_training(l).unwrap();
        let (devices, profile, ratios) = cluster_setup(4);
        let with =
            synthesize(&graph, &devices, &profile, &ratios, &SynthConfig::default()).unwrap();
        let without = synthesize(
            &graph,
            &devices,
            &profile,
            &ratios,
            &SynthConfig { sfb: false, ..SynthConfig::default() },
        )
        .unwrap();
        assert!(with.estimated_time <= without.estimated_time + 1e-12);
    }

    #[test]
    fn zero_budget_still_returns_the_greedy_incumbent() {
        // With a zero expansion budget the A* cannot refine, but the greedy
        // descent still seeds a complete (if suboptimal) program.
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", vec![64, 8]);
        let w = g.parameter("w", vec![8, 8]);
        let y = g.matmul(x, w);
        let l = g.sum_all(y);
        let graph = g.build_forward();
        let _ = (x, w, y, l);
        let (devices, profile, ratios) = cluster_setup(4);
        let q = synthesize(
            &graph,
            &devices,
            &profile,
            &ratios,
            &SynthConfig { max_expansions: 0, ..SynthConfig::default() },
        )
        .expect("greedy incumbent");
        assert!(q.is_complete(&graph));
    }

    #[test]
    fn zero_time_budget_returns_the_greedy_incumbent_without_spinning() {
        // Regression: the cooperative deadline flag must trip before the
        // first wave, so a 0-second budget degrades to the greedy program
        // instead of panicking or expanding states. Exercised at several
        // thread counts since the flag is shared across workers.
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", vec![4096, 64]);
        let w = g.parameter("w", vec![64, 64]);
        let y = g.matmul(x, w);
        let l = g.sum_all(y);
        let graph = g.build_training(l).unwrap();
        let _ = (x, w, y, l);
        let (devices, profile, ratios) = cluster_setup(4);
        for threads in [1usize, 2, 8] {
            let t0 = Instant::now();
            let q = synthesize(
                &graph,
                &devices,
                &profile,
                &ratios,
                &SynthConfig { time_budget_secs: 0.0, threads, ..SynthConfig::default() },
            )
            .expect("greedy incumbent under zero budget");
            assert!(q.is_complete(&graph));
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "zero budget must not spin (threads={threads})"
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_the_program() {
        // The full benchmark-suite determinism check lives in
        // tests/synthesis_determinism.rs; this is the fast unit-level gate.
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", vec![8192, 128]);
        let w1 = g.parameter("w1", vec![128, 256]);
        let w2 = g.parameter("w2", vec![256, 64]);
        let labels = g.label("y", vec![8192]);
        let h = g.matmul(x, w1);
        let h = g.relu(h);
        let h = g.matmul(h, w2);
        let loss = g.cross_entropy(h, labels);
        let graph = g.build_training(loss).unwrap();
        let _ = (x, w1, w2, labels);
        let (devices, profile, ratios) = cluster_setup(4);
        let cfg = |threads: usize| SynthConfig {
            threads,
            time_budget_secs: 60.0,
            max_expansions: 1_500,
            ..SynthConfig::default()
        };
        let reference = synthesize(&graph, &devices, &profile, &ratios, &cfg(1)).unwrap();
        for threads in [2usize, 8] {
            let q = synthesize(&graph, &devices, &profile, &ratios, &cfg(threads)).unwrap();
            assert_eq!(q.fingerprint(), reference.fingerprint(), "threads={threads}");
            assert_eq!(
                q.estimated_time.to_bits(),
                reference.estimated_time.to_bits(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn concurrent_searches_match_sequential_ones() {
        // Two searches started together, each with its own two workers,
        // return exactly what each returns alone on one thread: program,
        // time bits and every search counter.
        let mlp = |width: usize| {
            let mut g = GraphBuilder::new();
            let x = g.placeholder("x", vec![8192, 128]);
            let w1 = g.parameter("w1", vec![128, width]);
            let w2 = g.parameter("w2", vec![width, 64]);
            let labels = g.label("y", vec![8192]);
            let h = g.matmul(x, w1);
            let h = g.relu(h);
            let h = g.matmul(h, w2);
            let loss = g.cross_entropy(h, labels);
            g.build_training(loss).unwrap()
        };
        let graphs = [mlp(256), mlp(96)];
        let theories = graphs.each_ref().map(Theory::build);
        let (devices, profile, ratios) = cluster_setup(4);
        let cfg = |threads: usize| SynthConfig {
            threads,
            time_budget_secs: 60.0,
            max_expansions: 1_500,
            ..SynthConfig::default()
        };
        let search = |i: usize, threads: usize| {
            let (q, prof) = synthesize_with_theory_profiled(
                &graphs[i],
                &theories[i],
                &devices,
                &profile,
                &ratios,
                &cfg(threads),
                None,
            )
            .unwrap();
            (q.fingerprint(), q.estimated_time.to_bits(), prof)
        };
        let alone = [search(0, 1), search(1, 1)];
        assert!(alone.iter().all(|(_, _, prof)| prof.waves > 1), "every search runs waves");
        let start = std::sync::Barrier::new(2);
        let together = std::thread::scope(|s| {
            let handles = [0, 1].map(|i| {
                let (start, search) = (&start, &search);
                s.spawn(move || {
                    start.wait();
                    search(i, 2)
                })
            });
            handles.map(|h| h.join().unwrap())
        });
        assert_eq!(together, alone);
    }

    /// Up to `max` states reachable from the root by breadth-first search,
    /// each as an owned successor buffer.
    fn reachable_states(
        graph: &Graph,
        theory: &Theory,
        costs: &CostSource,
        max: usize,
    ) -> Vec<Succ> {
        let m = 4;
        let arena = Arena::new(theory, graph, m);
        let words = theory.set_words();
        let mut root = Succ::new(words, m);
        root.load(&arena.state(0));
        let mut seen = SetArena::new(words);
        seen.insert(&root.set, SetArena::hash(&root.set));
        let mut queue = VecDeque::from([root]);
        let mut states = Vec::new();
        while let Some(state) = queue.pop_front() {
            if states.len() >= max {
                break;
            }
            for t in 0..theory.triples.len() as u32 {
                if applicable(&state.set, theory.bits(t)) {
                    let mut succ = Succ::new(words, m);
                    apply(&state.view(), t, theory, costs, &mut succ);
                    if seen.insert(&succ.set, SetArena::hash(&succ.set)).1 {
                        queue.push_back(succ);
                    }
                }
            }
            states.push(state);
        }
        states
    }

    fn small_training_graph() -> Graph {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", vec![512, 64]);
        let w1 = g.parameter("w1", vec![64, 32]);
        let w2 = g.parameter("w2", vec![32, 8]);
        let labels = g.label("y", vec![512]);
        let h = g.matmul(x, w1);
        let h = g.relu(h);
        let h = g.matmul(h, w2);
        let loss = g.cross_entropy(h, labels);
        g.build_training(loss).unwrap()
    }

    #[test]
    fn indexed_candidates_are_exactly_the_applicable_triples_in_theory_order() {
        let graph = small_training_graph();
        let theory = Theory::build(&graph);
        let (devices, profile, ratios) = cluster_setup(4);
        let cm = CostModel::new(&graph, &devices, &profile, &ratios);
        let tables = CostTables::build(&cm);
        let costs = CostSource::Tables(&tables);
        let states = reachable_states(&graph, &theory, &costs, 300);
        assert_eq!(states.len(), 300);
        let mut candidates = Vec::new();
        for state in &states {
            let scan: Vec<u32> = (0..theory.triples.len() as u32)
                .filter(|&t| applicable(&state.set, theory.bits(t)))
                .collect();
            theory.candidates(&state.set, &mut candidates);
            let indexed: Vec<u32> = candidates
                .iter()
                .copied()
                .filter(|&t| applicable(&state.set, theory.bits(t)))
                .collect();
            assert_eq!(indexed, scan);
            assert!(candidates.len() < theory.triples.len() || theory.triples.len() < 8);
        }
    }

    #[test]
    fn incremental_filler_check_matches_a_whole_theory_scan() {
        // The greedy seed's filler phase: no progress triple applies. The
        // incremental check must agree with scanning every triple.
        let graph = small_training_graph();
        let theory = Theory::build(&graph);
        let (devices, profile, ratios) = cluster_setup(4);
        let cm = CostModel::new(&graph, &devices, &profile, &ratios);
        let tables = CostTables::build(&cm);
        let costs = CostSource::Tables(&tables);
        let whole_theory = |succ: &[u64]| {
            theory.triples.iter().enumerate().any(|(i, t)| {
                let bits = theory.bits(i as u32);
                theory.live[t.output]
                    && !theory.has_node(succ, t.output)
                    && bits.comm.is_none_or(|c| !has_bit(succ, c))
                    && bits.pre.iter().all(|&p| has_bit(succ, p))
            })
        };
        let mut checked = 0;
        for state in reachable_states(&graph, &theory, &costs, 2_000) {
            let applicable: Vec<u32> = (0..theory.triples.len() as u32)
                .filter(|&t| applicable(&state.set, theory.bits(t)))
                .collect();
            let progress = applicable.iter().any(|&t| {
                let output = theory.triples[t as usize].output;
                theory.live[output] && !theory.has_node(&state.set, output)
            });
            if progress {
                continue;
            }
            for &t in &applicable {
                let bits = theory.bits(t);
                let mut succ = state.set.clone();
                if let Some(c) = bits.comm {
                    set_bit(&mut succ, c);
                }
                for &b in bits.post.iter() {
                    set_bit(&mut succ, b);
                }
                assert_eq!(
                    unblocks_progress(&state.set, &succ, bits, &theory),
                    whole_theory(&succ),
                    "filler {t}"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "no reachable state exercised the filler phase");
    }

    #[test]
    fn beam_prune_keeps_the_entries_a_full_sort_keeps() {
        let entries = || {
            (0..1_000u64).map(|seq| Entry {
                score: ((seq * 7919) % 97) as f64, // many ties, broken by seq
                seq,
                node: seq as u32,
            })
        };
        let mut sorted: Vec<Entry> = entries().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        for beam in [0usize, 1, 250, 999, 1_000, 5_000] {
            let mut frontier: BinaryHeap<Entry> = entries().collect();
            prune_to(&mut frontier, beam);
            let popped: Vec<u32> = std::iter::from_fn(|| frontier.pop()).map(|e| e.node).collect();
            let expected: Vec<u32> = sorted.iter().take(beam).map(|e| e.node).collect();
            assert_eq!(popped, expected, "beam {beam}");
        }
    }

    #[test]
    fn state_fingerprints_match_their_materialized_programs() {
        // A state's program is the chain of (triple, skipped leaves) steps
        // through its ancestors; its fingerprint is folded in as the chain
        // grows. Both must agree with the materialized program, and
        // siblings must share their parent's program as a prefix.
        let graph = small_training_graph();
        let (devices, profile, ratios) = cluster_setup(4);
        let bench = HotPathBench::new(graph, devices, profile, ratios, 64);
        let (arena, theory) = (&bench.arena, &bench.theory);
        assert!(arena.nodes.len() > 64);
        for (id, node) in arena.nodes.iter().enumerate().skip(1) {
            let parent = &arena.nodes[node.parent as usize];
            let program = DistProgram {
                instrs: arena.program(theory, node.parent, (node.triple, node.skipped)),
                estimated_time: 0.0,
            };
            assert_eq!(program.fingerprint(), node.fingerprint, "state {id}");
            if parent.parent != ROOT {
                let prefix = arena.program(theory, parent.parent, (parent.triple, parent.skipped));
                assert_eq!(&program.instrs[..prefix.len()], &prefix[..], "state {id}");
            }
            // A leaf already materialized is not emitted twice.
            let leaves: Vec<&DistInstr> =
                program.instrs.iter().filter(|i| matches!(i, DistInstr::Leaf { .. })).collect();
            for (i, leaf) in leaves.iter().enumerate() {
                assert!(!leaves[..i].contains(leaf), "state {id} repeats {leaf:?}");
            }
        }
    }
}
