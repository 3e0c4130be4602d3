//! Distributed program synthesis for HAP (paper Sec. 4).
//!
//! Given a single-device computation graph, sharding ratios `B`, and the
//! profiled cluster, this crate synthesizes — from scratch, on a distributed
//! instruction set — a program that emulates the single-device program and
//! minimizes estimated per-iteration time:
//!
//! 1. a background theory `T` of Hoare triples is derived from the graph's
//!    per-op placement rules ([`theory`], paper Sec. 4.2 / Fig. 9),
//!    including the grouped-Broadcast alternative and the replicated-compute
//!    rule that enables sufficient factor broadcasting (Sec. 4.4);
//! 2. an A\*-based search explores (possibly incomplete) programs, scoring
//!    them with `cost + ecost` and pruning dominated property sets
//!    ([`astar`], paper Sec. 4.3 / Fig. 10);
//! 3. the three search-time optimizations of Sec. 4.5 keep the search
//!    tractable: empty-precondition triple fusion, at-most-one communication
//!    per reference tensor, and redundant-property removal;
//! 4. the search itself runs in parallel waves across its own crew of
//!    worker threads ([`SynthConfig::threads`], at most one per core),
//!    started on its first wave and parked between waves, with results
//!    guaranteed bit-for-bit identical for every thread count: each wave's
//!    candidates are merged in a stable `(score, cost, program fingerprint)`
//!    order before any state commits to the dominance map, incumbent, or
//!    frontier;
//! 5. the search's bookkeeping is flat: the theory indexes its triples by
//!    their first precondition, so a state visits only the triples that
//!    can apply to it; every cost is a read from dense precomputed
//!    [`CostTables`]; property sets are fixed-width bitsets over the
//!    theory's property numbering, interned in one arena with dense ids
//!    that key a `Vec` dominance table; each wave position owns its
//!    expansion buffers for the whole search, so waves reuse them instead of
//!    allocating per expanded state; and the alternating Q/B loop can seed each round's incumbent with the
//!    previous round's program ([`synthesize_with_theory_warm`]).
//!
//! # Examples
//!
//! ```
//! use hap_graph::GraphBuilder;
//! use hap_cluster::{ClusterSpec, Granularity};
//! use hap_collectives::{profile_collectives, GroundTruthNet, NetworkParams};
//! use hap_synthesis::{synthesize, SynthConfig};
//!
//! // Paper Fig. 11: loss = sum(matmul(placeholder, parameter)).
//! let mut g = GraphBuilder::new();
//! let x = g.placeholder("x", vec![64, 32]);
//! let w = g.parameter("w", vec![32, 16]);
//! let y = g.matmul(x, w);
//! let loss = g.sum_all(y);
//! let graph = g.build_training(loss).unwrap();
//!
//! let cluster = ClusterSpec::fig17_cluster();
//! let devices = cluster.virtual_devices(Granularity::PerGpu);
//! let profile = profile_collectives(&GroundTruthNet::new(NetworkParams::paper_cloud()), 4);
//! let ratios = vec![cluster.proportional_ratios(Granularity::PerGpu)];
//! let q = synthesize(&graph, &devices, &profile, &ratios, &SynthConfig::default()).unwrap();
//! assert!(q.is_complete(&graph));
//! ```

mod astar;
mod cost;
mod instr;
mod property;
mod theory;

pub use astar::{
    synthesize, synthesize_with_theory, synthesize_with_theory_profiled,
    synthesize_with_theory_warm, HotPathBench, SynthConfig, SynthError, SynthProfile,
};
pub use cost::{CostModel, CostTables, ShardingRatios, LAUNCH_OVERHEAD};
pub use instr::fingerprint;
pub use instr::{CollectiveInstr, DistInstr, DistProgram, Stage};
pub use property::{Prop, PropSet};
pub use theory::{Theory, TheoryOptions, Triple};
