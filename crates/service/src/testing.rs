//! Deterministic multi-tenant traffic generation for stress-testing the
//! plan service.
//!
//! The overload harness (`tests/overload.rs`, CI's `service-soak` job)
//! needs adversarial tenant mixes whose *shape* is reproducible from a
//! seed while every request stays a real, synthesizable planning request.
//! This module builds three request families and a seeded scheduler over
//! them:
//!
//! * **Hot set** ([`hot_request`]) — small graphs searched with a real
//!   (bounded, deterministic) A\* budget: expensive to synthesize, small
//!   to cache. High admission density; the working set a healthy cache
//!   must retain.
//! * **One-off flood** ([`one_off_request`]) — deep forward-only chains
//!   planned greedily (zero time budget): cheap to synthesize, bulky to
//!   cache. Low admission density; classic cache-pollution traffic that
//!   evicts a plain LRU's working set and must bounce off the admission
//!   gate.
//! * **Slow burner** ([`slow_request`]) — one deliberately expensive
//!   request that parks a worker long enough for the harness to provoke
//!   queue-depth shedding behind it.
//!
//! Determinism: request *content* is a pure function of the index (so
//! fingerprints, densities and shard placement are fixed across runs and
//! seeds), and only the interleaving [`schedule`] is seeded. A schedule
//! driven sequentially over one connection therefore produces the same
//! cache decisions for a given seed, and admission-gate outcomes hold for
//! *every* seed because they depend on the density gap, not the order.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hap::HapOptions;
use hap_cluster::{ClusterDelta, ClusterSpec};
use hap_codec::{request_fingerprint, Encode};
use hap_graph::{Graph, GraphBuilder};
use hap_models::{mlp, MlpConfig};
use hap_synthesis::SynthConfig;

use crate::ring::Ring;
use crate::{
    Client, ClusterClient, PlanCache, PlanReply, PlanService, RetryPolicy, RingInfo, Server,
    ServiceConfig, StatsSnapshot,
};

/// One fully-formed planning request.
pub struct StressRequest {
    /// Label used in harness diagnostics.
    pub name: String,
    /// The training (or forward) graph to plan.
    pub graph: Graph,
    /// The cluster to plan for.
    pub cluster: ClusterSpec,
    /// Planner options.
    pub options: HapOptions,
}

impl StressRequest {
    /// The request's content fingerprint — its cache key.
    pub fn fingerprint(&self) -> u64 {
        request_fingerprint(&self.graph, &self.cluster, &self.options)
    }
}

/// Hot-set request `i`: a small MLP trained with a bounded deterministic
/// A\* search. The expansion budget is fixed and the stall cutoff and
/// wall-clock deadline are disabled, so the search does the same work
/// every run — synthesis is tens of milliseconds, the cached plan is a
/// couple of KB, and the density (seconds saved per byte) is orders of
/// magnitude above a one-off's.
pub fn hot_request(i: usize) -> StressRequest {
    // Indirection over the raw parameter seed: fingerprints are content
    // hashes, so which cache shard a request lands in is fixed but
    // arbitrary, and two neighboring seeds can collide. These eight seeds
    // were chosen so the first eight hot requests occupy eight *distinct*
    // shards — the retention harness can size its cache to exactly the
    // hot set. `hot_set_fits` re-checks at runtime, so codec or model
    // drift fails loudly rather than flakily.
    const SEEDS: [usize; 8] = [0, 1, 2, 4, 5, 6, 7, 8];
    // Blocks step by 9 (one past the table's largest value), so indices in
    // different blocks can never produce the same seed — e.g. with a
    // block stride of 8, `i=7` (seed 8) and `i=8` (seed 0+8) would alias
    // into identical requests.
    let seed = SEEDS[i % SEEDS.len()] + (i / SEEDS.len()) * (SEEDS[SEEDS.len() - 1] + 1);
    let graph = mlp(&MlpConfig {
        batch: 256,
        input: 24 + 8 * seed,
        hidden: vec![48 + 16 * (seed % 3), 64],
        classes: 10,
    });
    let options = HapOptions {
        synth: SynthConfig {
            max_expansions: 768,
            stall_expansions: 1 << 30,
            time_budget_secs: 600.0,
            ..SynthConfig::default()
        },
        ..HapOptions::default()
    };
    StressRequest {
        name: format!("hot-{i}"),
        graph,
        cluster: ClusterSpec::fig17_cluster(),
        options,
    }
}

/// One-off flood request `i`: a deep element-wise forward chain planned
/// greedily (`time_budget_secs: 0`). Synthesis is a few milliseconds, but
/// the plan carries one instruction per node — cheap to make, bulky to
/// keep, never requested twice. The admission gate must turn these away
/// when the cache is full of hot-set plans.
pub fn one_off_request(i: usize) -> StressRequest {
    let mut g = GraphBuilder::new();
    let width = 8 + (i % 5);
    // The batch extent carries the raw index, so every one-off is a
    // genuinely distinct graph (distinct fingerprint — never a repeat),
    // while all of them share the cheap/bulky profile.
    let mut cur = g.placeholder("x", vec![64 + i, width]);
    let depth = 48 + (i % 7) * 4;
    for layer in 0..depth {
        cur = match layer % 3 {
            0 => g.relu(cur),
            1 => g.layer_norm(cur),
            _ => g.add(cur, cur),
        };
    }
    let _loss = g.sum_all(cur);
    let graph = g.build_forward();
    let options = HapOptions {
        synth: SynthConfig { time_budget_secs: 0.0, ..SynthConfig::default() },
        ..HapOptions::default()
    };
    StressRequest {
        name: format!("one-off-{i}"),
        graph,
        cluster: ClusterSpec::fig17_cluster(),
        options,
    }
}

/// A request whose synthesis reliably takes long enough (hundreds of
/// milliseconds) to occupy a worker while the harness floods the queue
/// behind it.
pub fn slow_request(i: usize) -> StressRequest {
    let graph =
        mlp(&MlpConfig { batch: 512, input: 64 + i, hidden: vec![96, 96, 96], classes: 16 });
    let options = HapOptions {
        synth: SynthConfig {
            max_expansions: 6_000,
            stall_expansions: 1 << 30,
            time_budget_secs: 600.0,
            ..SynthConfig::default()
        },
        ..HapOptions::default()
    };
    StressRequest {
        name: format!("slow-{i}"),
        graph,
        cluster: ClusterSpec::fig17_cluster(),
        options,
    }
}

/// One step of a stress schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StressOp {
    /// Request hot-set entry `i` (a repeat after warmup should hit).
    Hot(usize),
    /// Request one-off flood entry `i` (never repeated).
    OneOff(usize),
    /// A chaos step: hot-set entry `i` loses one device
    /// ([`replan_delta`]) and the tenant issues `replan` against the
    /// prior fingerprint, falling back to a cold plan when the daemon
    /// answers `unknown_fingerprint`.
    Replan(usize),
}

/// The single-device loss chaos replays against hot request `i`: one GPU
/// off machine `i % 2`. Both fig17 machines have two GPUs, so the delta
/// is always valid (each machine keeps one) and deterministic per index.
pub fn replan_delta(i: usize) -> ClusterDelta {
    ClusterDelta::device_loss(i % 2, 1)
}

/// A seeded interleaving of `repeats` passes over `hot_n` hot requests
/// with `flood_n` one-offs scattered between them. Only the *order* is
/// seeded; the set of operations is fixed by the counts, so aggregate
/// properties (every hot entry requested `repeats` times, every one-off
/// once) hold for every seed.
pub fn schedule(seed: u64, hot_n: usize, repeats: usize, flood_n: usize) -> Vec<StressOp> {
    let mut ops = Vec::with_capacity(hot_n * repeats + flood_n);
    for r in 0..repeats {
        for h in 0..hot_n {
            // Vary hot order per round so rounds are not lockstep.
            ops.push(StressOp::Hot((h + r) % hot_n));
        }
    }
    for f in 0..flood_n {
        ops.push(StressOp::OneOff(f));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Fisher–Yates (the vendored rand shim has no `SliceRandom`).
    for i in (1..ops.len()).rev() {
        let j = rng.random_range(0..=i);
        ops.swap(i, j);
    }
    ops
}

/// A [`schedule`] with `replans` seeded device-loss chaos steps spliced
/// into its second half: mid-traffic, a random hot tenant loses a device
/// and replans. The second-half placement makes it overwhelmingly likely
/// the prior plan is already in the daemon (the first half contains every
/// hot request at least once for `repeats >= 2`), but the driver falls
/// back to a cold plan on `unknown_fingerprint` either way, so every
/// seed's schedule is valid. Base traffic keeps the exact op multiset of
/// [`schedule`], so hit-rate and shed invariants carry over unchanged.
pub fn chaos_schedule(
    seed: u64,
    hot_n: usize,
    repeats: usize,
    flood_n: usize,
    replans: usize,
) -> Vec<StressOp> {
    let mut ops = schedule(seed, hot_n, repeats, flood_n);
    // A distinct stream from the shuffle's, so adding chaos does not
    // reorder the base traffic relative to `schedule(seed, ...)`.
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    for _ in 0..replans {
        let target = rng.random_range(0..hot_n);
        let at = rng.random_range(ops.len() / 2..=ops.len());
        ops.insert(at, StressOp::Replan(target));
    }
    ops
}

/// True when the hot set `0..hot_n` fits the cache's per-shard budget —
/// i.e. no cache shard would have to hold more hot fingerprints than its
/// budget. Harnesses assert this before asserting retention, so a model
/// change that reshuffles fingerprints fails loudly instead of flakily.
pub fn hot_set_fits(hot_n: usize, cache_capacity: usize) -> bool {
    let cache = PlanCache::new(cache_capacity);
    let mut per_shard = std::collections::HashMap::new();
    for i in 0..hot_n {
        *per_shard.entry(PlanCache::shard_of(hot_request(i).fingerprint())).or_insert(0usize) += 1;
    }
    per_shard.values().all(|&n| n <= cache.shard_budget())
}

/// The bit-level identity of a plan reply: program fingerprint,
/// estimated-time bits, ratio bits. Two replies for the same request must
/// compare equal no matter which path (cold, cache, coalesced, restart)
/// produced them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplyBits {
    /// `DistProgram::fingerprint()` of the returned program.
    pub program_fp: u64,
    /// `estimated_time.to_bits()`.
    pub time_bits: u64,
    /// Per-segment ratio rows, bit-cast.
    pub ratio_bits: Vec<Vec<u64>>,
}

impl ReplyBits {
    /// Extracts the identity from a reply.
    pub fn of(reply: &PlanReply) -> ReplyBits {
        ReplyBits {
            program_fp: reply.program.fingerprint(),
            time_bits: reply.estimated_time.to_bits(),
            ratio_bits: reply
                .ratios
                .iter()
                .map(|row| row.iter().map(|b| b.to_bits()).collect())
                .collect(),
        }
    }
}

/// The outcome of one schedule step.
#[derive(Clone)]
pub struct StepOutcome {
    /// The step that ran.
    pub op: StressOp,
    /// `cache` / `synthesized` / `coalesced`.
    pub source: String,
    /// Bit identity of the returned plan.
    pub bits: ReplyBits,
}

/// Drives a schedule sequentially over one connection (deterministic
/// order), retrying through busy frames, optionally over the chunked
/// streaming transport (the connection-scale soak streams part of its
/// traffic to prove the framing is invisible to every overload
/// invariant). Panics on any non-busy error — stress traffic is all
/// well-formed.
pub fn drive_sequential(
    addr: std::net::SocketAddr,
    ops: &[StressOp],
    retry: &RetryPolicy,
    stream: bool,
) -> Vec<StepOutcome> {
    let mut client = Client::connect(addr).expect("stress client connect");
    client.set_retry(Some(*retry));
    client.set_stream(stream);
    ops.iter()
        .map(|&op| {
            let req = match op {
                StressOp::Hot(i) => hot_request(i),
                StressOp::OneOff(i) => one_off_request(i),
                StressOp::Replan(i) => {
                    let req = hot_request(i);
                    let delta = replan_delta(i);
                    match client.replan(req.fingerprint(), &delta) {
                        Ok(reply) => {
                            return StepOutcome {
                                op,
                                source: reply.plan.source.clone(),
                                bits: ReplyBits::of(&reply.plan),
                            };
                        }
                        // The daemon no longer holds the prior (never
                        // planned, evicted, restarted): cold fallback on
                        // the post-delta cluster, as real tenants would.
                        Err(e) if e.kind == "unknown_fingerprint" => {
                            let cluster = delta.apply(&req.cluster).expect("chaos delta is valid");
                            let reply = client
                                .plan(&req.graph, &cluster, &req.options)
                                .unwrap_or_else(|e| panic!("{} cold fallback: {e}", req.name));
                            return StepOutcome {
                                op,
                                source: reply.source.clone(),
                                bits: ReplyBits::of(&reply),
                            };
                        }
                        Err(e) => panic!("{} replan: {e}", req.name),
                    }
                }
            };
            let reply = client
                .plan(&req.graph, &req.cluster, &req.options)
                .unwrap_or_else(|e| panic!("{}: {e}", req.name));
            StepOutcome { op, source: reply.source.clone(), bits: ReplyBits::of(&reply) }
        })
        .collect()
}

/// Hot-set cache hit rate over a run: the fraction of `Hot` steps
/// answered from the cache.
pub fn hot_hit_rate(outcomes: &[StepOutcome]) -> f64 {
    let hot: Vec<_> = outcomes.iter().filter(|o| matches!(o.op, StressOp::Hot(_))).collect();
    if hot.is_empty() {
        return 0.0;
    }
    hot.iter().filter(|o| o.source == "cache").count() as f64 / hot.len() as f64
}

// ---------------------------------------------------------------------------
// Multi-daemon cluster topology
// ---------------------------------------------------------------------------

/// An in-process `hap-cluster`: N loopback daemons sharing one
/// consistent-hash ring, with kill/rejoin chaos for the cluster soak
/// (`tests/cluster.rs`, CI's `cluster-soak` job).
///
/// The harness plays the operator: it assigns membership epochs, expands
/// the same [`Ring`] the daemons and clients expand, and pushes each new
/// membership record to every live daemon over the `ring` verb. Killing a
/// node removes it from the next epoch; rejoining restarts it (on a fresh
/// port, with its original config — including any cache file) and adds it
/// back. Node indices are stable across kill/rejoin, so tests can follow
/// one daemon through its death and return.
pub struct StressCluster {
    vnodes: u32,
    replication: u32,
    epoch: u64,
    nodes: Vec<ClusterNode>,
}

struct ClusterNode {
    addr: String,
    config: ServiceConfig,
    server: Option<Server>,
    /// Final counters of each earlier incarnation of this node (captured
    /// at kill time), so cluster-wide totals stay monotone across chaos.
    retired: Vec<StatsSnapshot>,
}

impl StressCluster {
    /// Starts `n` daemons on ephemeral loopback ports with `replication`-way
    /// plan replication and installs membership epoch 1 on all of them.
    /// `configure` tweaks each daemon's config (cache files, queue depths)
    /// before it starts.
    pub fn start(
        n: usize,
        replication: u32,
        configure: impl Fn(usize, &mut ServiceConfig),
    ) -> StressCluster {
        assert!(n > 0, "a cluster needs at least one daemon");
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let mut config = ServiceConfig {
                addr: "127.0.0.1:0".into(),
                ring_replication: replication,
                ..ServiceConfig::default()
            };
            configure(i, &mut config);
            let server = Server::start(config.clone()).expect("cluster daemon start");
            nodes.push(ClusterNode {
                addr: server.addr().to_string(),
                config,
                server: Some(server),
                retired: Vec::new(),
            });
        }
        let vnodes = nodes[0].config.ring_vnodes;
        let mut cluster = StressCluster { vnodes, replication, epoch: 0, nodes };
        cluster.push_ring();
        cluster
    }

    /// Live member addresses in node-index order — [`ClusterClient`] seeds.
    pub fn addrs(&self) -> Vec<String> {
        self.nodes.iter().filter(|n| n.server.is_some()).map(|n| n.addr.clone()).collect()
    }

    /// Node `i`'s current address (changes when it rejoins).
    pub fn addr(&self, i: usize) -> &str {
        &self.nodes[i].addr
    }

    /// The membership epoch the harness last installed.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The current ring, expanded exactly as the daemons and clients
    /// expand it.
    pub fn ring(&self) -> Ring {
        Ring::build(RingInfo {
            epoch: self.epoch,
            vnodes: self.vnodes,
            replication: self.replication,
            members: self.addrs(),
        })
    }

    /// The node index of `fp`'s primary owner on the current ring.
    pub fn primary_index(&self, fp: u64) -> usize {
        let ring = self.ring();
        let primary = ring.primary(fp).expect("cluster has live members").to_string();
        self.nodes.iter().position(|n| n.addr == primary).expect("primary is a cluster node")
    }

    /// True when node `i` is live and among `fp`'s ring owners.
    pub fn is_owner(&self, i: usize, fp: u64) -> bool {
        self.nodes[i].server.is_some() && self.ring().is_owner(fp, &self.nodes[i].addr)
    }

    /// Direct access to a live daemon's in-process service (stats).
    pub fn service(&self, i: usize) -> &PlanService {
        self.nodes[i].server.as_ref().expect("node is live").service()
    }

    /// One counter summed across every daemon that ever ran: the live
    /// ones now plus the final snapshot of every killed incarnation.
    /// Monotone across kill/rejoin chaos.
    pub fn total(&self, field: impl Fn(&StatsSnapshot) -> u64) -> u64 {
        self.nodes
            .iter()
            .flat_map(|n| {
                n.retired.iter().cloned().chain(n.server.as_ref().map(|s| s.service().stats()))
            })
            .map(|stats| field(&stats))
            .sum()
    }

    /// Kills node `i` (full daemon shutdown) and installs the shrunk
    /// membership on the survivors.
    pub fn kill(&mut self, i: usize) {
        let mut server = self.nodes[i].server.take().expect("node already dead");
        let last_words = server.service().stats();
        server.shutdown();
        self.nodes[i].retired.push(last_words);
        self.push_ring();
    }

    /// Restarts a killed node `i` on a fresh port with its original config
    /// (same cache file, if any) and installs the grown membership on
    /// every live daemon, the rejoiner included.
    pub fn rejoin(&mut self, i: usize) {
        assert!(self.nodes[i].server.is_none(), "node {i} is still alive");
        let mut config = self.nodes[i].config.clone();
        config.addr = "127.0.0.1:0".into();
        let server = Server::start(config).expect("cluster daemon rejoin");
        self.nodes[i].addr = server.addr().to_string();
        self.nodes[i].server = Some(server);
        self.push_ring();
    }

    /// Shuts every live daemon down. Also runs on drop.
    pub fn shutdown(&mut self) {
        for node in &mut self.nodes {
            if let Some(mut server) = node.server.take() {
                server.shutdown();
            }
        }
    }

    /// Installs the next membership epoch on every live daemon.
    fn push_ring(&mut self) {
        self.epoch += 1;
        let info = RingInfo {
            epoch: self.epoch,
            vnodes: self.vnodes,
            replication: self.replication,
            members: self.addrs(),
        };
        for node in self.nodes.iter().filter(|n| n.server.is_some()) {
            let mut client = Client::connect(&*node.addr).expect("ring install connect");
            let installed = client.install_ring(&info, &node.addr).expect("ring install");
            assert!(installed, "daemon {} rejected membership epoch {}", node.addr, info.epoch);
        }
    }
}

impl Drop for StressCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Drives a schedule sequentially through one ring-aware [`ClusterClient`]
/// (deterministic order), retrying through busy frames and falling back to
/// a cold plan when a replan's prior is unknown cluster-wide. Panics on
/// any other error — stress traffic is all well-formed.
pub fn drive_cluster(seeds: &[String], ops: &[StressOp], retry: &RetryPolicy) -> Vec<StepOutcome> {
    let mut client = ClusterClient::connect(seeds).expect("cluster client connect");
    ops.iter().map(|&op| cluster_step(&mut client, op, retry)).collect()
}

fn cluster_step(client: &mut ClusterClient, op: StressOp, retry: &RetryPolicy) -> StepOutcome {
    for attempt in 0..retry.max_attempts.max(1) {
        let result = match op {
            StressOp::Hot(i) => {
                let req = hot_request(i);
                client.plan(&req.graph, &req.cluster, &req.options)
            }
            StressOp::OneOff(i) => {
                let req = one_off_request(i);
                client.plan(&req.graph, &req.cluster, &req.options)
            }
            StressOp::Replan(i) => {
                let req = hot_request(i);
                let delta = replan_delta(i);
                match client.replan(req.fingerprint(), &delta) {
                    Ok(reply) => Ok(reply.plan),
                    // No daemon holds the prior: cold fallback on the
                    // post-delta cluster, as with a single daemon.
                    Err(e) if e.kind == "unknown_fingerprint" => {
                        let cluster = delta.apply(&req.cluster).expect("chaos delta is valid");
                        client.plan(&req.graph, &cluster, &req.options)
                    }
                    Err(e) => Err(e),
                }
            }
        };
        match result {
            Ok(reply) => {
                return StepOutcome {
                    op,
                    source: reply.source.clone(),
                    bits: ReplyBits::of(&reply),
                }
            }
            Err(e) if e.is_busy() && attempt + 1 < retry.max_attempts => {
                std::thread::sleep(std::time::Duration::from_millis(
                    retry.delay_ms(attempt, e.retry_after_ms),
                ));
            }
            Err(e) => panic!("cluster {op:?}: {e}"),
        }
    }
    unreachable!("the loop returns or panics within max_attempts")
}

/// The canonical request line for a stress request (the service-level
/// entry benches and in-process tests feed to `handle_line`).
pub fn request_line(req: &StressRequest, id: u64) -> String {
    hap_codec::Value::obj(vec![
        ("op", hap_codec::Value::Str("plan".into())),
        ("id", hap_codec::Value::int(id)),
        ("graph", req.graph.encode()),
        ("cluster", req.cluster.encode()),
        ("options", req.options.encode()),
    ])
    .render()
}
