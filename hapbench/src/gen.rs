//! Request generation. Request *content* is a pure function of the request
//! index; `--seed` only reorders requests and draws arrival times, so the
//! same seed gives byte-identical request lines and different seeds give
//! the same request set in a different order.

use hap::HapOptions;
use hap_cluster::{ClusterDelta, ClusterSpec, Granularity};
use hap_codec::{render_fingerprint, request_fingerprint_values, Encode, Value};
use hap_graph::{Graph, GraphBuilder};
use hap_models::{
    bert_base, bert_moe, mlp, vgg19, vit, Benchmark, BertConfig, MlpConfig, MoeConfig, VggConfig,
    VitConfig,
};
use hap_synthesis::SynthConfig;

/// One planning request with its canonical encodings and fingerprint.
pub struct PlanRequest {
    pub label: String,
    pub graph: Graph,
    pub cluster: ClusterSpec,
    pub options: HapOptions,
    /// Canonical `graph`, `cluster` and `options` documents.
    pub values: [Value; 3],
    /// The daemon's cache key for this request.
    pub fingerprint: u64,
}

impl PlanRequest {
    pub fn new(label: String, graph: Graph, cluster: ClusterSpec, options: HapOptions) -> Self {
        let values = [graph.encode(), cluster.encode(), options.encode()];
        let fingerprint = request_fingerprint_values(&values[0], &values[1], &values[2]);
        PlanRequest { label, graph, cluster, options, values, fingerprint }
    }

    /// The `plan` request line (no trailing newline).
    pub fn line(&self, id: u64) -> String {
        let [graph, cluster, options] = &self.values;
        Value::obj(vec![
            ("op", Value::Str("plan".into())),
            ("id", Value::int(id)),
            ("graph", graph.clone()),
            ("cluster", cluster.clone()),
            ("options", options.clone()),
        ])
        .render()
    }

    /// The request a `replan` with `delta` rebases this one onto.
    pub fn rebased(&self, delta: &ClusterDelta) -> PlanRequest {
        let cluster = delta.apply(&self.cluster).expect("benchmark deltas are valid");
        PlanRequest::new(
            format!("{}+delta", self.label),
            self.graph.clone(),
            cluster,
            self.options.clone(),
        )
    }
}

/// A `replan` request line (no trailing newline).
pub fn replan_line(id: u64, prior: u64, delta: &ClusterDelta) -> String {
    Value::obj(vec![
        ("op", Value::Str("replan".into())),
        ("id", Value::int(id)),
        ("prior", Value::Str(render_fingerprint(prior))),
        ("delta", delta.encode()),
    ])
    .render()
}

/// A verb without arguments (`stats`, `metrics`, `shutdown`).
pub fn verb_line(op: &str, id: u64) -> String {
    Value::obj(vec![("op", Value::Str(op.into())), ("id", Value::int(id))]).render()
}

/// Deterministic searched options: the 600 s deadline never binds, so the
/// search stops on `stall_expansions` alone and serves the same plan on
/// every run and machine.
pub fn searched(granularity: Granularity) -> HapOptions {
    HapOptions {
        granularity,
        max_rounds: 3,
        synth: SynthConfig {
            time_budget_secs: 600.0,
            stall_expansions: 2_000,
            ..SynthConfig::default()
        },
        ..HapOptions::default()
    }
}

/// Greedy options: a zero A\* budget returns the greedy incumbent.
pub fn greedy(granularity: Granularity) -> HapOptions {
    let mut options = searched(granularity);
    options.synth.time_budget_secs = 0.0;
    options
}

/// A paper-shaped benchmark model at depth 2 with a weak-scaled batch for
/// `gpus` devices (the shapes of the figure harness, half its depth).
pub fn paper_model(b: Benchmark, gpus: usize) -> Graph {
    let batch = b.per_device_batch() * gpus;
    let bert = BertConfig { batch, layers: 2, ..BertConfig::paper() };
    match b {
        Benchmark::Vgg19 => vgg19(&VggConfig { batch, image: 64, ..VggConfig::paper() }),
        Benchmark::Vit => vit(&VitConfig { batch, layers: 2, ..VitConfig::paper() }),
        Benchmark::BertBase => bert_base(&bert),
        Benchmark::BertMoe => {
            bert_moe(&MoeConfig { bert, experts: gpus.max(2), expert_hidden: 3900, moe_every: 1 })
        }
    }
}

/// The clusters paper-shaped requests target, with the granularity each is
/// planned at.
fn paper_clusters() -> [(&'static str, ClusterSpec, Granularity); 5] {
    [
        ("fig17", ClusterSpec::fig17_cluster(), Granularity::PerGpu),
        ("het1", ClusterSpec::paper_heterogeneous(1), Granularity::PerMachine),
        ("het2", ClusterSpec::paper_heterogeneous(2), Granularity::PerMachine),
        ("het4", ClusterSpec::paper_heterogeneous(4), Granularity::PerMachine),
        ("hom2", ClusterSpec::paper_homogeneous(2), Granularity::PerMachine),
    ]
}

fn paper_request(
    b: Benchmark,
    cluster: usize,
    scale: usize,
    options: fn(Granularity) -> HapOptions,
) -> PlanRequest {
    let (name, spec, granularity) = paper_clusters()[cluster].clone();
    let graph = paper_model(b, spec.total_gpus() * scale);
    PlanRequest::new(format!("{}/{name}/x{scale}", b.name()), graph, spec, options(granularity))
}

/// `cold_mix`: 4 paper models x 5 clusters x 2 batch scales, searched.
pub fn cold_mix() -> Vec<PlanRequest> {
    let mut out = Vec::with_capacity(40);
    for b in Benchmark::all() {
        for cluster in 0..5 {
            for scale in [1, 2] {
                out.push(paper_request(b, cluster, scale, searched));
            }
        }
    }
    out
}

/// A greedy paper-shaped hot set: `hot_hits` uses 16 entries (4 models x
/// 4 heterogeneous clusters), `ring_hits` 24 (plus two more batch scales).
/// No two entries share a graph, so no entry is warm-started from another
/// and the served plans do not depend on the order the set is planned in.
pub fn paper_hot_set(n: usize) -> Vec<PlanRequest> {
    let mut keys = Vec::new();
    for (cluster, scale) in [(0, 1), (1, 1), (2, 1), (3, 1), (3, 2), (0, 3)] {
        for b in Benchmark::all() {
            keys.push((b, cluster, scale));
        }
    }
    assert!(n <= keys.len(), "hot set larger than its key space");
    keys.into_iter().take(n).map(|(b, c, s)| paper_request(b, c, s, greedy)).collect()
}

/// `tenant_churn` hot entry `i`: a small MLP on the fig17 cluster, searched
/// with the deterministic budget and at most 512 A\* expansions, so its
/// synthesis — and a replan of it — stays cheap. A\* runs on one thread
/// (`threads: 1`; the plan is the same for every thread count): the daemon's
/// event loop and the two tenants need the other core, and a search that
/// spreads over both slowed by up to 31 % when something else took a core,
/// against 6 % for a search on one.
pub fn tenant_hot(i: usize) -> PlanRequest {
    let graph = mlp(&MlpConfig {
        batch: 256,
        input: 24 + 8 * i,
        hidden: vec![48 + 16 * (i % 3), 64],
        classes: 10,
    });
    let mut options = searched(Granularity::PerGpu);
    options.synth.max_expansions = 512;
    options.synth.threads = 1;
    PlanRequest::new(format!("mlp-{i}"), graph, ClusterSpec::fig17_cluster(), options)
}

/// `tenant_churn` one-off `i`: a deep element-wise chain planned greedily.
/// Cheap to synthesize, bulky to cache, and never repeated (the batch
/// extent carries the index).
pub fn one_off(i: usize) -> PlanRequest {
    let mut g = GraphBuilder::new();
    let mut cur = g.placeholder("x", vec![64 + i, 8 + i % 5]);
    for layer in 0..48 + (i % 7) * 4 {
        cur = match layer % 3 {
            0 => g.relu(cur),
            1 => g.layer_norm(cur),
            _ => g.add(cur, cur),
        };
    }
    g.sum_all(cur);
    PlanRequest::new(
        format!("chain-{i}"),
        g.build_forward(),
        ClusterSpec::fig17_cluster(),
        greedy(Granularity::PerGpu),
    )
}

/// The `d`-th cluster change `tenant_churn` replans draw from: a
/// re-measured inter-machine bandwidth, alone or with one GPU lost from
/// either fig17 machine. Distinct for every `d` below 300, so a tenant's
/// stream of deltas keeps meeting first occurrences.
pub fn replan_delta(d: usize) -> ClusterDelta {
    let base = ClusterSpec::fig17_cluster().inter_bandwidth;
    let inter_bandwidth = Some(base * (0.5 + 0.01 * ((d / 3) % 100) as f64));
    match d % 3 {
        0 => ClusterDelta { inter_bandwidth, ..ClusterDelta::default() },
        m => ClusterDelta { inter_bandwidth, ..ClusterDelta::device_loss(m - 1, 1) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn cold_mix_fingerprints_are_distinct() {
        let reqs = cold_mix();
        assert_eq!(reqs.len(), 40);
        let fps: HashSet<u64> = reqs.iter().map(|r| r.fingerprint).collect();
        assert_eq!(fps.len(), 40, "every cold_mix request must miss the cache");
    }

    #[test]
    fn hot_sets_and_deltas_are_distinct_and_valid() {
        let hot = paper_hot_set(24);
        let fps: HashSet<u64> = hot.iter().map(|r| r.fingerprint).collect();
        assert_eq!(fps.len(), 24);
        let graphs: HashSet<u64> =
            hot.iter().map(|r| hap_codec::value_fingerprint(&r.values[0])).collect();
        assert_eq!(graphs.len(), 24, "hot-set entries must not share graphs");
        let tenant = tenant_hot(3);
        let rebased: HashSet<u64> =
            (0..300).map(|d| tenant.rebased(&replan_delta(d)).fingerprint).collect();
        assert_eq!(rebased.len(), 300);
        let chains: HashSet<u64> = (0..50).map(|i| one_off(i).fingerprint).collect();
        assert_eq!(chains.len(), 50);
    }
}
