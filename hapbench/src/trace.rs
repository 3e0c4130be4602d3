//! The traced run: per-layer numbers for every layer on the request path.
//!
//! Each layer is probed on the workload whose end-to-end numbers it should
//! move: the daemon's own `trace` spans and `stats` counters on short
//! socket runs of `hot_hits`, `tenant_churn`, `ring_hits` and `cold_mix`,
//! and clock reads around calls into each layer's public functions,
//! replayed in process on the same generated inputs. Nothing here runs in
//! an end-to-end run, so the difference between a traced run's own
//! end-to-end numbers and an untraced run's is the tracing overhead.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hap::HapOptions;
use hap_cluster::ClusterSpec;
use hap_codec::{parse, request_fingerprint_values, value_fingerprint, Decode, Encode, Value};
use hap_graph::Graph;
use hap_service::{
    cluster_features, decode_trace, CachedPlan, FsyncPolicy, Outcome, PersistLog, PlanCache,
    RequestTrace, Ring, SpanKind, StatsSnapshot,
};
use hap_simulator::memory_footprint;
use hap_synthesis::SynthProfile;

use crate::check::{simulated_time, Checker, ServedPlan};
use crate::daemon::{Conn, ScratchDir};
use crate::gen::{self, PlanRequest};
use crate::load::{closed_loop, execute, Class, Sample, Tally};
use crate::shadow::{parallelize_timed, StageTimes};
use crate::stats::{median, median_or_zero, percentile, sorted};
use crate::workloads::{
    arcs, cold_order, connect, hot_phases, picks, plan_ops, prefill, spawn, stats, tail_pct,
    tenant_flags, tenants, Config, Metric, RingCluster, Tenancy, TENANT_HOT_SET,
};

/// Repetitions of each in-process call; the per-layer number is the
/// median over all of them.
const REPS: usize = 20;

/// A traced run's results.
pub struct TraceReport {
    pub metrics: Vec<Metric>,
    /// `(workload, p50_ms, tail_ms, throughput_rps)` of the traced socket
    /// runs, to print beside the untraced numbers.
    pub end_to_end: Vec<(&'static str, f64, f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

struct Probe<'a> {
    cfg: &'a Config,
    metrics: Vec<Metric>,
    end_to_end: Vec<(&'static str, f64, f64, f64)>,
    tally: Tally,
}

impl Probe<'_> {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a traced socket run's own end-to-end numbers.
    fn traced_end_to_end(&mut self, workload: &'static str, latencies: &[f64], throughput: f64) {
        let lat = sorted(latencies);
        if lat.is_empty() {
            return;
        }
        let ms = |p: f64| percentile(&lat, p) * 1e3;
        self.end_to_end.push((workload, ms(0.5), ms(tail_pct(workload)), throughput));
    }

    /// [`Probe::traced_end_to_end`] of a closed loop that ran `span` seconds.
    fn closed_end_to_end(&mut self, workload: &'static str, tally: &Tally, span: f64) {
        self.traced_end_to_end(
            workload,
            &tally.latencies(|_| true),
            tally.samples.len() as f64 / span,
        );
    }
}

pub fn run(cfg: &Config) -> Result<TraceReport, String> {
    let mut probe =
        Probe { cfg, metrics: Vec::new(), end_to_end: Vec::new(), tally: Tally::default() };
    hot_path(&mut probe)?;
    churn(&mut probe)?;
    ring(&mut probe)?;
    planner(&mut probe)?;
    let Probe { metrics, end_to_end, tally, .. } = probe;
    Ok(TraceReport {
        metrics,
        end_to_end,
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
    })
}

/// Median wall time of `f` over `REPS` calls on each input, in seconds.
fn time_each<T>(inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    let mut samples = Vec::with_capacity(inputs.len() * REPS);
    for input in inputs {
        for _ in 0..REPS {
            let start = Instant::now();
            f(input);
            samples.push(start.elapsed().as_secs_f64());
        }
    }
    median(&samples)
}

/// The daemon's most recent completed request traces (its whole ring).
fn recent_traces(conn: &mut Conn) -> Result<Vec<RequestTrace>, String> {
    let line = Value::obj(vec![
        ("op", Value::Str("trace".into())),
        ("id", Value::int(0)),
        ("n", Value::int(256)),
    ])
    .render();
    let reply = conn.call(line.as_bytes()).map_err(|e| format!("trace request: {e}"))?;
    let v = parse(&String::from_utf8_lossy(&reply)).map_err(|e| format!("trace response: {e}"))?;
    let traces = v.field("traces").and_then(Value::as_arr).map_err(|e| e.to_string())?;
    traces.iter().map(|t| decode_trace(t).map_err(|e| e.to_string())).collect()
}

/// Median duration of the `kind` spans in traces with one of `outcomes`.
fn span_median(traces: &[RequestTrace], outcomes: &[Outcome], kind: SpanKind) -> f64 {
    let durations: Vec<f64> = traces
        .iter()
        .filter(|t| outcomes.contains(&t.outcome))
        .flat_map(|t| t.spans.iter().filter(|s| s.kind == kind))
        .map(|s| s.duration_nanos() as f64 / 1e9)
        .collect();
    median_or_zero(&durations)
}

/// The plan as the daemon caches it, with the client-observed latency of
/// its first answer standing in for the synthesis time.
fn cached(req: &PlanRequest, plan: &ServedPlan, nanos: u64) -> CachedPlan {
    let mut entry = CachedPlan {
        program: plan.program.clone(),
        ratios: plan.ratios.clone(),
        estimated_time: plan.estimated_time,
        rounds: plan.rounds,
        graph_fp: value_fingerprint(&req.values[0]),
        opts_fp: value_fingerprint(&req.values[2]),
        features: cluster_features(&req.cluster, req.options.granularity),
        synthesis_nanos: nanos,
        size_bytes: 0,
        ttl_nanos: None,
    };
    entry.size_bytes = entry.measure_size();
    entry
}

/// The response frame the daemon renders for a hit.
fn response_frame(id: u64, fp: u64, plan: &ServedPlan) -> Value {
    Value::obj(vec![
        ("id", Value::int(id)),
        ("ok", Value::Bool(true)),
        ("fingerprint", Value::Str(hap_codec::render_fingerprint(fp))),
        ("source", Value::Str("cache".into())),
        (
            "plan",
            Value::obj(vec![
                ("rounds", plan.rounds.encode()),
                ("estimated_time", Value::Num(plan.estimated_time)),
                ("ratios", plan.ratios.encode()),
                ("program", plan.program.encode()),
            ]),
        ),
    ])
}

// ---------------------------------------------------------------------------
// net, codec, service, cache.get — on hot_hits
// ---------------------------------------------------------------------------

fn hot_path(p: &mut Probe) -> Result<(), String> {
    let reqs = arcs(gen::paper_hot_set(16));
    let ops = plan_ops(&reqs, Class::Hot);
    let checker = Mutex::new(Checker::default());
    let daemon = spawn(p.cfg, &[])?;
    let mut conns = vec![connect(&daemon)?, connect(&daemon)?];
    p.tally.merge(prefill(&mut conns, &ops, &checker));
    let phases = hot_phases(&mut conns, &ops, &checker, p.cfg.seed, 0, p.cfg.seconds / 4.0);
    let throughput = phases.closed_latencies.len() as f64 / phases.closed_span;
    p.traced_end_to_end("hot_hits", &phases.open_latencies, throughput);
    let conn = &mut conns[0];
    let traces = recent_traces(conn)?;
    let us = |kind| span_median(&traces, &[Outcome::Hit], kind) * 1e6;
    p.put("net.frame_us", us(SpanKind::Frame), "us");
    p.put("net.flush_us", us(SpanKind::Flush), "us");
    p.put("service.decode_us", us(SpanKind::Decode), "us");
    p.put("service.cache_lookup_us", us(SpanKind::CacheLookup), "us");
    p.put("service.encode_us", us(SpanKind::Encode), "us");
    drop(conns);
    daemon.shutdown().map_err(|e| format!("stopping hap-serve: {e}"))?;
    let tally = phases.tally;
    let bytes = |f: fn(&Sample) -> usize| {
        median_or_zero(&tally.samples.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    p.put("net.request_bytes", bytes(|s| s.request_bytes), "bytes");
    p.put("net.response_bytes", bytes(|s| s.response_bytes), "bytes");
    // The back-to-back hit time: the open loop's waits are not socket work.
    let socket_p50 = median_or_zero(&phases.closed_latencies);
    p.tally.merge(tally);

    // The same hit path in process: parse, fingerprint, cache get, render.
    let checker = checker.into_inner().expect("checker lock");
    let lines: Vec<String> =
        ops.iter().map(|op| String::from_utf8_lossy(&op.line).into_owned()).collect();
    let parsed: Vec<Value> = lines.iter().map(|l| parse(l).expect("request lines parse")).collect();
    let parse_s = time_each(&lines, |l| {
        black_box(parse(l).expect("request lines parse"));
    });
    let fingerprint_s = time_each(&parsed, |v| {
        let field = |k| v.get(k).expect("plan requests carry the triple");
        black_box(request_fingerprint_values(field("graph"), field("cluster"), field("options")));
    });
    let cache = PlanCache::new(1024);
    let mut frames = Vec::new();
    for (op, req) in ops.iter().zip(&reqs) {
        let plan = checker.plan(req.fingerprint).ok_or("a hot plan was never served")?;
        cache.insert(req.fingerprint, Arc::new(cached(req, plan, 1)));
        frames.push(response_frame(op.id, req.fingerprint, plan));
    }
    let fps: Vec<u64> = reqs.iter().map(|r| r.fingerprint).collect();
    let get_s = time_each(&fps, |fp| {
        black_box(cache.get(*fp));
    });
    let render_s = time_each(&frames, |f| {
        black_box(f.render());
    });
    p.put("codec.parse_us", parse_s * 1e6, "us");
    p.put("codec.fingerprint_us", fingerprint_s * 1e6, "us");
    p.put("codec.render_us", render_s * 1e6, "us");
    p.put("cache.get_us", get_s * 1e6, "us");
    p.put("net.overhead_us", (socket_p50 - parse_s - fingerprint_s - get_s - render_s) * 1e6, "us");
    Ok(())
}

// ---------------------------------------------------------------------------
// cache writes, persist, dispatch, replan, codec decode — on tenant_churn
// ---------------------------------------------------------------------------

fn delta(after: &StatsSnapshot, before: &StatsSnapshot, f: fn(&StatsSnapshot) -> u64) -> f64 {
    f(after).saturating_sub(f(before)) as f64
}

fn churn(p: &mut Probe) -> Result<(), String> {
    let cfg = p.cfg;
    let hot = arcs((0..TENANT_HOT_SET).map(gen::tenant_hot).collect());
    let hot_ops = plan_ops(&hot, Class::Hot);
    let dir = ScratchDir::new(&cfg.work_dir, "trace-tenant").map_err(|e| e.to_string())?;
    let flags = tenant_flags(&dir.0);
    let checker = Mutex::new(Checker::default());
    let daemon = spawn(cfg, &flags)?;
    let mut conns = vec![connect(&daemon)?, connect(&daemon)?];
    p.tally.merge(prefill(&mut conns, &hot_ops, &checker));
    let before = stats(&mut conns[0])?;
    let Tenancy { tally, span, sent } =
        tenants(&mut conns, &hot, &checker, cfg.seed, 0, cfg.seconds / 4.0);
    p.closed_end_to_end("tenant_churn", &tally, span);
    let after = stats(&mut conns[0])?;
    let hits = delta(&after, &before, |s| s.hits);
    let misses = delta(&after, &before, |s| s.misses);
    p.put("cache.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    p.put("cache.evictions", delta(&after, &before, |s| s.evictions), "count");
    p.put("cache.admission_rejected", delta(&after, &before, |s| s.admission_rejected), "count");
    p.put("cache.entries", after.entries as f64, "count");
    p.put("dispatch.coalesced", delta(&after, &before, |s| s.coalesced), "count");
    p.put("dispatch.shed", delta(&after, &before, |s| s.shed), "count");
    p.put("dispatch.synthesized", delta(&after, &before, |s| s.synthesized), "count");
    p.put("replan.warm_seeded", delta(&after, &before, |s| s.warm_seeded), "count");
    let traces = recent_traces(&mut conns[0])?;
    let ms = |kind| span_median(&traces, &[Outcome::Miss, Outcome::Replan], kind) * 1e3;
    p.put("dispatch.queue_wait_ms", ms(SpanKind::QueueWait), "ms");
    p.put("dispatch.synthesis_ms", ms(SpanKind::Synthesis), "ms");
    let replan_hits = tally.latencies(|s| s.class == Class::Replan && s.source == "cache");
    let replan_misses = tally.latencies(|s| s.class == Class::Replan && s.source != "cache");
    p.put("replan.hit_p50_us", median_or_zero(&replan_hits) * 1e6, "us");
    p.put("replan.miss_p50_ms", median_or_zero(&replan_misses) * 1e3, "ms");
    drop(conns);
    daemon.shutdown().map_err(|e| format!("stopping hap-serve: {e}"))?;

    // Boot on the log the run left behind, timed to the first stats reply.
    let log = dir.0.join("plans.jsonl");
    let log_bytes = std::fs::metadata(&log).map_err(|e| format!("reading the log: {e}"))?.len();
    let booting = Instant::now();
    let daemon = spawn(cfg, &flags)?;
    stats(&mut connect(&daemon)?)?;
    p.put("persist.boot_ms", booting.elapsed().as_secs_f64() * 1e3, "ms");
    p.put("persist.log_bytes", log_bytes as f64, "bytes");
    daemon.shutdown().map_err(|e| format!("stopping hap-serve: {e}"))?;

    // The same writes in process: each distinct plan the daemon served, in
    // the order the tenants first asked for it.
    let checker = checker.into_inner().expect("checker lock");
    let first_latency: HashMap<u64, f64> =
        tally.samples.iter().rev().map(|s| (s.fingerprint, s.latency)).collect();
    let mut seen = HashSet::new();
    let mut entries = Vec::new();
    let mut requests = Vec::new();
    for op in sent.iter().filter(|op| seen.insert(op.answers().fingerprint)) {
        let req = op.answers();
        if let Some(plan) = checker.plan(req.fingerprint) {
            let nanos = (first_latency.get(&req.fingerprint).copied().unwrap_or(0.0) * 1e9) as u64;
            entries.push((req.fingerprint, Arc::new(cached(req, plan, nanos))));
            requests.push(req.values.clone());
        }
    }
    p.put(
        "codec.decode_us",
        time_each(&requests, |[g, c, o]| {
            black_box(Graph::decode(g).expect("graphs decode"));
            black_box(ClusterSpec::decode(c).expect("clusters decode"));
            black_box(HapOptions::decode(o).expect("options decode"));
        }) * 1e6,
        "us",
    );
    let cache = PlanCache::new(64);
    let mut inserts = Vec::with_capacity(entries.len());
    for (fp, plan) in &entries {
        let start = Instant::now();
        black_box(cache.insert(*fp, plan.clone()));
        inserts.push(start.elapsed().as_secs_f64());
    }
    p.put("cache.insert_us", median_or_zero(&inserts) * 1e6, "us");
    let wal = ScratchDir::new(&cfg.work_dir, "trace-wal").map_err(|e| e.to_string())?;
    let cache = PlanCache::new(64);
    let log = PersistLog::start(&cache, wal.0.join("plans.jsonl"), FsyncPolicy::default());
    let mut appends = Vec::with_capacity(entries.len());
    for (fp, plan) in &entries {
        let start = Instant::now();
        black_box(log.append(&cache, *fp, plan));
        appends.push(start.elapsed().as_secs_f64());
    }
    log.sync();
    p.put("persist.append_us", median_or_zero(&appends) * 1e6, "us");
    p.tally.merge(tally);
    Ok(())
}

// ---------------------------------------------------------------------------
// ring — on ring_hits
// ---------------------------------------------------------------------------

fn ring(p: &mut Probe) -> Result<(), String> {
    let reqs = arcs(gen::paper_hot_set(24));
    let ops = plan_ops(&reqs, Class::Hot);
    let checker = Mutex::new(Checker::default());
    let cluster = RingCluster::start(p.cfg)?;
    let mut conns = vec![connect(&cluster.daemons[0])?, connect(&cluster.daemons[0])?];
    p.tally.merge(prefill(&mut conns, &ops, &checker));
    let conn = &mut conns[0];
    let mut next = picks(p.cfg.seed, 60, ops.len());
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(p.cfg.seconds / 8.0);
    let tally = closed_loop(conn, || &ops[next()], until, &checker);
    let span = t0.elapsed().as_secs_f64();
    p.closed_end_to_end("ring_hits", &tally, span);
    let mut replicated = 0;
    for daemon in &cluster.daemons {
        replicated += stats(&mut connect(daemon)?)?.replicated_out;
    }
    let table = Ring::build(cluster.info.clone());
    let proxied = tally.latencies(|s| cluster.proxied(&table, s.fingerprint));
    let local = tally.latencies(|s| !cluster.proxied(&table, s.fingerprint));
    p.put("ring.proxied_share", proxied.len() as f64 / tally.samples.len().max(1) as f64, "ratio");
    p.put("ring.local_p50_us", median_or_zero(&local) * 1e6, "us");
    p.put("ring.proxied_p50_us", median_or_zero(&proxied) * 1e6, "us");
    p.put("ring.replicated_out", replicated as f64, "count");
    drop(conns);
    cluster.shutdown()?;
    p.tally.merge(tally);
    Ok(())
}

// ---------------------------------------------------------------------------
// core, synthesis, balancer, collectives, simulator — on cold_mix
// ---------------------------------------------------------------------------

/// The `cold_mix` requests the planner probe replays: every model on the
/// smallest per-GPU cluster and on the 16-GPU heterogeneous one.
fn planner_subset() -> Vec<PlanRequest> {
    gen::cold_mix()
        .into_iter()
        .filter(|r| r.label.ends_with("/fig17/x1") || r.label.ends_with("/het2/x1"))
        .collect()
}

/// Checks that the shadow's plan is the one the daemon served: the same
/// program fingerprint, ratio bits and estimated-time bits.
fn same_plan(served: Option<&ServedPlan>, shadow: &ServedPlan) -> Result<(), String> {
    let served = served.ok_or("the daemon served no plan to compare with")?;
    let bits = |p: &ServedPlan| {
        let ratios: Vec<u64> = p.ratios.iter().flatten().map(|x| x.to_bits()).collect();
        (p.program.fingerprint(), ratios, p.estimated_time.to_bits())
    };
    if bits(served) != bits(shadow) {
        return Err(format!(
            "plan differs from the daemon's (estimated_time {} served, {} replayed)",
            served.estimated_time, shadow.estimated_time
        ));
    }
    Ok(())
}

/// One planning call of the planner probe.
struct PlannerRun {
    times: StageTimes,
    profile: SynthProfile,
    /// The served plan's round over the rounds run.
    useful_round_share: f64,
    /// Estimated over simulated iteration time (Fig. 18).
    est_over_sim: f64,
    /// One `memory_footprint` call on the final plan.
    memory_s: f64,
}

fn planner(p: &mut Probe) -> Result<(), String> {
    let reqs = arcs(planner_subset());
    let order = cold_order(p.cfg.seed, 0, &reqs);

    // The daemon's view: the same requests over a socket on a fresh daemon.
    let ops = plan_ops(&reqs, Class::Cold);
    let checker = Mutex::new(Checker::default());
    let daemon = spawn(p.cfg, &[])?;
    let mut conn = connect(&daemon)?;
    let mut tally = Tally::default();
    let t0 = Instant::now();
    for &i in &order {
        execute(&mut conn, &ops[i], &checker, &mut tally);
    }
    p.closed_end_to_end("cold_mix", &tally, t0.elapsed().as_secs_f64());
    drop(conn);
    daemon.shutdown().map_err(|e| format!("stopping hap-serve: {e}"))?;
    p.tally.merge(tally);
    let checker = checker.into_inner().expect("checker lock");

    // The Q/B loop stage by stage, in process. The daemon synthesized the
    // first request of each graph cold, as the shadow does, so the shadow
    // must reproduce that plan bit for bit: otherwise it no longer times
    // the loop the daemon runs, and the traced run fails. Later requests
    // of a graph were warm-started from its cached plan and may differ.
    let mut graphs = HashSet::new();
    let mut runs = Vec::new();
    for &i in &order {
        let req = &reqs[i];
        let (plan, profile, times) =
            parallelize_timed(&req.graph, &req.cluster, &req.options, None)
                .map_err(|e| format!("{}: {e}", req.label))?;
        let shadow = ServedPlan {
            program: plan.program.clone(),
            ratios: plan.ratios.clone(),
            estimated_time: plan.estimated_time,
            rounds: plan.rounds,
        };
        if graphs.insert(value_fingerprint(&req.values[0])) {
            p.tally.attempted += 1;
            if let Err(e) = same_plan(checker.plan(req.fingerprint), &shadow) {
                p.tally.fail(format!("{}: shadow loop: {e}", req.label));
            }
        }
        let start = Instant::now();
        for _ in 0..REPS {
            black_box(memory_footprint(&plan.graph, &plan.program, &plan.devices, &plan.ratios));
        }
        runs.push(PlannerRun {
            useful_round_share: plan.rounds as f64 / times.astar.len() as f64,
            est_over_sim: plan.estimated_time / simulated_time(req, &shadow),
            memory_s: start.elapsed().as_secs_f64() / REPS as f64,
            times,
            profile,
        });
    }
    let med = |f: fn(&PlannerRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let sum = |f: fn(&PlannerRun) -> f64| runs.iter().map(f).sum::<f64>();
    let rounds = sum(|r| r.times.astar.len() as f64);
    let astar_s = sum(|r| r.times.astar_total().as_secs_f64());
    let expansions = sum(|r| r.profile.expansions as f64);
    let candidates = sum(|r| r.profile.candidates as f64).max(1.0);
    let per_round: Vec<f64> =
        runs.iter().flat_map(|r| r.times.astar.iter().map(Duration::as_secs_f64)).collect();
    p.put("core.plan_ms", med(|r| r.times.total.as_secs_f64()) * 1e3, "ms");
    p.put("core.rounds", rounds / runs.len() as f64, "count");
    p.put("core.useful_round_share", sum(|r| r.useful_round_share) / runs.len() as f64, "ratio");
    p.put("core.portfolio_ms", med(|r| r.times.portfolio.as_secs_f64()) * 1e3, "ms");
    p.put("core.sweep_us", med(|r| r.times.sweep.as_secs_f64()) * 1e6, "us");
    p.put("core.mem_check_us", med(|r| r.times.mem_check.as_secs_f64()) * 1e6, "us");
    p.put("core.portfolio_win_share", sum(|r| r.times.portfolio_wins as f64) / rounds, "ratio");
    p.put("synthesis.theory_us", med(|r| r.times.theory.as_secs_f64()) * 1e6, "us");
    p.put("synthesis.astar_ms", median(&per_round) * 1e3, "ms");
    p.put("synthesis.astar_share", astar_s / sum(|r| r.times.total.as_secs_f64()), "ratio");
    p.put("synthesis.expansions", med(|r| r.profile.expansions as f64), "count");
    p.put("synthesis.expansions_per_s", expansions / astar_s, "1/s");
    p.put("synthesis.frontier_peak", med(|r| r.profile.frontier_peak as f64), "count");
    p.put(
        "synthesis.improvements_per_kexp",
        sum(|r| r.profile.improvements as f64) / (expansions / 1e3).max(1e-3),
        "1/kexp",
    );
    p.put(
        "synthesis.dominance_pruned_share",
        sum(|r| r.profile.dominance_pruned as f64) / candidates,
        "ratio",
    );
    p.put(
        "synthesis.incumbent_pruned_share",
        sum(|r| r.profile.incumbent_pruned as f64) / candidates,
        "ratio",
    );
    p.put("synthesis.warm_seeded_share", sum(|r| r.profile.warm_seeded as f64) / rounds, "ratio");
    p.put("balancer.lp_us", sum(|r| r.times.lp.as_secs_f64()) / rounds * 1e6, "us");
    // Two ratio candidates are costed per round.
    p.put(
        "balancer.estimate_us",
        sum(|r| r.times.estimate.as_secs_f64()) / (2.0 * rounds) * 1e6,
        "us",
    );
    p.put("balancer.est_over_sim", med(|r| r.est_over_sim), "ratio");
    p.put("collectives.profile_us", med(|r| r.times.profile.as_secs_f64()) * 1e6, "us");
    p.put("simulator.memory_us", med(|r| r.memory_s) * 1e6, "us");
    Ok(())
}
