//! The synthesis dispatcher: the job queue, single-flight slots, and the
//! fixed worker pool — fully decoupled from any transport.
//!
//! A slot is the rendezvous for one in-flight synthesis. Every request
//! that attaches to it — the leader that queued the job and each
//! single-flight follower — subscribes a callback and returns at once;
//! when a worker finishes the job it runs every subscriber with the
//! result. Subscribers render their own response bytes and hand them to
//! whoever waits: the event loop's completion queue + waker, or the
//! channel a blocking `PlanService::handle_line` caller receives on. No
//! I/O thread ever blocks on a synthesis.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};

use hap::{parallelize_with_warm_profiled, HapOptions, SynthProfile};
use hap_cluster::ClusterSpec;
use hap_codec::{
    render_fingerprint, value_fingerprint, Decode, Encode, Value, WireError, INTERNAL_KIND,
};
use hap_graph::Graph;

use crate::cache::{cluster_features, CachedPlan, PersistLog, PlanCache};
use crate::config::{ServiceConfig, MAX_TTL_MS};
use crate::faults;
use crate::peer::ClusterState;
use crate::stats::Counters;
use crate::sync::{lock_recover, wait_recover};
use crate::telemetry::{ProfileIndex, Telemetry};

/// The outcome of one synthesis, shared by every request that attached to
/// its slot.
pub(crate) type PlanResult = Result<Arc<CachedPlan>, WireError>;

/// A deferred consumer of a slot's result. Runs on the worker thread that
/// finished the job (or inline, if the result already landed when the
/// subscription was made), so it must be quick: render bytes, enqueue,
/// wake.
pub(crate) type Subscriber = Box<dyn FnOnce(&PlanResult) + Send>;

pub(crate) struct SlotState {
    result: Option<PlanResult>,
    subscribers: Vec<Subscriber>,
    /// Telemetry marks (clock readings, 0 = never happened / telemetry
    /// off): when the job entered the queue, when a worker picked it up,
    /// and when its result was published. Consumers turn them into
    /// `queue_wait` / `synthesis` spans.
    queued_nanos: u64,
    started_nanos: u64,
    resolved_nanos: u64,
}

pub(crate) type Slot = Arc<Mutex<SlotState>>;

fn new_slot(queued_nanos: u64) -> Slot {
    Arc::new(Mutex::new(SlotState {
        result: None,
        subscribers: Vec::new(),
        queued_nanos,
        started_nanos: 0,
        resolved_nanos: 0,
    }))
}

/// Stamps the moment a worker picked the job up.
fn mark_started(slot: &Slot, now: u64) {
    lock_recover(slot).started_nanos = now;
}

/// The slot's telemetry marks: `(queued, started, resolved)`.
pub(crate) fn slot_marks(slot: &Slot) -> (u64, u64, u64) {
    let state = lock_recover(slot);
    (state.queued_nanos, state.started_nanos, state.resolved_nanos)
}

/// Attaches a deferred consumer. If the slot already resolved the callback
/// runs immediately on the calling thread; otherwise it runs on the worker
/// that resolves the slot.
pub(crate) fn subscribe(slot: &Slot, f: Subscriber) {
    let already_resolved = {
        let mut state = lock_recover(slot);
        match state.result.clone() {
            Some(result) => Some((f, result)),
            None => {
                state.subscribers.push(f);
                None
            }
        }
    };
    // Run outside the slot lock: the callback takes the completion queue
    // lock, and lock-order discipline is simpler when slots never nest
    // around it.
    if let Some((f, result)) = already_resolved {
        f(&result);
    }
}

/// One queued synthesis: the undecoded request values plus the slot every
/// consumer attached to.
pub(crate) struct Job {
    pub fp: u64,
    pub graph: Value,
    pub cluster: Value,
    pub options: Value,
    /// Requested cache TTL for the synthesized plan. Requests fingerprint
    /// on `(graph, cluster, options)` only, so concurrent duplicates with
    /// different `ttl_ms` coalesce — the leader's TTL wins.
    pub ttl_ms: Option<u64>,
    /// An explicit warm seed (a replan's prior plan). Takes precedence
    /// over the cache's nearest-neighbor lookup and ignores
    /// `warm_neighbors` — a replan *names* its incumbent.
    pub warm: Option<Arc<CachedPlan>>,
    pub slot: Slot,
}

pub(crate) struct QueueState {
    pub jobs: VecDeque<Job>,
    pub shutdown: bool,
}

/// Everything the workers share: queue, cache, single-flight map,
/// counters, persistence.
pub(crate) struct Shared {
    pub config: ServiceConfig,
    pub cache: PlanCache,
    pub inflight: Mutex<HashMap<u64, Slot>>,
    pub queue: (Mutex<QueueState>, Condvar),
    pub counters: Counters,
    pub persist: Option<PersistLog>,
    /// Request triples of recently planned fingerprints, so a `replan`
    /// can rebuild its prior request (see [`crate::replan`]). Shared
    /// (`Arc`) with the persist log, which re-embeds the triples at
    /// compaction.
    pub replans: Arc<Mutex<crate::replan::ReplanIndex>>,
    /// Cluster-mode state: the installed ring (if any) and the peer pool.
    pub cluster: ClusterState,
    /// Traces, latency histograms, and the injected clock.
    pub telemetry: Arc<Telemetry>,
    /// Synthesis profiles of recently synthesized fingerprints, so a
    /// `"profile":true` request answered from the cache can still report
    /// how its plan was found.
    pub profiles: Mutex<ProfileIndex>,
}

/// How a single-flight attach played out.
pub(crate) enum Attach {
    /// This request became the leader and its job is queued.
    Leader(Slot),
    /// This request joined an existing in-flight job.
    Follower(Slot),
    /// The request resolved without queueing (cache race win, shed, or
    /// shutdown); the result is final and carries the source it would
    /// have reported (`Cache` for the race win, `Synthesized` for a
    /// leader that was shed or raced shutdown).
    Resolved(crate::service::PlanSource, PlanResult),
}

/// The single-flight core: cache re-probe under leadership, queue-depth
/// shedding, job submission.
pub(crate) fn attach(
    shared: &Shared,
    fp: u64,
    graph: &Value,
    cluster: &Value,
    options: &Value,
    ttl_ms: Option<u64>,
    warm: Option<Arc<CachedPlan>>,
) -> Attach {
    let (slot, leader) = {
        let mut inflight = lock_recover(&shared.inflight);
        match inflight.get(&fp) {
            Some(slot) => (slot.clone(), false),
            None => {
                let slot = new_slot(shared.telemetry.now());
                inflight.insert(fp, slot.clone());
                (slot, true)
            }
        }
    };
    if !leader {
        shared.counters.coalesced.fetch_add(1, Ordering::Relaxed);
        return Attach::Follower(slot);
    }
    // Re-probe the cache after winning leadership: the previous in-flight
    // synthesis for this fingerprint may have completed (cache insert
    // happens before its slot retires) between our miss and our insert,
    // and re-running it would both waste a synthesis and double-count the
    // `synthesized` stat.
    if let Some(plan) = shared.cache.get(fp) {
        shared.counters.hits.fetch_add(1, Ordering::Relaxed);
        finish(shared, fp, &slot, Ok(plan.clone()));
        return Attach::Resolved(crate::service::PlanSource::Cache, Ok(plan));
    }
    let job = Job {
        fp,
        graph: graph.clone(),
        cluster: cluster.clone(),
        options: options.clone(),
        ttl_ms,
        warm,
        slot: slot.clone(),
    };
    let (queue, cvar) = &shared.queue;
    let mut state = lock_recover(queue);
    if state.shutdown {
        drop(state);
        let err = WireError::new("shutdown", "service is shutting down");
        finish(shared, fp, &slot, Err(err.clone()));
        return Attach::Resolved(crate::service::PlanSource::Synthesized, Err(err));
    }
    // Queue-depth admission control: a full backlog sheds the *leader*
    // (followers above never add work, so they always join). The busy
    // frame is published through the slot so any duplicate that raced
    // onto it wakes with the same answer, and the retry hint grows with
    // the observed backlog.
    let cap = shared.config.max_queue_depth;
    if cap > 0 && state.jobs.len() >= cap {
        let depth = state.jobs.len();
        drop(state);
        let err =
            WireError::busy(crate::config::busy_hint_ms(shared.config.busy_retry_ms, depth), depth);
        shared.counters.shed.fetch_add(1, Ordering::Relaxed);
        finish(shared, fp, &slot, Err(err.clone()));
        return Attach::Resolved(crate::service::PlanSource::Synthesized, Err(err));
    }
    state.jobs.push_back(job);
    cvar.notify_all();
    Attach::Leader(slot)
}

/// One synthesis worker: pulls jobs from the shared queue one at a time
/// (no batch barrier — a slow synthesis occupies one worker while the
/// rest keep draining), executing until the queue is both empty and shut
/// down. Identical requests never reach the queue twice (single flight),
/// so concurrent workers always hold distinct work.
pub(crate) fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let (queue, cvar) = &shared.queue;
            let mut state = lock_recover(queue);
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = wait_recover(cvar, state);
            }
        };
        execute(shared, &job);
    }
}

/// Runs one synthesis job end to end and publishes its result.
///
/// The job body runs under `catch_unwind`: a panicking synthesis (a cost-
/// model bug, a pathological graph) must not take the worker thread — and
/// with it every queued job and coalesced follower — down. The panic
/// becomes a typed `internal` error published through the slot exactly
/// like any other failure, so the leader *and* every follower get a
/// parseable frame, the in-flight entry retires, and the daemon keeps
/// serving. Locks the panicking job held recover via the poison-tolerant
/// helpers in [`crate::sync`].
fn execute(shared: &Arc<Shared>, job: &Job) {
    mark_started(&job.slot, shared.telemetry.now());
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| synthesize_job(shared, job)))
            .unwrap_or_else(|payload| {
                shared.counters.panics.fetch_add(1, Ordering::Relaxed);
                Err(WireError::new(
                    INTERNAL_KIND,
                    format!("synthesis job panicked: {}", panic_message(payload.as_ref())),
                ))
            });
    let result = match outcome {
        Ok((plan, profile)) => {
            shared.counters.synthesized.fetch_add(1, Ordering::Relaxed);
            // Publish the profile before the result: any consumer woken
            // by `finish` that asks for it must find it recorded.
            lock_recover(&shared.profiles).record(job.fp, Arc::new(profile));
            let verdict = shared.cache.insert(job.fp, plan.clone());
            // A plan the admission gate declined is still *returned* (the
            // requester paid for it); it is just not cached or persisted.
            if !matches!(verdict, crate::cache::Admission::Rejected { .. }) {
                let req = crate::replan::RequestTriple {
                    graph: job.graph.clone(),
                    cluster: job.cluster.clone(),
                    options: job.options.clone(),
                }
                .encode_req();
                if let Some(persist) = &shared.persist {
                    // Degradation is the log's problem, not the request's:
                    // an unacknowledged append flips the log to memory-only
                    // (surfaced in stats) and the response proceeds
                    // normally.
                    let _ =
                        persist.append_with_req(&shared.cache, job.fp, plan.as_ref(), Some(&req));
                }
                // Replicate to the fingerprint's other ring owners *before*
                // publishing the result: an acknowledged plan then survives
                // the synthesizing owner's death.
                replicate_plan(shared, job.fp, plan.as_ref(), &req);
            }
            Ok(plan)
        }
        Err(err) => Err(err),
    };
    finish(shared, job.fp, &job.slot, result);
}

/// Pushes a freshly synthesized plan to the fingerprint's other ring
/// owners (K-way replication, synchronous). No-op without an installed
/// ring. Runs on the worker thread before the slot resolves, so by the
/// time any client sees the acknowledgment every reachable owner holds
/// the plan — a mid-traffic owner kill then loses nothing acknowledged.
/// Replication is still best-effort per peer: an unreachable owner is
/// skipped (availability over strict K), surfaced by `replicated_out`
/// falling short.
fn replicate_plan(shared: &Arc<Shared>, fp: u64, plan: &CachedPlan, req: &Value) {
    let Some((ring, self_addr)) = shared.cluster.current() else {
        return;
    };
    let owners: Vec<String> =
        ring.owners(fp).into_iter().filter(|o| *o != self_addr).map(String::from).collect();
    if owners.is_empty() {
        return;
    }
    let frame = Value::obj(vec![
        ("op", Value::Str("replicate".into())),
        ("id", Value::int(0)),
        ("fp", Value::Str(render_fingerprint(fp))),
        ("plan", plan.encode()),
        ("req", req.clone()),
    ])
    .render();
    for owner in owners {
        let acked = shared
            .cluster
            .peers
            .call(&owner, &frame)
            .ok()
            .and_then(|resp| hap_codec::parse(&resp).ok())
            .and_then(|v| v.get("ok").cloned())
            .is_some_and(|ok| matches!(ok, Value::Bool(true)));
        if acked {
            shared.counters.replicated_out.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Best-effort text of a panic payload (`panic!` with a string or a
/// formatted message covers practically all of them).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Retires the in-flight entry, publishes a result to the slot, and runs
/// the subscribers. Retiring *first* means that by the time any
/// subscriber renders its reply the `in_flight` gauge has already
/// dropped, so stats never report a completed request as still in
/// flight. Subscribers run outside the slot lock (they take the event
/// loop's completion-queue lock).
pub(crate) fn finish(shared: &Shared, fp: u64, slot: &Slot, result: PlanResult) {
    lock_recover(&shared.inflight).remove(&fp);
    let resolved = shared.telemetry.now();
    let subscribers = {
        let mut state = lock_recover(slot);
        state.resolved_nanos = resolved;
        state.result = Some(result.clone());
        std::mem::take(&mut state.subscribers)
    };
    for subscriber in subscribers {
        subscriber(&result);
    }
}

/// Decode, warm-start lookup, synthesis. The elapsed wall time of the
/// whole job (decode included — a hit saves that too) becomes the entry's
/// `synthesis_nanos`, the numerator of the cache's admission density.
/// Returns the plan together with the search's [`SynthProfile`] (per-wave
/// A\* counters), which `execute` publishes to the profile index.
fn synthesize_job(
    shared: &Shared,
    job: &Job,
) -> Result<(Arc<CachedPlan>, SynthProfile), WireError> {
    faults::check_panic(faults::SYNTHESIZE);
    let started = std::time::Instant::now();
    let graph = Graph::decode(&job.graph).map_err(WireError::from)?;
    let cluster = ClusterSpec::decode(&job.cluster).map_err(WireError::from)?;
    let options = HapOptions::decode(&job.options).map_err(WireError::from)?;
    let graph_fp = value_fingerprint(&job.graph);
    let opts_fp = value_fingerprint(&job.options);
    let features = cluster_features(&cluster, options.granularity);

    // A replan's named incumbent wins over the neighbor heuristic: it is
    // the exact prior plan for this graph, re-costed on the new cluster.
    let warm = if let Some(seed) = &job.warm {
        Some(seed.clone())
    } else if shared.config.warm_neighbors {
        shared.cache.nearest(graph_fp, opts_fp, &features)
    } else {
        None
    };
    if warm.is_some() {
        shared.counters.warm_seeded.fetch_add(1, Ordering::Relaxed);
    }
    let warm_program = warm.as_ref().map(|p| &p.program);

    let (plan, profile) = parallelize_with_warm_profiled(&graph, &cluster, &options, warm_program)
        .map_err(|e| WireError::from(&e))?;
    let mut cached = CachedPlan {
        estimated_time: plan.estimated_time,
        rounds: plan.rounds,
        program: plan.program,
        ratios: plan.ratios,
        graph_fp,
        opts_fp,
        features,
        synthesis_nanos: started.elapsed().as_nanos() as u64,
        size_bytes: 0,
        // The request parser already rejects ttl_ms > MAX_TTL_MS; the
        // clamp keeps the bound here too, so no job can ever hand the
        // (2^53-exact) record encoder an oversized TTL.
        ttl_nanos: job.ttl_ms.map(|ms| ms.min(MAX_TTL_MS).saturating_mul(1_000_000)),
    };
    cached.size_bytes = cached.measure_size();
    Ok((Arc::new(cached), profile))
}
