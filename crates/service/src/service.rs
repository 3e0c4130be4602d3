//! The daemon's request brain, independent of any transport: feed it a
//! request line, get response bytes. The TCP event loop, the benches, and
//! the in-process tests all go through [`PlanService`].

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use hap_cluster::ClusterDelta;
use hap_codec::{
    encode_stream, parse, parse_fingerprint, render_fingerprint, request_fingerprint_values,
    Decode, Encode, PlanDiff, RingInfo, Value, WireError, UNKNOWN_FINGERPRINT_KIND,
};
use mini_rayon::ThreadPool;

use hap_synthesis::SynthProfile;
use hap_telemetry::{Outcome, SpanKind, TraceBuilder, Verb};

use crate::cache::{load_cache_with_requests, CachePolicy, CachedPlan, PersistLog, PlanCache};
use crate::config::{ServiceConfig, MAX_TTL_MS};
use crate::dispatch::{self, Attach, PlanResult, QueueState, Shared, Slot};
use crate::peer::ClusterState;
use crate::replan::{self, ReplanIndex, RequestTriple};
use crate::stats::{Counters, NetGauges, StatsSnapshot};
use crate::sync::lock_recover;
use crate::telemetry::{
    encode_profile, encode_trace, outcome_for_error, outcome_for_source, PendingTrace,
    ProfileIndex, Telemetry,
};

/// A transport callback receiving rendered response bytes for a request
/// whose synthesis resolved after [`PlanService::submit`] returned, plus
/// the request's trace (sealed by the transport once the bytes flush).
/// Runs on the resolving worker's thread; must be quick (enqueue + wake).
pub(crate) type Deliver = Box<dyn FnOnce(Vec<u8>, Option<PendingTrace>) + Send>;

/// How a plan response was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanSource {
    /// Answered from the cache.
    Cache,
    /// This request ran the synthesis.
    Synthesized,
    /// Joined another request's in-flight synthesis.
    Coalesced,
}

impl PlanSource {
    fn as_str(self) -> &'static str {
        match self {
            PlanSource::Cache => "cache",
            PlanSource::Synthesized => "synthesized",
            PlanSource::Coalesced => "coalesced",
        }
    }
}

/// What [`PlanService::submit`] did with a request line.
pub(crate) enum Submission {
    /// The response is complete: one or more newline-terminated frames,
    /// plus the request's trace for the transport to seal at flush time.
    Ready { bytes: Vec<u8>, shutdown: bool, trace: Option<PendingTrace> },
    /// A synthesis is in flight; the `deliver` callback will produce the
    /// bytes (and the trace) on a worker thread when it resolves.
    Pending,
}

/// Packages a trace builder with its outcome for the transport to seal.
fn seal(tb: Option<TraceBuilder>, outcome: Outcome) -> Option<PendingTrace> {
    tb.map(|builder| PendingTrace { builder, outcome })
}

/// Runs `f` under an `encode` span.
fn encode_span<T>(tb: &mut Option<TraceBuilder>, f: impl FnOnce() -> T) -> T {
    if let Some(tb) = tb.as_mut() {
        tb.begin(SpanKind::Encode);
    }
    let out = f();
    if let Some(tb) = tb.as_mut() {
        tb.end();
    }
    out
}

/// Everything a successful replan resolves to: where the plan came from,
/// the rebased fingerprint, the plan itself, the instruction-level diff
/// against the prior plan, and (when requested) the synthesis profile.
type ReplanValues = (PlanSource, u64, Arc<CachedPlan>, PlanDiff, Option<Arc<SynthProfile>>);

/// Fetches the recorded synthesis profile for `fp` when anyone wants it:
/// as the response's `"profile"` field (`want`) and/or folded into the
/// trace as annotations (`synthesized` — the profile describes work this
/// very request waited on). Requests that want neither never touch the
/// profile lock; in particular, telemetry-off cache hits stay lock-free.
fn profile_for(
    shared: &Shared,
    fp: u64,
    want: bool,
    synthesized: bool,
    tb: &mut Option<TraceBuilder>,
) -> Option<Arc<SynthProfile>> {
    if !(want || (synthesized && tb.is_some())) {
        return None;
    }
    let profile = lock_recover(&shared.profiles).get(fp)?;
    if synthesized {
        if let Some(tb) = tb.as_mut() {
            for (key, value) in profile.entries() {
                tb.annotate(key, value);
            }
        }
    }
    want.then_some(profile)
}

/// Folds the dispatch slot's timing marks into the trace: the queue wait
/// and (when a worker actually ran) the synthesis itself. A request that
/// resolved without a worker — shed, shutdown race, cache race — gets its
/// whole slot residency as queue wait.
fn attach_slot_spans(tb: &mut Option<TraceBuilder>, slot: &Slot) {
    let Some(tb) = tb.as_mut() else { return };
    let (queued, started, resolved) = dispatch::slot_marks(slot);
    if started > 0 {
        tb.span(SpanKind::QueueWait, queued, started);
        tb.span(SpanKind::Synthesis, started, resolved);
    } else if resolved > 0 {
        tb.span(SpanKind::QueueWait, queued, resolved);
    }
}

/// The multi-tenant planning service: content-addressed cache,
/// single-flight synthesis, fixed worker pool.
pub struct PlanService {
    shared: Arc<Shared>,
    gauges: Arc<NetGauges>,
    worker_width: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl PlanService {
    /// Builds the service: loads (and compacts) the persistence log when
    /// configured, then starts the synthesis workers. Pool width follows
    /// mini-rayon's parallelism accounting (`workers` threads, `0` = all
    /// cores); each worker pulls one job at a time, so a slow synthesis
    /// never stalls queued work behind a batch barrier, and each job's
    /// wave-parallel A\* runs on its own crew of mini-rayon workers in turn
    /// (`options.synth.threads`).
    ///
    /// A log that fails to *decode* (interior corruption) refuses to boot
    /// — silently dropping persisted state would hide data loss (the
    /// torn-tail case a crash leaves behind is recovered, not fatal; see
    /// [`load_cache`]). A log that decodes but cannot be *rewritten or
    /// reopened* (disk full, permissions) starts the service in degraded
    /// memory-only persistence instead of failing: the daemon is the
    /// availability-critical piece, the log is not.
    pub fn new(config: ServiceConfig) -> Result<Self, WireError> {
        let policy = CachePolicy {
            admission: config.cache_admission,
            default_ttl: config.default_ttl_ms.map(std::time::Duration::from_millis),
        };
        let cache = PlanCache::with_policy(config.cache_capacity, policy);
        // The replan index remembers as many request triples as the cache
        // holds plans: a fingerprint whose plan is still cached should
        // normally still be replannable. The profile index follows the
        // same sizing — a cached plan's synthesis profile should still be
        // reportable.
        let replans = Arc::new(Mutex::new(ReplanIndex::new(config.cache_capacity)));
        let mut persist = None;
        if let Some(path) = &config.cache_path {
            // Rebuild the replan index alongside the cache: each record's
            // embedded request triple is trusted only if it fingerprints
            // back to the record's own key (a mismatched triple would make
            // a later replan rebase the wrong request).
            load_cache_with_requests(&cache, path, &mut |fp, req| {
                let Some(triple) = RequestTriple::decode_req(&req) else { return };
                if request_fingerprint_values(&triple.graph, &triple.cluster, &triple.options) == fp
                {
                    lock_recover(&replans).record(fp, Arc::new(triple));
                }
            })
            .map_err(WireError::from)?;
            persist = Some(PersistLog::start_with_index(
                &cache,
                path.clone(),
                config.fsync,
                replans.clone(),
            ));
        }
        let profiles = Mutex::new(ProfileIndex::new(config.cache_capacity));
        let telemetry = Arc::new(Telemetry::new(&config));
        let shared = Arc::new(Shared {
            config,
            cache,
            replans,
            cluster: ClusterState::new(),
            inflight: Mutex::new(HashMap::new()),
            queue: (
                Mutex::new(QueueState { jobs: VecDeque::new(), shutdown: false }),
                Condvar::new(),
            ),
            counters: Counters::default(),
            persist,
            telemetry,
            profiles,
        });
        let width = ThreadPool::new(shared.config.workers).threads().max(1);
        let workers = (0..width)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || dispatch::worker_loop(&shared))
            })
            .collect();
        Ok(PlanService {
            shared,
            gauges: Arc::new(NetGauges::default()),
            worker_width: width,
            workers: Mutex::new(workers),
        })
    }

    /// The service's configuration.
    pub(crate) fn config(&self) -> &ServiceConfig {
        &self.shared.config
    }

    /// Synthesis worker threads running.
    pub fn worker_count(&self) -> usize {
        self.worker_width
    }

    /// The event-loop gauges (shared with the transport that updates
    /// them; zeros for a transportless in-process service).
    pub(crate) fn net_gauges(&self) -> Arc<NetGauges> {
        self.gauges.clone()
    }

    /// Handles one request line; returns the response line (no trailing
    /// newline) and whether the request asked the daemon to shut down.
    ///
    /// This is the synchronous path: a cache miss parks the calling
    /// thread until the synthesis resolves. `"stream": true` is ignored
    /// here — streaming is transport framing, and this entry point *is*
    /// the canonical unstreamed encoding. The request's trace is sealed
    /// here too (there is no later flush to wait for).
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        let mut tb = self.shared.telemetry.builder();
        match self.handle_parsed(line, &mut tb) {
            Ok((response, outcome, shutdown)) => {
                let rendered = encode_span(&mut tb, || response.render());
                self.shared.telemetry.finish(tb, outcome);
                (rendered, shutdown)
            }
            Err((id, err)) => {
                self.shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                let rendered = encode_span(&mut tb, || error_frame(id, &err).render());
                self.shared.telemetry.finish(tb, outcome_for_error(&err));
                (rendered, false)
            }
        }
    }

    fn handle_parsed(
        &self,
        line: &str,
        tb: &mut Option<TraceBuilder>,
    ) -> Result<(Value, Outcome, bool), (u64, WireError)> {
        if let Some(tb) = tb.as_mut() {
            tb.begin(SpanKind::Decode);
        }
        let req = Request::parse(line)?;
        if let Some(tb) = tb.as_mut() {
            tb.set_request(req.id, req.op.verb());
        }
        match req.op {
            ReqOp::Plan(plan) => {
                let (source, fp, result, profile) = self.plan_values_traced(
                    &plan.graph,
                    &plan.cluster,
                    &plan.options,
                    plan.ttl_ms,
                    plan.profile,
                    tb,
                );
                let plan_arc = result.map_err(|e| (req.id, e))?;
                Ok((
                    plan_frame_with(req.id, fp, source, &plan_arc, None, profile.as_deref()),
                    outcome_for_source(source),
                    false,
                ))
            }
            ReqOp::Replan(rp) => {
                let (source, fp, plan, diff, profile) = self
                    .replan_values_traced(rp.prior, &rp.delta, rp.ttl_ms, rp.profile, tb)
                    .map_err(|e| (req.id, e))?;
                Ok((
                    plan_frame_with(req.id, fp, source, &plan, Some(&diff), profile.as_deref()),
                    Outcome::Replan,
                    false,
                ))
            }
            ReqOp::Stats => Ok((self.stats_frame(req.id), Outcome::Ok, false)),
            ReqOp::Metrics => Ok((self.metrics_frame(req.id), Outcome::Ok, false)),
            ReqOp::Trace { n, min_ms } => {
                Ok((self.trace_frame(req.id, n, min_ms), Outcome::Ok, false))
            }
            ReqOp::Ring(install) => Ok((self.ring_frame(req.id, install), Outcome::Ok, false)),
            ReqOp::Replicate(rep) => Ok((self.replicate_frame(req.id, *rep), Outcome::Ok, false)),
            ReqOp::Shutdown => Ok((ok_frame(req.id), Outcome::Ok, true)),
        }
    }

    /// Remembers the request triple behind a fingerprint so a later
    /// `replan` can rebuild it. Cheap when already recorded.
    fn record_request(&self, fp: u64, graph: &Value, cluster: &Value, options: &Value) {
        let mut index = lock_recover(&self.shared.replans);
        if !index.contains(fp) {
            index.record(
                fp,
                Arc::new(RequestTriple {
                    graph: graph.clone(),
                    cluster: cluster.clone(),
                    options: options.clone(),
                }),
            );
        }
    }

    /// The planning core: cache lookup, single-flight dedup, queue + wait.
    /// Exposed for in-process callers (tests, benches) that want to skip
    /// the socket but exercise the identical path.
    pub fn plan_values(
        &self,
        graph: &Value,
        cluster: &Value,
        options: &Value,
    ) -> (PlanSource, u64, PlanResult) {
        self.plan_values_with_ttl(graph, cluster, options, None)
    }

    /// [`PlanService::plan_values`] with a per-request cache TTL.
    pub fn plan_values_with_ttl(
        &self,
        graph: &Value,
        cluster: &Value,
        options: &Value,
        ttl_ms: Option<u64>,
    ) -> (PlanSource, u64, PlanResult) {
        let (source, fp, result, _) =
            self.plan_values_traced(graph, cluster, options, ttl_ms, false, &mut None);
        (source, fp, result)
    }

    /// The traced planning core: [`PlanService::plan_values_with_ttl`]
    /// plus span bookkeeping and the optional synthesis profile
    /// (`want_profile` = the request carried `"profile": true`).
    fn plan_values_traced(
        &self,
        graph: &Value,
        cluster: &Value,
        options: &Value,
        ttl_ms: Option<u64>,
        want_profile: bool,
        tb: &mut Option<TraceBuilder>,
    ) -> (PlanSource, u64, PlanResult, Option<Arc<SynthProfile>>) {
        let shared = &self.shared;
        let fp = request_fingerprint_values(graph, cluster, options);
        self.record_request(fp, graph, cluster, options);
        if let Some(tb) = tb.as_mut() {
            tb.begin(SpanKind::CacheLookup);
        }
        if let Some(plan) = shared.cache.get(fp) {
            shared.counters.hits.fetch_add(1, Ordering::Relaxed);
            if let Some(tb) = tb.as_mut() {
                tb.end();
            }
            let profile = profile_for(shared, fp, want_profile, false, tb);
            return (PlanSource::Cache, fp, Ok(plan), profile);
        }
        shared.counters.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(tb) = tb.as_mut() {
            tb.end();
        }
        let (source, result) =
            match dispatch::attach(shared, fp, graph, cluster, options, ttl_ms, None) {
                Attach::Resolved(source, result) => (source, result),
                Attach::Leader(slot) => {
                    let result = dispatch::wait_sync(&slot);
                    attach_slot_spans(tb, &slot);
                    (PlanSource::Synthesized, result)
                }
                Attach::Follower(slot) => {
                    let result = dispatch::wait_sync(&slot);
                    attach_slot_spans(tb, &slot);
                    (PlanSource::Coalesced, result)
                }
            };
        let profile = match &result {
            Ok(_) => profile_for(shared, fp, want_profile, true, tb),
            Err(_) => None,
        };
        (source, fp, result, profile)
    }

    /// Replans a previously planned request after a cluster change: the
    /// prior plan (named by its request fingerprint) is re-costed on the
    /// post-delta cluster and seeds the synthesis as its incumbent, so an
    /// unchanged-optimal plan is confirmed at replay cost instead of
    /// re-searched. Returns the plan for the post-delta request — always
    /// bit-identical to what cold synthesis on that cluster would produce
    /// (warm seeds only survive exact cost ties) — plus the machine-
    /// readable [`PlanDiff`] against the prior plan.
    pub fn replan_values(
        &self,
        prior_fp: u64,
        delta: &ClusterDelta,
    ) -> Result<(PlanSource, u64, Arc<CachedPlan>, PlanDiff), WireError> {
        self.replan_values_with_ttl(prior_fp, delta, None)
    }

    /// [`PlanService::replan_values`] with a per-request cache TTL.
    pub fn replan_values_with_ttl(
        &self,
        prior_fp: u64,
        delta: &ClusterDelta,
        ttl_ms: Option<u64>,
    ) -> Result<(PlanSource, u64, Arc<CachedPlan>, PlanDiff), WireError> {
        self.replan_values_traced(prior_fp, delta, ttl_ms, false, &mut None)
            .map(|(source, fp, plan, diff, _)| (source, fp, plan, diff))
    }

    /// The traced replanning core (see [`PlanService::plan_values_traced`]).
    fn replan_values_traced(
        &self,
        prior_fp: u64,
        delta: &ClusterDelta,
        ttl_ms: Option<u64>,
        want_profile: bool,
        tb: &mut Option<TraceBuilder>,
    ) -> Result<ReplanValues, WireError> {
        let shared = &self.shared;
        let prep = replan::prepare(shared, prior_fp, delta)?;
        if let Some(tb) = tb.as_mut() {
            tb.begin(SpanKind::CacheLookup);
        }
        if let Some(plan) = shared.cache.get(prep.fp) {
            shared.counters.hits.fetch_add(1, Ordering::Relaxed);
            shared.counters.replanned.fetch_add(1, Ordering::Relaxed);
            if let Some(tb) = tb.as_mut() {
                tb.end();
            }
            let profile = profile_for(shared, prep.fp, want_profile, false, tb);
            let diff = replan_diff(prior_fp, &prep.prior, &plan);
            return Ok((PlanSource::Cache, prep.fp, plan, diff, profile));
        }
        shared.counters.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(tb) = tb.as_mut() {
            tb.end();
        }
        let (source, result) = match dispatch::attach(
            shared,
            prep.fp,
            &prep.triple.graph,
            &prep.triple.cluster,
            &prep.triple.options,
            ttl_ms,
            Some(prep.prior.clone()),
        ) {
            Attach::Resolved(source, result) => (source, result),
            Attach::Leader(slot) => {
                let result = dispatch::wait_sync(&slot);
                attach_slot_spans(tb, &slot);
                (PlanSource::Synthesized, result)
            }
            Attach::Follower(slot) => {
                let result = dispatch::wait_sync(&slot);
                attach_slot_spans(tb, &slot);
                (PlanSource::Coalesced, result)
            }
        };
        let plan = result?;
        shared.counters.replanned.fetch_add(1, Ordering::Relaxed);
        let profile = profile_for(shared, prep.fp, want_profile, true, tb);
        let diff = replan_diff(prior_fp, &prep.prior, &plan);
        Ok((source, prep.fp, plan, diff, profile))
    }

    /// The asynchronous request path used by the event loop: never blocks
    /// the calling thread on a synthesis. Inline-answerable requests
    /// (cache hits, stats, shutdown, malformed frames, shed) return
    /// [`Submission::Ready`]; a queued or joined synthesis returns
    /// [`Submission::Pending`] and `deliver` later receives the rendered
    /// response bytes on the resolving worker's thread.
    ///
    /// `tb` is the transport's trace builder (already carrying the
    /// `accept`/`frame` spans); it travels with the request and comes
    /// back — as [`Submission::Ready::trace`] or through `deliver` — for
    /// the transport to seal once the bytes flush.
    pub(crate) fn submit(
        &self,
        line: &str,
        mut tb: Option<TraceBuilder>,
        deliver: Deliver,
    ) -> Submission {
        if let Some(tb) = tb.as_mut() {
            tb.begin(SpanKind::Decode);
        }
        let req = match Request::parse(line) {
            Ok(req) => req,
            Err((id, err)) => {
                let bytes = encode_span(&mut tb, || self.render_error(id, &err));
                return Submission::Ready {
                    bytes,
                    shutdown: false,
                    trace: seal(tb, outcome_for_error(&err)),
                };
            }
        };
        let id = req.id;
        if let Some(tb) = tb.as_mut() {
            tb.set_request(id, req.op.verb());
        }
        match req.op {
            ReqOp::Stats => {
                let bytes = encode_span(&mut tb, || frame_bytes(&self.stats_frame(id)));
                Submission::Ready { bytes, shutdown: false, trace: seal(tb, Outcome::Ok) }
            }
            ReqOp::Metrics => {
                let bytes = encode_span(&mut tb, || frame_bytes(&self.metrics_frame(id)));
                Submission::Ready { bytes, shutdown: false, trace: seal(tb, Outcome::Ok) }
            }
            ReqOp::Trace { n, min_ms } => {
                let bytes = encode_span(&mut tb, || frame_bytes(&self.trace_frame(id, n, min_ms)));
                Submission::Ready { bytes, shutdown: false, trace: seal(tb, Outcome::Ok) }
            }
            ReqOp::Ring(install) => {
                let bytes = encode_span(&mut tb, || frame_bytes(&self.ring_frame(id, install)));
                Submission::Ready { bytes, shutdown: false, trace: seal(tb, Outcome::Ok) }
            }
            ReqOp::Replicate(rep) => {
                let bytes = encode_span(&mut tb, || frame_bytes(&self.replicate_frame(id, *rep)));
                Submission::Ready { bytes, shutdown: false, trace: seal(tb, Outcome::Ok) }
            }
            ReqOp::Shutdown => {
                let bytes = encode_span(&mut tb, || frame_bytes(&ok_frame(id)));
                Submission::Ready { bytes, shutdown: true, trace: seal(tb, Outcome::Ok) }
            }
            ReqOp::Plan(plan) => {
                let shared = &self.shared;
                let stream_chunk = plan.stream.then_some(shared.config.stream_chunk_bytes);
                let want_profile = plan.profile;
                let fp = request_fingerprint_values(&plan.graph, &plan.cluster, &plan.options);
                self.record_request(fp, &plan.graph, &plan.cluster, &plan.options);
                if let Some(tb) = tb.as_mut() {
                    tb.begin(SpanKind::CacheLookup);
                }
                if let Some(cached) = shared.cache.get(fp) {
                    shared.counters.hits.fetch_add(1, Ordering::Relaxed);
                    if let Some(tb) = tb.as_mut() {
                        tb.end();
                    }
                    let profile = profile_for(shared, fp, want_profile, false, &mut tb);
                    let bytes = encode_span(&mut tb, || {
                        plan_bytes(
                            id,
                            fp,
                            PlanSource::Cache,
                            &cached,
                            None,
                            profile.as_deref(),
                            stream_chunk,
                        )
                    });
                    return Submission::Ready {
                        bytes,
                        shutdown: false,
                        trace: seal(tb, Outcome::Hit),
                    };
                }
                shared.counters.misses.fetch_add(1, Ordering::Relaxed);
                if let Some(tb) = tb.as_mut() {
                    tb.end();
                }
                // Cluster routing: a miss on a fingerprint another daemon
                // owns is proxied to that owner (ring-wide single-flight:
                // only the owner synthesizes). A request stamped with a
                // *different* membership epoch than ours gets a typed
                // `not_owner` redirect instead — routing disagreements
                // bounce back to the client rather than chaining
                // daemon-to-daemon forwards.
                if let Some((ring, self_addr)) = shared.cluster.current() {
                    if let Some(owner) =
                        ring.primary(fp).filter(|p| *p != self_addr).map(str::to_string)
                    {
                        if plan.epoch.is_some_and(|stamp| stamp != ring.epoch()) {
                            shared.counters.redirected.fetch_add(1, Ordering::Relaxed);
                            let err = WireError::not_owner(owner, ring.epoch());
                            let bytes =
                                encode_span(&mut tb, || frame_bytes(&error_frame(id, &err)));
                            return Submission::Ready {
                                bytes,
                                shutdown: false,
                                trace: seal(tb, outcome_for_error(&err)),
                            };
                        }
                        shared.counters.proxied.fetch_add(1, Ordering::Relaxed);
                        self.proxy_plan(
                            id,
                            fp,
                            plan,
                            owner,
                            ring.epoch(),
                            stream_chunk,
                            tb,
                            deliver,
                        );
                        return Submission::Pending;
                    }
                }
                let attach = dispatch::attach(
                    shared,
                    fp,
                    &plan.graph,
                    &plan.cluster,
                    &plan.options,
                    plan.ttl_ms,
                    None,
                );
                let (slot, source) = match attach {
                    // A leadership cache race resolves as a hit, exactly
                    // like the sync path's re-probe.
                    Attach::Resolved(source, Ok(cached)) => {
                        let profile = profile_for(shared, fp, want_profile, false, &mut tb);
                        let bytes = encode_span(&mut tb, || {
                            plan_bytes(
                                id,
                                fp,
                                source,
                                &cached,
                                None,
                                profile.as_deref(),
                                stream_chunk,
                            )
                        });
                        return Submission::Ready {
                            bytes,
                            shutdown: false,
                            trace: seal(tb, outcome_for_source(source)),
                        };
                    }
                    Attach::Resolved(_, Err(err)) => {
                        let bytes = encode_span(&mut tb, || self.render_error(id, &err));
                        return Submission::Ready {
                            bytes,
                            shutdown: false,
                            trace: seal(tb, outcome_for_error(&err)),
                        };
                    }
                    Attach::Leader(slot) => (slot, PlanSource::Synthesized),
                    Attach::Follower(slot) => (slot, PlanSource::Coalesced),
                };
                // Subscribe a response renderer: each request renders with
                // its own id, source, and streaming preference when the
                // shared synthesis resolves.
                let sub_shared = self.shared.clone();
                let sub_slot = slot.clone();
                dispatch::subscribe(
                    &slot,
                    Box::new(move |result: &PlanResult| {
                        let mut tb = tb;
                        attach_slot_spans(&mut tb, &sub_slot);
                        let (bytes, outcome) = match result {
                            Ok(plan) => {
                                let profile =
                                    profile_for(&sub_shared, fp, want_profile, true, &mut tb);
                                let bytes = encode_span(&mut tb, || {
                                    plan_bytes(
                                        id,
                                        fp,
                                        source,
                                        plan,
                                        None,
                                        profile.as_deref(),
                                        stream_chunk,
                                    )
                                });
                                (bytes, outcome_for_source(source))
                            }
                            Err(err) => {
                                sub_shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                                let bytes =
                                    encode_span(&mut tb, || frame_bytes(&error_frame(id, err)));
                                (bytes, outcome_for_error(err))
                            }
                        };
                        deliver(bytes, seal(tb, outcome));
                    }),
                );
                Submission::Pending
            }
            ReqOp::Replan(rp) => {
                let shared = &self.shared;
                let stream_chunk = rp.stream.then_some(shared.config.stream_chunk_bytes);
                let want_profile = rp.profile;
                // Cluster routing keys on the *prior* fingerprint: its
                // ring owner holds the request triple and plan (pushed
                // along with every replication), so the rebase runs there.
                let route = shared.cluster.current().and_then(|(ring, self_addr)| {
                    ring.primary(rp.prior)
                        .filter(|p| *p != self_addr)
                        .map(|owner| (owner.to_string(), ring.epoch()))
                });
                if let Some((owner, ring_epoch)) = &route {
                    if rp.epoch.is_some_and(|stamp| stamp != *ring_epoch) {
                        shared.counters.redirected.fetch_add(1, Ordering::Relaxed);
                        let err = WireError::not_owner(owner.clone(), *ring_epoch);
                        let bytes = encode_span(&mut tb, || frame_bytes(&error_frame(id, &err)));
                        return Submission::Ready {
                            bytes,
                            shutdown: false,
                            trace: seal(tb, outcome_for_error(&err)),
                        };
                    }
                }
                let prep = match replan::prepare(shared, rp.prior, &rp.delta) {
                    Ok(prep) => prep,
                    Err(err) => {
                        // A fingerprint this daemon never saw (or let
                        // expire) may still live at its ring owner.
                        if err.kind == UNKNOWN_FINGERPRINT_KIND {
                            if let Some((owner, ring_epoch)) = route {
                                shared.counters.proxied.fetch_add(1, Ordering::Relaxed);
                                self.proxy_replan(
                                    id,
                                    rp,
                                    owner,
                                    ring_epoch,
                                    stream_chunk,
                                    None,
                                    tb,
                                    deliver,
                                );
                                return Submission::Pending;
                            }
                        }
                        let bytes = encode_span(&mut tb, || self.render_error(id, &err));
                        return Submission::Ready {
                            bytes,
                            shutdown: false,
                            trace: seal(tb, outcome_for_error(&err)),
                        };
                    }
                };
                let prior_fp = rp.prior;
                let fp = prep.fp;
                if let Some(tb) = tb.as_mut() {
                    tb.begin(SpanKind::CacheLookup);
                }
                if let Some(cached) = shared.cache.get(fp) {
                    shared.counters.hits.fetch_add(1, Ordering::Relaxed);
                    shared.counters.replanned.fetch_add(1, Ordering::Relaxed);
                    if let Some(tb) = tb.as_mut() {
                        tb.end();
                    }
                    let profile = profile_for(shared, fp, want_profile, false, &mut tb);
                    let diff = replan_diff(prior_fp, &prep.prior, &cached);
                    let bytes = encode_span(&mut tb, || {
                        plan_bytes(
                            id,
                            fp,
                            PlanSource::Cache,
                            &cached,
                            Some(&diff),
                            profile.as_deref(),
                            stream_chunk,
                        )
                    });
                    return Submission::Ready {
                        bytes,
                        shutdown: false,
                        trace: seal(tb, Outcome::Replan),
                    };
                }
                shared.counters.misses.fetch_add(1, Ordering::Relaxed);
                if let Some(tb) = tb.as_mut() {
                    tb.end();
                }
                // The rebased plan is not cached here and the prior's ring
                // owner is another daemon: the synthesis belongs to the
                // owner (ring-wide single-flight). The local preparation
                // rides along as the fallback if the owner is unreachable.
                if let Some((owner, ring_epoch)) = route {
                    shared.counters.proxied.fetch_add(1, Ordering::Relaxed);
                    self.proxy_replan(
                        id,
                        rp,
                        owner,
                        ring_epoch,
                        stream_chunk,
                        Some(prep),
                        tb,
                        deliver,
                    );
                    return Submission::Pending;
                }
                let attach = dispatch::attach(
                    shared,
                    fp,
                    &prep.triple.graph,
                    &prep.triple.cluster,
                    &prep.triple.options,
                    rp.ttl_ms,
                    Some(prep.prior.clone()),
                );
                let (slot, source) = match attach {
                    Attach::Resolved(source, Ok(cached)) => {
                        shared.counters.replanned.fetch_add(1, Ordering::Relaxed);
                        let profile = profile_for(shared, fp, want_profile, false, &mut tb);
                        let diff = replan_diff(prior_fp, &prep.prior, &cached);
                        let bytes = encode_span(&mut tb, || {
                            plan_bytes(
                                id,
                                fp,
                                source,
                                &cached,
                                Some(&diff),
                                profile.as_deref(),
                                stream_chunk,
                            )
                        });
                        return Submission::Ready {
                            bytes,
                            shutdown: false,
                            trace: seal(tb, Outcome::Replan),
                        };
                    }
                    Attach::Resolved(_, Err(err)) => {
                        let bytes = encode_span(&mut tb, || self.render_error(id, &err));
                        return Submission::Ready {
                            bytes,
                            shutdown: false,
                            trace: seal(tb, outcome_for_error(&err)),
                        };
                    }
                    Attach::Leader(slot) => (slot, PlanSource::Synthesized),
                    Attach::Follower(slot) => (slot, PlanSource::Coalesced),
                };
                let sub_shared = self.shared.clone();
                let sub_slot = slot.clone();
                let prior_plan = prep.prior.clone();
                dispatch::subscribe(
                    &slot,
                    Box::new(move |result: &PlanResult| {
                        let mut tb = tb;
                        attach_slot_spans(&mut tb, &sub_slot);
                        let (bytes, outcome) = match result {
                            Ok(plan) => {
                                sub_shared.counters.replanned.fetch_add(1, Ordering::Relaxed);
                                let profile =
                                    profile_for(&sub_shared, fp, want_profile, true, &mut tb);
                                let diff = replan_diff(prior_fp, &prior_plan, plan);
                                let bytes = encode_span(&mut tb, || {
                                    plan_bytes(
                                        id,
                                        fp,
                                        source,
                                        plan,
                                        Some(&diff),
                                        profile.as_deref(),
                                        stream_chunk,
                                    )
                                });
                                (bytes, Outcome::Replan)
                            }
                            Err(err) => {
                                sub_shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                                let bytes =
                                    encode_span(&mut tb, || frame_bytes(&error_frame(id, err)));
                                (bytes, outcome_for_error(err))
                            }
                        };
                        deliver(bytes, seal(tb, outcome));
                    }),
                );
                Submission::Pending
            }
        }
    }

    pub(crate) fn render_error(&self, id: u64, err: &WireError) -> Vec<u8> {
        self.shared.counters.errors.fetch_add(1, Ordering::Relaxed);
        frame_bytes(&error_frame(id, err))
    }

    fn stats_frame(&self, id: u64) -> Value {
        Value::obj(vec![
            ("id", Value::int(id)),
            ("ok", Value::Bool(true)),
            ("stats", self.stats().encode()),
        ])
    }

    /// `{"id":N,"ok":true,"metrics":{...}}` — the latency histograms.
    fn metrics_frame(&self, id: u64) -> Value {
        Value::obj(vec![
            ("id", Value::int(id)),
            ("ok", Value::Bool(true)),
            ("metrics", self.shared.telemetry.metrics_snapshot().encode()),
        ])
    }

    /// `{"id":N,"ok":true,"traces":[...]}` — the most recent completed
    /// request traces, newest first.
    fn trace_frame(&self, id: u64, n: usize, min_ms: u64) -> Value {
        let traces = self
            .shared
            .telemetry
            .recent_traces(n, min_ms)
            .iter()
            .map(|t| encode_trace(t))
            .collect();
        Value::obj(vec![
            ("id", Value::int(id)),
            ("ok", Value::Bool(true)),
            ("traces", Value::Arr(traces)),
        ])
    }

    /// `{"id":N,"ok":true,"ring":{...},"self":...,"installed":...}` — the
    /// daemon's current ring view, after applying an install if the
    /// request carried one. Installs are idempotent and monotonic: only a
    /// strictly newer membership epoch replaces the current ring, and the
    /// response always reports the ring the daemon actually holds.
    fn ring_frame(&self, id: u64, install: Option<Box<RingInstall>>) -> Value {
        let shared = &self.shared;
        let installed = match install {
            None => false,
            Some(ri) => shared.cluster.install(ri.info, ri.self_addr),
        };
        let (ring, self_addr) = match shared.cluster.current() {
            Some((ring, addr)) => (ring.info().clone(), addr),
            None => (
                RingInfo::empty(shared.config.ring_vnodes, shared.config.ring_replication),
                String::new(),
            ),
        };
        Value::obj(vec![
            ("id", Value::int(id)),
            ("ok", Value::Bool(true)),
            ("ring", ring.encode()),
            ("self", Value::Str(self_addr)),
            ("installed", Value::Bool(installed)),
        ])
    }

    /// Stores a peer-replicated plan: cache insert, replan-index record
    /// (when the pushed triple verifies against the fingerprint), and a
    /// persistence append — an acknowledged replica survives this
    /// daemon's restart too. Never counts as a synthesis: replication
    /// moves plans, it does not create them.
    fn replicate_frame(&self, id: u64, rep: ReplicateRequest) -> Value {
        let shared = &self.shared;
        shared.counters.replicated_in.fetch_add(1, Ordering::Relaxed);
        // Trust the pushed triple only if it fingerprints back to the
        // record's key — the same rule boot recovery applies to the log.
        let req = rep.req.filter(|req| {
            RequestTriple::decode_req(req).is_some_and(|t| {
                request_fingerprint_values(&t.graph, &t.cluster, &t.options) == rep.fp
            })
        });
        if let Some(req) = &req {
            if let Some(triple) = RequestTriple::decode_req(req) {
                lock_recover(&shared.replans).record(rep.fp, Arc::new(triple));
            }
        }
        let plan = Arc::new(rep.plan);
        let verdict = shared.cache.insert(rep.fp, plan.clone());
        if !matches!(verdict, crate::cache::Admission::Rejected { .. }) {
            if let Some(persist) = &shared.persist {
                let _ = persist.append_with_req(&shared.cache, rep.fp, plan.as_ref(), req.as_ref());
            }
        }
        ok_frame(id)
    }

    /// Forwards a missed `plan` to the fingerprint's ring owner on a peer
    /// thread. The owner's canonical response line is relayed unchanged
    /// (re-chunked locally when the client streams); an unreachable or
    /// ownership-denying owner falls back to local synthesis — a routing
    /// failure degrades to single-daemon behavior, never to an error.
    #[allow(clippy::too_many_arguments)]
    fn proxy_plan(
        &self,
        id: u64,
        fp: u64,
        plan: Box<PlanRequest>,
        owner: String,
        epoch: u64,
        stream_chunk: Option<usize>,
        tb: Option<TraceBuilder>,
        deliver: Deliver,
    ) {
        let shared = self.shared.clone();
        // The forward is the same request stamped with our ring epoch and
        // never streamed — streaming is client-transport framing, applied
        // locally to the owner's canonical line.
        let mut fields = vec![
            ("op", Value::Str("plan".into())),
            ("id", Value::int(id)),
            ("graph", plan.graph.clone()),
            ("cluster", plan.cluster.clone()),
            ("options", plan.options.clone()),
        ];
        if let Some(ttl) = plan.ttl_ms {
            fields.push(("ttl_ms", Value::int(ttl)));
        }
        if plan.profile {
            fields.push(("profile", Value::Bool(true)));
        }
        fields.push(("epoch", Value::int(epoch)));
        let line = Value::obj(fields).render();
        self.shared.cluster.peers.spawn(Box::new(move || {
            let reply = shared
                .cluster
                .peers
                .call(&owner, &line)
                .ok()
                .and_then(|resp| classify_proxy_reply(&resp).map(|r| (resp, r)));
            match reply {
                Some((resp, ProxyReply::Pass { outcome, is_plan })) => {
                    let mut tb = tb;
                    let bytes =
                        encode_span(&mut tb, || proxied_bytes(id, resp, is_plan, stream_chunk));
                    deliver(bytes, seal(tb, outcome));
                }
                // The owner denied ownership, was unreachable, or answered
                // garbage: synthesize locally.
                _ => plan_attach_deliver(
                    &shared,
                    id,
                    fp,
                    &plan.graph,
                    &plan.cluster,
                    &plan.options,
                    plan.ttl_ms,
                    plan.profile,
                    stream_chunk,
                    None,
                    tb,
                    deliver,
                ),
            }
        }));
    }

    /// Forwards a `replan` to the prior fingerprint's ring owner, exactly
    /// as [`PlanService::proxy_plan`] forwards a `plan`. When this daemon
    /// could prepare the rebase locally (`fallback`), an unreachable owner
    /// degrades to a local warm-seeded synthesis; otherwise the request
    /// fails with the `unknown_fingerprint` it would have failed with on
    /// a single daemon.
    #[allow(clippy::too_many_arguments)]
    fn proxy_replan(
        &self,
        id: u64,
        rp: Box<ReplanRequest>,
        owner: String,
        epoch: u64,
        stream_chunk: Option<usize>,
        fallback: Option<replan::PreparedReplan>,
        tb: Option<TraceBuilder>,
        deliver: Deliver,
    ) {
        let shared = self.shared.clone();
        let mut fields = vec![
            ("op", Value::Str("replan".into())),
            ("id", Value::int(id)),
            ("prior", Value::Str(render_fingerprint(rp.prior))),
            ("delta", rp.delta.encode()),
        ];
        if let Some(ttl) = rp.ttl_ms {
            fields.push(("ttl_ms", Value::int(ttl)));
        }
        if rp.profile {
            fields.push(("profile", Value::Bool(true)));
        }
        fields.push(("epoch", Value::int(epoch)));
        let line = Value::obj(fields).render();
        self.shared.cluster.peers.spawn(Box::new(move || {
            let reply = shared
                .cluster
                .peers
                .call(&owner, &line)
                .ok()
                .and_then(|resp| classify_proxy_reply(&resp).map(|r| (resp, r)));
            match reply {
                Some((resp, ProxyReply::Pass { outcome, is_plan })) => {
                    let mut tb = tb;
                    let bytes =
                        encode_span(&mut tb, || proxied_bytes(id, resp, is_plan, stream_chunk));
                    deliver(bytes, seal(tb, outcome));
                }
                _ => match fallback {
                    Some(prep) => plan_attach_deliver(
                        &shared,
                        id,
                        prep.fp,
                        &prep.triple.graph,
                        &prep.triple.cluster,
                        &prep.triple.options,
                        rp.ttl_ms,
                        rp.profile,
                        stream_chunk,
                        Some((rp.prior, prep.prior.clone())),
                        tb,
                        deliver,
                    ),
                    None => {
                        shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                        let err = WireError::new(
                            UNKNOWN_FINGERPRINT_KIND,
                            format!(
                                "no request recorded for {} here and its ring owner is \
                                 unreachable; plan it cold first",
                                render_fingerprint(rp.prior)
                            ),
                        );
                        let mut tb = tb;
                        let bytes = encode_span(&mut tb, || frame_bytes(&error_frame(id, &err)));
                        deliver(bytes, seal(tb, outcome_for_error(&err)));
                    }
                },
            }
        }));
    }

    /// A consistent stats snapshot: every gauge is sampled exactly once,
    /// in one pass, so the frame's `entries`/`in_flight`/telemetry totals
    /// describe the same instant instead of racing each other between
    /// field reads.
    pub fn stats(&self) -> StatsSnapshot {
        let shared = &self.shared;
        let (entries, evictions, admission_rejected, expired) = shared.cache.stats_sample();
        let in_flight = lock_recover(&shared.inflight).len() as u64;
        let (traces_recorded, metrics_samples) = shared.telemetry.totals();
        StatsSnapshot {
            entries,
            hits: shared.counters.hits.load(Ordering::Relaxed),
            misses: shared.counters.misses.load(Ordering::Relaxed),
            coalesced: shared.counters.coalesced.load(Ordering::Relaxed),
            synthesized: shared.counters.synthesized.load(Ordering::Relaxed),
            evictions,
            warm_seeded: shared.counters.warm_seeded.load(Ordering::Relaxed),
            errors: shared.counters.errors.load(Ordering::Relaxed),
            in_flight,
            shed: shared.counters.shed.load(Ordering::Relaxed),
            admission_rejected,
            expired,
            replanned: shared.counters.replanned.load(Ordering::Relaxed),
            persist_errors: shared.persist.as_ref().map(PersistLog::errors).unwrap_or(0),
            persistence_degraded: shared.persist.as_ref().is_some_and(PersistLog::degraded) as u64,
            panics: shared.counters.panics.load(Ordering::Relaxed),
            open_connections: self.gauges.open_connections.load(Ordering::Relaxed),
            peak_connections: self.gauges.peak_connections.load(Ordering::Relaxed),
            read_buf_hwm: self.gauges.read_buf_hwm.load(Ordering::Relaxed),
            write_buf_hwm: self.gauges.write_buf_hwm.load(Ordering::Relaxed),
            idle_closed: self.gauges.idle_closed.load(Ordering::Relaxed),
            traces_recorded,
            metrics_samples,
            proxied: shared.counters.proxied.load(Ordering::Relaxed),
            redirected: shared.counters.redirected.load(Ordering::Relaxed),
            replicated_in: shared.counters.replicated_in.load(Ordering::Relaxed),
            replicated_out: shared.counters.replicated_out.load(Ordering::Relaxed),
            ring_epoch: shared.cluster.epoch(),
        }
    }

    /// The telemetry hub, for the transport's span stamping and trace
    /// sealing.
    pub(crate) fn telemetry(&self) -> &Arc<Telemetry> {
        &self.shared.telemetry
    }

    /// Drains the queue and stops the workers, then flushes any unsynced
    /// appends. Idempotent. A worker that somehow died of an un-isolated
    /// panic is logged as a failed join, never propagated — shutdown must
    /// always complete.
    pub fn stop(&self) {
        let (queue, cvar) = &self.shared.queue;
        lock_recover(queue).shutdown = true;
        cvar.notify_all();
        for handle in lock_recover(&self.workers).drain(..) {
            let _ = handle.join();
        }
        self.shared.cluster.peers.stop();
        if let Some(persist) = &self.shared.persist {
            persist.sync();
        }
    }
}

impl Drop for PlanService {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------------
// Request parsing shared by the sync and async paths
// ---------------------------------------------------------------------------

struct PlanRequest {
    graph: Value,
    cluster: Value,
    options: Value,
    ttl_ms: Option<u64>,
    stream: bool,
    /// `"profile": true` — include the synthesis profile in the response.
    profile: bool,
    /// The ring epoch the sender routed with, if it routed at all. A
    /// stamp at a different epoch than this daemon's means the sender's
    /// ring view is inconsistent with ours — answered with a `not_owner`
    /// redirect instead of a proxy, so ownership disagreements never
    /// chain daemon-to-daemon forwards.
    epoch: Option<u64>,
}

struct ReplanRequest {
    /// Fingerprint of the previously planned request to start from.
    prior: u64,
    /// How the cluster changed since that plan.
    delta: ClusterDelta,
    ttl_ms: Option<u64>,
    stream: bool,
    /// `"profile": true` — include the synthesis profile in the response.
    profile: bool,
    /// See [`PlanRequest::epoch`]. A replan routes by `prior` — the
    /// daemon owning the prior fingerprint holds its triple and plan.
    epoch: Option<u64>,
}

/// A `ring` request carrying a membership record to install.
struct RingInstall {
    info: RingInfo,
    /// The address this daemon occupies on that ring (daemons do not
    /// guess their own externally-routable address).
    self_addr: String,
}

/// A peer's `replicate` push: store this plan under this fingerprint.
struct ReplicateRequest {
    fp: u64,
    plan: CachedPlan,
    /// The request triple behind `fp`, when the sender still had it —
    /// lets the replica answer replans against the fingerprint too.
    req: Option<Value>,
}

enum ReqOp {
    Plan(Box<PlanRequest>),
    Replan(Box<ReplanRequest>),
    Stats,
    Metrics,
    Trace {
        n: usize,
        min_ms: u64,
    },
    /// Query (`None`) or install (`Some`) the cluster membership ring.
    Ring(Option<Box<RingInstall>>),
    /// A peer replicating a freshly synthesized plan to this daemon.
    Replicate(Box<ReplicateRequest>),
    Shutdown,
}

impl ReqOp {
    /// The request's verb, for telemetry labeling.
    fn verb(&self) -> Verb {
        match self {
            ReqOp::Plan(_) => Verb::Plan,
            ReqOp::Replan(_) => Verb::Replan,
            ReqOp::Stats => Verb::Stats,
            ReqOp::Metrics => Verb::Metrics,
            ReqOp::Trace { .. } => Verb::Trace,
            ReqOp::Ring(_) => Verb::Ring,
            ReqOp::Replicate(_) => Verb::Replicate,
            ReqOp::Shutdown => Verb::Shutdown,
        }
    }
}

struct Request {
    id: u64,
    op: ReqOp,
}

impl Request {
    fn parse(line: &str) -> Result<Request, (u64, WireError)> {
        let v = parse(line).map_err(|e| (0, WireError::from(e)))?;
        let id = v.get("id").and_then(|x| x.as_u64().ok()).unwrap_or(0);
        let op = v
            .get("op")
            .and_then(|x| x.as_str().ok())
            .ok_or_else(|| (id, WireError::new("decode", "missing `op`")))?;
        match op {
            "plan" => {
                let fetch = |key: &str| v.field(key).cloned().map_err(|e| (id, WireError::from(e)));
                let (graph, cluster, options) =
                    (fetch("graph")?, fetch("cluster")?, fetch("options")?);
                let (ttl_ms, stream, profile, epoch) = parse_ttl_stream(&v, id)?;
                Ok(Request {
                    id,
                    op: ReqOp::Plan(Box::new(PlanRequest {
                        graph,
                        cluster,
                        options,
                        ttl_ms,
                        stream,
                        profile,
                        epoch,
                    })),
                })
            }
            "replan" => {
                // Decode the delta at parse time: a malformed delta is a
                // protocol error, answered before any lookups run.
                let prior = v
                    .field("prior")
                    .and_then(|x| x.as_str())
                    .and_then(parse_fingerprint)
                    .map_err(|e| (id, WireError::from(e)))?;
                let delta_value = v.field("delta").map_err(|e| (id, WireError::from(e)))?;
                let delta =
                    ClusterDelta::decode(delta_value).map_err(|e| (id, WireError::from(e)))?;
                let (ttl_ms, stream, profile, epoch) = parse_ttl_stream(&v, id)?;
                Ok(Request {
                    id,
                    op: ReqOp::Replan(Box::new(ReplanRequest {
                        prior,
                        delta,
                        ttl_ms,
                        stream,
                        profile,
                        epoch,
                    })),
                })
            }
            "ring" => {
                // `{"op":"ring"}` queries; adding `"ring"` + `"self"`
                // installs that membership record on this daemon.
                let install = match v.get("ring") {
                    None | Some(Value::Null) => None,
                    Some(ring) => {
                        let info = RingInfo::decode(ring).map_err(|e| (id, WireError::from(e)))?;
                        let self_addr = v
                            .field("self")
                            .and_then(|x| x.as_str())
                            .map_err(|e| (id, WireError::from(e)))?
                            .to_string();
                        Some(Box::new(RingInstall { info, self_addr }))
                    }
                };
                Ok(Request { id, op: ReqOp::Ring(install) })
            }
            "replicate" => {
                let fp = v
                    .field("fp")
                    .and_then(|x| x.as_str())
                    .and_then(parse_fingerprint)
                    .map_err(|e| (id, WireError::from(e)))?;
                let plan_value = v.field("plan").map_err(|e| (id, WireError::from(e)))?;
                let plan = CachedPlan::decode(plan_value).map_err(|e| (id, WireError::from(e)))?;
                let req = match v.get("req") {
                    None | Some(Value::Null) => None,
                    Some(req) => Some(req.clone()),
                };
                Ok(Request {
                    id,
                    op: ReqOp::Replicate(Box::new(ReplicateRequest { fp, plan, req })),
                })
            }
            "stats" => Ok(Request { id, op: ReqOp::Stats }),
            "metrics" => Ok(Request { id, op: ReqOp::Metrics }),
            "trace" => {
                // Both fields optional: `n` caps how many recent traces
                // come back (default 16), `min_ms` keeps only requests at
                // least that slow (default 0 = all).
                let n = match v.get("n") {
                    None | Some(Value::Null) => 16,
                    Some(x) => x.as_usize().map_err(|e| (id, WireError::from(e)))?,
                };
                let min_ms = match v.get("min_ms") {
                    None | Some(Value::Null) => 0,
                    Some(x) => x.as_u64().map_err(|e| (id, WireError::from(e)))?,
                };
                Ok(Request { id, op: ReqOp::Trace { n, min_ms } })
            }
            "shutdown" => Ok(Request { id, op: ReqOp::Shutdown }),
            other => Err((id, WireError::new("decode", format!("unknown op `{other}`")))),
        }
    }
}

/// The optional `ttl_ms`, `stream`, `profile`, and `epoch` request
/// fields, shared by `plan` and `replan`.
#[allow(clippy::type_complexity)]
fn parse_ttl_stream(
    v: &Value,
    id: u64,
) -> Result<(Option<u64>, bool, bool, Option<u64>), (u64, WireError)> {
    // Optional cache-lifetime request: how long the synthesized plan
    // should stay valid (a tenant planning for a cluster it is about to
    // decommission bounds its own footprint).
    let ttl_ms = match v.get("ttl_ms") {
        None | Some(Value::Null) => None,
        Some(ms) => {
            let ms = ms.as_u64().map_err(|e| (id, WireError::from(e)))?;
            // Reject before any work: an unbounded TTL times 1e6 (ns)
            // would leave the codec's exact-integer range and panic the
            // persisting worker.
            if ms > MAX_TTL_MS {
                return Err((
                    id,
                    WireError::new(
                        "decode",
                        format!("ttl_ms {ms} exceeds the maximum {MAX_TTL_MS}"),
                    ),
                ));
            }
            Some(ms)
        }
    };
    let stream = match v.get("stream") {
        None | Some(Value::Null) => false,
        Some(flag) => flag.as_bool().map_err(|e| (id, WireError::from(e)))?,
    };
    let profile = match v.get("profile") {
        None | Some(Value::Null) => false,
        Some(flag) => flag.as_bool().map_err(|e| (id, WireError::from(e)))?,
    };
    // The sender's ring epoch, stamped by ring-routing clients and by
    // daemon-to-daemon proxy forwards.
    let epoch = match v.get("epoch") {
        None | Some(Value::Null) => None,
        Some(e) => Some(e.as_u64().map_err(|e| (id, WireError::from(e)))?),
    };
    Ok((ttl_ms, stream, profile, epoch))
}

// ---------------------------------------------------------------------------
// Cluster proxying
// ---------------------------------------------------------------------------

/// What a proxied owner's response line means for the local request.
enum ProxyReply {
    /// Relay the line to the client.
    Pass {
        outcome: Outcome,
        /// A successful plan-bearing frame — the only shape that streams.
        is_plan: bool,
    },
    /// The peer denies owning the fingerprint (our ring view is stale, or
    /// its is): fall back rather than relay the denial.
    NotOwner,
}

/// Classifies the owner's response line. `None` — unparseable or not a
/// response frame — is treated like an I/O failure by callers.
fn classify_proxy_reply(resp: &str) -> Option<ProxyReply> {
    let v = parse(resp).ok()?;
    let ok = v.get("ok")?.as_bool().ok()?;
    if !ok {
        let err = WireError::decode(v.get("error")?).ok()?;
        if err.is_not_owner() {
            return Some(ProxyReply::NotOwner);
        }
        return Some(ProxyReply::Pass { outcome: outcome_for_error(&err), is_plan: false });
    }
    let outcome = if v.get("replan").is_some() {
        Outcome::Replan
    } else {
        match v.get("source").and_then(|s| s.as_str().ok()) {
            Some("cache") => Outcome::Hit,
            Some("coalesced") => Outcome::Coalesced,
            _ => Outcome::Miss,
        }
    };
    Some(ProxyReply::Pass { outcome, is_plan: v.get("plan").is_some() })
}

/// The wire bytes relayed for a proxied response: the owner's canonical
/// line as-is — or, when the client asked to stream and the line is a
/// successful plan frame, its locally chunked encoding. Canonical JSON
/// makes the relay byte-identical to a locally rendered response.
fn proxied_bytes(id: u64, line: String, is_plan: bool, stream_chunk: Option<usize>) -> Vec<u8> {
    match stream_chunk {
        Some(chunk) if is_plan => {
            let mut bytes = Vec::with_capacity(line.len() + line.len() / 8);
            for frame in encode_stream(id, &line, chunk) {
                bytes.extend_from_slice(frame.as_bytes());
                bytes.push(b'\n');
            }
            bytes
        }
        _ => {
            let mut bytes = line.into_bytes();
            bytes.push(b'\n');
            bytes
        }
    }
}

/// The local-resolution tail shared by every proxy fallback: re-probe the
/// cache (the plan may have arrived — replication, a raced request —
/// since the routing decision), then attach to the single-flight dispatch
/// and deliver the rendered response when it resolves. `prior` carries a
/// replan's prior plan: it seeds the synthesis warm and produces the
/// response's `replan` diff.
#[allow(clippy::too_many_arguments)]
fn plan_attach_deliver(
    shared: &Arc<Shared>,
    id: u64,
    fp: u64,
    graph: &Value,
    cluster: &Value,
    options: &Value,
    ttl_ms: Option<u64>,
    want_profile: bool,
    stream_chunk: Option<usize>,
    prior: Option<(u64, Arc<CachedPlan>)>,
    mut tb: Option<TraceBuilder>,
    deliver: Deliver,
) {
    if let Some(cached) = shared.cache.get(fp) {
        shared.counters.hits.fetch_add(1, Ordering::Relaxed);
        if prior.is_some() {
            shared.counters.replanned.fetch_add(1, Ordering::Relaxed);
        }
        let profile = profile_for(shared, fp, want_profile, false, &mut tb);
        let diff = prior.as_ref().map(|(pfp, pplan)| replan_diff(*pfp, pplan, &cached));
        let outcome = if prior.is_some() { Outcome::Replan } else { Outcome::Hit };
        let bytes = encode_span(&mut tb, || {
            plan_bytes(
                id,
                fp,
                PlanSource::Cache,
                &cached,
                diff.as_ref(),
                profile.as_deref(),
                stream_chunk,
            )
        });
        deliver(bytes, seal(tb, outcome));
        return;
    }
    let warm = prior.as_ref().map(|(_, plan)| plan.clone());
    let (slot, source) = match dispatch::attach(shared, fp, graph, cluster, options, ttl_ms, warm) {
        Attach::Resolved(source, Ok(cached)) => {
            if prior.is_some() {
                shared.counters.replanned.fetch_add(1, Ordering::Relaxed);
            }
            let profile = profile_for(shared, fp, want_profile, false, &mut tb);
            let diff = prior.as_ref().map(|(pfp, pplan)| replan_diff(*pfp, pplan, &cached));
            let outcome =
                if prior.is_some() { Outcome::Replan } else { outcome_for_source(source) };
            let bytes = encode_span(&mut tb, || {
                plan_bytes(id, fp, source, &cached, diff.as_ref(), profile.as_deref(), stream_chunk)
            });
            deliver(bytes, seal(tb, outcome));
            return;
        }
        Attach::Resolved(_, Err(err)) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            let bytes = encode_span(&mut tb, || frame_bytes(&error_frame(id, &err)));
            deliver(bytes, seal(tb, outcome_for_error(&err)));
            return;
        }
        Attach::Leader(slot) => (slot, PlanSource::Synthesized),
        Attach::Follower(slot) => (slot, PlanSource::Coalesced),
    };
    let sub_shared = shared.clone();
    let sub_slot = slot.clone();
    dispatch::subscribe(
        &slot,
        Box::new(move |result: &PlanResult| {
            let mut tb = tb;
            attach_slot_spans(&mut tb, &sub_slot);
            let (bytes, outcome) = match result {
                Ok(plan) => {
                    if prior.is_some() {
                        sub_shared.counters.replanned.fetch_add(1, Ordering::Relaxed);
                    }
                    let profile = profile_for(&sub_shared, fp, want_profile, true, &mut tb);
                    let diff = prior.as_ref().map(|(pfp, pplan)| replan_diff(*pfp, pplan, plan));
                    let outcome =
                        if prior.is_some() { Outcome::Replan } else { outcome_for_source(source) };
                    let bytes = encode_span(&mut tb, || {
                        plan_bytes(
                            id,
                            fp,
                            source,
                            plan,
                            diff.as_ref(),
                            profile.as_deref(),
                            stream_chunk,
                        )
                    });
                    (bytes, outcome)
                }
                Err(err) => {
                    sub_shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                    let bytes = encode_span(&mut tb, || frame_bytes(&error_frame(id, err)));
                    (bytes, outcome_for_error(err))
                }
            };
            deliver(bytes, seal(tb, outcome));
        }),
    );
}

// ---------------------------------------------------------------------------
// Frame rendering
// ---------------------------------------------------------------------------

/// `{"id":N,"ok":false,"error":{...}}`.
pub(crate) fn error_frame(id: u64, err: &WireError) -> Value {
    Value::obj(vec![("id", Value::int(id)), ("ok", Value::Bool(false)), ("error", err.encode())])
}

/// `{"id":N,"ok":true}`.
fn ok_frame(id: u64) -> Value {
    Value::obj(vec![("id", Value::int(id)), ("ok", Value::Bool(true))])
}

/// The replan response's diff: compares cached plans by their canonical
/// instruction encodings and by the plan-level (ratio-final) estimated
/// times — the same numbers the response frames carry.
fn replan_diff(prior_fp: u64, prior: &CachedPlan, next: &CachedPlan) -> PlanDiff {
    PlanDiff::between(
        prior_fp,
        &prior.program,
        prior.estimated_time,
        &next.program,
        next.estimated_time,
    )
}

/// `{"id":N,"ok":true,"fingerprint":...,"source":...,"plan":{...}}`,
/// optionally extended with a `replan` diff field (the response shape of
/// the `replan` verb) and/or a `profile` field (when the request carried
/// `"profile": true` and the synthesis profile is still indexed).
fn plan_frame_with(
    id: u64,
    fp: u64,
    source: PlanSource,
    plan: &CachedPlan,
    diff: Option<&PlanDiff>,
    profile: Option<&SynthProfile>,
) -> Value {
    let mut fields = vec![
        ("id", Value::int(id)),
        ("ok", Value::Bool(true)),
        ("fingerprint", Value::Str(render_fingerprint(fp))),
        ("source", Value::Str(source.as_str().into())),
        (
            "plan",
            Value::obj(vec![
                ("rounds", plan.rounds.encode()),
                ("estimated_time", Value::Num(plan.estimated_time)),
                ("ratios", plan.ratios.encode()),
                ("program", plan.program.encode()),
            ]),
        ),
    ];
    if let Some(diff) = diff {
        fields.push(("replan", diff.encode()));
    }
    if let Some(profile) = profile {
        fields.push(("profile", encode_profile(profile)));
    }
    Value::obj(fields)
}

/// One rendered frame plus its newline.
pub(crate) fn frame_bytes(frame: &Value) -> Vec<u8> {
    let mut bytes = frame.render().into_bytes();
    bytes.push(b'\n');
    bytes
}

/// The wire bytes of a successful plan response: the canonical single
/// line, or — when the request advertised `"stream": true` — its chunked
/// encoding. The stream payload *is* the canonical line, so reassembly is
/// byte-identical to the unstreamed response.
pub(crate) fn plan_bytes(
    id: u64,
    fp: u64,
    source: PlanSource,
    plan: &CachedPlan,
    diff: Option<&PlanDiff>,
    profile: Option<&SynthProfile>,
    stream_chunk: Option<usize>,
) -> Vec<u8> {
    let line = plan_frame_with(id, fp, source, plan, diff, profile).render();
    match stream_chunk {
        None => {
            let mut bytes = line.into_bytes();
            bytes.push(b'\n');
            bytes
        }
        Some(chunk) => {
            let mut bytes = Vec::with_capacity(line.len() + line.len() / 8);
            for frame in encode_stream(id, &line, chunk) {
                bytes.extend_from_slice(frame.as_bytes());
                bytes.push(b'\n');
            }
            bytes
        }
    }
}
