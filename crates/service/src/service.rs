//! The daemon's request brain, independent of any transport: feed it a
//! request line, get response bytes. Every request — from the TCP event
//! loop, the benches, or the in-process tests — goes through
//! [`PlanService::submit`]; [`PlanService::handle_line`] is a blocking
//! adapter over it.

use std::borrow::Borrow;
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
use crate::replan::{self, PreparedReplan, ReplanIndex, RequestTriple};
use crate::stats::{Counters, NetGauges, StatsSnapshot};
use crate::sync::lock_recover;
use crate::telemetry::{
    encode_profile, encode_trace, outcome_for_error, outcome_for_source, PendingTrace,
    ProfileIndex, Telemetry,
};

/// A callback receiving the rendered response bytes of a request
/// answered after [`PlanService::submit`] returned, plus the request's
/// trace (sealed by the caller once the bytes are out). Runs on the
/// resolving worker or peer thread; must be quick (enqueue + wake, or a
/// channel send).
pub(crate) type Deliver = Box<dyn FnOnce(Vec<u8>, Option<PendingTrace>) + Send>;

/// How a plan response was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PlanSource {
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
    /// plus the request's trace for the caller to seal once the bytes are
    /// out.
    Ready { bytes: Vec<u8>, shutdown: bool, trace: Option<PendingTrace> },
    /// A synthesis or a proxy hop is in flight; the `deliver` callback
    /// will produce the bytes (and the trace) on another thread.
    Pending,
}

/// Packages a trace builder with its outcome for the caller to seal.
fn seal(tb: Option<TraceBuilder>, outcome: Outcome) -> Option<PendingTrace> {
    tb.map(|builder| PendingTrace { builder, outcome })
}

/// A complete answer to a request that does not shut the daemon down.
fn ready(bytes: Vec<u8>, tb: Option<TraceBuilder>, outcome: Outcome) -> Submission {
    Submission::Ready { bytes, shutdown: false, trace: seal(tb, outcome) }
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

/// Renders a verb's frame under an `encode` span as a `Ready` answer.
fn verb_ready(
    tb: Option<TraceBuilder>,
    shutdown: bool,
    frame: impl FnOnce() -> Value,
) -> Submission {
    let mut tb = tb;
    let bytes = encode_span(&mut tb, || frame_bytes(&frame()));
    Submission::Ready { bytes, shutdown, trace: seal(tb, Outcome::Ok) }
}

/// Counts an error frame and renders it.
fn error_bytes(shared: &Shared, id: u64, err: &WireError) -> Vec<u8> {
    shared.counters.errors.fetch_add(1, Ordering::Relaxed);
    frame_bytes(&error_frame(id, err))
}

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

/// How to answer one plan-bearing request (`plan` or `replan`) once its
/// plan is known, wherever it was resolved: inline, by a subscribed
/// renderer, or by a proxy's local fallback.
struct Answer {
    id: u64,
    /// The fingerprint the plan answers (a replan's post-delta one).
    fp: u64,
    /// `"profile": true` — include the synthesis profile.
    want_profile: bool,
    /// The chunk size when the client asked to stream.
    stream_chunk: Option<usize>,
    /// A replan's prior fingerprint and plan: the synthesis's warm seed
    /// and the base of the response's `replan` diff.
    prior: Option<(u64, Arc<CachedPlan>)>,
}

impl Answer {
    /// Renders a plan answer; a replan also counts as `replanned`.
    /// `synthesized` says the request waited on the synthesis, so its
    /// profile is folded into the trace.
    fn plan(
        &self,
        shared: &Shared,
        source: PlanSource,
        plan: &CachedPlan,
        synthesized: bool,
        tb: &mut Option<TraceBuilder>,
    ) -> (Vec<u8>, Outcome) {
        if self.prior.is_some() {
            shared.counters.replanned.fetch_add(1, Ordering::Relaxed);
        }
        let profile = profile_for(shared, self.fp, self.want_profile, synthesized, tb);
        let diff = self.prior.as_ref().map(|(fp, prior)| replan_diff(*fp, prior, plan));
        let bytes = encode_span(tb, || {
            let frame =
                plan_frame(self.id, self.fp, source, plan, diff.as_ref(), profile.as_deref());
            line_bytes(self.id, frame.render(), self.stream_chunk)
        });
        let outcome =
            if self.prior.is_some() { Outcome::Replan } else { outcome_for_source(source) };
        (bytes, outcome)
    }

    /// Renders a single-flight result: the plan, or a counted error frame.
    fn result(
        &self,
        shared: &Shared,
        source: PlanSource,
        result: &PlanResult,
        synthesized: bool,
        tb: &mut Option<TraceBuilder>,
    ) -> (Vec<u8>, Outcome) {
        match result {
            Ok(plan) => self.plan(shared, source, plan, synthesized, tb),
            Err(err) => {
                (encode_span(tb, || error_bytes(shared, self.id, err)), outcome_for_error(err))
            }
        }
    }
}

/// The one way a missed plan-bearing request is resolved locally: attach
/// to single-flight dispatch (which re-probes the cache under leadership
/// and may shed), render an outcome known at once as `Ready`, and
/// otherwise subscribe one renderer that hands the bytes to `deliver`
/// when the synthesis resolves. A replan's prior plan (`answer.prior`)
/// seeds the synthesis warm. On `Ready`, `deliver` comes back unused for
/// callers that must still send the answer themselves.
fn resolve(
    shared: &Arc<Shared>,
    answer: Answer,
    triple: &RequestTriple,
    ttl_ms: Option<u64>,
    mut tb: Option<TraceBuilder>,
    deliver: Deliver,
) -> (Submission, Option<Deliver>) {
    let warm = answer.prior.as_ref().map(|(_, plan)| plan.clone());
    let (slot, source) = match dispatch::attach(
        shared,
        answer.fp,
        &triple.graph,
        &triple.cluster,
        &triple.options,
        ttl_ms,
        warm,
    ) {
        Attach::Resolved(source, result) => {
            let (bytes, outcome) = answer.result(shared, source, &result, false, &mut tb);
            return (ready(bytes, tb, outcome), Some(deliver));
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
            let (bytes, outcome) = answer.result(&sub_shared, source, result, true, &mut tb);
            deliver(bytes, seal(tb, outcome));
        }),
    );
    (Submission::Pending, None)
}

/// A proxy's local fallback: [`resolve`] on the peer thread, delivering
/// an inline answer too.
fn resolve_locally(
    shared: Arc<Shared>,
    answer: Answer,
    triple: impl Borrow<RequestTriple> + Send + 'static,
    ttl_ms: Option<u64>,
) -> impl FnOnce(Option<TraceBuilder>, Deliver) + Send + 'static {
    move |tb, deliver| {
        if let (Submission::Ready { bytes, trace, .. }, Some(deliver)) =
            resolve(&shared, answer, triple.borrow(), ttl_ms, tb, deliver)
        {
            deliver(bytes, trace);
        }
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

    /// Handles one request line and blocks until it is answered; returns
    /// the response (no trailing newline) and whether the request asked
    /// the daemon to shut down.
    ///
    /// A blocking adapter over [`PlanService::submit`], the path every
    /// socket request takes, so the response is exactly what a socket
    /// client reads: for a `"stream": true` plan, the chunk frames and
    /// the `done` frame, one per line. The request's trace is sealed here
    /// (there is no later flush to wait for).
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let deliver: Deliver = Box::new(move |bytes, trace| {
            let _ = tx.send((bytes, trace));
        });
        let (bytes, shutdown, trace) =
            match self.submit(line, self.shared.telemetry.builder(), deliver) {
                Submission::Ready { bytes, shutdown, trace } => (bytes, shutdown, trace),
                Submission::Pending => {
                    // Only a stopping service drops a pending request.
                    let (bytes, trace) = rx.recv().unwrap_or_else(|_| {
                        let err = WireError::new("shutdown", "service is shutting down");
                        (error_bytes(&self.shared, 0, &err), None)
                    });
                    (bytes, false, trace)
                }
            };
        if let Some(trace) = trace {
            self.shared.telemetry.finish_pending(trace);
        }
        let mut response = String::from_utf8(bytes).expect("responses render as UTF-8");
        response.pop();
        (response, shutdown)
    }

    /// Remembers the request triple behind a fingerprint so a later
    /// `replan` can rebuild it. Cheap when already recorded.
    fn record_request(&self, fp: u64, triple: &RequestTriple) {
        let mut index = lock_recover(&self.shared.replans);
        if !index.contains(fp) {
            index.record(fp, Arc::new(triple.clone()));
        }
    }

    /// The request path: never blocks the calling thread on a synthesis
    /// or a peer. Inline-answerable requests (cache hits, stats,
    /// shutdown, malformed frames, shed) return [`Submission::Ready`]; a
    /// queued or joined synthesis, or a proxy hop, returns
    /// [`Submission::Pending`] and `deliver` later receives the rendered
    /// response bytes on the resolving thread.
    ///
    /// `tb` is the caller's trace builder (the event loop's already
    /// carries the `accept`/`frame` spans); it travels with the request
    /// and comes back — as [`Submission::Ready::trace`] or through
    /// `deliver` — for the caller to seal once the bytes flush.
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
                return ready(bytes, tb, outcome_for_error(&err));
            }
        };
        let id = req.id;
        if let Some(tb) = tb.as_mut() {
            tb.set_request(id, req.op.verb());
        }
        match req.op {
            ReqOp::Plan(plan) => self.submit_plan(id, *plan, tb, deliver),
            ReqOp::Replan(rp) => self.submit_replan(id, *rp, tb, deliver),
            ReqOp::Stats => verb_ready(tb, false, || self.stats_frame(id)),
            ReqOp::Metrics => verb_ready(tb, false, || self.metrics_frame(id)),
            ReqOp::Trace { n, min_ms } => verb_ready(tb, false, || self.trace_frame(id, n, min_ms)),
            ReqOp::Ring(install) => verb_ready(tb, false, || self.ring_frame(id, install)),
            ReqOp::Replicate(rep) => verb_ready(tb, false, || self.replicate_frame(id, *rep)),
            ReqOp::Shutdown => verb_ready(tb, true, || ok_frame(id)),
        }
    }

    fn submit_plan(
        &self,
        id: u64,
        plan: PlanRequest,
        mut tb: Option<TraceBuilder>,
        deliver: Deliver,
    ) -> Submission {
        let shared = &self.shared;
        let PlanRequest { triple, extras } = plan;
        let fp = request_fingerprint_values(&triple.graph, &triple.cluster, &triple.options);
        self.record_request(fp, &triple);
        let answer = extras.answer(shared, id, fp, None);
        if let Some(hit) = self.probe(&answer, &mut tb) {
            return hit;
        }
        // Cluster routing: a miss on a fingerprint another daemon owns is
        // proxied to that owner (ring-wide single-flight: only the owner
        // synthesizes).
        if let Some((ring, self_addr)) = shared.cluster.current() {
            if let Some(owner) = ring.primary(fp).filter(|p| *p != self_addr) {
                if let Some(redirect) =
                    self.redirect(id, extras.epoch, owner, ring.epoch(), &mut tb)
                {
                    return redirect;
                }
                let line = extras.forward_line(
                    "plan",
                    id,
                    vec![
                        ("graph", triple.graph.clone()),
                        ("cluster", triple.cluster.clone()),
                        ("options", triple.options.clone()),
                    ],
                    ring.epoch(),
                );
                let stream_chunk = answer.stream_chunk;
                let fallback = resolve_locally(shared.clone(), answer, triple, extras.ttl_ms);
                self.forward(owner.to_string(), line, id, stream_chunk, tb, deliver, fallback);
                return Submission::Pending;
            }
        }
        resolve(shared, answer, &triple, extras.ttl_ms, tb, deliver).0
    }

    fn submit_replan(
        &self,
        id: u64,
        rp: ReplanRequest,
        mut tb: Option<TraceBuilder>,
        deliver: Deliver,
    ) -> Submission {
        let shared = &self.shared;
        let ReplanRequest { prior: prior_fp, delta, extras } = rp;
        // Cluster routing keys on the *prior* fingerprint: its ring owner
        // holds the request triple and plan (pushed along with every
        // replication), so the rebase runs there.
        let route = shared.cluster.current().and_then(|(ring, self_addr)| {
            ring.primary(prior_fp)
                .filter(|p| *p != self_addr)
                .map(|owner| (owner.to_string(), ring.epoch()))
        });
        if let Some((owner, epoch)) = &route {
            if let Some(redirect) = self.redirect(id, extras.epoch, owner, *epoch, &mut tb) {
                return redirect;
            }
        }
        let forward_line = |epoch| {
            let body = vec![
                ("prior", Value::Str(render_fingerprint(prior_fp))),
                ("delta", delta.encode()),
            ];
            extras.forward_line("replan", id, body, epoch)
        };
        let stream_chunk = extras.stream_chunk(shared);
        let PreparedReplan { fp, triple, prior } = match replan::prepare(shared, prior_fp, &delta) {
            Ok(prep) => prep,
            Err(err) => {
                // A fingerprint this daemon never saw (or let expire) may
                // still live at its ring owner; if the owner cannot answer
                // either, the request fails as it would on one daemon.
                if let (UNKNOWN_FINGERPRINT_KIND, Some((owner, epoch))) = (err.kind.as_str(), route)
                {
                    let line = forward_line(epoch);
                    let shared = shared.clone();
                    let unknown = move |mut tb: Option<TraceBuilder>, deliver: Deliver| {
                        let err = WireError::new(
                            UNKNOWN_FINGERPRINT_KIND,
                            format!(
                                "no request recorded for {} here and its ring owner is \
                                 unreachable; plan it cold first",
                                render_fingerprint(prior_fp)
                            ),
                        );
                        let bytes = encode_span(&mut tb, || error_bytes(&shared, id, &err));
                        deliver(bytes, seal(tb, outcome_for_error(&err)));
                    };
                    self.forward(owner, line, id, stream_chunk, tb, deliver, unknown);
                    return Submission::Pending;
                }
                let bytes = encode_span(&mut tb, || self.render_error(id, &err));
                return ready(bytes, tb, outcome_for_error(&err));
            }
        };
        let answer = extras.answer(shared, id, fp, Some((prior_fp, prior)));
        if let Some(hit) = self.probe(&answer, &mut tb) {
            return hit;
        }
        // The rebased plan is not cached here and the prior's owner is
        // another daemon: the synthesis belongs to the owner. The local
        // preparation rides along as the fallback.
        if let Some((owner, epoch)) = route {
            let fallback = resolve_locally(shared.clone(), answer, triple, extras.ttl_ms);
            self.forward(owner, forward_line(epoch), id, stream_chunk, tb, deliver, fallback);
            return Submission::Pending;
        }
        resolve(shared, answer, &triple, extras.ttl_ms, tb, deliver).0
    }

    /// The cache probe every plan-bearing request starts with: counts the
    /// hit or miss and renders a hit inline.
    fn probe(&self, answer: &Answer, tb: &mut Option<TraceBuilder>) -> Option<Submission> {
        let shared = &self.shared;
        if let Some(tb) = tb.as_mut() {
            tb.begin(SpanKind::CacheLookup);
        }
        let cached = shared.cache.get(answer.fp);
        let counter =
            if cached.is_some() { &shared.counters.hits } else { &shared.counters.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(tb) = tb.as_mut() {
            tb.end();
        }
        let (bytes, outcome) = answer.plan(shared, PlanSource::Cache, &*cached?, false, tb);
        Some(ready(bytes, tb.take(), outcome))
    }

    /// A request stamped with a ring epoch other than ours gets a typed
    /// `not_owner` redirect instead of a proxy hop: routing disagreements
    /// bounce back to the client rather than chaining daemon-to-daemon
    /// forwards. A redirect is routing, counted as `redirected`, not as an
    /// error.
    fn redirect(
        &self,
        id: u64,
        stamp: Option<u64>,
        owner: &str,
        epoch: u64,
        tb: &mut Option<TraceBuilder>,
    ) -> Option<Submission> {
        if stamp.is_none_or(|stamp| stamp == epoch) {
            return None;
        }
        self.shared.counters.redirected.fetch_add(1, Ordering::Relaxed);
        let err = WireError::not_owner(owner.to_string(), epoch);
        let bytes = encode_span(tb, || frame_bytes(&error_frame(id, &err)));
        Some(ready(bytes, tb.take(), outcome_for_error(&err)))
    }

    /// Forwards a missed request to its ring owner on a peer thread and
    /// counts it as `proxied`. `line` is the request stamped with our ring
    /// epoch and never streamed: streaming is client-transport framing,
    /// applied locally to the owner's canonical line, which is relayed
    /// unchanged otherwise. An unreachable, garbled or ownership-denying
    /// owner runs `fallback` instead — a routing failure degrades to
    /// single-daemon behavior.
    #[allow(clippy::too_many_arguments)]
    fn forward(
        &self,
        owner: String,
        line: String,
        id: u64,
        stream_chunk: Option<usize>,
        tb: Option<TraceBuilder>,
        deliver: Deliver,
        fallback: impl FnOnce(Option<TraceBuilder>, Deliver) + Send + 'static,
    ) {
        self.shared.counters.proxied.fetch_add(1, Ordering::Relaxed);
        let shared = self.shared.clone();
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
                    // Canonical JSON makes the relayed line byte-identical
                    // to a locally rendered response.
                    let stream_chunk = stream_chunk.filter(|_| is_plan);
                    let bytes = encode_span(&mut tb, || line_bytes(id, resp, stream_chunk));
                    deliver(bytes, seal(tb, outcome));
                }
                _ => fallback(tb, deliver),
            }
        }));
    }

    pub(crate) fn render_error(&self, id: u64, err: &WireError) -> Vec<u8> {
        error_bytes(&self.shared, id, err)
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
// Request parsing
// ---------------------------------------------------------------------------

/// The optional fields `plan` and `replan` share.
struct Extras {
    /// How long the synthesized plan should stay cached.
    ttl_ms: Option<u64>,
    /// `"stream": true` — answer a plan as chunk frames.
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

impl Extras {
    fn stream_chunk(&self, shared: &Shared) -> Option<usize> {
        self.stream.then_some(shared.config.stream_chunk_bytes)
    }

    fn answer(
        &self,
        shared: &Shared,
        id: u64,
        fp: u64,
        prior: Option<(u64, Arc<CachedPlan>)>,
    ) -> Answer {
        Answer {
            id,
            fp,
            want_profile: self.profile,
            stream_chunk: self.stream_chunk(shared),
            prior,
        }
    }

    /// The request as forwarded to its ring owner: `body` plus the
    /// optional fields, stamped with our ring epoch and never streamed.
    fn forward_line(&self, op: &str, id: u64, body: Vec<(&str, Value)>, epoch: u64) -> String {
        let mut fields = vec![("op", Value::Str(op.into())), ("id", Value::int(id))];
        fields.extend(body);
        if let Some(ttl) = self.ttl_ms {
            fields.push(("ttl_ms", Value::int(ttl)));
        }
        if self.profile {
            fields.push(("profile", Value::Bool(true)));
        }
        fields.push(("epoch", Value::int(epoch)));
        Value::obj(fields).render()
    }
}

struct PlanRequest {
    triple: RequestTriple,
    extras: Extras,
}

struct ReplanRequest {
    /// Fingerprint of the previously planned request to start from. A
    /// replan routes by it — the daemon owning the prior fingerprint holds
    /// its triple and plan.
    prior: u64,
    /// How the cluster changed since that plan.
    delta: ClusterDelta,
    extras: Extras,
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
                let triple = RequestTriple {
                    graph: fetch("graph")?,
                    cluster: fetch("cluster")?,
                    options: fetch("options")?,
                };
                let extras = Extras::parse(&v, id)?;
                Ok(Request { id, op: ReqOp::Plan(Box::new(PlanRequest { triple, extras })) })
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
                let extras = Extras::parse(&v, id)?;
                Ok(Request {
                    id,
                    op: ReqOp::Replan(Box::new(ReplanRequest { prior, delta, extras })),
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

impl Extras {
    fn parse(v: &Value, id: u64) -> Result<Extras, (u64, WireError)> {
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
        Ok(Extras { ttl_ms, stream, profile, epoch })
    }
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
fn plan_frame(
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
    line_bytes(0, frame.render(), None)
}

/// The wire bytes of a response line: the line plus its newline, or —
/// when the client asked to stream (`stream_chunk`) — its chunked
/// encoding. The stream payload *is* the line, so reassembly is
/// byte-identical to the unstreamed response.
fn line_bytes(id: u64, line: String, stream_chunk: Option<usize>) -> Vec<u8> {
    let Some(chunk) = stream_chunk else {
        let mut bytes = line.into_bytes();
        bytes.push(b'\n');
        return bytes;
    };
    let mut bytes = Vec::with_capacity(line.len() + line.len() / 8);
    for frame in encode_stream(id, &line, chunk) {
        bytes.extend_from_slice(frame.as_bytes());
        bytes.push(b'\n');
    }
    bytes
}
