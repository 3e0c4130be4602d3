//! Per-request traces: span timelines, a builder, and the fixed-capacity
//! ring that retains the most recent completed traces.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::Clock;

/// A phase of a request's lifetime. Spans appear in a trace in this
/// order; phases that did not occur (e.g. no synthesis on a cache hit)
/// are simply absent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Connection accepted (socket requests only; a zero-width marker).
    Accept,
    /// The request line accumulating in the framer, first byte → newline.
    Frame,
    /// Parsing the request JSON and validating its fields.
    Decode,
    /// Probing the plan cache (and the in-flight table).
    CacheLookup,
    /// Waiting in the synthesis queue for a worker.
    QueueWait,
    /// Synthesis itself, on a worker thread.
    Synthesis,
    /// Rendering the response frame.
    Encode,
    /// Response bytes queued → fully written to the socket (socket
    /// requests only).
    Flush,
}

impl SpanKind {
    pub const ALL: [SpanKind; 8] = [
        SpanKind::Accept,
        SpanKind::Frame,
        SpanKind::Decode,
        SpanKind::CacheLookup,
        SpanKind::QueueWait,
        SpanKind::Synthesis,
        SpanKind::Encode,
        SpanKind::Flush,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Accept => "accept",
            SpanKind::Frame => "frame",
            SpanKind::Decode => "decode",
            SpanKind::CacheLookup => "cache_lookup",
            SpanKind::QueueWait => "queue_wait",
            SpanKind::Synthesis => "synthesis",
            SpanKind::Encode => "encode",
            SpanKind::Flush => "flush",
        }
    }

    pub fn parse(s: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

/// The wire verb a request carried.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Verb {
    Plan,
    Replan,
    Stats,
    Metrics,
    Trace,
    /// Cluster ring membership: query or install (`hap-cluster` mode).
    Ring,
    /// Peer-to-peer plan replication in `hap-cluster` mode.
    Replicate,
    Shutdown,
    /// The line failed to parse far enough to name a verb.
    Invalid,
}

impl Verb {
    pub const ALL: [Verb; 9] = [
        Verb::Plan,
        Verb::Replan,
        Verb::Stats,
        Verb::Metrics,
        Verb::Trace,
        Verb::Ring,
        Verb::Replicate,
        Verb::Shutdown,
        Verb::Invalid,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Verb::Plan => "plan",
            Verb::Replan => "replan",
            Verb::Stats => "stats",
            Verb::Metrics => "metrics",
            Verb::Trace => "trace",
            Verb::Ring => "ring",
            Verb::Replicate => "replicate",
            Verb::Shutdown => "shutdown",
            Verb::Invalid => "invalid",
        }
    }

    pub fn parse(s: &str) -> Option<Verb> {
        Verb::ALL.into_iter().find(|v| v.as_str() == s)
    }

    /// Dense index for verb × outcome histogram matrices.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// How a request concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Plan served from the cache.
    Hit,
    /// Plan synthesized on a worker (a cache miss this request led).
    Miss,
    /// Plan obtained by joining another request's in-flight synthesis.
    Coalesced,
    /// Replan request answered (from cache or fresh synthesis).
    Replan,
    /// Shed with a `busy` frame under queue-depth overload.
    Shed,
    /// An internal fault (synthesis panic) answered with a typed error.
    Internal,
    /// Any other typed error frame (decode, validation, unknown verb…).
    Error,
    /// Admin verbs (`stats`, `metrics`, `trace`, `shutdown`) answered
    /// normally.
    Ok,
}

impl Outcome {
    pub const ALL: [Outcome; 8] = [
        Outcome::Hit,
        Outcome::Miss,
        Outcome::Coalesced,
        Outcome::Replan,
        Outcome::Shed,
        Outcome::Internal,
        Outcome::Error,
        Outcome::Ok,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Hit => "hit",
            Outcome::Miss => "miss",
            Outcome::Coalesced => "coalesced",
            Outcome::Replan => "replan",
            Outcome::Shed => "shed",
            Outcome::Internal => "internal",
            Outcome::Error => "error",
            Outcome::Ok => "ok",
        }
    }

    pub fn parse(s: &str) -> Option<Outcome> {
        Outcome::ALL.into_iter().find(|o| o.as_str() == s)
    }

    /// Dense index for verb × outcome histogram matrices.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One timed phase inside a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub kind: SpanKind,
    pub start_nanos: u64,
    pub end_nanos: u64,
}

impl Span {
    pub fn duration_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }
}

/// A completed request trace: the span timeline plus identity and
/// outcome. Annotations carry counters from layers the telemetry crate
/// does not depend on (e.g. synthesis profiling).
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// Ring-global completion sequence number (1-based, dense).
    pub trace_id: u64,
    /// The wire `id` the client sent (0 if the line never parsed).
    pub request_id: u64,
    pub verb: Verb,
    pub outcome: Outcome,
    /// Service latency: first processing span start → last span end.
    /// Excludes `Accept`/`Frame` (connection/network time), so socket and
    /// in-process requests measure the same thing and histograms stay
    /// comparable.
    pub total_nanos: u64,
    pub spans: Vec<Span>,
    pub annotations: Vec<(String, u64)>,
}

/// Accumulates spans for one in-flight request.
///
/// `begin` closes any open span at the current clock reading and opens
/// the next, so the common sequential path reads the clock once per
/// phase boundary. Out-of-band phases measured elsewhere (queue wait,
/// synthesis, flush) are attached with `span`.
#[derive(Debug)]
pub struct TraceBuilder {
    clock: Clock,
    request_id: u64,
    verb: Verb,
    spans: Vec<Span>,
    open: Option<(SpanKind, u64)>,
    annotations: Vec<(String, u64)>,
}

impl TraceBuilder {
    pub fn new(clock: Clock) -> TraceBuilder {
        TraceBuilder {
            clock,
            request_id: 0,
            verb: Verb::Invalid,
            spans: Vec::with_capacity(6),
            open: None,
            annotations: Vec::new(),
        }
    }

    /// Identity becomes known only once decode succeeds.
    pub fn set_request(&mut self, request_id: u64, verb: Verb) {
        self.request_id = request_id;
        self.verb = verb;
    }

    pub fn verb(&self) -> Verb {
        self.verb
    }

    pub fn now(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// Closes the open span (if any) and opens `kind`, both at one clock
    /// reading.
    pub fn begin(&mut self, kind: SpanKind) {
        let now = self.now();
        self.close_open(now);
        self.open = Some((kind, now));
    }

    /// Closes the open span at the current clock reading.
    pub fn end(&mut self) {
        let now = self.now();
        self.close_open(now);
    }

    /// Attaches a phase measured elsewhere (worker-side timestamps).
    pub fn span(&mut self, kind: SpanKind, start_nanos: u64, end_nanos: u64) {
        self.spans.push(Span { kind, start_nanos, end_nanos });
    }

    pub fn annotate(&mut self, key: &str, value: u64) {
        self.annotations.push((key.to_string(), value));
    }

    fn close_open(&mut self, now: u64) {
        if let Some((kind, start)) = self.open.take() {
            self.spans.push(Span { kind, start_nanos: start, end_nanos: now });
        }
    }

    /// Seals the trace. Spans are ordered by start time; total latency is
    /// measured from the first span after `Accept`/`Frame`.
    pub fn finish(mut self, trace_id: u64, outcome: Outcome) -> RequestTrace {
        let now = self.now();
        self.close_open(now);
        self.spans.sort_by_key(|s| (s.start_nanos, s.end_nanos));
        let served_start = self
            .spans
            .iter()
            .find(|s| !matches!(s.kind, SpanKind::Accept | SpanKind::Frame))
            .or(self.spans.first())
            .map(|s| s.start_nanos)
            .unwrap_or(now);
        let last_end = self.spans.iter().map(|s| s.end_nanos).max().unwrap_or(now);
        RequestTrace {
            trace_id,
            request_id: self.request_id,
            verb: self.verb,
            outcome,
            total_nanos: last_end.saturating_sub(served_start),
            spans: self.spans,
            annotations: self.annotations,
        }
    }
}

/// Fixed-capacity ring retaining the most recent completed traces.
///
/// Writers claim a slot with one atomic `fetch_add` and publish the
/// `Arc` under that slot's (uncontended) mutex — completion never waits
/// on readers or other writers beyond a single slot handoff. `last`
/// snapshots without stopping writers.
#[derive(Debug)]
pub struct TraceRing {
    slots: Vec<Mutex<Option<Arc<RequestTrace>>>>,
    head: AtomicU64,
}

impl TraceRing {
    pub fn new(capacity: usize) -> TraceRing {
        let capacity = capacity.max(1);
        TraceRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total traces ever pushed (not just retained).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Claims the next completion sequence number (1-based) and retains
    /// the trace, overwriting the oldest once full. Returns the sequence
    /// number, which callers stamp into the trace as its `trace_id`.
    pub fn push(&self, trace: Arc<RequestTrace>) -> u64 {
        let claim = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = (claim % self.slots.len() as u64) as usize;
        let mut guard = self.slots[slot].lock().unwrap_or_else(|e| e.into_inner());
        *guard = Some(trace);
        claim + 1
    }

    /// The retained traces, oldest first. Best-effort under concurrent
    /// pushes: each slot is read under its own lock, and the result is
    /// ordered by `trace_id`.
    pub fn snapshot(&self) -> Vec<Arc<RequestTrace>> {
        let mut out: Vec<Arc<RequestTrace>> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .collect();
        out.sort_by_key(|t| t.trace_id);
        out
    }

    /// The most recent `n` retained traces, newest first.
    pub fn last(&self, n: usize) -> Vec<Arc<RequestTrace>> {
        let mut all = self.snapshot();
        all.reverse();
        all.truncate(n);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_trace(clock: &Clock, trace_id: u64) -> Arc<RequestTrace> {
        let mut b = TraceBuilder::new(clock.clone());
        b.set_request(trace_id, Verb::Plan);
        b.begin(SpanKind::Decode);
        b.begin(SpanKind::CacheLookup);
        b.begin(SpanKind::Encode);
        Arc::new(b.finish(trace_id, Outcome::Hit))
    }

    #[test]
    fn builder_produces_contiguous_spans_under_step_clock() {
        let clock = Clock::step(1_000, 100);
        let mut b = TraceBuilder::new(clock);
        b.set_request(7, Verb::Plan);
        b.begin(SpanKind::Decode); // reads 1000
        b.begin(SpanKind::CacheLookup); // reads 1100
        b.begin(SpanKind::Encode); // reads 1200
        let t = b.finish(42, Outcome::Hit); // reads 1300
        assert_eq!(t.trace_id, 42);
        assert_eq!(t.request_id, 7);
        assert_eq!(t.verb, Verb::Plan);
        assert_eq!(t.outcome, Outcome::Hit);
        let kinds: Vec<SpanKind> = t.spans.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec![SpanKind::Decode, SpanKind::CacheLookup, SpanKind::Encode]);
        assert_eq!(t.spans[0].start_nanos, 1_000);
        assert_eq!(t.spans[0].end_nanos, 1_100);
        assert_eq!(t.spans[2].end_nanos, 1_300);
        assert_eq!(t.total_nanos, 300);
    }

    #[test]
    fn total_excludes_accept_and_frame() {
        let clock = Clock::step(0, 10);
        let mut b = TraceBuilder::new(clock);
        b.span(SpanKind::Accept, 0, 0);
        b.span(SpanKind::Frame, 0, 50);
        b.span(SpanKind::Decode, 50, 60);
        b.span(SpanKind::Flush, 60, 90);
        let t = b.finish(1, Outcome::Ok);
        assert_eq!(t.total_nanos, 40, "50 (decode start) -> 90 (flush end)");
    }

    #[test]
    fn ring_retains_last_capacity_traces_in_order() {
        let clock = Clock::step(0, 1);
        let ring = TraceRing::new(4);
        for i in 1..=10u64 {
            let id = ring.push(toy_trace(&clock, i));
            assert_eq!(id, i);
        }
        assert_eq!(ring.recorded(), 10);
        let kept: Vec<u64> = ring.snapshot().iter().map(|t| t.request_id).collect();
        assert_eq!(kept, vec![7, 8, 9, 10]);
        let last2: Vec<u64> = ring.last(2).iter().map(|t| t.request_id).collect();
        assert_eq!(last2, vec![10, 9]);
    }

    #[test]
    fn span_kind_and_verb_round_trip_their_names() {
        for k in SpanKind::ALL {
            assert_eq!(SpanKind::parse(k.as_str()), Some(k));
        }
        for v in Verb::ALL {
            assert_eq!(Verb::parse(v.as_str()), Some(v));
        }
        for o in Outcome::ALL {
            assert_eq!(Outcome::parse(o.as_str()), Some(o));
        }
    }
}
