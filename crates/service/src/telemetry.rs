//! The service's telemetry surface: the shared recorder behind every
//! request path, the wire shapes of the `metrics` and `trace` verbs, and
//! the Prometheus text exposition.
//!
//! The primitives (clock, histogram, trace ring) live in `hap-telemetry`;
//! this module binds them to the daemon's verbs and outcomes and to the
//! wire protocol.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hap_codec::{CodecError, Value, WireError, INTERNAL_KIND};
use hap_synthesis::SynthProfile;
use hap_telemetry::{
    Clock, HistMatrix, Outcome, RequestTrace, Span, SpanKind, TraceBuilder, TraceRing, Verb,
};

use crate::config::ServiceConfig;
use crate::service::PlanSource;
use crate::stats::StatsSnapshot;

/// Largest integer the codec renders exactly; wire nanosecond values are
/// clamped to it (only reachable with adversarial manual clocks).
const MAX_WIRE_INT: u64 = (1 << 53) - 1;

fn int_ns(v: u64) -> Value {
    Value::int(v.min(MAX_WIRE_INT))
}

/// The daemon's telemetry recorder: one per service, shared with the
/// dispatch workers (for slot timing marks) and the event loop (for
/// accept/frame/flush spans).
///
/// Disabled telemetry short-circuits everything to `None`/zero — the
/// request path then pays one branch per would-be clock read.
pub(crate) struct Telemetry {
    enabled: bool,
    clock: Clock,
    ring: TraceRing,
    hists: HistMatrix,
    next_trace_id: AtomicU64,
}

impl Telemetry {
    pub fn new(config: &ServiceConfig) -> Telemetry {
        Telemetry {
            enabled: config.telemetry,
            clock: config.telemetry_clock.clone(),
            ring: TraceRing::new(config.trace_ring_capacity),
            hists: HistMatrix::new(),
            next_trace_id: AtomicU64::new(0),
        }
    }

    /// The current clock reading, or 0 when telemetry is off (timing
    /// marks then stay zero and no spans are synthesized from them).
    pub fn now(&self) -> u64 {
        if self.enabled {
            self.clock.now_nanos()
        } else {
            0
        }
    }

    /// A trace builder for a new request, `None` when telemetry is off.
    pub fn builder(&self) -> Option<TraceBuilder> {
        self.enabled.then(|| TraceBuilder::new(self.clock.clone()))
    }

    /// Seals a request's trace once its response is out (flushed to the
    /// socket, or handed to an in-process caller): assigns its id,
    /// records its latency under the verb × outcome histogram, and
    /// retains it in the ring.
    pub fn finish_pending(&self, pending: PendingTrace) {
        let PendingTrace { builder, outcome } = pending;
        let verb = builder.verb();
        let trace_id = self.next_trace_id.fetch_add(1, Ordering::Relaxed) + 1;
        let trace = builder.finish(trace_id, outcome);
        self.hists.record(verb, outcome, trace.total_nanos);
        self.ring.push(Arc::new(trace));
    }

    /// `(traces_recorded, metrics_samples)` — the totals surfaced through
    /// the `stats` verb.
    pub fn totals(&self) -> (u64, u64) {
        (self.ring.recorded(), self.hists.total_count())
    }

    /// The `metrics` verb's payload: every non-empty verb × outcome
    /// series with its count and latency quantiles.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut series = Vec::new();
        self.hists.for_each_nonempty(|verb, outcome, hist| {
            series.push(MetricsSeries {
                verb: verb.as_str().to_string(),
                outcome: outcome.as_str().to_string(),
                count: hist.count(),
                p50_ns: hist.quantile(0.5),
                p90_ns: hist.quantile(0.9),
                p99_ns: hist.quantile(0.99),
                max_ns: hist.max(),
                sum_ns: hist.sum(),
            });
        });
        MetricsSnapshot { traces_recorded: self.ring.recorded(), series }
    }

    /// The most recent completed traces, newest first, optionally keeping
    /// only requests at least `min_ms` milliseconds long (the
    /// slow-request filter).
    pub fn recent_traces(&self, n: usize, min_ms: u64) -> Vec<Arc<RequestTrace>> {
        let min_nanos = min_ms.saturating_mul(1_000_000);
        let mut out: Vec<Arc<RequestTrace>> =
            self.ring.snapshot().into_iter().rev().filter(|t| t.total_nanos >= min_nanos).collect();
        out.truncate(n);
        out
    }
}

/// A trace that outlived [`crate::PlanService::submit`]: the event loop
/// holds it until the response bytes fully reach the socket, then closes
/// its `flush` span and seals it.
pub(crate) struct PendingTrace {
    pub builder: TraceBuilder,
    pub outcome: Outcome,
}

/// The trace outcome a plan response source maps to.
pub(crate) fn outcome_for_source(source: PlanSource) -> Outcome {
    match source {
        PlanSource::Cache => Outcome::Hit,
        PlanSource::Synthesized => Outcome::Miss,
        PlanSource::Coalesced => Outcome::Coalesced,
    }
}

/// The trace outcome a typed error maps to.
pub(crate) fn outcome_for_error(err: &WireError) -> Outcome {
    if err.is_busy() {
        Outcome::Shed
    } else if err.kind == INTERNAL_KIND {
        Outcome::Internal
    } else {
        Outcome::Error
    }
}

/// A bounded FIFO map from request fingerprint to the [`SynthProfile`] of
/// the synthesis that produced its cached plan, so `"profile": true`
/// requests answered from the cache can still report how the plan was
/// found. Memory-only (profiles are diagnostics, not plans) and bounded
/// like [`crate::replan::ReplanIndex`].
pub(crate) struct ProfileIndex {
    cap: usize,
    map: std::collections::HashMap<u64, Arc<SynthProfile>>,
    order: std::collections::VecDeque<u64>,
}

impl ProfileIndex {
    pub fn new(cap: usize) -> ProfileIndex {
        ProfileIndex {
            cap: cap.max(1),
            map: std::collections::HashMap::new(),
            order: std::collections::VecDeque::new(),
        }
    }

    pub fn record(&mut self, fp: u64, profile: Arc<SynthProfile>) {
        if self.map.insert(fp, profile).is_none() {
            if self.map.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
            self.order.push_back(fp);
        }
    }

    pub fn get(&self, fp: u64) -> Option<Arc<SynthProfile>> {
        self.map.get(&fp).cloned()
    }
}

// ---------------------------------------------------------------------------
// Wire shapes
// ---------------------------------------------------------------------------

/// One verb × outcome latency series in a `metrics` response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSeries {
    pub verb: String,
    pub outcome: String,
    pub count: u64,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
    pub sum_ns: u64,
}

/// The `metrics` verb's payload.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Total request traces ever recorded (not just retained).
    pub traces_recorded: u64,
    /// Every non-empty verb × outcome series, in stable verb-major order.
    pub series: Vec<MetricsSeries>,
}

impl MetricsSnapshot {
    pub fn encode(&self) -> Value {
        let series = self
            .series
            .iter()
            .map(|s| {
                Value::obj(vec![
                    ("verb", Value::Str(s.verb.clone())),
                    ("outcome", Value::Str(s.outcome.clone())),
                    ("count", Value::int(s.count.min(MAX_WIRE_INT))),
                    ("p50_ns", int_ns(s.p50_ns)),
                    ("p90_ns", int_ns(s.p90_ns)),
                    ("p99_ns", int_ns(s.p99_ns)),
                    ("max_ns", int_ns(s.max_ns)),
                    ("sum_ns", int_ns(s.sum_ns)),
                ])
            })
            .collect();
        Value::obj(vec![
            ("traces_recorded", Value::int(self.traces_recorded.min(MAX_WIRE_INT))),
            ("series", Value::Arr(series)),
        ])
    }

    /// Lenient decode: numeric fields a frame omits read as 0, so a
    /// newer client interrogating an older daemon (whose `metrics` frames
    /// predate later-added fields) degrades to zeros instead of erroring.
    /// Pinned by the committed `metrics_old_daemon` fixture.
    pub fn decode(v: &Value) -> Result<MetricsSnapshot, CodecError> {
        let lenient = |obj: &Value, key: &str| match obj.get(key) {
            None | Some(Value::Null) => Ok(0),
            Some(x) => x.as_u64(),
        };
        let mut series = Vec::new();
        if let Some(items) = v.get("series") {
            for item in items.as_arr()? {
                series.push(MetricsSeries {
                    verb: item.field("verb")?.as_str()?.to_string(),
                    outcome: item.field("outcome")?.as_str()?.to_string(),
                    count: lenient(item, "count")?,
                    p50_ns: lenient(item, "p50_ns")?,
                    p90_ns: lenient(item, "p90_ns")?,
                    p99_ns: lenient(item, "p99_ns")?,
                    max_ns: lenient(item, "max_ns")?,
                    sum_ns: lenient(item, "sum_ns")?,
                });
            }
        }
        Ok(MetricsSnapshot { traces_recorded: lenient(v, "traces_recorded")?, series })
    }
}

/// Encodes one completed trace for a `trace` response.
pub fn encode_trace(t: &RequestTrace) -> Value {
    let spans = t
        .spans
        .iter()
        .map(|s| {
            Value::obj(vec![
                ("kind", Value::Str(s.kind.as_str().to_string())),
                ("start_ns", int_ns(s.start_nanos)),
                ("end_ns", int_ns(s.end_nanos)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("trace_id", Value::int(t.trace_id.min(MAX_WIRE_INT))),
        ("request_id", Value::int(t.request_id.min(MAX_WIRE_INT))),
        ("verb", Value::Str(t.verb.as_str().to_string())),
        ("outcome", Value::Str(t.outcome.as_str().to_string())),
        ("total_ns", int_ns(t.total_nanos)),
        ("spans", Value::Arr(spans)),
    ];
    if !t.annotations.is_empty() {
        fields.push((
            "annotations",
            Value::Obj(
                t.annotations.iter().map(|(k, v)| (k.clone(), int_ns(*v))).collect::<Vec<_>>(),
            ),
        ));
    }
    Value::obj(fields)
}

/// Decodes a trace from a `trace` response. Lenient like
/// [`MetricsSnapshot::decode`]: unknown span kinds are skipped, missing
/// numerics read as 0, and unknown verbs/outcomes degrade to
/// `invalid`/`error` rather than failing the frame.
pub fn decode_trace(v: &Value) -> Result<RequestTrace, CodecError> {
    let lenient = |key: &str| match v.get(key) {
        None | Some(Value::Null) => Ok(0),
        Some(x) => x.as_u64(),
    };
    let mut spans = Vec::new();
    if let Some(items) = v.get("spans") {
        for item in items.as_arr()? {
            let Some(kind) = SpanKind::parse(item.field("kind")?.as_str()?) else {
                continue; // a span kind this client predates
            };
            spans.push(Span {
                kind,
                start_nanos: item.field("start_ns")?.as_u64()?,
                end_nanos: item.field("end_ns")?.as_u64()?,
            });
        }
    }
    let verb =
        v.get("verb").and_then(|x| x.as_str().ok()).and_then(Verb::parse).unwrap_or(Verb::Invalid);
    let outcome = v
        .get("outcome")
        .and_then(|x| x.as_str().ok())
        .and_then(Outcome::parse)
        .unwrap_or(Outcome::Error);
    let mut annotations = Vec::new();
    if let Some(Value::Obj(fields)) = v.get("annotations") {
        for (k, val) in fields {
            annotations.push((k.clone(), val.as_u64()?));
        }
    }
    Ok(RequestTrace {
        trace_id: lenient("trace_id")?,
        request_id: lenient("request_id")?,
        verb,
        outcome,
        total_nanos: lenient("total_ns")?,
        spans,
        annotations,
    })
}

/// Encodes a synthesis profile as the plan response's `"profile"` field.
pub(crate) fn encode_profile(p: &SynthProfile) -> Value {
    Value::Obj(p.entries().iter().map(|(k, v)| (k.to_string(), int_ns(*v))).collect::<Vec<_>>())
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Renders the stats counters and latency summaries in the Prometheus
/// text exposition format (`hap-client --prom` prints this for a
/// file-based or exec-based scrape).
pub fn render_prometheus(stats: &StatsSnapshot, metrics: &MetricsSnapshot) -> String {
    let mut out = String::new();
    out.push_str("# HELP hap_stat Daemon counters and gauges from the `stats` verb.\n");
    out.push_str("# TYPE hap_stat gauge\n");
    for (name, value) in stats.fields() {
        out.push_str(&format!("hap_stat{{name=\"{name}\"}} {value}\n"));
    }
    // A zero-sample daemon (fresh boot, or telemetry off) has no series:
    // emit nothing for the metric rather than an empty HELP/TYPE stanza,
    // so scrapers never see a summary with fabricated quantiles.
    if metrics.series.is_empty() {
        return out;
    }
    out.push_str(
        "# HELP hap_request_latency_seconds Request latency by verb and outcome \
         (log-bucketed quantiles).\n",
    );
    out.push_str("# TYPE hap_request_latency_seconds summary\n");
    let secs = |ns: u64| ns as f64 / 1e9;
    for s in &metrics.series {
        let labels = format!("verb=\"{}\",outcome=\"{}\"", s.verb, s.outcome);
        for (q, v) in [("0.5", s.p50_ns), ("0.9", s.p90_ns), ("0.99", s.p99_ns)] {
            out.push_str(&format!(
                "hap_request_latency_seconds{{{labels},quantile=\"{q}\"}} {}\n",
                secs(v)
            ));
        }
        out.push_str(&format!("hap_request_latency_seconds_sum{{{labels}}} {}\n", secs(s.sum_ns)));
        out.push_str(&format!("hap_request_latency_seconds_count{{{labels}}} {}\n", s.count));
        out.push_str(&format!("hap_request_latency_seconds_max{{{labels}}} {}\n", secs(s.max_ns)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            traces_recorded: 12,
            series: vec![MetricsSeries {
                verb: "plan".into(),
                outcome: "hit".into(),
                count: 10,
                p50_ns: 1_100,
                p90_ns: 2_200,
                p99_ns: 3_300,
                max_ns: 3_456,
                sum_ns: 15_000,
            }],
        }
    }

    #[test]
    fn metrics_snapshot_round_trips() {
        let snap = sample_snapshot();
        let decoded = MetricsSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn metrics_decode_is_lenient_for_missing_fields() {
        // An older daemon's frame: no traces_recorded, a series without
        // the later-added sum/max fields.
        let old = Value::obj(vec![(
            "series",
            Value::Arr(vec![Value::obj(vec![
                ("verb", Value::Str("plan".into())),
                ("outcome", Value::Str("hit".into())),
                ("count", Value::int(3)),
                ("p50_ns", Value::int(1000)),
            ])]),
        )]);
        let decoded = MetricsSnapshot::decode(&old).unwrap();
        assert_eq!(decoded.traces_recorded, 0);
        assert_eq!(decoded.series.len(), 1);
        assert_eq!(decoded.series[0].count, 3);
        assert_eq!(decoded.series[0].p50_ns, 1000);
        assert_eq!(decoded.series[0].p90_ns, 0);
        assert_eq!(decoded.series[0].sum_ns, 0);
    }

    #[test]
    fn trace_round_trips_including_annotations() {
        let trace = RequestTrace {
            trace_id: 7,
            request_id: 42,
            verb: Verb::Plan,
            outcome: Outcome::Miss,
            total_nanos: 500,
            spans: vec![
                Span { kind: SpanKind::Decode, start_nanos: 100, end_nanos: 200 },
                Span { kind: SpanKind::Synthesis, start_nanos: 200, end_nanos: 600 },
            ],
            annotations: vec![("expansions".into(), 64)],
        };
        let decoded = decode_trace(&encode_trace(&trace)).unwrap();
        assert_eq!(decoded.trace_id, 7);
        assert_eq!(decoded.verb, Verb::Plan);
        assert_eq!(decoded.outcome, Outcome::Miss);
        assert_eq!(decoded.spans, trace.spans);
        assert_eq!(decoded.annotations, trace.annotations);
    }

    #[test]
    fn unknown_span_kinds_and_verbs_degrade_not_fail() {
        let v = Value::obj(vec![
            ("trace_id", Value::int(1)),
            ("verb", Value::Str("future_verb".into())),
            ("outcome", Value::Str("future_outcome".into())),
            (
                "spans",
                Value::Arr(vec![Value::obj(vec![
                    ("kind", Value::Str("quantum_wait".into())),
                    ("start_ns", Value::int(0)),
                    ("end_ns", Value::int(1)),
                ])]),
            ),
        ]);
        let decoded = decode_trace(&v).unwrap();
        assert_eq!(decoded.verb, Verb::Invalid);
        assert_eq!(decoded.outcome, Outcome::Error);
        assert!(decoded.spans.is_empty());
    }

    #[test]
    fn profile_index_is_bounded_fifo() {
        let mut index = ProfileIndex::new(2);
        let p = Arc::new(SynthProfile::default());
        index.record(1, p.clone());
        index.record(2, p.clone());
        index.record(3, p.clone());
        assert!(index.get(1).is_none());
        assert!(index.get(2).is_some());
        assert!(index.get(3).is_some());
        // Re-recording an existing fingerprint neither duplicates nor
        // evicts.
        index.record(3, p);
        assert!(index.get(2).is_some());
    }

    #[test]
    fn prometheus_exposition_has_summary_lines() {
        let stats = StatsSnapshot { hits: 10, ..Default::default() };
        let prom = render_prometheus(&stats, &sample_snapshot());
        assert!(prom.contains("hap_stat{name=\"hits\"} 10\n"));
        assert!(prom.contains(
            "hap_request_latency_seconds{verb=\"plan\",outcome=\"hit\",quantile=\"0.5\"} "
        ));
        assert!(
            prom.contains("hap_request_latency_seconds_count{verb=\"plan\",outcome=\"hit\"} 10")
        );
    }
}
