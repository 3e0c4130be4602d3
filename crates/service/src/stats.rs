//! The `stats` wire snapshot and the daemon's internal counters.

use std::sync::atomic::{AtomicU64, Ordering};

use hap_codec::{Decode, Encode, Value};

/// Counters exposed by the `stats` request. `in_flight`, `entries`, and
/// `open_connections` are gauges sampled at snapshot time; the rest are
/// monotonic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Cached plans currently held.
    pub entries: u64,
    /// Requests answered straight from the cache.
    pub hits: u64,
    /// Requests that found no cached plan.
    pub misses: u64,
    /// Requests that joined an in-flight synthesis instead of starting one.
    pub coalesced: u64,
    /// Syntheses actually executed.
    pub synthesized: u64,
    /// Cache evictions.
    pub evictions: u64,
    /// Misses that were seeded from a neighbor's cached plan.
    pub warm_seeded: u64,
    /// Requests answered with an error frame, on every path. Two kinds
    /// are not counted here: `not_owner` redirects (routing, counted
    /// under `redirected`) and an owner's error relayed by a proxy hop
    /// (counted at the owner).
    pub errors: u64,
    /// Syntheses currently running or queued.
    pub in_flight: u64,
    /// Requests shed with a `busy` frame (queue-depth admission control).
    pub shed: u64,
    /// Synthesized plans the cache's admission gate declined to store.
    pub admission_rejected: u64,
    /// Cache entries reclaimed by TTL expiry.
    pub expired: u64,
    /// Successful `replan` requests (elastic replanning after a cluster
    /// delta), whatever source answered them.
    pub replanned: u64,
    /// Connections currently registered with the event loop.
    pub open_connections: u64,
    /// Most connections ever registered at once.
    pub peak_connections: u64,
    /// Largest partial request line buffered on any connection (bytes).
    pub read_buf_hwm: u64,
    /// Largest response backlog queued toward any connection (bytes).
    pub write_buf_hwm: u64,
    /// Connections closed by the idle-timeout sweep.
    pub idle_closed: u64,
    /// Failed persistence operations (appends, compactions, re-probes)
    /// since boot. Nonzero with `persistence_degraded` back at 0 means an
    /// outage happened and healed.
    pub persist_errors: u64,
    /// Gauge (0/1): 1 while the persistence log is degraded and the cache
    /// is memory-only (the daemon keeps serving; appends re-probe).
    pub persistence_degraded: u64,
    /// Synthesis jobs that panicked and were isolated (each one answered
    /// its leader and followers with a typed `internal` error frame).
    pub panics: u64,
    /// Request traces recorded since boot (all-time, not just the ones the
    /// trace ring still retains). Zero when telemetry is disabled.
    pub traces_recorded: u64,
    /// Latency samples recorded into the `metrics` histograms since boot.
    /// Zero when telemetry is disabled.
    pub metrics_samples: u64,
    /// Plan/replan misses forwarded to the fingerprint's ring owner
    /// (`hap-cluster` mode; the owner is the ring-wide single-flight
    /// leader).
    pub proxied: u64,
    /// Requests answered with a typed `not_owner` redirect because the
    /// client routed on a stale ring epoch.
    pub redirected: u64,
    /// Plans received from peers via the `replicate` verb.
    pub replicated_in: u64,
    /// Plans this daemon pushed to peer owners after synthesis.
    pub replicated_out: u64,
    /// Gauge: the installed ring's membership epoch (0 = no ring,
    /// single-daemon behavior).
    pub ring_epoch: u64,
}

impl StatsSnapshot {
    /// Every field as a `(wire key, value)` pair, in wire order — the one
    /// list `encode`, the Prometheus renderer, and `hap-client --assert`
    /// key validation all share, so a new counter cannot appear in one
    /// surface and be missing from another.
    pub fn fields(&self) -> [(&'static str, u64); 28] {
        [
            ("entries", self.entries),
            ("hits", self.hits),
            ("misses", self.misses),
            ("coalesced", self.coalesced),
            ("synthesized", self.synthesized),
            ("evictions", self.evictions),
            ("warm_seeded", self.warm_seeded),
            ("errors", self.errors),
            ("in_flight", self.in_flight),
            ("shed", self.shed),
            ("admission_rejected", self.admission_rejected),
            ("expired", self.expired),
            ("replanned", self.replanned),
            ("open_connections", self.open_connections),
            ("peak_connections", self.peak_connections),
            ("read_buf_hwm", self.read_buf_hwm),
            ("write_buf_hwm", self.write_buf_hwm),
            ("idle_closed", self.idle_closed),
            ("persist_errors", self.persist_errors),
            ("persistence_degraded", self.persistence_degraded),
            ("panics", self.panics),
            ("traces_recorded", self.traces_recorded),
            ("metrics_samples", self.metrics_samples),
            ("proxied", self.proxied),
            ("redirected", self.redirected),
            ("replicated_in", self.replicated_in),
            ("replicated_out", self.replicated_out),
            ("ring_epoch", self.ring_epoch),
        ]
    }
}

impl Encode for StatsSnapshot {
    fn encode(&self) -> Value {
        Value::obj(self.fields().into_iter().map(|(k, v)| (k, Value::int(v))).collect())
    }
}

impl Decode for StatsSnapshot {
    fn decode(v: &Value) -> Result<Self, hap_codec::CodecError> {
        // Keys gained after PR 4 (the overload counters), PR 6 (the
        // event-loop gauges), PR 8 (the durability/panic counters), PR 9
        // (the telemetry totals), and PR 10 (the cluster counters) decode
        // leniently: a stats frame from an older daemon simply reports
        // them as zero.
        let lenient = |key: &str| match v.get(key) {
            None => Ok(0),
            Some(x) => x.as_u64(),
        };
        Ok(StatsSnapshot {
            entries: v.field("entries")?.as_u64()?,
            hits: v.field("hits")?.as_u64()?,
            misses: v.field("misses")?.as_u64()?,
            coalesced: v.field("coalesced")?.as_u64()?,
            synthesized: v.field("synthesized")?.as_u64()?,
            evictions: v.field("evictions")?.as_u64()?,
            warm_seeded: v.field("warm_seeded")?.as_u64()?,
            errors: v.field("errors")?.as_u64()?,
            in_flight: v.field("in_flight")?.as_u64()?,
            shed: lenient("shed")?,
            admission_rejected: lenient("admission_rejected")?,
            expired: lenient("expired")?,
            replanned: lenient("replanned")?,
            open_connections: lenient("open_connections")?,
            peak_connections: lenient("peak_connections")?,
            read_buf_hwm: lenient("read_buf_hwm")?,
            write_buf_hwm: lenient("write_buf_hwm")?,
            idle_closed: lenient("idle_closed")?,
            persist_errors: lenient("persist_errors")?,
            persistence_degraded: lenient("persistence_degraded")?,
            panics: lenient("panics")?,
            traces_recorded: lenient("traces_recorded")?,
            metrics_samples: lenient("metrics_samples")?,
            proxied: lenient("proxied")?,
            redirected: lenient("redirected")?,
            replicated_in: lenient("replicated_in")?,
            replicated_out: lenient("replicated_out")?,
            ring_epoch: lenient("ring_epoch")?,
        })
    }
}

/// Monotonic request counters, bumped from whatever thread handles the
/// request (loop thread for inline answers, workers for deferred ones).
#[derive(Default)]
pub(crate) struct Counters {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub coalesced: AtomicU64,
    pub synthesized: AtomicU64,
    pub warm_seeded: AtomicU64,
    pub errors: AtomicU64,
    pub shed: AtomicU64,
    pub replanned: AtomicU64,
    /// Synthesis jobs caught panicking by dispatch's `catch_unwind`.
    pub panics: AtomicU64,
    /// Misses forwarded to their ring owner (`hap-cluster` mode).
    pub proxied: AtomicU64,
    /// Stale-epoch requests answered with a `not_owner` redirect.
    pub redirected: AtomicU64,
    /// Plans accepted from peers via the `replicate` verb.
    pub replicated_in: AtomicU64,
    /// Plans pushed to peer owners after local synthesis.
    pub replicated_out: AtomicU64,
}

/// Event-loop gauges, owned by the service so `stats` works both with and
/// without a TCP transport (an in-process service reports zeros).
#[derive(Default)]
pub(crate) struct NetGauges {
    pub open_connections: AtomicU64,
    pub peak_connections: AtomicU64,
    pub read_buf_hwm: AtomicU64,
    pub write_buf_hwm: AtomicU64,
    pub idle_closed: AtomicU64,
}

impl NetGauges {
    /// Raises a high-water-mark gauge to at least `value`.
    pub fn raise(gauge: &AtomicU64, value: u64) {
        gauge.fetch_max(value, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_is_lenient_for_frames_from_older_daemons() {
        // A PR-5-era frame: overload counters present, no event-loop
        // gauges.
        let old = "{\"entries\":1,\"hits\":2,\"misses\":3,\"coalesced\":4,\"synthesized\":5,\
                   \"evictions\":6,\"warm_seeded\":7,\"errors\":8,\"in_flight\":9,\"shed\":10,\
                   \"admission_rejected\":11,\"expired\":12}";
        let snap = StatsSnapshot::decode(&hap_codec::parse(old).unwrap()).unwrap();
        assert_eq!(snap.hits, 2);
        assert_eq!(snap.shed, 10);
        assert_eq!(snap.replanned, 0);
        assert_eq!(snap.open_connections, 0);
        assert_eq!(snap.peak_connections, 0);
        assert_eq!(snap.idle_closed, 0);
        assert_eq!(snap.persist_errors, 0);
        assert_eq!(snap.persistence_degraded, 0);
        assert_eq!(snap.panics, 0);
        assert_eq!(snap.traces_recorded, 0);
        assert_eq!(snap.metrics_samples, 0);
        assert_eq!(snap.proxied, 0);
        assert_eq!(snap.redirected, 0);
        assert_eq!(snap.ring_epoch, 0);
    }

    #[test]
    fn encode_decode_round_trips_every_field() {
        let snap = StatsSnapshot {
            entries: 1,
            hits: 2,
            misses: 3,
            coalesced: 4,
            synthesized: 5,
            evictions: 6,
            warm_seeded: 7,
            errors: 8,
            in_flight: 9,
            shed: 10,
            admission_rejected: 11,
            expired: 12,
            replanned: 18,
            open_connections: 13,
            peak_connections: 14,
            read_buf_hwm: 15,
            write_buf_hwm: 16,
            idle_closed: 17,
            persist_errors: 19,
            persistence_degraded: 1,
            panics: 20,
            traces_recorded: 21,
            metrics_samples: 22,
            proxied: 23,
            redirected: 24,
            replicated_in: 25,
            replicated_out: 26,
            ring_epoch: 27,
        };
        let back = StatsSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(back, snap);
    }
}
