//! A multi-tenant planning daemon for HAP.
//!
//! HAP's synthesized SPMD programs are pure functions of
//! `(graph, cluster spec, options)` — deterministic bit-for-bit across
//! runs, thread counts, and warm starts (PRs 2–3). That purity makes the
//! planner *cacheable*, and this crate turns the in-process pipeline into
//! a long-lived service many training jobs can query:
//!
//! * **Transport** — a line-delimited JSON protocol over a
//!   readiness-driven event loop (`net::event_loop`, on the vendored
//!   `mini-epoll` poller): one nonblocking I/O thread owns every
//!   connection — incremental line framing with a hard per-line cap,
//!   bounded write buffers with read backpressure, an idle sweep — and
//!   the fixed worker pool only computes, delivering response bytes back
//!   through a completion queue and a wake pipe. ~1k concurrent
//!   connections cost one thread, and requests pipelined on one
//!   connection always answer in request order.
//! * **Streaming responses** — a plan request carrying `"stream":true`
//!   is answered as bounded `chunk` frames plus a `done` frame with a
//!   digest ([`hap_codec::StreamDecoder`] reassembles and verifies);
//!   the payload is byte-identical to the plain response line.
//! * **Content-addressed plan cache** — a sharded LRU keyed by the
//!   FNV-1a fingerprint of the request's canonical encoding
//!   ([`hap_codec::request_fingerprint_values`]). A cache hit returns a
//!   plan bit-identical to what cold synthesis would produce, without
//!   decoding the graph at all.
//! * **Single-flight synthesis** — N concurrent identical requests
//!   trigger exactly one synthesis; the rest coalesce onto the in-flight
//!   slot and wake together.
//! * **Worker pool** — queued syntheses drain across persistent worker
//!   threads sized by mini-rayon's parallelism accounting (`workers`
//!   threads, `0` = all cores), one job per worker at a time; each job's
//!   wave-parallel A\* runs on its own crew of mini-rayon workers in turn.
//! * **Nearest-neighbor warm start** — a miss whose *graph* is already
//!   cached under a different cluster seeds
//!   [`hap::parallelize_with_warm`] with the nearest cached cluster's
//!   program (SPMD programs are device-count independent), so related
//!   requests amortize each other's search. Same caveat as the core
//!   library's own (default-on) round-to-round warm start: results are
//!   preserved up to exact cost ties — a seed can only be returned when
//!   it ties the cold optimum within the search epsilon. Disable with
//!   [`ServiceConfig::warm_neighbors`] for strict history-independence.
//! * **Elastic replanning** — a `replan` request names a prior plan by
//!   fingerprint and carries a [`hap_cluster::ClusterDelta`] (devices
//!   removed/added, network overrides). The daemon validates and applies
//!   the delta, rebases the request onto the post-delta cluster, answers
//!   from the cache when that cluster was already planned, and otherwise
//!   synthesizes with the prior program seeding the A\* incumbent; the
//!   response adds a machine-readable [`PlanDiff`]. Invalid deltas fail
//!   with a typed `delta` frame, truly unknown priors with
//!   `unknown_fingerprint`. The replan index is rebuilt from the
//!   persistence log at boot (request triples ride along with persisted
//!   plans and are verified against their fingerprints before being
//!   trusted), so a restarted daemon keeps answering `replan` for every
//!   plan it had persisted; in cluster mode an unknown prior is proxied
//!   to its ring owner before the error is returned.
//! * **Cluster mode** — N daemons share the plan cache across a
//!   consistent-hash ring ([`Ring`]): each member takes `ring_vnodes`
//!   token positions, a fingerprint is owned by the first
//!   `ring_replication` distinct members clockwise, and the ring is a
//!   pure function of the [`RingInfo`] membership record, so every
//!   holder of the record computes identical owners. Misses at a
//!   non-owner are proxied to the primary (single-flight becomes
//!   ring-wide: the owner is the synthesis leader for its range); a
//!   freshly synthesized plan is replicated synchronously to the other
//!   owners before the client sees the ack, so an owner crash loses no
//!   acknowledged plan. [`ClusterClient`] learns the ring via the `ring`
//!   verb, routes requests to owners locally, and follows typed
//!   `not_owner` redirects (stale-epoch requests are redirected, not
//!   proxied, so clients converge on the new membership). Membership
//!   changes are installed by an operator bumping the epoch; installs
//!   are monotonic and idempotent.
//! * **Cost-aware cache admission** — entries carry their measured
//!   synthesis time and canonical size; a full shard only admits a
//!   candidate whose synthesis-seconds-saved-per-byte density is at least
//!   the LRU victim's, so one-off floods cannot evict the hot working set
//!   ([`CachePolicy`]; off = plain LRU).
//! * **TTL expiry** — per-request (`"ttl_ms"`) or config-default TTLs
//!   expire plans for decommissioned clusters; expired entries are never
//!   served, never seed warm starts, and drop out at compaction.
//! * **Queue-depth admission control** — a bounded synthesis backlog
//!   sheds new distinct requests with a typed `busy` frame carrying
//!   `retry_after_ms`; duplicates still coalesce (they add no load). A
//!   [`Client`] given a [`RetryPolicy`] ([`Client::set_retry`]) backs
//!   off exponentially, honoring the hint.
//! * **Crash-safe disk persistence** — a WAL-style append-only log of
//!   checksummed cache records (`{"v":3,"sum":...}`; v2 and PR-4-era
//!   unversioned lines still load, migrating at compaction), compacted
//!   *atomically* on boot (temp file + fsync + rename + directory fsync),
//!   with a configurable append fsync policy (`--fsync
//!   always|every-n|never`, default batched). A crash mid-append leaves
//!   at most one torn final line, which [`load_cache`] recovers and
//!   truncates; interior corruption stays a hard error. A disk fault at
//!   runtime (ENOSPC, EIO) never takes the daemon down: the log degrades
//!   to memory-only (`persistence_degraded` gauge, `persist_errors`
//!   counter) and every later append re-probes, resuming — and
//!   back-filling the outage window from the cache — once the disk heals.
//! * **Panic isolation** — synthesis jobs run under `catch_unwind`; a
//!   panicking job answers its leader *and* every coalesced follower with
//!   a typed `internal` error frame, retires its in-flight entry, leaves
//!   no lock poisoned, and bumps the `panics` counter while the daemon
//!   keeps serving.
//! * **Fault injection** — the [`faults`] registry lets tests arm seeded
//!   one-shot failpoints (injected errno, torn writes, panics) on the fs
//!   and dispatch paths; the crash-recovery torture harness
//!   (`tests/faults.rs`, CI `service-faults`) proves the durability and
//!   isolation claims above.
//! * **Stats** — a `stats` request exposes hit/miss/coalesced/eviction/
//!   shed/admission-rejected/expired/in-flight counters plus event-loop
//!   gauges (open/peak connections, read/write buffer high-water marks,
//!   idle-swept connections). Gauges are sampled once, together, so the
//!   snapshot describes one instant.
//! * **End-to-end telemetry** — every request is traced through a span
//!   timeline (`accept → frame → decode → cache_lookup → queue_wait →
//!   synthesis → encode → flush`) into a fixed-capacity ring, and its
//!   wire latency feeds constant-size log-bucketed histograms keyed by
//!   verb × outcome. A `metrics` request returns per-series
//!   `count/p50/p90/p99/max/sum`; a `trace` request returns the most
//!   recent completed traces (optionally only the slow ones). Plan
//!   responses can carry the synthesis profiler's per-wave counters
//!   (`"profile":true`). The hot path costs a few atomic clock reads;
//!   `telemetry=false` reduces it to nothing and the verbs report empty
//!   data ([`ServiceConfig::telemetry`]).
//!
//! # Telemetry
//!
//! The trace ring holds the last [`ServiceConfig::trace_ring_capacity`]
//! completed traces (default 256); histograms are mergeable and never
//! allocate after startup. The event loop stamps `accept`/`frame`/`flush`
//! spans around the service's own `decode`/`cache_lookup`/`queue_wait`/
//! `synthesis`/`encode` spans, so a trace covers the full wire-to-wire
//! path: the `flush` span ends when the response's last byte actually
//! left the socket, not when it was rendered. `hap-client --prom` renders
//! `stats` + `metrics` as Prometheus text; `hap-top` is a live terminal
//! view over the same verbs.
//! * **Stress tooling** — [`testing`] generates seeded adversarial tenant
//!   mixes (hot set + one-off flood + duplicate bursts); the overload
//!   harness (`tests/overload.rs`, CI `service-soak`) drives them over
//!   real sockets.
//!
//! # Protocol
//!
//! Requests (one JSON object per line):
//!
//! ```text
//! {"op":"plan","id":1,"graph":{...},"cluster":{...},"options":{...},"ttl_ms":60000}
//! {"op":"plan","id":2,"graph":{...},"cluster":{...},"options":{...},"stream":true}
//! {"op":"replan","id":3,"prior":"0x4fd1...","delta":{"remove_gpus":[[1,1]],...}}
//! {"op":"stats","id":4}
//! {"op":"metrics","id":5}
//! {"op":"trace","id":6,"n":8,"min_ms":50}
//! {"op":"ring","id":7}
//! {"op":"ring","id":8,"ring":{"epoch":2,"vnodes":64,"replication":2,"members":[...]},"self":"10.0.0.1:7641"}
//! {"op":"replicate","id":0,"fingerprint":"0x4fd1...","plan":{...},"req":{...}}
//! {"op":"shutdown","id":9}
//! ```
//!
//! (`ttl_ms`, `stream`, and `profile` are optional, on `replan` too;
//! `trace`'s `n` defaults to 16 and `min_ms` to 0. `plan`/`replan` may
//! carry an optional `epoch` — the ring epoch the client routed under.
//! A bare `ring` queries; `ring` + `self` installs that membership
//! record, and the response `{"id":N,"ok":true,"ring":{...},"self":...,
//! "installed":bool}` always reports the ring the daemon actually holds
//! — only a strictly newer epoch replaces the current one. `replicate`
//! is the peer-to-peer push of a freshly synthesized plan to a fellow
//! owner; it answers a bare ok frame.) Responses carry
//! the request `id`, `"ok":true|false`, and either a payload (`plan` with
//! `fingerprint` and `source` — extended with a `replan` diff object for
//! the replan verb, and a `profile` object of synthesis counters when the
//! request carried `"profile":true` — or `stats`, or `metrics` with
//! per-verb×outcome latency quantiles, or `traces` with recent span
//! timelines) or an `error` frame
//! `{"kind":...,"message":...}`
//! transporting the daemon-side error — overload sheds as
//! `{"kind":"busy","message":...,"retry_after_ms":N}`, an over-long line
//! as `{"kind":"oversize",...}`, and a synthesis job that panicked as
//! `{"kind":"internal",...}` (the daemon survives; the request did not
//! complete and may be retried). In cluster mode a request stamped with
//! a ring `epoch` different from the daemon's own, arriving at a
//! non-owner, fails with
//! `{"kind":"not_owner","owner":"host:port","ring_epoch":E,...}` — the
//! request was never executed; the client refreshes its ring at epoch
//! `E` and resends to `owner`. (Same-epoch and unstamped misses are
//! proxied to the owner instead, so ring-naive clients still get full
//! answers.) The `stats` payload includes the
//! durability keys `persist_errors` (failed persistence operations),
//! `persistence_degraded` (0/1 gauge: cache is memory-only until the disk
//! heals), and `panics` (isolated synthesis panics). With
//! `"stream":true` a successful plan
//! arrives as `{"id":N,"chunk":K,"data":...}` frames followed by
//! `{"id":N,"done":true,"chunks":K,"digest":...}`, whose concatenated
//! `data` is exactly the plain response line; errors are always one
//! plain frame.
//!
//! # Examples
//!
//! ```
//! use hap_service::{Client, Server, ServiceConfig};
//!
//! let server = Server::start(ServiceConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//!
//! let graph = hap_models::mlp(&hap_models::MlpConfig::tiny());
//! let cluster = hap::cluster::ClusterSpec::fig17_cluster();
//! let opts = hap::HapOptions::default();
//! let cold = client.plan(&graph, &cluster, &opts).unwrap();
//! let warm = client.plan(&graph, &cluster, &opts).unwrap();
//! assert_eq!(warm.source, "cache");
//! assert_eq!(cold.program.fingerprint(), warm.program.fingerprint());
//! ```

mod cache;
mod client;
mod config;
mod dispatch;
pub mod faults;
mod net;
mod peer;
mod replan;
mod ring;
mod service;
mod stats;
mod sync;
mod telemetry;
pub mod testing;

pub use cache::{
    cluster_features, compact_log, load_cache, Admission, CachePolicy, CachedPlan, LoadOutcome,
    PersistLog, PlanCache,
};
pub use client::{Client, ClusterClient, PlanReply, ReplanReply, RetryPolicy};
pub use config::{FsyncPolicy, ServiceConfig, DEFAULT_FSYNC_EVERY, MAX_TTL_MS};
pub use hap_codec::{PlanDiff, RingInfo};
pub use hap_telemetry::{Clock, Histogram, Outcome, RequestTrace, Span, SpanKind, Verb};
pub use net::event_loop::Server;
pub use ring::Ring;
pub use service::PlanService;
pub use stats::StatsSnapshot;
pub use telemetry::{
    decode_trace, encode_trace, render_prometheus, MetricsSeries, MetricsSnapshot,
};
