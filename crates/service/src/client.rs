//! A blocking line-protocol client for the planning daemon, plus the
//! ring-aware [`ClusterClient`] that routes requests across a cluster of
//! daemons by fingerprint ownership.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use hap::HapOptions;
use hap_cluster::{ClusterDelta, ClusterSpec};
use hap_codec::{
    is_stream_frame, parse, parse_fingerprint, render_fingerprint, request_fingerprint_values,
    Decode, Encode, PlanDiff, RingInfo, StreamDecoder, StreamEvent, Value, WireError,
};
use hap_graph::Graph;
use hap_synthesis::{DistProgram, ShardingRatios};

use crate::ring::Ring;
use crate::stats::StatsSnapshot;
use crate::telemetry::{decode_trace, MetricsSnapshot};
use hap_telemetry::RequestTrace;

/// A plan returned over the wire.
#[derive(Clone, Debug)]
pub struct PlanReply {
    /// The request's content fingerprint (the cache key).
    pub fingerprint: u64,
    /// `cache`, `synthesized`, or `coalesced`.
    pub source: String,
    /// The synthesized program.
    pub program: DistProgram,
    /// Per-segment sharding ratios.
    pub ratios: ShardingRatios,
    /// Cost-model estimate of the per-iteration time, bit-preserved.
    pub estimated_time: f64,
    /// Alternating-optimization rounds the synthesis performed.
    pub rounds: usize,
}

/// A replanned plan: the post-delta plan plus the daemon's diff against
/// the prior plan.
#[derive(Clone, Debug)]
pub struct ReplanReply {
    /// The plan for the post-delta cluster (bit-identical to what cold
    /// synthesis on that cluster would return).
    pub plan: PlanReply,
    /// What changed relative to the prior plan.
    pub diff: PlanDiff,
}

/// How a [`Client`] given a policy ([`Client::set_retry`]) rides out a
/// daemon that sheds load or drops the connection.
///
/// On a `busy` frame the client sleeps and retries: the delay starts at
/// the frame's `retry_after_ms` hint when present (the daemon knows its
/// backlog) or `base_delay_ms` otherwise, doubles per consecutive busy
/// reply (exponential backoff), and is capped at `max_delay_ms`.
///
/// Each delay is additionally *jittered* by a deterministic ±50% factor
/// derived from `jitter_seed` and the attempt number. Without jitter,
/// every client shed by the same busy wave computes the same schedule and
/// re-stampedes the queue in lockstep; distinct seeds decorrelate the
/// retry times while keeping any single client fully reproducible. The
/// daemon's `retry_after_ms` hint is a *floor*: jitter and the cap never
/// push a delay below it.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts before giving up and returning the busy error.
    pub max_attempts: u32,
    /// First-retry delay when the daemon sent no hint.
    pub base_delay_ms: u64,
    /// Upper bound on any single delay (raised to the daemon's hint when
    /// the hint exceeds it).
    pub max_delay_ms: u64,
    /// Seed decorrelating this client's retry schedule from other
    /// clients'. Same seed ⇒ same schedule.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 8, base_delay_ms: 10, max_delay_ms: 2_000, jitter_seed: 0 }
    }
}

/// SplitMix64: a tiny, well-mixed hash for the jitter stream.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (0-based): the hint (or
    /// the base) scaled by `2^attempt`, jittered to `[0.5x, 1.5x)` by a
    /// deterministic function of `(jitter_seed, attempt)`, capped at
    /// `max_delay_ms`, and floored at the daemon's hint.
    pub fn delay_ms(&self, attempt: u32, hint_ms: Option<u64>) -> u64 {
        let base = hint_ms.unwrap_or(self.base_delay_ms).max(1);
        let exponential = base.saturating_mul(1u64 << attempt.min(20));
        // Factor in [0.5, 1.5): 53 mixed bits → [0,1), shifted down 0.5.
        let mixed = splitmix64(self.jitter_seed ^ ((attempt as u64) << 32));
        let unit = (mixed >> 11) as f64 / (1u64 << 53) as f64;
        let jittered = ((exponential as f64) * (0.5 + unit)).round() as u64;
        // The hint is a floor even over the cap: the daemon said "not
        // before then", and retrying earlier is a wasted round trip.
        let floor = hint_ms.unwrap_or(0);
        jittered.clamp(floor, self.max_delay_ms.max(floor))
    }
}

/// One connection to a `hap-serve` daemon.
pub struct Client {
    /// The daemon's resolved address, kept so a retrying request can
    /// reconnect after a dropped connection.
    addr: std::net::SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    /// Busy frames retried through so far.
    busy_retries: u64,
    /// Connection drops reconnected through so far.
    io_retries: u64,
    /// Stream chunk frames reassembled so far.
    stream_chunks: u64,
    /// The membership epoch stamped onto plan/replan requests (`None` =
    /// unstamped). A stamp tells the daemon "I routed with this ring":
    /// at a different epoch than the daemon's own, the daemon answers
    /// with a `not_owner` redirect instead of proxying.
    ring_epoch: Option<u64>,
    /// The cache TTL asked for on plan/replan requests (`None` = the
    /// daemon's default).
    ttl_ms: Option<u64>,
    /// Whether plan/replan requests ask for chunked streaming responses.
    stream: bool,
    /// How plan/replan ride out busy frames and dropped connections
    /// (`None` = one attempt, every error returned as-is).
    retry: Option<RetryPolicy>,
}

impl Client {
    /// Connects to the daemon.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> std::io::Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other("address resolved to nothing"))?;
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            addr,
            reader: BufReader::new(stream),
            writer,
            next_id: 1,
            busy_retries: 0,
            io_retries: 0,
            stream_chunks: 0,
            ring_epoch: None,
            ttl_ms: None,
            stream: false,
            retry: None,
        })
    }

    /// Sets (or clears) the membership epoch stamped onto plan/replan
    /// requests. Used by [`ClusterClient`]; plain single-daemon clients
    /// leave requests unstamped.
    pub fn set_ring_epoch(&mut self, epoch: Option<u64>) {
        self.ring_epoch = epoch;
    }

    /// Sets (or clears) the cache TTL asked for on plan/replan requests:
    /// the daemon expires a plan it caches for this client `ttl_ms`
    /// milliseconds after caching it.
    pub fn set_ttl_ms(&mut self, ttl_ms: Option<u64>) {
        self.ttl_ms = ttl_ms;
    }

    /// Asks for plan/replan responses over the chunked streaming
    /// transport: the daemon sends a plan as chunk frames, reassembled
    /// here. The reassembled reply is byte-identical to the unstreamed
    /// response — streaming only changes the framing, never the payload.
    pub fn set_stream(&mut self, stream: bool) {
        self.stream = stream;
    }

    /// Sets (or clears) the policy plan/replan use to retry `busy` frames
    /// and dropped connections.
    pub fn set_retry(&mut self, retry: Option<RetryPolicy>) {
        self.retry = retry;
    }

    /// Replaces a dead connection with a fresh one to the same daemon.
    /// Request ids keep counting up (the id only has to be unique per
    /// request on its connection).
    fn reconnect(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        self.writer = stream.try_clone()?;
        self.reader = BufReader::new(stream);
        Ok(())
    }

    /// Busy frames this connection has retried through (observability for
    /// tests and the CLI).
    pub fn busy_retries(&self) -> u64 {
        self.busy_retries
    }

    /// Connection drops retrying requests have reconnected through
    /// (observability: proves a retry actually resent over a new
    /// connection).
    pub fn io_retries(&self) -> u64 {
        self.io_retries
    }

    /// Stream chunk frames this connection has reassembled (observability:
    /// proves streamed responses actually arrived chunked).
    pub fn stream_chunks(&self) -> u64 {
        self.stream_chunks
    }

    fn read_frame(&mut self) -> Result<Value, WireError> {
        let io_err = |e: std::io::Error| WireError::new("io", e.to_string());
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).map_err(io_err)?;
        if n == 0 {
            return Err(WireError::new("io", "server closed the connection"));
        }
        if !line.ends_with('\n') {
            // `read_line` hit EOF mid-line: the daemon (or the network)
            // dropped the connection partway through a response. That is a
            // transport failure, not a malformed frame — surfacing it as a
            // parse error would make it look permanent to retry logic.
            return Err(WireError::new("io", "connection closed mid-response"));
        }
        parse(line.trim_end()).map_err(WireError::from)
    }

    fn round_trip(&mut self, mut fields: Vec<(&str, Value)>) -> Result<Value, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        fields.insert(1, ("id", Value::int(id)));
        let frame = Value::obj(fields).render();
        let io_err = |e: std::io::Error| WireError::new("io", e.to_string());
        self.writer.write_all(frame.as_bytes()).map_err(io_err)?;
        self.writer.write_all(b"\n").map_err(io_err)?;
        self.writer.flush().map_err(io_err)?;
        let mut v = self.read_frame()?;
        // A streaming response arrives as chunk frames terminated by a
        // `done` frame; the reassembled payload is the canonical response
        // line. Error frames are never streamed, so a plain frame here is
        // handled identically whether or not streaming was requested.
        if is_stream_frame(&v) {
            let mut decoder = StreamDecoder::new(id);
            loop {
                match decoder.feed(&v).map_err(WireError::from)? {
                    StreamEvent::Chunk => {
                        self.stream_chunks += 1;
                        v = self.read_frame()?;
                    }
                    StreamEvent::Done(payload) => {
                        v = parse(&payload).map_err(WireError::from)?;
                        break;
                    }
                }
            }
        }
        let ok = v.field("ok").and_then(|x| x.as_bool()).map_err(WireError::from)?;
        if !ok {
            let err = v.field("error").map_err(WireError::from)?;
            let decoded = WireError::decode(err).map_err(WireError::from)?;
            return Err(decoded);
        }
        let got = v.field("id").and_then(|x| x.as_u64()).map_err(WireError::from)?;
        if got != id {
            return Err(WireError::new("protocol", format!("response id {got}, expected {id}")));
        }
        Ok(v)
    }

    /// Requests a plan for `(graph, cluster, options)`, with the held
    /// TTL, streaming and retry settings.
    pub fn plan(
        &mut self,
        graph: &Graph,
        cluster: &ClusterSpec,
        options: &HapOptions,
    ) -> Result<PlanReply, WireError> {
        let v = self.request(vec![
            ("op", Value::Str("plan".into())),
            ("graph", graph.encode()),
            ("cluster", cluster.encode()),
            ("options", options.encode()),
        ])?;
        decode_plan_reply(&v)
    }

    /// Re-plans a previously planned request after a cluster change: the
    /// daemon applies `delta` to the prior request's cluster, seeds the
    /// synthesis with the prior plan, and returns the post-delta plan plus
    /// a diff. A typed `unknown_fingerprint` error means the daemon no
    /// longer holds the prior (expired, evicted, or restarted) — fall back
    /// to [`Client::plan`]. Uses the same held settings as `plan`.
    pub fn replan(&mut self, prior: u64, delta: &ClusterDelta) -> Result<ReplanReply, WireError> {
        let v = self.request(vec![
            ("op", Value::Str("replan".into())),
            ("prior", Value::Str(render_fingerprint(prior))),
            ("delta", delta.encode()),
        ])?;
        let plan = decode_plan_reply(&v)?;
        let diff = PlanDiff::decode(v.field("replan").map_err(WireError::from)?)
            .map_err(WireError::from)?;
        Ok(ReplanReply { plan, diff })
    }

    /// Sends a plan-bearing request with the held optional fields. With a
    /// retry policy held, `busy` frames are retried with exponential
    /// backoff honoring the daemon's `retry_after_ms` hint (see
    /// [`RetryPolicy`]), and a connection reset or EOF mid-response
    /// reconnects and resends (plans are pure and idempotent, so a resend
    /// is always safe — at worst it becomes a cache hit). Any other error
    /// — and busy or I/O failures persisting past `max_attempts` — is
    /// returned as-is.
    fn request(&mut self, mut fields: Vec<(&str, Value)>) -> Result<Value, WireError> {
        if let Some(ms) = self.ttl_ms {
            // Fail cleanly instead of hitting the codec's exact-integer
            // assert (the daemon would reject it anyway).
            if ms > crate::config::MAX_TTL_MS {
                return Err(WireError::new(
                    "decode",
                    format!("ttl_ms {ms} exceeds the maximum {}", crate::config::MAX_TTL_MS),
                ));
            }
            fields.push(("ttl_ms", Value::int(ms)));
        }
        if self.stream {
            fields.push(("stream", Value::Bool(true)));
        }
        if let Some(epoch) = self.ring_epoch {
            fields.push(("epoch", Value::int(epoch)));
        }
        let Some(policy) = self.retry else { return self.round_trip(fields) };
        let mut attempt = 0u32;
        loop {
            match self.round_trip(fields.clone()) {
                Err(e) if e.is_busy() && attempt + 1 < policy.max_attempts => {
                    let delay = policy.delay_ms(attempt, e.retry_after_ms);
                    self.busy_retries += 1;
                    attempt += 1;
                    std::thread::sleep(std::time::Duration::from_millis(delay));
                }
                Err(e) if e.kind == "io" && attempt + 1 < policy.max_attempts => {
                    // Reconnect (with backoff between failed reconnects)
                    // and resend.
                    self.io_retries += 1;
                    let delay = policy.delay_ms(attempt, None);
                    attempt += 1;
                    std::thread::sleep(std::time::Duration::from_millis(delay));
                    self.reconnect().map_err(|re| {
                        WireError::new("io", format!("{}; reconnect failed: {re}", e.message))
                    })?;
                }
                other => return other,
            }
        }
    }

    /// Fetches the daemon's counters.
    pub fn stats(&mut self) -> Result<StatsSnapshot, WireError> {
        self.stats_with_raw().map(|(snapshot, _)| snapshot)
    }

    /// [`Client::stats`] plus the raw `stats` object from the wire.
    /// [`StatsSnapshot::decode`] is deliberately lenient — a key a daemon
    /// predates reads as 0 — so callers asserting on specific keys (the
    /// CLI's `--assert`) consult the raw frame to distinguish "absent"
    /// from "zero".
    pub fn stats_with_raw(&mut self) -> Result<(StatsSnapshot, Value), WireError> {
        let v = self.round_trip(vec![("op", Value::Str("stats".into()))])?;
        let raw = v.field("stats").map_err(WireError::from)?.clone();
        let snapshot = StatsSnapshot::decode(&raw).map_err(WireError::from)?;
        Ok((snapshot, raw))
    }

    /// Fetches the daemon's ring view: the membership record (empty at
    /// epoch 0 when none is installed), the address the daemon occupies
    /// on it, and `false` for `installed` (nothing was sent to install).
    pub fn ring(&mut self) -> Result<(RingInfo, String, bool), WireError> {
        let v = self.round_trip(vec![("op", Value::Str("ring".into()))])?;
        decode_ring_reply(&v)
    }

    /// Installs a membership record on the daemon, telling it which ring
    /// address is its own. Returns whether the daemon adopted the record
    /// (only a strictly newer epoch replaces the current ring).
    pub fn install_ring(&mut self, info: &RingInfo, self_addr: &str) -> Result<bool, WireError> {
        let v = self.round_trip(vec![
            ("op", Value::Str("ring".into())),
            ("ring", info.encode()),
            ("self", Value::Str(self_addr.into())),
        ])?;
        decode_ring_reply(&v).map(|(_, _, installed)| installed)
    }

    /// Fetches the daemon's latency histograms: one series of
    /// `count/p50/p90/p99/max/sum` per verb × outcome. Empty when the
    /// daemon has telemetry disabled (or predates the `metrics` verb —
    /// decode is lenient).
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, WireError> {
        let v = self.round_trip(vec![("op", Value::Str("metrics".into()))])?;
        MetricsSnapshot::decode(v.field("metrics").map_err(WireError::from)?)
            .map_err(WireError::from)
    }

    /// Fetches up to `n` recent completed request traces, newest first,
    /// keeping only requests that took at least `min_ms` (0 = all).
    pub fn traces(&mut self, n: usize, min_ms: u64) -> Result<Vec<RequestTrace>, WireError> {
        let v = self.round_trip(vec![
            ("op", Value::Str("trace".into())),
            ("n", Value::int(n as u64)),
            ("min_ms", Value::int(min_ms)),
        ])?;
        let Value::Arr(items) = v.field("traces").map_err(WireError::from)? else {
            return Err(WireError::new("decode", "`traces` is not an array"));
        };
        items.iter().map(|t| decode_trace(t).map_err(WireError::from)).collect()
    }

    /// Asks the daemon to shut down (acknowledged before it stops).
    pub fn shutdown(&mut self) -> Result<(), WireError> {
        self.round_trip(vec![("op", Value::Str("shutdown".into()))]).map(|_| ())
    }
}

/// Decodes a `ring` response: `(membership, daemon's own ring address,
/// whether an install was adopted)`.
fn decode_ring_reply(v: &Value) -> Result<(RingInfo, String, bool), WireError> {
    let info =
        RingInfo::decode(v.field("ring").map_err(WireError::from)?).map_err(WireError::from)?;
    let self_addr = v.field("self").and_then(|x| x.as_str()).map_err(WireError::from)?.to_string();
    let installed = v.field("installed").and_then(|x| x.as_bool()).map_err(WireError::from)?;
    Ok((info, self_addr, installed))
}

/// How many routing attempts (redirect follows + failovers) a
/// [`ClusterClient`] request makes before surfacing the last error.
const MAX_ROUTE_ATTEMPTS: usize = 4;

/// A ring-aware client for a cluster of planning daemons.
///
/// Routes each request to the fingerprint's ring owner locally (the same
/// consistent hash the daemons use), stamping the membership epoch it
/// routed with. A daemon whose ring view disagrees answers with a typed
/// `not_owner` redirect carrying the owner it believes in — the client
/// follows the redirect, refreshes its membership from the new daemon,
/// and re-sends, bounded by [`MAX_ROUTE_ATTEMPTS`]. A dead daemon fails
/// over to the fingerprint's next replica owner. With no ring installed
/// anywhere the client degrades to seed-list routing, which a
/// single-daemon deployment makes exact.
pub struct ClusterClient {
    /// Daemon addresses given at connect time — membership bootstrap and
    /// the routing fallback when no ring is installed.
    seeds: Vec<String>,
    /// The latest membership this client has learned, as a built ring.
    ring: Option<Ring>,
    /// One pooled connection per daemon address.
    conns: HashMap<String, Client>,
    /// `not_owner` redirects followed (observability for tests).
    redirects_followed: u64,
    /// Dead-daemon failovers performed (observability for tests).
    failovers: u64,
}

impl ClusterClient {
    /// Connects to a cluster by its seed addresses and learns the current
    /// membership from whichever seeds answer. Unreachable seeds are
    /// tolerated — they may be the daemons a later ring epoch removed.
    pub fn connect(seeds: &[String]) -> Result<ClusterClient, WireError> {
        if seeds.is_empty() {
            return Err(WireError::new("decode", "cluster client needs at least one seed address"));
        }
        let mut client = ClusterClient {
            seeds: seeds.to_vec(),
            ring: None,
            conns: HashMap::new(),
            redirects_followed: 0,
            failovers: 0,
        };
        client.refresh_ring();
        Ok(client)
    }

    /// Re-learns the membership from every reachable seed, keeping the
    /// highest epoch seen. Best-effort: with nothing reachable the
    /// current view (possibly none) stands.
    pub fn refresh_ring(&mut self) {
        for addr in self.seeds.clone() {
            self.refresh_ring_from(&addr);
        }
    }

    /// Asks one daemon for its membership and adopts it if newer.
    fn refresh_ring_from(&mut self, addr: &str) {
        let fetched = match self.client_for(addr) {
            Ok(client) => client.ring(),
            Err(_) => return,
        };
        match fetched {
            Ok((info, _, _)) => self.adopt(info),
            // A failed ring query means a dead pooled connection as often
            // as a dead daemon; drop it so the next use reconnects.
            Err(_) => {
                self.conns.remove(addr);
            }
        }
    }

    fn adopt(&mut self, info: RingInfo) {
        if info.is_empty() {
            return;
        }
        if self.ring.as_ref().is_none_or(|r| info.epoch > r.epoch()) {
            self.ring = Some(Ring::build(info));
        }
    }

    /// The membership epoch this client routes with (0 = none learned).
    pub fn ring_epoch(&self) -> u64 {
        self.ring.as_ref().map_or(0, Ring::epoch)
    }

    /// `not_owner` redirects this client has followed.
    pub fn redirects_followed(&self) -> u64 {
        self.redirects_followed
    }

    /// Dead-daemon failovers this client has performed.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    fn client_for(&mut self, addr: &str) -> Result<&mut Client, WireError> {
        use std::collections::hash_map::Entry;
        match self.conns.entry(addr.to_string()) {
            Entry::Occupied(entry) => Ok(entry.into_mut()),
            Entry::Vacant(entry) => {
                let client =
                    Client::connect(addr).map_err(|e| WireError::new("io", e.to_string()))?;
                Ok(entry.insert(client))
            }
        }
    }

    /// Where a fingerprint's request goes: its ring owner, else (no ring)
    /// a deterministic seed.
    fn route(&self, fp: u64) -> String {
        if let Some(ring) = &self.ring {
            if let Some(primary) = ring.primary(fp) {
                return primary.to_string();
            }
        }
        self.seeds[(fp % self.seeds.len() as u64) as usize].clone()
    }

    /// The next address to try after `dead` failed: the fingerprint's
    /// next replica owner, else the next seed.
    fn failover_target(&self, dead: &str, fp: u64) -> String {
        if let Some(ring) = &self.ring {
            if let Some(next) = ring.owners(fp).into_iter().find(|o| *o != dead) {
                return next.to_string();
            }
        }
        let next =
            self.seeds.iter().position(|s| s == dead).map_or(0, |i| (i + 1) % self.seeds.len());
        self.seeds[next].clone()
    }

    /// Routes one already-fingerprinted request, following redirects and
    /// failing over dead daemons, bounded by [`MAX_ROUTE_ATTEMPTS`].
    fn route_request<T>(
        &mut self,
        fp: u64,
        mut send: impl FnMut(&mut Client) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let mut target = self.route(fp);
        let mut last_err = WireError::new("io", "cluster routing made no attempts");
        for _ in 0..MAX_ROUTE_ATTEMPTS {
            let epoch = self.ring_epoch();
            let client = match self.client_for(&target) {
                Ok(client) => client,
                Err(err) => {
                    self.failovers += 1;
                    last_err = err;
                    target = self.failover_target(&target, fp);
                    continue;
                }
            };
            client.set_ring_epoch((epoch > 0).then_some(epoch));
            match send(client) {
                Err(err) if err.is_not_owner() => {
                    self.redirects_followed += 1;
                    // The daemon told us who owns the fingerprint on its
                    // (different-epoch) ring: go there, and learn that
                    // ring so later requests route correctly first try.
                    if let Some(owner) = err.owner.clone() {
                        target = owner;
                        self.refresh_ring_from(&target);
                    } else {
                        self.refresh_ring();
                        target = self.route(fp);
                    }
                    last_err = err;
                }
                Err(err) if err.kind == "io" => {
                    self.conns.remove(&target);
                    self.failovers += 1;
                    last_err = err;
                    // The daemon may be dead for good: learn the epoch that
                    // removed it (survivors hold it) so later requests stop
                    // routing here, then fail over for this one.
                    self.refresh_ring();
                    let rerouted = self.route(fp);
                    target = if rerouted == target {
                        self.failover_target(&target, fp)
                    } else {
                        rerouted
                    };
                }
                other => return other,
            }
        }
        Err(last_err)
    }

    /// Requests a plan, routed to the request fingerprint's ring owner.
    pub fn plan(
        &mut self,
        graph: &Graph,
        cluster: &ClusterSpec,
        options: &HapOptions,
    ) -> Result<PlanReply, WireError> {
        let fp = request_fingerprint_values(&graph.encode(), &cluster.encode(), &options.encode());
        self.route_request(fp, |client| client.plan(graph, cluster, options))
    }

    /// Replans after a cluster change, routed to the *prior* fingerprint's
    /// ring owner (which holds the prior request and plan). A typed
    /// `unknown_fingerprint` error passes through — fall back to
    /// [`ClusterClient::plan`] exactly as with a single daemon.
    pub fn replan(&mut self, prior: u64, delta: &ClusterDelta) -> Result<ReplanReply, WireError> {
        self.route_request(prior, |client| client.replan(prior, delta))
    }

    /// Fetches one daemon's counters (cluster stats are per-daemon).
    pub fn stats_of(&mut self, addr: &str) -> Result<StatsSnapshot, WireError> {
        self.client_for(addr)?.stats()
    }
}

/// Decodes the shared plan-response shape (`plan` and `replan` frames).
fn decode_plan_reply(v: &Value) -> Result<PlanReply, WireError> {
    let fingerprint = parse_fingerprint(
        v.field("fingerprint").and_then(|x| x.as_str()).map_err(WireError::from)?,
    )
    .map_err(WireError::from)?;
    let source = v.field("source").and_then(|x| x.as_str()).map_err(WireError::from)?.to_string();
    let plan = v.field("plan").map_err(WireError::from)?;
    Ok(PlanReply {
        fingerprint,
        source,
        program: DistProgram::decode(plan.field("program").map_err(WireError::from)?)
            .map_err(WireError::from)?,
        ratios: ShardingRatios::decode(plan.field("ratios").map_err(WireError::from)?)
            .map_err(WireError::from)?,
        estimated_time: plan
            .field("estimated_time")
            .and_then(|x| x.as_f64())
            .map_err(WireError::from)?,
        rounds: plan.field("rounds").and_then(|x| x.as_usize()).map_err(WireError::from)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_reproduces_the_schedule() {
        let a = RetryPolicy { jitter_seed: 42, ..RetryPolicy::default() };
        let b = RetryPolicy { jitter_seed: 42, ..RetryPolicy::default() };
        for attempt in 0..8 {
            assert_eq!(a.delay_ms(attempt, None), b.delay_ms(attempt, None));
            assert_eq!(a.delay_ms(attempt, Some(25)), b.delay_ms(attempt, Some(25)));
        }
    }

    #[test]
    fn distinct_seeds_decorrelate_two_clients() {
        // Two clients shed by the same busy wave see the same hints; with
        // distinct seeds their sleep schedules must diverge (lockstep
        // would re-stampede the daemon).
        let a = RetryPolicy { jitter_seed: 1, max_delay_ms: 1 << 40, ..RetryPolicy::default() };
        let b = RetryPolicy { jitter_seed: 2, max_delay_ms: 1 << 40, ..RetryPolicy::default() };
        let schedule_a: Vec<u64> = (0..8).map(|i| a.delay_ms(i, Some(25))).collect();
        let schedule_b: Vec<u64> = (0..8).map(|i| b.delay_ms(i, Some(25))).collect();
        let differing = schedule_a.iter().zip(&schedule_b).filter(|(x, y)| x != y).count();
        assert!(differing >= 6, "schedules barely diverge: {schedule_a:?} vs {schedule_b:?}");
    }

    #[test]
    fn delays_stay_in_the_jitter_envelope() {
        let policy = RetryPolicy {
            jitter_seed: 7,
            base_delay_ms: 10,
            max_delay_ms: 1 << 40,
            ..RetryPolicy::default()
        };
        for attempt in 0..12u32 {
            let exponential = 10u64 << attempt;
            let d = policy.delay_ms(attempt, None);
            assert!(
                d >= exponential / 2 && d <= exponential + exponential / 2 + 1,
                "attempt {attempt}: {d} outside [{}, {}]",
                exponential / 2,
                exponential + exponential / 2
            );
        }
    }

    #[test]
    fn hint_is_a_floor_even_over_the_cap() {
        let policy = RetryPolicy { max_delay_ms: 50, ..RetryPolicy::default() };
        for seed in 0..32u64 {
            let p = RetryPolicy { jitter_seed: seed, ..policy };
            for attempt in 0..6 {
                // Jitter can halve the exponential, but never below the
                // daemon's hint.
                assert!(p.delay_ms(attempt, Some(40)) >= 40);
                // And the cap yields to the hint when the hint is larger.
                assert!(p.delay_ms(attempt, Some(200)) >= 200);
            }
        }
    }

    #[test]
    fn cap_still_bounds_unhinted_delays() {
        let policy = RetryPolicy { jitter_seed: 3, max_delay_ms: 100, ..RetryPolicy::default() };
        for attempt in 0..20 {
            assert!(policy.delay_ms(attempt, None) <= 100);
        }
    }
}
