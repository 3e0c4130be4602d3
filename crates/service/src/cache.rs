//! The content-addressed plan cache: a sharded LRU keyed by request
//! fingerprint, hardened for adversarial tenant mixes with a cost-aware
//! admission policy and per-entry TTL expiry, with versioned append-only
//! disk persistence and a nearest-neighbor lookup that powers the
//! warm-start path.
//!
//! # Admission
//!
//! Plain LRU is unsafe under mixed tenant traffic: a burst of one-off
//! requests evicts the hot working set even though each one-off plan will
//! never be asked for again. Every entry therefore carries the measured
//! `synthesis_nanos` and its canonical payload `size_bytes`, and a full
//! shard only admits a new entry when its *density* — estimated
//! synthesis-seconds saved per cached byte ([`CachedPlan::density`]) — is
//! at least the would-be LRU victim's. Cheap bulky one-offs bounce off an
//! expensive working set; when every cost and size is equal the gate
//! always passes and behavior degrades to exactly the PR-4 LRU (pinned by
//! `tests/cache_props.rs`).
//!
//! # TTL
//!
//! An optional per-entry TTL (request-settable over the wire, with a
//! config default) expires plans for decommissioned clusters: expired
//! entries are never served, never seed warm starts, never persist at
//! compaction, and are reclaimed lazily (on lookup) or eagerly (when
//! their shard needs room). TTLs restart on daemon boot — the log stores
//! the TTL, not an absolute deadline, so a reloaded entry lives one more
//! TTL from boot at most.
//!
//! # Durability
//!
//! Persistence is a WAL-style append log of checksummed records
//! ([`hap_codec::persist_line`], v3) behind [`PersistLog`]: compaction
//! rewrites atomically (temp + fsync + rename + dir fsync), appends fsync
//! per [`FsyncPolicy`], [`load_cache`] recovers a torn final line from a
//! crash mid-append, and any disk fault degrades the log to memory-only
//! (with re-probe) instead of taking the daemon down. The fs paths
//! consult the [`crate::faults`] registry so the whole story is provable
//! under seeded fault injection (`tests/faults.rs`).

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Duration;

use hap_cluster::{ClusterSpec, Granularity};
pub use hap_codec::CachedPlan;
use hap_codec::{parse_persist_line_full, persist_line_with_req, CodecError, Value};
use hap_telemetry::Clock;

use crate::config::FsyncPolicy;
use crate::faults::{self, Fault};
use crate::replan::ReplanIndex;
use crate::sync::lock_recover;

/// Cache shards. A power of two so the fingerprint masks cleanly; 16 keeps
/// per-shard lock scopes short under concurrent connection threads.
const SHARDS: usize = 16;

/// The coarse cluster descriptors the neighbor metric compares: virtual
/// device count, aggregate effective flops, inter-machine bandwidth and
/// latency. Deliberately low-dimensional — the metric only has to rank
/// *plausible* warm seeds, the A\* still verifies them against the real
/// cost model.
pub fn cluster_features(cluster: &ClusterSpec, granularity: Granularity) -> [f64; 4] {
    let devices = cluster.virtual_devices(granularity);
    let total_flops: f64 = devices.iter().map(|d| d.flops).sum();
    [devices.len() as f64, total_flops, cluster.inter_bandwidth, cluster.inter_latency]
}

/// Log-ratio distance between two feature vectors, with a penalty when the
/// request options differ (a same-options neighbor re-costs exactly; a
/// different-options one is still a valid seed, just less likely close).
fn distance(a: &[f64; 4], b: &[f64; 4], same_opts: bool) -> f64 {
    let mut d = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let (x, y) = (x.max(1e-300), y.max(1e-300));
        d += (x / y).ln().abs();
    }
    if !same_opts {
        d += 0.5;
    }
    d
}

/// Cache behavior knobs, independent of capacity.
#[derive(Clone, Debug)]
pub struct CachePolicy {
    /// Gate admission on saved-seconds-per-byte density (see module docs).
    /// Off = plain LRU, the PR-4 behavior.
    pub admission: bool,
    /// TTL applied to entries that carry none of their own; `None` = no
    /// default, entries without a per-request TTL never expire.
    pub default_ttl: Option<Duration>,
}

impl Default for CachePolicy {
    fn default() -> Self {
        CachePolicy { admission: true, default_ttl: None }
    }
}

/// The outcome of one [`PlanCache::insert`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Admission {
    /// The entry is cached; `evicted` lists the fingerprints removed to
    /// make room (empty when the shard had space).
    Admitted {
        /// Fingerprints evicted to admit this entry.
        evicted: Vec<u64>,
    },
    /// The fingerprint was already cached; the entry was updated in place.
    Replaced,
    /// The admission gate held: the candidate's density is below the
    /// would-be victim's, so the incumbent stays and the candidate is
    /// dropped.
    Rejected {
        /// The LRU victim the candidate failed to displace.
        victim_fp: u64,
    },
}

struct Entry {
    plan: Arc<CachedPlan>,
    last_used: u64,
    /// Clock-nanos deadline after which the entry is dead; `None` = never.
    expires_at: Option<u64>,
}

impl Entry {
    fn expired(&self, now: u64) -> bool {
        self.expires_at.is_some_and(|deadline| now >= deadline)
    }
}

#[derive(Default)]
struct Shard {
    map: HashMap<u64, Entry>,
}

/// A sharded, admission-gated, TTL-aware LRU of [`CachedPlan`]s keyed by
/// request fingerprint.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry budget (total capacity / shard count, at least 1).
    per_shard: usize,
    policy: CachePolicy,
    /// The TTL clock. Production uses its own monotonic clock (never the
    /// telemetry clock, which tests step); tests inject a manually
    /// advanced one so TTL expiry is exact and deterministic.
    clock: Clock,
    /// Monotonic use clock driving LRU eviction.
    tick: AtomicU64,
    evictions: AtomicU64,
    rejected: AtomicU64,
    expired: AtomicU64,
}

impl PlanCache {
    /// Creates a cache holding roughly `capacity` plans in total, with the
    /// default policy (admission on, no default TTL).
    pub fn new(capacity: usize) -> Self {
        PlanCache::with_policy(capacity, CachePolicy::default())
    }

    /// Creates a cache with an explicit policy.
    pub fn with_policy(capacity: usize, policy: CachePolicy) -> Self {
        PlanCache::build(capacity, policy, Clock::monotonic())
    }

    /// Creates a cache whose clock is the given shared nanosecond counter,
    /// advanced manually — deterministic TTL expiry for tests.
    pub fn with_manual_clock(capacity: usize, policy: CachePolicy, nanos: Arc<AtomicU64>) -> Self {
        PlanCache::build(capacity, policy, Clock::manual(nanos))
    }

    fn build(capacity: usize, policy: CachePolicy, clock: Clock) -> Self {
        PlanCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard: capacity.div_ceil(SHARDS).max(1),
            policy,
            clock,
            tick: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            expired: AtomicU64::new(0),
        }
    }

    fn shard(&self, fp: u64) -> &Mutex<Shard> {
        &self.shards[(fp as usize) & (SHARDS - 1)]
    }

    /// The shard index a fingerprint maps to (tests size hot sets so they
    /// fit the per-shard budget before asserting retention).
    pub fn shard_of(fp: u64) -> usize {
        (fp as usize) & (SHARDS - 1)
    }

    /// Per-shard entry budget.
    pub fn shard_budget(&self) -> usize {
        self.per_shard
    }

    /// The TTL an entry with override `ttl_nanos` would get: the override
    /// wins, then the policy default, then none.
    fn effective_ttl(&self, ttl_nanos: Option<u64>) -> Option<u64> {
        ttl_nanos.or(self.policy.default_ttl.map(|d| d.as_nanos() as u64))
    }

    /// Looks up a plan by request fingerprint, refreshing its LRU position.
    /// An expired entry is reclaimed and reported as a miss — expired
    /// plans are never served.
    pub fn get(&self, fp: u64) -> Option<Arc<CachedPlan>> {
        let now = self.clock.now_nanos();
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut shard = lock_recover(self.shard(fp));
        let entry = shard.map.get_mut(&fp)?;
        if entry.expired(now) {
            shard.map.remove(&fp);
            self.expired.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        entry.last_used = tick;
        Some(entry.plan.clone())
    }

    /// Offers a plan to the cache. A fingerprint already present is
    /// replaced in place; otherwise expired entries in the shard are
    /// reclaimed first, and if the shard is still full the candidate must
    /// beat the LRU victim's density to displace it (admission on) or
    /// displaces it unconditionally (admission off — plain LRU).
    pub fn insert(&self, fp: u64, plan: Arc<CachedPlan>) -> Admission {
        let now = self.clock.now_nanos();
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let expires_at =
            self.effective_ttl(plan.ttl_nanos).map(|ttl| now.saturating_add(ttl.max(1)));
        let mut shard = lock_recover(self.shard(fp));
        if let Some(existing) = shard.map.get_mut(&fp) {
            *existing = Entry { plan, last_used: tick, expires_at };
            return Admission::Replaced;
        }
        // Expired entries are free space: reclaim before pricing victims.
        let dead: Vec<u64> =
            shard.map.iter().filter(|(_, e)| e.expired(now)).map(|(k, _)| *k).collect();
        for k in dead {
            shard.map.remove(&k);
            self.expired.fetch_add(1, Ordering::Relaxed);
        }
        let mut evicted = Vec::new();
        while shard.map.len() >= self.per_shard {
            let victim = shard
                .map
                .iter()
                .min_by_key(|(k, e)| (e.last_used, **k))
                .map(|(k, _)| *k)
                .expect("full shard is non-empty");
            if self.policy.admission {
                let incumbent = shard.map[&victim].plan.density();
                if plan.density() < incumbent {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    return Admission::Rejected { victim_fp: victim };
                }
            }
            shard.map.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            evicted.push(victim);
        }
        shard.map.insert(fp, Entry { plan, last_used: tick, expires_at });
        Admission::Admitted { evicted }
    }

    /// Total entries across all shards (including not-yet-reclaimed
    /// expired entries, which occupy space until touched).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_recover(s).map.len()).sum()
    }

    /// True when no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries evicted (displaced live) since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Candidates the admission gate turned away since construction.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Entries reclaimed by TTL expiry since construction.
    pub fn expired(&self) -> u64 {
        self.expired.load(Ordering::Relaxed)
    }

    /// One-point sample of `(entries, evictions, rejected, expired)` for
    /// the `stats` verb: the counters are read back-to-back *after* the
    /// shard sweep, so a stats frame never pairs an entry count from one
    /// moment with churn counters from a visibly later one.
    pub fn stats_sample(&self) -> (u64, u64, u64, u64) {
        let entries = self.len() as u64;
        (
            entries,
            self.evictions.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
            self.expired.load(Ordering::Relaxed),
        )
    }

    /// The cached plan for the same graph whose cluster is nearest to
    /// `features` — the warm-start seed for a cache miss. Scans every
    /// shard, skipping expired entries; ties break on the smaller
    /// fingerprint so the choice is deterministic.
    pub fn nearest(
        &self,
        graph_fp: u64,
        opts_fp: u64,
        features: &[f64; 4],
    ) -> Option<Arc<CachedPlan>> {
        let now = self.clock.now_nanos();
        let mut best: Option<(f64, u64, Arc<CachedPlan>)> = None;
        for shard in &self.shards {
            let shard = lock_recover(shard);
            for (fp, entry) in &shard.map {
                if entry.plan.graph_fp != graph_fp || entry.expired(now) {
                    continue;
                }
                let d = distance(features, &entry.plan.features, entry.plan.opts_fp == opts_fp);
                let better = match &best {
                    None => true,
                    Some((bd, bfp, _)) => d < *bd || (d == *bd && *fp < *bfp),
                };
                if better {
                    best = Some((d, *fp, entry.plan.clone()));
                }
            }
        }
        best.map(|(_, _, plan)| plan)
    }

    /// A snapshot of live `(fingerprint, plan)` pairs in unspecified
    /// order. Expired entries are excluded (compaction drops them).
    pub fn snapshot(&self) -> Vec<(u64, Arc<CachedPlan>)> {
        let now = self.clock.now_nanos();
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = lock_recover(shard);
            out.extend(
                shard
                    .map
                    .iter()
                    .filter(|(_, e)| !e.expired(now))
                    .map(|(fp, e)| (*fp, e.plan.clone())),
            );
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

/// What [`load_cache`] found on disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadOutcome {
    /// Entries decoded and offered to the cache.
    pub loaded: usize,
    /// True when the log ended in a torn (unterminated, unparsable) final
    /// line — the signature of a crash mid-append — which was cut off the
    /// file. Everything before it loaded normally.
    pub torn_tail_recovered: bool,
}

/// Loads a persisted cache log into `cache`.
///
/// The crash-consistency contract: appends write the record bytes first
/// and the terminating newline last, so a crash mid-append leaves at most
/// one *unterminated* final line. Exactly that is tolerated — a final line
/// with no trailing `'\n'` that fails to parse (or fails its checksum) is
/// truncated off the file and reported via
/// [`LoadOutcome::torn_tail_recovered`]. Every other defect — a corrupt
/// interior line, or a corrupt final line that *is* newline-terminated
/// (no crash writes one of those; that is real disk corruption) — stays a
/// hard error: the file is machine-written and silent skips would hide
/// data loss.
///
/// All three record generations load (checksummed v3, PR-5 v2, PR-4
/// unversioned — see [`hap_codec::persist_line`]'s module docs). Returns
/// the number of entries offered to the cache — the admission policy
/// applies on reload too, so a log longer than the capacity keeps its
/// densest tail rather than its newest.
///
/// After a recovered torn tail the file may still end without a newline
/// (when the torn line *parsed*, it is kept as-is). Run [`compact_log`]
/// before appending again — [`PersistLog::start`] does — so a later
/// append can never concatenate onto a partial line.
pub fn load_cache(cache: &PlanCache, path: &Path) -> Result<LoadOutcome, CodecError> {
    load_cache_with_requests(cache, path, &mut |_, _| {})
}

/// [`load_cache`] plus request-triple recovery: records that embed a
/// `"req"` field (see [`hap_codec::persist_line_with_req`]) surface it
/// through `on_request`, which the service uses to rebuild the replan
/// index at boot — `replan` then keeps answering across restarts.
pub(crate) fn load_cache_with_requests(
    cache: &PlanCache,
    path: &Path,
    on_request: &mut dyn FnMut(u64, Value),
) -> Result<LoadOutcome, CodecError> {
    let data = match std::fs::read(path) {
        Ok(d) => d,
        // A missing file is simply an empty cache (first boot).
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(LoadOutcome::default()),
        Err(e) => return Err(CodecError::Decode(format!("cannot open {}: {e}", path.display()))),
    };
    let mut loaded = 0;
    let mut start = 0;
    while start < data.len() {
        let (end, terminated) = match data[start..].iter().position(|&b| b == b'\n') {
            Some(nl) => (start + nl, true),
            None => (data.len(), false),
        };
        let raw = &data[start..end];
        let parsed = std::str::from_utf8(raw)
            .map_err(|e| CodecError::Decode(format!("line is not UTF-8: {e}")))
            .and_then(|line| {
                if line.trim().is_empty() {
                    Ok(None)
                } else {
                    parse_persist_line_full(line).map(Some)
                }
            });
        match parsed {
            Ok(None) => {}
            Ok(Some((fp, plan, req))) => {
                cache.insert(fp, Arc::new(plan));
                if let Some(req) = req {
                    on_request(fp, req);
                }
                loaded += 1;
            }
            Err(_) if !terminated => {
                // Torn tail: a crash mid-append cut this line short. Drop
                // it from the file so the log is clean again; everything
                // acknowledged before it is already loaded.
                let file = OpenOptions::new().write(true).open(path).map_err(|e| {
                    CodecError::Decode(format!(
                        "cannot truncate torn tail of {}: {e}",
                        path.display()
                    ))
                })?;
                file.set_len(start as u64).map_err(|e| {
                    CodecError::Decode(format!(
                        "cannot truncate torn tail of {}: {e}",
                        path.display()
                    ))
                })?;
                return Ok(LoadOutcome { loaded, torn_tail_recovered: true });
            }
            Err(e) => {
                return Err(CodecError::Decode(format!(
                    "{} is corrupt at byte {start}: {e}",
                    path.display()
                )));
            }
        }
        start = if terminated { end + 1 } else { end };
    }
    Ok(LoadOutcome { loaded, torn_tail_recovered: false })
}

/// The sibling temporary path atomic rewrites stage into (same directory,
/// so the final `rename` cannot cross filesystems).
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Fsyncs the directory holding `path`, making a just-renamed entry
/// durable (the rename itself lives in the directory, not the file).
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()
}

/// Atomically replaces the log at `path` with `entries`: write a sibling
/// temp file, fsync it, rename it over the log, fsync the directory. A
/// crash at any point leaves either the complete old log or the complete
/// new one — never a mix, never nothing (the failure mode of the
/// PR-4-era `File::create` rewrite, which zeroed the live log before
/// writing a byte).
fn write_log_atomic(
    path: &Path,
    entries: &[(u64, Arc<CachedPlan>)],
    req_for: &dyn Fn(u64) -> Option<Value>,
) -> std::io::Result<()> {
    let tmp = tmp_sibling(path);
    if let Some(fault) = faults::hit(faults::COMPACT_CREATE) {
        return Err(fault.into_io_error());
    }
    let mut out = File::create(&tmp)?;
    for (fp, plan) in entries {
        let line = persist_line_with_req(*fp, plan, req_for(*fp).as_ref());
        match faults::hit(faults::COMPACT_WRITE) {
            Some(Fault::ShortWrite(n)) => {
                let cut = n.min(line.len());
                let _ = out.write_all(&line.as_bytes()[..cut]);
                return Err(Fault::ShortWrite(n).into_io_error());
            }
            Some(fault) => return Err(fault.into_io_error()),
            None => {}
        }
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
    }
    if let Some(fault) = faults::hit(faults::COMPACT_FSYNC) {
        return Err(fault.into_io_error());
    }
    out.sync_all()?;
    drop(out);
    if let Some(fault) = faults::hit(faults::COMPACT_RENAME) {
        return Err(fault.into_io_error());
    }
    std::fs::rename(&tmp, path)?;
    if let Some(fault) = faults::hit(faults::COMPACT_DIR_FSYNC) {
        return Err(fault.into_io_error());
    }
    sync_parent_dir(path)
}

/// Atomically rewrites the persistence log from the cache's current
/// contents — called after [`load_cache`] so the append-only log compacts
/// once per restart (duplicate fingerprints from overwrites collapse to
/// the live entry, expired entries drop out, a kept-but-unterminated torn
/// tail gains its newline). Always writes the current record version:
/// compaction is also the legacy-format migration path. On error the
/// previous log is intact (see [`write_log_atomic`]); at worst a
/// `.tmp` sibling is left behind, and the next successful compaction
/// replaces it.
pub fn compact_log(cache: &PlanCache, path: &Path) -> std::io::Result<()> {
    compact_log_with(cache, path, &|_| None)
}

/// [`compact_log`] plus request-triple preservation: entries whose
/// fingerprint `req_for` can resolve (normally from the live replan
/// index) are rewritten with their `"req"` field, so compaction never
/// strips the restart-recovery data an append stored.
pub(crate) fn compact_log_with(
    cache: &PlanCache,
    path: &Path,
    req_for: &dyn Fn(u64) -> Option<Value>,
) -> std::io::Result<()> {
    let mut entries = cache.snapshot();
    entries.sort_by_key(|(fp, _)| *fp);
    write_log_atomic(path, &entries, req_for)
}

// ---------------------------------------------------------------------------
// The append log
// ---------------------------------------------------------------------------

/// State behind the [`PersistLog`] mutex: the open append handle (absent
/// while degraded) and the fsync-batch counter.
struct PersistState {
    file: Option<File>,
    /// Appends acknowledged since the last fsync (the
    /// [`FsyncPolicy::EveryN`] window).
    unsynced: u64,
}

/// The daemon's durable append log, with graceful degradation.
///
/// Healthy operation appends one checksummed record per admitted plan and
/// fsyncs per the configured [`FsyncPolicy`]. Any I/O failure — ENOSPC,
/// EIO, a torn write — flips the log to *degraded*: the cache keeps
/// serving from memory, a `persist_errors` counter and the
/// `persistence_degraded` gauge surface the condition in `stats`, and the
/// daemon stays up. Every subsequent append re-probes the disk by
/// atomically rewriting the whole log from the live cache
/// ([`write_log_atomic`]); the first probe that succeeds also recovers
/// every entry admitted during the outage (they are all still in the
/// cache, which is written before the log), so a healed disk loses
/// nothing that memory still holds.
pub struct PersistLog {
    path: PathBuf,
    policy: FsyncPolicy,
    state: Mutex<PersistState>,
    degraded: AtomicBool,
    errors: AtomicU64,
    /// The live replan index, when the service shares it: compactions
    /// (boot, degraded-mode re-probes) then re-embed each entry's request
    /// triple instead of stripping it.
    replans: Option<Arc<Mutex<ReplanIndex>>>,
}

impl PersistLog {
    /// Compacts the log at `path` from `cache` and opens it for appends.
    /// An I/O failure does not refuse to start: the log begins degraded
    /// (memory-only) and re-probes on later appends.
    pub fn start(cache: &PlanCache, path: PathBuf, policy: FsyncPolicy) -> PersistLog {
        Self::build(cache, path, policy, None)
    }

    /// [`PersistLog::start`] wired to the service's replan index, so
    /// compactions preserve the `"req"` fields the index is rebuilt from.
    pub(crate) fn start_with_index(
        cache: &PlanCache,
        path: PathBuf,
        policy: FsyncPolicy,
        replans: Arc<Mutex<ReplanIndex>>,
    ) -> PersistLog {
        Self::build(cache, path, policy, Some(replans))
    }

    fn build(
        cache: &PlanCache,
        path: PathBuf,
        policy: FsyncPolicy,
        replans: Option<Arc<Mutex<ReplanIndex>>>,
    ) -> PersistLog {
        let log = PersistLog {
            path,
            policy,
            state: Mutex::new(PersistState { file: None, unsynced: 0 }),
            degraded: AtomicBool::new(false),
            errors: AtomicU64::new(0),
            replans,
        };
        let mut state = lock_recover(&log.state);
        if !log.reopen(&mut state, cache) {
            log.errors.fetch_add(1, Ordering::Relaxed);
            log.degraded.store(true, Ordering::Relaxed);
        }
        drop(state);
        log
    }

    /// The request triple recorded for `fp`, in the persist-record `"req"`
    /// form, when an index is attached and still remembers it.
    fn req_for(&self, fp: u64) -> Option<Value> {
        let replans = self.replans.as_ref()?;
        let triple = lock_recover(replans).get(fp)?;
        Some(triple.encode_req())
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Failed persistence operations (appends, compactions, re-probes)
    /// since boot.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// True while persistence is suspended and the cache is memory-only.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Appends one admitted entry. Returns `true` when the record is in
    /// the file (fsynced per policy) — the append is *acknowledged* — and
    /// `false` when persistence is (or just became) degraded. While
    /// degraded this is the re-probe: it attempts a full atomic rewrite
    /// from `cache`, resuming normal appends on success.
    pub fn append(&self, cache: &PlanCache, fp: u64, plan: &CachedPlan) -> bool {
        self.append_with_req(cache, fp, plan, None)
    }

    /// [`PersistLog::append`] with the request triple embedded in the
    /// record's `"req"` field, making the entry replan-recoverable after
    /// a restart. `None` writes a plain (still fully valid) record.
    pub(crate) fn append_with_req(
        &self,
        cache: &PlanCache,
        fp: u64,
        plan: &CachedPlan,
        req: Option<&Value>,
    ) -> bool {
        let mut state = lock_recover(&self.state);
        if state.file.is_none() {
            return self.try_resume(&mut state, cache);
        }
        let line = persist_line_with_req(fp, plan, req);
        let result = {
            let PersistState { file, unsynced } = &mut *state;
            let file = file.as_mut().expect("checked above");
            match Self::write_line(file, &line) {
                Ok(()) => Self::apply_fsync(file, self.policy, unsynced),
                Err(e) => Err(e),
            }
        };
        match result {
            Ok(()) => true,
            Err(_) => {
                // ENOSPC/EIO/torn write: drop to memory-only. The entry
                // stays in the cache; a later successful re-probe rewrites
                // it into the log.
                self.errors.fetch_add(1, Ordering::Relaxed);
                self.degraded.store(true, Ordering::Relaxed);
                state.file = None;
                state.unsynced = 0;
                false
            }
        }
    }

    /// Flushes any unsynced appends to disk (clean-shutdown path).
    pub fn sync(&self) {
        let mut state = lock_recover(&self.state);
        if let Some(file) = state.file.as_mut() {
            if file.sync_data().is_ok() {
                state.unsynced = 0;
            }
        }
    }

    fn write_line(file: &mut File, line: &str) -> std::io::Result<()> {
        match faults::hit(faults::APPEND_WRITE) {
            Some(Fault::ShortWrite(n)) => {
                // Land a real torn prefix so recovery sees exactly what a
                // crash mid-write(2) leaves: record bytes cut short, no
                // terminating newline.
                let cut = n.min(line.len());
                let _ = file.write_all(&line.as_bytes()[..cut]);
                return Err(Fault::ShortWrite(n).into_io_error());
            }
            Some(fault) => return Err(fault.into_io_error()),
            None => {}
        }
        // Record first, newline last: the crash-consistency contract
        // `load_cache` recovers under.
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")
    }

    fn apply_fsync(
        file: &mut File,
        policy: FsyncPolicy,
        unsynced: &mut u64,
    ) -> std::io::Result<()> {
        match policy {
            FsyncPolicy::Always => file.sync_data(),
            FsyncPolicy::EveryN(n) => {
                *unsynced += 1;
                if *unsynced >= n.get() {
                    file.sync_data()?;
                    *unsynced = 0;
                }
                Ok(())
            }
            FsyncPolicy::Never => Ok(()),
        }
    }

    /// Degraded-mode re-probe: atomically rewrite the log from the live
    /// cache and reopen the append handle. Success recovers everything
    /// admitted during the outage and resumes normal persistence.
    fn try_resume(&self, state: &mut PersistState, cache: &PlanCache) -> bool {
        if self.reopen(state, cache) {
            self.degraded.store(false, Ordering::Relaxed);
            true
        } else {
            self.errors.fetch_add(1, Ordering::Relaxed);
            self.degraded.store(true, Ordering::Relaxed);
            false
        }
    }

    fn reopen(&self, state: &mut PersistState, cache: &PlanCache) -> bool {
        let opened = compact_log_with(cache, &self.path, &|fp| self.req_for(fp))
            .and_then(|()| OpenOptions::new().append(true).open(&self.path));
        match opened {
            Ok(file) => {
                state.file = Some(file);
                state.unsynced = 0;
                true
            }
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_synthesis::DistProgram;

    fn plan(graph_fp: u64, features: [f64; 4]) -> Arc<CachedPlan> {
        plan_with_cost(graph_fp, features, 1_000_000, 100, None)
    }

    fn plan_with_cost(
        graph_fp: u64,
        features: [f64; 4],
        synthesis_nanos: u64,
        size_bytes: u64,
        ttl_nanos: Option<u64>,
    ) -> Arc<CachedPlan> {
        Arc::new(CachedPlan {
            program: DistProgram::default(),
            ratios: vec![vec![0.5, 0.5]],
            estimated_time: 1.5,
            rounds: 1,
            graph_fp,
            opts_fp: 7,
            features,
            synthesis_nanos,
            size_bytes,
            ttl_nanos,
        })
    }

    #[test]
    fn get_insert_and_lru_eviction() {
        // Capacity 16 over 16 shards = 1 per shard: two same-shard inserts
        // of equal density evict the older (plain-LRU recovery).
        let cache = PlanCache::new(16);
        cache.insert(0, plan(1, [1.0; 4]));
        assert!(cache.get(0).is_some());
        cache.insert(16, plan(2, [1.0; 4])); // same shard as fp 0
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(0).is_none(), "older entry evicted");
        assert!(cache.get(16).is_some());
        // Different shard: coexists.
        cache.insert(3, plan(3, [1.0; 4]));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_prefers_recently_used() {
        // 32 over 16 shards = 2 per shard. Touch the older entry, insert a
        // third in the same shard: the untouched middle entry goes.
        let cache = PlanCache::new(32);
        cache.insert(0, plan(1, [1.0; 4]));
        cache.insert(16, plan(2, [1.0; 4]));
        assert!(cache.get(0).is_some()); // refresh fp 0
        cache.insert(32, plan(3, [1.0; 4]));
        assert!(cache.get(0).is_some());
        assert!(cache.get(16).is_none());
        assert!(cache.get(32).is_some());
    }

    #[test]
    fn admission_gate_protects_denser_incumbents() {
        let cache = PlanCache::new(16);
        // Expensive, small: high density.
        cache.insert(0, plan_with_cost(1, [1.0; 4], 50_000_000, 100, None));
        // Cheap, bulky one-off in the same shard: must bounce.
        let verdict = cache.insert(16, plan_with_cost(2, [1.0; 4], 1_000_000, 10_000, None));
        assert_eq!(verdict, Admission::Rejected { victim_fp: 0 });
        assert_eq!(cache.rejected(), 1);
        assert_eq!(cache.evictions(), 0);
        assert!(cache.get(0).is_some(), "incumbent survives");
        assert!(cache.get(16).is_none(), "one-off was not cached");
        // A denser candidate displaces the incumbent.
        let verdict = cache.insert(32, plan_with_cost(3, [1.0; 4], 500_000_000, 100, None));
        assert_eq!(verdict, Admission::Admitted { evicted: vec![0] });
        assert!(cache.get(32).is_some());
    }

    #[test]
    fn admission_off_is_plain_lru() {
        let policy = CachePolicy { admission: false, default_ttl: None };
        let cache = PlanCache::with_policy(16, policy);
        cache.insert(0, plan_with_cost(1, [1.0; 4], 50_000_000, 100, None));
        // Same cheap bulky one-off: plain LRU admits it regardless.
        let verdict = cache.insert(16, plan_with_cost(2, [1.0; 4], 1_000_000, 10_000, None));
        assert_eq!(verdict, Admission::Admitted { evicted: vec![0] });
        assert!(cache.get(0).is_none(), "LRU evicted the hot entry");
    }

    #[test]
    fn ttl_expiry_under_a_manual_clock() {
        let now = Arc::new(AtomicU64::new(0));
        let cache = PlanCache::with_manual_clock(16, CachePolicy::default(), now.clone());
        cache.insert(0, plan_with_cost(1, [1.0; 4], 1_000_000, 100, Some(1_000)));
        cache.insert(1, plan_with_cost(2, [1.0; 4], 1_000_000, 100, None));
        assert!(cache.get(0).is_some(), "fresh entry serves");
        now.store(999, Ordering::SeqCst);
        assert!(cache.get(0).is_some(), "still inside the TTL");
        now.store(1_000, Ordering::SeqCst);
        assert!(cache.get(0).is_none(), "expired entry is never served");
        assert_eq!(cache.expired(), 1);
        assert!(cache.get(1).is_some(), "no-TTL entry lives forever");
        // Expired space is reclaimed before any eviction happens: a new
        // entry in fp 0's shard neither evicts nor rejects.
        cache.insert(16, plan_with_cost(3, [1.0; 4], 1, 1_000_000, None));
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.rejected(), 0);
    }

    #[test]
    fn default_ttl_applies_when_entry_has_none() {
        let now = Arc::new(AtomicU64::new(0));
        let policy =
            CachePolicy { admission: true, default_ttl: Some(Duration::from_nanos(2_000)) };
        let cache = PlanCache::with_manual_clock(16, policy, now.clone());
        cache.insert(0, plan_with_cost(1, [1.0; 4], 1_000_000, 100, None));
        // Per-entry override beats the default.
        cache.insert(1, plan_with_cost(2, [1.0; 4], 1_000_000, 100, Some(10_000)));
        now.store(2_000, Ordering::SeqCst);
        assert!(cache.get(0).is_none(), "default TTL expired the entry");
        assert!(cache.get(1).is_some(), "override outlives the default");
        // nearest() must not resurrect expired plans either.
        assert!(cache.nearest(1, 7, &[1.0; 4]).is_none());
        assert!(cache.nearest(2, 7, &[1.0; 4]).is_some());
    }

    #[test]
    fn nearest_matches_graph_and_ranks_by_features() {
        let cache = PlanCache::new(64);
        cache.insert(1, plan(100, [4.0, 1e13, 1e9, 1e-5]));
        cache.insert(2, plan(100, [8.0, 2e13, 1e9, 1e-5]));
        cache.insert(3, plan(999, [4.0, 1e13, 1e9, 1e-5])); // other graph
        let near = cache.nearest(100, 7, &[4.0, 1.1e13, 1e9, 1e-5]).unwrap();
        assert_eq!(near.features[0], 4.0);
        assert!(cache.nearest(12345, 7, &[4.0, 1e13, 1e9, 1e-5]).is_none());
    }

    #[test]
    fn persistence_round_trip_via_tempfile() {
        let dir = std::env::temp_dir().join(format!("hap-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.jsonl");
        let cache = PlanCache::new(64);
        cache.insert(
            42,
            plan_with_cost(100, [4.0, 1e13, 1e9, 1e-5], 123_456, 789, Some(60_000_000_000)),
        );
        cache.insert(43, plan(101, [8.0, 2e13, 2e9, 2e-5]));
        compact_log(&cache, &path).unwrap();

        let restored = PlanCache::new(64);
        assert_eq!(
            load_cache(&restored, &path).unwrap(),
            LoadOutcome { loaded: 2, torn_tail_recovered: false }
        );
        let p = restored.get(42).unwrap();
        assert_eq!(p.graph_fp, 100);
        assert_eq!(p.estimated_time.to_bits(), 1.5f64.to_bits());
        assert_eq!(p.ratios, vec![vec![0.5, 0.5]]);
        assert_eq!(p.synthesis_nanos, 123_456);
        assert_eq!(p.size_bytes, 789);
        assert_eq!(p.ttl_nanos, Some(60_000_000_000));
        // Missing file = empty cache.
        assert_eq!(load_cache(&PlanCache::new(4), &dir.join("absent.jsonl")).unwrap().loaded, 0);
        // A *terminated* corrupt line is real corruption — no crash writes
        // garbage followed by a newline — and stays a hard error.
        std::fs::write(&path, "not json\n").unwrap();
        assert!(load_cache(&PlanCache::new(4), &path).is_err());
        // The same garbage without the newline is a torn tail (crash
        // mid-append): recovered and truncated away.
        std::fs::write(&path, "not json").unwrap();
        let outcome = load_cache(&PlanCache::new(4), &path).unwrap();
        assert_eq!(outcome, LoadOutcome { loaded: 0, torn_tail_recovered: true });
        assert_eq!(std::fs::read(&path).unwrap(), b"", "torn tail truncated");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_pr4_log_lines_still_load() {
        let dir = std::env::temp_dir().join(format!("hap-cache-legacy-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.jsonl");
        // A PR-4-era line: no "v" tag, no cost metadata in the plan body.
        let legacy = "{\"fp\":\"0x000000000000002a\",\"plan\":{\"graph_fp\":\
                      \"0x0000000000000064\",\"opts_fp\":\"0x0000000000000007\",\"features\":\
                      [4,1e13,1e9,1e-5],\"rounds\":1,\"estimated_time\":1.5,\"ratios\":[[0.5,\
                      0.5]],\"program\":{\"instrs\":[],\"estimated_time\":1.5}}}";
        std::fs::write(&path, format!("{legacy}\n")).unwrap();
        let cache = PlanCache::new(64);
        assert_eq!(load_cache(&cache, &path).unwrap().loaded, 1);
        let p = cache.get(42).unwrap();
        assert_eq!(p.graph_fp, 100);
        assert_eq!(p.synthesis_nanos, 0, "legacy entries carry zero cost");
        assert_eq!(p.ttl_nanos, None);
        // Compaction migrates the line to the current checksummed format.
        compact_log(&cache, &path).unwrap();
        let migrated = std::fs::read_to_string(&path).unwrap();
        assert!(migrated.starts_with("{\"v\":3,\"sum\":"), "{migrated}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn expired_entries_do_not_persist() {
        let now = Arc::new(AtomicU64::new(0));
        let cache = PlanCache::with_manual_clock(16, CachePolicy::default(), now.clone());
        cache.insert(0, plan_with_cost(1, [1.0; 4], 1_000_000, 100, Some(10)));
        cache.insert(1, plan_with_cost(2, [1.0; 4], 1_000_000, 100, None));
        now.store(100, Ordering::SeqCst);
        let snap = cache.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, 1);
    }
}
