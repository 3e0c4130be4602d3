//! The four end-to-end workloads, each against real `hap-serve` processes.
//!
//! | workload       | loads heavily                         | barely touches        |
//! |----------------|---------------------------------------|-----------------------|
//! | `cold_mix`     | synthesis, Q/B loop, LP, memory check | framing, cache        |
//! | `hot_hits`     | framing, codec, fingerprint, cache    | synthesis             |
//! | `tenant_churn` | cache admission, WAL, replan, dispatch| large-model synthesis |
//! | `ring_hits`    | ring routing, proxy hop               | synthesis             |

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hap_codec::{parse, value_fingerprint, Decode, Encode, RingInfo, Value};
use hap_service::{Ring, StatsSnapshot};

use crate::check::{speedup_vs_dp, Checker};
use crate::daemon::{Conn, Daemon, ScratchDir};
use crate::gen::{self, verb_line, PlanRequest};
use crate::load::{closed_loop, execute, open_loop, Class, Op, Tally};
use crate::rng::{Deck, SplitMix64};
use crate::stats::{
    geomean, median, median_or_zero, percentile_or_zero, samples_beyond, sorted, tail_percentile,
};

pub const WORKLOADS: [&str; 4] = ["cold_mix", "hot_hits", "tenant_churn", "ring_hits"];

/// Set-ups per run. Each sets up fresh daemons and (except in `cold_mix`,
/// whose whole passes do not split) measures for an equal share of
/// `--seconds`; the end-to-end metrics pool the samples. Daemon processes
/// land on the machine differently each spawn (thread placement, memory
/// layout), and pooling three keeps one spawn's luck from deciding a run.
/// `setup_s` is the median of the set-up times.
const CYCLES: usize = 3;

/// `cold_mix` set-ups per run. Its set-up is a bare spawn of about 2 ms,
/// whose jitter is a large share of it (1.3–2.7 ms within one run), so it
/// takes many samples to steady the median; they cost next to nothing.
const COLD_SETUPS: usize = 31;

/// `hot_hits` open-loop arrival rate over both connections (requests/s).
pub const HOT_RATE: f64 = 300.0;

/// A generator later than this at p99 is flagged with a warning: open-loop
/// latencies are timed from each request's due time, so they include the
/// lateness. It is not a failed operation — on a busy host the generator's
/// core can be taken away for milliseconds, which says nothing about the
/// daemon's answers.
const MAX_LATE_P99: f64 = 1e-3;

/// What the benchmark is told by its command line.
pub struct Config {
    pub serve_bin: PathBuf,
    pub work_dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// One run's results.
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// FNV-1a digest of the plans served for the workload's fixed request
    /// set; `None` if one of them was never served.
    pub digest: Option<u64>,
    /// Human-readable context printed beside the metrics.
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.digest.is_some()
    }
}

pub fn run(workload: &str, cfg: &Config) -> Result<Report, String> {
    match workload {
        "cold_mix" => cold_mix(cfg),
        "hot_hits" => hot_hits(cfg),
        "tenant_churn" => tenant_churn(cfg),
        "ring_hits" => ring_hits(cfg),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The fixed tail percentile of each workload: the highest of p75/p90/p99
/// with at least ten samples beyond it at the workload's sample count —
/// except on `ring_hits`, whose requests take about a millisecond. There a
/// host that takes a core away for a few milliseconds sets the p99: it read
/// 3.2 ms on a quiet host and 8.6 ms under bursts of CPU contention, where
/// the p90 moved from 2.4 to 3.2 ms, and its spread over ten runs reached
/// the 0.25 bound in a busy hour. The p90 falls among the proxied requests,
/// so it still prices the proxy hop.
pub fn tail_pct(workload: &str) -> f64 {
    match workload {
        "cold_mix" => 0.75,
        "ring_hits" => 0.90,
        _ => 0.99,
    }
}

/// Everything the end-to-end metrics are computed from.
struct Measured<'a> {
    workload: &'static str,
    tally: Tally,
    setup: Tally,
    /// Latencies (seconds) that `p50_ms` and `tail_ms` summarize.
    latencies: Vec<f64>,
    /// Completed requests per second in the closed-loop phase.
    throughput: f64,
    setups: Vec<f64>,
    /// Peak daemon RSS (KiB) at the end of each timed phase.
    rss: Vec<u64>,
    checker: &'a Mutex<Checker>,
    /// The workload's fixed request set: the digest and plan quality
    /// cover exactly these.
    fixed: &'a [Arc<PlanRequest>],
    notes: Vec<String>,
}

fn report(m: Measured) -> Report {
    // Set-up traffic counts toward attempted and failed operations too.
    let mut tally = m.setup;
    tally.merge(m.tally);
    let checker = m.checker.lock().expect("checker lock");
    let fingerprints: Vec<u64> = m.fixed.iter().map(|r| r.fingerprint).collect();
    let digest = checker.digest(&fingerprints);
    let speedups: Vec<f64> = m
        .fixed
        .iter()
        .filter_map(|r| checker.plan(r.fingerprint).map(|p| speedup_vs_dp(r, p)))
        .collect();
    if m.latencies.is_empty() {
        tally.fail("no request completed".into());
    }
    let lat = sorted(&m.latencies);
    let pct = |p: f64| percentile_or_zero(&lat, p) * 1e3;
    let tail = tail_pct(m.workload);
    let mut notes = vec![format!(
        "{} samples; tail_ms is p{:.0}, with {} samples beyond it",
        lat.len(),
        tail * 100.0,
        samples_beyond(lat.len(), tail)
    )];
    if tail_percentile(lat.len()).is_none_or(|p| p < tail) {
        notes.push(format!("warning: fewer than ten samples beyond p{:.0}", tail * 100.0));
    }
    notes.extend(m.notes);
    let error_rate =
        if tally.attempted == 0 { 1.0 } else { tally.failed as f64 / tally.attempted as f64 };
    notes.push(format!("error_rate {error_rate} ({} of {})", tally.failed, tally.attempted));
    Report {
        workload: m.workload,
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        metrics: vec![
            Metric { name: "p50_ms", value: pct(0.5), unit: "ms" },
            Metric { name: "tail_ms", value: pct(tail), unit: "ms" },
            Metric { name: "throughput_rps", value: m.throughput, unit: "req/s" },
            Metric { name: "setup_s", value: median(&m.setups), unit: "s" },
            Metric {
                name: "daemon_rss_mb",
                value: median(&m.rss.iter().map(|&k| k as f64 / 1024.0).collect::<Vec<_>>()),
                unit: "MiB",
            },
            Metric {
                name: "plan_speedup_vs_dp",
                value: if speedups.is_empty() { 0.0 } else { geomean(&speedups) },
                unit: "x",
            },
        ],
        digest,
        notes,
    }
}

fn ctx<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// Spawns a daemon on any free port.
pub fn spawn(cfg: &Config, flags: &[String]) -> Result<Daemon, String> {
    ctx(Daemon::spawn(&cfg.serve_bin, 0, flags), "spawning hap-serve")
}

pub fn connect(daemon: &Daemon) -> Result<Conn, String> {
    ctx(daemon.connect(), "connecting to hap-serve")
}

/// Runs `f` once per connection, each on its own thread.
fn per_conn<T: Send>(conns: &mut [Conn], f: impl Fn(usize, &mut Conn) -> T + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> =
            conns.iter_mut().enumerate().map(|(i, c)| s.spawn(move || f(i, c))).collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    })
}

fn merged(tallies: Vec<Tally>) -> Tally {
    let mut all = Tally::default();
    for t in tallies {
        all.merge(t);
    }
    all
}

/// Plans every op once, split across the connections, then requests every
/// op once more on each connection: the warm-up hits also record each
/// slot's reference response for the byte-identity check.
pub fn prefill(conns: &mut [Conn], ops: &[Op], checker: &Mutex<Checker>) -> Tally {
    let n = conns.len();
    let prefilled = per_conn(conns, |c, conn| {
        let mut tally = Tally::default();
        for op in ops.iter().skip(c).step_by(n) {
            execute(conn, op, checker, &mut tally);
        }
        tally
    });
    let warmed = per_conn(conns, |_, conn| {
        let mut tally = Tally::default();
        for op in ops {
            execute(conn, op, checker, &mut tally);
        }
        tally
    });
    merged(prefilled.into_iter().chain(warmed).collect())
}

/// A daemon's `stats` counters.
pub fn stats(conn: &mut Conn) -> Result<StatsSnapshot, String> {
    let line = ctx(conn.call(verb_line("stats", 0).as_bytes()), "stats request")?;
    let text = String::from_utf8_lossy(&line);
    let v = ctx(parse(&text), "stats response")?;
    ctx(v.field("stats").and_then(StatsSnapshot::decode), "stats response")
}

/// One op per request, with ids from 1.
pub fn plan_ops(reqs: &[Arc<PlanRequest>], class: Class) -> Vec<Op> {
    reqs.iter().enumerate().map(|(i, r)| Op::plan(i as u64 + 1, r.clone(), class)).collect()
}

pub fn arcs(reqs: Vec<PlanRequest>) -> Vec<Arc<PlanRequest>> {
    reqs.into_iter().map(Arc::new).collect()
}

/// Slots `0..n` dealt from a seeded deck, forever.
pub fn picks(seed: u64, purpose: u64, n: usize) -> impl FnMut() -> usize {
    let mut deck = Deck::new(SplitMix64::stream(seed, purpose), (0..n).collect());
    move || deck.draw()
}

/// Poisson arrivals at `rate` over `seconds`, each with a slot of `slots`
/// dealt from a seeded deck. The arrival count is fixed at `rate * seconds`
/// and the times are sorted uniform draws — a Poisson process conditioned
/// on its count — so the realized rate is exact and the gaps exponential.
pub fn poisson_schedule(
    seed: u64,
    purpose: u64,
    rate: f64,
    seconds: f64,
    slots: usize,
) -> Vec<(f64, usize)> {
    let mut rng = SplitMix64::stream(seed, purpose);
    let n = (rate * seconds).round() as usize;
    let mut times: Vec<f64> = (0..n).map(|_| rng.next_f64() * seconds).collect();
    times.sort_by(f64::total_cmp);
    let mut slot = picks(seed, purpose + 1000, slots);
    times.into_iter().map(|t| (t, slot())).collect()
}

/// The order `cold_mix` sends `reqs` in on pass `pass`: a seeded
/// interleaving that keeps requests sharing a graph in index order. A miss
/// is warm-started from the nearest cached plan of the same graph, so the
/// order within such a group decides how much searching each of its
/// requests does; fixing it keeps a run's synthesis work, and its plans,
/// the same for every seed.
pub fn cold_order(seed: u64, pass: u64, reqs: &[Arc<PlanRequest>]) -> Vec<usize> {
    let graph = |i: usize| value_fingerprint(&reqs[i].values[0]);
    let mut slots: Vec<u64> = (0..reqs.len()).map(graph).collect();
    SplitMix64::stream(seed, 100 + pass).shuffle(&mut slots);
    let mut next: HashMap<u64, VecDeque<usize>> = HashMap::new();
    for i in 0..reqs.len() {
        next.entry(graph(i)).or_default().push_back(i);
    }
    slots
        .iter()
        .map(|g| next.get_mut(g).and_then(VecDeque::pop_front).expect("one slot per request"))
        .collect()
}

// ---------------------------------------------------------------------------
// cold_mix
// ---------------------------------------------------------------------------

/// Planner-bound: 40 distinct paper-shaped requests on a fresh daemon over
/// one connection, so every request misses the cache. Whole passes only, so
/// every run weighs every request equally.
fn cold_mix(cfg: &Config) -> Result<Report, String> {
    let reqs = arcs(gen::cold_mix());
    let ops = plan_ops(&reqs, Class::Cold);
    let checker = Mutex::new(Checker::default());
    let mut setups = Vec::new();
    let mut fresh: Option<Daemon> = None;
    for _ in 0..COLD_SETUPS {
        let daemon = spawn(cfg, &[])?;
        stats(&mut connect(&daemon)?)?;
        setups.push(daemon.spawned.elapsed().as_secs_f64());
        if let Some(old) = fresh.replace(daemon) {
            ctx(old.shutdown(), "stopping hap-serve")?;
        }
    }
    let mut tally = Tally::default();
    let (mut busy, mut rss) = (0.0, Vec::new());
    let began = Instant::now();
    for pass in 0.. {
        let daemon = match fresh.take() {
            Some(daemon) => daemon,
            None => spawn(cfg, &[])?,
        };
        let mut conn = connect(&daemon)?;
        let t0 = Instant::now();
        for i in cold_order(cfg.seed, pass, &reqs) {
            execute(&mut conn, &ops[i], &checker, &mut tally);
        }
        let took = t0.elapsed().as_secs_f64();
        busy += took;
        rss.push(ctx(daemon.peak_rss_kib(), "reading VmHWM")?);
        ctx(daemon.shutdown(), "stopping hap-serve")?;
        if began.elapsed().as_secs_f64() + took > cfg.seconds {
            break;
        }
    }
    let passes = rss.len();
    let latencies = tally.latencies(|_| true);
    let completed = latencies.len() as f64;
    Ok(report(Measured {
        workload: "cold_mix",
        latencies,
        throughput: completed / busy,
        setups,
        rss,
        checker: &checker,
        fixed: &reqs,
        notes: vec![format!("{passes} pass(es) of {} requests in {busy:.2} s", ops.len())],
        tally,
        setup: Tally::default(),
    }))
}

// ---------------------------------------------------------------------------
// hot_hits
// ---------------------------------------------------------------------------

/// Service-bound: a prefilled 16-entry hot set; an open-loop Poisson phase
/// gives latency, a closed-loop phase over the same two connections gives
/// throughput.
fn hot_hits(cfg: &Config) -> Result<Report, String> {
    let reqs = arcs(gen::paper_hot_set(16));
    let ops = plan_ops(&reqs, Class::Hot);
    let checker = Mutex::new(Checker::default());
    let mut setup = Tally::default();
    let (mut setups, mut rss) = (Vec::new(), Vec::new());
    let mut phases = HotPhases::default();
    for cycle in 0..CYCLES {
        let daemon = spawn(cfg, &[])?;
        let mut conns = vec![connect(&daemon)?, connect(&daemon)?];
        checker.lock().expect("checker lock").new_daemon();
        setup.merge(prefill(&mut conns, &ops, &checker));
        setups.push(daemon.spawned.elapsed().as_secs_f64());
        phases.merge(hot_phases(
            &mut conns,
            &ops,
            &checker,
            cfg.seed,
            cycle,
            cfg.seconds / CYCLES as f64,
        ));
        rss.push(ctx(daemon.peak_rss_kib(), "reading VmHWM")?);
        drop(conns);
        ctx(daemon.shutdown(), "stopping hap-serve")?;
    }
    let late = sorted(&phases.lateness);
    let late_p99 = percentile_or_zero(&late, 0.99);
    let mut notes = vec![
        format!(
            "open loop: {} sent at {:.1} req/s realized (target {HOT_RATE}); generator late p50 \
             {:.1} us, p99 {:.1} us",
            late.len(),
            late.len() as f64 / phases.open_span,
            percentile_or_zero(&late, 0.5) * 1e6,
            late_p99 * 1e6
        ),
        format!("closed loop: p50 {:.3} ms", median_or_zero(&phases.closed_latencies) * 1e3),
    ];
    if late_p99 > MAX_LATE_P99 {
        notes.push(format!(
            "warning: the generator ran more than {:.0} ms late at p99; p50_ms and tail_ms \
             include the lateness",
            MAX_LATE_P99 * 1e3
        ));
    }
    Ok(report(Measured {
        workload: "hot_hits",
        throughput: phases.closed_latencies.len() as f64 / phases.closed_span,
        latencies: phases.open_latencies,
        setups,
        rss,
        checker: &checker,
        fixed: &reqs,
        notes,
        tally: phases.tally,
        setup,
    }))
}

/// What `hot_hits`' measured phases observed.
#[derive(Default)]
pub struct HotPhases {
    /// Both phases' requests.
    pub tally: Tally,
    /// Open-loop latencies, timed from each request's due time.
    pub open_latencies: Vec<f64>,
    /// How late each open-loop send was.
    pub lateness: Vec<f64>,
    pub open_span: f64,
    pub closed_latencies: Vec<f64>,
    pub closed_span: f64,
}

impl HotPhases {
    fn merge(&mut self, other: HotPhases) {
        self.tally.merge(other.tally);
        self.open_latencies.extend(other.open_latencies);
        self.lateness.extend(other.lateness);
        self.open_span += other.open_span;
        self.closed_latencies.extend(other.closed_latencies);
        self.closed_span += other.closed_span;
    }
}

/// `hot_hits`' measured phases over `conns`: Poisson arrivals at
/// [`HOT_RATE`] for half of `seconds`, then back-to-back requests for the
/// other half. `cycle` selects independent seeded streams.
pub fn hot_phases(
    conns: &mut [Conn],
    ops: &[Op],
    checker: &Mutex<Checker>,
    seed: u64,
    cycle: usize,
    seconds: f64,
) -> HotPhases {
    let half = seconds / 2.0;
    let rate = HOT_RATE / conns.len() as f64;
    let stream = |purpose: usize, c: usize| (purpose + 10 * cycle + c) as u64;
    let schedules: Vec<Vec<(f64, usize)>> = (0..conns.len())
        .map(|c| poisson_schedule(seed, stream(1000, c), rate, half, ops.len()))
        .collect();
    let t0 = Instant::now() + Duration::from_millis(5);
    let open = per_conn(conns, |c, conn| open_loop(conn, ops, &schedules[c], t0, checker));
    let open_span = t0.elapsed().as_secs_f64();
    let lateness: Vec<f64> = open.iter().flat_map(|(_, late)| late.iter().copied()).collect();
    let mut tally = merged(open.into_iter().map(|(t, _)| t).collect());
    let open_latencies = tally.latencies(|_| true);

    let t1 = Instant::now();
    let until = t1 + Duration::from_secs_f64(half);
    let closed = per_conn(conns, |c, conn| {
        let mut next = picks(seed, stream(2000, c), ops.len());
        closed_loop(conn, || &ops[next()], until, checker)
    });
    let closed_span = t1.elapsed().as_secs_f64();
    let closed = merged(closed);
    let closed_latencies = closed.latencies(|_| true);
    tally.merge(closed);
    HotPhases { tally, open_latencies, lateness, open_span, closed_latencies, closed_span }
}

// ---------------------------------------------------------------------------
// tenant_churn
// ---------------------------------------------------------------------------

/// Each tenant's mix per ten requests, dealt from a seeded deck: 7 hot-set
/// hits, 2 one-offs, 1 replan.
const TENANT_MIX: [Class; 10] = [
    Class::Hot,
    Class::Hot,
    Class::Hot,
    Class::Hot,
    Class::Hot,
    Class::Hot,
    Class::Hot,
    Class::OneOff,
    Class::OneOff,
    Class::Replan,
];
pub const TENANT_HOT_SET: usize = 8;
/// Replan keys enter a tenant's stream in blocks of this many, each key
/// twice in seeded order: the first occurrence pays a warm-seeded
/// synthesis, the second hits, so about half the replans are first
/// occurrences however long the run.
const REPLAN_BLOCK: usize = 4;

const ONE_OFF_ID: u64 = 10_000;
const REPLAN_ID: u64 = 1_000_000;

/// One tenant's seeded request stream.
pub struct TenantMix {
    tenant: usize,
    tenants: usize,
    rng: SplitMix64,
    classes: Deck,
    hot_slots: Deck,
    hot: Vec<Arc<Op>>,
    one_offs: usize,
    replans: VecDeque<usize>,
    blocks: usize,
    replan_ops: HashMap<usize, Arc<Op>>,
}

impl TenantMix {
    /// Tenant `tenant` of `tenants`; `cycle` selects independent streams.
    pub fn new(
        seed: u64,
        cycle: usize,
        tenant: usize,
        tenants: usize,
        hot: &[Arc<PlanRequest>],
    ) -> TenantMix {
        let stream =
            |purpose: usize| SplitMix64::stream(seed, (purpose + 10 * cycle + tenant) as u64);
        TenantMix {
            tenant,
            tenants,
            rng: stream(3000),
            classes: Deck::new(stream(4000), (0..TENANT_MIX.len()).collect()),
            hot_slots: Deck::new(stream(5000), (0..hot.len()).collect()),
            hot: plan_ops(hot, Class::Hot).into_iter().map(Arc::new).collect(),
            one_offs: 0,
            replans: VecDeque::new(),
            blocks: 0,
            replan_ops: HashMap::new(),
        }
    }

    pub fn next_op(&mut self) -> Arc<Op> {
        let class = TENANT_MIX[self.classes.draw()];
        if class == Class::Hot {
            return self.hot[self.hot_slots.draw()].clone();
        }
        if class == Class::OneOff {
            // Tenants draw disjoint one-off indices, so no one-off repeats.
            let i = self.one_offs * self.tenants + self.tenant;
            self.one_offs += 1;
            return Arc::new(Op::plan(
                ONE_OFF_ID + i as u64,
                Arc::new(gen::one_off(i)),
                Class::OneOff,
            ));
        }
        if self.replans.is_empty() {
            let first = (self.blocks * REPLAN_BLOCK) * self.tenants + self.tenant;
            let mut block: Vec<usize> =
                (0..REPLAN_BLOCK).map(|j| first + j * self.tenants).flat_map(|k| [k, k]).collect();
            self.rng.shuffle(&mut block);
            self.replans.extend(block);
            self.blocks += 1;
        }
        let key = self.replans.pop_front().expect("refilled above");
        match self.replan_ops.remove(&key) {
            // The key's second occurrence: its last use.
            Some(op) => op,
            None => {
                let prior = self.hot[key % self.hot.len()].answers();
                let delta = gen::replan_delta(key / self.hot.len());
                let op = Arc::new(Op::replan(REPLAN_ID + key as u64, prior, &delta));
                self.replan_ops.insert(key, op.clone());
                op
            }
        }
    }
}

/// Writes beside reads: two tenants mixing hot-set hits, cache-polluting
/// one-offs and replans against a small, persistent cache.
fn tenant_churn(cfg: &Config) -> Result<Report, String> {
    let hot = arcs((0..TENANT_HOT_SET).map(gen::tenant_hot).collect());
    let hot_ops = plan_ops(&hot, Class::Hot);
    let checker = Mutex::new(Checker::default());
    let mut setup = Tally::default();
    let (mut setups, mut rss) = (Vec::new(), Vec::new());
    let (mut tally, mut span) = (Tally::default(), 0.0);
    let (mut evictions, mut rejected, mut entries) = (0, 0, 0);
    for cycle in 0..CYCLES {
        let dir = ctx(
            ScratchDir::new(&cfg.work_dir, &format!("tenant-{cycle}")),
            "creating a scratch directory",
        )?;
        let daemon = spawn(cfg, &tenant_flags(&dir.0))?;
        let mut conns = vec![connect(&daemon)?, connect(&daemon)?];
        checker.lock().expect("checker lock").new_daemon();
        setup.merge(prefill(&mut conns, &hot_ops, &checker));
        setups.push(daemon.spawned.elapsed().as_secs_f64());
        let before = stats(&mut conns[0])?;
        let run = tenants(&mut conns, &hot, &checker, cfg.seed, cycle, cfg.seconds / CYCLES as f64);
        tally.merge(run.tally);
        span += run.span;
        let after = stats(&mut conns[0])?;
        evictions += after.evictions - before.evictions;
        rejected += after.admission_rejected - before.admission_rejected;
        entries = after.entries;
        rss.push(ctx(daemon.peak_rss_kib(), "reading VmHWM")?);
        drop(conns);
        ctx(daemon.shutdown(), "stopping hap-serve")?;
    }
    let mut notes = class_notes(&tally);
    notes.push(format!(
        "cache: {evictions} evictions, {rejected} admission rejections, {entries} entries at the \
         end; {} replan fallbacks",
        tally.fallbacks
    ));
    Ok(report(Measured {
        workload: "tenant_churn",
        latencies: tally.latencies(|_| true),
        throughput: tally.samples.len() as f64 / span,
        setups,
        rss,
        checker: &checker,
        fixed: &hot,
        notes,
        tally,
        setup,
    }))
}

/// What the tenants' closed loops did: their tally, how long they ran, and
/// every request they sent.
pub struct Tenancy {
    pub tally: Tally,
    pub span: f64,
    pub sent: Vec<Arc<Op>>,
}

/// The tenants' closed loops, one per connection, for `seconds`.
pub fn tenants(
    conns: &mut [Conn],
    hot: &[Arc<PlanRequest>],
    checker: &Mutex<Checker>,
    seed: u64,
    cycle: usize,
    seconds: f64,
) -> Tenancy {
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(seconds);
    let n = conns.len();
    let runs = per_conn(conns, |t, conn| {
        let mut mix = TenantMix::new(seed, cycle, t, n, hot);
        let (mut tally, mut sent) = (Tally::default(), Vec::new());
        while Instant::now() < until {
            let op = mix.next_op();
            execute(conn, &op, checker, &mut tally);
            sent.push(op);
        }
        (tally, sent)
    });
    let span = t0.elapsed().as_secs_f64();
    let mut all = Tenancy { tally: Tally::default(), span, sent: Vec::new() };
    for (tally, sent) in runs {
        all.tally.merge(tally);
        all.sent.extend(sent);
    }
    all
}

/// The `tenant_churn` daemon's flags. One synthesis worker, so one search
/// runs at a time beside the event loop and never more compute threads than
/// cores: with the default worker per core, two tenants' searches shared
/// the cores and the tail timed the scheduler (it rose 55 % when another
/// process took CPU, against none with one worker). The tenants' misses
/// queue in dispatch instead, as the workload intends.
pub fn tenant_flags(dir: &Path) -> Vec<String> {
    vec![
        "--workers".into(),
        "1".into(),
        "--cache-capacity".into(),
        "64".into(),
        "--cache-file".into(),
        dir.join("plans.jsonl").display().to_string(),
    ]
}

/// Per-class counts and median latencies.
fn class_notes(tally: &Tally) -> Vec<String> {
    [Class::Hot, Class::OneOff, Class::Replan]
        .into_iter()
        .map(|class| {
            let hits = tally.latencies(|s| s.class == class && s.source == "cache");
            let misses = tally.latencies(|s| s.class == class && s.source != "cache");
            let p50 = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) * 1e3 };
            format!(
                "{class:?}: {} hits (p50 {:.3} ms), {} misses (p50 {:.3} ms)",
                hits.len(),
                p50(&hits),
                misses.len(),
                p50(&misses)
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// ring_hits
// ---------------------------------------------------------------------------

const RING_MEMBERS: u16 = 3;

/// Ring members listen on fixed ports so the ring's tokens — and with them
/// which hot-set requests take a proxy hop — are the same on every run.
/// Should a port be taken, the next group of ports is tried. Every group
/// puts exactly 8 of the 24 hot-set requests behind a proxy hop (a unit
/// test checks each), so the traffic is the same whichever group serves.
const RING_BASE_PORT: u16 = 17771;
const RING_PORT_GROUPS: u16 = 3;

/// A 3-daemon consistent-hash ring, its membership and the daemons.
pub struct RingCluster {
    pub daemons: Vec<Daemon>,
    pub info: RingInfo,
}

/// The membership the ring's members form on ports `base..base + 3`.
pub fn ring_info(base: u16) -> RingInfo {
    RingInfo {
        epoch: 1,
        vnodes: 64,
        replication: 2,
        members: (0..RING_MEMBERS).map(|i| format!("127.0.0.1:{}", base + i)).collect(),
    }
}

impl RingCluster {
    /// Spawns the members and installs epoch 1 on each, as the operator.
    pub fn start(cfg: &Config) -> Result<RingCluster, String> {
        let flags = ["--workers".to_string(), "1".to_string()];
        let mut failure = String::new();
        for group in 0..RING_PORT_GROUPS {
            let base = RING_BASE_PORT + 10 * group;
            let spawned: Result<Vec<Daemon>, _> = (0..RING_MEMBERS)
                .map(|i| Daemon::spawn(&cfg.serve_bin, base + i, &flags))
                .collect();
            match spawned {
                Ok(daemons) => return RingCluster::install(daemons, ring_info(base)),
                Err(e) => failure = format!("spawning ring members on ports {base}..: {e}"),
            }
        }
        Err(failure)
    }

    fn install(daemons: Vec<Daemon>, info: RingInfo) -> Result<RingCluster, String> {
        for (daemon, member) in daemons.iter().zip(&info.members) {
            if daemon.addr != *member {
                return Err(format!("ring member listens on {}, not {member}", daemon.addr));
            }
            let line = Value::obj(vec![
                ("op", Value::Str("ring".into())),
                ("id", Value::int(0)),
                ("ring", info.encode()),
                ("self", Value::Str(daemon.addr.clone())),
            ])
            .render();
            let reply = ctx(connect(daemon)?.call(line.as_bytes()), "installing the ring")?;
            let installed = parse(&String::from_utf8_lossy(&reply))
                .ok()
                .and_then(|v| v.get("installed").and_then(|x| x.as_bool().ok()));
            if installed != Some(true) {
                return Err(format!("daemon {} refused ring epoch 1", daemon.addr));
            }
        }
        Ok(RingCluster { daemons, info })
    }

    pub fn shutdown(self) -> Result<(), String> {
        for daemon in self.daemons {
            ctx(daemon.shutdown(), "stopping hap-serve")?;
        }
        Ok(())
    }

    /// Requests to member 0 for `fp` need a proxy hop when member 0 is not
    /// among the fingerprint's owners.
    pub fn proxied(&self, ring: &Ring, fp: u64) -> bool {
        !ring.is_owner(fp, &self.daemons[0].addr)
    }
}

/// Cluster-bound: one ring-naive connection to member 0 over a hot set
/// whose fingerprints are spread across the ring, so about a third of the
/// requests take a proxy hop.
fn ring_hits(cfg: &Config) -> Result<Report, String> {
    let reqs = arcs(gen::paper_hot_set(24));
    let ops = plan_ops(&reqs, Class::Hot);
    let checker = Mutex::new(Checker::default());
    let mut setup = Tally::default();
    let (mut setups, mut rss) = (Vec::new(), Vec::new());
    let (mut tally, mut span, mut proxied) = (Tally::default(), 0.0, Vec::new());
    for cycle in 0..CYCLES {
        let began = Instant::now();
        let ring = RingCluster::start(cfg)?;
        let mut conns = vec![connect(&ring.daemons[0])?, connect(&ring.daemons[0])?];
        checker.lock().expect("checker lock").new_daemon();
        setup.merge(prefill(&mut conns, &ops, &checker));
        setups.push(began.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let until = t0 + Duration::from_secs_f64(cfg.seconds / CYCLES as f64);
        let mut next = picks(cfg.seed, (6000 + cycle) as u64, ops.len());
        let cycle_tally = closed_loop(&mut conns[0], || &ops[next()], until, &checker);
        span += t0.elapsed().as_secs_f64();
        let mut cycle_rss = 0;
        for daemon in &ring.daemons {
            cycle_rss += ctx(daemon.peak_rss_kib(), "reading VmHWM")?;
        }
        rss.push(cycle_rss);
        let table = Ring::build(ring.info.clone());
        proxied.extend(cycle_tally.samples.iter().map(|s| ring.proxied(&table, s.fingerprint)));
        tally.merge(cycle_tally);
        drop(conns);
        // The members' ports are fixed: this ring must be gone before the next.
        ring.shutdown()?;
    }
    let hop = |want: bool| -> Vec<f64> {
        tally
            .samples
            .iter()
            .zip(&proxied)
            .filter(|(_, &p)| p == want)
            .map(|(s, _)| s.latency)
            .collect()
    };
    let (local, remote) = (hop(false), hop(true));
    let notes = vec![format!(
        "proxied share {:.4} ({} of {}); local p50 {:.3} ms, proxied p50 {:.3} ms",
        remote.len() as f64 / tally.samples.len().max(1) as f64,
        remote.len(),
        tally.samples.len(),
        median_or_zero(&local) * 1e3,
        median_or_zero(&remote) * 1e3
    )];
    Ok(report(Measured {
        workload: "ring_hits",
        latencies: tally.latencies(|_| true),
        throughput: tally.samples.len() as f64 / span,
        setups,
        rss,
        checker: &checker,
        fixed: &reqs,
        notes,
        tally,
        setup,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_lines_other_seed_same_set_other_order() {
        let reqs = arcs(gen::cold_mix());
        let lines = |seed| -> Vec<String> {
            cold_order(seed, 0, &reqs).into_iter().map(|i| reqs[i].line(i as u64 + 1)).collect()
        };
        let (a, b, c) = (lines(1), lines(1), lines(2));
        assert_eq!(a, b, "the same seed must give byte-identical request lines");
        assert_ne!(a, c, "another seed must reorder");
        let set = |v: &[String]| v.iter().cloned().collect::<HashSet<_>>();
        assert_eq!(set(&a), set(&c), "another seed must send the same requests");

        let hot = arcs((0..TENANT_HOT_SET).map(gen::tenant_hot).collect());
        let stream = |seed| -> Vec<Vec<u8>> {
            let mut mix = TenantMix::new(seed, 0, 0, 2, &hot);
            (0..300).map(|_| mix.next_op().line.clone()).collect()
        };
        assert_eq!(stream(5), stream(5));
        assert_ne!(stream(5), stream(6));
    }

    #[test]
    fn cold_order_keeps_requests_sharing_a_graph_in_index_order() {
        let reqs = arcs(gen::cold_mix());
        let graph = |i: usize| value_fingerprint(&reqs[i].values[0]);
        let shared =
            (0..reqs.len()).filter(|&i| (0..reqs.len()).any(|j| j != i && graph(j) == graph(i)));
        assert!(shared.count() > 10, "cold_mix exercises the neighbor warm start");
        for seed in 0..5 {
            let order = cold_order(seed, 0, &reqs);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..reqs.len()).collect::<Vec<_>>());
            for (a, &i) in order.iter().enumerate() {
                for &j in &order[a + 1..] {
                    assert!(graph(i) != graph(j) || i < j, "seed {seed}: {i} after {j}");
                }
            }
        }
    }

    #[test]
    fn tenant_replans_are_half_first_occurrences() {
        let hot = arcs((0..TENANT_HOT_SET).map(gen::tenant_hot).collect());
        let mut mix = TenantMix::new(9, 0, 1, 2, &hot);
        let mut seen = HashSet::new();
        let (mut replans, mut first) = (0, 0);
        for _ in 0..4000 {
            let op = mix.next_op();
            if op.class == Class::Replan {
                replans += 1;
                first += usize::from(seen.insert(op.id));
            }
        }
        let share = first as f64 / replans as f64;
        assert!((0.45..=0.55).contains(&share), "first-occurrence share {share}");
    }

    #[test]
    fn ring_ports_put_a_third_of_the_hot_set_behind_a_proxy_hop() {
        let hot = gen::paper_hot_set(24);
        for group in 0..RING_PORT_GROUPS {
            let info = ring_info(RING_BASE_PORT + 10 * group);
            let ring = Ring::build(info.clone());
            let proxied =
                hot.iter().filter(|r| !ring.is_owner(r.fingerprint, &info.members[0])).count();
            assert_eq!(proxied, 8, "port group {group}");
        }
    }

    #[test]
    fn open_loop_schedule_realizes_its_rate() {
        for seed in 0..20 {
            let schedule = poisson_schedule(seed, 10, HOT_RATE / 2.0, 10.0, 16);
            let rate = schedule.len() as f64 / 10.0;
            assert!((rate / (HOT_RATE / 2.0) - 1.0).abs() <= 0.02, "seed {seed}: {rate} req/s");
            assert!(schedule.windows(2).all(|w| w[0].0 <= w[1].0));
            let gaps: Vec<f64> = schedule.windows(2).map(|w| w[1].0 - w[0].0).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let sd =
                (gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64).sqrt();
            assert!((sd / mean - 1.0).abs() < 0.1, "gaps are not exponential: cv {}", sd / mean);
            // Any one-second window holds close to the target count.
            let first_second = schedule.iter().filter(|(t, _)| *t < 1.0).count() as f64;
            assert!((first_second / (HOT_RATE / 2.0) - 1.0).abs() < 0.35);
        }
    }
}
