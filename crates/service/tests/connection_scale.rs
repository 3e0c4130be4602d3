//! The connection-scale soak (CI: `connection-scale`).
//!
//! Proves the event-loop claim at its design point: one I/O thread plus
//! the fixed worker pool serves ~1k concurrent connections. The test
//! holds a large fleet of idle connections open while PR-5's seeded
//! stress traffic runs underneath (half of it over the chunked streaming
//! transport), then asserts:
//!
//! * connections add **zero** OS threads — thread count is flat from
//!   before the fleet connects to after it is serving;
//! * the daemon's own accounting: `thread_count() ≤ workers + 2`;
//! * the PR-5 overload invariants survive at scale (hot-set hit rate,
//!   no shedding below the queue cap, bit-identical hot plans);
//! * streamed and plain responses carry identical plan bits;
//! * the event-loop gauges report the fleet (`peak_connections`);
//! * RSS stays bounded — per-connection state is small;
//! * dropping the fleet drains `open_connections` back down.
//!
//! Linux-only: thread/RSS/fd-limit observations read `/proc`. The fleet
//! size adapts to `RLIMIT_NOFILE` (client and server ends live in this
//! one process, so each connection costs two descriptors), which is how
//! CI's lowered `ulimit -n` still gets a meaningful run.

#![cfg(target_os = "linux")]

use std::net::TcpStream;
use std::time::{Duration, Instant};

use hap_service::testing::{self, hot_hit_rate, hot_request, StressOp};
use hap_service::{Client, RetryPolicy, Server, ServiceConfig};

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Soft `RLIMIT_NOFILE`, from `/proc/self/limits` (std exposes no
/// getrlimit).
fn soft_fd_limit() -> u64 {
    let text = std::fs::read_to_string("/proc/self/limits").unwrap_or_default();
    text.lines()
        .find(|l| l.starts_with("Max open files"))
        .and_then(|l| l.split_whitespace().nth(3))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1024)
}

fn os_threads() -> u64 {
    proc_field("/proc/self/status", "Threads:").expect("/proc/self/status Threads")
}

/// Approximate resident set in bytes (`statm` pages × 4 KiB; on larger
/// page sizes this undercounts, which only loosens the bound).
fn rss_bytes() -> u64 {
    let text = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    text.split_whitespace().nth(1).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0) * 4096
}

fn soak_seed() -> u64 {
    std::env::var("HAP_SOAK_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC0_11EC7)
}

const WORKERS: usize = 2;
const HOT_N: usize = 6;
const HOT_REPEATS: usize = 3;
const FLOOD_N: usize = 24;

#[test]
fn a_thousand_idle_connections_cost_no_threads_and_no_invariants() {
    let seed = soak_seed();
    println!("connection-scale seed: {seed} (set HAP_SOAK_SEED to reproduce)");
    let config = ServiceConfig {
        workers: WORKERS,
        cache_capacity: 16,
        // The fleet must stay open for the whole soak.
        idle_timeout_ms: 0,
        ..ServiceConfig::default()
    };
    let mut server = Server::start(config).unwrap();
    let addr = server.addr();
    assert!(
        server.thread_count() <= WORKERS + 2,
        "event loop + workers only: {} threads",
        server.thread_count()
    );

    // Two fds per connection (both ends are this process), plus headroom
    // for the cache, test harness, and stress clients.
    let budget = soft_fd_limit().saturating_sub(128) / 2;
    let target = budget.min(1_000) as usize;
    assert!(target >= 64, "fd limit too low for a meaningful soak: {}", soft_fd_limit());
    println!("connection-scale: opening {target} idle connections");

    let threads_before = os_threads();
    let rss_before = rss_bytes();

    // The idle fleet. Nothing is ever written on these; they just occupy
    // poller registrations.
    let mut fleet: Vec<TcpStream> = Vec::with_capacity(target);
    for i in 0..target {
        match TcpStream::connect(addr) {
            Ok(s) => fleet.push(s),
            Err(e) => panic!("connect {i}/{target}: {e}"),
        }
    }

    // Wait until the loop has accepted every one (connect() completes on
    // the kernel backlog, ahead of accept()).
    let mut stats_client = Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = stats_client.stats().unwrap();
        if stats.open_connections >= (target + 1) as u64 {
            break;
        }
        assert!(Instant::now() < deadline, "fleet never fully accepted: {stats:?}");
        std::thread::sleep(Duration::from_millis(50));
    }

    // The core claim: a thousand connections, zero new threads.
    let threads_after = os_threads();
    assert_eq!(
        threads_after, threads_before,
        "accepting {target} connections must not spawn threads"
    );

    // PR-5 stress traffic underneath the fleet — warmup cold, then the
    // seeded hot/flood mix, half plain, half streamed.
    let retry = RetryPolicy::default();
    let warmup: Vec<StressOp> = (0..HOT_N).map(StressOp::Hot).collect();
    let warm = testing::drive_sequential(addr, &warmup, &retry, false);
    assert!(warm.iter().all(|o| o.source == "synthesized"), "warmup is all cold");

    let ops = testing::schedule(seed, HOT_N, HOT_REPEATS, FLOOD_N);
    let (first, second) = ops.split_at(ops.len() / 2);
    let mut outcomes = testing::drive_sequential(addr, first, &retry, false);
    outcomes.extend(testing::drive_sequential(addr, second, &retry, true));

    // Hot plans never drift, streamed or not.
    for o in &outcomes {
        if let StressOp::Hot(i) = o.op {
            let reference = warm.iter().find(|w| w.op == StressOp::Hot(i)).unwrap();
            assert_eq!(o.bits, reference.bits, "hot-{i} plan drifted under the fleet");
        }
    }
    let rate = hot_hit_rate(&outcomes);
    assert!(rate >= 0.90, "hot-set hit rate must hold at scale: {rate:.3}");

    // Streamed and plain paths agree bit for bit on the same request.
    let req = hot_request(0);
    let mut plain_client = Client::connect(addr).unwrap();
    let plain = plain_client.plan(&req.graph, &req.cluster, &req.options).unwrap();
    plain_client.set_stream(true);
    let streamed = plain_client.plan(&req.graph, &req.cluster, &req.options).unwrap();
    assert_eq!(plain.source, "cache");
    assert_eq!(streamed.source, "cache");
    assert_eq!(streamed.program.fingerprint(), plain.program.fingerprint());
    assert_eq!(streamed.estimated_time.to_bits(), plain.estimated_time.to_bits());
    assert_eq!(streamed.ratios, plain.ratios);

    let stats = stats_client.stats().unwrap();
    assert!(stats.peak_connections >= target as u64, "{stats:?}");
    assert_eq!(stats.shed, 0, "nothing sheds below the queue cap: {stats:?}");
    assert_eq!(stats.in_flight, 0, "{stats:?}");
    assert_eq!(stats.errors, 0, "{stats:?}");

    // Per-connection state is bounded: generous ceiling, but it would
    // catch a per-connection buffer leak at this scale immediately.
    let rss_growth = rss_bytes().saturating_sub(rss_before);
    assert!(
        rss_growth < 256 * 1024 * 1024,
        "RSS grew {} MiB over the soak",
        rss_growth / (1024 * 1024)
    );

    // Dropping the fleet drains the gauge: every EOF is observed and
    // deregistered.
    drop(fleet);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = stats_client.stats().unwrap();
        if stats.open_connections <= 2 {
            break;
        }
        assert!(Instant::now() < deadline, "fleet EOFs never drained: {stats:?}");
        std::thread::sleep(Duration::from_millis(50));
    }

    server.shutdown();
}
