//! The deterministic multi-tenant overload harness (CI: `service-soak`).
//!
//! Drives seeded adversarial tenant mixes from `hap_service::testing`
//! over real loopback sockets and asserts the service's overload
//! contract:
//!
//! * **Hot-set retention** — with cost-aware admission ON a one-off flood
//!   cannot evict the hot working set (hit rate stays ≥ 90%); with
//!   admission OFF (plain PR-4 LRU) the same schedule demonstrably
//!   collapses the hit rate.
//! * **Queue-depth shedding** — a full synthesis backlog returns typed
//!   `busy` frames carrying `retry_after_ms`, and the client's
//!   exponential backoff retries to eventual success.
//! * **TTL expiry** — wire-requested and config-default TTLs expire
//!   cached plans, which are then re-synthesized bit-identically.
//! * **Single flight under pressure** — duplicate bursts coalesce (never
//!   shed, never duplicated) even with a one-deep queue.
//! * **Restart bit-identity** — plans served after a persisted restart
//!   (new versioned record format) carry the exact bits of the cold run.
//!
//! The schedule *order* is seeded (`HAP_SOAK_SEED`, logged so a failing
//! randomized CI run is reproducible); request content, fingerprints and
//! admission densities are fixed, so the assertions hold for every seed.

use std::collections::HashMap;

use hap_service::testing::{
    self, hot_hit_rate, hot_request, one_off_request, slow_request, ReplyBits, StressOp,
};
use hap_service::{Client, RetryPolicy, Server, ServiceConfig};

/// The schedule seed: `HAP_SOAK_SEED` when set (CI's randomized soak
/// run), a fixed default otherwise.
fn soak_seed() -> u64 {
    std::env::var("HAP_SOAK_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xBAD_C0FFE)
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hap-overload-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join("cache.jsonl")
}

const HOT_N: usize = 6;
const HOT_REPEATS: usize = 4;
const FLOOD_N: usize = 64;
/// Sized for the hot set: 16 entries over 16 shards (one per shard), so a
/// flood *must* displace hot entries to be cached at all.
const CAPACITY: usize = 16;

fn overload_config(admission: bool) -> ServiceConfig {
    ServiceConfig { cache_capacity: CAPACITY, cache_admission: admission, ..Default::default() }
}

/// Warm the hot set, then drive the seeded hot+flood mix sequentially.
/// Returns (hit rate over measurement-phase hot steps, per-hot bits).
fn run_retention(admission: bool, seed: u64) -> (f64, HashMap<usize, ReplyBits>, Server) {
    let server = Server::start(overload_config(admission)).unwrap();
    let retry = RetryPolicy::default();
    let warmup: Vec<StressOp> = (0..HOT_N).map(StressOp::Hot).collect();
    let warm_outcomes = testing::drive_sequential(server.addr(), &warmup, &retry, false);
    let mut bits = HashMap::new();
    for o in &warm_outcomes {
        assert_eq!(o.source, "synthesized", "warmup is all cold");
        let StressOp::Hot(i) = o.op else { unreachable!() };
        bits.insert(i, o.bits.clone());
    }
    let ops = testing::schedule(seed, HOT_N, HOT_REPEATS, FLOOD_N);
    let outcomes = testing::drive_sequential(server.addr(), &ops, &retry, false);
    // Whatever the cache decided, every hot reply must carry the exact
    // bits of its cold synthesis — admission may cost re-syntheses, never
    // correctness.
    for o in &outcomes {
        if let StressOp::Hot(i) = o.op {
            assert_eq!(o.bits, bits[&i], "hot-{i} plan drifted from cold synthesis");
        }
    }
    (hot_hit_rate(&outcomes), bits, server)
}

#[test]
fn hot_set_retention_requires_admission() {
    let seed = soak_seed();
    println!("overload harness seed: {seed} (set HAP_SOAK_SEED to reproduce)");
    assert!(
        testing::hot_set_fits(HOT_N, CAPACITY),
        "hot-set fingerprints exceed a cache shard's budget; retune testing::hot_request"
    );

    let (rate_on, _, server_on) = run_retention(true, seed);
    let stats_on = server_on.service().stats();
    assert!(
        rate_on >= 0.90,
        "admission ON must retain the hot set under flood: hit rate {rate_on:.3}, {stats_on:?}"
    );
    assert!(
        stats_on.admission_rejected > 0,
        "the flood must have been turned away by the gate: {stats_on:?}"
    );

    let (rate_off, _, server_off) = run_retention(false, seed);
    let stats_off = server_off.service().stats();
    assert!(
        rate_off < 0.75,
        "plain LRU must collapse under the same flood: hit rate {rate_off:.3}, {stats_off:?}"
    );
    assert!(
        rate_on - rate_off >= 0.20,
        "admission must demonstrably outperform plain LRU: {rate_on:.3} vs {rate_off:.3}"
    );
    assert_eq!(stats_off.admission_rejected, 0, "no gate when admission is off: {stats_off:?}");
    assert!(stats_off.evictions > stats_on.evictions, "LRU churns more: {stats_off:?}");
}

#[test]
fn queue_overflow_sheds_busy_frames_and_retry_recovers() {
    // One worker, one queue slot: a slow job on the worker plus one
    // queued job saturate the daemon.
    let config = ServiceConfig {
        workers: 1,
        max_queue_depth: 1,
        busy_retry_ms: 5,
        ..ServiceConfig::default()
    };
    let server = Server::start(config).unwrap();
    let addr = server.addr();

    std::thread::scope(|scope| {
        // Park the worker on a deliberately slow synthesis.
        let slow = scope.spawn(move || {
            let req = slow_request(0);
            let mut client = Client::connect(addr).unwrap();
            client.plan(&req.graph, &req.cluster, &req.options).unwrap()
        });
        std::thread::sleep(std::time::Duration::from_millis(150));
        // Fill the one queue slot with a distinct request. Retried, to
        // close the microsecond window where the worker has not yet
        // dequeued the slow job and this request would itself be shed.
        let queued = scope.spawn(move || {
            let req = hot_request(0);
            let mut client = Client::connect(addr).unwrap();
            client.set_retry(Some(RetryPolicy {
                max_attempts: 4,
                base_delay_ms: 5,
                max_delay_ms: 50,
                ..RetryPolicy::default()
            }));
            client.plan(&req.graph, &req.cluster, &req.options).unwrap()
        });
        std::thread::sleep(std::time::Duration::from_millis(100));

        // The backlog is full: distinct new requests must shed with a
        // typed busy frame carrying a retry hint, synchronously.
        let mut busy_seen = 0;
        for i in 1..=3 {
            let req = one_off_request(1000 + i);
            let mut client = Client::connect(addr).unwrap();
            match client.plan(&req.graph, &req.cluster, &req.options) {
                Err(e) => {
                    assert!(e.is_busy(), "expected busy, got {e}");
                    assert_eq!(e.kind, "busy");
                    let hint = e.retry_after_ms.expect("busy frames carry retry_after_ms");
                    assert!(hint >= 5, "hint {hint} must be at least the configured base");
                    busy_seen += 1;
                }
                Ok(reply) => panic!("request {i} should have been shed, got {}", reply.source),
            }
        }
        assert_eq!(busy_seen, 3);

        // The retrying client rides the backlog out and succeeds.
        let req = one_off_request(2000);
        let mut client = Client::connect(addr).unwrap();
        client.set_retry(Some(RetryPolicy {
            max_attempts: 12,
            base_delay_ms: 20,
            max_delay_ms: 1_000,
            ..RetryPolicy::default()
        }));
        let reply = client
            .plan(&req.graph, &req.cluster, &req.options)
            .expect("backoff must ride out the backlog");
        assert_eq!(reply.source, "synthesized");
        assert!(client.busy_retries() > 0, "the retry path must actually have been exercised");

        slow.join().unwrap();
        queued.join().unwrap();
    });

    let stats = server.service().stats();
    assert!(stats.shed >= 3, "every over-cap leader sheds: {stats:?}");
    assert_eq!(stats.in_flight, 0, "shed slots must be retired: {stats:?}");
    // Shed requests never ran: only the slow job, the queued job, and the
    // retried request synthesized.
    assert_eq!(stats.synthesized, 3, "{stats:?}");
}

#[test]
fn ttl_expires_cached_plans_over_the_wire() {
    let server = Server::start(ServiceConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.set_ttl_ms(Some(300));
    let req = one_off_request(9_000);

    let cold = client.plan(&req.graph, &req.cluster, &req.options).unwrap();
    assert_eq!(cold.source, "synthesized");
    let hit = client.plan(&req.graph, &req.cluster, &req.options).unwrap();
    assert_eq!(hit.source, "cache", "inside the TTL the plan serves from cache");
    assert_eq!(ReplyBits::of(&hit), ReplyBits::of(&cold));

    std::thread::sleep(std::time::Duration::from_millis(600));
    let after = client.plan(&req.graph, &req.cluster, &req.options).unwrap();
    assert_eq!(after.source, "synthesized", "expired plans are never served");
    assert_eq!(ReplyBits::of(&after), ReplyBits::of(&cold), "re-synthesis is bit-identical");
    let stats = server.service().stats();
    assert!(stats.expired >= 1, "{stats:?}");
}

#[test]
fn config_default_ttl_applies_to_plain_requests() {
    let config = ServiceConfig { default_ttl_ms: Some(250), ..ServiceConfig::default() };
    let server = Server::start(config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let req = one_off_request(9_001);

    let cold = client.plan(&req.graph, &req.cluster, &req.options).unwrap();
    assert_eq!(cold.source, "synthesized");
    assert_eq!(client.plan(&req.graph, &req.cluster, &req.options).unwrap().source, "cache");
    std::thread::sleep(std::time::Duration::from_millis(500));
    let after = client.plan(&req.graph, &req.cluster, &req.options).unwrap();
    assert_eq!(after.source, "synthesized", "the config default TTL expired the entry");
    assert_eq!(ReplyBits::of(&after), ReplyBits::of(&cold));
}

#[test]
fn duplicate_bursts_coalesce_and_are_never_shed() {
    // Even with a one-deep queue, identical duplicates join the in-flight
    // synthesis instead of being shed: coalescing adds no queue load.
    const BURST: usize = 8;
    let config = ServiceConfig { workers: 1, max_queue_depth: 1, ..ServiceConfig::default() };
    let server = Server::start(config).unwrap();
    let addr = server.addr();

    let replies: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..BURST)
            .map(|_| {
                scope.spawn(move || {
                    let req = hot_request(1);
                    let mut client = Client::connect(addr).unwrap();
                    client.plan(&req.graph, &req.cluster, &req.options).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for reply in &replies[1..] {
        assert_eq!(ReplyBits::of(reply), ReplyBits::of(&replies[0]));
    }
    let stats = server.service().stats();
    assert_eq!(stats.synthesized, 1, "single flight: {stats:?}");
    assert_eq!(stats.shed, 0, "duplicates must coalesce, not shed: {stats:?}");
    assert_eq!(
        stats.coalesced + stats.hits + stats.synthesized,
        BURST as u64,
        "every request accounted for: {stats:?}"
    );
}

#[test]
fn chaos_device_loss_replans_mid_traffic_keep_every_invariant() {
    let seed = soak_seed();
    println!("chaos harness seed: {seed} (set HAP_SOAK_SEED to reproduce)");

    // Ample capacity: this test isolates the *replan* invariants amid
    // adversarial traffic (retention-under-flood has its own test above);
    // the chaos entries must not be able to displace the hot set.
    let server = Server::start(ServiceConfig::default()).unwrap();
    let retry = RetryPolicy::default();
    let warmup: Vec<StressOp> = (0..HOT_N).map(StressOp::Hot).collect();
    let warm = testing::drive_sequential(server.addr(), &warmup, &retry, false);
    let mut bits = HashMap::new();
    for o in &warm {
        assert_eq!(o.source, "synthesized", "warmup is all cold");
        let StressOp::Hot(i) = o.op else { unreachable!() };
        bits.insert(i, o.bits.clone());
    }

    // Mid-traffic chaos: seeded single-device losses trigger `replan`
    // against the prior fingerprints, interleaved with the usual
    // hot+flood mix.
    const REPLANS: usize = 4;
    let ops = testing::chaos_schedule(seed, HOT_N, HOT_REPEATS, FLOOD_N, REPLANS);
    assert_eq!(
        ops.iter().filter(|o| matches!(o, StressOp::Replan(_))).count(),
        REPLANS,
        "the chaos schedule carries every requested replan"
    );
    let outcomes = testing::drive_sequential(server.addr(), &ops, &retry, false);

    // Chaos must not perturb unaffected tenants: every hot reply still
    // carries its cold-synthesis bits, and the hot set keeps hitting.
    for o in &outcomes {
        if let StressOp::Hot(i) = o.op {
            assert_eq!(o.bits, bits[&i], "hot-{i} plan drifted under chaos");
        }
    }
    assert!(
        hot_hit_rate(&outcomes) >= 0.90,
        "hot hit rate must survive chaos: {:.3}",
        hot_hit_rate(&outcomes)
    );

    // The acceptance bar, under traffic: every replanned plan is
    // bit-identical to cold synthesis on the post-delta cluster.
    let mut cold = HashMap::new();
    for o in &outcomes {
        if let StressOp::Replan(i) = o.op {
            let expected = cold.entry(i).or_insert_with(|| {
                let req = hot_request(i);
                let cluster = testing::replan_delta(i).apply(&req.cluster).unwrap();
                let plan = hap::parallelize(&req.graph, &cluster, &req.options).unwrap();
                ReplyBits {
                    program_fp: plan.program.fingerprint(),
                    time_bits: plan.estimated_time.to_bits(),
                    ratio_bits: plan
                        .ratios
                        .iter()
                        .map(|row| row.iter().map(|b| b.to_bits()).collect())
                        .collect(),
                }
            });
            assert_eq!(&o.bits, expected, "replan-{i} drifted from cold synthesis");
        }
    }

    let stats = server.service().stats();
    // Every chaos step rode the replan verb (priors were warmed, so the
    // cold fallback never fired), nothing shed, nothing errored.
    assert_eq!(stats.replanned, REPLANS as u64, "{stats:?}");
    assert_eq!(stats.shed, 0, "sequential chaos traffic must never shed: {stats:?}");
    assert_eq!(stats.errors, 0, "no unknown_fingerprint fallbacks expected: {stats:?}");
}

/// Regression: the replan index used to be memory-only, so a `replan`
/// against a prior planned before a daemon restart answered
/// `unknown_fingerprint` even though the plan itself had been persisted.
/// The index now rebuilds from the request triples in the v3 log at boot:
/// a restarted daemon must answer the replan, bit-identically to cold
/// synthesis on the post-delta cluster.
#[test]
fn replan_answers_after_a_restart_from_the_rebuilt_index() {
    let path = temp_path("replan-restart");
    let config = || ServiceConfig { cache_path: Some(path.clone()), ..ServiceConfig::default() };
    let req = hot_request(0);
    let delta = testing::replan_delta(0);

    {
        let server = Server::start(config()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let cold = client.plan(&req.graph, &req.cluster, &req.options).unwrap();
        assert_eq!(cold.source, "synthesized");
        // Server drops: queue drains, log is flushed.
    }

    let server = Server::start(config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let reply = client
        .replan(req.fingerprint(), &delta)
        .expect("a restarted daemon must rebuild its replan index from the log");
    let cluster = delta.apply(&req.cluster).unwrap();
    let expected = hap::parallelize(&req.graph, &cluster, &req.options).unwrap();
    assert_eq!(reply.plan.program.fingerprint(), expected.program.fingerprint());
    assert_eq!(reply.plan.estimated_time.to_bits(), expected.estimated_time.to_bits());
    let stats = server.service().stats();
    assert_eq!(stats.replanned, 1, "the replan verb served it: {stats:?}");
    assert_eq!(stats.errors, 0, "no unknown_fingerprint after restart: {stats:?}");
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn plans_stay_bit_identical_across_a_persisted_restart() {
    let path = temp_path("restart");
    let config = || ServiceConfig {
        cache_path: Some(path.clone()),
        cache_capacity: CAPACITY,
        ..ServiceConfig::default()
    };
    let warmup: Vec<StressOp> = (0..4).map(StressOp::Hot).collect();
    let retry = RetryPolicy::default();

    let before = {
        let server = Server::start(config()).unwrap();
        testing::drive_sequential(server.addr(), &warmup, &retry, false)
        // Server drops: queue drains, log is flushed.
    };
    let logged = std::fs::read_to_string(&path).unwrap();
    assert!(
        logged.lines().all(|l| l.starts_with("{\"v\":3,\"sum\":")),
        "the daemon writes the versioned record format"
    );

    let server = Server::start(config()).unwrap();
    let after = testing::drive_sequential(server.addr(), &warmup, &retry, false);
    for (b, a) in before.iter().zip(after.iter()) {
        assert_eq!(a.source, "cache", "the restarted daemon answers from disk");
        assert_eq!(a.bits, b.bits, "restart must preserve plan bits exactly");
    }
    let stats = server.service().stats();
    assert_eq!(stats.synthesized, 0, "{stats:?}");
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}
