//! Seeded fault-injection harness (CI: `service-faults`).
//!
//! Drives the daemon's durability and isolation machinery through the
//! `hap_service::faults` failpoint registry and asserts the robustness
//! contract:
//!
//! * **Atomic compaction** — a compaction killed at *any* stage (temp-file
//!   create, record write, torn write, fsync, rename) leaves the previous
//!   log bit-for-bit loadable; only a failure *after* the rename leaves
//!   the (complete) new log.
//! * **Torn-append recovery** — an append cut short mid-record is
//!   truncated away on the next boot and every acknowledged record loads.
//! * **Crash-recovery torture** — a seeded schedule of append/compaction
//!   faults over many boot cycles: every boot succeeds, the recovered
//!   cache is exactly the acknowledged set, plans stay bit-identical.
//! * **Graceful degradation** — a persistence outage flips the daemon to
//!   memory-only serving (`persistence_degraded`, `persist_errors`) and a
//!   healed disk recovers the full outage window on the next append.
//! * **Panic isolation** — a synthesis job that panics delivers a typed
//!   `internal` error to its leader and every coalesced follower, leaks
//!   nothing, and the daemon keeps serving — in-process and over a socket.
//! * **Client io-retry** — a connection dropped mid-response is
//!   reconnected and the request resent (plans are idempotent).
//!
//! The failpoint registry is process-global, so every test here holds the
//! `faults::exclusive()` guard; CI runs this binary with
//! `--test-threads=1` and both a fixed and a logged randomized
//! `HAP_FAULTS_SEED`.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hap_codec::{parse, parse_persist_line, persist_line, CachedPlan, Decode, Value, WireError};
use hap_service::faults::{self, Fault, FaultSpec};
use hap_service::testing::{hot_request, request_line, slow_request, ReplyBits, StressRequest};
use hap_service::{
    compact_log, load_cache, Client, FsyncPolicy, LoadOutcome, PersistLog, PlanCache, PlanService,
    RetryPolicy, Server, ServiceConfig,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A real plan body to persist: the first committed v2 fixture entry.
/// `persist_line` takes the fingerprint separately, so one body yields
/// arbitrarily many distinct records.
fn fixture_plan() -> Arc<CachedPlan> {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/v2_cache.jsonl");
    let content = std::fs::read_to_string(fixture).expect("committed fixture");
    let line = content.lines().next().expect("fixture has entries");
    Arc::new(parse_persist_line(line).expect("fixture line parses").1)
}

/// A unique temp log path per call.
fn temp_log() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("hap-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("cache-{n}.jsonl"))
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Asserts the log at `path` loads exactly `fps`, each bit-identical to
/// the fixture body, with no recovery needed. Returns the loaded cache.
fn assert_log_holds(path: &std::path::Path, fps: &[u64], context: &str) -> PlanCache {
    let plan = fixture_plan();
    let cache = PlanCache::new(1024);
    let outcome =
        load_cache(&cache, path).unwrap_or_else(|e| panic!("{context}: boot refused: {e}"));
    assert_eq!(outcome, LoadOutcome { loaded: fps.len(), torn_tail_recovered: false }, "{context}");
    for &fp in fps {
        let got = cache.get(fp).unwrap_or_else(|| panic!("{context}: fp {fp:#x} lost"));
        assert_eq!(persist_line(fp, &got), persist_line(fp, &plan), "{context}: bits drifted");
    }
    cache
}

// ---------------------------------------------------------------------------
// Atomic compaction
// ---------------------------------------------------------------------------

/// Regression for the PR-4-era `File::create` rewrite, which zeroed the
/// live log before writing a byte: compaction killed at every pre-rename
/// stage must leave the old log untouched and loadable; killed after the
/// rename, the complete *new* log is live. Either way, nothing is torn
/// and a retry on a healed disk succeeds.
#[test]
fn compaction_killed_at_any_stage_leaves_a_loadable_log() {
    let _faults = faults::exclusive();
    let plan = fixture_plan();
    let old_fps = [1u64, 2, 3];
    let new_fps = [1u64, 2, 3, 4, 5];
    let old = PlanCache::new(64);
    let new = PlanCache::new(64);
    for &fp in &old_fps {
        old.insert(fp, plan.clone());
    }
    for &fp in &new_fps {
        new.insert(fp, plan.clone());
    }

    let pre_rename: &[(&str, Fault)] = &[
        (
            faults::COMPACT_CREATE,
            Fault::Error(std::io::ErrorKind::PermissionDenied, "create".into()),
        ),
        (faults::COMPACT_WRITE, Fault::Error(std::io::ErrorKind::StorageFull, "disk full".into())),
        (faults::COMPACT_WRITE, Fault::ShortWrite(33)),
        (faults::COMPACT_FSYNC, Fault::Error(std::io::ErrorKind::Other, "fsync EIO".into())),
        (faults::COMPACT_RENAME, Fault::Error(std::io::ErrorKind::Other, "rename EIO".into())),
    ];
    for (point, fault) in pre_rename {
        let path = temp_log();
        compact_log(&old, &path).unwrap();
        faults::arm(point, FaultSpec::now(fault.clone()));
        let err = compact_log(&new, &path).expect_err(point);
        assert!(err.to_string().contains("injected fault"), "{point}: {err}");
        assert_log_holds(&path, &old_fps, point);
        // The disk healed (faults are one-shot): the retry goes through.
        compact_log(&new, &path).unwrap_or_else(|e| panic!("{point}: retry failed: {e}"));
        assert_log_holds(&path, &new_fps, point);
    }

    // Past the rename the new log is already live; the directory-fsync
    // failure is still reported (the rename may not be durable) but what
    // is on disk is the complete new log.
    let path = temp_log();
    compact_log(&old, &path).unwrap();
    faults::arm(
        faults::COMPACT_DIR_FSYNC,
        FaultSpec::now(Fault::Error(std::io::ErrorKind::Other, "dir fsync EIO".into())),
    );
    compact_log(&new, &path).expect_err("dir-fsync failure is surfaced");
    assert_log_holds(&path, &new_fps, "after rename");
}

// ---------------------------------------------------------------------------
// Torn appends
// ---------------------------------------------------------------------------

/// An append cut short mid-record (a crash inside `write(2)`) leaves a
/// torn final line; the next boot truncates it away, loads every
/// acknowledged record, and the log is appendable again.
#[test]
fn torn_append_is_recovered_on_the_next_boot() {
    let _faults = faults::exclusive();
    let plan = fixture_plan();
    let path = temp_log();
    let cache = PlanCache::new(64);
    let log = PersistLog::start(&cache, path.clone(), FsyncPolicy::Always);
    assert!(!log.degraded());
    cache.insert(10, plan.clone());
    assert!(log.append(&cache, 10, &plan), "healthy append is acknowledged");

    faults::arm(faults::APPEND_WRITE, FaultSpec::now(Fault::ShortWrite(25)));
    cache.insert(11, plan.clone());
    assert!(!log.append(&cache, 11, &plan), "torn append is not acknowledged");
    assert!(log.degraded());
    assert_eq!(log.errors(), 1);
    drop(log); // crash: no shutdown sync, torn bytes stay on disk

    let raw = std::fs::read_to_string(&path).unwrap();
    assert!(!raw.ends_with('\n'), "the torn record must really be unterminated");

    let rebooted = PlanCache::new(64);
    let outcome = load_cache(&rebooted, &path).unwrap();
    assert_eq!(outcome, LoadOutcome { loaded: 1, torn_tail_recovered: true });
    assert!(rebooted.get(10).is_some());
    assert!(rebooted.get(11).is_none(), "the unacknowledged record is gone");

    // Boot-time compaction leaves a clean, appendable log.
    let log = PersistLog::start(&rebooted, path.clone(), FsyncPolicy::Always);
    assert!(!log.degraded());
    rebooted.insert(12, plan.clone());
    assert!(log.append(&rebooted, 12, &plan));
    drop(log);
    assert_log_holds(&path, &[10, 12], "after recovery");
}

// ---------------------------------------------------------------------------
// Crash-recovery torture
// ---------------------------------------------------------------------------

/// The torture schedule seed: `HAP_FAULTS_SEED` when set (CI's randomized
/// run, logged for reproducibility), a fixed default otherwise.
fn faults_seed() -> u64 {
    std::env::var("HAP_FAULTS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xFA17)
}

/// Many boot → serve → crash cycles under a seeded schedule of append and
/// compaction faults, against a model of what the log must hold. Every
/// boot succeeds; the recovered cache is exactly the acknowledged set (a
/// prefix of admissions, plus full outage windows recovered by re-probe
/// compactions); every plan stays bit-identical.
#[test]
fn seeded_crash_recovery_torture() {
    let _faults = faults::exclusive();
    let seed = faults_seed();
    eprintln!("crash-recovery torture: HAP_FAULTS_SEED={seed}");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let plan = fixture_plan();
    let path = temp_log();

    // The model: fingerprints the next boot must recover, and whether the
    // file currently ends in a torn line.
    let mut on_disk: Vec<u64> = Vec::new();
    let mut torn_pending = false;
    let mut next_fp = 0x100u64;

    for cycle in 0..12 {
        // ---- boot: load, verify against the model ----
        let cache = PlanCache::new(1024);
        let outcome = load_cache(&cache, &path)
            .unwrap_or_else(|e| panic!("cycle {cycle}: boot refused: {e}"));
        assert_eq!(
            outcome,
            LoadOutcome { loaded: on_disk.len(), torn_tail_recovered: torn_pending },
            "cycle {cycle}"
        );
        for &fp in &on_disk {
            let got = cache.get(fp).unwrap_or_else(|| panic!("cycle {cycle}: fp {fp:#x} lost"));
            assert_eq!(
                persist_line(fp, &got),
                persist_line(fp, &plan),
                "cycle {cycle}: fp {fp:#x} drifted"
            );
        }
        torn_pending = false; // recovery truncated any torn tail
        let mut live = on_disk.clone();

        // ---- maybe kill the boot-time compaction at a seeded stage ----
        let compact_killed = rng.random_range(0..4u32) == 0;
        if compact_killed {
            let stages = [
                faults::COMPACT_CREATE,
                faults::COMPACT_WRITE,
                faults::COMPACT_FSYNC,
                faults::COMPACT_RENAME,
            ];
            let point = stages[rng.random_range(0..stages.len())];
            let fault = if point == faults::COMPACT_WRITE && rng.random_bool(0.5) {
                Fault::ShortWrite(rng.random_range(1..60usize))
            } else {
                Fault::Error(std::io::ErrorKind::Other, format!("cycle {cycle}: boot outage"))
            };
            faults::arm(point, FaultSpec::now(fault));
        }
        let log = PersistLog::start(&cache, path.clone(), FsyncPolicy::Always);
        assert_eq!(log.degraded(), compact_killed, "cycle {cycle}");
        // A killed compaction leaves the previous log intact (verified at
        // the next boot): `on_disk` deliberately stays unchanged.

        // ---- serve: a few admissions, one of which may hit a dead disk ----
        let appends = rng.random_range(1..5usize);
        let fail_at = if rng.random_bool(0.5) { Some(rng.random_range(0..appends)) } else { None };
        for i in 0..appends {
            let fp = next_fp;
            next_fp += 1;
            // While degraded, appends are re-probe compactions and never
            // reach the append failpoint — arming it would leak the fault
            // into a later cycle, so only injected on a healthy log.
            let mut tearing = false;
            if Some(i) == fail_at && !log.degraded() {
                if rng.random_bool(0.5) {
                    tearing = true;
                    faults::arm(
                        faults::APPEND_WRITE,
                        FaultSpec::now(Fault::ShortWrite(rng.random_range(1..60usize))),
                    );
                } else {
                    faults::arm(
                        faults::APPEND_WRITE,
                        FaultSpec::now(Fault::Error(
                            std::io::ErrorKind::StorageFull,
                            format!("cycle {cycle}: append outage"),
                        )),
                    );
                }
            }
            cache.insert(fp, plan.clone());
            live.push(fp);
            let was_degraded = log.degraded();
            if log.append(&cache, fp, &plan) {
                if was_degraded {
                    // Successful re-probe: the whole live set (including
                    // every entry admitted during the outage) was
                    // rewritten atomically.
                    on_disk = live.clone();
                    torn_pending = false;
                } else {
                    on_disk.push(fp);
                }
            } else {
                // Unacknowledged: the model keeps the previous contents;
                // a short write leaves torn bytes for the next boot.
                if tearing {
                    torn_pending = true;
                }
                assert!(log.degraded(), "cycle {cycle}: failed append must degrade");
            }
        }
        drop(log); // crash: no shutdown sync
    }

    // Final boot: everything acknowledged survived the whole schedule.
    let cache = assert_log_holds(&path, &on_disk, "final boot");
    let log = PersistLog::start(&cache, path.clone(), FsyncPolicy::Always);
    assert!(!log.degraded(), "final boot compacts cleanly");
    assert!(!on_disk.is_empty(), "the schedule must acknowledge something");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        text.lines().all(|l| l.starts_with("{\"v\":3,\"sum\":\"0x")),
        "compaction leaves only checksummed records"
    );
}

// ---------------------------------------------------------------------------
// Graceful degradation, service level
// ---------------------------------------------------------------------------

/// Serves `req` through `handle_line`: the response's parsed frame.
fn respond(service: &PlanService, req: &StressRequest, id: u64) -> Value {
    let (response, _) = service.handle_line(&request_line(req, id));
    parse(&response).unwrap_or_else(|e| panic!("{}: {e}: {response}", req.name))
}

/// Plans `req` through `handle_line`: the response's `source`, and what
/// it served — its `fingerprint` and `plan` object, rendered, so two
/// servings compare byte for byte.
fn plan_via(service: &PlanService, req: &StressRequest) -> (String, String) {
    let v = respond(service, req, 1);
    let field = |key| v.field(key).unwrap_or_else(|e| panic!("{}: {e}: {}", req.name, v.render()));
    let served = format!("{}{}", field("fingerprint").render(), field("plan").render());
    (field("source").as_str().unwrap().to_string(), served)
}

/// The typed error a `handle_line` response frame carries.
fn error_of(v: &Value) -> WireError {
    assert!(!v.field("ok").unwrap().as_bool().unwrap(), "expected an error: {}", v.render());
    WireError::decode(v.field("error").unwrap()).expect("error frame decodes")
}

/// A persistence outage must not cost a single request: the daemon flips
/// to memory-only serving (visible in stats), cache hits keep landing,
/// and the first append after the disk heals recovers the entire outage
/// window — proven by a reboot serving every plan bit-identically.
#[test]
fn persistence_outage_degrades_and_recovers_without_dropping_requests() {
    let _faults = faults::exclusive();
    let path = temp_log();
    let config = || ServiceConfig {
        cache_path: Some(path.clone()),
        fsync: FsyncPolicy::Always,
        workers: 1,
        ..Default::default()
    };
    let service = PlanService::new(config()).unwrap();
    let (s0, p0) = plan_via(&service, &hot_request(0));
    assert_eq!(s0, "synthesized");
    assert_eq!(service.stats().persistence_degraded, 0);
    assert_eq!(service.stats().persist_errors, 0);

    // The disk dies under the next admission's append.
    faults::arm(
        faults::APPEND_WRITE,
        FaultSpec::now(Fault::Error(std::io::ErrorKind::StorageFull, "disk full".into())),
    );
    let (s1, p1) = plan_via(&service, &hot_request(1));
    assert_eq!(s1, "synthesized", "the request is served despite the dead disk");
    let stats = service.stats();
    assert_eq!(stats.persistence_degraded, 1);
    assert_eq!(stats.persist_errors, 1);

    // Memory-only serving: the hot set still hits (the PR-5 retention
    // invariant holds through the outage).
    let (s1b, p1b) = plan_via(&service, &hot_request(1));
    assert_eq!(s1b, "cache");
    assert_eq!(p1b, p1);
    let (s0b, _) = plan_via(&service, &hot_request(0));
    assert_eq!(s0b, "cache");

    // The next admission re-probes the healed disk and recovers the
    // outage window.
    let (s2, p2) = plan_via(&service, &hot_request(2));
    assert_eq!(s2, "synthesized");
    let stats = service.stats();
    assert_eq!(stats.persistence_degraded, 0, "a successful re-probe resumes persistence");
    assert_eq!(stats.persist_errors, 1, "no new failures after the disk healed");
    service.stop();

    // Reboot: every plan — including the one admitted while degraded —
    // recovered bit-identically and served from the cache.
    let reboot = PlanService::new(config()).unwrap();
    for (i, plan) in [p0, p1, p2].iter().enumerate() {
        let (source, got) = plan_via(&reboot, &hot_request(i));
        assert_eq!(source, "cache", "hot-{i} must hit after reboot");
        assert_eq!(&got, plan, "hot-{i} drifted");
    }
    reboot.stop();
}

// ---------------------------------------------------------------------------
// Panic isolation
// ---------------------------------------------------------------------------

/// A synthesis job that panics must deliver a typed `internal` error to
/// the leader *and* every coalesced follower, leak no in-flight slot,
/// poison no lock, and leave the daemon serving. One worker plus a slow
/// occupier makes the leader/follower split deterministic.
#[test]
fn panicking_job_fails_leader_and_followers_with_internal() {
    let _faults = faults::exclusive();
    let service =
        Arc::new(PlanService::new(ServiceConfig { workers: 1, ..Default::default() }).unwrap());
    // skip=1: the occupier's job consults the failpoint first and passes;
    // the victims' job consults second and panics.
    faults::arm(
        faults::SYNTHESIZE,
        FaultSpec::after(1, Fault::Panic("injected synthesis bug".into())),
    );
    let occupier = {
        let service = service.clone();
        std::thread::spawn(move || respond(&service, &slow_request(0), 1))
    };
    // The occupier holds the only worker; with it attached first, the
    // FIFO queue guarantees the victims' job runs second.
    wait_until("occupier in flight", || service.stats().in_flight >= 1);

    let victims: Vec<_> = (0..4)
        .map(|i| {
            let service = service.clone();
            std::thread::spawn(move || respond(&service, &hot_request(0), 2 + i))
        })
        .collect();
    for victim in victims {
        let response = victim.join().expect("victim thread survives");
        let err = error_of(&response);
        assert_eq!(err.kind, "internal", "{err}");
        assert!(err.to_string().contains("panicked"), "{err}");
        assert!(err.to_string().contains("injected synthesis bug"), "{err}");
    }
    let occupied = occupier.join().expect("occupier thread survives");
    assert!(occupied.field("ok").unwrap().as_bool().unwrap(), "occupier is unaffected");

    let stats = service.stats();
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.coalesced, 3, "one leader, three coalesced followers");
    assert_eq!(stats.in_flight, 0, "the panicked job's slot is cleaned up");

    // No poisoned locks, no dead worker: the same request now succeeds.
    let (source, _) = plan_via(&service, &hot_request(0));
    assert_eq!(source, "synthesized", "the daemon keeps serving after a panic");
    // `panics` counts the one panicked job; `errors` counts the error
    // frames it answered: the leader's and the three followers'.
    assert_eq!(service.stats().errors, 4, "every internal frame is an error");
    service.stop();
}

/// The same contract over the wire: the panic arrives as a typed
/// `{"kind":"internal"}` error frame, the connection stays usable, and
/// the `panics` counter is visible in `stats`.
#[test]
fn panic_surfaces_as_internal_frame_over_the_socket() {
    let _faults = faults::exclusive();
    let server = Server::start(ServiceConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    faults::arm(faults::SYNTHESIZE, FaultSpec::now(Fault::Panic("wire panic".into())));

    let req = hot_request(1);
    let err = client.plan(&req.graph, &req.cluster, &req.options).unwrap_err();
    assert_eq!(err.kind, "internal", "{err}");
    assert!(err.to_string().contains("panicked"), "{err}");

    // Same connection, same request: the daemon survived and serves.
    let reply = client.plan(&req.graph, &req.cluster, &req.options).unwrap();
    assert_eq!(reply.source, "synthesized");
    let stats = client.stats().unwrap();
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.errors, 1, "the internal frame is counted as an error");
    assert_eq!(stats.in_flight, 0);
}

// ---------------------------------------------------------------------------
// Client io-retry
// ---------------------------------------------------------------------------

/// A proxy that forwards client→daemon bytes untouched but cuts the
/// daemon→client direction after a per-connection byte budget, then slams
/// the connection — the shape of a daemon crash or network partition
/// mid-response. Connections beyond the budget list are unlimited.
fn start_flaky_proxy(upstream: SocketAddr, budgets: Vec<usize>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("proxy bind");
    let addr = listener.local_addr().unwrap();
    let budgets = Arc::new(Mutex::new(VecDeque::from(budgets)));
    std::thread::spawn(move || {
        for down in listener.incoming() {
            let Ok(down) = down else { break };
            let budget = budgets.lock().unwrap().pop_front().unwrap_or(usize::MAX);
            let Ok(up) = TcpStream::connect(upstream) else { break };
            let (mut down_read, mut up_write) =
                (down.try_clone().expect("clone"), up.try_clone().expect("clone"));
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut down_read, &mut up_write);
                let _ = up_write.shutdown(Shutdown::Write);
            });
            std::thread::spawn(move || {
                let mut up = up;
                let mut down = down;
                let mut remaining = budget;
                let mut buf = [0u8; 4096];
                loop {
                    let n = match up.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => n,
                    };
                    let take = n.min(remaining);
                    if down.write_all(&buf[..take]).is_err() {
                        break;
                    }
                    remaining -= take;
                    if remaining == 0 {
                        break;
                    }
                }
                let _ = down.shutdown(Shutdown::Both);
            });
        }
    });
    addr
}

/// A connection dropped mid-response is a transport failure, not an
/// answer: a client holding a retry policy must reconnect and resend (plans are pure,
/// so the resend is idempotent) and deliver the bit-identical reply.
#[test]
fn client_reconnects_and_resends_after_midresponse_drops() {
    let server = Server::start(ServiceConfig::default()).unwrap();
    let req = hot_request(2);
    // The reference reply, fetched directly (this also warms the cache:
    // the retried request below exercises reconnection, not synthesis
    // determinism, which `overload.rs` already covers).
    let mut direct = Client::connect(server.addr()).unwrap();
    let expected = direct.plan(&req.graph, &req.cluster, &req.options).unwrap();

    // First connection dies 64 bytes into the response, the second after
    // a single byte, the third is healthy.
    let proxy = start_flaky_proxy(server.addr(), vec![64, 1]);
    let mut client = Client::connect(proxy).unwrap();
    let retry = RetryPolicy { max_attempts: 6, base_delay_ms: 1, max_delay_ms: 5, jitter_seed: 7 };
    client.set_retry(Some(retry));
    let reply = client
        .plan(&req.graph, &req.cluster, &req.options)
        .expect("retry reconnects through mid-response drops");
    assert_eq!(client.io_retries(), 2, "both truncated responses were retried");
    assert_eq!(ReplyBits::of(&reply), ReplyBits::of(&expected), "resent reply drifted");

    // Without the io-retry path a single drop is fatal: the non-retrying
    // call surfaces the transport error as-is.
    let proxy = start_flaky_proxy(server.addr(), vec![64]);
    let mut bare = Client::connect(proxy).unwrap();
    let err = bare.plan(&req.graph, &req.cluster, &req.options).unwrap_err();
    assert_eq!(err.kind, "io", "{err}");
}
