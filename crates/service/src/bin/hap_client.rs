//! CLI client for the HAP planning daemon.
//!
//! ```text
//! hap-client --addr HOST:PORT [--model NAME]... [--requests N]
//!            [--concurrency N] [--ttl-ms N] [--max-retries N] [--stream]
//!            [--stats] [--prom] [--shutdown]
//!            [--assert KEY=V | KEY>=V | KEY<=V]...
//! ```
//!
//! Models are the bundled benchmark suite at test scale: `mlp`,
//! `bert-tiny`, `bert-moe-tiny`, `vgg-tiny`, `vit-tiny` — or `all` for
//! the four paper models. Each `--requests` repetition submits every
//! selected model; `--concurrency` fans the submissions out over that
//! many connections, which is how the CI smoke job provokes the
//! single-flight path. `--assert` checks daemon stats after the run
//! (exit 1 on violation), e.g. `--assert synthesized=1 --assert hits>=7
//! --assert errors<=0`. `--prom` fetches `stats` + `metrics` and prints
//! them in Prometheus text exposition format (for scraping via
//! `hap-client --addr ... --prom`).
//!
//! When the daemon sheds load (`busy` frames from its queue-depth cap),
//! submissions retry with exponential backoff honoring the frame's
//! `retry_after_ms` hint — up to `--max-retries` attempts (default 8,
//! `1` disables retrying). `--ttl-ms` asks the daemon to expire the
//! plans this run caches. `--stream` requests chunked streaming
//! responses (reassembled client-side; byte-identical to unstreamed
//! replies, so the determinism gate still applies).

use std::process::ExitCode;

use hap::HapOptions;
use hap_cluster::ClusterSpec;
use hap_graph::Graph;
use hap_models::{
    bert_base, bert_moe, mlp, vgg19, vit, BertConfig, MlpConfig, MoeConfig, VggConfig, VitConfig,
};
use hap_service::Client;

fn build_model(name: &str) -> Option<Graph> {
    match name {
        "mlp" => Some(mlp(&MlpConfig::tiny())),
        "bert-tiny" => Some(bert_base(&BertConfig::tiny())),
        "bert-moe-tiny" => Some(bert_moe(&MoeConfig::tiny(4))),
        "vgg-tiny" => Some(vgg19(&VggConfig::tiny())),
        "vit-tiny" => Some(vit(&VitConfig::tiny())),
        _ => None,
    }
}

/// An assertion's comparison operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AssertOp {
    Exact,
    AtLeast,
    AtMost,
}

impl AssertOp {
    fn as_str(self) -> &'static str {
        match self {
            AssertOp::Exact => "=",
            AssertOp::AtLeast => ">=",
            AssertOp::AtMost => "<=",
        }
    }
}

/// One stats assertion: `key=value` (exact), `key>=value` (at least), or
/// `key<=value` (at most).
struct Assertion {
    key: String,
    bound: u64,
    op: AssertOp,
}

impl Assertion {
    fn parse(text: &str) -> Option<Assertion> {
        // The two-character operators first: both contain `=`, so a bare
        // `split_once('=')` would mis-parse `hits<=3` as key `hits<`.
        for (token, op) in [(">=", AssertOp::AtLeast), ("<=", AssertOp::AtMost)] {
            if let Some((key, v)) = text.split_once(token) {
                return Some(Assertion { key: key.into(), bound: v.parse().ok()?, op });
            }
        }
        let (key, v) = text.split_once('=')?;
        Some(Assertion { key: key.into(), bound: v.parse().ok()?, op: AssertOp::Exact })
    }

    fn check(
        &self,
        stats: &hap_service::StatsSnapshot,
        raw: &hap_codec::Value,
    ) -> Result<(), String> {
        // One source of truth for valid keys: the snapshot's own wire
        // field list (new counters become assertable automatically).
        if !stats.fields().into_iter().any(|(k, _)| k == self.key) {
            return Err(format!("unknown stats key `{}`", self.key));
        }
        // Assert against the daemon's actual reply, not the lenient
        // decode: a daemon that predates this key never sent it, and the
        // decoder's absent-reads-as-0 would make `key<=N` pass — and
        // `key>=N` fail with a bogus "is 0" — against a daemon that
        // cannot count it at all.
        let actual = match raw.get(&self.key) {
            Some(v) => {
                v.as_u64().map_err(|e| format!("stats key `{}` is not a counter: {e}", self.key))?
            }
            None => {
                return Err(format!(
                    "the daemon's stats reply carries no `{}` (daemon predates this key?)",
                    self.key
                ))
            }
        };
        let ok = match self.op {
            AssertOp::Exact => actual == self.bound,
            AssertOp::AtLeast => actual >= self.bound,
            AssertOp::AtMost => actual <= self.bound,
        };
        if ok {
            Ok(())
        } else {
            Err(format!("{} is {actual}, expected {} {}", self.key, self.op.as_str(), self.bound))
        }
    }
}

fn main() -> ExitCode {
    let mut addr: Option<String> = None;
    let mut models: Vec<String> = Vec::new();
    let mut requests = 1usize;
    let mut concurrency = 1usize;
    let mut ttl_ms: Option<u64> = None;
    let mut retry = hap_service::RetryPolicy::default();
    let mut stream = false;
    let mut show_stats = false;
    let mut prom = false;
    let mut shutdown = false;
    let mut assertions: Vec<Assertion> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value =
            |name: &str| args.next().ok_or_else(|| eprintln!("hap-client: {name} needs a value"));
        match flag.as_str() {
            "--addr" => match value("--addr") {
                Ok(v) => addr = Some(v),
                Err(()) => return ExitCode::FAILURE,
            },
            "--model" => match value("--model") {
                Ok(v) if v == "all" => {
                    for m in ["vgg-tiny", "vit-tiny", "bert-tiny", "bert-moe-tiny"] {
                        models.push(m.into());
                    }
                }
                Ok(v) => models.push(v),
                Err(()) => return ExitCode::FAILURE,
            },
            "--requests" => match value("--requests")
                .and_then(|v| v.parse().map_err(|e| eprintln!("hap-client: bad count: {e}")))
            {
                Ok(n) => requests = n,
                Err(()) => return ExitCode::FAILURE,
            },
            "--concurrency" => match value("--concurrency")
                .and_then(|v| v.parse().map_err(|e| eprintln!("hap-client: bad count: {e}")))
            {
                Ok(n) => concurrency = std::cmp::max(1, n),
                Err(()) => return ExitCode::FAILURE,
            },
            "--ttl-ms" => match value("--ttl-ms")
                .and_then(|v| v.parse().map_err(|e| eprintln!("hap-client: bad TTL: {e}")))
            {
                Ok(ms) if ms <= hap_service::MAX_TTL_MS => ttl_ms = Some(ms),
                Ok(ms) => {
                    eprintln!(
                        "hap-client: --ttl-ms {ms} exceeds the maximum {}",
                        hap_service::MAX_TTL_MS
                    );
                    return ExitCode::FAILURE;
                }
                Err(()) => return ExitCode::FAILURE,
            },
            "--max-retries" => match value("--max-retries")
                .and_then(|v| v.parse().map_err(|e| eprintln!("hap-client: bad count: {e}")))
            {
                Ok(n) => retry.max_attempts = std::cmp::max(1, n),
                Err(()) => return ExitCode::FAILURE,
            },
            "--stream" => stream = true,
            "--stats" => show_stats = true,
            "--prom" => prom = true,
            "--shutdown" => shutdown = true,
            "--assert" => match value("--assert") {
                Ok(v) => match Assertion::parse(&v) {
                    Some(a) => assertions.push(a),
                    None => {
                        eprintln!("hap-client: bad assertion `{v}`");
                        return ExitCode::FAILURE;
                    }
                },
                Err(()) => return ExitCode::FAILURE,
            },
            _ => {
                eprintln!("hap-client: unknown flag `{flag}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("hap-client: --addr is required");
        return ExitCode::FAILURE;
    };

    // The work list: every selected model, `requests` times over.
    let mut work: Vec<String> = Vec::new();
    for _ in 0..requests {
        work.extend(models.iter().cloned());
    }
    let cluster = ClusterSpec::fig17_cluster();
    let opts = HapOptions::default();

    // Fan the work out over `concurrency` connections. Every submission is
    // checked for bit-identity against the first reply of the same model:
    // whatever mix of synthesized/coalesced/cache answers comes back, the
    // plans must agree bit for bit (program fingerprint, estimated-time
    // bits, ratios) or the client exits nonzero — CI's determinism gate.
    let failed = std::sync::atomic::AtomicBool::new(false);
    type ReplyBits = (u64, u64, Vec<Vec<u64>>);
    let first_reply: std::sync::Mutex<std::collections::HashMap<String, ReplyBits>> =
        std::sync::Mutex::new(std::collections::HashMap::new());
    std::thread::scope(|scope| {
        for worker in 0..concurrency {
            let work = &work;
            let cluster = &cluster;
            let opts = &opts;
            let failed = &failed;
            let first_reply = &first_reply;
            let addr = addr.clone();
            let retry = retry;
            let stream = stream;
            scope.spawn(move || {
                let mut client = match Client::connect(&*addr) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("hap-client: connect: {e}");
                        failed.store(true, std::sync::atomic::Ordering::Relaxed);
                        return;
                    }
                };
                client.set_ttl_ms(ttl_ms);
                client.set_stream(stream);
                client.set_retry(Some(retry));
                for (i, model) in work.iter().enumerate() {
                    if i % concurrency != worker {
                        continue;
                    }
                    let Some(graph) = build_model(model) else {
                        eprintln!("hap-client: unknown model `{model}`");
                        failed.store(true, std::sync::atomic::Ordering::Relaxed);
                        return;
                    };
                    let t0 = std::time::Instant::now();
                    match client.plan(&graph, cluster, opts) {
                        Ok(reply) => {
                            println!(
                                "hap-client: {model} -> {} plan 0x{:016x} est {:.6}s in {:?} \
                                 ({} busy retries, {} stream chunks)",
                                reply.source,
                                reply.program.fingerprint(),
                                reply.estimated_time,
                                t0.elapsed(),
                                client.busy_retries(),
                                client.stream_chunks()
                            );
                            let bits: ReplyBits = (
                                reply.program.fingerprint(),
                                reply.estimated_time.to_bits(),
                                reply
                                    .ratios
                                    .iter()
                                    .map(|row| row.iter().map(|b| b.to_bits()).collect())
                                    .collect(),
                            );
                            let mut seen = first_reply.lock().expect("first-reply map poisoned");
                            let reference =
                                seen.entry(model.clone()).or_insert_with(|| bits.clone());
                            if *reference != bits {
                                eprintln!(
                                    "hap-client: {model}: plan differs from the first reply \
                                     (0x{:016x} vs 0x{:016x}) — determinism violation",
                                    bits.0, reference.0
                                );
                                failed.store(true, std::sync::atomic::Ordering::Relaxed);
                            }
                        }
                        Err(e) => {
                            eprintln!("hap-client: {model}: {e}");
                            failed.store(true, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    if failed.load(std::sync::atomic::Ordering::Relaxed) {
        return ExitCode::FAILURE;
    }

    let mut client = match Client::connect(&*addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("hap-client: connect: {e}");
            return ExitCode::FAILURE;
        }
    };
    if show_stats || !assertions.is_empty() {
        let (stats, raw) = match client.stats_with_raw() {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("hap-client: stats: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("hap-client: stats {stats:?}");
        for a in &assertions {
            if let Err(msg) = a.check(&stats, &raw) {
                eprintln!("hap-client: assertion failed: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    if prom {
        let scraped = client.stats().and_then(|stats| {
            let metrics = client.metrics()?;
            Ok(hap_service::render_prometheus(&stats, &metrics))
        });
        match scraped {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("hap-client: prom: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if shutdown {
        if let Err(e) = client.shutdown() {
            eprintln!("hap-client: shutdown: {e}");
            return ExitCode::FAILURE;
        }
        println!("hap-client: daemon acknowledged shutdown");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_codec::{Encode, Value};
    use hap_service::StatsSnapshot;

    fn parsed(text: &str) -> Assertion {
        Assertion::parse(text).unwrap_or_else(|| panic!("`{text}` should parse"))
    }

    /// The raw wire frame a current daemon would send for `stats`.
    fn raw_of(stats: &StatsSnapshot) -> Value {
        stats.encode()
    }

    /// The raw wire frame of an old daemon that predates `keys`: the
    /// current encoding with those keys stripped.
    fn old_daemon_frame(stats: &StatsSnapshot, missing: &[&str]) -> Value {
        let Value::Obj(fields) = stats.encode() else { panic!("stats encodes as an object") };
        Value::Obj(fields.into_iter().filter(|(k, _)| !missing.contains(&k.as_str())).collect())
    }

    #[test]
    fn two_character_operators_parse_before_the_bare_equals() {
        // `hits<=3` must not parse as key `hits<` with an exact bound.
        let le = parsed("hits<=3");
        assert_eq!((le.key.as_str(), le.bound, le.op), ("hits", 3, AssertOp::AtMost));
        let ge = parsed("hits>=3");
        assert_eq!((ge.key.as_str(), ge.bound, ge.op), ("hits", 3, AssertOp::AtLeast));
        let eq = parsed("hits=3");
        assert_eq!((eq.key.as_str(), eq.bound, eq.op), ("hits", 3, AssertOp::Exact));
        assert!(Assertion::parse("hits").is_none());
        assert!(Assertion::parse("hits<=x").is_none());
    }

    #[test]
    fn at_most_checks_the_upper_bound() {
        let stats = StatsSnapshot { errors: 2, ..StatsSnapshot::default() };
        let raw = raw_of(&stats);
        assert!(parsed("errors<=2").check(&stats, &raw).is_ok());
        assert!(parsed("errors<=1").check(&stats, &raw).is_err());
        assert!(parsed("errors>=2").check(&stats, &raw).is_ok());
        assert!(parsed("errors=2").check(&stats, &raw).is_ok());
    }

    #[test]
    fn every_wire_field_is_an_assertable_key() {
        let stats = StatsSnapshot::default();
        let raw = raw_of(&stats);
        for (key, _) in stats.fields() {
            assert!(
                parsed(&format!("{key}=0")).check(&stats, &raw).is_ok(),
                "key `{key}` should be assertable"
            );
        }
        assert!(parsed("bogus=0").check(&stats, &raw).is_err());
    }

    #[test]
    fn absent_keys_fail_clearly_instead_of_reading_zero() {
        // An old daemon never sent the cluster counters; the lenient
        // snapshot decode reads them as 0. Every operator — including the
        // ones 0 would satisfy — must fail with an "absent" diagnostic,
        // not silently compare against the decoder's filler.
        let stats = StatsSnapshot::default();
        let raw = old_daemon_frame(&stats, &["proxied", "redirected", "ring_epoch"]);
        for assertion in ["proxied<=0", "proxied>=0", "proxied=0", "redirected<=5", "ring_epoch>=1"]
        {
            let err = parsed(assertion)
                .check(&stats, &raw)
                .expect_err("assertion on an absent key must fail");
            assert!(
                err.contains("carries no"),
                "`{assertion}` should report the key as absent, got: {err}"
            );
        }
        // Keys the old daemon *did* send keep working, both directions.
        let stats = StatsSnapshot { hits: 7, ..StatsSnapshot::default() };
        let raw = old_daemon_frame(&stats, &["proxied"]);
        assert!(parsed("hits>=7").check(&stats, &raw).is_ok());
        assert!(parsed("hits<=7").check(&stats, &raw).is_ok());
        assert!(parsed("hits>=8").check(&stats, &raw).is_err());
        // A typo is still "unknown", not "absent".
        assert!(parsed("bogus=0").check(&stats, &raw).unwrap_err().contains("unknown"));
    }
}
