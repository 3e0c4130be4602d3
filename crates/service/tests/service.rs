//! End-to-end tests of the planning daemon over real loopback sockets:
//! cache-hit bit-identity, single-flight coalescing, disk persistence
//! across restarts, warm-start seeding, and error transport.

use hap::HapOptions;
use hap_cluster::{ClusterDelta, ClusterSpec};
use hap_models::{mlp, MlpConfig};
use hap_service::{Client, Server, ServiceConfig};

fn tiny_graph() -> hap_graph::Graph {
    mlp(&MlpConfig::tiny())
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hap-service-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join("cache.jsonl")
}

#[test]
fn cache_hit_is_bit_identical_to_cold_synthesis() {
    let server = Server::start(ServiceConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let (graph, cluster, opts) =
        (tiny_graph(), ClusterSpec::fig17_cluster(), HapOptions::default());

    let cold = client.plan(&graph, &cluster, &opts).unwrap();
    assert_eq!(cold.source, "synthesized");
    let hit = client.plan(&graph, &cluster, &opts).unwrap();
    assert_eq!(hit.source, "cache");

    // The acceptance bar: fingerprint and estimated-time *bits* equal.
    assert_eq!(hit.fingerprint, cold.fingerprint);
    assert_eq!(hit.program.fingerprint(), cold.program.fingerprint());
    assert_eq!(hit.estimated_time.to_bits(), cold.estimated_time.to_bits());
    assert_eq!(hit.program.estimated_time.to_bits(), cold.program.estimated_time.to_bits());
    assert_eq!(hit.ratios, cold.ratios);

    // And the daemon agrees with an in-process run of the same request.
    let local = hap::parallelize(&graph, &cluster, &opts).unwrap();
    assert_eq!(cold.program.fingerprint(), local.program.fingerprint());
    assert_eq!(cold.estimated_time.to_bits(), local.estimated_time.to_bits());

    let stats = client.stats().unwrap();
    assert_eq!(stats.synthesized, 1);
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.entries, 1);
}

#[test]
fn eight_concurrent_identical_requests_coalesce_into_one_synthesis() {
    const N: usize = 8;
    let server = Server::start(ServiceConfig::default()).unwrap();
    let addr = server.addr();
    let (graph, cluster, opts) =
        (tiny_graph(), ClusterSpec::fig17_cluster(), HapOptions::default());

    let replies: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let (graph, cluster, opts) = (&graph, &cluster, &opts);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.plan(graph, cluster, opts).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // All N replies carry the exact same plan bits.
    for reply in &replies[1..] {
        assert_eq!(reply.fingerprint, replies[0].fingerprint);
        assert_eq!(reply.program.fingerprint(), replies[0].program.fingerprint());
        assert_eq!(reply.estimated_time.to_bits(), replies[0].estimated_time.to_bits());
        assert_eq!(reply.ratios, replies[0].ratios);
    }

    // Exactly one synthesis ran; every other request either coalesced
    // onto it or (having arrived after completion) hit the cache.
    let stats = server.service().stats();
    assert_eq!(stats.synthesized, 1, "single flight must deduplicate: {stats:?}");
    assert_eq!(
        stats.coalesced + stats.hits + stats.synthesized,
        N as u64,
        "every request accounted for: {stats:?}"
    );
    assert_eq!(stats.in_flight, 0);
    let synthesized = replies.iter().filter(|r| r.source == "synthesized").count();
    assert_eq!(synthesized, 1, "exactly one reply reports running the synthesis");
}

#[test]
fn cache_survives_a_daemon_restart() {
    let path = temp_path("restart");
    let config = || ServiceConfig { cache_path: Some(path.clone()), ..ServiceConfig::default() };
    let (graph, cluster, opts) =
        (tiny_graph(), ClusterSpec::fig17_cluster(), HapOptions::default());

    let cold = {
        let server = Server::start(config()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let reply = client.plan(&graph, &cluster, &opts).unwrap();
        assert_eq!(reply.source, "synthesized");
        reply
        // Server drops here: sockets close, queue drains.
    };
    assert!(path.exists(), "persistence log written");

    let server = Server::start(config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let warm = client.plan(&graph, &cluster, &opts).unwrap();
    assert_eq!(warm.source, "cache", "the restarted daemon answers from disk");
    assert_eq!(warm.fingerprint, cold.fingerprint);
    assert_eq!(warm.program.fingerprint(), cold.program.fingerprint());
    assert_eq!(warm.estimated_time.to_bits(), cold.estimated_time.to_bits());
    assert_eq!(warm.ratios, cold.ratios);
    let stats = server.service().stats();
    assert_eq!(stats.synthesized, 0);
    assert_eq!(stats.hits, 1);

    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn near_miss_seeds_warm_start_from_the_closest_cluster() {
    let server = Server::start(ServiceConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let (graph, opts) = (tiny_graph(), HapOptions::default());

    let a = client.plan(&graph, &ClusterSpec::fig17_cluster(), &opts).unwrap();
    assert_eq!(a.source, "synthesized");
    let b = client.plan(&graph, &ClusterSpec::fig2_cluster(), &opts).unwrap();
    assert_eq!(b.source, "synthesized", "different cluster is a genuine miss");
    let stats = server.service().stats();
    assert_eq!(stats.synthesized, 2);
    assert_eq!(stats.warm_seeded, 1, "the second request must seed from the first: {stats:?}");

    // Warm seeding is an upper bound, not a result override: the plan must
    // match a cold in-process run on the same cluster.
    let local = hap::parallelize(&graph, &ClusterSpec::fig2_cluster(), &opts).unwrap();
    assert_eq!(b.program.fingerprint(), local.program.fingerprint());
    assert_eq!(b.estimated_time.to_bits(), local.estimated_time.to_bits());
}

#[test]
fn replan_after_device_loss_matches_cold_synthesis_bit_for_bit() {
    let server = Server::start(ServiceConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let (graph, cluster, opts) =
        (tiny_graph(), ClusterSpec::fig17_cluster(), HapOptions::default());

    let cold = client.plan(&graph, &cluster, &opts).unwrap();
    assert_eq!(cold.source, "synthesized");

    // One P100 dies; the daemon replans warm from the prior plan.
    let delta = ClusterDelta::device_loss(1, 1);
    let replanned = client.replan(cold.fingerprint, &delta).unwrap();
    assert_eq!(replanned.plan.source, "synthesized");
    assert_ne!(replanned.plan.fingerprint, cold.fingerprint, "new cluster, new fingerprint");

    // The diff names the prior and accounts for every instruction.
    assert_eq!(replanned.diff.prior_fingerprint, cold.fingerprint);
    assert_eq!(replanned.diff.instrs_total, replanned.plan.program.instrs.len());
    assert!(replanned.diff.instrs_total >= replanned.diff.instrs_added);
    assert_eq!(replanned.diff.prior_estimated_time.to_bits(), cold.estimated_time.to_bits());
    assert_eq!(
        replanned.diff.estimated_time_delta.to_bits(),
        (replanned.plan.estimated_time - cold.estimated_time).to_bits()
    );

    // The acceptance bar: warm-seeded replanning is bit-identical to cold
    // synthesis on the post-delta cluster.
    let next_cluster = delta.apply(&cluster).unwrap();
    let local = hap::parallelize(&graph, &next_cluster, &opts).unwrap();
    assert_eq!(replanned.plan.program.fingerprint(), local.program.fingerprint());
    assert_eq!(replanned.plan.estimated_time.to_bits(), local.estimated_time.to_bits());

    // A plain plan for the post-delta cluster now hits the cache with the
    // replan's fingerprint, and the exact same bits.
    let direct = client.plan(&graph, &next_cluster, &opts).unwrap();
    assert_eq!(direct.source, "cache");
    assert_eq!(direct.fingerprint, replanned.plan.fingerprint);
    assert_eq!(direct.program.fingerprint(), replanned.plan.program.fingerprint());

    // Replanning the same delta again is a cache hit with the same diff.
    let again = client.replan(cold.fingerprint, &delta).unwrap();
    assert_eq!(again.plan.source, "cache");
    assert_eq!(again.diff, replanned.diff);

    // Replans chain: the replanned fingerprint is itself replannable.
    let chained =
        client.replan(replanned.plan.fingerprint, &ClusterDelta::device_loss(0, 1)).unwrap();
    assert_eq!(chained.diff.prior_fingerprint, replanned.plan.fingerprint);

    let stats = client.stats().unwrap();
    assert_eq!(stats.replanned, 3, "{stats:?}");
    assert!(stats.warm_seeded >= 1, "the replan must seed from the prior plan: {stats:?}");
}

#[test]
fn replan_of_an_unknown_fingerprint_is_a_typed_error() {
    let server = Server::start(ServiceConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let err = client.replan(0xdead_beef, &ClusterDelta::device_loss(0, 1)).unwrap_err();
    assert_eq!(err.kind, "unknown_fingerprint", "{err}");
    // The connection survives and the daemon counted the error.
    let stats = client.stats().unwrap();
    assert_eq!(stats.replanned, 0);
    assert!(stats.errors >= 1, "{stats:?}");
}

#[test]
fn cluster_emptying_deltas_are_rejected_with_typed_frames() {
    let server = Server::start(ServiceConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let (graph, cluster, opts) =
        (tiny_graph(), ClusterSpec::fig17_cluster(), HapOptions::default());
    let cold = client.plan(&graph, &cluster, &opts).unwrap();

    // Draining a machine to zero GPUs: typed rejection, no panic.
    let err = client.replan(cold.fingerprint, &ClusterDelta::device_loss(0, 2)).unwrap_err();
    assert_eq!(err.kind, "delta", "{err}");
    assert!(err.message.contains("empty machine 0"), "{err}");

    // Emptying the whole cluster.
    let empty = ClusterDelta { remove_machines: vec![0, 1], ..ClusterDelta::default() };
    let err = client.replan(cold.fingerprint, &empty).unwrap_err();
    assert_eq!(err.kind, "delta", "{err}");
    assert!(err.message.contains("empties the cluster"), "{err}");

    // An out-of-range machine index.
    let err = client.replan(cold.fingerprint, &ClusterDelta::device_loss(7, 1)).unwrap_err();
    assert_eq!(err.kind, "delta", "{err}");

    // The daemon is still fully operational.
    let hit = client.plan(&graph, &cluster, &opts).unwrap();
    assert_eq!(hit.source, "cache");
    let stats = client.stats().unwrap();
    assert_eq!(stats.replanned, 0);
    assert!(stats.errors >= 3, "{stats:?}");
}

#[test]
fn errors_travel_as_typed_frames() {
    let server = Server::start(ServiceConfig::default()).unwrap();
    let service = server.service();

    // Unparseable line -> parse error.
    let (response, _) = service.handle_line("this is not json");
    assert!(response.contains("\"ok\":false"));
    assert!(response.contains("\"kind\":\"parse\""));

    // Valid JSON, bad request shape -> decode error.
    let (response, _) = service.handle_line("{\"op\":\"plan\",\"id\":3}");
    assert!(response.contains("\"ok\":false"));
    assert!(response.contains("\"kind\":\"decode\""));
    assert!(response.contains("\"id\":3"));

    // A structurally broken graph fails in the worker and still comes
    // back as a typed frame on the requesting connection.
    let mut client = Client::connect(server.addr()).unwrap();
    let line = "{\"op\":\"plan\",\"id\":9,\"graph\":{\"nodes\":[{\"op\":[\"sum\"],\"in\":[5],\
                \"shape\":[1],\"name\":\"bad\",\"role\":\"loss\",\"seg\":0}]},\"cluster\":null,\
                \"options\":null}";
    let (response, _) = service.handle_line(line);
    assert!(response.contains("\"ok\":false"), "{response}");
    assert!(response.contains("\"kind\":\"decode\""), "{response}");

    // Unknown op.
    let (response, _) = service.handle_line("{\"op\":\"frobnicate\",\"id\":4}");
    assert!(response.contains("unknown op"));

    let stats = client.stats().unwrap();
    assert!(stats.errors >= 3, "{stats:?}");
}

#[test]
fn shutdown_request_stops_the_daemon() {
    let mut server = Server::start(ServiceConfig::default()).unwrap();
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    // The accept loop exits; wait() returns instead of blocking forever.
    server.wait();
    server.shutdown();
}

/// `handle_line` is an adapter over the socket's request path, so the
/// two answer every line with the same bytes: a miss, a hit, a replan, a
/// streamed hit (its frames, one per line), a malformed line and an
/// unknown op, sent to a daemon and to a fresh in-process service alike.
#[test]
fn handle_line_answers_exactly_what_the_socket_sends() {
    use hap_codec::{parse, render_fingerprint, request_fingerprint, Encode, Value};
    use std::io::{BufRead, BufReader, Write};

    let config = ServiceConfig { stream_chunk_bytes: 256, ..ServiceConfig::default() };
    let server = Server::start(config.clone()).unwrap();
    let service = hap_service::PlanService::new(config).unwrap();
    let (graph, cluster, opts) =
        (tiny_graph(), ClusterSpec::fig17_cluster(), HapOptions::default());
    let plan = |id: u64, stream: bool| {
        let mut fields = vec![
            ("op", Value::Str("plan".into())),
            ("id", Value::int(id)),
            ("graph", graph.encode()),
            ("cluster", cluster.encode()),
            ("options", opts.encode()),
        ];
        if stream {
            fields.push(("stream", Value::Bool(true)));
        }
        Value::obj(fields).render()
    };
    let replan = Value::obj(vec![
        ("op", Value::Str("replan".into())),
        ("id", Value::int(3)),
        ("prior", Value::Str(render_fingerprint(request_fingerprint(&graph, &cluster, &opts)))),
        ("delta", ClusterDelta::device_loss(0, 1).encode()),
    ])
    .render();
    let lines = [
        (plan(1, false), "\"source\":\"synthesized\""),
        (plan(2, false), "\"source\":\"cache\""),
        (replan, "\"replan\":"),
        (plan(4, true), "\"done\":true"),
        ("this is not json".to_string(), "\"kind\":\"parse\""),
        ("{\"op\":\"frobnicate\",\"id\":6}".to_string(), "unknown op"),
    ];

    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    for (line, expect) in &lines {
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        // A streamed answer is chunk frames up to a `done` frame.
        let mut frames = Vec::new();
        loop {
            let mut frame = String::new();
            reader.read_line(&mut frame).unwrap();
            frames.push(frame.trim_end_matches('\n').to_string());
            if parse(&frame).unwrap().get("chunk").is_none() {
                break;
            }
        }
        let over_socket = frames.join("\n");
        let (in_process, shutdown) = service.handle_line(line);
        assert!(!shutdown);
        assert!(over_socket.contains(expect), "{over_socket}");
        assert_eq!(in_process, over_socket, "handle_line drifted from the socket on {expect}");
    }
    assert_eq!(service.stats().errors, 2);
    assert_eq!(server.service().stats().errors, 2);
}
