//! Wire-level tests of the event-loop transport over real loopback
//! sockets: pipelining, oversize rejection, malformed input, idle
//! timeouts, prompt external shutdown, and streaming byte-identity.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use hap::HapOptions;
use hap_cluster::ClusterSpec;
use hap_codec::{is_stream_frame, parse, Encode, StreamDecoder, StreamEvent, Value};
use hap_models::{mlp, MlpConfig};
use hap_service::{Client, Server, ServiceConfig};

fn tiny_graph() -> hap_graph::Graph {
    mlp(&MlpConfig::tiny())
}

/// The canonical plan request line, optionally advertising streaming.
fn plan_line(id: u64, stream: bool) -> String {
    let mut fields = vec![
        ("op", Value::Str("plan".into())),
        ("id", Value::int(id)),
        ("graph", tiny_graph().encode()),
        ("cluster", ClusterSpec::fig17_cluster().encode()),
        ("options", HapOptions::default().encode()),
    ];
    if stream {
        fields.push(("stream", Value::Bool(true)));
    }
    Value::obj(fields).render()
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("read response line");
    assert!(n > 0, "server closed the connection unexpectedly");
    line.trim_end().to_string()
}

#[test]
fn pipelined_requests_on_one_connection_answer_in_request_order() {
    let server = Server::start(ServiceConfig::default()).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // One write carrying four interleaved requests (plus a blank line,
    // which must be skipped without producing a response): a plan (slow —
    // synthesized by a worker), a stats (answered inline), the same plan
    // again (coalesces or hits), another stats. Responses must come back
    // in request order even though the inline answers resolve first.
    let batch = format!(
        "{}\n{}\n\n{}\n{}\n",
        plan_line(1, false),
        "{\"op\":\"stats\",\"id\":2}",
        plan_line(3, false),
        "{\"op\":\"stats\",\"id\":4}",
    );
    writer.write_all(batch.as_bytes()).unwrap();
    writer.flush().unwrap();

    let mut plan_renderings = Vec::new();
    for expected_id in 1..=4u64 {
        let line = read_line(&mut reader);
        let v = parse(&line).unwrap();
        assert_eq!(v.field("id").unwrap().as_u64().unwrap(), expected_id, "{line}");
        assert!(v.field("ok").unwrap().as_bool().unwrap(), "{line}");
        if v.get("plan").is_some() {
            // Everything but the id must be byte-identical between the
            // two plan responses... except the source, which legitimately
            // differs (synthesized vs coalesced/cache). Compare the plan
            // payloads.
            plan_renderings.push(v.field("plan").unwrap().render());
        }
    }
    assert_eq!(plan_renderings.len(), 2);
    assert_eq!(plan_renderings[0], plan_renderings[1], "pipelined plans bit-identical");
}

#[test]
fn oversize_line_gets_a_typed_error_and_the_connection_survives() {
    let config = ServiceConfig { max_line_bytes: 1024, ..ServiceConfig::default() };
    let server = Server::start(config).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // A 64 KiB line against a 1 KiB cap.
    let mut giant = vec![b'{'; 64 * 1024];
    giant.push(b'\n');
    writer.write_all(&giant).unwrap();
    writer.flush().unwrap();
    let line = read_line(&mut reader);
    assert!(line.contains("\"ok\":false"), "{line}");
    assert!(line.contains("\"kind\":\"oversize\""), "{line}");

    // The connection is still usable.
    writer.write_all(b"{\"op\":\"stats\",\"id\":9}\n").unwrap();
    writer.flush().unwrap();
    let line = read_line(&mut reader);
    assert!(line.contains("\"id\":9"), "{line}");
    assert!(line.contains("\"ok\":true"), "{line}");
    assert!(line.contains("\"errors\":1"), "oversize counted as an error: {line}");
}

#[test]
fn invalid_utf8_gets_a_typed_parse_error_and_the_connection_survives() {
    let server = Server::start(ServiceConfig::default()).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    writer.write_all(b"\xff\xfe\xfd not utf8\n").unwrap();
    writer.flush().unwrap();
    let line = read_line(&mut reader);
    assert!(line.contains("\"ok\":false"), "{line}");
    assert!(line.contains("\"kind\":\"parse\""), "{line}");

    writer.write_all(b"{\"op\":\"stats\",\"id\":5}\n").unwrap();
    writer.flush().unwrap();
    let line = read_line(&mut reader);
    assert!(line.contains("\"id\":5") && line.contains("\"ok\":true"), "{line}");
}

#[test]
fn idle_connections_are_swept_after_the_timeout() {
    let config = ServiceConfig { idle_timeout_ms: 200, ..ServiceConfig::default() };
    let server = Server::start(config).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // The daemon must close the quiet connection: the blocking read
    // returns EOF rather than timing out.
    let mut buf = [0u8; 64];
    let n = stream.read(&mut buf).expect("clean EOF, not a reset");
    assert_eq!(n, 0, "idle connection closed by the sweep");

    let mut client = Client::connect(server.addr()).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.idle_closed >= 1, "{stats:?}");
    assert_eq!(stats.open_connections, 1, "only this stats connection remains: {stats:?}");
}

#[test]
fn idle_sweep_stays_prompt_at_a_large_timeout() {
    // Regression: the poll tick used `(idle / 4).max(10)` while the sweep
    // used `(idle / 4).clamp(10, 1000)`; past 4 s of idle timeout the two
    // diverged, so a quiescent loop could miss the intended 1 s sweep
    // cadence and close idle connections late. With the shared interval,
    // a 4.1 s timeout must close within timeout + ~2 sweep intervals.
    let config = ServiceConfig { idle_timeout_ms: 4_100, ..ServiceConfig::default() };
    let server = Server::start(config).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();

    let started = Instant::now();
    let mut buf = [0u8; 64];
    let n = stream.read(&mut buf).expect("clean EOF, not a reset");
    let elapsed = started.elapsed();
    assert_eq!(n, 0, "idle connection closed by the sweep");
    assert!(elapsed >= Duration::from_millis(4_000), "closed early: {elapsed:?}");
    assert!(
        elapsed < Duration::from_millis(4_100 + 2_500),
        "sweep landed late at a large timeout: {elapsed:?}"
    );
}

#[test]
fn external_shutdown_is_prompt_without_any_connection() {
    // Regression: shutting down a quiesced daemon must not require a new
    // connection to unblock `accept()` — the stop flag travels through
    // the poller's wake pipe. Bound: well under the 500 ms stop-poll
    // safety interval (the waker makes it effectively immediate).
    let mut server = Server::start(ServiceConfig::default()).unwrap();
    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "shutdown took {:?}",
        started.elapsed()
    );
}

#[test]
fn streamed_response_reassembles_byte_identical_to_the_plain_line() {
    // A tiny chunk size forces a real multi-chunk stream.
    let config = ServiceConfig { stream_chunk_bytes: 256, ..ServiceConfig::default() };
    let server = Server::start(config).unwrap();

    // Warm the cache so both raw requests below are cache-sourced and
    // their canonical lines are byte-comparable.
    let mut client = Client::connect(server.addr()).unwrap();
    let warm =
        client.plan(&tiny_graph(), &ClusterSpec::fig17_cluster(), &HapOptions::default()).unwrap();
    assert_eq!(warm.source, "synthesized");

    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // Same id for both requests: the canonical line embeds the id, so
    // byte-equality requires it to match.
    writer.write_all(plan_line(7, false).as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let plain = read_line(&mut reader);
    assert!(plain.contains("\"source\":\"cache\""), "{plain}");

    writer.write_all(plan_line(7, true).as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut decoder = StreamDecoder::new(7);
    let reassembled = loop {
        let line = read_line(&mut reader);
        let frame = parse(&line).unwrap();
        assert!(is_stream_frame(&frame), "expected a stream frame, got {line}");
        match decoder.feed(&frame).unwrap() {
            StreamEvent::Chunk => continue,
            StreamEvent::Done(payload) => break payload,
        }
    };
    assert!(decoder.chunks() > 1, "response must actually arrive chunked");
    assert_eq!(reassembled, plain, "stream payload is the canonical response line");

    // The high-level client path agrees bit for bit with the plain path.
    client.set_stream(true);
    let via_client =
        client.plan(&tiny_graph(), &ClusterSpec::fig17_cluster(), &HapOptions::default()).unwrap();
    assert!(client.stream_chunks() > 1);
    assert_eq!(via_client.source, "cache");
    assert_eq!(via_client.program.fingerprint(), warm.program.fingerprint());
    assert_eq!(via_client.estimated_time.to_bits(), warm.estimated_time.to_bits());
    assert_eq!(via_client.ratios, warm.ratios);
}

#[test]
fn streaming_errors_arrive_as_plain_frames() {
    let server = Server::start(ServiceConfig::default()).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // A malformed plan request that advertises streaming still fails as
    // one plain typed frame — clients must be able to fail fast.
    writer.write_all(b"{\"op\":\"plan\",\"id\":11,\"stream\":true}\n").unwrap();
    writer.flush().unwrap();
    let line = read_line(&mut reader);
    let v = parse(&line).unwrap();
    assert!(!is_stream_frame(&v), "{line}");
    assert!(line.contains("\"ok\":false") && line.contains("\"id\":11"), "{line}");
}
