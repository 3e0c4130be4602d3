//! The readiness-driven network core: one event-loop thread serves every
//! connection.
//!
//! The loop owns a [`mini_epoll::Poller`], the nonblocking listener, and
//! every connection's [`Conn`] state. Requests that resolve inline (cache
//! hits, stats, errors, shedding) are answered on the loop thread;
//! anything needing a synthesis is queued to the worker pool with a
//! subscriber that renders the response bytes and pushes them onto the
//! loop's completion queue, then wakes the loop through the poller's wake
//! pipe. No thread ever blocks on another request's work: total daemon
//! threads = 1 (loop) + worker pool, independent of connection count.
//!
//! Shutdown takes the same wake path. [`Server::shutdown`] sets the stop
//! flag and wakes the loop — no throwaway connection needed to unblock an
//! `accept()` (the PR-4 design's wart). A client-initiated `shutdown`
//! verb instead *drains*: the listener is deregistered, pending responses
//! (including queued syntheses) are flushed, and the loop exits once
//! every connection is quiet or a drain deadline passes.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hap_codec::WireError;
use hap_telemetry::{Outcome, SpanKind, Verb};
use mini_epoll::{Event, Interest, Poller, Waker, WAKE_TOKEN};

use crate::config::ServiceConfig;
use crate::net::conn::{Conn, Frame, ReadOutcome};
use crate::service::{PlanService, Submission};
use crate::stats::NetGauges;
use crate::telemetry::PendingTrace;

/// Token of the listening socket.
const LISTEN_TOKEN: u64 = 0;
/// How often the loop re-checks the stop flag even with no events and no
/// waker (a safety net; the waker makes stop effectively immediate).
const STOP_POLL_MS: u64 = 500;
/// How long a `shutdown`-verb drain waits for in-flight syntheses to
/// resolve and flush before giving up.
const DRAIN_DEADLINE_MS: u64 = 10_000;

/// One response completed by a worker: `(connection token, slot sequence,
/// rendered bytes, request trace awaiting its flush span)`.
type Completion = (u64, u64, Vec<u8>, Option<PendingTrace>);

/// State shared between the loop thread, the workers' deliver callbacks,
/// and the [`Server`] handle.
struct LoopShared {
    stop: AtomicBool,
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl LoopShared {
    fn deliver(&self, token: u64, seq: u64, bytes: Vec<u8>, trace: Option<PendingTrace>) {
        crate::sync::lock_recover(&self.completions).push((token, seq, bytes, trace));
        self.waker.wake();
    }
}

/// A running daemon bound to a TCP port.
pub struct Server {
    service: Arc<PlanService>,
    addr: SocketAddr,
    shared: Arc<LoopShared>,
    loop_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the configured address and starts the event loop.
    pub fn start(config: ServiceConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let service =
            Arc::new(PlanService::new(config).map_err(|e| io::Error::other(e.to_string()))?);
        let poller = Poller::new()?;
        poller.add(&listener, LISTEN_TOKEN, Interest::READ)?;
        let shared = Arc::new(LoopShared {
            stop: AtomicBool::new(false),
            completions: Mutex::new(Vec::new()),
            waker: poller.waker(),
        });
        let loop_thread = {
            let service = service.clone();
            let shared = shared.clone();
            std::thread::spawn(move || {
                EventLoop::new(poller, listener, service, shared).run();
            })
        };
        Ok(Server { service, addr, shared, loop_thread: Some(loop_thread) })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The in-process service (tests and benches reach stats directly).
    pub fn service(&self) -> &PlanService {
        &self.service
    }

    /// Total daemon threads: the event loop plus the synthesis worker
    /// pool. Notably *not* a function of connection count.
    pub fn thread_count(&self) -> usize {
        1 + self.service.worker_count()
    }

    /// Blocks until the event loop exits — i.e. until some client sends a
    /// `shutdown` request (the `hap-serve` main loop). Queued syntheses
    /// are drained before the loop exits; workers are joined by
    /// [`Server::shutdown`]/drop afterwards.
    pub fn wait(&mut self) {
        if let Some(handle) = self.loop_thread.take() {
            let _ = handle.join();
        }
    }

    /// Stops the event loop (through the wake pipe — no connection
    /// required), joins it, and drains the synthesis queue. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&mut self) {
        if !self.shared.stop.swap(true, Ordering::SeqCst) {
            self.shared.waker.wake();
        }
        if let Some(handle) = self.loop_thread.take() {
            let _ = handle.join();
        }
        self.service.stop();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A registered connection plus the interest currently armed for it (so
/// the loop only issues `poller.modify` when the desired interest actually
/// changes).
struct Entry {
    conn: Conn<TcpStream>,
    armed: Interest,
    /// When the connection was accepted (telemetry clock; 0 = disabled).
    accept_nanos: u64,
    /// Where the next request's `frame` span starts: the accept time for
    /// the first request, then the end of the previous frame — pipelined
    /// requests split the wire time between them instead of overlapping.
    frame_anchor: u64,
    /// Traces awaiting their `flush` span, keyed by output-slot sequence:
    /// `(response fulfill time, trace)`. Sealed by `service_conn` when the
    /// response's last byte leaves; dropped with the connection.
    traces: HashMap<u64, (u64, PendingTrace)>,
}

struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    service: Arc<PlanService>,
    shared: Arc<LoopShared>,
    gauges: Arc<NetGauges>,
    conns: HashMap<u64, Entry>,
    next_token: u64,
    /// `Some(deadline)` once a `shutdown` verb arrived: stop accepting,
    /// flush everything, exit by the deadline at the latest.
    draining: Option<Instant>,
    last_sweep: Instant,
}

impl EventLoop {
    fn new(
        poller: Poller,
        listener: TcpListener,
        service: Arc<PlanService>,
        shared: Arc<LoopShared>,
    ) -> EventLoop {
        let gauges = service.net_gauges();
        EventLoop {
            poller,
            listener,
            service,
            shared,
            gauges,
            conns: HashMap::new(),
            next_token: LISTEN_TOKEN + 1,
            draining: None,
            last_sweep: Instant::now(),
        }
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            if let Some(deadline) = self.draining {
                let quiet = self
                    .conns
                    .values()
                    .all(|e| !e.conn.out.has_flushable() && !e.conn.out.has_waiting());
                if quiet || Instant::now() >= deadline {
                    break;
                }
            }
            let timeout = self.wait_timeout();
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                // A failed wait is not recoverable in a useful way;
                // treat it as a stop so the daemon exits cleanly rather
                // than spinning.
                break;
            }
            // Completions first: a worker may have woken us, and the
            // fulfilled slots should flush in this same iteration.
            self.drain_completions();
            for ev in events.drain(..) {
                match ev.token {
                    WAKE_TOKEN => {} // completions already drained
                    LISTEN_TOKEN => self.accept_ready(),
                    token => self.conn_ready(token, ev),
                }
            }
            self.sweep_idle();
        }
        // Loop exit: deregister and drop everything. Workers keep
        // running until PlanService::stop joins them.
        for (_, entry) in self.conns.drain() {
            let _ = self.poller.remove(&entry.conn.stream);
        }
        if self.draining.is_none() {
            let _ = self.poller.remove(&self.listener);
        }
    }

    /// The poll timeout: the stop-poll safety interval, tightened while
    /// idle sweeping or draining needs finer ticks.
    fn wait_timeout(&self) -> Duration {
        let idle = self.service.config().idle_timeout_ms;
        Duration::from_millis(poll_tick_ms(idle, self.draining.is_some()))
    }

    fn drain_completions(&mut self) {
        let done: Vec<Completion> = {
            let mut queue = crate::sync::lock_recover(&self.shared.completions);
            std::mem::take(&mut *queue)
        };
        let mut touched: Vec<u64> = Vec::with_capacity(done.len());
        for (token, seq, bytes, trace) in done {
            // The connection may have died while its synthesis ran; its
            // response (and trace) is simply dropped.
            if let Some(entry) = self.conns.get_mut(&token) {
                entry.conn.out.fulfill(seq, bytes);
                if let Some(pt) = trace {
                    let fulfilled = self.service.telemetry().now();
                    entry.traces.insert(seq, (fulfilled, pt));
                }
                touched.push(token);
            }
        }
        for token in touched {
            self.service_conn(token);
        }
    }

    fn accept_ready(&mut self) {
        if self.draining.is_some() {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // No Nagle delay: a response written while the previous
                    // one is unacknowledged must not wait for the client's
                    // delayed ACK (peer links in `peer.rs` do the same).
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self.poller.add(&stream, token, Interest::READ).is_err() {
                        continue;
                    }
                    let max_line = self.service.config().max_line_bytes;
                    let accepted = self.service.telemetry().now();
                    self.conns.insert(
                        token,
                        Entry {
                            conn: Conn::new(stream, max_line),
                            armed: Interest::READ,
                            accept_nanos: accepted,
                            frame_anchor: accepted,
                            traces: HashMap::new(),
                        },
                    );
                    let open = self.gauges.open_connections.fetch_add(1, Ordering::Relaxed) + 1;
                    NetGauges::raise(&self.gauges.peak_connections, open);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient per-connection accept failures (ECONNABORTED,
                // EMFILE under fd pressure): drop and keep serving.
                Err(_) => return,
            }
        }
    }

    fn conn_ready(&mut self, token: u64, ev: Event) {
        let Some(entry) = self.conns.get_mut(&token) else { return };
        let mut frames: Vec<Frame> = Vec::new();
        let mut dead = false;
        if (ev.readable || ev.hangup) && !entry.conn.paused_reads {
            match entry.conn.read_step(&mut frames) {
                ReadOutcome::Open => {}
                ReadOutcome::Closed => dead = true,
            }
        }
        // Process complete frames even when the peer half-closed: a
        // client may pipeline requests and shut down its write side.
        for frame in frames {
            if self.handle_frame(token, frame) {
                // Shutdown verb: begin draining. Remaining frames on this
                // connection still process (they were already accepted).
                if self.draining.is_none() {
                    self.draining = Some(Instant::now() + Duration::from_millis(DRAIN_DEADLINE_MS));
                    let _ = self.poller.remove(&self.listener);
                }
            }
        }
        if dead {
            self.close_conn(token, false);
            return;
        }
        self.service_conn(token);
    }

    /// Handles one framed request; returns true when it was a `shutdown`.
    fn handle_frame(&mut self, token: u64, frame: Frame) -> bool {
        let Some(entry) = self.conns.get_mut(&token) else { return false };
        let telemetry = self.service.telemetry().clone();
        match frame {
            Frame::Line(line) => {
                if line.trim().is_empty() {
                    return false;
                }
                entry.conn.last_activity = Instant::now();
                // Open this request's trace with the transport-side
                // spans; the service adds the rest and hands the trace
                // back for sealing once the response flushes.
                let now = telemetry.now();
                let mut tb = telemetry.builder();
                if let Some(tb) = tb.as_mut() {
                    tb.span(SpanKind::Accept, entry.accept_nanos, entry.accept_nanos);
                    tb.span(SpanKind::Frame, entry.frame_anchor.min(now), now);
                }
                entry.frame_anchor = now;
                let seq = entry.conn.out.reserve();
                let shared = self.shared.clone();
                let deliver = Box::new(move |bytes: Vec<u8>, trace: Option<PendingTrace>| {
                    shared.deliver(token, seq, bytes, trace)
                });
                match self.service.submit(&line, tb, deliver) {
                    Submission::Ready { bytes, shutdown, trace } => {
                        // Re-borrow: submit may have run a subscriber.
                        if let Some(entry) = self.conns.get_mut(&token) {
                            entry.conn.out.fulfill(seq, bytes);
                            if let Some(pt) = trace {
                                entry.traces.insert(seq, (telemetry.now(), pt));
                            }
                        }
                        shutdown
                    }
                    Submission::Pending => false,
                }
            }
            Frame::Oversized { limit } => {
                entry.conn.last_activity = Instant::now();
                let err = WireError::new(
                    "oversize",
                    format!("request line exceeds the {limit}-byte limit"),
                );
                let bytes = self.service.render_error(0, &err);
                Self::push_error_frame(entry, &telemetry, bytes);
                false
            }
            Frame::Malformed => {
                entry.conn.last_activity = Instant::now();
                let err = WireError::new("parse", "request line is not valid UTF-8");
                let bytes = self.service.render_error(0, &err);
                Self::push_error_frame(entry, &telemetry, bytes);
                false
            }
        }
    }

    /// Queues an error response for a frame that never became a request
    /// (oversized, malformed), tracing it under the `invalid` verb.
    fn push_error_frame(
        entry: &mut Entry,
        telemetry: &crate::telemetry::Telemetry,
        bytes: Vec<u8>,
    ) {
        let seq = entry.conn.out.push_ready(bytes);
        if let Some(mut builder) = telemetry.builder() {
            builder.set_request(0, Verb::Invalid);
            let now = telemetry.now();
            builder.span(SpanKind::Frame, entry.frame_anchor.min(now), now);
            entry.frame_anchor = now;
            let pending = PendingTrace { builder, outcome: Outcome::Error };
            entry.traces.insert(seq, (now, pending));
        }
    }

    /// Post-activity connection maintenance: flush what can flush, apply
    /// write backpressure to reads, re-arm interest, update gauges, and
    /// close once a draining connection empties.
    fn service_conn(&mut self, token: u64) {
        let Some(entry) = self.conns.get_mut(&token) else { return };
        if entry.conn.out.has_flushable() {
            match entry.conn.write_step() {
                Ok(_) => {}
                Err(_) => {
                    self.close_conn(token, false);
                    return;
                }
            }
        }
        let entry = self.conns.get_mut(&token).expect("entry still present");
        // Seal the traces of every response whose last byte just left:
        // their `flush` span runs from fulfillment to write completion.
        for seq in entry.conn.out.drain_flushed() {
            if let Some((fulfilled, mut pending)) = entry.traces.remove(&seq) {
                let now = self.service.telemetry().now();
                pending.builder.span(SpanKind::Flush, fulfilled, now);
                self.service.telemetry().finish_pending(pending);
            }
        }
        let cap = self.service.config().write_buffer_cap;
        let pending = entry.conn.out.pending_bytes();
        if entry.conn.paused_reads {
            if pending <= cap / 2 {
                entry.conn.paused_reads = false;
            }
        } else if cap > 0 && pending > cap {
            entry.conn.paused_reads = true;
        }
        NetGauges::raise(&self.gauges.read_buf_hwm, entry.conn.framer.read_hwm() as u64);
        NetGauges::raise(&self.gauges.write_buf_hwm, entry.conn.out.write_hwm() as u64);
        if entry.conn.closing && !entry.conn.out.has_flushable() && !entry.conn.out.has_waiting() {
            self.close_conn(token, false);
            return;
        }
        let want = Interest {
            readable: !entry.conn.paused_reads && !entry.conn.closing,
            writable: entry.conn.out.has_flushable(),
        };
        if want != entry.armed && self.poller.modify(&entry.conn.stream, token, want).is_ok() {
            entry.armed = want;
        }
    }

    /// Closes connections that have gone `idle_timeout_ms` without a
    /// complete request. Connections with work in flight (a queued
    /// synthesis, unflushed bytes) are never idle — their clock is the
    /// drain deadline, not the idle sweep.
    fn sweep_idle(&mut self) {
        let idle_ms = self.service.config().idle_timeout_ms;
        if idle_ms == 0 {
            return;
        }
        let interval = Duration::from_millis(sweep_interval_ms(idle_ms));
        if self.last_sweep.elapsed() < interval {
            return;
        }
        self.last_sweep = Instant::now();
        let timeout = Duration::from_millis(idle_ms);
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, e)| {
                e.conn.last_activity.elapsed() > timeout
                    && !e.conn.out.has_waiting()
                    && !e.conn.out.has_flushable()
            })
            .map(|(&t, _)| t)
            .collect();
        for token in expired {
            self.close_conn(token, true);
        }
    }

    fn close_conn(&mut self, token: u64, idle: bool) {
        if let Some(entry) = self.conns.remove(&token) {
            let _ = self.poller.remove(&entry.conn.stream);
            self.gauges.open_connections.fetch_sub(1, Ordering::Relaxed);
            if idle {
                self.gauges.idle_closed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The idle-sweep cadence for a given `idle_timeout_ms`: a quarter of the
/// timeout, clamped to `[10, 1000]` ms. One shared computation for both
/// the sweep itself and the poll tick — the two previously diverged
/// (`(idle / 4).max(10)` vs `(idle / 4).clamp(10, 1_000)`), leaving the
/// tick free to outsleep the intended 1 s sweep cadence at large timeouts
/// and land idle closes late.
fn sweep_interval_ms(idle_ms: u64) -> u64 {
    (idle_ms / 4).clamp(10, 1_000)
}

/// The poll tick: the stop-poll safety interval, tightened to the sweep
/// cadence when idle sweeping is on and to 20 ms while draining. Always
/// at most `sweep_interval_ms`, so a quiescent loop wakes often enough to
/// run every scheduled sweep on time.
fn poll_tick_ms(idle_timeout_ms: u64, draining: bool) -> u64 {
    let mut ms = STOP_POLL_MS;
    if idle_timeout_ms > 0 {
        ms = ms.min(sweep_interval_ms(idle_timeout_ms));
    }
    if draining {
        ms = ms.min(20);
    }
    ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_tick_never_outsleeps_the_sweep_interval() {
        // Across tiny, moderate, and huge timeouts (including the 300 s
        // default), one tick always fits inside one sweep interval.
        for idle_ms in [1, 40, 200, 2_000, 4_000, 4_100, 60_000, 300_000, u64::MAX] {
            let tick = poll_tick_ms(idle_ms, false);
            let interval = sweep_interval_ms(idle_ms);
            assert!(tick <= interval, "idle {idle_ms}: tick {tick} > interval {interval}");
            assert!(tick <= STOP_POLL_MS, "idle {idle_ms}: tick {tick} over the stop poll");
            assert!((10..=1_000).contains(&interval), "idle {idle_ms}: interval {interval}");
        }
    }

    #[test]
    fn sweep_interval_is_a_quarter_of_the_timeout_clamped() {
        assert_eq!(sweep_interval_ms(0), 10);
        assert_eq!(sweep_interval_ms(40), 10);
        assert_eq!(sweep_interval_ms(200), 50);
        assert_eq!(sweep_interval_ms(4_000), 1_000);
        assert_eq!(sweep_interval_ms(60_000), 1_000);
    }

    #[test]
    fn disabled_idle_and_draining_ticks() {
        assert_eq!(poll_tick_ms(0, false), STOP_POLL_MS);
        assert_eq!(poll_tick_ms(0, true), 20);
        assert_eq!(poll_tick_ms(300_000, true), 20);
    }

    #[test]
    fn accepted_connections_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let config = ServiceConfig { workers: 1, ..ServiceConfig::default() };
        let service = Arc::new(PlanService::new(config).unwrap());
        let poller = Poller::new().unwrap();
        let shared = Arc::new(LoopShared {
            stop: AtomicBool::new(false),
            completions: Mutex::new(Vec::new()),
            waker: poller.waker(),
        });
        let mut event_loop = EventLoop::new(poller, listener, service, shared);
        let _client = TcpStream::connect(addr).unwrap();
        let t0 = Instant::now();
        while event_loop.conns.is_empty() {
            assert!(t0.elapsed() < Duration::from_secs(10), "the connection was never accepted");
            std::thread::sleep(Duration::from_millis(1));
            event_loop.accept_ready();
        }
        assert_eq!(event_loop.conns.len(), 1);
        for entry in event_loop.conns.values() {
            assert!(entry.conn.stream.nodelay().unwrap());
        }
    }
}
