//! Load generation over real sockets: closed loops (send the next request
//! once the previous response arrived) and an open loop (send on a
//! Poisson schedule regardless). Each request is timed from its send — or,
//! in the open loop, from its scheduled time — to the last byte of its
//! response, and every response goes through the [`Checker`].

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hap_cluster::ClusterDelta;
use hap_codec::UNKNOWN_FINGERPRINT_KIND;

use crate::check::{Checker, Problem};
use crate::daemon::Conn;
use crate::gen::{replan_line, PlanRequest};

/// Busy frames are retried this many times, honoring `retry_after_ms`,
/// before the request counts as failed.
const BUSY_RETRIES: u32 = 5;

/// A replan that falls back to a cold `plan` answers under this id bit, so
/// its bytes are never compared with the replan slot's own hits.
const FALLBACK_ID: u64 = 1 << 40;

/// What a request asks for.
pub enum Kind {
    Plan(Arc<PlanRequest>),
    /// A `replan`, answered by a plan for this rebased request.
    Replan(Arc<PlanRequest>),
}

/// Request classes, for per-class latency breakdowns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Hot,
    Cold,
    OneOff,
    Replan,
}

/// One request ready to send.
pub struct Op {
    pub id: u64,
    pub line: Vec<u8>,
    pub kind: Kind,
    pub class: Class,
}

impl Op {
    pub fn plan(id: u64, req: Arc<PlanRequest>, class: Class) -> Op {
        Op { id, line: req.line(id).into_bytes(), kind: Kind::Plan(req), class }
    }

    pub fn replan(id: u64, prior: &PlanRequest, delta: &ClusterDelta) -> Op {
        let line = replan_line(id, prior.fingerprint, delta).into_bytes();
        Op { id, line, kind: Kind::Replan(Arc::new(prior.rebased(delta))), class: Class::Replan }
    }

    /// The request the response must answer.
    pub fn answers(&self) -> &Arc<PlanRequest> {
        match &self.kind {
            Kind::Plan(req) | Kind::Replan(req) => req,
        }
    }
}

/// One completed request.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Seconds from send (or due time) to the response's last byte.
    pub latency: f64,
    pub class: Class,
    /// The response's `source` (`cache`, `synthesized`, `coalesced`).
    pub source: String,
    /// The fingerprint of the request that was answered.
    pub fingerprint: u64,
    pub request_bytes: usize,
    pub response_bytes: usize,
}

/// What one load thread observed.
#[derive(Default)]
pub struct Tally {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// Replans answered `unknown_fingerprint` and re-sent as cold plans.
    pub fallbacks: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.fallbacks += other.fallbacks;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    pub fn latencies(&self, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
        self.samples.iter().filter(|s| keep(s)).map(|s| s.latency).collect()
    }
}

/// Sends `op` and waits for its answer: busy frames are retried after the
/// daemon's hint, and a replan of a prior the daemon no longer holds falls
/// back to a cold plan of the rebased request, as a real tenant would.
pub fn execute(conn: &mut Conn, op: &Op, checker: &Mutex<Checker>, tally: &mut Tally) {
    tally.attempted += 1;
    let start = Instant::now();
    let mut fallback: Option<Vec<u8>> = None;
    let mut busy = 0;
    loop {
        let (id, line) = match &fallback {
            Some(line) => (op.id | FALLBACK_ID, line.as_slice()),
            None => (op.id, op.line.as_slice()),
        };
        let response = match conn.call(line) {
            Ok(response) => response,
            Err(e) => return tally.fail(format!("{}: connection failed: {e}", op.answers().label)),
        };
        // The clock stops at the response's last byte: checking it is the
        // benchmark's work, not the daemon's.
        let done = Instant::now();
        let replan = matches!(op.kind, Kind::Replan(_)) && fallback.is_none();
        let verdict =
            checker.lock().expect("checker lock").check(id, &response, op.answers(), replan);
        match verdict {
            Ok(source) => {
                tally.samples.push(Sample {
                    latency: (done - start).as_secs_f64(),
                    class: op.class,
                    source,
                    fingerprint: op.answers().fingerprint,
                    request_bytes: line.len() + 1,
                    response_bytes: response.len() + 1,
                });
                return;
            }
            Err(Problem::Frame(frame)) if frame.is_busy() && busy < BUSY_RETRIES => {
                busy += 1;
                std::thread::sleep(Duration::from_millis(frame.retry_after_ms.unwrap_or(25)));
            }
            Err(Problem::Frame(frame)) if replan && frame.kind == UNKNOWN_FINGERPRINT_KIND => {
                tally.fallbacks += 1;
                fallback = Some(op.answers().line(op.id | FALLBACK_ID).into_bytes());
            }
            Err(Problem::Frame(frame)) => {
                return tally.fail(format!("{}: {frame}", op.answers().label));
            }
            Err(Problem::Invalid(message)) => return tally.fail(message),
        }
    }
}

/// Runs `next()`'s requests back to back until `until`.
pub fn closed_loop<'a>(
    conn: &mut Conn,
    mut next: impl FnMut() -> &'a Op,
    until: Instant,
    checker: &Mutex<Checker>,
) -> Tally {
    let mut tally = Tally::default();
    while Instant::now() < until {
        execute(conn, next(), checker, &mut tally);
    }
    tally
}

/// Sends `schedule`'s requests at their due times (seconds after `t0`)
/// without waiting for earlier responses; responses arrive in request
/// order on the connection. Returns the tally and how late each send was.
pub fn open_loop(
    conn: &mut Conn,
    ops: &[Op],
    schedule: &[(f64, usize)],
    t0: Instant,
    checker: &Mutex<Checker>,
) -> (Tally, Vec<f64>) {
    let mut tally = Tally::default();
    let mut lateness = Vec::with_capacity(schedule.len());
    let mut pending: VecDeque<(Instant, usize)> = VecDeque::new();
    let mut next = 0;
    loop {
        let response = if let Some(&(offset, op)) = schedule.get(next) {
            let due = t0 + Duration::from_secs_f64(offset);
            let now = Instant::now();
            if now >= due {
                if let Err(e) = conn.send(&ops[op].line) {
                    tally.fail(format!("send failed: {e}"));
                    break;
                }
                tally.attempted += 1;
                lateness.push((now - due).as_secs_f64());
                pending.push_back((due, op));
                next += 1;
                continue;
            }
            conn.recv_until(due)
        } else if pending.is_empty() {
            break;
        } else {
            conn.recv().map(Some)
        };
        let line = match response {
            Ok(Some(line)) => line,
            Ok(None) => continue,
            Err(e) => {
                tally.fail(format!("receive failed: {e}"));
                break;
            }
        };
        let done = Instant::now();
        let Some((due, op)) = pending.pop_front() else {
            tally.fail("a response arrived for no request".into());
            break;
        };
        let op = &ops[op];
        match checker.lock().expect("checker lock").check(op.id, &line, op.answers(), false) {
            Ok(source) => tally.samples.push(Sample {
                latency: (done - due).as_secs_f64(),
                class: op.class,
                source,
                fingerprint: op.answers().fingerprint,
                request_bytes: op.line.len() + 1,
                response_bytes: line.len() + 1,
            }),
            Err(Problem::Frame(frame)) => tally.fail(format!("{}: {frame}", op.answers().label)),
            Err(Problem::Invalid(message)) => tally.fail(message),
        }
    }
    // Requests never answered count as failed.
    for _ in pending.drain(..) {
        tally.fail("request left unanswered".into());
    }
    (tally, lateness)
}
