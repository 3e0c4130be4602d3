//! Checks every served plan from outside the daemon.
//!
//! The first response per request fingerprint, and every `replan`
//! response, is decoded and validated: the program is complete for the
//! graph, every ratio row is non-negative and sums to 1, and replaying
//! `estimate_time` on the collective profile the optimizer builds gives
//! the served `estimated_time` bit for bit. Every later hit on a request
//! slot must be byte-identical to that slot's first hit.

use std::collections::HashMap;

use hap_balancer::estimate_time;
use hap_baselines::{build_baseline, Baseline};
use hap_codec::{parse, parse_fingerprint, Decode, Value, WireError};
use hap_collectives::{profile_collectives, CommProfile, GroundTruthNet, NetworkParams};
use hap_simulator::{simulate_time, SimOptions};
use hap_synthesis::fingerprint::{fnv1a_bytes, FNV_OFFSET};
use hap_synthesis::{DistProgram, ShardingRatios};

use crate::gen::PlanRequest;

/// A plan as the daemon served it.
#[derive(Clone, Debug)]
pub struct ServedPlan {
    pub program: DistProgram,
    pub ratios: ShardingRatios,
    pub estimated_time: f64,
    pub rounds: usize,
}

/// A decoded successful `plan`/`replan` response.
pub struct PlanReply {
    pub fingerprint: u64,
    pub source: String,
    pub plan: ServedPlan,
}

/// A response line: a plan or a typed error frame.
pub enum Reply {
    Plan(PlanReply),
    Error(WireError),
}

/// Decodes a response line; `Err` means the line is not a well-formed
/// plan or error frame.
pub fn parse_reply(line: &[u8]) -> Result<Reply, String> {
    let text = std::str::from_utf8(line).map_err(|e| format!("response is not UTF-8: {e}"))?;
    let v = parse(text).map_err(|e| e.to_string())?;
    let ok = v.field("ok").and_then(Value::as_bool).map_err(|e| e.to_string())?;
    if !ok {
        let frame = v.field("error").map_err(|e| e.to_string())?;
        return WireError::decode(frame).map(Reply::Error).map_err(|e| e.to_string());
    }
    let decode = || -> Result<PlanReply, hap_codec::CodecError> {
        let plan = v.field("plan")?;
        Ok(PlanReply {
            fingerprint: parse_fingerprint(v.field("fingerprint")?.as_str()?)?,
            source: v.field("source")?.as_str()?.to_string(),
            plan: ServedPlan {
                program: DistProgram::decode(plan.field("program")?)?,
                ratios: ShardingRatios::decode(plan.field("ratios")?)?,
                estimated_time: plan.field("estimated_time")?.as_f64()?,
                rounds: plan.field("rounds")?.as_usize()?,
            },
        })
    };
    decode().map(Reply::Plan).map_err(|e| e.to_string())
}

/// The collective profile the optimizer builds for a request.
fn comm_profile(req: &PlanRequest) -> CommProfile {
    let devices = req.cluster.virtual_devices(req.options.granularity).len();
    profile_collectives(&network(req), devices)
}

fn network(req: &PlanRequest) -> GroundTruthNet {
    GroundTruthNet::new(NetworkParams {
        latency: req.cluster.inter_latency,
        bandwidth: req.cluster.inter_bandwidth,
        ..NetworkParams::paper_cloud()
    })
}

/// Checks one served plan against the request it answers.
pub fn validate(req: &PlanRequest, plan: &ServedPlan) -> Result<(), String> {
    if req.options.auto_segments.is_some() {
        return Err("the checker does not replay auto-segmentation".into());
    }
    if !plan.program.is_complete(&req.graph) {
        return Err(format!("{}: program is incomplete for the graph", req.label));
    }
    let devices = req.cluster.virtual_devices(req.options.granularity);
    let segments = req.graph.segment_count().max(1);
    if plan.ratios.len() != segments {
        return Err(format!(
            "{}: {} ratio rows for {segments} segments",
            req.label,
            plan.ratios.len()
        ));
    }
    for row in &plan.ratios {
        if row.len() != devices.len() {
            return Err(format!(
                "{}: ratio row of {} for {} devices",
                req.label,
                row.len(),
                devices.len()
            ));
        }
        if row.iter().any(|x| !(*x >= 0.0 && x.is_finite())) {
            return Err(format!("{}: negative or non-finite ratio in {row:?}", req.label));
        }
        let sum: f64 = row.iter().sum();
        if (sum - 1.0).abs() > 1e-9 {
            return Err(format!("{}: ratio row sums to {sum}", req.label));
        }
    }
    let replay =
        estimate_time(&req.graph, &plan.program, &devices, &comm_profile(req), &plan.ratios);
    if replay.to_bits() != plan.estimated_time.to_bits() {
        return Err(format!(
            "{}: served estimated_time {} but estimate_time replays {replay}",
            req.label, plan.estimated_time
        ));
    }
    Ok(())
}

/// Simulation settings for plan quality: fixed noise and seed, as in the
/// figure harness.
fn sim_options() -> SimOptions {
    SimOptions { noise: 0.03, seed: 2024, ..SimOptions::default() }
}

/// Simulated iteration time of a plan on the request's cluster.
pub fn simulated_time(req: &PlanRequest, plan: &ServedPlan) -> f64 {
    let devices = req.cluster.virtual_devices(req.options.granularity);
    simulate_time(&req.graph, &plan.program, &devices, &network(req), &plan.ratios, &sim_options())
        .iteration_time
}

/// The DP-EV baseline's simulated iteration time over the plan's (paper
/// Fig. 13's comparison).
pub fn speedup_vs_dp(req: &PlanRequest, plan: &ServedPlan) -> f64 {
    let devices = req.cluster.virtual_devices(req.options.granularity);
    let dp = build_baseline(Baseline::DpEv, &req.graph, &req.cluster, req.options.granularity)
        .expect("data parallelism applies to every benchmark graph");
    let dp_time =
        simulate_time(&req.graph, &dp.program, &devices, &network(req), &dp.ratios, &sim_options())
            .iteration_time;
    dp_time / simulated_time(req, plan)
}

/// What went wrong with one response.
pub enum Problem {
    /// The daemon answered with a typed error frame.
    Frame(WireError),
    /// The response is malformed or its plan fails the check.
    Invalid(String),
}

/// Response checking state for one run, shared by its load threads.
#[derive(Default)]
pub struct Checker {
    /// The first `cache`-sourced response line per request id.
    first_hit: HashMap<u64, Vec<u8>>,
    /// The first plan served per request fingerprint.
    plans: HashMap<u64, ServedPlan>,
}

impl Checker {
    /// Checks one `plan` or `replan` response answering `req` (for a
    /// replan, the request rebased onto the post-delta cluster). Returns
    /// the response's `source`.
    ///
    /// A hit must repeat its slot's first hit byte for byte. Every other
    /// response is decoded and validated: a re-synthesized plan may differ
    /// from an earlier one for the same request (warm starts keep plans
    /// only up to cost ties), but it must be valid.
    pub fn check(
        &mut self,
        id: u64,
        line: &[u8],
        req: &PlanRequest,
        replan: bool,
    ) -> Result<String, Problem> {
        if !replan && self.first_hit.get(&id).is_some_and(|first| first == line) {
            return Ok("cache".into());
        }
        let reply = match parse_reply(line).map_err(Problem::Invalid)? {
            Reply::Plan(reply) => reply,
            Reply::Error(frame) => return Err(Problem::Frame(frame)),
        };
        if reply.fingerprint != req.fingerprint {
            return Err(Problem::Invalid(format!("{}: response names another request", req.label)));
        }
        if reply.source == "cache" {
            if self.first_hit.get(&id).is_some_and(|first| first != line) {
                return Err(Problem::Invalid(format!(
                    "{}: hit is not byte-identical to the first hit",
                    req.label
                )));
            }
            self.first_hit.entry(id).or_insert_with(|| line.to_vec());
        }
        validate(req, &reply.plan).map_err(Problem::Invalid)?;
        self.plans.entry(req.fingerprint).or_insert(reply.plan);
        Ok(reply.source)
    }

    /// Forgets the recorded first hits: a fresh daemon caches afresh.
    pub fn new_daemon(&mut self) {
        self.first_hit.clear();
    }

    /// The first validated plan served for a request fingerprint.
    pub fn plan(&self, fingerprint: u64) -> Option<&ServedPlan> {
        self.plans.get(&fingerprint)
    }

    /// FNV-1a over the sorted (request fingerprint, program fingerprint,
    /// estimated-time bits) triples of `fingerprints`; `None` if any was
    /// never served.
    pub fn digest(&self, fingerprints: &[u64]) -> Option<u64> {
        let mut triples = fingerprints
            .iter()
            .map(|fp| {
                self.plans
                    .get(fp)
                    .map(|p| (*fp, p.program.fingerprint(), p.estimated_time.to_bits()))
            })
            .collect::<Option<Vec<_>>>()?;
        triples.sort_unstable();
        let mut h = FNV_OFFSET;
        for (a, b, c) in triples {
            for word in [a, b, c] {
                h = fnv1a_bytes(h, &word.to_le_bytes());
            }
        }
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use hap_service::{PlanService, ServiceConfig};

    /// A genuine daemon response for a small searched request.
    fn served() -> (PlanRequest, String) {
        let req = gen::tenant_hot(1);
        let service = PlanService::new(ServiceConfig { workers: 1, ..ServiceConfig::default() })
            .expect("in-process service");
        let (line, _) = service.handle_line(&req.line(7));
        (req, line)
    }

    fn tampered(line: &str, edit: impl FnOnce(&mut Value)) -> Vec<u8> {
        let mut v = parse(line).unwrap();
        edit(&mut v);
        v.render().into_bytes()
    }

    fn plan_mut(v: &mut Value) -> &mut Vec<(String, Value)> {
        let Value::Obj(fields) = v else { panic!("response is an object") };
        let (_, plan) = fields.iter_mut().find(|(k, _)| k == "plan").unwrap();
        let Value::Obj(plan) = plan else { panic!("plan is an object") };
        plan
    }

    fn field<'a>(fields: &'a mut [(String, Value)], key: &str) -> &'a mut Value {
        &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1
    }

    #[test]
    fn a_genuine_plan_passes_and_hits_must_repeat_byte_for_byte() {
        let (req, line) = served();
        let mut checker = Checker::default();
        assert_eq!(
            checker.check(7, line.as_bytes(), &req, false).ok().as_deref(),
            Some("synthesized")
        );
        let hit = line.replace("\"source\":\"synthesized\"", "\"source\":\"cache\"");
        assert!(checker.check(7, hit.as_bytes(), &req, false).is_ok());
        assert!(checker.check(7, hit.as_bytes(), &req, false).is_ok());
        assert!(checker.digest(&[req.fingerprint]).is_some());
        let other_id = hit.replace("\"id\":7", "\"id\":8");
        assert!(checker.check(8, other_id.as_bytes(), &req, false).is_ok());
        checker.new_daemon();
        let reordered = tampered(&hit, |v| plan_mut(v).reverse());
        assert!(checker.check(7, &reordered, &req, false).is_ok(), "a fresh daemon's first hit");
        assert!(checker.check(7, &reordered, &req, false).is_ok());
        assert!(matches!(checker.check(7, hit.as_bytes(), &req, false), Err(Problem::Invalid(_))));
    }

    #[test]
    fn one_tampered_field_fails_the_check() {
        let (req, line) = served();
        type Tamper = Box<dyn Fn(&mut Value)>;
        let tampers: Vec<Tamper> = vec![
            Box::new(|v| {
                let t = field(plan_mut(v), "estimated_time");
                *t = Value::Num(f64::from_bits(t.as_f64().unwrap().to_bits() + 1));
            }),
            Box::new(|v| {
                let Value::Arr(rows) = field(plan_mut(v), "ratios") else { panic!() };
                let Value::Arr(row) = &mut rows[0] else { panic!() };
                let (a, b) = (row[0].as_f64().unwrap(), row[1].as_f64().unwrap());
                row[0] = Value::Num(a + 0.01);
                row[1] = Value::Num(b - 0.01);
            }),
            Box::new(|v| {
                let Value::Arr(rows) = field(plan_mut(v), "ratios") else { panic!() };
                let Value::Arr(row) = &mut rows[0] else { panic!() };
                row[0] = Value::Num(row[0].as_f64().unwrap() + 0.5);
            }),
            Box::new(|v| {
                let Value::Obj(program) = field(plan_mut(v), "program") else { panic!() };
                let Value::Arr(instrs) = field(program, "instrs") else { panic!() };
                instrs.pop();
            }),
            Box::new(|v| {
                let Value::Obj(fields) = v else { panic!() };
                *field(fields, "fingerprint") = Value::Str("0x0000000000000001".into());
            }),
        ];
        for (i, tamper) in tampers.iter().enumerate() {
            let bad = tampered(&line, tamper);
            let verdict = Checker::default().check(7, &bad, &req, false);
            assert!(matches!(verdict, Err(Problem::Invalid(_))), "tamper {i} passed the check");
        }
    }
}
