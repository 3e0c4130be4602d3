//! A timed shadow of the alternating Q/B loop.
//!
//! `hap::parallelize_with_warm_profiled` reports only a total, so the
//! traced run replays the loop here: the same public functions, called in
//! the same order with the same arguments, with a clock read around each
//! stage. The fidelity tests pin the shadow's plan bit-for-bit to the
//! library's, and every traced run checks it against the plans the daemon
//! served, so a change to the core loop fails loudly instead of letting
//! these per-stage numbers drift from what the daemon runs.

use std::time::{Duration, Instant};

use hap::{HapError, HapOptions, Plan};
use hap_balancer::{estimate_time, optimize_ratios};
use hap_baselines::{propagate, GradSync, WalkOptions};
use hap_cluster::ClusterSpec;
use hap_collectives::{profile_collectives, GroundTruthNet, NetworkParams};
use hap_graph::Graph;
use hap_partition::{apply_partition, chain_partition};
use hap_simulator::memory_footprint;
use hap_synthesis::{
    synthesize_with_theory_profiled, DistProgram, ShardingRatios, SynthProfile, Theory,
    TheoryOptions,
};

/// Where one planning call spent its time.
#[derive(Clone, Debug, Default)]
pub struct StageTimes {
    /// `profile_collectives`.
    pub profile: Duration,
    /// `Theory::build_with`.
    pub theory: Duration,
    /// The four portfolio `propagate` walks.
    pub portfolio: Duration,
    /// Each round's A\* (`synthesize_with_theory_profiled`).
    pub astar: Vec<Duration>,
    /// The per-round `estimate_time` sweep over A\* and portfolio programs.
    pub sweep: Duration,
    /// `optimize_ratios`.
    pub lp: Duration,
    /// `estimate_time` of the ratio candidates.
    pub estimate: Duration,
    /// `memory_footprint` checks, the incumbent's per-candidate recheck
    /// included.
    pub mem_check: Duration,
    /// The whole call.
    pub total: Duration,
    /// Rounds in which a portfolio program beat the A\* program.
    pub portfolio_wins: usize,
}

impl StageTimes {
    pub fn astar_total(&self) -> Duration {
        self.astar.iter().sum()
    }
}

fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed();
    out
}

/// `hap::parallelize_with_warm_profiled`, stage by stage.
pub fn parallelize_timed(
    graph: &Graph,
    cluster: &ClusterSpec,
    opts: &HapOptions,
    warm: Option<&DistProgram>,
) -> Result<(Plan, SynthProfile, StageTimes), HapError> {
    let begin = Instant::now();
    let mut times = StageTimes::default();
    let mut graph = graph.clone();
    if let Some(g) = opts.auto_segments {
        if graph.segment_count() <= 1 && g > 1 {
            let assignment = chain_partition(&graph, g);
            apply_partition(&mut graph, &assignment);
        }
    }
    let devices = cluster.virtual_devices(opts.granularity);
    let m = devices.len();
    let net = GroundTruthNet::new(NetworkParams {
        latency: cluster.inter_latency,
        bandwidth: cluster.inter_bandwidth,
        ..NetworkParams::paper_cloud()
    });
    let profile = timed(&mut times.profile, || profile_collectives(&net, m));
    let segments = graph.segment_count().max(1);
    let row = cluster.proportional_ratios(opts.granularity);
    let mut ratios: ShardingRatios = vec![row; segments];
    let theory = timed(&mut times.theory, || {
        Theory::build_with(
            &graph,
            TheoryOptions { grouped_broadcast: opts.synth.grouped_broadcast, sfb: opts.synth.sfb },
        )
    });
    let start = Instant::now();
    let portfolio: Vec<DistProgram> = timed(&mut times.portfolio, || {
        let slowest = devices.iter().map(|d| d.flops).fold(f64::INFINITY, f64::min);
        [
            WalkOptions::default(),
            WalkOptions { grad_sync: GradSync::ReduceScatter, ..WalkOptions::default() },
            WalkOptions {
                grad_sync: GradSync::ReduceScatter,
                expert_parallel: Some("expert_w".into()),
                ..WalkOptions::default()
            },
            WalkOptions {
                sfb_flop_cost: Some(cluster.inter_bandwidth / slowest),
                ..WalkOptions::default()
            },
        ]
        .into_iter()
        .filter_map(|w| propagate(&graph, &w).ok())
        .collect()
    });

    let mut best: Option<(f64, Plan)> = None;
    let mut synth_profile = SynthProfile::default();
    let mut seen: Vec<Vec<u64>> = vec![quantize(&ratios)];
    let mut prev_q: Option<DistProgram> =
        warm.filter(|q| q.instrs.iter().all(|i| i.node() < graph.len())).cloned();
    for round in 0..opts.max_rounds.max(1) {
        let warm = if opts.warm_start { prev_q.as_ref() } else { None };
        let mut astar = Duration::ZERO;
        let (mut q, round_profile) = timed(&mut astar, || {
            synthesize_with_theory_profiled(
                &graph,
                &theory,
                &devices,
                &profile,
                &ratios,
                &opts.synth,
                warm,
            )
        })?;
        times.astar.push(astar);
        synth_profile.merge(&round_profile);
        timed(&mut times.sweep, || {
            let mut q_cost = estimate_time(&graph, &q, &devices, &profile, &ratios);
            let mut won = false;
            for cand in &portfolio {
                let c = estimate_time(&graph, cand, &devices, &profile, &ratios);
                if c < q_cost {
                    q_cost = c;
                    q = cand.clone();
                    q.estimated_time = c;
                    won = true;
                }
            }
            times.portfolio_wins += usize::from(won);
        });
        prev_q = Some(q.clone());
        let next = if opts.balance {
            timed(&mut times.lp, || optimize_ratios(&graph, &q, &devices, &profile))?
        } else {
            ratios.clone()
        };
        let even_row = cluster.even_ratios(opts.granularity);
        let candidates = [next.clone(), vec![even_row; segments]];
        for cand in candidates {
            let t =
                timed(&mut times.estimate, || estimate_time(&graph, &q, &devices, &profile, &cand));
            let fits = timed(&mut times.mem_check, || {
                memory_footprint(&graph, &q, &devices, &cand).fits()
            });
            let better = match &best {
                None => true,
                Some((bt, bp)) => {
                    let best_fits = timed(&mut times.mem_check, || {
                        memory_footprint(&graph, &bp.program, &devices, &bp.ratios).fits()
                    });
                    (fits && !best_fits) || (fits == best_fits && t < *bt)
                }
            };
            if better {
                best = Some((
                    t,
                    Plan {
                        program: q.clone(),
                        ratios: cand,
                        estimated_time: t,
                        rounds: round + 1,
                        synthesis_time: start.elapsed(),
                        devices: devices.clone(),
                        graph: graph.clone(),
                    },
                ));
            }
        }
        let key = quantize(&next);
        let converged = max_delta(&ratios, &next) < 1e-6;
        let oscillating = seen.contains(&key);
        ratios = next;
        if converged || oscillating {
            break;
        }
        seen.push(key);
    }
    let (_, mut plan) = best.expect("at least one round ran");
    plan.synthesis_time = start.elapsed();
    times.total = begin.elapsed();
    Ok((plan, synth_profile, times))
}

fn quantize(ratios: &ShardingRatios) -> Vec<u64> {
    ratios.iter().flat_map(|row| row.iter().map(|&b| (b * 1e9).round() as u64)).collect()
}

fn max_delta(a: &ShardingRatios, b: &ShardingRatios) -> f64 {
    a.iter()
        .zip(b.iter())
        .flat_map(|(ra, rb)| ra.iter().zip(rb.iter()).map(|(x, y)| (x - y).abs()))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use hap_models::{mlp, MlpConfig};

    fn assert_same_plan(graph: &Graph, cluster: &ClusterSpec, opts: &HapOptions) {
        let (lib, lib_profile) =
            hap::parallelize_with_warm_profiled(graph, cluster, opts, None).unwrap();
        let (shadow, shadow_profile, times) =
            parallelize_timed(graph, cluster, opts, None).unwrap();
        assert_eq!(shadow.program.fingerprint(), lib.program.fingerprint());
        assert_eq!(shadow.estimated_time.to_bits(), lib.estimated_time.to_bits());
        let bits = |r: &ShardingRatios| -> Vec<Vec<u64>> {
            r.iter().map(|row| row.iter().map(|x| x.to_bits()).collect()).collect()
        };
        assert_eq!(bits(&shadow.ratios), bits(&lib.ratios));
        assert_eq!(shadow.rounds, lib.rounds);
        assert_eq!(shadow_profile, lib_profile);
        assert!(times.astar.len() >= shadow.rounds);
    }

    #[test]
    fn shadow_loop_matches_the_library_on_a_small_mlp() {
        let graph = mlp(&MlpConfig { batch: 512, input: 64, hidden: vec![128, 128], classes: 10 });
        let opts = gen::searched(hap_cluster::Granularity::PerGpu);
        assert_same_plan(&graph, &ClusterSpec::fig17_cluster(), &opts);
    }

    #[test]
    fn shadow_loop_matches_the_library_on_a_cold_mix_request() {
        let reqs = gen::cold_mix();
        let req = reqs.iter().find(|r| r.label == "BERT-Base/hom2/x2").expect("request exists");
        assert_same_plan(&req.graph, &req.cluster, &req.options);
    }
}
