//! Golden plans: the synthesizer's output, pinned across commits.
//!
//! `synthesis_determinism.rs` compares thread counts within one build, so a
//! change that moved every plan the same way would still pass it. This test
//! compares against a table recorded from an earlier build instead. For each
//! tiny benchmark graph, plus a small MLP whose search improves on its
//! greedy seed, on two clusters (fig17 per GPU, and the paper's
//! heterogeneous cluster with two GPUs per machine, per machine) it runs
//!
//! * the greedy seed alone (`time_budget_secs: 0`),
//! * a searched synthesis (`max_expansions: 1_500`, a budget that never
//!   fires),
//! * a warm-started round under perturbed ratios, seeded with the searched
//!   program, and
//! * `parallelize_with_warm_profiled` with `max_rounds: 3`,
//!
//! at 1 and 2 threads, and checks each run's program fingerprint,
//! estimated-time bits, ratio bits (for `parallelize`) and every
//! `SynthProfile` counter except `recycled` (a storage statistic, not a
//! search decision) against the table.
//!
//! A change that is meant to change plans re-records the table: the failure
//! message prints the rows the current build produces.

use hap::prelude::*;
use hap::{parallelize_with_warm_profiled, SynthProfile};
use hap_collectives::{profile_collectives, GroundTruthNet, NetworkParams};
use hap_models::{mlp, Benchmark, MlpConfig};
use hap_synthesis::fingerprint::{fnv1a, FNV_OFFSET};
use hap_synthesis::{synthesize_with_theory_profiled, Theory};

/// `model cluster run fp=<program fingerprint> t=<estimated-time bits>
/// [r=<FNV of the ratio bits>] <SynthProfile counters>`.
const GOLDEN: &str = "\
VGG19 fig17/gpu greedy fp=0x1eede8ef64931009 t=0x3f864286a214cdaa waves=0 expansions=0 candidates=0 committed=0 improvements=0 dominance_stale=0 dominance_pruned=0 incumbent_pruned=0 frontier_peak=0 warm_seeded=0
VGG19 fig17/gpu search fp=0x1eede8ef64931009 t=0x3f864286a214cdaa waves=27 expansions=1500 candidates=23303 committed=14963 improvements=0 dominance_stale=0 dominance_pruned=8340 incumbent_pruned=0 frontier_peak=13464 warm_seeded=0
VGG19 fig17/gpu warm fp=0xa0c30cd9da64b0e9 t=0x3f8642789db60bb0 waves=27 expansions=1500 candidates=23161 committed=14964 improvements=0 dominance_stale=0 dominance_pruned=8197 incumbent_pruned=0 frontier_peak=13465 warm_seeded=0
VGG19 fig17/gpu parallelize fp=0x1eede8ef64931009 t=0x3f864286a214cdaa r=0xe1ca3f76156a6965 waves=54 expansions=3000 candidates=46148 committed=29891 improvements=0 dominance_stale=0 dominance_pruned=16257 incumbent_pruned=0 frontier_peak=13464 warm_seeded=0
ViT fig17/gpu greedy fp=0xf31ef4d4bcc59f09 t=0x3f8b51755d6c3035 waves=0 expansions=0 candidates=0 committed=0 improvements=0 dominance_stale=0 dominance_pruned=0 incumbent_pruned=0 frontier_peak=0 warm_seeded=0
ViT fig17/gpu search fp=0xf31ef4d4bcc59f09 t=0x3f8b51755d6c3035 waves=26 expansions=1500 candidates=18318 committed=11363 improvements=0 dominance_stale=0 dominance_pruned=6955 incumbent_pruned=0 frontier_peak=9864 warm_seeded=0
ViT fig17/gpu warm fp=0x9e813b358ddc8e89 t=0x3f8b5173b75c6400 waves=26 expansions=1500 candidates=18322 committed=11374 improvements=0 dominance_stale=0 dominance_pruned=6948 incumbent_pruned=0 frontier_peak=9875 warm_seeded=0
ViT fig17/gpu parallelize fp=0xf31ef4d4bcc59f09 t=0x3f8b51755d6c3035 r=0xd798a0f62efe1425 waves=52 expansions=3000 candidates=36640 committed=22724 improvements=0 dominance_stale=0 dominance_pruned=13916 incumbent_pruned=0 frontier_peak=9864 warm_seeded=0
BERT-Base fig17/gpu greedy fp=0x2be68d5931195f19 t=0x3f8b5237a38cb458 waves=0 expansions=0 candidates=0 committed=0 improvements=0 dominance_stale=0 dominance_pruned=0 incumbent_pruned=0 frontier_peak=0 warm_seeded=0
BERT-Base fig17/gpu search fp=0x2be68d5931195f19 t=0x3f8b5237a38cb458 waves=26 expansions=1500 candidates=18312 committed=11335 improvements=0 dominance_stale=0 dominance_pruned=6977 incumbent_pruned=0 frontier_peak=9836 warm_seeded=0
BERT-Base fig17/gpu warm fp=0xe1fc74ec263b9759 t=0x3f8b523566cddc72 waves=26 expansions=1500 candidates=18351 committed=11255 improvements=0 dominance_stale=0 dominance_pruned=7096 incumbent_pruned=0 frontier_peak=9756 warm_seeded=0
BERT-Base fig17/gpu parallelize fp=0x2be68d5931195f19 t=0x3f8b5237a38cb458 r=0xd798a0f62efe1425 waves=52 expansions=3000 candidates=36759 committed=22584 improvements=0 dominance_stale=0 dominance_pruned=14175 incumbent_pruned=0 frontier_peak=9836 warm_seeded=0
BERT-MoE fig17/gpu greedy fp=0xbaa06b1d1d8a50fd t=0x3f89c4942da1fd77 waves=0 expansions=0 candidates=0 committed=0 improvements=0 dominance_stale=0 dominance_pruned=0 incumbent_pruned=0 frontier_peak=0 warm_seeded=0
BERT-MoE fig17/gpu search fp=0xbaa06b1d1d8a50fd t=0x3f89c4942da1fd77 waves=26 expansions=1500 candidates=18312 committed=11335 improvements=0 dominance_stale=0 dominance_pruned=6977 incumbent_pruned=0 frontier_peak=9836 warm_seeded=0
BERT-MoE fig17/gpu warm fp=0xcfeea2ccd0c08add t=0x3f89c490cb0748a8 waves=26 expansions=1500 candidates=18351 committed=11255 improvements=0 dominance_stale=0 dominance_pruned=7096 incumbent_pruned=0 frontier_peak=9756 warm_seeded=0
BERT-MoE fig17/gpu parallelize fp=0xbaa06b1d1d8a50fd t=0x3f89c4942da1fd77 r=0xd798a0f62efe1425 waves=52 expansions=3000 candidates=36759 committed=22584 improvements=0 dominance_stale=0 dominance_pruned=14175 incumbent_pruned=0 frontier_peak=9836 warm_seeded=0
MLP fig17/gpu greedy fp=0xcf8ca2496bd581e0 t=0x3f4b1d7dcaa4cb7a waves=0 expansions=0 candidates=0 committed=0 improvements=0 dominance_stale=0 dominance_pruned=0 incumbent_pruned=0 frontier_peak=0 warm_seeded=0
MLP fig17/gpu search fp=0x568a54561fe89889 t=0x3f05dec7183af71c waves=6 expansions=109 candidates=586 committed=108 improvements=1 dominance_stale=0 dominance_pruned=123 incumbent_pruned=354 frontier_peak=60 warm_seeded=0
MLP fig17/gpu warm fp=0x568a54561fe89889 t=0x3f05e2186a312895 waves=6 expansions=105 candidates=227 committed=104 improvements=0 dominance_stale=0 dominance_pruned=123 incumbent_pruned=0 frontier_peak=56 warm_seeded=1
MLP fig17/gpu parallelize fp=0x568a54561fe89889 t=0x3f05dec7183af71c r=0x5f020e4a1183bb39 waves=11 expansions=204 candidates=782 committed=202 improvements=1 dominance_stale=0 dominance_pruned=225 incumbent_pruned=354 frontier_peak=60 warm_seeded=1
VGG19 het2/machine greedy fp=0xebf33b873a5ef629 t=0x3f988b75245ded42 waves=0 expansions=0 candidates=0 committed=0 improvements=0 dominance_stale=0 dominance_pruned=0 incumbent_pruned=0 frontier_peak=0 warm_seeded=0
VGG19 het2/machine search fp=0xebf33b873a5ef629 t=0x3f988b75245ded42 waves=27 expansions=1500 candidates=23338 committed=14963 improvements=0 dominance_stale=0 dominance_pruned=8375 incumbent_pruned=0 frontier_peak=13464 warm_seeded=0
VGG19 het2/machine warm fp=0xa0c30cd9da64b0e9 t=0x3f988a3f4f3bf341 waves=27 expansions=1500 candidates=23249 committed=14964 improvements=0 dominance_stale=0 dominance_pruned=8285 incumbent_pruned=0 frontier_peak=13465 warm_seeded=0
VGG19 het2/machine parallelize fp=0xebf33b873a5ef629 t=0x3f988b75245ded42 r=0x91ee4ed36a969ba5 waves=54 expansions=3000 candidates=46584 committed=29927 improvements=0 dominance_stale=0 dominance_pruned=16657 incumbent_pruned=0 frontier_peak=13465 warm_seeded=0
ViT het2/machine greedy fp=0x8db28ef923c98f29 t=0x3f9e2726145c08ec waves=0 expansions=0 candidates=0 committed=0 improvements=0 dominance_stale=0 dominance_pruned=0 incumbent_pruned=0 frontier_peak=0 warm_seeded=0
ViT het2/machine search fp=0x8db28ef923c98f29 t=0x3f9e2726145c08ec waves=26 expansions=1500 candidates=18295 committed=11365 improvements=0 dominance_stale=0 dominance_pruned=6930 incumbent_pruned=0 frontier_peak=9866 warm_seeded=0
ViT het2/machine warm fp=0x9e813b358ddc8e89 t=0x3f9e27021cdca3e8 waves=26 expansions=1500 candidates=18332 committed=11362 improvements=0 dominance_stale=0 dominance_pruned=6970 incumbent_pruned=0 frontier_peak=9863 warm_seeded=0
ViT het2/machine parallelize fp=0x8db28ef923c98f29 t=0x3f9e2726145c08ec r=0xe5cea67ba2e69d25 waves=52 expansions=3000 candidates=36665 committed=22731 improvements=0 dominance_stale=0 dominance_pruned=13934 incumbent_pruned=0 frontier_peak=9867 warm_seeded=0
BERT-Base het2/machine greedy fp=0xef43e6838c626239 t=0x3f9e27b28acba9c5 waves=0 expansions=0 candidates=0 committed=0 improvements=0 dominance_stale=0 dominance_pruned=0 incumbent_pruned=0 frontier_peak=0 warm_seeded=0
BERT-Base het2/machine search fp=0xef43e6838c626239 t=0x3f9e27b28acba9c5 waves=26 expansions=1500 candidates=18240 committed=11332 improvements=0 dominance_stale=0 dominance_pruned=6908 incumbent_pruned=0 frontier_peak=9833 warm_seeded=0
BERT-Base het2/machine warm fp=0xe1fc74ec263b9759 t=0x3f9e2780e9368371 waves=26 expansions=1500 candidates=18328 committed=11255 improvements=0 dominance_stale=0 dominance_pruned=7073 incumbent_pruned=0 frontier_peak=9756 warm_seeded=0
BERT-Base het2/machine parallelize fp=0xef43e6838c626239 t=0x3f9e27b28acba9c5 r=0xe5cea67ba2e69d25 waves=52 expansions=3000 candidates=36557 committed=22587 improvements=0 dominance_stale=0 dominance_pruned=13970 incumbent_pruned=0 frontier_peak=9833 warm_seeded=0
BERT-MoE het2/machine greedy fp=0x12cd63cfd63e057d t=0x3f9c5a99a9c912ba waves=0 expansions=0 candidates=0 committed=0 improvements=0 dominance_stale=0 dominance_pruned=0 incumbent_pruned=0 frontier_peak=0 warm_seeded=0
BERT-MoE het2/machine search fp=0x12cd63cfd63e057d t=0x3f9c5a99a9c912ba waves=26 expansions=1500 candidates=18240 committed=11332 improvements=0 dominance_stale=0 dominance_pruned=6908 incumbent_pruned=0 frontier_peak=9833 warm_seeded=0
BERT-MoE het2/machine warm fp=0xcfeea2ccd0c08add t=0x3f9c5a2fc199c9ef waves=26 expansions=1500 candidates=18328 committed=11255 improvements=0 dominance_stale=0 dominance_pruned=7073 incumbent_pruned=0 frontier_peak=9756 warm_seeded=0
BERT-MoE het2/machine parallelize fp=0x12cd63cfd63e057d t=0x3f9c5a99a9c912ba r=0xe5cea67ba2e69d25 waves=52 expansions=3000 candidates=36557 committed=22587 improvements=0 dominance_stale=0 dominance_pruned=13970 incumbent_pruned=0 frontier_peak=9833 warm_seeded=0
MLP het2/machine greedy fp=0xcf8ca2496bd581e0 t=0x3f5e0fad8a75f952 waves=0 expansions=0 candidates=0 committed=0 improvements=0 dominance_stale=0 dominance_pruned=0 incumbent_pruned=0 frontier_peak=0 warm_seeded=0
MLP het2/machine search fp=0x568a54561fe89889 t=0x3f056855c8765589 waves=6 expansions=109 candidates=586 committed=108 improvements=1 dominance_stale=0 dominance_pruned=123 incumbent_pruned=354 frontier_peak=60 warm_seeded=0
MLP het2/machine warm fp=0x568a54561fe89889 t=0x3f056a9ab05aa010 waves=6 expansions=105 candidates=227 committed=104 improvements=0 dominance_stale=0 dominance_pruned=123 incumbent_pruned=0 frontier_peak=56 warm_seeded=1
MLP het2/machine parallelize fp=0x568a54561fe89889 t=0x3f056855c8765589 r=0xde16b0d35e610d79 waves=11 expansions=204 candidates=782 committed=202 improvements=1 dominance_stale=0 dominance_pruned=225 incumbent_pruned=354 frontier_peak=60 warm_seeded=1
";

fn searched(threads: usize) -> SynthConfig {
    SynthConfig {
        threads,
        time_budget_secs: 3_600.0,
        max_expansions: 1_500,
        ..SynthConfig::default()
    }
}

/// One table row: the run's identity, then its plan and search counters.
fn row(
    name: &str,
    program: &DistProgram,
    ratios: Option<&[Vec<f64>]>,
    profile: &SynthProfile,
) -> String {
    let mut line = format!(
        "{name} fp={:#018x} t={:#018x}",
        program.fingerprint(),
        program.estimated_time.to_bits()
    );
    if let Some(ratios) = ratios {
        let bits = ratios.iter().flatten().fold(FNV_OFFSET, |h, r| fnv1a(h, r.to_bits()));
        line += &format!(" r={bits:#018x}");
    }
    for (key, value) in profile.entries() {
        if key != "recycled" {
            line += &format!(" {key}={value}");
        }
    }
    line
}

/// Every row of one cluster's part of the table, computed at `threads`.
fn rows(
    cluster_name: &str,
    cluster: &ClusterSpec,
    granularity: Granularity,
    threads: usize,
) -> Vec<String> {
    let devices = cluster.virtual_devices(granularity);
    let profile =
        profile_collectives(&GroundTruthNet::new(NetworkParams::paper_cloud()), devices.len());
    let mut graphs: Vec<(&str, Graph)> =
        Benchmark::all().iter().map(|b| (b.name(), b.build_tiny(devices.len()))).collect();
    graphs.push(("MLP", mlp(&MlpConfig { batch: 4096, input: 64, hidden: vec![], classes: 10 })));
    let mut out = Vec::new();
    for (model, graph) in &graphs {
        let theory = Theory::build(graph);
        let segments = graph.segment_count().max(1);
        let ratios = vec![cluster.proportional_ratios(granularity); segments];
        let name = |run: &str| format!("{model} {cluster_name} {run}");
        let synth = |ratios: &Vec<Vec<f64>>, cfg: &SynthConfig, warm: Option<&DistProgram>| {
            synthesize_with_theory_profiled(graph, &theory, &devices, &profile, ratios, cfg, warm)
                .unwrap_or_else(|e| panic!("{}: {e}", name("synthesis")))
        };

        let greedy_cfg = SynthConfig { time_budget_secs: 0.0, ..searched(threads) };
        let (greedy, prof) = synth(&ratios, &greedy_cfg, None);
        out.push(row(&name("greedy"), &greedy, None, &prof));

        let (search, prof) = synth(&ratios, &searched(threads), None);
        out.push(row(&name("search"), &search, None, &prof));

        // Round 1 ratios: a deterministic perturbation standing in for the
        // LP's rebalanced matrix.
        let round1: Vec<Vec<f64>> = ratios
            .iter()
            .map(|row| {
                let raw: Vec<f64> =
                    row.iter().enumerate().map(|(i, b)| b * (1.0 + 0.07 * i as f64)).collect();
                let sum: f64 = raw.iter().sum();
                raw.into_iter().map(|b| b / sum).collect()
            })
            .collect();
        let (warm, prof) = synth(&round1, &searched(threads), Some(&search));
        out.push(row(&name("warm"), &warm, None, &prof));

        let opts = HapOptions {
            granularity,
            synth: searched(threads),
            max_rounds: 3,
            ..HapOptions::default()
        };
        let (plan, prof) = parallelize_with_warm_profiled(graph, cluster, &opts, None)
            .unwrap_or_else(|e| panic!("{}: {e}", name("parallelize")));
        out.push(row(&name("parallelize"), &plan.program, Some(&plan.ratios), &prof));
    }
    out
}

/// Checks one cluster's rows against the table at 1 and 2 threads.
fn check(cluster_name: &str, cluster: ClusterSpec, granularity: Granularity) {
    let golden: Vec<&str> =
        GOLDEN.lines().filter(|line| line.split(' ').nth(1) == Some(cluster_name)).collect();
    for threads in [1usize, 2] {
        let got = rows(cluster_name, &cluster, granularity, threads);
        let diff: Vec<String> = got
            .iter()
            .enumerate()
            .filter(|(i, line)| golden.get(*i) != Some(&line.as_str()))
            .map(|(i, line)| {
                format!("  row {i}: expected {:?}\n          got {line}", golden.get(i))
            })
            .collect();
        assert!(
            diff.is_empty() && got.len() == golden.len(),
            "{cluster_name}, threads={threads}: {} of {} rows differ from the recorded table\n{}\n\
             rows produced by this build:\n{}",
            diff.len(),
            golden.len(),
            diff.join("\n"),
            got.join("\n")
        );
    }
}

#[test]
fn fig17_per_gpu_plans_match_the_recorded_table() {
    check("fig17/gpu", ClusterSpec::fig17_cluster(), Granularity::PerGpu);
}

#[test]
fn heterogeneous_per_machine_plans_match_the_recorded_table() {
    check("het2/machine", ClusterSpec::paper_heterogeneous(2), Granularity::PerMachine);
}
