//! `hapbench --compare parent.jsonl change.jsonl`: judges a change against
//! its parent from alternating runs recorded with `--out`.
//!
//! The rule, per workload and end-to-end metric:
//!
//! * each side's median and quartiles;
//! * a gain needs the change to win at least 9 of 10 pairs (ties count for
//!   neither side) and the medians to differ by more than the parent's
//!   interquartile range, over at least ten pairs;
//! * a regression is a median worse than the parent's by more than the
//!   metric's allowance: its bound from `BENCHMARK.json` times the parent's
//!   median, or, for `setup_s`, [`SETUP_FLOOR_S`] if that is larger;
//! * where either side's interquartile range is wider than the allowance
//!   the pairing is unresolved, unless every change run beats every parent
//!   run;
//! * the failed-operation share must not increase, and a differing
//!   `plan_digest` is flagged;
//! * runs of different lengths (`--seconds`) are not compared.

use std::collections::BTreeMap;

use hap_codec::{parse, Value};

use crate::stats::quartiles;

/// Pairs needed before a gain may be claimed.
const MIN_PAIRS: usize = 10;

/// The least worsening of `setup_s`, in seconds, that counts against a
/// change. `cold_mix` sets up a bare daemon in about 2 ms, so a relative
/// bound alone would judge process-spawn jitter; `BENCHMARK.json`'s schema
/// has no field for an absolute floor, so it lives here.
const SETUP_FLOOR_S: f64 = 0.05;

/// One end-to-end metric's definition from `BENCHMARK.json`.
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
    /// Allowed worsening in the metric's unit, whatever the median.
    pub floor: f64,
}

/// One recorded run.
pub struct Run {
    pub workload: String,
    pub seconds: f64,
    pub attempted: f64,
    pub failed: f64,
    pub digest: String,
    pub metrics: BTreeMap<String, f64>,
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.field(key).map_err(|e| e.to_string())
}

pub fn load_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let v = parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    field(&v, "end_to_end")?
        .as_arr()
        .map_err(|e| e.to_string())?
        .iter()
        .map(|m| {
            let name = field(m, "name")?.as_str().map_err(|e| e.to_string())?.to_string();
            Ok(Bound {
                floor: if name == "setup_s" { SETUP_FLOOR_S } else { 0.0 },
                name,
                higher_is_better: field(m, "better")?.as_str().map_err(|e| e.to_string())?
                    == "higher",
                bound: field(m, "bound")?.as_f64().map_err(|e| e.to_string())?,
            })
        })
        .collect()
}

/// The untraced runs of a `--out` file, in file order.
pub fn load_runs(text: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let v = parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if field(&v, "trace")?.as_bool().map_err(|e| e.to_string())? {
            continue;
        }
        let Value::Obj(metrics) = field(&v, "metrics")? else {
            return Err(format!("line {}: metrics is not an object", n + 1));
        };
        let metrics = metrics
            .iter()
            .map(|(k, m)| Ok((k.clone(), field(m, "value")?.as_f64().map_err(|e| e.to_string())?)))
            .collect::<Result<_, String>>()?;
        let num =
            |k: &str| -> Result<f64, String> { field(&v, k)?.as_f64().map_err(|e| e.to_string()) };
        runs.push(Run {
            workload: field(&v, "workload")?.as_str().map_err(|e| e.to_string())?.to_string(),
            seconds: num("seconds")?,
            attempted: num("attempted")?,
            failed: num("failed")?,
            digest: field(&v, "plan_digest")?.as_str().map_err(|e| e.to_string())?.to_string(),
            metrics,
        });
    }
    Ok(runs)
}

/// The verdict for one workload × metric.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Gain,
    Within,
    Regression,
    Unresolved,
}

pub struct Row {
    pub parent: [f64; 3],
    pub change: [f64; 3],
    pub wins: usize,
    pub ties: usize,
    pub losses: usize,
    pub verdict: Verdict,
}

/// Applies the rule to paired samples (`parent[i]` ran beside `change[i]`).
pub fn judge(bound: &Bound, parent: &[f64], change: &[f64]) -> Row {
    let pairs = parent.len().min(change.len());
    let better = |c: f64, p: f64| if bound.higher_is_better { c > p } else { c < p };
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let ties = (0..pairs).filter(|&i| change[i] == parent[i]).count();
    let (qp, qc) = (quartiles(parent), quartiles(change));
    let improvement = if bound.higher_is_better { qc[1] - qp[1] } else { qp[1] - qc[1] };
    // The worsening a side's median allows, and whether its spread is wider.
    let allowance = |q: [f64; 3]| (bound.bound * q[1].abs()).max(bound.floor);
    let wide = |q: [f64; 3]| q[2] - q[0] > allowance(q);
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let verdict = if (wide(qp) || wide(qc)) && !all_better {
        Verdict::Unresolved
    } else if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && improvement > qp[2] - qp[0] {
        Verdict::Gain
    } else if -improvement > allowance(qp) {
        Verdict::Regression
    } else {
        Verdict::Within
    };
    Row { parent: qp, change: qc, wins, ties, losses: pairs - wins - ties, verdict }
}

/// Prints one row per workload × metric; returns false when the change
/// regresses a metric or fails more operations than its parent.
pub fn compare(bounds: &[Bound], parent: &[Run], change: &[Run]) -> bool {
    let mut lengths: Vec<f64> = parent.iter().chain(change).map(|r| r.seconds).collect();
    lengths.sort_by(f64::total_cmp);
    lengths.dedup();
    if lengths.len() > 1 {
        println!("runs of different lengths are not comparable: --seconds {lengths:?}");
        return false;
    }
    let mut ok = true;
    let mut workloads: Vec<&str> = Vec::new();
    for run in parent {
        if !workloads.contains(&run.workload.as_str()) {
            workloads.push(&run.workload);
        }
    }
    println!(
        "{:<13} {:<19} {:>31} {:>31} {:>8} {:>7}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "w/t/l"
    );
    for workload in workloads {
        let p: Vec<&Run> = parent.iter().filter(|r| r.workload == workload).collect();
        let c: Vec<&Run> = change.iter().filter(|r| r.workload == workload).collect();
        let pairs = p.len().min(c.len());
        if pairs < 2 {
            println!(
                "{workload:<13} too few runs to compare ({} parent, {} change)",
                p.len(),
                c.len()
            );
            ok = false;
            continue;
        }
        if pairs < MIN_PAIRS {
            println!("{workload:<13} only {pairs} pairs: no gain can be claimed below {MIN_PAIRS}");
        }
        for bound in bounds {
            let values = |runs: &[&Run]| -> Option<Vec<f64>> {
                runs[..pairs].iter().map(|r| r.metrics.get(&bound.name).copied()).collect()
            };
            let (Some(pv), Some(cv)) = (values(&p), values(&c)) else {
                println!("{workload:<13} {:<19} missing from some runs", bound.name);
                ok = false;
                continue;
            };
            let row = judge(bound, &pv, &cv);
            ok &= row.verdict != Verdict::Regression;
            let q = |x: [f64; 3]| format!("{:.4} [{:.4}, {:.4}]", x[1], x[0], x[2]);
            println!(
                "{workload:<13} {:<19} {:>31} {:>31} {:>+7.2}% {:>7}  {:?}",
                bound.name,
                q(row.parent),
                q(row.change),
                (row.change[1] / row.parent[1] - 1.0) * 100.0,
                format!("{}/{}/{}", row.wins, row.ties, row.losses),
                row.verdict
            );
        }
        let share = |runs: &[&Run]| {
            runs.iter().map(|r| r.failed).sum::<f64>()
                / runs.iter().map(|r| r.attempted).sum::<f64>().max(1.0)
        };
        let (fp, fc) = (share(&p), share(&c));
        println!("{workload:<13} {:<19} {fp:>31} {fc:>31}", "failed_share");
        if fc > fp {
            println!("{workload:<13} REGRESSION: the change fails more operations than its parent");
            ok = false;
        }
        let mut digests: Vec<&str> = p.iter().chain(&c).map(|r| r.digest.as_str()).collect();
        digests.sort_unstable();
        digests.dedup();
        if digests.len() > 1 {
            println!("{workload:<13} WARNING: plan_digest differs across runs: {digests:?}");
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound { name: "p50_ms".into(), higher_is_better: false, bound, floor: 0.0 }
    }

    #[test]
    fn a_clear_win_is_a_gain_and_noise_is_within_bound() {
        let parent: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * i as f64).collect();
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        assert_eq!(judge(&lower(0.1), &parent, &faster).verdict, Verdict::Gain);
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(judge(&lower(0.1), &parent, &same).verdict, Verdict::Within);
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        assert_eq!(judge(&lower(0.1), &parent, &slower).verdict, Verdict::Regression);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let parent = [10.0, 14.0, 9.0, 13.0, 10.0, 15.0, 9.5, 12.0, 10.0, 14.0];
        let change = [11.0, 13.0, 10.0, 12.0, 11.0, 14.0, 9.0, 13.0, 10.5, 12.5];
        assert_eq!(judge(&lower(0.1), &parent, &change).verdict, Verdict::Unresolved);
        let all_faster = [5.0, 6.0, 5.5, 6.5, 5.0, 7.0, 5.2, 6.1, 5.9, 6.0];
        assert_eq!(judge(&lower(0.1), &parent, &all_faster).verdict, Verdict::Gain);
    }

    #[test]
    fn ties_count_for_neither_side_and_nine_tenths_are_needed() {
        let parent = [10.0; 10];
        let mut change = [9.0; 10];
        change[0] = 10.0;
        change[1] = 10.0;
        let row = judge(&lower(0.1), &parent, &change);
        assert_eq!((row.wins, row.ties, row.losses), (8, 2, 0));
        assert_ne!(row.verdict, Verdict::Gain, "8 of 10 wins is not enough");
    }

    #[test]
    fn setup_time_gaps_under_the_floor_are_within_bound() {
        let json = r#"{"end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}]}"#;
        let bounds = load_bounds(json).unwrap();
        assert_eq!((bounds[0].floor, bounds[1].floor), (SETUP_FLOOR_S, 0.0));
        // A 2 ms spawn with a 30 % spread, 40 % slower: jitter, not a regression.
        let parent =
            [0.0014, 0.0020, 0.0018, 0.0013, 0.0019, 0.0015, 0.0021, 0.0017, 0.0014, 0.0019];
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.4).collect();
        assert_eq!(judge(&bounds[0], &parent, &slower).verdict, Verdict::Within);
        assert_eq!(judge(&bounds[1], &parent, &slower).verdict, Verdict::Unresolved);
        // Set-up moved past the floor is a regression.
        let much_slower: Vec<f64> = parent.iter().map(|x| x + 0.06).collect();
        assert_eq!(judge(&bounds[0], &parent, &much_slower).verdict, Verdict::Regression);
    }
}
