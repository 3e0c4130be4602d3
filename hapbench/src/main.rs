//! `hapbench`: the HAP plan service's end-to-end benchmark.
//!
//! ```text
//! hapbench --workload <cold_mix|hot_hits|tenant_churn|ring_hits|all> --seed <u64>
//!          --seconds <s> [--trace [0|1]] [--out FILE.jsonl]
//! hapbench --compare parent.jsonl change.jsonl
//! ```
//!
//! `--seconds` has no default: the runner passes `run_seconds` from
//! `BENCHMARK.json`, the one place the run length is set, and `--compare`
//! refuses runs of different lengths.
//!
//! A run prints every metric with its name and unit, then, as its last
//! line, one JSON object `{"correct":..,"attempted":..,"failed":..,
//! "metrics":{..}}`. It exits non-zero on any correctness failure. The
//! daemon under test is the `hap-serve` binary next to this one; see
//! `README.md` for the workloads and metrics.

mod check;
mod compare;
mod daemon;
mod gen;
mod load;
mod rng;
mod shadow;
mod stats;
mod trace;
mod workloads;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use hap_codec::{render_fingerprint, Value};

use crate::workloads::{Config, Metric, Report, WORKLOADS};

const USAGE: &str = "usage: hapbench --workload <cold_mix|hot_hits|tenant_churn|ring_hits|all> \
                     --seed <u64> --seconds <s> [--trace [0|1]] [--out FILE.jsonl]\n       \
                     hapbench --compare parent.jsonl change.jsonl";

struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: None, seed: None, seconds: None, trace: false, out: None, compare: None };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = Some(value("--seed")?.parse().map_err(|e| format!("bad seed: {e}"))?)
            }
            "--seconds" => {
                let seconds: f64 =
                    value("--seconds")?.parse().map_err(|e| format!("bad seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(seconds);
            }
            // `--trace` alone, or `--trace 0|1`.
            "--trace" => args.trace = it.next_if(|v| v == "0" || v == "1").is_none_or(|v| v == "1"),
            "--out" => args.out = Some(value("--out")?.into()),
            "--compare" => {
                let parent = value("--compare")?;
                args.compare = Some((parent.into(), value("--compare")?.into()));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn metrics_json(metrics: &[(String, &Metric)]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|(name, m)| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                (
                    name.clone(),
                    Value::obj(vec![
                        ("value", Value::Num(value)),
                        ("unit", Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload:<13} {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// Everything one invocation measured.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(json name, metric)`: bare names for one workload, prefixed with
    /// the workload for `all`.
    metrics: Vec<(String, Metric)>,
    records: Vec<Value>,
}

/// One untraced run's `--out` record.
fn record(r: &Report, cfg: &Config) -> Value {
    let named: Vec<(String, &Metric)> = r.metrics.iter().map(|m| (m.name.to_string(), m)).collect();
    Value::obj(vec![
        ("workload", Value::Str(r.workload.into())),
        ("seed", Value::Str(cfg.seed.to_string())),
        ("seconds", Value::Num(cfg.seconds)),
        ("trace", Value::Bool(false)),
        ("correct", Value::Bool(r.correct())),
        ("attempted", Value::int(r.attempted)),
        ("failed", Value::int(r.failed)),
        ("tail_pct", Value::Num(workloads::tail_pct(r.workload))),
        ("plan_digest", Value::Str(r.digest.map(render_fingerprint).unwrap_or_default())),
        ("metrics", metrics_json(&named)),
    ])
}

fn run(args: &Args, cfg: &Config) -> Result<Outcome, String> {
    let workload = args.workload.as_deref().ok_or("--workload is required")?;
    let names: Vec<&str> = match workload {
        "all" => WORKLOADS.to_vec(),
        w if WORKLOADS.contains(&w) => vec![w],
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {WORKLOADS:?} or all)"
            ))
        }
    };
    let prefix =
        |w: &str, m: &str| if names.len() > 1 { format!("{w}.{m}") } else { m.to_string() };
    let mut out = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        records: Vec::new(),
    };
    let mut untraced = Vec::new();
    if !(args.trace && names.len() == 1) {
        for name in &names {
            let r = workloads::run(name, cfg)?;
            print_metrics(r.workload, &r.metrics);
            println!(
                "{:<13} {:<34} {:>16}",
                r.workload,
                "plan_digest",
                r.digest.map(render_fingerprint).unwrap_or_else(|| "missing".into())
            );
            for note in &r.notes {
                println!("{:<13} {note}", r.workload);
            }
            for e in &r.errors {
                eprintln!("{}: FAILED: {e}", r.workload);
            }
            out.correct &= r.correct();
            out.attempted += r.attempted;
            out.failed += r.failed;
            out.records.push(record(&r, cfg));
            let get = |n| r.metrics.iter().find(|m| m.name == n).map_or(0.0, |m| m.value);
            untraced.push((r.workload, [get("p50_ms"), get("tail_ms"), get("throughput_rps")]));
            if !args.trace {
                out.metrics.extend(r.metrics.into_iter().map(|m| (prefix(r.workload, m.name), m)));
            }
        }
    }
    if args.trace {
        let t = trace::run(cfg)?;
        print_metrics("trace", &t.metrics);
        println!(
            "{:<13} {:>10} {:>10} {:>12}   (untraced p50/tail/throughput)",
            "traced", "p50_ms", "tail_ms", "req/s"
        );
        for (w, p50, tail, rps) in &t.end_to_end {
            let before = untraced
                .iter()
                .find(|(u, _)| u == w)
                .map(|(_, [p50, tail, rps])| format!("({p50:.3}/{tail:.3}/{rps:.1})"))
                .unwrap_or_default();
            println!("{w:<13} {p50:>10.3} {tail:>10.3} {rps:>12.1}   {before}");
        }
        for e in &t.errors {
            eprintln!("trace: FAILED: {e}");
        }
        out.correct &= t.failed == 0;
        out.attempted += t.attempted;
        out.failed += t.failed;
        let named: Vec<(String, &Metric)> =
            t.metrics.iter().map(|m| (m.name.to_string(), m)).collect();
        out.records.push(Value::obj(vec![
            ("workload", Value::Str(workload.into())),
            ("seed", Value::Str(cfg.seed.to_string())),
            ("seconds", Value::Num(cfg.seconds)),
            ("trace", Value::Bool(true)),
            ("correct", Value::Bool(t.failed == 0)),
            ("attempted", Value::int(t.attempted)),
            ("failed", Value::int(t.failed)),
            ("metrics", metrics_json(&named)),
        ]));
        out.metrics.extend(t.metrics.into_iter().map(|m| (m.name.to_string(), m)));
    }
    Ok(out)
}

fn compare_files(parent: &PathBuf, change: &PathBuf) -> Result<bool, String> {
    let read =
        |p: &PathBuf| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let bounds = compare::load_bounds(
        &read(&PathBuf::from("BENCHMARK.json"))
            .map_err(|e| format!("{e} (run --compare from the repository root)"))?,
    )?;
    let parent = compare::load_runs(&read(parent)?)?;
    let change = compare::load_runs(&read(change)?)?;
    Ok(compare::compare(&bounds, &parent, &change))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hapbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((parent, change)) = &args.compare {
        return match compare_files(parent, change) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("hapbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    // The daemon under test and the scratch area live beside this binary,
    // inside the build directory.
    let exe_dir = match std::env::current_exe() {
        Ok(exe) => exe.parent().map(PathBuf::from).unwrap_or_default(),
        Err(e) => {
            eprintln!("hapbench: cannot locate the hapbench binary: {e}");
            return ExitCode::from(2);
        }
    };
    let (Some(seed), Some(seconds)) = (args.seed, args.seconds) else {
        eprintln!("hapbench: --seed and --seconds are required\n{USAGE}");
        return ExitCode::from(2);
    };
    let cfg = Config {
        serve_bin: exe_dir.join("hap-serve"),
        work_dir: exe_dir.join("hapbench-work"),
        seed,
        seconds,
    };
    let outcome = run(&args, &cfg);
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("hapbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.out {
        let appended =
            std::fs::OpenOptions::new().create(true).append(true).open(path).and_then(|mut f| {
                outcome.records.iter().try_for_each(|r| writeln!(f, "{}", r.render()))
            });
        if let Err(e) = appended {
            eprintln!("hapbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let named: Vec<(String, &Metric)> =
        outcome.metrics.iter().map(|(n, m)| (n.clone(), m)).collect();
    let result = Value::obj(vec![
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::int(outcome.attempted)),
        ("failed", Value::int(outcome.failed)),
        ("metrics", metrics_json(&named)),
    ]);
    println!("{}", result.render());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
