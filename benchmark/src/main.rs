//! The standing benchmark of this repository: the XML lifecycle — store,
//! retrieve, query, commit, recover — end to end and per layer, in process
//! and over the wire. `README.md` beside this package says what every
//! workload and metric is for.
//!
//! ```text
//! benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! benchmark aa  [--seed N] [--seconds S] [--smoke]
//! benchmark manifest
//! benchmark serve --addr HOST:PORT --dir DIR
//! ```

mod alloc;
mod bigdoc;
mod corpus;
mod inputs;
mod json;
mod lifecycle;
mod registry;
mod report;
mod span;
mod stats;
mod util;
mod wire;

use std::process::ExitCode;

use xmlord_ordb::DbMode;

use json::Json;
use registry::{Better, END_TO_END, RUN_SECONDS, WORKLOADS};
use report::{out_dir, Report, RunArgs};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  benchmark aa  [--seed N] [--seconds S] [--smoke]
  benchmark manifest
  benchmark serve --addr HOST:PORT --dir DIR";

struct Cli {
    workload: Option<String>,
    run: RunArgs,
    addr: Option<String>,
    dir: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        run: RunArgs {
            seed: 2002,
            seconds: RUN_SECONDS as f64,
            traced: false,
            smoke: false,
        },
        addr: None,
        dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be above 0 and at most 120".into());
                }
                cli.run.seconds = seconds;
            }
            "--trace" => {
                cli.run.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => cli.run.smoke = true,
            "--addr" => cli.addr = Some(value()?),
            "--dir" => cli.dir = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn run_workload(name: &str, args: &RunArgs) -> Result<Report, String> {
    let Some(def) = WORKLOADS.iter().find(|w| w.name == name) else {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {name}; the workloads are {}",
            known.join(", ")
        ));
    };
    let mut report = Report::new(def.name, args.traced);
    let outcome = match (def.name, args.traced) {
        ("corpus_or9", false) => corpus::untraced(DbMode::Oracle9, args, &mut report),
        ("corpus_or9", true) => corpus::traced(DbMode::Oracle9, args, &mut report),
        ("corpus_or8", false) => corpus::untraced(DbMode::Oracle8, args, &mut report),
        ("corpus_or8", true) => corpus::traced(DbMode::Oracle8, args, &mut report),
        ("bigdoc_baselines", false) => bigdoc::untraced(args, &mut report),
        ("bigdoc_baselines", true) => bigdoc::traced(args, &mut report),
        ("wire_mixed", false) => wire::untraced(args, &mut report),
        ("wire_mixed", true) => wire::traced(args, &mut report),
        (other, _) => unreachable!("workload {other} is in the registry but has no runner"),
    };
    // A run cut short still reports what it measured; it is not correct.
    if let Err(e) = outcome {
        report.check(false, || format!("run aborted: {e}"));
    }
    Ok(report.finish())
}

/// Run, print every metric by name and unit, and keep the full record
/// (host, seed, settings, counts) beside the trace in `out/`.
fn run_and_print(name: &str, args: &RunArgs) -> Result<Report, String> {
    let report = run_workload(name, args)?;
    report.print_human();
    let record = report.record(args);
    println!("record: {}", record.compact());
    let dir = out_dir();
    let kind = if args.traced { "traced" } else { "untraced" };
    let path = dir.join(format!("record-{name}-{kind}.json"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, record.pretty()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(report)
}

fn cmd_run(cli: &Cli) -> Result<ExitCode, String> {
    match &cli.workload {
        Some(name) => {
            let report = run_and_print(name, &cli.run)?;
            // The contract's last line: exactly correct, attempted, failed, metrics.
            println!("{}", report.result_line().compact());
        }
        None => {
            let mut all = Vec::new();
            for w in &WORKLOADS {
                all.push((w.name, run_and_print(w.name, &cli.run)?.result_line()));
            }
            println!("{}", Json::obj(all).compact());
        }
    }
    // A run that measured is a run that succeeded; whether the outputs were
    // right is the `correct` field's to say.
    Ok(ExitCode::SUCCESS)
}

/// Runs in each of the two sets `aa` compares. A set's value of a metric
/// is the median of its runs, as the driver's is of its ten.
const AA_RUNS: usize = 3;

/// Run the whole set twice on the same code — two sets of `AA_RUNS` runs a
/// workload, taken in turns so that both meet the same weather. Every
/// end-to-end metric of every workload must agree within its bound, and on
/// the single-threaded workloads every exact count must repeat.
fn cmd_aa(cli: &Cli) -> Result<ExitCode, String> {
    let args = RunArgs {
        traced: false,
        ..cli.run.clone()
    };
    let mut disagreements = 0;
    let mut table = Vec::new();
    for w in &WORKLOADS {
        let mut sets: [Vec<Report>; 2] = [Vec::new(), Vec::new()];
        for _ in 0..AA_RUNS {
            for set in &mut sets {
                set.push(run_and_print(w.name, &args)?);
            }
        }
        let [first, second] = &sets;
        for m in &END_TO_END {
            let values = |set: &[Report]| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| r.metrics.get(m.name).copied())
                    .collect()
            };
            let (a, b) = (values(first), values(second));
            if a.len() < AA_RUNS || b.len() < AA_RUNS {
                disagreements += 1;
                table.push(format!("{:<18} {:<20} missing", w.name, m.name));
                continue;
            }
            let (va, vb) = (stats::median(&a), stats::median(&b));
            // How much worse the second set is than the first, as a share.
            let worse = match m.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            // The widest a set's runs lie apart, as a share of its median.
            let range = |v: &[f64], mid: f64| {
                (v.iter().copied().fold(f64::MIN, f64::max)
                    - v.iter().copied().fold(f64::MAX, f64::min))
                    / mid
            };
            let ok = worse.abs() <= m.bound;
            disagreements += u32::from(!ok);
            table.push(format!(
                "{:<18} {:<20} {va:>14.6} {vb:>14.6} {:>6} {:>+8.2} % (bound {:>2.0} %) range {:>5.2} % {:>5.2} % {}",
                w.name,
                m.name,
                m.unit,
                worse * 100.0,
                m.bound * 100.0,
                range(&a, va) * 100.0,
                range(&b, vb) * 100.0,
                if ok { "ok" } else { "DISAGREE" }
            ));
        }
        let runs = || first.iter().chain(second);
        if w.name != "wire_mixed" && runs().any(|r| r.counts != first[0].counts) {
            disagreements += 1;
            table.push(format!("{:<18} exact counts differ between runs", w.name));
        }
        if !runs().all(Report::correct) {
            disagreements += 1;
            table.push(format!(
                "{:<18} a run reported failed operations or checks",
                w.name
            ));
        }
    }
    println!(
        "== A/A: two sets of {AA_RUNS} runs of the same code, seed {}, medians ==",
        args.seed
    );
    println!(
        "{:<18} {:<20} {:>14} {:>14} {:>6} {:>10}",
        "workload", "metric", "first", "second", "unit", "worse by"
    );
    for line in &table {
        println!("{line}");
    }
    println!("host: {}", report::host_fingerprint().compact());
    println!("{disagreements} disagreement(s)");
    Ok(if disagreements == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = parse_cli(rest).and_then(|cli| match command.as_str() {
        "run" => cmd_run(&cli),
        "aa" => cmd_aa(&cli),
        "manifest" => {
            print!("{}", registry::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        "serve" => match (&cli.addr, &cli.dir) {
            (Some(addr), Some(dir)) => wire::serve(addr, dir).map(|()| ExitCode::SUCCESS),
            _ => Err("serve needs --addr and --dir".into()),
        },
        other => Err(format!("unknown command {other}")),
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(seed: u64, traced: bool) -> RunArgs {
        RunArgs {
            seed,
            seconds: 1.0,
            traced,
            smoke: true,
        }
    }

    /// Same seed, same deterministic counts; and the run checks out.
    #[test]
    fn single_threaded_workloads_repeat_their_counts() {
        for name in ["corpus_or9", "corpus_or8", "bigdoc_baselines"] {
            let a = run_workload(name, &smoke(5, false)).unwrap();
            let b = run_workload(name, &smoke(5, false)).unwrap();
            assert!(a.correct(), "{name}: {:?}", a.problems);
            assert!(!a.counts.is_empty(), "{name}");
            assert_eq!(a.counts, b.counts, "{name}");
            let other = run_workload(name, &smoke(6, false)).unwrap();
            assert!(other.correct(), "{name}: {:?}", other.problems);
            assert_ne!(
                a.counts, other.counts,
                "{name}: another seed is another corpus"
            );
        }
    }

    /// The traced run reconciles: identical dump and counters, self times
    /// that cover the wall — all of which `correct` folds in.
    #[test]
    fn traced_runs_reconcile() {
        for name in ["corpus_or9", "corpus_or8", "bigdoc_baselines"] {
            let report = run_workload(name, &smoke(5, true)).unwrap();
            assert!(report.correct(), "{name}: {:?}", report.problems);
            assert!(
                report.metrics["trace.self_time_coverage_pct"] >= 95.0,
                "{name}"
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = run_workload("corpus_or9", &smoke(5, false)).unwrap();
        let Json::Obj(pairs) = report.result_line() else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Json::Obj(metrics) = &pairs[3].1 else {
            panic!("metrics is not an object")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
    }

    #[test]
    fn unknown_workloads_and_arguments_are_refused() {
        assert!(run_workload("nope", &smoke(1, false)).is_err());
        assert!(parse_cli(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_cli(&["--seconds".into(), "0".into()]).is_err());
        let cli = parse_cli(&[
            "--workload".into(),
            "x".into(),
            "--seed".into(),
            "9".into(),
            "--trace".into(),
            "1".into(),
        ])
        .unwrap();
        assert!(cli.run.traced && cli.run.seed == 9 && cli.workload.as_deref() == Some("x"));
    }
}
