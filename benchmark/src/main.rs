//! `benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. The lines
//! before it record the pinned configuration, the pass-time distribution,
//! the suite digest and, for a traced run, a Fig. 7-style share table.
//! Exits 1 after printing when a check failed, and 2 without printing a
//! result on bad arguments.

use p4t_benchmark::stats::{quartiles, tail_percentile};
use p4t_benchmark::workload::{workload, NAMES};
use p4t_benchmark::{run, Report};
use serde_json::{Number, Value};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn print_report(r: &Report, traced: bool, host_cpus: usize) {
    let c = &r.config;
    let deadline = c.deadline.map_or("none".to_string(), |d| format!("{d:?}"));
    println!(
        "config workload={} seed={} jobs={} solver_mode={} solver_budget={} deadline={deadline} host_cpus={host_cpus}",
        r.workload,
        c.seed,
        c.jobs,
        c.solver_mode.as_str(),
        c.solver_budget,
    );
    let samples = [
        ("suite_s", &r.suite_secs),
        ("traced_suite_s", &r.traced_secs),
    ];
    for (name, secs) in samples.into_iter().filter(|(_, s)| !s.is_empty()) {
        let [q1, q2, q3] = quartiles(secs);
        let tail = tail_percentile(secs).map_or(String::new(), |(p, v)| format!(" p{p}={v:.6}"));
        println!(
            "{name} samples={} q1={q1:.6} median={q2:.6} q3={q3:.6}{tail}",
            secs.len()
        );
    }
    println!("suite_digest {:016x}", r.suite_digest);
    if traced {
        let rows = r.shares();
        let total: f64 = rows.iter().map(|(_, s)| s).sum();
        println!("share of traced-pass CPU time ({} passes)", r.ledgers.len());
        for (row, secs) in &rows {
            println!("  {row:40} {:5.1}%", 100.0 * secs / total.max(1e-12));
        }
    }
}

fn result_json(r: &Report, traced: bool) -> String {
    let metrics = r
        .metrics(traced)
        .into_iter()
        .map(|(name, value, unit)| {
            let m = vec![
                ("value".to_string(), Value::Number(Number::F(value))),
                ("unit".to_string(), Value::String(unit.to_string())),
            ];
            (name.to_string(), Value::Object(m))
        })
        .collect();
    let doc = Value::Object(vec![
        ("correct".to_string(), Value::Bool(r.correct())),
        (
            "attempted".to_string(),
            Value::Number(Number::U(r.attempted)),
        ),
        ("failed".to_string(), Value::Number(Number::U(r.failed))),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&doc).expect("a JSON value always renders")
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: benchmark --workload {} [--seed N] [--seconds S] [--trace 0|1]",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let Some(w) = workload(&args.workload, args.seed, host_cpus) else {
        eprintln!(
            "unknown workload {}; expected one of {}",
            args.workload,
            NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let report = run(&w, args.seed, args.seconds, args.traced);
    if args.traced {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}.spans.jsonl", w.name));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| report.tracer.write_jsonl(&path))
        {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    print_report(&report, args.traced, host_cpus);
    println!("{}", result_json(&report, args.traced));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
