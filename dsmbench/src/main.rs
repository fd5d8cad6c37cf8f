//! The specdsm workspace benchmark.
//!
//! ```text
//! cargo run --release --manifest-path dsmbench/Cargo.toml -- \
//!     --workload paper16 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload on one thread: set-up and a timed pass repeated for
//! at least `--seconds`, then an audited verification pass. Prints a
//! human-readable summary, then, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and the metrics:
//! the end-to-end ones with `--trace 0`, the per-layer ones with
//! `--trace 1`. A traced run also writes its spans to
//! `dsmbench/out/spans-<workload>-seed<seed>.jsonl`.

mod bench;
mod calib;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{Metric, Report, RunOpts, Spec, WORKLOADS};

const USAGE: &str =
    "usage: dsmbench --workload <paper16|predict16|faults64> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut spec, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => {
                spec = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| bad("workload"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// One metric as a JSON member.
fn json_metric(m: &Metric) -> String {
    format!(
        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
        m.name, m.value, m.unit
    )
}

/// The result line: the last line of standard output.
fn json_line(report: &Report) -> String {
    let metrics: Vec<String> = report.metrics.iter().map(json_metric).collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dsmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let opts = RunOpts {
        seconds: args.seconds,
        trace: args.trace,
        min_iters: if args.trace { 4 } else { 3 },
    };
    let report = match bench::run(args.spec, args.seed, &opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("dsmbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", args.spec.name, args.seed));
        if let Err(e) = trace::write_jsonl(&report.spans, &path) {
            eprintln!("dsmbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "dsmbench: {} spans written to {}",
            report.spans.len(),
            path.display()
        );
    }
    for f in &report.failures {
        eprintln!("dsmbench: failed op {f}");
    }
    println!(
        "{} seed={} digest={:016x} attempted={} failed={}",
        args.spec.name, args.seed, report.digest, report.attempted, report.failed
    );
    for m in report.extras.iter().chain(&report.metrics) {
        println!("  {:<34} {:>22} {}", m.name, m.value, m.unit);
    }
    println!("{}", json_line(&report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::{per_layer_names, END_TO_END};

    fn quick(name: &str) -> Spec {
        Spec {
            quick: true,
            ..*WORKLOADS
                .iter()
                .find(|w| w.name == name)
                .expect("known workload")
        }
    }

    fn once(spec: Spec, seed: u64, trace: bool) -> Report {
        let opts = RunOpts {
            seconds: 0.0,
            trace,
            min_iters: 2,
        };
        bench::run(spec, seed, &opts).expect("runs")
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for spec in WORKLOADS {
            let spec = quick(spec.name);
            let a = once(spec, 7, false);
            let b = once(spec, 7, false);
            let c = once(spec, 12345, false);
            assert_eq!(a.failed, 0, "{}: {:?}", spec.name, a.failures);
            assert_eq!(a.digest, b.digest, "{}", spec.name);
            assert_ne!(a.digest, c.digest, "{}", spec.name);
        }
    }

    #[test]
    fn every_printed_name_is_valid_and_listed_in_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits beside the benchmark directory");
        for spec in WORKLOADS {
            let entry = format!("\"name\": \"{}\", \"why\": ", spec.name);
            assert!(
                valid_name(spec.name) && json.contains(&entry),
                "{}",
                spec.name
            );
        }
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        let layer = per_layer_names();
        for (name, unit) in END_TO_END
            .iter()
            .copied()
            .chain(layer.iter().map(|(n, u)| (n.as_str(), *u)))
        {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(valid_name(name), "{name}");
            assert!(json.contains(&entry), "{entry} is not in BENCHMARK.json");
        }
        assert_eq!(
            json.matches("\"name\": ").count(),
            WORKLOADS.len() + END_TO_END.len() + layer.len(),
            "BENCHMARK.json lists exactly the names the benchmark prints"
        );
        let traced = once(quick("predict16"), 3, true);
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = layer.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, want, "a traced run prints every per-layer metric");
        let plain = once(quick("faults64"), 3, false);
        let names: Vec<&str> = plain.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, e2e, "an untraced run prints every end-to-end metric");
        for m in traced.extras.iter().chain(&plain.extras) {
            assert!(valid_name(&m.name), "{}", m.name);
        }
        for span in &traced.spans {
            assert!(valid_name(&span.name), "{}", span.name);
        }
        assert!(json_line(&plain).starts_with("{\"correct\": true, "));
    }

    #[test]
    fn a_failed_op_makes_the_run_incorrect() {
        let report = Report {
            attempted: 4,
            failed: 1,
            failures: vec!["em3d.base: mismatch".into()],
            digest: 0,
            metrics: Vec::new(),
            extras: Vec::new(),
            spans: Vec::new(),
        };
        assert!(
            json_line(&report).starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1")
        );
    }

    #[test]
    fn args_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload faults64 --seed 9 --seconds 2 --trace 1").expect("valid");
        assert_eq!(
            (a.spec.name, a.seed, a.seconds, a.trace),
            ("faults64", 9, 2.0, true)
        );
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload paper16 --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload paper16 --seconds 1").is_err());
        assert!(parse("--workload paper16 --seed 1 --seconds -1 --trace 0").is_err());
    }
}
