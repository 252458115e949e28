//! End-to-end exact-PPR serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload read-hot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. Prints provenance, checks and every
//! metric by name and unit, then one JSON object as the last line of
//! standard output. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the traced variant and reports the per-layer ones.
//! See `e2e_bench/README.md` for the workloads and metrics.
//!
//! The binary doubles as a socket-cluster worker: the supervisor starts
//! it as `ppr-e2e-bench worker` with the `PPR_WORKER_*` environment set.
//! It is also the read workloads' edit child, `ppr-e2e-bench edit`
//! (see `edits.rs`).

mod edits;
mod host;
mod openloop;
mod oracle;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace,
    })
}

/// A JSON number with every digit Rust prints for the `f64`
/// (non-finite values, which JSON cannot hold, become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns the -0.0 an empty float sum yields into 0.0.
        format!("{:?}", v + 0.0)
    } else {
        "0.0".into()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        return match ppr_serve::worker::run_from_env() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let [cmd, workload, pprx] = args.as_slice() {
        if cmd == "edit" {
            return match edits::serve(workload, std::path::Path::new(pprx)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("edit: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: ppr-e2e-bench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::SPECS.map(|s| s.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workloads::spec(&args.workload) else {
        eprintln!("error: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let root = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# host: nproc {}, cpu {}, commit {}",
        host::nproc(),
        host::cpu_model(),
        host::commit(&root)
    );
    println!(
        "# run: workload {} seed {} seconds {} trace {}",
        spec.name, args.seed, args.seconds, args.trace as u8
    );
    let outcome = workloads::Bench::new(spec, args.seed, args.seconds, &root).and_then(|b| {
        let out = b.run(args.trace);
        let _ = std::fs::remove_dir(b.out_dir()); // only if empty
        out
    });
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for (name, value, unit) in metrics {
        println!("metric {name} = {} {unit}", json_num(*value));
    }
    assert!(outcome.tally.balanced(), "attempted != ok + failed");
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.tally.attempted,
        outcome.tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&args("--workload mixed-rw --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("mixed-rw", 7, 10.0, true)
        );
        assert!(parse_args(&args("--workload x --seed 1 --trace 2")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_num(1.2034), "1.2034");
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(f64::NAN), "0.0");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(-0.0), "0.0");
    }

    #[test]
    fn every_workload_is_named_once() {
        let names: Vec<&str> = workloads::SPECS.iter().map(|s| s.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert!(names.iter().all(|n| workloads::spec(n).is_some()));
    }
}
