//! The repository's benchmark. See `benchmark/README.md`.
//!
//! With `--workload NAME` this process runs that workload and prints
//! its metrics, the last line being the JSON object the driver reads.
//! Without it, each workload runs in a process of its own (so that
//! `peak_rss_mb` is per workload) and the results are gathered into
//! `benchmark/out/results.json`.

mod adapter;
mod inputs;
mod probes;
mod report;
mod serve_mix;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use report::Results;
use spans::Recorder;
use workloads::RunArgs;

const USAGE: &str = "usage: lra-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1 | --traced]
  --workload NAME  one of tp_sparse, fill_dense, qb_dense, spmd_ckpt, serve_mix (default: all, one process each)
  --seed N         seed of the generated inputs (default 7)
  --seconds N      how long the timed passes of a workload may take (default 15; 3 to 5 passes run)
  --trace 1        traced run: spans around every call into the program, then the layer probes";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 7,
        seconds: 15.0,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                cli.seed = v
                    .parse()
                    .map_err(|_| format!("--seed expects an unsigned integer, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                cli.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds expects a positive number, got {v:?}"))?;
            }
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got {v:?}")),
                }
            }
            "--traced" => cli.traced = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// `benchmark/out`, next to this package's manifest.
fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

/// Write the results document, and the trace of a traced run.
pub fn write_outputs(args: &RunArgs, results: &Results, rec: &Recorder) {
    let write = |name: String, text: String| {
        let path = args.out_dir.join(name);
        if let Err(e) =
            std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, text))
        {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    };
    let kind = if args.traced {
        "traced-results"
    } else {
        "results"
    };
    write(
        format!("{kind}-{}.json", results.workload),
        results.to_json(),
    );
    if args.traced {
        write(
            format!("trace-{}.json", results.workload),
            spans::chrome_trace_json(&rec.spans()),
        );
    }
}

fn run_one(cli: &Cli, workload: &str, started: Instant) -> ExitCode {
    let Some(workload) = workloads::NAMES.into_iter().find(|n| *n == workload) else {
        eprintln!("error: unknown workload {workload:?}\n{USAGE}");
        return ExitCode::from(2);
    };
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.traced,
        out_dir: out_dir(),
        started,
    };
    let results = workloads::run(&args);
    results.print_table();
    println!("{}", results.contract_line());
    if results.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each in a child process of this executable.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut lines = Vec::new();
    let mut ok = true;
    for workload in workloads::NAMES {
        let output = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.traced { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: cannot run {workload}: {e}");
                ok = false;
                continue;
            }
        };
        let text = String::from_utf8_lossy(&output.stdout);
        let (table, line) = text
            .trim_end()
            .rsplit_once('\n')
            .unwrap_or(("", text.trim_end()));
        println!("{table}\n");
        ok &= output.status.success();
        if line.starts_with('{') {
            lines.push(format!("  {}: {line}", report::json_string(workload)));
        }
    }
    let kind = if cli.traced {
        "traced-results"
    } else {
        "results"
    };
    let path = out_dir().join(format!("{kind}.json"));
    let doc = format!("{{\n{}\n}}\n", lines.join(",\n"));
    match std::fs::write(&path, doc) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &cli.workload {
        Some(workload) => run_one(&cli, workload, started),
        None => run_all(&cli),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_drivers_arguments() {
        let cli = parse(&args(&[
            "--workload",
            "qb_dense",
            "--seed",
            "11",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("qb_dense"));
        assert_eq!((cli.seed, cli.seconds, cli.traced), (11, 10.0, true));
        let cli = parse(&args(&["--seed", "3", "--traced"])).unwrap();
        assert!(cli.workload.is_none() && cli.traced && cli.seed == 3);
    }

    #[test]
    fn rejects_malformed_arguments() {
        for bad in [
            &["--seed"][..],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--trace", "2"],
            &["--bogus"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
