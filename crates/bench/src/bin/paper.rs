//! The paper's artefacts from one sweep: every table, figure and claim
//! sheet is a view of one memoized run table ([`lra_bench::sweep`]),
//! so a run two views read executes once.
//!
//! ```sh
//! cargo run -p lra-bench --release --bin paper -- table2 fig3 --quick
//! cargo run -p lra-bench --release --bin paper -- --out results
//! cargo run -p lra-bench --release --bin paper -- --validate BENCH_paper.json [trace.json]
//! ```
//!
//! Views are named first (none = all of [`VIEWS`]) and printed to
//! stdout. With `--out DIR` each is also written to `DIR/<view>.txt`,
//! and `DIR/BENCH_paper.json` — the machine-readable BENCH v1 report
//! over the same sweep — is written and validated. The bin exits 1 when
//! a structural claim of the `claims` view is broken; a timing-decided
//! claim that flipped against `DIR/claims.txt` is only reported.
//!
//! With `LRA_TRACE=path.json` set, a Chrome trace (one lane per SPMD
//! rank, driver lanes for shared-memory runs) is written on exit;
//! `--validate REPORT TRACE` checks it alongside the report.

use lra_bench::sweep::Sweep;
use lra_bench::views::{
    broken_claims, check_checkpoint_size, claim_flips, write_bench_report, VIEWS,
};
use lra_bench::{read_report, BenchConfig, USAGE};
use lra_obs::Json;
use std::collections::BTreeSet;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    let views: Vec<_> = if names.is_empty() {
        VIEWS.to_vec()
    } else {
        let find = |name: &&String| VIEWS.iter().find(|(have, _)| have == *name).copied();
        names
            .iter()
            .map(|name| find(name).unwrap_or_else(|| fail(&format!("unknown view {name:?}"))))
            .collect()
    };
    let mut out_dir: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut flags = args[names.len()..].iter().cloned().peekable();
    while let Some(a) = flags.next() {
        match a.as_str() {
            "--out" => {
                out_dir = Some(flags.next().unwrap_or_else(|| fail("--out requires a value")))
            }
            "--validate" => {
                let report = flags.next().unwrap_or_else(|| fail("--validate requires a value"));
                return validate(&report, flags.next_if(|a| !a.starts_with("--")).as_deref());
            }
            _ => rest.push(a),
        }
    }
    let cfg = BenchConfig::parse_args(&rest).unwrap_or_else(|err| fail(&err));

    lra_obs::trace::init_from_env();
    let mut sweep = Sweep::new(&cfg);
    let mut broken = 0;
    for (name, view) in views {
        let text = view(&mut sweep, &cfg);
        println!("{text}");
        broken += broken_claims(&text);
        if let Some(dir) = &out_dir {
            let path = format!("{dir}/{name}.txt");
            let committed = std::fs::read_to_string(&path).unwrap_or_default();
            for (was, now) in claim_flips(&committed, &text) {
                println!("flipped against {path}:\n  was {was}\n  now {now}");
            }
            std::fs::write(&path, &text)
                .unwrap_or_else(|err| fail(&format!("cannot write {path}: {err}")));
        }
    }
    if let Some(dir) = &out_dir {
        write_bench_report(&mut sweep, &cfg, &format!("{dir}/BENCH_paper.json"))
            .unwrap_or_else(|err| fail(&err));
    }
    println!("{} distinct runs executed", sweep.executed());
    match lra_obs::trace::flush_to_env_path() {
        Ok(Some(path)) => println!("wrote Chrome trace to {path} (open in chrome://tracing)"),
        Ok(None) => {}
        Err(err) => fail(&format!("cannot write trace: {err}")),
    }
    if broken > 0 {
        eprintln!("error: {broken} structural claim(s) broken (the FAIL lines of the claims view)");
        std::process::exit(1);
    }
}

/// `--validate REPORT [TRACE]`: parse + structurally validate an
/// existing report and, when given, the Chrome trace of a traced sweep.
fn validate(report: &str, trace: Option<&str>) {
    // Any BENCH v1 report parses here (`kernel_bench`'s too); only
    // this binary's own reports carry the checkpoint gauges.
    let r = read_report(report).unwrap_or_else(|err| fail(&err));
    if r.bench == "paper" {
        check_checkpoint_size(&r.metrics)
            .unwrap_or_else(|err| fail(&format!("{report}: invalid report: {err}")));
    }
    println!("{report}: valid BENCH schema v{} ({} entries)", r.schema_version, r.entries.len());
    if let Some(path) = trace {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|err| fail(&format!("cannot read {path}: {err}")));
        match check_trace(&text) {
            Ok(summary) => println!("{path}: valid trace ({summary})"),
            Err(err) => fail(&format!("{path}: invalid trace: {err}")),
        }
    }
}

/// A traced sweep's Chrome trace: a non-empty array of complete,
/// instant and metadata events with one named lane per SPMD rank (the
/// BENCH report's SPMD runs use at least two).
fn check_trace(text: &str) -> Result<String, String> {
    let parsed = Json::parse(text)?;
    let events = parsed.as_arr().filter(|e| !e.is_empty()).ok_or("not a non-empty event array")?;
    let mut ranks = BTreeSet::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).ok_or("event without a phase")?;
        if !matches!(ph, "X" | "i" | "M") {
            return Err(format!("unexpected event phase {ph:?}"));
        }
        let lane = e.get("tid").and_then(Json::as_u64).ok_or("event without a lane")?;
        if ph == "M" && lane < lra_obs::trace::DRIVER_LANE_BASE {
            ranks.insert(lane);
        }
    }
    if ranks.len() < 2 {
        return Err(format!("expected one lane per SPMD rank, got rank lanes {ranks:?}"));
    }
    Ok(format!("{} events, rank lanes {ranks:?}", events.len()))
}

fn fail(msg: &str) -> ! {
    let names: Vec<&str> = VIEWS.iter().map(|(name, _)| *name).collect();
    eprintln!("error: {msg}");
    eprintln!("{USAGE} [--out DIR] [--validate REPORT [TRACE]]");
    eprintln!("views (named before the flags; none = all): {}", names.join(" "));
    std::process::exit(2);
}
