//! Multi-tenant job-engine throughput bench (`BENCH_serve.json`).
//!
//! Drives the `lra-serve` [`Server`] through a deterministic
//! mixed-priority workload that exercises every scheduler mechanism —
//! rank packing, priority preemption with checkpointed park/resume, a
//! deadline-free drain, and a factor-cache round trip — then emits a
//! frozen-schema BENCH report with one entry per served job plus
//! engine-level metrics (throughput, preemptions, cache traffic).
//!
//! The run *gates* on engine behavior: it exits nonzero if any job is
//! lost or interrupted, if no preemption happened, if the repeated
//! request missed the cache, or if the preempted-and-resumed job's
//! factors differ bitwise from an uninterrupted solo run on the same
//! rank count. CI's `serve-smoke` job relies on those gates.

use std::sync::Arc;
use std::time::Instant;

use lra_bench::sweep::Run;
use lra_bench::{timed, write_report, BenchConfig, USAGE};
use lra_core::{factorize_ranks, IlutOpts, LuCrtpResult, RunConfig};
use lra_obs::{BenchEntry, KernelTime, MetricsRegistry, BENCH_SCHEMA_VERSION};
use lra_serve::{Algorithm, JobReport, JobSpec, Server, ServerConfig};
use lra_sparse::CscMatrix;

fn main() {
    let mut out_path = "BENCH_serve.json".to_string();
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().unwrap_or_else(|| fail("--out requires a value")),
            _ => rest.push(a),
        }
    }
    let cfg = BenchConfig::parse_args(&rest).unwrap_or_else(|err| fail(&err));
    let np = cfg.max_np.clamp(2, 4);
    let tenants = if cfg.quick { 6 } else { 10 };

    println!(
        "SERVE — multi-tenant soak: pool of {np} ranks, {tenants} tenants + victim/urgent/repeat (schema v{BENCH_SCHEMA_VERSION})"
    );

    let counter = |name: &str| match lra_obs::metrics::global().get(name) {
        Some(lra_obs::MetricValue::Counter(c)) => c,
        _ => 0,
    };
    let preemptions0 = counter("serve.preemptions");
    let resumes0 = counter("serve.resumes");
    let cache_hits0 = counter("serve.cache_hit");
    let driver_calls0 = counter("serve.driver_calls");

    // The long low-priority victim spans hundreds of block iterations,
    // so the urgent arrival preempts it mid-factorization.
    let victim_a = Arc::new(slow_matrix(cfg.quick));
    let victim_opts = IlutOpts::new(2, 1e-6, 8);
    let urgent_a = Arc::new(tenant_matrix(99));
    let tenant_opts = IlutOpts::new(4, 1e-3, 8);

    let server = Server::new(ServerConfig::default().with_ranks(np));
    let t0 = Instant::now();

    let victim = server
        .submit(
            JobSpec::new(Arc::clone(&victim_a), Algorithm::IlutCrtp(victim_opts.clone()))
                .with_ranks(np)
                .with_priority(0)
                .with_label("victim"),
        )
        .unwrap_or_else(|e| fail(&format!("victim rejected: {e}")));
    server.wait_until_running(victim);
    let urgent = server
        .submit(
            JobSpec::new(Arc::clone(&urgent_a), Algorithm::IlutCrtp(tenant_opts.clone()))
                .with_ranks(np)
                .with_priority(9)
                .with_label("urgent"),
        )
        .unwrap_or_else(|e| fail(&format!("urgent rejected: {e}")));

    // Mixed tenants: varied priorities and rank-group sizes pack onto
    // whatever the high-priority traffic leaves idle.
    let tenant_mats: Vec<Arc<CscMatrix>> = (0..tenants).map(|i| Arc::new(tenant_matrix(i as u64))).collect();
    let tenant_ids: Vec<_> = tenant_mats
        .iter()
        .enumerate()
        .map(|(i, m)| {
            server
                .submit(
                    JobSpec::new(Arc::clone(m), Algorithm::IlutCrtp(tenant_opts.clone()))
                        .with_ranks(1 + i % np)
                        .with_priority(1 + (i % 7) as u8)
                        .with_label(format!("tenant-{i}")),
                )
                .unwrap_or_else(|e| fail(&format!("tenant {i} rejected: {e}")))
        })
        .collect();

    let urgent_report = server.wait(urgent);
    let victim_report = server.wait(victim);
    let tenant_reports: Vec<JobReport> = tenant_ids.into_iter().map(|id| server.wait(id)).collect();

    // Round trip: the same request again must come from the cache.
    let repeat = server
        .submit(
            JobSpec::new(Arc::clone(&urgent_a), Algorithm::IlutCrtp(tenant_opts.clone()))
                .with_ranks(np)
                .with_priority(5)
                .with_label("repeat"),
        )
        .unwrap_or_else(|e| fail(&format!("repeat rejected: {e}")));
    let repeat_report = server.wait(repeat);
    let soak_wall = t0.elapsed().as_secs_f64();
    server.shutdown();

    let preemptions = counter("serve.preemptions") - preemptions0;
    let resumes = counter("serve.resumes") - resumes0;
    let cache_hits = counter("serve.cache_hit") - cache_hits0;
    let driver_calls = counter("serve.driver_calls") - driver_calls0;
    let total_jobs = 3 + tenant_reports.len();
    println!(
        "{total_jobs} jobs in {soak_wall:.2}s ({:.2} jobs/s): {preemptions} preemptions, {resumes} resumes, {cache_hits} cache hits, {driver_calls} driver calls",
        total_jobs as f64 / soak_wall
    );

    // ---- Gates ---------------------------------------------------------
    let mut failures: Vec<String> = Vec::new();
    let all: Vec<(&str, &JobReport)> = std::iter::once(("victim", &victim_report))
        .chain(std::iter::once(("urgent", &urgent_report)))
        .chain(std::iter::once(("repeat", &repeat_report)))
        .chain(tenant_reports.iter().map(|r| ("tenant", r)))
        .collect();
    for (label, r) in &all {
        if r.outcome.is_interrupted() {
            failures.push(format!("{label} ({}) ended interrupted — job lost", r.job));
        }
    }
    if preemptions == 0 {
        failures.push("no preemption happened — the urgent job never displaced the victim".into());
    }
    if resumes < preemptions {
        failures.push(format!("{preemptions} preemptions but only {resumes} resumes"));
    }
    if !repeat_report.from_cache || cache_hits == 0 {
        failures.push("the repeated request was not served from the factor cache".into());
    }
    if repeat_report.driver_calls != 0 {
        failures.push("the cache hit consumed a driver call".into());
    }

    // Bitwise gate: the preempted-and-resumed victim equals a solo
    // uninterrupted run on the same rank count.
    let (solo_victim, _) = timed(|| solo(&victim_a, &victim_opts, np));
    let served_victim = victim_report.outcome.clone().into_value();
    if !same_bits(&served_victim, &solo_victim) {
        failures.push("victim factors differ bitwise from the uninterrupted solo run".into());
    }

    // ---- Report --------------------------------------------------------
    let reg = MetricsRegistry::new();
    reg.set_gauge("serve.bench.jobs", total_jobs as f64);
    reg.set_gauge("serve.bench.soak_wall_s", soak_wall);
    reg.set_gauge("serve.bench.throughput_jobs_per_s", total_jobs as f64 / soak_wall);
    reg.set_gauge("serve.bench.preemptions", preemptions as f64);
    reg.set_gauge("serve.bench.resumes", resumes as f64);
    reg.set_gauge("serve.bench.cache_hits", cache_hits as f64);
    reg.set_gauge("serve.bench.driver_calls", driver_calls as f64);
    reg.set_gauge("serve.bench.victim_preemptions", victim_report.preemptions as f64);

    let mut entries = Vec::new();
    entries.push(entry("serve/victim", &victim_a, &victim_opts, np, &victim_report, &cfg));
    entries.push(entry("serve/urgent", &urgent_a, &tenant_opts, np, &urgent_report, &cfg));
    entries.push(entry("serve/repeat", &urgent_a, &tenant_opts, np, &repeat_report, &cfg));
    for (i, r) in tenant_reports.iter().enumerate() {
        entries.push(entry(
            "serve/tenant",
            &tenant_mats[i],
            &tenant_opts,
            1 + i % np,
            r,
            &cfg,
        ));
    }

    write_report("serve", &cfg, np, entries, &reg, &out_path).unwrap_or_else(|err| fail(&err));

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("OK: zero lost jobs, {preemptions} preemptions, {cache_hits} cache hits, bitwise victim resume");
}

fn slow_matrix(quick: bool) -> CscMatrix {
    let (nx, ny) = if quick { (18, 14) } else { (24, 20) };
    lra_matgen::with_decay(&lra_matgen::fem2d(nx, ny, 11), 1e-6, 3)
}

fn tenant_matrix(seed: u64) -> CscMatrix {
    lra_matgen::with_decay(&lra_matgen::fem2d(8, 6, 20 + seed), 1e-6, 3)
}

fn solo(a: &CscMatrix, opts: &IlutOpts, np: usize) -> LuCrtpResult {
    let report = factorize_ranks(a, opts, np, &RunConfig::default(), None).expect("valid input");
    report.unwrap_all().swap_remove(0)
}

fn same_bits(x: &LuCrtpResult, y: &LuCrtpResult) -> bool {
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    x.rank == y.rank
        && x.pivot_rows == y.pivot_rows
        && x.pivot_cols == y.pivot_cols
        && bits(x.l.values()) == bits(y.l.values())
        && bits(x.u.values()) == bits(y.u.values())
}

fn entry(
    label: &str,
    a: &CscMatrix,
    opts: &IlutOpts,
    np: usize,
    r: &JobReport,
    cfg: &BenchConfig,
) -> BenchEntry {
    let wall = r.wall.as_secs_f64();
    let run = Run::of_lu(r.outcome.clone().into_value(), wall, a, cfg.par());
    let matrix = format!("fem2d({}x{})", a.rows(), a.cols());
    // Service latency is queueing + parks + kernels; the engine does
    // not attribute it to kernel buckets, so the whole wall lands in
    // `other` (the schema's catch-all).
    let kernels = vec![KernelTime { kernel: "other".to_string(), seconds: wall }];
    BenchEntry { kernels, ..run.bench_entry(label, &matrix, a, (opts.base.tau, opts.base.k, np)) }
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE} [--out PATH]");
    std::process::exit(2);
}
