//! Per-rank memory scaling of the sharded SPMD driver.
//!
//! Runs ILUT_CRTP over SPMD ranks at `np = 1` and `np = 4` on a
//! fill-heavy preset and reports the per-rank peak resident Schur
//! storage (`mem.peak_rank_bytes`, `mem.peak_rank_nnz`) that the
//! rank-owned data distribution is supposed to shrink. The run fails
//! (exit 1) unless quadrupling the ranks at least halves the per-rank
//! peak nnz — the memory-scaling claim CI smoke-checks on every push:
//!
//! ```sh
//! cargo run -p lra-bench --release --bin mem_scaling -- --quick --out BENCH_mem.json
//! ```
//!
//! The `BENCH_*.json` artifact carries one entry per rank count plus
//! `mem.*.np{N}` gauges under `metrics`, so baselines diff
//! mechanically. The same runs also export the overlap counters of the
//! pipelined re-shard (`comm.overlap_posted.np{N}`,
//! `comm.overlap_wait_s.np{N}`, `comm.bytes.alltoallv.np{N}`) so the
//! memory artifact records how much wire traffic the sharding paid and
//! that the overlapped path was engaged while it was measured.

use lra_bench::sweep::Run;
use lra_bench::{fmt_s, timed, write_report, BenchConfig, USAGE};
use lra_core::{factorize_ranks, IlutOpts, MemStats};
use lra_matgen::TestMatrix;
use lra_obs::{BenchEntry, MetricsRegistry, BENCH_SCHEMA_VERSION};

/// Block size for the sweep.
const BLOCK_K: usize = 16;
/// Relative tolerance for the sweep.
const TAU: f64 = 1e-2;

fn main() {
    let mut out_path = "BENCH_mem_scaling.json".to_string();
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().unwrap_or_else(|| fail("--out requires a value")),
            _ => rest.push(a),
        }
    }
    let cfg = BenchConfig::parse_args(&rest).unwrap_or_else(|err| fail(&err));

    // A fill-heavy block matrix: dense coupled blocks make the Schur
    // complement fill in, which is exactly the storage the sharded
    // driver distributes.
    let tm = matrix(cfg.scale);
    let a = &tm.a;
    println!(
        "MEM SCALING — {} ({}x{}, {} nnz), tau={TAU:.0e}, k={BLOCK_K} (schema v{BENCH_SCHEMA_VERSION})",
        tm.label,
        a.rows(),
        a.cols(),
        a.nnz()
    );

    let opts = IlutOpts::new(BLOCK_K, TAU, 4);
    let reg = MetricsRegistry::new();
    let mut entries: Vec<BenchEntry> = Vec::new();
    let mut peaks: Vec<(usize, MemStats)> = Vec::new();
    let a2a = lra_comm::COLLECTIVE_FAMILIES
        .iter()
        .position(|f| *f == "alltoallv")
        .expect("alltoallv is a collective family");
    for np in [1usize, 4] {
        let (report, wall) = timed(|| {
            factorize_ranks(a, &opts, np, &lra_comm::RunConfig::default(), None)
                .expect("valid input")
        });
        let posted: u64 = report.stats.iter().map(|s| s.overlap_posted).sum();
        let wait_ns: u64 = report.stats.iter().map(|s| s.overlap_wait_ns).sum();
        let wire: u64 = report.stats.iter().map(|s| s.bytes_on_wire[a2a]).sum();
        let res = report.unwrap_all().swap_remove(0);
        let mem = res.mem.expect("sharded driver reports mem");
        reg.set_gauge(&format!("mem.peak_rank_bytes.np{np}"), mem.peak_rank_bytes as f64);
        reg.set_gauge(&format!("mem.peak_rank_nnz.np{np}"), mem.peak_rank_nnz as f64);
        reg.set_gauge(&format!("comm.overlap_posted.np{np}"), posted as f64);
        reg.set_gauge(&format!("comm.overlap_wait_s.np{np}"), wait_ns as f64 / 1e9);
        reg.set_gauge(&format!("comm.bytes.alltoallv.np{np}"), wire as f64);
        println!(
            "np={np}: wall={} rank={} peak_rank_nnz={} peak_rank_bytes={}",
            fmt_s(wall),
            res.rank,
            mem.peak_rank_nnz,
            mem.peak_rank_bytes
        );
        let run = Run::of_lu(res, wall, a, cfg.par());
        entries.push(run.bench_entry("ilut_crtp_spmd", &tm.label, a, (TAU, BLOCK_K, np)));
        peaks.push((np, mem));
    }

    write_report("mem_scaling", &cfg, 4, entries, &reg, &out_path).unwrap_or_else(|err| fail(&err));

    // The tentpole claim: resident Schur storage is O(nnz/np) + panel,
    // so 4x the ranks must at least halve the per-rank peak.
    let p1 = peaks[0].1;
    let p4 = peaks[1].1;
    if 2 * p4.peak_rank_nnz >= p1.peak_rank_nnz || p4.peak_rank_bytes >= p1.peak_rank_bytes {
        eprintln!(
            "FAIL: np=4 peak ({} nnz, {} bytes) not below half of np=1 peak ({} nnz, {} bytes)",
            p4.peak_rank_nnz, p4.peak_rank_bytes, p1.peak_rank_nnz, p1.peak_rank_bytes
        );
        std::process::exit(1);
    }
    println!(
        "OK: per-rank peak nnz {} -> {} ({:.2}x) going np=1 -> np=4",
        p1.peak_rank_nnz,
        p4.peak_rank_nnz,
        p1.peak_rank_nnz as f64 / p4.peak_rank_nnz.max(1) as f64
    );
}

fn matrix(scale: usize) -> TestMatrix {
    let base = lra_matgen::fluid_block(12 * scale.max(1), 10, 31);
    let a = lra_matgen::with_decay(&base, 1e-7, 33);
    TestMatrix {
        label: format!("fluid{}x10", 12 * scale.max(1)),
        name: "fluid_block+decay".to_string(),
        description: "fill-heavy coupled fluid blocks with spectral decay".to_string(),
        a,
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE} [--out PATH]");
    std::process::exit(2);
}
