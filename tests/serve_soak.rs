//! Multi-tenant soak for the `lra-serve` job engine.
//!
//! The load-bearing claim: scheduling is *invisible in the numbers*.
//! However a job got to its result — packed beside strangers on the
//! rank pool, preempted and resumed from a checkpoint, or served
//! straight from the factor cache — the factors must be bitwise
//! identical to a solo run of the same driver on the same rank count.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{bits_eq, counter, dist, fault_ilut_opts, fault_matrix};
use lra::core::{IlutOpts, InvalidInput, LuCrtpResult, OrderingMode, Parallelism};
use lra::matgen::{fem2d, with_decay};
use lra::serve::{AdmissionError, AdmissionPolicy, Algorithm, JobSpec, Server, ServerConfig};
use lra::sparse::CscMatrix;

fn assert_same_factors(ours: &LuCrtpResult, oracle: &LuCrtpResult, label: &str) {
    assert_eq!(ours.rank, oracle.rank, "{label}: rank");
    assert_eq!(ours.pivot_rows, oracle.pivot_rows, "{label}: pivot rows");
    assert_eq!(ours.pivot_cols, oracle.pivot_cols, "{label}: pivot cols");
    assert!(bits_eq(ours.l.values(), oracle.l.values()), "{label}: L bits");
    assert!(bits_eq(ours.u.values(), oracle.u.values()), "{label}: U bits");
}

/// A matrix big enough that its factorization spans many block
/// iterations — the preemption victim must still be running when the
/// high-priority job arrives.
fn slow_matrix(seed: u64) -> CscMatrix {
    with_decay(&fem2d(24, 20, seed), 1e-6, 3)
}

fn slow_opts() -> IlutOpts {
    IlutOpts::new(2, 1e-6, 8)
}

#[test]
fn preempted_job_resumes_bitwise_identical() {
    let server = Server::new(ServerConfig::default().with_ranks(4));
    let victim_a = Arc::new(slow_matrix(11));
    let victim_opts = slow_opts();
    let urgent_a = Arc::new(fault_matrix(12));
    let urgent_opts = fault_ilut_opts();

    let preemptions_before = counter("serve.preemptions");
    let resumes_before = counter("serve.resumes");

    // Low-priority job takes the whole pool...
    let victim = server
        .submit(
            JobSpec::new(Arc::clone(&victim_a), Algorithm::IlutCrtp(victim_opts.clone()))
                .with_ranks(4)
                .with_priority(0)
                .with_label("victim"),
        )
        .unwrap();
    server.wait_until_running(victim);
    // ...then a high-priority job arrives needing ranks it holds.
    let urgent = server
        .submit(
            JobSpec::new(Arc::clone(&urgent_a), Algorithm::IlutCrtp(urgent_opts.clone()))
                .with_ranks(4)
                .with_priority(9)
                .with_label("urgent"),
        )
        .unwrap();

    let urgent_report = server.wait(urgent);
    let victim_report = server.wait(victim);
    server.shutdown();

    assert!(
        victim_report.preemptions >= 1,
        "the low-priority job must have been preempted at least once"
    );
    assert_eq!(
        victim_report.driver_calls,
        1 + victim_report.preemptions,
        "every preemption is followed by exactly one resume dispatch"
    );
    assert!(counter("serve.preemptions") > preemptions_before);
    assert!(counter("serve.resumes") > resumes_before);

    // Both jobs — including the preempted-and-resumed one — match
    // their uninterrupted solo oracles bit for bit.
    let victim_result = victim_report.into_result();
    assert_same_factors(&victim_result, &dist(&victim_a, &victim_opts, 4), "victim");
    let urgent_result = urgent_report.into_result();
    assert_same_factors(&urgent_result, &dist(&urgent_a, &urgent_opts, 4), "urgent");
}

#[test]
fn mixed_priority_soak_matches_solo_runs() {
    let server = Server::new(ServerConfig::default().with_ranks(4));

    // 10 jobs: mixed priorities, mixed rank-group sizes, one
    // deliberate duplicate pair (jobs 0 and 8 share matrix, options
    // and rank count, so the later one can be served from cache if it
    // is still queued when the first completes — or runs the driver
    // and produces identical bits; either way the oracle check below
    // holds).
    let mk = |seed: u64| Arc::new(fault_matrix(seed));
    let mats: Vec<Arc<CscMatrix>> = (0..8).map(|i| mk(20 + i)).collect();
    let opts = fault_ilut_opts();
    let plan: Vec<(usize, u8, usize)> = vec![
        // (matrix index, priority, ranks)
        (0, 0, 4),
        (1, 3, 2),
        (2, 7, 1),
        (3, 1, 2),
        (4, 9, 4),
        (5, 2, 1),
        (6, 5, 2),
        (7, 4, 1),
        (0, 6, 4), // duplicate of job 0's request at higher priority
        (2, 0, 2), // same matrix as job 2, different rank count
    ];
    let ids: Vec<_> = plan
        .iter()
        .enumerate()
        .map(|(n, &(mi, priority, ranks))| {
            server
                .submit(
                    JobSpec::new(Arc::clone(&mats[mi]), Algorithm::IlutCrtp(opts.clone()))
                        .with_priority(priority)
                        .with_ranks(ranks)
                        .with_label(format!("soak-{n}")),
                )
                .unwrap()
        })
        .collect();

    let reports: Vec<_> = ids.iter().map(|id| server.wait(*id)).collect();
    let scrape = server.scrape();
    server.shutdown();

    // Zero lost jobs: every submission produced a completed outcome.
    assert_eq!(reports.len(), plan.len());
    for (report, &(_, _, ranks)) in reports.iter().zip(&plan) {
        assert!(
            !report.outcome.is_interrupted(),
            "{}: no job set its own limits, so none may end interrupted",
            report.job
        );
        assert!(report.from_cache || report.driver_calls >= 1);
        let _ = ranks;
    }

    // Bitwise against the solo oracle at each job's own rank count.
    for (report, &(mi, _, ranks)) in reports.into_iter().zip(&plan) {
        let label = format!("soak job on matrix {mi} at np={ranks}");
        let oracle = dist(&mats[mi], &opts, ranks);
        assert_same_factors(&report.into_result(), &oracle, &label);
    }

    // The scrape is valid JSON carrying the serve metrics and the
    // per-collective wire traffic of the jobs it ran: a sharded ILUT
    // job always re-shards over alltoallv, so its byte counter must be
    // present and nonzero, as must the posted-overlap counter.
    let parsed = lra::obs::Json::parse(&scrape).expect("scrape must parse");
    assert_eq!(
        parsed.get("schema").and_then(|s| s.as_str()),
        Some("serve_scrape_v1")
    );
    assert!(parsed.get("metrics").is_some());
    let comm = parsed.get("comm").expect("scrape must carry a comm section");
    let comm_num = |key: &str| {
        comm.get(key)
            .and_then(lra::obs::Json::as_f64)
            .unwrap_or_else(|| panic!("comm section missing {key}: {scrape}"))
    };
    assert!(comm_num("comm.bytes.alltoallv") > 0.0, "{scrape}");
    assert!(comm_num("comm.overlap.hidden_ns") > 0.0, "{scrape}");
}

#[test]
fn repeated_request_is_served_from_cache_without_driver_call() {
    let server = Server::new(ServerConfig::default().with_ranks(2));
    let a = Arc::new(fault_matrix(31));
    let opts = fault_ilut_opts();
    let submit = |opts: &IlutOpts| {
        server
            .submit(
                JobSpec::new(Arc::clone(&a), Algorithm::IlutCrtp(opts.clone())).with_ranks(2),
            )
            .unwrap()
    };

    let first = server.wait(submit(&opts));
    assert!(!first.from_cache);
    assert_eq!(first.driver_calls, 1);

    // Factor bits do not depend on the intra-rank worker count, so a
    // request that differs from the first only in `par` is the same
    // cache entry.
    let mut more_workers = opts.clone();
    more_workers.base.par = Parallelism::new(2);
    let hits_before = counter("serve.cache_hit");
    let driver_calls_before = counter("serve.driver_calls");
    let second = server.wait(submit(&opts));
    let third = server.wait(submit(&more_workers));
    for (label, hit) in [
        ("identical request", &second),
        ("request with par = 2", &third),
    ] {
        assert!(hit.from_cache, "{label} must be a cache hit");
        assert_eq!(hit.driver_calls, 0, "{label}");
    }
    assert_eq!(counter("serve.cache_hit"), hits_before + 2);
    assert_eq!(
        counter("serve.driver_calls"),
        driver_calls_before,
        "a cache hit must not run the driver"
    );

    // The cached factors are the driver's factors, bit for bit.
    let r1 = first.into_result();
    assert_same_factors(&second.into_result(), &r1, "cache hit");
    assert_same_factors(&third.into_result(), &r1, "cache hit with par = 2");
    server.shutdown();
}

#[test]
fn deadline_guard_closes_job_with_partial_factors() {
    let server = Server::new(ServerConfig::default().with_ranks(1));
    let a = Arc::new(slow_matrix(41));
    let id = server
        .submit(
            JobSpec::new(a, Algorithm::IlutCrtp(slow_opts()))
                .with_ranks(1)
                .with_deadline(Duration::from_millis(5))
                .with_label("deadline"),
        )
        .unwrap();
    let report = server.wait(id);
    server.shutdown();
    let interrupted = report
        .outcome
        .interrupted()
        .expect("a 5ms deadline on a many-iteration factorization must trip");
    assert!(interrupted.is_cancelled(), "deadline guards fire cancel tokens");
    assert!(interrupted.achieved_tolerance.is_finite());
}

#[test]
fn admission_control_rejects_over_limit_submissions() {
    let server = Server::new(
        ServerConfig::default()
            .with_ranks(2)
            .with_admission(AdmissionPolicy {
                max_depth: 64,
                max_matrix_bytes: 64,
            }),
    );
    let rejected_before = counter("serve.admission_rejected");
    let a = Arc::new(fault_matrix(51));
    let err = server
        .submit(JobSpec::new(Arc::clone(&a), Algorithm::IlutCrtp(fault_ilut_opts())))
        .unwrap_err();
    assert!(matches!(err, AdmissionError::MatrixTooLarge { .. }));
    // What `factorize_ranks` refuses before spawning a rank, the door
    // refuses too: an option only the sequential engine honours, and a
    // matrix with a NaN entry.
    let mut every = fault_ilut_opts();
    every.base.ordering = OrderingMode::EveryIteration;
    let err = server
        .submit(JobSpec::new(Arc::clone(&a), Algorithm::IlutCrtp(every)))
        .unwrap_err();
    assert_eq!(
        err,
        AdmissionError::Invalid(InvalidInput::SequentialOnly {
            option: "OrderingMode::EveryIteration"
        })
    );
    let err = server
        .submit(
            JobSpec::new(a, Algorithm::IlutCrtp(fault_ilut_opts())).with_ranks(3),
        )
        .unwrap_err();
    assert!(matches!(
        err,
        AdmissionError::RanksUnavailable { requested: 3, pool: 2 }
    ));
    let nan = CscMatrix::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, f64::NAN]);
    let err = server
        .submit(JobSpec::new(
            Arc::new(nan),
            Algorithm::IlutCrtp(fault_ilut_opts()),
        ))
        .unwrap_err();
    assert!(matches!(
        err,
        AdmissionError::Invalid(InvalidInput::NonFiniteEntry { row: 1, col: 1, .. })
    ));
    assert_eq!(counter("serve.admission_rejected"), rejected_before + 4);
    server.shutdown();
}
