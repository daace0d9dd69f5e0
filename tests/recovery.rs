//! Recovery-layer integration tests: typed input validation at the API
//! boundary, checkpoint/restart bitwise fidelity, supervised survival
//! of rank kills with the fixed-precision guarantee intact, and a chaos
//! soak over randomized fault plans.

use std::time::Duration;

use lra::core::{
    explore_fault_space, ilut_crtp, ilut_crtp_checkpointed, ilut_crtp_spmd_checkpointed,
    ilut_crtp_supervised, ilut_crtp_supervised_with_store, lu_crtp_dist_checked, rand_qb_ei,
    rand_qb_ei_checkpointed, Budget, Checkpoint, CheckpointStore, ExploreConfig, FaultPlan,
    IlutOpts, InvalidInput, LuCrtpCheckpoint, LuCrtpOpts, QbOpts, RecoveryError, RecoveryHooks,
    RecoveryPolicy, RunConfig, StorageFaultPlan, SupervisedError,
};
use lra::obs::Json;
use lra::sparse::CscMatrix;

mod common;
use common::{assert_fixed_precision, bits_eq, counter, fault_ilut_opts, fault_matrix};

// ---- Satellite: typed input validation --------------------------------

#[test]
fn zero_block_size_is_rejected() {
    assert!(matches!(
        LuCrtpOpts::try_new(0, 1e-3),
        Err(InvalidInput::ZeroBlockSize)
    ));
}

#[test]
fn nonpositive_or_nonfinite_tau_is_rejected() {
    for tau in [0.0, -1e-3, f64::NAN, f64::INFINITY] {
        assert!(
            matches!(LuCrtpOpts::try_new(8, tau), Err(InvalidInput::BadTau { .. })),
            "tau = {tau}"
        );
    }
}

#[test]
fn zero_iteration_estimate_is_rejected() {
    assert!(matches!(
        IlutOpts::try_new(8, 1e-3, 0),
        Err(InvalidInput::ZeroIterationEstimate)
    ));
}

#[test]
fn bad_phi_factor_is_rejected_by_validate() {
    let mut opts = IlutOpts::new(8, 1e-3, 4);
    opts.phi_factor = -0.5;
    assert!(matches!(
        opts.validate(),
        Err(InvalidInput::BadPhiFactor { .. })
    ));
}

#[test]
fn empty_matrix_is_a_typed_error_not_a_rank_panic() {
    let empty = CscMatrix::from_parts(0, 0, vec![0], vec![], vec![]);
    let err = lu_crtp_dist_checked(&empty, &LuCrtpOpts::new(4, 1e-3), 2, &RunConfig::default())
        .unwrap_err();
    assert!(matches!(err, InvalidInput::EmptyMatrix { .. }));
}

#[test]
fn supervised_entry_rejects_invalid_opts_before_spawning() {
    let a = lra::matgen::spectrum(16, 12, &[2.0, 1.0, 0.5], 4, 7);
    let mut opts = IlutOpts::new(4, 1e-3, 4);
    opts.base.tau = -1.0;
    let err = ilut_crtp_supervised(
        &a,
        &opts,
        2,
        &RunConfig::default(),
        &RecoveryPolicy::default(),
        1,
    )
    .unwrap_err();
    assert!(matches!(
        err,
        SupervisedError::Invalid(InvalidInput::BadTau { .. })
    ));
}

// ---- Tentpole: checkpoint/restart bitwise fidelity --------------------

/// An interrupted SPMD ILUT run (rank 0 killed at iteration 3) resumed
/// from its latest checkpoint on the *same* grid must produce factors
/// bitwise identical to an uninterrupted run: the snapshot is taken at
/// a collective boundary where the replicated state is exact, and the
/// `Json` round trip preserves every f64 bit.
#[test]
fn resume_from_checkpoint_is_bitwise_identical_to_uninterrupted_run() {
    let a = fault_matrix(11);
    let opts = fault_ilut_opts();
    let np = 2;

    // Uninterrupted reference.
    let clean = lra::comm::run_with(np, &RunConfig::default(), |ctx| {
        ilut_crtp_spmd_checkpointed(ctx, &a, &opts, None)
    });
    let reference = clean.results.into_iter().next().unwrap().unwrap().unwrap();
    assert!(
        reference.iterations > 3,
        "need enough iterations to interrupt at iteration 3 (got {})",
        reference.iterations
    );

    // Interrupted run: rank 0 dies at iteration 3, after the snapshots
    // for iterations 1 and 2 were persisted.
    let store = CheckpointStore::in_memory();
    let hooks = RecoveryHooks::new(&store, 1);
    let cfg = RunConfig::default()
        .with_watchdog(Duration::from_secs(20))
        .with_faults(FaultPlan::new().kill_rank_at_iteration(0, 3));
    let broken = lra::comm::run_with(np, &cfg, |ctx| {
        ilut_crtp_spmd_checkpointed(ctx, &a, &opts, Some(&hooks))
    });
    assert!(!broken.all_ok(), "the kill must actually interrupt the run");
    assert!(store.saves() >= 2, "snapshots for iterations 1-2 expected");

    // Resume on the same grid from the surviving checkpoint.
    let resumed = lra::comm::run_with(np, &RunConfig::default(), |ctx| {
        ilut_crtp_spmd_checkpointed(ctx, &a, &opts, Some(&hooks))
    });
    let resumed = resumed.results.into_iter().next().unwrap().unwrap().unwrap();

    assert_eq!(resumed.rank, reference.rank);
    assert_eq!(resumed.iterations, reference.iterations);
    assert_eq!(resumed.pivot_rows, reference.pivot_rows);
    assert_eq!(resumed.pivot_cols, reference.pivot_cols);
    assert_eq!(resumed.indicator.to_bits(), reference.indicator.to_bits());
    for (got, want) in [(&resumed.l, &reference.l), (&resumed.u, &reference.u)] {
        assert_eq!(got.colptr(), want.colptr());
        assert_eq!(got.rowidx(), want.rowidx());
        assert!(bits_eq(got.values(), want.values()));
    }
}

/// Shrink-and-resume redistributes the shards: a sharded SPMD run on
/// `np = 3` is killed mid-factorization, then resumed on `np = 2`.
/// The checkpoint stores the full Schur complement (gathered from the
/// per-rank shard envelopes at a collective boundary), and on restore
/// each rank of the *smaller* grid re-slices its own block-column
/// shard — so the resume must complete, meet the fixed-precision
/// bound, and be fully deterministic (two identical resumes agree
/// bitwise). An np=3-vs-np=2 bitwise match is impossible by design:
/// the tournament partition, and therefore the pivots, depend on the
/// rank count.
#[test]
fn shrink_resume_redistributes_shards_across_fewer_ranks() {
    let a = fault_matrix(11);
    let opts = fault_ilut_opts();

    // Interrupted np=3 run: rank 1 dies at iteration 3. The iteration-1
    // snapshot is guaranteed persisted (rank 0 only enters iteration 2's
    // synchronizing collectives after writing it); the iteration-2
    // snapshot is racy by design — the sharded checkpoint is itself a
    // gatherv collective, and the dying rank's poison can reach rank 0
    // while it is still gathering the shard envelopes.
    let store = CheckpointStore::in_memory();
    let hooks = RecoveryHooks::new(&store, 1);
    let cfg = RunConfig::default()
        .with_watchdog(Duration::from_secs(20))
        .with_faults(FaultPlan::new().kill_rank_at_iteration(1, 3));
    let broken = lra::comm::run_with(3, &cfg, |ctx| {
        ilut_crtp_spmd_checkpointed(ctx, &a, &opts, Some(&hooks))
    });
    assert!(!broken.all_ok(), "the kill must actually interrupt the run");
    assert!(store.saves() >= 1, "at least the iteration-1 snapshot expected");

    // Resume twice on the shrunk grid from the np=3-written snapshot.
    let resume = || {
        let out = lra::comm::run_with(2, &RunConfig::default(), |ctx| {
            ilut_crtp_spmd_checkpointed(ctx, &a, &opts, Some(&hooks))
        });
        out.results.into_iter().next().unwrap().unwrap().unwrap()
    };
    let first = resume();
    let second = resume();

    assert!(first.converged, "{:?}", first.breakdown);
    assert_fixed_precision(&first, &a, opts.base.tau, "shrink-resume");

    // Determinism of the redistributed resume.
    assert_eq!(second.rank, first.rank);
    assert_eq!(second.iterations, first.iterations);
    assert_eq!(second.pivot_rows, first.pivot_rows);
    assert_eq!(second.pivot_cols, first.pivot_cols);
    assert_eq!(second.indicator.to_bits(), first.indicator.to_bits());
    for (got, want) in [(&second.l, &first.l), (&second.u, &first.u)] {
        assert_eq!(got.colptr(), want.colptr());
        assert_eq!(got.rowidx(), want.rowidx());
        assert!(bits_eq(got.values(), want.values()));
    }
}

/// Same property for RandQB_EI, whose resume additionally has to replay
/// the RNG draw count to keep the sketch stream aligned.
#[test]
fn qb_resume_from_checkpoint_is_bitwise_identical() {
    let a = lra::matgen::with_decay(&lra::matgen::fem2d(20, 18, 5), 1e-5, 2);
    let opts = QbOpts::new(4, 1e-3);

    let reference = rand_qb_ei(&a, &opts).unwrap();
    assert!(
        reference.iterations >= 2,
        "need at least one checkpointable iteration (got {})",
        reference.iterations
    );

    // A full checkpointed run leaves its last pre-convergence snapshot
    // in the store; a fresh call resumes there and replays only the
    // final block iteration.
    let store = CheckpointStore::in_memory();
    let hooks = RecoveryHooks::new(&store, 1);
    let first = rand_qb_ei_checkpointed(&a, &opts, Some(&hooks)).unwrap();
    assert!(store.saves() >= 1);
    let resumed = rand_qb_ei_checkpointed(&a, &opts, Some(&hooks)).unwrap();

    for run in [&first, &resumed] {
        assert_eq!(run.rank, reference.rank);
        assert_eq!(run.iterations, reference.iterations);
        assert_eq!(run.indicator.to_bits(), reference.indicator.to_bits());
        assert!(bits_eq(run.q.as_slice(), reference.q.as_slice()));
        assert!(bits_eq(run.b.as_slice(), reference.b.as_slice()));
    }
}

/// A stored envelope is outside input. Builds that had a relaxed
/// numerics mode tagged every snapshot with the mode that wrote it; a
/// `"fast"` snapshot found in a store is an unusable checkpoint — guard
/// trip, fresh start — never a resume (that would splice two rounding
/// regimes) and never an error or a panic. The planted snapshot's trace
/// is doctored, so resuming from it would show in the result.
#[test]
fn foreign_numerics_tagged_snapshot_is_ignored_and_the_run_starts_fresh() {
    struct FastTagged(LuCrtpCheckpoint);
    impl Checkpoint for FastTagged {
        const KIND: &'static str = LuCrtpCheckpoint::KIND;
        fn iteration(&self) -> usize {
            self.0.iterations
        }
        fn state_to_json(&self) -> Json {
            let Json::Obj(mut fields) = self.0.state_to_json() else {
                panic!("checkpoint state is an object")
            };
            fields.retain(|(key, _)| key != "numerics");
            fields.push(("numerics".to_string(), Json::Str("fast".to_string())));
            Json::Obj(fields)
        }
        fn state_from_json(_: &Json) -> Result<Self, String> {
            unreachable!("only ever saved")
        }
    }

    let a = fault_matrix(11);
    let opts = fault_ilut_opts();
    let reference = ilut_crtp(&a, &opts);

    // A genuine two-iteration snapshot of this very run...
    let scratch = CheckpointStore::in_memory();
    let capped = opts
        .clone()
        .with_budget(Budget::unlimited().with_iteration_cap(2));
    ilut_crtp_checkpointed(&a, &capped, Some(&RecoveryHooks::new(&scratch, 1))).unwrap();
    let mut planted: LuCrtpCheckpoint = scratch.load().unwrap().unwrap();
    assert_eq!(planted.iterations, 2);
    // ...doctored and re-tagged as the newest generation of the store
    // the run under test is handed.
    planted.trace[0].indicator = 12345.0;
    let store = CheckpointStore::in_memory();
    store.save(&FastTagged(planted)).unwrap();

    let trips_before = counter("recover.guard_trip");
    let got = ilut_crtp_checkpointed(&a, &opts, Some(&RecoveryHooks::new(&store, 1))).unwrap();
    assert!(counter("recover.guard_trip") > trips_before);

    assert_eq!(got.iterations, reference.iterations);
    assert_eq!(got.pivot_rows, reference.pivot_rows);
    assert_eq!(got.pivot_cols, reference.pivot_cols);
    assert_eq!(got.indicator.to_bits(), reference.indicator.to_bits());
    for (g, r) in got.trace.iter().zip(&reference.trace) {
        assert_eq!(g.indicator.to_bits(), r.indicator.to_bits());
    }
    for (g, r) in [(&got.l, &reference.l), (&got.u, &reference.u)] {
        assert_eq!(g.colptr(), r.colptr());
        assert_eq!(g.rowidx(), r.rowidx());
        assert!(bits_eq(g.values(), r.values()));
    }
}

// ---- Tentpole: supervised survival of a rank kill ---------------------

/// The acceptance scenario: ILUT_CRTP under a fault plan that kills one
/// rank mid-factorization completes through the supervisor on a shrunk
/// grid, the fixed-precision guarantee verifies against `exact_error`,
/// and the recovery actions are visible as metrics and trace instants.
#[test]
fn supervised_ilut_survives_rank_kill_with_guarantee_intact() {
    lra::obs::trace::enable();
    let ckpt_before = counter("recover.checkpoint");
    let resume_before = counter("recover.resume");

    let a = lra::matgen::spectrum(48, 40, &[5.0, 2.0, 1.0, 0.4, 0.1, 0.04], 6, 3);
    let opts = IlutOpts::new(4, 1e-6, 8);
    let cfg = RunConfig::default()
        .with_watchdog(Duration::from_secs(20))
        .with_faults(FaultPlan::new().kill_rank_at_iteration(1, 2));
    let out = ilut_crtp_supervised(&a, &opts, 3, &cfg, &RecoveryPolicy::default(), 1)
        .expect("supervisor must absorb a single rank kill");

    assert_eq!(out.final_np, 2, "grid shrinks by one after the kill");
    assert_eq!(out.attempts, 1, "exactly one recovery action (the resume)");
    assert!(!out.degraded);
    let r = &out.value;
    assert!(r.converged, "resumed run must still converge");
    assert_fixed_precision(r, &a, opts.base.tau, "supervised rank-kill recovery");

    // Recovery is observable: counters bumped, resume instant traced.
    assert!(counter("recover.checkpoint") > ckpt_before);
    assert!(counter("recover.resume") > resume_before);
    let events = lra::obs::trace::snapshot_events();
    assert!(
        events
            .iter()
            .any(|e| e.name == "recover.resume" && e.ph == 'i'),
        "recover.resume instant missing from the trace"
    );
}

// ---- Satellite: chaos soak --------------------------------------------
//
// The soak's deterministic half used to be twelve magic seeds; it is
// now the fault-point explorer's site enumeration — every iteration ×
// {rank kill, watchdog timeout} at np=3 — which covers the comm-fault
// space exhaustively and reproducibly instead of by seed arithmetic.
// A smaller random residue keeps cross-fault combinations (comm chaos
// × seeded storage faults) in play.

/// Derive a deterministic chaos plan from a seed: one of rank-kill,
/// delivery delay, or message drop, at seed-dependent coordinates.
fn chaos_plan(seed: u64, np: usize) -> (FaultPlan, Duration) {
    let rank = (seed as usize * 7 + 1) % np;
    match seed % 3 {
        0 => (
            FaultPlan::new().kill_rank_at_iteration(rank, 1 + seed % 4),
            Duration::from_secs(20),
        ),
        1 => (
            FaultPlan::new().delay_deliveries(seed, Duration::from_micros(200)),
            Duration::from_secs(20),
        ),
        _ => (
            // A dropped message hangs a collective until the watchdog
            // fires; keep it short so retries stay cheap.
            FaultPlan::new().drop_nth_send(rank, 3 + seed % 8),
            Duration::from_millis(400),
        ),
    }
}

/// Every run must end in exactly one of two outcomes: a completed
/// factorization that meets the fixed-precision bound, or a typed
/// recovery error. A panic escaping the supervisor fails the test by
/// itself.
#[test]
fn chaos_soak_always_completes_or_fails_typed() {
    let a = fault_matrix(19);
    let opts = fault_ilut_opts();
    let np = 3;

    // Deterministic half: every comm injection site, enumerated by the
    // explorer. (The storage half of the site space is explored
    // exhaustively in tests/fault_explorer.rs; here storage faults
    // enter through the seeded residue below, combined with comm
    // chaos. The cancel half is swept by tests/fault_explorer.rs and
    // tests/budget.rs.)
    let cfg = ExploreConfig {
        np,
        ckpt_every: 1,
        watchdog: Duration::from_millis(300),
        stall: Duration::from_millis(900),
        policy: RecoveryPolicy::default().with_backoff(Duration::from_millis(5)),
        comm_sites: true,
        overlap_sites: false,
        storage_sites: false,
        cancel_sites: false,
        on_disk: None,
        strict: true,
    };
    let report = explore_fault_space(&a, &opts, &cfg).expect("clean probe run must succeed");
    assert!(
        report.all_ok(),
        "deterministic site enumeration has violations:\n{}",
        report.render_table()
    );
    assert_eq!(
        report.verdicts.len(),
        2 * report.iterations,
        "expected one kill and one timeout site per iteration:\n{}",
        report.render_table()
    );

    // Random residue: seeded comm chaos with one seeded storage fault
    // layered on the checkpoint store of each run.
    let policy = RecoveryPolicy::default()
        .with_max_retries(3)
        .with_backoff(Duration::from_millis(5));
    let mut completed = 0usize;
    for seed in 0..4u64 {
        let (faults, watchdog) = chaos_plan(seed, np);
        let cfg = RunConfig::default()
            .with_watchdog(watchdog)
            .with_faults(faults);
        let store = CheckpointStore::in_memory().with_faults(StorageFaultPlan::seeded(
            seed,
            report.saves,
            np as u64,
        ));
        match ilut_crtp_supervised_with_store(&a, &opts, np, &cfg, &policy, 1, &store) {
            Ok(out) => {
                assert_fixed_precision(
                    &out.value,
                    &a,
                    opts.base.tau,
                    &format!("chaos seed {seed}"),
                );
                completed += 1;
            }
            Err(SupervisedError::Recovery(
                RecoveryError::RecoveryExhausted { .. } | RecoveryError::DeadlineExceeded { .. },
            )) => {}
            Err(other) => panic!("seed {seed}: untyped/unexpected failure {other}"),
        }
    }
    // Kills and delays stay absorbable even with a storage fault in the
    // plan (corrupt generations roll back, failed saves trip the
    // guard); seeds 0, 1 and 3 are those flavors.
    assert!(completed >= 3, "only {completed}/4 residue runs completed");
}

// ---- Satellite: cross-instance resume ---------------------------------

/// A parked job must be resumable by a *different* owner: park an
/// `Outcome::Interrupted` into an on-disk store, drop every in-memory
/// handle (the store object, the hooks, the interrupted record), then
/// reopen the directory as a fresh `CheckpointStore` — the way a new
/// process would — and resume against it. The resumed run must match
/// the uninterrupted oracle bit for bit.
#[test]
fn parked_job_resumes_bitwise_from_a_freshly_opened_on_disk_store() {
    use lra::core::{Budget, JobId, Outcome};

    let a = fault_matrix(17);
    let opts = fault_ilut_opts();
    let np = 2;
    let interrupt_at: u64 = 3;
    let dir = std::env::temp_dir().join(format!(
        "lra_serve_xresume_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // Uninterrupted oracle at the same rank count.
    let reference = {
        let mut r = lra::comm::run_infallible(np, |ctx| {
            ilut_crtp_spmd_checkpointed(ctx, &a, &opts, None).unwrap()
        });
        r.swap_remove(0)
    };
    assert!(
        reference.iterations > interrupt_at as usize,
        "need room to interrupt"
    );

    // "Process one": interrupt deterministically at iteration 3 (the
    // cap lives only in this pass'''s budget — the resume below runs
    // without it), park the Interrupted outcome, drop every in-memory
    // handle.
    let parked_iteration = {
        let store = CheckpointStore::on_disk(&dir);
        let hooks = RecoveryHooks::new(&store, 1);
        let capped = opts
            .clone()
            .with_budget(Budget::unlimited().with_iteration_cap(interrupt_at));
        let mut results = lra::comm::run_infallible(np, |ctx| {
            ilut_crtp_spmd_checkpointed(ctx, &a, &capped, Some(&hooks)).unwrap()
        });
        let interrupted = match results.swap_remove(0).into_outcome() {
            Outcome::Interrupted(i) => i,
            Outcome::Completed(_) => panic!("iteration cap must interrupt the run"),
        };
        let parked = interrupted.park(JobId(7));
        assert_eq!(parked.preemptions, 1);
        let at = parked
            .resume_iteration()
            .expect("a capped run past iteration 1 has a resume point");
        assert_eq!(at as u64, interrupt_at);
        assert!(
            store.saves() >= interrupt_at,
            "the trip-boundary snapshots must be on disk"
        );
        at
        // `store`, `hooks`, `parked` all drop here: no in-memory state
        // survives into the resume below.
    };

    // "Process two": a freshly opened store over the same directory.
    let resumed = {
        let store = CheckpointStore::on_disk(&dir);
        assert_eq!(store.saves(), 0, "fresh handle starts with fresh counters");
        let hooks = RecoveryHooks::new(&store, 1);
        let mut r = lra::comm::run_infallible(np, |ctx| {
            ilut_crtp_spmd_checkpointed(ctx, &a, &opts, Some(&hooks)).unwrap()
        });
        let resumed = r.swap_remove(0);
        assert!(
            store.loads() > 0,
            "the resume must restore from the reopened store, not recompute"
        );
        resumed
    };
    assert!(
        resumed.iterations > parked_iteration,
        "resume continues past the parked iteration"
    );

    assert_eq!(resumed.rank, reference.rank);
    assert_eq!(resumed.iterations, reference.iterations);
    assert_eq!(resumed.pivot_rows, reference.pivot_rows);
    assert_eq!(resumed.pivot_cols, reference.pivot_cols);
    assert_eq!(resumed.indicator.to_bits(), reference.indicator.to_bits());
    for (got, want) in [(&resumed.l, &reference.l), (&resumed.u, &reference.u)] {
        assert_eq!(got.colptr(), want.colptr());
        assert_eq!(got.rowidx(), want.rowidx());
        assert!(bits_eq(got.values(), want.values()));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
