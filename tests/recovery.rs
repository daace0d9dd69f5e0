//! Recovery-layer integration tests: typed input validation at the API
//! boundary, checkpoint/restart bitwise fidelity, supervised survival
//! of rank kills with the fixed-precision guarantee intact, and a chaos
//! soak over randomized fault plans.

use std::time::Duration;

use lra::core::{
    explore_fault_space, factorize, factorize_ranks, factorize_supervised, ilut_crtp, rand_qb_ei,
    rand_qb_ei_checkpointed, Budget, Checkpoint, CheckpointStore, Exec, ExploreConfig, FaultPlan,
    IlutOpts, InvalidInput, LuCrtpCheckpoint, LuCrtpOpts, QbCheckpoint, QbOpts, RecoveryError,
    RecoveryHooks, RecoveryPolicy, RunConfig, SectionReader, SectionWriter, StorageFaultPlan,
    SupervisedError,
};
use lra::obs::Json;
use lra::sparse::CscMatrix;

mod common;
use common::{
    assert_fixed_precision, bits_eq, counter, dist, fault_ilut_opts, fault_matrix, oracle_matrices,
};

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
    let err = factorize_ranks(&empty, &LuCrtpOpts::new(4, 1e-3), 2, &RunConfig::default(), None)
        .unwrap_err();
    assert!(matches!(err, InvalidInput::EmptyMatrix { .. }));
}

#[test]
fn supervised_entry_rejects_invalid_opts_before_spawning() {
    let a = lra::matgen::spectrum(16, 12, &[2.0, 1.0, 0.5], 4, 7);
    let mut opts = IlutOpts::new(4, 1e-3, 4);
    opts.base.tau = -1.0;
    let err = factorize_supervised(
        &a,
        &opts,
        2,
        &RunConfig::default(),
        &RecoveryPolicy::default(),
        RecoveryHooks::new(&CheckpointStore::in_memory(), 1),
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
/// envelope carries every f64 as its own bits.
#[test]
fn resume_from_checkpoint_is_bitwise_identical_to_uninterrupted_run() {
    let a = fault_matrix(11);
    let opts = fault_ilut_opts();
    let np = 2;

    // Uninterrupted reference.
    let reference = dist(&a, &opts, np);
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
    let broken = factorize_ranks(&a, &opts, np, &cfg, Some(&hooks)).expect("valid input");
    assert!(!broken.all_ok(), "the kill must actually interrupt the run");
    assert!(store.saves() >= 2, "snapshots for iterations 1-2 expected");

    // Resume on the same grid from the surviving checkpoint.
    let resumed = factorize_ranks(&a, &opts, np, &RunConfig::default(), Some(&hooks))
        .expect("valid input")
        .unwrap_all()
        .swap_remove(0);

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
    let broken = factorize_ranks(&a, &opts, 3, &cfg, Some(&hooks)).expect("valid input");
    assert!(!broken.all_ok(), "the kill must actually interrupt the run");
    assert!(store.saves() >= 1, "at least the iteration-1 snapshot expected");

    // Resume twice on the shrunk grid from the np=3-written snapshot.
    let resume = || {
        factorize_ranks(&a, &opts, 2, &RunConfig::default(), Some(&hooks))
            .expect("valid input")
            .unwrap_all()
            .swap_remove(0)
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

// ---- Binary envelopes: round trip, size, earlier formats ---------------

/// The newest envelope of `store`: its length, its header length, and
/// the `u32` / `f64` word counts its section table declares.
fn envelope_shape(store: &CheckpointStore) -> (usize, usize, usize, usize) {
    let bytes = store.raw().unwrap().expect("a generation was saved");
    let header_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let header = lra::recover::envelope_header(&bytes).expect("a valid envelope");
    let words = |ty: &str| -> usize {
        let table = header.get("sections").and_then(Json::as_arr).unwrap();
        let of_type = table
            .iter()
            .filter(|s| s.get("type").and_then(Json::as_str) == Some(ty));
        of_type
            .map(|s| s.get("count").and_then(Json::as_usize).unwrap())
            .sum()
    };
    (bytes.len(), header_len, words("u32"), words("f64"))
}

/// The size pin that keeps text from coming back unnoticed: an envelope
/// is its header plus 4 bytes an index word plus 8 bytes a value word
/// (counted from the checkpoint itself, not from the envelope's own
/// table — which must agree) plus a fixed frame.
fn assert_binary_sized(store: &CheckpointStore, index_words: usize, value_words: usize, ctx: &str) {
    let (len, header_len, table_u32, table_f64) = envelope_shape(store);
    assert_eq!((table_u32, table_f64), (index_words, value_words), "{ctx}: section table");
    assert!(
        len <= header_len + 4 * index_words + 8 * value_words + 64,
        "{ctx}: {len}-byte envelope for {index_words} index + {value_words} value words"
    );
    assert!(header_len < 2048, "{ctx}: {header_len}-byte header holds more than scalars");
}

fn assert_lu_checkpoint_bitwise(got: &LuCrtpCheckpoint, want: &LuCrtpCheckpoint, ctx: &str) {
    assert_eq!((got.m, got.n), (want.m, want.n), "{ctx}");
    assert_eq!((got.iterations, got.rank), (want.iterations, want.rank), "{ctx}");
    assert_eq!(got.indicator.to_bits(), want.indicator.to_bits(), "{ctx}");
    assert_eq!(got.r11.to_bits(), want.r11.to_bits(), "{ctx}");
    assert_eq!((got.s.rows(), got.s.cols()), (want.s.rows(), want.s.cols()), "{ctx}");
    assert_eq!(got.s.colptr(), want.s.colptr(), "{ctx}");
    assert_eq!(got.s.rowidx(), want.s.rowidx(), "{ctx}");
    assert!(bits_eq(got.s.values(), want.s.values()), "{ctx}: schur values");
    assert_eq!(got.row_map, want.row_map, "{ctx}");
    assert_eq!(got.col_map, want.col_map, "{ctx}");
    for (g, w) in [(&got.l_cols, &want.l_cols), (&got.ut_cols, &want.ut_cols)] {
        assert_eq!(g.len(), w.len(), "{ctx}: panel columns");
        for (gc, wc) in g.iter().zip(w.iter()) {
            assert_eq!(gc.len(), wc.len(), "{ctx}: panel column length");
            for (&(gi, gv), &(wi, wv)) in gc.iter().zip(wc) {
                assert_eq!((gi, gv.to_bits()), (wi, wv.to_bits()), "{ctx}: panel entry");
            }
        }
    }
    assert_eq!(got.pivot_cols, want.pivot_cols, "{ctx}");
    assert_eq!(got.pivot_rows, want.pivot_rows, "{ctx}");
    assert_eq!(got.trace.len(), want.trace.len(), "{ctx}");
    for (g, w) in got.trace.iter().zip(want.trace.iter()) {
        assert_eq!((g.iteration, g.rank, g.schur_nnz), (w.iteration, w.rank, w.schur_nnz));
        assert_eq!(g.indicator.to_bits(), w.indicator.to_bits(), "{ctx}");
        assert_eq!(g.schur_density.to_bits(), w.schur_density.to_bits(), "{ctx}");
        assert_eq!(g.schur_nnz_per_row.to_bits(), w.schur_nnz_per_row.to_bits(), "{ctx}");
        assert!(bits_eq(&g.r_diag, &w.r_diag), "{ctx}: trace r_diag");
    }
    assert_eq!(got.ilut, want.ilut, "{ctx}");
    let (g, w) = (got.ilut.as_ref().unwrap(), want.ilut.as_ref().unwrap());
    for (a, b) in [(g.mu, w.mu), (g.phi, w.phi), (g.mass_sq, w.mass_sq)] {
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: ilut state");
    }
}

/// Checkpoints taken by real runs — sequential and two-rank SPMD
/// ILUT_CRTP stopped after three iterations on each preset — survive
/// save → load with every field bitwise equal, `-0.0` and a subnormal
/// planted in the panels included; the envelope is binary-sized; and the
/// SPMD-written snapshot still resumes under the sequential driver.
#[test]
fn real_lu_checkpoints_roundtrip_bitwise_in_binary_sized_envelopes() {
    for (name, a) in oracle_matrices() {
        let opts = IlutOpts::new(8, 1e-3, 4);
        let capped = opts
            .clone()
            .with_budget(Budget::unlimited().with_iteration_cap(3));
        let seq_store = CheckpointStore::in_memory();
        factorize(&a, &capped, Exec::Seq, Some(&RecoveryHooks::new(&seq_store, 1)));
        let spmd_store = CheckpointStore::in_memory();
        let hooks = RecoveryHooks::new(&spmd_store, 1);
        lra::comm::run_infallible(2, |ctx| factorize(&a, &capped, Exec::Spmd(ctx), Some(&hooks)));

        for (path, store) in [("sequential", &seq_store), ("spmd np=2", &spmd_store)] {
            let ctx = format!("{name}, {path}");
            let mut taken: LuCrtpCheckpoint = store.load().unwrap().expect("snapshots taken");
            assert_eq!(taken.iterations, 3, "{ctx}");
            taken.l_cols.to_mut()[0][0].1 = -0.0;
            taken.ut_cols.to_mut()[0][0].1 = f64::MIN_POSITIVE / 8.0;
            let second = CheckpointStore::in_memory();
            second.save(&taken).unwrap();
            let back: LuCrtpCheckpoint = second.load().unwrap().unwrap();
            assert_lu_checkpoint_bitwise(&back, &taken, &ctx);

            let panel_entries = |cols: &[Vec<(usize, f64)>]| cols.iter().map(Vec::len).sum::<usize>();
            let entries = panel_entries(&taken.l_cols) + panel_entries(&taken.ut_cols);
            let r_diags: usize = taken.trace.iter().map(|t| t.r_diag.len()).sum();
            let index_words = taken.s.colptr().len()
                + taken.s.rowidx().len()
                + taken.row_map.len()
                + taken.col_map.len()
                + taken.l_cols.len()
                + taken.ut_cols.len()
                + entries
                + taken.pivot_cols.len()
                + taken.pivot_rows.len()
                + 4 * taken.trace.len();
            let value_words = taken.s.values().len() + entries + 3 * taken.trace.len() + r_diags;
            assert_binary_sized(&second, index_words, value_words, &ctx);
        }

        // Degradation ladder's last rung: the two-rank snapshot resumed
        // sequentially continues that run's first three iterations.
        let snapshot: LuCrtpCheckpoint = spmd_store.load().unwrap().unwrap();
        let resumed = factorize(&a, &opts, Exec::Seq, Some(&hooks));
        assert!(resumed.converged, "{name}: {:?}", resumed.breakdown);
        assert_fixed_precision(&resumed, &a, opts.base.tau, name);
        assert_eq!(resumed.pivot_cols[..snapshot.rank], snapshot.pivot_cols[..], "{name}");
        for (g, w) in resumed.trace.iter().zip(snapshot.trace.iter()) {
            assert_eq!(g.indicator.to_bits(), w.indicator.to_bits(), "{name}");
        }
    }
}

/// Same for RandQB_EI (p = 1): blocks, history, residual and the RNG
/// draw count come back bit for bit.
#[test]
fn real_qb_checkpoint_roundtrips_bitwise_in_a_binary_sized_envelope() {
    let a = lra::matgen::with_decay(&lra::matgen::fem2d(20, 18, 5), 1e-5, 2);
    let store = CheckpointStore::in_memory();
    let opts = QbOpts::new(4, 1e-3).with_power(1);
    rand_qb_ei_checkpointed(&a, &opts, Some(&RecoveryHooks::new(&store, 1))).unwrap();
    let taken: QbCheckpoint = store.load().unwrap().expect("a pre-convergence snapshot");
    assert!(taken.rng_draws > 0 && !taken.q_blocks.is_empty());

    let second = CheckpointStore::in_memory();
    second.save(&taken).unwrap();
    let back: QbCheckpoint = second.load().unwrap().unwrap();
    assert_eq!((back.iterations, back.rank), (taken.iterations, taken.rank));
    assert_eq!(back.rng_draws, taken.rng_draws);
    assert_eq!(back.e.to_bits(), taken.e.to_bits());
    assert!(bits_eq(&back.history, &taken.history));
    let mut value_words = taken.history.len();
    for (g, w) in [(&back.q_blocks, &taken.q_blocks), (&back.bt_blocks, &taken.bt_blocks)] {
        assert_eq!(g.len(), w.len());
        for (gb, wb) in g.iter().zip(w.iter()) {
            assert_eq!((gb.rows(), gb.cols()), (wb.rows(), wb.cols()));
            assert!(bits_eq(gb.as_slice(), wb.as_slice()));
            value_words += wb.as_slice().len();
        }
    }
    let index_words = 2 * (taken.q_blocks.len() + taken.bt_blocks.len());
    assert_binary_sized(&second, index_words, value_words, "rand_qb_ei p=1");
}

/// A RandQB_EI snapshot as builds before the `B^T` block layout wrote
/// it: same kind and header, coefficient blocks under `b.shape` /
/// `b.data` as `k x n` matrices.
struct ParentLayoutQb {
    iterations: usize,
    rank: usize,
    e: f64,
    rng_draws: u64,
    history: Vec<f64>,
    q_blocks: Vec<lra::dense::DenseMatrix>,
    b_blocks: Vec<lra::dense::DenseMatrix>,
}

impl Checkpoint for ParentLayoutQb {
    const KIND: &'static str = "rand_qb_ei";

    fn iteration(&self) -> usize {
        self.iterations
    }

    fn encode(&self, w: &mut SectionWriter) -> Result<Json, String> {
        w.f64s("history", self.history.iter().copied());
        for (name, blocks) in [("q", &self.q_blocks), ("b", &self.b_blocks)] {
            let shapes = blocks.iter().flat_map(|b| [b.rows(), b.cols()]);
            w.indices(&format!("{name}.shape"), shapes)?;
            w.f64s(&format!("{name}.data"), blocks.iter().flat_map(|b| b.as_slice()).copied());
        }
        Ok(lra::obs::json::obj(vec![
            ("iterations", Json::Num(self.iterations as f64)),
            ("rank", Json::Num(self.rank as f64)),
            ("e", Json::Num(self.e)),
            ("rng_draws", Json::Num(self.rng_draws as f64)),
        ]))
    }

    fn decode(_: &Json, _: &SectionReader<'_>) -> Result<Self, String> {
        unreachable!("only ever written")
    }
}

/// A snapshot in the earlier block layout is input of an unsupported
/// format, not a `B^T` snapshot to reinterpret: its sections do not
/// decode, it is skipped as corrupt (guard trip), the run starts from
/// iteration 0 and publishes above it. The planted state is a genuine
/// iteration-2 state of this very run with its residual and indicator
/// doctored, so splicing it in under any reading would show in
/// `iterations`, the history and the factors.
#[test]
fn parent_layout_qb_snapshot_is_rolled_past_not_reinterpreted() {
    let a = lra::matgen::with_decay(&lra::matgen::fem2d(20, 18, 5), 1e-5, 2);
    let opts = QbOpts::new(4, 1e-3);
    let reference = rand_qb_ei(&a, &opts).unwrap();
    assert!(reference.iterations > 3);

    let two = opts.clone().with_budget(Budget::unlimited().with_iteration_cap(2));
    let scratch = CheckpointStore::in_memory();
    rand_qb_ei_checkpointed(&a, &two, Some(&RecoveryHooks::new(&scratch, 1))).unwrap();
    let taken: QbCheckpoint = scratch.load().unwrap().expect("the trip snapshot");
    assert_eq!(taken.iterations, 2);

    // Retention beyond the run's saves, so the planted generation is
    // still listed beside them afterwards.
    let store = CheckpointStore::in_memory().with_retention(1000);
    let planted = ParentLayoutQb {
        iterations: taken.iterations,
        rank: taken.rank,
        e: 12345.0,
        rng_draws: taken.rng_draws,
        history: vec![12345.0; 2],
        q_blocks: taken.q_blocks.to_vec(),
        b_blocks: taken.bt_blocks.iter().map(|bt| bt.transpose()).collect(),
    };
    store.save(&planted).unwrap();
    assert_eq!(store.generations(), vec![1]);
    assert!(store.load::<QbCheckpoint>().is_err(), "the only generation must not decode");

    let trips_before = counter("recover.guard_trip");
    let corrupt_before = counter("recover.corrupt_checkpoint");
    let got = rand_qb_ei_checkpointed(&a, &opts, Some(&RecoveryHooks::new(&store, 1))).unwrap();
    assert!(counter("recover.guard_trip") > trips_before);
    assert!(counter("recover.corrupt_checkpoint") > corrupt_before);

    assert_eq!((got.rank, got.iterations), (reference.rank, reference.iterations));
    assert!(bits_eq(&got.indicator_history, &reference.indicator_history));
    assert!(bits_eq(got.q.as_slice(), reference.q.as_slice()));
    assert!(bits_eq(got.b.as_slice(), reference.b.as_slice()));

    // One save per iteration but the converging one, all above the
    // planted generation 1.
    let saves = reference.iterations as u64 - 1;
    assert_eq!(store.generations(), (1..=1 + saves).collect::<Vec<_>>());
    let newest: QbCheckpoint = store.load().unwrap().expect("this run's own snapshots");
    assert_eq!(newest.iterations, reference.iterations - 1);
    assert!(bits_eq(&newest.history, &reference.indicator_history[..newest.iterations]));
}

/// The state a build before the binary envelope printed for iteration 1
/// of the run below (its trace indicator doctored to 12345, so resuming
/// from it would show), byte for byte.
const TEXT_STATE: &str = concat!(
    r#"{"m":10,"n":8,"iterations":1,"rank":2,"indicator":0.7866056620603936,"#,
    r#""r11":4.2034540706314045,"s":{"rows":8,"cols":6,"colptr":[0,0,6,11,16,21,28],"#,
    r#""rowidx":[0,1,2,4,5,6,0,1,4,5,7,0,1,4,5,7,0,1,4,5,7,0,1,2,4,5,6,7],"#,
    r#""values":[0.03659483000597841,-0.4198842248259588,0.4393253974290658,"#,
    r#"0.023677840519058545,-0.1747234084970969,-0.07170050093847374,"#,
    r#"-0.015499380179722215,-0.021478456789759116,0.0012316317351706622,"#,
    r#"0.005623796759065055,0.03638015652565063,0.004143701903370866,"#,
    r#"-0.08273220378557243,0.004665381100795116,0.001112753659273916,"#,
    r#"-0.0021991090688419025,0.02687951923158315,-0.0022766245958952508,"#,
    r#"0.00013054769850651466,-0.009752967627542469,0.024308758579439878,"#,
    r#"-0.007449116492035168,0.12054780583119637,-0.3907011966454826,"#,
    r#"-0.006831223487926651,0.15538515456032875,0.06376474403864935,"#,
    r#"-0.07756557108140813]},"row_map":[0,1,2,3,4,5,7,9],"col_map":[6,5,2,3,4,7],"#,
    r#""l_cols":[{"i":[0,1,2,4,5,7,8],"v":[0.8987668022193769,0.05176395437387003,"#,
    r#"-0.050611080568961075,-0.0029190395443133184,0.00218781140938247,"#,
    r#"0.0008978028494346646,1]},{"i":[2,5,6,7],"v":[-0.0316743776797911,"#,
    r#"-0.3807291638759512,1,0.8297420213954932]}],"ut_cols":[{"i":[1,5,7],"#,
    r#""v":[-3.075644851609807,1.2513529420900482,-1.6511523407588165]},{"i":[0,1,5,7],"#,
    r#""v":[1.0997872938605373,0.5341622527077784,0.4498775148360976,0.39863703396264777]}],"#,
    r#""pivots":{"selected":[1,0],"r_diag":[4.2034540706314045,1.467547920134791]},"#,
    r#""pivot_rows":[8,6],"trace":[{"iteration":1,"rank":2,"indicator":12345,"schur_nnz":28,"#,
    r#""schur_density":0.5833333333333334,"schur_nnz_per_row":3.5,"#,
    r#""r_diag":[4.2034540706314045,1.467547920134791]}],"#,
    r#""ilut":{"mu":0.00000016025518405751418,"phi":0.000004203454070631405,"mass_sq":0,"#,
    r#""dropped":0,"control_triggered":false}}"#,
);

/// A stored envelope is outside input, and the JSON text envelopes of
/// earlier builds — a version-1 file at the base path, a version-2
/// generation file with a valid CRC, either of which those builds would
/// have resumed from — are input of an unsupported format: skipped as
/// corrupt, rolled past, guard trip, fresh start; never decoded, never
/// a panic. New generations are published above them and `clear()`
/// removes old and new alike.
#[test]
fn text_envelopes_of_earlier_builds_are_rolled_past_and_the_run_starts_fresh() {
    let a = lra::matgen::spectrum(10, 8, &[5.0, 2.0, 1.0, 0.4, 0.1, 0.04], 3, 3);
    let opts = IlutOpts::new(2, 1e-6, 4);
    let reference = ilut_crtp(&a, &opts);
    assert_eq!(reference.iterations, 3);

    let dir = std::env::temp_dir().join(format!("lra_text_envelopes_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let v1 = format!(r#"{{"kind":"lu_crtp","version":1,"iteration":1,"state":{TEXT_STATE}}}"#);
    let v2 = format!(
        r#"{{"kind":"lu_crtp","version":2,"generation":4,"iteration":1,"crc32":1183563517,"state":{TEXT_STATE}}}"#
    );
    std::fs::write(dir.join("ckpt.json"), v1).unwrap();
    std::fs::write(dir.join("ckpt.4.json"), v2).unwrap();
    let store = CheckpointStore::on_disk(dir.join("ckpt.json"));
    assert_eq!(store.generations(), vec![0, 4]);

    let corrupt_before = counter("recover.corrupt_checkpoint");
    let trips_before = counter("recover.guard_trip");
    let got = factorize(&a, &opts, Exec::Seq, Some(&RecoveryHooks::new(&store, 1)));
    assert!(counter("recover.corrupt_checkpoint") >= corrupt_before + 2, "both files skipped");
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

    // Two saves (the converging iteration takes none), both above the
    // planted generation, which retention 3 still holds.
    assert_eq!(store.generations(), vec![0, 4, 5, 6]);
    let newest: LuCrtpCheckpoint = store.load().unwrap().unwrap();
    assert_eq!(newest.iterations, 2);
    store.clear();
    assert!(store.generations().is_empty());
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "clear() removes every format");
    let _ = std::fs::remove_dir_all(&dir);
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
    let store = CheckpointStore::in_memory();
    let hooks = RecoveryHooks::new(&store, 1);
    let out = factorize_supervised(&a, &opts, 3, &cfg, &RecoveryPolicy::default(), hooks)
        .expect("supervisor must absorb a single rank kill");

    assert_eq!(out.final_np, 2, "grid shrinks by one after the kill");
    assert_eq!(out.attempts, 1, "exactly one recovery action (the resume)");
    assert!(!out.degraded);
    let r = &out.value;
    assert!(r.converged, "resumed run must still converge");
    assert_fixed_precision(r, &a, opts.base.tau, "supervised rank-kill recovery");

    // Recovery is observable: counters bumped, and both the snapshots
    // and the resume reach the trace as instants (what a recovery
    // timeline is read from).
    assert!(counter("recover.checkpoint") > ckpt_before);
    assert!(counter("recover.resume") > resume_before);
    let events = lra::obs::trace::snapshot_events();
    for name in ["recover.checkpoint", "recover.resume"] {
        assert!(
            events.iter().any(|e| e.name == name && e.ph == 'i'),
            "{name} instant missing from the trace"
        );
    }
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
        match factorize_supervised(&a, &opts, np, &cfg, &policy, RecoveryHooks::new(&store, 1)) {
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
    let reference = dist(&a, &opts, np);
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
            factorize(&a, &capped, Exec::Spmd(ctx), Some(&hooks))
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
            factorize(&a, &opts, Exec::Spmd(ctx), Some(&hooks))
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
