//! Bitwise fingerprint of everything the solvers compute: one line per
//! configuration, FNV-1a over the output bits (factors, pivots, ranks,
//! iteration counts, indicator histories, per-iteration `r_diag`).
//! Dense kernels come first (full operands, which the Householder
//! sweep handles) and last (the sparse operands its support walk
//! handles).
//!
//! A change that claims to move no bit shows it by running this before
//! and after and diffing; the committed `results/FINGERPRINT.txt` is the
//! output at the current commit, and CI's build-test job fails when a
//! fresh run differs from it. All inputs are generated from fixed seeds
//! and every kernel is deterministic in its worker and rank count, so
//! the text is the same on every machine.
//!
//! `fingerprint` prints to stdout; `fingerprint --out FILE` writes the
//! file instead.

use lra_comm::RunConfig;
use lra_core::{
    factorize, ilut_crtp, lu_crtp, rand_qb_ei, rand_qb_ei_checkpointed, rand_ubv, Budget,
    CheckpointStore, Ctx, Exec, IlutOpts, LuCrtpOpts, LuCrtpResult, Method, OrderingMode,
    Parallelism, QbOpts, QbResult, RecoveryHooks, UbvOpts,
};
use lra_dense::{
    matmul, matmul_nt, matmul_sub_assign, matmul_tn, orth, qr, qrcp, singular_values, tsqr, tsqr_r,
    DenseMatrix,
};
use lra_ordering::{colamd, fill_reducing_order};
use lra_sparse::CscMatrix;
use std::fmt::Write as _;

/// FNV-1a, 64 bit, fed whole words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn idx(&mut self, xs: &[usize]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(x as u64);
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(x.to_bits());
        }
    }

    fn dense(&mut self, a: &DenseMatrix) {
        self.word(a.rows() as u64);
        self.word(a.cols() as u64);
        self.f64s(a.as_slice());
    }

    fn csc(&mut self, a: &CscMatrix) {
        self.word(a.rows() as u64);
        self.idx(a.colptr());
        self.idx(a.rowidx());
        self.f64s(a.values());
    }

    fn lu(&mut self, r: &LuCrtpResult) {
        self.csc(&r.l);
        self.csc(&r.u);
        self.idx(&r.pivot_rows);
        self.idx(&r.pivot_cols);
        self.word(r.rank as u64);
        self.word(r.iterations as u64);
        self.word(u64::from(r.converged));
        self.word(r.indicator.to_bits());
        self.word(r.r11.to_bits());
        for t in &r.trace {
            self.word(t.indicator.to_bits());
            self.word(t.schur_nnz as u64);
            self.f64s(&t.r_diag);
        }
        if let Some(th) = &r.threshold {
            self.word(th.mu.to_bits());
            self.word(th.dropped as u64);
            self.word(th.dropped_mass_sq.to_bits());
            self.word(u64::from(th.control_triggered));
        }
    }

    /// `qr` of `a` on `par`: `R`, its diagonal, thin `Q`, `Q^T rhs` and
    /// `Q Q^T rhs`.
    fn qr(&mut self, a: &DenseMatrix, mut rhs: DenseMatrix, par: Parallelism) {
        let f = qr(a, par);
        self.dense(&f.r());
        self.f64s(&f.r_diag());
        self.dense(&f.q_thin(par));
        f.apply_qt(&mut rhs, par);
        self.dense(&rhs);
        f.apply_q(&mut rhs, par);
        self.dense(&rhs);
    }

    fn qrcp(&mut self, a: &DenseMatrix, steps: usize) {
        let f = qrcp(a, steps);
        self.dense(&f.factors);
        self.f64s(&f.tau);
        self.idx(&f.perm);
        self.word(f.steps as u64);
    }

    fn qb(&mut self, r: &QbResult) {
        self.dense(&r.q);
        self.dense(&r.b);
        self.word(r.rank as u64);
        self.word(r.iterations as u64);
        self.f64s(&r.indicator_history);
    }
}

/// Output lines, in a fixed order.
struct Lines(String);

impl Lines {
    fn put(&mut self, name: std::fmt::Arguments<'_>, h: Fnv) {
        writeln!(self.0, "{name} {:016x}", h.0).expect("write to a String");
    }
}

/// xorshift64*: the probe's own stream for dense operands.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        let x = self.0.wrapping_mul(0x2545_F491_4F6C_DD1D);
        (x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

/// A dense operand with exact `0.0` and `-0.0` planted in it.
fn operand(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut a = DenseMatrix::from_fn(rows, cols, |_, _| rng.unit());
    for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
        match i % 37 {
            5 => *v = 0.0,
            11 => *v = -0.0,
            _ => {}
        }
    }
    a
}

fn dense_kernels(out: &mut Lines) {
    for np in 1..=3 {
        let par = Parallelism::new(np);
        for &(m, n, k) in &[(19, 23, 7), (257, 33, 65), (600, 40, 33), (4000, 32, 32), (37, 700, 5)] {
            let a = operand(m, k, 1);
            let b = operand(k, n, 2);
            let bt = operand(n, k, 3);
            let at = operand(k, m, 4);
            let mut c = operand(m, n, 5);
            let mut h = Fnv::new();
            h.dense(&matmul(&a, &b, par));
            h.dense(&matmul_nt(&a, &bt, par));
            h.dense(&matmul_tn(&at, &b, par));
            matmul_sub_assign(&mut c, &a, &b, par);
            h.dense(&c);
            out.put(format_args!("gemm {m}x{n}x{k} np={np}"), h);
        }
        for &(m, n) in &[(40, 7), (300, 9), (600, 32), (2400, 64), (33, 33), (20, 45)] {
            let a = operand(m, n, 6);
            let mut h = Fnv::new();
            h.qr(&a, operand(m, 5, 7), par);
            h.dense(&orth(&a, par));
            if m >= n {
                let t = tsqr(&a, par);
                h.dense(&t.q);
                h.dense(&t.r);
                h.dense(&tsqr_r(&a, par));
            }
            out.put(format_args!("qr {m}x{n} np={np}"), h);
        }
    }
    for &(m, n, steps) in &[(128, 64, 64), (90, 120, 90), (200, 40, 4), (64, 64, 16)] {
        let mut h = Fnv::new();
        h.qrcp(&operand(m, n, 8), steps);
        out.put(format_args!("qrcp {m}x{n} steps={steps}"), h);
    }
    let mut h = Fnv::new();
    h.f64s(&singular_values(&operand(60, 37, 9)));
    out.put(format_args!("singular_values 60x37"), h);
}

/// Small matrices of every generator family, the heavy-fill and the
/// tournament-bound benchmark inputs at a fraction of their size.
fn matrices() -> Vec<(&'static str, CscMatrix)> {
    use lra_matgen::{circuit, economic, fem2d, fluid_block, with_decay, with_decay_rank};
    vec![
        ("fem2d-100", with_decay(&fem2d(10, 10, 7), 1e-6, 7)),
        ("circuit-120", with_decay(&circuit(120, 3, 2, 11), 1e-6, 11)),
        ("economic-90", with_decay(&economic(90, 5, 13), 1e-6, 13)),
        ("fluid-240", with_decay_rank(&fluid_block(6, 40, 102), 1e-6, 100, 12)),
        ("circuit-600", with_decay_rank(&circuit(600, 5, 20, 103), 1e-6, 175, 13)),
    ]
}

fn orderings(out: &mut Lines, mats: &[(&'static str, CscMatrix)]) {
    for (name, a) in mats {
        let mut h = Fnv::new();
        h.idx(&colamd(a));
        h.idx(&fill_reducing_order(a));
        out.put(format_args!("ordering {name}"), h);
    }
}

/// One of the SPMD engines, as the `Exec` variant that names it.
type Engine = for<'c> fn(&'c Ctx) -> Exec<'c>;
const SHARDED: Engine = |c| Exec::Spmd(c);
const EAGER: Engine = |c| Exec::SpmdEager(c);
const REPLICATED: Engine = |c| Exec::SpmdReplicated(c);

/// Rank 0's result of `method` over `np` ranks of `engine`.
fn on_ranks(
    np: usize,
    a: &CscMatrix,
    method: Method<'_>,
    engine: Engine,
    hooks: Option<&RecoveryHooks<'_>>,
) -> LuCrtpResult {
    let run = lra_comm::run_with(np, &RunConfig::default(), |ctx| {
        factorize(a, method, engine(ctx), hooks)
    });
    run.unwrap_all().swap_remove(0)
}

fn lu_solvers(out: &mut Lines, mats: &[(&'static str, CscMatrix)]) {
    for (name, a) in mats {
        // The two larger inputs take a panel wide enough for several
        // Schur chunks; the small ones keep many iterations.
        let k = if a.cols() > 200 { 16 } else { 4 };
        for tau in [1e-2, 1e-3, 1e-4] {
            let u_est = lu_crtp(a, &LuCrtpOpts::new(k, tau)).iterations;
            for np in 1..=2 {
                let par = Parallelism::new(np);
                let lu_opts = LuCrtpOpts::new(k, tau).with_par(par);
                let mut ilut_opts = IlutOpts::new(k, tau, u_est);
                ilut_opts.base.par = par;
                let mut h = Fnv::new();
                h.lu(&lu_crtp(a, &lu_opts));
                out.put(format_args!("lu_crtp {name} tau={tau:e} par={np}"), h);
                let mut h = Fnv::new();
                h.lu(&ilut_crtp(a, &ilut_opts));
                out.put(format_args!("ilut_crtp {name} tau={tau:e} par={np}"), h);
            }
        }
        let tau = 1e-3;
        let u_est = lu_crtp(a, &LuCrtpOpts::new(k, tau)).iterations;
        for ordering in [OrderingMode::Natural, OrderingMode::EveryIteration] {
            let opts = LuCrtpOpts::new(k, tau).with_ordering(ordering);
            let mut h = Fnv::new();
            h.lu(&lu_crtp(a, &opts));
            out.put(format_args!("lu_crtp {name} ordering={ordering:?}"), h);
        }
        let ilut_opts = IlutOpts::new(k, tau, u_est);
        let lu_opts = LuCrtpOpts::new(k, tau);
        let methods = [
            ("lu_crtp", Method::from(&lu_opts)),
            ("ilut_crtp", Method::from(&ilut_opts)),
        ];
        for np in 1..=3 {
            for (tag, method) in methods {
                let mut h = Fnv::new();
                for engine in [SHARDED, EAGER, REPLICATED] {
                    h.lu(&on_ranks(np, a, method, engine, None));
                }
                out.put(format_args!("{tag}_spmd sharded+eager+replicated {name} np={np}"), h);
            }
        }
        // Two ranks, two workers inside each: the parallel kernel path
        // under the SPMD engines.
        let mut inner = ilut_opts.clone();
        inner.base.par = Parallelism::new(2);
        let mut h = Fnv::new();
        for engine in [SHARDED, REPLICATED] {
            h.lu(&on_ranks(2, a, Method::from(&inner), engine, None));
        }
        out.put(format_args!("ilut_crtp_spmd sharded+replicated {name} np=2 par=2"), h);

        // Stop at an iteration cap with a checkpoint, then resume.
        let capped = Budget::unlimited().with_iteration_cap(2);
        let stopped_lu = lu_opts.clone().with_budget(capped.clone());
        let stopped_ilut = ilut_opts.clone().with_budget(capped);
        let stopped = [Method::from(&stopped_lu), Method::from(&stopped_ilut)];
        for ((tag, method), stopped) in methods.into_iter().zip(stopped) {
            let store = CheckpointStore::in_memory();
            let hooks = RecoveryHooks::new(&store, 1);
            let mut h = Fnv::new();
            h.lu(&factorize(a, stopped, Exec::Seq, Some(&hooks)));
            h.lu(&factorize(a, method, Exec::Seq, Some(&hooks)));
            out.put(format_args!("{tag} checkpoint+resume {name}"), h);
        }
        let store = CheckpointStore::in_memory();
        let hooks = RecoveryHooks::new(&store, 1);
        let mut h = Fnv::new();
        for method in [Method::from(&stopped_ilut), Method::from(&ilut_opts)] {
            h.lu(&on_ranks(2, a, method, SHARDED, Some(&hooks)));
        }
        out.put(format_args!("ilut_crtp_spmd checkpoint+resume {name} np=2"), h);
    }
}

fn randomized_solvers(out: &mut Lines) {
    let a = lra_matgen::with_decay(&lra_matgen::economic(600, 8, 21), 1e-5, 21);
    for tau in [1e-2, 1e-3] {
        for np in 1..=3 {
            let par = Parallelism::new(np);
            for p in 0..=2 {
                let opts = QbOpts::new(16, tau).with_power(p).with_par(par);
                let mut h = Fnv::new();
                h.qb(&rand_qb_ei(&a, &opts).expect("tau above the indicator floor"));
                out.put(format_args!("rand_qb_ei p={p} tau={tau:e} np={np}"), h);
            }
            let mut opts = UbvOpts::new(16, tau);
            opts.par = par;
            let r = rand_ubv(&a, &opts);
            let mut h = Fnv::new();
            h.dense(&r.u);
            h.dense(&r.b);
            h.dense(&r.v);
            h.word(r.rank as u64);
            h.f64s(&r.indicator_history);
            out.put(format_args!("rand_ubv tau={tau:e} np={np}"), h);
        }
    }
    let a = lra_matgen::with_decay(&lra_matgen::fem2d(20, 18, 5), 1e-5, 2);
    for p in 0..=2 {
        let opts = QbOpts::new(4, 1e-3).with_power(p);
        let store = CheckpointStore::in_memory();
        let hooks = RecoveryHooks::new(&store, 1);
        let stopped = opts.clone().with_budget(Budget::unlimited().with_iteration_cap(3));
        let mut h = Fnv::new();
        h.qb(&rand_qb_ei_checkpointed(&a, &stopped, Some(&hooks)).expect("valid options"));
        h.qb(&rand_qb_ei_checkpointed(&a, &opts, Some(&hooks)).expect("valid options"));
        out.put(format_args!("rand_qb_ei checkpoint+resume p={p}"), h);
    }
}

/// `per_col` entries scattered down every column: what a tournament
/// leaf gathers on its row support.
fn scattered(rows: usize, cols: usize, per_col: usize, seed: u64) -> DenseMatrix {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut a = DenseMatrix::zeros(rows, cols);
    for j in 0..cols {
        for _ in 0..per_col {
            let i = ((rng.unit() + 1.0) * 0.5 * rows as f64) as usize;
            a.set(i.min(rows - 1), j, rng.unit());
        }
    }
    a
}

/// The operands on which reflectors are applied through their nonzeros
/// (`householder.rs`): a sparse leaf panel, the stacked triangles of
/// `panel_r`'s fold, and the triangular `R` a tournament node ranks.
fn sparse_reflectors(out: &mut Lines) {
    let leaf = scattered(256, 64, 8, 1);
    let triangle = |seed| qr(&scattered(256, 64, 8, seed), Parallelism::SEQ).r();
    let stacked = triangle(2).vcat(&triangle(3));
    for (name, a) in [("sparse-leaf", &leaf), ("stacked-triangles", &stacked)] {
        for np in 1..=3 {
            let mut h = Fnv::new();
            let rhs = scattered(a.rows(), 12, a.rows() / 3, 4);
            h.qr(a, rhs, Parallelism::new(np));
            out.put(format_args!("qr {name} {}x{} np={np}", a.rows(), a.cols()), h);
        }
    }
    let mut h = Fnv::new();
    h.qrcp(&triangle(1), 32);
    out.put(format_args!("qrcp triangular-R 64x64 steps=32"), h);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--out" => Some(path.clone()),
        _ => {
            eprintln!("usage: fingerprint [--out FILE]");
            std::process::exit(2);
        }
    };
    let mut out = Lines(String::new());
    dense_kernels(&mut out);
    let mats = matrices();
    orderings(&mut out, &mats);
    lu_solvers(&mut out, &mats);
    randomized_solvers(&mut out);
    sparse_reflectors(&mut out);
    match out_path {
        None => print!("{}", out.0),
        Some(path) => std::fs::write(&path, &out.0).unwrap_or_else(|e| {
            eprintln!("fingerprint: cannot write {path}: {e}");
            std::process::exit(1);
        }),
    }
}
