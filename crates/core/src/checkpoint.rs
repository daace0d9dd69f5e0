//! Concrete [`Checkpoint`] snapshots for the factorization loops, plus
//! the [`RecoveryHooks`] handle the drivers use to persist them.
//!
//! The one LU_CRTP/ILUT_CRTP panel loop (`crate::panel`) carries the
//! *same replicated* state over every engine — the row/column maps back
//! to original coordinates, the selected pivots, the error-indicator
//! trace and the ILUT threshold state — plus the accumulated `L`/`U`
//! panels, which rank 0 records, and rank 0 writes every rank's pieces
//! of the current Schur complement in order as one matrix, so one
//! snapshot type, [`LuCrtpCheckpoint`], serves all: a snapshot taken by
//! an SPMD run can be resumed by the sequential one (the degradation
//! ladder's last rung) and vice versa.
//!
//! Snapshots are taken at a *collective boundary*: the end of an
//! iteration's loop body, after the Schur complement, indicator
//! allreduce, and (for ILUT) the deterministic drop have all completed.
//! Every rank that reaches that point holds bitwise-identical
//! replicated state, so rank 0's snapshot is a consistent global
//! snapshot — no coordination protocol is needed beyond the collectives
//! the algorithm already performs.
//!
//! Serialization is the binary envelope of `lra-recover`: the scalar
//! loop state rides in the envelope's small JSON header, every array
//! (the Schur complement, the maps, the `L`/`U` panels, pivots, trace,
//! the QB blocks) is a section of raw little-endian `u32` indices or
//! `f64` bits, exact by construction; the header's `f64` scalars rely
//! on the Json writer's shortest round-trip printing, exact when
//! finite. A resumed run on the same rank count thus reproduces the
//! uninterrupted factors bit for bit.
//!
//! Each checkpointed loop carries its state in one record, declared
//! once: [`LuLoopState`] for LU_CRTP / ILUT_CRTP and [`QbCheckpoint`]
//! for RandQB_EI. The loop owns the record; a save borrows it whole
//! ([`LuCrtpCheckpoint`] lends it as a [`Cow`] beside the engine's
//! Schur pieces, so nothing is cloned: a counting pass sizes the
//! envelope and a second pass writes it once), and a resume moves the
//! loaded record back in whole. A new loop-carried value is one field
//! of its record plus its lines in that record's `encode` and
//! `decode`; no driver names it on the way to or from the store.

use crate::lucrtp::{IterTrace, ThresholdReport};
use crate::panel::FactorCol;
use lra_dense::DenseMatrix;
use lra_obs::json::obj;
use lra_obs::Json;
pub use lra_recover::{Checkpoint, CheckpointStore};
use lra_recover::{SectionReader, SectionWriter};
use lra_sparse::{gather_csc, CscMatrix};
use std::borrow::Cow;

/// Checkpointing configuration threaded into a driver: where snapshots
/// go and how often they are taken.
///
/// A driver given hooks also *resumes*: if the store already holds a
/// snapshot, the driver restores it and skips straight to the next
/// iteration (preprocessing included — the snapshot's column map
/// already reflects the fill-reducing order).
#[derive(Clone, Copy)]
pub struct RecoveryHooks<'a> {
    store: &'a CheckpointStore,
    every: usize,
}

impl<'a> RecoveryHooks<'a> {
    /// Snapshot to `store` every `every` iterations (`every` is clamped
    /// to at least 1).
    pub fn new(store: &'a CheckpointStore, every: usize) -> Self {
        RecoveryHooks {
            store,
            every: every.max(1),
        }
    }

    /// The backing store.
    pub fn store(&self) -> &'a CheckpointStore {
        self.store
    }

    /// Whether the iteration just completed should be snapshotted.
    pub fn should_save(&self, iterations: usize) -> bool {
        iterations.is_multiple_of(self.every)
    }
}

/// What LU_CRTP / ILUT_CRTP carries from one block iteration to the
/// next, apart from the Schur complement, which the engine places: the
/// panel loop owns one and a snapshot borrows it whole. Everything
/// needed to continue after `iterations` completed block iterations as
/// if never interrupted.
#[derive(Debug, Clone, Default)]
pub struct LuLoopState {
    /// Completed block iterations.
    pub iterations: usize,
    /// Accumulated rank `K`.
    pub rank: usize,
    /// Current error indicator `||A^(i+1)||_F` — the Schur-complement
    /// norm at the snapshot point.
    pub indicator: f64,
    /// `|R^(1)(1,1)|` from the first iteration.
    pub r11: f64,
    /// Trailing-row ids (into original coordinates): the Schur
    /// complement has `row_map.len()` rows.
    pub row_map: Vec<usize>,
    /// Trailing-column ids (into original coordinates): the Schur
    /// complement has `col_map.len()` columns.
    pub col_map: Vec<usize>,
    /// Accumulated `L` panels (columns, original row ids); rank 0's
    /// alone under SPMD.
    pub l_cols: Vec<FactorCol>,
    /// Accumulated `U^T` panels (columns, original column ids); rank
    /// 0's alone under SPMD.
    pub ut_cols: Vec<FactorCol>,
    /// Selected pivot columns (original ids, factor order); their
    /// rank-revealing `|diag(R)|` estimates are the trace's `r_diag`.
    pub pivot_cols: Vec<usize>,
    /// Selected pivot rows (original ids, factor order).
    pub pivot_rows: Vec<usize>,
    /// Per-iteration trace so far.
    pub trace: Vec<IterTrace>,
    /// Threshold state (ILUT_CRTP only).
    pub ilut: Option<ThresholdReport>,
}

/// A snapshot of LU_CRTP / ILUT_CRTP at a block boundary: the loop's
/// [`LuLoopState`] and the Schur complement it runs on, with the
/// input's shape. Borrowed from the running loop when saved, owned
/// when loaded.
#[derive(Debug, Clone)]
pub struct LuCrtpCheckpoint<'a> {
    /// Original matrix shape (consistency check on resume).
    pub m: usize,
    /// Original column count.
    pub n: usize,
    /// The current (post-drop, for ILUT) Schur complement as column
    /// pieces in order, `state.row_map.len()` rows each: a save lends
    /// the sequential engine's runs, or rank 0's shard beside the
    /// shards gathered from the other ranks, and writes them as one
    /// matrix; a load decodes that matrix as one piece. [`Self::schur`]
    /// reads it whole.
    pub s: Vec<Cow<'a, CscMatrix>>,
    /// The loop-carried state.
    pub state: Cow<'a, LuLoopState>,
}

impl LuCrtpCheckpoint<'_> {
    /// The Schur complement as one matrix: a single piece (what a load
    /// holds) borrowed, several joined.
    pub fn schur(&self) -> Cow<'_, CscMatrix> {
        match self.s.as_slice() {
            [one] => Cow::Borrowed(one),
            pieces => Cow::Owned(join(pieces, self.state.row_map.len())),
        }
    }

    /// Move the Schur complement out as one matrix (a single owned
    /// piece without a copy), leaving no pieces behind.
    pub fn take_schur(&mut self) -> CscMatrix {
        let pieces = std::mem::take(&mut self.s);
        match <[_; 1]>::try_from(pieces) {
            Ok([one]) => one.into_owned(),
            Err(pieces) => join(&pieces, self.state.row_map.len()),
        }
    }
}

/// Column pieces of `rows` rows joined into one matrix.
fn join(pieces: &[Cow<'_, CscMatrix>], rows: usize) -> CscMatrix {
    match pieces {
        [] => CscMatrix::zeros(rows, 0),
        _ => gather_csc(pieces),
    }
}

impl Checkpoint for LuCrtpCheckpoint<'_> {
    const KIND: &'static str = "lu_crtp";

    fn iteration(&self) -> usize {
        self.state.iterations
    }

    fn encode(&self, w: &mut SectionWriter) -> Result<Json, String> {
        // The pieces' arrays end to end; each piece's column pointers
        // are offset by the entries before it.
        let mut base = 0;
        let colptr = self.s.iter().flat_map(|p| {
            let off = base;
            base += p.nnz();
            p.colptr()[1..].iter().map(move |&q| off + q)
        });
        w.indices("s.colptr", std::iter::once(0).chain(colptr))?;
        w.indices("s.rowidx", self.s.iter().flat_map(|p| p.rowidx().iter().copied()))?;
        w.f64s("s.values", self.s.iter().flat_map(|p| p.values().iter().copied()));
        let st = &*self.state;
        w.indices("row_map", st.row_map.iter().copied())?;
        w.indices("col_map", st.col_map.iter().copied())?;
        put_panels(w, "l", &st.l_cols)?;
        put_panels(w, "ut", &st.ut_cols)?;
        w.indices("pivot_cols", st.pivot_cols.iter().copied())?;
        w.indices("pivot_rows", st.pivot_rows.iter().copied())?;
        let counts = |t: &IterTrace| [t.iteration, t.rank, t.schur_nnz, t.r_diag.len()];
        w.indices("trace.counts", st.trace.iter().flat_map(counts))?;
        let stats = |t: &IterTrace| [t.indicator, t.schur_density, t.schur_nnz_per_row];
        w.f64s("trace.stats", st.trace.iter().flat_map(stats));
        let r_diag = st.trace.iter().flat_map(|t| &t.r_diag);
        w.f64s("trace.r_diag", r_diag.copied());

        let mut header = vec![
            ("m", Json::Num(self.m as f64)),
            ("n", Json::Num(self.n as f64)),
            ("iterations", Json::Num(st.iterations as f64)),
            ("rank", Json::Num(st.rank as f64)),
            ("indicator", Json::Num(st.indicator)),
            ("r11", Json::Num(st.r11)),
        ];
        if let Some(ilut) = &st.ilut {
            let ilut = obj(vec![
                ("mu", Json::Num(ilut.mu)),
                ("phi", Json::Num(ilut.phi)),
                ("mass_sq", Json::Num(ilut.dropped_mass_sq)),
                ("dropped", Json::Num(ilut.dropped as f64)),
                ("control_triggered", Json::Bool(ilut.control_triggered)),
            ]);
            header.push(("ilut", ilut));
        }
        Ok(obj(header))
    }

    fn decode(header: &Json, r: &SectionReader<'_>) -> Result<Self, String> {
        let ilut = match header.get("ilut") {
            None => None,
            Some(j) => Some(ThresholdReport {
                mu: get(j, "mu", Json::as_f64)?,
                phi: get(j, "phi", Json::as_f64)?,
                dropped_mass_sq: get(j, "mass_sq", Json::as_f64)?,
                dropped: get(j, "dropped", Json::as_usize)?,
                control_triggered: get(j, "control_triggered", Json::as_bool)?,
            }),
        };
        let row_map = r.indices("row_map")?;
        let col_map = r.indices("col_map")?;
        let counts = r.indices("trace.counts")?;
        let stats = r.f64s("trace.stats")?;
        if counts.len() % 4 != 0 || counts.len() * 3 != stats.len() * 4 {
            return Err("ragged trace sections".to_string());
        }
        let r_diag_lens = counts.chunks_exact(4).map(|c| c[3]);
        let r_diags = split_exact(r.f64s("trace.r_diag")?, r_diag_lens, "trace.r_diag")?;
        let trace: Vec<IterTrace> = counts
            .chunks_exact(4)
            .zip(stats.chunks_exact(3))
            .zip(r_diags)
            .map(|((c, f), r_diag)| IterTrace {
                iteration: c[0],
                rank: c[1],
                indicator: f[0],
                schur_nnz: c[2],
                schur_density: f[1],
                schur_nnz_per_row: f[2],
                r_diag,
            })
            .collect();
        let state = LuLoopState {
            iterations: get(header, "iterations", Json::as_usize)?,
            rank: get(header, "rank", Json::as_usize)?,
            indicator: get(header, "indicator", Json::as_f64)?,
            r11: get(header, "r11", Json::as_f64)?,
            row_map,
            col_map,
            l_cols: get_panels(r, "l")?,
            ut_cols: get_panels(r, "ut")?,
            pivot_cols: r.indices("pivot_cols")?,
            pivot_rows: r.indices("pivot_rows")?,
            trace,
            ilut,
        };
        if state.pivot_cols.len() != state.rank || state.pivot_rows.len() != state.rank {
            return Err("inconsistent checkpoint: pivot count != rank".to_string());
        }
        let (m, n) = (get(header, "m", Json::as_usize)?, get(header, "n", Json::as_usize)?);
        let s = vec![Cow::Owned(get_csc(r, state.row_map.len(), state.col_map.len())?)];
        Ok(LuCrtpCheckpoint { m, n, s, state: Cow::Owned(state) })
    }
}

/// What RandQB_EI carries from one block iteration to the next: the
/// accumulated `Q` and `B^T` bases with their block widths, the running
/// squared-norm residual `E`, and the exact number of RNG draws
/// consumed. The loop owns one, a save borrows it whole, and a resume
/// moves the loaded one back in and burns that many draws from the
/// seeded generator, so the continued sketch sequence (and therefore
/// the factors) is bitwise identical to an uninterrupted run.
///
/// The envelope stores each basis as per-block shapes (`q.shape`:
/// `m, k_j` per block) and the blocks' columns end to end (`q.data`),
/// which is the basis buffer as the loop holds it; `bt.*` likewise.
#[derive(Debug, Clone)]
pub struct QbCheckpoint {
    /// Completed block iterations.
    pub iterations: usize,
    /// Accumulated rank `K`.
    pub rank: usize,
    /// Running residual `E = ||A||_F^2 - sum ||B_j||_F^2`.
    pub e: f64,
    /// Indicator history so far.
    pub history: Vec<f64>,
    /// Accumulated orthonormal basis `Q_K`, `m x K`: the blocks side
    /// by side.
    pub q: DenseMatrix,
    /// Accumulated coefficients, transposed (`B_K^T`, `n x K`) as the
    /// loop holds them.
    pub bt: DenseMatrix,
    /// Column count `k_j` of each block, in order; they sum to `rank`.
    pub widths: Vec<usize>,
    /// `next_u64` calls consumed from the seeded RNG so far.
    pub rng_draws: u64,
}

impl Checkpoint for QbCheckpoint {
    const KIND: &'static str = "rand_qb_ei";

    fn iteration(&self) -> usize {
        self.iterations
    }

    fn encode(&self, w: &mut SectionWriter) -> Result<Json, String> {
        w.f64s("history", self.history.iter().copied());
        for (name, basis) in [("q", &self.q), ("bt", &self.bt)] {
            let shapes = self.widths.iter().flat_map(|&k| [basis.rows(), k]);
            w.indices(&format!("{name}.shape"), shapes)?;
            w.f64s(&format!("{name}.data"), basis.as_slice().iter().copied());
        }
        Ok(obj(vec![
            ("iterations", Json::Num(self.iterations as f64)),
            ("rank", Json::Num(self.rank as f64)),
            ("e", Json::Num(self.e)),
            ("rng_draws", Json::Num(self.rng_draws as f64)),
        ]))
    }

    fn decode(state: &Json, r: &SectionReader<'_>) -> Result<Self, String> {
        let basis = |name: &str| -> Result<(DenseMatrix, Vec<usize>), String> {
            let shapes = r.indices(&format!("{name}.shape"))?;
            if shapes.len() % 2 != 0 {
                return Err(format!("odd {name}.shape section"));
            }
            let rows = shapes.first().copied().unwrap_or(0);
            if shapes.chunks_exact(2).any(|s| s[0] != rows) {
                return Err(format!("ragged {name} blocks"));
            }
            let widths: Vec<usize> = shapes.chunks_exact(2).map(|s| s[1]).collect();
            let len = widths
                .iter()
                .try_fold(0usize, |acc, &k| acc.checked_add(rows.checked_mul(k)?));
            let data = r.f64s(&format!("{name}.data"))?;
            if len != Some(data.len()) {
                return Err(format!("{name}: block shapes do not match the data"));
            }
            let cols = widths.iter().sum();
            Ok((DenseMatrix::from_column_major(rows, cols, data), widths))
        };
        let (q, widths) = basis("q")?;
        let (bt, bt_widths) = basis("bt")?;
        let rank = get(state, "rank", Json::as_usize)?;
        if bt_widths != widths || q.cols() != rank {
            return Err("inconsistent checkpoint: block widths != rank".to_string());
        }
        Ok(QbCheckpoint {
            iterations: get(state, "iterations", Json::as_usize)?,
            rank,
            e: get(state, "e", Json::as_f64)?,
            history: r.f64s("history")?,
            q,
            bt,
            widths,
            rng_draws: get(state, "rng_draws", Json::as_u64)?,
        })
    }
}

/// The store's latest valid snapshot. An unusable store is *not*
/// fatal — the driver records a `recover.guard_trip` and starts from
/// iteration 0, which is always correct, just slower.
fn load_or_trip<C: Checkpoint>(hooks: &RecoveryHooks<'_>) -> Option<C> {
    hooks.store().load().unwrap_or_else(|e| {
        lra_recover::record_guard_trip(format!("unusable checkpoint ignored: {e}"));
        None
    })
}

/// Driver-side resume: load the store's latest snapshot if it matches
/// this run (same matrix shape, same algorithm family); a mismatched
/// one is a guard trip and a fresh start, like an unusable one.
pub(crate) fn load_resume(
    hooks: &RecoveryHooks<'_>,
    m: usize,
    n: usize,
    want_ilut: bool,
) -> Option<LuCrtpCheckpoint<'static>> {
    let ck: LuCrtpCheckpoint = load_or_trip(hooks)?;
    if ck.m != m || ck.n != n {
        lra_recover::record_guard_trip(format!(
            "checkpoint for {}x{} ignored for {m}x{n} input",
            ck.m, ck.n
        ));
        return None;
    }
    if ck.state.ilut.is_some() != want_ilut {
        lra_recover::record_guard_trip(
            "checkpoint algorithm family mismatch (LU vs ILUT) ignored".to_string(),
        );
        return None;
    }
    Some(ck)
}

/// Persist a snapshot; a failed save is recorded as a guard trip, never
/// an abort (losing a checkpoint degrades recovery, not correctness).
pub(crate) fn save_snapshot(hooks: &RecoveryHooks<'_>, ck: &impl Checkpoint) {
    if let Err(e) = hooks.store().save(ck) {
        lra_recover::record_guard_trip(format!("checkpoint save failed: {e}"));
    }
}

/// QB-side resume (see [`load_resume`]): the bases' row counts stand
/// in for the matrix dimensions, since the snapshot stores no `m`/`n`
/// of its own.
pub(crate) fn load_qb_resume(
    hooks: &RecoveryHooks<'_>,
    m: usize,
    n: usize,
) -> Option<QbCheckpoint> {
    let ck: QbCheckpoint = load_or_trip(hooks)?;
    if ck.q.rows() != m || ck.bt.rows() != n {
        lra_recover::record_guard_trip(format!(
            "QB checkpoint block shapes do not fit a {m}x{n} input; ignored"
        ));
        return None;
    }
    Some(ck)
}

// ---- header and section helpers --------------------------------------

/// Header field `key` of `j`, read through one of `Json`'s `as_*`.
fn get<'j, T>(j: &'j Json, key: &str, read: fn(&'j Json) -> Option<T>) -> Result<T, String> {
    j.get(key).and_then(read).ok_or_else(|| format!("missing {key}"))
}

/// Cut `flat` into consecutive pieces of the given lengths, which must
/// use it up exactly.
fn split_exact<T>(
    flat: Vec<T>,
    lens: impl IntoIterator<Item = usize>,
    what: &str,
) -> Result<Vec<Vec<T>>, String> {
    let mut rest = flat.into_iter();
    let mut pieces = Vec::new();
    for len in lens {
        let piece: Vec<T> = rest.by_ref().take(len).collect();
        if piece.len() != len {
            return Err(format!("{what}: lengths overrun the data"));
        }
        pieces.push(piece);
    }
    match rest.next() {
        None => Ok(pieces),
        Some(_) => Err(format!("{what}: data beyond the lengths")),
    }
}

/// The Schur complement's three arrays; its shape is the maps'. A
/// stored envelope is outside input, so everything `CscMatrix` would
/// assert (or index by later) is checked here first.
fn get_csc(r: &SectionReader<'_>, rows: usize, cols: usize) -> Result<CscMatrix, String> {
    let colptr = r.indices("s.colptr")?;
    let rowidx = r.indices("s.rowidx")?;
    let values = r.f64s("s.values")?;
    let well_formed = colptr.len() == cols + 1
        && colptr[0] == 0
        && colptr.windows(2).all(|w| w[0] <= w[1])
        && colptr[cols] == rowidx.len()
        && rowidx.len() == values.len()
        && rowidx.iter().all(|&i| i < rows);
    if !well_formed {
        return Err(format!("malformed {rows}x{cols} Schur complement"));
    }
    Ok(CscMatrix::from_parts(rows, cols, colptr, rowidx, values))
}

/// Sparse panel columns (`l_cols` / `ut_cols`) as three sections:
/// per-column lengths, then every index, then every value.
fn put_panels(w: &mut SectionWriter, name: &str, cols: &[FactorCol]) -> Result<(), String> {
    w.indices(&format!("{name}.len"), cols.iter().map(Vec::len))?;
    w.indices(&format!("{name}.idx"), cols.iter().flatten().map(|&(i, _)| i))?;
    w.f64s(&format!("{name}.val"), cols.iter().flatten().map(|&(_, v)| v));
    Ok(())
}

fn get_panels(r: &SectionReader<'_>, name: &str) -> Result<Vec<FactorCol>, String> {
    let idx = r.indices(&format!("{name}.idx"))?;
    let val = r.f64s(&format!("{name}.val"))?;
    if idx.len() != val.len() {
        return Err(format!("ragged {name} panel sections"));
    }
    let entries = idx.into_iter().zip(val).collect();
    split_exact(entries, r.indices(&format!("{name}.len"))?, name)
}
