//! Concrete [`Checkpoint`] snapshots for the factorization loops, plus
//! the [`RecoveryHooks`] handle the drivers use to persist them.
//!
//! The one LU_CRTP/ILUT_CRTP panel loop (`crate::panel`) carries the
//! *same replicated* state over every engine — the row/column maps back
//! to original coordinates, the accumulated `L`/`U` panels, the selected
//! pivots, and the error-indicator trace — and every engine can hand
//! back the whole current Schur complement, so one snapshot type,
//! [`LuCrtpCheckpoint`], serves all: a snapshot taken by an SPMD run can
//! be resumed by the sequential one (the degradation ladder's last
//! rung) and vice versa.
//!
//! Snapshots are taken at a *collective boundary*: the end of an
//! iteration's loop body, after the Schur complement, indicator
//! allreduce, and (for ILUT) the deterministic drop have all completed.
//! Every rank that reaches that point holds bitwise-identical state, so
//! rank 0's snapshot is a consistent global snapshot — no coordination
//! protocol is needed beyond the collectives the algorithm already
//! performs.
//!
//! Serialization is the binary envelope of `lra-recover`: the scalar
//! loop state rides in the envelope's small JSON header, every array
//! (the Schur complement, the maps, the `L`/`U` panels, pivots, trace,
//! the QB blocks) is a section of raw little-endian `u32` indices or
//! `f64` bits, exact by construction; the header's `f64` scalars rely
//! on the Json writer's shortest round-trip printing, exact when
//! finite. A resumed run on the same rank count thus reproduces the
//! uninterrupted factors bit for bit. The snapshot types hold their
//! arrays as [`Cow`]s: a driver lends the live loop state (nothing is
//! cloned, it is encoded once), a load owns what it decoded.

use crate::lucrtp::IterTrace;
use crate::panel::FactorCol;
use lra_dense::DenseMatrix;
use lra_obs::json::obj;
use lra_obs::Json;
pub use lra_recover::{Checkpoint, CheckpointStore};
use lra_recover::{SectionReader, SectionWriter};
use lra_sparse::CscMatrix;
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

/// ILUT-specific threshold state carried inside [`LuCrtpCheckpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct IlutCheckpoint {
    /// Drop threshold `mu` (eq. 24; 0 after the control triggered).
    pub mu: f64,
    /// Control bound `phi` (eq. 22).
    pub phi: f64,
    /// Accumulated dropped mass `sum ||T̃^(j)||_F^2`.
    pub mass_sq: f64,
    /// Total entries dropped so far.
    pub dropped: usize,
    /// Whether the control has triggered.
    pub control_triggered: bool,
}

/// Full loop state of LU_CRTP / ILUT_CRTP after `iterations` completed
/// block iterations — everything needed to continue as if never
/// interrupted. Borrowed from the running loop when saved, owned when
/// loaded.
#[derive(Debug, Clone)]
pub struct LuCrtpCheckpoint<'a> {
    /// Original matrix shape (consistency check on resume).
    pub m: usize,
    /// Original column count.
    pub n: usize,
    /// Completed block iterations.
    pub iterations: usize,
    /// Accumulated rank `K`.
    pub rank: usize,
    /// Current error indicator `||A^(i+1)||_F` — the Schur-complement
    /// norm at the snapshot point.
    pub indicator: f64,
    /// `|R^(1)(1,1)|` from the first iteration.
    pub r11: f64,
    /// The current (post-drop, for ILUT) Schur complement.
    pub s: Cow<'a, CscMatrix>,
    /// Trailing-row ids (into original coordinates).
    pub row_map: Cow<'a, [usize]>,
    /// Trailing-column ids (into original coordinates).
    pub col_map: Cow<'a, [usize]>,
    /// Accumulated `L` panels (columns, original row ids).
    pub l_cols: Cow<'a, [FactorCol]>,
    /// Accumulated `U^T` panels (columns, original column ids).
    pub ut_cols: Cow<'a, [FactorCol]>,
    /// Selected pivot columns (original ids, factor order); their
    /// rank-revealing `|diag(R)|` estimates are the trace's `r_diag`.
    pub pivot_cols: Cow<'a, [usize]>,
    /// Selected pivot rows (original ids, factor order).
    pub pivot_rows: Cow<'a, [usize]>,
    /// Per-iteration trace so far.
    pub trace: Cow<'a, [IterTrace]>,
    /// Threshold state (ILUT_CRTP only).
    pub ilut: Option<IlutCheckpoint>,
}

impl Checkpoint for LuCrtpCheckpoint<'_> {
    const KIND: &'static str = "lu_crtp";

    fn iteration(&self) -> usize {
        self.iterations
    }

    fn encode(&self, w: &mut SectionWriter) -> Result<Json, String> {
        w.indices("s.colptr", self.s.colptr().iter().copied())?;
        w.indices("s.rowidx", self.s.rowidx().iter().copied())?;
        w.f64s("s.values", self.s.values().iter().copied());
        w.indices("row_map", self.row_map.iter().copied())?;
        w.indices("col_map", self.col_map.iter().copied())?;
        put_panels(w, "l", &self.l_cols)?;
        put_panels(w, "ut", &self.ut_cols)?;
        w.indices("pivot_cols", self.pivot_cols.iter().copied())?;
        w.indices("pivot_rows", self.pivot_rows.iter().copied())?;
        let counts = |t: &IterTrace| [t.iteration, t.rank, t.schur_nnz, t.r_diag.len()];
        w.indices("trace.counts", self.trace.iter().flat_map(counts))?;
        let stats = |t: &IterTrace| [t.indicator, t.schur_density, t.schur_nnz_per_row];
        w.f64s("trace.stats", self.trace.iter().flat_map(stats));
        let r_diag = self.trace.iter().flat_map(|t| &t.r_diag);
        w.f64s("trace.r_diag", r_diag.copied());

        let mut state = vec![
            ("m", Json::Num(self.m as f64)),
            ("n", Json::Num(self.n as f64)),
            ("iterations", Json::Num(self.iterations as f64)),
            ("rank", Json::Num(self.rank as f64)),
            ("indicator", Json::Num(self.indicator)),
            ("r11", Json::Num(self.r11)),
        ];
        if let Some(ilut) = &self.ilut {
            let ilut = obj(vec![
                ("mu", Json::Num(ilut.mu)),
                ("phi", Json::Num(ilut.phi)),
                ("mass_sq", Json::Num(ilut.mass_sq)),
                ("dropped", Json::Num(ilut.dropped as f64)),
                ("control_triggered", Json::Bool(ilut.control_triggered)),
            ]);
            state.push(("ilut", ilut));
        }
        Ok(obj(state))
    }

    fn decode(state: &Json, r: &SectionReader<'_>) -> Result<Self, String> {
        let ilut = match state.get("ilut") {
            None => None,
            Some(j) => Some(IlutCheckpoint {
                mu: get(j, "mu", Json::as_f64)?,
                phi: get(j, "phi", Json::as_f64)?,
                mass_sq: get(j, "mass_sq", Json::as_f64)?,
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
        let ckpt = LuCrtpCheckpoint {
            m: get(state, "m", Json::as_usize)?,
            n: get(state, "n", Json::as_usize)?,
            iterations: get(state, "iterations", Json::as_usize)?,
            rank: get(state, "rank", Json::as_usize)?,
            indicator: get(state, "indicator", Json::as_f64)?,
            r11: get(state, "r11", Json::as_f64)?,
            s: Cow::Owned(get_csc(r, row_map.len(), col_map.len())?),
            row_map: row_map.into(),
            col_map: col_map.into(),
            l_cols: get_panels(r, "l")?.into(),
            ut_cols: get_panels(r, "ut")?.into(),
            pivot_cols: r.indices("pivot_cols")?.into(),
            pivot_rows: r.indices("pivot_rows")?.into(),
            trace: trace.into(),
            ilut,
        };
        if ckpt.pivot_cols.len() != ckpt.rank || ckpt.pivot_rows.len() != ckpt.rank {
            return Err("inconsistent checkpoint: pivot count != rank".to_string());
        }
        Ok(ckpt)
    }
}

/// Full loop state of RandQB_EI after `iterations` completed block
/// iterations: the accumulated `Q`/`B` blocks, the running squared-norm
/// residual `E`, and the exact number of RNG draws consumed — resuming
/// burns that many draws from the seeded generator, so the continued
/// sketch sequence (and therefore the factors) is bitwise identical to
/// an uninterrupted run.
#[derive(Debug, Clone)]
pub struct QbCheckpoint<'a> {
    /// Completed block iterations.
    pub iterations: usize,
    /// Accumulated rank `K`.
    pub rank: usize,
    /// Running residual `E = ||A||_F^2 - sum ||B_j||_F^2`.
    pub e: f64,
    /// Indicator history so far.
    pub history: Cow<'a, [f64]>,
    /// Accumulated orthonormal blocks.
    pub q_blocks: Cow<'a, [DenseMatrix]>,
    /// Accumulated coefficient blocks, transposed (`B_j^T`, `n x k_j`)
    /// as the loop holds them.
    pub bt_blocks: Cow<'a, [DenseMatrix]>,
    /// `next_u64` calls consumed from the seeded RNG so far.
    pub rng_draws: u64,
}

impl Checkpoint for QbCheckpoint<'_> {
    const KIND: &'static str = "rand_qb_ei";

    fn iteration(&self) -> usize {
        self.iterations
    }

    fn encode(&self, w: &mut SectionWriter) -> Result<Json, String> {
        w.f64s("history", self.history.iter().copied());
        for (name, blocks) in [("q", &self.q_blocks), ("bt", &self.bt_blocks)] {
            let shapes = blocks.iter().flat_map(|b| [b.rows(), b.cols()]);
            w.indices(&format!("{name}.shape"), shapes)?;
            let data = blocks.iter().flat_map(|b| b.as_slice());
            w.f64s(&format!("{name}.data"), data.copied());
        }
        Ok(obj(vec![
            ("iterations", Json::Num(self.iterations as f64)),
            ("rank", Json::Num(self.rank as f64)),
            ("e", Json::Num(self.e)),
            ("rng_draws", Json::Num(self.rng_draws as f64)),
        ]))
    }

    fn decode(state: &Json, r: &SectionReader<'_>) -> Result<Self, String> {
        let blocks = |name: &str| -> Result<Vec<DenseMatrix>, String> {
            let shapes = r.indices(&format!("{name}.shape"))?;
            if shapes.len() % 2 != 0 {
                return Err(format!("odd {name}.shape section"));
            }
            let sizes = shapes.chunks_exact(2).map(|s| s[0].saturating_mul(s[1]));
            let data = split_exact(r.f64s(&format!("{name}.data"))?, sizes, name)?;
            let shaped = shapes.chunks_exact(2).zip(data);
            Ok(shaped
                .map(|(s, d)| DenseMatrix::from_column_major(s[0], s[1], d))
                .collect())
        };
        Ok(QbCheckpoint {
            iterations: get(state, "iterations", Json::as_usize)?,
            rank: get(state, "rank", Json::as_usize)?,
            e: get(state, "e", Json::as_f64)?,
            history: r.f64s("history")?.into(),
            q_blocks: blocks("q")?.into(),
            bt_blocks: blocks("bt")?.into(),
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
    if ck.ilut.is_some() != want_ilut {
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

/// QB-side resume (see [`load_resume`]): the block shapes stand in for
/// the matrix dimensions, since the snapshot stores no `m`/`n` of its
/// own.
pub(crate) fn load_qb_resume(
    hooks: &RecoveryHooks<'_>,
    m: usize,
    n: usize,
) -> Option<QbCheckpoint<'static>> {
    let ck: QbCheckpoint = load_or_trip(hooks)?;
    let shapes_ok = ck.q_blocks.iter().all(|q| q.rows() == m)
        && ck.bt_blocks.iter().all(|bt| bt.rows() == n)
        && ck.q_blocks.len() == ck.bt_blocks.len();
    if !shapes_ok {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_lu_ckpt() -> LuCrtpCheckpoint<'static> {
        let s = CscMatrix::from_parts(
            3,
            2,
            vec![0, 2, 3],
            vec![0, 2, 1],
            vec![0.1, -7.0 / 3.0, 5.5e-12],
        );
        LuCrtpCheckpoint {
            m: 5,
            n: 4,
            iterations: 1,
            rank: 2,
            indicator: 0.123456789012345,
            r11: 3.25,
            s: Cow::Owned(s),
            row_map: vec![0, 2, 4].into(),
            col_map: vec![1, 3].into(),
            l_cols: vec![vec![(0, 1.0), (3, -0.5)], vec![(1, 1.0)]].into(),
            ut_cols: vec![vec![(0, 2.0)], vec![(2, 1.0 / 7.0), (3, 4.0)]].into(),
            pivot_cols: vec![2, 0].into(),
            pivot_rows: vec![1, 3].into(),
            trace: vec![IterTrace {
                iteration: 1,
                rank: 2,
                indicator: 0.123456789012345,
                schur_nnz: 3,
                schur_density: 0.5,
                schur_nnz_per_row: 1.0,
                r_diag: vec![3.25, 0.5],
            }]
            .into(),
            ilut: Some(IlutCheckpoint {
                mu: 1e-5,
                phi: 3.25e-2,
                mass_sq: 1e-11,
                dropped: 4,
                control_triggered: false,
            }),
        }
    }

    #[test]
    fn lu_checkpoint_roundtrips_bitwise_through_a_store() {
        let store = CheckpointStore::in_memory();
        let ckpt = sample_lu_ckpt();
        store.save(&ckpt).unwrap();
        let back: LuCrtpCheckpoint = store.load().unwrap().unwrap();
        assert_eq!(back.iterations, 1);
        assert_eq!(back.rank, 2);
        assert_eq!(back.indicator.to_bits(), ckpt.indicator.to_bits());
        assert_eq!(back.s.colptr(), ckpt.s.colptr());
        assert_eq!(back.s.rowidx(), ckpt.s.rowidx());
        for (a, b) in ckpt.s.values().iter().zip(back.s.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.row_map, ckpt.row_map);
        assert_eq!(back.l_cols, ckpt.l_cols);
        assert_eq!(back.ut_cols, ckpt.ut_cols);
        assert_eq!(back.pivot_cols, ckpt.pivot_cols);
        assert_eq!(back.pivot_rows, ckpt.pivot_rows);
        assert_eq!(back.trace.len(), 1);
        assert_eq!(back.trace[0].r_diag, ckpt.trace[0].r_diag);
        let ilut = back.ilut.unwrap();
        assert_eq!(ilut.mu.to_bits(), 1e-5f64.to_bits());
        assert!(!ilut.control_triggered);
    }

    #[test]
    fn inconsistent_checkpoint_is_rejected() {
        let mut ckpt = sample_lu_ckpt();
        ckpt.pivot_rows.to_mut().pop(); // now pivot count != rank
        let store = CheckpointStore::in_memory();
        store.save(&ckpt).unwrap();
        let err = store.load::<LuCrtpCheckpoint>().unwrap_err();
        assert!(err.contains("pivot count"), "{err}");
    }

    fn sample_qb_ckpt() -> QbCheckpoint<'static> {
        QbCheckpoint {
            iterations: 2,
            rank: 4,
            e: 0.875,
            history: vec![1.5, 0.9].into(),
            q_blocks: vec![DenseMatrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64 / 7.0)].into(),
            bt_blocks: vec![DenseMatrix::from_fn(4, 2, |i, j| -((i + j) as f64) * 0.3)].into(),
            rng_draws: 123456,
        }
    }

    #[test]
    fn qb_checkpoint_roundtrips_blocks_and_draws() {
        let ckpt = sample_qb_ckpt();
        let (q, bt) = (&ckpt.q_blocks[0], &ckpt.bt_blocks[0]);
        let store = CheckpointStore::in_memory();
        store.save(&ckpt).unwrap();
        let back: QbCheckpoint = store.load().unwrap().unwrap();
        assert_eq!(back.rng_draws, 123456);
        assert_eq!(back.q_blocks.len(), 1);
        for (a, bb) in q.as_slice().iter().zip(back.q_blocks[0].as_slice()) {
            assert_eq!(a.to_bits(), bb.to_bits());
        }
        assert_eq!(back.bt_blocks[0].as_slice(), bt.as_slice());
        assert_eq!(back.e.to_bits(), 0.875f64.to_bits());
        assert_eq!(back.history, vec![1.5, 0.9]);
    }

    #[test]
    fn lu_and_qb_kinds_do_not_cross_load() {
        let store = CheckpointStore::in_memory();
        store.save(&sample_lu_ckpt()).unwrap();
        assert!(store.load::<QbCheckpoint>().is_err());
    }
}
