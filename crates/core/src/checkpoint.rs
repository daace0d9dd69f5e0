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
//! Serialization goes through the `lra-obs` [`Json`] writer, which
//! prints finite `f64`s with shortest round-trip formatting: a
//! save → load cycle is bitwise exact, so a resumed run on the same
//! rank count reproduces the uninterrupted factors bit for bit.

use crate::lucrtp::IterTrace;
use lra_dense::DenseMatrix;
use lra_obs::Json;
use lra_qrtp::ColumnSelection;
pub use lra_recover::{Checkpoint, CheckpointStore};
use lra_sparse::CscMatrix;

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
/// interrupted.
#[derive(Debug, Clone)]
pub struct LuCrtpCheckpoint {
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
    pub s: CscMatrix,
    /// Trailing-row ids (into original coordinates).
    pub row_map: Vec<usize>,
    /// Trailing-column ids (into original coordinates).
    pub col_map: Vec<usize>,
    /// Accumulated `L` panels (columns, original row ids).
    pub l_cols: Vec<Vec<(usize, f64)>>,
    /// Accumulated `U^T` panels (columns, original column ids).
    pub ut_cols: Vec<Vec<(usize, f64)>>,
    /// Selected pivot columns so far, as a tournament
    /// [`ColumnSelection`] whose `r_diag` carries the concatenated
    /// rank-revealing `|diag(R)|` estimates.
    pub pivots: ColumnSelection,
    /// Selected pivot rows (original ids, factor order).
    pub pivot_rows: Vec<usize>,
    /// Per-iteration trace so far.
    pub trace: Vec<IterTrace>,
    /// Threshold state (ILUT_CRTP only).
    pub ilut: Option<IlutCheckpoint>,
}

impl Checkpoint for LuCrtpCheckpoint {
    const KIND: &'static str = "lu_crtp";

    fn iteration(&self) -> usize {
        self.iterations
    }

    fn state_to_json(&self) -> Json {
        let mut fields = vec![
            ("m".to_string(), Json::Num(self.m as f64)),
            ("n".to_string(), Json::Num(self.n as f64)),
            (
                "iterations".to_string(),
                Json::Num(self.iterations as f64),
            ),
            ("rank".to_string(), Json::Num(self.rank as f64)),
            ("indicator".to_string(), Json::Num(self.indicator)),
            ("r11".to_string(), Json::Num(self.r11)),
            ("s".to_string(), csc_to_json(&self.s)),
            ("row_map".to_string(), arr_usize(&self.row_map)),
            ("col_map".to_string(), arr_usize(&self.col_map)),
            ("l_cols".to_string(), panels_to_json(&self.l_cols)),
            ("ut_cols".to_string(), panels_to_json(&self.ut_cols)),
            ("pivots".to_string(), self.pivots.to_json()),
            ("pivot_rows".to_string(), arr_usize(&self.pivot_rows)),
            (
                "trace".to_string(),
                Json::Arr(self.trace.iter().map(trace_to_json).collect()),
            ),
        ];
        if let Some(ilut) = &self.ilut {
            fields.push((
                "ilut".to_string(),
                Json::Obj(vec![
                    ("mu".to_string(), Json::Num(ilut.mu)),
                    ("phi".to_string(), Json::Num(ilut.phi)),
                    ("mass_sq".to_string(), Json::Num(ilut.mass_sq)),
                    ("dropped".to_string(), Json::Num(ilut.dropped as f64)),
                    (
                        "control_triggered".to_string(),
                        Json::Bool(ilut.control_triggered),
                    ),
                ]),
            ));
        }
        Json::Obj(fields)
    }

    fn state_from_json(state: &Json) -> Result<Self, String> {
        check_numerics_tag(state)?;
        let ilut = match state.get("ilut") {
            None => None,
            Some(j) => Some(IlutCheckpoint {
                mu: get_f64(j, "mu")?,
                phi: get_f64(j, "phi")?,
                mass_sq: get_f64(j, "mass_sq")?,
                dropped: get_usize(j, "dropped")?,
                control_triggered: j
                    .get("control_triggered")
                    .and_then(Json::as_bool)
                    .ok_or("missing control_triggered")?,
            }),
        };
        let ckpt = LuCrtpCheckpoint {
            m: get_usize(state, "m")?,
            n: get_usize(state, "n")?,
            iterations: get_usize(state, "iterations")?,
            rank: get_usize(state, "rank")?,
            indicator: get_f64(state, "indicator")?,
            r11: get_f64(state, "r11")?,
            s: csc_from_json(state.get("s").ok_or("missing s")?)?,
            row_map: get_arr_usize(state, "row_map")?,
            col_map: get_arr_usize(state, "col_map")?,
            l_cols: panels_from_json(state.get("l_cols").ok_or("missing l_cols")?)?,
            ut_cols: panels_from_json(state.get("ut_cols").ok_or("missing ut_cols")?)?,
            pivots: ColumnSelection::from_json(state.get("pivots").ok_or("missing pivots")?)?,
            pivot_rows: get_arr_usize(state, "pivot_rows")?,
            trace: state
                .get("trace")
                .and_then(Json::as_arr)
                .ok_or("missing trace")?
                .iter()
                .map(trace_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            ilut,
        };
        if ckpt.s.rows() != ckpt.row_map.len() || ckpt.s.cols() != ckpt.col_map.len() {
            return Err(format!(
                "inconsistent checkpoint: schur {}x{} vs maps {}x{}",
                ckpt.s.rows(),
                ckpt.s.cols(),
                ckpt.row_map.len(),
                ckpt.col_map.len()
            ));
        }
        if ckpt.pivots.selected.len() != ckpt.rank || ckpt.pivot_rows.len() != ckpt.rank {
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
pub struct QbCheckpoint {
    /// Completed block iterations.
    pub iterations: usize,
    /// Accumulated rank `K`.
    pub rank: usize,
    /// Running residual `E = ||A||_F^2 - sum ||B_j||_F^2`.
    pub e: f64,
    /// Indicator history so far.
    pub history: Vec<f64>,
    /// Accumulated orthonormal blocks.
    pub q_blocks: Vec<DenseMatrix>,
    /// Accumulated coefficient blocks.
    pub b_blocks: Vec<DenseMatrix>,
    /// `next_u64` calls consumed from the seeded RNG so far.
    pub rng_draws: u64,
}

impl Checkpoint for QbCheckpoint {
    const KIND: &'static str = "rand_qb_ei";

    fn iteration(&self) -> usize {
        self.iterations
    }

    fn state_to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "iterations".to_string(),
                Json::Num(self.iterations as f64),
            ),
            ("rank".to_string(), Json::Num(self.rank as f64)),
            ("e".to_string(), Json::Num(self.e)),
            ("history".to_string(), arr_f64(&self.history)),
            (
                "q_blocks".to_string(),
                Json::Arr(self.q_blocks.iter().map(dense_to_json).collect()),
            ),
            (
                "b_blocks".to_string(),
                Json::Arr(self.b_blocks.iter().map(dense_to_json).collect()),
            ),
            ("rng_draws".to_string(), Json::Num(self.rng_draws as f64)),
        ])
    }

    fn state_from_json(state: &Json) -> Result<Self, String> {
        check_numerics_tag(state)?;
        let blocks = |key: &'static str| -> Result<Vec<DenseMatrix>, String> {
            state
                .get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("missing {key}"))?
                .iter()
                .map(dense_from_json)
                .collect()
        };
        Ok(QbCheckpoint {
            iterations: get_usize(state, "iterations")?,
            rank: get_usize(state, "rank")?,
            e: get_f64(state, "e")?,
            history: get_arr_f64(state, "history")?,
            q_blocks: blocks("q_blocks")?,
            b_blocks: blocks("b_blocks")?,
            rng_draws: state
                .get("rng_draws")
                .and_then(Json::as_u64)
                .ok_or("missing rng_draws")?,
        })
    }
}

/// Driver-side resume: load the store's latest snapshot if it matches
/// this run (same matrix shape, same algorithm family). A corrupt or
/// mismatched snapshot is *not* fatal — the driver records a
/// `recover.guard_trip` and starts from iteration 0, which is always
/// correct, just slower.
pub(crate) fn load_resume(
    hooks: &RecoveryHooks<'_>,
    m: usize,
    n: usize,
    want_ilut: bool,
) -> Option<LuCrtpCheckpoint> {
    let ck = match hooks.store().load::<LuCrtpCheckpoint>() {
        Ok(ck) => ck?,
        Err(e) => {
            lra_recover::record_guard_trip(format!("unusable checkpoint ignored: {e}"));
            return None;
        }
    };
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
pub(crate) fn save_snapshot(hooks: &RecoveryHooks<'_>, ck: &LuCrtpCheckpoint) {
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
) -> Option<QbCheckpoint> {
    let ck = match hooks.store().load::<QbCheckpoint>() {
        Ok(ck) => ck?,
        Err(e) => {
            lra_recover::record_guard_trip(format!("unusable checkpoint ignored: {e}"));
            return None;
        }
    };
    let shapes_ok = ck.q_blocks.iter().all(|q| q.rows() == m)
        && ck.b_blocks.iter().all(|b| b.cols() == n)
        && ck.q_blocks.len() == ck.b_blocks.len();
    if !shapes_ok {
        lra_recover::record_guard_trip(format!(
            "QB checkpoint block shapes do not fit a {m}x{n} input; ignored"
        ));
        return None;
    }
    Some(ck)
}

/// Persist a QB snapshot; like [`save_snapshot`], failure is a guard
/// trip, never an abort.
pub(crate) fn save_qb_snapshot(hooks: &RecoveryHooks<'_>, ck: &QbCheckpoint) {
    if let Err(e) = hooks.store().save(ck) {
        lra_recover::record_guard_trip(format!("checkpoint save failed: {e}"));
    }
}

// ---- Json helpers -------------------------------------------------

/// A stored envelope is outside input: builds that had a relaxed
/// numerics mode tagged every snapshot with the mode that produced it.
/// No tag, or `"bitwise"`, is this build's arithmetic; any other tag
/// (a `"fast"` snapshot left in a disk store) is a decode error, so the
/// driver ignores the snapshot and starts fresh instead of splicing two
/// rounding regimes into one run.
fn check_numerics_tag(j: &Json) -> Result<(), String> {
    match j.get("numerics").map(Json::as_str) {
        None | Some(Some("bitwise")) => Ok(()),
        Some(Some(other)) => Err(format!("checkpoint written in {other:?} numerics mode")),
        Some(None) => Err("numerics tag not a string".to_string()),
    }
}

fn arr_usize(xs: &[usize]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x as f64)).collect())
}

fn arr_f64(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
}

fn get_f64(j: &Json, key: &'static str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing {key}"))
}

fn get_usize(j: &Json, key: &'static str) -> Result<usize, String> {
    j.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| format!("missing {key}"))
}

fn get_arr_usize(j: &Json, key: &'static str) -> Result<Vec<usize>, String> {
    j.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing {key}"))?
        .iter()
        .map(|v| v.as_usize().ok_or_else(|| format!("non-index in {key}")))
        .collect()
}

fn get_arr_f64(j: &Json, key: &'static str) -> Result<Vec<f64>, String> {
    j.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing {key}"))?
        .iter()
        .map(|v| v.as_f64().ok_or_else(|| format!("non-number in {key}")))
        .collect()
}

fn csc_to_json(m: &CscMatrix) -> Json {
    Json::Obj(vec![
        ("rows".to_string(), Json::Num(m.rows() as f64)),
        ("cols".to_string(), Json::Num(m.cols() as f64)),
        ("colptr".to_string(), arr_usize(m.colptr())),
        ("rowidx".to_string(), arr_usize(m.rowidx())),
        ("values".to_string(), arr_f64(m.values())),
    ])
}

fn csc_from_json(j: &Json) -> Result<CscMatrix, String> {
    let rows = get_usize(j, "rows")?;
    let cols = get_usize(j, "cols")?;
    let colptr = get_arr_usize(j, "colptr")?;
    let rowidx = get_arr_usize(j, "rowidx")?;
    let values = get_arr_f64(j, "values")?;
    if colptr.len() != cols + 1 || rowidx.len() != values.len() {
        return Err("malformed CSC checkpoint".to_string());
    }
    Ok(CscMatrix::from_parts(rows, cols, colptr, rowidx, values))
}

fn dense_to_json(m: &DenseMatrix) -> Json {
    Json::Obj(vec![
        ("rows".to_string(), Json::Num(m.rows() as f64)),
        ("cols".to_string(), Json::Num(m.cols() as f64)),
        ("data".to_string(), arr_f64(m.as_slice())),
    ])
}

fn dense_from_json(j: &Json) -> Result<DenseMatrix, String> {
    let rows = get_usize(j, "rows")?;
    let cols = get_usize(j, "cols")?;
    let data = get_arr_f64(j, "data")?;
    if data.len() != rows * cols {
        return Err("malformed dense checkpoint".to_string());
    }
    Ok(DenseMatrix::from_column_major(rows, cols, data))
}

/// Sparse panel columns (`l_cols` / `ut_cols`) as per-column index and
/// value arrays.
fn panels_to_json(cols: &[Vec<(usize, f64)>]) -> Json {
    Json::Arr(
        cols.iter()
            .map(|col| {
                Json::Obj(vec![
                    (
                        "i".to_string(),
                        Json::Arr(col.iter().map(|&(i, _)| Json::Num(i as f64)).collect()),
                    ),
                    (
                        "v".to_string(),
                        Json::Arr(col.iter().map(|&(_, v)| Json::Num(v)).collect()),
                    ),
                ])
            })
            .collect(),
    )
}

fn panels_from_json(j: &Json) -> Result<Vec<Vec<(usize, f64)>>, String> {
    j.as_arr()
        .ok_or("panels not an array")?
        .iter()
        .map(|col| {
            let is = get_arr_usize(col, "i")?;
            let vs = get_arr_f64(col, "v")?;
            if is.len() != vs.len() {
                return Err("ragged panel column".to_string());
            }
            Ok(is.into_iter().zip(vs).collect())
        })
        .collect()
}

fn trace_to_json(t: &IterTrace) -> Json {
    Json::Obj(vec![
        ("iteration".to_string(), Json::Num(t.iteration as f64)),
        ("rank".to_string(), Json::Num(t.rank as f64)),
        ("indicator".to_string(), Json::Num(t.indicator)),
        ("schur_nnz".to_string(), Json::Num(t.schur_nnz as f64)),
        ("schur_density".to_string(), Json::Num(t.schur_density)),
        (
            "schur_nnz_per_row".to_string(),
            Json::Num(t.schur_nnz_per_row),
        ),
        ("r_diag".to_string(), arr_f64(&t.r_diag)),
    ])
}

fn trace_from_json(j: &Json) -> Result<IterTrace, String> {
    Ok(IterTrace {
        iteration: get_usize(j, "iteration")?,
        rank: get_usize(j, "rank")?,
        indicator: get_f64(j, "indicator")?,
        schur_nnz: get_usize(j, "schur_nnz")?,
        schur_density: get_f64(j, "schur_density")?,
        schur_nnz_per_row: get_f64(j, "schur_nnz_per_row")?,
        r_diag: get_arr_f64(j, "r_diag")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_lu_ckpt() -> LuCrtpCheckpoint {
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
            s,
            row_map: vec![0, 2, 4],
            col_map: vec![1, 3],
            l_cols: vec![vec![(0, 1.0), (3, -0.5)], vec![(1, 1.0)]],
            ut_cols: vec![vec![(0, 2.0)], vec![(2, 1.0 / 7.0), (3, 4.0)]],
            pivots: ColumnSelection {
                selected: vec![2, 0],
                r_diag: vec![3.25, 0.5],
            },
            pivot_rows: vec![1, 3],
            trace: vec![IterTrace {
                iteration: 1,
                rank: 2,
                indicator: 0.123456789012345,
                schur_nnz: 3,
                schur_density: 0.5,
                schur_nnz_per_row: 1.0,
                r_diag: vec![3.25, 0.5],
            }],
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
        assert_eq!(back.pivots.selected, ckpt.pivots.selected);
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
        ckpt.pivot_rows.pop(); // now pivot count != rank
        let store = CheckpointStore::in_memory();
        store.save(&ckpt).unwrap();
        let err = store.load::<LuCrtpCheckpoint>().unwrap_err();
        assert!(err.contains("pivot count"), "{err}");
    }

    fn sample_qb_ckpt() -> QbCheckpoint {
        QbCheckpoint {
            iterations: 2,
            rank: 4,
            e: 0.875,
            history: vec![1.5, 0.9],
            q_blocks: vec![DenseMatrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64 / 7.0)],
            b_blocks: vec![DenseMatrix::from_fn(2, 4, |i, j| -((i + j) as f64) * 0.3)],
            rng_draws: 123456,
        }
    }

    #[test]
    fn qb_checkpoint_roundtrips_blocks_and_draws() {
        let ckpt = sample_qb_ckpt();
        let (q, b) = (&ckpt.q_blocks[0], &ckpt.b_blocks[0]);
        let store = CheckpointStore::in_memory();
        store.save(&ckpt).unwrap();
        let back: QbCheckpoint = store.load().unwrap().unwrap();
        assert_eq!(back.rng_draws, 123456);
        assert_eq!(back.q_blocks.len(), 1);
        for (a, bb) in q.as_slice().iter().zip(back.q_blocks[0].as_slice()) {
            assert_eq!(a.to_bits(), bb.to_bits());
        }
        assert_eq!(back.b_blocks[0].as_slice(), b.as_slice());
        assert_eq!(back.e.to_bits(), 0.875f64.to_bits());
        assert_eq!(back.history, vec![1.5, 0.9]);
    }

    #[test]
    fn only_an_absent_or_bitwise_numerics_tag_decodes() {
        // Envelopes are outside input: older builds tagged each one
        // with the numerics mode that produced it.
        fn tagged(state: Json, tag: Option<Json>) -> Json {
            let Json::Obj(mut fields) = state else {
                panic!("checkpoint state is an object")
            };
            fields.extend(tag.map(|t| ("numerics".to_string(), t)));
            Json::Obj(fields)
        }
        let (lu, qb) = (sample_lu_ckpt(), sample_qb_ckpt());
        for ok in [None, Some(Json::Str("bitwise".to_string()))] {
            let back = LuCrtpCheckpoint::state_from_json(&tagged(lu.state_to_json(), ok.clone()));
            assert_eq!(back.unwrap().rank, lu.rank);
            let back = QbCheckpoint::state_from_json(&tagged(qb.state_to_json(), ok));
            assert_eq!(back.unwrap().rng_draws, qb.rng_draws);
        }
        for bad in [Json::Str("fast".to_string()), Json::Num(1.0)] {
            let state = tagged(lu.state_to_json(), Some(bad.clone()));
            let err = LuCrtpCheckpoint::state_from_json(&state).unwrap_err();
            assert!(err.contains("numerics"), "{err}");
            let state = tagged(qb.state_to_json(), Some(bad));
            let err = QbCheckpoint::state_from_json(&state).unwrap_err();
            assert!(err.contains("numerics"), "{err}");
        }
    }

    #[test]
    fn lu_and_qb_kinds_do_not_cross_load() {
        let store = CheckpointStore::in_memory();
        store.save(&sample_lu_ckpt()).unwrap();
        assert!(store.load::<QbCheckpoint>().is_err());
    }
}
