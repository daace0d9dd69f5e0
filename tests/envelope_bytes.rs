//! The bytes a checkpoint save writes, pinned: the length and the
//! CRC-32 of the newest generation after three fixed runs — a
//! sequential ILUT_CRTP solve (its Schur complement held as several
//! column runs), the same solve over two sharded SPMD ranks (rank 0
//! writes every rank's shard), and a RandQB_EI solve. Any change to how
//! a snapshot is laid out, sized or written that moves a byte fails
//! here; a deliberate format change re-captures the constants.

use lra::core::{
    factorize, rand_qb_ei_checkpointed, CheckpointStore, Exec, IlutOpts, LuCrtpCheckpoint, QbOpts,
    RecoveryHooks,
};
use lra::obs::crc::crc32;
use lra::sparse::CscMatrix;

/// 120 x 120; at k = 4 its complement still spans two 32-column runs
/// at the last save.
fn matrix() -> CscMatrix {
    lra::matgen::with_decay(&lra::matgen::fem2d(12, 10, 5), 1e-6, 3)
}

/// `(length, CRC-32)` of `store`'s newest generation, the CRC taken
/// over every byte before the trailer's own (a CRC run over its own
/// trailer reads one constant for every envelope).
fn newest(store: &CheckpointStore) -> (usize, u32) {
    let bytes = store.raw().unwrap().expect("a generation was saved");
    (bytes.len(), crc32(&bytes[..bytes.len() - 4]))
}

fn ilut_newest(np: Option<usize>) -> (usize, u32) {
    let a = matrix();
    let opts = IlutOpts::new(4, 1e-3, 8);
    let store = CheckpointStore::in_memory();
    let hooks = RecoveryHooks::new(&store, 2);
    let r = match np {
        None => factorize(&a, &opts, Exec::Seq, Some(&hooks)),
        Some(np) => lra::comm::run_infallible(np, |ctx| {
            factorize(&a, &opts, Exec::Spmd(ctx), Some(&hooks))
        })
        .swap_remove(0),
    };
    assert!(r.converged, "{:?}", r.breakdown);
    assert!(r.iterations > 4, "{} iterations save too little", r.iterations);
    let ck: LuCrtpCheckpoint = store.load().unwrap().expect("a generation was saved");
    // More than one 32-column run: the sequential engine lends several.
    assert!(ck.state.col_map.len() > 32, "{} columns left to save", ck.state.col_map.len());
    newest(&store)
}

#[test]
fn sequential_ilut_envelope_bytes_are_pinned() {
    assert_eq!(ilut_newest(None), (31656, 3944666612));
}

#[test]
fn sharded_ilut_envelope_bytes_are_pinned() {
    assert_eq!(ilut_newest(Some(2)), (32315, 2833536029));
}

#[test]
fn rand_qb_ei_envelope_bytes_are_pinned() {
    let a = matrix();
    let store = CheckpointStore::in_memory();
    let r = rand_qb_ei_checkpointed(&a, &QbOpts::new(4, 1e-3), Some(&RecoveryHooks::new(&store, 1)))
        .unwrap();
    assert!(r.iterations > 2, "{} iterations save too little", r.iterations);
    assert_eq!(newest(&store), (131361, 3914724646));
}
