//! Inputs, made from `--seed`.
//!
//! Each workload starts from a generator call with fixed arguments —
//! the sizes the workload was chosen for — and `--seed` then picks the
//! row and column permutation the program sees, and the sketch seed of
//! the randomized solves. A permutation keeps the singular values, so
//! every seed asks for the same ranks and does the same amount of work
//! on a different matrix. Feeding the seed to the generators instead
//! moved the rank a tolerance needs by up to 60 % from one seed to the
//! next (160 to 256 on `tp_sparse` at τ = 1e-2), which no bound on a
//! timing survives.

use std::sync::Arc;

use lra::matgen::{circuit, economic, fem2d, fluid_block, with_decay, with_decay_rank};
use lra::sparse::CscMatrix;

/// SplitMix64 step: the benchmark's only random number generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An independent sub-seed of `seed` for the given stream.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut state = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    splitmix64(&mut state)
}

fn permutation(n: usize, state: &mut u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix64(state) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// `P_r · A · P_c` with both permutations drawn from `seed`.
pub fn shuffled(a: &CscMatrix, seed: u64) -> CscMatrix {
    let mut state = seed;
    let rows = permutation(a.rows(), &mut state);
    let cols = permutation(a.cols(), &mut state);
    a.permute_rows(&rows).select_columns(&cols)
}

/// 2400², ≈ 20 k nonzeros, ≈ 8 per column (the Table I analogue M3').
pub fn tp_sparse(seed: u64) -> CscMatrix {
    let base = with_decay_rank(&circuit(2400, 5, 20, 103), 1e-6, 700, 13);
    shuffled(&base, derive(seed, 1))
}

/// 1200², ≈ 85 k nonzeros, ≈ 71 per column (the Table I analogue M2').
pub fn fill_dense(seed: u64) -> CscMatrix {
    let base = with_decay_rank(&fluid_block(30, 40, 102), 1e-6, 500, 12);
    shuffled(&base, derive(seed, 2))
}

/// 4000², ≈ 28 k nonzeros (half-scale Table I analogue M5').
pub fn qb_dense(seed: u64) -> CscMatrix {
    let base = with_decay_rank(&economic(4000, 40, 105), 1e-6, 800, 15);
    shuffled(&base, derive(seed, 3))
}

/// Matrix of the long low-priority job of wave `wave` of pass `pass`
/// (168²). The wave picks the generator arguments and the pass only
/// the permutation, so every pass serves the same ranks on matrices
/// the factor cache has not seen.
pub fn serve_victim(seed: u64, pass: usize, wave: usize) -> Arc<CscMatrix> {
    let g = wave as u64;
    let base = with_decay(&fem2d(14, 12, 1000 + g), 1e-6, 2000 + g);
    Arc::new(shuffled(&base, derive(seed, 4000 + 64 * pass as u64 + g)))
}

/// Matrix of short job `slot` of that wave (80²): slot 0 is the urgent
/// job, slots 1.. the tenants.
pub fn serve_short(seed: u64, pass: usize, wave: usize, slot: usize) -> Arc<CscMatrix> {
    let g = (wave * 8 + slot) as u64;
    let base = with_decay(&fem2d(10, 8, 3000 + g), 1e-6, 5000 + g);
    Arc::new(shuffled(&base, derive(seed, 8000 + 64 * pass as u64 + g)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_matrices() {
        assert_eq!(tp_sparse(7), tp_sparse(7));
        assert_eq!(serve_short(7, 1, 3, 2), serve_short(7, 1, 3, 2));
    }

    #[test]
    fn different_seed_gives_a_different_fingerprint() {
        assert_ne!(tp_sparse(7).fingerprint(), tp_sparse(8).fingerprint());
        assert_ne!(fill_dense(7).fingerprint(), fill_dense(8).fingerprint());
        assert_ne!(
            serve_victim(7, 0, 0).fingerprint(),
            serve_victim(8, 0, 0).fingerprint()
        );
        // Passes and waves of one seed are different requests too.
        assert_ne!(
            serve_short(7, 0, 0, 1).fingerprint(),
            serve_short(7, 0, 1, 1).fingerprint()
        );
        assert_ne!(
            serve_short(7, 0, 0, 1).fingerprint(),
            serve_short(7, 1, 0, 1).fingerprint()
        );
    }

    #[test]
    fn a_seed_permutes_without_changing_the_entries() {
        let (a, b) = (fill_dense(1), fill_dense(2));
        assert_eq!((a.rows(), a.cols(), a.nnz()), (b.rows(), b.cols(), b.nnz()));
        let sorted = |m: &CscMatrix| {
            let mut v: Vec<u64> = m.values().iter().map(|x| x.to_bits()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(&a), sorted(&b));
    }

    #[test]
    fn derived_streams_differ() {
        assert_ne!(derive(7, 1), derive(7, 2));
        assert_ne!(derive(7, 1), derive(8, 1));
        assert_eq!(derive(7, 1), derive(7, 1));
    }
}
