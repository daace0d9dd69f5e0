//! SPMD scenario: running LU_CRTP across message-passing ranks.
//!
//! The paper's implementation is MPI-based; this example drives the
//! same algorithm through the `lra-comm` runtime (ranks = threads,
//! binomial-tree collectives) and shows that every rank arrives at the
//! identical rank, pivots and indicator (rank 0 alone returns the
//! factors) while the tournament's communication pattern (local
//! reduction, then log2(P) pairwise rounds) is exercised for real.
//!
//! ```sh
//! cargo run --release --example distributed_lu
//! ```

use lra::core::{
    factorize_ranks, factorize_supervised, lu_crtp, CheckpointStore, LuCrtpOpts, Parallelism,
    RecoveryHooks, RecoveryPolicy, RunConfig,
};

fn main() {
    let a = lra::matgen::with_decay(&lra::matgen::fem2d(30, 28, 11), 1e-6, 3);
    let tau = 1e-3;
    let k = 16;
    println!(
        "stiffness operator: {}x{}, nnz = {}",
        a.rows(),
        a.cols(),
        a.nnz()
    );

    // Shared-memory reference.
    let t = std::time::Instant::now();
    let reference = lu_crtp(&a, &LuCrtpOpts::new(k, tau));
    println!(
        "shared-memory LU_CRTP : rank {}, its {}, nnz {}, {:.3}s",
        reference.rank,
        reference.iterations,
        reference.factor_nnz(),
        t.elapsed().as_secs_f64()
    );

    let cfg = RunConfig::default();
    for np in [1usize, 2, 4] {
        let t = std::time::Instant::now();
        // `factorize_ranks` rejects bad inputs up front instead of
        // panicking a rank mid-collective, and reports every rank.
        let per_rank = factorize_ranks(&a, &LuCrtpOpts::new(k, tau), np, &cfg, None)
            .expect("inputs validated");
        let elapsed = t.elapsed().as_secs_f64();
        let results: Vec<_> = per_rank
            .results
            .iter()
            .map(|r| r.as_ref().expect("fault-free run"))
            .collect();
        let (rank, nnz, ind) = (results[0].rank, results[0].factor_nnz(), results[0].indicator);
        // All ranks agree bit for bit on the rank, pivots and indicator;
        // rank 0 alone returns the factors.
        assert!(results.iter().all(|r| {
            (r.rank, &r.pivot_cols, r.indicator.to_bits())
                == (rank, &results[0].pivot_cols, ind.to_bits())
        }));
        println!(
            "SPMD np={np:<2}            : rank {rank}, nnz {nnz}, indicator {ind:.3e}, {elapsed:.3}s (all {np} ranks agree)"
        );
    }

    // Supervised variant: same factorization, checkpointed every
    // iteration, and rank failures are retried/absorbed per the
    // recovery policy instead of panicking.
    let t = std::time::Instant::now();
    let store = CheckpointStore::in_memory();
    let supervised = factorize_supervised(
        &a,
        &LuCrtpOpts::new(k, tau),
        4,
        &cfg,
        &RecoveryPolicy::default(),
        RecoveryHooks::new(&store, 1),
    )
    .expect("recovery policy not exhausted");
    println!(
        "supervised np=4       : rank {}, nnz {}, attempts {}, final np {}, {:.3}s",
        supervised.value.rank,
        supervised.value.factor_nnz(),
        supervised.attempts,
        supervised.final_np,
        t.elapsed().as_secs_f64()
    );

    println!(
        "\nerror bound check: indicator {:.3e} < tau*||A||_F = {:.3e}",
        reference.indicator,
        tau * reference.a_norm_f
    );
    let exact = reference.exact_error(&a, Parallelism::SEQ);
    println!("exact ||A - LU||_F = {exact:.3e} (equals the indicator for LU_CRTP)");
}
