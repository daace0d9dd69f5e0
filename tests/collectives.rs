//! The one-round collectives of `lra-comm`, pinned where tier-1 runs.
//!
//! `allreduce` exchanges every rank's value in one round and replays
//! the binomial tree to rank 0 on every rank, so every rank must hold
//! the same bits for *any* op — the fold order is the contract,
//! pinned here with a non-associative op. Every eager collective's
//! tag carries its sequence number, so a dropped message ends the run
//! with a watchdog `Timeout` inside the collective that lost it: it is
//! never replaced by the next collective's message.

use lra::comm::{run_infallible, run_with, CommError, Ctx, FaultPlan, RunConfig};
use lra::qrtp::tournament_columns_spmd_sharded;
use lra::sparse::CscMatrix;
use std::time::Duration;

/// The bracket the binomial tree over ranks `0..size` builds, written
/// top-down: the subtree of span `2s` at `i` joins its halves at `i`
/// and `i + s`; a half past the last rank is absent.
fn binomial_bracket(size: usize) -> String {
    fn tree(i: usize, span: usize, size: usize) -> String {
        if span == 1 {
            return i.to_string();
        }
        let half = span / 2;
        let left = tree(i, half, size);
        if i + half < size {
            format!("({left},{})", tree(i + half, half, size))
        } else {
            left
        }
    }
    tree(0, size.next_power_of_two(), size)
}

fn bracket(a: String, b: String) -> String {
    format!("({a},{b})")
}

#[test]
fn allreduce_and_allgather_fold_in_the_binomial_tree_order() {
    assert_eq!(binomial_bracket(7), "(((0,1),(2,3)),((4,5),6))");
    for np in 1..=7usize {
        let want = binomial_bracket(np);
        let out = run_infallible(np, |ctx| {
            let mine = ctx.rank().to_string();
            (ctx.allreduce(mine.clone(), bracket), ctx.allgather(mine))
        });
        let ranks: Vec<String> = (0..np).map(|r| r.to_string()).collect();
        for (rank, (all, gathered)) in out.into_iter().enumerate() {
            assert_eq!(all, want, "np={np} rank={rank}: allreduce");
            assert_eq!(gathered, ranks, "np={np} rank={rank}: allgather order");
        }
    }
    // The same order decides f64 rounding. At np = 3 the tree adds
    // rank 2 last: (1 + 2^-53) + 2^-53 = 1, where 1 + (2^-53 + 2^-53)
    // would be 1 + 2^-52.
    let tiny = f64::EPSILON / 2.0;
    assert_ne!(1.0 + (tiny + tiny), 1.0);
    let sums = run_infallible(3, |ctx| {
        let mine = [1.0, tiny, tiny][ctx.rank()];
        ctx.allreduce(mine, |a, b| a + b)
    });
    assert!(sums.iter().all(|&s| s == 1.0), "{sums:?}");
}

/// `rounds` collectives through `step` under a plan that drops rank
/// `from`'s send number `nth`; returns every rank's outcome.
fn dropped_run<T: Send>(
    np: usize,
    from: usize,
    nth: u64,
    rounds: usize,
    step: impl Fn(&Ctx, usize) -> T + Sync,
) -> Vec<Result<Vec<T>, CommError>> {
    let cfg = RunConfig::default()
        .with_watchdog(Duration::from_millis(200))
        .with_faults(FaultPlan::new().drop_nth_send(from, nth));
    run_with(np, &cfg, |ctx| (0..rounds).map(|i| step(ctx, i)).collect::<Vec<T>>()).results
}

/// A message lost before the last collective: no rank may return a
/// value. Without sequence numbers in the tags, the receiver would take
/// the next collective's message in its place and the run would end
/// with values on the ranks ahead of it.
fn assert_no_value<T: std::fmt::Debug>(results: &[Result<T, CommError>], what: &str) {
    assert!(results.iter().all(Result::is_err), "{what}: {results:?}");
    assert!(
        results.iter().any(|r| matches!(r, Err(CommError::Timeout(_)))),
        "{what}: a watchdog must fire: {results:?}"
    );
}

#[test]
fn a_dropped_allreduce_message_times_out_inside_its_collective() {
    let sum = |ctx: &Ctx, i: usize| ctx.allreduce(ctx.rank() + i, |a, b| a + b);
    // Every rank sends `np - 1` messages per round, in ascending
    // destination order. np = 2: rank 0's send in the second of four
    // rounds; np = 3: rank 1's send to rank 0 in the second round.
    assert_no_value(&dropped_run(2, 0, 1, 4, sum), "np=2");
    assert_no_value(&dropped_run(3, 1, 2, 4, sum), "np=3");

    // Lost in the last of three rounds: the ranks that got every
    // message finish, and the one that did not reports the collective
    // that lost it, sequence number included.
    for (np, from, nth, to) in [(2usize, 0usize, 2u64, 1usize), (3, 1, 5, 2)] {
        let results = dropped_run(np, from, nth, 3, sum);
        for (rank, r) in results.iter().enumerate() {
            match r {
                Err(CommError::Timeout(diag)) if rank == to => {
                    assert_eq!((diag.src, diag.collective_pc), (from, 3), "np={np}");
                    assert_eq!(diag.in_collective, Some("allreduce"), "np={np}");
                    let shown = r.as_ref().unwrap_err().to_string();
                    assert!(shown.contains("tag=coll/2#3"), "np={np}: {shown}");
                }
                Ok(v) if rank != to => assert_eq!(v.len(), 3, "np={np}"),
                other => panic!("np={np} rank={rank}: {other:?}"),
            }
        }
    }
}

fn tournament_matrix() -> CscMatrix {
    lra::matgen::with_decay(&lra::matgen::circuit(120, 4, 4, 5), 1e-6, 7)
}

#[test]
fn a_dropped_tournament_message_times_out() {
    let a = tournament_matrix();
    let select = |ctx: &Ctx, _: usize| {
        let ranges = lra::par::split_ranges(a.cols(), ctx.size());
        let range = lra::par::owned_range(&ranges, ctx.rank());
        let shard = a.slice_columns(range.clone());
        tournament_columns_spmd_sharded(ctx, &shard, range.start, 4).0.selected
    };
    // The tournament's only messages are its global stage's allreduce:
    // drop the first send of the first of two tournaments.
    for (np, from) in [(2usize, 0usize), (3, 1)] {
        assert_no_value(&dropped_run(np, from, 0, 2, select), &format!("np={np}"));
    }
    // The same two tournaments without the fault agree on every rank.
    let clean = run_infallible(3, |ctx| (0..2).map(|i| select(ctx, i)).collect::<Vec<_>>());
    assert!(clean.iter().all(|r| r == &clean[0] && r[0].len() == 4), "{clean:?}");
}
