//! Stress and adversarial-ordering tests for the SPMD runtime,
//! including the fault-model guarantees: panic containment inside
//! collectives, chaos-delayed deliveries, and watchdog detection of
//! dropped messages. Nothing here may hang — every adversarial run is
//! bounded by an explicit watchdog.

use lra_comm::{run_infallible, run_with, CommError, FaultPlan, RunConfig};
use std::time::{Duration, Instant};

#[test]
fn message_storm_all_to_all() {
    // Every rank sends 50 tagged messages to every other rank, receives
    // in a rank-dependent shuffled order. Exercises out-of-order
    // buffering under load.
    let np = 6;
    let rounds = 50u64;
    let out = run_infallible(np, |ctx| {
        let me = ctx.rank();
        for dst in 0..ctx.size() {
            if dst == me {
                continue;
            }
            for t in 0..rounds {
                ctx.send(dst, t, (me, t));
            }
        }
        let mut sum = 0u64;
        for src in 0..ctx.size() {
            if src == me {
                continue;
            }
            // Receive tags in reverse order to force buffering.
            for t in (0..rounds).rev() {
                let (s, tt): (usize, u64) = ctx.recv(src, t);
                assert_eq!(s, src);
                assert_eq!(tt, t);
                sum += tt;
            }
        }
        sum
    });
    let expect = (np as u64 - 1) * (0..50u64).sum::<u64>();
    assert!(out.iter().all(|&s| s == expect));
}

#[test]
fn large_payloads_roundtrip() {
    let out = run_infallible(3, |ctx| {
        let big: Vec<f64> = (0..100_000).map(|i| i as f64).collect();
        let next = (ctx.rank() + 1) % 3;
        let prev = (ctx.rank() + 2) % 3;
        ctx.send(next, 1, big);
        let got: Vec<f64> = ctx.recv(prev, 1);
        got.len()
    });
    assert!(out.iter().all(|&l| l == 100_000));
}

#[test]
fn many_sequential_collectives() {
    // Back-to-back collectives of mixed types must not cross-match.
    let out = run_infallible(5, |ctx| {
        let mut acc = 0usize;
        for round in 0..30usize {
            let s = ctx.allreduce(round, |a, b| a + b);
            assert_eq!(s, round * 5);
            let b = ctx.broadcast(round % 5, if ctx.rank() == round % 5 { round } else { 0 });
            assert_eq!(b, round);
            let g = ctx.allgather(ctx.rank() + round);
            assert_eq!(g.len(), 5);
            acc += s + b + g.iter().sum::<usize>();
        }
        acc
    });
    for v in &out[1..] {
        assert_eq!(*v, out[0]);
    }
}

#[test]
fn non_power_of_two_sizes() {
    for np in [3usize, 5, 6, 7, 9, 11] {
        let out = run_infallible(np, |ctx| {
            let s = ctx.allreduce(1usize, |a, b| a + b);
            let g = ctx.allgather(ctx.rank());
            let m = ctx.broadcast(np - 1, if ctx.rank() == np - 1 { 99 } else { 0 });
            (s, g.len(), m)
        });
        for (s, glen, m) in out {
            assert_eq!(s, np);
            assert_eq!(glen, np);
            assert_eq!(m, 99);
        }
    }
}

#[test]
fn single_rank_degenerate_cases() {
    let out = run_infallible(1, |ctx| {
        assert_eq!(ctx.allreduce(7usize, |a, b| a + b), 7);
        assert_eq!(ctx.allgather(3usize), vec![3]);
        assert_eq!(ctx.broadcast(0, "x"), "x");
        ctx.barrier();
        ctx.rank()
    });
    assert_eq!(out, vec![0]);
}

// ---------------------------------------------------------------------
// Fault-model tests. Every run below is bounded by an explicit
// watchdog, so a containment regression fails the test instead of
// hanging the suite.
// ---------------------------------------------------------------------

/// A rank panics while its peers are already blocked inside a
/// collective. Containment must abort every peer with `PeerFailed`
/// well inside the watchdog window (poison delivery, not timeout).
#[test]
fn panic_mid_collective_poisons_all_peers() {
    for np in [2usize, 3, 7, 8] {
        let victim = np / 2;
        let watchdog = Duration::from_secs(10);
        let cfg = RunConfig::default().with_watchdog(watchdog);
        let started = Instant::now();
        let report = run_with(np, &cfg, move |ctx| {
            // Peers enter the collective first; the victim stalls a
            // moment so they are genuinely blocked, then panics.
            if ctx.rank() == victim {
                std::thread::sleep(Duration::from_millis(30));
                panic!("victim rank {} dies mid-collective", ctx.rank());
            }
            let sum = ctx.allreduce(1usize, |a, b| a + b);
            let hi = ctx.broadcast(0, sum);
            sum + hi
        });
        let elapsed = started.elapsed();
        assert!(
            elapsed < watchdog,
            "np={np}: containment took {elapsed:?}, watchdog {watchdog:?}"
        );
        match report.results[victim].as_ref().unwrap_err() {
            CommError::Failed { rank, payload } => {
                assert_eq!(*rank, victim, "np={np}");
                assert!(payload.contains("dies mid-collective"), "np={np}: {payload}");
            }
            other => panic!("np={np} victim: {other:?}"),
        }
        for (r, res) in report.results.iter().enumerate() {
            if r == victim {
                continue;
            }
            match res.as_ref().unwrap_err() {
                CommError::PeerFailed { rank, payload } => {
                    assert_eq!(*rank, victim, "np={np} rank {r}");
                    assert!(payload.contains("dies mid-collective"), "np={np}: {payload}");
                }
                other => panic!("np={np} rank {r}: {other:?}"),
            }
        }
    }
}

/// Interleaved broadcasts and reductions under seeded chaos delays
/// must produce exactly the results of the undelayed run: delays
/// perturb interleavings, never matching.
#[test]
fn interleaved_collectives_survive_chaos_delays() {
    let program = |ctx: &lra_comm::Ctx| {
        let np = ctx.size();
        let mut acc: u64 = 0;
        for round in 0..12u64 {
            let root = (round as usize) % np;
            let b = ctx.broadcast(root, if ctx.rank() == root { round * 3 } else { 0 });
            acc = acc.wrapping_mul(31).wrapping_add(b);
            let s = ctx.allreduce(ctx.rank() as u64 + round, |a, b| a + b);
            acc = acc.wrapping_mul(31).wrapping_add(s);
            // P2P crossing the collectives: ring exchange.
            let next = (ctx.rank() + 1) % np;
            let prev = (ctx.rank() + np - 1) % np;
            ctx.send(next, round, round);
            acc = acc.wrapping_mul(31).wrapping_add(ctx.recv::<u64>(prev, round));
        }
        acc
    };
    for np in [2usize, 3, 7, 8] {
        let reference = run_infallible(np, program);
        for seed in [7u64, 1234] {
            let cfg = RunConfig::default()
                .with_watchdog(Duration::from_secs(20))
                .with_faults(FaultPlan::new().delay_deliveries(seed, Duration::from_micros(300)));
            let report = run_with(np, &cfg, program);
            assert!(report.all_ok(), "np={np} seed={seed}: {:?}", report.results);
            let delayed: Vec<u64> = report.results.into_iter().map(Result::unwrap).collect();
            assert_eq!(delayed, reference, "np={np} seed={seed}");
            // The plan really injected something.
            let delayed_total: u64 = report.stats.iter().map(|s| s.fault_delayed).sum();
            assert!(delayed_total > 0, "np={np} seed={seed}");
        }
    }
}

/// A chaos-killed rank during a collective sequence terminates every
/// rank: the victim reports the injected kill, the survivors report
/// `PeerFailed` naming the victim.
#[test]
fn chaos_kill_during_collective_sequence() {
    for np in [3usize, 8] {
        let cfg = RunConfig::default()
            .with_watchdog(Duration::from_secs(10))
            // Every collective entry advances the op counter by at
            // least one; op 3 lands inside the loop below.
            .with_faults(FaultPlan::new().kill_rank_at_op(1, 3));
        let report = run_with(np, &cfg, |ctx| {
            let mut acc = 0usize;
            for round in 0..8 {
                acc += ctx.allreduce(round, |a, b| a + b);
            }
            acc
        });
        match report.results[1].as_ref().unwrap_err() {
            CommError::Failed { rank: 1, payload } => {
                assert!(payload.contains("killed at op 3"), "np={np}: {payload}");
            }
            other => panic!("np={np} victim: {other:?}"),
        }
        for (r, res) in report.results.iter().enumerate() {
            if r == 1 {
                continue;
            }
            assert!(
                matches!(res.as_ref().unwrap_err(), CommError::PeerFailed { rank: 1, .. }),
                "np={np} rank {r}: {res:?}"
            );
        }
    }
}

/// A silently dropped message is detected by the receive watchdog, and
/// the diagnostics identify exactly what the stuck rank was waiting
/// for.
#[test]
fn dropped_message_detected_with_diagnostics() {
    let cfg = RunConfig::default()
        .with_watchdog(Duration::from_millis(250))
        // Rank 0's sends: [0] = tag 5 (dropped), [1] = tag 6.
        .with_faults(FaultPlan::new().drop_nth_send(0, 0));
    let report = run_with(2, &cfg, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 5, 11u8);
            ctx.send(1, 6, 22u8);
            // Stay alive past rank 1's watchdog so the timeout path
            // (not fast peer-gone detection) is what fires.
            std::thread::sleep(Duration::from_millis(600));
            0u8
        } else {
            ctx.recv::<u8>(0, 5)
        }
    });
    assert_eq!(report.results[0], Ok(0));
    match report.results[1].as_ref().unwrap_err() {
        CommError::Timeout(diag) => {
            assert_eq!((diag.rank, diag.src, diag.tag), (1, 0, 5));
            // The non-dropped tag-6 message arrived and was buffered.
            assert_eq!(diag.pending, vec![(0, 6)]);
            assert_eq!(diag.in_collective, None);
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert_eq!(report.stats[0].fault_dropped, 1);
}
