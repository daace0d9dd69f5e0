//! Each distinct run key of a sweep executes once per process.

use lra_bench::sweep::{Executor, Run, RunKey, Sweep};
use lra_bench::views::VIEWS;
use lra_bench::BenchConfig;
use std::cell::RefCell;
use std::rc::Rc;

/// Table II, Fig. 3 and Fig. 1 (right) in one `--quick` sweep: the keys
/// two of them read (M2' LU_CRTP at 1e-2; Fig. 3's tight RandQB_EI p=2
/// run, which is its own last row) reach the executor once, and asking
/// again executes nothing. The executor is a fake: what is counted is
/// calls, not numerics.
#[test]
fn shared_keys_execute_once() {
    let cfg = BenchConfig { quick: true, ..BenchConfig::defaults() };
    let seen: Rc<RefCell<Vec<RunKey>>> = Rc::default();
    let log = Rc::clone(&seen);
    let fake: Executor = Box::new(move |_, key, _| {
        log.borrow_mut().push(key.clone());
        Run { converged: true, iterations: 2, a_norm_f: 1.0, exact: 1e-3, ..Run::default() }
    });
    let mut sweep = Sweep::with_executor(fake);
    for _ in 0..2 {
        for name in ["table2", "fig3", "fig1_right"] {
            let (_, view) = VIEWS.iter().find(|(have, _)| *have == name).expect("a view");
            view(&mut sweep, &cfg);
        }
    }
    let seen = seen.borrow();
    // 2 matrices x 2 tolerances x (UBV, QB p=0..2, LU, ILUT) for Table
    // II, 2 x (QB p=1,2, LU, ILUT) for Fig. 3, and M3' for Fig. 1
    // (right) — its M2' run is Table II's.
    assert_eq!(seen.len(), 24 + 8 + 1);
    assert_eq!(sweep.executed(), seen.len());
    for (i, key) in seen.iter().enumerate() {
        assert!(!seen[..i].contains(key), "{key:?} executed twice");
    }
}
