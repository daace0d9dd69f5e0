//! RandQB_EI and RandUBV hold their dense factors once: the resident
//! high-water mark a solve adds stays within 1.5 times the bytes of
//! the factors it returns. A driver that keeps its bases as block lists
//! and copies them into the result at the end holds them twice, and
//! reads 2.0-2.2 times here.
//!
//! The reading is the process's `VmHWM` before and after one call.
//! `VmHWM` only ever rises, so every case runs alone in a fresh process:
//! the gating test re-invokes this test binary for one ignored
//! `measure_*` test and reads the numbers it prints. A counting
//! allocator could not make this check: it would count the bases'
//! reserved capacity, which the operating system never backs.
#![cfg(target_os = "linux")]

use lra::core::{rand_qb_ei, rand_ubv, Parallelism, QbOpts, UbvOpts};
use lra::matgen::{economic, with_decay_rank};
use lra::sparse::CscMatrix;
use std::process::Command;

/// Largest growth of `VmHWM` over one call, in factor bytes.
const MAX_GROWTH: f64 = 1.5;

/// 2000 x 2000 with a numerical rank near 240 at `TAU`: the factors
/// are 7.7 MB (RandQB_EI) and 9.3 MB (RandUBV), many times the
/// sketch-sized work blocks.
fn input() -> CscMatrix {
    with_decay_rank(&economic(2000, 40, 105), 1e-6, 400, 15)
}

const K: usize = 16;
const TAU: f64 = 1e-3;

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"));
    let kib: u64 = line
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("a kB count");
    kib * 1024
}

/// `VmHWM` growth over `solve`, and the factor bytes it returned.
fn print_vmhwm_growth(solve: impl FnOnce() -> u64) {
    let before = status_bytes("VmHWM");
    let factor_bytes = solve();
    let growth = status_bytes("VmHWM").saturating_sub(before);
    println!("MEASURED growth={growth} factors={factor_bytes}");
}

#[test]
#[ignore = "one process per case: run by rand_qb_ei_holds_its_factors_once"]
fn measure_rand_qb_ei() {
    let a = input();
    let opts = QbOpts::new(K, TAU)
        .with_power(1)
        .with_par(Parallelism::new(2));
    print_vmhwm_growth(|| {
        let r = rand_qb_ei(&a, &opts).unwrap();
        assert!(r.converged);
        8 * (r.q.as_slice().len() + r.b.as_slice().len()) as u64
    });
}

#[test]
#[ignore = "one process per case: run by rand_ubv_holds_its_factors_once"]
fn measure_rand_ubv() {
    let a = input();
    let mut opts = UbvOpts::new(K, TAU);
    opts.par = Parallelism::new(2);
    print_vmhwm_growth(|| {
        let r = rand_ubv(&a, &opts);
        assert!(r.converged);
        8 * (r.u.as_slice().len() + r.b.as_slice().len() + r.v.as_slice().len()) as u64
    });
}

/// Run the ignored test `case` alone in a fresh copy of this binary and
/// check what it measured.
fn gate(case: &str) {
    let exe = std::env::current_exe().expect("the test binary");
    let out = Command::new(exe)
        .args([
            case,
            "--exact",
            "--ignored",
            "--nocapture",
            "--test-threads=1",
        ])
        .output()
        .expect("re-run the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{case} failed:\n{stdout}\n{stderr}");
    let line = stdout
        .lines()
        .find_map(|l| Some(l.split_once("MEASURED ")?.1))
        .unwrap_or_else(|| panic!("{case} printed no measurement:\n{stdout}"));
    let field = |key: &str| -> f64 {
        let v = line
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(key))
            .expect(key);
        v.parse().expect(key)
    };
    let (growth, factors) = (field("growth="), field("factors="));
    assert!(
        factors >= 6e6,
        "{case}: factors of {factors} bytes are too small to measure"
    );
    let ratio = growth / factors;
    assert!(
        ratio <= MAX_GROWTH,
        "{case}: VmHWM grew {growth} bytes for {factors} bytes of factors ({ratio:.2}x > {MAX_GROWTH}x)"
    );
}

#[test]
fn rand_qb_ei_holds_its_factors_once() {
    gate("measure_rand_qb_ei");
}

#[test]
fn rand_ubv_holds_its_factors_once() {
    gate("measure_rand_ubv");
}
