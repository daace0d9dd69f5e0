//! Exhaustive fault-point exploration over the supervised ILUT_CRTP
//! recovery path — the CI gate for the durability layer.
//!
//! For each requested rank count, a clean probe run enumerates every
//! injection site (each iteration × {rank kill, watchdog timeout,
//! mid-overlap kill, mid-overlap stall}, each checkpoint save × every
//! storage-fault flavor, and a budget
//! cancel at every iteration boundary), then one run per site injects
//! the fault and checks the invariants: successful recovery, a typed
//! `RecoveryError`, or a typed budget trip — never a panic; same-grid
//! resumes (including resume-from-cancel) bitwise-identical to the
//! uninterrupted factors; corrupted generations surfaced as
//! `recover.corrupt_checkpoint`. The per-site verdict tables are
//! printed and written as a JSON artifact; any violation exits 1. The
//! tables on stdout are deterministic (the artifact's path goes to
//! stderr): `results/FAULT_EXPLORER.txt` holds them for
//! `--np 2,4 --sites comm,storage,cancel,overlap`, and CI diffs a fresh
//! run against it, as it diffs the bitwise fingerprint.
//!
//! `--sites comm,overlap,storage,cancel` selects the site families
//! (default all), so one family can be explored on its own.
//!
//! ```sh
//! cargo run -p lra-bench --release --bin fault_explorer -- \
//!     --np 2,4 --out FAULT_SPACE.json
//! cargo run -p lra-bench --release --bin fault_explorer -- \
//!     --np 2 --sites cancel --out CANCEL_SPACE.json
//! ```

use lra_core::{explore_fault_space, ExploreConfig, IlutOpts, RecoveryPolicy};
use lra_obs::Json;
use std::time::Duration;

/// Block size of the explored factorization.
const BLOCK_K: usize = 4;
/// Relative tolerance of the explored factorization.
const TAU: f64 = 1e-3;

fn fail(msg: &str) -> ! {
    eprintln!("fault_explorer: {msg}");
    eprintln!(
        "usage: fault_explorer [--np LIST] [--out PATH] [--watchdog-ms N] [--lenient] \
         [--sites comm,overlap,storage,cancel]"
    );
    std::process::exit(2);
}

fn main() {
    let mut out_path = "FAULT_SPACE.json".to_string();
    let mut np_list: Vec<usize> = vec![2, 4];
    let mut watchdog_ms: u64 = 300;
    let mut strict = true;
    let (mut comm_sites, mut overlap_sites, mut storage_sites, mut cancel_sites) =
        (true, true, true, true);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--sites" => {
                let list = args.next().unwrap_or_else(|| fail("--sites requires a value"));
                comm_sites = false;
                overlap_sites = false;
                storage_sites = false;
                cancel_sites = false;
                for family in list.split(',') {
                    match family.trim() {
                        "comm" => comm_sites = true,
                        "overlap" => overlap_sites = true,
                        "storage" => storage_sites = true,
                        "cancel" => cancel_sites = true,
                        other => fail(&format!("unknown site family {other:?}")),
                    }
                }
            }
            "--out" => out_path = args.next().unwrap_or_else(|| fail("--out requires a value")),
            "--np" => {
                let list = args.next().unwrap_or_else(|| fail("--np requires a value"));
                np_list = list
                    .split(',')
                    .map(|s| s.trim().parse::<usize>().unwrap_or_else(|_| fail("bad --np")))
                    .collect();
                if np_list.is_empty() {
                    fail("--np requires at least one rank count");
                }
            }
            "--watchdog-ms" => {
                watchdog_ms = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| fail("--watchdog-ms requires a number"));
            }
            "--lenient" => strict = false,
            other => fail(&format!("unknown argument {other:?}")),
        }
    }

    // The small preset: a 2-D FEM mesh with decaying off-diagonal
    // coupling — enough iterations to give the explorer a meaningful
    // site space while keeping one-run-per-site wall time bounded.
    let a = lra_matgen::with_decay(&lra_matgen::fem2d(8, 6, 11), 1e-6, 3);
    let opts = IlutOpts::new(BLOCK_K, TAU, 8);

    let mut all_ok = true;
    let mut per_np = Vec::new();
    for &np in &np_list {
        let cfg = ExploreConfig {
            np,
            ckpt_every: 1,
            watchdog: Duration::from_millis(watchdog_ms),
            stall: Duration::from_millis(watchdog_ms * 3),
            policy: RecoveryPolicy::default().with_backoff(Duration::from_millis(5)),
            comm_sites,
            overlap_sites,
            storage_sites,
            cancel_sites,
            on_disk: None,
            strict,
        };
        println!("==> exploring np={np} …");
        match explore_fault_space(&a, &opts, &cfg) {
            Ok(report) => {
                print!("{}", report.render_table());
                if !report.all_ok() {
                    all_ok = false;
                }
                per_np.push((np, report.to_json()));
            }
            Err(e) => {
                println!("np={np}: probe failed: {e}");
                all_ok = false;
                per_np.push((
                    np,
                    Json::Obj(vec![
                        ("np".to_string(), Json::Num(np as f64)),
                        ("probe_error".to_string(), Json::Str(e)),
                        ("all_ok".to_string(), Json::Bool(false)),
                    ]),
                ));
            }
        }
        println!();
    }

    let artifact = Json::Obj(vec![
        ("schema".to_string(), Json::Str("fault_space.v1".to_string())),
        ("matrix".to_string(), Json::Str("fem2d(8,6) decay 1e-6".to_string())),
        ("k".to_string(), Json::Num(BLOCK_K as f64)),
        ("tau".to_string(), Json::Num(TAU)),
        ("strict".to_string(), Json::Bool(strict)),
        ("all_ok".to_string(), Json::Bool(all_ok)),
        (
            "explorations".to_string(),
            Json::Arr(per_np.into_iter().map(|(_, j)| j).collect()),
        ),
    ]);
    if let Err(e) = std::fs::write(&out_path, artifact.to_string()) {
        fail(&format!("writing {out_path}: {e}"));
    }
    eprintln!("wrote {out_path}");

    if !all_ok {
        eprintln!("fault_explorer: invariant violations detected");
        std::process::exit(1);
    }
}
