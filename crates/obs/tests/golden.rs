//! Golden-schema tests: freeze the `BENCH_*.json` and Chrome
//! trace-event shapes that future PRs diff their baselines against.
//!
//! If a change here is intentional, bump
//! [`lra_obs::BENCH_SCHEMA_VERSION`] and update the golden strings —
//! silently drifting field names/units would make every archived
//! `BENCH_pr*.json` incomparable.

use lra_obs::json::Json;
use lra_obs::{trace, BenchEntry, BenchReport, KernelTime, BENCH_SCHEMA_VERSION};

fn sample_report() -> BenchReport {
    BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        bench: "paper".to_string(),
        quick: true,
        scale: 1,
        max_np: 4,
        entries: vec![BenchEntry {
            algorithm: "lu_crtp".to_string(),
            matrix: "M2'".to_string(),
            rows: 1200,
            cols: 1200,
            nnz: 45000,
            tau: 0.01,
            k: 32,
            np: 1,
            wall_s: 0.5,
            kernels: vec![
                KernelTime {
                    kernel: "col_qr_tp".to_string(),
                    seconds: 0.3,
                },
                KernelTime {
                    kernel: "other".to_string(),
                    seconds: 0.2,
                },
            ],
            rank: 64,
            iterations: 2,
            converged: true,
            est_rel_err: 0.009,
            true_rel_err: 0.0088,
        }],
        metrics: Json::Obj(vec![(
            "comm.rank0.msgs_sent".to_string(),
            Json::Num(12.0),
        )]),
    }
}

/// The frozen serialization of [`sample_report`]. This string IS the
/// schema: field names, order and units (`wall_s`, `seconds`).
const GOLDEN: &str = concat!(
    "{\"schema_version\":1,\"bench\":\"paper\",\"quick\":true,",
    "\"scale\":1,\"max_np\":4,\"entries\":[{\"algorithm\":\"lu_crtp\",",
    "\"matrix\":\"M2'\",\"rows\":1200,\"cols\":1200,\"nnz\":45000,",
    "\"tau\":0.01,\"k\":32,\"np\":1,\"wall_s\":0.5,\"kernels\":[",
    "{\"kernel\":\"col_qr_tp\",\"seconds\":0.3},",
    "{\"kernel\":\"other\",\"seconds\":0.2}],\"rank\":64,",
    "\"iterations\":2,\"converged\":true,\"est_rel_err\":0.009,",
    "\"true_rel_err\":0.0088}],",
    "\"metrics\":{\"comm.rank0.msgs_sent\":12}}",
);

#[test]
fn bench_report_serializes_to_frozen_shape() {
    assert_eq!(sample_report().to_json_string(), GOLDEN);
}

#[test]
fn bench_report_roundtrips_through_json() {
    let report = sample_report();
    let back = BenchReport::from_json_str(&report.to_json_string()).unwrap();
    assert_eq!(back, report);
    assert!(back.validate().is_ok());
    // And the golden text itself parses to the same report.
    let from_golden = BenchReport::from_json_str(GOLDEN).unwrap();
    assert_eq!(from_golden, report);
}

#[test]
fn chrome_exporter_roundtrips_spans() {
    // Trace state is process-global; this is the only test in this
    // binary that records, so no cross-test locking is needed.
    let _ = trace::take_events();
    trace::enable();
    trace::set_lane(2);
    trace::span("schur", || {
        trace::span("panel_qr", || {
            std::hint::black_box(0u8);
        });
        trace::instant("watchdog.timeout");
    });
    trace::disable();
    let events = trace::take_events();
    assert_eq!(events.len(), 3);

    let text = trace::chrome_trace_json(&events);
    let parsed = Json::parse(&text).expect("exporter must emit valid JSON");
    let arr = parsed.as_arr().expect("top level must be an array");

    // Lane metadata present for the rank lane.
    let meta = arr
        .iter()
        .find(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .expect("thread_name metadata");
    assert_eq!(meta.get("tid").and_then(Json::as_u64), Some(2));

    // Every recorded event deserializes back to its source fields.
    let back: Vec<&Json> = arr
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
        .collect();
    assert_eq!(back.len(), events.len());
    for (j, e) in back.iter().zip(&events) {
        assert_eq!(j.get("name").and_then(Json::as_str), Some(&*e.name));
        assert_eq!(
            j.get("ph").and_then(Json::as_str),
            Some(e.ph.to_string().as_str())
        );
        assert_eq!(j.get("ts").and_then(Json::as_u64), Some(e.ts_us));
        assert_eq!(j.get("tid").and_then(Json::as_u64), Some(e.lane));
        assert_eq!(j.get("pid").and_then(Json::as_u64), Some(0));
        let args = j.get("args").expect("args object");
        assert_eq!(args.get("parent").and_then(Json::as_u64), Some(e.parent));
        assert_eq!(args.get("rank").and_then(Json::as_u64), Some(e.lane));
        match e.ph {
            'X' => {
                assert_eq!(j.get("dur").and_then(Json::as_u64), Some(e.dur_us));
            }
            'i' => {
                assert!(j.get("dur").is_none());
                assert_eq!(j.get("s").and_then(Json::as_str), Some("t"));
            }
            other => panic!("unexpected phase {other}"),
        }
    }

    // Hierarchy survived: panel_qr's parent is schur's span id.
    let schur = events.iter().find(|e| e.name == "schur").unwrap();
    let panel = events.iter().find(|e| e.name == "panel_qr").unwrap();
    assert_eq!(panel.parent, schur.span_id);
}
