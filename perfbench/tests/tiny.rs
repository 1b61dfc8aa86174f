//! The benchmark's own checks, at tiny input sizes.

use perfbench::args::Workload;
use perfbench::ledger::{check_gate, Layer};
use perfbench::setup::{generate, Sizes, Stack};
use perfbench::speed::SpeedProbe;
use perfbench::workloads::{self, Ctx};
use perfbench::{Args, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::Command;

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn listed(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("parse BENCHMARK.json");
    let field = |m: &serde_json::Value, k: &str| {
        m.get(k)
            .and_then(|v| v.as_str())
            .expect("metric field")
            .to_owned()
    };
    json.get(key)
        .and_then(|v| v.as_array())
        .expect("metric list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics() {
    assert_eq!(listed("end_to_end"), pairs(&END_TO_END));
    assert_eq!(listed("per_layer"), pairs(&PER_LAYER));
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let args = Args {
                workload,
                seed: 5,
                seconds: 1,
                trace,
            };
            let dir = work_dir(&format!("emit-{}-{trace}", workload.name()));
            let outcome = perfbench::run(&args, &Sizes::tiny(), &dir).expect("run");
            assert!(outcome.correct, "{} trace={trace}", workload.name());
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted > 0);
            let emitted: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_owned()))
                .collect();
            let expected = if trace {
                pairs(&PER_LAYER)
            } else {
                pairs(&END_TO_END)
            };
            assert_eq!(emitted, expected, "{} trace={trace}", workload.name());
            if !trace {
                for m in &outcome.metrics {
                    assert!(
                        m.value > 0.0,
                        "{} {} is {}",
                        workload.name(),
                        m.name,
                        m.value
                    );
                }
            }
        }
    }
}

#[test]
fn a_flipped_verdict_fails_the_output_check() {
    let dir = work_dir("flip");
    generate(Workload::StoreScan, 3, &Sizes::tiny(), &dir).expect("generate");
    let stack = Stack::restore(Workload::StoreScan, &dir).expect("restore");
    let lines = knowyourphish::storeflow::store_verdict_lines(&dir, &stack.pipeline).expect("scan");
    let mut flipped = lines.clone();
    let i = flipped
        .iter()
        .position(|l| l.contains("\tlegitimate "))
        .expect("a legitimate verdict");
    flipped[i] = flipped[i].replace("\tlegitimate ", "\tsuspicious ");
    assert_eq!(workloads::mismatches(&lines, &lines), 0);
    assert_eq!(workloads::mismatches(&lines, &flipped), 1);
    flipped.pop();
    assert_eq!(workloads::mismatches(&lines, &flipped), 2);
}

#[test]
fn a_bad_flag_exits_non_zero_without_a_result() {
    for bad in [
        vec![
            "--workload",
            "store_scan",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--scale",
            "abc",
        ],
        vec![
            "--workload",
            "store_scan",
            "--seed",
            "abc",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec!["--workload", "store_scan"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&bad)
            .output()
            .expect("spawn perfbench");
        assert!(!out.status.success(), "{bad:?} succeeded");
        assert!(out.stdout.is_empty(), "{bad:?} printed a result");
    }
}

#[test]
fn the_layer_sum_gate_trips_when_a_layer_is_dropped() {
    for workload in [Workload::StoreScan, Workload::ClusterBurst] {
        let sizes = Sizes::tiny();
        let dir = work_dir(&format!("gate-{}", workload.name()));
        let corpus = generate(workload, 9, &sizes, &dir).expect("generate");
        let mut stack = Stack::restore(workload, &dir).expect("restore");
        let ctx = Ctx {
            workload,
            seed: 9,
            seconds: 0.0,
            trace: true,
            sizes: &sizes,
            dir: &dir,
            corpus: &corpus,
        };
        let run = workloads::run(&ctx, &mut stack, &mut SpeedProbe::new()).expect("run");
        let layers = run.layers.expect("traced run");
        check_gate(&layers.ledger, layers.traced_wall).expect("complete ledger passes");
        let largest = Layer::ALL
            .into_iter()
            .max_by(|a, b| layers.ledger.secs(*a).total_cmp(&layers.ledger.secs(*b)))
            .expect("a layer");
        let mut dropped = layers.ledger.clone();
        dropped.set_secs(largest, 0.0);
        assert!(
            check_gate(&dropped, layers.traced_wall).is_err(),
            "{}: dropping {} passed the gate",
            workload.name(),
            largest.name()
        );
    }
}
