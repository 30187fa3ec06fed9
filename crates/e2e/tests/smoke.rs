//! Runs the real binary on every workload at `--smoke` scale (tiny models,
//! sub-second windows), untraced and traced, so the benchmark cannot rot
//! between the changes that touch it: outputs must check, and the result
//! line must carry exactly the metrics `BENCHMARK.json` names.

use std::process::Command;

use neocpu_e2e::json::Json;
use neocpu_e2e::workloads::Workload;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
}

fn names(list: &Json) -> Vec<String> {
    list.as_array()
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
        .collect()
}

fn e2e(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(args)
        .output()
        .expect("spawning e2e")
}

#[test]
fn smoke_checks_outputs_and_prints_every_named_metric() {
    let manifest = manifest();
    // One directory per test: tests share no file.
    let results = std::env::temp_dir().join(format!("neocpu-e2e-smoke-{}", std::process::id()));
    for workload in Workload::ALL {
        for (flag, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = e2e(&[
                "run",
                "--workload",
                workload.name(),
                "--smoke",
                "--seconds",
                "0.3",
                "--seed",
                "3",
                "--trace",
                flag,
                "--results-dir",
                results.to_str().unwrap(),
            ]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{} trace {flag}: {stderr}",
                workload.name()
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = Json::parse(stdout.lines().last().expect("a result line")).unwrap();
            let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                line.get("correct"),
                Some(&Json::Bool(true)),
                "{}",
                workload.name()
            );
            assert_eq!(
                line.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{}",
                workload.name()
            );
            assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let printed: Vec<String> = line
                .get("metrics")
                .unwrap()
                .fields()
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            assert_eq!(
                printed,
                names(manifest.get(key).unwrap()),
                "{} trace {flag}",
                workload.name()
            );
            if flag == "0" {
                for (name, m) in line.get("metrics").unwrap().fields() {
                    let v = m.get("value").and_then(Json::as_f64).unwrap();
                    assert!(
                        v > 0.0 && v.is_finite(),
                        "{}: {name} = {v}",
                        workload.name()
                    );
                }
            } else {
                let trace = results.join(format!("{}.trace.json", workload.name()));
                let doc =
                    Json::parse(&std::fs::read_to_string(&trace).expect("a trace file")).unwrap();
                assert!(
                    !doc.get("spans").unwrap().as_array().is_empty(),
                    "{}",
                    trace.display()
                );
                assert!(doc.get("summary").unwrap().get("client.op").is_some());
            }
        }
    }
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn bad_arguments_fail_without_a_result_line() {
    for args in [
        &["run", "--workload", "no_such_workload"][..],
        &["run"],
        &["frobnicate"],
        &[],
    ] {
        let out = e2e(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} printed {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
