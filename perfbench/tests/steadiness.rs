//! Steadiness self-check: runs every workload twice and reports each
//! end-to-end metric whose two medians differ by more than the bound
//! `BENCHMARK.json` fixes for it.
//!
//! Slow (two full runs per workload), so it is ignored by default:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored
//! ```

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["staggered-sweep", "burst-resolve", "mega-classes"];

/// The text after `key` up to the next `,` or `}`, parsed as a number.
fn number_after(text: &str, key: &str) -> Option<f64> {
    let rest = &text[text.find(key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// `(name, bound)` of every end-to-end metric, and `run_seconds`.
fn contract(json: &str) -> (Vec<(String, f64)>, f64) {
    let e2e = &json[json.find("\"end_to_end\"").expect("end_to_end")..];
    let e2e = &e2e[..e2e.find("\"per_layer\"").unwrap_or(e2e.len())];
    let metrics = e2e
        .split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').expect("name")].to_string();
            let bound = number_after(entry, "\"bound\":").expect("bound");
            (name, bound)
        })
        .collect();
    let seconds = number_after(json, "\"run_seconds\":").expect("run_seconds");
    (metrics, seconds)
}

fn run_once(root: &Path, workload: &str, seed: u64, seconds: f64) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(root)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .expect("benchmark starts");
    assert!(out.status.success(), "{workload}: benchmark failed");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_string();
    assert!(last.contains("\"correct\": true"), "{workload}: {last}");
    last
}

#[test]
#[ignore = "runs every workload twice for the benchmark's full measuring time"]
fn two_runs_agree_within_bounds() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("package sits in the repository");
    let json = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let (metrics, seconds) = contract(&json);
    let mut disagreements = Vec::new();
    for workload in WORKLOADS {
        let first = run_once(root, workload, 1, seconds);
        let second = run_once(root, workload, 1, seconds);
        for (name, bound) in &metrics {
            let key = format!("\"{name}\": {{\"value\":");
            let a = number_after(&first, &key).expect("metric in first run");
            let b = number_after(&second, &key).expect("metric in second run");
            let shift = (b - a).abs() / a.abs().max(f64::MIN_POSITIVE);
            eprintln!(
                "{workload:>16} {name:<12} {a:>14.6} {b:>14.6}  shift {shift:.3} (bound {bound})"
            );
            if shift > *bound {
                disagreements.push(format!(
                    "{workload} {name}: {a} vs {b} (shift {shift:.3} > {bound})"
                ));
            }
        }
    }
    assert!(
        disagreements.is_empty(),
        "unsteady metrics:\n{}",
        disagreements.join("\n")
    );
}
