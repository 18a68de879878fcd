//! End-to-end contract of the tracing toolchain: a traced `wakeup run`
//! (a) leaves the experiment's sink output bit-identical to an untraced
//! run, (b) writes a trace stream that is bit-identical across `--threads`
//! counts, and (c) produces an artifact `wakeup report` can fold back into
//! valid machine-readable output.

use mac_sim::tracer::TraceFilter;
use std::io::Write;
use std::sync::{Arc, Mutex};
use wakeup_analysis::ensemble::TraceSpec;
use wakeup_bench::experiment::run_experiment_traced;
use wakeup_bench::report;
use wakeup_bench::sink::OutFormat;
use wakeup_bench::{experiments, Scale};

/// A `Write` handle into a shared buffer (sinks consume `Box<dyn Write>`).
#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Shared {
    fn take(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("UTF-8")
    }
}

/// Run one experiment traced; return (sink output, trace bytes, exec bytes).
fn capture_traced(name: &str, threads: usize, filter: TraceFilter) -> (String, String, String) {
    let exp = experiments::find(name).expect("experiment registered");
    let out = Shared::default();
    let trace = Shared::default();
    let exec = Shared::default();
    let spec = TraceSpec::new(filter, Arc::new(Mutex::new(trace.clone())))
        .with_exec_sink(Arc::new(Mutex::new(exec.clone())));
    let mut sink = OutFormat::Json.sink(Box::new(out.clone()));
    let failures = run_experiment_traced(
        &exp,
        Scale::Quick,
        0,
        Some(threads),
        Some(spec),
        sink.as_mut(),
    );
    assert_eq!(failures, 0, "{name} checks failed");
    drop(sink);
    (out.take(), trace.take(), exec.take())
}

/// The exec sidecar's telemetry adds up: no ensemble record carries a
/// `calibration*` key, and the `worker` records of each ensemble (matched
/// on `ensemble`) sum to its `runs` — every run executes on a worker.
fn assert_exec_runs_add_up(exec: &str) {
    use std::collections::BTreeMap;
    use wakeup_analysis::{Record, Value};
    let u64_of = |rec: &Record, name: &str| match rec.get(name) {
        Some(Value::U64(v)) => *v,
        other => panic!("{name} is {other:?}"),
    };
    let (mut runs, mut worker_runs) = (BTreeMap::new(), BTreeMap::new());
    for line in exec.lines() {
        let rec = wakeup_analysis::serial::parse_json_object(line).unwrap();
        let ensemble = u64_of(&rec, "ensemble");
        match rec.get("record") {
            Some(Value::Str(kind)) if kind == "ensemble" => {
                assert!(
                    rec.names().iter().all(|k| !k.starts_with("calibration")),
                    "calibration key in {line}"
                );
                runs.insert(ensemble, u64_of(&rec, "runs"));
            }
            _ => *worker_runs.entry(ensemble).or_insert(0) += u64_of(&rec, "runs"),
        }
    }
    assert!(!runs.is_empty(), "no ensemble exec records");
    assert_eq!(worker_runs, runs, "worker runs must sum to ensemble runs");
}

#[test]
fn traced_run_keeps_sink_output_and_is_thread_invariant() {
    let exp = experiments::find("exp_scenario_a").unwrap();
    let untraced = {
        let out = Shared::default();
        let mut sink = OutFormat::Json.sink(Box::new(out.clone()));
        run_experiment_traced(&exp, Scale::Quick, 0, Some(2), None, sink.as_mut());
        drop(sink);
        out.take()
    };
    let (_out1, trace1, _) = capture_traced("exp_scenario_a", 1, TraceFilter::all());
    let (out2, trace2, exec2) = capture_traced("exp_scenario_a", 2, TraceFilter::all());
    // Tracing does not perturb the experiment's own output...
    assert_eq!(out2, untraced, "tracing changed the sink output");
    // ...and the trace stream is the determinism contract: bit-identical
    // across worker counts.
    assert!(!trace1.is_empty(), "empty trace");
    assert_eq!(trace1, trace2, "trace differs between --threads 1 and 2");
    for line in trace1.lines() {
        assert!(line.starts_with("{\"run\":"), "untagged trace line: {line}");
        wakeup_analysis::serial::parse_json_object(line)
            .unwrap_or_else(|e| panic!("bad trace line ({e}): {line}"));
    }
    // The exec sidecar is the wall-clock tier: one ensemble record plus one
    // line per worker for every ensemble the experiment ran.
    let ens = exec2
        .lines()
        .filter(|l| l.contains("\"record\":\"ensemble\""))
        .count();
    let wrk = exec2
        .lines()
        .filter(|l| l.contains("\"record\":\"worker\""))
        .count();
    assert!(ens > 0, "no ensemble exec records");
    assert_eq!(wrk, ens * 2, "expected 2 worker lines per ensemble");
    // Exec lines carry unique, dense ensemble ordinals (the label fix's
    // machine-readable counterpart).
    for (i, line) in exec2
        .lines()
        .filter(|l| l.contains("\"record\":\"ensemble\""))
        .enumerate()
    {
        assert!(
            line.contains(&format!("\"ensemble\":{i},")),
            "ordinal {i} missing in {line}"
        );
        // Each record names its sweep cell.
        let rec = wakeup_analysis::serial::parse_json_object(line).unwrap();
        assert!(
            matches!(rec.get("label"), Some(wakeup_analysis::Value::Str(l)) if l.starts_with("EXP-A")),
            "unlabelled ensemble record: {line}"
        );
    }
    assert_exec_runs_add_up(&exec2);
}

#[test]
fn full_resolution_trace_is_non_empty_and_thread_invariant() {
    // EXP-KG runs its ensembles under the all-resolved stop rule; they are
    // traced like every other experiment's.
    let (_, trace1, exec1) = capture_traced("exp_full_resolution", 1, TraceFilter::deterministic());
    let (_, trace2, _) = capture_traced("exp_full_resolution", 2, TraceFilter::deterministic());
    assert!(!trace1.is_empty(), "empty trace");
    assert_eq!(trace1, trace2, "trace differs between --threads 1 and 2");
    assert!(
        exec1
            .lines()
            .any(|l| l.contains("\"label\":\"EXP-KG selective")),
        "{exec1}"
    );
    assert_exec_runs_add_up(&exec1);
}

#[test]
fn report_folds_a_real_trace_through_every_sink() {
    let (_, trace, _) = capture_traced("exp_scenario_a", 2, TraceFilter::all());
    let folded = report::fold_trace(std::io::Cursor::new(trace.as_bytes())).expect("fold");
    assert!(folded.lines > 0);
    assert!(folded.runs > 0);
    assert!(folded.total_slots > 0);
    assert_eq!(
        folded.kind_counts.get("run_end").copied().unwrap_or(0),
        folded.runs,
        "one run_end per run"
    );
    // Quick scale runs 10 seeds per ensemble; tags restart per ensemble.
    assert_eq!(folded.run_tags, 10);
    assert!(folded.runs > folded.run_tags, "many ensembles in the sweep");
    for format in [OutFormat::Table, OutFormat::Csv, OutFormat::Json] {
        let out = Shared::default();
        let mut sink = format.sink(Box::new(out.clone()));
        report::render_report(&folded, "test.trace.jsonl", None, sink.as_mut());
        drop(sink);
        let rendered = out.take();
        assert!(!rendered.is_empty(), "{format:?} report empty");
        if format == OutFormat::Json {
            for line in rendered.lines() {
                assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            }
            assert!(rendered.contains("\"stream\":\"summary\""));
            assert!(rendered.contains("\"stream\":\"slot_class\""));
        }
    }
}

#[test]
fn report_file_reads_trace_and_exec_sidecar_from_disk() {
    let (_, trace, exec) = capture_traced("exp_scenario_a", 2, TraceFilter::all());
    let dir = std::env::temp_dir().join(format!("wakeup-trace-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tpath = dir.join("exp_scenario_a.trace.jsonl");
    std::fs::write(&tpath, &trace).unwrap();
    std::fs::write(dir.join("exp_scenario_a.exec.jsonl"), &exec).unwrap();
    let out = Shared::default();
    let mut sink = OutFormat::Table.sink(Box::new(out.clone()));
    report::report_file(&tpath, sink.as_mut()).expect("report_file");
    drop(sink);
    let rendered = out.take();
    assert!(rendered.contains("slot classes"), "{rendered}");
    assert!(rendered.contains("worker utilization"), "{rendered}");
    assert!(
        rendered.contains("construction") && rendered.contains("simulation"),
        "{rendered}"
    );
    assert!(!rendered.contains("calibration"), "{rendered}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sampling_reduces_and_deterministic_filter_restricts() {
    let (_, all_trace, _) = capture_traced("exp_scenario_a", 2, TraceFilter::all());
    let (_, sampled, _) = capture_traced("exp_scenario_a", 2, TraceFilter::all().sample_every(4));
    assert!(
        sampled.lines().count() < all_trace.lines().count(),
        "sampling did not reduce the stream"
    );
    let (_, det, _) = capture_traced("exp_scenario_a", 1, TraceFilter::deterministic());
    for line in det.lines() {
        let rec = wakeup_analysis::serial::parse_json_object(line).unwrap();
        let ev = match rec.get("ev") {
            Some(wakeup_analysis::Value::Str(s)) => s.clone(),
            _ => panic!("no ev in {line}"),
        };
        assert!(
            ["wake", "silence", "success", "collision", "run_end"].contains(&ev.as_str()),
            "non-deterministic kind {ev} in deterministic filter"
        );
    }
}
