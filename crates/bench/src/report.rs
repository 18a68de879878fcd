//! `wakeup report` — fold a trace artifact back into tables.
//!
//! The input is the JSONL stream a traced run wrote (`<exp>.trace.jsonl`:
//! one flat object per event, `{"run":3,"ev":"collision",…}`); the output
//! goes through the same [`Sink`] machinery as the experiments, so one
//! folding pass renders as a pretty table set, CSV sections or JSON Lines.
//!
//! Three views are derived:
//!
//! * **slot classes** — how the covered slots partition into silence /
//!   success / collision, plus a collision-size (contention) histogram;
//! * **mode-switch timeline** — when the adaptive engine crossed
//!   sparse↔dense, per run (capped at [`MODE_SWITCH_ROWS`] rendered rows),
//!   and the burst windows it opened by cause (wake, streak, backoff);
//! * **worker utilization** — per-ensemble and per-worker execution
//!   records read from the `.exec.jsonl` sidecar next to the trace, when
//!   present (the non-deterministic tier: wall-clock phases, batches,
//!   per-worker run counts).

use crate::sink::{ExperimentHead, Sink};
use crate::Scale;
use mac_sim::{BurstCause, TraceKind};
use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use wakeup_analysis::serial::{parse_json_object, Record, Value};
use wakeup_analysis::Table;

/// Maximum mode-switch timeline rows rendered (the counts are always
/// complete; only the row listing is capped).
pub const MODE_SWITCH_ROWS: usize = 64;

/// Aggregates folded from one trace stream.
#[derive(Clone, Debug, Default)]
pub struct TraceReport {
    /// Trace lines folded.
    pub lines: u64,
    /// Total runs in the artifact — one per `run_end` event (run tags
    /// restart at 0 for every ensemble, so they do not count runs).
    pub runs: u64,
    /// Distinct run tags seen (`max(run) + 1`): the per-ensemble run
    /// count when every ensemble ran the same number of runs.
    pub run_tags: u64,
    /// Events per kind (`ev` value → count), alphabetical.
    pub kind_counts: BTreeMap<&'static str, u64>,
    /// Slots spent silent (summed `Silence.slots`).
    pub silent_slots: u64,
    /// Slots won by exactly one transmitter.
    pub success_slots: u64,
    /// Slots lost to collisions.
    pub collision_slots: u64,
    /// Collision-size histogram: contenders → collision slots.
    pub contention: BTreeMap<u64, u64>,
    /// Mode-switch timeline entries `(run, slot, dense)` in stream order.
    pub mode_switches: Vec<(u64, u64, bool)>,
    /// Hint re-query events and the hints they re-queried.
    pub requeries: u64,
    /// Total hints re-queried across those events.
    pub queries: u64,
    /// Burst windows opened.
    pub bursts_opened: u64,
    /// Burst windows opened per cause (`cause` value → count).
    pub bursts_by_cause: BTreeMap<&'static str, u64>,
    /// Largest sparse-heap watermark seen.
    pub max_heap: u64,
    /// Largest live-unit watermark seen.
    pub max_units: u64,
    /// Slots covered, summed over `run_end` events.
    pub total_slots: u64,
    /// Runs whose `run_end` carried a `first_success`.
    pub solved_runs: u64,
}

fn get_u64(rec: &Record, name: &str) -> Option<u64> {
    match rec.get(name) {
        Some(Value::U64(v)) => Some(*v),
        _ => None,
    }
}

impl TraceReport {
    /// Fold one parsed trace line; an `ev` that names no [`TraceKind`]
    /// is damage.
    fn fold(&mut self, rec: &Record) -> Result<(), String> {
        let Some(Value::Str(ev)) = rec.get("ev") else {
            return Err("line has no \"ev\" field".into());
        };
        let kind = TraceKind::parse(ev).ok_or_else(|| format!("unknown event kind \"{ev}\""))?;
        self.lines += 1;
        if let Some(run) = get_u64(rec, "run") {
            self.run_tags = self.run_tags.max(run + 1);
        }
        *self.kind_counts.entry(kind.name()).or_insert(0) += 1;
        match kind {
            TraceKind::Silence => self.silent_slots += get_u64(rec, "slots").unwrap_or(0),
            TraceKind::Success => self.success_slots += 1,
            TraceKind::Collision => {
                self.collision_slots += 1;
                let c = get_u64(rec, "contenders").unwrap_or(0);
                *self.contention.entry(c).or_insert(0) += 1;
            }
            TraceKind::ModeSwitch => {
                let dense = matches!(rec.get("dense"), Some(Value::Bool(true)));
                self.mode_switches.push((
                    get_u64(rec, "run").unwrap_or(0),
                    get_u64(rec, "slot").unwrap_or(0),
                    dense,
                ));
            }
            TraceKind::HintRequery => {
                self.requeries += 1;
                self.queries += get_u64(rec, "queries").unwrap_or(0);
            }
            TraceKind::BurstOpen => {
                let cause = match rec.get("cause") {
                    Some(Value::Str(c)) => BurstCause::parse(c),
                    _ => None,
                }
                .ok_or("burst_open without a known \"cause\"")?;
                self.bursts_opened += 1;
                *self.bursts_by_cause.entry(cause.name()).or_insert(0) += 1;
            }
            TraceKind::Watermark => {
                self.max_heap = self.max_heap.max(get_u64(rec, "heap").unwrap_or(0));
                self.max_units = self.max_units.max(get_u64(rec, "units").unwrap_or(0));
            }
            TraceKind::RunEnd => {
                self.runs += 1;
                self.total_slots += get_u64(rec, "slots").unwrap_or(0);
                if matches!(rec.get("first_success"), Some(Value::U64(_))) {
                    self.solved_runs += 1;
                }
            }
            _ => {}
        }
        Ok(())
    }
}

/// Fold a trace JSONL stream into a [`TraceReport`]. Blank lines are
/// skipped; a malformed line fails the whole report (a trace artifact is
/// machine-written — damage should be loud, not averaged over).
pub fn fold_trace(reader: impl BufRead) -> Result<TraceReport, String> {
    let mut report = TraceReport::default();
    for (i, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("read error at line {}: {e}", i + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        let rec = parse_json_object(&line).map_err(|e| format!("line {}: {e}", i + 1))?;
        report
            .fold(&rec)
            .map_err(|e| format!("line {}: {e}", i + 1))?;
    }
    Ok(report)
}

/// The `.exec.jsonl` sidecar path next to a `.trace.jsonl` artifact.
pub fn exec_sidecar_path(trace: &Path) -> PathBuf {
    let name = trace.file_name().and_then(|n| n.to_str()).unwrap_or("");
    match name.strip_suffix(".trace.jsonl") {
        Some(stem) => trace.with_file_name(format!("{stem}.exec.jsonl")),
        None => trace.with_file_name(format!("{name}.exec.jsonl")),
    }
}

fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".into()
    } else {
        format!("{:.1}%", 100.0 * part as f64 / whole as f64)
    }
}

/// Render a folded report through `sink`: summary row, slot-class and
/// contention histograms, the mode-switch timeline, burst windows by cause,
/// engine counters, and — when `exec_lines` is given — the
/// worker-utilization records.
pub fn render_report(
    report: &TraceReport,
    source: &str,
    exec_lines: Option<&[Record]>,
    sink: &mut dyn Sink,
) {
    let title = format!("TRACE — report of {source}");
    let head = ExperimentHead {
        name: "trace_report",
        id: "TRACE",
        title: &title,
        claim: "folded from a structured trace artifact",
    };
    sink.begin(&head, Scale::Quick, 0);

    sink.note(&format!(
        "{} events over {} run(s); {} slots covered, {} solved run(s)",
        report.lines, report.runs, report.total_slots, report.solved_runs
    ));
    sink.row(
        "summary",
        &Record::new()
            .with("events", report.lines)
            .with("runs", report.runs)
            .with("run_tags", report.run_tags)
            .with("solved_runs", report.solved_runs)
            .with("slots", report.total_slots)
            .with("silent_slots", report.silent_slots)
            .with("success_slots", report.success_slots)
            .with("collision_slots", report.collision_slots)
            .with("requeries", report.requeries)
            .with("queries", report.queries)
            .with("bursts_opened", report.bursts_opened)
            .with("max_heap", report.max_heap)
            .with("max_units", report.max_units),
    );

    // Per-event-kind counts.
    sink.note("\nevents by kind:");
    let mut kinds = Table::new(["event", "count"]);
    for (&ev, count) in &report.kind_counts {
        kinds.push_row([ev.to_string(), count.to_string()]);
        sink.row("kinds", &Record::new().with("ev", ev).with("count", *count));
    }
    sink.table("kinds", &kinds);

    // Slot classes: how covered slots partition by channel outcome.
    sink.note("\nslot classes (channel outcome over covered slots):");
    let covered = report.total_slots;
    let mut classes = Table::new(["class", "slots", "share"]);
    for (class, slots) in [
        (TraceKind::Silence.name(), report.silent_slots),
        (TraceKind::Success.name(), report.success_slots),
        (TraceKind::Collision.name(), report.collision_slots),
    ] {
        classes.push_row([class.into(), slots.to_string(), pct(slots, covered)]);
        sink.row(
            "slot_class",
            &Record::new().with("class", class).with("slots", slots),
        );
    }
    sink.table("slot classes", &classes);

    // Contention histogram (collision sizes).
    if !report.contention.is_empty() {
        sink.note("\ncontention histogram (collision sizes):");
        let mut hist = Table::new(["contenders", "collisions"]);
        for (&c, &count) in &report.contention {
            hist.push_row([c.to_string(), count.to_string()]);
            sink.row(
                "contention",
                &Record::new()
                    .with("contenders", c)
                    .with("collisions", count),
            );
        }
        sink.table("contention histogram", &hist);
    }

    // Mode-switch timeline (rows capped; counts always complete).
    if !report.mode_switches.is_empty() {
        sink.note("\nmode-switch timeline (per-ensemble run tags):");
        let mut timeline = Table::new(["run", "slot", "to"]);
        for &(run, slot, dense) in report.mode_switches.iter().take(MODE_SWITCH_ROWS) {
            let to = if dense { "dense" } else { "sparse" };
            timeline.push_row([run.to_string(), slot.to_string(), to.to_string()]);
            sink.row(
                TraceKind::ModeSwitch.name(),
                &Record::new()
                    .with("run", run)
                    .with("slot", slot)
                    .with("dense", dense),
            );
        }
        sink.table("mode-switch timeline", &timeline);
        if report.mode_switches.len() > MODE_SWITCH_ROWS {
            sink.note(&format!(
                "(timeline truncated: {} of {} switches shown)",
                MODE_SWITCH_ROWS,
                report.mode_switches.len()
            ));
        }
    }

    // Burst windows by what opened them.
    if report.bursts_opened > 0 {
        sink.note("\nburst windows by cause:");
        let mut causes = Table::new(["cause", "opened"]);
        for cause in BurstCause::ALL {
            let opened = report
                .bursts_by_cause
                .get(cause.name())
                .copied()
                .unwrap_or(0);
            causes.push_row([cause.name().to_string(), opened.to_string()]);
            sink.row(
                "burst_cause",
                &Record::new()
                    .with("cause", cause.name())
                    .with("opened", opened),
            );
        }
        sink.table("burst causes", &causes);
    }

    // Worker utilization from the exec sidecar (wall-clock tier).
    if let Some(lines) = exec_lines {
        let mut ensembles = Table::new([
            "ensemble",
            "label",
            "runs",
            "threads",
            "elapsed",
            "construction",
            "simulation",
            "reduction",
        ]);
        let mut workers = Table::new(["ensemble", "worker", "runs"]);
        let us = |rec: &Record, f: &str| {
            format!("{:.1}ms", get_u64(rec, f).unwrap_or(0) as f64 / 1000.0)
        };
        let cell = |rec: &Record, f: &str| get_u64(rec, f).unwrap_or(0).to_string();
        let (mut n_ens, mut n_wrk) = (0usize, 0usize);
        for rec in lines {
            match rec.get("record") {
                Some(Value::Str(kind)) if kind == "ensemble" => {
                    n_ens += 1;
                    let label = match rec.get("label") {
                        Some(Value::Str(l)) if !l.is_empty() => l.clone(),
                        _ => "-".into(),
                    };
                    ensembles.push_row([
                        cell(rec, "ensemble"),
                        label,
                        cell(rec, "runs"),
                        cell(rec, "threads"),
                        us(rec, "elapsed_us"),
                        us(rec, "construction_us"),
                        us(rec, "simulation_us"),
                        us(rec, "reduction_us"),
                    ]);
                    sink.row("ensemble_exec", rec);
                }
                Some(Value::Str(kind)) if kind == "worker" => {
                    n_wrk += 1;
                    workers.push_row([
                        cell(rec, "ensemble"),
                        cell(rec, "worker"),
                        cell(rec, "runs"),
                    ]);
                    sink.row("worker", rec);
                }
                _ => {}
            }
        }
        if n_ens > 0 {
            sink.note("\nensemble execution (wall-clock tier — not deterministic):");
            sink.table("ensembles", &ensembles);
        }
        if n_wrk > 0 {
            sink.note("\nworker utilization:");
            sink.table("worker utilization", &workers);
        }
    } else {
        sink.note("(no .exec.jsonl sidecar found — worker utilization omitted)");
    }

    sink.finish(0);
}

/// Run the whole `wakeup report` pipeline: read and fold the trace at
/// `path`, read the exec sidecar when present, render through `sink`.
/// Returns an error string suitable for the driver's stderr.
pub fn report_file(path: &Path, sink: &mut dyn Sink) -> Result<(), String> {
    let file =
        std::fs::File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let report = fold_trace(std::io::BufReader::new(file))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let exec_path = exec_sidecar_path(path);
    let exec_lines: Option<Vec<Record>> = match std::fs::read_to_string(&exec_path) {
        Err(_) => None,
        Ok(text) => {
            let mut recs = Vec::new();
            for (i, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                recs.push(
                    parse_json_object(line)
                        .map_err(|e| format!("{} line {}: {e}", exec_path.display(), i + 1))?,
                );
            }
            Some(recs)
        }
    };
    render_report(
        &report,
        &path.display().to_string(),
        exec_lines.as_deref(),
        sink,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample() -> &'static str {
        "\
{\"run\":0,\"ev\":\"wake\",\"slot\":0,\"stations\":3}\n\
{\"run\":0,\"ev\":\"silence\",\"slot\":0,\"slots\":4}\n\
{\"run\":0,\"ev\":\"collision\",\"slot\":4,\"contenders\":3}\n\
{\"run\":0,\"ev\":\"mode_switch\",\"slot\":5,\"dense\":true}\n\
{\"run\":0,\"ev\":\"burst_open\",\"slot\":5,\"window\":8,\"cause\":\"wake\"}\n\
{\"run\":0,\"ev\":\"collision\",\"slot\":5,\"contenders\":2}\n\
{\"run\":0,\"ev\":\"success\",\"slot\":6,\"winner\":17}\n\
{\"run\":0,\"ev\":\"run_end\",\"slots\":7,\"first_success\":6}\n\
{\"run\":1,\"ev\":\"wake\",\"slot\":2,\"stations\":1}\n\
{\"run\":1,\"ev\":\"hint_requery\",\"slot\":3,\"queries\":1}\n\
{\"run\":1,\"ev\":\"watermark\",\"slot\":2,\"heap\":5,\"units\":9}\n\
{\"run\":1,\"ev\":\"silence\",\"slot\":2,\"slots\":10}\n\
{\"run\":1,\"ev\":\"run_end\",\"slots\":12,\"first_success\":null}\n"
    }

    #[test]
    fn fold_trace_aggregates_the_stream() {
        let r = fold_trace(Cursor::new(sample())).unwrap();
        assert_eq!(r.lines, 13);
        assert_eq!(r.runs, 2);
        assert_eq!(r.run_tags, 2);
        assert_eq!(r.total_slots, 19);
        assert_eq!(r.solved_runs, 1);
        assert_eq!(r.silent_slots, 14);
        assert_eq!(r.success_slots, 1);
        assert_eq!(r.collision_slots, 2);
        assert_eq!(r.contention.get(&3), Some(&1));
        assert_eq!(r.contention.get(&2), Some(&1));
        assert_eq!(r.mode_switches, vec![(0, 5, true)]);
        assert_eq!(r.requeries, 1);
        assert_eq!(r.queries, 1);
        assert_eq!(r.bursts_opened, 1);
        assert_eq!(r.bursts_by_cause.get("wake"), Some(&1));
        assert_eq!(r.bursts_by_cause.get("streak"), None);
        assert_eq!(r.max_heap, 5);
        assert_eq!(r.max_units, 9);
        assert_eq!(r.kind_counts.get("collision"), Some(&2));
        assert_eq!(r.kind_counts.get("run_end"), Some(&2));
    }

    #[test]
    fn fold_trace_rejects_damage() {
        assert!(fold_trace(Cursor::new("not json\n")).is_err());
        assert!(fold_trace(Cursor::new("{\"slot\":4}\n")).is_err());
        // An `ev` that names no trace kind fails the fold, line numbered.
        let err = fold_trace(Cursor::new(
            "{\"run\":0,\"ev\":\"wake\",\"slot\":0,\"stations\":1}\n\
             {\"run\":0,\"ev\":\"bogus_kind\",\"slot\":1}\n",
        ))
        .unwrap_err();
        assert!(
            err.contains("line 2") && err.contains("bogus_kind"),
            "{err}"
        );
        // So does a burst window that names no known cause.
        let err = fold_trace(Cursor::new(
            "{\"run\":0,\"ev\":\"burst_open\",\"slot\":5,\"window\":8,\"cause\":\"bogus\"}\n",
        ))
        .unwrap_err();
        assert!(err.contains("line 1") && err.contains("cause"), "{err}");
        // Blank lines are fine.
        let r = fold_trace(Cursor::new("\n\n")).unwrap();
        assert_eq!(r.lines, 0);
    }

    #[test]
    fn exec_sidecar_path_derivation() {
        assert_eq!(
            exec_sidecar_path(Path::new("traces/exp_a.trace.jsonl")),
            PathBuf::from("traces/exp_a.exec.jsonl")
        );
        assert_eq!(
            exec_sidecar_path(Path::new("weird.jsonl")),
            PathBuf::from("weird.jsonl.exec.jsonl")
        );
    }
}
