//! The trace schema has one source, `mac_sim::tracer`: kinds are
//! [`TraceKind::ALL`], tiers are [`TraceKind::deterministic`], and fields
//! are the keys [`TraceEvent::json_fields`] writes. This test renders the
//! README §Observability table from those and requires README.md to carry
//! it verbatim, so a kind or field added, renamed or re-tiered in the code
//! fails here until the README row follows.

use mac_sim::tracer::{BurstCause, TraceEvent, TraceKind};
use mac_sim::StationId;
use wakeup_analysis::serial::parse_json_object;

/// One event of `kind`. The match is exhaustive, so a new kind does not
/// compile until it has a sample here.
fn sample(kind: TraceKind) -> TraceEvent {
    let (slot, id) = (0, StationId(0));
    match kind {
        TraceKind::Wake => TraceEvent::Wake { slot, stations: 1 },
        TraceKind::Silence => TraceEvent::Silence { slot, slots: 1 },
        TraceKind::Success => TraceEvent::Success { slot, winner: id },
        TraceKind::Collision => TraceEvent::Collision {
            slot,
            contenders: 2,
        },
        TraceKind::RunEnd => TraceEvent::RunEnd {
            slots: 1,
            first_success: None,
        },
        TraceKind::HintRequery => TraceEvent::HintRequery { slot, queries: 1 },
        TraceKind::ModeSwitch => TraceEvent::ModeSwitch { slot, dense: true },
        TraceKind::BurstOpen => TraceEvent::BurstOpen {
            slot,
            window: 8,
            cause: BurstCause::Streak,
        },
        TraceKind::BurstClose => TraceEvent::BurstClose { slot },
        TraceKind::ClassSplit => TraceEvent::ClassSplit { slot, born: 1 },
        TraceKind::Watermark => TraceEvent::Watermark {
            slot,
            heap: 1,
            units: 1,
        },
        TraceKind::FaultErasure => TraceEvent::FaultErasure { slot, winner: id },
        TraceKind::FaultCapture => TraceEvent::FaultCapture {
            slot,
            winner: id,
            contenders: 2,
        },
        TraceKind::ChurnCrash => TraceEvent::ChurnCrash { slot, id },
        TraceKind::ChurnRewake => TraceEvent::ChurnRewake { slot, id },
    }
}

/// The README table: one `| kind | tier | fields |` row per kind, in
/// [`TraceKind::ALL`] order.
fn schema_table() -> String {
    let mut table = String::from("| kind | tier | fields |\n|------|------|--------|\n");
    for kind in TraceKind::ALL {
        let ev = sample(kind);
        assert_eq!(ev.kind(), kind, "sample of the wrong kind");
        let rec = parse_json_object(&ev.to_json()).expect("flat JSON");
        let fields: Vec<String> = rec
            .names()
            .into_iter()
            .filter(|&key| key != "ev")
            .map(|key| format!("`{key}`"))
            .collect();
        let tier = if kind.deterministic() {
            "deterministic"
        } else {
            "engine"
        };
        table += &format!("| `{}` | {tier} | {} |\n", kind.name(), fields.join(", "));
    }
    table
}

#[test]
fn readme_schema_table_matches_the_tracer() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
    let readme = std::fs::read_to_string(path).expect("read README.md");
    let table = schema_table();
    assert!(
        readme.contains(&table),
        "README.md §Observability must carry the trace schema table rendered \
         from mac_sim::tracer; expected:\n\n{table}"
    );
}
