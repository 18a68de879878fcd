//! Rendering a [`LintReport`] in the workspace's three standard output
//! formats (table / CSV / JSON Lines), all byte-deterministic: findings are
//! pre-sorted by the workspace linter and every value renders through
//! [`wakeup_analysis::serial`].

use crate::LintReport;
use wakeup_analysis::serial::Record;
use wakeup_analysis::Table;

/// The summary line appended to every rendering (and, for JSON, emitted as
/// a final record) so gates can read totals without re-counting.
pub fn summary_record(report: &LintReport) -> Record {
    Record::new()
        .with("record", "summary")
        .with("files", report.files)
        .with("findings", report.findings.len())
        .with("suppressed", report.suppressed)
}

/// JSON Lines: one record per finding, then the summary record.
pub fn render_json(report: &LintReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&f.record().to_json());
        out.push('\n');
    }
    out.push_str(&summary_record(report).to_json());
    out.push('\n');
    out
}

/// CSV with a header row; the summary goes to stderr, not the data stream.
pub fn render_csv(report: &LintReport) -> String {
    let mut out = String::from("rule,file,line,message\n");
    for f in &report.findings {
        out.push_str(&f.record().to_csv_line());
        out.push('\n');
    }
    out
}

/// Human-readable markdown table.
pub fn render_table(report: &LintReport) -> String {
    if report.findings.is_empty() {
        return String::from("no findings\n");
    }
    let mut table = Table::new(["rule", "location", "message"]);
    for f in &report.findings {
        table.push_row([
            f.rule.to_string(),
            format!("{}:{}", f.file, f.line),
            f.message.clone(),
        ]);
    }
    table.to_markdown()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;

    fn sample() -> LintReport {
        LintReport {
            findings: vec![Finding {
                rule: "wall-clock",
                file: "crates/core/src/x.rs".into(),
                line: 12,
                message: "Instant::now in deterministic code".into(),
            }],
            files: 3,
            suppressed: 1,
        }
    }

    #[test]
    fn json_rendering_is_stable() {
        let r = sample();
        let json = render_json(&r);
        assert_eq!(
            json,
            "{\"rule\":\"wall-clock\",\"file\":\"crates/core/src/x.rs\",\
             \"line\":12,\"message\":\"Instant::now in deterministic code\"}\n\
             {\"record\":\"summary\",\"files\":3,\"findings\":1,\"suppressed\":1}\n"
        );
        assert_eq!(
            json,
            render_json(&r),
            "repeat renders must be byte-identical"
        );
    }

    #[test]
    fn csv_and_table_render() {
        let r = sample();
        assert!(render_csv(&r).starts_with("rule,file,line,message\n"));
        assert!(render_table(&r).contains("crates/core/src/x.rs:12"));
        assert_eq!(render_table(&LintReport::default()), "no findings\n");
    }
}
