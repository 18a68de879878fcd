//! The `wakeup lint` driver, shared between the `wakeup` CLI subcommand and
//! the standalone `wakeup-lint` binary (the CI entry point).
//!
//! Exit codes: `0` no findings, `1` any finding, `2` usage or I/O error.

use crate::rules::RULES;
use crate::{report, workspace_root};
use std::path::PathBuf;

const USAGE: &str = "\
usage: wakeup lint [options]

Statically checks the workspace's determinism invariants; any finding
fails the run.

options:
  --out table|csv|json     output format (default: table)
  --root DIR               workspace root (default: autodetected)
  --rules                  list the rules and exit
  -h, --help               this help
";

/// Output format for the findings stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Out {
    Table,
    Csv,
    Json,
}

/// Run `wakeup lint` with the given (post-subcommand) arguments; returns
/// the process exit code.
pub fn run(args: &[String]) -> i32 {
    let mut out = Out::Table;
    let mut root_arg: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next().map(String::as_str) {
                Some("table") => out = Out::Table,
                Some("csv") => out = Out::Csv,
                Some("json") => out = Out::Json,
                other => {
                    return usage_error(&format!("--out expects table|csv|json, got {other:?}"))
                }
            },
            "--root" => match it.next() {
                Some(p) => root_arg = Some(PathBuf::from(p)),
                None => return usage_error("--root expects a directory"),
            },
            "--rules" => {
                for r in RULES {
                    println!("{:<22} {}", r.id, r.summary);
                }
                return 0;
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return 0;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let Some(root) = root_arg.or_else(workspace_root) else {
        eprintln!("wakeup lint: cannot locate the workspace root (try --root)");
        return 2;
    };
    let rep = match crate::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("wakeup lint: {e}");
            return 2;
        }
    };

    match out {
        Out::Table => print!("{}", report::render_table(&rep)),
        Out::Csv => print!("{}", report::render_csv(&rep)),
        Out::Json => print!("{}", report::render_json(&rep)),
    }
    eprintln!(
        "wakeup lint: {} files, {} findings, {} suppressed",
        rep.files,
        rep.findings.len(),
        rep.suppressed,
    );
    if rep.findings.is_empty() {
        0
    } else {
        1
    }
}

fn usage_error(msg: &str) -> i32 {
    eprintln!("wakeup lint: {msg}");
    eprint!("{USAGE}");
    2
}
