//! The `wakeup` driver: one CLI over the whole experiment registry.
//!
//! ```text
//! wakeup list
//! wakeup run <name>... | --all [--scale quick|full] [--threads N]
//!            [--seed S] [--out table|csv|json] [--out-dir DIR]
//!            [--trace] [--trace-out DIR] [--trace-sample N]
//! wakeup trace <name>...      # run with --trace defaulted on
//! wakeup report <trace.jsonl> # fold a trace artifact back into tables
//! ```
//!
//! Flags fall back to the historical environment variables where one
//! exists (`--scale` → `WAKEUP_SCALE`, `--threads` → `WAKEUP_THREADS`), so
//! existing invocations and CI recipes keep working.

use crate::experiment::run_experiment_traced;
use crate::experiments;
use crate::sink::OutFormat;
use crate::Scale;
use mac_sim::tracer::TraceFilter;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use wakeup_analysis::ensemble::TraceSpec;

/// Resolved driver configuration (flags over env fallbacks).
#[derive(Clone, Debug)]
pub struct Config {
    /// Sweep scale (`--scale`, else `WAKEUP_SCALE`, else quick).
    pub scale: Scale,
    /// Worker threads (`--threads`, else `WAKEUP_THREADS`, else auto).
    pub threads: Option<usize>,
    /// Offset added to every ensemble base seed (`--seed`, default 0).
    pub seed: u64,
    /// Output format (`--out`, default table).
    pub out: OutFormat,
    /// Per-experiment output files instead of stdout (`--out-dir`).
    pub out_dir: Option<PathBuf>,
    /// Wall-clock box for the selection, in seconds (`--time-box`): at full
    /// scale the driver schedules the selection **budget-ascending** by the
    /// registry's declared
    /// [`full_budget_secs`](crate::experiment::Experiment::full_budget_secs)
    /// and stops admitting experiments before the cumulative projection
    /// would overflow the box; the deferred remainder is reported.
    pub time_box: Option<u64>,
    /// Capture a structured trace per experiment (`--trace`, or the
    /// `wakeup trace` subcommand which defaults it on).
    pub trace: bool,
    /// Directory for `<experiment>.trace.jsonl` / `.exec.jsonl` artifacts
    /// (`--trace-out`, default `traces`).
    pub trace_out: Option<PathBuf>,
    /// Keep every N-th event per (run, kind) stream (`--trace-sample`,
    /// default 1 = keep everything).
    pub trace_sample: u64,
}

impl Config {
    /// The environment-only configuration: the defaults the flags override.
    pub fn from_env() -> Config {
        Config {
            scale: Scale::from_env(),
            threads: None, // Ctx falls back to WAKEUP_THREADS itself
            seed: 0,
            out: OutFormat::Table,
            out_dir: None,
            time_box: None,
            trace: false,
            trace_out: None,
            trace_sample: 1,
        }
    }
}

const USAGE: &str = "\
wakeup — the experiment driver of the De Marco & Kowalski reproduction

USAGE:
    wakeup list
    wakeup run <experiment>... [OPTIONS]
    wakeup run --all [OPTIONS]
    wakeup trace <experiment>... [OPTIONS]
    wakeup report <trace.jsonl> [--out table|csv|json]
    wakeup diff <dir_a> <dir_b> [--threshold F]

OPTIONS:
    --scale quick|full     sweep scale (default: $WAKEUP_SCALE or quick)
    --threads N            runner worker threads (default: $WAKEUP_THREADS or auto)
    --seed S               offset added to every ensemble base seed (default 0)
    --out table|csv|json   output format (default: table; json = JSON Lines)
    --out-dir DIR          write <experiment>.{txt,csv,jsonl} under DIR
    --trace                also capture a structured event trace per experiment
    --trace-out DIR        trace artifact directory (default: traces)
    --trace-sample N       keep every N-th event per (run, kind) stream
    --time-box SECS        schedule the selection inside this wall-clock box:
                           at full scale, run budget-ascending (declared
                           per-experiment budgets) and stop before the
                           cumulative projection overflows; defer the rest
    --threshold F          diff: relative regression threshold (default 0.05)
    -h, --help             this help

`wakeup trace` is `wakeup run` with --trace defaulted on: each experiment
writes <name>.trace.jsonl (the deterministic event stream — bit-identical
across --threads counts for a fixed seed) and <name>.exec.jsonl (wall-clock
tier: per-ensemble phase timers and per-worker counters) under --trace-out.
`wakeup report` folds a trace artifact back into slot-class / contention
histograms, the mode-switch timeline and worker utilization.

`wakeup diff` compares two --out-dir JSON artifact directories (baseline,
candidate) and exits 1 when any latency/work metric regressed beyond the
threshold, a row or artifact disappeared, or a check flipped to failing.

Environment: WAKEUP_PROGRESS=secs enables live runs/s lines on stderr;
WAKEUP_ASSERT_SPARSE=1 turns EXP-KG's sparse-path expectations into checks;
WAKEUP_ASSERT_CLASSES=1 adds EXP-MEGA's concrete cross-checks (class-engine
aggregates bit-identical to the per-station engine).
";

/// Errors from argument parsing, rendered to stderr by [`main`].
#[derive(Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

/// The parsed command.
#[derive(Debug)]
pub enum Command {
    /// `wakeup list`
    List,
    /// `wakeup run …`
    Run {
        /// Experiment names to run, in registry order.
        names: Vec<String>,
        /// Resolved configuration.
        config: Config,
    },
    /// `wakeup report <trace.jsonl>`
    Report {
        /// Trace artifact to fold.
        path: PathBuf,
        /// Output format for the report.
        out: OutFormat,
    },
    /// `wakeup diff <dir_a> <dir_b>`
    Diff {
        /// Baseline artifact directory.
        dir_a: PathBuf,
        /// Candidate artifact directory.
        dir_b: PathBuf,
        /// Relative regression threshold.
        threshold: f64,
    },
    /// `-h` / `--help` / no args.
    Help,
}

/// Parse a full argument vector (without the binary name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let mut it = args.iter().peekable();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "-h" | "--help" | "help" => Ok(Command::Help),
        "list" => {
            if let Some(extra) = it.next() {
                return Err(ParseError(format!("unexpected argument '{extra}'")));
            }
            Ok(Command::List)
        }
        "run" => parse_run(&mut it, false),
        "trace" => parse_run(&mut it, true),
        "report" => {
            let mut path: Option<PathBuf> = None;
            let mut out = OutFormat::Table;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--out" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--out needs a value".into()))?;
                        out = OutFormat::parse(v).ok_or_else(|| {
                            ParseError(format!("--out must be table|csv|json, got '{v}'"))
                        })?;
                    }
                    flag if flag.starts_with('-') => {
                        return Err(ParseError(format!("unknown flag '{flag}'")))
                    }
                    p if path.is_none() => path = Some(PathBuf::from(p)),
                    extra => {
                        return Err(ParseError(format!(
                            "report takes one trace file, got extra '{extra}'"
                        )))
                    }
                }
            }
            let path =
                path.ok_or_else(|| ParseError("report needs a trace file to fold".into()))?;
            Ok(Command::Report { path, out })
        }
        "diff" => {
            let mut dirs: Vec<PathBuf> = Vec::new();
            let mut threshold = 0.05f64;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--threshold" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--threshold needs a value".into()))?;
                        threshold = v.parse::<f64>().map_err(|_| {
                            ParseError(format!("--threshold must be a number, got '{v}'"))
                        })?;
                        if threshold.is_nan() || threshold < 0.0 {
                            return Err(ParseError(format!(
                                "--threshold must be ≥ 0, got {threshold}"
                            )));
                        }
                    }
                    flag if flag.starts_with('-') => {
                        return Err(ParseError(format!("unknown flag '{flag}'")))
                    }
                    dir => dirs.push(PathBuf::from(dir)),
                }
            }
            let [dir_a, dir_b] = <[PathBuf; 2]>::try_from(dirs).map_err(|d| {
                ParseError(format!(
                    "diff takes exactly two artifact directories, got {}",
                    d.len()
                ))
            })?;
            Ok(Command::Diff {
                dir_a,
                dir_b,
                threshold,
            })
        }
        other => Err(ParseError(format!(
            "unknown command '{other}' (try `wakeup --help`)"
        ))),
    }
}

/// Parse the shared `run`/`trace` grammar; `trace` starts the flag on
/// (the `wakeup trace` subcommand) and `--trace` can still add it to a
/// plain `run`.
fn parse_run(
    it: &mut std::iter::Peekable<std::slice::Iter<String>>,
    trace: bool,
) -> Result<Command, ParseError> {
    let mut config = Config::from_env();
    config.trace = trace;
    let mut names: Vec<String> = Vec::new();
    let mut all = false;
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                 flag: &str|
     -> Result<String, ParseError> {
        it.next()
            .cloned()
            .ok_or_else(|| ParseError(format!("{flag} needs a value")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => all = true,
            "--trace" => config.trace = true,
            "--scale" => {
                config.scale = match value(it, "--scale")?.as_str() {
                    "quick" => Scale::Quick,
                    "full" => Scale::Full,
                    other => {
                        return Err(ParseError(format!(
                            "--scale must be quick|full, got '{other}'"
                        )))
                    }
                }
            }
            "--threads" => {
                let v = value(it, "--threads")?;
                config.threads =
                    Some(v.parse::<usize>().map_err(|_| {
                        ParseError(format!("--threads must be a number, got '{v}'"))
                    })?);
            }
            "--seed" => {
                let v = value(it, "--seed")?;
                config.seed = v
                    .parse::<u64>()
                    .map_err(|_| ParseError(format!("--seed must be a number, got '{v}'")))?;
            }
            "--out" => {
                let v = value(it, "--out")?;
                config.out = OutFormat::parse(&v).ok_or_else(|| {
                    ParseError(format!("--out must be table|csv|json, got '{v}'"))
                })?;
            }
            "--out-dir" => {
                config.out_dir = Some(PathBuf::from(value(it, "--out-dir")?));
            }
            "--trace-out" => {
                config.trace = true;
                config.trace_out = Some(PathBuf::from(value(it, "--trace-out")?));
            }
            "--trace-sample" => {
                config.trace = true;
                let v = value(it, "--trace-sample")?;
                let n = v.parse::<u64>().map_err(|_| {
                    ParseError(format!("--trace-sample must be a number, got '{v}'"))
                })?;
                if n == 0 {
                    return Err(ParseError("--trace-sample must be ≥ 1".into()));
                }
                config.trace_sample = n;
            }
            "--time-box" => {
                let v = value(it, "--time-box")?;
                config.time_box =
                    Some(v.parse::<u64>().map_err(|_| {
                        ParseError(format!("--time-box must be seconds, got '{v}'"))
                    })?);
            }
            flag if flag.starts_with('-') => {
                return Err(ParseError(format!("unknown flag '{flag}'")))
            }
            name => names.push(name.to_string()),
        }
    }
    if all {
        if !names.is_empty() {
            return Err(ParseError(
                "pass either --all or experiment names, not both".into(),
            ));
        }
        names = experiments::registry()
            .iter()
            .map(|e| e.name.to_string())
            .collect();
    } else if names.is_empty() {
        return Err(ParseError(
            "nothing to run: pass experiment names or --all".into(),
        ));
    }
    for name in &names {
        if experiments::find(name).is_none() {
            return Err(ParseError(format!(
                "unknown experiment '{name}' (see `wakeup list`)"
            )));
        }
    }
    Ok(Command::Run { names, config })
}

/// Render the registry listing.
pub fn render_list() -> String {
    let mut table = wakeup_analysis::Table::new(["name", "id", "grid", "full budget", "claim"]);
    let mut total = 0u64;
    for e in experiments::registry() {
        total += e.full_budget_secs;
        table.push_row([
            e.name.to_string(),
            e.id.to_string(),
            format!("{:?}", e.grid).to_lowercase(),
            format!("{}s", e.full_budget_secs),
            e.claim.to_string(),
        ]);
    }
    format!(
        "{}\nfull-scale budget of the whole registry: ~{total}s \
         (single core; quick scale runs in seconds per experiment)\n",
        table.to_markdown()
    )
}

/// Schedule a selection against a `--time-box`: at full scale the selection
/// is reordered **budget-ascending** (ties keep selection order) and
/// experiments are admitted greedily while the cumulative declared
/// full-scale budget still fits the box — the driver stops *before* the
/// overflowing entry rather than starting work it cannot finish. Returns
/// the admitted names in execution order plus the note to print (schedule
/// summary, deferred remainder, or the quick-scale caveat — quick sweeps
/// finish in seconds and are not budgeted, so the selection passes through
/// untouched).
pub fn time_box_plan(names: &[String], config: &Config) -> (Vec<String>, Option<String>) {
    let Some(box_secs) = config.time_box else {
        return (names.to_vec(), None);
    };
    if config.scale != Scale::Full {
        return (
            names.to_vec(),
            Some(format!(
                "wakeup: --time-box {box_secs}s noted, but budgets are declared for \
                 --scale full; quick sweeps finish in seconds"
            )),
        );
    }
    let mut by_budget: Vec<_> = names.iter().filter_map(|n| experiments::find(n)).collect();
    by_budget.sort_by_key(|e| e.full_budget_secs);
    let mut spent = 0u64;
    let mut admitted: Vec<String> = Vec::new();
    let mut deferred: Vec<String> = Vec::new();
    for e in by_budget {
        if spent + e.full_budget_secs <= box_secs {
            spent += e.full_budget_secs;
            admitted.push(e.name.to_string());
        } else {
            deferred.push(format!("{} {}s", e.name, e.full_budget_secs));
        }
    }
    let note = if deferred.is_empty() {
        format!(
            "wakeup: --time-box {box_secs}s: all {} experiment(s) fit (~{spent}s), \
             running budget-ascending",
            admitted.len()
        )
    } else {
        format!(
            "wakeup: --time-box {box_secs}s: running {} of {} experiment(s) \
             (~{spent}s projected), deferring over-box: {}",
            admitted.len(),
            admitted.len() + deferred.len(),
            deferred.join(", ")
        )
    };
    (admitted, Some(note))
}

/// Open the per-experiment trace + exec sinks and build the [`TraceSpec`]
/// for one traced experiment. Returns the spec plus the shared sink handles
/// so the caller can flush them once the run finishes (the spec's clones
/// are dropped inside the runner).
#[expect(
    clippy::type_complexity,
    reason = "the spec plus its two shared sink handles, used once"
)]
fn open_trace(
    name: &str,
    config: &Config,
) -> std::io::Result<(
    TraceSpec,
    Arc<Mutex<dyn Write + Send>>,
    Arc<Mutex<dyn Write + Send>>,
)> {
    let dir = config
        .trace_out
        .clone()
        .unwrap_or_else(|| PathBuf::from("traces"));
    std::fs::create_dir_all(&dir)?;
    let trace_path = dir.join(format!("{name}.trace.jsonl"));
    let exec_path = dir.join(format!("{name}.exec.jsonl"));
    eprintln!(
        "wakeup: tracing {name} -> {} (+ {})",
        trace_path.display(),
        exec_path.display()
    );
    let trace_sink: Arc<Mutex<dyn Write + Send>> = Arc::new(Mutex::new(std::io::BufWriter::new(
        std::fs::File::create(&trace_path)?,
    )));
    let exec_sink: Arc<Mutex<dyn Write + Send>> = Arc::new(Mutex::new(std::io::BufWriter::new(
        std::fs::File::create(&exec_path)?,
    )));
    let filter = TraceFilter::all().sample_every(config.trace_sample.max(1));
    let spec =
        TraceSpec::new(filter, Arc::clone(&trace_sink)).with_exec_sink(Arc::clone(&exec_sink));
    Ok((spec, trace_sink, exec_sink))
}

/// Run the named experiments under `config`. Returns the number of failed
/// checks across all of them.
pub fn run_many(names: &[String], config: &Config) -> std::io::Result<u64> {
    let mut failures = 0u64;
    for name in names {
        let exp = experiments::find(name).expect("validated by parse");
        let writer: Box<dyn Write> = match &config.out_dir {
            None => Box::new(std::io::stdout().lock()),
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let path = dir.join(format!("{name}.{}", config.out.extension()));
                eprintln!("wakeup: running {name} -> {}", path.display());
                Box::new(std::io::BufWriter::new(std::fs::File::create(path)?))
            }
        };
        let mut sink = config.out.sink(writer);
        let (trace, sinks) = if config.trace {
            let (spec, t, e) = open_trace(name, config)?;
            (Some(spec), Some((t, e)))
        } else {
            (None, None)
        };
        failures += run_experiment_traced(
            &exp,
            config.scale,
            config.seed,
            config.threads,
            trace,
            sink.as_mut(),
        );
        if let Some((t, e)) = sinks {
            t.lock().expect("trace sink poisoned").flush()?;
            e.lock().expect("exec sink poisoned").flush()?;
        }
    }
    Ok(failures)
}

/// The `wakeup` binary's entry point; returns the process exit code.
#[expect(clippy::disallowed_methods, reason = "the driver's argv")]
pub fn main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Err(ParseError(msg)) => {
            eprintln!("wakeup: {msg}");
            2
        }
        Ok(Command::Help) => {
            print!("{USAGE}");
            0
        }
        Ok(Command::List) => {
            print!("{}", render_list());
            0
        }
        Ok(Command::Run { names, config }) => {
            let (names, note) = time_box_plan(&names, &config);
            if let Some(note) = note {
                eprintln!("{note}");
            }
            match run_many(&names, &config) {
                Err(e) => {
                    eprintln!("wakeup: i/o error: {e}");
                    2
                }
                Ok(0) => 0,
                Ok(failures) => {
                    eprintln!("wakeup: {failures} check(s) failed");
                    1
                }
            }
        }
        Ok(Command::Report { path, out }) => {
            let mut sink = out.sink(Box::new(std::io::stdout().lock()));
            match crate::report::report_file(&path, sink.as_mut()) {
                Err(e) => {
                    eprintln!("wakeup: report error: {e}");
                    2
                }
                Ok(()) => 0,
            }
        }
        Ok(Command::Diff {
            dir_a,
            dir_b,
            threshold,
        }) => {
            let mut out = std::io::stdout().lock();
            match crate::diff::diff_dirs(&dir_a, &dir_b, threshold, &mut out) {
                Err(e) => {
                    eprintln!("wakeup: diff error: {e}");
                    2
                }
                Ok(report) if report.regressions == 0 => 0,
                Ok(report) => {
                    eprintln!("wakeup: {} regression(s) found", report.regressions);
                    1
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parse_accepts_the_documented_grammar() {
        assert!(matches!(parse(&argv("list")), Ok(Command::List)));
        assert!(matches!(parse(&argv("--help")), Ok(Command::Help)));
        assert!(matches!(parse(&[]), Ok(Command::Help)));
        let Ok(Command::Run { names, config }) = parse(&argv(
            "run exp_scenario_a exp_certify --scale full --threads 4 --seed 7 --out json --out-dir /tmp/x",
        )) else {
            panic!("run did not parse");
        };
        assert_eq!(names, vec!["exp_scenario_a", "exp_certify"]);
        assert_eq!(config.scale, Scale::Full);
        assert_eq!(config.threads, Some(4));
        assert_eq!(config.seed, 7);
        assert_eq!(config.out, OutFormat::Json);
        assert_eq!(
            config.out_dir.as_deref(),
            Some(std::path::Path::new("/tmp/x"))
        );
    }

    #[test]
    fn parse_all_expands_to_the_registry() {
        let Ok(Command::Run { names, .. }) = parse(&argv("run --all")) else {
            panic!("--all did not parse");
        };
        assert_eq!(names.len(), 17);
        assert!(names.contains(&"exp_full_resolution".to_string()));
        assert!(names.contains(&"exp_mega".to_string()));
        assert!(names.contains(&"exp_noise".to_string()));
        assert!(names.contains(&"exp_churn".to_string()));
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse(&argv("run")).is_err());
        assert!(parse(&argv("run --all exp_certify")).is_err());
        assert!(parse(&argv("run exp_nope")).is_err());
        assert!(parse(&argv("run exp_certify --scale big")).is_err());
        assert!(parse(&argv("run exp_certify --out yaml")).is_err());
        assert!(parse(&argv("run exp_certify --threads many")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("list extra")).is_err());
    }

    #[test]
    fn parse_trace_grammar() {
        // run without trace flags: tracing off.
        let Ok(Command::Run { config, .. }) = parse(&argv("run exp_certify")) else {
            panic!("run did not parse");
        };
        assert!(!config.trace);
        assert_eq!(config.trace_sample, 1);
        // --trace on run.
        let Ok(Command::Run { config, .. }) = parse(&argv("run exp_certify --trace")) else {
            panic!("run --trace did not parse");
        };
        assert!(config.trace);
        // The trace subcommand defaults tracing on and shares the grammar.
        let Ok(Command::Run { names, config }) = parse(&argv(
            "trace exp_scenario_a --scale quick --trace-out /tmp/t --trace-sample 8",
        )) else {
            panic!("trace did not parse");
        };
        assert_eq!(names, vec!["exp_scenario_a"]);
        assert!(config.trace);
        assert_eq!(
            config.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/t"))
        );
        assert_eq!(config.trace_sample, 8);
        // --trace-out / --trace-sample imply --trace.
        let Ok(Command::Run { config, .. }) = parse(&argv("run exp_certify --trace-sample 4"))
        else {
            panic!("run --trace-sample did not parse");
        };
        assert!(config.trace);
        assert!(parse(&argv("trace")).is_err());
        assert!(parse(&argv("trace exp_nope")).is_err());
        assert!(parse(&argv("run exp_certify --trace-sample 0")).is_err());
        assert!(parse(&argv("run exp_certify --trace-sample lots")).is_err());
    }

    #[test]
    fn parse_report_grammar() {
        let Ok(Command::Report { path, out }) = parse(&argv("report traces/x.trace.jsonl")) else {
            panic!("report did not parse");
        };
        assert_eq!(path, PathBuf::from("traces/x.trace.jsonl"));
        assert_eq!(out, OutFormat::Table);
        let Ok(Command::Report { out, .. }) = parse(&argv("report t.jsonl --out json")) else {
            panic!("report --out did not parse");
        };
        assert_eq!(out, OutFormat::Json);
        assert!(parse(&argv("report")).is_err());
        assert!(parse(&argv("report a b")).is_err());
        assert!(parse(&argv("report t.jsonl --out yaml")).is_err());
        assert!(parse(&argv("report t.jsonl --frob")).is_err());
    }

    #[test]
    fn parse_diff_grammar() {
        let Ok(Command::Diff {
            dir_a,
            dir_b,
            threshold,
        }) = parse(&argv("diff golden fresh --threshold 0.1"))
        else {
            panic!("diff did not parse");
        };
        assert_eq!(dir_a, PathBuf::from("golden"));
        assert_eq!(dir_b, PathBuf::from("fresh"));
        assert!((threshold - 0.1).abs() < 1e-12);
        // Default threshold.
        let Ok(Command::Diff { threshold, .. }) = parse(&argv("diff a b")) else {
            panic!("diff did not parse");
        };
        assert!((threshold - 0.05).abs() < 1e-12);
        assert!(parse(&argv("diff onlyone")).is_err());
        assert!(parse(&argv("diff a b c")).is_err());
        assert!(parse(&argv("diff a b --threshold nope")).is_err());
        assert!(parse(&argv("diff a b --threshold -1")).is_err());
    }

    #[test]
    fn time_box_schedules_budget_ascending_and_stops_before_overflow() {
        let names: Vec<String> = experiments::registry()
            .iter()
            .map(|e| e.name.to_string())
            .collect();
        let mut budgets: Vec<u64> = experiments::registry()
            .iter()
            .map(|e| e.full_budget_secs)
            .collect();
        budgets.sort_unstable();
        let total: u64 = budgets.iter().sum();
        let mut config = Config::from_env();
        config.scale = Scale::Full;

        // A box that fits everything: all admitted, reordered budget-ascending.
        config.time_box = Some(total);
        let (admitted, note) = time_box_plan(&names, &config);
        assert_eq!(admitted.len(), names.len());
        let admitted_budgets: Vec<u64> = admitted
            .iter()
            .map(|n| experiments::find(n).unwrap().full_budget_secs)
            .collect();
        assert!(
            admitted_budgets.windows(2).all(|w| w[0] <= w[1]),
            "not budget-ascending: {admitted_budgets:?}"
        );
        assert!(note.unwrap().contains("all"), "fit note missing");

        // One second short of the total: the most expensive entry (at
        // least) is deferred, everything admitted still fits the box.
        config.time_box = Some(total - 1);
        let (admitted, note) = time_box_plan(&names, &config);
        assert!(admitted.len() < names.len());
        let spent: u64 = admitted
            .iter()
            .map(|n| experiments::find(n).unwrap().full_budget_secs)
            .sum();
        assert!(spent < total, "admitted {spent}s overflows the box");
        let note = note.unwrap();
        assert!(note.contains("deferring"), "{note}");

        // A box smaller than the cheapest experiment admits nothing.
        config.time_box = Some(budgets[0] - 1);
        let (admitted, _) = time_box_plan(&names, &config);
        assert!(admitted.is_empty());

        // No box: pass-through in selection order, no note.
        config.time_box = None;
        let (admitted, note) = time_box_plan(&names, &config);
        assert_eq!(admitted, names);
        assert!(note.is_none());

        // Quick scale: budgets do not apply — pass-through plus a caveat.
        config.time_box = Some(1);
        config.scale = Scale::Quick;
        let (admitted, note) = time_box_plan(&names, &config);
        assert_eq!(admitted, names);
        assert!(note.unwrap().contains("quick"));
    }

    #[test]
    fn every_experiment_declares_a_budget() {
        for e in experiments::registry() {
            assert!(
                e.full_budget_secs > 0,
                "{} has no full-scale budget",
                e.name
            );
        }
        // The listing prints them.
        assert!(render_list().contains("full budget"));
        assert!(render_list().contains("600s"), "crossover budget missing");
    }

    #[test]
    fn list_mentions_every_experiment() {
        let listing = render_list();
        for e in crate::experiments::registry() {
            assert!(listing.contains(e.name), "{} missing", e.name);
            assert!(listing.contains(e.id), "{} missing", e.id);
        }
    }
}
