//! The repository benchmark: fixed ensemble workloads driven through the
//! public APIs of `wakeup-core`, `mac-sim`, `wakeup-analysis` and
//! `wakeup-runner`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload <name> --write-reference
//! ```
//!
//! Set-up generates every input from the seed (several times, reporting
//! the median), then the workload's fixed list of ensembles runs again and
//! again for `--seconds`. With `--trace 0` the end-to-end metrics are
//! printed; with `--trace 1` an instrumented replica of the pass attributes
//! its wall-clock to the layers, probes run the forced-engine, class/concrete
//! and tracer comparisons, and `out/<workload>.layers.json` (beside this
//! package's manifest) receives the per-layer split and per-cell tables.
//! Every ensemble's outcome aggregate is checked against the committed
//! reference in `reference/<workload>.tsv`. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.

mod exec;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use wakeup_core::ConstructionCache;
use workloads::{Cell, SEED_CLASSES, WORKLOADS};

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
                     perfbench --workload <name> --write-reference";

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        write_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-reference" {
            args.write_reference = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            args.seconds
        ));
    }
    Ok(args)
}

/// The committed outcome aggregates of one input set, keyed by cell.
pub struct Reference {
    input_set: u64,
    lines: BTreeMap<String, String>,
}

impl Reference {
    fn load(workload: &str, seed: u64) -> Reference {
        let input_set = seed % SEED_CLASSES;
        let text = match workload {
            "staggered-sweep" => include_str!("../reference/staggered-sweep.tsv"),
            "burst-resolve" => include_str!("../reference/burst-resolve.tsv"),
            "mega-classes" => include_str!("../reference/mega-classes.tsv"),
            _ => "",
        };
        let lines = text
            .lines()
            .filter_map(|l| {
                let mut f = l.splitn(3, '\t');
                let set: u64 = f.next()?.parse().ok()?;
                let (cell, agg) = (f.next()?, f.next()?);
                (set == input_set).then(|| (cell.to_string(), agg.to_string()))
            })
            .collect();
        Reference { input_set, lines }
    }

    /// Does `agg` match the committed aggregate of `cell`? A cell missing
    /// from the reference does not.
    pub fn matches(&self, cell: &Cell, agg: &exec::Agg) -> bool {
        let ok = self.lines.get(&cell.name) == Some(&agg.line());
        if !ok {
            eprintln!(
                "perfbench: outcome mismatch in {:?} (input set {}): got {}",
                cell.name,
                self.input_set,
                agg.line()
            );
        }
        ok
    }
}

/// Generate the inputs and warm the construction cache, `reps` times;
/// returns the last set-up and the median set-up time. Each set-up is
/// dropped before the next starts, so the peak RSS holds one set-up.
fn setup(workload: &str, seed: u64, reps: usize) -> (Vec<Cell>, ConstructionCache, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        let cells = workloads::build(workload, seed).expect("workload name checked");
        let cache = ConstructionCache::new();
        for c in cells.iter().filter(|c| c.cached) {
            drop(c.protocol(&cache, 0, c.base_seed));
        }
        times.push(t.elapsed().as_secs_f64());
        last = Some((cells, cache));
    }
    let (cells, cache) = last.expect("at least one set-up");
    (cells, cache, median(&mut times))
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The worker-thread count: the machine's parallelism, at most two.
pub(crate) fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(2)
}

/// The end-to-end pass, repeated for `seconds`: median wall-clock of one
/// pass of the workload's fixed ensemble list, and the rates it implies.
fn end_to_end(
    args: &Args,
    cells: &[Cell],
    cache: &ConstructionCache,
    reference: &Reference,
    setup_s: f64,
) -> (Vec<Metric>, u64, u64) {
    let threads = threads();
    let runs_per_pass: u64 = cells.iter().map(Cell::runs).sum();
    let budget = Duration::from_secs_f64(args.seconds);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut walls = Vec::new();
    let mut slots_per_pass = 0u64;
    // Peak RSS of set-up plus one pass. Later passes only add allocator
    // retention that steps with thread timing (one freed 2^20 family each).
    let mut rss_mb = None;
    let started = Instant::now();
    while walls.is_empty() || started.elapsed() < budget {
        let t = Instant::now();
        let results: Vec<_> = cells
            .iter()
            .map(|c| exec::run_e2e(c, cache, threads, None))
            .collect();
        walls.push(t.elapsed().as_secs_f64());
        rss_mb.get_or_insert_with(peak_rss_mb);
        slots_per_pass = 0;
        for (cell, r) in cells.iter().zip(results) {
            attempted += 1;
            match r {
                Some((agg, slots)) => {
                    slots_per_pass += slots;
                    failed += u64::from(!reference.matches(cell, &agg));
                }
                None => failed += 1,
            }
        }
    }
    let passes = walls.len();
    eprintln!("perfbench: pass walls {walls:.4?}");
    let wall_s = median(&mut walls);
    eprintln!(
        "perfbench: {} passes of {} ensembles ({} runs), median {:.4} s",
        passes,
        cells.len(),
        runs_per_pass,
        wall_s
    );
    let metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("wall_s", wall_s, "s"),
        metric("runs_per_s", runs_per_pass as f64 / wall_s, "1/s"),
        metric("slots_per_s", slots_per_pass as f64 / wall_s, "1/s"),
        metric("peak_rss_mb", rss_mb.unwrap_or_default(), "MiB"),
        metric(
            "pass_frac",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "fraction",
        ),
    ];
    (metrics, attempted, failed)
}

/// Regenerate `reference/<workload>.tsv` from one end-to-end pass per input
/// set. Run it only when an outcome change is intended.
fn write_reference(workload: &str) -> std::io::Result<()> {
    let threads = threads();
    let mut out = String::new();
    for seed in 0..SEED_CLASSES {
        let (cells, cache, _) = setup(workload, seed, 1);
        for cell in &cells {
            let (agg, _) = exec::run_e2e(cell, &cache, threads, None)
                .unwrap_or_else(|| panic!("{}: a run errored on input set {seed}", cell.name));
            out.push_str(&format!("{seed}\t{}\t{}\n", cell.name, agg.line()));
        }
        eprintln!("perfbench: input set {seed} done");
    }
    let path = format!("{}/reference/{workload}.tsv", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, out)?;
    eprintln!("perfbench: wrote {path}");
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.write_reference {
        if let Err(e) = write_reference(&args.workload) {
            eprintln!("perfbench: writing the reference failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    let reference = Reference::load(&args.workload, args.seed);
    let (cells, cache, setup_s) = setup(&args.workload, args.seed, SETUP_REPS);
    let (metrics, attempted, failed) = if args.trace {
        traced::run(
            &args.workload,
            args.seed,
            args.seconds,
            &cells,
            &cache,
            &reference,
        )
    } else {
        end_to_end(&args, &cells, &cache, &reference, setup_s)
    };
    for m in &metrics {
        eprintln!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    );
}
