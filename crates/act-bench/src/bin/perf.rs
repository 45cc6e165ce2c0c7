//! `perf` — the tracked hot-path benchmark.
//!
//! Measures classify/train throughput and offline-training / `table4`
//! wall-clock, and writes `BENCH_hotpath.json` (schema documented in
//! `act_bench::perf`). Typical uses:
//!
//! ```text
//! cargo run --release -p act-bench --bin perf                 # full run
//! cargo run --release -p act-bench --bin perf -- --quick      # CI-sized
//! cargo run --release -p act-bench --bin perf -- \
//!     --baseline BENCH_baseline.json                          # fill `before`
//! cargo run --release -p act-bench --bin perf -- \
//!     --validate BENCH_hotpath.json                           # schema check
//! cargo run --release -p act-bench --bin perf -- --quick \
//!     --only classify_predictions,batched_diagnose \
//!     --gate BENCH_hotpath.json --gate-pct 10                 # CI perf gate
//! ```
//!
//! `--gate FILE` turns the run into a pass/fail check: every measured
//! bench that has a row in FILE (matched the same way `--baseline` rows
//! are) must not regress by more than `--gate-pct` percent (default 10),
//! in the unit's own direction — else exit 1. `--gate-bench NAMES`
//! (comma-separated, exact match) restricts the verdict to the named
//! benches; everything else still runs and is recorded, ungated.

use act_bench::cli::CliError::{self, Failed};
use act_bench::cli::Flags;
use act_bench::perf;
use std::process::ExitCode;

/// The value flags `perf` takes; `--quick` is its one switch.
const VALUES: [&str; 8] =
    ["out", "baseline", "validate", "only", "jobs", "gate", "gate-pct", "gate-bench"];

const USAGE: &str = "usage: perf [--quick] [--out FILE] [--baseline FILE] [--validate FILE] \
     [--only NAMES] [--jobs N] [--gate FILE] [--gate-pct PCT] [--gate-bench NAMES]";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Err(e) = Flags::parse(&argv, &VALUES, &["quick"]).and_then(|flags| run(&flags)) else {
        return ExitCode::SUCCESS;
    };
    let code = e.report("perf");
    if let CliError::Usage(_) = e {
        eprintln!("{USAGE}");
    }
    code
}

fn load_entries(path: &str) -> Result<Vec<perf::BenchEntry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    perf::parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// One `perf` run. A bad command line is a [`CliError::Usage`] (exit 2);
/// an unreadable or malformed input file, an unwritable `--out` and a
/// gate regression are [`CliError::Failed`] (exit 1).
fn run(flags: &Flags) -> Result<(), CliError> {
    let jobs = flags.count("jobs")?.unwrap_or_else(act_fleet::default_workers);
    let gate_pct = flags
        .parsed("gate-pct", |raw| match raw.parse::<f64>() {
            Ok(pct) if pct.is_finite() && pct >= 0.0 => Ok(pct),
            Ok(_) => Err("must be a non-negative percentage".to_string()),
            Err(e) => Err(e.to_string()),
        })?
        .unwrap_or(10.0);
    let quick = flags.switch("quick");
    let out = flags.value("out").unwrap_or("BENCH_hotpath.json");

    // Validation mode: schema-check an existing file and exit.
    if let Some(path) = flags.value("validate") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Failed(format!("cannot read {path}: {e}")))?;
        let n = perf::validate(&text).map_err(|e| Failed(format!("{path}: malformed: {e}")))?;
        println!("{path}: ok ({n} entries)");
        return Ok(());
    }

    let baseline = match flags.value("baseline") {
        Some(path) => Some(load_entries(path).map_err(|e| Failed(format!("bad baseline: {e}")))?),
        None => None,
    };

    eprintln!("perf: running {} suite (jobs {})...", if quick { "quick" } else { "full" }, jobs);
    let mut entries = perf::run_all(quick, jobs, flags.value("only"));
    if let Some(baseline) = &baseline {
        perf::merge_baseline(&mut entries, baseline);
    }

    for e in &entries {
        let vs = e.speedup().map_or(String::new(), |s| {
            format!("  ({:.3} before, {s:.2}x)", e.before.expect("speedup implies before"))
        });
        println!("{:<30} jobs {:<2} {:>14.3} {}{vs}", e.bench, e.jobs, e.value, e.unit);
    }

    let json = perf::render_json(&entries);
    std::fs::write(out, &json).map_err(|e| Failed(format!("cannot write {out}: {e}")))?;
    println!("wrote {out}");

    // Gate mode: compare against the committed reference file and fail the
    // run on any regression past the threshold. Benches absent from the
    // gate file pass vacuously (a new bench cannot block its own PR).
    let Some(path) = flags.value("gate") else { return Ok(()) };
    let reference = load_entries(path).map_err(|e| Failed(format!("bad gate file: {e}")))?;
    let mut gated = entries.clone();
    perf::merge_baseline(&mut gated, &reference);
    if let Some(filter) = flags.value("gate-bench") {
        gated.retain(|e| filter.split(',').any(|p| e.bench == p));
    }
    let mut failed = false;
    for e in &gated {
        let Some(regression) = e.regression_pct() else {
            println!("gate: {:<30} no reference, skipped", e.bench);
            continue;
        };
        let ok = regression <= gate_pct;
        println!(
            "gate: {:<30} {:+.1}% vs {path} (limit +{:.1}%): {}",
            e.bench,
            regression,
            gate_pct,
            if ok { "ok" } else { "REGRESSION" }
        );
        failed |= !ok;
    }
    if failed {
        return Err(Failed("gate failed (see REGRESSION lines above)".into()));
    }
    Ok(())
}
