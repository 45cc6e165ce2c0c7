//! `perfbench`: the ACT diagnosis service measured end to end and layer by
//! layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload session-large --seed 1 --seconds 12 --trace 0
//! ```
//!
//! A run builds the release `act` binary, sets the service up several times
//! (boot the daemons, generate the seeded traces, train every model cold
//! over the wire, capture a reference reply per trace on the idle service),
//! drives one closed loop against the last set-up for `--seconds`, checks
//! every reply, and prints its metrics. `--trace 1` adds spans, STATUS
//! deltas, live probes and an in-process replay, and prints the per-layer
//! metrics instead. The last line of standard output is one JSON object.
//! See `perfbench/README.md`.

mod daemon;
mod drive;
mod inputs;
mod layers;
mod report;
mod stats;

use daemon::Fleet;
use drive::{Done, Op, Phase, Plan, Session};
use inputs::{model_spec, Drawer, Inputs, Transport, WorkloadDef};
use report::{Metric, Outcome};
use stats::{median, percentile};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Equal windows the measured phase is cut into, by send time. Throughput
/// and latency metrics are the median over the windows, so one stall on a
/// shared host moves one window, not the run's figure.
const WINDOWS: u32 = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 12.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("seconds in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if inputs::workload(&args.workload).is_none() {
        let names: Vec<&str> = inputs::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(args)
}

/// The repository this benchmark belongs to (its manifest's parent).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("perfbench sits in the repo").into()
}

/// Build the release `act` binary from the repository's sources and
/// return its path (under `CARGO_TARGET_DIR` when set).
fn build_act(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args(["build", "--release", "--quiet", "-p", "act-cli", "--bin", "act"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building act failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or(root.join("target"), |d| root.join(d));
    Ok(target.join("release").join("act"))
}

/// Removes a directory when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A booted, trained service and the replies it gave when idle.
struct Setup {
    inputs: Inputs,
    /// Reference DIAGNOSIS text per failing trace.
    refs: Vec<String>,
    fleet: Fleet,
}

/// Generate the inputs, boot the fleet, train every model cold over the
/// wire (all in flight on one session), then diagnose every failing trace
/// once, one request at a time, for its reference reply.
fn set_up(def: &WorkloadDef, seed: u64, act: &Path, dir: &Path) -> Result<Setup, String> {
    let inputs = Inputs::generate(def, seed)?;
    let fleet = Fleet::boot(act, def.gateway, dir)?;
    let mut models: Vec<&str> = inputs.failing.iter().map(|t| t.workload).collect();
    models.dedup();
    let trains: Vec<_> = models.iter().map(|w| act_serve::Request::Train(model_spec(w))).collect();
    let replies = Session::open(fleet.entry(), trains.len() as u32)?.call_all(&trains)?;
    for (w, reply) in models.iter().zip(replies) {
        match reply {
            act_serve::Reply::Trained(s) if s.ends_with("[trained]") => {}
            other => return Err(format!("TRAIN {w}: expected a cold training run, got {other:?}")),
        }
    }
    let client = daemon::client(fleet.entry())?;
    let refs = inputs
        .failing
        .iter()
        .map(|t| {
            client
                .diagnose(&model_spec(t.workload), &t.bytes)
                .map_err(|e| format!("reference DIAGNOSE {} seed {}: {e}", t.workload, t.seed))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Setup { inputs, refs, fleet })
}

/// Share of the failing traces (distinct by construction) whose reference
/// reply ranks a dependence of the injected bug `#1`; a reply with no
/// suspect is a miss.
fn rank1_share(inputs: &Inputs, refs: &[String]) -> f64 {
    let hits = inputs
        .failing
        .iter()
        .zip(refs)
        .filter(|(t, reply)| report::rank1_deps(reply).is_some_and(|d| t.bug.matches_any(&d)))
        .count();
    hits as f64 / inputs.failing.len().max(1) as f64
}

/// Sorted latencies in ms of the successful requests of kind `op`
/// (restricted to traced or untraced blocks when `traced` is given).
fn latencies_ms(done: &[Done], op: Op, traced: Option<bool>) -> Vec<f64> {
    let mut v: Vec<f64> = done
        .iter()
        .filter(|d| d.ok && d.sent.op == op && traced.is_none_or(|t| d.traced == t))
        .map(|d| d.latency.as_secs_f64() * 1e3)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

fn fmt_pct(sorted: &[f64], q: f64) -> String {
    percentile(sorted, q).map_or("n/a".to_string(), |v| format!("{v:.3} ms"))
}

/// Set up `SETUPS` times, stopping all but the last fleet. Returns the last
/// set-up, the median set-up time, and whether every set-up generated the
/// same inputs and got the same reference replies.
fn set_up_runs(
    def: &WorkloadDef,
    seed: u64,
    act: &Path,
    dir: &Path,
) -> Result<(Setup, f64, bool), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept: Option<Setup> = None;
    let mut agree = true;
    for k in 0..SETUPS {
        let t = Instant::now();
        let s = set_up(def, seed, act, &dir.join(format!("setup{k}")))?;
        times.push(t.elapsed().as_secs_f64());
        if let Some(prev) = kept.take() {
            agree &= prev.inputs.same_as(&s.inputs) && prev.refs == s.refs;
            prev.fleet.stop()?;
        }
        kept = Some(s);
    }
    let median_s = median(&times).expect("SETUPS > 0");
    let shown: Vec<String> = times.iter().map(|s| format!("{s:.3}")).collect();
    println!("set-up runs: {} s (median {median_s:.3} s)", shown.join(", "));
    if !agree {
        eprintln!("set-ups disagree: inputs or reference replies differ between set-ups");
    }
    Ok((kept.expect("SETUPS > 0"), median_s, agree))
}

/// One line per request kind: counts, latency percentiles and rates.
fn print_ops(phase: &Phase) {
    let secs = phase.elapsed.as_secs_f64();
    for op in Op::ALL {
        let tried = phase.done.iter().filter(|d| d.sent.op == op).count();
        if tried == 0 {
            continue;
        }
        let lat = latencies_ms(&phase.done, op, None);
        let bytes: usize =
            phase.done.iter().filter(|d| d.ok && d.sent.op == op).map(|d| d.sent.bytes).sum();
        println!(
            "{:<9} attempted {tried} succeeded {} failed {}  p50 {}  p90 {}  p99 {}  {:.1}/s  {:.3} MB/s",
            op.name(),
            lat.len(),
            tried - lat.len(),
            fmt_pct(&lat, 0.5),
            fmt_pct(&lat, 0.9),
            fmt_pct(&lat, 0.99),
            lat.len() as f64 / secs,
            bytes as f64 / 1e6 / secs,
        );
    }
}

/// `diagnose_rps`, `diagnose_p50_ms`, `diagnose_p90_ms` and `ingest_mb_s`:
/// each the median over `WINDOWS` equal windows of the phase, by send time.
fn windowed(phase: &Phase, seconds: f64) -> Result<[f64; 4], String> {
    let window = seconds / f64::from(WINDOWS);
    let windows: Vec<Vec<Done>> = (0..WINDOWS)
        .map(|w| {
            let lo = window * f64::from(w);
            let hi = lo + window;
            let inside = |d: &&Done| (lo..hi).contains(&d.start.as_secs_f64());
            phase.done.iter().filter(inside).cloned().collect()
        })
        .collect();
    let per_window = |name: &str, f: &dyn Fn(&[Done]) -> Option<f64>| {
        let values: Option<Vec<f64>> = windows.iter().map(|w| f(w)).collect();
        values
            .and_then(|v| median(&v))
            .ok_or_else(|| format!("{name}: a {window:.1} s window holds too few DIAGNOSE replies"))
    };
    let pct = |q: f64| move |w: &[Done]| percentile(&latencies_ms(w, Op::Diagnose, None), q);
    // Replies per second between a window's first and last send: a count
    // over the fixed window length would only move in steps of 1/window.
    let rate = |w: &[Done]| {
        let sends: Vec<f64> = w
            .iter()
            .filter(|d| d.ok && d.sent.op == Op::Diagnose)
            .map(|d| d.start.as_secs_f64())
            .collect();
        let first = sends.iter().cloned().fold(f64::INFINITY, f64::min);
        let last = sends.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        (last > first).then(|| (sends.len() - 1) as f64 / (last - first))
    };
    let ingest = |w: &[Done]| {
        let bytes: usize =
            w.iter().filter(|d| d.ok && d.sent.op != Op::Get).map(|d| d.sent.bytes).sum();
        Some(bytes as f64 / 1e6 / window)
    };
    let shown: Vec<String> = windows
        .iter()
        .map(|w| {
            let p50 = pct(0.5)(w).map_or("n/a".to_string(), |v| format!("{v:.1}"));
            format!("{:.0}/{p50}", rate(w).unwrap_or(f64::NAN))
        })
        .collect();
    println!("windows (DIAGNOSE per s / p50 ms): {}", shown.join(" "));
    Ok([
        per_window("diagnose_rps", &rate)?,
        per_window("diagnose_p50_ms", &pct(0.5))?,
        per_window("diagnose_p90_ms", &pct(0.9))?,
        per_window("ingest_mb_s", &ingest)?,
    ])
}

fn run(args: &Args) -> Result<Outcome, String> {
    let def = inputs::workload(&args.workload).expect("checked by parse_args");
    let root = repo_root();
    let act = build_act(&root)?;
    let out = root.join("perfbench").join("out");
    let scratch = Scratch(out.join(format!("run-{}-{}", def.name, std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        def.name, args.seed, args.seconds, args.trace as u8
    );

    let (Setup { inputs, refs, fleet }, setup_median, setups_agree) =
        set_up_runs(def, args.seed, &act, &scratch.0)?;
    let rank1 = rank1_share(&inputs, &refs);

    let before = args.trace.then(|| layers::snapshot(&fleet)).transpose()?;
    // Peak RSS while serving: training's peak (which depends on which
    // models happened to train side by side) is left out.
    fleet.reset_peak_rss()?;
    let plan = Plan {
        inputs: &inputs,
        refs: &refs,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
    };
    let drawer = Drawer::new(def, &inputs, args.seed);
    let phase = match def.transport {
        Transport::OneShot => drive::oneshot_phase(fleet.entry(), &plan, drawer)?,
        Transport::Session(depth) => drive::session_phase(fleet.entry(), depth, &plan, drawer)?,
    };
    let after = args.trace.then(|| layers::snapshot(&fleet)).transpose()?;
    let rss_mb = fleet.peak_rss_mb()?;
    let mut spans = layers::Spans::new(phase.started);
    let probes =
        args.trace.then(|| layers::live_probes(&fleet, &act, &inputs, &mut spans)).transpose()?;
    let status = match (&before, &after) {
        (Some(b), Some(a)) => Some(layers::StatusDelta::new(&fleet, b, a)),
        _ => None,
    };
    let stopped = fleet.stop();
    if let Err(e) = &stopped {
        eprintln!("{e}");
    }

    let attempted = phase.done.len() as u64;
    let failed = phase.done.iter().filter(|d| !d.ok).count() as u64;
    print_ops(&phase);
    let failed_share = failed as f64 / attempted.max(1) as f64;
    println!("failed_share {failed_share} ({failed} of {attempted})");
    println!("rank1_share {rank1} over {} distinct failing traces", inputs.failing.len());

    let [rps, p50, p90, ingest] = windowed(&phase, args.seconds)?;
    let end_to_end = vec![
        Metric::new("setup_s", setup_median, "s"),
        Metric::new("diagnose_rps", rps, "1/s"),
        Metric::new("diagnose_p50_ms", p50, "ms"),
        Metric::new("diagnose_p90_ms", p90, "ms"),
        Metric::new("ingest_mb_s", ingest, "MB/s"),
        Metric::new("rank1_share", rank1, "ratio"),
        Metric::new("daemon_rss_mb", rss_mb, "MB"),
    ];

    let metrics = match (probes, status) {
        (Some(probes), Some(status)) => {
            let parents = layers::request_spans(&mut spans, phase.started, &inputs, &phase.done);
            let batch = status.histogram("batch_size").map_or(1.0, |h| h.mean()).round() as usize;
            let replayed =
                layers::replay(def, &inputs, &refs, batch, &parents, &scratch.0, &mut spans)?;
            let p50 = |traced| median(&latencies_ms(&phase.done, Op::Diagnose, Some(traced)));
            let overhead_pct = match (p50(true), p50(false)) {
                (Some(on), Some(off)) => (on / off - 1.0) * 100.0,
                _ => return Err("too few DIAGNOSE replies to compare traced blocks".into()),
            };
            let traced = layers::Traced {
                def,
                done: &phase.done,
                status: &status,
                probes: &probes,
                replayed: &replayed,
                overhead_pct,
                failed_share,
            };
            let header = format!(
                "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"requests\": {attempted}, \
                 \"diagnose_p99_ms\": {}, \"trace_overhead_pct\": {overhead_pct}}}",
                def.name,
                args.seed,
                args.seconds,
                percentile(&latencies_ms(&phase.done, Op::Diagnose, None), 0.99)
                    .map_or("null".to_string(), |v| v.to_string()),
            );
            let path = out.join(format!("spans-{}-seed{}.jsonl", def.name, args.seed));
            spans.write(&path, &header)?;
            println!("spans: {} written to {}", spans.list.len(), path.display());
            for m in &end_to_end {
                println!("traced-run {:<36} {} {}", m.name, m.value, m.unit);
            }
            layers::layer_metrics(&traced)
        }
        _ => end_to_end,
    };
    for m in &metrics {
        println!("metric {:<40} {} {}", m.name, m.value, m.unit);
    }
    Ok(Outcome {
        correct: failed == 0 && setups_agree && stopped.is_ok(),
        attempted,
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
