//! `act` — command-line interface to the ACT toolchain.
//!
//! ```text
//! act list                                  list all workloads
//! act disasm <workload>                     disassemble a workload's program
//! act run <workload> [--seed N] [--trigger] [--new-code]
//! act trace <workload> --out DIR [--runs N] collect correct-run traces
//! act train <workload> --out FILE [--runs N] offline-train, save weights
//! act diagnose <workload> [--weights FILE]  full single-failure diagnosis
//! act campaign <spec> [--jobs N] [--out FILE] [--no-timing]
//! act serve [--addr A] [--workers N] [--queue-depth D] [--model-dir DIR]
//!           [--corpus DIR] [--batch-size N]
//! act request <train|diagnose|status|shutdown|trace-put|trace-get> ...
//! act store <init|put|get|ls|stat|compact> DIR [args]
//! ```

use act_bench::{
    act_cfg_for, collect_clean_traces, failing_trace, find_act_failure, machine_cfg, norm_of,
    train_workload,
};
use act_core::diagnosis::diagnose;
use act_core::weights::{shared, WeightStore};
use act_sim::machine::Machine;
use act_trace::collector::TraceCollector;
use act_trace::correct_set::CorrectSet;
use act_trace::event::Trace;
use act_workloads::registry;
use act_workloads::run::correct_runs;
use act_workloads::spec::{Params, Workload};
use std::io::BufReader;
use std::process::ExitCode;

mod netopts;
use netopts::{parse_count, NetOpts};

fn usage() -> ExitCode {
    eprintln!(
        "usage: act <command> [args]\n\
         \n\
         commands:\n\
         \x20 list                                   list workloads\n\
         \x20 disasm <workload>                      disassemble the program\n\
         \x20 run <workload> [--seed N] [--trigger] [--new-code]\n\
         \x20 trace <workload> --out DIR [--runs N]  collect correct-run traces\n\
         \x20 train <workload> --out FILE [--runs N] offline-train, save weights\n\
         \x20 diagnose <workload> [--weights FILE]   diagnose a single failure\n\
         \x20 campaign <spec> [--jobs N] [--out FILE] [--no-timing]\n\
         \x20                                        run a campaign spec in parallel\n\
         \x20 serve [--addr A] [--unix PATH] [--workers N] [--queue-depth D]\n\
         \x20       [--model-dir DIR] [--corpus DIR] [--cache N] [--deadline-ms MS]\n\
         \x20       [--io-timeout MS] [--event-log FILE]\n\
         \x20       [--batch-size N]                 run the diagnosis daemon\n\
         \x20                                        (--batch-size 1 disables request\n\
         \x20                                        coalescing)\n\
         \x20 gate --backends A,B,... [--listen ADDR] [--workers N] [--queue-depth D]\n\
         \x20      [--vnodes N] [--connect-timeout MS] [--io-timeout MS]\n\
         \x20      [--event-log FILE]                 run the sharding gateway\n\
         \x20 request <train|diagnose|status|shutdown|trace-put|trace-get> [workload]\n\
         \x20       [--addr A] [--unix PATH] [--seed N] [--traces N]\n\
         \x20       [--seq-len N] [--hidden N] [--epochs N] [--trace FILE] [--key K]\n\
         \x20       [--connect-timeout MS] [--io-timeout MS] [--retry MS]\n\
         \x20       [--pipeline-depth N] [--stream]  talk to a running daemon\n\
         \x20 store init DIR                         create an empty corpus store\n\
         \x20 store put DIR <workload> [--runs N] [--trace FILE --key K]\n\
         \x20                                        ingest correct-run traces\n\
         \x20 store get DIR <key> [--out FILE]       read a trace back as text\n\
         \x20 store ls DIR [workload]                list entries\n\
         \x20 store stat DIR                         corpus accounting\n\
         \x20 store compact DIR                      drop shadowed entries"
    );
    ExitCode::from(2)
}

pub(crate) struct Args {
    pub(crate) positional: Vec<String>,
    pub(crate) flags: std::collections::HashMap<String, String>,
    pub(crate) switches: std::collections::HashSet<String>,
}

pub(crate) fn parse_args(raw: &[String]) -> Args {
    let mut a =
        Args { positional: Vec::new(), flags: Default::default(), switches: Default::default() };
    let mut i = 0;
    while i < raw.len() {
        let t = &raw[i];
        if let Some(name) = t.strip_prefix("--") {
            // Value-taking flags.
            let takes_value = [
                "seed",
                "runs",
                "out",
                "weights",
                "jobs",
                "addr",
                "unix",
                "workers",
                "queue-depth",
                "model-dir",
                "cache",
                "deadline-ms",
                "event-log",
                "traces",
                "seq-len",
                "hidden",
                "epochs",
                "trace",
                "corpus",
                "key",
                "backends",
                "listen",
                "vnodes",
                "connect-timeout",
                "io-timeout",
                "retry",
                "pipeline-depth",
                "batch-size",
            ];
            if takes_value.contains(&name) && i + 1 < raw.len() {
                a.flags.insert(name.to_string(), raw[i + 1].clone());
                i += 2;
                continue;
            }
            a.switches.insert(name.to_string());
        } else {
            a.positional.push(t.clone());
        }
        i += 1;
    }
    a
}

/// Resolve a worker-count flag (`--jobs`, `--workers`): absent means "all
/// cores", `0` and non-numbers are rejected with a clear message instead of
/// being silently replaced.
fn resolve_workers(args: &Args, flag: &str) -> Result<usize, ExitCode> {
    match args.flags.get(flag) {
        None => Ok(act_fleet::default_workers()),
        Some(raw) => match raw.parse::<usize>() {
            Ok(0) => {
                eprintln!(
                    "--{flag} must be at least 1 (got 0); omit the flag to use all {} cores",
                    act_fleet::default_workers()
                );
                Err(ExitCode::from(2))
            }
            Ok(n) => Ok(n),
            Err(_) => {
                eprintln!("--{flag} expects a positive integer, got `{raw}`");
                Err(ExitCode::from(2))
            }
        },
    }
}

fn lookup(name: &str) -> Result<Box<dyn Workload>, ExitCode> {
    registry::by_name(name).ok_or_else(|| {
        eprintln!("unknown workload `{name}`; try `act list`");
        ExitCode::FAILURE
    })
}

/// `(seed, trace)` of the first `runs` correct clean runs of `w` among
/// seeds `0..2 * runs`, traced the way a production client ships them.
fn correct_run_traces(w: &dyn Workload, runs: u64) -> impl Iterator<Item = (u64, Trace)> + '_ {
    let norm = norm_of(w);
    correct_runs(w, w.default_params(), 0..runs * 2, move |_| TraceCollector::new(norm))
        .take(runs as usize)
        .map(|run| (run.seed, run.observer.into_trace()))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().map(String::as_str) else {
        return usage();
    };
    let args = parse_args(&raw[1..]);
    match cmd {
        "list" => cmd_list(),
        "disasm" => cmd_disasm(&args),
        "run" => cmd_run(&args),
        "trace" => cmd_trace(&args),
        "train" => cmd_train(&args),
        "diagnose" => cmd_diagnose(&args),
        "campaign" => cmd_campaign(&args),
        "serve" => cmd_serve(&args),
        "gate" => cmd_gate(&args),
        "request" => cmd_request(&args),
        "store" => cmd_store(&args),
        _ => usage(),
    }
}

fn cmd_list() -> ExitCode {
    println!("{:<36} {:<14} description", "name", "kind");
    println!("{}", "-".repeat(90));
    for w in registry::all() {
        let built = w.build(&w.default_params().triggered());
        let desc = built
            .bug
            .as_ref()
            .map_or_else(|| "clean kernel".to_string(), |b| b.description.replace('\n', " "));
        let desc: String = desc.chars().take(60).collect();
        println!("{:<36} {:<14} {}", w.name(), format!("{:?}", w.kind()), desc);
    }
    ExitCode::SUCCESS
}

fn cmd_disasm(args: &Args) -> ExitCode {
    let Some(name) = args.positional.first() else { return usage() };
    let w = match lookup(name) {
        Ok(w) => w,
        Err(e) => return e,
    };
    let built = w.build(&w.default_params());
    print!("{}", built.program.disassemble());
    ExitCode::SUCCESS
}

fn params_from(args: &Args, w: &dyn Workload) -> Params {
    let mut p = w.default_params();
    if let Some(seed) = args.flags.get("seed").and_then(|s| s.parse().ok()) {
        p.seed = seed;
    }
    p.trigger_bug = args.switches.contains("trigger");
    p.new_code = args.switches.contains("new-code");
    p
}

fn cmd_run(args: &Args) -> ExitCode {
    let Some(name) = args.positional.first() else { return usage() };
    let w = match lookup(name) {
        Ok(w) => w,
        Err(e) => return e,
    };
    let p = params_from(args, w.as_ref());
    let built = w.build(&p);
    let mut m = Machine::new(&built.program, machine_cfg(p.seed));
    let out = m.run();
    println!("outcome: {out}");
    println!("expected output: {:?}", built.expected_output);
    println!("actual output:   {:?}", out.output());
    println!("verdict: {}", if built.is_correct(&out) { "CORRECT" } else { "FAILURE" });
    let s = m.stats();
    println!(
        "cycles {} | instructions {} | loads {} | deps formed {} | l1 hits {} | c2c {}",
        s.total_cycles,
        s.total_retired(),
        s.total_loads(),
        s.mem.deps_formed,
        s.mem.l1_hits,
        s.mem.cache_to_cache
    );
    ExitCode::SUCCESS
}

fn cmd_trace(args: &Args) -> ExitCode {
    let Some(name) = args.positional.first() else { return usage() };
    let Some(dir) = args.flags.get("out") else {
        eprintln!("trace requires --out DIR");
        return ExitCode::from(2);
    };
    let runs: u64 = args.flags.get("runs").and_then(|s| s.parse().ok()).unwrap_or(10);
    let w = match lookup(name) {
        Ok(w) => w,
        Err(e) => return e,
    };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {dir}: {e}");
        return ExitCode::FAILURE;
    }
    let mut written = 0;
    for (seed, trace) in correct_run_traces(w.as_ref(), runs) {
        let path = format!("{dir}/{name}-{seed}.trace");
        let file = match std::fs::File::create(&path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot create {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = act_trace::io::write_trace(&trace, file) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
        written += 1;
    }
    println!("{written} correct-run traces in {dir}");
    ExitCode::SUCCESS
}

fn cmd_train(args: &Args) -> ExitCode {
    let Some(name) = args.positional.first() else { return usage() };
    let Some(out) = args.flags.get("out") else {
        eprintln!("train requires --out FILE");
        return ExitCode::from(2);
    };
    let runs: usize = args.flags.get("runs").and_then(|s| s.parse().ok()).unwrap_or(10);
    let w = match lookup(name) {
        Ok(w) => w,
        Err(e) => return e,
    };
    let cfg = act_cfg_for(w.as_ref());
    let trained = train_workload(w.as_ref(), runs, &cfg);
    let r = &trained.report;
    println!(
        "trained {}: topology {} (N = {}), held-out FP {:.2}%, FN(paper) {:.2}%",
        name,
        r.topology,
        r.seq_len,
        100.0 * r.test_fp_rate,
        100.0 * r.test_fn_rate_paper
    );
    // Atomic save (temp file + rename): an interrupted `act train` never
    // leaves a torn weight file behind.
    if let Err(e) = trained.store.save_to_path(out) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("weights saved to {out}");
    ExitCode::SUCCESS
}

fn cmd_diagnose(args: &Args) -> ExitCode {
    let Some(name) = args.positional.first() else { return usage() };
    let w = match lookup(name) {
        Ok(w) => w,
        Err(e) => return e,
    };
    let cfg = act_cfg_for(w.as_ref());
    let store = match args.flags.get("weights") {
        Some(path) => {
            let f = match std::fs::File::open(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot open {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match WeightStore::load(BufReader::new(f)) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot parse {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => {
            println!("(no --weights given: training from 10 correct runs first)");
            train_workload(w.as_ref(), 10, &cfg).store
        }
    };
    let seq_len = store.seq_len();
    let store = shared(store);
    let Some(failure) = find_act_failure(w.as_ref(), &store, &cfg, 30) else {
        eprintln!("no failure manifested in 30 triggered runs");
        return ExitCode::FAILURE;
    };
    println!("failure: {}", failure.run.outcome);
    let set = CorrectSet::from_traces(&collect_clean_traces(w.as_ref(), 100..120), seq_len);
    let diag = diagnose(&failure.run, &set);
    let program = &failure.built.program;
    println!(
        "debug buffer: {} entries, {} distinct, {} pruned ({:.0}%)",
        diag.total_logged,
        diag.distinct,
        diag.pruned,
        diag.filter_pct()
    );
    for (i, c) in diag.ranked.iter().take(8).enumerate() {
        let text: Vec<String> = c
            .deps
            .iter()
            .map(|d| {
                format!(
                    "{}->{}{}",
                    program.describe_pc(d.store_pc),
                    program.describe_pc(d.load_pc),
                    if d.inter_thread { "*" } else { "" }
                )
            })
            .collect();
        println!("  rank {:>2}: [{}]  nn={:.3}", i + 1, text.join(", "), c.output);
    }
    if let Some(bug) = &failure.built.bug {
        match diag.rank_where(|s| bug.matches_any(&s.deps)) {
            Some(rank) => println!("ground truth: root cause at rank {rank}"),
            None => println!("ground truth: root cause not ranked"),
        }
    }
    ExitCode::SUCCESS
}

/// `act campaign <spec>`: run a declarative workload × config × seed grid
/// across worker threads (default: all cores) and print the results.
///
/// The deterministic `results` section of the report is byte-identical at
/// any `--jobs` count; `--out FILE` writes the JSON report (`--no-timing`
/// strips the wall-clock section so the file itself is reproducible).
fn cmd_campaign(args: &Args) -> ExitCode {
    let Some(path) = args.positional.first() else {
        eprintln!(
            "campaign requires a spec file, e.g.\n\
             \x20 act campaign table5.spec --jobs 8 --out report.json\n\
             \n\
             spec format (key = value lines, `#` comments):\n\
             \x20 name      = my-campaign\n\
             \x20 kind      = run | train | diagnose | overhead | ablation\n\
             \x20 workloads = fft, lu, apache\n\
             \x20 configs   = default          # optional\n\
             \x20 seeds     = 0..8             # or: 0, 1, 7\n\
             other keys become executor parameters (e.g. traces = 10)"
        );
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match act_fleet::CampaignSpec::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(2);
        }
    };
    let exec = match act_bench::campaign::executor_for(&spec) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(2);
        }
    };
    let jobs = match resolve_workers(args, "jobs") {
        Ok(n) => n,
        Err(e) => return e,
    };
    let report = act_fleet::run_campaign(&spec, jobs, exec);
    for line in report.lines() {
        println!("{line}");
    }
    for r in report.results.iter().filter(|r| !r.outcome.is_completed()) {
        if let act_fleet::JobOutcome::Crashed { message } = &r.outcome {
            eprintln!(
                "CRASHED job {} ({}/{}/seed {}): {message}",
                r.job.id, r.job.workload, r.job.config, r.job.seed
            );
        }
    }
    println!("{}", act_bench::campaign::timing_footer(&report));
    if let Some(out) = args.flags.get("out") {
        let json = if args.switches.contains("no-timing") {
            report.deterministic_json()
        } else {
            report.json()
        };
        if let Err(e) = std::fs::write(out, json) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("report written to {out}");
    }
    if report.aggregate.crashed > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------
// act serve / act request — the diagnosis-as-a-service daemon.
// ---------------------------------------------------------------------

/// Set by the SIGINT/SIGTERM handler; the serve loop polls it.
static STOP: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_stop_signal(_sig: i32) {
    STOP.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Install `on_stop_signal` for SIGINT and SIGTERM. Raw `signal(2)` via the
/// platform libc the binary is already linked against — the workspace is
/// offline, so no `libc`/`signal-hook` crates.
fn install_stop_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_stop_signal as *const () as usize);
        signal(SIGTERM, on_stop_signal as *const () as usize);
    }
}

/// `act serve`: run the diagnosis daemon until SIGINT/SIGTERM or a client's
/// SHUTDOWN frame, then drain accepted requests and print final counters.
fn cmd_serve(args: &Args) -> ExitCode {
    let workers = match resolve_workers(args, "workers") {
        Ok(n) => n,
        Err(e) => return e,
    };
    let queue_depth = match parse_count(args, "queue-depth", 64) {
        Ok(n) => n,
        Err(e) => return e,
    };
    let cache_capacity = match parse_count(args, "cache", 32) {
        Ok(n) => n,
        Err(e) => return e,
    };
    let deadline_ms = match parse_count(args, "deadline-ms", 120_000) {
        Ok(n) => n,
        Err(e) => return e,
    };
    let batch_size = match parse_count(args, "batch-size", 16) {
        Ok(n) => n,
        Err(e) => return e,
    };
    // Only --io-timeout applies to a listening daemon, but the flag set
    // (and its validation) is shared with `act gate` / `act request`.
    let net = match NetOpts::from_args(args, 2_000, 30_000) {
        Ok(n) => n,
        Err(e) => return e,
    };
    if let Some(path) = args.flags.get("event-log") {
        match act_obs::JsonlSink::create(std::path::Path::new(path)) {
            Ok(sink) => {
                act_obs::events().add_sink(Box::new(sink));
                println!("event log: {path}");
            }
            Err(e) => {
                eprintln!("cannot open event log {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let unix_path = args.flags.get("unix").map(std::path::PathBuf::from);
    let cfg = act_serve::ServeConfig {
        tcp_addr: if unix_path.is_some() && !args.flags.contains_key("addr") {
            None // --unix alone means Unix-socket only
        } else {
            Some(args.flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:7411".to_string()))
        },
        unix_path,
        workers,
        queue_depth,
        model_dir: args.flags.get("model-dir").map(std::path::PathBuf::from),
        corpus_dir: args.flags.get("corpus").map(std::path::PathBuf::from),
        cache_capacity,
        deadline: std::time::Duration::from_millis(deadline_ms as u64),
        io_timeout: net.io_timeout,
        batch_size,
    };
    let server = match act_serve::Server::start(cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(addr) = server.tcp_addr() {
        println!("act-serve listening on tcp://{addr}");
    }
    if let Some(path) = &cfg.unix_path {
        println!("act-serve listening on unix://{}", path.display());
    }
    if let Some(dir) = args.flags.get("corpus") {
        println!("corpus store: {dir}");
    }
    println!(
        "workers {workers} | queue depth {queue_depth} | cache {cache_capacity} models | \
         batch {batch_size}"
    );
    install_stop_handler();
    while !STOP.load(std::sync::atomic::Ordering::SeqCst) && !server.is_shutting_down() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    println!("draining...");
    server.shutdown();
    let final_status = server.status_text();
    server.join();
    print!("{final_status}");
    ExitCode::SUCCESS
}

fn cmd_gate(args: &Args) -> ExitCode {
    let Some(raw_backends) = args.flags.get("backends") else {
        eprintln!("act gate needs --backends ADDR[,ADDR...] (act-serve TCP addresses)");
        return ExitCode::from(2);
    };
    let backends: Vec<String> = raw_backends
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    if backends.is_empty() {
        eprintln!("--backends lists no addresses: `{raw_backends}`");
        return ExitCode::from(2);
    }
    let workers = match resolve_workers(args, "workers") {
        Ok(n) => n,
        Err(e) => return e,
    };
    let queue_depth = match parse_count(args, "queue-depth", 64) {
        Ok(n) => n,
        Err(e) => return e,
    };
    let vnodes = match parse_count(args, "vnodes", 64) {
        Ok(n) => n,
        Err(e) => return e,
    };
    // --connect-timeout / --io-timeout govern the backend links (a cold
    // TRAIN on a backend legitimately takes minutes).
    let net = match NetOpts::from_args(args, 2_000, 300_000) {
        Ok(n) => n,
        Err(e) => return e,
    };
    if let Some(path) = args.flags.get("event-log") {
        match act_obs::JsonlSink::create(std::path::Path::new(path)) {
            Ok(sink) => {
                act_obs::events().add_sink(Box::new(sink));
                println!("event log: {path}");
            }
            Err(e) => {
                eprintln!("cannot open event log {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let cfg = act_gate::GateConfig {
        listen: args.flags.get("listen").cloned().unwrap_or_else(|| "127.0.0.1:7412".to_string()),
        backends,
        vnodes,
        workers,
        queue_depth,
        connect_timeout: net.connect_timeout,
        backend_timeout: net.io_timeout,
        ..act_gate::GateConfig::default()
    };
    let gate = match act_gate::Gateway::start(cfg.clone()) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("cannot start gateway: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("act-gate listening on tcp://{}", gate.tcp_addr());
    println!(
        "backends {} | vnodes {vnodes} | workers {workers} | queue depth {queue_depth}",
        cfg.backends.len()
    );
    install_stop_handler();
    while !STOP.load(std::sync::atomic::Ordering::SeqCst) && !gate.is_shutting_down() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    println!("draining...");
    gate.shutdown();
    let final_status = gate.status_text();
    gate.join();
    print!("{final_status}");
    ExitCode::SUCCESS
}

/// An [`act_client::Client`] for the daemon named by `--addr`/`--unix`
/// (default local TCP port), configured from the shared network flags.
fn client_from(args: &Args) -> Result<act_client::Client, ExitCode> {
    let net = NetOpts::from_args(args, 10_000, 300_000)?;
    let depth = parse_count(args, "pipeline-depth", 1)?;
    let mut builder = act_client::Client::builder();
    builder = if let Some(path) = args.flags.get("unix") {
        builder.unix(path)
    } else {
        builder
            .addr(args.flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:7411".to_string()))
    };
    builder = builder.timeouts(net.connect_timeout, net.io_timeout).pipeline_depth(depth as u32);
    if let Some(backoff) = net.retry {
        let seed = args.flags.get("seed").and_then(|s| s.parse().ok()).unwrap_or(0);
        builder = builder.retry(backoff, seed);
    }
    builder.build().map_err(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}

/// The model spec named by `act request` flags.
fn spec_from(args: &Args, workload: &str) -> act_serve::ModelSpec {
    let mut spec = act_serve::ModelSpec::new(workload);
    let num = |flag: &str| args.flags.get(flag).and_then(|s| s.parse::<u64>().ok());
    if let Some(v) = num("seed") {
        spec.seed = v;
    }
    if let Some(v) = num("traces") {
        spec.traces = v as u32;
    }
    if let Some(v) = num("seq-len") {
        spec.seq_len = v as u16;
    }
    if let Some(v) = num("hidden") {
        spec.hidden = v as u16;
    }
    if let Some(v) = num("epochs") {
        spec.max_epochs = v as u32;
    }
    spec
}

/// A serialized failing trace of `name`: from `--trace FILE` when given,
/// otherwise by running the triggered configuration locally until the bug
/// manifests (what a production client's tracing layer would ship).
fn failing_trace_bytes(args: &Args, name: &str) -> Result<Vec<u8>, ExitCode> {
    if let Some(path) = args.flags.get("trace") {
        return std::fs::read(path).map_err(|e| {
            eprintln!("cannot read {path}: {e}");
            ExitCode::FAILURE
        });
    }
    let w = lookup(name)?;
    let base = args.flags.get("seed").and_then(|s| s.parse().ok()).unwrap_or(0);
    let Some((seed, trace)) = failing_trace(w.as_ref(), base) else {
        eprintln!("{name}: no failure manifested in 64 triggered runs");
        return Err(ExitCode::FAILURE);
    };
    println!("(failure manifested at seed {seed}; shipping its trace)");
    Ok(act_trace::io::trace_to_bytes(&trace))
}

/// `act request <train|diagnose|status|shutdown|trace-put|trace-get>`:
/// one typed call through [`act_client::Client`]. `--pipeline-depth N`
/// (N > 1) rides a multiplexed v4 session; `--stream` sends uploads in
/// chunks instead of one frame, so they are not bounded by the 64 MiB
/// payload cap.
fn cmd_request(args: &Args) -> ExitCode {
    let Some(verb) = args.positional.first().map(String::as_str) else { return usage() };
    let client = match client_from(args) {
        Ok(c) => c,
        Err(e) => return e,
    };
    let fail = |e: act_client::ActError| {
        eprintln!("{e}");
        ExitCode::FAILURE
    };
    match verb {
        "status" => match client.status() {
            Ok(status) => {
                print!("{}", status.text);
                if let Some(snap) = status.metrics {
                    // Hit rate counts every no-retraining outcome: memory,
                    // the model dir, and the corpus store.
                    let hits = snap.counter("cache_memory_hits").unwrap_or(0)
                        + snap.counter("cache_disk_loads").unwrap_or(0)
                        + snap.counter("cache_store_loads").unwrap_or(0);
                    let total = hits + snap.counter("cache_trained").unwrap_or(0);
                    if total > 0 {
                        println!("cache_hit_rate {:.1}%", 100.0 * hits as f64 / total as f64);
                    }
                    println!("\n-- metrics --");
                    print!("{}", snap.render_table());
                }
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        "shutdown" => match client.shutdown() {
            Ok(()) => {
                println!("server shutting down");
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        "trace-put" => {
            let Some(name) = args.positional.get(1) else {
                eprintln!("request trace-put requires a workload name");
                return ExitCode::from(2);
            };
            let Some(path) = args.flags.get("trace") else {
                eprintln!("request trace-put requires --trace FILE (a correct-run text trace)");
                return ExitCode::from(2);
            };
            let key = args.flags.get("key").cloned().unwrap_or_else(|| {
                std::path::Path::new(path)
                    .file_stem()
                    .map_or_else(|| path.clone(), |s| s.to_string_lossy().into_owned())
            });
            let stored = if args.switches.contains("stream") {
                // Chunked upload straight off the file handle: the trace
                // is never fully resident in this process.
                match std::fs::File::open(path) {
                    Ok(file) => client.trace_put_streaming(&key, name, BufReader::new(file)),
                    Err(e) => {
                        eprintln!("cannot read {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                match std::fs::read(path) {
                    Ok(bytes) => client.trace_put(&key, name, &bytes),
                    Err(e) => {
                        eprintln!("cannot read {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            };
            match stored {
                Ok(text) => {
                    println!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
        "trace-get" => {
            let Some(key) =
                args.flags.get("key").cloned().or_else(|| args.positional.get(1).cloned())
            else {
                eprintln!("request trace-get requires a key (--key K or positional)");
                return ExitCode::from(2);
            };
            match client.trace_get(&key) {
                Ok(bytes) => {
                    match args.flags.get("out") {
                        Some(path) => {
                            if let Err(e) = std::fs::write(path, &bytes) {
                                eprintln!("cannot write {path}: {e}");
                                return ExitCode::FAILURE;
                            }
                            println!("trace written to {path} ({} bytes)", bytes.len());
                        }
                        None => print!("{}", String::from_utf8_lossy(&bytes)),
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
        "train" | "diagnose" => {
            let Some(name) = args.positional.get(1) else {
                eprintln!("request {verb} requires a workload name");
                return ExitCode::from(2);
            };
            let spec = spec_from(args, name);
            let answer = if verb == "train" {
                client.train(&spec)
            } else {
                let bytes = match failing_trace_bytes(args, name) {
                    Ok(b) => b,
                    Err(e) => return e,
                };
                if args.switches.contains("stream") {
                    client.diagnose_streaming(&spec, std::io::Cursor::new(bytes))
                } else {
                    client.diagnose(&spec, &bytes)
                }
            };
            match answer {
                Ok(text) => {
                    println!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
        _ => usage(),
    }
}

/// `act store <init|put|get|ls|stat|compact> DIR [args]` — manage an
/// on-disk trace/model corpus (`act-store`) without a running daemon.
fn cmd_store(args: &Args) -> ExitCode {
    let Some(verb) = args.positional.first().map(String::as_str) else { return usage() };
    let Some(dir) = args.positional.get(1) else {
        eprintln!("store {verb} requires a corpus directory");
        return ExitCode::from(2);
    };
    match verb {
        "init" => match act_store::Corpus::init(dir) {
            Ok(_) => {
                println!("initialised empty corpus at {dir}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cannot initialise {dir}: {e}");
                ExitCode::FAILURE
            }
        },
        "put" => cmd_store_put(args, dir),
        "get" => {
            let Some(key) = args.positional.get(2) else {
                eprintln!("store get requires a key");
                return ExitCode::from(2);
            };
            let corpus = match act_store::Corpus::open(dir) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cannot open {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let read = corpus.get_trace_text(key).and_then(|bytes| {
                Ok((corpus.entry_info(act_store::EntryKind::Trace, key)?.records, bytes))
            });
            let (records, bytes) = match read {
                Ok(read) => read,
                Err(e) => {
                    eprintln!("store get {key}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match args.flags.get("out") {
                Some(path) => {
                    if let Err(e) = std::fs::write(path, &bytes) {
                        eprintln!("cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    println!("wrote {path} ({records} records, {} bytes)", bytes.len());
                }
                None => print!("{}", String::from_utf8_lossy(&bytes)),
            }
            ExitCode::SUCCESS
        }
        "ls" => {
            let corpus = match act_store::Corpus::open(dir) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cannot open {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let filter = args.positional.get(2).map(String::as_str);
            let entries = corpus.entries(filter);
            println!(
                "{:<12} {:<24} {:<12} {:>8} {:>10} {:>10} {:>6}",
                "KIND", "KEY", "WORKLOAD", "RECORDS", "RAW", "ENCODED", "RATIO"
            );
            for e in &entries {
                let ratio = e.raw_bytes as f64 / e.encoded_bytes.max(1) as f64;
                println!(
                    "{:<12} {:<24} {:<12} {:>8} {:>10} {:>10} {:>5.2}x",
                    e.meta.kind.name(),
                    e.meta.key,
                    e.meta.workload,
                    e.records,
                    e.raw_bytes,
                    e.encoded_bytes,
                    ratio
                );
            }
            println!("{} live entries", entries.len());
            ExitCode::SUCCESS
        }
        "stat" => {
            let corpus = match act_store::Corpus::open(dir) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cannot open {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stat = match corpus.stat() {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot stat {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let report = corpus.open_report();
            println!("corpus {dir}");
            println!("  sealed segments  {}", stat.sealed_segments);
            println!("  live entries     {} (of {} total)", stat.live_entries, stat.total_entries);
            println!("  raw bytes        {}", stat.raw_bytes);
            println!("  encoded bytes    {}", stat.encoded_bytes);
            println!("  compression      {:.2}x", stat.ratio_milli as f64 / 1000.0);
            println!("  disk bytes       {}", stat.disk_bytes);
            if report.dropped_tail {
                println!("  recovered: dropped {} uncommitted tail bytes", report.dropped_bytes);
            }
            ExitCode::SUCCESS
        }
        "compact" => {
            let mut corpus = match act_store::Corpus::open(dir) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cannot open {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match corpus.compact() {
                Ok(s) => {
                    println!(
                        "compacted {dir}: kept {} entries, dropped {}, {} -> {} disk bytes",
                        s.entries_kept, s.entries_dropped, s.disk_bytes_before, s.disk_bytes_after
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("compact failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        other => {
            eprintln!("unknown store subcommand: {other}");
            usage()
        }
    }
}

/// `act store put DIR <workload> [--runs N]` collects correct-run traces
/// straight into the corpus; `--trace FILE --key K` ingests an existing
/// text trace instead.
fn cmd_store_put(args: &Args, dir: &str) -> ExitCode {
    let mut corpus = match act_store::Corpus::open_or_init(dir) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot open {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(name) = args.positional.get(2) else {
        eprintln!("store put requires a workload name");
        return ExitCode::from(2);
    };
    if let Some(path) = args.flags.get("trace") {
        let key = args.flags.get("key").cloned().unwrap_or_else(|| {
            std::path::Path::new(path)
                .file_stem()
                .map_or_else(|| path.clone(), |s| s.to_string_lossy().into_owned())
        });
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match corpus.put_trace_bytes(&key, name, &bytes) {
            Ok(info) => {
                println!(
                    "stored {key} ({} records, {} -> {} bytes)",
                    info.records, info.raw_bytes, info.encoded_bytes
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("store put {key}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let runs: u64 = args.flags.get("runs").and_then(|s| s.parse().ok()).unwrap_or(10);
    let w = match lookup(name) {
        Ok(w) => w,
        Err(e) => return e,
    };
    let mut stored = 0;
    for (seed, trace) in correct_run_traces(w.as_ref(), runs) {
        let key = format!("{name}-{seed}");
        match corpus.put_trace(&key, name, &trace) {
            Ok(info) => {
                println!(
                    "stored {key} ({} records, {} -> {} bytes)",
                    info.records, info.raw_bytes, info.encoded_bytes
                );
                stored += 1;
            }
            Err(e) => {
                eprintln!("store put {key}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{stored} correct-run traces stored in {dir}");
    ExitCode::SUCCESS
}
