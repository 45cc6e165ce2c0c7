//! `act` — command-line interface to the ACT toolchain.
//!
//! `act` with no arguments prints `USAGE`: every command with its flags.
//! Each command declares its flags in `COMMANDS`, and
//! [`act_bench::cli::Flags`] reads them: an unknown flag or a bad value
//! exits 2 with one `act: --flag: ...` line.

use act_bench::campaign::{run_cli_campaign, timing_footer, CAMPAIGN_FLAGS};
use act_bench::cli::CliError::{self, Failed, Usage};
use act_bench::cli::Flags;
use act_bench::{
    act_cfg_for, collect_clean_traces, failing_trace, find_act_failure, machine_cfg, norm_of,
    train_workload,
};
use act_core::diagnosis::diagnose;
use act_core::weights::{shared, WeightStore};
use act_gate::Gateway;
use act_serve::Server;
use act_sim::machine::Machine;
use act_store::{EntryInfo, StoreError};
use act_trace::collector::TraceCollector;
use act_trace::correct_set::CorrectSet;
use act_trace::event::Trace;
use act_workloads::registry;
use act_workloads::run::correct_runs;
use act_workloads::spec::Workload;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const USAGE: &str = "usage: act <command> [args]\n\
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
     \x20       [--corpus DIR] [--cache N] [--deadline-ms MS] [--io-timeout MS]\n\
     \x20       [--event-log FILE]\n\
     \x20       [--batch-size N]                 run the diagnosis daemon\n\
     \x20                                        (--batch-size 1 disables request\n\
     \x20                                        coalescing)\n\
     \x20 gate --backends A,B,... [--listen ADDR] [--workers N] [--queue-depth D]\n\
     \x20      [--vnodes N] [--connect-timeout MS] [--io-timeout MS]\n\
     \x20      [--event-log FILE]                 run the sharding gateway\n\
     \x20                                        (--queue-depth caps requests in\n\
     \x20                                        flight; --workers settle answers)\n\
     \x20 request <train|diagnose|status|shutdown|trace-put|trace-get> [workload]\n\
     \x20       [--addr A] [--unix PATH] [--seed N] [--traces N]\n\
     \x20       [--seq-len N] [--hidden N] [--epochs N] [--trace FILE] [--key K]\n\
     \x20       [--out FILE] [--connect-timeout MS] [--io-timeout MS] [--retry MS]\n\
     \x20       [--pipeline-depth N] [--stream]  talk to a running daemon\n\
     \x20 store init DIR                         create an empty corpus store\n\
     \x20 store put DIR <workload> [--runs N] [--trace FILE --key K]\n\
     \x20                                        ingest correct-run traces\n\
     \x20 store get DIR <key> [--out FILE]       read a trace back as text\n\
     \x20 store ls DIR [workload]                list entries\n\
     \x20 store stat DIR                         corpus accounting\n\
     \x20 store compact DIR                      drop shadowed entries";

/// A command: its name, its value flags, its switches, and what runs it.
type Command = (&'static str, &'static [&'static str], &'static [&'static str], CommandFn);
type CommandFn = fn(&Flags) -> Result<(), CliError>;

/// Every command `act` runs, with the flags [`USAGE`] lists for it.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    ("list", &[], &[], cmd_list),
    ("disasm", &[], &[], cmd_disasm),
    ("run", &["seed"], &["trigger", "new-code"], cmd_run),
    ("trace", &["out", "runs"], &[], cmd_trace),
    ("train", &["out", "runs"], &[], cmd_train),
    ("diagnose", &["weights"], &[], cmd_diagnose),
    ("campaign", CAMPAIGN_FLAGS.0, CAMPAIGN_FLAGS.1, cmd_campaign),
    ("serve", &["addr", "unix", "workers", "queue-depth", "corpus", "cache", "deadline-ms",
        "io-timeout", "event-log", "batch-size"], &[], cmd_serve),
    ("gate", &["backends", "listen", "workers", "queue-depth", "vnodes", "connect-timeout",
        "io-timeout", "event-log"], &[], cmd_gate),
    ("request", &["addr", "unix", "seed", "traces", "seq-len", "hidden", "epochs", "trace", "key",
        "out", "connect-timeout", "io-timeout", "retry", "pipeline-depth"], &["stream"], cmd_request),
    ("store", &["runs", "trace", "key", "out"], &[], cmd_store),
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = argv.first().and_then(|name| COMMANDS.iter().find(|(n, ..)| n == name));
    let Some((_, values, switches, run)) = command else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match Flags::parse(&argv[1..], values, switches).and_then(|flags| run(&flags)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => e.report("act"),
    }
}

fn lookup(name: &str) -> Result<Box<dyn Workload>, CliError> {
    registry::by_name(name)
        .ok_or_else(|| Failed(format!("unknown workload `{name}`; try `act list`")))
}

fn read_file(path: &str) -> Result<Vec<u8>, CliError> {
    std::fs::read(path).map_err(|e| Failed(format!("cannot read {path}: {e}")))
}

/// Write `bytes` to `--out FILE` and return its path, or print them as
/// text and return `None`.
fn write_out_or_print<'a>(flags: &'a Flags, bytes: &[u8]) -> Result<Option<&'a str>, CliError> {
    let Some(path) = flags.value("out") else {
        print!("{}", String::from_utf8_lossy(bytes));
        return Ok(None);
    };
    std::fs::write(path, bytes).map_err(|e| Failed(format!("cannot write {path}: {e}")))?;
    Ok(Some(path))
}

/// `--key K`, or else the stem of the trace file at `path`.
fn key_for(flags: &Flags, path: &str) -> String {
    flags.value("key").map_or_else(
        || {
            Path::new(path)
                .file_stem()
                .map_or_else(|| path.to_string(), |s| s.to_string_lossy().into_owned())
        },
        String::from,
    )
}

/// `(seed, trace)` of the first `runs` correct clean runs of `w` among
/// seeds `0..2 * runs`, traced the way a production client ships them.
fn correct_run_traces(w: &dyn Workload, runs: u64) -> impl Iterator<Item = (u64, Trace)> + '_ {
    let norm = norm_of(w);
    correct_runs(w, w.default_params(), 0..runs * 2, move |_| TraceCollector::new(norm))
        .take(runs as usize)
        .map(|run| (run.seed, run.observer.into_trace()))
}

fn cmd_list(_: &Flags) -> Result<(), CliError> {
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
    Ok(())
}

fn cmd_disasm(flags: &Flags) -> Result<(), CliError> {
    let w = lookup(flags.arg(0, "workload")?)?;
    print!("{}", w.build(&w.default_params()).program.disassemble());
    Ok(())
}

fn cmd_run(flags: &Flags) -> Result<(), CliError> {
    let w = lookup(flags.arg(0, "workload")?)?;
    let mut p = w.default_params();
    p.seed = flags.get("seed")?.unwrap_or(p.seed);
    p.trigger_bug = flags.switch("trigger");
    p.new_code = flags.switch("new-code");
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
    Ok(())
}

fn cmd_trace(flags: &Flags) -> Result<(), CliError> {
    let name = flags.arg(0, "workload")?;
    let dir = flags.required("out")?;
    let runs = flags.count("runs")?.unwrap_or(10);
    let w = lookup(name)?;
    std::fs::create_dir_all(dir).map_err(|e| Failed(format!("cannot create {dir}: {e}")))?;
    let mut written = 0;
    for (seed, trace) in correct_run_traces(w.as_ref(), runs) {
        let path = format!("{dir}/{name}-{seed}.trace");
        let file = std::fs::File::create(&path)
            .map_err(|e| Failed(format!("cannot create {path}: {e}")))?;
        act_trace::io::write_trace(&trace, file)
            .map_err(|e| Failed(format!("cannot write {path}: {e}")))?;
        println!("wrote {path}");
        written += 1;
    }
    println!("{written} correct-run traces in {dir}");
    Ok(())
}

fn cmd_train(flags: &Flags) -> Result<(), CliError> {
    let name = flags.arg(0, "workload")?;
    let out = flags.required("out")?;
    let runs = flags.count("runs")?.unwrap_or(10);
    let w = lookup(name)?;
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
    trained.store.save_to_path(out).map_err(|e| Failed(format!("cannot write {out}: {e}")))?;
    println!("weights saved to {out}");
    Ok(())
}

fn cmd_diagnose(flags: &Flags) -> Result<(), CliError> {
    let w = lookup(flags.arg(0, "workload")?)?;
    let cfg = act_cfg_for(w.as_ref());
    let store = match flags.value("weights") {
        Some(path) => {
            let f = std::fs::File::open(path)
                .map_err(|e| Failed(format!("cannot open {path}: {e}")))?;
            WeightStore::load(BufReader::new(f))
                .map_err(|e| Failed(format!("cannot parse {path}: {e}")))?
        }
        None => {
            println!("(no --weights given: training from 10 correct runs first)");
            train_workload(w.as_ref(), 10, &cfg).store
        }
    };
    let seq_len = store.seq_len();
    let store = shared(store);
    let failure = find_act_failure(w.as_ref(), &store, &cfg, 30)
        .ok_or_else(|| Failed("no failure manifested in 30 triggered runs".into()))?;
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
    Ok(())
}

/// `act campaign <spec>`: run a declarative workload × config × seed grid
/// across worker threads (default: all cores) and print the results.
///
/// The deterministic `results` section of the report is byte-identical at
/// any `--jobs` count; `--out FILE` writes the JSON report (`--no-timing`
/// strips the wall-clock section so the file itself is reproducible).
fn cmd_campaign(flags: &Flags) -> Result<(), CliError> {
    let Some(path) = flags.positional(0) else {
        return Err(Usage(
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
                .into(),
        ));
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| Failed(format!("cannot read {path}: {e}")))?;
    let spec = act_fleet::CampaignSpec::parse(&text).map_err(|e| Usage(format!("{path}: {e}")))?;
    let report = run_cli_campaign(&spec, flags)?;
    for line in report.lines() {
        println!("{line}");
    }
    for r in &report.results {
        if let act_fleet::JobOutcome::Crashed { message } = &r.outcome {
            eprintln!(
                "CRASHED job {} ({}/{}/seed {}): {message}",
                r.job.id, r.job.workload, r.job.config, r.job.seed
            );
        }
    }
    println!("{}", timing_footer(&report));
    if let Some(out) = flags.value("out") {
        println!("report written to {out}");
    }
    match report.aggregate.crashed {
        0 => Ok(()),
        n => Err(Failed(format!("{n} campaign job(s) crashed"))),
    }
}

// ---------------------------------------------------------------------
// act serve / act gate / act request — the diagnosis-as-a-service daemon,
// its sharding gateway, and a client for either.
// ---------------------------------------------------------------------

/// Set by the SIGINT/SIGTERM handler; the serve loop polls it.
static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_stop_signal(_sig: i32) {
    STOP.store(true, Ordering::SeqCst);
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

/// Add `--event-log FILE`, when given, as a JSONL sink of this process's
/// events.
fn open_event_log(flags: &Flags) -> Result<(), CliError> {
    if let Some(path) = flags.value("event-log") {
        let sink = act_obs::JsonlSink::create(Path::new(path))
            .map_err(|e| Failed(format!("cannot open event log {path}: {e}")))?;
        act_obs::events().add_sink(Box::new(sink));
        println!("event log: {path}");
    }
    Ok(())
}

/// Run a started daemon until SIGINT/SIGTERM or a client's `SHUTDOWN`,
/// then drain it and print its final `STATUS`. `act serve` and `act gate`
/// pass their daemon's own methods.
fn run_until_stopped<D>(
    daemon: D,
    stopping: fn(&D) -> bool,
    drain: fn(&D),
    status: fn(&D) -> String,
    join: fn(D),
) {
    install_stop_handler();
    while !STOP.load(Ordering::SeqCst) && !stopping(&daemon) {
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("draining...");
    drain(&daemon);
    let final_status = status(&daemon);
    join(daemon);
    print!("{final_status}");
}

/// `act serve`: run the diagnosis daemon until SIGINT/SIGTERM or a client's
/// SHUTDOWN frame, then drain accepted requests and print final counters.
fn cmd_serve(flags: &Flags) -> Result<(), CliError> {
    let workers = flags.count("workers")?.unwrap_or_else(act_fleet::default_workers);
    let queue_depth = flags.count("queue-depth")?.unwrap_or(64);
    let cache_capacity = flags.count("cache")?.unwrap_or(32);
    let batch_size = flags.count("batch-size")?.unwrap_or(16);
    let unix_path = flags.value("unix");
    let cfg = act_serve::ServeConfig {
        tcp_addr: match (flags.value("addr"), unix_path) {
            (None, Some(_)) => None, // --unix alone means Unix-socket only
            (addr, _) => Some(addr.unwrap_or("127.0.0.1:7411").to_string()),
        },
        unix_path: unix_path.map(PathBuf::from),
        workers,
        queue_depth,
        corpus_dir: flags.value("corpus").map(PathBuf::from),
        cache_capacity,
        deadline: flags.millis("deadline-ms")?.unwrap_or(Duration::from_secs(120)),
        io_timeout: flags.millis("io-timeout")?.unwrap_or(Duration::from_secs(30)),
        batch_size,
    };
    open_event_log(flags)?;
    let server = Server::start(cfg).map_err(|e| Failed(format!("cannot start daemon: {e}")))?;
    if let Some(addr) = server.tcp_addr() {
        println!("act-serve listening on tcp://{addr}");
    }
    if let Some(path) = unix_path {
        println!("act-serve listening on unix://{path}");
    }
    if let Some(dir) = flags.value("corpus") {
        println!("corpus store: {dir}");
    }
    println!(
        "workers {workers} | queue depth {queue_depth} | cache {cache_capacity} models | \
         batch {batch_size}"
    );
    run_until_stopped(
        server,
        Server::is_shutting_down,
        Server::shutdown,
        Server::status_text,
        Server::join,
    );
    Ok(())
}

/// `act gate`: run the sharding gateway in front of `--backends` until
/// SIGINT/SIGTERM or a client's SHUTDOWN frame, as `act serve` runs.
fn cmd_gate(flags: &Flags) -> Result<(), CliError> {
    let backends = flags.parsed("backends", |raw| {
        let list: Vec<String> =
            raw.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect();
        if list.is_empty() {
            Err("lists no addresses".to_string())
        } else {
            Ok(list)
        }
    })?;
    let backends = backends.ok_or_else(|| Usage("--backends: required".into()))?;
    let workers = flags.count("workers")?.unwrap_or_else(act_fleet::default_workers);
    let queue_depth = flags.count("queue-depth")?.unwrap_or(64);
    let vnodes = flags.count("vnodes")?.unwrap_or(64);
    let n = backends.len();
    let cfg = act_gate::GateConfig {
        listen: flags.value("listen").unwrap_or("127.0.0.1:7412").to_string(),
        backends,
        vnodes,
        workers,
        queue_depth,
        // --connect-timeout / --io-timeout govern the backend links (a
        // cold TRAIN on a backend legitimately takes minutes).
        connect_timeout: flags.millis("connect-timeout")?.unwrap_or(Duration::from_secs(2)),
        backend_timeout: flags.millis("io-timeout")?.unwrap_or(Duration::from_secs(300)),
        ..act_gate::GateConfig::default()
    };
    open_event_log(flags)?;
    let gate = Gateway::start(cfg).map_err(|e| Failed(format!("cannot start gateway: {e}")))?;
    println!("act-gate listening on tcp://{}", gate.tcp_addr());
    println!("backends {n} | vnodes {vnodes} | workers {workers} | queue depth {queue_depth}");
    run_until_stopped(
        gate,
        Gateway::is_shutting_down,
        Gateway::shutdown,
        Gateway::status_text,
        Gateway::join,
    );
    Ok(())
}

/// An [`act_client::Client`] for the daemon named by `--addr`/`--unix`
/// (default local TCP port), configured from the network flags.
fn client_from(flags: &Flags) -> Result<act_client::Client, CliError> {
    let builder = match flags.value("unix") {
        Some(path) => act_client::Client::builder().unix(path),
        None => act_client::Client::builder().addr(flags.value("addr").unwrap_or("127.0.0.1:7411")),
    };
    let mut builder = builder
        .timeouts(
            flags.millis("connect-timeout")?.unwrap_or(Duration::from_secs(10)),
            flags.millis("io-timeout")?.unwrap_or(Duration::from_secs(300)),
        )
        .pipeline_depth(flags.count("pipeline-depth")?.unwrap_or(1));
    if let Some(backoff) = flags.millis("retry")? {
        builder = builder.retry(backoff, flags.get("seed")?.unwrap_or(0));
    }
    builder.build().map_err(|e| Usage(e.to_string()))
}

/// The model spec named by `act request` flags.
fn spec_from(flags: &Flags, workload: &str) -> Result<act_client::ModelSpec, CliError> {
    let d = act_client::ModelSpec::new(workload);
    Ok(act_client::ModelSpec {
        seed: flags.get("seed")?.unwrap_or(d.seed),
        traces: flags.get("traces")?.unwrap_or(d.traces),
        seq_len: flags.get("seq-len")?.unwrap_or(d.seq_len),
        hidden: flags.get("hidden")?.unwrap_or(d.hidden),
        max_epochs: flags.get("epochs")?.unwrap_or(d.max_epochs),
        ..d
    })
}

/// A serialized failing trace of `name`: from `--trace FILE` when given,
/// otherwise by running the triggered configuration locally until the bug
/// manifests (what a production client's tracing layer would ship).
fn failing_trace_bytes(flags: &Flags, name: &str) -> Result<Vec<u8>, CliError> {
    if let Some(path) = flags.value("trace") {
        return read_file(path);
    }
    let w = lookup(name)?;
    let (seed, trace) = failing_trace(w.as_ref(), flags.get("seed")?.unwrap_or(0))
        .ok_or_else(|| Failed(format!("{name}: no failure manifested in 64 triggered runs")))?;
    println!("(failure manifested at seed {seed}; shipping its trace)");
    Ok(act_trace::io::trace_to_bytes(&trace))
}

/// `act request <train|diagnose|status|shutdown|trace-put|trace-get>`:
/// one typed call through [`act_client::Client`]. `--pipeline-depth N`
/// (N > 1) rides a multiplexed v4 session; `--stream` sends uploads in
/// chunks instead of one frame, so they are not bounded by the 64 MiB
/// payload cap.
fn cmd_request(flags: &Flags) -> Result<(), CliError> {
    let verb = flags.arg(0, "request verb")?;
    let client = client_from(flags)?;
    match verb {
        "status" => {
            let status = client.status()?;
            print!("{}", status.text);
            if let Some(snap) = status.metrics {
                let (hits, misses) = act_serve::cache_hits_misses(&snap);
                let total = hits + misses;
                if total > 0 {
                    println!("cache_hit_rate {:.1}%", 100.0 * hits as f64 / total as f64);
                }
                println!("\n-- metrics --");
                print!("{}", snap.render_table());
            }
        }
        "shutdown" => {
            client.shutdown()?;
            println!("server shutting down");
        }
        "trace-put" => {
            let name = flags.arg(1, "workload name")?;
            let path = flags.required("trace")?;
            let key = key_for(flags, path);
            let stored = if flags.switch("stream") {
                // Chunked upload straight off the file handle: the trace
                // is never fully resident in this process.
                let file = std::fs::File::open(path)
                    .map_err(|e| Failed(format!("cannot read {path}: {e}")))?;
                client.trace_put_streaming(&key, name, BufReader::new(file))?
            } else {
                client.trace_put(&key, name, &read_file(path)?)?
            };
            println!("{stored}");
        }
        "trace-get" => {
            let key = flags.value("key").or(flags.positional(1));
            let key =
                key.ok_or_else(|| Usage("missing trace key (--key K or positional)".into()))?;
            let bytes = client.trace_get(key)?;
            if let Some(path) = write_out_or_print(flags, &bytes)? {
                println!("trace written to {path} ({} bytes)", bytes.len());
            }
        }
        "train" | "diagnose" => {
            let name = flags.arg(1, "workload name")?;
            let spec = spec_from(flags, name)?;
            let text = if verb == "train" {
                client.train(&spec)?
            } else {
                let bytes = failing_trace_bytes(flags, name)?;
                if flags.switch("stream") {
                    client.diagnose_streaming(&spec, std::io::Cursor::new(bytes))?
                } else {
                    client.diagnose(&spec, &bytes)?
                }
            };
            println!("{text}");
        }
        other => return Err(Usage(format!("unknown request verb `{other}`"))),
    }
    Ok(())
}

fn open_corpus(dir: &str) -> Result<act_store::Corpus, CliError> {
    act_store::Corpus::open(dir).map_err(|e| Failed(format!("cannot open {dir}: {e}")))
}

/// `act store <init|put|get|ls|stat|compact> DIR [args]` — manage an
/// on-disk trace/model corpus (`act-store`) without a running daemon.
fn cmd_store(flags: &Flags) -> Result<(), CliError> {
    let verb = flags.arg(0, "store verb")?;
    let dir = flags.arg(1, "corpus directory")?;
    match verb {
        "init" => {
            act_store::Corpus::init(dir)
                .map_err(|e| Failed(format!("cannot initialise {dir}: {e}")))?;
            println!("initialised empty corpus at {dir}");
        }
        "put" => return cmd_store_put(flags, dir),
        "get" => {
            let key = flags.arg(2, "key")?;
            let corpus = open_corpus(dir)?;
            let (records, bytes) = corpus
                .get_trace_text(key)
                .and_then(|bytes| {
                    Ok((corpus.entry_info(act_store::EntryKind::Trace, key)?.records, bytes))
                })
                .map_err(|e| Failed(format!("store get {key}: {e}")))?;
            if let Some(path) = write_out_or_print(flags, &bytes)? {
                println!("wrote {path} ({records} records, {} bytes)", bytes.len());
            }
        }
        "ls" => {
            let entries = open_corpus(dir)?.entries(flags.positional(2));
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
        }
        "stat" => {
            let corpus = open_corpus(dir)?;
            let stat = corpus.stat().map_err(|e| Failed(format!("cannot stat {dir}: {e}")))?;
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
        }
        "compact" => {
            let s =
                open_corpus(dir)?.compact().map_err(|e| Failed(format!("compact failed: {e}")))?;
            println!(
                "compacted {dir}: kept {} entries, dropped {}, {} -> {} disk bytes",
                s.entries_kept, s.entries_dropped, s.disk_bytes_before, s.disk_bytes_after
            );
        }
        other => return Err(Usage(format!("unknown store subcommand `{other}`"))),
    }
    Ok(())
}

/// `act store put DIR <workload> [--runs N]` collects correct-run traces
/// straight into the corpus; `--trace FILE --key K` ingests an existing
/// text trace instead.
fn cmd_store_put(flags: &Flags, dir: &str) -> Result<(), CliError> {
    let name = flags.arg(2, "workload name")?;
    let runs = flags.count("runs")?.unwrap_or(10);
    let mut corpus = act_store::Corpus::open_or_init(dir)
        .map_err(|e| Failed(format!("cannot open {dir}: {e}")))?;
    if let Some(path) = flags.value("trace") {
        let key = key_for(flags, path);
        let bytes = read_file(path)?;
        return print_stored(&key, corpus.put_trace_bytes(&key, name, &bytes));
    }
    let w = lookup(name)?;
    let mut stored = 0;
    for (seed, trace) in correct_run_traces(w.as_ref(), runs) {
        let key = format!("{name}-{seed}");
        print_stored(&key, corpus.put_trace(&key, name, &trace))?;
        stored += 1;
    }
    println!("{stored} correct-run traces stored in {dir}");
    Ok(())
}

/// Print what `act store put` stored under `key`, or fail with why not.
fn print_stored(key: &str, put: Result<EntryInfo, StoreError>) -> Result<(), CliError> {
    let info = put.map_err(|e| Failed(format!("store put {key}: {e}")))?;
    println!(
        "stored {key} ({} records, {} -> {} bytes)",
        info.records, info.raw_bytes, info.encoded_bytes
    );
    Ok(())
}
