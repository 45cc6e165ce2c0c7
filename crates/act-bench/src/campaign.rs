//! Standard campaign executors: the bridge between `act-fleet`'s generic
//! orchestration and this crate's experiment procedures.
//!
//! A campaign spec names an executor through its `kind`; [`executor_for`]
//! resolves it. Each executor maps one [`JobDesc`] — a (workload, config,
//! seed) grid cell — to a [`JobOutput`], building **everything** (workload,
//! machine, training, diagnosis) inside the call from the job's seed. That
//! per-job ownership is what makes campaigns deterministic at any worker
//! count and lock-free on the hot path.
//!
//! Kinds:
//!
//! | kind       | job unit                    | mirrors            |
//! |------------|-----------------------------|--------------------|
//! | `run`      | one machine run             | `act run`          |
//! | `train`    | offline training of a kernel| Table IV rows      |
//! | `diagnose` | full single-failure pipeline| Table V / VI rows  |
//! | `overhead` | ACT overhead sweep, 1 kernel| Fig 8              |
//! | `ablation` | one (ablation, workload) cell| DESIGN.md §5 study|
//!
//! The experiment binaries (`table4`, `table5`, `fig8_overhead`,
//! `ablation`) build their spec here and fan out with `--jobs N`
//! (default: all cores); `act campaign <spec>` does the same from a file.

use crate::cli::{CliError, Flags};
use crate::{
    act_cfg_for, aviso_diagnose, collect_clean_traces, diagnose_workload, failing_trace,
    find_act_failure, machine_cfg, opt, pbi_diagnose, train_workload,
};
use act_core::diagnosis::{diagnose, run_with_act};
use act_core::weights::shared;
use act_core::{ActConfig, ActError};
use act_fleet::{run_campaign, CampaignReport, CampaignSpec, JobDesc, JobOutput};
use act_sim::machine::Machine;
use act_trace::correct_set::CorrectSet;
use act_workloads::spec::Workload;
use act_workloads::{kernels, registry};

/// The 11 real-world bugs of Table V, in the paper's order.
pub const TABLE5_BUGS: [&str; 11] = [
    "aget",
    "apache",
    "memcached",
    "mysql1",
    "mysql2",
    "mysql3",
    "pbzip2",
    "gzip",
    "seq",
    "ptx",
    "paste",
];

/// The ablation rows of the DESIGN.md §5 study: config label → display name.
pub const ABLATIONS: [(&str, &str); 5] = [
    ("full", "full system"),
    ("no-cross-negs", "no cross negatives"),
    ("no-noise-negs", "no noise negatives"),
    ("seq-len-1", "sequence length N=1"),
    ("hidden-2", "tiny hidden layer (h=2)"),
];

/// The representative bugs the ablation scores (one per class), plus the
/// clean kernel used for the false-flag rate.
pub const ABLATION_BUGS: [&str; 4] = ["apache", "pbzip2", "seq", "paste"];
const ABLATION_CLEAN: &str = "fluidanimate";

/// The Fig 8 hardware sweeps: (label, mul-add units, FIFO capacity).
pub const FIG8_SWEEPS: [(&str, usize, usize); 6] = [
    ("default (x=1, fifo=8)", 1, 8),
    ("x=2", 2, 8),
    ("x=5", 5, 8),
    ("x=10", 10, 8),
    ("fifo=4", 1, 4),
    ("fifo=16", 1, 16),
];

/// Up to `want` stored traces of `workload` from the corpus at `dir`.
/// Rotten entries are skipped; a missing corpus panics (the job is then
/// recorded as crashed, the right report for a bad spec).
fn corpus_traces(dir: &str, workload: &str, want: usize) -> Vec<act_trace::event::Trace> {
    let c = act_store::Corpus::open(dir).unwrap_or_else(|e| panic!("corpus {dir}: {e}"));
    c.traces(workload).take(want).collect()
}

fn lookup(name: &str) -> Box<dyn Workload> {
    registry::by_name(name).unwrap_or_else(|| panic!("unknown workload `{name}`"))
}

fn kernel_names() -> Vec<String> {
    kernels::all().iter().map(|w| w.name().to_string()).collect()
}

/// The Table IV campaign: offline training of every clean kernel.
pub fn table4_spec() -> CampaignSpec {
    let names = kernel_names();
    let mut spec =
        CampaignSpec::new("table4", "train", &names.iter().map(String::as_str).collect::<Vec<_>>());
    spec.params.insert("traces".into(), "10".into());
    spec
}

/// The Table V campaign: single-failure diagnosis of the 11 real bugs,
/// with the Aviso-like and PBI-like baselines alongside.
pub fn table5_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new("table5", "diagnose", &TABLE5_BUGS);
    spec.params.insert("traces".into(), "10".into());
    spec.params.insert("max_tries".into(), "20".into());
    spec
}

/// The Fig 8 campaign: execution overhead of every kernel across the
/// hardware sweeps.
pub fn fig8_spec() -> CampaignSpec {
    let names = kernel_names();
    let mut spec = CampaignSpec::new(
        "fig8_overhead",
        "overhead",
        &names.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    spec.seeds = vec![7];
    spec
}

/// The ablation campaign: every (ablation, representative workload) cell.
pub fn ablation_spec() -> CampaignSpec {
    let mut workloads: Vec<&str> = ABLATION_BUGS.to_vec();
    workloads.push(ABLATION_CLEAN);
    let mut spec = CampaignSpec::new("ablation", "ablation", &workloads);
    spec.configs = ABLATIONS.iter().map(|(label, _)| label.to_string()).collect();
    spec
}

/// A campaign executor: one job in, its output out, callable from any
/// worker thread.
pub type Executor = Box<dyn Fn(&JobDesc) -> JobOutput + Send + Sync>;

/// Resolve a spec's `kind` to its executor.
///
/// The returned closure is shared across worker threads; all its captures
/// come from the spec's parameters (plain values), so it is `Send + Sync`.
pub fn executor_for(spec: &CampaignSpec) -> Result<Executor, ActError> {
    let traces: usize = spec.param_or("traces", 10);
    let max_tries: u64 = spec.param_or("max_tries", 20);
    // `corpus = DIR` points the train executor at an act-store corpus as
    // its trace source (ingested production traces instead of fresh
    // simulator runs).
    let corpus: Option<String> = spec.params.get("corpus").cloned();
    // `gateway = ADDR` ships train/diagnose jobs over the wire — to an
    // act-gate gateway (or a single act-serve daemon; the protocol is the
    // same) — instead of running the pipeline in-process.
    if let Some(addr) = spec.params.get("gateway").cloned() {
        let model = remote_model_spec(spec);
        let client = remote_client(spec, &addr);
        return match spec.kind.as_str() {
            "train" => {
                Ok(Box::new(move |job: &JobDesc| remote_train_exec(job, &addr, &model, &client)))
            }
            "diagnose" => {
                Ok(Box::new(move |job: &JobDesc| remote_diagnose_exec(job, &addr, &model, &client)))
            }
            other => Err(ActError::Parse(format!(
                "campaign kind `{other}` cannot run through a gateway (train and diagnose can)"
            ))),
        };
    }
    match spec.kind.as_str() {
        "run" => Ok(Box::new(run_exec)),
        "train" => Ok(Box::new(move |job: &JobDesc| train_exec(job, traces, corpus.as_deref()))),
        "diagnose" => Ok(Box::new(move |job: &JobDesc| diagnose_exec(job, traces, max_tries))),
        "overhead" => Ok(Box::new(move |job: &JobDesc| overhead_exec(job, traces))),
        "ablation" => Ok(Box::new(move |job: &JobDesc| ablation_exec(job, traces, max_tries))),
        other => Err(ActError::Parse(format!(
            "unknown campaign kind `{other}` (expected run, train, diagnose, overhead, or ablation)"
        ))),
    }
}

/// The wire [`ModelSpec`] template a remote campaign sends: spec params
/// override the protocol defaults; the per-job workload and seed are
/// stamped in by the executor.
fn remote_model_spec(spec: &CampaignSpec) -> act_serve::ModelSpec {
    let mut model = act_serve::ModelSpec::new("");
    model.traces = spec.param_or("traces", 10usize) as u32;
    model.seq_len = spec.param_or("seq_len", 2usize) as u16;
    model.hidden = spec.param_or("hidden", 10usize) as u16;
    model.max_epochs = spec.param_or("max_epochs", 0usize) as u32;
    model
}

/// The one client every worker of a remote campaign shares, at the spec's
/// `pipeline_depth` (default 1: a connection per job; N > 1: one v4
/// session with N requests in flight). Bounded default timeouts plus one
/// jittered retry, so a gateway BUSY or a mid-failover blip does not crash
/// a job; retries pick only sleep jitter, never results, so the report is
/// byte-identical at any depth.
fn remote_client(spec: &CampaignSpec, addr: &str) -> act_client::Client {
    act_client::Client::builder()
        .addr(addr)
        .retry(std::time::Duration::from_millis(100), 0)
        .pipeline_depth(spec.param_or("pipeline_depth", 1usize) as u32)
        .build()
        .expect("endpoint is set")
}

/// Strip the cache-outcome tag (` [cache-hit]`, ` [trained]`, ...) off a
/// `Trained` summary. The tag depends on which backend answered and what
/// it had cached — scrubbing it keeps campaign reports byte-identical
/// across fleet sizes and failovers.
fn strip_cache_tag(summary: &str) -> &str {
    summary.split(" [").next().unwrap_or(summary).trim_end()
}

/// Strip the `model=<tag>` token from a diagnosis header for the same
/// reason: the tag names the serving backend's cache outcome, not the
/// diagnosis.
fn strip_model_token(line: &str) -> String {
    line.split_whitespace().filter(|tok| !tok.starts_with("model=")).collect::<Vec<_>>().join(" ")
}

/// Pull a `key=value` integer out of a diagnosis header.
fn header_int(line: &str, key: &str) -> Option<i64> {
    line.split_whitespace().find_map(|tok| tok.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

/// `train` through a gateway: one TRAIN frame per job.
fn remote_train_exec(
    job: &JobDesc,
    addr: &str,
    model: &act_serve::ModelSpec,
    client: &act_client::Client,
) -> JobOutput {
    let mut spec = model.clone();
    spec.workload = job.workload.clone();
    spec.seed = job.seed;
    match client.train(&spec) {
        Ok(summary) => {
            let summary = strip_cache_tag(&summary);
            JobOutput::default()
                .text("summary", summary)
                .line(format!("{:<14} seed {:<4} {summary}", job.workload, job.seed))
        }
        Err(e) => panic!("{}: gateway {addr}: {e}", job.workload),
    }
}

/// `diagnose` through a gateway: manifest a failing run locally (the
/// production machine's side of the paper's workflow), ship its trace,
/// and record the ranked diagnosis the service returns.
fn remote_diagnose_exec(
    job: &JobDesc,
    addr: &str,
    model: &act_serve::ModelSpec,
    client: &act_client::Client,
) -> JobOutput {
    let mut spec = model.clone();
    spec.workload = job.workload.clone();
    spec.seed = job.seed;
    match client.diagnose(&spec, &failing_trace_bytes(&job.workload, job.seed)) {
        Ok(text) => {
            let header = strip_model_token(text.lines().next().unwrap_or(""));
            let ranked = header_int(&header, "ranked").unwrap_or(0);
            let top = text.lines().find(|l| l.trim_start().starts_with("#1")).map(str::trim);
            let mut out = JobOutput::default().int("ranked", ranked).text("header", &header);
            if let Some(top) = top {
                out = out.text("top_suspect", top);
            }
            out.line(format!("{:<14} seed {:<4} {header}", job.workload, job.seed))
        }
        Err(e) => panic!("{}: gateway {addr}: {e}", job.workload),
    }
}

/// Serialize a failing trace of `workload` the way a production client
/// would ship one ([`failing_trace`]). Deterministic per (workload,
/// base_seed).
pub fn failing_trace_bytes(workload: &str, base_seed: u64) -> Vec<u8> {
    let Some((_, trace)) = failing_trace(lookup(workload).as_ref(), base_seed) else {
        panic!("{workload}: no failing run in seeds {base_seed}..{}", base_seed + 64)
    };
    act_trace::io::trace_to_bytes(&trace)
}

/// `run`: a single (optionally triggered) machine run.
fn run_exec(job: &JobDesc) -> JobOutput {
    let w = lookup(&job.workload);
    let mut p = w.default_params().with_seed(job.seed);
    p.trigger_bug = job.config == "triggered";
    let built = w.build(&p);
    let mut m = Machine::new(&built.program, machine_cfg(job.seed));
    let outcome = m.run();
    let s = m.stats();
    let verdict = if built.is_correct(&outcome) { "correct" } else { "failure" };
    JobOutput::default()
        .int("cycles", s.total_cycles as i64)
        .int("instructions", s.total_retired() as i64)
        .int("deps_formed", s.mem.deps_formed as i64)
        .text("verdict", verdict)
        .line(format!(
            "{:<14} {:<10} seed {:<4} {:>10} cycles  {}",
            job.workload, job.config, job.seed, s.total_cycles, verdict
        ))
}

/// `train`: one Table IV row. With a `corpus` param, the training traces
/// come from the store instead of fresh simulator runs.
fn train_exec(job: &JobDesc, traces: usize, corpus: Option<&str>) -> JobOutput {
    let w = lookup(&job.workload);
    let cfg = act_cfg_for(w.as_ref());
    let trained = match corpus {
        Some(dir) => {
            let stored = corpus_traces(dir, &job.workload, traces);
            assert!(
                !stored.is_empty(),
                "{}: corpus {dir} holds no traces for this workload",
                job.workload
            );
            act_core::offline::offline_train(crate::norm_of(w.as_ref()), &stored, &cfg)
        }
        None => train_workload(w.as_ref(), traces, &cfg),
    };
    let r = &trained.report;
    JobOutput::default()
        .int("traces", (r.train_traces + r.test_traces) as i64)
        .int("distinct_deps", r.distinct_deps as i64)
        .text("topology", &r.topology.to_string())
        .float("test_fp_rate", r.test_fp_rate)
        .float("test_fn_rate", r.test_fn_rate)
        .line(format!(
            "{:<14} {:>7} {:>9} {:>9} {:>9.3}% {:>9.3}%",
            job.workload,
            r.train_traces + r.test_traces,
            r.distinct_deps,
            r.topology.to_string(),
            100.0 * r.test_fp_rate,
            100.0 * r.test_fn_rate,
        ))
}

/// `diagnose`: one Table V row — ACT's single-failure diagnosis plus the
/// Aviso-like and PBI-like baselines (each with its own methodology).
fn diagnose_exec(job: &JobDesc, traces: usize, max_tries: u64) -> JobOutput {
    let w = lookup(&job.workload);
    let cfg = act_cfg_for(w.as_ref());
    let trained = train_workload(w.as_ref(), traces, &cfg);
    let store = shared(trained.store.clone());

    // Run with the default debug buffer first; if the root cause was
    // evicted, fall back to 4x (MySQL#1 needs this, as in the paper).
    let mut failure =
        find_act_failure(w.as_ref(), &store, &cfg, max_tries).expect("failure manifests");
    let mut row = diagnose_workload(w.as_ref(), &failure, trained.report.seq_len);
    let mut note = "";
    if row.rank.is_none() {
        let mut big = cfg.clone();
        big.debug_capacity *= 4;
        let store2 = shared(trained.store.clone());
        if let Some(f2) = find_act_failure(w.as_ref(), &store2, &big, max_tries) {
            failure = f2;
            row = diagnose_workload(w.as_ref(), &failure, trained.report.seq_len);
            note = " [4x debug buffer]";
        }
    }

    let aviso = aviso_diagnose(w.as_ref(), 10);
    let aviso_s = aviso.map_or("-".to_string(), |(r, f)| format!("{r} ({f})"));
    let (pbi_rank, pbi_total) = pbi_diagnose(w.as_ref());
    let pbi_s = format!("{} ({pbi_total})", opt(pbi_rank));

    let mut out = JobOutput::default()
        .int("attempts", failure.attempts as i64)
        .float("filter_pct", row.filter_pct)
        .int("candidates", row.candidates as i64)
        .int("ranked", row.rank.is_some() as i64)
        .text("status", &row.status);
    if let Some(rank) = row.rank {
        out = out.int("rank", rank as i64);
    }
    if let Some(pos) = row.debug_pos {
        out = out.int("debug_pos", pos as i64);
    }
    if let Some((r, f)) = aviso {
        out = out.int("aviso_rank", r as i64).int("aviso_failures", f as i64);
    }
    if let Some(r) = pbi_rank {
        out = out.int("pbi_rank", r as i64);
    }
    out.int("pbi_total", pbi_total as i64).line(format!(
        "{:<10} {:>7} {:>9} {:>8.1} {:>5} | {:>12} | {:>14} {:>6}{}",
        row.name,
        traces,
        opt(row.debug_pos),
        row.filter_pct,
        opt(row.rank),
        aviso_s,
        pbi_s,
        row.status,
        note,
    ))
}

/// `overhead`: one Fig 8 row — a kernel's cycle overhead with ACT attached,
/// across the hardware sweeps (trained once, swept inside the job).
fn overhead_exec(job: &JobDesc, traces: usize) -> JobOutput {
    let w = lookup(&job.workload);
    let trained = train_workload(w.as_ref(), traces, &act_cfg_for(w.as_ref()));
    let built = w.build(&w.default_params().with_seed(job.seed));
    let mut m = Machine::new(&built.program, machine_cfg(job.seed));
    let _ = m.run();
    let base_cycles = m.stats().total_cycles as f64;

    let mut out = JobOutput::default().int("base_cycles", base_cycles as i64);
    let mut line = format!("{:<14}", job.workload);
    for (i, &(_, mul_add, fifo)) in FIG8_SWEEPS.iter().enumerate() {
        let mut cfg = act_cfg_for(w.as_ref());
        cfg.pipeline.mul_add_units = mul_add;
        cfg.pipeline.fifo_capacity = fifo;
        let store = shared(trained.store.clone());
        let run = run_with_act(&built.program, machine_cfg(job.seed), &cfg, &store);
        let overhead = 100.0 * (run.machine_stats.total_cycles as f64 / base_cycles - 1.0);
        out = out.float(&format!("overhead_pct_{i}"), overhead);
        line.push_str(&format!(" {overhead:>19.1}%"));
    }
    out.line(line)
}

/// Apply an ablation label to a config. Panics on unknown labels (the job
/// is then recorded as crashed, which is the right report for a bad spec).
fn ablation_mutate(label: &str, cfg: &mut ActConfig) {
    match label {
        "full" => {}
        "no-cross-negs" => cfg.cross_negs = 0,
        "no-noise-negs" => cfg.noise_fraction = 0.0,
        "seq-len-1" => cfg.seq_len = 1,
        "hidden-2" => cfg.hidden = 2,
        other => panic!("unknown ablation `{other}`"),
    }
}

/// `ablation`: one cell of the §5 study. Bug workloads report whether a
/// single failure still gets a top-5 rank; the clean kernel reports the
/// false-flag rate of a trained run.
fn ablation_exec(job: &JobDesc, traces: usize, max_tries: u64) -> JobOutput {
    let w = lookup(&job.workload);
    let mut cfg = act_cfg_for(w.as_ref());
    ablation_mutate(&job.config, &mut cfg);
    let trained = train_workload(w.as_ref(), traces, &cfg);
    let store = shared(trained.store.clone());

    if job.workload == ABLATION_CLEAN {
        let built = w.build(&w.default_params().with_seed(7));
        let run = run_with_act(&built.program, machine_cfg(7), &cfg, &store);
        let preds: u64 = run.module_stats.iter().map(|s| s.predictions).sum();
        let inval: u64 = run.module_stats.iter().map(|s| s.invalids).sum();
        let rate = if preds == 0 { 0.0 } else { 100.0 * inval as f64 / preds as f64 };
        return JobOutput::default().float("clean_flag_pct", rate);
    }

    let Some(failure) = find_act_failure(w.as_ref(), &store, &cfg, max_tries) else {
        return JobOutput::default().int("diagnosed", 0).text("status", "no failure");
    };
    let clean = collect_clean_traces(w.as_ref(), 100..116);
    let diag = diagnose(&failure.run, &CorrectSet::from_traces(&clean, trained.report.seq_len));
    let bug = failure.built.bug.as_ref().unwrap();
    let rank = diag.rank_where(|s| bug.matches_any(&s.deps));
    let diagnosed = rank.is_some_and(|r| r <= 5);
    let mut out = JobOutput::default().int("diagnosed", diagnosed as i64);
    if let Some(r) = rank {
        out = out.int("rank", r as i64);
    }
    out
}

/// The value flags and switches of the campaign binaries and of `act
/// campaign`: `--jobs N` (worker threads, default all cores), `--out FILE`
/// (write the JSON report) and `--no-timing` (leave the report's
/// wall-clock section out, so the file itself is reproducible).
pub const CAMPAIGN_FLAGS: (&[&str], &[&str]) = (&["jobs", "out"], &["no-timing"]);

/// Run `spec` as [`CAMPAIGN_FLAGS`] in `flags` say: resolve the executor,
/// fan out, and write the JSON report to `--out`. The caller prints the
/// table itself (header + `report.lines()`).
///
/// # Errors
///
/// A bad `--jobs` or a kind with no executor ([`CliError::Usage`]), or an
/// unwritable `--out` ([`CliError::Failed`]).
pub fn run_cli_campaign(spec: &CampaignSpec, flags: &Flags) -> Result<CampaignReport, CliError> {
    let jobs = flags.count("jobs")?.unwrap_or_else(act_fleet::default_workers);
    let exec = executor_for(spec).map_err(|e| CliError::Usage(e.to_string()))?;
    let report = run_campaign(spec, jobs, exec);
    if let Some(path) = flags.value("out") {
        let json =
            if flags.switch("no-timing") { report.deterministic_json() } else { report.json() };
        std::fs::write(path, json)
            .map_err(|e| CliError::Failed(format!("cannot write {path}: {e}")))?;
    }
    Ok(report)
}

/// [`run_cli_campaign`] on this process's own arguments, for the
/// experiment binaries: a bad command line or a failed run ends the
/// process with a `prog: ...` line.
pub fn campaign_main(prog: &str, spec: &CampaignSpec) -> CampaignReport {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (values, switches) = CAMPAIGN_FLAGS;
    Flags::parse(&argv, values, switches)
        .and_then(|flags| run_cli_campaign(spec, &flags))
        .unwrap_or_else(|e| e.exit(prog))
}

/// The standard timing footer the binaries print after their table.
pub fn timing_footer(report: &CampaignReport) -> String {
    let t = &report.timing;
    format!(
        "campaign {}: {} jobs on {} workers | wall {:.1}s, serial-equivalent {:.1}s, speedup {:.2}x{}",
        report.spec.name,
        report.aggregate.total,
        t.workers,
        t.total_ms / 1e3,
        t.sum_job_ms / 1e3,
        t.speedup,
        if report.aggregate.crashed > 0 {
            format!(" | {} job(s) CRASHED", report.aggregate.crashed)
        } else {
            String::new()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_expand_to_expected_grids() {
        assert_eq!(table5_spec().expand().len(), 11);
        assert_eq!(table4_spec().expand().len(), kernels::all().len());
        assert_eq!(fig8_spec().expand().len(), kernels::all().len());
        assert_eq!(ablation_spec().expand().len(), 5 * 5);
    }

    #[test]
    fn executor_resolution() {
        assert!(executor_for(&table5_spec()).is_ok());
        let mut bad = table5_spec();
        bad.kind = "nonsense".into();
        assert!(executor_for(&bad).is_err());
    }

    #[test]
    fn gateway_param_resolves_remote_kinds_only() {
        for kind in ["train", "diagnose"] {
            let mut spec = CampaignSpec::new("remote", kind, &["seq"]);
            spec.params.insert("gateway".into(), "127.0.0.1:7412".into());
            assert!(executor_for(&spec).is_ok(), "kind {kind} must go remote");
        }
        let mut spec = CampaignSpec::new("remote", "overhead", &["seq"]);
        spec.params.insert("gateway".into(), "127.0.0.1:7412".into());
        let err = match executor_for(&spec) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("overhead must not resolve through a gateway"),
        };
        assert!(err.contains("gateway"), "unhelpful error: {err}");
    }

    #[test]
    fn remote_report_scrubbers_drop_cache_state() {
        assert_eq!(
            strip_cache_tag("seq: seq_len=2 hidden=10 deps=37 [cache-hit:store]"),
            "seq: seq_len=2 hidden=10 deps=37"
        );
        assert_eq!(strip_cache_tag("no tag at all"), "no tag at all");
        let header = "diagnosis workload=seq model=cache-hit ranked=1 logged=58 filter_pct=97.4";
        let clean = strip_model_token(header);
        assert_eq!(clean, "diagnosis workload=seq ranked=1 logged=58 filter_pct=97.4");
        assert_eq!(header_int(&clean, "ranked"), Some(1));
        assert_eq!(header_int(&clean, "logged"), Some(58));
        assert_eq!(header_int(&clean, "missing"), None);
    }

    #[test]
    fn ablation_labels_set_the_topology_and_nothing_else() {
        let w = lookup("apache");
        let base = act_cfg_for(w.as_ref());
        assert_eq!((base.seq_len, base.hidden), (2, 10));
        for (label, want) in [("full", (2, 10)), ("seq-len-1", (1, 10)), ("hidden-2", (2, 2))] {
            let mut cfg = act_cfg_for(w.as_ref());
            ablation_mutate(label, &mut cfg);
            assert_eq!((cfg.seq_len, cfg.hidden), want, "{label}");
            (cfg.seq_len, cfg.hidden) = (base.seq_len, base.hidden);
            assert_eq!(format!("{cfg:?}"), format!("{base:?}"), "{label} changed another field");
        }
    }

    #[test]
    fn remote_model_spec_honors_params() {
        let mut spec = CampaignSpec::new("remote", "train", &["seq"]);
        spec.params.insert("traces".into(), "4".into());
        spec.params.insert("seq_len".into(), "3".into());
        spec.params.insert("hidden".into(), "6".into());
        spec.params.insert("max_epochs".into(), "50".into());
        let model = remote_model_spec(&spec);
        assert_eq!((model.traces, model.seq_len, model.hidden, model.max_epochs), (4, 3, 6, 50));
    }

    #[test]
    fn campaign_args_parse_and_reject() {
        let (values, switches) = CAMPAIGN_FLAGS;
        let ok = Flags::parse(&["--jobs", "4", "--out", "r.json"], values, switches).unwrap();
        assert_eq!(ok.count::<usize>("jobs"), Ok(Some(4)));
        assert_eq!(ok.value("out"), Some("r.json"));
        assert!(!ok.switch("no-timing"));
        assert!(Flags::parse(&["--jobs"], values, switches).is_err());
        assert!(Flags::parse(&["--typo"], values, switches).is_err());
        let zero = Flags::parse(&["--jobs", "0"], values, switches).unwrap();
        assert!(matches!(run_cli_campaign(&table4_spec(), &zero), Err(CliError::Usage(_))));
    }

    /// A tiny end-to-end run campaign: deterministic across worker counts.
    #[test]
    fn run_campaign_is_deterministic_across_worker_counts() {
        let mut spec = CampaignSpec::new("smoke", "run", &["fft", "lu"]);
        spec.seeds = vec![0, 1];
        let exec1 = executor_for(&spec).unwrap();
        let exec8 = executor_for(&spec).unwrap();
        let r1 = run_campaign(&spec, 1, exec1);
        let r8 = run_campaign(&spec, 8, exec8);
        assert_eq!(r1.deterministic_json(), r8.deterministic_json());
        assert_eq!(r1.aggregate.crashed, 0);
    }

    /// A train campaign pointed at a corpus trains from the stored traces
    /// (and crashes the job, not the campaign, when the corpus lacks them).
    #[test]
    fn train_campaign_reads_traces_from_a_corpus() {
        let dir = std::env::temp_dir().join(format!("act-bench-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut corpus = act_store::Corpus::init(&dir).unwrap();
        let w = lookup("seq");
        for (i, t) in collect_clean_traces(w.as_ref(), 0..8).iter().take(3).enumerate() {
            corpus.put_trace(&format!("seq-{i}"), "seq", t).unwrap();
        }
        drop(corpus);

        let mut spec = CampaignSpec::new("corpus-train", "train", &["seq", "fft"]);
        spec.params.insert("traces".into(), "3".into());
        spec.params.insert("corpus".into(), dir.display().to_string());
        let exec = executor_for(&spec).unwrap();
        let report = run_campaign(&spec, 2, exec);
        // `seq` trains from the store; `fft` has no stored traces, so its
        // job crashes in isolation.
        assert_eq!(report.aggregate.completed, 1, "seq trains from the corpus");
        assert_eq!(report.aggregate.crashed, 1, "fft has no corpus traces");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An unknown workload crashes its own job only.
    #[test]
    fn bad_workload_is_isolated() {
        let mut spec = CampaignSpec::new("iso", "run", &["fft", "no-such-workload"]);
        spec.seeds = vec![0];
        let exec = executor_for(&spec).unwrap();
        let report = run_campaign(&spec, 2, exec);
        assert_eq!(report.aggregate.completed, 1);
        assert_eq!(report.aggregate.crashed, 1);
    }
}
