//! The workloads and the seeded inputs they send.
//!
//! The seed picks which failing runs are diagnosed, which correct runs are
//! stored, and the order requests are drawn in. The daemons only ever see
//! the generated trace bytes.

use act_rng::rngs::StdRng;
use act_rng::{Rng, SeedableRng};
use act_serve::ModelSpec;
use act_sim::config::MachineConfig;
use act_sim::machine::Machine;
use act_trace::collector::TraceCollector;
use act_workloads::registry;
use act_workloads::spec::{BugInfo, Workload};

/// How the benchmark's one client reaches the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `act-client` at depth 1: a fresh connection per request.
    OneShot,
    /// One protocol-v4 session keeping this many requests in flight.
    Session(u32),
}

/// One traffic mix.
#[derive(Debug)]
pub struct WorkloadDef {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Route every request through an `act gate` over two daemons (each
    /// with a corpus) instead of straight to one daemon.
    pub gateway: bool,
    pub transport: Transport,
    /// Workloads whose failing runs are diagnosed.
    pub diagnose: &'static [&'static str],
    /// Distinct failing traces per diagnosed workload.
    pub traces_each: usize,
    /// Workloads whose correct runs are stored with TRACE_PUT.
    pub put: &'static [&'static str],
    /// Distinct correct traces per stored workload.
    pub puts_each: usize,
    /// Percent of requests that are TRACE_PUT and TRACE_GET; the rest
    /// are DIAGNOSE.
    pub put_pct: u64,
    pub get_pct: u64,
}

/// The benchmark's workloads (why each exists: `perfbench/README.md`).
pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "oneshot-small",
        gateway: false,
        transport: Transport::OneShot,
        diagnose: &["seq", "gzip", "paste", "ptx"],
        traces_each: 8,
        put: &[],
        puts_each: 0,
        put_pct: 0,
        get_pct: 0,
    },
    WorkloadDef {
        name: "session-large",
        gateway: false,
        transport: Transport::Session(16),
        diagnose: &["aget", "apache", "memcached", "mysql1", "mysql2", "mysql3", "pbzip2"],
        traces_each: 16,
        put: &[],
        puts_each: 0,
        put_pct: 0,
        get_pct: 0,
    },
    WorkloadDef {
        name: "gate-mixed",
        gateway: true,
        transport: Transport::Session(8),
        diagnose: &["apache", "memcached", "mysql2", "pbzip2"],
        traces_each: 6,
        put: &["canneal", "fft", "barnes", "aget", "lu", "memcached", "mysql2", "apache"],
        puts_each: 3,
        put_pct: 35,
        get_pct: 15,
    },
];

/// The workload named `name`, if any.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The model every request for `workload` names: the server defaults.
pub fn model_spec(workload: &str) -> ModelSpec {
    ModelSpec::new(workload)
}

/// A failing run's trace, with the bug it was triggered by.
#[derive(Debug, Clone)]
pub struct FailingTrace {
    pub workload: &'static str,
    /// The run's input and interleaving seed.
    pub seed: u64,
    /// `act-trace::io` text bytes, as shipped.
    pub bytes: Vec<u8>,
    /// Ground truth the `#1` suspect is scored against.
    pub bug: BugInfo,
}

/// A correct run's trace, stored with TRACE_PUT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrectTrace {
    pub workload: &'static str,
    pub seed: u64,
    pub bytes: Vec<u8>,
}

/// Everything a run sends, derived from the seed alone.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub failing: Vec<FailingTrace>,
    pub correct: Vec<CorrectTrace>,
}

impl Inputs {
    /// Generate `def`'s inputs for `seed`.
    pub fn generate(def: &WorkloadDef, seed: u64) -> Result<Inputs, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut failing = Vec::new();
        for &name in def.diagnose {
            for (run_seed, bytes, bug) in runs(name, def.traces_each, true, &mut rng)? {
                let bug = bug.ok_or_else(|| format!("{name}: a failing run carries no bug"))?;
                failing.push(FailingTrace { workload: name, seed: run_seed, bytes, bug });
            }
        }
        let mut correct = Vec::new();
        for &name in def.put {
            for (run_seed, bytes, _) in runs(name, def.puts_each, false, &mut rng)? {
                correct.push(CorrectTrace { workload: name, seed: run_seed, bytes });
            }
        }
        Ok(Inputs { failing, correct })
    }

    /// The same traces, compared byte for byte (set-ups must agree).
    pub fn same_as(&self, other: &Inputs) -> bool {
        self.correct == other.correct
            && self.failing.len() == other.failing.len()
            && self
                .failing
                .iter()
                .zip(&other.failing)
                .all(|(a, b)| a.seed == b.seed && a.bytes == b.bytes)
    }
}

/// One simulated run: its seed, its trace bytes, and the bug it carries.
type Run = (u64, Vec<u8>, Option<BugInfo>);

/// `want` runs of `name` at seeds drawn from `rng` that fail (`triggered`)
/// or complete correctly (otherwise), with pairwise distinct traces.
fn runs(name: &str, want: usize, triggered: bool, rng: &mut StdRng) -> Result<Vec<Run>, String> {
    let w = registry::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let norm = norm_of(w.as_ref());
    let mut out: Vec<Run> = Vec::new();
    for _ in 0..want * 32 {
        if out.len() == want {
            return Ok(out);
        }
        let seed = rng.next_u64() % 1_000_000;
        if out.iter().any(|(s, _, _)| *s == seed) {
            continue;
        }
        let mut params = w.default_params().with_seed(seed);
        params.trigger_bug = triggered;
        let built = w.build(&params);
        let mut collector = TraceCollector::new(norm);
        let cfg = MachineConfig { seed, jitter_ppm: 10_000, ..Default::default() };
        let outcome = Machine::new(&built.program, cfg).run_observed(&mut collector);
        if built.is_failure(&outcome) != triggered {
            continue;
        }
        let bytes = act_trace::io::trace_to_bytes(&collector.into_trace());
        if out.iter().all(|(_, b, _)| *b != bytes) {
            out.push((seed, bytes, built.bug));
        }
    }
    if out.len() == want {
        Ok(out)
    } else {
        Err(format!("{name}: found {} of {want} runs with triggered={triggered}", out.len()))
    }
}

/// The code length `w`'s traces are collected under (as the daemons train).
fn norm_of(w: &dyn Workload) -> usize {
    w.norm_code_len().unwrap_or_else(|| w.build(&w.default_params()).program.code_len())
}

/// One drawn request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Draw {
    /// Diagnose failing trace `i`.
    Diagnose(usize),
    /// Store correct trace `i` under a fresh key.
    Put(usize),
    /// Read back a stored key; the request loop picks which with `pick`.
    Get { pick: u64 },
}

/// The seeded request stream.
pub struct Drawer {
    rng: StdRng,
    diagnose: usize,
    correct: usize,
    put_pct: u64,
    get_pct: u64,
}

impl Drawer {
    /// A stream over `inputs` in `def`'s mix; its own generator, so the
    /// draw does not depend on how many runs input generation tried.
    pub fn new(def: &WorkloadDef, inputs: &Inputs, seed: u64) -> Drawer {
        Drawer {
            rng: StdRng::seed_from_u64(seed ^ 0x5EED_D4A3),
            diagnose: inputs.failing.len(),
            correct: inputs.correct.len(),
            put_pct: def.put_pct,
            get_pct: def.get_pct,
        }
    }

    /// The next request. A GET is only drawn once `stored` keys exist; until
    /// then its share goes to PUT.
    pub fn next(&mut self, stored: usize) -> Draw {
        let roll = self.rng.next_u64() % 100;
        let pick = self.rng.next_u64();
        if roll < self.get_pct && stored > 0 {
            Draw::Get { pick }
        } else if roll < self.get_pct + self.put_pct && self.correct > 0 {
            Draw::Put((pick % self.correct as u64) as usize)
        } else {
            Draw::Diagnose((pick % self.diagnose as u64) as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let def = workload("oneshot-small").unwrap();
        let a = Inputs::generate(def, 1).unwrap();
        let b = Inputs::generate(def, 1).unwrap();
        let c = Inputs::generate(def, 2).unwrap();
        assert_eq!(a.failing.len(), def.diagnose.len() * def.traces_each);
        for (i, x) in a.failing.iter().enumerate() {
            assert!(a.failing[..i].iter().all(|y| y.bytes != x.bytes), "traces are distinct");
        }
        assert!(a.same_as(&b));
        assert!(!a.same_as(&c));
    }

    #[test]
    fn drawer_follows_the_mix() {
        let def = workload("gate-mixed").unwrap();
        let inputs = Inputs {
            failing: Vec::new(),
            correct: vec![CorrectTrace { workload: "fft", seed: 0, bytes: Vec::new() }],
        };
        let mut d = Drawer { diagnose: 4, ..Drawer::new(def, &inputs, 7) };
        assert!(!matches!(d.next(0), Draw::Get { .. }));
        let (mut diag, mut put, mut get) = (0, 0, 0);
        for _ in 0..10_000 {
            match d.next(1) {
                Draw::Diagnose(i) => {
                    assert!(i < 4);
                    diag += 1
                }
                Draw::Put(i) => {
                    assert_eq!(i, 0);
                    put += 1
                }
                Draw::Get { .. } => get += 1,
            }
        }
        assert!((4800..5200).contains(&diag), "{diag}");
        assert!((3300..3700).contains(&put), "{put}");
        assert!((1300..1700).contains(&get), "{get}");
    }
}
