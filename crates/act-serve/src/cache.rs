//! The model cache: trained `(workload, topology, seed)` models kept hot in
//! an LRU map and persisted to a model directory so repeat clients — and
//! daemon restarts — skip retraining.
//!
//! A *model* is everything `DIAGNOSE` needs: the per-thread
//! [`WeightStore`] (the paper's binary-patched weights), the Correct Set
//! the ranked suspects are pruned against, and the code-length the encoder
//! normalizes by. Lookup order is memory → disk → corpus store → train;
//! only the last is a cache miss. Disk writes go through
//! [`WeightStore::save_to_path`]'s atomic temp-file + `rename`, so a crash
//! mid-save never leaves a torn model for the next boot to trip over.
//!
//! When the daemon runs with `--corpus`, the cache is additionally backed
//! by the [`act_store::Corpus`]: trained models (weights + Correct Set)
//! are persisted as store blobs keyed by `ModelKey::canonical()`, and
//! `TRAIN` prefers the corpus's ingested correct-run traces over fresh
//! simulator runs when the workload has at least two of them.

use crate::proto::ModelSpec;
use act_core::offline::offline_train;
use act_core::weights::WeightStore;
use act_core::{ActConfig, ActError};
use act_sim::events::RawDep;
use act_store::{Corpus, EntryKind};
use act_trace::collector::TraceCollector;
use act_trace::correct_set::CorrectSet;
use act_trace::event::Trace;
use act_workloads::registry;
use act_workloads::run::{correct_runs, norm_of};
use act_workloads::spec::Workload;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Cache key: the shared workload × topology × seed identity from
/// `act-fleet` — `seq_len` and `hidden` pin the topology
/// (`inputs = FEATURES_PER_DEP * seq_len`). Its
/// [`canonical`](ModelKey::canonical) string form is the stable on-disk
/// file stem (workload names are `[a-z0-9_]`, so no escaping is needed;
/// `__`-reserved names never reach the cache).
pub use act_fleet::ModelKey;

impl From<&ModelSpec> for ModelKey {
    /// The key a request spec names (zero topology axes resolve to 1).
    fn from(spec: &ModelSpec) -> ModelKey {
        ModelKey::new(&spec.workload, spec.seq_len as usize, spec.hidden as usize, spec.seed)
    }
}

/// A trained, servable model.
#[derive(Debug)]
pub struct Model {
    /// Per-thread weights (the paper's binary patching, server-side).
    pub store: WeightStore,
    /// Sequences observed in correct runs, for pruning and ranking.
    pub correct: CorrectSet,
    /// Code length the encoder normalizes by (must match training).
    pub norm_code_len: usize,
    /// One-line training summary for `TRAIN` replies.
    pub summary: String,
}

/// Where a served model came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Already resident in memory.
    Memory,
    /// Loaded from the model directory (no retraining).
    Disk,
    /// Loaded from the corpus store (no retraining).
    Store,
    /// Trained from scratch (the only outcome counted as a miss).
    Trained,
}

struct Slot {
    model: Arc<Model>,
    /// Relaxed-atomic LRU stamp: hits bump it under the *read* lock, so
    /// the hot path never takes an exclusive lock (see [`ModelCache`]).
    last_used: AtomicU64,
}

/// LRU cache over trained models, optionally backed by a model directory.
///
/// The hit path is contention-free: lookups take the map's `RwLock` in
/// *read* mode (shared — concurrent workers never serialize on hits) and
/// record recency by storing a relaxed-atomic tick into the slot. Only
/// misses — an insert after disk/store/training resolution — take the
/// write lock. Under concurrency the LRU ordering is approximate (two
/// simultaneous hits may stamp ticks out of order), which changes nothing
/// observable: eviction picks *a* least-recently-used victim, and the
/// stamps of concurrently-touched entries differ by at most the number of
/// in-flight readers.
pub struct ModelCache {
    map: RwLock<HashMap<ModelKey, Slot>>,
    tick: AtomicU64,
    capacity: usize,
    dir: Option<PathBuf>,
    corpus: Option<Arc<Mutex<Corpus>>>,
}

impl ModelCache {
    /// An empty cache holding at most `capacity` models in memory, spilling
    /// to `dir` (if given) for persistence across evictions and restarts.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, dir: Option<PathBuf>) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ModelCache {
            map: RwLock::new(HashMap::new()),
            tick: AtomicU64::new(0),
            capacity,
            dir,
            corpus: None,
        }
    }

    /// Back the cache with a corpus store: models persist as store blobs
    /// and training prefers the corpus's ingested traces.
    pub fn with_corpus(mut self, corpus: Arc<Mutex<Corpus>>) -> Self {
        self.corpus = Some(corpus);
        self
    }

    /// The corpus store backing this cache, when the daemon has one.
    pub fn corpus(&self) -> Option<&Arc<Mutex<Corpus>>> {
        self.corpus.as_ref()
    }

    /// Models currently resident in memory.
    pub fn resident(&self) -> usize {
        self.map.read().expect("cache lock").len()
    }

    /// Fetch the model for `spec`, training it on a miss. The lock is *not*
    /// held across training (which takes seconds) — concurrent first
    /// requests for the same key may train redundantly, but no request ever
    /// blocks behind another key's training.
    ///
    /// # Errors
    ///
    /// Returns [`ActError::UnknownWorkload`] for an unregistered workload
    /// and [`ActError::Train`] when training fails.
    pub fn get_or_train(&self, spec: &ModelSpec) -> Result<(Arc<Model>, CacheOutcome), ActError> {
        let key = ModelKey::from(spec);
        if let Some(model) = self.lookup(&key) {
            return Ok((model, CacheOutcome::Memory));
        }
        if let Some(model) = self.load_from_dir(&key) {
            let model = Arc::new(model);
            self.insert(key, model.clone());
            return Ok((model, CacheOutcome::Disk));
        }
        if let Some(model) = self.load_from_store(&key) {
            let model = Arc::new(model);
            self.insert(key, model.clone());
            return Ok((model, CacheOutcome::Store));
        }
        let model = Arc::new(self.train(spec)?);
        self.save_to_dir(&key, &model);
        self.save_to_store(&key, &model);
        self.insert(key, model.clone());
        Ok((model, CacheOutcome::Trained))
    }

    /// Train from the corpus's ingested correct-run traces when the
    /// workload has at least two; otherwise collect fresh simulator runs.
    fn train(&self, spec: &ModelSpec) -> Result<Model, ActError> {
        if let Some(corpus) = &self.corpus {
            let traces = {
                let c = corpus.lock().expect("corpus lock");
                corpus_traces(&c, &spec.workload)
            };
            if traces.len() >= 2 {
                return train_model_from_traces(spec, traces);
            }
        }
        train_model(spec)
    }

    fn lookup(&self, key: &ModelKey) -> Option<Arc<Model>> {
        let map = self.map.read().expect("cache lock");
        let slot = map.get(key)?;
        slot.last_used.store(self.tick.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
        Some(slot.model.clone())
    }

    fn insert(&self, key: ModelKey, model: Arc<Model>) {
        let mut map = self.map.write().expect("cache lock");
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        map.insert(key, Slot { model, last_used: AtomicU64::new(tick) });
        while map.len() > self.capacity {
            let evict = map
                .iter()
                .min_by_key(|(_, s)| s.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
                .expect("nonempty map");
            map.remove(&evict);
        }
    }

    fn weights_path(&self, key: &ModelKey) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{}.weights", key.canonical())))
    }

    fn cset_path(&self, key: &ModelKey) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{}.cset", key.canonical())))
    }

    fn load_from_dir(&self, key: &ModelKey) -> Option<Model> {
        let store = WeightStore::load_from_path(self.weights_path(key)?).ok()?;
        let correct = read_correct_set(&self.cset_path(key)?).ok()?;
        // The store must actually match the key (a hand-edited or stale
        // file with the wrong topology would poison every diagnosis).
        if store.seq_len() != key.seq_len || store.topology().hidden != key.hidden {
            return None;
        }
        let norm_code_len = norm_of(registry::by_name(&key.workload)?.as_ref());
        let summary = format!(
            "model {} loaded from disk ({} threads, {} correct sequences)",
            key.canonical(),
            store.known_threads().len(),
            correct.len()
        );
        Some(Model { store, correct, norm_code_len, summary })
    }

    fn save_to_dir(&self, key: &ModelKey, model: &Model) {
        let (Some(wpath), Some(cpath)) = (self.weights_path(key), self.cset_path(key)) else {
            return;
        };
        if let Some(dir) = &self.dir {
            let _ = std::fs::create_dir_all(dir);
        }
        // Persistence is best-effort: a full disk degrades the daemon to
        // in-memory caching, it does not fail requests.
        let _ = model.store.save_to_path(&wpath);
        let _ = write_correct_set(&cpath, &model.correct);
    }

    fn load_from_store(&self, key: &ModelKey) -> Option<Model> {
        let corpus = self.corpus.as_ref()?;
        let (weights, cset) = {
            let c = corpus.lock().expect("corpus lock");
            (
                c.get_blob(EntryKind::Model, &key.canonical()).ok()?,
                c.get_blob(EntryKind::CorrectSet, &key.canonical()).ok()?,
            )
        };
        let store = WeightStore::load(&weights[..]).ok()?;
        // Same poisoned-model guard as the disk path.
        if store.seq_len() != key.seq_len || store.topology().hidden != key.hidden {
            return None;
        }
        let (norm_code_len, correct) = parse_cset_blob(&cset)?;
        let summary = format!(
            "model {} loaded from corpus store ({} threads, {} correct sequences)",
            key.canonical(),
            store.known_threads().len(),
            correct.len()
        );
        Some(Model { store, correct, norm_code_len, summary })
    }

    fn save_to_store(&self, key: &ModelKey, model: &Model) {
        let Some(corpus) = &self.corpus else {
            return;
        };
        let mut weights = Vec::new();
        if model.store.save(&mut weights).is_err() {
            return;
        }
        let cset = cset_blob(model);
        // Best-effort, like the model-dir path: a full disk degrades the
        // daemon to in-memory caching, it does not fail requests.
        let mut c = corpus.lock().expect("corpus lock");
        let _ = c.put_blob(EntryKind::Model, &key.canonical(), &key.workload, &weights);
        let _ = c.put_blob(EntryKind::CorrectSet, &key.canonical(), &key.workload, &cset);
    }
}

/// Every stored correct-run trace of `workload`, oldest first. Entries that
/// fail to decode are skipped — one rotten trace must not block training.
fn corpus_traces(corpus: &Corpus, workload: &str) -> Vec<Trace> {
    corpus
        .entries(Some(workload))
        .into_iter()
        .filter(|info| info.meta.kind == EntryKind::Trace)
        .filter_map(|info| corpus.get_trace(&info.meta.key).ok())
        .collect()
}

// ---------------------------------------------------------------------
// Training (server-side): clean traces -> offline training -> Correct Set.
// ---------------------------------------------------------------------

/// The traces of up to `want` correct runs of `w`'s clean configuration,
/// from seed `first` on, trying at most `2 * want` seeds.
fn clean_traces(w: &dyn Workload, first: u64, want: usize, norm: usize) -> Vec<Trace> {
    let seeds = (0..want as u64 * 2).map(|i| first.wrapping_add(i));
    correct_runs(w, w.default_params(), seeds, |_| TraceCollector::new(norm))
        .take(want)
        .map(|run| run.observer.into_trace())
        .collect()
}

/// Train the model a spec names: collect clean traces, run offline
/// training with the spec's pinned topology, and build the Correct Set
/// from ~20 fresh correct executions (disjoint seeds — the paper's
/// methodology; the failure itself is never reproduced).
///
/// # Errors
///
/// Returns [`ActError::UnknownWorkload`] for an unregistered workload and
/// [`ActError::Train`] when no correct training runs can be collected.
pub fn train_model(spec: &ModelSpec) -> Result<Model, ActError> {
    let w = registry::by_name(&spec.workload)
        .ok_or_else(|| ActError::UnknownWorkload(spec.workload.clone()))?;
    let norm = norm_of(w.as_ref());
    let want = (spec.traces.max(2)) as usize;
    let traces = clean_traces(w.as_ref(), spec.seed, want, norm);
    if traces.is_empty() {
        return Err(ActError::Train {
            workload: spec.workload.clone(),
            reason: "no correct training runs".into(),
        });
    }
    // Correct Set from fresh correct runs at disjoint seeds.
    let correct_traces = clean_traces(w.as_ref(), spec.seed.wrapping_add(100), 20, norm);
    finish_training(spec, norm, &traces, &correct_traces, "")
}

/// Train from a corpus's ingested correct-run traces — no simulator runs,
/// no registry lookup, so the daemon can serve workloads it only knows
/// through `TRACE_PUT`. The Correct Set is built from the same traces.
///
/// # Errors
///
/// Returns [`ActError::Train`] when fewer than two traces are supplied.
pub fn train_model_from_traces(spec: &ModelSpec, traces: Vec<Trace>) -> Result<Model, ActError> {
    if traces.len() < 2 {
        return Err(ActError::Train {
            workload: spec.workload.clone(),
            reason: format!("corpus holds {} trace(s); need at least 2", traces.len()),
        });
    }
    // Ingested traces carry the code length they were collected under.
    let norm = traces.iter().map(|t| t.code_len).max().unwrap_or(1).max(1);
    finish_training(spec, norm, &traces, &traces, " from corpus")
}

/// The shared back half of training: offline training with the shared
/// recipe at the spec's pinned topology, then the Correct Set from
/// `correct_traces`.
fn finish_training(
    spec: &ModelSpec,
    norm: usize,
    traces: &[Trace],
    correct_traces: &[Trace],
    source: &str,
) -> Result<Model, ActError> {
    let mut cfg = ActConfig::recipe(
        spec.seq_len as usize,
        spec.hidden as usize,
        spec.max_epochs as usize,
        spec.seed,
    );
    cfg.norm_code_len = norm;
    let trained = offline_train(norm, traces, &cfg);
    let correct = CorrectSet::from_traces(correct_traces, trained.store.seq_len());

    let r = &trained.report;
    let summary = format!(
        "trained {}{}: topology {} (N = {}), {} traces, held-out FP {:.2}%, {} correct sequences",
        spec.workload,
        source,
        r.topology,
        r.seq_len,
        r.train_traces + r.test_traces,
        100.0 * r.test_fp_rate,
        correct.len()
    );
    Ok(Model { store: trained.store, correct, norm_code_len: norm, summary })
}

// ---------------------------------------------------------------------
// Correct Set persistence (one sequence per line).
// ---------------------------------------------------------------------

fn correct_set_text(set: &CorrectSet) -> String {
    use std::fmt::Write as _;
    let mut buf = String::new();
    writeln!(buf, "actcset v1 {}", set.seq_len()).expect("string write");
    for seq in set.sequences() {
        let mut first = true;
        for d in seq {
            if !first {
                buf.push(' ');
            }
            first = false;
            let _ = write!(buf, "{} {} {}", d.store_pc, d.load_pc, u8::from(d.inter_thread));
        }
        buf.push('\n');
    }
    buf
}

fn write_correct_set(path: &Path, set: &CorrectSet) -> std::io::Result<()> {
    let buf = correct_set_text(set);
    // Same atomic discipline as the weight files.
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    if let Err(e) = std::fs::write(&tmp, &buf) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, path)
}

/// The corpus-store Correct Set blob: a `norm <code-len>` line (the one
/// model field the `actcset` format does not carry) followed by the same
/// text the `.cset` files hold.
fn cset_blob(model: &Model) -> Vec<u8> {
    format!("norm {}\n{}", model.norm_code_len, correct_set_text(&model.correct)).into_bytes()
}

fn parse_cset_blob(bytes: &[u8]) -> Option<(usize, CorrectSet)> {
    let text = std::str::from_utf8(bytes).ok()?;
    let (head, rest) = text.split_once('\n')?;
    let norm: usize = head.strip_prefix("norm ")?.trim().parse().ok()?;
    let set = correct_set_from_text(rest).ok()?;
    Some((norm, set))
}

fn read_correct_set(path: &Path) -> Result<CorrectSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    correct_set_from_text(&text)
}

fn correct_set_from_text(text: &str) -> Result<CorrectSet, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty correct-set file")?;
    let mut h = header.split_whitespace();
    if h.next() != Some("actcset") || h.next() != Some("v1") {
        return Err("bad correct-set header".into());
    }
    let n: usize = h.next().and_then(|v| v.parse().ok()).ok_or("bad correct-set seq_len")?;
    let mut set = CorrectSet::default();
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let nums: Result<Vec<u64>, _> = line.split_whitespace().map(str::parse).collect();
        let nums = nums.map_err(|e| format!("line {}: {e}", i + 2))?;
        if n > 0 && nums.len() != 3 * n {
            return Err(format!("line {}: expected {} fields, got {}", i + 2, 3 * n, nums.len()));
        }
        let deps: Vec<RawDep> = nums
            .chunks(3)
            .map(|c| RawDep {
                store_pc: c[0] as u32,
                load_pc: c[1] as u32,
                inter_thread: c[2] != 0,
            })
            .collect();
        set.insert(&deps);
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dep(s: u32, l: u32) -> RawDep {
        RawDep { store_pc: s, load_pc: l, inter_thread: s.is_multiple_of(2) }
    }

    #[test]
    fn correct_set_file_round_trips() {
        let dir = std::env::temp_dir().join(format!("act-cset-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.cset");
        let mut set = CorrectSet::default();
        set.insert(&[dep(1, 10), dep(2, 20)]);
        set.insert(&[dep(3, 30), dep(4, 40)]);
        write_correct_set(&path, &set).unwrap();
        let back = read_correct_set(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.seq_len(), 2);
        assert!(back.contains(&[dep(1, 10), dep(2, 20)]));
        assert!(back.contains(&[dep(3, 30), dep(4, 40)]));
        assert_eq!(back.matched_prefix(&[dep(1, 10), dep(9, 9)]), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_correct_set_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("act-cset-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.cset");
        std::fs::write(&path, "nope\n").unwrap();
        assert!(read_correct_set(&path).is_err());
        std::fs::write(&path, "actcset v1 2\n1 2\n").unwrap();
        assert!(read_correct_set(&path).is_err(), "wrong field count rejected");
        std::fs::write(&path, "actcset v1 2\n1 2 x 3 4 0\n").unwrap();
        assert!(read_correct_set(&path).is_err(), "non-numeric field rejected");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ModelCache::new(2, None);
        let model = |name: &str| {
            Arc::new(Model {
                store: WeightStore::new(act_nn::network::Topology::new(2, 2), 1, 1),
                correct: CorrectSet::default(),
                norm_code_len: 10,
                summary: name.to_string(),
            })
        };
        let key =
            |name: &str| ModelKey { workload: name.to_string(), seq_len: 1, hidden: 2, seed: 0 };
        cache.insert(key("a"), model("a"));
        cache.insert(key("b"), model("b"));
        // Touch "a" so "b" is the LRU victim.
        assert!(cache.lookup(&key("a")).is_some());
        cache.insert(key("c"), model("c"));
        assert_eq!(cache.resident(), 2);
        assert!(cache.lookup(&key("a")).is_some(), "recently used survives");
        assert!(cache.lookup(&key("b")).is_none(), "LRU evicted");
        assert!(cache.lookup(&key("c")).is_some());
    }

    #[test]
    fn unknown_workload_is_an_error_not_a_panic() {
        let cache = ModelCache::new(2, None);
        let err = cache.get_or_train(&ModelSpec::new("no-such-workload")).unwrap_err();
        assert!(matches!(err, ActError::UnknownWorkload(_)));
        assert!(err.to_string().contains("unknown workload"));
    }
}
