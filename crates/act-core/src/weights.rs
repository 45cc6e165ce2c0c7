//! Per-thread weight storage — the software model of the paper's
//! "binary patching": after offline training, each thread's link weights are
//! stored with the program and loaded into the ACT module's weight registers
//! (`chkwt`/`ldwt`/`stwt`) when the thread is scheduled; on thread exit the
//! (possibly online-retrained) weights are written back so later executions
//! benefit.

use act_nn::network::{Network, Topology};
use act_sim::events::ThreadId;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// The trained state attached to a program: topology, sequence length, and
/// per-thread weights.
#[derive(Debug, Clone)]
pub struct WeightStore {
    topology: Topology,
    seq_len: usize,
    per_tid: HashMap<ThreadId, Vec<f32>>,
    /// Weights given to threads with no stored entry (random, so the module
    /// mispredicts heavily and is forced into online training, as §IV-C
    /// describes).
    default_weights: Vec<f32>,
}

impl WeightStore {
    /// An empty store for `topology` / sequence length `seq_len`.
    ///
    /// # Panics
    ///
    /// Panics if `seq_len == 0`.
    pub fn new(topology: Topology, seq_len: usize, seed: u64) -> Self {
        assert!(seq_len > 0);
        let mut default_weights = Network::random(topology, 0.2, seed ^ 0xdef0).weights_flat();
        // Bias the default network toward "invalid" so an untrained thread
        // mispredicts heavily and the module is forced into online training
        // (§IV-C: default weights "will cause too many mispredictions").
        // The last flat weight is the output neuron's bias.
        *default_weights.last_mut().expect("nonempty weights") -= 3.0;
        WeightStore { topology, seq_len, per_tid: HashMap::new(), default_weights }
    }

    /// The network topology all threads share.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The dependence-sequence length `N` the network was trained for.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// `chkwt`: whether thread `tid` has stored weights.
    pub fn has_weights(&self, tid: ThreadId) -> bool {
        self.per_tid.contains_key(&tid)
    }

    /// Thread ids with stored weights, ascending.
    pub fn known_threads(&self) -> Vec<ThreadId> {
        let mut ids: Vec<ThreadId> = self.per_tid.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// `ldwt` stream: the weights for `tid` (stored, or the default).
    pub fn weights_for(&self, tid: ThreadId) -> &[f32] {
        self.per_tid.get(&tid).map_or(&self.default_weights, Vec::as_slice)
    }

    /// `stwt` stream: store weights for `tid` (the binary-patching step).
    ///
    /// # Panics
    ///
    /// Panics if the weight vector does not match the topology.
    pub fn store_weights(&mut self, tid: ThreadId, weights: Vec<f32>) {
        assert_eq!(weights.len(), self.topology.weight_count(), "weight size mismatch");
        self.per_tid.insert(tid, weights);
    }

    /// Build a [`Network`] initialized with `tid`'s weights.
    pub fn network_for(&self, tid: ThreadId, learning_rate: f32) -> Network {
        Network::from_flat(self.topology, self.weights_for(tid), learning_rate)
    }
}

/// Shared handle to a [`WeightStore`], used by per-core ACT modules (a
/// thread may migrate between cores across runs) and by the harness that
/// persists weights between executions.
pub type SharedWeightStore = Rc<RefCell<WeightStore>>;

/// Wrap a store for sharing.
pub fn shared(store: WeightStore) -> SharedWeightStore {
    Rc::new(RefCell::new(store))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_thread_gets_default_weights() {
        let store = WeightStore::new(Topology::new(4, 3), 2, 1);
        assert!(!store.has_weights(5));
        assert_eq!(store.weights_for(5).len(), Topology::new(4, 3).weight_count());
    }

    #[test]
    fn store_and_retrieve_round_trips() {
        let topo = Topology::new(4, 3);
        let mut store = WeightStore::new(topo, 2, 1);
        let w: Vec<f32> = (0..topo.weight_count()).map(|i| i as f32).collect();
        store.store_weights(7, w.clone());
        assert!(store.has_weights(7));
        assert_eq!(store.weights_for(7), &w[..]);
        assert_eq!(store.known_threads(), vec![7]);
    }

    #[test]
    fn network_for_uses_stored_weights() {
        let topo = Topology::new(2, 2);
        let mut store = WeightStore::new(topo, 1, 1);
        let trained = Network::random(topo, 0.2, 99);
        store.store_weights(0, trained.weights_flat());
        let mut a = store.network_for(0, 0.2);
        let mut b = trained.clone();
        assert_eq!(a.predict(&[0.3, 0.7]), b.predict(&[0.3, 0.7]));
        // Unknown thread differs (default weights).
        let mut c = store.network_for(1, 0.2);
        assert_ne!(a.predict(&[0.3, 0.7]), c.predict(&[0.3, 0.7]));
    }

    #[test]
    #[should_panic(expected = "weight size mismatch")]
    fn wrong_size_rejected() {
        let mut store = WeightStore::new(Topology::new(2, 2), 1, 1);
        store.store_weights(0, vec![0.0; 3]);
    }
}

// ---------------------------------------------------------------------
// Persistence: the on-disk form of the paper's binary patching.
// ---------------------------------------------------------------------

/// Error produced when parsing a serialized weight store.
#[derive(Debug)]
pub enum ParseWeightsError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for ParseWeightsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseWeightsError::Io(e) => write!(f, "i/o error: {e}"),
            ParseWeightsError::Malformed { line, reason } => {
                write!(f, "malformed weight store at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for ParseWeightsError {}

impl From<std::io::Error> for ParseWeightsError {
    fn from(e: std::io::Error) -> Self {
        ParseWeightsError::Io(e)
    }
}

impl WeightStore {
    /// Serialize the store (topology, sequence length, default and
    /// per-thread weights) to `w` as text.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from `w`.
    pub fn save<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut buf = String::new();
        writeln!(
            buf,
            "actweights v1 {} {} {}",
            self.topology.inputs, self.topology.hidden, self.seq_len
        )
        .expect("string write");
        let mut line = |tag: &str, weights: &[f32]| {
            buf.push_str(tag);
            for v in weights {
                let _ = write!(buf, " {v}");
            }
            buf.push('\n');
        };
        line("default", &self.default_weights);
        for tid in self.known_threads() {
            line(&format!("tid {tid}"), self.weights_for(tid));
        }
        w.write_all(buf.as_bytes())
    }

    /// Save atomically to `path`: write the full serialization to a
    /// temporary file in the *same directory*, then `rename` it into place.
    /// A crash mid-save can therefore never leave a torn, half-written
    /// model file: readers see either the old complete file or the new
    /// complete one.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating, writing, or renaming the
    /// temporary file (which is removed on write failure).
    pub fn save_to_path<P: AsRef<std::path::Path>>(&self, path: P) -> std::io::Result<()> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        // Unique per process so concurrent savers in different processes
        // cannot clobber each other's partial writes; the final rename is
        // last-writer-wins either way.
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        let result = std::fs::File::create(&tmp).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            self.save(&mut w)?;
            use std::io::Write as _;
            w.flush()
        });
        if let Err(e) = result {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        std::fs::rename(&tmp, path)
    }

    /// Parse a store previously produced by [`WeightStore::save`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseWeightsError`] on I/O failure or malformed input.
    pub fn load<R: std::io::BufRead>(r: R) -> Result<WeightStore, ParseWeightsError> {
        let mut lines = r.lines();
        let header = lines
            .next()
            .ok_or(ParseWeightsError::Malformed { line: 1, reason: "empty input".into() })??;
        let mut h = header.split_whitespace();
        if h.next() != Some("actweights") || h.next() != Some("v1") {
            return Err(ParseWeightsError::Malformed { line: 1, reason: "bad header".into() });
        }
        let mut dim = |name: &str| -> Result<usize, ParseWeightsError> {
            h.next()
                .and_then(|v| v.parse().ok())
                .ok_or(ParseWeightsError::Malformed { line: 1, reason: format!("bad {name}") })
        };
        let inputs = dim("inputs")?;
        let hidden = dim("hidden")?;
        let seq_len = dim("seq_len")?;
        let topology = Topology::new(inputs, hidden);
        let mut store = WeightStore::new(topology, seq_len, 0);
        for (i, line) in lines.enumerate() {
            let line = line?;
            let lineno = i + 2;
            if line.is_empty() {
                continue;
            }
            let mut t = line.split_whitespace();
            let bad = |reason: String| ParseWeightsError::Malformed { line: lineno, reason };
            let tag = t.next().ok_or_else(|| bad("missing tag".into()))?;
            let parse_weights =
                |t: std::str::SplitWhitespace<'_>| -> Result<Vec<f32>, ParseWeightsError> {
                    let ws: Result<Vec<f32>, _> = t.map(|v| v.parse::<f32>()).collect();
                    let ws = ws.map_err(|e| ParseWeightsError::Malformed {
                        line: lineno,
                        reason: format!("bad weight: {e}"),
                    })?;
                    if ws.len() != topology.weight_count() {
                        return Err(ParseWeightsError::Malformed {
                            line: lineno,
                            reason: format!(
                                "expected {} weights, got {}",
                                topology.weight_count(),
                                ws.len()
                            ),
                        });
                    }
                    Ok(ws)
                };
            match tag {
                "default" => store.default_weights = parse_weights(t)?,
                "tid" => {
                    let tid: ThreadId = t
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("bad tid".into()))?;
                    let ws = parse_weights(t)?;
                    store.per_tid.insert(tid, ws);
                }
                other => return Err(bad(format!("unknown tag {other}"))),
            }
        }
        Ok(store)
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;

    #[test]
    fn save_load_round_trips() {
        let topo = Topology::new(10, 10);
        let mut store = WeightStore::new(topo, 2, 7);
        store.store_weights(0, Network::random(topo, 0.2, 1).weights_flat());
        store.store_weights(3, Network::random(topo, 0.2, 2).weights_flat());
        let mut buf = Vec::new();
        store.save(&mut buf).unwrap();
        let back = WeightStore::load(buf.as_slice()).unwrap();
        assert_eq!(back.topology(), topo);
        assert_eq!(back.seq_len(), 2);
        assert_eq!(back.known_threads(), vec![0, 3]);
        for tid in [0u32, 3, 99] {
            let a = store.weights_for(tid);
            let b = back.weights_for(tid);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-5, "tid {tid}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn empty_store_round_trips() {
        let topo = Topology::new(4, 2);
        let store = WeightStore::new(topo, 3, 11);
        let mut buf = Vec::new();
        store.save(&mut buf).unwrap();
        let back = WeightStore::load(buf.as_slice()).unwrap();
        assert_eq!(back.topology(), topo);
        assert_eq!(back.seq_len(), 3);
        assert!(back.known_threads().is_empty());
        // Default weights survive (untrained threads behave identically).
        for (x, y) in store.weights_for(0).iter().zip(back.weights_for(0)) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn multi_thread_store_round_trips_per_thread() {
        let topo = Topology::new(5, 4);
        let mut store = WeightStore::new(topo, 2, 3);
        for tid in [0u32, 1, 2, 7, 31] {
            store.store_weights(
                tid,
                Network::random(topo, 0.2, 100 + u64::from(tid)).weights_flat(),
            );
        }
        let mut buf = Vec::new();
        store.save(&mut buf).unwrap();
        let back = WeightStore::load(buf.as_slice()).unwrap();
        assert_eq!(back.known_threads(), vec![0, 1, 2, 7, 31]);
        for tid in [0u32, 1, 2, 7, 31] {
            for (x, y) in store.weights_for(tid).iter().zip(back.weights_for(tid)) {
                assert!((x - y).abs() < 1e-5, "tid {tid}");
            }
        }
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(WeightStore::load(&b"nope"[..]).is_err());
        assert!(WeightStore::load(&b""[..]).is_err());
        // Wrong version tag.
        assert!(WeightStore::load(&b"actweights v2 2 2 1\n"[..]).is_err());
        // Missing dimensions.
        assert!(WeightStore::load(&b"actweights v1 2\n"[..]).is_err());
        // Wrong weight count for the declared topology.
        assert!(WeightStore::load(&b"actweights v1 2 2 1\ndefault 1 2\n"[..]).is_err());
        // Unknown tag.
        assert!(WeightStore::load(&b"actweights v1 2 2 1\nwhat 1\n"[..]).is_err());
        // Non-numeric weight.
        assert!(WeightStore::load(&b"actweights v1 1 1 1\ntid 0 a b c d\n"[..]).is_err());
        // Missing thread id.
        assert!(WeightStore::load(&b"actweights v1 1 1 1\ntid\n"[..]).is_err());
    }

    #[test]
    fn atomic_save_to_path_round_trips_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("actw-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.weights");
        let topo = Topology::new(3, 2);
        let mut store = WeightStore::new(topo, 2, 5);
        store.store_weights(4, Network::random(topo, 0.2, 9).weights_flat());
        store.save_to_path(&path).unwrap();
        // Overwrite with a second save: the rename must replace atomically.
        store.store_weights(5, Network::random(topo, 0.2, 10).weights_flat());
        store.save_to_path(&path).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let back = WeightStore::load(std::io::BufReader::new(file)).unwrap();
        assert_eq!(back.known_threads(), vec![4, 5]);
        // No .tmp.* litter remains next to the target.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_to_path_into_missing_dir_fails_cleanly() {
        let store = WeightStore::new(Topology::new(2, 2), 1, 1);
        let err = store.save_to_path("/nonexistent-dir-for-act-tests/model.weights");
        assert!(err.is_err());
    }
}
