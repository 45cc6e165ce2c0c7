//! The one-hidden-layer neural network (ACT's partially configurable
//! topology `i × h × 1`, with `1 ≤ i, h ≤ M`).
//!
//! Learning is standard online back-propagation with a sigmoid activation,
//! exactly as §II-A describes: the output error is
//! `err = o·(1−o)·(t−o)`, weights are updated along the gradient scaled by
//! the learning rate, and the error is propagated to the hidden layer in
//! proportion to the link weights.

use crate::sigmoid::{sigmoid, sigmoid_deriv_from_output, sigmoid_map, SigmoidMode, SigmoidTable};
use act_rng::rngs::StdRng;
use act_rng::{Rng, SeedableRng};

/// A network shape: `inputs × hidden × 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Topology {
    /// Number of inputs (`i`).
    pub inputs: usize,
    /// Number of hidden neurons (`h`).
    pub hidden: usize,
}

impl Topology {
    /// Construct a topology.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(inputs: usize, hidden: usize) -> Self {
        assert!(inputs > 0 && hidden > 0, "topology dimensions must be positive");
        Topology { inputs, hidden }
    }

    /// Total number of link weights (including biases): the size of the flat
    /// weight vector stored per thread in the program binary.
    pub fn weight_count(&self) -> usize {
        self.hidden * (self.inputs + 1) + (self.hidden + 1)
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x1", self.inputs, self.hidden)
    }
}

/// Classification threshold: outputs at or above this are "valid".
pub const VALID_THRESHOLD: f32 = 0.5;

/// Round up to a multiple of the 4-lane accumulation width.
fn pad4(n: usize) -> usize {
    (n + 3) & !3
}

/// A one-hidden-layer MLP with a single output neuron.
///
/// # Weight layouts
///
/// The **serialization** layout — what [`Network::from_flat`] consumes and
/// [`Network::weights_flat`] produces, and what `ldwt`/`stwt` stream to the
/// program binary — is `hidden` rows of `inputs + 1` (last element of each
/// row is the bias), then the output row of `hidden + 1`.
///
/// The **compute** layout is different: hidden rows are grouped into tiles
/// of four and stored column-major within each tile
/// (`w[tile][col][row_in_tile]`, with the bias as column `inputs`), followed
/// by the output row padded to a multiple of four. The tile layout is what
/// makes the forward pass fast on a 4-lane SIMD machine: one broadcast of
/// `x[col]` accumulates four rows' dot products in four register lanes, and
/// the hidden layer finishes with **no horizontal reductions at all**
/// (DESIGN.md § Performance). Rows past `hidden` in the last tile are
/// all-zero and stay zero through training (their error terms are pinned to
/// zero), so they never affect the output.
#[derive(Debug, Clone)]
pub struct Network {
    topo: Topology,
    /// All link weights in the *compute* layout (see the struct docs).
    weights: Vec<f32>,
    /// Learning rate (the paper uses 0.2).
    lr: f32,
    sigmoid: SigmoidMode,
    /// Scratch: hidden activations, padded to a whole number of 4-lanes.
    /// `hidden_act[hidden]` holds the folded 1.0 bias input of the output
    /// row; other pad lanes are zero and stay zero.
    hidden_act: Vec<f32>,
    /// Scratch: hidden-layer errors (training), padded like the tiles.
    /// Pad entries are permanently zero so pad rows never learn.
    err_h: Vec<f32>,
    /// Scratch: per-element hidden activations for [`Network::predict_batch`],
    /// `stride` floats per batch element (same invariants as `hidden_act`).
    /// Grows to the largest batch seen, then never reallocates.
    batch_act: Vec<f32>,
}

impl Network {
    /// A network with small random weights in `[-0.5, 0.5]`.
    pub fn random(topo: Topology, lr: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // Hidden rows first, then the output row — one stream, the same
        // draw order the serialization layout uses.
        let flat: Vec<f32> = (0..topo.weight_count()).map(|_| rng.gen_range(-0.5..0.5)).collect();
        Self::with_flat_weights(topo, &flat, lr)
    }

    /// Build the compute-layout storage from serialization-layout weights.
    fn with_flat_weights(topo: Topology, flat: &[f32], lr: f32) -> Self {
        let ni = topo.inputs;
        let nh = topo.hidden;
        let cols = ni + 1;
        let nh_pad = pad4(nh);
        let out_stride = pad4(nh + 1);
        let mut weights = vec![0.0; nh_pad * cols + out_stride];
        for h in 0..nh {
            let tile = &mut weights[(h / 4) * 4 * cols..];
            for c in 0..cols {
                tile[4 * c + h % 4] = flat[h * cols + c];
            }
        }
        weights[nh_pad * cols..nh_pad * cols + nh + 1].copy_from_slice(&flat[nh * cols..]);
        Network {
            topo,
            weights,
            lr,
            sigmoid: SigmoidMode::Exact,
            hidden_act: vec![0.0; nh_pad.max(out_stride)],
            err_h: vec![0.0; nh_pad],
            batch_act: Vec::new(),
        }
    }

    /// Rebuild a network from a flat weight vector in the serialization
    /// layout (see the struct docs).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != topo.weight_count()`.
    pub fn from_flat(topo: Topology, weights: &[f32], lr: f32) -> Self {
        assert_eq!(weights.len(), topo.weight_count(), "weight vector size mismatch");
        Self::with_flat_weights(topo, weights, lr)
    }

    /// Switch the activation implementation (exact vs hardware table).
    pub fn set_sigmoid(&mut self, mode: SigmoidMode) {
        self.sigmoid = mode;
    }

    /// The network's topology.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// The learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// All weights in the order `ldwt`/`stwt` would stream them: hidden
    /// rows (bias last in each row), then the output row. Gathers out of
    /// the tiled compute layout — one pass, done on the cold store path
    /// (thread end, checkpoint), never per prediction.
    pub fn weights_flat(&self) -> Vec<f32> {
        let ni = self.topo.inputs;
        let nh = self.topo.hidden;
        let cols = ni + 1;
        let mut flat = vec![0.0; self.topo.weight_count()];
        for h in 0..nh {
            let tile = &self.weights[(h / 4) * 4 * cols..];
            for c in 0..cols {
                flat[h * cols + c] = tile[4 * c + h % 4];
            }
        }
        flat[nh * cols..].copy_from_slice(&self.weights[pad4(nh) * cols..][..nh + 1]);
        flat
    }

    /// Dot product of two equal-length slices whose length is a multiple of
    /// four, accumulated in **four fixed lanes**: element `i` goes to lane
    /// `i % 4`, lanes combine as `(l0 + l1) + (l2 + l3)`. This is the
    /// output-row summation contract (DESIGN.md § Performance):
    /// deterministic for a given length and auto-vectorizable with no
    /// scalar tail.
    #[inline]
    fn dot_lanes(row: &[f32], v: &[f32]) -> f32 {
        debug_assert_eq!(row.len(), v.len());
        debug_assert_eq!(row.len() % 4, 0);
        let mut l = [0.0f32; 4];
        for (r, x) in row.chunks_exact(4).zip(v.chunks_exact(4)) {
            l[0] += r[0] * x[0];
            l[1] += r[1] * x[1];
            l[2] += r[2] * x[2];
            l[3] += r[3] * x[3];
        }
        (l[0] + l[1]) + (l[2] + l[3])
    }

    /// Forward pass. Returns the output activation in `(0, 1)`.
    ///
    /// Hidden pre-activations accumulate tile-by-tile: lane `r` of a tile's
    /// accumulator starts at the row's bias and adds `w[4t+r][c] · x[c]`
    /// left-to-right over the columns — plain sequential summation per row,
    /// so the result is independent of the tiling. `x[c]` is read with
    /// *scalar* loads on purpose: the caller typically just wrote `x`
    /// feature-by-feature (the encoder), and reading it back with vector
    /// loads would stall on failed store-to-load forwarding. The activation
    /// is then applied over the whole padded slice at once
    /// ([`sigmoid_map`]), and the output row uses the [`Self::dot_lanes`]
    /// contract with the bias folded in as the `hidden_act[hidden] = 1.0`
    /// element.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != topology().inputs`.
    #[inline]
    pub fn predict(&mut self, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.topo.inputs, "input size mismatch");
        let ni = self.topo.inputs;
        let nh = self.topo.hidden;
        let cols = ni + 1;
        let (tiles, out_w) = self.weights.split_at(pad4(nh) * cols);
        for (ti, tile) in tiles.chunks_exact(4 * cols).enumerate() {
            let (xw, bias) = tile.split_at(4 * ni);
            let mut acc = [bias[0], bias[1], bias[2], bias[3]];
            for (col, &xc) in xw.chunks_exact(4).zip(x.iter()) {
                acc[0] += col[0] * xc;
                acc[1] += col[1] * xc;
                acc[2] += col[2] * xc;
                acc[3] += col[3] * xc;
            }
            self.hidden_act[4 * ti..4 * ti + 4].copy_from_slice(&acc);
        }
        // Dispatch on the sigmoid mode *once* per prediction, not once per
        // neuron; the exact path applies the activation as one outlined
        // vectorized map over the slice.
        // The map covers the pad lanes too: `pad4(nh)` elements is a whole
        // number of 4-wide chunks (a `..nh` map would end in scalar-tail
        // sigmoids, each costing as much as a whole 4-wide chunk). Pad
        // lanes end up holding `sigmoid(0) = 0.5`, which is inert — their
        // output-row weights are zero — and the bias slot is overwritten
        // with its 1.0 right after.
        let nh_pad = pad4(nh);
        let out_stride = pad4(nh + 1);
        match self.sigmoid {
            SigmoidMode::Exact => {
                sigmoid_map(&mut self.hidden_act[..nh_pad]);
                self.hidden_act[nh] = 1.0;
                sigmoid(Self::dot_lanes(out_w, &self.hidden_act[..out_stride]))
            }
            SigmoidMode::Table => {
                let t = SigmoidTable::hardware_default();
                for a in &mut self.hidden_act[..nh_pad] {
                    *a = t.eval(*a);
                }
                self.hidden_act[nh] = 1.0;
                t.eval(Self::dot_lanes(out_w, &self.hidden_act[..out_stride]))
            }
        }
    }

    /// Whether an output classifies the sequence as valid.
    pub fn classify(output: f32) -> bool {
        output >= VALID_THRESHOLD
    }

    /// Batched forward pass: evaluate `B = xs.len() / inputs` inputs, laid
    /// out back to back in `xs`, and append their outputs to `out` in
    /// order. **Bit-identical** to calling [`Network::predict`] on each
    /// input in turn — see the determinism argument below — but much
    /// faster for B > 1: the hidden layer runs as a tiled matrix-matrix
    /// product in 4×4 register blocks (four hidden rows × four batch
    /// elements), so each tile's weight columns are loaded once per block
    /// of four inputs instead of once per input.
    ///
    /// Determinism: per element, every hidden row still accumulates
    /// bias-first then columns left-to-right (the blocking interleaves
    /// *elements*, never an element's own additions), the activation map
    /// covers the same padded slice, and the output row uses the same
    /// [`Self::dot_lanes`] contract over a per-element scratch slice that
    /// carries the exact invariants of `hidden_act` (pad lanes zero, bias
    /// slot 1.0). Same inputs, same float ops, same order ⇒ same bits.
    ///
    /// Scratch (`batch_act`) grows to the largest batch seen and is then
    /// reused: a steady-state caller with a bounded batch size allocates
    /// nothing (`out` reuses the caller's capacity; only `extend` beyond
    /// it allocates).
    ///
    /// # Panics
    ///
    /// Panics if `xs.len()` is not a multiple of `topology().inputs`.
    pub fn predict_batch(&mut self, xs: &[f32], out: &mut Vec<f32>) {
        let ni = self.topo.inputs;
        let nh = self.topo.hidden;
        assert_eq!(xs.len() % ni, 0, "batch input size mismatch");
        let b = xs.len() / ni;
        let cols = ni + 1;
        let nh_pad = pad4(nh);
        let out_stride = pad4(nh + 1);
        let stride = nh_pad.max(out_stride);
        if self.batch_act.len() < b * stride {
            // Fresh slots start (and pad slots stay) zero, the same
            // invariant `hidden_act` is constructed with.
            self.batch_act.resize(b * stride, 0.0);
        }

        let (tiles, out_w) = self.weights.split_at(nh_pad * cols);
        for (ti, tile) in tiles.chunks_exact(4 * cols).enumerate() {
            let (xw, bias) = tile.split_at(4 * ni);
            let bias = [bias[0], bias[1], bias[2], bias[3]];
            // Full 4-element blocks: 16 accumulator lanes, one weight
            // column load shared by four inputs.
            let mut e = 0;
            while e + 4 <= b {
                let x0 = &xs[e * ni..][..ni];
                let x1 = &xs[(e + 1) * ni..][..ni];
                let x2 = &xs[(e + 2) * ni..][..ni];
                let x3 = &xs[(e + 3) * ni..][..ni];
                let (mut a0, mut a1, mut a2, mut a3) = (bias, bias, bias, bias);
                for (c, col) in xw.chunks_exact(4).enumerate() {
                    let (y0, y1, y2, y3) = (x0[c], x1[c], x2[c], x3[c]);
                    a0[0] += col[0] * y0;
                    a0[1] += col[1] * y0;
                    a0[2] += col[2] * y0;
                    a0[3] += col[3] * y0;
                    a1[0] += col[0] * y1;
                    a1[1] += col[1] * y1;
                    a1[2] += col[2] * y1;
                    a1[3] += col[3] * y1;
                    a2[0] += col[0] * y2;
                    a2[1] += col[1] * y2;
                    a2[2] += col[2] * y2;
                    a2[3] += col[3] * y2;
                    a3[0] += col[0] * y3;
                    a3[1] += col[1] * y3;
                    a3[2] += col[2] * y3;
                    a3[3] += col[3] * y3;
                }
                for (k, acc) in [a0, a1, a2, a3].iter().enumerate() {
                    self.batch_act[(e + k) * stride + 4 * ti..][..4].copy_from_slice(acc);
                }
                e += 4;
            }
            // Remainder elements: the scalar shape of `predict`'s loop.
            while e < b {
                let x = &xs[e * ni..][..ni];
                let mut acc = bias;
                for (col, &xc) in xw.chunks_exact(4).zip(x.iter()) {
                    acc[0] += col[0] * xc;
                    acc[1] += col[1] * xc;
                    acc[2] += col[2] * xc;
                    acc[3] += col[3] * xc;
                }
                self.batch_act[e * stride + 4 * ti..][..4].copy_from_slice(&acc);
                e += 1;
            }
        }

        out.reserve(b);
        for e in 0..b {
            let h = &mut self.batch_act[e * stride..][..stride];
            let o = match self.sigmoid {
                SigmoidMode::Exact => {
                    sigmoid_map(&mut h[..nh_pad]);
                    h[nh] = 1.0;
                    sigmoid(Self::dot_lanes(out_w, &h[..out_stride]))
                }
                SigmoidMode::Table => {
                    let t = SigmoidTable::hardware_default();
                    for a in &mut h[..nh_pad] {
                        *a = t.eval(*a);
                    }
                    h[nh] = 1.0;
                    t.eval(Self::dot_lanes(out_w, &h[..out_stride]))
                }
            };
            out.push(o);
        }
    }

    /// Batched classify: [`Network::predict_batch`] plus the
    /// [`Network::classify`] threshold per element, appended to `valid`.
    /// `out` receives the raw outputs (same contract as `predict_batch`).
    pub fn classify_batch(&mut self, xs: &[f32], out: &mut Vec<f32>, valid: &mut Vec<bool>) {
        let first = out.len();
        self.predict_batch(xs, out);
        valid.reserve(out.len() - first);
        valid.extend(out[first..].iter().map(|&o| Self::classify(o)));
    }

    /// One step of online back-propagation toward target `t` (0 or 1).
    /// Returns the output *before* the update.
    ///
    /// The output-layer gradient uses the cross-entropy form `(t − o)`
    /// rather than the squared-error form `o·(1−o)·(t−o)` that §II-A
    /// writes: the extra `o·(1−o)` factor vanishes when the output
    /// saturates on the wrong side (the "flat spot"), which prevents the
    /// rare invalid examples from ever pulling a confidently-valid output
    /// down. Cross-entropy is the standard cure and what practical MLP
    /// libraries (the paper trains with OpenCV) effectively deliver.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != topology().inputs`.
    pub fn train(&mut self, x: &[f32], t: f32) -> f32 {
        let o = self.predict(x);
        let err_o = t - o;

        let ni = self.topo.inputs;
        let nh = self.topo.hidden;
        let cols = ni + 1;
        let tile_len = pad4(nh) * cols;

        // Hidden-layer errors use the *pre-update* output weights. `err_h`
        // is a persistent scratch field (pads pinned to zero so pad rows
        // never learn): the steady-state training loop allocates nothing.
        for h in 0..nh {
            self.err_h[h] =
                sigmoid_deriv_from_output(self.hidden_act[h]) * self.weights[tile_len + h] * err_o;
        }

        let (tiles, out_w) = self.weights.split_at_mut(tile_len);

        // Update output weights. `hidden_act[nh]` still holds the folded
        // 1.0 bias input from the forward pass, so one loop updates the
        // bias along with the links.
        let scale = self.lr * err_o;
        for (w, &a) in out_w[..nh + 1].iter_mut().zip(&self.hidden_act) {
            *w += scale * a;
        }

        // Update hidden weights tile-by-tile: the same broadcast shape as
        // the forward pass, with the bias column stepped by `s · 1.0`.
        for (ti, tile) in tiles.chunks_exact_mut(4 * cols).enumerate() {
            let s = [
                self.lr * self.err_h[4 * ti],
                self.lr * self.err_h[4 * ti + 1],
                self.lr * self.err_h[4 * ti + 2],
                self.lr * self.err_h[4 * ti + 3],
            ];
            let (xw, bias) = tile.split_at_mut(4 * ni);
            for (col, &xc) in xw.chunks_exact_mut(4).zip(x.iter()) {
                col[0] += s[0] * xc;
                col[1] += s[1] * xc;
                col[2] += s[2] * xc;
                col[3] += s[3] * xc;
            }
            bias[0] += s[0];
            bias[1] += s[1];
            bias[2] += s[2];
            bias[3] += s[3];
        }
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_count_matches_flat_round_trip() {
        let topo = Topology::new(4, 3);
        assert_eq!(topo.weight_count(), 3 * 5 + 4);
        let mut net = Network::random(topo, 0.2, 1);
        let flat = net.weights_flat();
        assert_eq!(flat.len(), topo.weight_count());
        let mut clone = Network::from_flat(topo, &flat, 0.2);
        let x = [0.1, 0.2, 0.3, 0.4];
        assert_eq!(net.predict(&x), clone.predict(&x));
    }

    #[test]
    fn flat_round_trip_is_exact_for_many_shapes() {
        // The tiled compute layout must gather back to exactly the flat
        // vector it was scattered from, whatever the padding situation.
        for (ni, nh) in [(1, 1), (3, 4), (4, 4), (10, 10), (7, 9), (12, 8), (5, 13)] {
            let topo = Topology::new(ni, nh);
            let net = Network::random(topo, 0.2, (ni * 31 + nh) as u64);
            let flat = net.weights_flat();
            let again = Network::from_flat(topo, &flat, 0.2).weights_flat();
            assert_eq!(flat, again, "round trip for {topo}");
        }
    }

    #[test]
    fn training_keeps_pad_rows_zero() {
        // Pad rows in the last tile must stay all-zero through training,
        // or they would leak into flat serialization of a *wider* reload.
        let topo = Topology::new(3, 5); // nh = 5 -> 3 pad rows
        let mut net = Network::random(topo, 0.5, 11);
        let x = [0.2, 0.7, 0.4];
        for i in 0..50 {
            net.train(&x, (i % 2) as f32);
        }
        let cols = topo.inputs + 1;
        for row in 5..8 {
            let tile = &net.weights[(row / 4) * 4 * cols..];
            for c in 0..cols {
                assert_eq!(tile[4 * c + row % 4], 0.0, "pad row {row} col {c} drifted");
            }
        }
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn from_flat_rejects_wrong_length() {
        let _ = Network::from_flat(Topology::new(2, 2), &[0.0; 5], 0.2);
    }

    #[test]
    #[should_panic(expected = "input size mismatch")]
    fn predict_rejects_wrong_input_len() {
        let mut net = Network::random(Topology::new(3, 2), 0.2, 0);
        let _ = net.predict(&[0.0, 1.0]);
    }

    #[test]
    fn output_is_a_probability() {
        let mut net = Network::random(Topology::new(6, 5), 0.2, 42);
        for i in 0..50 {
            let x: Vec<f32> = (0..6).map(|j| ((i * 7 + j * 3) % 11) as f32 / 11.0).collect();
            let o = net.predict(&x);
            assert!(o > 0.0 && o < 1.0);
        }
    }

    #[test]
    fn training_moves_output_toward_target() {
        let mut net = Network::random(Topology::new(2, 3), 0.5, 7);
        let x = [0.3, 0.8];
        let before = net.predict(&x);
        for _ in 0..200 {
            net.train(&x, 1.0);
        }
        let after = net.predict(&x);
        assert!(after > before, "output should rise toward 1: {before} -> {after}");
        assert!(after > 0.9);
    }

    #[test]
    fn learns_xor() {
        // XOR is the classic non-linearly-separable sanity check: it requires
        // the hidden layer to work.
        let data = [([0.0, 0.0], 0.0), ([0.0, 1.0], 1.0), ([1.0, 0.0], 1.0), ([1.0, 1.0], 0.0)];
        let mut net = Network::random(Topology::new(2, 4), 0.5, 3);
        for _ in 0..8000 {
            for (x, t) in &data {
                net.train(x, *t);
            }
        }
        for (x, t) in &data {
            let o = net.predict(x);
            assert_eq!(Network::classify(o), *t >= 0.5, "xor({x:?}) -> {o}");
        }
    }

    #[test]
    fn classify_threshold() {
        assert!(Network::classify(0.5));
        assert!(Network::classify(0.9));
        assert!(!Network::classify(0.49));
    }

    #[test]
    fn predict_batch_is_bit_identical_to_sequential() {
        // Every batch size around the 4-element blocking boundary, several
        // topologies around the 4-row tile boundary, both sigmoid modes.
        for (ni, nh) in [(1, 1), (3, 4), (4, 4), (10, 10), (7, 9), (12, 8), (5, 13)] {
            let topo = Topology::new(ni, nh);
            for mode in [SigmoidMode::Exact, SigmoidMode::Table] {
                let mut net = Network::random(topo, 0.2, (ni * 131 + nh) as u64);
                net.set_sigmoid(mode);
                for b in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 33] {
                    let xs: Vec<f32> =
                        (0..b * ni).map(|i| ((i * 37 + 5) % 23) as f32 / 23.0 - 0.3).collect();
                    let mut batched = Vec::new();
                    net.predict_batch(&xs, &mut batched);
                    let seq: Vec<f32> = xs.chunks_exact(ni).map(|x| net.predict(x)).collect();
                    assert_eq!(
                        batched.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                        seq.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                        "{topo} {mode:?} B={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn classify_batch_applies_the_threshold_per_element() {
        let topo = Topology::new(4, 4);
        let mut net = Network::random(topo, 0.2, 17);
        let xs: Vec<f32> = (0..6 * 4).map(|i| (i % 9) as f32 / 9.0).collect();
        let (mut out, mut valid) = (Vec::new(), Vec::new());
        net.classify_batch(&xs, &mut out, &mut valid);
        assert_eq!(out.len(), 6);
        assert_eq!(valid.len(), 6);
        for (o, v) in out.iter().zip(&valid) {
            assert_eq!(Network::classify(*o), *v);
        }
    }

    #[test]
    fn predict_batch_handles_the_empty_batch() {
        let mut net = Network::random(Topology::new(3, 2), 0.2, 1);
        let mut out = Vec::new();
        net.predict_batch(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "batch input size mismatch")]
    fn predict_batch_rejects_ragged_input() {
        let mut net = Network::random(Topology::new(3, 2), 0.2, 0);
        net.predict_batch(&[0.0; 7], &mut Vec::new());
    }

    #[test]
    fn table_sigmoid_stays_close_to_exact() {
        let topo = Topology::new(4, 4);
        let mut a = Network::random(topo, 0.2, 9);
        let mut b = a.clone();
        b.set_sigmoid(SigmoidMode::Table);
        let x = [0.2, 0.4, 0.6, 0.8];
        assert!((a.predict(&x) - b.predict(&x)).abs() < 5e-3);
    }
}
