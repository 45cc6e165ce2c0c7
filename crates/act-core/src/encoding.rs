//! Encoding RAW dependence sequences as neural-network input vectors.
//!
//! Each dependence contributes five features ([`FEATURES_PER_DEP`]):
//!
//! * the store's instruction address, normalized by code length, with the
//!   inter-thread flag folded into the low-order half of the feature's
//!   resolution (`(2·pc + inter) / (2·code_len)`);
//! * the load's instruction address, normalized by code length;
//! * three *signature bits* — independent full-scale hash bits of the
//!   (store, load, inter-thread) triple.
//!
//! The two positional features give the network locality: nearby
//! instruction addresses map to nearby inputs, which is what lets it
//! generalize to *new but similar* code (§II-C, Fig 7(b)). The signature
//! bits give it separability: two dependences whose store addresses
//! differ by a few instructions (exactly what a synthesized negative
//! example looks like) land far apart, so the classifier does not need
//! cliff-steep weights to tell them apart — a one-hidden-layer network
//! with learning rate 0.2 could not learn boundaries at a resolution of
//! one part in a few thousand otherwise.

use act_sim::events::RawDep;

/// Features produced per dependence.
pub const FEATURES_PER_DEP: usize = 5;

/// Encoder bound to a program's code length.
#[derive(Debug, Clone, Copy)]
pub struct Encoder {
    code_len: usize,
    /// `1 / code_len`, precomputed: the hot path multiplies instead of
    /// dividing (a divide is the longest-latency op in the feature math).
    inv_code_len: f32,
    /// `1 / (2 · code_len)`, for the store feature's half-step resolution.
    inv_denom: f32,
}

impl PartialEq for Encoder {
    fn eq(&self, other: &Self) -> bool {
        // The reciprocals are derived from `code_len`.
        self.code_len == other.code_len
    }
}

impl Eq for Encoder {}

impl Encoder {
    /// Encoder for a program with `code_len` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `code_len == 0`.
    pub fn new(code_len: usize) -> Self {
        assert!(code_len > 0, "code length must be positive");
        Encoder {
            code_len,
            inv_code_len: 1.0 / code_len as f32,
            inv_denom: 1.0 / (2 * code_len) as f32,
        }
    }

    /// The code length this encoder normalizes by.
    pub fn code_len(&self) -> usize {
        self.code_len
    }

    /// Input-vector width for sequences of `n` dependences.
    pub fn input_width(&self, n: usize) -> usize {
        n * FEATURES_PER_DEP
    }

    /// The three signature bits of a dependence: independent hash bits at
    /// full feature scale (0 or 1), so two distinct dependences differ by
    /// a full-scale step in some signature dimension with probability 7/8.
    /// Full-scale separation is what makes set-membership learnable by a
    /// small MLP: each valid sequence occupies a corner of the bit-cube
    /// that one or two hidden units can latch onto.
    fn signature_bits(dep: &RawDep) -> (f32, f32, f32) {
        let i = dep.inter_thread as u32;
        let mix = |a: u32, b: u32, c: u32| -> f32 {
            let h = dep
                .store_pc
                .wrapping_mul(a)
                .wrapping_add(dep.load_pc.wrapping_mul(b))
                .wrapping_add(i.wrapping_mul(c));
            // Fold the upper bits down so nearby PCs flip bits too.
            ((h ^ (h >> 3) ^ (h >> 7)) & 1) as f32
        };
        (mix(31, 7, 1), mix(13, 3, 5), mix(23, 11, 9))
    }

    /// The five features of `dep`, written into a fixed-size chunk. Plain
    /// indexed stores into an array: no per-feature capacity checks, and
    /// the whole chunk's math schedules as one straight line.
    #[inline]
    fn encode_dep(&self, dep: &RawDep, out: &mut [f32; FEATURES_PER_DEP]) {
        let store = (2 * dep.store_pc as usize + dep.inter_thread as usize) as f32 * self.inv_denom;
        let load = dep.load_pc as f32 * self.inv_code_len;
        let (b1, b2, b3) = Self::signature_bits(dep);
        out[0] = store.min(1.0);
        out[1] = load.min(1.0);
        out[2] = b1;
        out[3] = b2;
        out[4] = b3;
    }

    /// Append the five features of `dep` to `out`.
    #[inline]
    pub fn encode_into(&self, dep: &RawDep, out: &mut Vec<f32>) {
        let mut f = [0.0; FEATURES_PER_DEP];
        self.encode_dep(dep, &mut f);
        out.extend_from_slice(&f);
    }

    /// Encode a sequence supplied by iterator (oldest dependence first)
    /// into a reusable buffer: `out` is reshaped to the sequence's width
    /// and every slot overwritten, so a caller that keeps one scratch
    /// vector allocates nothing per prediction in the steady state — and a
    /// caller holding a ring buffer can feed the window straight from it,
    /// with no intermediate contiguous copy.
    #[inline]
    pub fn encode_iter_into<I>(&self, deps: I, out: &mut Vec<f32>)
    where
        I: IntoIterator<Item = RawDep>,
        I::IntoIter: ExactSizeIterator,
    {
        let it = deps.into_iter();
        let width = self.input_width(it.len());
        // Steady state the length already matches: no clear, no zero-fill,
        // every feature slot is overwritten below.
        if out.len() != width {
            out.clear();
            out.resize(width, 0.0);
        }
        for (d, chunk) in it.zip(out.chunks_exact_mut(FEATURES_PER_DEP)) {
            self.encode_dep(&d, chunk.try_into().expect("chunk is FEATURES_PER_DEP wide"));
        }
    }

    /// Encode a contiguous sequence (oldest dependence first) into a
    /// reusable buffer. See [`Encoder::encode_iter_into`].
    #[inline]
    pub fn encode_seq_into(&self, deps: &[RawDep], out: &mut Vec<f32>) {
        self.encode_iter_into(deps.iter().copied(), out);
    }

    /// Encode a full sequence (oldest dependence first) into a fresh vector.
    pub fn encode_seq(&self, deps: &[RawDep]) -> Vec<f32> {
        let mut out = Vec::new();
        self.encode_seq_into(deps, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dep(s: u32, l: u32, inter: bool) -> RawDep {
        RawDep { store_pc: s, load_pc: l, inter_thread: inter }
    }

    #[test]
    fn features_are_normalized() {
        let e = Encoder::new(100);
        let x = e.encode_seq(&[dep(50, 99, false)]);
        assert_eq!(x.len(), 5);
        assert!((x[0] - 0.5).abs() < 1e-6);
        assert!((x[1] - 0.99).abs() < 1e-6);
        assert!(x.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn inter_thread_flag_shifts_store_feature() {
        let e = Encoder::new(100);
        let intra = e.encode_seq(&[dep(50, 10, false)]);
        let inter = e.encode_seq(&[dep(50, 10, true)]);
        assert!(inter[0] > intra[0]);
        assert_eq!(intra[1], inter[1]);
        // The signature also separates the two.
        assert!(intra[2..] != inter[2..]);
    }

    #[test]
    fn nearby_pcs_give_nearby_positional_features() {
        let e = Encoder::new(1000);
        let a = e.encode_seq(&[dep(500, 600, false)]);
        let b = e.encode_seq(&[dep(501, 601, false)]);
        let far = e.encode_seq(&[dep(10, 990, false)]);
        let dist = |u: &[f32], v: &[f32]| (u[0] - v[0]).abs().max((u[1] - v[1]).abs());
        assert!(dist(&a, &b) < dist(&a, &far));
    }

    #[test]
    fn adjacent_stores_are_separable_via_signature() {
        // Two dependences whose stores differ by a couple of instructions
        // (a typical synthesized negative) must differ strongly in at
        // least one feature.
        let e = Encoder::new(200);
        let pos = e.encode_seq(&[dep(14, 35, true)]);
        let neg = e.encode_seq(&[dep(10, 35, true)]);
        let max_gap = pos.iter().zip(&neg).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        assert!(max_gap > 0.05, "gap {max_gap} too small to learn");
    }

    #[test]
    fn sequence_width_is_three_per_dep() {
        let e = Encoder::new(10);
        let seq = [dep(1, 2, false), dep(3, 4, true), dep(5, 6, false)];
        assert_eq!(e.encode_seq(&seq).len(), 15);
        assert_eq!(e.input_width(3), 15);
    }

    #[test]
    fn distinct_deps_encode_distinctly() {
        let e = Encoder::new(64);
        let a = e.encode_seq(&[dep(5, 9, false)]);
        let b = e.encode_seq(&[dep(6, 9, false)]);
        let c = e.encode_seq(&[dep(5, 8, false)]);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_code_len_rejected() {
        let _ = Encoder::new(0);
    }
}
