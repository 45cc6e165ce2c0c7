//! Sigmoid activation: exact form and the hardware lookup table.
//!
//! The paper's neuron contains a *sigmoid table* rather than a transcendental
//! unit; [`SigmoidTable`] models it. The offline trainer may use the exact
//! function; the hardware-faithful path uses the table. A unit test bounds
//! the divergence between the two so training/inference mismatch cannot
//! silently skew predictions.

/// Exact logistic sigmoid.
///
/// The exponential is an inlinable branch-free polynomial (Cephes-style
/// `2^f` minimax, relative error ≲ 1e-7 — two orders tighter than the
/// hardware table's 1e-3 budget) rather than libm's `expf`. libm is an
/// opaque call the optimizer can neither inline nor schedule around, and
/// on the deployment hot path the call boundary alone costs more than the
/// arithmetic: one prediction evaluates the sigmoid once per hidden
/// neuron plus once for the output.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp_fast(-x))
}

/// Branch-free `e^x` over the sigmoid's useful range.
///
/// The input is clamped to ±30 (`sigmoid(±30)` is within 1e-13 of full
/// saturation), which also keeps the constructed exponent field in
/// `2^±44` — no overflow, underflow, or denormals to special-case. The
/// split `e^x = 2^k · 2^f` rounds `k` with the shift-into-mantissa trick
/// so the whole function is straight-line arithmetic.
#[inline]
fn exp_fast(x: f32) -> f32 {
    // 1.5 · 2^23: adding it forces the integer part of a small f32 into
    // the low mantissa bits, so the add-then-subtract rounds to nearest.
    const MAGIC: f32 = 12_582_912.0;
    let t = x.clamp(-30.0, 30.0) * std::f32::consts::LOG2_E;
    let kf = t + MAGIC; // bits: MAGIC's pattern plus k in the mantissa
    let k = kf - MAGIC;
    let f = t - k; // in [-0.5, 0.5]
                   // Minimax polynomial for 2^f on [-0.5, 0.5] (Cephes exp2f
                   // coefficients), evaluated in Estrin form: the three sub-terms are
                   // independent, which roughly halves the dependency chain vs Horner —
                   // this is latency-bound code with no FMA on the baseline target.
    let f2 = f * f;
    let f4 = f2 * f2;
    let q0 = 6.931_472e-1 * f + 1.0;
    let q1 = 5.550_332_5e-2 * f + 2.402_264_7e-1;
    let q2 = 1.339_887_4e-3 * f + 9.618_438e-3;
    let p = q0 + f2 * q1 + f4 * (q2 + f2 * 1.535_336_2e-4);
    // 2^k assembled directly in the exponent field. `k` is recovered from
    // `kf`'s low mantissa bits with integer arithmetic: `to_bits(kf) =
    // to_bits(MAGIC) + k` exactly while `MAGIC + k` stays inside MAGIC's
    // binade (|k| ≤ 44 here). A float→int *cast* instead would defeat
    // vectorization of the whole function: Rust's saturating `as i32`
    // lowers to a scalar convert plus NaN/range fix-ups per lane.
    let k_bits = kf.to_bits().wrapping_sub(MAGIC.to_bits()); // k as two's-complement u32
    p * f32::from_bits(k_bits.wrapping_add(127) << 23)
}

/// Apply [`sigmoid`] to every element of a slice, in place.
///
/// Deliberately `#[inline(never)]`: as a standalone function the loop
/// auto-vectorizes into clean 4-wide code, while the same loop inlined
/// among a caller's surrounding scalar work gets unrolled *scalar* instead
/// (measured ~2× slower for a 10-element hidden layer). One outlined call
/// per prediction amortizes to nothing; a scalarized activation map does
/// not.
#[inline(never)]
pub fn sigmoid_map(xs: &mut [f32]) {
    for x in xs {
        *x = sigmoid(*x);
    }
}

/// Derivative of the sigmoid expressed in terms of its output `o`.
pub fn sigmoid_deriv_from_output(o: f32) -> f32 {
    o * (1.0 - o)
}

/// A fixed-size lookup table over `[-range, range]`, linearly interpolated,
/// saturating outside the range — the hardware sigmoid unit.
#[derive(Debug, Clone)]
pub struct SigmoidTable {
    entries: Vec<f32>,
    range: f32,
    /// Precomputed `(entries - 1) / (2 * range)`: one multiply per lookup
    /// instead of a divide (the hardware would wire this as a shift).
    inv_step: f32,
}

impl SigmoidTable {
    /// Build a table with `entries` samples over `[-range, range]`.
    ///
    /// # Panics
    ///
    /// Panics if `entries < 2` or `range <= 0`.
    pub fn new(entries: usize, range: f32) -> Self {
        assert!(entries >= 2 && range > 0.0);
        let table: Vec<f32> = (0..entries)
            .map(|i| {
                let x = -range + 2.0 * range * (i as f32) / (entries - 1) as f32;
                sigmoid(x)
            })
            .collect();
        let inv_step = (entries - 1) as f32 / (2.0 * range);
        SigmoidTable { entries: table, range, inv_step }
    }

    /// The default hardware table: 1024 entries over `[-8, 8]`.
    pub fn hardware_default() -> &'static SigmoidTable {
        use std::sync::OnceLock;
        static TABLE: OnceLock<SigmoidTable> = OnceLock::new();
        TABLE.get_or_init(|| SigmoidTable::new(1024, 8.0))
    }

    /// Look up `sigmoid(x)` with linear interpolation, saturating outside
    /// the table range.
    ///
    /// Branch-free: saturation is the `clamp` on the scaled position (it
    /// compiles to min/max, so out-of-range inputs cost the same as
    /// in-range ones — no mispredicts on the hot path). At either edge the
    /// interpolation weight is exactly `0.0` or `1.0`, so the result
    /// equals the edge entry, same as an explicit early return. For `x`
    /// one ulp below `range`, `(x + range) * inv_step` can still round UP
    /// to exactly `entries - 1`; the `min` keeps `i + 1` in bounds (and
    /// `frac` then interpolates within the final cell).
    #[inline]
    pub fn eval(&self, x: f32) -> f32 {
        let last = self.entries.len() - 1;
        let pos = ((x + self.range) * self.inv_step).clamp(0.0, last as f32);
        // `pos` is non-negative here, so the cast truncation IS floor.
        let i = (pos as usize).min(last - 1);
        let frac = pos - i as f32;
        self.entries[i] * (1.0 - frac) + self.entries[i + 1] * frac
    }
}

/// Which sigmoid implementation a network uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SigmoidMode {
    /// Exact logistic function (software training).
    #[default]
    Exact,
    /// The 1024-entry hardware lookup table.
    Table,
}

impl SigmoidMode {
    /// Evaluate the sigmoid under this mode.
    pub fn eval(self, x: f32) -> f32 {
        match self {
            SigmoidMode::Exact => sigmoid(x),
            SigmoidMode::Table => SigmoidTable::hardware_default().eval(x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_sigmoid_shape() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(10.0) > 0.9999);
        assert!(sigmoid(-10.0) < 0.0001);
        // Monotone.
        assert!(sigmoid(1.0) > sigmoid(0.5));
    }

    #[test]
    fn derivative_peaks_at_half() {
        assert!((sigmoid_deriv_from_output(0.5) - 0.25).abs() < 1e-6);
        assert!(sigmoid_deriv_from_output(0.9) < 0.25);
    }

    #[test]
    fn table_matches_exact_within_tolerance() {
        let t = SigmoidTable::hardware_default();
        let mut worst: f32 = 0.0;
        let mut x = -12.0_f32;
        while x <= 12.0 {
            worst = worst.max((t.eval(x) - sigmoid(x)).abs());
            x += 0.01;
        }
        assert!(worst < 1e-3, "table error {worst} too large");
    }

    #[test]
    fn table_saturates() {
        let t = SigmoidTable::new(64, 4.0);
        assert_eq!(t.eval(-100.0), t.eval(-4.0));
        assert_eq!(t.eval(100.0), t.eval(4.0));
    }

    #[test]
    fn boundary_just_below_range_stays_in_bounds() {
        // At `x = range - ε` the index math `(x + range) * inv_step` can
        // round up to the last entry; the lookup must clamp to the final
        // cell, not read out of bounds, and still agree with saturation.
        for &(entries, range) in &[(64usize, 4.0f32), (1024, 8.0), (2, 1.0), (3, 0.5)] {
            let t = SigmoidTable::new(entries, range);
            let eps = f32::EPSILON * range;
            let x = range - eps;
            assert!(x < range, "ε must actually move x below range");
            let v = t.eval(x);
            let saturated = t.eval(range);
            assert!((v - saturated).abs() < 1e-3, "eval({x}) = {v} vs saturated {saturated}");
            // And from the left edge too.
            let v_lo = t.eval(-range + eps);
            assert!((v_lo - t.eval(-range)).abs() < 1e-3);
        }
    }

    #[test]
    fn mode_dispatch() {
        assert!((SigmoidMode::Exact.eval(0.0) - 0.5).abs() < 1e-6);
        assert!((SigmoidMode::Table.eval(0.0) - 0.5).abs() < 1e-3);
    }
}
