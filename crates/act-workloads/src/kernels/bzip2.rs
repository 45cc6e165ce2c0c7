//! `bzip2` — a compress/verify kernel in the spirit of SPEC INT's bzip2:
//! run-length-encodes an input buffer into an output buffer, then decodes
//! it back and emits both the compressed length and a round-trip checksum.
//! The decode's loads depend on the encode's stores — a classic
//! producer/consumer RAW chain through memory.

use crate::spec::{BuiltWorkload, Params, Workload, WorkloadKind};
use act_rng::rngs::StdRng;
use act_rng::{Rng, SeedableRng};
use act_sim::asm::Asm;
use act_sim::isa::{AluOp, Reg};

/// The bzip2-style run-length compress/verify kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bzip2;

const R2: Reg = Reg(2);
const R3: Reg = Reg(3);
const R4: Reg = Reg(4);
const R5: Reg = Reg(5);
const R6: Reg = Reg(6);
const R7: Reg = Reg(7);
const R8: Reg = Reg(8);
const R9: Reg = Reg(9);

fn gen_input(n: usize, seed: u64) -> Vec<i64> {
    // Runs of repeated symbols, as compressible input.
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xb21b) ^ 5);
    let mut v = Vec::with_capacity(n);
    while v.len() < n {
        let sym = rng.gen_range(1i64..6);
        let run = rng.gen_range(1usize..6).min(n - v.len());
        v.extend(std::iter::repeat_n(sym, run));
    }
    v
}

fn rle(input: &[i64]) -> Vec<i64> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < input.len() {
        let sym = input[i];
        let mut run = 1i64;
        while i + (run as usize) < input.len() && input[i + run as usize] == sym {
            run += 1;
        }
        out.push(sym);
        out.push(run);
        i += run as usize;
    }
    out
}

impl Workload for Bzip2 {
    fn name(&self) -> &'static str {
        "bzip2"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::CleanKernel
    }

    fn default_params(&self) -> Params {
        Params { size: 40, threads: 1, ..Params::default() }
    }

    fn build(&self, p: &Params) -> BuiltWorkload {
        let n = p.size.max(12);
        let input = gen_input(n, p.seed);
        let encoded = rle(&input);
        let checksum: i64 = input.iter().enumerate().map(|(i, &v)| v * (i as i64 + 1)).sum();

        let mut a = Asm::new();
        let raw = a.static_data(&input);
        let comp = a.static_zeroed(2 * n + 2);
        let decomp = a.static_zeroed(n + 2);

        a.func("main");
        a.imm(Reg(20), raw as i64);
        a.imm(Reg(21), comp as i64);
        a.imm(Reg(22), decomp as i64);

        // ---- encode: RLE over the input (input loads are preloaded) ----
        a.func("compress");
        a.imm(R2, 0); // in pos
        a.imm(R3, 0); // out pos (pairs)
        let enc_top = a.label_here();
        let enc_done = a.new_label();
        a.alui(AluOp::Lt, R4, R2, n as i64);
        a.bez(R4, enc_done);
        a.alui(AluOp::Mul, R5, R2, 8);
        a.alu(AluOp::Add, R5, Reg(20), R5);
        a.load(R6, R5, 0); // current symbol
        a.imm(R7, 1); // run length
        let run_top = a.label_here();
        let run_done = a.new_label();
        a.alu(AluOp::Add, R8, R2, R7);
        a.alui(AluOp::Lt, R9, R8, n as i64);
        a.bez(R9, run_done);
        a.alui(AluOp::Mul, R8, R8, 8);
        a.alu(AluOp::Add, R8, Reg(20), R8);
        a.load(R9, R8, 0);
        a.alu(AluOp::Eq, R9, R9, R6);
        a.bez(R9, run_done);
        a.addi(R7, R7, 1);
        a.jump(run_top);
        a.bind(run_done);
        // emit (symbol, run)
        a.alui(AluOp::Mul, R8, R3, 8);
        a.alu(AluOp::Add, R8, Reg(21), R8);
        a.mark("S_sym");
        a.store(R6, R8, 0);
        a.mark("S_run");
        a.store(R7, R8, 8);
        a.addi(R3, R3, 2);
        a.alu(AluOp::Add, R2, R2, R7);
        a.jump(enc_top);
        a.bind(enc_done);
        a.out(R3); // compressed length in words

        // ---- decode: expand runs back (loads depend on the encode) ----
        a.func("decompress");
        a.imm(R2, 0); // comp pos
        a.imm(R4, 0); // out pos
        let dec_top = a.label_here();
        let dec_done = a.new_label();
        a.alu(AluOp::Lt, R5, R2, R3);
        a.bez(R5, dec_done);
        a.alui(AluOp::Mul, R5, R2, 8);
        a.alu(AluOp::Add, R5, Reg(21), R5);
        a.mark("L_sym");
        a.load(R6, R5, 0);
        a.mark("L_run");
        a.load(R7, R5, 8);
        let fill_top = a.label_here();
        let fill_done = a.new_label();
        a.bez(R7, fill_done);
        a.alui(AluOp::Mul, R8, R4, 8);
        a.alu(AluOp::Add, R8, Reg(22), R8);
        a.mark("S_out");
        a.store(R6, R8, 0);
        a.addi(R4, R4, 1);
        a.alui(AluOp::Sub, R7, R7, 1);
        a.jump(fill_top);
        a.bind(fill_done);
        a.addi(R2, R2, 2);
        a.jump(dec_top);
        a.bind(dec_done);

        // ---- verify: position-weighted checksum of the round trip ----
        a.func("verify");
        a.imm(R2, 0);
        a.imm(R8, 0);
        let v_top = a.label_here();
        let v_done = a.new_label();
        a.alu(AluOp::Lt, R5, R2, R4);
        a.bez(R5, v_done);
        a.alui(AluOp::Mul, R5, R2, 8);
        a.alu(AluOp::Add, R5, Reg(22), R5);
        a.mark("L_verify");
        a.load(R6, R5, 0);
        a.alui(AluOp::Add, R7, R2, 1);
        a.alu(AluOp::Mul, R6, R6, R7);
        a.alu(AluOp::Add, R8, R8, R6);
        a.addi(R2, R2, 1);
        a.jump(v_top);
        a.bind(v_done);
        a.out(R8);
        a.halt();

        BuiltWorkload {
            program: a.finish().expect("bzip2 assembles"),
            expected_output: vec![encoded.len() as i64, checksum],
            bug: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_sim::config::MachineConfig;
    use act_sim::machine::Machine;

    #[test]
    fn round_trip_matches_oracle() {
        let w = Bzip2;
        for seed in 0..4 {
            let built = w.build(&Params { seed, ..w.default_params() });
            let cfg = MachineConfig { jitter_ppm: 0, ..Default::default() };
            let out = Machine::new(&built.program, cfg).run();
            assert!(built.is_correct(&out), "seed {seed}: {out}");
        }
    }

    #[test]
    fn compression_actually_compresses() {
        let w = Bzip2;
        let built = w.build(&w.default_params());
        // Runs of 1..6 over 40 symbols should encode well under 2n words.
        assert!(built.expected_output[0] < 80);
        assert!(built.expected_output[0] >= 2);
    }
}
