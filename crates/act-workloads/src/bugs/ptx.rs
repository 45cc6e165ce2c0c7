//! `ptx` — the buffer overflow of Fig 2(e): the escape-handling copy loop
//! consumes two characters per backslash, so an odd run of backslashes at
//! the end of `string` steps over the terminator and reads the word after
//! the buffer — which belongs to an unrelated variable written by `S1`.
//! The dependence `S1→S3` replaces the valid `S2→S3`. Completes with
//! corrupted output.

use crate::spec::{BugClass, BugInfo, BuiltWorkload, Params, Workload, WorkloadKind};
use act_sim::asm::Asm;
use act_sim::isa::{AluOp, Reg};

/// The ptx-style escape-scan buffer overflow.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ptx;

const R2: Reg = Reg(2);
const R3: Reg = Reg(3);
const R4: Reg = Reg(4);
const R5: Reg = Reg(5);

/// The backslash "character".
const BACKSLASH: i64 = 92;

fn input_chars(p: &Params) -> Vec<i64> {
    let base: Vec<i64> = (0..6).map(|i| 10 + (i + p.seed as i64 % 5) % 20).collect();
    let mut s = base;
    if p.trigger_bug {
        // Odd number of consecutive backslashes at the end.
        s.push(BACKSLASH);
    } else if p.seed.is_multiple_of(2) {
        // Escaped pair in the middle (exercises the escape path safely).
        s.insert(3, BACKSLASH);
    }
    s
}

/// Correct semantics: a backslash copies the next character literally
/// (an unpaired final backslash copies nothing).
fn oracle(chars: &[i64]) -> Vec<i64> {
    let mut sum = 0i64;
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == BACKSLASH {
            if i + 1 < chars.len() {
                sum = sum.wrapping_add(chars[i + 1]).wrapping_mul(3) % 100_000;
            }
            i += 2;
        } else {
            sum = sum.wrapping_add(chars[i]).wrapping_mul(3) % 100_000;
            i += 1;
        }
    }
    vec![sum]
}

impl Workload for Ptx {
    fn name(&self) -> &'static str {
        "ptx"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::RealBug
    }

    fn default_params(&self) -> Params {
        Params { threads: 1, ..Params::default() }
    }

    fn build(&self, p: &Params) -> BuiltWorkload {
        let chars = input_chars(p);
        let len = chars.len();
        let mut a = Asm::new();
        let raw = a.static_data(&chars);
        // string buffer: len chars + terminator, then the unrelated
        // variable the overflow will read (written by S1).
        let string = a.static_zeroed(len + 1);
        let unrelated = a.static_zeroed(1);
        // A zero word after it stops the runaway scan deterministically.
        let _stopper = a.static_zeroed(1);

        a.func("main");
        // S1: write the unrelated variable (the word right after string).
        a.imm(Reg(20), unrelated as i64);
        a.imm(R2, 55);
        a.mark("S1_unrelated");
        let s1 = a.store(R2, Reg(20), 0);
        // S2: string = inputString(...) — copy raw chars + terminator.
        a.imm(Reg(21), raw as i64);
        a.imm(Reg(22), string as i64);
        a.imm(Reg(23), len as i64);
        {
            a.imm(R4, 0);
            let top = a.label_here();
            a.alui(AluOp::Mul, R2, R4, 8);
            a.alu(AluOp::Add, R3, Reg(21), R2);
            a.load(R5, R3, 0); // raw input: preloaded, no dep
            a.alu(AluOp::Add, R3, Reg(22), R2);
            a.mark("S2_fill");
            a.store(R5, R3, 0);
            a.addi(R4, R4, 1);
            a.alu(AluOp::Lt, R2, R4, Reg(23));
            a.bnz(R2, top);
        }
        a.imm(R2, 0);
        a.alui(AluOp::Mul, R3, Reg(23), 8);
        a.alu(AluOp::Add, R3, Reg(22), R3);
        a.mark("S2_term");
        let s2_term = a.store(R2, R3, 0);
        // S3: the escape-collapsing scan — BUG: a backslash advances by two
        // without checking for the terminator in between.
        a.imm(Reg(24), 0); // pos
        a.imm(Reg(25), 0); // checksum
        let scan_top = a.label_here();
        let done = a.new_label();
        let not_escape = a.new_label();
        let consumed = a.new_label();
        a.alui(AluOp::Mul, R2, Reg(24), 8);
        a.alu(AluOp::Add, R2, Reg(22), R2);
        a.mark("S3_scan");
        let s3 = a.load(R3, R2, 0);
        a.bez(R3, done);
        a.alui(AluOp::Eq, R4, R3, BACKSLASH);
        a.bez(R4, not_escape);
        // Escape: take the NEXT char literally, advance by two.
        a.mark("S3_escaped");
        let l_esc = a.load(R3, R2, 8);
        a.addi(Reg(24), Reg(24), 2);
        a.jump(consumed);
        a.bind(not_escape);
        a.addi(Reg(24), Reg(24), 1);
        a.bind(consumed);
        a.alu(AluOp::Add, Reg(25), Reg(25), R3);
        a.alui(AluOp::Mul, Reg(25), Reg(25), 3);
        a.alui(AluOp::Rem, Reg(25), Reg(25), 100_000);
        a.jump(scan_top);
        a.bind(done);
        a.out(Reg(25));
        a.halt();

        let bug = BugInfo {
            description: "Buffer overflow: odd trailing backslashes step over the \
                          terminator; the scan reads the adjacent variable (S1->S3)"
                .into(),
            class: BugClass::BufferOverflow,
            store_pcs: vec![s1, s2_term],
            load_pcs: vec![s3, l_esc],
        };

        BuiltWorkload {
            program: a.finish().expect("ptx assembles"),
            expected_output: oracle(&chars),
            bug: Some(bug),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_sim::config::MachineConfig;
    use act_sim::machine::Machine;

    fn cfg() -> MachineConfig {
        MachineConfig { jitter_ppm: 0, ..Default::default() }
    }

    #[test]
    fn safe_inputs_are_correct() {
        let w = Ptx;
        for seed in 0..4 {
            let built = w.build(&Params { seed, ..w.default_params() });
            let out = Machine::new(&built.program, cfg()).run();
            assert!(built.is_correct(&out), "seed {seed}: {out}");
        }
    }

    #[test]
    fn trailing_backslash_corrupts_output() {
        let w = Ptx;
        let built = w.build(&w.default_params().triggered());
        let out = Machine::new(&built.program, cfg()).run();
        assert!(out.completed(), "{out}");
        assert!(built.is_failure(&out), "{out}");
    }
}
