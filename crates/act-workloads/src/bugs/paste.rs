//! `paste` — `collapse_escapes` reads out of its buffer (Table V): when the
//! delimiter string ends with an escape, the collapse loop consumes the
//! terminator as the "escaped character" and keeps scanning past the end of
//! the buffer. The buffer sits at the end of the data segment, so the
//! runaway read leaves mapped memory and crashes — the paper reports this
//! bug as a crash.

use crate::spec::{BugClass, BugInfo, BuiltWorkload, Params, Workload, WorkloadKind};
use act_sim::asm::Asm;
use act_sim::isa::{AluOp, Reg};

/// The paste-style collapse_escapes overflow.
#[derive(Debug, Clone, Copy, Default)]
pub struct Paste;

const R2: Reg = Reg(2);
const R3: Reg = Reg(3);
const R4: Reg = Reg(4);
const R5: Reg = Reg(5);

const BACKSLASH: i64 = 92;

fn delims(p: &Params) -> Vec<i64> {
    let base: Vec<i64> = (0..5).map(|i| 40 + (i + p.seed as i64 % 4) % 10).collect();
    let mut s = base;
    if p.trigger_bug {
        s.push(BACKSLASH); // escape at the very end
    } else if p.seed.is_multiple_of(2) {
        s.insert(2, BACKSLASH); // escaped pair in the middle
    }
    s
}

/// Correct semantics: collapse `\x` to `x`; a trailing unpaired backslash
/// collapses to nothing.
fn oracle(chars: &[i64]) -> Vec<i64> {
    let mut sum = 0i64;
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == BACKSLASH {
            if i + 1 < chars.len() {
                sum = sum.wrapping_add(chars[i + 1] * 2);
            }
            i += 2;
        } else {
            sum = sum.wrapping_add(chars[i]);
            i += 1;
        }
    }
    vec![sum]
}

impl Workload for Paste {
    fn name(&self) -> &'static str {
        "paste"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::RealBug
    }

    fn default_params(&self) -> Params {
        Params { threads: 1, ..Params::default() }
    }

    fn build(&self, p: &Params) -> BuiltWorkload {
        let chars = delims(p);
        let len = chars.len();
        let mut a = Asm::new();
        let raw = a.static_data(&chars);
        // IMPORTANT: the delimiter buffer (chars + terminator) is the LAST
        // allocation in the data segment, so reading past it faults.
        let buf = a.static_zeroed(len + 1);

        a.func("main");
        // Fill the buffer and terminate it.
        a.imm(Reg(20), raw as i64);
        a.imm(Reg(21), buf as i64);
        a.imm(Reg(22), len as i64);
        {
            a.imm(R4, 0);
            let top = a.label_here();
            a.alui(AluOp::Mul, R2, R4, 8);
            a.alu(AluOp::Add, R3, Reg(20), R2);
            a.load(R5, R3, 0);
            a.alu(AluOp::Add, R3, Reg(21), R2);
            a.mark("S_fill");
            a.store(R5, R3, 0);
            a.addi(R4, R4, 1);
            a.alu(AluOp::Lt, R2, R4, Reg(22));
            a.bnz(R2, top);
        }
        a.imm(R2, 0);
        a.alui(AluOp::Mul, R3, Reg(22), 8);
        a.alu(AluOp::Add, R3, Reg(21), R3);
        a.mark("S_term");
        let s_term = a.store(R2, R3, 0);
        // collapse_escapes: BUG — a backslash consumes the next word
        // unconditionally (even the terminator) and the loop continues.
        a.imm(Reg(23), 0); // pos
        a.imm(Reg(24), 0); // collapsed checksum
        let top = a.label_here();
        let done = a.new_label();
        let plain = a.new_label();
        let cont = a.new_label();
        a.alui(AluOp::Mul, R2, Reg(23), 8);
        a.alu(AluOp::Add, R2, Reg(21), R2);
        a.mark("L_scan");
        a.load(R3, R2, 0);
        a.bez(R3, done);
        a.alui(AluOp::Eq, R4, R3, BACKSLASH);
        a.bez(R4, plain);
        a.mark("L_escaped");
        let l_esc = a.load(R3, R2, 8); // may BE the terminator (consumed!)
        a.alui(AluOp::Mul, R3, R3, 2);
        a.addi(Reg(23), Reg(23), 2);
        a.jump(cont);
        a.bind(plain);
        a.addi(Reg(23), Reg(23), 1);
        a.bind(cont);
        a.alu(AluOp::Add, Reg(24), Reg(24), R3);
        a.jump(top);
        a.bind(done);
        a.out(Reg(24));
        a.halt();

        let bug = BugInfo {
            description: "Out-of-buffer read: collapse_escapes consumes the terminator \
                          after a trailing escape and scans past the buffer end"
                .into(),
            class: BugClass::BufferOverflow,
            store_pcs: vec![s_term],
            load_pcs: vec![l_esc],
        };

        BuiltWorkload {
            program: a.finish().expect("paste assembles"),
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
    use act_sim::outcome::{CrashKind, RunOutcome};

    fn cfg() -> MachineConfig {
        MachineConfig { jitter_ppm: 0, ..Default::default() }
    }

    #[test]
    fn safe_delimiters_are_correct() {
        let w = Paste;
        for seed in 0..4 {
            let built = w.build(&Params { seed, ..w.default_params() });
            let out = Machine::new(&built.program, cfg()).run();
            assert!(built.is_correct(&out), "seed {seed}: {out}");
        }
    }

    #[test]
    fn trailing_escape_crashes_out_of_bounds() {
        let w = Paste;
        let built = w.build(&w.default_params().triggered());
        match Machine::new(&built.program, cfg()).run() {
            RunOutcome::Crash { kind: CrashKind::OutOfBounds, .. } => {}
            other => panic!("expected out-of-bounds crash, got {other}"),
        }
    }
}
