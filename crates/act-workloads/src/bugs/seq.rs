//! `seq` — semantic bug in `print_numbers` (Table V): the "is this the last
//! number?" test compares for exact equality with the endpoint, so when the
//! step overshoots the endpoint the final number is printed with the
//! separator instead of the terminator. Completes with wrong output.

use crate::spec::{BugClass, BugInfo, BuiltWorkload, Params, Workload, WorkloadKind};
use act_sim::asm::Asm;
use act_sim::isa::{AluOp, Reg};

/// The seq-style wrong-terminator semantic bug.
#[derive(Debug, Clone, Copy, Default)]
pub struct Seq;

const R2: Reg = Reg(2);
const R3: Reg = Reg(3);
const R4: Reg = Reg(4);

/// Separator and terminator "characters".
const SEP: i64 = 7;
const TERM: i64 = 9;

fn inputs(p: &Params) -> (i64, i64, i64) {
    let first = (p.seed % 4) as i64 + 1;
    if p.trigger_bug {
        // Step overshoots: `i == last` never holds at the final number.
        (first, first + 7, 3)
    } else if p.seed.is_multiple_of(2) {
        (first, first + 6, 2) // exact hit
    } else {
        (first, first + 4, 1) // exact hit
    }
}

/// Correct semantics: numbers separated by SEP, final number followed by
/// TERM.
fn oracle(first: i64, last: i64, step: i64) -> Vec<i64> {
    let mut out = Vec::new();
    let mut i = first;
    while i <= last {
        out.push(i);
        out.push(if i + step > last { TERM } else { SEP });
        i += step;
    }
    out.push(1); // the "done" record
    out
}

impl Workload for Seq {
    fn name(&self) -> &'static str {
        "seq"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::RealBug
    }

    fn default_params(&self) -> Params {
        Params { threads: 1, ..Params::default() }
    }

    fn build(&self, p: &Params) -> BuiltWorkload {
        let (first, last, step) = inputs(p);
        let mut a = Asm::new();
        let term_w = a.static_zeroed(1);
        let done_w = a.static_zeroed(1);
        // The inputs live in the data segment (like argv), so the program
        // text is identical for every input shape.
        let params = a.static_data(&[first, last, step]);

        a.func("main");
        a.imm(Reg(20), term_w as i64);
        a.imm(Reg(21), done_w as i64);
        a.imm(Reg(25), params as i64);
        a.load(Reg(22), Reg(25), 0); // i = first
        a.load(Reg(23), Reg(25), 8); // last
        a.load(Reg(24), Reg(25), 16); // step
        let top = a.label_here();
        let end = a.new_label();
        let not_last = a.new_label();
        let print = a.new_label();
        a.alu(AluOp::Le, R2, Reg(22), Reg(23));
        a.bez(R2, end);
        // BUG: "last number" test is `i == last`, which never fires when the
        // step overshoots; the correct test is `i + step > last`.
        a.alu(AluOp::Eq, R2, Reg(22), Reg(23));
        a.bez(R2, not_last);
        a.imm(R3, TERM);
        a.mark("S_t1_term");
        a.store(R3, Reg(20), 0);
        a.jump(print);
        a.bind(not_last);
        a.imm(R3, SEP);
        a.mark("S_t2_sep");
        let s_t2 = a.store(R3, Reg(20), 0);
        a.bind(print);
        a.out(Reg(22));
        a.mark("L_term");
        let l_t = a.load(R4, Reg(20), 0);
        a.out(R4);
        a.alu(AluOp::Add, Reg(22), Reg(22), Reg(24));
        a.jump(top);
        a.bind(end);
        // Post-loop record (gives the final window a distinct context).
        a.imm(R2, 1);
        a.mark("S_done");
        a.store(R2, Reg(21), 0);
        a.mark("L_done");
        a.load(R3, Reg(21), 0);
        a.out(R3);
        a.halt();

        let bug = BugInfo {
            description: "Semantic bug: wrong last-number test prints the separator \
                          instead of the terminator when the step overshoots"
                .into(),
            class: BugClass::Semantic,
            store_pcs: vec![s_t2],
            load_pcs: vec![l_t],
        };

        BuiltWorkload {
            program: a.finish().expect("seq assembles"),
            expected_output: oracle(first, last, step),
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
    fn exact_hit_inputs_are_correct() {
        let w = Seq;
        for seed in 0..4 {
            let built = w.build(&Params { seed, ..w.default_params() });
            let out = Machine::new(&built.program, cfg()).run();
            assert!(built.is_correct(&out), "seed {seed}: {out}");
        }
    }

    #[test]
    fn overshoot_inputs_print_wrong_terminator() {
        let w = Seq;
        let built = w.build(&w.default_params().triggered());
        let out = Machine::new(&built.program, cfg()).run();
        assert!(out.completed());
        assert!(built.is_failure(&out), "{out}");
        // The only difference must be the final terminator.
        let got = out.output().unwrap();
        let want = &built.expected_output;
        assert_eq!(got.len(), want.len());
        assert_eq!(got[got.len() - 2], SEP);
        assert_eq!(want[want.len() - 2], TERM);
    }
}
