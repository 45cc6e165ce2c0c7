//! `gzip` — the semantic bug of Fig 2(d): `get_method` uses a stale file
//! descriptor when `-` (stdin) appears in the middle of the argument list.
//! With `-` first, `ifd` still holds its initialization (dependence
//! `S1→S2`); with `-` after a file, `ifd` holds the previous file's
//! descriptor (dependence `S3→S2`) and stdin is silently not processed.
//! Completes with wrong output.

use crate::spec::{BugClass, BugInfo, BuiltWorkload, Params, Workload, WorkloadKind};
use act_sim::asm::Asm;
use act_sim::isa::{AluOp, Reg};

/// The gzip-style stale-file-descriptor semantic bug.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gzip;

const R2: Reg = Reg(2);
const R3: Reg = Reg(3);
const R4: Reg = Reg(4);
const R5: Reg = Reg(5);

/// Token value meaning `-` (stdin).
const STDIN_TOKEN: i64 = 0;

fn tokens(p: &Params) -> Vec<i64> {
    let files: Vec<i64> = (1..=4).map(|i| i + (p.seed as i64 % 3)).collect();
    if p.trigger_bug {
        // `-` in the middle: the bug's triggering input shape.
        vec![files[0], files[1], STDIN_TOKEN, files[2], files[3]]
    } else if p.seed.is_multiple_of(2) {
        // `-` first (handled correctly).
        vec![STDIN_TOKEN, files[0], files[1], files[2], files[3]]
    } else {
        // No stdin at all.
        files
    }
}

/// Correct semantics: `-` processes stdin (descriptor 0), every other token
/// opens its own descriptor.
fn oracle(toks: &[i64]) -> Vec<i64> {
    toks.iter().map(|&t| if t == STDIN_TOKEN { 100 } else { 200 + t }).collect()
}

impl Workload for Gzip {
    fn name(&self) -> &'static str {
        "gzip"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::RealBug
    }

    fn default_params(&self) -> Params {
        Params { threads: 1, ..Params::default() }
    }

    fn build(&self, p: &Params) -> BuiltWorkload {
        let toks = tokens(p);
        let mut a = Asm::new();
        let ifd = a.static_zeroed(1);
        let input = a.static_data(&toks);

        a.func("main");
        a.imm(Reg(20), ifd as i64);
        a.imm(Reg(21), input as i64);
        // S1: ifd = 0 (stdin's descriptor).
        a.imm(R2, 0);
        a.mark("S1");
        a.store(R2, Reg(20), 0);
        a.imm(Reg(22), toks.len() as i64);
        a.imm(Reg(23), 0); // token index
        let top = a.label_here();
        let end = a.new_label();
        let file_path = a.new_label();
        let next = a.new_label();
        a.alu(AluOp::Lt, R2, Reg(23), Reg(22));
        a.bez(R2, end);
        a.alui(AluOp::Mul, R3, Reg(23), 8);
        a.alu(AluOp::Add, R3, Reg(21), R3);
        a.load(R4, R3, 0); // token (preloaded input: no dep)
        a.bnz(R4, file_path);
        // `-`: process stdin — BUG: uses whatever ifd currently holds.
        a.mark("S2_get_method_stdin");
        let s2 = a.load(R5, Reg(20), 0);
        a.alui(AluOp::Add, R5, R5, 100);
        a.out(R5); // correct only when ifd is still 0
        a.jump(next);
        a.bind(file_path);
        // File: S3: ifd = open(...); S4: get_method(ifd).
        a.mark("S3_open");
        let s3 = a.store(R4, Reg(20), 0);
        a.mark("S4_get_method_file");
        a.load(R5, Reg(20), 0);
        a.alui(AluOp::Add, R5, R5, 200);
        a.out(R5);
        a.bind(next);
        a.addi(Reg(23), Reg(23), 1);
        a.jump(top);
        a.bind(end);
        a.halt();

        let bug = BugInfo {
            description: "Semantic bug: get_method reads a stale file descriptor when \
                          '-' appears mid-input (dependence S3->S2 instead of S1->S2)"
                .into(),
            class: BugClass::Semantic,
            store_pcs: vec![s3],
            load_pcs: vec![s2],
        };

        BuiltWorkload {
            program: a.finish().expect("gzip assembles"),
            expected_output: oracle(&toks),
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
    fn stdin_first_is_correct() {
        let w = Gzip;
        for seed in [0u64, 1, 2, 3] {
            let built = w.build(&Params { seed, ..w.default_params() });
            let out = Machine::new(&built.program, cfg()).run();
            assert!(built.is_correct(&out), "seed {seed}: {out}");
        }
    }

    #[test]
    fn stdin_mid_input_is_wrong_deterministically() {
        let w = Gzip;
        let built = w.build(&w.default_params().triggered());
        let out = Machine::new(&built.program, cfg()).run();
        assert!(built.is_failure(&out), "{out}");
        // It completes (the paper's "Comp." status) but with a wrong value.
        assert!(out.completed());
    }
}
