//! `memcached` — atomicity violation on item data (Table V): an "incr"
//! operation's check of the item's flags and its read-modify-write of the
//! item's value are not atomic with respect to an invalidating store from
//! another thread. A correct execution always leaves the item cleared; the
//! racy interleaving resurrects stale data. Completes with wrong output.

use crate::spec::{BugClass, BugInfo, BuiltWorkload, Params, Workload, WorkloadKind};
use crate::util::delay_from;
use act_sim::asm::Asm;
use act_sim::isa::Reg;

/// The memcached-style item atomicity violation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Memcached;

const R2: Reg = Reg(2);
const R3: Reg = Reg(3);
const R4: Reg = Reg(4);
const R5: Reg = Reg(5);

impl Workload for Memcached {
    fn name(&self) -> &'static str {
        "memcached"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::RealBug
    }

    fn default_params(&self) -> Params {
        Params { threads: 2, ..Params::default() }
    }

    fn build(&self, p: &Params) -> BuiltWorkload {
        let jit = (p.seed % 32) as i64;
        // d_incr: delay inside the incr's check..write window.
        // d_inval: when the invalidator runs.
        // Clean runs alternate which side goes first (seed parity) so both
        // valid dependence patterns are trained.
        // d_start delays the incr thread's first check so the
        // invalidate-first training configuration is deterministic.
        let (d_start, d_incr, d_inval) = if p.trigger_bug {
            (0, 1500, 400 + jit) // invalidate lands inside the window
        } else if p.seed.is_multiple_of(2) {
            (0, 0, 5000 + jit) // incr completes, then invalidate
        } else {
            (3000, 0, 10 + jit) // invalidate first, incr sees INVALID
        };

        let mut a = Asm::new();
        let flags = a.static_zeroed(1);
        let item = a.static_zeroed(1);
        let pd_start = a.static_data(&[d_start]);
        let pd_incr = a.static_data(&[d_incr]);
        let pd_inval = a.static_data(&[d_inval]);

        a.func("main"); // the invalidator
        let incr = a.new_label();
        a.imm(Reg(20), flags as i64);
        a.imm(Reg(21), item as i64);
        // Item starts valid with value 0.
        a.imm(R2, 1);
        a.mark("S_valid");
        a.store(R2, Reg(20), 0);
        a.imm(R2, 0);
        a.mark("S_item0");
        a.store(R2, Reg(21), 0);
        a.spawn(R3, incr, R2);
        delay_from(&mut a, pd_inval, R5, R2);
        // Invalidate: flags = 0, item = 0.
        a.imm(R2, 0);
        a.mark("S_inval");
        a.store(R2, Reg(20), 0);
        a.imm(R2, 0);
        a.mark("S_clear");
        a.store(R2, Reg(21), 0);
        a.join(R3);
        // Postmortem reads: a correct run always ends cleared (flags == 0,
        // item == 0).
        a.mark("L_out_flags");
        a.load(R4, Reg(20), 0);
        a.out(R4);
        a.mark("L_out");
        let l_out = a.load(R4, Reg(21), 0);
        a.out(R4);
        a.halt();

        a.func("process_incr");
        a.bind(incr);
        a.imm(Reg(20), flags as i64);
        a.imm(Reg(21), item as i64);
        delay_from(&mut a, pd_start, R5, R3);
        let skip = a.new_label();
        a.mark("L_flags");
        a.load(R2, Reg(20), 0); // check
        a.bez(R2, skip);
        delay_from(&mut a, pd_incr, R5, R3);
        a.mark("L_item");
        a.load(R4, Reg(21), 0); // read
        a.alui(act_sim::isa::AluOp::Add, R4, R4, 5);
        a.mark("S_item");
        let s_item = a.store(R4, Reg(21), 0); // write (stale if raced)
        a.bind(skip);
        a.halt();

        let bug = BugInfo {
            description: "Atomicity violation on item data: flags check and item \
                          read-modify-write race with invalidate-and-clear"
                .into(),
            class: BugClass::AtomicityViolation,
            store_pcs: vec![s_item],
            load_pcs: vec![l_out],
        };

        BuiltWorkload {
            program: a.finish().expect("memcached assembles"),
            expected_output: vec![0, 0],
            bug: Some(bug),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_sim::config::MachineConfig;
    use act_sim::machine::Machine;

    fn cfg(seed: u64) -> MachineConfig {
        MachineConfig { jitter_ppm: 10_000, seed, ..Default::default() }
    }

    #[test]
    fn clean_runs_end_cleared() {
        let w = Memcached;
        for seed in 0..6 {
            let built = w.build(&Params { seed, ..w.default_params() });
            let out = Machine::new(&built.program, cfg(seed)).run();
            assert!(built.is_correct(&out), "seed {seed}: {out}");
        }
    }

    #[test]
    fn triggered_runs_resurrect_stale_data() {
        let w = Memcached;
        let mut failures = 0;
        for seed in 0..6 {
            let built = w.build(&Params { seed, ..w.default_params().triggered() });
            let out = Machine::new(&built.program, cfg(seed)).run();
            if built.is_failure(&out) {
                failures += 1;
            }
        }
        assert!(failures >= 4, "only {failures}/6 triggered runs failed");
    }
}
