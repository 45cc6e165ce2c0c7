//! Regenerates the **overhead experiment** (the paper's Fig 8-class result:
//! 8.2% average execution overhead at the default configuration): runs each
//! clean kernel with and without ACT modules attached and reports the cycle
//! overhead, sweeping the multiply-add-unit count and input-FIFO size.
//!
//! Kernels run in parallel via `act-fleet` (one job per kernel; each job
//! trains once and runs all six hardware sweeps); the table is identical at
//! any `--jobs` count.
//!
//! Run with `cargo run --release -p act-bench --bin fig8_overhead -- [--jobs N] [--out report.json]`.

use act_bench::campaign::{campaign_main, fig8_spec, timing_footer, FIG8_SWEEPS};

fn main() {
    let report = campaign_main("fig8_overhead", &fig8_spec());
    print!("{:<14}", "Program");
    for (label, _, _) in FIG8_SWEEPS {
        print!(" {:>20}", label);
    }
    println!();
    println!("{}", "-".repeat(14 + FIG8_SWEEPS.len() * 21));
    for line in report.lines() {
        println!("{line}");
    }
    println!("{}", "-".repeat(14 + FIG8_SWEEPS.len() * 21));
    print!("{:<14}", "Average");
    for i in 0..FIG8_SWEEPS.len() {
        let m = report
            .aggregate
            .metric(&format!("overhead_pct_{i}"))
            .expect("every kernel reports every sweep");
        print!(" {:>19.1}%", m.mean);
    }
    println!();
    println!("{}", timing_footer(&report));
}
