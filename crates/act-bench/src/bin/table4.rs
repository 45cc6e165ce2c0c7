//! Regenerates **Table IV**: offline training of the neural networks on the
//! clean kernels — traces used, dependences, the trained topology (the
//! recipe's N = 2, h = 10), and held-out misprediction rate (false
//! positives; the paper's average is ~0.4%).
//!
//! Kernels train in parallel via `act-fleet` (one job per kernel); the
//! table is identical at any `--jobs` count.
//!
//! Run with `cargo run --release -p act-bench --bin table4 -- [--jobs N] [--out report.json]`.

use act_bench::campaign::{campaign_main, table4_spec, timing_footer};

fn main() {
    let report = campaign_main("table4", &table4_spec());
    println!(
        "{:<14} {:>7} {:>9} {:>9} {:>10} {:>10}",
        "Program", "Traces", "# RAW Dep", "Topology", "%Mispred", "(FN rate)"
    );
    println!("{}", "-".repeat(64));
    for line in report.lines() {
        println!("{line}");
    }
    println!("{}", "-".repeat(64));
    let fp = report.aggregate.metric("test_fp_rate").expect("every kernel reports FP rate");
    println!("Average %mispred (false positives): {:.3}%", 100.0 * fp.mean);
    println!("{}", timing_footer(&report));
}
