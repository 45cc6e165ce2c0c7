//! Regenerates **Table V**: diagnosis of the 11 real-world bugs, comparing
//! ACT's single-failure rank against the Aviso-like and PBI-like baselines.
//!
//! Bugs diagnose in parallel via `act-fleet` (one job per bug, the full
//! train → fail → diagnose pipeline inside); the table is identical at any
//! `--jobs` count.
//!
//! Run with `cargo run --release -p act-bench --bin table5 -- [--jobs N] [--out report.json]`.

use act_bench::campaign::{campaign_main, table5_spec, timing_footer};

fn main() {
    let report = campaign_main("table5", &table5_spec());
    println!(
        "{:<10} {:>7} {:>9} {:>8} {:>5} | {:>12} | {:>14} {:>6}",
        "Prog.", "Traces", "DebugPos", "Filter%", "Rank", "Aviso(fails)", "PBI rank(tot)", "Status"
    );
    println!("{}", "-".repeat(88));
    for line in report.lines() {
        println!("{line}");
    }
    println!("{}", timing_footer(&report));
}
