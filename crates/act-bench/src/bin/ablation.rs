//! Ablation study for the design choices DESIGN.md §5 documents: each row
//! removes one ingredient and reports (a) how many of four representative
//! bugs (one per class) still get a top-5 rank from a single failure, and
//! (b) the false-flag rate on a trained clean kernel run — showing that
//! every ingredient earns its place.
//!
//! Cells run in parallel via `act-fleet` (one job per (ablation, workload)
//! pair); the table is identical at any `--jobs` count.
//!
//! Run with `cargo run --release -p act-bench --bin ablation -- [--jobs N] [--out report.json]`.

use act_bench::campaign::{ablation_spec, campaign_main, timing_footer, ABLATIONS, ABLATION_BUGS};
use act_fleet::Metric;

fn main() {
    let report = campaign_main("ablation", &ablation_spec());
    println!("{:<26} {:>18} {:>18}", "Ablation", "bugs found (of 4)", "clean flag rate");
    println!("{}", "-".repeat(64));
    for (label, display) in ABLATIONS {
        // Reduce this ablation's row from its cells in the report.
        let mut found = 0i64;
        let mut rate = 0.0f64;
        for r in report.results.iter().filter(|r| r.job.config == label) {
            let Some(out) = r.outcome.output() else { continue };
            match out.metric("diagnosed") {
                Some(&Metric::Int(v)) => found += v,
                _ => {
                    if let Some(&Metric::Float(v)) = out.metric("clean_flag_pct") {
                        rate = v;
                    }
                }
            }
        }
        debug_assert!(found <= ABLATION_BUGS.len() as i64);
        println!("{:<26} {:>18} {:>17.2}%", display, found, rate);
    }
    println!("{}", timing_footer(&report));
}
