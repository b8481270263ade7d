//! Cloud admission control: four policies on the same open-system
//! workload — the scenario the paper's introduction motivates (grid/cloud
//! resources offered to deadline-constrained applications).
//!
//! Run with: `cargo run --example cloud_admission`

use rota::prelude::*;

fn main() {
    println!("offered-load sweep, 6 nodes, mixed jobs, seed 7\n");
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>12}",
        "load", "policy", "accept%", "miss%", "completed"
    );
    for load_pct in [30u32, 60, 90, 120, 150] {
        let config = WorkloadConfig::new(7)
            .with_nodes(6)
            .with_horizon(96)
            .with_shape(JobShape::Mixed)
            .with_load(load_pct as f64 / 100.0);
        let scenario = build_scenario(&config);
        for (name, report) in compare_policies(&scenario, &Registry::new()) {
            println!(
                "{:<6} {:>12} {:>11.1}% {:>11.1}% {:>12}",
                format!("{:.1}", load_pct as f64 / 100.0),
                name,
                report.acceptance_rate() * 100.0,
                report.miss_rate() * 100.0,
                report.completed
            );
        }
        println!();
    }
    println!("note: rota holds miss% = 0 at every load — admission is an assurance,");
    println!("      not a bet; optimistic admits everything and pays in misses.");
}
