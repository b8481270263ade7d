//! Figure/table regeneration binary for the experiment suite.
//!
//! ```text
//! cargo run -p rota-bench --release --bin figures            # everything
//! cargo run -p rota-bench --release --bin figures -- e5 e6   # selected
//! cargo run -p rota-bench --release --bin figures -- --csv e5
//! ```
//!
//! Experiments (see DESIGN.md §5): e5 acceptance-vs-load, e6 miss-vs-load,
//! e8 soundness table, e9 churn sweep, e10 segmentation ablation,
//! crosscheck (scheduler vs exhaustive reference).

use rota_bench::{exhibits, scheduler_crosscheck};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let want = |name: &str| wanted.is_empty() || wanted.contains(&name);

    for exhibit in exhibits(want, csv) {
        print!("\n{exhibit}");
    }

    if want("e11") {
        println!("\n# E11: encapsulation — admission latency, global vs per-org (16 orgs)");
        if csv {
            println!("jobs,global_ns,encapsulated_ns,speedup");
        } else {
            println!(
                "{:>8} {:>12} {:>15} {:>9}",
                "jobs", "global(µs)", "per-org(µs)", "speedup"
            );
        }
        for row in rota_bench::encapsulation_table(&[64, 256, 1024]) {
            let speedup = row.global_ns / row.encapsulated_ns.max(1.0);
            if csv {
                println!(
                    "{},{:.0},{:.0},{:.2}",
                    row.jobs, row.global_ns, row.encapsulated_ns, speedup
                );
            } else {
                println!(
                    "{:>8} {:>12.1} {:>15.1} {:>8.1}×",
                    row.jobs,
                    row.global_ns / 1_000.0,
                    row.encapsulated_ns / 1_000.0,
                    speedup
                );
            }
        }
    }

    if want("crosscheck") {
        println!("\n# scheduler cross-check vs exhaustive reference (2000 cases)");
        let ok = scheduler_crosscheck(2000);
        println!("# greedy == exhaustive on all cases: {ok}");
        assert!(
            ok,
            "Theorem-2 scheduler diverged from the exhaustive reference"
        );
    }
}
