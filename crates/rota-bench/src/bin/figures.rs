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

use rota_bench::{
    churn_sweep, load_sweep, scheduler_crosscheck, segmentation_ablation, soundness_table,
    PolicyRow,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let want = |name: &str| wanted.is_empty() || wanted.contains(&name);

    if want("e5") || want("e6") {
        let rows = load_sweep(7, &[20, 40, 60, 80, 100, 120, 140, 160, 180, 200]);
        if want("e5") {
            emit_policy_figure(
                "E5: acceptance rate vs offered load",
                "load",
                &rows,
                csv,
                |r| r.report.acceptance_rate(),
            );
        }
        if want("e6") {
            emit_policy_figure(
                "E6: deadline-miss rate vs offered load",
                "load",
                &rows,
                csv,
                |r| r.report.miss_rate(),
            );
        }
    }

    if want("e8") {
        println!("\n# E8: soundness — ROTA misses across seeds × churn (expect 0)");
        if csv {
            println!("seed,churn,accepted,missed");
        } else {
            println!(
                "{:>6} {:>7} {:>9} {:>7}",
                "seed", "churn", "accepted", "missed"
            );
        }
        let mut total_missed = 0;
        for (seed, churn, accepted, missed) in soundness_table(0..10, &[0.0, 0.05, 0.1, 0.2]) {
            if csv {
                println!("{seed},{churn},{accepted},{missed}");
            } else {
                println!("{seed:>6} {churn:>7.2} {accepted:>9} {missed:>7}");
            }
            total_missed += missed;
        }
        println!(
            "# total ROTA misses: {total_missed} (assurance holds: {})",
            total_missed == 0
        );
    }

    if want("e9") {
        let rows = churn_sweep(7, &[0, 2, 5, 10, 15, 20]);
        emit_policy_figure(
            "E9: acceptance rate vs churn probability (load 1.0)",
            "churn",
            &rows,
            csv,
            |r| r.report.acceptance_rate(),
        );
        emit_policy_figure(
            "E9b: deadline-miss rate vs churn probability (load 1.0)",
            "churn",
            &rows,
            csv,
            |r| r.report.miss_rate(),
        );
    }

    if want("e10") {
        println!("\n# E10: segmentation ablation (ROTA policy, chain jobs)");
        if csv {
            println!("actions,granularity,mean_segments,acceptance,miss_rate");
        } else {
            println!(
                "{:>8} {:>12} {:>14} {:>11} {:>9}",
                "actions", "granularity", "mean_segments", "acceptance", "miss"
            );
        }
        for row in segmentation_ablation(7, &[2, 4, 8, 16]) {
            if csv {
                println!(
                    "{},{},{:.2},{:.4},{:.4}",
                    row.actions, row.granularity, row.mean_segments, row.acceptance, row.miss_rate
                );
            } else {
                println!(
                    "{:>8} {:>12} {:>14.2} {:>10.1}% {:>8.1}%",
                    row.actions,
                    row.granularity,
                    row.mean_segments,
                    row.acceptance * 100.0,
                    row.miss_rate * 100.0
                );
            }
        }
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

fn emit_policy_figure(
    title: &str,
    x_name: &str,
    rows: &[PolicyRow],
    csv: bool,
    metric: impl Fn(&PolicyRow) -> f64,
) {
    println!("\n# {title}");
    let policies = rota_admission::standard_policies().map(|p| p.policy.name());
    if csv {
        println!("{x_name},{}", policies.join(","));
    } else {
        print!("{x_name:>7}");
        for p in policies {
            print!(" {p:>12}");
        }
        println!();
    }
    let mut xs: Vec<f64> = rows.iter().map(|r| r.x).collect();
    xs.dedup();
    for x in xs {
        let series: Vec<f64> = policies
            .iter()
            .map(|p| {
                rows.iter()
                    .find(|r| r.x == x && r.policy == *p)
                    .map(&metric)
                    .unwrap_or(f64::NAN)
            })
            .collect();
        if csv {
            let vals: Vec<String> = series.iter().map(|v| format!("{v:.4}")).collect();
            println!("{x},{}", vals.join(","));
        } else {
            print!("{x:>7.2}");
            for v in series {
                print!(" {:>11.1}%", v * 100.0);
            }
            println!();
        }
    }
}
