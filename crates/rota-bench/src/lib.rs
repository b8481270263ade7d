//! Shared helpers for the ROTA experiment harness: the figure
//! definitions (E5, E6, E8, E9, E10) as reusable functions so both the
//! `figures` binary and tests can regenerate any experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rota_actor::Granularity;
use rota_admission::{ExecutionStrategy, RotaPolicy};
use rota_interval::TimePoint;
use rota_logic::{exhaustive_schedule_exists, schedule_complex};
use rota_obs::Registry;
use rota_sim::{compare_policies, run_scenario, SimulationReport};
use rota_workload::{build_scenario, JobShape, WorkloadConfig};

/// One row of a policy-comparison figure.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRow {
    /// The swept parameter value (load, churn probability, seed, …).
    pub x: f64,
    /// Policy name.
    pub policy: &'static str,
    /// The run's report.
    pub report: SimulationReport,
}

fn sweep_config(seed: u64) -> WorkloadConfig {
    WorkloadConfig::new(seed)
        .with_nodes(6)
        .with_horizon(96)
        .with_shape(JobShape::Mixed)
}

/// E5/E6 — acceptance and deadline-miss rates vs offered load, all four
/// policies. Loads are percentages (30 → 0.3).
pub fn load_sweep(seed: u64, loads_pct: &[u32]) -> Vec<PolicyRow> {
    let mut rows = Vec::new();
    for &pct in loads_pct {
        let config = sweep_config(seed).with_load(pct as f64 / 100.0);
        let scenario = build_scenario(&config);
        for (policy, report) in compare_policies(&scenario, &Registry::new()) {
            rows.push(PolicyRow {
                x: pct as f64 / 100.0,
                policy,
                report,
            });
        }
    }
    rows
}

/// E8 — soundness table: ROTA's miss count across seeds and churn rates
/// (expected: identically zero). Rows are `(seed, churn, accepted,
/// missed)`.
pub fn soundness_table(
    seeds: std::ops::Range<u64>,
    churn_probs: &[f64],
) -> Vec<(u64, f64, u64, u64)> {
    let mut rows = Vec::new();
    for seed in seeds {
        for &churn in churn_probs {
            let config = sweep_config(seed).with_load(1.2).with_churn(churn, 12, 3);
            let scenario = build_scenario(&config);
            let report = run_scenario(&scenario, RotaPolicy, ExecutionStrategy::FirstEntitled);
            rows.push((seed, churn, report.accepted, report.missed));
        }
    }
    rows
}

/// E9 — acceptance and miss rates vs resource churn probability, all
/// four policies, at fixed load.
pub fn churn_sweep(seed: u64, churn_pcts: &[u32]) -> Vec<PolicyRow> {
    let mut rows = Vec::new();
    for &pct in churn_pcts {
        let config = sweep_config(seed)
            .with_load(1.0)
            .with_churn(pct as f64 / 100.0, 12, 3);
        let scenario = build_scenario(&config);
        for (policy, report) in compare_policies(&scenario, &Registry::new()) {
            rows.push(PolicyRow {
                x: pct as f64 / 100.0,
                policy,
                report,
            });
        }
    }
    rows
}

/// One row of the E10 segmentation ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// The swept chain length (actions per job).
    pub actions: usize,
    /// Granularity label.
    pub granularity: &'static str,
    /// Mean segments per request.
    pub mean_segments: f64,
    /// Acceptance rate.
    pub acceptance: f64,
    /// Deadline-miss rate (stays 0 for ROTA at both granularities).
    pub miss_rate: f64,
}

/// E10 — segmentation-granularity ablation: per-action vs maximal-run on
/// the same workloads, under ROTA admission.
pub fn segmentation_ablation(seed: u64, action_counts: &[usize]) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for &actions in action_counts {
        for granularity in [Granularity::PerAction, Granularity::MaximalRun] {
            let config = WorkloadConfig::new(seed)
                .with_nodes(4)
                .with_horizon(96)
                .with_shape(JobShape::Chain { evals: actions })
                .with_load(1.0)
                .with_granularity(granularity);
            let scenario = build_scenario(&config);
            let mean_segments = {
                let arrivals: Vec<usize> = scenario
                    .events()
                    .iter()
                    .filter_map(|e| match &e.event {
                        rota_sim::Event::Arrival { request } => {
                            Some(request.requirement().segment_count())
                        }
                        _ => None,
                    })
                    .collect();
                if arrivals.is_empty() {
                    0.0
                } else {
                    arrivals.iter().sum::<usize>() as f64 / arrivals.len() as f64
                }
            };
            let report = run_scenario(&scenario, RotaPolicy, ExecutionStrategy::FirstEntitled);
            rows.push(AblationRow {
                actions,
                granularity: granularity.name(),
                mean_segments,
                acceptance: report.acceptance_rate(),
                miss_rate: report.miss_rate(),
            });
        }
    }
    rows
}

/// The deterministic exhibits as `figures` prints them and
/// EXPERIMENTS.md records them, each its `# title` line and its table
/// (or CSV): E5 and E6 (one load sweep), E8, E9 and E9b (one churn
/// sweep) and E10, for the `figures` names `wanted` selects.
pub fn exhibits(wanted: impl Fn(&str) -> bool, csv: bool) -> Vec<String> {
    let mut out = Vec::new();
    let [acceptance, misses]: [fn(&PolicyRow) -> f64; 2] =
        [|r| r.report.acceptance_rate(), |r| r.report.miss_rate()];
    if wanted("e5") || wanted("e6") {
        let rows = load_sweep(7, &[20, 40, 60, 80, 100, 120, 140, 160, 180, 200]);
        for (name, title, metric) in [
            ("e5", "E5: acceptance rate vs offered load", acceptance),
            ("e6", "E6: deadline-miss rate vs offered load", misses),
        ] {
            if wanted(name) {
                out.push(policy_figure(title, "load", &rows, csv, metric));
            }
        }
    }
    if wanted("e8") {
        let mut text =
            "# E8: soundness — ROTA misses across seeds × churn (expect 0)\n".to_string();
        text += &if csv {
            "seed,churn,accepted,missed\n".to_string()
        } else {
            format!(
                "{:>6} {:>7} {:>9} {:>7}\n",
                "seed", "churn", "accepted", "missed"
            )
        };
        let mut total_missed = 0;
        for (seed, churn, accepted, missed) in soundness_table(0..10, &[0.0, 0.05, 0.1, 0.2]) {
            text += &if csv {
                format!("{seed},{churn},{accepted},{missed}\n")
            } else {
                format!("{seed:>6} {churn:>7.2} {accepted:>9} {missed:>7}\n")
            };
            total_missed += missed;
        }
        text += &format!(
            "# total ROTA misses: {total_missed} (assurance holds: {})\n",
            total_missed == 0
        );
        out.push(text);
    }
    if wanted("e9") {
        let rows = churn_sweep(7, &[0, 2, 5, 10, 15, 20]);
        for (title, metric) in [
            (
                "E9: acceptance rate vs churn probability (load 1.0)",
                acceptance,
            ),
            (
                "E9b: deadline-miss rate vs churn probability (load 1.0)",
                misses,
            ),
        ] {
            out.push(policy_figure(title, "churn", &rows, csv, metric));
        }
    }
    if wanted("e10") {
        let mut text = "# E10: segmentation ablation (ROTA policy, chain jobs)\n".to_string();
        text += &if csv {
            "actions,granularity,mean_segments,acceptance,miss_rate\n".to_string()
        } else {
            format!(
                "{:>8} {:>12} {:>14} {:>11} {:>9}\n",
                "actions", "granularity", "mean_segments", "acceptance", "miss"
            )
        };
        for row in segmentation_ablation(7, &[2, 4, 8, 16]) {
            text += &if csv {
                format!(
                    "{},{},{:.2},{:.4},{:.4}\n",
                    row.actions, row.granularity, row.mean_segments, row.acceptance, row.miss_rate
                )
            } else {
                format!(
                    "{:>8} {:>12} {:>14.2} {:>10.1}% {:>8.1}%\n",
                    row.actions,
                    row.granularity,
                    row.mean_segments,
                    row.acceptance * 100.0,
                    row.miss_rate * 100.0
                )
            };
        }
        out.push(text);
    }
    out
}

/// One policy-comparison exhibit: a row per swept `x`, a column per
/// standard policy, each cell `metric` as a percentage (CSV: a ratio).
fn policy_figure(
    title: &str,
    x_name: &str,
    rows: &[PolicyRow],
    csv: bool,
    metric: fn(&PolicyRow) -> f64,
) -> String {
    let policies = rota_admission::standard_policies().map(|p| p.policy.name());
    let mut text = format!("# {title}\n");
    if csv {
        text += &format!("{x_name},{}\n", policies.join(","));
    } else {
        text += &format!("{x_name:>7}");
        for p in policies {
            text += &format!(" {p:>12}");
        }
        text += "\n";
    }
    let mut xs: Vec<f64> = rows.iter().map(|r| r.x).collect();
    xs.dedup();
    for x in xs {
        let series = policies.iter().map(|p| {
            rows.iter()
                .find(|r| r.x == x && r.policy == *p)
                .map_or(f64::NAN, metric)
        });
        if csv {
            let vals: Vec<String> = series.map(|v| format!("{v:.4}")).collect();
            text += &format!("{x},{}\n", vals.join(","));
        } else {
            text += &format!("{x:>7.2}");
            for v in series {
                text += &format!(" {:>11.1}%", v * 100.0);
            }
            text += "\n";
        }
    }
    text
}

/// One row of the E11 encapsulation experiment: admission-decision
/// latency, global reasoning vs per-org reasoning at equal total load.
#[derive(Debug, Clone, PartialEq)]
pub struct EncapsulationRow {
    /// Committed computations in the system.
    pub jobs: usize,
    /// Mean decision latency over the whole system's resources, in
    /// nanoseconds.
    pub global_ns: f64,
    /// Mean decision latency inside one per-node org, in nanoseconds.
    pub encapsulated_ns: f64,
}

/// E11 — measures the paper's complexity-amelioration claim: the same
/// probe decided against the global state vs inside an encapsulation
/// holding 1/16th of the system.
pub fn encapsulation_table(job_counts: &[usize]) -> Vec<EncapsulationRow> {
    use rota_actor::{ActionKind, ActorComputation, DistributedComputation, TableCostModel};
    use rota_admission::{AdmissionPolicy, AdmissionRequest, Decision};
    use rota_cyberorgs::CyberOrgs;
    use rota_interval::TimeInterval;
    use rota_logic::State;
    use rota_resource::{LocatedType, Location, Rate, ResourceSet, ResourceTerm};
    use std::time::Instant;

    const HORIZON: u64 = 2_048;
    const NODES: usize = 16;
    let window = TimeInterval::from_ticks(0, HORIZON).expect("valid");
    let pool = |nodes: usize| {
        ResourceSet::from_terms((0..nodes).map(|i| {
            ResourceTerm::new(
                Rate::new(8),
                window,
                LocatedType::cpu(Location::new(format!("l{i}"))),
            )
        }))
        .expect("bounded rates")
    };
    let request = |name: &str, node: usize| {
        let gamma = ActorComputation::new(format!("{name}-actor"), format!("l{node}"))
            .then(ActionKind::evaluate())
            .then(ActionKind::evaluate());
        AdmissionRequest::price(
            DistributedComputation::single(name, gamma, TimePoint::ZERO, TimePoint::new(HORIZON))
                .expect("valid window"),
            &TableCostModel::paper(),
            Granularity::MaximalRun,
        )
    };
    let time_decides = |state: &State, probe: &AdmissionRequest| {
        let reps = 50;
        let start = Instant::now();
        for _ in 0..reps {
            let _ = RotaPolicy.decide(state, probe);
        }
        start.elapsed().as_nanos() as f64 / reps as f64
    };

    let mut rows = Vec::new();
    for &jobs in job_counts {
        // global
        let mut global = State::new(pool(NODES), TimePoint::ZERO);
        for k in 0..jobs {
            let req = request(&format!("pre{k}"), k % NODES);
            if let Decision::Accept(cs) = RotaPolicy.decide(&global, &req) {
                for c in cs {
                    global.accommodate(c).expect("before deadline");
                }
            }
        }
        let probe = request("probe", 3);
        let global_ns = time_decides(&global, &probe);

        // encapsulated: one org per node, same total commitments
        let mut orgs = CyberOrgs::new("root", pool(NODES), TimePoint::ZERO);
        for i in 0..NODES {
            let slice = ResourceSet::from_terms([ResourceTerm::new(
                Rate::new(8),
                window,
                LocatedType::cpu(Location::new(format!("l{i}"))),
            )])
            .expect("bounded rates");
            orgs.create_org("root", format!("org{i}").as_str(), slice)
                .expect("carving from root");
        }
        for k in 0..jobs {
            let node = k % NODES;
            let _ = orgs
                .admit(
                    format!("org{node}").as_str(),
                    &request(&format!("pre{k}"), node),
                )
                .expect("org exists");
        }
        let state = orgs.state("org3").expect("org exists");
        let encapsulated_ns = time_decides(state, &probe);
        rows.push(EncapsulationRow {
            jobs,
            global_ns,
            encapsulated_ns,
        });
    }
    rows
}

/// Cross-validation of the Theorem-2 scheduler against the exhaustive
/// reference on random small instances — the harness self-check.
pub fn scheduler_crosscheck(cases: u64) -> bool {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rota_actor::{ComplexRequirement, ResourceDemand};
    use rota_interval::TimeInterval;
    use rota_resource::{LocatedType, Location, Quantity, Rate, ResourceSet, ResourceTerm};
    let mut rng = StdRng::seed_from_u64(2010);
    for _ in 0..cases {
        let lt = LocatedType::cpu(Location::new("l0"));
        let mut theta = ResourceSet::new();
        for _ in 0..rng.gen_range(0..4) {
            let s = rng.gen_range(0u64..10);
            let e = rng.gen_range(s + 1..=12);
            theta
                .insert(ResourceTerm::new(
                    Rate::new(rng.gen_range(0..4)),
                    TimeInterval::from_ticks(s, e).expect("s < e"),
                    lt.clone(),
                ))
                .expect("bounded");
        }
        let req = ComplexRequirement::new(
            (0..rng.gen_range(1..4))
                .map(|_| ResourceDemand::single(lt.clone(), Quantity::new(rng.gen_range(1..8))))
                .collect(),
            TimeInterval::from_ticks(0, 12).expect("valid"),
        );
        let greedy = schedule_complex(&theta, &req, TimePoint::ZERO).is_ok();
        let brute = exhaustive_schedule_exists(&theta, &req, TimePoint::ZERO);
        if greedy != brute {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_sweep_shapes_hold() {
        let rows = load_sweep(1, &[40, 140]);
        assert_eq!(rows.len(), 8);
        for row in &rows {
            if row.policy == "rota" {
                assert_eq!(row.report.missed, 0);
            }
        }
        let opt_high = rows
            .iter()
            .find(|r| r.policy == "optimistic" && r.x > 1.0)
            .unwrap();
        assert!(opt_high.report.missed > 0);
    }

    #[test]
    fn soundness_rows_all_zero() {
        for (seed, churn, accepted, missed) in soundness_table(0..3, &[0.0, 0.2]) {
            assert_eq!(missed, 0, "seed {seed}, churn {churn}");
            assert!(accepted > 0);
        }
    }

    #[test]
    fn ablation_coarse_has_fewer_segments() {
        let rows = segmentation_ablation(5, &[6]);
        let per_action = rows.iter().find(|r| r.granularity == "per-action").unwrap();
        let maximal = rows
            .iter()
            .find(|r| r.granularity == "maximal-run")
            .unwrap();
        assert!(maximal.mean_segments < per_action.mean_segments);
        assert_eq!(per_action.miss_rate, 0.0);
        assert_eq!(maximal.miss_rate, 0.0);
    }

    #[test]
    fn churn_sweep_runs_all_policies() {
        let rows = churn_sweep(2, &[0, 10]);
        assert_eq!(rows.len(), 8);
        for row in rows {
            if row.policy == "rota" {
                assert_eq!(row.report.missed, 0);
            }
        }
    }

    #[test]
    fn crosscheck_passes() {
        assert!(scheduler_crosscheck(200));
    }
}
