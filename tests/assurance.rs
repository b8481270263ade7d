//! The deadline-assurance validation (experiment E8 as a test): across
//! seeds, loads, shapes and churn, computations admitted by the ROTA
//! policy never miss their deadlines, while optimistic admission does
//! under overload.

use rota::prelude::*;

fn shapes() -> Vec<JobShape> {
    vec![
        JobShape::Chain { evals: 3 },
        JobShape::ForkJoin {
            actors: 2,
            evals_each: 2,
        },
        JobShape::Pipeline { hops: 2 },
        JobShape::Mixed,
    ]
}

#[test]
fn rota_never_misses_across_seeds_and_loads() {
    for seed in 0..6u64 {
        for load in [0.4, 1.0, 1.6] {
            let config = WorkloadConfig::new(seed)
                .with_nodes(4)
                .with_horizon(64)
                .with_shape(JobShape::Mixed)
                .with_load(load);
            let scenario = build_scenario(&config);
            let report = run_scenario(&scenario, RotaPolicy, ExecutionStrategy::FirstEntitled);
            assert_eq!(
                report.missed, 0,
                "seed {seed}, load {load}: ROTA missed deadlines"
            );
            assert_eq!(report.completed, report.accepted);
        }
    }
}

#[test]
fn rota_never_misses_under_churn() {
    for seed in 0..4u64 {
        let config = WorkloadConfig::new(seed)
            .with_nodes(4)
            .with_horizon(64)
            .with_shape(JobShape::Mixed)
            .with_load(1.2)
            .with_churn(0.15, 12, 3);
        let scenario = build_scenario(&config);
        let report = run_scenario(&scenario, RotaPolicy, ExecutionStrategy::FirstEntitled);
        assert_eq!(report.missed, 0, "seed {seed}: ROTA missed under churn");
    }
}

#[test]
fn rota_never_misses_with_cancellation_churn() {
    for seed in 0..4u64 {
        let config = WorkloadConfig::new(seed)
            .with_nodes(4)
            .with_horizon(64)
            .with_shape(JobShape::Mixed)
            .with_load(1.2)
            .with_cancellation(10, 0.4);
        let scenario = build_scenario(&config);
        let report = run_scenario(&scenario, RotaPolicy, ExecutionStrategy::FirstEntitled);
        assert_eq!(report.missed, 0, "seed {seed}: missed under cancellation");
        assert_eq!(
            report.completed + report.withdrawn,
            report.accepted,
            "seed {seed}: every admission resolves as completed or withdrawn"
        );
        // utilization is sane: we never deliver more than offered
        assert!(report.utilization() <= 1.0);
    }
}

#[test]
fn rota_never_misses_for_every_shape() {
    for shape in shapes() {
        let config = WorkloadConfig::new(11)
            .with_nodes(4)
            .with_horizon(64)
            .with_shape(shape)
            .with_load(1.0);
        let scenario = build_scenario(&config);
        let report = run_scenario(&scenario, RotaPolicy, ExecutionStrategy::FirstEntitled);
        assert_eq!(report.missed, 0, "shape {shape:?}");
        assert!(report.accepted > 0, "shape {shape:?} admitted nothing");
    }
}

#[test]
fn optimistic_misses_under_overload() {
    let mut any_missed = false;
    for seed in 0..4u64 {
        let config = WorkloadConfig::new(seed)
            .with_nodes(4)
            .with_horizon(64)
            .with_shape(JobShape::Mixed)
            .with_load(1.8);
        let scenario = build_scenario(&config);
        let report = run_scenario(
            &scenario,
            OptimisticPolicy,
            ExecutionStrategy::EarliestDeadline,
        );
        any_missed |= report.missed > 0;
    }
    assert!(any_missed, "overload must defeat optimistic admission");
}

#[test]
fn optimistic_accepts_at_least_as_much_as_everyone() {
    let config = WorkloadConfig::new(3)
        .with_nodes(4)
        .with_horizon(64)
        .with_shape(JobShape::Mixed)
        .with_load(1.2);
    let scenario = build_scenario(&config);
    let results = compare_policies(&scenario, &Registry::new());
    let optimistic = results
        .iter()
        .find(|(n, _)| *n == "optimistic")
        .unwrap()
        .1
        .accepted;
    for (name, report) in &results {
        assert!(
            report.accepted <= optimistic,
            "{name} accepted more than optimistic"
        );
    }
}

#[test]
fn greedy_edf_holds_assurance_in_closed_runs() {
    // With no churn after admission and EDF execution, the simulation
    // -based policy also avoids misses (its guarantees are weaker in
    // open conditions, but this workload is closed).
    for seed in 0..4u64 {
        let config = WorkloadConfig::new(seed)
            .with_nodes(4)
            .with_horizon(64)
            .with_shape(JobShape::Chain { evals: 3 })
            .with_load(1.4);
        let scenario = build_scenario(&config);
        let report = run_scenario(
            &scenario,
            GreedyEdfPolicy,
            ExecutionStrategy::EarliestDeadline,
        );
        assert_eq!(report.missed, 0, "seed {seed}");
    }
}

#[test]
fn acceptance_degrades_gracefully_with_load() {
    let rate_at = |load: f64| {
        let config = WorkloadConfig::new(9)
            .with_nodes(4)
            .with_horizon(64)
            .with_shape(JobShape::Chain { evals: 3 })
            .with_load(load);
        run_scenario(
            &build_scenario(&config),
            RotaPolicy,
            ExecutionStrategy::FirstEntitled,
        )
        .acceptance_rate()
    };
    let light = rate_at(0.3);
    let heavy = rate_at(1.8);
    assert!(light > heavy, "acceptance should fall with load");
    assert!(
        light > 0.7,
        "light load should admit most work, got {light}"
    );
}
