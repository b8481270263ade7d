//! The benchmark's workloads and their job sequences.
//!
//! Every job sequence is a pure function of the workload and the seed:
//! the same seed yields the same `admit` frames byte for byte. Each
//! phase (warm-up, timed, oracle, probe) draws from its own seeded
//! stream and names its jobs with its own prefix, so no two phases ever
//! share a computation name and the server's decision cache never
//! replays or refuses a job.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rota_actor::{DistributedComputation, Granularity, TableCostModel};
use rota_admission::AdmissionRequest;
use rota_cluster::Topology;
use rota_server::protocol::Request;
use rota_server::spec::{computation_to_json, ComputationSpec};
use rota_workload::{generate_job, JobShape, WorkloadConfig};

/// How the service under test is deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// One `rota-cli serve` process with in-process shards.
    Serve {
        /// Shard workers.
        shards: usize,
    },
    /// One `rota-cli cluster` process running an auto-topology
    /// federation, one node per location.
    Cluster {
        /// Gossip round length in milliseconds.
        gossip_ms: u64,
        /// Gossip seed; fixed so every cold start converges in the same
        /// number of rounds.
        gossip_seed: u64,
    },
}

/// One benchmark workload: the service flags and the size of each phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Service deployment.
    pub deployment: Deployment,
    /// Locations `l0 … l{nodes−1}` (and cluster nodes, for a cluster).
    pub nodes: usize,
    /// Supply horizon in ticks.
    pub horizon: u64,
    /// Shape of every job.
    pub shape: JobShape,
    /// Deadline slack factor of every job.
    pub slack: f64,
    /// Untimed jobs submitted to each fresh service before its timed
    /// phase.
    pub warmup_jobs: usize,
    /// Jobs in each timed round: a fixed count, never a fixed duration,
    /// so a faster server does the same work rather than reaching a
    /// deeper state.
    pub timed_jobs: usize,
    /// Jobs in the one-connection oracle pass.
    pub oracle_jobs: usize,
    /// Extra cold starts made only to sample set-up time.
    pub extra_cold_starts: usize,
    /// Nominal wall time of one round (spawn, warm-up and timed phase)
    /// on a 2-vCPU machine; it sets how many rounds fill `--seconds`.
    pub round_ms: u64,
}

/// Client connections (and generator threads) of every timed phase.
pub const CONNECTIONS: usize = 2;

/// Per-shard queue capacity passed to the service (its default, set
/// explicitly so the banner check covers it).
pub const QUEUE: usize = 64;

/// The pricing granularity of every admit.
pub const GRANULARITY: Granularity = Granularity::MaximalRun;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub fn all() -> Vec<Workload> {
        vec![
            Workload {
                name: "mixed-small",
                deployment: Deployment::Serve { shards: 4 },
                nodes: 4,
                horizon: 24,
                shape: JobShape::Mixed,
                slack: 3.0,
                warmup_jobs: 1_000,
                timed_jobs: 5_000,
                oracle_jobs: 1_000,
                extra_cold_starts: 8,
                round_ms: 650,
            },
            Workload {
                name: "chain-deep",
                deployment: Deployment::Serve { shards: 4 },
                nodes: 64,
                horizon: 4_096,
                shape: JobShape::Chain { evals: 3 },
                slack: 4.0,
                warmup_jobs: 300,
                timed_jobs: 2_000,
                oracle_jobs: 600,
                extra_cold_starts: 8,
                round_ms: 1_800,
            },
            Workload {
                name: "cluster-mixed",
                deployment: Deployment::Cluster {
                    gossip_ms: 50,
                    gossip_seed: 11,
                },
                nodes: 3,
                horizon: 768,
                shape: JobShape::Mixed,
                slack: 3.0,
                warmup_jobs: 100,
                timed_jobs: 600,
                oracle_jobs: 300,
                extra_cold_starts: 2,
                round_ms: 1_400,
            },
        ]
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::all().into_iter().find(|w| w.name == name)
    }

    /// The generator configuration for `seed`. The service is started
    /// from the same node count and horizon, so the jobs target exactly
    /// the supply it serves.
    pub fn config(&self, seed: u64) -> WorkloadConfig {
        WorkloadConfig::new(seed)
            .with_nodes(self.nodes)
            .with_horizon(self.horizon)
            .with_shape(self.shape)
            .with_slack(self.slack)
    }

    /// Shard workers per service process (per node, for a cluster).
    pub fn shards(&self) -> usize {
        match self.deployment {
            Deployment::Serve { shards } => shards,
            Deployment::Cluster { .. } => 1,
        }
    }

    /// Timed rounds in a run of `seconds`: a fixed count, so every run
    /// of a given length does the same work however fast the service
    /// is.
    pub fn rounds(&self, seconds: u64) -> usize {
        usize::try_from(seconds * 1_000 / self.round_ms.max(1))
            .unwrap_or(usize::MAX)
            .max(2)
    }

    /// Whether the service is a federation.
    pub fn is_cluster(&self) -> bool {
        matches!(self.deployment, Deployment::Cluster { .. })
    }

    /// The `rota-cli` arguments that start this workload's service on
    /// ephemeral ports.
    pub fn service_args(&self) -> Vec<String> {
        let mut args: Vec<String> = match self.deployment {
            Deployment::Serve { shards } => vec![
                "serve".into(),
                "--addr".into(),
                "127.0.0.1:0".into(),
                "--policy".into(),
                "rota".into(),
                "--shards".into(),
                shards.to_string(),
            ],
            Deployment::Cluster {
                gossip_ms,
                gossip_seed,
            } => vec![
                "cluster".into(),
                "--seed".into(),
                gossip_seed.to_string(),
                "--gossip-ms".into(),
                gossip_ms.to_string(),
                "--shards".into(),
                "1".into(),
            ],
        };
        args.extend([
            "--nodes".into(),
            self.nodes.to_string(),
            "--horizon".into(),
            self.horizon.to_string(),
            "--queue".into(),
            QUEUE.to_string(),
        ]);
        args
    }
}

/// A benchmark phase; each has its own name prefix and seed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Untimed jobs that warm each fresh service.
    Warmup,
    /// The timed round.
    Timed,
    /// The one-connection pass compared against the merged-state oracle.
    Oracle,
    /// Snapshot/prepare probes sent straight to a node.
    Probe,
}

impl Phase {
    /// Every phase.
    pub const ALL: [Phase; 4] = [Phase::Warmup, Phase::Timed, Phase::Oracle, Phase::Probe];

    /// The name prefix of this phase's jobs.
    pub fn prefix(self) -> &'static str {
        match self {
            Phase::Warmup => "w",
            Phase::Timed => "t",
            Phase::Oracle => "o",
            Phase::Probe => "p",
        }
    }

    fn salt(self) -> u64 {
        match self {
            Phase::Warmup => 0x5741_524d,
            Phase::Timed => 0x5449_4d45,
            Phase::Oracle => 0x4f52_4143,
            Phase::Probe => 0x5052_4f42,
        }
    }
}

/// One pre-generated, pre-encoded job.
#[derive(Debug, Clone)]
pub struct Job {
    /// The computation's name (unique across phases).
    pub name: String,
    /// The generated computation, for the in-process replay.
    pub computation: DistributedComputation,
    /// The `admit` request, built before any timing starts.
    pub request: Request,
    /// Indices of the locations (`l{i}`) the priced demand touches —
    /// under an auto topology, the owning node indices.
    pub owners: BTreeSet<usize>,
}

/// Generates `count` jobs of `phase` for `workload` under `seed`. Each
/// timed round of a run draws its own sequence (`round` = 0, 1, …), so
/// a run samples several independent sequences of the same workload.
pub fn jobs(workload: &Workload, seed: u64, phase: Phase, round: usize, count: usize) -> Vec<Job> {
    let config = workload.config(seed);
    let stream = seed
        ^ phase.salt().rotate_left(17)
        ^ (round as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut rng = StdRng::seed_from_u64(stream);
    let horizon = config.horizon.max(4);
    let topology = Topology::auto(workload.nodes.max(1));
    let cost = TableCostModel::paper();
    (0..count)
        .map(|i| {
            // Arrivals spread over the front half of the horizon so
            // generated deadlines stay inside it.
            let arrival = rng.gen_range(0..horizon / 2);
            let name = format!("{}{i}", phase.prefix());
            let computation = generate_job(&config, &mut rng, &name, arrival);
            let spec = ComputationSpec::from_json(&computation_to_json(&computation))
                .expect("generated computations encode to valid specs");
            let priced = AdmissionRequest::price(computation.clone(), &cost, GRANULARITY);
            let owners = demanded_owners(&priced, &topology);
            Job {
                name,
                computation,
                request: Request::Admit {
                    computation: spec,
                    granularity: GRANULARITY,
                    forwarded: false,
                },
                owners,
            }
        })
        .collect()
}

/// The nodes owning the source location of every non-zero demanded
/// type: the set the cluster router routes on.
fn demanded_owners(request: &AdmissionRequest, topology: &Topology) -> BTreeSet<usize> {
    let mut owners = BTreeSet::new();
    for (located, quantity) in request.requirement().total_demand().iter() {
        if quantity.is_zero() {
            continue;
        }
        let locations = located.locations();
        let Some(location) = locations.first() else {
            continue;
        };
        if let Some(node) = topology.owner_of(location.name()) {
            if let Some(index) = topology.nodes().iter().position(|n| n.id == node.id) {
                owners.insert(index);
            }
        }
    }
    owners
}

/// How a cluster node handles an admit, given which nodes own the
/// demanded locations and which node received it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Route {
    /// The receiving node owns everything demanded: decided locally.
    Direct,
    /// One other node owns everything: forwarded whole.
    Forward,
    /// Several owners: two-phase commit.
    TwoPhase,
}

impl Route {
    /// Every route.
    pub const ALL: [Route; 3] = [Route::Direct, Route::Forward, Route::TwoPhase];

    /// The route the cluster router takes for `owners` at node `me`.
    pub fn classify(owners: &BTreeSet<usize>, me: usize) -> Route {
        let remote = owners.iter().filter(|&&o| o != me).count();
        let total = remote + usize::from(owners.contains(&me));
        match (remote, total) {
            (0, _) => Route::Direct,
            (1, 1) => Route::Forward,
            _ => Route::TwoPhase,
        }
    }

    /// Metric-name fragment.
    pub fn name(self) -> &'static str {
        match self {
            Route::Direct => "direct",
            Route::Forward => "forward",
            Route::TwoPhase => "twopc",
        }
    }
}
