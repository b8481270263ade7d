//! The two-phase commit coordinator: one path over one participant
//! interface (DESIGN.md §12, "Two-phase commit").
//!
//! A [`Participant`] answers the four calls a two-phase admission
//! makes: a scoped snapshot, `prepare`, `commit` and `abort`. [`Local`]
//! reaches a node in-process through its [`LocalHandle`]: its prepare
//! installs the verdict the coordinator decided. [`Peer`] reaches one
//! over its peer link: its prepare sends the basis, on which the node
//! decides itself. The [`Coordinator`] runs the same steps whatever each
//! participant is. It snapshots the confirmer, then the others in
//! node-id order, and after each slice asks the policy's refutation
//! ([`LocalHandle::refute`]) with the supply read so far. Unless that
//! refutes, it takes the union of the slices as the basis (the merged
//! single-node state, since ownership is disjoint) and decides once
//! ([`LocalHandle::decide`]). A reject installs
//! nothing, so the confirmer's prepare alone confirms it; an accept is
//! prepared and committed in node-id order. Each participant's prepare
//! checks that its part of what the verdict read, its supply within the
//! request's scope, still stands; a `stale-epoch` answer says it moved,
//! and the coordinator aborts what was prepared and retries. A
//! coordinator that dies between prepare and commit leaks nothing,
//! since every hold has a TTL.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::iter;
use std::sync::Arc;
use std::time::Duration;

use rota_actor::Granularity;
use rota_admission::{AdmissionRequest, Decision, RejectReason};
use rota_logic::Scope;
use rota_obs::{Counter, Histogram, Registry};
use rota_resource::{LocatedType, ResourceSet};
use rota_server::spec::{self, resources_from_json, ComputationSpec};
use rota_server::{Diagnostics, LocalHandle, Request, Response};

use crate::links::PeerLinks;

/// How many times a 2PC re-snapshots and retries after losing a race
/// to a concurrent change of what it read (a `stale-epoch` answer).
const MAX_RETRIES: u32 = 4;

/// Each demanded located type's owner, as an index into a two-phase
/// admission's participants.
pub(crate) type Owners = BTreeMap<LocatedType, usize>;

/// An admission the router has priced, with what its two-phase rounds
/// send and read.
pub(crate) struct Admission<'a> {
    pub(crate) computation: &'a ComputationSpec,
    pub(crate) granularity: Granularity,
    pub(crate) request: &'a AdmissionRequest,
    /// The request's demanded located types over its window.
    pub(crate) scope: &'a Scope,
}

/// What every `prepare` of one attempt carries: the verdict the
/// coordinator holds and the basis it was decided on.
pub(crate) struct Prepare<'a> {
    pub(crate) admission: &'a Admission<'a>,
    pub(crate) verdict: &'a Decision,
    pub(crate) basis: &'a ResourceSet,
    pub(crate) ttl: Duration,
}

/// A node as a two-phase admission reaches it. An `Err` is a failed
/// call (the peer unreachable, or its answer unreadable), never a
/// verdict.
pub(crate) trait Participant {
    /// The node's id in the topology.
    fn id(&self) -> &str;
    /// The node's slice of the basis: its supply within `scope`.
    fn snapshot(&self, scope: &Scope) -> Result<ResourceSet, String>;
    /// Phase one: hold the name, installing an accept's share, if the
    /// node's part of the basis still stands.
    fn prepare(&self, prepare: &Prepare<'_>) -> Result<Response, String>;
    /// Phase two: make the held name permanent.
    fn commit(&self, name: &str) -> Result<Response, String>;
    /// Release the name, held or committed.
    fn abort(&self, name: &str) -> Result<Response, String>;
}

/// A node reached in-process: its prepare installs the verdict it is
/// given, so nothing is decided twice and nothing goes through JSON.
pub(crate) struct Local<'a> {
    pub(crate) id: &'a str,
    pub(crate) handle: &'a LocalHandle,
}

impl Participant for Local<'_> {
    fn id(&self) -> &str {
        self.id
    }

    fn snapshot(&self, scope: &Scope) -> Result<ResourceSet, String> {
        self.handle
            .cluster_state_in(Some(scope))
            .map_err(|message| unexpected(self.id, "the snapshot", Ok(Response::Error { message })))
    }

    fn prepare(&self, prepare: &Prepare<'_>) -> Result<Response, String> {
        Ok(self.handle.prepare(
            prepare.admission.request,
            prepare.verdict,
            prepare.basis,
            prepare.ttl,
        ))
    }

    fn commit(&self, name: &str) -> Result<Response, String> {
        Ok(self
            .handle
            .call(Request::CommitReservation { name: name.into() }))
    }

    fn abort(&self, name: &str) -> Result<Response, String> {
        Ok(self
            .handle
            .call(Request::AbortReservation { name: name.into() }))
    }
}

/// A node reached over its peer link. Its prepare sends the basis, and
/// the node decides on it itself; every call is counted in `calls`,
/// every prepare in `prepares`.
pub(crate) struct Peer<'a> {
    pub(crate) id: &'a str,
    pub(crate) addr: &'a str,
    pub(crate) links: &'a PeerLinks,
    pub(crate) calls: &'a Cell<u64>,
    pub(crate) prepares: &'a Counter,
}

impl Peer<'_> {
    fn call(&self, request: &Request) -> Result<Response, String> {
        self.calls.set(self.calls.get() + 1);
        self.links.call(self.id, self.addr, request)
    }
}

impl Participant for Peer<'_> {
    fn id(&self) -> &str {
        self.id
    }

    fn snapshot(&self, scope: &Scope) -> Result<ResourceSet, String> {
        let answer = self.call(&Request::ScopedSnapshot {
            scope: scope.clone(),
        });
        read_snapshot(self.id, answer)
    }

    fn prepare(&self, prepare: &Prepare<'_>) -> Result<Response, String> {
        self.prepares.inc();
        let admission = prepare.admission;
        self.call(&Request::Prepare {
            name: admission.request.name().to_string(),
            computation: admission.computation.clone(),
            granularity: admission.granularity,
            basis: spec::resource_specs(prepare.basis),
            // v6 keeps the member; a node reads and ignores it.
            epochs: Vec::new(),
            ttl_ms: u64::try_from(prepare.ttl.as_millis()).unwrap_or(u64::MAX),
        })
    }

    fn commit(&self, name: &str) -> Result<Response, String> {
        self.call(&Request::CommitReservation { name: name.into() })
    }

    fn abort(&self, name: &str) -> Result<Response, String> {
        self.call(&Request::AbortReservation { name: name.into() })
    }
}

/// The two-phase metrics one node publishes.
pub(crate) struct TwoPhaseObs {
    pub(crate) started: Arc<Counter>,
    committed: Arc<Counter>,
    rejected: Arc<Counter>,
    aborted: Arc<Counter>,
    retries: Arc<Counter>,
    pub(crate) prepares: Arc<Counter>,
    /// Two-phase admissions a refutation from the slices read so far
    /// ended: `[0]` when the coordinator owns none of the demand, `[1]`
    /// when it owns some.
    pub(crate) refuted: [Arc<Counter>; 2],
    /// Terms in the merged basis of each snapshot round.
    basis_terms: Arc<Histogram>,
    /// Peer calls per two-phase admission, retries included, labelled
    /// as `refuted` is.
    pub(crate) peer_calls: [Arc<Histogram>; 2],
}

impl TwoPhaseObs {
    pub(crate) fn new(registry: &Registry) -> TwoPhaseObs {
        let labelled = ["other", "owner"];
        TwoPhaseObs {
            started: registry.counter("cluster.twopc.started"),
            committed: registry.counter("cluster.twopc.committed"),
            rejected: registry.counter("cluster.twopc.rejected"),
            aborted: registry.counter("cluster.twopc.aborted"),
            retries: registry.counter("cluster.twopc.retries"),
            prepares: registry.counter("cluster.twopc.prepares"),
            refuted: labelled.map(|coordinator| {
                registry.counter(&format!(
                    "cluster.twopc.refuted{{coordinator={coordinator}}}"
                ))
            }),
            basis_terms: registry.histogram("cluster.twopc.basis_terms", Histogram::depth_bounds()),
            peer_calls: labelled.map(|coordinator| {
                registry.histogram(
                    &format!("cluster.twopc.peer_calls{{coordinator={coordinator}}}"),
                    Histogram::depth_bounds(),
                )
            }),
        }
    }
}

/// One two-phase admission's coordinator: the node it runs on decides
/// and refutes with its own policy, through `local`.
pub(crate) struct Coordinator<'a> {
    pub(crate) local: &'a LocalHandle,
    pub(crate) obs: &'a TwoPhaseObs,
    /// Counts the refutations that stand: one of `obs.refuted`.
    pub(crate) refuted: &'a Counter,
    /// The TTL of each tentative reservation.
    pub(crate) ttl: Duration,
}

impl Coordinator<'_> {
    /// Runs one two-phase admission across `participants`, in node-id
    /// order, with `participants[confirmer]` confirming rejects (see the
    /// module docs). Attempts are retried on a `stale-epoch` answer; an
    /// attempt whose refutation meets a name already held or committed
    /// is run again without refuting, and that rerun is no retry.
    pub(crate) fn admit(
        &self,
        participants: &[&dyn Participant],
        confirmer: usize,
        owners: &Owners,
        admission: &Admission,
    ) -> Response {
        let mut refuting = true;
        let mut attempts = 0;
        while attempts <= MAX_RETRIES {
            let owners = refuting.then_some(owners);
            match self.attempt(participants, confirmer, owners, admission) {
                Attempt::Done(response) => return response,
                Attempt::Held => refuting = false,
                Attempt::Stale => {
                    self.obs.retries.inc();
                    attempts += 1;
                }
            }
        }
        self.obs.aborted.inc();
        Response::Error {
            message: format!(
                "two-phase admission for `{}` lost {} epoch races; \
                 the cluster state keeps changing, retry later",
                admission.request.name(),
                MAX_RETRIES + 1
            ),
        }
    }

    /// One snapshot, prepare and commit round of a two-phase admission.
    fn attempt(
        &self,
        participants: &[&dyn Participant],
        confirmer: usize,
        owners: Option<&Owners>,
        admission: &Admission,
    ) -> Attempt {
        let request = admission.request;
        let round = self
            .snapshot(participants, confirmer, owners, admission)
            .and_then(|round| {
                let verdict = match &round.refutation {
                    Some(reject) => Decision::Reject(reject.clone()),
                    None => self.local.decide(request, &round.basis)?,
                };
                Ok((round, verdict))
            });
        let (round, verdict) = match round {
            Ok(round) => round,
            Err(message) => {
                self.obs.aborted.inc();
                return Attempt::Done(Response::Error {
                    message: format!("two-phase admission failed before prepare: {message}"),
                });
            }
        };
        let prepare = Prepare {
            admission,
            verdict: &verdict,
            basis: &round.basis,
            ttl: self.ttl,
        };
        if matches!(verdict, Decision::Reject(_)) {
            let participant = participants[confirmer];
            let answer = participant.prepare(&prepare);
            let refuted = round.refutation.is_some();
            match answer {
                Ok(Response::Prepared { .. }) if refuted => return Attempt::Held,
                Ok(Response::Prepared { .. }) => {}
                answer => {
                    if refuted && matches!(answer, Ok(Response::Decision { .. })) {
                        self.refuted.inc();
                    }
                    return self.settle(participant.id(), answer);
                }
            }
        }
        let failure = participants
            .iter()
            .enumerate()
            .find_map(|(index, participant)| match participant.prepare(&prepare) {
                Ok(Response::Prepared { .. }) => None,
                answer => Some((index, answer)),
            });
        let name = request.name();
        let Some((prepared, answer)) = failure else {
            return Attempt::Done(self.commit_all(participants, name));
        };
        release(&participants[..prepared], name);
        self.settle(participants[prepared].id(), answer)
    }

    /// How `participant`'s answer to a prepare that did not prepare
    /// ends the attempt: a reject is the admission's answer,
    /// `stale-epoch` a retry, anything else an abort.
    fn settle(&self, participant: &str, answer: Result<Response, String>) -> Attempt {
        match answer {
            Ok(decision @ Response::Decision { .. }) => {
                self.obs.rejected.inc();
                Attempt::Done(decision)
            }
            Ok(Response::StaleEpoch { .. }) => Attempt::Stale,
            other => {
                self.obs.aborted.inc();
                Attempt::Done(Response::Error {
                    message: format!(
                        "two-phase admission failed: {}",
                        unexpected(participant, "prepare", other)
                    ),
                })
            }
        }
    }

    /// Snapshots the confirmer, then every other participant in order,
    /// within the admission's scope. Given the demand's `owners`, the
    /// supply read so far is offered to the policy's refutation after
    /// each slice, and a refutation ends the round there. The slices
    /// read merge into the basis, which is their union: ownership is
    /// disjoint, so all of a located type's supply is in its owner's
    /// slice.
    fn snapshot(
        &self,
        participants: &[&dyn Participant],
        confirmer: usize,
        owners: Option<&Owners>,
        admission: &Admission,
    ) -> Result<Round, String> {
        let mut slices: Vec<Option<ResourceSet>> = vec![None; participants.len()];
        let mut refutation = None;
        let window = admission.request.window();
        let others = (0..participants.len()).filter(|&index| index != confirmer);
        for index in iter::once(confirmer).chain(others) {
            slices[index] = Some(participants[index].snapshot(admission.scope)?);
            // A demanded type's supply is its owner's slice's quantity
            // over the window, unknown while that slice is unread.
            refutation = owners.and_then(|owners| {
                let supply = |located: &LocatedType| {
                    let slice = slices[*owners.get(located)?].as_ref()?;
                    slice.quantity_over(located, &window).ok()
                };
                self.local.refute(admission.request, &supply)
            });
            if refutation.is_some() {
                break;
            }
        }
        let mut basis = ResourceSet::new();
        for slice in slices.iter().flatten() {
            basis
                .add_set(slice)
                .map_err(|err| format!("bad basis: {err}"))?;
        }
        if refutation.is_none() {
            self.obs.basis_terms.observe(basis.term_count() as u64);
        }
        Ok(Round { basis, refutation })
    }

    /// Phase two: commits `name` on every (prepared) participant. A
    /// participant that cannot commit releases everything, including
    /// any participant that already committed.
    fn commit_all(&self, participants: &[&dyn Participant], name: &str) -> Response {
        for participant in participants {
            let message = match participant.commit(name) {
                Ok(Response::Committed { .. }) => continue,
                Ok(other) => format!("{other:?}"),
                Err(message) => message,
            };
            release(participants, name);
            self.obs.aborted.inc();
            return Response::Error {
                message: format!(
                    "two-phase commit failed at `{}` ({message}); all reservations released",
                    participant.id()
                ),
            };
        }
        self.obs.committed.inc();
        Response::Decision {
            computation: name.to_string(),
            accepted: true,
            shard: 0,
            reason: format!(
                "admitted across {} nodes (two-phase commit)",
                participants.len()
            ),
            violated_term: None,
            clause: None,
            diagnostics: Diagnostics::default(),
        }
    }
}

/// Asks each of `participants` to release the reservation `name`.
fn release(participants: &[&dyn Participant], name: &str) {
    for participant in participants {
        let _ = participant.abort(name);
    }
}

/// What a snapshot round read.
struct Round {
    /// The union of the slices read.
    basis: ResourceSet,
    /// The reject the slices read prove, if the round ended on one.
    refutation: Option<RejectReason>,
}

/// How one attempt of a two-phase admission ended.
enum Attempt {
    /// With the admission's answer.
    Done(Response),
    /// A participant's part of the basis moved: retry.
    Stale,
    /// A refutation met a name already held or committed: run the
    /// attempt again without refuting.
    Held,
}

/// Reads a participant's snapshot answer: its slice of the basis (the
/// v6 answer's epochs are not read). A slice that does not decode is an
/// error, never an empty slice: deciding without that participant's
/// supply would pass a broken answer off as an ordinary policy reject.
fn read_snapshot(
    participant: &str,
    answer: Result<Response, String>,
) -> Result<ResourceSet, String> {
    match answer {
        Ok(Response::ClusterState { resources, .. }) => resources
            .as_array()
            .ok_or_else(|| "not an array".to_string())
            .and_then(|terms| {
                let specs = resources_from_json(terms).map_err(|err| err.to_string())?;
                spec::resource_set(&specs).map_err(|err| err.to_string())
            })
            .map_err(|err| {
                format!("peer `{participant}` sent a snapshot whose resources do not decode: {err}")
            }),
        other => Err(unexpected(participant, "the snapshot", other)),
    }
}

/// Describes a peer call that did not get the answer its phase needs.
fn unexpected(participant: &str, phase: &str, answer: Result<Response, String>) -> String {
    match answer {
        Ok(other) => format!("peer `{participant}` answered {phase} with {other:?}"),
        Err(message) => message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rota_obs::Json;

    #[test]
    fn a_snapshot_that_does_not_decode_is_an_error_naming_the_peer() {
        let state = |resources| {
            Ok(Response::ClusterState {
                epochs: vec![3],
                resources,
            })
        };
        let junk = read_snapshot("node1", state(Json::Arr(vec![Json::Str("junk".into())])));
        let message = junk.unwrap_err();
        assert!(
            message.contains("`node1`") && message.contains("do not decode"),
            "{message}"
        );
        assert!(read_snapshot("node1", state(Json::Num(1.0))).is_err());
        // An empty slice is a real answer, not an error.
        assert_eq!(
            read_snapshot("node1", state(Json::Arr(Vec::new()))),
            Ok(ResourceSet::new())
        );
        let failed = read_snapshot("node2", Err("peer `node2` unreachable".into()));
        assert!(failed.unwrap_err().contains("node2"));
    }

    /// The decode error of a malformed term in a `cluster-state` answer
    /// names the peer and the term, word for word.
    #[test]
    fn a_snapshot_decode_error_names_the_term() {
        let answer = Response::from_line(
            r#"{"ok":true,"op":"cluster-state","epochs":[3],"resources":[{"kind":"cpu","location":"l0","rate":1,"start":0,"end":4},{"kind":"cpu","location":"l0","rate":-1,"start":0,"end":4}]}"#,
        )
        .map_err(|err| err.to_string());
        assert_eq!(
            read_snapshot("node1", answer).unwrap_err(),
            "peer `node1` sent a snapshot whose resources do not decode: spec parse error: \
             resources[1]: field `rate` must be a non-negative integer"
        );
    }

    // The federation in one process, and an explorer of its cross-node
    // races: every interleaving, up to a preemption bound, of the
    // participant calls of two or three operations, each schedule on a
    // fresh federation (stateless, as in CHESS). With one shard per
    // node each participant call is one critical section of the node's
    // shard pool, so scheduling the calls at this interface schedules
    // every state change the operations make.

    use std::collections::BTreeSet;
    use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
    use std::time::Instant;

    use rota_actor::{ActionKind, ActorComputation, DistributedComputation, TableCostModel};
    use rota_admission::{AdmissionController, RotaPolicy};
    use rota_interval::{TimeInterval, TimePoint};
    use rota_resource::{Location, Rate, ResourceTerm};
    use rota_server::{Clock, Reply, RequestHook, Server, ServerConfig, ServerHandle};

    use crate::router::{classify, Route};
    use crate::topology::Topology;

    /// The explorer's one bound: preemptions per schedule, where a
    /// preemption grants another operation the next call while the one
    /// that made the last call could make its next.
    const BOUND: usize = 2;
    /// The TTL of every hold but the lapsing operation's.
    const LONG_TTL: Duration = Duration::from_secs(60);
    /// The lapsing operation's TTL, which its coordinator moves the
    /// federation's clock past before its first commit.
    const SHORT_TTL: Duration = Duration::from_millis(25);

    /// The federation's clock: it moves only when the lapsing
    /// coordinator moves it, so a schedule's holds lapse at the same
    /// call however long the schedule takes.
    struct ManualClock(Mutex<Instant>);

    impl ManualClock {
        fn advance(&self, by: Duration) {
            *lock(&self.0) += by;
        }
    }

    impl Clock for ManualClock {
        fn now(&self) -> Instant {
            *lock(&self.0)
        }
    }

    fn cpu(location: &str, from: u64, to: u64) -> ResourceTerm {
        ResourceTerm::new(
            Rate::new(8),
            TimeInterval::from_ticks(from, to).unwrap(),
            LocatedType::cpu(Location::new(location)),
        )
    }

    /// Θ: 8 cpu per tick at each of l0, l1 and l2 over [0, 64).
    fn theta() -> ResourceSet {
        ResourceSet::from_terms(["l0", "l1", "l2"].map(|l| cpu(l, 0, 64))).unwrap()
    }

    /// A job whose actors each take all of their location's cpu over
    /// [from, from + 8): its commitments are the same whenever it is
    /// admitted, and no two such jobs on one location and window both
    /// fit.
    fn whole(name: &str, locations: &[&str], from: u64) -> DistributedComputation {
        let actors = locations
            .iter()
            .enumerate()
            .map(|(i, location)| {
                ActorComputation::new(format!("{name}-a{i}"), *location)
                    .then(ActionKind::evaluate_units(64))
            })
            .collect();
        let (start, deadline) = (TimePoint::new(from), TimePoint::new(from + 8));
        DistributedComputation::new(name, actors, start, deadline).unwrap()
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Op {
        /// A spanning admit of l0 and l1 coordinated by node0, an owner.
        Owner,
        /// The same demand, coordinated by node2, which owns none of it.
        Other,
        /// A direct admit on node1 of all of l1's cpu over [0, 8).
        Admit,
        /// An offer on node1 of cpu at l1 past every job's window: an
        /// install outside every 2PC's scope, which moves no verdict.
        Offer,
        /// A spanning admit coordinated by node1 whose coordinator
        /// lets its short TTL pass before it commits.
        Lapse,
        /// `Owner`'s demand over [8, 16), coordinated by node1: a scope
        /// on the same owners and types, disjoint from `Owner`'s.
        Later,
    }

    const OPS: [Op; 5] = [Op::Owner, Op::Other, Op::Admit, Op::Offer, Op::Lapse];

    impl Op {
        /// The job the operation admits (an offer's is never read).
        fn job(self) -> DistributedComputation {
            match self {
                Op::Owner => whole("own", &["l0", "l1"], 0),
                Op::Other => whole("oth", &["l0", "l1"], 0),
                Op::Admit | Op::Offer => whole("dir", &["l1"], 0),
                Op::Lapse => whole("lap", &["l0", "l1"], 0),
                Op::Later => whole("lat", &["l0", "l1"], 8),
            }
        }

        fn offer() -> ResourceSet {
            ResourceSet::from_terms([cpu("l1", 64, 72)]).unwrap()
        }

        /// The node the operation is submitted to.
        fn node(self) -> usize {
            match self {
                Op::Owner => 0,
                Op::Admit | Op::Offer | Op::Lapse | Op::Later => 1,
                Op::Other => 2,
            }
        }
    }

    struct PassThrough;

    impl RequestHook for PassThrough {
        fn intercept(&self, _: &Request) -> Option<Reply> {
            None
        }
    }

    /// Three servers on port 0, one shard each over its node's slice of
    /// Θ, reached only through their local handles, on one clock.
    struct Federation {
        topology: Topology,
        servers: Vec<ServerHandle>,
        locals: Vec<LocalHandle>,
        clock: Arc<ManualClock>,
    }

    impl Federation {
        fn launch() -> Federation {
            let topology = Topology::auto(3);
            let theta = theta();
            let clock = Arc::new(ManualClock(Mutex::new(Instant::now())));
            let mut servers = Vec::new();
            let mut locals = Vec::new();
            for node in topology.nodes() {
                let local = OnceLock::new();
                let config = ServerConfig {
                    shards: 1,
                    ..ServerConfig::default()
                };
                let slice = topology.slice(&theta, &node.id);
                let clock = Arc::clone(&clock) as Arc<dyn Clock>;
                let server = Server::spawn_hooked(config, RotaPolicy, &slice, clock, |handle| {
                    let _ = local.set(handle);
                    Arc::new(PassThrough) as Arc<dyn RequestHook>
                })
                .expect("bind a port");
                servers.push(server);
                locals.push(local.into_inner().expect("the hook is built in spawn"));
            }
            Federation {
                topology,
                servers,
                locals,
                clock,
            }
        }

        /// The union of every node's whole snapshot. Each snapshot
        /// sweeps the node's lapsed holds first.
        fn theta_expire(&self) -> ResourceSet {
            self.locals.iter().fold(ResourceSet::new(), |all, local| {
                let slice = local.cluster_state_in(None).expect("a live node");
                all.union(&slice).unwrap()
            })
        }

        /// The holds the nodes still keep, neither committed nor
        /// released.
        fn holds(&self) -> i64 {
            self.servers
                .iter()
                .map(|server| {
                    let snapshot = server.registry().snapshot();
                    snapshot
                        .gauge("server.shard.reservations{shard=0}")
                        .unwrap_or(0)
                })
                .sum()
        }
    }

    fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
        mutex.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[derive(Default)]
    struct Turns {
        /// The operations waiting for a turn.
        waiting: BTreeSet<usize>,
        /// The operation granted the next turn, until it takes it.
        granted: Option<usize>,
        /// The operation running its turn, until it waits again or ends.
        running: Option<usize>,
        ended: usize,
    }

    /// The lock-step gate every operation passes before each
    /// participant call: one operation runs at a time, the one the
    /// scheduler grants.
    #[derive(Default)]
    struct Gate {
        turns: Mutex<Turns>,
        moved: Condvar,
    }

    impl Gate {
        fn step(&self, op: usize) {
            let mut turns = lock(&self.turns);
            if turns.running == Some(op) {
                turns.running = None;
            }
            turns.waiting.insert(op);
            self.moved.notify_all();
            while turns.granted != Some(op) {
                turns = self
                    .moved
                    .wait(turns)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            turns.granted = None;
            turns.waiting.remove(&op);
            turns.running = Some(op);
        }

        fn end(&self, op: usize) {
            let mut turns = lock(&self.turns);
            if turns.running == Some(op) {
                turns.running = None;
            }
            turns.ended += 1;
            self.moved.notify_all();
        }

        /// Waits until each of the `ops` operations waits or has ended,
        /// and returns the waiting ones.
        fn settle(&self, ops: usize) -> Result<BTreeSet<usize>, String> {
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut turns = lock(&self.turns);
            while turns.granted.is_some()
                || turns.running.is_some()
                || turns.waiting.len() + turns.ended < ops
            {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err("an operation made no progress for 30 s".into());
                }
                turns = self
                    .moved
                    .wait_timeout(turns, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            Ok(turns.waiting.clone())
        }

        fn grant(&self, op: usize) {
            lock(&self.turns).granted = Some(op);
            self.moved.notify_all();
        }
    }

    /// Ends an operation at the gate however its thread ends.
    struct Ending<'a>(&'a Gate, usize);

    impl Drop for Ending<'_> {
        fn drop(&mut self) {
            self.0.end(self.1);
        }
    }

    /// One participant call as it ran.
    struct Step {
        op: usize,
        call: &'static str,
        node: String,
        answer: String,
    }

    /// What one schedule shares between its operations.
    #[derive(Default)]
    struct Run {
        gate: Gate,
        steps: Mutex<Vec<Step>>,
    }

    impl Run {
        fn record(&self, op: usize, call: &'static str, node: &str, answer: String) {
            lock(&self.steps).push(Step {
                op,
                call,
                node: node.to_string(),
                answer,
            });
        }
    }

    fn summary(answer: &Result<Response, String>) -> String {
        match answer {
            Ok(Response::Prepared { .. }) => "prepared".into(),
            Ok(Response::StaleEpoch { .. }) => "stale-epoch".into(),
            Ok(Response::Committed { .. }) => "committed".into(),
            Ok(Response::Aborted { released, .. }) => format!("aborted, released {released}"),
            Ok(Response::Decision {
                accepted, reason, ..
            }) => format!("accepted {accepted}: {reason}"),
            Ok(other) => format!("{other:?}"),
            Err(message) => format!("failed: {message}"),
        }
    }

    /// A node reached in-process that waits at the gate before each call
    /// and records it.
    struct Gated<'a> {
        local: Local<'a>,
        op: usize,
        run: &'a Run,
        /// Set for the lapsing operation: the clock it moves past its
        /// TTL before its first commit.
        lapse: Option<&'a ManualClock>,
        lapsed: Cell<bool>,
    }

    impl Gated<'_> {
        fn call(
            &self,
            call: &'static str,
            f: impl FnOnce() -> Result<Response, String>,
        ) -> Result<Response, String> {
            self.run.gate.step(self.op);
            if call == "commit" && !self.lapsed.replace(true) {
                if let Some(clock) = self.lapse {
                    clock.advance(SHORT_TTL);
                }
            }
            let answer = f();
            self.run
                .record(self.op, call, self.local.id, summary(&answer));
            answer
        }
    }

    impl Participant for Gated<'_> {
        fn id(&self) -> &str {
            self.local.id
        }

        fn snapshot(&self, scope: &Scope) -> Result<ResourceSet, String> {
            self.run.gate.step(self.op);
            let answer = self.local.snapshot(scope);
            let read = match &answer {
                Ok(slice) => format!("read {slice}"),
                Err(message) => format!("failed: {message}"),
            };
            self.run.record(self.op, "snapshot", self.local.id, read);
            answer
        }

        fn prepare(&self, prepare: &Prepare<'_>) -> Result<Response, String> {
            self.call("prepare", || self.local.prepare(prepare))
        }

        fn commit(&self, name: &str) -> Result<Response, String> {
            self.call("commit", || self.local.commit(name))
        }

        fn abort(&self, name: &str) -> Result<Response, String> {
            self.call("abort", || self.local.abort(name))
        }
    }

    fn price(op: Op) -> AdmissionRequest {
        AdmissionRequest::price(op.job(), &TableCostModel::paper(), Granularity::MaximalRun)
    }

    /// Runs operation `op`, the `index`-th of its schedule, to its answer.
    fn perform(op: Op, index: usize, federation: &Federation, run: &Run) -> Response {
        let local = &federation.locals[op.node()];
        let node = &federation.topology.nodes()[op.node()].id;
        let direct = |call, request| {
            run.gate.step(index);
            let answer = local.call(request);
            run.record(index, call, node, summary(&Ok(answer.clone())));
            answer
        };
        match op {
            Op::Admit => {
                let admit = Request::Admit {
                    computation: ComputationSpec::from(&op.job()),
                    granularity: Granularity::MaximalRun,
                    forwarded: true,
                };
                return direct("admit", admit);
            }
            Op::Offer => {
                let offer = Request::Offer {
                    resources: spec::resource_specs(&Op::offer()),
                    forwarded: true,
                };
                return direct("offer", offer);
            }
            Op::Owner | Op::Other | Op::Lapse | Op::Later => {}
        }
        let computation = ComputationSpec::from(&op.job());
        let request = price(op);
        let demand = request.requirement().total_demand();
        let Route::TwoPhase(nodes, owners) = classify(&demand, &federation.topology, node) else {
            panic!("{op:?} spans several owners");
        };
        let scope = Scope::of(&demand, request.window());
        let admission = Admission {
            computation: &computation,
            granularity: Granularity::MaximalRun,
            request: &request,
            scope: &scope,
        };
        let lapse = (op == Op::Lapse).then_some(&*federation.clock);
        let gated: Vec<Gated> = nodes
            .iter()
            .map(|(id, _)| Gated {
                local: Local {
                    id,
                    handle: &federation.locals[federation
                        .topology
                        .nodes()
                        .iter()
                        .position(|node| node.id == *id)
                        .unwrap()],
                },
                op: index,
                run,
                lapse,
                lapsed: Cell::new(false),
            })
            .collect();
        let participants: Vec<&dyn Participant> = gated
            .iter()
            .map(|gated| gated as &dyn Participant)
            .collect();
        let me = nodes.iter().position(|(id, _)| id == node);
        let obs = TwoPhaseObs::new(&Registry::new());
        let coordinator = Coordinator {
            local,
            obs: &obs,
            refuted: &obs.refuted[usize::from(me.is_some())],
            ttl: if op == Op::Lapse { SHORT_TTL } else { LONG_TTL },
        };
        coordinator.admit(&participants, me.unwrap_or(0), &owners, &admission)
    }

    /// One decision of a schedule: the operations waiting, in the order
    /// the explorer tries them (the one that made the last call first,
    /// so the first schedule preempts nothing), and which was granted.
    struct Choice {
        order: Vec<usize>,
        rank: usize,
        /// Whether granting any but `order[0]` is a preemption.
        last_waits: bool,
        preemptions: usize,
    }

    /// One schedule as it ran.
    struct Schedule {
        choices: Vec<Choice>,
        steps: Vec<Step>,
        answers: Vec<Response>,
    }

    /// Runs `ops` on a fresh federation, granting at each decision the
    /// operation `prefix` ranks (then always the first in order), and
    /// checks the outcome. Every thread is joined before it returns.
    fn run_schedule(ops: &[Op], prefix: &[usize]) -> Result<Schedule, (Schedule, String)> {
        let federation = Federation::launch();
        let run = Run::default();
        let mut choices = Vec::new();
        let answers = std::thread::scope(|scope| {
            let threads: Vec<_> = ops
                .iter()
                .enumerate()
                .map(|(index, &op)| {
                    let (federation, run) = (&federation, &run);
                    scope.spawn(move || {
                        let _ending = Ending(&run.gate, index);
                        perform(op, index, federation, run)
                    })
                })
                .collect();
            let mut last = None;
            let mut preemptions = 0;
            let mut stuck = None;
            loop {
                let waiting = match run.gate.settle(ops.len()) {
                    Ok(waiting) if !waiting.is_empty() => waiting,
                    Ok(_) => break,
                    Err(message) => {
                        stuck = Some(message);
                        break;
                    }
                };
                let last_waits = last.is_some_and(|op| waiting.contains(&op));
                let order: Vec<usize> = last
                    .filter(|_| last_waits)
                    .into_iter()
                    .chain(waiting.iter().copied().filter(|&op| Some(op) != last))
                    .collect();
                let rank = prefix
                    .get(choices.len())
                    .copied()
                    .filter(|&rank| rank < order.len())
                    .unwrap_or(0);
                choices.push(Choice {
                    order: order.clone(),
                    rank,
                    last_waits,
                    preemptions,
                });
                preemptions += usize::from(last_waits && rank > 0);
                last = Some(order[rank]);
                run.gate.grant(order[rank]);
            }
            let answers: Vec<Result<Response, String>> = threads
                .into_iter()
                .map(|thread| {
                    thread
                        .join()
                        .map_err(|_| "an operation panicked".to_string())
                })
                .collect();
            match stuck {
                Some(message) => Err(message),
                None => answers.into_iter().collect::<Result<Vec<_>, _>>(),
            }
        });
        let steps = std::mem::take(&mut *lock(&run.steps));
        let (answers, failure) = match answers {
            Ok(answers) => {
                let failure = check(ops, &answers, &steps, &federation).err();
                (answers, failure)
            }
            Err(message) => (Vec::new(), Some(message)),
        };
        let schedule = Schedule {
            choices,
            steps,
            answers,
        };
        match failure {
            None => Ok(schedule),
            Some(message) => Err((schedule, message)),
        }
    }

    /// The ranks of the next schedule, depth first: the deepest decision
    /// with an untried operation within the bound takes the next one.
    fn next(choices: &[Choice]) -> Option<Vec<usize>> {
        let depth = choices.iter().rposition(|choice| {
            choice.rank + 1 < choice.order.len()
                && choice.preemptions + usize::from(choice.last_waits) <= BOUND
        })?;
        let mut ranks: Vec<usize> = choices[..depth].iter().map(|choice| choice.rank).collect();
        ranks.push(choices[depth].rank + 1);
        Some(ranks)
    }

    /// What a serial order must do at one operation's place in it.
    #[derive(Debug)]
    enum Outcome {
        /// Decide it, with this verdict and, for a reject, this reason.
        Verdict(bool, Option<String>),
        /// Install the offer.
        Offer,
        /// Nothing: the operation ended in an error and changed nothing.
        Nothing,
    }

    /// The checks after every schedule:
    /// - every hold is committed or released, and none outlived its TTL;
    /// - only a 2PC ends in an error: five lost races, or for the lapsing
    ///   operation a commit after its hold lapsed;
    /// - a lost race is followed by a fresh snapshot, a retry, unless it
    ///   was the last the bound allows;
    /// - some serial order of the operations through one merged
    ///   controller gives the same verdicts, and its Θ_expire equals the
    ///   union of every node's. A 2PC that aborted a prepared hold may
    ///   also hold its commitments for a while in that order: that is
    ///   what other operations could see of it. A lost race that
    ///   installed twice leaves the union short of every such order.
    fn check(
        ops: &[Op],
        answers: &[Response],
        steps: &[Step],
        federation: &Federation,
    ) -> Result<(), String> {
        let observed = federation.theta_expire();
        let holds = federation.holds();
        if holds != 0 {
            return Err(format!("{holds} hold(s) outlive every coordinator"));
        }
        let mut outcomes = Vec::new();
        for (index, (op, answer)) in ops.iter().zip(answers).enumerate() {
            let committed_late = steps.iter().any(|step| {
                step.op == index && step.call == "commit" && step.answer == "committed"
            });
            outcomes.push(match answer {
                Response::Decision { accepted: true, .. } if *op == Op::Lapse => {
                    return Err("the lapsing 2PC committed after its TTL".into())
                }
                _ if *op == Op::Lapse && committed_late => {
                    return Err("a hold was committed after its TTL".into())
                }
                Response::Decision {
                    accepted, reason, ..
                } => Outcome::Verdict(*accepted, (!accepted).then(|| reason.clone())),
                Response::Offered { .. } => Outcome::Offer,
                Response::Error { message }
                    if message.contains("epoch races")
                        || (*op == Op::Lapse && message.contains("commit failed")) =>
                {
                    Outcome::Nothing
                }
                other => return Err(format!("{op:?} answered {other:?}")),
            });
        }
        for (at, step) in steps.iter().enumerate() {
            let retried = steps[at + 1..]
                .iter()
                .any(|later| later.op == step.op && later.call == "snapshot");
            let gave_up = matches!(&answers[step.op], Response::Error { message } if message.contains("epoch races"));
            if step.answer == "stale-epoch" && !retried && !gave_up {
                return Err(format!("{:?} lost a race and did not retry", ops[step.op]));
            }
        }
        let held: Vec<bool> = (0..ops.len())
            .map(|index| {
                steps
                    .iter()
                    .any(|step| step.op == index && step.call == "abort")
            })
            .collect();
        let requests: Vec<AdmissionRequest> = ops.iter().map(|&op| price(op)).collect();
        let events: Vec<Vec<Event>> = held
            .iter()
            .map(|&held| match held {
                true => vec![Event::Hold, Event::Release, Event::Final],
                false => vec![Event::Final],
            })
            .collect();
        let replay = |order: &[Placed]| {
            let mut merged = AdmissionController::new(RotaPolicy, theta(), TimePoint::ZERO);
            for &(index, event) in order {
                let request = &requests[index];
                let fits = match (event, &outcomes[index]) {
                    (Event::Hold, _) => matches!(merged.submit(request), Decision::Accept(_)),
                    (Event::Release, _) => merged.withdraw(&request.actor_names()),
                    (Event::Final, Outcome::Verdict(accepted, reason)) => {
                        match merged.submit(request) {
                            Decision::Accept(_) => *accepted,
                            Decision::Reject(reject) => {
                                reason.as_deref() == Some(reject.to_string().as_str())
                            }
                        }
                    }
                    (Event::Final, Outcome::Offer) => merged.offer_resources(Op::offer()).is_ok(),
                    (Event::Final, Outcome::Nothing) => true,
                };
                if !fits {
                    return false;
                }
            }
            merged.state().expiring_resources() == observed
        };
        if interleavings(
            &events,
            &mut vec![0; events.len()],
            &mut Vec::new(),
            &replay,
        ) {
            Ok(())
        } else {
            Err(format!(
                "no serial order gives the verdicts {outcomes:?} and the nodes' Θ_expire {observed}"
            ))
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Event {
        Hold,
        Release,
        Final,
    }

    /// An event of the operation at this index in a serial order.
    type Placed = (usize, Event);

    /// Whether `accept` holds for some interleaving of the operations'
    /// event chains that extends `order`.
    fn interleavings(
        chains: &[Vec<Event>],
        taken: &mut Vec<usize>,
        order: &mut Vec<Placed>,
        accept: &dyn Fn(&[Placed]) -> bool,
    ) -> bool {
        if taken
            .iter()
            .zip(chains)
            .all(|(&taken, chain)| taken == chain.len())
        {
            return accept(order);
        }
        for index in 0..chains.len() {
            let Some(&event) = chains[index].get(taken[index]) else {
                continue;
            };
            taken[index] += 1;
            order.push((index, event));
            let found = interleavings(chains, taken, order, accept);
            order.pop();
            taken[index] -= 1;
            if found {
                return true;
            }
        }
        false
    }

    /// What the explorer saw at its bound.
    #[derive(Debug, Default)]
    struct Reach {
        schedules: usize,
        /// For each pair of operations, the distinct orders of their
        /// calls explored.
        pairs: BTreeMap<(Op, Op), BTreeSet<Vec<usize>>>,
        /// Schedules where a 2PC lost a race at a node other than its
        /// coordinator's.
        races: usize,
        /// Schedules where any prepare answered `stale-epoch`.
        conflicts: usize,
        /// Schedules where a hold lapsed before its commit.
        lapses: usize,
        seconds: f64,
    }

    /// The operation mixes explored: every pair and every triple. A
    /// lapse moves the federation's clock, so it costs no wall time.
    fn mixes() -> Vec<Vec<Op>> {
        let mut mixes = Vec::new();
        for (i, &a) in OPS.iter().enumerate() {
            for &b in &OPS[i + 1..] {
                mixes.push(vec![a, b]);
            }
        }
        for (i, &a) in OPS.iter().enumerate() {
            for (j, &b) in OPS.iter().enumerate().skip(i + 1) {
                for &c in &OPS[j + 1..] {
                    mixes.push(vec![a, b, c]);
                }
            }
        }
        mixes
    }

    fn explore(mixes: &[Vec<Op>]) -> Result<Reach, String> {
        let started = Instant::now();
        let mut reach = Reach::default();
        for ops in mixes {
            let mut prefix = Vec::new();
            loop {
                let schedule = run_schedule(ops, &prefix).map_err(|(schedule, why)| {
                    let steps: Vec<String> = schedule
                        .steps
                        .iter()
                        .map(|s| format!("  {:?} {} {}: {}", ops[s.op], s.call, s.node, s.answer))
                        .collect();
                    format!(
                        "schedule {prefix:?} of {ops:?} fails: {why}\n{}\nanswers: {:?}",
                        steps.join("\n"),
                        schedule.answers
                    )
                })?;
                reach.schedules += 1;
                for a in 0..ops.len() {
                    for b in a + 1..ops.len() {
                        let order = schedule
                            .steps
                            .iter()
                            .map(|step| step.op)
                            .filter(|&op| op == a || op == b)
                            .collect();
                        reach
                            .pairs
                            .entry((ops[a], ops[b]))
                            .or_default()
                            .insert(order);
                    }
                }
                let coordinator = |op: usize| format!("node{}", ops[op].node());
                let stale = |step: &&Step| step.answer == "stale-epoch";
                if schedule
                    .steps
                    .iter()
                    .filter(stale)
                    .any(|step| step.node != coordinator(step.op))
                {
                    reach.races += 1;
                }
                reach.conflicts += usize::from(schedule.steps.iter().any(|step| stale(&step)));
                if schedule.steps.iter().any(|step| {
                    ops[step.op] == Op::Lapse && step.call == "commit" && step.answer != "committed"
                }) {
                    reach.lapses += 1;
                }
                match next(&schedule.choices) {
                    Some(ranks) => prefix = ranks,
                    None => break,
                }
            }
        }
        reach.seconds = started.elapsed().as_secs_f64();
        Ok(reach)
    }

    /// One exploration, shared by the tests that read it.
    fn explored() -> &'static Result<Reach, String> {
        static EXPLORED: OnceLock<Result<Reach, String>> = OnceLock::new();
        EXPLORED.get_or_init(|| explore(&mixes()))
    }

    #[test]
    fn every_explored_schedule_matches_a_serial_order() {
        match explored() {
            Ok(reach) => eprintln!(
                "explored {} schedules at bound {BOUND} in {:.1} s: {} lost races, {} lapses",
                reach.schedules, reach.seconds, reach.races, reach.lapses
            ),
            Err(failure) => panic!("{failure}"),
        }
    }

    #[test]
    fn the_default_bound_reaches_every_pair_a_lost_race_and_a_lapse() {
        let reach = explored().as_ref().expect("the exploration passes");
        for (i, &a) in OPS.iter().enumerate() {
            for &b in &OPS[i + 1..] {
                let orders = reach.pairs.get(&(a, b)).map_or(0, BTreeSet::len);
                assert!(
                    orders >= 2,
                    "{a:?} and {b:?}: {orders} order(s) of their calls"
                );
            }
        }
        assert!(
            reach.races > 0,
            "no 2PC lost a race to another node: {reach:?}"
        );
        assert!(reach.lapses > 0, "no hold lapsed: {reach:?}");
    }

    /// Two 2PCs on the same owners and types over disjoint windows read
    /// disjoint supply, so neither's install moves what the other read:
    /// no schedule of the pair answers `stale-epoch`.
    #[test]
    fn disjoint_scopes_never_conflict() {
        let reach =
            explore(&[vec![Op::Owner, Op::Later]]).unwrap_or_else(|failure| panic!("{failure}"));
        eprintln!(
            "explored {} schedules of two disjoint scopes in {:.1} s: {} with a conflict",
            reach.schedules, reach.seconds, reach.conflicts
        );
        assert_eq!(reach.conflicts, 0, "{reach:?}");
    }
}
