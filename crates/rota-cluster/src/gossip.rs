//! Seeded gossip membership: heartbeats and indirect beats.
//!
//! Each node runs one [`GossipEngine`]. Time is counted in *rounds*,
//! not wall clock: once per round the node's runtime calls
//! [`GossipEngine::beat`], which advances the engine's round counter
//! (the round number doubles as the node's own heartbeat sequence
//! number), then picks one peer with the engine's seeded RNG and
//! exchanges [`GossipDigest`]s with it (the `gossip` op answers with
//! the receiver's digest, so one exchange synchronizes both
//! directions). Digests carry *indirect* beats — the freshest sequence
//! number heard for every known node — so liveness propagates without
//! all-to-all traffic.
//!
//! The engine knows its peers by id only: where a peer serves is the
//! topology's fact, looked up by whoever dials it.
//!
//! Failure detection is purely local arithmetic on the engine's own
//! round counter: a peer is **suspect** once no fresher beat has
//! arrived for [`SUSPECT_AFTER`] rounds (and until its first beat ever
//! arrives — nodes start suspect and are proven alive, not the
//! reverse). The router asks the engine and degrades: cross-location
//! requests touching a suspect peer are rejected with a structured
//! `peer-unavailable` diagnostic instead of hanging on a dead socket.
//!
//! Everything here is deterministic given the seed and the round
//! schedule — the convergence tests below drive several engines
//! synchronously and assert the exact same behaviour on every run.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rota_server::{GossipDigest, PeerBeat};

/// Beat-free rounds after which a previously live peer goes suspect.
pub(crate) const SUSPECT_AFTER: u64 = 3;

/// What one engine knows about one peer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct PeerView {
    /// Freshest heartbeat sequence number heard, directly or not.
    last_seq: u64,
    /// The round a fresher beat last arrived in; `None` until the
    /// first beat (never-heard peers are suspect).
    last_heard_round: Option<u64>,
}

/// One node's deterministic gossip state machine.
#[derive(Debug)]
pub(crate) struct GossipEngine {
    me: String,
    /// Rounds started so far; also this node's own heartbeat sequence
    /// number.
    round: u64,
    peers: BTreeMap<String, PeerView>,
    rng: StdRng,
}

impl GossipEngine {
    /// Creates an engine for node `me` among the cluster's `nodes` (ids;
    /// `me` may be among them). A peer is suspect until its first beat
    /// arrives, and again after [`SUSPECT_AFTER`] beat-free rounds.
    pub(crate) fn new(me: &str, nodes: &[String], seed: u64) -> GossipEngine {
        GossipEngine {
            me: me.to_string(),
            round: 0,
            peers: nodes
                .iter()
                .filter(|id| *id != me)
                .map(|id| (id.clone(), PeerView::default()))
                .collect(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// This engine's node id.
    pub(crate) fn me(&self) -> &str {
        &self.me
    }

    /// Starts the next round, which advances this node's own
    /// heartbeat; called once per round.
    pub(crate) fn beat(&mut self) {
        self.round += 1;
    }

    /// Picks the round's gossip target uniformly among the peers, using
    /// the engine's seeded RNG — the whole schedule is a pure function
    /// of the seed. Suspect peers stay in the draw, which is what lets
    /// a recovered peer be re-proven.
    pub(crate) fn pick_target(&mut self) -> Option<String> {
        if self.peers.is_empty() {
            return None;
        }
        let index = self.rng.gen_range(0..self.peers.len());
        self.peers.keys().nth(index).cloned()
    }

    /// This node's current digest: its own beat plus the freshest beat
    /// it has heard for every peer.
    pub(crate) fn digest(&self) -> GossipDigest {
        let mut beats = vec![PeerBeat {
            node: self.me.clone(),
            seq: self.round,
        }];
        beats.extend(
            self.peers
                .iter()
                .filter(|(_, view)| view.last_seq > 0)
                .map(|(id, view)| PeerBeat {
                    node: id.clone(),
                    seq: view.last_seq,
                }),
        );
        GossipDigest {
            from: self.me.clone(),
            seq: self.round,
            beats,
        }
    }

    /// Absorbs a digest received in the current round: the sender is
    /// heard directly, and every strictly fresher indirect beat
    /// refreshes that peer's liveness too. Nodes outside the peer
    /// table are ignored.
    pub(crate) fn absorb(&mut self, digest: &GossipDigest) {
        let round = self.round;
        if let Some(view) = self.peers.get_mut(&digest.from) {
            view.last_seq = view.last_seq.max(digest.seq);
            view.last_heard_round = Some(round);
        }
        for beat in &digest.beats {
            if let Some(view) = self.peers.get_mut(&beat.node) {
                if beat.seq > view.last_seq {
                    view.last_seq = beat.seq;
                    view.last_heard_round = Some(round);
                }
            }
        }
    }

    /// Whether `node` counts as alive in the current round: itself, or
    /// any peer heard within the last [`SUSPECT_AFTER`] rounds.
    pub(crate) fn alive(&self, node: &str) -> bool {
        if node == self.me {
            return true;
        }
        self.peers
            .get(node)
            .and_then(|view| view.last_heard_round)
            .is_some_and(|heard| self.round.saturating_sub(heard) <= SUSPECT_AFTER)
    }

    /// The peer table, for inspection.
    pub(crate) fn peers(&self) -> &BTreeMap<String, PeerView> {
        &self.peers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Every node `engine` counts alive in its current round, itself
    /// included.
    fn alive_set(engine: &GossipEngine) -> BTreeSet<String> {
        std::iter::once(&engine.me)
            .chain(engine.peers.keys())
            .filter(|id| engine.alive(id))
            .cloned()
            .collect()
    }

    fn ids(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("node{i}")).collect()
    }

    fn ring(n: usize) -> Vec<GossipEngine> {
        let nodes = ids(n);
        (0..n)
            .map(|i| GossipEngine::new(&nodes[i], &nodes, 7 + i as u64))
            .collect()
    }

    /// One synchronous round: every engine beats, picks its seeded
    /// target, and exchanges digests with it (both directions, like
    /// the `gossip`/`gossip-ack` pair on the wire). `down` engines
    /// neither beat, send nor answer.
    fn run_round(engines: &mut [GossipEngine], down: &[usize]) {
        let n = engines.len();
        for i in 0..n {
            if down.contains(&i) {
                continue;
            }
            engines[i].beat();
            let Some(target_id) = engines[i].pick_target() else {
                continue;
            };
            let target = (0..n)
                .find(|&j| engines[j].me() == target_id)
                .expect("targets come from the peer table");
            if down.contains(&target) {
                continue;
            }
            let outbound = engines[i].digest();
            engines[target].absorb(&outbound);
            let ack = engines[target].digest();
            engines[i].absorb(&ack);
        }
    }

    #[test]
    fn same_seed_means_same_target_schedule() {
        let nodes = ids(5);
        let mut a = GossipEngine::new("node0", &nodes, 42);
        let mut b = GossipEngine::new("node0", &nodes, 42);
        for _ in 0..64 {
            assert_eq!(a.pick_target(), b.pick_target());
        }
    }

    /// The first 64 targets of a 5-peer engine under seed 42, as drawn
    /// when each peer view still carried an address: dropping the
    /// addresses must not move a single gossip round.
    #[test]
    fn the_seeded_target_schedule_is_pinned() {
        let nodes = ids(6);
        let mut engine = GossipEngine::new("node0", &nodes, 42);
        let schedule: String = (0..64)
            .map(|_| {
                let id = engine.pick_target().expect("five peers");
                id.trim_start_matches("node").to_string()
            })
            .collect();
        assert_eq!(
            schedule,
            "4245131415324121523432153132422344144455235541214154335455351334"
        );
    }

    #[test]
    fn five_nodes_converge_and_stay_converged() {
        let mut engines = ring(5);
        let all: BTreeSet<String> = ids(5).into_iter().collect();
        let mut converged_at = None;
        for round in 1..=32 {
            run_round(&mut engines, &[]);
            if engines.iter().all(|e| alive_set(e) == all) {
                converged_at = Some(round);
                break;
            }
        }
        let round = converged_at.expect("five engines converge within 32 rounds");
        // Convergence is stable: later rounds keep everyone alive.
        for later in round + 1..round + 8 {
            run_round(&mut engines, &[]);
            for engine in &engines {
                assert_eq!(alive_set(engine), all, "round {later}");
            }
        }
    }

    #[test]
    fn convergence_round_is_deterministic() {
        let converge = || {
            let mut engines = ring(4);
            let all: BTreeSet<String> = ids(4).into_iter().collect();
            for round in 1..=32 {
                run_round(&mut engines, &[]);
                if engines.iter().all(|e| alive_set(e) == all) {
                    return round;
                }
            }
            panic!("no convergence in 32 rounds");
        };
        assert_eq!(converge(), converge());
    }

    #[test]
    fn a_silent_peer_goes_suspect_then_recovers() {
        let mut engines = ring(3);
        // Converge first.
        for _ in 0..12 {
            run_round(&mut engines, &[]);
        }
        assert!(engines[0].alive("node2"));
        // node2 goes dark: after SUSPECT_AFTER rounds the others
        // notice, because no fresher beat arrives.
        for _ in 0..6 {
            run_round(&mut engines, &[2]);
        }
        assert!(!engines[0].alive("node2"));
        assert!(!engines[1].alive("node2"));
        // node2 comes back: one successful exchange re-proves it
        // (directly or via an indirect beat within SUSPECT_AFTER).
        for _ in 0..8 {
            run_round(&mut engines, &[]);
        }
        assert!(engines[0].alive("node2"));
        assert!(engines[1].alive("node2"));
    }

    #[test]
    fn never_heard_peers_start_suspect() {
        let engines = ring(2);
        assert!(!engines[0].alive("node1"));
        assert!(engines[0].alive("node0"));
    }
}
