//! Seeded gossip membership: heartbeats and indirect beats.
//!
//! Each node runs one [`GossipEngine`]. Time is counted in *rounds*,
//! not wall clock: the node's runtime advances the round counter on a
//! fixed interval, beats its own sequence number, picks one peer with
//! the engine's seeded RNG, and exchanges [`GossipDigest`]s with it
//! (the `gossip` op answers with the receiver's digest, so one
//! exchange synchronizes both directions). Digests carry *indirect*
//! beats — the freshest sequence number heard for every known node —
//! so liveness propagates without all-to-all traffic.
//!
//! Failure detection is purely local arithmetic: a peer is **suspect**
//! once no fresher beat has arrived for `suspect_after` rounds (and
//! until its first beat ever arrives — nodes start suspect and are
//! proven alive, not the reverse). The router consults the resulting
//! [`PeerHealth`] and degrades: cross-location requests touching a
//! suspect peer are rejected with a structured `peer-unavailable`
//! diagnostic instead of hanging on a dead socket.
//!
//! Everything here is deterministic given the seed and the round
//! schedule — the convergence tests below drive several engines
//! synchronously and assert the exact same behaviour on every run.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rota_server::{GossipDigest, PeerBeat};

/// What one engine knows about one peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerView {
    /// Address the peer serves on (`host:port`); may lag the topology
    /// until a digest carrying the bound address arrives.
    pub addr: String,
    /// Freshest heartbeat sequence number heard, directly or not.
    pub last_seq: u64,
    /// The round a fresher beat last arrived in; `None` until the
    /// first beat (never-heard peers are suspect).
    pub last_heard_round: Option<u64>,
}

/// One node's deterministic gossip state machine.
#[derive(Debug)]
pub struct GossipEngine {
    me: String,
    addr: String,
    seq: u64,
    peers: BTreeMap<String, PeerView>,
    rng: StdRng,
    suspect_after: u64,
}

impl GossipEngine {
    /// Creates an engine for node `me` serving on `addr`, seeded with
    /// the peer list `(id, addr)`. A peer is suspect until its first
    /// beat arrives; `suspect_after` is the number of beat-free rounds
    /// after which a previously live peer goes suspect again.
    pub fn new(
        me: &str,
        addr: &str,
        peers: &[(String, String)],
        seed: u64,
        suspect_after: u64,
    ) -> GossipEngine {
        GossipEngine {
            me: me.to_string(),
            addr: addr.to_string(),
            seq: 0,
            peers: peers
                .iter()
                .filter(|(id, _)| id != me)
                .map(|(id, addr)| {
                    (
                        id.clone(),
                        PeerView {
                            addr: addr.clone(),
                            last_seq: 0,
                            last_heard_round: None,
                        },
                    )
                })
                .collect(),
            rng: StdRng::seed_from_u64(seed),
            suspect_after,
        }
    }

    /// This engine's node id.
    pub fn me(&self) -> &str {
        &self.me
    }

    /// Records the address this node actually bound (ephemeral ports).
    pub fn set_addr(&mut self, addr: &str) {
        self.addr = addr.to_string();
    }

    /// Fills in a peer's address when it is not yet known — called
    /// each round with the shared topology, whose empty addresses are
    /// patched after every node binds its (possibly ephemeral) port.
    /// Addresses already learned, from the topology or a beat, win.
    pub fn learn_addr(&mut self, id: &str, addr: &str) {
        if id == self.me || addr.is_empty() {
            return;
        }
        let view = self.peers.entry(id.to_string()).or_insert(PeerView {
            addr: String::new(),
            last_seq: 0,
            last_heard_round: None,
        });
        if view.addr.is_empty() {
            view.addr = addr.to_string();
        }
    }

    /// Advances this node's own heartbeat; called once per round.
    pub fn beat(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Picks the round's gossip target uniformly among peers with a
    /// known address, using the engine's seeded RNG — the whole
    /// schedule is a pure function of the seed. Suspect peers stay in
    /// the draw, which is what lets a recovered peer be re-proven.
    pub fn pick_target(&mut self) -> Option<(String, String)> {
        let candidates: Vec<(&String, &PeerView)> = self
            .peers
            .iter()
            .filter(|(_, view)| !view.addr.is_empty())
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let index = self.rng.gen_range(0..candidates.len());
        let (id, view) = candidates[index];
        Some((id.clone(), view.addr.clone()))
    }

    /// This node's current digest: its own beat plus the freshest beat
    /// it has heard for every peer.
    pub fn digest(&self) -> GossipDigest {
        let mut beats = vec![PeerBeat {
            node: self.me.clone(),
            seq: self.seq,
            addr: self.addr.clone(),
        }];
        beats.extend(self.peers.iter().filter(|(_, v)| v.last_seq > 0).map(
            |(id, view)| PeerBeat {
                node: id.clone(),
                seq: view.last_seq,
                addr: view.addr.clone(),
            },
        ));
        GossipDigest {
            from: self.me.clone(),
            seq: self.seq,
            beats,
        }
    }

    /// Absorbs a digest received in `round`: the sender is heard
    /// directly (beat and address), and every strictly fresher
    /// indirect beat refreshes that peer's liveness too.
    pub fn absorb(&mut self, digest: &GossipDigest, round: u64) {
        if digest.from != self.me {
            let view = self.peers.entry(digest.from.clone()).or_insert(PeerView {
                addr: String::new(),
                last_seq: 0,
                last_heard_round: None,
            });
            if digest.seq > view.last_seq {
                view.last_seq = digest.seq;
            }
            view.last_heard_round = Some(round);
        }
        for beat in &digest.beats {
            if beat.node == self.me {
                continue;
            }
            let view = self.peers.entry(beat.node.clone()).or_insert(PeerView {
                addr: String::new(),
                last_seq: 0,
                last_heard_round: None,
            });
            if !beat.addr.is_empty() {
                view.addr = beat.addr.clone();
            }
            if beat.seq > view.last_seq {
                view.last_seq = beat.seq;
                view.last_heard_round = Some(round);
            }
        }
    }

    /// Whether `node` counts as alive at `round`: itself, or any peer
    /// heard within the last `suspect_after` rounds.
    pub fn alive(&self, node: &str, round: u64) -> bool {
        if node == self.me {
            return true;
        }
        self.peers
            .get(node)
            .and_then(|view| view.last_heard_round)
            .is_some_and(|heard| round.saturating_sub(heard) <= self.suspect_after)
    }

    /// Every node alive at `round`, including this one.
    pub fn alive_set(&self, round: u64) -> BTreeSet<String> {
        let mut alive: BTreeSet<String> = self
            .peers
            .keys()
            .filter(|id| self.alive(id, round))
            .cloned()
            .collect();
        alive.insert(self.me.clone());
        alive
    }

    /// The peer table, for inspection.
    pub fn peers(&self) -> &BTreeMap<String, PeerView> {
        &self.peers
    }
}

/// The gossip runtime's published conclusion, shared with the router:
/// which nodes are currently believed alive, and the current round.
#[derive(Debug, Default)]
pub struct PeerHealth {
    alive: RwLock<BTreeSet<String>>,
    round: AtomicU64,
}

impl PeerHealth {
    /// An empty health view (everything suspect, round zero).
    pub fn new() -> PeerHealth {
        PeerHealth::default()
    }

    /// Publishes the engine's conclusion for `round`.
    pub fn publish(&self, alive: BTreeSet<String>, round: u64) {
        *self
            .alive
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = alive;
        self.round.store(round, Ordering::SeqCst);
    }

    /// Whether `node` was alive as of the last published round.
    pub fn is_alive(&self, node: &str) -> bool {
        self.alive
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .contains(node)
    }

    /// The nodes alive as of the last published round.
    pub fn alive_nodes(&self) -> BTreeSet<String> {
        self.alive
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// The last published round.
    pub fn round(&self) -> u64 {
        self.round.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Vec<GossipEngine> {
        let peers: Vec<(String, String)> = (0..n)
            .map(|i| (format!("node{i}"), format!("127.0.0.1:{}", 9000 + i)))
            .collect();
        (0..n)
            .map(|i| {
                GossipEngine::new(
                    &format!("node{i}"),
                    &format!("127.0.0.1:{}", 9000 + i),
                    &peers,
                    7 + i as u64,
                    3,
                )
            })
            .collect()
    }

    /// One synchronous round: every engine beats, picks its seeded
    /// target, and exchanges digests with it (both directions, like
    /// the `gossip`/`gossip-ack` pair on the wire). `down` engines
    /// neither send nor answer.
    fn run_round(engines: &mut [GossipEngine], round: u64, down: &[usize]) {
        let n = engines.len();
        for i in 0..n {
            if down.contains(&i) {
                continue;
            }
            engines[i].beat();
            let Some((target_id, _)) = engines[i].pick_target() else {
                continue;
            };
            let target = (0..n)
                .find(|&j| engines[j].me() == target_id)
                .expect("targets come from the peer table");
            if down.contains(&target) {
                continue;
            }
            let outbound = engines[i].digest();
            engines[target].absorb(&outbound, round);
            let ack = engines[target].digest();
            engines[i].absorb(&ack, round);
        }
    }

    #[test]
    fn same_seed_means_same_target_schedule() {
        let peers: Vec<(String, String)> = (0..5)
            .map(|i| (format!("node{i}"), format!("h:{i}")))
            .collect();
        let mut a = GossipEngine::new("node0", "h:0", &peers, 42, 3);
        let mut b = GossipEngine::new("node0", "h:0", &peers, 42, 3);
        for _ in 0..64 {
            assert_eq!(a.pick_target(), b.pick_target());
        }
    }

    #[test]
    fn five_nodes_converge_and_stay_converged() {
        let mut engines = ring(5);
        let all: BTreeSet<String> = (0..5).map(|i| format!("node{i}")).collect();
        let mut converged_at = None;
        for round in 1..=32 {
            run_round(&mut engines, round, &[]);
            if engines.iter().all(|e| e.alive_set(round) == all) {
                converged_at = Some(round);
                break;
            }
        }
        let round = converged_at.expect("five engines converge within 32 rounds");
        // Convergence is stable: later rounds keep everyone alive.
        for later in round + 1..round + 8 {
            run_round(&mut engines, later, &[]);
            for engine in &engines {
                assert_eq!(engine.alive_set(later), all, "round {later}");
            }
        }
    }

    #[test]
    fn convergence_round_is_deterministic() {
        let converge = || {
            let mut engines = ring(4);
            let all: BTreeSet<String> = (0..4).map(|i| format!("node{i}")).collect();
            for round in 1..=32 {
                run_round(&mut engines, round, &[]);
                if engines.iter().all(|e| e.alive_set(round) == all) {
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
        let mut round = 0;
        // Converge first.
        for _ in 0..12 {
            round += 1;
            run_round(&mut engines, round, &[]);
        }
        assert!(engines[0].alive("node2", round));
        // node2 goes dark: after suspect_after rounds the others
        // notice, because no fresher beat arrives.
        for _ in 0..6 {
            round += 1;
            run_round(&mut engines, round, &[2]);
        }
        assert!(!engines[0].alive("node2", round));
        assert!(!engines[1].alive("node2", round));
        // node2 comes back: one successful exchange re-proves it
        // (directly or via an indirect beat within suspect_after).
        for _ in 0..8 {
            round += 1;
            run_round(&mut engines, round, &[]);
        }
        assert!(engines[0].alive("node2", round));
        assert!(engines[1].alive("node2", round));
    }

    #[test]
    fn never_heard_peers_start_suspect() {
        let engines = ring(2);
        assert!(!engines[0].alive("node1", 0));
        assert!(engines[0].alive("node0", 0));
    }
}
