//! Persistent peer links: the router's reused connections to other
//! nodes (DESIGN.md §12, "Peer links").
//!
//! Every forward, 2PC leg and offer slice takes an idle link to its
//! peer, or dials one when none passes the reuse check, and puts it
//! back once the call has its complete answer. The rules that keep a
//! reused link from answering the wrong call:
//!
//! - **Reuse check.** A link is taken only if it has been idle for less
//!   than half the peer's idle timeout (so the call never races the
//!   peer's reaper) and [`Client::is_reusable`] holds. A link failing
//!   the check is dropped.
//! - **Any error drops the link.** After an I/O, frame, decode or
//!   timeout error the answer may still be in flight.
//! - **Only a snapshot is re-sent.** A reused link can die while idle.
//!   A snapshot, bare or scoped, is read-only, so one that fails on a
//!   reused link with a
//!   transport error is sent once more on a fresh dial. Any other call
//!   may already have taken effect at the peer: its transport error ends
//!   the attempt, and the TTL sweep releases an orphaned reservation.
//!
//! Gossip still dials every round: that dial plus `hello` is the
//! liveness evidence.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rota_client::{Client, ClientError};
use rota_obs::{Counter, Gauge, Registry};
use rota_server::{Request, Response, ServerConfig};

use crate::lock;

/// How long a peer may take to answer a call it has read. Its own work
/// is one shard decision, well under a millisecond; the rest of the
/// budget covers a peer that is itself waiting on its peers or on a
/// busy machine.
const PEER_ANSWER_BUDGET: Duration = Duration::from_secs(5);

/// How long one read or write of a peer call may block once the dial
/// succeeded: the dial bound plus [`PEER_ANSWER_BUDGET`].
pub(crate) fn io_timeout(peer_timeout: Duration) -> Duration {
    peer_timeout + PEER_ANSWER_BUDGET
}

/// The longest a link may sit idle and still be reused: half the idle
/// timeout after which every node a `Cluster` launches reaps a quiet
/// connection.
pub(crate) fn max_idle() -> Duration {
    ServerConfig::default().idle_timeout / 2
}

struct IdleLink {
    client: Client,
    since: Instant,
}

/// Idle links keyed by peer address, so a node re-addressed in the
/// topology never gets a call down a link to its old address.
pub(crate) struct PeerLinks {
    idle: Mutex<BTreeMap<String, Vec<IdleLink>>>,
    dial_timeout: Duration,
    io_timeout: Duration,
    max_idle: Duration,
    dials: Arc<Counter>,
    idle_links: Arc<Gauge>,
}

impl PeerLinks {
    /// An empty pool publishing `cluster.peer.dials` (fresh dials) and
    /// `cluster.peer.idle_links` (links waiting for a call) into
    /// `registry`.
    pub(crate) fn new(
        registry: &Registry,
        dial_timeout: Duration,
        io_timeout: Duration,
        max_idle: Duration,
    ) -> PeerLinks {
        PeerLinks {
            idle: Mutex::new(BTreeMap::new()),
            dial_timeout,
            io_timeout,
            max_idle,
            dials: registry.counter("cluster.peer.dials"),
            idle_links: registry.gauge("cluster.peer.idle_links"),
        }
    }

    /// Sends `request` to node `peer` at `addr` and reads its answer.
    pub(crate) fn call(
        &self,
        peer: &str,
        addr: &str,
        request: &Request,
    ) -> Result<Response, String> {
        if let Some(client) = self.checkout(addr) {
            match self.call_on(addr, client, request) {
                Err(ClientError::Io(_) | ClientError::Frame(_))
                    if matches!(
                        request,
                        Request::ClusterSnapshot | Request::ScopedSnapshot { .. }
                    ) => {}
                outcome => return outcome.map_err(|err| format!("peer `{peer}` failed: {err}")),
            }
        }
        let client = self.dial(peer, addr)?;
        self.call_on(addr, client, request)
            .map_err(|err| format!("peer `{peer}` failed: {err}"))
    }

    /// One call on `client`, which goes back on the stack only if the
    /// call got its complete answer.
    fn call_on(
        &self,
        addr: &str,
        mut client: Client,
        request: &Request,
    ) -> Result<Response, ClientError> {
        let response = client.call(request)?;
        let mut idle = lock(&self.idle);
        let links = idle.entry(addr.to_string()).or_default();
        links.retain(|link| link.since.elapsed() < self.max_idle);
        links.push(IdleLink {
            client,
            since: Instant::now(),
        });
        self.publish(&idle);
        Ok(response)
    }

    /// The most recently used idle link to `addr` that passes the reuse
    /// check; links that fail it are dropped on the way.
    fn checkout(&self, addr: &str) -> Option<Client> {
        loop {
            let link = {
                let mut idle = lock(&self.idle);
                let link = idle.get_mut(addr)?.pop();
                self.publish(&idle);
                link?
            };
            if link.since.elapsed() < self.max_idle && link.client.is_reusable() {
                return Some(link.client);
            }
        }
    }

    fn dial(&self, peer: &str, addr: &str) -> Result<Client, String> {
        let socket: SocketAddr = addr
            .parse()
            .map_err(|_| format!("peer `{peer}` has unusable address `{addr}`"))?;
        self.dials.inc();
        Client::connect_timeout(socket, self.dial_timeout)
            .and_then(|client| {
                client.set_io_timeout(self.io_timeout)?;
                Ok(client)
            })
            .map_err(|err| format!("peer `{peer}` unreachable: {err}"))
    }

    fn publish(&self, idle: &BTreeMap<String, Vec<IdleLink>>) {
        let count = idle.values().map(Vec::len).sum::<usize>();
        self.idle_links
            .set(i64::try_from(count).unwrap_or(i64::MAX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::net::{Shutdown, TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    use std::thread::JoinHandle;

    use rota_interval::TimeInterval;
    use rota_logic::Scope;
    use rota_resource::{LocatedType, Location};
    use rota_server::protocol::{read_frame, write_frame};

    /// What the fake peer does with one request.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Act {
        /// Answer `pong`.
        Answer,
        /// Answer `pong`, then close the connection.
        AnswerThenClose,
        /// Answer `pong`, then send an unsolicited `idle timeout` frame.
        AnswerThenJunk,
        /// Close the connection without answering.
        Hangup,
        /// Never answer; keep the connection open.
        Stall,
    }

    type Script = Arc<dyn Fn(usize, usize) -> Act + Send + Sync>;

    /// A peer on a local listener. The `r`-th request on the `c`-th
    /// accepted connection is handled by `script(c, r)`; every handled
    /// request is reported on `handled` once the peer has written and,
    /// if the act says so, closed.
    struct FakePeer {
        addr: String,
        handled: mpsc::Receiver<()>,
        stop: Arc<AtomicBool>,
        acceptor: Option<JoinHandle<usize>>,
    }

    impl FakePeer {
        fn start(script: impl Fn(usize, usize) -> Act + Send + Sync + 'static) -> FakePeer {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let script: Script = Arc::new(script);
            let stop = Arc::new(AtomicBool::new(false));
            let (tx, handled) = mpsc::channel();
            let acceptor_stop = Arc::clone(&stop);
            let acceptor = std::thread::spawn(move || {
                let mut connections = Vec::new();
                for stream in listener.incoming() {
                    if acceptor_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let index = connections.len();
                    let (script, tx) = (Arc::clone(&script), tx.clone());
                    connections.push(std::thread::spawn(move || {
                        serve(stream.unwrap(), index, &script, &tx);
                    }));
                }
                let accepted = connections.len();
                for connection in connections {
                    connection.join().unwrap();
                }
                accepted
            });
            FakePeer {
                addr,
                handled,
                stop,
                acceptor: Some(acceptor),
            }
        }

        /// Waits until the peer has handled one more request.
        fn await_handled(&self) {
            self.handled
                .recv_timeout(Duration::from_secs(5))
                .expect("the fake peer handled the request");
        }

        /// Stops the peer and returns how many connections it accepted.
        /// Every client link to it must be dropped first.
        fn finish(mut self) -> usize {
            self.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(&self.addr);
            self.acceptor.take().unwrap().join().unwrap()
        }
    }

    fn serve(stream: TcpStream, connection: usize, script: &Script, handled: &mpsc::Sender<()>) {
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        for request in 0.. {
            if read_frame(&mut reader, 1 << 16).is_err() {
                return;
            }
            let act = script(connection, request);
            if act == Act::Stall {
                continue;
            }
            if act != Act::Hangup {
                write_frame(&mut writer, &Response::Pong.to_json()).unwrap();
            }
            if act == Act::AnswerThenJunk {
                let junk = Response::Error {
                    message: "idle timeout".into(),
                };
                write_frame(&mut writer, &junk.to_json()).unwrap();
            }
            let closes = matches!(act, Act::AnswerThenClose | Act::Hangup);
            if closes {
                let _ = writer.shutdown(Shutdown::Both);
            }
            let _ = handled.send(());
            if closes {
                return;
            }
        }
    }

    fn links(registry: &Registry, io_timeout: Duration, max_idle: Duration) -> PeerLinks {
        PeerLinks::new(registry, Duration::from_secs(1), io_timeout, max_idle)
    }

    fn pooled(registry: &Registry) -> PeerLinks {
        links(registry, Duration::from_secs(5), Duration::from_secs(60))
    }

    fn ping(links: &PeerLinks, peer: &FakePeer) -> Result<Response, String> {
        links.call("p", &peer.addr, &Request::Ping)
    }

    fn counter(registry: &Registry, name: &str) -> u64 {
        registry.snapshot().counter(name).unwrap_or(0)
    }

    fn idle_links(registry: &Registry) -> i64 {
        registry
            .snapshot()
            .gauge("cluster.peer.idle_links")
            .unwrap_or(0)
    }

    #[test]
    fn sequential_calls_share_one_connection() {
        let peer = FakePeer::start(|_, _| Act::Answer);
        let registry = Registry::new();
        let links = pooled(&registry);
        for _ in 0..8 {
            assert_eq!(ping(&links, &peer), Ok(Response::Pong));
        }
        assert_eq!(counter(&registry, "cluster.peer.dials"), 1);
        assert_eq!(idle_links(&registry), 1);
        drop(links);
        assert_eq!(peer.finish(), 1);
    }

    #[test]
    fn closed_or_dirty_idle_links_are_redialled() {
        for act in [Act::AnswerThenClose, Act::AnswerThenJunk] {
            let peer = FakePeer::start(move |c, _| if c == 0 { act } else { Act::Answer });
            let registry = Registry::new();
            let links = pooled(&registry);
            assert_eq!(ping(&links, &peer), Ok(Response::Pong));
            peer.await_handled();
            // The second call must get the answer to its own request,
            // never the stale `idle timeout` frame or a dead socket.
            assert_eq!(ping(&links, &peer), Ok(Response::Pong), "{act:?}");
            assert_eq!(counter(&registry, "cluster.peer.dials"), 2, "{act:?}");
            drop(links);
            assert_eq!(peer.finish(), 2, "{act:?}");
        }
    }

    #[test]
    fn links_idle_past_the_age_bound_are_not_reused() {
        let peer = FakePeer::start(|_, _| Act::Answer);
        let registry = Registry::new();
        let links = links(&registry, Duration::from_secs(5), Duration::from_millis(20));
        assert_eq!(ping(&links, &peer), Ok(Response::Pong));
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(ping(&links, &peer), Ok(Response::Pong));
        drop(links);
        assert_eq!(peer.finish(), 2);
    }

    #[test]
    fn a_link_that_failed_mid_call_is_never_returned() {
        for act in [Act::Hangup, Act::Stall] {
            let peer = FakePeer::start(move |c, _| if c == 0 { act } else { Act::Answer });
            let registry = Registry::new();
            let links = links(
                &registry,
                Duration::from_millis(200),
                Duration::from_secs(60),
            );
            let failed = ping(&links, &peer).unwrap_err();
            assert!(failed.contains("peer `p` failed"), "{failed}");
            assert_eq!(idle_links(&registry), 0, "{act:?}");
            assert_eq!(ping(&links, &peer), Ok(Response::Pong), "{act:?}");
            drop(links);
            assert_eq!(peer.finish(), 2, "{act:?}");
        }
    }

    #[test]
    fn only_a_snapshot_is_resent_after_a_reused_link_dies() {
        // The first connection answers one request, then hangs up on
        // the next one without answering.
        let script = |c, r| {
            if c == 0 && r == 1 {
                Act::Hangup
            } else {
                Act::Answer
            }
        };
        let scoped = Request::ScopedSnapshot {
            scope: Scope::new(
                [LocatedType::cpu(Location::new("l0"))],
                TimeInterval::from_ticks(2, 9).unwrap(),
            ),
        };
        for (request, resent) in [
            (Request::ClusterSnapshot, true),
            (scoped, true),
            (Request::Ping, false),
        ] {
            let peer = FakePeer::start(script);
            let links = pooled(&Registry::new());
            assert_eq!(ping(&links, &peer), Ok(Response::Pong));
            let answer = links.call("p", &peer.addr, &request);
            assert_eq!(answer.is_ok(), resent, "{request:?}: {answer:?}");
            drop(links);
            assert_eq!(peer.finish(), 1 + usize::from(resent), "{request:?}");
        }
    }
}
