//! The TCP admission service: accept loop, connection handling,
//! timeouts, and graceful shutdown.
//!
//! One acceptor thread plus one thread per connection. Each connection
//! thread decides its own requests under the lock of the shard they
//! route to (see [`crate::shard`]); there are no shard threads. The
//! server is an *admission oracle*: controllers stay at logical time
//! zero and answer "can the system accommodate one more computation
//! given its commitments?" for a stream of requests.
//!
//! Shutdown drains: it raises a flag the acceptor, every connection and
//! every call into the shard pool check, then takes the pool's write
//! lock, which waits for every call still inside it. The drained pool
//! answers no more calls but stays readable, so its record of verdicts
//! ([`ServerHandle::decisions`]) survives the drain.

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rota_actor::TableCostModel;
use rota_admission::{AdmissionPolicy, AdmissionRequest, Decision, RejectReason};
use rota_logic::Scope;
use rota_obs::Registry;
use rota_resource::{LocatedType, Quantity, ResourceSet};

use crate::protocol::{
    read_frame, version_mismatch, write_frame, FrameError, Reply, Request, Response,
    MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use crate::shard::{ShardPool, DEDUP_CAPACITY};
use crate::spec::{self, ComputationSpec};

/// Tuning knobs for [`Server::spawn`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: SocketAddr,
    /// Number of shards (each owns a disjoint resource slice).
    pub shards: usize,
    /// Admits that may wait per shard behind the one deciding; past
    /// that an admit answers `overloaded`.
    pub queue_capacity: usize,
    /// Connections silent for this long are reaped.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            shards: 4,
            queue_capacity: 64,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// Where a server's shards read the time, to pass it in (see
/// [`crate::shard`]): [`WallClock`], or in a test a clock it moves.
pub trait Clock: Send + Sync {
    /// The current instant.
    fn now(&self) -> Instant;
}

/// The operating system's monotonic clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct WallClock;

impl Clock for WallClock {
    fn now(&self) -> Instant {
        Instant::now()
    }
}

/// Intercepts requests before the local admission core sees them — the
/// extension point `rota-cluster` uses to route, gossip, and coordinate
/// two-phase commits. Returning `None` falls through to local handling.
///
/// The hook runs on the connection thread inside a panic guard: a hook
/// that panics kills only that connection, never the server.
pub trait RequestHook: Send + Sync {
    /// An answer to short-circuit with, or `None` to handle locally. A
    /// frame the hook got from [`LocalHandle::admit`] is written as it
    /// is.
    fn intercept(&self, request: &Request) -> Option<Reply>;
}

/// The hook of a server spawned without one: everything is local.
struct Unhooked;

impl RequestHook for Unhooked {
    fn intercept(&self, _: &Request) -> Option<Reply> {
        None
    }
}

/// A hook's view of its own server: dispatch requests straight to the
/// local admission core (the hook is *not* consulted again, so a hook
/// can safely re-enter its own node).
#[derive(Clone)]
pub struct LocalHandle {
    inner: Weak<Inner>,
}

impl LocalHandle {
    /// Runs `f` on the local shard pool; `None` once the server is
    /// draining.
    fn with_pool<T>(&self, f: impl FnOnce(&ShardPool) -> T) -> Option<T> {
        self.inner.upgrade().and_then(|inner| inner.try_pool(f))
    }

    /// Handles `request` with the local core; the hook is bypassed. An
    /// admit's verdict frame is decoded into its typed answer.
    pub fn call(&self, request: Request) -> Response {
        match self.inner.upgrade() {
            Some(inner) => inner.handle_core(request).into_response(),
            None => draining(),
        }
    }

    /// Decides an already-priced admission with the local shard pool,
    /// so a hook that priced the request to route it does not make the
    /// core build and price it again; `computation` is the spec the
    /// request was built from. The verdict comes back as the frame the
    /// shard encoded and cached, for the hook to pass on.
    pub fn admit(&self, computation: &ComputationSpec, request: AdmissionRequest) -> Reply {
        self.with_pool(|pool| pool.admit(computation, request))
            .unwrap_or_else(|| draining().into())
    }

    /// The resources this node's `cluster-snapshot` answers within
    /// `scope` (the whole node for `None`), as the set itself, so a
    /// coordinator's own slice of a two-phase basis never goes through
    /// JSON. The wire answer is this set's [`spec::resource_specs`],
    /// which leave out the kinds the spec cannot name; a request demands
    /// only cpu and links, so a scoped set holds no such kind.
    ///
    /// # Errors
    ///
    /// The message a `cluster-snapshot` would answer with as an error.
    pub fn cluster_state_in(&self, scope: Option<&Scope>) -> Result<ResourceSet, String> {
        self.with_pool(|pool| pool.cluster_state(scope))
            .unwrap_or_else(|| Err(DRAINING.into()))
    }

    /// The verdict a `prepare` frame would decide on this node for a
    /// request the hook already priced, against a basis it already
    /// built: the same `policy.decide` on the merged state.
    ///
    /// # Errors
    ///
    /// The draining message, once the server is draining.
    pub fn decide(
        &self,
        request: &AdmissionRequest,
        basis: &ResourceSet,
    ) -> Result<Decision, String> {
        self.with_pool(|pool| pool.decide(request, basis))
            .ok_or_else(|| DRAINING.into())
    }

    /// The reject this node's policy proves for a request the hook
    /// already priced from `supply` alone, the obtainable quantity of
    /// each demanded located type over the request's window (`None`
    /// while unknown): the refutation [`LocalHandle::decide`] would
    /// start with. `None` when the policy refutes nothing, or once the
    /// server is draining.
    pub fn refute(
        &self,
        request: &AdmissionRequest,
        supply: &dyn Fn(&LocatedType) -> Option<Quantity>,
    ) -> Option<RejectReason> {
        self.with_pool(|pool| pool.policy.refute(request, supply))
            .flatten()
    }

    /// Phase one of a two-phase commit on this node, as a `prepare`
    /// frame would run it, for a `verdict` the hook already decided on
    /// `basis` ([`LocalHandle::decide`]): `stale-epoch` once this node's
    /// part of what the verdict read has moved.
    pub fn prepare(
        &self,
        request: &AdmissionRequest,
        verdict: &Decision,
        basis: &ResourceSet,
        ttl: Duration,
    ) -> Response {
        self.with_pool(|pool| pool.prepare(request, verdict, basis, ttl))
            .unwrap_or_else(draining)
    }

    /// The server's metrics registry, so a hook can publish its own
    /// gauges and counters into the same `metrics` snapshot. `None`
    /// once the server is draining.
    pub fn registry(&self) -> Option<Arc<rota_obs::Registry>> {
        self.inner
            .upgrade()
            .map(|inner| Arc::clone(&inner.registry))
    }
}

/// What a call answers once the server is draining.
const DRAINING: &str = "server is draining";

fn draining() -> Response {
    Response::Error {
        message: DRAINING.into(),
    }
}

struct Inner {
    pool: RwLock<ShardPool>,
    shutting_down: AtomicBool,
    registry: Arc<Registry>,
    cost_model: TableCostModel,
    config: ServerConfig,
    /// Set once, before the acceptor starts (see
    /// [`Server::spawn_hooked`]), so connections never race a
    /// half-initialized hook.
    hook: OnceLock<Arc<dyn RequestHook>>,
}

impl Inner {
    fn handle(&self, request: Request) -> Reply {
        if let Some(reply) = self.hook.get().and_then(|hook| hook.intercept(&request)) {
            return reply;
        }
        self.handle_core(request)
    }

    /// Answers `request` locally: an admit with the frame its shard
    /// encoded, everything else typed.
    fn handle_core(&self, request: Request) -> Reply {
        let response = match request {
            Request::Hello { version, node: _ } => {
                if version == PROTOCOL_VERSION {
                    Response::Welcome {
                        version: PROTOCOL_VERSION,
                    }
                } else {
                    version_mismatch(version)
                }
            }
            Request::Ping => Response::Pong,
            Request::Metrics => Response::Metrics {
                snapshot: self.registry.snapshot().to_json(),
            },
            Request::Admit {
                computation,
                granularity,
                forwarded: _,
            } => match computation.build() {
                Ok(built) => {
                    let priced = AdmissionRequest::price(built, &self.cost_model, granularity);
                    return self
                        .try_pool(|pool| pool.admit(&computation, priced))
                        .unwrap_or_else(|| draining().into());
                }
                Err(err) => Response::Error {
                    message: format!("bad computation: {err}"),
                },
            },
            Request::Offer {
                resources,
                forwarded: _,
            } => match spec::resource_set(&resources) {
                Ok(theta) => self.with_pool(move |pool| pool.offer(theta)),
                Err(err) => Response::Error {
                    message: format!("bad resources: {err}"),
                },
            },
            Request::Stats => self.with_pool(|pool| pool.stats()),
            Request::Shutdown => Response::Bye,
            // Gossip is meaningful only when a cluster hook intercepts
            // it; a bare server says so instead of guessing.
            Request::Gossip { .. } => Response::Error {
                message: "not clustered: this node runs no cluster router".into(),
            },
            Request::ClusterSnapshot => self.cluster_state(None),
            Request::ScopedSnapshot { scope } => self.cluster_state(Some(&scope)),
            Request::Prepare {
                name,
                computation,
                granularity,
                basis,
                // v6 keeps the member; the basis is what is checked.
                epochs: _,
                ttl_ms,
            } => {
                let prepared = || {
                    let computation = computation
                        .build()
                        .map_err(|err| format!("bad computation: {err}"))?;
                    if computation.name() != name {
                        return Err(format!(
                            "prepare name `{name}` does not match computation name `{}`",
                            computation.name()
                        ));
                    }
                    let basis =
                        spec::resource_set(&basis).map_err(|err| format!("bad basis: {err}"))?;
                    let priced =
                        AdmissionRequest::price(computation, &self.cost_model, granularity);
                    let ttl = Duration::from_millis(ttl_ms);
                    Ok(self.with_pool(|pool| {
                        pool.prepare(&priced, &pool.decide(&priced, &basis), &basis, ttl)
                    }))
                };
                prepared().unwrap_or_else(|message| Response::Error { message })
            }
            Request::CommitReservation { name } => {
                self.with_pool(|pool| match pool.commit(&name) {
                    Ok(()) => Response::Committed { name },
                    Err(message) => Response::Error { message },
                })
            }
            Request::AbortReservation { name } => self.with_pool(|pool| {
                let released = pool.abort(&name);
                Response::Aborted { name, released }
            }),
        };
        Reply::Typed(response)
    }

    /// Answers `cluster-snapshot`, bare (`None`) or within a scope.
    fn cluster_state(&self, scope: Option<&Scope>) -> Response {
        self.with_pool(|pool| match pool.cluster_state(scope) {
            Ok(merged) => Response::ClusterState {
                epochs: vec![0; pool.shards()],
                resources: spec::resource_set_to_json(&merged),
            },
            Err(message) => Response::Error { message },
        })
    }

    fn with_pool(&self, f: impl FnOnce(&ShardPool) -> Response) -> Response {
        self.try_pool(f).unwrap_or_else(draining)
    }

    /// Runs `f` on the shard pool, or `None` once the server drains.
    fn try_pool<T>(&self, f: impl FnOnce(&ShardPool) -> T) -> Option<T> {
        // The write lock only marks the drain, so a poisoned lock still
        // guards a usable pool. The flag is read under the read lock: a
        // call runs before the drain's write lock is granted or not at all.
        let guard = self.pool.read().unwrap_or_else(PoisonError::into_inner);
        (!self.shutting_down.load(Ordering::SeqCst)).then(|| f(&guard))
    }

    /// Raises the shutdown flag and, the first time, takes the shard
    /// pool's write lock, which waits for every call still inside it.
    fn begin_shutdown(&self) {
        if !self.shutting_down.swap(true, Ordering::SeqCst) {
            drop(self.pool.write().unwrap_or_else(PoisonError::into_inner));
        }
    }
}

/// A running admission service; dropping the handle shuts it down.
pub struct ServerHandle {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    acceptor: Mutex<Option<JoinHandle<()>>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The metrics registry shared by acceptor, connections, and shards.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.inner.registry)
    }

    /// The record of verdicts: the frames of each shard's settled names,
    /// shard by shard, least recently used first (at most 1,024 per
    /// shard). They are the admits' verdicts as their submitters were
    /// sent them, the two-phase rejects a shard confirmed, and, for each
    /// committed two-phase admission, the shard's accept. Reading it
    /// counts nothing, and it survives the drain.
    pub fn decisions(&self) -> Vec<Arc<str>> {
        let pool = self.inner.pool.read();
        pool.unwrap_or_else(PoisonError::into_inner).decisions()
    }

    /// Blocks until a shutdown has been requested (e.g. by a client's
    /// `shutdown` verb), then completes it. Lets `rota serve` park its
    /// main thread while still draining cleanly at the end.
    pub fn wait(&self) {
        while !self.inner.shutting_down.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(100));
        }
        self.shutdown();
    }

    /// Starts a graceful shutdown: stop accepting, let in-flight
    /// decisions finish, refuse later calls into the shard pool, then
    /// return once the acceptor has exited.
    pub fn shutdown(&self) {
        self.inner.begin_shutdown();
        // Wake the acceptor out of `accept()` so it sees the flag, even
        // one a `shutdown` verb raised, and hang up (leaving no socket
        // in TIME_WAIT). A dial error means the acceptor has exited.
        if let Ok(mut waker) = TcpStream::connect_timeout(&self.local_addr, WAKE_STEP) {
            hang_up(&mut waker);
        }
        let acceptor = self
            .acceptor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(handle) = acceptor {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The admission service.
pub struct Server;

impl Server {
    /// Binds `config.addr` and serves `policy` over the resources
    /// `theta`, returning once the listener is live.
    pub fn spawn<P>(
        config: ServerConfig,
        policy: P,
        theta: &ResourceSet,
    ) -> std::io::Result<ServerHandle>
    where
        P: AdmissionPolicy + Send + Sync + 'static,
    {
        let unhooked = |_| Arc::new(Unhooked) as Arc<dyn RequestHook>;
        Self::spawn_hooked(config, policy, theta, Arc::new(WallClock), unhooked)
    }

    /// Like [`Server::spawn`], but installs the [`RequestHook`] built by
    /// `make_hook` before the acceptor starts. The hook receives a
    /// [`LocalHandle`] back onto this server, so it can route requests
    /// to the local core as well as to peers — this is how a
    /// `rota-cluster` node mounts its router. The shards read the time
    /// from `clock` ([`WallClock`] outside tests).
    pub fn spawn_hooked<P, F>(
        config: ServerConfig,
        policy: P,
        theta: &ResourceSet,
        clock: Arc<dyn Clock>,
        make_hook: F,
    ) -> std::io::Result<ServerHandle>
    where
        P: AdmissionPolicy + Send + Sync + 'static,
        F: FnOnce(LocalHandle) -> Arc<dyn RequestHook>,
    {
        let listener = TcpListener::bind(config.addr)?;
        let local_addr = listener.local_addr()?;
        let registry = Arc::new(Registry::new());
        let pool = ShardPool::new(
            policy,
            theta,
            config.shards,
            config.queue_capacity,
            DEDUP_CAPACITY,
            &registry,
            clock,
        );
        let inner = Arc::new(Inner {
            pool: RwLock::new(pool),
            shutting_down: AtomicBool::new(false),
            registry,
            cost_model: TableCostModel::paper(),
            config,
            hook: OnceLock::new(),
        });
        let hook = make_hook(LocalHandle {
            inner: Arc::downgrade(&inner),
        });
        // The cell is new and set only here, so this cannot fail.
        let _ = inner.hook.set(hook);
        let acceptor_inner = Arc::clone(&inner);
        let acceptor = std::thread::Builder::new()
            .name("rota-acceptor".into())
            .spawn(move || accept_loop(&listener, &acceptor_inner))?;
        Ok(ServerHandle {
            inner,
            local_addr,
            acceptor: Mutex::new(Some(acceptor)),
        })
    }
}

/// Bound on each step of waking the acceptor (dial, wait for the reset,
/// wait for the byte), and on either side's wait in [`hang_up`]: a
/// stop waits at most twice this.
const WAKE_STEP: Duration = Duration::from_millis(125);

/// Ends a connection from the dialling side where the other side
/// closes once it has answered, so neither end's socket is left in
/// TIME_WAIT. Sends one newline, which the other side leaves unread (a
/// server does after a `gossip` answer) so its close resets the
/// connection, then waits at most 125 ms for that reset, or for the end
/// of stream a relay in between passes on. Closing first, the dialler
/// would keep its socket in TIME_WAIT; a close with nothing unread
/// would leave the other side's. A newline, a blank frame, is what a
/// line relay passes on and a server skips.
pub fn hang_up(stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(WAKE_STEP));
    let _ = stream.write_all(b"\n").and_then(|()| stream.read(&mut [0]));
}

/// The answering side of [`hang_up`]: waits at most [`WAKE_STEP`] for
/// the dialler's newline and leaves it unread, so dropping the stream
/// then resets the connection.
fn await_hang_up(stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(WAKE_STEP));
    let _ = stream.peek(&mut [0]);
}

/// How long the acceptor sleeps after a failed `accept` (say, at the
/// file-descriptor limit) before it tries again, so a listener that
/// keeps failing does not spin a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    let connections = inner.registry.gauge("server.connections");
    let accepted = inner.registry.counter("server.connections.accepted");
    let accept_errors = inner.registry.counter("server.connections.accept_errors");
    while !inner.shutting_down.load(Ordering::SeqCst) {
        let (stream, _peer) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                accept_errors.inc();
                std::thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        if inner.shutting_down.load(Ordering::SeqCst) {
            await_hang_up(&stream);
            break;
        }
        accepted.inc();
        connections.add(1);
        let conn_inner = Arc::clone(inner);
        let conn_gauge = Arc::clone(&connections);
        let spawned = std::thread::Builder::new()
            .name("rota-conn".into())
            .spawn(move || {
                serve_connection(stream, &conn_inner);
                conn_gauge.add(-1);
            });
        // The connection (and its stream) died with the closure.
        if spawned.is_err() {
            connections.add(-1);
        }
    }
}

fn serve_connection(stream: TcpStream, inner: &Arc<Inner>) {
    let malformed = inner.registry.counter("server.frames.malformed");
    let oversized = inner.registry.counter("server.frames.oversized");
    let reaped = inner.registry.counter("server.connections.idle_reaped");
    // Short read timeouts let us notice both idle expiry and shutdown
    // without a dedicated watchdog thread. Every answer is one flushed
    // frame: send it whole rather than let Nagle's algorithm hold back
    // the tail segment of one larger than an MSS until the peer
    // acknowledges the head.
    let poll = Duration::from_millis(100).min(inner.config.idle_timeout);
    let Ok(clone) = stream
        .set_read_timeout(Some(poll))
        .and_then(|()| stream.set_nodelay(true))
        .and_then(|()| stream.try_clone())
    else {
        return;
    };
    let mut reader = BufReader::new(clone);
    let mut writer = BufWriter::new(stream);
    let mut last_activity = Instant::now();
    loop {
        let line = match read_frame(&mut reader, MAX_FRAME_BYTES) {
            Ok(line) => line,
            Err(FrameError::Closed) => return,
            Err(FrameError::TooLarge { seen }) => {
                oversized.inc();
                let _ = write_frame(
                    &mut writer,
                    &Response::Error {
                        message: format!(
                            "frame exceeds {MAX_FRAME_BYTES} bytes (got at least {seen})"
                        ),
                    },
                );
                shutdown_stream(&mut writer);
                return;
            }
            Err(FrameError::Io(err))
                if err.kind() == std::io::ErrorKind::WouldBlock
                    || err.kind() == std::io::ErrorKind::TimedOut =>
            {
                if inner.shutting_down.load(Ordering::SeqCst) {
                    shutdown_stream(&mut writer);
                    return;
                }
                if last_activity.elapsed() >= inner.config.idle_timeout {
                    reaped.inc();
                    let _ = write_frame(
                        &mut writer,
                        &Response::Error {
                            message: "idle timeout".into(),
                        },
                    );
                    shutdown_stream(&mut writer);
                    return;
                }
                continue;
            }
            Err(FrameError::Io(_)) => return,
        };
        last_activity = Instant::now();
        if line.trim().is_empty() {
            continue;
        }
        let (reply, bye, gossip) = match Request::from_line(&line) {
            Ok(request) => {
                let bye = matches!(request, Request::Shutdown);
                let gossip = matches!(request, Request::Gossip { .. });
                // A panic while handling (a hook bug, say, in a 2PC
                // coordinator mid-flight) kills only this connection;
                // the shards and the acceptor keep running, and any
                // tentative reservations a dead coordinator left behind
                // expire by TTL. (A panic in a
                // shard's write also lands here unanswered, and poisons
                // that shard's lock: its next call aborts the process.)
                match catch_unwind(AssertUnwindSafe(|| inner.handle(request))) {
                    Ok(reply) => (reply, bye, gossip),
                    Err(_) => {
                        shutdown_stream(&mut writer);
                        return;
                    }
                }
            }
            Err(err) => {
                malformed.inc();
                let error = Response::Error {
                    message: err.to_string(),
                };
                (error.into(), false, false)
            }
        };
        if reply.write(&mut writer).is_err() {
            return;
        }
        if bye {
            inner.begin_shutdown();
            shutdown_stream(&mut writer);
            return;
        }
        if gossip {
            // A gossip exchange is one connection, which its dialler
            // ends with `hang_up` once it has read this answer.
            await_hang_up(writer.get_ref());
            return;
        }
    }
}

fn shutdown_stream(writer: &mut BufWriter<TcpStream>) {
    let _ = writer.flush();
    let _ = writer.get_ref().shutdown(Shutdown::Both);
}
