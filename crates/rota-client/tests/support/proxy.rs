//! A fault-injecting TCP proxy for the failure drills.
//!
//! The drills put faults where they come from in production: outside
//! the server. A [`Proxy`] listens on an ephemeral port in front of one
//! server or one cluster node and relays its newline-delimited frames
//! one request and one answer at a time, injecting seeded faults on the
//! way:
//!
//! | fault | where | effect |
//! |---|---|---|
//! | reset first N | the first N connections, at their first request | closed unanswered; the server never sees it |
//! | latency | each request, before forwarding | sleep `U(0, latency_ms]` |
//! | reset | each request, after reading it, before forwarding | closed unanswered: never decided, so safe to retry |
//! | truncate | each answer | a prefix of the frame, then close |
//! | corrupt | each answer | bit 0 of one byte flipped |
//!
//! Flipping bit 0 cannot make the frame delimiter: the encoder escapes
//! control characters, so no frame holds `0x0B`, the byte that would
//! flip to `\n`. Every decision draws from a per-connection SplitMix64
//! stream derived from the seed and the connection's index, and every
//! fault injected is counted ([`Proxy::counts`]), so a drill can check
//! that its faults really fired.
//!
//! Two switches partition a node behind its proxy: [`Proxy::cut`]
//! refuses new connections and drops the ones being relayed (a pooled
//! peer link dies with them), and [`Proxy::refuse_hello_from`] refuses
//! a connection whose first frame is a `hello` naming a given node,
//! which is how a cut node's own gossip dials are stopped at its peers.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Which faults to inject and how often; probabilities lie in `[0, 1]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Faults {
    /// Seed of every connection's fault stream.
    pub seed: u64,
    /// Probability that a request is delayed.
    pub latency_p: f64,
    /// Upper bound of an injected delay, in milliseconds.
    pub latency_ms: u64,
    /// Probability that an answer frame is truncated.
    pub truncate_p: f64,
    /// Probability that one byte of an answer frame is flipped.
    pub corrupt_p: f64,
    /// Probability that a connection is reset after reading a request,
    /// before forwarding it.
    pub reset_p: f64,
    /// The first `reset_first` connections are reset at their first
    /// request.
    pub reset_first: u64,
}

/// What the proxy has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Connections accepted.
    pub connections: u64,
    /// Requests delayed.
    pub delayed: u64,
    /// Answers truncated.
    pub truncated: u64,
    /// Answers with one flipped byte.
    pub corrupted: u64,
    /// Connections reset before a request reached the server.
    pub reset: u64,
    /// Connections refused: accepted while cut, or opened with a
    /// refused `hello`.
    pub refused: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    delayed: AtomicU64,
    truncated: AtomicU64,
    corrupted: AtomicU64,
    reset: AtomicU64,
    refused: AtomicU64,
}

/// The partition switches and the connections they act on.
#[derive(Default)]
struct Gate {
    cut: bool,
    /// The node whose `hello` is refused.
    refused_hello: Option<String>,
    /// The client end of every connection being relayed, by index.
    live: BTreeMap<usize, TcpStream>,
}

/// A running proxy. Dropping it stops accepting; connections already
/// relayed end when either side closes.
pub struct Proxy {
    addr: SocketAddr,
    counters: Arc<Counters>,
    gate: Arc<Mutex<Gate>>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl Proxy {
    /// Starts a proxy in front of `upstream` on an ephemeral localhost
    /// port.
    pub fn start(upstream: SocketAddr, faults: Faults) -> Proxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind the proxy");
        let addr = listener.local_addr().expect("proxy address");
        let counters = Arc::new(Counters::default());
        let gate = Arc::new(Mutex::new(Gate::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let (counters, gate, stop) =
                (Arc::clone(&counters), Arc::clone(&gate), Arc::clone(&stop));
            std::thread::spawn(move || {
                for (index, client) in listener.incoming().enumerate() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(client) = client else { continue };
                    counters.connections.fetch_add(1, Ordering::Relaxed);
                    let Ok(handle) = client.try_clone() else {
                        continue;
                    };
                    {
                        let mut gate = gate.lock().unwrap();
                        if gate.cut {
                            counters.refused.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        gate.live.insert(index, handle);
                    }
                    let stream = Stream::new(&faults, index as u64);
                    let (counters, gate) = (Arc::clone(&counters), Arc::clone(&gate));
                    std::thread::spawn(move || {
                        relay(client, upstream, stream, &counters, &gate);
                        gate.lock().unwrap().live.remove(&index);
                    });
                }
            })
        };
        Proxy {
            addr,
            counters,
            gate,
            stop,
            acceptor: Some(acceptor),
        }
    }

    /// The address clients (or peers) dial instead of the upstream's.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Every fault injected so far.
    pub fn counts(&self) -> Counts {
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        Counts {
            connections: read(&self.counters.connections),
            delayed: read(&self.counters.delayed),
            truncated: read(&self.counters.truncated),
            corrupted: read(&self.counters.corrupted),
            reset: read(&self.counters.reset),
            refused: read(&self.counters.refused),
        }
    }

    /// Cuts the proxy (`true`) or heals it (`false`). While cut it
    /// refuses new connections, and cutting drops every connection it
    /// is relaying.
    pub fn cut(&self, cut: bool) {
        let mut gate = self.gate.lock().unwrap();
        gate.cut = cut;
        if cut {
            for client in std::mem::take(&mut gate.live).into_values() {
                let _ = client.shutdown(Shutdown::Both);
            }
        }
    }

    /// Refuses every new connection whose first frame is a `hello`
    /// naming `node`; `None` refuses none.
    pub fn refuse_hello_from(&self, node: Option<&str>) {
        self.gate.lock().unwrap().refused_hello = node.map(str::to_string);
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor so it sees the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

/// One connection's deterministic fault stream.
struct Stream {
    faults: Faults,
    state: u64,
    reset_first: bool,
}

impl Stream {
    fn new(faults: &Faults, index: u64) -> Stream {
        let mut stream = Stream {
            faults: *faults,
            state: faults.seed.wrapping_add(index),
            reset_first: index < faults.reset_first,
        };
        // Start from a mixed draw: every draw adds the same constant to
        // the state, so states a fixed stride apart would make each
        // connection replay its neighbour's stream one draw later.
        stream.state = stream.next();
        stream
    }

    /// SplitMix64.
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn fires(&mut self, p: f64) -> bool {
        p > 0.0 && ((self.next() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// Whether `line` is a `hello` from the node `gate` refuses.
fn refused_hello(gate: &Mutex<Gate>, line: &[u8]) -> bool {
    let gate = gate.lock().unwrap();
    let Some(refused) = gate.refused_hello.as_deref() else {
        return false;
    };
    let request =
        std::str::from_utf8(line).map(|text| rota_server::Request::from_line(text.trim_end()));
    matches!(request, Ok(Ok(rota_server::Request::Hello { node: Some(node), .. })) if node == refused)
}

/// Relays one client connection: a request in, a request out, an
/// answer back, with the stream's faults on the way.
fn relay(
    client: TcpStream,
    upstream: SocketAddr,
    mut stream: Stream,
    counters: &Counters,
    gate: &Mutex<Gate>,
) {
    let hang_up = |socket: &TcpStream| {
        let _ = socket.shutdown(Shutdown::Both);
    };
    let Ok(server) = TcpStream::connect_timeout(&upstream, Duration::from_secs(2)) else {
        return hang_up(&client);
    };
    let (Ok(client_reader), Ok(server_reader)) = (client.try_clone(), server.try_clone()) else {
        return hang_up(&client);
    };
    let _ = (client.set_nodelay(true), server.set_nodelay(true));
    let (mut requests, mut answers) =
        (BufReader::new(client_reader), BufReader::new(server_reader));
    let (mut client, mut server) = (client, server);
    let mut line = Vec::new();
    let mut first = true;
    loop {
        line.clear();
        if !matches!(requests.read_until(b'\n', &mut line), Ok(n) if n > 0) {
            break;
        }
        if std::mem::take(&mut first) && refused_hello(gate, &line) {
            counters.refused.fetch_add(1, Ordering::Relaxed);
            break;
        }
        if std::mem::take(&mut stream.reset_first) || stream.fires(stream.faults.reset_p) {
            counters.reset.fetch_add(1, Ordering::Relaxed);
            break;
        }
        if stream.faults.latency_ms > 0 && stream.fires(stream.faults.latency_p) {
            counters.delayed.fetch_add(1, Ordering::Relaxed);
            let delay = stream.below(stream.faults.latency_ms as usize) as u64 + 1;
            std::thread::sleep(Duration::from_millis(delay));
        }
        if server.write_all(&line).is_err() {
            break;
        }
        line.clear();
        if !matches!(answers.read_until(b'\n', &mut line), Ok(n) if n > 1) {
            break;
        }
        let frame = line.len() - 1;
        if stream.fires(stream.faults.truncate_p) {
            counters.truncated.fetch_add(1, Ordering::Relaxed);
            let keep = stream.below(frame);
            let _ = client.write_all(&line[..keep]);
            break;
        }
        if stream.fires(stream.faults.corrupt_p) {
            counters.corrupted.fetch_add(1, Ordering::Relaxed);
            let at = stream.below(frame);
            line[at] ^= 0x01;
        }
        if client.write_all(&line).is_err() {
            break;
        }
    }
    hang_up(&client);
    hang_up(&server);
}
