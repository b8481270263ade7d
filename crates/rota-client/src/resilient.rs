//! Retry, backoff and failover on top of the blocking [`Client`].
//!
//! A [`ResilientClient`] wraps a list of server addresses — one server,
//! or the nodes of a rota-cluster federation, where any node admits
//! anything — with three layers of fault tolerance, all deterministic
//! under a seed:
//!
//! - **retry with exponential backoff + jitter** — transport errors and
//!   `overloaded` bounces are retried up to [`RetryConfig::max_attempts`]
//!   times; the delay doubles each attempt and is jittered to a
//!   seeded-random point in `[50%, 100%]` of the nominal value so
//!   retrying clients do not stampede in lockstep;
//! - **per-request deadline budgets** — every admit gets
//!   [`RetryConfig::budget`] of wall-clock time; a retry that cannot
//!   fit its backoff sleep inside the remaining budget is abandoned and
//!   the last outcome returned;
//! - **sticky failover** — the client stays on one address; a transport
//!   error (`ClientError::Io`/`Frame`) drops the connection and moves it
//!   to the next address before the next attempt, while answers —
//!   server `error`s included — leave it where it is.
//!
//! The client sends admits only. Retrying an admit whose *response* was
//! lost (connection reset, truncated frame) is safe because rota-server
//! treats computation names as idempotency keys (DESIGN §10): the retry
//! reaches the shard owning the demand and gets the original verdict
//! from its table of names rather than committing twice. An `offer`,
//! `prepare` or `commit` has no such key, so none of them is ever
//! re-sent.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};
use rota_actor::Granularity;
use rota_server::protocol::{Request, Response};
use rota_server::spec::ComputationSpec;

use crate::{Client, ClientError};

/// Retry/backoff/budget knobs. All defaults are intentionally modest;
/// chaos tests crank `max_attempts` up.
#[derive(Debug, Clone)]
pub struct RetryConfig {
    /// Total attempts per request (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per attempt.
    pub base_delay: Duration,
    /// Ceiling on a single backoff sleep.
    pub max_delay: Duration,
    /// Wall-clock budget per request, covering every attempt and sleep.
    pub budget: Duration,
    /// Seed for the jitter stream (reproducible retry schedules).
    pub seed: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            budget: Duration::from_secs(5),
            seed: 0,
        }
    }
}

/// Counters describing what the resilience layer actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Attempts sent (firsts and retries).
    pub attempts: u64,
    /// Retries after a transport error or `overloaded` bounce.
    pub retries: u64,
    /// Fresh connections dialed after a transport failure.
    pub reconnects: u64,
    /// Moves to the next address after a transport failure (never with
    /// a one-address list).
    pub failovers: u64,
}

/// A [`Client`] wrapper that retries, backs off and fails over —
/// deterministically under [`RetryConfig::seed`].
pub struct ResilientClient {
    addrs: Vec<SocketAddr>,
    cursor: usize,
    retry: RetryConfig,
    rng: StdRng,
    connection: Option<Client>,
    stats: ResilienceStats,
}

impl ResilientClient {
    /// Builds a resilient client over `addrs`, starting at the first;
    /// connections are dialed lazily, so this fails only on an empty
    /// list.
    pub fn new(addrs: Vec<SocketAddr>, retry: RetryConfig) -> Result<ResilientClient, ClientError> {
        if addrs.is_empty() {
            return Err(ClientError::Server("no server addresses given".into()));
        }
        let rng = StdRng::seed_from_u64(retry.seed);
        Ok(ResilientClient {
            addrs,
            cursor: 0,
            retry,
            rng,
            connection: None,
            stats: ResilienceStats::default(),
        })
    }

    /// What the resilience layer has done so far.
    pub fn stats(&self) -> ResilienceStats {
        self.stats
    }

    /// The address the next attempt goes to.
    pub fn current_addr(&self) -> SocketAddr {
        self.addrs[self.cursor]
    }

    /// Submits an admit with retries, backoff and budget.
    ///
    /// Returns the first decisive response. `overloaded` is retried;
    /// if retries or budget run out it is returned as-is (the caller
    /// sees the backpressure instead of a fabricated error).
    pub fn admit(
        &mut self,
        computation: ComputationSpec,
        granularity: Granularity,
    ) -> Result<Response, ClientError> {
        let request = Request::Admit {
            computation,
            granularity,
            forwarded: false,
        };
        let deadline = Instant::now() + self.retry.budget;
        let mut last: Result<Response, ClientError> =
            Err(ClientError::Server("no attempt made".into()));
        for attempt in 0..self.retry.max_attempts.max(1) {
            if attempt > 0 {
                self.stats.retries += 1;
                let sleep = self.backoff(attempt);
                // A retry we cannot afford (sleep would cross the
                // budget deadline) is not attempted at all.
                if Instant::now() + sleep >= deadline {
                    return last;
                }
                std::thread::sleep(sleep);
            }
            match self.attempt(&request) {
                Ok(response @ Response::Overloaded { .. }) => {
                    last = Ok(response);
                }
                Ok(response) => return Ok(response),
                Err(err) => {
                    // The connection is suspect after any error; the
                    // next attempt dials fresh, on the next address if
                    // this one could not answer at all.
                    self.connection = None;
                    if matches!(err, ClientError::Io(_) | ClientError::Frame(_))
                        && self.addrs.len() > 1
                    {
                        self.cursor = (self.cursor + 1) % self.addrs.len();
                        self.stats.failovers += 1;
                    }
                    last = Err(err);
                }
            }
            if Instant::now() >= deadline {
                return last;
            }
        }
        last
    }

    /// One attempt, on the open connection or a fresh one.
    fn attempt(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.stats.attempts += 1;
        let addr = self.current_addr();
        let client = match &mut self.connection {
            Some(client) => client,
            slot @ None => {
                self.stats.reconnects += u64::from(self.stats.attempts > 1);
                slot.insert(Client::connect_timeout(addr, Duration::from_secs(5))?)
            }
        };
        match client.call(request)? {
            Response::Error { message } => Err(ClientError::Server(message)),
            response => Ok(response),
        }
    }

    /// Nominal exponential backoff for `attempt` (1-based retry index),
    /// jittered to a seeded-random point in `[50%, 100%]`.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let doubled = self
            .retry
            .base_delay
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        let nominal = doubled.min(self.retry.max_delay);
        let unit = (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        nominal.mul_f64(0.5 + 0.5 * unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, BufWriter};
    use std::net::TcpListener;
    use std::thread;

    use rota_server::protocol::{read_frame, write_frame};

    /// A stub node answering every request, on every connection, with
    /// `answer`.
    fn stub_node(answer: Response) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                let answer = answer.clone();
                thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = BufWriter::new(stream);
                    while read_frame(&mut reader, rota_server::MAX_FRAME_BYTES).is_ok() {
                        if write_frame(&mut writer, &answer.to_json()).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        addr
    }

    /// An address that accepts the dial and immediately hangs up.
    fn dead_node() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                drop(stream);
            }
        });
        addr
    }

    fn job() -> ComputationSpec {
        ComputationSpec {
            name: "j".into(),
            start: 0,
            deadline: 8,
            actors: Vec::new(),
        }
    }

    fn decision() -> Response {
        Response::Decision {
            computation: "j".into(),
            accepted: true,
            shard: 0,
            reason: String::new(),
            violated_term: None,
            clause: None,
            diagnostics: rota_server::Diagnostics::default(),
        }
    }

    fn quick_retries(max_attempts: u32) -> RetryConfig {
        RetryConfig {
            max_attempts,
            base_delay: Duration::from_millis(1),
            ..RetryConfig::default()
        }
    }

    #[test]
    fn empty_address_list_is_rejected() {
        assert!(ResilientClient::new(Vec::new(), RetryConfig::default()).is_err());
    }

    #[test]
    fn transport_failure_moves_to_the_next_address_then_sticks() {
        let dead = dead_node();
        let live = stub_node(decision());
        let mut client = ResilientClient::new(vec![dead, live], quick_retries(2)).unwrap();
        let response = client.admit(job(), Granularity::MaximalRun).unwrap();
        assert!(matches!(response, Response::Decision { .. }));
        assert_eq!(client.stats().failovers, 1);
        assert_eq!(client.current_addr(), live, "sticks to the survivor");
        // The next admit goes straight to the live node.
        client.admit(job(), Granularity::MaximalRun).unwrap();
        assert_eq!(client.stats().failovers, 1);
        assert_eq!(client.stats().attempts, 3);
    }

    #[test]
    fn server_errors_do_not_fail_over() {
        let fussy = stub_node(Response::Error {
            message: "version-mismatch".into(),
        });
        let never = dead_node();
        let mut client = ResilientClient::new(vec![fussy, never], quick_retries(3)).unwrap();
        // An `error` answer is a real answer: it is retried in place
        // (the retry rules are unchanged) instead of burning the other
        // address.
        match client.admit(job(), Granularity::MaximalRun) {
            Err(ClientError::Server(message)) => assert_eq!(message, "version-mismatch"),
            other => panic!("expected the server's error, got {other:?}"),
        }
        assert_eq!(client.stats().attempts, 3);
        assert_eq!(client.stats().failovers, 0);
        assert_eq!(client.current_addr(), fussy);
    }

    #[test]
    fn all_addresses_down_returns_a_transport_error() {
        let mut client =
            ResilientClient::new(vec![dead_node(), dead_node()], quick_retries(2)).unwrap();
        match client.admit(job(), Granularity::MaximalRun) {
            Err(ClientError::Io(_) | ClientError::Frame(_)) => {}
            other => panic!("expected a transport error, got {other:?}"),
        }
        assert_eq!(client.stats().failovers, 2, "one move per failed attempt");
        // A one-address list redials the same address and never counts
        // a failover.
        let mut single = ResilientClient::new(vec![dead_node()], quick_retries(2)).unwrap();
        assert!(single.admit(job(), Granularity::MaximalRun).is_err());
        assert_eq!(single.stats().failovers, 0);
        assert_eq!(single.stats().reconnects, 1);
    }

    #[test]
    fn backoff_is_bounded_and_deterministic() {
        let retry = RetryConfig {
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
            seed: 9,
            ..RetryConfig::default()
        };
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let mut a = ResilientClient::new(vec![addr], retry.clone()).unwrap();
        let mut b = ResilientClient::new(vec![addr], retry).unwrap();
        for attempt in 1..=10 {
            let da = a.backoff(attempt);
            let db = b.backoff(attempt);
            assert_eq!(da, db, "same seed, same schedule");
            let nominal = Duration::from_millis(10)
                .saturating_mul(1 << (attempt - 1).min(16))
                .min(Duration::from_millis(100));
            assert!(da <= nominal, "jitter only shrinks: {da:?} > {nominal:?}");
            assert!(da >= nominal.mul_f64(0.5), "jitter floor: {da:?}");
        }
    }

    #[test]
    fn different_seeds_give_different_jitter() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let mk = |seed| {
            ResilientClient::new(
                vec![addr],
                RetryConfig {
                    seed,
                    ..RetryConfig::default()
                },
            )
            .unwrap()
        };
        let (mut a, mut b) = (mk(1), mk(2));
        let schedule_a: Vec<_> = (1..=8).map(|i| a.backoff(i)).collect();
        let schedule_b: Vec<_> = (1..=8).map(|i| b.backoff(i)).collect();
        assert_ne!(schedule_a, schedule_b);
    }
}
