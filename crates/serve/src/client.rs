//! Retrying client for the newline-delimited-JSON protocol.
//!
//! The server marks transient failures — shed load (`overloaded`), handler
//! panics (`internal_error`), blown deadlines (`deadline_exceeded`) — with
//! `"retryable": true` in the error reply. [`Client::request`] retries
//! those, and connection-level failures (refused, reset, torn mid-reply),
//! with exponential backoff plus deterministic jitter
//! ([`emod_faults::backoff_delay`]) so a fleet of clients does not
//! resynchronize into retry storms. Semantic errors (`bad_request`, unknown
//! model) are returned to the caller on the first reply.
//!
//! The connection is lazy and re-established per attempt after a transport
//! error, so a server restart between requests is invisible to the caller.
//! Each request leaves in one write on a `TCP_NODELAY` stream (the
//! crate's `wire` module).
//!
//! Overload sheds carry a Retry-After-style `"retry_after_ms"` hint sized
//! to how far past the admission cap the server is; the retry loop folds
//! the hint into its next delay (it becomes the backoff floor, jitter and
//! cap still applied) so a shedding server is not hammered on the
//! client's optimistic local schedule.

use crate::json::Json;
use crate::wire;
use emod_faults as faults;
use emod_telemetry as telemetry;
use std::io::{self, BufRead, BufReader};
use std::net::TcpStream;
use std::time::Duration;

/// Retry schedule: `attempts` total tries, exponential backoff from `base`
/// capped at `max`, with deterministic jitter.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retries).
    pub attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base: Duration,
    /// Upper bound on a single backoff sleep.
    pub max: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(50),
            max: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        }
    }
}

/// Whether an error reply asks to be retried: the explicit `"retryable"`
/// hint, falling back to the code class for replies from older servers.
pub fn is_retryable(resp: &Json) -> bool {
    if resp.get("ok") == Some(&Json::Bool(true)) {
        return false;
    }
    if let Some(r) = resp.get("retryable") {
        return r == &Json::Bool(true);
    }
    matches!(
        resp.get("code").and_then(Json::as_str),
        Some("overloaded" | "internal_error" | "deadline_exceeded")
    )
}

/// The server's Retry-After-style backoff hint on a retryable reply
/// (`"retry_after_ms"` on `overloaded` sheds), as a duration.
pub fn retry_after_hint(resp: &Json) -> Option<Duration> {
    resp.get("retry_after_ms")
        .and_then(Json::as_u64)
        .filter(|&ms| ms > 0)
        .map(Duration::from_millis)
}

/// An open connection: the buffered read half and the write half, kept
/// for the connection's life.
#[derive(Debug)]
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str, timeout: Option<Duration>) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        wire::configure(&stream)?;
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }
}

/// A lazily-connecting, reconnecting, retrying client.
#[derive(Debug)]
pub struct Client {
    addr: String,
    policy: RetryPolicy,
    timeout: Option<Duration>,
    conn: Option<Conn>,
    /// Reused request-line buffer (see `wire::write_line`).
    out: Vec<u8>,
    requests: u64,
}

impl Client {
    /// A client for `addr` with the default [`RetryPolicy`]. No connection
    /// is made until the first request.
    pub fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            policy: RetryPolicy::default(),
            timeout: None,
            conn: None,
            out: Vec::new(),
            requests: 0,
        }
    }

    /// Caps how long one request may block on connecting, writing, or
    /// waiting for the reply. Without it a request to a server whose worker
    /// pool is saturated by other persistent connections blocks forever;
    /// with it the attempt fails (and the policy decides whether to retry).
    /// Open-loop load drivers set this so a starved connection surfaces as
    /// a transport error instead of wedging the whole run.
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = Some(timeout);
        self
    }

    /// Replaces the retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Client {
        self.policy = policy;
        self
    }

    /// Sets the total attempt count, keeping the default backoff.
    pub fn with_attempts(mut self, attempts: u32) -> Client {
        self.policy.attempts = attempts.max(1);
        self
    }

    /// One request/reply exchange on the current connection, no retries.
    fn send_once(&mut self, line: &str) -> io::Result<String> {
        if self.conn.is_none() {
            self.conn = Some(Conn::open(&self.addr, self.timeout)?);
        }
        let conn = self.conn.as_mut().expect("connection just opened");
        wire::write_line(&mut conn.writer, &mut self.out, line)?;
        let mut reply = String::new();
        if conn.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            ));
        }
        Ok(reply)
    }

    /// Sends one request line and returns the parsed reply, retrying
    /// transport failures and `retryable` error replies per the policy.
    /// The last reply (even a retryable error) is returned once attempts
    /// are exhausted; `Err` means no parseable reply was ever received.
    ///
    /// # Errors
    ///
    /// The final transport or parse error when every attempt failed.
    pub fn request(&mut self, line: &str) -> Result<Json, String> {
        self.requests += 1;
        let seed = 0x9e37_79b9_7f4a_7c15u64 ^ self.requests;
        let mut last_err = String::new();
        let mut retry_after: Option<Duration> = None;
        for attempt in 0..self.policy.attempts.max(1) {
            if attempt > 0 {
                telemetry::counter_add("serve.client.retries", 1);
                // A server-supplied Retry-After hint overrides the local
                // schedule's floor: the backoff starts at the hinted delay
                // (still jittered, still capped — a hint can stretch the cap
                // so it is never silently truncated below what the server
                // asked for).
                let (base, max) = match retry_after.take() {
                    Some(hint) => (hint, hint.max(self.policy.max)),
                    None => (self.policy.base, self.policy.max),
                };
                let delay = faults::backoff_delay(attempt - 1, base, max, seed);
                std::thread::sleep(delay);
            }
            match self.send_once(line) {
                Ok(reply) => match Json::parse(reply.trim()) {
                    Ok(resp) => {
                        if is_retryable(&resp) && attempt + 1 < self.policy.attempts {
                            retry_after = retry_after_hint(&resp);
                            last_err = resp
                                .get("error")
                                .and_then(Json::as_str)
                                .unwrap_or("retryable server error")
                                .to_string();
                            continue;
                        }
                        return Ok(resp);
                    }
                    Err(e) => {
                        self.conn = None;
                        last_err = format!("unparseable reply: {}", e);
                    }
                },
                Err(e) => {
                    self.conn = None;
                    last_err = format!("connection: {}", e);
                }
            }
        }
        Err(format!(
            "request failed after {} attempts: {}",
            self.policy.attempts.max(1),
            last_err
        ))
    }

    /// [`Client::request`] for an already-built JSON value.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn request_json(&mut self, req: &Json) -> Result<Json, String> {
        self.request(&req.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_classification() {
        let ok = Json::parse("{\"ok\":true}").unwrap();
        assert!(!is_retryable(&ok));
        let shed =
            Json::parse("{\"ok\":false,\"code\":\"overloaded\",\"retryable\":true}").unwrap();
        assert!(is_retryable(&shed));
        let bad =
            Json::parse("{\"ok\":false,\"code\":\"bad_request\",\"retryable\":false}").unwrap();
        assert!(!is_retryable(&bad));
        // No explicit hint: fall back to the code class.
        let legacy = Json::parse("{\"ok\":false,\"code\":\"internal_error\"}").unwrap();
        assert!(is_retryable(&legacy));
        let legacy_sem = Json::parse("{\"ok\":false,\"error\":\"no such model\"}").unwrap();
        assert!(!is_retryable(&legacy_sem));
    }

    #[test]
    fn request_against_dead_server_reports_last_error() {
        // Port 1 on localhost is essentially never listening.
        let mut c = Client::new("127.0.0.1:1").with_policy(RetryPolicy {
            attempts: 2,
            base: Duration::from_millis(1),
            max: Duration::from_millis(2),
        });
        let err = c.request("{\"cmd\":\"health\"}").unwrap_err();
        assert!(err.contains("after 2 attempts"), "{}", err);
    }

    #[test]
    fn retry_after_hint_extraction() {
        let with_hint = Json::parse(
            "{\"ok\":false,\"code\":\"overloaded\",\"retryable\":true,\"retry_after_ms\":120}",
        )
        .unwrap();
        assert_eq!(
            retry_after_hint(&with_hint),
            Some(Duration::from_millis(120))
        );
        let without =
            Json::parse("{\"ok\":false,\"code\":\"overloaded\",\"retryable\":true}").unwrap();
        assert_eq!(retry_after_hint(&without), None);
        // Zero and non-numeric hints are ignored rather than producing a
        // busy-loop retry.
        let zero = Json::parse("{\"ok\":false,\"retryable\":true,\"retry_after_ms\":0}").unwrap();
        assert_eq!(retry_after_hint(&zero), None);
    }

    #[test]
    fn retry_after_hint_stretches_the_backoff_delay() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut line = String::new();
            // Shed with a 120ms hint, then answer ok.
            reader.read_line(&mut line).unwrap();
            writeln!(
                writer,
                "{{\"ok\":false,\"code\":\"overloaded\",\"retryable\":true,\
                 \"error\":\"busy\",\"retry_after_ms\":120}}"
            )
            .unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            writeln!(writer, "{{\"ok\":true,\"answer\":7}}").unwrap();
        });
        // Local policy would retry after ~1-4ms; the server's hint must
        // stretch the wait to at least 120ms (jitter only adds on top).
        let mut c = Client::new(&addr).with_policy(RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(1),
            max: Duration::from_millis(4),
        });
        let start = std::time::Instant::now();
        let resp = c.request("{\"cmd\":\"health\"}").unwrap();
        let elapsed = start.elapsed();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{}", resp);
        assert!(
            elapsed >= Duration::from_millis(100),
            "hinted retry came back after only {:?}",
            elapsed
        );
        server.join().unwrap();
    }

    #[test]
    fn client_retries_then_succeeds_against_live_listener() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut line = String::new();
            // First request: shed it. Second: answer ok.
            reader.read_line(&mut line).unwrap();
            writeln!(
                writer,
                "{{\"ok\":false,\"code\":\"overloaded\",\"retryable\":true,\"error\":\"busy\"}}"
            )
            .unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            writeln!(writer, "{{\"ok\":true,\"answer\":42}}").unwrap();
        });
        let mut c = Client::new(&addr).with_policy(RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(1),
            max: Duration::from_millis(4),
        });
        let resp = c.request("{\"cmd\":\"health\"}").unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{}", resp);
        assert_eq!(resp.get("answer").and_then(Json::as_u64), Some(42));
        server.join().unwrap();
    }
}
