//! The benchmark's own open-loop load generator.
//!
//! Requests follow a seeded Poisson schedule, round-robin over two
//! connections, one thread each (the calling thread drives connection 0).
//! Each request line goes out in one `write` on a `TCP_NODELAY` socket, as
//! soon as it is due, whether or not earlier replies have arrived
//! (pipelining). Latency counts from the scheduled send instant, so a stall
//! also delays the requests queued behind it; how late the generator itself
//! sent is reported separately. Replies are matched in order per
//! connection. Whatever is unanswered a fixed grace period after a
//! connection's last send counts as failed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Connections (and threads) the generator uses.
pub const CONNECTIONS: usize = 2;

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Req {
    /// Send offset from the run's start.
    pub at: Duration,
    /// The request line, newline included.
    pub line: String,
    /// Index into the command table of the caller.
    pub cmd: usize,
}

/// How one request went.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub sent: Option<Instant>,
    pub recv: Option<Instant>,
    /// The reply line, kept only when asked for.
    pub reply: Option<String>,
    /// Whether the reply carried `"ok":true`.
    pub ok: bool,
}

/// One run of a schedule.
#[derive(Debug)]
pub struct Run {
    /// Time zero of the schedule.
    pub start: Instant,
    pub outcomes: Vec<Outcome>,
}

impl Run {
    /// Scheduled send instant of request `i`.
    pub fn due(&self, reqs: &[Req], i: usize) -> Instant {
        self.start + reqs[i].at
    }

    /// Latency from the scheduled send, in ms; `None` if unanswered or not ok.
    pub fn latency_ms(&self, reqs: &[Req], i: usize) -> Option<f64> {
        let o = &self.outcomes[i];
        match (o.recv, o.ok) {
            (Some(r), true) => Some(r.duration_since(self.due(reqs, i)).as_secs_f64() * 1e3),
            _ => None,
        }
    }

    /// How late each request was sent after its scheduled instant, in ms.
    pub fn lateness_ms(&self, reqs: &[Req]) -> Vec<f64> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| {
                o.sent
                    .map(|s| s.duration_since(self.due(reqs, i)).as_secs_f64() * 1e3)
            })
            .collect()
    }

    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.ok).count()
    }
}

/// Seeded Poisson arrival offsets at `rate` per second over `seconds`.
pub fn poisson(rate: f64, seconds: f64, rng: &mut StdRng) -> Vec<Duration> {
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen::<f64>();
        t += -(1.0 - u).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Waits until `stream` has data or `timeout` passes. `ppoll` sleeps on a
/// high-resolution timer; a socket read timeout would round up to the
/// kernel tick and send requests milliseconds late.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    use std::os::unix::io::AsRawFd;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: 0x1, // POLLIN
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: one valid pollfd, a valid timespec, no signal mask.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    n > 0
}

/// Drives one connection through its share of the schedule.
fn drive_one(
    mut stream: TcpStream,
    reqs: &[Req],
    mine: &[usize],
    start: Instant,
    grace: Duration,
    keep: bool,
) -> Vec<(usize, Outcome)> {
    let mut out: Vec<(usize, Outcome)> = mine.iter().map(|&i| (i, Outcome::default())).collect();
    let Some(&last) = mine.last() else {
        return out;
    };
    let give_up = start + reqs[last].at + grace;
    let mut next = 0;
    let mut answered = 0;
    let mut pending: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    while answered < mine.len() {
        let now = Instant::now();
        if next < mine.len() && now >= start + reqs[mine[next]].at {
            out[next].1.sent = Some(Instant::now());
            if stream.write_all(reqs[mine[next]].line.as_bytes()).is_err() {
                break;
            }
            next += 1;
            continue;
        }
        let wake = if next < mine.len() {
            start + reqs[mine[next]].at
        } else if now >= give_up {
            break;
        } else {
            give_up
        };
        if !wait_readable(&stream, wake.saturating_duration_since(now)) {
            continue;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let t = Instant::now();
                pending.extend_from_slice(&chunk[..n]);
                while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = pending.drain(..=pos).collect();
                    if answered < next {
                        let o = &mut out[answered].1;
                        o.recv = Some(t);
                        let text = String::from_utf8_lossy(&line[..line.len() - 1]);
                        o.ok = text.starts_with("{\"ok\":true");
                        if keep {
                            o.reply = Some(text.into_owned());
                        }
                        answered += 1;
                    }
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => break,
        }
    }
    out
}

/// Runs `reqs` against `addr` over [`CONNECTIONS`] connections, starting
/// 20 ms after both have connected. Request `i` goes to connection
/// `i % CONNECTIONS`.
pub fn run(addr: SocketAddr, reqs: &[Req], grace: Duration, keep: bool) -> std::io::Result<Run> {
    let mut streams = Vec::new();
    for _ in 0..CONNECTIONS {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        streams.push(s);
    }
    let shares: Vec<Vec<usize>> = (0..CONNECTIONS)
        .map(|c| (c..reqs.len()).step_by(CONNECTIONS).collect())
        .collect();
    let start = Instant::now() + Duration::from_millis(20);
    let mut outcomes = vec![Outcome::default(); reqs.len()];
    let mut streams = streams.into_iter();
    let first = streams.next().expect("a connection");
    let second = streams.next().expect("a second connection");
    let (a, b) = std::thread::scope(|s| {
        let other = s.spawn(|| drive_one(second, reqs, &shares[1], start, grace, keep));
        let mine = drive_one(first, reqs, &shares[0], start, grace, keep);
        (mine, other.join().expect("load generator thread"))
    });
    for (i, o) in a.into_iter().chain(b) {
        outcomes[i] = o;
    }
    Ok(Run { start, outcomes })
}
