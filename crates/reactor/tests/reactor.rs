//! End-to-end poller exercises over real sockets (Linux only — the CI and
//! dev targets; other platforms stub the poller out).

#![cfg(target_os = "linux")]

use emod_reactor::{default_poller, Event, Interest, Poller, Waker};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

fn wait_for(
    poller: &mut impl Poller,
    events: &mut Vec<Event>,
    token: u64,
    timeout: Duration,
) -> Option<Event> {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        poller
            .poll(events, Some(Duration::from_millis(50)))
            .expect("poll");
        if let Some(ev) = events.iter().find(|e| e.token == token) {
            return Some(*ev);
        }
    }
    None
}

#[test]
fn accept_readiness_fires_on_connect() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap();
    let mut poller = default_poller().unwrap();
    poller
        .register(listener.as_raw_fd(), 7, Interest::READ)
        .unwrap();
    let mut events = Vec::new();
    // Nothing pending yet: a short poll returns without the token.
    poller
        .poll(&mut events, Some(Duration::from_millis(10)))
        .unwrap();
    assert!(events.iter().all(|e| e.token != 7));
    let _client = TcpStream::connect(addr).unwrap();
    let ev = wait_for(&mut poller, &mut events, 7, Duration::from_secs(5))
        .expect("listener became readable");
    assert!(ev.readable);
    let (stream, _) = listener.accept().unwrap();
    drop(stream);
}

#[test]
fn data_and_hangup_are_reported() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut client = TcpStream::connect(addr).unwrap();
    let (server, _) = listener.accept().unwrap();
    server.set_nonblocking(true).unwrap();

    let mut poller = default_poller().unwrap();
    poller
        .register(server.as_raw_fd(), 42, Interest::READ)
        .unwrap();
    let mut events = Vec::new();

    client.write_all(b"{\"cmd\":\"health\"}\n").unwrap();
    let ev =
        wait_for(&mut poller, &mut events, 42, Duration::from_secs(5)).expect("data readiness");
    assert!(ev.readable);
    let mut buf = [0u8; 64];
    let n = (&server).read(&mut buf).unwrap();
    assert_eq!(&buf[..n], b"{\"cmd\":\"health\"}\n");

    drop(client);
    let ev =
        wait_for(&mut poller, &mut events, 42, Duration::from_secs(5)).expect("hangup readiness");
    // Peer close surfaces as readable (read returns 0) and/or hangup.
    assert!(ev.readable || ev.hangup);
    assert_eq!((&server).read(&mut buf).unwrap(), 0);
}

#[test]
fn reregister_toggles_writable_interest() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let _client = TcpStream::connect(addr).unwrap();
    let (server, _) = listener.accept().unwrap();
    server.set_nonblocking(true).unwrap();

    let mut poller = default_poller().unwrap();
    poller
        .register(server.as_raw_fd(), 1, Interest::READ)
        .unwrap();
    let mut events = Vec::new();
    poller
        .poll(&mut events, Some(Duration::from_millis(20)))
        .unwrap();
    assert!(events.iter().all(|e| !e.writable));

    // An idle socket with writable interest reports writable immediately.
    poller
        .reregister(server.as_raw_fd(), 1, Interest::READ_WRITE)
        .unwrap();
    let ev =
        wait_for(&mut poller, &mut events, 1, Duration::from_secs(5)).expect("writable readiness");
    assert!(ev.writable);

    poller.deregister(server.as_raw_fd()).unwrap();
    poller
        .poll(&mut events, Some(Duration::from_millis(20)))
        .unwrap();
    assert!(events.is_empty());
}

#[test]
fn waker_interrupts_a_blocked_poll() {
    let mut poller = default_poller().unwrap();
    let waker = Waker::new().unwrap();
    poller.register(waker.fd(), 999, Interest::READ).unwrap();
    let remote = waker.clone();
    let handle = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        remote.wake();
        remote.wake(); // a burst collapses into one readable notification
    });
    let mut events = Vec::new();
    let start = Instant::now();
    let ev =
        wait_for(&mut poller, &mut events, 999, Duration::from_secs(5)).expect("waker readiness");
    assert!(ev.readable);
    assert!(start.elapsed() < Duration::from_secs(4));
    // Join first: the thread's second wake() must land before the drain,
    // or it re-arms the waker after it.
    handle.join().unwrap();
    waker.drain();
    // After draining, the waker token goes quiet again.
    poller
        .poll(&mut events, Some(Duration::from_millis(20)))
        .unwrap();
    assert!(events.iter().all(|e| e.token != 999));
}
