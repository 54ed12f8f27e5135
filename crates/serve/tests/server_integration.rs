//! End-to-end test: a real TCP server over a temp registry, driven by a
//! plain `TcpStream` client speaking the newline-delimited JSON protocol.
//!
//! The latency tests at the end run against both connection fronts and
//! guard against the Nagle/delayed-ACK write stall: a reply split over two
//! `send`s, or queued behind an un-ACKed segment, arrives about 40 ms late
//! on loopback instead of well under a millisecond.

use emod_core::model::{ModelFamily, SurrogateModel};
use emod_core::vars::{design_space, COMPILER_PARAMS};
use emod_models::{Dataset, Regressor};
use emod_serve::artifact::{ArtifactMeta, ModelArtifact};
use emod_serve::json::Json;
use emod_serve::registry::ModelRegistry;
use emod_serve::server::{Front, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A synthetic artifact over the real 25-parameter design space with a
/// known, tunable response: cycles grow with every coded compiler
/// parameter, so the GA has a clear optimum well below the -O2 point.
fn synthetic_artifact() -> ModelArtifact {
    let space = design_space();
    let mut rng = StdRng::seed_from_u64(42);
    let raw_points = emod_doe::lhs(&space, 80, &mut rng);
    let xs: Vec<Vec<f64>> = raw_points.iter().map(|p| space.encode(p)).collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| {
            let compiler: f64 = x[..COMPILER_PARAMS].iter().sum();
            let machine: f64 = x[COMPILER_PARAMS..].iter().sum();
            5000.0 + 100.0 * compiler - 10.0 * machine
        })
        .collect();
    let train = Dataset::new(xs.clone(), ys.clone()).unwrap();
    let test = Dataset::new(xs[..20].to_vec(), ys[..20].to_vec()).unwrap();
    let model = SurrogateModel::fit(&train, ModelFamily::Linear).unwrap();
    ModelArtifact {
        meta: ArtifactMeta {
            workload: "181.mcf".into(),
            input_set: "train".into(),
            metric: "cycles".into(),
            family: ModelFamily::Linear,
            scale: "quick".into(),
            seed: 9001,
            train_mape: 0.1,
            test_mape: 0.2,
            train_size: 80,
            test_size: 20,
        },
        space,
        model,
        quality: emod_quality::DesignSummary::from_design(&train),
        train,
        test,
        history: vec![(80, 0.2)],
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn request(&mut self, body: &str) -> Json {
        writeln!(self.writer, "{}", body).unwrap();
        self.writer.flush().unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        Json::parse(line.trim()).unwrap()
    }
}

#[test]
fn server_round_trip_over_loopback() {
    let dir = std::env::temp_dir().join(format!("emod-serve-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Arc::new(ModelRegistry::open(&dir).unwrap());
    let art = synthetic_artifact();
    registry.store(&art).unwrap();
    let id = art.id();

    let server = Server::bind(Arc::clone(&registry), "127.0.0.1:0", 2).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(addr);

    // list_models sees the stored artifact with its metadata.
    let listed = client.request("{\"cmd\":\"list_models\"}");
    assert_eq!(listed.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(listed.get("count").and_then(Json::as_u64), Some(1));
    let first = &listed.get("models").and_then(Json::as_array).unwrap()[0];
    assert_eq!(first.get("id").and_then(Json::as_str), Some(id.as_str()));
    assert_eq!(first.get("family").and_then(Json::as_str), Some("linear"));

    // predict_batch: a raw point and the -O2 shorthand, both bit-identical
    // to the in-memory model after the JSON round trip.
    let raw: Vec<f64> = art
        .space
        .parameters()
        .iter()
        .map(|p| p.levels()[0])
        .collect();
    let raw_json = Json::Arr(raw.iter().map(|&v| Json::Num(v)).collect());
    let req = format!(
        "{{\"cmd\":\"predict_batch\",\"model\":\"{}\",\"points\":[{},\"o2@typical\"]}}",
        id, raw_json
    );
    let resp = client.request(&req);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{}", resp);
    let preds = resp.get("predictions").and_then(Json::as_array).unwrap();
    assert_eq!(preds.len(), 2);
    let expected0 = art.model.predict(&art.space.encode(&raw));
    assert_eq!(preds[0].as_f64().unwrap().to_bits(), expected0.to_bits());

    // Selector resolution (no explicit id) + single-point predict agree.
    let by_selector = client.request(
        "{\"cmd\":\"predict\",\"workload\":\"mcf\",\"family\":\"linear\",\"point\":\"o2@typical\"}",
    );
    assert_eq!(
        by_selector.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        by_selector
    );
    assert_eq!(
        by_selector
            .get("prediction")
            .and_then(Json::as_f64)
            .unwrap()
            .to_bits(),
        preds[1].as_f64().unwrap().to_bits()
    );

    // tune: the GA beats the -O2 baseline on this monotone response.
    let tuned = client.request(&format!(
        "{{\"cmd\":\"tune\",\"model\":\"{}\",\"platform\":\"typical\",\"seed\":7}}",
        id
    ));
    assert_eq!(tuned.get("ok"), Some(&Json::Bool(true)), "{}", tuned);
    assert_eq!(tuned.get("improves_over_o2"), Some(&Json::Bool(true)));
    let best = tuned
        .get("predicted_cycles")
        .and_then(Json::as_f64)
        .unwrap();
    let o2 = tuned
        .get("o2_predicted_cycles")
        .and_then(Json::as_f64)
        .unwrap();
    assert!(best < o2, "tuned {} should beat o2 {}", best, o2);
    let flags = tuned.get("flags").unwrap();
    assert!(flags.get("funroll-loops").is_some());

    // tune by selector: the GA "seed" field must not be mistaken for the
    // artifact-selector seed (the stored artifact has seed 9001, not 7).
    let tuned_sel = client.request(
        "{\"cmd\":\"tune\",\"workload\":\"mcf\",\"family\":\"linear\",\"platform\":\"typical\",\"seed\":7}",
    );
    assert_eq!(
        tuned_sel.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        tuned_sel
    );
    assert_eq!(
        tuned_sel.get("model").and_then(Json::as_str),
        Some(id.as_str())
    );

    // Malformed input yields an error response on the same connection.
    let bad = client.request("{\"cmd\":\"predict\",\"model\":\"missing\",\"point\":[1]}");
    assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));

    // stats reflects the traffic so far.
    let stats = client.request("{\"cmd\":\"stats\"}");
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
    let total = stats
        .get("counters")
        .and_then(|c| c.get("serve.requests.total"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(total >= 5, "saw {} requests", total);

    // A second concurrent connection works while the first stays open.
    let mut other = Client::connect(addr);
    let listed2 = other.request("{\"cmd\":\"list_models\"}");
    assert_eq!(listed2.get("ok"), Some(&Json::Bool(true)));

    // shutdown stops the server; run() returns and the thread joins.
    let bye = client.request("{\"cmd\":\"shutdown\"}");
    assert_eq!(bye.get("ok"), Some(&Json::Bool(true)));
    handle.join().unwrap();

    let _ = std::fs::remove_dir_all(dir);
}

/// Unloaded replies must come back well inside this. A stalled reply
/// waits for the peer's delayed ACK (about 40 ms) or for the next request.
const UNSTALLED_MS: f64 = 10.0;

/// Requests per latency test.
const ROUND_TRIPS: usize = 20;

/// A server of one front over a fresh registry holding the synthetic
/// artifact; stopped on drop.
struct LiveServer {
    addr: SocketAddr,
    predict: String,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    dir: PathBuf,
}

impl LiveServer {
    fn start(front: Front, tag: &str) -> LiveServer {
        let dir = std::env::temp_dir().join(format!(
            "emod-serve-latency-{}-{}-{}",
            tag,
            front.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = Arc::new(ModelRegistry::open(&dir).unwrap());
        let art = synthetic_artifact();
        registry.store(&art).unwrap();
        let server = Server::bind(registry, "127.0.0.1:0", 2)
            .unwrap()
            .with_front(front);
        let addr = server.local_addr().unwrap();
        let stop = server.shutdown_handle();
        let handle = std::thread::spawn(move || server.run().unwrap());
        LiveServer {
            addr,
            predict: format!(
                "{{\"cmd\":\"predict\",\"model\":\"{}\",\"point\":\"o2@typical\"}}",
                art.id()
            ),
            stop,
            handle: Some(handle),
            dir,
        }
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let joined = h.join();
            // A second panic while a failed test unwinds would abort.
            if !std::thread::panicking() {
                joined.expect("server thread panicked");
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn median_ms(mut xs: Vec<Duration>) -> f64 {
    xs.sort();
    xs[xs.len() / 2].as_secs_f64() * 1e3
}

/// Sequential predicts through the library client on one connection.
/// With a split request write the server sees the body, waits for the
/// newline, and the newline waits for the server's delayed ACK.
fn client_round_trips_are_not_stalled(front: Front) {
    let server = LiveServer::start(front, "client");
    let mut client = emod_serve::Client::new(&server.addr.to_string()).with_attempts(1);
    // Connect and warm the artifact cache outside the timed loop.
    client.request(&server.predict).unwrap();
    let rtts: Vec<Duration> = (0..ROUND_TRIPS)
        .map(|_| {
            let start = Instant::now();
            let resp = client.request(&server.predict).unwrap();
            let rtt = start.elapsed();
            assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{}", resp);
            rtt
        })
        .collect();
    let median = median_ms(rtts);
    assert!(
        median < UNSTALLED_MS,
        "{} front: median client round trip {:.2} ms",
        front.name(),
        median
    );
}

/// A `TCP_NODELAY` client pipelining one-write requests 20 ms apart, with
/// replies read on a second thread. A stalled reply is held until the
/// next request's segment carries the ACK, about 20 ms later.
fn pipelined_replies_are_not_stalled(front: Front) {
    let server = LiveServer::start(front, "pipelined");
    let mut writer = TcpStream::connect(server.addr).unwrap();
    writer.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    let (sent_tx, sent_rx) = mpsc::channel::<Instant>();
    let reads = std::thread::spawn(move || {
        let mut line = String::new();
        (0..ROUND_TRIPS)
            .map(|_| {
                line.clear();
                reader.read_line(&mut line).unwrap();
                let latency = sent_rx.recv().unwrap().elapsed();
                let resp = Json::parse(line.trim()).unwrap();
                assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{}", resp);
                latency
            })
            .collect::<Vec<Duration>>()
    });
    let request = format!("{}\n", server.predict);
    let start = Instant::now();
    for i in 0..ROUND_TRIPS {
        let due = start + Duration::from_millis(20 * i as u64);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        // Recorded before the write, so the reader always finds it.
        sent_tx.send(Instant::now()).unwrap();
        writer.write_all(request.as_bytes()).unwrap();
    }
    let median = median_ms(reads.join().unwrap());
    assert!(
        median < UNSTALLED_MS,
        "{} front: median pipelined reply latency {:.2} ms",
        front.name(),
        median
    );
}

/// Bursts of pipelined requests, each burst sent in one write. The server
/// answers a burst with several writes; without `TCP_NODELAY` every write
/// after the first waits for the ACK of the one before it. The reactor
/// sometimes answers a burst in one write, so the check counts stalled
/// bursts rather than taking a median.
fn burst_replies_are_not_stalled(front: Front) {
    const BURST: usize = 8;
    let server = LiveServer::start(front, "burst");
    let mut writer = TcpStream::connect(server.addr).unwrap();
    writer.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    let burst = format!("{}\n", server.predict).repeat(BURST);
    let mut line = String::new();
    let times: Vec<Duration> = (0..ROUND_TRIPS)
        .map(|_| {
            let start = Instant::now();
            writer.write_all(burst.as_bytes()).unwrap();
            for _ in 0..BURST {
                line.clear();
                reader.read_line(&mut line).unwrap();
            }
            start.elapsed()
        })
        .collect();
    let stalled = times
        .iter()
        .filter(|t| t.as_secs_f64() * 1e3 >= UNSTALLED_MS)
        .count();
    assert!(
        stalled <= ROUND_TRIPS / 10,
        "{} front: {} of {} bursts took over {} ms: {:?}",
        front.name(),
        stalled,
        ROUND_TRIPS,
        UNSTALLED_MS,
        times
    );
}

#[test]
fn client_round_trips_are_not_stalled_threads_front() {
    client_round_trips_are_not_stalled(Front::Threads);
}

#[test]
fn client_round_trips_are_not_stalled_reactor_front() {
    client_round_trips_are_not_stalled(Front::Reactor);
}

#[test]
fn pipelined_replies_are_not_stalled_threads_front() {
    pipelined_replies_are_not_stalled(Front::Threads);
}

#[test]
fn pipelined_replies_are_not_stalled_reactor_front() {
    pipelined_replies_are_not_stalled(Front::Reactor);
}

#[test]
fn burst_replies_are_not_stalled_threads_front() {
    burst_replies_are_not_stalled(Front::Threads);
}

#[test]
fn burst_replies_are_not_stalled_reactor_front() {
    burst_replies_are_not_stalled(Front::Reactor);
}
