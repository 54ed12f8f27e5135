//! `serve`: open-loop traffic against the built `emod-serve` binary.
//!
//! Set-up trains linear, MARS and RBF artifacts for two programs into a
//! fresh registry and starts the server with only `--registry` and
//! `--addr`. Phase A offers [`PHASE_A_RATE`] req/s of the seeded mix and
//! reports latency. Phase B, in the traced run only, searches offered rates
//! for the capacity that still meets the [`SLO_MS`] p99 limit with no
//! growing backlog; it is a per-layer figure because on a shared 2-core
//! host it spread by 27–53% of its median from run to run, wider than any
//! bound an end-to-end metric may have.

use crate::accuracy::{self, TUNE_SEED};
use crate::campaign::DESIGN_SEED;
use crate::layers;
use crate::loadgen::{self, Req, Run};
use crate::report::{median, mix, peak_rss_mb, percentile, Digest, Report};
use crate::trace::Trace;
use crate::Args;
use emod_core::{BuildConfig, Metric, ModelBuilder, ModelFamily};
use emod_models::Regressor;
use emod_serve::server::{handle_request, ServerState};
use emod_serve::{Json, ModelArtifact, ModelRegistry};
use emod_workloads::{InputSet, Workload};
use rand::rngs::StdRng;
use rand::Rng;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The programs whose models the registry serves (the two cheapest to
/// measure, so set-up stays short).
pub const PROGRAMS: [&str; 2] = ["164.gzip-graphic", "256.bzip2-graphic"];

/// Latency limit on p99 for the capacity search, in ms.
pub const SLO_MS: f64 = 100.0;

/// Phase-A offered rate, req/s.
pub const PHASE_A_RATE: f64 = 200.0;

/// Times set-up runs in an untraced run (`setup_s` is the median).
const SETUP_PASSES: usize = 3;

/// Unanswered requests are failed this long after a connection's last send.
const GRACE: Duration = Duration::from_secs(1);

/// Length of one capacity probe, seconds.
const PROBE_S: f64 = 0.5;

/// The capacity search starts here and stops doubling above [`MAX_RATE`]
/// (a 0.5 s probe then holds 100k lines).
const SEARCH_START: f64 = 1000.0;
const MAX_RATE: f64 = 200_000.0;

/// Bisection probes after the doubling pass: four narrow a factor-2
/// bracket to a factor 2^(1/16), about 4.4%.
const BISECT: usize = 4;

/// The request mix: command and share of requests. The reads keep the
/// repo's documented load mix `predict=8,predict_batch=1,explain=1` (90%
/// together). `tune` at 2% sends about 40 tunes in a 10 s phase A, enough
/// for a steady median of its per-request figures, while 4 tunes/s of
/// about 4.5 ms each keep the server under 2% of one core, far below
/// capacity. `observe` takes the remaining 8%, an assumed write share (the
/// repo documents none): about one write into the shadow and quality state
/// per eleven reads.
const MIX: [(&str, f64); 5] = [
    ("predict", 0.72),
    ("predict_batch", 0.09),
    ("explain", 0.09),
    ("tune", 0.02),
    ("observe", 0.08),
];

/// Points per `predict_batch` request (`emod-load`'s default).
const BATCH: usize = 8;

/// Phase-A replies checked field by field against in-process handling.
const CHECKED: usize = 64;

/// A running `emod-serve`; dropping it kills the process and waits for it.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The reference models: what `serve` serves and what `uarch_sweep`
/// scores. Ids plus what the request generator draws from.
pub struct Models {
    dir: PathBuf,
    arts: Vec<Arc<ModelArtifact>>,
    /// Instructions simulated while measuring the designs.
    instructions: u64,
    /// Wall seconds of training.
    train_s: f64,
}

impl Models {
    /// The RBF artifacts, one per program.
    pub fn rbf(&self) -> Vec<&ModelArtifact> {
        self.arts
            .iter()
            .filter(|a| a.meta.family == ModelFamily::Rbf)
            .map(|a| a.as_ref())
            .collect()
    }
}

/// Trains linear, MARS and RBF models of [`PROGRAMS`] at the fixed design
/// seed into a fresh registry at `dir`.
pub fn train_registry(dir: &Path) -> Result<Models, String> {
    let start = Instant::now();
    let _ = std::fs::remove_dir_all(dir);
    let registry = ModelRegistry::open(dir).map_err(|e| e.to_string())?;
    let mut ids = Vec::new();
    let mut instructions = 0;
    for (i, name) in PROGRAMS.iter().enumerate() {
        let w = Workload::by_name(name).ok_or_else(|| format!("no workload {}", name))?;
        let seed = mix(DESIGN_SEED, i as u64);
        let mut builder = ModelBuilder::new(w, InputSet::Train, BuildConfig::quick(seed));
        for family in ModelFamily::all() {
            let built = builder.build(family).map_err(|e| e.to_string())?;
            let art =
                ModelArtifact::from_built(&built, InputSet::Train, Metric::Cycles, "quick", seed);
            registry.store(&art).map_err(|e| e.to_string())?;
            ids.push(art.id());
        }
        instructions += builder.measurer_mut().instructions_simulated();
    }
    let train_s = start.elapsed().as_secs_f64();
    let arts = ids
        .iter()
        .map(|id| registry.load(id).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    Ok(Models {
        dir: dir.to_path_buf(),
        arts,
        instructions,
        train_s,
    })
}

fn start_server(args: &Args, registry: &Path, log: &Path) -> Result<Server, String> {
    let port = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map_err(|e| e.to_string())?
        .port();
    let addr: SocketAddr = ([127, 0, 0, 1], port).into();
    let log = std::fs::File::create(log).map_err(|e| e.to_string())?;
    let child = Command::new(args.bin_dir.join("emod-serve"))
        .arg("--registry")
        .arg(registry)
        .arg("--addr")
        .arg(addr.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("starting emod-serve: {}", e))?;
    let mut server = Server { child, addr };
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(Some(status)) = server.child.try_wait() {
            return Err(format!("emod-serve exited during start-up: {}", status));
        }
        if let Ok(mut s) = TcpStream::connect(addr) {
            s.set_read_timeout(Some(Duration::from_secs(5)))
                .map_err(|e| e.to_string())?;
            s.write_all(b"{\"cmd\":\"health\"}\n")
                .map_err(|e| e.to_string())?;
            let mut line = String::new();
            BufReader::new(s)
                .read_line(&mut line)
                .map_err(|e| e.to_string())?;
            if line.starts_with("{\"ok\":true") {
                return Ok(server);
            }
            return Err(format!(
                "emod-serve health check answered {:?}",
                line.trim()
            ));
        }
        if Instant::now() > deadline {
            server.child.kill().ok();
            return Err("emod-serve did not accept connections within 20 s".into());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One set-up pass: reference checks of the served programs, registry
/// training, server start. Returns the pass's wall seconds.
fn setup_pass(args: &Args, i: usize, report: &mut Report) -> Result<(f64, Models, Server), String> {
    let start = Instant::now();
    let programs: Vec<&'static Workload> = PROGRAMS
        .iter()
        .filter_map(|n| Workload::by_name(n))
        .collect();
    layers::reference_pass(&programs, report);
    let dir = args.work_dir.join(format!("serve-{}", i));
    let models = train_registry(&dir.join("registry"))?;
    let server = start_server(args, &models.dir, &dir.join("server.log"))?;
    Ok((start.elapsed().as_secs_f64(), models, server))
}

fn point_json(p: &[f64]) -> String {
    let items: Vec<String> = p.iter().map(|v| format!("{}", v)).collect();
    format!("[{}]", items.join(","))
}

/// Seeded request lines drawn from the mix.
fn request(models: &Models, rng: &mut StdRng) -> (usize, String) {
    let art = &models.arts[rng.gen_range(0..models.arts.len())];
    let id = art.id();
    let mut u: f64 = rng.gen::<f64>();
    let mut cmd = MIX.len() - 1;
    for (i, (_, share)) in MIX.iter().enumerate() {
        if u < *share {
            cmd = i;
            break;
        }
        u -= share;
    }
    let line = match MIX[cmd].0 {
        "predict" | "explain" => format!(
            "{{\"cmd\":\"{}\",\"model\":\"{}\",\"point\":{}}}",
            MIX[cmd].0,
            id,
            point_json(&art.space.random_point(rng))
        ),
        "predict_batch" => {
            let pts: Vec<String> = (0..BATCH)
                .map(|_| point_json(&art.space.random_point(rng)))
                .collect();
            format!(
                "{{\"cmd\":\"predict_batch\",\"model\":\"{}\",\"points\":[{}]}}",
                id,
                pts.join(",")
            )
        }
        "tune" => format!(
            "{{\"cmd\":\"tune\",\"model\":\"{}\",\"platform\":\"typical\",\"seed\":{}}}",
            id,
            rng.gen_range(1..=8u64)
        ),
        _ => {
            // Ground truth from the artifact's own measured test design.
            let j = rng.gen_range(0..art.test.len());
            let (coded, measured) = art.test.sample(j);
            format!(
                "{{\"cmd\":\"observe\",\"model\":\"{}\",\"point\":{},\"measured\":{}}}",
                id,
                point_json(&art.space.decode(coded)),
                measured
            )
        }
    };
    (cmd, line)
}

fn schedule(models: &Models, rate: f64, seconds: f64, seed: u64) -> Vec<Req> {
    let mut arrivals = loadgen::rng(mix(seed, 1));
    let mut lines = loadgen::rng(mix(seed, 2));
    loadgen::poisson(rate, seconds, &mut arrivals)
        .into_iter()
        .map(|at| {
            let (cmd, line) = request(models, &mut lines);
            Req {
                at,
                line: line + "\n",
                cmd,
            }
        })
        .collect()
}

/// The deterministic part of a reply: the model's answers, without the
/// fields that depend on request order (shadow counters, pairing).
fn projection(cmd: &str, reply: &str) -> String {
    let Ok(v) = Json::parse(reply) else {
        return format!("unparseable:{}", reply);
    };
    let keys: &[&str] = match cmd {
        "predict" => &["ok", "model", "prediction", "quality"],
        "predict_batch" => &["ok", "model", "predictions"],
        "explain" => &[
            "ok",
            "model",
            "prediction",
            "reconstruction",
            "attributions",
            "quality",
        ],
        "tune" => &[
            "ok",
            "model",
            "point",
            "predicted_cycles",
            "o2_predicted_cycles",
        ],
        _ => &["ok", "model", "predicted", "measured"],
    };
    keys.iter()
        .map(|k| v.get(k).map(|x| x.to_string()).unwrap_or_default())
        .collect::<Vec<_>>()
        .join("|")
}

fn digest(reqs: &[Req], run: &Run) -> Digest {
    let mut d = Digest::default();
    for (r, o) in reqs.iter().zip(&run.outcomes) {
        d.bytes(projection(MIX[r.cmd].0, o.reply.as_deref().unwrap_or("")).as_bytes());
    }
    d
}

/// Latencies from the scheduled send in ms, failures counted as the
/// longest a request can wait before it is given up.
fn latencies(reqs: &[Req], run: &Run, seconds: f64) -> Vec<f64> {
    let cap = (seconds + GRACE.as_secs_f64()) * 1e3;
    let mut l: Vec<f64> = (0..reqs.len())
        .map(|i| run.latency_ms(reqs, i).unwrap_or(cap))
        .collect();
    l.sort_by(f64::total_cmp);
    l
}

/// One capacity probe: does `rate` meet the SLO without a growing backlog?
fn probe(server: &Server, models: &Models, rate: f64, seed: u64) -> Result<bool, String> {
    let reqs = schedule(models, rate, PROBE_S, seed);
    let run = loadgen::run(server.addr, &reqs, GRACE, false).map_err(|e| e.to_string())?;
    let lat = latencies(&reqs, &run, PROBE_S);
    let p99 = percentile(&lat, 0.99);
    let in_order: Vec<f64> = (0..reqs.len())
        .map(|i| run.latency_ms(&reqs, i).unwrap_or(f64::INFINITY))
        .collect();
    let q = (in_order.len() / 4).max(1);
    let growing = median(&in_order[in_order.len() - q..]) > median(&in_order[..q]) + SLO_MS / 4.0;
    let ok = run.failed() == 0 && p99 <= SLO_MS && !growing;
    let idle = wait_idle(server);
    println!(
        "probe rate {:>8.0} req/s  n {:>6}  p99 {:>8.2} ms  failed {:>4}  growing {:<5}  lateness_p99 {:>7.2} ms  drain {:>5.2} s  -> {}",
        rate,
        reqs.len(),
        p99,
        run.failed(),
        growing,
        percentile(&sorted(run.lateness_ms(&reqs)), 0.99),
        idle,
        if ok { "meets" } else { "misses" }
    );
    Ok(ok)
}

/// CPU time the server process has used, in clock ticks.
fn cpu_ticks(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{}/stat", pid)).ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
}

/// Waits until the server has drained what an overloaded probe left
/// queued (at most one clock tick of CPU in 100 ms, or 10 s), so the next
/// probe starts against an idle server. Returns the seconds waited.
fn wait_idle(server: &Server) -> f64 {
    let start = Instant::now();
    let mut last = cpu_ticks(server.child.id());
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let now = cpu_ticks(server.child.id());
        match (last, now) {
            (Some(a), Some(b)) if b > a + 1 && start.elapsed() < Duration::from_secs(10) => {
                last = now
            }
            _ => return start.elapsed().as_secs_f64(),
        }
    }
}

/// Phase B. Doubles the offered rate from [`SEARCH_START`] until a rate
/// misses (or halves it until one meets, stopping below the phase-A rate),
/// then bisects geometrically [`BISECT`] times between the highest rate
/// that met and the lowest that missed. Capacity is the highest rate that
/// met, 0 when none did.
fn capacity(server: &Server, models: &Models, seed: u64) -> Result<f64, String> {
    let mut n = 0u64;
    let mut meets = |rate: f64| {
        n += 1;
        probe(server, models, rate, mix(seed, 1000 + n))
    };
    let (mut lo, mut hi) = (0.0, f64::INFINITY);
    let mut rate = SEARCH_START;
    while (lo == 0.0 || hi.is_infinite()) && (PHASE_A_RATE..=MAX_RATE).contains(&rate) {
        if meets(rate)? {
            lo = rate;
            rate *= 2.0;
        } else {
            hi = rate;
            rate /= 2.0;
        }
    }
    if lo > 0.0 && hi.is_finite() {
        for _ in 0..BISECT {
            let mid = (lo * hi).sqrt();
            if meets(mid)? {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    Ok(lo)
}

/// Compares a seeded sample of phase-A replies with `handle_request` on
/// the same lines in this process.
fn check_in_process(models: &Models, reqs: &[Req], run: &Run, seed: u64, report: &mut Report) {
    let registry = match ModelRegistry::open(&models.dir) {
        Ok(r) => Arc::new(r),
        Err(e) => return report.check(false, || format!("opening registry: {}", e)),
    };
    let state = ServerState::new(registry, Arc::new(AtomicBool::new(false)));
    let mut idx: Vec<usize> = (0..reqs.len()).collect();
    idx.sort_by_key(|&i| mix(seed, 5000 + i as u64));
    idx.truncate(CHECKED);
    idx.sort_unstable();
    for i in idx {
        let cmd = MIX[reqs[i].cmd].0;
        let (local, _) = handle_request(&state, reqs[i].line.trim_end());
        let want = projection(cmd, &local.to_string());
        let got = projection(cmd, run.outcomes[i].reply.as_deref().unwrap_or(""));
        report.check(got == want, || {
            format!(
                "request {} ({}): server answered {} but in-process {}",
                i, cmd, got, want
            )
        });
    }
}

/// Phase A: the fixed-rate run.
fn phase_a(
    server: &Server,
    models: &Models,
    seed: u64,
    seconds: f64,
) -> Result<(Vec<Req>, Run), String> {
    let reqs = schedule(models, PHASE_A_RATE, seconds, seed);
    let run = loadgen::run(server.addr, &reqs, GRACE, true).map_err(|e| e.to_string())?;
    Ok((reqs, run))
}

/// Phase-A length of the untraced run and of a traced run of `serve`.
pub fn phase_a_seconds(args: &Args) -> f64 {
    // At least 1,100 samples, so p99 has ten or more beyond it.
    args.seconds.max(5.5)
}

/// Sends one request line on a fresh connection and returns the reply.
fn ask(addr: SocketAddr, line: &str) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    s.write_all(format!("{}\n", line).as_bytes())
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    BufReader::new(s)
        .read_line(&mut reply)
        .map_err(|e| e.to_string())?;
    Ok(reply)
}

/// The accuracy of the served answers: the RBF models' held-out error, and
/// the flags the server's `tune` returns for each RBF model on the typical
/// platform, checked against the same search in-process and measured
/// against -O2.
fn served_accuracy(
    server: &Server,
    models: &Models,
    report: &mut Report,
) -> (f64, Vec<accuracy::Tuned>) {
    let rbf = models.rbf();
    let (holdout, tuned) = accuracy::score_models(&rbf, report);
    for (art, t) in rbf.iter().zip(&tuned) {
        let line = format!(
            "{{\"cmd\":\"tune\",\"model\":\"{}\",\"platform\":\"typical\",\"seed\":{}}}",
            art.id(),
            TUNE_SEED
        );
        let served: Option<Vec<f64>> = ask(server.addr, &line).ok().and_then(|r| {
            Json::parse(r.trim_end()).ok().and_then(|v| {
                v.get("point")
                    .and_then(Json::as_array)
                    .map(|a| a.iter().filter_map(Json::as_f64).collect())
            })
        });
        report.check(served.as_deref() == Some(&t.point[..]), || {
            format!(
                "{}: served tune point {:?} != in-process {:?}",
                art.id(),
                served,
                t.point
            )
        });
    }
    (holdout, tuned)
}

/// End-to-end metrics of an untraced run.
pub fn run(args: &Args, report: &mut Report) {
    if let Err(e) = run_plain(args, report) {
        report.check(false, || format!("serve: {}", e));
    }
}

/// Per-layer metrics of a traced run with a phase A of `a_s` seconds.
pub fn run_traced(args: &Args, a_s: f64, report: &mut Report) -> Option<Trace> {
    traced(args, a_s, report).unwrap_or_else(|e| {
        report.check(false, || format!("serve: {}", e));
        None
    })
}

fn run_plain(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut setup = Vec::new();
    let mut rates = Vec::new();
    let mut last = None;
    for i in 0..SETUP_PASSES {
        let (secs, models, server) = setup_pass(args, i, report)?;
        setup.push(secs);
        rates.push(models.instructions as f64 / 1e6 / models.train_s);
        last = Some((models, server)); // drops (stops) the previous server
    }
    let (models, server) = last.expect("at least one set-up pass");
    let a_s = phase_a_seconds(args);
    let (reqs, run) = phase_a(&server, &models, args.seed, a_s)?;
    let lat = latencies(&reqs, &run, a_s);
    report.attempted = reqs.len() as u64;
    report.failed = run.failed() as u64;
    println!("digest serve {}", digest(&reqs, &run).hex());
    println!(
        "phase_a rate {} req/s  samples {}  lateness_p99 {:.3} ms",
        PHASE_A_RATE,
        reqs.len(),
        percentile(&sorted(run.lateness_ms(&reqs)), 0.99)
    );
    let wall_s = run
        .outcomes
        .iter()
        .filter_map(|o| o.recv)
        .max()
        .map_or(f64::NAN, |t| t.duration_since(run.start).as_secs_f64());
    let rss = peak_rss_mb(Some(server.child.id()));
    let (holdout, tuned) = served_accuracy(&server, &models, report);
    drop(server);
    check_in_process(&models, &reqs, &run, args.seed, report);
    let mut off = Trace::new(false, args.epoch, 0);
    let points = accuracy::typical_points(&tuned, true);
    let refs = accuracy::detailed_refs(&points, false, &mut off, report);
    report.add("setup_s", median(&setup), "s");
    report.add("wall_s", wall_s, "s");
    report.add("sim_minst_per_s", median(&rates), "Minst/s");
    report.add("holdout_mape_pct", holdout, "%");
    report.add(
        "tuned_speedup_pct",
        accuracy::tuned_speedup_pct(&tuned),
        "%",
    );
    report.add("sample_err_pct", accuracy::sample_err_pct(&refs), "%");
    report.add("p50_ms", percentile(&lat, 0.50), "ms");
    report.add("p99_ms", percentile(&lat, 0.99), "ms");
    report.add("peak_rss_mb", rss, "MiB");
    Ok(())
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Per-layer metrics: phase A of `a_s` seconds untraced and traced
/// (digests must agree), the phase-B capacity search, spans from the
/// generator's timestamps, and the same request lines handled and encoded
/// in-process under spans.
fn traced(args: &Args, a_s: f64, report: &mut Report) -> Result<Option<Trace>, String> {
    let (_, models, server) = setup_pass(args, 0, report)?;
    let (reqs0, run0) = phase_a(&server, &models, args.seed, a_s)?;
    let (reqs, run) = phase_a(&server, &models, args.seed, a_s)?;
    let cap = capacity(&server, &models, args.seed)?;
    drop(server);
    println!(
        "phase_a p50 {:.3} ms untraced, {:.3} ms traced",
        percentile(&latencies(&reqs0, &run0, a_s), 0.5),
        percentile(&latencies(&reqs, &run, a_s), 0.5)
    );
    let (d0, d1) = (digest(&reqs0, &run0), digest(&reqs, &run));
    report.check(d0.hex() == d1.hex(), || {
        format!("traced digest {} != untraced digest {}", d1.hex(), d0.hex())
    });
    println!("digest serve {}", d1.hex());
    report.attempted = reqs.len() as u64;
    report.failed = run.failed() as u64;

    // Generator spans: request (scheduled send -> reply) with the service
    // part (actual send -> reply) as its child.
    let mut trace = Trace::new(true, args.epoch, mix(args.seed, 79));
    let record_start = Instant::now();
    let mut service = vec![f64::NAN; reqs.len()];
    let mut latency = vec![f64::NAN; reqs.len()];
    for (i, (r, o)) in reqs.iter().zip(&run.outcomes).enumerate() {
        if let (Some(sent), Some(recv)) = (o.sent, o.recv) {
            let due = run.due(&reqs, i);
            let parent = trace.record("load.request", i as u64, due, recv, None);
            trace.record(
                &format!("serve.service.{}", MIX[r.cmd].0),
                i as u64,
                sent,
                recv,
                Some(parent),
            );
            service[i] = recv.duration_since(sent).as_secs_f64() * 1e3;
            latency[i] = recv.duration_since(due).as_secs_f64() * 1e3;
        }
    }
    let record_s = record_start.elapsed().as_secs_f64();

    // The same lines in-process: handle, then encode, under spans.
    let registry = Arc::new(ModelRegistry::open(&models.dir).map_err(|e| e.to_string())?);
    let state = ServerState::new(registry, Arc::new(AtomicBool::new(false)));
    let mut handle_us = vec![0.0; reqs.len()];
    let mut encode_us = vec![0.0; reqs.len()];
    trace.span("inproc", 0, |tr| {
        for (i, r) in reqs.iter().enumerate() {
            let t = Instant::now();
            let (resp, _) = tr.span("serve.handle_request", i as u64, |_| {
                handle_request(&state, r.line.trim_end())
            });
            handle_us[i] = t.elapsed().as_secs_f64() * 1e6;
            let t = Instant::now();
            let text = tr.span("serve.encode", i as u64, |_| resp.to_string());
            encode_us[i] = t.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(text);
        }
    });
    // Model and quality layers on the single-predict points.
    let mut predict_us = Vec::new();
    let mut extrap_us = Vec::new();
    for (i, r) in reqs
        .iter()
        .enumerate()
        .filter(|(_, r)| MIX[r.cmd].0 == "predict")
    {
        let Ok(v) = Json::parse(r.line.trim_end()) else {
            continue;
        };
        let id = v.get("model").and_then(Json::as_str).unwrap_or("");
        let Some(art) = models.arts.iter().find(|a| a.id() == id) else {
            continue;
        };
        let raw: Vec<f64> = v
            .get("point")
            .and_then(Json::as_array)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default();
        let coded = art.space.encode(&raw);
        let t = Instant::now();
        trace.span("models.predict", i as u64, |_| {
            std::hint::black_box(art.model.predict(&coded))
        });
        predict_us.push(t.elapsed().as_secs_f64() * 1e6);
        if let Some(q) = &art.quality {
            let t = Instant::now();
            trace.span("quality.extrapolation", i as u64, |_| {
                std::hint::black_box(q.extrapolation(art.train.points(), &coded))
            });
            extrap_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }

    for (c, (name, _)) in MIX.iter().enumerate() {
        let of = |v: &[f64]| -> Vec<f64> {
            reqs.iter()
                .zip(v)
                .filter(|(r, x)| r.cmd == c && x.is_finite())
                .map(|(_, &x)| x)
                .collect()
        };
        report.add(
            format!("serve.handle_us.{}", name),
            median(&of(&handle_us)),
            "us",
        );
        report.add(
            format!("serve.service_ms.{}", name),
            median(&of(&service)),
            "ms",
        );
    }
    report.add("serve.encode_us", median(&encode_us), "us");
    let front: Vec<f64> = (0..reqs.len())
        .filter(|&i| service[i].is_finite())
        .map(|i| service[i] - (handle_us[i] + encode_us[i]) / 1e3)
        .collect();
    let queue: Vec<f64> = (0..reqs.len())
        .filter(|&i| service[i].is_finite())
        .map(|i| latency[i] - service[i])
        .collect();
    report.add("serve.front_ms", median(&front), "ms");
    report.add("serve.queue_ms", median(&queue), "ms");
    report.add("models.predict_us", median(&predict_us), "us");
    report.add("quality.extrapolation_us", median(&extrap_us), "us");
    report.add(
        "load.lateness_p99_ms",
        percentile(&sorted(run.lateness_ms(&reqs)), 0.99),
        "ms",
    );
    report.add(
        "load.p50_ms",
        percentile(&sorted(latency.clone()), 0.5),
        "ms",
    );
    report.add("load.capacity_rps", cap, "req/s");
    report.add("trace.overhead_pct", 100.0 * record_s / a_s, "%");
    Ok(Some(trace))
}
