//! `perfbench`: the emod benchmark of record.
//!
//! ```text
//! perfbench --workload campaign|uarch_sweep|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` a run prints every end-to-end metric of the workload;
//! with `--trace 1` it prints the per-layer metrics of a traced run and
//! writes the spans to `.bench_work/trace-<workload>-<seed>-<part>.jsonl`.
//! The last line of standard output is the result object. See `README.md`
//! in this directory.

mod accuracy;
mod campaign;
mod layers;
mod loadgen;
mod report;
mod serve;
mod sweep;
mod trace;

use report::Report;
use std::process::ExitCode;
use std::time::Instant;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The directory holding the built `emod-serve` binary.
    pub bin_dir: std::path::PathBuf,
    /// Scratch directory inside the checkout.
    pub work_dir: std::path::PathBuf,
    /// Process start: time zero of every span.
    pub epoch: Instant,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{} needs a value", flag))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds needs a number")?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace needs 0 or 1".into()),
            },
            other => return Err(format!("unknown option {}", other)),
        }
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        bin_dir: exe.parent().map(|p| p.to_path_buf()).unwrap_or_default(),
        work_dir: std::path::PathBuf::from(".bench_work"),
        epoch: Instant::now(),
    })
}

/// The workloads, in the order traced parts fill in missing metrics.
const WORKLOADS: [&str; 3] = ["campaign", "uarch_sweep", "serve"];

/// Phase-A seconds of the `serve` part of another workload's traced run.
const REDUCED_PHASE_A_S: f64 = 3.0;

/// Adds each crate's self time, summed over its spans, as `<crate>.self_s`.
/// Spans of the benchmark's own structure (passes, replay) are not layers,
/// and neither are `serve` and `quality`, whose calls the generator and the
/// in-process handler spans already time.
fn add_self_times(trace: &trace::Trace, report: &mut Report) {
    const LAYERS: [&str; 7] = [
        "compiler", "isa", "uarch", "core", "doe", "models", "search",
    ];
    let mut by_layer = std::collections::BTreeMap::new();
    for (name, us) in trace.self_us() {
        let layer = name.split('.').next().unwrap_or("");
        if LAYERS.contains(&layer) {
            *by_layer.entry(layer.to_string()).or_insert(0.0) += us;
        }
    }
    for (layer, us) in by_layer {
        report.add(format!("{}.self_s", layer), us / 1e6, "s");
    }
}

/// The programs of a reduced campaign or sweep part: the two that `serve`
/// models, the cheapest to measure.
fn reduced_programs() -> Vec<usize> {
    emod_workloads::Workload::all()
        .iter()
        .enumerate()
        .filter(|(_, w)| serve::PROGRAMS.contains(&w.name()))
        .map(|(i, _)| i)
        .collect()
}

/// The traced run. Its result must hold every per-layer metric, and no
/// single workload calls every layer, so it has one part per workload: the
/// selected workload's part first, at full size, then the other two at
/// reduced size (two programs; a short phase A), which supply only the
/// metrics the parts before them did not measure. Each part writes its own
/// span file.
fn run_traced(args: &Args, report: &mut Report) {
    let mut parts = vec![args.workload.as_str()];
    parts.extend(WORKLOADS.iter().filter(|w| **w != args.workload));
    for (i, part) in parts.into_iter().enumerate() {
        let full = i == 0;
        let programs = if full {
            campaign::all_programs()
        } else {
            reduced_programs()
        };
        let mut r = Report::default();
        let trace = match part {
            "campaign" => Some(campaign::run_traced(args, &programs, &mut r)),
            "uarch_sweep" => Some(sweep::run_traced(args, &programs, &mut r)),
            _ => {
                let a_s = if full {
                    serve::phase_a_seconds(args)
                } else {
                    REDUCED_PHASE_A_S
                };
                serve::run_traced(args, a_s, &mut r)
            }
        };
        if let Some(trace) = trace {
            add_self_times(&trace, &mut r);
            let path = args.work_dir.join(format!(
                "trace-{}-{}-{}.jsonl",
                args.workload, args.seed, part
            ));
            match trace.write_jsonl(&path) {
                Ok(()) => println!("trace {} spans -> {}", trace.spans().len(), path.display()),
                Err(e) => r.check(false, || format!("writing {}: {}", path.display(), e)),
            }
        }
        report.absorb(r);
    }
}

fn main() -> ExitCode {
    // Settings from the caller's shell must not change what is measured.
    let inherited: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("EMOD_"))
        .collect();
    for k in inherited {
        std::env::remove_var(k);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {}", e);
            eprintln!("usage: perfbench --workload campaign|uarch_sweep|serve --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!(
            "perfbench: cannot create {}: {}",
            args.work_dir.display(),
            e
        );
        return ExitCode::from(2);
    }
    let mut report = Report::default();
    println!(
        "host_threads {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    }
    match (args.workload.as_str(), args.trace) {
        (_, true) => run_traced(&args, &mut report),
        ("campaign", false) => campaign::run(&args, &mut report),
        ("uarch_sweep", false) => sweep::run(&args, &mut report),
        _ => serve::run(&args, &mut report),
    }
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
