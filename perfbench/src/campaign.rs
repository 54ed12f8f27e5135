//! `campaign`: the paper's Figure 1 loop on all seven programs — D-optimal
//! train and test designs, measurement through `Measurer`, fits of all
//! three model families, GA tuning on the RBF model for the typical
//! platform and the measured speedup of the tuned flags over -O2.

use crate::accuracy::{self, Tuned};
use crate::layers::{self, Probe};
use crate::report::{item_best, mean, median, mix, peak_rss_mb, percentile, Digest, Report};
use crate::trace::Trace;
use crate::Args;
use emod_compiler::OptConfig;
use emod_core::measure::BatchRetry;
use emod_core::tune::{evaluate_speedup, search_flags_surrogate};
use emod_core::{
    decode_point, design_space, BuildConfig, Measurer, Metric, ModelFamily, SurrogateModel,
};
use emod_doe::{lhs, DOptimal, ModelSpec};
use emod_models::{metrics, Dataset, Regressor};
use emod_uarch::UarchConfig;
use emod_workloads::{InputSet, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Retries per failing point before it is quarantined (the builder's
/// default).
const RETRIES: u32 = 2;

/// Seed of the train and test designs, drawn as `ModelBuilder` draws them.
/// It is fixed so that model quality measures the code rather than the luck
/// of one draw: with 30 training and 12 test points, a program's RBF test
/// error swings between 10% and 60% from draw to draw. The workload seed
/// drives the GA.
pub const DESIGN_SEED: u64 = 2007;

/// Metric-name slugs of `ModelFamily::all()`, in its order.
const FAMILIES: [&str; 3] = ["linear", "mars", "rbf"];

/// The traced run replays one in this many measured configurations.
const REPLAY_EVERY: u64 = 8;

/// What one program's loop produced.
struct ProgramRun {
    /// Wall time of the whole loop for this program.
    loop_ms: f64,
    rbf_mape: f64,
    mape: [f64; 3],
    fit_ms: [f64; 3],
    predict_us: f64,
    tune_ms: f64,
    tuned: Option<Tuned>,
    model_gap_pct: f64,
    instructions: u64,
    simulations: u64,
    warnings: u64,
    threads: usize,
    attempted: u64,
    failed: u64,
    measure_s: f64,
    design_ms: f64,
    probes: Vec<Probe>,
}

/// Everything one pass over the seven programs produced.
pub struct Pass {
    wall_s: f64,
    digest: Digest,
    runs: Vec<ProgramRun>,
}

fn run_program(
    w: &'static Workload,
    index: usize,
    seed: u64,
    trace: &mut Trace,
    digest: &mut Digest,
    report: &mut Report,
) -> ProgramRun {
    let loop_start = Instant::now();
    let cfg = BuildConfig::quick(seed);
    let space = design_space();
    let key = index as u64;
    let t = Instant::now();
    let (train_points, test_points) = trace.span("doe.design", key, |tr| {
        let mut rng = StdRng::seed_from_u64(mix(DESIGN_SEED, key));
        let candidates = tr.span("doe.lhs", key, |_| lhs(&space, cfg.candidates, &mut rng));
        let dopt = DOptimal::new(&space, ModelSpec::main_effects());
        let train = tr.span("doe.select", key, |_| {
            dopt.select(&candidates, cfg.train_size, &mut rng)
        });
        let test = tr.span("doe.lhs", key, |_| lhs(&space, cfg.test_size, &mut rng));
        (train, test)
    });
    let design_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut measurer = Measurer::new(w, InputSet::Train, cfg.sample);
    let retry = BatchRetry::campaign(RETRIES, seed);
    let mut attempted = 0;
    let mut failed = 0;
    let mut measure_s = 0.0;
    let mut probes = Vec::new();
    let mut measure = |points: &[Vec<f64>], tr: &mut Trace, measurer: &mut Measurer| {
        let t = Instant::now();
        let outcomes = tr.span("core.try_measure_metric_batch", key, |_| {
            measurer.try_measure_metric_batch(points, Metric::Cycles, &retry)
        });
        measure_s += t.elapsed().as_secs_f64();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (p, outcome) in points.iter().zip(outcomes) {
            attempted += 1;
            match outcome {
                Ok(y) => {
                    digest.f64(y);
                    xs.push(space.encode(p));
                    ys.push(y);
                    let (opt, uarch) = decode_point(p);
                    probes.push(Probe {
                        workload: w,
                        opt,
                        uarch,
                        key: (key << 32) | probes.len() as u64,
                    });
                }
                Err(e) => {
                    failed += 1;
                    eprintln!("perfbench: {}: point quarantined: {}", w.name(), e);
                }
            }
        }
        Dataset::new(xs, ys).expect("surviving points form a dataset")
    };
    let test = measure(&test_points, trace, &mut measurer);
    let train = measure(&train_points, trace, &mut measurer);

    let mut mape = [0.0; 3];
    let mut fit_ms = [0.0; 3];
    let mut predict_us = 0.0;
    let mut rbf = None;
    for (i, family) in ModelFamily::all().into_iter().enumerate() {
        let name = format!("models.fit.{}", FAMILIES[i]);
        let t = Instant::now();
        let model = trace.span(&name, key, |_| SurrogateModel::fit(&train, family));
        fit_ms[i] = t.elapsed().as_secs_f64() * 1e3;
        let model = match model {
            Ok(m) => m,
            Err(e) => {
                report.check(false, || {
                    format!("{}: {} fit failed: {}", w.name(), family.name(), e)
                });
                continue;
            }
        };
        let t = Instant::now();
        let preds = trace.span("models.predict_batch", key, |_| {
            model.predict_batch(test.points())
        });
        predict_us += t.elapsed().as_secs_f64() * 1e6 / test.len() as f64;
        digest.f64s(&preds);
        mape[i] = metrics::mape(&preds, test.responses());
        if family == ModelFamily::Rbf {
            rbf = Some(model);
        }
    }
    let platform = UarchConfig::typical();
    let (tune_ms, tuned, model_gap_pct) = match rbf {
        Some(model) => {
            let t = Instant::now();
            let tuned = trace.span("search.search_flags_surrogate", key, |_| {
                search_flags_surrogate(&space, &model, &platform, seed)
            });
            let tune_ms = t.elapsed().as_secs_f64() * 1e3;
            let o2 = OptConfig::o2();
            let speedup = trace.span("core.evaluate_speedup", key, |_| {
                evaluate_speedup(&mut measurer, &tuned, &o2, &platform)
            });
            attempted += 2;
            digest.f64s(&tuned.point);
            digest.u64(speedup.baseline_cycles);
            digest.u64(speedup.tuned_cycles);
            for opt in [o2, tuned.config.clone()] {
                probes.push(Probe {
                    workload: w,
                    opt,
                    uarch: platform.clone(),
                    key: (key << 32) | probes.len() as u64,
                });
            }
            let gap = speedup.predicted_speedup_pct - speedup.actual_speedup_pct;
            let tuned = Tuned {
                workload: w,
                config: tuned.config,
                point: tuned.point,
                baseline_cycles: speedup.baseline_cycles,
                tuned_cycles: speedup.tuned_cycles,
                actual_speedup_pct: speedup.actual_speedup_pct,
            };
            (tune_ms, Some(tuned), gap)
        }
        None => (0.0, None, 0.0),
    };
    ProgramRun {
        loop_ms: loop_start.elapsed().as_secs_f64() * 1e3,
        rbf_mape: mape[2],
        mape,
        fit_ms,
        predict_us: predict_us / 3.0,
        tune_ms,
        tuned,
        model_gap_pct,
        instructions: measurer.instructions_simulated(),
        simulations: measurer.measurement_count(),
        warnings: measurer.rel_error_warning_count(),
        threads: measurer.threads(),
        attempted,
        failed,
        measure_s,
        design_ms,
        probes,
    }
}

/// One full campaign over `programs` (indices into `Workload::all()`).
fn pass(seed: u64, programs: &[usize], trace: &mut Trace, report: &mut Report) -> Pass {
    let start = Instant::now();
    let mut digest = Digest::default();
    let all = Workload::all();
    let runs = trace.span("campaign.pass", 0, |tr| {
        programs
            .iter()
            .map(|&i| {
                tr.span("campaign.program", i as u64, |tr| {
                    run_program(&all[i], i, mix(seed, i as u64), tr, &mut digest, report)
                })
            })
            .collect::<Vec<_>>()
    });
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        digest,
        runs,
    }
}

fn rbf_mape(p: &Pass) -> f64 {
    mean(&p.runs.iter().map(|r| r.rbf_mape).collect::<Vec<_>>())
}

fn tuned(p: &Pass) -> Vec<Tuned> {
    p.runs.iter().filter_map(|r| r.tuned.clone()).collect()
}

/// All seven programs.
pub fn all_programs() -> Vec<usize> {
    (0..Workload::all().len()).collect()
}

/// End-to-end metrics from untraced passes over all seven programs.
pub fn run(args: &Args, report: &mut Report) {
    let setup = layers::reference_setup(
        Workload::all().iter().collect::<Vec<_>>().as_slice(),
        layers::SETUP_PASSES,
        report,
    );
    let mut trace = Trace::new(false, args.epoch, 0);
    let mut passes: Vec<Pass> = Vec::new();
    let t = Instant::now();
    while passes.is_empty() || t.elapsed().as_secs_f64() + passes[0].wall_s <= args.seconds {
        passes.push(pass(args.seed, &all_programs(), &mut trace, report));
    }
    let first = &passes[0];
    for (i, p) in passes.iter().enumerate() {
        report.check(p.digest.hex() == first.digest.hex(), || {
            format!(
                "pass {} digest {} != pass 0 digest {}",
                i,
                p.digest.hex(),
                first.digest.hex()
            )
        });
    }
    // Peak memory of set-up and the timed passes; the untimed detailed
    // references come after. They are the -O2 points only: the tuned flags
    // follow the GA seed, and a seeded reference set would make
    // `sample_err_pct` spread from seed to seed.
    let rss = peak_rss_mb(None);
    let points = accuracy::typical_points(&tuned(first), false);
    let refs = accuracy::detailed_refs(&points, false, &mut trace, report);
    println!("digest campaign {}", first.digest.hex());
    println!("passes {} reference_points {}", passes.len(), refs.len());
    for p in &passes {
        report.attempted += p.runs.iter().map(|r| r.attempted).sum::<u64>();
        report.failed += p.runs.iter().map(|r| r.failed).sum::<u64>();
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.runs.iter().map(|r| r.instructions).sum::<u64>() as f64 / 1e6 / p.wall_s)
        .collect();
    let loops = item_best(
        &passes
            .iter()
            .map(|p| p.runs.iter().map(|r| r.loop_ms).collect())
            .collect::<Vec<_>>(),
    );
    report.add("setup_s", median(&setup), "s");
    report.add("wall_s", median(&walls), "s");
    report.add("sim_minst_per_s", median(&rates), "Minst/s");
    report.add("holdout_mape_pct", rbf_mape(first), "%");
    report.add(
        "tuned_speedup_pct",
        accuracy::tuned_speedup_pct(&tuned(first)),
        "%",
    );
    report.add("sample_err_pct", accuracy::sample_err_pct(&refs), "%");
    report.add("peak_rss_mb", rss, "MiB");
    report.add("p50_ms", percentile(&loops, 0.50), "ms");
    report.add("p99_ms", percentile(&loops, 0.99), "ms");
}

/// Per-layer metrics of a campaign over `programs`: one untraced pass (for
/// the digest and the tracing overhead), one traced pass, then the
/// single-threaded replay of a seeded share of the measured configurations
/// and the detailed references of the -O2 and tuned points.
pub fn run_traced(args: &Args, programs: &[usize], report: &mut Report) -> Trace {
    // Set-up first, so neither pass pays the reference checksums.
    let all: Vec<&'static Workload> = programs.iter().map(|&i| &Workload::all()[i]).collect();
    layers::reference_setup(&all, 1, report);
    let mut off = Trace::new(false, args.epoch, 0);
    let plain = pass(args.seed, programs, &mut off, report);
    let mut trace = Trace::new(true, args.epoch, mix(args.seed, 77));
    let traced = pass(args.seed, programs, &mut trace, report);
    report.check(plain.digest.hex() == traced.digest.hex(), || {
        format!(
            "traced digest {} != untraced digest {}",
            traced.digest.hex(),
            plain.digest.hex()
        )
    });
    println!("digest campaign {}", traced.digest.hex());
    report.attempted = traced.runs.iter().map(|r| r.attempted).sum();
    report.failed = traced.runs.iter().map(|r| r.failed).sum();

    let runs = &traced.runs;
    // A seeded share of the measured configurations: replaying all of
    // them single-threaded would take longer than the run's time limit.
    let probes: Vec<Probe> = runs
        .iter()
        .flat_map(|r| r.probes.iter())
        .filter(|p| mix(args.seed, p.key).is_multiple_of(REPLAY_EVERY))
        .cloned()
        .collect();
    let sample = BuildConfig::quick(args.seed).sample;
    let st = trace.span("replay", 0, |tr| {
        layers::replay(&probes, &sample, tr, report)
    });
    let points = accuracy::typical_points(&tuned(&traced), true);
    let refs = trace.span("reference", 0, |tr| {
        accuracy::detailed_refs(&points, true, tr, report)
    });

    let sum = |f: &dyn Fn(&ProgramRun) -> f64| runs.iter().map(f).sum::<f64>();
    let avg = |f: &dyn Fn(&ProgramRun) -> f64| sum(f) / runs.len() as f64;
    layers::replay_metrics(&st, report);
    layers::reference_metrics(&refs, report);
    let measure_s = sum(&|r| r.measure_s);
    let threads = runs[0].threads as f64;
    report.add("core.measure_s", measure_s, "s");
    // The replay covers a sample; scale its cost to every measured point.
    let scale = runs.iter().map(|r| r.probes.len()).sum::<usize>() as f64 / st.probes.max(1) as f64;
    report.add(
        "core.parallel_efficiency",
        st.probe_s * scale / (threads * measure_s),
        "fraction",
    );
    report.add("core.simulations", sum(&|r| r.simulations as f64), "count");
    report.add(
        "core.rel_error_warnings",
        sum(&|r| r.warnings as f64),
        "count",
    );
    report.add("doe.design_ms", avg(&|r| r.design_ms), "ms");
    for (i, fam) in FAMILIES.iter().enumerate() {
        report.add(
            format!("models.fit_ms.{}", fam),
            avg(&|r| r.fit_ms[i]),
            "ms",
        );
    }
    for (i, fam) in FAMILIES.iter().enumerate() {
        report.add(format!("models.mape_pct.{}", fam), avg(&|r| r.mape[i]), "%");
    }
    report.add("models.predict_us", avg(&|r| r.predict_us), "us");
    report.add("search.tune_ms", avg(&|r| r.tune_ms), "ms");
    // Median: one program's model can extrapolate its tuned point to near
    // zero cycles, which would swamp a mean.
    let gaps: Vec<f64> = runs.iter().map(|r| r.model_gap_pct).collect();
    report.add("search.model_gap_pct", median(&gaps), "%");
    report.add(
        "trace.overhead_pct",
        100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s,
        "%",
    );
    trace
}
