//! `uarch_sweep`: every program at fixed -O2 flags over a seeded set of
//! machine configurations spanning the 11 Table 2 parameters plus the three
//! Table 5 platforms, measured through
//! `Measurer::try_measure_configs_metric_batch`; then the Table 5 points
//! simulated in full detail (untimed) as the accuracy reference.

use crate::accuracy;
use crate::layers::{self, Probe, RefPoint};
use crate::report::{item_best, median, mix, peak_rss_mb, percentile, Digest, Report};
use crate::trace::Trace;
use crate::Args;
use emod_compiler::OptConfig;
use emod_core::measure::BatchRetry;
use emod_core::tune::reference_configs;
use emod_core::vars::uarch_parameters;
use emod_core::{BuildConfig, Measurer, Metric};
use emod_doe::{lhs, ParameterSpace};
use emod_uarch::{SampleConfig, UarchConfig};
use emod_workloads::{InputSet, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Seeded machine configurations per program (the three Table 5 platforms
/// come on top).
const CONFIGS: usize = 8;

/// Timed passes an untraced run makes at least. One pass takes 5–7 s on a
/// 2-core host, under the usual 10 s `--seconds`, and the median of two
/// evens out a slow stretch of host time that a single pass takes in full.
const MIN_PASSES: usize = 2;

fn sample() -> SampleConfig {
    BuildConfig::quick(0).sample
}

/// The machine configurations: a seeded Latin hypercube over Table 2,
/// except that configuration `i` takes the `i`-th L2 size and
/// associativity level in turn (wrapping), then the three Table 5
/// platforms. The L2 geometry sets how much host memory a simulation
/// allocates, so a fixed, balanced choice keeps `peak_rss_mb` a measure of
/// the code rather than of the draw.
fn configs(seed: u64) -> Vec<UarchConfig> {
    let space = ParameterSpace::new(uarch_parameters());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<UarchConfig> = lhs(&space, CONFIGS, &mut rng)
        .into_iter()
        .enumerate()
        .map(|(i, mut p)| {
            for name in ["ul2-size", "ul2-assoc"] {
                let k = space.index_of(name).expect("Table 2 has the L2 geometry");
                let levels = space.parameters()[k].levels();
                p[k] = levels[i % levels.len()];
            }
            UarchConfig::from_design_values(&p)
        })
        .collect();
    out.extend(reference_configs().into_iter().map(|(_, c)| c));
    out
}

/// One sweep over all programs.
struct Pass {
    wall_s: f64,
    digest: Digest,
    /// Measured cycles per (program, config), `None` when the point failed.
    cycles: Vec<Vec<Option<f64>>>,
    /// Wall time of each program's batch.
    batch_ms: Vec<f64>,
    instructions: u64,
    simulations: u64,
    warnings: u64,
    measure_s: f64,
    threads: usize,
    attempted: u64,
    failed: u64,
}

/// One sweep over `programs` (indices into `Workload::all()`).
fn pass(machines: &[UarchConfig], programs: &[usize], trace: &mut Trace) -> Pass {
    let start = Instant::now();
    let mut p = Pass {
        wall_s: 0.0,
        digest: Digest::default(),
        cycles: Vec::new(),
        batch_ms: Vec::new(),
        instructions: 0,
        simulations: 0,
        warnings: 0,
        measure_s: 0.0,
        threads: 1,
        attempted: 0,
        failed: 0,
    };
    let pairs: Vec<(OptConfig, UarchConfig)> = machines
        .iter()
        .map(|m| (OptConfig::o2(), m.clone()))
        .collect();
    trace.span("sweep.pass", 0, |tr| {
        for &i in programs {
            let w = &Workload::all()[i];
            let mut measurer = Measurer::new(w, InputSet::Train, sample());
            let t = Instant::now();
            let outcomes = tr.span("core.try_measure_configs_metric_batch", i as u64, |_| {
                measurer.try_measure_configs_metric_batch(
                    &pairs,
                    Metric::Cycles,
                    &BatchRetry::single(),
                )
            });
            p.measure_s += t.elapsed().as_secs_f64();
            p.batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let mut row = Vec::new();
            for o in outcomes {
                p.attempted += 1;
                match o {
                    Ok(c) => {
                        p.digest.f64(c);
                        row.push(Some(c));
                    }
                    Err(e) => {
                        eprintln!("perfbench: {}: sweep point failed: {}", w.name(), e);
                        p.failed += 1;
                        row.push(None);
                    }
                }
            }
            p.cycles.push(row);
            p.instructions += measurer.instructions_simulated();
            p.simulations += measurer.measurement_count();
            p.warnings += measurer.rel_error_warning_count();
            p.threads = measurer.threads();
        }
    });
    p.wall_s = start.elapsed().as_secs_f64();
    p
}

fn probe(w: usize, c: usize, machines: &[UarchConfig]) -> Probe {
    Probe {
        workload: &Workload::all()[w],
        opt: OptConfig::o2(),
        uarch: machines[c].clone(),
        key: ((w as u64) << 32) | c as u64,
    }
}

/// The accuracy reference: every program on the three Table 5 platforms
/// (the last configurations), simulated in full detail. The subset is
/// fixed, so `sample_err_pct` is exact and repeats on every seed; a seeded
/// subset of 14 points spread it by 20% of its median from seed to seed.
/// Points that failed in the pass are left out. `twin` as in
/// [`accuracy::detailed_refs`].
fn references(
    machines: &[UarchConfig],
    programs: &[usize],
    p: &Pass,
    twin: bool,
    trace: &mut Trace,
    report: &mut Report,
) -> Vec<RefPoint> {
    let first = machines.len() - reference_configs().len();
    let points: Vec<(Probe, u64)> = programs
        .iter()
        .enumerate()
        .flat_map(|(k, &w)| {
            (first..machines.len())
                .filter_map(move |c| p.cycles[k][c].map(|m| (probe(w, c, machines), m as u64)))
        })
        .collect();
    accuracy::detailed_refs(&points, twin, trace, report)
}

fn digest_refs(digest: &mut Digest, refs: &[RefPoint]) {
    for r in refs {
        digest.u64(r.detailed_cycles);
    }
}

/// End-to-end metrics from untraced passes, repeated for `--seconds`.
pub fn run(args: &Args, report: &mut Report) {
    let all: Vec<&'static Workload> = Workload::all().iter().collect();
    let programs: Vec<usize> = (0..all.len()).collect();
    let setup = layers::reference_setup(&all, layers::SETUP_PASSES, report);
    let machines = configs(args.seed);
    let mut off = Trace::new(false, args.epoch, 0);
    let mut passes: Vec<Pass> = Vec::new();
    let t = Instant::now();
    while passes.len() < MIN_PASSES || t.elapsed().as_secs_f64() + passes[0].wall_s <= args.seconds
    {
        passes.push(pass(&machines, &programs, &mut off));
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
        report.attempted += p.attempted;
        report.failed += p.failed;
    }
    // Peak memory of set-up and the timed passes; the untimed reference
    // simulations come after.
    let rss = peak_rss_mb(None);
    let refs = references(&machines, &programs, first, false, &mut off, report);
    let mut digest = first.digest;
    digest_refs(&mut digest, &refs);
    // The sweep fits no models of its own: it scores the reference models
    // that `serve` serves, trained the same way after the timed passes.
    let (holdout, tuned) = match crate::serve::train_registry(&args.work_dir.join("sweep-models")) {
        Ok(models) => accuracy::score_models(&models.rbf(), report),
        Err(e) => {
            report.check(false, || format!("training the reference models: {}", e));
            (f64::NAN, Vec::new())
        }
    };
    for t in &tuned {
        digest.u64(t.baseline_cycles);
        digest.u64(t.tuned_cycles);
    }
    println!("digest uarch_sweep {}", digest.hex());
    println!("passes {} reference_points {}", passes.len(), refs.len());
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.instructions as f64 / 1e6 / p.wall_s)
        .collect();
    let batches = item_best(
        &passes
            .iter()
            .map(|p| p.batch_ms.clone())
            .collect::<Vec<_>>(),
    );
    report.add("setup_s", median(&setup), "s");
    report.add("wall_s", median(&walls), "s");
    report.add("sim_minst_per_s", median(&rates), "Minst/s");
    report.add("holdout_mape_pct", holdout, "%");
    report.add(
        "tuned_speedup_pct",
        accuracy::tuned_speedup_pct(&tuned),
        "%",
    );
    report.add("sample_err_pct", accuracy::sample_err_pct(&refs), "%");
    report.add("peak_rss_mb", rss, "MiB");
    report.add("p50_ms", percentile(&batches, 0.50), "ms");
    report.add("p99_ms", percentile(&batches, 0.99), "ms");
}

/// Per-layer metrics of a sweep over `programs`: an untraced and a traced
/// pass (digests must agree), the single-threaded replay of every measured
/// configuration, and the detailed reference subset under spans.
pub fn run_traced(args: &Args, programs: &[usize], report: &mut Report) -> Trace {
    // Set-up first, so neither pass pays the reference checksums.
    let all: Vec<&'static Workload> = programs.iter().map(|&i| &Workload::all()[i]).collect();
    layers::reference_setup(&all, 1, report);
    let machines = configs(args.seed);
    let mut off = Trace::new(false, args.epoch, 0);
    let plain = pass(&machines, programs, &mut off);
    let mut trace = Trace::new(true, args.epoch, mix(args.seed, 78));
    let traced = pass(&machines, programs, &mut trace);
    report.attempted = traced.attempted;
    report.failed = traced.failed;
    let probes: Vec<Probe> = programs
        .iter()
        .flat_map(|&w| (0..machines.len()).map(move |c| (w, c)))
        .map(|(w, c)| probe(w, c, &machines))
        .collect();
    let st = trace.span("replay", 0, |tr| {
        layers::replay(&probes, &sample(), tr, report)
    });
    let refs = trace.span("reference", 0, |tr| {
        references(&machines, programs, &traced, true, tr, report)
    });
    let (mut d_plain, mut d_traced) = (plain.digest, traced.digest);
    digest_refs(&mut d_plain, &refs);
    digest_refs(&mut d_traced, &refs);
    report.check(d_plain.hex() == d_traced.hex(), || {
        format!(
            "traced digest {} != untraced digest {}",
            d_traced.hex(),
            d_plain.hex()
        )
    });
    println!("digest uarch_sweep {}", d_traced.hex());
    layers::replay_metrics(&st, report);
    layers::reference_metrics(&refs, report);
    report.add("core.measure_s", traced.measure_s, "s");
    report.add(
        "core.parallel_efficiency",
        st.probe_s / (traced.threads as f64 * traced.measure_s),
        "fraction",
    );
    report.add("core.simulations", traced.simulations as f64, "count");
    report.add("core.rel_error_warnings", traced.warnings as f64, "count");
    report.add(
        "trace.overhead_pct",
        100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s,
        "%",
    );
    trace
}
