//! Accuracy figures every workload reports: the held-out error of RBF
//! models, the measured speedup of GA-tuned flags over -O2 on the typical
//! platform, and the SMARTS sampling error on the points such a speedup
//! rests on, against full detailed simulation.

use crate::layers::{self, Probe, RefPoint};
use crate::report::{mean, Report};
use crate::trace::Trace;
use emod_compiler::OptConfig;
use emod_core::tune::{evaluate_speedup, search_flags_surrogate};
use emod_core::{BuildConfig, Measurer, ModelFamily};
use emod_models::{metrics, Regressor};
use emod_serve::ModelArtifact;
use emod_uarch::UarchConfig;
use emod_workloads::{InputSet, Workload};

/// GA seed for tuning the reference models (the `tune` command's default).
/// It is fixed, so the reference models' figures are exact on every seed.
pub const TUNE_SEED: u64 = 1;

/// One program's tuned flags against -O2 on the typical platform, with the
/// cycles `Measurer` returned for both.
#[derive(Debug, Clone)]
pub struct Tuned {
    pub workload: &'static Workload,
    pub config: OptConfig,
    /// The raw design point the GA returned.
    pub point: Vec<f64>,
    pub baseline_cycles: u64,
    pub tuned_cycles: u64,
    pub actual_speedup_pct: f64,
}

/// Geometric mean over programs of the measured speedup ratio
/// (`1 + actual_speedup_pct / 100`), in percent: 100 means the tuned flags
/// run exactly as fast as -O2. The ratio form never reads 0 and keeps a
/// one-point loss visible as one point.
pub fn tuned_speedup_pct(tuned: &[Tuned]) -> f64 {
    let logs: Vec<f64> = tuned
        .iter()
        .map(|t| (1.0 + t.actual_speedup_pct / 100.0).ln())
        .collect();
    100.0 * mean(&logs).exp()
}

/// Mean |sampled − detailed| / detailed, in percent.
pub fn sample_err_pct(refs: &[RefPoint]) -> f64 {
    100.0 * mean(&refs.iter().map(RefPoint::rel_err).collect::<Vec<_>>())
}

/// The -O2 and, when `tuned_too`, the tuned point of each program on the
/// typical platform, with the cycles `Measurer` returned for each.
pub fn typical_points(tuned: &[Tuned], tuned_too: bool) -> Vec<(Probe, u64)> {
    let mut points = Vec::new();
    for (i, t) in tuned.iter().enumerate() {
        let mut opts = vec![(OptConfig::o2(), t.baseline_cycles)];
        if tuned_too {
            opts.push((t.config.clone(), t.tuned_cycles));
        }
        for (j, (opt, measured)) in opts.into_iter().enumerate() {
            let probe = Probe {
                workload: t.workload,
                opt,
                uarch: UarchConfig::typical(),
                key: ((i as u64) << 1) | j as u64,
            };
            points.push((probe, measured));
        }
    }
    points
}

/// Simulates each point, measured by `Measurer` at the paired cycles, in
/// full detail; with `twin` also sampled, directly
/// ([`layers::reference_sim`]).
pub fn detailed_refs(
    points: &[(Probe, u64)],
    twin: bool,
    trace: &mut Trace,
    report: &mut Report,
) -> Vec<RefPoint> {
    let sample = BuildConfig::quick(0).sample;
    points
        .iter()
        .filter_map(|(probe, measured)| {
            layers::reference_sim(probe, &sample, *measured, twin, trace, report)
        })
        .collect()
}

/// Scores RBF artifacts: the mean MAPE of each model on its own held-out
/// test design, and for each the GA-tuned flags for the typical platform
/// ([`TUNE_SEED`]) measured against -O2.
pub fn score_models(arts: &[&ModelArtifact], report: &mut Report) -> (f64, Vec<Tuned>) {
    let platform = UarchConfig::typical();
    let mut mapes = Vec::new();
    let mut tuned = Vec::new();
    for art in arts {
        debug_assert_eq!(art.meta.family, ModelFamily::Rbf);
        let Some(w) = Workload::by_name(&art.meta.workload) else {
            report.check(false, || format!("no workload {}", art.meta.workload));
            continue;
        };
        let preds = art.model.predict_batch(art.test.points());
        mapes.push(metrics::mape(&preds, art.test.responses()));
        let settings = search_flags_surrogate(&art.space, &art.model, &platform, TUNE_SEED);
        let mut measurer = Measurer::new(w, InputSet::Train, BuildConfig::quick(0).sample);
        let s = evaluate_speedup(&mut measurer, &settings, &OptConfig::o2(), &platform);
        tuned.push(Tuned {
            workload: w,
            config: settings.config,
            point: settings.point,
            baseline_cycles: s.baseline_cycles,
            tuned_cycles: s.tuned_cycles,
            actual_speedup_pct: s.actual_speedup_pct,
        });
    }
    (mean(&mapes), tuned)
}
