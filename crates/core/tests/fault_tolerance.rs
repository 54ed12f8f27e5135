//! Campaign fault tolerance, end to end: injected measurement faults are
//! retried with backoff, and points that exhaust their retries are
//! quarantined instead of aborting the build.
//!
//! The fault plan is process-global, so the tests in this file (its own
//! test binary) serialize on one lock.

use emod_compiler::OptConfig;
use emod_core::builder::{BuildConfig, ModelBuilder};
use emod_core::measure::{BatchRetry, MeasureError, Measurer, Metric};
use emod_core::model::ModelFamily;
use emod_core::tune::reference_configs;
use emod_faults as faults;
use emod_uarch::UarchConfig;
use emod_workloads::{InputSet, Workload};
use std::sync::Mutex;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn injected_faults_are_retried_then_quarantined() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let w = Workload::by_name("bzip2").unwrap();

    // Two transient faults: the first design point's retry budget (2
    // retries = 3 attempts) absorbs both, so the campaign completes whole.
    faults::install(faults::FaultPlan::parse("io_error:sim.run:2x", 1).unwrap());
    let mut b =
        ModelBuilder::new(w, InputSet::Train, BuildConfig::quick(3)).with_measure_retries(2);
    let built = b.build(ModelFamily::Linear).unwrap();
    faults::clear();
    assert_eq!(
        built.test.len(),
        12,
        "transient faults must not drop points"
    );
    assert_eq!(built.train.len(), 30);
    assert!(b.quarantined_points().is_empty());

    // Four faults with no retry budget: the first four measurements — test
    // design points, measured first — fail for good and are quarantined;
    // the campaign still completes on the surviving design.
    faults::install(faults::FaultPlan::parse("panic:sim.run:4x", 1).unwrap());
    let mut b =
        ModelBuilder::new(w, InputSet::Train, BuildConfig::quick(5)).with_measure_retries(0);
    let built = b.build(ModelFamily::Linear).unwrap();
    faults::clear();
    assert_eq!(
        built.test.len(),
        8,
        "4 poisoned test points must be quarantined"
    );
    assert_eq!(built.train.len(), 30);
    assert_eq!(b.quarantined_points().len(), 4);
    assert!(built.test_mape.is_finite());
}

/// Five machines for one -O2 binary: at two workers they run as two
/// lockstep tasks (three lanes and two lanes).
fn shared_binary_sweep() -> Vec<(OptConfig, UarchConfig)> {
    let mut machines: Vec<UarchConfig> = reference_configs().into_iter().map(|(_, c)| c).collect();
    let mut slow = UarchConfig::typical();
    slow.mem_latency = 150;
    let mut narrow = UarchConfig::aggressive();
    narrow.issue_width = 2;
    machines.extend([slow, narrow]);
    machines.into_iter().map(|m| (OptConfig::o2(), m)).collect()
}

fn measure_sweep(retry: &BatchRetry) -> Vec<Result<f64, MeasureError>> {
    let w = Workload::by_name("gzip").unwrap();
    let mut m = Measurer::new(w, InputSet::Train, BuildConfig::quick(1).sample);
    m.set_threads(2);
    m.try_measure_configs_metric_batch(&shared_binary_sweep(), Metric::Cycles, retry)
}

#[test]
fn a_failed_lane_retries_alone() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let clean: Vec<f64> = measure_sweep(&BatchRetry::single())
        .into_iter()
        .map(|r| r.unwrap())
        .collect();

    // One transient fault and a second attempt: the faulted point retries
    // alone and every point lands on its fault-free value.
    faults::install(faults::FaultPlan::parse("io_error:sim.run:once", 1).unwrap());
    let retried = measure_sweep(&BatchRetry::campaign(1, 7));
    faults::clear();
    let retried: Vec<f64> = retried.into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(retried, clean);

    // No second attempt: exactly the faulted point fails, and its lockstep
    // neighbours are untouched.
    faults::install(faults::FaultPlan::parse("io_error:sim.run:once", 1).unwrap());
    let single = measure_sweep(&BatchRetry::single());
    faults::clear();
    let failed: Vec<usize> = (0..single.len()).filter(|&i| single[i].is_err()).collect();
    assert_eq!(failed.len(), 1, "{:?}", single);
    assert!(matches!(single[failed[0]], Err(MeasureError::Injected(_))));
    for (i, r) in single.iter().enumerate() {
        if i != failed[0] {
            assert_eq!(r.as_ref().unwrap(), &clean[i], "point {}", i);
        }
    }
}
