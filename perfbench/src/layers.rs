//! Set-up reference checks and the single-threaded layer replay shared by
//! the `campaign` and `uarch_sweep` workloads.

use crate::report::{mean, Report};
use crate::trace::Trace;
use emod_compiler::OptConfig;
use emod_isa::Emulator;
use emod_uarch::{simulate, simulate_sampled, SampleConfig, UarchConfig};
use emod_workloads::{InputSet, Workload};
use std::time::Instant;

/// Hand-recorded `-O0` exit checksums: `<workload> <train> <ref>` per line.
const EXPECTED: &str = include_str!("../expected_checksums.txt");

/// Set-up passes of an untraced `campaign` or `uarch_sweep` run; `setup_s`
/// is their median, which one slow pass does not move. One pass takes
/// about 1.5–2 s on a 2-core host; README.md gives the measured spread.
pub const SETUP_PASSES: usize = 3;

/// Instruction budget for a reference run (far above any bundled input).
const FUEL: u64 = 2_000_000_000;

fn expected(name: &str) -> Option<(i64, i64)> {
    EXPECTED.lines().find_map(|line| {
        let mut it = line.split_whitespace();
        if it.next()? != name {
            return None;
        }
        Some((it.next()?.parse().ok()?, it.next()?.parse().ok()?))
    })
}

/// One set-up pass: compiles every workload at `-O0` for both input sets,
/// runs it on the emulator and compares the exit value with the expected
/// file. Returns the pass's wall seconds.
pub fn reference_pass(workloads: &[&'static Workload], report: &mut Report) -> f64 {
    let start = Instant::now();
    for w in workloads {
        let Some((train, reference)) = expected(w.name()) else {
            report.check(false, || {
                format!("{}: no expected checksum recorded", w.name())
            });
            continue;
        };
        for (set, want) in [(InputSet::Train, train), (InputSet::Ref, reference)] {
            let got = w
                .program(&OptConfig::o0(), set)
                .map_err(|e| e.to_string())
                .and_then(|p| Emulator::new(&p).run(FUEL).map_err(|e| e.to_string()));
            report.check(got == Ok(want), || {
                format!(
                    "{} {}: -O0 exit {:?}, expected {}",
                    w.name(),
                    set.name(),
                    got,
                    want
                )
            });
        }
    }
    start.elapsed().as_secs_f64()
}

/// Set-up for the simulating workloads, timed `passes` times (the median
/// is `setup_s`). The first pass goes through `Workload::reference_checksum`,
/// the cached value `Measurer` validates every point against; the others
/// compile and emulate again directly. Both must match the expected file.
pub fn reference_setup(
    workloads: &[&'static Workload],
    passes: usize,
    report: &mut Report,
) -> Vec<f64> {
    let start = Instant::now();
    for w in workloads {
        if let Some((train, reference)) = expected(w.name()) {
            for (set, want) in [(InputSet::Train, train), (InputSet::Ref, reference)] {
                let got = w.reference_checksum(set);
                report.check(got == want, || {
                    format!(
                        "{} {}: Workload::reference_checksum {} disagrees with expected {}",
                        w.name(),
                        set.name(),
                        got,
                        want
                    )
                });
            }
        }
    }
    let mut times = vec![start.elapsed().as_secs_f64()];
    times.extend((1..passes).map(|_| reference_pass(workloads, report)));
    times
}

/// One configuration measured by a workload, replayed layer by layer.
#[derive(Debug, Clone)]
pub struct Probe {
    pub workload: &'static Workload,
    pub opt: OptConfig,
    pub uarch: UarchConfig,
    /// Design-point identifier carried by the replay spans.
    pub key: u64,
}

/// Per-layer figures from replaying probes single-threaded.
#[derive(Debug, Default)]
pub struct ReplayStats {
    pub probes: usize,
    pub compile_ms: Vec<f64>,
    pub code_insts: Vec<f64>,
    pub emulate_s: f64,
    pub sampled_s: f64,
    pub instructions: u64,
    /// Σ (compile + sampled simulation) seconds: one worker's cost of the
    /// measure step.
    pub probe_s: f64,
}

/// Replays every probe through `Workload::program`, `Emulator::run` and
/// `simulate_sampled`, each under its own span, so the measure step (which
/// `Measurer` runs inside its worker pool) splits into compile, emulate and
/// timing. Compilations are shared between probes with equal flags, as in
/// `Measurer`'s binary cache.
pub fn replay(
    probes: &[Probe],
    sample: &SampleConfig,
    trace: &mut Trace,
    report: &mut Report,
) -> ReplayStats {
    let mut st = ReplayStats::default();
    let mut binaries: Vec<(&'static str, Vec<f64>, emod_isa::Program)> = Vec::new();
    for p in probes {
        let flags = p.opt.to_design_values();
        let cached = binaries
            .iter()
            .position(|(n, f, _)| *n == p.workload.name() && *f == flags);
        let idx = match cached {
            Some(i) => i,
            None => {
                let t = Instant::now();
                let prog = trace.span("compiler.program", p.key, |_| {
                    p.workload
                        .program(&p.opt, InputSet::Train)
                        .expect("bundled workloads compile")
                });
                let ms = t.elapsed().as_secs_f64() * 1e3;
                st.compile_ms.push(ms);
                st.probe_s += ms / 1e3;
                st.code_insts.push(prog.len() as f64);
                binaries.push((p.workload.name(), flags, prog));
                binaries.len() - 1
            }
        };
        let prog = &binaries[idx].2;
        let t = Instant::now();
        let exit = trace.span("isa.emulate", p.key, |_| Emulator::new(prog).run(FUEL));
        st.emulate_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let res = trace.span("uarch.simulate_sampled", p.key, |_| {
            simulate_sampled(prog, &p.uarch, sample)
        });
        let dt = t.elapsed().as_secs_f64();
        st.sampled_s += dt;
        st.probe_s += dt;
        let want = p.workload.reference_checksum(InputSet::Train);
        match (&exit, &res) {
            (Ok(e), Ok(r)) => {
                st.instructions += r.instructions;
                report.check(*e == want && r.exit_value == want, || {
                    format!(
                        "{}: replay exit {} / {} != {}",
                        p.workload.name(),
                        e,
                        r.exit_value,
                        want
                    )
                });
            }
            _ => report.check(false, || {
                format!(
                    "{}: replay failed: {:?} {:?}",
                    p.workload.name(),
                    exit.err(),
                    res.err()
                )
            }),
        }
        st.probes += 1;
    }
    st
}

/// Adds the replay's per-layer metrics.
pub fn replay_metrics(st: &ReplayStats, report: &mut Report) {
    let minst = st.instructions as f64 / 1e6;
    report.add("compiler.compile_ms", mean(&st.compile_ms), "ms");
    report.add("compiler.code_insts", mean(&st.code_insts), "count");
    report.add("isa.emulate_minst_per_s", minst / st.emulate_s, "Minst/s");
    report.add(
        "uarch.sampled_ms",
        st.sampled_s * 1e3 / st.probes.max(1) as f64,
        "ms",
    );
    report.add("uarch.sampled_minst_per_s", minst / st.sampled_s, "Minst/s");
    report.add(
        "uarch.timing_share",
        1.0 - st.emulate_s / st.sampled_s,
        "fraction",
    );
}

/// Outcome of a detailed reference simulation against its sampled twin.
#[derive(Debug, Clone, Copy)]
pub struct RefPoint {
    pub detailed_cycles: u64,
    pub sampled_cycles: u64,
    /// The sampled run's own 3σ relative bound.
    pub bound: f64,
    pub cpi: f64,
    pub instructions: u64,
    pub detailed_s: f64,
}

impl RefPoint {
    pub fn rel_err(&self) -> f64 {
        (self.sampled_cycles as f64 - self.detailed_cycles as f64).abs()
            / self.detailed_cycles as f64
    }
}

/// Runs full detailed simulation for one probe that `Measurer` measured
/// at `measured` cycles. With `twin` it also runs the sampled simulation
/// directly, checks that it reproduces `measured`, and records its 3σ
/// bound (the traced run's figures); without, the sampled cycles are
/// `measured` and the bound is unknown.
pub fn reference_sim(
    p: &Probe,
    sample: &SampleConfig,
    measured: u64,
    twin: bool,
    trace: &mut Trace,
    report: &mut Report,
) -> Option<RefPoint> {
    let prog = p
        .workload
        .program(&p.opt, InputSet::Train)
        .expect("bundled workloads compile");
    let want = p.workload.reference_checksum(InputSet::Train);
    let (sampled_cycles, bound) = if twin {
        match simulate_sampled(&prog, &p.uarch, sample) {
            Ok(s) if s.exit_value == want => {
                report.check(s.cycles == measured, || {
                    format!(
                        "{}: Measurer cycles {} != simulate_sampled {}",
                        p.workload.name(),
                        measured,
                        s.cycles
                    )
                });
                (s.cycles, s.rel_error)
            }
            s => {
                report.check(false, || {
                    format!(
                        "{}: sampled reference simulation failed: {:?}",
                        p.workload.name(),
                        s.map(|r| r.exit_value)
                    )
                });
                return None;
            }
        }
    } else {
        (measured, f64::NAN)
    };
    let t = Instant::now();
    let detailed = trace.span("uarch.simulate", p.key, |_| simulate(&prog, &p.uarch));
    let detailed_s = t.elapsed().as_secs_f64();
    match detailed {
        Ok(d) if d.exit_value == want => Some(RefPoint {
            detailed_cycles: d.cycles,
            sampled_cycles,
            bound,
            cpi: d.cpi(),
            instructions: d.instructions,
            detailed_s,
        }),
        d => {
            report.check(false, || {
                format!(
                    "{}: detailed reference simulation failed: {:?}",
                    p.workload.name(),
                    d.map(|r| r.exit_value)
                )
            });
            None
        }
    }
}

/// Adds the detailed-reference per-layer metrics.
pub fn reference_metrics(refs: &[RefPoint], report: &mut Report) {
    if refs.is_empty() {
        return;
    }
    let insts: u64 = refs.iter().map(|r| r.instructions).sum();
    let secs: f64 = refs.iter().map(|r| r.detailed_s).sum();
    let bound = mean(&refs.iter().map(|r| r.bound).collect::<Vec<_>>());
    let err = mean(&refs.iter().map(RefPoint::rel_err).collect::<Vec<_>>());
    report.add(
        "uarch.detailed_minst_per_s",
        insts as f64 / 1e6 / secs,
        "Minst/s",
    );
    report.add("uarch.bound_pct", bound * 100.0, "%");
    report.add("uarch.bound_over_err", bound / err.max(1e-12), "ratio");
    report.add(
        "uarch.mean_cpi",
        mean(&refs.iter().map(|r| r.cpi).collect::<Vec<_>>()),
        "cpi",
    );
}
