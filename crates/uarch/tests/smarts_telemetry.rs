//! SMARTS telemetry counts one `uarch.smarts.emulations` per emulator run
//! and one `uarch.smarts.sims` per configuration, so their ratio is the
//! number of configurations each emulation drove.
//!
//! The telemetry registry is process-global; this file is its own test
//! binary with a single test.

use emod_isa::{AluOp, BranchCond, Inst, Program, ProgramBuilder, Reg};
use emod_telemetry as telemetry;
use emod_uarch::{simulate_sampled, simulate_sampled_many, SampleConfig, UarchConfig};

/// A counted loop of about 60k instructions.
fn counted_loop() -> Program {
    let mut b = ProgramBuilder::new();
    b.push(Inst::LoadImm { rd: Reg(8), imm: 0 });
    b.push(Inst::LoadImm {
        rd: Reg(9),
        imm: 20_000,
    });
    b.label("loop");
    b.push(Inst::AluImm {
        op: AluOp::Add,
        rd: Reg(8),
        rs: Reg(8),
        imm: 1,
    });
    b.branch_to(BranchCond::Lt, Reg(8), Reg(9), "loop");
    b.push(Inst::Halt);
    b.build().unwrap()
}

#[test]
fn emulations_count_runs_and_sims_count_configurations() {
    telemetry::enable();
    let prog = counted_loop();
    let sample = SampleConfig {
        window: 500,
        interval: 10,
        warmup: 500,
        fuel: u64::MAX,
    };
    let mut machines = vec![UarchConfig::typical(); 5];
    machines[1].mem_latency = 150;
    machines[2].il1_size = 8 * 1024;
    simulate_sampled_many(&prog, &machines, &sample).unwrap();
    simulate_sampled(&prog, &UarchConfig::typical(), &sample).unwrap();
    let emulations = telemetry::counter_value("uarch.smarts.emulations");
    let sims = telemetry::counter_value("uarch.smarts.sims");
    assert_eq!((emulations, sims), (2, 6));
    // Fuel exhaustion emulates nothing to completion and counts nothing.
    let starved = SampleConfig {
        fuel: 100,
        ..sample
    };
    assert!(simulate_sampled_many(&prog, &machines, &starved).is_err());
    assert_eq!(telemetry::counter_value("uarch.smarts.emulations"), 2);
}
