//! Property tests: the timing model must never perturb architectural
//! results, and its clock must respect physical bounds, on arbitrary
//! (terminating) programs. Lockstep sampled simulation must equal a
//! one-instruction-at-a-time reference of SMARTS on every lane.

use emod_isa::{
    abi, AluOp, BranchCond, EmuError, Emulator, Inst, InstKind, Program, ProgramBuilder, Reg,
    Retired, INST_BYTES,
};
use emod_uarch::{
    simulate, simulate_sampled, simulate_sampled_many, AccessKind, Core, SampleConfig,
    SampledResult, UarchConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a random terminating program: a counted outer loop whose body
/// is a random mix of ALU, memory and conditional-skip instructions.
fn random_program(seed: u64) -> Program {
    random_program_scaled(seed, 1)
}

/// [`random_program`] with its trip count multiplied by `scale`, for runs
/// that span many emulation chunks.
fn random_program_scaled(seed: u64, scale: i64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ProgramBuilder::new();
    let iters = rng.gen_range(50..400) * scale;
    b.push(Inst::LoadImm { rd: Reg(8), imm: 0 });
    b.push(Inst::LoadImm {
        rd: Reg(9),
        imm: iters,
    });
    b.push(Inst::LoadImm {
        rd: Reg(10),
        imm: emod_isa::DATA_BASE as i64,
    });
    b.label("loop");
    let body = rng.gen_range(3..25);
    for k in 0..body {
        match rng.gen_range(0..6) {
            0 => b.push(Inst::AluImm {
                op: AluOp::Add,
                rd: Reg(11 + (k % 8) as u8),
                rs: Reg(11 + ((k + 1) % 8) as u8),
                imm: rng.gen_range(-9..9),
            }),
            1 => b.push(Inst::Mul {
                rd: Reg(11 + (k % 8) as u8),
                rs: Reg(8),
                rt: Reg(9),
            }),
            2 => b.push(Inst::Load {
                rd: Reg(11 + (k % 8) as u8),
                rs: Reg(10),
                offset: rng.gen_range(0..64) * 8,
            }),
            3 => b.push(Inst::Store {
                rt: Reg(8),
                rs: Reg(10),
                offset: rng.gen_range(0..64) * 8,
            }),
            4 => {
                // Conditional forward skip.
                let lbl = format!("skip{}_{}", seed, k);
                b.branch_to(BranchCond::Lt, Reg(11 + (k % 8) as u8), Reg(9), &lbl);
                b.push(Inst::AluImm {
                    op: AluOp::Xor,
                    rd: Reg(12),
                    rs: Reg(12),
                    imm: 5,
                });
                b.label(lbl);
            }
            _ => b.push(Inst::Prefetch {
                rs: Reg(10),
                offset: rng.gen_range(0..2048),
            }),
        }
    }
    b.push(Inst::AluImm {
        op: AluOp::Add,
        rd: Reg(8),
        rs: Reg(8),
        imm: 1,
    });
    b.branch_to(BranchCond::Lt, Reg(8), Reg(9), "loop");
    b.push(Inst::Alu {
        op: AluOp::Add,
        rd: abi::RV,
        rs: Reg(12),
        rt: Reg(8),
    });
    b.push(Inst::Halt);
    b.build().unwrap()
}

fn random_config(seed: u64) -> UarchConfig {
    use emod_doe::ParameterSpace;
    let params = emod_core_free_space();
    let mut rng = StdRng::seed_from_u64(seed);
    let space = ParameterSpace::new(params);
    UarchConfig::from_design_values(&space.random_point(&mut rng))
}

/// The 11 Table 2 parameters, duplicated here to keep this crate's tests
/// free of a dependency cycle on emod-core.
fn emod_core_free_space() -> Vec<emod_doe::Parameter> {
    use emod_doe::Parameter;
    vec![
        Parameter::discrete("issue-width", 2.0, 4.0, 2),
        Parameter::log_discrete("bpred-size", 512.0, 8192.0, 5),
        Parameter::log_discrete("ruu-size", 16.0, 128.0, 4),
        Parameter::log_discrete("il1-size", 8192.0, 131072.0, 5),
        Parameter::log_discrete("dl1-size", 8192.0, 131072.0, 5),
        Parameter::discrete("dl1-assoc", 1.0, 2.0, 2),
        Parameter::discrete("dl1-latency", 1.0, 3.0, 3),
        Parameter::log_discrete("ul2-size", 262144.0, 8388608.0, 6),
        Parameter::log_discrete("ul2-assoc", 1.0, 8.0, 4),
        Parameter::discrete("ul2-latency", 6.0, 16.0, 11),
        Parameter::discrete("memory-latency", 50.0, 150.0, 21),
    ]
}

/// The reference SMARTS loop: one emulator step, then one phase decision,
/// per instruction, for a single configuration. Lockstep simulation must
/// reproduce it exactly.
fn oracle_sampled(
    program: &Program,
    cfg: &UarchConfig,
    sample: &SampleConfig,
) -> Result<SampledResult, EmuError> {
    let unit = sample.window * sample.interval;
    let mut core = Core::new(cfg);
    let mut emu = Emulator::new(program);
    let mut window_cpis: Vec<f64> = Vec::new();
    let mut window_epis: Vec<f64> = Vec::new();
    let mut executed: u64 = 0;
    let detailed_span = sample.warmup + sample.window;
    let mut phase_start_cycles = 0u64;
    let mut phase_start_insts = 0u64;
    let mut phase_start_energy = 0.0f64;
    let mut warm_line = u64::MAX;
    while executed < sample.fuel {
        let pos_in_unit = executed % unit;
        let detailed = pos_in_unit < detailed_span;
        if pos_in_unit == 0 {
            core.reset_timing();
        }
        if pos_in_unit == sample.warmup {
            phase_start_cycles = core.cycles();
            phase_start_insts = core.retired();
            phase_start_energy = core.energy();
        }
        let Some(r) = emu.step()? else { break };
        if detailed {
            core.step(&r);
            if pos_in_unit == sample.warmup + sample.window - 1 {
                let dcycles = core.cycles() - phase_start_cycles;
                let dinsts = core.retired() - phase_start_insts;
                if dinsts > 0 {
                    window_cpis.push(dcycles as f64 / dinsts as f64);
                    window_epis.push((core.energy() - phase_start_energy) / dinsts as f64);
                }
            }
        } else {
            oracle_warm(&mut core, &r, &mut warm_line);
        }
        executed += 1;
        if emu.halted() {
            break;
        }
    }
    if !emu.halted() && executed >= sample.fuel {
        return Err(EmuError::OutOfFuel);
    }
    let exit_value = emu.exit_value();
    if window_cpis.is_empty() {
        return Ok(SampledResult {
            cycles: core.cycles(),
            instructions: executed,
            cpi: if executed > 0 {
                core.cycles() as f64 / core.retired().max(1) as f64
            } else {
                0.0
            },
            rel_error: 0.0,
            windows: 0,
            exit_value,
            energy: core.energy(),
            pipe: core.pipe_total(),
        });
    }
    let n = window_cpis.len() as f64;
    let mean = window_cpis.iter().sum::<f64>() / n;
    let var = window_cpis
        .iter()
        .map(|c| (c - mean) * (c - mean))
        .sum::<f64>()
        / n.max(1.0);
    let rel_error = if n > 1.0 && mean > 0.0 {
        3.0 * (var / n).sqrt() / mean
    } else {
        1.0
    };
    let mean_epi = window_epis.iter().sum::<f64>() / window_epis.len() as f64;
    Ok(SampledResult {
        cycles: (mean * executed as f64).round() as u64,
        instructions: executed,
        cpi: mean,
        rel_error,
        windows: window_cpis.len() as u64,
        exit_value,
        energy: mean_epi * executed as f64,
        pipe: core.pipe_total(),
    })
}

/// The simulator's cache line size in bytes.
const LINE_SIZE: u64 = 64;

/// Functional warming as the reference loop applies it.
fn oracle_warm(core: &mut Core, r: &Retired, last_line: &mut u64) {
    let line = r.fetch_addr() & !(LINE_SIZE - 1);
    if line != *last_line {
        core.mem_mut().warm(AccessKind::Fetch, line);
        *last_line = line;
    }
    let pc = r.pc as u64 * INST_BYTES;
    match (r.inst.kind(), r.mem_addr) {
        (InstKind::Load, Some(a)) => core.mem_mut().warm(AccessKind::Read, a),
        (InstKind::Store, Some(a)) => core.mem_mut().warm(AccessKind::Write, a),
        (InstKind::Prefetch, Some(a)) => core.mem_mut().warm(AccessKind::Prefetch, a),
        (InstKind::Branch, _) => {
            core.bpred_mut().update_direction(pc, r.taken);
            if r.taken {
                core.bpred_mut().update_target(pc, r.next_pc);
            }
        }
        (InstKind::Jump, _) => core.bpred_mut().update_target(pc, r.next_pc),
        (InstKind::Call, _) => {
            core.bpred_mut().update_target(pc, r.next_pc);
            core.bpred_mut().push_return(r.pc + 1);
        }
        (InstKind::Ret, _) => {
            let _ = core.bpred_mut().pop_return();
        }
        _ => {}
    }
}

/// `n` configurations drawn from `seed`, with a repeat whenever `n > 1`.
fn lane_configs(seed: u64, n: usize) -> Vec<UarchConfig> {
    let mut cfgs: Vec<UarchConfig> = (0..n as u64).map(|k| random_config(seed * 7 + k)).collect();
    if n > 1 {
        cfgs[n - 1] = cfgs[0].clone();
    }
    cfgs
}

fn assert_lanes_match_oracle(prog: &Program, cfgs: &[UarchConfig], sample: &SampleConfig) {
    let many = simulate_sampled_many(prog, cfgs, sample);
    match many {
        Ok(results) => {
            assert_eq!(results.len(), cfgs.len());
            for (k, (cfg, got)) in cfgs.iter().zip(&results).enumerate() {
                let want = oracle_sampled(prog, cfg, sample).expect("oracle succeeds too");
                assert_eq!(got, &want, "lane {} of {} diverged", k, cfgs.len());
            }
        }
        Err(e) => {
            for cfg in cfgs {
                assert_eq!(oracle_sampled(prog, cfg, sample), Err(e.clone()));
            }
        }
    }
}

/// Instructions `prog` retires before it halts.
fn dynamic_length(prog: &Program) -> u64 {
    let mut emu = Emulator::new(prog);
    emu.run(u64::MAX).unwrap();
    emu.retired_count()
}

#[test]
fn lockstep_survives_a_chunk_boundary_inside_a_unit() {
    // 4096-record chunks against a 1050-instruction unit: boundaries fall
    // inside warm-up, window and warming phases alike.
    let prog = random_program_scaled(3, 20);
    let sample = SampleConfig {
        window: 150,
        interval: 7,
        warmup: 300,
        fuel: u64::MAX,
    };
    assert!(
        dynamic_length(&prog) > 3 * 4096,
        "program too short for the test"
    );
    let cfgs = lane_configs(3, 4);
    assert_lanes_match_oracle(&prog, &cfgs, &sample);
    assert!(simulate_sampled_many(&prog, &cfgs, &sample).unwrap()[0].windows > 5);
}

#[test]
fn lockstep_reports_fuel_exhausted_mid_chunk() {
    let prog = random_program_scaled(5, 4);
    let len = dynamic_length(&prog);
    let cfgs = lane_configs(5, 3);
    let mut sample = SampleConfig {
        window: 100,
        interval: 5,
        warmup: 100,
        fuel: len - 1,
    };
    assert_ne!(sample.fuel % 4096, 0, "fuel must run out mid-chunk");
    assert_eq!(
        simulate_sampled_many(&prog, &cfgs, &sample),
        Err(EmuError::OutOfFuel)
    );
    assert_eq!(
        oracle_sampled(&prog, &cfgs[0], &sample),
        Err(EmuError::OutOfFuel)
    );
    // Exactly enough fuel to reach the halt succeeds.
    sample.fuel = len;
    assert_lanes_match_oracle(&prog, &cfgs, &sample);
}

#[test]
fn lockstep_programs_shorter_than_a_unit_are_exact() {
    let prog = random_program(13);
    let sample = SampleConfig::default();
    // Shorter than warm-up plus window: no window ever completes.
    assert!(dynamic_length(&prog) < sample.warmup + sample.window);
    let cfgs = lane_configs(9, 3);
    let results = simulate_sampled_many(&prog, &cfgs, &sample).unwrap();
    for (cfg, res) in cfgs.iter().zip(&results) {
        assert_eq!(res.windows, 0);
        assert_eq!(res.cycles, simulate(&prog, cfg).unwrap().cycles);
    }
    assert_lanes_match_oracle(&prog, &cfgs, &sample);
}

#[test]
fn lockstep_with_no_configurations_is_empty() {
    let prog = random_program(1);
    assert_eq!(
        simulate_sampled_many(&prog, &[], &SampleConfig::default()),
        Ok(Vec::new())
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lockstep_lanes_equal_the_reference_loop(
        pseed in 0u64..500,
        scale in 1i64..8,
        cseed in 0u64..500,
        lanes in 1usize..7,
        window in 50u64..400,
        interval in 2u64..9,
        warmup in 0u64..500,
    ) {
        let prog = random_program_scaled(pseed, scale);
        let sample = SampleConfig { window, interval, warmup, fuel: u64::MAX };
        assert_lanes_match_oracle(&prog, &lane_configs(cseed, lanes), &sample);
    }

    #[test]
    fn timing_is_transparent_to_architecture(pseed in 0u64..500, cseed in 0u64..500) {
        let prog = random_program(pseed);
        let cfg = random_config(cseed);
        let functional = Emulator::new(&prog).run(50_000_000).unwrap();
        let timed = simulate(&prog, &cfg).unwrap();
        prop_assert_eq!(functional, timed.exit_value);
        // Physical bounds: cycles at least insts/width, at most insts * the
        // worst-case per-instruction latency.
        let min = timed.instructions / cfg.issue_width as u64;
        prop_assert!(timed.cycles >= min, "{} < {}", timed.cycles, min);
        let max = timed.instructions
            * (cfg.dl1_latency + cfg.ul2_latency + cfg.mem_latency + 40) as u64
            + 1000;
        prop_assert!(timed.cycles <= max, "{} > {}", timed.cycles, max);
    }

    #[test]
    fn sampled_simulation_matches_architecture_too(pseed in 0u64..200) {
        let prog = random_program(pseed);
        let cfg = UarchConfig::typical();
        let functional = Emulator::new(&prog).run(50_000_000).unwrap();
        let sample = SampleConfig { window: 200, interval: 5, warmup: 300, fuel: u64::MAX };
        let sampled = simulate_sampled(&prog, &cfg, &sample).unwrap();
        prop_assert_eq!(functional, sampled.exit_value);
        prop_assert!(sampled.cycles > 0);
    }

    #[test]
    fn slower_memory_never_speeds_programs_up(pseed in 0u64..200) {
        let prog = random_program(pseed);
        let mut fast = UarchConfig::typical();
        fast.mem_latency = 50;
        let mut slow = UarchConfig::typical();
        slow.mem_latency = 150;
        let f = simulate(&prog, &fast).unwrap();
        let s = simulate(&prog, &slow).unwrap();
        prop_assert!(s.cycles >= f.cycles, "slow {} < fast {}", s.cycles, f.cycles);
    }
}
