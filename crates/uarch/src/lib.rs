//! Cycle-level simulation of an out-of-order superscalar processor.
//!
//! Plays the role of the paper's "modified SimpleScalar" (§5): it measures a
//! program's execution time in cycles as a function of the 11 Table 2
//! microarchitectural parameters ([`UarchConfig`]), modeling
//!
//! * a fetch front end with an instruction cache and a *combined* branch
//!   predictor (bimodal + 2-level, sized by the predictor-size parameter),
//! * a register-update-unit (RUU) based out-of-order core with an issue
//!   width that also scales the functional-unit pool,
//! * a load/store queue with store-to-load forwarding,
//! * a two-level cache hierarchy over a fixed-latency DRAM.
//!
//! Timing is computed with a timestamp-propagation model of the pipeline
//! (the style used by interval/trace-driven OoO simulators): every retired
//! instruction from the functional core gets fetch/dispatch/issue/complete/
//! commit times under resource constraints. [`smarts`] layers SMARTS-style
//! systematic sampling with functional warming on top, cutting simulation
//! time by orders of magnitude while bounding the CPI estimation error.
//!
//! # Examples
//!
//! ```
//! use emod_uarch::{simulate, UarchConfig};
//! use emod_isa::{AluOp, Inst, Program, Reg};
//!
//! let prog = Program::from_insts(vec![
//!     Inst::LoadImm { rd: Reg(1), imm: 0 },
//!     Inst::AluImm { op: AluOp::Add, rd: Reg(1), rs: Reg(1), imm: 1 },
//!     Inst::Halt,
//! ]);
//! let result = simulate(&prog, &UarchConfig::typical()).unwrap();
//! assert!(result.cycles > 0);
//! ```

#![warn(missing_docs)]

mod bpred;
mod cache;
mod config;
mod core;
mod memsys;
pub mod smarts;

pub use bpred::BranchPredictor;
pub use cache::{Cache, CacheStats};
pub use config::{FuPoolConfig, UarchConfig};
pub use core::{energy_cost, op_energy, Core, CpiStack, PipeStats, SimResult};
pub use memsys::{AccessKind, MemSys};
pub use smarts::{simulate, simulate_sampled, simulate_sampled_many, SampleConfig, SampledResult};

// The measurement pool (`emod-par`) ships simulation inputs to worker
// threads and results back; this audit pins the whole `simulate_sampled`
// surface as `Send + Sync` at compile time so a non-thread-safe field
// (an `Rc`, a raw pointer, interior mutability) can never sneak into the
// simulator and silently break parallel campaigns.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<UarchConfig>();
    assert_send_sync::<SampleConfig>();
    assert_send_sync::<SampledResult>();
    assert_send_sync::<SimResult>();
    assert_send_sync::<emod_isa::Program>();
};
