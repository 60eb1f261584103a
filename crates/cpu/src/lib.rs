#![warn(missing_docs)]

//! # ptaint-cpu — the taint-tracking processor
//!
//! This crate implements the processor architecture of the DSN 2005 paper
//! *"Defeating Memory Corruption Attacks via Pointer Taintedness Detection"*:
//!
//! * a register file in which every register carries four taintedness bits,
//!   one per byte ([`RegisterFile`]);
//! * the **taintedness-tracking ALU** of the paper's Table 1
//!   ([`taint_alu`]) — generic bytewise-OR propagation with the four special
//!   cases (shift smear, AND-with-untainted-zero, the `xor r,s,s` zeroing
//!   idiom, and compare-untaints-operands);
//! * the **pointer taintedness detectors** (paper §4.3): the load/store
//!   detector checks the taint bits of the address word, the jump detector
//!   checks the `jr`/`jalr` target register; a flagged instruction raises a
//!   [`SecurityAlert`] ([`CpuException::Security`]);
//! * three [`DetectionPolicy`] settings — the paper's full pointer
//!   taintedness detection, a *control-data-only* baseline equivalent to
//!   Minos/Secure Program Execution, and off;
//! * a functional executor ([`Cpu`]) and a 5-stage in-order
//!   [`pipeline`] timing model that places the detectors at
//!   ID/EX and EX/MEM and raises the exception at retirement, as in the
//!   paper's Figure 3.
//!
//! The CPU traps to its host on `syscall`; the virtual operating system in
//! `ptaint-os` implements the kernel side (and the taint-marking of input
//! data).

mod alert;
mod cpu;
mod decode_cache;
pub mod pipeline;
mod regs;
mod rules;
mod stats;
pub mod taint_alu;

pub use alert::{AlertKind, DetectionPolicy, SecurityAlert};
pub use cpu::{Cpu, CpuException, Engine, StepEvent, Steppable, TaintWatch, DEFAULT_TRACE_DEPTH};
pub use regs::RegisterFile;
pub use rules::TaintRules;
pub use stats::ExecStats;
