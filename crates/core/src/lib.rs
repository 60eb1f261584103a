#![warn(missing_docs)]

//! # ptaint — pointer taintedness detection (DSN 2005) in Rust
//!
//! A full reproduction of *"Defeating Memory Corruption Attacks via Pointer
//! Taintedness Detection"* (S. Chen, J. Xu, N. Nakka, Z. Kalbarczyk,
//! R. K. Iyer — DSN 2005): a taint-tracking RISC processor in which every
//! byte of memory and every register byte carries a taintedness bit, input
//! from the outside world arrives tainted, ALU instructions propagate
//! taintedness (the paper's Table 1), and **dereferencing a tainted word —
//! as a load/store address or an indirect-jump target — raises a security
//! exception**, defeating both control-data and non-control-data memory
//! corruption attacks.
//!
//! ## Quick start
//!
//! ```
//! use ptaint::{DetectionPolicy, Machine, WorldConfig};
//!
//! // A classic stack smash: unbounded read into a 10-byte buffer.
//! let machine = Machine::from_c(r#"
//!     void vulnerable() {
//!         char buf[10];
//!         scanf("%s", buf);
//!     }
//!     int main() { vulnerable(); return 0; }
//! "#)?
//! .world(WorldConfig::new().stdin(vec![b'a'; 24]))
//! .policy(DetectionPolicy::PointerTaintedness);
//!
//! let outcome = machine.run();
//! let alert = outcome.reason.alert().expect("attack detected");
//! assert_eq!(alert.instr.to_string(), "jr $31");    // at the return
//! assert_eq!(alert.pointer, 0x61616161);            // the attacker's bytes
//! # Ok::<(), ptaint::BuildError>(())
//! ```
//!
//! ## Layout of the reproduction
//!
//! * [`Machine`] — build (mini-C or assembly) and run guest programs under
//!   a chosen [`DetectionPolicy`] and memory hierarchy;
//! * [`experiments`] — one entry point per table/figure of the paper's
//!   evaluation (§5): the synthetic attacks of Figure 2, the WU-FTPD
//!   transcript of Table 2, the false-positive workloads of Table 3, the
//!   false-negative trio of Table 4, the §5.1 coverage comparison against a
//!   Minos-style control-only baseline, and the §5.4 overhead accounting;
//! * [`cert`] — the CERT advisory breakdown behind Figure 1.
//!
//! The underlying substrates are re-exported: the ISA (`ptaint_isa`), the
//! taint-extended memory system (`ptaint_mem`), the CPU and pipeline model
//! (`ptaint_cpu`), the virtual OS (`ptaint_os`), the assembler
//! (`ptaint_asm`), the mini-C compiler (`ptaint_cc`), and the guest
//! programs (`ptaint_guest`).

pub mod cert;
pub mod experiments;
mod machine;

pub use machine::{Machine, MachineSnapshot, RunArtifacts, RunConfig};

// The user-facing vocabulary, re-exported from the substrate crates.
pub use ptaint_analyze::{
    analyze, analyze_with, render_report, Analysis, AnalyzeStats, Finding, SiteKind,
};
pub use ptaint_asm::{assemble, disassemble, AsmError, Image};
pub use ptaint_cc::compile;
pub use ptaint_cpu::pipeline::{Pipeline, PipelineReport};
pub use ptaint_cpu::{
    AlertKind, Cpu, CpuException, DetectionPolicy, Engine, ExecStats, SecurityAlert, StepEvent,
    TaintRules, TaintWatch,
};
pub use ptaint_guest::{BuildError, LIBC_C};
pub use ptaint_inject::{
    classify, classify_fault, CampaignReport, CampaignSpec, Fault, FaultKind, OutcomeClass,
    SplitMix64, StateInjector, TrialRecord, TrialRun,
};
pub use ptaint_mem::{CacheConfig, HierarchyConfig, MemorySystem, TaintedMemory, WordTaint};
pub use ptaint_os::{
    load, load_with_observer, run_to_exit, run_to_exit_with, DeliveredInput, ExitReason, IoFault,
    IoFaultPlan, JournalEntry, JournalFormatError, NetSession, Os, ReplayDivergence, RunLimits,
    RunOutcome, StepHook, Sys, SyscallJournal, WorldConfig, EINTR,
};
pub use ptaint_profile::{
    EventProfile, ProfileReport, SymbolCount, SymbolTable, SyscallRow, TaintSite,
};
pub use ptaint_trace::{
    Event, ForensicChain, MetricsSnapshot, Observer, SharedObserver, ToJson, TraceConfig, TraceHub,
    TraceReport,
};
