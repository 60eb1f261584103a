#![warn(missing_docs)]

//! # ptaint-os — the virtual operating system substrate
//!
//! The paper's prototype modifies SimpleScalar's system-call module so that
//! all data delivered through `SYS_READ` (local I/O) and `SYS_RECV` (network
//! I/O) is **marked tainted** when it crosses from kernel space to user space
//! (§4.4). This crate is that kernel:
//!
//! * [`Sys`] — the syscall table (exit/read/write/open/close/brk/socket/
//!   bind/listen/accept/recv/send/…);
//! * [`WorldConfig`] — everything outside the process: stdin bytes, an
//!   in-memory file system, scripted network clients, `argv`/`envp`;
//! * [`Os`] — the runtime kernel state handling syscall traps against a
//!   `ptaint_cpu::Cpu`;
//! * [`load`] — the program loader: maps a [`ptaint_asm::Image`], builds the
//!   initial stack with `argv`/`envp` (whose *string bytes arrive tainted* —
//!   command-line arguments and environment variables are attacker-
//!   controllable external input per §4.4), and sets the program break;
//! * [`run_to_exit`] — the driver loop producing a [`RunOutcome`].
//!
//! Taint enters the system **only** here: through `read`/`recv` buffer
//! copies and the loader's `argv`/`envp` strings. Everything after that is
//! the CPU's Table-1 propagation.

mod faults;
mod journal;
mod loader;
mod os;
mod run;
mod world;

pub use faults::{IoFault, IoFaultPlan, EINTR};
pub use journal::{
    DeliveredInput, JournalEntry, JournalFormatError, ReplayDivergence, SyscallJournal,
};
pub use loader::{exit_stub, load, load_with_observer, EXIT_STUB_BYTES};
pub use os::{Os, Sys};
pub use run::{
    resume_to_exit_with, run_to_exit, run_to_exit_with, ExitReason, RunLimits, RunOutcome,
    StepHook, WATCHDOG_STRIDE,
};
pub use world::{NetSession, WorldConfig};
