#![warn(missing_docs)]

//! # ptaint-guest — guest-side programs for the taintedness testbed
//!
//! Everything that runs *inside* the simulated machine lives here:
//!
//! * [`runtime`] — crt0, syscall stubs, the guest libc (written in mini-C,
//!   including the vulnerable `malloc`/`free` with classic unlink, `printf`
//!   with `%n`, unbounded `scanf("%s")`/`gets`/`strcpy`), and the
//!   [`runtime::build`] pipeline producing loadable images. Libc is
//!   compiled and assembled once per cargo build by `build.rs`; `build`
//!   compiles and assembles only the application, crt0 and the stubs
//!   after it;
//! * [`apps`] — the paper's victim programs: the synthetic exp1/exp2/exp3
//!   of Figure 2, the real-world-style network daemons of §5.1.2 (WU-FTPD,
//!   NULL HTTPD, GHTTPD, traceroute), and the Table 4 false-negative trio —
//!   each with attack payload builders and benign inputs, catalogued as
//!   labelled scenarios by [`apps::suite`];
//! * [`workloads`] — six SPEC 2000-like benchmark programs for the
//!   false-positive experiment of Table 3.

#[path = "apps/mod.rs"]
pub mod apps;
pub mod runtime;
pub mod workloads;

pub use runtime::{build, build_optimized, BuildError, CRT0_ASM, LIBC_C, SYSCALL_STUBS_ASM};
