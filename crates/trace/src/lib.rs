#![warn(missing_docs)]

//! # ptaint-trace — structured tracing and taint provenance
//!
//! The DSN 2005 paper's key diagnostic artifact is the alert transcript
//! (Table 2: `44d7b0: sw $21,0($3)  $3=0x1002bc20`), which says *that* a
//! tainted pointer was dereferenced. This crate adds the *where from* and
//! *how*: a structured [`Event`] stream emitted by the emulator, and sinks
//! that turn it into a JSONL trace ([`JsonlSink`]), run metrics
//! ([`MetricsSnapshot`]), and a forensic provenance chain
//! ([`ForensicChain`]) from the tainting input byte to the dereferenced
//! pointer.
//!
//! ## Zero cost when disabled
//!
//! The CPU owns an `Option<Box<dyn Observer>>`; when it is `None` (the
//! default) every hook is a single branch on a `None` discriminant and no
//! event is ever constructed. Labels and other allocations happen only
//! behind an is-some check at the source site. An attached observer whose
//! [`Observer::wants_retire`] is `false` (a provenance-only [`TraceHub`])
//! is spared the per-instruction [`Event::Retire`] call as well.
//!
//! ## Wiring
//!
//! ```
//! use ptaint_trace::{Event, Observer, TraceConfig, TraceHub};
//!
//! let mut observer: Box<dyn Observer> = Box::new(TraceHub::new(&TraceConfig::all()));
//! // The CPU would own `observer` and call on_event at its hooks:
//! observer.on_event(&Event::TaintSource {
//!     kind: "syscall",
//!     label: "recv#1 fd=4".to_string(),
//!     base: 0x1000_0000,
//!     len: 512,
//! });
//! // ...and hand it back after the run, for a downcast to the concrete sink:
//! let observer: Box<dyn std::any::Any> = observer;
//! let report = observer.downcast::<TraceHub>().unwrap().into_report();
//! assert_eq!(report.metrics.unwrap().taint_sources, 1);
//! ```

use std::any::Any;

mod event;
mod hub;
pub mod json;
mod jsonl;
mod metrics;
mod provenance;

pub use event::{Event, Loc, Transfer};
pub use hub::{TraceConfig, TraceHub, TraceReport};
pub use json::ToJson;
pub use jsonl::JsonlSink;
pub use metrics::{MetricsCollector, MetricsSnapshot, DENSITY_WINDOW};
pub use provenance::{ForensicChain, ProvenanceTracker, SourceInfo, DEFAULT_RING_DEPTH};

/// Receives the structured event stream from the emulator.
///
/// Implementations must tolerate any event ordering the emulator produces;
/// in particular `Alert` may or may not be followed by further events
/// depending on the active detection policy.
///
/// The CPU owns its observer as a `Box<dyn Observer>`; the OS model and the
/// loader emit through the CPU. `Any` lets the owner downcast the box it
/// takes back after a run, and `Send + Sync` keeps a CPU (and every
/// checkpoint holding one) shareable across campaign workers.
pub trait Observer: Any + Send + Sync {
    /// Called once per emitted event.
    fn on_event(&mut self, event: &Event);

    /// Whether this observer folds [`Event::Retire`]. The CPU reads it
    /// once, when the observer is attached, and emits no retire events to
    /// an observer that answers `false` — the per-instruction call is the
    /// bulk of the stream, and sinks such as provenance never look at it.
    fn wants_retire(&self) -> bool {
        true
    }
}
