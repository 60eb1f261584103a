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
//! The emulator holds an `Option<SharedObserver>`; when it is `None` (the
//! default) every hook is a single branch on a `None` discriminant and no
//! event is ever constructed. Labels and other allocations happen only
//! behind an is-some check at the source site.
//!
//! ## Wiring
//!
//! ```
//! use ptaint_trace::{Event, Observer, TraceConfig, TraceHub};
//!
//! let hub = TraceHub::shared(&TraceConfig::all());
//! // The emulator would hold a clone of `hub` and call on_event at hooks:
//! hub.borrow_mut().on_event(&Event::TaintSource {
//!     kind: "syscall",
//!     label: "recv#1 fd=4".to_string(),
//!     base: 0x1000_0000,
//!     len: 512,
//! });
//! let report = std::rc::Rc::try_unwrap(hub).unwrap().into_inner().into_report();
//! assert_eq!(report.metrics.unwrap().taint_sources, 1);
//! ```

use std::cell::RefCell;
use std::rc::Rc;

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
pub trait Observer {
    /// Called once per emitted event.
    fn on_event(&mut self, event: &Event);
}

/// The shape the emulator holds observers in. The emulator is
/// single-threaded, so `Rc<RefCell<…>>` is the right amount of machinery.
/// The CPU holds the only clone inside the emulator; the OS model and the
/// loader emit through it.
pub type SharedObserver = Rc<RefCell<dyn Observer>>;
