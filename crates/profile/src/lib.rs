//! # ptaint-profile — guest-level profiling for the taint architecture
//!
//! The paper sells pointer-taintedness detection on cost; this crate says
//! *where the cycles go*. Four parts, all byte-deterministic (counts
//! only — no wall-clock data ever enters a report):
//!
//! * [`PcHistogram`] — a per-PC retirement histogram in per-text-page
//!   counter arrays (the same page/slot layout as the decode cache: one
//!   1024-slot array per 4 KiB page, last-page shortcut).
//! * [`CallTree`] — a lightweight shadow call stack driven by the retired
//!   instruction stream (`jal`/`jalr` push, `jr $ra` pops), folded into a
//!   tree of call paths with exclusive retire counts. Rendered as
//!   deterministic collapsed stacks (`main;handle;log_request 123`) —
//!   directly flamegraph-compatible.
//! * [`EventProfile`] — the [`Observer`](ptaint_trace::Observer) that
//!   feeds both from `Event::Retire` and aggregates the rest of the event
//!   stream into a taint heatmap: per-site (pc) propagation/check/alert/
//!   elision counters, taint sources by kind, and per-syscall count +
//!   step-latency accounting. The retire stream is identical under both
//!   engines, so every profile is engine-invariant.
//! * [`ProfileReport`] — the merge of the above, symbolized through a
//!   [`SymbolTable`], with a hand-rolled [`to_json`](ProfileReport::to_json)
//!   (pinned field order, counts only) and a human-readable top-N report
//!   ([`render_text`](ProfileReport::render_text)).
//!
//! The crate depends only on `ptaint-isa` and `ptaint-trace`; symbol
//! names are fed in by the caller (the `Machine` layer reads them off the
//! assembled `Image`).

mod calltree;
mod events;
mod hist;
mod report;
mod symbols;

pub use calltree::CallTree;
pub use events::{EventProfile, SiteCounters, SourceAgg, SyscallAgg};
pub use hist::{PcHistogram, PAGE_SLOTS};
pub use report::{HotPc, ProfileReport, SymbolCount, SyscallRow, TaintSite};
pub use symbols::SymbolTable;
