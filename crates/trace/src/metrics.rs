//! In-memory metrics aggregated from the event stream.

use crate::event::Event;
use crate::json::{escape, ToJson};
use std::collections::BTreeMap;

/// Retire-count width of one taint-density window.
pub const DENSITY_WINDOW: u64 = 1024;

/// Hit/miss counters for one cache level, as observed through events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelCounters {
    /// Probes that hit.
    pub hits: u64,
    /// Probes that missed.
    pub misses: u64,
}

impl LevelCounters {
    /// Fraction of probes that hit, or 0 when the level was never probed.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Aggregated view of one run, produced by [`MetricsCollector::snapshot`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Instructions retired.
    pub retired: u64,
    /// Retired instructions that touched at least one tainted operand.
    pub tainted_retired: u64,
    /// Labeled taint sources observed.
    pub taint_sources: u64,
    /// Total bytes tainted by those sources.
    pub source_bytes: u64,
    /// Taint propagation transfers observed.
    pub propagations: u64,
    /// Transfers broken down by propagation-rule name.
    pub propagations_by_rule: BTreeMap<&'static str, u64>,
    /// Pointer checks that saw a tainted pointer.
    pub pointer_checks: u64,
    /// Alerts raised.
    pub alerts: u64,
    /// Alerts broken down by kind.
    pub alerts_by_kind: BTreeMap<&'static str, u64>,
    /// Syscalls handled, by mnemonic.
    pub syscalls: BTreeMap<&'static str, u64>,
    /// L1/L2 probe counters (index 0 = L1).
    pub cache: [LevelCounters; 2],
    /// Pointer-taintedness checks skipped at statically proven-clean sites.
    pub elided_checks: u64,
    /// Check sites the static analyzer proved clean (from the boot-time
    /// [`Event::StaticAnalysis`] summary; zero when analysis never ran).
    pub statically_proven: u64,
    /// Faults the injection harness applied (zero outside campaigns).
    pub faults_injected: u64,
    /// Applied faults broken down by fault-kind name.
    pub faults_by_kind: BTreeMap<&'static str, u64>,
    /// Tainted-retire fraction per [`DENSITY_WINDOW`]-instruction window,
    /// in execution order — the taint-density-over-time histogram.
    pub taint_density: Vec<f64>,
}

impl ToJson for MetricsSnapshot {
    fn to_json(&self) -> String {
        let map = |m: &BTreeMap<&'static str, u64>| -> String {
            let fields: Vec<String> = m
                .iter()
                .map(|(k, v)| format!("{}:{v}", escape(k)))
                .collect();
            format!("{{{}}}", fields.join(","))
        };
        let density: Vec<String> = self
            .taint_density
            .iter()
            .map(|d| format!("{d:.6}"))
            .collect();
        format!(
            concat!(
                "{{\"retired\":{},\"tainted_retired\":{},\"taint_sources\":{},",
                "\"source_bytes\":{},\"propagations\":{},\"propagations_by_rule\":{},",
                "\"pointer_checks\":{},\"alerts\":{},\"alerts_by_kind\":{},",
                "\"syscalls\":{},\"cache\":[{{\"hits\":{},\"misses\":{}}},{{\"hits\":{},\"misses\":{}}}],",
                "\"elided_checks\":{},\"statically_proven\":{},",
                "\"faults_injected\":{},\"faults_by_kind\":{},",
                "\"taint_density\":[{}]}}"
            ),
            self.retired,
            self.tainted_retired,
            self.taint_sources,
            self.source_bytes,
            self.propagations,
            map(&self.propagations_by_rule),
            self.pointer_checks,
            self.alerts,
            map(&self.alerts_by_kind),
            map(&self.syscalls),
            self.cache[0].hits,
            self.cache[0].misses,
            self.cache[1].hits,
            self.cache[1].misses,
            self.elided_checks,
            self.statically_proven,
            self.faults_injected,
            map(&self.faults_by_kind),
            density.join(","),
        )
    }
}

/// Streams events into a [`MetricsSnapshot`].
#[derive(Debug, Default)]
pub struct MetricsCollector {
    snap: MetricsSnapshot,
    window_retired: u64,
    window_tainted: u64,
}

impl MetricsCollector {
    /// A collector with all counters at zero.
    #[must_use]
    pub fn new() -> MetricsCollector {
        MetricsCollector::default()
    }

    /// Folds one event into the counters.
    pub fn record(&mut self, event: &Event) {
        match event {
            Event::Retire { tainted, .. } => {
                self.snap.retired += 1;
                self.window_retired += 1;
                if *tainted {
                    self.snap.tainted_retired += 1;
                    self.window_tainted += 1;
                }
                if self.window_retired == DENSITY_WINDOW {
                    self.flush_window();
                }
            }
            Event::TaintSource { len, .. } => {
                self.snap.taint_sources += 1;
                self.snap.source_bytes += u64::from(*len);
            }
            Event::TaintPropagate(t) => {
                self.snap.propagations += 1;
                *self.snap.propagations_by_rule.entry(t.rule).or_insert(0) += 1;
            }
            Event::PointerCheck { .. } => self.snap.pointer_checks += 1,
            Event::Alert { kind, .. } => {
                self.snap.alerts += 1;
                *self.snap.alerts_by_kind.entry(kind).or_insert(0) += 1;
            }
            Event::Syscall { name, .. } => {
                *self.snap.syscalls.entry(name).or_insert(0) += 1;
            }
            Event::CacheAccess { level, hit, .. } => {
                let idx = usize::from(*level).saturating_sub(1).min(1);
                if *hit {
                    self.snap.cache[idx].hits += 1;
                } else {
                    self.snap.cache[idx].misses += 1;
                }
            }
            Event::StaticAnalysis { proven, .. } => {
                self.snap.statically_proven += proven;
            }
            Event::CheckElided { .. } => self.snap.elided_checks += 1,
            Event::FaultInjected { kind, .. } => {
                self.snap.faults_injected += 1;
                *self.snap.faults_by_kind.entry(kind).or_insert(0) += 1;
            }
            // Replay divergences and degraded-mode transitions carry no
            // counters of their own (degradations are counted in
            // `ExecStats::integrity_failures`).
            Event::ReplayDivergence { .. } | Event::DegradedMode { .. } => {}
        }
    }

    fn flush_window(&mut self) {
        if self.window_retired > 0 {
            self.snap
                .taint_density
                .push(self.window_tainted as f64 / self.window_retired as f64);
        }
        self.window_retired = 0;
        self.window_tainted = 0;
    }

    /// Finishes the trailing density window and returns the totals.
    #[must_use]
    pub fn snapshot(mut self) -> MetricsSnapshot {
        self.flush_window();
        self.snap
    }

    /// A point-in-time copy of the totals *without* consuming the collector
    /// — the trailing partial density window is appended to the copy but
    /// collection continues unperturbed. Drives the periodic
    /// `metrics_snapshot` records of `--metrics-interval`.
    #[must_use]
    pub fn peek(&self) -> MetricsSnapshot {
        let mut snap = self.snap.clone();
        if self.window_retired > 0 {
            snap.taint_density
                .push(self.window_tainted as f64 / self.window_retired as f64);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptaint_isa::Instr;

    fn retire(tainted: bool) -> Event {
        Event::Retire {
            pc: 0x400000,
            instr: Instr::Break { code: 0 },
            tainted,
        }
    }

    #[test]
    fn density_windows_capture_the_tainted_fraction() {
        let mut m = MetricsCollector::new();
        for i in 0..DENSITY_WINDOW {
            m.record(&retire(i < DENSITY_WINDOW / 4));
        }
        for _ in 0..10 {
            m.record(&retire(true));
        }
        let snap = m.snapshot();
        assert_eq!(snap.retired, DENSITY_WINDOW + 10);
        assert_eq!(snap.tainted_retired, DENSITY_WINDOW / 4 + 10);
        assert_eq!(snap.taint_density.len(), 2);
        assert!((snap.taint_density[0] - 0.25).abs() < 1e-9);
        assert!((snap.taint_density[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_maps_count_by_name() {
        let mut m = MetricsCollector::new();
        m.record(&Event::Syscall {
            pc: 0,
            number: 46,
            name: "recv",
            result: 16,
        });
        m.record(&Event::Syscall {
            pc: 4,
            number: 46,
            name: "recv",
            result: 0,
        });
        m.record(&Event::TaintSource {
            kind: "syscall",
            label: "recv#1".to_string(),
            base: 0x1000,
            len: 16,
        });
        let snap = m.snapshot();
        assert_eq!(snap.syscalls.get("recv"), Some(&2));
        assert_eq!(snap.taint_sources, 1);
        assert_eq!(snap.source_bytes, 16);
        let json = snap.to_json();
        assert!(json.contains("\"syscalls\":{\"recv\":2}"), "{json}");
    }

    #[test]
    fn fault_injection_counters_fold_by_kind() {
        let mut m = MetricsCollector::new();
        for kind in ["taint_clear", "short_read", "taint_clear"] {
            m.record(&Event::FaultInjected {
                kind,
                detail: "x".to_string(),
            });
        }
        let snap = m.snapshot();
        assert_eq!(snap.faults_injected, 3);
        assert_eq!(snap.faults_by_kind.get("taint_clear"), Some(&2));
        let json = snap.to_json();
        assert!(
            json.contains(
                "\"faults_injected\":3,\"faults_by_kind\":{\"short_read\":1,\"taint_clear\":2}"
            ),
            "{json}"
        );
    }

    #[test]
    fn elision_counters_fold_from_both_events() {
        let mut m = MetricsCollector::new();
        m.record(&Event::StaticAnalysis {
            functions: 4,
            blocks: 20,
            proven: 13,
            flagged: 2,
        });
        for pc in [0x400010, 0x400010, 0x400024] {
            m.record(&Event::CheckElided { pc });
        }
        let snap = m.snapshot();
        assert_eq!(snap.statically_proven, 13);
        assert_eq!(snap.elided_checks, 3);
        let json = snap.to_json();
        assert!(
            json.contains("\"elided_checks\":3,\"statically_proven\":13"),
            "{json}"
        );
    }
}
