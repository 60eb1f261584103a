//! The composite observer wiring sinks together, plus its configuration
//! and the report extracted after a run.

use crate::event::Event;
use crate::json::ToJson;
use crate::jsonl::JsonlSink;
use crate::metrics::{MetricsCollector, MetricsSnapshot};
use crate::provenance::{ForensicChain, ProvenanceTracker, DEFAULT_RING_DEPTH};
use crate::Observer;
use std::cell::RefCell;
use std::rc::Rc;

/// Which sinks a [`TraceHub`] should run.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Buffer the full event stream as JSON Lines.
    pub jsonl: bool,
    /// Aggregate a [`MetricsSnapshot`].
    pub metrics: bool,
    /// Track taint provenance and build forensic chains on alerts.
    pub provenance: bool,
    /// Capacity of the provenance propagation ring.
    pub ring_depth: usize,
    /// Interleave a `metrics_snapshot` record into the JSONL stream every N
    /// retired instructions (time-series metrics instead of one final
    /// snapshot). Requires the JSONL sink; implies the metrics sink.
    pub metrics_interval: Option<u64>,
}

impl Default for TraceConfig {
    /// Everything off; enable the sinks you need.
    fn default() -> TraceConfig {
        TraceConfig {
            jsonl: false,
            metrics: false,
            provenance: false,
            ring_depth: DEFAULT_RING_DEPTH,
            metrics_interval: None,
        }
    }
}

impl TraceConfig {
    /// Enables every sink — what `--trace-out --provenance --metrics-out`
    /// together ask for.
    #[must_use]
    pub fn all() -> TraceConfig {
        TraceConfig {
            jsonl: true,
            metrics: true,
            provenance: true,
            ring_depth: DEFAULT_RING_DEPTH,
            metrics_interval: None,
        }
    }

    /// Whether any sink is enabled (if not, skip attaching an observer).
    #[must_use]
    pub fn any(&self) -> bool {
        self.jsonl || self.metrics || self.provenance || self.metrics_interval.is_some()
    }
}

/// What a [`TraceHub`] collected over one run.
#[derive(Debug, Default)]
pub struct TraceReport {
    /// The JSONL event stream, when enabled.
    pub jsonl: Option<Vec<u8>>,
    /// Aggregated metrics, when enabled.
    pub metrics: Option<MetricsSnapshot>,
    /// Forensic chain of the last alert, when provenance was enabled and an
    /// alert fired.
    pub forensic: Option<ForensicChain>,
}

/// Fans events out to the enabled sinks.
#[derive(Debug, Default)]
pub struct TraceHub {
    jsonl: Option<JsonlSink>,
    metrics: Option<MetricsCollector>,
    provenance: Option<ProvenanceTracker>,
    /// `metrics_snapshot` cadence in retires; `0` = disabled.
    interval: u64,
    /// Retires seen since the last periodic snapshot.
    since_snapshot: u64,
    /// Total retires seen (stamped into each snapshot record).
    retired: u64,
}

impl TraceHub {
    /// A hub running the sinks `cfg` enables. A `metrics_interval` forces
    /// the JSONL and metrics sinks on: the periodic records need a stream
    /// to land in and a collector to snapshot.
    #[must_use]
    pub fn new(cfg: &TraceConfig) -> TraceHub {
        let interval = cfg.metrics_interval.unwrap_or(0);
        TraceHub {
            jsonl: (cfg.jsonl || interval > 0).then(JsonlSink::new),
            metrics: (cfg.metrics || interval > 0).then(MetricsCollector::new),
            provenance: cfg
                .provenance
                .then(|| ProvenanceTracker::new(cfg.ring_depth)),
            interval,
            since_snapshot: 0,
            retired: 0,
        }
    }

    /// A hub wrapped for sharing with the emulator's observer slots.
    #[must_use]
    pub fn shared(cfg: &TraceConfig) -> Rc<RefCell<TraceHub>> {
        Rc::new(RefCell::new(TraceHub::new(cfg)))
    }

    /// Read access to the provenance tracker, when enabled.
    #[must_use]
    pub fn provenance(&self) -> Option<&ProvenanceTracker> {
        self.provenance.as_ref()
    }

    /// Consumes the hub into its collected artifacts.
    #[must_use]
    pub fn into_report(self) -> TraceReport {
        TraceReport {
            jsonl: self.jsonl.map(JsonlSink::into_bytes),
            metrics: self.metrics.map(MetricsCollector::snapshot),
            forensic: self.provenance.and_then(ProvenanceTracker::into_last_chain),
        }
    }
}

impl Observer for TraceHub {
    #[inline]
    fn on_event(&mut self, event: &Event) {
        if let Some(jsonl) = &mut self.jsonl {
            jsonl.record(event);
        }
        if let Some(metrics) = &mut self.metrics {
            metrics.record(event);
        }
        if let Some(provenance) = &mut self.provenance {
            provenance.record(event);
        }
        // Periodic time-series snapshot, after the retire has been folded so
        // the record covers everything up to and including it.
        if self.interval > 0 && matches!(event, Event::Retire { .. }) {
            self.retired += 1;
            self.since_snapshot += 1;
            if self.since_snapshot == self.interval {
                self.since_snapshot = 0;
                let snap = self
                    .metrics
                    .as_ref()
                    .expect("interval forces the metrics sink")
                    .peek();
                let fields = format!(
                    "\"event\":\"metrics_snapshot\",\"retired\":{},\"metrics\":{}",
                    self.retired,
                    snap.to_json()
                );
                self.jsonl
                    .as_mut()
                    .expect("interval forces the jsonl sink")
                    .record_fields(&fields);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hub_collects_nothing() {
        let mut hub = TraceHub::new(&TraceConfig::default());
        hub.on_event(&Event::CacheAccess {
            level: 1,
            addr: 0,
            hit: true,
        });
        let report = hub.into_report();
        assert!(report.jsonl.is_none());
        assert!(report.metrics.is_none());
        assert!(report.forensic.is_none());
    }

    #[test]
    fn metrics_interval_interleaves_snapshot_records() {
        let cfg = TraceConfig {
            metrics_interval: Some(2),
            ..TraceConfig::default()
        };
        assert!(cfg.any(), "an interval alone must attach the observer");
        let mut hub = TraceHub::new(&cfg);
        for i in 0..5u32 {
            hub.on_event(&Event::CheckElided { pc: i * 4 });
            hub.on_event(&Event::Retire {
                pc: i * 4,
                instr: ptaint_isa::Instr::Break { code: 0 },
                tainted: i % 2 == 0,
            });
        }
        let report = hub.into_report();
        let jsonl = String::from_utf8(report.jsonl.unwrap()).unwrap();
        let snapshots: Vec<&str> = jsonl
            .lines()
            .filter(|l| l.contains("\"event\":\"metrics_snapshot\""))
            .collect();
        // 5 retires at interval 2 => snapshots after retire 2 and 4.
        assert_eq!(snapshots.len(), 2);
        assert!(
            snapshots[0].contains("\"retired\":2,\"metrics\":{\"retired\":2,"),
            "{}",
            snapshots[0]
        );
        assert!(snapshots[1].contains("\"retired\":4"), "{}", snapshots[1]);
        // The snapshot reflects the stream so far (2 elisions by retire 2).
        assert!(
            snapshots[0].contains("\"elided_checks\":2"),
            "{}",
            snapshots[0]
        );
        // Sequence numbers stay dense across interleaved records: 10 events
        // + 2 snapshots = 12 lines numbered 0..=11.
        assert_eq!(jsonl.lines().count(), 12);
        assert!(jsonl.lines().last().unwrap().starts_with("{\"seq\":11,"));
        // The final consuming snapshot still works and saw every retire.
        assert_eq!(report.metrics.unwrap().retired, 5);
    }

    #[test]
    fn all_sinks_receive_the_event() {
        let mut hub = TraceHub::new(&TraceConfig::all());
        hub.on_event(&Event::TaintSource {
            kind: "argv",
            label: "argv[1]".to_string(),
            base: 0x7fff_0000,
            len: 8,
        });
        let report = hub.into_report();
        let jsonl = String::from_utf8(report.jsonl.unwrap()).unwrap();
        assert!(jsonl.contains("\"event\":\"taint_source\""));
        assert_eq!(report.metrics.unwrap().taint_sources, 1);
    }
}
