//! The merged profile report: symbolized, JSON-renderable, printable.

use crate::events::EventProfile;
use crate::symbols::SymbolTable;
use ptaint_trace::json::escape;
use ptaint_trace::ToJson;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How many hot pcs the JSON report keeps (the text report trims further).
const HOT_PC_CAP: usize = 32;

/// One row of the per-PC hot list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotPc {
    /// Instruction address.
    pub pc: u32,
    /// `sym+0x1c`-style display name.
    pub symbol: String,
    /// Retirement count.
    pub count: u64,
}

/// Retirements aggregated over one symbol's address range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolCount {
    /// Owning symbol (or raw hex for unsymbolized text).
    pub symbol: String,
    /// Retirement count.
    pub count: u64,
}

/// One taint-heatmap row: a site's taint activity, symbolized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintSite {
    /// Site address.
    pub pc: u32,
    /// `sym+0x1c`-style display name.
    pub symbol: String,
    /// `taint_propagate` events here.
    pub propagations: u64,
    /// `pointer_check` events here.
    pub checks: u64,
    /// Checks that flagged.
    pub flagged: u64,
    /// Alerts raised here.
    pub alerts: u64,
    /// Probes statically elided here.
    pub elided: u64,
}

impl TaintSite {
    fn heat(&self) -> u64 {
        self.propagations + self.checks + self.flagged + self.alerts + self.elided
    }
}

/// One syscall-table row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyscallRow {
    /// Kernel-model syscall name.
    pub name: String,
    /// Invocations.
    pub count: u64,
    /// Guest instructions retired between syscalls, summed per call.
    pub steps: u64,
}

/// The complete profile of one run. Counts only — byte-deterministic for a
/// deterministic guest, regardless of host, engine, or wall-clock.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// Total retired instructions.
    pub steps: u64,
    /// Hottest pcs (top 32, `HOT_PC_CAP`; count desc, pc asc on ties).
    pub hot_pcs: Vec<HotPc>,
    /// Retirements by owning symbol (count desc, name asc on ties).
    pub symbols: Vec<SymbolCount>,
    /// Collapsed call stacks (`a;b;c`, lexicographic by path).
    pub collapsed: Vec<(String, u64)>,
    /// Taint heatmap sites (heat desc, pc asc on ties).
    pub taint_sites: Vec<TaintSite>,
    /// Taint heat aggregated by owning symbol (heat desc, name asc).
    pub taint_symbols: Vec<SymbolCount>,
    /// Taint sources: `(kind, count, bytes)` in kind order.
    pub sources: Vec<(String, u64, u64)>,
    /// Syscall table in name order.
    pub syscalls: Vec<SyscallRow>,
}

impl ProfileReport {
    /// Symbolizes a collected profile into a report.
    #[must_use]
    pub fn build(events: &EventProfile, symbols: &SymbolTable) -> ProfileReport {
        let entries = events.hist.entries();

        // Hottest individual pcs.
        let mut hot_pcs: Vec<(u32, u64)> = entries.clone();
        hot_pcs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hot_pcs.truncate(HOT_PC_CAP);
        let hot_pcs = hot_pcs
            .into_iter()
            .map(|(pc, count)| HotPc {
                pc,
                symbol: symbols.name(pc),
                count,
            })
            .collect();

        // Retirements folded per owning symbol.
        let mut by_symbol: BTreeMap<String, u64> = BTreeMap::new();
        for &(pc, count) in &entries {
            *by_symbol.entry(symbols.owner(pc)).or_default() += count;
        }
        let symbols_out = rank(by_symbol);

        // Taint heatmap.
        let mut taint_sites: Vec<TaintSite> = events
            .sites
            .iter()
            .map(|(&pc, c)| TaintSite {
                pc,
                symbol: symbols.name(pc),
                propagations: c.propagations,
                checks: c.checks,
                flagged: c.flagged,
                alerts: c.alerts,
                elided: c.elided,
            })
            .collect();
        taint_sites.sort_by(|a, b| b.heat().cmp(&a.heat()).then(a.pc.cmp(&b.pc)));
        let mut taint_by_symbol: BTreeMap<String, u64> = BTreeMap::new();
        for site in &taint_sites {
            *taint_by_symbol.entry(symbols.owner(site.pc)).or_default() += site.heat();
        }

        ProfileReport {
            steps: events.hist.total(),
            hot_pcs,
            symbols: symbols_out,
            collapsed: events.calls.collapsed(symbols),
            taint_sites,
            taint_symbols: rank(taint_by_symbol),
            sources: events
                .sources
                .iter()
                .map(|(&kind, agg)| (kind.to_string(), agg.count, agg.bytes))
                .collect(),
            syscalls: events
                .syscalls
                .iter()
                .map(|(&name, agg)| SyscallRow {
                    name: name.to_string(),
                    count: agg.count,
                    steps: agg.steps,
                })
                .collect(),
        }
    }

    /// The human-readable top-N report printed by `ptaint-run profile`.
    #[must_use]
    pub fn render_text(&self, top: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "--- profile: {} instructions retired ---", self.steps);

        let _ = writeln!(out, "hot blocks (top {top} of {}):", self.symbols.len());
        for row in self.symbols.iter().take(top) {
            let _ = writeln!(out, "  {:>12}  {}", row.count, row.symbol);
        }

        let _ = writeln!(out, "hot pcs (top {top} of {}):", self.hot_pcs.len());
        for row in self.hot_pcs.iter().take(top) {
            let _ = writeln!(out, "  {:>12}  0x{:08x}  {}", row.count, row.pc, row.symbol);
        }

        let _ = writeln!(
            out,
            "taint hotspots (top {top} of {} sites):",
            self.taint_sites.len()
        );
        for site in self.taint_sites.iter().take(top) {
            let _ = writeln!(
                out,
                "  {:>12}  0x{:08x}  {}  [prop {} check {} flag {} alert {} elided {}]",
                site.heat(),
                site.pc,
                site.symbol,
                site.propagations,
                site.checks,
                site.flagged,
                site.alerts,
                site.elided,
            );
        }

        if !self.sources.is_empty() {
            let _ = writeln!(out, "taint sources:");
            for (kind, count, bytes) in &self.sources {
                let _ = writeln!(out, "  {:>12}  {kind} ({bytes} bytes)", count);
            }
        }

        if !self.syscalls.is_empty() {
            let _ = writeln!(out, "syscalls (count, guest steps to reach):");
            for row in &self.syscalls {
                let _ = writeln!(
                    out,
                    "  {:>12}  {:<8} steps {}",
                    row.count, row.name, row.steps
                );
            }
        }

        let _ = writeln!(out, "call paths ({}):", self.collapsed.len());
        for (path, count) in self.collapsed.iter().take(top) {
            let _ = writeln!(out, "  {:>12}  {path}", count);
        }
        out
    }
}

/// Folds a name→count map into rows sorted count desc, name asc.
fn rank(map: BTreeMap<String, u64>) -> Vec<SymbolCount> {
    let mut rows: Vec<SymbolCount> = map
        .into_iter()
        .map(|(symbol, count)| SymbolCount { symbol, count })
        .collect();
    rows.sort_by(|a, b| b.count.cmp(&a.count).then(a.symbol.cmp(&b.symbol)));
    rows
}

impl ToJson for ProfileReport {
    fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"steps\":{}", self.steps);

        out.push_str(",\"hot_pcs\":[");
        for (i, row) in self.hot_pcs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"pc\":\"0x{:x}\",\"symbol\":{},\"count\":{}}}",
                row.pc,
                escape(&row.symbol),
                row.count
            );
        }

        out.push_str("],\"symbols\":[");
        for (i, row) in self.symbols.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"symbol\":{},\"count\":{}}}",
                escape(&row.symbol),
                row.count
            );
        }

        out.push_str("],\"collapsed\":[");
        for (i, (path, count)) in self.collapsed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", escape(&format!("{path} {count}")));
        }

        out.push_str("],\"taint_sites\":[");
        for (i, site) in self.taint_sites.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"pc\":\"0x{:x}\",\"symbol\":{},\"propagations\":{},\"checks\":{},\"flagged\":{},\"alerts\":{},\"elided\":{}}}",
                site.pc,
                escape(&site.symbol),
                site.propagations,
                site.checks,
                site.flagged,
                site.alerts,
                site.elided
            );
        }

        out.push_str("],\"taint_symbols\":[");
        for (i, row) in self.taint_symbols.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"symbol\":{},\"heat\":{}}}",
                escape(&row.symbol),
                row.count
            );
        }

        out.push_str("],\"taint_sources\":[");
        for (i, (kind, count, bytes)) in self.sources.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"kind\":{},\"count\":{count},\"bytes\":{bytes}}}",
                escape(kind)
            );
        }

        out.push_str("],\"syscalls\":[");
        for (i, row) in self.syscalls.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"count\":{},\"steps\":{}}}",
                escape(&row.name),
                row.count,
                row.steps
            );
        }

        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptaint_isa::Instr;
    use ptaint_trace::{Event, Observer};

    fn symtab() -> SymbolTable {
        SymbolTable::build(
            [
                ("main".to_string(), 0x40_0000),
                ("handle".to_string(), 0x40_0100),
            ],
            0x40_0000,
            0x40_1000,
        )
    }

    fn sample() -> ProfileReport {
        let mut events = EventProfile::new();
        for pc in [0x40_0000, 0x40_0000, 0x40_0104] {
            events.on_event(&Event::Retire {
                pc,
                instr: Instr::Syscall,
                tainted: false,
            });
        }
        events.on_event(&Event::CheckElided { pc: 0x40_0104 });
        events.on_event(&Event::TaintSource {
            kind: "syscall",
            label: "recv#1 fd=4".to_string(),
            base: 0x1000_0000,
            len: 24,
        });
        ProfileReport::build(&events, &symtab())
    }

    #[test]
    fn report_is_symbolized_and_ranked() {
        let report = sample();
        assert_eq!(report.steps, 3);
        assert_eq!(report.symbols[0].symbol, "main");
        assert_eq!(report.symbols[0].count, 2);
        assert_eq!(report.hot_pcs[0].pc, 0x40_0000);
        assert_eq!(report.taint_sites[0].symbol, "handle+0x4");
        assert_eq!(report.taint_symbols[0].symbol, "handle");
        assert_eq!(report.sources, vec![("syscall".to_string(), 1, 24)]);
    }

    #[test]
    fn json_is_stable_and_counts_only() {
        let report = sample();
        let json = report.to_json();
        assert_eq!(json, sample().to_json(), "report must be deterministic");
        assert!(json.starts_with("{\"steps\":3,\"hot_pcs\":["));
        assert!(json.contains("\"taint_sites\":[{\"pc\":\"0x400104\",\"symbol\":\"handle+0x4\""));
        assert!(json.ends_with("\"syscalls\":[]}"));
    }

    #[test]
    fn text_report_names_the_hot_symbols() {
        let text = sample().render_text(10);
        assert!(text.contains("3 instructions retired"));
        assert!(text.contains("main"));
        assert!(text.contains("handle+0x4"));
    }
}
