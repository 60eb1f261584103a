//! Regenerates every *table* of the paper's evaluation section.
//!
//! ```sh
//! cargo run -p ptaint-bench --bin tables             # all tables
//! cargo run -p ptaint-bench --bin tables -- table3   # one table
//! cargo run -p ptaint-bench --bin tables -- table3 8 # with a scale knob
//! ```
//!
//! An unknown table name, a scale that is not a positive integer, or an
//! extra argument is a usage error (exit 2).

use std::process::ExitCode;

use ptaint::experiments::{
    ablation, annotations, caches, coverage, optimizer, overhead, table1, table2, table3, table4,
};

/// Renders one table at the scale knob (which some cap and the rest
/// ignore).
type Render = fn(u32) -> String;

/// Every table by name, in the order `all` prints them.
const TABLES: [(&str, Render); 10] = [
    ("table1", |_| table1::verify_propagation_rules().to_string()),
    ("table2", |_| table2::run_wu_ftpd_transcript().to_string()),
    ("table3", |s| {
        table3::run_false_positive_suite(s).to_string()
    }),
    ("table4", |_| table4::run_false_negative_suite().to_string()),
    ("coverage", |_| coverage::run_coverage_matrix().to_string()),
    ("overhead", |s| {
        overhead::run_overhead_report(s.min(4)).to_string()
    }),
    ("ablation", |s| {
        ablation::run_ablation_study(s.min(3)).to_string()
    }),
    ("annotations", |_| {
        annotations::run_annotation_experiment().to_string()
    }),
    ("opt", |s| {
        optimizer::run_optimizer_study(s.min(3)).to_string()
    }),
    ("caches", |s| caches::run_cache_study(s.min(4)).to_string()),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map_or("all", String::as_str);
    if which != "all" && !TABLES.iter().any(|&(name, _)| name == which) {
        let names: Vec<&str> = TABLES.iter().map(|&(name, _)| name).collect();
        eprintln!(
            "tables: unknown table `{which}` (expected all | {})",
            names.join(" | ")
        );
        return ExitCode::from(2);
    }
    let scale = match args.get(1).map(|s| (s, s.parse::<u32>())) {
        None => 6,
        Some((_, Ok(n))) if n > 0 => n,
        Some((s, _)) => {
            eprintln!("tables: bad scale `{s}` (expected a positive integer)");
            return ExitCode::from(2);
        }
    };
    if let Some(extra) = args.get(2) {
        eprintln!("tables: unexpected extra argument `{extra}`");
        return ExitCode::from(2);
    }
    for (name, render) in TABLES {
        if which == "all" || which == name {
            println!("{}\n", render(scale));
        }
    }
    ExitCode::SUCCESS
}
