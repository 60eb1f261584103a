//! Regenerates every *figure* of the paper.
//!
//! ```sh
//! cargo run -p ptaint-bench --bin figures            # all figures
//! cargo run -p ptaint-bench --bin figures -- fig2    # one figure
//! ```
//!
//! An unknown figure name or an extra argument is a usage error (exit 2).

use std::process::ExitCode;

use ptaint::cert;
use ptaint::experiments::{figure2_layout, figure3, synthetic};

/// Renders one figure, trailing blank lines included.
type Render = fn() -> String;

/// Every figure by name, in the order `all` prints them.
const FIGURES: [(&str, Render); 3] = [
    ("fig1", || format!("{}\n", cert::render_figure_1())),
    ("fig2", || {
        format!(
            "{}\n\n{}\n\n",
            synthetic::run_synthetic_suite(),
            figure2_layout::capture_exp1_frame()
        )
    }),
    ("fig3", || format!("{}\n\n", figure3::run_pipeline_walk())),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map_or("all", String::as_str);
    if which != "all" && !FIGURES.iter().any(|&(name, _)| name == which) {
        eprintln!("figures: unknown figure `{which}` (expected all | fig1 | fig2 | fig3)");
        return ExitCode::from(2);
    }
    if let Some(extra) = args.get(1) {
        eprintln!("figures: unexpected extra argument `{extra}`");
        return ExitCode::from(2);
    }
    for (name, render) in FIGURES {
        if which == "all" || which == name {
            print!("{}", render());
        }
    }
    ExitCode::SUCCESS
}
