//! The trend gate's campaign: run the seed-7 GHTTPD fault-injection
//! campaign, every trial forked copy-on-write from one post-boot snapshot,
//! and emit the byte-deterministic campaign report JSON on stdout. CI
//! uploads it as an artifact. That a forked trial equals a fresh boot under
//! the same fault is pinned per trial by `tests/inject.rs`.
//!
//! ```sh
//! cargo run --example fork_campaign              # campaign JSON
//! cargo run --example fork_campaign -- journal   # baseline run's syscall journal
//! ```
//!
//! `journal` records the unfaulted baseline run's syscall journal
//! (`ptaint-journal v1` text) for `ptaint-run replay`; CI uploads it as an
//! artifact so any gated campaign baseline can be retraced offline.

use ptaint::{CampaignSpec, DetectionPolicy, Machine, RunConfig, ToJson};
use ptaint_guest::apps::ghttpd;

/// The trend gate's campaign: seed 7, 12 faulted trials (see TREND.json).
const SEED: u64 = 7;
const TRIALS: u64 = 12;

fn main() {
    let image = ptaint_guest::build(ghttpd::SOURCE).expect("builds");
    let machine = Machine::from_image(image.clone())
        .world(ghttpd::attack_world(&image))
        .policy(DetectionPolicy::PointerTaintedness);

    match std::env::args().nth(1).as_deref() {
        None => {
            let report = machine.run_campaign(&CampaignSpec::new(SEED, TRIALS));
            println!("{}", report.to_json());
        }
        Some("journal") => {
            let run = machine.run_with(&RunConfig {
                record: true,
                ..RunConfig::default()
            });
            let (outcome, journal) = (run.outcome, run.journal.unwrap_or_default());
            assert!(
                outcome.reason.is_detected(),
                "the pinned attack must be detected, got {:?}",
                outcome.reason
            );
            print!("{}", journal.to_text());
        }
        Some(other) => {
            eprintln!("fork_campaign: unknown mode `{other}` (no argument | journal)");
            std::process::exit(2);
        }
    }
}
