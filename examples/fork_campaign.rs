//! The trend gate's campaign: run the seed-7 GHTTPD fault-injection
//! campaign and emit the byte-deterministic campaign report JSON on stdout.
//! CI uploads it as an artifact.
//!
//! ```sh
//! cargo run --example fork_campaign              # campaign JSON (ladder)
//! cargo run --example fork_campaign -- boot      # the same, boot-forked
//! cargo run --example fork_campaign -- journal   # baseline run's syscall journal
//! ```
//!
//! By default the report comes from `Machine::run_campaign`: the baseline
//! records a checkpoint ladder, and each trial forks from the last rung
//! before its fault. `boot` composes the same report through public API
//! alone, `ptaint_inject::run_campaign` with every trial forked from the
//! post-boot snapshot, so it re-runs each fault-free prefix. CI `cmp`s the
//! two outputs; `tests/inject.rs` pins the equality per trial.
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
    let spec = CampaignSpec::new(SEED, TRIALS);

    match std::env::args().nth(1).as_deref() {
        None => println!("{}", machine.run_campaign(&spec).to_json()),
        Some("boot") => {
            let snap = machine.snapshot();
            let report = ptaint_inject::run_campaign(&spec, |fault| match fault {
                None => snap.run(),
                Some(fault) => snap.run_injected(fault),
            });
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
            eprintln!("fork_campaign: unknown mode `{other}` (no argument | boot | journal)");
            std::process::exit(2);
        }
    }
}
