//! The profiler on the GHTTPD URL-pointer attack (§5.1.2): run the pinned
//! attack session under the profiler and emit the byte-
//! deterministic profile JSON on stdout — same build, same bytes. The CI
//! trend gate runs this twice and diffs the output.
//!
//! ```sh
//! cargo run --example profile_ghttpd            # profile JSON to stdout
//! cargo run --example profile_ghttpd -- report  # human top-N report
//! ```

use ptaint::{DetectionPolicy, Machine, RunConfig, ToJson};
use ptaint_guest::apps::ghttpd;

fn main() {
    let image = ptaint_guest::build(ghttpd::SOURCE).expect("builds");
    let machine = Machine::from_image(image.clone())
        .world(ghttpd::attack_world(&image))
        .policy(DetectionPolicy::PointerTaintedness);

    let run = machine.run_with(&RunConfig {
        profile: true,
        ..RunConfig::default()
    });
    let (outcome, profile) = (run.outcome, run.profile.expect("profiled run"));
    assert!(
        outcome.reason.is_detected(),
        "the pinned attack must be detected, got {:?}",
        outcome.reason
    );
    if std::env::args().nth(1).as_deref() == Some("report") {
        print!("{}", profile.render_text(10));
    } else {
        println!("{}", profile.to_json());
    }
}
