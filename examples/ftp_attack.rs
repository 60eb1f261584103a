//! Table 2 / §5.1.2: the WU-FTPD `SITE EXEC` format-string attack — a
//! **non-control-data** exploit that overwrites the server's user-ID word.
//!
//! This example shows the full story:
//!
//! 1. the attack session transcript with the detection alert (Table 2);
//! 2. the same attack against an *unprotected* machine, where it plants a
//!    root backdoor account in `/etc/passwd`;
//! 3. the same attack against a Minos-style control-data-only baseline,
//!    which never notices it.
//!
//! ```sh
//! cargo run --example ftp_attack
//! ```

use ptaint::experiments::table2;
use ptaint::{DetectionPolicy, Machine, RunConfig};
use ptaint_guest::apps::scenario;

fn main() {
    // 1. The protected run (Table 2).
    let report = table2::run_wu_ftpd_transcript();
    println!("{report}");

    // 2. Unprotected: the backdoor lands.
    let attack = Machine::from_scenario(scenario("wu_ftpd"));
    let run = attack
        .clone()
        .policy(DetectionPolicy::Off)
        .run_with(&RunConfig::default());
    println!("\n== the same attack, unprotected ==");
    println!("  outcome: {}", run.outcome.reason);
    if let Some(passwd) = run.os.file("/etc/passwd") {
        println!(
            "  /etc/passwd now contains: {}",
            String::from_utf8_lossy(passwd).trim()
        );
        println!("  (a root backdoor account — the paper's §5.1.2 compromise)");
    }

    // 3. Control-only baseline: blind to the attack.
    let out = attack.policy(DetectionPolicy::ControlOnly).run();
    println!("\n== the same attack under control-data-only protection ==");
    println!(
        "  outcome: {} (no control data was corrupted, so nothing fired)",
        out.reason
    );
}
