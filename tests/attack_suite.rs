//! Integration: the attack suite keeps its own labels. Every scenario of
//! [`ptaint_guest::apps::suite`] alerts under each detection policy exactly
//! as its class and origin predict (§5.1's coverage claim, Table 4's
//! designed misses), naming its pointer where the payload fixes it, and
//! none of its benign worlds alerts under any policy.

use ptaint::{DetectionPolicy, Machine};
use ptaint_guest::apps::suite;

#[test]
fn every_scenario_keeps_its_labels_under_every_policy() {
    for s in suite() {
        let m = Machine::from_image(s.image.clone());
        for policy in [
            DetectionPolicy::PointerTaintedness,
            DetectionPolicy::ControlOnly,
            DetectionPolicy::Off,
        ] {
            s.assert_verdicts(policy, |_, world| {
                m.clone().world(world.clone()).policy(policy).run()
            });
        }
    }
}
