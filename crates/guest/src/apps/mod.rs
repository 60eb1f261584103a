//! The victim programs of the paper's evaluation (§5.1), with attack
//! payload builders and benign inputs.
//!
//! | Module | Paper experiment | Attack class |
//! |---|---|---|
//! | [`synthetic`] | Figure 2 / §5.1.1 exp1–exp3 | stack smash, heap corruption, format string |
//! | [`wu_ftpd`] | Table 2 / §5.1.2 | format string overwriting a UID word (non-control data) |
//! | [`null_httpd`] | §5.1.2 | heap chunk-link corruption retargeting the CGI-BIN config (non-control data) |
//! | [`ghttpd`] | §5.1.2 | stack overflow corrupting a URL data pointer (non-control data) |
//! | [`traceroute`] | §5.1.2 | double free dereferencing argv bytes as chunk links |
//! | [`globd`] | Figure 1's "globbing" category (CA-2001-07 style) | `~user` tilde-expansion heap overflow |
//! | [`dispatchd`] | footnote 3's GOT-entry target | function-pointer table overwrite (control data) |
//! | [`table4`] | §5.3 Table 4 | the three engineered false-negative scenarios |
//! | [`suite()`] | every experiment and gate | all of the above, one labelled [`Scenario`] each |
//!
//! Each module exposes its mini-C `SOURCE`, world builders for the attack
//! and a benign run, and (where the paper's exploit needs stack-layout
//! knowledge) a calibration helper that discovers the right amount of
//! format-string padding the same way a real attacker would — by probing.
//!
//! [`suite()`] is the catalogue built from them: every attack above as one
//! labelled [`Scenario`] — its image, its calibrated attack world, its
//! benign worlds, its [`AttackClass`] and [`Origin`], and the pointer its
//! alert must name. The §5.1 coverage matrix, the Figure 2, Table 2, Table 4
//! and ablation experiments, and the engine, elision and static↔dynamic
//! gates all iterate it, so a scenario added here enters every one of them.
//! Table 4's designed misses are the scenarios of origin [`Origin::Table4`].

pub mod dispatchd;
pub mod ghttpd;
pub mod globd;
pub mod null_httpd;
pub mod synthetic;
pub mod table4;
pub mod traceroute;
pub mod wu_ftpd;

use std::fmt;
use std::sync::OnceLock;

use ptaint_asm::Image;
use ptaint_cpu::DetectionPolicy;
use ptaint_mem::HierarchyConfig;
use ptaint_os::{load, run_to_exit, RunOutcome, WorldConfig};

/// Default step budget for app runs (generous; the daemons run a few
/// million instructions).
pub const STEP_LIMIT: u64 = 200_000_000;

/// Loads `image` into a fresh machine with `world` and runs it to
/// completion under `policy`.
#[must_use]
pub fn run_app(image: &Image, world: WorldConfig, policy: DetectionPolicy) -> RunOutcome {
    let (mut cpu, mut os) = load(image, world, policy, HierarchyConfig::flat());
    run_to_exit(&mut cpu, &mut os, STEP_LIMIT)
}

/// Probes format-string padding like a real attacker: tries `%x` pad counts
/// `0..max_pad`, running the attack under full pointer-taintedness detection
/// until the `%n` store dereferences exactly `target` (the alert's tainted
/// pointer equals the address the payload embedded).
///
/// Returns the first working pad count.
pub fn calibrate_format_pad(
    image: &Image,
    mut world_for_pad: impl FnMut(usize) -> WorldConfig,
    target: u32,
    max_pad: usize,
) -> Option<usize> {
    for pad in 0..max_pad {
        let outcome = run_app(
            image,
            world_for_pad(pad),
            DetectionPolicy::PointerTaintedness,
        );
        if let Some(alert) = outcome.reason.alert() {
            if alert.pointer == target {
                return Some(pad);
            }
        }
    }
    None
}

/// Attack classification per the paper's taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackClass {
    /// Corrupts control data (return addresses, code pointers).
    ControlData,
    /// Corrupts only non-control data (UIDs, config strings, data
    /// pointers).
    NonControlData,
}

impl AttackClass {
    /// Whether `policy` stops an attack of this class (§5.1's claim): full
    /// detection stops both classes, the control-only baseline only
    /// control data, and nothing is stopped unprotected.
    #[must_use]
    pub fn caught_by(self, policy: DetectionPolicy) -> bool {
        match policy {
            DetectionPolicy::PointerTaintedness => true,
            DetectionPolicy::ControlOnly => self == AttackClass::ControlData,
            DetectionPolicy::Off => false,
        }
    }
}

impl fmt::Display for AttackClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AttackClass::ControlData => "control-data",
            AttackClass::NonControlData => "non-control-data",
        })
    }
}

/// The part of the paper's evaluation a scenario reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Figure 2 / §5.1.1: the synthetic exp1–exp3.
    Figure2,
    /// §5.1.2 and Figure 1's categories: the daemons and tools.
    RealWorld,
    /// §5.3 Table 4: the attack does its damage without tainting a
    /// pointer, so it is missed by design.
    Table4,
}

/// One labelled attack: a victim program, its calibrated attack input, its
/// benign inputs, and the verdicts the paper's claims predict for them.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Short identifier (`exp1`, `wu_ftpd`, `auth_flag`, …).
    pub name: &'static str,
    /// Row label in the §5.1 coverage matrix and Table 4.
    pub title: &'static str,
    /// The experiment it comes from.
    pub origin: Origin,
    /// Control-data or non-control-data.
    pub class: AttackClass,
    /// The program's mini-C source.
    pub source: &'static str,
    /// `source`, built.
    pub image: Image,
    /// The attack input, calibrated against `image`.
    pub attack: WorldConfig,
    /// Inputs that exercise the same program honestly.
    pub benign: Vec<WorldConfig>,
    /// The tainted pointer a detected attack's alert must name, where the
    /// payload fixes it.
    pub pointer: Option<u32>,
    /// Text in stdout or a network transcript showing the attack did its
    /// damage.
    pub compromise_marker: Option<&'static str>,
}

impl Scenario {
    /// Whether the attack is one of Table 4's designed misses.
    #[must_use]
    pub fn designed_miss(&self) -> bool {
        self.origin == Origin::Table4
    }

    /// Runs the attack world, then each benign world, through `run`
    /// (given a label such as `exp1/attack` or `auth_flag/benign#1`) and
    /// asserts that each outcome keeps its labels under `policy`: the
    /// attack alerts exactly when its class is [caught
    /// by](AttackClass::caught_by) `policy` and it is not a designed miss,
    /// naming [`Scenario::pointer`] where it is set, and no benign world
    /// alerts.
    ///
    /// # Panics
    ///
    /// Panics with the world's label and exit reason on the first outcome
    /// that does not.
    pub fn assert_verdicts(
        &self,
        policy: DetectionPolicy,
        mut run: impl FnMut(&str, &WorldConfig) -> RunOutcome,
    ) {
        let label = format!("{}/attack", self.name);
        let out = run(&label, &self.attack);
        assert_eq!(
            out.reason.is_detected(),
            !self.designed_miss() && self.class.caught_by(policy),
            "{label} under {policy}: {:?}",
            out.reason
        );
        if let (Some(pointer), Some(alert)) = (self.pointer, out.reason.alert()) {
            assert_eq!(alert.pointer, pointer, "{label} under {policy}: {alert}");
        }
        for (i, world) in self.benign.iter().enumerate() {
            let label = format!("{}/benign#{i}", self.name);
            let out = run(&label, world);
            assert!(
                !out.reason.is_detected(),
                "{label} under {policy}: {:?}",
                out.reason
            );
        }
    }
}

/// The attack suite: every scenario of the paper's evaluation, built and
/// calibrated once per process.
///
/// # Panics
///
/// Panics if an app fails to build or a format-string pad fails to
/// calibrate (either would falsify the reproduction).
#[must_use]
pub fn suite() -> &'static [Scenario] {
    static SUITE: OnceLock<Vec<Scenario>> = OnceLock::new();
    SUITE.get_or_init(build_suite)
}

/// The [`suite()`] scenario called `name`.
///
/// # Panics
///
/// Panics if no scenario has that name.
#[must_use]
pub fn scenario(name: &str) -> &'static Scenario {
    suite()
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no scenario named {name}"))
}

fn build_suite() -> Vec<Scenario> {
    use AttackClass::{ControlData, NonControlData};
    use Origin::{Figure2, RealWorld, Table4};

    let build = |source| crate::build(source).expect("every suite app builds");
    let exp3 = build(synthetic::EXP3_SOURCE);
    let exp3_pad = calibrate_format_pad(&exp3, synthetic::exp3_attack_world, 0x6463_6261, 16)
        .expect("exp3 calibrates");
    let ftpd = build(wu_ftpd::SOURCE);
    let uid = wu_ftpd::uid_address(&ftpd);
    let ftpd_pad = calibrate_format_pad(&ftpd, |p| wu_ftpd::attack_world(&ftpd, p), uid, 48)
        .expect("wu_ftpd calibrates");
    let httpd = build(null_httpd::SOURCE);
    let ghttpd_image = build(ghttpd::SOURCE);

    vec![
        Scenario {
            name: "exp1",
            title: "exp1 stack smash (ret addr)",
            origin: Figure2,
            class: ControlData,
            source: synthetic::EXP1_SOURCE,
            image: build(synthetic::EXP1_SOURCE),
            attack: synthetic::exp1_attack_world(),
            benign: vec![synthetic::exp1_benign_world()],
            pointer: Some(0x6161_6161),
            compromise_marker: None,
        },
        Scenario {
            name: "exp2",
            title: "exp2 heap chunk links",
            origin: Figure2,
            class: NonControlData,
            source: synthetic::EXP2_SOURCE,
            image: build(synthetic::EXP2_SOURCE),
            attack: synthetic::exp2_attack_world(),
            benign: vec![synthetic::exp2_benign_world()],
            pointer: None,
            compromise_marker: None,
        },
        Scenario {
            name: "exp3",
            title: "exp3 format string %n",
            origin: Figure2,
            class: NonControlData,
            source: synthetic::EXP3_SOURCE,
            image: exp3,
            attack: synthetic::exp3_attack_world(exp3_pad),
            benign: vec![synthetic::exp3_benign_world()],
            pointer: Some(0x6463_6261),
            compromise_marker: None,
        },
        Scenario {
            name: "wu_ftpd",
            title: "WU-FTPD uid overwrite",
            origin: RealWorld,
            class: NonControlData,
            source: wu_ftpd::SOURCE,
            attack: wu_ftpd::attack_world(&ftpd, ftpd_pad),
            image: ftpd,
            benign: vec![wu_ftpd::benign_world()],
            pointer: Some(uid),
            compromise_marker: Some("226 transfer complete"),
        },
        Scenario {
            name: "null_httpd",
            title: "NULL HTTPD cgi-root retarget",
            origin: RealWorld,
            class: NonControlData,
            source: null_httpd::SOURCE,
            attack: null_httpd::attack_world(&httpd),
            pointer: httpd.symbol("conf"),
            image: httpd,
            benign: vec![null_httpd::benign_world()],
            compromise_marker: Some("EXEC /bin/sh"),
        },
        Scenario {
            name: "ghttpd",
            title: "GHTTPD url-pointer corrupt",
            origin: RealWorld,
            class: NonControlData,
            source: ghttpd::SOURCE,
            attack: ghttpd::attack_world(&ghttpd_image),
            // The second URL the overflow points `url` at.
            pointer: ghttpd_image.symbol("req").map(|req| req + 208),
            image: ghttpd_image,
            benign: vec![ghttpd::benign_world()],
            compromise_marker: Some("EXEC /cgi-bin/../../../../bin/sh"),
        },
        Scenario {
            name: "traceroute",
            title: "traceroute double free",
            origin: RealWorld,
            class: NonControlData,
            source: traceroute::SOURCE,
            image: build(traceroute::SOURCE),
            attack: traceroute::attack_world(),
            benign: vec![traceroute::benign_world()],
            // The unlink's `fd->bk` store through the link built from
            // argv's "5.6.7.8".
            pointer: Some(0x2e36_2e35 + 12),
            compromise_marker: None,
        },
        Scenario {
            name: "globd",
            title: "globd ~user heap overflow",
            origin: RealWorld,
            class: NonControlData,
            source: globd::SOURCE,
            image: build(globd::SOURCE),
            attack: globd::attack_world(),
            benign: vec![globd::benign_world()],
            pointer: None,
            compromise_marker: None,
        },
        Scenario {
            name: "dispatchd",
            title: "dispatchd fn-ptr overwrite",
            origin: RealWorld,
            class: ControlData,
            source: dispatchd::SOURCE,
            image: build(dispatchd::SOURCE),
            attack: dispatchd::attack_world(),
            benign: vec![dispatchd::benign_world()],
            pointer: Some(0x6161_6161),
            compromise_marker: None,
        },
        Scenario {
            name: "int_overflow",
            title: "(A) integer overflow -> out-of-bounds array index",
            origin: Table4,
            class: NonControlData,
            source: table4::INT_OVERFLOW_SOURCE,
            image: build(table4::INT_OVERFLOW_SOURCE),
            attack: table4::int_overflow_attack_world(),
            benign: vec![table4::int_overflow_benign_world()],
            pointer: None,
            compromise_marker: Some("GUARD CORRUPTED"),
        },
        Scenario {
            name: "auth_flag",
            title: "(B) buffer overflow corrupting an authentication flag",
            origin: Table4,
            class: NonControlData,
            source: table4::AUTH_FLAG_SOURCE,
            image: build(table4::AUTH_FLAG_SOURCE),
            attack: table4::auth_flag_attack_world(),
            benign: vec![
                table4::auth_flag_good_password_world(),
                table4::auth_flag_bad_password_world(),
            ],
            pointer: None,
            compromise_marker: Some("ACCESS GRANTED"),
        },
        Scenario {
            name: "fmt_leak",
            title: "(C) format string information leak",
            origin: Table4,
            class: NonControlData,
            source: table4::FMT_LEAK_SOURCE,
            image: build(table4::FMT_LEAK_SOURCE),
            attack: table4::fmt_leak_attack_world(),
            benign: vec![table4::fmt_leak_benign_world()],
            pointer: None,
            compromise_marker: Some("12345678"),
        },
    ]
}
