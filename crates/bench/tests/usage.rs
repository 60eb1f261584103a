//! The `tables`, `figures` and `trend` binaries reject bad input with exit
//! 2 and a message on stderr, before running any experiment or collection.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(bin)
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("the binary starts")
}

fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "a usage error prints no result");
    assert!(
        stderr.contains(needle),
        "stderr `{stderr}` lacks `{needle}`"
    );
}

const TABLES: &str = env!("CARGO_BIN_EXE_tables");
const FIGURES: &str = env!("CARGO_BIN_EXE_figures");
const TREND: &str = env!("CARGO_BIN_EXE_trend");

#[test]
fn tables_rejects_an_unknown_table() {
    assert_usage_error(&run(TABLES, &["table9"], &[]), "unknown table `table9`");
}

#[test]
fn tables_rejects_a_malformed_scale() {
    for scale in ["abc", "0", "-3", "8x"] {
        let out = run(TABLES, &["table3", scale], &[]);
        assert_usage_error(&out, &format!("bad scale `{scale}`"));
    }
    let out = run(TABLES, &["table3", "8", "9"], &[]);
    assert_usage_error(&out, "unexpected extra argument `9`");
}

#[test]
fn figures_rejects_an_unknown_figure() {
    assert_usage_error(&run(FIGURES, &["fig9"], &[]), "unknown figure `fig9`");
    let out = run(FIGURES, &["fig1", "extra"], &[]);
    assert_usage_error(&out, "unexpected extra argument `extra`");
}

#[test]
fn figures_renders_a_named_figure() {
    let out = run(FIGURES, &["fig1"], &[]);
    assert!(out.status.success());
    assert!(!out.stdout.is_empty());
}

#[test]
fn trend_rejects_an_unknown_mode() {
    assert_usage_error(&run(TREND, &["bogus"], &[]), "unknown mode `bogus`");
}

#[test]
fn trend_rejects_a_malformed_tolerance() {
    for tolerance in ["abc", "", "1", "1.5", "-0.1", "NaN"] {
        let out = run(TREND, &["check"], &[("TREND_TOLERANCE", tolerance)]);
        assert_usage_error(&out, &format!("bad TREND_TOLERANCE `{tolerance}`"));
    }
}
