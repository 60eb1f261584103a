//! The prebuilt libc is exactly the libc a whole-unit build compiles.
//!
//! `build` compiles and assembles only the application, continuing from
//! libc's compiler state and laid-out assembly that `build.rs` embeds. The
//! reference here is the whole unit, composed as `build` did before libc
//! was prebuilt: `assemble(compile(LIBC_C + app) + CRT0 + STUBS)`. Every
//! guest, plain and optimized, and a set of broken or hostile apps must
//! give the same image or the same error, line and message included.

use ptaint_cc::{compile, compile_optimized, compile_prelude, CcError};
use ptaint_guest::apps::{
    dispatchd, ghttpd, globd, null_httpd, synthetic, table4, traceroute, wu_ftpd,
};
use ptaint_guest::{
    build, build_optimized, workloads, BuildError, CRT0_ASM, LIBC_C, SYSCALL_STUBS_ASM,
};

const LIBC_CC: &[u8] = include_bytes!(concat!(env!("OUT_DIR"), "/libc.cc"));
const LIBC_ASM: &[u8] = include_bytes!(concat!(env!("OUT_DIR"), "/libc.asm"));
const LIBC_ASM_OPTIMIZED: &[u8] = include_bytes!(concat!(env!("OUT_DIR"), "/libc_opt.asm"));

/// The whole-unit build: libc compiled and assembled with the app.
fn reference(app: &str, optimized: bool) -> Result<ptaint_asm::Image, BuildError> {
    let unit = format!("{LIBC_C}\n{app}\n");
    let compiled = if optimized {
        compile_optimized(&unit)?
    } else {
        compile(&unit)?
    };
    let full = format!("{compiled}\n{CRT0_ASM}\n{SYSCALL_STUBS_ASM}\n");
    Ok(ptaint_asm::assemble(&full)?)
}

fn assert_builds_like_the_whole_unit(name: &str, app: &str) {
    assert_eq!(build(app), reference(app, false), "{name}: build");
    assert_eq!(
        build_optimized(app),
        reference(app, true),
        "{name}: build_optimized"
    );
}

/// `build`'s documented line numbering: libc and one newline come first.
#[test]
fn app_compile_errors_are_reported_at_their_unit_line() {
    let libc_lines = LIBC_C.lines().count() as u32 + 1;
    for (app, k, msg) in [
        (
            "int main() {\n  return missing;\n}\n",
            2,
            "undefined name `missing`",
        ),
        (
            "int main() {\n\n\n  return 1 @ 2;\n}\n",
            4,
            "unexpected character `@`",
        ),
    ] {
        let err = build(app).unwrap_err();
        let expected = BuildError::Compile(CcError {
            line: libc_lines + k,
            msg: msg.to_owned(),
        });
        assert_eq!(err, expected, "{app}");
    }
}

#[test]
fn embedded_preludes_equal_a_fresh_build_of_libc() {
    let (cc, asm) = compile_prelude(&format!("{LIBC_C}\n")).expect("libc compiles");
    assert!(cc.to_bytes() == LIBC_CC, "libc.cc is stale");
    let plain = ptaint_asm::Prelude::new(&asm).expect("libc assembles");
    assert!(plain.to_bytes() == LIBC_ASM, "libc.asm is stale");
    let optimized = ptaint_cc::optimize_asm(&asm);
    let optimized = ptaint_asm::Prelude::new(&optimized).expect("optimized libc assembles");
    assert!(
        optimized.to_bytes() == LIBC_ASM_OPTIMIZED,
        "libc_opt.asm is stale"
    );
}

#[test]
fn every_guest_builds_like_the_whole_unit() {
    let mut guests = vec![
        ("dispatchd", dispatchd::SOURCE),
        ("ghttpd", ghttpd::SOURCE),
        ("globd", globd::SOURCE),
        ("null_httpd", null_httpd::SOURCE),
        ("traceroute", traceroute::SOURCE),
        ("wu_ftpd", wu_ftpd::SOURCE),
        ("int_overflow", table4::INT_OVERFLOW_SOURCE),
        ("auth_flag", table4::AUTH_FLAG_SOURCE),
        ("fmt_leak", table4::FMT_LEAK_SOURCE),
        ("exp1", synthetic::EXP1_SOURCE),
        ("exp2", synthetic::EXP2_SOURCE),
        ("exp3", synthetic::EXP3_SOURCE),
    ];
    guests.extend(workloads::all().into_iter().map(|w| (w.name, w.source)));
    for (name, source) in guests {
        assert!(build(source).is_ok(), "{name} builds");
        assert_builds_like_the_whole_unit(name, source);
    }
}

/// Each case with the error the whole unit gives; the prebuilt path must
/// give the same one.
#[test]
fn broken_and_hostile_apps_fail_like_the_whole_unit() {
    let past_the_stack_top: String = (0..120)
        .map(|i| format!("int big{i}[4000000];\n"))
        .chain(["int main() { return 0; }\n".to_owned()])
        .collect();
    let cases: [(&str, &str, &str); 12] = [
        (
            "lexical",
            "int main() {\n  return 1 @ 2;\n}\n",
            "unexpected character",
        ),
        ("syntax", "int main() {\n  return (1;\n}\n", "expected"),
        (
            "type",
            "int main() {\n  int x;\n  return x.f;\n}\n",
            "struct",
        ),
        (
            "redefines strlen",
            "unsigned strlen(char *s) { return 0; }\nint main() { return strlen(\"x\"); }\n",
            "duplicate label `strlen`",
        ),
        (
            "redeclares strlen differently",
            "char *strlen(char *s);\nint main() { return 0; }\n",
            "conflicting declarations of `strlen`",
        ),
        (
            "global named like a libc function",
            "int strlen;\nint main() { return strlen; }\n",
            "conflicting declarations of `strlen`",
        ),
        (
            "redefines a libc struct",
            "struct __chunk { int x; };\nint main() { return 0; }\n",
            "duplicate struct `__chunk`",
        ),
        (
            "defines the stub read",
            "int read(int fd, char *buf, int len) { return 0; }\nint main() { return 0; }\n",
            "duplicate label `read`",
        ),
        (
            "global named like a libc compiler label",
            "int _L1_ret;\nint main() { return _L1_ret; }\n",
            "duplicate label `_L1_ret`",
        ),
        (
            "no main",
            "int helper() { return 1; }\n",
            "undefined symbol `main`",
        ),
        ("data past the stack top", &past_the_stack_top, "stack top"),
        ("empty", "", "undefined symbol `main`"),
    ];
    for (name, app, needle) in cases {
        let whole = reference(app, false).expect_err(name);
        assert!(whole.to_string().contains(needle), "{name}: {whole}");
        assert_builds_like_the_whole_unit(name, app);
    }
}

#[test]
fn a_libc_label_clash_is_reported_at_libc_line_in_the_unit() {
    // The app's global comes first in `.data`, so the clash is reported at
    // libc's code label, which follows in `.text`: past the app's line.
    let app = "int _L1_ret;\nint main() { return 0; }\n";
    let Err(BuildError::Assemble(err)) = build(app) else {
        panic!("the clash is an assembly error");
    };
    let compiled = compile(&format!("{LIBC_C}\n{app}\n")).expect("compiles");
    let global = 1 + compiled
        .lines()
        .position(|l| l == "_L1_ret:")
        .expect("app global") as u32;
    assert!(err.line > global, "{err}");
}
