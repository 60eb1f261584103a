//! Compiles and assembles the guest libc (`src/libc.c`) once per cargo
//! build, so `ptaint_guest::build` compiles and assembles only the app,
//! crt0 and the syscall stubs.
//!
//! Writes three preludes to `OUT_DIR`, which `src/runtime.rs` embeds:
//!
//! * `libc.cc` — the compiler's state after libc (`ptaint_cc::Prelude`);
//! * `libc.asm` — libc's assembled globals and code (`ptaint_asm::Prelude`);
//! * `libc_opt.asm` — the same after the peephole optimizer, for
//!   `build_optimized` (the optimizer's rewrites never cross a function, so
//!   optimizing libc alone gives the lines it gets in a whole unit).

use std::path::PathBuf;

fn main() {
    println!("cargo:rerun-if-changed=src/libc.c");
    let libc = std::fs::read_to_string("src/libc.c").expect("read src/libc.c");
    // `build` compiles the unit `{LIBC_C}\n{app}\n`: libc and one newline
    // come first.
    let (cc, asm) =
        ptaint_cc::compile_prelude(&format!("{libc}\n")).unwrap_or_else(|e| panic!("libc.c: {e}"));
    let optimized = ptaint_cc::optimize_asm(&asm);
    let out = PathBuf::from(std::env::var_os("OUT_DIR").expect("OUT_DIR"));
    let write = |name: &str, bytes: Vec<u8>| {
        std::fs::write(out.join(name), bytes).unwrap_or_else(|e| panic!("write {name}: {e}"));
    };
    write("libc.cc", cc.to_bytes());
    for (name, asm) in [("libc.asm", &asm), ("libc_opt.asm", &optimized)] {
        let prelude =
            ptaint_asm::Prelude::new(asm).unwrap_or_else(|e| panic!("libc assembly: {e}"));
        write(name, prelude.to_bytes());
    }
}
