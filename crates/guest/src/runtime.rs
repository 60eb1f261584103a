//! The guest runtime: program entry, syscall stubs, and the build pipeline
//! (mini-C → assembly → image).
//!
//! What is prebuilt: [`LIBC_C`], compiled and assembled by `build.rs` at
//! cargo-build time into the compiler's state after libc and libc's laid-out
//! globals and code (plain and optimized), embedded here. What is built per
//! call: the application, crt0 and the syscall stubs, continuing from that
//! state (see [`build`], which also defines the line numbers errors carry).

use std::fmt;

use ptaint_asm::{AsmError, Image};
use ptaint_cc::CcError;

/// The guest C library source (compiled into every program).
pub const LIBC_C: &str = include_str!("libc.c");

/// Program entry point: forwards `argc`/`argv`/`envp` from the loader's
/// registers onto the stack per the all-args-on-stack ABI, calls `main`, and
/// exits with its return value.
pub const CRT0_ASM: &str = r"
# ---- crt0 ----
_start:
        addiu $sp, $sp, -12
        sw $a0, 0($sp)          # argc
        sw $a1, 4($sp)          # argv
        sw $a2, 8($sp)          # envp
        jal main
        move $a0, $v0
        li $v0, 1               # SYS_EXIT
        syscall
        break 1                 # unreachable
";

/// System-call stubs. Each reads its arguments from the caller's argument
/// area (`0($sp)`, `4($sp)`, …; the callee's frame pointer would alias
/// `$sp` here since stubs are leaf routines with no frame) and traps.
pub const SYSCALL_STUBS_ASM: &str = r"
# ---- syscall stubs ----
read:
        lw $a0, 0($sp)
        lw $a1, 4($sp)
        lw $a2, 8($sp)
        li $v0, 3
        syscall
        jr $ra
write:
        lw $a0, 0($sp)
        lw $a1, 4($sp)
        lw $a2, 8($sp)
        li $v0, 4
        syscall
        jr $ra
open:
        lw $a0, 0($sp)
        lw $a1, 4($sp)
        li $v0, 5
        syscall
        jr $ra
close:
        lw $a0, 0($sp)
        li $v0, 6
        syscall
        jr $ra
brk:
        lw $a0, 0($sp)
        li $v0, 9
        syscall
        jr $ra
getuid:
        li $v0, 24
        syscall
        jr $ra
socket:
        li $v0, 42
        syscall
        jr $ra
bind:
        lw $a0, 0($sp)
        lw $a1, 4($sp)
        li $v0, 43
        syscall
        jr $ra
listen:
        lw $a0, 0($sp)
        li $v0, 44
        syscall
        jr $ra
accept:
        lw $a0, 0($sp)
        li $v0, 45
        syscall
        jr $ra
recv:
        lw $a0, 0($sp)
        lw $a1, 4($sp)
        lw $a2, 8($sp)
        li $v0, 46
        syscall
        jr $ra
send:
        lw $a0, 0($sp)
        lw $a1, 4($sp)
        lw $a2, 8($sp)
        li $v0, 47
        syscall
        jr $ra
exit:
        lw $a0, 0($sp)
        li $v0, 1
        syscall
        break 2                 # unreachable

# int checked_index(int v, int lo, int hi)
#
# Range validation performed in registers: returns v clamped to [lo, hi].
# Because `slt` is a compare instruction, the hardware untaints the checked
# value (paper Table 1, row 5 / §4.2) — this is the validation idiom that
# lets input-derived values index tables without tripping the pointer
# taintedness detector, exactly as register-allocated compiled code would
# behave on the paper's architecture. (ptaint-cc keeps locals in memory, so
# a C-level `if` untaints only a transient register copy; this helper makes
# the validated, untainted value the function result.)
checked_index:
        lw $v0, 0($sp)          # v
        lw $t0, 4($sp)          # lo
        lw $t1, 8($sp)          # hi
        slt $at, $v0, $t0       # compare: untaints $v0/$t0
        bne $at, $zero, _checked_lo
        slt $at, $t1, $v0       # compare: untaints $v0/$t1
        bne $at, $zero, _checked_hi
        jr $ra
_checked_lo:
        move $v0, $t0
        jr $ra
_checked_hi:
        move $v0, $t1
        jr $ra
";

/// A failure while building a guest program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The mini-C front end rejected the program.
    Compile(CcError),
    /// The generated (or hand-written) assembly failed to assemble.
    Assemble(AsmError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Compile(e) => write!(f, "compile: {e}"),
            BuildError::Assemble(e) => write!(f, "assemble: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<CcError> for BuildError {
    fn from(e: CcError) -> BuildError {
        BuildError::Compile(e)
    }
}

impl From<AsmError> for BuildError {
    fn from(e: AsmError) -> BuildError {
        BuildError::Assemble(e)
    }
}

/// Compiles `app_c` together with the guest libc and links it with the
/// runtime (crt0 + syscall stubs) into a loadable [`Image`].
///
/// The libc and the application form a single translation unit,
/// `{LIBC_C}\n{app_c}\n` (mini-C has no linker-level symbol management),
/// so application sources must not redeclare libc names differently, or
/// define a libc function again. Its assembly is laid out as `.data`
/// [libc globals | app globals | strings] and `.text` [libc | app | crt0 |
/// stubs].
///
/// Libc's part of that unit is fixed, so `build.rs` compiles and assembles
/// it once per cargo build (`ptaint_cc::compile_prelude`,
/// `ptaint_asm::Prelude`). Here only the application is lexed, parsed and
/// compiled, continuing from libc's declarations, and only its assembly,
/// crt0 and the stubs are assembled, continuing from libc's laid-out
/// globals and code. The image is the one the whole unit assembles to.
///
/// # Errors
///
/// Returns a [`BuildError`] on compile or assembly failure, the one the
/// whole unit gives. Line numbers in compile errors refer to the unit:
/// libc occupies the leading lines, so app line `k` is reported as line
/// `LIBC_C.lines().count() + 1 + k`. Line numbers in assembly errors (and
/// [`Image::lines`]) refer to the unit's assembly.
pub fn build(app_c: &str) -> Result<Image, BuildError> {
    link(&compile(app_c)?, LIBC_ASM)
}

/// Like [`build`], but runs the mini-C peephole optimizer over the
/// generated assembly. Used by the optimizer study; the paper experiments
/// run unoptimized code because attack payload calibration depends on the
/// exact frame geometry. Libc comes prebuilt through the optimizer too:
/// its rewrites never span two functions, so libc's optimized code is the
/// same alone as in the unit.
///
/// # Errors
///
/// Same conditions as [`build`].
pub fn build_optimized(app_c: &str) -> Result<Image, BuildError> {
    link(
        &ptaint_cc::optimize_asm(&compile(app_c)?),
        LIBC_ASM_OPTIMIZED,
    )
}

/// Libc as `build.rs` compiled it: the compiler's state after it, and its
/// assembled globals and code, plain and optimized.
const LIBC_CC: &[u8] = include_bytes!(concat!(env!("OUT_DIR"), "/libc.cc"));
const LIBC_ASM: &[u8] = include_bytes!(concat!(env!("OUT_DIR"), "/libc.asm"));
const LIBC_ASM_OPTIMIZED: &[u8] = include_bytes!(concat!(env!("OUT_DIR"), "/libc_opt.asm"));

/// Compiles `app_c` as the rest of the unit after libc.
fn compile(app_c: &str) -> Result<String, CcError> {
    let libc =
        ptaint_cc::Prelude::from_bytes(LIBC_CC).expect("build.rs embeds libc's compiler state");
    ptaint_cc::compile_with(libc, &format!("{app_c}\n"))
}

/// Assembles the app's `compiled` code, crt0 and the stubs after `libc`.
fn link(compiled: &str, libc: &[u8]) -> Result<Image, BuildError> {
    let libc = ptaint_asm::Prelude::from_bytes(libc).expect("build.rs embeds libc's assembly");
    let source = format!("{compiled}\n{CRT0_ASM}\n{SYSCALL_STUBS_ASM}\n");
    Ok(ptaint_asm::assemble_with(&libc, &source)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptaint_cpu::DetectionPolicy;
    use ptaint_mem::HierarchyConfig;
    use ptaint_os::{load, run_to_exit, ExitReason, RunOutcome, WorldConfig};

    fn run(app_c: &str, world: WorldConfig) -> RunOutcome {
        let image = build(app_c).unwrap_or_else(|e| panic!("build failed: {e}"));
        let (mut cpu, mut os) = load(
            &image,
            world,
            DetectionPolicy::PointerTaintedness,
            HierarchyConfig::flat(),
        );
        run_to_exit(&mut cpu, &mut os, 50_000_000)
    }

    #[test]
    fn hello_world_through_printf() {
        let out = run(
            r#"int main() { printf("hello, %s! %d %x %c%%\n", "world", -42, 255, 'y'); return 0; }"#,
            WorldConfig::new(),
        );
        assert_eq!(out.reason, ExitReason::Exited(0));
        assert_eq!(out.stdout_text(), "hello, world! -42 ff y%\n");
    }

    #[test]
    fn malloc_free_roundtrip() {
        let out = run(
            r#"int main() {
                int i;
                char *a = malloc(100);
                char *b = malloc(200);
                for (i = 0; i < 100; i++) a[i] = i;
                free(a);
                char *c = malloc(50);   /* should reuse a's chunk */
                if (c != a) return 1;
                free(b);
                free(c);
                char *d = malloc(40);
                if (d != c) return 2;
                printf("heap ok\n");
                return 0;
            }"#,
            WorldConfig::new(),
        );
        assert_eq!(
            out.reason,
            ExitReason::Exited(0),
            "stdout: {}",
            out.stdout_text()
        );
        assert_eq!(out.stdout_text(), "heap ok\n");
    }

    #[test]
    fn malloc_splits_and_coalesces() {
        let out = run(
            r#"int main() {
                /* allocate a big block, free it, then carve a small one:
                   the remainder must be a free neighbour that coalesces back. */
                char *big = malloc(400);
                unsigned before = (unsigned)big;
                free(big);
                char *small = malloc(32);
                if ((unsigned)small != before) return 1;
                free(small);
                char *again = malloc(400);
                if ((unsigned)again != before) return 2; /* coalesced back */
                return 0;
            }"#,
            WorldConfig::new(),
        );
        assert_eq!(out.reason, ExitReason::Exited(0));
    }

    #[test]
    fn string_functions() {
        let out = run(
            r#"int main() {
                char buf[64];
                strcpy(buf, "abc");
                strcat(buf, "def");
                if (strlen(buf) != 6) return 1;
                if (strcmp(buf, "abcdef") != 0) return 2;
                if (strcmp("abc", "abd") >= 0) return 3;
                if (strncmp("abcdef", "abcxyz", 3) != 0) return 4;
                if (strstr(buf, "cde") != buf + 2) return 5;
                if (strstr(buf, "zzz") != 0) return 6;
                if (strchr(buf, 'd') != buf + 3) return 7;
                if (atoi("  -123") != -123) return 8;
                if (atoi("456x") != 456) return 9;
                memset(buf, 'x', 4);
                if (buf[0] != 'x' || buf[3] != 'x' || buf[4] != 'e') return 10;
                char dst[8];
                memcpy(dst, buf, 6);
                if (memcmp(dst, buf, 6) != 0) return 11;
                return 0;
            }"#,
            WorldConfig::new(),
        );
        assert_eq!(out.reason, ExitReason::Exited(0));
    }

    #[test]
    fn sprintf_and_snprintf() {
        let out = run(
            r#"int main() {
                char buf[64];
                int n = sprintf(buf, "v=%d h=%x s=%s", 7, 0xbeef, "ok");
                printf("[%s] %d\n", buf, n);
                char tiny[8];
                snprintf(tiny, 8, "0123456789");
                printf("[%s]\n", tiny);
                return 0;
            }"#,
            WorldConfig::new(),
        );
        assert_eq!(out.stdout_text(), "[v=7 h=beef s=ok] 15\n[0123456]\n");
    }

    #[test]
    fn scanf_reads_stdin_tainted() {
        let out = run(
            r#"int main() {
                char word[32];
                int n;
                scanf("%s", word);
                scanf("%d", &n);
                printf("%s:%d\n", word, n + 1);
                return 0;
            }"#,
            WorldConfig::new().stdin(b"hello 41".to_vec()),
        );
        assert_eq!(out.reason, ExitReason::Exited(0));
        assert_eq!(out.stdout_text(), "hello:42\n");
        assert!(out.tainted_input_bytes > 0);
    }

    #[test]
    fn gets_reads_a_line() {
        let out = run(
            r#"int main() {
                char line[64];
                gets(line);
                printf("<%s>", line);
                return 0;
            }"#,
            WorldConfig::new().stdin(b"a line here\nrest".to_vec()),
        );
        assert_eq!(out.stdout_text(), "<a line here>");
    }

    #[test]
    fn command_line_arguments() {
        let out = run(
            r#"int main(int argc, char **argv) {
                int i;
                printf("%d", argc);
                for (i = 0; i < argc; i++) printf(" %s", argv[i]);
                return 0;
            }"#,
            WorldConfig::new().args(["prog", "-g", "123"]),
        );
        assert_eq!(out.stdout_text(), "3 prog -g 123");
    }

    #[test]
    fn file_io() {
        let out = run(
            r#"int main() {
                char buf[32];
                int fd = open("/etc/motd", 0);
                if (fd < 0) return 1;
                int n = read(fd, buf, 31);
                buf[n] = 0;
                close(fd);
                int wfd = open("/tmp/out", 1);
                write(wfd, buf, n);
                close(wfd);
                printf("%s", buf);
                return 0;
            }"#,
            WorldConfig::new().file("/etc/motd", b"welcome".to_vec()),
        );
        assert_eq!(out.reason, ExitReason::Exited(0));
        assert_eq!(out.stdout_text(), "welcome");
    }

    #[test]
    fn sockets_roundtrip() {
        let out = run(
            r#"int main() {
                char buf[128];
                int s = socket();
                bind(s, 80);
                listen(s);
                int c = accept(s);
                int n = recv(c, buf, 127, 0);
                buf[n] = 0;
                send(c, "ack:", 4);
                send(c, buf, n);
                close(c);
                return 0;
            }"#,
            WorldConfig::new().session(ptaint_os::NetSession::new(vec![b"ping".to_vec()])),
        );
        assert_eq!(out.reason, ExitReason::Exited(0));
        assert_eq!(out.transcripts[0], b"ack:ping");
    }

    #[test]
    fn percent_n_counts_output() {
        // Benign %n usage: pointer to a program variable, untainted — no alert.
        let out = run(
            r#"int main() {
                int count = 0;
                printf("abcde%n", &count);
                printf("|%d", count);
                return 0;
            }"#,
            WorldConfig::new(),
        );
        assert_eq!(out.reason, ExitReason::Exited(0));
        assert_eq!(out.stdout_text(), "abcde|5");
    }

    #[test]
    fn rand_is_deterministic() {
        let out = run(
            r#"int main() {
                srand(42);
                int a = rand();
                srand(42);
                int b = rand();
                if (a != b) return 1;
                if (a < 0 || a > 32767) return 2;
                return 0;
            }"#,
            WorldConfig::new(),
        );
        assert_eq!(out.reason, ExitReason::Exited(0));
    }

    #[test]
    fn exit_propagates_status() {
        let out = run(r"int main() { exit(3); return 0; }", WorldConfig::new());
        assert_eq!(out.reason, ExitReason::Exited(3));
    }

    #[test]
    fn no_alert_on_benign_workload() {
        // Copy tainted input around, index arrays with validated bytes:
        // exercises the false-positive story on a small scale.
        let out = run(
            r#"int freq[256];
               int main() {
                char buf[128];
                int i; int n = 0;
                int c = getchar();
                while (c >= 0 && n < 120) { buf[n] = c; n++; c = getchar(); }
                for (i = 0; i < n; i++) {
                    int b = checked_index(buf[i] & 0xff, 0, 255);
                    freq[b]++;
                }
                printf("%d %d", n, freq['a']);
                return 0;
            }"#,
            WorldConfig::new().stdin(b"aabbaacc".to_vec()),
        );
        assert_eq!(
            out.reason,
            ExitReason::Exited(0),
            "stdout: {}",
            out.stdout_text()
        );
        assert_eq!(out.stdout_text(), "8 4");
    }
}

#[cfg(test)]
mod libc_extras_tests {
    use super::build;
    use ptaint_cpu::DetectionPolicy;
    use ptaint_mem::HierarchyConfig;
    use ptaint_os::{load, run_to_exit, ExitReason, WorldConfig};

    fn run(app_c: &str, world: WorldConfig) -> ptaint_os::RunOutcome {
        let image = build(app_c).unwrap_or_else(|e| panic!("build failed: {e}"));
        let (mut cpu, mut os) = load(
            &image,
            world,
            DetectionPolicy::PointerTaintedness,
            HierarchyConfig::flat(),
        );
        run_to_exit(&mut cpu, &mut os, 50_000_000)
    }

    #[test]
    fn ctype_helpers() {
        let out = run(
            r#"int main() {
                if (!isdigit('7') || isdigit('x')) return 1;
                if (!isalpha('g') || !isalpha('G') || isalpha('7')) return 2;
                if (!isspace(' ') || !isspace('\n') || isspace('.')) return 3;
                if (toupper('a') != 'A' || toupper('Z') != 'Z') return 4;
                if (tolower('Q') != 'q' || tolower('3') != '3') return 5;
                return 0;
            }"#,
            WorldConfig::new(),
        );
        assert_eq!(out.reason, ExitReason::Exited(0));
    }

    #[test]
    fn qsort_with_function_pointer_comparators() {
        let out = run(
            r#"int ascending(int a, int b) { return a - b; }
               int descending(int a, int b) { return b - a; }
               int v[10];
               int main() {
                   int i;
                   srand(7);
                   for (i = 0; i < 10; i++) v[i] = rand() % 100;
                   qsort(v, 10, ascending);
                   for (i = 1; i < 10; i++) if (v[i-1] > v[i]) return 1;
                   if (bsearch_int(v, 10, v[4]) < 0) return 2;
                   if (bsearch_int(v, 10, -999) != -1) return 3;
                   qsort(v, 10, descending);
                   for (i = 1; i < 10; i++) if (v[i-1] < v[i]) return 4;
                   printf("sorted\n");
                   return 0;
               }"#,
            WorldConfig::new(),
        );
        assert_eq!(out.reason, ExitReason::Exited(0), "{}", out.stdout_text());
        assert_eq!(out.stdout_text(), "sorted\n");
    }

    #[test]
    fn qsort_on_tainted_data_is_alert_free() {
        // Sorting attacker-controlled values moves tainted words around and
        // calls through a (clean) function pointer: no alert.
        let out = run(
            r#"int ascending(int a, int b) { return a - b; }
               int v[16];
               int main() {
                   char buf[64];
                   int n = 0;
                   int i = 0;
                   while (n < 16 && scanf("%d", &v[n]) > 0) n++;
                   qsort(v, n, ascending);
                   for (i = 0; i < n; i++) printf("%d ", v[i]);
                   return 0;
               }"#,
            WorldConfig::new().stdin(b"5 3 9 1 7".to_vec()),
        );
        assert_eq!(out.reason, ExitReason::Exited(0), "{}", out.stdout_text());
        assert_eq!(out.stdout_text(), "1 3 5 7 9 ");
    }
}

#[cfg(test)]
mod libc_sscanf_realloc_tests {
    use super::build;
    use ptaint_cpu::DetectionPolicy;
    use ptaint_mem::HierarchyConfig;
    use ptaint_os::{load, run_to_exit, ExitReason, WorldConfig};

    fn run(app_c: &str, world: WorldConfig) -> ptaint_os::RunOutcome {
        let image = build(app_c).unwrap_or_else(|e| panic!("build failed: {e}"));
        let (mut cpu, mut os) = load(
            &image,
            world,
            DetectionPolicy::PointerTaintedness,
            HierarchyConfig::flat(),
        );
        run_to_exit(&mut cpu, &mut os, 50_000_000)
    }

    #[test]
    fn sscanf_parses_words_and_numbers() {
        let out = run(
            r#"int main() {
                char word[16];
                int x;
                int y;
                int n = sscanf("  alpha  -42 17", "%s %d %d", word, &x, &y);
                printf("%d %s %d %d\n", n, word, x, y);
                n = sscanf("beta", "%s %d", word, &x);
                printf("%d %s\n", n, word);
                return 0;
            }"#,
            WorldConfig::new(),
        );
        assert_eq!(out.reason, ExitReason::Exited(0), "{}", out.stdout_text());
        assert_eq!(out.stdout_text(), "3 alpha -42 17\n1 beta\n");
    }

    #[test]
    fn realloc_grows_shrinks_and_preserves() {
        let out = run(
            r#"int main() {
                int i;
                char *p = malloc(16);
                for (i = 0; i < 16; i++) p[i] = 'a' + i;
                char *q = realloc(p, 100);         /* grow: copies */
                for (i = 0; i < 16; i++) if (q[i] != 'a' + i) return 1;
                char *r = realloc(q, 8);           /* shrink: in place */
                if (r != q) return 2;
                char *z = realloc(0, 10);          /* NULL -> malloc */
                if (!z) return 3;
                if (realloc(z, 0) != 0) return 4;  /* 0 -> free */
                printf("realloc ok\n");
                return 0;
            }"#,
            WorldConfig::new(),
        );
        assert_eq!(out.reason, ExitReason::Exited(0), "{}", out.stdout_text());
        assert_eq!(out.stdout_text(), "realloc ok\n");
    }

    #[test]
    fn realloc_copies_taint_with_the_data() {
        // Tainted bytes moved by realloc stay tainted: dereferencing a word
        // rebuilt from them still alerts.
        let out = run(
            r#"int main() {
                char *p = malloc(8);
                int n = read(0, p, 4);
                char *q = realloc(p, 64);
                int v = *(int*)q;          /* tainted word */
                return *(int*)v;           /* dereference -> alert */
            }"#,
            WorldConfig::new().stdin(b"aaaa".to_vec()),
        );
        let alert = out.reason.alert().expect("taint must survive realloc");
        assert_eq!(alert.pointer, 0x6161_6161);
    }
}
