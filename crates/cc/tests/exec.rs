//! End-to-end compiler tests: compile mini-C, assemble, execute on the
//! taint-tracking CPU, and check results.

use ptaint_cpu::{Cpu, DetectionPolicy, StepEvent};
use ptaint_isa::{Reg, STACK_TOP};
use ptaint_mem::{MemorySystem, WordTaint};

/// Minimal test harness entry point: calls `main` with no arguments, then
/// stops the simulation with `break 0`. (`_start` wins entry resolution.)
const TEST_CRT: &str = "
_start:
        addiu $sp, $sp, -16
        jal main
        break 0
";

/// Compiles and runs `src`; returns the final CPU state (with `main`'s
/// return value in `$v0`).
fn run_c(src: &str) -> Cpu {
    let asm = ptaint_cc::compile(src).unwrap_or_else(|e| panic!("compile error: {e}"));
    let full = format!("{asm}\n{TEST_CRT}\n");
    let image = ptaint_asm::assemble(&full)
        .unwrap_or_else(|e| panic!("assemble error: {e}\n--- asm ---\n{full}"));
    let mut mem = MemorySystem::flat();
    for (i, &w) in image.text.iter().enumerate() {
        mem.write_u32(image.text_base + 4 * i as u32, w, WordTaint::CLEAN)
            .unwrap();
    }
    mem.write_bytes(image.data_base, &image.data, false)
        .unwrap();
    let mut cpu = Cpu::new(mem, DetectionPolicy::PointerTaintedness);
    cpu.set_pc(image.entry);
    // Keep a retire tail for the failure message below.
    cpu.set_trace_depth(ptaint_cpu::DEFAULT_TRACE_DEPTH);
    cpu.regs_mut()
        .set(Reg::SP, STACK_TOP - 64, WordTaint::CLEAN);
    for step in 0..10_000_000u64 {
        match cpu.step() {
            Ok(StepEvent::BreakTrap(_)) => return cpu,
            Ok(_) => {}
            Err(e) => {
                let trace: Vec<String> = cpu
                    .recent_trace()
                    .iter()
                    .map(|(pc, i)| format!("{pc:#x}: {i}"))
                    .collect();
                panic!(
                    "execution failed at step {step}: {e}\ntrace:\n{}",
                    trace.join("\n")
                );
            }
        }
    }
    panic!("program did not terminate");
}

fn ret(src: &str) -> i32 {
    run_c(src).regs().value(Reg::V0) as i32
}

#[test]
fn constants_and_arithmetic() {
    assert_eq!(ret("int main() { return 0; }"), 0);
    assert_eq!(ret("int main() { return 41 + 1; }"), 42);
    assert_eq!(ret("int main() { return 1 + 2 * 3 - 4 / 2; }"), 5);
    assert_eq!(ret("int main() { return 17 % 5; }"), 2);
    assert_eq!(ret("int main() { return -7 / 2; }"), -3);
    assert_eq!(ret("int main() { return -7 % 2; }"), -1);
    assert_eq!(ret("int main() { return (1 + 2) * (3 + 4); }"), 21);
}

#[test]
fn bitwise_and_shifts() {
    assert_eq!(ret("int main() { return 0xf0 | 0x0f; }"), 0xff);
    assert_eq!(ret("int main() { return 0xff & 0x3c; }"), 0x3c);
    assert_eq!(ret("int main() { return 0xff ^ 0x0f; }"), 0xf0);
    assert_eq!(ret("int main() { return ~0; }"), -1);
    assert_eq!(ret("int main() { return 1 << 10; }"), 1024);
    assert_eq!(ret("int main() { return -8 >> 1; }"), -4);
    assert_eq!(
        ret("int main() { unsigned x = 0x80000000; return x >> 28; }"),
        8
    );
}

#[test]
fn comparisons_and_logic() {
    assert_eq!(ret("int main() { return 3 < 5; }"), 1);
    assert_eq!(ret("int main() { return 5 < 3; }"), 0);
    assert_eq!(ret("int main() { return 3 <= 3; }"), 1);
    assert_eq!(ret("int main() { return 4 > 3; }"), 1);
    assert_eq!(ret("int main() { return 4 >= 5; }"), 0);
    assert_eq!(ret("int main() { return 7 == 7; }"), 1);
    assert_eq!(ret("int main() { return 7 != 7; }"), 0);
    assert_eq!(ret("int main() { return -1 < 1; }"), 1, "signed compare");
    assert_eq!(
        ret("int main() { unsigned a = 0xffffffff; return a < 1; }"),
        0,
        "unsigned compare"
    );
    assert_eq!(ret("int main() { return 1 && 2; }"), 1);
    assert_eq!(ret("int main() { return 1 && 0; }"), 0);
    assert_eq!(ret("int main() { return 0 || 3; }"), 1);
    assert_eq!(ret("int main() { return !5; }"), 0);
    assert_eq!(ret("int main() { return !0; }"), 1);
}

#[test]
fn short_circuit_does_not_evaluate_rhs() {
    assert_eq!(
        ret("int g = 0;
             int bump() { g = 1; return 1; }
             int main() { 0 && bump(); return g; }"),
        0
    );
    assert_eq!(
        ret("int g = 0;
             int bump() { g = 1; return 1; }
             int main() { 1 || bump(); return g; }"),
        0
    );
}

#[test]
fn variables_and_assignment() {
    assert_eq!(
        ret("int main() { int a = 3; int b = 4; return a * b; }"),
        12
    );
    assert_eq!(
        ret("int main() { int a; int b; a = b = 5; return a + b; }"),
        10
    );
    assert_eq!(
        ret("int main() { int a = 10; a += 5; a -= 3; a *= 2; a /= 4; return a; }"),
        6
    );
    assert_eq!(
        ret("int main() { int a = 6; a %= 4; a <<= 3; a >>= 1; a |= 1; return a; }"),
        9
    );
    assert_eq!(
        ret("int main() { int a = 0xff; a &= 0x0f; a ^= 0xff; return a; }"),
        0xf0
    );
}

#[test]
fn inc_dec() {
    assert_eq!(ret("int main() { int i = 5; return i++; }"), 5);
    assert_eq!(ret("int main() { int i = 5; i++; return i; }"), 6);
    assert_eq!(ret("int main() { int i = 5; return ++i; }"), 6);
    assert_eq!(ret("int main() { int i = 5; return i--; }"), 5);
    assert_eq!(ret("int main() { int i = 5; return --i; }"), 4);
    assert_eq!(
        ret("int main() { int a[3]; int *p; a[0]=1; a[1]=2; a[2]=3; p = a; p++; return *p; }"),
        2
    );
}

#[test]
fn control_flow() {
    assert_eq!(
        ret("int main() { int i; int s = 0; for (i = 1; i <= 10; i++) s += i; return s; }"),
        55
    );
    assert_eq!(
        ret("int main() { int n = 0; while (n < 7) n++; return n; }"),
        7
    );
    assert_eq!(
        ret("int main() { int n = 0; do { n++; } while (n < 3); return n; }"),
        3
    );
    assert_eq!(
        ret("int main() { int i; int s = 0;
             for (i = 0; i < 100; i++) { if (i == 5) continue; if (i == 8) break; s += i; }
             return s; }"),
        1 + 2 + 3 + 4 + 6 + 7
    );
    assert_eq!(
        ret("int main() { int x = 10; if (x > 5) return 1; else return 2; }"),
        1
    );
    assert_eq!(ret("int main() { return 1 ? 10 : 20; }"), 10);
    assert_eq!(ret("int main() { return 0 ? 10 : 20; }"), 20);
}

#[test]
fn functions_and_recursion() {
    assert_eq!(
        ret("int add(int a, int b) { return a + b; }
             int main() { return add(40, 2); }"),
        42
    );
    assert_eq!(
        ret(
            "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
             int main() { return fib(12); }"
        ),
        144
    );
    assert_eq!(
        ret("int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }
             int main() { return fact(6); }"),
        720
    );
    // Deep call chains exercise frame save/restore.
    assert_eq!(
        ret("int f(int n) { if (n == 0) return 0; return 1 + f(n - 1); }
             int main() { return f(500); }"),
        500
    );
}

#[test]
fn pointers_and_arrays() {
    assert_eq!(
        ret("int main() { int x = 7; int *p = &x; *p = 9; return x; }"),
        9
    );
    assert_eq!(
        ret("int main() { int a[4]; a[0] = 1; a[1] = 2; a[3] = a[0] + a[1]; return a[3]; }"),
        3
    );
    assert_eq!(
        ret("int main() { int a[4]; int *p = a + 2; *p = 42; return a[2]; }"),
        42
    );
    assert_eq!(
        ret("int sum(int *v, int n) { int s = 0; int i; for (i = 0; i < n; i++) s += v[i]; return s; }
             int main() { int a[5]; int i; for (i = 0; i < 5; i++) a[i] = i * i; return sum(a, 5); }"),
        1 + 4 + 9 + 16
    );
    assert_eq!(
        ret("int main() { int a[8]; int *p = &a[6]; int *q = &a[2]; return p - q; }"),
        4
    );
    assert_eq!(
        ret("int main() { char s[4]; s[0]='a'; s[1]='b'; char *p = s; return p[1]; }"),
        98
    );
}

#[test]
fn strings_and_globals() {
    assert_eq!(
        ret(r#"char msg[8] = "hi";
               int main() { return msg[0] + msg[1]; }"#),
        (b'h' + b'i') as i32
    );
    assert_eq!(
        ret(r#"char *msg = "abc";
               int main() { return msg[2]; }"#),
        b'c' as i32
    );
    assert_eq!(
        ret("int table[4] = {10, 20, 30};
             int main() { return table[0] + table[1] + table[2] + table[3]; }"),
        60
    );
    assert_eq!(
        ret("int counter = 5;
             void bump() { counter++; }
             int main() { bump(); bump(); return counter; }"),
        7
    );
    assert_eq!(
        ret(r#"int main() { char *s = "xyz"; return s[0]; }"#),
        b'x' as i32
    );
}

#[test]
fn char_semantics() {
    // chars load sign-extended (lb), mask to recover bytes >= 0x80.
    assert_eq!(ret("int main() { char c = 200; return c; }"), 200i32 - 256);
    assert_eq!(ret("int main() { char c = 200; return c & 0xff; }"), 200);
    assert_eq!(ret("int main() { char c = 'A'; return c + 1; }"), 66);
}

#[test]
fn structs() {
    assert_eq!(
        ret("struct point { int x; int y; };
             int main() { struct point p; p.x = 3; p.y = 4; return p.x * p.x + p.y * p.y; }"),
        25
    );
    assert_eq!(
        ret("struct point { int x; int y; };
             int manhattan(struct point *p) { return p->x + p->y; }
             int main() { struct point p; p.x = 3; p.y = 4; return manhattan(&p); }"),
        7
    );
    // The heap-chunk pattern the allocator uses: linked structures.
    assert_eq!(
        ret("struct node { int value; struct node *next; };
             int main() {
                struct node a; struct node b; struct node c;
                a.value = 1; b.value = 2; c.value = 3;
                a.next = &b; b.next = &c; c.next = 0;
                int s = 0;
                struct node *p = &a;
                while (p) { s += p->value; p = p->next; }
                return s;
             }"),
        6
    );
    assert_eq!(
        ret("struct mixed { char tag; int value; char name[5]; };
             int main() { struct mixed m; m.tag = 1; m.value = 100; m.name[4] = 7;
                          return sizeof(struct mixed) + m.value + m.name[4]; }"),
        16 + 100 + 7
    );
}

#[test]
fn sizeof_results() {
    assert_eq!(ret("int main() { return sizeof(int); }"), 4);
    assert_eq!(ret("int main() { return sizeof(char); }"), 1);
    assert_eq!(ret("int main() { return sizeof(char*); }"), 4);
    assert_eq!(ret("int main() { int a[10]; return sizeof a; }"), 40);
    assert_eq!(ret("int main() { char b[10]; return sizeof b; }"), 10);
    assert_eq!(ret("int main() { int x; return sizeof x; }"), 4);
}

#[test]
fn casts() {
    assert_eq!(
        ret("int main() { int x = 0x12345678; char c = (char)x; return c; }"),
        0x78
    );
    assert_eq!(
        ret("int main() { unsigned u = (unsigned)-1; return u > 100; }"),
        1
    );
    // int <-> pointer round trip.
    assert_eq!(
        ret("int main() { int x = 5; int addr = (int)&x; int *p = (int*)addr; return *p; }"),
        5
    );
    // Word access through a cast char pointer.
    assert_eq!(
        ret("int main() { int x = 0x01020304; char *p = (char*)&x; return p[0]; }"),
        4,
        "little-endian byte order"
    );
}

#[test]
fn function_pointers() {
    assert_eq!(
        ret("int twice(int x) { return 2 * x; }
             int thrice(int x) { return 3 * x; }
             int main() {
                int (*fp)(int);
                fp = twice;
                int a = fp(10);
                fp = thrice;
                return a + fp(10);
             }"),
        50
    );
    assert_eq!(
        ret("int inc(int x) { return x + 1; }
             int apply(int (*f)(int), int v) { return f(v); }
             int main() { return apply(inc, 41); }"),
        42
    );
}

#[test]
fn varargs_walk_the_stack() {
    // The vfprintf pattern: walk an argument pointer past the last named
    // parameter. This must work for the format-string attack to exist.
    assert_eq!(
        ret("int sum(int count, ...) {
                 char *ap = (char*)&count + 4;
                 int s = 0;
                 int i;
                 for (i = 0; i < count; i++) {
                     s += *(int*)ap;
                     ap += 4;
                 }
                 return s;
             }
             int main() { return sum(4, 10, 20, 30, 40); }"),
        100
    );
}

#[test]
fn nested_scopes_shadowing() {
    assert_eq!(
        ret("int main() {
                int x = 1;
                { int x = 2; { int x = 3; } }
                return x;
             }"),
        1
    );
}

#[test]
fn multi_dimensional_arrays() {
    assert_eq!(
        ret("int main() {
                int g[3][4];
                int i; int j;
                for (i = 0; i < 3; i++)
                    for (j = 0; j < 4; j++)
                        g[i][j] = i * 10 + j;
                return g[2][3];
             }"),
        23
    );
}

#[test]
fn stack_frame_layout_matches_figure_2() {
    // The address of a later-declared local must be *below* an
    // earlier-declared one, and both below the frame pointer, so that a
    // buffer overflow runs toward the saved registers — the layout the
    // paper's attacks (and our guest apps) rely on.
    assert_eq!(
        ret("int main() {
                int first;
                char buf[16];
                int delta = (int)&first - (int)buf;
                return delta == 16;
             }"),
        1
    );
    // buf[16] (one past the end) aliases `first`'s first byte.
    assert_eq!(
        ret("int main() {
                int first = 0;
                char buf[16];
                buf[16] = 0x41;
                return first;
             }"),
        0x41
    );
}

#[test]
fn compile_errors() {
    for (src, needle) in [
        ("int main() { return x; }", "undefined name"),
        ("int main() { int x; return x(); }", "not a function"),
        ("int main() { 5 = 6; return 0; }", "not an lvalue"),
        (
            "int f(int a); int main() { return f(1, 2); }",
            "wrong number of arguments",
        ),
        ("int main() { int x; return x.y; }", "`.` on non-struct"),
        (
            "int main() { int x; return *x; }",
            "dereference non-pointer",
        ),
        (
            "struct s { int a; }; int main() { struct s v; return v.b; }",
            "no field",
        ),
        ("int main() { break; }", "outside a loop"),
        ("int main() { continue; }", "outside a loop"),
        ("int x; int x;", "duplicate global"),
        ("int main() { struct nope n; return 0; }", "unknown struct"),
    ] {
        let err = ptaint_cc::compile(src).expect_err(src);
        assert!(
            err.msg.contains(needle),
            "expected `{needle}` in error for {src}, got: {err}"
        );
    }
}

#[test]
fn do_while_and_complex_conditions() {
    assert_eq!(
        ret("int main() {
                int i = 0; int found = 0;
                int a[10];
                for (i = 0; i < 10; i++) a[i] = i * 3;
                i = 0;
                while (i < 10 && !found) {
                    if (a[i] == 15) found = i;
                    i++;
                }
                return found;
             }"),
        5
    );
}

#[test]
fn globals_of_pointer_type() {
    assert_eq!(
        ret(r#"char *cgi_root = "/usr/local/httpd/cgi-bin";
               int main() { return cgi_root[0]; }"#),
        b'/' as i32
    );
}

#[test]
fn function_pointer_arrays() {
    assert_eq!(
        ret("int inc(int x) { return x + 1; }
             int dbl(int x) { return 2 * x; }
             int (*table[2])(int);
             int main() {
                int (*local[2])(int);
                table[0] = inc;
                table[1] = dbl;
                local[0] = dbl;
                local[1] = inc;
                return table[0](10) + table[1](10) + local[0](3) + local[1](3);
             }"),
        11 + 20 + 6 + 4
    );
}
