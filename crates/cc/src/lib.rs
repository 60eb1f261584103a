#![warn(missing_docs)]

//! # ptaint-cc — a mini-C compiler targeting the ptaint ISA
//!
//! The DSN 2005 paper evaluates pointer-taintedness detection on *compiled
//! binaries*: the attacks corrupt saved return addresses, heap chunk links
//! walked by `free()`, and the `ap` argument pointer inside `vfprintf`. To
//! reproduce those code paths faithfully we need real compiled code with
//! real stack frames — so this crate implements a small C compiler from
//! scratch.
//!
//! ## Language
//!
//! A practical C subset:
//!
//! * types: `void`, `int`, `unsigned`, `char`, multi-level pointers, sized
//!   arrays, named `struct`s (declared at file scope), function pointers;
//! * declarations: globals (with scalar/string initializers), locals,
//!   functions, prototypes, **variadic functions** (`...`);
//! * statements: blocks, `if`/`else`, `while`, `do`/`while`, `for`,
//!   `return`, `break`, `continue`;
//! * expressions: the full C operator set short of the comma operator —
//!   assignment (simple and compound), ternary, logical/bitwise/relational/
//!   shift/additive/multiplicative, casts, `sizeof`, `&`/`*`, array
//!   indexing, `.`/`->`, pre/post `++`/`--`, calls through names and
//!   function pointers;
//! * no preprocessor (guest sources are written without `#include`).
//!
//! ## ABI (shared with the hand-written assembly in `ptaint-guest`)
//!
//! * **All arguments are passed on the stack**, 4 bytes each, `arg i` at
//!   `fp + 4*i` of the callee. This is what makes `printf`-style varargs —
//!   and therefore the paper's format-string attack through `%n` — work
//!   exactly as in the original vulnerable C libraries: the callee walks an
//!   argument pointer up its caller's frame.
//! * Frame layout (high → low): incoming args (at/above `fp`), saved `$ra`
//!   at `fp-4`, saved `$fp` at `fp-8`, locals below, in declaration order
//!   from high to low addresses. A local buffer therefore overflows *upward*
//!   into later-declared^H^H earlier-declared locals, then the saved frame
//!   pointer, then the **return address** — the exact layout of the paper's
//!   Figure 2.
//! * Return value in `$v0`; `$v0`, `$t0`, `$t1`, `$t9`, `$at` are clobbered.
//!
//! The output is textual assembly for [`ptaint_asm::assemble`]. A fixed
//! unit prefix (the guest libc) can be compiled once with
//! [`compile_prelude`]; [`compile_with`] then compiles the rest of the
//! unit from that state, and [`compile`] is its empty-prelude case.
//!
//! ```
//! let asm = ptaint_cc::compile(r#"
//!     int add(int a, int b) { return a + b; }
//!     int main() { return add(2, 3); }
//! "#)?;
//! let image = ptaint_asm::assemble(&asm)?;
//! assert!(image.symbol("add").is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod ast;
mod codegen;
mod lexer;
mod opt;
mod parser;
mod prelude;

pub use ast::{BinOp, Expr, ExprKind, GlobalInit, Item, Program, Stmt, Type, UnOp};
pub use codegen::compile_program;
pub use lexer::{lex, Token, TokenKind};
pub use opt::{compile_optimized, optimize_asm};
pub use parser::parse;
pub use prelude::{compile_prelude, compile_with, Prelude};

/// A compilation error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CcError {
    /// 1-based line number.
    pub line: u32,
    /// Description.
    pub msg: String,
}

impl CcError {
    pub(crate) fn new(line: u32, msg: impl Into<String>) -> CcError {
        CcError {
            line,
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for CcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for CcError {}

/// Compiles mini-C source to ptaint assembly text.
///
/// # Errors
///
/// Returns a [`CcError`] naming the offending line for lexical, syntactic,
/// and semantic (type/name) errors.
pub fn compile(source: &str) -> Result<String, CcError> {
    compile_with(Prelude::default(), source)
}
