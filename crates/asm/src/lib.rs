#![warn(missing_docs)]

//! # ptaint-asm — assembler, image format, and disassembler
//!
//! A two-pass assembler for the `ptaint` ISA. The mini-C compiler
//! (`ptaint-cc`) emits this textual assembly, and hand-written runtime pieces
//! (`crt0`, syscall stubs in `ptaint-guest`) are written in it directly.
//!
//! Supported syntax:
//!
//! * sections `.text` / `.data`, labels `name:`, comments `#` and `;`;
//! * data directives `.word`, `.half`, `.byte`, `.ascii`, `.asciiz`,
//!   `.space`, `.align`, `.globl`;
//! * every machine instruction of [`ptaint_isa::Instr`] in classic MIPS
//!   notation (`lw $t0,4($sp)`, `beq $a0,$zero,done`, …);
//! * pseudo-instructions `li`, `la`, `move`, `nop`, `b`, `beqz`, `bnez`,
//!   `blt`, `bge`, `bgt`, `ble`, `bltu`, `bgeu`, `not`, `neg`;
//! * relocation operators `%hi(sym)` / `%lo(sym)` usable as immediates.
//!
//! The result is an [`Image`]: position-resolved text and data bytes plus a
//! symbol table, ready to be mapped by the loader in `ptaint-os`.
//!
//! The assembler borrows from the source and does not allocate per
//! statement. Pass 1 scans each line once: it binds labels, lays out data
//! directly, and resolves each mnemonic to an internal enum. Pass 2 encodes
//! the instructions and `.word` expressions in source order. Errors follow
//! the passes: any pass-1 error (syntax, duplicate or invalid label,
//! directive, section misuse, a data segment past the stack top) is
//! reported before any pass-2 error (unknown mnemonic or register, operand
//! count, undefined symbol, out-of-range value), and pass-2 errors come in
//! source order. Mnemonics are case-insensitive; whitespace is anything
//! [`char::is_whitespace`] accepts.
//!
//! A unit's fixed leading globals and code (the guest libc) can be
//! assembled once into a [`Prelude`]; [`assemble_with`] then assembles the
//! rest of the unit after it, and [`assemble`] is its empty-prelude case.
//!
//! ```
//! use ptaint_asm::assemble;
//!
//! let image = assemble(r#"
//!     .data
//! msg: .asciiz "hi"
//!     .text
//! main:
//!     la   $a0, msg
//!     li   $v0, 4          # write
//!     jr   $ra
//! "#)?;
//! assert_eq!(image.entry, ptaint_isa::TEXT_BASE);
//! assert_eq!(image.text.len(), 4); // la expands to lui+ori
//! # Ok::<(), ptaint_asm::AsmError>(())
//! ```

mod assemble;
mod disasm;
mod image;
mod prelude;

pub use assemble::{assemble, assemble_with, AsmError};
pub use disasm::disassemble;
pub use image::Image;
pub use prelude::Prelude;
