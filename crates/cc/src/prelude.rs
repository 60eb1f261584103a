//! Compiling a unit in two steps: a fixed prefix once ([`Prelude`]), then
//! any number of continuations of it.

use std::collections::HashMap;

use crate::ast::{StructDef, Type};
use crate::codegen::{Codegen, Decls, FuncSig};
use crate::lexer::lex_from;
use crate::parser::parse_with;
use crate::CcError;

/// The compiler's state after a unit prefix.
///
/// [`compile_prelude`] compiles a prefix and keeps what its items leave for
/// later ones: the struct table, the global and function declarations, the
/// interned string literals, the label counter, and the line the prefix
/// ends on. [`compile_with`] compiles a continuation from that state and
/// reports its errors at their lines in the whole unit.
///
/// Nothing in a continuation can change how the prefix compiled. A name
/// keeps its first declaration (a later one that differs is a "conflicting
/// declarations" error), structs cannot be redefined, and the prefix's
/// labels are numbered before any of the continuation's. So the prefix's
/// assembly is fixed, and the assembler can lay it out once too (see
/// `ptaint_asm::Prelude`). A prelude persists as bytes
/// ([`Prelude::to_bytes`]), so a build script can compile a prefix and
/// embed the result.
///
/// The default value is the empty prefix:
/// `compile_with(Prelude::default(), s)` is [`compile`](crate::compile)`(s)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prelude {
    /// The line the continuation starts on.
    next_line: u32,
    structs: HashMap<String, StructDef>,
    decls: Decls,
}

impl Default for Prelude {
    fn default() -> Prelude {
        Prelude {
            next_line: 1,
            structs: HashMap::new(),
            decls: Decls::default(),
        }
    }
}

/// Compiles `prefix`, which must end at a line break, and returns the state
/// it leaves with its assembly.
///
/// The assembly is what the prefix contributes to the unit's: a `.data`
/// part with its globals and a `.text` part with its code, in the shape
/// [`compile`](crate::compile) emits. The prefix's string literals are not
/// in it: they follow every global of the unit, so [`compile_with`] emits
/// them.
///
/// # Errors
///
/// Any [`CcError`] the prefix has on its own, and an error at its last line
/// when it does not end with a newline.
pub fn compile_prelude(prefix: &str) -> Result<(Prelude, String), CcError> {
    let tokens = lex_from(prefix, 1)?;
    let next_line = tokens.last().map_or(1, |t| t.line);
    if !prefix.is_empty() && !prefix.ends_with('\n') {
        return Err(CcError::new(next_line, "a prelude must end with a newline"));
    }
    let program = parse_with(&tokens, HashMap::new())?;
    let mut cg = Codegen::new(&program, Decls::default());
    cg.run()?;
    let (decls, asm) = cg.into_prelude();
    let prelude = Prelude {
        next_line,
        structs: program.structs,
        decls,
    };
    Ok((prelude, asm))
}

/// Compiles `source` as the continuation of the prefix `prelude` was made
/// from. The continuation's items extend the prelude's declarations in
/// place, so it is consumed: clone it to compile several continuations.
///
/// The result is the assembly the whole unit would have, less the prefix's
/// globals and code: the continuation's globals, every string literal of the
/// unit, then the continuation's code.
///
/// # Errors
///
/// The [`CcError`] compiling the whole unit would report, at its line in
/// the whole unit.
pub fn compile_with(prelude: Prelude, source: &str) -> Result<String, CcError> {
    let tokens = lex_from(source, prelude.next_line)?;
    let program = parse_with(&tokens, prelude.structs)?;
    let mut cg = Codegen::new(&program, prelude.decls);
    cg.run()?;
    Ok(cg.finish())
}

const MAGIC: &[u8] = b"ptaint-cc prelude 1\n";

impl Prelude {
    /// Serializes the prelude. Maps are written in name order, so equal
    /// preludes give equal bytes.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer(MAGIC.to_vec());
        w.u32(self.next_line);
        w.u32(self.decls.label_count);
        w.u32(self.structs.len() as u32);
        for (name, def) in sorted(&self.structs) {
            w.str(name);
            w.u32(def.size);
            w.u32(def.align);
            w.u32(def.fields.len() as u32);
            for (field, offset, ty) in &def.fields {
                w.str(field);
                w.u32(*offset);
                w.ty(ty);
            }
        }
        w.u32(self.decls.globals.len() as u32);
        for (name, ty) in sorted(&self.decls.globals) {
            w.str(name);
            w.ty(ty);
        }
        w.u32(self.decls.funcs.len() as u32);
        for (name, sig) in sorted(&self.decls.funcs) {
            w.str(name);
            w.ty(&sig.ret);
            w.u32(sig.params.len() as u32);
            for p in &sig.params {
                w.ty(p);
            }
            w.u32(u32::from(sig.variadic));
        }
        w.u32(self.decls.strings.len() as u32);
        for (label, bytes) in &self.decls.strings {
            w.str(label);
            w.bytes(bytes);
        }
        w.0
    }

    /// Reads a prelude written by [`to_bytes`](Self::to_bytes); `None` when
    /// `bytes` is not one.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Option<Prelude> {
        let mut r = Reader(bytes.strip_prefix(MAGIC)?);
        let next_line = r.u32()?;
        let label_count = r.u32()?;
        let structs = (0..r.u32()?)
            .map(|_| {
                let name = r.string()?;
                let (size, align) = (r.u32()?, r.u32()?);
                let fields = (0..r.u32()?)
                    .map(|_| Some((r.string()?, r.u32()?, r.ty()?)))
                    .collect::<Option<_>>()?;
                Some((
                    name,
                    StructDef {
                        fields,
                        size,
                        align,
                    },
                ))
            })
            .collect::<Option<_>>()?;
        let globals = (0..r.u32()?)
            .map(|_| Some((r.string()?, r.ty()?)))
            .collect::<Option<_>>()?;
        let funcs = (0..r.u32()?)
            .map(|_| {
                let name = r.string()?;
                let ret = r.ty()?;
                let params = (0..r.u32()?).map(|_| r.ty()).collect::<Option<_>>()?;
                let variadic = r.u32()? != 0;
                Some((
                    name,
                    FuncSig {
                        ret,
                        params,
                        variadic,
                    },
                ))
            })
            .collect::<Option<_>>()?;
        let strings = (0..r.u32()?)
            .map(|_| Some((r.string()?, r.bytes()?.to_vec())))
            .collect::<Option<_>>()?;
        if !r.0.is_empty() {
            return None;
        }
        Some(Prelude {
            next_line,
            structs,
            decls: Decls {
                globals,
                funcs,
                strings,
                label_count,
            },
        })
    }
}

fn sorted<V>(map: &HashMap<String, V>) -> Vec<(&String, &V)> {
    let mut entries: Vec<_> = map.iter().collect();
    entries.sort_unstable_by_key(|&(name, _)| name);
    entries
}

struct Writer(Vec<u8>);

impl Writer {
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.0.extend_from_slice(b);
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn ty(&mut self, ty: &Type) {
        match ty {
            Type::Void => self.0.push(0),
            Type::Int => self.0.push(1),
            Type::Uint => self.0.push(2),
            Type::Char => self.0.push(3),
            Type::Ptr(inner) => {
                self.0.push(4);
                self.ty(inner);
            }
            Type::Array(elem, n) => {
                self.0.push(5);
                self.u32(*n);
                self.ty(elem);
            }
            Type::Struct(name) => {
                self.0.push(6);
                self.str(name);
            }
            Type::Func {
                ret,
                params,
                variadic,
            } => {
                self.0.push(7);
                self.ty(ret);
                self.u32(params.len() as u32);
                for p in params {
                    self.ty(p);
                }
                self.u32(u32::from(*variadic));
            }
        }
    }
}

struct Reader<'b>(&'b [u8]);

impl<'b> Reader<'b> {
    fn take(&mut self, n: usize) -> Option<&'b [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn bytes(&mut self) -> Option<&'b [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    fn string(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?.to_vec()).ok()
    }

    fn ty(&mut self) -> Option<Type> {
        Some(match self.take(1)?[0] {
            0 => Type::Void,
            1 => Type::Int,
            2 => Type::Uint,
            3 => Type::Char,
            4 => self.ty()?.ptr(),
            5 => {
                let n = self.u32()?;
                Type::Array(Box::new(self.ty()?), n)
            }
            6 => Type::Struct(self.string()?),
            7 => {
                let ret = Box::new(self.ty()?);
                let params = (0..self.u32()?).map(|_| self.ty()).collect::<Option<_>>()?;
                let variadic = self.u32()? != 0;
                Type::Func {
                    ret,
                    params,
                    variadic,
                }
            }
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    const PREFIX: &str = "struct pair { int a; char *b; };\n\
                          int counter;\n\
                          char *greeting = \"hi\";\n\
                          int twice(int x) { if (x) return x + x; return 0; }\n\
                          int apply(int (*f)(int), int v, ...);\n";

    #[test]
    fn continuation_equals_the_whole_unit_less_the_prefix() {
        let app = "int main() { struct pair p; p.a = twice(counter); return p.a; }\n\
                   char *other = \"hi\";\n";
        let (prelude, prefix_asm) = compile_prelude(PREFIX).unwrap();
        let whole = compile(&format!("{PREFIX}{app}")).unwrap();
        let cont = compile_with(prelude.clone(), app).unwrap();
        // Splice the prefix's .data and .text bodies back into the
        // continuation: that is the whole unit's assembly.
        let body = |asm: &str| -> (String, String) {
            let (data, text) = asm.split_once("        .text\n").unwrap();
            let data = data.strip_prefix("# generated by ptaint-cc\n        .data\n");
            (data.unwrap().to_owned(), text.to_owned())
        };
        let (pdata, ptext) = body(&prefix_asm);
        let (cdata, ctext) = body(&cont);
        let spliced = format!(
            "# generated by ptaint-cc\n        .data\n{pdata}{cdata}        .text\n{ptext}{ctext}"
        );
        assert_eq!(spliced, whole);
    }

    #[test]
    fn errors_keep_their_unit_lines() {
        let (prelude, _) = compile_prelude(PREFIX).unwrap();
        for app in [
            "int main() {\n  return nope;\n}\n",
            "int main() {\n  return 1 +;\n}\n",
            "int f() { return 0; }\n\n int main() { @ }\n",
            "struct pair { int z; };\n",
            "char twice(int x);\n",
            "int twice;\n",
            "int counter() { return 1; }\n",
        ] {
            let whole = compile(&format!("{PREFIX}{app}")).unwrap_err();
            assert_eq!(
                compile_with(prelude.clone(), app).unwrap_err(),
                whole,
                "{app}"
            );
        }
    }

    #[test]
    fn empty_prelude_is_plain_compile() {
        let src = "int g = 3;\nint main() { return g; }\n";
        assert_eq!(
            compile_with(Prelude::default(), src).unwrap(),
            compile(src).unwrap()
        );
        let (prelude, asm) = compile_prelude("").unwrap();
        assert_eq!(prelude, Prelude::default());
        assert_eq!(
            asm,
            "# generated by ptaint-cc\n        .data\n        .text\n"
        );
    }

    #[test]
    fn prefix_must_end_at_a_line_break() {
        let err = compile_prelude("int x; // no newline").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn bytes_round_trip() {
        let (prelude, _) = compile_prelude(PREFIX).unwrap();
        let bytes = prelude.to_bytes();
        assert_eq!(Prelude::from_bytes(&bytes), Some(prelude.clone()));
        assert_eq!(prelude.next_line, 6);
        assert_eq!(Prelude::from_bytes(&bytes[..bytes.len() - 1]), None);
        assert_eq!(Prelude::from_bytes(b"junk"), None);
    }
}
