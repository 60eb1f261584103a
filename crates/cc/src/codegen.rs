//! Code generation: typed AST → ptaint assembly text.
//!
//! The generator is a classic one-pass accumulator machine:
//!
//! * expression results live in `$v0`; binary operations spill the left
//!   operand to an expression stack below `$sp` and reload it into `$t1`;
//! * locals are addressed off `$fp` (see the crate docs for the frame
//!   layout); incoming argument *i* lives at `fp + 4*i`;
//! * `$t0`, `$t1`, `$t9`, and `$at` are scratch; nothing is live across a
//!   call except memory.
//!
//! Type checking happens during generation: every `gen_*` returns the static
//! type of the value it produced, and type errors carry source lines.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::ast::{BinOp, Expr, ExprKind, GlobalInit, Item, Program, Stmt, StructDef, Type, UnOp};
use crate::CcError;

/// Compiles a parsed [`Program`] to assembly text.
///
/// # Errors
///
/// Returns a [`CcError`] for semantic errors: unknown names, bad types,
/// wrong arity, assignment to rvalues, and aggregates used as values.
pub fn compile_program(program: &Program) -> Result<String, CcError> {
    let mut cg = Codegen::new(program, Decls::default());
    cg.run()?;
    Ok(cg.finish())
}

/// What one item's code generation leaves for the items after it: the
/// file-scope names, the string literals interned so far and the label
/// counter. A unit prefix hands these on as its [`Prelude`](crate::Prelude).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Decls {
    pub(crate) globals: HashMap<String, Type>,
    pub(crate) funcs: HashMap<String, FuncSig>,
    pub(crate) strings: Vec<(String, Vec<u8>)>,
    pub(crate) label_count: u32,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FuncSig {
    pub(crate) ret: Type,
    pub(crate) params: Vec<Type>,
    pub(crate) variadic: bool,
}

#[derive(Clone)]
struct LocalSlot {
    /// Byte offset relative to `$fp` (negative for locals, non-negative for
    /// parameters).
    offset: i32,
    ty: Type,
}

pub(crate) struct Codegen<'a> {
    program: &'a Program,
    structs: &'a HashMap<String, StructDef>,
    globals: HashMap<String, Type>,
    funcs: HashMap<String, FuncSig>,
    text: String,
    data: String,
    strings: Vec<(String, Vec<u8>)>,
    label_count: u32,

    // Per-function state.
    body: String,
    scopes: Vec<HashMap<String, LocalSlot>>,
    frame_next: u32,
    frame_max: u32,
    ret_label: String,
    break_labels: Vec<String>,
    continue_labels: Vec<String>,
}

impl<'a> Codegen<'a> {
    /// A generator for `program`'s items, continuing after the items that
    /// left `decls`.
    pub(crate) fn new(program: &'a Program, decls: Decls) -> Codegen<'a> {
        Codegen {
            program,
            structs: &program.structs,
            globals: decls.globals,
            funcs: decls.funcs,
            text: String::new(),
            data: String::new(),
            strings: decls.strings,
            label_count: decls.label_count,
            body: String::new(),
            scopes: Vec::new(),
            frame_next: 8,
            frame_max: 8,
            ret_label: String::new(),
            break_labels: Vec::new(),
            continue_labels: Vec::new(),
        }
    }

    fn fresh_label(&mut self, stem: &str) -> String {
        self.label_count += 1;
        format!("_L{}_{stem}", self.label_count)
    }

    fn o(&mut self, line: &str) {
        self.body.push_str("        ");
        self.body.push_str(line);
        self.body.push('\n');
    }

    fn label(&mut self, name: &str) {
        let _ = writeln!(self.body, "{name}:");
    }

    fn size_of(&self, ty: &Type, line: u32) -> Result<u32, CcError> {
        match ty {
            Type::Void => Err(CcError::new(line, "`void` has no size")),
            Type::Func { .. } => Err(CcError::new(line, "functions have no size")),
            Type::Struct(name) if !self.structs.contains_key(name) => {
                Err(CcError::new(line, format!("unknown struct `{name}`")))
            }
            _ => Ok(ty.size_of(self.structs)),
        }
    }

    // ---------------- driver ----------------

    pub(crate) fn run(&mut self) -> Result<(), CcError> {
        // Collect signatures and global types first (forward references).
        // A name keeps its first declaration: a later one must match it
        // exactly, so no item can change how an earlier one compiled.
        for item in &self.program.items {
            match item {
                Item::Func {
                    ret,
                    name,
                    params,
                    variadic,
                    line,
                    ..
                } => {
                    let sig = FuncSig {
                        ret: ret.clone(),
                        params: params.iter().map(|(t, _)| t.clone()).collect(),
                        variadic: *variadic,
                    };
                    if self.globals.contains_key(name)
                        || self.funcs.get(name).is_some_and(|prev| *prev != sig)
                    {
                        return Err(CcError::new(
                            *line,
                            format!("conflicting declarations of `{name}`"),
                        ));
                    }
                    self.funcs.insert(name.clone(), sig);
                }
                Item::Global { ty, name, line, .. } => {
                    // Validate the size eagerly.
                    let _ = self.size_of(ty, *line)?;
                    if self.funcs.contains_key(name) {
                        return Err(CcError::new(
                            *line,
                            format!("conflicting declarations of `{name}`"),
                        ));
                    }
                    if self.globals.insert(name.clone(), ty.clone()).is_some() {
                        return Err(CcError::new(*line, format!("duplicate global `{name}`")));
                    }
                }
            }
        }

        for item in &self.program.items {
            match item {
                Item::Func {
                    name,
                    params,
                    body: Some(body),
                    line,
                    ..
                } => self.gen_function(name, params, body, *line)?,
                Item::Func { .. } => {}
                Item::Global {
                    ty,
                    name,
                    init,
                    line,
                } => {
                    self.emit_global(ty, name, init.as_ref(), *line)?;
                }
            }
        }
        Ok(())
    }

    /// The unit's assembly: globals, then every string literal, then code.
    pub(crate) fn finish(self) -> String {
        self.assembly(&self.strings)
    }

    /// The declarations left for later items, and the assembly of this
    /// prefix's globals and code. Its string literals are left out: they
    /// belong after the globals of the whole unit, so the continuation's
    /// [`finish`](Self::finish) emits them.
    pub(crate) fn into_prelude(self) -> (Decls, String) {
        let asm = self.assembly(&[]);
        let decls = Decls {
            globals: self.globals,
            funcs: self.funcs,
            strings: self.strings,
            label_count: self.label_count,
        };
        (decls, asm)
    }

    fn assembly(&self, strings: &[(String, Vec<u8>)]) -> String {
        let mut out = String::new();
        out.push_str("# generated by ptaint-cc\n        .data\n");
        out.push_str(&self.data);
        for (label, bytes) in strings {
            let _ = writeln!(out, "{label}:");
            let mut text_bytes = bytes.clone();
            text_bytes.push(0);
            let list = text_bytes
                .iter()
                .map(|b| b.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(out, "        .byte {list}");
        }
        out.push_str("        .text\n");
        out.push_str(&self.text);
        out
    }

    // ---------------- globals ----------------

    fn emit_global(
        &mut self,
        ty: &Type,
        name: &str,
        init: Option<&GlobalInit>,
        line: u32,
    ) -> Result<(), CcError> {
        let size = self.size_of(ty, line)?;
        let align_words = ty.align_of(self.structs) >= 4;
        if align_words {
            self.data.push_str("        .align 2\n");
        }
        let _ = writeln!(self.data, "{name}:");
        match (ty, init) {
            (_, None) => {
                let _ = writeln!(self.data, "        .space {size}");
            }
            (Type::Int | Type::Uint | Type::Ptr(_), Some(GlobalInit::Int(v))) => {
                let _ = writeln!(self.data, "        .word {v}");
            }
            (Type::Char, Some(GlobalInit::Int(v))) => {
                let _ = writeln!(self.data, "        .byte {v}");
            }
            (Type::Ptr(inner), Some(GlobalInit::Str(s))) if **inner == Type::Char => {
                let label = self.intern_string(s.clone());
                let _ = writeln!(self.data, "        .word {label}");
            }
            (Type::Array(elem, n), Some(GlobalInit::Str(s))) if **elem == Type::Char => {
                if s.len() + 1 > *n as usize {
                    return Err(CcError::new(line, "string initializer longer than array"));
                }
                let mut bytes = s.clone();
                bytes.resize(*n as usize, 0);
                let list = bytes
                    .iter()
                    .map(|b| b.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = writeln!(self.data, "        .byte {list}");
            }
            (Type::Array(elem, n), Some(GlobalInit::List(vals)))
                if matches!(**elem, Type::Int | Type::Uint) =>
            {
                if vals.len() > *n as usize {
                    return Err(CcError::new(line, "too many initializers"));
                }
                for v in vals {
                    let _ = writeln!(self.data, "        .word {v}");
                }
                let missing = (*n as usize - vals.len()) * 4;
                if missing > 0 {
                    let _ = writeln!(self.data, "        .space {missing}");
                }
            }
            _ => {
                return Err(CcError::new(
                    line,
                    format!("unsupported initializer for global `{name}`"),
                ))
            }
        }
        Ok(())
    }

    fn intern_string(&mut self, bytes: Vec<u8>) -> String {
        if let Some((label, _)) = self.strings.iter().find(|(_, b)| *b == bytes) {
            return label.clone();
        }
        let label = format!("_Str{}", self.strings.len());
        self.strings.push((label.clone(), bytes));
        label
    }

    // ---------------- functions ----------------

    fn gen_function(
        &mut self,
        name: &str,
        params: &[(Type, String)],
        body: &[Stmt],
        line: u32,
    ) -> Result<(), CcError> {
        self.body.clear();
        self.scopes.clear();
        self.scopes.push(HashMap::new());
        self.frame_next = 8;
        self.frame_max = 8;
        self.ret_label = self.fresh_label("ret");

        for (i, (ty, pname)) in params.iter().enumerate() {
            if pname.is_empty() {
                return Err(CcError::new(line, "parameter name required in definition"));
            }
            self.scopes.last_mut().expect("scope").insert(
                pname.clone(),
                LocalSlot {
                    offset: 4 * i as i32,
                    ty: ty.clone(),
                },
            );
        }

        for stmt in body {
            self.gen_stmt(stmt)?;
        }

        // Stitch prologue + body + epilogue.
        let frame = self.frame_max.div_ceil(8) * 8;
        let _ = writeln!(self.text, "{name}:");
        let _ = writeln!(self.text, "        addiu $sp, $sp, -{frame}");
        let _ = writeln!(self.text, "        sw $ra, {}($sp)", frame - 4);
        let _ = writeln!(self.text, "        sw $fp, {}($sp)", frame - 8);
        let _ = writeln!(self.text, "        addiu $fp, $sp, {frame}");
        self.text.push_str(&self.body);
        let _ = writeln!(self.text, "{}:", self.ret_label);
        // sp = fp pops the whole frame including any leaked temporaries.
        let _ = writeln!(self.text, "        move $sp, $fp");
        let _ = writeln!(self.text, "        lw $ra, -4($sp)");
        let _ = writeln!(self.text, "        lw $fp, -8($sp)");
        let _ = writeln!(self.text, "        jr $ra");
        Ok(())
    }

    fn alloc_local(&mut self, ty: &Type, line: u32) -> Result<i32, CcError> {
        let size = self.size_of(ty, line)?;
        let align = ty.align_of(self.structs).max(1);
        let mut next = self.frame_next + size;
        next = next.div_ceil(align) * align;
        self.frame_next = next;
        self.frame_max = self.frame_max.max(next);
        Ok(-(next as i32))
    }

    fn lookup(&self, name: &str) -> Option<&LocalSlot> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    // ---------------- statements ----------------

    fn gen_stmt(&mut self, stmt: &Stmt) -> Result<(), CcError> {
        match stmt {
            Stmt::Empty => {}
            Stmt::Expr(e) => {
                self.gen_expr(e)?;
            }
            Stmt::Block(stmts) => {
                self.scopes.push(HashMap::new());
                let saved = self.frame_next;
                for s in stmts {
                    self.gen_stmt(s)?;
                }
                self.scopes.pop();
                self.frame_next = saved;
            }
            Stmt::Decl(decls) => {
                for (ty, name, init) in decls {
                    let line = init.as_ref().map_or(0, |e| e.line);
                    let offset = self.alloc_local(ty, line)?;
                    self.scopes.last_mut().expect("scope").insert(
                        name.clone(),
                        LocalSlot {
                            offset,
                            ty: ty.clone(),
                        },
                    );
                    if let Some(e) = init {
                        if matches!(ty, Type::Array(..) | Type::Struct(_)) {
                            return Err(CcError::new(
                                e.line,
                                "aggregate locals cannot have initializers",
                            ));
                        }
                        let rt = self.gen_expr(e)?;
                        self.check_assignable(ty, &rt, e.line)?;
                        self.o(&format!("addiu $t1, $fp, {offset}"));
                        self.store_to_t1(ty);
                    }
                }
            }
            Stmt::If { cond, then, els } => {
                let lelse = self.fresh_label("else");
                let lend = self.fresh_label("endif");
                self.gen_expr(cond)?;
                self.o(&format!("beq $v0, $zero, {lelse}"));
                self.gen_stmt(then)?;
                if let Some(els) = els {
                    self.o(&format!("b {lend}"));
                    self.label(&lelse.clone());
                    self.gen_stmt(els)?;
                    self.label(&lend.clone());
                } else {
                    self.label(&lelse.clone());
                }
            }
            Stmt::While { cond, body } => {
                let ltop = self.fresh_label("while");
                let lend = self.fresh_label("endwhile");
                self.label(&ltop.clone());
                self.gen_expr(cond)?;
                self.o(&format!("beq $v0, $zero, {lend}"));
                self.break_labels.push(lend.clone());
                self.continue_labels.push(ltop.clone());
                self.gen_stmt(body)?;
                self.break_labels.pop();
                self.continue_labels.pop();
                self.o(&format!("b {ltop}"));
                self.label(&lend.clone());
            }
            Stmt::DoWhile { body, cond } => {
                let ltop = self.fresh_label("do");
                let lcond = self.fresh_label("docond");
                let lend = self.fresh_label("enddo");
                self.label(&ltop.clone());
                self.break_labels.push(lend.clone());
                self.continue_labels.push(lcond.clone());
                self.gen_stmt(body)?;
                self.break_labels.pop();
                self.continue_labels.pop();
                self.label(&lcond.clone());
                self.gen_expr(cond)?;
                self.o(&format!("bne $v0, $zero, {ltop}"));
                self.label(&lend.clone());
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                let saved = self.frame_next;
                if let Some(init) = init {
                    self.gen_stmt(init)?;
                }
                let ltop = self.fresh_label("for");
                let lstep = self.fresh_label("forstep");
                let lend = self.fresh_label("endfor");
                self.label(&ltop.clone());
                if let Some(cond) = cond {
                    self.gen_expr(cond)?;
                    self.o(&format!("beq $v0, $zero, {lend}"));
                }
                self.break_labels.push(lend.clone());
                self.continue_labels.push(lstep.clone());
                self.gen_stmt(body)?;
                self.break_labels.pop();
                self.continue_labels.pop();
                self.label(&lstep.clone());
                if let Some(step) = step {
                    self.gen_expr(step)?;
                }
                self.o(&format!("b {ltop}"));
                self.label(&lend.clone());
                self.scopes.pop();
                self.frame_next = saved;
            }
            Stmt::Return(value, _line) => {
                if let Some(e) = value {
                    self.gen_expr(e)?;
                }
                let l = self.ret_label.clone();
                self.o(&format!("b {l}"));
            }
            Stmt::Break(line) => {
                let l = self
                    .break_labels
                    .last()
                    .ok_or_else(|| CcError::new(*line, "`break` outside a loop"))?
                    .clone();
                self.o(&format!("b {l}"));
            }
            Stmt::Continue(line) => {
                let l = self
                    .continue_labels
                    .last()
                    .ok_or_else(|| CcError::new(*line, "`continue` outside a loop"))?
                    .clone();
                self.o(&format!("b {l}"));
            }
        }
        Ok(())
    }

    // ---------------- expression helpers ----------------

    fn push_v0(&mut self) {
        self.o("addiu $sp, $sp, -4");
        self.o("sw $v0, 0($sp)");
    }

    fn pop_t1(&mut self) {
        self.o("lw $t1, 0($sp)");
        self.o("addiu $sp, $sp, 4");
    }

    /// Loads the value at address `$v0` according to `ty`; returns the value
    /// type (decayed).
    fn load_from_v0(&mut self, ty: &Type) -> Type {
        match ty {
            Type::Char => {
                self.o("lb $v0, 0($v0)");
                Type::Char
            }
            Type::Array(elem, _) => Type::Ptr(elem.clone()), // decay: address is the value
            Type::Struct(_) | Type::Func { .. } => ty.clone(), // address stands for the aggregate
            _ => {
                self.o("lw $v0, 0($v0)");
                ty.clone()
            }
        }
    }

    /// Stores `$v0` to address `$t1` with the width of `ty`.
    fn store_to_t1(&mut self, ty: &Type) {
        if matches!(ty, Type::Char) {
            self.o("sb $v0, 0($t1)");
        } else {
            self.o("sw $v0, 0($t1)");
        }
    }

    fn check_assignable(&self, _lhs: &Type, _rhs: &Type, _line: u32) -> Result<(), CcError> {
        // The mini-C dialect is deliberately permissive (like pre-ANSI C):
        // ints and pointers interconvert freely, which the vulnerable guest
        // programs rely on. Sizes are handled by the store width.
        Ok(())
    }

    /// Scales `$v0` (an integer) by the size of `elem` for pointer
    /// arithmetic.
    fn scale_v0(&mut self, elem: &Type, line: u32) -> Result<(), CcError> {
        let size = self.size_of(elem, line)?;
        match size {
            1 => {}
            2 | 4 | 8 | 16 | 32 | 64 | 128 | 256 => {
                self.o(&format!("sll $v0, $v0, {}", size.trailing_zeros()));
            }
            _ => {
                self.o(&format!("li $t0, {size}"));
                self.o("multu $v0, $t0");
                self.o("mflo $v0");
            }
        }
        Ok(())
    }

    // ---------------- lvalues ----------------

    /// Generates the *address* of an lvalue into `$v0`; returns the type of
    /// the object at that address.
    fn gen_addr(&mut self, e: &Expr) -> Result<Type, CcError> {
        match &e.kind {
            ExprKind::Ident(name) => {
                if let Some(slot) = self.lookup(name).cloned() {
                    self.o(&format!("addiu $v0, $fp, {}", slot.offset));
                    return Ok(slot.ty);
                }
                if let Some(ty) = self.globals.get(name).cloned() {
                    self.o(&format!("la $v0, {name}"));
                    return Ok(ty);
                }
                if let Some(sig) = self.funcs.get(name).cloned() {
                    self.o(&format!("la $v0, {name}"));
                    return Ok(Type::Func {
                        ret: Box::new(sig.ret),
                        params: sig.params,
                        variadic: sig.variadic,
                    });
                }
                Err(CcError::new(e.line, format!("undefined name `{name}`")))
            }
            ExprKind::Unary(UnOp::Deref, inner) => {
                let ty = self.gen_expr(inner)?;
                match ty {
                    Type::Ptr(p) => Ok(*p),
                    other => Err(CcError::new(
                        e.line,
                        format!("cannot dereference non-pointer type {other:?}"),
                    )),
                }
            }
            ExprKind::Index(base, idx) => {
                let base_ty = self.gen_expr(base)?;
                let elem = match &base_ty {
                    Type::Ptr(p) => (**p).clone(),
                    other => {
                        return Err(CcError::new(
                            e.line,
                            format!("cannot index non-pointer type {other:?}"),
                        ))
                    }
                };
                self.push_v0();
                self.gen_expr(idx)?;
                self.scale_v0(&elem, e.line)?;
                self.pop_t1();
                self.o("addu $v0, $t1, $v0");
                Ok(elem)
            }
            ExprKind::Member { base, field, arrow } => {
                let (struct_name, line) = if *arrow {
                    let ty = self.gen_expr(base)?;
                    match ty {
                        Type::Ptr(inner) => match *inner {
                            Type::Struct(name) => (name, e.line),
                            other => {
                                return Err(CcError::new(
                                    e.line,
                                    format!("`->` on pointer to non-struct {other:?}"),
                                ))
                            }
                        },
                        other => {
                            return Err(CcError::new(
                                e.line,
                                format!("`->` on non-pointer {other:?}"),
                            ))
                        }
                    }
                } else {
                    let ty = self.gen_addr(base)?;
                    match ty {
                        Type::Struct(name) => (name, e.line),
                        other => {
                            return Err(CcError::new(
                                e.line,
                                format!("`.` on non-struct {other:?}"),
                            ))
                        }
                    }
                };
                let def = self
                    .structs
                    .get(&struct_name)
                    .ok_or_else(|| CcError::new(line, format!("unknown struct `{struct_name}`")))?;
                let (offset, fty) =
                    def.field(field)
                        .map(|(o, t)| (o, t.clone()))
                        .ok_or_else(|| {
                            CcError::new(
                                line,
                                format!("struct `{struct_name}` has no field `{field}`"),
                            )
                        })?;
                if offset != 0 {
                    self.o(&format!("addiu $v0, $v0, {offset}"));
                }
                Ok(fty)
            }
            ExprKind::Cast(ty, inner) => {
                // Casting an lvalue keeps the address, reinterprets the type:
                // *(int*)p = v  parses as Deref(Cast(..)) and lands in Deref.
                let _ = self.gen_addr(inner)?;
                Ok(ty.clone())
            }
            _ => Err(CcError::new(e.line, "expression is not an lvalue")),
        }
    }

    // ---------------- expressions ----------------

    #[allow(clippy::too_many_lines)]
    fn gen_expr(&mut self, e: &Expr) -> Result<Type, CcError> {
        match &e.kind {
            ExprKind::Int(v) => {
                self.o(&format!("li $v0, {v}"));
                Ok(Type::Int)
            }
            ExprKind::Str(s) => {
                let label = self.intern_string(s.clone());
                self.o(&format!("la $v0, {label}"));
                Ok(Type::Char.ptr())
            }
            ExprKind::Ident(_) | ExprKind::Member { .. } | ExprKind::Index(..) => {
                let ty = self.gen_addr(e)?;
                Ok(self.load_from_v0(&ty))
            }
            ExprKind::Unary(UnOp::Deref, _) => {
                let ty = self.gen_addr(e)?;
                match &ty {
                    Type::Struct(_) => Err(CcError::new(
                        e.line,
                        "cannot load a whole struct; take a member",
                    )),
                    _ => Ok(self.load_from_v0(&ty)),
                }
            }
            ExprKind::Unary(UnOp::Addr, inner) => {
                let ty = self.gen_addr(inner)?;
                Ok(ty.ptr())
            }
            ExprKind::Unary(UnOp::Neg, inner) => {
                let t = self.gen_expr(inner)?;
                self.o("subu $v0, $zero, $v0");
                Ok(promote(&t))
            }
            ExprKind::Unary(UnOp::Not, inner) => {
                self.gen_expr(inner)?;
                self.o("sltiu $v0, $v0, 1");
                Ok(Type::Int)
            }
            ExprKind::Unary(UnOp::BitNot, inner) => {
                let t = self.gen_expr(inner)?;
                self.o("nor $v0, $v0, $zero");
                Ok(promote(&t))
            }
            ExprKind::Cast(ty, inner) => {
                self.gen_expr(inner)?;
                if matches!(ty, Type::Char) {
                    // Truncate to byte with sign extension.
                    self.o("sll $v0, $v0, 24");
                    self.o("sra $v0, $v0, 24");
                }
                Ok(ty.clone())
            }
            ExprKind::SizeofType(ty) => {
                let size = self.size_of(ty, e.line)?;
                self.o(&format!("li $v0, {size}"));
                Ok(Type::Uint)
            }
            ExprKind::SizeofExpr(inner) => {
                // Compute the type without emitting code.
                let snapshot = self.body.len();
                let ty = self.gen_addr(inner).or_else(|_| self.gen_expr(inner))?;
                self.body.truncate(snapshot);
                let size = self.size_of(&ty, e.line)?;
                self.o(&format!("li $v0, {size}"));
                Ok(Type::Uint)
            }
            ExprKind::Assign(None, lhs, rhs) => {
                let lty = self.gen_addr(lhs)?;
                if matches!(lty, Type::Struct(_) | Type::Array(..)) {
                    return Err(CcError::new(e.line, "cannot assign to an aggregate"));
                }
                self.push_v0();
                let rty = self.gen_expr(rhs)?;
                self.check_assignable(&lty, &rty, e.line)?;
                self.pop_t1();
                self.store_to_t1(&lty);
                Ok(lty)
            }
            ExprKind::Assign(Some(op), lhs, rhs) => {
                let lty = self.gen_addr(lhs)?;
                self.push_v0(); // address
                let cur = self.load_from_v0(&lty);
                self.push_v0(); // current value (consumed by apply_binop)
                let rty = self.gen_expr(rhs)?;
                self.apply_binop(*op, &cur, &rty, e.line)?;
                self.pop_t1(); // address
                self.store_to_t1(&lty);
                Ok(lty)
            }
            ExprKind::PreIncDec(inc, inner) => {
                let lty = self.gen_addr(inner)?;
                self.o("move $t1, $v0");
                self.push_v0(); // address
                let _ = self.load_from_v0(&lty);
                let delta = self.incdec_delta(&lty, e.line)?;
                let signed = if *inc { delta } else { -delta };
                self.o(&format!("addiu $v0, $v0, {signed}"));
                self.pop_t1(); // address
                self.store_to_t1(&lty);
                Ok(lty)
            }
            ExprKind::PostIncDec(inc, inner) => {
                let lty = self.gen_addr(inner)?;
                self.push_v0(); // address
                let _ = self.load_from_v0(&lty);
                self.push_v0(); // old value
                let delta = self.incdec_delta(&lty, e.line)?;
                let signed = if *inc { delta } else { -delta };
                self.o(&format!("addiu $v0, $v0, {signed}"));
                // stack: [address, old]; store new, return old.
                self.o("lw $t1, 4($sp)"); // address
                self.store_to_t1(&lty);
                self.pop_t1(); // old -> t1
                self.o("move $v0, $t1");
                self.o("addiu $sp, $sp, 4"); // drop address
                Ok(lty)
            }
            ExprKind::Binary(BinOp::LogAnd, lhs, rhs) => {
                let lfalse = self.fresh_label("andf");
                let lend = self.fresh_label("ande");
                self.gen_expr(lhs)?;
                self.o(&format!("beq $v0, $zero, {lfalse}"));
                self.gen_expr(rhs)?;
                self.o(&format!("beq $v0, $zero, {lfalse}"));
                self.o("li $v0, 1");
                self.o(&format!("b {lend}"));
                self.label(&lfalse.clone());
                self.o("li $v0, 0");
                self.label(&lend.clone());
                Ok(Type::Int)
            }
            ExprKind::Binary(BinOp::LogOr, lhs, rhs) => {
                let ltrue = self.fresh_label("ort");
                let lend = self.fresh_label("ore");
                self.gen_expr(lhs)?;
                self.o(&format!("bne $v0, $zero, {ltrue}"));
                self.gen_expr(rhs)?;
                self.o(&format!("bne $v0, $zero, {ltrue}"));
                self.o("li $v0, 0");
                self.o(&format!("b {lend}"));
                self.label(&ltrue.clone());
                self.o("li $v0, 1");
                self.label(&lend.clone());
                Ok(Type::Int)
            }
            ExprKind::Binary(op, lhs, rhs) => {
                let lty = self.gen_expr(lhs)?;
                self.push_v0();
                let rty = self.gen_expr(rhs)?;
                self.apply_binop(*op, &lty, &rty, e.line)
            }
            ExprKind::Ternary(cond, a, b) => {
                let lelse = self.fresh_label("terf");
                let lend = self.fresh_label("tere");
                self.gen_expr(cond)?;
                self.o(&format!("beq $v0, $zero, {lelse}"));
                let ta = self.gen_expr(a)?;
                self.o(&format!("b {lend}"));
                self.label(&lelse.clone());
                let _tb = self.gen_expr(b)?;
                self.label(&lend.clone());
                Ok(ta)
            }
            ExprKind::Call(callee, args) => self.gen_call(callee, args, e.line),
        }
    }

    fn incdec_delta(&self, ty: &Type, line: u32) -> Result<i32, CcError> {
        Ok(match ty {
            Type::Ptr(p) => self.size_of(p, line)? as i32,
            _ => 1,
        })
    }

    /// Applies `op` to the spilled left operand (on the expression stack) and
    /// `$v0`; pops the stack; leaves the result in `$v0`.
    fn apply_binop(
        &mut self,
        op: BinOp,
        lty: &Type,
        rty: &Type,
        line: u32,
    ) -> Result<Type, CcError> {
        // Pointer arithmetic scaling.
        let mut result_ty = combine(lty, rty);
        match op {
            BinOp::Add => {
                if let Some(elem) = lty.pointee() {
                    let elem = elem.clone();
                    self.scale_v0(&elem, line)?; // scale rhs index
                    result_ty = Type::Ptr(Box::new(elem));
                } else if let Some(elem) = rty.pointee() {
                    // int + ptr: scale the *left* operand (on the stack).
                    let elem = elem.clone();
                    self.pop_t1();
                    self.o("move $t0, $v0"); // t0 = ptr
                    self.o("move $v0, $t1"); // v0 = int
                    self.scale_v0(&elem, line)?;
                    self.o("move $t1, $v0");
                    self.o("move $v0, $t0");
                    self.push_v0();
                    self.o("move $v0, $t1");
                    // stack: [ptr]; v0 = scaled int — fall through to addu.
                    result_ty = Type::Ptr(Box::new(elem));
                }
            }
            BinOp::Sub => {
                if lty.is_pointer_like() && rty.is_pointer_like() {
                    // ptr - ptr: difference in elements.
                    let elem = lty.pointee().expect("pointer").clone();
                    self.pop_t1();
                    self.o("subu $v0, $t1, $v0");
                    let size = self.size_of(&elem, line)?;
                    if size > 1 {
                        self.o(&format!("li $t0, {size}"));
                        self.o("divu $v0, $t0");
                        self.o("mflo $v0");
                    }
                    return Ok(Type::Int);
                }
                if let Some(elem) = lty.pointee() {
                    let elem = elem.clone();
                    self.scale_v0(&elem, line)?;
                    result_ty = Type::Ptr(Box::new(elem));
                }
            }
            _ => {}
        }

        self.pop_t1(); // t1 = lhs, v0 = rhs
        let unsigned = lty.is_unsigned() || rty.is_unsigned();
        match op {
            BinOp::Add => self.o("addu $v0, $t1, $v0"),
            BinOp::Sub => self.o("subu $v0, $t1, $v0"),
            BinOp::Mul => {
                self.o("multu $v0, $t1");
                self.o("mflo $v0");
            }
            BinOp::Div => {
                if unsigned {
                    self.o("divu $t1, $v0");
                } else {
                    self.o("div $t1, $v0");
                }
                self.o("mflo $v0");
            }
            BinOp::Rem => {
                if unsigned {
                    self.o("divu $t1, $v0");
                } else {
                    self.o("div $t1, $v0");
                }
                self.o("mfhi $v0");
            }
            BinOp::And => self.o("and $v0, $t1, $v0"),
            BinOp::Or => self.o("or $v0, $t1, $v0"),
            BinOp::Xor => self.o("xor $v0, $t1, $v0"),
            BinOp::Shl => self.o("sllv $v0, $t1, $v0"),
            BinOp::Shr => {
                if unsigned {
                    self.o("srlv $v0, $t1, $v0");
                } else {
                    self.o("srav $v0, $t1, $v0");
                }
            }
            BinOp::Eq => {
                self.o("xor $v0, $t1, $v0");
                self.o("sltiu $v0, $v0, 1");
                result_ty = Type::Int;
            }
            BinOp::Ne => {
                self.o("xor $v0, $t1, $v0");
                self.o("sltu $v0, $zero, $v0");
                result_ty = Type::Int;
            }
            BinOp::Lt => {
                self.o(if unsigned {
                    "sltu $v0, $t1, $v0"
                } else {
                    "slt $v0, $t1, $v0"
                });
                result_ty = Type::Int;
            }
            BinOp::Gt => {
                self.o(if unsigned {
                    "sltu $v0, $v0, $t1"
                } else {
                    "slt $v0, $v0, $t1"
                });
                result_ty = Type::Int;
            }
            BinOp::Le => {
                self.o(if unsigned {
                    "sltu $v0, $v0, $t1"
                } else {
                    "slt $v0, $v0, $t1"
                });
                self.o("xori $v0, $v0, 1");
                result_ty = Type::Int;
            }
            BinOp::Ge => {
                self.o(if unsigned {
                    "sltu $v0, $t1, $v0"
                } else {
                    "slt $v0, $t1, $v0"
                });
                self.o("xori $v0, $v0, 1");
                result_ty = Type::Int;
            }
            BinOp::LogAnd | BinOp::LogOr => unreachable!("handled by short-circuit paths"),
        }
        Ok(result_ty)
    }

    fn gen_call(&mut self, callee: &Expr, args: &[Expr], line: u32) -> Result<Type, CcError> {
        // Direct call to a named function?
        let direct = match &callee.kind {
            ExprKind::Ident(name)
                if self.lookup(name).is_none() && self.funcs.contains_key(name) =>
            {
                Some(name.clone())
            }
            _ => None,
        };

        let (ret, params, variadic) = if let Some(name) = &direct {
            let sig = self.funcs.get(name).expect("checked").clone();
            (sig.ret, sig.params, sig.variadic)
        } else {
            let ty = self.gen_expr(callee)?;
            self.push_v0(); // callee address on the expression stack
            match strip_func_ptr(&ty) {
                Some(Type::Func {
                    ret,
                    params,
                    variadic,
                }) => ((**ret).clone(), params.clone(), *variadic),
                _ => {
                    return Err(CcError::new(
                        line,
                        "called object is not a function or function pointer",
                    ))
                }
            }
        };

        if args.len() < params.len() || (!variadic && args.len() != params.len()) {
            return Err(CcError::new(
                line,
                format!(
                    "wrong number of arguments: expected {}{}, got {}",
                    params.len(),
                    if variadic { "+" } else { "" },
                    args.len()
                ),
            ));
        }

        let argbytes = (args.len() as u32 * 4).max(4); // keep fp valid for 0-arg calls
        self.o(&format!("addiu $sp, $sp, -{argbytes}"));
        for (i, arg) in args.iter().enumerate() {
            self.gen_expr(arg)?;
            self.o(&format!("sw $v0, {}($sp)", 4 * i));
        }
        if let Some(name) = direct {
            self.o(&format!("jal {name}"));
            self.o(&format!("addiu $sp, $sp, {argbytes}"));
        } else {
            // Callee address was pushed before the argument area.
            self.o(&format!("lw $t9, {argbytes}($sp)"));
            self.o("jalr $t9");
            // Pop the argument area and the spilled callee address.
            self.o(&format!("addiu $sp, $sp, {}", argbytes + 4));
        }
        Ok(ret)
    }
}

fn promote(ty: &Type) -> Type {
    match ty {
        Type::Char => Type::Int,
        other => other.clone(),
    }
}

fn combine(l: &Type, r: &Type) -> Type {
    if l.is_pointer_like() {
        return l.clone();
    }
    if r.is_pointer_like() {
        return r.clone();
    }
    if matches!(l, Type::Uint) || matches!(r, Type::Uint) {
        Type::Uint
    } else {
        Type::Int
    }
}

fn strip_func_ptr(ty: &Type) -> Option<&Type> {
    match ty {
        Type::Func { .. } => Some(ty),
        Type::Ptr(inner) => match &**inner {
            f @ Type::Func { .. } => Some(f),
            _ => None,
        },
        _ => None,
    }
}
