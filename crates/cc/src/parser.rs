//! Recursive-descent parser for mini-C.

use std::collections::HashMap;

use crate::ast::{BinOp, Expr, ExprKind, GlobalInit, Item, Program, Stmt, StructDef, Type, UnOp};
use crate::lexer::{Token, TokenKind};
use crate::CcError;

/// Parses a token stream (from [`crate::lex`]) into a [`Program`].
///
/// # Errors
///
/// Returns a [`CcError`] at the offending line for syntax errors, duplicate
/// or unknown struct names, and malformed declarators.
pub fn parse(tokens: &[Token]) -> Result<Program, CcError> {
    parse_with(tokens, HashMap::new())
}

/// [`parse`] continuing after a unit prefix that defined `structs`: the
/// returned [`Program`] holds only the new items, and its struct table the
/// prefix's structs plus the new ones.
pub(crate) fn parse_with(
    tokens: &[Token],
    structs: HashMap<String, StructDef>,
) -> Result<Program, CcError> {
    Parser {
        tokens,
        pos: 0,
        structs,
    }
    .program()
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    structs: HashMap<String, StructDef>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn bump(&mut self) -> &TokenKind {
        let k = &self.tokens[self.pos].kind;
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        k
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), CcError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn err(&self, msg: impl Into<String>) -> CcError {
        CcError::new(self.line(), msg)
    }

    fn ident(&mut self, what: &str) -> Result<String, CcError> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Whether the current token starts a type.
    fn at_type(&self) -> bool {
        matches!(self.peek(), TokenKind::Ident(s)
            if matches!(s.as_str(), "void" | "int" | "unsigned" | "char" | "struct"))
    }

    // ---------------- types ----------------

    /// Parses the base type: `void | int | unsigned [int] | [unsigned] char |
    /// struct NAME`.
    fn base_type(&mut self) -> Result<Type, CcError> {
        if self.eat_kw("void") {
            return Ok(Type::Void);
        }
        if self.eat_kw("int") {
            return Ok(Type::Int);
        }
        if self.eat_kw("char") {
            return Ok(Type::Char);
        }
        if self.eat_kw("unsigned") {
            if self.eat_kw("char") {
                // `unsigned char` is represented as plain `char`; loads are
                // sign-extended, so guest code masks with `& 0xff` where the
                // distinction matters.
                return Ok(Type::Char);
            }
            let _ = self.eat_kw("int");
            return Ok(Type::Uint);
        }
        if self.eat_kw("struct") {
            let name = self.ident("struct name")?;
            return Ok(Type::Struct(name));
        }
        Err(self.err(format!("expected a type, found {:?}", self.peek())))
    }

    /// Parses `'*'*` after a base type.
    fn pointers(&mut self, mut ty: Type) -> Type {
        while self.eat(&TokenKind::Star) {
            ty = ty.ptr();
        }
        ty
    }

    /// Parses a declarator after base+pointers: either `name [N]...` or the
    /// function-pointer form `(*name)(params)`. Returns `(type, name)`.
    fn declarator(&mut self, base: Type) -> Result<(Type, String), CcError> {
        if self.peek() == &TokenKind::LParen && self.peek2() == &TokenKind::Star {
            // T (*name)(params)  or the array form  T (*name[N])(params)
            self.bump(); // (
            self.bump(); // *
            let name = self.ident("function pointer name")?;
            let mut array_dim = None;
            if self.eat(&TokenKind::LBracket) {
                match self.bump().clone() {
                    TokenKind::Int(n) if n >= 0 => array_dim = Some(n as u32),
                    _ => return Err(self.err("array size must be a literal integer")),
                }
                self.expect(&TokenKind::RBracket, "`]`")?;
            }
            self.expect(&TokenKind::RParen, "`)`")?;
            self.expect(&TokenKind::LParen, "`(`")?;
            let (params, variadic) = self.param_types()?;
            let fptr = Type::Func {
                ret: Box::new(base),
                params,
                variadic,
            }
            .ptr();
            let ty = match array_dim {
                Some(n) => Type::Array(Box::new(fptr), n),
                None => fptr,
            };
            Ok((ty, name))
        } else {
            let name = self.ident("declarator name")?;
            let mut dims = Vec::new();
            while self.eat(&TokenKind::LBracket) {
                let n = match self.bump().clone() {
                    TokenKind::Int(n) if n >= 0 => n as u32,
                    _ => return Err(self.err("array size must be a literal integer")),
                };
                self.expect(&TokenKind::RBracket, "`]`")?;
                dims.push(n);
            }
            let mut ty = base;
            for &n in dims.iter().rev() {
                ty = Type::Array(Box::new(ty), n);
            }
            Ok((ty, name))
        }
    }

    /// Parses a parenthesized parameter *type* list (for function pointers).
    fn param_types(&mut self) -> Result<(Vec<Type>, bool), CcError> {
        let mut params = Vec::new();
        let mut variadic = false;
        if self.eat(&TokenKind::RParen) {
            return Ok((params, variadic));
        }
        if self.is_kw("void") && self.peek2() == &TokenKind::RParen {
            self.bump();
            self.bump();
            return Ok((params, variadic));
        }
        loop {
            if self.eat(&TokenKind::Ellipsis) {
                variadic = true;
                break;
            }
            let base = self.base_type()?;
            let ty = self.pointers(base);
            // Optional parameter name.
            if matches!(self.peek(), TokenKind::Ident(s) if !is_keyword(s)) {
                self.bump();
            }
            params.push(ty);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen, "`)`")?;
        Ok((params, variadic))
    }

    // ---------------- top level ----------------

    fn program(mut self) -> Result<Program, CcError> {
        let mut items = Vec::new();
        while self.peek() != &TokenKind::Eof {
            if self.is_kw("struct") && matches!(self.peek2(), TokenKind::Ident(_)) {
                // Could be a struct *definition* (`struct X { ... };`) or a
                // declaration using the struct type.
                let save = self.pos;
                self.bump();
                let name = self.ident("struct name")?;
                if self.peek() == &TokenKind::LBrace {
                    self.struct_def(name)?;
                    continue;
                }
                self.pos = save;
            }
            items.extend(self.top_level_decl()?);
        }
        Ok(Program {
            items,
            structs: self.structs,
        })
    }

    fn struct_def(&mut self, name: String) -> Result<(), CcError> {
        let line = self.line();
        self.expect(&TokenKind::LBrace, "`{`")?;
        let mut fields = Vec::new();
        let mut offset = 0u32;
        let mut align = 1u32;
        while !self.eat(&TokenKind::RBrace) {
            let base = self.base_type()?;
            loop {
                let with_ptrs = self.pointers(base.clone());
                let (ty, fname) = self.declarator(with_ptrs)?;
                let a = ty.align_of(&self.structs);
                let size = ty.size_of(&self.structs);
                offset = offset.div_ceil(a) * a;
                fields.push((fname, offset, ty));
                offset += size;
                align = align.max(a);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::Semi, "`;`")?;
        }
        self.expect(&TokenKind::Semi, "`;` after struct definition")?;
        let size = offset.div_ceil(align) * align;
        if self
            .structs
            .insert(
                name.clone(),
                StructDef {
                    fields,
                    size,
                    align,
                },
            )
            .is_some()
        {
            return Err(CcError::new(line, format!("duplicate struct `{name}`")));
        }
        Ok(())
    }

    fn top_level_decl(&mut self) -> Result<Vec<Item>, CcError> {
        let line = self.line();
        let base = self.base_type()?;
        let with_ptrs = self.pointers(base.clone());
        let (ty, name) = self.declarator(with_ptrs)?;

        // Function definition or prototype? (A `(*name)(..)` declarator has
        // already consumed its parentheses and produced a Ptr(Func); a
        // trailing `(` after any other declarator starts a parameter list.)
        let is_func_ptr_decl =
            matches!(&ty, Type::Ptr(inner) if matches!(**inner, Type::Func { .. }));
        if self.peek() == &TokenKind::LParen && !is_func_ptr_decl {
            self.bump();
            let (params, variadic) = self.named_params()?;
            if self.eat(&TokenKind::Semi) {
                return Ok(vec![Item::Func {
                    ret: ty,
                    name,
                    params,
                    variadic,
                    body: None,
                    line,
                }]);
            }
            self.expect(&TokenKind::LBrace, "`{` or `;`")?;
            let body = self.block_body()?;
            return Ok(vec![Item::Func {
                ret: ty,
                name,
                params,
                variadic,
                body: Some(body),
                line,
            }]);
        }

        // Global variable(s).
        let mut items = Vec::new();
        let mut current = (ty, name);
        loop {
            let init = if self.eat(&TokenKind::Eq) {
                Some(self.global_init()?)
            } else {
                None
            };
            items.push(Item::Global {
                ty: current.0,
                name: current.1,
                init,
                line,
            });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
            let with_ptrs = self.pointers(base.clone());
            current = self.declarator(with_ptrs)?;
        }
        self.expect(&TokenKind::Semi, "`;`")?;
        Ok(items)
    }

    fn named_params(&mut self) -> Result<(Vec<(Type, String)>, bool), CcError> {
        let mut params = Vec::new();
        let mut variadic = false;
        if self.eat(&TokenKind::RParen) {
            return Ok((params, variadic));
        }
        if self.is_kw("void") && self.peek2() == &TokenKind::RParen {
            self.bump();
            self.bump();
            return Ok((params, variadic));
        }
        loop {
            if self.eat(&TokenKind::Ellipsis) {
                variadic = true;
                break;
            }
            let base = self.base_type()?;
            let with_ptrs = self.pointers(base);
            // Prototypes may omit names.
            if matches!(self.peek(), TokenKind::Ident(s) if !is_keyword(s))
                || (self.peek() == &TokenKind::LParen && self.peek2() == &TokenKind::Star)
            {
                let (ty, name) = self.declarator(with_ptrs)?;
                // Array parameters decay to pointers.
                let ty = match ty {
                    Type::Array(elem, _) => Type::Ptr(elem),
                    other => other,
                };
                params.push((ty, name));
            } else {
                params.push((with_ptrs, String::new()));
            }
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen, "`)`")?;
        Ok((params, variadic))
    }

    fn global_init(&mut self) -> Result<GlobalInit, CcError> {
        match self.peek().clone() {
            TokenKind::Str(s) => {
                self.bump();
                Ok(GlobalInit::Str(s))
            }
            TokenKind::LBrace => {
                self.bump();
                let mut values = Vec::new();
                if !self.eat(&TokenKind::RBrace) {
                    loop {
                        values.push(self.const_int()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(&TokenKind::RBrace, "`}`")?;
                }
                Ok(GlobalInit::List(values))
            }
            _ => Ok(GlobalInit::Int(self.const_int()?)),
        }
    }

    fn const_int(&mut self) -> Result<i64, CcError> {
        let neg = self.eat(&TokenKind::Minus);
        match self.bump().clone() {
            TokenKind::Int(v) => Ok(if neg { -v } else { v }),
            other => Err(self.err(format!("expected an integer constant, found {other:?}"))),
        }
    }

    // ---------------- statements ----------------

    fn block_body(&mut self) -> Result<Vec<Stmt>, CcError> {
        let mut stmts = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            if self.peek() == &TokenKind::Eof {
                return Err(self.err("unexpected end of input inside a block"));
            }
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, CcError> {
        let line = self.line();
        if self.eat(&TokenKind::Semi) {
            return Ok(Stmt::Empty);
        }
        if self.eat(&TokenKind::LBrace) {
            return Ok(Stmt::Block(self.block_body()?));
        }
        if self.at_type() {
            let stmt = self.local_decl()?;
            self.expect(&TokenKind::Semi, "`;`")?;
            return Ok(stmt);
        }
        if self.eat_kw("if") {
            self.expect(&TokenKind::LParen, "`(`")?;
            let cond = self.expr()?;
            self.expect(&TokenKind::RParen, "`)`")?;
            let then = Box::new(self.stmt()?);
            let els = if self.eat_kw("else") {
                Some(Box::new(self.stmt()?))
            } else {
                None
            };
            return Ok(Stmt::If { cond, then, els });
        }
        if self.eat_kw("while") {
            self.expect(&TokenKind::LParen, "`(`")?;
            let cond = self.expr()?;
            self.expect(&TokenKind::RParen, "`)`")?;
            let body = Box::new(self.stmt()?);
            return Ok(Stmt::While { cond, body });
        }
        if self.eat_kw("do") {
            let body = Box::new(self.stmt()?);
            if !self.eat_kw("while") {
                return Err(self.err("expected `while` after `do` body"));
            }
            self.expect(&TokenKind::LParen, "`(`")?;
            let cond = self.expr()?;
            self.expect(&TokenKind::RParen, "`)`")?;
            self.expect(&TokenKind::Semi, "`;`")?;
            return Ok(Stmt::DoWhile { body, cond });
        }
        if self.eat_kw("for") {
            self.expect(&TokenKind::LParen, "`(`")?;
            let init = if self.eat(&TokenKind::Semi) {
                None
            } else if self.at_type() {
                let d = self.local_decl()?;
                self.expect(&TokenKind::Semi, "`;`")?;
                Some(Box::new(d))
            } else {
                let e = self.expr()?;
                self.expect(&TokenKind::Semi, "`;`")?;
                Some(Box::new(Stmt::Expr(e)))
            };
            let cond = if self.peek() == &TokenKind::Semi {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect(&TokenKind::Semi, "`;`")?;
            let step = if self.peek() == &TokenKind::RParen {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect(&TokenKind::RParen, "`)`")?;
            let body = Box::new(self.stmt()?);
            return Ok(Stmt::For {
                init,
                cond,
                step,
                body,
            });
        }
        if self.eat_kw("return") {
            let value = if self.peek() == &TokenKind::Semi {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect(&TokenKind::Semi, "`;`")?;
            return Ok(Stmt::Return(value, line));
        }
        if self.eat_kw("break") {
            self.expect(&TokenKind::Semi, "`;`")?;
            return Ok(Stmt::Break(line));
        }
        if self.eat_kw("continue") {
            self.expect(&TokenKind::Semi, "`;`")?;
            return Ok(Stmt::Continue(line));
        }
        let e = self.expr()?;
        self.expect(&TokenKind::Semi, "`;`")?;
        Ok(Stmt::Expr(e))
    }

    fn local_decl(&mut self) -> Result<Stmt, CcError> {
        let base = self.base_type()?;
        let mut decls = Vec::new();
        loop {
            let with_ptrs = self.pointers(base.clone());
            let (ty, name) = self.declarator(with_ptrs)?;
            let init = if self.eat(&TokenKind::Eq) {
                Some(self.assign_expr()?)
            } else {
                None
            };
            decls.push((ty, name, init));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Stmt::Decl(decls))
    }

    // ---------------- expressions ----------------

    fn expr(&mut self) -> Result<Expr, CcError> {
        self.assign_expr()
    }

    fn assign_expr(&mut self) -> Result<Expr, CcError> {
        let lhs = self.ternary_expr()?;
        let line = self.line();
        let op = match self.peek() {
            TokenKind::Eq => None,
            TokenKind::PlusEq => Some(BinOp::Add),
            TokenKind::MinusEq => Some(BinOp::Sub),
            TokenKind::StarEq => Some(BinOp::Mul),
            TokenKind::SlashEq => Some(BinOp::Div),
            TokenKind::PercentEq => Some(BinOp::Rem),
            TokenKind::AmpEq => Some(BinOp::And),
            TokenKind::PipeEq => Some(BinOp::Or),
            TokenKind::CaretEq => Some(BinOp::Xor),
            TokenKind::ShlEq => Some(BinOp::Shl),
            TokenKind::ShrEq => Some(BinOp::Shr),
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.assign_expr()?;
        Ok(Expr {
            kind: ExprKind::Assign(op, Box::new(lhs), Box::new(rhs)),
            line,
        })
    }

    fn ternary_expr(&mut self) -> Result<Expr, CcError> {
        let cond = self.binary_expr(0)?;
        if self.eat(&TokenKind::Question) {
            let line = self.line();
            let a = self.expr()?;
            self.expect(&TokenKind::Colon, "`:`")?;
            let b = self.ternary_expr()?;
            return Ok(Expr {
                kind: ExprKind::Ternary(Box::new(cond), Box::new(a), Box::new(b)),
                line,
            });
        }
        Ok(cond)
    }

    /// Precedence-climbing for binary operators.
    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr, CcError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let (op, prec) = match self.peek() {
                TokenKind::OrOr => (BinOp::LogOr, 1),
                TokenKind::AndAnd => (BinOp::LogAnd, 2),
                TokenKind::Pipe => (BinOp::Or, 3),
                TokenKind::Caret => (BinOp::Xor, 4),
                TokenKind::Amp => (BinOp::And, 5),
                TokenKind::EqEq => (BinOp::Eq, 6),
                TokenKind::NotEq => (BinOp::Ne, 6),
                TokenKind::Lt => (BinOp::Lt, 7),
                TokenKind::Le => (BinOp::Le, 7),
                TokenKind::Gt => (BinOp::Gt, 7),
                TokenKind::Ge => (BinOp::Ge, 7),
                TokenKind::Shl => (BinOp::Shl, 8),
                TokenKind::Shr => (BinOp::Shr, 8),
                TokenKind::Plus => (BinOp::Add, 9),
                TokenKind::Minus => (BinOp::Sub, 9),
                TokenKind::Star => (BinOp::Mul, 10),
                TokenKind::Slash => (BinOp::Div, 10),
                TokenKind::Percent => (BinOp::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            let line = self.line();
            self.bump();
            let rhs = self.binary_expr(prec + 1)?;
            lhs = Expr {
                kind: ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)),
                line,
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, CcError> {
        let line = self.line();
        // Cast: '(' type ... ')'
        if self.peek() == &TokenKind::LParen {
            let save = self.pos;
            self.bump();
            if self.at_type() {
                let base = self.base_type()?;
                let mut ty = self.pointers(base);
                // Function-pointer cast: (T (*)(params))
                if self.peek() == &TokenKind::LParen && self.peek2() == &TokenKind::Star {
                    self.bump();
                    self.bump();
                    self.expect(&TokenKind::RParen, "`)`")?;
                    self.expect(&TokenKind::LParen, "`(`")?;
                    let (params, variadic) = self.param_types()?;
                    ty = Type::Func {
                        ret: Box::new(ty),
                        params,
                        variadic,
                    }
                    .ptr();
                }
                self.expect(&TokenKind::RParen, "`)` after cast type")?;
                let inner = self.unary_expr()?;
                return Ok(Expr {
                    kind: ExprKind::Cast(ty, Box::new(inner)),
                    line,
                });
            }
            self.pos = save;
        }

        if self.eat(&TokenKind::Minus) {
            let e = self.unary_expr()?;
            return Ok(Expr {
                kind: ExprKind::Unary(UnOp::Neg, Box::new(e)),
                line,
            });
        }
        if self.eat(&TokenKind::Bang) {
            let e = self.unary_expr()?;
            return Ok(Expr {
                kind: ExprKind::Unary(UnOp::Not, Box::new(e)),
                line,
            });
        }
        if self.eat(&TokenKind::Tilde) {
            let e = self.unary_expr()?;
            return Ok(Expr {
                kind: ExprKind::Unary(UnOp::BitNot, Box::new(e)),
                line,
            });
        }
        if self.eat(&TokenKind::Star) {
            let e = self.unary_expr()?;
            return Ok(Expr {
                kind: ExprKind::Unary(UnOp::Deref, Box::new(e)),
                line,
            });
        }
        if self.eat(&TokenKind::Amp) {
            let e = self.unary_expr()?;
            return Ok(Expr {
                kind: ExprKind::Unary(UnOp::Addr, Box::new(e)),
                line,
            });
        }
        if self.eat(&TokenKind::PlusPlus) {
            let e = self.unary_expr()?;
            return Ok(Expr {
                kind: ExprKind::PreIncDec(true, Box::new(e)),
                line,
            });
        }
        if self.eat(&TokenKind::MinusMinus) {
            let e = self.unary_expr()?;
            return Ok(Expr {
                kind: ExprKind::PreIncDec(false, Box::new(e)),
                line,
            });
        }
        if self.eat_kw("sizeof") {
            if self.peek() == &TokenKind::LParen {
                let save = self.pos;
                self.bump();
                if self.at_type() {
                    let base = self.base_type()?;
                    let mut ty = self.pointers(base);
                    // sizeof(T[N]) is not needed; arrays appear via exprs.
                    if let TokenKind::LBracket = self.peek() {
                        self.bump();
                        if let TokenKind::Int(n) = self.bump().clone() {
                            self.expect(&TokenKind::RBracket, "`]`")?;
                            ty = Type::Array(Box::new(ty), n as u32);
                        } else {
                            return Err(self.err("array size must be a literal"));
                        }
                    }
                    self.expect(&TokenKind::RParen, "`)`")?;
                    return Ok(Expr {
                        kind: ExprKind::SizeofType(ty),
                        line,
                    });
                }
                self.pos = save;
            }
            let e = self.unary_expr()?;
            return Ok(Expr {
                kind: ExprKind::SizeofExpr(Box::new(e)),
                line,
            });
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr, CcError> {
        let mut e = self.primary_expr()?;
        loop {
            let line = self.line();
            if self.eat(&TokenKind::LParen) {
                let mut args = Vec::new();
                if !self.eat(&TokenKind::RParen) {
                    loop {
                        args.push(self.assign_expr()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(&TokenKind::RParen, "`)`")?;
                }
                e = Expr {
                    kind: ExprKind::Call(Box::new(e), args),
                    line,
                };
            } else if self.eat(&TokenKind::LBracket) {
                let idx = self.expr()?;
                self.expect(&TokenKind::RBracket, "`]`")?;
                e = Expr {
                    kind: ExprKind::Index(Box::new(e), Box::new(idx)),
                    line,
                };
            } else if self.eat(&TokenKind::Dot) {
                let field = self.ident("field name")?;
                e = Expr {
                    kind: ExprKind::Member {
                        base: Box::new(e),
                        field,
                        arrow: false,
                    },
                    line,
                };
            } else if self.eat(&TokenKind::Arrow) {
                let field = self.ident("field name")?;
                e = Expr {
                    kind: ExprKind::Member {
                        base: Box::new(e),
                        field,
                        arrow: true,
                    },
                    line,
                };
            } else if self.eat(&TokenKind::PlusPlus) {
                e = Expr {
                    kind: ExprKind::PostIncDec(true, Box::new(e)),
                    line,
                };
            } else if self.eat(&TokenKind::MinusMinus) {
                e = Expr {
                    kind: ExprKind::PostIncDec(false, Box::new(e)),
                    line,
                };
            } else {
                return Ok(e);
            }
        }
    }

    fn primary_expr(&mut self) -> Result<Expr, CcError> {
        let line = self.line();
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::Int(v),
                    line,
                })
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::Str(s),
                    line,
                })
            }
            TokenKind::Ident(name) => {
                if is_keyword(&name) {
                    return Err(self.err(format!("unexpected keyword `{name}` in expression")));
                }
                self.bump();
                Ok(Expr {
                    kind: ExprKind::Ident(name),
                    line,
                })
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen, "`)`")?;
                Ok(e)
            }
            other => Err(self.err(format!("unexpected token {other:?} in expression"))),
        }
    }
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "void"
            | "int"
            | "unsigned"
            | "char"
            | "struct"
            | "if"
            | "else"
            | "while"
            | "do"
            | "for"
            | "return"
            | "break"
            | "continue"
            | "sizeof"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex;

    fn parse_ok(src: &str) -> Program {
        parse(&lex(src).unwrap()).unwrap_or_else(|e| panic!("parse failed: {e}"))
    }

    #[test]
    fn function_definition_and_prototype() {
        let p = parse_ok(
            "int recv(int s, char *buf, int len, int flags);
             int main(void) { return 0; }",
        );
        assert_eq!(p.items.len(), 2);
        match &p.items[0] {
            Item::Func {
                name, body, params, ..
            } => {
                assert_eq!(name, "recv");
                assert!(body.is_none());
                assert_eq!(params.len(), 4);
                assert_eq!(params[1].0, Type::Char.ptr());
            }
            other => panic!("expected prototype, got {other:?}"),
        }
    }

    #[test]
    fn variadic_prototype() {
        let p = parse_ok("int printf(char *fmt, ...);");
        match &p.items[0] {
            Item::Func { variadic, .. } => assert!(variadic),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn globals_with_initializers() {
        let p = parse_ok(
            r#"int uid = -1;
               char banner[16] = "hello";
               int table[3] = {1, 2, 3};
               char *msg = "hi";
               int a, b = 7;"#,
        );
        assert_eq!(p.items.len(), 6);
        match &p.items[0] {
            Item::Global { init, .. } => assert_eq!(init, &Some(GlobalInit::Int(-1))),
            other => panic!("{other:?}"),
        }
        match &p.items[2] {
            Item::Global { init, .. } => {
                assert_eq!(init, &Some(GlobalInit::List(vec![1, 2, 3])));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn struct_layout() {
        let p =
            parse_ok("struct chunk { int size; struct chunk *fd; struct chunk *bk; char tag; };");
        let def = &p.structs["chunk"];
        assert_eq!(def.field("size").unwrap().0, 0);
        assert_eq!(def.field("fd").unwrap().0, 4);
        assert_eq!(def.field("bk").unwrap().0, 8);
        assert_eq!(def.field("tag").unwrap().0, 12);
        assert_eq!(def.size, 16); // padded to 4
        assert_eq!(def.align, 4);
    }

    #[test]
    fn statements_parse() {
        parse_ok(
            "int main() {
                int i; int sum = 0;
                for (i = 0; i < 10; i++) { sum += i; }
                while (sum > 0) { sum--; if (sum == 5) break; else continue; }
                do { sum++; } while (sum < 3);
                return sum;
            }",
        );
    }

    #[test]
    fn expression_precedence_shape() {
        let p = parse_ok("int main() { return 1 + 2 * 3; }");
        let Item::Func {
            body: Some(body), ..
        } = &p.items[0]
        else {
            panic!()
        };
        let Stmt::Return(Some(e), _) = &body[0] else {
            panic!()
        };
        // Must be Add(1, Mul(2, 3)).
        match &e.kind {
            ExprKind::Binary(BinOp::Add, l, r) => {
                assert!(matches!(l.kind, ExprKind::Int(1)));
                assert!(matches!(r.kind, ExprKind::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn casts_and_sizeof() {
        parse_ok(
            "int main() {
                char *p; int n;
                p = (char*)0x10000000;
                n = *(int*)p;
                n = sizeof(int);
                n = sizeof(struct x);
                n = sizeof p;
                n = (int)p + (unsigned)n;
                return n;
            }
            struct x { int a; };",
        );
    }

    #[test]
    fn function_pointers() {
        let p = parse_ok(
            "int handler(int x) { return x; }
             int main() {
                int (*fp)(int);
                fp = handler;
                return fp(3) + (*fp)(4);
             }",
        );
        assert_eq!(p.items.len(), 2);
    }

    #[test]
    fn member_access_chains() {
        parse_ok(
            "struct chunk { struct chunk *fd; struct chunk *bk; };
             int main() {
                struct chunk c; struct chunk *p;
                p = &c;
                p->fd->bk = p->bk;
                c.fd = p;
                return 0;
             }",
        );
    }

    #[test]
    fn parse_errors_have_lines() {
        let err = parse(&lex("int main() {\n  return 1 +;\n}").unwrap()).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(parse(&lex("int x[zzz];").unwrap()).is_err());
        assert!(parse(&lex("struct s { int a; }; struct s { int b; };").unwrap()).is_err());
        assert!(parse(&lex("int f( {").unwrap()).is_err());
    }

    #[test]
    fn ternary_and_logical() {
        parse_ok("int main() { int a = 1; return a ? a && 2 : a || 3; }");
    }
}
