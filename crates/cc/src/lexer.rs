//! The mini-C lexer.

use crate::CcError;

/// A lexical token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// 1-based line number.
    pub line: u32,
}

/// Token kinds. Punctuators carry their exact spelling as separate variants
/// so the parser can match on them cheaply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (keywords are distinguished by the parser).
    Ident(String),
    /// Integer literal (decimal, hex, or char literal).
    Int(i64),
    /// String literal with escapes already decoded.
    Str(Vec<u8>),

    // Punctuation, in rough precedence order.
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `...`
    Ellipsis,
    /// `.`
    Dot,
    /// `->`
    Arrow,
    /// `++`
    PlusPlus,
    /// `--`
    MinusMinus,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `!`
    Bang,
    /// `~`
    Tilde,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `?`
    Question,
    /// `:`
    Colon,
    /// `=`
    Eq,
    /// `+=`
    PlusEq,
    /// `-=`
    MinusEq,
    /// `*=`
    StarEq,
    /// `/=`
    SlashEq,
    /// `%=`
    PercentEq,
    /// `&=`
    AmpEq,
    /// `|=`
    PipeEq,
    /// `^=`
    CaretEq,
    /// `<<=`
    ShlEq,
    /// `>>=`
    ShrEq,
    /// End of input sentinel.
    Eof,
}

/// Lexes mini-C source into tokens (with a trailing [`TokenKind::Eof`]).
///
/// # Errors
///
/// Returns a [`CcError`] for unterminated literals/comments and unknown
/// characters.
pub fn lex(source: &str) -> Result<Vec<Token>, CcError> {
    lex_from(source, 1)
}

/// [`lex`] for a source whose first line is `line`: the continuation of a
/// unit prefix that ended at a line break.
pub(crate) fn lex_from(source: &str, mut line: u32) -> Result<Vec<Token>, CcError> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;

    macro_rules! push {
        ($kind:expr) => {
            tokens.push(Token { kind: $kind, line })
        };
    }

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start_line = line;
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(CcError::new(start_line, "unterminated block comment"));
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                push!(TokenKind::Ident(source[start..i].to_owned()));
            }
            b'0'..=b'9' => {
                let start = i;
                let hex = c == b'0' && matches!(bytes.get(i + 1), Some(b'x' | b'X'));
                if hex {
                    i += 2;
                    while i < bytes.len() && bytes[i].is_ascii_hexdigit() {
                        i += 1;
                    }
                    let v = i64::from_str_radix(&source[start + 2..i], 16)
                        .map_err(|_| CcError::new(line, "hex literal out of range"))?;
                    push!(TokenKind::Int(v));
                } else {
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let v: i64 = source[start..i]
                        .parse()
                        .map_err(|_| CcError::new(line, "integer literal out of range"))?;
                    push!(TokenKind::Int(v));
                }
            }
            b'\'' => {
                let (value, next) = lex_char(bytes, i + 1, line)?;
                push!(TokenKind::Int(i64::from(value)));
                i = next;
            }
            b'"' => {
                let (s, next, lines) = lex_string(bytes, i + 1, line)?;
                push!(TokenKind::Str(s));
                line += lines;
                i = next;
            }
            _ => {
                let (kind, len) = lex_punct(bytes, i).ok_or_else(|| {
                    CcError::new(line, format!("unexpected character `{}`", c as char))
                })?;
                push!(kind);
                i += len;
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        line,
    });
    Ok(tokens)
}

fn lex_escape(bytes: &[u8], i: usize, line: u32) -> Result<(u8, usize), CcError> {
    let err = || CcError::new(line, "bad escape sequence");
    let c = *bytes.get(i).ok_or_else(err)?;
    Ok(match c {
        b'n' => (b'\n', i + 1),
        b't' => (b'\t', i + 1),
        b'r' => (b'\r', i + 1),
        b'0' => (0, i + 1),
        b'\\' => (b'\\', i + 1),
        b'\'' => (b'\'', i + 1),
        b'"' => (b'"', i + 1),
        b'x' => {
            let hi = *bytes.get(i + 1).ok_or_else(err)?;
            let lo = *bytes.get(i + 2).ok_or_else(err)?;
            let s = [hi, lo];
            let s = std::str::from_utf8(&s).map_err(|_| err())?;
            (u8::from_str_radix(s, 16).map_err(|_| err())?, i + 3)
        }
        _ => return Err(err()),
    })
}

fn lex_char(bytes: &[u8], i: usize, line: u32) -> Result<(u8, usize), CcError> {
    let err = || CcError::new(line, "unterminated char literal");
    let c = *bytes.get(i).ok_or_else(err)?;
    let (value, next) = if c == b'\\' {
        lex_escape(bytes, i + 1, line)?
    } else {
        (c, i + 1)
    };
    if bytes.get(next) != Some(&b'\'') {
        return Err(err());
    }
    Ok((value, next + 1))
}

fn lex_string(bytes: &[u8], mut i: usize, line: u32) -> Result<(Vec<u8>, usize, u32), CcError> {
    let mut out = Vec::new();
    let mut lines = 0u32;
    loop {
        let c = *bytes
            .get(i)
            .ok_or_else(|| CcError::new(line, "unterminated string literal"))?;
        match c {
            b'"' => return Ok((out, i + 1, lines)),
            b'\\' => {
                let (v, next) = lex_escape(bytes, i + 1, line)?;
                out.push(v);
                i = next;
            }
            b'\n' => {
                lines += 1;
                out.push(c);
                i += 1;
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
}

fn lex_punct(bytes: &[u8], i: usize) -> Option<(TokenKind, usize)> {
    use TokenKind::*;
    let b = |k: usize| bytes.get(i + k).copied();
    // Three-character tokens first.
    if b(0) == Some(b'.') && b(1) == Some(b'.') && b(2) == Some(b'.') {
        return Some((Ellipsis, 3));
    }
    if b(0) == Some(b'<') && b(1) == Some(b'<') && b(2) == Some(b'=') {
        return Some((ShlEq, 3));
    }
    if b(0) == Some(b'>') && b(1) == Some(b'>') && b(2) == Some(b'=') {
        return Some((ShrEq, 3));
    }
    let two = match (b(0)?, b(1)) {
        (b'-', Some(b'>')) => Some(Arrow),
        (b'+', Some(b'+')) => Some(PlusPlus),
        (b'-', Some(b'-')) => Some(MinusMinus),
        (b'<', Some(b'<')) => Some(Shl),
        (b'>', Some(b'>')) => Some(Shr),
        (b'<', Some(b'=')) => Some(Le),
        (b'>', Some(b'=')) => Some(Ge),
        (b'=', Some(b'=')) => Some(EqEq),
        (b'!', Some(b'=')) => Some(NotEq),
        (b'&', Some(b'&')) => Some(AndAnd),
        (b'|', Some(b'|')) => Some(OrOr),
        (b'+', Some(b'=')) => Some(PlusEq),
        (b'-', Some(b'=')) => Some(MinusEq),
        (b'*', Some(b'=')) => Some(StarEq),
        (b'/', Some(b'=')) => Some(SlashEq),
        (b'%', Some(b'=')) => Some(PercentEq),
        (b'&', Some(b'=')) => Some(AmpEq),
        (b'|', Some(b'=')) => Some(PipeEq),
        (b'^', Some(b'=')) => Some(CaretEq),
        _ => None,
    };
    if let Some(kind) = two {
        return Some((kind, 2));
    }
    let one = match b(0)? {
        b'(' => LParen,
        b')' => RParen,
        b'{' => LBrace,
        b'}' => RBrace,
        b'[' => LBracket,
        b']' => RBracket,
        b';' => Semi,
        b',' => Comma,
        b'.' => Dot,
        b'+' => Plus,
        b'-' => Minus,
        b'*' => Star,
        b'/' => Slash,
        b'%' => Percent,
        b'!' => Bang,
        b'~' => Tilde,
        b'&' => Amp,
        b'|' => Pipe,
        b'^' => Caret,
        b'<' => Lt,
        b'>' => Gt,
        b'?' => Question,
        b':' => Colon,
        b'=' => Eq,
        _ => return None,
    };
    Some((one, 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn identifiers_and_integers() {
        assert_eq!(
            kinds("foo _bar x1 42 0x1f"),
            vec![
                TokenKind::Ident("foo".into()),
                TokenKind::Ident("_bar".into()),
                TokenKind::Ident("x1".into()),
                TokenKind::Int(42),
                TokenKind::Int(0x1f),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn char_and_string_literals() {
        assert_eq!(
            kinds(r#"'a' '\n' '\x41' "hi\n\0""#),
            vec![
                TokenKind::Int(97),
                TokenKind::Int(10),
                TokenKind::Int(0x41),
                TokenKind::Str(vec![b'h', b'i', b'\n', 0]),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn operators_longest_match() {
        assert_eq!(
            kinds("a <<= b >> c <= d < e"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::ShlEq,
                TokenKind::Ident("b".into()),
                TokenKind::Shr,
                TokenKind::Ident("c".into()),
                TokenKind::Le,
                TokenKind::Ident("d".into()),
                TokenKind::Lt,
                TokenKind::Ident("e".into()),
                TokenKind::Eof
            ]
        );
        assert_eq!(
            kinds("p->x ... a.b ++i --j"),
            vec![
                TokenKind::Ident("p".into()),
                TokenKind::Arrow,
                TokenKind::Ident("x".into()),
                TokenKind::Ellipsis,
                TokenKind::Ident("a".into()),
                TokenKind::Dot,
                TokenKind::Ident("b".into()),
                TokenKind::PlusPlus,
                TokenKind::Ident("i".into()),
                TokenKind::MinusMinus,
                TokenKind::Ident("j".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped_and_lines_tracked() {
        let toks = lex("a // comment\nb /* multi\nline */ c").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 3);
    }

    #[test]
    fn errors() {
        assert!(lex("'a").is_err());
        assert!(lex("\"abc").is_err());
        assert!(lex("/* nope").is_err());
        assert!(lex("@").is_err());
        assert!(lex(r"'\q'").is_err());
    }

    #[test]
    fn compound_assignment_tokens() {
        assert_eq!(
            kinds("x += 1; y %= 2; z &= 3;")
                .into_iter()
                .filter(|k| matches!(
                    k,
                    TokenKind::PlusEq | TokenKind::PercentEq | TokenKind::AmpEq
                ))
                .count(),
            3
        );
    }
}
