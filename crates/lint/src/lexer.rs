//! A lightweight Rust lexer for the invariant checker.
//!
//! The parser ([`crate::parse`]) and the rules in [`crate::rules`]
//! match token shapes (`.unwrap(`, `Instant::now`, `ident[`), so the
//! lexer's only hard requirements are the ones a plain text grep gets
//! wrong: comments, string literals, char literals and raw strings must
//! never leak their contents into the token stream, and lifetimes must
//! not be confused with char literals.
//! No full parse is attempted.
//!
//! Comments are returned separately so the allow-directive syntax
//! (`// deepsd-lint: allow(rule, reason="…")`) can be recognised.

/// Token class. The text of string literals is preserved (the parser
/// inspects metric-name literals for the `time_` namespace) but rules must treat it as opaque data, never as code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Punctuation; common two-character operators (`==`, `!=`, `::`,
    /// `->`, `=>`, `..`) are fused into one token.
    Punct,
    /// String literal (regular, raw, byte or C string). `text` holds the
    /// unescaped-as-written inner bytes, without delimiters.
    Str,
    /// Char literal (`'a'`, `'\n'`).
    Char,
    /// Numeric literal, suffix included (`1_000u32`, `2.5e-3`, `1.0f32`).
    Num,
    /// Lifetime (`'a`) — kept so rules never misread `'a` as a char.
    Lifetime,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: u32,
}

impl Tok {
    /// True for an identifier token with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }

    /// True for a punctuation token with exactly this text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokKind::Punct && self.text == text
    }

    /// True when this numeric literal is a float (`1.5`, `2e3`, `1f32`).
    pub fn is_float_literal(&self) -> bool {
        if self.kind != TokKind::Num {
            return false;
        }
        let t = &self.text;
        if t.ends_with("f32") || t.ends_with("f64") {
            return true;
        }
        // Hex/octal/binary literals contain letters but are integers.
        if t.starts_with("0x") || t.starts_with("0o") || t.starts_with("0b") {
            return false;
        }
        // Strip an integer-suffix tail (`7usize`, `3u16`, `9i64`) before
        // looking for an exponent: the `e` in `usize` is not an exponent.
        // A real exponent (`1e9`, `2E-3`) is always followed by a digit,
        // so it survives the trim.
        let core = t.trim_end_matches(|c: char| c.is_ascii_alphabetic());
        // `1.0`, `1.`, `1e3`, `1.5e-3` — but not `1..2` (lexed as Num `1`
        // then Punct `..`) and not tuple access (`.0` never starts a Num).
        core.contains('.') || core.contains('e') || core.contains('E')
    }
}

/// A comment, returned alongside the token stream.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text without the `//` / `/*` delimiters.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
}

/// Lexer output: code tokens and comments, both in source order.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Tok>,
    pub comments: Vec<Comment>,
}

/// Lexes `src`. Unterminated literals and comments are tolerated (the
/// rest of the file is swallowed into the open literal) — the linter
/// must never panic on weird input, and `rustc` will report the real
/// error anyway.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Advances `idx` over `n` bytes, counting newlines into `line`.
    fn advance(b: &[u8], idx: &mut usize, line: &mut u32, n: usize) {
        for _ in 0..n {
            if *idx < b.len() {
                if b[*idx] == b'\n' {
                    *line += 1;
                }
                *idx += 1;
            }
        }
    }

    while i < b.len() {
        let c = b[i];
        let start_line = line;

        // Whitespace.
        if c.is_ascii_whitespace() {
            advance(b, &mut i, &mut line, 1);
            continue;
        }

        // Line comment (also `///` docs — same handling).
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let mut j = i + 2;
            while j < b.len() && b[j] != b'\n' {
                j += 1;
            }
            out.comments.push(Comment {
                text: src[i + 2..j].to_string(),
                line: start_line,
            });
            let n = j - i;
            advance(b, &mut i, &mut line, n);
            continue;
        }

        // Block comment, nested per Rust rules.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < b.len() && depth > 0 {
                if j + 1 < b.len() && b[j] == b'/' && b[j + 1] == b'*' {
                    depth += 1;
                    j += 2;
                } else if j + 1 < b.len() && b[j] == b'*' && b[j + 1] == b'/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            let inner_end = j.saturating_sub(2).max(i + 2);
            out.comments.push(Comment {
                text: src[i + 2..inner_end].to_string(),
                line: start_line,
            });
            let n = j - i;
            advance(b, &mut i, &mut line, n);
            continue;
        }

        // Raw strings: r"…", r#"…"#, and byte/C variants br#"…"#, cr"…".
        if let Some((len, inner)) = raw_string_at(src, i) {
            out.tokens.push(Tok {
                kind: TokKind::Str,
                text: inner,
                line: start_line,
            });
            let n = len;
            advance(b, &mut i, &mut line, n);
            continue;
        }

        // Plain and byte/C strings: "…", b"…", c"…".
        if c == b'"' || ((c == b'b' || c == b'c') && i + 1 < b.len() && b[i + 1] == b'"') {
            let open = if c == b'"' { i } else { i + 1 };
            let mut j = open + 1;
            while j < b.len() {
                match b[j] {
                    b'\\' => j += 2,
                    b'"' => break,
                    _ => j += 1,
                }
            }
            let end = j.min(b.len());
            out.tokens.push(Tok {
                kind: TokKind::Str,
                text: src[open + 1..end.min(src.len())].to_string(),
                line: start_line,
            });
            let n = (end + 1).min(b.len()) - i;
            advance(b, &mut i, &mut line, n);
            continue;
        }

        // Lifetime vs char literal. After a quote: an escape or a body
        // longer than one scalar followed by `'` is a char; `'ident` with
        // no closing quote is a lifetime.
        if c == b'\'' {
            if let Some(len) = char_literal_len(src, i) {
                out.tokens.push(Tok {
                    kind: TokKind::Char,
                    text: String::new(),
                    line: start_line,
                });
                let n = len;
                advance(b, &mut i, &mut line, n);
            } else {
                let mut j = i + 1;
                while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
                    j += 1;
                }
                out.tokens.push(Tok {
                    kind: TokKind::Lifetime,
                    text: src[i + 1..j].to_string(),
                    line: start_line,
                });
                let n = j - i;
                advance(b, &mut i, &mut line, n);
            }
            continue;
        }

        // Numbers (identifiers starting with a digit do not exist).
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < b.len() {
                let d = b[j];
                if d.is_ascii_alphanumeric() || d == b'_' {
                    j += 1;
                } else if d == b'.' {
                    // `1..2` is Num Punct Num; `1.5` continues the number.
                    if j + 1 < b.len() && b[j + 1] == b'.' {
                        break;
                    }
                    // `1.method()` — treat the dot as punctuation.
                    if j + 1 < b.len() && (b[j + 1].is_ascii_alphabetic() || b[j + 1] == b'_') {
                        break;
                    }
                    j += 1;
                } else if (d == b'+' || d == b'-')
                    && (b[j - 1] == b'e' || b[j - 1] == b'E')
                    && src[i..j].chars().all(|ch| ch != 'x')
                {
                    // Exponent sign: `1.5e-3`.
                    j += 1;
                } else {
                    break;
                }
            }
            out.tokens.push(Tok {
                kind: TokKind::Num,
                text: src[i..j].to_string(),
                line: start_line,
            });
            let n = j - i;
            advance(b, &mut i, &mut line, n);
            continue;
        }

        // Identifiers and keywords (also `r#ident` raw identifiers).
        if c.is_ascii_alphabetic() || c == b'_' {
            let mut s = i;
            if c == b'r' && i + 1 < b.len() && b[i + 1] == b'#' {
                // Only a raw identifier if followed by an ident char
                // (raw strings were handled above).
                if i + 2 < b.len() && (b[i + 2].is_ascii_alphanumeric() || b[i + 2] == b'_') {
                    s = i + 2;
                }
            }
            let mut j = s;
            while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                j += 1;
            }
            // Raw identifiers keep their `r#` prefix: `r#fn` is an
            // ordinary identifier and must never satisfy
            // `is_ident("fn")` — a stripped prefix would let it spoof a
            // keyword in the item parser.
            out.tokens.push(Tok {
                kind: TokKind::Ident,
                text: src[i..j].to_string(),
                line: start_line,
            });
            let n = j - i;
            advance(b, &mut i, &mut line, n);
            continue;
        }

        // Punctuation; fuse the two-character operators the rules use.
        let two = if i + 1 < b.len() { &src[i..i + 2] } else { "" };
        let mut fused = matches!(
            two,
            "==" | "!=" | "<=" | ">=" | "::" | "->" | "=>" | ".." | "&&" | "||"
        );
        // `>>=` / `<<=` (shift-assign, or `Vec<Vec<u8>>=` closing nested
        // generics) must not fabricate a `>=` / `<=` comparison out of
        // their last two characters: after a same-direction angle
        // bracket, the `=` is its own token.
        if fused && (two == ">=" || two == "<=") && i > 0 && b[i - 1] == b[i] {
            fused = false;
        }
        let len = if fused { 2 } else { 1 };
        out.tokens.push(Tok {
            kind: TokKind::Punct,
            text: src[i..i + len].to_string(),
            line: start_line,
        });
        advance(b, &mut i, &mut line, len);
    }
    out
}

/// If a raw string starts at `i`, returns `(total_len, inner_text)`.
fn raw_string_at(src: &str, i: usize) -> Option<(usize, String)> {
    let b = src.as_bytes();
    let mut j = i;
    // Optional `b` / `c` prefix before `r`.
    if j < b.len() && (b[j] == b'b' || b[j] == b'c') {
        j += 1;
    }
    if j >= b.len() || b[j] != b'r' {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j >= b.len() || b[j] != b'"' {
        return None;
    }
    let body_start = j + 1;
    let closer: String = format!("\"{}", "#".repeat(hashes));
    match src[body_start..].find(&closer) {
        Some(off) => {
            let body_end = body_start + off;
            Some((
                body_end + closer.len() - i,
                src[body_start..body_end].to_string(),
            ))
        }
        None => Some((src.len() - i, src[body_start..].to_string())),
    }
}

/// If a char literal starts at `i` (a `'`), returns its total length.
/// Returns `None` for lifetimes.
fn char_literal_len(src: &str, i: usize) -> Option<usize> {
    let b = src.as_bytes();
    debug_assert_eq!(b[i], b'\'');
    let mut j = i + 1;
    if j >= b.len() {
        return None;
    }
    if b[j] == b'\\' {
        // Escape: skip to the closing quote.
        j += 2;
        while j < b.len() && b[j] != b'\'' {
            j += 1;
        }
        return Some((j + 1).min(b.len()) - i);
    }
    // One scalar (possibly multi-byte) followed by a closing quote.
    let ch_len = src[j..].chars().next().map_or(1, char::len_utf8);
    let after = j + ch_len;
    if after < b.len() && b[after] == b'\'' {
        return Some(after + 1 - i);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn strings_and_comments_do_not_leak_tokens() {
        let src = r##"
            // calls unwrap() in a comment
            /* block with .unwrap() and /* nested panic!() */ still comment */
            let s = "contains .unwrap() and panic!";
            let r = r#"raw with HashMap.iter()"#;
            let c = 'x';
            let esc = '\'';
            real_ident();
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"panic".to_string()));
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(ids.contains(&"real_ident".to_string()));
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].text.contains("unwrap"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let lexed = lex(src);
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 3);
        assert!(lexed.tokens.iter().all(|t| t.kind != TokKind::Char));
    }

    #[test]
    fn float_literal_detection() {
        let lexed = lex("a == 1.0; b == 2; c != 2.5e-3; d == 0x10; e == 1f32; f == 3e8;");
        let nums: Vec<&Tok> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .collect();
        let flags: Vec<bool> = nums.iter().map(|t| t.is_float_literal()).collect();
        assert_eq!(flags, vec![true, false, true, false, true, true]);
    }

    #[test]
    fn range_is_not_a_float() {
        let lexed = lex("for i in 0..10 { v[i] = 1.5; }");
        let nums: Vec<String> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(nums, vec!["0", "10", "1.5"]);
    }

    #[test]
    fn line_numbers_are_tracked() {
        let src = "a\nb\n  c";
        let lexed = lex(src);
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }

    #[test]
    fn two_char_operators_are_fused() {
        let lexed = lex("a == b != c :: d .. e");
        let puncts: Vec<String> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(puncts, vec!["==", "!=", "::", ".."]);
    }

    #[test]
    fn shift_assign_does_not_fabricate_a_comparison() {
        // `Vec<Vec<u8>>= x` (or `a >>= 2`): the `>>=` tail must lex as
        // `>` `>` `=`, never `>` `>=` — a fused `>=` here fabricates a
        // comparison that confuses generic tracking and float-eq.
        let lexed = lex("let v: Vec<Vec<u8>>= x; a <<= 2;");
        let puncts: Vec<String> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Punct && (t.text.contains('>') || t.text.contains('<')))
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(puncts, vec!["<", "<", ">", ">", "<", "<"]);
        // Real comparisons still fuse.
        let lexed = lex("if a >= b && c <= d {}");
        assert!(lexed.tokens.iter().any(|t| t.is_punct(">=")));
        assert!(lexed.tokens.iter().any(|t| t.is_punct("<=")));
    }

    #[test]
    fn raw_identifiers_keep_their_prefix() {
        let lexed = lex("let r#type = 1; let r#fn = 2;");
        let idents: Vec<String> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident && t.text.starts_with("r#"))
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(idents, vec!["r#type", "r#fn"]);
        // `r#fn` must never satisfy the keyword check the item parser
        // uses to find function items.
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("fn")));
    }

    #[test]
    fn exponent_floats_and_suffixed_integers_are_told_apart() {
        let lexed = lex(
            "const A: f64 = 1e9; const B: f64 = 2E-3; const N: usize = 7usize; let m = 4096u64;",
        );
        let nums: Vec<(String, bool)> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| (t.text.clone(), t.is_float_literal()))
            .collect();
        assert_eq!(
            nums,
            vec![
                ("1e9".to_string(), true),
                ("2E-3".to_string(), true),
                ("7usize".to_string(), false),
                ("4096u64".to_string(), false),
            ]
        );
    }

    #[test]
    fn unterminated_string_is_tolerated() {
        let lexed = lex("let s = \"never closed");
        assert!(lexed.tokens.iter().any(|t| t.kind == TokKind::Str));
    }
}
