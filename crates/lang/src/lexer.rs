//! Indentation-aware tokenizer for FlorScript.
//!
//! Follows the Python model: physical lines produce a NEWLINE token; changes
//! in leading whitespace produce INDENT/DEDENT tokens tracked with an indent
//! stack. Blank lines and `#` comments are skipped.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token {
    /// Identifier or keyword-adjacent name.
    Name(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (contents, quotes stripped).
    Str(String),
    /// Keyword: one of `import for in if else and or not True False None
    /// pass skipblock`.
    Keyword(&'static str),
    /// Operator or punctuation.
    Op(&'static str),
    /// End of a logical line.
    Newline,
    /// Increase in indentation.
    Indent,
    /// Decrease in indentation.
    Dedent,
    /// End of input.
    Eof,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Name(n) => write!(f, "{n}"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Float(x) => write!(f, "{x}"),
            Token::Str(s) => write!(f, "{s:?}"),
            Token::Keyword(k) => write!(f, "{k}"),
            Token::Op(o) => write!(f, "{o}"),
            Token::Newline => write!(f, "NEWLINE"),
            Token::Indent => write!(f, "INDENT"),
            Token::Dedent => write!(f, "DEDENT"),
            Token::Eof => write!(f, "EOF"),
        }
    }
}

/// A token plus the 1-based source line it starts on.
pub(crate) type Spanned = (Token, usize);

/// Lexing failure with a 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LexError {
    /// Human-readable message.
    pub message: String,
    /// 1-based source line.
    pub line: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

const KEYWORDS: &[&str] = &[
    "import",
    "for",
    "in",
    "if",
    "else",
    "and",
    "or",
    "not",
    "True",
    "False",
    "None",
    "pass",
    "skipblock",
];

/// Tokenizes FlorScript source into a spanned token stream ending in
/// [`Token::Eof`].
pub(crate) fn lex(src: &str) -> Result<Vec<Spanned>, LexError> {
    let mut out: Vec<Spanned> = Vec::new();
    let mut indents: Vec<usize> = vec![0];
    // Depth of open brackets — newlines inside brackets are not logical.
    let mut bracket_depth = 0usize;

    for (line_idx, raw_line) in src.lines().enumerate() {
        let lineno = line_idx + 1;
        // Strip comments (no # inside strings supported in comments check —
        // handle by scanning).
        let line = strip_comment(raw_line);
        if line.trim().is_empty() && bracket_depth == 0 {
            continue; // blank or comment-only line
        }

        if bracket_depth == 0 {
            let indent = line.len() - line.trim_start_matches(' ').len();
            if line[..indent].contains('\t') {
                return Err(LexError {
                    message: "tabs are not allowed in indentation".into(),
                    line: lineno,
                });
            }
            let current = *indents.last().unwrap();
            if indent > current {
                indents.push(indent);
                out.push((Token::Indent, lineno));
            } else if indent < current {
                while *indents.last().unwrap() > indent {
                    indents.pop();
                    out.push((Token::Dedent, lineno));
                }
                if *indents.last().unwrap() != indent {
                    return Err(LexError {
                        message: format!("inconsistent dedent to column {indent}"),
                        line: lineno,
                    });
                }
            }
        }

        lex_line(
            line.trim_start_matches(' '),
            lineno,
            &mut out,
            &mut bracket_depth,
        )?;

        if bracket_depth == 0 {
            out.push((Token::Newline, lineno));
        }
    }

    let last_line = src.lines().count().max(1);
    while indents.len() > 1 {
        indents.pop();
        out.push((Token::Dedent, last_line));
    }
    out.push((Token::Eof, last_line));
    Ok(out)
}

/// Removes a trailing comment, respecting string literals.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str: Option<u8> = None;
    for (i, &b) in bytes.iter().enumerate() {
        match in_str {
            Some(q) => {
                if b == q {
                    in_str = None;
                }
            }
            None => {
                if b == b'"' || b == b'\'' {
                    in_str = Some(b);
                } else if b == b'#' {
                    return &line[..i];
                }
            }
        }
    }
    line
}

fn lex_line(
    line: &str,
    lineno: usize,
    out: &mut Vec<Spanned>,
    bracket_depth: &mut usize,
) -> Result<(), LexError> {
    let chars: Vec<char> = line.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == ' ' {
            i += 1;
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let word: String = chars[start..i].iter().collect();
            if let Some(&kw) = KEYWORDS.iter().find(|&&k| k == word) {
                out.push((Token::Keyword(kw), lineno));
            } else {
                out.push((Token::Name(word), lineno));
            }
        } else if c.is_ascii_digit()
            || (c == '.' && i + 1 < chars.len() && chars[i + 1].is_ascii_digit())
        {
            let start = i;
            let mut is_float = false;
            while i < chars.len()
                && (chars[i].is_ascii_digit() || chars[i] == '.' || chars[i] == '_')
            {
                if chars[i] == '.' {
                    if is_float {
                        break; // second dot: attribute on a float literal, stop
                    }
                    is_float = true;
                }
                i += 1;
            }
            // Exponent suffix.
            if i < chars.len() && (chars[i] == 'e' || chars[i] == 'E') {
                let mut j = i + 1;
                if j < chars.len() && (chars[j] == '+' || chars[j] == '-') {
                    j += 1;
                }
                if j < chars.len() && chars[j].is_ascii_digit() {
                    is_float = true;
                    i = j;
                    while i < chars.len() && chars[i].is_ascii_digit() {
                        i += 1;
                    }
                }
            }
            let text: String = chars[start..i].iter().filter(|&&c| c != '_').collect();
            if is_float {
                let v = text.parse::<f64>().map_err(|_| LexError {
                    message: format!("bad float literal {text:?}"),
                    line: lineno,
                })?;
                out.push((Token::Float(v), lineno));
            } else {
                let v = text.parse::<i64>().map_err(|_| LexError {
                    message: format!("bad int literal {text:?}"),
                    line: lineno,
                })?;
                out.push((Token::Int(v), lineno));
            }
        } else if c == '"' || c == '\'' {
            let quote = c;
            i += 1;
            let mut s = String::new();
            let mut closed = false;
            while i < chars.len() {
                if chars[i] == '\\' && i + 1 < chars.len() {
                    let esc = chars[i + 1];
                    s.push(match esc {
                        'n' => '\n',
                        't' => '\t',
                        '\\' => '\\',
                        '\'' => '\'',
                        '"' => '"',
                        other => other,
                    });
                    i += 2;
                    continue;
                }
                if chars[i] == quote {
                    closed = true;
                    i += 1;
                    break;
                }
                s.push(chars[i]);
                i += 1;
            }
            if !closed {
                return Err(LexError {
                    message: "unterminated string literal".into(),
                    line: lineno,
                });
            }
            out.push((Token::Str(s), lineno));
        } else {
            // Operators, longest first.
            let two: String = chars[i..(i + 2).min(chars.len())].iter().collect();
            let matched2 = ["==", "!=", "<=", ">=", "**", "//"]
                .iter()
                .find(|&&op| op == two);
            if let Some(&op) = matched2 {
                out.push((Token::Op(op), lineno));
                i += 2;
                continue;
            }
            let one = c;
            let op: &'static str = match one {
                '+' => "+",
                '-' => "-",
                '*' => "*",
                '/' => "/",
                '%' => "%",
                '=' => "=",
                '<' => "<",
                '>' => ">",
                '(' => "(",
                ')' => ")",
                '[' => "[",
                ']' => "]",
                ',' => ",",
                '.' => ".",
                ':' => ":",
                _ => {
                    return Err(LexError {
                        message: format!("unexpected character {one:?}"),
                        line: lineno,
                    })
                }
            };
            match op {
                "(" | "[" => *bracket_depth += 1,
                ")" | "]" => {
                    *bracket_depth = bracket_depth.checked_sub(1).ok_or_else(|| LexError {
                        message: "unbalanced closing bracket".into(),
                        line: lineno,
                    })?
                }
                _ => {}
            }
            out.push((Token::Op(op), lineno));
            i += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        lex(src).unwrap().into_iter().map(|(t, _)| t).collect()
    }

    #[test]
    fn simple_assignment() {
        assert_eq!(
            toks("x = 1"),
            vec![
                Token::Name("x".into()),
                Token::Op("="),
                Token::Int(1),
                Token::Newline,
                Token::Eof
            ]
        );
    }

    #[test]
    fn keywords_vs_names() {
        assert_eq!(
            toks("for x in xs"),
            vec![
                Token::Keyword("for"),
                Token::Name("x".into()),
                Token::Keyword("in"),
                Token::Name("xs".into()),
                Token::Newline,
                Token::Eof
            ]
        );
    }

    #[test]
    fn indentation_produces_indent_dedent() {
        let src = "for i in r:\n    x = 1\ny = 2\n";
        let t = toks(src);
        assert!(t.contains(&Token::Indent));
        assert!(t.contains(&Token::Dedent));
        // Dedent arrives before the `y` token.
        let di = t.iter().position(|x| *x == Token::Dedent).unwrap();
        let yi = t
            .iter()
            .position(|x| *x == Token::Name("y".into()))
            .unwrap();
        assert!(di < yi);
    }

    #[test]
    fn nested_indentation() {
        let src = "for i in r:\n    for j in s:\n        x = 1\n";
        let t = toks(src);
        assert_eq!(t.iter().filter(|x| **x == Token::Indent).count(), 2);
        assert_eq!(t.iter().filter(|x| **x == Token::Dedent).count(), 2);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let src = "x = 1  # set x\n\n# full comment line\ny = 2\n";
        let t = toks(src);
        assert_eq!(t.iter().filter(|x| **x == Token::Newline).count(), 2);
    }

    #[test]
    fn hash_inside_string_is_not_comment() {
        let t = toks("x = \"a#b\"");
        assert!(t.contains(&Token::Str("a#b".into())));
    }

    #[test]
    fn float_and_int_literals() {
        assert_eq!(
            toks("a = 1.5"),
            vec![
                Token::Name("a".into()),
                Token::Op("="),
                Token::Float(1.5),
                Token::Newline,
                Token::Eof
            ]
        );
        assert!(toks("a = 1e-3").contains(&Token::Float(1e-3)));
        assert!(toks("a = 100").contains(&Token::Int(100)));
    }

    #[test]
    fn attribute_on_int_is_not_float() {
        // `x.0` never appears, but `a.b` after an int like `1.item()` would
        // be weird anyway; check the normal method chain lexes.
        let t = toks("y = obj.method(1)");
        assert!(t.contains(&Token::Op(".")));
    }

    #[test]
    fn strings_with_escapes() {
        assert!(toks(r#"s = "a\nb""#).contains(&Token::Str("a\nb".into())));
        assert!(toks(r#"s = 'it\'s'"#).contains(&Token::Str("it's".into())));
    }

    #[test]
    fn continuation_inside_brackets() {
        let src = "x = f(1,\n      2)\ny = 3\n";
        let t = toks(src);
        // Only two logical lines.
        assert_eq!(t.iter().filter(|x| **x == Token::Newline).count(), 2);
        assert!(!t.contains(&Token::Indent), "no INDENT inside brackets");
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("s = \"abc").is_err());
    }

    #[test]
    fn inconsistent_dedent_errors() {
        let src = "for i in r:\n    x = 1\n  y = 2\n";
        assert!(lex(src).is_err());
    }

    #[test]
    fn tabs_in_indentation_rejected() {
        assert!(lex("for i in r:\n\tx = 1\n").is_err());
    }

    #[test]
    fn two_char_operators() {
        let t = toks("a == b != c <= d >= e");
        assert!(t.contains(&Token::Op("==")));
        assert!(t.contains(&Token::Op("!=")));
        assert!(t.contains(&Token::Op("<=")));
        assert!(t.contains(&Token::Op(">=")));
    }

    #[test]
    fn line_numbers_tracked() {
        let spanned = lex("x = 1\ny = 2\n").unwrap();
        let y = spanned
            .iter()
            .find(|(t, _)| *t == Token::Name("y".into()))
            .unwrap();
        assert_eq!(y.1, 2);
    }
}
