//! Per-file context annotation on top of the raw token stream: `use`-item
//! spans, `#[cfg(test)]` / `#[test]` regions, allow pragmas and `SAFETY:`
//! comment lines — the shared substrate every rule scans.

use crate::lexer::{lex, Lexed, Tok, Token};

/// Context flags for one token.
#[derive(Clone, Copy, Debug, Default)]
pub struct Flags {
    /// Inside a `use …;` / `extern crate …;` item (imports are declared
    /// once; rules flag *use sites*).
    pub in_use: bool,
    /// Inside a `#[cfg(test)]` module/item or a `#[test]` function. Most
    /// determinism rules skip test-only code: a `HashSet` membership assert
    /// in a unit test cannot leak into an observable.
    pub is_test: bool,
}

/// A `// lint: allow(<rule>) — <reason>` pragma.
#[derive(Clone, Debug)]
pub struct Pragma {
    /// 1-based line the pragma comment sits on.
    pub line: u32,
    /// The rule id named in the parentheses.
    pub rule: String,
    /// Whether a non-empty reason follows the closing paren. Reason-less
    /// pragmas do **not** suppress and are themselves findings.
    pub has_reason: bool,
}

/// A lexed file plus the context every rule needs.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// The token/comment stream.
    pub lexed: Lexed,
    /// Parallel to `lexed.tokens`.
    pub flags: Vec<Flags>,
    /// All allow pragmas, in source order.
    pub pragmas: Vec<Pragma>,
    /// Lines whose comment text contains `SAFETY:`.
    pub safety_lines: Vec<u32>,
}

impl SourceFile {
    /// Lex and annotate one source file.
    pub fn parse(src: &str) -> SourceFile {
        let lexed = lex(src);
        let flags = annotate(&lexed.tokens);
        let mut pragmas = Vec::new();
        let mut safety_lines = Vec::new();
        for c in &lexed.comments {
            if c.text.contains("SAFETY:") {
                safety_lines.push(c.line);
            }
            if let Some(p) = parse_pragma(c.line, &c.text) {
                pragmas.push(p);
            }
        }
        SourceFile {
            lexed,
            flags,
            pragmas,
            safety_lines,
        }
    }

    /// Is a finding of `rule` at `line` suppressed by a reasoned pragma on
    /// the same or the immediately preceding line?
    pub fn suppressed(&self, rule: &str, line: u32) -> bool {
        self.pragmas
            .iter()
            .any(|p| p.rule == rule && p.has_reason && (p.line == line || p.line + 1 == line))
    }

    /// Is there a `SAFETY:` comment on `line` or within the three lines
    /// above it (the unsafe-audit discipline)?
    pub fn safety_near(&self, line: u32) -> bool {
        self.safety_lines
            .iter()
            .any(|&l| l <= line && l + 3 >= line)
    }
}

/// Parse one comment line as an allow pragma. The grammar is strict on the
/// head (`lint: allow(<rule>)`) and lenient on the reason separator (an
/// em-dash, hyphen or colon may precede the reason text).
fn parse_pragma(line: u32, text: &str) -> Option<Pragma> {
    let t = text.trim_start();
    let rest = t
        .strip_prefix("lint: allow(")
        .or_else(|| t.strip_prefix("lint:allow("))?;
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_string();
    let reason = rest[close + 1..]
        .trim_start_matches(|c: char| c.is_whitespace() || c == '—' || c == '-' || c == ':')
        .trim();
    Some(Pragma {
        line,
        rule,
        has_reason: !reason.is_empty(),
    })
}

/// Compute the per-token [`Flags`] in one linear scan: brace-depth tracking
/// for `#[cfg(test)]` / `#[test]` regions and `use`-item spans.
fn annotate(tokens: &[Token]) -> Vec<Flags> {
    let mut flags = Vec::with_capacity(tokens.len());
    let mut depth = 0usize;
    // Depths at which a test region's block opened.
    let mut test_depths: Vec<usize> = Vec::new();
    // A test attribute was seen; the next `{` opens a test region, a `;`
    // closes the (block-less) item.
    let mut pending_test = false;
    let mut in_use = false;
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        // Attribute lookahead: `#[test]`, `#[cfg(test)]`, `#[cfg(any(test,…))]`.
        if t.tok == Tok::Punct('#')
            && matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('[')))
            && attr_is_test(&tokens[i + 2..])
        {
            pending_test = true;
        }
        match &t.tok {
            Tok::Ident(id) if id == "use" || id == "extern" => in_use = true,
            Tok::Punct(';') => {
                if pending_test && !in_use {
                    // `#[cfg(test)] use …;` — the single item was the scope.
                    pending_test = false;
                }
                flags.push(Flags {
                    in_use,
                    is_test: !test_depths.is_empty() || pending_test,
                });
                in_use = false;
                pending_test = false;
                i += 1;
                continue;
            }
            Tok::Punct('{') => {
                flags.push(Flags {
                    in_use,
                    is_test: !test_depths.is_empty() || pending_test,
                });
                if pending_test {
                    test_depths.push(depth);
                    pending_test = false;
                }
                depth += 1;
                i += 1;
                continue;
            }
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                if test_depths.last() == Some(&depth) {
                    test_depths.pop();
                }
                flags.push(Flags {
                    in_use,
                    is_test: !test_depths.is_empty(),
                });
                i += 1;
                continue;
            }
            _ => {}
        }
        flags.push(Flags {
            in_use,
            is_test: !test_depths.is_empty() || pending_test,
        });
        i += 1;
    }
    flags
}

/// Does the attribute content starting right after `#[` mark test-only
/// code? Matches `test]` and `cfg(… test …)` up to the closing bracket.
fn attr_is_test(tokens: &[Token]) -> bool {
    match tokens.first().map(|t| &t.tok) {
        Some(Tok::Ident(id)) if id == "test" => {
            matches!(tokens.get(1).map(|t| &t.tok), Some(Tok::Punct(']')))
        }
        Some(Tok::Ident(id)) if id == "cfg" => {
            let mut depth = 0i32;
            for t in &tokens[1..] {
                match &t.tok {
                    Tok::Punct('(') => depth += 1,
                    Tok::Punct(')') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    Tok::Punct(']') if depth == 0 => break,
                    Tok::Ident(id) if id == "test" => return true,
                    _ => {}
                }
            }
            false
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(src: &str) -> SourceFile {
        SourceFile::parse(src)
    }

    fn flag_of<'a>(sf: &'a SourceFile, ident: &str) -> (&'a Flags, u32) {
        let (i, t) = sf
            .lexed
            .tokens
            .iter()
            .enumerate()
            .find(|(_, t)| t.tok == Tok::Ident(ident.into()))
            .unwrap_or_else(|| panic!("ident {ident} not found"));
        (&sf.flags[i], t.line)
    }

    #[test]
    fn cfg_test_modules_are_test_regions() {
        let sf = parsed(
            "fn live() { touch_map(); }\n\
             #[cfg(test)]\nmod tests {\n    fn t() { scratch_map(); }\n}\n\
             fn live_again() { after(); }",
        );
        assert!(!flag_of(&sf, "touch_map").0.is_test);
        assert!(flag_of(&sf, "scratch_map").0.is_test);
        assert!(!flag_of(&sf, "after").0.is_test);
    }

    #[test]
    fn test_attr_functions_are_test_regions() {
        let sf = parsed("#[test]\nfn t() { scratch(); }\nfn live() { real(); }");
        assert!(flag_of(&sf, "scratch").0.is_test);
        assert!(!flag_of(&sf, "real").0.is_test);
    }

    #[test]
    fn use_spans_cover_import_items_only() {
        let sf = parsed("use std::collections::HashMap;\nfn f() { HashMap::new(); }");
        let hits: Vec<bool> = sf
            .lexed
            .tokens
            .iter()
            .zip(&sf.flags)
            .filter(|(t, _)| t.tok == Tok::Ident("HashMap".into()))
            .map(|(_, f)| f.in_use)
            .collect();
        assert_eq!(hits, vec![true, false]);
    }

    #[test]
    fn pragmas_require_reasons() {
        let sf = parsed(
            "// lint: allow(default-hash-state) — lookup-only, never iterated\n\
             let a = 1;\n\
             // lint: allow(wall-clock)\n\
             let b = 2;",
        );
        assert_eq!(sf.pragmas.len(), 2);
        assert!(sf.pragmas[0].has_reason);
        assert_eq!(sf.pragmas[0].rule, "default-hash-state");
        assert!(!sf.pragmas[1].has_reason);
        assert!(sf.suppressed("default-hash-state", 2));
        assert!(
            !sf.suppressed("wall-clock", 4),
            "reason-less must not suppress"
        );
    }

    #[test]
    fn safety_comments_are_line_anchored() {
        let sf = parsed("// SAFETY: delegates to System\nunsafe { x() }\n\n\n\nunsafe { y() }");
        assert!(sf.safety_near(2));
        assert!(!sf.safety_near(6));
    }
}
