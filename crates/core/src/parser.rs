//! A hand-rolled parser for rule/fact files.
//!
//! Syntax (see DESIGN.md §5):
//!
//! ```text
//! % a comment (also '#' and '//')
//! R(x,y), P(y,z) -> exists w. T(x,y,w).    % a TGD
//! T(x,y,z) -> S(y,x).                      % full TGD (no existentials)
//! R(a,b).                                  % a fact
//! ```
//!
//! Inside rules every bare identifier is a variable (TGDs are
//! constant-free, as in the paper); inside facts every identifier is a
//! constant. Each rule has its own variable scope, so parsed rule sets
//! are automatically variable-disjoint as the paper assumes.

use crate::atom::Atom;
use crate::error::CoreError;
use crate::ids::VarId;
use crate::instance::Instance;
use crate::term::Term;
use crate::tgd::{Tgd, TgdSet};
use crate::vocab::Vocabulary;

/// A parsed program: a set of TGDs plus a database of facts.
#[derive(Debug, Clone)]
pub struct Program {
    /// The rules, in file order.
    pub rules: Vec<Tgd>,
    /// The facts, as a database instance.
    pub database: Instance,
}

impl Program {
    /// Builds a validated [`TgdSet`] from the parsed rules.
    pub fn tgd_set(&self, vocab: &Vocabulary) -> Result<TgdSet, CoreError> {
        TgdSet::new(self.rules.clone(), vocab)
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    LParen,
    RParen,
    Comma,
    Arrow,
    Dot,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let b = *self.src.get(self.pos)?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn error(&self, message: impl Into<String>) -> CoreError {
        CoreError::Parse {
            line: self.line,
            column: self.col,
            message: message.into(),
        }
    }

    fn tokens(mut self) -> Result<Vec<Spanned>, CoreError> {
        let mut out = Vec::new();
        loop {
            // Skip whitespace and comments.
            loop {
                match self.peek() {
                    Some(b) if b.is_ascii_whitespace() => {
                        self.bump();
                    }
                    Some(b'%') | Some(b'#') => {
                        while let Some(b) = self.bump() {
                            if b == b'\n' {
                                break;
                            }
                        }
                    }
                    Some(b'/') if self.peek2() == Some(b'/') => {
                        while let Some(b) = self.bump() {
                            if b == b'\n' {
                                break;
                            }
                        }
                    }
                    _ => break,
                }
            }
            let (line, col) = (self.line, self.col);
            let Some(b) = self.peek() else { break };
            let tok = match b {
                b'(' => {
                    self.bump();
                    Tok::LParen
                }
                b')' => {
                    self.bump();
                    Tok::RParen
                }
                b',' => {
                    self.bump();
                    Tok::Comma
                }
                b'.' => {
                    self.bump();
                    Tok::Dot
                }
                b'-' => {
                    self.bump();
                    if self.peek() == Some(b'>') {
                        self.bump();
                        Tok::Arrow
                    } else {
                        return Err(self.error("expected '->'"));
                    }
                }
                b if b.is_ascii_alphanumeric() || b == b'_' => {
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b.is_ascii_alphanumeric() || b == b'_' || b == b'\'' {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    let text = std::str::from_utf8(&self.src[start..self.pos])
                        .map_err(|_| self.error("invalid utf-8 in identifier"))?;
                    Tok::Ident(text.to_string())
                }
                other => {
                    return Err(self.error(format!("unexpected character '{}'", other as char)))
                }
            };
            out.push(Spanned { tok, line, col });
        }
        Ok(out)
    }
}

struct Parser<'v> {
    toks: Vec<Spanned>,
    pos: usize,
    vocab: &'v mut Vocabulary,
}

/// A raw atom before variable/constant resolution.
struct RawAtom {
    pred: String,
    args: Vec<String>,
    line: usize,
    col: usize,
}

impl<'v> Parser<'v> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn here(&self) -> (usize, usize) {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|s| (s.line, s.col))
            .unwrap_or((0, 0))
    }

    fn error(&self, message: impl Into<String>) -> CoreError {
        let (line, column) = self.here();
        CoreError::Parse {
            line,
            column,
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<(), CoreError> {
        match self.bump() {
            Some(t) if t == tok => Ok(()),
            _ => Err(self.error(format!("expected {what}"))),
        }
    }

    fn raw_atom(&mut self) -> Result<RawAtom, CoreError> {
        let (line, col) = self.here();
        let pred = match self.bump() {
            Some(Tok::Ident(name)) => name,
            _ => return Err(self.error("expected a predicate name")),
        };
        self.expect(Tok::LParen, "'('")?;
        let mut args = Vec::new();
        loop {
            match self.bump() {
                Some(Tok::Ident(arg)) => args.push(arg),
                _ => return Err(self.error("expected a term")),
            }
            match self.bump() {
                Some(Tok::Comma) => continue,
                Some(Tok::RParen) => break,
                _ => return Err(self.error("expected ',' or ')'")),
            }
        }
        Ok(RawAtom {
            pred,
            args,
            line,
            col,
        })
    }

    fn raw_atom_list(&mut self) -> Result<Vec<RawAtom>, CoreError> {
        let mut atoms = vec![self.raw_atom()?];
        while self.peek() == Some(&Tok::Comma) {
            self.bump();
            atoms.push(self.raw_atom()?);
        }
        Ok(atoms)
    }

    /// Resolves a raw atom inside a rule: all arguments are variables
    /// in the per-rule `scope`.
    fn resolve_rule_atom(
        &mut self,
        raw: RawAtom,
        scope: &mut Vec<(String, VarId)>,
    ) -> Result<Atom, CoreError> {
        let pred = self
            .vocab
            .pred(&raw.pred, raw.args.len())
            .map_err(|e| self.rewrap_arity(e, raw.line, raw.col))?;
        let args = raw
            .args
            .into_iter()
            .map(|name| {
                let v = match scope.iter().find(|(n, _)| *n == name) {
                    Some((_, v)) => *v,
                    None => {
                        let v = self.vocab.fresh_var(&name);
                        scope.push((name, v));
                        v
                    }
                };
                Term::Var(v)
            })
            .collect::<crate::atom::ArgVec>();
        Ok(Atom::new(pred, args))
    }

    /// Resolves a raw atom as a fact: all arguments are constants.
    fn resolve_fact_atom(&mut self, raw: RawAtom) -> Result<Atom, CoreError> {
        let pred = self
            .vocab
            .pred(&raw.pred, raw.args.len())
            .map_err(|e| self.rewrap_arity(e, raw.line, raw.col))?;
        let args = raw
            .args
            .into_iter()
            .map(|name| Term::Const(self.vocab.constant(&name)))
            .collect::<crate::atom::ArgVec>();
        Ok(Atom::new(pred, args))
    }

    fn rewrap_arity(&self, e: CoreError, line: usize, col: usize) -> CoreError {
        match e {
            CoreError::ArityMismatch { .. }
            | CoreError::ZeroArity { .. }
            | CoreError::ArityTooLarge { .. } => CoreError::Parse {
                line,
                column: col,
                message: e.to_string(),
            },
            other => other,
        }
    }

    fn program(&mut self) -> Result<Program, CoreError> {
        let mut rules = Vec::new();
        let mut database = Instance::new();
        while self.peek().is_some() {
            let atoms = self.raw_atom_list()?;
            match self.peek() {
                Some(&Tok::Arrow) => {
                    self.bump();
                    let mut scope: Vec<(String, VarId)> = Vec::new();
                    let body = atoms
                        .into_iter()
                        .map(|raw| self.resolve_rule_atom(raw, &mut scope))
                        .collect::<Result<Vec<_>, _>>()?;
                    // Optional `exists v1, v2.` prefix.
                    let mut declared: Vec<String> = Vec::new();
                    if let Some(Tok::Ident(kw)) = self.peek() {
                        if kw == "exists" {
                            self.bump();
                            loop {
                                match self.bump() {
                                    Some(Tok::Ident(v)) => declared.push(v),
                                    _ => {
                                        return Err(self.error("expected a variable after 'exists'"))
                                    }
                                }
                                match self.bump() {
                                    Some(Tok::Comma) => continue,
                                    Some(Tok::Dot) => break,
                                    _ => {
                                        return Err(self.error("expected ',' or '.' in exists list"))
                                    }
                                }
                            }
                        }
                    }
                    let body_scope_len = scope.len();
                    let head_raw = self.raw_atom_list()?;
                    let head = head_raw
                        .into_iter()
                        .map(|raw| self.resolve_rule_atom(raw, &mut scope))
                        .collect::<Result<Vec<_>, _>>()?;
                    self.expect(Tok::Dot, "'.' at end of rule")?;
                    // Validate exists declarations: each declared
                    // variable must be head-only.
                    for name in &declared {
                        let in_body = scope[..body_scope_len].iter().any(|(n, _)| n == name);
                        let in_head = scope[body_scope_len..].iter().any(|(n, _)| n == name);
                        if in_body || !in_head {
                            return Err(CoreError::BadExistential {
                                variable: name.clone(),
                            });
                        }
                    }
                    rules.push(Tgd::new(body, head)?);
                }
                _ => {
                    // A fact statement: exactly one atom then '.'.
                    if atoms.len() != 1 {
                        return Err(self.error("expected '->' after atom list"));
                    }
                    self.expect(Tok::Dot, "'.' at end of fact")?;
                    let fact =
                        self.resolve_fact_atom(atoms.into_iter().next().expect("one atom"))?;
                    database.insert(fact);
                }
            }
        }
        Ok(Program { rules, database })
    }
}

/// Parses a program (rules and facts) from text.
pub fn parse_program(src: &str, vocab: &mut Vocabulary) -> Result<Program, CoreError> {
    let toks = Lexer::new(src).tokens()?;
    Parser {
        toks,
        pos: 0,
        vocab,
    }
    .program()
}

/// Parses rules only and returns them as a validated [`TgdSet`];
/// errors if the source contains facts.
pub fn parse_tgds(src: &str, vocab: &mut Vocabulary) -> Result<TgdSet, CoreError> {
    let program = parse_program(src, vocab)?;
    if !program.database.is_empty() {
        return Err(CoreError::Parse {
            line: 0,
            column: 0,
            message: "expected rules only, found facts".into(),
        });
    }
    program.tgd_set(vocab)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_intro_example() {
        let mut vocab = Vocabulary::new();
        let program = parse_program("R(a,b).\nR(x,y) -> exists z. R(x,z).", &mut vocab).unwrap();
        assert_eq!(program.rules.len(), 1);
        assert_eq!(program.database.len(), 1);
        let tgd = &program.rules[0];
        assert_eq!(tgd.frontier().len(), 1);
        assert_eq!(tgd.existentials().len(), 1);
        assert!(program.database.is_database());
    }

    #[test]
    fn parses_example_3_2() {
        // σ1..σ4 from Example 3.2 of the paper.
        let src = "
            % Example 3.2
            P(x1,y1) -> R(x1,y1).
            P(x2,y2) -> S(x2).
            R(x3,y3) -> S(x3).
            S(x4) -> exists y4. R(x4,y4).
            P(a,b).
        ";
        let mut vocab = Vocabulary::new();
        let program = parse_program(src, &mut vocab).unwrap();
        assert_eq!(program.rules.len(), 4);
        assert_eq!(program.database.len(), 1);
        let set = program.tgd_set(&vocab).unwrap();
        assert!(set.all_single_head());
        assert_eq!(set.max_arity(), 2);
    }

    #[test]
    fn exists_annotation_is_optional() {
        let mut vocab = Vocabulary::new();
        let p = parse_program("S(x) -> R(x,y).", &mut vocab).unwrap();
        assert_eq!(p.rules[0].existentials().len(), 1);
    }

    #[test]
    fn multi_head_rule_parses() {
        let mut vocab = Vocabulary::new();
        let p = parse_program("R(x,y,y) -> exists z. R(x,z,y), R(z,y,y).", &mut vocab).unwrap();
        assert_eq!(p.rules[0].head().len(), 2);
        assert!(!p.rules[0].is_single_head());
    }

    #[test]
    fn rules_are_variable_disjoint_automatically() {
        let mut vocab = Vocabulary::new();
        let p = parse_program("R(x,y) -> S(x). S(x) -> T(x).", &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn bad_existential_rejected() {
        let mut vocab = Vocabulary::new();
        let err = parse_program("R(x,y) -> exists x. S(x).", &mut vocab).unwrap_err();
        assert!(matches!(err, CoreError::BadExistential { .. }));
    }

    #[test]
    fn arity_conflict_reported_with_location() {
        let mut vocab = Vocabulary::new();
        let err = parse_program("R(x,y) -> S(x). S(a,b).", &mut vocab).unwrap_err();
        assert!(matches!(err, CoreError::Parse { .. }));
        assert!(err.to_string().contains("arity"));
    }

    #[test]
    fn fact_wider_than_u16_is_a_parse_error() {
        let args = vec!["a"; crate::vocab::MAX_ARITY + 1].join(",");
        let mut vocab = Vocabulary::new();
        let err = parse_program(&format!("R(b).\nW({args})."), &mut vocab).unwrap_err();
        match &err {
            CoreError::Parse { line, .. } => assert_eq!(*line, 2),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("arity 65536"), "{err}");
    }

    #[test]
    fn comments_and_whitespace_ignored() {
        let mut vocab = Vocabulary::new();
        let src = "% header\n# hash comment\n// slashes\nR(a,b). % trailing\n";
        let p = parse_program(src, &mut vocab).unwrap();
        assert_eq!(p.database.len(), 1);
    }

    #[test]
    fn syntax_errors_have_positions() {
        let mut vocab = Vocabulary::new();
        let err = parse_program("R(x,y -> S(x).", &mut vocab).unwrap_err();
        match err {
            CoreError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn parse_tgds_rejects_facts() {
        let mut vocab = Vocabulary::new();
        assert!(parse_tgds("R(a,b).", &mut vocab).is_err());
        assert!(parse_tgds("R(x,y) -> S(x).", &mut vocab).is_ok());
    }

    #[test]
    fn fact_with_repeated_constants() {
        let mut vocab = Vocabulary::new();
        let p = parse_program("R(a,a).", &mut vocab).unwrap();
        let atom = p.database.iter().next().unwrap();
        assert_eq!(atom.args[0], atom.args[1]);
    }
}
