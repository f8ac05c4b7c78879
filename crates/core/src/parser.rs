//! A hand-rolled, single-pass parser for rule/fact files.
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
//!
//! The source is read once, front to back, with one token of
//! lookahead. Tokens are spans of the source, names are interned
//! straight from them, and a statement's atoms live in buffers reused
//! by the next statement, so a fact costs no allocation of its own.
//! Names are interned in source order (predicate, then arguments, one
//! statement at a time), which fixes every `PredId` and `ConstId`.
//!
//! Errors: a lexical error (a stray character, `-` without `>`)
//! anywhere in the source outranks any other error; otherwise the
//! first error in source order wins, with an atom list's syntax checked
//! before its names are resolved. Positions are a 1-based line and a
//! 1-based byte column, computed only when an error is built.

use crate::atom::{ArgVec, Atom};
use crate::error::CoreError;
use crate::ids::{PredId, VarId};
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

/// A token. An identifier is a span of the source, never a copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'a> {
    Ident(&'a str),
    LParen,
    RParen,
    Comma,
    Arrow,
    Dot,
}

/// A token and the byte offset it starts at.
#[derive(Debug, Clone, Copy)]
struct Token<'a> {
    tok: Tok<'a>,
    start: usize,
}

/// The 1-based line and byte column of `offset` in `src`: line is one
/// more than the newlines before it, column one more than the bytes
/// since the last of them. Only error paths compute it.
fn line_col(src: &str, offset: usize) -> (usize, usize) {
    let before = &src.as_bytes()[..offset];
    let line_start = before
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
    (line, 1 + offset - line_start)
}

#[cold]
fn error_at(src: &str, offset: usize, message: impl Into<String>) -> CoreError {
    let (line, column) = line_col(src, offset);
    CoreError::Parse {
        line,
        column,
        message: message.into(),
    }
}

#[cold]
fn unexpected_character(src: &str, offset: usize, byte: u8) -> CoreError {
    error_at(
        src,
        offset,
        format!("unexpected character '{}'", byte as char),
    )
}

/// Pulls tokens off the source one at a time. A lexical error leaves
/// the lexer on the offending byte, so lexing on reports it again.
#[derive(Clone)]
struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Skips whitespace and comments (`%`, `#` and `//`, each up to
    /// and including the end of its line).
    fn skip_trivia(&mut self) {
        let bytes = self.src.as_bytes();
        loop {
            match bytes.get(self.pos) {
                Some(b) if b.is_ascii_whitespace() => self.pos += 1,
                Some(b'%' | b'#') => self.skip_line(),
                Some(b'/') if bytes.get(self.pos + 1) == Some(&b'/') => self.skip_line(),
                _ => return,
            }
        }
    }

    fn skip_line(&mut self) {
        let rest = &self.src.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rest.len(), |i| i + 1);
    }

    /// The next token, or `None` at the end of the source.
    fn next_token(&mut self) -> Result<Option<Token<'a>>, CoreError> {
        self.skip_trivia();
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let Some(&b) = bytes.get(start) else {
            return Ok(None);
        };
        self.pos += 1;
        let tok = match b {
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b',' => Tok::Comma,
            b'.' => Tok::Dot,
            b'-' if bytes.get(self.pos) == Some(&b'>') => {
                self.pos += 1;
                Tok::Arrow
            }
            b'-' => {
                self.pos = start;
                return Err(error_at(self.src, start + 1, "expected '->'"));
            }
            b if b.is_ascii_alphanumeric() || b == b'_' => {
                while bytes
                    .get(self.pos)
                    .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_' || b == b'\'')
                {
                    self.pos += 1;
                }
                Tok::Ident(&self.src[start..self.pos])
            }
            other => {
                self.pos = start;
                return Err(unexpected_character(self.src, start, other));
            }
        };
        Ok(Some(Token { tok, start }))
    }

    /// The first lexical error from here to the end of the source.
    /// Lexical errors outrank every other error, wherever they occur.
    fn first_error(mut self) -> Option<CoreError> {
        loop {
            match self.next_token() {
                Ok(Some(_)) => {}
                Ok(None) => return None,
                Err(e) => return Some(e),
            }
        }
    }
}

/// An atom before its names are resolved: spans of the source, its
/// arguments a range of [`Parser::args`].
#[derive(Clone, Copy)]
struct RawAtom<'a> {
    pred: &'a str,
    start: usize,
    args: (usize, usize),
}

/// A single streaming pass: one token of lookahead, atom lists parsed
/// into reused span buffers, each list resolved against the vocabulary
/// once its syntax is known to be right.
struct Parser<'a, 'v> {
    lexer: Lexer<'a>,
    look: Option<Token<'a>>,
    /// Start of the most recently lexed token: the lookahead, or the
    /// last token of the source once the lookahead is exhausted.
    /// Syntax errors are reported here (only ever after a token).
    last_start: usize,
    vocab: &'v mut Vocabulary,
    /// The predicate interned last: name, arity and id.
    last_pred: Option<(&'a str, usize, PredId)>,
    atoms: Vec<RawAtom<'a>>,
    args: Vec<&'a str>,
    scope: Vec<(&'a str, VarId)>,
    declared: Vec<&'a str>,
    fact_args: ArgVec,
}

impl<'a, 'v> Parser<'a, 'v> {
    fn new(src: &'a str, vocab: &'v mut Vocabulary) -> Result<Self, CoreError> {
        let mut parser = Parser {
            lexer: Lexer { src, pos: 0 },
            look: None,
            last_start: 0,
            vocab,
            last_pred: None,
            atoms: Vec::new(),
            args: Vec::new(),
            scope: Vec::new(),
            declared: Vec::new(),
            fact_args: ArgVec::new(),
        };
        parser.advance()?;
        Ok(parser)
    }

    /// Lexes the next lookahead token.
    fn advance(&mut self) -> Result<(), CoreError> {
        self.look = self.lexer.next_token()?;
        if let Some(t) = self.look {
            self.last_start = t.start;
        }
        Ok(())
    }

    fn peek(&self) -> Option<Tok<'a>> {
        self.look.map(|t| t.tok)
    }

    fn bump(&mut self) -> Result<Option<Token<'a>>, CoreError> {
        let t = self.look;
        if t.is_some() {
            self.advance()?;
        }
        Ok(t)
    }

    #[cold]
    fn error(&self, message: impl Into<String>) -> CoreError {
        error_at(self.lexer.src, self.last_start, message)
    }

    fn expect(&mut self, tok: Tok<'_>, what: &str) -> Result<(), CoreError> {
        match self.bump()? {
            Some(t) if t.tok == tok => Ok(()),
            _ => Err(self.error(format!("expected {what}"))),
        }
    }

    fn raw_atom(&mut self) -> Result<(), CoreError> {
        let (pred, start) = match self.bump()? {
            Some(Token {
                tok: Tok::Ident(name),
                start,
            }) => (name, start),
            _ => return Err(self.error("expected a predicate name")),
        };
        self.expect(Tok::LParen, "'('")?;
        let first = self.args.len();
        loop {
            match self.bump()? {
                Some(Token {
                    tok: Tok::Ident(arg),
                    ..
                }) => self.args.push(arg),
                _ => return Err(self.error("expected a term")),
            }
            match self.bump()?.map(|t| t.tok) {
                Some(Tok::Comma) => continue,
                Some(Tok::RParen) => break,
                _ => return Err(self.error("expected ',' or ')'")),
            }
        }
        self.atoms.push(RawAtom {
            pred,
            start,
            args: (first, self.args.len()),
        });
        Ok(())
    }

    /// Parses a comma-separated atom list into `atoms`/`args`.
    fn raw_atom_list(&mut self) -> Result<(), CoreError> {
        self.atoms.clear();
        self.args.clear();
        self.raw_atom()?;
        while self.peek() == Some(Tok::Comma) {
            self.bump()?;
            self.raw_atom()?;
        }
        Ok(())
    }

    /// Interns a raw atom's predicate at its arity, reporting an arity
    /// error at the predicate's position.
    fn pred(&mut self, raw: RawAtom<'a>) -> Result<PredId, CoreError> {
        let arity = raw.args.1 - raw.args.0;
        // Facts of one predicate tend to come in runs.
        if let Some((name, known, id)) = self.last_pred {
            if name == raw.pred && known == arity {
                return Ok(id);
            }
        }
        let id = self.vocab.pred(raw.pred, arity).map_err(|e| match e {
            CoreError::ArityMismatch { .. }
            | CoreError::ZeroArity { .. }
            | CoreError::ArityTooLarge { .. } => error_at(self.lexer.src, raw.start, e.to_string()),
            other => other,
        })?;
        self.last_pred = Some((raw.pred, arity, id));
        Ok(id)
    }

    /// Resolves the parsed atom list inside a rule: every argument is
    /// a variable of the rule's `scope`.
    fn resolve_rule_atoms(&mut self) -> Result<Vec<Atom>, CoreError> {
        let mut out = Vec::with_capacity(self.atoms.len());
        for i in 0..self.atoms.len() {
            let raw = self.atoms[i];
            let pred = self.pred(raw)?;
            let mut args = ArgVec::new();
            for &name in &self.args[raw.args.0..raw.args.1] {
                let v = match self.scope.iter().find(|(n, _)| *n == name) {
                    Some(&(_, v)) => v,
                    None => {
                        let v = self.vocab.fresh_var(name);
                        self.scope.push((name, v));
                        v
                    }
                };
                args.push(Term::Var(v));
            }
            out.push(Atom::new(pred, args));
        }
        Ok(out)
    }

    /// Resolves the parsed single-atom list as a fact: every argument
    /// is a constant.
    fn resolve_fact(&mut self) -> Result<Atom, CoreError> {
        let raw = self.atoms[0];
        let pred = self.pred(raw)?;
        self.fact_args.clear();
        for &name in &self.args[raw.args.0..raw.args.1] {
            self.fact_args.push(Term::Const(self.vocab.constant(name)));
        }
        Ok(Atom::new(pred, self.fact_args.clone()))
    }

    /// The rest of a rule, after its body atom list and `->`.
    fn rule(&mut self) -> Result<Tgd, CoreError> {
        self.scope.clear();
        let body = self.resolve_rule_atoms()?;
        // Optional `exists v1, v2.` prefix.
        self.declared.clear();
        if self.peek() == Some(Tok::Ident("exists")) {
            self.bump()?;
            loop {
                match self.bump()?.map(|t| t.tok) {
                    Some(Tok::Ident(v)) => self.declared.push(v),
                    _ => return Err(self.error("expected a variable after 'exists'")),
                }
                match self.bump()?.map(|t| t.tok) {
                    Some(Tok::Comma) => continue,
                    Some(Tok::Dot) => break,
                    _ => return Err(self.error("expected ',' or '.' in exists list")),
                }
            }
        }
        let body_scope_len = self.scope.len();
        self.raw_atom_list()?;
        let head = self.resolve_rule_atoms()?;
        self.expect(Tok::Dot, "'.' at end of rule")?;
        // Each declared variable must be head-only.
        let (body_scope, head_scope) = self.scope.split_at(body_scope_len);
        for &name in &self.declared {
            let in_body = body_scope.iter().any(|(n, _)| *n == name);
            let in_head = head_scope.iter().any(|(n, _)| *n == name);
            if in_body || !in_head {
                return Err(CoreError::BadExistential {
                    variable: name.to_string(),
                });
            }
        }
        Tgd::new(body, head)
    }

    fn program(&mut self) -> Result<Program, CoreError> {
        let mut rules = Vec::new();
        let mut database = Instance::new();
        while self.look.is_some() {
            self.raw_atom_list()?;
            if self.peek() == Some(Tok::Arrow) {
                self.bump()?;
                rules.push(self.rule()?);
            } else {
                // A fact statement: exactly one atom then '.'.
                if self.atoms.len() != 1 {
                    return Err(self.error("expected '->' after atom list"));
                }
                self.expect(Tok::Dot, "'.' at end of fact")?;
                database.insert(self.resolve_fact()?);
            }
        }
        Ok(Program { rules, database })
    }
}

/// Parses a program (rules and facts) from text.
pub fn parse_program(src: &str, vocab: &mut Vocabulary) -> Result<Program, CoreError> {
    let mut parser = Parser::new(src, vocab)?;
    parser
        .program()
        .map_err(|e| parser.lexer.clone().first_error().unwrap_or(e))
}

/// Parses rules only and returns them as a validated [`TgdSet`];
/// errors if the source contains facts.
pub fn parse_tgds(src: &str, vocab: &mut Vocabulary) -> Result<TgdSet, CoreError> {
    let Program { rules, database } = parse_program(src, vocab)?;
    if !database.is_empty() {
        return Err(CoreError::Parse {
            line: 0,
            column: 0,
            message: "expected rules only, found facts".into(),
        });
    }
    TgdSet::new(rules, vocab)
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
    fn lexical_errors_outrank_earlier_errors() {
        let mut vocab = Vocabulary::new();
        let err = parse_program("R(a,b).\nR(a).\nR(c) -", &mut vocab).unwrap_err();
        assert_eq!(
            err,
            CoreError::Parse {
                line: 3,
                column: 7,
                message: "expected '->'".into(),
            }
        );
    }

    #[test]
    fn positions_count_bytes_from_the_last_newline() {
        // The CR is a byte of line 1; a two-byte char is two columns.
        assert_eq!(line_col("R(a).\r\nS(\u{e9}", 9), (2, 3));
        assert_eq!(line_col("R(a).\r\nS(\u{e9}", 11), (2, 5));
        assert_eq!(line_col("abc", 0), (1, 1));
        assert_eq!(line_col("a\n\nb", 3), (3, 1));
    }

    #[test]
    fn fact_with_repeated_constants() {
        let mut vocab = Vocabulary::new();
        let p = parse_program("R(a,a).", &mut vocab).unwrap();
        let atom = p.database.iter().next().unwrap();
        assert_eq!(atom.args[0], atom.args[1]);
    }
}
