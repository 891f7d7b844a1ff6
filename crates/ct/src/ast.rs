//! A lightweight Rust AST and recursive-descent parser.
//!
//! This is **not** a general Rust front end: it parses the subset of the
//! language the workspace's cipher crates use (items, impl blocks, the
//! ordinary statement/expression grammar, patterns, closures, macros) with
//! enough fidelity for a source-level taint dataflow. Constructs the
//! analyzer does not model (generics bounds, where-clauses, trait bodies
//! without defaults) are skipped over, never guessed at. Parse errors are
//! reported with line numbers so an unsupported construct fails loudly
//! rather than silently dropping code from the analysis.

use crate::lexer::{lex, Lexed, Token, TokenKind};
use std::collections::BTreeMap;
use std::fmt;

/// A parse error with its source line.
#[derive(Clone, Debug)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// 1-based line.
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A parsed source file (one analysis module).
#[derive(Clone, Debug, Default)]
pub struct SourceFile {
    /// Free functions and methods, in source order. Methods carry the impl
    /// type in [`Func::qual`].
    pub functions: Vec<Func>,
    /// `const` / `static` definitions (used for the table-size registry).
    pub consts: Vec<ConstDef>,
    /// Struct and enum definitions with their field type texts.
    pub structs: Vec<StructDef>,
    /// `line -> reason` suppression comments from the lexer.
    pub allows: BTreeMap<u32, String>,
    /// `line -> reason` determinism-suppression comments from the lexer.
    pub det_allows: BTreeMap<u32, String>,
    /// Lines carrying a `// ct-secret` annotation.
    pub secret_marks: BTreeMap<u32, String>,
}

/// One function or method.
#[derive(Clone, Debug)]
pub struct Func {
    /// Bare name (`encrypt_with`).
    pub name: String,
    /// Impl type for methods (`TableGift64`), `None` for free functions.
    pub qual: Option<String>,
    /// Parameters in order; a `self` receiver is `params[0]` with
    /// `is_self == true`.
    pub params: Vec<Param>,
    /// Return type text, if any.
    pub ret_ty: Option<String>,
    /// The body.
    pub body: Block,
    /// Line of the `fn` keyword.
    pub line: u32,
}

impl Func {
    /// `Type::name` for methods, `name` for free functions.
    pub fn qualified_name(&self) -> String {
        match &self.qual {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One function parameter.
#[derive(Clone, Debug)]
pub struct Param {
    /// Binding name (`None` for `_` or destructured patterns).
    pub name: Option<String>,
    /// Type text (`&mut dyn MemoryObserver`); for `self` receivers this is
    /// the impl type.
    pub ty: String,
    /// Whether this is a `self` receiver.
    pub is_self: bool,
}

/// A `const` or `static` item.
#[derive(Clone, Debug)]
pub struct ConstDef {
    /// Item name.
    pub name: String,
    /// Element type for array types (`u8` in `[u8; 16]`).
    pub elem_ty: Option<String>,
    /// Array length: resolved integer, or a named const to resolve later.
    pub len: Option<ConstLen>,
    /// Scalar integer value when the initializer is a literal (used to
    /// resolve named lengths such as `MAX_ROUNDS`).
    pub value: Option<u128>,
    /// Definition line.
    pub line: u32,
}

/// An array length that may reference a named const.
#[derive(Clone, Debug)]
pub enum ConstLen {
    /// Literal length.
    Lit(u128),
    /// Named const (resolved against the crate-wide scalar-const map).
    Named(String),
}

/// A struct or enum definition.
#[derive(Clone, Debug)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// `(field name, field type text)`; enum variant payloads appear as
    /// fields named after the variant.
    pub fields: Vec<(String, String)>,
}

/// A block `{ ... }` of statements; a trailing expression without `;` is
/// the block's value.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Trailing value expression, if present.
    pub tail: Option<Box<Expr>>,
}

/// One statement.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// `let pat: ty = init;`
    Let {
        /// Binding pattern.
        pat: Pat,
        /// Type ascription text.
        ty: Option<String>,
        /// Initializer.
        init: Option<Expr>,
        /// Source line.
        line: u32,
    },
    /// An expression statement (`expr;` or a block-like expr).
    Expr(Expr),
    /// A nested item the analyzer ignores (nested `fn`, `use`, …).
    Item,
}

/// One expression. Lines are carried where findings may anchor.
#[derive(Clone, Debug)]
pub enum Expr {
    /// Literal (number, string, char, bool is an ident-path).
    Lit,
    /// Path: `x`, `a::b::C`, `self`.
    Path(Vec<String>, u32),
    /// Unary `!`/`-`/`*`/`&`/`&mut`.
    Unary(Box<Expr>),
    /// Binary operation.
    Binary(&'static str, Box<Expr>, Box<Expr>, u32),
    /// Assignment or compound assignment.
    Assign(&'static str, Box<Expr>, Box<Expr>, u32),
    /// `expr as Type` (type dropped; casts preserve taint).
    Cast(Box<Expr>),
    /// `expr.field`.
    Field(Box<Expr>, String, u32),
    /// `expr.0`.
    TupleField(Box<Expr>, u32),
    /// `expr[index]`.
    Index(Box<Expr>, Box<Expr>, u32),
    /// `callee(args)`.
    Call(Box<Expr>, Vec<Expr>, u32),
    /// `recv.method::<T>(args)` — turbofish type idents are kept so type
    /// ascriptions through `collect::<BTreeMap<_, _>>()` stay visible.
    MethodCall(Box<Expr>, String, Vec<String>, Vec<Expr>, u32),
    /// `name!(args)` — args parsed best-effort as expressions.
    Macro(String, Vec<Expr>, u32),
    /// `(a, b, …)`; 1-tuples are plain parens.
    Tuple(Vec<Expr>),
    /// `[a, b]` or `[elem; n]`.
    Array(Vec<Expr>),
    /// `Path { field: expr, … }`.
    StructLit(Vec<String>, Vec<(String, Expr)>, u32),
    /// `a..b`, `..b`, `a..`.
    Range(Option<Box<Expr>>, Option<Box<Expr>>, u32),
    /// `if cond { .. } else ..` (cond is a pattern-match for `if let`).
    If {
        /// Condition (for `if let`, the matched expression).
        cond: Box<Expr>,
        /// Pattern for `if let`.
        pat: Option<Pat>,
        /// Then-block.
        then_block: Block,
        /// `else` expression (a Block or another If).
        else_expr: Option<Box<Expr>>,
        /// Line of the `if`.
        line: u32,
    },
    /// `match scrutinee { arms }`.
    Match {
        /// Matched expression.
        scrutinee: Box<Expr>,
        /// `(pattern, guard, body)` per arm.
        arms: Vec<(Pat, Option<Expr>, Expr)>,
        /// Line of the `match`.
        line: u32,
    },
    /// Plain block expression.
    Block(Block),
    /// `for pat in iter { body }`.
    For {
        /// Loop pattern.
        pat: Pat,
        /// Iterated expression.
        iter: Box<Expr>,
        /// Body.
        body: Block,
        /// Line of the `for`.
        line: u32,
    },
    /// `while cond { body }` (cond is the matched expr for `while let`).
    While {
        /// Condition.
        cond: Box<Expr>,
        /// Pattern for `while let`.
        pat: Option<Pat>,
        /// Body.
        body: Block,
        /// Line of the `while`.
        line: u32,
    },
    /// `loop { body }`.
    Loop(Block),
    /// `|params| body` (optionally `move`).
    Closure {
        /// Parameter patterns.
        params: Vec<Pat>,
        /// Body expression.
        body: Box<Expr>,
    },
    /// `return expr?`.
    Return(Option<Box<Expr>>, u32),
    /// `break expr?` / `continue`.
    Jump(Option<Box<Expr>>, u32),
    /// `expr?`.
    Try(Box<Expr>),
}

impl Expr {
    /// The line this expression anchors to, when known.
    pub fn line(&self) -> Option<u32> {
        match self {
            Expr::Path(_, l)
            | Expr::Binary(_, _, _, l)
            | Expr::Assign(_, _, _, l)
            | Expr::Field(_, _, l)
            | Expr::TupleField(_, l)
            | Expr::Index(_, _, l)
            | Expr::Call(_, _, l)
            | Expr::MethodCall(_, _, _, _, l)
            | Expr::Macro(_, _, l)
            | Expr::StructLit(_, _, l)
            | Expr::Range(_, _, l)
            | Expr::If { line: l, .. }
            | Expr::Match { line: l, .. }
            | Expr::For { line: l, .. }
            | Expr::While { line: l, .. }
            | Expr::Return(_, l)
            | Expr::Jump(_, l) => Some(*l),
            Expr::Unary(e) | Expr::Cast(e) | Expr::Try(e) => e.line(),
            _ => None,
        }
    }
}

/// One pattern.
#[derive(Clone, Debug)]
pub enum Pat {
    /// `_`, literals, `..`, and anything else that binds nothing.
    Wild,
    /// A binding identifier (`x`, `mut x`, `ref x`).
    Ident(String, u32),
    /// `(p, q)`.
    Tuple(Vec<Pat>),
    /// `Path(p, q)` tuple-struct / enum-variant pattern.
    TupleStruct(Vec<String>, Vec<Pat>),
    /// `Path { field: pat, … }`.
    Struct(Vec<String>, Vec<(String, Pat)>),
    /// `&p` / `&mut p`.
    Ref(Box<Pat>),
    /// `[p, q]`.
    Slice(Vec<Pat>),
    /// `p | q`.
    Or(Vec<Pat>),
    /// `name @ p`: binds `name` and whatever `p` binds.
    At(String, u32, Box<Pat>),
}

impl Pat {
    /// Collects every identifier the pattern binds.
    pub fn bindings(&self) -> Vec<(String, u32)> {
        let mut out = Vec::new();
        self.collect_bindings(&mut out);
        out
    }

    fn collect_bindings(&self, out: &mut Vec<(String, u32)>) {
        match self {
            Pat::Wild => {}
            Pat::Ident(name, line) => out.push((name.clone(), *line)),
            Pat::Tuple(ps) | Pat::Slice(ps) | Pat::Or(ps) => {
                for p in ps {
                    p.collect_bindings(out);
                }
            }
            Pat::TupleStruct(_, ps) => {
                for p in ps {
                    p.collect_bindings(out);
                }
            }
            Pat::Struct(_, fields) => {
                for (_, p) in fields {
                    p.collect_bindings(out);
                }
            }
            Pat::Ref(p) => p.collect_bindings(out),
            Pat::At(name, line, p) => {
                out.push((name.clone(), *line));
                p.collect_bindings(out);
            }
        }
    }
}

/// Parses one source file.
pub fn parse_file(src: &str) -> Result<SourceFile, ParseError> {
    let lexed: Lexed = lex(src).map_err(|e| ParseError {
        message: e.message,
        line: e.line,
    })?;
    let mut parser = Parser {
        tokens: lexed.tokens,
        pos: 0,
    };
    let mut file = SourceFile {
        allows: lexed.allows,
        det_allows: lexed.det_allows,
        secret_marks: lexed.secret_marks,
        ..SourceFile::default()
    };
    parser.parse_items(&mut file, None)?;
    Ok(file)
}

const KEYWORD_NON_BINDING: &[&str] = &["true", "false"];

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    // ---- token cursor -------------------------------------------------

    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn peek_at(&self, ahead: usize) -> Option<&TokenKind> {
        self.tokens.get(self.pos + ahead).map(|t| &t.kind)
    }

    fn line(&self) -> u32 {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map_or(0, |t| t.line)
    }

    fn bump(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos).map(|t| t.kind.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_punct(&self, p: &str) -> bool {
        self.peek().is_some_and(|t| t.is_punct(p))
    }

    fn at_kw(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.is_kw(kw))
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.at_punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.error(&format!("expected `{p}`")))
        }
    }

    fn at_open(&self, c: char) -> bool {
        matches!(self.peek(), Some(TokenKind::Open(o)) if *o == c)
    }

    fn at_close(&self, c: char) -> bool {
        matches!(self.peek(), Some(TokenKind::Close(o)) if *o == c)
    }

    fn eat_open(&mut self, c: char) -> bool {
        if self.at_open(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_close(&mut self, c: char) -> bool {
        if self.at_close(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_open(&mut self, c: char) -> Result<(), ParseError> {
        if self.eat_open(c) {
            Ok(())
        } else {
            Err(self.error(&format!("expected `{c}`")))
        }
    }

    fn expect_close(&mut self, c: char) -> Result<(), ParseError> {
        if self.eat_close(c) {
            Ok(())
        } else {
            Err(self.error(&format!("expected closing `{c}`")))
        }
    }

    fn error(&self, message: &str) -> ParseError {
        let found = self
            .peek()
            .map_or_else(|| "end of input".to_string(), |t| t.to_string());
        ParseError {
            message: format!("{message}, found {found}"),
            line: self.line(),
        }
    }

    /// Skips a balanced delimiter group whose opener is the current token.
    fn skip_group(&mut self) -> Result<(), ParseError> {
        let Some(TokenKind::Open(_)) = self.peek() else {
            return Err(self.error("expected a delimiter group"));
        };
        let mut depth = 0usize;
        loop {
            match self.bump() {
                Some(TokenKind::Open(_)) => depth += 1,
                Some(TokenKind::Close(_)) => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(());
                    }
                }
                Some(_) => {}
                None => return Err(self.error("unbalanced delimiters")),
            }
        }
    }

    /// Skips `<...>` generics, treating `>>` as two closers.
    fn skip_generics(&mut self) -> Result<(), ParseError> {
        if !self.at_punct("<") {
            return Ok(());
        }
        let mut depth = 0i32;
        loop {
            if self.at_punct("<") {
                depth += 1;
                self.pos += 1;
            } else if self.at_punct(">") {
                depth -= 1;
                self.pos += 1;
            } else if self.at_punct(">>") {
                depth -= 2;
                self.pos += 1;
            } else if self.at_punct("<<") {
                depth += 2;
                self.pos += 1;
            } else if matches!(self.peek(), Some(TokenKind::Open(_))) {
                self.skip_group()?;
            } else if self.bump().is_none() {
                return Err(self.error("unbalanced generics"));
            }
            if depth <= 0 {
                return Ok(());
            }
        }
    }

    // ---- types --------------------------------------------------------

    /// Consumes a type and returns its token text (space-joined idents and
    /// punctuation). Stops at a depth-0 `,` `;` `=` `{` `)` `>` or `where`.
    fn parse_type_text(&mut self) -> Result<String, ParseError> {
        let mut parts: Vec<String> = Vec::new();
        let mut angle = 0i32;
        loop {
            if angle == 0 {
                let stop = match self.peek() {
                    None => true,
                    Some(k) => {
                        k.is_punct(",")
                            || k.is_punct(";")
                            || k.is_punct("=")
                            || k.is_punct("=>")
                            || k.is_punct("|")
                            || k.is_kw("where")
                            || k.is_kw("for")
                            || k.is_kw("in")
                            || matches!(k, TokenKind::Open('{'))
                            || matches!(k, TokenKind::Close(_))
                    }
                };
                if stop {
                    break;
                }
            }
            match self.peek() {
                Some(TokenKind::Punct("<")) => {
                    angle += 1;
                    parts.push("<".into());
                    self.pos += 1;
                }
                Some(TokenKind::Punct(">")) => {
                    if angle == 0 {
                        break;
                    }
                    angle -= 1;
                    parts.push(">".into());
                    self.pos += 1;
                }
                Some(TokenKind::Punct(">>")) => {
                    if angle == 0 {
                        break;
                    }
                    angle -= 2;
                    parts.push(">>".into());
                    self.pos += 1;
                }
                Some(TokenKind::Open(c)) => {
                    // Tuple, slice or fn-pointer types: capture idents inside.
                    let c = *c;
                    let mut inner = Vec::new();
                    let mut depth = 0usize;
                    loop {
                        match self.bump() {
                            Some(TokenKind::Open(_)) => depth += 1,
                            Some(TokenKind::Close(_)) => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            Some(TokenKind::Ident(s)) => inner.push(s),
                            Some(TokenKind::Int(Some(v))) => inner.push(v.to_string()),
                            Some(_) => {}
                            None => return Err(self.error("unbalanced type")),
                        }
                    }
                    parts.push(format!("{c}{}{}", inner.join(" "), matching(c)));
                }
                Some(TokenKind::Ident(s)) => {
                    parts.push(s.clone());
                    self.pos += 1;
                }
                Some(TokenKind::Lifetime(_)) => {
                    self.pos += 1;
                }
                Some(TokenKind::Int(Some(v))) => {
                    parts.push(v.to_string());
                    self.pos += 1;
                }
                Some(_) => {
                    if let Some(TokenKind::Punct(p)) = self.bump() {
                        parts.push(p.to_string());
                    }
                }
                None => break,
            }
        }
        Ok(parts.join(" "))
    }

    // ---- items --------------------------------------------------------

    fn parse_items(&mut self, file: &mut SourceFile, qual: Option<&str>) -> Result<(), ParseError> {
        let mut skip_next = false;
        loop {
            // End of container.
            if self.peek().is_none() || self.at_close('}') {
                return Ok(());
            }
            // Attributes.
            if self.at_punct("#") {
                let attr_is_test = self.attr_is_cfg_test()?;
                skip_next = skip_next || attr_is_test;
                continue;
            }
            // Visibility.
            if self.eat_kw("pub") {
                if self.at_open('(') {
                    self.skip_group()?;
                }
                continue;
            }
            if skip_next {
                self.skip_item()?;
                skip_next = false;
                continue;
            }
            if self.at_kw("fn")
                || (self.at_kw("const") && self.peek_at(1).is_some_and(|t| t.is_kw("fn")))
                || (self.at_kw("unsafe") && self.peek_at(1).is_some_and(|t| t.is_kw("fn")))
            {
                self.eat_kw("const");
                self.eat_kw("unsafe");
                let func = self.parse_fn(qual)?;
                if let Some(f) = func {
                    file.functions.push(f);
                }
                continue;
            }
            if self.at_kw("const") || self.at_kw("static") {
                self.parse_const(file)?;
                continue;
            }
            if self.at_kw("use") || self.at_kw("extern") {
                self.skip_to_semi()?;
                continue;
            }
            if self.at_kw("mod") {
                self.bump();
                self.bump(); // name
                if self.at_punct(";") {
                    self.bump();
                } else {
                    self.expect_open('{')?;
                    self.parse_items(file, qual)?;
                    self.expect_close('}')?;
                }
                continue;
            }
            if self.at_kw("struct") || self.at_kw("enum") || self.at_kw("union") {
                self.parse_struct_or_enum(file)?;
                continue;
            }
            if self.at_kw("impl")
                || (self.at_kw("unsafe") && self.peek_at(1).is_some_and(|t| t.is_kw("impl")))
            {
                self.eat_kw("unsafe");
                self.bump();
                self.skip_generics()?;
                let first = self.parse_type_text()?;
                let ty = if self.eat_kw("for") {
                    self.parse_type_text()?
                } else {
                    first
                };
                let name = last_type_ident(&ty);
                self.expect_open('{')?;
                self.parse_items(file, Some(&name))?;
                self.expect_close('}')?;
                continue;
            }
            if self.at_kw("trait") {
                self.bump();
                self.bump(); // name
                self.skip_generics()?;
                // Supertraits / where clause up to the body.
                while !self.at_open('{') && self.peek().is_some() {
                    self.bump();
                }
                // Trait bodies: default methods would be analyzable, but no
                // crate in this workspace relies on them for cipher logic.
                self.skip_group()?;
                continue;
            }
            if self.at_kw("type") {
                self.skip_to_semi()?;
                continue;
            }
            if self.at_kw("macro_rules") {
                self.bump();
                self.expect_punct("!")?;
                self.bump(); // name
                self.skip_group()?;
                continue;
            }
            // Item-level macro invocations: `thread_local! { ... }`,
            // `impl_standard_int!(u8, u16);` — opaque to the analysis.
            if matches!(self.peek(), Some(TokenKind::Ident(_))) {
                let save = self.pos;
                let mut is_macro = false;
                while matches!(self.peek(), Some(TokenKind::Ident(_))) {
                    self.bump();
                    if self.eat_punct("!") {
                        is_macro = true;
                        break;
                    }
                    if !self.eat_punct("::") {
                        break;
                    }
                }
                if is_macro && matches!(self.peek(), Some(TokenKind::Open(_))) {
                    self.skip_group()?;
                    self.eat_punct(";");
                    continue;
                }
                self.pos = save;
            }
            return Err(self.error("unsupported item"));
        }
    }

    /// Consumes `#[...]`, returning whether it contains `cfg(test)`.
    fn attr_is_cfg_test(&mut self) -> Result<bool, ParseError> {
        self.expect_punct("#")?;
        self.eat_punct("!");
        let start = self.pos;
        self.skip_group()?;
        let mut saw_cfg = false;
        let mut saw_test = false;
        for t in &self.tokens[start..self.pos] {
            match &t.kind {
                TokenKind::Ident(s) if s == "cfg" => saw_cfg = true,
                TokenKind::Ident(s) if s == "test" => saw_test = true,
                _ => {}
            }
        }
        Ok(saw_cfg && saw_test)
    }

    /// Skips one item after a `#[cfg(test)]` attribute.
    fn skip_item(&mut self) -> Result<(), ParseError> {
        // Consume leading keywords until the item's body or terminator.
        loop {
            if self.at_open('{') {
                return self.skip_group();
            }
            if self.at_punct(";") {
                self.bump();
                return Ok(());
            }
            if matches!(self.peek(), Some(TokenKind::Open(_))) {
                self.skip_group()?;
                continue;
            }
            if self.bump().is_none() {
                return Ok(());
            }
        }
    }

    fn skip_to_semi(&mut self) -> Result<(), ParseError> {
        loop {
            if self.at_punct(";") {
                self.bump();
                return Ok(());
            }
            if matches!(self.peek(), Some(TokenKind::Open(_))) {
                self.skip_group()?;
                continue;
            }
            if self.bump().is_none() {
                return Ok(());
            }
        }
    }

    fn parse_const(&mut self, file: &mut SourceFile) -> Result<(), ParseError> {
        let line = self.line();
        self.bump(); // const/static
        self.eat_kw("mut");
        let Some(TokenKind::Ident(name)) = self.bump() else {
            return Err(self.error("expected const name"));
        };
        self.expect_punct(":")?;
        // Array type `[elem; len]`?
        let (elem_ty, len) = if self.at_open('[') {
            self.bump();
            // Element type up to the depth-0 `;` — `u8`, `& str`, `( u8 ,
            // u8 )`; nested groups contribute their idents.
            let mut elem_idents: Vec<String> = Vec::new();
            loop {
                match self.peek() {
                    Some(TokenKind::Punct(";")) => break,
                    Some(TokenKind::Open(_)) => {
                        let start = self.pos;
                        self.skip_group()?;
                        for t in &self.tokens[start..self.pos] {
                            if let Some(s) = t.kind.ident() {
                                elem_idents.push(s.to_string());
                            }
                        }
                    }
                    Some(TokenKind::Ident(s)) => {
                        elem_idents.push(s.clone());
                        self.pos += 1;
                    }
                    Some(_) => {
                        self.bump();
                    }
                    None => return Err(self.error("unterminated array type")),
                }
            }
            let elem = elem_idents.last().cloned();
            self.expect_punct(";")?;
            let len = match self.bump() {
                Some(TokenKind::Int(Some(v))) => Some(ConstLen::Lit(v)),
                Some(TokenKind::Ident(n)) => Some(ConstLen::Named(n)),
                _ => None,
            };
            // Anything else up to the closing bracket (e.g. `+ 1`).
            let mut extra = false;
            while !self.at_close(']') {
                if self.bump().is_none() {
                    return Err(self.error("unterminated array type"));
                }
                extra = true;
            }
            self.bump();
            // A computed length (`PRESENT_ROUNDS + 1`) is left unresolved.
            (elem, if extra { None } else { len })
        } else {
            let _ = self.parse_type_text()?;
            (None, None)
        };
        // Initializer: capture a scalar literal value if trivially present.
        let mut value = None;
        if self.eat_punct("=") {
            if let Some(TokenKind::Int(v)) = self.peek() {
                if self.peek_at(1).is_some_and(|t| t.is_punct(";")) {
                    value = *v;
                }
            }
            self.skip_to_semi()?;
        } else {
            self.expect_punct(";")?;
        }
        file.consts.push(ConstDef {
            name,
            elem_ty,
            len,
            value,
            line,
        });
        Ok(())
    }

    fn parse_struct_or_enum(&mut self, file: &mut SourceFile) -> Result<(), ParseError> {
        let is_enum = self.at_kw("enum");
        self.bump();
        let Some(TokenKind::Ident(name)) = self.bump() else {
            return Err(self.error("expected type name"));
        };
        self.skip_generics()?;
        let mut fields = Vec::new();
        if self.at_punct(";") {
            self.bump(); // unit struct
        } else if self.at_open('(') {
            // Tuple struct: fields are positional; record types as `0`, `1`…
            self.bump();
            let mut idx = 0usize;
            while !self.at_close(')') {
                // Skip visibility.
                if self.eat_kw("pub") && self.at_open('(') {
                    self.skip_group()?;
                }
                let ty = self.parse_type_text()?;
                fields.push((idx.to_string(), ty));
                idx += 1;
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_close(')')?;
            self.eat_punct(";");
        } else {
            self.expect_open('{')?;
            while !self.at_close('}') {
                if self.at_punct("#") {
                    self.attr_is_cfg_test()?;
                    continue;
                }
                if self.eat_kw("pub") {
                    if self.at_open('(') {
                        self.skip_group()?;
                    }
                    continue;
                }
                let Some(TokenKind::Ident(fname)) = self.bump() else {
                    return Err(self.error("expected field or variant name"));
                };
                if is_enum {
                    // Variant payloads become pseudo-fields.
                    if self.at_open('(') {
                        self.bump();
                        let mut inner = Vec::new();
                        while !self.at_close(')') {
                            inner.push(self.parse_type_text()?);
                            if !self.eat_punct(",") {
                                break;
                            }
                        }
                        self.expect_close(')')?;
                        fields.push((fname, inner.join(" ")));
                    } else if self.at_open('{') {
                        let start = self.pos;
                        self.skip_group()?;
                        let text: Vec<String> = self.tokens[start..self.pos]
                            .iter()
                            .filter_map(|t| t.kind.ident().map(str::to_string))
                            .collect();
                        fields.push((fname, text.join(" ")));
                    } else {
                        fields.push((fname, String::new()));
                        if self.eat_punct("=") {
                            // Discriminant.
                            while !self.at_punct(",") && !self.at_close('}') {
                                self.bump();
                            }
                        }
                    }
                } else {
                    self.expect_punct(":")?;
                    let ty = self.parse_type_text()?;
                    fields.push((fname, ty));
                }
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_close('}')?;
        }
        file.structs.push(StructDef { name, fields });
        Ok(())
    }

    /// Parses `fn name(...) -> ret { body }`. Returns `None` for bodyless
    /// trait-style signatures (`fn f(...);`).
    fn parse_fn(&mut self, qual: Option<&str>) -> Result<Option<Func>, ParseError> {
        let line = self.line();
        self.eat_kw("fn");
        let Some(TokenKind::Ident(name)) = self.bump() else {
            return Err(self.error("expected function name"));
        };
        self.skip_generics()?;
        self.expect_open('(')?;
        let mut params = Vec::new();
        while !self.at_close(')') {
            if self.at_punct("#") {
                self.attr_is_cfg_test()?;
                continue;
            }
            // self receiver: `self`, `&self`, `&mut self`, `mut self`.
            let save = self.pos;
            let mut is_self = false;
            self.eat_punct("&");
            if matches!(self.peek(), Some(TokenKind::Lifetime(_))) {
                self.bump();
            }
            self.eat_kw("mut");
            if self.at_kw("self") {
                self.bump();
                is_self = true;
            } else {
                self.pos = save;
            }
            if is_self {
                params.push(Param {
                    name: Some("self".into()),
                    ty: qual.unwrap_or("Self").to_string(),
                    is_self: true,
                });
            } else {
                self.eat_kw("mut");
                let pname = match self.peek() {
                    Some(TokenKind::Ident(s)) if s != "_" => Some(s.clone()),
                    _ => None,
                };
                if matches!(self.peek(), Some(TokenKind::Ident(_))) {
                    self.bump();
                } else {
                    // A destructuring parameter (`(open, close): (char,
                    // char)`) binds no single name.
                    self.parse_pat()?;
                }
                self.expect_punct(":")?;
                let ty = self.parse_type_text()?;
                params.push(Param {
                    name: pname,
                    ty,
                    is_self: false,
                });
            }
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_close(')')?;
        let ret_ty = if self.eat_punct("->") {
            Some(self.parse_type_text()?)
        } else {
            None
        };
        if self.at_kw("where") {
            while !self.at_open('{') && !self.at_punct(";") && self.peek().is_some() {
                if matches!(self.peek(), Some(TokenKind::Open(_))) {
                    self.skip_group()?;
                } else {
                    self.bump();
                }
            }
        }
        if self.eat_punct(";") {
            return Ok(None);
        }
        let body = self.parse_block()?;
        Ok(Some(Func {
            name,
            qual: qual.map(str::to_string),
            params,
            ret_ty,
            body,
            line,
        }))
    }

    // ---- statements ---------------------------------------------------

    fn parse_block(&mut self) -> Result<Block, ParseError> {
        self.expect_open('{')?;
        let mut block = Block::default();
        while !self.at_close('}') {
            if self.peek().is_none() {
                return Err(self.error("unterminated block"));
            }
            // Attributes inside blocks (e.g. `#[inline]` on nested items).
            if self.at_punct("#") {
                self.attr_is_cfg_test()?;
                continue;
            }
            if self.at_punct(";") {
                self.bump();
                continue;
            }
            if self.at_kw("let") {
                block.stmts.push(self.parse_let()?);
                continue;
            }
            // Nested items inside function bodies are not analyzed.
            if self.at_kw("fn") || self.at_kw("use") || self.at_kw("struct") || self.at_kw("impl") {
                let mut sub = SourceFile::default();
                self.parse_one_nested_item(&mut sub)?;
                block.stmts.push(Stmt::Item);
                continue;
            }
            if self.at_kw("const") || self.at_kw("static") {
                let mut sub = SourceFile::default();
                self.parse_const(&mut sub)?;
                block.stmts.push(Stmt::Item);
                continue;
            }
            let expr = self.parse_stmt_expr()?;
            if self.eat_punct(";") || block_like(&expr) {
                // `if`/`match`/loops need no semicolon as statements; an
                // operator continuation after them is not supported.
                if self.at_close('}') && !matches!(expr, Expr::If { .. } | Expr::Match { .. }) {
                    // Loop as final statement: still a statement.
                }
                block.stmts.push(Stmt::Expr(expr));
            } else if self.at_close('}') {
                block.tail = Some(Box::new(expr));
            } else {
                return Err(self.error("expected `;` or `}` after expression"));
            }
        }
        self.expect_close('}')?;
        // A trailing block-like statement is the block's value if nothing
        // follows it; fold the last Expr statement into the tail.
        if block.tail.is_none() {
            if let Some(Stmt::Expr(e)) = block.stmts.last() {
                if block_like(e) {
                    let e = e.clone();
                    block.stmts.pop();
                    block.tail = Some(Box::new(e));
                }
            }
        }
        Ok(block)
    }

    /// An expression in statement position. A block-like one (`if`,
    /// `match`, a loop or a block) ends at its closing brace, as in Rust:
    /// `if c { .. } &x` is a statement followed by the expression `&x`,
    /// not a binary `&`. Only a method chain or `?` continues it
    /// (`match .. { .. }.unwrap()`).
    fn parse_stmt_expr(&mut self) -> Result<Expr, ParseError> {
        let block_start = match self.peek() {
            Some(TokenKind::Ident(word)) => {
                matches!(
                    word.as_str(),
                    "if" | "match" | "for" | "while" | "loop" | "unsafe"
                )
            }
            Some(TokenKind::Open('{')) => true,
            Some(TokenKind::Lifetime(_)) => true,
            _ => false,
        };
        if block_start {
            let start = self.pos;
            let head = self.parse_primary(false)?;
            if !self.at_punct(".") && !self.at_punct("?") {
                return Ok(head);
            }
            self.pos = start;
        }
        self.parse_expr(false)
    }

    fn parse_one_nested_item(&mut self, file: &mut SourceFile) -> Result<(), ParseError> {
        if self.at_kw("fn") {
            let f = self.parse_fn(None)?;
            if let Some(f) = f {
                file.functions.push(f);
            }
            return Ok(());
        }
        if self.at_kw("use") {
            return self.skip_to_semi();
        }
        if self.at_kw("struct") {
            return self.parse_struct_or_enum(file);
        }
        if self.at_kw("impl") {
            self.bump();
            self.skip_generics()?;
            let _ = self.parse_type_text()?;
            if self.eat_kw("for") {
                let _ = self.parse_type_text()?;
            }
            return self.skip_group();
        }
        Err(self.error("unsupported nested item"))
    }

    fn parse_let(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        self.eat_kw("let");
        let pat = self.parse_pat()?;
        let ty = if self.eat_punct(":") {
            Some(self.parse_type_text()?)
        } else {
            None
        };
        let init = if self.eat_punct("=") {
            Some(self.parse_expr(false)?)
        } else {
            None
        };
        // `let ... else { ... }` divergence block.
        if self.at_kw("else") {
            self.bump();
            self.skip_group()?;
        }
        self.expect_punct(";")?;
        Ok(Stmt::Let {
            pat,
            ty,
            init,
            line,
        })
    }

    // ---- patterns -----------------------------------------------------

    fn parse_pat(&mut self) -> Result<Pat, ParseError> {
        let first = self.parse_pat_single()?;
        if !self.at_punct("|") {
            return Ok(first);
        }
        let mut alts = vec![first];
        while self.eat_punct("|") {
            alts.push(self.parse_pat_single()?);
        }
        Ok(Pat::Or(alts))
    }

    fn parse_pat_single(&mut self) -> Result<Pat, ParseError> {
        let line = self.line();
        if self.eat_punct("&&") {
            // `|&&x|` — two refs.
            self.eat_kw("mut");
            let inner = self.parse_pat_single()?;
            return Ok(Pat::Ref(Box::new(Pat::Ref(Box::new(inner)))));
        }
        if self.eat_punct("&") {
            self.eat_kw("mut");
            return Ok(Pat::Ref(Box::new(self.parse_pat_single()?)));
        }
        if self.eat_punct("..") || self.eat_punct("..=") {
            // Rest or open range pattern; any bound is a literal.
            if matches!(
                self.peek(),
                Some(TokenKind::Int(_) | TokenKind::Char | TokenKind::Ident(_))
            ) {
                self.bump();
            }
            return Ok(Pat::Wild);
        }
        if self.eat_punct("-") {
            self.bump();
            return Ok(Pat::Wild);
        }
        match self.peek().cloned() {
            Some(TokenKind::Int(_) | TokenKind::Float | TokenKind::Str | TokenKind::Char) => {
                self.bump();
                // Range patterns `0..=9`.
                if self.eat_punct("..=") || self.eat_punct("..") {
                    self.bump();
                }
                Ok(Pat::Wild)
            }
            Some(TokenKind::Open('(')) => {
                self.bump();
                let mut ps = Vec::new();
                while !self.at_close(')') {
                    ps.push(self.parse_pat()?);
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                self.expect_close(')')?;
                if ps.len() == 1 {
                    Ok(ps.pop().unwrap())
                } else {
                    Ok(Pat::Tuple(ps))
                }
            }
            Some(TokenKind::Open('[')) => {
                self.bump();
                let mut ps = Vec::new();
                while !self.at_close(']') {
                    ps.push(self.parse_pat()?);
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                self.expect_close(']')?;
                Ok(Pat::Slice(ps))
            }
            Some(TokenKind::Ident(first)) => {
                if first == "_" {
                    self.bump();
                    return Ok(Pat::Wild);
                }
                if first == "mut" || first == "ref" {
                    self.bump();
                    self.eat_kw("mut");
                    let Some(TokenKind::Ident(name)) = self.bump() else {
                        return Err(self.error("expected binding after mut/ref"));
                    };
                    return self.finish_binding(name, line);
                }
                if KEYWORD_NON_BINDING.contains(&first.as_str()) {
                    self.bump();
                    return Ok(Pat::Wild);
                }
                // Path: variant / struct / binding.
                let path = self.parse_path_segments()?;
                if self.at_open('(') {
                    self.bump();
                    let mut ps = Vec::new();
                    while !self.at_close(')') {
                        ps.push(self.parse_pat()?);
                        if !self.eat_punct(",") {
                            break;
                        }
                    }
                    self.expect_close(')')?;
                    return Ok(Pat::TupleStruct(path, ps));
                }
                if self.at_open('{') {
                    self.bump();
                    let mut fields = Vec::new();
                    while !self.at_close('}') {
                        if self.eat_punct("..") {
                            break;
                        }
                        let Some(TokenKind::Ident(fname)) = self.bump() else {
                            return Err(self.error("expected field name in struct pattern"));
                        };
                        let fline = self.line();
                        let p = if self.eat_punct(":") {
                            self.parse_pat()?
                        } else {
                            Pat::Ident(fname.clone(), fline)
                        };
                        fields.push((fname, p));
                        if !self.eat_punct(",") {
                            break;
                        }
                    }
                    self.expect_close('}')?;
                    return Ok(Pat::Struct(path, fields));
                }
                if path.len() > 1 {
                    // Unit variant (`PresentKey::K80` without payload here,
                    // or `None`): binds nothing.
                    return Ok(Pat::Wild);
                }
                // Range pattern with a named bound?
                if self.eat_punct("..=") || self.eat_punct("..") {
                    self.bump();
                    return Ok(Pat::Wild);
                }
                let name = path.into_iter().next().unwrap();
                if self.at_punct("@") {
                    return self.finish_binding(name, line);
                }
                if name == "None" {
                    return Ok(Pat::Wild);
                }
                if name.chars().next().is_some_and(char::is_uppercase) {
                    // Bare unit-struct / variant path.
                    return Ok(Pat::Wild);
                }
                Ok(Pat::Ident(name, line))
            }
            _ => Err(self.error("unsupported pattern")),
        }
    }

    /// The binding `name`, or `name @ subpattern`.
    fn finish_binding(&mut self, name: String, line: u32) -> Result<Pat, ParseError> {
        if self.eat_punct("@") {
            return Ok(Pat::At(name, line, Box::new(self.parse_pat_single()?)));
        }
        Ok(Pat::Ident(name, line))
    }

    fn parse_path_segments(&mut self) -> Result<Vec<String>, ParseError> {
        let mut segs = Vec::new();
        loop {
            match self.peek() {
                Some(TokenKind::Ident(s)) => {
                    segs.push(s.clone());
                    self.bump();
                }
                _ => return Err(self.error("expected path segment")),
            }
            if self.at_punct("::") {
                // Turbofish: `::<...>` is consumed and dropped.
                if matches!(self.peek_at(1), Some(TokenKind::Punct("<"))) {
                    self.bump();
                    self.skip_generics()?;
                    if !self.at_punct("::") {
                        break;
                    }
                    self.bump();
                    continue;
                }
                self.bump();
                continue;
            }
            break;
        }
        Ok(segs)
    }

    // ---- expressions --------------------------------------------------

    fn parse_expr(&mut self, no_struct: bool) -> Result<Expr, ParseError> {
        self.parse_assign(no_struct)
    }

    fn parse_assign(&mut self, no_struct: bool) -> Result<Expr, ParseError> {
        let lhs = self.parse_range(no_struct)?;
        let line = self.line();
        for op in [
            "=", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<=", ">>=",
        ] {
            if self.at_punct(op) {
                self.bump();
                let rhs = self.parse_assign(no_struct)?;
                let op_static: &'static str = match op {
                    "=" => "=",
                    "+=" => "+=",
                    "-=" => "-=",
                    "*=" => "*=",
                    "/=" => "/=",
                    "%=" => "%=",
                    "^=" => "^=",
                    "&=" => "&=",
                    "|=" => "|=",
                    "<<=" => "<<=",
                    _ => ">>=",
                };
                return Ok(Expr::Assign(op_static, Box::new(lhs), Box::new(rhs), line));
            }
        }
        Ok(lhs)
    }

    fn parse_range(&mut self, no_struct: bool) -> Result<Expr, ParseError> {
        let line = self.line();
        if self.at_punct("..") || self.at_punct("..=") {
            self.bump();
            if self.range_end_follows() {
                return Ok(Expr::Range(None, None, line));
            }
            let end = self.parse_binary(0, no_struct)?;
            return Ok(Expr::Range(None, Some(Box::new(end)), line));
        }
        let start = self.parse_binary(0, no_struct)?;
        if self.at_punct("..") || self.at_punct("..=") {
            self.bump();
            if self.range_end_follows() {
                return Ok(Expr::Range(Some(Box::new(start)), None, line));
            }
            let end = self.parse_binary(0, no_struct)?;
            return Ok(Expr::Range(
                Some(Box::new(start)),
                Some(Box::new(end)),
                line,
            ));
        }
        Ok(start)
    }

    fn range_end_follows(&self) -> bool {
        matches!(
            self.peek(),
            None | Some(TokenKind::Close(_))
                | Some(TokenKind::Punct(","))
                | Some(TokenKind::Punct(";"))
        ) || self.at_open('{')
    }

    /// Binary operators by rising precedence level.
    fn parse_binary(&mut self, level: usize, no_struct: bool) -> Result<Expr, ParseError> {
        const LEVELS: &[&[&str]] = &[
            &["||"],
            &["&&"],
            &["==", "!=", "<", ">", "<=", ">="],
            &["|"],
            &["^"],
            &["&"],
            &["<<", ">>"],
            &["+", "-"],
            &["*", "/", "%"],
        ];
        if level == LEVELS.len() {
            return self.parse_cast(no_struct);
        }
        let mut lhs = self.parse_binary(level + 1, no_struct)?;
        loop {
            let line = self.line();
            let mut matched = None;
            for op in LEVELS[level] {
                if self.at_punct(op) {
                    matched = Some(*op);
                    break;
                }
            }
            let Some(op) = matched else { return Ok(lhs) };
            self.bump();
            let rhs = self.parse_binary(level + 1, no_struct)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs), line);
        }
    }

    fn parse_cast(&mut self, no_struct: bool) -> Result<Expr, ParseError> {
        let mut e = self.parse_unary(no_struct)?;
        while self.at_kw("as") {
            self.bump();
            let _ = self.parse_type_text()?;
            e = Expr::Cast(Box::new(e));
        }
        Ok(e)
    }

    fn parse_unary(&mut self, no_struct: bool) -> Result<Expr, ParseError> {
        if self.at_punct("!") || self.at_punct("-") || self.at_punct("*") {
            self.bump();
            return Ok(Expr::Unary(Box::new(self.parse_unary(no_struct)?)));
        }
        if self.at_punct("&") || self.at_punct("&&") {
            // `&&x` is two refs.
            let double = self.at_punct("&&");
            self.bump();
            self.eat_kw("mut");
            let inner = self.parse_unary(no_struct)?;
            let e = Expr::Unary(Box::new(inner));
            return Ok(if double { Expr::Unary(Box::new(e)) } else { e });
        }
        self.parse_postfix(no_struct)
    }

    fn parse_postfix(&mut self, no_struct: bool) -> Result<Expr, ParseError> {
        let mut e = self.parse_primary(no_struct)?;
        loop {
            let line = self.line();
            if self.at_punct(".") {
                self.bump();
                match self.peek().cloned() {
                    Some(TokenKind::Ident(name)) => {
                        self.bump();
                        // Turbofish on methods — keep the type idents.
                        let mut turbofish = Vec::new();
                        if self.at_punct("::") {
                            self.bump();
                            let start = self.pos;
                            self.skip_generics()?;
                            for t in &self.tokens[start..self.pos] {
                                if let Some(s) = t.kind.ident() {
                                    turbofish.push(s.to_string());
                                }
                            }
                        }
                        if self.at_open('(') {
                            let args = self.parse_call_args()?;
                            e = Expr::MethodCall(Box::new(e), name, turbofish, args, line);
                        } else if name == "await" {
                            // no-op
                        } else {
                            e = Expr::Field(Box::new(e), name, line);
                        }
                    }
                    Some(TokenKind::Int(_)) => {
                        self.bump();
                        e = Expr::TupleField(Box::new(e), line);
                    }
                    Some(TokenKind::Float) => {
                        // `t.0.1` lexes the `.0.1` as a float; treat as
                        // nested tuple access.
                        self.bump();
                        e = Expr::TupleField(Box::new(e), line);
                    }
                    _ => return Err(self.error("expected field or method after `.`")),
                }
                continue;
            }
            if self.at_open('(') {
                let args = self.parse_call_args()?;
                e = Expr::Call(Box::new(e), args, line);
                continue;
            }
            if self.at_open('[') {
                self.bump();
                let idx = self.parse_expr(false)?;
                self.expect_close(']')?;
                e = Expr::Index(Box::new(e), Box::new(idx), line);
                continue;
            }
            if self.at_punct("?") {
                self.bump();
                e = Expr::Try(Box::new(e));
                continue;
            }
            return Ok(e);
        }
    }

    fn parse_call_args(&mut self) -> Result<Vec<Expr>, ParseError> {
        self.expect_open('(')?;
        let mut args = Vec::new();
        while !self.at_close(')') {
            args.push(self.parse_expr(false)?);
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_close(')')?;
        Ok(args)
    }

    fn parse_primary(&mut self, no_struct: bool) -> Result<Expr, ParseError> {
        let line = self.line();
        match self.peek().cloned() {
            Some(TokenKind::Int(_) | TokenKind::Float | TokenKind::Str | TokenKind::Char) => {
                self.bump();
                Ok(Expr::Lit)
            }
            // Loop label: `'outer: loop { … }` — the label is dropped, the
            // labelled loop/block parses normally.
            Some(TokenKind::Lifetime(_))
                if matches!(self.peek_at(1), Some(TokenKind::Punct(":"))) =>
            {
                self.bump();
                self.bump();
                self.parse_primary(no_struct)
            }
            Some(TokenKind::Open('(')) => {
                self.bump();
                let mut items = Vec::new();
                let mut is_tuple = false;
                while !self.at_close(')') {
                    items.push(self.parse_expr(false)?);
                    if self.eat_punct(",") {
                        is_tuple = true;
                    } else {
                        break;
                    }
                }
                self.expect_close(')')?;
                if is_tuple || items.len() != 1 {
                    Ok(Expr::Tuple(items))
                } else {
                    Ok(items.pop().unwrap())
                }
            }
            Some(TokenKind::Open('[')) => {
                self.bump();
                let mut items = Vec::new();
                while !self.at_close(']') {
                    items.push(self.parse_expr(false)?);
                    if self.eat_punct(";") {
                        // `[elem; n]` — length is a const expression.
                        let _ = self.parse_expr(false)?;
                        break;
                    }
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                self.expect_close(']')?;
                Ok(Expr::Array(items))
            }
            Some(TokenKind::Open('{')) => Ok(Expr::Block(self.parse_block()?)),
            Some(TokenKind::Punct("|")) | Some(TokenKind::Punct("||")) => self.parse_closure(),
            Some(TokenKind::Ident(word)) => match word.as_str() {
                "if" => self.parse_if(),
                "match" => self.parse_match(),
                "for" => self.parse_for(),
                "while" => self.parse_while(),
                "loop" => {
                    self.bump();
                    Ok(Expr::Loop(self.parse_block()?))
                }
                "move" => {
                    self.bump();
                    self.parse_closure()
                }
                "return" => {
                    self.bump();
                    if self.return_value_follows() {
                        Ok(Expr::Return(Some(Box::new(self.parse_expr(false)?)), line))
                    } else {
                        Ok(Expr::Return(None, line))
                    }
                }
                "break" => {
                    self.bump();
                    if matches!(self.peek(), Some(TokenKind::Lifetime(_))) {
                        self.bump();
                    }
                    if self.return_value_follows() {
                        Ok(Expr::Jump(Some(Box::new(self.parse_expr(false)?)), line))
                    } else {
                        Ok(Expr::Jump(None, line))
                    }
                }
                "continue" => {
                    self.bump();
                    if matches!(self.peek(), Some(TokenKind::Lifetime(_))) {
                        self.bump();
                    }
                    Ok(Expr::Jump(None, line))
                }
                "unsafe" => {
                    self.bump();
                    Ok(Expr::Block(self.parse_block()?))
                }
                "true" | "false" => {
                    self.bump();
                    Ok(Expr::Lit)
                }
                _ => {
                    let path = self.parse_path_segments()?;
                    self.finish_path_expr(path, no_struct, line)
                }
            },
            // Qualified path: `<T as Trait>::f`, `<T>::f`.
            Some(TokenKind::Punct("<")) => {
                let mut path = self.parse_qualified_self()?;
                path.extend(self.parse_path_segments()?);
                self.finish_path_expr(path, no_struct, line)
            }
            _ => Err(self.error("unsupported expression")),
        }
    }

    /// Consumes the `<T as Trait>::` of a qualified path and returns the
    /// segment it contributes to the path: the trait's last segment, or the
    /// type's when there is no `as`. Generic arguments inside are dropped.
    fn parse_qualified_self(&mut self) -> Result<Vec<String>, ParseError> {
        let start = self.pos;
        self.skip_generics()?;
        let mut depth = 0i32;
        let mut qualifier = None;
        for token in &self.tokens[start..self.pos] {
            match &token.kind {
                TokenKind::Punct("<") => depth += 1,
                TokenKind::Punct(">") => depth -= 1,
                TokenKind::Punct("<<") => depth += 2,
                TokenKind::Punct(">>") => depth -= 2,
                TokenKind::Ident(word) if depth == 1 && word != "as" => {
                    qualifier = Some(word.clone())
                }
                _ => {}
            }
        }
        if !self.eat_punct("::") {
            return Err(self.error("expected `::` after a qualified path"));
        }
        Ok(qualifier.into_iter().collect())
    }

    /// The rest of a path expression once its segments are parsed: a
    /// macro invocation, a struct literal or the plain path.
    fn finish_path_expr(
        &mut self,
        path: Vec<String>,
        no_struct: bool,
        line: u32,
    ) -> Result<Expr, ParseError> {
        // Macro invocation.
        if self.at_punct("!") {
            self.bump();
            let name = path.last().cloned().unwrap_or_default();
            let args = self.parse_macro_args()?;
            return Ok(Expr::Macro(name, args, line));
        }
        // Struct literal.
        if self.at_open('{') && !no_struct && struct_path(&path) {
            self.bump();
            let mut fields = Vec::new();
            while !self.at_close('}') {
                if self.eat_punct("..") {
                    let base = self.parse_expr(false)?;
                    fields.push(("..".into(), base));
                    break;
                }
                let Some(TokenKind::Ident(fname)) = self.bump() else {
                    return Err(self.error("expected field in struct literal"));
                };
                let value = if self.eat_punct(":") {
                    self.parse_expr(false)?
                } else {
                    Expr::Path(vec![fname.clone()], line)
                };
                fields.push((fname, value));
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_close('}')?;
            return Ok(Expr::StructLit(path, fields, line));
        }
        Ok(Expr::Path(path, line))
    }

    fn return_value_follows(&self) -> bool {
        !matches!(
            self.peek(),
            None | Some(TokenKind::Punct(";"))
                | Some(TokenKind::Punct(","))
                | Some(TokenKind::Close(_))
        )
    }

    fn parse_closure(&mut self) -> Result<Expr, ParseError> {
        let mut params = Vec::new();
        if self.eat_punct("||") {
            // No parameters.
        } else {
            self.expect_punct("|")?;
            while !self.at_punct("|") {
                // `parse_pat_single`, not `parse_pat`: the closing `|` of the
                // parameter list must not start an or-pattern.
                params.push(self.parse_pat_single()?);
                if self.eat_punct(":") {
                    let _ = self.parse_type_text()?;
                }
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct("|")?;
        }
        if self.eat_punct("->") {
            let _ = self.parse_type_text()?;
        }
        let body = self.parse_expr(false)?;
        Ok(Expr::Closure {
            params,
            body: Box::new(body),
        })
    }

    fn parse_macro_args(&mut self) -> Result<Vec<Expr>, ParseError> {
        let Some(TokenKind::Open(delim)) = self.peek().cloned() else {
            return Err(self.error("expected macro arguments"));
        };
        // Best effort: try to parse the contents as comma-separated
        // expressions; fall back to skipping the group when the macro's
        // grammar is not expression-like (`matches!`, custom DSLs).
        let save = self.pos;
        self.bump();
        let mut args = Vec::new();
        let ok = loop {
            if self.at_close(close_of(delim)) {
                self.bump();
                break true;
            }
            match self.parse_expr(false) {
                Ok(e) => args.push(e),
                Err(_) => break false,
            }
            if !self.eat_punct(",") {
                if self.at_close(close_of(delim)) {
                    self.bump();
                    break true;
                }
                break false;
            }
        };
        if ok {
            return Ok(args);
        }
        self.pos = save;
        self.skip_group()?;
        Ok(args)
    }

    fn parse_if(&mut self) -> Result<Expr, ParseError> {
        let line = self.line();
        self.eat_kw("if");
        let (pat, cond) = if self.eat_kw("let") {
            let p = self.parse_pat()?;
            self.expect_punct("=")?;
            (Some(p), self.parse_expr(true)?)
        } else {
            (None, self.parse_expr(true)?)
        };
        let then_block = self.parse_block()?;
        let else_expr = if self.eat_kw("else") {
            if self.at_kw("if") {
                Some(Box::new(self.parse_if()?))
            } else {
                Some(Box::new(Expr::Block(self.parse_block()?)))
            }
        } else {
            None
        };
        Ok(Expr::If {
            cond: Box::new(cond),
            pat,
            then_block,
            else_expr,
            line,
        })
    }

    fn parse_match(&mut self) -> Result<Expr, ParseError> {
        let line = self.line();
        self.eat_kw("match");
        let scrutinee = self.parse_expr(true)?;
        self.expect_open('{')?;
        let mut arms = Vec::new();
        while !self.at_close('}') {
            if self.at_punct("#") {
                self.attr_is_cfg_test()?;
                continue;
            }
            let pat = self.parse_pat()?;
            let guard = if self.eat_kw("if") {
                Some(self.parse_expr(true)?)
            } else {
                None
            };
            self.expect_punct("=>")?;
            // A braced arm body is a block, never the head of a postfix
            // chain — `{ .. } (pat) => ..` must not parse as a call.
            let body = if self.at_open('{') {
                Expr::Block(self.parse_block()?)
            } else {
                self.parse_expr(false)?
            };
            self.eat_punct(",");
            arms.push((pat, guard, body));
        }
        self.expect_close('}')?;
        Ok(Expr::Match {
            scrutinee: Box::new(scrutinee),
            arms,
            line,
        })
    }

    fn parse_for(&mut self) -> Result<Expr, ParseError> {
        let line = self.line();
        self.eat_kw("for");
        let pat = self.parse_pat()?;
        if !self.eat_kw("in") {
            return Err(self.error("expected `in` in for loop"));
        }
        let iter = self.parse_expr(true)?;
        let body = self.parse_block()?;
        Ok(Expr::For {
            pat,
            iter: Box::new(iter),
            body,
            line,
        })
    }

    fn parse_while(&mut self) -> Result<Expr, ParseError> {
        let line = self.line();
        self.eat_kw("while");
        let (pat, cond) = if self.eat_kw("let") {
            let p = self.parse_pat()?;
            self.expect_punct("=")?;
            (Some(p), self.parse_expr(true)?)
        } else {
            (None, self.parse_expr(true)?)
        };
        let body = self.parse_block()?;
        Ok(Expr::While {
            cond: Box::new(cond),
            pat,
            body,
            line,
        })
    }
}

fn matching(open: char) -> char {
    match open {
        '(' => ')',
        '[' => ']',
        _ => '}',
    }
}

fn close_of(open: char) -> char {
    matching(open)
}

fn block_like(e: &Expr) -> bool {
    matches!(
        e,
        Expr::If { .. }
            | Expr::Match { .. }
            | Expr::For { .. }
            | Expr::While { .. }
            | Expr::Loop(_)
            | Expr::Block(_)
    )
}

/// Whether a path can start a struct literal (`Access { .. }`, `Self { .. }`).
fn struct_path(path: &[String]) -> bool {
    path.last()
        .is_some_and(|s| s.chars().next().is_some_and(char::is_uppercase))
}

/// The last type-ish identifier in a type text (`& 'a TableGift64` →
/// `TableGift64`, `Vec < RoundKey64 >` → `RoundKey64`).
pub fn last_type_ident(ty: &str) -> String {
    ty.split(|c: char| !c.is_alphanumeric() && c != '_')
        .filter(|s| !s.is_empty())
        .rfind(|s| !matches!(*s, "mut" | "dyn" | "ref" | "const"))
        .unwrap_or_default()
        .to_string()
}

/// The first concrete type identifier in a type text, skipping wrappers
/// (`Vec < RoundKey64 >` → `Vec`; use [`last_type_ident`] for the element).
pub fn first_type_ident(ty: &str) -> String {
    ty.split(|c: char| !c.is_alphanumeric() && c != '_')
        .filter(|s| !s.is_empty())
        .find(|s| !matches!(*s, "mut" | "dyn" | "ref" | "const" | "impl"))
        .unwrap_or_default()
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_simple_function() {
        let file = parse_file("fn add(a: u64, b: u64) -> u64 { let c = a + b; c }").unwrap();
        assert_eq!(file.functions.len(), 1);
        let f = &file.functions[0];
        assert_eq!(f.name, "add");
        assert_eq!(f.params.len(), 2);
        assert!(f.body.tail.is_some());
    }

    #[test]
    fn parses_impl_methods_with_self() {
        let file =
            parse_file("struct S { x: u64 }\nimpl S {\n  pub fn get(&self) -> u64 { self.x }\n}")
                .unwrap();
        assert_eq!(file.functions[0].qualified_name(), "S::get");
        assert!(file.functions[0].params[0].is_self);
        assert_eq!(file.structs[0].fields[0].0, "x");
    }

    #[test]
    fn skips_cfg_test_modules() {
        let file =
            parse_file("fn live() {}\n#[cfg(test)]\nmod tests { fn dead() { not rust at all } }")
                .unwrap();
        assert_eq!(file.functions.len(), 1);
        assert_eq!(file.functions[0].name, "live");
    }

    /// The callee path of `expr` if it is a call of a path.
    fn callee_path(expr: &Expr) -> Option<&[String]> {
        match expr {
            Expr::Call(callee, _, _) => match callee.as_ref() {
                Expr::Path(path, _) => Some(path),
                _ => None,
            },
            _ => None,
        }
    }

    #[test]
    fn parses_a_qualified_trait_call() {
        let file = parse_file("fn f<K: Trait>(x: u64) -> u64 { <K as Trait>::f(x) + 1 }").unwrap();
        let Some(Expr::Binary("+", lhs, _, _)) = file.functions[0].body.tail.as_deref() else {
            panic!("tail is not a sum");
        };
        assert_eq!(
            callee_path(lhs),
            Some(&["Trait".to_string(), "f".into()][..])
        );
    }

    #[test]
    fn parses_a_qualified_associated_type_path() {
        let src = "fn g<V: StageVictim>() -> usize {
            let c = <V::Key as StageKey>::Candidates::default();
            let v = <Vec<Vec<u8>>>::new();
            c.len() + v.len()
        }";
        let file = parse_file(src).unwrap();
        let inits: Vec<_> = file.functions[0]
            .body
            .stmts
            .iter()
            .map(|stmt| match stmt {
                Stmt::Let {
                    init: Some(init), ..
                } => callee_path(init).map(<[String]>::to_vec),
                _ => None,
            })
            .collect();
        assert_eq!(
            inits,
            [
                Some(vec![
                    "StageKey".into(),
                    "Candidates".into(),
                    "default".into()
                ]),
                Some(vec!["Vec".into(), "new".into()]),
            ]
        );
    }

    #[test]
    fn captures_array_consts() {
        let file = parse_file(
            "pub const T: [u8; 16] = [0; 16];\nconst N: usize = 48;\nconst R: [u8; N] = x();",
        )
        .unwrap();
        assert_eq!(file.consts.len(), 3);
        assert!(matches!(file.consts[0].len, Some(ConstLen::Lit(16))));
        assert_eq!(file.consts[1].value, Some(48));
        assert!(matches!(&file.consts[2].len, Some(ConstLen::Named(n)) if n == "N"));
    }

    #[test]
    fn parses_control_flow_and_indexing() {
        let src = r#"
            fn f(state: u64, t: [u8; 16]) -> u64 {
                let mut out = 0u64;
                for i in 0..16 {
                    let nib = ((state >> (4 * i)) & 0xf) as u8;
                    if nib & 1 == 0 { out ^= u64::from(t[nib as usize]); }
                }
                while out > 3 { out -= 1; }
                match out { 0 => 1, _ => out }
            }
        "#;
        let file = parse_file(src).unwrap();
        assert_eq!(file.functions.len(), 1);
    }

    #[test]
    fn parses_closures_macros_and_struct_literals() {
        let src = r#"
            fn g(v: Vec<u64>) -> u64 {
                let s: u64 = v.iter().map(|x| x + 1).sum();
                assert!(s > 0, "bad {s}");
                let a = Access { addr: s, kind: AccessKind::SboxRead };
                a.addr
            }
        "#;
        let file = parse_file(src).unwrap();
        assert_eq!(file.functions.len(), 1);
    }

    #[test]
    fn parses_labelled_loops() {
        let src = "fn f(n: usize) -> usize {\n\
                   let mut c = 0;\n\
                   'outer: loop {\n\
                     for i in 0..n {\n\
                       if i == 3 { break 'outer; }\n\
                       c += 1;\n\
                     }\n\
                     break 'outer c;\n\
                   }\n\
                   }";
        let file = parse_file(src).unwrap();
        assert_eq!(file.functions.len(), 1);
    }

    #[test]
    fn parses_enums_with_payloads() {
        let file = parse_file("pub enum PresentKey { K80(u128), K128(u128) }").unwrap();
        assert_eq!(file.structs[0].name, "PresentKey");
        assert_eq!(file.structs[0].fields.len(), 2);
        assert_eq!(file.structs[0].fields[0].1, "u128");
    }

    #[test]
    fn parses_raw_strings_and_raw_string_sinks() {
        let src = "fn f() -> String {\n\
                   let a = r\"no \\escapes here\";\n\
                   let b = r#\"quote \" inside, even }{ braces\"#;\n\
                   let c = r##\"nested \"# terminator\"##;\n\
                   format!(\"{a}{b}{c}\")\n\
                   }";
        let file = parse_file(src).unwrap();
        assert_eq!(file.functions.len(), 1);
    }

    #[test]
    fn parses_nested_turbofish_generics() {
        let src = "fn f(v: Vec<Vec<u64>>) -> Vec<(usize, u64)> {\n\
                   let flat = v.into_iter().flatten().collect::<Vec<u64>>();\n\
                   let pairs = flat.iter().copied().enumerate().collect::<Vec<(usize, u64)>>();\n\
                   let _deep = Vec::<BTreeMap<String, Vec<u8>>>::new();\n\
                   pairs\n\
                   }";
        let file = parse_file(src).unwrap();
        assert_eq!(file.functions.len(), 1);
    }

    #[test]
    fn parses_matches_and_write_macro_bodies() {
        let src = "fn f(x: Option<u32>, out: &mut String) -> bool {\n\
                   write!(out, \"x={:>8}\", x.unwrap_or(0)).unwrap();\n\
                   writeln!(out, \"{}\", 1 + 2).unwrap();\n\
                   matches!(x, Some(v) if v > 3) || matches!(x, None)\n\
                   }";
        let file = parse_file(src).unwrap();
        assert_eq!(file.functions.len(), 1);
    }

    #[test]
    fn parses_lifetimes_in_impl_headers_and_types() {
        let src = "pub struct View<'a> { data: &'a [u8] }\n\
                   impl<'a> View<'a> {\n\
                     pub fn first(&self) -> Option<&'a u8> { self.data.first() }\n\
                     pub fn rest(&'a self) -> &'a [u8] { &self.data[1..] }\n\
                   }\n\
                   impl<'a> Iterator for View<'a> {\n\
                     type Item = &'a u8;\n\
                     fn next(&mut self) -> Option<Self::Item> { None }\n\
                   }";
        let file = parse_file(src).unwrap();
        assert_eq!(file.functions.len(), 3);
        assert_eq!(file.functions[0].qualified_name(), "View::first");
    }

    #[test]
    fn match_arm_block_followed_by_tuple_pattern_is_not_a_call() {
        // Regression: `{ .. }` arm bodies must not absorb the next arm's
        // parenthesized pattern as a call-argument list.
        let src = "fn f(a: &str, b: &str) -> u32 {\n\
                   match (a, b) {\n\
                     (\"x\", \"y\") => {\n\
                       let t = 1;\n\
                       let _ = t;\n\
                     }\n\
                     (\"x\", _) => {}\n\
                     _ => {}\n\
                   }\n\
                   0\n\
                   }";
        let file = parse_file(src).unwrap();
        assert_eq!(file.functions.len(), 1);
    }

    #[test]
    fn block_like_statement_ends_before_a_tail_starting_with_ampersand() {
        // Valid Rust: the `if` is a statement, `&s.x` the tail, not a
        // binary `&` continuing the `if`.
        let src = "fn f(s: &S, c: bool) -> &u8 {\n\
                   if c { g(); }\n\
                   &s.x\n\
                   }";
        let file = parse_file(src).unwrap();
        let body = &file.functions[0].body;
        assert!(matches!(body.stmts[..], [Stmt::Expr(Expr::If { .. })]));
        assert!(body.tail.is_some());
        // A method chain on a block-like head still continues it.
        let src = "fn f(x: Option<u8>) -> u8 { match x { v => v }.unwrap(); 0 }";
        let body = &parse_file(src).unwrap().functions[0].body;
        assert!(matches!(body.stmts[..], [Stmt::Expr(Expr::MethodCall(..))]));
    }

    #[test]
    fn parses_tuple_patterns_in_fn_parameters() {
        let src = "fn pair((open, close): (char, char), n: usize) -> bool { open == close }";
        let file = parse_file(src).unwrap();
        let params = &file.functions[0].params;
        assert_eq!(params.len(), 2);
        assert_eq!(params[0].name, None);
        assert_eq!(params[1].name.as_deref(), Some("n"));
    }

    #[test]
    fn parses_at_bindings_over_or_patterns() {
        let src = "fn f(c: char) -> u8 {\n\
                   match c { d @ ('0' | '1') => d as u8, _ => 0 }\n\
                   }";
        let file = parse_file(src).unwrap();
        let Some(Expr::Match { arms, .. }) = file.functions[0].body.tail.as_deref() else {
            panic!("tail is not a match");
        };
        assert_eq!(arms[0].0.bindings(), [("d".to_string(), 2)]);
    }

    #[test]
    fn type_ident_helpers() {
        assert_eq!(last_type_ident("& 'a mut TableGift64"), "TableGift64");
        assert_eq!(last_type_ident("Vec < RoundKey64 >"), "RoundKey64");
        assert_eq!(
            first_type_ident("& mut dyn MemoryObserver"),
            "MemoryObserver"
        );
    }
}
