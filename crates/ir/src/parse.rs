//! Parser for the textual IR form produced by [`crate::print`].
//!
//! The grammar mirrors the printer's output one-to-one (`print ∘ parse`
//! and `parse ∘ print` are identities up to value numbering), which gives
//! the test suite a readable way to author IR and a strong round-trip
//! property to check.
//!
//! ```
//! let text = "
//! fn @double(%x: u64) -> u64 {
//!   %y = add %x, %x
//!   ret %y
//! }
//! ";
//! let module = ade_ir::parse::parse_module(text).expect("parses");
//! assert_eq!(module.funcs.len(), 1);
//! assert!(ade_ir::verify::verify_module(&module).is_ok());
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::typing::{self, Externs};
use crate::{
    Access, BinOp, CmpOp, ConstVal, DirectiveSet, EnumDecl, EnumId, FuncId, Function, Inst, InstId,
    InstKind, LiteralData, MapSel, Module, Operand, Region, RegionId, Scalar, SelectionChoice,
    SetSel, Type, ValueDef, ValueId,
};

/// A parse failure with a source position and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the source.
    pub offset: usize,
    /// 1-based line of the offset (0 until located against the source).
    pub line: u32,
    /// 1-based column (in bytes) of the offset on its line (0 until
    /// located against the source).
    pub col: u32,
    /// Human-readable message.
    pub message: String,
}

impl ParseError {
    fn at(offset: usize, message: String) -> ParseError {
        ParseError {
            offset,
            line: 0,
            col: 0,
            message,
        }
    }

    /// Fills in `line`/`col` from the offset. Byte-based, so it cannot
    /// fault on arbitrary (even non-UTF-8-boundary) offsets.
    fn locate(mut self, text: &str) -> ParseError {
        let prefix = &text.as_bytes()[..self.offset.min(text.len())];
        self.line = prefix.iter().filter(|&&b| b == b'\n').count() as u32 + 1;
        self.col = prefix.iter().rev().take_while(|&&b| b != b'\n').count() as u32 + 1;
        self
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at line {}:{} (byte {}): {}",
            self.line, self.col, self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Maximum nesting depth (types, control regions, directives). Printed
/// IR nests a handful of levels at most; the cap turns adversarial
/// deeply-nested input into a [`ParseError`] instead of a parser stack
/// overflow, and is sized so the recursion fits a 2 MiB test-thread
/// stack even with debug-build frame sizes.
const MAX_NEST_DEPTH: u32 = 64;

type Result<T> = std::result::Result<T, ParseError>;

/// Parses a whole module.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax or reference
/// error encountered.
pub fn parse_module(text: &str) -> Result<Module> {
    parse_module_inner(text).map_err(|e| e.locate(text))
}

fn parse_module_inner(text: &str) -> Result<Module> {
    let mut p = Parser::new(text);
    let mut module = Module::new();
    // Pre-scan function signatures so call result types resolve even for
    // forward references.
    let signatures = prescan_signatures(text)?;
    loop {
        p.skip_ws();
        if p.at_end() {
            break;
        }
        if p.peek_word("enum") {
            let decl = p.enum_decl()?;
            module.enums.push(decl);
        } else if p.peek_word("fn") {
            let keys: Vec<Type> = module.enums.iter().map(|e| e.key_ty.clone()).collect();
            let ext = Externs {
                enum_keys: &keys,
                returns: &signatures,
            };
            let f = p.function(ext)?;
            module.funcs.push(f);
        } else {
            return Err(p.error("expected `enum` or `fn`"));
        }
    }
    Ok(module)
}

/// Parses a single function (no enum context, no cross-function calls).
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input.
pub fn parse_function(text: &str) -> Result<Function> {
    let module = parse_module(text)?;
    module
        .funcs
        .into_iter()
        .next()
        .ok_or_else(|| ParseError::at(0, "no function in input".to_string()).locate(text))
}

fn prescan_signatures(text: &str) -> Result<Vec<Type>> {
    // Collect each function's return type, in order of appearance,
    // skipping string literals and line comments so that a `fn @` inside
    // either cannot shift the signature table (call result types are
    // additionally cross-checked by the verifier).
    let mut rets = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                // Skip the string literal, honoring escapes.
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'f' if text[i..].starts_with("fn @") => {
                let rest = &text[i..];
                let arrow = rest
                    .find("->")
                    .ok_or_else(|| ParseError::at(i, "function header missing `->`".to_string()))?;
                let mut p = Parser::new(&rest[arrow + 2..]);
                p.skip_ws();
                rets.push(p.parse_type()?);
                i += 4;
            }
            _ => i += 1,
        }
    }
    Ok(rets)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Current nesting depth across the recursive productions (types,
    /// control regions, directives); capped at [`MAX_NEST_DEPTH`].
    depth: u32,
}

/// The function being parsed, and what its value names resolve to.
struct FuncCtx {
    func: Function,
    names: HashMap<String, ValueId>,
}

impl FuncCtx {
    fn add_value(&mut self, text_name: &str, ty: Type, def: ValueDef) -> ValueId {
        let v = self.func.add_value(ty, def, parse_name_keep(text_name));
        self.names.insert(text_name.to_string(), v);
        v
    }

    fn lookup(&self, name: &str, offset: usize) -> Result<ValueId> {
        self.names
            .get(name)
            .copied()
            .ok_or_else(|| ParseError::at(offset, format!("undefined value %{name}")))
    }
}

fn parse_name_keep(text_name: &str) -> Option<String> {
    if text_name.chars().all(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(text_name.to_string())
    }
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            text,
            pos: 0,
            depth: 0,
        }
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError::at(self.pos, msg.into())
    }

    /// Enters one level of recursive nesting; errors past the cap so
    /// adversarial input cannot overflow the parser's stack. Every
    /// `enter_nested` is paired with a `leave_nested` on the non-error
    /// path (errors abort the whole parse, so the counter need not
    /// unwind precisely).
    fn enter_nested(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_NEST_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        Ok(())
    }

    fn leave_nested(&mut self) {
        self.depth -= 1;
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.pos >= self.text.len()
    }

    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    fn skip_ws(&mut self) {
        loop {
            let rest = self.rest();
            let trimmed = rest.trim_start();
            self.pos += rest.len() - trimmed.len();
            if self.rest().starts_with("//") {
                match self.rest().find('\n') {
                    Some(n) => self.pos += n + 1,
                    None => self.pos = self.text.len(),
                }
            } else {
                break;
            }
        }
    }

    fn peek_word(&mut self, word: &str) -> bool {
        self.skip_ws();
        let rest = self.rest();
        rest.starts_with(word)
            && rest[word.len()..]
                .chars()
                .next()
                .is_none_or(|c| !c.is_alphanumeric() && c != '_')
    }

    fn eat_word(&mut self, word: &str) -> bool {
        if self.peek_word(word) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn expect_word(&mut self, word: &str) -> Result<()> {
        if self.eat_word(word) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(p) {
            self.pos += p.len();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{p}`")))
        }
    }

    /// Consumes the run of alphanumerics, `_` and `extra` at the cursor.
    fn take_name(&mut self, extra: char) -> &'a str {
        let rest = self.rest();
        let end = rest
            .char_indices()
            .find(|&(_, c)| !c.is_alphanumeric() && c != '_' && c != extra)
            .map_or(rest.len(), |(i, _)| i);
        self.pos += end;
        &rest[..end]
    }

    fn ident(&mut self) -> Result<&'a str> {
        self.skip_ws();
        match self.take_name('_') {
            "" => Err(self.error("expected identifier")),
            name => Ok(name),
        }
    }

    fn value_name(&mut self) -> Result<&'a str> {
        self.expect_punct("%")?;
        match self.take_name('_') {
            "" => Err(self.error("expected value name after %")),
            name => Ok(name),
        }
    }

    fn integer(&mut self) -> Result<u64> {
        self.skip_ws();
        let rest = self.rest();
        let end = rest
            .char_indices()
            .find(|(_, c)| !c.is_ascii_digit())
            .map_or(rest.len(), |(i, _)| i);
        if end == 0 {
            return Err(self.error("expected integer"));
        }
        let n = rest[..end]
            .parse()
            .map_err(|_| self.error("integer out of range"))?;
        self.pos += end;
        Ok(n)
    }

    fn string_literal(&mut self) -> Result<String> {
        self.expect_punct("\"")?;
        let mut out = String::new();
        let mut chars = self.rest().char_indices();
        loop {
            let (i, c) = chars
                .next()
                .ok_or_else(|| self.error("unterminated string"))?;
            match c {
                '"' => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                '\\' => {
                    let (_, esc) = chars
                        .next()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    match esc {
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        '0' => out.push('\0'),
                        '\\' => out.push('\\'),
                        '"' => out.push('"'),
                        '\'' => out.push('\''),
                        'u' => {
                            // \u{HEX}: the printer uses Rust Debug escaping.
                            match chars.next() {
                                Some((_, '{')) => {}
                                _ => return Err(self.error("expected `{` after \\u")),
                            }
                            let mut code = 0u32;
                            loop {
                                let Some((i, c)) = chars.next() else {
                                    return Err(self.error("unterminated \\u escape"));
                                };
                                if c == '}' {
                                    let _ = i;
                                    break;
                                }
                                let digit = c
                                    .to_digit(16)
                                    .ok_or_else(|| self.error("bad hex in \\u escape"))?;
                                code = code
                                    .checked_mul(16)
                                    .and_then(|v| v.checked_add(digit))
                                    .ok_or_else(|| self.error("\\u escape out of range"))?;
                            }
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid \\u code point"))?,
                            );
                        }
                        other => {
                            return Err(self.error(format!("unknown escape `\\{other}`")));
                        }
                    }
                }
                other => out.push(other),
            }
        }
    }

    /// A `[a, b, ...]` list of items parsed by `item` (possibly empty).
    fn bracketed<T>(&mut self, mut item: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        self.expect_punct("[")?;
        let mut items = Vec::new();
        if self.eat_punct("]") {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_punct("]")?;
        Ok(items)
    }

    fn parse_type(&mut self) -> Result<Type> {
        self.enter_nested()?;
        let ty = self.parse_type_inner()?;
        self.leave_nested();
        Ok(ty)
    }

    fn parse_type_inner(&mut self) -> Result<Type> {
        self.skip_ws();
        if self.eat_punct("(") {
            let mut elems = Vec::new();
            if !self.eat_punct(")") {
                loop {
                    elems.push(self.parse_type()?);
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                self.expect_punct(")")?;
            }
            return Ok(Type::Tuple(elems));
        }
        let name = self.ident()?;
        match name {
            "void" => Ok(Type::Void),
            "bool" => Ok(Type::Bool),
            "u64" => Ok(Type::U64),
            "i64" => Ok(Type::I64),
            "f64" => Ok(Type::F64),
            "str" => Ok(Type::Str),
            "idx" => Ok(Type::Idx),
            "Seq" => {
                self.expect_punct("<")?;
                let elem = self.parse_type()?;
                self.expect_punct(">")?;
                Ok(Type::seq(elem))
            }
            "Set" => {
                let sel = self.parse_set_sel()?;
                self.expect_punct("<")?;
                let elem = self.parse_type()?;
                self.expect_punct(">")?;
                Ok(Type::set_with(elem, sel))
            }
            "Map" => {
                let sel = self.parse_map_sel()?;
                self.expect_punct("<")?;
                let key = self.parse_type()?;
                self.expect_punct(",")?;
                let val = self.parse_type()?;
                self.expect_punct(">")?;
                Ok(Type::map_with(key, val, sel))
            }
            other => Err(self.error(format!("unknown type `{other}`"))),
        }
    }

    fn parse_set_sel(&mut self) -> Result<SetSel> {
        if !self.eat_punct("{") {
            return Ok(SetSel::Auto);
        }
        let name = self.ident()?;
        // `Auto` is the empty selection, printed without braces.
        let sel = SetSel::from_name(name)
            .filter(|&s| s != SetSel::Auto)
            .ok_or_else(|| self.error(format!("unknown set selection `{name}`")))?;
        self.expect_punct("}")?;
        Ok(sel)
    }

    fn parse_map_sel(&mut self) -> Result<MapSel> {
        if !self.eat_punct("{") {
            return Ok(MapSel::Auto);
        }
        let name = self.ident()?;
        let sel = MapSel::from_name(name)
            .filter(|&s| s != MapSel::Auto)
            .ok_or_else(|| self.error(format!("unknown map selection `{name}`")))?;
        self.expect_punct("}")?;
        Ok(sel)
    }

    /// `enum eN: T`, named by the `// name` comment the printer writes
    /// after it, else by `eN`.
    fn enum_decl(&mut self) -> Result<EnumDecl> {
        self.expect_word("enum")?;
        let mut name = self.ident()?.to_string();
        self.expect_punct(":")?;
        let key_ty = self.parse_type()?;
        let line = self.rest().lines().next().unwrap_or_default();
        if let Some(comment) = line.trim_start().strip_prefix("//") {
            name = comment.trim().to_string();
        }
        Ok(EnumDecl { name, key_ty })
    }

    fn function(&mut self, ext: Externs<'_>) -> Result<Function> {
        self.expect_word("fn")?;
        self.expect_punct("@")?;
        self.skip_ws();
        // A function name may carry `$`: ADE names a clone `@f$ade`.
        let name = match self.take_name('$') {
            "" => return Err(self.error("expected function name")),
            name => name,
        };
        self.expect_punct("(")?;
        let mut ctx = FuncCtx {
            func: Function::new(name, Type::Void),
            names: HashMap::new(),
        };
        if !self.eat_punct(")") {
            loop {
                let pname = self.value_name()?.to_string();
                self.expect_punct(":")?;
                let pty = self.parse_type()?;
                let v = ctx.add_value(&pname, pty, ValueDef::Param(ctx.func.params.len()));
                ctx.func.params.push(v);
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        self.expect_punct("->")?;
        ctx.func.ret_ty = self.parse_type()?;
        ctx.func.exported = self.eat_word("exported");
        self.expect_punct("{")?;
        self.region_insts(ctx.func.body, &mut ctx, ext)?;
        Ok(ctx.func)
    }

    /// Parses instructions into `region` until the closing `}`.
    fn region_insts(
        &mut self,
        region: RegionId,
        ctx: &mut FuncCtx,
        ext: Externs<'_>,
    ) -> Result<()> {
        self.enter_nested()?;
        loop {
            self.skip_ws();
            if self.eat_punct("}") {
                self.leave_nested();
                return Ok(());
            }
            self.inst(region, ctx, ext)?;
        }
    }

    fn operand(&mut self, ctx: &FuncCtx) -> Result<Operand> {
        let off = self.pos;
        let name = self.value_name()?;
        let base = ctx.lookup(name, off)?;
        let mut path = Vec::new();
        loop {
            if self.rest().starts_with('[') {
                self.pos += 1;
                self.skip_ws();
                let scalar = if self.eat_word("end") {
                    Scalar::End
                } else if self.rest().starts_with('%') {
                    let off = self.pos;
                    let n = self.value_name()?;
                    Scalar::Value(ctx.lookup(n, off)?)
                } else {
                    Scalar::Const(self.integer()?)
                };
                self.expect_punct("]")?;
                path.push(Access::Index(scalar));
            } else if self.rest().starts_with('.')
                && self.rest()[1..].starts_with(|c: char| c.is_ascii_digit())
            {
                self.pos += 1;
                path.push(Access::Field(self.integer()? as u32));
            } else {
                break;
            }
        }
        Ok(Operand { base, path })
    }

    fn operand_list(&mut self, ctx: &FuncCtx) -> Result<Vec<Operand>> {
        let mut ops = Vec::new();
        self.skip_ws();
        if !self.rest().starts_with('%') {
            return Ok(ops);
        }
        loop {
            ops.push(self.operand(ctx)?);
            if !self.eat_punct(",") {
                break;
            }
        }
        Ok(ops)
    }

    fn const_val(&mut self) -> Result<ConstVal> {
        self.skip_ws();
        if self.rest().starts_with('"') {
            return Ok(ConstVal::Str(self.string_literal()?));
        }
        if self.eat_word("true") {
            return Ok(ConstVal::Bool(true));
        }
        if self.eat_word("false") {
            return Ok(ConstVal::Bool(false));
        }
        // A number and its type suffix: `3u64`, `-2i64`, `1.5f64`, and
        // the non-finite floats as `ConstVal`'s `Display` writes them
        // (`NaNf64`, `inff64`, `-inff64`).
        let rest = self.rest();
        let end = rest
            .find(|c: char| !c.is_ascii_alphanumeric() && c != '-' && c != '.')
            .unwrap_or(rest.len());
        let (number, suffix) = rest[..end].split_at(end.saturating_sub(3));
        let numeric = number
            .chars()
            .all(|c| c.is_ascii_digit() || "-.e".contains(c));
        let value = match suffix {
            "u64" => number.parse().ok().map(ConstVal::U64),
            "i64" => number.parse().ok().map(ConstVal::I64),
            "f64" => match number {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => number.parse().ok().filter(|_| numeric),
            }
            .map(ConstVal::F64),
            _ => return Err(self.error("constant needs u64/i64/f64 suffix")),
        };
        let value = value.ok_or_else(|| self.error(format!("bad {suffix} literal")))?;
        self.pos += end;
        Ok(value)
    }

    fn enum_ref(&mut self, ext: Externs<'_>) -> Result<EnumId> {
        let name = self.ident()?;
        let idx: usize = name
            .strip_prefix('e')
            .and_then(|d| d.parse().ok())
            .ok_or_else(|| self.error("expected enumeration reference eN"))?;
        if idx >= ext.enum_keys.len() {
            return Err(self.error(format!("enumeration e{idx} not declared")));
        }
        Ok(EnumId::from_index(idx))
    }

    fn directive_set(&mut self) -> Result<DirectiveSet> {
        // Caller consumed `#[`.
        let d = self.directive_items()?;
        self.expect_punct("]")?;
        Ok(d)
    }

    fn directive_items(&mut self) -> Result<DirectiveSet> {
        let mut d = DirectiveSet::new();
        loop {
            let word = self.ident()?;
            match word {
                "enumerate" => d.enumerate = Some(true),
                "noenumerate" => d.enumerate = Some(false),
                "noshare" => d.noshare = true,
                "group" => {
                    self.expect_punct("(")?;
                    d.share_group = Some(self.string_literal()?);
                    self.expect_punct(")")?;
                }
                "select" => {
                    self.expect_punct("(")?;
                    let sel = self.ident()?;
                    d.select = Some(
                        SelectionChoice::from_name(sel)
                            .ok_or_else(|| self.error(format!("unknown selection `{sel}`")))?,
                    );
                    self.expect_punct(")")?;
                }
                "nested" => {
                    self.expect_punct("(")?;
                    self.enter_nested()?;
                    d.nested = Some(Box::new(self.directive_items()?));
                    self.leave_nested();
                    self.expect_punct(")")?;
                }
                other => return Err(self.error(format!("unknown directive `{other}`"))),
            }
            if !self.eat_punct(",") {
                break;
            }
        }
        Ok(d)
    }

    /// Parses the `as (%a: T, ...)` region-argument header, creating the
    /// region and its argument values.
    fn region_args(&mut self, ctx: &mut FuncCtx) -> Result<RegionId> {
        let region = RegionId::from_index(ctx.func.regions.len());
        ctx.func.regions.push(Region::default());
        if self.eat_word("as") {
            self.expect_punct("(")?;
            let mut index = 0;
            loop {
                let name = self.value_name()?.to_string();
                self.expect_punct(":")?;
                let ty = self.parse_type()?;
                let v = ctx.add_value(&name, ty, ValueDef::RegionArg { region, index });
                ctx.func.regions[region.index()].args.push(v);
                index += 1;
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        Ok(region)
    }

    /// Appends `inst` to `region`, binding its results, typed by
    /// [`typing::signature`], to the names in `lhs`.
    fn finish_inst(
        &mut self,
        ctx: &mut FuncCtx,
        ext: Externs<'_>,
        region: RegionId,
        lhs: &[String],
        mut inst: Inst,
    ) -> Result<InstId> {
        let result_tys = typing::signature(&ctx.func, &inst, ext)
            .map_err(|e| self.error(e))?
            .results;
        if lhs.len() != result_tys.len() {
            return Err(self.error(format!(
                "instruction produces {} results but {} were bound",
                result_tys.len(),
                lhs.len()
            )));
        }
        let inst_id = InstId::from_index(ctx.func.insts.len());
        for (index, (name, ty)) in lhs.iter().zip(result_tys).enumerate() {
            let def = ValueDef::InstResult {
                inst: inst_id,
                index,
            };
            inst.results.push(ctx.add_value(name, ty, def));
        }
        ctx.func.insts.push(inst);
        ctx.func.regions[region.index()].insts.push(inst_id);
        Ok(inst_id)
    }

    fn inst(&mut self, region: RegionId, ctx: &mut FuncCtx, ext: Externs<'_>) -> Result<()> {
        // Optional results: `%a, %b = `.
        let mut lhs: Vec<String> = Vec::new();
        self.skip_ws();
        if self.rest().starts_with('%') {
            loop {
                let name = self.value_name()?.to_string();
                lhs.push(name);
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct("=")?;
        }

        let op = self.ident()?;
        let mut operands = Vec::new();
        let mut regions = Vec::new();
        let mut directive = None;
        let kind = match op {
            "const" => InstKind::Const(self.const_val()?),
            "new" => {
                let ty = self.parse_type()?;
                if self.eat_punct("#[") {
                    directive = Some(self.directive_set()?);
                }
                InstKind::New(ty)
            }
            "literal" => {
                let elems = match self.parse_type()? {
                    Type::U64 => LiteralData::U64(self.bracketed(Self::integer)?.into()),
                    Type::Str => LiteralData::Str(self.bracketed(Self::string_literal)?.into()),
                    other => {
                        let msg = format!("literal of {other}: elements are u64 or str");
                        return Err(self.error(msg));
                    }
                };
                let enumeration = if self.eat_word("enumadd") {
                    Some(self.enum_ref(ext)?)
                } else {
                    None
                };
                InstKind::Literal { elems, enumeration }
            }
            "cast" => {
                operands = self.operand_list(ctx)?;
                self.expect_word("to")?;
                InstKind::Cast(self.parse_type()?)
            }
            "call" => {
                self.expect_punct("@")?;
                let callee = FuncId::from_index(self.integer()? as usize);
                self.expect_punct("(")?;
                operands = self.operand_list(ctx)?;
                self.expect_punct(")")?;
                InstKind::Call(callee)
            }
            "enc" | "dec" | "enumadd" => {
                let e = self.enum_ref(ext)?;
                self.expect_punct(",")?;
                operands = self.operand_list(ctx)?;
                match op {
                    "enc" => InstKind::Enc(e),
                    "dec" => InstKind::Dec(e),
                    _ => InstKind::EnumAdd(e),
                }
            }
            "if" => {
                operands.push(self.operand(ctx)?);
                for word in ["then", "else"] {
                    self.expect_word(word)?;
                    self.expect_punct("{")?;
                    let branch = self.region_args(ctx)?;
                    self.region_insts(branch, ctx, ext)?;
                    regions.push(branch);
                }
                InstKind::If
            }
            "foreach" | "forrange" | "dowhile" => {
                let kind = match op {
                    "foreach" => InstKind::ForEach,
                    "forrange" => InstKind::ForRange,
                    _ => InstKind::DoWhile,
                };
                // The loop's own operands, then its carried values.
                for i in 0..typing::arity(&kind).0 {
                    if i > 0 {
                        self.expect_punct(",")?;
                    }
                    operands.push(self.operand(ctx)?);
                }
                if self.eat_word("carry") {
                    self.expect_punct("(")?;
                    operands.extend(self.operand_list(ctx)?);
                    self.expect_punct(")")?;
                }
                let body = self.region_args(ctx)?;
                self.expect_punct("{")?;
                self.region_insts(body, ctx, ext)?;
                regions.push(body);
                kind
            }
            "roi" => match self.ident()? {
                "begin" => InstKind::Roi(true),
                "end" => InstKind::Roi(false),
                other => return Err(self.error(format!("roi expects begin/end, got {other}"))),
            },
            other => {
                let kind = PLAIN_OPCODES
                    .iter()
                    .find(|k| k.opcode() == other)
                    .cloned()
                    .or_else(|| BinOp::from_name(other).map(InstKind::Bin))
                    .or_else(|| CmpOp::from_name(other).map(InstKind::Cmp))
                    .ok_or_else(|| self.error(format!("unknown opcode `{other}`")))?;
                operands = self.operand_list(ctx)?;
                kind
            }
        };
        let inst = Inst {
            kind,
            operands,
            regions,
            results: Vec::new(),
        };
        let id = self.finish_inst(ctx, ext, region, &lhs, inst)?;
        if let Some(d) = directive {
            ctx.func.directives.insert(id, d);
        }
        Ok(())
    }
}

/// Opcodes written as their mnemonic and an operand list, nothing else
/// (binary and comparison operators aside).
const PLAIN_OPCODES: [InstKind; 13] = [
    InstKind::Read,
    InstKind::Write,
    InstKind::Has,
    InstKind::Insert,
    InstKind::Remove,
    InstKind::Clear,
    InstKind::Size,
    InstKind::UnionInto,
    InstKind::Not,
    InstKind::Tuple,
    InstKind::Print,
    InstKind::Yield,
    InstKind::Ret,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::print::print_module;

    const HISTOGRAM: &str = r#"
fn @count(%input: Seq<f64>) -> void {
  %hist = new Map<f64, u64>
  %out = foreach %input carry(%hist) as (%i: u64, %val: f64, %h: Map<f64, u64>) {
    %cond = has %h, %val
    %h2, %freq = if %cond then {
      %f = read %h, %val
      yield %h, %f
    } else {
      %h1 = insert %h, %val
      %zero = const 0u64
      yield %h1, %zero
    }
    %one = const 1u64
    %freq1 = add %freq, %one
    %h3 = write %h2, %val, %freq1
    yield %h3
  }
  ret
}
"#;

    #[test]
    fn parses_histogram() {
        let m = parse_module(HISTOGRAM).expect("parses");
        assert_eq!(m.funcs.len(), 1);
        let f = &m.funcs[0];
        assert_eq!(f.name, "count");
        assert_eq!(f.regions.len(), 4); // body, foreach, then, else
        crate::verify::verify_module(&m).expect("verifies");
    }

    #[test]
    fn round_trips_through_printer() {
        let m = parse_module(HISTOGRAM).expect("parses");
        let printed = print_module(&m);
        let m2 = parse_module(&printed).expect("reparses");
        let printed2 = print_module(&m2);
        assert_eq!(printed, printed2);
    }

    /// A clone's `$`-suffixed name parses; value names and other
    /// identifiers still stop at `$`.
    #[test]
    fn function_names_may_carry_a_clone_suffix() {
        let text =
            "fn @main() -> void {\n  call @1()\n  ret\n}\n\nfn @f$ade() -> void {\n  ret\n}\n";
        let m = parse_module(text).expect("parses");
        assert_eq!(m.funcs[1].name, "f$ade");
        assert_eq!(print_module(&m), format!("{text}\n"));
        let err = parse_module("fn @f() -> void {\n  %a$b = const 1u64\n  ret\n}\n");
        assert!(err.is_err());
    }

    #[test]
    fn parses_enums_and_translations() {
        let text = r#"
enum e0: f64

fn @f(%x: f64) -> f64 {
  %i = enumadd e0, %x
  %j = enc e0, %x
  %same = eq %i, %j
  %y = dec e0, %i
  ret %y
}
"#;
        let m = parse_module(text).expect("parses");
        assert_eq!(m.enums.len(), 1);
        let f = &m.funcs[0];
        assert_eq!(f.value_ty(f.insts[3].results[0]), &Type::F64);
        crate::verify::verify_module(&m).expect("verifies");
    }

    #[test]
    fn parses_directives() {
        let text = r#"
fn @f() -> void {
  %s = new Set<u64> #[enumerate, noshare, group("g"), select(SparseBit)]
  ret
}
"#;
        let m = parse_module(text).expect("parses");
        let f = &m.funcs[0];
        let allocs = f.assoc_allocations();
        let d = f.directive(allocs[0]).expect("directive");
        assert_eq!(d.enumerate, Some(true));
        assert!(d.noshare);
        assert_eq!(d.share_group.as_deref(), Some("g"));
        assert_eq!(d.select, Some(SelectionChoice::SparseBit));
    }

    #[test]
    fn parses_nested_operands_and_selections() {
        let text = r#"
fn @f(%m: Map{Swiss}<u64, Set{Bit}<idx>>) -> void {
  %k = const 3u64
  %v = const 7u64
  %i = cast %v to idx
  %m2 = insert %m[%k], %i
  ret
}
"#;
        let m = parse_module(text).expect("parses");
        let f = &m.funcs[0];
        let ins = f
            .all_insts()
            .into_iter()
            .find(|&i| f.inst(i).kind == InstKind::Insert)
            .expect("insert");
        assert!(!f.inst(ins).operands[0].path.is_empty());
    }

    #[test]
    fn error_reports_undefined_value() {
        let text = "fn @f() -> void {\n  %y = add %x, %x\n  ret\n}\n";
        let err = parse_module(text).expect_err("should fail");
        assert!(err.message.contains("undefined value"), "{err}");
    }

    #[test]
    fn error_reports_unknown_opcode() {
        let text = "fn @f() -> void {\n  frobnicate\n  ret\n}\n";
        let err = parse_module(text).expect_err("should fail");
        assert!(err.message.contains("unknown opcode"), "{err}");
    }

    #[test]
    fn errors_carry_line_and_column() {
        let text = "fn @f() -> void {\n  %y = add %x, %x\n  ret\n}\n";
        let err = parse_module(text).expect_err("should fail");
        // `%x` first appears on line 2 at column 12.
        assert_eq!((err.line, err.col), (2, 12), "{err}");
        assert!(err.to_string().contains("line 2:12"), "{err}");
    }

    #[test]
    fn deep_type_nesting_errors_instead_of_overflowing() {
        let depth = 10_000;
        let text = format!(
            "fn @f() -> void {{\n  %s = new {}u64{}\n  ret\n}}\n",
            "Seq<".repeat(depth),
            ">".repeat(depth)
        );
        let err = parse_module(&text).expect_err("should fail");
        assert!(err.message.contains("nesting too deep"), "{err}");
    }

    #[test]
    fn deep_region_nesting_errors_instead_of_overflowing() {
        let depth = 10_000;
        let text = format!(
            "fn @f() -> void {{\n  %t = const true\n{}{}  ret\n}}\n",
            "  if %t then {\n".repeat(depth),
            "  } else { }\n".repeat(depth)
        );
        let err = parse_module(&text).expect_err("should fail");
        assert!(err.message.contains("nesting too deep"), "{err}");
    }

    #[test]
    fn read_from_non_collection_is_an_error_not_a_panic() {
        let text = "fn @f() -> void {\n  %x = const 1u64\n  %y = read %x, %x\n  ret\n}\n";
        let err = parse_module(text).expect_err("should fail");
        assert!(err.message.contains("not a collection"), "{err}");
    }

    #[test]
    fn bad_operand_path_is_an_error_not_a_panic() {
        let text = "fn @f() -> void {\n  %x = const 1u64\n  %y = read %x.3, %x\n  ret\n}\n";
        let err = parse_module(text).expect_err("should fail");
        assert!(err.message.contains("path does not apply"), "{err}");
    }

    #[test]
    fn binary_results_take_the_type_their_operand_path_reaches() {
        let text = r#"
fn @f(%t: (u64, u64)) -> u64 {
  %a = add %t.0, %t.1
  %one = const 1u64
  %b = add %a, %one
  ret %b
}
"#;
        let m = parse_module(text).expect("parses");
        let f = &m.funcs[0];
        assert_eq!(f.value_ty(f.insts[0].results[0]), &Type::U64);
        crate::verify::verify_module(&m).expect("verifies");
    }

    #[test]
    fn parses_literals() {
        let text = r#"
enum e0: u64

fn @f() -> void {
  %a = literal u64 [7, 0, 7]
  %b = literal str ["x", "tab\there"]
  %c = literal u64 [] enumadd e0
  ret
}
"#;
        let m = parse_module(text).expect("parses");
        let f = &m.funcs[0];
        let kinds: Vec<&InstKind> = f.insts.iter().map(|i| &i.kind).collect();
        assert_eq!(
            kinds[0],
            &InstKind::Literal {
                elems: LiteralData::from(&[7u64, 0, 7][..]),
                enumeration: None,
            }
        );
        assert_eq!(
            kinds[1],
            &InstKind::Literal {
                elems: LiteralData::from(&["x", "tab\there"][..]),
                enumeration: None,
            }
        );
        let tys: Vec<&Type> = f.insts[..3]
            .iter()
            .map(|i| f.value_ty(i.results[0]))
            .collect();
        assert_eq!(
            tys,
            [
                &Type::seq(Type::U64),
                &Type::seq(Type::Str),
                &Type::seq(Type::Idx)
            ]
        );
        crate::verify::verify_module(&m).expect("verifies");
        for bad in [
            "fn @f() -> void {\n  %a = literal f64 [1]\n  ret\n}\n",
            "fn @f() -> void {\n  %a = literal u64 [\"x\"]\n  ret\n}\n",
            "fn @f() -> void {\n  %a = literal u64 [1] enumadd e0\n  ret\n}\n",
        ] {
            assert!(parse_module(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn parses_calls_with_forward_reference() {
        let text = r#"
fn @main() -> u64 {
  %x = const 2u64
  %y = call @1(%x)
  ret %y
}

fn @double(%a: u64) -> u64 {
  %b = add %a, %a
  ret %b
}
"#;
        let m = parse_module(text).expect("parses");
        let f = &m.funcs[0];
        let call = f
            .all_insts()
            .into_iter()
            .find(|&i| matches!(f.inst(i).kind, InstKind::Call(_)))
            .expect("call");
        assert_eq!(f.value_ty(f.inst(call).results[0]), &Type::U64);
    }
}
