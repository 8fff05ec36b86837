//! Example-driven transform synthesis: the one learner behind every
//! derived value in CopyCat — graph transform edges (the WebRelate-style
//! "join with transformation" step) and derived spreadsheet columns
//! (§5, "complex functions / transforms").
//!
//! A [`Program`] maps an input row (one or more column values) to one
//! output string. It is a concatenation of [`Piece`]s: literal
//! constants, token extractions (split / substring selection with
//! optional case folding over one trimmed column), and numeric
//! templates ([`Arith`]: `col ⊕ col`, `col ⊕ k`, the sum of the numeric
//! columns). [`learn`] induces the lowest-cost string program consistent
//! with a set of `(row, output)` examples (a graph edge); [`learn_ranked`]
//! returns the short list a derived-column suggestion offers.
//!
//! String programs come from a version-space-style joint dynamic
//! program: it walks all examples' output positions in lockstep, so any
//! piece it admits reproduces its span in *every* example, and the
//! returned program reproduces 100% of the training pairs by
//! construction. Numeric templates are whole-output candidates inferred
//! from the first example and kept only when [`Program::consistent`]
//! holds. In the ranked list a string program that reads the row comes
//! first, so values that merely look numeric keep their text form on
//! unseen rows (`concat(input, "0")` maps `"05"` to `"050"`, where
//! `col0 * 10` would print `50`), and a memorized constant is offered
//! only when nothing that reads the row fits.
//!
//! Enumeration is deterministic (fixed atom order, strict-improvement
//! tie-breaking) and bounded (memoized sub-programs over position
//! tuples with a hard state cap), so learning is replayable under the
//! serve journal: the same examples always yield byte-identical
//! programs, on any thread count.

use copycat_util::hash::FxHashMap;
use copycat_util::json::{FromJson, Json, JsonError, ToJson};
use std::fmt;

/// How an input string is tokenized before a piece selects one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tok {
    /// The whole trimmed input as a single token.
    Whole,
    /// Maximal runs of ASCII digits.
    Digits,
    /// Maximal runs of alphabetic characters.
    Alpha,
    /// Maximal runs of alphanumeric characters.
    Alnum,
    /// Split on whitespace (trimmed, empties dropped).
    Space,
    /// Split on `-`.
    Dash,
    /// Split on `.`.
    Dot,
    /// Split on `,`.
    Comma,
    /// Split on `/`.
    Slash,
}

/// Every tokenizer, in canonical enumeration order (learning order).
const ALL_TOKS: [Tok; 9] = [
    Tok::Whole,
    Tok::Digits,
    Tok::Alpha,
    Tok::Alnum,
    Tok::Space,
    Tok::Dash,
    Tok::Dot,
    Tok::Comma,
    Tok::Slash,
];

impl Tok {
    fn name(self) -> &'static str {
        match self {
            Tok::Whole => "input",
            Tok::Digits => "digits",
            Tok::Alpha => "alpha",
            Tok::Alnum => "alnum",
            Tok::Space => "word",
            Tok::Dash => "dash",
            Tok::Dot => "dot",
            Tok::Comma => "comma",
            Tok::Slash => "slash",
        }
    }

    fn parse(name: &str) -> Option<Tok> {
        ALL_TOKS.iter().copied().find(|t| t.name() == name)
    }

    /// Tokenize `input` (always over the trimmed string, so leading
    /// and trailing whitespace never leaks into any piece).
    fn tokenize(self, input: &str) -> Vec<String> {
        let input = input.trim();
        match self {
            Tok::Whole => {
                if input.is_empty() {
                    Vec::new()
                } else {
                    vec![input.to_string()]
                }
            }
            Tok::Digits => runs_of(input, |c| c.is_ascii_digit()),
            Tok::Alpha => runs_of(input, char::is_alphabetic),
            Tok::Alnum => runs_of(input, char::is_alphanumeric),
            Tok::Space => split_on(input, char::is_whitespace),
            Tok::Dash => split_on(input, |c| c == '-'),
            Tok::Dot => split_on(input, |c| c == '.'),
            Tok::Comma => split_on(input, |c| c == ','),
            Tok::Slash => split_on(input, |c| c == '/'),
        }
    }
}

/// Maximal runs of characters matching `pred`.
fn runs_of(input: &str, pred: impl Fn(char) -> bool) -> Vec<String> {
    let mut out = Vec::new();
    let mut run = String::new();
    for c in input.chars() {
        if pred(c) {
            run.push(c);
        } else if !run.is_empty() {
            out.push(std::mem::take(&mut run));
        }
    }
    if !run.is_empty() {
        out.push(run);
    }
    out
}

/// Split on separator characters, trimming pieces and dropping empties.
fn split_on(input: &str, sep: impl Fn(char) -> bool) -> Vec<String> {
    input
        .split(sep)
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(str::to_string)
        .collect()
}

/// Optional case folding applied to an extracted token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Case {
    /// Leave the token as extracted.
    Keep,
    /// Uppercase.
    Upper,
    /// Lowercase.
    Lower,
    /// First letter of each word uppercased, the rest lowercased.
    Title,
}

const ALL_CASES: [Case; 4] = [Case::Keep, Case::Upper, Case::Lower, Case::Title];

impl Case {
    fn name(self) -> &'static str {
        match self {
            Case::Keep => "keep",
            Case::Upper => "upper",
            Case::Lower => "lower",
            Case::Title => "title",
        }
    }

    fn parse(name: &str) -> Option<Case> {
        ALL_CASES.iter().copied().find(|c| c.name() == name)
    }

    fn apply(self, s: &str) -> String {
        match self {
            Case::Keep => s.to_string(),
            Case::Upper => s.to_uppercase(),
            Case::Lower => s.to_lowercase(),
            Case::Title => s
                .split(' ')
                .map(|w| {
                    let mut cs = w.chars();
                    match cs.next() {
                        Some(f) => {
                            f.to_uppercase().collect::<String>() + &cs.as_str().to_lowercase()
                        }
                        None => String::new(),
                    }
                })
                .collect::<Vec<_>>()
                .join(" "),
        }
    }
}

/// An arithmetic template over a row's numeric columns (cells that
/// parse as finite numbers after trimming).
#[derive(Debug, Clone, PartialEq)]
pub enum Arith {
    /// `col[a] op col[b]`, `op` one of `+ - * /`.
    ColCol { op: char, a: usize, b: usize },
    /// `col[col] op k`, `op` one of `+ - * /`.
    ColConst { op: char, col: usize, k: f64 },
    /// The sum of every numeric column.
    Sum,
}

/// The operators numeric templates enumerate, in canonical order.
const OPS: [char; 4] = ['+', '-', '*', '/'];

fn apply_op(op: char, a: f64, b: f64) -> Option<f64> {
    match op {
        '+' => Some(a + b),
        '-' => Some(a - b),
        '*' => Some(a * b),
        '/' => (b != 0.0).then(|| a / b),
        _ => None,
    }
}

fn parse_num(s: &str) -> Option<f64> {
    s.trim().parse::<f64>().ok().filter(|n| n.is_finite())
}

/// Render a numeric result: integral values without a fraction,
/// others with float noise trimmed to at most six decimals.
fn fmt_num(n: f64) -> String {
    if n.fract().abs() < 1e-9 && n.abs() < 1e15 {
        format!("{}", n.round() as i64)
    } else {
        let s = format!("{:.6}", n);
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

impl Arith {
    /// The template's value on `row`, `None` when a referenced column is
    /// missing or not numeric, or on division by zero.
    fn eval(&self, row: &[String]) -> Option<f64> {
        let num = |i: usize| parse_num(row.get(i)?);
        match self {
            Arith::ColCol { op, a, b } => apply_op(*op, num(*a)?, num(*b)?),
            Arith::ColConst { op, col, k } => apply_op(*op, num(*col)?, *k),
            Arith::Sum => Some(row.iter().filter_map(|s| parse_num(s)).sum()),
        }
    }
}

impl fmt::Display for Arith {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arith::ColCol { op, a, b } => write!(f, "col{a} {op} col{b}"),
            Arith::ColConst { op, col, k } => write!(f, "col{col} {op} {}", fmt_num(*k)),
            Arith::Sum => write!(f, "sum(all numeric columns)"),
        }
    }
}

/// One concatenated piece of a [`Program`].
#[derive(Debug, Clone, PartialEq)]
pub enum Piece {
    /// A literal string.
    Const(String),
    /// The `index`-th token of column `col`, tokenized by `tok` (from
    /// the end when `rev`), with `case` folding applied.
    Extract {
        col: usize,
        tok: Tok,
        index: usize,
        rev: bool,
        case: Case,
    },
    /// A numeric template: integral results print without a fraction,
    /// others with at most six decimals. Only [`learn_ranked`] proposes
    /// one, as a whole program.
    Arith(Arith),
}

// The only float, `Arith::ColConst::k`, is never NaN: the learner
// infers only finite constants and JSON cannot carry a NaN.
impl Eq for Piece {}

impl Piece {
    /// The piece's output on `row`, or `None` when the selected column
    /// or token does not exist (or a numeric template does not apply).
    pub fn apply(&self, row: &[String]) -> Option<String> {
        match self {
            Piece::Const(s) => Some(s.clone()),
            Piece::Extract {
                col,
                tok,
                index,
                rev,
                case,
            } => {
                let tokens = tok.tokenize(row.get(*col)?);
                let i = if *rev {
                    tokens.len().checked_sub(index + 1)?
                } else {
                    *index
                };
                tokens.get(i).map(|t| case.apply(t))
            }
            Piece::Arith(a) => a.eval(row).map(fmt_num),
        }
    }

    /// Write the piece; `qualified` names the column of every extraction
    /// (`col1.word[0]`), otherwise extractions read the sole input
    /// (`word[0]`).
    fn write(&self, f: &mut fmt::Formatter<'_>, qualified: bool) -> fmt::Result {
        match self {
            Piece::Const(s) => write!(f, "{:?}", s),
            Piece::Extract {
                col,
                tok,
                index,
                rev,
                case,
            } => {
                let idx = if *rev {
                    format!("-{}", index + 1)
                } else {
                    index.to_string()
                };
                let sel = match (qualified, *tok == Tok::Whole) {
                    (false, true) => tok.name().to_string(),
                    (false, false) => format!("{}[{idx}]", tok.name()),
                    (true, true) => format!("col{col}"),
                    (true, false) => format!("col{col}.{}[{idx}]", tok.name()),
                };
                match case {
                    Case::Keep => write!(f, "{sel}"),
                    other => write!(f, "{}({sel})", other.name()),
                }
            }
            Piece::Arith(a) => write!(f, "{a}"),
        }
    }
}

/// A learned transform: the concatenation of its pieces.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Concatenated left to right.
    pub pieces: Vec<Piece>,
}

impl Program {
    /// Run the program over an input row, `None` when any piece fails.
    pub fn apply(&self, row: &[String]) -> Option<String> {
        let mut out = String::new();
        for p in &self.pieces {
            out.push_str(&p.apply(row)?);
        }
        Some(out)
    }

    /// Piece count (the "size" term of edge costs).
    pub fn size(&self) -> usize {
        self.pieces.len()
    }

    /// Whether the program reproduces every `(row, output)` pair.
    pub fn consistent(&self, examples: &[(Vec<String>, String)]) -> bool {
        examples
            .iter()
            .all(|(i, o)| self.apply(i).as_deref() == Some(o.as_str()))
    }
}

/// Programs that extract only from column 0 render as they read a
/// single input (`concat("954-", word[-1])`); any other column makes
/// every extraction name its column (`concat(col1, ", ", col0)`).
impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let qualified = self
            .pieces
            .iter()
            .any(|p| matches!(p, Piece::Extract { col, .. } if *col != 0));
        if self.pieces.len() == 1 {
            return self.pieces[0].write(f, qualified);
        }
        write!(f, "concat(")?;
        for (i, p) in self.pieces.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            p.write(f, qualified)?;
        }
        write!(f, ")")
    }
}

fn usize_field(j: &Json, key: &str) -> Result<usize, JsonError> {
    Ok(j.field(key)?
        .as_f64()
        .ok_or_else(|| JsonError::expected(key, j))? as usize)
}

/// Column 0 is left out of the JSON, so one-column programs serialize
/// exactly as they did before rows had more than one column.
impl ToJson for Piece {
    fn to_json(&self) -> Json {
        let field = |k: &str, v: Json| (k.to_string(), v);
        let num = |n: usize| Json::Num(n as f64);
        match self {
            Piece::Const(s) => Json::obj(vec![field("const", Json::str(s.clone()))]),
            Piece::Extract {
                col,
                tok,
                index,
                rev,
                case,
            } => {
                let mut fields = Vec::with_capacity(5);
                if *col != 0 {
                    fields.push(field("col", num(*col)));
                }
                fields.extend([
                    field("tok", Json::str(tok.name())),
                    field("index", num(*index)),
                    field("rev", Json::Bool(*rev)),
                    field("case", Json::str(case.name())),
                ]);
                Json::obj(fields)
            }
            Piece::Arith(Arith::ColCol { op, a, b }) => Json::obj(vec![
                field("arith", Json::str(op.to_string())),
                field("a", num(*a)),
                field("b", num(*b)),
            ]),
            Piece::Arith(Arith::ColConst { op, col, k }) => Json::obj(vec![
                field("arith", Json::str(op.to_string())),
                field("col", num(*col)),
                field("k", Json::Num(*k)),
            ]),
            Piece::Arith(Arith::Sum) => Json::obj(vec![field("arith", Json::str("sum"))]),
        }
    }
}

impl FromJson for Piece {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        if let Some(s) = j.get("const").and_then(Json::as_str) {
            return Ok(Piece::Const(s.to_string()));
        }
        if let Some(op) = j.get("arith").and_then(Json::as_str) {
            if op == "sum" {
                return Ok(Piece::Arith(Arith::Sum));
            }
            let op = OPS
                .into_iter()
                .find(|c| op.len() == 1 && op.starts_with(*c))
                .ok_or_else(|| JsonError::expected("arithmetic operator", j))?;
            let arith = match j.get("k") {
                Some(k) => Arith::ColConst {
                    op,
                    col: usize_field(j, "col")?,
                    k: k.as_f64()
                        .ok_or_else(|| JsonError::expected("numeric constant", j))?,
                },
                None => Arith::ColCol {
                    op,
                    a: usize_field(j, "a")?,
                    b: usize_field(j, "b")?,
                },
            };
            return Ok(Piece::Arith(arith));
        }
        let col = match j.get("col") {
            Some(_) => usize_field(j, "col")?,
            None => 0,
        };
        let tok = j
            .field("tok")?
            .as_str()
            .and_then(Tok::parse)
            .ok_or_else(|| JsonError::expected("tokenizer name", j))?;
        let index = j
            .field("index")?
            .as_f64()
            .ok_or_else(|| JsonError::expected("token index", j))? as usize;
        let rev = j.field("rev")?.as_bool().unwrap_or(false);
        let case = j
            .field("case")?
            .as_str()
            .and_then(Case::parse)
            .ok_or_else(|| JsonError::expected("case name", j))?;
        Ok(Piece::Extract {
            col,
            tok,
            index,
            rev,
            case,
        })
    }
}

impl ToJson for Program {
    fn to_json(&self) -> Json {
        Json::obj(vec![(
            "pieces".to_string(),
            Json::Arr(self.pieces.iter().map(ToJson::to_json).collect()),
        )])
    }
}

impl FromJson for Program {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let pieces = j
            .field("pieces")?
            .as_array()
            .ok_or_else(|| JsonError::expected("pieces array", j))?
            .iter()
            .map(Piece::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Program { pieces })
    }
}

/// The edge cost a learned transform contributes to the source graph:
/// small programs trained with high example coverage price well under
/// the suggestion threshold; low coverage pushes an edge toward it.
/// `coverage` is the fraction of source values the program maps into
/// the target column's value set, in `[0, 1]`.
pub fn edge_cost(program: &Program, coverage: f64) -> f64 {
    let coverage = coverage.clamp(0.0, 1.0);
    (0.3 + 0.08 * program.size() as f64 + 1.5 * (1.0 - coverage)).max(0.05)
}

// Learner bounds. They keep joint-DP state far below the cap on
// realistic clipboard examples while guaranteeing termination on
// adversarial ones.

/// Highest token index enumerated (from either end).
const MAX_TOKEN_INDEX: usize = 4;
/// Longest literal constant enumerated per step.
const MAX_CONST_LEN: usize = 16;
/// Hard cap on memoized joint states; exceeded → learning fails.
const MAX_STATES: usize = 20_000;
/// Most programs [`learn_ranked`] returns.
const MAX_RANKED: usize = 3;

/// Induce the lowest-cost string program consistent with every
/// `(row, output)` example, or `None` when no bounded program exists.
/// This is the graph-edge learner: it never proposes a numeric template
/// and may memorize a constant when that is cheapest. Duplicate pairs
/// are tolerated; contradictory pairs (same row, different output)
/// always fail.
pub fn learn(examples: &[(Vec<String>, String)]) -> Option<Program> {
    joint_dp(examples, false)
}

/// Up to three programs consistent with every example, for a derived
/// column, in this order:
///
/// 1. the cheapest string program that reads the row: it extracts at
///    least once, and its literals are priced `2 + len` instead of
///    `0.5 + 0.1·len`, so one example generalizes instead of memorizing
///    (`fl → FL` learns `upper(input)`, not `"FL"`; `[Ann, Lopez] →
///    "Lopez, Ann"` learns `concat(col1, ", ", col0)`, not
///    `concat(col1, ", Ann")`);
/// 2. the numeric templates that fit. A numeric program never outranks
///    a string program, so a column whose values merely look numeric
///    keeps its formatting;
/// 3. only when nothing above fits, [`learn`]'s program (a memorized
///    constant).
pub fn learn_ranked(examples: &[(Vec<String>, String)]) -> Vec<Program> {
    let Some((first_row, first_out)) = examples.first() else {
        return Vec::new();
    };
    let mut ranked: Vec<Program> = joint_dp(examples, true).into_iter().collect();
    ranked.extend(
        numeric_templates(first_row, first_out)
            .into_iter()
            .map(|a| Program {
                pieces: vec![Piece::Arith(a)],
            })
            .filter(|p| p.consistent(examples)),
    );
    if ranked.is_empty() {
        ranked.extend(learn(examples));
    }
    ranked.truncate(MAX_RANKED);
    ranked
}

/// Numeric templates reproducing `output` from `row`, in ranking order:
/// the sum, then `col ⊕ col`, then `col ⊕ k` with `k` inferred from
/// this one example. Identities (`+ 0`, `- 0`, `* 1`, `/ 1`) are
/// skipped: they only restate a column the string DP already copies.
fn numeric_templates(row: &[String], output: &str) -> Vec<Arith> {
    let Some(out) = parse_num(output) else {
        return Vec::new();
    };
    let fits = |v: Option<f64>| v.is_some_and(|v| (v - out).abs() < 1e-9);
    let nums: Vec<(usize, f64)> = row
        .iter()
        .enumerate()
        .filter_map(|(i, s)| parse_num(s).map(|n| (i, n)))
        .collect();
    let mut found = Vec::new();
    if nums.len() >= 2 && fits(Some(nums.iter().map(|(_, n)| n).sum())) {
        found.push(Arith::Sum);
    }
    for &(a, va) in &nums {
        for &(b, vb) in &nums {
            if a == b {
                continue;
            }
            for op in OPS {
                if fits(apply_op(op, va, vb)) {
                    found.push(Arith::ColCol { op, a, b });
                }
            }
        }
    }
    for &(col, v) in &nums {
        for (op, k) in [
            ('+', out - v),
            ('-', v - out),
            ('*', out / v),
            ('/', v / out),
        ] {
            let neutral = if matches!(op, '+' | '-') { 0.0 } else { 1.0 };
            if k.is_finite() && (k - neutral).abs() >= 1e-9 && fits(apply_op(op, v, k)) {
                found.push(Arith::ColConst { op, col, k });
            }
        }
    }
    found
}

/// The joint DP's lowest-cost string program; with `reads_row`, the
/// cheapest one holding an extraction, under the derived-column literal
/// price (see [`learn_ranked`]).
fn joint_dp(examples: &[(Vec<String>, String)], reads_row: bool) -> Option<Program> {
    if examples.is_empty() {
        return None;
    }
    // Dedup while preserving order: joint-DP cost is exponential in
    // the example count, not the pair multiset.
    let mut pairs: Vec<(&[String], &str)> = Vec::new();
    for (i, o) in examples {
        if !pairs.contains(&(i.as_slice(), o.as_str())) {
            pairs.push((i.as_slice(), o.as_str()));
        }
    }
    // Pre-tokenize every column of every input once per tokenizer.
    let tokens = pairs
        .iter()
        .map(|(row, _)| {
            row.iter()
                .map(|cell| ALL_TOKS.iter().map(|&t| (t, t.tokenize(cell))).collect())
                .collect()
        })
        .collect();
    let mut dp = JointDp {
        outputs: pairs.iter().map(|(_, o)| *o).collect(),
        columns: pairs.iter().map(|(row, _)| row.len()).max().unwrap_or(0),
        tokens,
        reads_row,
        memo: Default::default(),
    };
    let start = vec![0usize; dp.outputs.len()];
    let best = dp.solve(&start, reads_row)?;
    Some(Program { pieces: best.1 })
}

/// One admissible atom at a joint state: the piece, its ranking cost,
/// and the per-example span lengths it produces there. Extractions are
/// preferred over constants for long spans; deep token indices and case
/// folds pay a small premium.
struct Step {
    piece: Piece,
    cost: f64,
    advance: Vec<usize>,
}

/// The joint dynamic program over all examples' output positions.
struct JointDp<'a> {
    outputs: Vec<&'a str>,
    /// Widest input row.
    columns: usize,
    /// `tokens[example][column][tok]`.
    tokens: Vec<Vec<FxHashMap<Tok, Vec<String>>>>,
    /// Price literals for a derived column rather than a graph edge.
    reads_row: bool,
    /// Memoized min-cost completions, indexed by whether an extraction
    /// is still owed; `None` marks a dead (or in-progress) state.
    memo: [FxHashMap<Vec<usize>, Option<(f64, Vec<Piece>)>>; 2],
}

impl JointDp<'_> {
    /// Memoized min-cost completion from a joint output-position state;
    /// with `must_extract`, only completions holding an extraction.
    fn solve(&mut self, state: &[usize], must_extract: bool) -> Option<(f64, Vec<Piece>)> {
        if state.iter().zip(&self.outputs).all(|(&p, o)| p == o.len()) {
            return (!must_extract).then(|| (0.0, Vec::new()));
        }
        let memo = usize::from(must_extract);
        if let Some(hit) = self.memo[memo].get(state) {
            return hit.clone();
        }
        if self.memo.iter().map(FxHashMap::len).sum::<usize>() >= MAX_STATES {
            return None;
        }
        // Mark in-progress to cut (impossible) cycles and over-budget
        // recursion; overwritten with the real answer below.
        self.memo[memo].insert(state.to_vec(), None);
        let mut best: Option<(f64, Vec<Piece>)> = None;
        for step in self.steps(state) {
            let next: Vec<usize> = state
                .iter()
                .zip(&step.advance)
                .map(|(&p, &a)| p + a)
                .collect();
            let owed = must_extract && !matches!(step.piece, Piece::Extract { .. });
            let Some((tail_cost, tail)) = self.solve(&next, owed) else {
                continue;
            };
            let cost = step.cost + tail_cost;
            // Strict improvement keeps the first atom in enumeration
            // order on ties — the determinism contract.
            if best.as_ref().is_none_or(|(c, _)| cost < *c - 1e-12) {
                let mut pieces = vec![step.piece];
                pieces.extend(tail);
                best = Some((cost, pieces));
            }
        }
        self.memo[memo].insert(state.to_vec(), best.clone());
        best
    }

    /// Every atom admissible at `state`, canonical order: extractions
    /// by (column, tokenizer, direction, index, case), then literal
    /// constants by length. Columns are outermost, so a one-column
    /// input enumerates exactly as a single-input learner would.
    fn steps(&self, state: &[usize]) -> Vec<Step> {
        let remaining: Vec<&str> = state
            .iter()
            .zip(&self.outputs)
            .map(|(&p, o)| &o[p..])
            .collect();
        let mut steps = Vec::new();
        for col in 0..self.columns {
            for &tok in &ALL_TOKS {
                for rev in [false, true] {
                    if tok == Tok::Whole && rev {
                        continue;
                    }
                    for index in 0..=MAX_TOKEN_INDEX {
                        for &case in &ALL_CASES {
                            let advance = remaining
                                .iter()
                                .zip(&self.tokens)
                                .map(|(rem, columns)| {
                                    let toks = &columns.get(col)?[&tok];
                                    let i = if rev {
                                        toks.len().checked_sub(index + 1)?
                                    } else {
                                        index
                                    };
                                    let v = case.apply(toks.get(i)?);
                                    (!v.is_empty() && rem.starts_with(&v)).then_some(v.len())
                                })
                                .collect::<Option<Vec<usize>>>();
                            if let Some(advance) = advance {
                                let piece = Piece::Extract {
                                    col,
                                    tok,
                                    index,
                                    rev,
                                    case,
                                };
                                let cost = 1.0
                                    + 0.05 * index as f64
                                    + if case == Case::Keep { 0.0 } else { 0.1 };
                                steps.push(Step {
                                    piece,
                                    cost,
                                    advance,
                                });
                            }
                        }
                    }
                }
            }
        }
        // Literal constants: prefixes of the longest common prefix of
        // all remaining outputs, taken at char boundaries.
        let mut common = remaining.first().copied().unwrap_or("");
        for rem in &remaining[1..] {
            let shared = common
                .char_indices()
                .zip(rem.chars())
                .take_while(|((_, a), b)| a == b)
                .last()
                .map(|((i, a), _)| i + a.len_utf8())
                .unwrap_or(0);
            common = &common[..shared];
        }
        for (n, (i, c)) in common.char_indices().enumerate() {
            if n >= MAX_CONST_LEN {
                break;
            }
            let len = i + c.len_utf8();
            steps.push(Step {
                piece: Piece::Const(common[..len].to_string()),
                cost: if self.reads_row {
                    2.0 + (n + 1) as f64
                } else {
                    0.5 + 0.1 * (n + 1) as f64
                },
                advance: vec![len; remaining.len()],
            });
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(cells: &[&str]) -> Vec<String> {
        cells.iter().map(|c| c.to_string()).collect()
    }

    /// One-column examples.
    fn ex(pairs: &[(&str, &str)]) -> Vec<(Vec<String>, String)> {
        pairs
            .iter()
            .map(|(i, o)| (row(&[i]), o.to_string()))
            .collect()
    }

    /// Multi-column examples.
    fn rows(pairs: &[(&[&str], &str)]) -> Vec<(Vec<String>, String)> {
        pairs.iter().map(|(i, o)| (row(i), o.to_string())).collect()
    }

    fn run(p: &Program, cells: &[&str]) -> Option<String> {
        p.apply(&row(cells))
    }

    #[test]
    fn learns_phone_reformat() {
        let examples = ex(&[
            ("(954) 555-1234", "954-555-1234"),
            ("(305) 555-9876", "305-555-9876"),
        ]);
        let p = learn(&examples).expect("learnable");
        assert!(p.consistent(&examples));
        assert_eq!(
            run(&p, &["(212) 555-0000"]).as_deref(),
            Some("212-555-0000")
        );
    }

    #[test]
    fn learns_dotted_phone() {
        let examples = ex(&[
            ("954.555.1234", "(954) 555-1234"),
            ("305.555.9876", "(305) 555-9876"),
        ]);
        let p = learn(&examples).expect("learnable");
        assert_eq!(
            run(&p, &["212.555.0000"]).as_deref(),
            Some("(212) 555-0000")
        );
    }

    #[test]
    fn learns_case_fold() {
        let examples = ex(&[("ACME SHELTER", "Acme Shelter"), ("OAK HOUSE", "Oak House")]);
        let p = learn(&examples).expect("learnable");
        assert_eq!(run(&p, &["RED BARN"]).as_deref(), Some("Red Barn"));
    }

    #[test]
    fn learns_date_reorder() {
        let examples = ex(&[("2009/01/05", "05-01-2009"), ("2010/11/30", "30-11-2010")]);
        let p = learn(&examples).expect("learnable");
        assert_eq!(run(&p, &["1999/12/31"]).as_deref(), Some("31-12-1999"));
    }

    #[test]
    fn lowest_cost_prefers_extraction_over_constants() {
        // A single shared token must learn as an extraction, not as a
        // memorized constant (constants cannot generalize).
        let examples = ex(&[("alpha", "alpha"), ("beta", "beta")]);
        let p = learn(&examples).expect("learnable");
        assert!(
            matches!(p.pieces.as_slice(), [Piece::Extract { .. }]),
            "expected one extraction, got {p}"
        );
        assert_eq!(run(&p, &["gamma"]).as_deref(), Some("gamma"));
    }

    #[test]
    fn contradictory_examples_fail() {
        let examples = ex(&[("same input", "out a"), ("same input", "out b")]);
        assert!(learn(&examples).is_none());
        assert!(learn_ranked(&examples).is_empty());
    }

    #[test]
    fn determinism_across_runs() {
        let examples = ex(&[
            ("(954) 555-1234", "954.555.1234"),
            ("(305) 555-9876", "305.555.9876"),
        ]);
        let first = learn(&examples).expect("learnable");
        for _ in 0..10 {
            assert_eq!(learn(&examples), Some(first.clone()));
        }
    }

    #[test]
    fn json_round_trip_and_display() {
        let examples = ex(&[
            ("(954) 555-1234", "954-555-1234"),
            ("(305) 555-9876", "305-555-9876"),
        ]);
        let p = learn(&examples).expect("learnable");
        let j = p.to_json();
        let back = Program::from_json(&j).expect("parses");
        assert_eq!(p, back);
        let rendered = p.to_string();
        assert!(rendered.contains("digits"), "human-readable: {rendered}");
    }

    #[test]
    fn json_round_trips_columns_and_numeric_pieces() {
        let p = Program {
            pieces: vec![
                Piece::Extract {
                    col: 2,
                    tok: Tok::Space,
                    index: 1,
                    rev: true,
                    case: Case::Lower,
                },
                Piece::Const("/".into()),
                Piece::Extract {
                    col: 0,
                    tok: Tok::Whole,
                    index: 0,
                    rev: false,
                    case: Case::Keep,
                },
            ],
        };
        let j = p.to_json().to_string();
        assert!(j.contains("\"col\":2"), "{j}");
        assert_eq!(j.matches("\"col\"").count(), 1, "column 0 is left out: {j}");
        assert_eq!(Program::from_json(&Json::parse(&j).unwrap()).unwrap(), p);
        for a in [
            Arith::ColCol {
                op: '-',
                a: 1,
                b: 0,
            },
            Arith::ColConst {
                op: '*',
                col: 0,
                k: 1.08,
            },
            Arith::Sum,
        ] {
            let p = Program {
                pieces: vec![Piece::Arith(a)],
            };
            assert_eq!(Program::from_json(&p.to_json()).unwrap(), p);
        }
    }

    #[test]
    fn edge_cost_orders_by_coverage_and_size() {
        let small = learn(&ex(&[("a-b", "a")])).expect("learnable");
        assert!(edge_cost(&small, 1.0) < edge_cost(&small, 0.5));
        let bigger = Program {
            pieces: vec![
                small.pieces[0].clone(),
                Piece::Const("-".into()),
                small.pieces[0].clone(),
            ],
        };
        assert!(edge_cost(&small, 1.0) < edge_cost(&bigger, 1.0));
    }

    #[test]
    fn unlearnable_pairs_fail_bounded() {
        // Output characters that appear nowhere in the input must be
        // memorized; differing consts across examples are inconsistent.
        let examples = ex(&[("aaa", "xyz"), ("bbb", "qrs")]);
        assert!(learn(&examples).is_none());
    }

    // Derived-column inputs: rows of several cells, numeric templates.

    #[test]
    fn concat_with_separator() {
        let both: &[(&[&str], &str)] = &[
            (&["Ann", "Lopez"], "Lopez, Ann"),
            (&["Bob", "Chen"], "Chen, Bob"),
        ];
        // One example generalizes too, although `concat(col1, ", Ann")`
        // is the cheapest program that fits it.
        for examples in [rows(both), rows(&both[..1])] {
            let programs = learn_ranked(&examples);
            let top = programs.first().expect("learned");
            assert_eq!(run(top, &["Maria", "Diaz"]).as_deref(), Some("Diaz, Maria"));
        }
    }

    #[test]
    fn last_token_extraction() {
        let programs = learn_ranked(&ex(&[
            ("Coconut Creek High School", "School"),
            ("Margate Civic Center", "Center"),
        ]));
        let top = programs.first().expect("learned");
        assert_eq!(run(top, &["Pompano Rec Hall"]).as_deref(), Some("Hall"));
    }

    #[test]
    fn from_start_vs_from_end_disambiguated() {
        // One example is ambiguous (token 0 == token -2 for 2-token
        // values); the second example settles it as from-start.
        let programs = learn_ranked(&ex(&[
            ("Coconut Creek", "Coconut"),
            ("Fort Lauderdale Beach", "Fort"),
        ]));
        let top = programs.first().expect("learned");
        assert_eq!(run(top, &["Boca Raton West"]).as_deref(), Some("Boca"));
    }

    #[test]
    fn case_transformation() {
        // One example must not memorize the constant "FL".
        for examples in [ex(&[("fl", "FL"), ("ga", "GA")]), ex(&[("fl", "FL")])] {
            let programs = learn_ranked(&examples);
            let top = programs.first().expect("learned");
            assert_eq!(run(top, &["tx"]).as_deref(), Some("TX"));
        }
    }

    #[test]
    fn templated_label() {
        let programs = learn_ranked(&rows(&[
            (&["Creek HS", "Margate"], "Creek HS (Margate)"),
            (&["Rec Ctr", "Tamarac"], "Rec Ctr (Tamarac)"),
        ]));
        let top = programs.first().expect("learned");
        assert_eq!(
            run(top, &["Civic", "Sunrise"]).as_deref(),
            Some("Civic (Sunrise)")
        );
    }

    #[test]
    fn arithmetic_column_pair() {
        let programs = learn_ranked(&rows(&[(&["100", "250"], "350"), (&["40", "2"], "42")]));
        let top = programs.first().expect("learned");
        assert_eq!(run(top, &["7", "8"]).as_deref(), Some("15"));
    }

    #[test]
    fn arithmetic_with_constant() {
        // An 8% tax: out = col0 * 1.08.
        let programs = learn_ranked(&ex(&[("100", "108"), ("200", "216")]));
        assert!(
            programs.iter().any(|p| matches!(
                p.pieces.as_slice(),
                [Piece::Arith(Arith::ColConst { op: '*', .. })]
            )),
            "{programs:?}"
        );
        let top = programs.first().expect("learned");
        assert_eq!(run(top, &["50"]).as_deref(), Some("54"));
        assert_eq!(top.to_string(), "col0 * 1.08");
    }

    #[test]
    fn inconsistent_examples_learn_nothing() {
        let programs = learn_ranked(&ex(&[
            ("a", "x"),
            ("a", "y"), // same input, different output
        ]));
        assert!(programs.is_empty(), "{programs:?}");
    }

    #[test]
    fn prefers_references_over_memorized_constants() {
        let programs = learn_ranked(&ex(&[("Margate", "Margate!"), ("Tamarac", "Tamarac!")]));
        let top = programs.first().expect("learned");
        // Must generalize, not memorize.
        assert_eq!(run(top, &["Sunrise"]).as_deref(), Some("Sunrise!"));
    }

    #[test]
    fn display_is_readable() {
        let p = Program {
            pieces: vec![
                Piece::Extract {
                    col: 0,
                    tok: Tok::Space,
                    index: 0,
                    rev: true,
                    case: Case::Upper,
                },
                Piece::Const(" of ".into()),
                Piece::Extract {
                    col: 1,
                    tok: Tok::Whole,
                    index: 0,
                    rev: false,
                    case: Case::Keep,
                },
            ],
        };
        assert_eq!(
            p.to_string(),
            "concat(upper(col0.word[-1]), \" of \", col1)"
        );
        // A program reading only column 0 renders as a single input.
        let single = Program {
            pieces: vec![p.pieces[0].clone(), p.pieces[1].clone()],
        };
        assert_eq!(single.to_string(), "concat(upper(word[-1]), \" of \")");
    }

    #[test]
    fn empty_examples() {
        assert!(learn_ranked(&[]).is_empty());
        assert!(learn(&[]).is_none());
    }

    #[test]
    fn missing_column_applies_to_none() {
        let p = Program {
            pieces: vec![Piece::Extract {
                col: 3,
                tok: Tok::Whole,
                index: 0,
                rev: false,
                case: Case::Keep,
            }],
        };
        assert_eq!(run(&p, &["only"]), None);
    }

    #[test]
    fn numeric_never_outranks_a_fitting_string_program() {
        // `col0 * 10` also fits, but the string program that fits the
        // same examples ranks first.
        let programs = learn_ranked(&ex(&[("10", "100"), ("20", "200")]));
        assert_eq!(programs[0].to_string(), "concat(input, \"0\")");
        assert_eq!(programs[1].to_string(), "col0 * 10");
        assert_eq!(run(&programs[0], &["05"]).as_deref(), Some("050"));
        assert!(programs[1..]
            .iter()
            .all(|p| matches!(p.pieces.as_slice(), [Piece::Arith(_)])));
    }
}
