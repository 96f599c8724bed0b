//! Expression evaluation.
//!
//! SPARQL expression errors (type errors, unbound variables) are modeled as
//! `None`: a `FILTER` whose expression errors simply drops the row, which is
//! exactly the standard's behaviour.
//!
//! One deliberate extension (documented in the crate root): plain literals
//! whose lexical form parses as a number participate in numeric comparisons.
//! OptImatch stores costs and cardinalities as plain quoted strings (paper
//! Fig. 2) and filters them numerically (paper Fig. 6), so strict typed-only
//! comparison would make every generated filter a no-op.
//!
//! No term's text is parsed here: a [`TermRef`] carries its term's number,
//! read once — from the graph's numeric column or the evaluation's overlay
//! for a bound term, at translation for a query constant.

use std::borrow::Cow;
use std::cmp::Ordering;

use optimatch_rdf::term::xsd;
use optimatch_rdf::{Literal, Term, TermId};

use crate::algebra::CExpr;
use crate::ast::{ArithOp, Builtin, CmpOp};

/// A term an expression reads: a query constant, or the term a slot is
/// bound to, with its id.
#[derive(Debug, Clone, PartialEq)]
pub struct TermRef<'a> {
    /// The term (owned only when a builtin computed it).
    pub term: Cow<'a, Term>,
    /// Its id in the evaluation, when it is bound in the solution.
    pub id: Option<TermId>,
    /// Its [`Term::numeric_value`].
    pub number: Option<f64>,
}

impl<'a> TermRef<'a> {
    /// A term outside any solution, classified here.
    pub fn new(term: Cow<'a, Term>) -> TermRef<'a> {
        let number = term.numeric_value();
        TermRef {
            term,
            id: None,
            number,
        }
    }

    /// True when both are the same term. Equal ids are equal terms: the
    /// graph's pool and the evaluation's overlay are deduplicated and
    /// disjoint.
    fn same(&self, other: &TermRef<'_>) -> bool {
        match (self.id, other.id) {
            (Some(a), Some(b)) => a == b,
            _ => self.term == other.term,
        }
    }
}

/// The result of evaluating an expression for one row.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// An RDF term (borrowed from the graph, the overlay or the plan when
    /// possible).
    Term(TermRef<'a>),
    /// A computed number.
    Number(f64),
    /// A computed boolean.
    Boolean(bool),
    /// A computed string.
    Str(Cow<'a, str>),
}

impl<'a> Value<'a> {
    /// Coerce to a number, if the value is numeric (see module docs for the
    /// plain-literal extension).
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::Boolean(_) => None,
            Value::Str(s) => optimatch_rdf::numeric::parse_numeric(s),
            Value::Term(t) => t.number,
        }
    }

    /// The string form used by string builtins.
    pub fn as_str(&self) -> Option<Cow<'_, str>> {
        match self {
            Value::Str(s) => Some(Cow::Borrowed(s.as_ref())),
            Value::Number(n) => Some(Cow::Owned(optimatch_rdf::numeric::format_double(*n))),
            Value::Boolean(b) => Some(Cow::Borrowed(if *b { "true" } else { "false" })),
            Value::Term(t) => term_text(&t.term).map(Cow::Borrowed),
        }
    }

    /// SPARQL effective boolean value; `None` is a type error.
    pub fn effective_boolean(&self) -> Option<bool> {
        match self {
            Value::Boolean(b) => Some(*b),
            Value::Number(n) => Some(*n != 0.0 && !n.is_nan()),
            Value::Str(s) => Some(!s.is_empty()),
            Value::Term(t) => match t.term.as_ref() {
                Term::Literal(l) => {
                    if let Some(b) = l.boolean_value() {
                        Some(b)
                    } else if let Some(n) = t.number {
                        Some(n != 0.0 && !n.is_nan())
                    } else {
                        Some(!l.lexical().is_empty())
                    }
                }
                _ => None,
            },
        }
    }
}

/// A term's text as string builtins and ordering read it: an IRI's, a
/// literal's lexical form; a blank node has none.
pub(crate) fn term_text(term: &Term) -> Option<&str> {
    match term {
        Term::Iri(i) => Some(i.as_str()),
        Term::Literal(l) => Some(l.lexical()),
        Term::BlankNode(_) => None,
    }
}

/// Evaluate an expression for one row. `get` resolves a slot to its bound
/// term (`None` = unbound); `exists` evaluates an `EXISTS` subpattern by
/// its plan index against the current row (`None` when the expression
/// context has no subpattern support, which makes `EXISTS` an error).
/// `||`, `&&`, `!` and comparisons are decided by [`truth`].
pub fn eval_expr<'a>(
    expr: &'a CExpr,
    get: &impl Fn(usize) -> Option<TermRef<'a>>,
    exists: &impl Fn(usize) -> Option<bool>,
) -> Option<Value<'a>> {
    match expr {
        CExpr::Slot(_) | CExpr::Constant(..) => leaf(expr, get).flatten().map(Value::Term),
        CExpr::Exists(idx, positive) => {
            let found = exists(*idx)?;
            Some(Value::Boolean(found == *positive))
        }
        // Aggregate references are substituted away before evaluation
        // (grouped HAVING path); reaching one here is an error value.
        CExpr::AggregateRef(_) => None,
        CExpr::Or(..) | CExpr::And(..) | CExpr::Not(_) | CExpr::Compare(..) => {
            truth(expr, get, exists).map(Value::Boolean)
        }
        CExpr::Arith(op, a, b) => {
            let x = eval_expr(a, get, exists)?.as_number()?;
            let y = eval_expr(b, get, exists)?.as_number()?;
            let r = match op {
                ArithOp::Add => x + y,
                ArithOp::Sub => x - y,
                ArithOp::Mul => x * y,
                ArithOp::Div => {
                    if y == 0.0 {
                        return None;
                    }
                    x / y
                }
            };
            Some(Value::Number(r))
        }
        CExpr::Neg(a) => {
            let x = eval_expr(a, get, exists)?.as_number()?;
            Some(Value::Number(-x))
        }
        CExpr::Call(builtin, args) => eval_call(*builtin, args, get, exists),
    }
}

/// The effective boolean value of an expression for one row, `None` being
/// an error: what a FILTER keeps a row on. The boolean operators and
/// comparisons are evaluated here, in truth values, and a comparison of
/// two slots or constants reads their terms without building values.
pub fn truth<'a>(
    expr: &'a CExpr,
    get: &impl Fn(usize) -> Option<TermRef<'a>>,
    exists: &impl Fn(usize) -> Option<bool>,
) -> Option<bool> {
    match expr {
        // SPARQL || : true wins over error.
        CExpr::Or(a, b) => match (truth(a, get, exists), truth(b, get, exists)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        // SPARQL && : false wins over error.
        CExpr::And(a, b) => match (truth(a, get, exists), truth(b, get, exists)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        CExpr::Not(a) => truth(a, get, exists).map(|v| !v),
        CExpr::Compare(op, a, b) => {
            if let (Some(x), Some(y)) = (leaf(a, get), leaf(b, get)) {
                return compare_terms(*op, &x?, &y?);
            }
            let av = eval_expr(a, get, exists)?;
            let bv = eval_expr(b, get, exists)?;
            compare(*op, &av, &bv)
        }
        _ => eval_expr(expr, get, exists)?.effective_boolean(),
    }
}

/// A slot's bound term (`Some(None)` when unbound) or a constant; `None`
/// for any other expression.
fn leaf<'a>(
    expr: &'a CExpr,
    get: &impl Fn(usize) -> Option<TermRef<'a>>,
) -> Option<Option<TermRef<'a>>> {
    match expr {
        CExpr::Slot(s) => Some(get(*s)),
        CExpr::Constant(t, number) => Some(Some(TermRef {
            term: Cow::Borrowed(t),
            id: None,
            number: *number,
        })),
        _ => None,
    }
}

fn eval_call<'a>(
    builtin: Builtin,
    args: &'a [CExpr],
    get: &impl Fn(usize) -> Option<TermRef<'a>>,
    exists: &impl Fn(usize) -> Option<bool>,
) -> Option<Value<'a>> {
    // BOUND inspects bindings structurally, before evaluation.
    if builtin == Builtin::Bound {
        return match &args[0] {
            CExpr::Slot(s) => Some(Value::Boolean(get(*s).is_some())),
            _ => None,
        };
    }
    match builtin {
        Builtin::Str => {
            let v = eval_expr(&args[0], get, exists)?;
            let s = v.as_str()?.into_owned();
            Some(Value::Str(Cow::Owned(s)))
        }
        Builtin::Datatype => {
            let v = eval_expr(&args[0], get, exists)?;
            let Value::Term(t) = &v else { return None };
            let dt = match t.term.as_ref() {
                Term::Literal(Literal::Typed { datatype, .. }) => datatype.clone(),
                Term::Literal(Literal::Simple(_)) => xsd::STRING.to_string(),
                _ => return None,
            };
            Some(Value::Term(TermRef::new(Cow::Owned(Term::iri(dt)))))
        }
        Builtin::IsBlank | Builtin::IsIri | Builtin::IsLiteral => {
            let v = eval_expr(&args[0], get, exists)?;
            let Value::Term(t) = &v else {
                return Some(Value::Boolean(false));
            };
            Some(Value::Boolean(match builtin {
                Builtin::IsBlank => t.term.is_blank(),
                Builtin::IsIri => t.term.is_iri(),
                _ => t.term.is_literal(),
            }))
        }
        Builtin::IsNumeric => {
            let v = eval_expr(&args[0], get, exists)?;
            Some(Value::Boolean(v.as_number().is_some()))
        }
        Builtin::Regex => {
            let text = eval_expr(&args[0], get, exists)?;
            let pattern = eval_expr(&args[1], get, exists)?;
            let mut text = text.as_str()?.into_owned();
            let mut pattern = pattern.as_str()?.into_owned();
            if let Some(flags) = args.get(2) {
                let flags = eval_expr(flags, get, exists)?;
                if flags.as_str()?.contains('i') {
                    text = text.to_lowercase();
                    pattern = pattern.to_lowercase();
                }
            }
            Some(Value::Boolean(simple_regex_match(&text, &pattern)))
        }
        Builtin::Abs | Builtin::Ceil | Builtin::Floor => {
            let x = eval_expr(&args[0], get, exists)?.as_number()?;
            Some(Value::Number(match builtin {
                Builtin::Abs => x.abs(),
                Builtin::Ceil => x.ceil(),
                _ => x.floor(),
            }))
        }
        Builtin::StrStarts | Builtin::StrEnds | Builtin::Contains => {
            let a = eval_expr(&args[0], get, exists)?;
            let b = eval_expr(&args[1], get, exists)?;
            let a = a.as_str()?;
            let b = b.as_str()?;
            Some(Value::Boolean(match builtin {
                Builtin::StrStarts => a.starts_with(b.as_ref()),
                Builtin::StrEnds => a.ends_with(b.as_ref()),
                _ => a.contains(b.as_ref()),
            }))
        }
        Builtin::StrLen => {
            let v = eval_expr(&args[0], get, exists)?;
            let s = v.as_str()?;
            Some(Value::Number(s.chars().count() as f64))
        }
        Builtin::LCase | Builtin::UCase => {
            let v = eval_expr(&args[0], get, exists)?;
            let s = v.as_str()?;
            let out = if builtin == Builtin::LCase {
                s.to_lowercase()
            } else {
                s.to_uppercase()
            };
            Some(Value::Str(Cow::Owned(out)))
        }
        Builtin::NumericCast => {
            let x = eval_expr(&args[0], get, exists)?.as_number()?;
            Some(Value::Number(x))
        }
        Builtin::Bound => unreachable!("handled above"),
    }
}

/// Compare two values under a comparison operator; `None` is a type error.
pub fn compare(op: CmpOp, a: &Value<'_>, b: &Value<'_>) -> Option<bool> {
    if let (Value::Term(x), Value::Term(y)) = (a, b) {
        return compare_terms(op, x, y);
    }
    // Numeric comparison dominates when both sides coerce; a number
    // against a non-number is a type error, as for terms.
    let an = a.as_number();
    let bn = b.as_number();
    if let (Some(x), Some(y)) = (an, bn) {
        let ord = x.partial_cmp(&y)?;
        return Some(apply_ordering(op, ord));
    }
    if an.is_some() != bn.is_some() {
        return None;
    }
    match (a, b) {
        (Value::Boolean(x), Value::Boolean(y)) => Some(apply_ordering(op, x.cmp(y))),
        _ => {
            let xs = a.as_str()?;
            let ys = b.as_str()?;
            Some(apply_ordering(op, xs.cmp(&ys)))
        }
    }
}

/// [`compare`] on two terms: numbers compare as numbers, a number against
/// a non-number is a type error, and other terms compare by identity
/// (`=`, `!=`) or by their text.
fn compare_terms(op: CmpOp, x: &TermRef<'_>, y: &TermRef<'_>) -> Option<bool> {
    match (x.number, y.number) {
        (Some(a), Some(b)) => Some(apply_ordering(op, a.partial_cmp(&b)?)),
        // Mixed numeric / non-numeric operands have no defined order: a
        // type error (the row is dropped), matching SPARQL's cross-type
        // semantics — `"CUST_DIM" > 10` must not succeed lexically.
        (Some(_), None) | (None, Some(_)) => None,
        (None, None) => Some(match op {
            CmpOp::Eq => x.same(y),
            CmpOp::Neq => !x.same(y),
            // Order literals by lexical form, other terms by identity text.
            _ => apply_ordering(op, x.term.display_text().cmp(&y.term.display_text())),
        }),
    }
}

fn apply_ordering(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Neq => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

/// Ordering used by `ORDER BY`: unbound first, then numeric, then by term
/// text — a deterministic total order.
pub fn order_values(a: Option<&Value<'_>>, b: Option<&Value<'_>>) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => match (x.as_number(), y.as_number()) {
            (Some(n), Some(m)) => n.partial_cmp(&m).unwrap_or(Ordering::Equal),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => {
                let xs = x.as_str().unwrap_or(Cow::Borrowed(""));
                let ys = y.as_str().unwrap_or(Cow::Borrowed(""));
                xs.cmp(&ys)
            }
        },
    }
}

/// A tiny regex subset sufficient for the patterns OptImatch emits:
/// optional `^` / `$` anchors, `.` single-character wildcard, and `.*` gaps;
/// everything else matches literally.
pub fn simple_regex_match(text: &str, pattern: &str) -> bool {
    let (pattern, anchored_start) = match pattern.strip_prefix('^') {
        Some(rest) => (rest, true),
        None => (pattern, false),
    };
    let (pattern, anchored_end) = match pattern.strip_suffix('$') {
        Some(rest) => (rest, true),
        None => (pattern, false),
    };
    // Split on ".*" gaps.
    let segments: Vec<&str> = pattern.split(".*").collect();
    let text_chars: Vec<char> = text.chars().collect();

    // Match a segment (with `.` wildcards) at a fixed position.
    fn seg_matches_at(text: &[char], pos: usize, seg: &[char]) -> bool {
        if pos + seg.len() > text.len() {
            return false;
        }
        seg.iter()
            .zip(&text[pos..pos + seg.len()])
            .all(|(p, t)| *p == '.' || p == t)
    }

    // Find the first position >= from where the segment matches.
    fn seg_find(text: &[char], from: usize, seg: &[char]) -> Option<usize> {
        (from..=text.len().saturating_sub(seg.len())).find(|&pos| seg_matches_at(text, pos, seg))
    }

    let segs: Vec<Vec<char>> = segments.iter().map(|s| s.chars().collect()).collect();
    let mut pos = 0usize;
    for (i, seg) in segs.iter().enumerate() {
        if i == 0 && anchored_start {
            if !seg_matches_at(&text_chars, 0, seg) {
                return false;
            }
            pos = seg.len();
        } else {
            match seg_find(&text_chars, pos, seg) {
                Some(p) => pos = p + seg.len(),
                None => return false,
            }
        }
    }
    if anchored_end {
        // The final segment must end at the end of the text.
        let last = segs.last().map(|s| s.len()).unwrap_or(0);
        if segs.len() == 1 && anchored_start {
            return pos == text_chars.len();
        }
        // Re-check: last segment must match at the very end.
        let tail_start = text_chars.len().saturating_sub(last);
        if !seg_matches_at(&text_chars, tail_start, segs.last().unwrap_or(&Vec::new())) {
            return false;
        }
        if segs.len() == 1 && !anchored_start {
            return true;
        }
        return pos <= text_chars.len();
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(v: f64) -> CExpr {
        CExpr::constant(Term::lit_double(v))
    }

    fn no_exists(_: usize) -> Option<bool> {
        None
    }

    /// Evaluate with no bindings, returning an owned-ish snapshot.
    fn eval_unbound(e: &CExpr) -> Option<Value<'_>> {
        eval_expr(e, &|_: usize| None, &no_exists)
    }

    fn eval_bool(e: &CExpr) -> Option<bool> {
        eval_unbound(e).and_then(|v| v.effective_boolean())
    }

    #[test]
    fn numeric_comparison_across_literal_spellings() {
        // "1.93187e+06" > 100 — the paper's FILTER must see numbers.
        let e = CExpr::Compare(
            CmpOp::Gt,
            Box::new(CExpr::constant(Term::lit_str("1.93187e+06"))),
            Box::new(num(100.0)),
        );
        assert_eq!(eval_bool(&e), Some(true));
    }

    #[test]
    fn string_comparison_fallback() {
        let e = CExpr::Compare(
            CmpOp::Eq,
            Box::new(CExpr::constant(Term::lit_str("TBSCAN"))),
            Box::new(CExpr::constant(Term::lit_str("TBSCAN"))),
        );
        assert_eq!(eval_bool(&e), Some(true));
        let e = CExpr::Compare(
            CmpOp::Lt,
            Box::new(CExpr::constant(Term::lit_str("ABC"))),
            Box::new(CExpr::constant(Term::lit_str("ABD"))),
        );
        assert_eq!(eval_bool(&e), Some(true));
    }

    #[test]
    fn arithmetic_and_division_by_zero() {
        let e = CExpr::Arith(ArithOp::Add, Box::new(num(2.0)), Box::new(num(3.0)));
        assert_eq!(eval_unbound(&e).unwrap().as_number(), Some(5.0));
        let e = CExpr::Arith(ArithOp::Div, Box::new(num(1.0)), Box::new(num(0.0)));
        assert!(eval_unbound(&e).is_none());
    }

    #[test]
    fn and_or_error_semantics() {
        let err = CExpr::Slot(0); // unbound ⇒ error
        let t = CExpr::constant(Term::lit_bool(true));
        let f = CExpr::constant(Term::lit_bool(false));
        // true || error = true
        assert_eq!(
            eval_bool(&CExpr::Or(Box::new(t.clone()), Box::new(err.clone()))),
            Some(true)
        );
        // false && error = false
        assert_eq!(
            eval_bool(&CExpr::And(Box::new(f.clone()), Box::new(err.clone()))),
            Some(false)
        );
        // false || error = error
        assert_eq!(
            eval_bool(&CExpr::Or(Box::new(f), Box::new(err.clone()))),
            None
        );
        // true && error = error
        assert_eq!(eval_bool(&CExpr::And(Box::new(t), Box::new(err))), None);
    }

    #[test]
    fn bound_checks_binding_presence() {
        let term = Term::lit_str("x");
        let bound_fn = |s: usize| (s == 0).then(|| TermRef::new(Cow::Borrowed(&term)));
        let e0 = CExpr::Call(Builtin::Bound, vec![CExpr::Slot(0)]);
        let e1 = CExpr::Call(Builtin::Bound, vec![CExpr::Slot(1)]);
        assert_eq!(
            eval_expr(&e0, &bound_fn, &no_exists)
                .unwrap()
                .effective_boolean(),
            Some(true)
        );
        assert_eq!(
            eval_expr(&e1, &bound_fn, &no_exists)
                .unwrap()
                .effective_boolean(),
            Some(false)
        );
    }

    #[test]
    fn string_builtins() {
        let s = CExpr::constant(Term::lit_str("IXSCAN"));
        fn run(b: Builtin, args: Vec<CExpr>) -> Option<Value<'static>> {
            let call = Box::leak(Box::new(CExpr::Call(b, args)));
            eval_expr(call, &|_: usize| None, &no_exists)
        }
        assert_eq!(
            run(
                Builtin::Contains,
                vec![s.clone(), CExpr::constant(Term::lit_str("SCAN"))]
            )
            .unwrap()
            .effective_boolean(),
            Some(true)
        );
        assert_eq!(
            run(
                Builtin::StrStarts,
                vec![s.clone(), CExpr::constant(Term::lit_str("IX"))]
            )
            .unwrap()
            .effective_boolean(),
            Some(true)
        );
        assert_eq!(
            run(Builtin::StrLen, vec![s.clone()]).unwrap().as_number(),
            Some(6.0)
        );
        assert_eq!(
            run(Builtin::LCase, vec![s]).unwrap().as_str().unwrap(),
            "ixscan"
        );
    }

    #[test]
    fn datatype_builtin() {
        let e = CExpr::Call(
            Builtin::Datatype,
            vec![CExpr::constant(Term::lit_integer(1))],
        );
        let v = eval_unbound(&e).unwrap();
        let Value::Term(t) = v else { panic!() };
        assert_eq!(t.term.as_iri(), Some(xsd::INTEGER));
    }

    #[test]
    fn regex_subset() {
        assert!(simple_regex_match("HSJOIN", "JOIN"));
        assert!(simple_regex_match("HSJOIN", "^HS"));
        assert!(simple_regex_match("HSJOIN", "JOIN$"));
        assert!(simple_regex_match("HSJOIN", "^HSJOIN$"));
        assert!(!simple_regex_match("HSJOIN", "^JOIN"));
        assert!(!simple_regex_match("HSJOIN", "HS$"));
        assert!(simple_regex_match("NLJOIN", "N.JOIN"));
        assert!(simple_regex_match("abc-xyz", "abc.*xyz"));
        assert!(!simple_regex_match("abc", "abc.*xyz"));
        assert!(simple_regex_match("anything", ""));
    }

    #[test]
    fn order_values_total_order() {
        use std::cmp::Ordering::*;
        let n1 = Value::Number(1.0);
        let n2 = Value::Number(2.0);
        let s = Value::Str(Cow::Borrowed("x"));
        assert_eq!(order_values(Some(&n1), Some(&n2)), Less);
        assert_eq!(order_values(None, Some(&n1)), Less);
        assert_eq!(order_values(Some(&n1), Some(&s)), Less); // numbers first
        assert_eq!(order_values(Some(&s), Some(&s)), Equal);
    }
}
