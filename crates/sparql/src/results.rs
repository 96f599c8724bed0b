//! Solution tables returned by query evaluation.

use std::collections::HashMap;
use std::fmt;

use optimatch_rdf::Term;

/// A table of solutions: named columns, rows of optionally-bound terms.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultTable {
    vars: Vec<String>,
    index: HashMap<String, usize>,
    rows: Vec<Vec<Option<Term>>>,
}

impl ResultTable {
    /// Build a table from column names and rows (each row must have one
    /// entry per column).
    pub fn new(vars: Vec<String>, rows: Vec<Vec<Option<Term>>>) -> ResultTable {
        debug_assert!(rows.iter().all(|r| r.len() == vars.len()));
        let index = vars
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), i))
            .collect();
        ResultTable { vars, index, rows }
    }

    /// The projected column names, in order.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// The solution rows.
    pub fn rows(&self) -> &[Vec<Option<Term>>] {
        &self.rows
    }

    /// True when no solutions were found.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of solutions.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// The binding of `var` in row `row`, if bound.
    pub fn get(&self, row: usize, var: &str) -> Option<&Term> {
        let col = *self.index.get(var)?;
        self.rows.get(row)?.get(col)?.as_ref()
    }

    /// Iterate rows as `(var, term)` binding maps.
    pub fn iter_bindings(&self) -> impl Iterator<Item = HashMap<&str, &Term>> {
        self.rows.iter().map(move |row| {
            self.vars
                .iter()
                .zip(row)
                .filter_map(|(v, t)| t.as_ref().map(|t| (v.as_str(), t)))
                .collect()
        })
    }
}

impl fmt::Display for ResultTable {
    /// Render as a TSV block with a header line — handy in examples and for
    /// eyeballing matches.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.vars.iter().enumerate() {
            if i > 0 {
                write!(f, "\t")?;
            }
            write!(f, "?{v}")?;
        }
        writeln!(f)?;
        for row in &self.rows {
            for (i, t) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, "\t")?;
                }
                match t {
                    Some(t) => write!(f, "{}", t.display_text())?,
                    None => write!(f, "-")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ResultTable {
        ResultTable::new(
            vec!["TOP".into(), "BASE4".into()],
            vec![
                vec![Some(Term::iri("q:pop2")), Some(Term::lit_str("CUST_DIM"))],
                vec![Some(Term::iri("q:pop7")), None],
            ],
        )
    }

    #[test]
    fn accessors() {
        let t = table();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.get(0, "TOP"), Some(&Term::iri("q:pop2")));
        assert_eq!(t.get(1, "BASE4"), None);
        assert_eq!(t.get(0, "missing"), None);
    }

    #[test]
    fn binding_iteration_skips_unbound() {
        let t = table();
        let rows: Vec<_> = t.iter_bindings().collect();
        assert_eq!(rows[0].len(), 2);
        assert_eq!(rows[1].len(), 1);
        assert_eq!(rows[1]["TOP"], &Term::iri("q:pop7"));
    }

    #[test]
    fn display_renders_tsv() {
        let s = table().to_string();
        assert!(s.starts_with("?TOP\t?BASE4\n"));
        assert!(s.contains("q:pop7\t-"));
    }
}
