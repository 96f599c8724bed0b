//! Handler-variable generation — the paper's core SPARQL-generation
//! mechanism (§2.2).
//!
//! Four kinds of handler appear in generated queries (see its Figure 6):
//!
//! * **result handlers** — `?pop1`, `?pop2`, … — one per pattern pop,
//!   returned to the user (optionally aliased: `?pop1 AS ?TOP`);
//! * **internal handlers** — `?internalHandler1`, … — bind property
//!   values so `FILTER` clauses can compare them; "their identifiers are
//!   automatically incremented on the server";
//! * **relationship handlers** — the stream predicates connecting result
//!   handlers;
//! * **blank-node handlers** — `?bnodeOfPop2_to_pop1_1`, … (the paper's
//!   names with a count suffix) — match the transformation's blank
//!   nodes, ensuring "the uniqueness of each resource instance" when a
//!   subtree has several consumers.

/// Stateful generator of handler variable names for one compilation.
#[derive(Debug, Default)]
pub struct HandlerGen {
    internal_count: usize,
    bnode_count: usize,
}

impl HandlerGen {
    /// Fresh generator (counters at zero).
    pub fn new() -> HandlerGen {
        HandlerGen::default()
    }

    /// The result handler for a pattern pop id: `pop{id}` (no `?`).
    pub fn result(&self, pop_id: u32) -> String {
        format!("pop{pop_id}")
    }

    /// A fresh internal handler: `internalHandler{n}`, 1-based like the
    /// paper's example.
    pub fn internal(&mut self) -> String {
        self.internal_count += 1;
        format!("internalHandler{}", self.internal_count)
    }

    /// A blank-node handler for the edge child → parent:
    /// `bnodeOfPop{child}_to_pop{parent}_{n}`. Every name carries the
    /// suffix `n`, this generator's count of blank nodes so far, so
    /// repeated edges between the same pair (legal when a pattern
    /// constrains two parallel streams) get distinct handlers.
    pub fn bnode(&mut self, child: u32, parent: u32) -> String {
        self.bnode_count += 1;
        format!("bnodeOfPop{child}_to_pop{parent}_{}", self.bnode_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_handlers_follow_pop_ids() {
        let h = HandlerGen::new();
        assert_eq!(h.result(1), "pop1");
        assert_eq!(h.result(38), "pop38");
    }

    #[test]
    fn internal_handlers_increment() {
        let mut h = HandlerGen::new();
        assert_eq!(h.internal(), "internalHandler1");
        assert_eq!(h.internal(), "internalHandler2");
    }

    #[test]
    fn bnode_handlers_are_unique_even_for_repeated_edges() {
        let mut h = HandlerGen::new();
        let a = h.bnode(2, 1);
        let b = h.bnode(2, 1);
        assert_ne!(a, b);
        assert!(a.starts_with("bnodeOfPop2_to_pop1"));
    }
}
