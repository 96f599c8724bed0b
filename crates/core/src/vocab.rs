//! The RDF vocabulary OptImatch uses for transformed QEPs.
//!
//! Mirrors the paper's Figure 2: resources live under `popURI:`
//! (`http://optimatch/qep#`), predicates under `predURI:`
//! (`http://optimatch/pred#`). Predicates common to all operators
//! (cardinality, costs) coexist with operator-specific ones (per-argument
//! predicates like `hasArgMAXPAGES`) — RDF's schema freedom is exactly why
//! the paper picked it (§2.1).

use optimatch_rdf::Term;

/// Namespace for plan resources (operators, base objects).
pub const POP_NS: &str = "http://optimatch/qep#";
/// Namespace for predicates.
pub const PRED_NS: &str = "http://optimatch/pred#";

/// Build a full predicate IRI from its local name (`hasPopType` →
/// `http://optimatch/pred#hasPopType`).
pub fn pred_iri(local: &str) -> String {
    format!("{PRED_NS}{local}")
}

/// Predicate term from a local name.
pub fn pred(local: &str) -> Term {
    Term::iri(pred_iri(local))
}

/// Append the local name of operator `id`'s resource: `pop{id}`.
pub(crate) fn push_pop_local(out: &mut String, id: u32) {
    use std::fmt::Write;
    let _ = write!(out, "pop{id}");
}

/// Append the local name of a base object's resource: `obj_` and the
/// qualified name with each `.` replaced by `_`.
pub(crate) fn push_object_local(out: &mut String, qualified: &str) {
    out.push_str("obj_");
    out.extend(qualified.chars().map(|c| if c == '.' { '_' } else { c }));
}

/// The resource IRI for operator number `id`.
pub fn pop_iri(id: u32) -> String {
    let mut iri = POP_NS.to_string();
    push_pop_local(&mut iri, id);
    iri
}

/// The resource term for operator number `id`.
pub fn pop(id: u32) -> Term {
    Term::iri(pop_iri(id))
}

/// The resource IRI for a base object by qualified name.
pub fn object_iri(qualified: &str) -> String {
    let mut iri = POP_NS.to_string();
    push_object_local(&mut iri, qualified);
    iri
}

/// The resource term for a base object.
pub fn object(qualified: &str) -> Term {
    Term::iri(object_iri(qualified))
}

/// Parse an operator number back out of a `popN` resource IRI — the
/// de-transformation direction (Algorithm 3 step 6).
pub fn iri_to_pop_id(iri: &str) -> Option<u32> {
    iri.strip_prefix(POP_NS)?.strip_prefix("pop")?.parse().ok()
}

/// True when `iri` is [`object_iri`]`(qualified)`, compared without
/// building that IRI.
pub(crate) fn names_object(iri: &str, qualified: &str) -> bool {
    let local = iri
        .strip_prefix(POP_NS)
        .and_then(|local| local.strip_prefix("obj_"));
    local.is_some_and(|local| {
        local.len() == qualified.len()
            && local
                .bytes()
                .zip(qualified.bytes())
                .all(|(l, q)| l == if q == b'.' { b'_' } else { q })
    })
}

/// True when the IRI names a base-object resource.
pub fn is_object_iri(iri: &str) -> bool {
    iri.strip_prefix(POP_NS)
        .is_some_and(|local| local.starts_with("obj_"))
}

/// Local predicate names (the paper's Figure 2 vocabulary plus the
/// derived and object-description predicates described in §2.1).
pub mod names {
    /// Operator mnemonic, e.g. `"NLJOIN"` (modifier-free).
    pub const HAS_POP_TYPE: &str = "hasPopType";
    /// Join semantics: `"INNER"`, `"LEFT OUTER"`, `"ANTI"`, `"FULL OUTER"`.
    pub const HAS_JOIN_TYPE: &str = "hasJoinType";
    /// Operator number within the plan.
    pub const HAS_OPERATOR_NUMBER: &str = "hasOperatorNumber";
    /// Estimated output cardinality.
    pub const HAS_ESTIMATE_CARDINALITY: &str = "hasEstimateCardinality";
    /// Cumulative total cost.
    pub const HAS_TOTAL_COST: &str = "hasTotalCost";
    /// Cumulative I/O cost.
    pub const HAS_IO_COST: &str = "hasIOCost";
    /// Cumulative CPU cost.
    pub const HAS_CPU_COST: &str = "hasCpuCost";
    /// Cumulative first-row cost.
    pub const HAS_FIRST_ROW_COST: &str = "hasFirstRowCost";
    /// Estimated bufferpool buffers.
    pub const HAS_BUFFERS: &str = "hasBufferpoolBuffers";
    /// Derived: this operator's cost minus its operator inputs' costs
    /// (the paper's `hasTotalCostIncrease` example).
    pub const HAS_TOTAL_COST_INCREASE: &str = "hasTotalCostIncrease";
    /// Outer input stream (through a blank node).
    pub const HAS_OUTER_INPUT_STREAM: &str = "hasOuterInputStream";
    /// Inner input stream (through a blank node).
    pub const HAS_INNER_INPUT_STREAM: &str = "hasInnerInputStream";
    /// Generic input stream (through a blank node).
    pub const HAS_INPUT_STREAM: &str = "hasInputStream";
    /// Back edge child → blank node → parent.
    pub const HAS_OUTPUT_STREAM: &str = "hasOutputStream";
    /// Estimated rows on a stream (asserted on the blank node).
    pub const HAS_STREAM_CARDINALITY: &str = "hasStreamCardinality";
    /// Marks base objects; the value is the qualified object name.
    pub const IS_A_BASE_OBJ: &str = "isABaseObj";
    /// Base object kind: `"TABLE"` / `"INDEX"`.
    pub const HAS_OBJECT_TYPE: &str = "hasObjectType";
    /// Base object schema name.
    pub const HAS_SCHEMA_NAME: &str = "hasSchemaName";
    /// Base object bare name.
    pub const HAS_TABLE_NAME: &str = "hasTableName";
    /// A column of a base object (multi-valued).
    pub const HAS_COLUMN: &str = "hasColumn";
    /// Any applied predicate's text (multi-valued).
    pub const HAS_PREDICATE: &str = "hasPredicate";
    /// Join-predicate text.
    pub const HAS_JOIN_PREDICATE: &str = "hasJoinPredicate";
    /// Sargable (local) predicate text.
    pub const HAS_SARGABLE_PREDICATE: &str = "hasSargablePredicate";
    /// Residual predicate text.
    pub const HAS_RESIDUAL_PREDICATE: &str = "hasResidualPredicate";
    /// Start-key predicate text.
    pub const HAS_START_KEY_PREDICATE: &str = "hasStartKeyPredicate";
    /// Stop-key predicate text.
    pub const HAS_STOP_KEY_PREDICATE: &str = "hasStopKeyPredicate";
    /// Prefix for per-argument predicates: `hasArgMAXPAGES`, …
    pub const ARG_PREFIX: &str = "hasArg";

    /// Every fixed predicate local name the transform can emit. Per-argument
    /// predicates (`hasArg*`) are open-ended and therefore not listed; see
    /// [`super::is_known_property`].
    pub const ALL: [&str; 26] = [
        HAS_POP_TYPE,
        HAS_JOIN_TYPE,
        HAS_OPERATOR_NUMBER,
        HAS_ESTIMATE_CARDINALITY,
        HAS_TOTAL_COST,
        HAS_IO_COST,
        HAS_CPU_COST,
        HAS_FIRST_ROW_COST,
        HAS_BUFFERS,
        HAS_TOTAL_COST_INCREASE,
        HAS_OUTER_INPUT_STREAM,
        HAS_INNER_INPUT_STREAM,
        HAS_INPUT_STREAM,
        HAS_OUTPUT_STREAM,
        HAS_STREAM_CARDINALITY,
        IS_A_BASE_OBJ,
        HAS_OBJECT_TYPE,
        HAS_SCHEMA_NAME,
        HAS_TABLE_NAME,
        HAS_COLUMN,
        HAS_PREDICATE,
        HAS_JOIN_PREDICATE,
        HAS_SARGABLE_PREDICATE,
        HAS_RESIDUAL_PREDICATE,
        HAS_START_KEY_PREDICATE,
        HAS_STOP_KEY_PREDICATE,
    ];
}

/// True when `local` is a predicate the RDF transform can actually emit:
/// one of the fixed vocabulary names, or a per-argument predicate
/// (`hasArgMAXPAGES`, …) which are open-ended by design (§2.1).
pub fn is_known_property(local: &str) -> bool {
    names::ALL.contains(&local)
        || (local.len() > names::ARG_PREFIX.len() && local.starts_with(names::ARG_PREFIX))
}

/// True when `local` may carry several values on one resource (columns,
/// predicate texts, streams). Single-valued properties admit interval
/// reasoning over their conditions; multi-valued ones do not — two
/// different equalities on `hasColumn` are satisfiable simultaneously.
pub fn is_multi_valued(local: &str) -> bool {
    matches!(
        local,
        names::HAS_COLUMN
            | names::HAS_PREDICATE
            | names::HAS_JOIN_PREDICATE
            | names::HAS_SARGABLE_PREDICATE
            | names::HAS_RESIDUAL_PREDICATE
            | names::HAS_START_KEY_PREDICATE
            | names::HAS_STOP_KEY_PREDICATE
            | names::HAS_INPUT_STREAM
            | names::HAS_OUTER_INPUT_STREAM
            | names::HAS_INNER_INPUT_STREAM
            | names::HAS_OUTPUT_STREAM
    )
}

/// The three stream predicates, used to build descendant property paths.
pub const STREAM_PREDICATES: [&str; 3] = [
    names::HAS_INPUT_STREAM,
    names::HAS_OUTER_INPUT_STREAM,
    names::HAS_INNER_INPUT_STREAM,
];

/// The standard prefix declarations emitted at the top of generated
/// SPARQL queries (paper Figure 6 uses the same two prefixes).
pub fn sparql_prologue() -> String {
    format!("PREFIX popURI: <{POP_NS}>\nPREFIX predURI: <{PRED_NS}>\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_iri_round_trips() {
        for id in [1, 2, 38, 550] {
            assert_eq!(iri_to_pop_id(&pop_iri(id)), Some(id));
        }
        assert_eq!(iri_to_pop_id("http://other/pop5"), None);
        assert_eq!(iri_to_pop_id(&object_iri("BIGD.CUST_DIM")), None);
    }

    #[test]
    fn object_iris_are_recognizable() {
        let iri = object_iri("BIGD.CUST_DIM");
        assert!(is_object_iri(&iri));
        assert!(!is_object_iri(&pop_iri(3)));
        assert_eq!(iri, "http://optimatch/qep#obj_BIGD_CUST_DIM");
    }

    #[test]
    fn names_object_agrees_with_building_the_iri() {
        let names = ["BIGD.CUST_DIM", "BIGD_CUST.DIM", "BIGD.CUST", "", "Ä.b"];
        for iri in names.map(object_iri).iter().chain([&pop_iri(3)]) {
            for name in names {
                assert_eq!(
                    names_object(iri, name),
                    *iri == object_iri(name),
                    "{iri} {name}"
                );
            }
        }
    }

    #[test]
    fn predicates_live_in_pred_namespace() {
        assert_eq!(
            pred_iri(names::HAS_POP_TYPE),
            "http://optimatch/pred#hasPopType"
        );
        assert!(pred(names::HAS_TOTAL_COST).is_iri());
    }

    #[test]
    fn property_knowledge() {
        for name in names::ALL {
            assert!(is_known_property(name), "{name}");
        }
        assert!(is_known_property("hasArgMAXPAGES"));
        assert!(!is_known_property("hasArg"), "bare prefix is not a name");
        assert!(!is_known_property("hasFrobnication"));
        assert!(is_multi_valued(names::HAS_COLUMN));
        assert!(!is_multi_valued(names::HAS_ESTIMATE_CARDINALITY));
    }

    #[test]
    fn prologue_declares_both_prefixes() {
        let p = sparql_prologue();
        assert!(p.contains("PREFIX popURI:"));
        assert!(p.contains("PREFIX predURI:"));
    }
}
