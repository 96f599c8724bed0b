//! Algorithm 1: transforming QEPs into RDF graphs.
//!
//! Every operator becomes a resource carrying its properties as
//! predicates. Stream edges run through **blank nodes**: the parent links
//! to the blank node with the stream predicate, the blank node links on to
//! the child with the same predicate, and `hasOutputStream` edges run back
//! child → blank node → parent. This is the paper's §2.2 ambiguity fix —
//! a common subexpression (TEMP) consumed by several operators gets one
//! blank node *per consumer edge*, so each consumption is individually
//! addressable.
//!
//! Derived properties are computed during transformation; the paper's
//! example — `hasTotalCostIncrease`, the operator's cumulative cost minus
//! its operator inputs' — is emitted for every operator.

use std::fmt::Write;
// Plain `std` Arc (not the `crate::sync` facade): the plan parts are
// immutable and carry no concurrency protocol to model-check.
use std::sync::Arc;

use optimatch_qep::{InputSource, JoinModifier, PredicateKind, Qep, StreamKind};
use optimatch_rdf::numeric::format_double;
use optimatch_rdf::{Graph, GraphBuilder, Term, TermId};

use crate::vocab::{self, names};

/// A QEP together with its RDF graph — the unit the matcher works on.
/// Pruning probes the graph's own indexes, so nothing else is derived.
///
/// Immutable after construction. The plan and graph each sit behind an
/// `Arc`, so a clone copies two pointers, never the plan:
/// successive session snapshots share one copy of every resident plan
/// (an ingest's successor workload is the predecessor's pointers plus
/// the new plan), and dropping an old snapshot only decrements counts.
#[derive(Debug, Clone)]
pub struct TransformedQep {
    /// The source plan (kept for de-transformation and tagging context).
    pub qep: Arc<Qep>,
    /// The derived RDF graph.
    pub graph: Arc<Graph>,
}

impl TransformedQep {
    /// Shorthand: transform a plan.
    pub fn new(qep: Qep) -> TransformedQep {
        let graph = transform_qep(&qep);
        TransformedQep {
            qep: Arc::new(qep),
            graph: Arc::new(graph),
        }
    }
}

/// `name`'s index in `names::ALL`, which is its slot in
/// [`Transform::fixed`]. Evaluated at compile time, where a name outside
/// the vocabulary fails the build.
const fn slot(name: &str) -> usize {
    let mut i = 0;
    while i < names::ALL.len() {
        let (a, b) = (names::ALL[i].as_bytes(), name.as_bytes());
        let mut equal = a.len() == b.len();
        let mut j = 0;
        while equal && j < a.len() {
            equal = a[j] == b[j];
            j += 1;
        }
        if equal {
            return i;
        }
        i += 1;
    }
    panic!("not a fixed predicate")
}

const POP_TYPE: usize = slot(names::HAS_POP_TYPE);
const JOIN_TYPE: usize = slot(names::HAS_JOIN_TYPE);
const OPERATOR_NUMBER: usize = slot(names::HAS_OPERATOR_NUMBER);
const ESTIMATE_CARDINALITY: usize = slot(names::HAS_ESTIMATE_CARDINALITY);
const TOTAL_COST_INCREASE: usize = slot(names::HAS_TOTAL_COST_INCREASE);
const PREDICATE: usize = slot(names::HAS_PREDICATE);
const OUTPUT_STREAM: usize = slot(names::HAS_OUTPUT_STREAM);
const STREAM_CARDINALITY: usize = slot(names::HAS_STREAM_CARDINALITY);
const COLUMN: usize = slot(names::HAS_COLUMN);

/// An operator's numeric properties after its cardinality, in the order
/// they are asserted.
const COSTS: [usize; 5] = [
    slot(names::HAS_TOTAL_COST),
    slot(names::HAS_IO_COST),
    slot(names::HAS_CPU_COST),
    slot(names::HAS_FIRST_ROW_COST),
    slot(names::HAS_BUFFERS),
];

/// A base object's text properties, in the order they are asserted.
const DESCRIPTIONS: [usize; 4] = [
    slot(names::IS_A_BASE_OBJ),
    slot(names::HAS_OBJECT_TYPE),
    slot(names::HAS_SCHEMA_NAME),
    slot(names::HAS_TABLE_NAME),
];

/// The stream predicate for a stream kind.
fn stream_predicate(kind: StreamKind) -> usize {
    const OUTER: usize = slot(names::HAS_OUTER_INPUT_STREAM);
    const INNER: usize = slot(names::HAS_INNER_INPUT_STREAM);
    const GENERIC: usize = slot(names::HAS_INPUT_STREAM);
    match kind {
        StreamKind::Outer => OUTER,
        StreamKind::Inner => INNER,
        StreamKind::Generic => GENERIC,
    }
}

/// The `hasJoinType` lexical value for a modifier.
fn join_type_value(modifier: JoinModifier) -> &'static str {
    match modifier {
        JoinModifier::None => "INNER",
        JoinModifier::LeftOuter => "LEFT OUTER",
        JoinModifier::Anti => "ANTI",
        JoinModifier::FullOuter => "FULL OUTER",
    }
}

/// The kind-specific predicate for an applied predicate.
fn typed_predicate(kind: PredicateKind) -> usize {
    const JOIN: usize = slot(names::HAS_JOIN_PREDICATE);
    const SARGABLE: usize = slot(names::HAS_SARGABLE_PREDICATE);
    const RESIDUAL: usize = slot(names::HAS_RESIDUAL_PREDICATE);
    const START_KEY: usize = slot(names::HAS_START_KEY_PREDICATE);
    const STOP_KEY: usize = slot(names::HAS_STOP_KEY_PREDICATE);
    match kind {
        PredicateKind::Join => JOIN,
        PredicateKind::Sargable => SARGABLE,
        PredicateKind::Residual => RESIDUAL,
        PredicateKind::StartKey => START_KEY,
        PredicateKind::StopKey => STOP_KEY,
    }
}

/// One plan's graph under construction. Each distinct term is interned
/// once: an IRI is written into one reused buffer and looked up by
/// `&str`, a plain literal is looked up by its text, and only a new term
/// allocates. Term ids follow first occurrence (subject, predicate, then
/// object of each triple, in triple order), which the repository's term
/// tables record.
#[derive(Default)]
struct Transform {
    graph: GraphBuilder,
    /// The IRI or blank-node label being built.
    text: String,
    /// Each fixed predicate's id, by [`slot`], resolved at its first use:
    /// resolving one ahead of its first triple would renumber the plan.
    fixed: [Option<TermId>; names::ALL.len()],
}

impl Transform {
    /// The id of the fixed predicate in `slot`.
    fn fixed(&mut self, slot: usize) -> TermId {
        if let Some(id) = self.fixed[slot] {
            return id;
        }
        self.text.clear();
        self.text.push_str(vocab::PRED_NS);
        self.text.push_str(names::ALL[slot]);
        let id = self.graph.iri(&self.text);
        self.fixed[slot] = Some(id);
        id
    }

    /// The id of the `hasArg*` predicate of argument `key`: the key's
    /// ASCII letters, digits and underscores after the prefix.
    fn argument(&mut self, key: &str) -> TermId {
        self.text.clear();
        self.text.push_str(vocab::PRED_NS);
        self.text.push_str(names::ARG_PREFIX);
        let kept = key
            .chars()
            .filter(|c| c.is_ascii_alphanumeric() || *c == '_');
        self.text.extend(kept);
        self.graph.iri(&self.text)
    }

    /// The id of the resource of operator `id`.
    fn pop(&mut self, id: u32) -> TermId {
        self.text.clear();
        self.text.push_str(vocab::POP_NS);
        vocab::push_pop_local(&mut self.text, id);
        self.graph.iri(&self.text)
    }

    /// The id of the resource of the base object named `qualified`.
    fn object(&mut self, qualified: &str) -> TermId {
        self.text.clear();
        self.text.push_str(vocab::POP_NS);
        vocab::push_object_local(&mut self.text, qualified);
        self.graph.iri(&self.text)
    }

    /// The blank node of stream edge number `edge`, from `source` into
    /// operator `parent`: `bnodeOf{child}_to_{parent}_e{edge}` over the
    /// resources' local names. One node per *edge*, so a subtree
    /// consumed twice by the same parent still gets two distinct nodes.
    fn bnode(&mut self, source: &InputSource, parent: u32, edge: usize) -> TermId {
        self.text.clear();
        self.text.push_str("bnodeOf");
        match source {
            InputSource::Op(id) => vocab::push_pop_local(&mut self.text, *id),
            InputSource::Object(name) => vocab::push_object_local(&mut self.text, name),
        }
        self.text.push_str("_to_");
        vocab::push_pop_local(&mut self.text, parent);
        let _ = write!(self.text, "_e{edge}");
        self.graph.term(Term::bnode(self.text.as_str()))
    }

    /// The id of a number's plain literal in the plan-text spelling.
    fn number(&mut self, v: f64) -> TermId {
        self.graph.literal(&format_double(v))
    }

    /// Assert `(s, fixed predicate, o)`: `s` is interned already, the
    /// predicate is resolved next and `o` last.
    fn assert(&mut self, s: TermId, p: usize, o: impl FnOnce(&mut Transform) -> TermId) {
        let p = self.fixed(p);
        let o = o(self);
        self.graph.push([s, p, o]);
    }
}

/// Transform a QEP into its RDF graph (Algorithm 1).
///
/// Numeric values are asserted as plain literals in the plan-text
/// spelling (`"4043.0"`, `"1.93187e+06"`), exactly as the paper's
/// Figure 2 shows; the SPARQL layer coerces them numerically in FILTERs.
pub fn transform_qep(qep: &Qep) -> Graph {
    let mut t = Transform::default();

    // Operators and their scalar properties.
    for op in qep.ops.values() {
        let s = t.pop(op.id);
        t.assert(s, POP_TYPE, |t| t.graph.literal(op.op_type.mnemonic()));
        t.assert(s, JOIN_TYPE, |t| {
            t.graph.literal(join_type_value(op.modifier))
        });
        t.assert(s, OPERATOR_NUMBER, |t| {
            t.graph.term(Term::lit_integer(i64::from(op.id)))
        });
        t.assert(s, ESTIMATE_CARDINALITY, |t| t.number(op.cardinality));
        let costs = [
            op.total_cost,
            op.io_cost,
            op.cpu_cost,
            op.first_row_cost,
            op.buffers,
        ];
        for (p, v) in COSTS.into_iter().zip(costs) {
            t.assert(s, p, |t| t.number(v));
        }
        // Derived property (paper §2.1): cost of this operator alone.
        if let Some(increase) = qep.cost_increase(op.id) {
            t.assert(s, TOTAL_COST_INCREASE, |t| t.number(increase));
        }
        // Operator-specific arguments become their own predicates.
        for (key, value) in &op.arguments {
            let p = t.argument(key);
            let o = t.graph.literal(value);
            t.graph.push([s, p, o]);
        }
        // Applied predicates: one generic + one kind-specific assertion.
        for applied in &op.predicates {
            t.assert(s, PREDICATE, |t| t.graph.literal(&applied.text));
            let typed = typed_predicate(applied.kind);
            t.assert(s, typed, |t| t.graph.literal(&applied.text));
        }
    }

    // Base objects referenced by streams.
    for obj in qep.base_objects.values() {
        let qualified = obj.qualified_name();
        let s = t.object(&qualified);
        let descriptions = [qualified.as_str(), obj.kind.label(), &obj.schema, &obj.name];
        for (p, text) in DESCRIPTIONS.into_iter().zip(descriptions) {
            t.assert(s, p, |t| t.graph.literal(text));
        }
        t.assert(s, ESTIMATE_CARDINALITY, |t| t.number(obj.cardinality));
        for col in &obj.columns {
            t.assert(s, COLUMN, |t| t.graph.literal(col));
        }
    }

    // Streams: parent → bnode → child with the stream predicate, and
    // hasOutputStream back edges (child → bnode → parent), as in Fig 6.
    let mut edge_counter = 0usize;
    for op in qep.ops.values() {
        let parent = t.pop(op.id);
        for stream in &op.inputs {
            edge_counter += 1;
            let p = t.fixed(stream_predicate(stream.kind));
            let bnode = t.bnode(&stream.source, op.id, edge_counter);
            t.graph.push([parent, p, bnode]);
            let child = match &stream.source {
                InputSource::Op(id) => t.pop(*id),
                InputSource::Object(name) => t.object(name),
            };
            t.graph.push([bnode, p, child]);
            t.assert(child, OUTPUT_STREAM, |_| bnode);
            t.assert(bnode, OUTPUT_STREAM, |_| parent);
            t.assert(bnode, STREAM_CARDINALITY, |t| {
                t.number(stream.estimated_rows)
            });
        }
    }
    t.graph.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimatch_qep::fixtures;
    use optimatch_rdf::turtle::{to_turtle, PrefixMap};

    fn fig1_graph() -> Graph {
        transform_qep(&fixtures::fig1())
    }

    #[test]
    fn every_operator_becomes_a_resource() {
        let q = fixtures::fig1();
        let g = fig1_graph();
        for id in q.ops.keys() {
            let hits: Vec<_> = g
                .triples_matching(
                    Some(&vocab::pop(*id)),
                    Some(&vocab::pred(names::HAS_POP_TYPE)),
                    None,
                )
                .collect();
            assert_eq!(hits.len(), 1, "op {id}");
        }
    }

    #[test]
    fn figure2_properties_are_asserted() {
        let g = fig1_graph();
        // The paper's Fig 2: LOLEPOP #5 has type TBSCAN, total cost 15771,
        // cardinality 4043.
        assert!(g.contains(
            &vocab::pop(5),
            &vocab::pred(names::HAS_POP_TYPE),
            &Term::lit_str("TBSCAN")
        ));
        assert!(g.contains(
            &vocab::pop(5),
            &vocab::pred(names::HAS_TOTAL_COST),
            &Term::lit_str("15771.0")
        ));
        assert!(g.contains(
            &vocab::pop(5),
            &vocab::pred(names::HAS_ESTIMATE_CARDINALITY),
            &Term::lit_str("4043.0")
        ));
    }

    #[test]
    fn streams_route_through_blank_nodes() {
        let g = fig1_graph();
        // NLJOIN(2) --hasInnerInputStream--> bnode --same--> TBSCAN(5).
        let p = vocab::pred(names::HAS_INNER_INPUT_STREAM);
        let bnodes = g.objects_of(&vocab::pop(2), &p);
        assert_eq!(bnodes.len(), 1);
        let bnode = &bnodes[0];
        assert!(bnode.is_blank(), "stream edge must go through a blank node");
        assert_eq!(g.objects_of(bnode, &p), vec![vocab::pop(5)]);
        // Back edges exist.
        let out = vocab::pred(names::HAS_OUTPUT_STREAM);
        assert!(g.contains(&vocab::pop(5), &out, bnode));
        assert!(g.contains(bnode, &out, &vocab::pop(2)));
    }

    #[test]
    fn shared_subtree_gets_one_bnode_per_consumer() {
        // The §2.2 ambiguity scenario: TEMP consumed twice.
        use optimatch_qep::{InputStream, OpType, PlanOp};
        let mut q = Qep::new("cse");
        let mut join = PlanOp::new(1, OpType::HsJoin);
        for kind in [StreamKind::Outer, StreamKind::Inner] {
            join.inputs.push(InputStream {
                kind,
                source: InputSource::Op(2),
                estimated_rows: 5.0,
            });
        }
        q.insert_op(join);
        q.insert_op(PlanOp::new(2, OpType::Temp));
        let g = transform_qep(&q);

        let outer = g.objects_of(&vocab::pop(1), &vocab::pred(names::HAS_OUTER_INPUT_STREAM));
        let inner = g.objects_of(&vocab::pop(1), &vocab::pred(names::HAS_INNER_INPUT_STREAM));
        assert_eq!(outer.len(), 1);
        assert_eq!(inner.len(), 1);
        assert_ne!(outer[0], inner[0], "each consumption needs its own bnode");
    }

    #[test]
    fn base_objects_carry_descriptions() {
        let g = fig1_graph();
        let obj = vocab::object("BIGD.CUST_DIM");
        assert!(g.contains(
            &obj,
            &vocab::pred(names::IS_A_BASE_OBJ),
            &Term::lit_str("BIGD.CUST_DIM")
        ));
        assert!(g.contains(
            &obj,
            &vocab::pred(names::HAS_OBJECT_TYPE),
            &Term::lit_str("TABLE")
        ));
        let cols = g.objects_of(&obj, &vocab::pred(names::HAS_COLUMN));
        assert_eq!(cols.len(), 3);
    }

    #[test]
    fn derived_cost_increase_is_emitted() {
        let g = fig1_graph();
        let inc = g
            .object_of(&vocab::pop(2), &vocab::pred(names::HAS_TOTAL_COST_INCREASE))
            .unwrap();
        let v = inc.numeric_value().unwrap();
        assert!((v - 41.35).abs() < 0.01, "got {v}");
    }

    #[test]
    fn join_type_distinguishes_loj() {
        let g = transform_qep(&fixtures::fig7());
        assert!(g.contains(
            &vocab::pop(6),
            &vocab::pred(names::HAS_JOIN_TYPE),
            &Term::lit_str("LEFT OUTER")
        ));
        assert!(g.contains(
            &vocab::pop(7),
            &vocab::pred(names::HAS_JOIN_TYPE),
            &Term::lit_str("ANTI")
        ));
        assert!(g.contains(
            &vocab::pop(5),
            &vocab::pred(names::HAS_JOIN_TYPE),
            &Term::lit_str("INNER")
        ));
    }

    #[test]
    fn arguments_and_predicates_become_rdf() {
        let g = fig1_graph();
        assert!(g.contains(
            &vocab::pop(5),
            &vocab::pred("hasArgMAXPAGES"),
            &Term::lit_str("ALL")
        ));
        assert!(g.contains(
            &vocab::pop(2),
            &vocab::pred(names::HAS_JOIN_PREDICATE),
            &Term::lit_str("(Q2.CUST_ID = Q1.CUST_ID)")
        ));
        assert!(g.contains(
            &vocab::pop(2),
            &vocab::pred(names::HAS_PREDICATE),
            &Term::lit_str("(Q2.CUST_ID = Q1.CUST_ID)")
        ));
    }

    #[test]
    fn turtle_dump_resembles_figure_2() {
        let g = fig1_graph();
        let mut pm = PrefixMap::new();
        pm.add("popURI", vocab::POP_NS);
        pm.add("predURI", vocab::PRED_NS);
        let ttl = to_turtle(&g, &pm);
        assert!(ttl.contains("popURI:pop5"));
        assert!(ttl.contains("predURI:hasPopType"));
        assert!(ttl.contains("\"TBSCAN\""));
    }

    #[test]
    fn graph_size_scales_with_plan_size() {
        let small = transform_qep(&fixtures::fig8());
        let large = transform_qep(&fixtures::fig7());
        assert!(large.len() > small.len());
    }

    /// The numeric column a FILTER reads is each term's numeric value, on
    /// the figure plans and on a dozen generated ones.
    #[test]
    fn numeric_column_agrees_on_generated_plans() {
        let generated =
            optimatch_workload::generate_workload(&optimatch_workload::WorkloadConfig {
                seed: 12,
                num_qeps: 12,
                generator: optimatch_workload::GeneratorConfig::default(),
                injection: optimatch_workload::InjectionConfig::paper_rates(),
            });
        let plans = [fixtures::fig1(), fixtures::fig7(), fixtures::fig8()];
        let mut numeric = 0;
        for qep in plans.iter().chain(&generated.qeps) {
            let graph = transform_qep(qep);
            for (id, term) in graph.pool().iter() {
                assert_eq!(graph.number(id), term.numeric_value(), "{}: {term}", qep.id);
                numeric += usize::from(graph.number(id).is_some());
            }
        }
        assert!(numeric > 1000, "{numeric} numeric terms");
    }
}
