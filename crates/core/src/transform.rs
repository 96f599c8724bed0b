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

// Plain `std` Arc (not the `crate::sync` facade): the plan parts are
// immutable and carry no concurrency protocol to model-check.
use std::sync::Arc;

use optimatch_qep::{InputSource, JoinModifier, PredicateKind, Qep, StreamKind};
use optimatch_rdf::numeric::format_double;
use optimatch_rdf::{Graph, GraphBuilder, Term};

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

/// The stream predicate for a stream kind.
fn stream_predicate(kind: StreamKind) -> &'static str {
    match kind {
        StreamKind::Outer => names::HAS_OUTER_INPUT_STREAM,
        StreamKind::Inner => names::HAS_INNER_INPUT_STREAM,
        StreamKind::Generic => names::HAS_INPUT_STREAM,
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

fn typed_predicate_name(kind: PredicateKind) -> &'static str {
    match kind {
        PredicateKind::Join => names::HAS_JOIN_PREDICATE,
        PredicateKind::Sargable => names::HAS_SARGABLE_PREDICATE,
        PredicateKind::Residual => names::HAS_RESIDUAL_PREDICATE,
        PredicateKind::StartKey => names::HAS_START_KEY_PREDICATE,
        PredicateKind::StopKey => names::HAS_STOP_KEY_PREDICATE,
    }
}

/// Transform a QEP into its RDF graph (Algorithm 1).
///
/// Numeric values are asserted as plain literals in the plan-text
/// spelling (`"4043.0"`, `"1.93187e+06"`), exactly as the paper's
/// Figure 2 shows; the SPARQL layer coerces them numerically in FILTERs.
pub fn transform_qep(qep: &Qep) -> Graph {
    let mut g = GraphBuilder::new();

    // Operators and their scalar properties.
    for op in qep.ops.values() {
        let subject = vocab::pop(op.id);
        let lit = |v: f64| Term::lit_str(format_double(v));
        g.insert(
            subject.clone(),
            vocab::pred(names::HAS_POP_TYPE),
            Term::lit_str(op.op_type.mnemonic()),
        );
        g.insert(
            subject.clone(),
            vocab::pred(names::HAS_JOIN_TYPE),
            Term::lit_str(join_type_value(op.modifier)),
        );
        g.insert(
            subject.clone(),
            vocab::pred(names::HAS_OPERATOR_NUMBER),
            Term::lit_integer(i64::from(op.id)),
        );
        g.insert(
            subject.clone(),
            vocab::pred(names::HAS_ESTIMATE_CARDINALITY),
            lit(op.cardinality),
        );
        g.insert(
            subject.clone(),
            vocab::pred(names::HAS_TOTAL_COST),
            lit(op.total_cost),
        );
        g.insert(
            subject.clone(),
            vocab::pred(names::HAS_IO_COST),
            lit(op.io_cost),
        );
        g.insert(
            subject.clone(),
            vocab::pred(names::HAS_CPU_COST),
            lit(op.cpu_cost),
        );
        g.insert(
            subject.clone(),
            vocab::pred(names::HAS_FIRST_ROW_COST),
            lit(op.first_row_cost),
        );
        g.insert(
            subject.clone(),
            vocab::pred(names::HAS_BUFFERS),
            lit(op.buffers),
        );
        // Derived property (paper §2.1): cost of this operator alone.
        if let Some(increase) = qep.cost_increase(op.id) {
            g.insert(
                subject.clone(),
                vocab::pred(names::HAS_TOTAL_COST_INCREASE),
                lit(increase),
            );
        }
        // Operator-specific arguments become their own predicates.
        for (key, value) in &op.arguments {
            let sanitized: String = key
                .chars()
                .filter(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            g.insert(
                subject.clone(),
                vocab::pred(&format!("{}{}", names::ARG_PREFIX, sanitized)),
                Term::lit_str(value.clone()),
            );
        }
        // Applied predicates: one generic + one kind-specific assertion.
        for p in &op.predicates {
            g.insert(
                subject.clone(),
                vocab::pred(names::HAS_PREDICATE),
                Term::lit_str(p.text.clone()),
            );
            g.insert(
                subject.clone(),
                vocab::pred(typed_predicate_name(p.kind)),
                Term::lit_str(p.text.clone()),
            );
        }
    }

    // Base objects referenced by streams.
    for obj in qep.base_objects.values() {
        let subject = vocab::object(&obj.qualified_name());
        g.insert(
            subject.clone(),
            vocab::pred(names::IS_A_BASE_OBJ),
            Term::lit_str(obj.qualified_name()),
        );
        g.insert(
            subject.clone(),
            vocab::pred(names::HAS_OBJECT_TYPE),
            Term::lit_str(obj.kind.label()),
        );
        g.insert(
            subject.clone(),
            vocab::pred(names::HAS_SCHEMA_NAME),
            Term::lit_str(obj.schema.clone()),
        );
        g.insert(
            subject.clone(),
            vocab::pred(names::HAS_TABLE_NAME),
            Term::lit_str(obj.name.clone()),
        );
        g.insert(
            subject.clone(),
            vocab::pred(names::HAS_ESTIMATE_CARDINALITY),
            Term::lit_str(format_double(obj.cardinality)),
        );
        for col in &obj.columns {
            g.insert(
                subject.clone(),
                vocab::pred(names::HAS_COLUMN),
                Term::lit_str(col.clone()),
            );
        }
    }

    // Streams: parent → bnode → child with the stream predicate, and
    // hasOutputStream back edges (child → bnode → parent), as in Fig 6.
    let mut edge_counter = 0usize;
    for op in qep.ops.values() {
        let parent = vocab::pop(op.id);
        for stream in &op.inputs {
            let child = match &stream.source {
                InputSource::Op(id) => vocab::pop(*id),
                InputSource::Object(name) => vocab::object(name),
            };
            let child_label = match &stream.source {
                InputSource::Op(id) => format!("pop{id}"),
                InputSource::Object(name) => format!("obj_{}", name.replace('.', "_")),
            };
            // One blank node per *edge*: a subtree consumed twice by the
            // same parent still gets two distinct nodes.
            edge_counter += 1;
            let bnode = Term::bnode(format!(
                "bnodeOf{}_to_pop{}_e{}",
                child_label, op.id, edge_counter
            ));
            let p = vocab::pred(stream_predicate(stream.kind));
            g.insert(parent.clone(), p.clone(), bnode.clone());
            g.insert(bnode.clone(), p, child.clone());
            g.insert(
                child.clone(),
                vocab::pred(names::HAS_OUTPUT_STREAM),
                bnode.clone(),
            );
            g.insert(
                bnode.clone(),
                vocab::pred(names::HAS_OUTPUT_STREAM),
                parent.clone(),
            );
            g.insert(
                bnode,
                vocab::pred(names::HAS_STREAM_CARDINALITY),
                Term::lit_str(format_double(stream.estimated_rows)),
            );
        }
    }
    g.build()
}

/// Transform a whole workload (the batch loop of Algorithm 1).
pub fn transform_workload<'a>(qeps: impl IntoIterator<Item = &'a Qep>) -> Vec<TransformedQep> {
    qeps.into_iter()
        .map(|q| TransformedQep::new(q.clone()))
        .collect()
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
    fn transform_workload_batches() {
        let batch = transform_workload([fixtures::fig1(), fixtures::fig8()].iter());
        assert_eq!(batch.len(), 2);
        assert!(!batch[0].graph.is_empty());
        assert_eq!(batch[1].qep.id, "fig8");
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
