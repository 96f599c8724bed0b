//! One repository record: a QEP with its interned RDF graph, source
//! filename, and ground-truth labels.
//!
//! The graph is stored as its term table **in interning order** followed
//! by the triple list as `[u32; 3]` id triples. Re-interning the terms in
//! the stored order reproduces the exact same dense ids the transform
//! assigned, so a restored graph is indistinguishable from the original —
//! including iteration order, which downstream SPARQL evaluation (and
//! therefore scan-report bytes) depends on.
//!
//! Numeric plan fields are stored as raw IEEE-754 bit patterns, so costs
//! and cardinalities round-trip exactly rather than through a decimal
//! formatter.

use optimatch_qep::{
    BaseObject, BaseObjectKind, InputSource, InputStream, JoinModifier, OpType, PlanOp, Predicate,
    PredicateKind, Qep, StreamKind,
};
use optimatch_rdf::{Graph, IdTriple, Literal, Term, TermId};

use crate::wire::{put_f64, put_str, put_strs, put_u32, put_u64, put_u8, Cursor, WireError};

/// One persisted QEP: everything a warm session needs, no parsing or
/// transforming required.
#[derive(Debug, Clone)]
pub struct RepoRecord {
    /// The QEP id (always equal to `qep.id`; duplicated into the footer
    /// index so integrity errors can name the record).
    pub id: String,
    /// The plan file this record was ingested from (file name only).
    pub source_file: String,
    /// Ground-truth pattern labels from the workload manifest, if any.
    pub labels: Vec<String>,
    /// The source plan.
    pub qep: Qep,
    /// The transformed RDF graph.
    pub graph: Graph,
}

fn modifier_tag(m: JoinModifier) -> u8 {
    match m {
        JoinModifier::None => 0,
        JoinModifier::LeftOuter => 1,
        JoinModifier::Anti => 2,
        JoinModifier::FullOuter => 3,
    }
}

fn modifier_from(tag: u8) -> Result<JoinModifier, WireError> {
    Ok(match tag {
        0 => JoinModifier::None,
        1 => JoinModifier::LeftOuter,
        2 => JoinModifier::Anti,
        3 => JoinModifier::FullOuter,
        t => return Err(WireError(format!("unknown join-modifier tag {t}"))),
    })
}

fn stream_tag(k: StreamKind) -> u8 {
    match k {
        StreamKind::Outer => 0,
        StreamKind::Inner => 1,
        StreamKind::Generic => 2,
    }
}

fn stream_from(tag: u8) -> Result<StreamKind, WireError> {
    Ok(match tag {
        0 => StreamKind::Outer,
        1 => StreamKind::Inner,
        2 => StreamKind::Generic,
        t => return Err(WireError(format!("unknown stream-kind tag {t}"))),
    })
}

fn predicate_tag(k: PredicateKind) -> u8 {
    match k {
        PredicateKind::Join => 0,
        PredicateKind::Sargable => 1,
        PredicateKind::Residual => 2,
        PredicateKind::StartKey => 3,
        PredicateKind::StopKey => 4,
    }
}

fn predicate_from(tag: u8) -> Result<PredicateKind, WireError> {
    Ok(match tag {
        0 => PredicateKind::Join,
        1 => PredicateKind::Sargable,
        2 => PredicateKind::Residual,
        3 => PredicateKind::StartKey,
        4 => PredicateKind::StopKey,
        t => return Err(WireError(format!("unknown predicate-kind tag {t}"))),
    })
}

fn object_kind_tag(k: BaseObjectKind) -> u8 {
    match k {
        BaseObjectKind::Table => 0,
        BaseObjectKind::Index => 1,
    }
}

fn object_kind_from(tag: u8) -> Result<BaseObjectKind, WireError> {
    Ok(match tag {
        0 => BaseObjectKind::Table,
        1 => BaseObjectKind::Index,
        t => return Err(WireError(format!("unknown base-object-kind tag {t}"))),
    })
}

fn put_op(buf: &mut Vec<u8>, op: &PlanOp) {
    put_u32(buf, op.id);
    put_str(buf, op.op_type.mnemonic());
    put_u8(buf, modifier_tag(op.modifier));
    put_f64(buf, op.cardinality);
    put_f64(buf, op.total_cost);
    put_f64(buf, op.io_cost);
    put_f64(buf, op.cpu_cost);
    put_f64(buf, op.first_row_cost);
    put_f64(buf, op.buffers);
    put_u32(buf, op.arguments.len() as u32);
    for (k, v) in &op.arguments {
        put_str(buf, k);
        put_str(buf, v);
    }
    put_u32(buf, op.predicates.len() as u32);
    for p in &op.predicates {
        put_u8(buf, predicate_tag(p.kind));
        put_str(buf, &p.text);
    }
    put_u32(buf, op.inputs.len() as u32);
    for s in &op.inputs {
        put_u8(buf, stream_tag(s.kind));
        match &s.source {
            InputSource::Op(id) => {
                put_u8(buf, 0);
                put_u32(buf, *id);
            }
            InputSource::Object(name) => {
                put_u8(buf, 1);
                put_str(buf, name);
            }
        }
        put_f64(buf, s.estimated_rows);
    }
}

fn read_op(c: &mut Cursor<'_>) -> Result<PlanOp, WireError> {
    let id = c.u32("op id")?;
    let mnemonic = c.str("op type")?;
    let op_type: OpType = mnemonic
        .parse()
        .map_err(|e: String| WireError(format!("op #{id}: {e}")))?;
    let mut op = PlanOp::new(id, op_type);
    op.modifier = modifier_from(c.u8("op modifier")?)?;
    op.cardinality = c.f64("op cardinality")?;
    op.total_cost = c.f64("op total cost")?;
    op.io_cost = c.f64("op io cost")?;
    op.cpu_cost = c.f64("op cpu cost")?;
    op.first_row_cost = c.f64("op first-row cost")?;
    op.buffers = c.f64("op buffers")?;
    for _ in 0..c.count(8, "op arguments")? {
        let k = c.str("argument key")?;
        let v = c.str("argument value")?;
        op.arguments.insert(k, v);
    }
    for _ in 0..c.count(5, "op predicates")? {
        let kind = predicate_from(c.u8("predicate kind")?)?;
        let text = c.str("predicate text")?;
        op.predicates.push(Predicate { kind, text });
    }
    for _ in 0..c.count(10, "op inputs")? {
        let kind = stream_from(c.u8("stream kind")?)?;
        let source = match c.u8("stream source tag")? {
            0 => InputSource::Op(c.u32("stream source op")?),
            1 => InputSource::Object(c.str("stream source object")?),
            t => return Err(WireError(format!("unknown stream-source tag {t}"))),
        };
        let estimated_rows = c.f64("stream rows")?;
        op.inputs.push(InputStream {
            kind,
            source,
            estimated_rows,
        });
    }
    Ok(op)
}

fn put_qep(buf: &mut Vec<u8>, qep: &Qep) {
    put_str(buf, &qep.id);
    match &qep.statement {
        Some(s) => {
            put_u8(buf, 1);
            put_str(buf, s);
        }
        None => put_u8(buf, 0),
    }
    put_u32(buf, qep.ops.len() as u32);
    for op in qep.ops.values() {
        put_op(buf, op);
    }
    put_u32(buf, qep.base_objects.len() as u32);
    for obj in qep.base_objects.values() {
        put_str(buf, &obj.schema);
        put_str(buf, &obj.name);
        put_u8(buf, object_kind_tag(obj.kind));
        put_f64(buf, obj.cardinality);
        put_strs(buf, &obj.columns);
    }
}

fn read_qep(c: &mut Cursor<'_>) -> Result<Qep, WireError> {
    let id = c.str("qep id")?;
    let statement = match c.u8("statement flag")? {
        0 => None,
        1 => Some(c.str("statement")?),
        t => return Err(WireError(format!("unknown statement flag {t}"))),
    };
    let mut qep = Qep::new(id);
    qep.statement = statement;
    for _ in 0..c.count(55, "plan operators")? {
        qep.insert_op(read_op(c)?);
    }
    for _ in 0..c.count(21, "base objects")? {
        let schema = c.str("object schema")?;
        let name = c.str("object name")?;
        let kind = object_kind_from(c.u8("object kind")?)?;
        let cardinality = c.f64("object cardinality")?;
        let columns = c.strs("object columns")?;
        qep.insert_object(BaseObject {
            schema,
            name,
            kind,
            cardinality,
            columns,
        });
    }
    Ok(qep)
}

fn put_term(buf: &mut Vec<u8>, term: &Term) {
    match term {
        Term::Iri(i) => {
            put_u8(buf, 0);
            put_str(buf, i);
        }
        Term::BlankNode(b) => {
            put_u8(buf, 1);
            put_str(buf, b);
        }
        Term::Literal(Literal::Simple(s)) => {
            put_u8(buf, 2);
            put_str(buf, s);
        }
        Term::Literal(Literal::Typed { lexical, datatype }) => {
            put_u8(buf, 3);
            put_str(buf, lexical);
            put_str(buf, datatype);
        }
        Term::Literal(Literal::LangTagged { lexical, lang }) => {
            put_u8(buf, 4);
            put_str(buf, lexical);
            put_str(buf, lang);
        }
    }
}

fn read_term(c: &mut Cursor<'_>) -> Result<Term, WireError> {
    Ok(match c.u8("term tag")? {
        0 => Term::Iri(c.str("iri")?),
        1 => Term::BlankNode(c.str("bnode label")?),
        2 => Term::Literal(Literal::Simple(c.str("literal")?)),
        3 => Term::Literal(Literal::Typed {
            lexical: c.str("literal lexical")?,
            datatype: c.str("literal datatype")?,
        }),
        4 => Term::Literal(Literal::LangTagged {
            lexical: c.str("literal lexical")?,
            lang: c.str("literal language")?,
        }),
        t => return Err(WireError(format!("unknown term tag {t}"))),
    })
}

fn put_graph(buf: &mut Vec<u8>, graph: &Graph) {
    // A retired slot, always 0, kept so the record layout is unchanged.
    put_u64(buf, 0);
    put_u32(buf, graph.pool().len() as u32);
    for (_, term) in graph.pool().iter() {
        put_term(buf, term);
    }
    put_u32(buf, graph.len() as u32);
    for [s, p, o] in graph.iter_ids() {
        put_u32(buf, s.0);
        put_u32(buf, p.0);
        put_u32(buf, o.0);
    }
}

fn read_graph(c: &mut Cursor<'_>) -> Result<Graph, WireError> {
    c.u64("retired graph slot")?;
    let n_terms = c.count(5, "graph terms")?;
    let mut terms = Vec::with_capacity(n_terms);
    for _ in 0..n_terms {
        terms.push(read_term(c)?);
    }
    let n_triples = c.count(12, "graph triples")?;
    let raw = c.bytes(n_triples * 12, "graph triples")?;
    let triples: Vec<IdTriple> = raw
        .chunks_exact(12)
        .map(|ch| {
            [
                TermId(u32::from_le_bytes(ch[0..4].try_into().expect("4 bytes"))),
                TermId(u32::from_le_bytes(ch[4..8].try_into().expect("4 bytes"))),
                TermId(u32::from_le_bytes(ch[8..12].try_into().expect("4 bytes"))),
            ]
        })
        .collect();
    Graph::from_parts(terms, &triples).map_err(|e| WireError(e.to_string()))
}

impl RepoRecord {
    /// Encode the record to its payload bytes in the current format
    /// (checksummed by the store).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(4096);
        put_str(&mut buf, &self.id);
        put_str(&mut buf, &self.source_file);
        put_strs(&mut buf, &self.labels);
        put_qep(&mut buf, &self.qep);
        put_graph(&mut buf, &self.graph);
        buf
    }

    /// Decode a record from payload bytes (already CRC-verified by the
    /// store) written in format `version`. Version 1 records carry a
    /// pruning summary (predicates, operator types, operator count, max
    /// fan-in) after the labels; it is read and discarded, since pruning
    /// now probes the graph itself.
    pub fn decode(payload: &[u8], version: u8) -> Result<RepoRecord, WireError> {
        let mut c = Cursor::new(payload);
        let id = c.str("record id")?;
        let source_file = c.str("source file")?;
        let labels = c.strs("labels")?;
        if version == 1 {
            c.strs("v1 summary predicates")?;
            c.strs("v1 summary op types")?;
            c.u64("v1 summary op count")?;
            c.u64("v1 summary max fan-in")?;
        }
        let qep = read_qep(&mut c)?;
        let graph = read_graph(&mut c)?;
        if !c.at_end() {
            return Err(WireError(format!(
                "{} trailing byte(s) after record body",
                c.remaining()
            )));
        }
        if qep.id != id {
            return Err(WireError(format!(
                "record id {id:?} does not match plan id {:?}",
                qep.id
            )));
        }
        Ok(RepoRecord {
            id,
            source_file,
            labels,
            qep,
            graph,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::FORMAT_VERSION;
    use optimatch_qep::fixtures;
    use optimatch_rdf::GraphBuilder;

    fn decode(payload: &[u8]) -> Result<RepoRecord, WireError> {
        RepoRecord::decode(payload, FORMAT_VERSION)
    }

    /// The version-1 payload of `rec`: its current encoding with a
    /// pruning summary (predicates, operator types, operator count, max
    /// fan-in) after the labels, where the version-1 writer put it.
    fn v1_payload(rec: &RepoRecord) -> Vec<u8> {
        let mut buf = Vec::new();
        put_str(&mut buf, &rec.id);
        put_str(&mut buf, &rec.source_file);
        put_strs(&mut buf, &rec.labels);
        put_strs(&mut buf, &["http://x/p".to_string()]);
        put_strs(&mut buf, &["HSJOIN".to_string(), "TBSCAN".to_string()]);
        put_u64(&mut buf, rec.qep.op_count() as u64);
        put_u64(&mut buf, 2);
        put_qep(&mut buf, &rec.qep);
        put_graph(&mut buf, &rec.graph);
        buf
    }

    /// A graph with every term kind, built with a deliberately non-sorted
    /// interning order.
    fn sample_graph() -> Graph {
        let mut g = GraphBuilder::new();
        g.insert(
            Term::iri("http://x/b"),
            Term::iri("http://x/p"),
            Term::lit_str("TBSCAN"),
        );
        g.insert(
            Term::iri("http://x/a"),
            Term::iri("http://x/p"),
            Term::bnode("n0"),
        );
        g.insert(
            Term::iri("http://x/a"),
            Term::iri("http://x/q"),
            Term::lit_double(19.125),
        );
        g.insert(
            Term::iri("http://x/a"),
            Term::iri("http://x/q"),
            Term::Literal(Literal::LangTagged {
                lexical: "plan".into(),
                lang: "en".into(),
            }),
        );
        g.build()
    }

    fn sample_record() -> RepoRecord {
        let mut qep = fixtures::fig7();
        qep.statement = Some("SELECT *\nFROM \"T\"".into());
        RepoRecord {
            id: qep.id.clone(),
            source_file: "fig7.qep".into(),
            labels: vec!["pattern-b-loj-join-order".into()],
            qep,
            graph: sample_graph(),
        }
    }

    #[test]
    fn record_round_trips_exactly() {
        let rec = sample_record();
        let back = decode(&rec.encode()).unwrap();
        assert_eq!(back.id, rec.id);
        assert_eq!(back.source_file, rec.source_file);
        assert_eq!(back.labels, rec.labels);
        assert_eq!(back.qep, rec.qep);
        // The restored graph must match triple for triple *and* id for id
        // (interning order is part of the contract).
        assert_eq!(back.graph.len(), rec.graph.len());
        assert_eq!(
            back.graph.iter_ids().collect::<Vec<_>>(),
            rec.graph.iter_ids().collect::<Vec<_>>()
        );
        for (id, term) in rec.graph.pool().iter() {
            assert_eq!(back.graph.term(id), term);
        }
        // And re-encoding is byte-identical (canonical form).
        assert_eq!(back.encode(), rec.encode());
    }

    #[test]
    fn v1_payload_decodes_to_the_v2_record() {
        let rec = sample_record();
        let v1 = RepoRecord::decode(&v1_payload(&rec), 1).unwrap();
        let v2 = decode(&rec.encode()).unwrap();
        assert_eq!(
            (&v1.id, &v1.source_file, &v1.labels),
            (&v2.id, &v2.source_file, &v2.labels)
        );
        assert_eq!(v1.qep, v2.qep);
        assert_eq!(
            v1.graph.iter_ids().collect::<Vec<_>>(),
            v2.graph.iter_ids().collect::<Vec<_>>()
        );
        assert_eq!(v1.graph.pool().len(), v2.graph.pool().len());
        // Re-encoding a v1 record writes the v2 layout.
        assert_eq!(v1.encode(), rec.encode());
        // The layouts differ, so a payload decoded under the wrong
        // version is an error, never a silently different record.
        assert!(decode(&v1_payload(&rec)).is_err());
        assert!(RepoRecord::decode(&rec.encode(), 1).is_err());
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        let mut rec = sample_record();
        let op = rec.qep.ops.values_mut().next().unwrap();
        op.total_cost = 0.1 + 0.2; // not representable in short decimal
        op.cardinality = f64::MIN_POSITIVE;
        rec.id = rec.qep.id.clone();
        let back = decode(&rec.encode()).unwrap();
        let bop = back.qep.ops.values().next().unwrap();
        assert_eq!(bop.total_cost.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(bop.cardinality.to_bits(), f64::MIN_POSITIVE.to_bits());
    }

    #[test]
    fn every_fixture_round_trips() {
        for qep in [fixtures::fig1(), fixtures::fig7(), fixtures::fig8()] {
            let rec = RepoRecord {
                id: qep.id.clone(),
                source_file: format!("{}.qep", qep.id),
                labels: Vec::new(),
                qep,
                graph: Graph::default(),
            };
            let back = decode(&rec.encode()).unwrap();
            assert_eq!(back.qep, rec.qep);
        }
    }

    #[test]
    fn decode_rejects_mismatched_ids_and_trailing_bytes() {
        let rec = sample_record();
        let mut bytes = rec.encode();
        bytes.push(0);
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");

        let mut other = rec.clone();
        other.id = "someone-else".into();
        let err = decode(&other.encode()).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
    }

    #[test]
    fn decode_rejects_unknown_tags() {
        let rec = sample_record();
        let good = rec.encode();
        // Truncations at every prefix must error, never panic.
        for cut in 0..good.len().min(64) {
            assert!(decode(&good[..cut]).is_err(), "cut at {cut}");
        }
    }
}
