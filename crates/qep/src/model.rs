//! The query-execution-plan data model.
//!
//! A [`Qep`] is a numbered set of plan operators ([`PlanOp`], the paper's
//! LOLEPOPs) connected by typed input streams, plus the base objects
//! (tables / indexes) the leaves read. Operator numbering follows DB2's
//! convention: the root is usually `1` (a `RETURN`), ids are unique but not
//! necessarily dense.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::str::FromStr;

/// Plan operator types (DB2 LOLEPOP names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum OpType {
    Return,
    NlJoin,
    HsJoin,
    MsJoin,
    ZzJoin,
    TbScan,
    IxScan,
    Fetch,
    Sort,
    GrpBy,
    Temp,
    Filter,
    Union,
    Unique,
    Tq,
    RidScn,
    IxAnd,
    Ship,
}

impl OpType {
    /// All operator types, for generators and exhaustive tests.
    pub const ALL: &'static [OpType] = &[
        OpType::Return,
        OpType::NlJoin,
        OpType::HsJoin,
        OpType::MsJoin,
        OpType::ZzJoin,
        OpType::TbScan,
        OpType::IxScan,
        OpType::Fetch,
        OpType::Sort,
        OpType::GrpBy,
        OpType::Temp,
        OpType::Filter,
        OpType::Union,
        OpType::Unique,
        OpType::Tq,
        OpType::RidScn,
        OpType::IxAnd,
        OpType::Ship,
    ];

    /// The plan-text mnemonic (e.g. `NLJOIN`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpType::Return => "RETURN",
            OpType::NlJoin => "NLJOIN",
            OpType::HsJoin => "HSJOIN",
            OpType::MsJoin => "MSJOIN",
            OpType::ZzJoin => "ZZJOIN",
            OpType::TbScan => "TBSCAN",
            OpType::IxScan => "IXSCAN",
            OpType::Fetch => "FETCH",
            OpType::Sort => "SORT",
            OpType::GrpBy => "GRPBY",
            OpType::Temp => "TEMP",
            OpType::Filter => "FILTER",
            OpType::Union => "UNION",
            OpType::Unique => "UNIQUE",
            OpType::Tq => "TQ",
            OpType::RidScn => "RIDSCN",
            OpType::IxAnd => "IXAND",
            OpType::Ship => "SHIP",
        }
    }

    /// The long name used in detail-block headers
    /// (`NLJOIN: (Nested Loop Join)`).
    pub fn long_name(self) -> &'static str {
        match self {
            OpType::Return => "Return of Data",
            OpType::NlJoin => "Nested Loop Join",
            OpType::HsJoin => "Hash Join",
            OpType::MsJoin => "Merge Scan Join",
            OpType::ZzJoin => "Zigzag Join",
            OpType::TbScan => "Table Scan",
            OpType::IxScan => "Index Scan",
            OpType::Fetch => "Fetch",
            OpType::Sort => "Sort",
            OpType::GrpBy => "Group By",
            OpType::Temp => "Temp Table Construction",
            OpType::Filter => "Filter Rows",
            OpType::Union => "Union",
            OpType::Unique => "Duplicate Elimination",
            OpType::Tq => "Table Queue",
            OpType::RidScn => "Row Identifier Scan",
            OpType::IxAnd => "Dynamic Bitmap Index ANDing",
            OpType::Ship => "Ship Distributed Subquery",
        }
    }

    /// True for the join operators — the "any JOIN" class the paper's
    /// Pattern B quantifies over.
    pub fn is_join(self) -> bool {
        matches!(
            self,
            OpType::NlJoin | OpType::HsJoin | OpType::MsJoin | OpType::ZzJoin
        )
    }

    /// True for scans over base objects.
    pub fn is_scan(self) -> bool {
        matches!(self, OpType::TbScan | OpType::IxScan)
    }
}

impl fmt::Display for OpType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl FromStr for OpType {
    type Err = String;

    fn from_str(s: &str) -> Result<OpType, String> {
        OpType::ALL
            .iter()
            .copied()
            .find(|t| t.mnemonic() == s)
            .ok_or_else(|| format!("unknown operator type {s:?}"))
    }
}

/// Join-semantics modifier, rendered as a prefix character in plan trees:
/// the paper's Figure 7 shows `>HSJOIN` (left outer) and `^HSJOIN` (anti).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub enum JoinModifier {
    /// Plain inner semantics (no prefix).
    #[default]
    None,
    /// Left outer join (`>`).
    LeftOuter,
    /// Anti join (`^`).
    Anti,
    /// Full outer join (`+`).
    FullOuter,
}

impl JoinModifier {
    /// The tree-art prefix character, if any.
    pub fn prefix(self) -> Option<char> {
        match self {
            JoinModifier::None => None,
            JoinModifier::LeftOuter => Some('>'),
            JoinModifier::Anti => Some('^'),
            JoinModifier::FullOuter => Some('+'),
        }
    }

    /// The detail-block label (`Join Type: LEFT OUTER`).
    pub fn label(self) -> Option<&'static str> {
        match self {
            JoinModifier::None => None,
            JoinModifier::LeftOuter => Some("LEFT OUTER"),
            JoinModifier::Anti => Some("ANTI"),
            JoinModifier::FullOuter => Some("FULL OUTER"),
        }
    }

    /// Parse a detail-block label.
    pub fn from_label(s: &str) -> Option<JoinModifier> {
        match s {
            "LEFT OUTER" => Some(JoinModifier::LeftOuter),
            "ANTI" => Some(JoinModifier::Anti),
            "FULL OUTER" => Some(JoinModifier::FullOuter),
            _ => None,
        }
    }
}

/// The three input-stream kinds of the paper's §2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// Left input of a binary operator.
    Outer,
    /// Right input of a binary operator.
    Inner,
    /// Generic input used by unary operators.
    Generic,
}

impl StreamKind {
    /// The detail-block label.
    pub fn label(self) -> &'static str {
        match self {
            StreamKind::Outer => "Outer",
            StreamKind::Inner => "Inner",
            StreamKind::Generic => "Generic",
        }
    }

    /// Parse a detail-block label.
    pub fn from_label(s: &str) -> Option<StreamKind> {
        match s {
            "Outer" => Some(StreamKind::Outer),
            "Inner" => Some(StreamKind::Inner),
            "Generic" => Some(StreamKind::Generic),
            _ => None,
        }
    }
}

/// What an input stream reads from.
#[derive(Debug, Clone, PartialEq)]
pub enum InputSource {
    /// Another plan operator, by id.
    Op(u32),
    /// A base object, by qualified name (key into [`Qep::base_objects`]).
    Object(String),
}

/// A typed input stream of an operator.
#[derive(Debug, Clone, PartialEq)]
pub struct InputStream {
    /// Outer / inner / generic.
    pub kind: StreamKind,
    /// The producer.
    pub source: InputSource,
    /// Estimated rows flowing through the stream.
    pub estimated_rows: f64,
}

/// Classification of an applied predicate — the distinctions the paper's
/// Pattern C recommendation cares about (column-group statistics on
/// *equality local* vs *equality join* predicate columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredicateKind {
    /// Equality join predicate (`Q2.A = Q1.A`).
    Join,
    /// Sargable local predicate (`Q1.A = 5`).
    Sargable,
    /// Residual predicate applied after the operator.
    Residual,
    /// Index start-key predicate.
    StartKey,
    /// Index stop-key predicate.
    StopKey,
}

impl PredicateKind {
    /// The detail-block label.
    pub fn label(self) -> &'static str {
        match self {
            PredicateKind::Join => "Join Predicate",
            PredicateKind::Sargable => "Sargable Predicate",
            PredicateKind::Residual => "Residual Predicate",
            PredicateKind::StartKey => "Start Key Predicate",
            PredicateKind::StopKey => "Stop Key Predicate",
        }
    }

    /// Parse a detail-block label.
    pub fn from_label(s: &str) -> Option<PredicateKind> {
        match s {
            "Join Predicate" => Some(PredicateKind::Join),
            "Sargable Predicate" => Some(PredicateKind::Sargable),
            "Residual Predicate" => Some(PredicateKind::Residual),
            "Start Key Predicate" => Some(PredicateKind::StartKey),
            "Stop Key Predicate" => Some(PredicateKind::StopKey),
            _ => None,
        }
    }
}

/// An applied predicate with its text, e.g. `(Q2.CUST_ID = Q1.CUST_ID)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// The predicate class.
    pub kind: PredicateKind,
    /// The predicate text as printed in the plan.
    pub text: String,
}

impl Predicate {
    /// Column references (`Qn.COL`) appearing in the text — used by the
    /// knowledge base's `@columns(alias, PREDICATE)` helper.
    pub fn columns(&self) -> Vec<String> {
        let mut cols = Vec::new();
        let bytes = self.text.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            // Look for `Q<digits>.<name>`.
            if bytes[i] == b'Q' {
                let mut j = i + 1;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                if j > i + 1 && j < bytes.len() && bytes[j] == b'.' {
                    let mut k = j + 1;
                    while k < bytes.len() && (bytes[k].is_ascii_alphanumeric() || bytes[k] == b'_')
                    {
                        k += 1;
                    }
                    if k > j + 1 {
                        cols.push(self.text[i..k].to_string());
                        i = k;
                        continue;
                    }
                }
            }
            i += 1;
        }
        cols
    }
}

/// Whether a base object is a table or an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaseObjectKind {
    /// A base table.
    Table,
    /// An index over a base table.
    Index,
}

impl BaseObjectKind {
    /// The detail-block label.
    pub fn label(self) -> &'static str {
        match self {
            BaseObjectKind::Table => "TABLE",
            BaseObjectKind::Index => "INDEX",
        }
    }

    /// Parse a detail-block label.
    pub fn from_label(s: &str) -> Option<BaseObjectKind> {
        match s {
            "TABLE" => Some(BaseObjectKind::Table),
            "INDEX" => Some(BaseObjectKind::Index),
            _ => None,
        }
    }
}

/// A base table or index referenced by the plan's leaves.
#[derive(Debug, Clone, PartialEq)]
pub struct BaseObject {
    /// Schema name, e.g. `BIGD`.
    pub schema: String,
    /// Object name, e.g. `CUST_DIM`.
    pub name: String,
    /// Table or index.
    pub kind: BaseObjectKind,
    /// Statistics cardinality of the object.
    pub cardinality: f64,
    /// Columns (for tables) or key columns (for indexes).
    pub columns: Vec<String>,
}

impl BaseObject {
    /// The qualified `SCHEMA.NAME` key.
    pub fn qualified_name(&self) -> String {
        format!("{}.{}", self.schema, self.name)
    }
}

/// One plan operator (the paper's LOLEPOP).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanOp {
    /// Operator number within the plan.
    pub id: u32,
    /// Operator type.
    pub op_type: OpType,
    /// Join-semantics modifier (only meaningful on joins).
    pub modifier: JoinModifier,
    /// Estimated output cardinality.
    pub cardinality: f64,
    /// Cumulative total cost (this operator and everything below).
    pub total_cost: f64,
    /// Cumulative I/O cost.
    pub io_cost: f64,
    /// Cumulative CPU cost.
    pub cpu_cost: f64,
    /// Cumulative first-row cost.
    pub first_row_cost: f64,
    /// Estimated bufferpool buffers.
    pub buffers: f64,
    /// Op-specific arguments (e.g. `MAXPAGES: ALL` on a TBSCAN).
    pub arguments: BTreeMap<String, String>,
    /// Applied predicates.
    pub predicates: Vec<Predicate>,
    /// Input streams, in plan order.
    pub inputs: Vec<InputStream>,
}

impl PlanOp {
    /// Create an operator with the given id and type; costs default to zero.
    pub fn new(id: u32, op_type: OpType) -> PlanOp {
        PlanOp {
            id,
            op_type,
            modifier: JoinModifier::None,
            cardinality: 0.0,
            total_cost: 0.0,
            io_cost: 0.0,
            cpu_cost: 0.0,
            first_row_cost: 0.0,
            buffers: 0.0,
            arguments: BTreeMap::new(),
            predicates: Vec::new(),
            inputs: Vec::new(),
        }
    }

    /// Child operator ids, in stream order.
    pub fn child_ops(&self) -> impl Iterator<Item = u32> + '_ {
        self.inputs.iter().filter_map(|s| match &s.source {
            InputSource::Op(id) => Some(*id),
            InputSource::Object(_) => None,
        })
    }

    /// The input stream of the given kind, if present.
    pub fn input(&self, kind: StreamKind) -> Option<&InputStream> {
        self.inputs.iter().find(|s| s.kind == kind)
    }

    /// The display name with modifier prefix, e.g. `>HSJOIN`.
    pub fn display_name(&self) -> String {
        match self.modifier.prefix() {
            Some(c) => format!("{c}{}", self.op_type),
            None => self.op_type.to_string(),
        }
    }
}

/// A whole query execution plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Qep {
    /// Identifier, typically the source file stem (`q0001`).
    pub id: String,
    /// The original SQL statement, when captured.
    pub statement: Option<String>,
    /// Operators by id.
    pub ops: BTreeMap<u32, PlanOp>,
    /// Base objects by qualified name.
    pub base_objects: BTreeMap<String, BaseObject>,
}

/// Structural problems detected by [`Qep::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QepInvariantError {
    /// An input stream references an operator id that does not exist.
    DanglingOpReference { from: u32, to: u32 },
    /// An input stream references a base object that is not declared.
    DanglingObjectReference { from: u32, name: String },
    /// No root: every operator is consumed by another one.
    NoRoot,
    /// More than one root operator.
    MultipleRoots(Vec<u32>),
    /// The operator graph contains a cycle through the given id.
    Cycle(u32),
}

impl fmt::Display for QepInvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QepInvariantError::DanglingOpReference { from, to } => {
                write!(f, "operator #{from} reads from missing operator #{to}")
            }
            QepInvariantError::DanglingObjectReference { from, name } => {
                write!(f, "operator #{from} reads from undeclared object {name}")
            }
            QepInvariantError::NoRoot => write!(f, "plan has no root operator"),
            QepInvariantError::MultipleRoots(roots) => {
                write!(f, "plan has multiple roots: {roots:?}")
            }
            QepInvariantError::Cycle(id) => write!(f, "plan has a cycle through #{id}"),
        }
    }
}

impl std::error::Error for QepInvariantError {}

impl Qep {
    /// Create an empty plan with the given id.
    pub fn new(id: impl Into<String>) -> Qep {
        Qep {
            id: id.into(),
            ..Qep::default()
        }
    }

    /// Number of operators (the paper's "number of LOLEPOPs").
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Look up an operator.
    pub fn op(&self, id: u32) -> Option<&PlanOp> {
        self.ops.get(&id)
    }

    /// Insert an operator (replacing any previous one with the same id).
    pub fn insert_op(&mut self, op: PlanOp) {
        self.ops.insert(op.id, op);
    }

    /// Insert a base object keyed by its qualified name.
    pub fn insert_object(&mut self, obj: BaseObject) {
        self.base_objects.insert(obj.qualified_name(), obj);
    }

    /// The root operator: the one no other operator consumes.
    ///
    /// Each call walks every operator and allocates a set of the consumed
    /// ids, so keep it out of per-match loops.
    pub fn root(&self) -> Option<&PlanOp> {
        let consumed: BTreeSet<u32> = self.ops.values().flat_map(|op| op.child_ops()).collect();
        let mut roots = self.ops.values().filter(|op| !consumed.contains(&op.id));
        let first = roots.next()?;
        if roots.next().is_some() {
            return None;
        }
        Some(first)
    }

    /// Total cost of the plan (cumulative cost at the root).
    ///
    /// Each call derives the root by [`Qep::root`], walking every operator
    /// and allocating a set: derive it once per plan, not once per match.
    pub fn total_cost(&self) -> f64 {
        self.root().map(|r| r.total_cost).unwrap_or(0.0)
    }

    /// Check the structural invariants: every stream target exists, exactly
    /// one root, and the operator graph is acyclic (a DAG — common
    /// subexpressions like TEMP may legitimately have several consumers).
    pub fn validate(&self) -> Result<(), QepInvariantError> {
        for op in self.ops.values() {
            for stream in &op.inputs {
                match &stream.source {
                    InputSource::Op(id) => {
                        if !self.ops.contains_key(id) {
                            return Err(QepInvariantError::DanglingOpReference {
                                from: op.id,
                                to: *id,
                            });
                        }
                    }
                    InputSource::Object(name) => {
                        if !self.base_objects.contains_key(name) {
                            return Err(QepInvariantError::DanglingObjectReference {
                                from: op.id,
                                name: name.clone(),
                            });
                        }
                    }
                }
            }
        }
        let consumed: BTreeSet<u32> = self.ops.values().flat_map(|op| op.child_ops()).collect();
        let roots: Vec<u32> = self
            .ops
            .keys()
            .copied()
            .filter(|id| !consumed.contains(id))
            .collect();
        if self.ops.is_empty() {
            return Ok(());
        }
        match roots.len() {
            0 => return Err(QepInvariantError::NoRoot),
            1 => {}
            _ => return Err(QepInvariantError::MultipleRoots(roots)),
        }
        // Cycle detection by DFS with colors.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut colors: BTreeMap<u32, Color> =
            self.ops.keys().map(|&k| (k, Color::White)).collect();
        fn dfs(
            qep: &Qep,
            id: u32,
            colors: &mut BTreeMap<u32, Color>,
        ) -> Result<(), QepInvariantError> {
            colors.insert(id, Color::Gray);
            if let Some(op) = qep.op(id) {
                for child in op.child_ops() {
                    match colors.get(&child) {
                        Some(Color::Gray) => return Err(QepInvariantError::Cycle(child)),
                        Some(Color::White) => dfs(qep, child, colors)?,
                        _ => {}
                    }
                }
            }
            colors.insert(id, Color::Black);
            Ok(())
        }
        for id in self.ops.keys().copied().collect::<Vec<_>>() {
            if colors[&id] == Color::White {
                dfs(self, id, &mut colors)?;
            }
        }
        Ok(())
    }

    /// Iterate operator ids in topological order (children before parents).
    pub fn topological_order(&self) -> Vec<u32> {
        let mut order = Vec::with_capacity(self.ops.len());
        let mut visited = BTreeSet::new();
        fn visit(qep: &Qep, id: u32, visited: &mut BTreeSet<u32>, order: &mut Vec<u32>) {
            if !visited.insert(id) {
                return;
            }
            if let Some(op) = qep.op(id) {
                for child in op.child_ops() {
                    visit(qep, child, visited, order);
                }
            }
            order.push(id);
        }
        // Visit from every unconsumed op so disconnected plans still work.
        let consumed: BTreeSet<u32> = self.ops.values().flat_map(|op| op.child_ops()).collect();
        for &id in self.ops.keys() {
            if !consumed.contains(&id) {
                visit(self, id, &mut visited, &mut order);
            }
        }
        // Any leftovers (cycles, shared subtrees already visited) appended.
        for &id in self.ops.keys() {
            visit(self, id, &mut visited, &mut order);
        }
        order
    }

    /// The cost of this operator alone: cumulative cost minus the
    /// cumulative costs of its operator inputs — the paper's derived
    /// `hasTotalCostIncrease` property.
    pub fn cost_increase(&self, id: u32) -> Option<f64> {
        let op = self.op(id)?;
        let child_cost: f64 = op
            .child_ops()
            .filter_map(|c| self.op(c))
            .map(|c| c.total_cost)
            .sum();
        Some(op.total_cost - child_cost)
    }

    /// Quantize every numeric field through the plan-text formatter, so
    /// that `parse(format(qep)) == qep` holds exactly. Generators call
    /// this once after building a plan; values parsed from text are
    /// already quantized.
    pub fn quantize(&mut self) {
        fn q(v: f64) -> f64 {
            optimatch_rdf::numeric::parse_numeric(&optimatch_rdf::numeric::format_double(v))
                .unwrap_or(v)
        }
        for op in self.ops.values_mut() {
            op.cardinality = q(op.cardinality);
            op.total_cost = q(op.total_cost);
            op.io_cost = q(op.io_cost);
            op.cpu_cost = q(op.cpu_cost);
            op.first_row_cost = q(op.first_row_cost);
            op.buffers = q(op.buffers);
            for s in &mut op.inputs {
                s.estimated_rows = q(s.estimated_rows);
            }
        }
        for obj in self.base_objects.values_mut() {
            obj.cardinality = q(obj.cardinality);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NLJOIN(2) over FETCH(3){IXSCAN(4) over IDX1+SALES_FACT} and
    /// TBSCAN(5) over CUST_DIM — the paper's Figure 1.
    pub fn fig1() -> Qep {
        crate::fixtures::fig1()
    }

    #[test]
    fn optype_round_trips_mnemonics() {
        for t in OpType::ALL {
            assert_eq!(t.mnemonic().parse::<OpType>().unwrap(), *t);
        }
        assert!("NOPE".parse::<OpType>().is_err());
    }

    #[test]
    fn join_and_scan_classification() {
        assert!(OpType::NlJoin.is_join());
        assert!(OpType::ZzJoin.is_join());
        assert!(!OpType::Sort.is_join());
        assert!(OpType::TbScan.is_scan());
        assert!(!OpType::Fetch.is_scan());
    }

    #[test]
    fn modifier_prefixes_match_paper_figures() {
        assert_eq!(JoinModifier::LeftOuter.prefix(), Some('>'));
        assert_eq!(JoinModifier::Anti.prefix(), Some('^'));
        assert_eq!(JoinModifier::None.prefix(), None);
        assert_eq!(
            JoinModifier::from_label("LEFT OUTER"),
            Some(JoinModifier::LeftOuter)
        );
    }

    #[test]
    fn fig1_structure() {
        let q = fig1();
        assert_eq!(q.op_count(), 5);
        let root = q.root().unwrap();
        assert_eq!(root.op_type, OpType::Return);
        let nljoin = q.op(2).unwrap();
        assert_eq!(
            nljoin.input(StreamKind::Inner).map(|s| &s.source),
            Some(&InputSource::Op(5))
        );
        assert!(q.validate().is_ok());
    }

    #[test]
    fn display_name_includes_modifier() {
        let mut op = PlanOp::new(6, OpType::HsJoin);
        op.modifier = JoinModifier::LeftOuter;
        assert_eq!(op.display_name(), ">HSJOIN");
    }

    #[test]
    fn validate_detects_dangling_references() {
        let mut q = Qep::new("bad");
        let mut op = PlanOp::new(1, OpType::Return);
        op.inputs.push(InputStream {
            kind: StreamKind::Generic,
            source: InputSource::Op(99),
            estimated_rows: 1.0,
        });
        q.insert_op(op);
        assert!(matches!(
            q.validate(),
            Err(QepInvariantError::DanglingOpReference { to: 99, .. })
        ));
    }

    #[test]
    fn validate_detects_multiple_roots_and_cycles() {
        let mut q = Qep::new("two-roots");
        q.insert_op(PlanOp::new(1, OpType::Return));
        q.insert_op(PlanOp::new(2, OpType::Return));
        assert!(matches!(
            q.validate(),
            Err(QepInvariantError::MultipleRoots(_))
        ));

        let mut q = Qep::new("cycle");
        let mut a = PlanOp::new(1, OpType::Sort);
        a.inputs.push(InputStream {
            kind: StreamKind::Generic,
            source: InputSource::Op(2),
            estimated_rows: 1.0,
        });
        let mut b = PlanOp::new(2, OpType::Sort);
        b.inputs.push(InputStream {
            kind: StreamKind::Generic,
            source: InputSource::Op(1),
            estimated_rows: 1.0,
        });
        q.insert_op(a);
        q.insert_op(b);
        let err = q.validate().unwrap_err();
        assert!(matches!(
            err,
            QepInvariantError::Cycle(_) | QepInvariantError::NoRoot
        ));
    }

    #[test]
    fn shared_subtree_is_valid_dag() {
        // TEMP consumed by both sides of a join — the paper's ambiguity
        // scenario (§2.2) — is a DAG, not a cycle.
        let mut q = Qep::new("cse");
        let mut join = PlanOp::new(1, OpType::HsJoin);
        join.inputs.push(InputStream {
            kind: StreamKind::Outer,
            source: InputSource::Op(2),
            estimated_rows: 10.0,
        });
        join.inputs.push(InputStream {
            kind: StreamKind::Inner,
            source: InputSource::Op(2),
            estimated_rows: 10.0,
        });
        q.insert_op(join);
        q.insert_op(PlanOp::new(2, OpType::Temp));
        assert!(q.validate().is_ok());
    }

    #[test]
    fn topological_order_puts_children_first() {
        let q = fig1();
        let order = q.topological_order();
        let pos = |id: u32| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(4) < pos(3));
        assert!(pos(3) < pos(2));
        assert!(pos(5) < pos(2));
        assert!(pos(2) < pos(1));
        assert_eq!(order.len(), q.op_count());
    }

    #[test]
    fn cost_increase_subtracts_children() {
        let q = fig1();
        // NLJOIN(2): 16800 total, children FETCH(3)=987.65 and
        // TBSCAN(5)=15771.0 ⇒ increase ≈ 41.35.
        let inc = q.cost_increase(2).unwrap();
        let expected = 16800.0 - (987.65 + 15771.0);
        assert!((inc - expected).abs() < 1e-6, "got {inc}");
    }

    #[test]
    fn predicate_column_extraction() {
        let p = Predicate {
            kind: PredicateKind::Join,
            text: "(Q2.CUST_ID = Q1.CUST_ID) AND (Q2.REGION = 'EAST')".into(),
        };
        assert_eq!(p.columns(), vec!["Q2.CUST_ID", "Q1.CUST_ID", "Q2.REGION"]);
    }

    #[test]
    fn total_cost_reads_root() {
        let q = fig1();
        assert_eq!(q.total_cost(), 16801.2);
    }
}
