//! Star-schema sampling for the plan generator.
//!
//! Generated plans reference a warehouse-style schema — a few large fact
//! tables and many smaller dimension tables, each with optional indexes —
//! matching the data-warehouse workloads the paper's introduction motivates.

use optimatch_qep::{BaseObject, BaseObjectKind};
use rand::Rng;

/// A sampled schema: tables with their indexes.
#[derive(Debug, Clone)]
pub struct Schema {
    /// Fact tables (large cardinalities, printed in exponent form).
    pub facts: Vec<BaseObject>,
    /// Dimension tables (moderate cardinalities, plain decimal form).
    pub dims: Vec<BaseObject>,
    /// Indexes, aligned with the table they index by position in
    /// `facts ++ dims` (not all tables have one).
    pub indexes: Vec<(String, BaseObject)>,
}

const FACT_NAMES: &[&str] = &[
    "SALES_FACT",
    "TRAN_BASE",
    "CALL_FACT",
    "SHIPMENT_FACT",
    "CLICK_FACT",
    "INV_FACT",
];
const DIM_NAMES: &[&str] = &[
    "CUST_DIM",
    "TRAN_DIM",
    "STORE_DIM",
    "TIME_DIM",
    "PROD_DIM",
    "REGION_DIM",
    "EMP_DIM",
    "PROMO_DIM",
    "CHANNEL_DIM",
    "ACCT_DIM",
    "TELEPHONE_DETAIL",
    "BLOCKED_CUST",
];
const COLUMNS: &[&str] = &[
    "CUST_ID", "TRAN_ID", "STORE_ID", "TIME_ID", "PROD_ID", "REGION", "AMOUNT", "QTY", "STATUS",
    "KIND", "CODE", "NAME",
];

/// Sample a schema with the given RNG.
pub fn sample_schema(rng: &mut impl Rng) -> Schema {
    let schema_name = "BIGD";
    let mut facts = Vec::new();
    let mut dims = Vec::new();
    let mut indexes = Vec::new();

    let n_facts = rng.gen_range(2..=4usize);
    for (i, name) in FACT_NAMES.iter().take(n_facts).enumerate() {
        // 1e6 .. 5e8 rows: always exponent-formatted in plan text.
        let cardinality = 10f64.powf(rng.gen_range(6.0..8.7));
        let table = BaseObject {
            schema: schema_name.into(),
            name: (*name).into(),
            kind: BaseObjectKind::Table,
            cardinality,
            columns: sample_columns(rng),
        };
        // Facts always get an index.
        indexes.push((
            table.qualified_name(),
            BaseObject {
                schema: schema_name.into(),
                name: format!("IDX{}", i + 1),
                kind: BaseObjectKind::Index,
                cardinality,
                columns: vec![table.columns[0].clone()],
            },
        ));
        facts.push(table);
    }

    let n_dims = rng.gen_range(5..=DIM_NAMES.len());
    for (i, name) in DIM_NAMES.iter().take(n_dims).enumerate() {
        // 200 .. 90_000 rows: plain decimal in plan text, and always > 100
        // so injected Pattern A inners satisfy the cardinality condition.
        let cardinality = rng.gen_range(200.0..90_000.0f64).round();
        let table = BaseObject {
            schema: schema_name.into(),
            name: (*name).into(),
            kind: BaseObjectKind::Table,
            cardinality,
            columns: sample_columns(rng),
        };
        if rng.gen_bool(0.5) {
            indexes.push((
                table.qualified_name(),
                BaseObject {
                    schema: schema_name.into(),
                    name: format!("DIMIDX{}", i + 1),
                    kind: BaseObjectKind::Index,
                    cardinality,
                    columns: vec![table.columns[0].clone()],
                },
            ));
        }
        dims.push(table);
    }

    Schema {
        facts,
        dims,
        indexes,
    }
}

fn sample_columns(rng: &mut impl Rng) -> Vec<String> {
    let n = rng.gen_range(3..=6usize);
    let mut cols: Vec<String> = Vec::with_capacity(n);
    let start = rng.gen_range(0..COLUMNS.len());
    for k in 0..n {
        cols.push(COLUMNS[(start + k) % COLUMNS.len()].to_string());
    }
    cols
}

impl Schema {
    /// A random dimension table.
    pub fn random_dim(&self, rng: &mut impl Rng) -> &BaseObject {
        &self.dims[rng.gen_range(0..self.dims.len())]
    }

    /// A random fact table.
    pub fn random_fact(&self, rng: &mut impl Rng) -> &BaseObject {
        &self.facts[rng.gen_range(0..self.facts.len())]
    }

    /// The index over a table, if one was sampled.
    pub fn index_for(&self, qualified: &str) -> Option<&BaseObject> {
        self.indexes
            .iter()
            .find(|(t, _)| t == qualified)
            .map(|(_, idx)| idx)
    }

    /// Every object (tables then indexes).
    pub fn all_objects(&self) -> impl Iterator<Item = &BaseObject> {
        self.facts
            .iter()
            .chain(&self.dims)
            .chain(self.indexes.iter().map(|(_, i)| i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampled_schema_is_plausible() {
        let mut rng = StdRng::seed_from_u64(7);
        let s = sample_schema(&mut rng);
        assert!(s.facts.len() >= 2);
        assert!(s.dims.len() >= 5);
        for f in &s.facts {
            assert!(f.cardinality >= 1e6, "{} too small", f.name);
            assert!(s.index_for(&f.qualified_name()).is_some());
        }
        for d in &s.dims {
            assert!(d.cardinality > 100.0 && d.cardinality < 1e5);
            assert!(!d.columns.is_empty());
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let a = sample_schema(&mut StdRng::seed_from_u64(42));
        let b = sample_schema(&mut StdRng::seed_from_u64(42));
        assert_eq!(a.facts, b.facts);
        assert_eq!(a.dims, b.dims);
    }

    #[test]
    fn index_lookup() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = sample_schema(&mut rng);
        let fact = &s.facts[0];
        let idx = s.index_for(&fact.qualified_name()).unwrap();
        assert_eq!(idx.kind, BaseObjectKind::Index);
        assert!(s.index_for("BIGD.NOSUCH").is_none());
    }
}
