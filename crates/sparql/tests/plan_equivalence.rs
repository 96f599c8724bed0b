//! Property test: the planner is observational. For randomly generated
//! graphs and queries, optimized evaluation (greedy reordering + guided
//! path directions) must produce exactly the same multiset of rows as the
//! source-order oracle. Seeded xorshift generation keeps every case
//! reproducible from its printed seed.

use optimatch_rdf::{Graph, GraphBuilder, Term};
use optimatch_sparql::algebra::translate;
use optimatch_sparql::eval::evaluate;
use optimatch_sparql::{parse_query, Budget, PlanOptions};

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

const PREDS: [&str; 5] = ["p:in", "p:out", "p:type", "p:card", "p:base"];

/// A random plan-shaped graph: a handful of nodes, edges drawn over a
/// small predicate vocabulary plus literal-valued attributes — the same
/// shape as transformed QEPs (sparse, few predicates, shallow trees).
fn random_graph(rng: &mut Rng) -> Graph {
    let mut g = GraphBuilder::new();
    let nodes = 4 + rng.below(6);
    let edges = 6 + rng.below(14);
    for _ in 0..edges {
        let s = Term::iri(format!("q:n{}", rng.below(nodes)));
        let p = PREDS[rng.below(PREDS.len())];
        let o = if p == "p:type" || p == "p:card" {
            Term::lit_str(format!("v{}", rng.below(4)))
        } else {
            Term::iri(format!("q:n{}", rng.below(nodes)))
        };
        g.insert(s, Term::iri(p), o);
    }
    g.build()
}

/// A random path expression over the predicate vocabulary.
fn random_path(rng: &mut Rng) -> String {
    match rng.below(7) {
        0 => format!("<{}>+", PREDS[rng.below(2)]),
        1 => format!("<{}>*", PREDS[rng.below(2)]),
        2 => "(<p:in>|<p:out>)+".to_string(),
        3 => format!("^<{}>", PREDS[rng.below(PREDS.len())]),
        4 => format!("<p:in>/<{}>", PREDS[rng.below(PREDS.len())]),
        5 => format!("<{}>?", PREDS[rng.below(PREDS.len())]),
        _ => format!("<{}>", PREDS[rng.below(PREDS.len())]),
    }
}

/// A random endpoint: a shared variable or a constant that may or may not
/// occur in the graph.
fn random_endpoint(rng: &mut Rng, vars: &mut Vec<String>) -> String {
    match rng.below(4) {
        0 if !vars.is_empty() => format!("?{}", vars[rng.below(vars.len())]),
        1 => format!("<q:n{}>", rng.below(10)),
        _ => {
            let v = format!("v{}", vars.len());
            vars.push(v.clone());
            format!("?{v}")
        }
    }
}

/// A random SELECT * query: a BGP of 2–4 patterns with shared variables,
/// occasionally wrapped with OPTIONAL / UNION / FILTER.
fn random_query(rng: &mut Rng) -> String {
    let mut vars: Vec<String> = Vec::new();
    let n = 2 + rng.below(3);
    let mut triples = Vec::new();
    for _ in 0..n {
        let s = random_endpoint(rng, &mut vars);
        let p = random_path(rng);
        let o = random_endpoint(rng, &mut vars);
        triples.push(format!("{s} {p} {o} ."));
    }
    match rng.below(5) {
        0 if triples.len() > 2 => {
            let opt = triples.pop().unwrap();
            format!(
                "SELECT * WHERE {{ {} OPTIONAL {{ {opt} }} }}",
                triples.join(" ")
            )
        }
        1 if triples.len() > 2 => {
            let b = triples.pop().unwrap();
            let a = triples.pop().unwrap();
            format!(
                "SELECT * WHERE {{ {} {{ {a} }} UNION {{ {b} }} }}",
                triples.join(" ")
            )
        }
        2 if !vars.is_empty() => {
            let v = &vars[rng.below(vars.len())];
            format!(
                "SELECT * WHERE {{ {} FILTER (BOUND(?{v})) }}",
                triples.join(" ")
            )
        }
        _ => format!("SELECT * WHERE {{ {} }}", triples.join(" ")),
    }
}

/// Canonicalize a result table into a sorted multiset of rendered rows.
fn multiset(table: &optimatch_sparql::ResultTable) -> Vec<Vec<Option<String>>> {
    let mut rows: Vec<Vec<Option<String>>> = table
        .rows()
        .iter()
        .map(|r| {
            r.iter()
                .map(|t| t.as_ref().map(|t| t.to_string()))
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn optimized_and_oracle_agree_on_generated_workloads() {
    let mut rng = Rng::new(0x0DB2_2016);
    let mut nonempty = 0usize;
    let mut traced = 0usize;
    for case in 0..300 {
        let seed = rng.next();
        let mut case_rng = Rng::new(seed);
        let g = random_graph(&mut case_rng);
        let text = random_query(&mut case_rng);
        let plan = match parse_query(&text).and_then(|q| translate(&q)) {
            Ok(plan) => plan,
            Err(e) => panic!("case {case} seed {seed:#x}: generated unparseable query {text}: {e}"),
        };
        let budget = Budget::unlimited();
        let (optimized, stats) = evaluate(&g, &plan, PlanOptions::default(), &budget)
            .unwrap_or_else(|e| panic!("case {case} seed {seed:#x} optimized: {e}"));
        let (oracle, oracle_stats) =
            evaluate(&g, &plan, PlanOptions::default().optimize(false), &budget)
                .unwrap_or_else(|e| panic!("case {case} seed {seed:#x} oracle: {e}"));
        assert_eq!(
            multiset(&optimized),
            multiset(&oracle),
            "case {case} seed {seed:#x}: planner changed bindings for {text}"
        );
        assert!(
            oracle_stats.is_empty(),
            "oracle must not trace planner decisions"
        );
        if !optimized.is_empty() {
            nonempty += 1;
        }
        if stats.patterns > 0 {
            traced += 1;
        }
    }
    // The generator must actually exercise the engine, not vacuously pass.
    assert!(nonempty > 30, "only {nonempty} non-empty cases");
    assert!(traced > 250, "only {traced} cases traced planner decisions");
}

#[test]
fn budget_semantics_survive_the_planner() {
    // Exceeding budgets must stay typed errors in both modes, and a
    // sufficient budget must stay observational under the planner.
    let mut rng = Rng::new(0xBEEF);
    for _ in 0..50 {
        let g = random_graph(&mut rng);
        let text = "SELECT * WHERE { ?a (<p:in>|<p:out>)+ ?b . ?b <p:type> ?t . }";
        let plan = translate(&parse_query(text).unwrap()).unwrap();
        let generous = Budget::limited(Some(1_000_000), None);
        let (opt, _) = evaluate(&g, &plan, PlanOptions::default(), &generous).unwrap();
        let (oracle, _) = evaluate(
            &g,
            &plan,
            PlanOptions::default().optimize(false),
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(multiset(&opt), multiset(&oracle));

        if !opt.is_empty() {
            let starved = Budget::limited(Some(1), None);
            let err = evaluate(&g, &plan, PlanOptions::default(), &starved)
                .expect_err("one unit of fuel cannot evaluate a recursive join");
            assert!(matches!(
                err,
                optimatch_sparql::SparqlError::BudgetExceeded { .. }
            ));
        }
    }
}
