//! # optimatch-workload
//!
//! Synthetic query-workload generation with ground-truth pattern
//! injection, plus the "expert with grep" manual-search baseline.
//!
//! The paper's experiments run over a real IBM customer workload — 1000
//! QEP files with 100+ operators each (up to 550) — that is not publicly
//! available. This crate generates workloads with the same *shape*:
//!
//! * [`gen`] — a seeded plan generator: random join trees over a sampled
//!   star schema, bottom-up cost model, realistic operator mix, plans
//!   sized to a target LOLEPOP count;
//! * [`inject`] — grafts instances of the paper's Patterns A–D into
//!   generated plans at configurable rates (the paper's study workload has
//!   15 / 12 / 18 matches per 100 QEPs for patterns #1–#3), recording
//!   **ground truth** per QEP — which the paper obtained from expert
//!   labeling; [`sized_workloads`] builds Figure 10's plans per LOLEPOP
//!   bucket, each with one instance of Patterns A–C;
//! * [`manual`] — a deterministic simulation of manual `grep`-style
//!   pattern search with the failure modes the paper documents (§3.3):
//!   numbers read without their exponent suffix, and descendant searches
//!   cut off at a fixed depth. Its imperfect precision against ground
//!   truth reproduces the paper's Table 1.
//!
//! Base plans are generated to *not* match any of the four patterns, so
//! injection alone determines ground truth; `inject::tests` and the
//! integration suite verify this exclusion property.

pub mod gen;
pub mod inject;
pub mod manual;
pub mod schema;
pub mod store;

pub use gen::{GeneratorConfig, PlanGenerator};
pub use inject::{InjectionConfig, PatternId, Variant};
pub use manual::{GrepExpert, ManualTimeModel};
pub use store::{load_workload, write_workload};

use optimatch_qep::Qep;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// A generated workload: plans plus per-plan ground truth.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The plans, in generation order.
    pub qeps: Vec<Qep>,
    /// Ground truth: which patterns were injected into which QEP (by id).
    pub truth: BTreeMap<String, Vec<PatternId>>,
}

impl Workload {
    /// QEP ids that truly contain `pattern`.
    pub fn matching_ids(&self, pattern: PatternId) -> Vec<&str> {
        self.truth
            .iter()
            .filter(|(_, pats)| pats.contains(&pattern))
            .map(|(id, _)| id.as_str())
            .collect()
    }
}

/// Top-level workload configuration.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// RNG seed: equal seeds give byte-identical workloads.
    pub seed: u64,
    /// Number of QEPs to generate.
    pub num_qeps: usize,
    /// Plan-size and schema parameters.
    pub generator: GeneratorConfig,
    /// Pattern injection rates.
    pub injection: InjectionConfig,
}

impl Default for WorkloadConfig {
    fn default() -> WorkloadConfig {
        WorkloadConfig {
            seed: 0xDB20,
            num_qeps: 100,
            generator: GeneratorConfig::default(),
            injection: InjectionConfig::paper_rates(),
        }
    }
}

/// Generate a full workload: base plans, then pattern injection.
pub fn generate_workload(config: &WorkloadConfig) -> Workload {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut generator = PlanGenerator::new(config.generator.clone());
    let mut qeps = Vec::with_capacity(config.num_qeps);
    let mut truth = BTreeMap::new();
    for i in 0..config.num_qeps {
        let id = format!("q{:04}", i + 1);
        let mut qep = generator.generate(&mut rng, &id);
        let injected = inject::inject_patterns(&mut qep, &mut rng, &config.injection);
        truth.insert(id, injected);
        qeps.push(qep);
    }
    Workload { qeps, truth }
}

/// Build the paper's §3.3 user-study workload: 100 QEPs of which exactly
/// 15 / 12 / 18 match patterns #1 / #2 / #3, with hard-for-manual counts
/// (2 / 3 / 3) chosen so the deterministic `grep` baseline reproduces the
/// paper's Table-1 precisions (its 88% / 71% / 81% becomes our
/// 86.7% / 75% / 83.3% — the nearest fractions with integer miss counts).
pub fn study_workload(seed: u64) -> Workload {
    use inject::{inject_pattern, Variant};

    const N: usize = 100;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut generator = PlanGenerator::new(GeneratorConfig::default());
    let mut qeps: Vec<Qep> = (0..N)
        .map(|i| generator.generate(&mut rng, &format!("q{:04}", i + 1)))
        .collect();
    let mut truth: BTreeMap<String, Vec<PatternId>> =
        qeps.iter().map(|q| (q.id.clone(), Vec::new())).collect();

    // (pattern, total instances, of which hard).
    let quota = [
        (PatternId::A, 15usize, 2usize),
        (PatternId::B, 12, 3),
        (PatternId::C, 18, 3),
    ];
    for (pattern, total, hard) in quota {
        // Deterministically pick `total` distinct QEPs for this pattern.
        let mut picks: Vec<usize> = (0..N).collect();
        for i in 0..N {
            let j = rand::Rng::gen_range(&mut rng, 0..N);
            picks.swap(i, j);
        }
        let mut injected = 0;
        for &idx in &picks {
            if injected >= total {
                break;
            }
            let variant = if injected < hard {
                Variant::HardForManual
            } else {
                Variant::Easy
            };
            if inject_pattern(&mut qeps[idx], &mut rng, pattern, variant) {
                truth
                    .get_mut(&qeps[idx].id)
                    .expect("id exists")
                    .push(pattern);
                injected += 1;
            }
        }
        assert_eq!(
            injected, total,
            "could not place {total} {pattern:?} instances"
        );
    }
    Workload { qeps, truth }
}

/// Figure 10's LOLEPOP buckets: each one's target operator count and the
/// paper's label. Buckets 1–5 are [0-50]..[200-250]; the paper's bucket
/// 11 is [500-550].
pub const SIZE_BUCKETS: [(usize, &str); 6] = [
    (25, "[0-50]"),
    (75, "[50-100]"),
    (125, "[100-150]"),
    (175, "[150-200]"),
    (225, "[200-250]"),
    (525, "[500-550]"),
];

/// Figure 10's plans: for each of the [`SIZE_BUCKETS`], in order, a
/// workload of 6 plans (the paper repeats 6 times per bucket) generated
/// in sequence from `seed`. With `inject`, every plan also receives one
/// easy instance of each evaluation pattern (A, B and C), spliced with a
/// second random stream, so the base plans are the same either way. The
/// paper's injection rates would leave most buckets without a Pattern-B
/// plan, and so without the matching work the figure measures.
pub fn sized_workloads(seed: u64, inject: bool) -> Vec<Workload> {
    use inject::{inject_pattern, Variant};

    let mut rng = StdRng::seed_from_u64(seed);
    let mut splice = StdRng::seed_from_u64(seed.wrapping_add(1));
    let mut generator = PlanGenerator::new(GeneratorConfig::default());
    let mut buckets = Vec::with_capacity(SIZE_BUCKETS.len());
    for (target, _) in SIZE_BUCKETS {
        let mut bucket = Workload {
            qeps: Vec::new(),
            truth: BTreeMap::new(),
        };
        for i in 0..6 {
            let mut qep = generator.generate_sized(&mut rng, &format!("b{target}_{i}"), target);
            let mut injected = Vec::new();
            if inject {
                for pattern in [PatternId::A, PatternId::B, PatternId::C] {
                    if inject_pattern(&mut qep, &mut splice, pattern, Variant::Easy) {
                        injected.push(pattern);
                    }
                }
            }
            bucket.truth.insert(qep.id.clone(), injected);
            bucket.qeps.push(qep);
        }
        buckets.push(bucket);
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_workload_has_exact_paper_counts() {
        let w = study_workload(7);
        assert_eq!(w.qeps.len(), 100);
        assert_eq!(w.matching_ids(PatternId::A).len(), 15);
        assert_eq!(w.matching_ids(PatternId::B).len(), 12);
        assert_eq!(w.matching_ids(PatternId::C).len(), 18);
        for q in &w.qeps {
            q.validate().unwrap();
        }
    }

    #[test]
    fn study_workload_manual_precision_matches_table1() {
        let w = study_workload(7);
        let expert = manual::GrepExpert::new();
        let expected = [
            (PatternId::A, 13.0 / 15.0),
            (PatternId::B, 9.0 / 12.0),
            (PatternId::C, 15.0 / 18.0),
        ];
        for (pattern, expect) in expected {
            let truth = w.matching_ids(pattern);
            let found = expert.search_workload(w.qeps.iter(), pattern);
            let p = manual::precision(&found, &truth);
            assert!(
                (p - expect).abs() < 1e-9,
                "{pattern:?}: precision {p}, expected {expect}"
            );
        }
    }

    #[test]
    fn workload_generation_is_deterministic() {
        let config = WorkloadConfig {
            num_qeps: 10,
            ..WorkloadConfig::default()
        };
        let a = generate_workload(&config);
        let b = generate_workload(&config);
        assert_eq!(a.qeps.len(), 10);
        for (x, y) in a.qeps.iter().zip(&b.qeps) {
            assert_eq!(x, y);
        }
        assert_eq!(a.truth, b.truth);
    }

    #[test]
    fn different_seeds_differ() {
        let mut config = WorkloadConfig {
            num_qeps: 5,
            ..WorkloadConfig::default()
        };
        let a = generate_workload(&config);
        config.seed += 1;
        let b = generate_workload(&config);
        assert_ne!(a.qeps, b.qeps);
    }

    #[test]
    fn all_generated_plans_validate() {
        let config = WorkloadConfig {
            num_qeps: 25,
            ..WorkloadConfig::default()
        };
        let w = generate_workload(&config);
        for q in &w.qeps {
            q.validate().unwrap_or_else(|e| panic!("{}: {e}", q.id));
        }
    }

    #[test]
    fn injection_rates_roughly_match_paper() {
        let config = WorkloadConfig {
            num_qeps: 100,
            ..WorkloadConfig::default()
        };
        let w = generate_workload(&config);
        let count = |p| w.matching_ids(p).len();
        // Paper: 15 / 12 / 18 matches per 100 QEPs. Injection is
        // probabilistic per QEP; allow generous slack.
        let a = count(PatternId::A);
        let b = count(PatternId::B);
        let c = count(PatternId::C);
        assert!((7..=25).contains(&a), "A: {a}");
        assert!((5..=22).contains(&b), "B: {b}");
        assert!((9..=28).contains(&c), "C: {c}");
    }

    #[test]
    fn sized_workloads_inject_into_the_same_base_plans() {
        let plain = sized_workloads(0xDB2, false);
        let injected = sized_workloads(0xDB2, true);
        assert_eq!(plain.len(), SIZE_BUCKETS.len());
        for (p, i) in plain.iter().zip(&injected) {
            assert_eq!(p.qeps.len(), 6);
            assert!(p.truth.values().all(Vec::is_empty));
            for (base, spliced) in p.qeps.iter().zip(&i.qeps) {
                assert_eq!(base.id, spliced.id);
                assert!(spliced.op_count() > base.op_count(), "{}", base.id);
                // Every pattern finds a splice point, in every bucket.
                let truth = &i.truth[&base.id];
                assert_eq!(truth, &[PatternId::A, PatternId::B, PatternId::C]);
                spliced.validate().unwrap();
            }
        }
    }

    #[test]
    fn matching_ids_filters_by_pattern() {
        let w = generate_workload(&WorkloadConfig {
            num_qeps: 30,
            ..WorkloadConfig::default()
        });
        for id in w.matching_ids(PatternId::A) {
            assert!(w.truth[id].contains(&PatternId::A));
        }
    }
}
