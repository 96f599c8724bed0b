//! Cost-based workload clustering with per-cluster pattern correlation —
//! the paper's fourth motivating use case (§1.1): *"Perform cost based
//! clustering and correlate results of applying expert patterns to each
//! cluster."*
//!
//! Plans are embedded as `(log₁₀(1+total cost), log₁₀(1+operator count))`,
//! normalized per dimension, and clustered with deterministic k-means
//! (farthest-first initialization, so identical inputs give identical
//! clusters). Pattern firing rates are then computed per cluster and
//! compared against the workload-wide rate as a **lift**: a lift well
//! above 1 says the problem concentrates in that cost band.

use std::collections::BTreeMap;

use crate::error::Error;
use crate::kb::{KnowledgeBase, ScanOptions};
use crate::transform::TransformedQep;

/// Feature vector for one plan.
type Point = [f64; 2];

/// One cluster's membership and profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSummary {
    /// Cluster index (0-based, ordered by ascending mean cost).
    pub id: usize,
    /// Member QEP ids.
    pub qep_ids: Vec<String>,
    /// Mean total plan cost of members.
    pub mean_cost: f64,
    /// Mean operator count of members.
    pub mean_ops: f64,
}

/// The clustering result.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadClustering {
    /// Cluster index per workload position.
    pub assignments: Vec<usize>,
    /// Per-cluster summaries, ordered by ascending mean cost.
    pub clusters: Vec<ClusterSummary>,
}

/// Per-cluster firing statistics for one KB entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPatternStat {
    /// Cluster index.
    pub cluster: usize,
    /// KB entry name.
    pub entry: String,
    /// Members of the cluster that match the entry.
    pub hits: usize,
    /// Cluster size.
    pub size: usize,
    /// Firing rate within the cluster (`hits / size`).
    pub rate: f64,
    /// Rate relative to the workload-wide rate (1.0 = no concentration;
    /// undefined rates report 0).
    pub lift: f64,
}

fn features(t: &TransformedQep) -> Point {
    [
        (1.0 + t.qep.total_cost().max(0.0)).log10(),
        (1.0 + t.qep.op_count() as f64).log10(),
    ]
}

fn distance2(a: Point, b: Point) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    dx * dx + dy * dy
}

/// Cluster a workload into (at most) `k` cost bands. Deterministic: the
/// same workload and `k` always produce the same clustering.
pub fn cluster_workload(workload: &[TransformedQep], k: usize) -> WorkloadClustering {
    let n = workload.len();
    let k = k.max(1).min(n.max(1));
    if n == 0 {
        return WorkloadClustering {
            assignments: Vec::new(),
            clusters: Vec::new(),
        };
    }

    // Normalized features.
    let raw: Vec<Point> = workload.iter().map(features).collect();
    let mut lo = [f64::INFINITY; 2];
    let mut hi = [f64::NEG_INFINITY; 2];
    for p in &raw {
        for d in 0..2 {
            lo[d] = lo[d].min(p[d]);
            hi[d] = hi[d].max(p[d]);
        }
    }
    let norm = |p: Point| -> Point {
        let mut out = [0.0; 2];
        for d in 0..2 {
            let span = hi[d] - lo[d];
            out[d] = if span > 0.0 {
                (p[d] - lo[d]) / span
            } else {
                0.0
            };
        }
        out
    };
    let points: Vec<Point> = raw.iter().map(|&p| norm(p)).collect();

    // Farthest-first initialization from the cheapest plan.
    let first = (0..n)
        .min_by(|&a, &b| {
            points[a][0]
                .partial_cmp(&points[b][0])
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("non-empty");
    let mut centroids: Vec<Point> = vec![points[first]];
    while centroids.len() < k {
        let next = (0..n)
            .max_by(|&a, &b| {
                let da = centroids
                    .iter()
                    .map(|&c| distance2(points[a], c))
                    .fold(f64::INFINITY, f64::min);
                let db = centroids
                    .iter()
                    .map(|&c| distance2(points[b], c))
                    .fold(f64::INFINITY, f64::min);
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("non-empty");
        centroids.push(points[next]);
    }

    // Lloyd iterations.
    let mut assignments = vec![0usize; n];
    for _ in 0..32 {
        let mut changed = false;
        for (i, &p) in points.iter().enumerate() {
            let best = (0..centroids.len())
                .min_by(|&a, &b| {
                    distance2(p, centroids[a])
                        .partial_cmp(&distance2(p, centroids[b]))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("at least one centroid");
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        // Recompute centroids (empty clusters keep their position).
        let mut sums = vec![[0.0f64; 2]; centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        for (i, &p) in points.iter().enumerate() {
            let c = assignments[i];
            sums[c][0] += p[0];
            sums[c][1] += p[1];
            counts[c] += 1;
        }
        for (c, centroid) in centroids.iter_mut().enumerate() {
            if counts[c] > 0 {
                *centroid = [sums[c][0] / counts[c] as f64, sums[c][1] / counts[c] as f64];
            }
        }
        if !changed {
            break;
        }
    }

    // Summaries ordered by mean cost; remap assignments accordingly.
    let mut members: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, &c) in assignments.iter().enumerate() {
        members.entry(c).or_default().push(i);
    }
    let mut summaries: Vec<(usize, ClusterSummary)> = members
        .into_iter()
        .map(|(c, idxs)| {
            let mean_cost = idxs
                .iter()
                .map(|&i| workload[i].qep.total_cost())
                .sum::<f64>()
                / idxs.len() as f64;
            let mean_ops = idxs
                .iter()
                .map(|&i| workload[i].qep.op_count() as f64)
                .sum::<f64>()
                / idxs.len() as f64;
            (
                c,
                ClusterSummary {
                    id: 0, // assigned after sorting
                    qep_ids: idxs.iter().map(|&i| workload[i].qep.id.clone()).collect(),
                    mean_cost,
                    mean_ops,
                },
            )
        })
        .collect();
    summaries.sort_by(|a, b| {
        a.1.mean_cost
            .partial_cmp(&b.1.mean_cost)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let remap: BTreeMap<usize, usize> = summaries
        .iter()
        .enumerate()
        .map(|(new, (old, _))| (*old, new))
        .collect();
    let assignments: Vec<usize> = assignments.iter().map(|c| remap[c]).collect();
    let clusters: Vec<ClusterSummary> = summaries
        .into_iter()
        .enumerate()
        .map(|(new, (_, mut s))| {
            s.id = new;
            s
        })
        .collect();

    WorkloadClustering {
        assignments,
        clusters,
    }
}

/// Correlate KB pattern firings with clusters: per (cluster, entry), the
/// firing rate and its lift over the workload-wide rate.
pub fn correlate_patterns(
    clustering: &WorkloadClustering,
    kb: &KnowledgeBase,
    workload: &[TransformedQep],
) -> Result<Vec<ClusterPatternStat>, Error> {
    assert_eq!(clustering.assignments.len(), workload.len());
    let reports = kb
        .scan_workload_with(workload, ScanOptions::default())?
        .reports;

    let mut stats = Vec::new();
    for entry in kb.entries() {
        let fired: Vec<bool> = reports
            .iter()
            .map(|r| r.recommendations.iter().any(|rec| rec.entry == entry.name))
            .collect();
        let global_hits = fired.iter().filter(|&&f| f).count();
        let global_rate = if workload.is_empty() {
            0.0
        } else {
            global_hits as f64 / workload.len() as f64
        };
        for cluster in &clustering.clusters {
            let (mut hits, mut size) = (0usize, 0usize);
            for (i, &assigned) in clustering.assignments.iter().enumerate() {
                if assigned == cluster.id {
                    size += 1;
                    if fired[i] {
                        hits += 1;
                    }
                }
            }
            let rate = if size == 0 {
                0.0
            } else {
                hits as f64 / size as f64
            };
            let lift = if global_rate > 0.0 {
                rate / global_rate
            } else {
                0.0
            };
            stats.push(ClusterPatternStat {
                cluster: cluster.id,
                entry: entry.name.clone(),
                hits,
                size,
                rate,
                lift,
            });
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use optimatch_qep::{InputSource, InputStream, OpType, PlanOp, Qep, StreamKind};

    /// A plan with a single RETURN→SORT chain and a chosen total cost.
    fn plan(id: &str, cost: f64, extra_ops: usize) -> TransformedQep {
        let mut q = Qep::new(id);
        let mut ret = PlanOp::new(1, OpType::Return);
        ret.total_cost = cost;
        ret.inputs.push(InputStream {
            kind: StreamKind::Generic,
            source: InputSource::Op(2),
            estimated_rows: 1.0,
        });
        q.insert_op(ret);
        let mut prev = 1u32;
        for i in 0..=extra_ops as u32 {
            let id = 2 + i;
            let mut op = PlanOp::new(id, OpType::Sort);
            op.total_cost = cost - 1.0 - f64::from(i);
            if i < extra_ops as u32 {
                op.inputs.push(InputStream {
                    kind: StreamKind::Generic,
                    source: InputSource::Op(id + 1),
                    estimated_rows: 1.0,
                });
            }
            q.insert_op(op);
            prev = id;
        }
        let _ = prev;
        TransformedQep::new(q)
    }

    #[test]
    fn clusters_separate_cost_bands() {
        let mut workload = Vec::new();
        for i in 0..6 {
            workload.push(plan(&format!("cheap{i}"), 100.0 + f64::from(i), 2));
        }
        for i in 0..6 {
            workload.push(plan(&format!("costly{i}"), 1e7 + f64::from(i), 2));
        }
        let c = cluster_workload(&workload, 2);
        assert_eq!(c.clusters.len(), 2);
        // Cluster 0 is the cheap band (ordered by mean cost).
        assert!(c.clusters[0].mean_cost < c.clusters[1].mean_cost);
        assert!(c.clusters[0]
            .qep_ids
            .iter()
            .all(|id| id.starts_with("cheap")));
        assert!(c.clusters[1]
            .qep_ids
            .iter()
            .all(|id| id.starts_with("costly")));
        // Assignments align with summaries.
        for (i, &a) in c.assignments.iter().enumerate() {
            assert!(c.clusters[a].qep_ids.contains(&workload[i].qep.id));
        }
    }

    #[test]
    fn clustering_is_deterministic() {
        let workload: Vec<TransformedQep> = (0..12)
            .map(|i| {
                plan(
                    &format!("p{i}"),
                    100.0 * f64::from(1 + i % 5),
                    i as usize % 4,
                )
            })
            .collect();
        let a = cluster_workload(&workload, 3);
        let b = cluster_workload(&workload, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(cluster_workload(&[], 3).clusters.is_empty());
        let one = vec![plan("solo", 42.0, 1)];
        let c = cluster_workload(&one, 5);
        assert_eq!(c.clusters.len(), 1);
        assert_eq!(c.assignments, vec![0]);
    }

    #[test]
    fn correlation_reports_rates_and_lift() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut gen =
            optimatch_workload::PlanGenerator::new(optimatch_workload::GeneratorConfig::default());
        let mut workload = Vec::new();
        for i in 0..12 {
            let mut q = gen.generate_sized(&mut rng, &format!("w{i}"), 40);
            // Inject Pattern A into the second half only.
            if i >= 6 {
                assert!(optimatch_workload::inject::inject_pattern(
                    &mut q,
                    &mut rng,
                    optimatch_workload::PatternId::A,
                    optimatch_workload::Variant::Easy,
                ));
            }
            workload.push(TransformedQep::new(q));
        }
        let clustering = cluster_workload(&workload, 3);
        let kb = builtin::paper_kb();
        let stats = correlate_patterns(&clustering, &kb, &workload).unwrap();
        // One stat row per (cluster, entry).
        assert_eq!(stats.len(), clustering.clusters.len() * kb.len());
        // Rates are rates; sizes sum back to the workload.
        for s in &stats {
            assert!((0.0..=1.0).contains(&s.rate), "{s:?}");
        }
        let a_rows: Vec<_> = stats
            .iter()
            .filter(|s| s.entry == "pattern-a-nljoin-tbscan")
            .collect();
        let total: usize = a_rows.iter().map(|s| s.size).sum();
        assert_eq!(total, 12);
        let hits: usize = a_rows.iter().map(|s| s.hits).sum();
        assert_eq!(hits, 6);
    }
}
