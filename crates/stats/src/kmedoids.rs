//! K-medoids (PAM-style) clustering — an alternative subsetting baseline.
//!
//! The paper picks representatives by hierarchical clustering plus a
//! shortest-runtime rule. K-medoids offers a natural baseline comparison:
//! its medoids *are* representatives by construction (the member minimizing
//! the total distance to its cluster). The ablation benches compare subset
//! quality between the two approaches.

use crate::distance::{DistanceTable, Metric};
use crate::StatsError;

/// Result of a k-medoids run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMedoids {
    /// Indices of the chosen medoids (cluster centers), sorted.
    pub medoids: Vec<usize>,
    /// Cluster label (index into `medoids`) per observation.
    pub labels: Vec<usize>,
    /// Total distance of every observation to its medoid.
    pub cost: f64,
    /// Number of swap iterations performed.
    pub iterations: usize,
}

/// Maximum PAM swap passes before declaring convergence failure.
const MAX_ITERATIONS: usize = 200;

/// Runs PAM-style k-medoids with deterministic (greedy) initialization.
///
/// Initialization picks the observation with minimal total distance first,
/// then greedily adds the point that most reduces cost (the BUILD phase of
/// classic PAM); the swap phase then iterates to a local optimum. The whole
/// procedure is deterministic: ties go to the lowest index, a swap is
/// accepted only when it lowers the cost by more than `1e-12`, and swaps
/// are tried medoid slot by slot, candidate by ascending index.
///
/// Each point's nearest medoid slot, its distance, and the distance to the
/// second-nearest medoid are cached, so a swap candidate costs O(n) rather
/// than a full O(nk) reassignment; the cached sums visit points in the
/// same order and pick the same minima, so the result is bit-identical to
/// recomputing every assignment.
///
/// # Errors
///
/// Returns [`StatsError::InvalidArgument`] unless `1 <= k <= n`, and
/// [`StatsError::Empty`] for no observations.
pub fn k_medoids(
    observations: &[Vec<f64>],
    k: usize,
    metric: Metric,
) -> Result<KMedoids, StatsError> {
    let n = observations.len();
    if n == 0 {
        return Err(StatsError::Empty {
            what: "k-medoids observations",
        });
    }
    if k == 0 || k > n {
        return Err(StatsError::InvalidArgument {
            what: "k must be within 1..=n",
        });
    }
    let table = DistanceTable::from_rows(observations, metric)?;
    let d: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..n).map(|j| table.get(i, j)).collect())
        .collect();
    let by_cost =
        |a: &(usize, f64), b: &(usize, f64)| a.1.partial_cmp(&b.1).expect("finite distances");

    // BUILD: first medoid minimizes total distance; the rest greedily
    // maximize cost reduction, each candidate costed once against every
    // point's distance to its nearest medoid so far.
    let (first, _) = d
        .iter()
        .map(|row| row.iter().sum::<f64>())
        .enumerate()
        .min_by(by_cost)
        .expect("n > 0");
    let mut medoids: Vec<usize> = Vec::with_capacity(k);
    let mut is_medoid = vec![false; n];
    medoids.push(first);
    is_medoid[first] = true;
    let mut nearest: Vec<f64> = (0..n).map(|j| f64::INFINITY.min(d[first][j])).collect();
    while medoids.len() < k {
        let (best, _) = (0..n)
            .filter(|&i| !is_medoid[i])
            .map(|cand| {
                let cost: f64 = (0..n).map(|j| nearest[j].min(d[cand][j])).sum();
                (cand, cost)
            })
            .min_by(by_cost)
            .expect("candidates remain");
        medoids.push(best);
        is_medoid[best] = true;
        for (j, near) in nearest.iter_mut().enumerate() {
            *near = near.min(d[best][j]);
        }
    }

    // SWAP: hill-climb until no single medoid/non-medoid swap improves cost.
    let mut near = Nearest::new(&d, &medoids);
    let mut cost = near.cost();
    let mut iterations = 0;
    loop {
        iterations += 1;
        if iterations > MAX_ITERATIONS {
            return Err(StatsError::NoConvergence {
                routine: "k-medoids swap phase",
                iterations: MAX_ITERATIONS,
            });
        }
        let mut improved = false;
        for mi in 0..k {
            for cand in 0..n {
                if is_medoid[cand] {
                    continue;
                }
                let new_cost = near.cost_with_swap(mi, &d[cand]);
                if new_cost + 1e-12 < cost {
                    is_medoid[medoids[mi]] = false;
                    is_medoid[cand] = true;
                    medoids[mi] = cand;
                    near = Nearest::new(&d, &medoids);
                    cost = new_cost;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    medoids.sort_unstable();
    let near = Nearest::new(&d, &medoids);
    let cost = near.cost();
    Ok(KMedoids {
        medoids,
        labels: near.slot,
        cost,
        iterations,
    })
}

/// Per-point assignment cache of one medoid set: the nearest medoid slot
/// (first minimum on ties), its distance, and the smallest distance to any
/// *other* slot (infinite when k = 1).
struct Nearest {
    slot: Vec<usize>,
    d1: Vec<f64>,
    d2: Vec<f64>,
}

impl Nearest {
    fn new(d: &[Vec<f64>], medoids: &[usize]) -> Self {
        let (slot, (d1, d2)) = (0..d.len())
            .map(|j| {
                let (mut slot, mut d1, mut d2) = (0, f64::INFINITY, f64::INFINITY);
                for (li, &m) in medoids.iter().enumerate() {
                    let dist = d[m][j];
                    if dist < d1 {
                        (slot, d1, d2) = (li, dist, d1);
                    } else {
                        d2 = d2.min(dist);
                    }
                }
                (slot, (d1, d2))
            })
            .unzip();
        Nearest { slot, d1, d2 }
    }

    /// Total distance of every point to its nearest medoid.
    fn cost(&self) -> f64 {
        let mut cost = 0.0;
        for &dist in &self.d1 {
            cost += dist;
        }
        cost
    }

    /// The cost after replacing slot `mi` with the point whose distance row
    /// is `cand`: each point keeps its nearest other medoid unless the
    /// candidate is closer.
    fn cost_with_swap(&self, mi: usize, cand: &[f64]) -> f64 {
        let mut cost = 0.0;
        for (j, &dc) in cand.iter().enumerate() {
            let kept = if self.slot[j] == mi {
                self.d2[j]
            } else {
                self.d1[j]
            };
            cost += kept.min(dc);
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The straightforward PAM loop: every BUILD comparison and every swap
    /// candidate recomputes the full assignment. The differential tests
    /// below hold [`k_medoids`] to it bit for bit.
    fn reference_k_medoids(
        observations: &[Vec<f64>],
        k: usize,
        metric: Metric,
    ) -> Result<KMedoids, StatsError> {
        let n = observations.len();
        if n == 0 {
            return Err(StatsError::Empty {
                what: "k-medoids observations",
            });
        }
        if k == 0 || k > n {
            return Err(StatsError::InvalidArgument {
                what: "k must be within 1..=n",
            });
        }
        let d = DistanceTable::from_rows(observations, metric)?;

        // BUILD: first medoid minimizes total distance; the rest greedily
        // maximize cost reduction.
        let mut medoids: Vec<usize> = Vec::with_capacity(k);
        let first = (0..n)
            .min_by(|&a, &b| {
                let ca: f64 = (0..n).map(|j| d.get(a, j)).sum();
                let cb: f64 = (0..n).map(|j| d.get(b, j)).sum();
                ca.partial_cmp(&cb).expect("finite distances")
            })
            .expect("n > 0");
        medoids.push(first);
        while medoids.len() < k {
            let best = (0..n)
                .filter(|i| !medoids.contains(i))
                .min_by(|&a, &b| {
                    let cost = |cand: usize| -> f64 {
                        (0..n)
                            .map(|j| {
                                medoids
                                    .iter()
                                    .map(|&m| d.get(m, j))
                                    .chain(std::iter::once(d.get(cand, j)))
                                    .fold(f64::INFINITY, f64::min)
                            })
                            .sum()
                    };
                    cost(a).partial_cmp(&cost(b)).expect("finite distances")
                })
                .expect("candidates remain");
            medoids.push(best);
        }

        // SWAP: hill-climb until no single medoid/non-medoid swap improves cost.
        let assign = |medoids: &[usize]| -> (Vec<usize>, f64) {
            let mut labels = vec![0usize; n];
            let mut cost = 0.0;
            for (j, slot) in labels.iter_mut().enumerate() {
                let (label, dist) = medoids
                    .iter()
                    .enumerate()
                    .map(|(li, &m)| (li, d.get(m, j)))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
                    .expect("k >= 1");
                *slot = label;
                cost += dist;
            }
            (labels, cost)
        };

        let (_, mut cost) = assign(&medoids);
        let mut iterations = 0;
        loop {
            iterations += 1;
            if iterations > MAX_ITERATIONS {
                return Err(StatsError::NoConvergence {
                    routine: "k-medoids swap phase",
                    iterations: MAX_ITERATIONS,
                });
            }
            let mut improved = false;
            for mi in 0..k {
                for cand in 0..n {
                    if medoids.contains(&cand) {
                        continue;
                    }
                    let old = medoids[mi];
                    medoids[mi] = cand;
                    let (_, new_cost) = assign(&medoids);
                    if new_cost + 1e-12 < cost {
                        cost = new_cost;
                        improved = true;
                    } else {
                        medoids[mi] = old;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        medoids.sort_unstable();
        let (labels, cost) = assign(&medoids);
        Ok(KMedoids {
            medoids,
            labels,
            cost,
            iterations,
        })
    }

    fn blobs() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, 0.0],
            vec![0.2, 0.1],
            vec![0.1, 0.2],
            vec![10.0, 10.0],
            vec![10.1, 9.9],
            vec![9.9, 10.2],
        ]
    }

    #[test]
    fn two_blobs_two_medoids() {
        let r = k_medoids(&blobs(), 2, Metric::Euclidean).unwrap();
        assert_eq!(r.medoids.len(), 2);
        // One medoid in each blob.
        assert!(r.medoids[0] < 3 && r.medoids[1] >= 3);
        // Labels agree within blobs.
        assert_eq!(r.labels[0], r.labels[1]);
        assert_eq!(r.labels[3], r.labels[5]);
        assert_ne!(r.labels[0], r.labels[3]);
    }

    #[test]
    fn k_equals_n_zero_cost() {
        let obs = blobs();
        let r = k_medoids(&obs, obs.len(), Metric::Euclidean).unwrap();
        assert!(r.cost.abs() < 1e-12);
    }

    #[test]
    fn k_one_picks_most_central() {
        let obs = vec![vec![0.0], vec![1.0], vec![2.0], vec![10.0]];
        let r = k_medoids(&obs, 1, Metric::Euclidean).unwrap();
        // Point 1.0 or 2.0 minimizes total distance (1: 1+0+1+9=11, 2: 2+1+0+8=11).
        assert!(r.medoids[0] == 1 || r.medoids[0] == 2);
    }

    #[test]
    fn cost_decreases_with_k() {
        let obs = blobs();
        let mut last = f64::INFINITY;
        for k in 1..=4 {
            let r = k_medoids(&obs, k, Metric::Euclidean).unwrap();
            assert!(r.cost <= last + 1e-12, "cost rose at k={k}");
            last = r.cost;
        }
    }

    #[test]
    fn invalid_inputs() {
        assert!(k_medoids(&[], 1, Metric::Euclidean).is_err());
        assert!(k_medoids(&blobs(), 0, Metric::Euclidean).is_err());
        assert!(k_medoids(&blobs(), 7, Metric::Euclidean).is_err());
    }

    #[test]
    fn deterministic() {
        let a = k_medoids(&blobs(), 2, Metric::Euclidean).unwrap();
        let b = k_medoids(&blobs(), 2, Metric::Euclidean).unwrap();
        assert_eq!(a, b);
    }

    /// xorshift64* stream for the differential inputs.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Every k in `1..=min(12, n)` must agree with the reference loop on
    /// medoids, labels, cost (exactly) and iteration count.
    fn assert_matches_reference(rows: &[Vec<f64>], what: &str) {
        for k in 1..=rows.len().min(12) {
            let fast = k_medoids(rows, k, Metric::Euclidean).unwrap();
            let slow = reference_k_medoids(rows, k, Metric::Euclidean).unwrap();
            assert_eq!(fast.medoids, slow.medoids, "{what}, k={k}: medoids");
            assert_eq!(fast.labels, slow.labels, "{what}, k={k}: labels");
            assert!(
                fast.cost == slow.cost,
                "{what}, k={k}: cost {} vs {}",
                fast.cost,
                slow.cost
            );
            assert_eq!(
                fast.iterations, slow.iterations,
                "{what}, k={k}: iterations"
            );
        }
    }

    #[test]
    fn matches_reference_on_seeded_random_inputs() {
        for seed in 1..=24u64 {
            let mut rng = Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let n = 1 + rng.below(64) as usize;
            let dims = 2 + rng.below(7) as usize;
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..dims).map(|_| rng.unit() * 10.0 - 5.0).collect())
                .collect();
            assert_matches_reference(&rows, &format!("seed {seed} ({n}x{dims})"));
        }
    }

    #[test]
    fn matches_reference_on_duplicated_rows() {
        for seed in 1..=8u64 {
            let mut rng = Lcg(seed.wrapping_mul(0xbf58_476d_1ce4_e5b9));
            let distinct = 1 + rng.below(12) as usize;
            let dims = 2 + rng.below(7) as usize;
            let pool: Vec<Vec<f64>> = (0..distinct)
                .map(|_| (0..dims).map(|_| rng.unit()).collect())
                .collect();
            let n = distinct + rng.below(64 - distinct as u64) as usize;
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| pool[rng.below(distinct as u64) as usize].clone())
                .collect();
            assert_matches_reference(&rows, &format!("dup seed {seed} ({n} of {distinct})"));
        }
    }

    #[test]
    fn matches_reference_on_integer_grids() {
        for (side, dims) in [(8usize, 2usize), (4, 3), (2, 6), (3, 2)] {
            let n = side.pow(dims as u32).min(64);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    (0..dims)
                        .map(|d| ((i / side.pow(d as u32)) % side) as f64)
                        .collect()
                })
                .collect();
            assert_matches_reference(&rows, &format!("grid {side}^{dims}"));
        }
        let mut rng = Lcg(7);
        let rows: Vec<Vec<f64>> = (0..64)
            .map(|_| (0..4).map(|_| rng.below(3) as f64).collect())
            .collect();
        assert_matches_reference(&rows, "random 3-level lattice");
        assert_matches_reference(&vec![vec![1.0, 2.0]; 20], "all identical");
    }

    #[test]
    fn labels_point_at_nearest_medoid() {
        let obs = blobs();
        let r = k_medoids(&obs, 2, Metric::Euclidean).unwrap();
        for (j, &label) in r.labels.iter().enumerate() {
            let own = Metric::Euclidean
                .distance(&obs[j], &obs[r.medoids[label]])
                .unwrap();
            for &m in &r.medoids {
                let other = Metric::Euclidean.distance(&obs[j], &obs[m]).unwrap();
                assert!(own <= other + 1e-12);
            }
        }
    }
}
