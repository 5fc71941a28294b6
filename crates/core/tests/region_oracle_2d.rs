//! An oracle for 2-D C-PkNN that shares no code with the distance layer:
//! possible worlds are drawn by sampling a position uniformly *inside each
//! 2-D region* (never from a distance cdf or its quantiles), objects are
//! ranked by distance to the query, and `p̂ᵢ` is the share of worlds in which
//! object `i` is among the `k` nearest. `UncertainDb2d::cknn` must then
//! satisfy Definition 1 against `p̂`:
//!
//! * returned ⇒ `p̂ ≥ P − Δ − ε`,
//! * omitted ⇒ `p̂ < P + ε`,
//!
//! where `ε` covers the sampling error (σ ≤ 0.0025 at 40k worlds) and the
//! 48-bin discretization of the distance cdfs.

use cpnn_core::{Object2d, ObjectId, UncertainDb2d};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WORLDS: usize = 40_000;
const EPS: f64 = 0.02;

/// Disks and rectangles packed closely enough that a query has many
/// candidates with probabilities spread over (0, 1).
fn mixed_objects(rng: &mut StdRng) -> Vec<Object2d> {
    (0..18u64)
        .map(|i| {
            let c = [rng.gen_range(-9.0..9.0), rng.gen_range(-9.0..9.0)];
            let id = ObjectId(i);
            if i % 2 == 0 {
                Object2d::circle(id, c, rng.gen_range(0.6..3.0)).unwrap()
            } else {
                let (a, b) = (rng.gen_range(0.4..3.5), rng.gen_range(0.4..3.5));
                Object2d::rectangle(id, [c[0] - a, c[1] - b], [c[0] + a, c[1] + b]).unwrap()
            }
        })
        .collect()
}

/// Squared distance from `q` to a position drawn uniformly inside `o`.
fn sampled_dist2(o: &Object2d, q: [f64; 2], rng: &mut StdRng) -> f64 {
    let p = match o {
        // Rejection from the bounding square: uniform over the disk.
        Object2d::Circle(c) => loop {
            let (u, v) = (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
            if u * u + v * v <= 1.0 {
                break [c.center[0] + c.radius * u, c.center[1] + c.radius * v];
            }
        },
        Object2d::Rectangle { rect, .. } => [
            rng.gen_range(rect.min[0]..rect.max[0]),
            rng.gen_range(rect.min[1]..rect.max[1]),
        ],
    };
    (p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2)
}

/// `p̂ᵢ` = share of sampled worlds in which object `i` is among the `k`
/// nearest to `q`.
fn sampled_knn_probabilities(
    objects: &[Object2d],
    q: [f64; 2],
    k: usize,
    rng: &mut StdRng,
) -> Vec<f64> {
    let mut hits = vec![0usize; objects.len()];
    let mut ranked: Vec<(f64, usize)> = Vec::with_capacity(objects.len());
    for _ in 0..WORLDS {
        ranked.clear();
        ranked.extend(
            objects
                .iter()
                .enumerate()
                .map(|(i, o)| (sampled_dist2(o, q, rng), i)),
        );
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &(_, i) in &ranked[..k] {
            hits[i] += 1;
        }
    }
    hits.into_iter().map(|h| h as f64 / WORLDS as f64).collect()
}

#[test]
fn cknn_answers_satisfy_definition_1_against_region_sampling() {
    let mut rng = StdRng::seed_from_u64(0x2D0_12AC1E);
    let objects = mixed_objects(&mut rng);
    let db = UncertainDb2d::build(objects.clone()).unwrap();
    let queries: Vec<[f64; 2]> = (0..5)
        .map(|_| [rng.gen_range(-7.0..7.0), rng.gen_range(-7.0..7.0)])
        .collect();
    let mut returned = 0;
    let mut omitted_with_mass = 0;
    for k in [1usize, 4] {
        for &q in &queries {
            let p_hat = sampled_knn_probabilities(&objects, q, k, &mut rng);
            let total: f64 = p_hat.iter().sum();
            assert!((total - k as f64).abs() < 1e-9, "k = {k}: Σp̂ = {total}");
            for threshold in [0.1, 0.3, 0.6, 0.9] {
                for tolerance in [0.0, 0.05] {
                    let res = db.cknn(q, k, threshold, tolerance).unwrap();
                    for (o, &p) in objects.iter().zip(&p_hat) {
                        let ctx = format!(
                            "k = {k}, q = {q:?}, P = {threshold}, Δ = {tolerance}, {:?}: p̂ = {p}",
                            o.id()
                        );
                        if res.answers.contains(&o.id()) {
                            assert!(p >= threshold - tolerance - EPS, "returned but {ctx}");
                            returned += 1;
                        } else {
                            assert!(p < threshold + EPS, "omitted but {ctx}");
                            omitted_with_mass += usize::from(p > 0.0);
                        }
                    }
                }
            }
        }
    }
    // The workload exercises both sides of the definition.
    assert!(returned > 50, "only {returned} returned answers");
    assert!(
        omitted_with_mass > 50,
        "only {omitted_with_mass} omitted candidates"
    );
}
