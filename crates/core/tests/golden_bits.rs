//! Golden answer bits: every report of six seeded query streams, hashed.
//!
//! Each test runs a few hundred seeded queries through the public engine
//! API and folds `(id, p.l bits, p.u bits, label)` of every report — in
//! report order — into one FNV-1a checksum. The recorded checksums pin the
//! exact `f64` bits of every probability bound, so a change that is meant
//! to keep the answers (a new storage layout, a faster sort, a different
//! allocation pattern) proves it here.
//!
//! The six streams cover the evaluation paths whose arithmetic differs:
//! 1-D C-PNN in the verifier regime (P = 0.3, Δ = 0.01) and in the refine
//! regime (P = 0.02, Δ = 0), 1-D C-PkNN at k = 3, 2-D C-PkNN at k = 4, and
//! the two 1-D strategies that run no verifier: Basic (every subregion
//! integrated) and RefineOnly (incremental refinement from vacuous
//! bounds). A change to the verifier chain moves the first two at most.
//! The 1-D set mixes uniform intervals, 3-bar histograms and 100-bar
//! histograms (the last are re-binned to 64 distance bars on every query).
//!
//! **Regenerating.** A change that is *meant* to move answer bits (new
//! cdf arithmetic, a different quadrature) updates the constants below:
//! run `cargo test --release -p cpnn-core --test golden_bits`, copy the
//! `got` value from each failing assertion into its constant, and say in
//! the change's notes why the bits moved. A change that is not meant to
//! move them must pass unedited. Debug and release builds produce the same
//! bits (Rust never contracts or reorders floating-point operations), so
//! the tests run in both.

use cpnn_core::{
    CpnnQuery, CpnnResult, Label, Object2d, ObjectId, Strategy, UncertainDb, UncertainDb2d,
    UncertainObject,
};
use cpnn_pdf::HistogramPdf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NN_VERIFY: u64 = 0x2ea1_712b_bc17_9a89;
const NN_REFINE: u64 = 0x8c42_247b_4ad2_18f7;
const KNN3_1D: u64 = 0xd89e_5a2c_945d_f688;
const KNN4_2D: u64 = 0x8113_120a_d0c0_71ff;
const NN_BASIC: u64 = 0x7414_463e_a45b_af8c;
const NN_REFINE_ONLY: u64 = 0x58c3_5aa9_299c_07c2;

const QUERIES: usize = 300;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn result(&mut self, r: &CpnnResult) {
        for rep in &r.reports {
            self.word(rep.id.0);
            self.word(rep.bound.lo().to_bits());
            self.word(rep.bound.hi().to_bits());
            self.word(match rep.label {
                Label::Satisfy => 0,
                Label::Fail => 1,
                Label::Unknown => 2,
            });
        }
    }
}

/// 2,000 objects on [0, 2 500]: 70% uniform intervals, 20% 3-bar and 10%
/// 100-bar histograms, widths 5–60.
fn db_1d() -> UncertainDb {
    let mut rng = StdRng::seed_from_u64(0x601d);
    let objects: Vec<UncertainObject> = (0..2_000u64)
        .map(|i| {
            let lo = rng.gen_range(0.0..2_500.0);
            let width = rng.gen_range(5.0..60.0);
            let kind = rng.gen_range(0.0..1.0);
            let bars = if kind < 0.7 {
                1
            } else if kind < 0.9 {
                3
            } else {
                100
            };
            if bars == 1 {
                return UncertainObject::uniform(ObjectId(i), lo, lo + width).unwrap();
            }
            let edges: Vec<f64> = (0..=bars)
                .map(|k| lo + width * k as f64 / bars as f64)
                .collect();
            let masses: Vec<f64> = (0..bars).map(|_| rng.gen_range(0.05..1.0)).collect();
            let pdf = HistogramPdf::from_masses(edges, masses).unwrap();
            UncertainObject::from_histogram(ObjectId(i), pdf)
        })
        .collect();
    UncertainDb::build(objects).unwrap()
}

fn queries_1d(seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..QUERIES).map(|_| rng.gen_range(0.0..2_500.0)).collect()
}

/// 3,000 circles and rectangles on [0, 500]², radii / half-sides 2–12.
fn db_2d() -> UncertainDb2d {
    let mut rng = StdRng::seed_from_u64(0x2d2d);
    let objects: Vec<Object2d> = (0..3_000u64)
        .map(|i| {
            let (x, y) = (rng.gen_range(0.0..500.0), rng.gen_range(0.0..500.0));
            let (a, b) = (rng.gen_range(2.0..12.0), rng.gen_range(2.0..12.0));
            if rng.gen_range(0.0..1.0) < 0.5 {
                Object2d::circle(ObjectId(i), [x, y], a).unwrap()
            } else {
                Object2d::rectangle(ObjectId(i), [x - a, y - b], [x + a, y + b]).unwrap()
            }
        })
        .collect();
    UncertainDb2d::build(objects).unwrap()
}

fn check(name: &str, got: u64, want: u64, reports: usize) {
    assert!(reports > QUERIES, "{name}: only {reports} reports");
    assert_eq!(
        got, want,
        "{name}: answer bits moved (got {got:#018x} over {reports} reports)"
    );
}

fn cpnn_1d(threshold: f64, tolerance: f64, seed: u64, strategy: Strategy) -> (u64, usize) {
    let db = db_1d();
    let mut h = Fnv::new();
    let mut reports = 0;
    for q in queries_1d(seed) {
        let r = db
            .cpnn(&CpnnQuery::new(q, threshold, tolerance), strategy)
            .unwrap();
        reports += r.reports.len();
        h.result(&r);
    }
    (h.0, reports)
}

#[test]
fn nn_1d_verify_regime_bits() {
    let (got, n) = cpnn_1d(0.3, 0.01, 11, Strategy::Verified);
    check("1-D VR P=0.3 Δ=0.01", got, NN_VERIFY, n);
}

#[test]
fn nn_1d_refine_regime_bits() {
    let (got, n) = cpnn_1d(0.02, 0.0, 12, Strategy::Verified);
    check("1-D VR P=0.02 Δ=0", got, NN_REFINE, n);
}

#[test]
fn nn_1d_basic_bits() {
    let (got, n) = cpnn_1d(0.3, 0.01, 15, Strategy::Basic);
    check("1-D Basic P=0.3 Δ=0.01", got, NN_BASIC, n);
}

#[test]
fn nn_1d_refine_only_bits() {
    let (got, n) = cpnn_1d(0.02, 0.0, 16, Strategy::RefineOnly);
    check("1-D RefineOnly P=0.02 Δ=0", got, NN_REFINE_ONLY, n);
}

#[test]
fn knn3_1d_bits() {
    let db = db_1d();
    let mut h = Fnv::new();
    let mut reports = 0;
    for q in queries_1d(13) {
        let r = db.cknn(q, 3, 0.3, 0.01).unwrap();
        reports += r.reports.len();
        h.result(&r);
    }
    check("1-D k=3", h.0, KNN3_1D, reports);
}

#[test]
fn knn4_2d_bits() {
    let db = db_2d();
    let mut rng = StdRng::seed_from_u64(14);
    let mut h = Fnv::new();
    let mut reports = 0;
    for _ in 0..QUERIES {
        let q = [rng.gen_range(0.0..500.0), rng.gen_range(0.0..500.0)];
        let r = db.cknn(q, 4, 0.2, 0.01).unwrap();
        reports += r.reports.len();
        h.result(&r);
    }
    check("2-D k=4", h.0, KNN4_2D, reports);
}
