//! Differential property tests for complete-linkage HAC.
//!
//! `hac_clusters` runs a nearest-neighbour chain over the pairs within the
//! threshold only; `hac_dendrogram` builds the full dendrogram over a dense
//! distance matrix. Cutting the dense dendrogram at the threshold must give
//! exactly the same clusters, on random clouds, on clouds with repeated
//! points and on 40 m lattices (dense with distance ties). The output must
//! also be a maximal cut: no two clusters could merge without a member pair
//! ending up more than the threshold apart.

use moby_cluster::hac::{cluster_diameter, hac_clusters, hac_dendrogram, MAX_EXACT_COMPONENT};
use moby_cluster::linkage::Linkage;
use moby_geo::{destination_point, haversine_m, GeoPoint};
use proptest::prelude::*;

/// The thresholds every input is cut at, besides a random one.
const THRESHOLDS: [f64; 4] = [0.0, 50.0, 100.0, 120.0];

fn base() -> GeoPoint {
    GeoPoint::new(53.35, -6.26).expect("valid")
}

/// Points at `(bearing, distance)` offsets from the base.
fn scatter(offsets: &[(f64, f64)]) -> Vec<GeoPoint> {
    offsets
        .iter()
        .map(|&(bearing, dist)| destination_point(base(), bearing, dist))
        .collect()
}

/// A `rows × cols` lattice with `spacing_m` between neighbours.
fn lattice(rows: usize, cols: usize, spacing_m: f64) -> Vec<GeoPoint> {
    let mut pts = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        let row_start = destination_point(base(), 0.0, r as f64 * spacing_m);
        for c in 0..cols {
            pts.push(destination_point(row_start, 90.0, c as f64 * spacing_m));
        }
    }
    pts
}

/// Every cluster's diameter is within `t`, and every two clusters have a
/// member pair more than `t` apart.
fn assert_maximal_cut(points: &[GeoPoint], clusters: &[Vec<usize>], t: f64) {
    for (k, a) in clusters.iter().enumerate() {
        assert!(cluster_diameter(points, a) <= t, "cluster {a:?} too wide");
        for b in &clusters[k + 1..] {
            let separated = a
                .iter()
                .any(|&i| b.iter().any(|&j| haversine_m(points[i], points[j]) > t));
            assert!(
                separated,
                "clusters {a:?} and {b:?} could merge under {t} m"
            );
        }
    }
}

fn check(points: &[GeoPoint], extra_t: f64) {
    let dendrogram = hac_dendrogram(points, Linkage::Complete);
    for t in THRESHOLDS.into_iter().chain([extra_t]) {
        let got = hac_clusters(points, Linkage::Complete, t);
        assert_eq!(got, dendrogram.cut(t), "sparse vs dense at {t} m");
        assert_maximal_cut(points, &got, t);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sparse_matches_dense_on_random_clouds(
        offsets in prop::collection::vec((0.0f64..360.0, 0.0f64..400.0), 1..60),
        t in 0.0f64..200.0,
    ) {
        check(&scatter(&offsets), t);
    }

    #[test]
    fn sparse_matches_dense_with_repeated_points(
        offsets in prop::collection::vec((0.0f64..360.0, 0.0f64..250.0), 1..30),
        repeats in prop::collection::vec(0usize..1_000, 1..30),
        t in 0.0f64..200.0,
    ) {
        let mut pts = scatter(&offsets);
        for r in repeats {
            pts.push(pts[r % pts.len()]);
        }
        check(&pts, t);
    }

    #[test]
    fn sparse_matches_dense_on_lattices(
        rows in 1usize..9,
        cols in 1usize..9,
        t in 0.0f64..200.0,
    ) {
        check(&lattice(rows, cols, 40.0), t);
    }
}

#[test]
fn oversized_component_is_clustered_whole_within_the_bound() {
    // A 75 × 75 lattice at 40 m is one connected component at 100 m, larger
    // than the old bisection limit.
    let pts = lattice(75, 75, 40.0);
    assert!(pts.len() > MAX_EXACT_COMPONENT);
    assert_eq!(hac_clusters(&pts, Linkage::Single, 100.0).len(), 1);
    let clusters = hac_clusters(&pts, Linkage::Complete, 100.0);
    let mut seen = vec![false; pts.len()];
    for c in &clusters {
        assert!(cluster_diameter(&pts, c) <= 100.0, "cluster {c:?} too wide");
        for &i in c {
            assert!(!seen[i], "point {i} in two clusters");
            seen[i] = true;
        }
    }
    assert!(seen.iter().all(|&s| s));
}
