//! Micro-benchmarks of the geospatial substrate: Haversine distance and the
//! k-d tree spatial index.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use moby_geo::{destination_point, haversine_m, GeoPoint, KdTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_points(n: usize, seed: u64) -> Vec<GeoPoint> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            GeoPoint::new(rng.gen_range(53.25..53.42), rng.gen_range(-6.45..-6.08))
                .expect("in range")
        })
        .collect()
}

fn bench_haversine(c: &mut Criterion) {
    let a = GeoPoint::new(53.3498, -6.2603).unwrap();
    let b = GeoPoint::new(53.2945, -6.1336).unwrap();
    c.bench_function("haversine_single_pair", |bench| {
        bench.iter(|| haversine_m(black_box(a), black_box(b)))
    });
    let pts = random_points(1_000, 1);
    c.bench_function("haversine_1k_pairwise_row", |bench| {
        bench.iter(|| {
            let mut acc = 0.0;
            for p in &pts {
                acc += haversine_m(black_box(pts[0]), black_box(*p));
            }
            acc
        })
    });
}

fn bench_indexes(c: &mut Criterion) {
    let mut group = c.benchmark_group("spatial_index");
    for &n in &[1_000usize, 5_000, 14_000] {
        let pts = random_points(n, 7);
        let queries = random_points(200, 9);

        group.bench_with_input(BenchmarkId::new("kdtree_build", n), &n, |bench, _| {
            bench.iter(|| {
                KdTree::build(
                    pts.iter()
                        .copied()
                        .enumerate()
                        .map(|(i, p)| (p, i))
                        .collect::<Vec<_>>(),
                )
            })
        });

        let tree = KdTree::build(
            pts.iter()
                .copied()
                .enumerate()
                .map(|(i, p)| (p, i))
                .collect::<Vec<_>>(),
        );
        group.bench_with_input(
            BenchmarkId::new("kdtree_nearest_200q", n),
            &n,
            |bench, _| {
                bench.iter(|| {
                    queries
                        .iter()
                        .map(|q| tree.nearest(*q).expect("non-empty").2)
                        .sum::<f64>()
                })
            },
        );
    }
    group.finish();

    c.bench_function("destination_point", |bench| {
        let start = GeoPoint::new(53.3498, -6.2603).unwrap();
        bench.iter(|| destination_point(black_box(start), black_box(137.0), black_box(850.0)))
    });
}

criterion_group!(benches, bench_haversine, bench_indexes);
criterion_main!(benches);
