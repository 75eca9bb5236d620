//! Property tests for the **shard independence contract**: on arbitrary
//! dense edge columns, the sharded in-memory construction path
//! ([`build_dense_csr_budgeted`] under a budget no build exceeds) must
//! produce a graph **bit-identical** to the unsharded
//! [`build_dense_csr`] — same dense node table, same offsets/targets,
//! bit-identical merged weights and cached degrees — at every `(shards, threads)` combination in
//! {1, 2, 4} × {1, 2, 4}, directed and undirected, and [`apply_delta`]
//! must treat a sharded-built base exactly like an unsharded one across
//! a chain of batches.
//!
//! [`apply_delta`]: CsrGraph::apply_delta

use moby_graph::{build_dense_csr, build_dense_csr_budgeted, CsrDelta, CsrGraph};
use proptest::prelude::*;

/// Random dense edge columns over a small sorted station table:
/// `(node_ids, src, dst, weight)` with duplicates and self-loops
/// occurring naturally. Ids are sparse (`i * 1_000 + 7`) so nothing
/// accidentally relies on ids being dense indices.
fn dense_columns() -> impl Strategy<Value = (Vec<u64>, Vec<u32>, Vec<u32>, Vec<f64>)> {
    let edges = prop::collection::vec((0u32..1_000, 0u32..1_000, 0.25f64..8.0), 1..260);
    (2u32..40, edges).prop_map(|(n, edges)| {
        let node_ids: Vec<u64> = (0..u64::from(n)).map(|i| i * 1_000 + 7).collect();
        let src: Vec<u32> = edges.iter().map(|&(s, _, _)| s % n).collect();
        let dst: Vec<u32> = edges.iter().map(|&(_, d, _)| d % n).collect();
        let weight: Vec<f64> = edges.iter().map(|&(_, _, w)| w).collect();
        (node_ids, src, dst, weight)
    })
}

/// A replayable dense edge stream over in-memory columns — the shape
/// [`build_dense_csr_budgeted`] consumes.
fn replay<'a>(
    src: &'a [u32],
    dst: &'a [u32],
    weight: &'a [f64],
) -> impl FnMut(&mut dyn FnMut(u32, u32, f64)) -> moby_graph::Result<()> + 'a {
    move |f| {
        for k in 0..src.len() {
            f(src[k], dst[k], weight[k]);
        }
        Ok(())
    }
}

/// Strict equality: the derived `PartialEq` plus bit-level comparison of
/// every weight column and cached degree (`==` would let `0.0 == -0.0`
/// slip through).
fn assert_bit_identical(sharded: &CsrGraph, baseline: &CsrGraph) {
    assert_eq!(sharded, baseline);
    assert_eq!(sharded.node_ids(), baseline.node_ids());
    assert_eq!(sharded.edge_count(), baseline.edge_count());
    assert_eq!(
        sharded.total_weight().to_bits(),
        baseline.total_weight().to_bits()
    );
    for u in 0..baseline.node_count() {
        let (st, sw) = sharded.row(u);
        let (bt, bw) = baseline.row(u);
        assert_eq!(st, bt, "row {u} targets");
        for (a, b) in sw.iter().zip(bw) {
            assert_eq!(a.to_bits(), b.to_bits(), "row {u} merged weight");
        }
        let (sit, siw) = sharded.in_row(u);
        let (bit, biw) = baseline.in_row(u);
        assert_eq!(sit, bit, "in-row {u} targets");
        for (a, b) in siw.iter().zip(biw) {
            assert_eq!(a.to_bits(), b.to_bits(), "in-row {u} merged weight");
        }
        assert_eq!(
            sharded.strength(u).to_bits(),
            baseline.strength(u).to_bits()
        );
        assert_eq!(
            sharded.weighted_degree(u).to_bits(),
            baseline.weighted_degree(u).to_bits()
        );
        assert_eq!(
            sharded.self_loop(u).to_bits(),
            baseline.self_loop(u).to_bits()
        );
    }
}

const SHARDS: [usize; 3] = [1, 2, 4];
const THREADS: [usize; 3] = [1, 2, 4];
/// A budget (MB) no build can exceed: keeps every build in memory, so
/// this suite isolates the shard axis from the spill axis.
const IN_MEMORY: Option<u64> = Some(u64::MAX);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dense builds: every `(shards, threads)` grid point reproduces the
    /// unsharded single-thread build bit for bit.
    #[test]
    fn sharded_dense_build_is_shard_and_thread_independent(
        cols in dense_columns(),
        directed in 0u8..2,
    ) {
        let (node_ids, src, dst, weight) = cols;
        let directed = directed == 1;
        let baseline =
            build_dense_csr(directed, node_ids.clone(), &src, &dst, &weight, Some(1));
        for shards in SHARDS {
            for threads in THREADS {
                let sharded = build_dense_csr_budgeted(
                    directed,
                    node_ids.clone(),
                    replay(&src, &dst, &weight),
                    Some(shards),
                    Some(threads),
                    IN_MEMORY,
                    None,
                )
                .expect("in-memory build");
                assert_bit_identical(&sharded, &baseline);
            }
        }
    }

    /// Delta chains on a **sharded-built base**: splitting the columns
    /// into a base plus two appended batches and applying each batch as a
    /// [`CsrDelta`] lands bit-identically on the one-shot unsharded
    /// rebuild of the full columns — sharding the base never leaks into
    /// the incremental path.
    #[test]
    fn apply_delta_on_sharded_base_matches_unsharded_rebuild(
        cols in dense_columns(),
        directed in 0u8..2,
        cut_a in 0usize..1000,
        cut_b in 0usize..1000,
    ) {
        let (node_ids, src, dst, weight) = cols;
        let directed = directed == 1;
        let m = src.len();
        let (mut a, mut b) = (cut_a % (m + 1), cut_b % (m + 1));
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let mut graph = build_dense_csr_budgeted(
            directed,
            node_ids.clone(),
            replay(&src[..a], &dst[..a], &weight[..a]),
            Some(4),
            Some(2),
            IN_MEMORY,
            None,
        )
        .expect("in-memory base build");
        for batch in [a..b, b..m] {
            let delta = CsrDelta::from_dense(
                directed,
                node_ids.clone(),
                None,
                &src[batch.clone()],
                &dst[batch.clone()],
                &weight[batch],
            );
            graph = graph.apply_delta(&delta, Some(2));
        }
        let rebuilt = build_dense_csr(directed, node_ids, &src, &dst, &weight, Some(1));
        assert_bit_identical(&graph, &rebuilt);
    }
}
