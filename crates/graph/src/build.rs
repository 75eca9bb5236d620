//! Columnar, sort-free CSR construction — the hashmap-free build path.
//!
//! [`WeightedGraph`](crate::WeightedGraph) builds adjacency through
//! per-node hash maps: every inserted edge pays a hash probe per endpoint.
//! That is fine for small graphs but it is the last hash-bound stage on the
//! pipeline's hot path now that every *algorithm* consumes a frozen
//! [`CsrGraph`]. This module replaces it with a columnar pipeline:
//!
//! 1. collect `(src, dst, weight)` triples in a struct-of-arrays
//!    [`EdgeList`];
//! 2. intern external [`NodeId`]s into dense `u32` indices by
//!    **sort + dedup** over `(id, first-occurrence slot)` pairs — no hash
//!    map, and the dense order reproduces the builder's insertion order
//!    exactly (seeded nodes first, then endpoints in edge order), then map
//!    every endpoint in fixed-chunk passes on the [`par`] scheduler;
//! 3. pack the rows with one sort-free kernel, in four linear passes over
//!    a replayable edge stream:
//!    * a **counting pass** counts edges, folds the total weight in
//!      insertion order and counts half-edges per row and per column,
//!      storing nothing per edge;
//!    * a **scatter** streams every half-edge into its column's bucket
//!      (for an undirected graph the column counts are the row counts);
//!    * a **counting transpose** moves the column buckets into row
//!      buckets: each row comes out sorted by column, with equal columns
//!      in insertion order — exactly what a stable per-row sort would give;
//!    * a **linear fold** merges adjacent equal columns in place, each
//!      weight starting at `0.0` and adding in bucket order, compacting
//!      into the final targets and weights.
//!
//!    A directed graph's in-adjacency is the transpose of the out-rows
//!    before they fold, folded the same way.
//!
//! No step depends on the thread count, so construction is
//! **bit-identical at any thread count**; threads speed up step 2's
//! endpoint mapping, the cached-degree sweep and the spilled shards.
//!
//! Sources that already hold dense `u32` endpoints over a known node
//! table skip steps 1–2: [`build_dense_csr`] takes in-memory columns and
//! [`build_dense_csr_budgeted`] a replayable edge stream.
//!
//! ## Sharded construction
//!
//! Shards only partition the spill runs (below). The dense row space
//! splits into contiguous station ranges balanced by half-edge count — a
//! pure function of the row counts and the shard count, never the thread
//! count — and each shard packs its own rows with the same kernel over
//! its own column counts. Because a packed row is a pure function of
//! that row's half-edges *in insertion order*, and each shard sees its
//! rows' half-edges in exactly that order, the sharded build is
//! **bit-identical to the unsharded one at any shard count and any
//! thread count**, the third independence axis after the thread-count
//! and builder/freeze contracts. [`build_dense_csr_budgeted`] takes the
//! shard count explicitly (`None` resolves `MOBY_SHARDS` via
//! [`par::shard_count`]). See `DESIGN.md`.
//!
//! ## One spill decision
//!
//! [`build_dense_csr_budgeted`] is the only entry that can spill, and the
//! only place the budget ([`spill::budget_bytes`]: explicit megabytes,
//! then [`spill::BUDGET_ENV`]) is resolved. After the counting pass it
//! applies the budget rule ([`spill::should_spill`]) to the final edge
//! count. The rule is monotone in the count, so this is the arm a check
//! after every edge would have chosen. Over budget, the build packs out of
//! core: a partition pass appends each half-edge to its owning shard's
//! **disk run** (plain little-endian columnar records under a RAII temp
//! dir, see [`spill`]) in global insertion order and counts that shard's
//! columns, and each shard streams back only its own run through the
//! scatter, transpose and fold above. Because the runs preserve global
//! insertion order within each row, the frozen graph is **bit-identical
//! to the in-memory build at any shard count × thread count × budget** —
//! the fourth independence axis, enforced by `tests/proptest_spill.rs`.
//! The infallible entries ([`build_dense_csr`], [`CsrBuilder::build`])
//! never spill, so they cannot fail on I/O.
//!
//! The output is *exactly* the graph `WeightedGraph::freeze()` would have
//! produced from the same inserts — same dense node table, same sorted
//! rows, same bit pattern in every merged weight and cached degree — which
//! the equivalence proptests assert at 1/2/4 build threads. The builder
//! path survives as the compatibility baseline; this is the hot path.

use crate::csr::CsrParts;
use crate::{par, spill, CsrGraph, NodeId};
use std::path::Path;

/// A struct-of-arrays list of weighted edges — the columnar intermediate
/// between trip records and a frozen [`CsrGraph`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdgeList {
    src: Vec<NodeId>,
    dst: Vec<NodeId>,
    weight: Vec<f64>,
}

impl EdgeList {
    /// An empty edge list.
    pub fn new() -> EdgeList {
        EdgeList::default()
    }

    /// An empty edge list with pre-allocated capacity.
    pub fn with_capacity(n: usize) -> EdgeList {
        EdgeList {
            src: Vec::with_capacity(n),
            dst: Vec::with_capacity(n),
            weight: Vec::with_capacity(n),
        }
    }

    /// Reserve capacity for at least `additional` more edges — the
    /// row-count-hint plumbing loaders and generators use so
    /// multi-million-row builds never pay realloc churn.
    pub fn reserve(&mut self, additional: usize) {
        self.src.reserve(additional);
        self.dst.reserve(additional);
        self.weight.reserve(additional);
    }

    /// Append one edge.
    #[inline]
    pub fn push(&mut self, src: NodeId, dst: NodeId, weight: f64) {
        self.src.push(src);
        self.dst.push(dst);
        self.weight.push(weight);
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// Whether the list holds no edges.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Iterate over the edges as `(src, dst, weight)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.src
            .iter()
            .zip(&self.dst)
            .zip(&self.weight)
            .map(|((&s, &d), &w)| (s, d, w))
    }
}

impl Extend<(NodeId, NodeId, f64)> for EdgeList {
    fn extend<T: IntoIterator<Item = (NodeId, NodeId, f64)>>(&mut self, iter: T) {
        for (s, d, w) in iter {
            self.push(s, d, w);
        }
    }
}

impl FromIterator<(NodeId, NodeId, f64)> for EdgeList {
    fn from_iter<T: IntoIterator<Item = (NodeId, NodeId, f64)>>(iter: T) -> EdgeList {
        let mut list = EdgeList::new();
        list.extend(iter);
        list
    }
}

/// Builds a frozen [`CsrGraph`] from an [`EdgeList`] by the sort-free row
/// packing, without touching a hash map on the per-edge path.
///
/// Semantics mirror [`WeightedGraph`](crate::WeightedGraph) insertion
/// exactly:
///
/// * nodes are interned in first-appearance order (seeded nodes first,
///   then `src` before `dst` within each edge);
/// * parallel edges between the same pair merge by summing weights in
///   insertion order;
/// * undirected edges appear in both endpoint rows but count once in
///   [`CsrGraph::edge_count`] / [`CsrGraph::total_weight`];
/// * non-finite or negative weights are ignored, matching
///   [`WeightedGraph::add_edge`](crate::WeightedGraph::add_edge)'s release
///   behaviour.
///
/// See the [module docs](self) for the pipeline and the determinism
/// contract.
#[derive(Debug, Clone, Default)]
pub struct CsrBuilder {
    directed: bool,
    seeds: Vec<NodeId>,
    edges: EdgeList,
    threads: Option<usize>,
}

impl CsrBuilder {
    /// A builder for an undirected graph.
    pub fn undirected() -> CsrBuilder {
        CsrBuilder {
            directed: false,
            ..CsrBuilder::default()
        }
    }

    /// A builder for a directed graph.
    pub fn directed() -> CsrBuilder {
        CsrBuilder {
            directed: true,
            ..CsrBuilder::default()
        }
    }

    /// Override the worker-thread count for [`CsrBuilder::build`]. `None`
    /// (the default) resolves `MOBY_THREADS` / the machine parallelism via
    /// [`par::thread_count`]. The built graph is bit-identical at any
    /// thread count; this only tunes speed.
    pub fn threads(mut self, threads: Option<usize>) -> CsrBuilder {
        self.threads = threads;
        self
    }

    /// Reserve capacity for at least `additional` more edges (the
    /// row-count hint of [`EdgeList::reserve`]).
    pub fn reserve(&mut self, additional: usize) -> &mut CsrBuilder {
        self.edges.reserve(additional);
        self
    }

    /// Pre-intern nodes in the given order before any edge endpoints —
    /// the analogue of calling
    /// [`WeightedGraph::add_node`](crate::WeightedGraph::add_node) up
    /// front, which is how projections keep isolated stations visible.
    /// Duplicate ids keep their first position.
    pub fn seed_nodes<I: IntoIterator<Item = NodeId>>(&mut self, ids: I) -> &mut CsrBuilder {
        self.seeds.extend(ids);
        self
    }

    /// Append one edge (invalid weights are ignored; see the type docs).
    #[inline]
    pub fn push(&mut self, src: NodeId, dst: NodeId, weight: f64) -> &mut CsrBuilder {
        if weight.is_finite() && weight >= 0.0 {
            self.edges.push(src, dst, weight);
        }
        self
    }

    /// Append every edge of an [`EdgeList`] (invalid weights are ignored).
    pub fn extend_edges(&mut self, edges: &EdgeList) -> &mut CsrBuilder {
        for (s, d, w) in edges.iter() {
            self.push(s, d, w);
        }
        self
    }

    /// Number of (valid) edges buffered so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Freeze the buffered edges into a [`CsrGraph`]. See the
    /// [module docs](self). Never spills: the edges are already in
    /// memory.
    pub fn build(&self) -> CsrGraph {
        let threads = par::thread_count(self.threads);
        let m = self.edges.len();
        assert!(
            m <= (u32::MAX / 2) as usize,
            "edge list exceeds the u32 CSR index space"
        );

        // --- Intern: sort (id, first-slot) pairs, dedup, order by slot. ---
        // Seeded nodes occupy slots 0..S; edge k contributes its src at
        // slot S + 2k and its dst at S + 2k + 1, reproducing the builder's
        // add_node order without a hash map.
        let mut pairs: Vec<(NodeId, u64)> = Vec::with_capacity(self.seeds.len() + 2 * m);
        for (i, &id) in self.seeds.iter().enumerate() {
            pairs.push((id, i as u64));
        }
        let base = self.seeds.len() as u64;
        for k in 0..m {
            pairs.push((self.edges.src[k], base + 2 * k as u64));
            pairs.push((self.edges.dst[k], base + 2 * k as u64 + 1));
        }
        pairs.sort_unstable();
        pairs.dedup_by_key(|p| p.0); // keeps the first (minimal) slot per id
        let mut order: Vec<(u64, NodeId)> = pairs.iter().map(|&(id, slot)| (slot, id)).collect();
        order.sort_unstable();
        let node_ids: Vec<NodeId> = order.iter().map(|&(_, id)| id).collect();
        let n = node_ids.len();
        assert!(n <= u32::MAX as usize, "CSR index space is u32");
        // Sorted-by-id lookup table for binary-search endpoint mapping.
        let mut lookup: Vec<(NodeId, u32)> = node_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i as u32))
            .collect();
        lookup.sort_unstable();

        // --- Map endpoints to dense indices (parallel, fixed chunks). ---
        let edge_chunks = par::RowChunks::uniform(m, 64);
        let resolve = |id: NodeId| -> u32 {
            let at = lookup
                .binary_search_by_key(&id, |&(id, _)| id)
                .expect("endpoint interned");
            lookup[at].1
        };
        let mapped = par::par_map(&edge_chunks, threads, |_, range| {
            range
                .map(|k| (resolve(self.edges.src[k]), resolve(self.edges.dst[k])))
                .collect::<Vec<(u32, u32)>>()
        });
        let mut srcs: Vec<u32> = Vec::with_capacity(m);
        let mut dsts: Vec<u32> = Vec::with_capacity(m);
        for chunk in mapped {
            for (s, d) in chunk {
                srcs.push(s);
                dsts.push(d);
            }
        }
        build_dense_csr(
            self.directed,
            node_ids,
            &srcs,
            &dsts,
            &self.edges.weight,
            Some(threads),
        )
    }
}

/// Build a frozen graph straight from **already-interned dense edge
/// columns** — the zero-copy entry for columnar sources like
/// `moby_data`'s trip table, whose rows carry dense `u32` endpoints over
/// a known node table. Skips the intern/sort and endpoint-mapping passes
/// of [`CsrBuilder::build`]; the row packing and its semantics
/// (insertion-order weight merges, builder edge-count conventions,
/// bit-identical results at any thread count) are identical. Never
/// spills; use [`build_dense_csr_budgeted`] for a memory-bounded build.
///
/// `node_ids` supplies the dense node table (dense index = position);
/// `src[k]`/`dst[k]` must be valid indices into it and every weight must
/// be finite and non-negative — callers validate at the boundary, as the
/// trip table does.
pub fn build_dense_csr(
    directed: bool,
    node_ids: Vec<NodeId>,
    src: &[u32],
    dst: &[u32],
    weight: &[f64],
    threads: Option<usize>,
) -> CsrGraph {
    assert_eq!(src.len(), dst.len(), "dense edge columns must align");
    assert_eq!(src.len(), weight.len(), "dense edge columns must align");
    assert!(
        src.len() <= (u32::MAX / 2) as usize,
        "edge list exceeds the u32 CSR index space"
    );
    let columns = |f: &mut dyn FnMut(u32, u32, f64)| -> crate::Result<()> {
        for k in 0..src.len() {
            f(src[k], dst[k], weight[k]);
        }
        Ok(())
    };
    build_dense_csr_budgeted(
        directed,
        node_ids,
        columns,
        None,
        threads,
        Some(u64::MAX),
        None,
    )
    .expect("an in-memory column stream never spills and cannot fail")
}

/// Build a frozen graph from a **replayable dense edge stream** under an
/// out-of-core memory budget — the one construction entry that can
/// spill, and the one place the budget is resolved.
///
/// `for_each_edge` must replay the same `(src, dst, weight)` sequence —
/// dense indices into `node_ids`, validated weights — on every call, in
/// insertion order. A closure over in-memory columns, a disk spool, or a
/// deterministic generator all qualify. Errors returned by the stream
/// propagate.
///
/// `budget_mb = None` resolves [`spill::BUDGET_ENV`]; no budget anywhere
/// means the build never spills, and `Some(u64::MAX)` is a budget no
/// build can exceed. The first replay only counts; when the estimated
/// footprint of the whole stream (half-edge count ×
/// [`spill::HALF_EDGE_BYTES`]) exceeds the budget, the build packs
/// through per-shard disk runs under `spill_dir` (default: the system
/// temp dir), which are removed on return, error and panic alike. An
/// empty stream never spills. Either way the frozen graph — node table,
/// offsets, targets, merged weight bits, cached degrees, edge count and
/// total weight — is **bit-identical** to [`build_dense_csr`] over the
/// same columns at any shard count × thread count × budget; only peak
/// memory and build speed change. See the [module docs](self).
///
/// `shards = None` resolves `MOBY_SHARDS` via [`par::shard_count`]
/// (default 1); shards only partition the spill runs. Spill I/O failures
/// surface as [`crate::GraphError::Spill`].
pub fn build_dense_csr_budgeted<F>(
    directed: bool,
    node_ids: Vec<NodeId>,
    mut for_each_edge: F,
    shards: Option<usize>,
    threads: Option<usize>,
    budget_mb: Option<u64>,
    spill_dir: Option<&Path>,
) -> crate::Result<CsrGraph>
where
    F: FnMut(&mut dyn FnMut(u32, u32, f64)) -> crate::Result<()>,
{
    let counts = count_edges(node_ids.len(), directed, &mut for_each_edge)?;
    assert!(
        counts.edges <= (u32::MAX / 2) as usize,
        "edge list exceeds the u32 CSR index space"
    );
    let estimate = if directed {
        counts.edges
    } else {
        2 * counts.edges
    };
    let threads = par::thread_count(threads);
    let (out, inn) = if spill::should_spill(estimate, spill::budget_bytes(budget_mb)) {
        let dir = spill::SpillDir::create(spill_dir)?;
        let shards = par::shard_count(shards);
        let out = pack_runs(
            &offsets_of(&counts.row_len),
            &mut |f: &mut dyn FnMut(u32, u32, f64)| out_halves(directed, &mut for_each_edge, f),
            shards,
            threads,
            dir.path(),
            "out",
        )?;
        let inn = if directed {
            pack_runs(
                &offsets_of(&counts.col_len),
                &mut |f: &mut dyn FnMut(u32, u32, f64)| for_each_edge(&mut |s, d, w| f(d, s, w)),
                shards,
                threads,
                dir.path(),
                "in",
            )?
        } else {
            Packed::default()
        };
        (out, inn)
    } else {
        pack_in_memory(directed, &counts, &mut for_each_edge)?
    };
    let edge_count = if directed {
        out.targets.len()
    } else {
        out.pairs_once
    };
    Ok(CsrGraph::from_parts(
        CsrParts {
            directed,
            node_ids,
            offsets: out.offsets,
            targets: out.targets,
            weights: out.weights,
            in_offsets: inn.offsets,
            in_targets: inn.targets,
            in_weights: inn.weights,
            edge_count,
            total_weight: counts.total_weight,
        },
        threads,
    ))
}

/// A replayable dense edge stream, as [`build_dense_csr_budgeted`] takes it.
type Replay<'a> = dyn FnMut(&mut dyn FnMut(u32, u32, f64)) -> crate::Result<()> + 'a;

/// What the counting pass learns about an edge stream without storing an
/// edge.
struct EdgeCounts {
    /// Edges in the stream.
    edges: usize,
    /// The edge weights summed in insertion order, before the undirected
    /// expansion — the builder's total-weight fold.
    total_weight: f64,
    /// Out half-edges per row.
    row_len: Vec<u32>,
    /// Half-edges per column of a directed graph (its in-row lengths);
    /// empty for an undirected one, whose column counts equal `row_len`.
    col_len: Vec<u32>,
}

/// The counting pass: one replay, nothing stored per edge.
fn count_edges(n: usize, directed: bool, for_each_edge: &mut Replay) -> crate::Result<EdgeCounts> {
    let mut counts = EdgeCounts {
        edges: 0,
        total_weight: 0.0,
        row_len: vec![0; n],
        col_len: if directed { vec![0; n] } else { Vec::new() },
    };
    for_each_edge(&mut |s, d, w| {
        debug_assert!(w.is_finite() && w >= 0.0, "invalid weight {w}");
        counts.edges += 1;
        counts.total_weight += w;
        counts.row_len[s as usize] += 1;
        if directed {
            counts.col_len[d as usize] += 1;
        } else if s != d {
            counts.row_len[d as usize] += 1;
        }
    })?;
    Ok(counts)
}

/// Replay the stream as out half-edges `(row, col, weight)`: a directed
/// edge (or an undirected self-loop) is one half-edge, an undirected edge
/// both orientations.
fn out_halves(
    directed: bool,
    for_each_edge: &mut Replay,
    f: &mut dyn FnMut(u32, u32, f64),
) -> crate::Result<()> {
    for_each_edge(&mut |s, d, w| {
        f(s, d, w);
        if !directed && s != d {
            f(d, s, w);
        }
    })
}

/// `counts.len() + 1` bucket offsets: the running sums of `counts`.
fn offsets_of(counts: &[u32]) -> Vec<u32> {
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    let mut end = 0u32;
    offsets.push(end);
    for &c in counts {
        end += c;
        offsets.push(end);
    }
    offsets
}

/// Half-edges grouped into buckets: bucket `k` holds the entries
/// `(idx[p], w[p])` for `p` in `offsets[k]..offsets[k + 1]` of an offset
/// table kept beside it.
struct Buckets {
    idx: Vec<u32>,
    w: Vec<f64>,
}

impl Buckets {
    fn zeroed(len: usize) -> Buckets {
        Buckets {
            idx: vec![0; len],
            w: vec![0.0; len],
        }
    }
}

/// Folded CSR rows: `offsets`/`targets`/`weights` plus `pairs_once`, the
/// folded entries with `row <= col` (the undirected edge-count
/// convention).
#[derive(Default)]
struct Packed {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    pairs_once: usize,
}

/// Bucket half-edges `(row, col, weight)` by row, each row sorted by
/// column with equal columns in stream order: a scatter into column
/// buckets (each listing its `(row, weight)` entries in stream order),
/// then a [`transpose`] into row buckets.
fn sorted_rows(
    row_offsets: &[u32],
    col_offsets: &[u32],
    halves: &mut Replay,
) -> crate::Result<Buckets> {
    let mut cols = Buckets::zeroed(col_offsets[col_offsets.len() - 1] as usize);
    let mut cursor = col_offsets[..col_offsets.len() - 1].to_vec();
    halves(&mut |row, col, w| {
        let p = cursor[col as usize] as usize;
        cursor[col as usize] += 1;
        cols.idx[p] = row;
        cols.w[p] = w;
    })?;
    let mut rows = Buckets::zeroed(cols.idx.len());
    transpose(&cols, col_offsets, &mut rows, row_offsets);
    Ok(rows)
}

/// Counting transpose: entry `(j, w)` of source bucket `k` becomes entry
/// `(k, w)` of destination bucket `j`, overwriting `dst`. Source buckets
/// are visited in key order, so every destination bucket comes out
/// sorted by `k`, and entries with equal `k` keep their source-bucket
/// order — a stable sort by key without a comparison.
fn transpose(src: &Buckets, src_offsets: &[u32], dst: &mut Buckets, dst_offsets: &[u32]) {
    let mut cursor = dst_offsets[..dst_offsets.len() - 1].to_vec();
    for (k, bounds) in src_offsets.windows(2).enumerate() {
        for p in bounds[0] as usize..bounds[1] as usize {
            let j = src.idx[p] as usize;
            let q = cursor[j] as usize;
            cursor[j] += 1;
            dst.idx[q] = k as u32;
            dst.w[q] = src.w[p];
        }
    }
}

/// Fold each column-sorted row bucket in place: a run of equal columns
/// becomes one entry whose weight starts at `0.0` and adds the run in
/// bucket order. `first_row` is the global index of bucket 0. The
/// buckets compact into the final targets and weights.
fn fold(rows: Buckets, offsets: &[u32], first_row: usize) -> Packed {
    let Buckets {
        idx: mut targets,
        w: mut weights,
    } = rows;
    let mut folded = Vec::with_capacity(offsets.len());
    folded.push(0u32);
    let mut end = 0usize;
    let mut pairs_once = 0usize;
    for (r, bounds) in offsets.windows(2).enumerate() {
        let row = (first_row + r) as u32;
        let (mut p, hi) = (bounds[0] as usize, bounds[1] as usize);
        while p < hi {
            let col = targets[p];
            let mut acc = 0.0f64;
            while p < hi && targets[p] == col {
                acc += weights[p];
                p += 1;
            }
            targets[end] = col;
            weights[end] = acc;
            end += 1;
            pairs_once += usize::from(row <= col);
        }
        folded.push(end as u32);
    }
    targets.truncate(end);
    weights.truncate(end);
    Packed {
        offsets: folded,
        targets,
        weights,
        pairs_once,
    }
}

/// The in-memory arm: the out half-edges as [`sorted_rows`], folded. A
/// directed graph's in-adjacency is the transpose of the unfolded
/// out-rows, folded the same way. Returns the out- and in-adjacency
/// (empty for an undirected graph).
fn pack_in_memory(
    directed: bool,
    counts: &EdgeCounts,
    for_each_edge: &mut Replay,
) -> crate::Result<(Packed, Packed)> {
    let row_offsets = offsets_of(&counts.row_len);
    let col_offsets = if directed {
        offsets_of(&counts.col_len)
    } else {
        row_offsets.clone()
    };
    let rows = sorted_rows(&row_offsets, &col_offsets, &mut |f: &mut dyn FnMut(
        u32,
        u32,
        f64,
    )| {
        out_halves(directed, for_each_edge, f)
    })?;
    let inn = if directed {
        let mut in_rows = Buckets::zeroed(rows.idx.len());
        transpose(&rows, &row_offsets, &mut in_rows, &col_offsets);
        fold(in_rows, &col_offsets, 0)
    } else {
        Packed::default()
    };
    Ok((fold(rows, &row_offsets, 0), inn))
}

/// The out-of-core arm for one adjacency. The rows split into contiguous
/// shard ranges balanced by half-edge count (a pure function of
/// `row_offsets` and the shard count). A partition pass appends every
/// half-edge to its shard's disk run in stream order and counts each
/// shard's half-edges per column. Each shard then packs its own run with
/// the in-memory kernel — [`sorted_rows`] over its local column counts,
/// then [`fold`] — and the packs concatenate in shard order.
fn pack_runs(
    row_offsets: &[u32],
    halves: &mut Replay,
    shards: usize,
    threads: usize,
    dir: &Path,
    tag: &str,
) -> crate::Result<Packed> {
    let n = row_offsets.len() - 1;
    let shard_chunks = par::RowChunks::balanced(row_offsets, shards, 1);
    let mut shard_of = vec![0u32; n];
    for (s, rows) in shard_chunks.ranges().iter().enumerate() {
        shard_of[rows.clone()].fill(s as u32);
    }

    // Write errors latch inside the writers and surface at finish().
    let mut writers = spill::ShardRunWriters::create(dir, shard_chunks.len(), tag)?;
    let mut col_len = vec![vec![0u32; n]; shard_chunks.len()];
    halves(&mut |row, col, w| {
        let s = shard_of[row as usize] as usize;
        col_len[s][col as usize] += 1;
        writers.push(s, row, col, w);
    })?;
    let runs = writers.finish()?;

    let packed = par::par_map(&shard_chunks, threads, |s, rows| -> crate::Result<Packed> {
        let base = row_offsets[rows.start];
        let local: Vec<u32> = row_offsets[rows.start..=rows.end]
            .iter()
            .map(|&o| o - base)
            .collect();
        let col_offsets = offsets_of(&col_len[s]);
        let first = rows.start as u32;
        let bucket = sorted_rows(&local, &col_offsets, &mut |f: &mut dyn FnMut(
            u32,
            u32,
            f64,
        )| {
            runs.for_each(s, &mut |row, col, w| f(row - first, col, w))
        })?;
        Ok(fold(bucket, &local, rows.start))
    });
    let mut parts = packed.into_iter().collect::<crate::Result<Vec<Packed>>>()?;
    if parts.len() == 1 {
        return Ok(parts.pop().expect("one shard"));
    }
    let entries = parts.iter().map(|p| p.targets.len()).sum();
    let mut all = Packed {
        offsets: Vec::with_capacity(n + 1),
        targets: Vec::with_capacity(entries),
        weights: Vec::with_capacity(entries),
        pairs_once: 0,
    };
    all.offsets.push(0);
    for p in parts {
        let base = all.targets.len() as u32;
        all.offsets.extend(p.offsets[1..].iter().map(|&o| base + o));
        all.targets.extend_from_slice(&p.targets);
        all.weights.extend_from_slice(&p.weights);
        all.pairs_once += p.pairs_once;
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WeightedGraph;

    fn sample_edges() -> Vec<(NodeId, NodeId, f64)> {
        vec![
            (10, 20, 3.0),
            (20, 30, 1.0),
            (10, 20, 2.0), // merges
            (40, 40, 5.0), // self-loop
            (30, 10, 0.5),
        ]
    }

    /// Bit-strict equality between a built CSR and a frozen builder.
    fn assert_identical(built: &CsrGraph, frozen: &CsrGraph) {
        assert_eq!(built, frozen);
        assert_eq!(
            built.total_weight().to_bits(),
            frozen.total_weight().to_bits()
        );
        for u in 0..frozen.node_count() {
            let (bt, bw) = built.row(u);
            let (ft, fw) = frozen.row(u);
            assert_eq!(bt, ft, "row {u} targets");
            for (a, b) in bw.iter().zip(fw) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {u} weights");
            }
            assert_eq!(built.strength(u).to_bits(), frozen.strength(u).to_bits());
            assert_eq!(
                built.weighted_degree(u).to_bits(),
                frozen.weighted_degree(u).to_bits()
            );
            assert_eq!(built.self_loop(u).to_bits(), frozen.self_loop(u).to_bits());
            let (bit, biw) = built.in_row(u);
            let (fit, fiw) = frozen.in_row(u);
            assert_eq!(bit, fit, "in-row {u} targets");
            for (a, b) in biw.iter().zip(fiw) {
                assert_eq!(a.to_bits(), b.to_bits(), "in-row {u} weights");
            }
        }
    }

    /// Split `(src, dst, weight)` triples into dense columns over their
    /// sorted id table.
    fn dense_sample() -> (Vec<NodeId>, Vec<u32>, Vec<u32>, Vec<f64>) {
        let edges = sample_edges();
        let mut node_ids: Vec<NodeId> = edges.iter().flat_map(|&(s, d, _)| [s, d]).collect();
        node_ids.sort_unstable();
        node_ids.dedup();
        let dense = |id: NodeId| node_ids.binary_search(&id).unwrap() as u32;
        let src = edges.iter().map(|&(s, _, _)| dense(s)).collect();
        let dst = edges.iter().map(|&(_, d, _)| dense(d)).collect();
        let w = edges.iter().map(|&(_, _, w)| w).collect();
        (node_ids, src, dst, w)
    }

    /// A replayable stream over in-memory dense columns.
    fn replay<'a>(
        src: &'a [u32],
        dst: &'a [u32],
        w: &'a [f64],
    ) -> impl FnMut(&mut dyn FnMut(u32, u32, f64)) -> crate::Result<()> + 'a {
        move |f| {
            for k in 0..src.len() {
                f(src[k], dst[k], w[k]);
            }
            Ok(())
        }
    }

    #[test]
    fn forced_spill_matches_in_memory_bitwise() {
        // Budget 0 forces every half-edge through the disk runs; the
        // frozen graph must stay bit-identical to the in-memory build
        // across shard and thread counts, directed and undirected.
        let (node_ids, src, dst, w) = dense_sample();
        for directed in [false, true] {
            let baseline = build_dense_csr(directed, node_ids.clone(), &src, &dst, &w, Some(1));
            for shards in [1usize, 2, 4] {
                for threads in [1usize, 2, 4] {
                    let spilled = build_dense_csr_budgeted(
                        directed,
                        node_ids.clone(),
                        replay(&src, &dst, &w),
                        Some(shards),
                        Some(threads),
                        Some(0),
                        None,
                    )
                    .expect("spilled build");
                    assert_identical(&spilled, &baseline);
                }
            }
        }
    }

    #[test]
    fn huge_budget_never_spills_and_matches() {
        // A budget no build can exceed takes the in-memory arm even with
        // an unusable spill dir: no run directory is ever created.
        let (node_ids, src, dst, w) = dense_sample();
        let file = std::env::temp_dir().join(format!("moby-spill-test-h-{}", std::process::id()));
        std::fs::write(&file, b"not a dir").unwrap();
        for directed in [false, true] {
            let built = build_dense_csr_budgeted(
                directed,
                node_ids.clone(),
                replay(&src, &dst, &w),
                Some(2),
                Some(2),
                Some(u64::MAX),
                Some(&file.join("sub")),
            )
            .expect("in-memory build");
            let plain = build_dense_csr(directed, node_ids.clone(), &src, &dst, &w, Some(1));
            assert_identical(&built, &plain);
        }
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn spill_runs_are_removed_on_success() {
        let base = std::env::temp_dir().join(format!("moby-spill-test-ok-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let (node_ids, src, dst, w) = dense_sample();
        let g = build_dense_csr_budgeted(
            false,
            node_ids,
            replay(&src, &dst, &w),
            None,
            None,
            Some(0),
            Some(&base),
        )
        .expect("spilled build");
        assert_eq!(g.node_count(), 4);
        let leftovers: Vec<_> = std::fs::read_dir(&base).unwrap().collect();
        assert!(
            leftovers.is_empty(),
            "spill runs left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn unwritable_spill_dir_is_an_error_not_a_panic() {
        // A plain file as the base dir: create_dir_all under it fails,
        // and the budgeted build surfaces GraphError::Spill.
        let file = std::env::temp_dir().join(format!("moby-spill-test-f-{}", std::process::id()));
        std::fs::write(&file, b"not a dir").unwrap();
        let (node_ids, src, dst, w) = dense_sample();
        let got = build_dense_csr_budgeted(
            false,
            node_ids,
            replay(&src, &dst, &w),
            None,
            None,
            Some(0),
            Some(&file.join("sub")),
        );
        match got {
            Err(crate::GraphError::Spill(msg)) => {
                assert!(msg.contains("spill dir"), "unexpected message: {msg}")
            }
            other => panic!("expected Err(Spill), got {other:?}"),
        }
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn stream_errors_propagate() {
        let got = build_dense_csr_budgeted(
            false,
            vec![1, 2],
            |_| Err(crate::GraphError::Spill("stream broke".into())),
            None,
            None,
            None,
            None,
        );
        assert_eq!(got, Err(crate::GraphError::Spill("stream broke".into())));
    }

    #[test]
    fn budget_below_the_stream_footprint_spills_and_matches_in_memory() {
        // 40 000 undirected edges estimate 80 000 half-edges (1.22 MiB),
        // over a 1 MB budget, while a 1 000-edge prefix stays under it.
        // An unusable spill dir makes the arm observable: only a build
        // that spills fails on it.
        let n = 300u32;
        let mut x = 5u64;
        let (mut src, mut dst, mut w) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..40_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            src.push(((x >> 33) % u64::from(n)) as u32);
            dst.push(((x >> 17) % u64::from(n)) as u32);
            w.push(((x >> 3) % 100) as f64 / 8.0 + 0.25);
        }
        let node_ids: Vec<NodeId> = (0..u64::from(n)).collect();
        assert!(spill::should_spill(
            2 * src.len(),
            spill::budget_bytes(Some(1))
        ));
        assert!(!spill::should_spill(2 * 1000, spill::budget_bytes(Some(1))));
        let file = std::env::temp_dir().join(format!("moby-spill-test-b-{}", std::process::id()));
        std::fs::write(&file, b"not a dir").unwrap();
        let build = |len: usize, dir: Option<&Path>| {
            build_dense_csr_budgeted(
                false,
                node_ids.clone(),
                replay(&src[..len], &dst[..len], &w[..len]),
                Some(2),
                Some(2),
                Some(1),
                dir,
            )
        };
        let bad_dir = file.join("sub");
        let prefix = build(1000, Some(&bad_dir)).expect("under budget: in memory");
        let whole = build(src.len(), Some(&bad_dir));
        std::fs::remove_file(&file).ok();
        assert!(matches!(whole, Err(crate::GraphError::Spill(_))));
        let plain = |len: usize| {
            build_dense_csr(
                false,
                node_ids.clone(),
                &src[..len],
                &dst[..len],
                &w[..len],
                Some(1),
            )
        };
        assert_identical(&prefix, &plain(1000));
        let got = build(src.len(), None).expect("spilled build");
        assert_identical(&got, &plain(src.len()));
    }

    #[test]
    fn empty_build_never_spills() {
        // Zero budget, unusable spill dir: an empty stream still builds,
        // because there is nothing to spill.
        let file = std::env::temp_dir().join(format!("moby-spill-test-e-{}", std::process::id()));
        std::fs::write(&file, b"not a dir").unwrap();
        let g = build_dense_csr_budgeted(
            false,
            vec![3, 5],
            |_| Ok(()),
            Some(2),
            None,
            Some(0),
            Some(&file.join("sub")),
        )
        .expect("empty build");
        std::fs::remove_file(&file).ok();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn undirected_build_matches_freeze() {
        let mut g = WeightedGraph::new_undirected();
        for &(s, d, w) in &sample_edges() {
            g.add_edge(s, d, w);
        }
        for threads in [1usize, 2, 4] {
            let mut b = CsrBuilder::undirected().threads(Some(threads));
            for &(s, d, w) in &sample_edges() {
                b.push(s, d, w);
            }
            assert_identical(&b.build(), &g.freeze());
        }
    }

    #[test]
    fn directed_build_matches_freeze() {
        let mut g = WeightedGraph::new_directed();
        for &(s, d, w) in &sample_edges() {
            g.add_edge(s, d, w);
        }
        for threads in [1usize, 2, 4] {
            let mut b = CsrBuilder::directed().threads(Some(threads));
            for &(s, d, w) in &sample_edges() {
                b.push(s, d, w);
            }
            assert_identical(&b.build(), &g.freeze());
        }
    }

    #[test]
    fn seeded_nodes_come_first_and_keep_isolated_nodes() {
        let seeds = [5u64, 1, 99];
        let mut g = WeightedGraph::new_undirected();
        for &id in &seeds {
            g.add_node(id);
        }
        g.add_edge(1, 7, 2.0);
        let mut b = CsrBuilder::undirected();
        b.seed_nodes(seeds);
        b.push(1, 7, 2.0);
        let built = b.build();
        assert_identical(&built, &g.freeze());
        assert_eq!(built.node_ids(), &[5, 1, 99, 7]);
        assert_eq!(built.degree_of(99), Some(0));
    }

    #[test]
    fn duplicate_seeds_keep_first_position() {
        let mut b = CsrBuilder::undirected();
        b.seed_nodes([3u64, 3, 1, 3]);
        let built = b.build();
        assert_eq!(built.node_ids(), &[3, 1]);
    }

    #[test]
    fn invalid_weights_are_ignored_entirely() {
        let mut b = CsrBuilder::undirected();
        b.push(1, 2, f64::NAN);
        b.push(3, 4, -1.0);
        assert_eq!(b.edge_count(), 0);
        let built = b.build();
        // Like the builder, a rejected edge interns no endpoints.
        assert!(built.is_empty());
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let built = CsrBuilder::directed().build();
        assert!(built.is_empty());
        assert_eq!(built.edge_count(), 0);
        assert_eq!(built.total_weight(), 0.0);
    }

    #[test]
    fn edge_list_round_trips() {
        let list: EdgeList = sample_edges().into_iter().collect();
        assert_eq!(list.len(), 5);
        assert!(!list.is_empty());
        let back: Vec<_> = list.iter().collect();
        assert_eq!(back, sample_edges());
        let mut b = CsrBuilder::undirected();
        b.extend_edges(&list);
        assert_eq!(b.edge_count(), 5);
        assert!(EdgeList::with_capacity(8).is_empty());
    }

    #[test]
    fn dense_build_matches_seeded_builder() {
        // Dense columns over a sorted node table reproduce exactly what a
        // fully-seeded builder (and therefore a freeze) produces.
        let node_ids: Vec<NodeId> = vec![10, 20, 30, 40, 99];
        let dense = |id: NodeId| node_ids.iter().position(|&x| x == id).unwrap() as u32;
        let (mut src, mut dst, mut w) = (Vec::new(), Vec::new(), Vec::new());
        let mut g_dir = WeightedGraph::new_directed();
        let mut g_und = WeightedGraph::new_undirected();
        for &id in &node_ids {
            g_dir.add_node(id);
            g_und.add_node(id);
        }
        for &(a, b, weight) in &sample_edges() {
            src.push(dense(a));
            dst.push(dense(b));
            w.push(weight);
            g_dir.add_edge(a, b, weight);
            g_und.add_edge(a, b, weight);
        }
        for threads in [Some(1), Some(3)] {
            let built = build_dense_csr(true, node_ids.clone(), &src, &dst, &w, threads);
            assert_identical(&built, &g_dir.freeze());
            let built = build_dense_csr(false, node_ids.clone(), &src, &dst, &w, threads);
            assert_identical(&built, &g_und.freeze());
        }
    }

    #[test]
    fn subgraph_matches_builder_subgraph() {
        let mut g = WeightedGraph::new_undirected();
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 1.5);
        g.add_edge(3, 4, 2.0);
        g.add_edge(2, 2, 0.5);
        let keep = |id: NodeId| id <= 3;
        let via_builder = g.subgraph(keep).freeze();
        let via_csr = g.freeze().subgraph(keep);
        assert_identical(&via_csr, &via_builder);
    }

    #[test]
    fn sharded_dense_build_matches_unsharded() {
        // Small-shard smoke case: every shard count must reproduce the
        // unsharded build bit for bit (the full differential suite lives
        // in tests/proptest_sharded.rs).
        let node_ids: Vec<NodeId> = (0..40).map(|i| i * 3 + 1).collect();
        let mut x = 99u64;
        let (mut src, mut dst, mut w) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..600 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            src.push(((x >> 33) % 40) as u32);
            dst.push(((x >> 17) % 40) as u32);
            w.push(((x >> 3) % 100) as f64 / 16.0 + 0.5);
        }
        for directed in [false, true] {
            let base = build_dense_csr(directed, node_ids.clone(), &src, &dst, &w, Some(2));
            for shards in [1usize, 2, 3, 4, 7] {
                for threads in [1usize, 2, 4] {
                    let sharded = build_dense_csr_budgeted(
                        directed,
                        node_ids.clone(),
                        replay(&src, &dst, &w),
                        Some(shards),
                        Some(threads),
                        Some(u64::MAX),
                        None,
                    )
                    .expect("in-memory build");
                    assert_identical(&sharded, &base);
                }
            }
        }
    }

    #[test]
    fn sharded_build_handles_empty_and_single_row_spaces() {
        for budget_mb in [0, u64::MAX] {
            let build = |directed, node_ids, src: &[u32], dst: &[u32], w: &[f64]| {
                build_dense_csr_budgeted(
                    directed,
                    node_ids,
                    replay(src, dst, w),
                    Some(4),
                    Some(2),
                    Some(budget_mb),
                    None,
                )
                .expect("build")
            };
            assert!(build(false, Vec::new(), &[], &[], &[]).is_empty());
            let one = build(true, vec![7], &[0, 0], &[0, 0], &[1.0, 2.0]);
            assert_eq!(one.node_count(), 1);
            assert_eq!(one.row(0), (&[0u32][..], &[3.0][..]));
        }
    }

    #[test]
    fn duplicate_edges_fold_from_zero_in_insertion_order() {
        // One row's duplicates, inserted out of column order: a lone -0.0
        // edge folds to +0.0 (the fold starts at 0.0), and 1e16 + 1 + 1
        // stays 1e16 only when added in insertion order (column or
        // reversed order gives 1e16 + 2).
        let edges: [(NodeId, NodeId, f64); 6] = [
            (10, 40, 1e16),
            (10, 20, -0.0),
            (10, 40, 1.0),
            (10, 10, 0.5),
            (10, 30, 2.0),
            (10, 40, 1.0),
        ];
        // First-appearance order, so the dense table matches the freeze's.
        let node_ids: Vec<NodeId> = vec![10, 40, 20, 30];
        let dense = |id: NodeId| node_ids.iter().position(|&x| x == id).unwrap() as u32;
        let src: Vec<u32> = edges.iter().map(|e| dense(e.0)).collect();
        let dst: Vec<u32> = edges.iter().map(|e| dense(e.1)).collect();
        let w: Vec<f64> = edges.iter().map(|e| e.2).collect();
        for directed in [false, true] {
            let mut g = if directed {
                WeightedGraph::new_directed()
            } else {
                WeightedGraph::new_undirected()
            };
            for &(s, d, weight) in &edges {
                g.add_edge(s, d, weight);
            }
            let frozen = g.freeze();
            let mut built = Vec::new();
            for threads in [1usize, 2] {
                built.push(build_dense_csr(
                    directed,
                    node_ids.clone(),
                    &src,
                    &dst,
                    &w,
                    Some(threads),
                ));
                let mut b = if directed {
                    CsrBuilder::directed()
                } else {
                    CsrBuilder::undirected()
                }
                .threads(Some(threads));
                for &(s, d, weight) in &edges {
                    b.push(s, d, weight);
                }
                built.push(b.build());
                for budget_mb in [None, Some(0)] {
                    built.push(
                        build_dense_csr_budgeted(
                            directed,
                            node_ids.clone(),
                            replay(&src, &dst, &w),
                            Some(1),
                            Some(threads),
                            budget_mb,
                            None,
                        )
                        .expect("budgeted build"),
                    );
                }
            }
            for got in &built {
                assert_identical(got, &frozen);
                assert_eq!(got.edge_weight(10, 20).map(f64::to_bits), Some(0x0));
                assert_eq!(
                    got.edge_weight(10, 40).map(f64::to_bits),
                    Some(0x4341_C379_37E0_8000)
                );
                assert_eq!(got.edge_weight(10, 10), Some(0.5));
            }
        }
    }

    #[test]
    fn build_is_bit_identical_across_thread_counts() {
        // A larger pseudo-random list so several chunks exist.
        let mut edges = EdgeList::new();
        let mut x = 7u64;
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let s = (x >> 33) % 257;
            let d = (x >> 17) % 257;
            let w = ((x >> 3) % 1000) as f64 / 64.0 + 0.25;
            edges.push(s, d, w);
        }
        for directed in [false, true] {
            let mk = |threads: usize| {
                let mut b = if directed {
                    CsrBuilder::directed()
                } else {
                    CsrBuilder::undirected()
                }
                .threads(Some(threads));
                b.extend_edges(&edges);
                b.build()
            };
            let one = mk(1);
            for threads in [2usize, 3, 8] {
                assert_identical(&mk(threads), &one);
            }
        }
    }
}
