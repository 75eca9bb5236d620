//! Step 3a — temporal graph construction (§IV-C, "Network Structures").
//!
//! Three graphs over the selected station set, one per temporal granularity:
//!
//! * `GBasic` (granularity `TNull`) — stations are nodes, trips are merged
//!   into weighted edges;
//! * `GDay` (granularity `TDay`) — every trip carries the day of the week it
//!   took place;
//! * `GHour` (granularity `THour`) — every trip carries the hour of day it
//!   started.
//!
//! The paper stores the temporal feature as an edge property and lets the
//! Neo4j GDS Louvain see temporally distinct interaction patterns. We
//! reproduce that with a **layered projection**: for `GDay`/`GHour` each
//! node is a `(station, temporal key)` pair and a trip links the two
//! stations *within its own temporal layer*. Louvain then groups stations
//! that exchange many trips **and** do so at similar times; the final
//! station-level community is the station's dominant layer community
//! (weighted by trip volume). This is the interpretation documented in
//! `DESIGN.md` at the repository root; the observable consequences match
//! the paper — community count and modularity both rise with granularity.
//!
//! ## Two construction paths
//!
//! * **Dense slot intern (the production path)** — every full build
//!   ([`build_all_from_trips`], [`build_all_from_trips_spilled`] and
//!   [`build_all_from_spool`]) runs one body over a replayable stream of
//!   cleaned, interned trips. `GBasic` is built over the station table;
//!   `GDay`/`GHour` intern their layered nodes in first-appearance order
//!   over the dense candidate slots `station_index * stride + key`,
//!   bounded by the station table rather than the trip count. Each graph
//!   is frozen by
//!   [`build_dense_csr_budgeted`](moby_graph::build_dense_csr_budgeted),
//!   which alone decides whether the build stays in memory or spills to
//!   disk. No per-edge hash operation anywhere, and bit-identical at any
//!   thread count × shard count × spill budget. The window eviction
//!   ([`apply_evict_all`], [`apply_window_all`]) runs the same layered
//!   intern over the surviving rows: build and evict share one intern.
//! * **Store projection (compatibility / equivalence baseline)** —
//!   [`build_temporal_graph`] re-scans the property store once per
//!   granularity through the `WeightedGraph` hash-map builders and
//!   freezes the result. The equivalence suites assert both paths produce
//!   *identical* frozen graphs; benchmarks keep it around to measure what
//!   the columnar path buys.

use crate::candidate::TRIP_LABEL;
use crate::CoreError;
use moby_data::spool::TripSpool;
use moby_data::trips::{AppendOutcome, EvictOutcome, TripTable};
use moby_graph::aggregate;
use moby_graph::{CsrDelta, CsrEvict, CsrGraph, GraphStore, NodeId, WeightedGraph};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::Path;

/// Temporal granularity of a station graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TemporalGranularity {
    /// No temporal feature (`GBasic`).
    TNull,
    /// Day of the week the trip took place (`GDay`).
    TDay,
    /// Hour of the day the trip began (`GHour`).
    THour,
}

impl TemporalGranularity {
    /// All granularities in the order the paper evaluates them.
    pub const ALL: [TemporalGranularity; 3] = [
        TemporalGranularity::TNull,
        TemporalGranularity::TDay,
        TemporalGranularity::THour,
    ];

    /// The layer stride used to encode `(station, key)` pairs as node ids.
    /// Must exceed the largest key (7 days / 24 hours).
    pub fn stride(&self) -> u64 {
        match self {
            TemporalGranularity::TNull => 1,
            TemporalGranularity::TDay => 8,
            TemporalGranularity::THour => 32,
        }
    }

    /// The edge-property name carrying this granularity's key.
    pub fn property(&self) -> Option<&'static str> {
        match self {
            TemporalGranularity::TNull => None,
            TemporalGranularity::TDay => Some("day"),
            TemporalGranularity::THour => Some("hour"),
        }
    }

    /// The graph name the paper uses.
    pub fn graph_name(&self) -> &'static str {
        match self {
            TemporalGranularity::TNull => "GBasic",
            TemporalGranularity::TDay => "GDay",
            TemporalGranularity::THour => "GHour",
        }
    }
}

/// A station graph at a given temporal granularity.
#[derive(Debug, Clone)]
pub struct TemporalGraph {
    /// The granularity this graph was built for.
    pub granularity: TemporalGranularity,
    /// The legacy undirected **builder** graph, populated only by the
    /// store-projection path ([`build_temporal_graph`]) where it serves as
    /// the equivalence baseline. The columnar path
    /// ([`build_all_from_trips`]) never materialises it. For `TNull` the
    /// nodes are station ids; for `TDay`/`THour` they are layered
    /// `(station, key)` ids.
    pub builder: Option<WeightedGraph>,
    /// The frozen CSR graph, produced once at build time. Louvain,
    /// modularity and the station folding all consume this — the temporal
    /// layer owns freezing, so detection never re-derives adjacency.
    pub csr: CsrGraph,
    /// For layered graphs: layered node id → `(station id, temporal key)`.
    /// `None` for `TNull`.
    pub layer_map: Option<HashMap<NodeId, (NodeId, u32)>>,
}

impl TemporalGraph {
    /// Wrap a built (possibly layered) station builder graph, freezing its
    /// CSR projection once and keeping the builder as the equivalence
    /// baseline.
    pub fn new(
        granularity: TemporalGranularity,
        graph: WeightedGraph,
        layer_map: Option<HashMap<NodeId, (NodeId, u32)>>,
    ) -> TemporalGraph {
        let csr = graph.freeze();
        TemporalGraph {
            granularity,
            builder: Some(graph),
            csr,
            layer_map,
        }
    }

    /// Wrap an already-frozen graph produced by the columnar build path —
    /// no builder graph exists on the hot path.
    pub fn from_csr(
        granularity: TemporalGranularity,
        csr: CsrGraph,
        layer_map: Option<HashMap<NodeId, (NodeId, u32)>>,
    ) -> TemporalGraph {
        TemporalGraph {
            granularity,
            builder: None,
            csr,
            layer_map,
        }
    }

    /// The station id behind a (possibly layered) node id.
    pub fn station_of(&self, node: NodeId) -> NodeId {
        match &self.layer_map {
            None => node,
            Some(map) => map.get(&node).map(|&(s, _)| s).unwrap_or(node),
        }
    }

    /// Number of distinct stations represented in the graph.
    pub fn station_count(&self) -> usize {
        match &self.layer_map {
            None => self.csr.node_count(),
            Some(map) => {
                let mut stations: Vec<NodeId> = map.values().map(|&(s, _)| s).collect();
                stations.sort_unstable();
                stations.dedup();
                stations.len()
            }
        }
    }
}

/// Build the station graph for a granularity from the selected network's
/// trip store.
pub fn build_temporal_graph(store: &GraphStore, granularity: TemporalGranularity) -> TemporalGraph {
    match granularity {
        TemporalGranularity::TNull => TemporalGraph::new(
            granularity,
            aggregate::project_undirected(store, TRIP_LABEL),
            None,
        ),
        TemporalGranularity::TDay | TemporalGranularity::THour => {
            let property = granularity.property().expect("layered granularity");
            let stride = granularity.stride();
            let (graph, layer_map) = aggregate::project_layered(store, TRIP_LABEL, stride, |e| {
                e.props
                    .get(property)
                    .and_then(|v| v.as_int())
                    .map(|v| v as u32)
            });
            TemporalGraph::new(granularity, graph, Some(layer_map))
        }
    }
}

/// Build all three temporal graphs.
pub fn build_all(store: &GraphStore) -> Vec<TemporalGraph> {
    TemporalGranularity::ALL
        .iter()
        .map(|&g| build_temporal_graph(store, g))
        .collect()
}

/// Decode a layered graph's node table back into the
/// `layered id → (station, key)` map. Layered ids are
/// `station * stride + key` by construction, so the map is pure
/// arithmetic over the nodes the build actually touched.
fn decode_layer_map(csr: &CsrGraph, stride: u64) -> HashMap<NodeId, (NodeId, u32)> {
    csr.node_ids()
        .iter()
        .map(|&id| (id, (id / stride, (id % stride) as u32)))
        .collect()
}

/// Extend a layer map (taken by value — the delta path moves it out of
/// the consumed [`TemporalGraph`]) with only the layered nodes a delta
/// appended (dense indices `n_old..`) — the incremental counterpart of
/// [`decode_layer_map`], with an identical result at O(batch) cost.
fn extend_layer_map(
    old: Option<HashMap<NodeId, (NodeId, u32)>>,
    csr: &CsrGraph,
    stride: u64,
    n_old: usize,
) -> HashMap<NodeId, (NodeId, u32)> {
    let mut map = old.unwrap_or_default();
    for &id in &csr.node_ids()[n_old..] {
        map.insert(id, (id / stride, (id % stride) as u32));
    }
    map
}

/// A spill budget (MB) no build can exceed: the infallible table build
/// stays in memory whatever `MOBY_SPILL_BUDGET_MB` says.
const NEVER_SPILL_MB: u64 = u64::MAX;

/// Build all three temporal graphs from the columnar [`TripTable`] — the
/// hot construction path.
///
/// The table's rows feed the one construction body this module has (see
/// the [module docs](self)): `GBasic` edges are the station pairs
/// themselves, `GDay`/`GHour` edges join `(station, key)` layered nodes
/// interned over the dense candidate slots. Zero per-edge hash
/// operations end to end, and (per the scheduler contract) bit-identical
/// results at any `threads` setting. This entry never spills, so it
/// cannot fail; `MOBY_SHARDS` sets the construction shard count.
///
/// `basic` optionally supplies an already-built station-level undirected
/// CSR (the pipeline shares the selected network's
/// [`undirected`](crate::reassign::SelectedNetwork::undirected) graph so
/// `GBasic` is built exactly once); pass `None` to build it from the
/// table here.
///
/// The frozen graphs are **identical** to what the legacy store
/// projection ([`build_temporal_graph`]) produces — the synthetic-dataset
/// equivalence suite asserts this bitwise — because both paths intern
/// nodes in the same first-appearance order and merge duplicate edges in
/// the same insertion order. That baseline weights every trip at 1.0, so
/// the equivalence claim covers the unit-weight tables cleaning produces;
/// a table with explicit
/// [`push_weighted`](moby_data::trips::TripTable::push_weighted) weights
/// builds the weighted generalisation the store projection cannot
/// represent.
pub fn build_all_from_trips(
    trips: &TripTable,
    basic: Option<&CsrGraph>,
    threads: Option<usize>,
) -> Vec<TemporalGraph> {
    build_all_dense(trips, basic, None, threads, Some(NEVER_SPILL_MB), None)
        .expect("an in-memory build over a trip table performs no I/O")
}

/// [`build_all_from_trips`] with explicit construction **shards** and an
/// out-of-core **spill budget** — the bounded-memory city-scale entry
/// point.
///
/// `shards: None` defers to the `MOBY_SHARDS` environment knob and then
/// to 1; shard boundaries are a pure function of the row structure and
/// the shard count, never of scheduling (see `DESIGN.md`, "Sharded
/// construction"). `budget_mb = None` resolves the `MOBY_SPILL_BUDGET_MB`
/// environment knob; each graph whose estimated scatter footprint
/// exceeds the resolved budget partitions its half-edges to per-shard
/// disk runs under `spill_dir` (default: the system temp dir) instead of
/// in-memory scatter columns. The frozen graphs and layer maps are
/// **bit-identical** to [`build_all_from_trips`] at any shard count ×
/// thread count × budget — the fourth independence axis; see
/// `DESIGN.md`, "Out-of-core construction". Spill I/O failures surface
/// as [`CoreError::Spill`].
pub fn build_all_from_trips_spilled(
    trips: &TripTable,
    basic: Option<&CsrGraph>,
    shards: Option<usize>,
    threads: Option<usize>,
    budget_mb: Option<u64>,
    spill_dir: Option<&Path>,
) -> crate::Result<Vec<TemporalGraph>> {
    build_all_dense(trips, basic, shards, threads, budget_mb, spill_dir)
}

/// Build all three temporal graphs straight from a disk-backed
/// [`TripSpool`] — the fully streaming arm: the city generator's rows
/// flow through
/// [`clean_trip_stream_spooled`](moby_data::clean::clean_trip_stream_spooled)
/// to one spool, and every granularity replays that spool into disk
/// spill runs (a zero budget), so the full `TripTable` edge columns never
/// materialise in memory.
///
/// `GBasic` seeds the full station table (isolated stations stay
/// visible, like every other build path). The result is bit-identical
/// to [`build_all_from_trips`] over the equivalent in-memory table.
pub fn build_all_from_spool(
    spool: &TripSpool,
    shards: Option<usize>,
    threads: Option<usize>,
    spill_dir: Option<&Path>,
) -> crate::Result<Vec<TemporalGraph>> {
    build_all_dense(spool, None, shards, threads, Some(0), spill_dir)
}

/// A replayable stream of cleaned, interned trips — the abstraction that
/// lets the one construction body consume either the in-memory
/// [`TripTable`] columns or a disk-backed [`TripSpool`]. Rows are
/// `(src, dst, day, hour, weight)` with dense station indices, replayed
/// in insertion order on every call.
trait TripSource {
    /// The sorted station intern table the dense indices refer to.
    fn stations(&self) -> &[NodeId];
    /// Replay every row in insertion order.
    fn replay(
        &self,
        f: &mut dyn FnMut(u32, u32, u8, u8, f64),
    ) -> std::result::Result<(), moby_graph::GraphError>;
}

impl TripSource for TripTable {
    fn stations(&self) -> &[NodeId] {
        self.station_ids()
    }

    fn replay(
        &self,
        f: &mut dyn FnMut(u32, u32, u8, u8, f64),
    ) -> std::result::Result<(), moby_graph::GraphError> {
        let (src, dst) = (self.src(), self.dst());
        let (day, hour, weight) = (self.day(), self.hour(), self.weights());
        for k in 0..self.len() {
            f(src[k], dst[k], day[k], hour[k], weight[k]);
        }
        Ok(())
    }
}

impl TripSource for TripSpool {
    fn stations(&self) -> &[NodeId] {
        self.station_ids()
    }

    fn replay(
        &self,
        f: &mut dyn FnMut(u32, u32, u8, u8, f64),
    ) -> std::result::Result<(), moby_graph::GraphError> {
        // City trips are unit-weight by construction (the spool stores no
        // weight column); I/O failures surface as spill errors.
        self.for_each(&mut |s, d, day, hour| f(s, d, day, hour, 1.0))
            .map_err(|e| moby_graph::GraphError::Spill(format!("replaying trip spool: {e}")))
    }
}

/// The one full-build body: `GBasic` over the station table (unless the
/// caller shares one), `GDay`/`GHour` through the layered slot intern —
/// each frozen by the budgeted stream entry.
fn build_all_dense(
    source: &dyn TripSource,
    basic: Option<&CsrGraph>,
    shards: Option<usize>,
    threads: Option<usize>,
    budget_mb: Option<u64>,
    spill_dir: Option<&Path>,
) -> crate::Result<Vec<TemporalGraph>> {
    let basic_csr = match basic {
        Some(csr) => csr.clone(),
        None => moby_graph::build_dense_csr_budgeted(
            false,
            source.stations().to_vec(),
            |f| source.replay(&mut |s, d, _, _, w| f(s, d, w)),
            shards,
            threads,
            budget_mb,
            spill_dir,
        )?,
    };
    let day_csr = build_layered(
        source,
        TemporalGranularity::TDay,
        shards,
        threads,
        budget_mb,
        spill_dir,
    )?;
    let hour_csr = build_layered(
        source,
        TemporalGranularity::THour,
        shards,
        threads,
        budget_mb,
        spill_dir,
    )?;
    let day_map = decode_layer_map(&day_csr, TemporalGranularity::TDay.stride());
    let hour_map = decode_layer_map(&hour_csr, TemporalGranularity::THour.stride());
    Ok(vec![
        TemporalGraph::from_csr(TemporalGranularity::TNull, basic_csr, None),
        TemporalGraph::from_csr(TemporalGranularity::TDay, day_csr, Some(day_map)),
        TemporalGraph::from_csr(TemporalGranularity::THour, hour_csr, Some(hour_map)),
    ])
}

/// The layered first-appearance intern — the one both the full build and
/// the eviction run. Candidates are the dense slots
/// `station_index * stride + key`, bounded by the station table rather
/// than the trip count. Interning rows in order, src before dst, numbers
/// each present candidate at its first appearance: the order the store
/// projection and the delta path intern in. One array probe per endpoint;
/// no hash, no sort.
struct LayerIntern<'a> {
    granularity: TemporalGranularity,
    stations: &'a [NodeId],
    /// Candidate slot → dense node index (`u32::MAX` = not seen yet).
    dense: Vec<u32>,
    /// Layered node ids, dense index = position.
    node_ids: Vec<NodeId>,
}

impl<'a> LayerIntern<'a> {
    fn new(stations: &'a [NodeId], granularity: TemporalGranularity) -> LayerIntern<'a> {
        debug_assert!(
            granularity != TemporalGranularity::TNull,
            "TNull has no layers"
        );
        let n_cand = stations.len() * granularity.stride() as usize;
        assert!(n_cand <= u32::MAX as usize, "CSR index space is u32");
        LayerIntern {
            granularity,
            stations,
            dense: vec![u32::MAX; n_cand],
            node_ids: Vec::new(),
        }
    }

    /// A row's layer key in this granularity.
    #[inline]
    fn key(&self, day: u8, hour: u8) -> u8 {
        if self.granularity == TemporalGranularity::TDay {
            day
        } else {
            hour
        }
    }

    /// The candidate slot of dense station `s` in a row's layer.
    #[inline]
    fn slot(&self, s: u32, day: u8, hour: u8) -> usize {
        s as usize * self.granularity.stride() as usize + usize::from(self.key(day, hour))
    }

    /// Intern one endpoint, returning its dense index.
    #[inline]
    fn intern_one(&mut self, s: u32, day: u8, hour: u8) -> u32 {
        let slot = self.slot(s, day, hour);
        if self.dense[slot] == u32::MAX {
            self.dense[slot] = self.node_ids.len() as u32;
            let stride = self.granularity.stride();
            let key = slot as u64 % stride;
            self.node_ids.push(self.stations[s as usize] * stride + key);
        }
        self.dense[slot]
    }

    /// Intern one row's endpoints, src first.
    #[inline]
    fn intern(&mut self, s: u32, d: u32, day: u8, hour: u8) -> (u32, u32) {
        (self.intern_one(s, day, hour), self.intern_one(d, day, hour))
    }

    /// Dense indices of an already-interned row.
    #[inline]
    fn lookup(&self, s: u32, d: u32, day: u8, hour: u8) -> (u32, u32) {
        (
            self.dense[self.slot(s, day, hour)],
            self.dense[self.slot(d, day, hour)],
        )
    }
}

/// One layered granularity: a replay through the [`LayerIntern`] fixes
/// the node table, and a second replay streams the interned rows into
/// the budgeted builder.
fn build_layered(
    source: &dyn TripSource,
    granularity: TemporalGranularity,
    shards: Option<usize>,
    threads: Option<usize>,
    budget_mb: Option<u64>,
    spill_dir: Option<&Path>,
) -> crate::Result<CsrGraph> {
    let mut intern = LayerIntern::new(source.stations(), granularity);
    source.replay(&mut |s, d, day, hour, _| {
        intern.intern(s, d, day, hour);
    })?;
    let node_ids = std::mem::take(&mut intern.node_ids);
    moby_graph::build_dense_csr_budgeted(
        false,
        node_ids,
        |f| {
            source.replay(&mut |s, d, day, hour, w| {
                let (s, d) = intern.lookup(s, d, day, hour);
                f(s, d, w)
            })
        },
        shards,
        threads,
        budget_mb,
        spill_dir,
    )
    .map_err(CoreError::from)
}

/// Advance all three temporal graphs by one ingested trip batch — the
/// incremental counterpart of [`build_all_from_trips`].
///
/// `trips` is the table **after**
/// [`TripTable::append_batch`](moby_data::trips::TripTable::append_batch)
/// and `outcome` is what that append returned; **one pass** over the
/// appended rows (`outcome.batch_start..`) emits the per-granularity edge
/// deltas (layer keys folded into node ids inline, as in the full build),
/// which merge into the existing frozen graphs via
/// [`CsrGraph::apply_delta`] — untouched rows are copied, never re-merged
/// from trips.
///
/// The three graphs are **consumed**: their frozen CSRs seed the deltas
/// and the layered maps move into the results (no per-batch clone of
/// state the batch didn't touch) — call as
/// `temporals = apply_batch_all(temporals, ..)`. `basic` optionally
/// supplies the already-delta-updated station-level undirected CSR (the
/// pipeline clones
/// [`SelectedNetwork::undirected`](crate::reassign::SelectedNetwork::undirected)
/// in after [`ingest_batch`](crate::reassign::SelectedNetwork::ingest_batch),
/// so `GBasic` is advanced exactly once); pass `None` to delta `GBasic`
/// from the batch here.
///
/// **Equivalence contract:** the returned graphs (and layer maps) are
/// bit-identical to [`build_all_from_trips`] over the full appended
/// table, at any thread count — new layered nodes intern exactly where a
/// full rebuild would place them (first batch appearance, after all
/// existing nodes) and new stations shift the `GBasic` node table through
/// `outcome.old_to_new`. The differential proptest suite
/// (`crates/core/tests/proptest_delta.rs`) asserts this for random batch
/// chains at 1/2/4 threads.
///
/// # Panics
///
/// If `temporals` is not the three-granularity slice the build functions
/// produce, in granularity order.
pub fn apply_batch_all(
    temporals: Vec<TemporalGraph>,
    trips: &TripTable,
    outcome: &AppendOutcome,
    basic: Option<CsrGraph>,
    threads: Option<usize>,
) -> Vec<TemporalGraph> {
    assert_eq!(temporals.len(), 3, "expected GBasic/GDay/GHour");
    for (t, g) in temporals.iter().zip(TemporalGranularity::ALL) {
        assert_eq!(t.granularity, g, "temporal graphs out of order");
    }
    let day_stride = TemporalGranularity::TDay.stride();
    let hour_stride = TemporalGranularity::THour.stride();

    // One pass over the appended rows: layered edge lists per granularity.
    let rows = outcome.batch_start..trips.len();
    let (src, dst) = (trips.src(), trips.dst());
    let (day, hour, weight) = (trips.day(), trips.hour(), trips.weights());
    let mut day_edges = Vec::with_capacity(rows.len());
    let mut hour_edges = Vec::with_capacity(rows.len());
    for k in rows {
        let s = trips.station_id(src[k]);
        let d = trips.station_id(dst[k]);
        let w = weight[k];
        let dk = day[k] as u64;
        day_edges.push((s * day_stride + dk, d * day_stride + dk, w));
        let hk = hour[k] as u64;
        hour_edges.push((s * hour_stride + hk, d * hour_stride + hk, w));
    }

    let mut temporals = temporals;
    let hour_t = temporals.pop().expect("three granularities");
    let day_t = temporals.pop().expect("three granularities");
    let basic_t = temporals.pop().expect("three granularities");

    let basic_csr = match basic {
        Some(csr) => csr,
        None => {
            // Station-level delta over the (possibly extended) sorted
            // intern table, dense columns straight from the appended rows.
            let bs = outcome.batch_start;
            let delta = CsrDelta::from_dense(
                false,
                trips.station_ids().to_vec(),
                outcome.old_to_new.clone(),
                &trips.src()[bs..],
                &trips.dst()[bs..],
                &trips.weights()[bs..],
            );
            basic_t.csr.apply_delta(&delta, threads)
        }
    };
    let (day_old_n, hour_old_n) = (day_t.csr.node_count(), hour_t.csr.node_count());
    let day_delta = CsrDelta::extend_by_id(&day_t.csr, day_edges);
    let day_csr = day_t.csr.apply_delta(&day_delta, threads);
    let hour_delta = CsrDelta::extend_by_id(&hour_t.csr, hour_edges);
    let hour_csr = hour_t.csr.apply_delta(&hour_delta, threads);

    // Layer maps are moved out of the consumed graphs and extended with
    // only the layered nodes the deltas appended — O(batch) hash inserts
    // and no re-decode of the full node table.
    let day_map = extend_layer_map(day_t.layer_map, &day_csr, day_stride, day_old_n);
    let hour_map = extend_layer_map(hour_t.layer_map, &hour_csr, hour_stride, hour_old_n);
    vec![
        TemporalGraph::from_csr(TemporalGranularity::TNull, basic_csr, None),
        TemporalGraph::from_csr(TemporalGranularity::TDay, day_csr, Some(day_map)),
        TemporalGraph::from_csr(TemporalGranularity::THour, hour_csr, Some(hour_map)),
    ]
}

/// Retreat all three temporal graphs past an eviction — the removal
/// counterpart of [`apply_batch_all`] and the other half of the windowed
/// lifecycle.
///
/// `trips` is the table **after**
/// [`TripTable::evict_before`](moby_data::trips::TripTable::evict_before)
/// (or its pinned variant) and `outcome` is what that eviction returned.
/// Every graph retreats through [`CsrEvict::from_dense`]. `GBasic` takes
/// the surviving dense columns as they are (the station intern stays
/// sorted, so the compaction remap is monotone). `GDay`/`GHour` re-run
/// the full build's layered intern over the surviving rows — their
/// first-appearance order is *not* stable under row removal (a layer
/// first interned by an evicted trip moves to its next surviving
/// appearance), so the remap can permute. Touched rows come straight
/// from the evicted rows' endpoint columns; untouched rows copy
/// bit-for-bit.
///
/// As with [`apply_batch_all`], the graphs are consumed and `basic` can
/// supply an already-evicted station-level CSR so the pipeline advances
/// `GBasic` exactly once.
///
/// **Equivalence contract:** the returned graphs and layer maps are
/// bit-identical to [`build_all_from_trips`] over the surviving table, at
/// any thread count (and against bases built at any shard count) — the
/// windowed differential suite (`crates/core/tests/proptest_window.rs`)
/// asserts this for interleaved ingest/evict chains.
///
/// # Panics
///
/// If `temporals` is not the three-granularity slice the build functions
/// produce, in granularity order.
pub fn apply_evict_all(
    temporals: Vec<TemporalGraph>,
    trips: &TripTable,
    outcome: &EvictOutcome,
    basic: Option<CsrGraph>,
    threads: Option<usize>,
) -> Vec<TemporalGraph> {
    assert_eq!(temporals.len(), 3, "expected GBasic/GDay/GHour");
    for (t, g) in temporals.iter().zip(TemporalGranularity::ALL) {
        assert_eq!(t.granularity, g, "temporal graphs out of order");
    }
    if outcome.is_noop() {
        // Nothing expired: the layered graphs are untouched; an
        // already-shared `GBasic` still swaps in.
        let mut temporals = temporals;
        if let Some(csr) = basic {
            temporals[0] = TemporalGraph::from_csr(TemporalGranularity::TNull, csr, None);
        }
        return temporals;
    }
    let mut temporals = temporals;
    let hour_t = temporals.pop().expect("three granularities");
    let day_t = temporals.pop().expect("three granularities");
    let basic_t = temporals.pop().expect("three granularities");

    let basic_csr = match basic {
        Some(csr) => csr,
        None => {
            let evict = CsrEvict::from_dense(
                false,
                trips.station_ids().to_vec(),
                outcome.new_to_old.clone(),
                outcome.touched_stations(),
                trips.src(),
                trips.dst(),
                trips.weights(),
            );
            basic_t.csr.apply_evict(&evict, threads)
        }
    };
    let (day_t, hour_t) = evict_layered_pair(day_t, hour_t, trips, trips.len(), outcome, threads);
    vec![
        TemporalGraph::from_csr(TemporalGranularity::TNull, basic_csr, None),
        day_t,
        hour_t,
    ]
}

/// The layered (`GDay`/`GHour`) half of an eviction. One pass over the
/// surviving prefix `0..rows_end` of the table's dense columns (a
/// trailing batch may already sit behind it) runs both granularities'
/// [`LayerIntern`] — the full build's intern, so the new node tables and
/// dense edge columns are exactly a rebuild's — and each graph retreats
/// through [`CsrEvict::from_dense`] with the permuting `new_to_old` that
/// intern implies.
fn evict_layered_pair(
    day_t: TemporalGraph,
    hour_t: TemporalGraph,
    trips: &TripTable,
    rows_end: usize,
    outcome: &EvictOutcome,
    threads: Option<usize>,
) -> (TemporalGraph, TemporalGraph) {
    let mut day_intern = LayerIntern::new(trips.station_ids(), TemporalGranularity::TDay);
    let mut hour_intern = LayerIntern::new(trips.station_ids(), TemporalGranularity::THour);
    let (src, dst) = (trips.src(), trips.dst());
    let (day, hour) = (trips.day(), trips.hour());
    let mut day_cols = (Vec::with_capacity(rows_end), Vec::with_capacity(rows_end));
    let mut hour_cols = (Vec::with_capacity(rows_end), Vec::with_capacity(rows_end));
    for k in 0..rows_end {
        let (s, d) = day_intern.intern(src[k], dst[k], day[k], hour[k]);
        day_cols.0.push(s);
        day_cols.1.push(d);
        let (s, d) = hour_intern.intern(src[k], dst[k], day[k], hour[k]);
        hour_cols.0.push(s);
        hour_cols.1.push(d);
    }
    let weight = &trips.weights()[..rows_end];
    (
        retreat_layer(day_t, day_intern, &day_cols, weight, outcome, threads),
        retreat_layer(hour_t, hour_intern, &hour_cols, weight, outcome, threads),
    )
}

/// Retreat one layered graph to its interned survivors. Touched ids fold
/// the evicted rows' keys into their endpoints exactly as the build
/// folded them in; `new_to_old` is one lookup per surviving node, and the
/// layer map re-decodes from the new table (eviction can permute a
/// first-appearance intern).
fn retreat_layer(
    old: TemporalGraph,
    intern: LayerIntern,
    (src, dst): &(Vec<u32>, Vec<u32>),
    weight: &[f64],
    outcome: &EvictOutcome,
    threads: Option<usize>,
) -> TemporalGraph {
    let granularity = intern.granularity;
    let stride = granularity.stride();
    let mut touched: Vec<NodeId> = Vec::with_capacity(2 * outcome.evicted_rows());
    for k in 0..outcome.evicted_rows() {
        let key = u64::from(intern.key(outcome.evicted_day[k], outcome.evicted_hour[k]));
        touched.push(outcome.evicted_src[k] * stride + key);
        touched.push(outcome.evicted_dst[k] * stride + key);
    }
    touched.sort_unstable();
    touched.dedup();
    let new_to_old = intern
        .node_ids
        .iter()
        .map(|&id| {
            old.csr
                .index_of(id)
                .expect("surviving layered node known to the graph")
        })
        .collect();
    let evict = CsrEvict::from_dense(
        false,
        intern.node_ids,
        Some(new_to_old),
        touched,
        src,
        dst,
        weight,
    );
    let csr = old.csr.apply_evict(&evict, threads);
    let map = decode_layer_map(&csr, stride);
    TemporalGraph::from_csr(granularity, csr, Some(map))
}

/// Carry all three temporal graphs through one **window step** — the
/// eviction then the batch, matching what
/// [`SelectedNetwork::advance_window`](crate::reassign::SelectedNetwork::advance_window)
/// did to the station-level state.
///
/// `trips` is the table *after* `advance_window` (surviving rows first,
/// then the appended batch — appends only ever extend, so the leading
/// `outcome.appended.batch_start` rows are exactly the post-evict
/// survivors the retreat must see). `basic` optionally supplies the
/// network's already-advanced undirected graph, in which case `GBasic`
/// skips both phases and swaps it in.
///
/// Composes the equivalence contracts of [`apply_evict_all`] and
/// [`apply_batch_all`]: the result is bit-identical to
/// [`build_all_from_trips`] over the post-window table at any thread
/// count.
pub fn apply_window_all(
    temporals: Vec<TemporalGraph>,
    trips: &TripTable,
    outcome: &crate::reassign::WindowOutcome,
    basic: Option<CsrGraph>,
    threads: Option<usize>,
) -> Vec<TemporalGraph> {
    assert_eq!(temporals.len(), 3, "expected GBasic/GDay/GHour");
    for (t, g) in temporals.iter().zip(TemporalGranularity::ALL) {
        assert_eq!(t.granularity, g, "temporal graphs out of order");
    }
    let evicted = &outcome.evicted;
    let bs = outcome.appended.batch_start;

    let mut temporals = temporals;
    let hour_t = temporals.pop().expect("three granularities");
    let day_t = temporals.pop().expect("three granularities");
    let mut basic_t = temporals.pop().expect("three granularities");

    let (day_t, hour_t) = if evicted.is_noop() {
        (day_t, hour_t)
    } else {
        evict_layered_pair(day_t, hour_t, trips, bs, evicted, threads)
    };
    // GBasic retreats over the surviving prefix unless the caller shares
    // an already-advanced graph (then the ingest phase swaps it in and no
    // station-level pass runs here at all). `advance_window` pins the
    // station table, so the eviction's remap is always `None`.
    if basic.is_none() && !evicted.is_noop() {
        let evict = CsrEvict::from_dense(
            false,
            trips.station_ids().to_vec(),
            evicted.new_to_old.clone(),
            evicted.touched_stations(),
            &trips.src()[..bs],
            &trips.dst()[..bs],
            &trips.weights()[..bs],
        );
        basic_t = TemporalGraph::from_csr(
            TemporalGranularity::TNull,
            basic_t.csr.apply_evict(&evict, threads),
            None,
        );
    }
    apply_batch_all(
        vec![basic_t, day_t, hour_t],
        trips,
        &outcome.appended,
        basic,
        threads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use moby_data::trips::TripBatch;
    use moby_graph::{props, PropMap, PropValue};

    fn store() -> GraphStore {
        let mut s = GraphStore::new();
        for id in 1..=3u64 {
            s.add_node(id, "Station", PropMap::new());
        }
        // (src, dst, day, hour)
        let trips = [
            (1u64, 2u64, 0i64, 8i64),
            (1, 2, 0, 9),
            (2, 1, 4, 17),
            (2, 3, 5, 12),
            (3, 3, 6, 13),
        ];
        for (src, dst, day, hour) in trips {
            s.add_edge(
                src,
                dst,
                TRIP_LABEL,
                props([
                    ("day", PropValue::from(day)),
                    ("hour", PropValue::from(hour)),
                ]),
            )
            .unwrap();
        }
        s
    }

    #[test]
    fn granularity_metadata() {
        assert_eq!(TemporalGranularity::TNull.graph_name(), "GBasic");
        assert_eq!(TemporalGranularity::TDay.graph_name(), "GDay");
        assert_eq!(TemporalGranularity::THour.graph_name(), "GHour");
        assert_eq!(TemporalGranularity::TDay.stride(), 8);
        assert_eq!(TemporalGranularity::THour.stride(), 32);
        assert_eq!(TemporalGranularity::TNull.property(), None);
        assert_eq!(TemporalGranularity::TDay.property(), Some("day"));
    }

    /// The columnar trip table matching [`store`] (same station set, same
    /// trip order).
    fn trip_table() -> TripTable {
        let mut t = TripTable::new(vec![1, 2, 3]);
        let trips = [
            (1u64, 2u64, 0u8, 8u8),
            (1, 2, 0, 9),
            (2, 1, 4, 17),
            (2, 3, 5, 12),
            (3, 3, 6, 13),
        ];
        for (src, dst, day, hour) in trips {
            // 2020-06-01 is a Monday; day 1 + `day` keeps the weekday key,
            // `hour` the hour key.
            let ts = moby_data::timeparse::Timestamp::from_ymd_hms(
                2020,
                6,
                1 + day as u32,
                hour as u32,
                0,
                0,
            )
            .unwrap();
            t.push(
                t.station_index(src).unwrap(),
                t.station_index(dst).unwrap(),
                ts,
            );
        }
        t
    }

    #[test]
    fn basic_graph_merges_all_trips() {
        let g = build_temporal_graph(&store(), TemporalGranularity::TNull);
        assert!(g.layer_map.is_none());
        assert_eq!(g.csr.node_count(), 3);
        assert_eq!(g.csr.edge_weight(1, 2), Some(3.0)); // both directions merged
        let builder = g.builder.as_ref().expect("legacy path keeps the builder");
        assert_eq!(builder.self_loop_weight(3), 1.0);
        assert_eq!(g.station_of(2), 2);
        assert_eq!(g.station_count(), 3);
    }

    #[test]
    fn day_graph_separates_layers() {
        let g = build_temporal_graph(&store(), TemporalGranularity::TDay);
        let map = g.layer_map.as_ref().unwrap();
        // Day-0 edge between stations 1 and 2 carries two trips.
        assert_eq!(g.csr.edge_weight(1 * 8, 2 * 8), Some(2.0));
        // Day-4 edge carries one.
        assert_eq!(g.csr.edge_weight(2 * 8 + 4, 1 * 8 + 4), Some(1.0));
        // Layer map points back at stations.
        assert_eq!(map[&(2 * 8 + 4)], (2, 4));
        assert_eq!(g.station_of(2 * 8 + 4), 2);
        assert_eq!(g.station_count(), 3);
        // Total weight equals the number of trips.
        assert_eq!(g.csr.total_weight(), 5.0);
    }

    #[test]
    fn hour_graph_uses_hour_keys() {
        let g = build_temporal_graph(&store(), TemporalGranularity::THour);
        assert_eq!(g.csr.edge_weight(1 * 32 + 8, 2 * 32 + 8), Some(1.0));
        assert_eq!(g.csr.edge_weight(1 * 32 + 9, 2 * 32 + 9), Some(1.0));
        let i = g.csr.index_of(3 * 32 + 13).unwrap() as usize;
        assert_eq!(g.csr.self_loop(i), 1.0);
    }

    #[test]
    fn build_all_covers_every_granularity() {
        let all = build_all(&store());
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].granularity, TemporalGranularity::TNull);
        assert_eq!(all[2].granularity, TemporalGranularity::THour);
        // Finer granularity never has fewer nodes.
        assert!(all[1].csr.node_count() >= all[0].csr.node_count());
        assert!(all[2].csr.node_count() >= all[1].csr.node_count());
    }

    #[test]
    fn frozen_csr_matches_builder_at_every_granularity() {
        let s = store();
        for granularity in TemporalGranularity::ALL {
            let t = build_temporal_graph(&s, granularity);
            let builder = t.builder.as_ref().expect("legacy path keeps the builder");
            assert_eq!(t.csr.node_count(), builder.node_count(), "{granularity:?}");
            assert_eq!(t.csr.edge_count(), builder.edge_count(), "{granularity:?}");
            assert_eq!(t.csr.total_weight(), builder.total_weight());
            for &id in builder.node_ids() {
                assert_eq!(t.csr.strength_of(id), builder.strength_of(id));
            }
        }
    }

    #[test]
    fn station_of_unknown_node_is_identity() {
        let g = build_temporal_graph(&store(), TemporalGranularity::TDay);
        assert_eq!(g.station_of(999), 999);
    }

    #[test]
    fn columnar_build_is_identical_to_store_projection() {
        let s = store();
        let trips = trip_table();
        for threads in [Some(1), Some(2), Some(4)] {
            let columnar = build_all_from_trips(&trips, None, threads);
            assert_eq!(columnar.len(), 3);
            for (temporal, granularity) in columnar.iter().zip(TemporalGranularity::ALL) {
                assert_eq!(temporal.granularity, granularity);
                assert!(temporal.builder.is_none(), "hot path has no builder");
                let legacy = build_temporal_graph(&s, granularity);
                assert_eq!(temporal.csr, legacy.csr, "{granularity:?} CSR diverged");
                assert_eq!(temporal.layer_map, legacy.layer_map, "{granularity:?} map");
            }
        }
    }

    #[test]
    fn apply_batch_all_matches_full_rebuild() {
        let mut trips = trip_table();
        let base = build_all_from_trips(&trips, None, Some(1));
        let mut batch = TripBatch::new();
        // Existing stations at new times, a repeated edge, and a brand-new
        // station (id 2, which sorts between 1 and 3).
        let t = |day: u32, hour: u32| {
            moby_data::timeparse::Timestamp::from_ymd_hms(2020, 6, 1 + day, hour, 0, 0).unwrap()
        };
        batch.push(1, 0, t(0, 8)); // station 0 is new and sorts first,
                                   // shifting every old dense index
        batch.push(1, 0, t(0, 8)); // duplicate layered edge
        batch.push(3, 1, t(3, 21));
        let outcome = trips.append_batch(&batch);
        assert_eq!(outcome.new_stations, vec![0]);
        for threads in [Some(1), Some(2), Some(4)] {
            let got = apply_batch_all(base.clone(), &trips, &outcome, None, threads);
            let want = build_all_from_trips(&trips, None, threads);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.granularity, w.granularity);
                assert_eq!(g.csr, w.csr, "{:?} diverged from rebuild", g.granularity);
                assert_eq!(g.layer_map, w.layer_map, "{:?} map", g.granularity);
            }
        }
        // Sharing an already-updated GBasic skips the station-level delta.
        let updated = build_all_from_trips(&trips, None, Some(1));
        let shared = apply_batch_all(
            base,
            &trips,
            &outcome,
            Some(updated[0].csr.clone()),
            Some(1),
        );
        assert_eq!(shared[0].csr, updated[0].csr);
        assert_eq!(shared[1].csr, updated[1].csr);
    }

    #[test]
    fn apply_evict_all_matches_rebuild_over_survivors() {
        use moby_data::trips::WindowStart;
        // Compacting eviction: day-0..4 rows expire, station 1 loses every
        // trip and leaves the intern table.
        let mut trips = trip_table();
        let base = build_all_from_trips(&trips, None, Some(1));
        let outcome = trips.evict_before(WindowStart::new(5, 0));
        assert_eq!(outcome.evicted_rows(), 3);
        assert!(outcome.new_to_old.is_some(), "station 1 must drop");
        for threads in [Some(1), Some(2), Some(4)] {
            let got = apply_evict_all(base.clone(), &trips, &outcome, None, threads);
            let want = build_all_from_trips(&trips, None, threads);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.granularity, w.granularity);
                assert_eq!(g.csr, w.csr, "{:?} diverged from rebuild", g.granularity);
                assert_eq!(g.layer_map, w.layer_map, "{:?} map", g.granularity);
            }
        }
        // Sharing an already-evicted GBasic skips the station-level pass.
        let want = build_all_from_trips(&trips, None, Some(1));
        let shared = apply_evict_all(base, &trips, &outcome, Some(want[0].csr.clone()), Some(1));
        assert_eq!(shared[0].csr, want[0].csr);
        assert_eq!(shared[2].csr, want[2].csr);
    }

    #[test]
    fn window_step_moves_a_layer_node_whose_first_trip_expired() {
        use crate::reassign::WindowOutcome;
        use moby_data::trips::WindowStart;
        // Row 0 first interns (1, 8h) and (2, 8h); it expires, but row 2
        // still uses both, so a rebuild interns them after (3, 5h).
        let mut trips = TripTable::new(vec![1, 2, 3]);
        for (s, d, day, hour) in [
            (0u32, 1u32, 0u8, 8u8),
            (2, 2, 2, 5),
            (1, 0, 3, 8),
            (0, 2, 4, 9),
        ] {
            trips.push_keyed(s, d, day, hour, 1.0);
        }
        let base = build_all_from_trips(&trips, None, Some(1));
        assert_eq!(base[2].csr.node_ids()[..2], [32 + 8, 2 * 32 + 8]);
        let evicted = trips.evict_before_pinned(WindowStart::new(1, 0));
        assert_eq!(evicted.evicted_rows(), 1);
        let mut batch = TripBatch::new();
        batch.push_keyed(3, 1, 5, 8, 1.0);
        let appended = trips.append_batch(&batch);
        let outcome = WindowOutcome { evicted, appended };
        let want = build_all_from_trips(&trips, None, Some(1));
        assert_eq!(want[2].csr.node_ids()[0], 3 * 32 + 5, "rebuild permutes");
        for threads in [Some(1), Some(2), Some(4)] {
            let got = apply_window_all(base.clone(), &trips, &outcome, None, threads);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.csr, w.csr, "{:?} diverged from rebuild", g.granularity);
                assert_eq!(g.layer_map, w.layer_map, "{:?} map", g.granularity);
            }
        }
    }

    #[test]
    fn pinned_evict_keeps_isolated_stations_in_gbasic() {
        use moby_data::trips::WindowStart;
        let mut trips = trip_table();
        let base = build_all_from_trips(&trips, None, Some(1));
        let outcome = trips.evict_before_pinned(WindowStart::new(5, 0));
        assert!(outcome.new_to_old.is_none(), "pinned table never compacts");
        let got = apply_evict_all(base, &trips, &outcome, None, Some(2));
        // GBasic keeps station 1 as an isolated row, exactly as a rebuild
        // seeded with the full pinned station table would.
        let want = build_all_from_trips(&trips, None, Some(1));
        assert_eq!(got[0].csr, want[0].csr);
        assert_eq!(got[0].csr.node_count(), 3);
        let row1 = got[0].csr.index_of(1).unwrap() as usize;
        assert_eq!(got[0].csr.degree(row1), 0);
        assert_eq!(got[1].csr, want[1].csr);
        assert_eq!(got[2].csr, want[2].csr);
    }

    #[test]
    fn noop_evict_returns_graphs_unchanged() {
        use moby_data::trips::WindowStart;
        let mut trips = trip_table();
        let base = build_all_from_trips(&trips, None, Some(1));
        let outcome = trips.evict_before(WindowStart::new(0, 0));
        assert!(outcome.is_noop());
        let got = apply_evict_all(base.clone(), &trips, &outcome, None, Some(2));
        for (g, b) in got.iter().zip(&base) {
            assert_eq!(g.csr, b.csr);
        }
    }

    #[test]
    fn sharded_columnar_build_matches_unsharded() {
        let trips = trip_table();
        let baseline = build_all_from_trips(&trips, None, Some(1));
        for shards in [Some(1), Some(2), Some(4)] {
            for threads in [Some(1), Some(2), Some(4)] {
                let sharded = build_all_from_trips_spilled(
                    &trips,
                    None,
                    shards,
                    threads,
                    Some(NEVER_SPILL_MB),
                    None,
                )
                .unwrap();
                for (g, b) in sharded.iter().zip(&baseline) {
                    assert_eq!(g.csr, b.csr, "{:?} @ {shards:?} shards", g.granularity);
                    assert_eq!(g.layer_map, b.layer_map);
                }
            }
        }
    }

    #[test]
    fn spilled_build_matches_in_memory_build_bitwise() {
        let trips = trip_table();
        let baseline = build_all_from_trips(&trips, None, Some(1));
        // Budget 0 forces every granularity through the disk runs.
        for shards in [Some(1), Some(2), Some(4)] {
            for threads in [Some(1), Some(2)] {
                let spilled =
                    build_all_from_trips_spilled(&trips, None, shards, threads, Some(0), None)
                        .unwrap();
                for (g, b) in spilled.iter().zip(&baseline) {
                    assert_eq!(g.granularity, b.granularity);
                    assert_eq!(g.csr, b.csr, "{:?} @ {shards:?} shards", g.granularity);
                    assert_eq!(
                        g.csr.total_weight().to_bits(),
                        b.csr.total_weight().to_bits()
                    );
                    assert_eq!(g.layer_map, b.layer_map, "{:?} map", g.granularity);
                }
            }
        }
        // A huge budget takes the in-memory arm; same bits either way.
        let unspilled =
            build_all_from_trips_spilled(&trips, None, Some(2), Some(2), Some(1 << 20), None)
                .unwrap();
        for (g, b) in unspilled.iter().zip(&baseline) {
            assert_eq!(g.csr, b.csr);
        }
        // A shared GBasic swaps in untouched.
        let shared =
            build_all_from_trips_spilled(&trips, Some(&baseline[0].csr), None, None, Some(0), None)
                .unwrap();
        assert_eq!(shared[0].csr, baseline[0].csr);
        assert_eq!(shared[2].csr, baseline[2].csr);
    }

    #[test]
    fn spool_build_matches_table_build_bitwise() {
        let trips = trip_table();
        let mut spool = TripSpool::create(vec![1, 2, 3], None).unwrap();
        let (day, hour) = (trips.day(), trips.hour());
        for k in 0..trips.len() {
            spool.push_keyed(trips.src()[k], trips.dst()[k], day[k], hour[k]);
        }
        spool.finish().unwrap();
        let got = build_all_from_spool(&spool, Some(2), Some(2), None).unwrap();
        let want = build_all_from_trips(&trips, None, Some(1));
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.granularity, w.granularity);
            assert_eq!(
                g.csr, w.csr,
                "{:?} diverged from table build",
                g.granularity
            );
            assert_eq!(
                g.csr.total_weight().to_bits(),
                w.csr.total_weight().to_bits()
            );
            assert_eq!(g.layer_map, w.layer_map, "{:?} map", g.granularity);
        }
    }

    #[test]
    fn spilled_build_surfaces_unwritable_dir_as_error() {
        let trips = trip_table();
        let file = std::env::temp_dir().join(format!("moby-core-spill-f-{}", std::process::id()));
        std::fs::write(&file, b"not a dir").unwrap();
        let err = build_all_from_trips_spilled(
            &trips,
            None,
            Some(2),
            Some(1),
            Some(0),
            Some(&file.join("sub")),
        )
        .unwrap_err();
        assert!(
            matches!(err, CoreError::Spill(_)),
            "expected Spill: {err:?}"
        );
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn columnar_build_reuses_a_shared_basic_graph() {
        let trips = trip_table();
        let built = build_all_from_trips(&trips, None, None);
        let shared = built[0].csr.clone();
        let reused = build_all_from_trips(&trips, Some(&shared), None);
        assert_eq!(reused[0].csr, shared);
        assert_eq!(reused[1].csr, built[1].csr);
        assert_eq!(reused[2].csr, built[2].csr);
    }
}
