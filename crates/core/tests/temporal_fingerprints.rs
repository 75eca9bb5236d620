//! Pinned fingerprints of the three temporal graphs (`GBasic`, `GDay`,
//! `GHour`) at two seeded synthetic datasets, and after a fixed chain of
//! hourly window steps.
//!
//! The build values were captured from the construction code as it stood
//! before the in-memory and spilled temporal builders merged into one
//! dense-intern path. They are the evidence that the merge changed no
//! bit: every full build entry — in memory, budgeted down to a forced
//! spill, and streamed from a disk spool — must still hash to them.
//!
//! The window-chain value was captured from the eviction code as it stood
//! before the layered eviction moved onto the build's dense slot intern:
//! the incrementally advanced graphs must still hash to it, at any thread
//! count, and equal a full rebuild over the final table.
//!
//! The fingerprint is FNV-1a-64 over node ids, offsets, targets, weight
//! bits, total-weight bits and edge counts, in granularity order (the
//! same hash `bench_smoke` prints for its spill tier).
//!
//! The city-tier value and the selected network's `directed` /
//! `undirected` values were captured from the construction code as it
//! stood before the sort-free row packing replaced the per-row
//! sort-merge. The selected-network hash also covers the in-adjacency and
//! the cached per-node degrees. The city pin builds 1M trips, so it is
//! `#[ignore]`d and runs in release only:
//! `cargo test --release -p moby-core --test temporal_fingerprints -- --include-ignored`.

use moby_core::candidate::build_candidate_network;
use moby_core::reassign::{build_selected_network, SelectedNetwork};
use moby_core::selection::select_stations;
use moby_core::temporal::{
    apply_window_all, build_all_from_spool, build_all_from_trips, build_all_from_trips_spilled,
    TemporalGraph,
};
use moby_core::ExpansionConfig;
use moby_data::clean::{clean_dataset, clean_trip_stream};
use moby_data::spool::TripSpool;
use moby_data::synth::{city_trip_stream, generate, CityConfig, SynthConfig};
use moby_data::timeparse::Timestamp;
use moby_data::trips::{TripBatch, TripTable, WindowStart};
use moby_graph::CsrGraph;

/// Fingerprint at `SynthConfig::small_test()` (seed 7).
const SMALL_TEST: u64 = 0x31c4_c16b_c0fb_38cc;
/// Fingerprint at the bench's medium tier (seed 42, 15 000 rentals).
const MEDIUM: u64 = 0xa5f7_6f1a_c552_10f2;

/// Fingerprint at the city tier ([`city`]).
const CITY: u64 = 0xd2e0_cfef_efdc_999a;
/// Fingerprint of the medium tier's selected `directed` and `undirected`
/// CSRs, in that order ([`csr_fingerprint`]).
const MEDIUM_SELECTED: u64 = 0xe0f5_d740_eebe_1b49;

/// Fingerprint after [`WINDOW_STEPS`] hourly window steps over the medium
/// tier.
const MEDIUM_WINDOW_CHAIN: u64 = 0x2d34_bdc8_ff18_a205;
/// Hourly window steps in the pinned chain.
const WINDOW_STEPS: usize = 24;

/// The bench's medium tier: the paper-scale generator cut to 15 000
/// rentals over nine months.
fn medium() -> SynthConfig {
    SynthConfig {
        clean_rentals: 15_000,
        dockless_locations: 4_000,
        dirty_rentals: 120,
        dirty_locations: 30,
        start: Timestamp::from_ymd_hms(2020, 6, 1, 0, 0, 0).expect("valid"),
        end: Timestamp::from_ymd_hms(2021, 2, 28, 23, 59, 59).expect("valid"),
        ..SynthConfig::paper_scale()
    }
}

/// The city tier with its trip count set here, so `MOBY_CITY_TRIPS`
/// cannot move the pin.
fn city() -> CityConfig {
    CityConfig {
        trips: 1_000_000,
        ..SynthConfig::city()
    }
}

/// The pipeline's selected network for a synthetic dataset.
fn selected_network(synth: &SynthConfig) -> SelectedNetwork {
    let ds = clean_dataset(&generate(synth)).dataset;
    let cfg = ExpansionConfig::default();
    let net = build_candidate_network(&ds, &cfg).unwrap();
    let sel = select_stations(&net, &cfg).unwrap();
    build_selected_network(&ds, &net, &sel).unwrap()
}

/// The selected network's trip table: the rows every temporal build
/// consumes in the pipeline.
fn selected_trips(synth: &SynthConfig) -> TripTable {
    selected_network(synth).trips
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn fingerprint(temporals: &[TemporalGraph]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in temporals {
        let g = &t.csr;
        for &id in g.node_ids() {
            h = fnv1a(h, &id.to_le_bytes());
        }
        for &o in g.offsets() {
            h = fnv1a(h, &o.to_le_bytes());
        }
        for v in 0..g.node_count() {
            let (targets, weights) = g.row(v);
            for (&t, &w) in targets.iter().zip(weights) {
                h = fnv1a(h, &t.to_le_bytes());
                h = fnv1a(h, &w.to_bits().to_le_bytes());
            }
        }
        h = fnv1a(h, &g.total_weight().to_bits().to_le_bytes());
        h = fnv1a(h, &(g.edge_count() as u64).to_le_bytes());
    }
    h
}

/// FNV-1a-64 of one frozen graph's every stored array: node ids, out and
/// in adjacency, cached per-node degrees, total weight and edge count.
fn csr_fingerprint(mut h: u64, g: &CsrGraph) -> u64 {
    for &id in g.node_ids() {
        h = fnv1a(h, &id.to_le_bytes());
    }
    for &o in g.offsets().iter().chain(g.in_offsets()) {
        h = fnv1a(h, &o.to_le_bytes());
    }
    for v in 0..g.node_count() {
        let (targets, weights) = g.row(v);
        let (in_targets, in_weights) = g.in_row(v);
        for (&t, &w) in targets
            .iter()
            .zip(weights)
            .chain(in_targets.iter().zip(in_weights))
        {
            h = fnv1a(h, &t.to_le_bytes());
            h = fnv1a(h, &w.to_bits().to_le_bytes());
        }
        for x in [g.strength(v), g.weighted_degree(v), g.self_loop(v)] {
            h = fnv1a(h, &x.to_bits().to_le_bytes());
        }
    }
    h = fnv1a(h, &g.total_weight().to_bits().to_le_bytes());
    fnv1a(h, &(g.edge_count() as u64).to_le_bytes())
}

/// The same rows as a disk spool (cleaned trips are unit-weight, which is
/// all a spool stores).
fn spool_of(trips: &TripTable) -> TripSpool {
    let mut spool = TripSpool::create(trips.station_ids().to_vec(), None).unwrap();
    let (src, dst, day, hour) = (trips.src(), trips.dst(), trips.day(), trips.hour());
    for k in 0..trips.len() {
        assert_eq!(trips.weights()[k], 1.0, "spool rows are unit-weight");
        spool.push_keyed(src[k], dst[k], day[k], hour[k]);
    }
    spool.finish().unwrap();
    spool
}

fn check(name: &str, synth: &SynthConfig, pinned: u64) {
    let trips = selected_trips(synth);
    let in_memory = fingerprint(&build_all_from_trips(&trips, None, Some(2)));
    assert_eq!(in_memory, pinned, "{name}: in-memory build drifted");
    for (shards, threads) in [(1, 1), (4, 2)] {
        let spilled =
            build_all_from_trips_spilled(&trips, None, Some(shards), Some(threads), Some(0), None)
                .unwrap();
        assert_eq!(
            fingerprint(&spilled),
            pinned,
            "{name}: forced-spill build drifted at {shards} shards"
        );
    }
    let spooled = build_all_from_spool(&spool_of(&trips), Some(2), Some(2), None).unwrap();
    assert_eq!(fingerprint(&spooled), pinned, "{name}: spool build drifted");
}

#[test]
fn small_test_builds_match_the_pinned_fingerprint() {
    check("small_test", &SynthConfig::small_test(), SMALL_TEST);
}

#[test]
fn medium_builds_match_the_pinned_fingerprint() {
    check("medium", &medium(), MEDIUM);
}

#[test]
fn medium_selected_network_csrs_match_the_pinned_fingerprint() {
    let net = selected_network(&medium());
    assert!(net.directed.is_directed() && !net.undirected.is_directed());
    let h = csr_fingerprint(0xcbf2_9ce4_8422_2325, &net.directed);
    let h = csr_fingerprint(h, &net.undirected);
    assert_eq!(h, MEDIUM_SELECTED, "selected-network CSRs drifted");
}

#[test]
#[ignore = "1M-trip city build: run in release with --include-ignored"]
fn city_builds_match_the_pinned_fingerprint() {
    let config = city();
    let rows = city_trip_stream(&config);
    let (trips, _) = clean_trip_stream(config.station_ids(), config.trips as usize, rows);
    for budget_mb in [None, Some(0)] {
        for shards in [1, 3] {
            let built =
                build_all_from_trips_spilled(&trips, None, Some(shards), Some(2), budget_mb, None)
                    .unwrap();
            assert_eq!(
                fingerprint(&built),
                CITY,
                "city build drifted at budget {budget_mb:?}, {shards} shards"
            );
        }
    }
}

/// One batch per window step, replayed from the base table's rows: step
/// `k` (window start at weekly slot `k`) draws about one hour's share of
/// rows, uniformly by a fixed LCG, from those whose slot is at or after
/// `k`, so every replayed row outlives the step that ingests it.
fn replay_batches(trips: &TripTable, steps: usize) -> Vec<TripBatch> {
    let slot = |k: usize| usize::from(trips.day()[k]) * 24 + usize::from(trips.hour()[k]);
    let size = trips.len() / (7 * 24);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    (1..=steps)
        .map(|step| {
            let pool: Vec<usize> = (0..trips.len()).filter(|&k| slot(k) >= step).collect();
            let mut batch = TripBatch::with_capacity(size);
            for _ in 0..size {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let k = pool[(x >> 33) as usize % pool.len()];
                batch.push_keyed(
                    trips.station_id(trips.src()[k]),
                    trips.station_id(trips.dst()[k]),
                    trips.day()[k],
                    trips.hour()[k],
                    trips.weights()[k],
                );
            }
            batch
        })
        .collect()
}

#[test]
fn medium_window_chain_matches_the_pinned_fingerprint() {
    let base = selected_network(&medium());
    let batches = replay_batches(&base.trips, WINDOW_STEPS);
    for threads in [1, 2, 4] {
        let threads = Some(threads);
        let mut net = base.clone();
        let mut temporals = build_all_from_trips(&net.trips, None, threads);
        for (step, batch) in batches.iter().enumerate() {
            let slot = step + 1;
            let window = WindowStart::new((slot / 24) as u8, (slot % 24) as u8);
            let outcome = net.advance_window(batch, window, threads).unwrap();
            assert!(!outcome.evicted.is_noop(), "step {slot} evicts nothing");
            temporals = apply_window_all(temporals, &net.trips, &outcome, None, threads);
        }
        let rebuilt = build_all_from_trips(&net.trips, None, threads);
        for (got, want) in temporals.iter().zip(&rebuilt) {
            assert_eq!(
                got.csr, want.csr,
                "{:?} diverged from rebuild",
                got.granularity
            );
            assert_eq!(got.layer_map, want.layer_map, "{:?} map", got.granularity);
        }
        assert_eq!(fingerprint(&rebuilt), fingerprint(&temporals));
        assert_eq!(
            fingerprint(&temporals),
            MEDIUM_WINDOW_CHAIN,
            "window chain drifted at {threads:?} threads"
        );
    }
}
