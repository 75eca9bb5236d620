//! Pinned fingerprints of the three temporal graphs (`GBasic`, `GDay`,
//! `GHour`) at two seeded synthetic datasets.
//!
//! The values were captured from the construction code as it stood
//! before the in-memory and spilled temporal builders merged into one
//! dense-intern path. They are the evidence that the merge changed no
//! bit: every full build entry — in memory, budgeted down to a forced
//! spill, and streamed from a disk spool — must still hash to them.
//!
//! The fingerprint is FNV-1a-64 over node ids, offsets, targets, weight
//! bits, total-weight bits and edge counts, in granularity order (the
//! same hash `bench_smoke` prints for its spill tier).

use moby_core::candidate::build_candidate_network;
use moby_core::reassign::build_selected_network;
use moby_core::selection::select_stations;
use moby_core::temporal::{
    build_all_from_spool, build_all_from_trips, build_all_from_trips_spilled, TemporalGraph,
};
use moby_core::ExpansionConfig;
use moby_data::clean::clean_dataset;
use moby_data::spool::TripSpool;
use moby_data::synth::{generate, SynthConfig};
use moby_data::timeparse::Timestamp;
use moby_data::trips::TripTable;

/// Fingerprint at `SynthConfig::small_test()` (seed 7).
const SMALL_TEST: u64 = 0x31c4_c16b_c0fb_38cc;
/// Fingerprint at the bench's medium tier (seed 42, 15 000 rentals).
const MEDIUM: u64 = 0xa5f7_6f1a_c552_10f2;

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

/// The selected network's trip table: the rows every temporal build
/// consumes in the pipeline.
fn selected_trips(synth: &SynthConfig) -> TripTable {
    let ds = clean_dataset(&generate(synth)).dataset;
    let cfg = ExpansionConfig::default();
    let net = build_candidate_network(&ds, &cfg).unwrap();
    let sel = select_stations(&net, &cfg).unwrap();
    build_selected_network(&ds, &net, &sel).unwrap().trips
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
