//! Pinned fingerprints of the candidate clustering (`constrained_clustering`,
//! paper §IV-A) at seeded synthetic datasets, plus the small-scale
//! linkage and cluster-boundary ablation counts.
//!
//! The values were captured from the dense-matrix HAC as it stood before
//! complete linkage moved to the cut-aware sparse nearest-neighbour chain.
//! They are the evidence that the move changed no candidate: every
//! station group, every candidate's members in order and every diameter
//! bit must still hash to them. The ablation counts pin the three linkage
//! paths (sparse complete, dense average, single-linkage components).
//!
//! The fingerprint is FNV-1a-64 (the `temporal_fingerprints.rs` hash)
//! over the station groups' members, then each candidate's members, then
//! each candidate's `diameter_m` bits. The paper-scale cases are
//! `#[ignore]`d because they are slow in debug builds; run them with
//! `cargo test --release -p moby-core --test candidate_fingerprints --
//! --include-ignored`.

use moby_cluster::constrained::{constrained_clustering, ConstrainedClustering, ConstrainedConfig};
use moby_cluster::linkage::Linkage;
use moby_core::candidate::build_candidate_network;
use moby_core::ExpansionConfig;
use moby_data::clean::clean_dataset;
use moby_data::schema::CleanDataset;
use moby_data::synth::{generate, SynthConfig};
use moby_data::timeparse::Timestamp;
use moby_geo::GeoPoint;

/// Fingerprint at `SynthConfig::small_test()` (seed 7).
const SMALL_TEST: u64 = 0x7a2b_3657_075e_90bf;
/// Fingerprint at the bench's medium tier (seed 42, 15 000 rentals).
const MEDIUM: u64 = 0x1d79_fe6c_ba85_05e2;
/// Fingerprint at `SynthConfig::paper_scale()` (seed 42).
const PAPER_SEED_42: u64 = 0x9ec1_6e62_84eb_9db1;
/// Fingerprint at `SynthConfig::paper_scale()` with seed 7.
const PAPER_SEED_7: u64 = 0x4662_2a3b_b22c_e3f0;

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

fn cleaned(synth: &SynthConfig) -> CleanDataset {
    clean_dataset(&generate(synth)).dataset
}

/// The constrained clustering the pipeline runs: fixed stations are the
/// immovable centroids, and the free locations are those not bound to a
/// known station (the split `build_candidate_network` makes).
fn clustering(ds: &CleanDataset) -> ConstrainedClustering {
    let stations: Vec<GeoPoint> = ds.stations.iter().map(|s| s.position).collect();
    let free: Vec<GeoPoint> = ds
        .locations
        .iter()
        .filter(|l| {
            l.station_id
                .is_none_or(|sid| !ds.stations.iter().any(|s| s.id == sid))
        })
        .map(|l| l.position)
        .collect();
    let cfg = ExpansionConfig::default();
    let config = ConstrainedConfig {
        station_absorb_radius_m: cfg.station_absorb_radius_m,
        cluster_boundary_m: cfg.cluster_boundary_m,
        linkage: cfg.linkage,
    };
    constrained_clustering(&stations, &free, &config).unwrap()
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn fingerprint(c: &ConstrainedClustering) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for g in &c.station_groups {
        for &m in &g.members {
            h = fnv1a(h, &(m as u64).to_le_bytes());
        }
    }
    for cand in &c.candidate_clusters {
        for &m in &cand.members {
            h = fnv1a(h, &(m as u64).to_le_bytes());
        }
    }
    for cand in &c.candidate_clusters {
        h = fnv1a(h, &cand.diameter_m.to_bits().to_le_bytes());
    }
    h
}

fn check(name: &str, synth: &SynthConfig, pinned: u64) {
    let got = fingerprint(&clustering(&cleaned(synth)));
    assert_eq!(
        got, pinned,
        "{name}: candidate clustering drifted ({got:#018x})"
    );
}

#[test]
fn small_test_clustering_matches_the_pinned_fingerprint() {
    check("small_test", &SynthConfig::small_test(), SMALL_TEST);
}

#[test]
fn medium_clustering_matches_the_pinned_fingerprint() {
    check("medium", &medium(), MEDIUM);
}

#[test]
#[ignore = "paper scale: slow in debug builds"]
fn paper_seed_42_clustering_matches_the_pinned_fingerprint() {
    check("paper seed 42", &SynthConfig::paper_scale(), PAPER_SEED_42);
}

#[test]
#[ignore = "paper scale: slow in debug builds"]
fn paper_seed_7_clustering_matches_the_pinned_fingerprint() {
    let synth = SynthConfig {
        seed: 7,
        ..SynthConfig::paper_scale()
    };
    check("paper seed 7", &synth, PAPER_SEED_7);
}

fn candidate_count(ds: &CleanDataset, cfg: &ExpansionConfig) -> usize {
    build_candidate_network(ds, cfg)
        .unwrap()
        .candidate_ids()
        .len()
}

#[test]
fn small_linkage_ablation_counts_are_pinned() {
    let ds = cleaned(&SynthConfig::small_test());
    for (linkage, want) in [
        (Linkage::Complete, 237),
        (Linkage::Average, 212),
        (Linkage::Single, 179),
    ] {
        let cfg = ExpansionConfig {
            linkage,
            ..ExpansionConfig::default()
        };
        assert_eq!(candidate_count(&ds, &cfg), want, "{linkage:?}");
    }
}

#[test]
fn small_boundary_ablation_counts_are_pinned() {
    let ds = cleaned(&SynthConfig::small_test());
    for (boundary, want) in [(50.0, 356), (100.0, 237), (150.0, 184), (200.0, 165)] {
        let cfg = ExpansionConfig {
            cluster_boundary_m: boundary,
            ..ExpansionConfig::default()
        };
        assert_eq!(candidate_count(&ds, &cfg), want, "{boundary} m");
    }
}
