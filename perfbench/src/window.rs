//! `window_week`: incremental writes on the paper-scale network.
//!
//! Set-up is `ExpansionPipeline::run_windowed` at paper scale. One
//! operation is one `WindowedPipeline::advance`; a week is 168 of them,
//! one per hour slot: advance `k` starts the window at slot `k` (evicting
//! slot `k - 1`) and ingests a batch of about one hour's share of rows
//! replayed from live slots. A run replays whole weeks, each from a clone
//! of the set-up state, for the run's time. HAC never runs here.
//!
//! The traced run replays each advance through its public parts:
//! `SelectedNetwork::advance_window`, `apply_window_all` and the three
//! community refreshes, plus a side `GraphStore::retain_edges` with the
//! advance's eviction predicate on a clone of the store.

use crate::common::{
    self, ms, paper_config, pipeline_config, repeated_setup, timed, window_at, Replay, Rng,
    THREADS, WEEK_SLOTS,
};
use crate::report::Report;
use crate::stats::{mean, median, percentile};
use crate::trace::Trace;
use moby_core::candidate::TRIP_LABEL;
use moby_core::detect::{refresh_communities, refresh_communities_active, CommunityDetection};
use moby_core::pipeline::{ExpansionPipeline, WindowedPipeline};
use moby_core::reassign::SelectedNetwork;
use moby_core::temporal::{apply_window_all, build_all_from_trips, TemporalGraph};
use moby_data::synth::generate;
use moby_data::trips::{TripBatch, WindowStart};

/// Set up the live pipeline and the week's batches.
fn setup(seed: u64) -> Option<(WindowedPipeline, Vec<TripBatch>)> {
    let raw = generate(&paper_config(seed));
    let live = match ExpansionPipeline::new(pipeline_config()).run_windowed(&raw) {
        Ok(live) => live,
        Err(e) => {
            eprintln!("run_windowed failed: {e}");
            return None;
        }
    };
    let replay = Replay::new(&live.outcome.selected.trips);
    let size = replay.len() / WEEK_SLOTS;
    let mut rng = Rng::new(seed, 2);
    let batches = (0..WEEK_SLOTS)
        .map(|slot| replay.batch(slot, size, &mut rng))
        .collect();
    Some((live, batches))
}

/// Run the workload.
pub fn run(seed: u64, seconds: u64, report: &mut Report) {
    let ((live, batches), setup_s) = match repeated_setup(|| setup(seed)) {
        (Some(state), setup_s) => (state, setup_s),
        (None, _) => return report.attempt(false),
    };
    if report.traced() {
        return run_traced(&live, &batches, report);
    }
    let mut op_ms = Vec::new();
    common::whole_passes(seconds, || {
        let mut week = live.clone();
        for (slot, batch) in batches.iter().enumerate() {
            let (result, took) = timed(|| week.advance(batch, window_at(slot)));
            report.attempt(result.is_ok());
            match result {
                Ok(_) => op_ms.push(ms(took)),
                Err(e) => eprintln!("advance to slot {slot} failed: {e}"),
            }
        }
        check_against_rebuild(&week, report);
    });
    report.set("setup_s", setup_s);
    if let Some(v) = common::peak_rss_mb() {
        report.set("peak_rss_mb", v);
    }
    report.set_sequential_ops(
        "WindowedPipeline::advance (advance_*_ms)",
        &op_ms,
        WEEK_SLOTS,
    );
}

/// The advanced temporal graphs must equal a rebuild over the final
/// trip table.
fn check_against_rebuild(live: &WindowedPipeline, report: &mut Report) {
    let want = build_all_from_trips(&live.outcome.selected.trips, None, Some(THREADS));
    let same = live.temporals().iter().zip(&want).all(|(got, want)| {
        got.csr == want.csr
            && got.csr.total_weight().to_bits() == want.csr.total_weight().to_bits()
            && got.layer_map == want.layer_map
    });
    report.check(
        same && want.len() == live.temporals().len(),
        "advanced temporal graphs differ from a rebuild over the final trip table",
    );
}

/// The state `WindowedPipeline::advance` keeps, replayed by hand.
struct Replica {
    selected: SelectedNetwork,
    temporals: Vec<TemporalGraph>,
    communities: Vec<CommunityDetection>,
}

fn run_traced(live: &WindowedPipeline, batches: &[TripBatch], report: &mut Report) {
    // Untraced week first: per-advance latency and modularity bits.
    let mut week = live.clone();
    let mut untraced_ms = Vec::new();
    let mut want_bits = Vec::new();
    for (slot, batch) in batches.iter().enumerate() {
        let (result, took) = timed(|| week.advance(batch, window_at(slot)));
        if result.is_ok() {
            untraced_ms.push(ms(took));
        }
        want_bits.push(modularity_bits(&week.outcome.communities.all()));
    }

    let config = live.config().clone();
    let mut replica = Replica {
        selected: live.outcome.selected.clone(),
        temporals: live.temporals().to_vec(),
        communities: live
            .outcome
            .communities
            .all()
            .into_iter()
            .cloned()
            .collect(),
    };
    let mut trace = Trace::default();
    let (mut traced_ms, mut stage_sums) = (Vec::new(), Vec::new());
    let (mut evicted, mut batch_rows, mut active) = (Vec::new(), Vec::new(), 0usize);
    for (slot, batch) in batches.iter().enumerate() {
        let window = window_at(slot);
        // Side: the store eviction the advance performs, on a clone made
        // outside the span.
        let mut store = replica.selected.store.clone();
        let removed = trace.side("graph.store_retain_ms", || {
            store.retain_edges(|e| {
                if e.label != TRIP_LABEL {
                    return true;
                }
                let key = |k: &str| e.props.get(k).and_then(|v| v.as_int()).unwrap_or(0) as u8;
                window.keeps(key("day"), key("hour"))
            })
        });
        drop(store);

        let from = trace.now();
        let step = advance_replica(&mut replica, batch, window, &config, &mut trace);
        let to = trace.now();
        report.attempt(step.is_some());
        let Some((evicted_rows, took_active)) = step else {
            continue;
        };
        report.check(
            removed == evicted_rows,
            format!("slot {slot}: store retain removed {removed} rows, the advance {evicted_rows}"),
        );
        traced_ms.push(ms(to - from));
        stage_sums.push(ms(trace.stage_time_between(from, to)));
        evicted.push(evicted_rows as f64);
        batch_rows.push(batch.len() as f64);
        active += usize::from(took_active);
        let bits = modularity_bits(&replica.communities.iter().collect::<Vec<_>>());
        report.check(
            Some(&bits) == want_bits.get(slot),
            format!("slot {slot}: traced modularity differs from the untraced advance"),
        );
    }
    for (got, want) in replica
        .communities
        .iter()
        .zip(week.outcome.communities.all())
    {
        report.check(
            got.station_partition == want.station_partition,
            "traced partitions differ from the untraced week",
        );
    }
    report.check(trace.stages_disjoint(), "stage spans overlap");

    let spans = trace.by_name_ms();
    if let Some(values) = spans.get("core.advance_window_ms") {
        if let Some(v) = median(values) {
            report.set("core.advance_window_p50_ms", v);
        }
        if let Some(v) = percentile(values, 0.9) {
            report.set("core.advance_window_p90_ms", v);
        }
    }
    for name in [
        "core.temporal_window_ms",
        "community.refresh_ms",
        "graph.store_retain_ms",
    ] {
        if let Some(v) = spans.get(name).and_then(|v| median(v)) {
            report.set(name, v);
        }
    }
    if let Some(v) = mean(&evicted) {
        report.set("data.evicted_rows", v);
    }
    if let Some(v) = mean(&batch_rows) {
        report.set("data.batch_rows", v);
    }
    if !evicted.is_empty() {
        report.set(
            "community.active_share",
            active as f64 / evicted.len() as f64,
        );
    }
    report.set_overhead(&untraced_ms, &traced_ms, &stage_sums);
}

fn modularity_bits(detections: &[&CommunityDetection]) -> Vec<u64> {
    detections.iter().map(|d| d.modularity.to_bits()).collect()
}

/// Advance the replica the way `WindowedPipeline::advance` does, one
/// stage span per public call. Returns the evicted row count and whether
/// the active-set refresh ran, or `None` if the advance failed.
fn advance_replica(
    replica: &mut Replica,
    batch: &TripBatch,
    window: WindowStart,
    config: &moby_core::PipelineConfig,
    trace: &mut Trace,
) -> Option<(usize, bool)> {
    let threads = config.detect.threads;
    let outcome = trace
        .stage("core.advance_window_ms", || {
            replica.selected.advance_window(batch, window, threads)
        })
        .ok()?;
    let temporals = std::mem::take(&mut replica.temporals);
    replica.temporals = trace.stage("core.temporal_window_ms", || {
        apply_window_all(
            temporals,
            &replica.selected.trips,
            &outcome,
            Some(replica.selected.undirected.clone()),
            threads,
        )
    });
    let selected = &replica.selected;
    let (refreshed, active) = trace.stage("community.refresh_ms", || {
        let old_ids = selected.fixed_ids();
        let mut touched = outcome.evicted.touched_stations();
        touched.extend(batch.station_ids());
        touched.sort_unstable();
        touched.dedup();
        let stations = selected.trips.station_ids().len().max(1);
        let active =
            touched.len() as f64 / stations as f64 <= config.window.active_refresh_threshold;
        let refresh = if active {
            refresh_communities_active
        } else {
            refresh_communities
        };
        let refreshed: Vec<CommunityDetection> = replica
            .temporals
            .iter()
            .zip(&replica.communities)
            .map(|(temporal, previous)| {
                refresh(
                    temporal,
                    &selected.directed,
                    &old_ids,
                    previous,
                    &config.detect,
                )
            })
            .collect();
        (refreshed, active)
    });
    replica.communities = refreshed;
    Some((outcome.evicted.evicted_rows(), active))
}
