//! `paper_run`: the paper's one-shot expansion job.
//!
//! One operation is `ExpansionPipeline::run` on a paper-scale synthetic
//! dataset (≈62k rentals). HAC cost depends strongly on the dataset, so a
//! run makes whole passes over a panel of [`PANEL`] datasets derived from
//! the seed rather than timing one. Set-up is dataset generation, done just
//! before each operation and timed apart from it.
//!
//! The traced run replays the pipeline stage by stage through the public
//! stage functions, after an untraced run of the same dataset, and
//! checks the replay reproduces the untraced outcome bit for bit.

use crate::common::{self, ms, paper_config, pipeline_config, timed, Rng, THREADS};
use crate::report::Report;
use crate::stats::{mean, median};
use crate::trace::Trace;
use moby_cluster::constrained::{constrained_clustering, ConstrainedConfig};
use moby_core::candidate::build_candidate_network;
use moby_core::detect::detect_communities;
use moby_core::pipeline::{ExpansionOutcome, ExpansionPipeline};
use moby_core::reassign::build_selected_network;
use moby_core::selection::select_stations;
use moby_core::temporal::build_all_from_trips_spilled;
use moby_core::validate::validate_default;
use moby_data::clean::clean_dataset;
use moby_data::schema::{CleanDataset, RawDataset};
use moby_data::stats::DatasetOverview;
use moby_data::synth::generate;
use moby_geo::GeoPoint;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Datasets in a run's panel.
pub const PANEL: usize = 32;

/// Panel datasets whose peak resident set is measured, before timing.
const MEMORY_PASS: usize = 8;

/// The panel's dataset seeds for a workload seed.
fn panel(seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 1);
    (0..PANEL).map(|_| rng.next_u64()).collect()
}

/// Run the workload.
pub fn run(seed: u64, seconds: u64, report: &mut Report) {
    if report.traced() {
        return run_traced(seed, seconds, report);
    }
    let pipeline = ExpansionPipeline::new(pipeline_config());
    let (mut setup, mut op_ms) = (Vec::new(), Vec::new());
    let panel = panel(seed);
    // Memory pass over the first datasets, untimed: each run starts from
    // live data only, so its peak is its own. It also warms the
    // allocator, whose first large clustering matrices cost page faults
    // that the timed runs below then reuse.
    let mut peaks = Vec::new();
    for &data_seed in &panel[..MEMORY_PASS] {
        let (raw, took) = timed(|| generate(&paper_config(data_seed)));
        setup.push(took.as_secs_f64());
        common::reset_peak_rss();
        let result = pipeline.run(&raw);
        peaks.extend(common::peak_rss_mb());
        report.attempt(result.is_ok());
        if let Ok(outcome) = result {
            check_outcome(&outcome, data_seed, report);
        }
    }
    // Timed runs: whole passes over the panel.
    common::whole_passes(seconds, || {
        for &data_seed in &panel {
            let (raw, took) = timed(|| generate(&paper_config(data_seed)));
            setup.push(took.as_secs_f64());
            let (result, took) = timed(|| pipeline.run(&raw));
            report.attempt(result.is_ok());
            match result {
                Ok(outcome) => {
                    op_ms.push(ms(took));
                    check_outcome(&outcome, data_seed, report);
                }
                Err(e) => eprintln!("pipeline failed on dataset seed {data_seed}: {e}"),
            }
        }
    });
    if let Some(v) = median(&setup) {
        report.set("setup_s", v);
    }
    if let Some(v) = median(&peaks) {
        report.set("peak_rss_mb", v);
    }
    report.set_sequential_ops("ExpansionPipeline::run (run_s)", &op_ms, PANEL);
}

fn check_outcome(outcome: &ExpansionOutcome, data_seed: u64, report: &mut Report) {
    report.check(
        validate_default(outcome).passes(),
        format!("dataset {data_seed}: expansion fails validation"),
    );
    report.check(
        outcome.selected.table.total_trips == outcome.dataset.rentals.len(),
        format!("dataset {data_seed}: selected network does not conserve trips"),
    );
}

/// What a traced replay produced, for comparison with the untraced run.
struct Replayed {
    selected_ids: Vec<u64>,
    partitions: Vec<moby_community::Partition>,
    modularity_bits: Vec<u64>,
    /// Traced wall time without side spans.
    total: Duration,
}

fn run_traced(seed: u64, seconds: u64, report: &mut Report) {
    let pipeline = ExpansionPipeline::new(pipeline_config());
    // Warm the allocator as the untraced run does with its memory pass.
    let _ = pipeline.run(&generate(&paper_config(panel(seed)[0])));
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut trace = Trace::default();
    let (mut untraced_ms, mut traced_ms, mut stage_sums) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts: Vec<[f64; 10]> = Vec::new();
    for (k, data_seed) in panel(seed).into_iter().enumerate() {
        if k > 0 && Instant::now() >= deadline {
            break;
        }
        let raw = generate(&paper_config(data_seed));
        let (result, took) = timed(|| pipeline.run(&raw));
        let Ok(outcome) = result else {
            report.attempt(false);
            continue;
        };
        let from = trace.now();
        let replay = replay(&raw, &mut trace, &mut counts);
        let to = trace.now();
        report.attempt(replay.is_some());
        let Some(replay) = replay else { continue };
        untraced_ms.push(ms(took));
        traced_ms.push(ms(replay.total));
        stage_sums.push(ms(trace.stage_time_between(from, to)));
        let want_ids: Vec<u64> = outcome.selection.selected.iter().map(|s| s.id).collect();
        report.check(
            replay.selected_ids == want_ids,
            format!("dataset {data_seed}: traced selection differs from the untraced run"),
        );
        for (k, detection) in outcome.communities.all().iter().enumerate() {
            report.check(
                replay.partitions[k] == detection.station_partition
                    && replay.modularity_bits[k] == detection.modularity.to_bits(),
                format!("dataset {data_seed}: traced communities differ at granularity {k}"),
            );
        }
    }
    report.check(trace.stages_disjoint(), "stage spans overlap");
    for (name, values) in trace.by_name_ms() {
        if let Some(v) = mean(&values) {
            report.set(name, v);
        }
    }
    const COUNTS: [&str; 10] = [
        "data.rows_dropped",
        "cluster.free_locations",
        "cluster.candidates",
        "core.selected_stations",
        "graph.temporal_nodes_basic",
        "graph.temporal_nodes_day",
        "graph.temporal_nodes_hour",
        "graph.temporal_edges_basic",
        "graph.temporal_edges_day",
        "graph.temporal_edges_hour",
    ];
    for (k, name) in COUNTS.into_iter().enumerate() {
        let values: Vec<f64> = counts.iter().map(|c| c[k]).collect();
        if let Some(v) = mean(&values) {
            report.set(name, v);
        }
    }
    report.set_overhead(&untraced_ms, &traced_ms, &stage_sums);
}

/// Replay `ExpansionPipeline::run` stage by stage under `trace`, pushing
/// the stage counts onto `counts`. `None` if a stage fails.
fn replay(raw: &RawDataset, trace: &mut Trace, counts: &mut Vec<[f64; 10]>) -> Option<Replayed> {
    let config = pipeline_config();
    let start = trace.now();
    let cleaning = trace.stage("data.clean_ms", || clean_dataset(raw));
    // Untimed, like the pipeline's own overview; kept alive as it is there.
    let _overview = DatasetOverview::from_cleaning(raw, &cleaning);
    let rows_dropped = cleaning.report.total_rentals_removed();
    let dataset = cleaning.dataset;
    let candidate = trace
        .stage("core.candidate_ms", || {
            build_candidate_network(&dataset, &config.expansion)
        })
        .ok()?;

    // Side call: the clustering the candidate stage runs, on the same
    // points, timed on its own.
    let (station_points, free_points) = clustering_inputs(&dataset);
    let clustering = trace.side("cluster.constrained_ms", || {
        constrained_clustering(
            &station_points,
            &free_points,
            &ConstrainedConfig {
                station_absorb_radius_m: config.expansion.station_absorb_radius_m,
                cluster_boundary_m: config.expansion.cluster_boundary_m,
                linkage: config.expansion.linkage,
            },
        )
    });
    let candidates = candidate.candidate_ids().len();
    if clustering.map(|c| c.candidate_clusters.len()).ok() != Some(candidates) {
        eprintln!("side clustering disagrees with the candidate stage");
        return None;
    }

    let selection = trace
        .stage("core.select_ms", || {
            select_stations(&candidate, &config.expansion)
        })
        .ok()?;
    let selected = trace
        .stage("core.selected_ms", || {
            build_selected_network(&dataset, &candidate, &selection)
        })
        .ok()?;
    let temporals = trace
        .stage("core.temporal_ms", || {
            build_all_from_trips_spilled(
                &selected.trips,
                Some(&selected.undirected),
                config.build_shards,
                Some(THREADS),
                config.spill_budget_mb,
                None,
            )
        })
        .ok()?;
    let old_ids: HashSet<u64> = selected.fixed_ids();
    let mut detections = Vec::with_capacity(3);
    for (name, temporal) in [
        "community.detect_basic_ms",
        "community.detect_day_ms",
        "community.detect_hour_ms",
    ]
    .into_iter()
    .zip(&temporals)
    {
        detections.push(trace.stage(name, || {
            detect_communities(temporal, &selected.directed, &old_ids, &config.detect)
        }));
    }
    let total = trace.now() - start;
    let side = trace.side_time_between(start, trace.now());

    let mut c = [0.0; 10];
    c[0] = rows_dropped as f64;
    c[1] = free_points.len() as f64;
    c[2] = candidates as f64;
    c[3] = selection.selected.len() as f64;
    for (k, t) in temporals.iter().enumerate() {
        c[4 + k] = t.csr.node_count() as f64;
        c[7 + k] = t.csr.edge_count() as f64;
    }
    counts.push(c);
    Some(Replayed {
        selected_ids: selection.selected.iter().map(|s| s.id).collect(),
        partitions: detections
            .iter()
            .map(|d| d.station_partition.clone())
            .collect(),
        modularity_bits: detections.iter().map(|d| d.modularity.to_bits()).collect(),
        total: total - side,
    })
}

/// The fixed-station points and the free-location points the candidate
/// stage hands to the constrained clustering.
fn clustering_inputs(dataset: &CleanDataset) -> (Vec<GeoPoint>, Vec<GeoPoint>) {
    let station_ids: HashSet<_> = dataset.stations.iter().map(|s| s.id).collect();
    let station_points = dataset.stations.iter().map(|s| s.position).collect();
    let free_points = dataset
        .locations
        .iter()
        .filter(|l| !l.station_id.is_some_and(|sid| station_ids.contains(&sid)))
        .map(|l| l.position)
        .collect();
    (station_points, free_points)
}
