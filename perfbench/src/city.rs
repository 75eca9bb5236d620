//! `city_build`: temporal-graph construction at city scale.
//!
//! Set-up materialises the 1M-trip city tier (`CityConfig` with the seed
//! replaced) as rows in memory. One operation streams those rows through
//! `clean_trip_stream` and builds all three temporal graphs with
//! `build_all_from_trips_spilled` at the default spill budget and shard
//! count. The traced run alternates untraced and traced operations.

use crate::common::{self, ms, repeated_setup, Rng, THREADS};
use crate::report::Report;
use crate::stats::mean;
use crate::trace::Trace;
use moby_core::temporal::{build_all_from_trips_spilled, TemporalGraph};
use moby_data::clean::clean_trip_stream;
use moby_data::synth::{city_trip_stream, CityConfig, CityTrip, SynthConfig};
use moby_data::trips::TripTable;
use std::time::{Duration, Instant};

fn city_config(seed: u64) -> CityConfig {
    CityConfig {
        seed: Rng::new(seed, 5).next_u64(),
        ..SynthConfig::city()
    }
}

/// What one operation built: the graphs, the cleaned table (returned so
/// that it is dropped outside the timing) and the kept and dropped rows.
type Built = (Vec<TemporalGraph>, TripTable, usize, usize);

/// One operation: clean the rows, then build the temporal graphs. Each
/// half runs inside `span` under its stage name. `None` if the build
/// failed.
fn build(
    config: &CityConfig,
    rows: &[CityTrip],
    span: &mut impl FnMut(&'static str, &mut dyn FnMut()),
) -> Option<Built> {
    let mut station_ids = Some(config.station_ids());
    let mut cleaned = None;
    span("data.clean_stream_ms", &mut || {
        let station_ids = station_ids.take().expect("span runs its closure once");
        cleaned = Some(clean_trip_stream(
            station_ids,
            rows.len(),
            rows.iter().copied(),
        ))
    });
    let (table, clean) = cleaned.expect("span runs its closure");
    let mut built = None;
    span("core.temporal_ms", &mut || {
        built = Some(build_all_from_trips_spilled(
            &table,
            None,
            None,
            Some(THREADS),
            None,
            None,
        ))
    });
    match built.expect("span runs its closure") {
        Ok(graphs) => Some((graphs, table, clean.rows_kept, clean.unknown_endpoint)),
        Err(e) => {
            eprintln!("temporal build failed: {e}");
            None
        }
    }
}

/// Each granularity's total weight must equal the kept rows.
fn check_build(graphs: &[TemporalGraph], kept: usize, report: &mut Report) {
    report.check(
        graphs.len() == 3 && graphs.iter().all(|g| g.csr.total_weight() == kept as f64),
        format!("a temporal graph's total weight differs from the {kept} kept rows"),
    );
}

/// Run the workload.
pub fn run(seed: u64, seconds: u64, report: &mut Report) {
    let config = city_config(seed);
    let (rows, setup_s) = repeated_setup(|| city_trip_stream(&config).collect::<Vec<CityTrip>>());
    let deadline = Instant::now() + Duration::from_secs(seconds);
    if report.traced() {
        return run_traced(&config, &rows, deadline, report);
    }
    let mut op_ms = Vec::new();
    loop {
        let start = Instant::now();
        let result = build(&config, &rows, &mut |_, f| f());
        let took = start.elapsed();
        report.attempt(result.is_some());
        if let Some((graphs, _, kept, _)) = result {
            op_ms.push(ms(took));
            check_build(&graphs, kept, report);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    report.set("setup_s", setup_s);
    if let Some(v) = common::peak_rss_mb() {
        report.set("peak_rss_mb", v);
    }
    report.set_sequential_ops(
        "clean_trip_stream + build_all_from_trips_spilled (build_s)",
        &op_ms,
        1,
    );
}

fn run_traced(config: &CityConfig, rows: &[CityTrip], deadline: Instant, report: &mut Report) {
    let mut trace = Trace::default();
    let (mut untraced_ms, mut traced_ms, mut stage_sums) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts: Vec<[f64; 8]> = Vec::new();
    loop {
        let start = Instant::now();
        let untraced = build(config, rows, &mut |_, f| f());
        untraced_ms.push(ms(start.elapsed()));
        drop(untraced);

        let from = trace.now();
        let result = build(config, rows, &mut |name, f| trace.stage(name, f));
        let to = trace.now();
        report.attempt(result.is_some());
        if let Some((graphs, _, kept, dropped)) = result {
            traced_ms.push(ms(to - from));
            stage_sums.push(ms(trace.stage_time_between(from, to)));
            check_build(&graphs, kept, report);
            let mut c = [0.0; 8];
            c[0] = dropped as f64;
            for (k, g) in graphs.iter().enumerate() {
                c[1 + k] = g.csr.node_count() as f64;
                c[4 + k] = g.csr.edge_count() as f64;
                c[7] += g.csr.heap_bytes() as f64;
            }
            counts.push(c);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    report.check(trace.stages_disjoint(), "stage spans overlap");
    for (name, values) in trace.by_name_ms() {
        if let Some(v) = mean(&values) {
            report.set(name, v);
        }
    }
    const COUNTS: [&str; 8] = [
        "data.rows_dropped",
        "graph.temporal_nodes_basic",
        "graph.temporal_nodes_day",
        "graph.temporal_nodes_hour",
        "graph.temporal_edges_basic",
        "graph.temporal_edges_day",
        "graph.temporal_edges_hour",
        "graph.heap_bytes",
    ];
    for (k, name) in COUNTS.into_iter().enumerate() {
        let values: Vec<f64> = counts.iter().map(|c| c[k]).collect();
        if let Some(v) = mean(&values) {
            report.set(name, v);
        }
    }
    report.set_overhead(&untraced_ms, &traced_ms, &stage_sums);
}
