//! Metric catalogue and the result a run prints.
//!
//! Every workload reports every end-to-end metric, each defined against
//! the workload's own *operation* (see [`END_TO_END`]). A traced run
//! reports every per-layer metric; a layer the workload never calls
//! reads 0. Each per-layer entry names the end-to-end metric and the
//! workload it should move.

use crate::stats::{failed_share, mean, median, percentile, quartiles, tail_percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A reported metric: name, unit and what it measures.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed in the result.
    pub name: &'static str,
    /// Unit as printed in the result.
    pub unit: &'static str,
    /// What it measures (and, for per-layer metrics, what it should move).
    pub about: &'static str,
}

const fn m(name: &'static str, unit: &'static str, about: &'static str) -> Metric {
    Metric { name, unit, about }
}

/// End-to-end metrics, measured with tracing off. The *operation* is one
/// `ExpansionPipeline::run` (paper_run), one `WindowedPipeline::advance`
/// (window_week), one `QueryPool::query` (serve_mixed) or one clean plus
/// temporal build (city_build).
pub const END_TO_END: [Metric; 6] = [
    m("setup_s", "s", "median of the workload's repeated set-ups"),
    m("peak_rss_mb", "MB", "VmHWM of the workload's process"),
    m("op_p50_ms", "ms", "median operation latency"),
    m(
        "op_tail_ms",
        "ms",
        "operation latency at the highest of p95/p90/p50 with >=10 samples beyond",
    ),
    m(
        "ops_per_s",
        "1/s",
        "operations completed per measured second",
    ),
    m(
        "write_p50_ms",
        "ms",
        "median time from a write's due time to its result: the scheduled \
         publish on serve_mixed, the operation itself elsewhere",
    ),
];

/// Per-layer metrics from the traced run.
pub const PER_LAYER: [Metric; 42] = [
    m(
        "data.clean_ms",
        "ms",
        "clean_dataset (moby_data); moves op_p50_ms on paper_run",
    ),
    m(
        "data.clean_stream_ms",
        "ms",
        "clean_trip_stream (moby_data); moves op_p50_ms on city_build",
    ),
    m(
        "data.rows_dropped",
        "count",
        "rows the cleaner removed; base of data.clean_*",
    ),
    m(
        "data.evicted_rows",
        "count",
        "rows evicted per advance (mean); base of core.advance_window_*",
    ),
    m(
        "data.batch_rows",
        "count",
        "rows ingested per advance (mean); base of core.advance_window_*",
    ),
    m(
        "cluster.constrained_ms",
        "ms",
        "side: constrained_clustering on the candidate stage's points (moby_cluster); \
         moves op_p50_ms on paper_run, no change on window_week",
    ),
    m(
        "cluster.free_locations",
        "count",
        "points clustered; base of cluster.constrained_ms",
    ),
    m(
        "cluster.candidates",
        "count",
        "candidate clusters found; base of cluster.constrained_ms",
    ),
    m(
        "core.candidate_ms",
        "ms",
        "build_candidate_network (moby_core); moves op_p50_ms and peak_rss_mb on paper_run",
    ),
    m(
        "core.select_ms",
        "ms",
        "select_stations (moby_core); moves op_p50_ms on paper_run",
    ),
    m(
        "core.selected_ms",
        "ms",
        "build_selected_network (moby_core); moves op_p50_ms and peak_rss_mb on paper_run",
    ),
    m(
        "core.selected_stations",
        "count",
        "stations Algorithm 1 selected; base of core.select_ms",
    ),
    m(
        "core.temporal_ms",
        "ms",
        "build_all_from_trips_spilled (moby_core -> moby_graph); moves op_p50_ms and \
         peak_rss_mb on city_build, op_p50_ms on paper_run",
    ),
    m(
        "core.advance_window_p50_ms",
        "ms",
        "SelectedNetwork::advance_window, median; moves op_p50_ms on window_week, \
         write_p50_ms on serve_mixed",
    ),
    m(
        "core.advance_window_p90_ms",
        "ms",
        "SelectedNetwork::advance_window, p90; moves op_tail_ms on window_week",
    ),
    m(
        "core.temporal_window_ms",
        "ms",
        "apply_window_all (moby_core -> moby_graph), median; moves op_p50_ms on window_week",
    ),
    m(
        "graph.store_retain_ms",
        "ms",
        "side: GraphStore::retain_edges with the advance's predicate on a clone \
         (moby_graph), median; moves op_p50_ms on window_week",
    ),
    m(
        "graph.temporal_nodes_basic",
        "count",
        "GBasic nodes; base of core.temporal_ms",
    ),
    m(
        "graph.temporal_nodes_day",
        "count",
        "GDay nodes; base of core.temporal_ms",
    ),
    m(
        "graph.temporal_nodes_hour",
        "count",
        "GHour nodes; base of core.temporal_ms",
    ),
    m(
        "graph.temporal_edges_basic",
        "count",
        "GBasic edges; base of core.temporal_ms",
    ),
    m(
        "graph.temporal_edges_day",
        "count",
        "GDay edges; base of core.temporal_ms",
    ),
    m(
        "graph.temporal_edges_hour",
        "count",
        "GHour edges; base of core.temporal_ms",
    ),
    m(
        "graph.heap_bytes",
        "bytes",
        "heap of the three frozen temporal graphs; base of peak_rss_mb on city_build",
    ),
    m(
        "community.detect_basic_ms",
        "ms",
        "detect_communities on GBasic (moby_community via moby_core); moves op_p50_ms \
         on paper_run",
    ),
    m(
        "community.detect_day_ms",
        "ms",
        "detect_communities on GDay; moves op_p50_ms on paper_run",
    ),
    m(
        "community.detect_hour_ms",
        "ms",
        "detect_communities on GHour; moves op_p50_ms on paper_run",
    ),
    m(
        "community.refresh_ms",
        "ms",
        "refresh_communities[_active] x3 under the advance's policy, median; moves \
         op_tail_ms on window_week",
    ),
    m(
        "community.active_share",
        "share",
        "share of advances routed through the active-set refresh; base of \
         community.refresh_ms",
    ),
    m(
        "server.answer_station_us",
        "us",
        "side: moby_server::answer(Station) on the current snapshot, median; moves \
         op_p50_ms on serve_mixed",
    ),
    m(
        "server.answer_nearest_us",
        "us",
        "side: answer(Nearest), median; moves op_p50_ms on serve_mixed",
    ),
    m(
        "server.answer_community_us",
        "us",
        "side: answer(Community), median; moves op_p50_ms on serve_mixed",
    ),
    m(
        "server.answer_pagerank_us",
        "us",
        "side: answer(PageRank), median; moves op_p50_ms on serve_mixed",
    ),
    m(
        "server.answer_degrees_us",
        "us",
        "side: answer(Degrees), median; moves op_p50_ms on serve_mixed",
    ),
    m(
        "server.queue_wait_p50_us",
        "us",
        "QueryPool::query latency minus answer time for the same request, median; \
         moves op_p50_ms and ops_per_s on serve_mixed",
    ),
    m(
        "server.queue_wait_p99_us",
        "us",
        "the same, p99; moves op_tail_ms and ops_per_s on serve_mixed",
    ),
    m(
        "server.write_late_ms",
        "ms",
        "how late the writer started against its schedule, median; moves write_p50_ms \
         on serve_mixed",
    ),
    m(
        "server.writes",
        "count",
        "writes applied during the traced phase; base of server.write_late_ms",
    ),
    m(
        "server.queries",
        "count",
        "queries answered during the traced phase; base of server.queue_wait_*",
    ),
    m(
        "trace.stage_sum_ms",
        "ms",
        "sum of the stage spans per traced operation (mean); side spans excluded",
    ),
    m(
        "trace.untraced_ms",
        "ms",
        "the same operations untraced (mean); base of trace.overhead_ratio",
    ),
    m(
        "trace.overhead_ratio",
        "ratio",
        "traced operation time over untraced operation time",
    ),
];

/// The outcome of one benchmark run.
#[derive(Debug)]
pub struct Report {
    workload: String,
    seed: u64,
    trace: bool,
    attempted: u64,
    failed: u64,
    failed_checks: Vec<String>,
    notes: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// An empty report for one run.
    pub fn new(workload: &str, seed: u64, trace: bool) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            trace,
            attempted: 0,
            failed: 0,
            failed_checks: Vec::new(),
            notes: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    /// Whether this is a traced run.
    pub fn traced(&self) -> bool {
        self.trace
    }

    /// Count one attempted operation, failed unless `ok`.
    pub fn attempt(&mut self, ok: bool) {
        self.add_attempts(1, u64::from(!ok));
    }

    /// Count `attempted` operations of which `failed` failed.
    pub fn add_attempts(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Record an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            let what = what.into();
            eprintln!("check failed: {what}");
            self.failed_checks.push(what);
        }
    }

    /// Add a human-readable line to the printed result.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Set a metric's value.
    ///
    /// # Panics
    ///
    /// If `name` is not in the catalogue of this run's mode — a bug in
    /// the workload.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.catalogue().iter().any(|m| m.name == name),
            "metric {name} is not reported in this mode"
        );
        self.values.insert(name, value);
    }

    /// Set the operation metrics from the latencies, in milliseconds, of
    /// operations run one after another in whole passes of `pass_len`;
    /// `op` names the operation. The tail percentile follows from one
    /// pass, so it stays the same however many passes fit in a run.
    pub fn set_sequential_ops(&mut self, op: &str, op_ms: &[f64], pass_len: usize) {
        if let Some(p50) = median(op_ms) {
            self.set("op_p50_ms", p50);
            // Each operation is itself a write, due when it is issued.
            self.set("write_p50_ms", p50);
        }
        let p = tail_percentile(pass_len);
        if let Some(v) = percentile(op_ms, p) {
            self.set("op_tail_ms", v);
            self.note(format!("op_tail_ms is p{}", p * 100.0));
        }
        let busy_s: f64 = op_ms.iter().sum::<f64>() / 1e3;
        if busy_s > 0.0 {
            self.set("ops_per_s", op_ms.len() as f64 / busy_s);
        }
        self.note_samples(op, op_ms);
    }

    /// Print an operation's sample count and quartiles.
    pub fn note_samples(&mut self, op: &str, op_ms: &[f64]) {
        if let Some((q1, q3)) = quartiles(op_ms) {
            self.note(format!(
                "operation: {op}; {} samples, quartiles {q1:.4} .. {q3:.4} ms",
                op_ms.len()
            ));
        }
    }

    /// Set a traced run's stage sum and tracing overhead from per-operation
    /// untraced times, traced times and stage sums, in milliseconds.
    pub fn set_overhead(&mut self, untraced_ms: &[f64], traced_ms: &[f64], stage_sums: &[f64]) {
        if let (Some(u), Some(t), Some(s)) = (mean(untraced_ms), mean(traced_ms), mean(stage_sums))
        {
            self.set("trace.untraced_ms", u);
            self.set("trace.stage_sum_ms", s);
            self.set("trace.overhead_ratio", t / u);
        }
    }

    fn catalogue(&self) -> &'static [Metric] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Render the run: human-readable lines, then the one-line JSON
    /// result as the last line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut correct = self.failed_checks.is_empty() && self.attempted > 0;
        let _ = writeln!(
            out,
            "perfbench workload={} seed={} trace={}",
            self.workload,
            self.seed,
            u8::from(self.trace)
        );
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        let mut json_metrics = Vec::new();
        for metric in self.catalogue() {
            let value = match self.values.get(metric.name) {
                Some(v) if v.is_finite() => *v,
                // A layer the workload never calls reads 0.
                None if self.trace => 0.0,
                _ => {
                    // An end-to-end metric the run could not measure.
                    correct = false;
                    eprintln!("metric {} was not measured", metric.name);
                    0.0
                }
            };
            let _ = writeln!(
                out,
                "  {:<28} {:>16} {:<6} {}",
                metric.name,
                format!("{value:.6}"),
                metric.unit,
                metric.about
            );
            // `{:?}` prints every digit of the shortest round-trip form.
            json_metrics.push(format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            ));
        }
        let _ = writeln!(
            out,
            "  attempted={} failed={} failed_share={} checks_failed={}",
            self.attempted,
            self.failed,
            failed_share(self.failed, self.attempted),
            self.failed_checks.len()
        );
        let _ = writeln!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            json_metrics.join(", ")
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue here and `BENCHMARK.json` at the repository root name
    /// the same metrics with the same units, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let section = |key: &str| {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let rest = &text[start..];
            rest[..rest.find(']').expect("section closes")].to_string()
        };
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let section = section(key);
            let names: Vec<&str> = section
                .split("\"name\": \"")
                .skip(1)
                .map(|s| &s[..s.find('"').expect("name closes")])
                .collect();
            let units: Vec<&str> = section
                .split("\"unit\": \"")
                .skip(1)
                .map(|s| &s[..s.find('"').expect("unit closes")])
                .collect();
            let want: Vec<&str> = catalogue.iter().map(|m| m.name).collect();
            let want_units: Vec<&str> = catalogue.iter().map(|m| m.unit).collect();
            assert_eq!(names, want, "{key} names");
            assert_eq!(units, want_units, "{key} units");
        }
    }

    #[test]
    fn result_line_is_last_and_complete() {
        let mut report = Report::new("paper_run", 7, false);
        for metric in END_TO_END {
            report.set(metric.name, 1.5);
        }
        report.attempt(true);
        let out = report.render();
        let last = out.lines().last().expect("non-empty");
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(last.contains("\"op_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        assert!(out.contains("seed=7"));
    }

    #[test]
    fn unmeasured_metric_or_failed_check_is_incorrect() {
        let mut report = Report::new("paper_run", 1, false);
        report.attempt(true);
        assert!(report
            .render()
            .lines()
            .last()
            .unwrap()
            .contains("\"correct\": false"));
        for metric in END_TO_END {
            report.set(metric.name, 2.0);
        }
        report.check(false, "deliberate");
        assert!(report
            .render()
            .lines()
            .last()
            .unwrap()
            .contains("\"correct\": false"));
    }

    #[test]
    fn traced_run_reports_unused_layers_as_zero() {
        let mut report = Report::new("city_build", 1, true);
        report.attempt(true);
        report.set("core.temporal_ms", 3.25);
        let last = report.render().lines().last().unwrap().to_string();
        assert!(last.contains("\"core.temporal_ms\": {\"value\": 3.25, \"unit\": \"ms\"}"));
        assert!(last.contains("\"server.writes\": {\"value\": 0.0, \"unit\": \"count\"}"));
        assert!(last.contains("\"correct\": true"));
    }
}
