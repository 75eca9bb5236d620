//! `serve_mixed`: reads beside writes on the snapshot-serving layer.
//!
//! Set-up runs the pipeline on a paper-scale dataset and hands its
//! selected network to a `SnapshotWriter` plus a `QueryPool`. Then, for
//! the run's time, two load threads share the snapshot handle:
//!
//! * the client (the main thread) runs a closed loop: one request in
//!   flight, round-robin over the five `Request` kinds on stations drawn
//!   from the network. One operation is one query, timed from
//!   `QueryPool::submit` until its answer arrives. The client polls the
//!   reply, yielding, for up to [`SPIN`] before it blocks, rather than
//!   blocking at once as `QueryPool::query` does: blocked at once, the
//!   scheduler put client and worker on one core in some runs and on two
//!   in others, and the median jumped between about 5 and 14 µs from run
//!   to run;
//! * the writer thread runs an open loop: one write due every
//!   [`WRITE_INTERVAL`], one ingest then three advances, each timed from
//!   its due time until its snapshot is published.
//!
//! The traced run spends the first half of its time untraced and the
//! second half timing `moby_server::answer` for each request before
//! submitting it, so queue wait is query latency minus answer time.

use crate::common::{
    self, ms, paper_config, pipeline_config, repeated_setup, window_at, Replay, Rng, WEEK_SLOTS,
};
use crate::report::Report;
use crate::stats::{lateness, mean, median, percentile, tail};
use moby_community::LouvainConfig;
use moby_core::pipeline::ExpansionPipeline;
use moby_data::synth::generate;
use moby_graph::build_dense_csr;
use moby_graph::metrics::PageRankConfig;
use moby_server::{
    answer, QueryPool, Request, Response, ServeConfig, SnapshotHandle, SnapshotWriter, WriteOp,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::TryRecvError;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time between two scheduled writes.
pub const WRITE_INTERVAL: Duration = Duration::from_millis(125);

/// One write in this many is an ingest; the rest are advances, each
/// moving the window one hour slot. An advance publishes about ten times
/// slower than an ingest, so with an even mix the median would fall in
/// the gap between the two and jump from run to run.
const INGEST_EVERY: u32 = 4;

/// Query-pool workers. One closed-loop client never has more than one
/// request queued.
const POOL_WORKERS: usize = 1;

/// Threads the writer's graph mutation and metric refreshes use: one, so
/// the writer and the query path together fit the two-core host.
const WRITER_THREADS: usize = 1;

/// Queries per second the client's pre-touched latency buffer holds,
/// about twice the rate measured on the host the benchmark was sized on.
const MAX_QUERIES_PER_S: usize = 250_000;

/// How long the client polls for an answer before it blocks.
const SPIN: Duration = Duration::from_micros(50);

/// Neighbours asked for by a `Nearest` request.
const NEAREST_K: usize = 5;

/// Names of the five request kinds, in round-robin order.
const KINDS: [&str; 5] = ["station", "nearest", "community", "pagerank", "degrees"];

struct Served {
    writer: SnapshotWriter,
    handle: Arc<SnapshotHandle>,
    pool: QueryPool,
    replay: Replay,
}

fn setup(seed: u64) -> Option<Served> {
    let raw = generate(&paper_config(seed));
    let outcome = match ExpansionPipeline::new(pipeline_config()).run(&raw) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("pipeline failed: {e}");
            return None;
        }
    };
    let network = outcome.selected;
    let replay = Replay::new(&network.trips);
    let config = ServeConfig {
        threads: Some(WRITER_THREADS),
        louvain: LouvainConfig {
            threads: Some(WRITER_THREADS),
            ..LouvainConfig::default()
        },
        pagerank: PageRankConfig {
            threads: Some(WRITER_THREADS),
            ..PageRankConfig::default()
        },
    };
    let (writer, handle) = SnapshotWriter::new(network, config);
    let pool = QueryPool::new(writer.handle(), POOL_WORKERS);
    Some(Served {
        writer,
        handle,
        pool,
        replay,
    })
}

/// What the writer thread measured.
#[derive(Default)]
struct Writes {
    late_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// The writer's open loop until `deadline`.
fn write_loop(
    writer: &mut SnapshotWriter,
    replay: &Replay,
    seed: u64,
    start: Instant,
    deadline: Instant,
) -> Writes {
    let mut rng = Rng::new(seed, 4);
    let batch_rows = replay.len() / WEEK_SLOTS;
    let mut window = 0usize;
    let mut writes = Writes::default();
    for i in 1u32.. {
        let due = start + WRITE_INTERVAL * i;
        if due >= deadline {
            break;
        }
        let advance = i % INGEST_EVERY != 1;
        if advance {
            window = (window + 1).min(WEEK_SLOTS - 1);
        }
        let batch = replay.batch(window, batch_rows, &mut rng);
        let op = if advance {
            WriteOp::Advance(batch, window_at(window))
        } else {
            WriteOp::Ingest(batch)
        };
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let started = Instant::now();
        let result = writer.apply(op);
        let published = Instant::now();
        writes.attempted += 1;
        match result {
            Ok(outcome) => {
                writes.late_ms.push(ms(lateness(due, started)));
                writes.publish_ms.push(ms(published - due));
                drop(outcome);
            }
            Err(e) => {
                writes.failed += 1;
                eprintln!("write {i} rejected: {e}");
            }
        }
    }
    writes
}

/// What the client measured.
#[derive(Default)]
struct Queries {
    latency_ms: Vec<f64>,
    /// Per kind, the side `answer` time (traced phase only).
    answer_ms: [Vec<f64>; 5],
    /// Query latency minus answer time (traced phase only).
    wait_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    epochs_monotone: bool,
    wall: Duration,
}

/// The client's closed loop until `deadline`; with `traced`, each request
/// is first answered directly against the current snapshot, timed.
fn query_loop(
    pool: &QueryPool,
    handle: &SnapshotHandle,
    rng: &mut Rng,
    deadline: Instant,
    traced: bool,
    latency_ms: Vec<f64>,
) -> Queries {
    let stations = Arc::clone(&handle.current().stations);
    let mut queries = Queries {
        latency_ms,
        epochs_monotone: true,
        ..Queries::default()
    };
    let mut last_epoch = 0;
    let start = Instant::now();
    let mut i = 0usize;
    while Instant::now() < deadline {
        let station = &stations[rng.below(stations.len())];
        let kind = i % KINDS.len();
        let request = match kind {
            0 => Request::Station(station.id),
            1 => Request::Nearest {
                at: station.position,
                k: NEAREST_K,
            },
            2 => Request::Community(station.id),
            3 => Request::PageRank(station.id),
            _ => Request::Degrees {
                directed: (i / KINDS.len()).is_multiple_of(2),
            },
        };
        i += 1;
        let mut answer_took = None;
        if traced {
            let t = Instant::now();
            let direct = answer(&handle.current(), &request);
            answer_took = Some(t.elapsed());
            drop(direct);
        }
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let reply = pool.submit(request);
            let spin_until = Instant::now() + SPIN;
            while Instant::now() < spin_until {
                match reply.try_recv() {
                    Ok(answer) => return Some(answer),
                    Err(TryRecvError::Empty) => std::thread::yield_now(),
                    Err(TryRecvError::Disconnected) => return None,
                }
            }
            reply.recv().ok()
        }));
        let took = t.elapsed();
        queries.attempted += 1;
        let ok = match &result {
            // A query whose worker died.
            Err(_) | Ok(None) => false,
            Ok(Some(a)) => {
                queries.epochs_monotone &= a.epoch >= last_epoch;
                last_epoch = a.epoch;
                match &a.response {
                    Response::Station(s) => s.is_some(),
                    Response::Nearest(hits) => hits.len() == NEAREST_K.min(stations.len()),
                    Response::Community(c) => c.is_some(),
                    Response::PageRank(p) => p.is_some(),
                    Response::Degrees(d) => d.is_some(),
                }
            }
        };
        if !ok {
            queries.failed += 1;
            continue;
        }
        queries.latency_ms.push(ms(took));
        if let Some(answer_took) = answer_took {
            queries.answer_ms[kind].push(ms(answer_took));
            queries.wait_ms.push(ms(took) - ms(answer_took));
        }
    }
    queries.wall = start.elapsed();
    queries
}

/// Run the workload.
pub fn run(seed: u64, seconds: u64, report: &mut Report) {
    // The client's latency buffer is allocated and touched before set-up
    // ends, so peak memory does not grow with throughput. (Zeros would be
    // lazily mapped pages; any other value makes them resident.)
    let mut latency_ms = vec![1.0; seconds as usize * MAX_QUERIES_PER_S];
    latency_ms.clear();
    let (served, setup_s) = match repeated_setup(|| setup(seed)) {
        (Some(served), setup_s) => (served, setup_s),
        (None, _) => return report.attempt(false),
    };
    let Served {
        mut writer,
        handle,
        pool,
        replay,
    } = served;
    let traced = report.traced();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    // The traced run measures an untraced first half for its overhead.
    let halfway = start + Duration::from_secs(seconds) / 2;
    let mut rng = Rng::new(seed, 3);
    let (writes, untraced, queries) = std::thread::scope(|scope| {
        let writer_thread = scope.spawn(|| write_loop(&mut writer, &replay, seed, start, deadline));
        let untraced =
            traced.then(|| query_loop(&pool, &handle, &mut rng, halfway, false, Vec::new()));
        let queries = query_loop(&pool, &handle, &mut rng, deadline, traced, latency_ms);
        let writes = writer_thread.join().expect("writer thread panicked");
        (writes, untraced, queries)
    });
    drop(pool);

    report.add_attempts(writes.attempted, writes.failed);
    for q in untraced.iter().chain([&queries]) {
        report.add_attempts(q.attempted, q.failed);
        report.check(q.epochs_monotone, "answer epochs went backwards");
    }
    check_final_snapshot(&writer, &handle, writes.attempted - writes.failed, report);

    if let Some(untraced) = untraced {
        return set_traced(&untraced, &queries, &writes, report);
    }
    report.set("setup_s", setup_s);
    if let Some(v) = common::peak_rss_mb() {
        report.set("peak_rss_mb", v);
    }
    if let Some(v) = median(&queries.latency_ms) {
        report.set("op_p50_ms", v);
    }
    if let Some((_, v)) = tail(&queries.latency_ms) {
        report.set("op_tail_ms", v);
    }
    report.set(
        "ops_per_s",
        queries.latency_ms.len() as f64 / queries.wall.as_secs_f64(),
    );
    if let Some(v) = median(&writes.publish_ms) {
        report.set("write_p50_ms", v);
    }
    report.note_samples("QueryPool query (query_*)", &queries.latency_ms);
    report.note_samples(
        "SnapshotWriter::apply from due time (publish_p50_ms)",
        &writes.publish_ms,
    );
}

/// The last published snapshot must equal an offline rebuild of the
/// writer's trip table, at the epoch of the last accepted write.
fn check_final_snapshot(
    writer: &SnapshotWriter,
    handle: &SnapshotHandle,
    accepted: u64,
    report: &mut Report,
) {
    let snapshot = handle.current();
    let trips = &writer.network().trips;
    let rebuild = |directed| {
        build_dense_csr(
            directed,
            trips.station_ids().to_vec(),
            trips.src(),
            trips.dst(),
            trips.weights(),
            Some(1),
        )
    };
    report.check(
        snapshot.directed == rebuild(true)
            && snapshot.undirected == rebuild(false)
            && snapshot.trip_count == trips.len(),
        "served snapshot differs from an offline rebuild of the writer's table",
    );
    report.check(
        snapshot.epoch == accepted,
        format!(
            "served epoch {} after {accepted} accepted writes",
            snapshot.epoch
        ),
    );
}

fn set_traced(untraced: &Queries, traced: &Queries, writes: &Writes, report: &mut Report) {
    for (kind, values) in KINDS.iter().zip(&traced.answer_ms) {
        if let Some(v) = median(values) {
            let name = match *kind {
                "station" => "server.answer_station_us",
                "nearest" => "server.answer_nearest_us",
                "community" => "server.answer_community_us",
                "pagerank" => "server.answer_pagerank_us",
                _ => "server.answer_degrees_us",
            };
            report.set(name, v * 1e3);
        }
    }
    if let Some(v) = median(&traced.wait_ms) {
        report.set("server.queue_wait_p50_us", v * 1e3);
    }
    if let Some(v) = percentile(&traced.wait_ms, 0.99) {
        report.set("server.queue_wait_p99_us", v * 1e3);
    }
    if let Some(v) = median(&writes.late_ms) {
        report.set("server.write_late_ms", v);
    }
    report.set("server.writes", writes.publish_ms.len() as f64);
    report.set("server.queries", traced.latency_ms.len() as f64);
    if let (Some(u), Some(t)) = (mean(&untraced.latency_ms), mean(&traced.latency_ms)) {
        report.set("trace.untraced_ms", u);
        report.set("trace.stage_sum_ms", t);
        report.set("trace.overhead_ratio", t / u);
    }
}
