//! Inputs, configuration and small helpers shared by the workloads.

use moby_core::pipeline::PipelineConfig;
use moby_data::synth::SynthConfig;
use moby_data::trips::{TripBatch, TripTable, WindowStart};
use std::time::{Duration, Instant};

/// Worker threads passed explicitly to every library call that takes
/// them (the host the benchmark was sized on has two cores).
pub const THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Hour slots in the trip table's weekly key space (`day * 24 + hour`).
pub const WEEK_SLOTS: usize = 168;

/// SplitMix64: a tiny deterministic generator for the load schedule, so
/// the same seed always gives the same requests and batches.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The paper-scale synthetic dataset configuration with its seed
/// replaced.
pub fn paper_config(seed: u64) -> SynthConfig {
    SynthConfig {
        seed,
        ..SynthConfig::paper_scale()
    }
}

/// The pipeline configuration every workload runs: library defaults with
/// threads and shards set explicitly.
pub fn pipeline_config() -> PipelineConfig {
    let mut config = PipelineConfig::default();
    config.detect.threads = Some(THREADS);
    config.build_shards = Some(1);
    config
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `f` and return its result with its wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Run `pass` repeatedly, at least once, while another pass as long as
/// the last is expected to end within `seconds` of the start. Passes are
/// whole, so each pass weighs the same in the results however fast the
/// code under test runs.
pub fn whole_passes(seconds: u64, mut pass: impl FnMut()) {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    loop {
        let ((), took) = timed(&mut pass);
        if Instant::now() + took > deadline {
            break;
        }
    }
}

/// Run the workload's set-up [`SETUPS`] times, dropping all but the last
/// result before the next set-up starts, and return it with the median
/// set-up time in seconds. The peak resident set is reset afterwards, so
/// `peak_rss_mb` measures the workload's operations, not its set-up.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let (out, took) = timed(&mut setup);
        times.push(took.as_secs_f64());
        last = Some(out);
    }
    let median = crate::stats::median(&times).expect("SETUPS > 0");
    reset_peak_rss();
    (last.expect("SETUPS > 0"), median)
}

/// Return freed heap pages to the kernel, then reset this process's peak
/// resident set (`VmHWM`) to its current resident set, so a later
/// [`peak_rss_mb`] covers only what follows and only live data. Without
/// the proc filesystem the peak keeps covering the whole process.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes a byte count, only releases
        // pages of the allocator's own free chunks and may be called from
        // any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process in megabytes (`VmHWM`), if the
/// proc filesystem reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The window start at a linear weekly slot (`0..168`).
pub fn window_at(slot: usize) -> WindowStart {
    WindowStart::new((slot / 24) as u8, (slot % 24) as u8)
}

/// Replays rows of a trip table as ingest batches: each batch draws rows
/// uniformly from those whose weekly slot is at or after a given slot, so
/// the replayed rows outlive the window step that ingests them. Stations
/// come from the table, so every batch references known stations only.
#[derive(Debug)]
pub struct Replay {
    /// `(src, dst, day, hour, weight)` rows sorted by slot.
    rows: Vec<(u64, u64, u8, u8, f64)>,
    /// `first[s]` is the index of the first row with slot `>= s`.
    first: Vec<usize>,
}

impl Replay {
    /// Index the rows of `trips`.
    pub fn new(trips: &TripTable) -> Replay {
        let mut rows: Vec<(u64, u64, u8, u8, f64)> = (0..trips.len())
            .map(|k| {
                (
                    trips.station_id(trips.src()[k]),
                    trips.station_id(trips.dst()[k]),
                    trips.day()[k],
                    trips.hour()[k],
                    trips.weights()[k],
                )
            })
            .collect();
        rows.sort_by_key(|r| usize::from(r.2) * 24 + usize::from(r.3));
        let mut first = vec![rows.len(); WEEK_SLOTS + 1];
        for (k, r) in rows.iter().enumerate().rev() {
            first[usize::from(r.2) * 24 + usize::from(r.3)] = k;
        }
        for s in (0..WEEK_SLOTS).rev() {
            first[s] = first[s].min(first[s + 1]);
        }
        Replay { rows, first }
    }

    /// Rows in the indexed table.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// A batch of `size` rows drawn from slots `>= from_slot` (empty when
    /// no such row exists).
    pub fn batch(&self, from_slot: usize, size: usize, rng: &mut Rng) -> TripBatch {
        let pool = &self.rows[self.first[from_slot.min(WEEK_SLOTS)]..];
        let mut batch = TripBatch::with_capacity(size);
        if pool.is_empty() {
            return batch;
        }
        for _ in 0..size {
            let (src, dst, day, hour, weight) = pool[rng.below(pool.len())];
            batch.push_keyed(src, dst, day, hour, weight);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed_and_stream() {
        let draw = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 2), draw(1, 2));
        assert_ne!(draw(1, 2), draw(1, 3));
        assert_ne!(draw(1, 2), draw(2, 2));
    }

    #[test]
    fn replay_draws_only_from_live_slots() {
        let mut table = TripTable::new(vec![10, 20]);
        for (day, hour) in [(0u8, 0u8), (0, 5), (3, 1), (6, 23)] {
            table.push_keyed(0, 1, day, hour, 1.0);
        }
        let replay = Replay::new(&table);
        assert_eq!(replay.len(), 4);
        let mut rng = Rng::new(9, 0);
        let batch = replay.batch(3 * 24, 50, &mut rng);
        assert_eq!(batch.len(), 50);
        assert!(batch.iter().all(|(_, _, day, _, _)| day >= 3));
        assert!(replay.batch(WEEK_SLOTS, 5, &mut rng).is_empty());
        assert_eq!(replay.batch(0, 5, &mut rng).station_ids(), vec![10, 20]);
    }

    #[test]
    fn window_slots_map_to_day_and_hour() {
        assert_eq!(window_at(0).slot(), 0);
        assert_eq!(window_at(25).day(), 1);
        assert_eq!(window_at(25).hour(), 1);
        assert_eq!(window_at(167).slot(), 167);
    }
}
