//! The repository benchmark: end-to-end and per-layer numbers for the
//! moby-expansion workspace, driven through the library's public API.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `paper_run`, `window_week`, `serve_mixed`, `city_build`.
//! Each run generates its inputs from `--seed`, measures for about
//! `--seconds`, checks every output, prints every metric by name and
//! unit, and ends with a one-line JSON result. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` replays the workload with spans around
//! each library call and reports the per-layer metrics instead.

mod city;
mod common;
mod paper;
mod report;
mod serve;
mod stats;
mod trace;
mod window;

use report::Report;

/// A workload's entry point: seed, seconds, and the report to fill.
type Run = fn(u64, u64, &mut Report);

/// The workloads and their entry points.
const WORKLOADS: [(&str, Run); 4] = [
    ("paper_run", paper::run),
    ("window_week", window::run),
    ("serve_mixed", serve::run),
    ("city_build", city::run),
];

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
            eprintln!(
                "error: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    // The library falls back to MOBY_* environment knobs wherever a
    // setting is left unset; clear them so a run depends on its arguments
    // alone. Nothing else runs yet, so no thread reads the environment.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MOBY_") {
            std::env::remove_var(key);
        }
    }
    let mut report = Report::new(&args.workload, args.seed, args.trace);
    let run = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map(|(_, run)| run)
        .expect("workload validated by parse_args");
    run(args.seed, args.seconds, &mut report);
    print!("{}", report.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        assert_eq!(
            parse("--workload city_build --seed 7 --seconds 10 --trace 1"),
            Ok(Args {
                workload: "city_build".into(),
                seed: 7,
                seconds: 10,
                trace: true,
            })
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse("--workload nope --seed 1 --seconds 1").is_err());
        assert!(parse("--workload paper_run --seconds 1").is_err());
        assert!(parse("--workload paper_run --seed x --seconds 1").is_err());
        assert!(parse("--workload paper_run --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload paper_run --seed 1 --seconds").is_err());
    }
}
