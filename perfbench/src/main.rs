//! The repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload on inputs generated from the seed, checks every
//! output against an independent path of the program, and prints each
//! metric with its unit; the last line of standard output is one JSON
//! object. `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer metrics. See `README.md` in this directory.

mod inputs;
mod layer;
mod replay;
mod report;
mod serve;

use replay::ReplayShape;
use report::Report;
use serve::ServeShape;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Longest warm-up before the timed region, seconds.
const WARMUP_MAX_S: f64 = 5.0;

/// Runs `slice` — about half a second to a second of the workload's own
/// load, returning its rate — untimed, until two consecutive slices agree
/// within 3% or `WARMUP_MAX_S` has passed. A shared host that has sat
/// idle takes seconds to give the run its full speed, and the timed
/// region must not measure that ramp. Neither set-up nor measured.
pub fn warm_up(mut slice: impl FnMut() -> f64) {
    let t0 = std::time::Instant::now();
    let mut prev = slice();
    while t0.elapsed().as_secs_f64() < WARMUP_MAX_S {
        let rate = slice();
        if (rate - prev).abs() <= 0.03 * rate.max(prev) {
            break;
        }
        prev = rate;
    }
}

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["replay_gshare", "replay_tage", "serve_stream", "serve_park"];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Full-size shapes. Replay runs the whole suite at 1M branches per
/// benchmark; serve sessions are ~2,000 records in 500-record batches
/// over two closed-loop connections (one per core of the reference
/// host).
fn replay_shape(workload: &str) -> ReplayShape {
    match workload {
        "replay_gshare" => ReplayShape {
            grid: replay::gshare_grid(),
            len: 1_000_000,
            warm_len: 1_000_000,
            layer_records: 1_000_000,
        },
        _ => ReplayShape {
            grid: replay::tage_grid(),
            len: 1_000_000,
            warm_len: 100_000,
            layer_records: 200_000,
        },
    }
}

fn serve_shape(workload: &str) -> ServeShape {
    let park = workload == "serve_park";
    ServeShape {
        park,
        clients: 2,
        records: 2_000,
        batch: 500,
        distinct: 512,
        backlog: 1_000,
        windows: if park { 4 } else { 20 },
        traced_sessions: if park { 1_000 } else { 5_000 },
    }
}

pub fn run(args: &Args) -> Report {
    match args.workload.as_str() {
        "replay_gshare" | "replay_tage" => replay::run(args, &replay_shape(&args.workload)),
        _ => serve::run(args, &serve_shape(&args.workload)),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} (host cores: {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let (steal0, total0) = report::cpu_ticks();
    let report = run(&args);
    let (steal1, total1) = report::cpu_ticks();
    // Other tenants of a shared host show up here, not in the program.
    println!(
        "host CPU steal during the run: {:.1}%",
        100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
    );
    for m in &report.metrics {
        println!("{:<32} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.to_owned(),
            seed: 7,
            seconds: 0.2,
            trace,
        }
    }

    fn tiny_replay(workload: &str) -> ReplayShape {
        let mut shape = replay_shape(workload);
        shape.len = 20_000;
        shape.warm_len = 5_000;
        shape.layer_records = 5_000;
        shape
    }

    fn tiny_serve(workload: &str) -> ServeShape {
        ServeShape {
            backlog: 12,
            traced_sessions: 12,
            distinct: 6,
            ..serve_shape(workload)
        }
    }

    fn assert_clean(r: &Report, trace: bool) {
        assert!(r.ops.attempted > 0);
        assert_eq!(r.ops.failed, 0, "{r:?}");
        assert!(r.json().starts_with("{\"correct\": true"), "{}", r.json());
        if !trace {
            assert_eq!(r.get("ok_share"), Some(1.0));
        }
    }

    #[test]
    fn args_are_checked() {
        let ok = |s: &str| parse_args(&s.split(' ').map(str::to_owned).collect::<Vec<_>>());
        let a = ok("--workload serve_park --seed 3 --seconds 2 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 2.0, true));
        assert!(ok("--workload nope --seed 3").is_err());
        assert!(ok("--workload serve_park --seed x").is_err());
        assert!(ok("--workload serve_park --seed 3 --trace 2").is_err());
        assert!(ok("--workload serve_park --seed 3 --seconds 0").is_err());
        assert!(ok("--workload serve_park").is_err());
    }

    #[test]
    fn smoke_replay_workloads_pass_their_gate() {
        for w in ["replay_gshare", "replay_tage"] {
            for trace in [false, true] {
                let r = replay::run(&args(w, trace), &tiny_replay(w));
                assert_clean(&r, trace);
            }
        }
    }

    #[test]
    fn smoke_serve_workloads_pass_their_gate() {
        // One test for both: the flight recorder is process-wide.
        for w in ["serve_stream", "serve_park"] {
            for trace in [false, true] {
                let r = serve::run(&args(w, trace), &tiny_serve(w));
                assert_clean(&r, trace);
            }
        }
    }

    #[test]
    fn simulated_quality_repeats_at_one_seed() {
        let a = replay::run(&args("replay_gshare", true), &tiny_replay("replay_gshare"));
        let b = replay::run(&args("replay_gshare", true), &tiny_replay("replay_gshare"));
        for name in [
            "predictor.mispredicts",
            "core.low_confidence",
            "predictor.branches",
        ] {
            assert_eq!(a.get(name), b.get(name), "{name}");
            assert!(a.get(name).unwrap() > 0.0, "{name}");
        }
        let a = replay::run(&args("replay_gshare", false), &tiny_replay("replay_gshare"));
        let b = replay::run(&args("replay_gshare", false), &tiny_replay("replay_gshare"));
        assert_eq!(a.get("coverage_at_20pct"), b.get("coverage_at_20pct"));
    }

    #[test]
    fn every_benchmark_metric_is_reported() {
        let json = include_str!("../../BENCHMARK.json");
        let names = |key: &str| -> Vec<String> {
            let section = json.split(&format!("\"{key}\"")).nth(1).unwrap();
            let section = &section[..section.find(']').unwrap()];
            section
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').unwrap()].to_owned())
                .collect()
        };
        let e2e = replay::run(&args("replay_gshare", false), &tiny_replay("replay_gshare"));
        let layers = replay::run(&args("replay_gshare", true), &tiny_replay("replay_gshare"));
        let got = |r: &Report| r.metrics.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
        assert_eq!(names("end_to_end"), got(&e2e));
        assert_eq!(names("per_layer"), got(&layers));
        assert_eq!(names("workloads"), WORKLOADS);
    }
}
