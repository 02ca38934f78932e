//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//!
//! `perfbench --digests <seed>...` prints the check-window digest of
//! every workload for each seed, in the format of `digests.txt`.

use nvsim_perfbench::stats::Outcome;
use nvsim_perfbench::{redis, serve, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::ExitCode;

/// Digests of the check windows, by workload and seed, as printed by
/// `perfbench --digests`.
const STORED_DIGESTS: &str = include_str!("../digests.txt");

const USAGE: &str = "usage: perfbench --workload <redis_sampled|serve_socket> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --digests <seed>...";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| *w == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(a: &Args) -> std::io::Result<Outcome> {
    Ok(match a.workload {
        "redis_sampled" => redis::run(a.seed, a.seconds, a.trace),
        _ => serve::run(a.seed, a.seconds, a.trace)?,
    })
}

/// The stored digest of `workload` at `seed`, if the table has one.
fn stored_digest(workload: &str, seed: u64) -> Option<u64> {
    STORED_DIGESTS.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next()? == workload && f.next()?.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(f.next()?, 16).ok())
            .flatten()
    })
}

/// The check-window digest of an untraced run of `workload` at `seed`,
/// with any failure of that run's own checks.
fn untraced_digest(workload: &str, seed: u64) -> std::io::Result<(u64, Vec<String>)> {
    Ok(match workload {
        "redis_sampled" => (redis::check_only(seed).0, Vec::new()),
        _ => {
            let out = serve::check_only(seed)?;
            let failures = out
                .notes
                .iter()
                .filter_map(|n| n.strip_prefix("FAILED: ").map(str::to_owned))
                .collect();
            (out.digest, failures)
        }
    })
}

/// Checks the run's digest against the stored table and, in a traced
/// run, against an untraced re-run of the check window in this process.
fn check_digest(a: &Args, out: &mut Outcome) {
    let hex = format!("{:016x}", out.digest);
    out.notes
        .push(format!("digest {} {} {hex}", a.workload, a.seed));
    if let Some(want) = stored_digest(a.workload, a.seed) {
        if want != out.digest {
            out.fail(format!("digest {hex} differs from the stored {want:016x}"));
        }
    }
    if a.trace {
        match untraced_digest(a.workload, a.seed) {
            Ok((want, failures)) => {
                for f in failures {
                    out.fail(format!("untraced re-run: {f}"));
                }
                if want != out.digest {
                    out.fail(format!(
                        "traced digest {hex} differs from the untraced {want:016x}"
                    ));
                }
            }
            Err(e) => out.fail(format!("untraced re-run: {e}")),
        }
    }
}

/// Orders the workload's metrics as `BENCHMARK.json` lists them, adds
/// zeros for per-layer metrics the workload does not exercise, and fails
/// the run on a missing end-to-end metric or an unlisted name.
fn complete_metrics(a: &Args, out: &mut Outcome) {
    let list: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let mut got = std::mem::take(&mut out.metrics);
    for &(name, unit) in list {
        match got.iter().position(|m| m.name == name) {
            Some(i) => {
                let m = got.remove(i);
                if m.unit != unit {
                    out.fail(format!("{name} reported in {} instead of {unit}", m.unit));
                }
                out.metric(name, m.value, unit);
            }
            None if a.trace => out.metric(name, 0.0, unit),
            None => {
                out.fail(format!("end-to-end metric {name} missing"));
                out.metric(name, 0.0, unit);
            }
        }
    }
    for m in got {
        out.fail(format!("metric {} is not listed", m.name));
    }
}

fn print_digests(seeds: &[String]) -> ExitCode {
    for s in seeds {
        let Ok(seed) = s.parse::<u64>() else {
            eprintln!("bad seed {s:?}\n{USAGE}");
            return ExitCode::from(2);
        };
        let serve = match serve::check_only(seed) {
            Ok(out) => out.digest,
            Err(e) => {
                eprintln!("serve_socket: {e}");
                return ExitCode::FAILURE;
            }
        };
        let digests = [
            ("redis_sampled", redis::check_only(seed).0),
            ("serve_socket", serve),
        ];
        for (w, d) in digests {
            println!("{w} {seed} {d:016x}");
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--digests") {
        return print_digests(&args[1..]);
    }
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = match run(&a) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{}: {e}", a.workload);
            return ExitCode::FAILURE;
        }
    };
    check_digest(&a, &mut out);
    complete_metrics(&a, &mut out);
    for n in &out.notes {
        println!("{n}");
    }
    println!("{}", out.json());
    ExitCode::SUCCESS
}
