//! Tests of the benchmark itself: its statistics, its metric names, and
//! the stability of its digests.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use nvsim_perfbench::stats::{self, tail_percentile, valid_metric_name, Outcome, TAIL_SAMPLES};
use nvsim_perfbench::{redis, serve, END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn tail_percentile_keeps_ten_rounds_beyond_it() {
    for n in [
        1usize, 9, 10, 19, 20, 39, 40, 99, 100, 199, 200, 499, 500, 999, 1000, 50_000,
    ] {
        let p = tail_percentile(n, 99.0);
        let rank = (p / 100.0 * n as f64).ceil() as usize;
        if p > 50.0 {
            assert!(
                n - rank >= TAIL_SAMPLES,
                "n={n}: p{p} leaves {} beyond",
                n - rank
            );
        }
        // The next step up the ladder would leave fewer than ten.
        let higher = [75.0, 90.0, 95.0, 99.0].into_iter().find(|&q| q > p);
        if let Some(q) = higher {
            let r = (q / 100.0 * n as f64).ceil() as usize;
            assert!(
                n - r.min(n) < TAIL_SAMPLES,
                "n={n}: p{q} would also qualify"
            );
        }
    }
    assert_eq!(tail_percentile(1000, 99.0), 99.0);
    assert_eq!(tail_percentile(999, 99.0), 95.0);
    assert_eq!(tail_percentile(200, 99.0), 95.0);
    assert_eq!(tail_percentile(199, 99.0), 90.0);
    assert_eq!(
        tail_percentile(100_000, 99.0),
        99.0,
        "the tail is capped at p99"
    );
}

#[test]
fn tail_percentile_respects_a_workload_cap() {
    assert_eq!(tail_percentile(100_000, 75.0), 75.0);
    assert_eq!(tail_percentile(1000, 90.0), 90.0);
    assert_eq!(tail_percentile(39, 75.0), 50.0, "too few rounds for p75");
    assert_eq!(tail_percentile(40, 75.0), 75.0);
}

#[test]
fn tail_metric_prints_its_percentile_and_round_count() {
    let rounds: stats::Rounds = (1..=250).map(f64::from).collect();
    let mut out = Outcome::default();
    out.round_metrics(&rounds, 99.0);
    let tail = out
        .metrics
        .iter()
        .find(|m| m.name == "round_p99_us")
        .unwrap();
    assert_eq!(tail.value, 238.0, "p95 of 1..=250 by nearest rank");
    let note = out
        .notes
        .iter()
        .find(|n| n.contains("round_p99_us"))
        .unwrap();
    assert!(note.contains("p95 of 250 rounds (12 beyond it)"), "{note}");
}

#[test]
fn host_probe_scales_to_its_reference_time() {
    let mut probe = stats::HostProbe::default();
    probe.sample();
    probe.sample();
    assert_eq!(probe.samples(), 2);
    let us = probe.median_us();
    assert!(us > 0.0 && us.is_finite(), "{us}");
    assert_eq!(probe.scale(), stats::PROBE_REF_US / us);
    let rounds: stats::Rounds = [1.0, 2.0, 3.0].into_iter().collect();
    assert_eq!(rounds.scaled(2.0).p50_us(), 4.0);
}

#[test]
fn metric_names_use_the_allowed_charset() {
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_metric_name(name), "{name}");
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit}"
        );
    }
    for bad in ["", "_lead", ".lead", "a b", "a/b", "é", &"x".repeat(65)] {
        assert!(!valid_metric_name(bad), "{bad:?}");
    }
    let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "names are unique"
    );
}

/// The `"name"` and `"unit"` values of one array of `BENCHMARK.json`.
fn json_entries(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start
        ..json[start..]
            .find(']')
            .map(|e| start + e)
            .expect("array closes")];
    let field = |s: &str, f: &str| -> Vec<String> {
        s.split(&format!("\"{f}\": \""))
            .skip(1)
            .map(|v| v[..v.find('"').expect("string closes")].to_owned())
            .collect()
    };
    let names = field(body, "name");
    let units = field(body, "unit");
    let units = if units.is_empty() {
        vec![String::new(); names.len()]
    } else {
        units
    };
    names.into_iter().zip(units).collect()
}

#[test]
fn benchmark_json_lists_what_the_binary_prints() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(json_entries(&json, "end_to_end"), own(&END_TO_END));
    assert_eq!(json_entries(&json, "per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = json_entries(&json, "workloads")
        .into_iter()
        .map(|e| e.0)
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn redis_digest_is_stable_across_runs_and_tracing() {
    let (a, acc) = redis::check_only(3);
    assert_eq!(a, redis::check_only(3).0, "two runs of one seed");
    assert_eq!(
        a,
        redis::run(3, 0.0, true).digest,
        "tracing must not change simulated outputs"
    );
    assert!(
        acc > 0.0,
        "the check windows replay on the reference machine"
    );
}

#[test]
fn serve_replies_match_the_oracle_and_repeat() {
    let a = serve::run(5, 0.0, false).expect("daemon runs");
    let b = serve::run(5, 0.0, true).expect("daemon runs");
    let c = serve::check_only(5).expect("daemon runs");
    for out in [&a, &b, &c] {
        assert_eq!(out.failed, 0, "{:?}", out.notes);
    }
    assert_eq!(a.digest, b.digest, "tracing must not change the replies");
    assert_eq!(a.digest, c.digest, "the check rounds alone give the digest");
}

#[test]
fn redis_traced_run_splits_host_time_by_vans_layer() {
    let out = redis::run(3, 0.0, true);
    assert_eq!(out.failed, 0, "{:?}", out.notes);
    let value = |name: &str| {
        out.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} reported"))
            .value
    };
    for name in [
        "vans.host_ns.ait_miss",
        "vans.sim_ns.media_read",
        "nvsim-media.host_ns.read_4k",
        "vans.buffer.host_ns.touch",
        "nvsim-cpu.host_ns_per_instr.detailed",
    ] {
        assert!(value(name) > 0.0, "{name} = {}", value(name));
    }
}
