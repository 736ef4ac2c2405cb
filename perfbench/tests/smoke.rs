//! Every workload at test sizes, untraced and traced.

use haec_perfbench::{run, Bench, Opts, Outcome, Scale};

fn smoke(bench: Bench, seed: u64, trace: bool) -> Outcome {
    run(&Opts {
        bench,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
    })
}

#[test]
fn runs_pass_and_repeat_byte_for_byte_once_measured_values_are_zeroed() {
    for bench in Bench::ALL {
        for trace in [false, true] {
            let a = smoke(bench, 1, trace);
            let b = smoke(bench, 1, trace);
            assert!(
                a.correct(),
                "{} (trace {trace}): {:?}",
                bench.name(),
                a.failures
            );
            assert_eq!(
                a.result_line(true),
                b.result_line(true),
                "{} (trace {trace})",
                bench.name()
            );
        }
    }
}

#[test]
fn another_seed_passes_every_check_and_changes_the_exact_metrics() {
    for bench in [Bench::SvcDeep, Bench::SvcVerify] {
        let a = smoke(bench, 1, false);
        let b = smoke(bench, 2, false);
        assert!(b.correct(), "{}: {:?}", bench.name(), b.failures);
        assert_ne!(
            a.result_line(true),
            b.result_line(true),
            "{}: the seed must reach the workload",
            bench.name()
        );
    }
    // Exhaustive search has no random input: every seed explores the same
    // schedules.
    let a = smoke(Bench::ExploreMvr4, 1, false);
    let b = smoke(Bench::ExploreMvr4, 2, false);
    assert!(b.correct(), "{:?}", b.failures);
    assert_eq!(a.result_line(true), b.result_line(true));
}

#[test]
fn every_metric_is_reported_once_with_a_unit() {
    for bench in Bench::ALL {
        for trace in [false, true] {
            let out = smoke(bench, 3, trace);
            let mut names: Vec<_> = out.metrics.iter().map(|m| m.name).collect();
            let n = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), n, "{}: duplicate metric", bench.name());
            assert!(out
                .metrics
                .iter()
                .all(|m| !m.unit.is_empty() && m.value.is_finite()));
        }
    }
}

#[test]
fn metrics_match_the_benchmark_manifest() {
    use haec_sim::obs::json::Json;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let manifest = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        let mut v: Vec<_> = manifest
            .get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
                (s("name").to_string(), s("unit").to_string())
            })
            .collect();
        v.sort();
        v
    };
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        for bench in Bench::ALL {
            let mut got: Vec<_> = smoke(bench, 1, trace)
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            got.sort();
            assert_eq!(got, listed(key), "{} (trace {trace})", bench.name());
        }
    }
}
