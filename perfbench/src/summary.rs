//! Metric catalogue, percentile rule and the one-line JSON result.
//!
//! Every metric the benchmark can print is declared here, once, with its
//! unit. `BENCHMARK.json` at the repository root declares the same names;
//! the tests below keep the two lists identical in both directions.

use std::collections::BTreeMap;

/// End-to-end metrics, printed on every workload with `--trace 0`.
/// `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("qps", "1/s"),
    ("ok_rate", "share"),
    ("write_mb_s", "MB/s"),
    ("stored_bytes_per_byte", "ratio"),
    ("peak_heap_mib", "MiB"),
];

/// Per-layer metrics, printed on every workload with `--trace 1`; a layer
/// a workload does not exercise reads 0. `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("query.samples", "count"),
    ("query.tail_percentile", "pct"),
    ("meta.cull_us", "us"),
    ("meta.leaves_per_query", "count"),
    ("dataset.file_open_ms", "ms"),
    ("plan.ms_per_query", "ms"),
    ("plan.shallow_nodes_per_query", "count"),
    ("plan.treelets_per_query", "count"),
    ("plan.pruned_share", "share"),
    ("plan.index_share", "share"),
    ("fetch.ms_per_query", "ms"),
    ("fetch.requests_per_query", "count"),
    ("fetch.mib_per_query", "MiB"),
    ("fetch.coalesced_share", "share"),
    ("fetch.prefetch_hit_ratio", "share"),
    ("fetch.retries", "count"),
    ("fetch.store_sim_ms_per_query", "ms"),
    ("store.gets_per_query", "count"),
    ("store.mib_per_query", "MiB"),
    ("cache.hit_ratio", "share"),
    ("cache.evictions_per_query", "count"),
    ("cache.rejected_per_query", "count"),
    ("cache.resident_mib", "MiB"),
    ("codec.decode_gbps", "GB/s"),
    ("codec.decoded_mib_per_query", "MiB"),
    ("codec.decode_share", "share"),
    ("codec.encode_mib_s", "MiB/s"),
    ("codec.stored_ratio", "ratio"),
    ("execute.ms_per_query", "ms"),
    ("execute.points_tested_per_query", "count"),
    ("execute.useful_ratio", "share"),
    ("execute.pages_per_query", "count"),
    ("bitmap.false_positive_rate", "share"),
    ("wire.encode_mib_s", "MiB/s"),
    ("wire.decode_mib_s", "MiB/s"),
    ("wire.chunks_per_query", "count"),
    ("stream.residual_ms_per_query", "ms"),
    ("serve.busy_retries", "count"),
    ("router.ms_p50", "ms"),
    ("router.ms_p99", "ms"),
    ("router.plan_ms_per_query", "ms"),
    ("front.residual_ms_per_query", "ms"),
    ("write.tree_build_ms", "ms"),
    ("write.scatter_ms", "ms"),
    ("write.transfer_ms", "ms"),
    ("write.layout_build_ms", "ms"),
    ("write.file_write_ms", "ms"),
    ("write.metadata_ms", "ms"),
    ("write.phase_sum_ratio", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.layer_sum_ratio", "ratio"),
];

/// A metric name is made of letters, digits, `_`, `.` and `-`, starts
/// with a letter or digit, and is at most 64 characters long.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// A tail percentile chosen by the sample-count rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, in `(0, 99]`, or 100 for the maximum.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile, at most p99, that leaves at least ten samples
/// strictly beyond it: with `n` sorted samples the value at index `k`
/// has `n - 1 - k` samples beyond it, so `k = n - 11` is the highest
/// admissible index. Percentile `p` reads index `ceil(p/100 · n) - 1`.
/// Fewer than eleven samples leave no percentile with ten beyond it, and
/// report their maximum ([`slowest`]).
pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of no samples");
    let n = values.len();
    if n < 11 {
        return slowest(values);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let p99_index = ((0.99 * n as f64).ceil() as usize).max(1) - 1;
    let k = p99_index.min(n.saturating_sub(11));
    Tail {
        percentile: if k == p99_index {
            99.0
        } else {
            100.0 * (k + 1) as f64 / n as f64
        },
        value: v[k],
        samples: n,
    }
}

/// The maximum, reported as percentile 100.
pub fn slowest(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of no samples");
    Tail {
        percentile: 100.0,
        value: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        samples: values.len(),
    }
}

/// The latency samples of a closed-loop phase of `wall` seconds, split
/// into `windows` equal time windows by completion time. `done_s[i]` is
/// when operation `i` completed, in seconds from the start of the phase,
/// and `latency_ms[i]` its latency.
fn split(done_s: &[f64], latency_ms: &[f64], wall: f64, windows: usize) -> Vec<Vec<f64>> {
    assert_eq!(done_s.len(), latency_ms.len());
    let mut out = vec![Vec::new(); windows];
    for (&d, &l) in done_s.iter().zip(latency_ms) {
        out[((d / wall * windows as f64) as usize).min(windows - 1)].push(l);
    }
    out
}

/// End-to-end figures of a closed-loop phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    pub p50_ms: f64,
    pub qps: f64,
    pub tail: Tail,
    /// Windows the tail is the median of.
    pub tail_windows: usize,
}

/// Median latency, throughput and tail of a closed-loop phase, each the
/// median over equal time windows of the phase, so a transient stall on
/// a shared host moves one window, not the result. The median and the
/// throughput use one window per 200 operations, the tail one per 1100
/// (enough for a true p99 in each), at most ten either way; with fewer
/// operations there is one window.
pub fn phase(done_s: &[f64], latency_ms: &[f64], wall: f64) -> Phase {
    assert!(!latency_ms.is_empty(), "no completed operations");
    let n = latency_ms.len();
    let windows = (n / 200).clamp(1, 10);
    let len = wall / windows as f64;
    let (mut p50s, mut rates) = (Vec::new(), Vec::new());
    for w in split(done_s, latency_ms, wall, windows) {
        if !w.is_empty() {
            p50s.push(median(&w));
        }
        rates.push(w.len() as f64 / len);
    }
    let tail_windows = (n / 1100).clamp(1, 10);
    let tails: Vec<Tail> = split(done_s, latency_ms, wall, tail_windows)
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| tail(w))
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let percentiles: Vec<f64> = tails.iter().map(|t| t.percentile).collect();
    Phase {
        p50_ms: median(&p50s),
        qps: median(&rates),
        tail: Tail {
            percentile: median(&percentiles),
            value: median(&values),
            samples: n,
        },
        tail_windows,
    }
}

impl Phase {
    /// The human-readable line printed before the JSON result.
    pub fn describe(&self, workload: &str, what: &str, wall: f64) -> String {
        format!(
            "{workload}: {} {what} in {wall:.2} s; query_p99_ms is p{:.2} of {} samples \
             (median over {} window(s))",
            self.tail.samples, self.tail.percentile, self.tail.samples, self.tail_windows
        )
    }
}

/// The result of one run: the outcome counts and a metric map.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    /// `--trace 1` reports [`PER_LAYER`], otherwise [`END_TO_END`].
    traced: bool,
}

impl Report {
    pub fn new(traced: bool) -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            traced,
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    /// The catalogue this report prints.
    pub fn catalogue(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Record a metric. Names outside the active catalogue are a bug in
    /// the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(valid_name(name), "malformed metric name {name}");
        assert!(
            self.catalogue().iter().any(|(n, _)| *n == name),
            "metric {name} is not in the {} catalogue",
            if self.traced {
                "per-layer"
            } else {
                "end-to-end"
            }
        );
        self.metrics.insert(name, value);
    }

    /// Mark the run incorrect, saying why on stderr.
    pub fn mismatch(&mut self, what: impl std::fmt::Display) {
        eprintln!("CHECK FAILED: {what}");
        self.correct = false;
    }

    /// Count a failed operation, saying why on stderr.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        eprintln!("operation failed: {what}");
        self.failed += 1;
    }

    /// The one-line JSON result. Every catalogue metric is printed: a
    /// per-layer metric the workload did not record reads 0, and an
    /// unrecorded end-to-end metric is a bug.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit)) in self.catalogue().iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if self.traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            // JSON has no NaN or infinity; a ratio over an empty base is 0.
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push_str("}}");
        out
    }
}

/// `a / b`, or 0 when the base is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_takes_p99_when_ten_samples_lie_beyond_it() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 1980.0);
        assert_eq!(t.samples, 2000);
        // 1980 has exactly twenty samples beyond it.
        assert!(v.iter().filter(|&&x| x > t.value).count() >= 10);
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);

        // At 1000 samples p99 is index 989, which leaves exactly ten
        // samples beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((t.value, t.percentile, t.samples), (5.0, 100.0, 3));
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&v), slowest(&v));
        // Eleven samples: the lowest value has ten beyond it.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&v).value, 1.0);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (0..500).map(|i| ((i * 7919) % 500) as f64).collect();
        let a = tail(&v);
        v.sort_by(f64::total_cmp);
        assert_eq!(a, tail(&v));
    }

    #[test]
    fn phase_medians_ignore_one_stalled_window() {
        // 30000 operations over 10 s at 1 ms each, except that the third
        // second stalls: its operations take 50 ms and a tenth complete.
        // 27300 operations make ten one-second windows for every figure.
        let (mut done, mut lat) = (Vec::new(), Vec::new());
        for i in 0..30_000 {
            let t = i as f64 / 3000.0;
            let stalled = (2.0..3.0).contains(&t);
            if stalled && i % 10 != 0 {
                continue;
            }
            done.push(t);
            lat.push(if stalled {
                50.0
            } else {
                1.0 + (i % 100) as f64 / 100.0
            });
        }
        let p = phase(&done, &lat, 10.0);
        assert_eq!(p.tail_windows, 10);
        assert!((p.p50_ms - 1.5).abs() < 0.011, "{p:?}");
        assert!((p.qps - 3000.0).abs() < 1e-9, "{p:?}");
        // Each clean window's p99 is 1.98 or 1.99; the stalled one's 50.
        assert!(p.tail.value < 2.0, "{p:?}");
        assert_eq!(p.tail.percentile, 99.0);
        assert_eq!(p.tail.samples, done.len());

        // Few operations: a single window, the plain figures.
        let p = phase(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], 4.0);
        assert_eq!((p.p50_ms, p.qps, p.tail.value), (5.0, 0.75, 6.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(*name), "duplicate metric name {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit}");
        }
        assert!(!valid_name("a b"));
        assert!(!valid_name(".x"));
        assert!(!valid_name(""));
    }

    #[test]
    fn json_prints_every_catalogue_metric() {
        let mut r = Report::new(true);
        r.attempted = 3;
        r.set("plan.ms_per_query", 0.25);
        let json = r.to_json();
        for (name, unit) in PER_LAYER {
            assert!(
                json.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} missing"
            );
            assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(json.contains("\"plan.ms_per_query\": {\"value\": 0.25,"));
    }

    /// The `name` fields of one top-level array of `BENCHMARK.json`.
    fn declared(json: &str, key: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let open = start + json[start..].find('[').expect("array");
        let close = open + json[open..].find(']').expect("array end");
        json[open..close]
            .split("\"name\"")
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find('"').expect("name value") + 1..];
                rest[..rest.find('"').expect("name end")].to_string()
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json_both_ways() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = declared(&json, key);
            let printed: Vec<String> = catalogue.iter().map(|(n, _)| n.to_string()).collect();
            for name in &printed {
                assert!(
                    declared.contains(name),
                    "{key}: {name} printed, not declared"
                );
            }
            for name in &declared {
                assert!(
                    printed.contains(name),
                    "{key}: {name} declared, not printed"
                );
            }
            for (name, unit) in catalogue {
                assert!(
                    json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                    "{key}: {name} is not declared with unit {unit}"
                );
            }
        }
        let workloads = declared(&json, "workloads");
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
