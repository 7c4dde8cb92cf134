//! The metric registry and the result line.
//!
//! `BENCHMARK.json` lists the same names and units; the package's tests
//! check that the two agree and that every run emits every metric.

/// End-to-end metrics, emitted by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("pass_serial_s", "s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics, emitted by every workload with tracing on. A layer
/// the workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.nproc", "count"),
    ("host.workers", "count"),
    ("host.ref_ms", "ms"),
    ("core.heralded_ms", "ms"),
    ("core.crosspol_ms", "ms"),
    ("core.multiphoton_ms", "ms"),
    ("core.purity_ms", "ms"),
    ("core.other_ms", "ms"),
    ("core.heralded.timetag_ms", "ms"),
    ("core.heralded.analysis_ms", "ms"),
    ("core.crosspol.timetag_ms", "ms"),
    ("core.crosspol.analysis_ms", "ms"),
    ("core.timebin.timetag_ms", "ms"),
    ("core.timebin.analysis_ms", "ms"),
    ("core.multiphoton.timetag_ms", "ms"),
    ("core.multiphoton.analysis_ms", "ms"),
    ("timetag.shots", "count"),
    ("timetag.coincidences", "count"),
    ("timetag.car_ms", "ms"),
    ("four_photon_s", "s"),
    ("four_photon_accel_s", "s"),
    ("qudit64_s", "s"),
    ("four_photon_fidelity", "ratio"),
    ("qudit64_fidelity", "ratio"),
    ("tomography.counts_ms", "ms"),
    ("tomography.mle_ms", "ms"),
    ("tomography.mle_iterations", "count"),
    ("tomography.mle_converged", "bool"),
    ("tomography.mle_final_update", "norm"),
    ("tomography.mle_ms_per_iter", "ms"),
    ("tomography.mle_accel_ms", "ms"),
    ("tomography.mle_accel_iterations", "count"),
    ("tomography.rank1_ms", "ms"),
    ("tomography.rank1_iterations", "count"),
    ("tomography.paper_mle_ms", "ms"),
    ("mathkit.mle_flops_per_iter", "flop"),
    ("mathkit.mle_bytes_per_iter", "byte"),
    ("mathkit.mle_gflop_per_s", "GFLOP/s"),
    ("mathkit.mle_gb_per_s", "GB/s"),
    ("mathkit.rank1_flops_per_iter", "flop"),
    ("mathkit.rank1_bytes_per_iter", "byte"),
    ("mathkit.rank1_gflop_per_s", "GFLOP/s"),
    ("mathkit.rank1_gb_per_s", "GB/s"),
    ("runtime.dispatches", "count"),
    ("runtime.dispatch_ms", "ms"),
    ("runtime.parallel_speedup", "ratio"),
    ("campaign_cold_s", "s"),
    ("campaign_resume_s", "s"),
    ("campaign.shards", "count"),
    ("campaign.plan_ms", "ms"),
    ("campaign.run_shard_ms", "ms"),
    ("campaign.merge_ms", "ms"),
    ("campaign.write_ms", "ms"),
    ("campaign.load_ms", "ms"),
    ("campaign.bytes_written", "byte"),
    ("campaign.bytes_read", "byte"),
    ("campaign.load_mb_per_s", "MB/s"),
    ("obs.trace_overhead_pct", "%"),
];

/// Named values in the order they were recorded; names may repeat
/// across samples and are reduced by [`median_of`].
pub type Samples = Vec<(&'static str, f64)>;

/// Median of `values` (the mean of the middle pair for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of every sample recorded under `name`.
pub fn median_of(samples: &[(&'static str, f64)], name: &str) -> f64 {
    let values: Vec<f64> = samples
        .iter()
        .filter(|(n, _)| *n == name)
        .map(|&(_, v)| v)
        .collect();
    median(&values)
}

/// The smallest sample recorded under `name`; 0 when there is none.
pub fn fastest_of(samples: &[(&'static str, f64)], name: &str) -> f64 {
    samples
        .iter()
        .filter(|(n, v)| *n == name && v.is_finite())
        .map(|&(_, v)| v)
        .reduce(f64::min)
        .unwrap_or(0.0)
}

/// Renders the result line: `correct`, `attempted`, `failed`, and each
/// registry metric with its unit. The last value recorded under a name
/// wins; an absent metric reads 0.
pub fn result_line(
    registry: &[(&str, &str)],
    values: &[(&'static str, f64)],
    attempted: u64,
    failed: u64,
) -> String {
    let metrics: Vec<String> = registry
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(", ")
    )
}

/// Runs `f` and returns its wall time in milliseconds with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = std::time::Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64() * 1e3, out)
}
