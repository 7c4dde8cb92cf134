//! Byte-identity gate for the zero-allocation kernel rework.
//!
//! The fixtures under `tests/golden/` were generated from the tree *before*
//! the shot kernels were converted to precomputed sampling tables and
//! in-place linear algebra (`cargo run --release --example golden_fixtures`
//! regenerates them, but they must never change). Each test re-runs one
//! workload through the reworked kernels and demands the serialized JSON
//! match the pre-rework output byte for byte — the strongest possible
//! statement that the optimizations are pure refactors of the arithmetic,
//! not statistical approximations of it.
//!
//! `mle_accelerated.json` and `qudit_mle_rank1_accelerated.json` pin the
//! accelerated RρR schedule on the dense and rank-1 kernels; they were
//! generated before the MLE iteration loops were merged into one driver.

use std::fs;
use std::path::PathBuf;

use qfc::core::heralded::{try_run_heralded_experiment, HeraldedConfig};
use qfc::core::multiphoton::{try_four_photon_tomography, MultiPhotonConfig};
use qfc::core::source::QfcSource;
use qfc::core::timebin::{run_timebin_event_mc, TimeBinConfig};
use qfc::faults::{FaultSchedule, HealthReport};
use qfc::obs::{Collector, SpanData};
use qfc::quantum::bell::{bell_phi_plus, werner_state};
use qfc::quantum::fidelity::fidelity_with_pure;
use qfc::tomography::bootstrap::bootstrap_functional;
use qfc::tomography::counts::simulate_counts_seeded;
use qfc::tomography::rank1::{
    deterministic_bases, exact_counts_repr, synthetic_low_rank_state, try_mle_repr,
    ProjectorReprSet,
};
use qfc::tomography::reconstruct::{try_mle_reconstruction, MleAcceleration, MleOptions};
use qfc::tomography::settings::all_settings;

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn assert_bytes_match(name: &str, fresh: &str) {
    let pinned = golden(name);
    if fresh != pinned {
        // Locate the first differing byte so a failure points at the
        // drifted field instead of dumping two multi-kB JSON blobs.
        let at = fresh
            .bytes()
            .zip(pinned.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| fresh.len().min(pinned.len()));
        let lo = at.saturating_sub(60);
        panic!(
            "{name}: reworked kernel output drifted from the pre-rework golden \
             at byte {at}\n  golden: …{}…\n  fresh:  …{}…",
            &pinned[lo..(at + 60).min(pinned.len())],
            &fresh[lo..(at + 60).min(fresh.len())],
        );
    }
}

#[test]
fn timebin_event_mc_matches_pre_rework_bytes() {
    let source = QfcSource::paper_device_timebin();
    let mut cfg = TimeBinConfig::fast_demo();
    cfg.frames_per_point = 200_000;
    let phases: Vec<f64> = (0..6).map(|k| 0.3 * f64::from(k)).collect();
    let scan = run_timebin_event_mc(&source, &cfg, 1, &phases, 11);
    assert_bytes_match(
        "timebin_event_mc.json",
        &serde_json::to_string(&scan).expect("json"),
    );
}

#[test]
fn tomography_counts_match_pre_rework_bytes() {
    let truth = werner_state(0.83, 0.0);
    let data = simulate_counts_seeded(&truth, &all_settings(2), 500, 17);
    assert_bytes_match(
        "tomography_counts.json",
        &serde_json::to_string(&data).expect("json"),
    );
}

#[test]
fn mle_reconstruction_matches_pre_rework_bytes() {
    let truth = werner_state(0.83, 0.0);
    let data = simulate_counts_seeded(&truth, &all_settings(2), 500, 17);
    let mle = try_mle_reconstruction(&data, &MleOptions::default()).expect("reconstruction");
    assert_bytes_match(
        "mle_reconstruction.json",
        &serde_json::to_string(&mle).expect("json"),
    );
}

#[test]
fn mle_accelerated_matches_pinned_bytes() {
    let truth = werner_state(0.83, 0.0);
    let data = simulate_counts_seeded(&truth, &all_settings(2), 500, 17);
    let opts = MleOptions {
        acceleration: MleAcceleration::accelerated(),
        ..MleOptions::default()
    };
    let mle = try_mle_reconstruction(&data, &opts).expect("reconstruction");
    assert!(mle.accelerated_steps > 0, "schedule never over-relaxed");
    assert_bytes_match(
        "mle_accelerated.json",
        &serde_json::to_string(&mle).expect("json"),
    );
}

#[test]
fn bootstrap_mle_matches_pre_rework_bytes() {
    let truth = werner_state(0.83, 0.0);
    let data = simulate_counts_seeded(&truth, &all_settings(2), 500, 17);
    let target = bell_phi_plus();
    let opts = MleOptions {
        max_iterations: 50,
        tolerance: 1e-8,
        ..MleOptions::default()
    };
    let boot = bootstrap_functional(
        23,
        &data,
        6,
        |d| {
            try_mle_reconstruction(d, &opts)
                .expect("reconstruction")
                .rho
        },
        |rho| fidelity_with_pure(rho, &target),
    );
    assert_bytes_match(
        "bootstrap_mle.json",
        &serde_json::to_string(&boot).expect("json"),
    );
}

/// The `qudit_mle_rank1.json` reconstruction: the rank-1 + packed-GEMM
/// fast path's own pinned baseline (it is a new path, deliberately not
/// byte-comparable to the classic dense fixture).
fn qudit_rank1_json() -> String {
    let truth = synthetic_low_rank_state(8, 2, 5).expect("synthetic state");
    let bases = deterministic_bases(8, 9, 21).expect("bases");
    let set = ProjectorReprSet::try_rank1_from_bases(&bases).expect("set");
    let counts = exact_counts_repr(&truth, &set, 200_000).expect("counts");
    let opts = MleOptions {
        max_iterations: 60,
        tolerance: 1e-9,
        ..MleOptions::default()
    };
    let mle = try_mle_repr(&set, &counts, &opts).expect("rank-1 MLE");
    serde_json::to_string(&mle).expect("json")
}

#[test]
fn qudit_rank1_mle_matches_pinned_bytes() {
    assert_bytes_match("qudit_mle_rank1.json", &qudit_rank1_json());
}

#[test]
fn qudit_rank1_mle_bytes_invariant_across_thread_counts() {
    // The parallel expectation sweep merges fixed-size chunks in
    // chunk-index order, so the reconstruction must replay the pinned
    // golden byte-for-byte at *any* worker count.
    for threads in [1usize, 4, 8] {
        let json = qfc::runtime::with_threads(threads, qudit_rank1_json);
        assert_bytes_match("qudit_mle_rank1.json", &json);
    }
}

/// Total entries into spans called `name` anywhere below `span`.
fn span_calls(span: &SpanData, name: &str) -> u64 {
    let own = if span.name == name { span.calls } else { 0 };
    let below: u64 = span.children.iter().map(|c| span_calls(c, name)).sum();
    own + below
}

/// The `qudit_mle_rank1_accelerated.json` reconstruction: the rank-1
/// path under the accelerated schedule, at d = 16 with 12 bases so the
/// chunked parallel R sweep runs (asserted below).
fn qudit_rank1_accelerated_json() -> String {
    let truth = synthetic_low_rank_state(16, 2, 9).expect("synthetic state");
    let bases = deterministic_bases(16, 12, 31).expect("bases");
    let set = ProjectorReprSet::try_rank1_from_bases(&bases).expect("set");
    let counts = exact_counts_repr(&truth, &set, 1_000_000).expect("counts");
    let opts = MleOptions {
        max_iterations: 80,
        tolerance: 1e-9,
        acceleration: MleAcceleration::accelerated(),
    };
    let collector = Collector::new();
    let mle = collector
        .install(|| try_mle_repr(&set, &counts, &opts))
        .expect("rank-1 MLE");
    // Below the sweep grain the R build runs as one serial chunk and
    // never enters the worker pool, so a dispatch proves the fixture
    // exercises the chunked parallel sweep.
    assert!(
        span_calls(&collector.snapshot().spans, "runtime.execute") > 0,
        "the rank-1 R sweep never dispatched: the fixture is below the parallel grain"
    );
    assert!(mle.accelerated_steps > 0, "schedule never over-relaxed");
    serde_json::to_string(&mle).expect("json")
}

#[test]
fn qudit_rank1_accelerated_mle_matches_pinned_bytes_at_1_4_8_threads() {
    for threads in [1usize, 4, 8] {
        let json = qfc::runtime::with_threads(threads, qudit_rank1_accelerated_json);
        assert_bytes_match("qudit_mle_rank1_accelerated.json", &json);
    }
}

#[test]
fn heralded_pipeline_matches_pre_rework_bytes() {
    let source = QfcSource::paper_device();
    let mut cfg = HeraldedConfig::fast_demo();
    cfg.duration_s = 1.0;
    cfg.channels = 2;
    let report = try_run_heralded_experiment(&source, &cfg, 7, &FaultSchedule::empty())
        .expect("clean run")
        .report;
    assert_bytes_match(
        "heralded.json",
        &serde_json::to_string(&report).expect("json"),
    );
}

#[test]
fn four_photon_tomography_matches_pre_rework_bytes() {
    let source = QfcSource::paper_device_timebin();
    let cfg = MultiPhotonConfig::fast_demo();
    let mut health = HealthReport::pristine();
    let four = try_four_photon_tomography(
        &source,
        &cfg,
        13,
        &cfg.timebin,
        cfg.four_fold_pump_factor,
        &mut health,
    )
    .expect("clean run");
    assert_bytes_match("four_photon.json", &serde_json::to_string(&four).expect("json"));
}
