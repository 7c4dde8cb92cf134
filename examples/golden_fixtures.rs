//! Regenerates the byte-identity golden fixtures under `tests/golden/`.
//!
//! The fixtures pin the exact JSON output of every shot-based kernel that
//! the zero-allocation rework touches (categorical sampling, MLE RρR,
//! bootstrap resampling, detector/timetag pipelines). They were generated
//! from the pre-rework tree and must never change: `tests/byte_identity.rs`
//! fails if any kernel drifts by a single byte.
//!
//! Run from the workspace root: `cargo run --release --example golden_fixtures`

use std::fs;
use std::path::Path;

use qfc::core::heralded::{try_run_heralded_experiment, HeraldedConfig};
use qfc::core::multiphoton::{try_four_photon_tomography, MultiPhotonConfig};
use qfc::core::source::QfcSource;
use qfc::core::timebin::{run_timebin_event_mc, TimeBinConfig};
use qfc::faults::{FaultSchedule, HealthReport};
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

fn write_fixture(dir: &Path, name: &str, json: &str) {
    let path = dir.join(name);
    fs::write(&path, json).expect("write fixture");
    println!("wrote {} ({} bytes)", path.display(), json.len());
}

fn main() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    fs::create_dir_all(&dir).expect("create tests/golden");
    let source = QfcSource::paper_device();

    // §IV event Monte Carlo: the 10-way categorical slot draw.
    let tb_source = QfcSource::paper_device_timebin();
    let mut tb = TimeBinConfig::fast_demo();
    tb.frames_per_point = 200_000;
    let phases: Vec<f64> = (0..6).map(|k| 0.3 * f64::from(k)).collect();
    let scan = run_timebin_event_mc(&tb_source, &tb, 1, &phases, 11);
    write_fixture(&dir, "timebin_event_mc.json", &serde_json::to_string(&scan).expect("json"));

    // §V two-qubit tomography counts: the per-setting categorical draw.
    let truth = werner_state(0.83, 0.0);
    let settings = all_settings(2);
    let data = simulate_counts_seeded(&truth, &settings, 500, 17);
    write_fixture(&dir, "tomography_counts.json", &serde_json::to_string(&data).expect("json"));

    // MLE RρR reconstruction of those counts.
    let mle = try_mle_reconstruction(&data, &MleOptions::default()).expect("reconstruction");
    write_fixture(&dir, "mle_reconstruction.json", &serde_json::to_string(&mle).expect("json"));

    // The same counts under the likelihood-gated accelerated schedule.
    let accel_opts = MleOptions {
        acceleration: MleAcceleration::accelerated(),
        ..MleOptions::default()
    };
    let mle_accel = try_mle_reconstruction(&data, &accel_opts).expect("reconstruction");
    write_fixture(&dir, "mle_accelerated.json", &serde_json::to_string(&mle_accel).expect("json"));

    // Rank-1 + packed-GEMM qudit MLE (the large-d fast path). This is a
    // *new* path pinning its *own* baseline — deterministic and bitwise
    // thread-invariant, but intentionally not byte-comparable to the
    // classic dense fixture above.
    let qudit_truth = synthetic_low_rank_state(8, 2, 5).expect("synthetic state");
    let qudit_bases = deterministic_bases(8, 9, 21).expect("bases");
    let qudit_set = ProjectorReprSet::try_rank1_from_bases(&qudit_bases).expect("set");
    let qudit_counts = exact_counts_repr(&qudit_truth, &qudit_set, 200_000).expect("counts");
    let qudit_opts = MleOptions {
        max_iterations: 60,
        tolerance: 1e-9,
        ..MleOptions::default()
    };
    let qudit = try_mle_repr(&qudit_set, &qudit_counts, &qudit_opts).expect("rank-1 MLE");
    write_fixture(&dir, "qudit_mle_rank1.json", &serde_json::to_string(&qudit).expect("json"));

    // Rank-1 accelerated schedule at d = 16 with 12 bases: large enough
    // (pairs·d² above the sweep's parallel threshold) to run the chunked
    // parallel R build.
    let accel_truth = synthetic_low_rank_state(16, 2, 9).expect("synthetic state");
    let accel_bases = deterministic_bases(16, 12, 31).expect("bases");
    let accel_set = ProjectorReprSet::try_rank1_from_bases(&accel_bases).expect("set");
    let accel_counts = exact_counts_repr(&accel_truth, &accel_set, 1_000_000).expect("counts");
    let accel_qudit_opts = MleOptions {
        max_iterations: 80,
        tolerance: 1e-9,
        acceleration: MleAcceleration::accelerated(),
    };
    let accel_qudit =
        try_mle_repr(&accel_set, &accel_counts, &accel_qudit_opts).expect("rank-1 MLE");
    write_fixture(
        &dir,
        "qudit_mle_rank1_accelerated.json",
        &serde_json::to_string(&accel_qudit).expect("json"),
    );

    // Bootstrap error bar over MLE re-reconstructions (resampling + MLE).
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
    write_fixture(&dir, "bootstrap_mle.json", &serde_json::to_string(&boot).expect("json"));

    // §II heralded pipeline: detector (efficiency/jitter/darks/dead-time),
    // coincidence counting, CAR, linewidth fit.
    let mut hc = HeraldedConfig::fast_demo();
    hc.duration_s = 1.0;
    hc.channels = 2;
    let heralded = try_run_heralded_experiment(&source, &hc, 7, &FaultSchedule::empty())
        .expect("clean run")
        .report;
    write_fixture(
        &dir,
        "heralded.json",
        &serde_json::to_string(&heralded).expect("json"),
    );

    // §V four-photon tomography: 81-setting counts + dim-16 MLE.
    let mp = MultiPhotonConfig::fast_demo();
    let mut health = HealthReport::pristine();
    let four = try_four_photon_tomography(
        &tb_source,
        &mp,
        13,
        &mp.timebin,
        mp.four_fold_pump_factor,
        &mut health,
    )
    .expect("clean run");
    write_fixture(&dir, "four_photon.json", &serde_json::to_string(&four).expect("json"));
}
