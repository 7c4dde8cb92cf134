//! `tomography`: high-statistics reconstruction. The §V four-photon
//! state (d = 16, 81 settings × 20 000 shots) is streamed into counts and
//! reconstructed by the drivers' default (classic) MLE and by the
//! accelerated MLE; a rank-4 qudit state at d = 64 is reconstructed on
//! the rank-1 projector path from exact counts in 16 bases.

use qfc::core::multiphoton::{
    plan_multiphoton_experiment, try_four_photon_state, MultiPhotonConfig,
};
use qfc::core::source::QfcSource;
use qfc::faults::FaultSchedule;
use qfc::mathkit::rng::split_seed;
use qfc::quantum::density::DensityMatrix;
use qfc::quantum::fidelity::state_fidelity;
use qfc::tomography::counts::{simulate_counts_seeded, TomographyData};
use qfc::tomography::rank1::{
    deterministic_bases, exact_counts_repr, synthetic_low_rank_state, try_mle_repr,
    ProjectorReprSet,
};
use qfc::tomography::reconstruct::{try_mle_reconstruction, MleAcceleration, MleOptions};
use qfc::tomography::settings::{all_settings, Setting};
use qfc::tomography::stream::try_stream_counts_seeded;

use crate::metrics::{timed, Samples};
use crate::{json, PassOutput, Workload};

/// Four-folds per setting: high statistics, far above the paper's 60.
const SHOTS_PER_SETTING: u64 = 20_000;
/// The qudit problem of the `qudit-mle-64` rows: d = 64, rank 4, 16 bases.
const QUDIT_DIM: usize = 64;
const QUDIT_RANK: usize = 4;
const QUDIT_BASES: usize = 16;
const QUDIT_SCALE: u64 = 1_000_000;
const QUDIT_ITERATIONS: usize = 120;
/// Fidelity floors against the state the counts came from. A change
/// that stops an estimator earlier must still clear them.
const FOUR_PHOTON_FIDELITY_FLOOR: f64 = 0.99;
const QUDIT64_FIDELITY_FLOOR: f64 = 0.85;

pub struct Tomography {
    seed: u64,
    state: DensityMatrix,
    settings: Vec<Setting>,
    qudit_truth: DensityMatrix,
    qudit_set: ProjectorReprSet,
    qudit_counts: Vec<Vec<u64>>,
}

fn accelerated(max_iterations: usize) -> MleOptions {
    MleOptions {
        max_iterations,
        acceleration: MleAcceleration::accelerated(),
        ..MleOptions::default()
    }
}

impl Tomography {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let source = QfcSource::paper_device_timebin();
        let config = MultiPhotonConfig::paper();
        let plan = plan_multiphoton_experiment(&source, &config, seed, &FaultSchedule::empty())
            .map_err(|e| e.to_string())?;
        let state = try_four_photon_state(&source, &config, &plan.tb4, plan.pump4)
            .map_err(|e| e.to_string())?;
        let truth = synthetic_low_rank_state(QUDIT_DIM, QUDIT_RANK, split_seed(seed, 1))
            .map_err(|e| e.to_string())?;
        let bases = deterministic_bases(QUDIT_DIM, QUDIT_BASES, split_seed(seed, 2))
            .map_err(|e| e.to_string())?;
        let qudit_set =
            ProjectorReprSet::try_rank1_from_bases(&bases).map_err(|e| e.to_string())?;
        let qudit_counts =
            exact_counts_repr(&truth, &qudit_set, QUDIT_SCALE).map_err(|e| e.to_string())?;
        Ok(Self {
            seed,
            state,
            settings: all_settings(4),
            qudit_truth: DensityMatrix::from_matrix(truth).ok_or("qudit state is not physical")?,
            qudit_set,
            qudit_counts,
        })
    }
}

fn check_fidelity(what: &str, fidelity: f64, floor: f64) -> Result<(), String> {
    if fidelity >= floor {
        Ok(())
    } else {
        Err(format!(
            "{what} fidelity {fidelity} below its floor {floor}"
        ))
    }
}

impl Workload for Tomography {
    fn pass(&mut self) -> Result<PassOutput, String> {
        let (counts_ms, data) = timed(|| {
            try_stream_counts_seeded(&self.state, &self.settings, SHOTS_PER_SETTING, self.seed)
        });
        let data = data.map_err(|e| e.to_string())?;
        let (mle_ms, classic) = timed(|| try_mle_reconstruction(&data, &MleOptions::default()));
        let classic = classic.map_err(|e| e.to_string())?;
        let (accel_ms, accel) = timed(|| {
            try_mle_reconstruction(&data, &accelerated(MleOptions::default().max_iterations))
        });
        let accel = accel.map_err(|e| e.to_string())?;
        let (rank1_ms, rank1) = timed(|| {
            try_mle_repr(
                &self.qudit_set,
                &self.qudit_counts,
                &accelerated(QUDIT_ITERATIONS),
            )
        });
        let rank1 = rank1.map_err(|e| e.to_string())?;

        let four_photon_fidelity = state_fidelity(&classic.rho, &self.state);
        let accel_fidelity = state_fidelity(&accel.rho, &self.state);
        let qudit64_fidelity = state_fidelity(&rank1.rho, &self.qudit_truth);
        check_fidelity(
            "four-photon classic",
            four_photon_fidelity,
            FOUR_PHOTON_FIDELITY_FLOOR,
        )?;
        check_fidelity(
            "four-photon accelerated",
            accel_fidelity,
            FOUR_PHOTON_FIDELITY_FLOOR,
        )?;
        check_fidelity("qudit64", qudit64_fidelity, QUDIT64_FIDELITY_FLOOR)?;

        let mut bytes = Vec::new();
        for result in [&classic, &accel, &rank1] {
            bytes.extend_from_slice(json(result)?.as_bytes());
            bytes.push(b'\n');
        }
        let iterations = classic.iterations as f64;
        let mut layers = vec![
            ("four_photon_s", (counts_ms + mle_ms) / 1e3),
            ("four_photon_accel_s", accel_ms / 1e3),
            ("qudit64_s", rank1_ms / 1e3),
            ("four_photon_fidelity", four_photon_fidelity),
            ("qudit64_fidelity", qudit64_fidelity),
            ("tomography.counts_ms", counts_ms),
            ("tomography.mle_ms", mle_ms),
            ("tomography.mle_iterations", iterations),
            (
                "tomography.mle_converged",
                if classic.converged { 1.0 } else { 0.0 },
            ),
            ("tomography.mle_final_update", classic.final_update),
            ("tomography.mle_ms_per_iter", mle_ms / iterations.max(1.0)),
            ("tomography.mle_accel_ms", accel_ms),
            ("tomography.mle_accel_iterations", accel.iterations as f64),
            ("tomography.rank1_ms", rank1_ms),
            ("tomography.rank1_iterations", rank1.iterations as f64),
        ];
        layers.extend(dense_mle_cost(&data, classic.iterations, mle_ms));
        layers.extend(rank1_mle_cost(
            &self.qudit_counts,
            rank1.iterations,
            rank1_ms,
        ));
        Ok(PassOutput { bytes, layers })
    }

    /// Streamed counts must equal the single-call materializing path,
    /// and the classic MLE on them must equal the pass's first result.
    fn stages(&mut self, reference: &[u8]) -> Result<Samples, String> {
        let (counts_ms, streamed) = timed(|| {
            try_stream_counts_seeded(&self.state, &self.settings, SHOTS_PER_SETTING, self.seed)
        });
        let streamed = streamed.map_err(|e| e.to_string())?;
        let single =
            simulate_counts_seeded(&self.state, &self.settings, SHOTS_PER_SETTING, self.seed);
        if streamed != single {
            return Err("streamed counts differ from the single-call counts".to_owned());
        }
        let (mle_ms, classic) = timed(|| try_mle_reconstruction(&streamed, &MleOptions::default()));
        let classic = json(&classic.map_err(|e| e.to_string())?)?;
        if reference.split(|&b| b == b'\n').next() != Some(classic.as_bytes()) {
            return Err("staged classic MLE differs from the pass's".to_owned());
        }
        Ok(vec![
            ("tomography.counts_ms", counts_ms),
            ("tomography.mle_ms", mle_ms),
        ])
    }
}

/// Bytes of one complex double.
const C64: f64 = 16.0;

/// Computed (not measured) work of one classic dense RρR iteration:
/// per measured outcome a `tr(ρΠ)` (8 flop per element) and an `R += wΠ`
/// (4 flop per element) over d² elements, then two d³ complex products.
/// Bytes count every operand read and written once, ignoring caches.
pub fn dense_mle_cost(data: &TomographyData, iterations: usize, mle_ms: f64) -> Samples {
    let pairs = data.counts.iter().flatten().filter(|&&c| c > 0).count() as f64;
    let d = data.counts.first().map_or(0, Vec::len) as f64;
    let d2 = d * d;
    let flops = pairs * 12.0 * d2 + 16.0 * d2 * d;
    // Π twice, ρ once, R read and written, per outcome; three operands
    // per product.
    let bytes = pairs * 5.0 * C64 * d2 + 2.0 * 3.0 * C64 * d2;
    let names = [
        "mathkit.mle_flops_per_iter",
        "mathkit.mle_bytes_per_iter",
        "mathkit.mle_gflop_per_s",
        "mathkit.mle_gb_per_s",
    ];
    rates(names, flops, bytes, iterations, mle_ms)
}

/// Computed work of one rank-1 RρR iteration: per outcome a Hermitian
/// quadratic form (7 flop per upper-triangle element) and a rank-1
/// upper-triangle update (5 flop per element), then two packed d³
/// products. The blocked kernels stream ρ and R once per four outcomes.
pub fn rank1_mle_cost(counts: &[Vec<u64>], iterations: usize, mle_ms: f64) -> Samples {
    let pairs = counts.iter().flatten().filter(|&&c| c > 0).count() as f64;
    let d = counts.first().map_or(0, Vec::len) as f64;
    let upper = d * (d + 1.0) / 2.0;
    let flops = pairs * 12.0 * upper + 16.0 * d * d * d;
    let bytes = pairs * (2.0 * C64 * d + 3.0 * C64 * upper / 4.0) + 2.0 * 3.0 * C64 * d * d;
    let names = [
        "mathkit.rank1_flops_per_iter",
        "mathkit.rank1_bytes_per_iter",
        "mathkit.rank1_gflop_per_s",
        "mathkit.rank1_gb_per_s",
    ];
    rates(names, flops, bytes, iterations, mle_ms)
}

/// Per-iteration work and the rates it implies over `iterations` in `ms`.
fn rates(names: [&'static str; 4], flops: f64, bytes: f64, iterations: usize, ms: f64) -> Samples {
    let per_s = if ms > 0.0 {
        iterations as f64 / (ms / 1e3)
    } else {
        0.0
    };
    vec![
        (names[0], flops),
        (names[1], bytes),
        (names[2], flops * per_s / 1e9),
        (names[3], bytes * per_s / 1e9),
    ]
}
