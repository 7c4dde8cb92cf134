//! Allocation-flatness gate for the hot kernels.
//!
//! The hot kernels allocate their buffers outside the shot, grid-point
//! and projector loops, so a kernel's allocation count depends on the
//! problem's shape but not on how many shots, grid points or iterations
//! it runs. Each test runs one kernel on a single worker at size `N` and
//! again at `2N`, doubling only that parameter, and asserts
//!
//! ```text
//! allocs(2N) ≤ allocs(N) + allocs(N)/10 + 64
//! ```
//!
//! A reintroduced per-shot, per-point or per-pair allocation adds at
//! least `N` calls and breaks the bound; no committed numbers are needed.
//!
//! The counting allocator counts per thread, so tests running in
//! parallel on the harness's other threads do not leak into each other's
//! counts. `with_threads(1)` keeps every kernel on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::path::PathBuf;

use qfc::campaign::{run_campaign, CampaignOptions, TimeBinCampaign};
use qfc::core::heralded::{try_run_heralded_experiment, HeraldedConfig};
use qfc::core::source::QfcSource;
use qfc::core::timebin::{run_timebin_event_mc, TimeBinConfig};
use qfc::faults::FaultSchedule;
use qfc::mathkit::rng::rng_from_seed;
use qfc::photonics::opo;
use qfc::photonics::ring::Microring;
use qfc::photonics::sweep::{self, BatchBuffers, SweepGrid};
use qfc::photonics::waveguide::Polarization;
use qfc::quantum::bell::{bell_phi_plus, werner_state};
use qfc::quantum::fidelity::fidelity_with_pure;
use qfc::quantum::multiphoton::noisy_four_photon;
use qfc::runtime::with_threads;
use qfc::timetag::coincidence::cross_correlation_histogram;
use qfc::timetag::hbt::poissonian_stream;
use qfc::tomography::bootstrap::bootstrap_functional;
use qfc::tomography::counts::simulate_counts_seeded;
use qfc::tomography::rank1::{
    deterministic_bases, exact_counts_repr, synthetic_low_rank_state, try_mle_repr,
    ProjectorReprSet,
};
use qfc::tomography::reconstruct::{try_mle_reconstruction, MleAcceleration, MleOptions};
use qfc::tomography::settings::all_settings;
use qfc::tomography::stream::try_stream_counts_seeded;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread count of allocation calls
/// (`realloc` counts as one).
struct Counting;

fn count_one() {
    // `try_with` because the allocator also runs during thread teardown.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards the caller's layout and pointer unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the counter only
// observes calls and never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded with the caller's (non-zero-size) layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a pointer this allocator returned with
        // the same layout, which `System` allocated.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller guarantees `ptr`/`layout` came from this
        // allocator (hence from `System`) and `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls made on this thread while `f` runs on one worker.
fn allocs<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCS.with(Cell::get);
    black_box(with_threads(1, f));
    ALLOCS.with(Cell::get) - before
}

/// Runs `kernel(n)` then `kernel(2n)` and asserts the allocation count
/// stays flat within 10 % + 64 calls. The `N` run goes first so one-time
/// lazy initialisation lands on it, never on the `2N` run.
fn assert_flat<T>(name: &str, n: u64, kernel: impl Fn(u64) -> T) {
    let small = allocs(|| kernel(n));
    let large = allocs(|| kernel(2 * n));
    let budget = small + small / 10 + 64;
    assert!(
        large <= budget,
        "{name}: {large} allocations at 2N = {} exceed {budget} \
         ({small} at N = {n}, + 10 % + 64)",
        2 * n
    );
}

/// A fixed iteration budget with an unattainable tolerance, so the
/// RρR loop runs exactly `iterations` times.
fn fixed_iterations(iterations: u64, acceleration: MleAcceleration) -> MleOptions {
    MleOptions {
        max_iterations: usize::try_from(iterations).expect("small iteration count"),
        tolerance: 0.0,
        acceleration,
    }
}

#[test]
fn heralded_experiment() {
    let source = QfcSource::paper_device();
    assert_flat("heralded", 1, |k| {
        let mut cfg = HeraldedConfig::fast_demo();
        cfg.duration_s = 0.25 * k as f64;
        cfg.linewidth_pairs = 250 * k as usize;
        try_run_heralded_experiment(&source, &cfg, 7, &FaultSchedule::empty())
            .expect("clean run")
            .report
    });
}

#[test]
fn timebin_event_mc() {
    let source = QfcSource::paper_device_timebin();
    let phases = [0.0, 0.5 * std::f64::consts::PI, std::f64::consts::PI];
    assert_flat("timebin event MC", 20_000, |frames| {
        let mut cfg = TimeBinConfig::fast_demo();
        cfg.frames_per_point = frames;
        run_timebin_event_mc(&source, &cfg, 1, &phases, 11)
    });
}

#[test]
fn materialized_counts() {
    let rho = noisy_four_photon(0.0, 0.92, 0.05);
    let settings = all_settings(4);
    assert_flat("simulate_counts_seeded", 40, |shots| {
        simulate_counts_seeded(&rho, &settings, shots, 29)
    });
}

#[test]
fn streamed_counts() {
    let rho = noisy_four_photon(0.0, 0.92, 0.05);
    let settings = all_settings(4);
    assert_flat("try_stream_counts_seeded", 40, |shots| {
        try_stream_counts_seeded(&rho, &settings, shots, 29).expect("valid settings")
    });
}

/// The dense RρR reconstruction of §V four-photon counts (81 settings
/// of a d = 16 state) at `N` and `2N` iterations.
fn assert_dense_mle_flat(name: &str, acceleration: MleAcceleration) {
    let rho = noisy_four_photon(0.0, 0.92, 0.05);
    let data = simulate_counts_seeded(&rho, &all_settings(4), 40, 13);
    assert_flat(name, 10, |iterations| {
        let opts = fixed_iterations(iterations, acceleration);
        try_mle_reconstruction(&data, &opts).expect("reconstructs")
    });
}

#[test]
fn classic_mle() {
    assert_dense_mle_flat("classic MLE", MleAcceleration::Classic);
}

#[test]
fn accelerated_mle() {
    assert_dense_mle_flat("accelerated MLE", MleAcceleration::accelerated());
}

#[test]
fn bootstrap() {
    let truth = werner_state(0.83, 0.0);
    let settings = all_settings(2);
    let target = bell_phi_plus();
    let opts = fixed_iterations(10, MleAcceleration::Classic);
    assert_flat("bootstrap", 200, |shots| {
        let data = simulate_counts_seeded(&truth, &settings, shots, 17);
        bootstrap_functional(
            17,
            &data,
            4,
            |d| try_mle_reconstruction(d, &opts).expect("reconstructs").rho,
            |rho| fidelity_with_pure(rho, &target),
        )
    });
}

#[test]
fn campaign_cold_and_resume() {
    let source = QfcSource::paper_device_timebin();
    let schedule = FaultSchedule::empty();
    assert_flat("campaign cold + resume", 5_000, |frames| {
        let mut cfg = TimeBinConfig::fast_demo();
        cfg.frames_per_point = frames;
        cfg.phase_steps = 8;
        let workload = TimeBinCampaign {
            source: &source,
            config: &cfg,
            seed: 23,
            schedule: &schedule,
        };
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(format!("target/tmp/allocation-tests/campaign-{frames}"));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = CampaignOptions::new(dir);
        let cold = run_campaign(&workload, &opts).expect("cold campaign runs");
        let warm = run_campaign(&workload, &opts).expect("campaign resumes");
        assert_eq!(cold.report_json, warm.report_json, "resume changed bytes");
        warm.report_json
    });
}

#[test]
fn coincidence_histogram() {
    assert_flat("coincidence histogram", 1, |k| {
        let mut rng = rng_from_seed(19);
        let a = poissonian_stream(&mut rng, 200_000.0, 0.25 * k as f64);
        let b = poissonian_stream(&mut rng, 200_000.0, 0.25 * k as f64);
        cross_correlation_histogram(&a, &b, 100_000, 50)
    });
}

#[test]
fn ring_dispersion_sweep() {
    let ring = Microring::paper_device();
    let lw = ring.linewidth().hz();
    assert_flat("ring dispersion sweep", 64, |per_channel| {
        let mut buf = BatchBuffers::new();
        let mut acc = 0.0;
        for m in -40..=40 {
            let f0 = ring.resonance(Polarization::Te, m).hz();
            let grid = SweepGrid::linspace(f0 - 5.0 * lw, f0 + 5.0 * lw, per_channel as usize);
            sweep::ring_power_response_batch(&ring, Polarization::Te, m, &grid, &mut buf);
            acc += buf.values().iter().sum::<f64>();
        }
        acc
    });
}

#[test]
fn opo_threshold_sweep() {
    let ring = Microring::paper_device();
    let p_th = opo::threshold(&ring).w();
    assert_flat("OPO threshold sweep", 1024, |n| {
        let grid = SweepGrid::linspace(0.05 * p_th, 3.0 * p_th, n as usize);
        let mut buf = BatchBuffers::new();
        sweep::opo_transfer_batch(&ring, &grid, &mut buf);
        buf.values().iter().sum::<f64>()
    });
}

/// The rank-1 qudit reconstruction on a synthetic rank-`rank` state in
/// `n_bases` deterministic bases, at `N` and `2N` accelerated iterations.
/// The `R` sweep keeps its scratch in the kernel across `R` builds; the
/// parallel sweep (d = 64) still makes one allocation per build, the
/// runtime's table of chunk slots, which the 64-call slack absorbs. At
/// these budgets a per-pair allocation, or the four scratch buffers per
/// chunk per `R` build that the sweep once allocated, breaks the bound.
fn assert_rank1_mle_flat(dim: usize, rank: usize, n_bases: usize, iterations: u64) {
    let rho = synthetic_low_rank_state(dim, rank, 41).expect("qudit dims are supported");
    let bases = deterministic_bases(dim, n_bases, 77).expect("bases orthonormalize");
    let set = ProjectorReprSet::try_rank1_from_bases(&bases).expect("bases are unitary");
    let counts = exact_counts_repr(&rho, &set, 1_000_000).expect("state matches set");
    assert_flat(&format!("rank-1 MLE d = {dim}"), iterations, |n| {
        let opts = fixed_iterations(n, MleAcceleration::accelerated());
        try_mle_repr(&set, &counts, &opts).expect("qudit data reconstructs")
    });
}

#[test]
fn rank1_mle_d16() {
    assert_rank1_mle_flat(16, 3, 5, 20);
}

#[test]
fn rank1_mle_d64() {
    assert_rank1_mle_flat(64, 4, 4, 6);
}
