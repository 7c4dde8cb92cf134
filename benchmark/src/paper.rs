//! `paper`: every driver at its `::paper()` configuration — the run of
//! `examples/full_reproduction.rs` (§II heralded and stability, §III
//! crosspol and power sweep, §IV time-bin, §V multiphoton, purity, QKD).
//!
//! The paper-vs-measured rows are statistical: at an arbitrary seed a
//! row misses its expectation now and then (the F1 contrast, the
//! smallest of the 5 diagonal coincidence counts over the largest of the
//! 20 off-diagonal ones, reads below 5 at about one seed in twenty). `full_reproduction` claims the whole table
//! at [`PAPER_SEED`], so the table is checked there, once per run; at the
//! run's own seed a pass fails on a row that can pass at no seed (a NaN
//! measurement), and a statistical miss is reported on standard error.

use qfc::core::crosspol::{run_power_sweep, try_run_crosspol_experiment, CrossPolConfig};
use qfc::core::heralded::{
    run_stability_experiment, try_run_heralded_experiment, HeraldedConfig, StabilityConfig,
};
use qfc::core::multiphoton::{
    four_photon_tomography_from_data, plan_multiphoton_experiment, try_four_photon_state,
    try_four_photon_tomography, try_run_multiphoton_experiment, MultiPhotonConfig,
};
use qfc::core::purity::{run_purity_analysis, PurityConfig};
use qfc::core::qkd::qkd_from_timebin;
use qfc::core::report::ExperimentReport;
use qfc::core::source::QfcSource;
use qfc::core::timebin::{
    channel_state_model, coincidence_probability, try_run_timebin_experiment, TimeBinConfig,
};
use qfc::faults::{FaultSchedule, HealthReport};
use qfc::photonics::pump::PumpConfig;
use qfc::photonics::units::Power;
use qfc::tomography::settings::all_settings;
use qfc::tomography::stream::try_stream_counts_seeded;

use crate::metrics::{timed, Samples};
use crate::tomography::dense_mle_cost;
use crate::{json, PassOutput, Workload};

/// The seed of `examples/full_reproduction.rs`, at which the repository
/// claims that every row of the table passes.
pub const PAPER_SEED: u64 = 20_170_327;
/// Power-sweep points per branch, as in `full_reproduction`.
const SWEEP_POINTS: usize = 16;
/// Phase points averaged per channel for the QKD estimate.
const QKD_PHASES: u32 = 32;
/// Frame rate of the QKD estimate, Hz.
const QKD_FRAME_RATE_HZ: f64 = 10.0e6;

pub struct Paper {
    seed: u64,
    heralded_source: QfcSource,
    free_running_source: QfcSource,
    crosspol_source: QfcSource,
    timebin_source: QfcSource,
    heralded: HeraldedConfig,
    stability: StabilityConfig,
    crosspol: CrossPolConfig,
    timebin: TimeBinConfig,
    multiphoton: MultiPhotonConfig,
    purity: PurityConfig,
    schedule: FaultSchedule,
    /// The §V T4 result of the latest pass, for the stage check.
    t4_json: String,
    /// Whether the statistical misses at this seed have been reported.
    misses_reported: bool,
}

impl Paper {
    pub fn setup(seed: u64) -> Self {
        let heralded_source = QfcSource::paper_device();
        let free_running_source = heralded_source.clone().with_pump(PumpConfig::ExternalCw {
            power: Power::from_mw(15.0),
            actively_stabilized: false,
        });
        Self {
            seed,
            heralded_source,
            free_running_source,
            crosspol_source: QfcSource::paper_device_type2(),
            timebin_source: QfcSource::paper_device_timebin(),
            heralded: HeraldedConfig::paper(),
            stability: StabilityConfig::paper(),
            crosspol: CrossPolConfig::paper(),
            timebin: TimeBinConfig::paper(),
            multiphoton: MultiPhotonConfig::paper(),
            purity: PurityConfig::paper(),
            schedule: FaultSchedule::empty(),
            t4_json: String::new(),
            misses_reported: false,
        }
    }

    /// Mean per-frame coincidence probability of each §IV channel over
    /// the analyzer phase, the input of the QKD estimate.
    fn qkd_probabilities(&self) -> Vec<f64> {
        (1..=self.timebin.channels)
            .map(|m| {
                let model = channel_state_model(&self.timebin_source, &self.timebin, m);
                (0..QKD_PHASES)
                    .map(|k| {
                        let phi = 2.0 * std::f64::consts::PI * f64::from(k) / f64::from(QKD_PHASES);
                        coincidence_probability(&model, &self.timebin, phi, 0.0)
                    })
                    .sum::<f64>()
                    / f64::from(QKD_PHASES)
            })
            .collect()
    }

    /// Runs every driver once; returns the reports in table order and
    /// the driver times.
    fn reports(&mut self) -> Result<(Vec<ExperimentReport>, Samples), String> {
        let seed = self.seed;
        let schedule = &self.schedule;
        let mut layers: Samples = Vec::new();
        let mut other_ms = 0.0;
        let mut reports: Vec<ExperimentReport> = Vec::new();

        let (ms, heralded) = timed(|| {
            try_run_heralded_experiment(&self.heralded_source, &self.heralded, seed, schedule)
        });
        layers.push(("core.heralded_ms", ms));
        reports.push(heralded.map_err(|e| e.to_string())?.to_report());

        let (ms, stability) = timed(|| {
            [&self.heralded_source, &self.free_running_source]
                .map(|source| run_stability_experiment(source, &self.stability, seed))
        });
        other_ms += ms;
        reports.extend(stability.iter().map(|s| s.to_report()));

        let (ms, crosspol) = timed(|| {
            try_run_crosspol_experiment(&self.crosspol_source, &self.crosspol, seed, schedule)
        });
        layers.push(("core.crosspol_ms", ms));
        reports.push(crosspol.map_err(|e| e.to_string())?.to_report());

        let (ms, sweep) = timed(|| run_power_sweep(&self.crosspol_source, SWEEP_POINTS));
        other_ms += ms;
        reports.push(sweep.to_report());

        let (ms, timebin) = timed(|| {
            try_run_timebin_experiment(&self.timebin_source, &self.timebin, seed, schedule)
        });
        other_ms += ms;
        let timebin = timebin.map_err(|e| e.to_string())?;
        reports.push(timebin.to_report());

        let (ms, multi) = timed(|| {
            try_run_multiphoton_experiment(&self.timebin_source, &self.multiphoton, seed, schedule)
        });
        layers.push(("core.multiphoton_ms", ms));
        let multi = multi.map_err(|e| e.to_string())?;
        self.t4_json = json(&multi.report.tomography)?;
        reports.push(multi.to_report());

        let (ms, purity) = timed(|| run_purity_analysis(&self.timebin_source, &self.purity));
        layers.push(("core.purity_ms", ms));
        reports.push(purity.to_report());

        let (ms, qkd) = timed(|| {
            qkd_from_timebin(
                &timebin.report,
                QKD_FRAME_RATE_HZ,
                &self.qkd_probabilities(),
            )
        });
        other_ms += ms;
        reports.push(qkd.to_report());
        layers.push(("core.other_ms", other_ms));
        Ok((reports, layers))
    }
}

/// The rows of `reports` that miss their expectation, as
/// `"title": id quantity = measured (paper value)`. `Err` when a row
/// measured NaN: such a row passes at no seed.
pub fn table_misses(reports: &[ExperimentReport]) -> Result<Vec<String>, String> {
    let mut misses = Vec::new();
    for report in reports {
        for c in report.comparisons.iter().filter(|c| !c.passes()) {
            let row = format!(
                "\"{}\": {} {} = {} (paper {})",
                report.title, c.id, c.quantity, c.measured_value, c.paper_value
            );
            if c.measured_value.is_nan() {
                return Err(format!("{row} is NaN"));
            }
            misses.push(row);
        }
    }
    Ok(misses)
}

impl Workload for Paper {
    fn pass(&mut self) -> Result<PassOutput, String> {
        let (reports, layers) = self.reports()?;
        let misses = table_misses(&reports)?;
        if !misses.is_empty() && !self.misses_reported {
            self.misses_reported = true;
            eprintln!(
                "seed {}: statistical miss, not a failure: {}",
                self.seed,
                misses.join("; ")
            );
        }
        let mut bytes = Vec::new();
        for mut report in reports {
            // A trace collector stamps its manifest on reports; the
            // physics bytes must not depend on it.
            report.manifest = None;
            bytes.extend_from_slice(json(&report)?.as_bytes());
            bytes.push(b'\n');
        }
        Ok(PassOutput { bytes, layers })
    }

    /// Every row of the table passes at [`PAPER_SEED`].
    fn claims(&self) -> Option<Result<(), String>> {
        let check = Paper::setup(PAPER_SEED)
            .reports()
            .and_then(|(reports, _)| table_misses(&reports))
            .and_then(|misses| {
                if misses.is_empty() {
                    Ok(())
                } else {
                    Err(format!("at seed {PAPER_SEED}: {}", misses.join("; ")))
                }
            });
        Some(check)
    }

    /// The §V T4 stage: `try_four_photon_tomography` in one call, then
    /// its parts — state, streamed counts, reconstruction — one by one.
    /// Both must equal the T4 result of the whole pass.
    fn stages(&mut self, _reference: &[u8]) -> Result<Samples, String> {
        let config = &self.multiphoton;
        let plan =
            plan_multiphoton_experiment(&self.timebin_source, config, self.seed, &self.schedule)
                .map_err(|e| e.to_string())?;
        let t4_seed = self.seed.wrapping_add(2);
        let mut health = HealthReport::pristine();
        let whole = try_four_photon_tomography(
            &self.timebin_source,
            config,
            t4_seed,
            &plan.tb4,
            plan.pump4,
            &mut health,
        )
        .map_err(|e| e.to_string())?;

        let rho4 = try_four_photon_state(&self.timebin_source, config, &plan.tb4, plan.pump4)
            .map_err(|e| e.to_string())?;
        let settings = all_settings(4);
        let (counts_ms, data) = timed(|| {
            try_stream_counts_seeded(&rho4, &settings, config.four_shots_per_setting, t4_seed)
        });
        let data = data.map_err(|e| e.to_string())?;
        let mut health = HealthReport::pristine();
        let (mle_ms, parts) =
            timed(|| four_photon_tomography_from_data(config, &data, &mut health));
        let parts = parts.map_err(|e| e.to_string())?;

        let iterations = parts.iterations;
        let (whole, parts) = (json(&whole)?, json(&parts)?);
        if whole != parts || whole != self.t4_json {
            return Err("T4 stages do not reassemble the pass's four-photon tomography".to_owned());
        }
        let mut out = vec![
            ("tomography.counts_ms", counts_ms),
            ("tomography.paper_mle_ms", mle_ms),
        ];
        out.extend(dense_mle_cost(&data, iterations, mle_ms));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use qfc::core::report::{Comparison, Expectation};

    use super::*;

    fn report(measured: f64) -> ExperimentReport {
        let mut r = ExperimentReport::new("F1 table");
        r.push(Comparison::new(
            "F1",
            "contrast",
            5.0,
            6.0,
            "x",
            Expectation::AtLeast,
        ));
        r.push(Comparison::new(
            "F1",
            "contrast",
            5.0,
            measured,
            "x",
            Expectation::AtLeast,
        ));
        r
    }

    #[test]
    fn a_statistical_miss_is_listed_and_a_nan_row_is_an_error() {
        assert_eq!(table_misses(&[report(5.5)]), Ok(Vec::new()));
        assert_eq!(
            table_misses(&[report(4.5)]),
            Ok(vec!["\"F1 table\": F1 contrast = 4.5 (paper 5)".to_owned()])
        );
        assert!(table_misses(&[report(4.5), report(f64::NAN)]).is_err());
    }
}
