//! Density-matrix reconstruction: linear inversion and iterative
//! maximum-likelihood (RρR).
//!
//! Linear inversion is unbiased but can return unphysical (negative-
//! eigenvalue) matrices at finite counts; the paper-standard pipeline is
//! the iterative RρR maximum-likelihood algorithm, which stays in the
//! physical cone. `qfc_core::ablation::tomography_ablation` compares them.

use qfc_mathkit::cast;
use serde::{Deserialize, Serialize};

use qfc_faults::{QfcError, QfcResult};
use qfc_mathkit::cmatrix::CMatrix;
use qfc_mathkit::complex::Complex64;
use qfc_mathkit::hermitian::psd_projection;
use qfc_quantum::density::DensityMatrix;

use crate::counts::TomographyData;
use crate::settings::{pauli_string_matrix, PauliBasis, ProjectorEntry, ProjectorSet};

/// Reconstructs a Hermitian unit-trace matrix by Pauli-basis linear
/// inversion: `ρ = 2⁻ⁿ Σ_s ⟨σ_s⟩ σ_s`, with each Pauli-string expectation
/// averaged over every compatible measurement setting.
///
/// The result may have (slightly) negative eigenvalues at finite counts;
/// pair with [`try_project_physical`] when a valid state is required.
///
/// # Errors
///
/// [`QfcError::InsufficientData`] for informationally incomplete data
/// (including an empty or mixed-arity setting list, which the
/// Pauli-string compatibility zip below would otherwise silently
/// truncate).
pub fn try_linear_inversion(data: &TomographyData) -> QfcResult<CMatrix> {
    data.validate()?;
    let n = data.try_qubits()?;
    let dim = 1usize << n;
    let mut rho = CMatrix::zeros(dim, dim);
    // Enumerate all 4ⁿ Pauli strings as base-4 digits:
    // 0 = I, 1 = X, 2 = Y, 3 = Z per qubit.
    let strings = 4usize.pow(cast::usize_to_u32(n));
    for code in 0..strings {
        let digits: Vec<usize> = (0..n)
            .map(|q| (code / 4usize.pow(cast::usize_to_u32(n - 1 - q))) % 4)
            .collect();
        let string: Vec<Option<PauliBasis>> = digits
            .iter()
            .map(|&d| match d {
                0 => None,
                1 => Some(PauliBasis::X),
                2 => Some(PauliBasis::Y),
                _ => Some(PauliBasis::Z),
            })
            .collect();
        // Expectation from all compatible settings.
        let mut acc = 0.0;
        let mut n_compat = 0usize;
        let mask: usize = digits
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != 0)
            .map(|(q, _)| 1usize << (n - 1 - q))
            .sum();
        for (s_idx, setting) in data.settings.iter().enumerate() {
            let compatible = string.iter().zip(&setting.0).all(|(want, have)| {
                want.is_none_or(|w| w == *have)
            });
            if !compatible || data.setting_total(s_idx) == 0 {
                continue;
            }
            let mut exp = 0.0;
            for o in 0..setting.outcomes() {
                exp += data.frequency(s_idx, o) * setting.outcome_sign(o, mask);
            }
            acc += exp;
            n_compat += 1;
        }
        if n_compat == 0 {
            return Err(QfcError::InsufficientData {
                context: format!(
                    "no compatible setting for Pauli string {digits:?}; \
                     tomography data is informationally incomplete"
                ),
            });
        }
        let expectation = acc / cast::to_f64(n_compat);
        let sigma = pauli_string_matrix(&string);
        rho = &rho + &sigma.scale(expectation / cast::to_f64(dim));
    }
    Ok(rho)
}

/// Projects a Hermitian matrix onto the physical state space: clips
/// negative eigenvalues and renormalizes the trace to 1.
///
/// # Errors
///
/// Reports a vanishing projected trace (or a non-Hermitian input the
/// density-matrix constructor rejects).
pub fn try_project_physical(mat: &CMatrix) -> QfcResult<DensityMatrix> {
    let p = psd_projection(mat);
    let tr = p.trace().re;
    if tr.is_nan() || tr <= 1e-12 {
        return Err(QfcError::SingularSystem {
            context: "physical projection: projection annihilated the matrix".to_owned(),
        });
    }
    DensityMatrix::from_matrix(p.scale(1.0 / tr))
        .ok_or_else(|| QfcError::non_finite("physical projection"))
}

/// Iteration scheme for the RρR fixed-point search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum MleAcceleration {
    /// Plain RρR: `ρ ← RρR / tr(RρR)`. Bit-identical to the historical
    /// implementation; the golden fixtures replay this path.
    #[default]
    Classic,
    /// Over-relaxed RρR: `ρ ← AρA / tr(AρA)` with
    /// `A = (1−γ)·I + γ·R`. `A` is Hermitian, so the sandwich stays
    /// positive semidefinite for any real `γ`; `γ = 1` is exactly a
    /// classic step. The schedule is deterministic: `γ` grows by
    /// `growth` after every iteration (capped at `max_step`), and a
    /// log-likelihood gate rolls the iterate back and resets `γ` to 1
    /// whenever over-relaxation overshoots the likelihood ridge.
    Accelerated {
        /// Upper bound on the over-relaxation factor `γ`.
        max_step: f64,
        /// Multiplicative `γ` growth per iteration (> 1).
        growth: f64,
    },
}

impl MleAcceleration {
    /// The default accelerated schedule used by benches and ablations:
    /// `γ` grows 1.4× per iteration up to 8.
    pub fn accelerated() -> Self {
        Self::Accelerated {
            max_step: 8.0,
            growth: 1.4,
        }
    }
}

/// Options for the iterative MLE reconstruction.
///
/// Serialization is hand-written (the vendored derive has no field
/// attributes): `acceleration` is emitted only when it differs from
/// [`MleAcceleration::Classic`] and defaults to `Classic` when absent,
/// so pre-acceleration serialized options stay readable and classic
/// options serialize exactly as before.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MleOptions {
    /// Maximum RρR iterations.
    pub max_iterations: usize,
    /// Stop when the Frobenius norm of the update falls below this.
    pub tolerance: f64,
    /// Iteration scheme (defaults to [`MleAcceleration::Classic`], the
    /// golden-fixture path).
    pub acceleration: MleAcceleration,
}

impl Default for MleOptions {
    fn default() -> Self {
        Self {
            max_iterations: 300,
            tolerance: 1e-10,
            acceleration: MleAcceleration::Classic,
        }
    }
}

impl Serialize for MleOptions {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            (
                "max_iterations".to_string(),
                Serialize::to_value(&self.max_iterations),
            ),
            ("tolerance".to_string(), Serialize::to_value(&self.tolerance)),
        ];
        if self.acceleration != MleAcceleration::Classic {
            fields.push((
                "acceleration".to_string(),
                Serialize::to_value(&self.acceleration),
            ));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for MleOptions {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let acceleration = match v.get_field("acceleration") {
            Ok(a) => Deserialize::from_value(a)?,
            Err(_) => MleAcceleration::Classic,
        };
        Ok(Self {
            max_iterations: Deserialize::from_value(v.get_field("max_iterations")?)?,
            tolerance: Deserialize::from_value(v.get_field("tolerance")?)?,
            acceleration,
        })
    }
}

/// Result of an MLE reconstruction.
///
/// Serialization is hand-written: `accelerated_steps` is emitted only
/// when non-zero (and defaults to `0` when absent), so classic results
/// serialize byte-identically to the historical four-field format the
/// golden fixtures pin.
#[derive(Debug, Clone)]
pub struct MleResult {
    /// The reconstructed physical state.
    pub rho: DensityMatrix,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final update norm.
    pub final_update: f64,
    /// `true` when the final update met the tolerance within the
    /// iteration budget. `false` alone triggers nothing: the
    /// supervisor's `reconstruct_with_fallback` returns an unconverged
    /// result as it is, and swaps in linear inversion only when the fit
    /// errors or its final update is non-finite or at least
    /// `MLE_DIVERGENCE_UPDATE` (1e-4). Fallback results report `false`.
    pub converged: bool,
    /// Iterations that took an over-relaxed (`γ > 1`) step; always `0`
    /// on the classic path.
    pub accelerated_steps: usize,
}

impl Serialize for MleResult {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("rho".to_string(), Serialize::to_value(&self.rho)),
            ("iterations".to_string(), Serialize::to_value(&self.iterations)),
            (
                "final_update".to_string(),
                Serialize::to_value(&self.final_update),
            ),
            ("converged".to_string(), Serialize::to_value(&self.converged)),
        ];
        if self.accelerated_steps != 0 {
            fields.push((
                "accelerated_steps".to_string(),
                Serialize::to_value(&self.accelerated_steps),
            ));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for MleResult {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let accelerated_steps = match v.get_field("accelerated_steps") {
            Ok(a) => Deserialize::from_value(a)?,
            Err(_) => 0,
        };
        Ok(Self {
            rho: Deserialize::from_value(v.get_field("rho")?)?,
            iterations: Deserialize::from_value(v.get_field("iterations")?)?,
            final_update: Deserialize::from_value(v.get_field("final_update")?)?,
            converged: Deserialize::from_value(v.get_field("converged")?)?,
            accelerated_steps,
        })
    }
}

/// Iterative RρR maximum-likelihood reconstruction.
///
/// `ρ_{k+1} ∝ R ρ_k R` with `R = Σ_{s,o} (f_{s,o}/p_{s,o})·Π_{s,o}`,
/// starting from the maximally mixed state. For informationally complete
/// data this converges to the maximum-likelihood physical state.
///
/// Builds the outcome projectors for this call only; reconstructions
/// that share one setting list (bootstrap replicas, per-channel scans)
/// should build a [`ProjectorSet`] once and call
/// [`try_mle_reconstruction_with`].
///
/// # Errors
///
/// [`QfcError::InsufficientData`] for an empty or mixed-arity setting
/// list, [`QfcError::InvalidParameter`] for settings outside `1..=8`
/// qubits (see [`ProjectorSet::try_new`]), a malformed count table or a
/// bad accelerated schedule, [`QfcError::SingularSystem`] for all-dark
/// data (zero grand total) or a trace-annihilating update, and
/// [`QfcError::NonFinite`] when the iteration produces a non-finite
/// update norm.
pub fn try_mle_reconstruction(data: &TomographyData, options: &MleOptions) -> QfcResult<MleResult> {
    data.validate()?;
    try_mle_reconstruction_with(&ProjectorSet::try_new(&data.settings)?, data, options)
}

/// [`try_mle_reconstruction`] against a prebuilt projector cache.
///
/// Runs the shared RρR driver on the dense exact kernel, entirely in
/// scratch buffers: per iteration it performs no allocation, no
/// projector rebuild, and no full matrix product where only a trace is
/// needed. `tr(ρ·Π)` and `R += (f/p)·Π` visit only the projector's
/// exact-nonzero entries (see [`ProjectorSet`]); every term they skip
/// is a `±0` that the full-matrix loops add to a `+0`-started
/// accumulator, which changes no bit. Kept in the full formulation's
/// order (`tr(ρ·Π)` summed column by column, `R` accumulated in
/// `(s, o)` order over `f > 0` outcomes, `RρR` as two products), the
/// results are bit-identical to the historical dense implementation.
///
/// # Errors
///
/// * [`QfcError::InsufficientData`] — empty or mixed-arity setting list;
/// * [`QfcError::InvalidParameter`] — projector cache built from a
///   different setting list or dimension, malformed count table, or an
///   accelerated schedule with `max_step < 1` or `growth < 1`;
/// * [`QfcError::SingularSystem`] — zero total events, or an iteration
///   whose `RρR` update annihilated the trace;
/// * [`QfcError::NonFinite`] — the update norm left the finite range.
pub fn try_mle_reconstruction_with(
    projectors: &ProjectorSet,
    data: &TomographyData,
    options: &MleOptions,
) -> QfcResult<MleResult> {
    data.validate()?;
    let n = data.try_qubits()?;
    let dim = 1usize << n;
    if projectors.settings() != data.settings.len() {
        return Err(QfcError::invalid(format!(
            "projector cache does not match the data's settings \
             ({} cached, {} in data)",
            projectors.settings(),
            data.settings.len()
        )));
    }
    if projectors.dim() != dim {
        return Err(QfcError::invalid(format!(
            "projector cache dimension mismatch ({} cached, {dim} in data)",
            projectors.dim()
        )));
    }
    let projector = |s, o| projectors.entries(s, o);
    run_rrr(&mut DenseExact, &data.counts, projector, dim, options)
}

/// Probability floor: expectations are clamped to this before dividing,
/// so empty-outcome projectors cannot blow up `R`.
pub(crate) const P_FLOOR: f64 = 1e-12;

/// The per-iteration arithmetic of [`run_rrr`] for one projector
/// representation `P`: how `R` is built and how `RρR` is formed.
pub(crate) trait RrrKernel<P> {
    /// Prefix naming the path in error contexts (`""` or `"rank-1 "`).
    const LABEL: &'static str;
    /// qfc-obs counter for the iterations performed.
    const ITERATIONS_COUNTER: &'static str;
    /// qfc-obs counter for the over-relaxed steps (accelerated only).
    const ACCELERATED_COUNTER: &'static str;

    /// Writes `R = Σ (f/p)·Π` at `rho` into `r`. Returns the
    /// log-likelihood `Σ f·ln p` when `with_ll` is set; otherwise the
    /// return value is unspecified.
    fn build_r(&mut self, pairs: &[(P, f64)], rho: &CMatrix, r: &mut CMatrix, with_ll: bool)
        -> f64;

    /// Writes the unnormalized sandwich `r·rho·r` into `out`, using
    /// `r_rho` as scratch.
    fn sandwich(&mut self, r: &CMatrix, rho: &CMatrix, r_rho: &mut CMatrix, out: &mut CMatrix);
}

/// Dense exact kernel over exact-nonzero projector entries: the serial
/// `tr(ρ·Π)` / scaled-add `R` build and two `matmul_into` products —
/// the arithmetic `tests/golden/` pins.
struct DenseExact;

impl<'a> RrrKernel<&'a [ProjectorEntry]> for DenseExact {
    const LABEL: &'static str = "";
    const ITERATIONS_COUNTER: &'static str = "mle_iterations";
    const ACCELERATED_COUNTER: &'static str = "mle_accelerated_steps";

    /// Per pair, `Re tr(ρ·Π)` is summed as [`CMatrix::trace_of_product`]
    /// sums it — one partial per column `i` of `Π` over rows `k`, the
    /// partials added in column order — restricted to the stored
    /// entries. Only the real part is formed: complex addition is
    /// component-wise, so it has the bits of the full product's real
    /// part. `R` then takes `(f/p)·Π[k, i]` at every stored entry, as
    /// [`CMatrix::add_scaled_assign`] would.
    fn build_r(
        &mut self,
        pairs: &[(&'a [ProjectorEntry], f64)],
        rho: &CMatrix,
        r: &mut CMatrix,
        with_ll: bool,
    ) -> f64 {
        let dim = rho.rows();
        let rho = rho.as_slice();
        r.fill_zero();
        let r = r.as_mut_slice();
        let mut ll = 0.0;
        // qfc-lint: hot
        for &(entries, f) in pairs {
            let mut tr = 0.0;
            let mut column = 0.0;
            let mut column_end = 0;
            for e in entries {
                let at = cast::u32_to_usize(e.rho);
                if at >= column_end {
                    tr += column;
                    column = 0.0;
                    column_end = (at / dim + 1) * dim;
                }
                let x = rho[at];
                column += x.re * e.value.re - x.im * e.value.im;
            }
            tr += column;
            let p = tr.max(P_FLOOR);
            if with_ll {
                ll += f * p.ln();
            }
            let w = f / p;
            for e in entries {
                r[cast::u32_to_usize(e.r)] += e.value.scale(w);
            }
        }
        ll
    }

    fn sandwich(&mut self, r: &CMatrix, rho: &CMatrix, r_rho: &mut CMatrix, out: &mut CMatrix) {
        r.matmul_into(rho, r_rho);
        r_rho.matmul_into(r, out);
    }
}

/// The RρR schedule driver behind every MLE entry point.
///
/// Gathers the `(projector, frequency)` pairs in `(s, o)` order over
/// `f > 0` outcomes (frequencies are per-setting), runs the classic or
/// the likelihood-gated accelerated schedule on `kernel`'s arithmetic,
/// and finishes with the symmetrize → [`try_project_physical`] cleanup.
/// The caller has validated `counts` against `projector`'s shape.
pub(crate) fn run_rrr<P: Copy, K: RrrKernel<P>>(
    kernel: &mut K,
    counts: &[Vec<u64>],
    projector: impl Fn(usize, usize) -> P,
    dim: usize,
    options: &MleOptions,
) -> QfcResult<MleResult> {
    let mut pairs = Vec::new();
    for (s, row) in counts.iter().enumerate() {
        let total: u64 = row.iter().sum();
        for (o, &c) in row.iter().enumerate() {
            if c > 0 {
                pairs.push((projector(s, o), cast::to_f64(c) / cast::to_f64(total)));
            }
        }
    }
    if pairs.is_empty() {
        return Err(QfcError::SingularSystem {
            context: format!("{}MLE reconstruction: zero total events (all-dark data)", K::LABEL),
        });
    }
    // The classic schedule is the accelerated one with `γ` pinned at 1
    // and the likelihood gate (and its `ln` per pair) switched off.
    let accelerated = options.acceleration != MleAcceleration::Classic;
    let (max_step, growth) = match options.acceleration {
        MleAcceleration::Classic => (1.0, 1.0),
        MleAcceleration::Accelerated { max_step, growth } => {
            if !(max_step >= 1.0 && max_step.is_finite() && growth >= 1.0 && growth.is_finite()) {
                return Err(QfcError::invalid(format!(
                    "accelerated MLE schedule needs finite max_step ≥ 1 and \
                     growth ≥ 1 (got max_step = {max_step}, growth = {growth})"
                )));
            }
            (max_step, growth)
        }
    };
    let accel_label = if accelerated { "accelerated " } else { "" };
    // `R` sums one ≈identity resolution per measured setting, so its
    // fixed-point value is `fsum·I`, not `I`; the identity mix is applied
    // to `R/fsum` so that `γ` measures the over-relaxation relative to a
    // unit classic step. The normalization cancels in `tr(AρA)` at
    // `γ = 1`, which is why `R` stays unscaled there.
    let fsum: f64 = pairs.iter().map(|&(_, f)| f).sum();
    let mut rho = CMatrix::identity(dim).scale(1.0 / cast::to_f64(dim));
    // `prev` holds the iterate the current one was produced from, so an
    // overshoot can be rolled back for the price of one extra R build.
    let mut prev = rho.clone();
    let mut gamma = 1.0f64;
    let mut ll_prev = f64::NEG_INFINITY;
    let mut update_prev = f64::INFINITY;

    let mut r = CMatrix::zeros(dim, dim);
    let mut r_rho = CMatrix::zeros(dim, dim);
    let mut next = CMatrix::zeros(dim, dim);
    let mut iterations = 0;
    let mut final_update = f64::INFINITY;
    let mut accelerated_steps = 0usize;
    // qfc-lint: hot
    for _ in 0..options.max_iterations {
        iterations += 1;
        let mut ll = kernel.build_r(&pairs, &rho, &mut r, accelerated);
        if accelerated {
            if ll + 1e-12 * ll.abs().max(1.0) < ll_prev {
                // The over-relaxed step lost likelihood: restore the
                // parent iterate, fall back to a classic step, and
                // rebuild R there.
                std::mem::swap(&mut rho, &mut prev);
                gamma = 1.0;
                ll = kernel.build_r(&pairs, &rho, &mut r, true);
            }
            ll_prev = ll;
            prev.copy_from(&rho);
        }
        if gamma > 1.0 {
            accelerated_steps += 1;
            r.scale_in_place(1.0 / fsum);
            r.lerp_identity_in_place(gamma);
        }
        kernel.sandwich(&r, &rho, &mut r_rho, &mut next);
        let tr = next.trace().re;
        if !(tr.is_finite() && tr > 0.0) {
            return Err(QfcError::SingularSystem {
                context: format!(
                    "{}{accel_label}RρR update annihilated the trace (tr = {tr}) \
                     at iteration {iterations}",
                    K::LABEL
                ),
            });
        }
        next.scale_in_place(1.0 / tr);
        final_update = next.frobenius_distance(&rho);
        if !final_update.is_finite() {
            return Err(QfcError::non_finite(format!(
                "{}{accel_label}RρR update norm",
                K::LABEL
            )));
        }
        std::mem::swap(&mut rho, &mut next);
        // An over-relaxed step is ~γ× a classic step, so the raw update
        // norm says nothing about progress across different γ;
        // `update/γ` is the classic-equivalent residual. Near the
        // likelihood ridge the iterate can oscillate with a stalled
        // residual while the likelihood is flat at FP resolution —
        // dropping back to a classic step there restores the monotone
        // tail. Once the residual clears the tolerance, the next step is
        // forced classic as well, so the update that terminates the loop
        // is a genuine (unamplified) one.
        let residual = final_update / gamma;
        if residual > update_prev || residual < options.tolerance {
            gamma = 1.0;
        } else {
            gamma = (gamma * growth).min(max_step);
        }
        update_prev = residual;
        if final_update < options.tolerance {
            break;
        }
    }
    if accelerated {
        qfc_obs::counter_add(K::ACCELERATED_COUNTER, cast::usize_to_u64(accelerated_steps));
    }
    qfc_obs::counter_add(K::ITERATIONS_COUNTER, cast::usize_to_u64(iterations));
    // Numerical cleanup: symmetrize and clip round-off negativity.
    let herm = CMatrix::from_fn(dim, dim, |i, j| {
        (rho[(i, j)] + rho[(j, i)].conj()).scale(0.5)
    });
    let rho = try_project_physical(&herm)?;
    Ok(MleResult {
        rho,
        iterations,
        converged: final_update < options.tolerance,
        final_update,
        accelerated_steps,
    })
}

/// Convenience: full pipeline from data to a physical state via linear
/// inversion + projection (the fast path).
///
/// # Errors
///
/// As [`try_linear_inversion`] and [`try_project_physical`].
pub fn try_linear_reconstruction(data: &TomographyData) -> QfcResult<DensityMatrix> {
    try_project_physical(&try_linear_inversion(data)?)
}

/// Convenience accessor for matrix elements of a reconstruction in
/// reports.
pub fn element(rho: &DensityMatrix, i: usize, j: usize) -> Complex64 {
    rho.as_matrix()[(i, j)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::{exact_counts, simulate_counts};
    use crate::settings::all_settings;
    use qfc_mathkit::rng::rng_from_seed;
    use qfc_quantum::bell::{bell_phi_plus, werner_state};
    use qfc_quantum::fidelity::state_fidelity;
    use qfc_quantum::state::PureState;

    /// `R` and the log-likelihood of the exact-nonzero kernel against
    /// the full-matrix `trace_of_product` / `add_scaled_assign` oracle,
    /// bit for bit, over every four-qubit outcome projector.
    fn assert_build_r_matches_dense_oracle(rho: &CMatrix) {
        let settings = all_settings(4);
        let set = ProjectorSet::try_new(&settings).expect("uniform settings");
        let mut dense = Vec::new();
        let mut compressed = Vec::new();
        for (s, setting) in settings.iter().enumerate() {
            for o in 0..setting.outcomes() {
                let f = cast::to_f64((s * 7 + o * 3) % 11 + 1) / 97.0;
                dense.push((setting.outcome_projector(o), f));
                compressed.push((set.entries(s, o), f));
            }
        }
        for with_ll in [false, true] {
            let mut want = CMatrix::zeros(16, 16);
            let mut want_ll = 0.0;
            for (proj, f) in &dense {
                let p = rho.trace_of_product(proj).re.max(P_FLOOR);
                want_ll += f * p.ln();
                want.add_scaled_assign(proj, f / p);
            }
            let mut got = CMatrix::zeros(16, 16);
            let got_ll = DenseExact.build_r(&compressed, rho, &mut got, with_ll);
            let bits = |m: &CMatrix| -> Vec<(u64, u64)> {
                m.as_slice()
                    .iter()
                    .map(|z| (z.re.to_bits(), z.im.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&got), bits(&want), "R differs (with_ll = {with_ll})");
            if with_ll {
                assert_eq!(
                    got_ll.to_bits(),
                    want_ll.to_bits(),
                    "log-likelihood differs"
                );
            }
        }
    }

    #[test]
    fn build_r_matches_dense_oracle_at_maximally_mixed_start() {
        // The driver's starting iterate: every off-diagonal exactly zero.
        assert_build_r_matches_dense_oracle(&CMatrix::identity(16).scale(1.0 / 16.0));
    }

    #[test]
    fn build_r_matches_dense_oracle_at_scrambled_hermitian() {
        let rho = CMatrix::from_fn(16, 16, |i, j| {
            let phase = cast::to_f64(i * 31 + j * 17);
            let z = Complex64::new(phase.sin() / 40.0, phase.cos() / 50.0);
            match i.cmp(&j) {
                std::cmp::Ordering::Less => z,
                std::cmp::Ordering::Equal => Complex64::real(1.0 / 16.0 + z.re / 4.0),
                std::cmp::Ordering::Greater => {
                    let mirror = cast::to_f64(j * 31 + i * 17);
                    Complex64::new(mirror.sin() / 40.0, -mirror.cos() / 50.0)
                }
            }
        });
        assert!(rho.is_hermitian(0.0));
        assert_build_r_matches_dense_oracle(&rho);
    }

    #[test]
    fn build_r_matches_dense_oracle_with_signed_zero_entries() {
        let zeros = [
            Complex64::new(-0.0, 0.0),
            Complex64::new(0.0, -0.0),
            Complex64::new(-0.0, -0.0),
            Complex64::new(-0.0, 0.25),
            Complex64::new(0.125, -0.0),
        ];
        let rho = CMatrix::from_fn(16, 16, |i, j| {
            if (i + 2 * j) % 3 == 0 {
                zeros[(i + j) % zeros.len()]
            } else {
                Complex64::new(cast::to_f64(i + 1) / 64.0, -cast::to_f64(j) / 128.0)
            }
        });
        assert_build_r_matches_dense_oracle(&rho);
    }

    #[test]
    fn linear_inversion_exact_single_qubit() {
        let rho = DensityMatrix::from_pure(&PureState::plus());
        let data = exact_counts(&rho, &all_settings(1), 10_000_000);
        let rec = try_linear_inversion(&data).expect("reconstruction");
        assert!(rec.approx_eq(rho.as_matrix(), 1e-4));
    }

    #[test]
    fn linear_inversion_exact_bell_state() {
        let rho = DensityMatrix::from_pure(&bell_phi_plus());
        let data = exact_counts(&rho, &all_settings(2), 10_000_000);
        let rec = try_project_physical(&try_linear_inversion(&data).expect("reconstruction"))
            .expect("projection");
        let f = state_fidelity(&rec, &rho);
        assert!(f > 0.999, "F = {f}");
    }

    #[test]
    fn mle_recovers_werner_state() {
        let mut rng = rng_from_seed(31);
        let rho = werner_state(0.83, 0.0);
        let data = simulate_counts(&mut rng, &rho, &all_settings(2), 4000);
        let result = try_mle_reconstruction(&data, &MleOptions::default()).expect("reconstruction");
        let f = state_fidelity(&result.rho, &rho);
        assert!(f > 0.99, "F = {f}");
        assert!(result.rho.is_physical(1e-9));
    }

    #[test]
    fn mle_beats_or_matches_linear_at_low_counts() {
        let mut rng = rng_from_seed(32);
        let truth = werner_state(0.9, 0.3);
        let data = simulate_counts(&mut rng, &truth, &all_settings(2), 60);
        let lin = try_linear_reconstruction(&data).expect("reconstruction");
        let mle = try_mle_reconstruction(&data, &MleOptions::default())
            .expect("reconstruction")
            .rho;
        let f_lin = state_fidelity(&lin, &truth);
        let f_mle = state_fidelity(&mle, &truth);
        // MLE should not be (much) worse; both should be decent.
        assert!(f_mle > f_lin - 0.05, "MLE {f_mle} vs linear {f_lin}");
        assert!(f_mle > 0.8);
    }

    #[test]
    fn mle_converges() {
        let mut rng = rng_from_seed(33);
        let rho = DensityMatrix::from_pure(&PureState::plus());
        let data = simulate_counts(&mut rng, &rho, &all_settings(1), 5000);
        let result = try_mle_reconstruction(&data, &MleOptions::default()).expect("reconstruction");
        assert!(result.iterations < 300, "iterations {}", result.iterations);
        assert!(result.final_update < 1e-8);
        assert!(result.converged);
    }

    #[test]
    fn mle_divergence_flagged() {
        let mut rng = rng_from_seed(35);
        let rho = werner_state(0.83, 0.0);
        let data = simulate_counts(&mut rng, &rho, &all_settings(2), 4000);
        // One iteration against an unattainable tolerance cannot converge.
        let opts = MleOptions {
            max_iterations: 1,
            tolerance: 1e-30,
            ..MleOptions::default()
        };
        let result = try_mle_reconstruction(&data, &opts).expect("reconstruction");
        assert!(!result.converged);
    }

    #[test]
    fn try_mle_rejects_all_dark_data() {
        let settings = all_settings(2);
        let data = TomographyData {
            counts: settings.iter().map(|s| vec![0u64; s.outcomes()]).collect(),
            settings,
        };
        let err = try_mle_reconstruction(&data, &MleOptions::default()).unwrap_err();
        assert!(matches!(err, QfcError::SingularSystem { .. }), "{err}");
        assert!(err.to_string().contains("zero total events"), "{err}");
    }

    #[test]
    fn try_mle_rejects_empty_and_mixed_arity_settings() {
        use crate::settings::Setting;
        let empty = TomographyData {
            settings: vec![],
            counts: vec![],
        };
        let err = try_mle_reconstruction(&empty, &MleOptions::default()).unwrap_err();
        assert!(matches!(err, QfcError::InsufficientData { .. }), "{err}");

        let mixed = TomographyData {
            settings: vec![
                Setting::from_bases(&[PauliBasis::Z]),
                Setting::from_bases(&[PauliBasis::Z, PauliBasis::X]),
            ],
            counts: vec![vec![3, 1], vec![1, 1, 1, 1]],
        };
        let err = try_mle_reconstruction(&mixed, &MleOptions::default()).unwrap_err();
        assert!(err.to_string().contains("mixed-arity"), "{err}");
    }

    #[test]
    fn try_mle_rejects_mismatched_projector_cache() {
        let mut rng = rng_from_seed(36);
        let rho = werner_state(0.83, 0.0);
        let data = simulate_counts(&mut rng, &rho, &all_settings(2), 500);
        let wrong = ProjectorSet::try_new(&all_settings(1)).expect("one-qubit set");
        let err = try_mle_reconstruction_with(&wrong, &data, &MleOptions::default())
            .unwrap_err();
        assert!(matches!(err, QfcError::InvalidParameter { .. }), "{err}");
    }

    #[test]
    fn try_mle_zero_iterations_returns_mixed_state_unconverged() {
        let mut rng = rng_from_seed(37);
        let rho = werner_state(0.83, 0.0);
        let data = simulate_counts(&mut rng, &rho, &all_settings(2), 500);
        let opts = MleOptions {
            max_iterations: 0,
            ..MleOptions::default()
        };
        let result = try_mle_reconstruction(&data, &opts).expect("zero iterations is legal");
        assert_eq!(result.iterations, 0);
        assert!(!result.converged);
        // No iterations: still the maximally mixed starting point.
        let mixed = DensityMatrix::maximally_mixed(2);
        assert!(result.rho.as_matrix().approx_eq(mixed.as_matrix(), 1e-12));
    }

    #[test]
    fn accelerated_schedule_validates_parameters() {
        let mut rng = rng_from_seed(38);
        let rho = werner_state(0.83, 0.0);
        let data = simulate_counts(&mut rng, &rho, &all_settings(2), 500);
        let opts = MleOptions {
            acceleration: MleAcceleration::Accelerated {
                max_step: 0.5,
                growth: 1.4,
            },
            ..MleOptions::default()
        };
        let err = try_mle_reconstruction(&data, &opts).unwrap_err();
        assert!(matches!(err, QfcError::InvalidParameter { .. }), "{err}");
    }

    #[test]
    fn accelerated_matches_classic_fidelity_in_fewer_iterations() {
        let mut rng = rng_from_seed(39);
        let truth = werner_state(0.9, 0.2);
        let data = simulate_counts(&mut rng, &truth, &all_settings(2), 2000);
        let opts = MleOptions {
            max_iterations: 4000,
            tolerance: 1e-8,
            acceleration: MleAcceleration::Classic,
        };
        let classic = try_mle_reconstruction(&data, &opts).expect("classic");
        let accel = try_mle_reconstruction(
            &data,
            &MleOptions {
                acceleration: MleAcceleration::accelerated(),
                ..opts
            },
        )
        .expect("accelerated");
        assert!(classic.converged, "classic run must converge");
        assert!(accel.converged, "accelerated run must converge");
        assert!(accel.accelerated_steps > 0, "schedule never over-relaxed");
        assert!(
            accel.iterations < classic.iterations,
            "accelerated {} vs classic {} iterations",
            accel.iterations,
            classic.iterations
        );
        let f_c = state_fidelity(&classic.rho, &truth);
        let f_a = state_fidelity(&accel.rho, &truth);
        assert!((f_c - f_a).abs() < 1e-6, "classic F {f_c} vs accelerated F {f_a}");
    }

    #[test]
    fn classic_path_reports_zero_accelerated_steps() {
        let mut rng = rng_from_seed(40);
        let rho = werner_state(0.83, 0.0);
        let data = simulate_counts(&mut rng, &rho, &all_settings(2), 500);
        let result = try_mle_reconstruction(&data, &MleOptions::default()).expect("reconstruction");
        assert_eq!(result.accelerated_steps, 0);
        // The serialized form must not mention the field, so classic
        // results stay byte-identical to the historical format.
        let json = serde_json::to_string(&result).expect("serialize");
        assert!(!json.contains("accelerated_steps"));
    }

    #[test]
    fn try_linear_inversion_rejects_empty_and_mixed_arity() {
        use crate::settings::Setting;
        let empty = TomographyData {
            settings: vec![],
            counts: vec![],
        };
        assert!(matches!(
            try_linear_inversion(&empty).unwrap_err(),
            QfcError::InsufficientData { .. }
        ));
        let mixed = TomographyData {
            settings: vec![
                Setting::from_bases(&[PauliBasis::Z]),
                Setting::from_bases(&[PauliBasis::Z, PauliBasis::X]),
            ],
            counts: vec![vec![3, 1], vec![1, 1, 1, 1]],
        };
        assert!(matches!(
            try_linear_inversion(&mixed).unwrap_err(),
            QfcError::InsufficientData { .. }
        ));
    }

    #[test]
    fn try_linear_inversion_reports_incomplete_data() {
        use crate::settings::{PauliBasis, Setting};
        let rho = DensityMatrix::from_pure(&PureState::plus());
        let data = exact_counts(&rho, &[Setting::from_bases(&[PauliBasis::Z])], 1000);
        let err = try_linear_inversion(&data).unwrap_err();
        assert!(err.to_string().contains("informationally incomplete"));
    }

    #[test]
    fn projection_fixes_unphysical_matrix() {
        use qfc_mathkit::complex::C_ONE;
        // diag(1.2, −0.2): Hermitian, trace 1, not PSD.
        let bad = CMatrix::diag(&[C_ONE.scale(1.2), C_ONE.scale(-0.2)]);
        let fixed = try_project_physical(&bad).expect("projection");
        assert!(fixed.is_physical(1e-10));
        assert!((fixed.as_matrix().trace().re - 1.0).abs() < 1e-10);
        assert_eq!(element(&fixed, 1, 1).re, 0.0);
    }

    #[test]
    fn linear_inversion_finite_counts_near_truth() {
        let mut rng = rng_from_seed(34);
        let rho = werner_state(0.7, 0.0);
        let data = simulate_counts(&mut rng, &rho, &all_settings(2), 20_000);
        let rec = try_linear_reconstruction(&data).expect("reconstruction");
        let f = state_fidelity(&rec, &rho);
        assert!(f > 0.995, "F = {f}");
    }

    #[test]
    fn incomplete_data_detected() {
        use crate::settings::{PauliBasis, Setting};
        let rho = DensityMatrix::from_pure(&PureState::plus());
        // Only Z measured: X and Y strings uncovered.
        let data = exact_counts(&rho, &[Setting::from_bases(&[PauliBasis::Z])], 1000);
        let err = try_linear_inversion(&data).unwrap_err();
        assert!(matches!(err, QfcError::InsufficientData { .. }), "{err}");
        assert!(
            err.to_string().contains("informationally incomplete"),
            "{err}"
        );
    }
}
