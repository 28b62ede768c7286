//! Reverse-process samplers: DDPM ancestral sampling and DDIM (paper §II,
//! eq. 3; Song et al. for DDIM).
//!
//! Samplers are generic over the noise predictor — a closure
//! `eps(x_t, t) -> ε̂` — so the full-precision model, the FP-quantized
//! model and the INT-quantized model all drive the *same* sampling code,
//! which is what makes the paper's fixed-seed comparisons meaningful.
//! The DDIM entry points here are constructors over [`crate::stepper`]:
//! each builds one step state per image and advances the states in
//! batches until they finish, so offline sampling, calibration and
//! serving share one DDIM update.
//!
//! # Batched multi-image sampling and per-image RNG streams
//!
//! Every sampler runs a whole `[b, c, h, w]` batch through one network
//! call per step, but the stochastic noise is drawn from **one RNG
//! stream per image** (`*_seeded` take a slice of seeds that also derive
//! the starting noise). This is what makes batch composition irrelevant:
//! image `i` of a batch-N run is bit-identical to a batch-1 run from the
//! same per-image seed — the contract `tests/batched_consistency.rs` pins
//! on the packed engine — and images within a batch are statistically
//! independent.

use crate::conditioning::Conditioning;
use crate::schedule::NoiseSchedule;
use crate::stepper::{run_to_completion, seeded_states, DdimStepState};
use fpdq_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// DDIM sampling options.
#[derive(Clone, Copy, Debug)]
pub struct DdimParams {
    /// Number of sampling steps (a uniform subset of the schedule).
    pub steps: usize,
    /// Stochasticity: 0 = deterministic DDIM, 1 = DDPM-like.
    pub eta: f32,
    /// Clamp range for the predicted `x_0` (stabilises low-step sampling);
    /// `None` disables clamping (latent space).
    pub clip_x0: Option<f32>,
}

impl Default for DdimParams {
    fn default() -> Self {
        DdimParams { steps: 20, eta: 0.0, clip_x0: None }
    }
}

impl DdimParams {
    /// `self` with `steps` clamped into `1..=schedule.steps()`: offline
    /// sampling clamps where a server rejects.
    pub(crate) fn clamped(self, schedule: &NoiseSchedule) -> DdimParams {
        DdimParams { steps: self.steps.clamp(1, schedule.steps()), ..self }
    }
}

/// Returns the decreasing timestep subsequence used by DDIM for
/// `steps` in `1..=schedule.steps()`.
pub(crate) fn ddim_timesteps(schedule: &NoiseSchedule, steps: usize) -> Vec<usize> {
    let t = schedule.steps();
    let mut ts: Vec<usize> = (0..steps).map(|i| i * t / steps).collect();
    ts.dedup();
    ts.reverse(); // high noise -> low noise
    ts
}

/// Draws standard-normal noise `[b, c, h, w]` with image `i` taken
/// entirely from `rngs[i]` — the batched equivalent of `b` independent
/// `Tensor::randn(&[1, c, h, w], rng)` calls, bit-for-bit.
pub(crate) fn randn_per_image(dims: &[usize], rngs: &mut [StdRng]) -> Tensor {
    debug_assert_eq!(dims[0], rngs.len());
    let plane: usize = dims[1..].iter().product();
    let mut data = Vec::with_capacity(rngs.len() * plane);
    let mut img_dims = dims.to_vec();
    img_dims[0] = 1;
    for rng in rngs.iter_mut() {
        data.extend_from_slice(Tensor::randn(&img_dims, rng).data());
    }
    Tensor::from_vec(data, dims)
}

/// Deterministic (η=0) or stochastic DDIM sampling.
///
/// `x_t` starts from `noise` (`[b, c, h, w]`); `eps` is the noise
/// predictor. Returns the final `x_0` estimate. `params.steps` is clamped
/// into the schedule.
///
/// The master `rng` only hands out one seed per image, and each seed's
/// stream draws that image's stochastic noise (η > 0), so images never
/// share a stream; use [`ddim_sample_seeded`] when image `i` must be
/// reproducible outside this batch.
pub fn ddim_sample(
    schedule: &NoiseSchedule,
    noise: Tensor,
    params: DdimParams,
    rng: &mut impl Rng,
    mut eps: impl FnMut(&Tensor, &Tensor) -> Tensor,
) -> Tensor {
    let b = noise.dim(0);
    let rngs: Vec<StdRng> = (0..b).map(|_| StdRng::seed_from_u64(rng.gen())).collect();
    if b == 0 {
        // Degenerate batch: nothing to denoise, and the network must not
        // be called on an empty tensor.
        return noise;
    }
    let params = params.clamped(schedule);
    let states = rngs
        .into_iter()
        .enumerate()
        .map(|(i, rng)| {
            let x = noise.narrow(0, i, 1);
            DdimStepState::from_noise(schedule, x, rng, params, Conditioning::Uncond)
                .expect("steps clamped into range")
        })
        .collect();
    run_to_completion(states, |x, t, _| eps(x, t))
}

/// DDIM sampling driven entirely by per-image seeds: seed `i` derives the
/// stream that produces image `i`'s starting noise (`[1, c, h, w]` from a
/// fresh `StdRng`) and all of its stochastic sampler noise. A batch-1
/// call with `&[seeds[i]]` therefore reproduces image `i` of any batch
/// exactly. `params.steps` is clamped into the schedule.
pub fn ddim_sample_seeded(
    schedule: &NoiseSchedule,
    chw: [usize; 3],
    seeds: &[u64],
    params: DdimParams,
    mut eps: impl FnMut(&Tensor, &Tensor) -> Tensor,
) -> Tensor {
    if seeds.is_empty() {
        let [c, h, w] = chw;
        return Tensor::zeros(&[0, c, h, w]);
    }
    let conds = std::iter::repeat(Conditioning::Uncond);
    run_to_completion(seeded_states(schedule, chw, seeds, conds, params), |x, t, _| eps(x, t))
}

/// Full-length DDPM ancestral sampling (one network call per schedule
/// step), driven by per-image seeds (see [`ddim_sample_seeded`] for the
/// contract).
pub fn ddpm_sample_seeded(
    schedule: &NoiseSchedule,
    chw: [usize; 3],
    seeds: &[u64],
    clip_x0: Option<f32>,
    mut eps: impl FnMut(&Tensor, &Tensor) -> Tensor,
) -> Tensor {
    let [c, h, w] = chw;
    let b = seeds.len();
    if b == 0 {
        return Tensor::zeros(&[0, c, h, w]);
    }
    let mut rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
    let mut x = randn_per_image(&[b, c, h, w], &mut rngs);
    for t in (0..schedule.steps()).rev() {
        let t_batch = Tensor::full(&[b], t as f32);
        let e = eps(&x, &t_batch);
        let (a_t, ab_t, beta_t) = (schedule.alpha(t), schedule.alpha_bar(t), schedule.beta(t));
        // μ_θ(x_t, t) (paper eq. 3).
        let mut mean =
            x.sub(&e.mul_scalar(beta_t / (1.0 - ab_t).sqrt())).mul_scalar(1.0 / a_t.sqrt());
        if let Some(c) = clip_x0 {
            // Clamp via the x0 reconstruction for stability.
            let x0 = x
                .sub(&e.mul_scalar((1.0 - ab_t).sqrt()))
                .mul_scalar(1.0 / ab_t.sqrt())
                .clamp(-c, c);
            let ab_prev = if t > 0 { schedule.alpha_bar(t - 1) } else { 1.0 };
            let coef0 = ab_prev.sqrt() * beta_t / (1.0 - ab_t);
            let coeft = a_t.sqrt() * (1.0 - ab_prev) / (1.0 - ab_t);
            mean = x0.mul_scalar(coef0).add(&x.mul_scalar(coeft));
        }
        if t > 0 {
            let z = randn_per_image(x.dims(), &mut rngs);
            x = mean.add(&z.mul_scalar(beta_t.sqrt()));
        } else {
            x = mean;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// An "oracle" predictor for data concentrated at a single point `mu`:
    /// given x_t = √ᾱ·μ + √(1-ᾱ)·ε, the optimal ε̂ = (x_t - √ᾱ·μ)/√(1-ᾱ).
    fn oracle_eps(
        schedule: &NoiseSchedule,
        mu: Tensor,
    ) -> impl FnMut(&Tensor, &Tensor) -> Tensor + '_ {
        move |x, t| {
            let t = t.data()[0] as usize;
            let ab = schedule.alpha_bar(t);
            x.sub(&mu.mul_scalar(ab.sqrt())).mul_scalar(1.0 / (1.0 - ab).sqrt())
        }
    }

    #[test]
    fn ddim_recovers_point_mass_with_oracle() {
        let schedule = NoiseSchedule::linear_scaled(100);
        let mut rng = StdRng::seed_from_u64(0);
        let mu = Tensor::from_vec(vec![0.5, -0.3, 0.8, 0.1], &[1, 1, 2, 2]);
        let noise = Tensor::randn(&[1, 1, 2, 2], &mut rng);
        let out = ddim_sample(
            &schedule,
            noise,
            DdimParams { steps: 25, eta: 0.0, clip_x0: Some(1.0) },
            &mut rng,
            oracle_eps(&schedule, mu.clone()),
        );
        assert!(out.mse(&mu) < 1e-3, "DDIM did not converge to the mode: {}", out.mse(&mu));
    }

    #[test]
    fn ddpm_recovers_point_mass_with_oracle() {
        let schedule = NoiseSchedule::linear_scaled(60);
        let mu = Tensor::full(&[1, 1, 2, 2], 0.4);
        let out = ddpm_sample_seeded(
            &schedule,
            [1, 2, 2],
            &[1],
            Some(1.0),
            oracle_eps(&schedule, mu.clone()),
        );
        // Ancestral sampling is stochastic; just require proximity.
        assert!(out.mse(&mu) < 0.05, "DDPM far from mode: {}", out.mse(&mu));
    }

    #[test]
    fn ddim_is_deterministic_at_eta_zero() {
        let schedule = NoiseSchedule::linear_scaled(50);
        let mu = Tensor::full(&[1, 1, 2, 2], -0.2);
        let noise = Tensor::randn(&[1, 1, 2, 2], &mut StdRng::seed_from_u64(7));
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            ddim_sample(
                &schedule,
                noise.clone(),
                DdimParams { steps: 10, eta: 0.0, clip_x0: None },
                &mut rng,
                oracle_eps(&schedule, mu.clone()),
            )
        };
        // Different sampler RNG seeds, same starting noise -> same output.
        assert_eq!(run(1).data(), run(2).data());
    }

    #[test]
    fn seeded_batch_matches_independent_single_image_runs() {
        // The per-image RNG contract: image i of a batch-N seeded run is
        // bit-identical to the batch-1 run with the same seed — for the
        // stochastic DDIM (η > 0) and for DDPM.
        let schedule = NoiseSchedule::linear_scaled(30);
        let mu = Tensor::full(&[1, 1, 2, 2], 0.3);
        let seeds = [3u64, 99, 3, 41]; // duplicate seed -> duplicate image
        let params = DdimParams { steps: 12, eta: 0.7, clip_x0: Some(1.0) };
        let batch = ddim_sample_seeded(
            &schedule,
            [1, 2, 2],
            &seeds,
            params,
            oracle_eps(&schedule, mu.clone()),
        );
        assert_eq!(batch.dims(), &[4, 1, 2, 2]);
        for (i, &s) in seeds.iter().enumerate() {
            let single = ddim_sample_seeded(
                &schedule,
                [1, 2, 2],
                &[s],
                params,
                oracle_eps(&schedule, mu.clone()),
            );
            assert_eq!(
                batch.narrow(0, i, 1).data(),
                single.data(),
                "DDIM image {i} differs from its batch-1 run"
            );
        }
        let batch_ddpm = ddpm_sample_seeded(
            &schedule,
            [1, 2, 2],
            &seeds,
            Some(1.0),
            oracle_eps(&schedule, mu.clone()),
        );
        for (i, &s) in seeds.iter().enumerate() {
            let single = ddpm_sample_seeded(
                &schedule,
                [1, 2, 2],
                &[s],
                Some(1.0),
                oracle_eps(&schedule, mu.clone()),
            );
            assert_eq!(
                batch_ddpm.narrow(0, i, 1).data(),
                single.data(),
                "DDPM image {i} differs from its batch-1 run"
            );
        }
        // Identical seeds inside one batch produce identical images.
        assert_eq!(batch.narrow(0, 0, 1).data(), batch.narrow(0, 2, 1).data());
    }

    #[test]
    fn batch_composition_is_order_independent() {
        // Permuting the seed list permutes the images and changes nothing
        // else: image content is a function of its seed alone.
        let schedule = NoiseSchedule::linear_scaled(25);
        let mu = Tensor::full(&[1, 1, 2, 2], -0.4);
        let params = DdimParams { steps: 8, eta: 1.0, clip_x0: None };
        let fwd = ddim_sample_seeded(
            &schedule,
            [1, 2, 2],
            &[7, 8, 9],
            params,
            oracle_eps(&schedule, mu.clone()),
        );
        let rev = ddim_sample_seeded(
            &schedule,
            [1, 2, 2],
            &[9, 8, 7],
            params,
            oracle_eps(&schedule, mu.clone()),
        );
        for i in 0..3 {
            assert_eq!(fwd.narrow(0, i, 1).data(), rev.narrow(0, 2 - i, 1).data(), "image {i}");
        }
    }

    #[test]
    fn empty_batch_returns_empty_without_calling_the_network() {
        let schedule = NoiseSchedule::linear_scaled(10);
        let no_eps = |_: &Tensor, _: &Tensor| -> Tensor { panic!("eps must not run on b = 0") };
        let out = ddim_sample_seeded(&schedule, [3, 4, 4], &[], DdimParams::default(), no_eps);
        assert_eq!(out.dims(), &[0, 3, 4, 4]);
        let out = ddpm_sample_seeded(&schedule, [3, 4, 4], &[], None, no_eps);
        assert_eq!(out.dims(), &[0, 3, 4, 4]);
    }

    #[test]
    fn ddim_timestep_subsequence_is_decreasing_and_unique() {
        let schedule = NoiseSchedule::linear_scaled(100);
        let ts = ddim_timesteps(&schedule, 16);
        for w in ts.windows(2) {
            assert!(w[0] > w[1]);
        }
        assert!(ts.len() <= 16 && !ts.is_empty());
    }

    #[test]
    fn more_ddim_steps_improve_oracle_accuracy() {
        let schedule = NoiseSchedule::linear_scaled(100);
        let mu = Tensor::from_vec(vec![0.9, -0.9, 0.4, -0.4], &[1, 1, 2, 2]);
        let noise = Tensor::randn(&[1, 1, 2, 2], &mut StdRng::seed_from_u64(3));
        let err = |steps: usize| {
            let mut rng = StdRng::seed_from_u64(4);
            let out = ddim_sample(
                &schedule,
                noise.clone(),
                DdimParams { steps, eta: 0.0, clip_x0: None },
                &mut rng,
                oracle_eps(&schedule, mu.clone()),
            );
            out.mse(&mu)
        };
        assert!(err(25) <= err(2) + 1e-6, "more steps should not hurt: {} vs {}", err(25), err(2));
    }
}
