//! The DDIM sampler: one image's step state plus one batched advance.
//!
//! [`DdimStepState`] holds one image's `x_t`, RNG stream, conditioning
//! and position in the timestep subsequence. [`advance_batch`] stacks any
//! set of in-flight states into one folded engine call ([`eps_folded`])
//! and applies one DDIM update to each. That pair is the only DDIM
//! implementation in the library, and every caller drives it:
//!
//! * the offline entry points in [`crate::sampler`] — and through them the
//!   pipelines and PTQ calibration — build one state per image and
//!   advance them in lockstep until they finish;
//! * a serving scheduler advances whichever requests are in flight at
//!   each step boundary, so requests join and leave the batch at any step
//!   (continuous batching), each at its own timestep.
//!
//! # Bit-identity contract
//!
//! An image stepped to completion is **bit-identical** whichever states
//! share its batches: solo, in a uniform offline batch, or joining and
//! leaving a served batch mid-flight. Two facts compose into that
//! guarantee:
//!
//! 1. The update is elementwise with scalar coefficients on the image's
//!    own `[1, c, h, w]` slice, and stochastic noise comes from the
//!    image's own stream.
//! 2. The U-Net treats the batch dimension independently (pinned by
//!    `tests/batched_consistency.rs`) and [`eps_folded`] keeps each
//!    image's rows apart, so the ε an image gets inside any batch equals
//!    its batch-1 ε.
//!
//! The tests below pin the contract for solo runs, uniform batches and
//! the serving-shaped case, against a whole-batch loop sampler kept in the
//! test module as the reference.

use crate::conditioning::{eps_folded, Conditioning};
use crate::sampler::{ddim_timesteps, DdimParams};
use crate::schedule::NoiseSchedule;
use fpdq_tensor::{FpdqError, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One in-flight image's DDIM sampling state.
#[derive(Clone, Debug)]
pub struct DdimStepState {
    x: Tensor,
    rng: StdRng,
    ts: Vec<usize>,
    pos: usize,
    params: DdimParams,
    schedule: NoiseSchedule,
    cond: Conditioning,
}

impl DdimStepState {
    /// Starts one image: derives the starting noise `[1, c, h, w]` and the
    /// stochastic stream from `seed`. The conditioning (context and
    /// guidance, when [`Conditioning::Guided`]) travels with the state,
    /// so a conditional image joins and leaves a running batch exactly
    /// like an unconditional one.
    ///
    /// The seed's role is independent of the conditioning: conditioning
    /// shapes ε, never the noise streams, so the bit-identity contract
    /// holds per (seed, conditioning) pair.
    ///
    /// `params.steps` must be in `1..=schedule.steps()`; a server rejects
    /// out-of-range requests with this error, while the offline entry
    /// points clamp before they get here.
    pub fn new_conditioned(
        schedule: &NoiseSchedule,
        chw: [usize; 3],
        seed: u64,
        params: DdimParams,
        cond: Conditioning,
    ) -> Result<DdimStepState, FpdqError> {
        let [c, h, w] = chw;
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(&[1, c, h, w], &mut rng);
        Self::from_noise(schedule, x, rng, params, cond)
    }

    /// Starts one image from explicit starting noise `x` `[1, c, h, w]`
    /// and stochastic stream `rng` (see [`Self::new_conditioned`]).
    pub(crate) fn from_noise(
        schedule: &NoiseSchedule,
        x: Tensor,
        rng: StdRng,
        params: DdimParams,
        cond: Conditioning,
    ) -> Result<DdimStepState, FpdqError> {
        if params.steps == 0 || params.steps > schedule.steps() {
            return Err(FpdqError::invalid(format!(
                "steps must be in 1..={}, got {}",
                schedule.steps(),
                params.steps
            )));
        }
        let ts = ddim_timesteps(schedule, params.steps);
        Ok(DdimStepState { x, rng, ts, pos: 0, params, schedule: schedule.clone(), cond })
    }

    /// The schedule timestep the next advance consumes.
    ///
    /// # Panics
    ///
    /// Panics if the image is already done.
    fn current_t(&self) -> usize {
        assert!(!self.is_done(), "current_t on a finished request");
        self.ts[self.pos]
    }

    /// Whether every step has been applied (`x` is now the `x_0` estimate).
    pub fn is_done(&self) -> bool {
        self.pos >= self.ts.len()
    }

    /// Steps applied so far / total steps.
    pub fn progress(&self) -> (usize, usize) {
        (self.pos, self.ts.len())
    }

    /// Applies one DDIM update given `e`, the noise prediction for `x` at
    /// the current timestep.
    ///
    /// # Panics
    ///
    /// Panics if the image is already done or `e` has the wrong shape
    /// (driver bookkeeping bugs, not caller input).
    fn advance(&mut self, e: &Tensor) {
        assert!(!self.is_done(), "advance on a finished request");
        assert_eq!(e.dims(), self.x.dims(), "noise prediction shape mismatch");
        let t = self.ts[self.pos];
        let last = self.pos + 1 == self.ts.len();
        let ab_t = self.schedule.alpha_bar(t);
        let ab_prev = if last { 1.0 } else { self.schedule.alpha_bar(self.ts[self.pos + 1]) };
        // x0 prediction from the ε-parameterisation (paper eq. 3 rearranged).
        let mut x0 = self.x.sub(&e.mul_scalar((1.0 - ab_t).sqrt())).mul_scalar(1.0 / ab_t.sqrt());
        if let Some(c) = self.params.clip_x0 {
            x0 = x0.clamp(-c, c);
        }
        let sigma = self.params.eta
            * ((1.0 - ab_prev) / (1.0 - ab_t)).sqrt()
            * (1.0 - ab_t / ab_prev).sqrt();
        let dir = e.mul_scalar((1.0 - ab_prev - sigma * sigma).max(0.0).sqrt());
        self.x = x0.mul_scalar(ab_prev.sqrt()).add(&dir);
        if sigma > 0.0 && !last {
            let z = Tensor::randn(self.x.dims(), &mut self.rng);
            self.x = self.x.add(&z.mul_scalar(sigma));
        }
        self.pos += 1;
    }

    /// Consumes the finished image, returning the `x_0` estimate
    /// `[1, c, h, w]`.
    ///
    /// # Panics
    ///
    /// Panics if steps remain.
    pub fn into_result(self) -> Tensor {
        assert!(self.is_done(), "into_result on an unfinished request");
        self.x
    }
}

/// Runs one batched noise prediction for a set of in-flight images and
/// advances each by one DDIM step: stacks their `x_t`s (`[n, c, h, w]`)
/// and per-image timesteps (`[n]`), routes them through [`eps_folded`] so
/// every member's conditioning — including both classifier-free-guidance
/// halves of guided images — shares **one** `forward(x, t, context)`
/// engine call, then hands each image its slice. An all-unconditional
/// batch becomes a context-free call.
///
/// Images may sit at *different* timesteps — per-image `t` is exactly
/// what the U-Net's timestep embedding supports.
///
/// # Panics
///
/// Panics if `states` is empty, any state is already done, or the batch
/// mixes context-free and conditioned images (cannot come from one
/// model; see [`eps_folded`]).
pub fn advance_batch(
    states: &mut [&mut DdimStepState],
    forward: impl FnOnce(&Tensor, &Tensor, Option<&Tensor>) -> Tensor,
) {
    assert!(!states.is_empty(), "advance_batch on an empty set");
    let xs: Vec<&Tensor> = states.iter().map(|s| &s.x).collect();
    let x = Tensor::concat(&xs, 0);
    let t: Vec<f32> = states.iter().map(|s| s.current_t() as f32).collect();
    let n = t.len();
    let conds: Vec<&Conditioning> = states.iter().map(|s| &s.cond).collect();
    let e = eps_folded(forward, &x, &Tensor::from_vec(t, &[n]), &conds);
    assert_eq!(e.dim(0), n, "eps returned a wrong-sized batch");
    for (i, s) in states.iter_mut().enumerate() {
        s.advance(&e.narrow(0, i, 1));
    }
}

/// Advances `states` in batches until every one is done and stacks their
/// `x_0` estimates in order (`[n, c, h, w]`) — the offline sampling loop.
///
/// # Panics
///
/// Panics if `states` is empty.
pub(crate) fn run_to_completion(
    mut states: Vec<DdimStepState>,
    mut forward: impl FnMut(&Tensor, &Tensor, Option<&Tensor>) -> Tensor,
) -> Tensor {
    loop {
        let mut live: Vec<&mut DdimStepState> =
            states.iter_mut().filter(|s| !s.is_done()).collect();
        if live.is_empty() {
            break;
        }
        advance_batch(&mut live, &mut forward);
    }
    let xs: Vec<Tensor> = states.into_iter().map(DdimStepState::into_result).collect();
    Tensor::concat(&xs.iter().collect::<Vec<_>>(), 0)
}

/// One state per seed, with `params.steps` clamped into the schedule —
/// the offline entry points' contract.
pub(crate) fn seeded_states(
    schedule: &NoiseSchedule,
    chw: [usize; 3],
    seeds: &[u64],
    conds: impl IntoIterator<Item = Conditioning>,
    params: DdimParams,
) -> Vec<DdimStepState> {
    let params = params.clamped(schedule);
    seeds
        .iter()
        .zip(conds)
        .map(|(&seed, cond)| {
            DdimStepState::new_conditioned(schedule, chw, seed, params, cond)
                .expect("steps clamped into range")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{ddim_sample, ddim_sample_seeded, randn_per_image};
    use rand::Rng;

    /// The whole-batch DDIM loop sampler the step state replaced, kept
    /// verbatim as the reference the bit-identity tests compare against:
    /// `x_t` starts from `noise` (`[b, c, h, w]`), all stochastic noise for
    /// image `i` is drawn from `rngs[i]`.
    fn ddim_sample_batched(
        schedule: &NoiseSchedule,
        noise: Tensor,
        params: DdimParams,
        rngs: &mut [StdRng],
        mut eps: impl FnMut(&Tensor, &Tensor) -> Tensor,
    ) -> Tensor {
        let b = noise.dim(0);
        assert_eq!(rngs.len(), b, "need one RNG stream per image, got {} for b = {b}", rngs.len());
        if b == 0 {
            // Degenerate batch: nothing to denoise, and the network must not
            // be called on an empty tensor.
            return noise;
        }
        let ts = ddim_timesteps(schedule, params.steps);
        let mut x = noise;
        for (i, &t) in ts.iter().enumerate() {
            let t_batch = Tensor::full(&[b], t as f32);
            let e = eps(&x, &t_batch);
            let ab_t = schedule.alpha_bar(t);
            let ab_prev = if i + 1 < ts.len() { schedule.alpha_bar(ts[i + 1]) } else { 1.0 };
            // x0 prediction from the ε-parameterisation (paper eq. 3 rearranged).
            let mut x0 = x.sub(&e.mul_scalar((1.0 - ab_t).sqrt())).mul_scalar(1.0 / ab_t.sqrt());
            if let Some(c) = params.clip_x0 {
                x0 = x0.clamp(-c, c);
            }
            let sigma = params.eta
                * ((1.0 - ab_prev) / (1.0 - ab_t)).sqrt()
                * (1.0 - ab_t / ab_prev).sqrt();
            let dir = e.mul_scalar((1.0 - ab_prev - sigma * sigma).max(0.0).sqrt());
            x = x0.mul_scalar(ab_prev.sqrt()).add(&dir);
            if sigma > 0.0 && i + 1 < ts.len() {
                let z = randn_per_image(x.dims(), rngs);
                x = x.add(&z.mul_scalar(sigma));
            }
        }
        x
    }

    /// [`ddim_sample_batched`] from per-image seeds: seed `i` derives
    /// image `i`'s starting noise and its stochastic stream.
    fn seeded_reference(
        seeds: &[u64],
        params: DdimParams,
        eps: impl FnMut(&Tensor, &Tensor) -> Tensor,
    ) -> Tensor {
        let mut rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
        let noise = randn_per_image(&[seeds.len(), 1, 4, 4], &mut rngs);
        ddim_sample_batched(&schedule(), noise, params, &mut rngs, eps)
    }

    fn schedule() -> NoiseSchedule {
        NoiseSchedule::linear_scaled(20)
    }

    /// A cheap, batch-independent ε: per image, `e = 0.1·x + 0.01·t`.
    /// Mirrors the U-Net's contract (image `i` of a batch call equals its
    /// batch-1 call) without the cost of a real network.
    fn toy_eps(x: &Tensor, t: &Tensor) -> Tensor {
        let dims = x.dims();
        let plane: usize = dims[1..].iter().product();
        let mut out = Vec::with_capacity(x.numel());
        for (i, &ti) in t.data().iter().enumerate() {
            for v in &x.data()[i * plane..(i + 1) * plane] {
                out.push(0.1 * v + 0.01 * ti);
            }
        }
        Tensor::from_vec(out, dims)
    }

    fn uncond(schedule: &NoiseSchedule, seed: u64, params: DdimParams) -> DdimStepState {
        DdimStepState::new_conditioned(schedule, [1, 4, 4], seed, params, Conditioning::Uncond)
            .unwrap()
    }

    #[test]
    fn stepping_to_completion_matches_the_loop_sampler() {
        for eta in [0.0, 0.7] {
            let params = DdimParams { steps: 6, eta, clip_x0: Some(1.0) };
            let mut s = uncond(&schedule(), 42, params);
            let mut steps = 0;
            while !s.is_done() {
                let e = toy_eps(&s.x, &Tensor::from_vec(vec![s.current_t() as f32], &[1]));
                s.advance(&e);
                steps += 1;
            }
            assert_eq!(steps, 6);
            assert_eq!(
                s.into_result().data(),
                seeded_reference(&[42], params, toy_eps).data(),
                "eta {eta} diverged from the loop sampler"
            );
        }
    }

    #[test]
    fn offline_entry_points_match_the_loop_sampler() {
        // Both offline constructors — per-image seeds, and explicit noise
        // plus a master RNG — must reproduce the whole-batch loop bit for
        // bit, stochastic steps included.
        let sch = schedule();
        let params = DdimParams { steps: 7, eta: 0.6, clip_x0: Some(1.0) };
        let seeds = [5u64, 17, 5, 90];
        let got = ddim_sample_seeded(&sch, [1, 4, 4], &seeds, params, toy_eps);
        assert_eq!(got.data(), seeded_reference(&seeds, params, toy_eps).data());

        let noise = Tensor::randn(&[3, 1, 4, 4], &mut StdRng::seed_from_u64(8));
        let mut master = StdRng::seed_from_u64(9);
        let got = ddim_sample(&sch, noise.clone(), params, &mut master, toy_eps);
        let mut want_master = StdRng::seed_from_u64(9);
        let mut rngs: Vec<StdRng> =
            (0..3).map(|_| StdRng::seed_from_u64(want_master.gen())).collect();
        let want = ddim_sample_batched(&sch, noise, params, &mut rngs, toy_eps);
        assert_eq!(got.data(), want.data());
        // The master RNG is consumed exactly as before: one seed per image.
        assert_eq!(master.gen::<u64>(), want_master.gen::<u64>());
    }

    #[test]
    fn mixed_timestep_batches_preserve_bit_identity() {
        // Serving-shaped schedule: request A starts alone, B joins two
        // steps later, C joins after A left. Every image must still be
        // bit-identical to its solo loop-sampler run.
        let params = DdimParams { steps: 4, eta: 0.3, clip_x0: None };
        let sch = schedule();
        let mut a = uncond(&sch, 1, params);
        let mut b = uncond(&sch, 2, params);
        let mut c = uncond(&sch, 3, params);
        let eps = |x: &Tensor, t: &Tensor, _: Option<&Tensor>| toy_eps(x, t);

        // A solo for 2 steps.
        advance_batch(&mut [&mut a], eps);
        advance_batch(&mut [&mut a], eps);
        // A and B together (A at step 2, B at step 0) until A finishes.
        advance_batch(&mut [&mut a, &mut b], eps);
        advance_batch(&mut [&mut a, &mut b], eps);
        assert!(a.is_done() && !b.is_done());
        // C joins B.
        advance_batch(&mut [&mut b, &mut c], eps);
        advance_batch(&mut [&mut b, &mut c], eps);
        assert!(b.is_done());
        while !c.is_done() {
            advance_batch(&mut [&mut c], eps);
        }

        for (state, seed) in [(a, 1u64), (b, 2), (c, 3)] {
            assert_eq!(
                state.into_result().data(),
                seeded_reference(&[seed], params, toy_eps).data(),
                "seed {seed} depends on batch composition"
            );
        }
    }

    #[test]
    fn new_conditioned_rejects_out_of_range_steps() {
        let sch = schedule();
        for steps in [0, sch.steps() + 1] {
            let r = DdimStepState::new_conditioned(
                &sch,
                [1, 4, 4],
                7,
                DdimParams { steps, eta: 0.0, clip_x0: None },
                Conditioning::Uncond,
            );
            assert!(matches!(r, Err(FpdqError::InvalidArgument(_))), "steps {steps} accepted");
        }
    }

    /// Context-aware toy network mirroring the U-Net contract: per row,
    /// `e = 0.1·x + 0.5·mean(ctx_row) + 0.01·t` (no context → 0 bias).
    fn toy_forward(x: &Tensor, t: &Tensor, ctx: Option<&Tensor>) -> Tensor {
        let dims = x.dims();
        let plane: usize = dims[1..].iter().product();
        let ctx_plane = ctx.map(|c| c.numel() / c.dim(0)).unwrap_or(0);
        let mut out = Vec::with_capacity(x.numel());
        for (i, &ti) in t.data().iter().enumerate() {
            let bias = ctx
                .map(|c| {
                    let row = &c.data()[i * ctx_plane..(i + 1) * ctx_plane];
                    0.5 * row.iter().sum::<f32>() / ctx_plane as f32
                })
                .unwrap_or(0.0);
            for v in &x.data()[i * plane..(i + 1) * plane] {
                out.push(0.1 * v + bias + 0.01 * ti);
            }
        }
        Tensor::from_vec(out, dims)
    }

    #[test]
    fn conditioned_requests_join_and_leave_batches_bit_identically() {
        let params = DdimParams { steps: 4, eta: 0.3, clip_x0: None };
        let sch = schedule();
        let ctx = |seed: u64| Tensor::randn(&[1, 3, 4], &mut StdRng::seed_from_u64(seed));
        // A guided, a direct and a differently guided request, each with
        // its own conditioning, interleaved serving-style.
        let conds = [
            Conditioning::guided(ctx(1), ctx(0), 3.0),
            Conditioning::Direct(ctx(2)),
            Conditioning::guided(ctx(3), ctx(0), 1.5),
        ];
        let mk = |seed: u64, cond: &Conditioning| {
            DdimStepState::new_conditioned(&sch, [1, 4, 4], seed, params, cond.clone()).unwrap()
        };
        let mut a = mk(1, &conds[0]);
        let mut b = mk(2, &conds[1]);
        let mut c = mk(3, &conds[2]);

        advance_batch(&mut [&mut a], toy_forward);
        advance_batch(&mut [&mut a], toy_forward);
        advance_batch(&mut [&mut a, &mut b], toy_forward);
        advance_batch(&mut [&mut a, &mut b], toy_forward);
        assert!(a.is_done() && !b.is_done());
        advance_batch(&mut [&mut b, &mut c], toy_forward);
        advance_batch(&mut [&mut b, &mut c], toy_forward);
        assert!(b.is_done());
        while !c.is_done() {
            advance_batch(&mut [&mut c], toy_forward);
        }

        for (state, seed, cond) in [(a, 1u64, &conds[0]), (b, 2, &conds[1]), (c, 3, &conds[2])] {
            let solo =
                seeded_reference(&[seed], params, |x, t| eps_folded(toy_forward, x, t, &[cond]));
            assert_eq!(
                state.into_result().data(),
                solo.data(),
                "seed {seed} depends on batch composition"
            );
        }
    }

    #[test]
    #[should_panic(expected = "finished request")]
    fn advancing_a_finished_request_panics() {
        let params = DdimParams { steps: 1, eta: 0.0, clip_x0: None };
        let mut s = uncond(&schedule(), 9, params);
        let e = Tensor::zeros(&[1, 1, 4, 4]);
        s.advance(&e);
        s.advance(&e);
    }
}
