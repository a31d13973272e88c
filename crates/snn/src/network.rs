//! The event-driven LIF network with WTA dynamics, STDP and homeostasis
//! (paper §2.2).
//!
//! The simulator is *event-driven*: instead of stepping every millisecond
//! it exploits the analytic solution of the leak ODE between input spikes,
//! `v(T2) = v(T1) · e^{-(T2−T1)/Tleak}` — the same trick the paper uses to
//! make the hardware efficient ("such an expression lends to a more
//! efficient hardware implementation"). The per-millisecond decay factors
//! are precomputed in a lookup table, mirroring the piecewise-interpolated
//! leak of the online-learning circuit (§4.4).
//!
//! Learning follows §2.2/§4.4 exactly:
//! * **STDP** — on an output spike at `t`, every synapse whose input last
//!   spiked within `[t − TLTP, t]` is potentiated by `+1`, every other
//!   synapse depressed by `−1`, saturating at the 8-bit rails.
//! * **WTA** — the firing neuron enters a refractory period (`Trefrac`)
//!   and inhibits all others (`Tinhibit`); inhibited/refractory neurons
//!   ignore input spikes entirely.
//! * **Homeostasis** — at the end of each homeostasis epoch every
//!   neuron's threshold moves by `sign(activity − Homeoth)·threshold·r`.
//! * **Self-labeling** — per-neuron label counters incremented when the
//!   neuron wins on a training image; final label = highest count
//!   normalized by label frequency.

use crate::coding::{CodingScheme, RateStreams, SpikeEvent};
use crate::lif::{LifState, Prior};
use crate::params::SnnParams;
use crate::trace::PresentationTrace;
use nc_dataset::model::{ModelError, EVAL_PRESENTATION_SEED_BASE};
use nc_dataset::Dataset;
use nc_faults::{dead_unit_mask, stuck_bits_u8, FaultModel, FaultPlan, TransientReads};
use nc_obs::{EpochMetrics, Recorder};
use nc_substrate::rng::SplitMix64;
use nc_substrate::stats::Confusion;

/// Sentinel meaning "this input has not spiked yet in this presentation".
const NEVER: u32 = u32::MAX;

/// Outcome of presenting one image to the network.
#[derive(Debug, Clone, PartialEq)]
pub struct Presentation {
    /// The first neuron to fire (the paper's readout: "a form of
    /// spike-based winner-takes-all"), if any neuron fired.
    pub winner: Option<usize>,
    /// Every output spike as `(time_ms, neuron)`.
    pub fires: Vec<(u32, usize)>,
    /// Final membrane potentials (after the last event).
    pub potentials: Vec<f64>,
    /// Seed of the per-presentation RNG stream, used to break exact
    /// potential ties in [`Presentation::readout`] deterministically.
    pub tie_seed: u64,
}

impl Presentation {
    /// The readout neuron: first to fire, or — if the image drove no
    /// neuron over threshold — the neuron with the highest remaining
    /// potential (the correlation fallback SNNwot formalizes, §4.2.2).
    /// Exact potential ties are broken by a seeded draw, not by index.
    pub fn readout(&self) -> usize {
        tie_broken_readout(self.winner, &self.potentials, self.tie_seed)
    }
}

/// Shared readout with seeded tie-breaking. The winner (first neuron to
/// fire) is authoritative; with no winner the highest remaining
/// potential is read out. Exact potential ties — routine on dark images,
/// where every neuron ends at exactly `0.0` — were previously resolved
/// "lowest index wins", silently crediting neuron 0's label with every
/// ambiguous presentation. They are now resolved by one [`SplitMix64`]
/// draw from the per-presentation stream: deterministic for a given
/// `(network seed, presentation seed)` pair, but unbiased across the
/// tied neurons.
pub fn tie_broken_readout(winner: Option<usize>, potentials: &[f64], tie_seed: u64) -> usize {
    if let Some(w) = winner {
        return w;
    }
    let mut best = 0;
    for (i, &v) in potentials.iter().enumerate().skip(1) {
        if v > potentials[best] {
            best = i;
        }
    }
    let top = potentials[best];
    let ties = potentials.iter().filter(|&&v| v == top).count();
    if ties <= 1 {
        return best;
    }
    let pick = SplitMix64::new(tie_seed).next_index(ties);
    potentials
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v == top)
        .nth(pick)
        .map_or(best, |(i, _)| i)
}

/// Reusable per-presentation simulation state. Kept on the network and
/// reset (not reallocated) at the start of every [`SnnNetwork::simulate`]
/// call, so the steady-state inference loop performs no heap allocation
/// once the buffers have grown to the working-set size.
#[derive(Debug, Clone, Default)]
struct SimScratch {
    /// Encoded input spike train for the current presentation.
    events: Vec<SpikeEvent>,
    /// The LIF state of every neuron.
    lif: LifState,
    /// Per-input time of the most recent input spike ([`NEVER`] if none).
    last_input_spike: Vec<u32>,
    /// Output spikes as `(time_ms, neuron)`.
    fires: Vec<(u32, usize)>,
}

impl SimScratch {
    /// Clears all per-presentation state, resizing only on first use (or
    /// if the network geometry grew). `clear` + `resize` on an
    /// already-sized `Vec` rewrites in place without touching capacity.
    fn reset(&mut self, neurons: usize, inputs: usize) {
        self.lif.reset(neurons);
        self.last_input_spike.clear();
        self.last_input_spike.resize(inputs, NEVER);
        self.fires.clear();
    }
}

/// Reusable state for the streaming winner-only inference path
/// ([`SnnNetwork`]'s `simulate_streaming`): the per-pixel generator
/// streams and the per-millisecond calendar queue.
#[derive(Debug, Clone, Default)]
struct StreamScratch {
    /// Lazy per-pixel spike generators for the current presentation.
    streams: RateStreams,
    /// Stream index of every spike of the presentation, in drain order
    /// (pixel-major, times ascending within a pixel).
    spike_k: Vec<u32>,
    /// Millisecond of every spike, parallel to `spike_k`.
    spike_t: Vec<u32>,
    /// Calendar bucket boundaries after the counting sort: bucket `t`
    /// is `slots[starts[t]..starts[t + 1]]`.
    starts: Vec<u32>,
    /// Scatter cursors (working copy of `starts`).
    cursor: Vec<u32>,
    /// Stream indices grouped by millisecond bucket. Within a bucket
    /// the scatter preserves drain order — ascending input with same-ms
    /// duplicates adjacent — so a bucket doubles as the replay script
    /// when a threshold crossing is detected.
    slots: Vec<u32>,
}

/// The single-layer WTA spiking network.
///
/// # Examples
///
/// ```
/// use nc_snn::{SnnNetwork, SnnParams};
///
/// let mut snn = SnnNetwork::new(16, 4, SnnParams::for_neurons(8), 3);
/// let outcome = snn.present(&[200u8; 16], 0);
/// assert_eq!(outcome.potentials.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct SnnNetwork {
    inputs: usize,
    classes: usize,
    params: SnnParams,
    coding: CodingScheme,
    /// Excitatory weights, row-major `[neuron][input]`, 8-bit.
    weights: Vec<u8>,
    /// Column-major f64 mirror of `weights` (`[input][neuron]`), the
    /// only other copy: the event loop touches every neuron for one
    /// input, so this layout makes the hot inner loop a contiguous scan
    /// instead of an `inputs`-strided gather, and `f64::from` is exact,
    /// so the kernel adds it with no per-element conversion. Kept in
    /// sync by [`SnnNetwork::rebuild_weights_t`] and the incremental
    /// STDP update.
    weights_t: Vec<f64>,
    /// Per-neuron firing thresholds (homeostasis adjusts them).
    thresholds: Vec<f64>,
    /// Per-(neuron, class) win counters for self-labeling.
    label_counts: Vec<u64>,
    /// Per-class presentation counts (normalizes label counters).
    class_presented: Vec<u64>,
    /// Assigned labels after [`SnnNetwork::self_label`].
    labels: Vec<Option<usize>>,
    /// Per-neuron fire counts within the current homeostasis epoch.
    fire_counts: Vec<u64>,
    /// Simulated time elapsed in the current homeostasis epoch.
    epoch_elapsed_ms: u64,
    /// `e^{-dt/Tleak}` for `dt ∈ 0..=Tperiod` (the hardware's interpolated
    /// leak, precomputed exactly).
    decay_lut: Vec<f64>,
    /// The STDP update rule (the paper's circuit is `Additive { 1 }`;
    /// scaled-down runs use larger steps, and alternative rules are the
    /// paper's future-work lever — see [`crate::stdp_rules`]).
    stdp_rule: crate::stdp_rules::StdpRule,
    presentation_counter: u64,
    seed: u64,
    /// Transient SRAM read faults on the synapse array (disabled unless a
    /// `TransientRead` plan was injected). Stored weights stay pristine;
    /// only reads during simulation are perturbed.
    faults: TransientReads,
    /// A `StuckLfsrTap` plan over the spike-interval generators, if one
    /// was injected (rate codes only).
    gen_fault: Option<FaultPlan>,
    /// Reused simulation buffers (allocation-free steady state).
    sim: SimScratch,
    /// Reused buffers for the streaming winner-only inference path.
    stream: StreamScratch,
}

impl SnnNetwork {
    /// Creates a network with `inputs` excitatory inputs, `classes`
    /// possible labels and the Poisson rate code, with weights initialized
    /// uniformly in the middle of the 8-bit range.
    ///
    /// # Panics
    ///
    /// Panics if `inputs == 0`, `classes == 0`, or the parameters are
    /// inconsistent.
    pub fn new(inputs: usize, classes: usize, params: SnnParams, seed: u64) -> Self {
        Self::with_coding(inputs, classes, params, CodingScheme::PoissonRate, seed)
    }

    /// Creates a network with an explicit input [`CodingScheme`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs == 0`, `classes == 0`, or the parameters are
    /// inconsistent.
    pub fn with_coding(
        inputs: usize,
        classes: usize,
        params: SnnParams,
        coding: CodingScheme,
        seed: u64,
    ) -> Self {
        assert!(inputs > 0, "need at least one input");
        assert!(classes > 0, "need at least one class");
        params.validate();
        let n = params.neurons;
        let mut rng = SplitMix64::new(seed);
        let weights = (0..n * inputs)
            .map(|_| 100 + u8::try_from(rng.next_below(101)).unwrap_or(u8::MAX)) // uniform 100..=200
            .collect();
        let threshold = coding.initial_threshold(&params);
        let decay_lut = (0..=params.t_period)
            .map(|dt| (-f64::from(dt) / params.t_leak).exp())
            .collect();
        let mut net = SnnNetwork {
            inputs,
            classes,
            params,
            coding,
            weights,
            weights_t: Vec::new(),
            thresholds: vec![threshold; n],
            label_counts: vec![0; n * classes],
            class_presented: vec![0; classes],
            labels: vec![None; n],
            fire_counts: vec![0; n],
            epoch_elapsed_ms: 0,
            decay_lut,
            stdp_rule: crate::stdp_rules::StdpRule::default(),
            presentation_counter: 0,
            seed,
            faults: TransientReads::disabled(),
            gen_fault: None,
            sim: SimScratch::default(),
            stream: StreamScratch::default(),
        };
        net.rebuild_weights_t();
        net
    }

    /// Rebuilds the column-major weight mirror from the row-major truth.
    /// Called after any bulk weight mutation (construction, stuck-bit or
    /// dead-neuron injection, precision truncation); the per-row STDP
    /// update maintains it incrementally instead.
    fn rebuild_weights_t(&mut self) {
        let n = self.params.neurons;
        self.weights_t.clear();
        self.weights_t.resize(n * self.inputs, 0.0);
        for (j, row) in self.weights.chunks_exact(self.inputs).enumerate() {
            for (i, &w) in row.iter().enumerate() {
                self.weights_t[i * n + j] = f64::from(w);
            }
        }
    }

    /// The per-presentation RNG stream seed: every stochastic choice tied
    /// to one presentation (spike-train generation, readout tie-breaking)
    /// derives from this single value, so a presentation is reproducible
    /// from `(network seed, presentation seed)` alone.
    fn presentation_rng_seed(&self, presentation_seed: u64) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(presentation_seed)
    }

    /// Applies a hardware fault plan to the deployed network (DESIGN.md
    /// "Fault model"). Stuck-at faults corrupt the stored 8-bit synapses
    /// once; dead neurons zero whole synapse rows (a LIF stuck at reset
    /// never crosses threshold); transient reads perturb every weight
    /// fetch during simulation; a stuck LFSR tap degrades the per-pixel
    /// spike-interval generators and therefore requires a rate code.
    ///
    /// Injection models a *deployed* chip: training after injection will
    /// overwrite stuck bits, so inject after `train_stdp`/`self_label`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidFaultPlan`] for an out-of-range rate
    /// and [`ModelError::FaultUnsupported`] for `StuckLfsrTap` under a
    /// temporal (generator-free) coding scheme.
    pub fn apply_fault(&mut self, plan: &FaultPlan) -> Result<(), ModelError> {
        plan.validate()?;
        match plan.model {
            FaultModel::StuckAt0 | FaultModel::StuckAt1 => {
                stuck_bits_u8(&mut self.weights, plan);
                self.rebuild_weights_t();
                Ok(())
            }
            FaultModel::DeadNeuron => {
                let dead = dead_unit_mask(self.params.neurons, plan);
                for (j, &is_dead) in dead.iter().enumerate() {
                    if is_dead {
                        for w in &mut self.weights[j * self.inputs..(j + 1) * self.inputs] {
                            *w = 0;
                        }
                    }
                }
                self.rebuild_weights_t();
                Ok(())
            }
            FaultModel::TransientRead => {
                self.faults = TransientReads::from_plan(plan);
                Ok(())
            }
            FaultModel::StuckLfsrTap => {
                if self.coding.is_rate_code() {
                    self.gen_fault = Some(*plan);
                    Ok(())
                } else {
                    Err(ModelError::FaultUnsupported {
                        model: "SNN+STDP - LIF (SNNwt)",
                        fault: plan.model.name(),
                    })
                }
            }
            // Routing-fabric faults live in the mesh substrate (nc-hw);
            // a single-core network has no links or routers to break.
            FaultModel::DeadLink | FaultModel::DeadRouter => Ok(()),
        }
    }

    /// Number of inputs.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// The hyper-parameters in use.
    pub fn params(&self) -> &SnnParams {
        &self.params
    }

    /// The input coding scheme in use.
    pub fn coding(&self) -> CodingScheme {
        self.coding
    }

    /// The 8-bit weight matrix, row-major `[neuron][input]`.
    pub fn weights(&self) -> &[u8] {
        &self.weights
    }

    /// The weight of a given synapse.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn weight(&self, neuron: usize, input: usize) -> u8 {
        assert!(neuron < self.params.neurons && input < self.inputs);
        self.weights[neuron * self.inputs + input]
    }

    /// Current per-neuron firing thresholds.
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// Assigned per-neuron labels (populated by [`Self::self_label`]).
    pub fn labels(&self) -> &[Option<usize>] {
        &self.labels
    }

    /// The precomputed per-millisecond leak table `e^{-dt/Tleak}` for
    /// `dt ∈ 0..=Tperiod`, the table [`decay_with_lut`] and the
    /// [`LifState`] kernel decay through.
    ///
    /// [`decay_with_lut`]: crate::lif::decay_with_lut
    pub fn decay_lut(&self) -> &[f64] {
        &self.decay_lut
    }

    /// The per-presentation RNG stream seed for a given presentation
    /// seed: the value that [`SnnNetwork::present`] feeds both the input
    /// encoder and the readout tie-breaker. Public so external
    /// substrates (the `nc-hw` mesh) can reproduce a presentation
    /// spike-for-spike from `(network, presentation seed)` alone.
    pub fn presentation_stream_seed(&self, presentation_seed: u64) -> u64 {
        self.presentation_rng_seed(presentation_seed)
    }

    /// Overrides the STDP weight-update magnitude (default `1`, the
    /// hardware's constant increment). Scaled-down reproductions may use
    /// a larger value so that `epochs × presentations × delta` matches
    /// the paper's full-scale learning volume; see `DESIGN.md` §6.
    ///
    /// # Panics
    ///
    /// Panics if `delta == 0`.
    pub fn set_stdp_delta(&mut self, delta: i16) {
        assert!(delta > 0, "STDP delta must be positive");
        self.stdp_rule = crate::stdp_rules::StdpRule::Additive { delta };
    }

    /// Replaces the STDP update rule entirely (see [`crate::stdp_rules`]
    /// for the alternatives and their hardware cost classes).
    ///
    /// # Panics
    ///
    /// Panics if the rule's parameters are invalid.
    pub fn set_stdp_rule(&mut self, rule: crate::stdp_rules::StdpRule) {
        rule.validate();
        self.stdp_rule = rule;
    }

    /// The STDP rule currently in use.
    pub fn stdp_rule(&self) -> &crate::stdp_rules::StdpRule {
        &self.stdp_rule
    }

    /// Truncates every synaptic weight to its top `bits` bits (the
    /// hardware narrows the SRAM word) — used by the precision study in
    /// [`crate::explore`].
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `1..=8`.
    pub fn quantize_weights(&mut self, bits: u32) {
        assert!((1..=8).contains(&bits), "weight bits must be in 1..=8");
        let shift = 8 - bits;
        for w in &mut self.weights {
            *w = (*w >> shift) << shift;
        }
        self.rebuild_weights_t();
    }

    /// Presents one image without learning and returns the outcome.
    pub fn present(&mut self, pixels: &[u8], presentation_seed: u64) -> Presentation {
        let tie_seed = self.presentation_rng_seed(presentation_seed);
        let winner = self.simulate(pixels, false, presentation_seed, None);
        self.snapshot_presentation(winner, tie_seed)
    }

    /// Presents one image with STDP + homeostasis enabled.
    pub fn present_learn(&mut self, pixels: &[u8], presentation_seed: u64) -> Presentation {
        let tie_seed = self.presentation_rng_seed(presentation_seed);
        let winner = self.simulate(pixels, true, presentation_seed, None);
        self.snapshot_presentation(winner, tie_seed)
    }

    /// Presents one image and records a full trace (Figure 3).
    pub fn present_traced(&mut self, pixels: &[u8], presentation_seed: u64) -> PresentationTrace {
        let mut trace = PresentationTrace::new(self.params.neurons);
        let tie_seed = self.presentation_rng_seed(presentation_seed);
        let winner = self.simulate(pixels, false, presentation_seed, Some(&mut trace));
        trace.finish(self.snapshot_presentation(winner, tie_seed));
        trace
    }

    /// Copies the scratch state of the presentation that just ran into an
    /// owned [`Presentation`]. Only the outcome-returning entry points
    /// pay for these clones; the batch paths ([`SnnNetwork::predict`],
    /// [`SnnNetwork::evaluate`], [`SnnNetwork::self_label`]) read the
    /// scratch directly and stay allocation-free.
    fn snapshot_presentation(&self, winner: Option<usize>, tie_seed: u64) -> Presentation {
        Presentation {
            winner,
            fires: self.sim.fires.clone(),
            potentials: self.sim.lif.potentials.clone(),
            tie_seed,
        }
    }

    /// The event-driven core shared by learning, inference and tracing.
    /// Returns the winner (first neuron to fire, if any); the full
    /// outcome lives in the reused scratch until the next presentation.
    fn simulate(
        &mut self,
        pixels: &[u8],
        learn: bool,
        presentation_seed: u64,
        mut trace: Option<&mut PresentationTrace>,
    ) -> Option<usize> {
        assert_eq!(
            pixels.len(),
            self.inputs,
            "pixel count {} does not match inputs {}",
            pixels.len(),
            self.inputs
        );
        let n = self.params.neurons;
        let seed = self.presentation_rng_seed(presentation_seed);
        // Move the scratch out for the duration of the event loop so STDP
        // (which borrows `self` mutably) can run mid-simulation; the
        // buffers are handed back before returning.
        let mut sim = std::mem::take(&mut self.sim);
        self.coding.encode_faulty_into(
            pixels,
            &self.params,
            seed,
            self.gen_fault.as_ref(),
            &mut sim.events,
        );
        if let Some(t) = trace.as_deref_mut() {
            t.record_inputs(&sim.events);
        }

        sim.reset(n, self.inputs);
        let faults_active = self.faults.is_active();
        let mut winner = None;
        for &SpikeEvent { t, input } in &sim.events {
            sim.last_input_spike[input] = t;
            // Each crossing fires before the scan resumes past it: STDP
            // rewrites weights mid-event, so the column is re-borrowed
            // per scan. A fire normally gates the rest of the event;
            // only `Tinhibit = 0` lets a later neuron fire on it too.
            let mut from = 0;
            loop {
                let (lut, thresholds) = (&self.decay_lut, &self.thresholds);
                let mut on_update = |prior: Prior, v| {
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.record_potential(prior.neuron, t, v);
                    }
                };
                // A faulty read port perturbs the stored 8-bit weight. The
                // two ports are separate scans, so the healthy one carries
                // no per-neuron fault branch.
                let crossing = if faults_active {
                    let faulty = |j| {
                        let stored = self.weights[j * self.inputs + input];
                        f64::from(self.faults.read_u8(stored))
                    };
                    sim.lif
                        .scan(t, from, lut, thresholds, faulty, &mut on_update)
                } else {
                    let col = &self.weights_t[input * n..(input + 1) * n];
                    sim.lif
                        .scan(t, from, lut, thresholds, |j| col[j], &mut on_update)
                };
                let Some(j) = crossing else { break };
                sim.lif.fire(j, t, &self.params);
                sim.fires.push((t, j));
                winner.get_or_insert(j);
                if let Some(tr) = trace.as_deref_mut() {
                    tr.record_fire(j, t);
                }
                if learn {
                    self.fire_counts[j] += 1;
                    self.apply_stdp(j, t, &sim.last_input_spike);
                }
                from = j + 1;
            }
        }

        if learn {
            self.epoch_elapsed_ms += u64::from(self.params.t_period);
            if self.epoch_elapsed_ms >= self.params.homeo_epoch_ms {
                self.apply_homeostasis();
            }
        }
        self.presentation_counter += 1;
        self.sim = sim;
        winner
    }

    /// Whether the streaming winner-only path may serve inference for
    /// the current configuration: rate codes only (the streams are the
    /// per-pixel interval generators, so temporal codes have nothing to
    /// stream) and a healthy SRAM read port (with transient read faults
    /// armed, the batch loop's per-read RNG stream makes read *order*
    /// part of the semantics). A stuck generator tap is fine — the
    /// streams degrade exactly the generators the eager encoder would.
    fn streaming_inference_ok(&self) -> bool {
        self.coding.is_rate_code() && !self.faults.is_active()
    }

    /// Winner-only simulation: the streaming fast path when the
    /// configuration allows it, the full event loop otherwise. Either
    /// way the returned winner — and, when there is no winner, the final
    /// potentials left in the simulation scratch — are bit-identical to
    /// [`SnnNetwork::simulate`]'s, which is all the readout consumes.
    fn simulate_winner(&mut self, pixels: &[u8], presentation_seed: u64) -> Option<usize> {
        if self.streaming_inference_ok() {
            self.simulate_streaming(pixels, presentation_seed)
        } else {
            self.simulate(pixels, false, presentation_seed, None)
        }
    }

    /// The streaming winner-only inference path.
    ///
    /// Inference only needs the readout: the first neuron to fire, or —
    /// if none fires — the final potentials. The eager path materializes
    /// the whole spike train as one vector and sorts it by
    /// `(time, input)`; this path instead drains each pixel's generator
    /// straight into a per-millisecond calendar ([`RateStreams`]) whose
    /// buckets come out in that same order with no global sort.
    ///
    /// Each populated bucket is one 1 ms tick of the shared LIF kernel:
    /// [`LifState::stage`] then [`LifState::commit`], bit-identical to
    /// the event loop's scans (see [`crate::lif`]). The first bucket that
    /// crosses threshold is replayed event by event through
    /// [`LifState::scan`] from the committed state, and its first
    /// crossing is the winner: in the event loop a fire gates every
    /// other neuron, so nothing later in the bucket can fire first. With
    /// no crossing anywhere, the committed potentials are the event
    /// loop's final ones (no fire means no gating ever engaged).
    fn simulate_streaming(&mut self, pixels: &[u8], presentation_seed: u64) -> Option<usize> {
        assert_eq!(
            pixels.len(),
            self.inputs,
            "pixel count {} does not match inputs {}",
            pixels.len(),
            self.inputs
        );
        let n = self.params.neurons;
        let seed = self.presentation_rng_seed(presentation_seed);
        let stream = &mut self.stream;
        let live = stream.streams.rebuild(
            self.coding,
            pixels,
            &self.params,
            seed,
            self.gen_fault.as_ref(),
        );
        debug_assert!(live, "callers gate on is_rate_code");

        // Drain every pixel's whole train, then group spikes by
        // millisecond with a counting sort. Pixel-major drain order
        // means the scatter leaves each bucket sorted by stream index
        // (= ascending input) with same-ms duplicates adjacent — the
        // eager encoder's `(t, input)` event order, comparison-free.
        let t_period = usize::try_from(self.params.t_period).unwrap_or(usize::MAX);
        stream.spike_k.clear();
        stream.spike_t.clear();
        {
            let StreamScratch {
                streams,
                spike_k,
                spike_t,
                ..
            } = &mut *stream;
            for k in 0..streams.len() {
                let packed = u32::try_from(k).unwrap_or(u32::MAX);
                streams.drain_spikes(k, |t| {
                    spike_t.push(t);
                    spike_k.push(packed);
                });
            }
        }
        stream.starts.clear();
        stream.starts.resize(t_period + 1, 0);
        for &t in &stream.spike_t {
            stream.starts[usize::try_from(t).unwrap_or(usize::MAX) + 1] += 1;
        }
        let mut acc = 0u32;
        for s in &mut stream.starts {
            acc += *s;
            *s = acc;
        }
        stream.cursor.clear();
        stream.cursor.extend_from_slice(&stream.starts);
        stream.slots.clear();
        stream.slots.resize(stream.spike_k.len(), 0);
        for (&t, &k) in stream.spike_t.iter().zip(&stream.spike_k) {
            let slot = stream.cursor[usize::try_from(t).unwrap_or(usize::MAX)];
            stream.slots[usize::try_from(slot).unwrap_or(usize::MAX)] = k;
            stream.cursor[usize::try_from(t).unwrap_or(usize::MAX)] += 1;
        }

        // The LIF state ends with the last committed potentials: the
        // final state when no neuron fired (what the readout consumes),
        // or the partially-replayed bucket when one did (never read —
        // the winner is authoritative).
        let lif = &mut self.sim.lif;
        lif.reset(n);
        let lut = self.decay_lut.as_slice();
        let thresholds = self.thresholds.as_slice();
        let (streams, weights_t) = (&stream.streams, &self.weights_t);
        let column = |packed: &u32| {
            let at = streams.input(usize::try_from(*packed).unwrap_or(usize::MAX)) * n;
            &weights_t[at..at + n]
        };
        let mut winner = None;
        for (tb, bounds) in stream.starts.windows(2).enumerate() {
            let b0 = usize::try_from(bounds[0]).unwrap_or(usize::MAX);
            let b1 = usize::try_from(bounds[1]).unwrap_or(usize::MAX);
            let bucket = &stream.slots[b0..b1];
            if bucket.is_empty() {
                continue;
            }
            let t = u32::try_from(tb).unwrap_or(u32::MAX);
            if lif
                .stage(t, lut, thresholds, bucket.iter().map(column))
                .is_some()
            {
                lif.commit(t);
                continue;
            }
            winner = bucket.iter().find_map(|packed| {
                let col = column(packed);
                lif.scan(t, 0, lut, thresholds, |j| col[j], |_, _| {})
            });
            // The replay reproduces the exact values the tick-end
            // compare saw cross, so it cannot fall through.
            debug_assert!(winner.is_some(), "bucket replay must find the crossing");
            break;
        }
        self.presentation_counter += 1;
        winner
    }

    /// The STDP event rule of §2.2/§4.4: LTP for synapses whose input
    /// spiked within `TLTP` before the output spike, LTD for all others;
    /// the update magnitude comes from the pluggable [`StdpRule`]
    /// (constant ±δ in the paper's hardware).
    ///
    /// [`StdpRule`]: crate::stdp_rules::StdpRule
    fn apply_stdp(&mut self, neuron: usize, fire_t: u32, last_input_spike: &[u32]) {
        let n = self.params.neurons;
        let row = &mut self.weights[neuron * self.inputs..(neuron + 1) * self.inputs];
        for (i, w) in row.iter_mut().enumerate() {
            let ts = last_input_spike[i];
            let dt = fire_t.saturating_sub(ts);
            if ts != NEVER && dt <= self.params.t_ltp {
                *w = self.stdp_rule.potentiate(*w, dt);
            } else {
                *w = self.stdp_rule.depress(*w);
            }
            // Keep the column-major mirror coherent without a full
            // rebuild: one row changes per output spike.
            self.weights_t[i * n + neuron] = f64::from(*w);
        }
    }

    /// Homeostasis (§2.2): `threshold += sign(activity − Homeoth) ·
    /// threshold · r`, applied to every neuron at the epoch boundary.
    fn apply_homeostasis(&mut self) {
        for (j, fires) in self.fire_counts.iter_mut().enumerate() {
            let sign = match (*fires).cmp(&self.params.homeo_threshold) {
                std::cmp::Ordering::Greater => 1.0,
                std::cmp::Ordering::Less => -1.0,
                std::cmp::Ordering::Equal => 0.0,
            };
            self.thresholds[j] += sign * self.thresholds[j] * self.params.homeo_rate;
            // Keep the threshold meaningful: at least one max-weight spike.
            self.thresholds[j] = self.thresholds[j].max(255.0);
            *fires = 0;
        }
        self.epoch_elapsed_ms = 0;
    }

    /// Runs `epochs` passes of unsupervised STDP over the training set.
    ///
    /// # Panics
    ///
    /// Panics if the dataset geometry does not match the network.
    pub fn train_stdp(&mut self, data: &Dataset, epochs: usize) {
        self.train_stdp_observed(data, epochs, nc_obs::null());
    }

    /// Like [`SnnNetwork::train_stdp`], reporting each epoch's spike
    /// count and STDP weight-update count to `recorder` under the
    /// `"snn.stdp"` context. With a disabled recorder this is exactly
    /// `train_stdp`.
    ///
    /// # Panics
    ///
    /// Panics if the dataset geometry does not match the network.
    pub fn train_stdp_observed(&mut self, data: &Dataset, epochs: usize, recorder: &dyn Recorder) {
        assert_eq!(data.input_dim(), self.inputs, "geometry mismatch");
        let observing = recorder.enabled();
        for epoch in 0..epochs {
            let mut spikes = 0u64;
            for (i, s) in data.iter().enumerate() {
                let pseed = (epoch as u64) << 32 | i as u64;
                let outcome = self.present_learn(&s.pixels, pseed);
                if observing {
                    spikes += outcome.fires.len() as u64;
                }
            }
            if observing {
                // Every output spike triggers one STDP pass over the
                // neuron's full synapse row (LTP or LTD per synapse).
                recorder.record_epoch(
                    "snn.stdp",
                    &EpochMetrics {
                        epoch,
                        samples: data.len() as u64,
                        loss: None,
                        train_accuracy: None,
                        weight_updates: spikes * self.inputs as u64,
                        spikes,
                    },
                );
            }
        }
    }

    /// Self-labeling (§2.2): presents the training set without learning,
    /// counts which labels each neuron wins on, and tags each neuron with
    /// its frequency-normalized best label.
    ///
    /// # Panics
    ///
    /// Panics if the dataset geometry does not match the network.
    pub fn self_label(&mut self, data: &Dataset) {
        assert_eq!(data.input_dim(), self.inputs, "geometry mismatch");
        assert_eq!(data.num_classes(), self.classes, "class count mismatch");
        self.label_counts.iter_mut().for_each(|c| *c = 0);
        self.class_presented.iter_mut().for_each(|c| *c = 0);
        for (i, s) in data.iter().enumerate() {
            let pseed = 0x1ABE_0000 | i as u64;
            let tie_seed = self.presentation_rng_seed(pseed);
            let winner = self.simulate_winner(&s.pixels, pseed);
            self.class_presented[s.label] += 1;
            let readout = tie_broken_readout(winner, &self.sim.lif.potentials, tie_seed);
            self.label_counts[readout * self.classes + s.label] += 1;
        }
        for j in 0..self.params.neurons {
            let mut best: Option<(f64, usize)> = None;
            for c in 0..self.classes {
                let presented = self.class_presented[c];
                if presented == 0 {
                    continue;
                }
                // "the score is deduced from the label counter value by
                // dividing by the number of input images with that label".
                let score = self.label_counts[j * self.classes + c] as f64 / presented as f64;
                if score > 0.0 && best.is_none_or(|(s, _)| score > s) {
                    best = Some((score, c));
                }
            }
            self.labels[j] = best.map(|(_, c)| c);
        }
    }

    /// Predicts the class of one image: readout neuron's label (falling
    /// back to class 0 for never-labeled neurons, which counts as an
    /// error in evaluation unless the true class happens to be 0).
    ///
    /// Reads the readout straight from the reused simulation scratch, so
    /// repeated predictions (and [`SnnNetwork::evaluate`]) perform no
    /// heap allocation once the buffers are warm. Rate-coded inference
    /// on a healthy read port runs the streaming winner-only fast path
    /// (lazy spike generation, early exit at the first fire) — same
    /// readout, bit for bit.
    pub fn predict(&mut self, pixels: &[u8], presentation_seed: u64) -> usize {
        let tie_seed = self.presentation_rng_seed(presentation_seed);
        let winner = self.simulate_winner(pixels, presentation_seed);
        let readout = tie_broken_readout(winner, &self.sim.lif.potentials, tie_seed);
        self.labels[readout].unwrap_or(0)
    }

    /// Evaluates the labeled network on a dataset.
    ///
    /// # Panics
    ///
    /// Panics if the dataset geometry does not match the network.
    pub fn evaluate(&mut self, data: &Dataset) -> Confusion {
        assert_eq!(data.input_dim(), self.inputs, "geometry mismatch");
        let mut confusion = Confusion::new(self.classes);
        for (i, s) in data.iter().enumerate() {
            let predicted = self.predict(&s.pixels, EVAL_PRESENTATION_SEED_BASE | i as u64);
            confusion.record(s.label, predicted);
        }
        confusion
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lif::decay_with_lut;
    use nc_dataset::{digits::DigitsSpec, Difficulty};

    fn tiny_params(neurons: usize) -> SnnParams {
        SnnParams::for_neurons(neurons)
    }

    #[test]
    fn strong_input_fires_and_wta_inhibits() {
        let mut params = tiny_params(4);
        params.initial_threshold = 500.0;
        let mut snn = SnnNetwork::new(8, 2, params, 1);
        let outcome = snn.present(&[255u8; 8], 0);
        assert!(outcome.winner.is_some(), "bright input must fire");
        // With a 5 ms inhibition and 500 ms window, multiple fires can
        // occur, but the first fire defines the winner.
        assert_eq!(outcome.fires[0].1, outcome.winner.unwrap());
    }

    #[test]
    fn dark_input_never_fires() {
        let mut snn = SnnNetwork::new(8, 2, tiny_params(4), 1);
        let outcome = snn.present(&[0u8; 8], 0);
        assert!(outcome.winner.is_none());
        assert!(outcome.fires.is_empty());
        assert!(outcome.potentials.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn leak_reduces_potential_between_spikes() {
        // One early spike, then silence: the potential must decay.
        let mut params = tiny_params(1);
        params.initial_threshold = 1e9; // never fire
        let mut snn = SnnNetwork::new(2, 2, params, 3);
        // Pixel 0 bright → spikes early and often; potentials decay
        // between them but the readout potential stays positive.
        let outcome = snn.present(&[255, 0], 0);
        assert!(outcome.potentials[0] > 0.0);
        // Compare: total un-decayed drive is count·w ≥ potential.
        let w = f64::from(snn.weight(0, 0));
        let events = snn.coding().encode(&[255, 0], snn.params(), {
            // same seed derivation as simulate() with seed 3, pres 0
            3u64.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        });
        let undecayed = events.len() as f64 * w;
        assert!(outcome.potentials[0] < undecayed);
    }

    #[test]
    fn stdp_potentiates_active_and_depresses_silent_synapses() {
        let mut params = tiny_params(1);
        params.initial_threshold = 300.0; // fires quickly
        let mut snn = SnnNetwork::new(4, 2, params, 5);
        let w_before: Vec<u8> = (0..4).map(|i| snn.weight(0, i)).collect();
        // Inputs 0-1 bright, 2-3 dark.
        for i in 0..20 {
            snn.present_learn(&[255, 255, 0, 0], i);
        }
        assert!(snn.weight(0, 0) > w_before[0], "active synapse must grow");
        assert!(snn.weight(0, 1) > w_before[1]);
        assert!(snn.weight(0, 2) < w_before[2], "silent synapse must shrink");
        assert!(snn.weight(0, 3) < w_before[3]);
    }

    #[test]
    fn alternative_stdp_rules_also_specialize_synapses() {
        use crate::stdp_rules::StdpRule;
        for rule in [
            StdpRule::Multiplicative { rate: 0.05 },
            StdpRule::Exponential {
                delta: 6.0,
                tau: 20.0,
            },
        ] {
            let mut params = tiny_params(1);
            params.initial_threshold = 300.0;
            let mut snn = SnnNetwork::new(4, 2, params, 5);
            snn.set_stdp_rule(rule.clone());
            let before_active = snn.weight(0, 0);
            let before_silent = snn.weight(0, 2);
            for i in 0..20 {
                snn.present_learn(&[255, 255, 0, 0], i);
            }
            assert!(snn.weight(0, 0) > before_active, "{rule:?}");
            assert!(snn.weight(0, 2) < before_silent, "{rule:?}");
        }
    }

    #[test]
    fn weights_saturate_at_rails() {
        let mut params = tiny_params(1);
        params.initial_threshold = 260.0;
        let mut snn = SnnNetwork::new(2, 2, params, 5);
        snn.set_stdp_delta(300); // absurdly large to hit rails fast
        for i in 0..10 {
            snn.present_learn(&[255, 0], i);
        }
        assert_eq!(snn.weight(0, 0), 255);
        assert_eq!(snn.weight(0, 1), 0);
    }

    #[test]
    fn homeostasis_raises_threshold_of_hyperactive_neuron() {
        let mut params = tiny_params(1);
        params.initial_threshold = 300.0;
        // Tiny epoch: after 2 presentations (1000 ms) thresholds adjust.
        params.homeo_epoch_ms = 1000;
        params.homeo_threshold = 1; // any neuron firing >1 is "too active"
        let mut snn = SnnNetwork::new(4, 2, params, 6);
        let t0 = snn.thresholds()[0];
        for i in 0..6 {
            snn.present_learn(&[255u8; 4], i);
        }
        assert!(snn.thresholds()[0] > t0, "threshold should rise");
    }

    #[test]
    fn homeostasis_lowers_threshold_of_silent_neuron() {
        let mut params = tiny_params(1);
        params.initial_threshold = 1e6; // can't fire
        params.homeo_epoch_ms = 1000;
        params.homeo_threshold = 1;
        let mut snn = SnnNetwork::new(4, 2, params, 6);
        let t0 = snn.thresholds()[0];
        for i in 0..6 {
            snn.present_learn(&[255u8; 4], i);
        }
        assert!(snn.thresholds()[0] < t0, "threshold should fall");
    }

    #[test]
    fn self_labeling_assigns_labels_to_winning_neurons() {
        let (train, _) = DigitsSpec {
            train: 40,
            test: 0,
            seed: 8,
            difficulty: Difficulty::default(),
        }
        .generate();
        let mut snn = SnnNetwork::new(784, 10, tiny_params(12), 2);
        snn.train_stdp(&train, 1);
        snn.self_label(&train);
        assert!(
            snn.labels().iter().any(Option::is_some),
            "at least one neuron must win a label"
        );
    }

    #[test]
    fn evaluation_records_every_sample() {
        let (train, test) = DigitsSpec {
            train: 20,
            test: 10,
            seed: 8,
            difficulty: Difficulty::default(),
        }
        .generate();
        let mut snn = SnnNetwork::new(784, 10, tiny_params(10), 2);
        snn.self_label(&train);
        let confusion = snn.evaluate(&test);
        assert_eq!(confusion.total(), 10);
    }

    #[test]
    fn presentation_is_deterministic_given_seed() {
        let mk = || {
            let mut snn = SnnNetwork::new(16, 2, tiny_params(4), 9);
            snn.present(&[180u8; 16], 42)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    #[should_panic(expected = "does not match inputs")]
    fn rejects_wrong_pixel_count() {
        let mut snn = SnnNetwork::new(4, 2, tiny_params(2), 0);
        let _ = snn.present(&[0u8; 5], 0);
    }

    #[test]
    fn stuck_at_faults_corrupt_synapses_deterministically() {
        let mk = || SnnNetwork::new(16, 2, tiny_params(4), 9);
        let plan = FaultPlan::new(FaultModel::StuckAt1, 0.3, 77).unwrap();
        let mut a = mk();
        let mut b = mk();
        a.apply_fault(&plan).unwrap();
        b.apply_fault(&plan).unwrap();
        assert_eq!(a.weights(), b.weights());
        assert_ne!(a.weights(), mk().weights(), "a 30% plan must flip bits");
        // StuckAt1 can only set bits: every weight is >= the healthy one.
        for (faulty, healthy) in a.weights().iter().zip(mk().weights()) {
            assert_eq!(faulty & healthy, *healthy);
        }
    }

    #[test]
    fn full_dead_neuron_plan_silences_the_network() {
        let mut snn = SnnNetwork::new(8, 2, tiny_params(4), 1);
        snn.apply_fault(&FaultPlan::new(FaultModel::DeadNeuron, 1.0, 3).unwrap())
            .unwrap();
        assert!(snn.weights().iter().all(|&w| w == 0));
        let outcome = snn.present(&[255u8; 8], 0);
        assert!(outcome.winner.is_none(), "dead network must never fire");
    }

    #[test]
    fn transient_reads_perturb_presentations_but_not_storage() {
        let mut snn = SnnNetwork::new(16, 2, tiny_params(4), 9);
        let healthy_weights = snn.weights().to_vec();
        let healthy = snn.clone().present(&[180u8; 16], 42);
        snn.apply_fault(&FaultPlan::new(FaultModel::TransientRead, 1.0, 5).unwrap())
            .unwrap();
        let faulty = snn.present(&[180u8; 16], 42);
        assert_eq!(snn.weights(), healthy_weights, "storage must stay pristine");
        assert_ne!(
            healthy.potentials, faulty.potentials,
            "per-read flips at rate 1.0 must change the dynamics"
        );
        // The faulted read hook sees the same stored values in the same
        // order wherever it reads them from: the perturbed presentation
        // is pinned.
        assert_eq!(fnv(presentation_words(&faulty)), 0xba9a_f737_b18c_17f3);
    }

    #[test]
    fn stuck_tap_faults_change_rate_coded_presentations() {
        let plan = FaultPlan::new(FaultModel::StuckLfsrTap, 1.0, 4).unwrap();
        let mut snn = SnnNetwork::new(16, 2, tiny_params(4), 9);
        let healthy = snn.present(&[180u8; 16], 7);
        snn.apply_fault(&plan).unwrap();
        let faulty = snn.present(&[180u8; 16], 7);
        assert_ne!(healthy, faulty, "stuck taps must alter the spike trains");
        // Determinism: re-injecting into a fresh clone reproduces it.
        let mut again = SnnNetwork::new(16, 2, tiny_params(4), 9);
        let _ = again.present(&[180u8; 16], 7);
        again.apply_fault(&plan).unwrap();
        assert_eq!(again.present(&[180u8; 16], 7), faulty);
    }

    #[test]
    fn stuck_tap_faults_are_rejected_for_temporal_codes() {
        let mut snn = SnnNetwork::with_coding(16, 2, tiny_params(4), CodingScheme::RankOrder, 9);
        let plan = FaultPlan::new(FaultModel::StuckLfsrTap, 0.5, 4).unwrap();
        assert!(matches!(
            snn.apply_fault(&plan),
            Err(ModelError::FaultUnsupported { .. })
        ));
    }

    #[test]
    fn zero_rate_fault_plans_are_no_ops() {
        let mut snn = SnnNetwork::new(16, 2, tiny_params(4), 9);
        let healthy = snn.clone().present(&[180u8; 16], 42);
        for model in [
            FaultModel::StuckAt0,
            FaultModel::StuckAt1,
            FaultModel::DeadNeuron,
            FaultModel::TransientRead,
            FaultModel::StuckLfsrTap,
        ] {
            snn.apply_fault(&FaultPlan::new(model, 0.0, 1).unwrap())
                .unwrap();
        }
        assert_eq!(snn.present(&[180u8; 16], 42), healthy);
    }

    #[test]
    fn long_inter_spike_gap_decays_to_the_analytic_floor() {
        // Regression for the leak-tail bug: `dt` beyond the decay table
        // used to clamp to the last entry (a single e^{-Tperiod/Tleak}
        // factor), so a 10_000 ms silence leaked only as much as a
        // 500 ms one. Composing factors must reach the analytic value.
        let snn = SnnNetwork::new(2, 2, tiny_params(1), 3);
        let v = 1234.5;
        let gap = 10_000u64; // e^{-20} ≈ 2.06e-9 with Tleak = 500 ms
        let after = decay_with_lut(&snn.decay_lut, v, gap);
        assert!(after > 0.0);
        assert!(
            after < v * 1e-6,
            "a 20-Tleak gap must decay below 1e-6 of the pre-gap value, got {after}"
        );
        let analytic = v * (-(gap as f64) / snn.params().t_leak).exp();
        assert!(
            (after - analytic).abs() <= analytic * 1e-9,
            "composed {after} vs analytic {analytic}"
        );
    }

    #[test]
    fn in_table_gaps_use_the_single_lookup_bit_for_bit() {
        let snn = SnnNetwork::new(2, 2, tiny_params(1), 3);
        let v = 987.125;
        for dt in [1u64, 37, 250, 499] {
            let direct = v * snn.decay_lut[usize::try_from(dt).unwrap()];
            assert_eq!(decay_with_lut(&snn.decay_lut, v, dt), direct, "dt {dt}");
        }
    }

    #[test]
    fn fast_and_general_event_loops_are_bit_identical() {
        // `present` runs the event loop with no-op hooks;
        // `present_traced` feeds every update to the trace through the
        // kernel's update hook. Same seed → same outcome, bit for bit,
        // across a spread of images.
        let (train, _) = DigitsSpec {
            train: 12,
            test: 1,
            seed: 77,
            difficulty: Difficulty::default(),
        }
        .generate();
        let mut fast = SnnNetwork::new(784, 10, SnnParams::tuned(20), 0xFA57);
        let mut general = fast.clone();
        for (i, s) in train.iter().enumerate() {
            let a = fast.present(&s.pixels, i as u64);
            let trace = general.present_traced(&s.pixels, i as u64);
            assert_eq!(Some(&a), trace.outcome(), "presentation {i}");
        }
    }

    #[test]
    fn dark_image_readout_tie_break_is_seeded_not_index_biased() {
        // An all-dark image drives no spikes: every potential ends at
        // exactly 0.0, a full n-way tie. The old readout always returned
        // neuron 0; the seeded draw must spread across neurons while
        // staying deterministic per presentation seed.
        let mut snn = SnnNetwork::new(8, 2, tiny_params(8), 1);
        let picks: std::collections::BTreeSet<usize> = (0..64)
            .map(|i| snn.present(&[0u8; 8], i).readout())
            .collect();
        assert!(
            picks.len() > 1,
            "tie-break must not collapse onto one neuron: {picks:?}"
        );
        assert_eq!(
            snn.present(&[0u8; 8], 7).readout(),
            snn.present(&[0u8; 8], 7).readout(),
            "same presentation seed must give the same pick"
        );
    }

    #[test]
    fn streaming_winner_path_matches_the_event_loop() {
        // `predict` takes the streaming winner-only path; `present` runs
        // the full event loop. The readout must agree image for image —
        // which requires bit-identical winners AND (for no-fire images)
        // bit-identical final potentials, since exact-tie breaking feeds
        // off the raw f64 values. Exercised for both rate codes, with
        // and without a stuck-tap generator fault.
        let (train, test) = DigitsSpec {
            train: 30,
            test: 25,
            seed: 5,
            difficulty: Difficulty::default(),
        }
        .generate();
        for coding in [CodingScheme::PoissonRate, CodingScheme::GaussianRate] {
            let mut snn = SnnNetwork::with_coding(784, 10, SnnParams::tuned(16), coding, 0xBEEF);
            snn.set_stdp_delta(4);
            snn.train_stdp(&train, 1);
            snn.self_label(&train);
            let mut reference = snn.clone();
            let plan = FaultPlan::new(FaultModel::StuckLfsrTap, 0.7, 13).unwrap();
            for faulted in [false, true] {
                if faulted {
                    snn.apply_fault(&plan).unwrap();
                    reference.apply_fault(&plan).unwrap();
                }
                for (i, s) in test.iter().enumerate() {
                    let pseed = 0x51AE_0000 | i as u64;
                    let p = reference.present(&s.pixels, pseed);
                    let want = reference.labels()[p.readout()].unwrap_or(0);
                    assert_eq!(
                        snn.predict(&s.pixels, pseed),
                        want,
                        "{coding:?} image {i} faulted {faulted}"
                    );
                }
            }
        }
    }

    /// FNV-1a over the little-endian bytes of `words`.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for w in words {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    /// The fires and potential bits of a presentation, as digest words.
    fn presentation_words(p: &Presentation) -> impl Iterator<Item = u64> + '_ {
        let fires = p.fires.iter().flat_map(|&(t, j)| [u64::from(t), j as u64]);
        fires.chain(p.potentials.iter().map(|v| v.to_bits()))
    }

    #[test]
    fn generated_streaming_cases_match_the_event_loop() {
        // Drawn rate-coded networks, windows, thresholds, generator
        // faults and images: the streaming `predict` must read out the
        // neuron `present` does, and with no fire leave its potentials
        // bit for bit. Each neuron is labeled with its own index, so
        // `predict` returns the readout neuron itself. One digest per
        // case pins the readout, the fires and the potential bits.
        #[rustfmt::skip]
        const PINNED: [u64; 32] = [
            0xa3a0761e5e037af8, 0x029732a6667829c1, 0x90e96d15f284defb, 0x253eae8097d500a5,
            0x75f7134b01f99432, 0xcae8432913983460, 0x13ec5bfa89d4b9f4, 0xb325d5ce2d1c6ab6,
            0x5b7b71e931cffefd, 0x86f3ede21552c240, 0x23dace9ed576fbf3, 0x6e2db11fe95887b4,
            0x2f9e09e74e49c6e0, 0x1c9c34a2c3513c30, 0xf81f0b34cf005b6c, 0xbde19d5a739823f2,
            0xedd4f077f50b5c11, 0xc9813752f189e992, 0x29bad4880047ee1c, 0xdf12b3c57de4a8a4,
            0x3af94b1ffe5e44c4, 0xa3fbc743c3838a20, 0xd6c0a5101ae1cb78, 0x3a12e3078102dbe1,
            0xb4ebd79a4c52f0ce, 0x5639191965dafe59, 0x7ae5fdbc590f7f97, 0xe50f8b9055d42315,
            0xbefc1a22bcd35c64, 0xf244dbf13f54c326, 0x63e427a33a2db57e, 0x77a798f3fb5876de,
        ];
        nc_substrate::check::check_cases(0x5354_5245_414D_0001, 32, |case, rng| {
            let idx = usize::try_from(case).unwrap();
            let neurons = 4 + rng.next_index(29);
            let mut params = SnnParams::for_neurons(neurons);
            params.t_inhibit = 1 + u32::try_from(rng.next_below(6)).unwrap();
            params.t_refrac = 1 + u32::try_from(rng.next_below(25)).unwrap();
            let inputs = 16 + rng.next_index(65);
            // Log-uniform over five decades: below one weight the first
            // populated bucket fires; at the top nothing ever does.
            params.initial_threshold = 40.0 * 1e5f64.powf(rng.next_unit());
            let coding = [CodingScheme::PoissonRate, CodingScheme::GaussianRate][rng.next_index(2)];
            let mut net = SnnNetwork::with_coding(inputs, 10, params, coding, rng.next_u64());
            net.labels = (0..neurons).map(Some).collect();
            if rng.next_below(2) == 0 {
                let plan = FaultPlan::new(
                    FaultModel::StuckLfsrTap,
                    rng.next_range(0.05, 0.9),
                    rng.next_u64(),
                )
                .unwrap();
                net.apply_fault(&plan).unwrap();
            }
            let mut reference = net.clone();
            let mut img = SplitMix64::new(rng.next_u64());
            let pixels: Vec<u8> = (0..inputs)
                .map(|_| u8::try_from(img.next_below(256)).unwrap())
                .collect();
            let pseed = rng.next_u64();
            let predicted = net.predict(&pixels, pseed);
            let p = reference.present(&pixels, pseed);
            assert_eq!(predicted, p.readout(), "case {case}: readout");
            if p.winner.is_none() {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&net.sim.lif.potentials),
                    bits(&p.potentials),
                    "case {case}"
                );
            }
            let words = [predicted as u64].into_iter().chain(presentation_words(&p));
            assert_eq!(fnv(words), PINNED[idx], "case {case}: digest");
        });
    }

    #[test]
    fn streaming_no_fire_potentials_are_bit_identical() {
        // A sky-high threshold forces the no-winner branch on every
        // image, so the streaming path's committed potentials (the only
        // readout input left) must equal the event loop's exactly.
        let (_, test) = DigitsSpec {
            train: 1,
            test: 15,
            seed: 31,
            difficulty: Difficulty::default(),
        }
        .generate();
        let mut params = SnnParams::tuned(12);
        params.initial_threshold = 1e12;
        for coding in [CodingScheme::PoissonRate, CodingScheme::GaussianRate] {
            let mut streaming = SnnNetwork::with_coding(784, 10, params, coding, 0xCAFE);
            let mut reference = streaming.clone();
            for (i, s) in test.iter().enumerate() {
                let pseed = i as u64;
                let _ = streaming.predict(&s.pixels, pseed);
                let p = reference.present(&s.pixels, pseed);
                assert!(p.winner.is_none(), "threshold must be unreachable");
                assert_eq!(
                    streaming.sim.lif.potentials, p.potentials,
                    "{coding:?} image {i}"
                );
            }
        }
    }

    #[test]
    fn predictions_reuse_simulation_scratch() {
        // The documented zero-allocation steady state (unsafe is
        // forbidden workspace-wide, so no counting allocator): after a
        // warm-up presentation, the scratch buffers must keep their
        // addresses and capacities across further predictions.
        let mut snn = SnnNetwork::new(16, 2, tiny_params(4), 9);
        let _ = snn.predict(&[180u8; 16], 42);
        let potentials_ptr = snn.sim.lif.potentials.as_ptr();
        let last_update_ptr = snn.sim.lif.last_update.as_ptr();
        let events_cap = snn.sim.events.capacity();
        for _ in 0..20 {
            let _ = snn.predict(&[180u8; 16], 42);
        }
        assert_eq!(snn.sim.lif.potentials.as_ptr(), potentials_ptr);
        assert_eq!(snn.sim.lif.last_update.as_ptr(), last_update_ptr);
        assert_eq!(snn.sim.events.capacity(), events_cap);
    }

    #[test]
    fn transposed_weights_track_stdp_and_faults() {
        // The f64 mirror is the only column copy: every mutation site
        // (STDP under a non-default rule, stuck bits, dead neurons,
        // precision truncation) must leave it exact.
        fn assert_mirror(snn: &SnnNetwork, step: &str) {
            for j in 0..4 {
                for i in 0..8 {
                    assert_eq!(
                        snn.weights_t[i * 4 + j],
                        f64::from(snn.weight(j, i)),
                        "{step}: mirror out of sync at neuron {j}, input {i}"
                    );
                }
            }
        }
        let mut params = tiny_params(4);
        params.initial_threshold = 300.0;
        let mut snn = SnnNetwork::new(8, 2, params, 5);
        snn.set_stdp_rule(crate::stdp_rules::StdpRule::Exponential {
            delta: 6.0,
            tau: 20.0,
        });
        for i in 0..10 {
            snn.present_learn(&[255, 255, 255, 255, 0, 0, 0, 0], i);
        }
        assert_mirror(&snn, "stdp");
        snn.apply_fault(&FaultPlan::new(FaultModel::StuckAt1, 0.2, 7).unwrap())
            .unwrap();
        assert_mirror(&snn, "stuck-at-1");
        snn.apply_fault(&FaultPlan::new(FaultModel::DeadNeuron, 0.5, 3).unwrap())
            .unwrap();
        let dead = (0..4).filter(|&j| (0..8).all(|i| snn.weight(j, i) == 0));
        assert!(
            (1..4).contains(&dead.count()),
            "the dead-neuron plan must zero some rows and spare others"
        );
        assert_mirror(&snn, "dead neuron");
        snn.quantize_weights(6);
        assert_mirror(&snn, "quantize");
    }
}
