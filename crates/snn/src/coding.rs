//! Input spike-coding schemes (paper §3.1 and §5, Figure 14).
//!
//! The paper explores four rate-coding and two temporal-coding schemes
//! and reports that rate coding clearly wins on MNIST under STDP
//! (91.82% vs 82.14%). This module implements the representatives it
//! discusses:
//!
//! * [`CodingScheme::PoissonRate`] — the software model's code: each
//!   pixel becomes a Poisson train of rate proportional to luminance
//!   (max 20 Hz at luminance 255).
//! * [`CodingScheme::GaussianRate`] — the hardware code of SNNwt: spike
//!   intervals drawn from the CLT Gaussian generator (4 LFSRs); "the
//!   accuracy does not change noticeably with a Gaussian instead of a
//!   Poisson distribution" (§4.2.2).
//! * [`CodingScheme::RankOrder`] — temporal: each active pixel spikes
//!   once, ordered by decreasing luminance [Thorpe & Gautrais 1998].
//! * [`CodingScheme::TimeToFirstSpike`] — temporal: each active pixel
//!   spikes once at a latency inversely related to luminance.

use crate::params::SnnParams;
use nc_faults::{stuck_tap_for, FaultPlan};
use nc_substrate::fixed::sat_u32_trunc;
use nc_substrate::rng::{GaussianClt, PoissonInterval, SplitMix64};

/// One input spike: which input line fired and when (ms within the
/// presentation window).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpikeEvent {
    /// Time of the spike in ms, `0 <= t < Tperiod`.
    pub t: u32,
    /// Index of the input (pixel) that spiked.
    pub input: usize,
}

/// An input spike-coding scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodingScheme {
    /// Poisson rate code: rate ∝ luminance, max 20 Hz.
    PoissonRate,
    /// Gaussian-interval rate code (the hardware SNNwt generator).
    GaussianRate,
    /// Rank-order temporal code: one spike per active pixel, ordered by
    /// decreasing luminance across the presentation window.
    RankOrder,
    /// Time-to-first-spike temporal code: one spike per active pixel at
    /// latency `Tperiod·(1 − p/255)`.
    TimeToFirstSpike,
}

impl CodingScheme {
    /// Whether the scheme is a rate code (multiple spikes per pixel).
    pub fn is_rate_code(&self) -> bool {
        matches!(self, CodingScheme::PoissonRate | CodingScheme::GaussianRate)
    }

    /// Encodes an image into a time-sorted spike train for one
    /// presentation window.
    ///
    /// `seed` individualizes the stochastic generators per presentation;
    /// temporal codes are deterministic and ignore it.
    pub fn encode(&self, pixels: &[u8], params: &SnnParams, seed: u64) -> Vec<SpikeEvent> {
        self.encode_faulty(pixels, params, seed, None)
    }

    /// Like [`CodingScheme::encode`], but with an optional `StuckLfsrTap`
    /// fault plan over the per-pixel interval generators: each faulty
    /// pixel's generator is built with its `x^3` tap stuck
    /// ([`nc_substrate::rng::Lfsr31::with_stuck_tap`]). Which generators
    /// are faulty is a per-pixel property of the plan, not of the
    /// presentation, so a defective chip stays defective across images.
    /// Healthy pixels draw exactly the seeds they would without the plan,
    /// and temporal codes (no generators) ignore it entirely.
    pub fn encode_faulty(
        &self,
        pixels: &[u8],
        params: &SnnParams,
        seed: u64,
        gen_fault: Option<&FaultPlan>,
    ) -> Vec<SpikeEvent> {
        let mut events = Vec::new();
        self.encode_faulty_into(pixels, params, seed, gen_fault, &mut events);
        events
    }

    /// Like [`CodingScheme::encode_faulty`], but encodes into `events`
    /// (cleared first) so steady-state presentation loops reuse one
    /// buffer instead of allocating a fresh spike train per image. The
    /// rate codes and time-to-first-spike push straight into the buffer;
    /// rank-order additionally sorts a small internal index vector (it
    /// is not on the rate-coded hot path).
    pub fn encode_faulty_into(
        &self,
        pixels: &[u8],
        params: &SnnParams,
        seed: u64,
        gen_fault: Option<&FaultPlan>,
        events: &mut Vec<SpikeEvent>,
    ) {
        events.clear();
        match self {
            CodingScheme::PoissonRate => poisson_rate(pixels, params, seed, gen_fault, events),
            CodingScheme::GaussianRate => gaussian_rate(pixels, params, seed, gen_fault, events),
            CodingScheme::RankOrder => rank_order(pixels, params, events),
            CodingScheme::TimeToFirstSpike => time_to_first_spike(pixels, params, events),
        }
        // Unstable sort: equal `(t, input)` keys only arise between
        // identical events, so the order is fully determined and the
        // stable sort's scratch allocation is avoided.
        events.sort_unstable_by_key(|e| (e.t, e.input));
    }

    /// The expected total spike count for an image under this scheme
    /// (used by tests and by threshold scaling).
    pub fn expected_spikes(&self, pixels: &[u8], params: &SnnParams) -> f64 {
        match self {
            CodingScheme::PoissonRate | CodingScheme::GaussianRate => pixels
                .iter()
                .map(|&p| params.rate_per_ms(p) * f64::from(params.t_period))
                .sum(),
            CodingScheme::RankOrder | CodingScheme::TimeToFirstSpike => {
                pixels.iter().filter(|&&p| p >= ACTIVE_THRESHOLD).count() as f64
            }
        }
    }

    /// A reasonable initial firing threshold for this scheme: temporal
    /// codes deliver ~10× fewer spikes than rate codes, so the Table 1
    /// threshold is scaled accordingly (homeostasis then fine-tunes).
    pub fn initial_threshold(&self, params: &SnnParams) -> f64 {
        if self.is_rate_code() {
            params.initial_threshold
        } else {
            params.initial_threshold / f64::from(params.max_spikes_per_pixel())
        }
    }
}

/// Pixels below this luminance are silent under the temporal codes.
pub const ACTIVE_THRESHOLD: u8 = 32;

fn poisson_rate(
    pixels: &[u8],
    params: &SnnParams,
    seed: u64,
    gen_fault: Option<&FaultPlan>,
    events: &mut Vec<SpikeEvent>,
) {
    let mut sm = SplitMix64::new(seed);
    for (input, &p) in pixels.iter().enumerate() {
        let rate = params.rate_per_ms(p);
        if rate <= 0.0 {
            continue;
        }
        let gen_seed = sm.next_seed32();
        let pixel = u64::try_from(input).unwrap_or(u64::MAX);
        let mut gen = match gen_fault.and_then(|plan| stuck_tap_for(plan, pixel)) {
            Some(stuck) => PoissonInterval::with_stuck_tap(gen_seed, stuck),
            None => PoissonInterval::new(gen_seed),
        };
        let mut t = 0.0f64;
        loop {
            let dt = gen.sample_interval(rate);
            t += dt;
            if !t.is_finite() || t >= f64::from(params.t_period) {
                break;
            }
            events.push(SpikeEvent {
                t: sat_u32_trunc(t),
                input,
            });
        }
    }
}

fn gaussian_rate(
    pixels: &[u8],
    params: &SnnParams,
    seed: u64,
    gen_fault: Option<&FaultPlan>,
    events: &mut Vec<SpikeEvent>,
) {
    let mut sm = SplitMix64::new(seed ^ 0x6A05_5150);
    for (input, &p) in pixels.iter().enumerate() {
        let rate = params.rate_per_ms(p);
        if rate <= 0.0 {
            continue;
        }
        // Interval counters decremented every cycle, reloaded from the
        // CLT generator; mean = 1/rate, std = mean/3 keeps intervals
        // positive within the generator's bounded support.
        let mean = 1.0 / rate;
        let std = mean / 3.0;
        let gen_seed = sm.next_u64();
        let pixel = u64::try_from(input).unwrap_or(u64::MAX);
        let mut gen = match gen_fault.and_then(|plan| stuck_tap_for(plan, pixel)) {
            Some(stuck) => GaussianClt::with_stuck_tap(gen_seed, stuck),
            None => GaussianClt::new(gen_seed),
        };
        let mut t = 0u64;
        loop {
            let dt = gen.sample_interval_ms(mean, std);
            t += u64::from(dt);
            if t >= u64::from(params.t_period) {
                break;
            }
            events.push(SpikeEvent {
                t: u32::try_from(t).unwrap_or(u32::MAX),
                input,
            });
        }
    }
}

fn rank_order(pixels: &[u8], params: &SnnParams, events: &mut Vec<SpikeEvent>) {
    // Active pixels sorted by decreasing luminance; ties broken by index
    // so the code is deterministic.
    let mut active: Vec<(u8, usize)> = pixels
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p >= ACTIVE_THRESHOLD)
        .map(|(i, &p)| (p, i))
        .collect();
    active.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let n = active.len().max(1) as f64;
    events.extend(
        active
            .iter()
            .enumerate()
            .map(|(rank, &(_, input))| SpikeEvent {
                // Spread ranks over the first half of the window so late
                // ranks still precede readout.
                t: sat_u32_trunc((rank as f64 / n) * f64::from(params.t_period) * 0.5),
                input,
            }),
    );
}

fn time_to_first_spike(pixels: &[u8], params: &SnnParams, events: &mut Vec<SpikeEvent>) {
    events.extend(
        pixels
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p >= ACTIVE_THRESHOLD)
            .map(|(input, &p)| {
                let latency = (1.0 - f64::from(p) / 255.0) * f64::from(params.t_period - 1);
                SpikeEvent {
                    t: sat_u32_trunc(latency),
                    input,
                }
            }),
    );
}

/// Streaming generator state for one rate-coded pixel (see
/// [`RateStreams`]).
#[derive(Debug, Clone)]
enum PixelGen {
    /// The software model's exponential-interval sampler.
    Poisson {
        gen: PoissonInterval,
        /// Cumulative spike time (exact, sub-millisecond).
        t: f64,
        rate: f64,
    },
    /// The hardware CLT interval generator.
    Gaussian {
        gen: GaussianClt,
        /// Cumulative spike time in whole milliseconds.
        t: u64,
        mean: f64,
        std: f64,
    },
}

/// The rate codes, spike by spike, without materializing the train.
///
/// [`poisson_rate`] and [`gaussian_rate`] collect every event into one
/// vector and sort it by `(time, input)` — fine for learning (STDP
/// needs the whole train) but wasteful for inference, where the
/// consumer buckets events by millisecond anyway. `RateStreams` holds
/// the same per-pixel generators open so a consumer can drain a pixel
/// straight into its own data structure ([`RateStreams::drain_spikes`])
/// with no intermediate event vector and no sort.
///
/// Equivalence with the eager encoders is by construction: generator
/// seeds are drawn from the master [`SplitMix64`] stream in pixel order
/// (skipping dark pixels), exactly as the eager loops draw them, and
/// each iteration of [`RateStreams::drain_spikes`] is one iteration of
/// the eager loop's body — so stream `k` emits bit-for-bit the spike
/// times the eager encoder emits for the same pixel, in the same order.
#[derive(Debug, Clone, Default)]
pub struct RateStreams {
    /// Input (pixel) index of each live stream, ascending.
    inputs: Vec<usize>,
    gens: Vec<PixelGen>,
    t_period: u32,
}

impl RateStreams {
    /// Rebuilds the streams for one presentation, reusing the internal
    /// buffers (allocation-free once warm). Returns `false` — leaving no
    /// streams — for the temporal codes, which have no per-pixel
    /// generators to stream. The `gen_fault` plan degrades exactly the
    /// generators [`CodingScheme::encode_faulty`] would degrade.
    pub fn rebuild(
        &mut self,
        scheme: CodingScheme,
        pixels: &[u8],
        params: &SnnParams,
        seed: u64,
        gen_fault: Option<&FaultPlan>,
    ) -> bool {
        self.inputs.clear();
        self.gens.clear();
        self.t_period = params.t_period;
        match scheme {
            CodingScheme::PoissonRate => {
                let mut sm = SplitMix64::new(seed);
                for (input, &p) in pixels.iter().enumerate() {
                    let rate = params.rate_per_ms(p);
                    if rate <= 0.0 {
                        continue;
                    }
                    let gen_seed = sm.next_seed32();
                    let pixel = u64::try_from(input).unwrap_or(u64::MAX);
                    let gen = match gen_fault.and_then(|plan| stuck_tap_for(plan, pixel)) {
                        Some(stuck) => PoissonInterval::with_stuck_tap(gen_seed, stuck),
                        None => PoissonInterval::new(gen_seed),
                    };
                    self.inputs.push(input);
                    self.gens.push(PixelGen::Poisson { gen, t: 0.0, rate });
                }
                true
            }
            CodingScheme::GaussianRate => {
                let mut sm = SplitMix64::new(seed ^ 0x6A05_5150);
                for (input, &p) in pixels.iter().enumerate() {
                    let rate = params.rate_per_ms(p);
                    if rate <= 0.0 {
                        continue;
                    }
                    let mean = 1.0 / rate;
                    let std = mean / 3.0;
                    let gen_seed = sm.next_u64();
                    let pixel = u64::try_from(input).unwrap_or(u64::MAX);
                    let gen = match gen_fault.and_then(|plan| stuck_tap_for(plan, pixel)) {
                        Some(stuck) => GaussianClt::with_stuck_tap(gen_seed, stuck),
                        None => GaussianClt::new(gen_seed),
                    };
                    self.inputs.push(input);
                    self.gens.push(PixelGen::Gaussian {
                        gen,
                        t: 0,
                        mean,
                        std,
                    });
                }
                true
            }
            CodingScheme::RankOrder | CodingScheme::TimeToFirstSpike => false,
        }
    }

    /// Number of live streams (pixels with a nonzero rate).
    pub fn len(&self) -> usize {
        self.gens.len()
    }

    /// Whether no pixel streams (an all-dark image, or a temporal code).
    pub fn is_empty(&self) -> bool {
        self.gens.is_empty()
    }

    /// The input (pixel) index stream `k` feeds. Streams are ordered by
    /// ascending input, so sorting stream indices sorts inputs.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn input(&self, k: usize) -> usize {
        self.inputs[k]
    }

    /// Drains stream `k` to exhaustion, invoking `emit` with each spike
    /// time (whole ms within the window) in order. Times are
    /// non-decreasing; repeated times are genuine duplicate events (two
    /// sub-millisecond Poisson intervals landing in one bucket). The
    /// generator state stays in locals for the whole loop. The streaming
    /// inference path fills its whole per-millisecond calendar this way:
    /// spikes after the first output fire are rarely needed, but
    /// generating them costs less than pulling spikes one at a time. A
    /// drained stream emits nothing more.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn drain_spikes(&mut self, k: usize, mut emit: impl FnMut(u32)) {
        match &mut self.gens[k] {
            PixelGen::Poisson { gen, t, rate } => {
                let period = f64::from(self.t_period);
                let mut time = *t;
                loop {
                    time += gen.sample_interval(*rate);
                    if !time.is_finite() || time >= period {
                        break;
                    }
                    emit(sat_u32_trunc(time));
                }
                // An infinite `time` (dark-adjacent rate underflow)
                // persists, so the stream stays exhausted.
                *t = time;
            }
            PixelGen::Gaussian { gen, t, mean, std } => {
                let period = u64::from(self.t_period);
                let mut time = *t;
                loop {
                    time += u64::from(gen.sample_interval_ms(*mean, *std));
                    if time >= period {
                        break;
                    }
                    emit(u32::try_from(time).unwrap_or(u32::MAX));
                }
                *t = time;
            }
        }
    }
}

/// The SNNwot spike-count conversion (paper §4.2.2): an 8-bit pixel maps
/// to a 4-bit spike count `0..=10` via the comparator ladder of Figure 7.
///
/// The hardware compares the pixel against 9 fixed levels; this is
/// numerically `round(10·p/255)` with the same staircase.
pub fn wot_spike_count(p: u8) -> u8 {
    // Comparator thresholds from Figure 7: 50,63,127,169,200,225,250,254,255
    // produce a non-uniform staircase in silicon; we use the uniform
    // staircase with the same endpoints (0→0, 255→10), which the encoder
    // (9→4) approximates.
    u8::try_from((u32::from(p) * 10 + 127) / 255).unwrap_or(u8::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn px() -> Vec<u8> {
        let mut v = vec![0u8; 64];
        for (i, p) in v.iter_mut().enumerate() {
            *p = (i * 4) as u8;
        }
        v
    }

    #[test]
    fn poisson_spike_count_tracks_luminance() {
        let params = SnnParams::for_neurons(10);
        let bright = vec![255u8; 10];
        let dim = vec![64u8; 10];
        let mut bright_total = 0usize;
        let mut dim_total = 0usize;
        for seed in 0..20 {
            bright_total += CodingScheme::PoissonRate
                .encode(&bright, &params, seed)
                .len();
            dim_total += CodingScheme::PoissonRate.encode(&dim, &params, seed).len();
        }
        assert!(
            bright_total > dim_total * 2,
            "{bright_total} vs {dim_total}"
        );
        // 10 pixels × ~10 spikes × 20 seeds ≈ 2000
        assert!(bright_total > 1200 && bright_total < 2800, "{bright_total}");
    }

    #[test]
    fn dark_pixels_never_spike() {
        let params = SnnParams::for_neurons(10);
        let dark = vec![0u8; 100];
        for scheme in [
            CodingScheme::PoissonRate,
            CodingScheme::GaussianRate,
            CodingScheme::RankOrder,
            CodingScheme::TimeToFirstSpike,
        ] {
            assert!(scheme.encode(&dark, &params, 1).is_empty(), "{scheme:?}");
        }
    }

    #[test]
    fn events_are_time_sorted_and_in_window() {
        let params = SnnParams::for_neurons(10);
        for scheme in [
            CodingScheme::PoissonRate,
            CodingScheme::GaussianRate,
            CodingScheme::RankOrder,
            CodingScheme::TimeToFirstSpike,
        ] {
            let ev = scheme.encode(&px(), &params, 3);
            assert!(ev.windows(2).all(|w| w[0].t <= w[1].t), "{scheme:?}");
            assert!(ev.iter().all(|e| e.t < params.t_period), "{scheme:?}");
        }
    }

    #[test]
    fn temporal_codes_spike_once_per_active_pixel() {
        let params = SnnParams::for_neurons(10);
        let pixels = px();
        let active = pixels.iter().filter(|&&p| p >= ACTIVE_THRESHOLD).count();
        for scheme in [CodingScheme::RankOrder, CodingScheme::TimeToFirstSpike] {
            let ev = scheme.encode(&pixels, &params, 0);
            assert_eq!(ev.len(), active, "{scheme:?}");
            let mut inputs: Vec<usize> = ev.iter().map(|e| e.input).collect();
            inputs.sort_unstable();
            inputs.dedup();
            assert_eq!(inputs.len(), active, "{scheme:?} duplicated a pixel");
        }
    }

    #[test]
    fn rank_order_orders_by_luminance() {
        let params = SnnParams::for_neurons(10);
        let pixels = vec![40u8, 200, 120];
        let ev = CodingScheme::RankOrder.encode(&pixels, &params, 0);
        let order: Vec<usize> = ev.iter().map(|e| e.input).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn ttfs_brighter_is_earlier() {
        let params = SnnParams::for_neurons(10);
        let pixels = vec![255u8, 128];
        let ev = CodingScheme::TimeToFirstSpike.encode(&pixels, &params, 0);
        let t_bright = ev.iter().find(|e| e.input == 0).unwrap().t;
        let t_dim = ev.iter().find(|e| e.input == 1).unwrap().t;
        assert!(t_bright < t_dim);
    }

    #[test]
    fn gaussian_and_poisson_have_similar_volume() {
        // §4.2.2: Gaussian replaces Poisson "without noticeable accuracy
        // change" — first-order check: similar total spike counts.
        let params = SnnParams::for_neurons(10);
        let pixels = vec![200u8; 50];
        let mut po = 0usize;
        let mut ga = 0usize;
        for seed in 0..10 {
            po += CodingScheme::PoissonRate
                .encode(&pixels, &params, seed)
                .len();
            ga += CodingScheme::GaussianRate
                .encode(&pixels, &params, seed)
                .len();
        }
        let ratio = po as f64 / ga as f64;
        assert!(ratio > 0.7 && ratio < 1.4, "ratio {ratio}");
    }

    #[test]
    fn wot_spike_count_matches_staircase() {
        assert_eq!(wot_spike_count(0), 0);
        assert_eq!(wot_spike_count(255), 10);
        assert_eq!(wot_spike_count(128), 5);
        // Monotone non-decreasing over the full range.
        let mut prev = 0;
        for p in 0..=255u8 {
            let c = wot_spike_count(p);
            assert!(c >= prev && c <= 10);
            prev = c;
        }
    }

    #[test]
    fn drained_streams_reproduce_the_eager_encoders() {
        use nc_faults::{FaultModel, FaultPlan};
        let params = SnnParams::for_neurons(10);
        let plan = FaultPlan::new(FaultModel::StuckLfsrTap, 0.6, 21).unwrap();
        for scheme in [CodingScheme::PoissonRate, CodingScheme::GaussianRate] {
            for fault in [None, Some(&plan)] {
                for seed in [0u64, 7, 0xDEAD_BEEF] {
                    let eager = scheme.encode_faulty(&px(), &params, seed, fault);
                    let mut streams = RateStreams::default();
                    assert!(streams.rebuild(scheme, &px(), &params, seed, fault));
                    let mut bulk = Vec::new();
                    for k in 0..streams.len() {
                        let input = streams.input(k);
                        streams.drain_spikes(k, |t| bulk.push(SpikeEvent { t, input }));
                    }
                    bulk.sort_unstable_by_key(|e| (e.t, e.input));
                    assert_eq!(
                        bulk,
                        eager,
                        "bulk {scheme:?} seed {seed} fault {:?}",
                        fault.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn temporal_codes_do_not_stream() {
        let params = SnnParams::for_neurons(10);
        let mut streams = RateStreams::default();
        for scheme in [CodingScheme::RankOrder, CodingScheme::TimeToFirstSpike] {
            assert!(!streams.rebuild(scheme, &px(), &params, 3, None));
            assert!(streams.is_empty(), "{scheme:?}");
        }
    }

    #[test]
    fn temporal_threshold_is_scaled_down() {
        let params = SnnParams::paper();
        assert!(
            CodingScheme::RankOrder.initial_threshold(&params)
                < CodingScheme::PoissonRate.initial_threshold(&params)
        );
    }
}
