//! # nc-faults
//!
//! Deterministic hardware fault models over the quantized state the
//! paper's accelerators actually hold in silicon: 8-bit synaptic weights
//! in SRAM, LIF neuron circuits, and the LFSR-based spike-interval
//! generators (paper §4.2). The crate answers the question the paper's
//! Section-7 discussion gestures at but never measures — which family
//! degrades more gracefully when the *hardware itself* is faulty?
//!
//! Every fault model is seeded: a [`FaultPlan`] carries `(model, rate,
//! seed)` and two identical plans applied to identical state produce
//! bit-identical outcomes, on any thread count. The determinism contract
//! is the same as the experiment engine's: randomness is owned by the
//! plan, never drawn from the environment.
//!
//! Fault taxonomy (see DESIGN.md "Fault model"):
//!
//! * [`FaultModel::StuckAt0`] / [`FaultModel::StuckAt1`] — permanent
//!   manufacturing defects: each weight-memory *bit* is independently
//!   stuck at a rail with probability `rate`, applied once via
//!   [`stuck_bits_u8`] / [`stuck_bits_i8`].
//! * [`FaultModel::DeadNeuron`] — a neuron circuit stuck at reset: each
//!   unit is independently dead with probability `rate`
//!   ([`dead_unit_mask`]); a dead unit's output contribution is zero
//!   forever.
//! * [`FaultModel::TransientRead`] — soft errors on the SRAM read port:
//!   every weight *read* independently flips one uniformly-chosen bit
//!   with probability `rate` ([`TransientReads`]). The stored word is
//!   unharmed; only the value seen by the datapath is corrupted.
//! * [`FaultModel::StuckLfsrTap`] — a stuck feedback tap in the
//!   spike-interval generators (`Lfsr31::with_stuck_tap` in
//!   `nc-substrate`): with probability `rate` a per-pixel generator is
//!   built with its `x^3` tap stuck ([`stuck_tap_for`]).
//! * [`FaultModel::DeadLink`] / [`FaultModel::DeadRouter`] — broken
//!   mesh-fabric components on a many-core deployment: each directional
//!   inter-core link (or each core's router) is independently dead with
//!   probability `rate` ([`dead_link_mask`] / [`dead_router_mask`]).
//!   Spike packets that would traverse a dead component are dropped in
//!   flight; the neuron state they would have updated is untouched.
//!   These models act on the routing fabric only, so they are inert
//!   no-ops on single-core (dense) substrates.
//!
//! # Examples
//!
//! ```
//! use nc_faults::{FaultModel, FaultPlan, stuck_bits_u8};
//!
//! let plan = FaultPlan::new(FaultModel::StuckAt1, 0.05, 42).unwrap();
//! let mut weights = vec![0u8; 64];
//! let forced = stuck_bits_u8(&mut weights, &plan);
//! assert!(forced > 0); // some bits are now stuck high
//! let mut again = vec![0u8; 64];
//! stuck_bits_u8(&mut again, &plan);
//! assert_eq!(weights, again); // same plan => same defect pattern
//! ```

mod chaos;

pub use chaos::ChaosPlan;

use nc_substrate::SplitMix64;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The kinds of hardware fault the subsystem can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultModel {
    /// Permanent stuck-at-0 weight-memory bits.
    StuckAt0,
    /// Permanent stuck-at-1 weight-memory bits.
    StuckAt1,
    /// Neuron circuits stuck at reset (zero output contribution).
    DeadNeuron,
    /// Transient single-bit flips on each weight read.
    TransientRead,
    /// Stuck `x^3` feedback taps in the spike-interval LFSRs.
    StuckLfsrTap,
    /// Dead directional inter-core mesh links (packets dropped at the
    /// broken hop). Fabric-only: inert on single-core substrates.
    DeadLink,
    /// Dead mesh routers (a core's router drops every packet that is
    /// forwarded *through* it). Fabric-only: inert on single-core
    /// substrates.
    DeadRouter,
}

impl FaultModel {
    /// Every fault model, in sweep order.
    pub const ALL: [FaultModel; 7] = [
        FaultModel::StuckAt0,
        FaultModel::StuckAt1,
        FaultModel::DeadNeuron,
        FaultModel::TransientRead,
        FaultModel::StuckLfsrTap,
        FaultModel::DeadLink,
        FaultModel::DeadRouter,
    ];

    /// Stable machine-readable name (CSV column value).
    pub fn name(self) -> &'static str {
        match self {
            FaultModel::StuckAt0 => "stuck_at_0",
            FaultModel::StuckAt1 => "stuck_at_1",
            FaultModel::DeadNeuron => "dead_neuron",
            FaultModel::TransientRead => "transient_read",
            FaultModel::StuckLfsrTap => "stuck_lfsr_tap",
            FaultModel::DeadLink => "dead_link",
            FaultModel::DeadRouter => "dead_router",
        }
    }

    /// `true` for the routing-fabric models ([`FaultModel::DeadLink`],
    /// [`FaultModel::DeadRouter`]) that only have an effect on meshed
    /// substrates and are inert everywhere else.
    pub fn is_fabric(self) -> bool {
        matches!(self, FaultModel::DeadLink | FaultModel::DeadRouter)
    }
}

impl fmt::Display for FaultModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors from constructing or applying a fault plan.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// The fault rate was outside `[0, 1]` or not finite.
    BadRate(f64),
    /// A chaos plan's burst window does not fit its period.
    BadBurst {
        /// The configured burst period in virtual ticks.
        period: u64,
        /// The configured burst width in virtual ticks.
        width: u64,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::BadRate(rate) => {
                write!(f, "fault rate {rate} must be a finite value in [0, 1]")
            }
            FaultError::BadBurst { period, width } => {
                write!(
                    f,
                    "burst width {width} must be in 1..={period} (the burst period)"
                )
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// One fully-specified fault injection: what kind of fault, how often,
/// and the seed that makes the defect pattern reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Which physical fault to model.
    pub model: FaultModel,
    /// Per-site fault probability in `[0, 1]` (per bit, per neuron, per
    /// read, or per generator depending on `model`).
    pub rate: f64,
    /// Seed for the defect pattern; two plans with equal fields inject
    /// bit-identical faults.
    pub seed: u64,
}

impl FaultPlan {
    /// Builds a validated plan. Returns [`FaultError::BadRate`] unless
    /// `rate` is finite and in `[0, 1]`.
    pub fn new(model: FaultModel, rate: f64, seed: u64) -> Result<Self, FaultError> {
        let plan = FaultPlan { model, rate, seed };
        plan.validate()?;
        Ok(plan)
    }

    /// Re-checks the rate invariant (useful when the struct was built
    /// literally rather than through [`FaultPlan::new`]).
    pub fn validate(&self) -> Result<(), FaultError> {
        if self.rate.is_finite() && (0.0..=1.0).contains(&self.rate) {
            Ok(())
        } else {
            Err(FaultError::BadRate(self.rate))
        }
    }

    /// Derives a decorrelated [`SplitMix64`] stream for one injection
    /// site. Different `salt`s (e.g. layer indices) give independent
    /// defect patterns from the same plan seed.
    pub fn stream(&self, salt: u64) -> SplitMix64 {
        let mut sm = SplitMix64::new(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Burn one word so plans whose seed equals the mixed salt of
        // another plan still diverge immediately.
        let first = sm.next_u64();
        SplitMix64::new(first)
    }

    /// Returns the same plan re-seeded for one injection site (e.g. one
    /// layer of a multi-layer network), so repeated helper calls on
    /// different sites draw independent defect patterns.
    #[must_use]
    pub fn for_site(&self, salt: u64) -> FaultPlan {
        let mut sm = self.stream(salt.wrapping_add(0x5EED));
        FaultPlan {
            model: self.model,
            rate: self.rate,
            seed: sm.next_u64(),
        }
    }
}

fn bernoulli(rng: &mut SplitMix64, rate: f64) -> bool {
    rng.next_unit() < rate
}

/// Applies permanent stuck-at faults to a slice of 8-bit weight words:
/// each bit is independently stuck with probability `plan.rate`, at the
/// rail chosen by `plan.model` (`StuckAt0` clears, `StuckAt1` sets;
/// other models are a no-op). Returns the number of bits forced.
pub fn stuck_bits_u8(words: &mut [u8], plan: &FaultPlan) -> usize {
    let level_high = match plan.model {
        FaultModel::StuckAt0 => false,
        FaultModel::StuckAt1 => true,
        _ => return 0,
    };
    let mut rng = plan.stream(0);
    let mut forced = 0;
    for word in words.iter_mut() {
        for bit in 0..8u8 {
            if bernoulli(&mut rng, plan.rate) {
                let mask = 1u8 << bit;
                if level_high {
                    *word |= mask;
                } else {
                    *word &= !mask;
                }
                forced += 1;
            }
        }
    }
    forced
}

/// [`stuck_bits_u8`] over signed 8-bit weights (the quantized MLP's
/// two's-complement registers): the bit pattern is reinterpreted, stuck,
/// and reinterpreted back, exactly as the SRAM cell would behave.
pub fn stuck_bits_i8(words: &mut [i8], plan: &FaultPlan) -> usize {
    let mut raw: Vec<u8> = words.iter().map(|w| w.to_ne_bytes()[0]).collect();
    let forced = stuck_bits_u8(&mut raw, plan);
    for (word, byte) in words.iter_mut().zip(raw) {
        *word = i8::from_ne_bytes([byte]);
    }
    forced
}

/// Selects dead units: entry `i` is `true` when unit `i`'s circuit is
/// stuck at reset. Each of the `n` units dies independently with
/// probability `plan.rate` (no-op mask for non-`DeadNeuron` models).
pub fn dead_unit_mask(n: usize, plan: &FaultPlan) -> Vec<bool> {
    if plan.model != FaultModel::DeadNeuron {
        return vec![false; n];
    }
    let mut rng = plan.stream(1);
    (0..n).map(|_| bernoulli(&mut rng, plan.rate)).collect()
}

/// Selects dead directional mesh links: entry `l` is `true` when link
/// `l` drops every packet. Each of the `n` links dies independently with
/// probability `plan.rate` (no-op mask for non-`DeadLink` models). Link
/// numbering is owned by the mesh substrate (`nc-hw`); the mask only
/// fixes *which* indices die for a given plan.
pub fn dead_link_mask(n: usize, plan: &FaultPlan) -> Vec<bool> {
    if plan.model != FaultModel::DeadLink {
        return vec![false; n];
    }
    let mut rng = plan.stream(4);
    (0..n).map(|_| bernoulli(&mut rng, plan.rate)).collect()
}

/// Selects dead mesh routers: entry `r` is `true` when core `r`'s router
/// drops every packet forwarded through it. Each of the `n` routers dies
/// independently with probability `plan.rate` (no-op mask for
/// non-`DeadRouter` models).
pub fn dead_router_mask(n: usize, plan: &FaultPlan) -> Vec<bool> {
    if plan.model != FaultModel::DeadRouter {
        return vec![false; n];
    }
    let mut rng = plan.stream(5);
    (0..n).map(|_| bernoulli(&mut rng, plan.rate)).collect()
}

/// Decides, for the `pixel`-th spike-interval generator, whether its
/// LFSR tap is stuck and at which level. Returns `Some(stuck_high)` with
/// probability `plan.rate` (level chosen by a second coin), `None` for a
/// healthy generator or a non-`StuckLfsrTap` model. Deterministic per
/// `(plan, pixel)` — the same generator is faulty on every presentation,
/// as a manufacturing defect would be.
pub fn stuck_tap_for(plan: &FaultPlan, pixel: u64) -> Option<bool> {
    if plan.model != FaultModel::StuckLfsrTap {
        return None;
    }
    let mut rng = plan.stream(2u64.wrapping_add(pixel.wrapping_mul(2)));
    if bernoulli(&mut rng, plan.rate) {
        Some(rng.next_u64() & 1 == 1)
    } else {
        None
    }
}

/// Transient SRAM read-port faults: every `read_*` call independently
/// flips one uniformly-chosen bit of the value with probability `rate`.
///
/// The state lives behind a `Mutex` so read paths that take `&self`
/// (the hardware-faithful inference paths) can draw from the fault
/// stream while a model carrying one stays `Send + Sync` (a compiled
/// model can be shared by reference across engine workers that each
/// clone it). Each model instance owns its stream, so engine
/// determinism is preserved; the lock is only taken by an active port.
#[derive(Debug)]
pub struct TransientReads {
    rate: f64,
    rng: Mutex<SplitMix64>,
}

impl TransientReads {
    /// The fault stream. A `SplitMix64` is valid after every step, so a
    /// lock poisoned by a panicking reader still guards a usable stream.
    fn stream(&self) -> MutexGuard<'_, SplitMix64> {
        self.rng.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for TransientReads {
    fn clone(&self) -> Self {
        TransientReads {
            rate: self.rate,
            rng: Mutex::new(self.stream().clone()),
        }
    }
}

impl PartialEq for TransientReads {
    fn eq(&self, other: &Self) -> bool {
        // `a == a` must not lock the same port twice.
        std::ptr::eq(self, other) || (self.rate == other.rate && *self.stream() == *other.stream())
    }
}

impl TransientReads {
    /// Builds an active fault stream from a plan (rate 0 — and any
    /// non-`TransientRead` model — yields the disabled stream).
    pub fn from_plan(plan: &FaultPlan) -> Self {
        if plan.model != FaultModel::TransientRead {
            return TransientReads::disabled();
        }
        TransientReads {
            rate: plan.rate,
            rng: Mutex::new(plan.stream(3)),
        }
    }

    /// A permanently healthy read port (the default for every model).
    pub fn disabled() -> Self {
        /// The stream behind a disabled port is never drawn from (rate
        /// is 0.0), so its seed only has to be a fixed, named value.
        const DISABLED_PORT_SEED: u64 = 0;
        TransientReads {
            rate: 0.0,
            rng: Mutex::new(SplitMix64::new(DISABLED_PORT_SEED)),
        }
    }

    /// `true` when reads can fault (nonzero rate).
    pub fn is_active(&self) -> bool {
        self.rate > 0.0
    }

    /// Reads an unsigned 8-bit word through the faulty port.
    pub fn read_u8(&self, word: u8) -> u8 {
        if !self.is_active() {
            return word;
        }
        let mut rng = self.stream();
        if bernoulli(&mut rng, self.rate) {
            word ^ (1u8 << rng.next_below(8))
        } else {
            word
        }
    }

    /// Reads a signed 8-bit word through the faulty port.
    pub fn read_i8(&self, word: i8) -> i8 {
        i8::from_ne_bytes([self.read_u8(word.to_ne_bytes()[0])])
    }
}

impl Default for TransientReads {
    fn default() -> Self {
        TransientReads::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(model: FaultModel, rate: f64, seed: u64) -> FaultPlan {
        #[allow(clippy::unwrap_used)]
        FaultPlan::new(model, rate, seed).unwrap()
    }

    #[test]
    fn plan_rejects_bad_rates() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let err = FaultPlan::new(FaultModel::StuckAt0, bad, 0);
            assert!(
                matches!(err, Err(FaultError::BadRate(_))),
                "rate {bad} must be rejected, got {err:?}"
            );
        }
        assert!(FaultPlan::new(FaultModel::StuckAt0, 0.0, 0).is_ok());
        assert!(FaultPlan::new(FaultModel::StuckAt0, 1.0, 0).is_ok());
        let display = FaultError::BadRate(2.0).to_string();
        assert!(display.contains("2"), "{display}");
    }

    #[test]
    fn stuck_bits_are_deterministic_and_rate_scaled() {
        let p = plan(FaultModel::StuckAt1, 0.1, 7);
        let mut a = vec![0u8; 1000];
        let mut b = vec![0u8; 1000];
        let fa = stuck_bits_u8(&mut a, &p);
        let fb = stuck_bits_u8(&mut b, &p);
        assert_eq!(a, b);
        assert_eq!(fa, fb);
        // 8000 bits at 10%: expect ~800 forced.
        assert!((600..=1000).contains(&fa), "forced = {fa}");
        // And all forced bits really are high.
        let ones: u32 = a.iter().map(|w| w.count_ones()).sum();
        assert_eq!(ones as usize, fa);
    }

    #[test]
    fn stuck_at_zero_clears_bits() {
        let p = plan(FaultModel::StuckAt0, 1.0, 3);
        let mut words = vec![0xFFu8; 16];
        let forced = stuck_bits_u8(&mut words, &p);
        assert_eq!(forced, 128);
        assert!(words.iter().all(|&w| w == 0));
    }

    #[test]
    fn stuck_bits_i8_round_trips_the_bit_pattern() {
        let p = plan(FaultModel::StuckAt1, 1.0, 9);
        let mut words = vec![0i8; 8];
        stuck_bits_i8(&mut words, &p);
        assert!(words.iter().all(|&w| w == -1), "{words:?}"); // all bits set
        let p0 = plan(FaultModel::StuckAt0, 1.0, 9);
        stuck_bits_i8(&mut words, &p0);
        assert!(words.iter().all(|&w| w == 0));
    }

    #[test]
    fn non_stuck_models_do_not_touch_weights() {
        let p = plan(FaultModel::DeadNeuron, 1.0, 1);
        let mut words = vec![0xA5u8; 32];
        assert_eq!(stuck_bits_u8(&mut words, &p), 0);
        assert!(words.iter().all(|&w| w == 0xA5));
    }

    #[test]
    fn dead_mask_is_deterministic_and_scaled() {
        let p = plan(FaultModel::DeadNeuron, 0.3, 11);
        let a = dead_unit_mask(10_000, &p);
        let b = dead_unit_mask(10_000, &p);
        assert_eq!(a, b);
        let dead = a.iter().filter(|&&d| d).count();
        assert!((2500..=3500).contains(&dead), "dead = {dead}");
        // Other models never kill units.
        let t = plan(FaultModel::TransientRead, 1.0, 11);
        assert!(dead_unit_mask(100, &t).iter().all(|&d| !d));
    }

    #[test]
    fn transient_reads_flip_single_bits_at_rate() {
        let p = plan(FaultModel::TransientRead, 0.25, 5);
        let port = TransientReads::from_plan(&p);
        assert!(port.is_active());
        let mut faulted = 0;
        for _ in 0..10_000 {
            let seen = port.read_u8(0b1010_1010);
            let diff = (seen ^ 0b1010_1010).count_ones();
            assert!(diff <= 1, "at most one bit flips per read");
            faulted += diff as usize;
        }
        assert!((2000..=3000).contains(&faulted), "faulted = {faulted}");
    }

    #[test]
    fn transient_reads_are_deterministic_per_stream() {
        let p = plan(FaultModel::TransientRead, 0.5, 13);
        let a = TransientReads::from_plan(&p);
        let b = TransientReads::from_plan(&p);
        for i in 0..1000u16 {
            let w = (i % 251).to_ne_bytes()[0];
            assert_eq!(a.read_u8(w), b.read_u8(w));
        }
    }

    #[test]
    fn disabled_port_is_transparent() {
        let port = TransientReads::default();
        assert!(!port.is_active());
        for w in 0..=255u8 {
            assert_eq!(port.read_u8(w), w);
        }
        assert_eq!(port.read_i8(-77), -77);
        // Non-transient plans also disable the port.
        let p = plan(FaultModel::StuckAt1, 1.0, 2);
        assert!(!TransientReads::from_plan(&p).is_active());
    }

    #[test]
    fn stuck_taps_are_per_pixel_deterministic() {
        let p = plan(FaultModel::StuckLfsrTap, 0.4, 21);
        let picks: Vec<Option<bool>> = (0..1000).map(|px| stuck_tap_for(&p, px)).collect();
        let again: Vec<Option<bool>> = (0..1000).map(|px| stuck_tap_for(&p, px)).collect();
        assert_eq!(picks, again);
        let stuck = picks.iter().filter(|t| t.is_some()).count();
        assert!((300..=500).contains(&stuck), "stuck = {stuck}");
        // Both levels occur.
        assert!(picks.contains(&Some(true)) && picks.contains(&Some(false)));
        // Other models never stick taps.
        let d = plan(FaultModel::DeadNeuron, 1.0, 21);
        assert_eq!(stuck_tap_for(&d, 0), None);
    }

    #[test]
    fn zero_rate_plans_are_no_ops_everywhere() {
        for model in FaultModel::ALL {
            let p = plan(model, 0.0, 99);
            let mut words = vec![0x5Au8; 64];
            assert_eq!(stuck_bits_u8(&mut words, &p), 0);
            assert!(dead_unit_mask(64, &p).iter().all(|&d| !d));
            assert!(dead_link_mask(64, &p).iter().all(|&d| !d));
            assert!(dead_router_mask(64, &p).iter().all(|&d| !d));
            assert_eq!(stuck_tap_for(&p, 0), None);
            assert!(!TransientReads::from_plan(&p).is_active());
        }
    }

    #[test]
    fn fabric_masks_are_deterministic_model_gated_and_decorrelated() {
        let links = plan(FaultModel::DeadLink, 0.3, 17);
        let a = dead_link_mask(10_000, &links);
        assert_eq!(a, dead_link_mask(10_000, &links));
        let dead = a.iter().filter(|&&d| d).count();
        assert!((2500..=3500).contains(&dead), "dead links = {dead}");
        // A DeadLink plan never kills routers (and vice versa), and
        // neither kills neurons.
        assert!(dead_router_mask(100, &links).iter().all(|&d| !d));
        assert!(dead_unit_mask(100, &links).iter().all(|&d| !d));
        let routers = plan(FaultModel::DeadRouter, 0.3, 17);
        let r = dead_router_mask(10_000, &routers);
        let dead_r = r.iter().filter(|&&d| d).count();
        assert!((2500..=3500).contains(&dead_r), "dead routers = {dead_r}");
        assert!(dead_link_mask(100, &routers).iter().all(|&d| !d));
        // Same seed, different salt: link and router defect patterns
        // must not be copies of each other.
        let same_seed_links = plan(FaultModel::DeadLink, 0.3, 17);
        assert_ne!(dead_link_mask(10_000, &same_seed_links), r);
        // Fabric classification is exactly the two mesh models.
        for model in FaultModel::ALL {
            let expect = matches!(model, FaultModel::DeadLink | FaultModel::DeadRouter);
            assert_eq!(model.is_fabric(), expect, "{model}");
        }
    }

    #[test]
    fn model_names_are_stable() {
        let names: Vec<&str> = FaultModel::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            [
                "stuck_at_0",
                "stuck_at_1",
                "dead_neuron",
                "transient_read",
                "stuck_lfsr_tap",
                "dead_link",
                "dead_router"
            ]
        );
        assert_eq!(FaultModel::StuckAt0.to_string(), "stuck_at_0");
    }

    #[test]
    fn streams_with_different_salts_decorrelate() {
        let p = plan(FaultModel::StuckAt0, 0.5, 1234);
        let mut a = p.stream(0);
        let mut b = p.stream(1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn per_site_plans_give_independent_patterns() {
        let p = plan(FaultModel::StuckAt1, 0.5, 77);
        let (s0, s1) = (p.for_site(0), p.for_site(1));
        assert_eq!(s0, p.for_site(0)); // deterministic
        assert_ne!(s0.seed, s1.seed);
        assert_eq!(s0.model, p.model);
        assert_eq!(s0.rate, p.rate);
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        stuck_bits_u8(&mut a, &s0);
        stuck_bits_u8(&mut b, &s1);
        assert_ne!(a, b);
    }
}
