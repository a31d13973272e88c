//! # nc-snn
//!
//! The neuroscience side of the paper's comparison: a single-layer
//! winner-take-all Spiking Neural Network of Leaky Integrate-and-Fire
//! neurons, trained by Spike-Timing Dependent Plasticity with homeostasis
//! and self-labeling (paper §2.2), plus every variant the paper studies:
//!
//! * [`params`] — the hyper-parameters of Table 1 (`Tperiod`, `Tleak`,
//!   `Tinhibit`, `Trefrac`, `TLTP`, homeostasis epoch/threshold, …).
//! * [`coding`] — the input spike-coding schemes of §3.1 and §5: Poisson
//!   rate, hardware Gaussian rate, rank-order, and time-to-first-spike.
//! * [`lif`] — the event-driven LIF kernel: one input event applied to
//!   a neuron population, shared by every simulator of the network.
//! * [`network`] — the event-driven LIF simulator with the analytic
//!   inter-spike leak `v(T2) = v(T1)·e^{-(T2−T1)/Tleak}` (§2.2), lateral
//!   inhibition, refractory periods, on-line STDP and homeostasis.
//! * [`wot`] — SNNwot, the timing-free hardware variant: spikes collapsed
//!   to 4-bit counts, readout by maximum potential (§4.2.2).
//! * [`bp_hybrid`] — SNN+BP, the diagnostic hybrid that trains the same
//!   spiking forward path with back-propagation to isolate how much of
//!   the accuracy gap is the learning rule (§3.2).
//! * [`trace`] — spike raster / membrane potential recording (Figure 3).
//! * [`explore`] — the §3.1 "1000 evaluated settings" random search and
//!   the synaptic weight-precision study.
//! * [`stdp_rules`] — pluggable STDP update rules (additive /
//!   multiplicative / exponential-window), the paper's future-work lever
//!   for "mitigating accuracy issues by changing the learning
//!   algorithm".
//!
//! # Examples
//!
//! ```
//! use nc_dataset::{digits::DigitsSpec, Difficulty};
//! use nc_snn::params::SnnParams;
//! use nc_snn::network::SnnNetwork;
//!
//! let (train, test) = DigitsSpec {
//!     train: 60, test: 20, seed: 2, difficulty: Difficulty::default(),
//! }.generate();
//!
//! let params = SnnParams::for_neurons(20);
//! let mut snn = SnnNetwork::new(784, 10, params, 7);
//! snn.train_stdp(&train, 1);          // one STDP epoch
//! snn.self_label(&train);             // label neurons from train set
//! let acc = snn.evaluate(&test).accuracy();
//! assert!(acc >= 0.0); // smoke: full-scale accuracy is exercised in benches
//! ```

pub mod bp_hybrid;
pub mod coding;
pub mod explore;
pub mod lif;
pub mod model;
pub mod network;
pub mod params;
pub mod stdp_rules;
pub mod trace;
pub mod wot;

pub use coding::{CodingScheme, RateStreams, SpikeEvent};
pub use lif::decay_with_lut;
pub use network::{tie_broken_readout, SnnNetwork};
pub use params::SnnParams;
pub use wot::WotSnn;
