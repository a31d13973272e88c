//! `snn_offline`: the paper's SNN+STDP lifecycle at the Table 1 size.
//!
//! Each round builds a fresh 300-neuron LIF network (784 inputs), runs
//! one STDP epoch over the training split (`train_stdp`, the
//! weight-writing `simulate` loop), self-labels on the training split
//! and scores the held-out split with `evaluate_batch` in small tiles
//! (the streaming read path). Every round is the same work, so rounds
//! are comparable and their digests must agree.

// nc-lint: allow-file(R3, reason = "a benchmark measures wall-clock time; no program output depends on it")

use crate::digest::Digest;
use crate::{derive_seed, put, stats, Obs, Report, Size};
use nc_dataset::digits::DigitsSpec;
use nc_dataset::model::EVAL_PRESENTATION_SEED_BASE;
use nc_dataset::{Dataset, Difficulty, Model, PixelSlab, RequestSlab};
use nc_snn::{decay_with_lut, SnnNetwork, SnnParams};
use nc_substrate::rng::{Lfsr31, SplitMix64};
use std::hint::black_box;
use std::time::Instant;

/// Output neurons: the paper's Table 1 network.
pub const NEURONS: usize = 300;
/// Input pixels (28×28 digits).
pub const INPUTS: usize = 784;
/// Label classes.
pub const CLASSES: usize = 10;
/// STDP step, as at the repository's quick experiment scale.
pub const STDP_DELTA: i16 = 4;
/// Images per `evaluate_batch` call; each call is one latency sample.
pub const EVAL_TILE: usize = 3;
/// Held-out items re-checked against the `simulate` oracle.
pub const CHECK_ITEMS: usize = 32;

/// Split sizes `(train, test)` per size class.
pub fn split(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (300, 3000),
        Size::Probe => (60, 60),
    }
}

/// Generated inputs.
#[derive(Debug)]
pub struct Setup {
    /// Training split.
    pub train: Dataset,
    /// Held-out split.
    pub test: Dataset,
    /// Seed of every round's fresh network.
    pub net_seed: u64,
    /// Seed of the oracle-check subsample draw.
    pub check_seed: u64,
    /// Wall time of the digits generator, s.
    pub generate_s: f64,
}

/// Generates the digits splits for `run_seed`.
pub fn generate(run_seed: u64, size: Size, obs: &Obs) -> (Dataset, Dataset, f64) {
    let (train, test) = split(size);
    let _span = obs.tracer.span("dataset", "generate");
    let started = Instant::now();
    let data = DigitsSpec {
        train,
        test,
        seed: derive_seed(run_seed, 1),
        difficulty: Difficulty::default(),
    }
    .generate();
    (data.0, data.1, started.elapsed().as_secs_f64())
}

/// Everything before the measured work: data generation.
pub fn setup(run_seed: u64, size: Size, obs: &Obs) -> Setup {
    let (train, test, generate_s) = generate(run_seed, size, obs);
    Setup {
        train,
        test,
        net_seed: derive_seed(run_seed, 2),
        check_seed: derive_seed(run_seed, 3),
        generate_s,
    }
}

/// The untrained Table 1 network every round starts from.
pub fn fresh_network(net_seed: u64) -> SnnNetwork {
    let mut net = SnnNetwork::new(INPUTS, CLASSES, SnnParams::tuned(NEURONS), net_seed);
    net.set_stdp_delta(STDP_DELTA);
    net
}

/// Trains and labels a fresh network on `train` (the lifecycle's write
/// half), tracing both calls.
pub fn train_and_label(net_seed: u64, train: &Dataset, obs: &Obs) -> (SnnNetwork, f64, f64) {
    let mut net = fresh_network(net_seed);
    let recorder = obs.recorder();
    let started = Instant::now();
    {
        let _span = obs.tracer.span("snn", "train_stdp");
        net.train_stdp_observed(train, 1, recorder.as_ref());
    }
    let train_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    {
        let _span = obs.tracer.span("snn", "self_label");
        net.self_label(train);
    }
    (net, train_s, started.elapsed().as_secs_f64())
}

/// Digest of a trained network's state: weights, thresholds, labels.
pub fn network_digest(net: &SnnNetwork) -> u64 {
    let mut d = Digest::default();
    d.bytes(net.weights());
    for &t in net.thresholds() {
        d.float(t);
    }
    for label in net.labels() {
        d.index(label.map_or(usize::MAX, |l| l));
    }
    d.finish()
}

/// Runs rounds for at least `seconds` (one round minimum).
///
/// # Errors
///
/// Never at present; the signature matches the other workloads.
pub fn run(s: &Setup, seconds: f64, obs: &Obs) -> Result<Report, String> {
    let mut report = Report::default();
    let slab = PixelSlab::from_dataset(&s.test);
    let batch = slab.batch();
    let started = Instant::now();
    let mut read_rates = Vec::new();
    let (mut train_s, mut label_s, mut eval_s, mut rounds) = (0.0, 0.0, 0.0, 0u32);
    let mut first_digest: Option<(u64, u64)> = None;
    let mut net = loop {
        report.calibrate();
        let (mut net, round_train_s, round_label_s) = train_and_label(s.net_seed, &s.train, obs);
        let mut confusion = vec![0u64; CLASSES * CLASSES];
        let mut round_eval_s = 0.0;
        let mut window = Vec::new();
        for tile in batch.tiles(EVAL_TILE) {
            let t = Instant::now();
            let scored = {
                let _span = obs.tracer.span("snn", "evaluate_batch");
                net.evaluate_batch(&tile)
            };
            let dt = t.elapsed().as_secs_f64();
            round_eval_s += dt;
            window.push(dt * 1e3 / tile.len() as f64);
            for (k, slot) in confusion.iter_mut().enumerate() {
                *slot += scored.get(k / CLASSES, k % CLASSES);
            }
        }
        report.window(window);
        let mut d = Digest::default();
        for &c in &confusion {
            d.word(c);
        }
        let digests = (network_digest(&net), d.finish());
        match first_digest {
            None => first_digest = Some(digests),
            Some(first) if first != digests => {
                report.mismatch(format!("round {rounds}: output differs from round 0"));
            }
            Some(_) => {}
        }
        let n_train = s.train.len() as f64;
        let n_read = (s.train.len() + s.test.len()) as f64;
        report.rate(n_train / round_train_s);
        read_rates.push(n_read / (round_label_s + round_eval_s));
        report.sample("train_s", round_train_s);
        report.sample("self_label_s", round_label_s);
        report.sample("evaluate_batch_s", round_eval_s);
        train_s += round_train_s;
        label_s += round_label_s;
        eval_s += round_eval_s;
        rounds += 1;
        report.attempted += u64::try_from(s.train.len() * 2 + s.test.len()).unwrap_or(0);
        if started.elapsed().as_secs_f64() >= seconds {
            break net;
        }
    };
    let (weights_digest, confusion_digest) = first_digest.unwrap_or_default();
    report
        .digests
        .insert("snn.trained_weights".into(), weights_digest);
    report
        .digests
        .insert("snn.eval_confusion".into(), confusion_digest);

    let train_img_per_s = report.throughput();
    let eval_img_per_s = stats::good_rate(&read_rates).unwrap_or(0.0);
    put(
        &mut report.named,
        "train_img_per_s",
        train_img_per_s,
        "images/s",
    );
    put(
        &mut report.named,
        "eval_img_per_s",
        eval_img_per_s,
        "images/s",
    );
    put(&mut report.named, "rounds", f64::from(rounds), "count");

    let present_us = oracle_check(&mut net, s, &mut report);
    if obs.on() {
        let r = f64::from(rounds);
        let l = &mut report.layer;
        put(l, "dataset.generate_s", s.generate_s, "s");
        put(l, "snn.train_stdp_s", train_s / r, "s");
        put(l, "snn.self_label_s", label_s / r, "s");
        put(l, "snn.evaluate_batch_s", eval_s / r, "s");
        put(l, "snn.present_us", present_us, "us");
        if let Some(memory) = &obs.memory {
            let epochs = memory.snapshot().epochs;
            let (mut spikes, mut updates, mut images) = (0u64, 0u64, 0u64);
            for e in epochs.iter().filter(|e| e.context == "snn.stdp") {
                spikes += e.metrics.spikes;
                updates += e.metrics.weight_updates;
                images += e.metrics.samples;
            }
            let images = images.max(1) as f64;
            put(
                l,
                "snn.train.spikes_per_img",
                spikes as f64 / images,
                "count",
            );
            put(
                l,
                "snn.train.weight_updates_per_img",
                updates as f64 / images,
                "count",
            );
        }
        kernel_probes(&net, s.net_seed, &mut report);
    }
    Ok(report)
}

/// `evaluate_batch`/`predict_batch` against the `simulate` oracle
/// (`present(..).readout()`) on a seeded subsample; returns the mean
/// oracle presentation time in µs.
fn oracle_check(net: &mut SnnNetwork, s: &Setup, report: &mut Report) -> f64 {
    let mut draw = SplitMix64::new(s.check_seed);
    let items: Vec<usize> = (0..CHECK_ITEMS)
        .map(|_| draw.next_index(s.test.len()))
        .collect();
    let samples = s.test.samples();
    let mut slab = RequestSlab::new(INPUTS, CLASSES);
    for &i in &items {
        let seed = EVAL_PRESENTATION_SEED_BASE | u64::try_from(i).unwrap_or(0);
        if slab
            .push(&samples[i].pixels, seed, samples[i].label)
            .is_err()
        {
            report.mismatch(format!("item {i}: geometry rejected"));
            return 0.0;
        }
    }
    let mut predicted = Vec::new();
    net.predict_batch(&slab.batch(), &mut predicted);
    let scored = net.evaluate_batch(&slab.batch());
    let mut oracle_confusion = vec![0u64; CLASSES * CLASSES];
    let mut present_s = 0.0;
    let mut d = Digest::default();
    for (k, &i) in items.iter().enumerate() {
        let seed = EVAL_PRESENTATION_SEED_BASE | u64::try_from(i).unwrap_or(0);
        let t = Instant::now();
        let presentation = net.present(&samples[i].pixels, seed);
        present_s += t.elapsed().as_secs_f64();
        let oracle = net.labels()[presentation.readout()].unwrap_or(0);
        oracle_confusion[samples[i].label * CLASSES + oracle] += 1;
        if predicted.get(k) != Some(&oracle) {
            report.mismatch(format!(
                "snn item {i}: predict_batch {:?} != simulate oracle {oracle}",
                predicted.get(k)
            ));
        }
        d.index(i).index(oracle);
    }
    for (k, &expected) in oracle_confusion.iter().enumerate() {
        if scored.get(k / CLASSES, k % CLASSES) != expected {
            report.mismatch("snn: evaluate_batch confusion != simulate oracle".into());
            break;
        }
    }
    report
        .digests
        .insert("snn.oracle_predictions".into(), d.finish());
    present_s * 1e6 / CHECK_ITEMS as f64
}

/// The SNN-side kernels on this workload's own network: the LFSR the
/// rate coder draws from, and the trained network's leak LUT.
fn kernel_probes(net: &SnnNetwork, net_seed: u64, report: &mut Report) {
    const CALLS: u32 = 1 << 20;
    let mut lfsr = Lfsr31::new(u32::try_from(net_seed >> 33).unwrap_or(1).max(1));
    let t = Instant::now();
    let mut acc = 0u32;
    for _ in 0..CALLS {
        acc ^= lfsr.next_u31();
    }
    black_box(acc);
    let lfsr_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(CALLS);

    let lut = net.decay_lut();
    let period = u64::from(net.params().t_period);
    let t = Instant::now();
    let mut v = 0.0;
    for k in 0..CALLS {
        v = decay_with_lut(lut, black_box(v) + 1.0, u64::from(k) % period);
    }
    black_box(v);
    let lut_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(CALLS);
    put(&mut report.layer, "kernel.lfsr_ns", lfsr_ns, "ns");
    put(&mut report.layer, "kernel.decay_lut_ns", lut_ns, "ns");
}
