//! `serve_open`: an open loop of independent users against `nc-serve`.
//!
//! Requests arrive on a seeded Poisson schedule ([`crate::load`]) at a
//! fixed rate, whatever the server is doing, and each is timed from its
//! *due* time, so a server that falls behind is charged for the wait.
//! One generator iteration admits every arrival already due (at most
//! [`ADMIT_CAP`]) and drains the sealed batches; an iteration with no
//! new arrival flushes the partial windows first, mirroring the closed
//! loop's flush-on-stall rule.
//!
//! Three phases share the run: a long phase at the fixed
//! [`REFERENCE_RATE`] (latency percentiles), a rate ladder from light
//! load past capacity (the highest rate that keeps p99 within
//! [`LATENCY_LIMIT_MS`] without a growing backlog), and a saturated
//! phase where arrivals are always due (the sustained capacity).

// nc-lint: allow-file(R3, reason = "a benchmark measures wall-clock time; no program output depends on it")

use crate::digest::Digest;
use crate::load::{Arrival, Schedule};
use crate::serve_common::{self, ServeData, MODEL_MIX, THREADS, WINDOW};
use crate::stats::{self, Rung};
use crate::{derive_seed, put, Obs, Report, Size};
use nc_serve::{ServeConfig, Server, Ticket};
use std::collections::BTreeMap;
use std::time::Instant;

/// Offered load of the latency phase, requests/s: light enough that a
/// healthy server on two cores answers most requests alone.
pub const REFERENCE_RATE: f64 = 4000.0;
/// The latency limit of the rate ladder, ms.
pub const LATENCY_LIMIT_MS: f64 = 5.0;
/// First ladder rung, requests/s.
pub const LADDER_START: f64 = 2000.0;
/// Ratio between ladder rungs.
pub const LADDER_RATIO: f64 = 1.25;
/// Ladder rungs at most (the last is 2000 · 1.25¹³ ≈ 36k/s).
pub const LADDER_RUNGS: i32 = 14;
/// Most arrivals one generator iteration admits.
pub const ADMIT_CAP: usize = 64;
/// Backlog growth (requests) that counts as "growing": four windows.
pub const BACKLOG_SLACK: f64 = 32.0;
/// Share of the run for the reference phase.
const REFERENCE_SHARE: f64 = 0.45;
/// Latency window of the reference phase, s.
const REFERENCE_WINDOW_S: f64 = 1.0;
/// Share of the run per ladder rung.
const RUNG_SHARE: f64 = 0.015;
/// Share of the run for the saturated phase, split into slices.
const SATURATION_SHARE: f64 = 0.3;
/// Saturated slices; the reported capacity is their upper quartile.
const SATURATION_SLICES: u32 = 12;
/// Requests replayed by the deterministic digest pass.
pub const DIGEST_REQUESTS: usize = 1024;

/// Everything before the measured loop.
#[derive(Debug)]
pub struct Setup {
    /// Data, specs and trained snapshots.
    pub data: ServeData,
    /// Offline predictions per model per item.
    pub offline: Vec<Vec<usize>>,
    /// Root seed of every phase's arrival schedule.
    pub schedule_seed: u64,
    /// The run seed (kernel probes rebuild the hot model from it).
    pub run_seed: u64,
}

/// Trains the model mix and computes the offline reference table.
///
/// # Errors
///
/// When a model fails to build or train.
pub fn setup(run_seed: u64, size: Size, obs: &Obs) -> Result<Setup, String> {
    let data = serve_common::prepare(run_seed, size, obs)?;
    let offline = serve_common::offline_predictions(&data)?;
    Ok(Setup {
        data,
        offline,
        schedule_seed: derive_seed(run_seed, 21),
        run_seed,
    })
}

/// A served request waiting for its response.
#[derive(Debug, Clone, Copy)]
struct Pending {
    arrival: Arrival,
    submit_ns: u64,
}

/// Per-call timings, kept on traced passes.
#[derive(Debug, Default)]
struct Calls {
    submit_us: Vec<f64>,
    take_us: Vec<f64>,
    drain_us: Vec<f64>,
    flush_drain_us: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    drains: u64,
    flush_drains: u64,
    backlog_max: usize,
}

/// What one open-loop phase produced.
#[derive(Debug, Default)]
struct Phase {
    completed: u64,
    elapsed_s: f64,
    /// `(due time ns, latency ms)` per answered request.
    latency: Vec<(u64, f64)>,
    backlog: Vec<(f64, f64)>,
    final_lag_ms: f64,
}

/// The loop state of one phase.
struct OpenLoop<'a> {
    s: &'a Setup,
    server: Server,
    obs: &'a Obs,
    start: Instant,
    /// Tracer time at `start`, to place per-request intervals.
    trace_origin: u64,
    outstanding: BTreeMap<u64, Pending>,
    phase: Phase,
    /// Arrivals are always due (no schedule to lag behind).
    saturated: bool,
}

impl OpenLoop<'_> {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn submit(&mut self, arrival: Arrival, calls: &mut Calls, report: &mut Report) {
        let pixels = &self.s.data.test.samples()[arrival.item].pixels;
        let item = u64::try_from(arrival.item).unwrap_or(u64::MAX);
        let tracer = &self.obs.tracer;
        let t0 = tracer.now_ns();
        let submit_ns = self.now_ns();
        let result = self.server.submit(MODEL_MIX[arrival.model], pixels, item);
        report.attempted += 1;
        match result {
            Ok(Ticket(ticket)) => {
                if let (Some(t0), Some(t1)) = (t0, tracer.now_ns()) {
                    tracer.interval("serve", "submit", Some(ticket), (t0, t1), true);
                    calls.submit_us.push((t1 - t0) as f64 / 1e3);
                    if !self.saturated {
                        let lag_ns = submit_ns.saturating_sub(arrival.due_ns);
                        calls.lag_ms.push(lag_ns as f64 / 1e6);
                    }
                }
                self.outstanding
                    .insert(ticket, Pending { arrival, submit_ns });
            }
            Err(e) => {
                report.failed += 1;
                report.mismatch(format!("serve submit failed: {e}"));
            }
        }
    }

    fn drain(&mut self, flushed: bool, calls: &mut Calls, report: &mut Report) {
        let tracer = &self.obs.tracer;
        let drain_start = self.now_ns();
        let t0 = tracer.now_ns();
        let drained = {
            let _span = tracer.span("serve", if flushed { "drain_flush" } else { "drain" });
            if flushed {
                self.server.flush();
            }
            self.server.drain()
        };
        if let (Some(t0), Some(t1)) = (t0, tracer.now_ns()) {
            let us = (t1 - t0) as f64 / 1e3;
            if flushed {
                calls.flush_drain_us.push(us);
                calls.flush_drains += 1;
            } else {
                calls.drain_us.push(us);
            }
            calls.drains += 1;
        }
        if drained == 0 {
            return;
        }
        let done_ns = self.now_ns();
        let tickets: Vec<u64> = self.outstanding.keys().copied().collect();
        for ticket in tickets {
            let t0 = tracer.now_ns();
            let Some(response) = self.server.take_response(Ticket(ticket)) else {
                continue;
            };
            let Some(pending) = self.outstanding.remove(&ticket) else {
                continue;
            };
            if let (Some(t0), Some(t1)) = (t0, tracer.now_ns()) {
                tracer.interval("serve", "take_response", Some(ticket), (t0, t1), true);
                calls.take_us.push((t1 - t0) as f64 / 1e3);
                let wait = (
                    self.trace_origin + pending.submit_ns,
                    self.trace_origin + drain_start,
                );
                tracer.interval("serve", "queue_wait", Some(ticket), wait, false);
                calls
                    .queue_wait_ms
                    .push(drain_start.saturating_sub(pending.submit_ns) as f64 / 1e6);
            }
            let a = pending.arrival;
            let expected = self.s.offline[a.model][a.item];
            match response.outcome {
                Ok(p) if p == expected => {}
                Ok(p) => report.mismatch(format!(
                    "{} item {}: served {p} != offline {expected}",
                    MODEL_MIX[a.model], a.item
                )),
                Err(e) => {
                    report.failed += 1;
                    report.mismatch(format!("{} item {}: {e}", MODEL_MIX[a.model], a.item));
                }
            }
            self.phase.completed += 1;
            let ms = done_ns.saturating_sub(a.due_ns) as f64 / 1e6;
            self.phase.latency.push((a.due_ns, ms));
        }
    }
}

/// Runs one open-loop phase at `rate` for `seconds` on a fresh server.
fn open_loop(
    s: &Setup,
    rate: f64,
    seconds: f64,
    schedule_seed: u64,
    obs: &Obs,
    calls: &mut Calls,
    report: &mut Report,
) -> Result<Phase, String> {
    let server = Server::new(
        serve_common::engine(THREADS, obs),
        ServeConfig::default(),
        s.data.snapshots.clone(),
    )
    .map_err(|e| format!("server: {e}"))?;
    let mut schedule = Schedule::new(schedule_seed, rate, MODEL_MIX.len(), s.data.test.len());
    let mut next = schedule.next().unwrap_or(Arrival {
        due_ns: u64::MAX,
        model: 0,
        item: 0,
    });
    let duration_ns = nc_substrate::fixed::sat_u64_trunc(seconds * 1e9);
    let mut lp = OpenLoop {
        s,
        server,
        obs,
        start: Instant::now(),
        trace_origin: obs.tracer.now_ns().unwrap_or(0),
        outstanding: BTreeMap::new(),
        phase: Phase::default(),
        saturated: rate.is_infinite(),
    };
    let mut next_sample_ns = 0u64;
    loop {
        let now = lp.now_ns();
        if now >= duration_ns {
            break;
        }
        let mut admitted = 0;
        while next.due_ns <= now && admitted < ADMIT_CAP {
            lp.submit(next, calls, report);
            next = schedule.next().unwrap_or(next);
            admitted += 1;
        }
        if admitted > 0 {
            if obs.on() {
                calls.backlog_max = calls.backlog_max.max(lp.server.in_flight());
            }
            lp.drain(false, calls, report);
        } else if !lp.outstanding.is_empty() {
            lp.drain(true, calls, report);
        } else {
            std::hint::spin_loop();
        }
        if now >= next_sample_ns {
            // Waiting requests: in flight, plus arrivals already due but
            // not yet admitted (lag × rate).
            let lag_s = now.saturating_sub(next.due_ns) as f64 / 1e9;
            let waiting = lp.outstanding.len() as f64 + (lag_s * rate).min(1e9);
            lp.phase.backlog.push((now as f64 / 1e9, waiting));
            next_sample_ns = now + 10_000_000;
        }
    }
    let end = lp.now_ns();
    lp.phase.final_lag_ms = end.saturating_sub(next.due_ns) as f64 / 1e6;
    lp.phase.elapsed_s = end as f64 / 1e9;
    while !lp.outstanding.is_empty() {
        let before = lp.outstanding.len();
        lp.drain(true, calls, report);
        if lp.outstanding.len() == before {
            report.mismatch(format!("{before} requests never answered"));
            report.failed += u64::try_from(before).unwrap_or(0);
            break;
        }
    }
    Ok(lp.phase)
}

/// Replays the first [`DIGEST_REQUESTS`] reference-rate arrivals
/// deterministically (drain every window, flush at the end) and
/// digests the served `(model, item, prediction)` triples in ticket
/// order. Timing plays no part, so the digest is the same at any engine
/// thread count.
///
/// # Errors
///
/// When the server rejects a request or a response is missing.
pub fn served_digest(s: &Setup, threads: usize) -> Result<u64, String> {
    let server = Server::new(
        serve_common::engine(threads, &Obs::off()),
        ServeConfig::default(),
        s.data.snapshots.clone(),
    )
    .map_err(|e| format!("server: {e}"))?;
    let schedule = Schedule::new(
        s.schedule_seed,
        REFERENCE_RATE,
        MODEL_MIX.len(),
        s.data.test.len(),
    );
    let mut tickets = Vec::new();
    for (k, a) in schedule.take(DIGEST_REQUESTS).enumerate() {
        let pixels = &s.data.test.samples()[a.item].pixels;
        let item = u64::try_from(a.item).unwrap_or(u64::MAX);
        let ticket = server
            .submit(MODEL_MIX[a.model], pixels, item)
            .map_err(|e| format!("digest submit: {e}"))?;
        tickets.push((ticket, a));
        if (k + 1) % WINDOW == 0 {
            server.drain();
        }
    }
    server.run_until_idle();
    let mut d = Digest::default();
    for (ticket, a) in tickets {
        let response = server
            .take_response(ticket)
            .ok_or_else(|| format!("digest: no response for ticket {}", ticket.0))?;
        let prediction = response.outcome.map_err(|e| format!("digest: {e}"))?;
        if prediction != s.offline[a.model][a.item] {
            return Err(format!(
                "digest: {} item {} served {prediction} != offline {}",
                MODEL_MIX[a.model], a.item, s.offline[a.model][a.item]
            ));
        }
        d.index(a.model).index(a.item).index(prediction);
    }
    Ok(d.finish())
}

/// The three phases for about `seconds` in all.
///
/// # Errors
///
/// When a server cannot be built or the digest replay fails.
pub fn run(s: &mut Setup, seconds: f64, obs: &Obs) -> Result<Report, String> {
    let mut report = Report::default();
    let mut calls = Calls::default();
    let phase_seed = |k: u64| derive_seed(s.schedule_seed, k);

    // The reference phase runs window by window, each on a fresh server
    // (so the engine's per-job statistics stay bounded); the first
    // window is warm-up and is not reported.
    let budget = seconds * REFERENCE_SHARE;
    let window_s = REFERENCE_WINDOW_S.min(budget / 2.0);
    let mut reference_samples = 0usize;
    for k in 0..=nc_substrate::fixed::sat_u64_trunc(budget / window_s).max(2) - 1 {
        report.calibrate();
        let _span = obs.tracer.span("serve", "phase.reference");
        let phase = open_loop(
            s,
            REFERENCE_RATE,
            window_s,
            phase_seed(200 + k),
            obs,
            &mut calls,
            &mut report,
        )?;
        if k > 0 {
            reference_samples += phase.latency.len();
            report.window(phase.latency.iter().map(|&(_, ms)| ms).collect());
        }
    }

    let mut rungs = Vec::new();
    for k in 0..LADDER_RUNGS {
        let rate = LADDER_START * LADDER_RATIO.powi(k);
        report.calibrate();
        let _span = obs.tracer.span("serve", "phase.ladder_rung");
        let phase = open_loop(
            s,
            rate,
            seconds * RUNG_SHARE,
            phase_seed(1 + u64::from(k.unsigned_abs())),
            obs,
            &mut calls,
            &mut report,
        )?;
        let latency: Vec<f64> = phase.latency.iter().map(|&(_, ms)| ms).collect();
        let p99 = stats::tail_percentile(&latency, 0.99, 10).map_or(f64::INFINITY, |(_, v)| v);
        let growing = stats::backlog_growing(&phase.backlog, BACKLOG_SLACK)
            || phase.final_lag_ms > LATENCY_LIMIT_MS;
        report.sample("ladder_rate", rate);
        report.sample("ladder_p99_ms", p99);
        report.sample("ladder_completed", phase.completed as f64);
        let rung = Rung {
            rate,
            p99_ms: p99,
            growing,
        };
        rungs.push(rung);
        if p99 > LATENCY_LIMIT_MS || growing {
            break;
        }
    }
    let max_rps = stats::max_sustainable_rate(&rungs, LATENCY_LIMIT_MS).unwrap_or(0.0);

    for k in 0..SATURATION_SLICES {
        report.calibrate();
        let _span = obs.tracer.span("serve", "phase.saturated");
        let slice = seconds * SATURATION_SHARE / f64::from(SATURATION_SLICES);
        let phase = open_loop(
            s,
            f64::INFINITY,
            slice,
            phase_seed(100 + u64::from(k)),
            obs,
            &mut calls,
            &mut report,
        )?;
        report.rate(phase.completed as f64 / phase.elapsed_s);
    }

    let digest = served_digest(s, THREADS)?;
    report
        .digests
        .insert("serve_open.served_predictions".into(), digest);

    let n = reference_samples;
    let (p50, p99, q99) = stats::windowed_percentiles(&report.latency_ms, 0.99).unwrap_or_default();
    let capacity = report.throughput();
    let named = &mut report.named;
    put(named, "serve_p50_ms", p50, "ms");
    put(named, "serve_p99_ms", p99, "ms");
    put(named, "serve_p99_percentile_used", q99 * 100.0, "%");
    put(named, "serve_reference_samples", n as f64, "count");
    put(
        named,
        "serve_reference_windows",
        report.latency_ms.len() as f64,
        "count",
    );
    put(named, "serve_max_rps", max_rps, "req/s");
    put(named, "serve_capacity_rps", capacity, "req/s");

    if obs.on() {
        let l = &mut report.layer;
        for (name, m) in &s.data.layer {
            l.insert(name.clone(), *m);
        }
        let pct = |v: &[f64], q: f64| stats::percentile(v, q).unwrap_or(0.0);
        let tail = |v: &[f64]| stats::tail_percentile(v, 0.99, 10).map_or(pct(v, 1.0), |(_, x)| x);
        for (name, series, unit) in [
            ("serve.submit_us", &calls.submit_us, "us"),
            ("serve.take_response_us", &calls.take_us, "us"),
            ("serve.drain_us", &calls.drain_us, "us"),
            ("serve.drain_flush_us", &calls.flush_drain_us, "us"),
            ("serve.queue_wait_ms", &calls.queue_wait_ms, "ms"),
        ] {
            put(l, format!("{name}.p50"), pct(series, 0.5), unit);
            put(l, format!("{name}.p99"), tail(series), unit);
        }
        put(l, "serve.generator_lag_ms.p99", tail(&calls.lag_ms), "ms");
        put(l, "serve.backlog_max", calls.backlog_max as f64, "count");
        put(
            l,
            "serve.flush_share",
            calls.flush_drains as f64 / calls.drains.max(1) as f64,
            "share",
        );
        put(l, "serve.max_rps_slo", max_rps, "1/s");
        if let Some(memory) = &obs.memory {
            let snapshot = memory.snapshot();
            let batches = snapshot.counters.get("serve.batches").copied().unwrap_or(0);
            let requests = snapshot
                .counters
                .get("serve.requests")
                .copied()
                .unwrap_or(0)
                .max(1);
            let mean_batch = snapshot
                .series
                .get("serve.batch_size")
                .map_or(0.0, |r| r.mean());
            put(l, "serve.batch_fill", mean_batch / WINDOW as f64, "share");
            put(l, "serve.batches", batches as f64, "count");
            let jobs = snapshot.counters.get("engine.jobs").copied().unwrap_or(0);
            put(
                l,
                "engine.jobs_per_req",
                jobs as f64 / requests as f64,
                "count",
            );
        }
        serve_common::kernel_probes(&s.data, s.run_seed, &mut report)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_digest_is_identical_at_one_and_two_engine_threads() {
        let s = setup(5, Size::Probe, &Obs::off()).unwrap();
        let at_1 = served_digest(&s, 1).unwrap();
        let at_2 = served_digest(&s, 2).unwrap();
        assert_eq!(at_1, at_2);
        // And it depends on the inputs: another seed, another digest.
        let other = setup(6, Size::Probe, &Obs::off()).unwrap();
        assert_ne!(served_digest(&other, 2).unwrap(), at_2);
    }
}
