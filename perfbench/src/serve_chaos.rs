//! `serve_chaos`: the closed loop (`run_load`, 64 users) under a seeded
//! chaos schedule and the full resilience policy — shedding, deadlines,
//! retries, a circuit breaker and replica quarantine.
//!
//! The measured loop runs episodes of one fixed load plan, each on a
//! fresh engine and server over the shared trained snapshots (so
//! quarantined replicas are rebuilt from the recipe, as in service).
//! The outcome of a seeded chaos run is deterministic: every episode,
//! and a replay at one engine thread, must produce the identical
//! `LoadOutcome`, event trace included.

// nc-lint: allow-file(R3, reason = "a benchmark measures wall-clock time; no program output depends on it")

use crate::digest::Digest;
use crate::serve_common::{self, ServeData, MODEL_MIX, THREADS, WINDOW};
use crate::{derive_seed, put, Obs, Report, Size};
use nc_core::{ChaosPlan, FaultModel, FaultPlan, Supervision};
use nc_serve::{
    run_load, BreakerConfig, LoadOutcome, LoadPlan, ResilienceConfig, ServeConfig, Server,
};
use std::time::Instant;

/// Closed-loop users.
pub const USERS: usize = 64;
/// Admission queue limit before shedding.
pub const QUEUE_LIMIT: usize = 48;
/// Per-request deadline, virtual ticks.
pub const DEADLINE_TICKS: u64 = 4;
/// Root seed of the chaos schedule. Like the mesh's defect map it is
/// fixed rather than drawn from the run seed: every run faces the same
/// storm, so the amount of recovery work does not swing with the seed
/// (the requests, models and data still come from it).
pub const CHAOS_SEED: u64 = 0xC4A0_BEAC;
/// Seed of the burst's transient-fault plan.
pub const CHAOS_BURST_SEED: u64 = 0xC4A0_B125;
/// Seed of the engine's retry supervision.
pub const CHAOS_RETRY_SEED: u64 = 0x50AC_C4A0;
/// Seed of the serve-level retry jitter.
pub const CHAOS_JITTER_SEED: u64 = 0x5E51_1E27;

/// Requests per episode and load plans cycled per size class.
pub fn episodes(size: Size) -> (u64, u64) {
    match size {
        Size::Full => (256, 4),
        Size::Probe => (128, 1),
    }
}

/// Everything before the measured loop.
#[derive(Debug)]
pub struct Setup {
    /// Data, specs and trained snapshots.
    pub data: ServeData,
    /// The serving policy, chaos schedule included.
    pub config: ServeConfig,
    /// The closed-loop plans the episodes cycle through: one seed's
    /// users can meet the storm luckily or badly, so a run averages
    /// over several.
    pub plans: Vec<LoadPlan>,
}

/// The chaos schedule of the repository's serve bench, with the full
/// resilience policy on top (breaker falling back to the float MLP).
///
/// # Errors
///
/// When the burst fault plan is rejected.
pub fn config() -> Result<ServeConfig, String> {
    let burst = FaultPlan::new(FaultModel::StuckAt1, 0.02, CHAOS_BURST_SEED)
        .map_err(|e| format!("burst plan: {e}"))?;
    let chaos = ChaosPlan {
        panic_rate: 0.2,
        panic_attempts: 1,
        delay_rate: 0.4,
        max_delay_ticks: 5,
        poison_rate: 0.1,
        burst_period: 4,
        burst_width: 1,
        burst_faults: Some(burst),
        ..ChaosPlan::quiet(CHAOS_SEED)
    };
    Ok(ServeConfig {
        batch_window: WINDOW,
        supervision: Supervision::with_retries(1, CHAOS_RETRY_SEED),
        resilience: ResilienceConfig {
            queue_limit: Some(QUEUE_LIMIT),
            deadline_ticks: Some(DEADLINE_TICKS),
            batch_retries: 1,
            retry_seed: CHAOS_JITTER_SEED,
            breaker: Some(BreakerConfig {
                fallback: Some(MODEL_MIX.len() - 1),
                ..BreakerConfig::default()
            }),
        },
        chaos: Some(chaos),
    })
}

/// Trains the model mix and fixes the plans.
///
/// # Errors
///
/// When a model fails to build or train.
pub fn setup(run_seed: u64, size: Size, obs: &Obs) -> Result<Setup, String> {
    let (requests, plans) = episodes(size);
    Ok(Setup {
        data: serve_common::prepare(run_seed, size, obs)?,
        config: config()?,
        plans: (0..plans)
            .map(|k| LoadPlan {
                seed: derive_seed(run_seed, 40 + k),
                users: USERS,
                requests,
                think_max: 1,
            })
            .collect(),
    })
}

/// One closed-loop episode of `plan` on a fresh engine and server.
///
/// # Errors
///
/// When the server cannot be built or `run_load` rejects the plan.
pub fn episode(
    s: &Setup,
    plan: &LoadPlan,
    threads: usize,
    obs: &Obs,
) -> Result<LoadOutcome, String> {
    let server = Server::new(
        serve_common::engine(threads, obs),
        s.config,
        s.data.snapshots.clone(),
    )
    .map_err(|e| format!("server: {e}"))?;
    let _span = obs.tracer.span("serve", "run_load");
    run_load(&server, &s.data.test, &MODEL_MIX, plan).map_err(|e| format!("run_load: {e}"))
}

/// Digest of a whole outcome: counters and the ordered event trace.
pub fn outcome_digest(outcome: &LoadOutcome) -> u64 {
    Digest::default()
        .bytes(format!("{outcome:?}").as_bytes())
        .finish()
}

/// Cycles of episodes (one per plan) for at least `seconds` (one cycle
/// minimum). Each cycle is one throughput sample.
///
/// # Errors
///
/// When an episode cannot run.
pub fn run(s: &mut Setup, seconds: f64, obs: &Obs) -> Result<Report, String> {
    let mut report = Report::default();
    let rebuilds_before: u64 = s.data.snapshots.iter().map(|m| m.rebuilds()).sum();
    let started = Instant::now();
    let mut first: Vec<LoadOutcome> = Vec::new();
    let mut episodes = 0u32;
    let mut window = Vec::new();
    let mut window_norm = Vec::new();
    loop {
        let (mut completed, mut raw_s, mut norm_s) = (0u64, 0.0, 0.0);
        for (k, plan) in s.plans.iter().enumerate() {
            report.calibrate();
            let t = Instant::now();
            let outcome = episode(s, plan, THREADS, obs)?;
            let dt = t.elapsed().as_secs_f64();
            window.push(dt * 1e3);
            window_norm.push(dt * 1e3 / report.factor());
            completed += outcome.completed;
            raw_s += dt;
            norm_s += dt / report.factor();
            report.attempted += outcome.issued + outcome.shed;
            match first.get(k) {
                None => first.push(outcome),
                Some(f) if *f != outcome => {
                    report.mismatch(format!(
                        "chaos episode {episodes}: outcome differs from plan {k}'s first"
                    ));
                }
                Some(_) => {}
            }
            episodes += 1;
        }
        report.rates.push(completed as f64 / raw_s);
        report.rates_norm.push(completed as f64 / norm_s);
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    report.latency_ms.push(window);
    report.latency_norm.push(window_norm);
    let (Some(plan), Some(outcome)) = (s.plans.first(), first.first()) else {
        return Err("no episode ran".into());
    };
    let replay = episode(s, plan, 1, &Obs::off())?;
    if replay != *outcome {
        report.mismatch("chaos: outcome at 1 engine thread differs from 2".into());
    }
    let mut d = Digest::default();
    for o in &first {
        d.word(outcome_digest(o));
    }
    report
        .digests
        .insert("serve_chaos.load_outcomes".into(), d.finish());

    let sum = |f: fn(&LoadOutcome) -> u64| first.iter().map(f).sum::<u64>();
    let issued = sum(|o| o.issued);
    let shed = sum(|o| o.shed);
    report.error_rate = (sum(|o| o.failed) + shed) as f64 / (issued + shed).max(1) as f64;
    let serve_rps = report.throughput();
    let named = &mut report.named;
    put(named, "serve_rps", serve_rps, "req/s");
    put(named, "error_rate", report.error_rate, "share");
    put(named, "episodes", f64::from(episodes), "count");

    if obs.on() {
        let e = f64::from(episodes);
        let per_req = |v: u64| v as f64 / issued.max(1) as f64;
        let rebuilds: u64 = s.data.snapshots.iter().map(|m| m.rebuilds()).sum();
        let l = &mut report.layer;
        for (name, m) in &s.data.layer {
            l.insert(name.clone(), *m);
        }
        put(l, "chaos.shed_per_req", per_req(shed), "share");
        put(
            l,
            "chaos.deadline_missed_per_req",
            per_req(sum(|o| o.deadline_missed)),
            "share",
        );
        put(
            l,
            "chaos.degraded_per_req",
            per_req(sum(|o| o.degraded)),
            "share",
        );
        put(
            l,
            "chaos.stalled_per_req",
            per_req(sum(|o| o.stalled)),
            "share",
        );
        put(l, "chaos.error_rate", report.error_rate, "share");
        put(
            l,
            "engine.retries",
            obs.counter("engine.retries") as f64 / e,
            "count",
        );
        put(
            l,
            "engine.panics",
            obs.counter("engine.panics") as f64 / e,
            "count",
        );
        put(
            l,
            "serve.rebuilds",
            (rebuilds - rebuilds_before) as f64 / e,
            "count",
        );
    }
    Ok(report)
}
