//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <snn_offline|mesh_deploy|serve_open|serve_chaos> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the workload's named figures, digests and host, then, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). A results
//! record with every sample goes to `.perfbench_out/`, and a traced run
//! also writes its spans there. Exits 1 when a correctness check fails,
//! 2 on bad arguments or a failed run.

// nc-lint: allow-file(R3, reason = "a benchmark measures wall-clock time; no program output depends on it")

use perfbench::host::{calibrate, peak_rss_mib, Host, CALIBRATION_REFERENCE_S};
use perfbench::{
    mesh_deploy, put, serve_chaos, serve_open, snn_offline, stats, Metric, Metrics, Obs, Report,
    Size, CALIBRATION_SERIES,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["snn_offline", "mesh_deploy", "serve_open", "serve_chaos"];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// How long a traced run measures each of the other workloads.
const PROBE_SECONDS: f64 = 0.5;

/// Where results records and traces go, relative to the checkout.
const OUT_DIR: &str = ".perfbench_out";

/// A prepared workload.
enum Prepared {
    Snn(snn_offline::Setup),
    Mesh(Box<mesh_deploy::Setup>),
    Open(serve_open::Setup),
    Chaos(serve_chaos::Setup),
}

fn setup(workload: &str, seed: u64, size: Size, obs: &Obs) -> Result<Prepared, String> {
    Ok(match workload {
        "snn_offline" => Prepared::Snn(snn_offline::setup(seed, size, obs)),
        "mesh_deploy" => Prepared::Mesh(Box::new(mesh_deploy::setup(seed, size, obs)?)),
        "serve_open" => Prepared::Open(serve_open::setup(seed, size, obs)?),
        "serve_chaos" => Prepared::Chaos(serve_chaos::setup(seed, size, obs)?),
        other => return Err(format!("unknown workload {other}")),
    })
}

fn run(prepared: &mut Prepared, seconds: f64, obs: &Obs) -> Result<Report, String> {
    match prepared {
        Prepared::Snn(s) => snn_offline::run(s, seconds, obs),
        Prepared::Mesh(s) => mesh_deploy::run(s, seconds, obs),
        Prepared::Open(s) => serve_open::run(s, seconds, obs),
        Prepared::Chaos(s) => serve_chaos::run(s, seconds, obs),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The end-to-end metrics every workload reports, normalized to the
/// reference host and as measured (`raw`). Every rate, latency window
/// and set-up time is normalized by the calibration next to it. `setup`
/// holds `(set-up time, calibration after it)` pairs.
fn end_to_end(report: &Report, setup: &[(f64, f64)]) -> (Metrics, Metrics, f64) {
    let setup_raw: Vec<f64> = setup.iter().map(|&(s, _)| s).collect();
    let setup_norm: Vec<f64> = setup
        .iter()
        .map(|&(s, c)| s * CALIBRATION_REFERENCE_S / c)
        .collect();
    let mut out = [Metrics::new(), Metrics::new()];
    let mut q = 1.0;
    for (m, (setups, rate, windows)) in out.iter_mut().zip([
        (&setup_norm, report.throughput_norm(), &report.latency_norm),
        (&setup_raw, report.throughput(), &report.latency_ms),
    ]) {
        let (p50, p90, used) = stats::windowed_percentiles(windows, 0.9).unwrap_or_default();
        q = used;
        put(m, "setup_s", stats::median(setups).unwrap_or(0.0), "s");
        put(m, "throughput", rate, "1/s");
        put(m, "p50_ms", p50, "ms");
        put(m, "p90_ms", p90, "ms");
    }
    let [normalized, raw] = out;
    (normalized, raw, q)
}

/// A traced run: the workload untraced and traced for half the time
/// each (their headline ratio is the tracing overhead), then the other
/// three workloads at probe size, traced, so every per-layer metric is
/// present. The workload's own values win over probe values.
fn traced(
    args: &Args,
    prepared: &mut Prepared,
    out: &Path,
) -> Result<(Report, Metrics, String), String> {
    let half = args.seconds / 2.0;
    let untraced = run(prepared, half, &Obs::off())?;
    let obs = Obs::traced();
    let mut report = run(prepared, half, &obs)?;
    let overhead = untraced.throughput_norm() / report.throughput_norm() - 1.0;
    report.attempted += untraced.attempted;
    report.failed += untraced.failed;
    report.mismatches.extend(untraced.mismatches);
    let mut layer = std::mem::take(&mut report.layer);
    put(&mut layer, "obs.trace_overhead", overhead, "share");
    put(&mut layer, "error_rate", report.error_rate, "share");
    put(
        &mut layer,
        "peak_rss_mib",
        peak_rss_mib().unwrap_or(0.0),
        "MiB",
    );
    let calibration = report
        .samples
        .get(CALIBRATION_SERIES)
        .map_or(&[][..], Vec::as_slice);
    let calibration_ms = stats::good_time(calibration).unwrap_or(0.0) * 1e3;
    put(&mut layer, "host.calibration_ms", calibration_ms, "ms");

    let mut self_ns: BTreeMap<&'static str, u64> = obs.tracer.layer_self_ns();
    let mut csv = obs.tracer.to_csv();
    let mut spans = summary_lines(&args.workload, &obs);
    for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
        let probe_obs = Obs::traced();
        let mut probe = setup(other, args.seed, Size::Probe, &probe_obs)?;
        let probe_report = run(&mut probe, PROBE_SECONDS, &probe_obs)?;
        for (name, metric) in probe_report.layer {
            layer.entry(name).or_insert(metric);
        }
        report.mismatches.extend(probe_report.mismatches);
        for (l, ns) in probe_obs.tracer.layer_self_ns() {
            *self_ns.entry(l).or_insert(0) += ns;
        }
        csv.push_str(
            probe_obs
                .tracer
                .to_csv()
                .split_once('\n')
                .map_or("", |(_, rest)| rest),
        );
        spans.push_str(&summary_lines(other, &probe_obs));
    }
    for (l, ns) in self_ns {
        put(&mut layer, format!("self_s.{l}"), ns as f64 / 1e9, "s");
    }
    let path = out.join(format!("trace-{}.csv", args.workload));
    std::fs::write(&path, csv).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((report, layer, spans))
}

/// Span summary lines (count, total, self) for one traced pass.
fn summary_lines(pass: &str, obs: &Obs) -> String {
    let mut out = String::new();
    for ((layer, name), s) in obs.tracer.summary() {
        let _ = writeln!(
            out,
            "  span {pass:<12} {layer:<8} {name:<22} count {:>8}  total {:>10.4} s  self {:>10.4} s",
            s.count,
            s.total_ns as f64 / 1e9,
            s.self_ns as f64 / 1e9
        );
    }
    out
}

/// A JSON number with all its digits, or `null` when not finite.
fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".into()
    }
}

fn json_list(values: &[f64]) -> String {
    let body: Vec<String> = values.iter().map(|&v| json_f64(v)).collect();
    format!("[{}]", body.join(", "))
}

fn json_metrics(metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, Metric { value, unit })| {
            let value = json_f64(*value);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn record_json(
    args: &Args,
    host: &Host,
    setup_samples: &[f64],
    report: &Report,
    metrics: &Metrics,
) -> String {
    let samples: Vec<String> = report
        .samples
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_list(v)))
        .chain([
            format!("\"setup_s\": {}", json_list(setup_samples)),
            format!("\"rates\": {}", json_list(&report.rates)),
            format!("\"rates_norm\": {}", json_list(&report.rates_norm)),
        ])
        .chain(std::iter::once(format!(
            "\"latency_ms\": [{}]",
            report
                .latency_ms
                .iter()
                .map(|w| json_list(w))
                .collect::<Vec<_>>()
                .join(", ")
        )))
        .collect();
    let digests: Vec<String> = report
        .digests
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v:016x}\""))
        .collect();
    let mismatches: Vec<String> = report.mismatches.iter().map(|m| json_string(m)).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {:?}, \"trace\": {}, \
         \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_sha\": {}}}, \
         \"metrics\": {}, \"named\": {}, \"digests\": {{{}}}, \"mismatches\": [{}], \
         \"samples\": {{{}}}}}\n",
        json_string(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.nproc,
        json_string(&host.cpu_model),
        json_string(&host.rustc),
        json_string(&host.git_sha),
        json_metrics(metrics),
        json_metrics(&report.named),
        digests.join(", "),
        mismatches.join(", "),
        samples.join(", ")
    )
}

/// Keeps the chaos plan's scheduled replica panics off stderr: they are
/// the workload, thousands per run, and the default hook's cost (and
/// any backtrace capture the environment asks for) would otherwise be
/// measured too. Every other panic still reaches the default hook.
fn quiet_chaos_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !message.starts_with("chaos:") {
            default(info);
        }
    }));
}

fn main() -> ExitCode {
    quiet_chaos_panics();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::from(2)
        }
    }
}

/// Runs the benchmark; `Ok(false)` when a correctness check failed.
fn bench(args: &Args) -> Result<bool, String> {
    let root = PathBuf::from(".");
    let out = root.join(OUT_DIR);
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let host = Host::detect(&root);

    let mut setup_samples = Vec::new();
    let mut setup_calibration = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let p = setup(&args.workload, args.seed, Size::Full, &Obs::off())?;
        setup_samples.push(started.elapsed().as_secs_f64());
        setup_calibration.push(calibrate());
        prepared = Some(p);
    }
    let mut prepared = prepared.ok_or("no set-up ran")?;

    let (mut report, metrics, spans) = if args.trace {
        traced(args, &mut prepared, &out)?
    } else {
        let mut report = run(&mut prepared, args.seconds, &Obs::off())?;
        let setup: Vec<(f64, f64)> = setup_samples
            .iter()
            .copied()
            .zip(setup_calibration.iter().copied())
            .collect();
        let (metrics, raw, q) = end_to_end(&report, &setup);
        let calibration = report
            .samples
            .get(CALIBRATION_SERIES)
            .map_or(&[][..], Vec::as_slice);
        let calibration_s = stats::median(calibration).unwrap_or(CALIBRATION_REFERENCE_S);
        let slowdown = calibration_s / CALIBRATION_REFERENCE_S;
        let note = format!(
            "  p90_ms: lower quartile over {} windows of {} samples, lowest percentile used p{:.2}\n  \
             host calibration {:.3} ms median (reference {:.3} ms): end-to-end metrics are \
             normalized to the reference host; raw.* are as measured\n",
            report.latency_ms.len(),
            report.latency_ms.iter().map(Vec::len).sum::<usize>(),
            q * 100.0,
            calibration_s * 1e3,
            CALIBRATION_REFERENCE_S * 1e3,
        );
        for (name, m) in &raw {
            report.named.insert(format!("raw.{name}"), *m);
        }
        put(&mut report.named, "host_slowdown", slowdown, "ratio");
        let rss = peak_rss_mib().unwrap_or(0.0);
        put(&mut report.named, "peak_rss_mib", rss, "MiB");
        report
            .samples
            .insert("setup_calibration_s".into(), setup_calibration);
        (report, metrics, note)
    };
    for (name, m) in &metrics {
        if !m.value.is_finite() {
            report.mismatch(format!("metric {name} is not finite"));
        }
    }
    let correct = report.mismatches.is_empty();

    let record = record_json(args, &host, &setup_samples, &report, &metrics);
    let path = out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, record).map_err(|e| format!("{}: {e}", path.display()))?;

    println!(
        "workload {} seed {} seconds {}",
        args.workload, args.seed, args.seconds
    );
    println!(
        "host: nproc {}, cpu {}, {}, git {}",
        host.nproc, host.cpu_model, host.rustc, host.git_sha
    );
    for (name, m) in &report.named {
        println!("  {name:<28} {:>14.4} {}", m.value, m.unit);
    }
    for (name, d) in &report.digests {
        println!("  digest {name:<36} {d:016x}");
    }
    print!("{spans}");
    for m in &report.mismatches {
        println!("  MISMATCH {m}");
    }
    println!("  record {}", path.display());
    let metrics: Metrics = metrics
        .into_iter()
        .map(|(k, m)| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            (k, Metric { value, ..m })
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted.max(1),
        report.failed,
        json_metrics(&metrics)
    );
    Ok(correct)
}
