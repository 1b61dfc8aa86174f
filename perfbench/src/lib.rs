//! End-to-end and per-layer benchmark of the Know Your Phish system.
//!
//! A run generates one workload's inputs from its seed, restores the
//! program from files (timed as `setup_s`), measures untraced passes for
//! the requested seconds, adds a traced pass after each untraced one when
//! asked for per-layer metrics, and checks every output against the plain
//! serial path. Wall-clock metrics are scaled to a reference machine
//! speed measured beside the workload ([`speed`]) and sum each unit of
//! work's median round. See `README.md` in this directory.

#![forbid(unsafe_code)]

pub mod args;
pub mod ledger;
pub mod report;
pub mod setup;
pub mod speed;
pub mod workloads;

pub use args::{Args, Workload};

use ledger::{check_gate, Layer};
use report::{median, quantile, ratio, Metric};
use setup::{Sizes, Stack};
use speed::SpeedProbe;
use std::path::Path;
use std::time::Instant;

/// Times the program's set-up is repeated; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The end-to-end metrics, with their units, in report order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("verdicts_per_sec", "1/s"),
    ("page_p50_ms", "ms"),
    ("page_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, with their units, in report order.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("store.pages", "count"),
    ("store.decode_us_per_page", "us"),
    ("store.share", "ratio"),
    ("web.scrapes", "count"),
    ("web.scrape_us_per_page", "us"),
    ("web.retries", "count"),
    ("web.failed", "count"),
    ("web.share", "ratio"),
    ("cascade.screened", "count"),
    ("cascade.us_per_url", "us"),
    ("cascade.final_ratio", "ratio"),
    ("cascade.share", "ratio"),
    ("features.pages", "count"),
    ("features.us_per_page", "us"),
    ("features.share", "ratio"),
    ("detector.rows", "count"),
    ("detector.us_per_row", "us"),
    ("detector.share", "ratio"),
    ("target.pages", "count"),
    ("target.ms_per_page", "ms"),
    ("target.step1_us", "us"),
    ("target.step2_us", "us"),
    ("target.step3_us", "us"),
    ("target.step4_us", "us"),
    ("target.step5_us", "us"),
    ("target.share", "ratio"),
    ("serve.fetches", "count"),
    ("serve.fetch_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.batches", "count"),
    ("serve.mean_batch", "count"),
    ("serve.self_share", "ratio"),
    ("cluster.dispatched", "count"),
    ("cluster.route_around", "count"),
    ("cluster.parked", "count"),
    ("cluster.hot_fanout", "count"),
    ("cluster.self_share", "ratio"),
    ("unattributed.share", "ratio"),
    ("trace.residual_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("failed_share", "ratio"),
    ("virtual_p99_ms", "ms"),
    ("detect_auc", "ratio"),
    ("target_top1", "ratio"),
];

/// What a run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every output matched the serial reference and, traced, the
    /// layer-sum gate held.
    pub correct: bool,
    /// Inputs attempted in the measured passes.
    pub attempted: u64,
    /// Inputs whose output did not match the serial reference.
    pub failed: u64,
    /// The metrics, end-to-end or per-layer.
    pub metrics: Vec<Metric>,
}

/// Peak resident memory of this process, in MB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Runs one benchmark run with its inputs under `dir`.
///
/// # Errors
///
/// Input generation, set-up and store failures.
pub fn run(args: &Args, sizes: &Sizes, dir: &Path) -> Result<Outcome, String> {
    knowyourphish::exec::set_threads(1);
    let corpus = setup::generate(args.workload, args.seed, sizes, dir)?;

    // Each set-up is scaled by the mean of the speed probes either side.
    let peak_before_probe = peak_rss_mb()?;
    let mut probe = SpeedProbe::new();
    let mut raw_setup = Vec::with_capacity(SETUP_REPS);
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut before = probe.measure();
    let mut stack = None;
    for _ in 0..SETUP_REPS {
        drop(stack.take());
        let t = Instant::now();
        stack = Some(Stack::restore(args.workload, dir)?);
        let secs = t.elapsed().as_secs_f64();
        let after = probe.measure();
        raw_setup.push(secs);
        setup_secs.push(secs * speed::REFERENCE_SECS / ((before + after) / 2.0));
        before = after;
    }
    let mut stack = stack.ok_or("no set-up ran")?;

    let ctx = workloads::Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        sizes,
        dir,
        corpus: &corpus,
    };
    let run = workloads::run(&ctx, &mut stack, &mut probe)?;
    // Per-layer times are scaled by the run's median probe.
    let probe_median = median(probe.samples());
    let scale = speed::REFERENCE_SECS / probe_median;
    eprintln!(
        "perfbench: {} unscaled setup {:?} s, verdicts/s per pass as timed {:?}, \
         {} speed probes, median {:.6} s; unscaled verdicts/s, p50, p99: {} {} {}",
        args.workload.name(),
        raw_setup,
        run.pass_rates,
        probe.samples().len(),
        probe_median,
        run.unscaled.verdicts_per_sec,
        quantile(&run.unscaled.page_ms, 0.5),
        quantile(&run.unscaled.page_ms, 0.99),
    );
    let mut correct = run.mismatches == 0;
    if run.mismatches > 0 {
        eprintln!(
            "perfbench: {} outputs differ from the serial reference",
            run.mismatches
        );
    }

    let metrics = if let Some(layers) = &run.layers {
        if let Err(e) = check_gate(&layers.ledger, layers.traced_wall) {
            eprintln!("perfbench: layer-sum gate failed: {e}");
            correct = false;
        }
        layer_metrics(&run, layers, scale)
    } else {
        let values = [
            median(&setup_secs),
            run.scaled.verdicts_per_sec,
            quantile(&run.scaled.page_ms, 0.5),
            quantile(&run.scaled.page_ms, 0.99),
            // The probe's table is resident from its allocation on; a
            // peak reached after that counts without it.
            peak_before_probe.max(peak_rss_mb()? - speed::TABLE_BYTES as f64 / (1024.0 * 1024.0)),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric::new(name, value, unit))
            .collect()
    };
    Ok(Outcome {
        correct,
        attempted: run.attempted,
        failed: run.mismatches,
        metrics,
    })
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order. Times
/// per item are multiplied by `scale`, the run's speed-probe factor;
/// shares and counts are not.
pub fn layer_metrics(
    run: &workloads::WorkloadRun,
    layers: &workloads::Layers,
    scale: f64,
) -> Vec<Metric> {
    let l = &layers.ledger;
    let c = &layers.counters;
    let passes = layers.passes.max(1) as f64;
    let per_pass = |layer: Layer| l.items(layer) as f64 / passes;
    let us_per = |layer: Layer| ratio(l.secs(layer) * 1e6 * scale, l.items(layer) as f64);
    let share = |layer: Layer| ratio(l.secs(layer), layers.traced_wall);
    let step_us = |i: usize| ratio(l.step_secs[i] * 1e6 * scale, l.step_pages[i] as f64);
    let values = [
        per_pass(Layer::Store),
        us_per(Layer::Store),
        share(Layer::Store),
        per_pass(Layer::Web),
        us_per(Layer::Web),
        c.web_retries as f64,
        c.web_failed as f64,
        share(Layer::Web),
        per_pass(Layer::Cascade),
        us_per(Layer::Cascade),
        ratio(c.cascade_finals as f64, per_pass(Layer::Cascade)),
        share(Layer::Cascade),
        per_pass(Layer::Features),
        us_per(Layer::Features),
        share(Layer::Features),
        per_pass(Layer::Detector),
        us_per(Layer::Detector),
        share(Layer::Detector),
        per_pass(Layer::Target),
        ratio(
            l.secs(Layer::Target) * 1e3 * scale,
            l.items(Layer::Target) as f64,
        ),
        step_us(0),
        step_us(1),
        step_us(2),
        step_us(3),
        step_us(4),
        share(Layer::Target),
        c.serve_fetches as f64,
        ratio(c.serve_fetch_secs * 1e6 * scale, c.serve_fetches as f64),
        ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
        c.batches as f64,
        ratio(c.batch_requests as f64, c.batches as f64),
        share(Layer::Serve),
        c.dispatched as f64,
        c.route_around as f64,
        c.parked as f64,
        c.hot_fanout as f64,
        share(Layer::Cluster),
        share(Layer::Unattributed),
        ratio(layers.traced_wall - l.total_secs(), layers.traced_wall),
        ratio(
            layers.traced_wall - layers.untraced_wall,
            layers.untraced_wall,
        ),
        ratio(run.no_verdict as f64, run.attempted as f64),
        run.virtual_p99_ms,
        run.detect_auc,
        run.target_top1,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect()
}
