//! The four workloads: a timed phase of untraced passes, in traced mode
//! a traced pass after each untraced one, and an untimed output check
//! against the plain serial path.
//!
//! Every pass does the same work in the same order, split into units:
//! a shard store, a page, or a call into a service. Between units the
//! untraced passes let the [`SpeedProbe`] measure the machine about once
//! a second, and each unit's wall time is scaled by the latest probes. A
//! reported wall time is the sum over units of each unit's median over
//! the rounds.

use crate::ledger::{Layer, Ledger, WallObserver};
use crate::setup::{shard_dir, Sizes, Stack};
use crate::speed::{SpeedProbe, UnitTimes};
use crate::Workload;
use knowyourphish::cluster::{ClusterConfig, ClusterReport, ClusterService};
use knowyourphish::core::{
    CascadeClassifier, CascadeDecision, ClassifiedPage, Pipeline, PipelineVerdict,
};
use knowyourphish::datagen::{Corpus, PhishRecord};
use knowyourphish::ml::metrics;
use knowyourphish::obs::{NoopObserver, VerdictStage};
use knowyourphish::serve::{
    generate, ArrivalPattern, BatchPolicy, CacheConfig, CacheState, PageSource, ScoringService,
    ServeConfig, ServeOutcome, ServeReport, ServeRequest, ServeResponse, StoredPages,
    WorkloadConfig,
};
use knowyourphish::store::{pages_path, PageStoreReader};
use knowyourphish::storeflow;
use knowyourphish::web::{
    FailureCause, FaultPlan, FlakyWorld, ResilientBrowser, ScrapedPage, SourceAvailability,
    VisitedPage,
};
use kyp_bench::TimedSource;
use std::cell::Cell;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Fault rate of the simulated web the phishing feed is scraped from.
pub const FEED_FAULT_RATE: f64 = 0.1;

/// Share of serving requests that repeat an earlier URL.
pub const DUPLICATE_RATE: f64 = 0.3;

/// Arrival gap of `serve_cascade`: 500 requests per virtual second, of
/// which the ~7% that fall through the cascade load the node's
/// 121 req/s scorer to about a third, below the knee.
pub const SERVE_GAP_MS: u64 = 2;

/// Burst size of `cluster_burst`: above the fleet's queue capacity of
/// 2 × 64, so the router parks requests (see the benchmark's README).
pub const CLUSTER_BURST: usize = 192;

/// Request traces per pass of `serve_cascade`, each from its own seed into
/// a fresh node. About 7% of its requests fall through to a fetch; four
/// traces give its page-time tail some 2,200 requests instead of 560.
pub const SERVE_TRACES: u64 = 4;

/// Idle gap after each burst: with 1 ms inside a burst, a 192-request
/// cycle lasts 1,148 ms, a mean of 167 req/s or 69% of the fleet's
/// nominal 2 × 121 req/s.
pub const CLUSTER_IDLE_MS: u64 = 957;

/// What the program needs for a run, and how long to measure.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// The workload.
    pub workload: Workload,
    /// The run's seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether to add traced passes.
    pub trace: bool,
    /// Input sizes.
    pub sizes: &'a Sizes,
    /// Directory holding the generated files.
    pub dir: &'a Path,
    /// The generated corpus: the simulated web and the ground truth.
    pub corpus: &'a Corpus,
}

/// Counters of a traced run that do not come from spans, per pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// Scraper retries beyond each URL's first fetch.
    pub web_retries: u64,
    /// Scrapes that ended without a page.
    pub web_failed: u64,
    /// URL-stage finals among screened URLs.
    pub cascade_finals: u64,
    /// Page-source fetches.
    pub serve_fetches: u64,
    /// Wall seconds inside page-source fetches.
    pub serve_fetch_secs: f64,
    /// Verdict-cache hits.
    pub cache_hits: u64,
    /// Verdict-cache misses.
    pub cache_misses: u64,
    /// Batches flushed.
    pub batches: u64,
    /// Requests in flushed batches.
    pub batch_requests: u64,
    /// Requests the router handed to a node.
    pub dispatched: u64,
    /// Dispatches deflected to the next ring candidate.
    pub route_around: u64,
    /// Requests parked at the router.
    pub parked: u64,
    /// Hot-URL replica fan-outs.
    pub hot_fanout: u64,
}

impl Counters {
    fn add(&mut self, other: &Counters) {
        self.web_retries += other.web_retries;
        self.web_failed += other.web_failed;
        self.cascade_finals += other.cascade_finals;
        self.serve_fetches += other.serve_fetches;
        self.serve_fetch_secs += other.serve_fetch_secs;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.batches += other.batches;
        self.batch_requests += other.batch_requests;
        self.dispatched += other.dispatched;
        self.route_around += other.route_around;
        self.parked += other.parked;
        self.hot_fanout += other.hot_fanout;
    }
}

/// The traced passes of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    /// Self time and counts over every traced pass.
    pub ledger: Ledger,
    /// Traced passes run.
    pub passes: u64,
    /// Summed wall of the traced passes.
    pub traced_wall: f64,
    /// Summed wall of the untraced pass run before each traced one.
    pub untraced_wall: f64,
    /// Counters of one traced pass.
    pub counters: Counters,
}

/// Wall-clock results from each unit's median round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Estimate {
    /// Final verdicts per wall second of the workload's own path.
    pub verdicts_per_sec: f64,
    /// Wall milliseconds from input to verdict, per input.
    pub page_ms: Vec<f64>,
}

/// Everything a workload run measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadRun {
    /// Inputs attempted over the untraced passes.
    pub attempted: u64,
    /// Of those, inputs that got no final verdict.
    pub no_verdict: u64,
    /// Outputs that differ from the serial reference or the first pass.
    pub mismatches: u64,
    /// Throughput and page times from probe-scaled unit times.
    pub scaled: Estimate,
    /// Throughput and page times from unit times as measured.
    pub unscaled: Estimate,
    /// Final verdicts per wall second of each untraced pass, as timed
    /// (diagnostics only).
    pub pass_rates: Vec<f64>,
    /// Exact p99 of the virtual latency (serving workloads).
    pub virtual_p99_ms: f64,
    /// Detector AUC on the stored test bundles (store_scan).
    pub detect_auc: f64,
    /// Share of feed pages with a known target whose top candidate is
    /// that target (phish_feed).
    pub target_top1: f64,
    /// Traced passes (traced mode only).
    pub layers: Option<Layers>,
}

/// Outputs in `got` that differ from `expected`, position by position,
/// plus any difference in length.
pub fn mismatches(expected: &[String], got: &[String]) -> u64 {
    let differing = expected.iter().zip(got).filter(|(a, b)| a != b).count();
    (differing + expected.len().abs_diff(got.len())) as u64
}

impl WorkloadRun {
    fn compare(&mut self, expected: &[String], got: &[String]) {
        self.mismatches += mismatches(expected, got);
    }

    fn estimate(&mut self, scaled: bool) -> &mut Estimate {
        if scaled {
            &mut self.scaled
        } else {
            &mut self.unscaled
        }
    }
}

/// Runs `body` in rounds for about `seconds`, and at least `min_rounds`
/// times: a further round starts only while the phase would end closer
/// to `seconds` with it than without it.
fn repeat_for(
    seconds: f64,
    min_rounds: usize,
    mut body: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    for round in 1.. {
        body()?;
        let elapsed = start.elapsed().as_secs_f64();
        let mean_round = elapsed / round as f64;
        if round >= min_rounds && elapsed + mean_round / 2.0 >= seconds {
            break;
        }
    }
    Ok(())
}

/// Seconds to milliseconds.
fn ms(secs: f64) -> f64 {
    secs * 1e3
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Classifies one page, timing its spans into `ledger` when given.
fn classify(
    pipeline: &Pipeline,
    page: &VisitedPage,
    availability: &SourceAvailability,
    ledger: Option<&mut Ledger>,
) -> PipelineVerdict {
    match ledger {
        Some(ledger) => {
            let mut obs = WallObserver::begin(ledger);
            let verdict = pipeline.classify_bundle(page, availability, &mut obs);
            obs.end();
            verdict
        }
        None => pipeline.classify_bundle(page, availability, &mut NoopObserver),
    }
}

fn line_of(url: &str, verdict: PipelineVerdict, degraded: bool) -> String {
    storeflow::verdict_line(&ClassifiedPage {
        url: url.to_owned(),
        verdict,
        degraded,
    })
}

/// Runs `ctx.workload` on the restored `stack`.
///
/// # Errors
///
/// Store and input failures, rendered as strings.
pub fn run(
    ctx: &Ctx<'_>,
    stack: &mut Stack,
    probe: &mut SpeedProbe,
) -> Result<WorkloadRun, String> {
    match ctx.workload {
        Workload::StoreScan => store_scan(ctx, &stack.pipeline, probe),
        Workload::PhishFeed => phish_feed(ctx, &stack.pipeline, probe),
        Workload::ServeCascade | Workload::ClusterBurst => {
            let (pages, pool) = stack
                .pages
                .as_mut()
                .ok_or("serving workload restored without pages")?;
            let system = Serving {
                workload: ctx.workload,
                pipeline: &stack.pipeline,
                cascade: stack.cascade.as_ref(),
            };
            serving(ctx, &system, pages, pool, probe)
        }
    }
}

// ---------------------------------------------------------------- store_scan

/// The serial path over the shard stores: decode block by block, then
/// `classify_bundle` one page at a time. A page's wall time is its own
/// classification plus an equal share of its block's read, as in the
/// paper's per-page processing time.
struct StorePass {
    lines: Vec<String>,
    factors: Vec<f64>,
    urls: Vec<String>,
    scores: Vec<f64>,
    page_ms: Vec<f64>,
    wall: f64,
}

fn store_serial(
    shards: &[PathBuf],
    pipeline: &Pipeline,
    mut ledger: Option<&mut Ledger>,
    mut probe: Option<&mut SpeedProbe>,
) -> Result<StorePass, String> {
    let start = Instant::now();
    let mut pass = StorePass {
        lines: Vec::new(),
        factors: Vec::new(),
        urls: Vec::new(),
        scores: Vec::new(),
        page_ms: Vec::new(),
        wall: 0.0,
    };
    let mut decode = std::time::Duration::ZERO;
    let mut probing = 0.0;
    for dir in shards {
        let factor = match probe.as_deref_mut() {
            Some(probe) => {
                probing += probe.tick();
                probe.factor()
            }
            None => 1.0,
        };
        let t = Instant::now();
        let path = pages_path(dir);
        let mut reader =
            PageStoreReader::open(&path).map_err(|e| format!("open {}: {e}", path.display()))?;
        let mut read = t.elapsed();
        loop {
            let block_start = Instant::now();
            let block = reader
                .next_block()
                .map_err(|e| format!("read page store: {e}"))?;
            read += block_start.elapsed();
            let Some(block) = block else { break };
            decode += read;
            let read_share = ms(read.as_secs_f64()) / block.len().max(1) as f64;
            read = std::time::Duration::ZERO;
            if let Some(ledger) = ledger.as_deref_mut() {
                ledger.count(Layer::Store, block.len() as u64);
            }
            for page in block {
                let t = Instant::now();
                let url = page.starting_url.to_string();
                let verdict = classify(
                    pipeline,
                    &page,
                    &SourceAvailability::FULL,
                    ledger.as_deref_mut(),
                );
                pass.page_ms.push(read_share + ms_since(t));
                pass.factors.push(factor);
                pass.scores.push(verdict.score());
                pass.lines.push(line_of(&url, verdict, false));
                pass.urls.push(url);
            }
        }
        decode += read;
    }
    if let Some(ledger) = ledger {
        ledger.add(Layer::Store, decode);
    }
    pass.wall = start.elapsed().as_secs_f64() - probing;
    Ok(pass)
}

/// The shard stores of a `store_scan` work directory, in order.
fn shards(dir: &Path) -> Vec<PathBuf> {
    (0..)
        .map(|k| shard_dir(dir, k))
        .take_while(|d| d.is_dir())
        .collect()
}

fn store_scan(
    ctx: &Ctx<'_>,
    pipeline: &Pipeline,
    probe: &mut SpeedProbe,
) -> Result<WorkloadRun, String> {
    let shards = shards(ctx.dir);
    if shards.is_empty() {
        return Err(format!("no shard stores under {}", ctx.dir.display()));
    }
    let mut run = WorkloadRun::default();
    let mut layers = Layers::default();
    let mut shard_secs = UnitTimes::default();
    let mut page_ms = UnitTimes::default();
    let mut first: Option<(Vec<String>, StorePass)> = None;
    repeat_for(ctx.seconds, 1, || {
        let mut lines = Vec::new();
        let mut raw = 0.0;
        let mut secs = Vec::with_capacity(shards.len());
        let mut factors = Vec::with_capacity(shards.len());
        for dir in &shards {
            probe.tick();
            let t = Instant::now();
            lines.extend(storeflow::store_verdict_lines(dir, pipeline)?);
            let elapsed = t.elapsed().as_secs_f64();
            raw += elapsed;
            secs.push(elapsed);
            factors.push(probe.factor());
        }
        run.attempted += lines.len() as u64;
        run.pass_rates.push(lines.len() as f64 / raw);
        shard_secs.push(secs, factors)?;
        let serial = store_serial(&shards, pipeline, None, Some(&mut *probe))?;
        run.compare(&lines, &serial.lines);
        page_ms.push(serial.page_ms.clone(), serial.factors.clone())?;
        if ctx.trace {
            let mut ledger = Ledger::default();
            let traced = store_serial(&shards, pipeline, Some(&mut ledger), None)?;
            run.compare(&lines, &traced.lines);
            layers.add_pass(&ledger, traced.wall, serial.wall, Counters::default());
        }
        match &first {
            Some((f, _)) => run.compare(f, &lines),
            None => first = Some((lines, serial)),
        }
        Ok(())
    })?;
    let (lines, reference) = first.ok_or("no pass ran")?;
    for scaled in [true, false] {
        *run.estimate(scaled) = Estimate {
            verdicts_per_sec: lines.len() as f64 / shard_secs.medians(scaled).iter().sum::<f64>(),
            page_ms: page_ms.medians(scaled),
        };
    }

    let (legit, phish) = storeflow::load_split_urls(ctx.dir, "leg_test", "phish_test")?;
    let legit: BTreeSet<String> = legit.into_iter().collect();
    let phish: BTreeSet<String> = phish.into_iter().collect();
    let (mut scores, mut labels) = (Vec::new(), Vec::new());
    for (url, score) in reference.urls.iter().zip(&reference.scores) {
        if phish.contains(url) || legit.contains(url) {
            scores.push(*score);
            labels.push(phish.contains(url));
        }
    }
    run.detect_auc = metrics::auc(&scores, &labels);
    run.layers = ctx.trace.then_some(layers);
    Ok(run)
}

impl Layers {
    fn add_pass(
        &mut self,
        ledger: &Ledger,
        traced_wall: f64,
        untraced_wall: f64,
        counters: Counters,
    ) {
        self.ledger.merge(ledger);
        self.passes += 1;
        self.traced_wall += traced_wall;
        self.untraced_wall += untraced_wall;
        self.counters = counters;
    }
}

// ---------------------------------------------------------------- phish_feed

struct FeedPass {
    lines: Vec<String>,
    factors: Vec<f64>,
    page_ms: Vec<f64>,
    verdicts: u64,
    failed: u64,
    top1_hits: u64,
    retries: u64,
    wall: f64,
}

/// One closed-loop pass over the feed: scrape, then classify, one page
/// at a time, over a fresh scraper and the seeded fault plan.
fn feed_pass(
    ctx: &Ctx<'_>,
    pipeline: &Pipeline,
    feed: &[PhishRecord],
    mut ledger: Option<&mut Ledger>,
    mut probe: Option<&mut SpeedProbe>,
) -> FeedPass {
    let flaky = FlakyWorld::new(&ctx.corpus.world, FaultPlan::new(ctx.seed, FEED_FAULT_RATE));
    let mut scraper = ResilientBrowser::new(&flaky);
    let mut pass = FeedPass {
        lines: Vec::with_capacity(feed.len()),
        factors: Vec::with_capacity(feed.len()),
        page_ms: Vec::with_capacity(feed.len()),
        verdicts: 0,
        failed: 0,
        top1_hits: 0,
        retries: 0,
        wall: 0.0,
    };
    let start = Instant::now();
    let mut probing = 0.0;
    for record in feed {
        let factor = match probe.as_deref_mut() {
            Some(probe) => {
                probing += probe.tick();
                probe.factor()
            }
            None => 1.0,
        };
        let t = Instant::now();
        let scraped = scraper.scrape(&record.url);
        if let Some(ledger) = ledger.as_deref_mut() {
            ledger.add(Layer::Web, t.elapsed());
            ledger.count(Layer::Web, 1);
        }
        match scraped {
            Ok(page) => {
                let verdict = classify(
                    pipeline,
                    &page.visit,
                    &page.availability,
                    ledger.as_deref_mut(),
                );
                pass.verdicts += 1;
                if let (PipelineVerdict::Phish { candidates, .. }, Some(target)) =
                    (&verdict, &record.target)
                {
                    if candidates.first().is_some_and(|c| &c.mld == target) {
                        pass.top1_hits += 1;
                    }
                }
                let degraded = page.availability.is_degraded();
                pass.lines.push(line_of(&record.url, verdict, degraded));
            }
            Err(failure) => {
                pass.failed += 1;
                pass.lines.push(format!(
                    "{}\tunfetchable cause={}",
                    record.url,
                    failure.cause.wire_name()
                ));
            }
        }
        pass.page_ms.push(ms_since(t));
        pass.factors.push(factor);
    }
    pass.wall = start.elapsed().as_secs_f64() - probing;
    pass.retries = scraper.total_retries();
    pass
}

fn phish_feed(
    ctx: &Ctx<'_>,
    pipeline: &Pipeline,
    probe: &mut SpeedProbe,
) -> Result<WorkloadRun, String> {
    let feed: Vec<PhishRecord> = ctx
        .corpus
        .phish_test
        .iter()
        .chain(&ctx.corpus.phish_brand)
        .cloned()
        .collect();
    let known_targets = feed.iter().filter(|r| r.target.is_some()).count();
    let mut run = WorkloadRun::default();
    let mut layers = Layers::default();
    let mut first: Option<Vec<String>> = None;
    let mut page_ms = UnitTimes::default();
    let mut verdicts = 0;
    // Two rounds at least: each pass is checked against the first.
    repeat_for(ctx.seconds, 2, || {
        let pass = feed_pass(ctx, pipeline, &feed, None, Some(&mut *probe));
        verdicts = pass.verdicts;
        run.attempted += feed.len() as u64;
        run.no_verdict += pass.failed;
        run.pass_rates.push(pass.verdicts as f64 / pass.wall);
        page_ms.push(pass.page_ms.clone(), pass.factors.clone())?;
        run.target_top1 = pass.top1_hits as f64 / known_targets.max(1) as f64;
        if ctx.trace {
            let mut ledger = Ledger::default();
            let traced = feed_pass(ctx, pipeline, &feed, Some(&mut ledger), None);
            run.compare(&pass.lines, &traced.lines);
            let counters = Counters {
                web_retries: traced.retries,
                web_failed: traced.failed,
                ..Counters::default()
            };
            layers.add_pass(&ledger, traced.wall, pass.wall, counters);
        }
        match &first {
            Some(f) => run.compare(f, &pass.lines),
            None => first = Some(pass.lines),
        }
        Ok(())
    })?;
    for scaled in [true, false] {
        let page_ms = page_ms.medians(scaled);
        *run.estimate(scaled) = Estimate {
            verdicts_per_sec: verdicts as f64 / (page_ms.iter().sum::<f64>() * 1e-3),
            page_ms,
        };
    }
    run.layers = ctx.trace.then_some(layers);
    Ok(run)
}

// ------------------------------------------------------ serve_cascade, cluster_burst

/// A page source borrowing the stored pages, counting fetches.
struct Borrowed<'a> {
    pages: &'a mut StoredPages,
    fetches: Rc<Cell<u64>>,
}

impl PageSource for Borrowed<'_> {
    fn fetch(&mut self, url: &str) -> Result<ScrapedPage, FailureCause> {
        self.fetches.set(self.fetches.get() + 1);
        self.pages.fetch(url)
    }
}

fn node_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 64,
        batch: BatchPolicy {
            max_batch: 8,
            max_delay_ms: 25,
        },
        cache: Some(CacheConfig::default()),
        ..ServeConfig::default()
    }
}

/// The request trace of a serving workload.
pub fn serving_trace(
    workload: Workload,
    seed: u64,
    requests: usize,
    pool: &[String],
) -> Vec<ServeRequest> {
    let arrival = if workload == Workload::ClusterBurst {
        ArrivalPattern::Bursty {
            burst: CLUSTER_BURST,
            burst_gap_ms: 1,
            idle_gap_ms: CLUSTER_IDLE_MS,
        }
    } else {
        ArrivalPattern::Steady {
            gap_ms: SERVE_GAP_MS,
        }
    };
    let config = WorkloadConfig {
        seed,
        requests,
        duplicate_rate: DUPLICATE_RATE,
        arrival,
        fault_seed: 0,
        fault_rate: 0.0,
    };
    generate(&config, pool)
}

/// Either serving system, driven one call at a time.
enum System<S> {
    Node(Box<ScoringService<S>>),
    Fleet(Box<ClusterService<S>>),
}

impl<S: PageSource> System<S> {
    fn push(&mut self, request: ServeRequest, out: &mut Vec<ServeResponse>) {
        match self {
            System::Node(s) => out.extend(s.push(request)),
            System::Fleet(c) => out.extend(c.push(request).into_iter().map(|r| r.response)),
        }
    }

    fn finish(&mut self, out: &mut Vec<ServeResponse>) {
        match self {
            System::Node(s) => out.extend(s.finish()),
            System::Fleet(c) => out.extend(c.finish().into_iter().map(|r| r.response)),
        }
    }
}

fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        shards: 2,
        replicas: 2,
        node: node_config(),
        ..ClusterConfig::default()
    }
}

/// The restored program a serving workload drives.
struct Serving<'s> {
    workload: Workload,
    pipeline: &'s Pipeline,
    cascade: Option<&'s CascadeClassifier>,
}

impl Serving<'_> {
    fn build<S: PageSource>(&self, source: S) -> System<S> {
        let pipeline = self.pipeline.clone();
        if self.workload == Workload::ClusterBurst {
            System::Fleet(Box::new(ClusterService::new(
                pipeline,
                source,
                cluster_config(),
            )))
        } else {
            let mut service = ScoringService::new(pipeline, source, node_config());
            if let Some(cascade) = self.cascade {
                service = service.with_cascade(cascade.clone());
            }
            System::Node(Box::new(service))
        }
    }
}

/// One pass of a serving system over the trace.
struct ServePass {
    responses: Vec<ServeResponse>,
    /// Wall seconds of each call into the system: one `push` per
    /// request, in id order, then `finish`.
    call_secs: Vec<f64>,
    /// The probe factor in effect at each call (1 without a probe).
    factors: Vec<f64>,
    /// For each request id, the call that returned its response.
    returned_by: Vec<usize>,
    /// Wall inside calls into the system.
    call_wall: f64,
    wall: f64,
    node: Option<ServeReport>,
    fleet: Option<ClusterReport>,
}

/// Pushes every request of `trace` (ids `0..n`) into `system` one call
/// at a time, then drains it. Untraced passes let `probe` measure the
/// machine between calls.
fn serve_pass<S: PageSource>(
    system: &Serving<'_>,
    source: S,
    trace: &[ServeRequest],
    mut probe: Option<&mut SpeedProbe>,
) -> ServePass {
    let mut system = system.build(source);
    let mut responses = Vec::with_capacity(trace.len());
    let mut call_secs = Vec::with_capacity(trace.len() + 1);
    let mut returned_by = vec![usize::MAX; trace.len()];
    let start = Instant::now();
    let mut probing = 0.0;
    let mut call_wall = 0.0;
    let mut factors = Vec::with_capacity(trace.len() + 1);
    for call in 0..=trace.len() {
        let factor = match probe.as_deref_mut() {
            Some(probe) => {
                probing += probe.tick();
                probe.factor()
            }
            None => 1.0,
        };
        let before = responses.len();
        let t = Instant::now();
        match trace.get(call) {
            Some(request) => system.push(request.clone(), &mut responses),
            None => system.finish(&mut responses),
        }
        let elapsed = t.elapsed().as_secs_f64();
        call_wall += elapsed;
        call_secs.push(elapsed);
        factors.push(factor);
        for r in &responses[before..] {
            if let Some(slot) = returned_by.get_mut(r.id as usize) {
                *slot = call;
            }
        }
    }
    let wall = start.elapsed().as_secs_f64() - probing;
    let (node, fleet) = match &system {
        System::Node(s) => (Some(s.report()), None),
        System::Fleet(c) => (None, Some(c.report())),
    };
    ServePass {
        responses,
        call_wall,
        call_secs,
        factors,
        returned_by,
        wall,
        node,
        fleet,
    }
}

/// Wall milliseconds from each request's `push` to the end of the call
/// that returned its response, from per-call wall times, for the
/// requests `needs_page` marks.
fn request_ms(call_secs: &[f64], returned_by: &[usize], needs_page: &[bool]) -> Vec<f64> {
    let mut prefix = Vec::with_capacity(call_secs.len() + 1);
    prefix.push(0.0);
    for secs in call_secs {
        prefix.push(prefix.last().copied().unwrap_or(0.0) + secs);
    }
    returned_by
        .iter()
        .enumerate()
        .zip(needs_page)
        .filter(|(_, &needed)| needed)
        .filter_map(|((pushed, &returned), _)| {
            let end = prefix.get(returned.checked_add(1)?)?;
            Some(ms(end - prefix.get(pushed)?))
        })
        .collect()
}

fn sorted_lines(responses: &[ServeResponse]) -> Vec<String> {
    let mut keyed: Vec<(u64, String)> =
        responses.iter().map(|r| (r.id, r.verdict_line())).collect();
    keyed.sort_by_key(|&(id, _)| id);
    keyed.into_iter().map(|(_, line)| line).collect()
}

fn response_line(
    request: &ServeRequest,
    outcome: ServeOutcome,
    degraded: bool,
    stage: VerdictStage,
) -> String {
    ServeResponse {
        id: request.id,
        url: request.url.clone(),
        outcome,
        cache: CacheState::Skipped,
        degraded,
        latency_ms: 0,
        completed_ms: 0,
        stage,
    }
    .verdict_line()
}

/// The serial reference: prescreen, then fetch and `classify_bundle`,
/// one request at a time. Returns the verdict lines in id order.
fn serving_serial(
    system: &Serving<'_>,
    pages: &mut StoredPages,
    trace: &[ServeRequest],
) -> Vec<String> {
    let mut lines = Vec::with_capacity(trace.len());
    for request in trace {
        let decision = system.cascade.map(|c| c.prescreen(&request.url));
        if let Some(CascadeDecision::Final(v)) = decision {
            lines.push(response_line(
                request,
                ServeOutcome::from_verdict(&v.verdict),
                false,
                VerdictStage::UrlOnly,
            ));
            continue;
        }
        let line = match pages.fetch(&request.url) {
            Ok(page) => {
                let verdict = classify(system.pipeline, &page.visit, &page.availability, None);
                response_line(
                    request,
                    ServeOutcome::from_verdict(&verdict),
                    page.availability.is_degraded(),
                    VerdictStage::Full,
                )
            }
            Err(cause) => response_line(
                request,
                ServeOutcome::Unfetchable {
                    cause: cause.wire_name().to_owned(),
                },
                false,
                VerdictStage::Full,
            ),
        };
        lines.push(line);
    }
    lines
}

/// Re-times the layers a serving pass ran inside the system, on the
/// exact inputs it handed them, and derives the system's self time.
fn retime(
    system: &Serving<'_>,
    pages: &mut StoredPages,
    trace: &[ServeRequest],
    pass: &ServePass,
    fetches: u64,
    fetch_secs: f64,
) -> (Ledger, Counters) {
    let mut ledger = Ledger::default();
    let mut counters = Counters::default();
    if let Some(cascade) = system.cascade {
        for request in trace {
            let t = Instant::now();
            let decision = cascade.prescreen(&request.url);
            ledger.add(Layer::Cascade, t.elapsed());
            ledger.count(Layer::Cascade, 1);
            if matches!(decision, CascadeDecision::Final(_)) {
                counters.cascade_finals += 1;
            }
        }
    }
    for response in &pass.responses {
        if response.cache != CacheState::Miss {
            continue;
        }
        if let Ok(page) = pages.fetch(&response.url) {
            classify(
                system.pipeline,
                &page.visit,
                &page.availability,
                Some(&mut ledger),
            );
        }
    }
    let inside = ledger.total_secs();
    counters.serve_fetches = fetches;
    counters.serve_fetch_secs = fetch_secs;
    ledger.count(Layer::Serve, fetches);
    if system.workload == Workload::ClusterBurst {
        ledger.set_secs(Layer::Serve, fetch_secs);
        ledger.set_secs(Layer::Cluster, pass.call_wall - fetch_secs - inside);
    } else {
        ledger.set_secs(Layer::Serve, pass.call_wall - inside);
    }
    let nodes: Vec<&ServeReport> = match (&pass.node, &pass.fleet) {
        (Some(node), _) => vec![node],
        (None, Some(fleet)) => {
            counters.dispatched = fleet.routing.dispatched;
            counters.route_around = fleet.routing.route_around;
            counters.parked = fleet.routing.parked;
            counters.hot_fanout = fleet.routing.hot_fanout;
            fleet.nodes.iter().map(|n| &n.serve).collect()
        }
        (None, None) => Vec::new(),
    };
    for node in nodes {
        counters.cache_hits += node.cache.hits;
        counters.cache_misses += node.cache.misses;
        counters.batches += node.batches.batches;
        counters.batch_requests += node.batches.requests;
    }
    (ledger, counters)
}

/// Which requests of a pass needed their page: all but URL-stage finals.
fn needs_page(pass: &ServePass, requests: usize) -> Vec<bool> {
    let mut needs = vec![true; requests];
    for r in &pass.responses {
        if r.stage == VerdictStage::UrlOnly {
            if let Some(slot) = needs.get_mut(r.id as usize) {
                *slot = false;
            }
        }
    }
    needs
}

/// What the first pass over one trace leaves for the end of the run:
/// its lines in id order, the call that returned each request, and which
/// requests needed their page.
struct FirstPass {
    lines: Vec<String>,
    returned_by: Vec<usize>,
    needs_page: Vec<bool>,
}

fn serving(
    ctx: &Ctx<'_>,
    system: &Serving<'_>,
    pages: &mut StoredPages,
    pool: &[String],
    probe: &mut SpeedProbe,
) -> Result<WorkloadRun, String> {
    let count = if ctx.workload == Workload::ServeCascade {
        SERVE_TRACES
    } else {
        1
    };
    let traces: Vec<Vec<ServeRequest>> = (0..count)
        .map(|k| {
            let seed = ctx.seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            serving_trace(ctx.workload, seed, ctx.sizes.requests, pool)
        })
        .collect();
    let requests: usize = traces.iter().map(Vec::len).sum();
    let mut run = WorkloadRun::default();
    let mut layers = Layers::default();
    let mut call_secs = vec![UnitTimes::default(); traces.len()];
    let mut answered = 0;
    let mut first: Option<Vec<FirstPass>> = None;
    let fetches = Rc::new(Cell::new(0));
    repeat_for(ctx.seconds, 2, || {
        let mut virtual_ms = Vec::new();
        let (mut call_wall, mut wall, mut traced_wall) = (0.0, 0.0, 0.0);
        let mut ledger = Ledger::default();
        let mut counters = Counters::default();
        let mut round = Vec::with_capacity(traces.len());
        for (trace, units) in traces.iter().zip(call_secs.iter_mut()) {
            let pass = serve_pass(
                system,
                Borrowed {
                    pages,
                    fetches: Rc::clone(&fetches),
                },
                trace,
                Some(&mut *probe),
            );
            virtual_ms.extend(
                pass.responses
                    .iter()
                    .filter(|r| matches!(r.outcome, ServeOutcome::Verdict { .. }))
                    .map(|r| r.latency_ms as f64),
            );
            call_wall += pass.call_wall;
            wall += pass.wall;
            units.push(pass.call_secs.clone(), pass.factors.clone())?;
            let lines = sorted_lines(&pass.responses);
            if ctx.trace {
                fetches.set(0);
                let (source, fetch_nanos) = TimedSource::new(Borrowed {
                    pages,
                    fetches: Rc::clone(&fetches),
                });
                let traced = serve_pass(system, source, trace, None);
                run.compare(&lines, &sorted_lines(&traced.responses));
                let fetch_secs = fetch_nanos.load(Ordering::Relaxed) as f64 * 1e-9;
                let (l, c) = retime(system, pages, trace, &traced, fetches.get(), fetch_secs);
                ledger.merge(&l);
                counters.add(&c);
                traced_wall += traced.wall;
            }
            round.push(FirstPass {
                needs_page: needs_page(&pass, trace.len()),
                lines,
                returned_by: pass.returned_by,
            });
        }
        answered = virtual_ms.len();
        run.attempted += requests as u64;
        run.no_verdict += (requests - answered) as u64;
        run.pass_rates.push(answered as f64 / call_wall);
        run.virtual_p99_ms = crate::report::quantile(&virtual_ms, 0.99);
        if ctx.trace {
            layers.add_pass(&ledger, traced_wall, wall, counters);
        }
        match &first {
            Some(first) => {
                for (f, r) in first.iter().zip(&round) {
                    run.compare(&f.lines, &r.lines);
                    // The system is deterministic: every pass returns each
                    // response from the same call, so per-call times compare.
                    let moved = f
                        .returned_by
                        .iter()
                        .zip(&r.returned_by)
                        .filter(|(a, b)| a != b)
                        .count();
                    run.mismatches += moved as u64;
                }
            }
            None => first = Some(round),
        }
        Ok(())
    })?;
    let first = first.ok_or("no pass ran")?;
    for scaled in [true, false] {
        let mut total_secs = 0.0;
        let mut page_ms = Vec::new();
        for (f, units) in first.iter().zip(&call_secs) {
            let secs = units.medians(scaled);
            total_secs += secs.iter().sum::<f64>();
            page_ms.extend(request_ms(&secs, &f.returned_by, &f.needs_page));
        }
        *run.estimate(scaled) = Estimate {
            verdicts_per_sec: answered as f64 / total_secs,
            page_ms,
        };
    }
    for (f, trace) in first.iter().zip(&traces) {
        let reference = serving_serial(system, pages, trace);
        run.compare(&reference, &f.lines);
    }
    run.layers = ctx.trace.then_some(layers);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_times_report_each_units_median_round() {
        let mut units = UnitTimes::default();
        units.push(vec![3.0, 1.0, 5.0], vec![1.0; 3]).unwrap();
        units.push(vec![2.0, 4.0, 5.0], vec![1.0; 3]).unwrap();
        units
            .push(vec![9.0, 2.0, 5.0], vec![0.1, 1.0, 2.0])
            .unwrap();
        assert_eq!(units.medians(false), vec![3.0, 2.0, 5.0]);
        let scaled = units.medians(true);
        assert!((scaled[0] - 2.0).abs() < 1e-12, "{scaled:?}");
        assert_eq!(&scaled[1..], &[2.0, 5.0]);
        assert!(units.push(vec![1.0], vec![1.0]).is_err());
        assert!(units.push(vec![1.0; 3], vec![1.0]).is_err());
    }

    #[test]
    fn request_times_span_push_to_the_returning_call() {
        // Calls: push 0, push 1, push 2, finish. Request 0 returns from
        // its own push, 1 and 2 from finish; request 2 needs no page.
        let call_secs = [0.001, 0.002, 0.004, 0.008];
        let got = request_ms(&call_secs, &[0, 3, 3], &[true, true, false]);
        assert_eq!(got.len(), 2);
        assert!((got[0] - 1.0).abs() < 1e-9);
        assert!((got[1] - 14.0).abs() < 1e-9);
        // A request that never returned is left out, not wrapped around.
        assert!(request_ms(&call_secs, &[usize::MAX], &[true]).is_empty());
    }
}
