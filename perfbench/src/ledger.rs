//! The per-layer ledger of a traced run: wall-clock self time and work
//! counts per layer, the [`WallObserver`] that times the pipeline's
//! existing observer hooks, and the layer-sum gate.

use knowyourphish::obs::{FeatureFamily, PipelineObserver, TargetStepOutcome, VerdictKind};
use std::time::{Duration, Instant};

/// A layer of the system, named after the module that implements it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `kyp-store`: page block decode.
    Store,
    /// `kyp-web`: the resilient scraper over the simulated web.
    Web,
    /// `kyp-core::cascade`: the URL-only prescreen.
    Cascade,
    /// `kyp-core::features`: f1–f5 extraction, source assembly included.
    Features,
    /// `kyp-core::detector`: GBM scoring.
    Detector,
    /// `kyp-core::target`: target identification steps 1–5.
    Target,
    /// `kyp-serve`: page source, admission, batching and the cache.
    Serve,
    /// `kyp-cluster`: the router.
    Cluster,
    /// Time inside program calls that no hook boundary attributes.
    Unattributed,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 9] = [
        Layer::Store,
        Layer::Web,
        Layer::Cascade,
        Layer::Features,
        Layer::Detector,
        Layer::Target,
        Layer::Serve,
        Layer::Cluster,
        Layer::Unattributed,
    ];

    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Store => "store",
            Layer::Web => "web",
            Layer::Cascade => "cascade",
            Layer::Features => "features",
            Layer::Detector => "detector",
            Layer::Target => "target",
            Layer::Serve => "serve",
            Layer::Cluster => "cluster",
            Layer::Unattributed => "unattributed",
        }
    }
}

/// Self time and item count per layer, plus the five target steps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    secs: [f64; 9],
    items: [u64; 9],
    /// Self time of target-identification steps 1–5, in seconds.
    pub step_secs: [f64; 5],
    /// Pages that ran each target step.
    pub step_pages: [u64; 5],
}

impl Ledger {
    /// Adds `elapsed` of self time to `layer`.
    pub fn add(&mut self, layer: Layer, elapsed: Duration) {
        self.secs[layer as usize] += elapsed.as_secs_f64();
    }

    /// Counts `n` work items for `layer`.
    pub fn count(&mut self, layer: Layer, n: u64) {
        self.items[layer as usize] += n;
    }

    /// Self time of `layer`, in seconds.
    pub fn secs(&self, layer: Layer) -> f64 {
        self.secs[layer as usize]
    }

    /// Work items of `layer`.
    pub fn items(&self, layer: Layer) -> u64 {
        self.items[layer as usize]
    }

    /// Sets the self time of `layer`. Serve and cluster use this: their
    /// self time is the wall of the calls into them minus the re-timed
    /// layers inside, which may come out negative; the gate reports that.
    pub fn set_secs(&mut self, layer: Layer, secs: f64) {
        self.secs[layer as usize] = secs;
    }

    /// Sum of every layer's self time, unattributed included, in seconds.
    pub fn total_secs(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// Adds every time and count of `other`.
    pub fn merge(&mut self, other: &Ledger) {
        for i in 0..self.secs.len() {
            self.secs[i] += other.secs[i];
            self.items[i] += other.items[i];
        }
        for i in 0..5 {
            self.step_secs[i] += other.step_secs[i];
            self.step_pages[i] += other.step_pages[i];
        }
    }
}

/// Largest share of the traced wall the layers may leave unexplained,
/// in either direction.
pub const GATE_TOLERANCE: f64 = 0.10;

/// The layer-sum gate: the layers plus `unattributed` must equal the
/// traced wall within [`GATE_TOLERANCE`], and no layer may have negative
/// self time (a re-timed child costing more than the call around it).
///
/// # Errors
///
/// A one-line description of the first violated condition.
pub fn check_gate(ledger: &Ledger, traced_wall_secs: f64) -> Result<(), String> {
    for layer in Layer::ALL {
        if ledger.secs(layer) < -GATE_TOLERANCE * traced_wall_secs {
            return Err(format!(
                "layer {} has negative self time {:.6} s",
                layer.name(),
                ledger.secs(layer)
            ));
        }
    }
    let total = ledger.total_secs();
    let gap = (traced_wall_secs - total).abs();
    if gap > GATE_TOLERANCE * traced_wall_secs {
        return Err(format!(
            "layers sum to {total:.6} s against a traced wall of {traced_wall_secs:.6} s"
        ));
    }
    Ok(())
}

/// A wall-clock [`PipelineObserver`] for one `classify_bundle` call.
///
/// Between [`WallObserver::begin`] and [`WallObserver::end`] every
/// instant belongs to exactly one span, cut at the pipeline's existing
/// hooks: `page_start` → last `feature_family` is features,
/// → `detector_score` is the detector, → each `target_step` is that
/// step of target identification. Whatever lies outside those spans
/// (before `page_start`, after the last hook) is unattributed.
#[derive(Debug)]
pub struct WallObserver<'a> {
    ledger: &'a mut Ledger,
    mark: Instant,
}

impl<'a> WallObserver<'a> {
    /// Starts timing one call; the observer accumulates into `ledger`.
    pub fn begin(ledger: &'a mut Ledger) -> Self {
        WallObserver {
            ledger,
            mark: Instant::now(),
        }
    }

    fn cut(&mut self, layer: Layer) -> Duration {
        let now = Instant::now();
        let elapsed = now - self.mark;
        self.ledger.add(layer, elapsed);
        self.mark = now;
        elapsed
    }

    /// Closes the call: the time since the last hook is unattributed.
    pub fn end(mut self) {
        self.cut(Layer::Unattributed);
    }
}

impl PipelineObserver for WallObserver<'_> {
    fn page_start(&mut self, _url: &str) {
        self.cut(Layer::Unattributed);
        self.ledger.count(Layer::Features, 1);
    }

    fn feature_family(&mut self, _family: FeatureFamily, _features: usize) {
        self.cut(Layer::Features);
    }

    fn detector_score(&mut self, _score: f64, flagged: bool) {
        self.cut(Layer::Detector);
        self.ledger.count(Layer::Detector, 1);
        if flagged {
            self.ledger.count(Layer::Target, 1);
        }
    }

    fn target_step(&mut self, step: u8, _outcome: &TargetStepOutcome) {
        let elapsed = self.cut(Layer::Target);
        if let Some(i) = usize::from(step).checked_sub(1).filter(|&i| i < 5) {
            self.ledger.step_secs[i] += elapsed.as_secs_f64();
            self.ledger.step_pages[i] += 1;
        }
    }

    fn verdict(&mut self, _kind: VerdictKind) {
        self.cut(Layer::Unattributed);
    }
}
