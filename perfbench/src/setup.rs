//! Inputs and set-up.
//!
//! [`generate`] makes a workload's inputs from its seed and writes them
//! the way a deployment keeps them: a page store, the full-stage and
//! URL-stage model snapshots, the ranker and the search index. It is not
//! timed. [`Stack::restore`] is the program's own set-up from those
//! files, which `setup_s` times.

use crate::args::Workload;
use knowyourphish::core::cascade::train_url_stage;
use knowyourphish::core::{
    CascadeBand, CascadeClassifier, DetectorConfig, FeatureExtractor, ModelSnapshot, PhishDetector,
    Pipeline, TargetIdentifier,
};
use knowyourphish::datagen::{CampaignConfig, Corpus};
use knowyourphish::search::SearchEngine;
use knowyourphish::serve::StoredPages;
use knowyourphish::store::{pages_path, PageStoreReader, PageStoreWriter};
use knowyourphish::storeflow::{self, IndexEntry};
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// How big a workload's inputs are.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Corpus sizes (the seed is set per run).
    pub campaign: CampaignConfig,
    /// Requests per serving pass.
    pub requests: usize,
}

impl Sizes {
    /// The committed sizes of `workload`.
    ///
    /// A tenth of the paper's Table V gives a 10.7k-page crawl and a
    /// search index of about 10k legitimate pages. The phishing feed
    /// uses the paper-size `phish_test` and `phish_brand` sets.
    pub fn full(workload: Workload) -> Self {
        let mut campaign = CampaignConfig::scaled(0.1);
        if workload == Workload::PhishFeed {
            let paper = CampaignConfig::paper_scale();
            campaign.phish_test = paper.phish_test;
            campaign.phish_brand = paper.phish_brand;
        }
        Sizes {
            campaign,
            requests: 8_000,
        }
    }

    /// Sizes small enough for unit tests.
    pub fn tiny() -> Self {
        Sizes {
            campaign: CampaignConfig::tiny(),
            requests: 300,
        }
    }
}

/// Pages per shard store of `store_scan`: two full blocks.
pub const SHARD_PAGES: usize = 512;

/// Directory of shard store `k` of `store_scan` inside a work directory.
pub fn shard_dir(dir: &Path, k: usize) -> PathBuf {
    dir.join("shards").join(format!("{k:03}"))
}

/// Splits the page store in `dir` into consecutive shard stores of
/// [`SHARD_PAGES`] pages, in stored order, and returns how many there
/// are. Each shard is a complete store with the original header, so
/// `store_verdict_lines` reads it like any other.
fn write_shards(dir: &Path) -> Result<usize, String> {
    let path = pages_path(dir);
    let mut reader =
        PageStoreReader::open(&path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let header = reader.header().clone();
    let mut shards = 0;
    let mut writer: Option<(PageStoreWriter<_>, usize)> = None;
    while let Some(block) = reader
        .next_block()
        .map_err(|e| format!("read {}: {e}", path.display()))?
    {
        for page in &block {
            let (w, n) = match &mut writer {
                Some(open) if open.1 < SHARD_PAGES => open,
                slot => {
                    if let Some((full, _)) = slot.take() {
                        full.finish().map_err(|e| format!("write shard: {e}"))?;
                    }
                    let shard = shard_dir(dir, shards);
                    shards += 1;
                    std::fs::create_dir_all(&shard)
                        .map_err(|e| format!("create {}: {e}", shard.display()))?;
                    let w = PageStoreWriter::create(&pages_path(&shard), &header)
                        .map_err(|e| format!("create {}: {e}", shard.display()))?;
                    slot.insert((w, 0))
                }
            };
            w.append(page).map_err(|e| format!("write shard: {e}"))?;
            *n += 1;
        }
    }
    if let Some((last, _)) = writer {
        last.finish().map_err(|e| format!("write shard: {e}"))?;
    }
    Ok(shards)
}

/// File of the full-stage model snapshot inside a work directory.
fn full_model_path(dir: &Path) -> PathBuf {
    dir.join("full_model.json")
}

/// File of the URL-stage model snapshot inside a work directory.
fn url_model_path(dir: &Path) -> PathBuf {
    dir.join("url_model.json")
}

/// Generates `workload`'s inputs for `seed` into `dir` and returns the
/// corpus (the simulated web and the ground truth).
///
/// # Errors
///
/// Filesystem and store failures, rendered as strings.
pub fn generate(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    dir: &Path,
) -> Result<Corpus, String> {
    let mut campaign = sizes.campaign.clone();
    campaign.seed = seed;
    let corpus = Corpus::generate(&campaign);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    if workload == Workload::PhishFeed {
        storeflow::write_corpus_sidecars(dir, &corpus)?;
    } else {
        storeflow::build_store(dir, &corpus, &campaign, &corpus.world, 0.0, seed)?;
    }
    if workload == Workload::StoreScan {
        write_shards(dir)?;
    }

    let extractor = FeatureExtractor::new(corpus.ranker.clone());
    let phish_train: Vec<String> = corpus.phish_train.iter().map(|r| r.url.clone()).collect();
    let train =
        kyp_bench::harness::scrape_dataset(&corpus, &extractor, &corpus.leg_train, &phish_train);
    let detector = PhishDetector::train(&train, &DetectorConfig::default());
    ModelSnapshot::new(detector, corpus.ranker.clone())
        .save(&full_model_path(dir))
        .map_err(|e| format!("save full model: {e}"))?;

    if workload == Workload::ServeCascade {
        let url_stage = train_url_stage(
            &corpus.leg_train,
            &phish_train,
            &corpus.ranker,
            &DetectorConfig::url_stage(),
        )?;
        ModelSnapshot::new_url_stage(url_stage, corpus.ranker.clone())
            .save(&url_model_path(dir))
            .map_err(|e| format!("save url model: {e}"))?;
    }
    Ok(corpus)
}

/// The restored program: what a deployment builds before its first
/// input.
#[derive(Debug)]
pub struct Stack {
    /// Extraction, detection and target identification.
    pub pipeline: Pipeline,
    /// The URL-stage prescreen at the default band (serve_cascade only).
    pub cascade: Option<CascadeClassifier>,
    /// The serving page source and its URL pool, in stored order
    /// (serving workloads only).
    pub pages: Option<(StoredPages, Vec<String>)>,
}

fn load_engine(dir: &Path) -> Result<SearchEngine, String> {
    let path = dir.join("index.jsonl");
    let file = File::open(&path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut engine = SearchEngine::new();
    for line in BufReader::new(file).lines() {
        let line = line.map_err(|e| format!("read {}: {e}", path.display()))?;
        if line.trim().is_empty() {
            continue;
        }
        let entry: IndexEntry =
            serde_json::from_str(&line).map_err(|e| format!("{}: {e}", path.display()))?;
        engine.index_page(&entry.rdn, &entry.mld, &entry.text);
    }
    Ok(engine)
}

impl Stack {
    /// Restores `workload`'s stack from the files in `dir`.
    ///
    /// # Errors
    ///
    /// Missing or malformed snapshots, index or store.
    pub fn restore(workload: Workload, dir: &Path) -> Result<Self, String> {
        let snapshot = ModelSnapshot::load(&full_model_path(dir))
            .map_err(|e| format!("load full model: {e}"))?;
        let engine = load_engine(dir)?;
        let pipeline = Pipeline::new(
            FeatureExtractor::new(snapshot.ranker),
            snapshot.detector,
            TargetIdentifier::new(Arc::new(engine)),
        );
        let cascade = if workload == Workload::ServeCascade {
            let url = ModelSnapshot::load(&url_model_path(dir))
                .map_err(|e| format!("load url model: {e}"))?;
            Some(
                CascadeClassifier::from_snapshot(url, CascadeBand::default())
                    .map_err(|e| format!("load url model: {e}"))?,
            )
        } else {
            None
        };
        let pages = match workload {
            Workload::ServeCascade | Workload::ClusterBurst => {
                Some(storeflow::load_serving_pages(dir)?)
            }
            Workload::StoreScan | Workload::PhishFeed => None,
        };
        Ok(Stack {
            pipeline,
            cascade,
            pages,
        })
    }
}
