//! Scrape-and-featurise plumbing shared by the experiment binaries.

use knowyourphish::cli::{ArgSpec, CommandSpec, Parsed, ParsedOpts};
use kyp_core::FeatureExtractor;
use kyp_datagen::{CampaignConfig, Corpus};
use kyp_ml::Dataset;
use kyp_serve::PageSource;
use kyp_web::{Browser, FailureCause, ScrapedPage, VisitedPage};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The options every experiment binary accepts: `--scale`, `--seed` and
/// `--threads`. A binary with options of its own declares a
/// [`CommandSpec`] listing these plus its own and parses it with
/// [`EvalArgs::parse_with`].
pub const EVAL_OPTIONS: [ArgSpec; 3] = [
    ArgSpec {
        name: "scale",
        value: "<f>",
        help: "fraction of the paper's Table V sizes to generate (default 0.05)",
    },
    ArgSpec {
        name: "seed",
        value: "<n>",
        help: "corpus seed (default 2015)",
    },
    ArgSpec {
        name: "threads",
        value: "<n[,n...]>",
        help: "thread count, or a comma list to sweep over",
    },
];

/// The spec of a binary that takes only [`EVAL_OPTIONS`].
static EVAL_SPEC: CommandSpec = CommandSpec {
    name: "experiment",
    summary: "regenerate one table or figure of the paper",
    positional: None,
    args: &EVAL_OPTIONS,
};

/// Command-line arguments common to every experiment binary.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalArgs {
    /// Fraction of the paper's Table V sizes to generate.
    pub scale: f64,
    /// Corpus seed.
    pub seed: u64,
    /// Thread counts from `--threads` (e.g. `--threads 4` or a sweep
    /// `--threads 1,2,4`). Empty when the flag was not given.
    pub threads: Vec<usize>,
}

impl EvalArgs {
    /// Parses [`EVAL_OPTIONS`] from `std::env::args`; see
    /// [`EvalArgs::parse_with`].
    pub fn parse() -> Self {
        Self::parse_with(&EVAL_SPEC).0
    }

    /// Parses `std::env::args` against `spec`, which must declare
    /// [`EVAL_OPTIONS`], and returns the common arguments plus every
    /// option given, for the binary's own.
    ///
    /// An unknown option, a missing value or a malformed `--scale`,
    /// `--seed` or `--threads` prints one line on stderr and exits with
    /// status 2 before anything is generated; `--help` prints the
    /// options and exits 0. A single-valued `--threads` immediately
    /// becomes the process-wide [`kyp_exec`] thread count; a comma list
    /// is left for the binary to sweep over.
    pub fn parse_with(spec: &CommandSpec) -> (Self, ParsedOpts) {
        let mut argv = std::env::args();
        let bin = argv
            .next()
            .as_deref()
            .and_then(|p| Path::new(p).file_stem())
            .map_or_else(
                || spec.name.to_owned(),
                |s| s.to_string_lossy().into_owned(),
            );
        let argv: Vec<String> = argv.collect();
        // The shared parser words its messages for `kyp <command>`; an
        // experiment binary is a command of its own.
        let own = |text: String| text.replace(&format!("kyp {}", spec.name), &bin);
        let opts = match spec.parse(&argv) {
            Ok(Parsed::Opts(opts)) => opts,
            Ok(Parsed::Help) => {
                println!("{}", own(spec.help_text()));
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("{bin}: {}", own(e));
                std::process::exit(2);
            }
        };
        let args = Self::from_opts(&opts).unwrap_or_else(|e| {
            eprintln!("{bin}: {e}");
            std::process::exit(2);
        });
        if let [threads] = args.threads[..] {
            kyp_exec::set_threads(threads);
        }
        (args, opts)
    }

    /// The common arguments of a parsed command line, with their
    /// defaults for options not given.
    ///
    /// # Errors
    ///
    /// A `--scale` that is not a positive number, a `--seed` that is
    /// not a non-negative integer, or a `--threads` list with an entry
    /// that is not a positive integer.
    pub fn from_opts(opts: &ParsedOpts) -> Result<Self, String> {
        let scale: f64 = opts.num("scale", 0.05)?;
        if !(scale.is_finite() && scale > 0.0) {
            return Err(format!("invalid --scale {scale} (want a positive number)"));
        }
        let threads = match opts.get("threads") {
            None => Vec::new(),
            Some(list) => list
                .split(',')
                .map(|v| match v.trim().parse::<usize>() {
                    Ok(n) if n >= 1 => Ok(n),
                    _ => Err(format!(
                        "invalid --threads {list:?}: {v:?} is not a positive integer"
                    )),
                })
                .collect::<Result<_, _>>()?,
        };
        Ok(EvalArgs {
            scale,
            seed: opts.num("seed", 2015)?,
            threads,
        })
    }

    /// The campaign configuration for these arguments.
    pub fn campaign(&self) -> CampaignConfig {
        let mut c = CampaignConfig::scaled(self.scale);
        c.seed = self.seed;
        c
    }
}

/// A generated corpus plus the extractor wired to its domain ranking.
#[derive(Debug)]
pub struct ExperimentEnv {
    /// The generated corpus.
    pub corpus: Corpus,
    /// Feature extractor using the corpus's ranking.
    pub extractor: FeatureExtractor,
}

impl ExperimentEnv {
    /// Generates the corpus for `args` and reports its size on stderr.
    pub fn prepare(args: &EvalArgs) -> Self {
        let cfg = args.campaign();
        eprintln!(
            "[env] generating corpus (scale {:.3}, seed {}): {} phish train, {} phish test, {} leg train, {} English test",
            args.scale, args.seed, cfg.phish_train, cfg.phish_test, cfg.leg_train, cfg.english_test
        );
        let corpus = Corpus::generate(&cfg);
        let extractor = FeatureExtractor::new(corpus.ranker.clone());
        eprintln!("[env] world hosts {} entries", corpus.world_len());
        ExperimentEnv { corpus, extractor }
    }
}

/// A [`PageSource`] decorator that accumulates the wall-clock time spent
/// inside `fetch` — the scrape share of a serving run — so throughput
/// benchmarks can split one aggregate pages/sec figure into scrape time
/// vs. score time (the split the cascade's savings are attributable to).
#[derive(Debug)]
pub struct TimedSource<S> {
    inner: S,
    scrape_nanos: Arc<AtomicU64>,
}

impl<S> TimedSource<S> {
    /// Wraps `inner`. The returned handle reads the accumulated scrape
    /// nanoseconds; it is shared, so it stays readable after a service
    /// consumes the source.
    pub fn new(inner: S) -> (Self, Arc<AtomicU64>) {
        let nanos = Arc::new(AtomicU64::new(0));
        (
            TimedSource {
                inner,
                scrape_nanos: Arc::clone(&nanos),
            },
            nanos,
        )
    }
}

impl<S: PageSource> PageSource for TimedSource<S> {
    fn fetch(&mut self, url: &str) -> Result<ScrapedPage, FailureCause> {
        let t0 = Instant::now();
        let result = self.inner.fetch(url);
        self.scrape_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }
}

/// Scrapes a URL list into visited pages. URLs that fail to load are
/// skipped with a warning (the paper's datasets were cleaned the same
/// way: unavailable pages removed).
pub fn scrape_visits(corpus: &Corpus, urls: &[String]) -> Vec<VisitedPage> {
    let browser = Browser::new(&corpus.world);
    let mut visits = Vec::with_capacity(urls.len());
    for url in urls {
        match browser.visit(url) {
            Ok(v) => visits.push(v),
            Err(e) => eprintln!("[scrape] skipping {url}: {e}"),
        }
    }
    visits
}

/// Scrapes URL lists into a labeled feature dataset
/// (`true` = phishing).
///
/// Visits run serially (the simulated browser is sequential state);
/// feature extraction fans out over the default [`kyp_exec`] pool. Row
/// order — legitimate pages then phishing, failures skipped — and every
/// feature value match the serial path bit for bit.
pub fn scrape_dataset(
    corpus: &Corpus,
    extractor: &FeatureExtractor,
    legitimate: &[String],
    phishing: &[String],
) -> Dataset {
    let browser = Browser::new(&corpus.world);
    let mut visits = Vec::with_capacity(legitimate.len() + phishing.len());
    let mut labels = Vec::with_capacity(legitimate.len() + phishing.len());
    for (urls, label) in [(legitimate, false), (phishing, true)] {
        for url in urls {
            match browser.visit(url) {
                Ok(v) => {
                    visits.push(v);
                    labels.push(label);
                }
                Err(e) => eprintln!("[scrape] skipping {url}: {e}"),
            }
        }
    }
    let rows = extractor.extract_batch(&visits);
    let mut data = Dataset::with_capacity(extractor.feature_count(), rows.len());
    for (features, label) in rows.iter().zip(labels) {
        data.push_row(features, label);
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use kyp_core::{DetectorConfig, PhishDetector};
    use kyp_ml::metrics;

    fn eval_args(line: &[&str]) -> Result<EvalArgs, String> {
        let argv: Vec<String> = line.iter().map(|s| (*s).to_owned()).collect();
        match EVAL_SPEC.parse(&argv)? {
            Parsed::Opts(opts) => EvalArgs::from_opts(&opts),
            Parsed::Help => Err("help".to_owned()),
        }
    }

    #[test]
    fn bad_command_lines_are_errors() {
        let err = eval_args(&["--scale", "0.02", "--typo", "x"]).unwrap_err();
        assert!(err.contains("unknown option --typo"), "{err}");
        let err = eval_args(&["--scale", "abc"]).unwrap_err();
        assert!(err.contains("--scale") && err.contains("abc"), "{err}");
        let err = eval_args(&["--threads", "1,x"]).unwrap_err();
        assert!(err.contains("--threads") && err.contains("\"x\""), "{err}");
        for bad in [
            &["--threads", "0"][..],
            &["--threads", "1,,2"],
            &["--scale", "0"],
            &["--scale", "NaN"],
            &["--seed", "-1"],
            &["--seed"],
        ] {
            assert!(eval_args(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn valid_command_lines_keep_their_values() {
        assert_eq!(
            eval_args(&[]).unwrap(),
            EvalArgs {
                scale: 0.05,
                seed: 2015,
                threads: Vec::new(),
            }
        );
        assert_eq!(
            eval_args(&["--scale", "0.02", "--threads", "1,2,4"]).unwrap(),
            EvalArgs {
                scale: 0.02,
                seed: 2015,
                threads: vec![1, 2, 4],
            }
        );
        assert_eq!(
            eval_args(&["--seed", "7", "--threads", "2", "--scale", "1"]).unwrap(),
            EvalArgs {
                scale: 1.0,
                seed: 7,
                threads: vec![2],
            }
        );
        assert_eq!(
            eval_args(&["--threads", "1, 2"]).unwrap().threads,
            vec![1, 2]
        );
    }

    /// End-to-end learnability: on a small corpus, the full 212-feature
    /// detector must separate phish from legitimate pages nearly
    /// perfectly, as in the paper (AUC ≈ 0.99+).
    #[test]
    fn end_to_end_detector_learns() {
        let cfg = CampaignConfig {
            seed: 11,
            phish_train: 120,
            phish_test: 120,
            phish_brand: 10,
            leg_train: 400,
            english_test: 400,
            other_language_test: 10,
        };
        let corpus = Corpus::generate(&cfg);
        let extractor = FeatureExtractor::new(corpus.ranker.clone());

        let train_phish: Vec<String> = corpus.phish_train.iter().map(|r| r.url.clone()).collect();
        let test_phish: Vec<String> = corpus.phish_test.iter().map(|r| r.url.clone()).collect();

        let train = scrape_dataset(&corpus, &extractor, &corpus.leg_train, &train_phish);
        let test = scrape_dataset(&corpus, &extractor, corpus.english_test(), &test_phish);
        assert!(train.len() >= 500);

        let detector = PhishDetector::train(&train, &DetectorConfig::default());
        let scores = detector.score_dataset(&test);
        let auc = metrics::auc(&scores, test.labels());
        assert!(auc > 0.97, "end-to-end AUC too low: {auc}");

        let conf = metrics::Confusion::at_threshold(&scores, test.labels(), 0.7);
        assert!(conf.recall() > 0.8, "recall {}", conf.recall());
        assert!(conf.fpr() < 0.05, "fpr {}", conf.fpr());
    }
}
