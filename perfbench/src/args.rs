//! The strict command line: every flag is required once, unknown flags
//! and malformed values are hard errors.

use std::fmt;

/// The four workloads, named as on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Re-score a stored crawl block by block.
    StoreScan,
    /// One closed-loop client scraping and triaging a phishing feed.
    PhishFeed,
    /// A single scoring node with the URL-stage cascade in front.
    ServeCascade,
    /// A 2 × 2 cluster under bursts above its queue capacity.
    ClusterBurst,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::StoreScan,
        Workload::PhishFeed,
        Workload::ServeCascade,
        Workload::ClusterBurst,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StoreScan => "store_scan",
            Workload::PhishFeed => "phish_feed",
            Workload::ServeCascade => "serve_cascade",
            Workload::ClusterBurst => "cluster_burst",
        }
    }

    fn parse(s: &str) -> Result<Self, ArgError> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| ArgError(format!("unknown workload {s:?}")))
    }
}

/// A validated command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase, in whole seconds (1–600).
    pub seconds: u64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
}

/// A command-line error, printed as one line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Usage line shown with every error.
pub const USAGE: &str =
    "usage: perfbench --workload <store_scan|phish_feed|serve_cascade|cluster_burst> \
     --seed <u64> --seconds <1-600> --trace <0|1>";

fn number(flag: &str, value: &str) -> Result<u64, ArgError> {
    value
        .parse()
        .map_err(|_| ArgError(format!("{flag}: {value:?} is not a whole number")))
}

impl Args {
    /// Parses the arguments after the program name.
    ///
    /// # Errors
    ///
    /// Unknown flags, repeated flags, missing flags or values, and
    /// values that do not parse or fall outside their range.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgError> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            let value = iter
                .next()
                .ok_or_else(|| ArgError(format!("{flag}: missing value")))?;
            let repeated = match flag.as_str() {
                "--workload" => workload.replace(Workload::parse(&value)?).is_some(),
                "--seed" => seed.replace(number(&flag, &value)?).is_some(),
                "--seconds" => {
                    let s = number(&flag, &value)?;
                    if !(1..=600).contains(&s) {
                        return Err(ArgError(format!("--seconds: {s} is outside 1-600")));
                    }
                    seconds.replace(s).is_some()
                }
                "--trace" => {
                    let t = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(ArgError(format!("--trace: {value:?} is not 0 or 1"))),
                    };
                    trace.replace(t).is_some()
                }
                _ => return Err(ArgError(format!("unknown flag {flag:?}"))),
            };
            if repeated {
                return Err(ArgError(format!("{flag} given twice")));
            }
        }
        let missing = |name: &str| ArgError(format!("missing required flag --{name}"));
        Ok(Args {
            workload: workload.ok_or_else(|| missing("workload"))?,
            seed: seed.ok_or_else(|| missing("seed"))?,
            seconds: seconds.ok_or_else(|| missing("seconds"))?,
            trace: trace.ok_or_else(|| missing("trace"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn accepts_a_full_command_line() {
        let a = parse("--workload phish_feed --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::PhishFeed);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10, true));
    }

    #[test]
    fn rejects_malformed_and_unknown_input() {
        for bad in [
            "--workload store_scan --seed abc --seconds 10 --trace 0",
            "--workload store_scan --seed 1 --seconds 0 --trace 0",
            "--workload store_scan --seed 1 --seconds 10 --trace 2",
            "--workload nope --seed 1 --seconds 10 --trace 0",
            "--workload store_scan --seed 1 --seconds 10 --trace 0 --scale 0.1",
            "--workload store_scan --seed 1 --seed 2 --seconds 10 --trace 0",
            "--workload store_scan --seed 1 --seconds 10",
            "--workload store_scan --seed 1 --seconds 10 --trace",
            "--seed -1 --workload store_scan --seconds 10 --trace 0",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
