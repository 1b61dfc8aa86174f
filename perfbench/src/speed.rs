//! The machine's speed, measured beside the workload.
//!
//! The machines this benchmark runs on are shared. Other tenants slow
//! memory-bound code in spells that last from seconds to minutes, and a
//! whole run can fall inside one. [`SpeedProbe`] times a fixed task that
//! belongs to the benchmark, not the program, about once a second
//! between units of the workload. Each unit's wall time is scaled by the
//! latest probes, to the speed at which the probe takes
//! [`REFERENCE_SECS`]: a spell slows the probe and the program alike and
//! cancels out, while a change to the program moves only the program.
//!
//! The task mixes the kinds of work the program does, because no single
//! kind tracks it well: random read-modify-writes over 64 MiB and over
//! 16 MiB, a dependent chain inside 1.5 MiB, an 8 MiB copy, formatting
//! short strings, three linear scans over 10,000 domain names (as target
//! identification scans its index) and a register-only loop. In a 170-second probe on a
//! shared 2-core Xeon VM, classifying stored pages timed beside it
//! spread 0.16 (quartile distance over median) across 15-second windows
//! when timed alone, and 0.07 when each sample was divided by the probe
//! next to it. No single kind of work tracked the program as well.

use std::time::Instant;

/// Words in the probe's table: 64 MiB, well past the private caches.
const TABLE_WORDS: usize = 1 << 23;

/// Domain names the probe scans, like a search index.
const DOCS: usize = 10_000;

/// Linear scans over the domain names per probe.
const SCANS: usize = 3;

/// Bytes of the probe's table, resident for the whole run.
pub const TABLE_BYTES: usize = TABLE_WORDS * 8;

/// Random read-modify-writes per probe, over the whole table and over
/// its first quarter.
const RANDOM_STEPS: usize = 750_000;

/// Words of the dependent chain: 1.5 MiB, inside a private cache.
const CHAIN_WORDS: usize = 3 << 16;

/// Steps of the dependent chain per probe.
const CHAIN_STEPS: usize = 1_000_000;

/// Words copied per probe: 8 MiB.
const COPY_WORDS: usize = 1 << 20;

/// Short strings formatted per probe, for allocator traffic.
const STRINGS: usize = 75_000;

/// Iterations of the register-only loop per probe.
const ALU_STEPS: u64 = 15_000_000;

/// Wall seconds of one probe on a quiet 2-core Xeon VM (the machine the
/// benchmark was tuned on). Only ratios between runs matter: a machine
/// twice as fast reports every time halved, on every commit alike.
pub const REFERENCE_SECS: f64 = 0.060;

/// Minimum wall time between two probes taken by [`SpeedProbe::tick`].
const TICK_SECS: f64 = 1.0;

/// Latest probes whose median sets [`SpeedProbe::factor`]: one slow
/// probe (an interrupt, say) does not move it, a spell does.
const RECENT: usize = 3;

/// The speed probe and the times it measured.
#[derive(Debug)]
pub struct SpeedProbe {
    table: Vec<u64>,
    docs: Vec<(String, String)>,
    strings: Vec<String>,
    sink: u64,
    samples: Vec<f64>,
    last: Instant,
}

impl Default for SpeedProbe {
    fn default() -> Self {
        Self::new()
    }
}

/// `steps` read-modify-writes at random places in `table`. The places
/// come from their own generator, independent of the loads, so the
/// misses overlap.
fn scatter(table: &mut [u64], steps: usize) -> u64 {
    let mask = table.len().next_power_of_two() - 1;
    let mut x = 1u64;
    let mut acc = 0u64;
    for _ in 0..steps {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        if let Some(slot) = table.get_mut((x >> 40) as usize & mask) {
            acc = acc.wrapping_add(*slot);
            *slot = acc;
        }
    }
    acc
}

/// `steps` loads in `table`, each at a place that depends on the last.
fn chase(table: &mut [u64], steps: usize) -> u64 {
    let n = table.len().max(1);
    let mut acc = 1u64;
    for _ in 0..steps {
        let j = (acc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20) as usize % n;
        if let Some(slot) = table.get_mut(j) {
            acc = acc.wrapping_add(*slot) | 1;
            *slot ^= acc;
        }
    }
    acc
}

impl SpeedProbe {
    /// Allocates and fills the table ([`TABLE_BYTES`] of the process's
    /// memory).
    pub fn new() -> Self {
        let table = (0..TABLE_WORDS as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let docs = (0..DOCS)
            .map(|i| (format!("site{i}.example.com"), format!("site{i}")))
            .collect();
        SpeedProbe {
            table,
            docs,
            strings: Vec::with_capacity(STRINGS),
            sink: 0,
            samples: Vec::new(),
            last: Instant::now(),
        }
    }

    /// Runs the task once and returns its wall seconds.
    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        let mut acc = scatter(&mut self.table, RANDOM_STEPS);
        acc ^= scatter(
            self.table.get_mut(..TABLE_WORDS / 4).unwrap_or_default(),
            RANDOM_STEPS,
        );
        acc ^= chase(
            self.table.get_mut(..CHAIN_WORDS).unwrap_or_default(),
            CHAIN_STEPS,
        );
        self.table.copy_within(..COPY_WORDS, COPY_WORDS);
        self.strings.clear();
        for i in 0..STRINGS {
            self.strings
                .push(format!("https://www.example{}.com/path/{i}", i % 977));
        }
        acc ^= std::hint::black_box(&self.strings).len() as u64;
        // A domain lookup the way a linear index scan does one: a
        // formatted suffix per document, then string comparisons.
        for q in 0..SCANS {
            let guess = format!("login.site{}.example.net", q * 7919 % DOCS);
            let hits = self
                .docs
                .iter()
                .filter(|(rdn, mld)| {
                    guess.ends_with(&format!(".{rdn}")) || guess.contains(mld.as_str())
                })
                .count();
            acc ^= std::hint::black_box(hits) as u64;
        }
        let mut s = acc;
        for i in 0..ALU_STEPS {
            s = s.wrapping_add(i.wrapping_mul(i) ^ (s >> 3));
        }
        self.sink = std::hint::black_box(s);
        let secs = t.elapsed().as_secs_f64();
        self.samples.push(secs);
        self.last = Instant::now();
        secs
    }

    /// Runs the task when at least a second has passed since the last
    /// one; returns the wall seconds spent, 0 when it did not run.
    pub fn tick(&mut self) -> f64 {
        if self.samples.is_empty() || self.last.elapsed().as_secs_f64() >= TICK_SECS {
            let t = Instant::now();
            self.measure();
            t.elapsed().as_secs_f64()
        } else {
            0.0
        }
    }

    /// The factor that scales a wall time measured now to the reference
    /// speed: [`REFERENCE_SECS`] over the median of the latest
    /// [`RECENT`] probes.
    pub fn factor(&self) -> f64 {
        let recent = self.samples.len().saturating_sub(RECENT);
        let secs = self
            .samples
            .get(recent..)
            .map_or(0.0, crate::report::median);
        if secs > 0.0 {
            REFERENCE_SECS / secs
        } else {
            1.0
        }
    }

    /// Every probe time measured so far, in seconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Per-unit wall times over the rounds of a run, each with the probe
/// factor in effect when it was measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnitTimes {
    rounds: Vec<Vec<f64>>,
    factors: Vec<Vec<f64>>,
}

impl UnitTimes {
    /// Adds one round's unit times and their probe factors; every round
    /// must have the same units.
    ///
    /// # Errors
    ///
    /// A round with a different number of units than the first, or of
    /// factors than units.
    pub fn push(&mut self, round: Vec<f64>, factors: Vec<f64>) -> Result<(), String> {
        let units = self.rounds.first().map_or(round.len(), Vec::len);
        if round.len() != units || factors.len() != units {
            return Err(format!(
                "a round timed {} units with {} factors, the first {} units",
                round.len(),
                factors.len(),
                units
            ));
        }
        self.rounds.push(round);
        self.factors.push(factors);
        Ok(())
    }

    /// Each unit's median over the rounds, scaled by its probe factors
    /// when `scaled`: a round that fell in a spell is outvoted by the
    /// others.
    pub fn medians(&self, scaled: bool) -> Vec<f64> {
        let units = self.rounds.first().map_or(0, Vec::len);
        (0..units)
            .map(|u| {
                let column: Vec<f64> = self
                    .rounds
                    .iter()
                    .zip(&self.factors)
                    .filter_map(|(r, f)| {
                        let secs = r.get(u)?;
                        Some(if scaled { secs * f.get(u)? } else { *secs })
                    })
                    .collect();
                crate::report::median(&column)
            })
            .collect()
    }
}
