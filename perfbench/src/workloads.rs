//! The benchmark's workloads: fixed lists of ensemble cells whose inputs
//! (wake patterns, run seeds, family seeds) are generated once, during
//! set-up, from the workload seed.
//!
//! Why each workload exists (which layers it loads, and which it leaves
//! idle so a change there should not move it) is recorded in
//! `BENCHMARK.json`; the comments on the workload functions below say how
//! the cells realize that.

use mac_sim::pattern::IdChoice;
use mac_sim::{
    ChannelModel, ChurnScript, EngineMode, FeedbackModel, PopulationMode, Protocol, RandomChurn,
    SimConfig, StationId, WakePattern,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use wakeup_analysis::EnsembleSpec;
use wakeup_core::prelude::*;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["staggered-sweep", "burst-resolve", "mega-classes"];

/// The workload seed selects one of this many committed input sets, so
/// every input a run can see has a committed outcome reference.
pub const SEED_CLASSES: u64 = 16;

/// The protocols the workloads drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    RoundRobin,
    WakeupWithS,
    WakeupWithK,
    WakeupN,
    WaitAndGo,
    FullResolution,
    RetiringRoundRobin,
}

impl Proto {
    fn tag(self) -> &'static str {
        match self {
            Proto::RoundRobin => "rr",
            Proto::WakeupWithS => "wws",
            Proto::WakeupWithK => "wwk",
            Proto::WakeupN => "wn",
            Proto::WaitAndGo => "wag",
            Proto::FullResolution => "full",
            Proto::RetiringRoundRobin => "rrr",
        }
    }
}

/// When a run stops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stop {
    /// At the first successful transmission (wake-up solved).
    FirstSuccess,
    /// When every woken station has had a success (conflict resolution).
    AllResolved,
}

/// One ensemble of the workload: a protocol on one run-indexed input list.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Unique within the workload; keys the outcome reference.
    pub name: String,
    pub proto: Proto,
    pub n: u32,
    pub k: u32,
    pub stop: Stop,
    pub population: PopulationMode,
    /// Drop per-station transmission counts (the lean mega-n spec). Set on
    /// the class cells and kept by their concrete twins, so a twin differs
    /// from its cell in the population only.
    pub lean: bool,
    /// Erasure + capture channel and random crash/re-wake churn.
    pub faults: bool,
    /// Construct through the workload's shared `ConstructionCache`.
    pub cached: bool,
    pub max_slots: Option<u64>,
    pub base_seed: u64,
    /// `Some`: every run uses this family seed (cache-friendly). `None`:
    /// each run seeds its own family, as the scenario experiments do.
    pub family_seed: Option<u64>,
    /// One wake pattern per run.
    pub patterns: Arc<Vec<WakePattern>>,
}

impl Cell {
    pub fn runs(&self) -> u64 {
        self.patterns.len() as u64
    }

    /// The input of run `i`.
    pub fn pattern(&self, i: u64) -> WakePattern {
        self.patterns[i as usize].clone()
    }

    /// Build the protocol of run `i` (seed `seed`) — the call into `core`.
    pub fn protocol(&self, cache: &ConstructionCache, i: u64, seed: u64) -> Box<dyn Protocol> {
        let (n, k) = (self.n, self.k);
        let provider = FamilyProvider::random_with_seed(self.family_seed.unwrap_or(seed));
        let params = MatrixParams::new(n).with_seed(self.family_seed.unwrap_or(seed));
        let c = self.cached;
        match self.proto {
            Proto::RoundRobin => Box::new(RoundRobin::new(n)),
            Proto::RetiringRoundRobin => Box::new(RetiringRoundRobin::new(n)),
            Proto::WakeupWithS => {
                let s = self.patterns[i as usize].s();
                if c {
                    Box::new(WakeupWithS::cached(n, s, &provider, cache))
                } else {
                    Box::new(WakeupWithS::new(n, s, provider))
                }
            }
            Proto::WakeupWithK if c => Box::new(WakeupWithK::cached(n, k, &provider, cache)),
            Proto::WakeupWithK => Box::new(WakeupWithK::new(n, k, provider)),
            Proto::WaitAndGo if c => Box::new(WaitAndGo::cached(n, k, &provider, cache)),
            Proto::WaitAndGo => Box::new(WaitAndGo::new(n, k, provider)),
            Proto::FullResolution if c => Box::new(FullResolution::cached(n, k, &provider, cache)),
            Proto::FullResolution => Box::new(FullResolution::new(n, k, provider)),
            Proto::WakeupN if c => Box::new(WakeupN::cached(params, cache)),
            Proto::WakeupN => Box::new(WakeupN::new(params)),
        }
    }

    pub fn channel(&self) -> ChannelModel {
        if self.faults {
            ChannelModel::ideal()
                .with_erasure_ppm(20_000)
                .with_capture_ppm(2_000)
        } else {
            ChannelModel::ideal()
        }
    }

    pub fn churn(&self) -> ChurnScript {
        if self.faults {
            ChurnScript::random(RandomChurn {
                crash_ppm: 20_000,
                lifetime: 64,
                rewake_after: Some(16),
            })
            .expect("valid churn parameters")
        } else {
            ChurnScript::none()
        }
    }

    /// The simulator configuration of this cell, mirroring what
    /// `EnsembleSpec` builds, under the given engine.
    pub fn sim_config(&self, engine: EngineMode) -> SimConfig {
        let mut cfg = SimConfig::new(self.n)
            .with_feedback(FeedbackModel::NoCollisionDetection)
            .with_engine(engine)
            .with_population(self.population)
            .with_channel(self.channel())
            .with_churn(self.churn());
        if let Some(cap) = self.max_slots {
            cfg = cfg.with_max_slots(cap);
        }
        if self.lean {
            cfg = cfg.without_per_station_detail();
        }
        if self.stop == Stop::AllResolved {
            cfg = cfg.until_all_resolved();
        }
        cfg
    }

    /// The ensemble spec of this cell (first-success cells only: the spec
    /// has no stop rule).
    pub fn spec(&self, threads: usize) -> EnsembleSpec {
        let mut spec = EnsembleSpec::new(self.n, self.runs())
            .with_base_seed(self.base_seed)
            .with_threads(threads)
            .with_engine(EngineMode::Auto)
            .with_population(self.population)
            .with_channel(self.channel())
            .with_churn(self.churn());
        if let Some(cap) = self.max_slots {
            spec = spec.with_max_slots(cap);
        }
        if self.lean {
            spec = spec.without_per_station_detail();
        }
        spec
    }

    /// The first `runs` runs of this cell under another population (the
    /// concrete twins of class cells).
    pub fn twin(&self, population: PopulationMode, runs: u64) -> Cell {
        let mut t = self.clone();
        t.population = population;
        t.patterns = Arc::new(self.patterns[..runs as usize].to_vec());
        t
    }
}

/// SplitMix64 finalizer: decorrelates the seeds derived from one input seed.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Builder {
    input_seed: u64,
    /// The one family seed of the cached cells: their families, schedules
    /// and matrices then stay far below the cache's capacity, so the warmed
    /// cache serves every run.
    family_seed: u64,
    cells: Vec<Cell>,
}

/// The per-cell knobs a workload sets; everything else is derived.
struct CellOpts {
    proto: Proto,
    n: u32,
    k: u32,
    stop: Stop,
    population: PopulationMode,
    faults: bool,
    cached: bool,
    max_slots: Option<u64>,
}

impl Builder {
    fn rng(&self, group: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(mix(self.input_seed, group))
    }

    fn push(&mut self, o: CellOpts, patterns: &Arc<Vec<WakePattern>>, group: u64) {
        let mut name = format!("{} n={} k={}", o.proto.tag(), o.n, o.k);
        if o.population == PopulationMode::Classes {
            name.push_str(" classes");
        }
        if o.faults {
            name.push_str(" faults");
        }
        // Twins that differ only in faults share run seeds and family seeds,
        // so the fault layer's cost is the difference of their engine times.
        let seed = mix(
            self.input_seed ^ 0xA5A5,
            group.wrapping_mul(31) + o.proto as u64,
        );
        self.cells.push(Cell {
            name,
            proto: o.proto,
            n: o.n,
            k: o.k,
            stop: o.stop,
            population: o.population,
            lean: o.population == PopulationMode::Classes,
            faults: o.faults,
            cached: o.cached,
            max_slots: o.max_slots,
            base_seed: seed,
            family_seed: o.cached.then_some(self.family_seed),
            patterns: Arc::clone(patterns),
        });
    }
}

fn ids_random<R: Rng>(n: u32, k: u32, rng: &mut R) -> Vec<StationId> {
    IdChoice::Random.pick(n, k as usize, rng)
}

/// Build a workload's cells from `seed` (folded onto the committed input
/// sets). Returns `None` for an unknown workload name.
pub fn build(workload: &str, seed: u64) -> Option<Vec<Cell>> {
    let input_seed = seed % SEED_CLASSES;
    let mut b = Builder {
        input_seed,
        family_seed: mix(input_seed, 0xFA),
        cells: Vec::new(),
    };
    match workload {
        "staggered-sweep" => staggered_sweep(&mut b),
        "burst-resolve" => burst_resolve(&mut b),
        "mega-classes" => mega_classes(&mut b),
        _ => return None,
    }
    Some(b.cells)
}

/// The paper's own sweep: Scenario A/B/C protocols on uniform-window
/// arrivals of random IDs and round-robin on its last-reached block, first
/// success, concrete stations, adaptive engine. Families are seeded per run
/// and not cached, so `core` construction and the sparse hint heap carry the
/// cost.
fn staggered_sweep(b: &mut Builder) {
    // Eight runs per cell: the runner times its first four inline, so the
    // rest still spread over the workers.
    const RUNS: usize = 8;
    let mut group = 0;
    for n in [1u32 << 12, 1 << 16, 1 << 20] {
        for k in [8u32, 64, 256] {
            group += 1;
            let mut rng = b.rng(group);
            let patterns: Vec<WakePattern> = (0..RUNS)
                .map(|_| {
                    let ids = ids_random(n, k, &mut rng);
                    let s = rng.gen_range(0..1024u64);
                    WakePattern::uniform_window(&ids, s, u64::from(k), &mut rng)
                        .expect("distinct ids")
                })
                .collect();
            // Round-robin faces the block it reaches last, as in EXP-A: its
            // latency is then the worst case rather than a draw of ~n/k, so
            // the sweep's slot count does not swing with the seed.
            let last_k: Vec<WakePattern> = (0..RUNS)
                .map(|_| {
                    let ids = IdChoice::LastK.pick(n, k as usize, &mut rng);
                    let s = rng.gen_range(0..1024u64);
                    WakePattern::uniform_window(&ids, s, u64::from(k), &mut rng)
                        .expect("distinct ids")
                })
                .collect();
            let (patterns, last_k) = (Arc::new(patterns), Arc::new(last_k));
            for (proto, patterns) in [
                (Proto::WakeupWithS, &patterns),
                (Proto::WakeupWithK, &patterns),
                (Proto::WakeupN, &patterns),
                (Proto::RoundRobin, &last_k),
            ] {
                let o = CellOpts {
                    proto,
                    n,
                    k,
                    stop: Stop::FirstSuccess,
                    population: PopulationMode::Concrete,
                    faults: false,
                    cached: false,
                    max_slots: None,
                };
                b.push(o, patterns, group);
            }
        }
    }
}

/// Simultaneous bursts and worst-case round-robin blocks, resolved in full
/// or to the first success, through one shared construction cache; every
/// cell but the near-n wait_and_go one has a twin with channel faults and
/// churn on the same inputs. Dense
/// stepping, the word kernel, the adaptive policy and the fault layer carry
/// the cost; construction (warm cache) and slot skipping almost none.
fn burst_resolve(b: &mut Builder) {
    // 32 runs per cell keep the runner's four inline calibration runs a
    // small part of each ensemble. The near-n block (k = n − 16) is run only
    // at n = 4096 and only by the first-success block protocols: the
    // resolvers need seconds per run there, and at n = 2^16 so does
    // materializing and churning the block. wakeup_with_k's round-robin
    // track ends the block in a few slots; wait_and_go needs ~13 400 slots
    // with ~80 transmitters each (about a second in the word kernel on a
    // 2.1 GHz Xeon), so it gets one run on the ideal channel.
    const RUNS: usize = 32;
    const NEAR_N_WAG_RUNS: usize = 1;
    let mut group = 100;
    for (n, ks) in [
        (4096u32, &[32u32, 128, 4080][..]),
        (1 << 16, &[32, 128][..]),
    ] {
        for &k in ks {
            group += 1;
            let mut rng = b.rng(group);
            // Random IDs for the selective protocols, the block round-robin
            // reaches last for the round-robin ones.
            let random: Vec<WakePattern> = (0..RUNS)
                .map(|_| {
                    let s = rng.gen_range(0..256u64);
                    WakePattern::simultaneous(&ids_random(n, k, &mut rng), s).expect("ids")
                })
                .collect();
            let block: Vec<WakePattern> = (0..RUNS)
                .map(|_| WakePattern::range(n - k, n, rng.gen_range(0..256u64)).expect("block"))
                .collect();
            let near_n = k == n - 16;
            let few = Arc::new(block[..NEAR_N_WAG_RUNS].to_vec());
            let (random, block) = (Arc::new(random), Arc::new(block));
            for (proto, stop, pats) in [
                (Proto::FullResolution, Stop::AllResolved, &random),
                (Proto::RetiringRoundRobin, Stop::AllResolved, &block),
                (Proto::WakeupN, Stop::FirstSuccess, &random),
                (Proto::WaitAndGo, Stop::FirstSuccess, &block),
                (Proto::WakeupWithK, Stop::FirstSuccess, &block),
            ] {
                let (pats, twins) = match (near_n, proto) {
                    (false, _) | (true, Proto::WakeupWithK) => (pats, &[false, true][..]),
                    (true, Proto::WaitAndGo) => (&few, &[false][..]),
                    (true, _) => continue,
                };
                for &faults in twins {
                    let o = CellOpts {
                        proto,
                        n,
                        k,
                        stop,
                        population: PopulationMode::Concrete,
                        faults,
                        cached: true,
                        max_slots: Some(16 * u64::from(n) + 4096),
                    };
                    b.push(o, pats, group);
                }
            }
        }
    }
}

/// `PopulationMode::Classes` without per-station detail: block wakes of
/// half the universe (one class each) for round-robin and `wakeup_with_s`
/// up to n = 2^24, plus one-member-class cells (random staggered arrivals,
/// `wakeup_n` bursts). The block round-robin runs take microseconds, so the
/// runner and the reduction carry a visible share here.
fn mega_classes(b: &mut Builder) {
    let classes = PopulationMode::Classes;
    let mut group = 200;
    // A wakeup_with_s block run whose first slot falls to the selective
    // track splits the half-universe class (~140 ms at 2^24); one that falls
    // to round-robin ends at once. Alternating the parity of s by run index
    // keeps that mix, and so the cell's cost, independent of the seed; the
    // run counts shrink with n.
    for (n, wws_runs) in [(1u32 << 16, 64), (1 << 20, 24), (1 << 24, 4)] {
        let k = n / 2;
        group += 1;
        let mut rng = b.rng(group);
        // Round-robin wakes just after the block's turns passed, so each run
        // wraps through ≈ n/2 silent slots in one hint.
        let rr: Vec<WakePattern> = (0..8000)
            .map(|_| WakePattern::range(0, k, u64::from(k) + rng.gen_range(0..1261u64)).expect("b"))
            .collect();
        let wws: Vec<WakePattern> = (0..wws_runs)
            .map(|i| {
                let s = 2 * rng.gen_range(0..630u64) + i % 2;
                WakePattern::range(1, k + 1, s).expect("b")
            })
            .collect();
        for (proto, pats) in [(Proto::RoundRobin, rr), (Proto::WakeupWithS, wws)] {
            let o = CellOpts {
                proto,
                n,
                k,
                stop: Stop::FirstSuccess,
                population: classes,
                faults: false,
                cached: true,
                max_slots: None,
            };
            b.push(o, &Arc::new(pats), group);
        }
    }
    // One-member classes: every station its own wake slot, or a wakeup_n
    // burst whose class splits per member.
    for (proto, n, k, runs) in [
        (Proto::RoundRobin, 1u32 << 12, 64u32, 400usize),
        (Proto::RoundRobin, 1 << 16, 64, 200),
        (Proto::WakeupWithS, 1 << 16, 64, 100),
        (Proto::WakeupN, 1 << 12, 256, 16),
    ] {
        group += 1;
        let mut rng = b.rng(group);
        let pats: Vec<WakePattern> = (0..runs)
            .map(|_| {
                let ids = ids_random(n, k, &mut rng);
                let s = rng.gen_range(0..1024u64);
                if proto == Proto::WakeupN {
                    WakePattern::simultaneous(&ids, s).expect("ids")
                } else {
                    WakePattern::uniform_window(&ids, s, 8 * u64::from(k), &mut rng).expect("ids")
                }
            })
            .collect();
        let o = CellOpts {
            proto,
            n,
            k,
            stop: Stop::FirstSuccess,
            population: classes,
            faults: false,
            cached: true,
            max_slots: None,
        };
        b.push(o, &Arc::new(pats), group);
    }
}
