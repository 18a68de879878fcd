//! Engine outcome pin: every [`Outcome`] field of a fixed matrix of small
//! runs — work counters and fault counts included, plus hashes of the
//! transcript, the per-station energy table and the resolution order — is
//! compared against a committed fixture.
//!
//! The equivalence suites compare engine paths with each other and leave
//! the work counters (`polls`, `skipped_slots`, `dense_steps`,
//! `word_slots`, `mode_switches`, `peak_units`, `false_collisions`) out,
//! because those legitimately differ *between paths*. They must not differ
//! *across commits* for the same path: a refactor of the engine loops that
//! moves a counter increment, re-orders a feedback delivery or drops a
//! fault draw shows up here as a changed fixture line.
//!
//! The matrix reaches every engine path — the sparse hint heap, scalar
//! dense stepping, the word kernel (forced and inside adaptive bursts), the
//! class engine (sparse and dense, ID-collecting and count-only tallies,
//! class splits), and the permanent dense fallback of hintless protocols
//! and of hints that turn dense mid-run — under both stop rules, on the
//! ideal channel and under erasure + capture + false collisions + churn.
//!
//! The fixture (`tests/fixtures/engine_pin.txt`) is one line per run. It is
//! a record of engine behaviour, not a specification: regenerate it only in
//! a change that intends to move these numbers, and say so.

use mac_sim::engine::StopRule;
use mac_sim::population::{ClassStation, Members, TxTally};
use mac_sim::trace::Transcript;
use mac_wakeup::prelude::*;

const FIXTURE: &str = include_str!("fixtures/engine_pin.txt");

const N: u32 = 64;
const CAP: u64 = 2_000;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn transcript_hash(tr: Option<&Transcript>) -> String {
    let Some(tr) = tr else {
        return "none".into();
    };
    let mut h = Fnv::new();
    for rec in tr.records() {
        h.word(rec.slot);
        h.word(rec.transmitters.len() as u64);
        for id in &rec.transmitters {
            h.word(u64::from(id.0));
        }
        match &rec.outcome {
            SlotOutcome::Silence => h.word(0),
            SlotOutcome::Success(w) => {
                h.word(1);
                h.word(u64::from(w.0));
            }
            SlotOutcome::Collision(ids) => {
                h.word(2);
                h.word(ids.len() as u64);
                for id in ids {
                    h.word(u64::from(id.0));
                }
            }
        }
    }
    format!("{}:{:016x}", tr.len(), h.0)
}

fn pairs_hash(pairs: &[(StationId, u64)]) -> String {
    let mut h = Fnv::new();
    for &(id, v) in pairs {
        h.word(u64::from(id.0));
        h.word(v);
    }
    format!("{}:{:016x}", pairs.len(), h.0)
}

fn render(out: &Outcome) -> String {
    let f = &out.faults;
    format!(
        "s={} first={:?} winner={:?} slots={} tx={} coll={} silent={} polls={} skipped={} \
         dense={} word={} switches={} peak={} all_at={:?} resolved={} per_tx={} \
         transcript={} faults={}/{}/{}/{}/{}",
        out.s,
        out.first_success,
        out.winner.map(|w| w.0),
        out.slots_simulated,
        out.transmissions,
        out.collisions,
        out.silent_slots,
        out.polls,
        out.skipped_slots,
        out.dense_steps,
        out.word_slots,
        out.mode_switches,
        out.peak_units,
        out.all_resolved_at,
        pairs_hash(&out.resolved),
        pairs_hash(&out.per_station_tx),
        transcript_hash(out.transcript.as_ref()),
        f.erasures,
        f.captures,
        f.false_collisions,
        f.churn_crashes,
        f.churn_rewakes,
    )
}

/// Hinted at first, dense afterwards: a station's first answer claims its
/// wake slot plus `id % 5` (scoped to end two slots after the wake), and
/// every later query answers [`TxHint::Dense`]. The sparse path therefore
/// locks dense in the middle of a run: at a poll re-arm, a success re-arm
/// or a scope-boundary re-query.
struct LateDense;
struct LateDenseStation {
    id: u32,
    sigma: Slot,
    queried: bool,
}
impl LateDenseStation {
    fn first(&self) -> Slot {
        self.sigma + u64::from(self.id % 5)
    }
}
impl Station for LateDenseStation {
    fn wake(&mut self, sigma: Slot) {
        self.sigma = sigma;
    }
    fn act(&mut self, t: Slot) -> Action {
        let first = self.first();
        Action::from_bool(t == first || (t > first && (t + u64::from(self.id)).is_multiple_of(7)))
    }
    fn next_transmission(&mut self, after: Slot) -> TxHint {
        let first = self.first();
        if !std::mem::replace(&mut self.queried, true) && after <= first {
            TxHint::At(first, Until::Slot(self.sigma + 2))
        } else {
            TxHint::Dense
        }
    }
}
impl Protocol for LateDense {
    fn station(&self, id: StationId, _seed: u64) -> Box<dyn Station> {
        Box::new(LateDenseStation {
            id: id.0,
            sigma: 0,
            queried: false,
        })
    }
    fn name(&self) -> String {
        "late-dense".into()
    }
}

/// A hinted protocol whose class splits on its first feedback: every
/// station transmits at its wake slot (a collision for batches) and then
/// alone at `σ + 1 + id`; the class mirrors that and sheds every
/// member past the first into its own unit after the first feedback.
struct Fragmenting;
struct FragStation {
    id: u32,
    sigma: Slot,
}
fn frag_next(sigma: Slot, id: u32, after: Slot) -> Option<Slot> {
    let own = sigma + 1 + u64::from(id);
    [sigma, own].into_iter().find(|&t| t >= after)
}
impl Station for FragStation {
    fn wake(&mut self, sigma: Slot) {
        self.sigma = sigma;
    }
    fn act(&mut self, t: Slot) -> Action {
        Action::from_bool(frag_next(self.sigma, self.id, t) == Some(t))
    }
    fn next_transmission(&mut self, after: Slot) -> TxHint {
        match frag_next(self.sigma, self.id, after) {
            Some(t) => TxHint::at(t),
            None => TxHint::never(),
        }
    }
}
struct FragClass {
    members: Vec<StationId>,
    sigma: Slot,
    split_done: bool,
}
impl ClassStation for FragClass {
    fn weight(&self) -> u64 {
        self.members.len() as u64
    }
    fn wake(&mut self, sigma: Slot) {
        self.sigma = sigma;
    }
    fn act(&mut self, t: Slot, tally: &mut TxTally) {
        let sigma = self.sigma;
        let ids: Vec<StationId> = self
            .members
            .iter()
            .copied()
            .filter(|id| frag_next(sigma, id.0, t) == Some(t))
            .collect();
        match ids.len() {
            0 => {}
            1 => tally.push(ids[0]),
            _ if tally.collect_ids() => ids.into_iter().for_each(|id| tally.push(id)),
            c => tally.add_anonymous(c as u64),
        }
    }
    fn feedback(&mut self, _t: Slot, _fb: Feedback) -> Vec<Box<dyn ClassStation>> {
        if std::mem::replace(&mut self.split_done, true) {
            return Vec::new();
        }
        let sigma = self.sigma;
        self.members
            .drain(1..)
            .map(|id| {
                Box::new(FragClass {
                    members: vec![id],
                    sigma,
                    split_done: true,
                }) as Box<dyn ClassStation>
            })
            .collect()
    }
    fn next_transmission(&mut self, after: Slot) -> TxHint {
        let sigma = self.sigma;
        match self
            .members
            .iter()
            .filter_map(|id| frag_next(sigma, id.0, after))
            .min()
        {
            Some(t) => TxHint::at(t),
            None => TxHint::never(),
        }
    }
}
impl Protocol for Fragmenting {
    fn station(&self, id: StationId, _seed: u64) -> Box<dyn Station> {
        Box::new(FragStation { id: id.0, sigma: 0 })
    }
    fn class_station(&self, members: &Members, _run_seed: u64) -> Option<Box<dyn ClassStation>> {
        Some(Box::new(FragClass {
            members: members.iter().collect(),
            sigma: 0,
            split_done: false,
        }))
    }
    fn name(&self) -> String {
        "fragmenting".into()
    }
}

fn ids(v: impl IntoIterator<Item = u32>) -> Vec<StationId> {
    v.into_iter().map(StationId).collect()
}

fn patterns() -> Vec<(&'static str, WakePattern)> {
    vec![
        // Sparse: stragglers far apart — the hint heap skips the gaps.
        (
            "stagger",
            WakePattern::staggered(&ids([3, 17, 29, 40, 52, 61]), 10, 37).unwrap(),
        ),
        // A contested batch: adaptive bursts and the word kernel.
        ("burst", WakePattern::simultaneous(&ids(8..32), 5).unwrap()),
        // The whole universe as one block: one class per protocol.
        ("block", WakePattern::range(0, N, 0).unwrap()),
        // Batches separated by idle stretches, plus a late straggler.
        (
            "mixed",
            WakePattern::new(
                ids(0..8)
                    .into_iter()
                    .map(|id| (id, 3))
                    .chain(ids(40..44).into_iter().map(|id| (id, 90)))
                    .chain([(StationId(63), 400)])
                    .collect(),
            )
            .unwrap(),
        ),
    ]
}

fn protocols(pattern: &WakePattern) -> Vec<(&'static str, Box<dyn Protocol>)> {
    vec![
        ("rr", Box::new(RoundRobin::new(N))),
        (
            "with_s",
            Box::new(WakeupWithS::new(
                N,
                pattern.s(),
                FamilyProvider::random_with_seed(7),
            )),
        ),
        (
            "wakeup_n",
            Box::new(WakeupN::new(MatrixParams::new(N).with_seed(7))),
        ),
        ("retiring_rr", Box::new(RetiringRoundRobin::new(N))),
        // Randomized and hintless: the permanent dense fallback.
        ("rpd", Box::new(Rpd::new(N))),
        ("late_dense", Box::new(LateDense)),
        ("fragmenting", Box::new(Fragmenting)),
    ]
}

fn engines() -> [(&'static str, EngineMode, PopulationMode); 5] {
    [
        ("auto", EngineMode::Auto, PopulationMode::Concrete),
        ("dense", EngineMode::Dense, PopulationMode::Concrete),
        ("bitslab", EngineMode::Bitslab, PopulationMode::Concrete),
        ("classes", EngineMode::Auto, PopulationMode::Classes),
        ("classes_dense", EngineMode::Dense, PopulationMode::Classes),
    ]
}

fn faulty(cfg: SimConfig) -> SimConfig {
    cfg.with_feedback(FeedbackModel::CollisionDetection)
        .with_channel(
            ChannelModel::ideal()
                .with_erasure_ppm(100_000)
                .with_capture_ppm(50_000)
                .with_false_collision_ppm(200_000),
        )
        .with_churn(
            ChurnScript::random(RandomChurn {
                crash_ppm: 250_000,
                lifetime: 48,
                rewake_after: Some(30),
            })
            .unwrap(),
        )
}

/// Every run of the matrix, one rendered line each.
fn actual() -> Vec<String> {
    let mut lines = Vec::new();
    for (pi, (pname, pattern)) in patterns().into_iter().enumerate() {
        let seed = 0x5EED_0000 + pi as u64;
        for (proto_name, protocol) in protocols(&pattern) {
            for (ename, engine, population) in engines() {
                for stop in [StopRule::FirstSuccess, StopRule::AllResolved] {
                    for (layer, lean) in [("ideal", false), ("faulty", false), ("lean", true)] {
                        // Count-only class tallies only differ from the
                        // collecting regime on the class engine.
                        if lean && population == PopulationMode::Concrete {
                            continue;
                        }
                        let mut cfg = SimConfig::new(N)
                            .with_max_slots(CAP)
                            .with_engine(engine)
                            .with_population(population);
                        if stop == StopRule::AllResolved {
                            cfg = cfg.until_all_resolved();
                        }
                        cfg = if lean {
                            cfg.without_per_station_detail()
                        } else {
                            cfg.with_transcript()
                        };
                        if layer == "faulty" {
                            cfg = faulty(cfg);
                        }
                        let out = Simulator::new(cfg)
                            .run(protocol.as_ref(), &pattern, seed)
                            .unwrap();
                        lines.push(format!(
                            "{pname} {proto_name} {ename} {stop:?} {layer}: {}",
                            render(&out)
                        ));
                    }
                }
            }
        }
    }
    lines
}

#[test]
fn engine_outcomes_match_the_pinned_fixture() {
    let actual = actual();
    let expected: Vec<&str> = FIXTURE.lines().collect();
    let diffs: Vec<String> = actual
        .iter()
        .zip(expected.iter())
        .filter(|(a, e)| a.as_str() != **e)
        .take(8)
        .map(|(a, e)| format!("  expected: {e}\n  actual:   {a}"))
        .collect();
    assert!(
        diffs.is_empty() && actual.len() == expected.len(),
        "{} pinned runs, {} fixture lines; first differences:\n{}",
        actual.len(),
        expected.len(),
        diffs.join("\n")
    );
}
