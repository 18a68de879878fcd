//! Channel resolution and feedback models.
//!
//! The ground truth of a slot is a [`SlotOutcome`]: silence, a successful
//! solo transmission, or a collision. What a *station* perceives is a
//! [`Feedback`], which depends on the [`FeedbackModel`]:
//!
//! * [`FeedbackModel::NoCollisionDetection`] — the model of the paper. "No
//!   feedback signal is supplied by the channel in the case of collision,
//!   making it consequently impossible to distinguish between an occurred
//!   collision and the case where no station transmits" (§1). Collisions are
//!   perceived as [`Feedback::Silence`].
//! * [`FeedbackModel::CollisionDetection`] — the stronger classical model in
//!   which stations hear interference noise on collision
//!   ([`Feedback::Noise`]). Provided for baselines and ablation experiments
//!   (the Greenberg–Winograd lower bound holds even with collision
//!   detection).

use crate::ids::StationId;
use crate::rng::derive_seed;

/// What actually happened on the channel in one slot (ground truth,
/// recorded in transcripts; *not* directly observable by stations).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SlotOutcome {
    /// No station transmitted.
    Silence,
    /// Exactly one station transmitted: the transmission is successful and
    /// every station receives the message.
    Success(StationId),
    /// Two or more stations transmitted; all messages are lost.
    Collision(Vec<StationId>),
}

impl SlotOutcome {
    /// Resolve a slot from the set of transmitters.
    ///
    /// `transmitters` need not be sorted; collisions record the transmitter
    /// set in sorted order for deterministic transcripts.
    pub fn resolve(mut transmitters: Vec<StationId>) -> Self {
        match transmitters.len() {
            0 => SlotOutcome::Silence,
            1 => SlotOutcome::Success(transmitters[0]),
            _ => {
                transmitters.sort_unstable();
                SlotOutcome::Collision(transmitters)
            }
        }
    }

    /// `true` iff the slot was a successful solo transmission.
    #[inline]
    pub fn is_success(&self) -> bool {
        matches!(self, SlotOutcome::Success(_))
    }

    /// The winner of a successful slot, if any — the *success event* the
    /// sparse engine broadcasts (every station hears a success) and uses to
    /// invalidate [`Until::NextSuccess`](crate::station::Until)-scoped
    /// hints.
    #[inline]
    pub fn success_id(&self) -> Option<StationId> {
        match self {
            SlotOutcome::Success(w) => Some(*w),
            _ => None,
        }
    }

    /// The number of stations that transmitted in this slot.
    pub fn transmitter_count(&self) -> usize {
        match self {
            SlotOutcome::Silence => 0,
            SlotOutcome::Success(_) => 1,
            SlotOutcome::Collision(v) => v.len(),
        }
    }
}

/// How much information the channel reveals to listening stations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum FeedbackModel {
    /// The paper's model: a collision is indistinguishable from silence.
    #[default]
    NoCollisionDetection,
    /// Stations hear interference noise on collision (ternary feedback).
    CollisionDetection,
}

impl FeedbackModel {
    /// The feedback perceived under this model — one value per slot, the
    /// same for every station.
    ///
    /// A transmitting station learns nothing from the channel beyond what
    /// everybody hears — except that, as the paper notes, a successful
    /// sender "possesses the message by default", which is modelled by
    /// `Feedback::Heard` carrying the sender's own ID.
    pub fn perceive(self, outcome: &SlotOutcome) -> Feedback {
        match (self, outcome) {
            (_, SlotOutcome::Silence) => Feedback::Silence,
            (_, SlotOutcome::Success(w)) => Feedback::Heard(*w),
            (FeedbackModel::NoCollisionDetection, SlotOutcome::Collision(_)) => Feedback::Silence,
            (FeedbackModel::CollisionDetection, SlotOutcome::Collision(_)) => Feedback::Noise,
        }
    }
}

/// What a single station perceives at the end of a slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Feedback {
    /// Nothing heard. Under [`FeedbackModel::NoCollisionDetection`] this
    /// covers both true silence and collisions.
    Silence,
    /// A successful transmission by the given station was heard (every
    /// station receives it, including the sender itself).
    Heard(StationId),
    /// Interference noise: a collision, only distinguishable under
    /// [`FeedbackModel::CollisionDetection`].
    Noise,
}

impl Feedback {
    /// `true` iff this feedback is the station's **own** message echoed back
    /// — the retirement signal of success-reactive protocols (a successful
    /// sender "possesses the message by default").
    #[inline]
    pub fn is_own_success(self, id: StationId) -> bool {
        self == Feedback::Heard(id)
    }
}

/// A deterministic fault model perturbing ground-truth slot outcomes before
/// feedback delivery.
///
/// Rates are expressed in parts-per-million so the model is `Copy`, hashable
/// and exactly reproducible (no floating point in the hot path). All draws
/// come from `derive_seed(fault_seed, slot)` where `fault_seed` is the
/// per-run `derive_seed(run_seed, FAULT_STREAM)` — a pure function of
/// `(run_seed, slot)`, so every engine path (dense, sparse, word-kernel,
/// classes) and every thread count sees the *same* faults in the *same*
/// slots.
///
/// Three perturbations, applied to the ground truth in this order:
///
/// * **Erasure** (`erasure_ppm`): a successful solo transmission is lost —
///   the slot is heard (and recorded) as silence. Models deep fades and
///   receiver-side losses.
/// * **Capture** (`capture_ppm`): one transmitter of a collision survives —
///   the slot resolves as a success for a deterministically drawn winner.
///   Models the capture effect of real radios (power imbalance lets the
///   strongest signal decode despite interference).
/// * **False collision** (`false_collision_ppm`): an effectively silent slot
///   is *perceived* as interference noise under
///   [`FeedbackModel::CollisionDetection`]. This is perception-only: the
///   transcript still records silence (there is nothing on the channel), and
///   under the paper's no-collision-detection model it is a no-op because
///   silence and noise are indistinguishable anyway.
///
/// Erasure and capture rewrite the *outcome* — transcripts, stop rules and
/// all feedback flow from the effective outcome, while energy accounting
/// (`transmissions`, per-station counters) stays with the ground truth: the
/// stations still spent the energy even if the channel ate the message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct ChannelModel {
    /// Probability (ppm) that a `Success` slot is erased to `Silence`.
    pub erasure_ppm: u32,
    /// Probability (ppm) that an effectively silent slot is misheard as
    /// noise under collision detection (perception-only).
    pub false_collision_ppm: u32,
    /// Probability (ppm) that a collision of ≥ 2 transmitters is captured
    /// by one of them and resolves as that station's success.
    pub capture_ppm: u32,
}

/// One million — the denominator of every [`ChannelModel`] rate.
pub const PPM: u64 = 1_000_000;

impl ChannelModel {
    /// The perfect channel: no erasure, no capture, no false collisions.
    /// Identical to not having a channel model at all (and gated out of
    /// every engine hot path, so it costs nothing).
    #[inline]
    pub const fn ideal() -> Self {
        ChannelModel {
            erasure_ppm: 0,
            false_collision_ppm: 0,
            capture_ppm: 0,
        }
    }

    /// `true` iff this model never perturbs anything.
    #[inline]
    pub const fn is_ideal(&self) -> bool {
        self.erasure_ppm == 0 && self.false_collision_ppm == 0 && self.capture_ppm == 0
    }

    /// Set the erasure rate in parts-per-million (clamped to 100%).
    #[must_use]
    pub const fn with_erasure_ppm(mut self, ppm: u32) -> Self {
        self.erasure_ppm = if ppm > PPM as u32 { PPM as u32 } else { ppm };
        self
    }

    /// Set the false-collision rate in parts-per-million (clamped to 100%).
    #[must_use]
    pub const fn with_false_collision_ppm(mut self, ppm: u32) -> Self {
        self.false_collision_ppm = if ppm > PPM as u32 { PPM as u32 } else { ppm };
        self
    }

    /// Set the capture rate in parts-per-million (clamped to 100%).
    #[must_use]
    pub const fn with_capture_ppm(mut self, ppm: u32) -> Self {
        self.capture_ppm = if ppm > PPM as u32 { PPM as u32 } else { ppm };
        self
    }

    /// Apply the model to the ground truth of one slot.
    ///
    /// Returns the *effective* outcome (what the channel delivers and the
    /// transcript records) together with the fault that fired, if any.
    /// Silent ground truth passes through untouched — false collisions are
    /// perception-only and handled by [`ChannelModel::mishears_silence`].
    ///
    /// `fault_seed` is the per-run `derive_seed(run_seed, FAULT_STREAM)`.
    pub fn apply(
        &self,
        fault_seed: u64,
        slot: u64,
        truth: SlotOutcome,
    ) -> (SlotOutcome, Option<ChannelFault>) {
        match truth {
            SlotOutcome::Success(w) if self.erasure_ppm > 0 => {
                let h = derive_seed(fault_seed, slot);
                if h % PPM < u64::from(self.erasure_ppm) {
                    (
                        SlotOutcome::Silence,
                        Some(ChannelFault::Erasure { winner: w }),
                    )
                } else {
                    (SlotOutcome::Success(w), None)
                }
            }
            SlotOutcome::Collision(contenders) if self.capture_ppm > 0 => {
                let h = derive_seed(fault_seed, slot);
                if derive_seed(h, 1) % PPM < u64::from(self.capture_ppm) {
                    // `contenders` is sorted by `SlotOutcome::resolve`, so the
                    // index draw is deterministic regardless of poll order.
                    let winner = contenders[(derive_seed(h, 2) % contenders.len() as u64) as usize];
                    (
                        SlotOutcome::Success(winner),
                        Some(ChannelFault::Capture { winner, contenders }),
                    )
                } else {
                    (SlotOutcome::Collision(contenders), None)
                }
            }
            other => (other, None),
        }
    }

    /// `true` iff an *effectively silent* slot is misheard as interference
    /// noise this slot. Only meaningful under
    /// [`FeedbackModel::CollisionDetection`]; callers gate on the model.
    ///
    /// Uses its own substream of the per-slot draw so it is independent of
    /// whether an erasure produced the silence.
    #[inline]
    pub fn mishears_silence(&self, fault_seed: u64, slot: u64) -> bool {
        self.false_collision_ppm > 0
            && derive_seed(derive_seed(fault_seed, slot), 3) % PPM
                < u64::from(self.false_collision_ppm)
    }
}

/// An outcome-rewriting channel fault that fired in one slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChannelFault {
    /// A successful transmission by `winner` was erased to silence.
    Erasure {
        /// The station whose solo transmission was lost.
        winner: StationId,
    },
    /// A collision was captured: `winner` survived out of `contenders`.
    Capture {
        /// The transmitter whose signal decoded despite the collision.
        winner: StationId,
        /// The full (sorted) ground-truth transmitter set.
        contenders: Vec<StationId>,
    },
}

/// Per-run fault and churn event counters, carried on
/// [`Outcome`](crate::engine::Outcome).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Successes erased to silence by the channel.
    pub erasures: u64,
    /// Collisions resolved as a capture success.
    pub captures: u64,
    /// Effectively silent slots misheard as noise (engine-path dependent:
    /// only slots a path materializes can be misheard, like `polls`).
    pub false_collisions: u64,
    /// Stations crashed by the churn script.
    pub churn_crashes: u64,
    /// Crashed stations re-woken by the churn script.
    pub churn_rewakes: u64,
}

impl FaultCounts {
    /// `true` iff any fault or churn event fired this run.
    #[inline]
    pub fn any(&self) -> bool {
        *self != FaultCounts::default()
    }

    /// Fold another run's counters into this accumulator. All fields are
    /// sums, so partials merge associatively in any grouping — ensemble
    /// aggregation stays bit-identical across thread counts.
    #[inline]
    pub fn merge(&mut self, other: &FaultCounts) {
        self.erasures += other.erasures;
        self.captures += other.captures;
        self.false_collisions += other.false_collisions;
        self.churn_crashes += other.churn_crashes;
        self.churn_rewakes += other.churn_rewakes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_silence() {
        assert_eq!(SlotOutcome::resolve(vec![]), SlotOutcome::Silence);
        assert_eq!(SlotOutcome::Silence.transmitter_count(), 0);
        assert!(!SlotOutcome::Silence.is_success());
    }

    #[test]
    fn resolve_success() {
        let o = SlotOutcome::resolve(vec![StationId(4)]);
        assert_eq!(o, SlotOutcome::Success(StationId(4)));
        assert!(o.is_success());
        assert_eq!(o.transmitter_count(), 1);
    }

    #[test]
    fn resolve_collision_sorts_transmitters() {
        let o = SlotOutcome::resolve(vec![StationId(9), StationId(2), StationId(5)]);
        assert_eq!(
            o,
            SlotOutcome::Collision(vec![StationId(2), StationId(5), StationId(9)])
        );
        assert!(!o.is_success());
        assert_eq!(o.transmitter_count(), 3);
    }

    #[test]
    fn no_cd_makes_collision_look_like_silence() {
        let collision = SlotOutcome::Collision(vec![StationId(0), StationId(1)]);
        let fb = FeedbackModel::NoCollisionDetection.perceive(&collision);
        assert_eq!(fb, Feedback::Silence);
        // ... indistinguishable from true silence:
        let fb2 = FeedbackModel::NoCollisionDetection.perceive(&SlotOutcome::Silence);
        assert_eq!(fb, fb2);
    }

    #[test]
    fn cd_distinguishes_collision_from_silence() {
        let collision = SlotOutcome::Collision(vec![StationId(0), StationId(1)]);
        assert_eq!(
            FeedbackModel::CollisionDetection.perceive(&collision),
            Feedback::Noise
        );
        assert_eq!(
            FeedbackModel::CollisionDetection.perceive(&SlotOutcome::Silence),
            Feedback::Silence
        );
    }

    #[test]
    fn success_is_heard_by_everyone_in_both_models() {
        let success = SlotOutcome::Success(StationId(3));
        for model in [
            FeedbackModel::NoCollisionDetection,
            FeedbackModel::CollisionDetection,
        ] {
            assert_eq!(model.perceive(&success), Feedback::Heard(StationId(3)));
        }
    }

    #[test]
    fn default_model_is_the_papers() {
        assert_eq!(
            FeedbackModel::default(),
            FeedbackModel::NoCollisionDetection
        );
    }

    #[test]
    fn ideal_channel_is_default_and_inert() {
        assert_eq!(ChannelModel::default(), ChannelModel::ideal());
        assert!(ChannelModel::ideal().is_ideal());
        let m = ChannelModel::ideal();
        for slot in 0..256 {
            let truth = SlotOutcome::Success(StationId(7));
            let (eff, fault) = m.apply(0xDEAD_BEEF, slot, truth.clone());
            assert_eq!(eff, truth);
            assert!(fault.is_none());
            assert!(!m.mishears_silence(0xDEAD_BEEF, slot));
        }
    }

    #[test]
    fn builders_clamp_to_one_million() {
        let m = ChannelModel::ideal()
            .with_erasure_ppm(2_000_000)
            .with_false_collision_ppm(u32::MAX)
            .with_capture_ppm(1_000_001);
        assert_eq!(m.erasure_ppm, PPM as u32);
        assert_eq!(m.false_collision_ppm, PPM as u32);
        assert_eq!(m.capture_ppm, PPM as u32);
        assert!(!m.is_ideal());
    }

    #[test]
    fn certain_erasure_kills_every_success() {
        let m = ChannelModel::ideal().with_erasure_ppm(PPM as u32);
        for slot in 0..64 {
            let (eff, fault) = m.apply(1, slot, SlotOutcome::Success(StationId(3)));
            assert_eq!(eff, SlotOutcome::Silence);
            assert_eq!(
                fault,
                Some(ChannelFault::Erasure {
                    winner: StationId(3)
                })
            );
        }
        // ... but leaves silence and collisions alone.
        let (eff, fault) = m.apply(1, 0, SlotOutcome::Silence);
        assert_eq!((eff, fault), (SlotOutcome::Silence, None));
        let coll = SlotOutcome::Collision(vec![StationId(0), StationId(1)]);
        let (eff, fault) = m.apply(1, 0, coll.clone());
        assert_eq!((eff, fault), (coll, None));
    }

    #[test]
    fn certain_capture_picks_a_contender() {
        let m = ChannelModel::ideal().with_capture_ppm(PPM as u32);
        let contenders = vec![StationId(2), StationId(5), StationId(9)];
        let mut seen = std::collections::BTreeSet::new();
        for slot in 0..64 {
            let truth = SlotOutcome::Collision(contenders.clone());
            let (eff, fault) = m.apply(99, slot, truth);
            let w = eff.success_id().expect("capture resolves to a success");
            assert!(contenders.contains(&w));
            match fault {
                Some(ChannelFault::Capture {
                    winner,
                    contenders: c,
                }) => {
                    assert_eq!(winner, w);
                    assert_eq!(c, contenders);
                }
                other => panic!("expected a capture fault, got {other:?}"),
            }
            seen.insert(w);
        }
        // The winner draw should spread over the contender set.
        assert!(seen.len() > 1, "winner never varied: {seen:?}");
    }

    #[test]
    fn partial_rates_are_deterministic_and_partial() {
        let m = ChannelModel::ideal()
            .with_erasure_ppm(500_000)
            .with_capture_ppm(500_000);
        let mut erased = 0;
        let mut captured = 0;
        for slot in 0..512 {
            let (a, fa) = m.apply(7, slot, SlotOutcome::Success(StationId(1)));
            let (b, fb) = m.apply(7, slot, SlotOutcome::Success(StationId(1)));
            assert_eq!((a.clone(), fa.clone()), (b, fb)); // pure in (seed, slot)
            erased += u32::from(a == SlotOutcome::Silence);
            let coll = SlotOutcome::Collision(vec![StationId(0), StationId(1)]);
            let (c, _) = m.apply(7, slot, coll);
            captured += u32::from(c.is_success());
        }
        // ~50% rates: both strictly between never and always.
        assert!((100..412).contains(&erased), "erased {erased}/512");
        assert!((100..412).contains(&captured), "captured {captured}/512");
    }

    #[test]
    fn mishears_silence_respects_rate_and_seed() {
        let never = ChannelModel::ideal();
        let always = ChannelModel::ideal().with_false_collision_ppm(PPM as u32);
        let half = ChannelModel::ideal().with_false_collision_ppm(500_000);
        let mut fired = 0;
        for slot in 0..512 {
            assert!(!never.mishears_silence(3, slot));
            assert!(always.mishears_silence(3, slot));
            fired += u32::from(half.mishears_silence(3, slot));
        }
        assert!((100..412).contains(&fired), "misheard {fired}/512");
        // Independent of the erasure draw on the same slot: different seeds
        // give different patterns.
        let p1: Vec<bool> = (0..64).map(|s| half.mishears_silence(1, s)).collect();
        let p2: Vec<bool> = (0..64).map(|s| half.mishears_silence(2, s)).collect();
        assert_ne!(p1, p2);
    }

    #[test]
    fn fault_counts_any() {
        assert!(!FaultCounts::default().any());
        let c = FaultCounts {
            churn_rewakes: 1,
            ..FaultCounts::default()
        };
        assert!(c.any());
    }
}
