//! The send-boundary failure detector shared by the adaptive
//! ([`crate::replan`]) and work-exchange ([`crate::exchange`]) families.
//!
//! At each send boundary the server learns, for every unsent position,
//! whether its worker has crashed (`t_c ≤ now`) or is straggling (a
//! slowdown window is active `now`; the position's effective ρ is
//! rescaled by the factor seen then, once). Each verdict is per position
//! and never revised, so a position whose crash is already known — or
//! absent — and whose slowdown is already seen — or absent — can learn
//! nothing more. The detector keeps only the positions that still can,
//! which makes a boundary cost O(pending) index queries instead of a
//! slowdown scan of every unsent position; skipping the others changes
//! no verdict, so detection is bit-identical to visiting them all.

use hetero_faults::FaultIndex;
use hetero_sim::SimTime;

use crate::engine::Slot;

/// What the detector has learned per position, and which positions can
/// still teach it something.
pub(crate) struct Detector {
    /// Per position: its worker's crash was seen at a boundary.
    known_crashed: Vec<bool>,
    /// Per position: a slowdown was seen and folded into `eff_rhos`.
    detected_slow: Vec<bool>,
    /// Per position: ρ rescaled by the slowdown seen at detection.
    eff_rhos: Vec<f64>,
    /// Positions with a crash not yet known or a slowdown not yet seen,
    /// in ascending position order. Only the detector writes the three
    /// verdict vectors, which keeps this list in step with them.
    pending: Vec<Watch>,
}

/// A position the detector still watches.
struct Watch {
    pos: usize,
    worker: usize,
    rho: f64,
    /// The worker's crash time, until the crash is known.
    crash: Option<f64>,
    /// The worker has slowdown windows and none was seen yet.
    slow: bool,
}

impl Detector {
    /// A detector over the engine's `slots`; nothing is known yet.
    pub(crate) fn new(faults: &FaultIndex<'_>, slots: &[Slot]) -> Self {
        let mut det = Detector {
            known_crashed: Vec::with_capacity(slots.len()),
            detected_slow: Vec::with_capacity(slots.len()),
            eff_rhos: Vec::with_capacity(slots.len()),
            pending: Vec::new(),
        };
        for slot in slots {
            det.push(faults, slot.worker, slot.rho, slot.crash, slot.rho, false);
        }
        det
    }

    /// `true` once the crash of the worker at `pos` was seen.
    pub(crate) fn known_crashed(&self, pos: usize) -> bool {
        self.known_crashed.get(pos).is_some_and(|&known| known)
    }

    /// `true` once a slowdown of the worker at `pos` was seen.
    pub(crate) fn detected_slow(&self, pos: usize) -> bool {
        self.detected_slow.get(pos).is_some_and(|&seen| seen)
    }

    /// The speed of `pos` rescaled by the slowdown seen at detection
    /// (its base ρ when none was seen).
    pub(crate) fn eff_rho(&self, pos: usize) -> f64 {
        self.eff_rhos
            .get(pos)
            .copied()
            // hetero-check: allow(expect) — the detector holds one verdict per engine slot, and policies ask only for slots the engine holds
            .expect("a verdict per slot")
    }

    /// Appends the next position: `worker` at base speed `rho`, crashing
    /// at `crash`, starting from the verdicts `eff_rho`/`detected_slow`
    /// (a top-up position inherits its original position's) and an
    /// unknown crash.
    pub(crate) fn push(
        &mut self,
        faults: &FaultIndex<'_>,
        worker: usize,
        rho: f64,
        crash: Option<f64>,
        eff_rho: f64,
        detected_slow: bool,
    ) {
        let pos = self.eff_rhos.len();
        self.known_crashed.push(false);
        self.detected_slow.push(detected_slow);
        self.eff_rhos.push(eff_rho);
        let slow = !detected_slow && faults.has_slowdown(worker);
        if crash.is_some() || slow {
            self.pending.push(Watch {
                pos,
                worker,
                rho,
                crash,
                slow,
            });
        }
    }

    /// Boundary-time detection over the unsent positions `pos..`.
    /// Returns `true` when anything new was learned.
    pub(crate) fn detect(&mut self, faults: &FaultIndex<'_>, pos: usize, now: SimTime) -> bool {
        let now = now.get();
        let mut learned = false;
        let Detector {
            known_crashed,
            detected_slow,
            eff_rhos,
            pending,
        } = self;
        pending.retain_mut(|w| {
            if w.pos < pos {
                // Sent: boundaries only move forward, so never visited again.
                return false;
            }
            if w.crash.is_some_and(|tc| tc <= now) {
                if let Some(known) = known_crashed.get_mut(w.pos) {
                    *known = true;
                }
                w.crash = None;
                learned = true;
            }
            if w.slow {
                if let Some(f) = faults.slowdown_factor(w.worker, now) {
                    if let (Some(eff), Some(seen)) =
                        (eff_rhos.get_mut(w.pos), detected_slow.get_mut(w.pos))
                    {
                        *eff = w.rho * f;
                        *seen = true;
                    }
                    w.slow = false;
                    learned = true;
                }
            }
            w.crash.is_some() || w.slow
        });
        learned
    }
}
