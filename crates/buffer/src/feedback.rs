//! Feedback punctuation: pressure signals flowing *against* the data
//! direction (Fernández-Moctezuma & Tufte's inter-operator feedback).
//!
//! Ordinary punctuation travels with the data and asserts "no more tuples
//! below τ". Feedback punctuation travels the other way and asserts "the
//! consumer is under pressure" — a queue-occupancy level classified by
//! configurable [`Watermarks`]. Upstream nodes react without ever breaking
//! the ordering or punctuation-dominance contracts: sources pace or shed
//! (declared, counted — never silent), and at the wire boundary the
//! server translates pressure into producer-side send-window hints.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// Queue-pressure classification carried by a feedback signal.
///
/// The discriminants are the wire encoding (`Frame::Feedback.level`), so
/// they are stable protocol values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum PressureLevel {
    /// Occupancy below the high watermark: no upstream action needed.
    #[default]
    Normal = 0,
    /// Occupancy at or above the high watermark: pace down.
    High = 1,
    /// Occupancy at or above the critical watermark: minimal window,
    /// shedding permitted where it was enabled.
    Critical = 2,
}

impl PressureLevel {
    /// The wire encoding of the level.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decodes a wire level, saturating unknown values to `Critical` so a
    /// newer peer's stronger signal is never weakened.
    pub fn from_u8(v: u8) -> PressureLevel {
        match v {
            0 => PressureLevel::Normal,
            1 => PressureLevel::High,
            _ => PressureLevel::Critical,
        }
    }

    /// True iff the level calls for an upstream reaction.
    pub fn is_elevated(self) -> bool {
        self != PressureLevel::Normal
    }
}

/// Occupancy thresholds that classify queue depth into a
/// [`PressureLevel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermarks {
    /// Occupancy at or above this is [`PressureLevel::High`].
    pub high: usize,
    /// Occupancy at or above this is [`PressureLevel::Critical`].
    pub critical: usize,
}

impl Watermarks {
    /// Creates a watermark pair; `critical` is raised to at least `high`
    /// so the classification is monotone by construction.
    pub fn new(high: usize, critical: usize) -> Watermarks {
        Watermarks {
            high: high.max(1),
            critical: critical.max(high.max(1)),
        }
    }

    /// Classifies an occupancy reading.
    pub fn classify(&self, occupancy: usize) -> PressureLevel {
        if occupancy >= self.critical {
            PressureLevel::Critical
        } else if occupancy >= self.high {
            PressureLevel::High
        } else {
            PressureLevel::Normal
        }
    }
}

impl Default for Watermarks {
    /// Defaults sized for the bounded wire queues (1024): react at half
    /// occupancy, clamp hard near the brim.
    fn default() -> Watermarks {
        Watermarks::new(512, 896)
    }
}

/// Lock-free per-source pressure registers, shared between an executor
/// (which writes them at quiescence) and external observers such as the
/// network server (which reads them to pace producers).
#[derive(Debug)]
pub struct FeedbackRegisters {
    levels: Vec<AtomicU8>,
}

impl FeedbackRegisters {
    /// Creates registers for `n` sources, all `Normal`, wrapped for
    /// sharing.
    pub fn shared(n: usize) -> Arc<FeedbackRegisters> {
        Arc::new(FeedbackRegisters {
            levels: (0..n).map(|_| AtomicU8::new(0)).collect(),
        })
    }

    /// Number of sources covered.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// True iff there are no registers.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Stores the level for source `i`.
    pub fn set(&self, i: usize, level: PressureLevel) {
        if let Some(cell) = self.levels.get(i) {
            cell.store(level.as_u8(), Ordering::Relaxed);
        }
    }

    /// Reads the level for source `i` (`Normal` when out of range).
    pub fn get(&self, i: usize) -> PressureLevel {
        self.levels
            .get(i)
            .map(|cell| PressureLevel::from_u8(cell.load(Ordering::Relaxed)))
            .unwrap_or_default()
    }

    /// The maximum level across all sources.
    pub fn max_level(&self) -> PressureLevel {
        (0..self.levels.len())
            .map(|i| self.get(i))
            .max()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_and_roundtrip() {
        assert!(PressureLevel::Normal < PressureLevel::High);
        assert!(PressureLevel::High < PressureLevel::Critical);
        for lvl in [
            PressureLevel::Normal,
            PressureLevel::High,
            PressureLevel::Critical,
        ] {
            assert_eq!(PressureLevel::from_u8(lvl.as_u8()), lvl);
        }
        // Unknown wire values saturate upward, never downward.
        assert_eq!(PressureLevel::from_u8(200), PressureLevel::Critical);
        assert!(!PressureLevel::Normal.is_elevated());
        assert!(PressureLevel::High.is_elevated());
    }

    #[test]
    fn watermarks_classify_monotonically() {
        let wm = Watermarks::new(10, 20);
        assert_eq!(wm.classify(0), PressureLevel::Normal);
        assert_eq!(wm.classify(9), PressureLevel::Normal);
        assert_eq!(wm.classify(10), PressureLevel::High);
        assert_eq!(wm.classify(19), PressureLevel::High);
        assert_eq!(wm.classify(20), PressureLevel::Critical);
        assert_eq!(wm.classify(usize::MAX), PressureLevel::Critical);
    }

    #[test]
    fn degenerate_watermarks_are_repaired() {
        // critical below high is raised; zero thresholds become 1 so an
        // empty queue is always Normal.
        let wm = Watermarks::new(10, 3);
        assert_eq!(wm.critical, 10);
        let wm = Watermarks::new(0, 0);
        assert_eq!(wm.classify(0), PressureLevel::Normal);
        assert_eq!(wm.classify(1), PressureLevel::Critical);
    }

    #[test]
    fn registers_store_and_max() {
        let regs = FeedbackRegisters::shared(3);
        assert_eq!(regs.len(), 3);
        assert!(!regs.is_empty());
        assert_eq!(regs.max_level(), PressureLevel::Normal);
        regs.set(1, PressureLevel::High);
        regs.set(2, PressureLevel::Critical);
        assert_eq!(regs.get(0), PressureLevel::Normal);
        assert_eq!(regs.get(1), PressureLevel::High);
        assert_eq!(regs.get(2), PressureLevel::Critical);
        assert_eq!(regs.max_level(), PressureLevel::Critical);
        // Out-of-range accesses are harmless.
        regs.set(9, PressureLevel::Critical);
        assert_eq!(regs.get(9), PressureLevel::Normal);
        assert!(FeedbackRegisters::shared(0).is_empty());
    }
}
