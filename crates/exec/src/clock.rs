//! The executor's clock abstraction.
//!
//! The paper's experiments ran against the system clock of a P4 host; this
//! reproduction runs against a **virtual clock** so that hours of stream
//! time simulate in milliseconds, deterministically. The executor charges
//! each operator step to the clock through a [`CostModel`], which is what
//! makes punctuation *overhead* visible — the effect behind the rising
//! right half of the paper's Fig. 8(b).
//!
//! **Single-writer contract.** A [`VirtualClock`] is written by one thread
//! at a time: the executor that owns it (every step, backtrack hop and ETS)
//! and the driver of that executor (`advance_to` before ingesting), both on
//! the executor's thread. Each executor, parallel component and shard
//! replica is built with its own `VirtualClock::shared()`. Writes are
//! therefore a relaxed load and store, not a locked read-modify-write;
//! the counter stays an atomic only so other threads can read it whole.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use millstream_types::{TimeDelta, Timestamp};

/// A shared, monotone virtual clock (`Arc<VirtualClock>`).
///
/// Single-writer: all updates must come from one thread at a time (see the
/// module docs); any thread may read. The counter is a relaxed atomic so a
/// clock can be owned by a graph that moves onto a worker thread.
#[derive(Debug, Default)]
pub struct VirtualClock {
    micros: AtomicU64,
}

impl VirtualClock {
    /// A new clock at the epoch, wrapped for sharing.
    pub fn shared() -> Arc<VirtualClock> {
        Arc::new(VirtualClock::default())
    }

    /// Current reading.
    pub fn now(&self) -> Timestamp {
        Timestamp::from_micros(self.micros.load(Ordering::Relaxed))
    }

    /// Moves the clock forward by `delta` (wrapping on overflow). A zero
    /// delta — every charge under [`CostModel::free`] — writes nothing.
    pub fn advance(&self, delta: TimeDelta) {
        let d = delta.as_micros();
        if d != 0 {
            let v = self.micros.load(Ordering::Relaxed).wrapping_add(d);
            self.micros.store(v, Ordering::Relaxed);
        }
    }

    /// Jumps the clock forward to `to`; ignored if `to` is in the past
    /// (the clock never goes backwards).
    pub fn advance_to(&self, to: Timestamp) {
        let to = to.as_micros();
        if to > self.micros.load(Ordering::Relaxed) {
            self.micros.store(to, Ordering::Relaxed);
        }
    }
}

/// Virtual CPU cost charged per executor action.
///
/// Defaults are calibrated to a mid-2000s CPU like the paper's P4 2.8 GHz:
/// a few microseconds per operator invocation. Absolute values only scale
/// the picture; the paper's *shape* (orders-of-magnitude gaps) comes from
/// idle-waiting spans of seconds versus service times of microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Fixed cost of one operator step.
    pub step: TimeDelta,
    /// Cost per work unit (tuple consumed/produced, window pair probed).
    pub per_unit: TimeDelta,
    /// Cost of one backtracking hop.
    pub backtrack: TimeDelta,
    /// Cost of generating one on-demand ETS at a source.
    pub ets_generation: TimeDelta,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            step: TimeDelta::from_micros(2),
            per_unit: TimeDelta::from_micros(1),
            backtrack: TimeDelta::from_micros(0),
            ets_generation: TimeDelta::from_micros(2),
        }
    }
}

impl CostModel {
    /// A zero-cost model (pure logical execution; useful in unit tests
    /// where clock movement would obscure assertions).
    pub fn free() -> Self {
        CostModel {
            step: TimeDelta::ZERO,
            per_unit: TimeDelta::ZERO,
            backtrack: TimeDelta::ZERO,
            ets_generation: TimeDelta::ZERO,
        }
    }

    /// The cost of an operator step that performed `work` units.
    pub fn step_cost(&self, work: usize) -> TimeDelta {
        self.step + self.per_unit.saturating_mul(work as u64)
    }

    /// The cost of a batch of `steps` operator steps totalling `work`
    /// units. `step_cost` is linear in work, so this equals the sum of the
    /// per-step costs exactly — batched execution charges the same virtual
    /// time as per-tuple execution, just in one clock advance.
    pub fn batch_cost(&self, steps: usize, work: usize) -> TimeDelta {
        self.step.saturating_mul(steps as u64) + self.per_unit.saturating_mul(work as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let c = VirtualClock::shared();
        assert_eq!(c.now(), Timestamp::ZERO);
        c.advance(TimeDelta::from_micros(10));
        assert_eq!(c.now().as_micros(), 10);
        c.advance_to(Timestamp::from_micros(5));
        assert_eq!(c.now().as_micros(), 10, "never goes backwards");
        c.advance_to(Timestamp::from_micros(50));
        assert_eq!(c.now().as_micros(), 50);
    }

    #[test]
    fn cost_model_scales_with_work() {
        let m = CostModel::default();
        assert_eq!(m.step_cost(0), TimeDelta::from_micros(2));
        assert_eq!(m.step_cost(3), TimeDelta::from_micros(5));
        assert_eq!(CostModel::free().step_cost(100), TimeDelta::ZERO);
    }

    #[test]
    fn batch_cost_equals_sum_of_step_costs() {
        let m = CostModel::default();
        // A batch of 3 steps with work 2, 0, 5.
        let per_tuple = m.step_cost(2) + m.step_cost(0) + m.step_cost(5);
        assert_eq!(m.batch_cost(3, 7), per_tuple);
        assert_eq!(m.batch_cost(1, 4), m.step_cost(4), "K = 1 is one step");
        assert_eq!(CostModel::free().batch_cost(64, 1000), TimeDelta::ZERO);
    }
}
