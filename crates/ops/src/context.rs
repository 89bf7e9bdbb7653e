//! The operator abstraction: execution context, progress polling and the
//! single-step execution contract.
//!
//! The paper's execution model (§3) drives operators through a two-step
//! cycle: *execute the current operator*, then *select the next operator*
//! using the `yield` / `more` state variables. millstream realises this as:
//!
//! * [`Operator::poll`] — evaluates the operator's `more` condition (for
//!   IWP operators, the *relaxed* condition of Fig. 5 via TSM registers)
//!   and, when `more` is false, reports **which inputs starve progress** so
//!   the scheduler knows where to backtrack (§3.2's `pred_j`).
//! * [`Operator::step`] — performs one production/consumption step
//!   (Figs. 1 and 6 move one tuple at a time; repetition is the scheduler's
//!   Encore rule).
//!
//! `yield` is not part of the trait: per the paper it is simply "the output
//! buffer of the current operator contains some tuples", which the scheduler
//! checks directly on the buffer.

use std::cell::{Ref, RefCell, RefMut};

use millstream_buffer::Buffer;
use millstream_types::{Result, Schema, Timestamp};

/// Execution context handed to an operator for one poll or step: borrowed
/// views of its input and output buffers plus the current clock reading.
pub struct OpContext<'a> {
    inputs: &'a [&'a RefCell<Buffer>],
    outputs: &'a [&'a RefCell<Buffer>],
    /// The current (virtual or wall-clock) time. Operators that assign
    /// latent timestamps read it; sinks use it to compute output latency.
    pub now: Timestamp,
}

impl<'a> OpContext<'a> {
    /// Creates a context over the given buffer slices.
    pub fn new(
        inputs: &'a [&'a RefCell<Buffer>],
        outputs: &'a [&'a RefCell<Buffer>],
        now: Timestamp,
    ) -> Self {
        OpContext {
            inputs,
            outputs,
            now,
        }
    }

    /// Number of input buffers.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of output buffers.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Immutable view of input buffer `i`.
    pub fn input(&self, i: usize) -> Ref<'_, Buffer> {
        self.inputs[i].borrow()
    }

    /// Mutable view of input buffer `i` (for consumption).
    pub fn input_mut(&self, i: usize) -> RefMut<'_, Buffer> {
        self.inputs[i].borrow_mut()
    }

    /// Immutable view of output buffer `i`.
    pub fn output(&self, i: usize) -> Ref<'_, Buffer> {
        self.outputs[i].borrow()
    }

    /// Mutable view of output buffer `i` (for production).
    pub fn output_mut(&self, i: usize) -> RefMut<'_, Buffer> {
        self.outputs[i].borrow_mut()
    }

    /// True iff output buffer 0 currently holds tuples — the paper's
    /// `yield` condition.
    pub fn output_nonempty(&self) -> bool {
        self.outputs.first().is_some_and(|b| !b.borrow().is_empty())
    }

    /// True iff *any* output buffer holds tuples — the exact `yield`
    /// condition the depth-first scheduler's Forward rule tests. Batched
    /// execution must stop the moment this turns true so the scheduling
    /// decisions stay identical to per-tuple execution.
    pub fn yielded(&self) -> bool {
        self.outputs.iter().any(|b| !b.borrow().is_empty())
    }
}

/// The outcome of evaluating an operator's `more` condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Poll {
    /// The operator can execute a step right now.
    Ready,
    /// The operator cannot proceed. `starving` lists the input indices that
    /// bound progress (empty inputs whose TSM register holds the minimum τ,
    /// or inputs never yet seen). The scheduler backtracks toward the
    /// predecessor feeding the first starving input (paper §3.2).
    Starved {
        /// Input indices that bound progress; never empty. Inline storage:
        /// polling is a per-scheduling-decision operation and must not
        /// allocate.
        starving: millstream_buffer::StarveList,
    },
}

impl Poll {
    /// True iff the operator is ready to execute.
    pub fn is_ready(&self) -> bool {
        matches!(self, Poll::Ready)
    }

    /// Convenience constructor for a single starving input.
    pub fn starved_on(input: usize) -> Poll {
        Poll::Starved {
            starving: millstream_buffer::StarveList::one(input),
        }
    }
}

/// What one [`Operator::step`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepOutcome {
    /// Tuples removed from input buffers.
    pub consumed: usize,
    /// Tuples appended to output buffers (data and punctuation alike).
    pub produced: usize,
    /// Extra work units beyond consumed+produced (e.g. window probes in a
    /// join); feeds the simulator's CPU cost model.
    pub work: usize,
}

impl StepOutcome {
    /// A step that consumed one tuple and produced `produced`.
    pub fn consumed_one(produced: usize) -> Self {
        StepOutcome {
            consumed: 1,
            produced,
            work: 0,
        }
    }

    /// Total work units for cost accounting.
    pub fn total_work(&self) -> usize {
        self.consumed + self.produced + self.work
    }
}

/// What a run of consecutive [`Operator::step_batch`] steps did — the
/// aggregate of the per-step [`StepOutcome`]s plus the step count, so the
/// scheduler can charge the exact per-tuple cost (`steps × step_cost_fixed
/// + per_unit × total_work`) in one clock advance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Operator steps executed in this batch.
    pub steps: usize,
    /// Tuples removed from input buffers across the batch.
    pub consumed: usize,
    /// Tuples appended to output buffers across the batch.
    pub produced: usize,
    /// Extra work units across the batch.
    pub work: usize,
}

impl BatchOutcome {
    /// Folds one step's outcome into the batch.
    pub fn record(&mut self, step: StepOutcome) {
        self.steps += 1;
        self.consumed += step.consumed;
        self.produced += step.produced;
        self.work += step.work;
    }

    /// Total work units for cost accounting (sum over the batch's steps).
    pub fn total_work(&self) -> usize {
        self.consumed + self.produced + self.work
    }

    /// The batch viewed as a single aggregate step (for activity traces).
    pub fn as_step_outcome(&self) -> StepOutcome {
        StepOutcome {
            consumed: self.consumed,
            produced: self.produced,
            work: self.work,
        }
    }
}

/// A query operator — one node of the query graph.
///
/// Implementations process **one head tuple per step** and must keep their
/// outputs ordered by timestamp. IWP operators ([`Operator::is_iwp`]) use
/// TSM registers and must propagate punctuation per Fig. 6; non-IWP
/// operators must pass punctuation through unchanged (modulo reformatting).
///
/// Operators must be [`Send`] so a whole component sub-graph can move onto
/// a worker thread (parallel execution). Operators are still driven by one
/// thread at a time — `Send`, not `Sync`, is the requirement.
pub trait Operator: Send {
    /// Human-readable operator name for plans and diagnostics.
    fn name(&self) -> &str;

    /// True for idle-waiting-prone operators (union, join).
    fn is_iwp(&self) -> bool {
        false
    }

    /// True iff the operator tolerates out-of-order input (only the
    /// order-restoring `Reorder` stage). The graph builder uses this to
    /// validate that an unordered source feeds an order-restoring consumer.
    fn accepts_disorder(&self) -> bool {
        false
    }

    /// True iff the operator's *output* is driven by stream-time progress
    /// rather than input presence alone (windowed aggregates flush when
    /// time passes a boundary). Such operators benefit from ETS punctuation
    /// even though they are single-input; the graph builder uses this
    /// (together with [`Operator::is_iwp`]) to decide which sources should
    /// answer on-demand ETS requests at all.
    fn is_time_driven(&self) -> bool {
        false
    }

    /// The operator's current TSM-register minimum τ, if it maintains TSM
    /// registers (IWP operators only). The sentinel layer uses it to check
    /// that an IWP operator never emits beyond its enabling frontier:
    /// after a producing step, every output high-water mark must be ≤ τ.
    /// Non-IWP operators (and latent-mode operators, which stamp from the
    /// clock rather than the registers) return `None`.
    fn tsm_min(&self) -> Option<Timestamp> {
        None
    }

    /// A lower bound on the timestamp of anything this operator may emit
    /// *from state it already holds* — independent of future input.
    /// `None` means the operator holds nothing back: every future emission
    /// is derived from (and stamped no earlier than) future input, which
    /// the caller bounds separately.
    ///
    /// The sharded executor folds these holds into each worker's published
    /// frontier floor: `floor = min(source frontiers, queued fronts,
    /// frontier holds)`. An operator that buffers tuples (Reorder's slack
    /// heap) or emits at a boundary behind its input (windowed aggregates
    /// stamp at the window end, which trails the tuple that closed it)
    /// MUST report that hold, or the floor overshoots and the merge stage
    /// releases output it would later have to re-order.
    fn frontier_hold(&self) -> Option<Timestamp> {
        None
    }

    /// Tuples retained in long-lived join/window state, for peak-state
    /// accounting (`ExecStats::peak_join_state`). The executor samples
    /// this after every charged batch; stateless operators report 0.
    fn state_tuples(&self) -> usize {
        0
    }

    /// Lifetime tiered-store counters (compacted runs, spilled bytes,
    /// run drops), sampled by the executor into `ExecStats`/`OpProfile`.
    /// Operators without a tiered cold store report zeros.
    fn spill_stats(&self) -> crate::join_state::SpillStats {
        crate::join_state::SpillStats::default()
    }

    /// Declared number of inputs. The graph builder checks arity.
    fn num_inputs(&self) -> usize;

    /// Declared number of outputs (0 for sinks, otherwise 1).
    fn num_outputs(&self) -> usize {
        1
    }

    /// The schema of the output stream. Sinks report their input schema.
    fn output_schema(&self) -> &Schema;

    /// Evaluates the operator's `more` condition against the current buffer
    /// state. Mutable so IWP operators can fold the current heads into
    /// their TSM registers (paper §4.1: registers update automatically as
    /// tuples are examined).
    fn poll(&mut self, ctx: &OpContext<'_>) -> Poll;

    /// Executes one production/consumption step. Only called after `poll`
    /// returned [`Poll::Ready`]; implementations may return an empty
    /// outcome if the state changed in between, but must not block.
    fn step(&mut self, ctx: &OpContext<'_>) -> Result<StepOutcome>;

    /// True iff consecutive steps of this operator may be fused into one
    /// scheduling decision without changing its output: the operator must
    /// not read [`OpContext::now`] (the clock advances between per-tuple
    /// steps, so a now-dependent operator would stamp different values)
    /// and each step must depend only on buffer and operator state.
    /// Conservative default: `false`.
    fn batch_safe(&self) -> bool {
        false
    }

    /// Executes up to `max_steps` consecutive steps as one batch — the
    /// scheduler's Encore rule applied without returning to the scheduler
    /// in between. Like [`Operator::step`], only called after `poll`
    /// returned [`Poll::Ready`], so the first step runs unconditionally.
    ///
    /// The batch must stop at every boundary where the depth-first
    /// scheduler would stop making Encore decisions:
    /// * **yield** — any output buffer became (or already was) non-empty,
    ///   which would fire the Forward rule;
    /// * **starvation** — `poll` no longer returns ready;
    /// * **the step budget** — `max_steps` reached.
    ///
    /// The default implementation loops `step`; operators override it to
    /// fuse buffer borrows across the run.
    fn step_batch(&mut self, ctx: &OpContext<'_>, max_steps: usize) -> Result<BatchOutcome> {
        let mut batch = BatchOutcome::default();
        loop {
            let outcome = self.step(ctx)?;
            batch.record(outcome);
            if batch.steps >= max_steps || ctx.yielded() || !self.poll(ctx).is_ready() {
                break;
            }
        }
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_helpers() {
        assert!(Poll::Ready.is_ready());
        let p = Poll::starved_on(2);
        assert!(!p.is_ready());
        assert_eq!(p, Poll::starved_on(2));
    }

    #[test]
    fn step_outcome_work_accounting() {
        let s = StepOutcome {
            consumed: 1,
            produced: 3,
            work: 5,
        };
        assert_eq!(s.total_work(), 9);
        assert_eq!(StepOutcome::consumed_one(2).total_work(), 3);
        assert_eq!(StepOutcome::default().total_work(), 0);
    }

    #[test]
    fn batch_outcome_aggregates_steps() {
        let mut b = BatchOutcome::default();
        b.record(StepOutcome::consumed_one(0));
        b.record(StepOutcome::consumed_one(2));
        b.record(StepOutcome {
            consumed: 1,
            produced: 0,
            work: 4,
        });
        assert_eq!(b.steps, 3);
        assert_eq!(b.consumed, 3);
        assert_eq!(b.produced, 2);
        assert_eq!(b.total_work(), 9);
        assert_eq!(
            b.as_step_outcome(),
            StepOutcome {
                consumed: 3,
                produced: 2,
                work: 4
            }
        );
    }

    /// A toy operator that consumes one tuple per step and produces output
    /// only for even-valued tuples — enough to exercise every stop
    /// condition of the default `step_batch`.
    struct EvenKeeper {
        schema: Schema,
    }

    impl Operator for EvenKeeper {
        fn name(&self) -> &str {
            "even"
        }
        fn num_inputs(&self) -> usize {
            1
        }
        fn output_schema(&self) -> &Schema {
            &self.schema
        }
        fn poll(&mut self, ctx: &OpContext<'_>) -> Poll {
            if ctx.input(0).is_empty() {
                Poll::starved_on(0)
            } else {
                Poll::Ready
            }
        }
        fn step(&mut self, ctx: &OpContext<'_>) -> Result<StepOutcome> {
            use millstream_types::Value;
            let Some(t) = ctx.input_mut(0).pop() else {
                return Ok(StepOutcome::default());
            };
            let keep = matches!(t.values(), Some([Value::Int(v)]) if v % 2 == 0);
            if keep {
                ctx.output_mut(0).push(t)?;
                Ok(StepOutcome::consumed_one(1))
            } else {
                Ok(StepOutcome::consumed_one(0))
            }
        }
    }

    fn even_rig(values: &[i64]) -> (RefCell<Buffer>, RefCell<Buffer>) {
        use millstream_types::{Tuple, Value};
        let input = RefCell::new(Buffer::new("in"));
        let output = RefCell::new(Buffer::new("out"));
        for (i, &v) in values.iter().enumerate() {
            input
                .borrow_mut()
                .push(Tuple::data(
                    Timestamp::from_micros(i as u64),
                    vec![Value::Int(v)],
                ))
                .unwrap();
        }
        (input, output)
    }

    #[test]
    fn default_step_batch_stops_at_yield() {
        use millstream_types::{DataType, Field};
        let schema = Schema::new(vec![Field::new("v", DataType::Int)]);
        let mut op = EvenKeeper { schema };
        let (input, output) = even_rig(&[1, 3, 5, 4, 7]);
        let inputs = [&input];
        let outputs = [&output];
        let ctx = OpContext::new(&inputs, &outputs, Timestamp::ZERO);
        // Three silent drops, then the produced tuple stops the batch.
        let b = op.step_batch(&ctx, 64).unwrap();
        assert_eq!(b.steps, 4);
        assert_eq!(b.consumed, 4);
        assert_eq!(b.produced, 1);
        assert_eq!(input.borrow().len(), 1, "the 7 is untouched");
    }

    #[test]
    fn default_step_batch_respects_budget_and_starvation() {
        use millstream_types::{DataType, Field};
        let schema = Schema::new(vec![Field::new("v", DataType::Int)]);
        let mut op = EvenKeeper {
            schema: schema.clone(),
        };
        let (input, output) = even_rig(&[1, 3, 5]);
        let inputs = [&input];
        let outputs = [&output];
        let ctx = OpContext::new(&inputs, &outputs, Timestamp::ZERO);
        // Budget of 2 stops mid-run.
        let b = op.step_batch(&ctx, 2).unwrap();
        assert_eq!(b.steps, 2);
        // Draining the rest stops on starvation, not the budget.
        let b = op.step_batch(&ctx, 64).unwrap();
        assert_eq!(b.steps, 1);
        assert!(input.borrow().is_empty());
        assert!(output.borrow().is_empty());
        // Budget of 1 is exactly one per-tuple step.
        let mut op1 = EvenKeeper { schema };
        let (input1, output1) = even_rig(&[2]);
        let inputs1 = [&input1];
        let outputs1 = [&output1];
        let ctx1 = OpContext::new(&inputs1, &outputs1, Timestamp::ZERO);
        let b = op1.step_batch(&ctx1, 1).unwrap();
        assert_eq!((b.steps, b.produced), (1, 1));
    }

    #[test]
    fn context_views_buffers() {
        use millstream_types::{Tuple, Value};
        let a = RefCell::new(Buffer::new("a"));
        let out = RefCell::new(Buffer::new("out"));
        let inputs = [&a];
        let outputs = [&out];
        let ctx = OpContext::new(&inputs, &outputs, Timestamp::from_micros(5));

        assert_eq!(ctx.num_inputs(), 1);
        assert_eq!(ctx.num_outputs(), 1);
        assert!(!ctx.output_nonempty());
        ctx.input_mut(0)
            .push(Tuple::data(Timestamp::ZERO, vec![Value::Int(1)]))
            .unwrap();
        assert_eq!(ctx.input(0).len(), 1);
        ctx.output_mut(0)
            .push(Tuple::punctuation(Timestamp::ZERO))
            .unwrap();
        assert!(ctx.output_nonempty());
        assert_eq!(ctx.now.as_micros(), 5);
    }
}
