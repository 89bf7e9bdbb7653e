//! Union (∪) — the paper's canonical idle-waiting-prone operator.
//!
//! Union is "a sort-merge operation that combines its input data streams
//! into a single output stream where tuples are ordered by their timestamp
//! values" (paper §1). This implementation follows the *revised* rules of
//! Fig. 6:
//!
//! * each input has a TSM register updated with the timestamp of its
//!   current head tuple (data or punctuation);
//! * the **relaxed `more` condition** (Fig. 5) holds iff some input holds a
//!   tuple whose timestamp equals τ, the minimum over the TSM registers;
//! * one step delivers one τ-tuple to the output — punctuation included,
//!   since downstream IWP operators need the ETS too.
//!
//! When constructed in **latent mode** ([`Union::latent`]) the operator
//! implements §5's latent-timestamp discipline: tuples are forwarded the
//! moment they arrive and are timestamped on the fly, so idle-waiting is
//! impossible. This is experimental line **D**, the latency lower bound.

use millstream_buffer::TsmBank;
use millstream_types::{Result, Schema, Timestamp};

use crate::context::{BatchOutcome, OpContext, Operator, Poll, StepOutcome};

/// The n-ary merging union operator.
pub struct Union {
    name: String,
    schema: Schema,
    inputs: usize,
    tsm: TsmBank,
    /// Latent-timestamp mode: forward immediately, no ordering checks.
    latent: bool,
    /// Round-robin pointer for fairness in latent mode and among ties.
    next_input: usize,
    /// Highest timestamp emitted (used to monotonize latent stamps and to
    /// suppress duplicate punctuation).
    emitted_high_water: Option<Timestamp>,
    forwarded_data: u64,
    suppressed_punct: u64,
}

impl Union {
    /// Creates an n-ary ordered (timestamp-merging) union.
    pub fn new(name: impl Into<String>, schema: Schema, inputs: usize) -> Self {
        assert!(inputs >= 2, "union needs at least two inputs");
        Union {
            name: name.into(),
            schema,
            inputs,
            tsm: TsmBank::new(inputs),
            latent: false,
            next_input: 0,
            emitted_high_water: None,
            forwarded_data: 0,
            suppressed_punct: 0,
        }
    }

    /// Creates a latent-timestamp union (paper §5, experiment line D):
    /// tuples are forwarded as soon as they arrive and stamped with the
    /// current clock on the way out.
    pub fn latent(name: impl Into<String>, schema: Schema, inputs: usize) -> Self {
        let mut u = Union::new(name, schema, inputs);
        u.latent = true;
        u
    }

    /// Number of data tuples forwarded.
    pub fn forwarded_data(&self) -> u64 {
        self.forwarded_data
    }

    /// Number of punctuation tuples consumed without forwarding (their ETS
    /// did not advance the output high-water mark).
    pub fn suppressed_punctuation(&self) -> u64 {
        self.suppressed_punct
    }

    /// Current τ (minimum over TSM registers), if all inputs were seen.
    pub fn tau(&self) -> Option<Timestamp> {
        self.tsm.min_tau()
    }

    /// Folds current head timestamps into the TSM bank.
    fn observe_heads(&mut self, ctx: &OpContext<'_>) {
        for i in 0..self.inputs {
            if let Some(ts) = ctx.input(i).front_ts() {
                self.tsm.observe(i, ts);
            }
        }
    }

    /// Picks the input to consume from: among inputs whose head carries τ,
    /// prefer data tuples (lower latency than forwarding punctuation
    /// first), then rotate for fairness.
    fn pick_tau_input(&self, ctx: &OpContext<'_>, tau: Timestamp) -> Option<usize> {
        let mut punct_candidate = None;
        for k in 0..self.inputs {
            let i = (self.next_input + k) % self.inputs;
            let input = ctx.input(i);
            if let Some(head) = input.front() {
                if head.ts == tau {
                    if head.is_data() {
                        return Some(i);
                    }
                    punct_candidate.get_or_insert(i);
                }
            }
        }
        punct_candidate
    }
}

impl Operator for Union {
    fn name(&self) -> &str {
        &self.name
    }

    fn is_iwp(&self) -> bool {
        // In latent mode idle-waiting is impossible by construction.
        !self.latent
    }

    fn tsm_min(&self) -> Option<Timestamp> {
        if self.latent {
            // Latent mode stamps from the clock, unconstrained by registers.
            None
        } else {
            self.tau()
        }
    }

    fn num_inputs(&self) -> usize {
        self.inputs
    }

    fn output_schema(&self) -> &Schema {
        &self.schema
    }

    fn poll(&mut self, ctx: &OpContext<'_>) -> Poll {
        if self.latent {
            // Any queued tuple is processable immediately.
            return if (0..self.inputs).any(|i| !ctx.input(i).is_empty()) {
                Poll::Ready
            } else {
                Poll::Starved {
                    starving: (0..self.inputs).collect(),
                }
            };
        }
        self.observe_heads(ctx);
        match self.tsm.min_tau() {
            None => Poll::Starved {
                starving: self.tsm.argmin(),
            },
            Some(tau) => {
                let witnessed = (0..self.inputs).any(|i| ctx.input(i).front_ts() == Some(tau));
                if witnessed {
                    Poll::Ready
                } else {
                    // τ's inputs are necessarily empty (a non-empty input's
                    // register equals its head timestamp).
                    Poll::Starved {
                        starving: self.tsm.argmin(),
                    }
                }
            }
        }
    }

    fn step(&mut self, ctx: &OpContext<'_>) -> Result<StepOutcome> {
        if self.latent {
            // Forward the first available tuple, stamping it now.
            for k in 0..self.inputs {
                let i = (self.next_input + k) % self.inputs;
                let popped = ctx.input_mut(i).pop();
                if let Some(mut tuple) = popped {
                    self.next_input = (i + 1) % self.inputs;
                    if tuple.is_punctuation() {
                        // Latent streams carry no timestamps; punctuation is
                        // meaningless and simply discarded.
                        self.suppressed_punct += 1;
                        return Ok(StepOutcome::consumed_one(0));
                    }
                    // Timestamp on the fly, monotonized.
                    let stamped = match self.emitted_high_water {
                        Some(hw) => ctx.now.max(hw),
                        None => ctx.now,
                    };
                    tuple.ts = stamped;
                    self.emitted_high_water = Some(stamped);
                    self.forwarded_data += 1;
                    ctx.output_mut(0).push(tuple)?;
                    return Ok(StepOutcome::consumed_one(1));
                }
            }
            return Ok(StepOutcome::default());
        }

        self.observe_heads(ctx);
        let Some(tau) = self.tsm.min_tau() else {
            return Ok(StepOutcome::default());
        };
        let Some(i) = self.pick_tau_input(ctx, tau) else {
            return Ok(StepOutcome::default());
        };
        let tuple = ctx.input_mut(i).pop().expect("head checked by pick");
        self.next_input = (i + 1) % self.inputs;

        if tuple.is_punctuation() {
            // Forward the ETS only if it advances the output's high-water
            // mark: a second punctuation at the same τ (e.g. one per input)
            // adds no information downstream.
            if self.emitted_high_water.is_some_and(|hw| tuple.ts <= hw) {
                self.suppressed_punct += 1;
                return Ok(StepOutcome::consumed_one(0));
            }
            self.emitted_high_water = Some(tuple.ts);
            ctx.output_mut(0).push(tuple)?;
            return Ok(StepOutcome::consumed_one(1));
        }

        self.emitted_high_water = Some(
            self.emitted_high_water
                .map_or(tuple.ts, |hw| hw.max(tuple.ts)),
        );
        self.forwarded_data += 1;
        ctx.output_mut(0).push(tuple)?;
        Ok(StepOutcome::consumed_one(1))
    }

    fn batch_safe(&self) -> bool {
        // The merging union reads only buffer heads and TSM registers. The
        // latent union stamps `ctx.now` onto every tuple — fusing its steps
        // would collapse distinct stamps into one, so it must stay on the
        // per-tuple path.
        !self.latent
    }

    /// The merging union's Encore run: suppressed duplicate punctuation
    /// consumes input without producing output, so a run of duplicates
    /// (e.g. one heartbeat per input at the same τ) fuses into one
    /// scheduling decision. Folding the poll's TSM observation into the
    /// step loop also halves the head scans of the default path.
    fn step_batch(&mut self, ctx: &OpContext<'_>, max_steps: usize) -> Result<BatchOutcome> {
        let mut batch = BatchOutcome::default();
        if self.latent {
            // Not batch-safe; behave exactly like one per-tuple step.
            batch.record(self.step(ctx)?);
            return Ok(batch);
        }
        loop {
            self.observe_heads(ctx);
            let picked = self
                .tsm
                .min_tau()
                .and_then(|tau| self.pick_tau_input(ctx, tau));
            let Some(i) = picked else {
                // Mirrors `step`'s defensive empty outcome when poll and
                // step observe different states.
                if batch.steps == 0 {
                    batch.record(StepOutcome::default());
                }
                break;
            };
            let tuple = ctx.input_mut(i).pop().expect("head checked by pick");
            self.next_input = (i + 1) % self.inputs;

            if tuple.is_punctuation() {
                if self.emitted_high_water.is_some_and(|hw| tuple.ts <= hw) {
                    self.suppressed_punct += 1;
                    batch.record(StepOutcome::consumed_one(0));
                    if batch.steps >= max_steps || ctx.yielded() {
                        break;
                    }
                    continue; // silent consumption: Encore again
                }
                self.emitted_high_water = Some(tuple.ts);
            } else {
                self.emitted_high_water = Some(
                    self.emitted_high_water
                        .map_or(tuple.ts, |hw| hw.max(tuple.ts)),
                );
                self.forwarded_data += 1;
            }
            ctx.output_mut(0).push(tuple)?;
            batch.record(StepOutcome::consumed_one(1));
            break; // yield
        }
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use millstream_buffer::Buffer;
    use millstream_types::{DataType, Field, Tuple, Value};
    use std::cell::RefCell;

    fn schema() -> Schema {
        Schema::new(vec![Field::new("v", DataType::Int)])
    }

    fn data(ts: u64, v: i64) -> Tuple {
        Tuple::data(Timestamp::from_micros(ts), vec![Value::Int(v)])
    }

    fn punct(ts: u64) -> Tuple {
        Tuple::punctuation(Timestamp::from_micros(ts))
    }

    struct Rig {
        a: RefCell<Buffer>,
        b: RefCell<Buffer>,
        out: RefCell<Buffer>,
    }

    impl Rig {
        fn new() -> Self {
            Rig {
                a: RefCell::new(Buffer::new("a")),
                b: RefCell::new(Buffer::new("b")),
                out: RefCell::new(Buffer::new("out")),
            }
        }

        fn drain(&self, u: &mut Union, now: u64) -> Vec<Tuple> {
            let inputs = [&self.a, &self.b];
            let outputs = [&self.out];
            let ctx = OpContext::new(&inputs, &outputs, Timestamp::from_micros(now));
            while u.poll(&ctx).is_ready() {
                u.step(&ctx).unwrap();
            }
            let mut got = vec![];
            while let Some(t) = self.out.borrow_mut().pop() {
                got.push(t);
            }
            got
        }

        fn poll(&self, u: &mut Union) -> Poll {
            let inputs = [&self.a, &self.b];
            let outputs = [&self.out];
            let ctx = OpContext::new(&inputs, &outputs, Timestamp::ZERO);
            u.poll(&ctx)
        }
    }

    #[test]
    fn merges_by_timestamp() {
        let rig = Rig::new();
        let mut u = Union::new("∪", schema(), 2);
        for t in [data(1, 10), data(4, 11), data(6, 12)] {
            rig.a.borrow_mut().push(t).unwrap();
        }
        for t in [data(2, 20), data(3, 21), data(7, 22)] {
            rig.b.borrow_mut().push(t).unwrap();
        }
        let out = rig.drain(&mut u, 100);
        // Can emit everything except ts=6 and ts=7: after consuming ts 4
        // from A, A's head is 6 and B's head is 7 — min register is 6 on A
        // and A holds it, emit 6; then B head 7, A empty with register 6,
        // starve. So 1,2,3,4,6 emitted.
        let ts: Vec<u64> = out.iter().map(|t| t.ts.as_micros()).collect();
        assert_eq!(ts, vec![1, 2, 3, 4, 6]);
        assert_eq!(u.forwarded_data(), 5);
        // Starved on A (register 6 < B head 7).
        assert_eq!(rig.poll(&mut u), Poll::starved_on(0));
    }

    #[test]
    fn idle_waits_until_both_inputs_known() {
        let rig = Rig::new();
        let mut u = Union::new("∪", schema(), 2);
        rig.a.borrow_mut().push(data(5, 1)).unwrap();
        // B never seen: cannot emit A's tuple.
        assert_eq!(rig.poll(&mut u), Poll::starved_on(1));
        assert!(rig.drain(&mut u, 100).is_empty());
    }

    #[test]
    fn punctuation_unblocks_and_is_forwarded() {
        let rig = Rig::new();
        let mut u = Union::new("∪", schema(), 2);
        rig.a.borrow_mut().push(data(5, 1)).unwrap();
        rig.b.borrow_mut().push(punct(9)).unwrap();
        let out = rig.drain(&mut u, 100);
        // The ETS at 9 on B makes τ = 5, unblocking A's data tuple. The
        // punctuation itself stays queued: A (register 5) may still send
        // tuples with timestamps in [5, 9).
        assert_eq!(out.len(), 1);
        assert!(out[0].is_data());
        assert_eq!(out[0].ts.as_micros(), 5);
        // Once A also reaches 9, the ETS is forwarded downstream.
        rig.a.borrow_mut().push(punct(9)).unwrap();
        let out = rig.drain(&mut u, 100);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_punctuation());
        assert_eq!(out[0].ts.as_micros(), 9);
    }

    #[test]
    fn simultaneous_tuples_all_flow() {
        // The §4.1 scenario: both inputs hold tuples with the same
        // timestamp; naive Fig. 1 rules would strand one side.
        let rig = Rig::new();
        let mut u = Union::new("∪", schema(), 2);
        rig.a.borrow_mut().push(data(5, 1)).unwrap();
        rig.a.borrow_mut().push(data(5, 2)).unwrap();
        rig.b.borrow_mut().push(data(5, 3)).unwrap();
        let out = rig.drain(&mut u, 100);
        assert_eq!(out.len(), 3, "all simultaneous tuples emitted");
        assert!(out.iter().all(|t| t.ts.as_micros() == 5));

        // Late-arriving simultaneous tuple also flows: registers retain 5.
        rig.b.borrow_mut().push(data(5, 4)).unwrap();
        let out = rig.drain(&mut u, 100);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values().unwrap()[0], Value::Int(4));
    }

    #[test]
    fn duplicate_punctuation_is_suppressed() {
        let rig = Rig::new();
        let mut u = Union::new("∪", schema(), 2);
        rig.a.borrow_mut().push(punct(7)).unwrap();
        rig.b.borrow_mut().push(punct(7)).unwrap();
        let out = rig.drain(&mut u, 100);
        assert_eq!(out.len(), 1, "second ETS at same τ adds nothing");
        assert_eq!(u.suppressed_punctuation(), 1);
    }

    #[test]
    fn output_is_timestamp_ordered() {
        let rig = Rig::new();
        let mut u = Union::new("∪", schema(), 2);
        for i in 0..20u64 {
            rig.a.borrow_mut().push(data(i * 3, i as i64)).unwrap();
            rig.b
                .borrow_mut()
                .push(data(i * 5, 100 + i as i64))
                .unwrap();
        }
        let out = rig.drain(&mut u, 1_000);
        let ts: Vec<u64> = out.iter().map(|t| t.ts.as_micros()).collect();
        let mut sorted = ts.clone();
        sorted.sort();
        assert_eq!(ts, sorted);
    }

    #[test]
    fn latent_mode_forwards_immediately() {
        let rig = Rig::new();
        let mut u = Union::latent("∪", schema(), 2);
        assert!(!u.is_iwp());
        rig.a.borrow_mut().push(data(50, 1)).unwrap();
        // B empty — a timestamp-merging union would starve; latent forwards.
        let out = rig.drain(&mut u, 200);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ts.as_micros(), 200, "stamped with the clock");
    }

    #[test]
    fn latent_mode_monotonizes_stamps() {
        let rig = Rig::new();
        let mut u = Union::latent("∪", schema(), 2);
        rig.a.borrow_mut().push(data(1, 1)).unwrap();
        let first = rig.drain(&mut u, 300);
        assert_eq!(first[0].ts.as_micros(), 300);
        rig.a.borrow_mut().push(data(2, 2)).unwrap();
        // Clock regressed (should not happen, but must not panic/unorder).
        let second = rig.drain(&mut u, 100);
        assert_eq!(second[0].ts.as_micros(), 300, "clamped to high water");
    }

    #[test]
    fn latent_mode_discards_punctuation() {
        let rig = Rig::new();
        let mut u = Union::latent("∪", schema(), 2);
        rig.b.borrow_mut().push(punct(5)).unwrap();
        let out = rig.drain(&mut u, 10);
        assert!(out.is_empty());
        assert_eq!(u.suppressed_punctuation(), 1);
    }

    #[test]
    #[should_panic(expected = "at least two inputs")]
    fn rejects_unary_union() {
        let _ = Union::new("∪", schema(), 1);
    }

    #[test]
    fn step_batch_fuses_suppressed_punctuation_runs() {
        let rig = Rig::new();
        let mut u = Union::new("∪", schema(), 2);
        assert!(u.batch_safe());
        // Both inputs carry an ETS at τ = 7; one input also holds a
        // simultaneous data tuple behind its ETS.
        rig.a.borrow_mut().push(punct(7)).unwrap();
        rig.b.borrow_mut().push(punct(7)).unwrap();
        rig.b.borrow_mut().push(data(7, 1)).unwrap();
        let inputs = [&rig.a, &rig.b];
        let outputs = [&rig.out];
        let ctx = OpContext::new(&inputs, &outputs, Timestamp::ZERO);
        // First batch forwards the first ETS and stops at yield.
        let b = u.step_batch(&ctx, 64).unwrap();
        assert_eq!((b.steps, b.produced), (1, 1));
        assert!(rig.out.borrow().front().unwrap().is_punctuation());
        rig.out.borrow_mut().clear();
        // Second batch: the duplicate ETS is consumed silently (Encore),
        // then the simultaneous data tuple produces and ends the batch.
        let b = u.step_batch(&ctx, 64).unwrap();
        assert_eq!((b.steps, b.consumed, b.produced), (2, 2, 1));
        assert_eq!(u.suppressed_punctuation(), 1);
        let out = rig.out.borrow_mut().pop().unwrap();
        assert!(out.is_data());
        assert_eq!(out.ts.as_micros(), 7);
    }

    #[test]
    fn latent_union_is_not_batch_safe() {
        let rig = Rig::new();
        let mut u = Union::latent("∪", schema(), 2);
        assert!(!u.batch_safe());
        rig.a.borrow_mut().push(data(1, 1)).unwrap();
        rig.a.borrow_mut().push(data(2, 2)).unwrap();
        let inputs = [&rig.a, &rig.b];
        let outputs = [&rig.out];
        let ctx = OpContext::new(&inputs, &outputs, Timestamp::from_micros(100));
        // Even if asked for a batch, the latent union takes one step so
        // each tuple gets its own clock stamp.
        let b = u.step_batch(&ctx, 64).unwrap();
        assert_eq!(b.steps, 1);
        assert_eq!(rig.a.borrow().len(), 1);
    }
}
