//! Time-Stamp Memory (TSM) registers — paper §4.1.
//!
//! A TSM register is attached to each input of an idle-waiting-prone (IWP)
//! operator. It is "automatically updated with the timestamp value of the
//! current input tuple and it remains in the register until the next tuple
//! updates it". Crucially it retains its value *after the buffer drains*,
//! which is what lets the relaxed `more` condition (paper Fig. 5) process
//! simultaneous tuples without idle-waiting, and what lets a punctuation
//! tuple (whose only effect is to raise the register) unblock the operator.

use millstream_types::Timestamp;

/// Fan-in up to which a [`StarveList`] stays on the stack. Matches the
/// executor's inline port limit; wider unions spill to a heap `Vec`.
const STARVE_INLINE: usize = 8;

/// The input indices that bound an IWP operator's progress — the result of
/// [`TsmBank::argmin`] and the payload of a starved poll. Polling happens
/// on every scheduling decision, so the list stores up to
/// [`STARVE_INLINE`] indices inline and never allocates for realistic
/// fan-ins. Dereferences to `&[usize]` in construction order.
#[derive(Clone, Debug)]
pub struct StarveList(ListRepr);

#[derive(Clone, Debug)]
enum ListRepr {
    Inline {
        len: u8,
        idx: [usize; STARVE_INLINE],
    },
    Heap(Vec<usize>),
}

impl StarveList {
    /// An empty list.
    pub fn new() -> StarveList {
        StarveList(ListRepr::Inline {
            len: 0,
            idx: [0; STARVE_INLINE],
        })
    }

    /// A single-element list (the common starved-on-one-input case).
    pub fn one(input: usize) -> StarveList {
        let mut l = StarveList::new();
        l.push(input);
        l
    }

    /// Appends an input index, spilling to the heap past the inline cap.
    pub fn push(&mut self, input: usize) {
        match &mut self.0 {
            ListRepr::Inline { len, idx } => {
                if (*len as usize) < STARVE_INLINE {
                    idx[*len as usize] = input;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(STARVE_INLINE * 2);
                    v.extend_from_slice(&idx[..]);
                    v.push(input);
                    self.0 = ListRepr::Heap(v);
                }
            }
            ListRepr::Heap(v) => v.push(input),
        }
    }
}

impl Default for StarveList {
    fn default() -> Self {
        StarveList::new()
    }
}

impl std::ops::Deref for StarveList {
    type Target = [usize];

    #[inline]
    fn deref(&self) -> &[usize] {
        match &self.0 {
            ListRepr::Inline { len, idx } => &idx[..*len as usize],
            ListRepr::Heap(v) => v,
        }
    }
}

impl FromIterator<usize> for StarveList {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> StarveList {
        let mut l = StarveList::new();
        for i in iter {
            l.push(i);
        }
        l
    }
}

impl PartialEq for StarveList {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for StarveList {}

impl PartialEq<Vec<usize>> for StarveList {
    fn eq(&self, other: &Vec<usize>) -> bool {
        self[..] == other[..]
    }
}

impl<'a> IntoIterator for &'a StarveList {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A single Time-Stamp Memory register.
///
/// Starts unset; an IWP operator whose input has never delivered a tuple
/// (data or punctuation) has no lower bound for that input and must not
/// proceed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TsmRegister {
    value: Option<Timestamp>,
}

impl TsmRegister {
    /// A fresh, unset register.
    pub const fn new() -> Self {
        TsmRegister { value: None }
    }

    /// Updates the register with the timestamp of the current input tuple.
    /// Registers are monotone: stream order guarantees non-decreasing
    /// timestamps, and we keep the max defensively.
    pub fn observe(&mut self, ts: Timestamp) {
        self.value = Some(match self.value {
            Some(v) => v.max(ts),
            None => ts,
        });
    }

    /// The last observed timestamp, if any.
    pub fn get(&self) -> Option<Timestamp> {
        self.value
    }

    /// True iff the register has observed at least one tuple.
    pub fn is_set(&self) -> bool {
        self.value.is_some()
    }
}

/// The bank of TSM registers of one IWP operator — one per input.
#[derive(Debug, Clone)]
pub struct TsmBank {
    registers: Vec<TsmRegister>,
}

impl TsmBank {
    /// Creates a bank with `inputs` unset registers.
    pub fn new(inputs: usize) -> Self {
        TsmBank {
            registers: vec![TsmRegister::new(); inputs],
        }
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.registers.len()
    }

    /// True iff the bank has no registers.
    pub fn is_empty(&self) -> bool {
        self.registers.is_empty()
    }

    /// Updates register `input` with the timestamp of its current tuple.
    pub fn observe(&mut self, input: usize, ts: Timestamp) {
        self.registers[input].observe(ts);
    }

    /// Register value for `input`.
    pub fn get(&self, input: usize) -> Option<Timestamp> {
        self.registers[input].get()
    }

    /// τ — the minimal value over the input TSM registers (paper Fig. 5).
    /// `None` while any register is still unset: with no lower bound for
    /// some input, no tuple can safely be processed.
    pub fn min_tau(&self) -> Option<Timestamp> {
        let mut tau = Timestamp::MAX;
        for r in &self.registers {
            tau = tau.min(r.get()?);
        }
        Some(tau)
    }

    /// The inputs whose register currently holds the minimum τ. These are
    /// the inputs that bound progress: when they are empty, backtracking
    /// should walk toward their predecessors. Allocation-free for fan-ins
    /// up to [`STARVE_INLINE`].
    pub fn argmin(&self) -> StarveList {
        match self.min_tau() {
            None => {
                // Unset registers bound progress; report them.
                self.registers
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| !r.is_set())
                    .map(|(i, _)| i)
                    .collect()
            }
            Some(tau) => self
                .registers
                .iter()
                .enumerate()
                .filter(|(_, r)| r.get() == Some(tau))
                .map(|(i, _)| i)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: u64) -> Timestamp {
        Timestamp::from_micros(v)
    }

    #[test]
    fn register_starts_unset_and_retains_value() {
        let mut r = TsmRegister::new();
        assert!(!r.is_set());
        assert_eq!(r.get(), None);
        r.observe(ts(5));
        assert_eq!(r.get(), Some(ts(5)));
        r.observe(ts(9));
        assert_eq!(r.get(), Some(ts(9)));
    }

    #[test]
    fn register_is_monotone_even_on_regression() {
        let mut r = TsmRegister::new();
        r.observe(ts(9));
        r.observe(ts(3)); // defensive: must not go backwards
        assert_eq!(r.get(), Some(ts(9)));
    }

    #[test]
    fn bank_min_tau_requires_all_inputs_seen() {
        let mut b = TsmBank::new(2);
        assert_eq!(b.min_tau(), None);
        b.observe(0, ts(10));
        assert_eq!(b.min_tau(), None, "input 1 has no lower bound yet");
        b.observe(1, ts(4));
        assert_eq!(b.min_tau(), Some(ts(4)));
    }

    #[test]
    fn bank_argmin_identifies_bounding_inputs() {
        let mut b = TsmBank::new(3);
        // All unset: every input bounds progress.
        assert_eq!(b.argmin(), vec![0, 1, 2]);
        b.observe(0, ts(7));
        b.observe(2, ts(7));
        // Input 1 still unset: it is the bounding one.
        assert_eq!(b.argmin(), vec![1]);
        b.observe(1, ts(3));
        assert_eq!(b.min_tau(), Some(ts(3)));
        assert_eq!(b.argmin(), vec![1]);
        b.observe(1, ts(7));
        // Tie: all three registers hold 7.
        assert_eq!(b.argmin(), vec![0, 1, 2]);
    }

    #[test]
    fn punctuation_unblocks_via_register() {
        // The scenario of paper §4: input B idle, a punctuation raises its
        // register above the pending A tuple, making τ equal A's head.
        let mut b = TsmBank::new(2);
        b.observe(0, ts(100)); // head of A
        b.observe(1, ts(250)); // ETS punctuation on B
        assert_eq!(b.min_tau(), Some(ts(100)));
        assert_eq!(b.argmin(), vec![0]);
    }
}
