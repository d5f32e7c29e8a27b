//! Branch prediction: gshare direction predictor, BTB for indirect
//! targets, and a return-address stack.

/// A gshare direction predictor (global history XOR pc indexing a table of
/// 2-bit saturating counters).
#[derive(Clone)]
pub struct Gshare {
    table: Vec<u8>,
    mask: u64,
    ghr: u64,
}

impl Gshare {
    /// Creates a predictor with `2^bits` counters, initialised weakly
    /// taken.
    pub fn new(bits: u32) -> Gshare {
        Gshare {
            table: vec![2u8; 1 << bits],
            mask: (1 << bits) - 1,
            ghr: 0,
        }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.ghr) & self.mask) as usize
    }

    /// Predicts the direction of the branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        self.table[self.index(pc)] >= 2
    }

    /// Trains the predictor with the resolved direction and shifts it into
    /// the global history.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        let c = &mut self.table[i];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.ghr = (self.ghr << 1) | u64::from(taken);
    }
}

/// A path-history-indexed branch target buffer for indirect branches
/// (an ITTAGE-lite: indexing by recent branch targets lets repeated
/// control-flow patterns — interpreter dispatch loops — predict correctly
/// even when one site jumps to many targets).
#[derive(Clone)]
pub struct Btb {
    entries: Vec<(u64, u64)>, // (pc tag, target)
    mask: u64,
    path: u64,
}

impl Btb {
    /// Creates a BTB with `entries` slots (rounded up to a power of two).
    pub fn new(entries: u32) -> Btb {
        let n = entries.next_power_of_two() as usize;
        Btb {
            entries: vec![(u64::MAX, 0); n],
            mask: n as u64 - 1,
            path: 0,
        }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.path) & self.mask) as usize
    }

    /// The predicted target for the indirect branch at `pc`, if any.
    pub fn predict(&self, pc: u64) -> Option<u64> {
        let (tag, target) = self.entries[self.index(pc)];
        (tag == pc).then_some(target)
    }

    /// Records the resolved target.
    pub fn update(&mut self, pc: u64, target: u64) {
        let i = self.index(pc);
        self.entries[i] = (pc, target);
    }

    /// Folds a taken-branch target into the path history (call on every
    /// taken branch, conditional or not).
    pub fn note_path(&mut self, target: u64) {
        self.path = (self.path << 3) ^ ((target >> 2) & 0xFFFF);
    }
}

/// A fixed-depth return-address stack.
#[derive(Clone)]
pub struct ReturnStack {
    stack: Vec<u64>,
    depth: usize,
}

impl ReturnStack {
    /// Creates a RAS of the given depth.
    pub fn new(depth: u32) -> ReturnStack {
        ReturnStack {
            stack: Vec::with_capacity(depth as usize),
            depth: depth as usize,
        }
    }

    /// Pushes a return address at a call. Overflow discards the oldest
    /// entry (the hardware behaviour that makes deep recursion mispredict).
    /// A depth-0 stack keeps nothing, so it never predicts a return.
    pub fn push(&mut self, ret: u64) {
        if self.depth == 0 {
            return;
        }
        if self.stack.len() == self.depth {
            self.stack.remove(0);
        }
        self.stack.push(ret);
    }

    /// Pops the predicted return target.
    pub fn pop(&mut self) -> Option<u64> {
        self.stack.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_depth_return_stack_never_predicts() {
        let mut ras = ReturnStack::new(0);
        ras.push(0x1004);
        ras.push(0x2008);
        assert_eq!(ras.pop(), None);
        let mut ras = ReturnStack::new(1);
        ras.push(0x1004);
        ras.push(0x2008);
        assert_eq!(ras.pop(), Some(0x2008), "overflow keeps the newest");
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn gshare_learns_a_loop() {
        let mut g = Gshare::new(10);
        let pc = 0x1000;
        // Train a heavily taken branch.
        for _ in 0..16 {
            g.update(pc, true);
        }
        assert!(g.predict(pc));
        for _ in 0..16 {
            g.update(pc, false);
        }
        assert!(!g.predict(pc));
    }

    #[test]
    fn gshare_history_disambiguates_patterns() {
        let mut g = Gshare::new(12);
        let pc = 0x2000;
        // Alternating T/N: after warmup the history bit should make it
        // near-perfect.
        let mut mispredicts = 0;
        let mut taken = false;
        for i in 0..400 {
            taken = !taken;
            if i >= 200 && g.predict(pc) != taken {
                mispredicts += 1;
            }
            g.update(pc, taken);
        }
        assert!(
            mispredicts < 20,
            "alternating pattern should be learnable, got {mispredicts}"
        );
    }

    #[test]
    fn btb_predicts_stable_targets() {
        let mut b = Btb::new(64);
        assert_eq!(b.predict(0x100), None);
        b.update(0x100, 0x9000);
        assert_eq!(b.predict(0x100), Some(0x9000));
        b.update(0x100, 0x9100);
        assert_eq!(b.predict(0x100), Some(0x9100));
    }

    #[test]
    fn ras_matches_calls_and_returns() {
        let mut r = ReturnStack::new(4);
        r.push(0x10);
        r.push(0x20);
        assert_eq!(r.pop(), Some(0x20));
        assert_eq!(r.pop(), Some(0x10));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn ras_overflow_loses_oldest() {
        let mut r = ReturnStack::new(2);
        r.push(1);
        r.push(2);
        r.push(3); // evicts 1
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), None);
    }
}
