//! The per-lane delivery check. Every flood payload carries the
//! sequence number of its lane (sender → receiver); the receiver checks
//! it at delivery. A gap is a loss, a repeat a duplicate, a step back a
//! FIFO reordering — the §4 guarantees, checked in O(1) per message.

#[derive(Debug, Clone)]
pub struct LaneChecker {
    next: Vec<u64>,
    violations: u64,
}

impl LaneChecker {
    pub fn new(lanes: usize) -> LaneChecker {
        LaneChecker {
            next: vec![0; lanes],
            violations: 0,
        }
    }

    /// Check one delivery; returns whether it was the expected message.
    /// After a violation the lane resynchronises on what arrived, so one
    /// fault counts once.
    pub fn check(&mut self, lane: usize, seq: u64) -> bool {
        let ok = self.next[lane] == seq;
        if !ok {
            self.violations += 1;
        }
        self.next[lane] = seq + 1;
        ok
    }

    /// Check that `lane` delivered exactly `sent` messages in total.
    pub fn check_complete(&mut self, lane: usize, sent: u64) -> bool {
        let ok = self.next[lane] == sent;
        if !ok {
            self.violations += 1;
        }
        ok
    }

    pub fn violations(&self) -> u64 {
        self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seqs: &[u64], sent: u64) -> u64 {
        let mut c = LaneChecker::new(2);
        for &s in seqs {
            c.check(1, s);
        }
        c.check_complete(1, sent);
        c.violations()
    }

    #[test]
    fn clean_lane_passes() {
        assert_eq!(run(&[0, 1, 2, 3], 4), 0);
    }

    #[test]
    fn catches_a_drop() {
        assert!(run(&[0, 1, 3], 4) > 0);
        // A lost tail message shows only in the completeness check.
        assert_eq!(run(&[0, 1, 2], 4), 1);
    }

    #[test]
    fn catches_a_duplicate() {
        assert!(run(&[0, 1, 1, 2, 3], 4) > 0);
    }

    #[test]
    fn catches_a_swap() {
        assert!(run(&[0, 2, 1, 3], 4) > 0);
    }
}
