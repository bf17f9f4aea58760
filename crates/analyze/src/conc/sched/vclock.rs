//! Vector clocks for the schedule explorer.
//!
//! Two *separate* clock systems are layered over each execution (see
//! `DESIGN.md` §10.2): the happens-before clocks of the race detector,
//! which join only on real synchronization edges (mutex release →
//! acquire, atomic store → load, notify → resume, unpark → park), and
//! the DPOR clocks, which join on every *dependent* operation pair and
//! exist only to decide which earlier step a new step could have been
//! reordered with. Conflating the two either misses races (HB too
//! coarse) or prunes unsoundly (DPOR too coarse), so both use this one
//! `VClock` type but are updated by disjoint code paths.

/// A fixed-width vector clock over the scenario's thread ids.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VClock(Vec<u64>);

impl VClock {
    /// The zero clock for `n` threads.
    pub fn new(n: usize) -> Self {
        VClock(vec![0; n])
    }

    /// Component for thread `tid`.
    pub fn get(&self, tid: usize) -> u64 {
        self.0[tid]
    }

    /// Advances `tid`'s own component by one local step.
    pub fn tick(&mut self, tid: usize) {
        self.0[tid] += 1;
    }

    /// Componentwise maximum: `self := self ⊔ other`.
    pub fn join(&mut self, other: &VClock) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// Pointwise `self ≤ other` — i.e. everything `self` has seen,
    /// `other` has seen too (the happens-before test).
    pub fn le(&self, other: &VClock) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }
}

impl std::fmt::Display for VClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_is_componentwise_max_and_le_is_pointwise() {
        let mut a = VClock::new(3);
        a.tick(0);
        a.tick(0);
        let mut b = VClock::new(3);
        b.tick(1);
        assert!(!a.le(&b));
        assert!(!b.le(&a));
        let mut j = a.clone();
        j.join(&b);
        assert!(a.le(&j));
        assert!(b.le(&j));
        assert_eq!(j.get(0), 2);
        assert_eq!(j.get(1), 1);
        assert_eq!(j.get(2), 0);
    }

    #[test]
    fn concurrent_clocks_are_unordered() {
        let mut a = VClock::new(2);
        let mut b = VClock::new(2);
        a.tick(0);
        b.tick(1);
        assert!(!a.le(&b) && !b.le(&a), "neither dominates: {a} vs {b}");
    }
}
