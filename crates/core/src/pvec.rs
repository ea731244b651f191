//! The distance-constraint vector `p = (p_1, …, p_k)`.

use std::fmt;

/// Constraint vector of an `L(p)`-labeling problem: vertices at distance
/// `d ≤ k` must receive labels at least `p_d` apart.
///
/// The classical `L(2,1)` problem is `PVec::l21()`; `L(1,…,1)` (coloring of
/// `G^k`) is `PVec::ones(k)`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PVec {
    p: Vec<u64>,
}

impl PVec {
    /// Build from the entries `p_1..p_k`. Returns `None` if `entries` is
    /// empty or all-zero (the paper considers non-zero `p`).
    pub fn new(entries: Vec<u64>) -> Option<Self> {
        if entries.is_empty() || entries.iter().all(|&x| x == 0) {
            return None;
        }
        Some(PVec { p: entries })
    }

    /// The classic `L(2,1)` vector.
    pub fn l21() -> Self {
        PVec { p: vec![2, 1] }
    }

    /// `L(p, q)`.
    pub fn lpq(p: u64, q: u64) -> Option<Self> {
        PVec::new(vec![p, q])
    }

    /// `L(1, …, 1)` with `k` ones (coloring of `G^k`).
    pub fn ones(k: usize) -> Self {
        assert!(k >= 1);
        PVec { p: vec![1; k] }
    }

    /// Dimension `k` (the distance horizon).
    #[inline]
    pub fn k(&self) -> usize {
        self.p.len()
    }

    /// Constraint at distance `d` (1-based); 0 for `d > k` or `d == 0`.
    #[inline]
    pub fn at_distance(&self, d: u32) -> u64 {
        if d == 0 {
            return 0;
        }
        self.p.get(d as usize - 1).copied().unwrap_or(0)
    }

    /// Smallest entry.
    pub fn pmin(&self) -> u64 {
        *self.p.iter().min().unwrap()
    }

    /// Largest entry.
    pub fn pmax(&self) -> u64 {
        *self.p.iter().max().unwrap()
    }

    /// The Theorem 2 eligibility condition `p_max ≤ 2·p_min`.
    ///
    /// Together with `diam(G) ≤ k` this makes the reduced weight matrix
    /// metric (all weights in `[p_min, 2·p_min]`).
    pub fn is_smooth(&self) -> bool {
        self.pmax() <= 2 * self.pmin()
    }

    /// Raw entries.
    pub fn entries(&self) -> &[u64] {
        &self.p
    }

    /// Scale every entry by `c` (λ_{cp} = c·λ_p; used by Corollary 3 tests).
    pub fn scaled(&self, c: u64) -> Option<PVec> {
        PVec::new(self.p.iter().map(|&x| x * c).collect())
    }
}

impl fmt::Display for PVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L(")?;
        for (i, x) in self.p.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{x}")?;
        }
        write!(f, ")")
    }
}

/// Parses the comma-separated form the CLI and the server accept, e.g.
/// `2,1` (entries may carry surrounding whitespace).
impl std::str::FromStr for PVec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let entries: Result<Vec<u64>, _> = s.split(',').map(|t| t.trim().parse::<u64>()).collect();
        let entries = entries.map_err(|e| format!("bad p-vector '{s}': {e}"))?;
        PVec::new(entries)
            .ok_or_else(|| format!("bad p-vector '{s}': must be non-empty and not all-zero"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l21_basics() {
        let p = PVec::l21();
        assert_eq!(p.k(), 2);
        assert_eq!(p.at_distance(1), 2);
        assert_eq!(p.at_distance(2), 1);
        assert_eq!(p.at_distance(3), 0);
        assert_eq!(p.at_distance(0), 0);
        assert_eq!((p.pmin(), p.pmax()), (1, 2));
        assert!(p.is_smooth());
        assert_eq!(p.to_string(), "L(2,1)");
    }

    #[test]
    fn rejects_empty_and_zero() {
        assert!(PVec::new(vec![]).is_none());
        assert!(PVec::new(vec![0, 0]).is_none());
        assert!(PVec::new(vec![0, 1]).is_some());
    }

    #[test]
    fn smoothness_boundary() {
        assert!(PVec::new(vec![4, 2]).unwrap().is_smooth()); // 4 = 2*2
        assert!(!PVec::new(vec![5, 2]).unwrap().is_smooth());
        assert!(PVec::ones(3).is_smooth());
        assert!(PVec::new(vec![3, 2, 2]).unwrap().is_smooth());
    }

    #[test]
    fn parses_comma_separated_entries() {
        assert_eq!("2,1".parse(), Ok(PVec::l21()));
        assert_eq!(" 4 , 3,2 ".parse(), Ok(PVec::new(vec![4, 3, 2]).unwrap()));
        assert_eq!(
            "2,x".parse::<PVec>(),
            Err("bad p-vector '2,x': invalid digit found in string".to_string())
        );
        assert_eq!(
            "0,0".parse::<PVec>(),
            Err("bad p-vector '0,0': must be non-empty and not all-zero".to_string())
        );
    }

    #[test]
    fn scaling() {
        let p = PVec::l21().scaled(3).unwrap();
        assert_eq!(p.entries(), &[6, 3]);
    }
}
