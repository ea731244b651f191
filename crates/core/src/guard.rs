//! The single size/budget guard path shared by the route layer
//! ([`crate::routes`]) and the `dclab-engine` dispatcher.
//!
//! Every route with super-polynomial worst case funnels through here, so
//! there is exactly one place where "too big for exact" is decided and one
//! error type describing it.

/// Maximum `n` accepted by the Held–Karp exact route (`O(2^n·n)` memory).
pub const EXACT_MAX_N: usize = 24;

/// Maximum chained-LK restarts one request may ask for (the default is 4).
/// The multi-start heuristic allocates a result slot per restart before
/// running any.
pub const MAX_RESTARTS: usize = 256;

/// Every span must stay below this bound: 2⁵³, past which a JSON double
/// no longer holds every integer. A request is refused when `2·n·p_max`
/// reaches it, since no route's span exceeds that product: first-fit labels
/// stay below `2·(n − 1)·p_max`, Claim 1 prefix sums below
/// `(n − 1)·p_max`, and `p_max`-scaled colorings below `n·p_max`.
pub const LABEL_RANGE: u64 = 1 << 53;

/// Default branch-and-bound node budget used when a caller does not supply
/// one (e.g. `Strategy::Auto`): large enough to close benign diameter-2
/// instances well past [`EXACT_MAX_N`], small enough to fail fast on
/// adversarial ones.
pub const DEFAULT_NODE_BUDGET: u64 = 20_000_000;

/// Why a guarded route refused to run (the one error type for all guards).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GuardError {
    /// Held–Karp requested beyond [`EXACT_MAX_N`].
    TooLargeForExact {
        /// Requested instance size.
        n: usize,
        /// The guard's maximum.
        max: usize,
    },
    /// Branch and bound exhausted its node budget without proving
    /// optimality.
    BudgetExhausted {
        /// The node budget that ran out.
        node_budget: u64,
    },
    /// More chained-LK restarts requested than [`MAX_RESTARTS`].
    TooManyRestarts {
        /// Requested restarts.
        restarts: usize,
        /// The guard's maximum.
        max: usize,
    },
    /// `2·n·p_max` reaches [`LABEL_RANGE`].
    LabelRange {
        /// Instance size.
        n: usize,
        /// Largest entry of `p`.
        pmax: u64,
    },
    /// The Held–Karp path sums, up to `(n − 1)·w_max`, would reach the
    /// `u32::MAX` its DP stores as "unreached".
    ExactRange {
        /// Instance size.
        n: usize,
        /// Largest weight of the reduced instance.
        max_weight: u64,
    },
}

impl std::fmt::Display for GuardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardError::TooLargeForExact { n, max } => {
                write!(f, "n = {n} exceeds the exact-solver guard ({max})")
            }
            GuardError::BudgetExhausted { node_budget } => {
                write!(f, "branch-and-bound node budget ({node_budget}) exhausted")
            }
            GuardError::TooManyRestarts { restarts, max } => {
                write!(f, "restarts = {restarts} exceeds the restart guard ({max})")
            }
            GuardError::LabelRange { n, pmax } => write!(
                f,
                "n = {n} and p_max = {pmax} exceed the label-range guard (2·n·p_max < 2^53)"
            ),
            GuardError::ExactRange { n, max_weight } => write!(
                f,
                "n = {n} and weights up to {max_weight} exceed the exact solver's range \
                 ((n − 1)·w_max < 2^32 − 1)"
            ),
        }
    }
}

impl std::error::Error for GuardError {}

/// Check `n` against the Held–Karp guard.
pub fn check_exact_size(n: usize) -> Result<(), GuardError> {
    if n > EXACT_MAX_N {
        Err(GuardError::TooLargeForExact {
            n,
            max: EXACT_MAX_N,
        })
    } else {
        Ok(())
    }
}

/// Check a requested restart count against [`MAX_RESTARTS`].
pub fn check_restarts(restarts: usize) -> Result<(), GuardError> {
    let max = MAX_RESTARTS;
    if restarts > max {
        return Err(GuardError::TooManyRestarts { restarts, max });
    }
    Ok(())
}

/// Check a request against [`LABEL_RANGE`]: `2·n·p_max` must stay below it.
pub fn check_label_range(n: usize, pmax: u64) -> Result<(), GuardError> {
    if n as u128 * pmax as u128 >= (LABEL_RANGE / 2) as u128 {
        return Err(GuardError::LabelRange { n, pmax });
    }
    Ok(())
}

/// Check that the Held–Karp DP's `u32` path sums hold every Hamiltonian
/// path of an `n`-city instance whose heaviest edge is `max_weight`.
pub fn check_exact_range(n: usize, max_weight: u64) -> Result<(), GuardError> {
    if n.saturating_sub(1) as u128 * max_weight as u128 >= u32::MAX as u128 {
        return Err(GuardError::ExactRange { n, max_weight });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_guard_boundaries() {
        // 2·n·p_max < 2^53, with no overflow at p = u64::MAX.
        assert!(check_label_range(8, (1 << 49) - 1).is_ok());
        assert_eq!(
            check_label_range(8, 1 << 49),
            Err(GuardError::LabelRange {
                n: 8,
                pmax: 1 << 49
            })
        );
        assert!(check_label_range(usize::MAX, u64::MAX).is_err());
        assert!(check_label_range(0, u64::MAX).is_ok());
        // (n − 1)·w_max < u32::MAX: on K_6, 858 993 459 sums to exactly
        // u32::MAX, the DP's "unreached" sentinel.
        assert!(check_exact_range(6, 858_993_458).is_ok());
        assert!(check_exact_range(6, 858_993_459).is_err());
        assert!(check_exact_range(1, u64::MAX).is_ok());
    }

    #[test]
    fn guard_boundary() {
        assert!(check_exact_size(EXACT_MAX_N).is_ok());
        assert_eq!(
            check_exact_size(EXACT_MAX_N + 1),
            Err(GuardError::TooLargeForExact {
                n: EXACT_MAX_N + 1,
                max: EXACT_MAX_N
            })
        );
    }
}
