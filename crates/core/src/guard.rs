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

#[cfg(test)]
mod tests {
    use super::*;

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
