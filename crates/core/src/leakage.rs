//! Scheme-level leakage profiles.
//!
//! The paper ranks its constructions by security (Table 1, "Security"
//! column) according to *what the formulated leakage functions reveal beyond
//! plain SSE*. This module captures that ranking as data so that both
//! documentation and tests can reason about it, and provides helpers for the
//! observable quantities an honest-but-curious server actually sees in this
//! implementation (token counts, result partitioning).

use crate::schemes::SchemeKind;

/// The qualitative security level of a scheme — higher is better, matching
/// the ordering of Table 1 in the paper (0 = weakest, 6 = strongest within
/// the framework).
pub fn security_level(kind: SchemeKind) -> u8 {
    match kind {
        SchemeKind::Pb => 0,
        SchemeKind::ConstantBrc => 1,
        SchemeKind::ConstantUrc => 2,
        SchemeKind::LogarithmicBrc => 3,
        SchemeKind::LogarithmicUrc => 4,
        SchemeKind::LogarithmicSrcI => 5,
        SchemeKind::LogarithmicSrc | SchemeKind::Quadratic => 6,
        // The per-value baseline leaks which exact values are queried
        // (R tokens, one per value) — below every paper scheme.
        SchemeKind::PlainSse => 0,
    }
}

/// The structural leakage categories a scheme adds on top of the underlying
/// SSE leakage (access + search pattern).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeakageProfile {
    /// Whether the number of trapdoor components can depend on the range
    /// *position* (BRC) rather than only its size (URC / single-token).
    pub token_count_leaks_position: bool,
    /// Whether the server learns a partitioning of the result into per-node
    /// groups (Logarithmic-BRC/URC) or even the exact leaf mapping within
    /// each covering subtree (Constant schemes).
    pub reveals_result_grouping: bool,
    /// Whether the server learns the mapping of result ids to positions
    /// inside each covering subtree (order leakage of the Constant family).
    pub reveals_in_subtree_order: bool,
    /// Whether query correctness/security requires the application-level
    /// restriction to non-intersecting queries (DPRF limitation).
    pub requires_non_intersecting_queries: bool,
    /// Whether the scheme is only known secure against non-adaptive
    /// adversaries (PB).
    pub non_adaptive_only: bool,
}

/// Returns the leakage profile of a scheme, as argued in Sections 4–6 of the
/// paper.
pub fn profile(kind: SchemeKind) -> LeakageProfile {
    match kind {
        SchemeKind::Quadratic => LeakageProfile {
            token_count_leaks_position: false,
            reveals_result_grouping: false,
            reveals_in_subtree_order: false,
            requires_non_intersecting_queries: false,
            non_adaptive_only: false,
        },
        SchemeKind::ConstantBrc => LeakageProfile {
            token_count_leaks_position: true,
            reveals_result_grouping: true,
            reveals_in_subtree_order: true,
            requires_non_intersecting_queries: true,
            non_adaptive_only: false,
        },
        SchemeKind::ConstantUrc => LeakageProfile {
            token_count_leaks_position: false,
            reveals_result_grouping: true,
            reveals_in_subtree_order: true,
            requires_non_intersecting_queries: true,
            non_adaptive_only: false,
        },
        SchemeKind::LogarithmicBrc => LeakageProfile {
            token_count_leaks_position: true,
            reveals_result_grouping: true,
            reveals_in_subtree_order: false,
            requires_non_intersecting_queries: false,
            non_adaptive_only: false,
        },
        SchemeKind::LogarithmicUrc => LeakageProfile {
            token_count_leaks_position: false,
            reveals_result_grouping: true,
            reveals_in_subtree_order: false,
            requires_non_intersecting_queries: false,
            non_adaptive_only: false,
        },
        SchemeKind::LogarithmicSrc => LeakageProfile {
            token_count_leaks_position: false,
            reveals_result_grouping: false,
            reveals_in_subtree_order: false,
            requires_non_intersecting_queries: false,
            non_adaptive_only: false,
        },
        SchemeKind::LogarithmicSrcI => LeakageProfile {
            token_count_leaks_position: false,
            reveals_result_grouping: false,
            reveals_in_subtree_order: false,
            requires_non_intersecting_queries: false,
            non_adaptive_only: false,
        },
        SchemeKind::Pb => LeakageProfile {
            token_count_leaks_position: true,
            reveals_result_grouping: true,
            reveals_in_subtree_order: false,
            requires_non_intersecting_queries: false,
            non_adaptive_only: true,
        },
        SchemeKind::PlainSse => LeakageProfile {
            token_count_leaks_position: false,
            reveals_result_grouping: true,
            reveals_in_subtree_order: true,
            requires_non_intersecting_queries: false,
            non_adaptive_only: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::log_brc_urc::LogScheme;
    use crate::schemes::log_src::LogSrcScheme;
    use crate::schemes::testutil;
    use crate::traits::RangeScheme;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;
    use rsse_cover::Range;

    #[test]
    fn security_ordering_matches_table1() {
        // Table 1 ordering: PB < Constant-BRC < Constant-URC <
        // Logarithmic-BRC < Logarithmic-URC < Logarithmic-SRC-i <
        // Logarithmic-SRC = Quadratic.
        assert!(security_level(SchemeKind::Pb) < security_level(SchemeKind::ConstantBrc));
        assert!(security_level(SchemeKind::ConstantBrc) < security_level(SchemeKind::ConstantUrc));
        assert!(
            security_level(SchemeKind::ConstantUrc) < security_level(SchemeKind::LogarithmicBrc)
        );
        assert!(
            security_level(SchemeKind::LogarithmicBrc) < security_level(SchemeKind::LogarithmicUrc)
        );
        assert!(
            security_level(SchemeKind::LogarithmicUrc)
                < security_level(SchemeKind::LogarithmicSrcI)
        );
        assert!(
            security_level(SchemeKind::LogarithmicSrcI)
                < security_level(SchemeKind::LogarithmicSrc)
        );
        assert_eq!(
            security_level(SchemeKind::LogarithmicSrc),
            security_level(SchemeKind::Quadratic)
        );
    }

    #[test]
    fn urc_variants_never_leak_position_through_token_count() {
        for kind in [
            SchemeKind::ConstantUrc,
            SchemeKind::LogarithmicUrc,
            SchemeKind::LogarithmicSrc,
            SchemeKind::LogarithmicSrcI,
            SchemeKind::Quadratic,
        ] {
            assert!(!profile(kind).token_count_leaks_position, "{kind:?}");
        }
        for kind in [
            SchemeKind::ConstantBrc,
            SchemeKind::LogarithmicBrc,
            SchemeKind::Pb,
        ] {
            assert!(profile(kind).token_count_leaks_position, "{kind:?}");
        }
    }

    #[test]
    fn only_constant_requires_non_intersecting_queries() {
        for kind in SchemeKind::ALL {
            let expected = matches!(kind, SchemeKind::ConstantBrc | SchemeKind::ConstantUrc);
            assert_eq!(
                profile(kind).requires_non_intersecting_queries,
                expected,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn grouping_claim_is_observable_in_the_implementation() {
        // The profile says Logarithmic-BRC reveals a result grouping while
        // Logarithmic-SRC does not; check that against the actual schemes.
        let dataset = testutil::skewed_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let range = Range::new(2, 7);
        let (log, log_server) = LogScheme::build(&dataset, &mut rng);
        let (src, src_server) = LogSrcScheme::build(&dataset, &mut rng);
        let log_outcome = log.query(&log_server, range);
        let src_outcome = src.query(&src_server, range);
        assert!(log_outcome.stats.result_groups > 1);
        assert_eq!(src_outcome.stats.result_groups, 1);
    }
}
