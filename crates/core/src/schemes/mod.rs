//! All RSSE schemes of the paper, plus the PB baseline of Li et al. and a
//! plain per-value SSE baseline.
//!
//! Every scheme follows the same client/server split and implements
//! [`RangeScheme`](crate::traits::RangeScheme); schemes with their own
//! parameters additionally expose one inherent constructor taking them
//! (`build_full_stored`, `build_stored_with`, `build_with`). The
//! [`any`] module offers a runtime-dispatched wrapper used by the
//! experiment harness and the examples.

pub mod any;
pub mod common;
pub mod constant;
pub mod log_brc_urc;
pub mod log_src;
pub mod log_src_i;
pub mod pb;
pub mod plain_sse;
pub mod quadratic;

pub use any::{AnyScheme, SchemeKind};
pub use common::CoverKind;

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for scheme tests.

    use crate::dataset::{Dataset, DocId, Record};
    use crate::metrics::Evaluation;
    use crate::traits::QueryOutcome;
    use rsse_cover::{Domain, Range};

    /// A small skewed dataset over a 64-value domain: ten tuples piled on
    /// value 2 (mirroring the USPS-style skew of the paper's Figure 4
    /// example) plus a spread of singletons.
    pub fn skewed_dataset() -> Dataset {
        let mut records = Vec::new();
        for id in 0..10u64 {
            records.push(Record::new(id, 2));
        }
        records.push(Record::new(10, 4));
        records.push(Record::new(11, 5));
        records.push(Record::new(12, 5));
        records.push(Record::new(13, 6));
        records.push(Record::new(14, 6));
        records.push(Record::new(15, 7));
        records.push(Record::new(16, 33));
        records.push(Record::new(17, 47));
        records.push(Record::new(18, 63));
        Dataset::new(Domain::new(64), records).unwrap()
    }

    /// A small near-uniform dataset over a 256-value domain.
    pub fn uniform_dataset() -> Dataset {
        let records = (0..80u64)
            .map(|i| Record::new(i, (i * 37 + 11) % 256))
            .collect();
        Dataset::new(Domain::new(256), records).unwrap()
    }

    /// Checks that an outcome is *complete* (no false negatives) for `range`
    /// and returns its evaluation.
    pub fn assert_complete(dataset: &Dataset, range: Range, outcome: &QueryOutcome) -> Evaluation {
        let expected = dataset.matching_ids(range);
        let eval = Evaluation::compare(&outcome.ids, &expected);
        assert!(
            eval.is_complete(),
            "scheme missed {} matching ids for {range}: returned {:?}, expected {:?}",
            eval.false_negatives,
            outcome.ids,
            expected
        );
        eval
    }

    /// Checks that an outcome is *exact* (complete, no false positives).
    pub fn assert_exact(dataset: &Dataset, range: Range, outcome: &QueryOutcome) {
        let eval = assert_complete(dataset, range, outcome);
        assert!(
            eval.is_exact(),
            "scheme returned {} false positives for {range}",
            eval.false_positives
        );
    }

    /// A spread of query ranges exercising edges, points and spans.
    pub fn query_mix(domain_size: u64) -> Vec<Range> {
        let max = domain_size - 1;
        vec![
            Range::new(0, max),
            Range::point(0),
            Range::point(max),
            Range::point(domain_size / 2),
            Range::new(1, domain_size / 2),
            Range::new(domain_size / 3, 2 * domain_size / 3),
            Range::new(max.saturating_sub(5), max),
            Range::new(2, 7),
            Range::new(3, 5),
        ]
    }

    /// Collects the ids of an outcome sorted, for order-insensitive equality.
    pub fn sorted_ids(outcome: &QueryOutcome) -> Vec<DocId> {
        let mut ids = outcome.ids.clone();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Unique scratch directory for persistence tests (shared helper from
    /// `rsse-sse`'s test support, so every crate maintains one copy).
    pub use rsse_sse::test_support::TempDir;
}
