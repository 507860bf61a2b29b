//! The benchmark's own plaintext models. Every answer the program returns
//! is checked against them; a mismatch counts as a failed operation and
//! makes the run exit non-zero.

/// Marks a record that was present before the measured stream began.
const PRELOADED: u32 = u32::MAX;

/// Exact model of a static dataset: BRC covers have no false positives,
/// so an answer must be exactly the ids whose value lies in the range.
pub struct Model {
    /// `(value, id)`, sorted.
    by_value: Vec<(u64, u64)>,
    /// Adds a bogus id to every expected set: a deliberately wrong oracle,
    /// used to show that a mismatch fails the run.
    corrupt: bool,
}

impl Model {
    pub fn new(records: impl IntoIterator<Item = (u64, u64)>, corrupt: bool) -> Self {
        let mut by_value: Vec<(u64, u64)> = records.into_iter().map(|(id, v)| (v, id)).collect();
        by_value.sort_unstable();
        Self { by_value, corrupt }
    }

    /// The sorted ids whose value lies in `[lo, hi]`.
    pub fn expected(&self, lo: u64, hi: u64) -> Vec<u64> {
        let start = self.by_value.partition_point(|&(v, _)| v < lo);
        let end = self.by_value.partition_point(|&(v, _)| v <= hi);
        let mut ids: Vec<u64> = self.by_value[start..end]
            .iter()
            .map(|&(_, id)| id)
            .collect();
        ids.sort_unstable();
        if self.corrupt {
            ids.push(u64::MAX);
        }
        ids
    }

    /// Whether `answer` is exactly the expected id set (no duplicates).
    pub fn check_exact(&self, lo: u64, hi: u64, answer: &[u64]) -> bool {
        let mut got = answer.to_vec();
        got.sort_unstable();
        got == self.expected(lo, hi)
    }
}

/// Model of a dataset under a concurrent insert stream: each streamed
/// record belongs to a batch with a send instant and (if acknowledged) an
/// acknowledgement instant, both in nanoseconds since one epoch.
pub struct StreamModel {
    /// `(value, id, batch)`, sorted; `batch == PRELOADED` for the preload.
    by_value: Vec<(u64, u64, u32)>,
    sent_ns: Vec<u64>,
    acked_ns: Vec<Option<u64>>,
    corrupt: bool,
}

impl StreamModel {
    pub fn new(
        preload: &[(u64, u64)],
        batches: &[Vec<(u64, u64)>],
        sent_ns: Vec<u64>,
        acked_ns: Vec<Option<u64>>,
        corrupt: bool,
    ) -> Self {
        let mut by_value: Vec<(u64, u64, u32)> =
            preload.iter().map(|&(id, v)| (v, id, PRELOADED)).collect();
        for (b, batch) in batches.iter().enumerate().take(sent_ns.len()) {
            by_value.extend(batch.iter().map(|&(id, v)| (v, id, b as u32)));
        }
        by_value.sort_unstable();
        Self {
            by_value,
            sent_ns,
            acked_ns,
            corrupt,
        }
    }

    /// A query sent at `sent` and answered at `done` must contain every
    /// in-range record acknowledged before `sent`, and nothing that is out
    /// of range, duplicated, or sent only after `done`.
    pub fn check(&self, lo: u64, hi: u64, sent: u64, done: u64, answer: &[u64]) -> bool {
        let mut got = answer.to_vec();
        got.sort_unstable();
        if got.windows(2).any(|w| w[0] == w[1]) {
            return false;
        }
        if self.corrupt {
            return false;
        }
        let start = self.by_value.partition_point(|&(v, _, _)| v < lo);
        let end = self.by_value.partition_point(|&(v, _, _)| v <= hi);
        let mut matched = 0usize;
        for &(_, id, batch) in &self.by_value[start..end] {
            let (required, allowed) = if batch == PRELOADED {
                (true, true)
            } else {
                let b = batch as usize;
                (
                    self.acked_ns[b].is_some_and(|ack| ack < sent),
                    self.sent_ns[b] < done,
                )
            };
            let present = got.binary_search(&id).is_ok();
            if (required && !present) || (present && !allowed) {
                return false;
            }
            matched += present as usize;
        }
        // Every returned id must be an in-range record of the model.
        matched == got.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Vec<(u64, u64)> {
        vec![(0, 10), (1, 20), (2, 20), (3, 35), (4, 90)]
    }

    #[test]
    fn exact_model_accepts_the_right_set_in_any_order() {
        let model = Model::new(data(), false);
        assert_eq!(model.expected(20, 35), vec![1, 2, 3]);
        assert!(model.check_exact(20, 35, &[3, 1, 2]));
    }

    #[test]
    fn exact_model_rejects_missing_extra_and_duplicate_ids() {
        let model = Model::new(data(), false);
        assert!(!model.check_exact(20, 35, &[1, 2]));
        assert!(!model.check_exact(20, 35, &[1, 2, 3, 4]));
        assert!(!model.check_exact(20, 35, &[1, 2, 3, 3]));
    }

    #[test]
    fn a_deliberately_wrong_expected_set_trips_the_oracle() {
        let model = Model::new(data(), true);
        assert!(!model.check_exact(20, 35, &[1, 2, 3]));
        let stream = StreamModel::new(&data(), &[], vec![], vec![], true);
        assert!(!stream.check(20, 35, 0, 1, &[1, 2, 3]));
    }

    #[test]
    fn stream_model_bounds_answers_by_send_and_ack_instants() {
        let batches = vec![vec![(10, 25)], vec![(11, 30)]];
        // Batch 0 sent at 100, acked at 200; batch 1 sent at 300, never acked.
        let model = StreamModel::new(
            &data(),
            &batches,
            vec![100, 300],
            vec![Some(200), None],
            false,
        );
        // Before batch 0 was acked it may or may not be visible.
        assert!(model.check(20, 35, 150, 160, &[1, 2, 3]));
        assert!(model.check(20, 35, 150, 160, &[1, 2, 3, 10]));
        // Once acked before the query was sent it must be there.
        assert!(!model.check(20, 35, 250, 260, &[1, 2, 3]));
        assert!(model.check(20, 35, 250, 260, &[1, 2, 3, 10]));
        // A batch sent after the answer was complete must not be.
        assert!(!model.check(20, 35, 250, 260, &[1, 2, 3, 10, 11]));
        // Out-of-range and unknown ids fail.
        assert!(!model.check(20, 35, 250, 260, &[1, 2, 3, 10, 4]));
        assert!(!model.check(20, 35, 250, 260, &[1, 2, 3, 10, 99]));
    }
}
