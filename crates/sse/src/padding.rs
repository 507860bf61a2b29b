//! Owner-side padding of the plaintext multimap.
//!
//! Section 4 of the paper: the size of the augmented dataset `D'` produced
//! by replication-based schemes (Quadratic, the Logarithmic family) depends
//! on the data distribution, so leaking `|D'|` can leak distributional
//! information. The fix is to pad the multimap with dummy entries up to a
//! value computable from the public parameters `(n, m)` alone, so that the
//! index size reveals nothing beyond them.
//!
//! Dummy entries are inserted under reserved keywords that real queries can
//! never produce (they live in a distinct namespace byte), carrying payloads
//! of the same length as real ones so they are indistinguishable inside the
//! encrypted dictionary.

use crate::database::SseDatabase;

/// Namespace prefix for padding keywords. Scheme keywords produced by
/// `rsse-cover` start with `b'B'` or `b'T'`, and the schemes' own auxiliary
/// keywords never use this byte, so padding can never be matched by a query.
pub const PADDING_KEYWORD_TAG: u8 = 0xFF;

/// Pads `database` with dummy entries until it holds exactly `target_entries`
/// (keyword, payload) pairs. Dummy payloads are `payload_len` bytes of zeros
/// (they are encrypted individually, so their content is irrelevant).
///
/// Returns the number of dummy entries added.
///
/// # Panics
/// Panics if the database already exceeds `target_entries`.
pub fn pad_to(database: &mut SseDatabase, target_entries: usize, payload_len: usize) -> usize {
    let current = database.entry_count();
    assert!(
        current <= target_entries,
        "database has {current} entries, more than the padding target {target_entries}"
    );
    let missing = target_entries - current;
    for i in 0..missing {
        let mut keyword = Vec::with_capacity(9);
        keyword.push(PADDING_KEYWORD_TAG);
        keyword.extend_from_slice(&(i as u64).to_le_bytes());
        database.add(keyword, vec![0u8; payload_len]);
    }
    missing
}

/// The padding target used by the Quadratic scheme: every tuple is
/// associated with every range containing its value, so the maximum possible
/// augmented size for `n` tuples over a domain of size `m` is `n · m(m+1)/2 /
/// m = n·(m+1)/2`… more precisely a value `v` belongs to `(v+1)·(m−v)`
/// ranges, maximised at the middle of the domain. The paper only requires a
/// bound computable from `(n, m)`; we use the exact maximum
/// `n · ⌈(m+1)/2⌉ · ⌈m/2⌉ / …` — conservatively, `n` times the number of
/// ranges containing the median value.
pub fn quadratic_padding_target(n: usize, m: u64) -> usize {
    let v = (m - 1) / 2; // median value maximises (v+1)(m-v)
    let per_tuple = (v + 1) * (m - v);
    n.saturating_mul(per_tuple as usize)
}

/// The padding target used by the Logarithmic schemes: each tuple maps to at
/// most `⌈log₂ m⌉ + 1` binary-tree keywords (BRC/URC variants) or
/// `2⌈log₂ m⌉ + 1` TDAG keywords (SRC variants).
pub fn logarithmic_padding_target(n: usize, m: u64, tdag: bool) -> usize {
    let bits = if m <= 1 {
        0
    } else {
        64 - (m - 1).leading_zeros()
    } as usize;
    let per_tuple = if tdag { 2 * bits + 1 } else { bits + 1 };
    n.saturating_mul(per_tuple)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    use crate::pibas::SseScheme;

    #[test]
    fn pad_to_reaches_exact_target() {
        let mut db = SseDatabase::new();
        db.add(b"w".to_vec(), vec![1u8; 8]);
        db.add(b"w".to_vec(), vec![2u8; 8]);
        let added = pad_to(&mut db, 10, 8);
        assert_eq!(added, 8);
        assert_eq!(db.entry_count(), 10);
    }

    #[test]
    fn padding_is_invisible_to_real_queries() {
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let key = SseScheme::setup(&mut rng);
        let mut db = SseDatabase::new();
        db.add(b"Breal".to_vec(), vec![7u8; 8]);
        pad_to(&mut db, 64, 8);
        let index =
            SseScheme::build_index_stored(&key, &db, &crate::StorageConfig::in_memory(0), &mut rng)
                .unwrap();
        assert_eq!(index.len(), 64);
        let token = SseScheme::trapdoor(&key, b"Breal");
        assert_eq!(SseScheme::search(&index, &token).unwrap().len(), 1);
    }

    #[test]
    fn two_distributions_pad_to_identical_size() {
        // The whole point of padding: a skewed and a uniform dataset of the
        // same cardinality end up with byte-identical index sizes.
        let mut skewed = SseDatabase::new();
        for i in 0..20u64 {
            skewed.add(b"hot".to_vec(), i.to_le_bytes().to_vec());
        }
        let mut uniform = SseDatabase::new();
        for i in 0..10u64 {
            uniform.add(format!("w{i}").into_bytes(), i.to_le_bytes().to_vec());
        }
        let target = 50;
        pad_to(&mut skewed, target, 8);
        pad_to(&mut uniform, target, 8);
        assert_eq!(skewed.entry_count(), uniform.entry_count());
    }

    #[test]
    #[should_panic(expected = "more than the padding target")]
    fn overful_database_rejected() {
        let mut db = SseDatabase::new();
        for i in 0..5u64 {
            db.add(b"w".to_vec(), i.to_le_bytes().to_vec());
        }
        pad_to(&mut db, 3, 8);
    }

    #[test]
    fn logarithmic_target_formula() {
        // m = 1024 → 10 bits → 11 keywords per tuple for the binary tree,
        // 21 for the TDAG.
        assert_eq!(logarithmic_padding_target(100, 1024, false), 1100);
        assert_eq!(logarithmic_padding_target(100, 1024, true), 2100);
        assert_eq!(logarithmic_padding_target(10, 1, false), 10);
    }

    #[test]
    fn quadratic_target_is_maximal_over_values() {
        let m = 64u64;
        let worst = (0..m).map(|v| (v + 1) * (m - v)).max().unwrap() as usize;
        assert_eq!(quadratic_padding_target(1, m), worst);
    }

    proptest! {
        #[test]
        fn padding_never_shrinks_and_hits_target(real in 0usize..40, extra in 0usize..40) {
            let mut db = SseDatabase::new();
            for i in 0..real {
                db.add(b"k".to_vec(), (i as u64).to_le_bytes().to_vec());
            }
            let target = real + extra;
            let added = pad_to(&mut db, target, 8);
            prop_assert_eq!(added, extra);
            prop_assert_eq!(db.entry_count(), target);
        }
    }
}
