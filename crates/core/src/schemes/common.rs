//! Helpers shared by the scheme implementations.

use crate::dataset::{decode_id_payload, DocId};
use rand::{CryptoRng, RngCore};
use rayon::prelude::*;
use rsse_cover::{Domain, Range};
use rsse_sse::{
    IndexLookup, SearchToken, ShardedIndex, SseKey, SseScheme, StorageConfig, StorageError,
};

/// Token counts at or above this run the per-token searches on all cores.
/// Below it (the Logarithmic schemes' `O(log R)` token vectors) threading
/// overhead would exceed the scan work.
const PARALLEL_SEARCH_TOKENS: usize = 64;

/// Which exact range-covering technique a BRC/URC-based scheme uses for its
/// trapdoors (Section 2.2 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CoverKind {
    /// Best Range Cover — minimum number of nodes, leaks range position
    /// through the level profile of the cover.
    Brc,
    /// Uniform Range Cover — worst-case decomposition, level profile depends
    /// only on the range size.
    Urc,
}

impl CoverKind {
    /// Computes the cover of `range` with the selected technique.
    pub fn cover(&self, domain: &Domain, range: Range) -> Vec<rsse_cover::Node> {
        match self {
            CoverKind::Brc => rsse_cover::brc(domain, range),
            CoverKind::Urc => rsse_cover::urc(domain, range),
        }
    }

    /// Scheme-name suffix used in reports ("BRC" / "URC").
    pub fn label(&self) -> &'static str {
        match self {
            CoverKind::Brc => "BRC",
            CoverKind::Urc => "URC",
        }
    }
}

/// Clamps a query range to the domain. Queries entirely outside the domain
/// are answered with `None` (empty result) without contacting the server.
pub fn clamp_query(domain: &Domain, range: Range) -> Option<Range> {
    domain.clamp(range)
}

/// Runs an SSE search for each token and decodes the id payloads, returning
/// the flattened ids together with the per-token group sizes (the result
/// partitioning the server observes). The first storage failure aborts the
/// whole query with its typed error — a failed block read is an error, not
/// an empty group.
///
/// Generic over the dictionary view ([`IndexLookup`]). Large token
/// vectors — the Constant schemes expand a trapdoor into one token per
/// domain value of the range — are searched in parallel; results are
/// merged in token order either way, so the outcome is deterministic.
pub fn try_search_ids<I>(
    index: &I,
    tokens: &[SearchToken],
) -> Result<(Vec<DocId>, Vec<usize>), StorageError>
where
    I: IndexLookup + Sync,
{
    let per_token: Vec<Result<(Vec<DocId>, usize), StorageError>> =
        if tokens.len() >= PARALLEL_SEARCH_TOKENS {
            tokens
                .par_iter()
                .map(|token| search_one(index, token))
                .collect()
        } else {
            tokens
                .iter()
                .map(|token| search_one(index, token))
                .collect()
        };
    let mut ids = Vec::new();
    let mut groups = Vec::with_capacity(tokens.len());
    for result in per_token {
        let (token_ids, matched) = result?;
        groups.push(matched);
        ids.extend(token_ids);
    }
    Ok((ids, groups))
}

/// Infallible convenience wrapper over [`try_search_ids`] for analysis
/// helpers and in-memory paths: **panics** if the storage backend fails
/// (which an in-memory index cannot).
pub fn search_ids<I>(index: &I, tokens: &[SearchToken]) -> (Vec<DocId>, Vec<usize>)
where
    I: IndexLookup + Sync,
{
    try_search_ids(index, tokens).expect("storage backend failed during search")
}

/// One token's scan: decoded ids plus the raw match count (group sizes
/// count matched entries, decodable or not — e.g. padding dummies).
fn search_one<I: IndexLookup>(
    index: &I,
    token: &SearchToken,
) -> Result<(Vec<DocId>, usize), StorageError> {
    let payloads = SseScheme::search(index, token)?;
    let matched = payloads.len();
    let ids = payloads
        .iter()
        .filter_map(|payload| decode_id_payload(payload))
        .collect();
    Ok((ids, matched))
}

/// Builds an encrypted index from flat `(keyword, payload)` entries with
/// fixed-size keywords and payloads — the BuildIndex fast path shared by
/// the replication-based schemes — on the backend `config` selects.
///
/// Semantically equivalent to filling an [`rsse_sse::SseDatabase`], calling
/// `shuffle_lists`, and running `SseScheme::build_index_stored`, but without
/// the byte-keyed `BTreeMap` and the two heap allocations per entry:
/// entries are grouped by one cache-friendly sort of flat arrays, each
/// group is shuffled with the same `(shuffle_key, keyword)`-keyed
/// permutation, and the fixed-stride SSE build encrypts straight out of the
/// payload arrays. RNG consumption — and so every ciphertext byte — is
/// identical across `shard_bits` values and backends.
///
/// When the configuration carries a [`BuildBudget`](rsse_sse::BuildBudget),
/// the entries stream into the external-memory spill/merge pipeline instead
/// and are never collected — byte-identical output, peak RSS bounded by
/// the budget rather than the entry count. Without one they are collected
/// and sorted in RAM; a `Vec` argument is reused and sorted in place.
pub fn grouped_fixed_index<const K: usize, const P: usize, R: RngCore + CryptoRng>(
    key: &SseKey,
    shuffle_key: &rsse_crypto::Key,
    entries: impl IntoIterator<Item = ([u8; K], [u8; P])>,
    config: &StorageConfig,
    rng: &mut R,
) -> Result<ShardedIndex, StorageError> {
    if config.build_budget.is_some() {
        return rsse_sse::build_index_fixed_external(key, shuffle_key, entries, config, rng);
    }
    let lists = grouped_lists(shuffle_key, entries.into_iter().collect());
    SseScheme::build_index_fixed_stored(key, &lists, config, rng)
}

/// The in-RAM grouping core of [`grouped_fixed_index`]: sort flat entries by
/// (keyword, payload) — groups become contiguous and the total order keeps
/// the build deterministic — then apply the `(shuffle_key, keyword)`-keyed
/// permutation that sets each list's final storage order, exactly as
/// `SseDatabase::shuffle_lists` did.
fn grouped_lists<const K: usize, const P: usize>(
    shuffle_key: &rsse_crypto::Key,
    mut entries: Vec<([u8; K], [u8; P])>,
) -> Vec<(Vec<u8>, Vec<[u8; P]>)> {
    entries.sort_unstable();
    let mut lists: Vec<(Vec<u8>, Vec<[u8; P]>)> = Vec::new();
    for (keyword, payload) in entries {
        match lists.last_mut() {
            Some((last, payloads)) if last.as_slice() == keyword.as_slice() => {
                payloads.push(payload);
            }
            _ => lists.push((keyword.to_vec(), vec![payload])),
        }
    }
    for (keyword, payloads) in lists.iter_mut() {
        rsse_crypto::permute::keyed_shuffle(shuffle_key, keyword, payloads);
    }
    lists
}

/// Encodes a `(value, start, end)` triple — the "(domain value, tuple
/// range)" documents indexed by Logarithmic-SRC-i's first index — as a
/// 24-byte payload.
pub fn encode_value_span(value: u64, start: u64, end: u64) -> Vec<u8> {
    encode_value_span_array(value, start, end).to_vec()
}

/// Allocation-free variant of [`encode_value_span`] for the fixed-stride
/// BuildIndex fast path.
pub fn encode_value_span_array(value: u64, start: u64, end: u64) -> [u8; 24] {
    let mut out = [0u8; 24];
    out[0..8].copy_from_slice(&value.to_le_bytes());
    out[8..16].copy_from_slice(&start.to_le_bytes());
    out[16..24].copy_from_slice(&end.to_le_bytes());
    out
}

/// Decodes a payload produced by [`encode_value_span`].
pub fn decode_value_span(payload: &[u8]) -> Option<(u64, u64, u64)> {
    if payload.len() != 24 {
        return None;
    }
    let value = u64::from_le_bytes(payload[0..8].try_into().ok()?);
    let start = u64::from_le_bytes(payload[8..16].try_into().ok()?);
    let end = u64::from_le_bytes(payload[16..24].try_into().ok()?);
    Some((value, start, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;
    use rsse_sse::SseDatabase;

    #[test]
    fn cover_kind_dispatches() {
        let domain = Domain::new(8);
        let range = Range::new(2, 7);
        assert_eq!(CoverKind::Brc.cover(&domain, range).len(), 2);
        assert_eq!(CoverKind::Urc.cover(&domain, range).len(), 4);
        assert_eq!(CoverKind::Brc.label(), "BRC");
        assert_eq!(CoverKind::Urc.label(), "URC");
    }

    #[test]
    fn clamp_query_filters_out_of_domain() {
        let domain = Domain::new(10);
        assert_eq!(
            clamp_query(&domain, Range::new(5, 100)),
            Some(Range::new(5, 9))
        );
        assert_eq!(clamp_query(&domain, Range::new(50, 100)), None);
    }

    #[test]
    fn value_span_roundtrip() {
        let encoded = encode_value_span(7, 100, 200);
        assert_eq!(encoded.len(), 24);
        assert_eq!(decode_value_span(&encoded), Some((7, 100, 200)));
        assert_eq!(decode_value_span(b"short"), None);
    }

    #[test]
    fn search_ids_groups_by_token() {
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let key = SseScheme::setup(&mut rng);
        let mut db = SseDatabase::new();
        db.add(b"a".to_vec(), 1u64.to_le_bytes().to_vec());
        db.add(b"a".to_vec(), 2u64.to_le_bytes().to_vec());
        db.add(b"b".to_vec(), 3u64.to_le_bytes().to_vec());
        let index =
            SseScheme::build_index_stored(&key, &db, &StorageConfig::in_memory(0), &mut rng)
                .unwrap();
        let tokens = vec![
            SseScheme::trapdoor(&key, b"a"),
            SseScheme::trapdoor(&key, b"b"),
            SseScheme::trapdoor(&key, b"missing"),
        ];
        let (ids, groups) = search_ids(&index, &tokens);
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(groups, vec![2, 1, 0]);
    }
}
