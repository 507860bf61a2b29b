//! The multi-query batched search server.
//!
//! The paper's server model (Sections 6–7) is a machine answering many
//! concurrent range queries, each of which expands into a *vector* of SSE
//! tokens — one per BRC/URC covering node. Issuing those tokens one
//! [`SseScheme::search`] call at a time pays per-token fixed costs (scratch
//! setup, result allocation, scattered dictionary probes) that have nothing
//! to do with the cover size. [`QueryServer`] is the batched alternative:
//!
//! * one query's whole token vector is answered in a single lockstep pass
//!   ([`SseScheme::search_batch_scan`]) sharing one label-PRF scratch
//!   buffer across tokens and resolving every counter round's probes
//!   together, grouped by shard of the underlying [`ShardedIndex`];
//! * payloads are decrypted into one reused buffer per query
//!   (`StreamCipher::decrypt_into`) and decoded straight into the flat id
//!   list — no per-payload heap allocation;
//! * multiple concurrent queries fan out across cores with
//!   [`QueryServer::answer_many`]; shards are immutable behind `&self`, so
//!   the concurrent reads are lock-free.
//!
//! Results are **deterministic and identical to the per-token path**: per
//! query, ids come back grouped by token in token order, each group in
//! storage-counter order, and `answer_many` returns outcomes in query
//! order regardless of scheduling.

use crate::dataset::{decode_id_payload, DocId};
use crate::metrics::QueryStats;
use crate::traits::QueryOutcome;
use rayon::prelude::*;
use rsse_crypto::StreamCipher;
use rsse_sse::{IndexLookup, SearchToken, ShardedIndex, SseScheme, StorageError};
use std::path::Path;

/// Decrypts one probe hit with its token's payload cipher (into the reused
/// `plaintext` buffer) and decodes the tuple id. Returns `None` for a
/// corrupt (undecryptable or undecodable) entry — the scan skips it, it is
/// never a panic.
///
/// This is the single definition of hit decoding: the sequential scan
/// ([`scan_query_into`]) and the batch executor in `rsse-serve` both decode
/// through it, which is what makes their outcomes byte-identical.
pub fn decode_hit_into(
    cipher: &StreamCipher,
    ciphertext: &[u8],
    plaintext: &mut Vec<u8>,
) -> Option<DocId> {
    if cipher.decrypt_into(ciphertext, plaintext) {
        decode_id_payload(plaintext)
    } else {
        None
    }
}

/// Reusable per-query scan state: the per-token payload ciphers and the one
/// plaintext buffer every hit decrypts into. A serving layer answering many
/// queries keeps one `ScanScratch` per worker thread and rekeys it per
/// query, so steady-state serving does no per-query scratch allocation.
#[derive(Debug, Default)]
pub struct ScanScratch {
    ciphers: Vec<StreamCipher>,
    plaintext: Vec<u8>,
}

impl ScanScratch {
    /// (Re)derives the payload ciphers of `tokens` into the reused vector.
    pub fn rekey(&mut self, tokens: &[SearchToken]) {
        self.ciphers.clear();
        self.ciphers
            .extend(tokens.iter().map(SearchToken::payload_cipher));
    }

    /// Decodes one hit of token `t` (see [`decode_hit_into`]). Call
    /// [`rekey`](Self::rekey) with the query's tokens first.
    pub fn decode_hit(&mut self, t: usize, ciphertext: &[u8]) -> Option<DocId> {
        decode_hit_into(&self.ciphers[t], ciphertext, &mut self.plaintext)
    }
}

/// Runs one range query's whole token vector against any fallible index in
/// a single lockstep scan, decrypting and decoding every hit into
/// `per_token` (one id group per token, in token order, each group in
/// storage-counter order). Returns the per-token entry counts on success.
///
/// This is the probe-and-decode core of [`QueryServer::answer`], exposed so
/// serving layers (the `rsse-serve` crate) can wrap the index — deadlines,
/// per-probe retries, circuit breakers — while producing **byte-identical
/// outcomes** to the raw server: same scan order, same scratch reuse, same
/// decode.
///
/// # Errors
///
/// A failed probe aborts the scan with its typed [`StorageError`]. On
/// error, `per_token` keeps every id decoded before the failure — the
/// lockstep scan visits all tokens in counter rounds, so the groups are a
/// faithful "what was resolved so far" snapshot a caller can surface as a
/// typed partial result.
pub fn scan_query_into<I>(
    index: &I,
    tokens: &[SearchToken],
    per_token: &mut Vec<Vec<DocId>>,
) -> Result<Vec<usize>, StorageError>
where
    I: IndexLookup,
{
    let mut scratch = ScanScratch::default();
    scan_query_into_with(index, tokens, per_token, &mut scratch)
}

/// [`scan_query_into`] with caller-owned scratch, for serving layers that
/// answer many queries and want the per-token ciphers and the decrypt
/// buffer reused across queries instead of reallocated per query.
pub fn scan_query_into_with<I>(
    index: &I,
    tokens: &[SearchToken],
    per_token: &mut Vec<Vec<DocId>>,
    scratch: &mut ScanScratch,
) -> Result<Vec<usize>, StorageError>
where
    I: IndexLookup,
{
    per_token.clear();
    per_token.resize_with(tokens.len(), Vec::new);
    scratch.rekey(tokens);
    SseScheme::search_batch_scan(index, tokens, |t, ciphertext| {
        if let Some(id) = scratch.decode_hit(t, ciphertext) {
            per_token[t].push(id);
        }
    })
}

/// Flattens the per-token id groups of a completed [`scan_query_into`] pass
/// into the [`QueryOutcome`] the serving APIs return — the single place the
/// outcome shape (id order and [`QueryStats`] accounting) is defined, so
/// every serving layer reports identically.
pub fn assemble_outcome(
    tokens: &[SearchToken],
    per_token: Vec<Vec<DocId>>,
    counts: &[usize],
) -> QueryOutcome {
    let mut ids: Vec<DocId> = Vec::with_capacity(per_token.iter().map(Vec::len).sum());
    for group in per_token {
        ids.extend(group);
    }
    QueryOutcome {
        ids,
        stats: QueryStats {
            tokens_sent: tokens.len(),
            token_bytes: tokens.len() * SearchToken::SIZE_BYTES,
            rounds: 1,
            entries_touched: counts.iter().sum(),
            result_groups: tokens.len(),
        },
    }
}

/// A server-side search endpoint answering whole token vectors — and whole
/// batches of concurrent queries — over one sharded encrypted dictionary.
///
/// # Examples
///
/// ```
/// use rsse_core::{Dataset, Record, RangeScheme, StorageConfig};
/// use rsse_core::schemes::log_brc_urc::LogScheme;
/// use rsse_cover::{Domain, Range};
/// use rand::SeedableRng;
///
/// let dataset = Dataset::new(
///     Domain::new(1 << 10),
///     (0..200).map(|i| Record::new(i, (i * 37) % 1024)).collect(),
/// ).unwrap();
/// let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(7);
///
/// // Build with a 2^4-way sharded dictionary and stand up the server.
/// let config = StorageConfig::in_memory(4);
/// let (client, server) = LogScheme::build_stored(&dataset, &config, &mut rng).unwrap();
/// let server = server.into_query_server();
///
/// // A batch of concurrent range queries: one token vector each.
/// let ranges = [Range::new(0, 100), Range::new(500, 800)];
/// let queries: Vec<_> = ranges.iter().map(|&r| client.trapdoor(r).unwrap()).collect();
/// let outcomes = server.answer_many(&queries);
///
/// for (range, outcome) in ranges.iter().zip(&outcomes) {
///     let mut got = outcome.as_ref().unwrap().ids.clone();
///     let mut expected = dataset.matching_ids(*range);
///     got.sort(); expected.sort();
///     assert_eq!(got, expected);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct QueryServer {
    index: ShardedIndex,
}

impl QueryServer {
    /// Wraps a sharded dictionary in a batched search endpoint.
    pub fn new(index: ShardedIndex) -> Self {
        Self { index }
    }

    /// Cold-opens a batched search endpoint over an index previously
    /// persisted with [`ShardedIndex::save_to_dir`] (or built straight to
    /// disk through a `StorageConfig::on_disk` build): the shard
    /// directories are loaded, the ciphertext regions stay on disk behind
    /// paged reads, and [`answer_many`](Self::answer_many) serves queries
    /// immediately — no rebuild, no full-index residency.
    ///
    /// # Errors
    ///
    /// Surfaces every malformed input as a typed [`StorageError`] (see
    /// [`ShardedIndex::open_dir`]).
    pub fn open_dir(dir: impl AsRef<Path>) -> Result<Self, StorageError> {
        Ok(Self::new(ShardedIndex::open_dir(dir)?))
    }

    /// Like [`open_dir`](Self::open_dir), but bounds the resident
    /// ciphertext blocks of the served index at `cache_budget` bytes
    /// (`None` = unlimited): all shards share one clock block cache, so a
    /// long-running server's memory tracks its working set instead of
    /// everything it ever touched. Query outcomes are identical for every
    /// budget; `index().cache_stats()` exposes the hit/miss/eviction
    /// counters.
    pub fn open_dir_with_budget(
        dir: impl AsRef<Path>,
        cache_budget: Option<usize>,
    ) -> Result<Self, StorageError> {
        Ok(Self::new(ShardedIndex::open_dir_with_budget(
            dir,
            cache_budget,
        )?))
    }

    /// Serializes the underlying dictionary into `dir` (see
    /// [`ShardedIndex::save_to_dir`]).
    pub fn save_to_dir(&self, dir: impl AsRef<Path>) -> Result<(), StorageError> {
        self.index.save_to_dir(dir)
    }

    /// The underlying sharded dictionary.
    pub fn index(&self) -> &ShardedIndex {
        &self.index
    }

    /// Number of label-prefix bits sharding the dictionary.
    pub fn shard_bits(&self) -> u32 {
        self.index.shard_bits()
    }

    /// Answers one range query's whole token vector in a single batched
    /// pass.
    ///
    /// Returns the same ids as running [`SseScheme::search`] token by token
    /// and decoding each payload list — grouped by token in token order,
    /// each group in storage-counter order — but shares the label-PRF
    /// scratch across tokens, groups each counter round's dictionary probes
    /// by shard, and decrypts every hit into one reused buffer.
    ///
    /// # Errors
    ///
    /// A failed block read on a disk-backed index aborts the query with a
    /// typed [`StorageError`] instead of silently shortening the result —
    /// the caller can tell "label absent" (an empty group in `Ok`) from
    /// "the disk failed" (`Err`) per query. In-memory indexes never fail.
    pub fn answer(&self, tokens: &[SearchToken]) -> Result<QueryOutcome, StorageError> {
        let mut per_token: Vec<Vec<DocId>> = Vec::new();
        let counts = scan_query_into(&self.index, tokens, &mut per_token)?;
        Ok(assemble_outcome(tokens, per_token, &counts))
    }

    /// Answers a batch of concurrent queries — one token vector per client
    /// — in parallel, returning **per-query** results in query order.
    ///
    /// The shards are immutable behind `&self`, so the per-query worker
    /// threads read them lock-free; each query is answered with the batched
    /// single-query pass of [`answer`](Self::answer), and the output order
    /// is the input order regardless of thread scheduling.
    ///
    /// # Partial-batch error reporting
    ///
    /// Queries are independent, so one query's storage fault does not abort
    /// its whole batch: each slot carries its own `Result`, and a healthy
    /// query in a faulted batch still returns `Ok`. This is the **raw**
    /// serving path — a probe failure surfaces immediately as its typed
    /// [`StorageError`] with no retry. Production callers that want
    /// transient faults absorbed (budgeted per-probe retries with jittered
    /// backoff, deadlines, per-shard circuit breakers) should serve through
    /// `rsse_serve::ResilientServer`, which wraps this server and keeps
    /// outcomes byte-identical. Callers that want all-or-nothing collection
    /// can `collect` the slots into a `Result<Vec<_>, _>`.
    pub fn answer_many(
        &self,
        queries: &[Vec<SearchToken>],
    ) -> Vec<Result<QueryOutcome, StorageError>> {
        queries
            .par_iter()
            .map(|tokens| self.answer(tokens))
            .collect()
    }

    /// Reopens one batched search endpoint per **active instance** of a
    /// persisted update manager, in level order, from the manager's
    /// storage root alone — the server-side half of a process restart
    /// (`UpdateManager::open_root` in `rsse-updates` is the owner-side
    /// half, and heals any crash leftovers first).
    ///
    /// Reads the root's `manager.meta` manifest, cold-opens every
    /// instance directory it references under the manifest's recorded
    /// cache budget, and returns the endpoints in the same instance order
    /// the owner iterates — the server never needs the owner's master
    /// key, because everything it serves is encrypted.
    ///
    /// Supports managers whose scheme keeps a single dictionary per
    /// instance directory (the Logarithmic/Constant families);
    /// multi-index layouts (Logarithmic-SRC-i's `i1`/`i2`) fail typed on
    /// the missing top-level `index.meta`.
    ///
    /// # Errors
    ///
    /// Surfaces a missing or corrupt manifest, and every malformed
    /// instance directory, as typed [`StorageError`]s. A manifest left
    /// stale by a crash (referencing GC'd directories) also fails typed —
    /// run the owner-side `open_root` recovery first, which re-commits a
    /// healed manifest.
    pub fn open_manager_root(root: impl AsRef<Path>) -> Result<Vec<QueryServer>, StorageError> {
        let root = root.as_ref();
        let manifest = rsse_sse::storage::read_manager_manifest(root)?;
        let budget = manifest.cache_budget.map(|bytes| bytes as usize);
        manifest
            .levels
            .iter()
            .flatten()
            .map(|instance| {
                let dir = root.join(rsse_sse::storage::ManagerManifest::instance_dir_name(
                    instance.build_id,
                ));
                Self::open_dir_with_budget(dir, budget)
            })
            .collect()
    }
}

/// Chaos-harness support: faults injected into a `QueryServer` wrap its
/// dictionary's shards (see the `rsse_sse::fault` module). Test support
/// only — production servers never carry fault wrappers.
impl rsse_sse::FaultInjectable for QueryServer {
    fn fault_indexes(&mut self) -> Vec<&mut ShardedIndex> {
        vec![&mut self.index]
    }
}

#[cfg(test)]
mod tests {
    use crate::schemes::common::search_ids;
    use crate::schemes::log_brc_urc::LogScheme;
    use crate::schemes::testutil;
    use crate::schemes::testutil::TempDir;
    use crate::schemes::CoverKind;
    use crate::server::QueryServer;
    use crate::traits::{QueryOutcome, RangeScheme};
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;
    use rsse_cover::Range;
    use rsse_sse::{SearchToken, StorageConfig, StorageError};

    /// All-or-nothing collection of [`QueryServer::answer_many`].
    fn answer_all(qs: &QueryServer, queries: &[Vec<SearchToken>]) -> Vec<QueryOutcome> {
        qs.answer_many(queries)
            .into_iter()
            .collect::<Result<Vec<_>, StorageError>>()
            .unwrap()
    }

    #[test]
    fn answer_matches_per_token_search_ids() {
        let dataset = testutil::uniform_dataset();
        for bits in [0u32, 3, 6] {
            let mut rng = ChaCha20Rng::seed_from_u64(1);
            let config = StorageConfig::in_memory(bits);
            let (client, server) =
                LogScheme::build_full_stored(&dataset, CoverKind::Urc, false, &config, &mut rng)
                    .unwrap();
            let index = server.index().clone();
            let qs = server.into_query_server();
            assert_eq!(qs.shard_bits(), bits);
            for range in testutil::query_mix(dataset.domain().size()) {
                let tokens = client.trapdoor(range).unwrap();
                let outcome = qs.answer(&tokens).unwrap();
                let (expected_ids, groups) = search_ids(&index, &tokens);
                assert_eq!(outcome.ids, expected_ids, "ids must match per-token order");
                assert_eq!(outcome.stats.entries_touched, groups.iter().sum::<usize>());
                assert_eq!(outcome.stats.tokens_sent, tokens.len());
                assert_eq!(outcome.stats.result_groups, tokens.len());
            }
        }
    }

    #[test]
    fn answer_many_is_deterministic_and_query_ordered() {
        let dataset = testutil::skewed_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let (client, server) =
            LogScheme::build_stored(&dataset, &StorageConfig::in_memory(4), &mut rng).unwrap();
        let qs = server.into_query_server();
        let ranges: Vec<Range> = (0..16u64).map(|i| Range::new(i, i + 7)).collect();
        let queries: Vec<Vec<SearchToken>> = ranges
            .iter()
            .map(|&r| client.trapdoor(r).unwrap())
            .collect();
        let a = answer_all(&qs, &queries);
        let b = answer_all(&qs, &queries);
        assert_eq!(a, b, "same batch must produce identical outcomes");
        for (outcome, range) in a.iter().zip(&ranges) {
            testutil::assert_exact(&dataset, *range, outcome);
        }
    }

    #[test]
    fn cold_opened_server_answers_identically_to_in_memory() {
        // The PR 3 acceptance criterion: build with the file backend (same
        // RNG stream as the in-memory build), drop everything, reopen from
        // disk via QueryServer::open_dir, and serve answer_many with
        // results identical to the in-memory backend — no rebuild.
        let dataset = testutil::uniform_dataset();
        for bits in [0u32, 4] {
            let mut rng_mem = ChaCha20Rng::seed_from_u64(11);
            let (_, mem_server) =
                LogScheme::build_stored(&dataset, &StorageConfig::in_memory(bits), &mut rng_mem)
                    .unwrap();
            let mem_qs = mem_server.into_query_server();

            let dir = TempDir::new("cold-open");
            let mut rng_disk = ChaCha20Rng::seed_from_u64(11);
            let (client, disk_server) = LogScheme::build_stored(
                &dataset,
                &StorageConfig::on_disk(bits, dir.path()),
                &mut rng_disk,
            )
            .unwrap();
            assert!(disk_server.index().is_file_backed());
            drop(disk_server); // nothing of the built index survives in RAM

            let qs = QueryServer::open_dir(dir.path()).unwrap();
            assert_eq!(qs.shard_bits(), bits);
            assert!(qs.index().is_file_backed());
            let ranges: Vec<Range> = testutil::query_mix(dataset.domain().size());
            let queries: Vec<Vec<SearchToken>> = ranges
                .iter()
                .map(|&r| client.trapdoor(r).unwrap())
                .collect();
            let cold = answer_all(&qs, &queries);
            let warm = answer_all(&mem_qs, &queries);
            assert_eq!(
                cold, warm,
                "cold-open outcomes must match in-memory (k={bits})"
            );
            for (range, outcome) in ranges.iter().zip(&cold) {
                testutil::assert_exact(&dataset, *range, outcome);
            }
        }
    }

    /// The two scan orders answer identically: the per-token scan of
    /// `LogScheme::try_query` and the lockstep scan of
    /// `QueryServer::answer` return the same ids in the same order and the
    /// same `QueryStats`, query by query, on both backends, with and
    /// without a cache budget. Out-of-domain ranges never reach the server
    /// and come back empty.
    #[test]
    fn try_query_agrees_with_query_server_answer() {
        let dataset = testutil::uniform_dataset();
        let mut ranges = testutil::query_mix(dataset.domain().size());
        ranges.push(Range::new(1000, 2000));
        let dir = TempDir::new("scan-orders");
        for on_disk in [false, true] {
            for budget in [None, Some(4096)] {
                let mut config = if on_disk {
                    StorageConfig::on_disk(5, dir.path().join(format!("{budget:?}")))
                } else {
                    StorageConfig::in_memory(5)
                };
                config.cache_budget = budget;
                let mut rng = ChaCha20Rng::seed_from_u64(4);
                let (client, server) = LogScheme::build_full_stored(
                    &dataset,
                    CoverKind::Urc,
                    false,
                    &config,
                    &mut rng,
                )
                .unwrap();
                assert_eq!(server.index().is_file_backed(), on_disk);
                let qs = server.clone().into_query_server();
                for &range in &ranges {
                    let per_token = client.try_query(&server, range).unwrap();
                    let Some(tokens) = client.trapdoor(range) else {
                        assert!(per_token.is_empty(), "out-of-domain {range} must be empty");
                        continue;
                    };
                    let lockstep = qs.answer(&tokens).unwrap();
                    assert_eq!(
                        per_token, lockstep,
                        "{range} (disk={on_disk}, budget={budget:?})"
                    );
                }
            }
        }
    }
}
