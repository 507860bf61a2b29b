//! Label-prefix sharding of the encrypted dictionary.
//!
//! [`ShardedIndex`] splits the flat Π_bas dictionary into `2^k` **shards
//! keyed by the top `k` bits of the label**: shard `s` owns every entry
//! whose label prefix is `s`, with its own label table and ciphertext
//! region. Because labels are owner-side PRF outputs (computationally
//! indistinguishable from uniform — see the [`pibas`](crate::pibas) module
//! docs), the prefix partition is automatically balanced, and revealing
//! which shard an entry lives in reveals exactly the label prefix the
//! server could read off the flat dictionary anyway: sharding changes the
//! storage layout, not the leakage profile.
//!
//! What sharding buys:
//!
//! * **Fully parallel BuildIndex assembly.** After a cheap index-scatter
//!   pass, every shard is one *independent* assembly job, so the
//!   byte-copying and table insertion fan out across cores.
//! * **Lock-free concurrent reads.** Shards are plain immutable structs
//!   behind `&self`; any number of query threads can probe in-memory
//!   shards simultaneously with no synchronization whatsoever.
//! * **Bounded arenas.** Each shard has its own 4 GiB region limit, so
//!   `k` shard bits raise the per-index ciphertext capacity `2^k`-fold.
//! * **Probe locality for batched search.** [`IndexLookup::try_get_many`]
//!   groups a probe vector by shard, so consecutive lookups hit the same
//!   (much smaller) table.
//!
//! Every shard is one [`Shard`] — a label table over a ciphertext region
//! held in memory or read from the shard file through the index's one
//! block cache — selected by a [`StorageConfig`] (see the
//! [`storage`](crate::storage) module). [`ShardedIndex::save_to_dir`] and
//! [`ShardedIndex::open_dir`] persist an index across processes.
//!
//! With `k = 0` the in-memory index is a single shard holding
//! **byte-identical** entries to the reference per-entry dictionary
//! (`pibas::reference`) — the property test
//! `unsharded_is_byte_identical_to_plain_arena` pins this, so the sharded
//! type is a strict generalization, not a fork.

use crate::database::SseDatabase;
use crate::fault::FaultInjector;
use crate::pibas::{CipherSpan, IndexLookup, KeywordChunk, Label, SearchToken, SseKey, SseScheme};
use crate::storage::{
    cleanup_partial_index, merge_shards, open_shards_from_dir, save_shards_to_dir, write_manifest,
    BlockCache, CacheStats, Shard, ShardHome, StorageBackend, StorageConfig, StorageError,
};
use rand::{CryptoRng, RngCore};
use rayon::prelude::*;
use std::fmt;
use std::fs;
use std::path::Path;
use std::sync::Arc;

/// Maximum supported shard bits (`2^16` shards). Past this point per-shard
/// bookkeeping dominates any conceivable parallelism win.
pub const MAX_SHARD_BITS: u32 = 16;

/// Returns the shard (top `bits` bits of the label, read big-endian) an
/// entry with this label belongs to. `bits == 0` maps everything to shard 0.
pub(crate) fn shard_of_label(label: &Label, bits: u32) -> usize {
    if bits == 0 {
        return 0;
    }
    let prefix = u64::from_be_bytes(label[..8].try_into().expect("labels are 16 bytes"));
    (prefix >> (64 - bits)) as usize
}

/// An encrypted dictionary split into `2^k` label-prefix-keyed [`Shard`]s,
/// each a label table over its own ciphertext region.
///
/// Searched with the exact same tokens and algorithms at every `k` —
/// every search entry point is generic over [`IndexLookup`] — and
/// guaranteed to hold the same `(label, ciphertext)` pairs for the same
/// build inputs, whatever `k` or the region home is.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rsse_sse::{SseDatabase, SseScheme, StorageConfig};
///
/// let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(1);
/// let key = SseScheme::setup(&mut rng);
/// let mut db = SseDatabase::new();
/// for i in 0..100u64 {
///     db.add(b"w".to_vec(), i.to_le_bytes().to_vec());
/// }
///
/// // 2^4 = 16 shards; entries distribute by label prefix.
/// let index = SseScheme::build_index_stored(&key, &db, &StorageConfig::in_memory(4), &mut rng)
///     .unwrap();
/// assert_eq!(index.shard_count(), 16);
/// assert_eq!(index.len(), 100);
///
/// // Same search API at every shard count.
/// let token = SseScheme::trapdoor(&key, b"w");
/// assert_eq!(SseScheme::search(&index, &token).unwrap().len(), 100);
/// ```
///
/// Persistence: an index can be saved to (or built straight into) a
/// directory and cold-opened by a later process:
///
/// ```
/// use rand::SeedableRng;
/// use rsse_sse::{ShardedIndex, SseDatabase, SseScheme, StorageConfig};
///
/// let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(2);
/// let key = SseScheme::setup(&mut rng);
/// let mut db = SseDatabase::new();
/// db.add(b"w".to_vec(), b"payload".to_vec());
/// let index = SseScheme::build_index_stored(&key, &db, &StorageConfig::in_memory(2), &mut rng)
///     .unwrap();
///
/// let dir = std::env::temp_dir().join(format!("rsse-doc-{}", std::process::id()));
/// index.save_to_dir(&dir).unwrap();
/// drop(index);
///
/// let reopened = ShardedIndex::open_dir(&dir).unwrap();
/// let token = SseScheme::trapdoor(&key, b"w");
/// assert_eq!(
///     SseScheme::search(&reopened, &token).unwrap(),
///     vec![b"payload".to_vec()]
/// );
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Clone)]
pub struct ShardedIndex {
    /// Number of label-prefix bits selecting the shard (`k`).
    bits: u32,
    /// The `2^k` shards, indexed by label prefix.
    pub(crate) shards: Vec<Shard>,
    /// The one block cache every file-backed shard reads its region
    /// through (idle for an in-memory index).
    cache: Arc<BlockCache>,
    /// Fault injectors in attach order, consulted newest first before
    /// every probe (test support; a production index has none — see the
    /// [`fault`](crate::fault) module).
    faults: Vec<Arc<FaultInjector>>,
}

impl fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("bits", &self.bits)
            .field("shards", &self.shards)
            .field("cache", &self.cache_stats())
            .field("fault_injectors", &self.faults.len())
            .finish()
    }
}

impl Default for ShardedIndex {
    /// An empty unsharded (`k = 0`) in-memory index.
    fn default() -> Self {
        Self::from_parts(0, vec![Shard::default()], Arc::new(BlockCache::new(None)))
    }
}

impl ShardedIndex {
    /// Assembles an index from already-built shards and the block cache
    /// their file-backed regions read through. `shards.len()` must be
    /// `2^bits`.
    pub(crate) fn from_parts(bits: u32, shards: Vec<Shard>, cache: Arc<BlockCache>) -> Self {
        debug_assert_eq!(shards.len(), 1usize << bits);
        Self {
            bits,
            shards,
            cache,
            faults: Vec::new(),
        }
    }

    /// Produces the `2^bits` shards of a new index in `backend`, in
    /// parallel: `assemble(home, s)` builds shard `s`. On disk the
    /// manifest is written first and a failure sweeps the partial output
    /// before the error propagates; file-backed shards share one block
    /// cache bounded by `cache_budget`.
    fn produce(
        bits: u32,
        backend: &StorageBackend,
        cache_budget: Option<usize>,
        assemble: impl Fn(&ShardHome<'_>, usize) -> Result<Shard, StorageError> + Sync,
    ) -> Result<Self, StorageError> {
        assert!(
            bits <= MAX_SHARD_BITS,
            "shard bits {bits} exceeds MAX_SHARD_BITS ({MAX_SHARD_BITS})"
        );
        let cache = Arc::new(BlockCache::new(cache_budget));
        let all = |home: &ShardHome<'_>| {
            let results: Vec<Result<Shard, StorageError>> = (0..1usize << bits)
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|s| assemble(home, s))
                .collect();
            results
                .into_iter()
                .collect::<Result<Vec<Shard>, StorageError>>()
        };
        let shards = match backend {
            StorageBackend::InMemory => all(&ShardHome::Memory)?,
            StorageBackend::OnDisk(dir) => {
                fs::create_dir_all(dir).map_err(|e| StorageError::Io {
                    path: dir.to_path_buf(),
                    error: e,
                })?;
                let built = write_manifest(dir, bits)
                    .and_then(|()| all(&ShardHome::Disk { dir, cache: &cache }));
                if built.is_err() {
                    // Don't leave a half-written index behind for any caller
                    // (the update manager additionally removes the
                    // directories it owns).
                    cleanup_partial_index(dir, 1usize << bits);
                }
                built?
            }
        };
        Ok(Self::from_parts(bits, shards, cache))
    }

    /// The number of label-prefix bits selecting a shard (`k`).
    pub fn shard_bits(&self) -> u32 {
        self.bits
    }

    /// The number of shards (`2^k`).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, indexed by label prefix.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Whether the shards are served from disk (paged reads) rather than
    /// from memory.
    pub fn is_file_backed(&self) -> bool {
        self.shards.iter().any(Shard::is_file_backed)
    }

    /// The shard an entry with this label would live in.
    pub fn shard_of(&self, label: &Label) -> usize {
        shard_of_label(label, self.bits)
    }

    /// Total number of entries across all shards (the index-size leakage,
    /// identical to the unsharded build's).
    pub fn len(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }

    /// Whether no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(Shard::is_empty)
    }

    /// Approximate server-side storage footprint in bytes
    /// (labels + encrypted payloads, summed over shards) — independent of
    /// where the bytes live.
    pub fn storage_bytes(&self) -> usize {
        self.shards.iter().map(Shard::storage_bytes).sum()
    }

    /// Bytes currently resident in memory: every label table, every
    /// in-memory region in full, and the file-backed regions' blocks held
    /// by the block cache (bounded by the cache budget when one is set).
    /// This is the number the spill-to-disk backend exists to bound.
    pub fn resident_bytes(&self) -> usize {
        let memory_regions: usize = self
            .shards
            .iter()
            .filter(|shard| !shard.is_file_backed())
            .map(Shard::region_len)
            .sum();
        self.len() * crate::pibas::LABEL_LEN + memory_regions + self.cache.stats().resident_bytes
    }

    /// Number of paged block reads that have failed across all file-backed
    /// shards since open (always 0 for in-memory shards). Failed reads
    /// surface as typed [`StorageError`]s from the probing search; this is
    /// the aggregate operator-side counter of how often that happened.
    pub fn read_errors(&self) -> u64 {
        self.shards.iter().map(Shard::read_errors).sum()
    }

    /// The block cache's counters: probe hits and misses, evictions
    /// performed to stay inside the [`StorageConfig::cache_budget`], and
    /// the ciphertext-block bytes currently resident (all 0 for an
    /// in-memory index, whose probes never reach the cache).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Probes shard `shard` for `label`, after the fault injectors.
    fn probe(&self, shard: usize, label: &Label) -> Result<Option<CipherSpan<'_>>, StorageError> {
        for injector in self.faults.iter().rev() {
            injector.decide(shard as u32)?;
        }
        self.shards[shard].try_get(label)
    }

    /// Looks up the ciphertext stored under `label` in its shard.
    ///
    /// `Ok(None)` means the label is absent; `Err` means the storage
    /// failed to resolve the probe (never happens for in-memory shards).
    pub fn try_get(&self, label: &Label) -> Result<Option<CipherSpan<'_>>, StorageError> {
        self.probe(self.shard_of(label), label)
    }

    /// Returns all stored ciphertexts (shard order, copied out; used by
    /// leakage-oriented tests).
    pub fn ciphertexts(&self) -> Result<Vec<Vec<u8>>, StorageError> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.ciphertexts()?);
        }
        Ok(out)
    }

    /// Routes every later probe through the given shared
    /// [`FaultInjector`] — the primitive underneath the
    /// [`FaultInjectable`](crate::fault::FaultInjectable) trait, which is
    /// the surface tests should use. Injectors stack: the newest decides
    /// first. Test support; a production index never has one.
    pub fn attach_fault_injector(&mut self, injector: &Arc<FaultInjector>) {
        self.faults.push(Arc::clone(injector));
    }

    /// Serializes every shard (plus an `index.meta` manifest) into `dir`,
    /// creating it if needed. Works for every region home; shard files are
    /// written in parallel and the output is deterministic, so saving the
    /// same index twice produces byte-identical directories.
    pub fn save_to_dir(&self, dir: impl AsRef<Path>) -> Result<(), StorageError> {
        save_shards_to_dir(dir.as_ref(), self.bits, &self.shards)
    }

    /// Cold-opens an index previously written by [`save_to_dir`] (or built
    /// straight to disk through a [`StorageConfig::on_disk`] build): loads
    /// each shard's label directory, leaves the ciphertext regions on
    /// disk, and serves them through paged reads.
    ///
    /// # Errors
    ///
    /// Every malformed input — missing or truncated files, wrong magic,
    /// unsupported versions, corrupt label directories — surfaces as a
    /// typed [`StorageError`]; nothing in the open path panics.
    ///
    /// [`save_to_dir`]: Self::save_to_dir
    pub fn open_dir(dir: impl AsRef<Path>) -> Result<Self, StorageError> {
        Self::open_dir_with_budget(dir, None)
    }

    /// Like [`open_dir`](Self::open_dir), but bounds the resident
    /// ciphertext blocks of the opened index at `cache_budget` bytes
    /// (`None` = unlimited): all shards share one clock block cache that
    /// evicts cold blocks once the budget is reached, so a long-running
    /// server's residency tracks its working set rather than everything it
    /// ever touched. Query results are identical for every budget; see
    /// [`cache_stats`](Self::cache_stats) for the hit/miss/eviction
    /// counters.
    pub fn open_dir_with_budget(
        dir: impl AsRef<Path>,
        cache_budget: Option<usize>,
    ) -> Result<Self, StorageError> {
        let cache = Arc::new(BlockCache::new(cache_budget));
        let (bits, shards) = open_shards_from_dir(dir.as_ref(), Some(&cache))?;
        Ok(Self::from_parts(bits, shards, cache))
    }

    /// Opens a saved index directory fully **memory-resident**: every
    /// shard's ciphertext region is read into memory under exactly the
    /// directory its file serializes — so a resident open, a paged open,
    /// and the index that was originally saved all resolve every label to
    /// identical bytes.
    ///
    /// This is the restore path for hosts where the index fits in RAM (the
    /// update manager's `storage_root: None` reopen uses it for
    /// structurally merged instances, whose physical layout is not
    /// reproducible from a rebuild).
    pub fn open_dir_resident(dir: impl AsRef<Path>) -> Result<Self, StorageError> {
        let (bits, shards) = open_shards_from_dir(dir.as_ref(), None)?;
        Ok(Self::from_parts(
            bits,
            shards,
            Arc::new(BlockCache::new(None)),
        ))
    }

    /// Structurally merges `inputs` into one index in the backend `config`
    /// selects (on disk: written into its directory, paged through a cache
    /// bounded by `config.cache_budget`). Per shard, the inputs' ciphertext
    /// regions are concatenated **verbatim** in input order and the label
    /// directory re-emitted over the rebased offsets, whether each input's
    /// region is in memory or in a file. No ciphertext is decrypted or
    /// re-encrypted; the merged index stores exactly the union of the
    /// inputs' `(label, ciphertext)` pairs. `config.shard_bits` is ignored:
    /// the inputs' layout carries over.
    ///
    /// An on-disk output follows the commit discipline of the streamed
    /// build: `index.meta` first, shard files after (each tmp+renamed), and
    /// any failure sweeps the partial output before the error propagates.
    /// The caller owns the durable commit record (the update manager
    /// writes its `owner.meta` sidecar last).
    ///
    /// # Errors
    ///
    /// [`StorageError::Unsupported`] — the caller's fall-back-to-rebuild
    /// signal — if there are no inputs, they disagree on shard bits, a
    /// merged shard would exceed the 4 GiB region bound, or two inputs
    /// store the same label (a cross-part PRF collision). All other
    /// failures surface as the usual typed errors.
    pub fn merge(inputs: &[&ShardedIndex], config: &StorageConfig) -> Result<Self, StorageError> {
        let bits = match inputs.first() {
            Some(first) => first.bits,
            None => return Err(StorageError::Unsupported("structural merge of zero inputs")),
        };
        if inputs.iter().any(|index| index.bits != bits) {
            return Err(StorageError::Unsupported(
                "structural merge across differing shard layouts",
            ));
        }
        Self::produce(bits, &config.backend, config.cache_budget, |home, s| {
            let parts: Vec<&Shard> = inputs.iter().map(|index| &index.shards[s]).collect();
            merge_shards(home, s, &parts)
        })
    }
}

impl IndexLookup for ShardedIndex {
    fn try_get(&self, label: &Label) -> Result<Option<CipherSpan<'_>>, StorageError> {
        ShardedIndex::try_get(self, label)
    }

    /// Shard-grouped probe resolution: large probe vectors are visited in
    /// shard order so consecutive lookups hit the same (small) table, then
    /// results are written back in probe order. Small rounds — where the
    /// grouping bookkeeping would cost more than the locality buys — probe
    /// directly in input order. The first failed probe aborts the batch
    /// with its typed error.
    fn try_get_many<'a>(
        &'a self,
        labels: &[Label],
        out: &mut Vec<Option<CipherSpan<'a>>>,
    ) -> Result<(), StorageError> {
        /// Probe counts below this skip the sort-by-shard pass.
        const GROUP_THRESHOLD: usize = 64;

        out.clear();
        if self.bits == 0 || labels.len() < GROUP_THRESHOLD {
            for label in labels {
                out.push(self.try_get(label)?);
            }
            return Ok(());
        }
        out.resize(labels.len(), None);
        let mut order: Vec<(u32, u32)> = labels
            .iter()
            .enumerate()
            .map(|(slot, label)| (self.shard_of(label) as u32, slot as u32))
            .collect();
        order.sort_unstable();
        for (shard, slot) in order {
            out[slot as usize] = self.probe(shard as usize, &labels[slot as usize])?;
        }
        Ok(())
    }
}

/// One shard's assembly job: member entries as (chunk, entry) index pairs
/// in global order, plus the exact ciphertext byte tally.
type ShardJob = (Vec<(u32, u32)>, usize);

/// The per-entry shard scatter: per-shard member lists (chunk, entry index
/// pairs in global order) plus each shard's exact ciphertext byte tally.
/// Only index pairs move here — O(entries) u32 writes — not ciphertext
/// bytes; the byte copying in the assembly pass is parallel per shard.
fn scatter_members(bits: u32, chunks: &[KeywordChunk]) -> Vec<ShardJob> {
    let shard_count = 1usize << bits;
    let mut members: Vec<Vec<(u32, u32)>> = (0..shard_count).map(|_| Vec::new()).collect();
    let mut arena_bytes: Vec<usize> = vec![0; shard_count];
    for (c, chunk) in chunks.iter().enumerate() {
        for (e, (label, &(_, len))) in chunk.labels.iter().zip(&chunk.spans).enumerate() {
            let shard = shard_of_label(label, bits);
            members[shard].push((c as u32, e as u32));
            arena_bytes[shard] += len as usize;
        }
    }
    members.into_iter().zip(arena_bytes).collect()
}

/// The BuildIndex tail: distributes per-keyword chunks over
/// `2^config.shard_bits` shards and assembles every shard **in parallel**
/// in the backend `config` selects.
///
/// Two passes: the cheap sequential [`scatter_members`] pass (indices
/// only — no ciphertext bytes move), then one independent assembly job per shard
/// appending its member ciphertexts — into an exactly pre-sized region in
/// memory, or straight into its shard file on disk (no intermediate
/// arena). Entries keep the global `(keyword, counter)` order within each
/// shard, so the result is deterministic regardless of thread scheduling
/// and both backends hold the same bytes.
fn shard_chunks(
    config: &StorageConfig,
    chunks: Vec<KeywordChunk>,
) -> Result<ShardedIndex, StorageError> {
    let jobs = scatter_members(config.shard_bits, &chunks);
    ShardedIndex::produce(
        config.shard_bits,
        &config.backend,
        config.cache_budget,
        |home, s| {
            let (members, region_len) = &jobs[s];
            let span = |&(c, e): &(u32, u32)| {
                let chunk = &chunks[c as usize];
                let (offset, len) = chunk.spans[e as usize];
                (chunk.labels[e as usize], offset as usize, len)
            };
            home.assemble(
                s,
                members.len(),
                *region_len,
                members.iter().map(|member| {
                    let (label, _, len) = span(member);
                    (label, len)
                }),
                |writer| {
                    for member in members {
                        let (_, offset, len) = span(member);
                        let buf = &chunks[member.0 as usize].buf;
                        writer.write_all(&buf[offset..offset + len as usize])?;
                    }
                    Ok(())
                },
            )
        },
    )
}

impl SseScheme {
    /// `BuildIndex(k, D)`: encrypts the multimap into a dictionary of
    /// `2^shard_bits` label-prefix shards held by the backend `config`
    /// selects — assembled in memory, or streamed straight to their
    /// serialized files. Per-keyword work runs in parallel; RNG
    /// consumption (one nonce seed per keyword) — and therefore every
    /// ciphertext byte — is identical for every shard count and backend.
    pub fn build_index_stored<R: RngCore + CryptoRng>(
        key: &SseKey,
        database: &SseDatabase,
        config: &StorageConfig,
        rng: &mut R,
    ) -> Result<ShardedIndex, StorageError> {
        shard_chunks(config, Self::chunks_from_database(key, database, rng))
    }

    /// [`build_index_stored`](Self::build_index_stored) over pre-derived
    /// per-keyword tokens instead of a master key (the Constant schemes'
    /// DPRF-derived tokens).
    pub fn build_index_from_token_lists_stored<R: RngCore + CryptoRng>(
        lists: &[(SearchToken, Vec<Vec<u8>>)],
        config: &StorageConfig,
        rng: &mut R,
    ) -> Result<ShardedIndex, StorageError> {
        shard_chunks(config, Self::chunks_from_token_lists(lists, rng))
    }

    /// Fixed-stride [`build_index_stored`](Self::build_index_stored): every
    /// payload is a `[u8; P]` array — the fast path the range schemes'
    /// grouped builds use.
    pub fn build_index_fixed_stored<const P: usize, R: RngCore + CryptoRng>(
        key: &SseKey,
        lists: &[(Vec<u8>, Vec<[u8; P]>)],
        config: &StorageConfig,
        rng: &mut R,
    ) -> Result<ShardedIndex, StorageError> {
        shard_chunks(config, Self::chunks_from_fixed(key, lists, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultInjectable;
    use crate::pibas::LABEL_LEN;
    use crate::storage::test_support::TempDir;
    use crate::storage::{shard_file_name, shard_matches_file};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;
    use rsse_crypto::{Key, KEY_LEN};

    fn db_from(entries: &[(Vec<u8>, Vec<u8>)]) -> SseDatabase {
        let mut db = SseDatabase::new();
        for (k, v) in entries {
            db.add(k.clone(), v.clone());
        }
        db
    }

    /// An in-memory build with `2^bits` shards.
    fn build_mem(key: &SseKey, db: &SseDatabase, bits: u32, rng: &mut ChaCha20Rng) -> ShardedIndex {
        SseScheme::build_index_stored(key, db, &StorageConfig::in_memory(bits), rng).unwrap()
    }

    /// Each token's decrypted payload list from one lockstep
    /// `search_batch_scan` pass (undecryptable entries skipped, as in
    /// `search`).
    fn batch_payloads<I: IndexLookup>(
        index: &I,
        tokens: &[SearchToken],
    ) -> Result<Vec<Vec<Vec<u8>>>, StorageError> {
        let ciphers: Vec<_> = tokens.iter().map(SearchToken::payload_cipher).collect();
        let mut results = vec![Vec::new(); tokens.len()];
        SseScheme::search_batch_scan(index, tokens, |t, ciphertext| {
            if let Some(plaintext) = ciphers[t].decrypt(ciphertext) {
                results[t].push(plaintext);
            }
        })?;
        Ok(results)
    }

    #[test]
    fn shard_of_label_uses_top_bits() {
        let mut label = [0u8; LABEL_LEN];
        label[0] = 0b1010_0000;
        assert_eq!(shard_of_label(&label, 0), 0);
        assert_eq!(shard_of_label(&label, 1), 1);
        assert_eq!(shard_of_label(&label, 3), 0b101);
        assert_eq!(shard_of_label(&label, 8), 0b1010_0000);
    }

    #[test]
    fn default_is_an_empty_unsharded_index() {
        let index = ShardedIndex::default();
        assert_eq!(index.shard_bits(), 0);
        assert_eq!(index.shard_count(), 1);
        assert!(index.is_empty());
        assert!(!index.is_file_backed());
        assert_eq!(index.len(), 0);
        assert!(index.try_get(&[0u8; LABEL_LEN]).unwrap().is_none());
    }

    #[test]
    fn entries_land_in_their_prefix_shard() {
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let key = SseScheme::setup(&mut rng);
        let db = db_from(
            &(0..64u64)
                .map(|i| {
                    (
                        format!("kw{}", i % 8).into_bytes(),
                        i.to_le_bytes().to_vec(),
                    )
                })
                .collect::<Vec<_>>(),
        );
        let index = build_mem(&key, &db, 4, &mut rng);
        assert_eq!(index.shard_count(), 16);
        assert_eq!(index.len(), 64);
        // Every shard's entries carry that shard's label prefix, and every
        // keyword remains fully searchable across the shard split.
        for shard in index.shards() {
            for label in shard.labels() {
                assert_eq!(
                    &index.shards()[index.shard_of(label)] as *const _,
                    shard as *const _
                );
            }
        }
        for kw in 0..8u64 {
            let token = SseScheme::trapdoor(&key, format!("kw{kw}").as_bytes());
            assert_eq!(SseScheme::search(&index, &token).unwrap().len(), 8);
        }
    }

    #[test]
    fn search_batch_scan_counts_match_per_token_counts() {
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let key = SseScheme::setup(&mut rng);
        let db = db_from(
            &(0..40u64)
                .map(|i| {
                    (
                        format!("kw{}", i % 5).into_bytes(),
                        i.to_le_bytes().to_vec(),
                    )
                })
                .collect::<Vec<_>>(),
        );
        let index = build_mem(&key, &db, 3, &mut rng);
        let tokens: Vec<SearchToken> = (0..6u64)
            .map(|kw| SseScheme::trapdoor(&key, format!("kw{kw}").as_bytes()))
            .collect();
        let counts = SseScheme::search_batch_scan(&index, &tokens, |_, _| {}).unwrap();
        let expected: Vec<usize> = tokens
            .iter()
            .map(|t| SseScheme::search(&index, t).unwrap().len())
            .collect();
        assert_eq!(counts, expected);
        assert_eq!(counts, vec![8, 8, 8, 8, 8, 0]);
    }

    #[test]
    fn file_backed_build_pages_in_only_probed_blocks() {
        // ~200 KiB of ciphertext in one shard → several 64 KiB blocks; one
        // probed keyword must not fault in the whole region.
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let key = SseScheme::setup(&mut rng);
        let mut db = SseDatabase::new();
        for kw in 0..50u64 {
            db.add(format!("kw{kw}").into_bytes(), vec![kw as u8; 4096]);
        }
        let dir = TempDir::new("paged");
        let mut rng_build = ChaCha20Rng::seed_from_u64(4);
        let index = SseScheme::build_index_stored(
            &key,
            &db,
            &StorageConfig::on_disk(0, dir.path()),
            &mut rng_build,
        )
        .unwrap();
        assert!(index.is_file_backed());
        let directory_bytes = index.len() * LABEL_LEN;
        assert_eq!(
            index.resident_bytes(),
            directory_bytes,
            "nothing faulted in yet"
        );
        let token = SseScheme::trapdoor(&key, b"kw7");
        assert_eq!(SseScheme::search(&index, &token).unwrap().len(), 1);
        let resident = index.resident_bytes() - directory_bytes;
        assert!(resident > 0, "the probed block must be resident");
        assert!(
            resident < index.storage_bytes() - directory_bytes,
            "a single probe must not fault in the whole region \
             ({resident} of {} region bytes resident)",
            index.storage_bytes() - directory_bytes
        );
        // Without a budget the region still pages through the index's one
        // block cache: the single probed entry touched one block, which
        // stays resident, and nothing is ever evicted.
        let stats = index.cache_stats();
        assert_eq!(stats.evictions, 0, "no budget, no evictions");
        assert_eq!(stats.misses, 1, "one probed entry touches one block");
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.resident_bytes, resident);
    }

    /// A database whose ciphertext region spans many paged-read blocks.
    fn multi_block_db(keywords: u64, payload_len: usize) -> SseDatabase {
        let mut db = SseDatabase::new();
        for kw in 0..keywords {
            db.add(format!("kw{kw}").into_bytes(), vec![kw as u8; payload_len]);
        }
        db
    }

    #[test]
    fn budgeted_cache_bounds_residency_and_answers_identically() {
        // ~800 KiB of ciphertext → ~13 blocks of ~64 KiB. A 25% budget
        // must keep residency bounded while every query answers exactly
        // what the unbounded index answers.
        let mut rng = ChaCha20Rng::seed_from_u64(40);
        let key = SseScheme::setup(&mut rng);
        let db = multi_block_db(200, 4096);
        let dir = TempDir::new("budget");
        let mut rng_build = ChaCha20Rng::seed_from_u64(41);
        SseScheme::build_index_stored(
            &key,
            &db,
            &StorageConfig::on_disk(2, dir.path()),
            &mut rng_build,
        )
        .unwrap();

        let unbounded = ShardedIndex::open_dir(dir.path()).unwrap();
        let region_bytes = unbounded.storage_bytes() - unbounded.len() * LABEL_LEN;
        let budget = region_bytes / 4;
        let budgeted = ShardedIndex::open_dir_with_budget(dir.path(), Some(budget)).unwrap();

        for kw in 0..200u64 {
            let token = SseScheme::trapdoor(&key, format!("kw{kw}").as_bytes());
            assert_eq!(
                SseScheme::search(&budgeted, &token).unwrap(),
                SseScheme::search(&unbounded, &token).unwrap(),
                "budgeted results must be identical to unbounded for kw{kw}"
            );
            let stats = budgeted.cache_stats();
            assert!(
                stats.resident_bytes <= budget,
                "resident {} exceeds budget {budget} after kw{kw}",
                stats.resident_bytes
            );
        }
        let stats = budgeted.cache_stats();
        assert!(stats.misses > 0, "cold blocks must count as misses");
        assert!(
            stats.evictions > 0,
            "a 25% budget over a multi-block region must evict: {stats:?}"
        );
        // The unbounded index keeps everything it touched resident…
        let warm = unbounded.cache_stats();
        assert_eq!(warm.evictions, 0, "no budget, no evictions");
        assert_eq!(
            warm.resident_bytes, region_bytes,
            "everything touched stays"
        );
        // …and repeated probing of one keyword is served from cache.
        let token = SseScheme::trapdoor(&key, b"kw0");
        let before = budgeted.cache_stats();
        for _ in 0..4 {
            SseScheme::search(&budgeted, &token).unwrap();
        }
        let after = budgeted.cache_stats();
        assert!(after.hits > before.hits, "warm probes must hit the cache");
    }

    #[test]
    fn zero_budget_still_answers_with_nothing_resident() {
        let mut rng = ChaCha20Rng::seed_from_u64(42);
        let key = SseScheme::setup(&mut rng);
        let db = multi_block_db(40, 2048);
        let dir = TempDir::new("budget-zero");
        let mut rng_build = ChaCha20Rng::seed_from_u64(43);
        SseScheme::build_index_stored(
            &key,
            &db,
            &StorageConfig::on_disk(0, dir.path()),
            &mut rng_build,
        )
        .unwrap();
        let index = ShardedIndex::open_dir_with_budget(dir.path(), Some(0)).unwrap();
        for kw in 0..40u64 {
            let token = SseScheme::trapdoor(&key, format!("kw{kw}").as_bytes());
            assert_eq!(SseScheme::search(&index, &token).unwrap().len(), 1);
        }
        let stats = index.cache_stats();
        assert_eq!(stats.resident_bytes, 0, "nothing fits a zero budget");
        assert_eq!(stats.hits, 0);
        assert!(stats.misses > 0);
    }

    #[test]
    fn injected_faults_surface_as_storage_errors() {
        let mut rng = ChaCha20Rng::seed_from_u64(44);
        let key = SseScheme::setup(&mut rng);
        let db = db_from(
            &(0..24u64)
                .map(|i| {
                    (
                        format!("kw{}", i % 3).into_bytes(),
                        i.to_le_bytes().to_vec(),
                    )
                })
                .collect::<Vec<_>>(),
        );
        let mut index = build_mem(&key, &db, 2, &mut rng);
        let token = SseScheme::trapdoor(&key, b"kw1");
        assert_eq!(SseScheme::search(&index, &token).unwrap().len(), 8);

        // Let the first 3 probes through, then fail everything: the scan
        // (8 hits + 1 terminating miss) must abort with the typed error
        // instead of returning a silently shortened result.
        index.inject_read_faults(3);
        match SseScheme::search(&index, &token) {
            Err(StorageError::Io { path, .. }) => {
                assert_eq!(path, Path::new(crate::fault::FAULT_PATH));
            }
            other => panic!("expected Err(Io), got {other:?}"),
        }
        // The batched scan fails the same way.
        assert!(matches!(
            SseScheme::search_batch_scan(&index, std::slice::from_ref(&token), |_, _| {}),
            Err(StorageError::Io { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A `shard_bits = 0` in-memory build is one arena holding
        /// **byte-identical** `(label, ciphertext)` pairs to the reference
        /// per-entry dictionary, with the arena spans tiling the region
        /// gap-free — given the same key and RNG stream.
        #[test]
        fn unsharded_is_byte_identical_to_plain_arena(entries in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..6),
             proptest::collection::vec(any::<u8>(), 0..32)), 0..60),
            seed in any::<u64>())
        {
            let db = db_from(&entries);
            let key = SseScheme::key_from(Key::from_bytes([0x5A; KEY_LEN]));

            let mut rng_reference = ChaCha20Rng::seed_from_u64(seed);
            let reference = crate::pibas::reference::build_index(&key, &db, &mut rng_reference);
            let mut rng_sharded = ChaCha20Rng::seed_from_u64(seed);
            let sharded = build_mem(&key, &db, 0, &mut rng_sharded);

            prop_assert_eq!(sharded.shard_count(), 1);
            let shard = &sharded.shards()[0];
            prop_assert!(!shard.is_file_backed());
            prop_assert_eq!(shard.len(), reference.dictionary.len());
            for (label, ciphertext) in &reference.dictionary {
                prop_assert_eq!(shard.try_get(label).unwrap().as_deref(), Some(ciphertext.as_slice()),
                    "k=0 shard must hold the reference dictionary's bytes");
            }
            let mut tiled = 0usize;
            for (_, offset, len) in shard.entries_by_offset() {
                prop_assert_eq!(offset as usize, tiled, "arena spans must tile the region");
                tiled += len as usize;
            }
            prop_assert_eq!(tiled, shard.region_len());
            // The region bytes and directory, in region order, are exactly
            // the saved shard file's.
            let dir = TempDir::new("prop-k0");
            sharded.save_to_dir(dir.path()).unwrap();
            prop_assert!(shard_matches_file(shard, &dir.path().join(shard_file_name(0))));
        }

        /// Sharding is layout-only: for arbitrary multimaps and any k, the
        /// sharded index stores the same (label, ciphertext) pairs as the
        /// k=0 build and answers every keyword search identically.
        #[test]
        fn sharded_search_equals_unsharded_for_random_datasets(entries in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..5),
             proptest::collection::vec(any::<u8>(), 0..24)), 0..50),
            bits in 1u32..9,
            seed in any::<u64>())
        {
            let db = db_from(&entries);
            let key = SseScheme::key_from(Key::from_bytes([0xC3; KEY_LEN]));

            let mut rng_flat = ChaCha20Rng::seed_from_u64(seed);
            let flat = build_mem(&key, &db, 0, &mut rng_flat);
            let mut rng_sharded = ChaCha20Rng::seed_from_u64(seed);
            let sharded = build_mem(&key, &db, bits, &mut rng_sharded);

            prop_assert_eq!(sharded.len(), flat.len());
            prop_assert_eq!(sharded.storage_bytes(), flat.storage_bytes());
            // Entry-level equality: every label resolves to the same bytes.
            for shard in flat.shards() {
                for label in shard.labels() {
                    prop_assert_eq!(
                        sharded.try_get(label).unwrap().map(|s| s.to_vec()),
                        flat.try_get(label).unwrap().map(|s| s.to_vec())
                    );
                }
            }
            // Search-level equality, per-token and batched.
            let tokens: Vec<SearchToken> = db.iter()
                .map(|(kw, _)| SseScheme::trapdoor(&key, kw))
                .collect();
            for token in &tokens {
                prop_assert_eq!(
                    SseScheme::search(&sharded, token).unwrap(),
                    SseScheme::search(&flat, token).unwrap()
                );
            }
            let batched = batch_payloads(&sharded, &tokens).unwrap();
            let per_token: Vec<Vec<Vec<u8>>> = tokens.iter()
                .map(|t| SseScheme::search(&flat, t).unwrap())
                .collect();
            prop_assert_eq!(batched, per_token);
        }

        /// Regression: the batched scan on a *shuffled* token vector returns,
        /// per token, exactly what per-token `search` returns — so the
        /// result multiset over the whole vector is independent of token
        /// order and of batching.
        #[test]
        fn search_batch_on_shuffled_tokens_matches_per_token_search(
            entries in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 1..4),
                 proptest::collection::vec(any::<u8>(), 0..16)), 0..40),
            bits in 0u32..7,
            by in 0usize..13,
            seed in any::<u64>())
        {
            let db = db_from(&entries);
            let mut rng = ChaCha20Rng::seed_from_u64(seed);
            let key = SseScheme::setup(&mut rng);
            let index = build_mem(&key, &db, bits, &mut rng);

            // Tokens for every keyword plus two absent ones, then shuffled
            // (deterministic rotation + reversal keeps proptest shrinking sane).
            let mut tokens: Vec<SearchToken> = db.iter()
                .map(|(kw, _)| SseScheme::trapdoor(&key, kw))
                .collect();
            tokens.push(SseScheme::trapdoor(&key, b"absent-1"));
            tokens.push(SseScheme::trapdoor(&key, b"absent-2"));
            let split = by % tokens.len().max(1);
            tokens.rotate_left(split);
            tokens.reverse();

            let batched = batch_payloads(&index, &tokens).unwrap();
            let per_token: Vec<Vec<Vec<u8>>> = tokens.iter()
                .map(|t| SseScheme::search(&index, t).unwrap())
                .collect();
            prop_assert_eq!(&batched, &per_token, "per-token results must be identical");

            // Multiset equality over the flattened result vector.
            let mut flat_batched: Vec<Vec<u8>> = batched.into_iter().flatten().collect();
            let mut flat_single: Vec<Vec<u8>> = per_token.into_iter().flatten().collect();
            flat_batched.sort();
            flat_single.sort();
            prop_assert_eq!(flat_batched, flat_single);
        }

        /// PR 3 acceptance property (a): a file-backed build — same key,
        /// same RNG stream — resolves every label to the same bytes and
        /// answers every search identically to the in-memory arena, at
        /// shard_bits ∈ {0, 4}.
        #[test]
        fn file_backed_build_equals_in_memory(entries in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..5),
             proptest::collection::vec(any::<u8>(), 0..24)), 0..40),
            four_bits in any::<bool>(),
            seed in any::<u64>())
        {
            let bits = if four_bits { 4 } else { 0 };
            let db = db_from(&entries);
            let key = SseScheme::key_from(Key::from_bytes([0x3C; KEY_LEN]));

            let mut rng_mem = ChaCha20Rng::seed_from_u64(seed);
            let memory = build_mem(&key, &db, bits, &mut rng_mem);
            let dir = TempDir::new("prop-eq");
            let mut rng_file = ChaCha20Rng::seed_from_u64(seed);
            let file = SseScheme::build_index_stored(
                &key, &db, &StorageConfig::on_disk(bits, dir.path()), &mut rng_file).unwrap();

            prop_assert!(file.is_file_backed());
            prop_assert_eq!(file.len(), memory.len());
            prop_assert_eq!(file.storage_bytes(), memory.storage_bytes());
            for shard in memory.shards() {
                for label in shard.labels() {
                    prop_assert_eq!(
                        file.try_get(label).unwrap().map(|s| s.to_vec()),
                        memory.try_get(label).unwrap().map(|s| s.to_vec())
                    );
                }
            }
            let tokens: Vec<SearchToken> = db.iter()
                .map(|(kw, _)| SseScheme::trapdoor(&key, kw))
                .collect();
            for token in &tokens {
                prop_assert_eq!(
                    SseScheme::search(&file, token).unwrap(),
                    SseScheme::search(&memory, token).unwrap()
                );
            }
            let batched = batch_payloads(&file, &tokens).unwrap();
            prop_assert_eq!(batched, batch_payloads(&memory, &tokens).unwrap());
        }

        /// PR 3 acceptance property (b): `save_to_dir` → `open_dir` →
        /// `save_to_dir` round-trips **byte-identically** (every shard file
        /// and the manifest), at shard_bits ∈ {0, 4} — and the streamed
        /// on-disk build writes those exact bytes in the first place.
        #[test]
        fn save_open_save_round_trips_byte_identically(entries in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..5),
             proptest::collection::vec(any::<u8>(), 0..24)), 0..40),
            four_bits in any::<bool>(),
            seed in any::<u64>())
        {
            let bits = if four_bits { 4 } else { 0 };
            let db = db_from(&entries);
            let key = SseScheme::key_from(Key::from_bytes([0x77; KEY_LEN]));

            let mut rng = ChaCha20Rng::seed_from_u64(seed);
            let memory = build_mem(&key, &db, bits, &mut rng);

            let saved = TempDir::new("prop-rt-a");
            memory.save_to_dir(saved.path()).unwrap();
            let reopened = ShardedIndex::open_dir(saved.path()).unwrap();
            prop_assert_eq!(reopened.shard_bits(), bits);
            prop_assert_eq!(reopened.len(), memory.len());

            let resaved = TempDir::new("prop-rt-b");
            reopened.save_to_dir(resaved.path()).unwrap();
            prop_assert!(dirs_equal(saved.path(), resaved.path()),
                "save → open → save must be byte-identical");

            // The streamed build writes the same bytes as save_to_dir.
            let streamed = TempDir::new("prop-rt-c");
            let mut rng_stream = ChaCha20Rng::seed_from_u64(seed);
            SseScheme::build_index_stored(
                &key, &db, &StorageConfig::on_disk(bits, streamed.path()), &mut rng_stream).unwrap();
            prop_assert!(dirs_equal(saved.path(), streamed.path()),
                "streamed build must write the bytes save_to_dir writes");
        }
    }

    /// Builds one in-memory index per key byte over disjoint keyword sets,
    /// so cross-part labels are distinct (different SSE keys).
    fn merge_parts(bits: u32, key_bytes: &[u8]) -> Vec<(SseKey, ShardedIndex)> {
        key_bytes
            .iter()
            .map(|&byte| {
                let key = SseScheme::key_from(Key::from_bytes([byte; KEY_LEN]));
                let db = db_from(
                    &(0..24u64)
                        .map(|i| {
                            (
                                format!("p{byte}-kw{}", i % 6).into_bytes(),
                                (u64::from(byte) * 1000 + i).to_le_bytes().to_vec(),
                            )
                        })
                        .collect::<Vec<_>>(),
                );
                let mut rng = ChaCha20Rng::seed_from_u64(u64::from(byte));
                let index = build_mem(&key, &db, bits, &mut rng);
                (key, index)
            })
            .collect()
    }

    #[test]
    fn in_memory_merge_keeps_every_part_searchable() {
        let parts = merge_parts(2, &[1, 2, 3]);
        let inputs: Vec<&ShardedIndex> = parts.iter().map(|(_, index)| index).collect();
        let merged = ShardedIndex::merge(&inputs, &StorageConfig::in_memory(2)).unwrap();
        assert_eq!(merged.shard_bits(), 2);
        assert_eq!(
            merged.len(),
            parts.iter().map(|(_, index)| index.len()).sum::<usize>()
        );
        for (key, index) in &parts {
            for kw in 0..7u64 {
                for byte in 1u8..=3 {
                    let token = SseScheme::trapdoor(key, format!("p{byte}-kw{kw}").as_bytes());
                    let merged_hits = SseScheme::search(&merged, &token).unwrap();
                    let part_hits = SseScheme::search(index, &token).unwrap();
                    assert_eq!(
                        merged_hits, part_hits,
                        "part key must see exactly its own entries in the merge"
                    );
                }
            }
        }
    }

    #[test]
    fn dir_merge_answers_like_the_in_memory_merge_and_reopens_resident() {
        let parts = merge_parts(2, &[5, 6, 7]);
        let dirs: Vec<TempDir> = (0..parts.len())
            .map(|i| TempDir::new(&format!("merge-in-{i}")))
            .collect();
        for ((_, index), dir) in parts.iter().zip(&dirs) {
            index.save_to_dir(dir.path()).unwrap();
        }
        let out = TempDir::new("merge-out");
        let opened: Vec<ShardedIndex> = dirs
            .iter()
            .map(|dir| ShardedIndex::open_dir(dir.path()).unwrap())
            .collect();
        let paged_inputs: Vec<&ShardedIndex> = opened.iter().collect();
        let merged_paged =
            ShardedIndex::merge(&paged_inputs, &StorageConfig::on_disk(2, out.path())).unwrap();
        assert!(merged_paged.is_file_backed());
        assert_eq!(ShardedIndex::open_dir(out.path()).unwrap().shard_bits(), 2);

        let inputs: Vec<&ShardedIndex> = parts.iter().map(|(_, index)| index).collect();
        let merged_memory = ShardedIndex::merge(&inputs, &StorageConfig::in_memory(2)).unwrap();
        assert_eq!(merged_paged.len(), merged_memory.len());

        // A resident reopen of the merged directory is byte-identical to
        // the in-memory merge: same region bytes, same offset tables — and
        // both hold, in region order, exactly the merged shard files.
        let resident = ShardedIndex::open_dir_resident(out.path()).unwrap();
        assert!(!resident.is_file_backed());
        for (s, (a, b)) in resident
            .shards()
            .iter()
            .zip(merged_memory.shards())
            .enumerate()
        {
            assert_eq!(a.region_bytes().unwrap(), b.region_bytes().unwrap());
            assert_eq!(a.table, b.table);
            let file = out.path().join(shard_file_name(s));
            assert!(shard_matches_file(a, &file));
            assert!(shard_matches_file(b, &file));
        }

        // And every probe through the paged merge answers like the
        // in-memory one.
        for (key, _) in &parts {
            for kw in 0..6u64 {
                for byte in 5u8..=7 {
                    let token = SseScheme::trapdoor(key, format!("p{byte}-kw{kw}").as_bytes());
                    assert_eq!(
                        SseScheme::search(&merged_paged, &token).unwrap(),
                        SseScheme::search(&merged_memory, &token).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn merge_rejects_layout_mismatch_collisions_and_empty_input() {
        let a = merge_parts(2, &[9]).remove(0).1;
        let b = merge_parts(3, &[10]).remove(0).1;
        let in_memory = StorageConfig::in_memory(2);
        assert!(matches!(
            ShardedIndex::merge(&[&a, &b], &in_memory),
            Err(StorageError::Unsupported(_))
        ));
        // Merging an index with itself duplicates every label.
        assert!(matches!(
            ShardedIndex::merge(&[&a, &a], &in_memory),
            Err(StorageError::Unsupported(_))
        ));
        assert!(matches!(
            ShardedIndex::merge(&[], &in_memory),
            Err(StorageError::Unsupported(_))
        ));

        let dir_a = TempDir::new("merge-err-a");
        let dir_b = TempDir::new("merge-err-b");
        a.save_to_dir(dir_a.path()).unwrap();
        b.save_to_dir(dir_b.path()).unwrap();
        let paged_a = ShardedIndex::open_dir(dir_a.path()).unwrap();
        let paged_b = ShardedIndex::open_dir(dir_b.path()).unwrap();
        let out = TempDir::new("merge-err-out");
        assert!(matches!(
            ShardedIndex::merge(
                &[&paged_a, &paged_b],
                &StorageConfig::on_disk(2, out.path())
            ),
            Err(StorageError::Unsupported(_))
        ));
        // The failed merge swept its partial output.
        let leftovers: Vec<_> = fs::read_dir(out.path())
            .map(|it| it.map(|e| e.unwrap().file_name()).collect())
            .unwrap_or_default();
        assert!(leftovers.is_empty(), "failed merge left {leftovers:?}");

        let out_dup = TempDir::new("merge-err-dup");
        assert!(matches!(
            ShardedIndex::merge(
                &[&paged_a, &paged_a],
                &StorageConfig::on_disk(2, out_dup.path())
            ),
            Err(StorageError::Unsupported(_))
        ));
    }

    /// Compares two saved index directories file by file.
    fn dirs_equal(a: &Path, b: &Path) -> bool {
        let list = |dir: &Path| -> Vec<String> {
            let mut names: Vec<String> = fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        let names = list(a);
        if names != list(b) {
            return false;
        }
        names
            .iter()
            .all(|name| fs::read(a.join(name)).unwrap() == fs::read(b.join(name)).unwrap())
    }
}
