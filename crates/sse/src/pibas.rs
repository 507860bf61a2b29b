//! The Π_bas-style encrypted multimap (Cash et al., NDSS 2014).
//!
//! `BuildIndex` turns the plaintext multimap into a flat dictionary: the
//! `c`-th payload of keyword `w` is stored under label `F(K1_w, c)` with
//! value `Enc(K2_w, payload)`, where `K1_w, K2_w` are two per-keyword keys
//! derived from the master key. A search token for `w` is just `(K1_w,
//! K2_w)`: the server recomputes labels for `c = 0, 1, 2, …` until it misses,
//! decrypting each hit. The server therefore learns the access pattern (how
//! many and which dictionary entries matched) and the search pattern (token
//! equality), and nothing else — the leakage profile the paper assumes of
//! its underlying SSE.
//!
//! # Storage and build layout (hot path)
//!
//! Every shard of the index ([`Shard`](crate::Shard)) is **arena-backed**:
//! all its ciphertexts live in one contiguous region, and a
//! `label → (offset, len)` table resolves lookups — one allocation per
//! shard instead of one `Vec<u8>` per entry, and cache-friendly sequential
//! writes during build.
//!
//! The lookup table uses [`LabelHasher`], a trivial hasher that folds the
//! label bytes into a `u64` instead of running SipHash. That is safe *in
//! this trust model* because labels are not attacker-chosen: every label is
//! a truncated PRF output produced owner-side under a secret key, so label
//! distribution is computationally indistinguishable from uniform and no
//! party in the protocol can craft colliding inputs. (An adversarial
//! *client* inserting chosen labels is outside the paper's model — the
//! owner is the only writer.) HashDoS-resistant hashing would only re-hash
//! already-pseudorandom bytes.
//!
//! `BuildIndex` parallelizes across keywords with rayon: per-keyword nonce
//! seeds are drawn from the caller's RNG *sequentially* (keeping the build
//! a deterministic function of key + RNG stream), the per-keyword label
//! PRF + encryption work runs on all cores, and the chunks are merged into
//! the shards in keyword order, so the resulting index is deterministic
//! regardless of thread scheduling.

use crate::database::SseDatabase;
use crate::storage::StorageError;
use rand::{CryptoRng, RngCore, SeedableRng};
use rand_chacha::ChaCha20Rng;
use rayon::prelude::*;
use rsse_crypto::{Key, Prf, StreamCipher, KEY_LEN};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Byte length of dictionary labels (128-bit truncated PRF outputs).
pub const LABEL_LEN: usize = 16;

/// Dictionary label type.
pub type Label = [u8; LABEL_LEN];

/// Trivial hasher for PRF-output labels: folds the written bytes into a
/// `u64` with an xor/rotate, i.e. essentially "use the first 8 label bytes".
///
/// See the module docs for why dropping SipHash is sound here: labels are
/// owner-side PRF outputs (uniform, non-adversarial), so the first 8 bytes
/// are already an ideal hash value.
#[derive(Clone, Copy, Debug, Default)]
pub struct LabelHasher(u64);

impl Hasher for LabelHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = self.0.rotate_left(1) ^ u64::from_le_bytes(word);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type LabelTable = HashMap<Label, (u32, u32), BuildHasherDefault<LabelHasher>>;

/// Owner-side secret key of the SSE scheme: the keyed PRF state on the
/// master key, cached so every trapdoor derivation shares one key schedule.
#[derive(Clone, Debug)]
pub struct SseKey {
    prf: Prf,
}

/// Search token for one keyword: the two per-keyword keys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchToken {
    label_key: Key,
    payload_key: Key,
}

impl SearchToken {
    /// Serialized size of a token in bytes (used for query-size accounting).
    pub const SIZE_BYTES: usize = 2 * KEY_LEN;

    /// Derives a token from an externally supplied 32-byte seed.
    ///
    /// This is the hook the Constant-BRC/URC schemes use: instead of letting
    /// the SSE scheme derive the per-keyword keys from its own master key,
    /// the per-keyword keys are derived from the *DPRF value* of the
    /// keyword, so that the server — after expanding a delegated GGM token
    /// into leaf DPRF values — can reconstruct exactly the tokens for the
    /// delegated sub-range and nothing else.
    pub fn derive_from_seed(seed: &[u8; KEY_LEN]) -> Self {
        let seed_key = Key::from_bytes(*seed);
        let prf = Prf::new(&seed_key);
        Self {
            label_key: Key::from_bytes(prf.eval(b"label")),
            payload_key: Key::from_bytes(prf.eval(b"payload")),
        }
    }

    /// The keyed cipher decrypting this token's payloads — what `Search`
    /// instantiates server-side. Exposed so batched callers can decrypt
    /// hits from [`SseScheme::search_batch_scan`] themselves (e.g. into one
    /// reused scratch buffer instead of a fresh allocation per payload).
    pub fn payload_cipher(&self) -> StreamCipher {
        StreamCipher::new(&self.payload_key)
    }
}

/// Incremental label expansion for one token: the counter-scan's label
/// schedule `F(K1_w, 0), F(K1_w, 1), …` exposed **separately from probing**,
/// so batch executors can plan a counter round's probes — dedupe identical
/// labels across queries, group them by shard — before touching storage.
///
/// Trapdoors are deterministic (that *is* the search-pattern leakage), so
/// two equal tokens yield identical label sequences; a planner that merges
/// their probes reveals nothing the per-query scan would not. The PRF key
/// schedule is cached at construction and shared across every call, exactly
/// as in the sequential scan loop.
#[derive(Clone, Debug)]
pub struct TokenLabeler {
    prf: Prf,
}

impl TokenLabeler {
    /// Caches the label-PRF key schedule of `token`.
    pub fn new(token: &SearchToken) -> Self {
        Self {
            prf: Prf::new(&token.label_key),
        }
    }

    /// The dictionary label the scan probes at `counter` (the truncated PRF
    /// output `F(K1_w, counter)`).
    pub fn label_at(&self, counter: u64) -> Label {
        let mut full = [0u8; KEY_LEN];
        self.prf.eval_u64_into(counter, &mut full);
        let mut label = [0u8; LABEL_LEN];
        label.copy_from_slice(&full[..LABEL_LEN]);
        label
    }
}

/// A ciphertext resolved by a dictionary probe.
///
/// In-memory regions hand out plain borrows of their bytes; file-backed
/// shards hand out spans **pinned** inside a reference-counted cache
/// block, which stays alive for as long as the span does even if the cache
/// evicts the block concurrently. Either way the payload bytes are
/// reached through [`Deref`], so search code never distinguishes the two.
#[derive(Clone, Debug)]
pub struct CipherSpan<'a>(SpanRepr<'a>);

#[derive(Clone, Debug)]
enum SpanRepr<'a> {
    /// Borrowed straight from an in-memory region.
    Borrowed(&'a [u8]),
    /// Pinned inside a shared cache block; the `Arc` keeps the block's
    /// bytes alive across a concurrent eviction.
    Pinned {
        block: Arc<[u8]>,
        offset: usize,
        len: usize,
    },
}

impl<'a> CipherSpan<'a> {
    /// A span borrowed from storage owned by the index itself.
    pub fn borrowed(bytes: &'a [u8]) -> Self {
        CipherSpan(SpanRepr::Borrowed(bytes))
    }

    /// A span pinned inside a reference-counted cache block.
    pub fn pinned(block: Arc<[u8]>, offset: usize, len: usize) -> Self {
        debug_assert!(offset + len <= block.len());
        CipherSpan(SpanRepr::Pinned { block, offset, len })
    }
}

impl Deref for CipherSpan<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            SpanRepr::Borrowed(bytes) => bytes,
            SpanRepr::Pinned { block, offset, len } => &block[*offset..*offset + *len],
        }
    }
}

impl PartialEq for CipherSpan<'_> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for CipherSpan<'_> {}

/// Read-side interface of a dictionary: the [`ShardedIndex`](crate::ShardedIndex)
/// itself, or a serving layer's guarded view of one.
///
/// Both search algorithms ([`SseScheme::search`] and
/// [`SseScheme::search_batch_scan`]) are generic over this trait, so they
/// run unchanged over any shard count, region home or probe guard.
///
/// Probes are **fallible**: a file-backed shard distinguishes "label
/// absent" (`Ok(None)`) from "the storage failed" (`Err`). An in-memory
/// region never takes the error branch.
pub trait IndexLookup {
    /// Looks up the ciphertext stored under `label`.
    ///
    /// `Ok(None)` means the label is genuinely absent; `Err` means the
    /// backend could not resolve the probe (e.g. a block read failed).
    fn try_get(&self, label: &Label) -> Result<Option<CipherSpan<'_>>, StorageError>;

    /// Resolves a batch of probes, writing `out[i] = try_get(&labels[i])?`.
    ///
    /// The default implementation probes in input order; sharded
    /// implementations override it to group probes by shard for table
    /// locality. `out` is cleared first, and results always come back in
    /// probe order regardless of the internal grouping. The first failed
    /// probe aborts the batch.
    fn try_get_many<'a>(
        &'a self,
        labels: &[Label],
        out: &mut Vec<Option<CipherSpan<'a>>>,
    ) -> Result<(), StorageError> {
        out.clear();
        for label in labels {
            out.push(self.try_get(label)?);
        }
        Ok(())
    }
}

/// One keyword's worth of encrypted entries, produced on a worker thread
/// and distributed across the shards in deterministic keyword order.
pub(crate) struct KeywordChunk {
    /// Entry labels in counter order.
    pub(crate) labels: Vec<Label>,
    /// Ciphertext spans (offset within `buf`, len), parallel to `labels`.
    pub(crate) spans: Vec<(u32, u32)>,
    /// Concatenated ciphertexts for this keyword.
    pub(crate) buf: Vec<u8>,
}

/// Encrypts one keyword's payload list with a cached label PRF and cipher
/// state; `nonce_seed` keys the per-entry encryption nonce stream.
fn encrypt_list(
    token: &SearchToken,
    payloads: &[Vec<u8>],
    nonce_seed: [u8; KEY_LEN],
) -> KeywordChunk {
    let total: usize = payloads
        .iter()
        .map(|p| StreamCipher::ciphertext_len(p.len()))
        .sum();
    encrypt_payloads(
        token,
        payloads.iter().map(Vec::as_slice),
        payloads.len(),
        total,
        nonce_seed,
    )
}

/// Generic encryption core shared by the `Vec`-payload, fixed-stride and
/// external-memory build paths.
pub(crate) fn encrypt_payloads<'a>(
    token: &SearchToken,
    payloads: impl Iterator<Item = &'a [u8]>,
    count: usize,
    total_ciphertext: usize,
    nonce_seed: [u8; KEY_LEN],
) -> KeywordChunk {
    let label_prf = Prf::new(&token.label_key);
    let cipher = StreamCipher::new(&token.payload_key);
    let mut nonce_rng = ChaCha20Rng::from_seed(nonce_seed);
    let mut chunk = KeywordChunk {
        labels: Vec::with_capacity(count),
        spans: Vec::with_capacity(count),
        buf: Vec::with_capacity(total_ciphertext),
    };
    let mut label_full = [0u8; KEY_LEN];
    for (counter, payload) in payloads.enumerate() {
        label_prf.eval_u64_into(counter as u64, &mut label_full);
        let mut label = [0u8; LABEL_LEN];
        label.copy_from_slice(&label_full[..LABEL_LEN]);
        let offset = chunk.buf.len();
        let len = cipher.encrypt_to(&mut nonce_rng, payload, &mut chunk.buf);
        chunk.labels.push(label);
        chunk.spans.push((offset as u32, len as u32));
    }
    chunk
}

/// Draws one 32-byte nonce seed per keyword from the caller's RNG.
///
/// Drawing happens sequentially, in keyword order, so the whole build stays
/// a deterministic function of (key, RNG stream) no matter how the
/// follow-on encryption work is scheduled across threads.
fn draw_nonce_seeds<R: RngCore + CryptoRng>(count: usize, rng: &mut R) -> Vec<[u8; KEY_LEN]> {
    (0..count)
        .map(|_| {
            let mut seed = [0u8; KEY_LEN];
            rng.fill_bytes(&mut seed);
            seed
        })
        .collect()
}

/// The static SSE scheme (Setup, BuildIndex, Trpdr, Search).
#[derive(Clone, Copy, Debug, Default)]
pub struct SseScheme;

impl SseScheme {
    /// `Setup(1^λ)`: samples the owner's secret key.
    pub fn setup<R: RngCore + CryptoRng>(rng: &mut R) -> SseKey {
        Self::key_from(Key::generate(rng))
    }

    /// Deterministically derives an SSE key from an existing key — used by
    /// the range schemes, which derive all their sub-keys from one master.
    pub fn key_from(master: Key) -> SseKey {
        SseKey {
            prf: Prf::new(&master),
        }
    }

    /// Produces the per-keyword encrypted chunks of `BuildIndex(k, D)`
    /// for [`build_index_stored`](Self::build_index_stored).
    ///
    /// Per-keyword work (trapdoor derivation, label PRF, payload
    /// encryption) runs in parallel across all cores; chunks come back in
    /// the database's keyword order, so the output is deterministic. RNG
    /// consumption is one nonce seed per keyword.
    pub(crate) fn chunks_from_database<R: RngCore + CryptoRng>(
        key: &SseKey,
        database: &SseDatabase,
        rng: &mut R,
    ) -> Vec<KeywordChunk> {
        let keywords: Vec<(&[u8], &[Vec<u8>])> = database.iter().collect();
        let seeds = draw_nonce_seeds(keywords.len(), rng);
        let jobs: Vec<_> = keywords.into_iter().zip(seeds).collect();
        jobs.into_par_iter()
            .map(|((keyword, payloads), seed)| {
                let token = Self::trapdoor(key, keyword);
                encrypt_list(&token, payloads, seed)
            })
            .collect()
    }

    /// Chunk-producing core of `BuildIndex` over pre-derived per-keyword
    /// tokens, for
    /// [`build_index_from_token_lists_stored`](Self::build_index_from_token_lists_stored).
    ///
    /// Used by schemes (Constant-BRC/URC) whose decryption capability must
    /// come from a delegatable PRF rather than from the SSE master key; the
    /// index produced is structurally identical to the database build's
    /// and is searched with the exact same [`search`](Self::search)
    /// algorithm.
    pub(crate) fn chunks_from_token_lists<R: RngCore + CryptoRng>(
        lists: &[(SearchToken, Vec<Vec<u8>>)],
        rng: &mut R,
    ) -> Vec<KeywordChunk> {
        let seeds = draw_nonce_seeds(lists.len(), rng);
        let jobs: Vec<_> = lists.iter().zip(seeds).collect();
        jobs.into_par_iter()
            .map(|((token, payloads), seed)| encrypt_list(token, payloads, seed))
            .collect()
    }

    /// Chunk-producing core of the fixed-stride `BuildIndex`, for
    /// [`build_index_fixed_stored`](Self::build_index_fixed_stored): every
    /// payload of a keyword is a `[u8; P]` array, stored contiguously. This
    /// is the fast path the range schemes use — their payloads are
    /// fixed-size id or value-span encodings — and it avoids one heap
    /// allocation per plaintext payload. Identical output layout to the
    /// database build: the index is searched with the same tokens and
    /// algorithms.
    pub(crate) fn chunks_from_fixed<const P: usize, R: RngCore + CryptoRng>(
        key: &SseKey,
        lists: &[(Vec<u8>, Vec<[u8; P]>)],
        rng: &mut R,
    ) -> Vec<KeywordChunk> {
        let seeds = draw_nonce_seeds(lists.len(), rng);
        let jobs: Vec<_> = lists.iter().zip(seeds).collect();
        jobs.into_par_iter()
            .map(|((keyword, payloads), seed)| {
                let token = Self::trapdoor(key, keyword);
                encrypt_payloads(
                    &token,
                    payloads.iter().map(|p| p.as_slice()),
                    payloads.len(),
                    payloads.len() * StreamCipher::ciphertext_len(P),
                    seed,
                )
            })
            .collect()
    }

    /// `Trpdr(k, w)`: derives the search token for keyword `w`.
    ///
    /// Deterministic, as in the paper: issuing the same keyword twice yields
    /// the same token (this *is* the search-pattern leakage).
    pub fn trapdoor(key: &SseKey, keyword: &[u8]) -> SearchToken {
        SearchToken {
            label_key: Key::from_bytes(key.prf.eval_parts(&[b"label", keyword])),
            payload_key: Key::from_bytes(key.prf.eval_parts(&[b"payload", keyword])),
        }
    }

    /// `Search(t, I)`: walks labels `F(K1_w, 0), F(K1_w, 1), …` until the
    /// first miss and returns the decrypted payloads for the token's
    /// keyword, in storage-counter order.
    ///
    /// A corrupt (undecryptable) entry is **skipped**, not a panic: the
    /// server must stay available even if a stored ciphertext was damaged.
    ///
    /// A *storage* failure (a disk-backed index that could not read a
    /// block) is never skipped: it aborts the scan with the backend's
    /// typed error, so a caller can distinguish "no more entries" from
    /// "the disk failed mid-scan". In-memory regions cannot take that
    /// branch.
    pub fn search<I: IndexLookup>(
        index: &I,
        token: &SearchToken,
    ) -> Result<Vec<Vec<u8>>, StorageError> {
        let cipher = StreamCipher::new(&token.payload_key);
        let labeler = TokenLabeler::new(token);
        let mut results = Vec::new();
        let mut counter = 0u64;
        while let Some(ciphertext) = index.try_get(&labeler.label_at(counter))? {
            if let Some(plaintext) = cipher.decrypt(&ciphertext) {
                results.push(plaintext);
            }
            counter += 1;
        }
        Ok(results)
    }

    /// Batched `Search` over a whole token vector: advances all tokens in
    /// lockstep, one counter round at a time. Each round computes the next
    /// label of every still-live token, resolves the whole probe vector
    /// with [`IndexLookup::try_get_many`] (which groups probes by shard on
    /// a sharded index), and calls `visit(token_index, ciphertext)` for
    /// every hit. A token leaves the live set at its first miss, exactly
    /// as in [`search`](Self::search), so each token's visit sequence is
    /// the per-token scan's; callers decrypt hits themselves (see
    /// [`SearchToken::payload_cipher`]), e.g. into one reused buffer.
    ///
    /// Returns the per-token match counts (matched entries, decryptable or
    /// not). A failed probe aborts the whole batch with the backend's
    /// typed error.
    pub fn search_batch_scan<'a, I: IndexLookup>(
        index: &'a I,
        tokens: &[SearchToken],
        mut visit: impl FnMut(usize, &[u8]),
    ) -> Result<Vec<usize>, StorageError> {
        let mut counts = vec![0usize; tokens.len()];
        // One cached PRF key schedule per token, shared across rounds (the
        // label-expansion half of the scan, reused by external batch
        // planners through [`TokenLabeler`]).
        let labelers: Vec<TokenLabeler> = tokens.iter().map(TokenLabeler::new).collect();
        let mut live: Vec<u32> = (0..tokens.len() as u32).collect();
        let mut labels: Vec<Label> = Vec::with_capacity(live.len());
        let mut hits: Vec<Option<CipherSpan<'a>>> = Vec::with_capacity(live.len());
        let mut counter = 0u64;
        while !live.is_empty() {
            labels.clear();
            for &t in &live {
                labels.push(labelers[t as usize].label_at(counter));
            }
            index.try_get_many(&labels, &mut hits)?;
            let mut kept = 0usize;
            for (slot, hit) in hits.iter().enumerate() {
                let t = live[slot] as usize;
                if let Some(ciphertext) = hit {
                    visit(t, ciphertext);
                    counts[t] += 1;
                    live[kept] = t as u32;
                    kept += 1;
                }
            }
            live.truncate(kept);
            counter += 1;
        }
        Ok(counts)
    }
}

/// Reference (pre-arena) implementation used by the equivalence property
/// tests: one `HashMap<Label, Vec<u8>>` with a heap allocation per entry
/// and SipHash hashing, built sequentially. Kept runnable so the tests can
/// prove the arena-backed path byte-identical, and as a baseline for the
/// `index_build` benches.
pub mod reference {
    use super::*;

    /// The old per-entry dictionary.
    #[derive(Clone, Debug, Default)]
    pub struct ReferenceIndex {
        /// Label → individually allocated ciphertext.
        pub dictionary: HashMap<Label, Vec<u8>>,
    }

    /// Sequential `BuildIndex` against the per-entry dictionary, consuming
    /// the RNG exactly like [`SseScheme::build_index_stored`] (one nonce
    /// seed per keyword) so both paths produce byte-identical ciphertexts.
    pub fn build_index<R: RngCore + CryptoRng>(
        key: &SseKey,
        database: &SseDatabase,
        rng: &mut R,
    ) -> ReferenceIndex {
        let mut dictionary = HashMap::new();
        for (keyword, payloads) in database.iter() {
            let token = SseScheme::trapdoor(key, keyword);
            let mut seed = [0u8; KEY_LEN];
            rng.fill_bytes(&mut seed);
            let chunk = encrypt_list(&token, payloads, seed);
            for (label, (offset, len)) in chunk.labels.iter().zip(&chunk.spans) {
                let span = &chunk.buf[*offset as usize..(*offset + *len) as usize];
                dictionary.insert(*label, span.to_vec());
            }
        }
        ReferenceIndex { dictionary }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    /// A `shard_bits = 0` in-memory build: one shard, one arena.
    fn build_arena<R: RngCore + CryptoRng>(
        key: &SseKey,
        db: &SseDatabase,
        rng: &mut R,
    ) -> crate::ShardedIndex {
        SseScheme::build_index_stored(key, db, &crate::StorageConfig::in_memory(0), rng).unwrap()
    }

    fn sample_db() -> SseDatabase {
        let mut db = SseDatabase::new();
        db.add(b"apple".to_vec(), 1u64.to_le_bytes().to_vec());
        db.add(b"apple".to_vec(), 2u64.to_le_bytes().to_vec());
        db.add(b"apple".to_vec(), 3u64.to_le_bytes().to_vec());
        db.add(b"banana".to_vec(), 9u64.to_le_bytes().to_vec());
        db
    }

    #[test]
    fn roundtrip_search_returns_exactly_the_payloads() {
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let key = SseScheme::setup(&mut rng);
        let index = build_arena(&key, &sample_db(), &mut rng);
        assert_eq!(index.len(), 4);

        let token = SseScheme::trapdoor(&key, b"apple");
        let results = SseScheme::search(&index, &token).unwrap();
        assert_eq!(
            results,
            vec![
                1u64.to_le_bytes().to_vec(),
                2u64.to_le_bytes().to_vec(),
                3u64.to_le_bytes().to_vec()
            ]
        );

        let token = SseScheme::trapdoor(&key, b"banana");
        assert_eq!(SseScheme::search(&index, &token).unwrap().len(), 1);
    }

    #[test]
    fn absent_keyword_returns_nothing() {
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let key = SseScheme::setup(&mut rng);
        let index = build_arena(&key, &sample_db(), &mut rng);
        let token = SseScheme::trapdoor(&key, b"cherry");
        assert!(SseScheme::search(&index, &token).unwrap().is_empty());
    }

    #[test]
    fn trapdoors_are_deterministic_and_keyword_specific() {
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let key = SseScheme::setup(&mut rng);
        assert_eq!(
            SseScheme::trapdoor(&key, b"apple"),
            SseScheme::trapdoor(&key, b"apple")
        );
        assert_ne!(
            SseScheme::trapdoor(&key, b"apple"),
            SseScheme::trapdoor(&key, b"banana")
        );
    }

    #[test]
    fn wrong_key_finds_nothing() {
        let mut rng = ChaCha20Rng::seed_from_u64(4);
        let key = SseScheme::setup(&mut rng);
        let other = SseScheme::setup(&mut rng);
        let index = build_arena(&key, &sample_db(), &mut rng);
        let token = SseScheme::trapdoor(&other, b"apple");
        assert!(SseScheme::search(&index, &token).unwrap().is_empty());
    }

    #[test]
    fn index_entries_look_unlinkable() {
        // The index must not contain the plaintext payloads anywhere.
        let mut rng = ChaCha20Rng::seed_from_u64(5);
        let key = SseScheme::setup(&mut rng);
        let mut db = SseDatabase::new();
        let secret = b"super-secret-payload-value".to_vec();
        db.add(b"w".to_vec(), secret.clone());
        let index = build_arena(&key, &db, &mut rng);
        for value in index.ciphertexts().unwrap() {
            assert!(!value
                .windows(secret.len())
                .any(|window| window == secret.as_slice()));
        }
    }

    #[test]
    fn storage_accounting_counts_labels_and_ciphertexts() {
        let mut rng = ChaCha20Rng::seed_from_u64(7);
        let key = SseScheme::setup(&mut rng);
        let index = build_arena(&key, &sample_db(), &mut rng);
        // 4 entries, each: 16-byte label + (16-byte nonce + 8-byte payload).
        assert_eq!(index.storage_bytes(), 4 * (LABEL_LEN + 16 + 8));
    }

    #[test]
    fn key_from_round_trips_master() {
        let master = Key::from_bytes([9u8; KEY_LEN]);
        let key = SseScheme::key_from(master.clone());
        let mut rng = ChaCha20Rng::seed_from_u64(8);
        let index = build_arena(&key, &sample_db(), &mut rng);
        // A key reconstructed from the same master must produce working tokens.
        let key2 = SseScheme::key_from(master);
        let token = SseScheme::trapdoor(&key2, b"apple");
        assert_eq!(SseScheme::search(&index, &token).unwrap().len(), 3);
    }

    #[test]
    fn token_lists_build_is_searchable_with_same_tokens() {
        let mut rng = ChaCha20Rng::seed_from_u64(9);
        let seed_a = [1u8; KEY_LEN];
        let seed_b = [2u8; KEY_LEN];
        let ta = SearchToken::derive_from_seed(&seed_a);
        let tb = SearchToken::derive_from_seed(&seed_b);
        let index = SseScheme::build_index_from_token_lists_stored(
            &[
                (ta.clone(), vec![b"x".to_vec(), b"y".to_vec()]),
                (tb.clone(), vec![b"z".to_vec()]),
            ],
            &crate::StorageConfig::in_memory(0),
            &mut rng,
        )
        .unwrap();
        assert_eq!(index.len(), 3);
        assert_eq!(
            SseScheme::search(&index, &ta).unwrap(),
            vec![b"x".to_vec(), b"y".to_vec()]
        );
        assert_eq!(SseScheme::search(&index, &tb).unwrap(), vec![b"z".to_vec()]);
        // A token from an unrelated seed finds nothing.
        let tc = SearchToken::derive_from_seed(&[3u8; KEY_LEN]);
        assert!(SseScheme::search(&index, &tc).unwrap().is_empty());
    }

    #[test]
    fn derive_from_seed_is_deterministic() {
        let seed = [7u8; KEY_LEN];
        assert_eq!(
            SearchToken::derive_from_seed(&seed),
            SearchToken::derive_from_seed(&seed)
        );
        assert_ne!(
            SearchToken::derive_from_seed(&seed),
            SearchToken::derive_from_seed(&[8u8; KEY_LEN])
        );
    }

    #[test]
    fn corrupt_entry_is_skipped_not_panicking() {
        // Build an index whose only entry is too short to decrypt (shorter
        // than a nonce) by corrupting the arena directly.
        let mut rng = ChaCha20Rng::seed_from_u64(10);
        let key = SseScheme::setup(&mut rng);
        let mut db = SseDatabase::new();
        db.add(b"w".to_vec(), b"payload".to_vec());
        db.add(b"w".to_vec(), b"payload-2".to_vec());
        let mut index = build_arena(&key, &db, &mut rng);
        // Truncate the first entry's span to 3 bytes (< NONCE_LEN).
        let token = SseScheme::trapdoor(&key, b"w");
        let label_prf = Prf::new(&Key::from_bytes(*token.label_key.as_bytes()));
        let first: Label = label_prf.eval_truncated(&0u64.to_le_bytes());
        let span = index.shards[0].table.get_mut(&first).expect("entry exists");
        span.1 = 3;

        // search skips the corrupt entry, still returning the healthy one.
        let results = SseScheme::search(&index, &token).unwrap();
        assert_eq!(results, vec![b"payload-2".to_vec()]);
        // The batched scan still counts the corrupt entry as a match (it
        // never decrypts) and skips nothing.
        let counts =
            SseScheme::search_batch_scan(&index, std::slice::from_ref(&token), |_, _| {}).unwrap();
        assert_eq!(counts, vec![2]);
    }

    #[test]
    fn label_hasher_uses_label_bytes() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build: BuildHasherDefault<LabelHasher> = BuildHasherDefault::default();
        let a = build.hash_one([1u8; LABEL_LEN]);
        let b = build.hash_one([1u8; LABEL_LEN]);
        let c = build.hash_one([2u8; LABEL_LEN]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn arbitrary_multimaps_roundtrip(entries in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..8),
             proptest::collection::vec(any::<u8>(), 0..24)), 0..60),
            seed in any::<u64>())
        {
            let mut rng = ChaCha20Rng::seed_from_u64(seed);
            let key = SseScheme::setup(&mut rng);
            let mut db = SseDatabase::new();
            for (k, v) in &entries {
                db.add(k.clone(), v.clone());
            }
            let index = build_arena(&key, &db, &mut rng);
            prop_assert_eq!(index.len(), db.entry_count());
            // Every keyword's payload list is returned exactly (same multiset,
            // Π_bas preserves insertion order per keyword).
            for (keyword, expected) in db.iter() {
                let token = SseScheme::trapdoor(&key, keyword);
                let got = SseScheme::search(&index, &token).unwrap();
                prop_assert_eq!(got, expected.to_vec());
            }
        }

        /// For arbitrary multimaps, the arena-backed index stores
        /// **byte-identical** (label, ciphertext) pairs to the reference
        /// per-entry dictionary, given the same key and RNG stream — and
        /// searches agree byte-for-byte.
        #[test]
        fn arena_index_is_byte_identical_to_reference(entries in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..6),
             proptest::collection::vec(any::<u8>(), 0..40)), 0..50),
            seed in any::<u64>())
        {
            let mut db = SseDatabase::new();
            for (k, v) in &entries {
                db.add(k.clone(), v.clone());
            }
            let key = SseScheme::key_from(Key::from_bytes([0xA5; KEY_LEN]));

            let mut rng_arena = ChaCha20Rng::seed_from_u64(seed);
            let arena = build_arena(&key, &db, &mut rng_arena);
            let mut rng_reference = ChaCha20Rng::seed_from_u64(seed);
            let reference = reference::build_index(&key, &db, &mut rng_reference);

            prop_assert_eq!(arena.len(), reference.dictionary.len());
            for (label, ciphertext) in &reference.dictionary {
                prop_assert_eq!(arena.try_get(label).unwrap().as_deref(), Some(ciphertext.as_slice()),
                    "label spans must match the reference dictionary");
            }
            // The arena's directory and region bytes, in region order, are
            // exactly what its saved shard file holds.
            let dir = crate::storage::test_support::TempDir::new("pibas-arena");
            arena.save_to_dir(dir.path()).unwrap();
            prop_assert!(crate::storage::shard_matches_file(
                &arena.shards()[0],
                &dir.path().join(crate::storage::shard_file_name(0)),
            ));
            for (keyword, expected) in db.iter() {
                let token = SseScheme::trapdoor(&key, keyword);
                prop_assert_eq!(SseScheme::search(&arena, &token).unwrap(), expected.to_vec());
            }
        }
    }
}
