//! Shard storage for the encrypted dictionary.
//!
//! A [`ShardedIndex`](crate::ShardedIndex) is `2^k` label-prefix shards,
//! and every shard is one [`Shard`]: a label table
//! (`label → (offset, len)`) over a ciphertext region. The query
//! algorithms are generic over [`IndexLookup`](crate::IndexLookup) and
//! never see where a region lives:
//!
//! * **in memory** — a probe is one table lookup plus a slice;
//! * **in the shard file** — the compact serialized shard (magic/version
//!   header, label directory, ciphertext region) whose directory is loaded
//!   at open time while the region stays on disk and is served through
//!   **paged reads**: the region is cut into ~64 KiB blocks along entry
//!   boundaries, and a probe reads only the block holding its span,
//!   through the index's one block cache (unbounded unless
//!   [`StorageConfig::cache_budget`] is set). A 10M-record index therefore
//!   never needs all shards — or even all of any shard — resident.
//!
//! Both homes hold exactly the directory and region bytes the shard file
//! serializes, so every producer shares one assembly, one merge and one
//! serialization. [`StorageConfig`] / [`StorageBackend`] is the knob
//! threaded through `BuildIndex` (and, in `rsse-core`, through
//! `RangeScheme::build_stored` and the update manager) selecting the home.
//!
//! # Shard file format (version 1)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "RSSE-SHD"
//! 8       4     format version (LE u32, = 1)
//! 12      4     reserved (0)
//! 16      8     entry count n (LE u64)
//! 24      8     ciphertext-region length (LE u64, < 4 GiB)
//! 32      24·n  directory: n × (16-byte label, LE u32 offset, LE u32 len),
//!               sorted by offset; the spans tile [0, region_len) exactly
//! 32+24·n ...   ciphertext region (concatenated spans, in directory order)
//! ```
//!
//! The directory order is deterministic (ascending offset), so serializing
//! the same logical shard always produces the same bytes —
//! `save_to_dir` → `open_dir` → `save_to_dir` round-trips byte-identically.
//! An index directory holds one `shard-NNNNN.shd` per shard plus an
//! `index.meta` manifest (same magic/version discipline) recording the
//! shard-bit count.
//!
//! Opening a shard **rejects** malformed files with typed
//! [`StorageError`]s — truncated files, foreign magic, unsupported
//! versions, and directories whose spans fall outside (or fail to tile)
//! the ciphertext region — instead of panicking at query time.

use crate::pibas::{CipherSpan, Label, LabelHasher, LabelTable, LABEL_LEN};
use rayon::prelude::*;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs::{self, File};
use std::hash::BuildHasherDefault;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Positioned read into `buf` at `offset`, without touching any shared
/// cursor — this is what keeps concurrent paged reads lock-free. Thin
/// per-platform shim over `pread`-style APIs so the crate stays portable.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// Windows variant of [`read_exact_at`], built on `seek_read` (which takes
/// an explicit offset and leaves no cursor state the reads could race on).
#[cfg(windows)]
fn read_exact_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, offset) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "failed to fill whole buffer",
                ))
            }
            Ok(n) => {
                buf = &mut buf[n..];
                offset += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Magic bytes opening every serialized shard file.
pub const SHARD_MAGIC: [u8; 8] = *b"RSSE-SHD";

/// Magic bytes opening the index manifest (`index.meta`).
pub const MANIFEST_MAGIC: [u8; 8] = *b"RSSE-IDX";

/// Current serialization format version.
pub const FORMAT_VERSION: u32 = 1;

/// Fixed shard-file header length in bytes.
const SHARD_HEADER_LEN: u64 = 32;

/// Bytes per directory entry: 16-byte label + u32 offset + u32 len.
pub(crate) const DIR_ENTRY_LEN: u64 = 24;

/// Manifest file length in bytes.
const MANIFEST_LEN: u64 = 24;

/// Target paged-read block size. Blocks are cut along entry boundaries, so
/// a block is at least this large only when its last entry crosses the
/// threshold; a single entry larger than the target gets its own block.
const BLOCK_TARGET: usize = 64 << 10;

/// File name of the per-index manifest inside a saved index directory.
pub const MANIFEST_FILE: &str = "index.meta";

/// File name of shard `i` inside a saved index directory.
pub fn shard_file_name(shard: usize) -> String {
    format!("shard-{shard:05}.shd")
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed error surfaced by the persistence layer.
///
/// Every way a stored index can be unusable — I/O failures, foreign or
/// truncated files, corrupt directories — maps to a distinct variant, so
/// callers can distinguish "disk is gone" from "this is not one of ours"
/// without string matching, and nothing in the open path panics.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying I/O operation failed.
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// The originating I/O error.
        error: io::Error,
    },
    /// The file does not start with the expected magic bytes.
    BadMagic {
        /// The offending file.
        path: PathBuf,
        /// The bytes actually found where the magic was expected.
        found: [u8; 8],
    },
    /// The file's format version is not supported by this build.
    UnsupportedVersion {
        /// The offending file.
        path: PathBuf,
        /// The version recorded in the file.
        version: u32,
    },
    /// The file is shorter than its header/directory claims.
    Truncated {
        /// The offending file.
        path: PathBuf,
        /// Length the header implies.
        expected: u64,
        /// Length actually on disk.
        actual: u64,
    },
    /// The label directory is internally inconsistent (out-of-bounds or
    /// non-tiling spans, duplicate labels, trailing bytes, …).
    CorruptDirectory {
        /// The offending file.
        path: PathBuf,
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// The selected backend is not supported by this scheme or operation.
    Unsupported(&'static str),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { path, error } => {
                write!(f, "storage I/O error on {}: {error}", path.display())
            }
            StorageError::BadMagic { path, found } => write!(
                f,
                "{} is not a serialized index file (magic {found:02x?})",
                path.display()
            ),
            StorageError::UnsupportedVersion { path, version } => write!(
                f,
                "{} uses unsupported format version {version} (this build reads {FORMAT_VERSION})",
                path.display()
            ),
            StorageError::Truncated {
                path,
                expected,
                actual,
            } => write!(
                f,
                "{} is truncated: header implies {expected} bytes, file has {actual}",
                path.display()
            ),
            StorageError::CorruptDirectory { path, detail } => {
                write!(
                    f,
                    "{} has a corrupt label directory: {detail}",
                    path.display()
                )
            }
            StorageError::Unsupported(what) => {
                write!(f, "storage backend not supported: {what}")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Attaches a path to a raw I/O error.
fn io_err(path: &Path, error: io::Error) -> StorageError {
    StorageError::Io {
        path: path.to_path_buf(),
        error,
    }
}

/// Shared header validation for the serialized-file family (shard files,
/// manifests, scheme sidecars): checks the 8-byte `magic`, a minimum
/// length of `min_len`, and the little-endian [`FORMAT_VERSION`] at bytes
/// 8..12, surfacing the standard typed errors. Every deserializer in the
/// workspace funnels through this so the rejection behavior cannot
/// diverge between formats.
pub fn check_header(
    path: &Path,
    bytes: &[u8],
    magic: &[u8; 8],
    min_len: u64,
) -> Result<(), StorageError> {
    if bytes.len() < 8 || &bytes[..8] != magic {
        let mut found = [0u8; 8];
        let take = bytes.len().min(8);
        found[..take].copy_from_slice(&bytes[..take]);
        return Err(StorageError::BadMagic {
            path: path.to_path_buf(),
            found,
        });
    }
    if (bytes.len() as u64) < min_len {
        return Err(StorageError::Truncated {
            path: path.to_path_buf(),
            expected: min_len,
            actual: bytes.len() as u64,
        });
    }
    let version = read_u32(&bytes[8..]);
    if version != FORMAT_VERSION {
        return Err(StorageError::UnsupportedVersion {
            path: path.to_path_buf(),
            version,
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Where an encrypted index's shards live.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageBackend {
    /// Every shard is an in-memory ciphertext arena (the PR 2 layout,
    /// byte-identical).
    InMemory,
    /// Shards are serialized into the given directory during `BuildIndex`
    /// and served from disk via paged reads.
    OnDisk(PathBuf),
}

/// Memory budget for an **external-memory** `BuildIndex` (see the
/// [`external`](crate::external) module).
///
/// When a [`StorageConfig`] carries a budget, builds that honor it (the
/// range schemes' grouped paths and the update manager's consolidation
/// rebuilds) stop materializing the whole transformed corpus in RAM.
/// Instead they stream `(keyword, payload)` entries into sorted `RSSE-SPL`
/// spill runs of at most ~`memory_bytes / 2` bytes each, then k-way merge
/// the runs, encrypting and scattering one bounded batch of keyword groups
/// at a time into the existing streaming shard writers — so peak RSS is
/// bounded by the budget (run buffer + merge scratch + write buffers), not
/// by corpus size, at ~2 I/O passes over the entries.
///
/// The budget is a *target*, not a hard allocator limit. Two floors apply
/// regardless of how small it is set: the largest single posting list must
/// fit in RAM (the keyed shuffle and its encrypted chunk need the whole
/// list), and each spill run holds at least a minimum number of entries so
/// a pathological budget cannot explode the run count (and with it the
/// merge's file handles). See `docs/OPERATIONS.md` for sizing guidance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BuildBudget {
    /// Target peak working-set size of the build, in bytes.
    pub memory_bytes: usize,
    /// Where spill files for **in-memory** indexes go (an on-disk build
    /// spills into `spill.tmp` inside its own index directory and ignores
    /// this). `None` uses a uniquely named directory under
    /// [`std::env::temp_dir`].
    pub spill_root: Option<PathBuf>,
}

impl BuildBudget {
    /// Floor on entries per spill run: keeps the run count — and the open
    /// readers of the merge phase — bounded even under absurdly small
    /// budgets.
    pub(crate) const MIN_RUN_ENTRIES: usize = 512;

    /// A budget targeting `memory_bytes` of peak build working set.
    pub fn with_memory(memory_bytes: usize) -> Self {
        Self {
            memory_bytes,
            spill_root: None,
        }
    }

    /// Sets the directory spill files of in-memory builds are created
    /// under (each build still gets its own uniquely named subdirectory).
    pub fn with_spill_root(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_root = Some(dir.into());
        self
    }

    /// Entries per sorted spill run for `entry_bytes`-sized entries: half
    /// the budget (the other half is merge + encrypt + write scratch),
    /// floored at [`Self::MIN_RUN_ENTRIES`].
    pub(crate) fn run_entry_limit(&self, entry_bytes: usize) -> usize {
        let per_entry = entry_bytes.max(1);
        (self.memory_bytes / 2 / per_entry).max(Self::MIN_RUN_ENTRIES)
    }

    /// Ciphertext bytes a merge-phase encrypt batch may accumulate before
    /// it is flushed through the shard writers (a quarter of the budget;
    /// batching is what keeps the per-group encryption parallel).
    pub(crate) fn encrypt_batch_bytes(&self) -> usize {
        (self.memory_bytes / 4).max(64 << 10)
    }
}

impl Default for BuildBudget {
    /// 256 MiB of build working set, spilling under the OS temp directory.
    fn default() -> Self {
        Self::with_memory(256 << 20)
    }
}

/// Storage configuration threaded through `BuildIndex`: how many
/// label-prefix shards to cut the dictionary into, and which
/// [`StorageBackend`] holds them.
///
/// # Examples
///
/// ```
/// use rsse_sse::{StorageBackend, StorageConfig};
///
/// let in_ram = StorageConfig::in_memory(4);
/// assert_eq!(in_ram.backend, StorageBackend::InMemory);
///
/// let on_disk = StorageConfig::on_disk(4, "/tmp/rsse-index");
/// assert!(matches!(on_disk.backend, StorageBackend::OnDisk(_)));
/// // Multi-index schemes (Logarithmic-SRC-i) place each sub-index in its
/// // own subdirectory; in-memory configs pass through unchanged.
/// assert!(matches!(on_disk.subdir("i1").backend, StorageBackend::OnDisk(p) if p.ends_with("i1")));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StorageConfig {
    /// Number of label-prefix bits selecting a shard (`2^bits` shards).
    pub shard_bits: u32,
    /// Backend holding the shards.
    pub backend: StorageBackend,
    /// Memory budget, in bytes, for the paged-read block cache of a
    /// file-backed index (`None` = unlimited: blocks stay resident once
    /// touched, exactly the pre-budget behavior). The budget covers the
    /// ciphertext blocks of **one** index — the bucket directories are
    /// always resident — and is enforced by a sharded clock cache shared
    /// by all of the index's shards; see
    /// [`ShardedIndex::cache_stats`](crate::ShardedIndex::cache_stats).
    /// In-memory backends ignore it.
    pub cache_budget: Option<usize>,
    /// Memory budget for the build itself. `None` (the default) keeps the
    /// classic in-RAM build: sort, encrypt and scatter the whole corpus in
    /// memory. `Some` routes budget-aware builds (the range schemes'
    /// grouped paths behind `RangeScheme::build_stored` in `rsse-core`,
    /// and update-manager consolidations past the threshold) through the
    /// external-memory spill-and-merge pipeline of the
    /// [`external`](crate::external) module — **byte-identical output**,
    /// bounded peak RSS.
    pub build_budget: Option<BuildBudget>,
}

impl StorageConfig {
    /// An in-memory configuration with `2^shard_bits` shards.
    pub fn in_memory(shard_bits: u32) -> Self {
        Self {
            shard_bits,
            backend: StorageBackend::InMemory,
            cache_budget: None,
            build_budget: None,
        }
    }

    /// An on-disk configuration writing `2^shard_bits` shard files into
    /// `dir` (created if missing).
    pub fn on_disk(shard_bits: u32, dir: impl Into<PathBuf>) -> Self {
        Self {
            shard_bits,
            backend: StorageBackend::OnDisk(dir.into()),
            cache_budget: None,
            build_budget: None,
        }
    }

    /// Caps the resident ciphertext blocks of a file-backed index at
    /// `bytes` (a per-index budget, enforced by clock eviction).
    pub fn with_cache_budget(mut self, bytes: usize) -> Self {
        self.cache_budget = Some(bytes);
        self
    }

    /// Bounds the peak working set of the build itself: budget-aware build
    /// paths switch to the external-memory spill-and-merge pipeline (see
    /// [`BuildBudget`] and the [`external`](crate::external) module).
    pub fn with_build_budget(mut self, budget: BuildBudget) -> Self {
        self.build_budget = Some(budget);
        self
    }

    /// Derives the configuration for a named sub-index: on-disk backends
    /// descend into `dir/name`, in-memory configs are returned unchanged.
    /// The cache and build budgets carry over (each sub-index gets its own
    /// cache, and spills into its own directory).
    pub fn subdir(&self, name: &str) -> Self {
        match &self.backend {
            StorageBackend::InMemory => self.clone(),
            StorageBackend::OnDisk(dir) => Self {
                shard_bits: self.shard_bits,
                backend: StorageBackend::OnDisk(dir.join(name)),
                cache_budget: self.cache_budget,
                build_budget: self.build_budget.clone(),
            },
        }
    }

    /// Whether this configuration persists the index to disk.
    pub fn is_on_disk(&self) -> bool {
        matches!(self.backend, StorageBackend::OnDisk(_))
    }
}

impl Default for StorageConfig {
    /// A single in-memory arena (`shard_bits = 0`).
    fn default() -> Self {
        Self::in_memory(0)
    }
}

// ---------------------------------------------------------------------------
// The block cache
// ---------------------------------------------------------------------------

/// Block-cache observability counters of one index.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes served from an already-loaded block.
    pub hits: u64,
    /// Probes that had to read their block from disk.
    pub misses: u64,
    /// Blocks evicted to keep the cache inside its budget (always 0
    /// without a [`StorageConfig::cache_budget`]).
    pub evictions: u64,
    /// Ciphertext-block bytes currently resident in memory.
    pub resident_bytes: usize,
}

/// Number of independently locked cache segments. Keys spread over the
/// segments by block hash, so concurrent probes rarely contend on one
/// lock; the byte budget is split evenly across segments.
const CACHE_SEGMENTS: usize = 8;

/// A cached region block and its clock "referenced" bit.
struct CacheSlot {
    data: Arc<[u8]>,
    referenced: bool,
}

/// One locked segment of the cache: the block map plus the clock ring the
/// eviction hand walks.
#[derive(Default)]
struct CacheSegment {
    slots: HashMap<(u32, u32), CacheSlot>,
    ring: Vec<(u32, u32)>,
    hand: usize,
}

impl CacheSegment {
    /// Evicts one block (second-chance clock: a referenced block gets its
    /// bit cleared and the hand moves on; the first unreferenced block
    /// goes). The ring is non-empty when this is called.
    fn evict_one(&mut self) -> usize {
        loop {
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            let key = self.ring[self.hand];
            let slot = self.slots.get_mut(&key).expect("ring keys are cached");
            if slot.referenced {
                slot.referenced = false;
                self.hand += 1;
                continue;
            }
            let freed = slot.data.len();
            self.slots.remove(&key);
            self.ring.swap_remove(self.hand);
            return freed;
        }
    }
}

/// A sharded clock block cache holding the region blocks of one index's
/// file-backed shards.
///
/// All shards of an index share one cache; keys are
/// `(shard index, block index)`. Without a budget nothing is ever evicted:
/// a block stays resident once touched. With one, lookups set the block's
/// clock bit and inserts evict unreferenced blocks — walking the segments
/// round-robin, one lock at a time — until the **whole cache** is back
/// inside the budget. Blocks are handed out as `Arc<[u8]>`, so a probe
/// that is still decrypting a span keeps the bytes alive even if the block
/// is evicted concurrently — eviction only drops the cache's reference.
pub(crate) struct BlockCache {
    /// Total byte budget across all segments (`usize::MAX` = no bound).
    budget: usize,
    segments: Vec<Mutex<CacheSegment>>,
    /// Round-robin segment rotor the evictor walks.
    evict_from: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    resident: AtomicUsize,
}

impl BlockCache {
    /// A cache enforcing `budget` bytes across all segments (`None` = no
    /// bound).
    pub(crate) fn new(budget: Option<usize>) -> Self {
        Self {
            budget: budget.unwrap_or(usize::MAX),
            segments: (0..CACHE_SEGMENTS).map(|_| Mutex::default()).collect(),
            evict_from: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            resident: AtomicUsize::new(0),
        }
    }

    fn segment(&self, key: (u32, u32)) -> &Mutex<CacheSegment> {
        let mix = (key.0 as usize).wrapping_mul(0x9E37_79B9) ^ (key.1 as usize);
        &self.segments[mix % CACHE_SEGMENTS]
    }

    /// The block under `key`: a hit if cached, otherwise a miss that
    /// `read`s the block and caches it.
    fn fetch(
        &self,
        key: (u32, u32),
        read: impl FnOnce() -> Result<Box<[u8]>, StorageError>,
    ) -> Result<Arc<[u8]>, StorageError> {
        if let Some(data) = self.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(data);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let data: Arc<[u8]> = Arc::from(read()?);
        self.insert(key, Arc::clone(&data));
        Ok(data)
    }

    /// Looks up a block, marking it recently used.
    fn get(&self, key: (u32, u32)) -> Option<Arc<[u8]>> {
        let mut segment = self.segment(key).lock().expect("cache lock poisoned");
        let slot = segment.slots.get_mut(&key)?;
        slot.referenced = true;
        Some(Arc::clone(&slot.data))
    }

    /// Evicts blocks — walking the segments round-robin, one lock at a
    /// time, never nested — until `incoming` more bytes would fit the
    /// budget. `attempts` bounds the walk in the rare case every segment
    /// is empty while `resident` is still being settled by concurrent
    /// inserts.
    fn evict_to_fit(&self, incoming: usize) {
        let mut attempts = 0usize;
        while self
            .resident
            .load(Ordering::Relaxed)
            .saturating_add(incoming)
            > self.budget
            && attempts < 4 * CACHE_SEGMENTS
        {
            let at = self.evict_from.fetch_add(1, Ordering::Relaxed) % CACHE_SEGMENTS;
            let mut segment = self.segments[at].lock().expect("cache lock poisoned");
            if segment.ring.is_empty() {
                attempts += 1;
                continue;
            }
            let freed = segment.evict_one();
            drop(segment);
            self.resident.fetch_sub(freed, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Inserts a freshly read block, evicting as needed. A block larger
    /// than the whole budget is served but never cached, so the budget
    /// holds even for pathological block sizes.
    ///
    /// Concurrency note: the budget check and the insert are not one
    /// atomic step, so N threads missing on cold blocks simultaneously
    /// can overshoot the budget transiently (by at most one in-flight
    /// block each). The trailing `evict_to_fit(0)` restores the bound
    /// before the insert returns, so the cache is back inside the budget
    /// whenever no insert is mid-flight.
    fn insert(&self, key: (u32, u32), data: Arc<[u8]>) {
        let len = data.len();
        if len > self.budget {
            return;
        }
        // Make room first, then insert.
        self.evict_to_fit(len);
        let mut segment = self.segment(key).lock().expect("cache lock poisoned");
        if segment.slots.contains_key(&key) {
            // A concurrent probe of the same cold block won the race.
            return;
        }
        segment.slots.insert(
            key,
            CacheSlot {
                data,
                referenced: false,
            },
        );
        segment.ring.push(key);
        drop(segment);
        self.resident.fetch_add(len, Ordering::Relaxed);
        // Self-correct any racy overshoot: whoever finishes last leaves
        // the cache inside the budget.
        self.evict_to_fit(0);
    }

    /// The cache's counters and resident bytes.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: self.resident.load(Ordering::Relaxed),
        }
    }

    /// Bytes of the blocks actually held, summed slot by slot (the
    /// consistency check of the `resident` counter).
    #[cfg(test)]
    fn held_bytes(&self) -> usize {
        self.segments
            .iter()
            .map(|segment| {
                let segment = segment.lock().expect("cache lock poisoned");
                segment
                    .slots
                    .values()
                    .map(|slot| slot.data.len())
                    .sum::<usize>()
            })
            .sum()
    }
}

// ---------------------------------------------------------------------------
// The shard
// ---------------------------------------------------------------------------

/// One dictionary shard: a label table over a ciphertext region.
///
/// The table maps every label to its `(offset, len)` span of the region,
/// and the spans tile the region in the order the shard was assembled.
/// Only where the region bytes live differs:
///
/// * **in memory** — a probe is one table lookup plus a slice, with no
///   block search and no lock;
/// * **in the shard file** — the region stays on disk and a probe reads
///   the ~64 KiB block holding its span (blocks are cut along entry
///   boundaries) through the owning index's block cache.
///
/// Either way the shard holds exactly the directory and region bytes its
/// serialized file does, so every producer — in-RAM and external
/// BuildIndex, structural merge, `save_to_dir`, the resident reopen —
/// goes through one per-shard assembly (`ShardHome::assemble`), one
/// merge (`merge_shards`) and one serialization (`write_shard_file`).
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
/// db.add(b"keyword".to_vec(), b"payload".to_vec());
///
/// // With `shard_bits = 0` the in-memory build is one shard.
/// let index = SseScheme::build_index_stored(&key, &db, &StorageConfig::in_memory(0), &mut rng)
///     .unwrap();
/// let shard = &index.shards()[0];
/// assert_eq!(shard.len(), 1);
/// assert!(!shard.is_file_backed());
/// let token = SseScheme::trapdoor(&key, b"keyword");
/// assert_eq!(
///     SseScheme::search(&index, &token).unwrap(),
///     vec![b"payload".to_vec()]
/// );
/// ```
#[derive(Clone, Default)]
pub struct Shard {
    /// Label → `(region offset, len)`.
    pub(crate) table: LabelTable,
    region: Region,
}

/// Where a shard's ciphertext region lives.
#[derive(Clone)]
enum Region {
    /// The region bytes, held in memory.
    Memory(Vec<u8>),
    /// The region left in its shard file.
    File(Arc<FileRegion>),
}

impl Default for Region {
    fn default() -> Self {
        Region::Memory(Vec::new())
    }
}

/// A shard's region inside its serialized file, paged in through the
/// index's block cache.
struct FileRegion {
    /// The shard file (error reporting).
    path: PathBuf,
    /// The open shard file; all reads go through positioned `read_at`.
    file: File,
    /// File offset where the region starts.
    offset: u64,
    /// Region length (< 4 GiB, the per-shard bound).
    len: u32,
    /// `(start, len)` of each block, ascending by start.
    blocks: Vec<(u32, u32)>,
    /// The owning index's block cache.
    cache: Arc<BlockCache>,
    /// This shard's index within the cache key space.
    key: u32,
    /// Number of block reads that failed since open. A failed read
    /// surfaces as a typed [`StorageError`] from the probe itself; this is
    /// the aggregate operator-side view of how often the disk misbehaved.
    read_errors: AtomicU64,
}

impl FileRegion {
    /// Reads `len` region bytes at region offset `start` straight off
    /// disk. A failure is counted and never cached, so the next probe
    /// retries.
    fn read(&self, start: u32, len: u32) -> Result<Box<[u8]>, StorageError> {
        let mut buf = vec![0u8; len as usize].into_boxed_slice();
        read_exact_at(&self.file, &mut buf, self.offset + u64::from(start)).map_err(|error| {
            self.read_errors.fetch_add(1, Ordering::Relaxed);
            io_err(&self.path, error)
        })?;
        Ok(buf)
    }

    /// The span `(offset, len)`, pinned inside its cached block.
    fn span(&self, offset: u32, len: u32) -> Result<CipherSpan<'static>, StorageError> {
        if len == 0 {
            return Ok(CipherSpan::borrowed(&[]));
        }
        let index = self.blocks.partition_point(|&(start, _)| start <= offset) - 1;
        let (start, block_len) = self.blocks[index];
        let block = self
            .cache
            .fetch((self.key, index as u32), || self.read(start, block_len))?;
        Ok(CipherSpan::pinned(
            block,
            (offset - start) as usize,
            len as usize,
        ))
    }
}

impl fmt::Debug for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = f.debug_struct("Shard");
        out.field("entries", &self.len())
            .field("region_len", &self.region_len());
        match &self.region {
            Region::Memory(_) => out.field("region", &"memory"),
            Region::File(file) => out.field("region", &file.path),
        };
        out.finish()
    }
}

/// Reads a little-endian `u32`/`u64` out of a byte slice.
fn read_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"))
}

fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// One serialized directory entry: label, LE u32 region offset, LE u32
/// length.
pub(crate) fn dir_entry(label: &Label, offset: u32, len: u32) -> [u8; DIR_ENTRY_LEN as usize] {
    let mut entry = [0u8; DIR_ENTRY_LEN as usize];
    entry[..LABEL_LEN].copy_from_slice(label);
    entry[LABEL_LEN..LABEL_LEN + 4].copy_from_slice(&offset.to_le_bytes());
    entry[LABEL_LEN + 4..].copy_from_slice(&len.to_le_bytes());
    entry
}

impl Shard {
    /// An in-memory shard over `region`, whose `count` entries `directory`
    /// lists in region order as `(label, len)` — offsets are the running
    /// sum of the lengths.
    pub(crate) fn in_memory(
        count: usize,
        directory: impl Iterator<Item = (Label, u32)>,
        region: Vec<u8>,
    ) -> Self {
        assert!(
            region.len() <= u32::MAX as usize,
            "arena limited to 4 GiB per shard; shard the dataset first"
        );
        let mut table = LabelTable::with_capacity_and_hasher(count, BuildHasherDefault::default());
        let mut offset = 0u32;
        for (label, len) in directory {
            table.insert(label, (offset, len));
            offset += len;
        }
        debug_assert_eq!(offset as usize, region.len(), "spans must tile the region");
        Self {
            table,
            region: Region::Memory(region),
        }
    }

    /// Opens a serialized shard file: validates the header and loads the
    /// label directory. With `cache = Some((cache, key))` the region stays
    /// in the file and is paged in through `cache` under shard key `key`;
    /// with `None` it is read into memory (the resident reopen).
    ///
    /// # Errors
    ///
    /// Returns a typed [`StorageError`] for every malformed input —
    /// truncated files, wrong magic, unsupported versions, and directories
    /// whose spans do not exactly tile the ciphertext region.
    pub(crate) fn open(
        path: &Path,
        cache: Option<(&Arc<BlockCache>, u32)>,
    ) -> Result<Self, StorageError> {
        let file = File::open(path).map_err(|e| io_err(path, e))?;
        let file_len = file.metadata().map_err(|e| io_err(path, e))?.len();
        if file_len < SHARD_HEADER_LEN {
            return Err(StorageError::Truncated {
                path: path.to_path_buf(),
                expected: SHARD_HEADER_LEN,
                actual: file_len,
            });
        }
        let mut header = [0u8; SHARD_HEADER_LEN as usize];
        read_exact_at(&file, &mut header, 0).map_err(|e| io_err(path, e))?;
        check_header(path, &header, &SHARD_MAGIC, SHARD_HEADER_LEN)?;
        let entry_count = read_u64(&header[16..]);
        let region_len = read_u64(&header[24..]);
        if region_len > u32::MAX as u64 {
            return Err(StorageError::CorruptDirectory {
                path: path.to_path_buf(),
                detail: format!("region length {region_len} exceeds the 4 GiB shard bound"),
            });
        }
        let expected_len = SHARD_HEADER_LEN
            .checked_add(entry_count.checked_mul(DIR_ENTRY_LEN).ok_or_else(|| {
                StorageError::CorruptDirectory {
                    path: path.to_path_buf(),
                    detail: format!("entry count {entry_count} overflows the directory size"),
                }
            })?)
            .and_then(|d| d.checked_add(region_len))
            .ok_or_else(|| StorageError::CorruptDirectory {
                path: path.to_path_buf(),
                detail: "header sizes overflow".to_string(),
            })?;
        if file_len < expected_len {
            return Err(StorageError::Truncated {
                path: path.to_path_buf(),
                expected: expected_len,
                actual: file_len,
            });
        }
        if file_len > expected_len {
            return Err(StorageError::CorruptDirectory {
                path: path.to_path_buf(),
                detail: format!(
                    "{} trailing bytes after the ciphertext region",
                    file_len - expected_len
                ),
            });
        }

        // Directory pass: read all entries, verify the spans tile
        // [0, region_len) in ascending offset order (which also proves every
        // span in bounds), and build the lookup table and block cuts.
        let entry_count = entry_count as usize;
        let mut directory = vec![0u8; entry_count * DIR_ENTRY_LEN as usize];
        read_exact_at(&file, &mut directory, SHARD_HEADER_LEN).map_err(|e| io_err(path, e))?;
        let mut table =
            LabelTable::with_capacity_and_hasher(entry_count, BuildHasherDefault::default());
        let mut blocks: Vec<(u32, u32)> = Vec::new();
        let mut running = 0u64;
        let mut block_start = 0u64;
        for (i, entry) in directory.chunks_exact(DIR_ENTRY_LEN as usize).enumerate() {
            let mut label = [0u8; LABEL_LEN];
            label.copy_from_slice(&entry[..LABEL_LEN]);
            let offset = read_u32(&entry[LABEL_LEN..]);
            let len = read_u32(&entry[LABEL_LEN + 4..]);
            if u64::from(offset) != running {
                return Err(StorageError::CorruptDirectory {
                    path: path.to_path_buf(),
                    detail: format!(
                        "entry {i} starts at offset {offset}, expected {running} \
                         (spans must tile the region)"
                    ),
                });
            }
            running += u64::from(len);
            if running > region_len {
                return Err(StorageError::CorruptDirectory {
                    path: path.to_path_buf(),
                    detail: format!(
                        "entry {i} (offset {offset}, len {len}) overruns the \
                         {region_len}-byte ciphertext region"
                    ),
                });
            }
            if table.insert(label, (offset, len)).is_some() {
                return Err(StorageError::CorruptDirectory {
                    path: path.to_path_buf(),
                    detail: format!("duplicate label at entry {i}"),
                });
            }
            if running - block_start >= BLOCK_TARGET as u64 {
                blocks.push((block_start as u32, (running - block_start) as u32));
                block_start = running;
            }
        }
        if running != region_len {
            return Err(StorageError::CorruptDirectory {
                path: path.to_path_buf(),
                detail: format!(
                    "directory spans cover {running} bytes of a {region_len}-byte region"
                ),
            });
        }
        if running > block_start {
            blocks.push((block_start as u32, (running - block_start) as u32));
        }
        let offset = SHARD_HEADER_LEN + (entry_count as u64) * DIR_ENTRY_LEN;
        let region = match cache {
            Some((cache, key)) => Region::File(Arc::new(FileRegion {
                path: path.to_path_buf(),
                file,
                offset,
                len: region_len as u32,
                blocks,
                cache: Arc::clone(cache),
                key,
                read_errors: AtomicU64::new(0),
            })),
            None => {
                let mut bytes = vec![0u8; region_len as usize];
                read_exact_at(&file, &mut bytes, offset).map_err(|e| io_err(path, e))?;
                Region::Memory(bytes)
            }
        };
        Ok(Self { table, region })
    }

    /// Number of entries in the label table.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the shard holds no entries.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Server-side storage footprint in bytes (labels + ciphertext region),
    /// wherever the region lives.
    pub fn storage_bytes(&self) -> usize {
        self.len() * LABEL_LEN + self.region_len()
    }

    /// Ciphertext-region length in bytes.
    pub fn region_len(&self) -> usize {
        match &self.region {
            Region::Memory(bytes) => bytes.len(),
            Region::File(file) => file.len as usize,
        }
    }

    /// Whether the region stays in the shard file (paged reads) rather
    /// than in memory.
    pub fn is_file_backed(&self) -> bool {
        matches!(self.region, Region::File(_))
    }

    /// The labels stored in this shard, in table order.
    pub fn labels(&self) -> impl Iterator<Item = &Label> {
        self.table.keys()
    }

    /// Number of block reads that have failed since this shard was opened
    /// (always 0 for an in-memory region).
    pub fn read_errors(&self) -> u64 {
        match &self.region {
            Region::Memory(_) => 0,
            Region::File(file) => file.read_errors.load(Ordering::Relaxed),
        }
    }

    /// Looks up the ciphertext stored under `label`.
    ///
    /// `Ok(None)` means the label is absent; `Err` means a block read of a
    /// file-backed region failed (an in-memory region never fails).
    pub fn try_get(&self, label: &Label) -> Result<Option<CipherSpan<'_>>, StorageError> {
        let Some(&(offset, len)) = self.table.get(label) else {
            return Ok(None);
        };
        match &self.region {
            Region::Memory(bytes) => Ok(Some(CipherSpan::borrowed(
                &bytes[offset as usize..(offset + len) as usize],
            ))),
            Region::File(file) => file.span(offset, len).map(Some),
        }
    }

    /// The `(label, offset, len)` directory sorted by region offset — the
    /// serialization order (spans tile the region in exactly this order).
    pub(crate) fn entries_by_offset(&self) -> Vec<(Label, u32, u32)> {
        let mut entries: Vec<(Label, u32, u32)> = self
            .table
            .iter()
            .map(|(label, &(offset, len))| (*label, offset, len))
            .collect();
        entries.sort_unstable_by_key(|&(_, offset, _)| offset);
        entries
    }

    /// The whole region, borrowed from memory or read from the file
    /// (block cache bypassed).
    pub(crate) fn region_bytes(&self) -> Result<Cow<'_, [u8]>, StorageError> {
        match &self.region {
            Region::Memory(bytes) => Ok(Cow::Borrowed(bytes)),
            Region::File(file) => file.read(0, file.len).map(|bytes| Cow::Owned(bytes.into())),
        }
    }

    /// Streams the raw region into `writer` verbatim — from memory, or
    /// straight off disk in bounded chunks (block cache bypassed). Nothing
    /// is decrypted.
    fn copy_region_to(&self, writer: &mut dyn Write) -> io::Result<()> {
        let file = match &self.region {
            Region::Memory(bytes) => return writer.write_all(bytes),
            Region::File(file) => file,
        };
        let mut remaining = u64::from(file.len);
        let mut at = file.offset;
        let mut buf = vec![0u8; BLOCK_TARGET];
        while remaining > 0 {
            let take = remaining.min(BLOCK_TARGET as u64) as usize;
            read_exact_at(&file.file, &mut buf[..take], at).map_err(|error| {
                io::Error::new(
                    error.kind(),
                    format!("reading {}: {error}", file.path.display()),
                )
            })?;
            writer.write_all(&buf[..take])?;
            at += take as u64;
            remaining -= take as u64;
        }
        Ok(())
    }

    /// Returns the stored ciphertexts in region order (copied out; used by
    /// leakage-oriented tests and tooling).
    pub fn ciphertexts(&self) -> Result<Vec<Vec<u8>>, StorageError> {
        let region = self.region_bytes()?;
        Ok(self
            .entries_by_offset()
            .into_iter()
            .map(|(_, offset, len)| region[offset as usize..(offset + len) as usize].to_vec())
            .collect())
    }

    /// Serializes this shard into `path` (which may be the very file the
    /// shard is served from — see [`write_file_atomic`]).
    pub(crate) fn save(&self, path: &Path) -> Result<(), StorageError> {
        write_shard_file(
            path,
            self.len(),
            self.region_len(),
            self.entries_by_offset()
                .into_iter()
                .map(|(label, _, len)| (label, len)),
            |writer| self.copy_region_to(writer),
        )
    }
}

/// Where a producer puts the shards it assembles.
pub(crate) enum ShardHome<'a> {
    /// Regions held in memory.
    Memory,
    /// Shard files written into `dir`, their regions paged in through
    /// `cache`.
    Disk {
        dir: &'a Path,
        cache: &'a Arc<BlockCache>,
    },
}

impl ShardHome<'_> {
    /// The one per-shard assembly: shard number `shard` holds `count`
    /// entries, which `directory` lists in region order as `(label, len)`,
    /// over a `region_len`-byte region that `region` writes. In memory the
    /// region is collected into one buffer; on disk it is streamed into the
    /// shard file, which is then opened paged.
    pub(crate) fn assemble(
        &self,
        shard: usize,
        count: usize,
        region_len: usize,
        directory: impl Iterator<Item = (Label, u32)>,
        region: impl FnOnce(&mut dyn Write) -> io::Result<()>,
    ) -> Result<Shard, StorageError> {
        match self {
            ShardHome::Memory => {
                let mut bytes = Vec::with_capacity(region_len);
                region(&mut bytes).map_err(|e| io_err(Path::new("<in-memory shard>"), e))?;
                Ok(Shard::in_memory(count, directory, bytes))
            }
            ShardHome::Disk { dir, cache } => {
                let path = dir.join(shard_file_name(shard));
                write_shard_file(&path, count, region_len, directory, region)?;
                Shard::open(&path, Some((cache, shard as u32)))
            }
        }
    }
}

/// The one structural merge: `parts`' regions are concatenated
/// **verbatim** in input order and their directories re-emitted over the
/// rebased offsets, as shard number `shard` in `home`. No ciphertext byte
/// is decrypted or re-encrypted.
///
/// Returns [`StorageError::Unsupported`] — the caller's signal to fall
/// back to a rebuild — if the merged region would exceed the 4 GiB
/// per-shard bound, or if two parts store the same 16-byte label (only
/// possible by PRF-output collision across independently keyed parts, so
/// astronomically rare; a rebuild handles it correctly).
pub(crate) fn merge_shards(
    home: &ShardHome<'_>,
    shard: usize,
    parts: &[&Shard],
) -> Result<Shard, StorageError> {
    let count: usize = parts.iter().map(|part| part.len()).sum();
    let region_len: u64 = parts.iter().map(|part| part.region_len() as u64).sum();
    if region_len > u64::from(u32::MAX) {
        return Err(StorageError::Unsupported(
            "structural shard merge past the 4 GiB region bound",
        ));
    }
    let mut seen: HashSet<Label, BuildHasherDefault<LabelHasher>> =
        HashSet::with_capacity_and_hasher(count, BuildHasherDefault::default());
    if !parts
        .iter()
        .flat_map(|part| part.labels())
        .all(|label| seen.insert(*label))
    {
        return Err(StorageError::Unsupported(
            "structural shard merge with a cross-part label collision",
        ));
    }
    home.assemble(
        shard,
        count,
        region_len as usize,
        parts.iter().flat_map(|part| {
            part.entries_by_offset()
                .into_iter()
                .map(|(label, _, len)| (label, len))
        }),
        |writer| {
            parts
                .iter()
                .try_for_each(|part| part.copy_region_to(writer))
        },
    )
}

// ---------------------------------------------------------------------------
// Serialization helpers
// ---------------------------------------------------------------------------

/// Writes the fixed 32-byte shard-file header.
pub(crate) fn write_shard_header<W: Write>(
    writer: &mut W,
    entries: u64,
    region_len: u64,
) -> io::Result<()> {
    writer.write_all(&SHARD_MAGIC)?;
    writer.write_all(&FORMAT_VERSION.to_le_bytes())?;
    writer.write_all(&0u32.to_le_bytes())?;
    writer.write_all(&entries.to_le_bytes())?;
    writer.write_all(&region_len.to_le_bytes())
}

/// The one shard serialization, atomic (tmp + rename): the header, the
/// label directory of the `count` entries `directory` lists in region
/// order — offsets are the running sum of the lengths, so the spans tile
/// the region — then the `region_len` region bytes `region` writes.
pub(crate) fn write_shard_file(
    path: &Path,
    count: usize,
    region_len: usize,
    directory: impl Iterator<Item = (Label, u32)>,
    region: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> Result<(), StorageError> {
    assert!(
        region_len <= u32::MAX as usize,
        "arena limited to 4 GiB per shard; shard the dataset first"
    );
    write_file_atomic(path, |writer| {
        write_shard_header(writer, count as u64, region_len as u64)?;
        let mut running = 0u32;
        for (label, len) in directory {
            writer.write_all(&dir_entry(&label, running, len))?;
            running += len;
        }
        region(writer)
    })
}

/// The scratch name `path` is written under before the atomic rename.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Writes `path` atomically: content goes to a `.tmp` sibling first and is
/// renamed over the target only once fully flushed. This makes re-saving
/// an index into the directory it is currently being served from safe —
/// open file-backed shards keep reading the old inode while the new file
/// is written, so the serializer's own read-back never sees a truncated
/// file — and a failed write can never destroy an existing good file.
pub(crate) fn write_file_atomic(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> Result<(), StorageError> {
    let tmp = tmp_path(path);
    let file = File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
    let mut writer = BufWriter::new(file);
    match write(&mut writer).and_then(|()| writer.flush()) {
        Ok(()) => fs::rename(&tmp, path).map_err(|e| io_err(path, e)),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(io_err(path, e))
        }
    }
}

/// Atomic whole-buffer variant of [`write_file_atomic`] for small metadata
/// files.
///
/// (Internal to the workspace: the schemes' sidecar files — Constant's
/// depth meta, PB's filter tree — use it so every serialized file in an
/// index directory follows the same tmp+rename discipline and a failed
/// re-save can never destroy an existing good file.)
#[doc(hidden)]
pub fn write_file_atomic_bytes(path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
    write_file_atomic(path, |writer| writer.write_all(bytes))
}

/// Best-effort removal of the files a failed on-disk build wrote — the
/// manifest and every shard file — followed by the directory itself *only
/// if that leaves it empty*. Never recursive: the target directory may
/// have pre-existed with unrelated content that must survive.
/// (Internal to the workspace: multi-artifact scheme builds — SRC-i's two
/// indexes, Constant's depth sidecar — reuse it to unwind their own
/// partial failures.)
#[doc(hidden)]
pub fn cleanup_partial_index(dir: &Path, shard_count: usize) {
    let manifest = dir.join(MANIFEST_FILE);
    let _ = fs::remove_file(tmp_path(&manifest));
    let _ = fs::remove_file(manifest);
    for i in 0..shard_count {
        let shard = dir.join(shard_file_name(i));
        let _ = fs::remove_file(tmp_path(&shard));
        let _ = fs::remove_file(shard);
    }
    // An interrupted external-memory build may also have left a spill
    // directory behind; sweep its recognized files the same way (foreign
    // files are never touched, so the remove_dir below only succeeds once
    // everything left in `dir` is ours).
    crate::external::sweep_spill_dir(&dir.join(crate::external::SPILL_DIR));
    let _ = fs::remove_dir(dir);
}

/// Writes the index manifest (`index.meta`).
pub(crate) fn write_manifest(dir: &Path, shard_bits: u32) -> Result<(), StorageError> {
    let path = dir.join(MANIFEST_FILE);
    let mut bytes = Vec::with_capacity(MANIFEST_LEN as usize);
    bytes.extend_from_slice(&MANIFEST_MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&shard_bits.to_le_bytes());
    bytes.extend_from_slice(&(1u64 << shard_bits).to_le_bytes());
    write_file_atomic(&path, |writer| writer.write_all(&bytes))
}

/// Reads and validates the index manifest, returning the shard bits.
pub(crate) fn read_manifest(dir: &Path) -> Result<u32, StorageError> {
    let path = dir.join(MANIFEST_FILE);
    let mut file = File::open(&path).map_err(|e| io_err(&path, e))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).map_err(|e| io_err(&path, e))?;
    check_header(&path, &bytes, &MANIFEST_MAGIC, MANIFEST_LEN)?;
    if bytes.len() as u64 != MANIFEST_LEN {
        return Err(StorageError::CorruptDirectory {
            path,
            detail: format!(
                "{} trailing bytes after the manifest fields",
                bytes.len() as u64 - MANIFEST_LEN
            ),
        });
    }
    let shard_bits = read_u32(&bytes[12..]);
    let shard_count = read_u64(&bytes[16..]);
    if shard_bits > crate::sharded::MAX_SHARD_BITS || shard_count != 1u64 << shard_bits {
        return Err(StorageError::CorruptDirectory {
            path,
            detail: format!("manifest claims {shard_count} shards at {shard_bits} shard bits"),
        });
    }
    Ok(shard_bits)
}

/// Serializes every shard of `shards` (plus the manifest) into `dir`,
/// creating it if needed. Shard files are written in parallel.
///
/// A **first** save into a directory writes the files directly (each one
/// tmp+renamed, manifest last — there is no old index a crash could mix
/// with). A **re-save over an existing index** is directory-level atomic:
/// everything is written into a fresh staging directory which is then
/// renamed into place, so a crash at any point leaves either the complete
/// old snapshot or the complete new one — never a cleanly-opening mix of
/// old and new same-shard-count files (see [`staged_resave`]).
pub(crate) fn save_shards_to_dir(
    dir: &Path,
    shard_bits: u32,
    shards: &[Shard],
) -> Result<(), StorageError> {
    recover_displaced_snapshot(dir);
    if dir.join(MANIFEST_FILE).exists() {
        return staged_resave(dir, shard_bits, shards);
    }
    fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    write_shard_files(dir, shard_bits, shards)?;
    remove_stale_shard_files(dir, shards.len());
    Ok(())
}

/// Completes the rollback of a re-save commit that died between its two
/// renames: if `dir` is missing but a complete old snapshot is parked at
/// `<dir>.old`, restore it. Called by both the open and the save path, so
/// the crash window between "old parked" and "staging renamed in" heals
/// at the next access instead of requiring operator surgery.
pub(crate) fn recover_displaced_snapshot(dir: &Path) {
    if dir.exists() {
        return;
    }
    let displaced = displaced_path(dir);
    if displaced.join(MANIFEST_FILE).exists() {
        let _ = fs::rename(&displaced, dir);
    }
}

/// Writes every shard file (in parallel) and then the manifest into `dir`.
/// The manifest is written LAST: it is the commit record of a save into a
/// fresh directory.
fn write_shard_files(dir: &Path, shard_bits: u32, shards: &[Shard]) -> Result<(), StorageError> {
    let jobs: Vec<(usize, &Shard)> = shards.iter().enumerate().collect();
    let results: Vec<Result<(), StorageError>> = jobs
        .into_par_iter()
        .map(|(i, shard)| shard.save(&dir.join(shard_file_name(i))))
        .collect();
    results.into_iter().collect::<Result<(), StorageError>>()?;
    write_manifest(dir, shard_bits)
}

/// The staging sibling a re-save writes into before committing.
fn staging_path(dir: &Path) -> PathBuf {
    let mut name = dir.file_name().unwrap_or_default().to_os_string();
    name.push(".staging");
    dir.with_file_name(name)
}

/// The sibling the old snapshot is parked at during the commit swap.
fn displaced_path(dir: &Path) -> PathBuf {
    let mut name = dir.file_name().unwrap_or_default().to_os_string();
    name.push(".old");
    dir.with_file_name(name)
}

/// Removes a leftover `<dir>.staging` / `<dir>.old` scratch directory from
/// a previously crashed save — but only if it plausibly *is* one: empty,
/// or containing at least one index file (manifest or shard file; a
/// crashed staging always does, since sidecar copies happen after the
/// shard writes). Anything else at the scratch path is foreign data and
/// aborts the save with a typed error instead of being deleted.
fn clear_save_leftover(path: &Path) -> Result<(), StorageError> {
    let Ok(metadata) = fs::symlink_metadata(path) else {
        return Ok(()); // nothing there
    };
    let refuse = |detail: String| {
        Err(StorageError::CorruptDirectory {
            path: path.to_path_buf(),
            detail,
        })
    };
    if !metadata.is_dir() {
        return refuse(
            "the save's scratch path is occupied by a non-directory; move it away".to_string(),
        );
    }
    let entries = fs::read_dir(path).map_err(|e| io_err(path, e))?;
    let mut saw_entry = false;
    let mut saw_index_file = false;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(path, e))?;
        saw_entry = true;
        if entry.file_name().to_str().is_some_and(is_index_file) {
            saw_index_file = true;
            break;
        }
    }
    if saw_entry && !saw_index_file {
        return refuse(
            "the save's scratch path holds a directory with no index files — not a \
             crashed save's leftover; refusing to delete it"
                .to_string(),
        );
    }
    fs::remove_dir_all(path).map_err(|e| io_err(path, e))
}

/// Whether `name` is one of the files a save itself writes (shard files,
/// the manifest, or their tmp scratch siblings) — as opposed to scheme
/// sidecars like `constant.meta` that must survive a re-save.
fn is_index_file(name: &str) -> bool {
    if name == MANIFEST_FILE || name == "index.meta.tmp" {
        return true;
    }
    let stem = name
        .strip_suffix(".shd.tmp")
        .or_else(|| name.strip_suffix(".shd"));
    matches!(stem.and_then(|s| s.strip_prefix("shard-")), Some(digits) if digits.chars().all(|c| c.is_ascii_digit()))
}

/// Directory-level atomic re-save: the whole new snapshot (shard files,
/// manifest, and copies of any non-index sidecar files such as
/// `constant.meta`) is written into a `<dir>.staging` sibling, then
/// committed by renaming it into place — the old directory is moved aside
/// first and removed after. A crash while staging leaves the old snapshot
/// untouched (stale staging directories are cleaned up at the next save);
/// a crash after the commit rename leaves the complete new snapshot. At no
/// point does `dir` hold a mix of old and new files.
fn staged_resave(dir: &Path, shard_bits: u32, shards: &[Shard]) -> Result<(), StorageError> {
    let staging = staging_path(dir);
    let displaced = displaced_path(dir);
    // Clean up leftovers of a previous crashed save — refusing, with a
    // typed error, to delete sibling directories that were clearly not
    // produced by a save (a user's unrelated data at `<dir>.staging` or
    // `<dir>.old` must never be silently destroyed).
    clear_save_leftover(&staging)?;
    clear_save_leftover(&displaced)?;
    fs::create_dir_all(&staging).map_err(|e| io_err(&staging, e))?;
    let staged = (|| {
        write_shard_files(&staging, shard_bits, shards)?;
        // Preserve everything the save itself does not own (scheme
        // sidecars, user files) so the committed directory is a strict
        // replacement of the index files only.
        let entries = fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(dir, e))?;
            let name = entry.file_name();
            let is_sidecar = name
                .to_str()
                .map(|name| !is_index_file(name))
                .unwrap_or(true);
            if is_sidecar && entry.path().is_file() {
                fs::copy(entry.path(), staging.join(&name))
                    .map_err(|e| io_err(&entry.path(), e))?;
            }
        }
        Ok(())
    })();
    if let Err(error) = staged {
        let _ = fs::remove_dir_all(&staging);
        return Err(error);
    }
    // Commit: park the old snapshot, rename the staging directory into
    // place, then drop the old one. Open file handles into the old
    // snapshot keep reading their (now unlinked) inodes.
    fs::rename(dir, &displaced).map_err(|e| io_err(dir, e))?;
    if let Err(error) = fs::rename(&staging, dir) {
        // Roll the old snapshot back so the target never stays missing.
        let _ = fs::rename(&displaced, dir);
        let _ = fs::remove_dir_all(&staging);
        return Err(io_err(dir, error));
    }
    let _ = fs::remove_dir_all(&displaced);
    Ok(())
}

/// Removes leftover `shard-NNNNN.shd` files (and their `.tmp` scratch
/// siblings) with indices past the just-saved shard count — stale remnants
/// of a previous, more-sharded index saved into the same directory, which
/// would otherwise linger next to the new files. Best effort: a file that
/// cannot be removed never affects correctness (`open_dir` is
/// manifest-driven), only directory hygiene.
fn remove_stale_shard_files(dir: &Path, shard_count: usize) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stem = name
            .strip_suffix(".shd.tmp")
            .or_else(|| name.strip_suffix(".shd"));
        let Some(index) = stem
            .and_then(|stem| stem.strip_prefix("shard-"))
            .and_then(|digits| digits.parse::<usize>().ok())
        else {
            continue;
        };
        if index >= shard_count {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// Opens every shard file under `dir` (in parallel) after validating the
/// manifest: with a `cache`, each region stays in its file and is paged
/// in through that index-wide cache; without one, each region is read
/// into memory.
pub(crate) fn open_shards_from_dir(
    dir: &Path,
    cache: Option<&Arc<BlockCache>>,
) -> Result<(u32, Vec<Shard>), StorageError> {
    recover_displaced_snapshot(dir);
    let shard_bits = read_manifest(dir)?;
    let shard_count = 1usize << shard_bits;
    let indices: Vec<usize> = (0..shard_count).collect();
    let results: Vec<Result<Shard, StorageError>> = indices
        .into_par_iter()
        .map(|i| {
            let path = dir.join(shard_file_name(i));
            let shard = Shard::open(&path, cache.map(|cache| (cache, i as u32)))?;
            // Label-prefix routing check: every label in shard i must carry
            // prefix i at the manifest's shard-bit width, or probes routed
            // by shard_of(label) would silently miss. This rejects swapped
            // or foreign shard files — individually valid, collectively
            // wrong — with a typed error instead of empty query results.
            if shard_bits > 0 {
                for label in shard.labels() {
                    let prefix =
                        u64::from_be_bytes(label[..8].try_into().expect("labels are 16 bytes"))
                            >> (64 - shard_bits);
                    if prefix != i as u64 {
                        return Err(StorageError::CorruptDirectory {
                            path,
                            detail: format!(
                                "label with shard prefix {prefix} stored in shard {i} \
                                 (at {shard_bits} shard bits) — shard files swapped or \
                                 from a different index layout"
                            ),
                        });
                    }
                }
            }
            Ok(shard)
        })
        .collect();
    let shards = results
        .into_iter()
        .collect::<Result<Vec<Shard>, StorageError>>()?;
    Ok((shard_bits, shards))
}

// ---------------------------------------------------------------------------
// Update-manager owner state: `manager.meta` + per-instance `owner.meta`
// ---------------------------------------------------------------------------

/// Magic bytes opening the update manager's root manifest (`manager.meta`).
pub const MANAGER_MANIFEST_MAGIC: [u8; 8] = *b"RSSE-MGR";

/// File name of the update manager's root manifest inside a storage root.
pub const MANAGER_MANIFEST_FILE: &str = "manager.meta";

/// Magic bytes opening a per-instance owner sidecar (`owner.meta`).
pub const OWNER_META_MAGIC: [u8; 8] = *b"RSSE-OWN";

/// File name of the per-instance owner sidecar inside an instance directory.
pub const OWNER_META_FILE: &str = "owner.meta";

/// Fixed `manager.meta` header length (magic + version + scheme-name
/// length), before the variable-length fields.
const MANAGER_HEADER_LEN: u64 = 16;

/// Fixed `owner.meta` length before the encrypted payload.
const OWNER_META_HEADER_LEN: u64 = 40;

/// One active instance as recorded in the update manager's root manifest:
/// public bookkeeping only (counts and names) — the owner's secrets (the
/// build seed and the plaintext update log) live in the instance's
/// encrypted [`OwnerMeta`] sidecar, never in the manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestInstance {
    /// Monotonic build number naming the instance directory
    /// (`instance-{build_id:08}`).
    pub build_id: u64,
    /// The instance's sequence number (largest = newest; a merged instance
    /// reuses the newest sequence number of its inputs).
    pub seq: u64,
    /// Number of update entries the instance indexes.
    pub entry_count: u64,
    /// Number of insert operations among the entries.
    pub inserts: u64,
    /// Number of modify operations among the entries.
    pub modifies: u64,
    /// Number of delete operations (tombstones) among the entries.
    pub deletes: u64,
}

/// The update manager's durable root manifest (`manager.meta`): everything
/// the owner needs — besides the master key and the per-instance
/// [`OwnerMeta`] sidecars — to reopen a whole `UpdateManager` from its
/// storage root after a crash or restart.
///
/// The manifest is deliberately **public data**: scheme kind and
/// parameters, counters, and the level table with per-instance sequence
/// numbers and operation counts. It is written through the same
/// tmp+rename atomic-write machinery as every other metadata file, and
/// always *after* the instance directories it references are durably
/// committed, so a crash between an index commit and the manifest commit
/// leaves a manifest describing the previous consistent state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManagerManifest {
    /// `RangeScheme::NAME` of the scheme the manager is instantiated with;
    /// reopening with a different scheme is rejected typed.
    pub scheme: String,
    /// Size of the attribute domain shared by all batches.
    pub domain_size: u64,
    /// The consolidation step `s` the manager was configured with.
    pub consolidation_step: u64,
    /// Label-prefix shard bits of every index the manager builds.
    pub shard_bits: u32,
    /// Block-cache budget for persisted instances (`None` = unbounded).
    pub cache_budget: Option<u64>,
    /// Next batch sequence number.
    pub next_seq: u64,
    /// Next instance-directory build number.
    pub next_build: u64,
    /// Raw batches ingested so far.
    pub batches_ingested: u64,
    /// Consolidation operations performed so far (always the sum of the
    /// two strategy counters below).
    pub consolidations: u64,
    /// Consolidations realized as structural merges: ciphertext copied
    /// verbatim from the input instances, no re-encryption.
    pub structural_consolidations: u64,
    /// Consolidations realized as full rebuilds (the reference path every
    /// scheme supports).
    pub rebuild_consolidations: u64,
    /// The level table: `levels[l]` lists the active instances at height
    /// `l` of the merge hierarchy, in insertion (ascending-seq) order.
    pub levels: Vec<Vec<ManifestInstance>>,
}

impl ManagerManifest {
    /// The directory name of an instance with this build number
    /// (`instance-{build_id:08}`, zero-padded so names sort by build).
    pub fn instance_dir_name(build_id: u64) -> String {
        format!("instance-{build_id:08}")
    }

    /// Parses an instance directory name back into its build number
    /// (`None` for anything that is not exactly `instance-NNNNNNNN`).
    pub fn parse_instance_dir_name(name: &str) -> Option<u64> {
        let digits = name.strip_prefix("instance-")?;
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        digits.parse().ok()
    }

    /// Serializes the manifest into its on-disk byte layout (see
    /// `docs/FORMATS.md` for the byte-by-byte specification).
    fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(128 + self.levels.len() * 64);
        bytes.extend_from_slice(&MANAGER_MANIFEST_MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(self.scheme.len() as u32).to_le_bytes());
        bytes.extend_from_slice(self.scheme.as_bytes());
        bytes.extend_from_slice(&self.domain_size.to_le_bytes());
        bytes.extend_from_slice(&self.consolidation_step.to_le_bytes());
        bytes.extend_from_slice(&self.shard_bits.to_le_bytes());
        bytes.extend_from_slice(&u32::from(self.cache_budget.is_some()).to_le_bytes());
        bytes.extend_from_slice(&self.cache_budget.unwrap_or(0).to_le_bytes());
        bytes.extend_from_slice(&self.next_seq.to_le_bytes());
        bytes.extend_from_slice(&self.next_build.to_le_bytes());
        bytes.extend_from_slice(&self.batches_ingested.to_le_bytes());
        bytes.extend_from_slice(&self.consolidations.to_le_bytes());
        bytes.extend_from_slice(&self.structural_consolidations.to_le_bytes());
        bytes.extend_from_slice(&self.rebuild_consolidations.to_le_bytes());
        bytes.extend_from_slice(&(self.levels.len() as u32).to_le_bytes());
        for level in &self.levels {
            bytes.extend_from_slice(&(level.len() as u32).to_le_bytes());
            for instance in level {
                bytes.extend_from_slice(&instance.build_id.to_le_bytes());
                bytes.extend_from_slice(&instance.seq.to_le_bytes());
                bytes.extend_from_slice(&instance.entry_count.to_le_bytes());
                bytes.extend_from_slice(&instance.inserts.to_le_bytes());
                bytes.extend_from_slice(&instance.modifies.to_le_bytes());
                bytes.extend_from_slice(&instance.deletes.to_le_bytes());
            }
        }
        bytes
    }
}

/// A bounds-checked little-endian cursor over a metadata file's bytes:
/// every read that would run past the end surfaces the standard
/// [`StorageError::Truncated`] instead of panicking.
struct MetaReader<'a> {
    path: &'a Path,
    bytes: &'a [u8],
    at: usize,
}

impl<'a> MetaReader<'a> {
    fn new(path: &'a Path, bytes: &'a [u8], at: usize) -> Self {
        Self { path, bytes, at }
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], StorageError> {
        let end = self.at.checked_add(len).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.at..end];
                self.at = end;
                Ok(slice)
            }
            None => Err(StorageError::Truncated {
                path: self.path.to_path_buf(),
                expected: (self.at as u64).saturating_add(len as u64),
                actual: self.bytes.len() as u64,
            }),
        }
    }

    fn u32(&mut self) -> Result<u32, StorageError> {
        self.take(4).map(read_u32)
    }

    fn u64(&mut self) -> Result<u64, StorageError> {
        self.take(8).map(read_u64)
    }

    /// Remaining unread bytes (for exact-length trailing checks).
    fn remaining(&self) -> u64 {
        (self.bytes.len() - self.at) as u64
    }
}

/// Writes the update manager's root manifest into `root/manager.meta`
/// atomically (tmp + rename): a crash mid-write leaves the previous
/// manifest byte-identical.
pub fn write_manager_manifest(root: &Path, manifest: &ManagerManifest) -> Result<(), StorageError> {
    write_file_atomic_bytes(&root.join(MANAGER_MANIFEST_FILE), &manifest.to_bytes())
}

/// Reads and validates `root/manager.meta`.
///
/// # Errors
///
/// Every malformed input surfaces as a typed [`StorageError`]: a missing
/// file as [`Io`](StorageError::Io), foreign content as
/// [`BadMagic`](StorageError::BadMagic), an unknown format as
/// [`UnsupportedVersion`](StorageError::UnsupportedVersion), a short file
/// as [`Truncated`](StorageError::Truncated), and internal inconsistencies
/// (non-UTF-8 scheme name, oversized tables, trailing bytes) as
/// [`CorruptDirectory`](StorageError::CorruptDirectory).
pub fn read_manager_manifest(root: &Path) -> Result<ManagerManifest, StorageError> {
    let path = root.join(MANAGER_MANIFEST_FILE);
    let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
    check_header(&path, &bytes, &MANAGER_MANIFEST_MAGIC, MANAGER_HEADER_LEN)?;
    let corrupt = |detail: String| StorageError::CorruptDirectory {
        path: path.clone(),
        detail,
    };
    let mut reader = MetaReader::new(&path, &bytes, 12);
    let name_len = reader.u32()? as usize;
    if name_len > 256 {
        return Err(corrupt(format!(
            "scheme name length {name_len} exceeds the 256-byte bound"
        )));
    }
    let scheme = std::str::from_utf8(reader.take(name_len)?)
        .map_err(|_| corrupt("scheme name is not UTF-8".to_string()))?
        .to_string();
    let domain_size = reader.u64()?;
    let consolidation_step = reader.u64()?;
    let shard_bits = reader.u32()?;
    if shard_bits > crate::sharded::MAX_SHARD_BITS {
        return Err(corrupt(format!(
            "manifest claims {shard_bits} shard bits (max {})",
            crate::sharded::MAX_SHARD_BITS
        )));
    }
    let budget_flag = reader.u32()?;
    if budget_flag > 1 {
        return Err(corrupt(format!("invalid cache-budget flag {budget_flag}")));
    }
    let budget_value = reader.u64()?;
    let cache_budget = (budget_flag == 1).then_some(budget_value);
    let next_seq = reader.u64()?;
    let next_build = reader.u64()?;
    let batches_ingested = reader.u64()?;
    let consolidations = reader.u64()?;
    let structural_consolidations = reader.u64()?;
    let rebuild_consolidations = reader.u64()?;
    if structural_consolidations.checked_add(rebuild_consolidations) != Some(consolidations) {
        return Err(corrupt(format!(
            "strategy counters ({structural_consolidations} structural + \
             {rebuild_consolidations} rebuild) do not sum to {consolidations} consolidations"
        )));
    }
    let level_count = reader.u32()? as usize;
    if level_count > 64 {
        return Err(corrupt(format!(
            "manifest claims {level_count} merge levels (max 64)"
        )));
    }
    let mut levels = Vec::with_capacity(level_count);
    for level in 0..level_count {
        let instance_count = reader.u32()? as usize;
        if instance_count as u64 > next_build {
            return Err(corrupt(format!(
                "level {level} claims {instance_count} instances but only \
                 {next_build} builds ever ran"
            )));
        }
        // Cap the pre-allocation: `instance_count` is untrusted input (its
        // only bound above comes from the same file), so an absurd count
        // must run the reads dry into a typed Truncated error, not abort
        // the process reserving gigabytes first.
        let mut instances = Vec::with_capacity(instance_count.min(1024));
        for _ in 0..instance_count {
            let instance = ManifestInstance {
                build_id: reader.u64()?,
                seq: reader.u64()?,
                entry_count: reader.u64()?,
                inserts: reader.u64()?,
                modifies: reader.u64()?,
                deletes: reader.u64()?,
            };
            let op_sum = instance
                .inserts
                .checked_add(instance.modifies)
                .and_then(|sum| sum.checked_add(instance.deletes));
            if op_sum != Some(instance.entry_count) {
                return Err(corrupt(format!(
                    "instance {} op counts do not sum to its {} entries",
                    instance.build_id, instance.entry_count
                )));
            }
            instances.push(instance);
        }
        levels.push(instances);
    }
    if reader.remaining() != 0 {
        return Err(corrupt(format!(
            "{} trailing bytes after the level table",
            reader.remaining()
        )));
    }
    Ok(ManagerManifest {
        scheme,
        domain_size,
        consolidation_step,
        shard_bits,
        cache_budget,
        next_seq,
        next_build,
        batches_ingested,
        consolidations,
        structural_consolidations,
        rebuild_consolidations,
        levels,
    })
}

/// The owner-side sidecar of one persisted update-manager instance
/// (`<instance dir>/owner.meta`): the public identity of the instance plus
/// an opaque `payload` — the build seed and plaintext update log,
/// encrypted and authenticated by the `rsse-updates` crate under the
/// owner's master key. This layer only frames the bytes; it never sees
/// the plaintext.
///
/// The sidecar is written **last** during an instance build, so its
/// presence is the instance's durable commit record: a directory without
/// a readable `owner.meta` is a half-built instance and is swept by the
/// manager's reopen path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OwnerMeta {
    /// Build number of the instance (must match the directory name).
    pub build_id: u64,
    /// The instance's sequence number.
    pub seq: u64,
    /// Height of the instance in the merge hierarchy (0 = raw batch).
    pub level: u32,
    /// Encrypted, authenticated owner payload (opaque at this layer).
    pub payload: Vec<u8>,
}

/// Writes an instance's owner sidecar into `dir/owner.meta` atomically.
pub fn write_owner_meta(dir: &Path, meta: &OwnerMeta) -> Result<(), StorageError> {
    let mut bytes = Vec::with_capacity(OWNER_META_HEADER_LEN as usize + meta.payload.len());
    bytes.extend_from_slice(&OWNER_META_MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&meta.level.to_le_bytes());
    bytes.extend_from_slice(&meta.build_id.to_le_bytes());
    bytes.extend_from_slice(&meta.seq.to_le_bytes());
    bytes.extend_from_slice(&(meta.payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&meta.payload);
    write_file_atomic_bytes(&dir.join(OWNER_META_FILE), &bytes)
}

/// Reads and validates an instance's owner sidecar from `dir/owner.meta`,
/// surfacing every malformed input as a typed [`StorageError`] (see
/// [`read_manager_manifest`] for the error taxonomy).
pub fn read_owner_meta(dir: &Path) -> Result<OwnerMeta, StorageError> {
    let path = dir.join(OWNER_META_FILE);
    let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
    check_header(&path, &bytes, &OWNER_META_MAGIC, OWNER_META_HEADER_LEN)?;
    let mut reader = MetaReader::new(&path, &bytes, 12);
    let level = reader.u32()?;
    let build_id = reader.u64()?;
    let seq = reader.u64()?;
    let payload_len = reader.u64()?;
    if payload_len != reader.remaining() {
        return Err(StorageError::CorruptDirectory {
            path: path.clone(),
            detail: format!(
                "payload length field says {payload_len} bytes, file holds {}",
                reader.remaining()
            ),
        });
    }
    let payload = reader.take(payload_len as usize)?.to_vec();
    Ok(OwnerMeta {
        build_id,
        seq,
        level,
        payload,
    })
}

pub mod test_support {
    //! Unique scratch directories for persistence tests.
    //!
    //! Not part of the crate's API contract — exposed (`#[doc(hidden)]` at
    //! the re-export) so the downstream crates' persistence tests share one
    //! helper instead of three copies.

    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    /// A unique scratch directory under the system temp dir, removed on
    /// drop (best effort).
    pub struct TempDir(PathBuf);

    impl TempDir {
        /// Creates a fresh directory tagged with `tag`.
        pub fn new(tag: &str) -> Self {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path =
                std::env::temp_dir().join(format!("rsse-test-{}-{tag}-{n}", std::process::id()));
            std::fs::create_dir_all(&path).expect("create temp dir");
            TempDir(path)
        }

        /// The directory path.
        pub fn path(&self) -> &Path {
            &self.0
        }

        /// Number of entries directly under the directory (0 if unreadable).
        pub fn subdir_count(&self) -> usize {
            std::fs::read_dir(&self.0).map(|it| it.count()).unwrap_or(0)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// Whether `shard`'s directory and region bytes, in region order, are
/// exactly those of the shard file at `path` (parsed independently of
/// [`Shard::open`]).
#[cfg(test)]
pub(crate) fn shard_matches_file(shard: &Shard, path: &Path) -> bool {
    let bytes = fs::read(path).unwrap();
    let count = read_u64(&bytes[16..]) as usize;
    let directory_end = SHARD_HEADER_LEN as usize + count * DIR_ENTRY_LEN as usize;
    let directory: Vec<(Label, u32, u32)> = bytes[SHARD_HEADER_LEN as usize..directory_end]
        .chunks_exact(DIR_ENTRY_LEN as usize)
        .map(|entry| {
            let label: Label = entry[..LABEL_LEN].try_into().unwrap();
            (
                label,
                read_u32(&entry[LABEL_LEN..]),
                read_u32(&entry[LABEL_LEN + 4..]),
            )
        })
        .collect();
    shard.entries_by_offset() == directory
        && *shard.region_bytes().unwrap() == bytes[directory_end..]
}

#[cfg(test)]
mod tests {
    use super::test_support::TempDir;
    use super::*;
    use crate::database::SseDatabase;
    use crate::pibas::SseScheme;
    use crate::sharded::ShardedIndex;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    /// Builds a small saved index directory and returns (tempdir, shard-0
    /// file path, valid shard-0 bytes).
    fn saved_index(bits: u32) -> (TempDir, PathBuf, Vec<u8>) {
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let key = SseScheme::setup(&mut rng);
        let mut db = SseDatabase::new();
        for i in 0..32u64 {
            db.add(
                format!("kw{}", i % 4).into_bytes(),
                i.to_le_bytes().to_vec(),
            );
        }
        let index =
            SseScheme::build_index_stored(&key, &db, &StorageConfig::in_memory(bits), &mut rng)
                .unwrap();
        let dir = TempDir::new("robust");
        index.save_to_dir(dir.path()).unwrap();
        let shard0 = dir.path().join(shard_file_name(0));
        let bytes = fs::read(&shard0).unwrap();
        (dir, shard0, bytes)
    }

    #[test]
    fn open_rejects_header_truncated_file() {
        let (_dir, shard0, bytes) = saved_index(0);
        fs::write(&shard0, &bytes[..16]).unwrap();
        match Shard::open(&shard0, None) {
            Err(StorageError::Truncated {
                expected, actual, ..
            }) => {
                assert_eq!(expected, 32);
                assert_eq!(actual, 16);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn open_rejects_body_truncated_file() {
        let (_dir, shard0, bytes) = saved_index(0);
        fs::write(&shard0, &bytes[..bytes.len() - 7]).unwrap();
        match Shard::open(&shard0, None) {
            Err(StorageError::Truncated {
                expected, actual, ..
            }) => {
                assert_eq!(expected, bytes.len() as u64);
                assert_eq!(actual, bytes.len() as u64 - 7);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn open_rejects_bad_magic() {
        let (_dir, shard0, mut bytes) = saved_index(0);
        bytes[..8].copy_from_slice(b"NOTANIDX");
        fs::write(&shard0, &bytes).unwrap();
        match Shard::open(&shard0, None) {
            Err(StorageError::BadMagic { found, .. }) => assert_eq!(&found, b"NOTANIDX"),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn open_rejects_unsupported_version() {
        let (_dir, shard0, mut bytes) = saved_index(0);
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        fs::write(&shard0, &bytes).unwrap();
        match Shard::open(&shard0, None) {
            Err(StorageError::UnsupportedVersion { version, .. }) => assert_eq!(version, 99),
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn open_rejects_out_of_bounds_directory_span() {
        let (_dir, shard0, mut bytes) = saved_index(0);
        // Inflate the last directory entry's length so its span overruns
        // the region (the header's sizes are untouched, so the length
        // checks pass and the span check itself must fire).
        let entry_count = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        let last_len_at = 32 + (entry_count - 1) * 24 + 20;
        let old_len = u32::from_le_bytes(bytes[last_len_at..last_len_at + 4].try_into().unwrap());
        bytes[last_len_at..last_len_at + 4].copy_from_slice(&(old_len + 1000).to_le_bytes());
        fs::write(&shard0, &bytes).unwrap();
        match Shard::open(&shard0, None) {
            Err(StorageError::CorruptDirectory { detail, .. }) => {
                assert!(detail.contains("overruns"), "unexpected detail: {detail}")
            }
            other => panic!("expected CorruptDirectory, got {other:?}"),
        }
    }

    #[test]
    fn open_rejects_non_tiling_directory_offsets() {
        let (_dir, shard0, mut bytes) = saved_index(0);
        // Shift the second entry's offset forward: spans no longer tile.
        let offset_at = 32 + 24 + 16;
        let old = u32::from_le_bytes(bytes[offset_at..offset_at + 4].try_into().unwrap());
        bytes[offset_at..offset_at + 4].copy_from_slice(&(old + 1).to_le_bytes());
        fs::write(&shard0, &bytes).unwrap();
        match Shard::open(&shard0, None) {
            Err(StorageError::CorruptDirectory { detail, .. }) => {
                assert!(detail.contains("tile"), "unexpected detail: {detail}")
            }
            other => panic!("expected CorruptDirectory, got {other:?}"),
        }
    }

    #[test]
    fn open_rejects_trailing_bytes() {
        let (_dir, shard0, mut bytes) = saved_index(0);
        bytes.extend_from_slice(b"junk");
        fs::write(&shard0, &bytes).unwrap();
        match Shard::open(&shard0, None) {
            Err(StorageError::CorruptDirectory { detail, .. }) => {
                assert!(detail.contains("trailing"), "unexpected detail: {detail}")
            }
            other => panic!("expected CorruptDirectory, got {other:?}"),
        }
    }

    #[test]
    fn open_dir_rejects_corrupt_manifest() {
        let (dir, _, _) = saved_index(2);
        let manifest = dir.path().join(MANIFEST_FILE);

        let valid = fs::read(&manifest).unwrap();
        fs::write(&manifest, &valid[..10]).unwrap();
        assert!(matches!(
            ShardedIndex::open_dir(dir.path()),
            Err(StorageError::Truncated { .. })
        ));

        let mut bad_magic = valid.clone();
        bad_magic[0] ^= 0xFF;
        fs::write(&manifest, &bad_magic).unwrap();
        assert!(matches!(
            ShardedIndex::open_dir(dir.path()),
            Err(StorageError::BadMagic { .. })
        ));

        let mut bad_version = valid.clone();
        bad_version[8..12].copy_from_slice(&7u32.to_le_bytes());
        fs::write(&manifest, &bad_version).unwrap();
        assert!(matches!(
            ShardedIndex::open_dir(dir.path()),
            Err(StorageError::UnsupportedVersion { version: 7, .. })
        ));

        let mut bad_count = valid.clone();
        bad_count[16..24].copy_from_slice(&3u64.to_le_bytes());
        fs::write(&manifest, &bad_count).unwrap();
        assert!(matches!(
            ShardedIndex::open_dir(dir.path()),
            Err(StorageError::CorruptDirectory { .. })
        ));
    }

    #[test]
    fn open_dir_rejects_swapped_shard_files() {
        // Each shard file is internally valid, but routing goes by label
        // prefix: swapping two files must be rejected typed, not opened
        // into an index that silently answers everything empty.
        let (dir, _, _) = saved_index(2);
        let a = dir.path().join(shard_file_name(0));
        let b = dir.path().join(shard_file_name(1));
        let tmp = dir.path().join("swap");
        fs::rename(&a, &tmp).unwrap();
        fs::rename(&b, &a).unwrap();
        fs::rename(&tmp, &b).unwrap();
        match ShardedIndex::open_dir(dir.path()) {
            Err(StorageError::CorruptDirectory { detail, .. }) => {
                assert!(detail.contains("prefix"), "unexpected detail: {detail}")
            }
            other => panic!("expected CorruptDirectory, got {other:?}"),
        }
    }

    #[test]
    fn open_dir_rejects_missing_shard_file() {
        let (dir, shard0, _) = saved_index(1);
        fs::remove_file(&shard0).unwrap();
        assert!(matches!(
            ShardedIndex::open_dir(dir.path()),
            Err(StorageError::Io { .. })
        ));
    }

    #[test]
    fn open_dir_rejects_missing_directory() {
        let missing = std::env::temp_dir().join("rsse-definitely-missing-index");
        assert!(matches!(
            ShardedIndex::open_dir(&missing),
            Err(StorageError::Io { .. })
        ));
    }

    #[test]
    fn errors_render_their_context() {
        let (dir, shard0, mut bytes) = saved_index(0);
        bytes[..8].copy_from_slice(b"XXXXXXXX");
        fs::write(&shard0, &bytes).unwrap();
        let err = ShardedIndex::open_dir(dir.path());
        // The manifest is fine, so the error comes from the shard file and
        // names it.
        let rendered = format!("{}", err.expect_err("must fail"));
        assert!(rendered.contains("shard-00000.shd"), "got: {rendered}");
    }

    #[test]
    fn failed_on_disk_build_cleans_up_its_files() {
        let dir = TempDir::new("partial-clean");
        // Occupy the shard file's path with a directory: the manifest write
        // succeeds, the shard write fails, and the cleanup must remove the
        // manifest again without touching the (pre-existing) occupant.
        let occupant = dir.path().join(shard_file_name(0));
        fs::create_dir_all(&occupant).unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let key = SseScheme::setup(&mut rng);
        let mut db = SseDatabase::new();
        db.add(b"w".to_vec(), b"payload".to_vec());
        let err = SseScheme::build_index_stored(
            &key,
            &db,
            &StorageConfig::on_disk(0, dir.path()),
            &mut rng,
        )
        .expect_err("occupied shard path must fail");
        assert!(matches!(err, StorageError::Io { .. }));
        assert!(
            !dir.path().join(MANIFEST_FILE).exists(),
            "the half-written manifest must be cleaned up"
        );
        assert!(occupant.exists(), "pre-existing content must survive");
    }

    #[test]
    fn resaving_into_the_directory_being_served_is_safe() {
        // Regression: save_to_dir used to truncate each shard file before
        // the file-backed serializer read it back, destroying the index it
        // was serializing. The atomic tmp+rename write must keep in-place
        // re-saves byte-identical and the open handles valid throughout.
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let key = SseScheme::setup(&mut rng);
        let mut db = SseDatabase::new();
        for i in 0..32u64 {
            db.add(
                format!("kw{}", i % 4).into_bytes(),
                i.to_le_bytes().to_vec(),
            );
        }
        let index =
            SseScheme::build_index_stored(&key, &db, &StorageConfig::in_memory(2), &mut rng)
                .unwrap();
        let dir = TempDir::new("inplace-resave");
        index.save_to_dir(dir.path()).unwrap();
        let before = fs::read(dir.path().join(shard_file_name(0))).unwrap();

        let reopened = ShardedIndex::open_dir(dir.path()).unwrap();
        reopened
            .save_to_dir(dir.path())
            .expect("re-saving into the serving directory must succeed");
        assert_eq!(
            fs::read(dir.path().join(shard_file_name(0))).unwrap(),
            before,
            "in-place re-save must be byte-identical"
        );
        // Both the still-open handle and a fresh open keep answering.
        let token = SseScheme::trapdoor(&key, b"kw1");
        assert_eq!(SseScheme::search(&reopened, &token).unwrap().len(), 8);
        let fresh = ShardedIndex::open_dir(dir.path()).unwrap();
        assert_eq!(SseScheme::search(&fresh, &token).unwrap().len(), 8);
    }

    #[test]
    fn resave_removes_stale_higher_numbered_shard_files() {
        // Saving a less-sharded index over a more-sharded one must not
        // leave the old index's extra shard files interleaved.
        let mut rng = ChaCha20Rng::seed_from_u64(4);
        let key = SseScheme::setup(&mut rng);
        let mut db = SseDatabase::new();
        db.add(b"w".to_vec(), b"payload".to_vec());
        let dir = TempDir::new("stale-shards");
        SseScheme::build_index_stored(&key, &db, &StorageConfig::in_memory(3), &mut rng)
            .unwrap()
            .save_to_dir(dir.path())
            .unwrap();
        SseScheme::build_index_stored(&key, &db, &StorageConfig::in_memory(0), &mut rng)
            .unwrap()
            .save_to_dir(dir.path())
            .unwrap();
        let names: Vec<String> = fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(
            !names.iter().any(|n| n == &shard_file_name(1)),
            "stale shard files must be removed, got {names:?}"
        );
        assert_eq!(names.len(), 2, "manifest + one shard file: {names:?}");
    }

    #[test]
    fn resave_preserves_sidecar_files() {
        // Scheme sidecars (Constant's depth meta, PB's tree) live next to
        // the shard files; the staged re-save must carry them into the
        // committed snapshot.
        let (dir, _, _) = saved_index(1);
        let sidecar = dir.path().join("constant.meta");
        fs::write(&sidecar, b"sidecar-bytes").unwrap();
        let index = ShardedIndex::open_dir(dir.path()).unwrap();
        index.save_to_dir(dir.path()).unwrap();
        assert_eq!(
            fs::read(&sidecar).unwrap(),
            b"sidecar-bytes",
            "re-save must preserve non-index files"
        );
        assert!(ShardedIndex::open_dir(dir.path()).is_ok());
    }

    #[test]
    fn failed_resave_never_mixes_old_and_new() {
        // The ROADMAP's save-atomicity item: a save that dies midway over
        // an existing same-shard-count index must leave the old snapshot
        // byte-identical and openable — never a cleanly-opening mix of
        // old and new files. The kill is simulated by occupying the
        // staging path with a plain file, so the staged write fails
        // before the commit rename.
        let (dir, _, _) = saved_index(1);
        let before: Vec<(String, Vec<u8>)> = {
            let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir.path())
                .unwrap()
                .map(|e| {
                    let e = e.unwrap();
                    (
                        e.file_name().into_string().unwrap(),
                        fs::read(e.path()).unwrap(),
                    )
                })
                .collect();
            files.sort();
            files
        };

        // A different index with the same shard count, whose save must
        // not commit.
        let mut rng = ChaCha20Rng::seed_from_u64(77);
        let key = SseScheme::setup(&mut rng);
        let mut db = SseDatabase::new();
        for i in 0..16u64 {
            db.add(format!("other{i}").into_bytes(), i.to_le_bytes().to_vec());
        }
        let other =
            SseScheme::build_index_stored(&key, &db, &StorageConfig::in_memory(1), &mut rng)
                .unwrap();
        fs::write(staging_path(dir.path()), b"occupied").unwrap();
        let err = other
            .save_to_dir(dir.path())
            .expect_err("occupied staging path must fail the save");
        assert!(matches!(err, StorageError::CorruptDirectory { .. }));

        fs::remove_file(staging_path(dir.path())).unwrap();
        let after: Vec<(String, Vec<u8>)> = {
            let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir.path())
                .unwrap()
                .map(|e| {
                    let e = e.unwrap();
                    (
                        e.file_name().into_string().unwrap(),
                        fs::read(e.path()).unwrap(),
                    )
                })
                .collect();
            files.sort();
            files
        };
        assert_eq!(
            before, after,
            "a failed re-save must not touch the old snapshot"
        );
        let reopened = ShardedIndex::open_dir(dir.path()).unwrap();
        assert_eq!(reopened.shard_bits(), 1, "old snapshot stays openable");
    }

    #[test]
    fn leftover_staging_from_a_killed_save_is_ignored_and_cleaned() {
        // Simulate a save killed while staging: the old snapshot opens
        // untouched, and the next save clears the leftovers and commits.
        let (dir, _, bytes) = saved_index(1);
        let staging = staging_path(dir.path());
        fs::create_dir_all(&staging).unwrap();
        fs::write(staging.join(shard_file_name(0)), &bytes[..bytes.len() / 2]).unwrap();

        let reopened = ShardedIndex::open_dir(dir.path()).unwrap();
        assert_eq!(reopened.shard_bits(), 1);
        reopened
            .save_to_dir(dir.path())
            .expect("save over leftover staging must succeed");
        assert!(
            !staging.exists(),
            "committed save must clean the staging dir"
        );
        assert!(
            !displaced_path(dir.path()).exists(),
            "no parked old snapshot left"
        );
        assert!(ShardedIndex::open_dir(dir.path()).is_ok());
    }

    #[test]
    fn interrupted_commit_swap_heals_on_next_open_or_save() {
        // Simulate a save killed between the two commit renames: the old
        // snapshot sits at <dir>.old and <dir> is missing. Both open_dir
        // and a subsequent save must restore and use the old snapshot.
        let (dir, _, _) = saved_index(1);
        fs::rename(dir.path(), displaced_path(dir.path())).unwrap();
        assert!(!dir.path().exists());
        let reopened = ShardedIndex::open_dir(dir.path())
            .expect("open must complete the interrupted commit's rollback");
        assert_eq!(reopened.shard_bits(), 1);
        assert!(!displaced_path(dir.path()).exists());

        // Same through the save path.
        fs::rename(dir.path(), displaced_path(dir.path())).unwrap();
        reopened
            .save_to_dir(dir.path())
            .expect("save must recover and re-commit");
        assert!(ShardedIndex::open_dir(dir.path()).is_ok());
    }

    #[test]
    fn resave_refuses_to_delete_foreign_sibling_directories() {
        // A user directory that merely *happens* to sit at <dir>.old must
        // never be destroyed as a "crashed save leftover".
        let (dir, _, _) = saved_index(0);
        let foreign = displaced_path(dir.path());
        fs::create_dir_all(&foreign).unwrap();
        fs::write(foreign.join("precious.txt"), b"user data").unwrap();
        let index = ShardedIndex::open_dir(dir.path()).unwrap();
        let err = index
            .save_to_dir(dir.path())
            .expect_err("foreign sibling must abort the save");
        assert!(matches!(err, StorageError::CorruptDirectory { .. }));
        assert_eq!(
            fs::read(foreign.join("precious.txt")).unwrap(),
            b"user data",
            "the foreign directory must survive untouched"
        );
        // The index itself is also untouched and still serves.
        assert!(ShardedIndex::open_dir(dir.path()).is_ok());
        fs::remove_dir_all(&foreign).unwrap();
    }

    #[test]
    fn empty_index_round_trips() {
        let dir = TempDir::new("empty");
        let index = ShardedIndex::default();
        index.save_to_dir(dir.path()).unwrap();
        let reopened = ShardedIndex::open_dir(dir.path()).unwrap();
        assert_eq!(reopened.len(), 0);
        assert!(reopened.is_empty());
        assert!(reopened.is_file_backed());
        assert!(reopened.try_get(&[0u8; LABEL_LEN]).unwrap().is_none());
    }

    /// The documented `BlockCache` concurrency contract under adversarial
    /// mixed hit/miss/eviction traffic: with N threads inserting
    /// fixed-size blocks, mid-flight residency never exceeds
    /// `budget + N × block` (each in-flight insert may overshoot by its
    /// own block, nothing more), the eviction counter is monotone, and
    /// once every insert returns the cache is back inside the budget with
    /// the resident counter exactly matching the bytes actually held.
    #[test]
    fn block_cache_stats_stay_consistent_under_concurrent_traffic() {
        use std::sync::atomic::AtomicBool;

        const THREADS: usize = 8;
        const BLOCK: usize = 1 << 10;
        const BLOCKS_IN_BUDGET: usize = 24;
        const KEY_SPACE: u32 = 192; // 8× the budget: constant eviction churn
        let budget = BLOCKS_IN_BUDGET * BLOCK;
        let cache = BlockCache::new(Some(budget));
        let stop = AtomicBool::new(false);

        std::thread::scope(|scope| {
            for thread in 0..THREADS as u32 {
                let cache = &cache;
                let stop = &stop;
                scope.spawn(move || {
                    // Overlapping key windows: some keys are shared across
                    // threads (hits + insert races), some private (misses).
                    for round in 0..400u32 {
                        let key = (thread % 4, (round * 13 + thread * 29) % KEY_SPACE);
                        if cache.get(key).is_none() {
                            cache.insert(key, vec![0u8; BLOCK].into());
                        }
                        // Every thread validates the mid-flight bound on
                        // every step, not just at a sampling cadence.
                        let resident = cache.stats().resident_bytes;
                        assert!(
                            resident <= budget + THREADS * BLOCK,
                            "mid-flight resident {resident} exceeds budget {budget} \
                             plus one in-flight block per thread"
                        );
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            }
            // A dedicated sampler races the workers: counters must be
            // monotone and residency bounded at every observation.
            let cache = &cache;
            let stop = &stop;
            scope.spawn(move || {
                let mut last_evictions = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let evictions = cache.stats().evictions;
                    assert!(
                        evictions >= last_evictions,
                        "eviction counter went backwards: {last_evictions} -> {evictions}"
                    );
                    last_evictions = evictions;
                    assert!(cache.stats().resident_bytes <= budget + THREADS * BLOCK);
                    std::thread::yield_now();
                }
            });
        });

        // Quiescent: no insert mid-flight, so the budget holds exactly and
        // the resident counter agrees byte-for-byte with the slots held.
        let resident = cache.stats().resident_bytes;
        assert!(
            resident <= budget,
            "quiescent resident {resident} exceeds budget {budget}"
        );
        let held = cache.held_bytes();
        assert_eq!(
            resident, held,
            "resident counter must match the bytes actually cached"
        );
        assert!(
            cache.stats().evictions > 0,
            "a working set 8× the budget must evict"
        );
    }
}
