//! The owner-side update manager: ingestion, querying across active
//! instances, and hierarchical consolidation.

use crate::batch::{UpdateEntry, UpdateOp};
use crate::persist::{self, OwnerKey, OwnerPayload, SEED_LEN};
use rand::{CryptoRng, RngCore, SeedableRng};
use rand_chacha::ChaCha20Rng;
use rsse_core::{
    BuildBudget, Dataset, DocId, IndexStats, QueryOutcome, QueryStats, RangeScheme, Record,
    StorageConfig, StorageError,
};
use rsse_cover::{Domain, Range};
use rsse_crypto::KeyChain;
use rsse_sse::storage::{
    read_manager_manifest, read_owner_meta, write_manager_manifest, write_owner_meta,
    ManagerManifest, ManifestInstance, OwnerMeta,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

/// How the manager realizes a due consolidation (see
/// [`UpdateConfig::consolidation_mode`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ConsolidationMode {
    /// The paper's "download, merge, re-encrypt": replay the group's
    /// surviving updates and rebuild one index under a fresh key. Always
    /// available, physically purges superseded versions and met
    /// tombstones, and is the reference implementation the structural
    /// path is differenced against.
    #[default]
    Rebuild,
    /// Re-encryption-free structural merge for schemes that support it
    /// ([`RangeScheme::supports_structural_merge`]): the inputs'
    /// already-encrypted dictionaries are combined by copying ciphertext
    /// verbatim — zero payload decrypt/encrypt operations on the merge
    /// path — and each input's client keeps querying the merged server,
    /// refined by an owner-side authority map. Falls back to
    /// [`Rebuild`](Self::Rebuild) per consolidation whenever the scheme
    /// or the inputs cannot merge structurally. Superseded versions are
    /// hidden by refinement but not physically removed until a rebuild
    /// consolidation meets them.
    Structural,
}

/// Configuration of the update manager.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateConfig {
    /// The consolidation step `s`: once `s` instances accumulate at a level
    /// of the merge hierarchy, they are consolidated into a single instance
    /// at the next level. `s = 0` disables consolidation (every batch stays
    /// a separate index forever).
    pub consolidation_step: usize,
    /// Label-prefix shard bits for every index the manager builds: each
    /// batch index and every consolidation rebuild goes through
    /// [`RangeScheme::build_stored`], so the encrypted dictionaries are
    /// split into `2^shard_bits` shards (0 = single arena). Consolidations
    /// of large levels are exactly where the parallel sharded assembly pays
    /// off, since a rebuild re-encrypts the whole merged level.
    pub shard_bits: u32,
    /// When set, every level of the merge hierarchy **persists**: each
    /// instance's encrypted index is streamed into its own subdirectory of
    /// this root during the build (batch ingests and consolidation rebuilds
    /// alike write through the on-disk backend and are served via paged
    /// reads), and the subdirectories of instances consumed by a
    /// consolidation are removed once the merged instance is durably built.
    /// `None` (the default) keeps every instance in memory, exactly as
    /// before.
    pub storage_root: Option<PathBuf>,
    /// Block-cache budget, in bytes, for every **persisted** instance the
    /// manager builds (see `StorageConfig::cache_budget`): each
    /// instance's file-backed shards share one clock cache bounding their
    /// resident ciphertext blocks. `None` (the default) leaves residency
    /// unbounded; ignored without a [`storage_root`](Self::storage_root).
    pub cache_budget: Option<usize>,
    /// Memory budget for **large index builds** (see
    /// `rsse_sse::BuildBudget`): when set, any batch build or consolidation
    /// rebuild whose estimated in-RAM working set exceeds
    /// `build_budget.memory_bytes` runs through the external-memory
    /// spill/merge pipeline instead — byte-identical index files, peak RSS
    /// bounded by the budget. Small builds keep the in-RAM path (the spill
    /// round-trip would only add I/O). This is a runtime knob like
    /// [`cache_budget`](Self::cache_budget): it is not persisted in the
    /// root manifest, so pass it again when reopening with `open_root`.
    /// `None` (the default) never spills.
    pub build_budget: Option<BuildBudget>,
    /// How due consolidations are realized (see [`ConsolidationMode`]).
    /// A runtime knob like [`build_budget`](Self::build_budget): it is not
    /// persisted in the root manifest, so pass it again when reopening
    /// with `open_root`. Instances that were structurally merged reopen
    /// structurally regardless of this mode — their physical layout is
    /// authoritative — while future consolidations follow the mode.
    pub consolidation_mode: ConsolidationMode,
}

impl Default for UpdateConfig {
    fn default() -> Self {
        Self {
            consolidation_step: 4,
            shard_bits: 0,
            storage_root: None,
            cache_budget: None,
            build_budget: None,
            consolidation_mode: ConsolidationMode::default(),
        }
    }
}

/// One active instance: a static RSSE index over one batch (or one
/// consolidated group of batches), plus the owner-side metadata needed to
/// refine query results (which ids this batch touched, and how).
struct BatchInstance<S: RangeScheme> {
    /// Monotonically increasing sequence number; larger = newer. Used to let
    /// newer batches supersede older ones during result refinement.
    seq: u64,
    /// Monotonic build counter naming the instance directory; also binds
    /// the instance's owner sidecar to its directory.
    build_id: u64,
    /// The owner-side client(s) — one for a built instance, one per
    /// flattened part for a structurally merged one.
    kind: InstanceKind<S>,
    server: S::Server,
    /// The plaintext updates of this instance (owner-side only; persisted
    /// encrypted in the instance's `owner.meta` sidecar, as the paper's
    /// consolidation step needs them back). For a structural instance this
    /// is the **compacted** log: the deduped latest-per-id surviving
    /// entries, not the raw update history.
    entries: Vec<UpdateEntry>,
    /// Latest operation per id inside this instance.
    ops: HashMap<DocId, UpdateOp>,
    /// Directory holding this instance's persisted index, when the manager
    /// runs on an on-disk backend; removed when the instance is consumed by
    /// a consolidation.
    dir: Option<PathBuf>,
}

/// The owner-side query state of an instance.
enum InstanceKind<S: RangeScheme> {
    /// A batch build or rebuild consolidation: one client, whose build
    /// seed replays its whole key material.
    Plain { client: S, seed: [u8; SEED_LEN] },
    /// A structural consolidation: the merged server physically contains
    /// every input part's encrypted entries, and each part's client still
    /// queries it with the part's original trapdoors. The authority map
    /// records, per live id, the flattened part holding its newest
    /// version; hits from any other part are stale copies and are
    /// filtered owner-side.
    Structural {
        /// One `(client, seed)` per flattened part, in merge order.
        parts: Vec<(S, [u8; SEED_LEN])>,
        /// `id → flattened part index` of the authoritative version.
        authority: HashMap<DocId, u32>,
    },
}

impl<S: RangeScheme> InstanceKind<S> {
    /// Whether this is a structurally merged instance.
    fn is_structural(&self) -> bool {
        matches!(self, Self::Structural { .. })
    }
}

/// Dedupes a batch's raw update log into its effective records and ops:
/// within a batch, the latest entry for an id wins.
fn latest_of(entries: &[UpdateEntry]) -> BTreeMap<DocId, UpdateEntry> {
    let mut latest: BTreeMap<DocId, UpdateEntry> = BTreeMap::new();
    for entry in entries {
        latest.insert(entry.record.id, *entry);
    }
    latest
}

impl<S: RangeScheme> BatchInstance<S> {
    /// Builds a fresh instance: dedupes the update log, runs the scheme's
    /// stored build on a dedicated RNG replayed from `seed`, and — for
    /// persisted instances — commits the encrypted owner sidecar as the
    /// instance's durable commit record (written **last**, so a directory
    /// with a readable sidecar always holds a complete index).
    #[allow(clippy::too_many_arguments)]
    fn build(
        domain: Domain,
        build_id: u64,
        seq: u64,
        level: u32,
        entries: Vec<UpdateEntry>,
        config: &StorageConfig,
        chain: &KeyChain,
        seed: [u8; SEED_LEN],
    ) -> Result<Self, StorageError> {
        let latest = latest_of(&entries);
        let records: Vec<Record> = latest.values().map(|e| e.record).collect();
        let ops: HashMap<DocId, UpdateOp> = latest.iter().map(|(id, e)| (*id, e.op)).collect();
        let dataset = Dataset::new(domain, records)
            .expect("update entries validated against the domain before ingestion");
        let mut build_rng = ChaCha20Rng::from_seed(seed);
        let (client, server) = S::build_stored(&dataset, config, &mut build_rng)?;
        let dir = match &config.backend {
            rsse_core::StorageBackend::InMemory => None,
            rsse_core::StorageBackend::OnDisk(dir) => Some(dir.clone()),
        };
        if let Some(dir) = &dir {
            write_owner_meta(
                dir,
                &OwnerMeta {
                    build_id,
                    seq,
                    level,
                    payload: persist::seal_plain_payload(chain, build_id, &seed, &entries),
                },
            )?;
        }
        Ok(Self {
            seq,
            build_id,
            kind: InstanceKind::Plain { client, seed },
            server,
            entries,
            ops,
            dir,
        })
    }

    /// Reopens a persisted instance from its decrypted owner state: the
    /// client re-derives from the replayed seed, the server either
    /// cold-opens from the instance directory (on-disk mode) or rebuilds
    /// in memory from the update log (in-memory restore) — both through
    /// [`RangeScheme::open_stored`], and both byte-identical to the
    /// pre-crash instance.
    fn reopen(
        domain: Domain,
        build_id: u64,
        seq: u64,
        entries: Vec<UpdateEntry>,
        config: &StorageConfig,
        seed: [u8; SEED_LEN],
    ) -> Result<Self, StorageError> {
        let latest = latest_of(&entries);
        let records: Vec<Record> = latest.values().map(|e| e.record).collect();
        let ops: HashMap<DocId, UpdateOp> = latest.iter().map(|(id, e)| (*id, e.op)).collect();
        let dataset = Dataset::new(domain, records)
            .expect("persisted update entries were validated at ingestion");
        let mut build_rng = ChaCha20Rng::from_seed(seed);
        let (client, server) = S::open_stored(&dataset, config, &mut build_rng)?;
        let dir = match &config.backend {
            rsse_core::StorageBackend::InMemory => None,
            rsse_core::StorageBackend::OnDisk(dir) => Some(dir.clone()),
        };
        Ok(Self {
            seq,
            build_id,
            kind: InstanceKind::Plain { client, seed },
            server,
            entries,
            ops,
            dir,
        })
    }

    /// Reopens a structurally merged instance: each part's client
    /// re-derives from its replayed seed, and the merged server — whose
    /// physical layout is not reproducible from any dataset — reopens
    /// from its saved directory via [`RangeScheme::open_merged`]: paged
    /// on an on-disk config, loaded fully resident (byte-identical
    /// arenas) on an in-memory restore.
    fn reopen_structural(
        domain: Domain,
        build_id: u64,
        seq: u64,
        seeds: Vec<[u8; SEED_LEN]>,
        tagged_entries: Vec<(UpdateEntry, u32)>,
        dir: &Path,
        config: &StorageConfig,
    ) -> Result<Self, StorageError> {
        let parts = seeds
            .into_iter()
            .map(|seed| {
                let mut rng = ChaCha20Rng::from_seed(seed);
                S::derive_client(&domain, &mut rng).map(|client| (client, seed))
            })
            .collect::<Result<Vec<(S, [u8; SEED_LEN])>, StorageError>>()?;
        let server = S::open_merged(dir, config)?;
        let entries: Vec<UpdateEntry> = tagged_entries.iter().map(|(entry, _)| *entry).collect();
        let ops: HashMap<DocId, UpdateOp> = entries
            .iter()
            .map(|entry| (entry.record.id, entry.op))
            .collect();
        let authority: HashMap<DocId, u32> = tagged_entries
            .iter()
            .map(|(entry, part)| (entry.record.id, *part))
            .collect();
        let keep_dir = matches!(&config.backend, rsse_core::StorageBackend::OnDisk(_));
        Ok(Self {
            seq,
            build_id,
            kind: InstanceKind::Structural { parts, authority },
            server,
            entries,
            ops,
            dir: keep_dir.then(|| dir.to_path_buf()),
        })
    }

    /// Issues a range query against this instance's server. A plain
    /// instance asks its one client; a structural instance asks every
    /// part's client in part order, keeping only the hits the part is
    /// authoritative for (stale copies of an id in other parts are
    /// refined away) and accumulating the parts' costs.
    fn try_query(&self, range: Range) -> Result<QueryOutcome, StorageError> {
        match &self.kind {
            InstanceKind::Plain { client, .. } => client.try_query(&self.server, range),
            InstanceKind::Structural { parts, authority } => {
                let mut ids: Vec<DocId> = Vec::new();
                let mut stats = QueryStats::default();
                for (index, (client, _)) in parts.iter().enumerate() {
                    let outcome = client.try_query(&self.server, range)?;
                    stats.tokens_sent += outcome.stats.tokens_sent;
                    stats.token_bytes += outcome.stats.token_bytes;
                    stats.rounds = stats.rounds.max(outcome.stats.rounds);
                    stats.entries_touched += outcome.stats.entries_touched;
                    stats.result_groups += outcome.stats.result_groups;
                    for id in outcome.ids {
                        if authority.get(&id) == Some(&(index as u32)) {
                            ids.push(id);
                        }
                    }
                }
                Ok(QueryOutcome { ids, stats })
            }
        }
    }

    /// The manifest record of this instance (public bookkeeping only).
    fn manifest_record(&self) -> ManifestInstance {
        let mut inserts = 0u64;
        let mut modifies = 0u64;
        let mut deletes = 0u64;
        for entry in &self.entries {
            match entry.op {
                UpdateOp::Insert => inserts += 1,
                UpdateOp::Modify => modifies += 1,
                UpdateOp::Delete => deletes += 1,
            }
        }
        ManifestInstance {
            build_id: self.build_id,
            seq: self.seq,
            entry_count: self.entries.len() as u64,
            inserts,
            modifies,
            deletes,
        }
    }

    /// Removes the instance's persisted index directory, if any (called
    /// when a consolidation supersedes it; best effort — a leftover
    /// directory wastes disk until the next
    /// [`UpdateManager::open_root`], which recognizes it as superseded by
    /// the consolidation above it and sweeps it). Readers pinning a
    /// snapshot that still holds the instance keep answering from it:
    /// its shard files stay open, and an unlinked open file stays
    /// readable on Linux.
    fn remove_dir(&self) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// A stage of `try_ingest_batch` at which the test support can simulate a
/// process kill: all disk writes up to (and including) the named stage
/// have happened, nothing after it has. Used by the crash-recovery tests
/// to pin that [`UpdateManager::open_root`] heals every window between an
/// index commit and the manifest commit.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillPoint {
    /// The batch's instance directory (index + owner sidecar) is durably
    /// committed; no consolidation ran, the root manifest is stale.
    AfterBatchBuild,
    /// The first due consolidation's merged instance is durably committed;
    /// its input directories still exist, the root manifest is stale.
    AfterMergeBuild,
    /// The first due consolidation's merged instance is committed and its
    /// input directories are removed; the root manifest is stale — it
    /// still references the GC'd inputs.
    AfterGc,
    /// The process died **mid-merge-copy**: the first due consolidation's
    /// output directory holds `index.meta`, some merged shard files and a
    /// `.shd.tmp` in flight, but no owner sidecar — the commit record was
    /// never written. The inputs are untouched, the root manifest is
    /// stale. Reopen must sweep the debris and converge on the pre-merge
    /// state.
    MidMergeCopy,
    /// The process died **mid-sidecar-compaction**: the merged index is
    /// fully written and the compacted `owner.meta` was being staged (an
    /// `owner.meta.tmp` is in flight) but never renamed into place. Same
    /// healing obligation as [`MidMergeCopy`](Self::MidMergeCopy): without
    /// an authenticated sidecar the directory is debris.
    MidSidecarCompaction,
}

/// The outcome of one consolidation attempt (see
/// [`UpdateManager::merge_instances`]).
enum Merged<S: RangeScheme> {
    /// The merged instance is durably committed. `structural` names the
    /// strategy that produced it; `killed` is set when a simulated kill
    /// stopped the ingest after the commit (manifest must stay stale).
    Committed {
        instance: BatchInstance<S>,
        structural: bool,
        killed: bool,
    },
    /// A simulated kill struck **before** the merged instance's commit
    /// record was written: the inputs stay the active state and only
    /// debris is left on disk.
    KilledEarly { group: Vec<Arc<BatchInstance<S>>> },
}

/// Test support: turns a fully committed merged-instance directory into
/// the on-disk state a process kill at `kill` would have left behind —
/// the owner sidecar (the commit record, always written last) is gone,
/// plus the in-flight temporaries of the interrupted stage.
fn simulate_commit_kill(dir: &Path, kill: KillPoint) {
    let _ = std::fs::remove_file(dir.join(rsse_sse::storage::OWNER_META_FILE));
    match kill {
        KillPoint::MidMergeCopy => {
            // One merged shard vanished mid-copy and its temporary is
            // still in flight.
            let shard = dir.join(rsse_sse::storage::shard_file_name(0));
            let _ = std::fs::remove_file(&shard);
            let _ = std::fs::write(
                dir.join(format!("{}.tmp", rsse_sse::storage::shard_file_name(0))),
                b"in-flight merge copy",
            );
        }
        KillPoint::MidSidecarCompaction => {
            let _ = std::fs::write(
                dir.join(format!("{}.tmp", rsse_sse::storage::OWNER_META_FILE)),
                b"in-flight compacted sidecar",
            );
        }
        _ => {}
    }
}

/// The manager's mutable state, published as one immutable snapshot.
///
/// Queries pin the current snapshot (an `Arc` clone) and run against it
/// without further locking; an ingest works on a private clone — cloning
/// is O(instances) `Arc` bumps — and publishes it whole once the root
/// manifest describing it is committed.
struct State<S: RangeScheme> {
    /// `levels[l]` holds the not-yet-consolidated instances at height `l` of
    /// the s-ary merge tree (level 0 = raw batches).
    levels: Vec<Vec<Arc<BatchInstance<S>>>>,
    next_seq: u64,
    /// Monotonic counter naming persisted instance directories — a merged
    /// instance reuses the newest `seq` of its group, so `seq` alone would
    /// collide.
    next_build: u64,
    batches_ingested: usize,
    /// Consolidations realized as re-encryption-free structural merges.
    structural_consolidations: usize,
    /// Consolidations realized as full rebuilds (including structural-mode
    /// fallbacks).
    rebuild_consolidations: usize,
}

// Not derived: a derive would demand `S: Clone`, but only the `Arc`s are
// cloned.
impl<S: RangeScheme> Clone for State<S> {
    fn clone(&self) -> Self {
        Self {
            levels: self.levels.clone(),
            next_seq: self.next_seq,
            next_build: self.next_build,
            batches_ingested: self.batches_ingested,
            structural_consolidations: self.structural_consolidations,
            rebuild_consolidations: self.rebuild_consolidations,
        }
    }
}

impl<S: RangeScheme> State<S> {
    fn empty() -> Self {
        Self {
            levels: Vec::new(),
            next_seq: 0,
            next_build: 0,
            batches_ingested: 0,
            structural_consolidations: 0,
            rebuild_consolidations: 0,
        }
    }

    /// Every active instance, level by level.
    fn instances(&self) -> impl Iterator<Item = &BatchInstance<S>> {
        self.levels.iter().flatten().map(|instance| &**instance)
    }
}

/// Owner-side manager of a dynamically updated, privately searchable
/// dataset.
///
/// Queries never wait for ingest: they pin the current published
/// snapshot, while [`try_ingest_batch`](Self::try_ingest_batch) builds,
/// consolidates and commits on a private copy and then swaps it in.
/// Writers are serialized among themselves.
pub struct UpdateManager<S: RangeScheme> {
    domain: Domain,
    config: UpdateConfig,
    /// Master-key chain sealing the per-instance owner sidecars. Drawn
    /// lazily from the first ingest's RNG unless supplied up front via
    /// [`with_key`](Self::with_key) / [`open_root`](Self::open_root).
    chain: OnceLock<KeyChain>,
    /// The published snapshot. The lock is held only to clone or swap the
    /// `Arc`, never across a query or an ingest.
    state: RwLock<Arc<State<S>>>,
    /// Serializes ingests: each one runs on a clone of the snapshot it
    /// started from, so two at once would lose one's work.
    writer: Mutex<()>,
}

impl<S: RangeScheme> UpdateManager<S> {
    /// Creates an empty manager over `domain`.
    ///
    /// The owner master key — which seals the durable owner state of a
    /// persisted manager — is drawn from the first
    /// [`ingest_batch`](Self::ingest_batch)'s RNG; retrieve it with
    /// [`owner_key`](Self::owner_key) and store it safely if the manager
    /// is ever to be reopened with [`open_root`](Self::open_root).
    /// Managers restarted across processes should prefer
    /// [`with_key`](Self::with_key).
    pub fn new(domain: Domain, config: UpdateConfig) -> Self {
        Self::from_state(domain, config, OnceLock::new(), State::empty())
    }

    fn from_state(
        domain: Domain,
        config: UpdateConfig,
        chain: OnceLock<KeyChain>,
        state: State<S>,
    ) -> Self {
        Self {
            domain,
            config,
            chain,
            state: RwLock::new(Arc::new(state)),
            writer: Mutex::new(()),
        }
    }

    /// Creates an empty manager over `domain` whose durable owner state is
    /// sealed under the given master key — the key
    /// [`open_root`](Self::open_root) will later need to reopen the
    /// manager from its storage root.
    pub fn with_key(key: OwnerKey, domain: Domain, config: UpdateConfig) -> Self {
        Self::from_state(
            domain,
            config,
            OnceLock::from(KeyChain::new(key)),
            State::empty(),
        )
    }

    /// The owner master key, if one has been set or drawn yet (`None`
    /// before the first ingest of a [`new`](Self::new)-built manager).
    /// This is the key to persist alongside the storage root: without it
    /// the root cannot be reopened.
    pub fn owner_key(&self) -> Option<&OwnerKey> {
        self.chain.get().map(KeyChain::master)
    }

    /// Pins the current snapshot.
    fn snapshot(&self) -> Arc<State<S>> {
        // The lock only guards an `Arc` swap, which cannot leave it
        // half-done, so a poisoned lock still holds a whole snapshot.
        Arc::clone(&self.state.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publishes `state` as the snapshot every later query pins. The
    /// superseded snapshot is released outside the lock: if no query
    /// pins it any more, dropping it frees the consumed instances.
    fn publish(&self, state: State<S>) {
        let mut current = self.state.write().unwrap_or_else(PoisonError::into_inner);
        let superseded = std::mem::replace(&mut *current, Arc::new(state));
        drop(current);
        drop(superseded);
    }

    /// The storage configuration for the next index build of `entry_count`
    /// update entries: in-memory, or a fresh uniquely named subdirectory of
    /// the configured storage root. Returns the build number that names
    /// (and is sealed into) the instance.
    ///
    /// When the manager carries a [`build_budget`](UpdateConfig::build_budget)
    /// and this build's estimated in-RAM working set exceeds it — which is
    /// exactly the consolidation-rebuild case once a level has grown large
    /// — the budget is attached to the instance configuration, routing the
    /// scheme's build through the external-memory pipeline.
    fn next_instance_config(
        &self,
        state: &mut State<S>,
        entry_count: usize,
    ) -> (u64, StorageConfig) {
        let build_id = state.next_build;
        state.next_build += 1;
        let mut config = match &self.config.storage_root {
            None => StorageConfig::in_memory(self.config.shard_bits),
            Some(root) => {
                let dir = root.join(ManagerManifest::instance_dir_name(build_id));
                let config = StorageConfig::on_disk(self.config.shard_bits, dir);
                match self.config.cache_budget {
                    Some(budget) => config.with_cache_budget(budget),
                    None => config,
                }
            }
        };
        if let Some(budget) = &self.config.build_budget {
            if self.estimated_build_bytes(entry_count) > budget.memory_bytes {
                config = config.with_build_budget(budget.clone());
            }
        }
        (build_id, config)
    }

    /// Rough upper bound on the in-RAM working set of building an index
    /// over `entry_count` records: each record expands into up to
    /// `domain bits + 2` (keyword, payload) entries (the logarithmic
    /// schemes' covering nodes; Constant's single entry is well below
    /// this), each costing on the order of 64 bytes across the sort, the
    /// encrypted chunks and the scatter. A heuristic, not an accounting —
    /// it only decides when spilling is worth the extra I/O pass.
    fn estimated_build_bytes(&self, entry_count: usize) -> usize {
        let per_record = (self.domain.bits() as usize + 2) * 64;
        entry_count.saturating_mul(per_record)
    }

    /// The root manifest describing `state`.
    fn manifest(&self, state: &State<S>) -> ManagerManifest {
        ManagerManifest {
            scheme: S::NAME.to_string(),
            domain_size: self.domain.size(),
            consolidation_step: self.config.consolidation_step as u64,
            shard_bits: self.config.shard_bits,
            cache_budget: self.config.cache_budget.map(|b| b as u64),
            next_seq: state.next_seq,
            next_build: state.next_build,
            batches_ingested: state.batches_ingested as u64,
            consolidations: (state.structural_consolidations + state.rebuild_consolidations) as u64,
            structural_consolidations: state.structural_consolidations as u64,
            rebuild_consolidations: state.rebuild_consolidations as u64,
            levels: state
                .levels
                .iter()
                .map(|level| level.iter().map(|i| i.manifest_record()).collect())
                .collect(),
        }
    }

    /// Commits the root manifest of `state` (atomic tmp + rename). No-op
    /// without a storage root: an in-memory manager has no durable state
    /// to record.
    fn persist_manifest(&self, state: &State<S>) -> Result<(), StorageError> {
        match &self.config.storage_root {
            None => Ok(()),
            Some(root) => write_manager_manifest(root, &self.manifest(state)),
        }
    }

    /// The attribute domain shared by all batches.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Number of currently active (separately queried) index instances.
    pub fn active_instances(&self) -> usize {
        self.snapshot().levels.iter().map(Vec::len).sum()
    }

    /// Number of raw batches ingested so far.
    pub fn batches_ingested(&self) -> usize {
        self.snapshot().batches_ingested
    }

    /// Total number of consolidation operations performed, across both
    /// merge strategies — always
    /// [`structural_consolidations`](Self::structural_consolidations)` + `
    /// [`rebuild_consolidations`](Self::rebuild_consolidations).
    pub fn consolidations(&self) -> usize {
        let state = self.snapshot();
        state.structural_consolidations + state.rebuild_consolidations
    }

    /// Number of consolidations realized as re-encryption-free structural
    /// merges (only ever non-zero under
    /// [`ConsolidationMode::Structural`]).
    pub fn structural_consolidations(&self) -> usize {
        self.snapshot().structural_consolidations
    }

    /// Number of consolidations realized as full merge-and-re-encrypt
    /// rebuilds — the paper's baseline strategy, including any
    /// structural-mode consolidations that fell back to it.
    pub fn rebuild_consolidations(&self) -> usize {
        self.snapshot().rebuild_consolidations
    }

    /// Number of currently active instances that are structurally merged
    /// (multi-part). Unlike
    /// [`structural_consolidations`](Self::structural_consolidations) this
    /// counts live state, not history: a structural instance that is later
    /// consolidated away (or rebuilt) stops counting.
    pub fn structural_instances(&self) -> usize {
        self.snapshot()
            .instances()
            .filter(|instance| instance.kind.is_structural())
            .count()
    }

    /// Combined index statistics over all active instances.
    pub fn index_stats(&self) -> IndexStats {
        self.snapshot()
            .instances()
            .map(|instance| S::index_stats(&instance.server))
            .fold(IndexStats::default(), IndexStats::merged)
    }

    /// Ingests one batch of updates: builds a fresh static index under a
    /// fresh key and triggers any due consolidations.
    ///
    /// # Panics
    /// Panics if an entry's value lies outside the manager's domain, or if
    /// a configured on-disk backend fails (use
    /// [`try_ingest_batch`](Self::try_ingest_batch) to handle storage
    /// errors instead).
    pub fn ingest_batch<R: RngCore + CryptoRng>(&self, entries: Vec<UpdateEntry>, rng: &mut R) {
        self.try_ingest_batch(entries, rng)
            .expect("storage backend failed during batch ingestion");
    }

    /// Fallible variant of [`ingest_batch`](Self::ingest_batch): surfaces
    /// storage-backend failures (full disk, permissions, …) as typed
    /// [`StorageError`]s instead of panicking. A failed batch build leaves
    /// the manager unchanged; a failed consolidation rebuild restores its
    /// input instances (the batch itself stays ingested), so active state
    /// never degrades on error.
    ///
    /// Queries running meanwhile answer from the snapshot published before
    /// this ingest; the new state becomes visible to later queries once
    /// its root manifest is committed. Concurrent ingests run one at a
    /// time.
    ///
    /// # Panics
    /// Panics if an entry's value lies outside the manager's domain (a
    /// caller bug, not an environmental failure).
    pub fn try_ingest_batch<R: RngCore + CryptoRng>(
        &self,
        entries: Vec<UpdateEntry>,
        rng: &mut R,
    ) -> Result<(), StorageError> {
        self.try_ingest_batch_inner(entries, rng, None)
    }

    /// Test support: runs [`try_ingest_batch`](Self::try_ingest_batch) but
    /// simulates a process kill at the given [`KillPoint`] — every disk
    /// write up to that stage has happened, nothing after it has (in
    /// particular, the root manifest is left stale). The manager object
    /// must be discarded afterwards, exactly as a killed process would be;
    /// reopen the root with [`open_root`](Self::open_root).
    #[doc(hidden)]
    pub fn try_ingest_batch_kill_at<R: RngCore + CryptoRng>(
        &self,
        entries: Vec<UpdateEntry>,
        rng: &mut R,
        kill: KillPoint,
    ) -> Result<(), StorageError> {
        self.try_ingest_batch_inner(entries, rng, Some(kill))
    }

    /// Takes the writer lock, runs the ingest on a clone of the current
    /// snapshot and publishes the clone — on success once the manifest is
    /// committed, and on the error and kill paths too, so the in-memory
    /// state ends exactly where the ingest left it.
    fn try_ingest_batch_inner<R: RngCore + CryptoRng>(
        &self,
        entries: Vec<UpdateEntry>,
        rng: &mut R,
        kill: Option<KillPoint>,
    ) -> Result<(), StorageError> {
        for entry in &entries {
            assert!(
                self.domain.contains(entry.record.value),
                "update value {} outside domain of size {}",
                entry.record.value,
                self.domain.size()
            );
        }
        // A writer that panicked never published, so the snapshot behind a
        // poisoned lock is still the last committed one.
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let mut state = State::clone(&self.snapshot());
        let result = self.ingest_into(&mut state, entries, rng, kill);
        self.publish(state);
        result
    }

    fn ingest_into<R: RngCore + CryptoRng>(
        &self,
        state: &mut State<S>,
        entries: Vec<UpdateEntry>,
        rng: &mut R,
        kill: Option<KillPoint>,
    ) -> Result<(), StorageError> {
        let chain = self.chain.get_or_init(|| KeyChain::generate(rng));
        let mut seed = [0u8; SEED_LEN];
        rng.fill_bytes(&mut seed);
        let seq = state.next_seq;
        let (build_id, config) = self.next_instance_config(state, entries.len());
        let instance = match BatchInstance::build(
            self.domain,
            build_id,
            seq,
            0,
            entries,
            &config,
            chain,
            seed,
        ) {
            Ok(instance) => instance,
            Err(error) => {
                // Don't leak a half-written instance directory.
                if let rsse_core::StorageBackend::OnDisk(dir) = &config.backend {
                    let _ = std::fs::remove_dir_all(dir);
                }
                return Err(error);
            }
        };
        state.next_seq += 1;
        state.batches_ingested += 1;
        if state.levels.is_empty() {
            state.levels.push(Vec::new());
        }
        state.levels[0].push(Arc::new(instance));
        if kill == Some(KillPoint::AfterBatchBuild) {
            return Ok(());
        }
        if self.consolidate_due_levels(state, rng, kill)? {
            return Ok(()); // killed mid-consolidation: no manifest commit
        }
        // The manifest is committed last, once every instance directory it
        // references is durable: a crash anywhere above leaves a manifest
        // describing the previous consistent state, which open_root heals
        // (rolling an uncommitted batch back, a committed consolidation
        // forward).
        self.persist_manifest(state)
    }

    /// Runs every due consolidation. Returns `true` if a simulated kill
    /// stopped the work mid-way (test support; the caller must then skip
    /// the manifest commit, exactly as a killed process would have).
    fn consolidate_due_levels<R: RngCore + CryptoRng>(
        &self,
        state: &mut State<S>,
        rng: &mut R,
        kill: Option<KillPoint>,
    ) -> Result<bool, StorageError> {
        let step = self.config.consolidation_step;
        if step == 0 {
            return Ok(false);
        }
        let mut level = 0;
        while level < state.levels.len() {
            if state.levels[level].len() >= step {
                let group: Vec<Arc<BatchInstance<S>>> = state.levels[level].drain(..).collect();
                match self.merge_instances(state, group, level, rng, kill) {
                    Ok(Merged::Committed {
                        instance,
                        structural,
                        killed,
                    }) => {
                        if state.levels.len() <= level + 1 {
                            state.levels.push(Vec::new());
                        }
                        state.levels[level + 1].push(Arc::new(instance));
                        if structural {
                            state.structural_consolidations += 1;
                        } else {
                            state.rebuild_consolidations += 1;
                        }
                        if killed {
                            return Ok(true);
                        }
                    }
                    Ok(Merged::KilledEarly { group }) => {
                        // The merged instance never committed: the inputs
                        // stay the active state (exactly what reopen will
                        // reconstruct once the debris is swept).
                        state.levels[level] = group;
                        return Ok(true);
                    }
                    Err((group, error)) => {
                        // Roll back: the inputs stay active, nothing lost.
                        state.levels[level] = group;
                        return Err(error);
                    }
                }
            }
            level += 1;
        }
        Ok(false)
    }

    /// Merges a group of instances into one: replays their updates in
    /// sequence order, drops deleted tuples, and rebuilds a single index
    /// under a fresh key (the "download, merge, re-encrypt" of the paper) —
    /// written through the configured storage backend, like every other
    /// build. On success the consumed instances' persisted directories are
    /// removed; on failure the group is handed back untouched for rollback.
    ///
    /// A deletion tombstone can only be dropped ("physically purged") when
    /// no instance *outside* the merged group still touches the deleted id
    /// — otherwise an older instance holding a stale version of the tuple
    /// would become authoritative again and the tuple would resurrect.
    /// Tombstones that must survive stay in the merged instance's entries
    /// (and are indexed and query-filtered exactly like a level-0 delete)
    /// until a later merge meets the stale version and purges both.
    #[allow(clippy::type_complexity)]
    fn merge_instances<R: RngCore + CryptoRng>(
        &self,
        state: &mut State<S>,
        mut group: Vec<Arc<BatchInstance<S>>>,
        level: usize,
        rng: &mut R,
        kill: Option<KillPoint>,
    ) -> Result<Merged<S>, (Vec<Arc<BatchInstance<S>>>, StorageError)> {
        group.sort_by_key(|instance| instance.seq);
        let newest_seq = group.last().map(|i| i.seq).unwrap_or(0);
        // The flattened part layout of a prospective structural merge:
        // group member `g`'s parts occupy flat indexes starting at
        // `flat_base[g]` (one part for a plain instance, its own part
        // count for an already-structural one).
        let mut flat_base: Vec<u32> = Vec::with_capacity(group.len());
        let mut part_total = 0u32;
        for instance in &group {
            flat_base.push(part_total);
            part_total += match &instance.kind {
                InstanceKind::Plain { .. } => 1,
                InstanceKind::Structural { parts, .. } => parts.len() as u32,
            };
        }
        // Latest entry per id across the group (instances iterate in seq
        // order, so later inserts win), each tagged with the flattened
        // part whose dictionary holds that authoritative version.
        let mut latest: BTreeMap<DocId, (UpdateEntry, u32)> = BTreeMap::new();
        for (g, instance) in group.iter().enumerate() {
            for entry in &instance.entries {
                let part = match &instance.kind {
                    InstanceKind::Plain { .. } => flat_base[g],
                    InstanceKind::Structural { authority, .. } => {
                        flat_base[g] + authority[&entry.record.id]
                    }
                };
                latest.insert(entry.record.id, (*entry, part));
            }
        }
        // `state.levels` no longer contains the drained group, so every
        // instance seen here is a live instance outside the merge.
        let touched_elsewhere: HashSet<DocId> = state
            .instances()
            .flat_map(|instance| instance.ops.keys().copied())
            .collect();
        let surviving: Vec<(UpdateEntry, u32)> = latest
            .into_values()
            .filter(|(entry, _)| {
                !entry.is_deletion() || touched_elsewhere.contains(&entry.record.id)
            })
            .map(|(entry, part)| {
                (
                    UpdateEntry {
                        record: entry.record,
                        op: if entry.is_deletion() {
                            UpdateOp::Delete
                        } else {
                            UpdateOp::Insert
                        },
                    },
                    part,
                )
            })
            .collect();

        // Structural merge first, when the mode and the scheme allow it.
        // A typed Unsupported — scheme can't merge, incompatible layouts,
        // a label collision — falls back to the rebuild below (burning a
        // build number, which is harmless: directory names only need to
        // be unique, not dense). Anything else is a real failure.
        if self.config.consolidation_mode == ConsolidationMode::Structural
            && S::supports_structural_merge()
        {
            match self.merge_structural(state, &group, level, newest_seq, &surviving, kill) {
                Ok(Some(instance)) => {
                    if kill == Some(KillPoint::AfterMergeBuild) {
                        return Ok(Merged::Committed {
                            instance,
                            structural: true,
                            killed: true,
                        });
                    }
                    for instance in &group {
                        instance.remove_dir();
                    }
                    return Ok(Merged::Committed {
                        instance,
                        structural: true,
                        killed: kill == Some(KillPoint::AfterGc),
                    });
                }
                Ok(None) => return Ok(Merged::KilledEarly { group }),
                Err(StorageError::Unsupported(_)) => {}
                Err(error) => return Err((group, error)),
            }
        }

        let surviving: Vec<UpdateEntry> = surviving.into_iter().map(|(entry, _)| entry).collect();
        let mut seed = [0u8; SEED_LEN];
        rng.fill_bytes(&mut seed);
        let (build_id, config) = self.next_instance_config(state, surviving.len());
        let chain = self
            .chain
            .get()
            .expect("consolidation only runs after an ingest ensured the chain");
        match BatchInstance::build(
            self.domain,
            build_id,
            newest_seq,
            (level + 1) as u32,
            surviving,
            &config,
            chain,
            seed,
        ) {
            Ok(merged) => {
                if matches!(
                    kill,
                    Some(KillPoint::MidMergeCopy | KillPoint::MidSidecarCompaction)
                ) {
                    // Simulated kill before the commit record: demote the
                    // fully built directory to the matching debris state
                    // and keep the inputs active.
                    if let Some(dir) = &merged.dir {
                        simulate_commit_kill(dir, kill.expect("matched above"));
                    }
                    return Ok(Merged::KilledEarly { group });
                }
                if kill == Some(KillPoint::AfterMergeBuild) {
                    // Simulated kill between the merged instance's commit
                    // and the GC of its inputs: both generations exist on
                    // disk, the manifest references only the old one.
                    return Ok(Merged::Committed {
                        instance: merged,
                        structural: false,
                        killed: true,
                    });
                }
                // The merged instance is durably built; the inputs' indexes
                // are now superseded and their directories can go.
                for instance in &group {
                    instance.remove_dir();
                }
                Ok(Merged::Committed {
                    instance: merged,
                    structural: false,
                    killed: kill == Some(KillPoint::AfterGc),
                })
            }
            Err(error) => {
                // Clean up the half-written merged index, keep the inputs.
                if let rsse_core::StorageBackend::OnDisk(dir) = &config.backend {
                    let _ = std::fs::remove_dir_all(dir);
                }
                Err((group, error))
            }
        }
    }

    /// Attempts the re-encryption-free structural merge of `group` into
    /// one instance at `level + 1`: the inputs' committed dictionaries
    /// are combined via [`RangeScheme::merge_stored`] (ciphertext copied
    /// verbatim), the flattened parts' clients re-derive from their
    /// retained seeds, and — for persisted managers — the **compacted**
    /// owner sidecar (deduped latest-per-id log, kind byte `1`) commits
    /// the instance durably, written last like every other commit record.
    ///
    /// Returns `Ok(None)` when a simulated pre-commit kill left debris on
    /// disk instead of a committed instance (test support), and
    /// [`StorageError::Unsupported`] when the merge cannot proceed
    /// structurally — the caller falls back to a rebuild.
    fn merge_structural(
        &self,
        state: &mut State<S>,
        group: &[Arc<BatchInstance<S>>],
        level: usize,
        newest_seq: u64,
        surviving: &[(UpdateEntry, u32)],
        kill: Option<KillPoint>,
    ) -> Result<Option<BatchInstance<S>>, StorageError> {
        let mut seeds: Vec<[u8; SEED_LEN]> = Vec::new();
        for instance in group {
            match &instance.kind {
                InstanceKind::Plain { seed, .. } => seeds.push(*seed),
                InstanceKind::Structural { parts, .. } => {
                    seeds.extend(parts.iter().map(|(_, seed)| *seed));
                }
            }
        }
        let parts = seeds
            .iter()
            .map(|&seed| {
                let mut rng = ChaCha20Rng::from_seed(seed);
                S::derive_client(&self.domain, &mut rng).map(|client| (client, seed))
            })
            .collect::<Result<Vec<(S, [u8; SEED_LEN])>, StorageError>>()?;
        let (build_id, config) = self.next_instance_config(state, surviving.len());
        let chain = self
            .chain
            .get()
            .expect("consolidation only runs after an ingest ensured the chain");
        let inputs: Vec<&S::Server> = group.iter().map(|instance| &instance.server).collect();
        let built = (|| -> Result<S::Server, StorageError> {
            let server = S::merge_stored(&inputs, &config)?;
            if let rsse_core::StorageBackend::OnDisk(dir) = &config.backend {
                write_owner_meta(
                    dir,
                    &OwnerMeta {
                        build_id,
                        seq: newest_seq,
                        level: (level + 1) as u32,
                        payload: persist::seal_structural_payload(
                            chain, build_id, &seeds, surviving,
                        ),
                    },
                )?;
            }
            Ok(server)
        })();
        let server = match built {
            Ok(server) => server,
            Err(error) => {
                // Don't leak a half-merged output directory — whether the
                // error falls back to a rebuild or aborts the ingest.
                if let rsse_core::StorageBackend::OnDisk(dir) = &config.backend {
                    let _ = std::fs::remove_dir_all(dir);
                }
                return Err(error);
            }
        };
        let dir = match &config.backend {
            rsse_core::StorageBackend::InMemory => None,
            rsse_core::StorageBackend::OnDisk(dir) => Some(dir.clone()),
        };
        if matches!(
            kill,
            Some(KillPoint::MidMergeCopy | KillPoint::MidSidecarCompaction)
        ) {
            if let Some(dir) = &dir {
                simulate_commit_kill(dir, kill.expect("matched above"));
            }
            return Ok(None);
        }
        let entries: Vec<UpdateEntry> = surviving.iter().map(|(entry, _)| *entry).collect();
        let ops: HashMap<DocId, UpdateOp> = entries
            .iter()
            .map(|entry| (entry.record.id, entry.op))
            .collect();
        let authority: HashMap<DocId, u32> = surviving
            .iter()
            .map(|(entry, part)| (entry.record.id, *part))
            .collect();
        Ok(Some(BatchInstance {
            seq: newest_seq,
            build_id,
            kind: InstanceKind::Structural { parts, authority },
            server,
            entries,
            ops,
            dir,
        }))
    }

    /// Issues a range query against every active instance, merges the
    /// results and refines them at the owner: ids superseded by a newer
    /// batch are dropped, and ids whose newest operation is a deletion are
    /// filtered out.
    ///
    /// Convenience wrapper over [`try_query`](Self::try_query) that
    /// **panics** if a persisted instance's storage fails mid-search;
    /// in-memory managers cannot fail.
    pub fn query(&self, range: Range) -> QueryOutcome {
        self.try_query(range)
            .expect("storage backend failed during query (use try_query to handle I/O errors)")
    }

    /// Fallible variant of [`query`](Self::query): a failed block read in
    /// any persisted instance aborts the whole query with its typed
    /// [`StorageError`] instead of silently dropping that instance's
    /// results (which would be indistinguishable from the tuples not
    /// existing — exactly the confusion the fallible path removes).
    ///
    /// The query pins the snapshot published when it starts and answers
    /// from it alone: an ingest or consolidation running meanwhile neither
    /// blocks it nor shows through half-done.
    pub fn try_query(&self, range: Range) -> Result<QueryOutcome, StorageError> {
        let state = self.snapshot();
        let mut ids: Vec<DocId> = Vec::new();
        let mut seen: HashSet<DocId> = HashSet::new();
        let mut stats = QueryStats::default();
        for instance in state.instances() {
            let outcome = instance.try_query(range)?;
            stats.tokens_sent += outcome.stats.tokens_sent;
            stats.token_bytes += outcome.stats.token_bytes;
            stats.rounds = stats.rounds.max(outcome.stats.rounds);
            stats.entries_touched += outcome.stats.entries_touched;
            stats.result_groups += outcome.stats.result_groups;
            for id in outcome.ids {
                // Only the instance that holds the *newest* version of a
                // tuple is authoritative for it: no newer active instance
                // (active sequence numbers are unique) may touch the id.
                if state
                    .instances()
                    .any(|other| other.seq > instance.seq && other.ops.contains_key(&id))
                {
                    continue;
                }
                match instance.ops.get(&id) {
                    None | Some(UpdateOp::Delete) => continue,
                    Some(_) => {}
                }
                if seen.insert(id) {
                    ids.push(id);
                }
            }
        }
        Ok(QueryOutcome { ids, stats })
    }

    /// The plaintext ground truth of the manager's current logical state —
    /// what a trusted database would answer. Used by tests and the update
    /// ablation experiment.
    pub fn ground_truth(&self, range: Range) -> Vec<DocId> {
        let mut latest: BTreeMap<DocId, (u64, UpdateEntry)> = BTreeMap::new();
        for instance in self.snapshot().instances() {
            for entry in &instance.entries {
                let candidate = (instance.seq, *entry);
                match latest.get(&entry.record.id) {
                    Some((seq, _)) if *seq > instance.seq => {}
                    _ => {
                        latest.insert(entry.record.id, candidate);
                    }
                }
            }
        }
        latest
            .values()
            .filter(|(_, entry)| !entry.is_deletion() && range.contains(entry.record.value))
            .map(|(_, entry)| entry.record.id)
            .collect()
    }

    /// Reopens a whole manager from the durable state at `root`: the
    /// `manager.meta` manifest, the per-instance directories, and their
    /// encrypted `owner.meta` sidecars — everything a restarted process
    /// needs besides the owner master `key`.
    ///
    /// Each instance's client re-derives byte-identically by replaying its
    /// persisted build seed, and its server reopens through
    /// [`RangeScheme::open_stored`], so the reopened manager answers
    /// [`try_query`](Self::try_query) exactly as the pre-crash manager
    /// did. `config` selects how the instances are served going forward:
    ///
    /// * `config.storage_root == Some(root)` — instances cold-open from
    ///   their directories (paged reads, bounded by
    ///   `config.cache_budget`), future ingests keep persisting, and the
    ///   healed manifest is re-committed;
    /// * `config.storage_root == None` — the durable state is **restored
    ///   into RAM**: every instance rebuilds in memory from its persisted
    ///   update log, nothing at `root` is modified beyond crash cleanup,
    ///   and the reopened manager continues as a purely in-memory one.
    ///
    /// # Crash recovery
    ///
    /// The manifest commits only after the instance directories it
    /// references are durable, so a crash between an index commit and the
    /// manifest commit leaves one of three windows, each of which this
    /// method heals:
    ///
    /// * a **batch instance** committed but unreferenced — the ingest
    ///   never returned to the caller, so it is rolled back (the
    ///   directory is swept after its sidecar authenticates);
    /// * a **consolidated instance** committed but unreferenced — the
    ///   merge is rolled *forward*: the merged instance supersedes every
    ///   referenced instance at a lower level with a sequence number at
    ///   or below its own (their directories, GC'd or still present, are
    ///   resolved), and the consolidation counter advances;
    /// * a manifest referencing an instance whose directory was already
    ///   **GC'd** — tolerated exactly when a committed consolidation
    ///   supersedes it (the previous case); otherwise the root is
    ///   genuinely damaged and the open fails typed;
    /// * an unreferenced consolidated instance that a kept or adopted
    ///   instance at a higher level supersedes (sequence number at or
    ///   below the higher one's) — a **late-GC leftover** whose directory
    ///   removal failed after a later merge consumed it; it is swept after
    ///   its sidecar authenticates, never re-adopted.
    ///
    /// # Errors
    ///
    /// Everything malformed surfaces as a typed [`StorageError`]: a
    /// missing or corrupt manifest, a scheme-kind mismatch, a referenced
    /// instance directory that is missing (with no superseding
    /// consolidation), foreign or stale sidecars (sequence or level
    /// disagreeing with the manifest), and owner payloads failing
    /// authentication — the wrong master key refuses to open rather than
    /// misinterpreting the root, and **nothing is deleted before the
    /// sidecars of the directories involved have authenticated** under
    /// the supplied key.
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::SeedableRng;
    /// use rand_chacha::ChaCha20Rng;
    /// use rsse_core::schemes::log_brc_urc::LogScheme;
    /// use rsse_cover::{Domain, Range};
    /// use rsse_updates::{OwnerKey, UpdateConfig, UpdateEntry, UpdateManager};
    ///
    /// let root = std::env::temp_dir().join(format!("rsse-open-root-doc-{}", std::process::id()));
    /// let mut rng = ChaCha20Rng::seed_from_u64(1);
    /// let key = OwnerKey::generate(&mut rng);
    /// let config = UpdateConfig {
    ///     storage_root: Some(root.clone()),
    ///     ..UpdateConfig::default()
    /// };
    ///
    /// // A persisted manager: every batch index and the owner state land
    /// // under `root`.
    /// let manager: UpdateManager<LogScheme> =
    ///     UpdateManager::with_key(key.clone(), Domain::new(256), config.clone());
    /// manager.ingest_batch((0..10).map(|i| UpdateEntry::insert(i, i * 20)).collect(), &mut rng);
    /// let before = manager.query(Range::new(0, 255));
    /// drop(manager); // the process "dies"
    ///
    /// // A new process reopens the root from disk alone and answers
    /// // byte-identically.
    /// let reopened: UpdateManager<LogScheme> =
    ///     UpdateManager::open_root(key, &root, config).unwrap();
    /// assert_eq!(reopened.query(Range::new(0, 255)), before);
    /// # std::fs::remove_dir_all(&root).unwrap();
    /// ```
    pub fn open_root(
        key: OwnerKey,
        root: impl AsRef<Path>,
        config: UpdateConfig,
    ) -> Result<Self, StorageError> {
        let root = root.as_ref();
        if let Some(configured) = &config.storage_root {
            if configured != root {
                return Err(StorageError::Unsupported(
                    "open_root: config.storage_root must be the opened root (or None \
                     to restore the instances into memory)",
                ));
            }
        }
        let manifest = read_manager_manifest(root)?;
        let manifest_path = root.join(rsse_sse::storage::MANAGER_MANIFEST_FILE);
        let corrupt = |detail: String| StorageError::CorruptDirectory {
            path: manifest_path.clone(),
            detail,
        };
        if manifest.scheme != S::NAME {
            return Err(corrupt(format!(
                "root was built by scheme \"{}\", reopened as \"{}\"",
                manifest.scheme,
                S::NAME
            )));
        }
        // Validate before Domain::new, whose own bounds are assertions —
        // a corrupt size must surface typed, not panic.
        if manifest.domain_size == 0 || manifest.domain_size > 1 << 63 {
            return Err(corrupt(format!(
                "manifest claims an invalid domain size {}",
                manifest.domain_size
            )));
        }
        let domain = Domain::new(manifest.domain_size);
        let chain = KeyChain::new(key);

        // Inventory the canonical instance directories under the root.
        let mut on_disk: HashMap<u64, PathBuf> = HashMap::new();
        let dir_iter = std::fs::read_dir(root).map_err(|e| StorageError::Io {
            path: root.to_path_buf(),
            error: e,
        })?;
        for entry in dir_iter {
            let entry = entry.map_err(|e| StorageError::Io {
                path: root.to_path_buf(),
                error: e,
            })?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(build_id) = ManagerManifest::parse_instance_dir_name(name) {
                // Only the exact names the manager writes; anything else
                // (a user's `instance-1`, scratch siblings) is left alone.
                if name == ManagerManifest::instance_dir_name(build_id) && entry.path().is_dir() {
                    on_disk.insert(build_id, entry.path());
                }
            }
        }
        let referenced: HashSet<u64> = manifest
            .levels
            .iter()
            .flatten()
            .map(|instance| instance.build_id)
            .collect();

        // Read every commit record (owner sidecar). A referenced directory
        // without one is damaged; an unreferenced one is a half-built
        // instance a crash left behind — swept below.
        let mut sidecars: HashMap<u64, OwnerMeta> = HashMap::new();
        let mut half_built: Vec<PathBuf> = Vec::new();
        for (&build_id, dir) in &on_disk {
            match read_owner_meta(dir) {
                Ok(meta) => {
                    if meta.build_id != build_id {
                        return Err(StorageError::CorruptDirectory {
                            path: dir.clone(),
                            detail: format!(
                                "owner sidecar names build {} inside directory {} — \
                                 a foreign instance",
                                meta.build_id,
                                ManagerManifest::instance_dir_name(build_id)
                            ),
                        });
                    }
                    sidecars.insert(build_id, meta);
                }
                Err(_) if !referenced.contains(&build_id) => half_built.push(dir.clone()),
                Err(error) => return Err(error),
            }
        }

        // Working level table seeded from the manifest; referenced
        // sidecars must agree with it on sequence number and level.
        let mut levels: Vec<Vec<(u64, u64, Option<ManifestInstance>)>> = manifest
            .levels
            .iter()
            .map(|level| {
                level
                    .iter()
                    .map(|instance| (instance.build_id, instance.seq, Some(instance.clone())))
                    .collect()
            })
            .collect();
        for (level_index, level) in levels.iter().enumerate() {
            for &(build_id, seq, _) in level {
                if let Some(meta) = sidecars.get(&build_id) {
                    if meta.seq != seq || meta.level != level_index as u32 {
                        return Err(StorageError::CorruptDirectory {
                            path: on_disk[&build_id].clone(),
                            detail: format!(
                                "owner sidecar says (seq {}, level {}) but the manifest \
                                 records (seq {seq}, level {level_index}) — a stale or \
                                 foreign instance",
                                meta.seq, meta.level
                            ),
                        });
                    }
                }
            }
        }

        // Resolve committed-but-unreferenced instances, top level first,
        // so every consolidation is settled before the instances below it.
        // A merge into level L happens only once the cascade has emptied
        // every level below L, so any instance below it with a sequence
        // number at or below the merged one's is one of its inputs, or an
        // input's input.
        let mut orphans: Vec<(u32, u64, u64)> = sidecars
            .iter()
            .filter(|(build_id, _)| !referenced.contains(build_id))
            .map(|(&build_id, meta)| (meta.level, meta.seq, build_id))
            .collect();
        orphans.sort_unstable_by_key(|&(level, seq, build_id)| (Reverse(level), seq, build_id));
        let mut sweep: Vec<u64> = Vec::new();
        let mut adopted: HashSet<u64> = HashSet::new();
        for (level, seq, build_id) in orphans {
            if level == 0 {
                // A batch whose ingest never committed its manifest: the
                // caller never saw the ingest succeed, so roll it back.
                sweep.push(build_id);
                continue;
            }
            let superseded = levels
                .iter()
                .skip(level as usize + 1)
                .flatten()
                .any(|&(_, above, _)| above >= seq);
            if superseded {
                // A late-GC leftover: a kept or adopted consolidation above
                // already consumed it, and only the best-effort removal of
                // its directory failed.
                sweep.push(build_id);
                continue;
            }
            // A committed consolidation: roll it forward. It supersedes
            // every instance below its level with seq at or below its own.
            for below in levels.iter_mut().take(level as usize) {
                below.retain(|&(input, input_seq, _)| {
                    if input_seq > seq {
                        return true;
                    }
                    if on_disk.contains_key(&input) {
                        sweep.push(input); // late-GC leftover
                    }
                    false
                });
            }
            while levels.len() <= level as usize {
                levels.push(Vec::new());
            }
            levels[level as usize].push((build_id, seq, None));
            adopted.insert(build_id);
        }

        // After adoption, every remaining instance must have its
        // directory: a missing one is genuine damage, not a GC artifact.
        for level in &levels {
            for &(build_id, seq, _) in level {
                if !on_disk.contains_key(&build_id) {
                    return Err(corrupt(format!(
                        "instance {} (seq {seq}) is referenced by the manifest but its \
                         directory is missing and no committed consolidation supersedes it",
                        ManagerManifest::instance_dir_name(build_id)
                    )));
                }
            }
        }

        // Decrypt and authenticate every owner payload involved — the kept
        // instances and the directories about to be swept — BEFORE
        // touching the disk: a wrong master key must fail the open, never
        // delete.
        // An adopted consolidation's kind — structural merge or rebuild —
        // is recorded in its payload's kind byte; classify while opening
        // so the split counters advance the right way.
        let mut opened: HashMap<u64, OwnerPayload> = HashMap::new();
        let mut adopted_structural = 0u64;
        let mut adopted_rebuild = 0u64;
        for level in &levels {
            for &(build_id, _, _) in level {
                let meta = &sidecars[&build_id];
                let dir = &on_disk[&build_id];
                let payload = persist::open_payload(&chain, build_id, dir, &meta.payload)?;
                if adopted.contains(&build_id) {
                    match &payload {
                        OwnerPayload::Plain { .. } => adopted_rebuild += 1,
                        OwnerPayload::Structural { .. } => adopted_structural += 1,
                    }
                }
                opened.insert(build_id, payload);
            }
        }
        for &build_id in &sweep {
            let meta = &sidecars[&build_id];
            persist::open_payload(&chain, build_id, &on_disk[&build_id], &meta.payload)?;
        }

        // Reconstruct the instances in level order.
        let persist_instances = config.storage_root.is_some();
        let mut rebuilt: Vec<Vec<Arc<BatchInstance<S>>>> = Vec::with_capacity(levels.len());
        for level in &levels {
            let mut instances = Vec::with_capacity(level.len());
            for (build_id, seq, record) in level {
                let dir = &on_disk[build_id];
                let payload = opened.remove(build_id).expect("payload opened above");
                if let Some(record) = record {
                    let (mut inserts, mut modifies, mut deletes) = (0u64, 0u64, 0u64);
                    let (entry_count, ops) = match &payload {
                        OwnerPayload::Plain { entries, .. } => (
                            entries.len(),
                            entries.iter().map(|entry| entry.op).collect::<Vec<_>>(),
                        ),
                        OwnerPayload::Structural { entries, .. } => (
                            entries.len(),
                            entries
                                .iter()
                                .map(|(entry, _)| entry.op)
                                .collect::<Vec<_>>(),
                        ),
                    };
                    for op in ops {
                        match op {
                            UpdateOp::Insert => inserts += 1,
                            UpdateOp::Modify => modifies += 1,
                            UpdateOp::Delete => deletes += 1,
                        }
                    }
                    if entry_count as u64 != record.entry_count
                        || inserts != record.inserts
                        || modifies != record.modifies
                        || deletes != record.deletes
                    {
                        return Err(StorageError::CorruptDirectory {
                            path: dir.clone(),
                            detail: format!(
                                "owner payload holds {entry_count} entries \
                                 ({inserts}/{modifies}/{deletes} ins/mod/del) but the \
                                 manifest records {} ({}/{}/{}) — manifest and instance \
                                 disagree",
                                record.entry_count, record.inserts, record.modifies, record.deletes
                            ),
                        });
                    }
                }
                let instance_config = if persist_instances {
                    let cfg = StorageConfig::on_disk(manifest.shard_bits, dir.clone());
                    match config.cache_budget {
                        Some(budget) => cfg.with_cache_budget(budget),
                        None => cfg,
                    }
                } else {
                    StorageConfig::in_memory(manifest.shard_bits)
                };
                instances.push(Arc::new(match payload {
                    OwnerPayload::Plain { seed, entries } => BatchInstance::reopen(
                        domain,
                        *build_id,
                        *seq,
                        entries,
                        &instance_config,
                        seed,
                    )?,
                    OwnerPayload::Structural { seeds, entries } => {
                        // A structural instance reopens structurally no
                        // matter the current consolidation mode: its
                        // payload kind, not the runtime knob, dictates.
                        BatchInstance::reopen_structural(
                            domain,
                            *build_id,
                            *seq,
                            seeds,
                            entries,
                            dir,
                            &instance_config,
                        )?
                    }
                }));
            }
            rebuilt.push(instances);
        }

        // Commit the cleanup: superseded and rolled-back directories (all
        // authenticated above) and half-built leftovers go.
        for build_id in sweep {
            let _ = std::fs::remove_dir_all(&on_disk[&build_id]);
        }
        for dir in half_built {
            let _ = std::fs::remove_dir_all(dir);
        }

        // Counters: adopted consolidations advance them past the stale
        // manifest's values (an adopted merge whose newest input was the
        // crashed ingest's batch also advances the batch counters).
        let max_seq = rebuilt
            .iter()
            .flatten()
            .map(|instance| instance.seq + 1)
            .max()
            .unwrap_or(0);
        let next_seq = manifest.next_seq.max(max_seq);
        let next_build = on_disk
            .keys()
            .map(|id| id + 1)
            .max()
            .unwrap_or(0)
            .max(manifest.next_build);
        let state = State {
            levels: rebuilt,
            next_seq,
            next_build,
            batches_ingested: (manifest.batches_ingested + (next_seq - manifest.next_seq)) as usize,
            structural_consolidations: (manifest.structural_consolidations + adopted_structural)
                as usize,
            rebuild_consolidations: (manifest.rebuild_consolidations + adopted_rebuild) as usize,
        };
        let manager = Self::from_state(domain, config, OnceLock::from(chain), state);
        // Re-commit the healed manifest (no-op for an in-memory restore),
        // so the next crash starts from this consistent state.
        manager.persist_manifest(&manager.snapshot())?;
        Ok(manager)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;
    use rsse_core::schemes::log_brc_urc::LogScheme;
    use rsse_core::schemes::log_src_i::LogSrcIScheme;

    type LogManager = UpdateManager<LogScheme>;

    fn manager(step: usize) -> LogManager {
        LogManager::new(
            Domain::new(256),
            UpdateConfig {
                consolidation_step: step,
                ..UpdateConfig::default()
            },
        )
    }

    fn sorted(mut ids: Vec<DocId>) -> Vec<DocId> {
        ids.sort_unstable();
        ids
    }

    #[test]
    fn inserts_across_batches_are_all_visible() {
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let mgr = manager(4);
        mgr.ingest_batch(
            (0..10).map(|i| UpdateEntry::insert(i, i * 10)).collect(),
            &mut rng,
        );
        mgr.ingest_batch(
            (10..20).map(|i| UpdateEntry::insert(i, i * 10)).collect(),
            &mut rng,
        );
        let outcome = mgr.query(Range::new(0, 255));
        assert_eq!(
            sorted(outcome.ids),
            sorted(mgr.ground_truth(Range::new(0, 255)))
        );
        assert_eq!(mgr.active_instances(), 2);
        assert_eq!(mgr.batches_ingested(), 2);
    }

    #[test]
    fn deletions_are_filtered_at_the_owner() {
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let mgr = manager(10);
        mgr.ingest_batch(
            vec![
                UpdateEntry::insert(1, 50),
                UpdateEntry::insert(2, 60),
                UpdateEntry::insert(3, 70),
            ],
            &mut rng,
        );
        mgr.ingest_batch(vec![UpdateEntry::delete(2, 60)], &mut rng);
        let outcome = mgr.query(Range::new(0, 255));
        assert_eq!(sorted(outcome.ids), vec![1, 3]);
        assert_eq!(sorted(mgr.ground_truth(Range::new(0, 255))), vec![1, 3]);
    }

    #[test]
    fn modifications_supersede_older_values() {
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let mgr = manager(10);
        mgr.ingest_batch(vec![UpdateEntry::insert(7, 10)], &mut rng);
        mgr.ingest_batch(vec![UpdateEntry::modify(7, 200)], &mut rng);
        // The tuple must be found at its new value…
        assert_eq!(mgr.query(Range::new(150, 255)).ids, vec![7]);
        // …and no longer at its old one.
        assert!(mgr.query(Range::new(0, 50)).is_empty());
    }

    #[test]
    fn consolidation_keeps_instance_count_logarithmic() {
        let mut rng = ChaCha20Rng::seed_from_u64(4);
        let step = 3;
        let mgr = manager(step);
        let batches = 27;
        for b in 0..batches {
            let entries = (0..5u64)
                .map(|i| UpdateEntry::insert(b as u64 * 100 + i, (b as u64 * 7 + i) % 256))
                .collect();
            mgr.ingest_batch(entries, &mut rng);
            // The paper's bound: at most s instances per level, log_s(b)+1 levels.
            let max_active = step * ((batches as f64).log(step as f64).ceil() as usize + 1);
            assert!(
                mgr.active_instances() <= max_active,
                "too many active instances: {}",
                mgr.active_instances()
            );
        }
        assert!(mgr.consolidations() > 0);
        // 27 batches with s=3 fully telescope into a single level-3 instance.
        assert_eq!(mgr.active_instances(), 1);
        // All inserted tuples remain visible after the merges.
        assert_eq!(mgr.query(Range::new(0, 255)).ids.len(), batches * 5);
    }

    #[test]
    fn structural_mode_answers_like_rebuild_and_splits_the_counters() {
        // Same batches into a rebuild-mode and a structural-mode manager:
        // answers must agree with each other and with ground truth, while
        // the consolidation counters attribute the work to the right
        // strategy. Step 2 forces multi-level telescoping, so structural
        // instances are themselves structurally re-merged.
        let step = 2;
        let config = |mode| UpdateConfig {
            consolidation_step: step,
            consolidation_mode: mode,
            ..UpdateConfig::default()
        };
        let mut rng_a = ChaCha20Rng::seed_from_u64(40);
        let mut rng_b = ChaCha20Rng::seed_from_u64(40);
        let rebuild = LogManager::new(Domain::new(256), config(ConsolidationMode::Rebuild));
        let structural = LogManager::new(Domain::new(256), config(ConsolidationMode::Structural));
        for b in 0..8u64 {
            let mut entries: Vec<UpdateEntry> = (0..5u64)
                .map(|i| UpdateEntry::insert(b * 10 + i, (b * 37 + i * 11) % 256))
                .collect();
            if b >= 2 {
                // Delete one tuple from an earlier batch, modify another.
                entries.push(UpdateEntry::delete((b - 2) * 10, ((b - 2) * 37) % 256));
                entries.push(UpdateEntry::modify((b - 1) * 10 + 1, (b * 53) % 256));
            }
            rebuild.ingest_batch(entries.clone(), &mut rng_a);
            structural.ingest_batch(entries, &mut rng_b);
            for lo in [0u64, 64, 128] {
                let range = Range::new(lo, lo + 90);
                assert_eq!(
                    sorted(rebuild.query(range).ids),
                    sorted(structural.query(range).ids),
                    "modes disagree after batch {b} on {range:?}"
                );
            }
        }
        let range = Range::new(0, 255);
        assert_eq!(
            sorted(structural.query(range).ids),
            sorted(structural.ground_truth(range))
        );
        assert_eq!(rebuild.consolidations(), structural.consolidations());
        assert_eq!(rebuild.structural_consolidations(), 0);
        assert_eq!(structural.rebuild_consolidations(), 0);
        assert!(structural.structural_consolidations() > 0);
        assert!(structural.structural_instances() > 0);
        assert_eq!(rebuild.structural_instances(), 0);
    }

    #[test]
    fn structural_mode_falls_back_to_rebuild_on_layout_mismatch() {
        // LogSrcIScheme has no structural-merge capability, so structural
        // mode must silently fall back to the rebuild path and attribute
        // the consolidations accordingly.
        let mut rng = ChaCha20Rng::seed_from_u64(41);
        let mgr: UpdateManager<LogSrcIScheme> = UpdateManager::new(
            Domain::new(128),
            UpdateConfig {
                consolidation_step: 2,
                consolidation_mode: ConsolidationMode::Structural,
                ..UpdateConfig::default()
            },
        );
        for b in 0..4u64 {
            mgr.ingest_batch(
                (0..4u64)
                    .map(|i| UpdateEntry::insert(b * 10 + i, (b * 17 + i * 5) % 128))
                    .collect(),
                &mut rng,
            );
        }
        assert!(mgr.consolidations() > 0);
        assert_eq!(mgr.structural_consolidations(), 0);
        assert_eq!(mgr.rebuild_consolidations(), mgr.consolidations());
        let range = Range::new(0, 127);
        assert_eq!(
            sorted(mgr.query(range).ids),
            sorted(mgr.ground_truth(range))
        );
    }

    #[test]
    fn consolidation_purges_deleted_tuples() {
        let mut rng = ChaCha20Rng::seed_from_u64(5);
        let mgr = manager(2);
        mgr.ingest_batch(
            vec![UpdateEntry::insert(1, 10), UpdateEntry::insert(2, 20)],
            &mut rng,
        );
        let before = mgr.index_stats();
        mgr.ingest_batch(vec![UpdateEntry::delete(1, 10)], &mut rng);
        // The two batches merged (s = 2) and the deleted tuple is physically
        // gone, so the consolidated index holds a single tuple.
        assert_eq!(mgr.active_instances(), 1);
        assert!(mgr.index_stats().entries < before.entries + 5);
        assert_eq!(mgr.query(Range::new(0, 255)).ids, vec![2]);
    }

    #[test]
    fn query_stats_accumulate_across_instances() {
        let mut rng = ChaCha20Rng::seed_from_u64(6);
        let mgr = manager(0); // never consolidate
        for b in 0..4u64 {
            mgr.ingest_batch(vec![UpdateEntry::insert(b, b * 11)], &mut rng);
        }
        assert_eq!(mgr.active_instances(), 4);
        let outcome = mgr.query(Range::new(0, 255));
        assert_eq!(outcome.ids.len(), 4);
        assert!(outcome.stats.tokens_sent >= 4, "one token set per instance");
    }

    #[test]
    fn works_with_interactive_schemes_too() {
        let mut rng = ChaCha20Rng::seed_from_u64(7);
        let mgr: UpdateManager<LogSrcIScheme> =
            UpdateManager::new(Domain::new(128), UpdateConfig::default());
        mgr.ingest_batch(
            (0..20)
                .map(|i| UpdateEntry::insert(i, (i * 13) % 128))
                .collect(),
            &mut rng,
        );
        mgr.ingest_batch(
            vec![UpdateEntry::delete(3, 39), UpdateEntry::insert(100, 64)],
            &mut rng,
        );
        let range = Range::new(0, 127);
        assert_eq!(
            sorted(mgr.query(range).ids.clone()),
            sorted(mgr.ground_truth(range))
        );
    }

    #[test]
    fn consolidated_deletion_does_not_resurrect_older_instances() {
        // Regression: a tuple inserted in an early (already consolidated)
        // instance and deleted in a later batch must stay deleted after the
        // deleting batch's level consolidates. The tombstone has to survive
        // the merge while any older live instance still touches the id.
        let mut rng = ChaCha20Rng::seed_from_u64(10);
        let mgr = manager(2);
        mgr.ingest_batch(vec![UpdateEntry::insert(1, 10)], &mut rng);
        mgr.ingest_batch(vec![UpdateEntry::insert(2, 20)], &mut rng);
        // Level 0 consolidated into instance A = {1, 2} at level 1.
        assert_eq!(mgr.active_instances(), 1);
        mgr.ingest_batch(vec![UpdateEntry::delete(1, 10)], &mut rng);
        mgr.ingest_batch(vec![UpdateEntry::insert(3, 30)], &mut rng);
        // The deleting batch merged with its level-0 sibling while A still
        // lives: id 1 must not resurrect from A.
        let range = Range::new(0, 255);
        assert_eq!(sorted(mgr.query(range).ids), vec![2, 3]);
        assert_eq!(sorted(mgr.ground_truth(range)), vec![2, 3]);
        // One more round of batches telescopes everything into one
        // instance; the tombstone finally meets the stale insert and both
        // are purged physically.
        mgr.ingest_batch(vec![UpdateEntry::insert(4, 40)], &mut rng);
        mgr.ingest_batch(vec![UpdateEntry::insert(5, 50)], &mut rng);
        assert_eq!(sorted(mgr.query(range).ids), vec![2, 3, 4, 5]);
        if mgr.active_instances() == 1 {
            // Fully consolidated: the index holds exactly the live tuples.
            let entries_per_tuple = 9; // domain 256 → log m + 1 keywords
            assert_eq!(mgr.index_stats().entries, 4 * entries_per_tuple);
        }
    }

    #[test]
    fn modification_survives_consolidation_of_the_modifying_batch() {
        // Same resurrection scenario through the modify path: the old value
        // must stay dead once the modifying batch consolidates.
        let mut rng = ChaCha20Rng::seed_from_u64(11);
        let mgr = manager(2);
        mgr.ingest_batch(vec![UpdateEntry::insert(7, 10)], &mut rng);
        mgr.ingest_batch(vec![UpdateEntry::insert(8, 11)], &mut rng);
        mgr.ingest_batch(vec![UpdateEntry::modify(7, 200)], &mut rng);
        mgr.ingest_batch(vec![UpdateEntry::insert(9, 12)], &mut rng);
        assert!(
            mgr.query(Range::new(0, 50)).ids != vec![7],
            "old value must stay dead"
        );
        assert_eq!(sorted(mgr.query(Range::new(0, 50)).ids), vec![8, 9]);
        assert_eq!(mgr.query(Range::new(150, 255)).ids, vec![7]);
    }

    #[test]
    fn sharded_rebuilds_answer_identically_to_unsharded() {
        // The rebuild path goes through build_stored: a manager configured
        // with shard bits must stay logically identical to an unsharded one
        // across ingestion and consolidation.
        let mut rng_a = ChaCha20Rng::seed_from_u64(9);
        let mut rng_b = ChaCha20Rng::seed_from_u64(9);
        let plain = manager(3);
        let sharded = LogManager::new(
            Domain::new(256),
            UpdateConfig {
                consolidation_step: 3,
                shard_bits: 4,
                storage_root: None,
                cache_budget: None,
                build_budget: None,
                consolidation_mode: ConsolidationMode::default(),
            },
        );
        for b in 0..9u64 {
            let entries: Vec<UpdateEntry> = (0..6u64)
                .map(|i| UpdateEntry::insert(b * 10 + i, (b * 31 + i * 7) % 256))
                .collect();
            plain.ingest_batch(entries.clone(), &mut rng_a);
            sharded.ingest_batch(entries, &mut rng_b);
        }
        assert_eq!(plain.consolidations(), sharded.consolidations());
        for range in [Range::new(0, 255), Range::new(10, 60), Range::new(200, 220)] {
            assert_eq!(
                sorted(sharded.query(range).ids),
                sorted(plain.query(range).ids)
            );
        }
        // Sharding is layout-only: index sizes agree too.
        assert_eq!(plain.index_stats().entries, sharded.index_stats().entries);
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn out_of_domain_update_is_rejected() {
        let mut rng = ChaCha20Rng::seed_from_u64(8);
        let mgr = manager(4);
        mgr.ingest_batch(vec![UpdateEntry::insert(1, 10_000)], &mut rng);
    }

    use rsse_sse::test_support::TempDir;

    #[test]
    fn persistent_manager_answers_identically_to_in_memory() {
        // Every level on disk: batch builds and consolidation rebuilds both
        // write through the on-disk backend, and query results stay
        // identical to the purely in-memory manager on the same RNG stream.
        let root = TempDir::new("persist-eq");
        let mut rng_a = ChaCha20Rng::seed_from_u64(12);
        let mut rng_b = ChaCha20Rng::seed_from_u64(12);
        let in_memory = manager(3);
        let on_disk = LogManager::new(
            Domain::new(256),
            UpdateConfig {
                consolidation_step: 3,
                shard_bits: 2,
                storage_root: Some(root.path().to_path_buf()),
                cache_budget: None,
                build_budget: None,
                consolidation_mode: ConsolidationMode::default(),
            },
        );
        for b in 0..9u64 {
            let entries: Vec<UpdateEntry> = (0..6u64)
                .map(|i| UpdateEntry::insert(b * 10 + i, (b * 29 + i * 13) % 256))
                .collect();
            in_memory.ingest_batch(entries.clone(), &mut rng_a);
            on_disk.ingest_batch(entries, &mut rng_b);
        }
        assert_eq!(on_disk.consolidations(), in_memory.consolidations());
        for range in [Range::new(0, 255), Range::new(10, 60), Range::new(200, 220)] {
            assert_eq!(
                sorted(on_disk.query(range).ids),
                sorted(in_memory.query(range).ids)
            );
        }
        assert_eq!(
            on_disk.index_stats().entries,
            in_memory.index_stats().entries
        );
    }

    #[test]
    fn consolidation_removes_superseded_instance_directories() {
        let root = TempDir::new("persist-gc");
        let mut rng = ChaCha20Rng::seed_from_u64(13);
        let mgr = LogManager::new(
            Domain::new(256),
            UpdateConfig {
                consolidation_step: 2,
                shard_bits: 0,
                storage_root: Some(root.path().to_path_buf()),
                cache_budget: None,
                build_budget: None,
                consolidation_mode: ConsolidationMode::default(),
            },
        );
        mgr.ingest_batch(vec![UpdateEntry::insert(1, 10)], &mut rng);
        // The root holds the instance directory plus the manager.meta
        // manifest committed at the end of the ingest.
        assert_eq!(
            root.subdir_count(),
            2,
            "one persisted instance + the root manifest after one batch"
        );
        mgr.ingest_batch(vec![UpdateEntry::insert(2, 20)], &mut rng);
        // s = 2: the two level-0 instances merged into one level-1 instance;
        // their directories are gone, only the merged one (and the
        // manifest) remains.
        assert_eq!(mgr.active_instances(), 1);
        assert_eq!(
            root.subdir_count(),
            mgr.active_instances() + 1,
            "exactly one directory per active instance + the manifest"
        );
        assert_eq!(sorted(mgr.query(Range::new(0, 255)).ids), vec![1, 2]);
    }

    #[test]
    fn failed_batch_build_leaves_no_partial_directory() {
        // Plant a directory where the first instance's shard FILE must go:
        // the build fails after the manifest is already written, and the
        // half-written instance directory must be cleaned up, not leaked.
        let root = TempDir::new("persist-leak");
        let instance_dir = root.path().join("instance-00000000");
        std::fs::create_dir_all(instance_dir.join("shard-00000.shd")).unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(15);
        let mgr = LogManager::new(
            Domain::new(256),
            UpdateConfig {
                consolidation_step: 2,
                shard_bits: 0,
                storage_root: Some(root.path().to_path_buf()),
                cache_budget: None,
                build_budget: None,
                consolidation_mode: ConsolidationMode::default(),
            },
        );
        let err = mgr
            .try_ingest_batch(vec![UpdateEntry::insert(1, 10)], &mut rng)
            .expect_err("occupied shard path must fail the build");
        assert!(matches!(err, rsse_core::StorageError::Io { .. }));
        assert_eq!(mgr.active_instances(), 0);
        assert_eq!(
            root.subdir_count(),
            0,
            "the partial instance directory must be removed on failure"
        );
    }

    #[test]
    fn try_ingest_surfaces_storage_errors_without_losing_state() {
        // Point the storage root somewhere unwritable: a path whose parent
        // is a regular file. The failed ingest must leave the manager empty
        // and report a typed Io error instead of panicking.
        let root = TempDir::new("persist-err");
        let file_path = root.path().join("not-a-dir");
        std::fs::write(&file_path, b"occupied").unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(14);
        let mgr = LogManager::new(
            Domain::new(256),
            UpdateConfig {
                consolidation_step: 2,
                shard_bits: 0,
                storage_root: Some(file_path.join("sub")),
                cache_budget: None,
                build_budget: None,
                consolidation_mode: ConsolidationMode::default(),
            },
        );
        let err = mgr
            .try_ingest_batch(vec![UpdateEntry::insert(1, 10)], &mut rng)
            .expect_err("unwritable root must fail");
        assert!(matches!(err, rsse_core::StorageError::Io { .. }));
        assert_eq!(mgr.active_instances(), 0);
        assert_eq!(mgr.batches_ingested(), 0);
        assert!(mgr.query(Range::new(0, 255)).is_empty());
    }
}
