//! Crash-recovery integration tests for the durable update manager.
//!
//! The acceptance criteria of the reopen-from-root work: build → ingest
//! batches → drop (including a simulated kill between the index commit and
//! the manifest commit at each stage of ingest/consolidation) →
//! `UpdateManager::open_root` → query results **byte-identical** to the
//! uninterrupted manager, on both the on-disk (budgeted and unbudgeted)
//! and the in-memory-restore reopen paths — plus a corruption battery
//! pinning that every malformed `manager.meta` / instance state is
//! rejected with a typed `StorageError` rather than misread.

use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse::core::schemes::log_brc_urc::LogScheme;
use rsse::core::schemes::log_src_i::LogSrcIScheme;
use rsse::core::{QueryServer, StorageError};
use rsse::prelude::*;
use rsse::sse::storage::{
    read_manager_manifest, write_manager_manifest, MANAGER_MANIFEST_FILE, OWNER_META_FILE,
};
use rsse::sse::test_support::TempDir;
use rsse::updates::manager::KillPoint;
use rsse::updates::OwnerKey;
use std::fs;
use std::path::Path;

type LogManager = UpdateManager<LogScheme>;

const DOMAIN: u64 = 1 << 10;

fn owner_key() -> OwnerKey {
    OwnerKey::from_bytes([41u8; 32])
}

/// Consolidation strategy under test: `RSSE_TEST_CONSOLIDATE=structural`
/// runs this whole battery over re-encryption-free structural merges (the
/// CI lane), anything else over the default rebuild path. Every recovery
/// guarantee must hold identically in both modes.
fn consolidation_mode() -> ConsolidationMode {
    match std::env::var("RSSE_TEST_CONSOLIDATE").as_deref() {
        Ok("structural") => ConsolidationMode::Structural,
        _ => ConsolidationMode::Rebuild,
    }
}

fn config(root: &Path) -> UpdateConfig {
    UpdateConfig {
        consolidation_step: 3,
        shard_bits: 2,
        storage_root: Some(root.to_path_buf()),
        cache_budget: None,
        build_budget: None,
        consolidation_mode: consolidation_mode(),
    }
}

/// A deterministic mixed batch (inserts, a modify, a delete) for batch `b`.
fn batch_entries(b: u64) -> Vec<UpdateEntry> {
    let mut entries: Vec<UpdateEntry> = (0..8u64)
        .map(|i| UpdateEntry::insert(b * 10 + i, (b * 97 + i * 13) % DOMAIN))
        .collect();
    if b > 0 {
        // Touch the previous batch: supersede one tuple, delete another.
        entries.push(UpdateEntry::modify((b - 1) * 10, (b * 53) % DOMAIN));
        entries.push(UpdateEntry::delete(
            (b - 1) * 10 + 1,
            ((b - 1) * 97 + 13) % DOMAIN,
        ));
    }
    entries
}

/// Per-batch RNG streams are independent of history, so an interrupted and
/// re-driven manager draws the same seeds as an uninterrupted one.
fn batch_rng(b: u64) -> ChaCha20Rng {
    ChaCha20Rng::seed_from_u64(1_000 + b)
}

fn ingest(manager: &LogManager, batches: std::ops::Range<u64>) {
    for b in batches {
        manager.ingest_batch(batch_entries(b), &mut batch_rng(b));
    }
}

fn query_mix() -> Vec<Range> {
    vec![
        Range::new(0, DOMAIN - 1),
        Range::new(10, 200),
        Range::new(500, 800),
        Range::new(900, DOMAIN - 1),
    ]
}

/// The full owner-visible fingerprint of a manager: per-range outcomes
/// (ids in iteration order + stats) plus the bookkeeping counters.
fn fingerprint(manager: &LogManager) -> (Vec<QueryOutcome>, usize, usize, usize) {
    (
        query_mix()
            .into_iter()
            .map(|range| manager.try_query(range).expect("query serves"))
            .collect(),
        manager.active_instances(),
        manager.batches_ingested(),
        manager.consolidations(),
    )
}

/// Entries directly under the root that are instance directories.
fn instance_dirs(root: &Path) -> usize {
    fs::read_dir(root)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().path().is_dir())
        .count()
}

#[test]
fn reopen_answers_byte_identically_on_every_backend() {
    let root = TempDir::new("reopen-eq");
    let cfg = config(root.path());
    let manager = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg.clone());
    ingest(&manager, 0..7); // 7 batches at s = 3: consolidations ran
    assert!(manager.consolidations() > 0);
    let reference = fingerprint(&manager);
    drop(manager); // the process "dies" cleanly

    // On-disk reopen, unbudgeted: instances cold-open via paged reads.
    let reopened = LogManager::open_root(owner_key(), root.path(), cfg.clone()).unwrap();
    assert_eq!(fingerprint(&reopened), reference);

    // On-disk reopen under a tight block-cache budget.
    let budgeted_cfg = UpdateConfig {
        cache_budget: Some(32 << 10),
        ..cfg.clone()
    };
    let budgeted = LogManager::open_root(owner_key(), root.path(), budgeted_cfg).unwrap();
    assert_eq!(fingerprint(&budgeted), reference);

    // In-memory restore: every instance rebuilds in RAM from the persisted
    // owner state; outcomes stay byte-identical and the root is untouched.
    let before: Vec<_> = {
        let mut names: Vec<String> = fs::read_dir(root.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };
    let in_memory_cfg = UpdateConfig {
        storage_root: None,
        ..cfg
    };
    let restored = LogManager::open_root(owner_key(), root.path(), in_memory_cfg).unwrap();
    assert_eq!(fingerprint(&restored), reference);
    let after: Vec<_> = {
        let mut names: Vec<String> = fs::read_dir(root.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };
    assert_eq!(
        before, after,
        "an in-memory restore must not touch the root"
    );
}

#[test]
fn reopened_manager_keeps_ingesting_like_the_uninterrupted_one() {
    let root = TempDir::new("reopen-continue");
    let cfg = config(root.path());
    let reference = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg.clone());
    ingest(&reference, 0..9);

    let other_root = TempDir::new("reopen-continue-b");
    let other_cfg = config(other_root.path());
    let victim = LogManager::with_key(owner_key(), Domain::new(DOMAIN), other_cfg.clone());
    ingest(&victim, 0..5);
    drop(victim);
    let reopened = LogManager::open_root(owner_key(), other_root.path(), other_cfg).unwrap();
    ingest(&reopened, 5..9);

    assert_eq!(fingerprint(&reopened), fingerprint(&reference));
    // The healed root stays reopenable after the post-restart ingests.
    drop(reopened);
    let again =
        LogManager::open_root(owner_key(), other_root.path(), config(other_root.path())).unwrap();
    assert_eq!(fingerprint(&again), fingerprint(&reference));
}

/// The headline kill-point battery: a simulated kill between the index
/// commit and the manifest commit, at each stage of ingest/consolidation.
/// Batch 2 (0-indexed) is the one that trips the s = 3 consolidation.
#[test]
fn kill_between_index_and_manifest_commit_heals_on_reopen() {
    // Reference states: after 2 batches (the crashed ingest rolled back)
    // and after 3 batches (the crashed ingest rolled forward).
    let ref_root_a = TempDir::new("kill-ref-a");
    let ref_a = LogManager::with_key(owner_key(), Domain::new(DOMAIN), config(ref_root_a.path()));
    ingest(&ref_a, 0..2);
    let rolled_back = fingerprint(&ref_a);

    let ref_root_b = TempDir::new("kill-ref-b");
    let ref_b = LogManager::with_key(owner_key(), Domain::new(DOMAIN), config(ref_root_b.path()));
    ingest(&ref_b, 0..3);
    assert_eq!(ref_b.consolidations(), 1, "batch 2 trips the merge");
    let rolled_forward = fingerprint(&ref_b);

    for (kill, expected, label) in [
        // The batch's index committed but neither consolidation nor
        // manifest did: the ingest never returned, so it rolls back.
        (
            KillPoint::AfterBatchBuild,
            &rolled_back,
            "after-batch-build",
        ),
        // The merged instance committed (inputs still on disk): the
        // committed consolidation rolls forward.
        (
            KillPoint::AfterMergeBuild,
            &rolled_forward,
            "after-merge-build",
        ),
        // The merged instance committed and the inputs were GC'd, but the
        // stale manifest still references them: recovery resolves the
        // GC'd directories via the committed consolidation.
        (KillPoint::AfterGc, &rolled_forward, "after-gc"),
    ] {
        let root = TempDir::new("kill-point");
        let cfg = config(root.path());
        let victim = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg.clone());
        ingest(&victim, 0..2);
        victim
            .try_ingest_batch_kill_at(batch_entries(2), &mut batch_rng(2), kill)
            .expect("the simulated kill is not a storage failure");
        drop(victim); // the "killed" process

        let reopened = LogManager::open_root(owner_key(), root.path(), cfg).unwrap();
        assert_eq!(&fingerprint(&reopened), expected, "kill point {label}");
        // The healed root is clean: one directory per active instance.
        assert_eq!(
            instance_dirs(root.path()),
            reopened.active_instances(),
            "kill point {label} must leave no stray directories"
        );

        // Rolled back: re-driving the interrupted batch converges with the
        // uninterrupted manager, byte for byte.
        if kill == KillPoint::AfterBatchBuild {
            ingest(&reopened, 2..3);
            assert_eq!(&fingerprint(&reopened), &rolled_forward);
        }
    }
}

/// The consolidation-commit kill windows introduced with structural
/// merges: a kill while the merged shards are still being copied
/// (`MidMergeCopy`) and a kill while the compacted owner sidecar is being
/// written (`MidSidecarCompaction`). In both, the merged directory never
/// gained its `owner.meta` commit record, so recovery must roll the whole
/// interrupted ingest back and sweep the debris — under either
/// consolidation mode.
#[test]
fn kill_inside_the_consolidation_commit_rolls_back_and_sweeps_debris() {
    let ref_root = TempDir::new("ckill-ref");
    let reference = LogManager::with_key(owner_key(), Domain::new(DOMAIN), config(ref_root.path()));
    ingest(&reference, 0..2);
    let rolled_back = fingerprint(&reference);
    ingest(&reference, 2..3);
    let rolled_forward = fingerprint(&reference);

    for (kill, label) in [
        (KillPoint::MidMergeCopy, "mid-merge-copy"),
        (KillPoint::MidSidecarCompaction, "mid-sidecar-compaction"),
    ] {
        let root = TempDir::new("ckill");
        let cfg = config(root.path());
        let victim = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg.clone());
        ingest(&victim, 0..2);
        victim
            .try_ingest_batch_kill_at(batch_entries(2), &mut batch_rng(2), kill)
            .expect("the simulated kill is not a storage failure");
        drop(victim);

        // The kill left a merged directory without its commit record —
        // and, for these windows, in-flight `.tmp` debris inside it.
        let debris: Vec<String> = fs::read_dir(root.path())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.is_dir())
            .flat_map(|p| fs::read_dir(p).unwrap())
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.ends_with(".tmp"))
            .collect();
        assert!(
            !debris.is_empty(),
            "kill point {label} must leave in-flight debris to sweep"
        );

        // A file that is NOT the manager's must survive the sweep.
        let foreign = root.path().join("keep.txt");
        fs::write(&foreign, b"not yours").unwrap();

        let reopened = LogManager::open_root(owner_key(), root.path(), cfg).unwrap();
        assert_eq!(&fingerprint(&reopened), &rolled_back, "kill point {label}");
        assert_eq!(
            instance_dirs(root.path()),
            reopened.active_instances(),
            "kill point {label} must sweep the uncommitted merge directory"
        );
        assert!(foreign.exists(), "recovery must not touch foreign files");

        // Re-driving the interrupted batch converges with the
        // uninterrupted manager, byte for byte.
        ingest(&reopened, 2..3);
        assert_eq!(&fingerprint(&reopened), &rolled_forward, "{label} re-drive");
    }
}

#[test]
fn half_built_instance_directories_are_swept_on_reopen() {
    let root = TempDir::new("half-built");
    let cfg = config(root.path());
    let manager = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg.clone());
    ingest(&manager, 0..2);
    let reference = fingerprint(&manager);
    drop(manager);

    // A directory a killed build left behind: canonical name, no owner
    // sidecar (the commit record is written last, so none exists).
    let junk = root.path().join("instance-00000017");
    fs::create_dir_all(&junk).unwrap();
    fs::write(junk.join("shard-00000.shd"), b"partial garbage").unwrap();

    let reopened = LogManager::open_root(owner_key(), root.path(), cfg).unwrap();
    assert_eq!(fingerprint(&reopened), reference);
    assert!(!junk.exists(), "the half-built directory must be swept");
}

/// Copies every instance directory under `from` into `to` (recursively).
fn copy_instance_dirs(from: &Path, to: &Path) {
    fn copy_tree(from: &Path, to: &Path) {
        fs::create_dir_all(to).unwrap();
        for entry in fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            let target = to.join(entry.file_name());
            if entry.path().is_dir() {
                copy_tree(&entry.path(), &target);
            } else {
                fs::copy(entry.path(), target).unwrap();
            }
        }
    }
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &to.join(entry.file_name()));
        }
    }
}

#[test]
fn late_gc_leftovers_are_swept_not_readopted() {
    // A merge removes its inputs' directories best effort. When that
    // removal fails, a level-1 instance that a later level-2 merge already
    // consumed survives on disk, unreferenced. Reopen must sweep it like
    // any late-GC leftover rather than roll it forward as a fresh
    // consolidation, which would resurrect tuples the merge purged (batch
    // 6 deletes id 51) and inflate the instance and consolidation counts.
    let root = TempDir::new("late-gc");
    let saved = TempDir::new("late-gc-saved");
    let cfg = config(root.path());
    let manager = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg.clone());
    // s = 3: batches 0..8 leave two level-1 instances and two batches.
    ingest(&manager, 0..8);
    copy_instance_dirs(root.path(), saved.path());
    // Batch 8 cascades: level 0 merges into level 1, which merges into a
    // single level-2 instance, and every input directory is removed.
    ingest(&manager, 8..9);
    let reference = fingerprint(&manager);
    assert_eq!(reference.1, 1, "the cascade leaves one active instance");
    drop(manager);

    // The removals "failed": the consumed directories are back.
    copy_instance_dirs(saved.path(), root.path());
    assert_eq!(instance_dirs(root.path()), 5);

    let reopened = LogManager::open_root(owner_key(), root.path(), cfg).unwrap();
    assert_eq!(fingerprint(&reopened), reference);
    assert_eq!(
        instance_dirs(root.path()),
        1,
        "every leftover directory must be swept"
    );
}

#[test]
fn kill_after_a_cascades_upper_merge_rolls_it_forward() {
    // Batch 8 cascades: the level-0 merge commits and removes its inputs,
    // then the level-1 merge commits and removes its own, including the
    // level-0 merge's output. A kill before the manifest write leaves the
    // level-2 instance as the only directory under a manifest that still
    // references the removed batches and level-1 instances. Reopen must
    // roll the level-2 merge forward over both levels below it.
    let root = TempDir::new("cascade-kill");
    let cfg = config(root.path());
    let manager = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg.clone());
    ingest(&manager, 0..8);
    let stale = fs::read(root.path().join(MANAGER_MANIFEST_FILE)).unwrap();
    ingest(&manager, 8..9);
    let reference = fingerprint(&manager);
    drop(manager);
    fs::write(root.path().join(MANAGER_MANIFEST_FILE), stale).unwrap();

    let reopened = LogManager::open_root(owner_key(), root.path(), cfg).unwrap();
    let healed = fingerprint(&reopened);
    // Answers, active instances and batches match. The consolidation
    // count is not compared: the level-0 merge left no record once the
    // level-1 merge removed its directory.
    assert_eq!(healed.0, reference.0);
    assert_eq!(healed.1, reference.1);
    assert_eq!(healed.2, reference.2);
    assert_eq!(instance_dirs(root.path()), 1);
}

#[test]
fn manifest_corruption_battery_rejects_typed() {
    let root = TempDir::new("manifest-corrupt");
    let cfg = config(root.path());
    let manager = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg.clone());
    ingest(&manager, 0..2);
    drop(manager);
    let manifest_path = root.path().join(MANAGER_MANIFEST_FILE);
    let valid = fs::read(&manifest_path).unwrap();

    let open = |root: &Path| LogManager::open_root(owner_key(), root, config(root));

    // Truncated: both inside the fixed header and inside the level table.
    for cut in [10, valid.len() - 5] {
        fs::write(&manifest_path, &valid[..cut]).unwrap();
        assert!(
            matches!(open(root.path()), Err(StorageError::Truncated { .. })),
            "cut at {cut} must be rejected as truncated"
        );
    }

    // Foreign magic.
    let mut bad_magic = valid.clone();
    bad_magic[..8].copy_from_slice(b"NOTAMGRF");
    fs::write(&manifest_path, &bad_magic).unwrap();
    assert!(matches!(
        open(root.path()),
        Err(StorageError::BadMagic { .. })
    ));

    // Unsupported format version.
    let mut bad_version = valid.clone();
    bad_version[8..12].copy_from_slice(&9u32.to_le_bytes());
    fs::write(&manifest_path, &bad_version).unwrap();
    assert!(matches!(
        open(root.path()),
        Err(StorageError::UnsupportedVersion { version: 9, .. })
    ));

    // Trailing bytes after the level table.
    let mut trailing = valid.clone();
    trailing.extend_from_slice(b"junk");
    fs::write(&manifest_path, &trailing).unwrap();
    assert!(matches!(
        open(root.path()),
        Err(StorageError::CorruptDirectory { .. })
    ));

    // Level mismatch: the manifest's per-instance bookkeeping disagrees
    // with the (authenticated) instance state on disk.
    fs::write(&manifest_path, &valid).unwrap();
    let mut manifest = read_manager_manifest(root.path()).unwrap();
    manifest.levels[0][0].entry_count += 1;
    manifest.levels[0][0].inserts += 1; // keep the op sum consistent
    write_manager_manifest(root.path(), &manifest).unwrap();
    match open(root.path()) {
        Err(StorageError::CorruptDirectory { detail, .. }) => {
            assert!(detail.contains("manifest"), "unexpected detail: {detail}")
        }
        other => panic!("expected CorruptDirectory, got {:?}", other.err()),
    }

    // Scheme-kind mismatch: the same root reopened as a different scheme.
    fs::write(&manifest_path, &valid).unwrap();
    match UpdateManager::<LogSrcIScheme>::open_root(owner_key(), root.path(), config(root.path())) {
        Err(StorageError::CorruptDirectory { detail, .. }) => {
            assert!(detail.contains("scheme"), "unexpected detail: {detail}")
        }
        other => panic!("expected CorruptDirectory, got {:?}", other.err()),
    }

    // Wrong owner key: the sidecars fail authentication, nothing opens,
    // nothing is deleted.
    let dirs_before = instance_dirs(root.path());
    match LogManager::open_root(OwnerKey::from_bytes([9u8; 32]), root.path(), cfg.clone()) {
        Err(StorageError::CorruptDirectory { detail, .. }) => {
            assert!(
                detail.contains("authentication"),
                "unexpected detail: {detail}"
            )
        }
        other => panic!("expected CorruptDirectory, got {:?}", other.err()),
    }
    assert_eq!(
        instance_dirs(root.path()),
        dirs_before,
        "a wrong key must never delete anything"
    );

    // The untampered root still opens after all of the above.
    assert!(open(root.path()).is_ok());
}

#[test]
fn missing_instance_dir_without_superseding_merge_fails_typed() {
    let root = TempDir::new("missing-instance");
    let cfg = config(root.path());
    let manager = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg.clone());
    ingest(&manager, 0..2);
    drop(manager);

    // Remove a referenced instance directory outright: no committed
    // consolidation covers it, so this is genuine damage.
    let manifest = read_manager_manifest(root.path()).unwrap();
    let victim = manifest.levels[0][0].build_id;
    fs::remove_dir_all(
        root.path()
            .join(rsse::sse::ManagerManifest::instance_dir_name(victim)),
    )
    .unwrap();
    match LogManager::open_root(owner_key(), root.path(), cfg) {
        Err(StorageError::CorruptDirectory { detail, .. }) => {
            assert!(detail.contains("missing"), "unexpected detail: {detail}")
        }
        other => panic!("expected CorruptDirectory, got {:?}", other.err()),
    }
}

#[test]
fn foreign_or_stale_sidecars_are_rejected_typed() {
    let root = TempDir::new("foreign-sidecar");
    let cfg = config(root.path());
    let manager = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg.clone());
    ingest(&manager, 0..2);
    drop(manager);

    // Swap the two instances' owner sidecars: each directory now carries a
    // commit record naming the *other* build — a foreign instance.
    let manifest = read_manager_manifest(root.path()).unwrap();
    let a = root
        .path()
        .join(rsse::sse::ManagerManifest::instance_dir_name(
            manifest.levels[0][0].build_id,
        ));
    let b = root
        .path()
        .join(rsse::sse::ManagerManifest::instance_dir_name(
            manifest.levels[0][1].build_id,
        ));
    let tmp = root.path().join("swap.meta");
    fs::rename(a.join(OWNER_META_FILE), &tmp).unwrap();
    fs::rename(b.join(OWNER_META_FILE), a.join(OWNER_META_FILE)).unwrap();
    fs::rename(&tmp, b.join(OWNER_META_FILE)).unwrap();

    match LogManager::open_root(owner_key(), root.path(), cfg) {
        Err(StorageError::CorruptDirectory { detail, .. }) => {
            assert!(detail.contains("foreign"), "unexpected detail: {detail}")
        }
        other => panic!("expected CorruptDirectory, got {:?}", other.err()),
    }
}

#[test]
fn open_manager_root_stands_up_one_server_per_instance() {
    let root = TempDir::new("server-restart");
    let cfg = UpdateConfig {
        consolidation_step: 0, // keep every batch a separate instance
        ..config(root.path())
    };
    let manager = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg);
    ingest(&manager, 0..3);
    let total_entries = manager.index_stats().entries;
    drop(manager);

    // The serving side restarts from disk alone — no owner key needed.
    let servers = QueryServer::open_manager_root(root.path()).unwrap();
    assert_eq!(servers.len(), 3, "one endpoint per active instance");
    assert_eq!(
        servers.iter().map(|s| s.index().len()).sum::<usize>(),
        total_entries,
        "the reopened endpoints serve exactly the persisted entries"
    );
    for server in &servers {
        assert!(server.index().is_file_backed());
    }
}

#[test]
fn src_i_manager_reopens_through_its_two_index_layout() {
    // The SRC-i override of open_stored: both sub-indexes cold-open from
    // their subdirectories, the client re-derives from the seed.
    let root = TempDir::new("srci-reopen");
    let cfg = UpdateConfig {
        consolidation_step: 2,
        shard_bits: 0,
        storage_root: Some(root.path().to_path_buf()),
        cache_budget: None,
        build_budget: None,
        consolidation_mode: consolidation_mode(),
    };
    let manager: UpdateManager<LogSrcIScheme> =
        UpdateManager::with_key(owner_key(), Domain::new(128), cfg.clone());
    let mut rng = ChaCha20Rng::seed_from_u64(3);
    manager.ingest_batch(
        (0..20)
            .map(|i| UpdateEntry::insert(i, (i * 13) % 128))
            .collect(),
        &mut rng,
    );
    manager.ingest_batch(
        vec![UpdateEntry::delete(3, 39), UpdateEntry::insert(100, 64)],
        &mut rng,
    );
    let range = Range::new(0, 127);
    let reference = manager.try_query(range).unwrap();
    drop(manager);

    let reopened: UpdateManager<LogSrcIScheme> =
        UpdateManager::open_root(owner_key(), root.path(), cfg).unwrap();
    assert_eq!(reopened.try_query(range).unwrap(), reference);
}
