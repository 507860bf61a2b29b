//! Scheme-level guarantees of the external-memory build pipeline.
//!
//! The byte-level property (any budget, any backend → bit-identical shard
//! files) is proved per-entry-stream inside `rsse-sse`; this battery checks
//! the contract end to end through the range schemes and the update
//! manager:
//!
//! * every budget-honoring scheme, built externally on disk, produces an
//!   index directory byte-identical to its in-RAM build;
//! * the in-memory backend answers queries identically either way, and the
//!   default budget writes the in-RAM build's bytes;
//! * a build killed inside a spill crash window leaves debris that the
//!   restarted build heals — without touching foreign files — and
//!   converges byte-identically;
//! * an update manager with a `build_budget` consolidates through the
//!   external path and stays byte-identical to an unbudgeted manager.

use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse::core::{BuildBudget, StorageConfig};
use rsse::prelude::*;
use rsse::sse::external::{kill_at, ExternalKillPoint, SPILL_DIR};
use rsse::sse::test_support::TempDir;
use std::fs;
use std::path::Path;

/// The schemes whose stored builds honor `StorageConfig::build_budget`
/// (Quadratic, PB and the plain-SSE baseline fall through to in-RAM).
const BUDGETED: [SchemeKind; 6] = [
    SchemeKind::ConstantBrc,
    SchemeKind::ConstantUrc,
    SchemeKind::LogarithmicBrc,
    SchemeKind::LogarithmicUrc,
    SchemeKind::LogarithmicSrc,
    SchemeKind::LogarithmicSrcI,
];

/// A budget small enough that every test build spills multiple runs
/// (the run size floors at `BuildBudget`'s minimum of 512 entries).
fn tiny_budget() -> BuildBudget {
    BuildBudget::with_memory(1)
}

/// Byte compare of two directory trees (SRC-i nests its two indexes in
/// `i1`/`i2` subdirectories).
fn trees_equal(a: &Path, b: &Path) -> bool {
    let list = |dir: &Path| -> Vec<(String, bool)> {
        let mut names: Vec<(String, bool)> = fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().into_string().unwrap(),
                    e.file_type().unwrap().is_dir(),
                )
            })
            .collect();
        names.sort();
        names
    };
    let names = list(a);
    if names != list(b) {
        return false;
    }
    names.iter().all(|(name, is_dir)| {
        if *is_dir {
            trees_equal(&a.join(name), &b.join(name))
        } else {
            fs::read(a.join(name)).unwrap() == fs::read(b.join(name)).unwrap()
        }
    })
}

/// For every budget-honoring scheme and several seeds: the external build
/// writes an on-disk index directory byte-identical to the in-RAM build.
#[test]
fn external_disk_builds_are_byte_identical_across_schemes() {
    for seed in [1u64, 7] {
        let mut data_rng = ChaCha20Rng::seed_from_u64(seed);
        let dataset = gowalla_like(700, 1 << 10, &mut data_rng);
        for kind in BUDGETED {
            let ref_dir = TempDir::new("ext-ref");
            let ext_dir = TempDir::new("ext-new");
            AnyScheme::build_stored(
                kind,
                &dataset,
                &StorageConfig::on_disk(2, ref_dir.path()),
                &mut ChaCha20Rng::seed_from_u64(seed ^ 0xb17),
            )
            .unwrap();
            AnyScheme::build_stored(
                kind,
                &dataset,
                &StorageConfig::on_disk(2, ext_dir.path()).with_build_budget(tiny_budget()),
                &mut ChaCha20Rng::seed_from_u64(seed ^ 0xb17),
            )
            .unwrap();
            assert!(
                trees_equal(ref_dir.path(), ext_dir.path()),
                "{} external build diverged from the in-RAM bytes (seed {seed})",
                kind.name()
            );
        }
    }
}

/// The in-memory backend: external and in-RAM builds answer every query
/// identically, including false-positive sets (same index bytes ⇒ same
/// server walk).
#[test]
fn external_in_memory_builds_answer_identically() {
    let mut data_rng = ChaCha20Rng::seed_from_u64(5);
    let dataset = gowalla_like(600, 1 << 10, &mut data_rng);
    let spill_root = TempDir::new("ext-mem-spill");
    let queries = [
        Range::new(0, (1 << 10) - 1),
        Range::new(100, 400),
        Range::point(777),
    ];
    for kind in BUDGETED {
        let reference = AnyScheme::build_stored(
            kind,
            &dataset,
            &StorageConfig::in_memory(1),
            &mut ChaCha20Rng::seed_from_u64(13),
        )
        .unwrap();
        let external = AnyScheme::build_stored(
            kind,
            &dataset,
            &StorageConfig::in_memory(1)
                .with_build_budget(tiny_budget().with_spill_root(spill_root.path())),
            &mut ChaCha20Rng::seed_from_u64(13),
        )
        .unwrap();
        for query in queries {
            assert_eq!(
                reference.query(query).ids,
                external.query(query).ids,
                "{} diverged on {query}",
                kind.name()
            );
        }
    }
    // Every spill directory was swept on success.
    assert_eq!(spill_root.subdir_count(), 0);
}

/// The default budget (what a caller gets from
/// `with_build_budget(BuildBudget::default())`) writes the same bytes as
/// the unbudgeted in-RAM `build_stored`.
#[test]
fn default_budget_build_is_byte_identical_to_in_ram() {
    use rsse::core::schemes::log_brc_urc::LogScheme;
    let mut data_rng = ChaCha20Rng::seed_from_u64(21);
    let dataset = gowalla_like(300, 1 << 9, &mut data_rng);
    let in_ram = TempDir::new("ext-default-a");
    let budgeted = TempDir::new("ext-default-b");
    LogScheme::build_stored(
        &dataset,
        &StorageConfig::on_disk(1, in_ram.path()),
        &mut ChaCha20Rng::seed_from_u64(3),
    )
    .unwrap();
    LogScheme::build_stored(
        &dataset,
        &StorageConfig::on_disk(1, budgeted.path()).with_build_budget(BuildBudget::default()),
        &mut ChaCha20Rng::seed_from_u64(3),
    )
    .unwrap();
    assert!(trees_equal(in_ram.path(), budgeted.path()));
}

/// A scheme build killed in each spill crash window: the debris never
/// includes foreign files being deleted, and the restarted build converges
/// byte-identically to an uninterrupted one.
#[test]
fn killed_scheme_build_heals_and_converges() {
    let mut data_rng = ChaCha20Rng::seed_from_u64(17);
    let dataset = gowalla_like(700, 1 << 10, &mut data_rng);
    let reference = TempDir::new("ext-kill-ref");
    AnyScheme::build_stored(
        SchemeKind::LogarithmicBrc,
        &dataset,
        &StorageConfig::on_disk(2, reference.path()).with_build_budget(tiny_budget()),
        &mut ChaCha20Rng::seed_from_u64(2),
    )
    .unwrap();

    for point in [
        ExternalKillPoint::MidSpill,
        ExternalKillPoint::AfterSpill,
        ExternalKillPoint::MidShardWrite,
    ] {
        let dir = TempDir::new("ext-kill");
        let spill = dir.path().join(SPILL_DIR);
        fs::create_dir_all(&spill).unwrap();
        let foreign = spill.join("operator-notes.txt");
        fs::write(&foreign, b"keep me").unwrap();

        kill_at(Some(point));
        assert!(
            AnyScheme::build_stored(
                SchemeKind::LogarithmicBrc,
                &dataset,
                &StorageConfig::on_disk(2, dir.path()).with_build_budget(tiny_budget()),
                &mut ChaCha20Rng::seed_from_u64(2),
            )
            .is_err(),
            "{point:?}: armed kill point must abort the build"
        );
        assert!(spill.exists(), "{point:?}: crash must leave debris");
        assert_eq!(fs::read(&foreign).unwrap(), b"keep me");

        kill_at(None);
        AnyScheme::build_stored(
            SchemeKind::LogarithmicBrc,
            &dataset,
            &StorageConfig::on_disk(2, dir.path()).with_build_budget(tiny_budget()),
            &mut ChaCha20Rng::seed_from_u64(2),
        )
        .unwrap();
        assert_eq!(fs::read(&foreign).unwrap(), b"keep me");
        fs::remove_file(&foreign).unwrap();
        fs::remove_dir(&spill).unwrap();
        assert!(
            trees_equal(reference.path(), dir.path()),
            "{point:?}: restarted build diverged"
        );
    }
}

/// Update managers with and without a `build_budget`, fed the same batches
/// from the same seed: consolidation rebuilds route through the external
/// pipeline on the budgeted manager, and every persisted instance directory
/// stays byte-identical to the unbudgeted manager's.
#[test]
fn budgeted_manager_consolidations_stay_byte_identical() {
    use rsse::core::schemes::log_brc_urc::LogScheme;
    let domain = Domain::new(1 << 10);
    let key = OwnerKey::from_bytes([3u8; 32]);
    let root_plain = TempDir::new("mgr-plain");
    let root_budget = TempDir::new("mgr-budget");
    let config = |root: &Path, budget: Option<BuildBudget>| UpdateConfig {
        consolidation_step: 2,
        shard_bits: 1,
        storage_root: Some(root.to_path_buf()),
        cache_budget: None,
        build_budget: budget,
        consolidation_mode: rsse::updates::ConsolidationMode::default(),
    };
    let drive = |cfg: UpdateConfig| -> UpdateManager<LogScheme> {
        let manager = UpdateManager::with_key(key.clone(), domain, cfg);
        let mut rng = ChaCha20Rng::seed_from_u64(31);
        for batch in 0..6u64 {
            let entries: Vec<UpdateEntry> = (0..40u64)
                .map(|i| UpdateEntry::insert(batch * 100 + i, (batch * 131 + i * 7) % (1 << 10)))
                .collect();
            manager.ingest_batch(entries, &mut rng);
        }
        manager
    };
    let plain = drive(config(root_plain.path(), None));
    // memory_bytes = 1 makes every consolidation's estimated working set
    // exceed the budget, so each rebuild goes through the external path.
    let budgeted = drive(config(root_budget.path(), Some(tiny_budget())));

    for query in [Range::new(0, 1023), Range::new(50, 300)] {
        assert_eq!(plain.query(query).ids, budgeted.query(query).ids);
    }
    assert!(
        trees_equal(root_plain.path(), root_budget.path()),
        "budgeted manager's persisted instances diverged"
    );
}
