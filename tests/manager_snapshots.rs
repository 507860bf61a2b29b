//! Reads during writes: the update manager's queries pin a published
//! snapshot, so they never wait for an ingest and never see one half done.
//!
//! * Reader threads query in a loop while a writer ingests batches through
//!   several consolidations, one of them cascading. Every answer must be
//!   the ground truth of the committed state just before or just after
//!   the ingest in flight.
//! * A query that starts while a consolidation has already removed its
//!   inputs' directories, but has not yet published the merged state,
//!   must still answer exactly from the pinned instances.
//!
//! Storage backend: in-memory by default, on disk with a small block-cache
//! budget under `RSSE_TEST_STORAGE=on_disk`. Consolidation strategy:
//! rebuild by default, structural merge under
//! `RSSE_TEST_CONSOLIDATE=structural`.

use rand::{CryptoRng, RngCore, SeedableRng};
use rand_chacha::ChaCha20Rng;
use rsse::core::schemes::log_brc_urc::LogScheme;
use rsse::prelude::*;
use rsse::sse::storage::read_manager_manifest;
use rsse::sse::test_support::TempDir;
use rsse::sse::ManagerManifest;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::Duration;

type LogManager = UpdateManager<LogScheme>;

const DOMAIN: u64 = 1 << 10;

fn owner_key() -> OwnerKey {
    OwnerKey::from_bytes([23u8; 32])
}

fn on_disk_lane() -> bool {
    matches!(std::env::var("RSSE_TEST_STORAGE").as_deref(), Ok("on_disk"))
}

fn consolidation_mode() -> ConsolidationMode {
    match std::env::var("RSSE_TEST_CONSOLIDATE").as_deref() {
        Ok("structural") => ConsolidationMode::Structural,
        _ => ConsolidationMode::Rebuild,
    }
}

/// Step 3, so batch 2, 5, 8, … close a level-0 group and batch 8 also
/// cascades the three level-1 instances into one at level 2.
fn config(root: Option<&Path>, mode: ConsolidationMode) -> UpdateConfig {
    UpdateConfig {
        consolidation_step: 3,
        shard_bits: 2,
        storage_root: root.map(Path::to_path_buf),
        cache_budget: root.map(|_| 32 << 10),
        build_budget: None,
        consolidation_mode: mode,
    }
}

/// A deterministic mixed batch (inserts, a modify, a delete) for batch `b`.
fn batch_entries(b: u64) -> Vec<UpdateEntry> {
    let mut entries: Vec<UpdateEntry> = (0..8u64)
        .map(|i| UpdateEntry::insert(b * 10 + i, (b * 97 + i * 13) % DOMAIN))
        .collect();
    if b > 0 {
        entries.push(UpdateEntry::modify((b - 1) * 10, (b * 53) % DOMAIN));
        entries.push(UpdateEntry::delete(
            (b - 1) * 10 + 1,
            ((b - 1) * 97 + 13) % DOMAIN,
        ));
    }
    entries
}

fn batch_rng(b: u64) -> ChaCha20Rng {
    ChaCha20Rng::seed_from_u64(3_000 + b)
}

fn query_mix() -> Vec<Range> {
    vec![
        Range::new(0, DOMAIN - 1),
        Range::new(10, 200),
        Range::new(500, 800),
    ]
}

fn sorted(mut ids: Vec<DocId>) -> Vec<DocId> {
    ids.sort_unstable();
    ids
}

/// The sorted ground truth of every range in the mix.
fn truth_of(manager: &LogManager) -> Vec<Vec<DocId>> {
    query_mix()
        .into_iter()
        .map(|range| sorted(manager.ground_truth(range)))
        .collect()
}

/// The sorted answers to every range in the mix.
fn answers_of(manager: &LogManager) -> Vec<Vec<DocId>> {
    query_mix()
        .into_iter()
        .map(|range| sorted(manager.try_query(range).expect("query serves").ids))
        .collect()
}

/// One reader query: which range, how many ingests had returned when it
/// started and when it ended, and its sorted answer.
struct Observation {
    range: usize,
    before: usize,
    after: usize,
    ids: Vec<DocId>,
}

#[test]
fn readers_see_a_committed_state_while_the_writer_consolidates() {
    const BATCHES: usize = 12;
    const READERS: usize = 2;
    let root = TempDir::new("snapshots-live");
    let cfg = config(on_disk_lane().then(|| root.path()), consolidation_mode());
    let manager = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg);
    // truths[k]: the ground truth once k ingests have returned.
    let truths = Mutex::new(vec![truth_of(&manager)]);
    let committed = AtomicUsize::new(0);
    let finished_queries = AtomicUsize::new(0);
    let done = AtomicBool::new(false);

    let observations: Vec<Observation> = thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut seen = Vec::new();
                    while !done.load(SeqCst) {
                        for (range_index, range) in query_mix().into_iter().enumerate() {
                            let before = committed.load(SeqCst);
                            let outcome = manager.try_query(range).expect("query serves");
                            let after = committed.load(SeqCst);
                            seen.push(Observation {
                                range: range_index,
                                before,
                                after,
                                ids: sorted(outcome.ids),
                            });
                            finished_queries.fetch_add(1, SeqCst);
                        }
                    }
                    seen
                })
            })
            .collect();
        for b in 0..BATCHES {
            // Let every committed state be read: with at most READERS
            // queries in flight when the last ingest returned, one more
            // finished query must have started after it.
            let target = finished_queries.load(SeqCst) + READERS + 1;
            while finished_queries.load(SeqCst) < target {
                thread::yield_now();
            }
            manager.ingest_batch(batch_entries(b as u64), &mut batch_rng(b as u64));
            truths.lock().unwrap().push(truth_of(&manager));
            committed.store(b + 1, SeqCst);
        }
        done.store(true, SeqCst);
        readers
            .into_iter()
            .flat_map(|reader| reader.join().expect("reader panicked"))
            .collect()
    });

    // Four level-0 merges plus the cascade at batch 8.
    assert_eq!(manager.consolidations(), 5);
    let truths = truths.into_inner().unwrap();
    let mut overlapped = 0;
    for observation in &observations {
        // The pinned snapshot is at least the state committed when the
        // query started and at most one ingest past the state committed
        // when it ended.
        let newest = (observation.after + 1).min(BATCHES);
        assert!(
            (observation.before..=newest).any(|k| truths[k][observation.range] == observation.ids),
            "range {} answered {:?}, matching no committed state in {}..={newest}",
            observation.range,
            observation.ids,
            observation.before
        );
        if observation.after > observation.before {
            overlapped += 1;
        }
    }
    // The final state is read below, after the readers stopped.
    for k in 0..BATCHES {
        assert!(
            observations.iter().any(|o| o.before == k),
            "no query started while {k} ingests were committed"
        );
    }
    assert!(overlapped > 0, "no query overlapped an ingest");
    assert_eq!(answers_of(&manager), truths[BATCHES]);
}

/// Wraps the ingest RNG and parks the writer inside its `pause_at`-th
/// `fill_bytes`. The manager draws one build seed per rebuild (the batch,
/// then each consolidation), so pausing on a cascade's second
/// consolidation seed holds the writer after the first merge removed its
/// inputs' directories and before anything is published.
struct PausingRng {
    inner: ChaCha20Rng,
    draws: usize,
    pause_at: usize,
    parked: mpsc::Sender<()>,
    release: mpsc::Receiver<()>,
}

impl RngCore for PausingRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.draws += 1;
        if self.draws == self.pause_at {
            self.parked.send(()).expect("test waits for the pause");
            self.release.recv().expect("test releases the writer");
        }
        self.inner.fill_bytes(dest)
    }
}

impl CryptoRng for PausingRng {}

#[test]
fn a_query_pinned_before_a_merge_reads_the_removed_directories() {
    // Always on disk (the point is reading instances whose directories
    // are gone) and always rebuilding: a structural merge draws no seed,
    // so the writer could not be paused mid-cascade. Structural merges
    // remove their inputs' directories through the same code.
    let root = TempDir::new("snapshots-gc");
    let cfg = config(Some(root.path()), ConsolidationMode::Rebuild);
    let manager = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg);
    for b in 0..8 {
        manager.ingest_batch(batch_entries(b), &mut batch_rng(b));
    }
    // Two level-1 instances and two batches; nothing queried yet, so no
    // block of the batches is cached.
    assert_eq!(manager.active_instances(), 4);
    let before = truth_of(&manager);
    let batch_dirs: Vec<_> = read_manager_manifest(root.path()).unwrap().levels[0]
        .iter()
        .map(|instance| {
            root.path()
                .join(ManagerManifest::instance_dir_name(instance.build_id))
        })
        .collect();
    assert_eq!(batch_dirs.len(), 2);

    let (parked_tx, parked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let mut rng = PausingRng {
        inner: batch_rng(8),
        draws: 0,
        // Batch seed, level-0 merge seed, then the cascade's level-1 one.
        pause_at: 3,
        parked: parked_tx,
        release: release_rx,
    };
    thread::scope(|scope| {
        // Owned by this closure, so a failed assertion below drops it and
        // unparks the writer instead of leaving the scope waiting on it.
        let release = release_tx;
        let writer = scope.spawn(|| manager.ingest_batch(batch_entries(8), &mut rng));
        parked_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("the writer pauses inside the cascade");
        for dir in &batch_dirs {
            assert!(!dir.exists(), "{} was not removed yet", dir.display());
        }
        // The query pins the last published snapshot: the two batches
        // whose directories are gone still answer, exactly.
        assert_eq!(manager.active_instances(), 4);
        assert_eq!(answers_of(&manager), before);
        assert_eq!(truth_of(&manager), before);
        release.send(()).unwrap();
        writer.join().expect("writer panicked");
    });
    assert_eq!(manager.active_instances(), 1);
    assert_eq!(answers_of(&manager), truth_of(&manager));
    assert_ne!(truth_of(&manager), before);
}
