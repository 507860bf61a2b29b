//! Streaming-updates scenario: nightly batches of inserts, edits and
//! deletions over an encrypted, range-searchable dataset with forward
//! privacy (Section 7 of the paper) — plus a **process restart**: the
//! manager is dropped mid-stream and reopened from its storage root with
//! [`UpdateManager::open_root`], answering byte-identically.
//!
//! Each batch becomes a fresh static index under a fresh key; the manager
//! consolidates batches hierarchically (log-structured merge, step `s`), so
//! the number of live indexes — and therefore per-query overhead — stays
//! logarithmic in the number of batches. With a storage root configured,
//! every instance persists to its own directory next to a `manager.meta`
//! manifest and an encrypted `owner.meta` sidecar per instance, so the
//! owner's whole state survives the process (see `docs/FORMATS.md`).
//!
//! Run with:
//! ```sh
//! cargo run --release --example streaming_updates
//! ```

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse::core::schemes::log_brc_urc::LogScheme;
use rsse::prelude::*;

fn main() {
    let mut rng = ChaCha20Rng::seed_from_u64(7);
    let domain = Domain::new(1 << 16);
    let root = std::env::temp_dir().join(format!("rsse-streaming-updates-{}", std::process::id()));
    // The master key sealing the owner's durable state: with the root
    // directory, it is everything a restarted process needs.
    let key = OwnerKey::generate(&mut rng);
    let config = UpdateConfig {
        consolidation_step: 4,
        // Consolidation rebuilds go through the sharded BuildIndex: 2^4
        // label-prefix shards assemble in parallel on every merge.
        shard_bits: 4,
        // Persist every level of the merge hierarchy under one root: each
        // instance streams to its own subdirectory during the build and is
        // served from disk via paged reads.
        storage_root: Some(root.clone()),
        // Bound the resident ciphertext blocks of each persisted instance.
        cache_budget: Some(4 << 20),
        // No memory-budgeted external builds in this small demo; large
        // consolidation rebuilds would set `Some(BuildBudget::with_memory(..))`.
        build_budget: None,
        // Consolidate structurally: merged levels are assembled by copying
        // the input instances' ciphertext verbatim (no decrypt/re-encrypt);
        // schemes that can't merge structurally fall back to rebuilds.
        consolidation_mode: ConsolidationMode::Structural,
    };
    let manager: UpdateManager<LogScheme> =
        UpdateManager::with_key(key.clone(), domain, config.clone());

    println!("ingesting 20 nightly batches (consolidation step s = 4, structural merges)\n");
    println!(
        "{:<8} {:>10} {:>16} {:>14} {:>12} {:>10}",
        "night", "live ids", "active indexes", "index entries", "structural", "rebuilds"
    );

    let mut next_id: u64 = 0;
    let mut live: Vec<(u64, u64)> = Vec::new(); // (id, value) the owner knows

    for night in 1..=20u32 {
        let mut batch: Vec<UpdateEntry> = Vec::new();

        // 200 new readings per night.
        for _ in 0..200 {
            let value = rng.gen_range(0..domain.size());
            batch.push(UpdateEntry::insert(next_id, value));
            live.push((next_id, value));
            next_id += 1;
        }
        // A few corrections…
        for _ in 0..5 {
            if live.is_empty() {
                break;
            }
            let idx = rng.gen_range(0..live.len());
            let new_value = rng.gen_range(0..domain.size());
            live[idx].1 = new_value;
            batch.push(UpdateEntry::modify(live[idx].0, new_value));
        }
        // …and a few deletions.
        for _ in 0..10 {
            if live.is_empty() {
                break;
            }
            let idx = rng.gen_range(0..live.len());
            let (id, value) = live.swap_remove(idx);
            batch.push(UpdateEntry::delete(id, value));
        }

        manager.ingest_batch(batch, &mut rng);
        println!(
            "{:<8} {:>10} {:>16} {:>14} {:>12} {:>10}",
            night,
            live.len(),
            manager.active_instances(),
            manager.index_stats().entries,
            manager.structural_consolidations(),
            manager.rebuild_consolidations()
        );
    }

    // Verify a few range queries against the owner's plaintext bookkeeping.
    println!("\nverifying query results against the plaintext state:");
    let check_ranges = [(0u64, 1 << 15), (1 << 14, 3 << 14), (60_000, 65_535)];
    let mut pre_restart: Vec<QueryOutcome> = Vec::new();
    for &(lo, hi) in &check_ranges {
        let range = Range::new(lo, hi);
        let outcome = manager.query(range);
        let mut expected: Vec<u64> = live
            .iter()
            .filter(|(_, v)| range.contains(*v))
            .map(|(id, _)| *id)
            .collect();
        expected.sort_unstable();
        let mut got = outcome.ids.clone();
        got.sort_unstable();
        assert_eq!(got, expected, "range {range} disagreed with ground truth");
        println!(
            "  {range}: {} tuples, {} tokens across {} active indexes",
            expected.len(),
            outcome.stats.tokens_sent,
            manager.active_instances()
        );
        pre_restart.push(outcome);
    }

    // --- Process restart -------------------------------------------------
    // Drop the manager (the "process dies") and reopen the whole thing
    // from the storage root + master key alone: manifest, instance
    // directories and encrypted owner sidecars are all it needs. The
    // reopened manager answers byte-identically — same ids, same order,
    // same per-query stats.
    let instances_before = manager.active_instances();
    drop(manager);
    println!(
        "\nprocess restart: reopening {} instances from {}",
        instances_before,
        root.display()
    );
    let manager: UpdateManager<LogScheme> =
        UpdateManager::open_root(key, &root, config).expect("reopen from the storage root");
    assert_eq!(manager.active_instances(), instances_before);
    for (&(lo, hi), expected) in check_ranges.iter().zip(&pre_restart) {
        let outcome = manager.query(Range::new(lo, hi));
        assert_eq!(
            &outcome, expected,
            "reopened manager must answer byte-identically"
        );
    }
    println!(
        "  all {} verification queries answered byte-identically after reopen",
        check_ranges.len()
    );

    // The reopened manager keeps ingesting — night 21 lands in the same
    // merge hierarchy.
    let value = rng.gen_range(0..domain.size());
    manager.ingest_batch(vec![UpdateEntry::insert(next_id, value)], &mut rng);
    live.push((next_id, value));
    println!(
        "  night 21 ingested after the restart: {} active indexes, {} batches total",
        manager.active_instances(),
        manager.batches_ingested()
    );

    println!(
        "\nForward privacy: every batch is encrypted under its own key, so search\n\
         tokens issued before a batch existed cannot decrypt anything inside it.\n\
         Structural consolidation merges levels by copying ciphertext verbatim —\n\
         zero payload decrypt/encrypt calls on the merge path — while the owner's\n\
         sidecar compacts to the deduped latest-per-id update log.\n\
         Durability: the owner's state (seeds + update logs) persists encrypted\n\
         under the master key next to each index — kill the process at any\n\
         point and UpdateManager::open_root self-heals from the root."
    );
    let _ = std::fs::remove_dir_all(&root);
}
