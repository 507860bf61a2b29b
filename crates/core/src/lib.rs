//! Range Searchable Symmetric Encryption (RSSE).
//!
//! This crate is the primary contribution of the reproduction of *Practical
//! Private Range Search Revisited* (Demertzis, Papadopoulos, Papapetrou,
//! Deligiannakis, Garofalakis — SIGMOD 2016): a family of schemes that let
//! an untrusted server answer **range queries over encrypted data** by
//! reducing range search to single-keyword Searchable Symmetric Encryption.
//!
//! # The schemes
//!
//! | Scheme | Module | Query size | Search time | Storage | False positives |
//! |---|---|---|---|---|---|
//! | Quadratic            | [`schemes::quadratic`]   | O(1)      | O(r)        | O(n·m²)     | none |
//! | Constant-BRC/URC     | [`schemes::constant`]    | O(log R)  | O(R + r)    | O(n)        | none |
//! | Logarithmic-BRC/URC  | [`schemes::log_brc_urc`] | O(log R)  | O(log R + r)| O(n·log m)  | none |
//! | Logarithmic-SRC      | [`schemes::log_src`]     | O(1)      | O(n)        | O(n·log m)  | O(n) |
//! | Logarithmic-SRC-i    | [`schemes::log_src_i`]   | O(1)      | O(R + r)    | O(n·log m)  | O(R + r) |
//! | PB (Li et al. \[26\])  | [`schemes::pb`]          | O(log R)  | Ω(log n·log R + r) | O(n·log n·log m) | O(r) |
//! | Plain per-value SSE  | [`schemes::plain_sse`]   | O(R)      | O(R + r)    | O(n)        | none |
//!
//! (n = dataset size, m = domain size, R = query range size, r = result
//! size.) Security increases roughly downwards within the paper's family;
//! see the paper's Table 1 and `DESIGN.md` at the repository root.
//!
//! # Quick example
//!
//! ```
//! use rsse_core::{Dataset, Record, RangeScheme, schemes::log_brc_urc::LogScheme};
//! use rsse_cover::{Domain, Range};
//! use rand::SeedableRng;
//!
//! let domain = Domain::new(1 << 10);
//! let dataset = Dataset::new(
//!     domain,
//!     (0..100).map(|i| Record::new(i, (i * 7) % 1000)).collect(),
//! ).unwrap();
//!
//! let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(1);
//! let (client, server) = LogScheme::build(&dataset, &mut rng);
//! let outcome = client.query(&server, Range::new(100, 200));
//! let mut expected = dataset.matching_ids(Range::new(100, 200));
//! let mut got = outcome.ids.clone();
//! expected.sort(); got.sort();
//! assert_eq!(got, expected);
//! ```

#![deny(missing_docs)]

pub mod dataset;
pub mod leakage;
pub mod metrics;
pub mod schemes;
pub mod server;
pub mod store;
pub mod traits;

pub use dataset::{Dataset, DatasetError, DocId, Record};
pub use metrics::{Evaluation, IndexStats, QueryStats};
pub use server::QueryServer;
pub use traits::{QueryOutcome, RangeScheme};

// Storage-backend selection and errors surface through `RangeScheme::
// build_stored` and the persistence entry points, so re-export them here.
pub use rsse_sse::{BuildBudget, StorageBackend, StorageConfig, StorageError};
