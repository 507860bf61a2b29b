//! Seeded inputs. Every dataset, query list and insert schedule is a pure
//! function of `--seed` and is generated here, not by the library's own
//! generators, so a change to the program can never change what it is fed.

/// Attribute domain of every workload: 2^20 values.
pub const DOMAIN_SIZE: u64 = 1 << 20;
/// Label-prefix shard bits of every index: 2^4 shards.
pub const SHARD_BITS: u32 = 4;
/// A 1%-of-domain range.
const ONE_PERCENT: u64 = DOMAIN_SIZE / 100;
/// Tenants issuing `read_hot` queries.
const HOT_TENANTS: u64 = 8;
/// Hotspots the `read_hot` queries concentrate on.
const HOT_SPOTS: usize = 8;
/// Zipf skew over the hotspots.
const HOT_SKEW: f64 = 0.9;

/// Independent generator streams derived from one seed.
#[derive(Clone, Copy)]
pub enum Stream {
    Records = 1,
    HotQueries = 2,
    ColdQueries = 3,
    Inserts = 4,
    FixedQueries = 5,
    Keys = 6,
}

/// SplitMix64: small, seedable and identical on every toolchain.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64, stream: Stream) -> Self {
        let mut rng = Self(seed ^ (stream as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-high; the bias is below 2^-40 here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The 32-byte seed of the ChaCha20 stream that draws index and owner keys.
pub fn key_seed(seed: u64) -> [u8; 32] {
    let mut rng = SplitMix::new(seed, Stream::Keys);
    let mut out = [0u8; 32];
    for chunk in out.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    out
}

/// FNV-1a over 64-bit words: the printed digest of each generated input.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One range query: `[lo, hi]`, tagged with the tenant that sent it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Query {
    pub tenant: u32,
    pub lo: u64,
    pub hi: u64,
}

/// A Gowalla-like dataset: `n` records with ids `0..n` and near-uniform
/// values over the domain (check-in timestamps, ~95% distinct).
pub fn records(seed: u64, n: u64) -> Vec<(u64, u64)> {
    let mut rng = SplitMix::new(seed, Stream::Records);
    (0..n).map(|id| (id, rng.below(DOMAIN_SIZE))).collect()
}

/// `read_hot` queries: 1%-of-domain ranges from 8 tenants, centred on one
/// of 8 random hotspots chosen Zipf(0.9), jittered by up to one range
/// length so repeated hits overlap without being identical.
pub fn hot_queries(seed: u64, count: usize) -> Vec<Query> {
    let mut rng = SplitMix::new(seed, Stream::HotQueries);
    let centres: Vec<u64> = (0..HOT_SPOTS).map(|_| rng.below(DOMAIN_SIZE)).collect();
    let weights: Vec<f64> = (0..HOT_SPOTS)
        .map(|rank| 1.0 / ((rank + 1) as f64).powf(HOT_SKEW))
        .collect();
    let total: f64 = weights.iter().sum();
    (0..count)
        .map(|_| {
            let tenant = rng.below(HOT_TENANTS) as u32;
            let mut pick = rng.unit() * total;
            let mut spot = HOT_SPOTS - 1;
            for (rank, weight) in weights.iter().enumerate() {
                if pick < *weight {
                    spot = rank;
                    break;
                }
                pick -= weight;
            }
            let jitter = rng.below(ONE_PERCENT + 1);
            let lo = (centres[spot] + jitter)
                .saturating_sub(ONE_PERCENT)
                .min(DOMAIN_SIZE - ONE_PERCENT);
            Query {
                tenant,
                lo,
                hi: lo + ONE_PERCENT - 1,
            }
        })
        .collect()
}

/// Uniform ranges whose width is `min_width..=max_width` values.
fn uniform_queries(mut rng: SplitMix, count: usize, min_width: u64, max_width: u64) -> Vec<Query> {
    (0..count)
        .map(|_| {
            let width = min_width + rng.below(max_width - min_width + 1);
            let lo = rng.below(DOMAIN_SIZE - width + 1);
            Query {
                tenant: 0,
                lo,
                hi: lo + width - 1,
            }
        })
        .collect()
}

/// `read_cold` queries: uniform positions, widths 1–2% of the domain.
pub fn cold_queries(seed: u64, count: usize) -> Vec<Query> {
    let rng = SplitMix::new(seed, Stream::ColdQueries);
    uniform_queries(rng, count, ONE_PERCENT, 2 * ONE_PERCENT)
}

/// `ingest_read` reader queries and the post-reopen check set: uniform
/// 1% ranges.
pub fn fixed_width_queries(seed: u64, count: usize, stream: Stream) -> Vec<Query> {
    uniform_queries(SplitMix::new(seed, stream), count, ONE_PERCENT, ONE_PERCENT)
}

/// `batches` insert batches of `size` fresh records each, with ids from
/// `first_id` upwards and uniform values.
pub fn insert_batches(seed: u64, batches: usize, size: u64, first_id: u64) -> Vec<Vec<(u64, u64)>> {
    let mut rng = SplitMix::new(seed, Stream::Inserts);
    (0..batches as u64)
        .map(|b| {
            (0..size)
                .map(|i| (first_id + b * size + i, rng.below(DOMAIN_SIZE)))
                .collect()
        })
        .collect()
}

pub fn digest_records<'a>(batches: impl IntoIterator<Item = &'a [(u64, u64)]>) -> String {
    let mut digest = Digest::new();
    for batch in batches {
        digest.word(batch.len() as u64);
        for &(id, value) in batch {
            digest.word(id);
            digest.word(value);
        }
    }
    digest.hex()
}

pub fn digest_queries(queries: &[Query]) -> String {
    let mut digest = Digest::new();
    for query in queries {
        digest.word(query.tenant as u64);
        digest.word(query.lo);
        digest.word(query.hi);
    }
    digest.hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        assert_eq!(records(3, 100), records(3, 100));
        assert_ne!(records(3, 100), records(4, 100));
        assert_eq!(hot_queries(3, 50), hot_queries(3, 50));
        assert_eq!(cold_queries(3, 50), cold_queries(3, 50));
        assert_eq!(insert_batches(3, 2, 5, 10), insert_batches(3, 2, 5, 10));
    }

    #[test]
    fn queries_lie_in_the_domain_with_their_widths() {
        for q in hot_queries(9, 2000) {
            assert!(q.hi < DOMAIN_SIZE && q.hi - q.lo + 1 == ONE_PERCENT);
            assert!((q.tenant as u64) < HOT_TENANTS);
        }
        for q in cold_queries(9, 2000) {
            let width = q.hi - q.lo + 1;
            assert!(q.hi < DOMAIN_SIZE && (ONE_PERCENT..=2 * ONE_PERCENT).contains(&width));
        }
    }

    #[test]
    fn hot_queries_concentrate_on_few_hotspots() {
        let queries = hot_queries(5, 4000);
        let mut starts: Vec<u64> = queries.iter().map(|q| q.lo / (4 * ONE_PERCENT)).collect();
        starts.sort_unstable();
        starts.dedup();
        assert!(
            starts.len() <= 3 * HOT_SPOTS,
            "{} distinct regions",
            starts.len()
        );
    }
}
