//! Deterministic fault injection: the chaos harness behind the resilience
//! tests and benches.
//!
//! PR 4 introduced a storage wrapper that failed probes after a countdown,
//! and PR 5 sprinkled `inject_read_faults` /
//! `inject_transient_read_faults` convenience hooks over every server type
//! that owns a [`ShardedIndex`] — seven hand-rolled copies of the same two
//! lines. This module replaces all of that with one shared vocabulary:
//!
//! * [`FaultPlan`] — a small declarative DSL describing *when* probes fail:
//!   a seeded per-probe fault rate, periodic burst windows, per-shard
//!   targeting, permanently dead shards, bounded per-shard outages, probe
//!   latency, and the two legacy countdown shapes (`dead_after`,
//!   `transient_window`) kept semantics-identical to the PR 4/5 hooks;
//! * [`FaultInjector`] — the shared runtime state of one plan: a global
//!   probe counter (shared across every shard of every injected index, and
//!   across clones) plus the countdowns, making every decision a pure
//!   function of `(seed, probe_index, shard)` — **fully deterministic** for
//!   a sequentially probing caller, and result-stable under parallel
//!   callers whose retries absorb rate faults;
//! * [`FaultInjectable`] — the one trait every index-owning server type
//!   implements (one line: return the indexes) to inherit the whole
//!   injection surface, instead of re-implementing the hooks.
//!
//! Failures surface as [`StorageError::Io`] at the synthetic path
//! [`FAULT_PATH`] — exactly what a real failed block read produces, so
//! everything downstream (typed error propagation, retry layers, circuit
//! breakers) exercises its production path. A production index never has
//! an injector attached; this is test/bench support that
//! ships in the library only because downstream crates' integration tests
//! and the bench harness need to reach it.

use crate::sharded::ShardedIndex;
use crate::storage::StorageError;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The synthetic path reported by injected failures.
pub const FAULT_PATH: &str = "<injected-fault>";

/// Callback invoked instead of a real `thread::sleep` when the plan injects
/// probe latency — lets a virtual clock absorb injected delays so latency /
/// deadline tests run deterministically in microseconds of wall time.
pub type DelayHook = Arc<dyn Fn(Duration) + Send + Sync>;

/// SplitMix64 finalizer (the same mixer the vendored `rand` uses for
/// `seed_from_u64`): decorrelates consecutive probe indexes into
/// independent-looking 64-bit hashes.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A declarative description of *which dictionary probes fail and how* —
/// the input to [`FaultInjector`]. All clauses compose: a probe fails if
/// **any** failing clause matches it (dead shard, outage window, countdown
/// window, or the seeded rate draw inside the targeting/burst gates).
///
/// # Examples
///
/// ```
/// use rsse_sse::FaultPlan;
/// use std::time::Duration;
///
/// // 10% of probes fail, decided by seed 7, everywhere.
/// let plan = FaultPlan::seeded(7).fault_rate(0.10);
///
/// // Shard 3 is dead; every other probe also waits 1ms and fails in
/// // bursts of 4 out of every 64 probes at 50% probability.
/// let chaos = FaultPlan::seeded(9)
///     .dead_shard(3)
///     .latency(Duration::from_millis(1))
///     .burst(64, 4)
///     .fault_rate(0.5);
/// # let _ = (plan, chaos);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed decorrelating the per-probe fault-rate draws.
    seed: u64,
    /// Per-probe failure probability in `[0, 1]`, drawn deterministically
    /// from `(seed, probe_index)`.
    fault_rate: f64,
    /// `(period, len)`: when set, rate faults only fire on probes whose
    /// index satisfies `index % period < len` — correlated failure bursts.
    burst: Option<(u64, u64)>,
    /// When set, rate/burst faults only target these shards.
    target_shards: Option<Vec<u32>>,
    /// Shards that fail **every** probe — permanently dead disks.
    dead_shards: Vec<u32>,
    /// `(shard, from, until)`: the shard fails probes with global index in
    /// `from..until` — a bounded outage that later heals.
    outages: Vec<(u32, u64, u64)>,
    /// Injected latency per probe (absorbed by the [`DelayHook`] if one is
    /// installed, otherwise a real `thread::sleep`).
    latency: Option<Duration>,
    /// Legacy countdown window: `(successful_probes, failing_probes)`;
    /// `failing_probes == None` fails forever once the countdown expires.
    countdown: Option<(u64, Option<u64>)>,
}

impl FaultPlan {
    /// A plan whose probabilistic draws are decided by `seed` (no faults
    /// until clauses are added).
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// The PR 4 hook's shape: the first `successful_probes` probes succeed,
    /// every later one fails — a disk that dies mid-search.
    pub fn dead_after(successful_probes: u64) -> Self {
        Self {
            countdown: Some((successful_probes, None)),
            ..Self::default()
        }
    }

    /// The PR 5 hook's shape: after `successful_probes` probes, exactly
    /// `failing_probes` fail, then the storage recovers — a transient blip
    /// a retry is meant to absorb.
    pub fn transient_window(successful_probes: u64, failing_probes: u64) -> Self {
        Self {
            countdown: Some((successful_probes, Some(failing_probes))),
            ..Self::default()
        }
    }

    /// Sets the per-probe failure probability (clamped to `[0, 1]`), drawn
    /// deterministically from `(seed, probe_index)`.
    pub fn fault_rate(mut self, rate: f64) -> Self {
        self.fault_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Restricts rate faults to periodic bursts: only probes with
    /// `index % period < len` are eligible to fail.
    pub fn burst(mut self, period: u64, len: u64) -> Self {
        self.burst = Some((period.max(1), len));
        self
    }

    /// Restricts rate/burst faults to the given shards (other shards stay
    /// healthy unless dead or in an outage).
    pub fn target_shards(mut self, shards: impl Into<Vec<u32>>) -> Self {
        self.target_shards = Some(shards.into());
        self
    }

    /// Marks a shard permanently dead: every probe of it fails.
    pub fn dead_shard(mut self, shard: u32) -> Self {
        self.dead_shards.push(shard);
        self
    }

    /// Adds a bounded outage: the shard fails probes whose global index is
    /// in `from..until`, then heals.
    pub fn shard_outage(mut self, shard: u32, from: u64, until: u64) -> Self {
        self.outages.push((shard, from, until));
        self
    }

    /// Injects this much latency into every probe (see [`DelayHook`]).
    pub fn latency(mut self, delay: Duration) -> Self {
        self.latency = Some(delay);
        self
    }
}

/// The shared runtime of one [`FaultPlan`]: a global probe counter plus the
/// legacy countdown state, consulted before every probe of any shard of any
/// index the plan was injected into (and of clones of them).
///
/// Exposes its counters so tests can assert how much chaos actually
/// happened — e.g. "the retry layer absorbed exactly `faults_injected()`
/// transient faults".
pub struct FaultInjector {
    plan: FaultPlan,
    /// Global probe index: one per `decide` call, across all injected shards.
    probes: AtomicU64,
    /// Remaining successful probes of the legacy countdown (negative once
    /// in the failing window). `i64::MAX` when no countdown is configured.
    countdown: AtomicI64,
    /// Whether the countdown window fails forever once expired (the
    /// `dead_after` shape); otherwise `failures_left` bounds it.
    dead_forever: bool,
    /// Remaining failing probes once the countdown expired (transient
    /// window only).
    failures_left: AtomicI64,
    /// Total probes this injector failed.
    faults: AtomicU64,
    /// Latency sink (virtual clock) — `None` falls back to `thread::sleep`.
    delay: Option<DelayHook>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("probes", &self.probes.load(Ordering::Relaxed))
            .field("faults", &self.faults.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl FaultInjector {
    /// Builds the runtime state for a plan (no delay hook: injected latency
    /// really sleeps).
    pub fn new(plan: FaultPlan) -> Self {
        Self::with_delay_hook(plan, None)
    }

    /// Builds the runtime state with an optional [`DelayHook`] absorbing
    /// injected latency (virtual-clock tests).
    pub fn with_delay_hook(plan: FaultPlan, delay: Option<DelayHook>) -> Self {
        let (countdown, dead_forever, failures_left) = match plan.countdown {
            Some((successes, failing)) => (
                i64::try_from(successes).unwrap_or(i64::MAX),
                failing.is_none(),
                failing.map_or(0, |n| i64::try_from(n).unwrap_or(i64::MAX)),
            ),
            None => (i64::MAX, false, 0),
        };
        Self {
            plan,
            probes: AtomicU64::new(0),
            countdown: AtomicI64::new(countdown),
            dead_forever,
            failures_left: AtomicI64::new(failures_left),
            faults: AtomicU64::new(0),
            delay,
        }
    }

    /// Number of probes decided so far (across all injected shards).
    pub fn probes_issued(&self) -> u64 {
        self.probes.load(Ordering::SeqCst)
    }

    /// Number of probes failed so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults.load(Ordering::SeqCst)
    }

    /// Decides the fate of the next probe against shard `shard`: applies
    /// injected latency, then either passes the probe through (`Ok`) or
    /// fails it with the synthetic typed I/O error.
    pub fn decide(&self, shard: u32) -> Result<(), StorageError> {
        let probe = self.probes.fetch_add(1, Ordering::SeqCst);
        if let Some(delay) = self.plan.latency {
            match &self.delay {
                Some(hook) => hook(delay),
                None => std::thread::sleep(delay),
            }
        }
        if self.probe_fails(probe, shard) {
            self.faults.fetch_add(1, Ordering::SeqCst);
            return Err(StorageError::Io {
                path: PathBuf::from(FAULT_PATH),
                error: io::Error::other("injected block-read fault"),
            });
        }
        Ok(())
    }

    /// Whether probe number `probe` against `shard` fails under the plan.
    fn probe_fails(&self, probe: u64, shard: u32) -> bool {
        let plan = &self.plan;
        // Legacy countdown window (shared across shards, like PR 4/5).
        if plan.countdown.is_some()
            && self.countdown.fetch_sub(1, Ordering::SeqCst) <= 0
            && (self.dead_forever || self.failures_left.fetch_sub(1, Ordering::SeqCst) > 0)
        {
            return true;
        }
        if plan.dead_shards.contains(&shard) {
            return true;
        }
        if plan
            .outages
            .iter()
            .any(|&(s, from, until)| s == shard && (from..until).contains(&probe))
        {
            return true;
        }
        // Rate faults, gated by shard targeting and burst windows.
        if plan.fault_rate <= 0.0 {
            return false;
        }
        if let Some(targets) = &plan.target_shards {
            if !targets.contains(&shard) {
                return false;
            }
        }
        if let Some((period, len)) = plan.burst {
            if probe % period >= len {
                return false;
            }
        }
        let draw = splitmix64(plan.seed ^ probe.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let threshold = (plan.fault_rate * u64::MAX as f64) as u64;
        draw <= threshold
    }
}

/// Everything that owns one or more [`ShardedIndex`]es and wants the fault
/// injection surface: implement [`fault_indexes`](Self::fault_indexes) (one
/// line) and the provided methods do the rest — one shared
/// [`FaultInjector`] guards every shard of every returned index, so probe
/// counting is global across them (multi-index servers like
/// Logarithmic-SRC-i count both indexes' probes on one clock).
///
/// The two legacy hooks ([`inject_read_faults`](Self::inject_read_faults),
/// [`inject_transient_read_faults`](Self::inject_transient_read_faults))
/// keep their PR 4/5 semantics; new tests should speak [`FaultPlan`].
pub trait FaultInjectable {
    /// The indexes faults should be injected into.
    fn fault_indexes(&mut self) -> Vec<&mut ShardedIndex>;

    /// Attaches an already-built injector to every
    /// [`fault_indexes`](Self::fault_indexes) index (for reading its
    /// counters, or for sharing one injector across servers).
    fn inject_fault_injector(&mut self, injector: &Arc<FaultInjector>) {
        for index in self.fault_indexes() {
            index.attach_fault_injector(injector);
        }
    }

    /// Injects a [`FaultPlan`] and returns its [`FaultInjector`] for
    /// counter inspection. Injected latency really sleeps; use
    /// [`inject_fault_plan_with_delay`](Self::inject_fault_plan_with_delay)
    /// to route it into a virtual clock instead.
    fn inject_fault_plan(&mut self, plan: FaultPlan) -> Arc<FaultInjector> {
        let injector = Arc::new(FaultInjector::new(plan));
        self.inject_fault_injector(&injector);
        injector
    }

    /// Like [`inject_fault_plan`](Self::inject_fault_plan), but injected
    /// latency is delivered to `delay` instead of sleeping.
    fn inject_fault_plan_with_delay(
        &mut self,
        plan: FaultPlan,
        delay: DelayHook,
    ) -> Arc<FaultInjector> {
        let injector = Arc::new(FaultInjector::with_delay_hook(plan, Some(delay)));
        self.inject_fault_injector(&injector);
        injector
    }

    /// Legacy hook: every probe after the first `successful_probes` fails —
    /// a disk that dies mid-search ([`FaultPlan::dead_after`]).
    fn inject_read_faults(&mut self, successful_probes: u64) {
        self.inject_fault_plan(FaultPlan::dead_after(successful_probes));
    }

    /// Legacy hook: after `successful_probes` probes, exactly
    /// `failing_probes` fail, then the storage recovers
    /// ([`FaultPlan::transient_window`]).
    fn inject_transient_read_faults(&mut self, successful_probes: u64, failing_probes: u64) {
        self.inject_fault_plan(FaultPlan::transient_window(
            successful_probes,
            failing_probes,
        ));
    }
}

impl FaultInjectable for ShardedIndex {
    fn fault_indexes(&mut self) -> Vec<&mut ShardedIndex> {
        vec![self]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_after_matches_legacy_countdown_semantics() {
        let injector = FaultInjector::new(FaultPlan::dead_after(3));
        for _ in 0..3 {
            assert!(injector.decide(0).is_ok());
        }
        for _ in 0..20 {
            assert!(injector.decide(0).is_err(), "dead forever after countdown");
        }
        assert_eq!(injector.probes_issued(), 23);
        assert_eq!(injector.faults_injected(), 20);
    }

    #[test]
    fn transient_window_recovers_after_exact_failures() {
        let injector = FaultInjector::new(FaultPlan::transient_window(2, 3));
        assert!(injector.decide(0).is_ok());
        assert!(injector.decide(1).is_ok());
        for _ in 0..3 {
            assert!(injector.decide(0).is_err());
        }
        for _ in 0..10 {
            assert!(injector.decide(0).is_ok(), "storage must recover");
        }
        assert_eq!(injector.faults_injected(), 3);
    }

    #[test]
    fn fault_rate_is_deterministic_and_roughly_calibrated() {
        let run = |seed: u64| -> Vec<bool> {
            let injector = FaultInjector::new(FaultPlan::seeded(seed).fault_rate(0.10));
            (0..4000).map(|_| injector.decide(0).is_err()).collect()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed, same probe sequence, same decisions");
        let faults = a.iter().filter(|&&f| f).count();
        assert!(
            (200..=600).contains(&faults),
            "10% of 4000 probes should fail within a loose band, got {faults}"
        );
        let c = run(8);
        assert_ne!(a, c, "different seeds must draw differently");
    }

    #[test]
    fn rate_extremes_fail_never_and_always() {
        let never = FaultInjector::new(FaultPlan::seeded(1).fault_rate(0.0));
        let always = FaultInjector::new(FaultPlan::seeded(1).fault_rate(1.0));
        for _ in 0..256 {
            assert!(never.decide(0).is_ok());
            assert!(always.decide(0).is_err());
        }
    }

    #[test]
    fn dead_shard_and_targeting_are_shard_scoped() {
        let injector = FaultInjector::new(
            FaultPlan::seeded(3)
                .dead_shard(2)
                .fault_rate(1.0)
                .target_shards(vec![5]),
        );
        for _ in 0..32 {
            assert!(injector.decide(2).is_err(), "dead shard always fails");
            assert!(injector.decide(5).is_err(), "targeted shard draws at 100%");
            assert!(injector.decide(0).is_ok(), "untargeted shard stays healthy");
        }
    }

    #[test]
    fn outage_window_heals() {
        let injector = FaultInjector::new(FaultPlan::seeded(0).shard_outage(1, 2, 5));
        // Global probe indexes 0..8, all against shard 1: indexes 2,3,4 fail.
        let fates: Vec<bool> = (0..8).map(|_| injector.decide(1).is_err()).collect();
        assert_eq!(
            fates,
            vec![false, false, true, true, true, false, false, false]
        );
        // Other shards never fail, even inside the window.
        let other = FaultInjector::new(FaultPlan::seeded(0).shard_outage(1, 0, 100));
        for _ in 0..8 {
            assert!(other.decide(0).is_ok());
        }
    }

    #[test]
    fn burst_gates_rate_faults_to_window() {
        let injector = FaultInjector::new(FaultPlan::seeded(4).fault_rate(1.0).burst(8, 2));
        let fates: Vec<bool> = (0..16).map(|_| injector.decide(0).is_err()).collect();
        let expected: Vec<bool> = (0..16u64).map(|p| p % 8 < 2).collect();
        assert_eq!(fates, expected);
    }

    #[test]
    fn latency_routes_through_the_delay_hook() {
        use std::sync::Mutex;
        let slept = Arc::new(Mutex::new(Duration::ZERO));
        let sink = Arc::clone(&slept);
        let hook: DelayHook = Arc::new(move |d| *sink.lock().unwrap() += d);
        let injector = FaultInjector::with_delay_hook(
            FaultPlan::seeded(0).latency(Duration::from_millis(250)),
            Some(hook),
        );
        for _ in 0..4 {
            injector.decide(0).unwrap();
        }
        assert_eq!(*slept.lock().unwrap(), Duration::from_secs(1));
    }
}
