//! Supervised background resynthesis: deadlines, retry with backoff, a
//! circuit breaker, and panic isolation.
//!
//! Synthesis itself is one greedy pass over the format: at most about 2 µs
//! per plan on the paper's formats, linear in key length (EXPERIMENTS.md,
//! "Synthesis cost"). What the supervisor guards against is a synthesis
//! runner that hangs, panics or errors: that must never happen on a
//! serving thread. [`ResynthSupervisor`] therefore turns resynthesis into
//! a supervised background activity:
//!
//! * degradation **enqueues** a [`SynthRequest`] instead of synthesizing
//!   inline;
//! * each attempt runs under `catch_unwind` with a cooperative deadline
//!   ([`CancelToken`], threaded through
//!   [`crate::synth::synthesize_with_cancel`]);
//! * failures retry with capped exponential backoff plus deterministic
//!   jitter ([`BackoffPolicy`]);
//! * after a configured number of consecutive failures a per-tag circuit
//!   breaker opens and the container settles on its guarded fallback;
//! * a completed plan is surfaced as a [`ReadyPlan`] for the container to
//!   apply through its atomic migration-epoch machinery, and results whose
//!   reservoir snapshot generation is stale are discarded at apply time.
//!
//! The supervisor is **polled**: it owns no timer thread. Every transition
//! happens inside [`ResynthSupervisor::pump`], driven by a caller-supplied
//! "now" from an injectable [`Clock`] — with a [`MockClock`] the whole
//! state machine (backoff schedule, deadline expiry, breaker
//! open/half-open/close) replays deterministically, which is what the
//! `sepe-verify --suite supervisor` harness asserts.

use crate::hash::{SynthError, SynthesizedHash};
use crate::pattern::KeyPattern;
use crate::synth::Family;
use crate::Isa;
use sepe_obs::{EventTrace, ObsEvent, TransitionKind};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

/// Bound on retained transcript events. Far above what any chaos run
/// produces, but a hard ceiling: a supervisor pumped for months cannot
/// grow its transcript without bound. Overflow is counted, not silent
/// (see [`ResynthSupervisor::transcript_dropped`]).
const TRANSCRIPT_CAPACITY: usize = 1 << 16;

/// Bound on retained synthesis-search events ([`ObsEvent::SynthSearch`]).
const SEARCH_TRACE_CAPACITY: usize = 4096;

/// A monotonic millisecond clock the supervisor reads time from.
///
/// Production uses [`SystemClock`]; tests use [`MockClock`] so every
/// deadline and backoff edge is exact.
pub trait Clock: Send + Sync {
    /// Milliseconds since an arbitrary (per-clock) origin. Must be
    /// monotone non-decreasing.
    fn now_ms(&self) -> u64;
}

/// Wall-clock milliseconds measured from the instant the clock was built.
#[derive(Debug)]
pub struct SystemClock {
    origin: std::time::Instant,
}

impl SystemClock {
    /// A clock whose origin is "now".
    #[must_use]
    pub fn new() -> Self {
        SystemClock {
            origin: std::time::Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now_ms(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

/// A hand-cranked clock for deterministic tests: time only moves when the
/// test calls [`MockClock::advance`] or [`MockClock::set`].
#[derive(Debug, Clone, Default)]
pub struct MockClock {
    now: Arc<AtomicU64>,
}

impl MockClock {
    /// A clock starting at zero.
    #[must_use]
    pub fn new() -> Self {
        MockClock::default()
    }

    /// Moves time forward by `ms`.
    pub fn advance(&self, ms: u64) {
        self.now.fetch_add(ms, Ordering::Relaxed);
    }

    /// Jumps time to an absolute value (must not go backwards in tests
    /// that care about monotonicity).
    pub fn set(&self, ms: u64) {
        self.now.store(ms, Ordering::Relaxed);
    }
}

impl Clock for MockClock {
    fn now_ms(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

/// Synthesis was cancelled — the job's deadline expired or the supervisor
/// revoked it. Converted into [`SynthError::Cancelled`] at the API edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthCancelled;

/// How often, in calls, [`CancelToken::check`] consults the clock. The
/// cancelled flag itself is read on every check; only the (potentially
/// syscall-backed) deadline comparison is amortized.
const DEADLINE_CHECK_STRIDE: u64 = 64;

#[derive(Debug)]
struct TokenInner {
    cancelled: AtomicBool,
    /// Absolute deadline in clock milliseconds; `u64::MAX` means none.
    deadline_ms: u64,
    calls: AtomicU64,
}

/// A cooperative, budget-checked cancellation token threaded through the
/// synthesis loops.
///
/// Cancellation has two sources: an explicit [`CancelToken::cancel`] (the
/// supervisor timing the attempt out) and the token's own deadline, checked
/// against the injected clock every [`DEADLINE_CHECK_STRIDE`] calls so the
/// common case costs one relaxed load.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
    clock: Arc<dyn Clock>,
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.inner.cancelled.load(Ordering::Relaxed))
            .field("deadline_ms", &self.inner.deadline_ms)
            .finish()
    }
}

impl CancelToken {
    /// A token that can only be cancelled explicitly (no deadline).
    #[must_use]
    pub fn unbounded() -> Self {
        CancelToken::with_deadline(Arc::new(MockClock::new()), u64::MAX)
    }

    /// A token that cancels itself once `clock` passes `deadline_ms`.
    #[must_use]
    pub fn with_deadline(clock: Arc<dyn Clock>, deadline_ms: u64) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline_ms,
                calls: AtomicU64::new(0),
            }),
            clock,
        }
    }

    /// Requests cancellation; every clone observes it.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested or the deadline has passed.
    /// Always consults the clock (no amortization) — use from slow paths.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if self.clock.now_ms() >= self.inner.deadline_ms {
            self.inner.cancelled.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// The cooperative checkpoint synthesis loops call once per unit of
    /// work. Cheap: one relaxed flag load, plus a clock read every
    /// [`DEADLINE_CHECK_STRIDE`] calls.
    ///
    /// # Errors
    ///
    /// Returns [`SynthCancelled`] once the token is cancelled or past its
    /// deadline.
    #[inline]
    pub fn check(&self) -> Result<(), SynthCancelled> {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return Err(SynthCancelled);
        }
        if self.inner.deadline_ms != u64::MAX {
            let n = self.inner.calls.fetch_add(1, Ordering::Relaxed);
            if n.is_multiple_of(DEADLINE_CHECK_STRIDE)
                && self.clock.now_ms() >= self.inner.deadline_ms
            {
                self.inner.cancelled.store(true, Ordering::Relaxed);
                return Err(SynthCancelled);
            }
        }
        Ok(())
    }
}

/// Capped exponential backoff with deterministic jitter.
///
/// The delay before retry `attempt` (zero-based: the delay after the
/// first failure is `delay(0, …)`) is `min(cap_ms, base_ms << attempt)`
/// plus a splitmix-derived jitter of up to a quarter of that, keyed by
/// `(tag, attempt, seed)` — the schedule is fully reproducible from the
/// seed but different tags do not retry in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay after the first failure, in milliseconds.
    pub base_ms: u64,
    /// Upper bound on the un-jittered delay.
    pub cap_ms: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base_ms: 50,
            cap_ms: 5_000,
        }
    }
}

/// The splitmix64 finalizer, used as the deterministic jitter source.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl BackoffPolicy {
    /// The delay, in milliseconds, before retry number `attempt`
    /// (zero-based), jittered deterministically from `tag` and `seed`.
    #[must_use]
    pub fn delay_ms(&self, attempt: u32, tag: u64, seed: u64) -> u64 {
        let shifted = self
            .base_ms
            .checked_shl(attempt.min(32))
            .unwrap_or(self.cap_ms);
        let body = shifted.min(self.cap_ms);
        let jitter_span = body / 4;
        if jitter_span == 0 {
            return body;
        }
        let j = splitmix(seed ^ tag.rotate_left(17) ^ u64::from(attempt));
        body + j % (jitter_span + 1)
    }
}

/// Tunables of one supervisor: attempt deadline, retry schedule, and the
/// circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Budget for one synthesis attempt, in clock milliseconds.
    pub deadline_ms: u64,
    /// Retry schedule after failed attempts.
    pub backoff: BackoffPolicy,
    /// Consecutive failures (per tag) that open the circuit breaker.
    pub breaker_failures: u32,
    /// How long an open breaker waits before letting one half-open probe
    /// through. `None` keeps the breaker open permanently: the container
    /// settles on its guarded fallback for good.
    pub breaker_cooldown_ms: Option<u64>,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            deadline_ms: 1_000,
            backoff: BackoffPolicy::default(),
            breaker_failures: 3,
            breaker_cooldown_ms: Some(30_000),
            seed: 0x5E9E,
        }
    }
}

/// One enqueued resynthesis job: everything needed to rebuild the
/// specialized hash off-thread, plus the reservoir generation the widened
/// pattern was snapshotted at (the staleness ticket).
#[derive(Debug, Clone)]
pub struct SynthRequest {
    /// Caller-chosen identity of the hasher being resynthesized (a shard
    /// index, for the sharded containers). Breaker state is per tag.
    pub tag: u64,
    /// The reservoir-widened pattern to synthesize for.
    pub widened: KeyPattern,
    /// Hash family to synthesize.
    pub family: Family,
    /// Instruction-set restriction to preserve.
    pub isa: Isa,
    /// Seed to preserve.
    pub seed: u64,
    /// Reservoir generation at snapshot time; apply-time discard ticket.
    pub snapshot_generation: u64,
}

/// A successfully synthesized (and validated) replacement hash, ready for
/// the container to apply via its migration-epoch machinery.
#[derive(Debug, Clone)]
pub struct ReadyPlan {
    /// Tag of the request this plan answers.
    pub tag: u64,
    /// The replacement specialized hash.
    pub hash: SynthesizedHash,
    /// The widened pattern the hash was synthesized for.
    pub widened: KeyPattern,
    /// Staleness ticket carried over from the request.
    pub snapshot_generation: u64,
    /// Attempts it took (1 = first try).
    pub attempts: u32,
}

/// The pluggable synthesis function the supervisor runs. The default
/// ([`default_runner`]) performs real cancellable synthesis plus plan
/// validation; the chaos harness substitutes runners that hang, panic,
/// error, or return invalid plans.
pub type SynthRunner =
    Arc<dyn Fn(&SynthRequest, &CancelToken) -> Result<SynthesizedHash, SynthError> + Send + Sync>;

/// The production runner: cancellable synthesis for the widened pattern,
/// preserving family/ISA/seed, with the resulting plan validated before it
/// is declared ready — a runner bug (or an injected fault) that produces
/// an out-of-bounds or mask-inconsistent plan is a typed failure, never an
/// installed hash.
#[must_use]
pub fn default_runner() -> SynthRunner {
    default_runner_with_trace(None)
}

/// [`default_runner`], recording an [`ObsEvent::SynthSearch`] per
/// successful synthesis (nodes expanded, candidates rejected, wall-clock
/// time to plan) into `trace` when instrumentation is compiled in.
#[must_use]
pub fn default_runner_with_trace(trace: Option<Arc<EventTrace<ObsEvent>>>) -> SynthRunner {
    Arc::new(move |req, token| {
        let t0 = std::time::Instant::now();
        let (plan, stats) = crate::synth::synthesize_with_cancel(&req.widened, req.family, token)?;
        let time_to_plan_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        crate::plan_io::validate_plan(&plan)?;
        if sepe_obs::enabled() {
            if let Some(trace) = &trace {
                trace.push(ObsEvent::SynthSearch {
                    nodes_expanded: stats.nodes_expanded,
                    candidates_rejected: stats.candidates_rejected,
                    time_to_plan_ns,
                });
            }
        }
        Ok(SynthesizedHash::new(plan, req.family, req.isa).with_seed(req.seed))
    })
}

/// How attempts execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Each attempt runs on a fresh worker thread; a hung attempt is
    /// detached once its deadline expires, so [`ResynthSupervisor::pump`]
    /// never blocks on synthesis. This is the production mode.
    #[default]
    Thread,
    /// Attempts run synchronously inside `pump`, still under
    /// `catch_unwind` and still deadline-checked through the token.
    /// Deterministic — transcript-replay tests use this mode (a hanging
    /// runner must be cooperative: it observes the token and returns).
    Inline,
}

/// One supervisor state transition, recorded for replay-equality tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transition {
    /// A request was accepted for `tag`.
    Enqueued,
    /// An attempt (1-based) started.
    Started(u32),
    /// The attempt produced a valid hash.
    Succeeded(u32),
    /// The attempt returned a typed error (rendered, so transcripts are
    /// comparable).
    Failed(u32, String),
    /// The attempt's deadline expired before it finished.
    TimedOut(u32),
    /// The attempt panicked and was caught.
    Panicked(u32),
    /// A retry was scheduled for `at_ms`.
    BackoffScheduled(u32, u64),
    /// The per-tag breaker opened after consecutive failures.
    BreakerOpened(u32),
    /// The breaker let a half-open probe through.
    BreakerHalfOpen,
    /// The probe succeeded; the breaker closed.
    BreakerClosed,
    /// A request arrived while the breaker was open and was refused.
    Rejected,
}

impl Transition {
    /// The payload-free [`TransitionKind`] of this transition — the label
    /// its per-kind metric counter is registered under.
    #[must_use]
    pub fn kind(&self) -> TransitionKind {
        match self {
            Transition::Enqueued => TransitionKind::Enqueued,
            Transition::Started(_) => TransitionKind::Started,
            Transition::Succeeded(_) => TransitionKind::Succeeded,
            Transition::Failed(..) => TransitionKind::Failed,
            Transition::TimedOut(_) => TransitionKind::TimedOut,
            Transition::Panicked(_) => TransitionKind::Panicked,
            Transition::BackoffScheduled(..) => TransitionKind::BackoffScheduled,
            Transition::BreakerOpened(_) => TransitionKind::BreakerOpened,
            Transition::BreakerHalfOpen => TransitionKind::BreakerHalfOpen,
            Transition::BreakerClosed => TransitionKind::BreakerClosed,
            Transition::Rejected => TransitionKind::Rejected,
        }
    }
}

/// A timestamped, tagged transcript entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Clock time of the transition.
    pub at_ms: u64,
    /// Tag the transition belongs to.
    pub tag: u64,
    /// What happened.
    pub transition: Transition,
}

/// Result of offering a request to the supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    /// The job was accepted and will run at the next pump.
    Accepted,
    /// A job for this tag is already pending, running, or backing off;
    /// the new request was coalesced into nothing.
    Coalesced,
    /// The tag's circuit breaker is open; the request was refused.
    BreakerOpen,
}

/// What one synthesis attempt came back with.
enum AttemptOutcome {
    Ok(SynthesizedHash),
    Err(SynthError),
    Panicked,
}

/// A running attempt: the channel its worker reports on plus bookkeeping.
struct Running {
    rx: mpsc::Receiver<AttemptOutcome>,
    token: CancelToken,
    deadline_ms: u64,
    /// `None` in inline mode (the attempt already completed inside pump).
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Per-tag breaker state. `failures` counts *consecutive* failures; any
/// success resets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breaker {
    Closed { failures: u32 },
    Open { since_ms: u64 },
    HalfOpen,
}

/// Job state for one tag.
enum JobState {
    Idle,
    Pending { attempt: u32 },
    Running { attempt: u32, running: Running },
    Backoff { attempt: u32, until_ms: u64 },
}

struct TagState {
    job: JobState,
    breaker: Breaker,
    request: Option<SynthRequest>,
}

impl TagState {
    fn new() -> Self {
        TagState {
            job: JobState::Idle,
            breaker: Breaker::Closed { failures: 0 },
            request: None,
        }
    }
}

/// The resynthesis supervisor: a polled state machine that runs synthesis
/// attempts off the serving path, retries them with backoff, and trips a
/// per-tag circuit breaker.
///
/// # Examples
///
/// ```
/// use sepe_core::regex::Regex;
/// use sepe_core::supervisor::{
///     MockClock, ResynthSupervisor, SupervisorConfig, SynthRequest,
/// };
/// use sepe_core::synth::Family;
/// use sepe_core::Isa;
/// use std::sync::Arc;
///
/// let clock = Arc::new(MockClock::new());
/// let mut sup = ResynthSupervisor::new(SupervisorConfig::default(), clock.clone());
/// let widened = Regex::compile(r"[0-9x]{8}")?;
/// sup.enqueue(SynthRequest {
///     tag: 0,
///     widened,
///     family: Family::OffXor,
///     isa: Isa::Native,
///     seed: 0,
///     snapshot_generation: 0,
/// });
/// sup.pump();
/// # let mut spins = 0;
/// while sup.take_ready().is_empty() {
///     clock.advance(1);
///     sup.pump();
/// #   spins += 1;
/// #   assert!(spins < 10_000, "synthesis should complete");
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ResynthSupervisor {
    config: SupervisorConfig,
    clock: Arc<dyn Clock>,
    runner: SynthRunner,
    exec: ExecMode,
    tags: BTreeMap<u64, TagState>,
    ready: Vec<ReadyPlan>,
    /// Bounded transcript ring (shared so metric exports can read its
    /// drop accounting without holding the supervisor).
    transcript: Arc<EventTrace<Event>>,
    /// Per-[`TransitionKind`] counters, bumped alongside every recorded
    /// transition.
    transitions: Arc<TransitionCounters>,
    /// Synthesis search telemetry recorded by the production runner.
    search_trace: Arc<EventTrace<ObsEvent>>,
}

/// One saturating counter per [`TransitionKind`].
#[derive(Debug, Default)]
struct TransitionCounters {
    counts: [sepe_obs::Counter; TransitionKind::COUNT],
}

impl std::fmt::Debug for ResynthSupervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResynthSupervisor")
            .field("config", &self.config)
            .field("tags", &self.tags.len())
            .field("ready", &self.ready.len())
            .field("transcript", &self.transcript.len())
            .finish()
    }
}

impl ResynthSupervisor {
    /// A supervisor with the production runner and threaded execution.
    #[must_use]
    pub fn new(config: SupervisorConfig, clock: Arc<dyn Clock>) -> Self {
        let search_trace = Arc::new(EventTrace::new(SEARCH_TRACE_CAPACITY));
        let runner = default_runner_with_trace(Some(search_trace.clone()));
        let mut sup = ResynthSupervisor::with_runner(config, clock, runner, ExecMode::Thread);
        sup.search_trace = search_trace;
        sup
    }

    /// A supervisor with a custom runner and execution mode — the chaos
    /// and replay harnesses build themselves with this. The search trace
    /// stays empty unless the runner was built with
    /// [`default_runner_with_trace`] over
    /// [`ResynthSupervisor::search_events`]' backing trace.
    #[must_use]
    pub fn with_runner(
        config: SupervisorConfig,
        clock: Arc<dyn Clock>,
        runner: SynthRunner,
        exec: ExecMode,
    ) -> Self {
        ResynthSupervisor {
            config,
            clock,
            runner,
            exec,
            tags: BTreeMap::new(),
            ready: Vec::new(),
            transcript: Arc::new(EventTrace::new(TRANSCRIPT_CAPACITY)),
            transitions: Arc::new(TransitionCounters::default()),
            search_trace: Arc::new(EventTrace::new(SEARCH_TRACE_CAPACITY)),
        }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &SupervisorConfig {
        &self.config
    }

    fn record(&mut self, tag: u64, transition: Transition) {
        let at_ms = self.clock.now_ms();
        self.transitions.counts[transition.kind().index()].inc();
        self.transcript.push(Event {
            at_ms,
            tag,
            transition,
        });
    }

    /// Offers a resynthesis job. Jobs coalesce per tag (a tag has at most
    /// one job in flight) and are refused while the tag's breaker is open.
    pub fn enqueue(&mut self, request: SynthRequest) -> Enqueue {
        let tag = request.tag;
        let now = self.clock.now_ms();
        let state = self.tags.entry(tag).or_insert_with(TagState::new);
        // An open breaker lets one probe through after its cooldown.
        if let Breaker::Open { since_ms } = state.breaker {
            match self.config.breaker_cooldown_ms {
                Some(cooldown) if now >= since_ms.saturating_add(cooldown) => {
                    state.breaker = Breaker::HalfOpen;
                    self.record(tag, Transition::BreakerHalfOpen);
                }
                _ => {
                    self.record(tag, Transition::Rejected);
                    return Enqueue::BreakerOpen;
                }
            }
        }
        let state = self.tags.get_mut(&tag).expect("tag state exists");
        if !matches!(state.job, JobState::Idle) {
            return Enqueue::Coalesced;
        }
        state.request = Some(request);
        state.job = JobState::Pending { attempt: 1 };
        self.record(tag, Transition::Enqueued);
        Enqueue::Accepted
    }

    /// Whether `tag`'s breaker is currently open (cooldown not elapsed).
    #[must_use]
    pub fn breaker_open(&self, tag: u64) -> bool {
        matches!(
            self.tags.get(&tag).map(|s| s.breaker),
            Some(Breaker::Open { .. })
        )
    }

    /// Tags with a job pending, running, or backing off.
    #[must_use]
    pub fn active_jobs(&self) -> usize {
        self.tags
            .values()
            .filter(|s| !matches!(s.job, JobState::Idle))
            .count()
    }

    /// Completed plans accumulated since the last call. The caller applies
    /// them (or discards stale ones) through the container's epoch swap.
    pub fn take_ready(&mut self) -> Vec<ReadyPlan> {
        std::mem::take(&mut self.ready)
    }

    /// The retained transition transcript (timestamped, tagged, oldest
    /// first), for replay-equality assertions. Backed by a bounded ring:
    /// past [`TRANSCRIPT_CAPACITY`] events the newest are dropped and
    /// counted in [`ResynthSupervisor::transcript_dropped`].
    #[must_use]
    pub fn transcript(&self) -> Vec<Event> {
        self.transcript.snapshot()
    }

    /// Transcript events rejected because the ring was full.
    #[must_use]
    pub fn transcript_dropped(&self) -> u64 {
        self.transcript.dropped()
    }

    /// Lifetime count of transitions recorded for `kind` (unaffected by
    /// transcript-ring overflow).
    #[must_use]
    pub fn transition_count(&self, kind: TransitionKind) -> u64 {
        self.transitions.counts[kind.index()].get()
    }

    /// Synthesis search telemetry ([`ObsEvent::SynthSearch`]) recorded by
    /// the production runner, oldest first. Empty for custom runners not
    /// built with [`default_runner_with_trace`], and in `obs`-off builds.
    #[must_use]
    pub fn search_events(&self) -> Vec<ObsEvent> {
        self.search_trace.snapshot()
    }

    /// Exports the supervisor's metric families into `registry`:
    /// `supervisor_transitions{kind=...}` per [`TransitionKind`], plus
    /// transcript ring accounting (`supervisor_transcript_events`,
    /// `supervisor_transcript_dropped`) and the search-event count.
    /// Values are read live at snapshot time.
    ///
    /// # Errors
    ///
    /// Propagates [`sepe_obs::RegistryError`] on duplicate registration.
    pub fn export_metrics(
        &self,
        registry: &sepe_obs::Registry,
    ) -> Result<(), sepe_obs::RegistryError> {
        for kind in TransitionKind::ALL {
            let counts = self.transitions.clone();
            registry.export_counter(
                "supervisor_transitions",
                &[("kind", kind.name())],
                move || counts.counts[kind.index()].get(),
            )?;
        }
        let transcript = self.transcript.clone();
        registry.export_counter("supervisor_transcript_events", &[], move || {
            transcript.pushed()
        })?;
        let transcript = self.transcript.clone();
        registry.export_counter("supervisor_transcript_dropped", &[], move || {
            transcript.dropped()
        })?;
        let search = self.search_trace.clone();
        registry.export_counter("supervisor_search_events", &[], move || search.pushed())?;
        Ok(())
    }

    /// Drives every tag's state machine one step against the current clock
    /// reading: starts pending attempts, reaps or times out running ones,
    /// releases elapsed backoffs, and trips breakers. Never blocks on
    /// synthesis (a hung threaded attempt is detached at its deadline; an
    /// inline attempt must be cooperative).
    pub fn pump(&mut self) {
        let now = self.clock.now_ms();
        let tags: Vec<u64> = self.tags.keys().copied().collect();
        for tag in tags {
            self.pump_tag(tag, now);
        }
    }

    fn pump_tag(&mut self, tag: u64, now: u64) {
        let Some(state) = self.tags.get_mut(&tag) else {
            return;
        };
        match std::mem::replace(&mut state.job, JobState::Idle) {
            JobState::Idle => {}
            JobState::Backoff { attempt, until_ms } => {
                if now >= until_ms {
                    state.job = JobState::Pending { attempt };
                    // Fall through to start the retry in this same pump.
                    self.start_attempt(tag, now);
                } else {
                    state.job = JobState::Backoff { attempt, until_ms };
                }
            }
            JobState::Pending { attempt } => {
                state.job = JobState::Pending { attempt };
                self.start_attempt(tag, now);
            }
            JobState::Running { attempt, running } => {
                self.poll_running(tag, now, attempt, running);
            }
        }
    }

    /// Starts the pending attempt for `tag` (which must be `Pending`).
    fn start_attempt(&mut self, tag: u64, now: u64) {
        let state = self.tags.get_mut(&tag).expect("tag state exists");
        let JobState::Pending { attempt } = state.job else {
            return;
        };
        let Some(request) = state.request.clone() else {
            state.job = JobState::Idle;
            return;
        };
        let deadline_ms = now.saturating_add(self.config.deadline_ms);
        let token = CancelToken::with_deadline(Arc::clone(&self.clock), deadline_ms);
        self.record(tag, Transition::Started(attempt));
        let (tx, rx) = mpsc::channel();
        let runner = Arc::clone(&self.runner);
        let run = {
            let token = token.clone();
            move || {
                let outcome = match catch_unwind(AssertUnwindSafe(|| runner(&request, &token))) {
                    Ok(Ok(hash)) => AttemptOutcome::Ok(hash),
                    Ok(Err(e)) => AttemptOutcome::Err(e),
                    Err(_) => AttemptOutcome::Panicked,
                };
                // The supervisor may have detached (deadline passed and the
                // receiver dropped); a dead channel is fine.
                let _ = tx.send(outcome);
            }
        };
        let handle = match self.exec {
            ExecMode::Inline => {
                run();
                None
            }
            ExecMode::Thread => Some(
                std::thread::Builder::new()
                    .name(format!("sepe-resynth-{tag}"))
                    .spawn(run)
                    .expect("spawn resynthesis worker"),
            ),
        };
        let running = Running {
            rx,
            token,
            deadline_ms,
            handle,
        };
        let state = self.tags.get_mut(&tag).expect("tag state exists");
        state.job = JobState::Running { attempt, running };
        // Inline attempts finish immediately; reap them in the same pump.
        if self.exec == ExecMode::Inline {
            self.pump_tag(tag, now);
        }
    }

    /// Reaps a finished attempt, or times it out past its deadline.
    fn poll_running(&mut self, tag: u64, now: u64, attempt: u32, running: Running) {
        match running.rx.try_recv() {
            Ok(AttemptOutcome::Ok(hash)) => {
                if let Some(h) = running.handle {
                    let _ = h.join();
                }
                self.record(tag, Transition::Succeeded(attempt));
                let state = self.tags.get_mut(&tag).expect("tag state exists");
                let request = state.request.take().expect("running job has a request");
                state.job = JobState::Idle;
                let was_half_open = state.breaker == Breaker::HalfOpen;
                state.breaker = Breaker::Closed { failures: 0 };
                if was_half_open {
                    self.record(tag, Transition::BreakerClosed);
                }
                self.ready.push(ReadyPlan {
                    tag,
                    hash,
                    widened: request.widened,
                    snapshot_generation: request.snapshot_generation,
                    attempts: attempt,
                });
            }
            Ok(AttemptOutcome::Err(e)) => {
                if let Some(h) = running.handle {
                    let _ = h.join();
                }
                self.record(tag, Transition::Failed(attempt, e.to_string()));
                self.fail_attempt(tag, now, attempt);
            }
            Ok(AttemptOutcome::Panicked) => {
                if let Some(h) = running.handle {
                    let _ = h.join();
                }
                self.record(tag, Transition::Panicked(attempt));
                self.fail_attempt(tag, now, attempt);
            }
            Err(mpsc::TryRecvError::Empty) => {
                if now >= running.deadline_ms {
                    // Cancel cooperatively and *detach*: dropping the
                    // receiver and the handle lets a cooperative worker
                    // exit on its next token check, and a truly wedged one
                    // can never block the pump.
                    running.token.cancel();
                    drop(running);
                    self.record(tag, Transition::TimedOut(attempt));
                    self.fail_attempt(tag, now, attempt);
                } else {
                    let state = self.tags.get_mut(&tag).expect("tag state exists");
                    state.job = JobState::Running { attempt, running };
                }
            }
            Err(mpsc::TryRecvError::Disconnected) => {
                // The worker died without reporting (should be unreachable:
                // catch_unwind converts panics into a send). Count it as a
                // panic-shaped failure rather than losing the job.
                self.record(tag, Transition::Panicked(attempt));
                self.fail_attempt(tag, now, attempt);
            }
        }
    }

    /// Books one failed attempt: trips the breaker at the threshold,
    /// otherwise schedules the next retry.
    fn fail_attempt(&mut self, tag: u64, now: u64, attempt: u32) {
        let threshold = self.config.breaker_failures.max(1);
        let state = self.tags.get_mut(&tag).expect("tag state exists");
        let failures = match state.breaker {
            Breaker::Closed { failures } => failures + 1,
            // A failed half-open probe re-opens immediately.
            Breaker::HalfOpen => threshold,
            Breaker::Open { .. } => threshold,
        };
        if failures >= threshold {
            state.breaker = Breaker::Open { since_ms: now };
            state.job = JobState::Idle;
            state.request = None;
            self.record(tag, Transition::BreakerOpened(failures));
            return;
        }
        state.breaker = Breaker::Closed { failures };
        let delay = self
            .config
            .backoff
            .delay_ms(attempt - 1, tag, self.config.seed);
        let until_ms = now.saturating_add(delay);
        state.job = JobState::Backoff {
            attempt: attempt + 1,
            until_ms,
        };
        self.record(tag, Transition::BackoffScheduled(attempt + 1, until_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;

    fn request(tag: u64) -> SynthRequest {
        SynthRequest {
            tag,
            widened: Regex::compile(r"[0-9x]{11}").expect("pattern"),
            family: Family::OffXor,
            isa: Isa::Native,
            seed: 7,
            snapshot_generation: 0,
        }
    }

    fn failing_runner() -> SynthRunner {
        Arc::new(|_, _| Err(SynthError::EmptyFormat))
    }

    fn panicking_runner() -> SynthRunner {
        Arc::new(|_, _| panic!("injected synthesis panic"))
    }

    /// Cooperative hang: spins until the token cancels it.
    fn hanging_runner() -> SynthRunner {
        Arc::new(|_, token| loop {
            token
                .check()
                .map_err(|_| SynthError::Cancelled)
                .map(|()| std::hint::spin_loop())?;
        })
    }

    fn sup(runner: SynthRunner, config: SupervisorConfig) -> (ResynthSupervisor, Arc<MockClock>) {
        let clock = Arc::new(MockClock::new());
        let s = ResynthSupervisor::with_runner(
            config,
            clock.clone() as Arc<dyn Clock>,
            runner,
            ExecMode::Inline,
        );
        (s, clock)
    }

    fn kinds(sup: &ResynthSupervisor) -> Vec<Transition> {
        sup.transcript().into_iter().map(|e| e.transition).collect()
    }

    #[test]
    fn successful_job_completes_first_try() {
        let (mut s, _clock) = sup(default_runner(), SupervisorConfig::default());
        assert_eq!(s.enqueue(request(3)), Enqueue::Accepted);
        s.pump();
        let ready = s.take_ready();
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].tag, 3);
        assert_eq!(ready[0].attempts, 1);
        assert!(!ready[0].hash.plan().is_fallback());
        assert_eq!(s.active_jobs(), 0);
        assert_eq!(
            kinds(&s),
            vec![
                Transition::Enqueued,
                Transition::Started(1),
                Transition::Succeeded(1)
            ]
        );
        assert_eq!(s.transition_count(TransitionKind::Enqueued), 1);
        assert_eq!(s.transition_count(TransitionKind::Succeeded), 1);
        assert_eq!(s.transition_count(TransitionKind::Failed), 0);
    }

    #[test]
    fn jobs_coalesce_per_tag() {
        let (mut s, _clock) = sup(failing_runner(), SupervisorConfig::default());
        assert_eq!(s.enqueue(request(1)), Enqueue::Accepted);
        assert_eq!(s.enqueue(request(1)), Enqueue::Coalesced);
        assert_eq!(s.active_jobs(), 1);
    }

    #[test]
    fn failures_back_off_then_trip_the_breaker() {
        let config = SupervisorConfig {
            breaker_failures: 3,
            breaker_cooldown_ms: None,
            ..SupervisorConfig::default()
        };
        let (mut s, clock) = sup(failing_runner(), config);
        s.enqueue(request(0));
        // Attempt 1 fails -> backoff. Attempts 2 and 3 fail -> breaker.
        s.pump();
        assert_eq!(s.active_jobs(), 1, "job is backing off, not dead");
        let Some(&Event {
            transition: Transition::BackoffScheduled(2, until),
            ..
        }) = s
            .transcript()
            .iter()
            .find(|e| matches!(e.transition, Transition::BackoffScheduled(..)))
        else {
            panic!("expected a scheduled backoff, got {:?}", kinds(&s));
        };
        let expected = config.backoff.delay_ms(0, 0, config.seed);
        assert_eq!(until, expected, "backoff uses the deterministic schedule");
        // Pumping before the backoff elapses does nothing.
        s.pump();
        assert!(!s
            .transcript()
            .iter()
            .any(|e| matches!(e.transition, Transition::Started(2))));
        clock.set(until);
        s.pump(); // attempt 2 fails
        clock.advance(config.backoff.cap_ms * 2);
        s.pump(); // attempt 3 fails -> breaker opens
        assert!(s.breaker_open(0));
        assert_eq!(s.active_jobs(), 0, "breaker clears the job");
        let opened = s
            .transcript()
            .iter()
            .filter(|e| matches!(e.transition, Transition::BreakerOpened(3)))
            .count();
        assert_eq!(opened, 1, "breaker opened exactly once, at 3");
        // Permanently open: later requests are refused.
        clock.advance(1 << 40);
        assert_eq!(s.enqueue(request(0)), Enqueue::BreakerOpen);
    }

    #[test]
    fn transition_counters_agree_with_the_transcript_and_export_cleanly() {
        // Drive three failing tags through backoff and breaker opening,
        // then require that every per-kind counter equals the
        // transcript-derived count — both via the direct accessor and
        // through a `Registry` snapshot wired by `export_metrics`.
        let config = SupervisorConfig {
            breaker_failures: 2,
            breaker_cooldown_ms: None,
            ..SupervisorConfig::default()
        };
        let (mut s, clock) = sup(failing_runner(), config);
        for tag in 0..3 {
            assert_eq!(s.enqueue(request(tag)), Enqueue::Accepted);
        }
        for _ in 0..8 {
            s.pump();
            clock.advance(config.backoff.cap_ms * 2);
        }
        assert!(s.breaker_open(0) && s.breaker_open(1) && s.breaker_open(2));
        let transcript = s.transcript();
        assert_eq!(s.transcript_dropped(), 0, "scenario fits in the ring");
        for kind in TransitionKind::ALL {
            let derived = transcript
                .iter()
                .filter(|e| e.transition.kind() == kind)
                .count() as u64;
            assert_eq!(s.transition_count(kind), derived, "kind {}", kind.name());
        }
        let registry = sepe_obs::Registry::new();
        s.export_metrics(&registry).expect("first export succeeds");
        let snap = registry.snapshot();
        for kind in TransitionKind::ALL {
            let id = sepe_obs::metric_id("supervisor_transitions", &[("kind", kind.name())])
                .expect("metric id");
            assert_eq!(
                snap.counter(&id),
                Some(s.transition_count(kind)),
                "kind {}",
                kind.name()
            );
        }
        assert_eq!(
            snap.counter_family_total("supervisor_transitions"),
            transcript.len() as u64,
            "every transcript event is counted exactly once"
        );
        assert_eq!(
            snap.counter("supervisor_transcript_events"),
            Some(transcript.len() as u64)
        );
        assert_eq!(snap.counter("supervisor_transcript_dropped"), Some(0));
        // Re-exporting into the same registry is a duplicate registration.
        assert!(s.export_metrics(&registry).is_err());
    }

    #[test]
    fn panics_are_isolated_and_counted() {
        let config = SupervisorConfig {
            breaker_failures: 2,
            ..SupervisorConfig::default()
        };
        let (mut s, clock) = sup(panicking_runner(), config);
        s.enqueue(request(9));
        s.pump();
        assert!(s
            .transcript()
            .iter()
            .any(|e| matches!(e.transition, Transition::Panicked(1))));
        clock.advance(config.backoff.cap_ms * 2);
        s.pump();
        assert!(s.breaker_open(9), "two panics open a 2-failure breaker");
    }

    #[test]
    fn hanging_synthesis_times_out_at_the_deadline() {
        // Threaded execution: the worker really spins until cancelled.
        let clock = Arc::new(MockClock::new());
        let config = SupervisorConfig {
            deadline_ms: 100,
            breaker_failures: 1,
            ..SupervisorConfig::default()
        };
        let mut s = ResynthSupervisor::with_runner(
            config,
            clock.clone() as Arc<dyn Clock>,
            hanging_runner(),
            ExecMode::Thread,
        );
        s.enqueue(request(4));
        s.pump(); // starts the worker
        s.pump(); // still running, before the deadline
        assert_eq!(s.active_jobs(), 1);
        clock.advance(100);
        s.pump(); // deadline passed: cancel + detach + fail
        assert!(s
            .transcript()
            .iter()
            .any(|e| matches!(e.transition, Transition::TimedOut(1))));
        assert!(s.breaker_open(4), "1-failure breaker opens on the timeout");
    }

    #[test]
    fn half_open_probe_closes_the_breaker_on_success() {
        // Fail until the breaker opens, then swap in a succeeding runner
        // via a switchable fault flag.
        let fail = Arc::new(AtomicBool::new(true));
        let flag = Arc::clone(&fail);
        let runner: SynthRunner = Arc::new(move |req, token| {
            if flag.load(Ordering::Relaxed) {
                Err(SynthError::EmptyFormat)
            } else {
                default_runner()(req, token)
            }
        });
        let config = SupervisorConfig {
            breaker_failures: 1,
            breaker_cooldown_ms: Some(1_000),
            ..SupervisorConfig::default()
        };
        let (mut s, clock) = sup(runner, config);
        s.enqueue(request(2));
        s.pump();
        assert!(s.breaker_open(2));
        // Before the cooldown: refused.
        clock.advance(999);
        assert_eq!(s.enqueue(request(2)), Enqueue::BreakerOpen);
        // After the cooldown: half-open probe runs and closes the breaker.
        fail.store(false, Ordering::Relaxed);
        clock.advance(1);
        assert_eq!(s.enqueue(request(2)), Enqueue::Accepted);
        s.pump();
        assert!(!s.breaker_open(2));
        assert_eq!(s.take_ready().len(), 1);
        assert!(s
            .transcript()
            .iter()
            .any(|e| matches!(e.transition, Transition::BreakerHalfOpen)));
        assert!(s
            .transcript()
            .iter()
            .any(|e| matches!(e.transition, Transition::BreakerClosed)));
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let config = SupervisorConfig {
            breaker_failures: 1,
            breaker_cooldown_ms: Some(10),
            ..SupervisorConfig::default()
        };
        let (mut s, clock) = sup(failing_runner(), config);
        s.enqueue(request(5));
        s.pump();
        assert!(s.breaker_open(5));
        clock.advance(10);
        assert_eq!(s.enqueue(request(5)), Enqueue::Accepted, "probe admitted");
        s.pump();
        assert!(s.breaker_open(5), "failed probe re-opens");
    }

    #[test]
    fn transcripts_replay_identically_from_seed_and_clock() {
        // Two supervisors, same config, same scripted fault sequence, same
        // clock script: byte-identical transcripts.
        let run_once = || {
            let calls = AtomicU64::new(0);
            let runner: SynthRunner = Arc::new(move |req, token| {
                let n = calls.fetch_add(1, Ordering::Relaxed);
                if n < 2 {
                    Err(SynthError::EmptyFormat)
                } else {
                    default_runner()(req, token)
                }
            });
            let config = SupervisorConfig {
                breaker_failures: 5,
                ..SupervisorConfig::default()
            };
            let (mut s, clock) = sup(runner, config);
            s.enqueue(request(11));
            for _ in 0..8 {
                s.pump();
                clock.advance(config.backoff.cap_ms);
            }
            (s.transcript().to_vec(), s.take_ready().len())
        };
        let (t1, r1) = run_once();
        let (t2, r2) = run_once();
        assert_eq!(t1, t2, "transcripts must replay identically");
        assert_eq!(r1, 1);
        assert_eq!(r2, 1);
        assert!(t1
            .iter()
            .any(|e| matches!(e.transition, Transition::Succeeded(3))));
    }

    #[test]
    fn backoff_delays_are_capped_and_deterministic() {
        let p = BackoffPolicy {
            base_ms: 100,
            cap_ms: 1_000,
        };
        for attempt in 0..40 {
            let d1 = p.delay_ms(attempt, 7, 42);
            let d2 = p.delay_ms(attempt, 7, 42);
            assert_eq!(d1, d2, "same inputs, same delay");
            assert!(d1 <= p.cap_ms + p.cap_ms / 4, "cap plus jitter bound");
        }
        assert!(p.delay_ms(0, 7, 42) < p.delay_ms(5, 7, 42));
        // Different tags jitter differently somewhere in the schedule.
        assert!((0..8).any(|a| p.delay_ms(a, 1, 42) != p.delay_ms(a, 2, 42)));
    }

    #[test]
    fn cancel_token_deadline_is_cooperative() {
        let clock = Arc::new(MockClock::new());
        let token = CancelToken::with_deadline(clock.clone() as Arc<dyn Clock>, 50);
        for _ in 0..1_000 {
            assert!(token.check().is_ok());
        }
        clock.advance(50);
        // The amortized stride means the *first* check after expiry might
        // pass; within one stride it must fail.
        let failed = (0..=DEADLINE_CHECK_STRIDE).any(|_| token.check().is_err());
        assert!(failed, "deadline observed within one stride");
        assert!(token.is_cancelled());
        assert_eq!(token.check(), Err(SynthCancelled));
    }

    #[test]
    fn explicit_cancel_is_immediate() {
        let token = CancelToken::unbounded();
        assert!(token.check().is_ok());
        let clone = token.clone();
        clone.cancel();
        assert_eq!(token.check(), Err(SynthCancelled));
        assert!(token.is_cancelled());
    }

    #[test]
    fn production_runner_records_the_time_to_plan() {
        let clock = Arc::new(MockClock::new());
        let mut s = ResynthSupervisor::new(SupervisorConfig::default(), clock.clone());
        assert_eq!(s.enqueue(request(6)), Enqueue::Accepted);
        s.pump();
        let mut spins = 0;
        while s.take_ready().is_empty() {
            std::thread::yield_now();
            s.pump();
            spins += 1;
            assert!(spins < 1_000_000, "synthesis should complete");
        }
        let events = s.search_events();
        if !sepe_obs::enabled() {
            assert!(events.is_empty(), "obs-off builds record no search events");
            return;
        }
        let [ObsEvent::SynthSearch {
            nodes_expanded,
            time_to_plan_ns,
            ..
        }] = events[..]
        else {
            panic!("expected one SynthSearch event, got {events:?}");
        };
        assert_eq!(
            nodes_expanded, 11,
            "one node per byte of the 11-byte format"
        );
        assert!(time_to_plan_ns > 0, "a real synthesis takes nonzero time");
    }
}
