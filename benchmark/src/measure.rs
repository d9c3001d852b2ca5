//! Timing and resource measurement shared by every workload, plus the
//! machine record stamped into each result file.

use crate::json::Json;
use crate::trace::{self, Tracer};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The median, as Python's `statistics.median` computes it: the middle
/// value, or the mean of the middle two. `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => d[n / 2],
        n => (d[n / 2 - 1] + d[n / 2]) / 2.0,
    }
}

/// Smallest latency the histogram resolves, ns (2^-4).
const HIST_MIN: f64 = 0.0625;
/// Log-linear buckets: 2^7 per octave (0.8% wide), 40 octaves from
/// [`HIST_MIN`].
const HIST_SUB_BITS: u32 = 7;
const HIST_BUCKETS: usize = 40 << HIST_SUB_BITS;

/// A fixed-size latency histogram: no allocation while timing, and a
/// memory footprint that does not grow with the number of samples.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    counts: Vec<u64>,
    pub samples: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            counts: vec![0; HIST_BUCKETS],
            samples: 0,
        }
    }
}

impl LatencyHist {
    /// Bucket of `ns`: the f64 exponent and top mantissa bits, which are
    /// monotone in the value for positive floats.
    fn bucket(ns: f64) -> usize {
        let shift = 52 - HIST_SUB_BITS;
        let base = HIST_MIN.to_bits() >> shift;
        let b = (ns.max(HIST_MIN).to_bits() >> shift) - base;
        (b as usize).min(HIST_BUCKETS - 1)
    }

    fn lower_bound(bucket: usize) -> f64 {
        let shift = 52 - HIST_SUB_BITS;
        f64::from_bits(((HIST_MIN.to_bits() >> shift) + bucket as u64) << shift)
    }

    #[inline]
    pub fn record(&mut self, ns: f64) {
        self.counts[Self::bucket(ns)] += 1;
        self.samples += 1;
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.samples = 0;
    }

    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.samples += other.samples;
    }

    /// The `q`-quantile, interpolated by rank inside its bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples == 0 {
            return f64::NAN;
        }
        let rank = q.clamp(0.0, 1.0) * (self.samples - 1) as f64;
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (before + c) as f64 > rank {
                let lo = Self::lower_bound(i);
                let hi = Self::lower_bound(i + 1);
                return lo + (hi - lo) * ((rank - before as f64 + 0.5) / c as f64);
            }
            before += c;
        }
        Self::lower_bound(HIST_BUCKETS)
    }
}

/// What one client thread measured in its timed part.
///
/// In an untraced run every window of the program is followed by the
/// same ops served by the standard-library reference, a few milliseconds
/// each, so both sides see the machine in the same state: the machine
/// this was sized on changes speed by up to 2x for seconds at a time.
/// Throughput is compared window by window. Latency quantiles need more
/// samples, so consecutive windows pool into tail windows of at least
/// [`TAIL_SAMPLES`] samples a side, compared tail window by tail window.
#[derive(Debug, Default, Clone)]
pub struct ClientLog {
    /// Throughput of each fixed-size op window, ops per second.
    pub window_rates: Vec<f64>,
    /// Throughput of the reference over the same ops as each window.
    pub ref_rates: Vec<f64>,
    /// Sampled data-op latencies of the tail window in progress, ns.
    pub latencies: LatencyHist,
    /// The reference's latencies, sampled alike.
    pub ref_latencies: LatencyHist,
    /// Latencies of the closed tail windows, program and reference.
    pub closed_latencies: LatencyHist,
    pub ref_closed_latencies: LatencyHist,
    /// Per closed tail window: program over reference at each of [`TAIL_QS`].
    pub tail_ratios: Vec<[f64; 2]>,
    pub ops: u64,
    pub failed: u64,
    /// Wrong results from the reference: a broken benchmark, not program.
    pub ref_failed: u64,
    /// Whether the tracer was on in each window (traced runs alternate).
    pub window_traced: Vec<bool>,
    /// Allocations and bytes counted in traced windows, and the ops they
    /// served.
    pub traced_allocs: (u64, u64),
    pub traced_ops: u64,
    /// Wall time of all program windows, ns.
    pub timed_ns: u64,
}

impl ClientLog {
    pub fn new() -> ClientLog {
        ClientLog {
            window_rates: Vec::with_capacity(MAX_WINDOWS),
            ref_rates: Vec::with_capacity(MAX_WINDOWS),
            window_traced: Vec::with_capacity(MAX_WINDOWS),
            ..ClientLog::default()
        }
    }

    /// Starts a window: switches this thread's tracer and allocation
    /// counting to `traced`, then starts the clock.
    pub fn open_window(&mut self, tracer: &mut Tracer, traced: bool) -> WindowClock {
        tracer.set_on(traced);
        trace::count_allocations(traced);
        WindowClock {
            allocs: trace::allocations(),
            traced,
            start: Instant::now(),
        }
    }

    /// Ends the window `clock` opened, which served `ops` data ops.
    pub fn close_window(&mut self, clock: WindowClock, ops: u64) {
        self.close_window_excluding(clock, ops, Duration::ZERO);
    }

    /// As [`ClientLog::close_window`], not counting `excluded` of the
    /// window's wall time (benchmark bookkeeping done inside it).
    pub fn close_window_excluding(&mut self, clock: WindowClock, ops: u64, excluded: Duration) {
        let took = clock.start.elapsed().saturating_sub(excluded);
        trace::count_allocations(false);
        self.window_rates.push(ops as f64 / took.as_secs_f64());
        self.timed_ns += took.as_nanos() as u64;
        self.window_traced.push(clock.traced);
        if clock.traced {
            let (n, bytes) = trace::allocations();
            self.traced_allocs.0 += n - clock.allocs.0;
            self.traced_allocs.1 += bytes - clock.allocs.1;
            self.traced_ops += ops;
        }
    }

    #[inline]
    pub fn latency(&mut self, ns: f64) {
        self.latencies.record(ns);
    }

    /// Records the reference serving the ops of the last window in `took`.
    pub fn reference_window(&mut self, ops: u64, took: Duration) {
        self.ref_rates.push(ops as f64 / took.as_secs_f64());
        if self.latencies.samples >= TAIL_SAMPLES && self.ref_latencies.samples >= TAIL_SAMPLES {
            let (p, r) = (&self.latencies, &self.ref_latencies);
            self.tail_ratios
                .push(TAIL_QS.map(|q| p.quantile(q) / r.quantile(q)));
            self.closed_latencies.merge(&self.latencies);
            self.ref_closed_latencies.merge(&self.ref_latencies);
            self.latencies.clear();
            self.ref_latencies.clear();
        }
    }

    /// Every latency sample of the run: `(program, reference)`.
    pub fn all_latencies(&self) -> (LatencyHist, LatencyHist) {
        let mut p = self.closed_latencies.clone();
        p.merge(&self.latencies);
        let mut r = self.ref_closed_latencies.clone();
        r.merge(&self.ref_latencies);
        (p, r)
    }

    /// Per window: program throughput over reference throughput.
    pub fn window_ratios(&self) -> impl Iterator<Item = f64> + '_ {
        self.window_rates
            .iter()
            .zip(&self.ref_rates)
            .map(|(p, r)| p / r)
    }

    /// Median window throughput over the windows with `traced` state.
    pub fn rate(&self, traced: bool) -> f64 {
        let r: Vec<f64> = self
            .window_rates
            .iter()
            .zip(&self.window_traced)
            .filter(|(_, &t)| t == traced)
            .map(|(&r, _)| r)
            .collect();
        median(&r)
    }
}

/// Latency quantiles compared between program and reference.
pub const TAIL_QS: [f64; 2] = [0.50, 0.99];

/// Samples a tail window collects on each side before its quantiles are
/// compared: enough for 80 beyond the p99.
const TAIL_SAMPLES: u64 = 8192;

/// A window in progress.
pub struct WindowClock {
    allocs: (u64, u64),
    traced: bool,
    start: Instant,
}

/// Room reserved for window rates, so recording one never allocates.
const MAX_WINDOWS: usize = 1 << 14;

/// Decides, window by window, whether the tracer is on: every window in
/// an untraced run, alternate windows in a traced one, so both halves of
/// `trace.overhead` see the same machine state.
pub fn window_traced(trace: bool, window: usize) -> bool {
    trace && window % 2 == 1
}

/// Whether a client should start window `window`: until `seconds` have
/// passed since `start`, and at least one window of each traced state.
pub fn another_window(start: Instant, seconds: f64, trace: bool, window: usize) -> bool {
    window < 1 + usize::from(trace) || start.elapsed().as_secs_f64() < seconds
}

/// Peak resident set size of the process so far, MiB, from
/// `/proc/self/status`; 0 where that file does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds a fixed CityHash loop over a fixed buffer takes: the same
/// work on every commit, so a change in it between runs is the machine.
pub fn calibration_ms() -> f64 {
    let buf: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
    let start = Instant::now();
    let mut acc = 0u64;
    for i in 0..4096usize {
        acc ^= sepe::baselines::city::city_hash_64(black_box(&buf[i % 64..]));
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// Mean cost of one `Instant::now()` call, ns.
pub fn clock_cost_ns() -> f64 {
    const N: u32 = 200_000;
    let start = Instant::now();
    for _ in 0..N {
        black_box(Instant::now());
    }
    start.elapsed().as_nanos() as f64 / f64::from(N)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// The machine record: enough to tell a machine change from a code change.
pub fn machine_record() -> Json {
    let mut m = Json::obj();
    m.set(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
    );
    m.set("hardware_pext", sepe::core::bits::hardware_pext_available());
    m.set("aesni", sepe::core::aes::aesni_available());
    m.set("obs_enabled", sepe_obs::enabled());
    m.set("git_rev", command_line("git", &["rev-parse", "HEAD"]));
    m.set("rustc", command_line("rustc", &["-V"]));
    m.set("clock_ns", clock_cost_ns());
    m
}
