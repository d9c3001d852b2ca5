//! A self-contained, offline drop-in for the subset of the
//! [criterion](https://crates.io/crates/criterion) API this workspace
//! uses.
//!
//! The real criterion cannot be resolved in the offline build
//! environment, so this crate provides the same surface — `Criterion`,
//! benchmark groups, `BenchmarkId`, `Throughput`, `criterion_group!` /
//! `criterion_main!` — backed by a simple wall-clock median-of-samples
//! harness. Each `b.iter(..)` run reports median and min time per
//! iteration on stdout. Statistical analysis, plots, and baselines are
//! intentionally not implemented; the benches exist to *rank* the hash
//! functions, and a median over samples is enough for that.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Label of one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `group/value` id from just the parameter value.
    #[must_use]
    pub fn from_parameter<P: std::fmt::Display>(parameter: P) -> Self {
        BenchmarkId(parameter.to_string())
    }

    /// `group/name/value` id.
    #[must_use]
    pub fn new<N: Into<String>, P: std::fmt::Display>(name: N, parameter: P) -> Self {
        BenchmarkId(format!("{}/{parameter}", name.into()))
    }
}

/// Throughput annotation (recorded, displayed per sample).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Top-level harness handle.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group<N: Into<String>>(&mut self, name: N) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            sample_size: 10,
            measurement_time: Duration::from_millis(800),
            warm_up_time: Duration::from_millis(200),
            throughput: None,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) {
        let mut group = self.benchmark_group("bench");
        group.run_one(name, &mut f);
    }
}

/// A group of benchmarks sharing sampling configuration.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Total measurement budget per benchmark.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = t;
        self
    }

    /// Warm-up budget per benchmark.
    pub fn warm_up_time(&mut self, t: Duration) -> &mut Self {
        self.warm_up_time = t;
        self
    }

    /// Annotates subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark of the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: BenchmarkId, mut f: F) {
        let label = id.0.clone();
        self.run_one(&label, &mut f);
    }

    /// Ends the group (parity with the real API; nothing to flush).
    pub fn finish(self) {}

    fn run_one(&mut self, label: &str, f: &mut dyn FnMut(&mut Bencher)) {
        // Warm-up: run the closure until the warm-up budget is spent.
        let warm_until = Instant::now() + self.warm_up_time;
        let mut bencher = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        while Instant::now() < warm_until {
            f(&mut bencher);
        }
        // Calibrate iterations per sample from the last warm-up run.
        let per_iter = bencher
            .elapsed
            .checked_div(u32::try_from(bencher.iters).unwrap_or(1));
        let per_iter = per_iter
            .unwrap_or(Duration::from_nanos(1))
            .max(Duration::from_nanos(1));
        let budget = self.measurement_time.checked_div(self.sample_size as u32);
        let budget = budget.unwrap_or(Duration::from_millis(10));
        let iters = (budget.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u64;

        let mut samples: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            samples.push(b.elapsed.as_secs_f64() / b.iters as f64);
        }
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        let min = samples[0];
        let tp = match self.throughput {
            Some(Throughput::Bytes(n)) if median > 0.0 => {
                format!("  {:>10.1} MiB/s", n as f64 / median / (1024.0 * 1024.0))
            }
            Some(Throughput::Elements(n)) if median > 0.0 => {
                format!("  {:>10.1} Kelem/s", n as f64 / median / 1000.0)
            }
            _ => String::new(),
        };
        println!(
            "{}/{label:<32} median {:>12}  min {:>12}{tp}",
            self.name,
            format_time(median),
            format_time(min),
        );
    }
}

fn format_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

/// Timing handle passed to each benchmark closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine`, running it a calibrated number of iterations.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// Declares a bench target's group functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench target's entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` forwards harness flags like `--bench`; a real
            // argument parser is not needed to ignore them.
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_the_closure() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("t");
        group
            .sample_size(2)
            .measurement_time(Duration::from_millis(4));
        let mut runs = 0u64;
        group.bench_function(BenchmarkId::from_parameter("x"), |b| {
            b.iter(|| {
                runs += 1;
            });
        });
        group.finish();
        assert!(runs > 0);
    }

    #[test]
    fn ids_format_like_criterion() {
        assert_eq!(BenchmarkId::from_parameter(42).0, "42");
        assert_eq!(BenchmarkId::new("name", "p").0, "name/p");
    }
}
