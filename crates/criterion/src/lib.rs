//! Offline drop-in subset of the `criterion` API.
//!
//! The bench targets in this workspace use the plain criterion surface
//! (`criterion_group!`/`criterion_main!`, `benchmark_group`,
//! `bench_function`, `Bencher::iter`, `Throughput`), but the build
//! environment cannot reach crates.io. This crate provides the same
//! surface as a thin wall-clock harness: each benchmark runs a warmup
//! pass plus `sample_size` timed samples and prints min/mean per-sample
//! times (and MB/s when a byte throughput is set). No statistics,
//! outlier analysis, plotting, or baseline comparison.

use std::time::{Duration, Instant};

/// Top-level harness handle, mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            sample_size: 10,
            throughput: None,
        }
    }
}

/// Declared work-per-iteration, used to derive a rate from wall time.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Abstract elements processed per iteration.
    Elements(u64),
}

/// A named group of benchmarks sharing throughput/sample settings.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per benchmark (default 10).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declare per-iteration throughput for rate reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Run one benchmark: `f` receives a [`Bencher`] and must call
    /// [`Bencher::iter`] with the code under test.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut samples = Vec::with_capacity(self.sample_size);
        // Warmup pass, discarded.
        let mut bencher = Bencher {
            elapsed: Duration::ZERO,
        };
        f(&mut bencher);
        for _ in 0..self.sample_size {
            let mut bencher = Bencher {
                elapsed: Duration::ZERO,
            };
            f(&mut bencher);
            samples.push(bencher.elapsed);
        }
        let min = samples.iter().min().copied().unwrap_or_default();
        let mean = samples.iter().sum::<Duration>() / samples.len().max(1) as u32;
        let mut line = format!(
            "bench {}/{}: mean {:>12?}  min {:>12?}  ({} samples)",
            self.name,
            id,
            mean,
            min,
            samples.len()
        );
        if let Some(Throughput::Bytes(bytes)) = self.throughput {
            let secs = mean.as_secs_f64();
            if secs > 0.0 {
                let mbps = bytes as f64 / secs / 1.0e6;
                line.push_str(&format!("  {mbps:>10.1} MB/s"));
            }
        }
        println!("{line}");
        self
    }

    /// End the group (upstream flushes reports here; a no-op for the
    /// shim, kept so call sites stay source-compatible).
    pub fn finish(self) {}
}

/// Timing handle passed to the closure of `bench_function`.
pub struct Bencher {
    elapsed: Duration,
}

impl Bencher {
    /// Time repeated executions of `routine`; the measured wall time
    /// becomes this sample's value.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        std::hint::black_box(routine());
        self.elapsed = start.elapsed();
    }
}

/// Bundle benchmark functions into a named group runner, mirroring the
/// simple form of `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Generate a `main` that runs each group, mirroring
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
