//! Host-speed calibration of the end-to-end host times.
//!
//! On a shared host the simulator's speed drifts by up to 2× over tens of
//! seconds as neighbours load the machine, and whole runs land fast or
//! slow: medians of raw wall time over 30 s still spread by 13–34 %
//! across runs. So the benchmark times a fixed kernel — random
//! read-modify-writes over an 8 MiB table — just before and just after
//! each timed span, and scales the span by [`REFERENCE_S`] over the
//! host's kernel time around it. The result estimates the span's host
//! time at the kernel's reference speed. Of the kernels tried (pure ALU,
//! and 1 MiB, 8 MiB and 64 MiB tables), this one tracked per-pass
//! simulator time best, halving the within-run variation. The kernel is
//! the benchmark's own code: a change to the simulator moves calibrated
//! time exactly as it moves raw time under equal load.
//!
//! One 6.5 ms kernel run is itself noisy (its quartiles within a run lie
//! ±25 % apart), so the spans of a pass are scaled by the median kernel
//! time of their neighbourhood, [`WINDOW`] spans on either side, rather
//! than by their own two kernel runs alone. Over two sets of ten
//! `undersub` runs this narrowed the run-to-run spread of `wall_s` from
//! 0.075 and 0.164 to 0.067 and 0.125.

use crate::stats::median;
use std::time::Instant;

/// Kernel time at the reference speed: the median over ~1000 kernel runs
/// on the 2-vCPU host the benchmark was sized on.
pub const REFERENCE_S: f64 = 0.0065;

/// Table of 2^20 words: 8 MiB.
const TABLE_WORDS: usize = 1 << 20;
/// Read-modify-writes per kernel run.
const UPDATES: u32 = 1_000_000;
/// Spans on either side of a span whose kernel runs set its speed.
const WINDOW: usize = 2;

/// One timed span: its raw host seconds and the kernel times just before
/// and just after it.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub raw: f64,
    pub before: f64,
    pub after: f64,
}

/// The calibration kernel and its table.
pub struct Calibrator {
    table: Vec<u64>,
    /// Every kernel time measured, seconds.
    pub samples: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut c = Calibrator {
            table: vec![1; TABLE_WORDS],
            samples: Vec::new(),
        };
        c.measure(); // first touch of the table
        c.samples.clear();
        c
    }

    /// Run the kernel once and return its host seconds.
    pub fn measure(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let n = self.table.len() as u64;
        for _ in 0..UPDATES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x % n) as usize;
            self.table[i] = self.table[i].wrapping_add(x);
        }
        std::hint::black_box(&self.table);
        let took = t0.elapsed().as_secs_f64();
        self.samples.push(took);
        took
    }

    /// Run `f`, bracketed by kernel runs, and return its result with its span.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Span) {
        let before = self.measure();
        let t0 = Instant::now();
        let out = f();
        let raw = t0.elapsed().as_secs_f64();
        let after = self.measure();
        (out, Span { raw, before, after })
    }
}

/// Total host time of consecutive `spans` at the reference speed: each
/// span scaled by [`REFERENCE_S`] over the median kernel time of the spans
/// up to [`WINDOW`] away from it.
pub fn calibrated(spans: &[Span]) -> f64 {
    (0..spans.len())
        .map(|i| {
            let near = &spans[i.saturating_sub(WINDOW)..(i + WINDOW + 1).min(spans.len())];
            let kernels: Vec<f64> = near.iter().flat_map(|s| [s.before, s.after]).collect();
            spans[i].raw * REFERENCE_S / median(&kernels)
        })
        .sum()
}

/// Factor from host time at the speed the kernel saw (`before`, `after`)
/// to host time at the reference speed.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * REFERENCE_S / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_one_at_reference_speed() {
        assert_eq!(scale(REFERENCE_S, REFERENCE_S), 1.0);
        // A host running the kernel twice as slow halves calibrated time.
        assert_eq!(scale(2.0 * REFERENCE_S, 2.0 * REFERENCE_S), 0.5);
    }

    #[test]
    fn time_brackets_the_span_with_two_kernel_runs() {
        let mut c = Calibrator::new();
        assert!(c.samples.is_empty());
        let (out, span) = c.time(|| 7);
        assert_eq!(out, 7);
        assert_eq!(c.samples, [span.before, span.after]);
        assert!(span.raw >= 0.0);
    }

    #[test]
    fn calibrated_uses_the_neighbourhood_median_kernel() {
        let span = |raw, k| Span {
            raw,
            before: k,
            after: k,
        };
        let close = |got: f64, want: f64| assert!((got - want).abs() < 1e-12, "{got} != {want}");
        let r = REFERENCE_S;
        // One slow kernel pair among reference ones is outvoted.
        let spans = [span(1.0, r), span(1.0, r), span(1.0, 4.0 * r), span(1.0, r)];
        close(calibrated(&spans), 4.0);
        // A host uniformly twice as slow halves every span.
        let slow = [span(1.0, 2.0 * r), span(3.0, 2.0 * r)];
        close(calibrated(&slow), 2.0);
        // A single span is scaled by the mean of its two kernel runs.
        let one = [Span {
            raw: 1.0,
            before: r,
            after: 3.0 * r,
        }];
        close(calibrated(&one), 0.5);
    }
}
