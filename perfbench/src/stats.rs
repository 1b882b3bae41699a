//! Order statistics, seeded input generation, and named sample sets.

use std::collections::BTreeMap;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, linearly interpolated
/// between order statistics. NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values`.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// SplitMix64: a small, seedable, deterministic generator. Inputs are
/// drawn from it so the same `--seed` always yields the same inputs.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A seed for the program: kept below 2^32 so request bodies stay
    /// short and plainly readable.
    pub fn next_seed(&mut self) -> u64 {
        self.next_u64() >> 32
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Named timing samples collected by the traced run; each name reports
/// the median of its samples.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// The median of `name`'s samples (NaN when none were taken).
    pub fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |v| median(v))
    }
}

/// Milliseconds since `start`.
pub fn ms_since(start: std::time::Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Microseconds since `start`.
pub fn us_since(start: std::time::Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Buckets per factor of e: 0.1%-wide buckets.
const PER_E: f64 = 1000.0;
/// From 1 ns to about 10^12 ns.
const BUCKETS: usize = 27_700;

/// A latency histogram with 0.1%-wide logarithmic buckets and fixed
/// memory, so the load generator's bookkeeping does not grow with the
/// request count (and with it the process's peak RSS).
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    total: u64,
}

impl Hist {
    pub fn new() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    pub fn record_ms(&mut self, ms: f64) {
        let i = ((ms * 1e6).max(1.0).ln() * PER_E) as usize;
        self.counts[i.min(BUCKETS - 1)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in ms: the middle of the first bucket whose
    /// cumulative count reaches `q` of the total. NaN when empty.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut cumulative = 0;
        for (i, &n) in self.counts.iter().enumerate() {
            cumulative += u64::from(n);
            if cumulative >= target {
                return ((i as f64 + 0.5) / PER_E).exp() / 1e6;
            }
        }
        f64::NAN
    }
}

/// The median over `windows` of each window's `q`-quantile: a burst of
/// host stalls inside one window moves one window's figure, not the
/// reported one. Windows with fewer than `min_count` samples are left
/// out; when none has that many, the quantile of all windows together.
pub fn windowed_quantile(windows: &[Hist], q: f64, min_count: u64) -> f64 {
    let per_window: Vec<f64> = windows
        .iter()
        .filter(|w| w.count() >= min_count)
        .map(|w| w.quantile_ms(q))
        .collect();
    if per_window.is_empty() {
        let mut all = Hist::new();
        for w in windows {
            all.merge(w);
        }
        return all.quantile_ms(q);
    }
    median(&per_window)
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: std::os::raw::c_int = 3;

fn cpu_clock_s(clock: std::os::raw::c_int) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C layout
    // (two `long`s on Linux), and both clock ids exist on every Linux
    // kernel the benchmark supports; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds this thread has run. Unlike wall time it leaves out the
/// time the hypervisor gave the vCPU to another guest (steal), which on
/// the shared development host swings single-thread wall times 3×.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds every thread of this process has run, steal left out.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}
