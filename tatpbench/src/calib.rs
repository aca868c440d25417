//! Host-speed probe.
//!
//! On a shared host the CPUs' speed changes from one second to the next:
//! the same single-threaded work takes anywhere from 1x to 2.5x as long,
//! and it holds each speed for tens of milliseconds at a time. A timing
//! taken over one stretch of a run therefore measures the neighbours as
//! much as the engine. The probe times a fixed kernel that uses none of
//! the repository's code (random reads and writes over a few MiB, like the
//! engines' page and index accesses) on every CPU at once, spread through
//! each engine process. Scaling the process's timings by [`scale`] of the
//! median probe time gives them at one fixed host speed, so a run repeats
//! from minute to minute while a change in the engines still shows in full.

use std::time::Instant;

/// Probe time, ns, that scaled timings are expressed at: about the
/// median probe time on the reference host (2-vCPU Xeon).
pub const REFERENCE_NS: f64 = 1_800_000.0;
/// Kernel steps per timed pass.
const STEPS: usize = 200_000;
/// Timed passes per thread; the probe takes the median.
const PASSES: usize = 3;
/// Words in each thread's buffer (4 MiB).
const WORDS: usize = 1 << 19;
/// How strongly the engines' speed follows the probe's, as the exponent of
/// a power law. On the reference host, between steadiness sets taken tens
/// of minutes apart, raw `tps` and latencies moved with the probe's speed
/// at a log-log slope of 0.55 to 0.65, and within a set at 0.25 to 0.9:
/// the probe swings more than the engines do, so scaling by the full
/// probe ratio would overshoot.
const SENSITIVITY: f64 = 0.5;

/// A host-speed probe with one buffer per CPU it measures.
pub struct Probe {
    buffers: Vec<Vec<u64>>,
}

impl Probe {
    /// A probe over `threads` CPUs.
    pub fn new(threads: usize) -> Probe {
        Probe {
            buffers: (0..threads.max(1)).map(|_| vec![1; WORDS]).collect(),
        }
    }

    /// Time of one kernel pass, ns: the median of [`PASSES`] passes on
    /// each thread, averaged over the threads, which run at once.
    pub fn measure(&mut self) -> f64 {
        let per_thread: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .buffers
                .iter_mut()
                .map(|buf| {
                    s.spawn(move || {
                        let mut t: Vec<f64> = (0..PASSES)
                            .map(|_| {
                                let start = Instant::now();
                                std::hint::black_box(kernel(buf, STEPS));
                                start.elapsed().as_nanos() as f64
                            })
                            .collect();
                        t.sort_by(f64::total_cmp);
                        t[PASSES / 2]
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread panicked"))
                .collect()
        });
        per_thread.iter().sum::<f64>() / per_thread.len() as f64
    }
}

/// `steps` dependent read-modify-writes at pseudo-random places in `buf`.
fn kernel(buf: &mut [u64], steps: usize) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) % buf.len();
        acc = acc.wrapping_add(buf[i]);
        buf[i] = acc ^ x;
    }
    acc
}

/// Factor that turns a duration measured at probe time `probe_ns` into one
/// at [`REFERENCE_NS`].
pub fn scale(probe_ns: f64) -> f64 {
    (REFERENCE_NS / probe_ns).powf(SENSITIVITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let mut a = vec![1; 1024];
        let mut b = vec![1; 1024];
        assert_eq!(kernel(&mut a, 5_000), kernel(&mut b, 5_000));
        assert_eq!(a, b);
    }

    #[test]
    fn probe_reports_a_positive_time() {
        let mut p = Probe::new(2);
        let t = p.measure();
        assert!(t > 0.0 && t.is_finite());
        assert_eq!(scale(REFERENCE_NS), 1.0);
        // A host twice as slow scales a duration down by the square root.
        assert!((scale(4.0 * REFERENCE_NS) - 0.5).abs() < 1e-12);
    }
}
