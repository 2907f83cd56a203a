//! Box seconds: wall time scaled by how fast the box is running.
//!
//! The shared 2-core box the bounds were set on changes pace by ± 20 %
//! from one quarter of a minute to the next, with no steal time
//! reported: a fixed single-threaded loop timed every 0.3 s for three
//! minutes read 0.125–0.266 s, its 15 s medians 0.161–0.188 s. A wall
//! time taken on it is as much a reading of the box as of the program,
//! and no bound under 25 % would hold against the same code run twice.
//!
//! So every timed section of a `--trace 0` run is bracketed by a small
//! fixed piece of work — the [`BoxClock::kernel`]: a pointer chase round
//! a 512 KiB ring, in this file and so not under test, allocating
//! nothing and so blind to the state the program left the heap in — and
//! its wall seconds are multiplied by [`NOMINAL_KERNEL_SECS`] ÷ the
//! kernel's own wall seconds around it. On a box running at the nominal
//! pace a box second is a wall second. Probed beside sequential
//! `Compiler::compile` (40 ms stretches) for five minutes, during which
//! the box ran a quarter faster for 15 s, the range of the 15 s medians
//! fell from 23 % (wall) to 2 % (box seconds), their interquartile range
//! from 2.3 % to 0.4 %.
//!
//! The traced run is not calibrated: its metrics have no bound, and its
//! checks are ratios of timings taken back to back.

use std::time::Instant;

/// The kernel's wall seconds on the box the bounds were set on, at its
/// usual pace. Only anchors the scale: changing it rescales every
/// timing of every run alike.
pub const NOMINAL_KERNEL_SECS: f64 = 0.00054;

/// Slots of the ring (`u32` each), and steps of one chase round it.
const RING: usize = 128 * 1024;
const STEPS: usize = 100_000;

/// Reads the box's speed over consecutive stretches of a run.
pub struct BoxClock {
    /// One random cycle through all [`RING`] slots: each holds the
    /// index of the next, so a step cannot start before the last ended.
    ring: Vec<u32>,
    /// The kernel sample that closed the previous stretch.
    last: f64,
    /// Every speed read so far, for the run's report.
    pub speeds: Vec<f64>,
}

impl BoxClock {
    pub fn new() -> Self {
        // Sattolo's shuffle: a permutation that is a single cycle.
        let mut ring: Vec<u32> = (0..RING as u32).collect();
        let mut state = 7u64;
        for i in (1..RING).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ring.swap(i, (state >> 33) as usize % i);
        }
        let mut clock = BoxClock {
            ring,
            last: 0.0,
            speeds: Vec::new(),
        };
        clock.last = clock.sample();
        clock
    }

    /// The fixed work: [`STEPS`] dependent loads round the ring.
    fn kernel(&self) -> u64 {
        let (mut at, mut sum) = (0u32, 0u64);
        for _ in 0..STEPS {
            at = self.ring[at as usize];
            sum = sum.wrapping_mul(31).wrapping_add(u64::from(at));
        }
        sum
    }

    /// Wall seconds of the kernel: the median of three runs, so that
    /// neither the first one's cold cache nor one interrupted run
    /// passes for a slow box.
    fn sample(&self) -> f64 {
        let mut runs = [0.0; 3];
        for run in &mut runs {
            let t = Instant::now();
            std::hint::black_box(self.kernel());
            *run = t.elapsed().as_secs_f64();
        }
        runs.sort_by(f64::total_cmp);
        runs[1]
    }

    /// The box's speed over the stretch since the previous call (or
    /// [`BoxClock::new`]), as a share of nominal: from a kernel sample
    /// taken now and the one taken then. Wall seconds of that stretch
    /// times this are its box seconds.
    pub fn speed(&mut self) -> f64 {
        let now = self.sample();
        let speed = NOMINAL_KERNEL_SECS / (0.5 * (self.last + now));
        self.last = now;
        self.speeds.push(speed);
        speed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_is_one_cycle_and_the_kernel_the_same_work_every_time() {
        let clock = BoxClock::new();
        let (mut at, mut steps) = (0u32, 0);
        loop {
            at = clock.ring[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, RING);
        assert_eq!(clock.kernel(), clock.kernel());
    }

    #[test]
    fn a_stretch_is_scaled_by_the_samples_on_both_sides_of_it() {
        let mut clock = BoxClock::new();
        // Whatever the box does now, say the stretch began at half
        // speed: its speed is read between that and the sample taken now.
        clock.last = 2.0 * NOMINAL_KERNEL_SECS;
        let speed = clock.speed();
        assert_eq!(
            speed,
            NOMINAL_KERNEL_SECS / (0.5 * (2.0 * NOMINAL_KERNEL_SECS + clock.last))
        );
        assert_eq!(clock.speeds, [speed]);
    }
}
