//! Host-speed probe.
//!
//! The shared host runs this container's cores at a speed that drifts
//! by tens of percent over minutes, and every phase slows down with it
//! alike (see the README). The probe is a fixed piece of work that no
//! change to the repository touches, timed between the passes of a
//! run: four independent integer hash chains, four floating-point
//! chains, table reads and writes and an unpredictable branch, so that,
//! like the phases, it keeps a core's execution ports busy. (A probe of
//! dependent loads alone, latency-bound, slowed by 1.6× where the
//! phases slowed by 2×.) Its median time against [`NOMINAL_S`] is the run's
//! host-speed index, by which the timing metrics are reported at the
//! nominal host speed.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Table size, in 64-bit words (32 KiB, inside one core's L1).
const WORDS: usize = 1 << 12;

/// Loop steps per sample (a few milliseconds).
const STEPS: usize = 1 << 17;

/// One sample's time at the nominal host speed, s: about the median
/// probe time on the reference container (2-core Intel Xeon at 2.0 GHz).
pub const NOMINAL_S: f64 = 0.0015;

pub struct Probe {
    table: Vec<u64>,
    times: Vec<f64>,
}

impl Probe {
    pub fn new() -> Probe {
        let table = (0..WORDS as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        Probe {
            table,
            times: Vec::new(),
        }
    }

    /// Time one run of the fixed work.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let table = &mut self.table;
        let mut h = black_box([1u64, 2, 3, 4]);
        let mut f = black_box([1.0f64, 1.5, 2.0, 2.5]);
        let mut odd = 0u64;
        for step in 0..STEPS as u64 {
            for k in 0..4 {
                h[k] = h[k].rotate_left(5) ^ h[k].wrapping_mul(0x5851_f42d_4c95_7f2d) ^ step;
                f[k] = f[k] * 0.999_999_9 + 1e-7;
            }
            let i = (h[0] as usize) & (WORDS - 1);
            table[i] = table[i].wrapping_add(h[1]);
            if (h[2] >> 17) & 1 == 0 {
                h[3] ^= table[(h[1] as usize) & (WORDS - 1)];
            } else {
                odd += 1;
            }
        }
        black_box((h, f, odd));
        self.times.push(t.elapsed().as_secs_f64());
    }

    pub fn samples(&self) -> usize {
        self.times.len()
    }

    /// Host speed against nominal: above 1 when the host runs faster.
    pub fn index(&self) -> f64 {
        median(&self.times).map_or(f64::NAN, |m| NOMINAL_S / m)
    }
}
