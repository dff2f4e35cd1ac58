//! Load generation: a seeded open-loop schedule and a pipelined closed
//! loop, each on one keep-alive connection driven by one client thread.

use crate::client::Conn;
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Poisson arrivals at `rate_per_s` over `[0, secs)`, as offsets in
/// seconds: independent callers, drawn from the workload seed.
pub fn poisson_schedule(rng: &mut Rng, rate_per_s: f64, secs: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity((rate_per_s * secs * 1.1) as usize + 1);
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate_per_s;
        if t >= secs {
            return out;
        }
        out.push(t);
    }
}

/// One request's outcome, on the phase clock.
#[derive(Debug, Clone, Copy)]
pub struct Shot {
    /// Request index (selects its payload).
    pub idx: usize,
    /// When the request started: its scheduled time in an open loop.
    pub start_s: f64,
    /// When the response was complete.
    pub end_s: f64,
    /// How late the generator sent it after its scheduled time.
    pub late_ms: f64,
    /// Whether the response passed its check.
    pub ok: bool,
}

impl Shot {
    /// Latency from the scheduled send.
    pub fn latency_ms(&self) -> f64 {
        (self.end_s - self.start_s) * 1e3
    }
}

/// A request payload: method, path, body.
pub type Payload = (&'static str, String, Vec<u8>);

/// Sleep most of the way, then spin, so sends leave on schedule.
pub fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Open loop on one connection: request `first + i` is due at `start +
/// sched[i]`. The connection sends its next request once the previous
/// one answered, so a stall makes later sends late; latency is timed from
/// the scheduled send, which charges that wait. Each request due at or
/// after `traced_from_s` is recorded in `tr` as a `serve.match` span as
/// soon as it completes (nothing is recorded while `tr` is off).
#[allow(clippy::too_many_arguments)]
pub fn open_loop<F, C>(
    conn: &mut Conn,
    start: Instant,
    sched: &[f64],
    first: usize,
    payload: &F,
    check: &C,
    tr: &mut Tracer,
    traced_from_s: f64,
) -> Vec<Shot>
where
    F: Fn(usize) -> Payload,
    C: Fn(usize, u16, &[u8]) -> bool,
{
    sched
        .iter()
        .enumerate()
        .map(|(i, &due_s)| {
            let idx = first + i;
            let due = start + Duration::from_secs_f64(due_s);
            wait_until(due);
            let sent = start.elapsed().as_secs_f64();
            let (method, path, body) = payload(idx);
            let ok = match conn.call(method, &path, &body) {
                Ok((status, resp)) => check(idx, status, &resp),
                Err(_) => false,
            };
            let end = Instant::now();
            if due_s >= traced_from_s {
                tr.record("serve.match", due, end);
            }
            Shot {
                idx,
                start_s: due_s,
                end_s: (end - start).as_secs_f64(),
                late_ms: (sent - due_s).max(0.0) * 1e3,
                ok,
            }
        })
        .collect()
}

/// Saturating closed loop on one connection: batches of `depth`
/// pipelined requests, back to back, from now until `until_s` after
/// `start`. The server's one event loop never idles, and one client
/// thread drives it. Request indices start at `first`; every request of a
/// batch shares the batch's interval.
pub fn pipelined_loop<F, C>(
    conn: &mut Conn,
    start: Instant,
    until_s: f64,
    first: usize,
    depth: usize,
    payload: &F,
    check: &C,
) -> Vec<Shot>
where
    F: Fn(usize) -> Payload,
    C: Fn(usize, u16, &[u8]) -> bool,
{
    let mut out = Vec::new();
    loop {
        let begin = start.elapsed().as_secs_f64();
        if begin >= until_s {
            return out;
        }
        let first = first + out.len();
        let batch: Vec<Payload> = (first..first + depth).map(payload).collect();
        let answers = conn.pipeline(&batch);
        let end = start.elapsed().as_secs_f64();
        for k in 0..depth {
            let ok = match &answers {
                Ok(a) => check(first + k, a[k].0, &a[k].1),
                Err(_) => false,
            };
            out.push(Shot {
                idx: first + k,
                start_s: begin,
                end_s: end,
                late_ms: 0.0,
                ok,
            });
        }
    }
}

/// Sent/ok/failed counts of one phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseCounts {
    /// Requests sent.
    pub sent: u64,
    /// Answered and checked correct.
    pub ok: u64,
    /// Failed, refused, or wrong.
    pub failed: u64,
}

impl PhaseCounts {
    /// Count a phase's shots.
    pub fn of(shots: &[Shot]) -> PhaseCounts {
        let ok = shots.iter().filter(|s| s.ok).count() as u64;
        PhaseCounts {
            sent: shots.len() as u64,
            ok,
            failed: shots.len() as u64 - ok,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_near_its_rate() {
        let a = poisson_schedule(&mut Rng::new(7, 1), 500.0, 4.0);
        let b = poisson_schedule(&mut Rng::new(7, 1), 500.0, 4.0);
        let c = poisson_schedule(&mut Rng::new(8, 1), 500.0, 4.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..4.0).contains(&t)));
    }
}
