//! Open-loop and closed-loop request schedules.
//!
//! An open loop sends request `i` when it falls due, at `i * interval` after the start,
//! whether or not earlier requests have completed; its latency is timed from the due time.
//! On one connection a stalled response delays every send queued behind it, so those
//! sends are late and the stall is charged to each of them, not only to the slow request.
//! How late each send went out is its *lag*.

use std::time::{Duration, Instant};

/// A source of time, so schedules can be tested on a virtual clock.
pub trait Clock {
    /// Time since the schedule's start.
    fn now(&self) -> Duration;
    /// Blocks until `at` (returns at once when `at` has passed).
    fn sleep_until(&mut self, at: Duration);
}

/// Wall-clock time since a fixed start.
#[derive(Debug, Clone, Copy)]
pub struct RealClock {
    start: Instant,
}

impl RealClock {
    /// A clock counting from `start`.
    pub fn new(start: Instant) -> RealClock {
        RealClock { start }
    }
}

impl Clock for RealClock {
    fn now(&self) -> Duration {
        self.start.elapsed()
    }

    fn sleep_until(&mut self, at: Duration) {
        let now = self.now();
        if at > now {
            std::thread::sleep(at - now);
        }
    }
}

/// The timing of one scheduled request, as offsets from the schedule's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sent {
    /// When the request fell due.
    pub due: Duration,
    /// When it was sent.
    pub sent: Duration,
    /// When its response was complete.
    pub done: Duration,
    /// Whether the request succeeded.
    pub ok: bool,
}

impl Sent {
    /// Latency from the due time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }

    /// Round trip from the actual send, in milliseconds.
    pub fn round_trip_ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }

    /// How late the request was sent, in milliseconds.
    pub fn lag_ms(&self) -> f64 {
        (self.sent - self.due).as_secs_f64() * 1e3
    }
}

/// Runs `count` requests in an open loop, request `i` due at `offset + i * interval`.
/// `op(i, clock)` performs request `i` and reports success.
pub fn open_loop<C: Clock>(
    clock: &mut C,
    offset: Duration,
    interval: Duration,
    count: usize,
    mut op: impl FnMut(usize, &mut C) -> bool,
) -> Vec<Sent> {
    (0..count)
        .map(|i| {
            let due = offset + interval * i as u32;
            clock.sleep_until(due);
            let sent = clock.now();
            let ok = op(i, clock);
            Sent {
                due,
                sent,
                done: clock.now(),
                ok,
            }
        })
        .collect()
}

/// Runs `count` requests in a closed loop: each is sent as soon as the previous one
/// completes, so its due time is its send time.
pub fn closed_loop<C: Clock>(
    clock: &mut C,
    count: usize,
    mut op: impl FnMut(usize, &mut C) -> bool,
) -> Vec<Sent> {
    (0..count)
        .map(|i| {
            let sent = clock.now();
            let ok = op(i, clock);
            Sent {
                due: sent,
                sent,
                done: clock.now(),
                ok,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Virtual time: sleeping jumps forward, requests advance it by their service time.
    struct FakeClock(Duration);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0
        }

        fn sleep_until(&mut self, at: Duration) {
            self.0 = self.0.max(at);
        }
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn on_time_requests_have_no_lag() {
        let mut clock = FakeClock(Duration::ZERO);
        let sent = open_loop(&mut clock, ms(0), ms(10), 3, |_, c| {
            c.0 += ms(2);
            true
        });
        assert!(sent.iter().all(|s| s.lag_ms() == 0.0));
        assert!(sent.iter().all(|s| s.latency_ms() == 2.0));
        assert_eq!(sent[2].due, ms(20));
    }

    #[test]
    fn a_stall_is_charged_to_the_sends_it_delayed() {
        // Request 1 stalls for 35 ms on a 10 ms schedule: requests 2, 3 and 4 go out late
        // and their due-time latency carries the wait, while their round trips stay 1 ms.
        let mut clock = FakeClock(Duration::ZERO);
        let sent = open_loop(&mut clock, ms(0), ms(10), 6, |i, c| {
            c.0 += if i == 1 { ms(35) } else { ms(1) };
            true
        });
        let latency: Vec<f64> = sent.iter().map(Sent::latency_ms).collect();
        let lag: Vec<f64> = sent.iter().map(Sent::lag_ms).collect();
        // 1 is sent at 10, done at 45; 2 (due 20) sent 45 done 46; 3 (due 30) sent 46
        // done 47; 4 (due 40) sent 47 done 48; 5 (due 50) on time.
        assert_eq!(latency, vec![1.0, 35.0, 26.0, 17.0, 8.0, 1.0]);
        assert_eq!(lag, vec![0.0, 0.0, 25.0, 16.0, 7.0, 0.0]);
        assert!(sent[2..5].iter().all(|s| s.round_trip_ms() == 1.0));
    }

    #[test]
    fn closed_loop_latency_is_the_round_trip() {
        let mut clock = FakeClock(ms(5));
        let sent = closed_loop(&mut clock, 3, |i, c| {
            c.0 += ms(1 + i as u64);
            i != 1
        });
        assert_eq!(
            sent.iter().map(Sent::latency_ms).collect::<Vec<_>>(),
            vec![1.0, 2.0, 3.0]
        );
        assert_eq!(sent.iter().filter(|s| !s.ok).count(), 1);
        assert_eq!(sent[2].due, ms(8));
    }
}
