//! Open-loop load generation on one thread: requests are submitted on a
//! fixed schedule whether or not earlier ones have completed, and each
//! latency is measured from the request's **due** time — so the wait a
//! stall imposes on later requests is counted, not hidden.
//!
//! Built for a single-worker FIFO server that shares **one CPU** with the
//! generator (`run.sh` pins the process): while a request is in flight the
//! generator blocks on the oldest one, which hands the CPU to the worker;
//! requests that come due meanwhile are submitted the moment it returns —
//! they would have queued behind the one in service anyway. Only with
//! nothing in flight does the generator spin to its next due time. So one
//! thread is runnable at a time and every hand-off is a same-CPU switch.
//! (A generator that polled from a second CPU paid a cross-CPU wake-up per
//! request, ~70 µs on the reference VM and a different figure every run;
//! one that polled from the same CPU fought the worker for it.)

use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// How long after the last due time a step may keep draining before the
/// requests still outstanding count as failed. At a sustainable rate the
/// backlog empties in milliseconds even after a scheduling hiccup; a
/// backlog that needs longer than this was growing for the whole step.
pub const DRAIN_GRACE: Duration = Duration::from_secs(1);

#[derive(Debug)]
pub struct OpenLoopReport<R> {
    /// `(request index, result, latency from due time in µs)` for every
    /// request completed within the step (plus [`DRAIN_GRACE`]).
    pub completed: Vec<(usize, R, f64)>,
    /// Requests completed no later than the last due time: the step's
    /// goodput, with no credit for the drain.
    pub completed_in_window: usize,
    /// Requests still outstanding when the step ended — a backlog that was
    /// still growing. They are drained (untimed) before this returns.
    pub undrained: usize,
    /// Largest number of requests in flight at once.
    pub backlog_peak: usize,
    /// Worst lateness of the generator itself: how long a request was due
    /// *and the generator free to send it* (not blocked behind the request
    /// in service) before it was submitted.
    pub gen_late_max_us: f64,
    /// First due time to the end of the step.
    pub wall: Duration,
}

/// Offer `due.len()` requests at their due times (offsets from now).
/// `submit(i)` hands request `i` to the system and returns a handle;
/// `wait(handle)` blocks until it completes. Handles are waited on in
/// submission order, the order a single-worker server finishes them in.
pub fn run_step<T, R>(
    due: &[Duration],
    mut submit: impl FnMut(usize) -> T,
    mut wait: impl FnMut(T) -> R,
) -> OpenLoopReport<R> {
    let mut report = OpenLoopReport {
        completed: Vec::with_capacity(due.len()),
        completed_in_window: 0,
        undrained: 0,
        backlog_peak: 0,
        gen_late_max_us: 0.0,
        wall: Duration::ZERO,
    };
    let Some(&last_due) = due.last() else {
        return report;
    };
    let deadline = last_due + DRAIN_GRACE;
    let mut pending: VecDeque<(usize, T)> = VecDeque::new();
    let mut next = 0;
    let start = Instant::now();
    // When the generator last came back from the system under test.
    let mut free_since = Duration::ZERO;
    loop {
        while next < due.len() && due[next] <= start.elapsed() {
            let late = start.elapsed() - due[next].max(free_since);
            report.gen_late_max_us = report.gen_late_max_us.max(late.as_secs_f64() * 1e6);
            pending.push_back((next, submit(next)));
            report.backlog_peak = report.backlog_peak.max(pending.len());
            next += 1;
        }
        if pending.is_empty() && next < due.len() {
            // Idle: nothing else wants this CPU until the next due time.
            std::hint::spin_loop();
            continue;
        }
        if pending.is_empty() || start.elapsed() >= deadline {
            report.wall = start.elapsed();
            break;
        }
        let (i, handle) = pending.pop_front().expect("checked non-empty");
        let result = wait(handle);
        let now = start.elapsed();
        free_since = now;
        report.completed_in_window += usize::from(now <= last_due);
        let latency = now.saturating_sub(due[i]);
        report
            .completed
            .push((i, result, latency.as_secs_f64() * 1e6));
    }
    report.undrained = pending.len();
    // Leave the system idle for whatever runs next.
    for (_, handle) in pending {
        let _ = wait(handle);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A fake single-worker server on the wall clock: request `i` is
    /// ready `service(i)` after the later of its submission and the
    /// previous request's completion.
    struct FakeServer<F: Fn(usize) -> Duration> {
        epoch: Instant,
        free_at: Cell<Duration>,
        service: F,
    }

    impl<F: Fn(usize) -> Duration> FakeServer<F> {
        fn submit(&self, i: usize) -> Duration {
            let ready = self.free_at.get().max(self.epoch.elapsed()) + (self.service)(i);
            self.free_at.set(ready);
            ready
        }
        fn wait(&self, ready: Duration) {
            std::thread::sleep(ready.saturating_sub(self.epoch.elapsed()));
        }
    }

    fn every(ms: u64, n: u64) -> Vec<Duration> {
        (1..=n).map(|i| Duration::from_millis(ms * i)).collect()
    }

    #[test]
    fn a_stalled_server_inflates_the_latency_of_later_requests() {
        // Request 2 stalls the server for 60 ms; requests 3.. are due
        // every 5 ms and are submitted on time, but queue behind it.
        let server = FakeServer {
            epoch: Instant::now(),
            free_at: Cell::new(Duration::ZERO),
            service: |i| Duration::from_millis(if i == 2 { 60 } else { 0 }),
        };
        let due = every(5, 8);
        let report = run_step(&due, |i| server.submit(i), |h| server.wait(h));
        assert_eq!(report.completed.len(), 8);
        assert_eq!(report.undrained, 0);
        let lat = |i: usize| report.completed.iter().find(|c| c.0 == i).unwrap().2;
        assert!(
            lat(0) < 5_000.0 && lat(1) < 5_000.0,
            "{} {}",
            lat(0),
            lat(1)
        );
        assert!(lat(2) >= 60_000.0);
        // Due 5 ms after request 2, finished right behind it: ≥ 55 ms.
        assert!(lat(3) >= 55_000.0, "{}", lat(3));
        assert!(lat(7) >= 35_000.0, "{}", lat(7));
        assert!(report.backlog_peak >= 5, "{}", report.backlog_peak);
        // The generator was blocked behind request 2, not late of its own
        // accord: it sent each request as soon as it was free to.
        assert!(
            report.gen_late_max_us < 5_000.0,
            "{}",
            report.gen_late_max_us
        );
    }

    #[test]
    fn latency_counts_from_due_time_when_the_generator_itself_is_late() {
        // Submitting request 1 blocks the generator for 40 ms, so request
        // 2 (due 5 ms later) is *submitted* ~35 ms late to an idle,
        // instant server. Measured from submission it would read ~0.
        let server = FakeServer {
            epoch: Instant::now(),
            free_at: Cell::new(Duration::ZERO),
            service: |_| Duration::ZERO,
        };
        let due = every(5, 4);
        let report = run_step(
            &due,
            |i| {
                if i == 1 {
                    std::thread::sleep(Duration::from_millis(40));
                }
                server.submit(i)
            },
            |h| server.wait(h),
        );
        let lat = |i: usize| report.completed.iter().find(|c| c.0 == i).unwrap().2;
        assert!(lat(2) >= 30_000.0, "{}", lat(2));
        assert!(
            report.gen_late_max_us >= 30_000.0,
            "{}",
            report.gen_late_max_us
        );
    }

    #[test]
    fn a_backlog_still_growing_at_the_end_is_reported_as_undrained() {
        // 20 requests 1 ms apart against a 100 ms service time: the step
        // ends (last due + grace) with about half of them outstanding,
        // and nothing finished inside the window itself.
        let server = FakeServer {
            epoch: Instant::now(),
            free_at: Cell::new(Duration::ZERO),
            service: |_| Duration::from_millis(100),
        };
        let due = every(1, 20);
        let report = run_step(&due, |i| server.submit(i), |h| server.wait(h));
        assert!((8..=11).contains(&report.undrained), "{}", report.undrained);
        assert_eq!(report.completed.len() + report.undrained, 20);
        assert_eq!(report.completed_in_window, 0);
        assert!(report.wall >= Duration::from_millis(20) + DRAIN_GRACE);
    }
}
