//! The open-loop driver: events are sent on a fixed schedule whether or
//! not the server keeps up, and every event is timed from when it was
//! *due*, so a stall (an epoch barrier) inflates every query queued
//! behind it.

use std::time::{Duration, Instant};

/// What the driver asks of the system under test. Events are identified
/// by their index in the schedule.
pub trait Target {
    /// Serve the queries `batch` (consecutive, all due) in one round.
    fn serve(&mut self, batch: std::ops::Range<usize>);
    /// Apply the update batch `event` as one epoch barrier.
    fn update(&mut self, event: usize);
}

/// One scheduled event: its due time (seconds from the start) and
/// whether it is an update batch (else a query).
#[derive(Clone, Copy, Debug)]
pub struct Due {
    pub at: f64,
    pub update: bool,
}

/// Per-event timings, all in seconds.
#[derive(Clone, Debug, Default)]
pub struct Times {
    /// Due → completion, per query.
    pub query_latency: Vec<f64>,
    /// Due → dispatch, per query.
    pub queue_wait: Vec<f64>,
    /// Due → epoch released, per update batch.
    pub update_latency: Vec<f64>,
    /// How late the driver woke up for an event while the server was
    /// idle (sleep overshoot).
    pub late: Vec<f64>,
    /// Seconds from the start to the last completion.
    pub elapsed: f64,
}

/// Drive `schedule` (sorted by due time) against `target`, coalescing
/// consecutive due queries into rounds of at most `max_batch`.
pub fn run<T: Target>(schedule: &[Due], max_batch: usize, target: &mut T) -> Times {
    let mut times = Times::default();
    let t0 = Instant::now();
    let now = || t0.elapsed().as_secs_f64();
    let mut i = 0;
    while i < schedule.len() {
        let due = schedule[i].at;
        let wait = due - now();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
            times.late.push(now() - due);
        }
        let start = now();
        if schedule[i].update {
            target.update(i);
            times.update_latency.push(now() - due);
            i += 1;
            continue;
        }
        let mut j = i + 1;
        while j < schedule.len()
            && j - i < max_batch.max(1)
            && !schedule[j].update
            && schedule[j].at <= start
        {
            j += 1;
        }
        target.serve(i..j);
        let end = now();
        for ev in &schedule[i..j] {
            times.query_latency.push(end - ev.at);
            times.queue_wait.push(start - ev.at);
        }
        i = j;
    }
    times.elapsed = now();
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Updates stall for 60 ms; queries are instant.
    struct Stalling {
        batches: Vec<std::ops::Range<usize>>,
    }

    impl Target for Stalling {
        fn serve(&mut self, batch: std::ops::Range<usize>) {
            self.batches.push(batch);
        }
        fn update(&mut self, _event: usize) {
            std::thread::sleep(Duration::from_millis(60));
        }
    }

    #[test]
    fn latency_counts_from_due_time_so_a_stall_delays_queries_behind_it() {
        // An update due at 0 stalls the server for 60 ms; three queries
        // fall due during the stall and one long after it.
        let schedule = [
            Due {
                at: 0.000,
                update: true,
            },
            Due {
                at: 0.010,
                update: false,
            },
            Due {
                at: 0.020,
                update: false,
            },
            Due {
                at: 0.030,
                update: false,
            },
            Due {
                at: 0.200,
                update: false,
            },
        ];
        let mut target = Stalling {
            batches: Vec::new(),
        };
        let t = run(&schedule, 16, &mut target);
        assert_eq!(t.update_latency.len(), 1);
        assert!(t.update_latency[0] >= 0.060);
        // The three stalled queries coalesce into one round, and each is
        // charged from its own due time: at least 60 - 10, 60 - 20 and
        // 60 - 30 ms, not the near-zero service time.
        assert_eq!(target.batches[0], 1..4);
        assert!(t.query_latency[0] >= 0.050);
        assert!(t.query_latency[1] >= 0.040);
        assert!(t.query_latency[2] >= 0.030);
        assert!(t.queue_wait[0] >= 0.050);
        // The late query finds an idle server: the driver slept, and its
        // latency is only the sleep overshoot plus service.
        assert_eq!(target.batches[1], 4..5);
        assert!(t.query_latency[3] < 0.030);
        assert!(!t.late.is_empty());
        assert_eq!(t.query_latency.len(), 4);
    }

    #[test]
    fn rounds_never_exceed_max_batch() {
        let schedule: Vec<Due> = (0..40)
            .map(|_| Due {
                at: 0.0,
                update: false,
            })
            .collect();
        let mut target = Stalling {
            batches: Vec::new(),
        };
        run(&schedule, 16, &mut target);
        let sizes: Vec<usize> = target.batches.iter().map(|b| b.len()).collect();
        assert_eq!(sizes, vec![16, 16, 8]);
    }
}
