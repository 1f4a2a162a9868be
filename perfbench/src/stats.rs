//! The benchmark's own statistics: quantiles, the tail rule, due-time
//! latency for open-loop schedules, error accounting and hit shares.
//! Everything the report prints is derived through these functions, and
//! the unit tests below pin their definitions.

/// Samples that must lie strictly beyond the tail value.
pub const TAIL_BEYOND: usize = 10;

/// Median of unsorted samples (mean of the two middle values for an even
/// count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Nearest-rank quantile `q ∈ [0, 1]` of unsorted samples; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let s = sorted(samples);
    if s.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The tail of a timing distribution: the highest percentile that still
/// has [`TAIL_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Percentile (0–100) the value stands at: `100·(n − 10)/n`.
    pub percentile: f64,
    pub samples: usize,
}

/// The tail rule: with `n` samples the value is the `(n − 10)`-th smallest,
/// so exactly ten samples rank above it. `None` below eleven samples,
/// where no percentile has ten samples beyond it.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let s = sorted(samples);
    Some(Tail {
        value: s[n - TAIL_BEYOND - 1],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    })
}

/// One request of an open-loop schedule, all times in seconds from the
/// schedule's origin.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timed {
    /// When the schedule said to send it.
    pub due: f64,
    /// When the generator actually sent it.
    pub sent: f64,
    /// When its response arrived.
    pub done: f64,
}

impl Timed {
    /// Latency as a user arriving at `due` sees it: a stalled generator's
    /// wait counts against every request it delayed.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// Does the generator fall further behind over the run? Compares the
/// median lateness of the last quarter of the schedule with the first;
/// growth beyond `slack_s` means the offered rate was not sustained, so
/// the run's latencies describe a backlog, not the program.
pub fn lateness_grows(requests: &[Timed], slack_s: f64) -> bool {
    let q = requests.len() / 4;
    if q == 0 {
        return false;
    }
    let first: Vec<f64> = requests[..q].iter().map(Timed::lateness).collect();
    let last: Vec<f64> = requests[requests.len() - q..]
        .iter()
        .map(Timed::lateness)
        .collect();
    median(&last) > median(&first) + slack_s
}

/// How the attempted operations of a run ended. Every attempt lands in
/// exactly one bucket.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Served with output identical to the reference.
    pub ok: u64,
    /// Typed error or transport failure.
    pub failed: u64,
    /// Refused by admission (`Overloaded`).
    pub shed: u64,
    /// Served, but the output differs from the reference.
    pub corrupt: u64,
}

impl Outcomes {
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed + self.shed + self.corrupt
    }

    pub fn errors(&self) -> u64 {
        self.failed + self.shed + self.corrupt
    }

    /// `(failed + shed + corrupt) / attempted`; 0 when nothing ran.
    pub fn error_rate(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.errors() as f64 / n as f64,
        }
    }

    pub fn merge(&mut self, o: &Outcomes) {
        self.ok += o.ok;
        self.failed += o.failed;
        self.shed += o.shed;
        self.corrupt += o.corrupt;
    }
}

/// The two hit shares the serving tier has, kept apart: a request hits
/// when its batch found the tile resident (`ResponseMeta::cache_hit`),
/// while the cache counts one lookup per batch (`service.cache_hits` /
/// `service.cache_misses`). Coalesced batches and single-flight waits
/// make the two differ.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HitShares {
    pub request_hits: u64,
    pub requests: u64,
    pub lookup_hits: u64,
    pub lookup_misses: u64,
}

impl HitShares {
    pub fn request_hit_share(&self) -> f64 {
        ratio(self.request_hits, self.requests)
    }

    pub fn lookup_hit_share(&self) -> f64 {
        ratio(self.lookup_hits, self.lookup_hits + self.lookup_misses)
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&samples).expect("100 samples have a tail");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        let beyond = samples.iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);

        // With 1000 samples the same rule reaches p99.
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 989.0);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        assert_eq!(tail(&[1.0; 10]), None);
        let t = tail(&[1.0; 11]).unwrap();
        assert_eq!(t.value, 1.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.99), 5.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    /// A generator that stalls for 50 ms holds back every request due in
    /// that window. Timed from the send, the stall vanishes; timed from the
    /// due time, each delayed request carries its wait.
    #[test]
    fn due_time_latency_counts_a_stall() {
        let service_s = 0.002;
        let stall_until = 0.050;
        let schedule: Vec<Timed> = (0..10)
            .map(|i| {
                let due = i as f64 * 0.010;
                let sent = due.max(stall_until);
                Timed {
                    due,
                    sent,
                    done: sent + service_s,
                }
            })
            .collect();
        let from_send: Vec<f64> = schedule.iter().map(|t| t.done - t.sent).collect();
        let from_due: Vec<f64> = schedule.iter().map(Timed::latency).collect();
        assert!(from_send.iter().all(|&l| (l - service_s).abs() < 1e-12));
        assert!((from_due[0] - 0.052).abs() < 1e-12);
        // Half the requests waited out part of the stall.
        assert!((median(&from_due) - 0.007).abs() < 1e-12);
        assert!(median(&from_due) > median(&from_send));
        let late: Vec<f64> = schedule.iter().map(Timed::lateness).collect();
        assert!((late[0] - 0.050).abs() < 1e-12);
        assert_eq!(late[9], 0.0);
        // The stall is at the start, so lateness shrinks: not growth.
        assert!(!lateness_grows(&schedule, 0.005));
    }

    #[test]
    fn growing_lateness_is_detected() {
        // Requests due every 10 ms, served one per 12 ms: the generator
        // falls 2 ms further behind on every request.
        let schedule: Vec<Timed> = (0..40)
            .map(|i| Timed {
                due: i as f64 * 0.010,
                sent: i as f64 * 0.012,
                done: i as f64 * 0.012 + 0.001,
            })
            .collect();
        assert!(lateness_grows(&schedule, 0.005));
        let steady: Vec<Timed> = (0..40)
            .map(|i| Timed {
                due: i as f64 * 0.010,
                sent: i as f64 * 0.010 + 0.001,
                done: i as f64 * 0.010 + 0.004,
            })
            .collect();
        assert!(!lateness_grows(&steady, 0.005));
    }

    #[test]
    fn every_error_kind_counts_against_attempts() {
        let mut o = Outcomes {
            ok: 90,
            failed: 4,
            shed: 5,
            corrupt: 1,
        };
        assert_eq!(o.attempted(), 100);
        assert_eq!(o.errors(), 10);
        assert!((o.error_rate() - 0.1).abs() < 1e-12);
        o.merge(&Outcomes {
            ok: 100,
            ..Outcomes::default()
        });
        assert_eq!(o.attempted(), 200);
        assert!((o.error_rate() - 0.05).abs() < 1e-12);
        assert_eq!(Outcomes::default().error_rate(), 0.0);
    }

    /// Three requests coalesced into one batch on a cold tile are three
    /// request-level misses but a single cache lookup miss; five later
    /// requests served by two batches are five request hits and two lookup
    /// hits. The shares must not be computed from each other's counts.
    #[test]
    fn request_and_lookup_hit_shares_stay_apart() {
        let h = HitShares {
            request_hits: 5,
            requests: 8,
            lookup_hits: 2,
            lookup_misses: 1,
        };
        assert!((h.request_hit_share() - 5.0 / 8.0).abs() < 1e-12);
        assert!((h.lookup_hit_share() - 2.0 / 3.0).abs() < 1e-12);
        assert_ne!(h.request_hit_share(), h.lookup_hit_share());
        assert_eq!(HitShares::default().lookup_hit_share(), 0.0);
    }
}
