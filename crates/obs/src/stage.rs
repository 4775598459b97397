//! [`StageStats`]: the workspace's one stage clock.
//!
//! A stage that wants its work counted owns a `StageStats` by value and
//! runs its body through [`StageStats::time`]; whoever owns the stage reads
//! the counters back and adds them up with `+=`. Nothing is shared, so
//! nothing is atomic. The clock only observes: no duration it reads feeds
//! back into a result.

use std::ops::AddAssign;
use std::time::Instant;

/// Count and cumulative wall time of one stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Executions of the stage.
    pub count: u64,
    /// Cumulative wall time, nanoseconds.
    pub nanos: u64,
}

impl StageStats {
    /// Cumulative wall time in seconds.
    pub fn seconds(&self) -> f64 {
        self.nanos as f64 * 1e-9
    }

    /// Runs `f` as one execution of the stage, adding its wall time.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.count += 1;
        self.nanos += t0.elapsed().as_nanos() as u64;
        r
    }
}

impl AddAssign for StageStats {
    fn add_assign(&mut self, other: Self) {
        self.count += other.count;
        self.nanos += other.nanos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_counts_each_execution_and_sums_add() {
        let mut s = StageStats::default();
        assert_eq!(s.time(|| 41 + 1), 42);
        s.time(|| {});
        assert_eq!(s.count, 2);
        let mut total = s;
        total += s;
        assert_eq!(
            total,
            StageStats {
                count: 4,
                nanos: 2 * s.nanos
            }
        );
        assert_eq!(total.seconds(), total.nanos as f64 * 1e-9);
    }
}
