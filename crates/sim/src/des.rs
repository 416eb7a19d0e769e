//! Resource timelines for the replay simulation: each resource (a GPU, a
//! worker) runs its jobs back-to-back, and the simulation combines their
//! completion times.

/// Simulated time in seconds.
pub(crate) type SimTime = f64;

/// A single-server FIFO resource timeline (e.g. one background
/// materialization worker, one GPU): jobs queue and run back-to-back.
#[derive(Debug, Clone, Default)]
pub(crate) struct Timeline {
    free_at: SimTime,
}

impl Timeline {
    /// Empty timeline, free at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a job of the given duration arriving at `arrive`; returns
    /// its completion time.
    pub fn run(&mut self, arrive: SimTime, duration: SimTime) -> SimTime {
        let start = self.free_at.max(arrive);
        self.free_at = start + duration;
        self.free_at
    }

    /// Time this resource becomes idle.
    pub(crate) fn free_at(&self) -> SimTime {
        self.free_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_queues_fifo() {
        let mut t = Timeline::new();
        assert_eq!(t.run(0.0, 2.0), 2.0);
        // Arrives while busy: waits.
        assert_eq!(t.run(1.0, 2.0), 4.0);
        // Arrives after idle: starts immediately.
        assert_eq!(t.run(10.0, 1.0), 11.0);
    }
}
