//! Outcome taxonomy: every operation ends committed, as a TATP spec miss
//! (a correct outcome), or as a failure; retried attempts are counted by
//! cause on the way.

use dora_workloads::tatp::MISS;

/// Why an attempt did not commit, when it was not a spec miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// A lock wait timed out or was chosen as a deadlock victim.
    LockTimeout,
    /// A DORA partition worker died under the transaction.
    WorkerUnavailable,
    /// The engine refused the submission (admission timeout, shutdown).
    SubmitRejected,
    /// The buffer pool had no evictable frame.
    BufferPoolFull,
    /// Anything else.
    Other,
}

impl Cause {
    /// Every cause, in declaration order.
    pub const ALL: [Cause; 5] = [
        Cause::LockTimeout,
        Cause::WorkerUnavailable,
        Cause::SubmitRejected,
        Cause::BufferPoolFull,
        Cause::Other,
    ];

    /// Name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Cause::LockTimeout => "lock_timeout",
            Cause::WorkerUnavailable => "worker_unavailable",
            Cause::SubmitRejected => "submit_rejected",
            Cause::BufferPoolFull => "buffer_pool_full",
            Cause::Other => "other",
        }
    }
}

/// How one aborted attempt is treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Abort {
    /// A TATP expected failure: the operation is done and correct.
    SpecMiss,
    /// A transient abort a client may retry.
    Retryable(Cause),
    /// An abort no retry can turn into a commit.
    Terminal(Cause),
}

/// Classifies an engine's abort reason. The reasons are the `Display`
/// texts of `StorageError` and the engines' own admission messages.
pub fn classify(reason: &str) -> Abort {
    const RULES: &[(&str, Abort)] = &[
        (
            "timed out waiting for a lock",
            Abort::Retryable(Cause::LockTimeout),
        ),
        ("deadlock victim", Abort::Retryable(Cause::LockTimeout)),
        (
            "partition worker unavailable",
            Abort::Retryable(Cause::WorkerUnavailable),
        ),
        ("observed uncommitted state", Abort::Retryable(Cause::Other)),
        (
            "log I/O failure (retryable)",
            Abort::Retryable(Cause::Other),
        ),
        (
            "admission timed out",
            Abort::Terminal(Cause::SubmitRejected),
        ),
        (
            "not accepting new transactions",
            Abort::Terminal(Cause::SubmitRejected),
        ),
        (
            "engine dropped the transaction",
            Abort::Terminal(Cause::SubmitRejected),
        ),
        ("buffer pool full", Abort::Terminal(Cause::BufferPoolFull)),
    ];
    if reason.contains(MISS) {
        return Abort::SpecMiss;
    }
    RULES
        .iter()
        .find(|(needle, _)| reason.contains(needle))
        .map_or(Abort::Terminal(Cause::Other), |&(_, class)| class)
}

/// Per-client outcome counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that committed.
    pub committed: u64,
    /// Operations that ended as a TATP spec miss.
    pub spec_miss: u64,
    /// Attempts the client retried after a transient abort, by cause.
    pub retries: [u64; 5],
    /// Retries the conventional engine made internally before an
    /// operation committed (their cause is not reported back).
    pub engine_retries: u64,
    /// Operations that ended without a correct outcome, by cause.
    pub failed: [u64; 5],
    /// Net call-forwarding rows added by committed operations.
    pub cf_delta: i64,
}

impl Tally {
    /// Operations that ended without a correct outcome.
    pub fn failed_total(&self) -> u64 {
        self.failed.iter().sum()
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.committed += other.committed;
        self.spec_miss += other.spec_miss;
        self.engine_retries += other.engine_retries;
        for i in 0..5 {
            self.retries[i] += other.retries[i];
            self.failed[i] += other.failed[i];
        }
        self.cf_delta += other.cf_delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dora_storage::error::StorageError;

    #[test]
    fn spec_misses_are_correct_outcomes() {
        assert_eq!(
            classify("transaction aborted: tatp-miss: no call_forwarding row"),
            Abort::SpecMiss
        );
    }

    #[test]
    fn storage_errors_map_to_their_cause() {
        let cases = [
            (
                StorageError::LockTimeout(3),
                Abort::Retryable(Cause::LockTimeout),
            ),
            (
                StorageError::Deadlock(3),
                Abort::Retryable(Cause::LockTimeout),
            ),
            (
                StorageError::WorkerUnavailable("partition 1 is gone".into()),
                Abort::Retryable(Cause::WorkerUnavailable),
            ),
            (
                StorageError::ReadUncommitted {
                    table: 1,
                    key: vec![],
                    writer: 2,
                },
                Abort::Retryable(Cause::Other),
            ),
            (
                StorageError::LogIo("ENOSPC".into()),
                Abort::Retryable(Cause::Other),
            ),
            (
                StorageError::BufferPoolFull,
                Abort::Terminal(Cause::BufferPoolFull),
            ),
            (
                StorageError::LogPoisoned("fsync".into()),
                Abort::Terminal(Cause::Other),
            ),
            (StorageError::PageFull, Abort::Terminal(Cause::Other)),
        ];
        for (err, want) in cases {
            // Both engines report a failed commit with this prefix.
            assert_eq!(classify(&err.to_string()), want, "{err}");
            assert_eq!(classify(&format!("commit failed: {err}")), want, "{err}");
            // Everything the storage layer calls retryable is retried.
            assert_eq!(
                matches!(want, Abort::Retryable(_)),
                err.is_retryable(),
                "{err}"
            );
        }
    }

    #[test]
    fn engine_admission_messages_are_submit_rejections() {
        for reason in [
            "partition queue full: admission timed out under back-pressure",
            "engine is not accepting new transactions",
            "engine dropped the transaction",
        ] {
            assert_eq!(classify(reason), Abort::Terminal(Cause::SubmitRejected));
        }
        assert_eq!(classify("something new"), Abort::Terminal(Cause::Other));
    }

    #[test]
    fn tallies_merge_field_by_field() {
        let mut a = Tally {
            attempted: 3,
            committed: 2,
            spec_miss: 1,
            cf_delta: 1,
            ..Tally::default()
        };
        let mut b = a.clone();
        b.failed[Cause::BufferPoolFull as usize] = 1;
        b.retries[Cause::LockTimeout as usize] = 4;
        a.merge(&b);
        assert_eq!(a.attempted, 6);
        assert_eq!(a.committed, 4);
        assert_eq!(a.cf_delta, 2);
        assert_eq!(a.failed_total(), 1);
        assert_eq!(a.retries[Cause::LockTimeout as usize], 4);
    }
}
