//! The four TATP workloads and the two engines they drive.

use std::sync::Arc;

use dora_core::executor::{DoraEngine, DoraEngineConfig, TxnOutcome as DoraOutcome};
use dora_engine_conv::{ConvEngine, ConvEngineConfig, TxnOutcome as ConvOutcome};
use dora_storage::db::Database;
use dora_workloads::tatp::{flow_of, request_of, TatpMix, TatpOp, TatpTables, TatpWorkload};

/// Subscribers loaded on every workload: 889 pages, which fits the
/// default 4 096-frame pool with room to spare.
pub const SUBSCRIBERS: i64 = 10_000;
/// Client threads offering closed-loop load, and workers per engine.
pub const CLIENTS: usize = 2;
/// Worker threads (and DORA partitions) per engine.
pub const WORKERS: usize = 2;
/// Share of `UpdateLocation` handoff reads drawn from the other
/// partition on `tatp_remote`.
pub const REMOTE_PCT: u64 = 50;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-memory log; the data fits the pool.
    Mem,
    /// File-backed WAL, fsync before every acknowledged commit.
    Fsync,
    /// In-memory log over a file page store holding 10% of the pages.
    Pool10,
    /// In-memory log; 100% `UpdateLocation`, half the handoff reads remote.
    Remote,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Mem,
        Workload::Fsync,
        Workload::Pool10,
        Workload::Remote,
    ];

    /// The name passed as `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mem => "tatp_mem",
            Workload::Fsync => "tatp_fsync",
            Workload::Pool10 => "tatp_pool10",
            Workload::Remote => "tatp_remote",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operation rate a window is sized for: about the mean of the two
    /// engines' measured rates on the reference host (2 vCPU Xeon), so the
    /// windows of a run together last about `--seconds` there; set-up,
    /// checks and log replay come on top. `tatp_fsync` takes twice its
    /// rate: its latencies follow the disk's fsync time, which no probe
    /// corrects for, so it needs twice the samples to be as steady. A fixed
    /// count (not a time box) makes both commits of a comparison do
    /// identical work, so counts, memory and recovery time compare exactly.
    pub fn nominal_ops_per_s(self) -> f64 {
        match self {
            Workload::Mem => 60_000.0,
            Workload::Fsync => 48_000.0,
            Workload::Pool10 => 40_000.0,
            Workload::Remote => 58_000.0,
        }
    }

    /// The operation stream of client `client` for the run seeded `seed`.
    pub fn mix(self, seed: u64, client: usize) -> TatpMix {
        let s = derive_seed(seed, 1 + client as u64);
        match self {
            Workload::Remote => {
                TatpMix::update_location_handoff(SUBSCRIBERS, s, WORKERS, REMOTE_PCT)
            }
            _ => TatpMix::new(SUBSCRIBERS, s),
        }
    }

    /// The loader for the run seeded `seed`.
    pub fn tatp(self, seed: u64) -> TatpWorkload {
        TatpWorkload {
            subscribers: SUBSCRIBERS,
            seed: derive_seed(seed, 0),
        }
    }
}

/// Independent sub-seeds from the run seed (splitmix64 finalizer).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which engine a process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Thread-to-data (`dora-core`).
    Dora,
    /// Thread-to-transaction (`dora-engine-conv`).
    Conv,
}

impl EngineKind {
    /// Both engines, in the order a run measures them.
    pub const ALL: [EngineKind; 2] = [EngineKind::Dora, EngineKind::Conv];

    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Dora => "dora",
            EngineKind::Conv => "conv",
        }
    }

    /// Parses an engine name.
    pub fn parse(name: &str) -> Option<EngineKind> {
        Self::ALL.into_iter().find(|e| e.name() == name)
    }
}

/// A running engine.
pub enum Engine {
    /// DORA.
    Dora(DoraEngine),
    /// Conventional.
    Conv(ConvEngine),
}

/// The final reply to one submitted attempt.
#[derive(Debug)]
pub enum Reply {
    /// Committed, after the engine's own internal retries.
    Committed {
        /// Retries the engine made before committing.
        engine_retries: u32,
    },
    /// Aborted with the engine's reason.
    Aborted(String),
}

/// Timestamps of one attempt: flow built, `submit` returned, reply in.
pub type AttemptTimes = [std::time::Instant; 3];

const DROPPED: &str = "engine dropped the transaction";

impl Engine {
    /// Starts `kind` over `db` with [`WORKERS`] workers.
    pub fn start(
        kind: EngineKind,
        db: Arc<Database>,
        wl: &TatpWorkload,
        tables: TatpTables,
    ) -> Engine {
        match kind {
            EngineKind::Dora => Engine::Dora(DoraEngine::new(
                db,
                wl.routing(tables, WORKERS),
                DoraEngineConfig {
                    workers: WORKERS,
                    ..Default::default()
                },
            )),
            EngineKind::Conv => Engine::Conv(ConvEngine::new(
                db,
                ConvEngineConfig {
                    workers: WORKERS,
                    ..Default::default()
                },
            )),
        }
    }

    /// Retries a client grants an operation after a transient abort. The
    /// conventional engine already retries internally (10 times), so its
    /// clients add none; DORA's clients grant the same 10.
    pub fn client_retries(&self) -> u32 {
        match self {
            Engine::Dora(_) => ConvEngineConfig::default().max_retries,
            Engine::Conv(_) => 0,
        }
    }

    /// Builds `op` in this engine's form, submits it and waits for the
    /// reply. `stamp_submit` also timestamps the return of `submit`
    /// (otherwise that slot repeats the build timestamp).
    pub fn attempt(
        &self,
        tables: TatpTables,
        op: &TatpOp,
        stamp_submit: bool,
    ) -> (Reply, AttemptTimes) {
        let now = std::time::Instant::now;
        match self {
            Engine::Dora(e) => {
                let flow = flow_of(tables, op, None);
                let built = now();
                let rx = e.submit(flow);
                let submitted = if stamp_submit { now() } else { built };
                let reply = match rx.recv() {
                    Ok(DoraOutcome::Committed) => Reply::Committed { engine_retries: 0 },
                    Ok(DoraOutcome::Aborted { reason }) => Reply::Aborted(reason),
                    Err(_) => Reply::Aborted(DROPPED.into()),
                };
                (reply, [built, submitted, now()])
            }
            Engine::Conv(e) => {
                let request = request_of(tables, op, None);
                let built = now();
                let rx = e.submit(request);
                let submitted = if stamp_submit { now() } else { built };
                let reply = match rx.recv() {
                    Ok(ConvOutcome::Committed { retries }) => Reply::Committed {
                        engine_retries: retries,
                    },
                    Ok(ConvOutcome::Aborted { reason }) => Reply::Aborted(reason),
                    Err(_) => Reply::Aborted(DROPPED.into()),
                };
                (reply, [built, submitted, now()])
            }
        }
    }

    /// Messages waiting in the engine's queues.
    pub fn queue_len(&self) -> usize {
        match self {
            Engine::Dora(e) => e.queue_len(),
            Engine::Conv(e) => e.queue_len(),
        }
    }

    /// Stops the engine and joins its threads. Returns the transactions
    /// DORA stranded at shutdown (always 0 for the conventional engine).
    pub fn shutdown(self) -> u64 {
        match self {
            Engine::Dora(e) => e.shutdown(),
            Engine::Conv(e) => {
                e.shutdown();
                0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        for e in EngineKind::ALL {
            assert_eq!(EngineKind::parse(e.name()), Some(e));
        }
        assert_eq!(Workload::parse("tatp_bigdb"), None);
    }

    #[test]
    fn seeds_give_identical_streams_and_clients_differ() {
        let a: Vec<_> = (0..50)
            .map({
                let mut m = Workload::Mem.mix(7, 0);
                move |_| m.next_op()
            })
            .collect();
        let b: Vec<_> = (0..50)
            .map({
                let mut m = Workload::Mem.mix(7, 0);
                move |_| m.next_op()
            })
            .collect();
        let c: Vec<_> = (0..50)
            .map({
                let mut m = Workload::Mem.mix(7, 1);
                move |_| m.next_op()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(Workload::Mem.tatp(7).seed, Workload::Mem.tatp(8).seed);
    }

    #[test]
    fn remote_mix_is_all_update_location() {
        let mut m = Workload::Remote.mix(1, 0);
        for _ in 0..100 {
            assert!(matches!(
                m.next_op(),
                TatpOp::UpdateLocation {
                    handoff_from: Some(_),
                    ..
                }
            ));
        }
    }
}
