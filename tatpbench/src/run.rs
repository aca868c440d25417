//! One engine's part of a run, executed in a process of its own so that
//! its peak RSS, allocator state and threads cannot reach the other
//! engine's measurement.
//!
//! Sequence: set up (load, engine start, warmup); run the measured
//! window; shut the engine down; check the outputs and the workload's
//! premises; in a run's first round, replay the log into a fresh
//! database and compare. Results go
//! to stdout as tab-separated `metric`, `count` and `info` lines that the
//! parent process aggregates.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dora_storage::buffer::{BufferStatsSnapshot, FilePageStore};
use dora_storage::db::{Database, DatabaseConfig, DbCountersSnapshot};
use dora_storage::io::StdFs;
use dora_storage::lock::LockStatsSnapshot;
use dora_storage::recovery;
use dora_storage::segment::WalConfig;
use dora_storage::txn::TxnStatsSnapshot;
use dora_storage::types::Value;
use dora_storage::wal::LogStatsSnapshot;
use dora_workloads::harness::{run_flow_serial, run_request_serial};
use dora_workloads::tatp::{flow_of, request_of, TatpMix, TatpTables, TatpWorkload};

use crate::calib::{self, Probe};
use crate::outcome::{classify, Abort, Cause, Tally};
use crate::span::{self_time_by_stage, Recorder, Stage};
use crate::stats::{median, percentile};
use crate::workload::{Engine, EngineKind, Reply, Workload, CLIENTS, WORKERS};

/// Where span output and temporary database files go, relative to the
/// directory the benchmark runs from (the repository root).
pub const OUT_DIR: &str = "tatpbench/out";
/// Slices of the end-to-end window (see [`run_end_to_end`]).
const SLICES: usize = 20;
/// Fewest operations per client in a measured window: enough latency
/// samples for a p99 even at `--seconds 1`.
const MIN_WINDOW_OPS: usize = 1_000;
/// Operations each client runs before measurement.
const WARMUP_OPS: usize = 2_000;
/// Operations per client replayed serially in the traced run.
const SERIAL_OPS: usize = 1_000;
/// Mailbox-depth sampling period of the traced run.
const SAMPLE_EVERY: Duration = Duration::from_millis(10);

/// What this process measures.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// The engine.
    pub engine: EngineKind,
    /// The run seed.
    pub seed: u64,
    /// Operations per client in the measured window.
    pub window_ops: usize,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Replay the log into a fresh database and compare it with the live
    /// one (the first round of a run does).
    pub replay: bool,
}

/// Ends the process with a failed check; no result is reported.
pub fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("tatpbench: CHECK FAILED: {msg}");
    std::process::exit(3)
}

fn metric(name: &str, value: f64, unit: &str) {
    if !value.is_finite() {
        fail(format!("metric {name} is not finite: {value}"));
    }
    println!("metric\t{name}\t{value:?}\t{unit}");
}

/// Removes a directory tree when dropped.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A loaded database with its engine running and warmed up.
struct Setup {
    db: Arc<Database>,
    tables: TatpTables,
    engine: Engine,
    mixes: Vec<TatpMix>,
    /// Call-forwarding rows right after the load.
    cf_loaded: usize,
    /// Net call-forwarding rows added by acknowledged commits since.
    cf_ledger: i64,
    dir: TmpDir,
    /// Set-up time, s, as measured.
    secs: f64,
    probe: Probe,
    /// Probe times so far, ns.
    probes: Vec<f64>,
}

fn wal_config(dir: &Path) -> WalConfig {
    WalConfig::std_fs(dir.join("wal"))
}

/// Pages the loaded database occupies, measured on an in-memory load.
fn measured_pages(wl: &TatpWorkload) -> u64 {
    let probe = Database::default();
    wl.load(&probe);
    probe.allocated_pages()
}

fn open_db(w: Workload, wl: &TatpWorkload, dir: &Path) -> Database {
    match w {
        Workload::Mem | Workload::Remote => Database::default(),
        Workload::Fsync => {
            // Attached before the load, so the WAL holds every row and a
            // replay into an empty database must rebuild the live one.
            let db = Database::default();
            db.recover_and_attach_wal(wal_config(dir))
                .unwrap_or_else(|e| fail(format!("attach WAL: {e}")));
            db
        }
        Workload::Pool10 => {
            let frames = (measured_pages(wl) / 10) as usize;
            let store = FilePageStore::open(&StdFs, &dir.join("pages"))
                .unwrap_or_else(|e| fail(format!("open page file: {e}")));
            Database::with_store(
                DatabaseConfig {
                    buffer_frames: frames,
                    ..Default::default()
                },
                Arc::new(store),
            )
        }
    }
}

/// Loads the database, starts the engine and warms it up, with a
/// host-speed probe before, between and after the two phases.
fn setup(args: &RunArgs) -> Setup {
    let mut probe = Probe::new(WORKERS);
    let mut probes = vec![probe.measure()];
    let start = Instant::now();
    let dir =
        PathBuf::from(OUT_DIR).join(format!("tmp-{}-{}", std::process::id(), args.engine.name()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| fail(format!("create {dir:?}: {e}")));
    let dir = TmpDir(dir);
    let wl = args.workload.tatp(args.seed);
    let db = Arc::new(open_db(args.workload, &wl, &dir.0));
    let tables = wl.load(&db);
    let cf_loaded = TatpWorkload::counts(&db, tables).call_forwarding;
    let mut secs = start.elapsed().as_secs_f64();
    probes.push(probe.measure());
    let start = Instant::now();
    let engine = Engine::start(args.engine, db.clone(), &wl, tables);
    let mut mixes: Vec<TatpMix> = (0..CLIENTS)
        .map(|c| args.workload.mix(args.seed, c))
        .collect();
    let warm = drive(&engine, tables, &mut mixes, WARMUP_OPS, false);
    secs += start.elapsed().as_secs_f64();
    probes.push(probe.measure());
    Setup {
        db,
        tables,
        engine,
        mixes,
        cf_loaded,
        cf_ledger: warm.tally.cf_delta,
        dir,
        secs,
        probe,
        probes,
    }
}

/// The outcome of one closed-loop window over all clients.
struct Window {
    tally: Tally,
    /// Per-operation latency, first submit to final reply, ns, ascending.
    latencies: Vec<u64>,
    secs: f64,
    /// The hypervisor stole CPU time while the window ran.
    stolen: bool,
    /// Spans of the traced window.
    spans: Option<Recorder>,
}

struct ClientOut {
    tally: Tally,
    latencies: Vec<u64>,
    spans: Option<Recorder>,
}

fn ns_since(origin: Instant, t: Instant) -> u64 {
    t.duration_since(origin).as_nanos() as u64
}

/// One client's closed loop: each operation is submitted, retried on a
/// transient abort within the engine's client budget, and classified.
fn client(
    engine: &Engine,
    tables: TatpTables,
    mix: &mut TatpMix,
    ops: usize,
    id: u64,
    origin: Option<Instant>,
) -> ClientOut {
    let budget = engine.client_retries();
    let mut tally = Tally::default();
    let mut latencies = Vec::with_capacity(ops);
    let mut spans = origin.map(|_| Recorder::with_capacity(ops * 4));
    for i in 0..ops {
        let drawn = Instant::now();
        let op = mix.next_op();
        tally.attempted += 1;
        let request = (id << 40) | i as u64;
        let root = match (&mut spans, origin) {
            (Some(r), Some(o)) => {
                let at = ns_since(o, drawn);
                Some(r.push(Stage::Op, at, at, request, None))
            }
            _ => None,
        };
        let mut first_submit = None;
        let mut build_from = drawn;
        let mut retries = 0;
        let done = loop {
            let (reply, [built, submitted, replied]) =
                engine.attempt(tables, &op, origin.is_some());
            first_submit.get_or_insert(built);
            if let (Some(r), Some(o)) = (&mut spans, origin) {
                let at = |t| ns_since(o, t);
                r.push(Stage::Build, at(build_from), at(built), request, root);
                r.push(Stage::Submit, at(built), at(submitted), request, root);
                r.push(Stage::Reply, at(submitted), at(replied), request, root);
            }
            build_from = replied;
            let abort = match reply {
                Reply::Committed { engine_retries } => {
                    tally.committed += 1;
                    tally.engine_retries += u64::from(engine_retries);
                    tally.cf_delta += op.cf_delta();
                    break replied;
                }
                Reply::Aborted(reason) => (classify(&reason), reason),
            };
            match abort {
                (Abort::SpecMiss, _) => {
                    tally.spec_miss += 1;
                    break replied;
                }
                (Abort::Retryable(cause), _) if retries < budget => {
                    retries += 1;
                    tally.retries[cause as usize] += 1;
                }
                (Abort::Retryable(cause) | Abort::Terminal(cause), reason) => {
                    if tally.failed_total() < 3 {
                        eprintln!(
                            "tatpbench: {} failed ({}): {reason}",
                            op.name(),
                            cause.name()
                        );
                    }
                    tally.failed[cause as usize] += 1;
                    break replied;
                }
            }
        };
        let first = first_submit.expect("every operation is submitted at least once");
        latencies.push(done.duration_since(first).as_nanos() as u64);
        if let (Some(r), Some(root), Some(o)) = (&mut spans, root, origin) {
            r.spans[root as usize].end = ns_since(o, done);
        }
    }
    ClientOut {
        tally,
        latencies,
        spans,
    }
}

/// Runs `ops` operations on every client at once, from a common start.
fn drive(
    engine: &Engine,
    tables: TatpTables,
    mixes: &mut [TatpMix],
    ops: usize,
    traced: bool,
) -> Window {
    let origin = traced.then(Instant::now);
    let steal_before = cpu_ticks()[0];
    let barrier = Barrier::new(mixes.len() + 1);
    let (outs, secs) = std::thread::scope(|s| {
        let handles: Vec<_> = mixes
            .iter_mut()
            .enumerate()
            .map(|(c, mix)| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    client(engine, tables, mix, ops, c as u64, origin)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let outs: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (outs, start.elapsed().as_secs_f64())
    });
    let stolen = cpu_ticks()[0] > steal_before;
    let mut tally = Tally::default();
    let mut latencies = Vec::with_capacity(ops * outs.len());
    let mut spans = traced.then(Recorder::default);
    for out in outs {
        tally.merge(&out.tally);
        latencies.extend(out.latencies);
        if let (Some(all), Some(mine)) = (&mut spans, out.spans) {
            all.absorb(mine);
        }
    }
    latencies.sort_unstable();
    Window {
        tally,
        latencies,
        secs,
        stolen,
        spans,
    }
}

/// Public stats of every layer at one instant.
struct Snap {
    engine: EngineSnap,
    lock: LockStatsSnapshot,
    log: LogStatsSnapshot,
    txn: TxnStatsSnapshot,
    buffer: BufferStatsSnapshot,
    db: DbCountersSnapshot,
}

enum EngineSnap {
    Dora(dora_core::DoraStatsSnapshot),
    Conv(dora_engine_conv::EngineStatsSnapshot),
}

fn snap(engine: &Engine, db: &Database) -> Snap {
    Snap {
        engine: match engine {
            Engine::Dora(e) => EngineSnap::Dora(e.stats()),
            Engine::Conv(e) => EngineSnap::Conv(e.stats()),
        },
        lock: db.lock_stats(),
        log: db.log_stats(),
        txn: db.txn_stats(),
        buffer: db.buffer_stats(),
        db: db.counters(),
    }
}

/// Per-layer figures over a window, from two snapshots. Every ratio is
/// per committed transaction of the window.
fn layer_metrics(
    e: EngineKind,
    a: &Snap,
    b: &Snap,
    committed: u64,
) -> Vec<(String, f64, &'static str)> {
    let per = |x: u64| x as f64 / committed.max(1) as f64;
    let d = |x: u64, y: u64| y.saturating_sub(x);
    let p = e.name();
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put =
        |name: &str, v: f64, unit: &'static str| out.push((format!("{p}.{name}"), v, unit));
    match (&a.engine, &b.engine) {
        (EngineSnap::Dora(a), EngineSnap::Dora(b)) => {
            let sum =
                |s: &dora_core::DoraStatsSnapshot,
                 f: fn(&dora_core::executor::PartitionStatsSnapshot) -> u64| {
                    s.workers.iter().map(f).sum::<u64>()
                };
            put(
                "exec.busy_us_per_txn",
                per(d(sum(a, |w| w.busy_ns), sum(b, |w| w.busy_ns))) / 1e3,
                "us",
            );
            put(
                "exec.actions_per_txn",
                per(d(a.actions, b.actions)),
                "count",
            );
            put(
                "exec.deferrals_per_txn",
                per(d(a.deferrals, b.deferrals)),
                "count",
            );
            put(
                "exec.wakeups_per_txn",
                per(d(sum(a, |w| w.wakeups), sum(b, |w| w.wakeups))),
                "count",
            );
            put(
                "exec.lock_conflicts_per_txn",
                per(d(
                    sum(a, |w| w.locks.conflicts),
                    sum(b, |w| w.locks.conflicts),
                )),
                "count",
            );
            put(
                "exec.secondary_retries_per_txn",
                per(d(a.secondary_retries, b.secondary_retries)),
                "count",
            );
            put(
                "rvp.outbox_msgs_per_txn",
                per(d(sum(a, |w| w.outbox_msgs), sum(b, |w| w.outbox_msgs))),
                "count",
            );
            put(
                "rvp.outbox_pushes_per_txn",
                per(d(sum(a, |w| w.outbox_pushes), sum(b, |w| w.outbox_pushes))),
                "count",
            );
        }
        (EngineSnap::Conv(a), EngineSnap::Conv(b)) => {
            let busy = |s: &dora_engine_conv::EngineStatsSnapshot| {
                s.workers.iter().map(|w| w.busy_ns).sum::<u64>()
            };
            put("exec.busy_us_per_txn", per(d(busy(a), busy(b))) / 1e3, "us");
            put(
                "exec.retries_per_txn",
                per(d(a.retries, b.retries)),
                "count",
            );
        }
        _ => unreachable!("snapshots of one engine"),
    }
    put(
        "lock.critical_sections_per_txn",
        per(d(a.lock.critical_sections, b.lock.critical_sections)),
        "count",
    );
    put(
        "lock.waits_per_txn",
        per(d(a.lock.waits, b.lock.waits)),
        "count",
    );
    put(
        "lock.timeouts",
        d(a.lock.timeouts, b.lock.timeouts) as f64,
        "count",
    );
    put(
        "txn.stripe_acquisitions_per_txn",
        per(d(a.txn.stripe_acquisitions, b.txn.stripe_acquisitions)),
        "count",
    );
    put(
        "txn.begin_waits",
        d(a.txn.begin_waits, b.txn.begin_waits) as f64,
        "count",
    );
    put(
        "db.validated_reads_per_txn",
        per(d(a.db.validated_reads, b.db.validated_reads)),
        "count",
    );
    put(
        "db.validated_retries_per_txn",
        per(d(a.db.validated_retries, b.db.validated_retries)),
        "count",
    );
    put(
        "wal.appends_per_txn",
        per(d(a.log.appended, b.log.appended)),
        "count",
    );
    put(
        "wal.group_commits_per_txn",
        per(d(a.log.group_commits, b.log.group_commits)),
        "count",
    );
    put(
        "wal.commit_waits_per_txn",
        per(d(a.log.commit_waits, b.log.commit_waits)),
        "count",
    );
    put(
        "wal.append_waits_per_txn",
        per(d(a.log.append_waits, b.log.append_waits)),
        "count",
    );
    put(
        "wal.straggler_waits_per_txn",
        per(d(a.log.straggler_waits, b.log.straggler_waits)),
        "count",
    );
    let (hits, misses) = (
        d(a.buffer.hits, b.buffer.hits),
        d(a.buffer.misses, b.buffer.misses),
    );
    put(
        "buffer.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    put("buffer.misses_per_txn", per(misses), "count");
    put(
        "buffer.evictions_per_txn",
        per(d(a.buffer.evictions, b.buffer.evictions)),
        "count",
    );
    put(
        "buffer.eviction_writes_per_txn",
        per(d(a.buffer.eviction_writes, b.buffer.eviction_writes)),
        "count",
    );
    put(
        "buffer.writebacks_per_txn",
        per(d(a.buffer.writebacks, b.buffer.writebacks)),
        "count",
    );
    put(
        "buffer.table_waits_per_txn",
        per(d(a.buffer.table_waits, b.buffer.table_waits)),
        "count",
    );
    put(
        "buffer.latch_waits_per_txn",
        per(d(a.buffer.latch_waits, b.buffer.latch_waits)),
        "count",
    );
    out
}

/// Fails the run when the window did not exercise what its workload
/// claims to measure.
fn check_premises(w: Workload, e: EngineKind, layers: &[(String, f64, &'static str)]) {
    let get = |name: &str| {
        let full = format!("{}.{name}", e.name());
        layers
            .iter()
            .find(|(n, _, _)| *n == full)
            .map(|&(_, v, _)| v)
            .unwrap_or_else(|| panic!("layer metric {full} missing"))
    };
    let premise = |ok: bool, what: &str| {
        if !ok {
            fail(format!(
                "{} on {}: premise broken: {what}",
                e.name(),
                w.name()
            ));
        }
    };
    let misses = get("buffer.misses_per_txn");
    match w {
        Workload::Pool10 => premise(
            get("buffer.hit_ratio") < 0.9,
            &format!(
                "buffer hit ratio {} is not well below 1",
                get("buffer.hit_ratio")
            ),
        ),
        _ => premise(
            misses < 0.001,
            &format!("{misses} buffer misses per txn, expected about 0"),
        ),
    }
    if w == Workload::Fsync {
        premise(get("wal.group_commits_per_txn") > 0.0, "no group commits");
    }
    if e == EngineKind::Dora {
        let outbox = get("rvp.outbox_msgs_per_txn");
        match w {
            Workload::Remote => premise(
                outbox > 0.1,
                &format!("{outbox} outbox msgs per txn, expected > 0.1"),
            ),
            Workload::Mem => premise(
                outbox < 0.01,
                &format!("{outbox} outbox msgs per txn, expected about 0"),
            ),
            _ => {}
        }
    }
}

type Rows = Vec<Vec<Vec<Value>>>;

fn table_rows(db: &Database, t: TatpTables) -> Rows {
    [
        t.subscriber,
        t.access_info,
        t.special_facility,
        t.call_forwarding,
    ]
    .into_iter()
    .map(|table| {
        let mut rows = db
            .scan(table)
            .unwrap_or_else(|e| fail(format!("scan: {e}")));
        rows.sort();
        rows
    })
    .collect()
}

/// Replays the run's log into a fresh database and checks it against
/// the live rows. Returns the replay's on-CPU time, s: the replay is
/// single-threaded and waits only on the page cache, so on a dedicated
/// host this is its wall time, while on a shared one it leaves out the
/// time the hypervisor hands to other tenants.
fn check_recovery(args: &RunArgs, db: Arc<Database>, t: TatpTables, dir: &Path) -> f64 {
    let wl = args.workload.tatp(args.seed);
    let live = table_rows(&db, t);
    // The replay source: the WAL directory, or the in-memory log.
    let records = match args.workload {
        Workload::Fsync => None,
        _ => Some(db.log().records()),
    };
    drop(db);
    let fresh = Database::default();
    let tables = wl.create_tables(&fresh);
    let start = thread_cpu_ns();
    let replayed = match &records {
        Some(r) => recovery::recover(&fresh, r),
        None => fresh.recover_and_attach_wal(wal_config(dir)),
    };
    let secs = (thread_cpu_ns() - start) as f64 / 1e9;
    replayed.unwrap_or_else(|e| fail(format!("replay: {e}")));
    if table_rows(&fresh, tables) != live {
        fail("replaying the log does not rebuild the live tables");
    }
    secs
}

/// Time the calling thread has spent on a CPU, ns (`/proc/thread-self/schedstat`).
fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| fail("/proc/thread-self/schedstat not readable"))
}

/// Steal and total ticks (10 ms) of all CPUs so far (`cpu` line of
/// `/proc/stat`). Steal is time the hypervisor ran something else while a
/// CPU of this guest had work.
fn cpu_ticks() -> [u64; 2] {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let f: Vec<u64> = s
                .lines()
                .next()?
                .strip_prefix("cpu ")?
                .split_whitespace()
                .map(|v| v.parse().ok())
                .collect::<Option<_>>()?;
            Some([*f.get(7)?, f.iter().sum()])
        })
        .unwrap_or_else(|| fail("/proc/stat not readable"))
}

/// Prints the share of `windows` during which the hypervisor stole CPU
/// time.
fn print_steal<'a>(windows: impl IntoIterator<Item = &'a Window>) {
    let (mut stolen, mut n) = (0, 0);
    for w in windows {
        stolen += usize::from(w.stolen);
        n += 1;
    }
    println!("steal\t{:?}", stolen as f64 / n as f64);
}

/// The process's peak resident set (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or_else(|| fail("VmHWM not readable from /proc/self/status"))
}

/// Serially replays the first [`SERIAL_OPS`] operations of each stream
/// on the calling thread. Returns mean time per operation, ns, and the
/// net call-forwarding rows its commits added.
fn serial_pass(
    e: EngineKind,
    db: &Database,
    tables: TatpTables,
    mixes: &mut [TatpMix],
) -> (f64, i64) {
    let mut total = Duration::ZERO;
    let mut cf = 0;
    let mut n = 0;
    for mix in mixes {
        for _ in 0..SERIAL_OPS {
            let op = mix.next_op();
            let start = Instant::now();
            let out = match e {
                EngineKind::Dora => run_flow_serial(db, flow_of(tables, &op, None)),
                EngineKind::Conv => run_request_serial(db, &request_of(tables, &op, None)),
            };
            total += start.elapsed();
            n += 1;
            if out.committed {
                cf += op.cf_delta();
            } else if let Some(reason) = out.reason.filter(|r| classify(r) != Abort::SpecMiss) {
                fail(format!("serial {} aborted: {reason}", op.name()));
            }
        }
    }
    (total.as_nanos() as f64 / n as f64, cf)
}

fn print_outcomes(e: EngineKind, t: &Tally) {
    let p = e.name();
    println!(
        "info\t{p}\t{} attempted, {} committed, {} spec misses",
        t.attempted, t.committed, t.spec_miss
    );
    metric(&format!("{p}.committed"), t.committed as f64, "count");
    metric(
        &format!("{p}.fail_ratio"),
        t.failed_total() as f64 / t.attempted.max(1) as f64,
        "ratio",
    );
    metric(
        &format!("{p}.engine_retries"),
        t.engine_retries as f64,
        "count",
    );
    for c in Cause::ALL {
        metric(
            &format!("{p}.retry.{}", c.name()),
            t.retries[c as usize] as f64,
            "count",
        );
        metric(
            &format!("{p}.fail.{}", c.name()),
            t.failed[c as usize] as f64,
            "count",
        );
    }
}

/// Per-operation stage means and the reply-time p99 of a traced window,
/// scaled by `f`. The stages are leaf spans, so their means are also their
/// self times.
fn client_metrics(e: EngineKind, w: &Window, f: f64) {
    let p = e.name();
    let spans = &w.spans.as_ref().expect("traced window has spans").spans;
    let ops = w.tally.attempted as f64;
    let self_ns = self_time_by_stage(spans);
    for (stage, name) in [
        (Stage::Build, "client.build_us"),
        (Stage::Submit, "client.submit_us"),
        (Stage::Reply, "client.reply_us"),
    ] {
        metric(
            &format!("{p}.{name}"),
            self_ns[stage as usize] as f64 * f / ops / 1e3,
            "us",
        );
    }
    let mut reply_per_op: Vec<u64> = Vec::with_capacity(w.tally.attempted as usize);
    let mut last_request = None;
    for s in spans.iter().filter(|s| s.stage == Stage::Reply) {
        if last_request == Some(s.request) {
            *reply_per_op.last_mut().expect("same request seen") += s.dur();
        } else {
            reply_per_op.push(s.dur());
            last_request = Some(s.request);
        }
    }
    reply_per_op.sort_unstable();
    let p99 = percentile(&reply_per_op, 0.99)
        .unwrap_or_else(|| fail("too few operations for a reply p99"));
    metric(
        &format!("{p}.client.reply_p99_us"),
        p99 as f64 * f / 1e3,
        "us",
    );
}

fn write_spans(args: &RunArgs, rec: &Recorder) {
    let path = PathBuf::from(OUT_DIR).join(format!(
        "spans-{}-{}.tsv",
        args.workload.name(),
        args.engine.name()
    ));
    let file =
        std::fs::File::create(&path).unwrap_or_else(|e| fail(format!("create {path:?}: {e}")));
    let mut out = std::io::BufWriter::new(file);
    rec.write_tsv(&mut out)
        .and_then(|_| std::io::Write::flush(&mut out))
        .unwrap_or_else(|e| fail(format!("write {path:?}: {e}")));
    println!(
        "info\tspans\t{} spans in {}",
        rec.spans.len(),
        path.display()
    );
}

/// Shuts the engine down, runs the traced run's serial pass, checks
/// integrity and the call-forwarding ledger, and replays the log if
/// `args.replay`. Returns the replay time, s, and the serial time per
/// operation, ns.
fn close(args: &RunArgs, s: Setup, serial: Option<&mut [TatpMix]>) -> (Option<f64>, Option<f64>) {
    let Setup {
        db,
        tables,
        engine,
        cf_loaded,
        mut cf_ledger,
        dir,
        ..
    } = s;
    let stranded = engine.shutdown();
    if stranded != 0 {
        fail(format!("{stranded} transactions stranded at shutdown"));
    }
    let serial_ns = serial.map(|mixes| {
        let (ns, cf) = serial_pass(args.engine, &db, tables, mixes);
        cf_ledger += cf;
        ns
    });
    TatpWorkload::check_integrity(&db, tables).unwrap_or_else(|e| fail(format!("integrity: {e}")));
    let cf_rows = TatpWorkload::counts(&db, tables).call_forwarding as i64;
    if cf_rows != cf_loaded as i64 + cf_ledger {
        fail(format!(
            "call_forwarding has {cf_rows} rows; load left {cf_loaded} and acknowledged commits added {cf_ledger}"
        ));
    }
    let replay = args
        .replay
        .then(|| check_recovery(args, db, tables, &dir.0));
    (replay, serial_ns)
}

/// Runs this process's part and prints its lines.
pub fn run(args: RunArgs) {
    let s = setup(&args);
    if args.trace {
        run_traced(&args, s);
    } else {
        run_end_to_end(&args, s);
    }
}

fn run_end_to_end(args: &RunArgs, mut s: Setup) {
    let e = args.engine;
    let p = e.name();
    // The window runs as slices with a host-speed probe after each, so
    // the probes sample the host all through the process. Every timing of
    // the process is scaled by their median. The figures are taken over
    // all operations of the slices during which the hypervisor stole no
    // CPU time, so a stall of the engine counts while a pause of the
    // whole guest does not; when most slices saw steal, over all of them.
    let slice_ops = args.window_ops.max(MIN_WINDOW_OPS).div_ceil(SLICES);
    let before = snap(&s.engine, &s.db);
    let mut slices = Vec::with_capacity(SLICES);
    for _ in 0..SLICES {
        slices.push(drive(&s.engine, s.tables, &mut s.mixes, slice_ops, false));
        s.probes.push(s.probe.measure());
    }
    let after = snap(&s.engine, &s.db);
    let rss = peak_rss_mb();
    print_steal(&slices);
    let mut tally = Tally::default();
    for w in &slices {
        tally.merge(&w.tally);
    }
    let clean = slices.iter().filter(|w| !w.stolen).count();
    let measured: Vec<&Window> = slices
        .iter()
        .filter(|w| !w.stolen || clean * 2 < SLICES)
        .collect();
    let committed: u64 = measured.iter().map(|w| w.tally.committed).sum();
    let secs: f64 = measured.iter().map(|w| w.secs).sum();
    let mut latencies: Vec<u64> = measured
        .iter()
        .flat_map(|w| w.latencies.iter().copied())
        .collect();
    latencies.sort_unstable();
    let probe_ns = median(&s.probes);
    let f = calib::scale(probe_ns);
    let setup_secs = s.secs;
    s.cf_ledger += tally.cf_delta;
    check_premises(
        args.workload,
        e,
        &layer_metrics(e, &before, &after, tally.committed),
    );
    let (replay, _) = close(args, s, None);
    let ms = |q: f64| {
        let ns = percentile(&latencies, q).unwrap_or_else(|| {
            fail(format!(
                "{} samples are too few for p{}",
                latencies.len(),
                q * 100.0
            ))
        });
        ns as f64 * f / 1e6
    };
    metric(&format!("{p}.tps"), committed as f64 / (secs * f), "1/s");
    metric(&format!("{p}.p50_ms"), ms(0.5), "ms");
    metric(&format!("{p}.p99_ms"), ms(0.99), "ms");
    metric(&format!("{p}.peak_rss_mb"), rss, "MiB");
    metric("setup_s", setup_secs * f, "s");
    println!("count\tattempted\t{}", tally.attempted);
    println!("count\tfailed\t{}", tally.failed_total());
    println!(
        "info\t{p}\t{} ops; measured {} of {SLICES} slices: {secs:.3} s, {} latency samples; set-up {setup_secs:.3} s; median probe {probe_ns:.0} ns",
        tally.attempted,
        measured.len(),
        latencies.len(),
    );
    if let Some(r) = replay {
        println!("info\t{p}\tlog replay {r:.6} s on-CPU");
    }
    print_outcomes(e, &tally);
}

fn run_traced(args: &RunArgs, mut s: Setup) {
    let e = args.engine;
    let p = e.name();
    // An untraced quarter, the traced half, and another untraced quarter:
    // traced tps over the untraced quarters' tps is the tracing overhead,
    // with drift across the window (warm-up, the host) cancelled to first
    // order. The sampler runs only in the traced half. Timings are scaled
    // to the reference host speed by the median probe, as in the
    // end-to-end run.
    let half = (args.window_ops / 2).max(MIN_WINDOW_OPS);
    let quarter = (half / 2).max(MIN_WINDOW_OPS);
    let lead = drive(&s.engine, s.tables, &mut s.mixes, quarter, false);
    s.cf_ledger += lead.tally.cf_delta;
    s.probes.push(s.probe.measure());
    let mut serial_mixes = s.mixes.clone();
    let before = snap(&s.engine, &s.db);
    let peak = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let traced = std::thread::scope(|scope| {
        if e == EngineKind::Dora {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    peak.fetch_max(s.engine.queue_len() as u64, Ordering::Relaxed);
                    std::thread::sleep(SAMPLE_EVERY);
                }
            });
        }
        let w = drive(&s.engine, s.tables, &mut s.mixes, half, true);
        stop.store(true, Ordering::Relaxed);
        w
    });
    let after = snap(&s.engine, &s.db);
    s.cf_ledger += traced.tally.cf_delta;
    s.probes.push(s.probe.measure());
    let trail = drive(&s.engine, s.tables, &mut s.mixes, quarter, false);
    s.cf_ledger += trail.tally.cf_delta;
    s.probes.push(s.probe.measure());
    print_steal([&lead, &traced, &trail]);
    let f = calib::scale(median(&s.probes));
    let layers = layer_metrics(e, &before, &after, traced.tally.committed);
    check_premises(args.workload, e, &layers);
    let spans = traced.spans.as_ref().expect("traced window has spans");
    write_spans(args, spans);
    let (replay, serial_ns) = close(args, s, Some(&mut serial_mixes));
    let recovery = replay.expect("the traced run's only round replays");

    for (name, v, unit) in &layers {
        metric(name, if *unit == "us" { v * f } else { *v }, unit);
    }
    if e == EngineKind::Dora {
        metric(
            "dora.exec.queue_peak",
            peak.load(Ordering::Relaxed) as f64,
            "count",
        );
    }
    metric(&format!("{p}.recovery_s"), recovery * f, "s");
    client_metrics(e, &traced, f);
    let serial_us = serial_ns.expect("traced run replays serially") * f / 1e3;
    metric(&format!("{p}.serial.txn_us"), serial_us, "us");
    let plain_tps =
        (lead.tally.committed + trail.tally.committed) as f64 / (lead.secs + trail.secs);
    metric(
        &format!("{p}.trace.overhead"),
        traced.tally.committed as f64 / traced.secs / plain_tps - 1.0,
        "ratio",
    );
    let self_ns = self_time_by_stage(&spans.spans);
    let ops = traced.tally.attempted as f64;
    println!(
        "info\t{p}\tself time per op (us): {}",
        Stage::ALL
            .iter()
            .map(|st| format!(
                "{} {:.3}",
                st.name(),
                self_ns[*st as usize] as f64 * f / ops / 1e3
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let mut tally = lead.tally.clone();
    tally.merge(&traced.tally);
    tally.merge(&trail.tally);
    println!("count\tattempted\t{}", tally.attempted);
    println!("count\tfailed\t{}", tally.failed_total());
    print_outcomes(e, &traced.tally);
}
