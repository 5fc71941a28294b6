//! Durability experiment — beyond the paper: what the write-ahead
//! journal costs on the hot path, and what checkpoint/recovery cost at
//! rest, vs. |T| and burst size.
//!
//! Per (|T|, burst) cell, the same coalesced-burst workload runs twice
//! through a [`QueryServer`]:
//!
//! * **volatile** — no storage backend: a flush is just the in-memory
//!   snapshot swap (the PR-5 baseline);
//! * **durable** — a [`FileBackend`] attached: each flush additionally
//!   appends one CRC'd, fsync'd journal record *before* the publish.
//!
//! The gap between the two columns is the entire durability tax —
//! dominated by the per-burst fsync, so it amortizes as bursts widen.
//! The at-rest columns then measure a full-model checkpoint, a cold
//! recovery (checkpoint decode + journal replay into a live database),
//! and how many journal records that replay consumed.

use std::time::{Duration, Instant};

use cpnn_core::{FileBackend, ObjectId, QueryServer, UncertainDb, UncertainObject};

use crate::experiments::longbeach_db_sized;
use crate::report::{key, measured, work, Table};

fn update_object(i: usize) -> UncertainObject {
    let lo = (i as f64 * 37.3) % 9_000.0;
    UncertainObject::uniform(ObjectId(10_000_000 + i as u64), lo, lo + 5.0)
        .expect("valid update object")
}

/// Mean µs/op over `rounds` coalesced bursts of `burst` inserts each.
/// `durable` routes the server through a fresh [`FileBackend`] in `dir`
/// (attached + initial checkpoint *outside* the timed region).
fn burst_latency(
    db: &UncertainDb,
    burst: usize,
    rounds: usize,
    dir: Option<&std::path::Path>,
) -> Duration {
    let server = QueryServer::start(db.clone(), 1, Default::default());
    if let Some(dir) = dir {
        let backend = FileBackend::open(dir).expect("temp data dir");
        server.attach_storage(Box::new(backend));
        server.checkpoint_now().expect("initial checkpoint");
    }
    let mut total = Duration::ZERO;
    let mut ops = 0usize;
    for round in 0..rounds {
        let base = round * burst;
        let start = Instant::now();
        let tickets: Vec<_> = (0..burst)
            .map(|i| server.queue_insert(update_object(base + i)))
            .collect();
        let report = server.flush_writes();
        total += start.elapsed();
        assert_eq!(report.applied, burst, "burst applies cleanly");
        for t in tickets {
            assert!(t.wait().result.is_ok());
        }
        ops += burst;
    }
    server.shutdown();
    total / ops.max(1) as u32
}

/// Run the experiment. Rows sweep |T| × burst size; columns compare the
/// volatile and durable flush paths (mean µs per op, the durability
/// tax), then checkpoint / cold-recovery wall time and the journal
/// records the recovery replayed.
pub fn run(quick: bool) -> Table {
    let sizes: &[usize] = if quick {
        &[1_000, 4_000]
    } else {
        &[1_000, 4_000, 16_000]
    };
    let bursts = [1usize, 8, 64];
    let rounds = if quick { 4 } else { 10 };
    let mut table = Table::new(
        "Recovery",
        "Durability tax and recovery cost: volatile vs. journaled \
         coalesced bursts, checkpoint and cold-recovery wall time",
        &[
            key("|T|"),
            key("burst"),
            measured("volatile (µs/op)"),
            measured("durable (µs/op)"),
            measured("tax"),
            measured("checkpoint (ms)"),
            measured("recover (ms)"),
            work("replayed"),
        ],
    );
    table.note(format!(
        "durable = FileBackend (write-ahead journal, one CRC'd fsync'd \
         record per flushed burst, appended before the publish); volatile \
         = same server, no backend; {rounds} bursts per cell; recover = \
         cold start (checkpoint decode + full journal replay into a live \
         database); temp dirs, removed after each cell"
    ));
    let tmp = std::env::temp_dir().join(format!("cpnn-bench-recovery-{}", std::process::id()));
    for &size in sizes {
        let db = longbeach_db_sized(size);
        for &burst in &bursts {
            let volatile = burst_latency(&db, burst, rounds, None);
            let _ = std::fs::remove_dir_all(&tmp);
            let durable = burst_latency(&db, burst, rounds, Some(&tmp));

            // At-rest costs against the journal the durable run left
            // behind: one full-model checkpoint, then a cold recovery of
            // checkpoint + journal tail.
            let mut backend = FileBackend::open(&tmp).expect("temp data dir");
            let start = Instant::now();
            let recovered = backend
                .recover::<UncertainDb>(&Default::default())
                .expect("journal replays")
                .expect("checkpoint exists");
            let recover_ms = start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(recovered.model.len(), size + rounds * burst);
            assert!(recovered.torn_at.is_none());

            let server = QueryServer::start(recovered.model, 1, Default::default());
            server.attach_storage(Box::new(backend));
            let start = Instant::now();
            server.checkpoint_now().expect("checkpoint succeeds");
            let checkpoint_ms = start.elapsed().as_secs_f64() * 1e3;
            server.shutdown();

            let volatile_us = volatile.as_secs_f64() * 1e6;
            let durable_us = durable.as_secs_f64() * 1e6;
            table.push_row(vec![
                size.to_string(),
                burst.to_string(),
                format!("{volatile_us:.1}"),
                format!("{durable_us:.1}"),
                format!("{:.1}x", durable_us / volatile_us.max(1e-9)),
                format!("{checkpoint_ms:.2}"),
                format!("{recover_ms:.2}"),
                recovered.records.to_string(),
            ]);
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
    table
}
