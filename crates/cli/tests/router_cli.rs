//! Process-level distributed serving test: real `cpnn` binaries, real
//! sockets, real `kill -9`. Drives the full `shard-split` →
//! `shard-serve` (one OS process per shard) → `route` flow and checks,
//! against an uninterrupted single-process `serve` run of the same
//! workload, that:
//!
//! - routed answers match `serve --shards N` line for line (answers and
//!   candidate counts; timings and version counters are process-local
//!   and excluded),
//! - a SIGKILLed shard degrades its queries to a typed `unavailable`
//!   line while the surviving shard keeps answering correctly,
//! - restarting the dead shard recovers its durable data dir
//!   (checkpoint + write-ahead journal) and the fleet converges back to
//!   the uninterrupted transcript.
//!
//! This is the in-repo twin of the CI multi-process smoke.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};

use cpnn_core::persist::save_to_path;
use cpnn_core::{ObjectId, UncertainDb, UncertainObject};

const CPNN: &str = env!("CARGO_BIN_EXE_cpnn");

/// Two far-apart clusters so a 2-way split puts each on its own shard:
/// queries near 0 never fan out to the shard owning the cluster near
/// 100, which is what makes the outage scenario deterministic.
fn clustered_dataset(path: &Path) {
    let objects: Vec<UncertainObject> = (0..8)
        .map(|i| {
            let base = if i < 4 {
                i as f64 * 1.5
            } else {
                100.0 + (i - 4) as f64 * 1.5
            };
            UncertainObject::uniform(ObjectId(i), base, base + 1.0).unwrap()
        })
        .collect();
    let db = UncertainDb::build(objects).unwrap();
    save_to_path(&db, path).unwrap();
}

fn cpnn(args: &[&str]) -> Command {
    let mut cmd = Command::new(CPNN);
    cmd.args(args);
    cmd
}

/// Spawn a `shard-serve` process and block until it prints its readiness
/// line (so the socket is bound before anyone dials it). The child's
/// remaining stderr drains on a thread to keep the pipe from filling.
fn spawn_shard(dir: &Path) -> Child {
    let mut child = cpnn(&["shard-serve", dir.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn shard-serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = BufReader::new(stderr);
    let mut line = String::new();
    loop {
        line.clear();
        let n = lines.read_line(&mut line).expect("read shard stderr");
        assert!(n > 0, "shard-serve exited before becoming ready");
        if line.contains("shard serving") {
            break;
        }
    }
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = lines.read_to_string(&mut sink);
    });
    child
}

/// `#3 v7 answers=[1, 4] cands=2 t=12µs` → `answers=[1, 4] cands=2` —
/// the process-independent part of a query reply. Update lines keep
/// their `objects=N batch=B` tail (versions are router-local counters).
fn comparable(line: &str) -> String {
    if let Some(at) = line.find("answers=") {
        let rest = &line[at..];
        let end = rest.find(" t=").unwrap_or(rest.len());
        return rest[..end].to_string();
    }
    if let Some(at) = line.find("objects=") {
        return line[at..].to_string();
    }
    panic!("unexpected serve/route output line: {line}");
}

#[test]
fn routed_fleet_matches_serve_and_survives_kill_dash_nine() {
    let dir = std::env::temp_dir().join(format!("cpnn-router-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.cpnn");
    clustered_dataset(&data);

    // Split into two durable shard dirs + a shard map. `--out` is
    // absolute, so the socket paths in the map are too (cwd-independent).
    let fleet = dir.join("fleet");
    let split = cpnn(&[
        "shard-split",
        data.to_str().unwrap(),
        "--out",
        fleet.to_str().unwrap(),
        "--shards",
        "2",
    ])
    .output()
    .expect("run shard-split");
    assert!(
        split.status.success(),
        "shard-split failed: {}",
        String::from_utf8_lossy(&split.stderr)
    );
    let map = fleet.join("shards.cpsm");
    let shard_dir = |i: usize| fleet.join(format!("shard{i}"));

    let mut shards: Vec<Option<Child>> = (0..2).map(|i| Some(spawn_shard(&shard_dir(i)))).collect();

    // The uninterrupted single-process baseline over the same workload
    // (minus the outage-window query, which has no baseline to match).
    let baseline_workload = "0.5 0.3\n100.5 0.3\n\
                            insert 100 102 103.5\nremove 0\n\
                            100.5 0.3\n0.5 0.3\n\
                            0.5 0.3\n\
                            100.5 0.3\nknn 100.5 2 0.2\nquit\n";
    let serve = cpnn(&["serve", data.to_str().unwrap(), "--shards", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    serve
        .stdin
        .as_ref()
        .unwrap()
        .write_all(baseline_workload.as_bytes())
        .unwrap();
    let serve_out = serve.wait_with_output().expect("serve baseline");
    assert!(serve_out.status.success(), "serve baseline failed");
    let want: Vec<String> = String::from_utf8(serve_out.stdout)
        .unwrap()
        .lines()
        .map(comparable)
        .collect();
    assert_eq!(want.len(), 9, "baseline: 7 query replies + 2 update lines");

    // The routed run: same workload, but shard 1 (the cluster near 100)
    // is SIGKILLed mid-stream and restarted from its own data dir.
    let mut route = cpnn(&["route", map.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn route");
    let mut stdin = route.stdin.take().unwrap();
    let mut stdout = BufReader::new(route.stdout.take().unwrap());
    let mut read_line = |what: &str| -> String {
        let mut line = String::new();
        let n = stdout.read_line(&mut line).expect("read route stdout");
        assert!(n > 0, "route closed stdout early, expected {what}");
        line.trim_end().to_string()
    };

    // Phase 1: both shards up — queries, then a durable update burst.
    stdin
        .write_all(b"0.5 0.3\n100.5 0.3\ninsert 100 102 103.5\nremove 0\n100.5 0.3\n0.5 0.3\n")
        .unwrap();
    let mut got: Vec<String> = (0..6)
        .map(|i| comparable(&read_line(&format!("phase-1 line {i}"))))
        .collect();

    // Phase 2: kill -9 the shard owning the far cluster. Reading the
    // phase-1 replies above synchronized us: the burst is journaled.
    let mut victim = shards[1].take().unwrap();
    victim.kill().expect("SIGKILL shard 1");
    victim.wait().expect("reap shard 1");
    stdin.write_all(b"100.5 0.3\n0.5 0.3\n").unwrap();
    let outage = read_line("outage query");
    assert!(
        outage.contains("unavailable"),
        "a query needing the dead shard must degrade typed, got: {outage}"
    );
    got.push(comparable(&read_line("survivor query")));

    // Phase 3: restart the shard on the same socket; it recovers the
    // pre-kill burst from its checkpoint + journal tail, and the router
    // reconnects on the next request that needs it.
    shards[1] = Some(spawn_shard(&shard_dir(1)));
    stdin
        .write_all(b"100.5 0.3\nknn 100.5 2 0.2\nstats\nquit\n")
        .unwrap();
    got.push(comparable(&read_line("post-recovery query")));
    got.push(comparable(&read_line("post-recovery knn")));
    // `served` counts the routed queries answered: eight asked, one
    // degraded during the outage.
    let stats = read_line("stats line");
    assert!(
        stats.starts_with("stats served=7 "),
        "route must report its own answered queries, got: {stats}"
    );
    drop(stdin);
    let status = route.wait().expect("route exit");
    assert!(status.success(), "route must exit cleanly");

    assert_eq!(
        got, want,
        "routed transcript (crash + recovery) must match the uninterrupted serve run"
    );

    for shard in shards.iter_mut().flatten() {
        let _ = shard.kill();
        let _ = shard.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
