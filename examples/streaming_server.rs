//! Streaming server: a long-lived [`QueryServer`] absorbing a query
//! stream while the database changes underneath it.
//!
//! This is the moving-object scenario from the related literature: a fleet
//! of uncertain objects (location readings with error intervals) is
//! queried continuously, and object updates arrive *during* the stream.
//! Each update swaps in a new immutable snapshot; in-flight queries finish
//! against the version they pinned, so every response is consistent with
//! exactly one database state — reported as `v<version>` below.
//!
//! Run with: `cargo run --example streaming_server`

use cpnn::core::QueryServer;
use cpnn::core::{ObjectId, PipelineConfig, QuerySpec, Strategy, UncertainDb, UncertainObject};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Ten vehicles on a 1-D road, each position an uncertainty interval.
    let vehicles: Vec<UncertainObject> = (0..10)
        .map(|i| {
            let center = 10.0 * i as f64;
            UncertainObject::uniform(ObjectId(i), center - 2.0, center + 2.0).unwrap()
        })
        .collect::<Vec<_>>();
    let db = UncertainDb::build(vehicles)?;
    let server = QueryServer::start(db, 4, PipelineConfig::default());
    let spec = QuerySpec::nn(0.3, 0.01, Strategy::Verified);

    // Phase 1: stream a few queries against the initial snapshot (v0).
    println!("-- initial fleet --");
    let tickets: Vec<_> = [5.0, 25.0, 47.0, 88.0]
        .into_iter()
        .map(|q| (q, server.submit(q, spec)))
        .collect();
    for (q, t) in tickets {
        let served = t.wait();
        let res = served.result?;
        println!(
            "q = {q:>4}: v{} answers = {:?}",
            served.snapshot_version,
            res.answers.iter().map(|id| id.0).collect::<Vec<_>>()
        );
    }

    // Phase 2: vehicle 99 merges in near q = 25 while queries keep coming.
    // The snapshot swap is atomic: responses cite the version that served
    // them, and a pinned version never mixes old and new states.
    let snap = server.insert(UncertainObject::uniform(ObjectId(99), 24.0, 26.0)?)?;
    println!("-- vehicle 99 merged in (snapshot v{}) --", snap.version);
    let served = server.submit(25.0, spec).wait();
    println!(
        "q = 25.0: v{} answers = {:?}",
        served.snapshot_version,
        served
            .result?
            .answers
            .iter()
            .map(|id| id.0)
            .collect::<Vec<_>>()
    );

    let stats = server.shutdown();
    println!(
        "-- served {} queries across {} snapshot update(s) --",
        stats.served, stats.updates
    );
    Ok(())
}
