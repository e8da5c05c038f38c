//! Trace explorer: generate, persist, reload and replay a workload.
//!
//! Demonstrates the trace tooling end to end: build a sporting-event
//! workload, write it to a trace file in the line format, read it back,
//! verify the round trip, and replay it through the simulator.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example trace_explorer
//! ```

use edge_cache_groups::prelude::*;
use edge_cache_groups::workload::{read_trace, write_trace, TraceEvent, TraceStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs::File;
use std::io::{BufReader, BufWriter};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let caches = 40;
    let mut rng = StdRng::seed_from_u64(11);

    // Generate a workload and persist its merged trace.
    let workload = SportingEventConfig::default()
        .caches(caches)
        .documents(800)
        .duration_ms(90_000.0)
        .generate(&mut rng);
    let trace = workload.merged_trace();

    let path = std::env::temp_dir().join("ecg_trace_explorer.trace");
    write_trace(BufWriter::new(File::create(&path)?), &trace)?;
    let bytes = std::fs::metadata(&path)?.len();
    println!(
        "wrote {} events ({} requests, {} updates) to {} ({bytes} bytes)",
        trace.len(),
        workload.requests.len(),
        workload.updates.len(),
        path.display()
    );

    // Read it back and confirm the round trip is lossless.
    let reloaded = read_trace(BufReader::new(File::open(&path)?))?;
    assert_eq!(reloaded, trace, "trace round-trip must be exact");
    println!("round trip verified: {} events identical", reloaded.len());

    // Summarize the trace.
    let stats = TraceStats::compute(&reloaded);
    println!(
        "stats: {} requests / {} updates over {:.0} ms; {} active caches, \
         {} distinct docs, top-10 docs take {:.1}% of requests",
        stats.requests,
        stats.updates,
        stats.span_ms,
        stats.active_caches,
        stats.distinct_docs,
        100.0 * stats.top10_share,
    );

    // Inspect the request mix.
    let mut per_cache = vec![0usize; caches];
    let mut hottest = std::collections::HashMap::new();
    for event in &reloaded {
        if let TraceEvent::Request(r) = event {
            per_cache[r.cache] += 1;
            *hottest.entry(r.doc).or_insert(0usize) += 1;
        }
    }
    let (busiest, load) = per_cache
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .expect("caches exist");
    let (hot_doc, hits) = hottest
        .iter()
        .max_by_key(|(_, &c)| c)
        .expect("requests exist");
    println!("busiest cache: Ec{busiest} with {load} requests; hottest doc: {hot_doc} with {hits} requests");

    // Replay it through the simulator on a fresh network.
    let topo = TransitStubConfig::for_caches(caches).generate(&mut rng);
    let network = EdgeNetwork::place(&topo, caches, OriginPlacement::TransitNode, &mut rng)?;
    let outcome = form(
        &FormPlan::new(network.rtt_matrix(), &SchemeConfig::sl(5)),
        &mut FormContext::new(),
        &mut rng,
    )?;
    let groups = GroupMap::new(caches, outcome.groups().to_vec())?;
    let plan = SimPlan::new(network.rtt_matrix(), &workload.catalog, &reloaded);
    let report = simulate(&plan, &groups, &mut RunContext::pooled())?;
    println!(
        "replay: avg latency {:.2} ms, group hit rate {:.1}%, {} origin fetches, {} updates applied",
        report.average_latency_ms(),
        100.0 * report.metrics.group_hit_rate().unwrap_or(0.0),
        report.origin_fetches,
        report.origin_updates,
    );

    std::fs::remove_file(&path).ok();
    Ok(())
}
