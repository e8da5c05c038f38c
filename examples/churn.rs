//! Fault injection and churn: crashes, brownouts, graceful degradation.
//!
//! Walks the fault subsystem end to end:
//!
//! 1. form groups with SDSL and simulate a fault-free baseline,
//! 2. script a fault plan (a crash with recovery, a permanent
//!    retirement, an origin brownout) and re-run the identical trace,
//! 3. compare healthy- vs degraded-window latency and the failover
//!    counts,
//! 4. generate *random* churn at a fixed rate and replay it through
//!    incremental group maintenance, watching interaction-cost drift.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example churn
//! ```

use edge_cache_groups::coords::ProbeConfig;
use edge_cache_groups::faults::ChurnDriver;
use edge_cache_groups::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let caches = 40;
    let duration_ms = 60_000.0;
    let mut rng = StdRng::seed_from_u64(41);

    // 1. Network, groups, workload, fault-free baseline.
    let topo = TransitStubConfig::for_caches(caches).generate(&mut rng);
    let network = EdgeNetwork::place(&topo, caches, OriginPlacement::TransitNode, &mut rng)?;
    let outcome = form(
        &FormPlan::new(network.rtt_matrix(), &SchemeConfig::sdsl(6, 1.0)),
        &mut FormContext::new(),
        &mut rng,
    )?;
    let maintainer = GroupMaintainer::new(&network, outcome.clone(), ProbeConfig::default());
    let groups = GroupMap::new(caches, outcome.groups().to_vec())?;
    let workload = SportingEventConfig::default()
        .caches(caches)
        .documents(800)
        .duration_ms(duration_ms)
        .generate(&mut rng);
    let trace = workload.merged_trace();
    let config = SimConfig::default().warmup_ms(duration_ms / 6.0);

    let sim_plan = SimPlan::new(network.rtt_matrix(), &workload.catalog, &trace).config(config);
    let baseline = simulate(&sim_plan, &groups, &mut RunContext::pooled())?;
    println!("— fault-free baseline —");
    println!("{baseline}\n");

    // 2. A scripted fault plan: cache 3 crashes 15 s in and is back 20 s
    //    later, cache 7 is retired for good, and the origin browns out
    //    (4x slower) for 10 s in the middle of the run.
    let plan = FaultPlan::new()
        .crash(CacheId(3), 15_000.0, 20_000.0)
        .retire(CacheId(7), 25_000.0)
        .brownout(30_000.0, 10_000.0, 4.0);
    let schedule = plan.schedule();
    let faulted = simulate(
        &sim_plan.faults(&schedule),
        &groups,
        &mut RunContext::pooled(),
    )?;
    println!("— same trace, with faults —");
    println!("{faulted}\n");

    // 3. How much did the faults cost?
    let deg = &faulted.metrics.degradation;
    println!(
        "latency: {:.2} ms baseline -> {:.2} ms faulted \
         (healthy windows {:.2} ms, degraded windows {:.2} ms)",
        baseline.average_latency_ms(),
        faulted.average_latency_ms(),
        deg.healthy.mean_latency_ms().unwrap_or(0.0),
        deg.degraded.mean_latency_ms().unwrap_or(0.0),
    );

    // 4. Random churn replayed through group maintenance: crashed
    //    caches leave their groups, recovered ones re-probe the
    //    landmarks and rejoin; drift tracks how far the grouping has
    //    moved from its formation-time interaction cost.
    let churn_plan = ChurnConfig::default()
        .crashes_per_hour_per_cache(20.0)
        .mean_downtime_ms(10_000.0)
        .retirement_fraction(0.1)
        .generate(caches, duration_ms, &mut rng);
    let mut driver = ChurnDriver::new(maintainer);
    driver.apply(&network, &churn_plan, &mut rng, None)?;
    println!(
        "\nchurn: {} removals, {} re-admissions, {} skipped \
         (would empty a group); max drift {:.3}",
        driver.retirements(),
        driver.readmissions(),
        driver.skipped_retirements(),
        driver.max_drift(),
    );
    for sample in driver.drift_series() {
        println!(
            "  t = {:6.1} s  drift {:.3}",
            sample.time_ms / 1000.0,
            sample.drift
        );
    }
    Ok(())
}
