//! Criterion bench: simulator replay throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ecg_bench::Scenario;
use ecg_core::{form, FormContext, FormPlan, SchemeConfig};
use ecg_sim::{simulate, GroupMap, RunContext};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator_replay");
    group.sample_size(10);
    for &caches in &[50usize, 150] {
        let scenario = Scenario::build(caches, 60_000.0, 13);
        let mut rng = StdRng::seed_from_u64(2);
        let outcome = form(
            &FormPlan::new(
                scenario.network.rtt_matrix(),
                &SchemeConfig::sl(caches / 10),
            ),
            &mut FormContext::new(),
            &mut rng,
        )
        .expect("formation");
        let map = GroupMap::new(caches, outcome.groups().to_vec()).expect("groups");
        let config = scenario.sim_config(60_000.0);
        group.throughput(Throughput::Elements(scenario.trace.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(caches),
            &scenario,
            |b, scenario| {
                let plan = scenario.plan(config);
                b.iter(|| simulate(&plan, &map, &mut RunContext::serial()).expect("simulation"))
            },
        );
    }
    group.finish();
}

fn bench_workload_generation(c: &mut Criterion) {
    use ecg_workload::SportingEventConfig;
    let mut group = c.benchmark_group("workload_generate");
    group.sample_size(10);
    group.bench_function("sporting_event_100c_60s", |b| {
        b.iter(|| {
            SportingEventConfig::default()
                .caches(100)
                .duration_ms(60_000.0)
                .generate(&mut StdRng::seed_from_u64(3))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_replay, bench_workload_generation);
criterion_main!(benches);
