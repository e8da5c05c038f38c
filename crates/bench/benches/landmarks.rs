//! Criterion bench: landmark selection and full group formation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecg_bench::Scenario;
use ecg_coords::{ProbeConfig, Prober};
use ecg_core::{form, select_landmarks, FormContext, FormPlan, LandmarkSelector, SchemeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_selectors(c: &mut Criterion) {
    let network = Scenario::network_only(300, 5);
    let mut group = c.benchmark_group("landmark_selection");
    for (name, selector) in [
        ("greedy", LandmarkSelector::GreedyMaxMin),
        ("random", LandmarkSelector::Random),
        ("min_dist", LandmarkSelector::MinDist),
    ] {
        group.bench_function(name, |b| {
            let mut rng = StdRng::seed_from_u64(9);
            b.iter(|| {
                let prober = Prober::new(network.rtt_matrix(), ProbeConfig::default());
                select_landmarks(&prober, selector, 25, 4, &mut rng).expect("selection")
            })
        });
    }
    group.finish();
}

fn bench_full_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("form");
    group.sample_size(10);
    for &n in &[100usize, 300] {
        let network = Scenario::network_only(n, 6);
        for (name, scheme) in [
            ("sl", SchemeConfig::sl(n / 10)),
            ("sdsl", SchemeConfig::sdsl(n / 10, 1.0)),
        ] {
            group.bench_with_input(BenchmarkId::new(name, n), &network, |b, network| {
                let mut rng = StdRng::seed_from_u64(4);
                b.iter(|| {
                    form(
                        &FormPlan::new(network.rtt_matrix(), &scheme),
                        &mut FormContext::new(),
                        &mut rng,
                    )
                    .expect("formation")
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_selectors, bench_full_pipeline);
criterion_main!(benches);
