//! Criterion micro-benchmarks for the graph constructors (the
//! construction stage of Fig. 1).

use criterion::{criterion_group, criterion_main, Criterion};
use pgb_datasets::Dataset;
use pgb_models::hrg::Dendrogram;
use pgb_models::{
    barabasi_albert, bter, chung_lu, configuration_model, erdos_renyi_gnp, havel_hakimi,
    watts_strogatz, BterParams, Initiator, KroneckerModel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("models");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(800));

    group.bench_function("er_gnp_5k_p001", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| erdos_renyi_gnp(5_000, 0.01, &mut rng))
    });

    group.bench_function("ba_5k_m4", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| barabasi_albert(5_000, 4, &mut rng))
    });

    let weights: Vec<f64> = (0..5_000).map(|i| 2.0 + (i % 30) as f64).collect();
    group.bench_function("chung_lu_5k", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| chung_lu(&weights, &mut rng))
    });

    let degrees: Vec<u32> = (0..5_000).map(|i| 2 + (i % 12) as u32).collect();
    group.bench_function("bter_5k", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| bter(&degrees, &BterParams::default(), &mut rng))
    });

    group.bench_function("config_model_5k", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| configuration_model(&degrees, &mut rng))
    });

    group.bench_function("havel_hakimi_5k", |b| b.iter(|| havel_hakimi(&degrees)));

    group.bench_function("watts_strogatz_5k", |b| {
        let mut rng = StdRng::seed_from_u64(6);
        b.iter(|| watts_strogatz(5_000, 6, 0.1, &mut rng))
    });

    let skg = KroneckerModel { initiator: Initiator::new(0.9, 0.45, 0.25), k: 13 };
    group.bench_function("kronecker_fast_8k", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| skg.sample_fast(&mut rng))
    });

    group.bench_function("hrg_mcmc_10k_steps", |b| {
        let mut rng = StdRng::seed_from_u64(8);
        let g = erdos_renyi_gnp(500, 0.02, &mut rng);
        b.iter(|| {
            let mut d = Dendrogram::from_graph(&g, &mut rng);
            for _ in 0..10_000 {
                d.mcmc_step(&g, 1.0, &mut rng);
            }
            d
        })
    });

    // ER(500, 0.02) above keeps the dendrogram shallow; Facebook's stand-in
    // drives it deep, with subtrees of hundreds of leaves. ε = 1 gives
    // PrivHRG's factor ε₁ / (4 ln n) with ε₁ = ε / 2.
    let facebook = Dataset::Facebook.generate(0);
    let factor = 0.5 / (4.0 * (facebook.node_count() as f64).ln());
    group.bench_function("hrg_mcmc_facebook_40k_steps", |b| {
        let mut rng = StdRng::seed_from_u64(9);
        b.iter(|| {
            let mut d = Dendrogram::from_graph(&facebook, &mut rng);
            for _ in 0..40_000 {
                d.mcmc_step(&facebook, factor, &mut rng);
            }
            d
        })
    });

    group.finish();
}

criterion_group!(benches, bench_models);
criterion_main!(benches);
