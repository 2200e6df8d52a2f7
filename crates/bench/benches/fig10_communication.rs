//! Regenerates Figure 10 (communication costs) and benchmarks the
//! noisy-row generation that dominates the message volume.

use bench::{bench_context, print_tables};
use bigraph::Layer;
use criterion::{criterion_group, criterion_main, Criterion};
use datasets::DatasetCode;
use eval::experiments::fig10_communication;
use ldp::budget::PrivacyBudget;
use ldp::noisy_graph::NoisyNeighborsPacked;
use ldp::PerturbScratch;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

fn bench_fig10(c: &mut Criterion) {
    let config = fig10_communication::Config {
        context: bench_context(),
        ..Default::default()
    };
    let tables = fig10_communication::run(&config);
    print_tables("Figure 10: communication costs", &tables);

    // Kernel: generating (and sizing) one noisy row at different budgets —
    // this upload dominates every algorithm's message volume (4 bytes per
    // noisy edge).
    let dataset = config
        .context
        .catalog
        .generate(DatasetCode::TM, 1)
        .expect("TM profile exists");
    let graph = dataset.graph;
    let mut group = c.benchmark_group("fig10/noisy_list_generation_tm");
    group.sample_size(20);
    for eps in [1.0, 2.0, 3.0] {
        group.bench_function(format!("perturb_list_eps{eps}"), |b| {
            let budget = PrivacyBudget::new(eps).expect("valid budget");
            let mut rng = ChaCha12Rng::seed_from_u64(10);
            let mut scratch = PerturbScratch::new();
            b.iter(|| {
                let row = NoisyNeighborsPacked::generate_with(
                    &graph,
                    Layer::Upper,
                    0,
                    budget,
                    &mut rng,
                    &mut scratch,
                    None,
                );
                criterion::black_box(row.message_bytes())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig10);
criterion_main!(benches);
