//! Ablation benches for two design choices: widget merging on/off (Algorithm 3 of the
//! paper) and parallel vs serial interaction mining.

use bench::{client_log, interleaved_log};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pi_core::{InteractionMapper, MapperOptions, PiOptions, PrecisionInterfaces};
use pi_graph::{GraphBuilder, WindowStrategy};
use pi_widgets::WidgetLibrary;
use std::time::Duration;

fn bench_merging(c: &mut Criterion) {
    let queries = client_log(100);
    let graph = GraphBuilder::new()
        .window(WindowStrategy::Sliding(2))
        .build(&queries);
    let mut group = c.benchmark_group("mapper_merging");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for merging in [false, true] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("merging={merging}")),
            &merging,
            |b, &merging| {
                let mapper =
                    InteractionMapper::new(WidgetLibrary::standard()).with_options(MapperOptions {
                        enable_merging: merging,
                    });
                b.iter(|| mapper.map(&graph));
            },
        );
    }
    group.finish();
}

fn bench_parallel_mining(c: &mut Criterion) {
    let queries = interleaved_log(400);
    let mut group = c.benchmark_group("parallel_mining");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for parallel in [false, true] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("parallel={parallel}")),
            &parallel,
            |b, &parallel| {
                let pipeline = PrecisionInterfaces::new(PiOptions {
                    window: WindowStrategy::Sliding(5),
                    parallel,
                    ..PiOptions::default()
                });
                b.iter(|| pipeline.mine(&queries));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_merging, bench_parallel_mining);
criterion_main!(benches);
