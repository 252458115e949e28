//! Criterion micro-benchmarks for the PPV kernels and index queries,
//! including the ablations DESIGN.md §7 calls out (Jacobi vs push
//! skeleton columns; König vs greedy hub covers are covered by
//! `tables_hubs`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ppr_core::gpa::{GpaBuildOptions, GpaIndex};
use ppr_core::hgpa::{HgpaBuildOptions, HgpaIndex};
use ppr_core::power::power_iteration;
use ppr_core::push::local_ppv_push;
use ppr_core::skeleton::{skeleton_column_jacobi, skeleton_column_push};
use ppr_core::PprConfig;
use ppr_graph::CsrGraph;
use ppr_partition::kway::partition_graph_kway;
use ppr_partition::PartitionConfig;
use ppr_workload::Dataset;
use std::hint::black_box;

fn bench_graph() -> CsrGraph {
    Dataset::Web.generate_with_nodes(3_000)
}

fn kernels(c: &mut Criterion) {
    let g = bench_graph();
    let cfg = PprConfig::default();

    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);

    group.bench_function("power_iteration", |b| {
        b.iter(|| black_box(power_iteration(&g, 17, &cfg)))
    });
    group.bench_function("forward_push_local_ppv", |b| {
        b.iter(|| black_box(local_ppv_push(&g, 17, &cfg)))
    });
    group.bench_function("skeleton_column_push", |b| {
        b.iter(|| black_box(skeleton_column_push(&g, 17, &cfg)))
    });
    group.bench_function("skeleton_column_jacobi_ablation", |b| {
        b.iter(|| black_box(skeleton_column_jacobi(&g, 17, &cfg)))
    });
    group.bench_function("multilevel_partition_4way", |b| {
        b.iter(|| black_box(partition_graph_kway(&g, 4, &PartitionConfig::default())))
    });
    group.finish();
}

fn queries(c: &mut Criterion) {
    let g = bench_graph();
    let cfg = PprConfig::default();
    let gpa = GpaIndex::build(&g, &cfg, &GpaBuildOptions::default());
    let hgpa = HgpaIndex::build(&g, &cfg, &HgpaBuildOptions::default());
    let hgpa_ad = HgpaIndex::build(
        &g,
        &cfg,
        &HgpaBuildOptions {
            drop_threshold: Some(1e-4),
            ..Default::default()
        },
    );

    let mut group = c.benchmark_group("query");
    group.sample_size(20);
    group.bench_function("gpa", |b| b.iter(|| black_box(gpa.query(17))));
    group.bench_function("hgpa", |b| b.iter(|| black_box(hgpa.query(17))));
    group.bench_function("hgpa_point_query", |b| {
        b.iter(|| black_box(hgpa.query_value(17, 42)))
    });
    group.bench_function("hgpa_ad", |b| b.iter(|| black_box(hgpa_ad.query(17))));
    group.bench_function("power_iteration_baseline", |b| {
        b.iter(|| black_box(power_iteration(&g, 17, &cfg)))
    });
    group.finish();

    let mut build = c.benchmark_group("build");
    build.sample_size(10);
    let small = Dataset::Email.generate_with_nodes(1_000);
    build.bench_function("hgpa_index_1k", |b| {
        b.iter_batched(
            || (),
            |_| black_box(HgpaIndex::build(&small, &cfg, &HgpaBuildOptions::default())),
            BatchSize::PerIteration,
        )
    });
    build.finish();
}

criterion_group!(benches, kernels, queries);
criterion_main!(benches);
