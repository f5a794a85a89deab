//! Criterion micro-benchmarks for the hot building blocks: grid
//! partitioning, frontier operations, the scatter/apply kernels, the
//! scheduler's S_seq/S_ran split, simulated-disk overhead, the CRC32
//! behind verify-on-read, and the two steps of a mutation epoch that
//! scale with the grid rather than the batch unless kept linear: parsing
//! the sealed meta and committing a batch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gsd_algos::PageRank;
use gsd_core::Scheduler;
use gsd_delta::MutationBatch;
use gsd_graph::{preprocess, GeneratorConfig, GraphKind, GridMeta, PreprocessConfig, META_KEY};
use gsd_io::{DiskModel, MemStorage, SimDisk, Storage};
use gsd_runtime::kernels::{apply_range, scatter_edges};
use gsd_runtime::{Frontier, ProgramContext};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn bench_partitioning(c: &mut Criterion) {
    let mut group = c.benchmark_group("preprocess");
    for &edges in &[100_000u64, 400_000] {
        let g = GeneratorConfig::new(GraphKind::RMat, (edges / 16) as u32, edges, 7).generate();
        group.throughput(Throughput::Elements(edges));
        group.bench_with_input(
            BenchmarkId::new("grid_partition_sort", edges),
            &g,
            |b, g| {
                b.iter(|| {
                    let store = MemStorage::new();
                    preprocess(g, &store, &PreprocessConfig::graphsd("").with_intervals(8)).unwrap()
                })
            },
        );
    }
    group.finish();
}

fn bench_frontier(c: &mut Criterion) {
    let mut group = c.benchmark_group("frontier");
    let n = 1_000_000u32;
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("insert_all", |b| {
        b.iter(|| {
            let mut f = Frontier::empty(n);
            for v in 0..n {
                f.insert(v);
            }
            f
        })
    });
    let f = Frontier::full(n);
    group.bench_function("count_full", |b| b.iter(|| f.count()));
    group.bench_function("iter_full", |b| b.iter(|| f.iter().sum::<u32>()));
    let sparse = Frontier::from_seeds(n, &(0..n).step_by(1000).collect::<Vec<_>>());
    group.bench_function("iter_sparse_0.1pct", |b| {
        b.iter(|| sparse.iter().sum::<u32>())
    });
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    let g = GeneratorConfig::new(GraphKind::RMat, 50_000, 400_000, 9).generate();
    let n = g.num_vertices();
    let ctx = ProgramContext::new(n, Arc::new(g.out_degrees()));
    let pr = PageRank::paper();
    let mut values = vec![1.0f32; n as usize];
    let mut accum = vec![0.0f32; n as usize];
    let mut touched = Frontier::empty(n);
    let edges = g.edges().to_vec();
    group.throughput(Throughput::Elements(edges.len() as u64));
    group.bench_function("scatter_pagerank_400k_edges", |b| {
        b.iter(|| scatter_edges(&pr, &ctx, &edges, None, &values, &mut accum, &mut touched))
    });
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("apply_pagerank_50k_vertices", |b| {
        b.iter(|| {
            let mut out = Frontier::empty(n);
            apply_range(
                &pr,
                &ctx,
                0..n,
                true,
                &touched,
                &mut accum,
                &mut values,
                &mut out,
            )
        })
    });
    group.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler");
    let n = 1_000_000u32;
    let degrees = vec![8u32; n as usize];
    for &active in &[1_000u32, 100_000] {
        let frontier =
            Frontier::from_seeds(n, &(0..active).map(|k| (k * 7919) % n).collect::<Vec<_>>());
        group.throughput(Throughput::Elements(active as u64));
        group.bench_with_input(
            BenchmarkId::new("benefit_evaluation", active),
            &frontier,
            |b, f| {
                b.iter(|| {
                    let mut s =
                        Scheduler::new(DiskModel::hdd(), 4 * n as u64, 64_000_000, 8, 256 << 10);
                    s.select(1, f, &degrees)
                })
            },
        );
    }
    group.finish();
}

fn bench_sim_disk(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_disk");
    let sim = SimDisk::new(DiskModel::hdd());
    sim.create("blob", &vec![0u8; 8 << 20]).unwrap();
    let mut buf = vec![0u8; 1 << 20];
    group.throughput(Throughput::Bytes(1 << 20));
    group.bench_function("read_1mib", |b| {
        let mut offset = 0u64;
        b.iter(|| {
            sim.read_at("blob", offset % (7 << 20), &mut buf).unwrap();
            offset += 1 << 20;
        })
    });
    group.finish();
}

fn bench_integrity(c: &mut Criterion) {
    let mut group = c.benchmark_group("integrity");
    let data: Vec<u8> = (0..1u32 << 20)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("crc32_1mib", |b| b.iter(|| gsd_integrity::crc32(&data)));
    group.finish();
}

fn bench_mutation_epoch(c: &mut Criterion) {
    // kron_sim at the benchmark's scale and layout: 60k vertices, 1.9M
    // edges, P = 20 degree-balanced intervals (an ~88 KB sealed meta).
    let g = GeneratorConfig::new(GraphKind::Kronecker, 60_000, 1_900_000, 505).generate();
    let store = MemStorage::new();
    let config = PreprocessConfig {
        degree_balanced: true,
        ..PreprocessConfig::graphsd("")
    }
    .with_intervals(20);
    preprocess(&g, &store, &config).unwrap();
    let meta = store.read_all(META_KEY).unwrap();

    let mut group = c.benchmark_group("graph");
    group.throughput(Throughput::Bytes(meta.len() as u64));
    group.bench_function("meta_parse", |b| {
        b.iter(|| GridMeta::from_bytes(&meta).unwrap())
    });
    group.finish();

    // 48 random inserts and 16 deletes of existing edges, as one live
    // serve round commits. Restoring the v2 meta after each commit rolls
    // the grid back to epoch 0 (the meta is the commit point), so every
    // iteration commits the same batch against the same state.
    let mut rng = ChaCha8Rng::seed_from_u64(64);
    let n = g.num_vertices();
    let mut batch = MutationBatch::new();
    for _ in 0..48 {
        batch.insert(rng.gen_range(0..n), rng.gen_range(0..n), 1.0);
    }
    for _ in 0..16 {
        let e = g.edges()[rng.gen_range(0..g.edges().len())];
        batch.delete(e.src, e.dst);
    }
    let sink = gsd_trace::null_sink();
    let mut group = c.benchmark_group("delta");
    group.throughput(Throughput::Elements(batch.ops.len() as u64));
    group.bench_function("ingest_64", |b| {
        b.iter(|| {
            gsd_delta::ingest(&store, "", &batch, sink.as_ref()).unwrap();
            store.create(META_KEY, &meta).unwrap();
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_partitioning,
    bench_frontier,
    bench_kernels,
    bench_scheduler,
    bench_sim_disk,
    bench_integrity,
    bench_mutation_epoch
);
criterion_main!(benches);
