//! N-Triples load path throughput (the paper's §6 `COPY` + encode + split
//! pipeline equivalent), at the size of the end-to-end write workload's
//! `LOAD`: 2,000 BSBM products, about 200k triples.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rdfsum_workloads::BsbmConfig;
use std::hint::black_box;
use std::time::Duration;

fn bench_parse(c: &mut Criterion) {
    let g = rdfsum_workloads::generate_bsbm(&BsbmConfig::with_products(2_000));
    let text = rdf_io::write_graph(&g);
    let path = std::env::temp_dir().join(format!("rdfsum_bench_parsing_{}.nt", std::process::id()));
    std::fs::write(&path, &text).expect("write bench input");
    let n = g.len() as u64;

    let mut group = c.benchmark_group("ntriples");
    group.throughput(Throughput::Elements(n));
    group.bench_function("parse_graph_200k", |b| {
        b.iter(|| black_box(rdf_io::parse_graph(&text).unwrap()))
    });
    group.bench_function("load_path_200k", |b| {
        b.iter(|| black_box(rdf_io::load_path(&path).unwrap()))
    });
    group.bench_function("write_graph_200k", |b| {
        b.iter(|| black_box(rdf_io::write_graph(&g)))
    });
    group.finish();
    std::fs::remove_file(&path).ok();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_parse
}
criterion_main!(benches);
