//! Real wall-clock measurement of the §7 execution-engine ladder.
//!
//! The simulation charges *virtual* time for filter interpretation; this
//! bench measures the *actual* Rust implementations, verifying the §7
//! improvement claims with real numbers: hoisting per-instruction checks
//! to bind time speeds evaluation, pre-compiling filters speeds it
//! further, and the pf-ir CFG pipeline compiles the short-circuit chains
//! down to straight-line guards. Filter lengths mirror table 6-10
//! (0/1/9/21 instructions).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pf_filter::compile::CompiledFilter;
use pf_filter::interp::CheckedInterpreter;
use pf_filter::packet::PacketView;
use pf_filter::samples;
use pf_filter::validate::ValidatedProgram;
use pf_ir::{IrFilter, ShardedVnSet};
use std::hint::black_box;

fn engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("filter_exec");
    let packet = samples::pup_packet_3mb(2, 0, 35, 50);
    let interp = CheckedInterpreter::default();

    let shapes: Vec<(String, pf_filter::program::FilterProgram)> = [0usize, 1, 9, 21]
        .iter()
        .map(|&len| (len.to_string(), samples::padded_accept_filter(10, len)))
        .chain([
            ("fig_3_8".to_string(), samples::fig_3_8_pup_type_range()),
            ("fig_3_9".to_string(), samples::fig_3_9_pup_socket_35()),
        ])
        .collect();

    for (name, program) in &shapes {
        let validated = ValidatedProgram::new(program.clone()).unwrap();
        let compiled = CompiledFilter::from_validated(validated.clone());
        let ir = IrFilter::from_validated(&validated);

        group.bench_function(BenchmarkId::new("checked", name), |b| {
            b.iter(|| interp.eval(black_box(program), PacketView::new(black_box(&packet))))
        });
        group.bench_function(BenchmarkId::new("validated", name), |b| {
            b.iter(|| validated.eval(PacketView::new(black_box(&packet))))
        });
        group.bench_function(BenchmarkId::new("compiled", name), |b| {
            b.iter(|| compiled.eval(PacketView::new(black_box(&packet))))
        });
        group.bench_function(BenchmarkId::new("ir", name), |b| {
            b.iter(|| ir.eval(PacketView::new(black_box(&packet))))
        });
    }
    group.finish();

    // Set-level: 16 socket filters in one sharded set (shared tests, one
    // shard walked per packet), against evaluating the same 16 IR filters
    // independently.
    let mut group = c.benchmark_group("filter_exec_set");
    let filters: Vec<IrFilter> = (0..16)
        .map(|i| IrFilter::compile(samples::pup_socket_filter(10, 0, i)).unwrap())
        .collect();
    let mut set = ShardedVnSet::new();
    for (i, _) in filters.iter().enumerate() {
        set.insert(i as u32, samples::pup_socket_filter(10, 0, i as u16));
    }
    group.bench_function("independent_16", |b| {
        b.iter(|| {
            filters
                .iter()
                .filter(|f| f.eval(PacketView::new(black_box(&packet))))
                .count()
        })
    });
    group.bench_function("sharded_16", |b| {
        b.iter(|| set.matches(PacketView::new(black_box(&packet))).len())
    });
    group.finish();
}

criterion_group!(benches, engines);
criterion_main!(benches);
