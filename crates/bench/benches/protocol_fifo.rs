//! Bench E9/E10 — protocol-layer costs: building the optimal FIFO plan,
//! executing it on the discrete-event simulator, validating the traced
//! run against the protocol invariants, and the cost of sizing a
//! baseline plan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetero_bench::{battery_profile, params};
use hetero_protocol::{alloc, baseline, exec, validate};
use std::hint::black_box;

fn bench_protocol(c: &mut Criterion) {
    let p = params();
    let lifespan = 1000.0;

    let mut group = c.benchmark_group("protocol/fifo_plan");
    // n = 2048 battery fleets saturate the channel under Table 1
    // parameters (A·X > 1): fifo_plan correctly refuses, so the sweep
    // stops at the largest feasible size.
    for n in [4usize, 32, 256] {
        let profile = battery_profile(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &profile, |b, prof| {
            b.iter(|| black_box(alloc::fifo_plan(&p, prof, lifespan).unwrap().total_work()))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("protocol/des_execute");
    for n in [4usize, 32, 256] {
        let profile = battery_profile(n);
        let plan = alloc::fifo_plan(&p, &profile, lifespan).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(n),
            &(profile, plan),
            |b, (prof, plan)| {
                b.iter(|| {
                    let run = exec::execute(&p, prof, plan);
                    black_box(run.work_completed_by(lifespan))
                })
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("protocol/validate");
    for n in [32usize, 256] {
        let profile = battery_profile(n);
        let plan = alloc::fifo_plan(&p, &profile, lifespan).unwrap();
        let run = exec::execute(&p, &profile, &plan);
        group.bench_with_input(
            BenchmarkId::from_parameter(n),
            &(profile, run),
            |b, (prof, run)| b.iter(|| black_box(validate::validate(&p, prof, run).len())),
        );
    }
    group.finish();

    let mut group = c.benchmark_group("protocol/baseline_bisection");
    group.sample_size(10);
    let profile = battery_profile(16);
    group.bench_function("equal_split_16", |b| {
        b.iter(|| {
            black_box(
                baseline::equal_split_plan(&p, &profile, lifespan)
                    .unwrap()
                    .total_work(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_protocol);
criterion_main!(benches);
