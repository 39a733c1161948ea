//! Criterion microbenchmarks of the reproduction's substrates:
//! the reduction pass, the expansion pass, the PTML codec, the snapshot
//! codec, and raw machine dispatch.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use tml_core::gen::{gen_program, GenConfig};
use tml_core::Ctx;
use tml_opt::{optimize, OptOptions, RuleSet};
use tml_store::{ptml, snapshot, Object, SVal, Store};
use tml_vm::Vm;

fn bench_reduction(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizer");
    for steps in [10usize, 40, 160] {
        let (ctx, app) = gen_program(
            3,
            GenConfig {
                steps,
                ..Default::default()
            },
        );
        group.throughput(Throughput::Elements(app.size() as u64));
        group.bench_function(format!("reduce/{}nodes", app.size()), |b| {
            b.iter_batched(
                || (ctx.clone(), app.clone()),
                |(mut ctx, app)| {
                    optimize(
                        &mut ctx,
                        app,
                        &OptOptions {
                            rules: RuleSet::REDUCE_ONLY,
                            ..Default::default()
                        },
                    )
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("full/{}nodes", app.size()), |b| {
            b.iter_batched(
                || (ctx.clone(), app.clone()),
                |(mut ctx, app)| optimize(&mut ctx, app, &OptOptions::default()),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_ptml(c: &mut Criterion) {
    let mut group = c.benchmark_group("ptml");
    let (ctx, app) = gen_program(
        9,
        GenConfig {
            steps: 120,
            ..Default::default()
        },
    );
    let bytes = ptml::encode_app(&ctx, &app);
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("encode", |b| {
        b.iter(|| ptml::encode_app(&ctx, &app));
    });
    group.bench_function("decode", |b| {
        b.iter_batched(
            || ctx.clone(),
            |mut ctx| ptml::decode_app(&mut ctx, &bytes).expect("decodes"),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    let mut store = Store::new();
    for i in 0..1000 {
        store.alloc(Object::Array(vec![
            SVal::Int(i),
            SVal::from("x"),
            SVal::Bool(true),
        ]));
    }
    let bytes = snapshot::to_bytes(&store);
    let mut group = c.benchmark_group("snapshot");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("save", |b| b.iter(|| snapshot::to_bytes(&store)));
    group.bench_function("load", |b| {
        b.iter(|| snapshot::from_bytes(&bytes).expect("loads"))
    });
    group.finish();
}

fn bench_machine(c: &mut Criterion) {
    // A tight counting loop: measures raw dispatch rate.
    let src = "(Y proc(^c0 ^f ^c) (c \
        cont() (f 0) \
        cont(i) (> i 20000 cont() (halt i) cont() \
          (+ i 1 cont(e)(halt -1) cont(t) (f t)))))";
    let mut ctx = Ctx::new();
    let parsed = tml_core::parse::parse_app(&mut ctx, src).expect("parses");
    let vm = Vm::new();
    let block = vm.compile_program(&ctx, &parsed.app).expect("compiles");
    let mut group = c.benchmark_group("machine");
    group.throughput(Throughput::Elements(20_000));
    group.bench_function("dispatch/loop-iteration", |b| {
        b.iter(|| {
            let mut store = Store::new();
            vm.run_program(&mut store, block, u64::MAX).expect("runs")
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_reduction, bench_ptml, bench_snapshot, bench_machine
}
criterion_main!(benches);
