//! Microbenchmarks of the wire format: parse and deparse costs on the
//! packet paths the switch and end hosts execute per query.

use criterion::{criterion_group, criterion_main, Criterion};
use netcache_proto::{Key, Op, Packet, Value};
use std::hint::black_box;

fn bench_proto(c: &mut Criterion) {
    let mut group = c.benchmark_group("proto");

    let get = Packet::get_query(1, 0x0a00_0001, 0x0a00_0101, Key::from_u64(7), 1);
    let get_bytes = get.deparse();
    group.bench_function("parse_get", |b| {
        b.iter(|| black_box(Packet::parse(black_box(&get_bytes)).expect("valid")))
    });
    group.bench_function("deparse_get", |b| b.iter(|| black_box(get.deparse())));

    let reply = get
        .clone()
        .into_reply(Op::GetReplyHit, Some(Value::filled(7, 128)));
    let reply_bytes = reply.deparse();
    group.bench_function("parse_reply_128B", |b| {
        b.iter(|| black_box(Packet::parse(black_box(&reply_bytes)).expect("valid")))
    });
    group.bench_function("deparse_reply_128B", |b| {
        b.iter(|| black_box(reply.deparse()))
    });

    group.bench_function("into_reply_swap", |b| {
        b.iter(|| {
            black_box(
                get.clone()
                    .into_reply(Op::GetReplyHit, Some(Value::filled(7, 128))),
            )
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_proto
}
criterion_main!(benches);
