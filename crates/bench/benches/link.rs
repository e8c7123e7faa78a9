//! Criterion: link engine performance — cost of simulating the wire.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use transputer_link::{AckPolicy, DuplexLink, End, LinkEvent, LinkSpeed};

fn stream_bytes(n: u64, policy: AckPolicy) -> u64 {
    let mut link = DuplexLink::new(LinkSpeed::standard());
    let mut now = 0u64;
    let mut sent = 1u64;
    let mut acked = 0u64;
    link.send_data(End::A, 0xA5, now);
    let mut evs = Vec::new();
    while acked < n {
        evs.clear();
        link.advance(now, &mut evs);
        if evs.is_empty() {
            now = link.next_deadline().expect("active");
            continue;
        }
        for &ev in &evs {
            match ev {
                LinkEvent::DataStarted { to: End::B } if policy == AckPolicy::Early => {
                    link.send_ack(End::B, now)
                }
                LinkEvent::DataDelivered { to: End::B, .. } if policy == AckPolicy::AfterStop => {
                    link.send_ack(End::B, now)
                }
                LinkEvent::AckDelivered { to: End::A, .. } => {
                    acked += 1;
                    if sent < n {
                        link.send_data(End::A, 0xA5, now);
                        sent += 1;
                    }
                }
                _ => {}
            }
        }
    }
    now
}

fn wire_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("link");
    g.throughput(Throughput::Bytes(10_000));
    g.bench_function("stream_10k_bytes_early_ack", |b| {
        b.iter(|| black_box(stream_bytes(10_000, AckPolicy::Early)))
    });
    g.bench_function("stream_10k_bytes_late_ack", |b| {
        b.iter(|| black_box(stream_bytes(10_000, AckPolicy::AfterStop)))
    });
    g.finish();
}

criterion_group!(benches, wire_throughput);
criterion_main!(benches);
