//! Micro-benchmarks of the substrate primitives: crypto kernels and
//! cell and transport codecs — the inner loops every experiment rides
//! on.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use ptperf_crypto::{chacha20_xor, hmac_sha256, sha256, x25519_base, Keypair};
use ptperf_tor::{Cell, CellCommand, RelayCell, RelayCommand};

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    let data = vec![0xABu8; 16 * 1024];
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("sha256_16k", |b| b.iter(|| black_box(sha256(&data))));
    g.bench_function("hmac_sha256_16k", |b| {
        b.iter(|| black_box(hmac_sha256(b"key", &data)))
    });
    g.bench_function("chacha20_16k", |b| {
        b.iter(|| {
            let mut buf = data.clone();
            chacha20_xor(&[7u8; 32], &[9u8; 12], 0, &mut buf);
            black_box(buf)
        })
    });
    g.finish();

    let mut g = c.benchmark_group("x25519");
    g.sample_size(20);
    g.bench_function("base_mult", |b| {
        b.iter(|| black_box(x25519_base(&[5u8; 32])))
    });
    let alice = Keypair::from_secret([1u8; 32]);
    let bob = Keypair::from_secret([2u8; 32]);
    g.bench_function("diffie_hellman", |b| {
        b.iter(|| black_box(alice.diffie_hellman(&bob.public)))
    });
    g.finish();
}

fn bench_cells(c: &mut Criterion) {
    let mut g = c.benchmark_group("tor_cells");
    let relay = RelayCell::new(RelayCommand::Data, 3, vec![0x5A; 400]);
    let payload = relay.encode();
    let cell = Cell::new(7, CellCommand::Relay, &payload);
    let wire = cell.encode();
    g.bench_function("relay_cell_encode", |b| {
        b.iter(|| black_box(relay.encode()))
    });
    g.bench_function("cell_decode", |b| b.iter(|| black_box(Cell::decode(&wire))));
    g.finish();
}

fn bench_transport_codecs(c: &mut Criterion) {
    use ptperf_transports::{obfs4, shadowsocks};

    let mut g = c.benchmark_group("transport_codecs");
    let payload = vec![0xC3u8; 1400];

    g.bench_function("obfs4_frame_seal_open", |b| {
        let seed = [4u8; 32];
        b.iter(|| {
            let mut tx = obfs4::FrameCodec::derive(&seed, false);
            let mut rx = obfs4::FrameCodec::derive(&seed, false);
            let mut buf = tx.seal(&payload);
            black_box(rx.open(&mut buf).unwrap())
        })
    });
    g.bench_function("shadowsocks_chunk_seal_open", |b| {
        let key = [5u8; 32];
        let salt = [6u8; 16];
        b.iter(|| {
            let mut tx = shadowsocks::ChunkCodec::derive(&key, &salt, false);
            let mut rx = shadowsocks::ChunkCodec::derive(&key, &salt, false);
            let mut buf = tx.seal(&payload);
            black_box(rx.open(&mut buf).unwrap())
        })
    });
    g.finish();
}

criterion_group!(
    primitives,
    bench_crypto,
    bench_cells,
    bench_transport_codecs
);
criterion_main!(primitives);
