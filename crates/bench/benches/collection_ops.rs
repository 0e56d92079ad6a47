//! Table III microbenchmarks: per-operation cost of each collection
//! implementation, measured natively with criterion.
//!
//! The paper benches insert/remove/iterate/union for sets and
//! read/write/insert/remove/iterate for maps, relative to
//! `Hash{Set,Map}`. Workload: 16k keys drawn from a 128k universe;
//! dense implementations receive the enumerated, contiguous equivalent —
//! that is the whole point of ADE.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ade_collections::{
    BitMap, ChainedHashMap, ChainedHashSet, DynamicBitSet, FlatSet, SparseBitSet, SwissMap,
    SwissSet,
};

const N: usize = 1 << 14;
const UNIVERSE: u64 = N as u64 * 8;

fn keys() -> Vec<u64> {
    // Deterministic scrambled keys in [0, UNIVERSE).
    (0..N as u64)
        .map(|i| {
            let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z % UNIVERSE
        })
        .collect()
}

/// Enumerated identifiers for the same keys: dense `[0, n)`.
fn ids() -> Vec<usize> {
    (0..N).collect()
}

fn set_insert(c: &mut Criterion) {
    let keys = keys();
    let ids = ids();
    let mut g = c.benchmark_group("set_insert");
    g.bench_function(BenchmarkId::new("HashSet", N), |b| {
        b.iter(|| {
            let mut s = ChainedHashSet::new();
            for &k in &keys {
                s.insert(black_box(k));
            }
            s.len()
        })
    });
    g.bench_function(BenchmarkId::new("SwissSet", N), |b| {
        b.iter(|| {
            let mut s = SwissSet::new();
            for &k in &keys {
                s.insert(black_box(k));
            }
            s.len()
        })
    });
    g.bench_function(BenchmarkId::new("BitSet", N), |b| {
        b.iter(|| {
            let mut s = DynamicBitSet::new();
            for &i in &ids {
                s.insert(black_box(i));
            }
            s.len()
        })
    });
    g.bench_function(BenchmarkId::new("SparseBitSet", N), |b| {
        b.iter(|| {
            let mut s = SparseBitSet::new();
            for &i in &ids {
                s.insert(black_box(i));
            }
            s.len()
        })
    });
    g.finish();
}

fn set_iterate(c: &mut Criterion) {
    let keys = keys();
    let hash: ChainedHashSet<u64> = keys.iter().copied().collect();
    let swiss: SwissSet<u64> = keys.iter().copied().collect();
    let flat: FlatSet<u64> = keys.iter().copied().collect();
    // Enumerated sets iterate identifiers sparse *in the id universe* at
    // the same 1/8 occupancy the hashed keys have in theirs.
    let bit: DynamicBitSet = keys.iter().map(|&k| k as usize).collect();
    let sparse: SparseBitSet = keys.iter().map(|&k| k as usize).collect();
    let mut g = c.benchmark_group("set_iterate");
    g.bench_function("HashSet", |b| {
        b.iter(|| hash.iter().fold(0u64, |a, &v| a.wrapping_add(v)))
    });
    g.bench_function("SwissSet", |b| {
        b.iter(|| swiss.iter().fold(0u64, |a, &v| a.wrapping_add(v)))
    });
    g.bench_function("FlatSet", |b| {
        b.iter(|| flat.iter().fold(0u64, |a, &v| a.wrapping_add(v)))
    });
    g.bench_function("BitSet", |b| {
        b.iter(|| bit.iter().fold(0u64, |a, v| a.wrapping_add(v as u64)))
    });
    g.bench_function("SparseBitSet", |b| {
        b.iter(|| sparse.iter().fold(0u64, |a, v| a.wrapping_add(v as u64)))
    });
    g.finish();
}

fn set_union(c: &mut Criterion) {
    let keys = keys();
    let (left, right) = keys.split_at(N / 2);
    let mut g = c.benchmark_group("set_union");
    g.bench_function("HashSet", |b| {
        let dst: ChainedHashSet<u64> = left.iter().copied().collect();
        let src: ChainedHashSet<u64> = right.iter().copied().collect();
        b.iter(|| {
            let mut d = dst.clone();
            for v in src.iter() {
                d.insert(*v);
            }
            d.len()
        })
    });
    g.bench_function("FlatSet", |b| {
        let dst: FlatSet<u64> = left.iter().copied().collect();
        let src: FlatSet<u64> = right.iter().copied().collect();
        b.iter(|| {
            let mut d = dst.clone();
            d.union_with(&src);
            d.len()
        })
    });
    g.bench_function("BitSet", |b| {
        let dst: DynamicBitSet = left.iter().map(|&k| k as usize).collect();
        let src: DynamicBitSet = right.iter().map(|&k| k as usize).collect();
        b.iter(|| {
            let mut d = dst.clone();
            d.union_with(&src);
            d.len()
        })
    });
    g.bench_function("SparseBitSet", |b| {
        let dst: SparseBitSet = left.iter().map(|&k| k as usize).collect();
        let src: SparseBitSet = right.iter().map(|&k| k as usize).collect();
        b.iter(|| {
            let mut d = dst.clone();
            d.union_with(&src);
            d.len()
        })
    });
    g.finish();
}

fn map_read_write(c: &mut Criterion) {
    let keys = keys();
    let hash: ChainedHashMap<u64, u64> = keys.iter().map(|&k| (k, k + 1)).collect();
    let swiss: SwissMap<u64, u64> = keys.iter().map(|&k| (k, k + 1)).collect();
    let bit: BitMap<u64> = ids().into_iter().map(|i| (i, i as u64 + 1)).collect();
    let mut g = c.benchmark_group("map_read");
    g.bench_function("HashMap", |b| {
        b.iter(|| {
            keys.iter()
                .map(|k| *hash.get(black_box(k)).expect("present"))
                .fold(0u64, u64::wrapping_add)
        })
    });
    g.bench_function("SwissMap", |b| {
        b.iter(|| {
            keys.iter()
                .map(|k| *swiss.get(black_box(k)).expect("present"))
                .fold(0u64, u64::wrapping_add)
        })
    });
    g.bench_function("BitMap", |b| {
        b.iter(|| {
            (0..N)
                .map(|i| *bit.get(black_box(i)).expect("present"))
                .fold(0u64, u64::wrapping_add)
        })
    });
    g.finish();

    let mut g = c.benchmark_group("map_write");
    g.bench_function("HashMap", |b| {
        b.iter(|| {
            let mut m = hash.clone();
            for &k in &keys {
                m.insert(black_box(k), 9);
            }
            m.len()
        })
    });
    g.bench_function("SwissMap", |b| {
        b.iter(|| {
            let mut m = swiss.clone();
            for &k in &keys {
                m.insert(black_box(k), 9);
            }
            m.len()
        })
    });
    g.bench_function("BitMap", |b| {
        b.iter(|| {
            let mut m = bit.clone();
            for i in 0..N {
                m.insert(black_box(i), 9);
            }
            m.len()
        })
    });
    g.finish();
}

criterion_group!(benches, set_insert, set_iterate, set_union, map_read_write);
criterion_main!(benches);
