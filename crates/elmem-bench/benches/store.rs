//! Memcached-substrate throughput: get/set/eviction and the two ElMem
//! patches (timestamp dump, batch import), plus the migration planner's
//! per-shard dump-and-merge path. These are the per-item costs behind the
//! §V-B2 overhead model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use elmem_store::{ImportMode, ItemMeta, SlabStore, StoreConfig};
use elmem_util::{ByteSize, DetRng, KeyId, SimTime};

fn warmed_store(items: u64) -> SlabStore {
    warmed_store_with(StoreConfig::with_memory(ByteSize::from_mib(64)), items)
}

fn warmed_store_with(config: StoreConfig, items: u64) -> SlabStore {
    let mut s = SlabStore::new(config);
    for k in 0..items {
        s.set(KeyId(k), 100, SimTime::from_nanos(k + 1)).unwrap();
    }
    s
}

fn bench_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_ops");
    let n = 100_000u64;
    let store = warmed_store(n);
    let mut rng = DetRng::seed(1);
    let keys: Vec<KeyId> = (0..10_000).map(|_| KeyId(rng.next_below(n))).collect();

    group.throughput(Throughput::Elements(keys.len() as u64));
    group.bench_function("get_hit", |b| {
        b.iter_batched(
            || store.clone(),
            |mut s| {
                let mut t = 1_000_000u64;
                for &k in &keys {
                    t += 1;
                    let _ = s.get(k, SimTime::from_nanos(t));
                }
                s.stats().hits
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("set_update", |b| {
        b.iter_batched(
            || store.clone(),
            |mut s| {
                let mut t = 1_000_000u64;
                for &k in &keys {
                    t += 1;
                    let _ = s.set(k, 100, SimTime::from_nanos(t));
                }
                s.stats().sets
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("set_with_eviction", |b| {
        b.iter_batched(
            || warmed_store(400_000), // will exceed 64 MiB -> evictions
            |mut s| {
                let mut t = 10_000_000u64;
                for i in 0..10_000u64 {
                    t += 1;
                    let _ = s.set(KeyId(1_000_000 + i), 100, SimTime::from_nanos(t));
                }
                s.stats().evictions
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_dump_and_import(c: &mut Criterion) {
    let mut group = c.benchmark_group("elmem_patches");
    for &n in &[10_000u64, 100_000] {
        let store = warmed_store(n);
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::new("timestamp_dump", n), &n, |b, _| {
            b.iter(|| store.dump_metadata().total_items())
        });

        let class = store.classes().class_for(100 + 59).unwrap();
        let incoming: Vec<ItemMeta> = (0..n / 10)
            .map(|i| ItemMeta {
                key: KeyId(10_000_000 + i),
                value_size: 100,
                last_access: SimTime::from_secs(100_000 - i),
                expires: SimTime::MAX,
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("batch_import_merge", n), &n, |b, _| {
            b.iter_batched(
                || store.clone(),
                |mut s| s.batch_import(class, &incoming, ImportMode::Merge).unwrap(),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// The planner's dump path: every shard's canonical class dumps, then the
/// merge back into one canonical dump (a concatenation of `shards` sorted
/// runs per class).
fn bench_shard_dump_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_dump_merge");
    let n = 100_000u64;
    group.throughput(Throughput::Elements(n));
    for &shards in &[1usize, 4, 8] {
        let config = StoreConfig {
            shards,
            ..StoreConfig::with_memory(ByteSize::from_mib(64))
        };
        let store = warmed_store_with(config, n);
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, _| {
            b.iter(|| {
                let parts: Vec<_> = (0..store.shard_count())
                    .map(|i| store.dump_shard_classes(i))
                    .collect();
                store.merge_shard_dumps(&parts).total_items()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ops, bench_dump_and_import, bench_shard_dump_merge
}
criterion_main!(benches);
