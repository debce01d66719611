//! Metadata dumps: the "timestamp dump" modification ElMem adds to
//! Memcached (§V-A1), used in migration phase 1 (§III-D1).

use elmem_util::ByteSize;
use serde::{Deserialize, Serialize};

use crate::classes::ClassId;
use crate::item::{ItemMeta, KEY_BYTES, TIMESTAMP_BYTES};

/// MRU-ordered metadata of one slab class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassDump {
    /// Which class this dump describes.
    pub class: ClassId,
    /// Items in MRU (hottest-first) order.
    pub items: Vec<ItemMeta>,
}

impl ClassDump {
    /// Wraps an MRU-ordered item list, canonicalizing the order to strictly
    /// descending [hotness](crate::Hotness).
    ///
    /// The store's MRU list is ordered by *access recency*; items touched in
    /// the same instant may appear in either order there. Dumps are the
    /// interchange format between nodes, so they re-sort by full hotness
    /// (timestamp + tie-break). This is the one place that defines the
    /// canonical class order: shard merges and batch imports build theirs
    /// through it too.
    ///
    /// The sort is the standard library's *stable* sort, which detects
    /// natural runs and merges them: O(n) on an already-sorted MRU list (the
    /// common case) and O(n log k) on k concatenated sorted runs, such as the
    /// per-shard dumps of one class. Hotness is a total order over distinct
    /// keys, so the result is the unique descending order of the input.
    pub fn new(class: ClassId, mut items: Vec<ItemMeta>) -> Self {
        canonicalize(&mut items);
        ClassDump { class, items }
    }

    /// Number of items in the dump.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the dump holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Bytes this dump occupies on the wire during the metadata-transfer
    /// phase: key (11 B) + timestamp (10 B) per item — values are *not*
    /// shipped in phase 1 (§III-D1).
    pub fn wire_bytes(&self) -> ByteSize {
        ByteSize((KEY_BYTES + TIMESTAMP_BYTES) * self.items.len() as u64)
    }
}

/// Sorts `items` into descending hotness. Stable on purpose: the unstable
/// sort does not merge presorted runs.
fn canonicalize(items: &mut [ItemMeta]) {
    items.sort_by_key(|i| std::cmp::Reverse(i.hotness()));
}

/// Metadata dump of a whole store (all non-empty classes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct MetadataDump {
    /// Per-class dumps.
    pub classes: Vec<ClassDump>,
}

impl MetadataDump {
    /// Wraps a set of per-class dumps.
    pub fn new(classes: Vec<ClassDump>) -> Self {
        MetadataDump { classes }
    }

    /// Total items across all classes.
    pub fn total_items(&self) -> u64 {
        self.classes.iter().map(|c| c.items.len() as u64).sum()
    }

    /// Total wire bytes of the metadata transfer.
    pub fn wire_bytes(&self) -> ByteSize {
        self.classes.iter().map(|c| c.wire_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmem_util::{KeyId, SimTime};

    fn item(k: u64, ts: u64) -> ItemMeta {
        ItemMeta {
            key: KeyId(k),
            value_size: 10,
            last_access: SimTime::from_secs(ts),
            expires: SimTime::MAX,
        }
    }

    #[test]
    fn wire_bytes_is_21_per_item() {
        let d = ClassDump::new(ClassId(0), vec![item(1, 1), item(2, 2)]);
        assert_eq!(d.wire_bytes().as_u64(), 42);
    }

    #[test]
    fn metadata_dump_totals() {
        let d = MetadataDump::new(vec![
            ClassDump::new(ClassId(0), vec![item(1, 1)]),
            ClassDump::new(ClassId(1), vec![item(2, 2), item(3, 3)]),
        ]);
        assert_eq!(d.total_items(), 3);
        assert_eq!(d.wire_bytes().as_u64(), 63);
    }

    /// The canonical-order spec, checked without sorting: `out` is strictly
    /// descending by hotness and holds exactly the keys of `input`.
    fn assert_canonical(input: &[ItemMeta], out: &[ItemMeta]) {
        for w in out.windows(2) {
            assert!(
                w[0].hotness() > w[1].hotness(),
                "not strictly descending at keys {} → {}",
                w[0].key,
                w[1].key
            );
        }
        let multiset = |items: &[ItemMeta]| {
            let mut counts = std::collections::BTreeMap::<u64, usize>::new();
            for i in items {
                *counts.entry(i.key.0).or_default() += 1;
            }
            counts
        };
        assert_eq!(
            multiset(out),
            multiset(input),
            "not a permutation of the input"
        );
    }

    /// `items` split round-robin into `k` parts, each canonicalized on its
    /// own and then concatenated: the shape of a class's per-shard dumps
    /// before the shard merge.
    fn concatenated_runs(items: &[ItemMeta], k: usize) -> Vec<ItemMeta> {
        (0..k)
            .flat_map(|r| {
                let part = items.iter().skip(r).step_by(k).copied().collect();
                ClassDump::new(ClassId(0), part).items
            })
            .collect()
    }

    #[test]
    fn sorted_input_is_untouched() {
        let items: Vec<ItemMeta> = (0..100).map(|k| item(k, 1000 - k)).collect();
        let d = ClassDump::new(ClassId(0), items.clone());
        assert_eq!(d.items, items, "descending input must pass through as-is");
    }

    #[test]
    fn nearly_sorted_inputs_are_canonicalized() {
        // Mostly descending with a handful of local swaps — the
        // same-instant multi-get pattern.
        let mut items: Vec<ItemMeta> = (0..200).map(|k| item(k, 2000 - k)).collect();
        items.swap(10, 11);
        items.swap(50, 51);
        items.swap(120, 121);
        assert_canonical(&items, &ClassDump::new(ClassId(0), items.clone()).items);

        // k concatenated descending runs (a shard merge), with interleaved
        // timestamps and with every item sharing one timestamp. Either way
        // the result equals the single-shot dump of the same items.
        let spread: Vec<ItemMeta> = (0..400).map(|k| item(k, 5000 - k)).collect();
        let flat: Vec<ItemMeta> = (0..400).map(|k| item(k, 7)).collect();
        for base in [spread, flat] {
            let whole = ClassDump::new(ClassId(0), base.clone()).items;
            for k in [2, 4, 8] {
                let runs = concatenated_runs(&base, k);
                let d = ClassDump::new(ClassId(0), runs.clone());
                assert_canonical(&runs, &d.items);
                assert_eq!(d.items, whole, "{k} runs merge to the one canonical order");
            }
        }
    }

    #[test]
    fn long_distance_displacement_fixed() {
        // One very hot item buried at the tail: a single inversion that
        // must travel the whole list.
        let mut items: Vec<ItemMeta> = (0..100).map(|k| item(k, 1000 - k)).collect();
        items.push(item(999, 5000));
        let d = ClassDump::new(ClassId(0), items.clone());
        assert_canonical(&items, &d.items);
        assert_eq!(d.items[0].key.0, 999);
    }

    #[test]
    fn ascending_input_is_reversed() {
        // Every adjacent pair is an inversion.
        let items: Vec<ItemMeta> = (0..500).map(|k| item(k, k + 1)).collect();
        let d = ClassDump::new(ClassId(0), items.clone());
        assert_canonical(&items, &d.items);
        assert!(d.items.iter().rev().eq(items.iter()));
    }

    #[test]
    fn same_instant_ties_break_canonically() {
        // All items share a timestamp: order is decided purely by the
        // hotness tie-break, whatever order the MRU list had.
        let fwd: Vec<ItemMeta> = (0..50).map(|k| item(k, 7)).collect();
        let rev: Vec<ItemMeta> = (0..50).rev().map(|k| item(k, 7)).collect();
        let a = ClassDump::new(ClassId(0), fwd.clone());
        let b = ClassDump::new(ClassId(0), rev);
        assert_eq!(a.items, b.items, "canonical order is input-order-free");
        assert_canonical(&fwd, &a.items);
    }

    #[test]
    fn empty_dump() {
        let d = MetadataDump::default();
        assert_eq!(d.total_items(), 0);
        assert_eq!(d.wire_bytes(), ByteSize::ZERO);
        assert!(ClassDump::new(ClassId(0), vec![]).is_empty());
    }
}
