//! FIM: Apriori frequent-itemset mining to pair level (PARSEC
//! `freqmine`).
//!
//! Items are *strings* — the string-interning motivation of §II. Item
//! counts use `Map<str, u64>`, frequent items a `Set<str>`, and pair
//! counts the nested `Map<str, Map<str, u64>>`. A verbose-output map is
//! populated but never read (verbose output disabled, as with the PARSEC
//! input) — the cold collection behind the paper's FIM memory regression
//! (Fig. 5c: +27.3%).

use ade_ir::builder::FunctionBuilder;
use ade_ir::{CmpOp, Module, Operand, Scalar, Type};

use crate::gen;

const MIN_SUPPORT: u64 = 4;

pub(super) fn build(scale: u32) -> Module {
    let n_tx = 1usize << scale;
    let db = gen::transactions(n_tx, (n_tx / 2).max(16), 6, 0xF13);
    let mut b = FunctionBuilder::new("main", &[], Type::Void);

    // Flattened baskets: item strings plus basket start offsets.
    let mut flat: Vec<&str> = Vec::new();
    let mut starts: Vec<u64> = Vec::new();
    for basket in &db.baskets {
        starts.push(flat.len() as u64);
        for &i in basket {
            flat.push(&db.items[i]);
        }
    }
    starts.push(flat.len() as u64);
    let items_flat = b.literal(&flat[..]);
    let starts = b.literal(&starts[..]);

    b.roi_begin();
    // L1: item counts, plus the cold verbose map (first occurrence
    // position per item — written, never read).
    let counts = b.new_collection(Type::map(Type::Str, Type::U64));
    let verbose = b.new_collection(Type::map(Type::Str, Type::U64));
    let l1 = b.for_each(items_flat, &[counts, verbose], |b, i, s, c| {
        let s = s.expect("seq elem");
        let known = b.has(c[0], s);
        let cur = b.if_else(known, |b| vec![b.read(c[0], s)], |b| vec![b.const_u64(0)]);
        let one = b.const_u64(1);
        let c1 = b.add(cur[0], one);
        let counts2 = b.write(c[0], s, c1);
        let seen = b.has(c[1], s);
        let verbose2 = b.if_else(seen, |_b| vec![c[1]], |b| vec![b.write(c[1], s, i)]);
        vec![counts2, verbose2[0]]
    });
    let (counts, _verbose) = (l1[0], l1[1]);

    // Frequent single items.
    let minsup = b.const_u64(MIN_SUPPORT);
    let freq1 = b.new_collection(Type::set(Type::Str));
    let freq1 = b.for_each(counts, &[freq1], |b, item, cnt, c| {
        let cnt = cnt.expect("map value");
        let keep = b.cmp(CmpOp::Ge, cnt, minsup);

        b.if_else(keep, |b| vec![b.insert(c[0], item)], |_b| vec![c[0]])
    })[0];

    // L2: pair counts over frequent items, nested map keyed by the
    // lexicographically ordered pair.
    let pairs = b.new_collection(Type::map(Type::Str, Type::map(Type::Str, Type::U64)));
    let n_baskets = b.size(starts);
    let one = b.const_u64(1);
    let n_baskets = b.sub(n_baskets, one);
    let zero = b.const_u64(0);
    let pairs = b.for_range(zero, n_baskets, &[pairs], |b, t, c| {
        let lo = b.read(starts, t);
        let one = b.const_u64(1);
        let t1 = b.add(t, one);
        let hi = b.read(starts, t1);

        b.for_range(lo, hi, &[c[0]], |b, i, pc| {
            let a = b.read(items_flat, i);
            let fa = b.has(freq1, a);

            b.if_else(
                fa,
                |b| {
                    let one = b.const_u64(1);
                    let i1 = b.add(i, one);

                    b.for_range(i1, hi, &[pc[0]], |b, j, qc| {
                        let bb = b.read(items_flat, j);
                        let fb = b.has(freq1, bb);

                        b.if_else(
                            fb,
                            |b| {
                                // Baskets are sorted, so (a, bb) is
                                // already ordered.
                                let slot = b.insert(qc[0], a);
                                let known = b.has(Operand::nested(slot, Scalar::Value(a)), bb);
                                let cur = b.if_else(
                                    known,
                                    |b| {
                                        let r = b.read(Operand::nested(slot, Scalar::Value(a)), bb);
                                        vec![r]
                                    },
                                    |b| vec![b.const_u64(0)],
                                );
                                let one = b.const_u64(1);
                                let c2 = b.add(cur[0], one);
                                let w = b.write(Operand::nested(slot, Scalar::Value(a)), bb, c2);
                                vec![w]
                            },
                            |_b| vec![qc[0]],
                        )
                    })
                },
                |_b| vec![pc[0]],
            )
        })
    })[0];

    // Count frequent pairs (order-free aggregation).
    let freq_items = b.size(freq1);
    let totals = b.for_each(pairs, &[zero, zero], |b, _a, inner, c| {
        let inner = inner.expect("map value");

        b.for_each(inner, &[c[0], c[1]], |b, _bb, cnt, ic| {
            let cnt = cnt.expect("map value");
            let keep = b.cmp(CmpOp::Ge, cnt, minsup);
            let fp = b.if_else(
                keep,
                |b| {
                    let one = b.const_u64(1);
                    vec![b.add(ic[0], one)]
                },
                |_b| vec![ic[0]],
            );
            let sum = b.add(ic[1], cnt);
            vec![fp[0], sum]
        })
    });
    b.roi_end();

    b.print(&[freq_items, totals[0], totals[1]]);
    b.ret_void();

    let mut module = Module::new();
    module.add_function(b.finish());
    module
}

#[cfg(test)]
mod tests {
    use ade_interp::{ExecConfig, Interpreter};

    #[test]
    fn fim_finds_frequent_items_and_pairs() {
        let m = super::build(7);
        let out = Interpreter::new(&m, ExecConfig::default())
            .run("main")
            .expect("runs");
        let mut parts = out.output.split_whitespace();
        let items: u64 = parts.next().expect("items").parse().expect("number");
        let pairs: u64 = parts.next().expect("pairs").parse().expect("number");
        assert!(items > 0, "{}", out.output);
        let _ = pairs;
    }
}
