//! Deterministic synthetic input generators (SNAP / Lonestar / PARSEC
//! stand-ins, see `DESIGN.md` substitution table).
//!
//! All generators are seeded and reproducible. Node identifiers are
//! scrambled through [`scramble`] so that, as with raw SNAP files, the
//! key universe is sparse and non-contiguous — the situation that makes
//! data enumeration profitable.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A directed graph with opaque (scrambled) 64-bit node identifiers.
#[derive(Clone, Debug)]
pub struct Graph {
    /// Scrambled node identifiers (unique).
    pub nodes: Vec<u64>,
    /// Edges between scrambled identifiers.
    pub edges: Vec<(u64, u64)>,
    /// Optional positive edge weights, parallel to `edges`.
    pub weights: Option<Vec<u64>>,
}

/// SplitMix64: maps a dense index to a well-spread 64-bit identifier.
///
/// The low 48 bits are kept so identifiers stay printable and hashable
/// without loss anywhere in the pipeline.
pub fn scramble(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) & 0xffff_ffff_ffff
}

fn dedup_edges(mut edges: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    edges.retain(|(a, b)| a != b);
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// R-MAT power-law graph (the SNAP stand-in): recursive quadrant
/// sampling with the usual (0.57, 0.19, 0.19, 0.05) split.
pub fn rmat(scale: u32, avg_degree: usize, seed: u64) -> Graph {
    let n = 1usize << scale;
    let target_edges = n * avg_degree;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(target_edges);
    for _ in 0..target_edges {
        let (mut x, mut y) = (0usize, 0usize);
        let mut half = n / 2;
        while half > 0 {
            let r: f64 = rng.random();
            let (dx, dy) = if r < 0.57 {
                (0, 0)
            } else if r < 0.76 {
                (0, 1)
            } else if r < 0.95 {
                (1, 0)
            } else {
                (1, 1)
            };
            x += dx * half;
            y += dy * half;
            half /= 2;
        }
        edges.push((scramble(x as u64), scramble(y as u64)));
    }
    let edges = dedup_edges(edges);
    let nodes = (0..n as u64).map(scramble).collect();
    Graph {
        nodes,
        edges,
        weights: None,
    }
}

/// Erdős–Rényi G(n, m) graph.
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let a = rng.random_range(0..n as u64);
        let b = rng.random_range(0..n as u64);
        edges.push((scramble(a), scramble(b)));
    }
    Graph {
        nodes: (0..n as u64).map(scramble).collect(),
        edges: dedup_edges(edges),
        weights: None,
    }
}

/// Adds deterministic pseudo-random weights in `[1, max_w]`.
pub fn with_weights(mut g: Graph, max_w: u64, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    g.weights = Some(
        g.edges
            .iter()
            .map(|_| rng.random_range(1..=max_w))
            .collect(),
    );
    g
}

/// A `w × h` 2-D grid with 4-neighborhood edges (both directions).
pub fn grid2d(w: usize, h: usize) -> Graph {
    let at = |x: usize, y: usize| scramble((y * w + x) as u64);
    let mut edges = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                edges.push((at(x, y), at(x + 1, y)));
                edges.push((at(x + 1, y), at(x, y)));
            }
            if y + 1 < h {
                edges.push((at(x, y), at(x, y + 1)));
                edges.push((at(x, y + 1), at(x, y)));
            }
        }
    }
    Graph {
        nodes: (0..(w * h) as u64).map(scramble).collect(),
        edges,
        weights: None,
    }
}

/// A bipartite graph for matching: `left × right` with average degree
/// `deg` from each left node. Left ids are `scramble(i)`, right ids
/// `scramble(1_000_000 + j)` so the two sides never collide.
pub fn bipartite(left: usize, right: usize, deg: usize, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for i in 0..left {
        for _ in 0..deg {
            let j = rng.random_range(0..right as u64);
            edges.push((scramble(i as u64), scramble(1_000_000 + j)));
        }
    }
    let mut nodes: Vec<u64> = (0..left as u64).map(scramble).collect();
    nodes.extend((0..right as u64).map(|j| scramble(1_000_000 + j)));
    Graph {
        nodes,
        edges: dedup_edges(edges),
        weights: None,
    }
}

/// A transaction database (PARSEC freqmine stand-in): `n_tx` baskets
/// over `n_items` item names with a Zipf-ish popularity skew.
#[derive(Clone, Debug)]
pub struct Transactions {
    /// Item vocabulary.
    pub items: Vec<String>,
    /// Baskets of item indices (into `items`), each sorted and unique.
    pub baskets: Vec<Vec<usize>>,
}

/// Generates a transaction database.
pub fn transactions(n_tx: usize, n_items: usize, avg_len: usize, seed: u64) -> Transactions {
    let mut rng = SmallRng::seed_from_u64(seed);
    let items: Vec<String> = (0..n_items)
        .map(|i| format!("item-{:06x}", scramble(i as u64) & 0xff_ffff))
        .collect();
    let mut baskets = Vec::with_capacity(n_tx);
    for _ in 0..n_tx {
        let len = rng.random_range(1..=avg_len * 2);
        let mut basket: Vec<usize> = (0..len)
            .map(|_| {
                // Zipf-ish: square a uniform sample to favor low ranks.
                let u: f64 = rng.random();
                ((u * u) * n_items as f64) as usize % n_items
            })
            .collect();
        basket.sort_unstable();
        basket.dedup();
        baskets.push(basket);
    }
    Transactions { items, baskets }
}

/// Andersen points-to constraints (the sqlite3-bitcode stand-in for the
/// RQ4 case study): few heap objects, many pointer variables — the skew
/// that makes shared-enumeration bitsets catastrophically sparse.
#[derive(Clone, Debug)]
pub struct PtaConstraints {
    /// Pointer variable identifiers (scrambled, the large side).
    pub pointers: Vec<u64>,
    /// Heap object identifiers (scrambled, the small side).
    pub objects: Vec<u64>,
    /// `p = &obj` base constraints.
    pub address_of: Vec<(u64, u64)>,
    /// `p ⊇ q` copy constraints.
    pub copies: Vec<(u64, u64)>,
    /// `p = *q` load constraints: `∀o ∈ pts(q): pts(p) ⊇ pts(o)`.
    pub loads: Vec<(u64, u64)>,
    /// `*p = q` store constraints: `∀o ∈ pts(p): pts(o) ⊇ pts(q)`.
    pub stores: Vec<(u64, u64)>,
}

/// Generates a points-to instance with `ptrs` pointers and `objs`
/// objects (paper: ~2×10⁷ pointers vs ~1.8×10³ allocations; scaled
/// down but with the same ≫1 ratio).
pub fn pta_constraints(ptrs: usize, objs: usize, copies: usize, seed: u64) -> PtaConstraints {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pointers: Vec<u64> = (0..ptrs as u64).map(|i| scramble(2_000_000 + i)).collect();
    let objects: Vec<u64> = (0..objs as u64).map(|i| scramble(9_000_000 + i)).collect();
    let mut address_of = Vec::new();
    for (i, &p) in pointers.iter().enumerate() {
        // Roughly a third of pointers take an address directly.
        if i % 3 == 0 {
            let o = objects[rng.random_range(0..objects.len())];
            address_of.push((p, o));
        }
    }
    let mut copy_edges = Vec::with_capacity(copies);
    for _ in 0..copies {
        let a = pointers[rng.random_range(0..pointers.len())];
        let b = pointers[rng.random_range(0..pointers.len())];
        if a != b {
            copy_edges.push((a, b));
        }
    }
    copy_edges.sort_unstable();
    copy_edges.dedup();
    // Loads and stores make heap objects flow as *keys* of the points-to
    // relation — the overlap that leads ADE's heuristic to share one
    // enumeration between pointers and objects (the RQ4 pathology).
    let mut loads = Vec::new();
    let mut stores = Vec::new();
    for i in 0..(ptrs / 8).max(4) {
        let p = pointers[rng.random_range(0..pointers.len())];
        let q = pointers[rng.random_range(0..pointers.len())];
        if p != q {
            if i % 2 == 0 {
                loads.push((p, q));
            } else {
                stores.push((p, q));
            }
        }
    }
    PtaConstraints {
        pointers,
        objects,
        address_of,
        copies: copy_edges,
        loads,
        stores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scramble_is_injective_on_small_range() {
        let mut ids: Vec<u64> = (0..10_000).map(scramble).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10_000);
    }

    #[test]
    fn rmat_is_deterministic_and_skewed() {
        let a = rmat(8, 8, 42);
        let b = rmat(8, 8, 42);
        assert_eq!(a.edges, b.edges);
        assert!(a.edges.len() > 256);
        // Power-law skew: the most frequent source should dominate.
        let mut counts = std::collections::HashMap::new();
        for &(s, _) in &a.edges {
            *counts.entry(s).or_insert(0usize) += 1;
        }
        let max = counts.values().copied().max().unwrap_or(0);
        let avg = a.edges.len() / counts.len().max(1);
        assert!(max > avg * 4, "max {max} avg {avg}");
    }

    #[test]
    fn rmat_has_no_self_loops_or_duplicates() {
        let g = rmat(7, 6, 1);
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in &g.edges {
            assert_ne!(a, b);
            assert!(seen.insert((a, b)));
        }
    }

    #[test]
    fn grid_edge_count() {
        let g = grid2d(4, 3);
        // Horizontal: 3*3*2, vertical: 4*2*2.
        assert_eq!(g.edges.len(), 18 + 16);
        assert_eq!(g.nodes.len(), 12);
    }

    #[test]
    fn bipartite_sides_disjoint() {
        let g = bipartite(50, 30, 3, 7);
        let left: std::collections::HashSet<u64> = (0..50).map(scramble).collect();
        for &(l, r) in &g.edges {
            assert!(left.contains(&l));
            assert!(!left.contains(&r));
        }
    }

    #[test]
    fn weights_cover_all_edges() {
        let g = with_weights(erdos_renyi(100, 400, 3), 100, 4);
        assert_eq!(g.weights.as_ref().map(Vec::len), Some(g.edges.len()));
        assert!(g
            .weights
            .expect("weights")
            .iter()
            .all(|&w| (1..=100).contains(&w)));
    }

    #[test]
    fn transactions_deterministic_and_bounded() {
        let a = transactions(100, 50, 6, 5);
        let b = transactions(100, 50, 6, 5);
        assert_eq!(a.baskets, b.baskets);
        assert_eq!(a.items.len(), 50);
        for basket in &a.baskets {
            assert!(basket.iter().all(|&i| i < 50));
            let mut sorted = basket.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(&sorted, basket);
        }
    }

    #[test]
    fn pta_skew_holds() {
        let c = pta_constraints(2000, 20, 4000, 9);
        assert_eq!(c.pointers.len(), 2000);
        assert_eq!(c.objects.len(), 20);
        assert!(!c.address_of.is_empty());
        assert!(c.copies.len() > 1000);
        assert!(!c.loads.is_empty() && !c.stores.is_empty());
        // Pointer and object id spaces are disjoint.
        let objs: std::collections::HashSet<u64> = c.objects.iter().copied().collect();
        assert!(c.pointers.iter().all(|p| !objs.contains(p)));
    }
}
