//! Union-find (disjoint sets) with path compression and union by rank.
//!
//! Used by the interprocedural unification of Algorithm 5 — and,
//! fittingly, union-find over a `Map` is also the paper's running example
//! for identifier propagation (Listings 3–4).

/// A disjoint-set forest over `usize` elements `0..len`.
///
/// # Examples
///
/// ```
/// use ade_analysis::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// uf.union(0, 1);
/// uf.union(2, 3);
/// assert!(uf.same(0, 1));
/// assert!(!uf.same(1, 2));
/// assert_eq!(uf.class_count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Creates `len` singleton classes.
    pub fn new(len: usize) -> Self {
        Self {
            parent: (0..len).collect(),
            rank: vec![0; len],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if there are no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Adds a fresh singleton element, returning its index.
    pub fn push(&mut self) -> usize {
        let i = self.parent.len();
        self.parent.push(i);
        self.rank.push(0);
        i
    }

    /// The canonical representative of `x`'s class (with path
    /// compression).
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Representative without mutation (no compression).
    pub fn find_const(&self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        root
    }

    /// Merges the classes of `a` and `b`; returns the new representative.
    pub fn union(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => {
                self.parent[ra] = rb;
                rb
            }
            std::cmp::Ordering::Greater => {
                self.parent[rb] = ra;
                ra
            }
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
                ra
            }
        }
    }

    /// Whether `a` and `b` are in the same class.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of distinct classes.
    pub fn class_count(&self) -> usize {
        (0..self.parent.len())
            .filter(|&i| self.find_const(i) == i)
            .count()
    }

    /// Groups elements by class, returning each class as a sorted vector
    /// (classes ordered by their smallest element).
    pub fn classes(&mut self) -> Vec<Vec<usize>> {
        let mut by_root: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for i in 0..self.parent.len() {
            let r = self.find(i);
            by_root.entry(r).or_default().push(i);
        }
        let mut out: Vec<Vec<usize>> = by_root.into_values().collect();
        out.sort_by_key(|c| c[0]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_then_unions() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.class_count(), 5);
        uf.union(0, 4);
        uf.union(1, 2);
        uf.union(2, 4);
        assert!(uf.same(0, 1));
        assert!(!uf.same(0, 3));
        assert_eq!(uf.class_count(), 2);
    }

    #[test]
    fn classes_groups_sorted() {
        let mut uf = UnionFind::new(4);
        uf.union(3, 1);
        let classes = uf.classes();
        assert_eq!(classes, vec![vec![0], vec![1, 3], vec![2]]);
    }

    #[test]
    fn push_extends() {
        let mut uf = UnionFind::new(1);
        let b = uf.push();
        assert_eq!(b, 1);
        uf.union(0, b);
        assert!(uf.same(0, 1));
    }

    #[test]
    fn path_compression_preserves_roots() {
        let mut uf = UnionFind::new(100);
        for i in 1..100 {
            uf.union(i - 1, i);
        }
        let r = uf.find(0);
        for i in 0..100 {
            assert_eq!(uf.find(i), r);
        }
        assert_eq!(uf.class_count(), 1);
    }
}
