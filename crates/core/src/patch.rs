//! Uses-to-patch analysis: the paper's Algorithm 1 (enumerated
//! collections) and Algorithm 4 (propagators).
//!
//! Given a collection *entity* — a chain root plus a nesting depth
//! (§III-G: `%x[0]` and `%x[1]` of a `Seq<Set<f32>>` are one depth-1
//! entity) — these analyses produce the `ToEnc`/`ToDec`/`ToAdd` sets of
//! use sites that must be patched with calls to the translation
//! functions `@enc`/`@dec`/`@add` (§III-B).

use std::collections::BTreeSet;

use ade_analysis::RedefChains;
use ade_ir::{Access, Function, InstId, InstKind, Scalar, Type, ValueId};

/// Where within an instruction a patched value sits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OperandPos {
    /// The `n`-th operand's base value.
    Plain(usize),
    /// The dynamic index at `step` of the `operand`-th operand's nesting
    /// path (the `op(r[k], ...)` case of Algorithm 1).
    PathIndex {
        /// Operand holding the path.
        operand: usize,
        /// Path step index.
        step: usize,
    },
    /// Every element of the `literal` at the site: one site stands for
    /// the whole table, which enters a propagator as one `insert` per
    /// element would.
    Elements,
}

/// One use site to patch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UseSite {
    /// The using instruction.
    pub inst: InstId,
    /// The position within it.
    pub pos: OperandPos,
}

impl UseSite {
    /// Convenience constructor for a plain operand use.
    pub fn plain(inst: InstId, operand: usize) -> Self {
        UseSite {
            inst,
            pos: OperandPos::Plain(operand),
        }
    }

    /// The SSA value used at this site, if it is a dynamic value
    /// (constant path indices and literal elements have no SSA value).
    pub fn value(&self, func: &Function) -> Option<ValueId> {
        let inst = func.inst(self.inst);
        match self.pos {
            OperandPos::Plain(n) => Some(inst.operands[n].base),
            OperandPos::PathIndex { operand, step } => match inst.operands[operand].path[step] {
                Access::Index(Scalar::Value(v)) => Some(v),
                _ => None,
            },
            OperandPos::Elements => None,
        }
    }
}

/// A collection entity: a redef-chain root plus a nesting depth.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CollectionEntity {
    /// Canonical chain root (allocation result or parameter).
    pub root: ValueId,
    /// Nesting depth: `0` is the collection itself, `1` its element
    /// collections, and so on.
    pub depth: usize,
}

impl CollectionEntity {
    /// The entity's own type (the collection type at `depth` below the
    /// root's type).
    ///
    /// # Panics
    ///
    /// Panics when the root's type has no collection at that depth; use
    /// [`CollectionEntity::try_ty`] for the fallible form.
    pub fn ty(&self, func: &Function) -> Type {
        self.try_ty(func).unwrap_or_else(|| {
            panic!(
                "entity depth {} below {}",
                self.depth,
                func.value_ty(self.root)
            )
        })
    }

    /// The entity's type, or `None` when the root's type has no
    /// collection at this depth.
    pub fn try_ty(&self, func: &Function) -> Option<Type> {
        func.value_ty(self.root).value_at_depth(self.depth)
    }

    /// The entity's key domain.
    pub fn key_ty(&self, func: &Function) -> Option<Type> {
        self.ty(func).key_type().cloned()
    }
}

/// The collection levels of a value of type `ty`, outermost first, each
/// with its depth: depth 0 is `ty` itself when it is a collection, and
/// each deeper level is the previous one's sequence element or map value
/// while that is a collection.
pub fn nesting(ty: &Type) -> impl Iterator<Item = (usize, Type)> + '_ {
    (0..).map_while(move |depth| ty.value_at_depth(depth).map(|t| (depth, t)))
}

/// The `ToEnc` / `ToDec` / `ToAdd` sets of Algorithms 1 and 4.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PatchSets {
    /// Sites whose value must be translated key→identifier.
    pub to_enc: BTreeSet<UseSite>,
    /// Sites whose value must be translated identifier→key.
    pub to_dec: BTreeSet<UseSite>,
    /// Sites whose value must be added to the enumeration.
    pub to_add: BTreeSet<UseSite>,
}

impl PatchSets {
    /// Adds every site of `other` (merging one member's sets into a
    /// candidate's, Algorithm 3).
    pub fn extend(&mut self, other: &PatchSets) {
        self.to_enc.extend(&other.to_enc);
        self.to_dec.extend(&other.to_dec);
        self.to_add.extend(&other.to_add);
    }

    /// Total number of sites.
    pub fn len(&self) -> usize {
        self.to_enc.len() + self.to_dec.len() + self.to_add.len()
    }

    /// Whether all sets are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// All SSA values aliasing `entity` (its redef chain at depth 0, plus
/// read-results and for-each value bindings for nested depths, each
/// closed under its own redef chain), grouped by the *level* they live
/// at: `levels[j]` holds aliases of the depth-`j` entity along the path
/// to `entity.depth`.
pub fn entity_levels(
    func: &Function,
    chains: &RedefChains,
    entity: CollectionEntity,
) -> Vec<BTreeSet<ValueId>> {
    let mut levels: Vec<BTreeSet<ValueId>> = Vec::with_capacity(entity.depth + 1);
    levels.push(
        chains
            .chain(chains.root_of(entity.root))
            .iter()
            .copied()
            .collect(),
    );
    for _ in 0..entity.depth {
        let prev = levels.last().expect("at least one level");
        let mut next: BTreeSet<ValueId> = BTreeSet::new();
        for inst_id in func.all_insts() {
            let inst = func.inst(inst_id);
            match &inst.kind {
                InstKind::Read => {
                    let op = &inst.operands[0];
                    if op.path.is_empty()
                        && prev.contains(&op.base)
                        && func.value_ty(inst.results[0]).is_collection()
                    {
                        next.extend(chains.chain(chains.root_of(inst.results[0])));
                    }
                }
                InstKind::ForEach => {
                    let op = &inst.operands[0];
                    if op.path.is_empty() && prev.contains(&op.base) {
                        let args = &func.region(inst.regions[0]).args;
                        // Map iteration binds (key, value, ...); the value
                        // aliases the nested collection.
                        if args.len() >= 2 && func.value_ty(args[1]).is_collection() {
                            next.extend(chains.chain(chains.root_of(args[1])));
                        }
                    }
                }
                _ => {}
            }
        }
        levels.push(next);
    }
    levels
}

/// How an instruction's first operand addresses entities: returns the
/// entity depth the op itself acts on, if the base sits at some level.
fn op_target_depth(
    levels: &[BTreeSet<ValueId>],
    base: ValueId,
    path_indices: usize,
) -> Option<usize> {
    for (j, level) in levels.iter().enumerate() {
        if level.contains(&base) {
            return Some(j + path_indices);
        }
    }
    None
}

fn path_index_steps(op: &ade_ir::Operand) -> usize {
    op.path
        .iter()
        .filter(|a| matches!(a, Access::Index(_)))
        .count()
}

/// Algorithm 1: uses to patch for an enumerated (key-translated)
/// associative collection entity.
pub fn uses_to_patch_keys(
    func: &Function,
    chains: &RedefChains,
    entity: CollectionEntity,
) -> PatchSets {
    let levels = entity_levels(func, chains, entity);
    let mut sets = PatchSets::default();
    for inst_id in func.all_insts() {
        let inst = func.inst(inst_id);
        let Some(op0) = inst.operands.first() else {
            continue;
        };
        let steps = path_index_steps(op0);
        // Case `op(r[k], ...)`: a path step indexing *through* our entity
        // uses one of our keys (§III-G / last case of Algorithm 1).
        if let Some(j) = levels.iter().position(|l| l.contains(&op0.base)) {
            // Path step `s` of a base at level `j` indexes with a key of
            // the depth-`j + s` entity.
            if entity.depth >= j && entity.depth - j < steps {
                let step = entity.depth - j;
                // Only collection operations address nested entities.
                if inst.kind.is_collection_update()
                    || inst.kind.is_collection_query()
                    || matches!(inst.kind, InstKind::ForEach | InstKind::UnionInto)
                {
                    sets.to_enc.insert(UseSite {
                        inst: inst_id,
                        pos: OperandPos::PathIndex { operand: 0, step },
                    });
                }
            }
        }
        // Ops acting on the entity itself.
        if op_target_depth(&levels, op0.base, steps) != Some(entity.depth) {
            continue;
        }
        match &inst.kind {
            InstKind::Read | InstKind::Has | InstKind::Remove => {
                sets.to_enc.insert(UseSite::plain(inst_id, 1));
            }
            InstKind::Write => {
                // This IR's `write` upserts (unlike the paper's Listing 1,
                // which inserts before writing), so the key may be new:
                // it must be *added*, not merely encoded.
                sets.to_add.insert(UseSite::plain(inst_id, 1));
            }
            InstKind::Insert => {
                // Set element or map key insertion enters the enumeration.
                sets.to_add.insert(UseSite::plain(inst_id, 1));
            }
            InstKind::ForEach => {
                // The bound key becomes an identifier; its uses are
                // handled through the φ-web (see `key_roots` and
                // `crate::web`), which subsumes the paper's transitive
                // `Uses(k)` and keeps identifiers flowing through loop
                // φs (Listing 4).
            }
            InstKind::UnionInto => {
                // Handled as a paired dec/add through the *source*
                // operand's site: the destination's Algorithm 1 sees the
                // incoming elements as additions...
                sets.to_add.insert(UseSite::plain(inst_id, 1));
            }
            _ => {}
        }
        // ... and the source's Algorithm 1 sees its elements leaving.
    }
    // Union sources: if an entity is the *source* of a union, its
    // elements are decoded en masse (the paper's IR lowers union to a
    // foreach+insert loop, producing exactly this ToDec/ToAdd pairing
    // that FINDREDUNDANT then trims for shared enumerations).
    for inst_id in func.all_insts() {
        let inst = func.inst(inst_id);
        if inst.kind != InstKind::UnionInto {
            continue;
        }
        let src = &inst.operands[1];
        if op_target_depth(&levels, src.base, path_index_steps(src)) == Some(entity.depth) {
            sets.to_dec.insert(UseSite::plain(inst_id, 1));
        }
    }
    sets
}

/// Algorithm 4: uses to patch for a propagator (identifier-storing
/// elements, §III-E).
///
/// Returns `None` if the entity cannot be a propagator: map entities
/// with default-initializing `insert(m, k)` operations would observe a
/// default `0` identifier that decodes to an unrelated key, so they are
/// rejected (writes — which always carry an explicit value — are fine).
pub fn uses_to_patch_propagator(
    func: &Function,
    chains: &RedefChains,
    entity: CollectionEntity,
) -> Option<PatchSets> {
    let levels = entity_levels(func, chains, entity);
    let ty = entity.ty(func);
    let mut sets = PatchSets::default();
    for inst_id in func.all_insts() {
        let inst = func.inst(inst_id);
        if let InstKind::Literal { .. } = inst.kind {
            // A literal's elements are the propagator's own: they enter
            // it as the elements of a sequence insert do.
            if entity.depth == 0 && levels[0].contains(&inst.results[0]) {
                sets.to_add.insert(UseSite {
                    inst: inst_id,
                    pos: OperandPos::Elements,
                });
            }
            continue;
        }
        let Some(op0) = inst.operands.first() else {
            continue;
        };
        let steps = path_index_steps(op0);
        if op_target_depth(&levels, op0.base, steps) != Some(entity.depth) {
            continue;
        }
        match (&inst.kind, &ty) {
            (InstKind::Read, _) => {
                // The read result becomes an identifier; uses handled via
                // the φ-web (`propagator_roots`).
            }
            (InstKind::Write, _) => {
                sets.to_add.insert(UseSite::plain(inst_id, 2));
            }
            (InstKind::Insert, Type::Map { .. }) => {
                // Default-initializing insert: cannot propagate.
                return None;
            }
            (InstKind::Insert, Type::Seq(_)) => {
                sets.to_add.insert(UseSite::plain(inst_id, 2));
            }
            (InstKind::ForEach, _) => {
                // The bound value becomes an identifier; uses handled
                // via the φ-web (`propagator_roots`).
            }
            _ => {}
        }
    }
    Some(sets)
}

/// The identifier *roots* of a key-enumerated entity: the for-each key
/// bindings over it. Their uses (transitively through φs) become `ToDec`
/// sites via [`crate::web::compute_web`].
pub fn key_roots(
    func: &Function,
    chains: &RedefChains,
    entity: CollectionEntity,
) -> BTreeSet<ValueId> {
    let levels = entity_levels(func, chains, entity);
    let mut roots = BTreeSet::new();
    for inst_id in func.all_insts() {
        let inst = func.inst(inst_id);
        if inst.kind != InstKind::ForEach {
            continue;
        }
        let op0 = &inst.operands[0];
        if op_target_depth(&levels, op0.base, path_index_steps(op0)) == Some(entity.depth) {
            roots.insert(func.region(inst.regions[0]).args[0]);
        }
    }
    roots
}

/// The identifier roots of a propagator entity: read results and
/// for-each value bindings.
pub fn propagator_roots(
    func: &Function,
    chains: &RedefChains,
    entity: CollectionEntity,
) -> BTreeSet<ValueId> {
    let levels = entity_levels(func, chains, entity);
    let mut roots = BTreeSet::new();
    for inst_id in func.all_insts() {
        let inst = func.inst(inst_id);
        let Some(op0) = inst.operands.first() else {
            continue;
        };
        if op_target_depth(&levels, op0.base, path_index_steps(op0)) != Some(entity.depth) {
            continue;
        }
        match &inst.kind {
            InstKind::Read if !func.value_ty(inst.results[0]).is_collection() => {
                roots.insert(inst.results[0]);
            }
            InstKind::ForEach => {
                let args = &func.region(inst.regions[0]).args;
                if args.len() >= 2 && !func.value_ty(args[1]).is_collection() {
                    roots.insert(args[1]);
                }
            }
            _ => {}
        }
    }
    roots
}

#[cfg(test)]
mod tests {
    use super::*;
    use ade_ir::parse::parse_function;

    fn entity_for(func: &Function, name: &str, depth: usize) -> (RedefChains, CollectionEntity) {
        let chains = RedefChains::compute(func);
        let root = func
            .values
            .iter()
            .enumerate()
            .find(|(_, v)| v.name.as_deref() == Some(name))
            .map(|(i, _)| ValueId::from_index(i))
            .expect("named value");
        let root = chains.root_of(root);
        (chains, CollectionEntity { root, depth })
    }

    const HISTOGRAM: &str = r#"
fn @count(%input: Seq<f64>) -> void {
  %hist = new Map<f64, u64>
  %out = foreach %input carry(%hist) as (%i: u64, %val: f64, %h: Map<f64, u64>) {
    %cond = has %h, %val
    %h2, %freq = if %cond then {
      %f = read %h, %val
      yield %h, %f
    } else {
      %h1 = insert %h, %val
      %zero = const 0u64
      yield %h1, %zero
    }
    %one = const 1u64
    %freq1 = add %freq, %one
    %h3 = write %h2, %val, %freq1
    yield %h3
  }
  ret
}
"#;

    #[test]
    fn algorithm1_on_listing1() {
        let f = parse_function(HISTOGRAM).expect("parses");
        let (chains, e) = entity_for(&f, "hist", 0);
        let sets = uses_to_patch_keys(&f, &chains, e);
        // has and read keys → ToEnc; insert and (upserting) write keys →
        // ToAdd; the map is never iterated → ToDec empty.
        assert_eq!(sets.to_enc.len(), 2, "{sets:?}");
        assert_eq!(sets.to_add.len(), 2, "{sets:?}");
        assert!(sets.to_dec.is_empty());
    }

    #[test]
    fn foreach_keys_flow_to_dec() {
        let f = parse_function(
            r#"
fn @f(%s: Set<u64>) -> void {
  %z = const 0u64
  %sum = foreach %s carry(%z) as (%v: u64, %acc: u64) {
    %n = add %acc, %v
    yield %n
  }
  print %sum
  ret
}
"#,
        )
        .expect("parses");
        let (chains, e) = entity_for(&f, "s", 0);
        let sets = uses_to_patch_keys(&f, &chains, e);
        // Key uses are handled via the φ-web; Algorithm 1 itself reports
        // only the iteration roots.
        assert!(sets.to_enc.is_empty() && sets.to_add.is_empty());
        let roots = key_roots(&f, &chains, e);
        assert_eq!(roots.len(), 1);
    }

    #[test]
    fn nested_entity_collects_inner_ops_and_outer_path_keys() {
        let f = parse_function(
            r#"
fn @f(%m: Map<u64, Set<u64>>) -> void {
  %k = const 1u64
  %v = const 2u64
  %m1 = insert %m, %k
  %m2 = insert %m1[%k], %v
  %inner = read %m2, %k
  %h = has %inner, %v
  print %h
  ret
}
"#,
        )
        .expect("parses");
        // Depth-1 entity: the inner sets.
        let (chains, e1) = entity_for(&f, "m", 1);
        let e1 = CollectionEntity { depth: 1, ..e1 };
        let sets = uses_to_patch_keys(&f, &chains, e1);
        // insert %m1[%k], %v → ToAdd(%v); has %inner, %v → ToEnc(%v).
        assert_eq!(sets.to_add.len(), 1, "{sets:?}");
        assert_eq!(sets.to_enc.len(), 1, "{sets:?}");
        // Depth-0 entity: outer map keys, including the path index %k.
        let (chains, e0) = entity_for(&f, "m", 0);
        let sets0 = uses_to_patch_keys(&f, &chains, e0);
        let has_path_site = sets0
            .to_enc
            .iter()
            .any(|s| matches!(s.pos, OperandPos::PathIndex { .. }));
        assert!(has_path_site, "{sets0:?}");
        // insert key → ToAdd; read key → ToEnc.
        assert_eq!(sets0.to_add.len(), 1);
    }

    #[test]
    fn union_produces_dec_add_pair() {
        let f = parse_function(
            r#"
fn @f(%a: Set<u64>, %b: Set<u64>) -> void {
  %a1 = union %a, %b
  ret
}
"#,
        )
        .expect("parses");
        let (chains, ea) = entity_for(&f, "a", 0);
        let sets_a = uses_to_patch_keys(&f, &chains, ea);
        assert_eq!(sets_a.to_add.len(), 1);
        let (chains, eb) = entity_for(&f, "b", 0);
        let sets_b = uses_to_patch_keys(&f, &chains, eb);
        assert_eq!(sets_b.to_dec.len(), 1);
        // The dec site and the add site coincide: FINDREDUNDANT will trim
        // both when the sets share an enumeration.
        assert_eq!(sets_a.to_add.iter().next(), sets_b.to_dec.iter().next());
    }

    #[test]
    fn propagator_on_union_find_listing3() {
        let f = parse_function(
            r#"
fn @find(%uf: Map<u64, u64>, %v: u64) -> u64 {
  %found = dowhile carry(%v) as (%curr: u64) {
    %parent = read %uf, %curr
    %not_done = ne %parent, %curr
    yield %not_done, %parent
  }
  ret %found
}
"#,
        )
        .expect("parses");
        let (chains, e) = entity_for(&f, "uf", 0);
        let sets = uses_to_patch_propagator(&f, &chains, e).expect("propagatable");
        // No writes → no ToAdd; decodes come from the φ-web over the
        // read-result root.
        assert!(sets.to_add.is_empty());
        let roots = propagator_roots(&f, &chains, e);
        assert_eq!(roots.len(), 1, "{roots:?}");
    }

    #[test]
    fn literal_elements_are_one_propagator_add_site() {
        let f = parse_function(
            r#"
fn @f() -> void {
  %q = literal u64 [3, 1, 3]
  %i = const 0u64
  %y = read %q, %i
  print %y
  ret
}
"#,
        )
        .expect("parses");
        let (chains, e) = entity_for(&f, "q", 0);
        let sets = uses_to_patch_propagator(&f, &chains, e).expect("propagatable");
        let sites: Vec<OperandPos> = sets.to_add.iter().map(|s| s.pos).collect();
        assert_eq!(sites, [OperandPos::Elements]);
        assert_eq!(sets.to_add.first().and_then(|s| s.value(&f)), None);
        assert_eq!(propagator_roots(&f, &chains, e).len(), 1); // %y
    }

    #[test]
    fn propagator_rejects_default_initializing_maps() {
        let f = parse_function(
            "fn @f(%m: Map<u64, u64>) -> void {\n  %k = const 1u64\n  %m1 = insert %m, %k\n  ret\n}\n",
        )
        .expect("parses");
        let (chains, e) = entity_for(&f, "m", 0);
        assert!(uses_to_patch_propagator(&f, &chains, e).is_none());
    }

    #[test]
    fn seq_propagator_collects_writes_and_reads() {
        let f = parse_function(
            r#"
fn @f(%q: Seq<u64>) -> void {
  %i = const 0u64
  %x = const 9u64
  %q1 = write %q, %i, %x
  %y = read %q1, %i
  print %y
  ret
}
"#,
        )
        .expect("parses");
        let (chains, e) = entity_for(&f, "q", 0);
        let sets = uses_to_patch_propagator(&f, &chains, e).expect("propagatable");
        assert_eq!(sets.to_add.len(), 1);
        let roots = propagator_roots(&f, &chains, e);
        assert_eq!(roots.len(), 1); // %y, whose print use the web decodes
    }
}
