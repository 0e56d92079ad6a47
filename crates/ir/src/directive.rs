//! Optimization directives (paper §III-I, Listing 5).
//!
//! Directives attach to collection allocations (`new` instructions) and
//! override the ADE benefit heuristic, enabling the performance
//! engineering workflow of the paper's RQ4 case study:
//!
//! ```text
//! #pragma ade enumerate noshare
//! #pragma ade noenumerate select(SwissMap)
//! #pragma ade share group("d+e group")
//! ```

/// An explicit implementation choice for the `select(...)` directive.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SelectionChoice {
    /// Chained hash table.
    Hash,
    /// Sorted array (sets only).
    Flat,
    /// Swiss table.
    Swiss,
    /// Dense bitset / bitmap (requires enumeration).
    Bit,
    /// Roaring-style compressed bitset (sets only; requires enumeration).
    SparseBit,
}

named!(SelectionChoice {
    Hash => "Hash",
    Flat => "Flat",
    Swiss => "Swiss",
    Bit => "Bit",
    SparseBit => "SparseBit",
});

/// The directives attached to one collection allocation.
///
/// # Examples
///
/// ```
/// use ade_ir::{DirectiveSet, SelectionChoice};
///
/// let d = DirectiveSet::default()
///     .with_enumerate(false)
///     .with_select(SelectionChoice::Swiss);
/// assert_eq!(d.enumerate, Some(false));
/// assert!(d.select.is_some());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DirectiveSet {
    /// `enumerate` (`Some(true)`) or `noenumerate` (`Some(false)`);
    /// `None` defers to the benefit heuristic.
    pub enumerate: Option<bool>,
    /// `noshare`: this collection must receive its own enumeration, never
    /// sharing one with other collections (the RQ4 fix for PTA).
    pub noshare: bool,
    /// `share group("name")`: all collections naming the same group share
    /// one enumeration, regardless of the benefit heuristic.
    pub share_group: Option<String>,
    /// `select(Impl)`: force a specific implementation.
    pub select: Option<SelectionChoice>,
    /// `nested(...)`: directives for the element collections one nesting
    /// level down (the RQ4 case study tunes the inner sets of
    /// `Map<ptr, Set<ptr>>` this way).
    pub nested: Option<Box<DirectiveSet>>,
}

impl DirectiveSet {
    /// No directives (heuristics decide everything).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` if no directive is set.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Sets `enumerate`/`noenumerate`.
    pub fn with_enumerate(mut self, on: bool) -> Self {
        self.enumerate = Some(on);
        self
    }

    /// Sets `noshare`.
    pub fn with_noshare(mut self) -> Self {
        self.noshare = true;
        self
    }

    /// Sets `share group(name)`.
    pub fn with_share_group(mut self, name: impl Into<String>) -> Self {
        self.share_group = Some(name.into());
        self
    }

    /// Sets `select(choice)`.
    pub fn with_select(mut self, choice: SelectionChoice) -> Self {
        self.select = Some(choice);
        self
    }

    /// Sets `nested(...)` directives for the element collections.
    pub fn with_nested(mut self, nested: DirectiveSet) -> Self {
        self.nested = Some(Box::new(nested));
        self
    }

    /// The directive set governing the collection `depth` nesting levels
    /// down (`0` is this set itself), following `nested(...)` chains.
    pub fn at_depth(&self, depth: usize) -> Option<&DirectiveSet> {
        let mut d = self;
        for _ in 0..depth {
            d = d.nested.as_deref()?;
        }
        Some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let d = DirectiveSet::new()
            .with_enumerate(true)
            .with_noshare()
            .with_share_group("g");
        assert_eq!(d.enumerate, Some(true));
        assert!(d.noshare);
        assert_eq!(d.share_group.as_deref(), Some("g"));
        assert!(!d.is_empty());
        assert!(DirectiveSet::new().is_empty());
    }

    #[test]
    fn nested_directives_chain() {
        let d = DirectiveSet::new().with_nested(DirectiveSet::new().with_noshare());
        assert!(d.nested.as_ref().expect("nested").noshare);
    }
}
