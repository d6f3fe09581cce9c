//! Abstract domains for the checker: iterator validity, end-position
//! knowledge, and the sortedness property lattice.
//!
//! The analysis ([`crate::interp`]) is flow-sensitive and
//! path-insensitive: branches are analyzed separately and **joined**,
//! loops are iterated to a fixpoint. All lattices here are tiny and
//! finite, so fixpoints arrive in a handful of passes.

/// Is the iterator usable at all?
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Validity {
    /// Definitely valid.
    Valid,
    /// Valid on some paths, singular on others.
    MaybeSingular,
    /// Definitely singular (invalidated or never initialized).
    Singular,
}

impl Validity {
    /// Lattice join (least upper bound towards uncertainty).
    pub fn join(self, other: Validity) -> Validity {
        if self == other {
            self
        } else {
            Validity::MaybeSingular
        }
    }
}

/// Does the iterator sit at the past-the-end position?
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AtEnd {
    /// Definitely dereferenceable (not at end).
    No,
    /// Unknown.
    Maybe,
    /// Definitely at the end.
    Yes,
}

impl AtEnd {
    /// Lattice join.
    pub fn join(self, other: AtEnd) -> AtEnd {
        if self == other {
            self
        } else {
            AtEnd::Maybe
        }
    }
}

/// The sortedness property installed/consumed by the algorithm handlers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sortedness {
    /// Known sorted (post-`sort`).
    Sorted,
    /// Known modified since any sort.
    Unsorted,
    /// No information.
    Unknown,
}

impl Sortedness {
    /// Lattice join.
    pub fn join(self, other: Sortedness) -> Sortedness {
        if self == other {
            self
        } else {
            Sortedness::Unknown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validity_join_is_commutative_and_absorbing() {
        use Validity::*;
        assert_eq!(Valid.join(Valid), Valid);
        assert_eq!(Valid.join(Singular), MaybeSingular);
        assert_eq!(Singular.join(Valid), MaybeSingular);
        assert_eq!(Singular.join(Singular), Singular);
        assert_eq!(MaybeSingular.join(Valid), MaybeSingular);
    }

    #[test]
    fn at_end_and_sortedness_joins() {
        assert_eq!(AtEnd::No.join(AtEnd::Yes), AtEnd::Maybe);
        assert_eq!(AtEnd::Maybe.join(AtEnd::Maybe), AtEnd::Maybe);
        assert_eq!(
            Sortedness::Sorted.join(Sortedness::Unsorted),
            Sortedness::Unknown
        );
        assert_eq!(
            Sortedness::Sorted.join(Sortedness::Sorted),
            Sortedness::Sorted
        );
    }
}
