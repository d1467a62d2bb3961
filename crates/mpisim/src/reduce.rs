//! Reduction operand types, including the MINLOC/MAXLOC pairs the solver
//! uses to agree on the globally worst KKT violators.
//!
//! Each pair's comparison is defined once (`displaces`); the plain
//! combines and the fused, payload-carrying candidate round in
//! [`crate::collectives`] both select through it, so they cannot disagree
//! on a winner.

/// A `(value, index)` pair reduced by MINLOC: the smallest value wins and
/// ties break towards the smaller index, making the reduction fully
/// deterministic regardless of rank arrival order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MinLoc {
    /// The value being minimized.
    pub value: f64,
    /// A global identifier (sample index) carried with the value.
    pub index: u64,
}

/// A `(value, index)` pair reduced by MAXLOC (largest value wins, ties break
/// towards the smaller index).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MaxLoc {
    /// The value being maximized.
    pub value: f64,
    /// A global identifier (sample index) carried with the value.
    pub index: u64,
}

impl MinLoc {
    /// The identity element (`+∞`, max index) — loses to everything.
    pub fn identity() -> Self {
        MinLoc {
            value: f64::INFINITY,
            index: u64::MAX,
        }
    }

    /// Whether `b` wins over `a`: a smaller value, or an equal value at a
    /// smaller index. An exact tie does not, so a combine keeps its left
    /// operand.
    #[inline]
    pub(crate) fn displaces(b: MinLoc, a: MinLoc) -> bool {
        b.value < a.value || (b.value == a.value && b.index < a.index)
    }

    /// Combine two candidates.
    #[inline]
    pub fn combine(a: MinLoc, b: MinLoc) -> MinLoc {
        if MinLoc::displaces(b, a) {
            b
        } else {
            a
        }
    }

    pub(crate) fn encode(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.value.to_le_bytes());
        out[8..].copy_from_slice(&self.index.to_le_bytes());
        out
    }

    pub(crate) fn decode(bytes: &[u8]) -> Self {
        MinLoc {
            value: f64::from_le_bytes(bytes[..8].try_into().unwrap()),
            index: u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
        }
    }
}

impl MaxLoc {
    /// The identity element (`−∞`, max index) — loses to everything.
    pub fn identity() -> Self {
        MaxLoc {
            value: f64::NEG_INFINITY,
            index: u64::MAX,
        }
    }

    /// Whether `b` wins over `a`: a larger value, or an equal value at a
    /// smaller index. An exact tie does not, so a combine keeps its left
    /// operand.
    #[inline]
    pub(crate) fn displaces(b: MaxLoc, a: MaxLoc) -> bool {
        b.value > a.value || (b.value == a.value && b.index < a.index)
    }

    /// Combine two candidates.
    #[inline]
    pub fn combine(a: MaxLoc, b: MaxLoc) -> MaxLoc {
        if MaxLoc::displaces(b, a) {
            b
        } else {
            a
        }
    }

    pub(crate) fn encode(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.value.to_le_bytes());
        out[8..].copy_from_slice(&self.index.to_le_bytes());
        out
    }

    pub(crate) fn decode(bytes: &[u8]) -> Self {
        MaxLoc {
            value: f64::from_le_bytes(bytes[..8].try_into().unwrap()),
            index: u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minloc_prefers_smaller_value() {
        let a = MinLoc {
            value: 1.0,
            index: 9,
        };
        let b = MinLoc {
            value: 2.0,
            index: 1,
        };
        assert_eq!(MinLoc::combine(a, b), a);
        assert_eq!(MinLoc::combine(b, a), a);
    }

    #[test]
    fn minloc_ties_break_on_index() {
        let a = MinLoc {
            value: 1.0,
            index: 9,
        };
        let b = MinLoc {
            value: 1.0,
            index: 3,
        };
        assert_eq!(MinLoc::combine(a, b), b);
        assert_eq!(MinLoc::combine(b, a), b);
    }

    #[test]
    fn minloc_identity_loses() {
        let a = MinLoc {
            value: 1e300,
            index: 0,
        };
        assert_eq!(MinLoc::combine(MinLoc::identity(), a), a);
    }

    #[test]
    fn maxloc_mirrors() {
        let a = MaxLoc {
            value: 5.0,
            index: 2,
        };
        let b = MaxLoc {
            value: 3.0,
            index: 0,
        };
        assert_eq!(MaxLoc::combine(a, b), a);
        let t1 = MaxLoc {
            value: 5.0,
            index: 7,
        };
        assert_eq!(MaxLoc::combine(a, t1), a);
        assert_eq!(MaxLoc::combine(MaxLoc::identity(), b), b);
    }

    #[test]
    fn codecs_roundtrip() {
        let m = MinLoc {
            value: -0.5,
            index: 123456789,
        };
        assert_eq!(MinLoc::decode(&m.encode()), m);
        let m = MaxLoc {
            value: f64::MAX,
            index: 1,
        };
        assert_eq!(MaxLoc::decode(&m.encode()), m);
    }

    #[test]
    fn combines_are_associative() {
        let xs = [
            MinLoc {
                value: 3.0,
                index: 1,
            },
            MinLoc {
                value: 1.0,
                index: 5,
            },
            MinLoc {
                value: 1.0,
                index: 2,
            },
        ];
        let l = MinLoc::combine(MinLoc::combine(xs[0], xs[1]), xs[2]);
        let r = MinLoc::combine(xs[0], MinLoc::combine(xs[1], xs[2]));
        assert_eq!(l, r);
    }
}
