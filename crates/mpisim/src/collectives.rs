//! Collective operations, built from the point-to-point layer with the same
//! algorithms an MPI implementation uses — so their `O(log p)` critical
//! paths show up in the simulated clocks for free.

use shrinksvm_analyze::{CollectiveKind, Fingerprint};

use crate::comm::Comm;
use crate::reduce::{MaxLoc, MinLoc};

/// Collective tags live above the user namespace: bit 63 set, then the
/// per-rank collective sequence number shifted past a 16-bit sub-round
/// field. All ranks execute collectives in the same (SPMD) order, so
/// sequence numbers agree and neither consecutive collectives nor rounds
/// within one collective can cross-match.
const COLL_BASE: u64 = 1 << 63;

fn coll_tag(seq: u64) -> u64 {
    COLL_BASE | (seq << 16)
}

impl Comm {
    /// Allocate this collective's tag and, under validation, post its
    /// fingerprint to the lockstep ledger — which panics with a divergence
    /// diagnosis if this rank's collective sequence no longer matches the
    /// fleet's.
    fn coll_enter(&mut self, kind: CollectiveKind, root: Option<usize>) -> u64 {
        let seq = self.bump_coll_seq();
        if self.fabric().validate {
            let rank = self.rank();
            self.fabric()
                .post_collective(rank, seq, Fingerprint { kind, root });
        }
        coll_tag(seq)
    }

    /// Record a `[t0, now]` span for a finished collective on this rank's
    /// timeline track, plus its interval in the dependency log so
    /// critical-path hops inside it carry the collective's name (both
    /// no-ops unless the universe traces).
    fn coll_exit(&mut self, name: &'static str, t0: f64) {
        let t1 = self.clock();
        self.trace_span(name, "coll", t0, t1);
        self.dep_coll(name, t0, t1);
    }

    /// Dissemination barrier: `⌈log₂ p⌉` rounds of shifted exchanges.
    pub fn barrier(&mut self) {
        let t0 = self.clock();
        self.barrier_inner();
        self.coll_exit("barrier", t0);
    }

    fn barrier_inner(&mut self) {
        let p = self.size();
        let rank = self.rank();
        let tag = self.coll_enter(CollectiveKind::Barrier, None);
        let mut dist = 1;
        let mut round = 0u64;
        while dist < p {
            let to = (rank + dist) % p;
            let from = (rank + p - dist) % p;
            self.send_internal(to, tag | round, &[]);
            self.recv_internal(from, tag | round);
            dist <<= 1;
            round += 1;
        }
        self.note_barrier();
    }

    /// Binomial-tree broadcast from `root`. `data` is the payload on the
    /// root and ignored elsewhere; every rank returns the payload.
    pub fn bcast(&mut self, root: usize, data: &[u8]) -> Vec<u8> {
        let t0 = self.clock();
        let out = self.bcast_inner(root, data);
        self.coll_exit("bcast", t0);
        out
    }

    fn bcast_inner(&mut self, root: usize, data: &[u8]) -> Vec<u8> {
        let p = self.size();
        let rank = self.rank();
        let tag = self.coll_enter(CollectiveKind::Bcast, Some(root));
        self.note_bcast();
        if p == 1 {
            return data.to_vec();
        }
        let relative = (rank + p - root) % p;
        let mut buf: Option<Vec<u8>> = if relative == 0 {
            Some(data.to_vec())
        } else {
            None
        };
        // Receive phase: find the highest set bit at which we hang off the tree.
        let mut mask = 1usize;
        while mask < p {
            if relative & mask != 0 {
                let src = (rank + p - mask) % p;
                buf = Some(self.recv_internal(src, tag));
                break;
            }
            mask <<= 1;
        }
        // Send phase: forward down the subtree.
        let payload = buf.expect("bcast payload reached this rank");
        let mut m = mask >> 1;
        while m > 0 {
            if relative + m < p {
                let dst = (rank + m) % p;
                self.send_internal(dst, tag, &payload);
            }
            m >>= 1;
        }
        payload
    }

    /// Generic allreduce over opaque fixed-meaning payloads, using
    /// recursive doubling with the standard fold for non-power-of-two rank
    /// counts. `combine` must be associative and commutative.
    pub fn allreduce_with<F>(&mut self, mine: Vec<u8>, combine: F) -> Vec<u8>
    where
        F: Fn(&[u8], &[u8]) -> Vec<u8>,
    {
        let t0 = self.clock();
        let out = self.allreduce_with_inner(mine, combine);
        self.coll_exit("allreduce", t0);
        out
    }

    fn allreduce_with_inner<F>(&mut self, mine: Vec<u8>, combine: F) -> Vec<u8>
    where
        F: Fn(&[u8], &[u8]) -> Vec<u8>,
    {
        let p = self.size();
        let rank = self.rank();
        let tag = self.coll_enter(CollectiveKind::Allreduce, None);
        self.note_allreduce();
        if p == 1 {
            return mine;
        }
        let pof2 = if p.is_power_of_two() {
            p
        } else {
            p.next_power_of_two() >> 1
        };
        let rem = p - pof2;
        let mut acc = mine;

        // Phase 1: fold the first 2·rem ranks pairwise so pof2 ranks remain.
        let newrank: Option<usize> = if rank < 2 * rem {
            if rank.is_multiple_of(2) {
                self.send_internal(rank + 1, tag, &acc);
                None
            } else {
                let theirs = self.recv_internal(rank - 1, tag);
                acc = combine(&acc, &theirs);
                Some(rank / 2)
            }
        } else {
            Some(rank - rem)
        };

        // Phase 2: recursive doubling among the pof2 survivors.
        if let Some(nr) = newrank {
            let mut mask = 1usize;
            while mask < pof2 {
                let partner_new = nr ^ mask;
                let partner = if partner_new < rem {
                    partner_new * 2 + 1
                } else {
                    partner_new + rem
                };
                self.send_internal(partner, tag, &acc);
                let theirs = self.recv_internal(partner, tag);
                acc = combine(&acc, &theirs);
                mask <<= 1;
            }
        }

        // Phase 3: hand results back to the folded-out ranks.
        if rank < 2 * rem {
            if rank.is_multiple_of(2) {
                acc = self.recv_internal(rank + 1, tag);
            } else {
                self.send_internal(rank - 1, tag, &acc);
            }
        }
        acc
    }

    /// Allreduce a single `f64` by summation.
    pub fn allreduce_f64_sum(&mut self, v: f64) -> f64 {
        self.allreduce_f64(v, |a, b| a + b)
    }

    /// Allreduce a single `f64` by minimum.
    pub fn allreduce_f64_min(&mut self, v: f64) -> f64 {
        self.allreduce_f64(v, f64::min)
    }

    /// Allreduce a single `f64` by maximum.
    pub fn allreduce_f64_max(&mut self, v: f64) -> f64 {
        self.allreduce_f64(v, f64::max)
    }

    fn allreduce_f64(&mut self, v: f64, op: impl Fn(f64, f64) -> f64) -> f64 {
        let out = self.allreduce_with(v.to_le_bytes().to_vec(), |a, b| {
            let fa = f64::from_le_bytes(a.try_into().unwrap());
            let fb = f64::from_le_bytes(b.try_into().unwrap());
            op(fa, fb).to_le_bytes().to_vec()
        });
        f64::from_le_bytes(out[..8].try_into().unwrap())
    }

    /// Allreduce a single `u64` by summation.
    pub fn allreduce_u64_sum(&mut self, v: u64) -> u64 {
        let out = self.allreduce_with(v.to_le_bytes().to_vec(), |a, b| {
            let fa = u64::from_le_bytes(a.try_into().unwrap());
            let fb = u64::from_le_bytes(b.try_into().unwrap());
            (fa + fb).to_le_bytes().to_vec()
        });
        u64::from_le_bytes(out[..8].try_into().unwrap())
    }

    /// MINLOC allreduce: globally smallest value with its carried index.
    pub fn allreduce_minloc(&mut self, mine: MinLoc) -> MinLoc {
        let out = self.allreduce_with(mine.encode().to_vec(), |a, b| {
            MinLoc::combine(MinLoc::decode(a), MinLoc::decode(b))
                .encode()
                .to_vec()
        });
        MinLoc::decode(&out)
    }

    /// MAXLOC allreduce: globally largest value with its carried index.
    pub fn allreduce_maxloc(&mut self, mine: MaxLoc) -> MaxLoc {
        let out = self.allreduce_with(mine.encode().to_vec(), |a, b| {
            MaxLoc::combine(MaxLoc::decode(a), MaxLoc::decode(b))
                .encode()
                .to_vec()
        });
        MaxLoc::decode(&out)
    }

    /// Fused MINLOC+MAXLOC allreduce that carries a payload with each
    /// candidate: both reductions run in one collective round, and every
    /// rank gets back the winning candidates together with the bytes their
    /// ranks attached to them. Winners are chosen by the comparison
    /// [`MinLoc::combine`] / [`MaxLoc::combine`] use, so the returned pair
    /// is bitwise identical to running [`Comm::allreduce_minloc`] then
    /// [`Comm::allreduce_maxloc`] — in one round instead of two, and with
    /// no further round needed to ship what the winners carry. A side
    /// with no candidate passes its identity and an empty payload. The
    /// round's payload is [`minloc_maxloc_len`] bytes.
    pub fn allreduce_minloc_maxloc(
        &mut self,
        min: (MinLoc, &[u8]),
        max: (MaxLoc, &[u8]),
    ) -> ((MinLoc, Vec<u8>), (MaxLoc, Vec<u8>)) {
        let mut mine = Vec::with_capacity(minloc_maxloc_len(min.1.len(), max.1.len()));
        push_side(&mut mine, &min.0.encode(), min.1);
        push_side(&mut mine, &max.0.encode(), max.1);
        let out = self.allreduce_with(mine, combine_minloc_maxloc);
        let (lo, hi) = split_sides(&out);
        (
            (MinLoc::decode(lo), lo[SIDE_HEADER..].to_vec()),
            (MaxLoc::decode(hi), hi[SIDE_HEADER..].to_vec()),
        )
    }

    /// Gather variable-sized payloads at `root` (binomial-tree merge).
    /// Returns `Some(payloads-by-rank)` on the root, `None` elsewhere.
    pub fn gatherv(&mut self, root: usize, mine: &[u8]) -> Option<Vec<Vec<u8>>> {
        let t0 = self.clock();
        let out = self.gatherv_inner(root, mine);
        self.coll_exit("gatherv", t0);
        out
    }

    fn gatherv_inner(&mut self, root: usize, mine: &[u8]) -> Option<Vec<Vec<u8>>> {
        let p = self.size();
        let rank = self.rank();
        let tag = self.coll_enter(CollectiveKind::Gatherv, Some(root));
        // Each message carries a set of (rank, payload) records.
        fn pack(records: &[(u32, Vec<u8>)]) -> Vec<u8> {
            let mut out = Vec::new();
            for (r, data) in records {
                out.extend_from_slice(&r.to_le_bytes());
                out.extend_from_slice(&(data.len() as u32).to_le_bytes());
                out.extend_from_slice(data);
            }
            out
        }
        fn unpack(bytes: &[u8]) -> Vec<(u32, Vec<u8>)> {
            let mut out = Vec::new();
            let mut pos = 0;
            while pos < bytes.len() {
                let r = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
                let len = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap()) as usize;
                out.push((r, bytes[pos + 8..pos + 8 + len].to_vec()));
                pos += 8 + len;
            }
            out
        }
        let relative = (rank + p - root) % p;
        let mut records = vec![(rank as u32, mine.to_vec())];
        // reverse binomial tree: leaves send up first
        let mut mask = 1usize;
        while mask < p {
            if relative & mask != 0 {
                let dst = (rank + p - mask) % p;
                self.send_internal(dst, tag, &pack(&records));
                return None;
            }
            if relative + mask < p {
                let src = (rank + mask) % p;
                let bytes = self.recv_internal(src, tag);
                records.extend(unpack(&bytes));
            }
            mask <<= 1;
        }
        let mut by_rank: Vec<Vec<u8>> = vec![Vec::new(); p];
        for (r, data) in records {
            by_rank[r as usize] = data;
        }
        Some(by_rank)
    }

    /// Scatter per-rank payloads from `root` (binomial tree). `pieces` is
    /// read on the root only; every rank returns its own piece.
    pub fn scatterv(&mut self, root: usize, pieces: &[Vec<u8>]) -> Vec<u8> {
        let t0 = self.clock();
        let out = self.scatterv_inner(root, pieces);
        self.coll_exit("scatterv", t0);
        out
    }

    fn scatterv_inner(&mut self, root: usize, pieces: &[Vec<u8>]) -> Vec<u8> {
        let p = self.size();
        let rank = self.rank();
        let tag = self.coll_enter(CollectiveKind::Scatterv, Some(root));
        if p == 1 {
            return pieces.first().cloned().unwrap_or_default();
        }
        fn pack(records: &[(u32, &[u8])]) -> Vec<u8> {
            let mut out = Vec::new();
            for (r, data) in records {
                out.extend_from_slice(&r.to_le_bytes());
                out.extend_from_slice(&(data.len() as u32).to_le_bytes());
                out.extend_from_slice(data);
            }
            out
        }
        fn unpack(bytes: &[u8]) -> Vec<(u32, Vec<u8>)> {
            let mut out = Vec::new();
            let mut pos = 0;
            while pos < bytes.len() {
                let r = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
                let len = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap()) as usize;
                out.push((r, bytes[pos + 8..pos + 8 + len].to_vec()));
                pos += 8 + len;
            }
            out
        }
        let relative = (rank + p - root) % p;
        // Root starts holding everything; interior nodes receive their
        // subtree's records, keep their own, forward the rest downward.
        let mut held: Vec<(u32, Vec<u8>)> = if relative == 0 {
            assert!(pieces.len() >= p, "scatterv needs one piece per rank");
            (0..p).map(|r| (r as u32, pieces[r].clone())).collect()
        } else {
            let mut mask = 1usize;
            loop {
                if relative & mask != 0 {
                    let src = (rank + p - mask) % p;
                    let bytes = self.recv_internal(src, tag);
                    break unpack(&bytes);
                }
                mask <<= 1;
            }
        };
        // forward to children: child subtree roots are relative + m
        let mut mask = 1usize;
        while mask < p {
            if relative & mask != 0 {
                break;
            }
            mask <<= 1;
        }
        let mut m = mask >> 1;
        // for the root, mask walked past p; recompute top bit
        let mut top = 1usize;
        while top < p {
            top <<= 1;
        }
        if relative == 0 {
            m = top >> 1;
        }
        while m > 0 {
            if relative + m < p {
                let child_rel_lo = relative + m;
                let child_rel_hi = (relative + 2 * m).min(p);
                let dst = (rank + m) % p;
                let (send, keep): (Vec<_>, Vec<_>) = held.into_iter().partition(|(r, _)| {
                    let rel = (*r as usize + p - root) % p;
                    rel >= child_rel_lo && rel < child_rel_hi
                });
                held = keep;
                let refs: Vec<(u32, &[u8])> =
                    send.iter().map(|(r, d)| (*r, d.as_slice())).collect();
                self.send_internal(dst, tag, &pack(&refs));
            }
            m >>= 1;
        }
        debug_assert_eq!(held.len(), 1, "exactly own piece remains");
        held.pop().map(|(_, d)| d).unwrap_or_default()
    }

    /// Elementwise allreduce of an `f64` vector (`MPI_Allreduce` on an
    /// array with `MPI_SUM`).
    pub fn allreduce_f64_vec_sum(&mut self, mine: &[f64]) -> Vec<f64> {
        let bytes = crate::comm::encode_f64s(mine);
        let out = self.allreduce_with(bytes, |a, b| {
            let va = crate::comm::decode_f64s(a);
            let vb = crate::comm::decode_f64s(b);
            let sum: Vec<f64> = va.iter().zip(&vb).map(|(x, y)| x + y).collect();
            crate::comm::encode_f64s(&sum)
        });
        crate::comm::decode_f64s(&out)
    }

    /// Ring allgather of variable-sized payloads. Returns one payload per
    /// rank, indexed by rank.
    ///
    /// The paper (§IV-B2) explicitly *rejects* `MPI_Allgatherv` for gradient
    /// reconstruction because every rank would need a buffer holding the
    /// entire dataset at once; the reconstruction instead streams pieces
    /// around the ring ([`Comm::ring_shift`]) holding only one piece at a
    /// time. This method exists for completeness and for small payloads.
    pub fn allgatherv(&mut self, mine: &[u8]) -> Vec<Vec<u8>> {
        let t0 = self.clock();
        let out = self.allgatherv_inner(mine);
        self.coll_exit("allgatherv", t0);
        out
    }

    fn allgatherv_inner(&mut self, mine: &[u8]) -> Vec<Vec<u8>> {
        let p = self.size();
        let rank = self.rank();
        let tag = self.coll_enter(CollectiveKind::Allgatherv, None);
        let mut pieces: Vec<Vec<u8>> = vec![Vec::new(); p];
        pieces[rank] = mine.to_vec();
        if p == 1 {
            return pieces;
        }
        let right = (rank + 1) % p;
        let left = (rank + p - 1) % p;
        let mut cur = mine.to_vec();
        for step in 1..p {
            self.send_internal(right, tag, &cur);
            cur = self.recv_internal(left, tag);
            pieces[(rank + p - step) % p] = cur.clone();
        }
        pieces
    }

    /// One step of a ring exchange: send `mine` to `(rank+1) % p`, receive
    /// from `(rank−1+p) % p` (implemented Isend/Irecv/Waitall, as the
    /// paper's gradient reconstruction does).
    pub fn ring_shift(&mut self, mine: &[u8]) -> Vec<u8> {
        let t0 = self.clock();
        let out = self.ring_shift_inner(mine);
        self.coll_exit("ring_shift", t0);
        out
    }

    fn ring_shift_inner(&mut self, mine: &[u8]) -> Vec<u8> {
        let p = self.size();
        if p == 1 {
            return mine.to_vec();
        }
        let tag = self.coll_enter(CollectiveKind::RingShift, None);
        let rank = self.rank();
        let right = (rank + 1) % p;
        let left = (rank + p - 1) % p;
        // Isend/Irecv/Waitall as in Algorithm 3's implementation note.
        self.send_internal(right, tag, mine);
        self.recv_internal(left, tag)
    }
}

/// Bytes ahead of each side's payload in the fused candidate round: the
/// encoded `(value, index)` pair, then the payload length as a `u32`.
const SIDE_HEADER: usize = 16 + 4;

/// Size of the fused candidate round's payload when the MINLOC and MAXLOC
/// candidates carry `min_payload` and `max_payload` bytes — the length
/// [`Comm::allreduce_minloc_maxloc`] puts on the wire, for cost models
/// that predict the round.
pub fn minloc_maxloc_len(min_payload: usize, max_payload: usize) -> usize {
    2 * SIDE_HEADER + min_payload + max_payload
}

/// Append one side of the fused payload: the encoded candidate, the
/// payload length and the payload.
fn push_side(out: &mut Vec<u8>, candidate: &[u8; 16], payload: &[u8]) {
    assert!(
        payload.len() <= u32::MAX as usize,
        "candidate payload of {} bytes overflows its u32 length field",
        payload.len()
    );
    out.extend_from_slice(candidate);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Split a fused payload into its MINLOC and MAXLOC sides, each the
/// encoded candidate, its length field and its payload.
fn split_sides(bytes: &[u8]) -> (&[u8], &[u8]) {
    let len = u32::from_le_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]) as usize;
    let (lo, hi) = bytes.split_at(SIDE_HEADER + len);
    let hi_len = u32::from_le_bytes([hi[16], hi[17], hi[18], hi[19]]) as usize;
    assert_eq!(
        hi.len(),
        SIDE_HEADER + hi_len,
        "fused minloc/maxloc payload is two length-prefixed sides"
    );
    (lo, hi)
}

/// Combine two fused payloads side by side, keeping each winner's bytes
/// whole (candidate and payload travel together).
fn combine_minloc_maxloc(a: &[u8], b: &[u8]) -> Vec<u8> {
    let (a_min, a_max) = split_sides(a);
    let (b_min, b_max) = split_sides(b);
    let min = if MinLoc::displaces(MinLoc::decode(b_min), MinLoc::decode(a_min)) {
        b_min
    } else {
        a_min
    };
    let max = if MaxLoc::displaces(MaxLoc::decode(b_max), MaxLoc::decode(a_max)) {
        b_max
    } else {
        a_max
    };
    [min, max].concat()
}

#[cfg(test)]
mod tests {
    use crate::reduce::{MaxLoc, MinLoc};
    use crate::universe::Universe;
    use crate::CostParams;

    /// Candidate of rank `r` in case `case` of the fused-round test: values
    /// repeat across ranks (ties, including `-0.0` against `0.0`), indices
    /// run against rank order, and some sides are empty (the identity).
    fn fused_case(case: usize, p: usize, r: usize) -> ((MinLoc, Vec<u8>), (MaxLoc, Vec<u8>)) {
        let values = [3.0, -0.0, 1.5, 0.0, -2.0, 1.5, 7.0];
        let index = ((p - r) * 3) as u64;
        let value = values[(r * 5 + case) % values.len()];
        let payload = |side: &str| format!("{side}{r}:").repeat(r % 3 + 1).into_bytes();
        let min = if r % 3 == 2 {
            (MinLoc::identity(), Vec::new())
        } else {
            (MinLoc { value, index }, payload("min"))
        };
        let max = if case == 1 || r % 4 == 1 {
            (MaxLoc::identity(), Vec::new())
        } else {
            (MaxLoc { value, index }, payload("max"))
        };
        (min, max)
    }

    #[test]
    fn fused_minloc_maxloc_matches_separate_rounds() {
        for p in [1, 2, 3, 5, 8, 16] {
            for case in 0..2 {
                let out = Universe::new(p).run(move |c| {
                    let ((min, min_bytes), (max, max_bytes)) = fused_case(case, p, c.rank());
                    let sep = (c.allreduce_minloc(min), c.allreduce_maxloc(max));
                    let fused = c.allreduce_minloc_maxloc((min, &min_bytes), (max, &max_bytes));
                    (sep, fused, c.stats().allreduces)
                });
                let all: Vec<_> = (0..p).map(|r| fused_case(case, p, r)).collect();
                for o in &out {
                    let ((min, max), ((fmin, fmin_bytes), (fmax, fmax_bytes)), rounds) = &o.value;
                    assert_eq!(
                        min.value.to_bits(),
                        fmin.value.to_bits(),
                        "p={p} case={case}"
                    );
                    assert_eq!(min.index, fmin.index, "p={p} case={case}");
                    assert_eq!(
                        max.value.to_bits(),
                        fmax.value.to_bits(),
                        "p={p} case={case}"
                    );
                    assert_eq!(max.index, fmax.index, "p={p} case={case}");
                    // each payload is the one its winner's rank attached
                    let min_owner = all
                        .iter()
                        .find(|((m, _), _)| m.index == fmin.index)
                        .expect("the MINLOC winner is some rank's candidate");
                    assert_eq!(fmin_bytes, &min_owner.0 .1, "p={p} case={case}");
                    let max_owner = all
                        .iter()
                        .find(|(_, (m, _))| m.index == fmax.index)
                        .expect("the MAXLOC winner is some rank's candidate");
                    assert_eq!(fmax_bytes, &max_owner.1 .1, "p={p} case={case}");
                    // two separate rounds plus ONE fused round
                    assert_eq!(*rounds, 3);
                }
                if case == 1 {
                    // every MAXLOC side was empty: the identity wins, bare
                    let (_, (fmax, fmax_bytes)) = &out[0].value.1;
                    assert_eq!(*fmax, MaxLoc::identity());
                    assert!(fmax_bytes.is_empty());
                }
            }
        }
    }

    #[test]
    fn bcast_from_every_root_and_size() {
        for p in 1..=9 {
            for root in 0..p {
                let out = Universe::new(p).run(move |c| {
                    let payload: Vec<u8> = vec![root as u8, 42, 7];
                    let data = if c.rank() == root {
                        payload.clone()
                    } else {
                        vec![]
                    };
                    c.bcast(root, &data)
                });
                for o in &out {
                    assert_eq!(o.value, vec![root as u8, 42, 7], "p={p} root={root}");
                }
            }
        }
    }

    #[test]
    fn allreduce_sum_all_sizes() {
        for p in 1..=10 {
            let out = Universe::new(p).run(|c| c.allreduce_f64_sum((c.rank() + 1) as f64));
            let expect = (p * (p + 1) / 2) as f64;
            for o in &out {
                assert_eq!(o.value, expect, "p={p}");
            }
        }
    }

    #[test]
    fn allreduce_min_max() {
        let out = Universe::new(7).run(|c| {
            let v = (c.rank() as f64 - 3.0).abs();
            (c.allreduce_f64_min(v), c.allreduce_f64_max(v))
        });
        for o in &out {
            assert_eq!(o.value, (0.0, 3.0));
        }
    }

    #[test]
    fn allreduce_u64_sum_works() {
        let out = Universe::new(5).run(|c| c.allreduce_u64_sum(c.rank() as u64 * 10));
        for o in &out {
            assert_eq!(o.value, 100);
        }
    }

    #[test]
    fn minloc_and_maxloc_agree_across_ranks() {
        let values = [5.0, 1.0, 3.0, 1.0, 9.0, 0.5];
        let out = Universe::new(values.len()).run(move |c| {
            let mine = MinLoc {
                value: values[c.rank()],
                index: c.rank() as u64,
            };
            let maxmine = MaxLoc {
                value: values[c.rank()],
                index: c.rank() as u64,
            };
            (c.allreduce_minloc(mine), c.allreduce_maxloc(maxmine))
        });
        for o in &out {
            assert_eq!(
                o.value.0,
                MinLoc {
                    value: 0.5,
                    index: 5
                }
            );
            assert_eq!(
                o.value.1,
                MaxLoc {
                    value: 9.0,
                    index: 4
                }
            );
        }
    }

    #[test]
    fn minloc_tie_breaks_identically_everywhere() {
        let out = Universe::new(4).run(|c| {
            let mine = MinLoc {
                value: 1.0,
                index: c.rank() as u64,
            };
            c.allreduce_minloc(mine)
        });
        for o in &out {
            assert_eq!(o.value.index, 0);
        }
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let cost = CostParams {
            latency: 1.0,
            gap_per_byte: 0.0,
            send_overhead: 0.0,
        };
        let out = Universe::new(4).with_cost(cost).run(|c| {
            if c.rank() == 2 {
                c.advance_compute(100.0);
            }
            c.barrier();
            c.clock()
        });
        // after a barrier nobody's clock can be below the slowest rank's
        for o in &out {
            assert!(o.value >= 100.0, "clock {} not synced", o.value);
        }
    }

    #[test]
    fn allgatherv_collects_in_rank_order() {
        for p in 1..=6 {
            let out = Universe::new(p).run(|c| {
                let mine = vec![c.rank() as u8; c.rank() + 1];
                c.allgatherv(&mine)
            });
            for o in &out {
                for (r, piece) in o.value.iter().enumerate() {
                    assert_eq!(piece, &vec![r as u8; r + 1], "p={p}");
                }
            }
        }
    }

    #[test]
    fn ring_shift_rotates_by_one() {
        let out = Universe::new(5).run(|c| {
            let mine = vec![c.rank() as u8];
            c.ring_shift(&mine)
        });
        for (r, o) in out.iter().enumerate() {
            assert_eq!(o.value, vec![((r + 5 - 1) % 5) as u8]);
        }
    }

    #[test]
    fn ring_shift_p1_is_identity() {
        let out = Universe::new(1).run(|c| c.ring_shift(&[7, 8]));
        assert_eq!(out[0].value, vec![7, 8]);
    }

    #[test]
    fn full_ring_circulates_everything() {
        // p-1 shifts return each piece to its origin having visited everyone.
        let p = 6;
        let out = Universe::new(p).run(move |c| {
            let mut seen = vec![c.rank()];
            let mut cur = vec![c.rank() as u8];
            for _ in 0..p - 1 {
                cur = c.ring_shift(&cur);
                seen.push(cur[0] as usize);
            }
            seen.sort_unstable();
            seen
        });
        for o in &out {
            assert_eq!(o.value, (0..p).collect::<Vec<_>>());
        }
    }

    #[test]
    fn allreduce_clock_grows_logarithmically() {
        // With latency-only costs, allreduce time should grow roughly like
        // log2(p), not like p.
        let cost = CostParams {
            latency: 1.0,
            gap_per_byte: 0.0,
            send_overhead: 0.0,
        };
        let time_at = |p: usize| {
            let out = Universe::new(p).with_cost(cost).run(|c| {
                c.allreduce_f64_sum(1.0);
                c.clock()
            });
            out.iter().map(|o| o.value).fold(0.0f64, f64::max)
        };
        let t4 = time_at(4);
        let t16 = time_at(16);
        assert!(t4 >= 2.0 - 1e-9); // at least log2(4) rounds
        assert!(t16 <= t4 * 3.0, "t16={t16} t4={t4} — should be ~2x, not 4x");
    }

    #[test]
    fn consecutive_collectives_do_not_cross_match() {
        let out = Universe::new(3).run(|c| {
            let a = c.allreduce_f64_sum(1.0);
            let b = c.allreduce_f64_sum(10.0);
            let d = c.bcast(0, &[c.rank() as u8]);
            (a, b, d)
        });
        for o in &out {
            assert_eq!(o.value.0, 3.0);
            assert_eq!(o.value.1, 30.0);
            assert_eq!(o.value.2, vec![0]);
        }
    }

    #[test]
    fn gatherv_collects_at_every_root() {
        for p in 1..=9 {
            for root in 0..p {
                let out = Universe::new(p).run(move |c| {
                    let mine = vec![c.rank() as u8; c.rank() + 1];
                    c.gatherv(root, &mine)
                });
                for (r, o) in out.iter().enumerate() {
                    if r == root {
                        let pieces = o.value.as_ref().expect("root gets data");
                        for (q, piece) in pieces.iter().enumerate() {
                            assert_eq!(piece, &vec![q as u8; q + 1], "p={p} root={root}");
                        }
                    } else {
                        assert!(o.value.is_none(), "non-root got data");
                    }
                }
            }
        }
    }

    #[test]
    fn scatterv_delivers_each_rank_its_piece() {
        for p in 1..=9 {
            for root in 0..p {
                let out = Universe::new(p).run(move |c| {
                    let pieces: Vec<Vec<u8>> =
                        (0..c.size()).map(|r| vec![r as u8; r % 4 + 1]).collect();
                    let input = if c.rank() == root { pieces } else { Vec::new() };
                    c.scatterv(root, &input)
                });
                for (r, o) in out.iter().enumerate() {
                    assert_eq!(
                        o.value,
                        vec![r as u8; r % 4 + 1],
                        "p={p} root={root} rank={r}"
                    );
                }
            }
        }
    }

    #[test]
    fn vector_allreduce_sums_elementwise() {
        let out = Universe::new(5).run(|c| {
            let mine: Vec<f64> = (0..4).map(|k| (c.rank() * 10 + k) as f64).collect();
            c.allreduce_f64_vec_sum(&mine)
        });
        // Σ_r (10r + k) for r in 0..5 = 100 + 5k
        for o in &out {
            for (k, v) in o.value.iter().enumerate() {
                assert_eq!(*v, 100.0 + 5.0 * k as f64);
            }
        }
    }

    #[test]
    fn gather_then_scatter_roundtrip() {
        let out = Universe::new(6).run(|c| {
            let mine = vec![c.rank() as u8 + 100];
            let gathered = c.gatherv(0, &mine);
            let pieces = gathered.unwrap_or_default();
            c.scatterv(0, &pieces)
        });
        for (r, o) in out.iter().enumerate() {
            assert_eq!(o.value, vec![r as u8 + 100]);
        }
    }
}
