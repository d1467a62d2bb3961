//! Randomized-sweep tests for the sparse substrate: CSR structure,
//! arithmetic identities, I/O and scaling. Deterministic (fixed seeds) so
//! the suite runs offline and reproducibly.

use std::collections::BTreeMap;

use shrinksvm::datagen::rng::SmallRng;
use shrinksvm::sparse::io::{read_libsvm_from, write_libsvm_to};
use shrinksvm::sparse::ops;
use shrinksvm::sparse::scale::Scaler;
use shrinksvm::sparse::{CsrBuilder, CsrMatrix, Dataset, PairPad, RowView, ScratchPad};

/// A small random dense matrix: ~30% explicit zeros, bounded values.
fn dense_matrix(rng: &mut SmallRng) -> (Vec<Vec<f64>>, usize) {
    let ncols = rng.gen_range(1usize..8);
    let nrows = rng.gen_range(1usize..12);
    let rows = (0..nrows)
        .map(|_| {
            (0..ncols)
                .map(|_| {
                    if rng.gen_bool(0.3) {
                        0.0
                    } else {
                        rng.gen_range(-100.0..100.0)
                    }
                })
                .collect()
        })
        .collect();
    (rows, ncols)
}

/// One sparse row over `ncols` columns: sorted unique indices, nonzero values.
fn sparse_row(rng: &mut SmallRng, ncols: u32) -> Vec<(u32, f64)> {
    let want = rng.gen_range(0usize..(ncols as usize).min(10));
    let mut row: Vec<(u32, f64)> = Vec::new();
    while row.len() < want {
        let col = rng.gen_range(0u32..ncols);
        if row.iter().any(|(c, _)| *c == col) {
            continue;
        }
        let v = rng.gen_range(-50.0..50.0);
        if v != 0.0 {
            row.push((col, v));
        }
    }
    row
}

#[test]
fn csr_dense_roundtrip() {
    for seed in 0..32u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (rows, ncols) = dense_matrix(&mut rng);
        let m = CsrMatrix::from_dense(&rows, ncols).unwrap();
        assert!(m.validate().is_ok());
        let back = m.to_dense();
        for (orig, rt) in rows.iter().zip(&back) {
            assert_eq!(orig, rt, "seed={seed}");
        }
        // nnz agrees with the dense count of non-zeros
        let nnz: usize = rows.iter().flatten().filter(|v| **v != 0.0).count();
        assert_eq!(m.nnz(), nnz, "seed={seed}");
    }
}

#[test]
fn dot_is_symmetric_and_matches_dense() {
    for seed in 0..32u64 {
        let mut rng = SmallRng::seed_from_u64(100 + seed);
        let a = sparse_row(&mut rng, 20);
        let b = sparse_row(&mut rng, 20);
        let mut ba = CsrBuilder::new(20);
        ba.push_row_unsorted(a).unwrap();
        ba.push_row_unsorted(b).unwrap();
        let m = ba.finish();
        let (ra, rb) = (m.row(0), m.row(1));
        let d1 = ops::dot(ra, rb);
        let d2 = ops::dot(rb, ra);
        assert_eq!(d1, d2, "seed={seed}");
        let dense_b = rb.to_dense(20);
        let d3 = ops::dot_dense(ra, &dense_b);
        assert!(
            (d1 - d3).abs() <= 1e-9 * (1.0 + d1.abs()),
            "seed={seed}: {d1} vs {d3}"
        );
    }
}

/// Values whose products the gather must reproduce bit for bit: ±inf,
/// NaN, signed zeros and subnormals (whose products underflow to ±0.0).
const SPECIALS: [f64; 8] = [
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    0.0,
    -0.0,
    5e-324,
    -1e-310,
    2.5e-309,
];

/// A sparse row over `width` columns, mostly drawn from `hot` so rows
/// overlap, with one value in six taken from [`SPECIALS`].
fn special_row(rng: &mut SmallRng, width: u32, hot: &[u32], max_nnz: usize) -> BTreeMap<u32, f64> {
    let want = rng.gen_range(0..max_nnz + 1);
    let mut row = BTreeMap::new();
    while row.len() < want {
        let col = if rng.gen_bool(0.7) {
            hot[rng.gen_range(0..hot.len())]
        } else {
            rng.gen_range(0..width)
        };
        let v = if rng.gen_bool(1.0 / 6.0) {
            SPECIALS[rng.gen_range(0..SPECIALS.len())]
        } else {
            rng.gen_range(-50.0..50.0)
        };
        row.insert(col, v);
    }
    row
}

#[test]
fn scratch_gather_is_bitwise_the_merge_join() {
    let mut pad = ScratchPad::new(0);
    let (mut special_on_overlap, mut special_off_overlap) = (0usize, 0usize);
    let (mut finite, mut nonfinite) = (0usize, 0usize);
    for (width, max_nnz, seed) in [(8u32, 8usize, 500u64), (123, 40, 501), (50_000, 120, 502)] {
        let mut rng = SmallRng::seed_from_u64(seed);
        // the last column is hot so the pad's far edge is exercised
        let mut hot: Vec<u32> = (0..width.min(160))
            .map(|_| rng.gen_range(0..width))
            .collect();
        hot.push(width - 1);
        let rows: Vec<BTreeMap<u32, f64>> = (0..48)
            .map(|_| special_row(&mut rng, width, &hot, max_nnz))
            .collect();
        let parts: Vec<(Vec<u32>, Vec<f64>)> = rows
            .iter()
            .map(|r| (r.keys().copied().collect(), r.values().copied().collect()))
            .collect();
        let view = |k: usize| RowView {
            indices: &parts[k].0,
            values: &parts[k].1,
        };
        pad.ensure_dim(width as usize);
        for p in 0..rows.len() {
            let pivot = view(p);
            pad.load(pivot);
            for (a, row) in rows.iter().enumerate() {
                let got = pad.dot(view(a));
                let want = ops::dot(view(a), pivot);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "width={width} pivot={p} row={a}: gather {got:e} vs merge-join {want:e}"
                );
                for (c, v) in row {
                    if !v.is_normal() {
                        if rows[p].contains_key(c) {
                            special_on_overlap += 1;
                        } else {
                            special_off_overlap += 1;
                        }
                    }
                }
                if want.is_finite() {
                    finite += 1;
                } else {
                    nonfinite += 1;
                }
            }
            pad.clear();
            assert!(!pad.is_loaded());
        }
    }
    // the sweep is only evidence if every case actually occurred
    assert!(
        special_on_overlap > 100,
        "{special_on_overlap} specials on overlaps"
    );
    assert!(
        special_off_overlap > 100,
        "{special_off_overlap} specials off overlaps"
    );
    assert!(
        finite > 100 && nonfinite > 100,
        "{finite} finite vs {nonfinite} non-finite dots"
    );
}

#[test]
fn pair_gather_is_bitwise_both_merge_joins() {
    // one pad, wide enough for every width below
    let mut pad = PairPad::new(50_000);
    // specials on both slots' overlaps, on exactly one's, and on neither
    let (mut on_both, mut on_one, mut off_both) = (0usize, 0usize, 0usize);
    let (mut finite, mut nonfinite, mut same_row_pairs) = (0usize, 0usize, 0usize);
    for (width, max_nnz, seed) in [(8u32, 8usize, 600u64), (123, 40, 601), (50_000, 120, 602)] {
        let mut rng = SmallRng::seed_from_u64(seed);
        // the last column is hot so the pad's far edge is exercised
        let mut hot: Vec<u32> = (0..width.min(160))
            .map(|_| rng.gen_range(0..width))
            .collect();
        hot.push(width - 1);
        let rows: Vec<BTreeMap<u32, f64>> = (0..48)
            .map(|_| special_row(&mut rng, width, &hot, max_nnz))
            .collect();
        let parts: Vec<(Vec<u32>, Vec<f64>)> = rows
            .iter()
            .map(|r| (r.keys().copied().collect(), r.values().copied().collect()))
            .collect();
        let view = |k: usize| RowView {
            indices: &parts[k].0,
            values: &parts[k].1,
        };
        for p0 in 0..rows.len() {
            // every eighth pair loads one row into both slots
            let p1 = if p0 % 8 == 0 {
                p0
            } else {
                (p0 * 5 + 1) % rows.len()
            };
            same_row_pairs += usize::from(p0 == p1);
            pad.load(0, view(p0));
            pad.load(1, view(p1));
            for (a, row) in rows.iter().enumerate() {
                let got = pad.dots(view(a));
                for (s, p) in [p0, p1].into_iter().enumerate() {
                    let want = ops::dot(view(a), view(p));
                    assert_eq!(
                        got[s].to_bits(),
                        want.to_bits(),
                        "width={width} pair=({p0}, {p1}) slot={s} row={a}: \
                         gather {:e} vs merge-join {want:e}",
                        got[s]
                    );
                    if want.is_finite() {
                        finite += 1;
                    } else {
                        nonfinite += 1;
                    }
                }
                for (c, v) in row {
                    if !v.is_normal() {
                        match (rows[p0].contains_key(c), rows[p1].contains_key(c)) {
                            (true, true) => on_both += 1,
                            (false, false) => off_both += 1,
                            _ => on_one += 1,
                        }
                    }
                }
            }
            pad.clear(0);
            pad.clear(1);
            assert!(!pad.is_loaded(0) && !pad.is_loaded(1));
        }
    }
    // the sweep is only evidence if every case actually occurred
    assert!(on_both > 100, "{on_both} specials on both overlaps");
    assert!(on_one > 100, "{on_one} specials on exactly one overlap");
    assert!(off_both > 100, "{off_both} specials off both overlaps");
    assert!(
        finite > 100 && nonfinite > 100,
        "{finite} finite vs {nonfinite} non-finite dots"
    );
    assert!(same_row_pairs >= 3, "{same_row_pairs} same-row pairs");
}

#[test]
fn distance_identity_holds() {
    for seed in 0..32u64 {
        let mut rng = SmallRng::seed_from_u64(200 + seed);
        let a = sparse_row(&mut rng, 16);
        let b = sparse_row(&mut rng, 16);
        let mut bld = CsrBuilder::new(16);
        bld.push_row_unsorted(a).unwrap();
        bld.push_row_unsorted(b).unwrap();
        let m = bld.finish();
        let (ra, rb) = (m.row(0), m.row(1));
        let via_norms = ops::squared_distance_direct(ra, rb);
        let direct: f64 = {
            let da = ra.to_dense(16);
            let db = rb.to_dense(16);
            da.iter().zip(&db).map(|(x, y)| (x - y) * (x - y)).sum()
        };
        assert!(via_norms >= 0.0, "seed={seed}");
        assert!(
            (via_norms - direct).abs() <= 1e-7 * (1.0 + direct),
            "seed={seed}: {via_norms} vs {direct}"
        );
    }
}

#[test]
fn libsvm_io_roundtrips() {
    for seed in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(300 + seed);
        let (rows, ncols) = dense_matrix(&mut rng);
        let m = CsrMatrix::from_dense(&rows, ncols).unwrap();
        let y: Vec<f64> = (0..m.nrows())
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let ds = Dataset::new(m, y).unwrap();
        let mut buf = Vec::new();
        write_libsvm_to(&ds, &mut buf).unwrap();
        let back = read_libsvm_from(&buf[..]).unwrap();
        assert_eq!(back.len(), ds.len(), "seed={seed}");
        assert_eq!(&back.y, &ds.y, "seed={seed}");
        for i in 0..ds.len() {
            assert_eq!(back.x.row(i).indices, ds.x.row(i).indices, "seed={seed}");
            for (va, vb) in back.x.row(i).values.iter().zip(ds.x.row(i).values) {
                assert!(
                    (va - vb).abs() < 1e-12,
                    "seed={seed}: value drift {va} vs {vb}"
                );
            }
        }
    }
}

#[test]
fn scaler_bounds_training_data() {
    for seed in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(400 + seed);
        let (rows, ncols) = dense_matrix(&mut rng);
        let m = CsrMatrix::from_dense(&rows, ncols).unwrap();
        let s = Scaler::fit(&m, 1.0);
        let t = s.transform(&m).unwrap();
        assert_eq!(t.nnz(), m.nnz(), "seed={seed}: sparsity preserved");
        for i in 0..t.nrows() {
            for (_, v) in t.row(i).iter() {
                assert!(v.abs() <= 1.0 + 1e-12, "seed={seed}");
            }
        }
    }
}

#[test]
fn shuffle_is_a_permutation() {
    for seed in 0..40u64 {
        let n = (seed as usize % 39) + 1;
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let m = CsrMatrix::from_dense(&rows, 1).unwrap();
        let y: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let ds = Dataset::new(m, y).unwrap();
        let sh = ds.shuffled(seed * 37 + 1);
        let mut seen: Vec<i64> = (0..sh.len()).map(|i| sh.x.row(i).get(0) as i64).collect();
        seen.sort_unstable();
        let expect: Vec<i64> = (0..n as i64).collect();
        assert_eq!(seen, expect, "seed={seed}");
        // labels still pair with their rows
        for i in 0..sh.len() {
            let v = sh.x.row(i).get(0) as i64;
            assert_eq!(sh.y[i], if v % 2 == 0 { 1.0 } else { -1.0 }, "seed={seed}");
        }
    }
}
