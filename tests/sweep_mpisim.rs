//! Randomized-sweep tests for the message-passing substrate: every
//! collective must equal its sequential reduction across rank counts and
//! seeded random inputs, and the simulated clocks must behave like time.
//! Deterministic (fixed seeds) so the suite runs offline and reproducibly.

use shrinksvm::datagen::rng::SmallRng;
use shrinksvm::mpisim::{CostParams, MaxLoc, MinLoc, Universe};

#[test]
fn allreduce_sum_equals_sequential() {
    for seed in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let p = rng.gen_range(1usize..10);
        let values: Vec<f64> = (0..p).map(|_| rng.gen_range(-1e6..1e6)).collect();
        let vals = values.clone();
        let out = Universe::new(p).run(move |c| c.allreduce_f64_sum(vals[c.rank()]));
        let expect: f64 = values.iter().sum();
        for o in &out {
            assert!(
                (o.value - expect).abs() <= 1e-9 * (1.0 + expect.abs()),
                "seed={seed} p={p}: {} vs {expect}",
                o.value
            );
            // every rank agrees exactly (same reduction tree)
            assert_eq!(o.value, out[0].value);
        }
    }
}

#[test]
fn minloc_maxloc_agree_with_scan() {
    for seed in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(100 + seed);
        let p = rng.gen_range(1usize..9);
        let values: Vec<f64> = (0..p).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let vals = values.clone();
        let out = Universe::new(p).run(move |c| {
            let m = MinLoc {
                value: vals[c.rank()],
                index: c.rank() as u64,
            };
            let x = MaxLoc {
                value: vals[c.rank()],
                index: c.rank() as u64,
            };
            (c.allreduce_minloc(m), c.allreduce_maxloc(x))
        });
        let mut exp_min = MinLoc::identity();
        let mut exp_max = MaxLoc::identity();
        for (i, &v) in values.iter().enumerate() {
            exp_min = MinLoc::combine(
                exp_min,
                MinLoc {
                    value: v,
                    index: i as u64,
                },
            );
            exp_max = MaxLoc::combine(
                exp_max,
                MaxLoc {
                    value: v,
                    index: i as u64,
                },
            );
        }
        for o in &out {
            assert_eq!(o.value.0, exp_min, "seed={seed}");
            assert_eq!(o.value.1, exp_max, "seed={seed}");
        }
    }
}

#[test]
fn bcast_delivers_arbitrary_payloads() {
    for seed in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(200 + seed);
        let p = rng.gen_range(1usize..9);
        let root = rng.gen_range(0usize..p);
        let len = rng.gen_range(0usize..200);
        let payload: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
        let pl = payload.clone();
        let out = Universe::new(p).run(move |c| {
            let mine = if c.rank() == root { pl.clone() } else { vec![] };
            c.bcast(root, &mine)
        });
        for o in &out {
            assert_eq!(&o.value, &payload, "seed={seed} p={p} root={root}");
        }
    }
}

#[test]
fn allgatherv_preserves_every_piece() {
    for seed in 0..16u64 {
        let mut rng = SmallRng::seed_from_u64(300 + seed);
        let p = rng.gen_range(1usize..8);
        let stamp = rng.gen_range(0u32..256) as u8;
        let out = Universe::new(p).run(move |c| {
            let mine = vec![stamp ^ (c.rank() as u8); c.rank() % 3 + 1];
            c.allgatherv(&mine)
        });
        for o in &out {
            for (r, piece) in o.value.iter().enumerate() {
                assert_eq!(piece, &vec![stamp ^ (r as u8); r % 3 + 1], "seed={seed}");
            }
        }
    }
}

#[test]
fn clocks_are_monotone_and_barrier_syncs() {
    for seed in 0..16u64 {
        let mut rng = SmallRng::seed_from_u64(400 + seed);
        let p = rng.gen_range(2usize..8);
        let busy = rng.gen_range(0usize..p);
        let work = rng.gen_range(0.0..100.0f64);
        let out = Universe::new(p)
            .with_cost(CostParams {
                latency: 0.5,
                gap_per_byte: 0.0,
                send_overhead: 0.1,
            })
            .run(move |c| {
                let before = c.clock();
                if c.rank() == busy {
                    c.advance_compute(work);
                }
                c.barrier();
                let after = c.clock();
                (before, after)
            });
        for o in &out {
            assert!(o.value.1 >= o.value.0, "seed={seed}: clock went backwards");
            assert!(
                o.value.1 >= work,
                "seed={seed}: barrier must not complete before the slowest rank"
            );
        }
    }
}

#[test]
fn ring_circulation_conserves_data() {
    for p in 1usize..8 {
        let out = Universe::new(p).run(move |c| {
            let mut cur = vec![c.rank() as u8];
            let mut collected = vec![c.rank()];
            for _ in 0..p - 1 {
                cur = c.ring_shift(&cur);
                collected.push(cur[0] as usize);
            }
            collected.sort_unstable();
            collected
        });
        for o in &out {
            assert_eq!(&o.value, &(0..p).collect::<Vec<_>>());
        }
    }
}

#[test]
fn stats_balance_across_fleet() {
    // total messages sent == total received for a busy collective workload
    let out = Universe::new(6).run(|c| {
        c.allreduce_f64_sum(1.0);
        c.barrier();
        c.bcast(2, &[1, 2, 3]);
        c.allgatherv(&[c.rank() as u8]);
        c.stats()
    });
    let sent: u64 = out.iter().map(|o| o.value.msgs_sent).sum();
    let recv: u64 = out.iter().map(|o| o.value.msgs_recv).sum();
    assert_eq!(sent, recv);
    let bytes_sent: u64 = out.iter().map(|o| o.value.bytes_sent).sum();
    let bytes_recv: u64 = out.iter().map(|o| o.value.bytes_recv).sum();
    assert_eq!(bytes_sent, bytes_recv);
}

#[test]
fn validated_collective_workload_is_clean() {
    // The full validation stack (ledger, conservation, tag discipline) must
    // stay silent on a correct mixed workload at several rank counts.
    for p in [1usize, 2, 3, 5, 8] {
        let (_, report) = Universe::new(p).validated().run_report(|c| {
            let s = c.allreduce_f64_sum(c.rank() as f64);
            c.barrier();
            let b = c.bcast(0, &[7]);
            let g = c.allgatherv(&[c.rank() as u8]);
            (s, b, g)
        });
        assert!(report.is_clean(), "p={p}: {report}");
    }
}
