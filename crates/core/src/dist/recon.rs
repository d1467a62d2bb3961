//! Distributed gradient reconstruction — Algorithm 3.
//!
//! Shrunk samples stopped receiving γ updates, so before the solution can
//! be declared exact their gradients are recomputed *from scratch*:
//! `γ_i = Σ_{j: α_j>0} α_j y_j K(x_j, x_i) − y_i`. The `α_j > 0` samples
//! live on all ranks, so each rank's block of them is streamed around a
//! ring (Isend/Irecv per hop via
//! [`shrinksvm_mpisim::Comm::ring_shift`]); after `p` steps every rank has
//! applied the whole candidate set to its shrunk samples — without any
//! rank ever buffering the full dataset, the reason the paper rejects
//! `MPI_Allgatherv` here (§IV-B2).
//!
//! Each SV's column `K(x_j, ω)` comes from the solver's one kernel-column
//! routine, [`RankState::fill_pivot_row`] — the gather against a dense
//! scratch, split over the modeled lanes, priced like a pivot row — so a
//! reconstruction costs what the sweep's pivot rows cost per column. A
//! block's SVs are filled in pairs, two columns per gather pass, and each
//! partial gradient adds `coef_a·K_a` then `coef_b·K_b`: every gradient
//! sees the additions of one column at a time, in SV order. The gather is
//! bit-identical to the merge-join, so the gradients are too.
//!
//! All shrunk samples are then reactivated; the caller's next phase scan
//! recomputes `β_up`/`β_low` over the full index sets.

use shrinksvm_mpisim::Comm;

use crate::dist::msg::{decode_sv_block, encode_sv_block, SvEntry};
use crate::dist::solver::{Column, RankState};
use crate::error::CoreError;
use crate::smo::state::bound_tol;
use crate::trace::ReconEvent;

/// Run one gradient reconstruction. Returns the event record (also pushed
/// onto the rank's trace). A globally-empty shrunk set short-circuits after
/// one counting allreduce. A ring block that does not decode is a
/// [`CoreError::ModelFormat`].
///
/// Each ring block's SV columns are filled in pairs through
/// [`RankState::fill_pivot_row`]; for each shrunk row the pair adds
/// `coef_a·K_a` and then `coef_b·K_b` to its partial gradient, and the two
/// columns' charges are added in SV order, so gradients and clocks equal a
/// column-at-a-time fill's bit for bit.
pub(crate) fn reconstruct(
    st: &mut RankState<'_>,
    comm: &mut Comm,
) -> Result<ReconEvent, CoreError> {
    let clock_before = comm.clock();
    let ln = st.local_n();
    let tol = bound_tol(st.c());

    // ω_q: locally shrunk samples (Algorithm 3 line 1).
    let omega: Vec<u32> = (0..ln)
        .filter(|&li| !st.active[li])
        .map(|li| li as u32)
        .collect();
    let reactivated = comm.allreduce_u64_sum(omega.len() as u64);
    if reactivated == 0 {
        // nothing was ever shrunk — gradients are already exact.
        return Ok(ReconEvent {
            at_iteration: st.iterations,
            reactivated: 0,
            sv_count: 0,
            sv_bytes: 0,
        });
    }

    // Local α>0 block.
    let mut entries = Vec::new();
    for li in 0..ln {
        if st.alpha[li] > tol {
            entries.push(SvEntry {
                coef: st.alpha[li] * st.y(li),
                sq_norm: st.sq[li],
                cols: st.row(li).indices.to_vec(),
                vals: st.row(li).values.to_vec(),
            });
        }
    }
    let my_block = encode_sv_block(&entries);
    let sv_count = comm.allreduce_u64_sum(entries.len() as u64);
    let sv_bytes = comm.allreduce_u64_sum(my_block.len() as u64);

    // Ring: process own block, then p−1 shifted blocks (lines 2–6). The
    // SVs' kernel columns over ω are filled two at a time, then folded into
    // the partial gradients in block order, and charged in block order.
    let p = comm.size();
    let mut gtmp = vec![0.0f64; omega.len()];
    let mut ka = vec![0.0f64; omega.len()];
    let mut kb = vec![0.0f64; omega.len()];
    let mut cur = my_block;
    for step in 0..p {
        let block = decode_sv_block(&cur).ok_or_else(|| {
            CoreError::ModelFormat(format!("bad SV block at reconstruction ring step {step}"))
        })?;
        let mut cost = 0.0;
        for pair in block.chunks(2) {
            if let [a, b] = pair {
                let [ca, cb] =
                    st.fill_pivot_row(&omega, column(a, &mut ka), Some(column(b, &mut kb)));
                cost += ca;
                cost += cb;
                for ((g, &x), &y) in gtmp.iter_mut().zip(&ka).zip(&kb) {
                    *g += a.coef * x;
                    *g += b.coef * y;
                }
            } else {
                // the odd SV at the end of a block
                for a in pair {
                    let [ca, _] = st.fill_pivot_row(&omega, column(a, &mut ka), None);
                    cost += ca;
                    for (g, &x) in gtmp.iter_mut().zip(&ka) {
                        *g += a.coef * x;
                    }
                }
            }
        }
        st.trace.kernel_evals += (block.len() * omega.len()) as u64;
        comm.advance_compute_classed(cost, "recon", None);
        if step + 1 < p {
            cur = comm.ring_shift(&cur);
        }
    }

    // Write back and reactivate (lines 5–6 + §IV-B re-introduction).
    for (&g, &li) in gtmp.iter().zip(&omega) {
        let li = li as usize;
        st.grad[li] = g - st.y(li);
        st.active[li] = true;
    }
    // The active span is the full block again: rebuild the iteration list
    // and drop cached kernel rows (they span the pre-recon active list).
    st.on_reconstruction();

    st.add_recon_time(comm.clock() - clock_before);
    comm.trace_span("reconstruction", "solver", clock_before, comm.clock());
    comm.trace_counter("active_set", st.part.n() as f64);
    if comm.rank() == 0 {
        st.metrics.inc("reconstructions", 1);
        st.metrics.inc("samples_reactivated", reactivated);
        st.metrics
            .sample("active_set", st.iterations, st.part.n() as f64);
    }
    let event = ReconEvent {
        at_iteration: st.iterations,
        reactivated,
        sv_count,
        sv_bytes,
    };
    st.trace.recon_events.push(event);
    st.trace
        .active_curve
        .push((st.iterations, st.part.n() as u64));
    Ok(event)
}

/// SV `sv`'s kernel column over ω, written into `out`.
fn column<'p, 'o>(sv: &'p SvEntry, out: &'o mut [f64]) -> Column<'p, 'o> {
    Column {
        pivot: sv.row(),
        pivot_sq: sv.sq_norm,
        out,
    }
}
