//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--scale <f>] [--out <dir>] <command>
//!
//! commands:
//!   table2      heuristic inventory (Table II)
//!   table3      dataset characteristics (Table III)
//!   fig3..fig7  scaling studies (HIGGS, URL, Forest, MNIST, real-sim)
//!   fig8        gradient-reconstruction time fraction
//!   table4      smaller-dataset speedups (Table IV)
//!   table5      testing accuracy (Table V)
//!   heuristics  full Table-II ablation (§V-D2)
//!   ablations   design-choice ablations (permanent elimination, subsequent threshold, interconnect)
//!   all         everything above
//! ```
//!
//! `--scale` multiplies every dataset's sample count (default 1.0 ≈ a few
//! thousand samples per set, minutes per figure on one core). Output lands
//! in `--out` (default `results/`).

use std::path::PathBuf;
use std::process::exit;

use shrinksvm_bench::experiments::{ablations, figures, heuristics, tables};
use shrinksvm_bench::runner::Ctx;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--scale <f>] [--out <dir>] \
         <table2|table3|fig3|fig4|fig5|fig6|fig7|fig8|table4|table5|heuristics|ablations|all>"
    );
    exit(2);
}

fn main() {
    let mut scale = 1.0f64;
    let mut out = PathBuf::from("results");
    let mut cmd: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_else(|| usage());
                scale = v.parse().unwrap_or_else(|_| usage());
                if scale.is_nan() || scale <= 0.0 {
                    usage();
                }
            }
            "--out" => out = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            c if cmd.is_none() => cmd = Some(c.to_string()),
            _ => usage(),
        }
    }
    let cmd = cmd.unwrap_or_else(|| usage());

    let ctx = Ctx::new(scale, out);
    println!(
        "machine model: lambda = {:.3e} s/nnz, kernel overhead = {:.1e} s, net = FDR-like",
        ctx.model().charge.lambda_per_nnz,
        ctx.model().charge.kernel_overhead
    );

    #[allow(clippy::disallowed_methods)]
    // allow-wall-clock: host-side elapsed-time print, outside simulation
    let started = std::time::Instant::now();
    match cmd.as_str() {
        "table2" => tables::table2(&ctx),
        "table3" => tables::table3(&ctx),
        "table4" => tables::table4(&ctx),
        "table5" => tables::table5(&ctx),
        "fig3" => figures::fig3(&ctx),
        "fig4" => figures::fig4(&ctx),
        "fig5" => figures::fig5(&ctx),
        "fig6" => figures::fig6(&ctx),
        "fig7" => figures::fig7(&ctx),
        "fig8" => figures::fig8(&ctx),
        "heuristics" => heuristics::run(&ctx),
        "ablations" => ablations::run(&ctx),
        "all" => {
            tables::table2(&ctx);
            tables::table3(&ctx);
            figures::fig3(&ctx);
            figures::fig4(&ctx);
            figures::fig5(&ctx);
            figures::fig6(&ctx);
            figures::fig7(&ctx);
            figures::fig8(&ctx);
            tables::table4(&ctx);
            tables::table5(&ctx);
            heuristics::run(&ctx);
            ablations::run(&ctx);
        }
        _ => usage(),
    }
    println!("done in {:.1}s", started.elapsed().as_secs_f64());
}
