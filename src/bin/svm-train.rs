//! `svm-train` — command-line trainer in the spirit of libsvm's tool of
//! the same name, backed by the shrinksvm solvers.
//!
//! ```text
//! svm-train [options] training_file [model_file]
//!
//! options (libsvm-compatible where applicable):
//!   -t <int>     kernel: 0 linear, 1 polynomial, 2 RBF (default), 3 sigmoid
//!   -g <float>   gamma (default 1/num_features)
//!   -S <float>   sigma^2 (RBF width; overrides -g with 1/(2*sigma^2))
//!   -d <int>     polynomial degree (default 3)
//!   -r <float>   coef0 for poly/sigmoid (default 0)
//!   -c <float>   C (default 1)
//!   -e <float>   epsilon tolerance (default 1e-3)
//!   -m <int>     kernel cache size in MB, sequential solver only (default 100)
//!   -w+ <float>  weight multiplier of C for the +1 class (default 1)
//!   -w- <float>  weight multiplier of C for the -1 class (default 1)
//!   -H <name>    shrinking heuristic: Original (default), Single2..Single50pc,
//!                Multi2..Multi50pc (Table II names); forces the distributed solver
//!   -P <int>     distributed solver with this many simulated ranks (at least 1)
//!   -T <int>     multicore solver with this many threads
//!   -q           quiet
//! ```

use std::num::NonZeroUsize;
use std::process::exit;

use shrinksvm::prelude::*;
use shrinksvm::sparse::io::read_libsvm;
use shrinksvm_core::params::WssKind;

struct Opts {
    kernel_t: u32,
    gamma: Option<f64>,
    sigma_sq: Option<f64>,
    degree: u32,
    coef0: f64,
    c: f64,
    eps: f64,
    cache_mb: usize,
    w_pos: f64,
    w_neg: f64,
    heuristic: Option<String>,
    processes: Option<NonZeroUsize>,
    threads: Option<usize>,
    quiet: bool,
    training_file: String,
    model_file: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: svm-train [-t 0|1|2|3] [-g gamma | -S sigma^2] [-d degree] [-r coef0] \
         [-c C] [-e eps] [-m MB] [-w+ w] [-w- w] [-H heuristic] [-P procs] [-T threads] [-q] \
         training_file [model_file]"
    );
    exit(2);
}

fn parse_args() -> Opts {
    let mut o = Opts {
        kernel_t: 2,
        gamma: None,
        sigma_sq: None,
        degree: 3,
        coef0: 0.0,
        c: 1.0,
        eps: 1e-3,
        cache_mb: 100,
        w_pos: 1.0,
        w_neg: 1.0,
        heuristic: None,
        processes: None,
        threads: None,
        quiet: false,
        training_file: String::new(),
        model_file: String::new(),
    };
    let mut args = std::env::args().skip(1);
    let mut positional: Vec<String> = Vec::new();
    while let Some(a) = args.next() {
        let need = |args: &mut dyn Iterator<Item = String>| -> String {
            args.next().unwrap_or_else(|| usage())
        };
        match a.as_str() {
            "-t" => o.kernel_t = need(&mut args).parse().unwrap_or_else(|_| usage()),
            "-g" => o.gamma = Some(need(&mut args).parse().unwrap_or_else(|_| usage())),
            "-S" => o.sigma_sq = Some(need(&mut args).parse().unwrap_or_else(|_| usage())),
            "-d" => o.degree = need(&mut args).parse().unwrap_or_else(|_| usage()),
            "-r" => o.coef0 = need(&mut args).parse().unwrap_or_else(|_| usage()),
            "-c" => o.c = need(&mut args).parse().unwrap_or_else(|_| usage()),
            "-e" => o.eps = need(&mut args).parse().unwrap_or_else(|_| usage()),
            "-m" => o.cache_mb = need(&mut args).parse().unwrap_or_else(|_| usage()),
            "-w+" => o.w_pos = need(&mut args).parse().unwrap_or_else(|_| usage()),
            "-w-" => o.w_neg = need(&mut args).parse().unwrap_or_else(|_| usage()),
            "-H" => o.heuristic = Some(need(&mut args)),
            "-P" => o.processes = Some(need(&mut args).parse().unwrap_or_else(|_| usage())),
            "-T" => o.threads = Some(need(&mut args).parse().unwrap_or_else(|_| usage())),
            "-q" => o.quiet = true,
            "-h" | "--help" => usage(),
            _ => positional.push(a),
        }
    }
    match positional.len() {
        1 => {
            o.training_file = positional.remove(0);
            o.model_file = format!("{}.model", o.training_file);
        }
        2 => {
            o.training_file = positional.remove(0);
            o.model_file = positional.remove(0);
        }
        _ => usage(),
    }
    o
}

fn main() {
    let o = parse_args();
    let ds = match read_libsvm(&o.training_file) {
        Ok(ds) => ds,
        Err(e) => {
            eprintln!("svm-train: cannot read {}: {e}", o.training_file);
            exit(1);
        }
    };
    if !o.quiet {
        eprintln!("loaded {}", ds.summary());
    }

    let default_gamma = 1.0 / ds.x.ncols().max(1) as f64;
    let gamma = o
        .sigma_sq
        .map(|s2| 1.0 / (2.0 * s2))
        .or(o.gamma)
        .unwrap_or(default_gamma);
    let kernel = match o.kernel_t {
        0 => KernelKind::Linear,
        1 => KernelKind::Poly {
            gamma,
            coef0: o.coef0,
            degree: o.degree,
        },
        2 => KernelKind::Rbf { gamma },
        3 => KernelKind::Sigmoid {
            gamma,
            coef0: o.coef0,
        },
        _ => usage(),
    };
    let mut params = SvmParams::new(o.c, kernel)
        .with_epsilon(o.eps)
        .with_cache_bytes(o.cache_mb.checked_mul(1 << 20).unwrap_or_else(|| usage()))
        .with_class_weights(o.w_pos, o.w_neg)
        .with_wss(WssKind::SecondOrder);

    let policy = match o.heuristic.as_deref() {
        None => None,
        Some(name) => match ShrinkPolicy::parse(name) {
            Some(p) => Some(p),
            None => {
                eprintln!(
                    "svm-train: unknown heuristic '{name}' (use Table II names, e.g. Multi5pc)"
                );
                exit(2);
            }
        },
    };

    #[allow(clippy::disallowed_methods)]
    // allow-wall-clock: CLI-facing elapsed-time print, outside simulation
    let start = std::time::Instant::now();
    let (model, iterations, converged) = if policy.is_some() || o.processes.is_some() {
        // distributed path: cache-free, MVP selection, shrinking heuristics
        params.wss = WssKind::MaxViolatingPair;
        if let Some(p) = policy {
            params = params.with_shrink(p);
        }
        let procs = o.processes.map_or(1, NonZeroUsize::get);
        match DistSolver::new(&ds, params).with_processes(procs).train() {
            Ok(run) => (run.model, run.iterations, run.converged),
            Err(e) => {
                eprintln!("svm-train: training failed: {e}");
                exit(1);
            }
        }
    } else {
        let pool = o.threads.map(ThreadPool::new);
        let solver = SmoSolver::new(&ds, params);
        let solver = match &pool {
            Some(p) => solver.with_pool(p),
            None => solver,
        };
        match solver.train() {
            Ok(out) => (out.model, out.iterations, out.converged),
            Err(e) => {
                eprintln!("svm-train: training failed: {e}");
                exit(1);
            }
        }
    };

    if !o.quiet {
        eprintln!(
            "optimization finished: {iterations} iterations, {} SVs, bias {:+.6}{} ({:.2}s)",
            model.n_sv(),
            model.bias(),
            if converged {
                ""
            } else {
                " [iteration cap hit]"
            },
            start.elapsed().as_secs_f64()
        );
    }
    if let Err(e) = model.save(&o.model_file) {
        eprintln!("svm-train: cannot write model {}: {e}", o.model_file);
        exit(1);
    }
    if !o.quiet {
        eprintln!("model written to {}", o.model_file);
    }
}
