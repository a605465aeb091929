//! Regenerates the paper's full evaluation: every table and figure, printed
//! to the console and exported as CSV under `target/experiments/`.
//!
//! This example predates the `mojo-hpc` binary, which is now the primary
//! entry point (`mojo-hpc run --all`, plus `list`/`sweep`/`diff` and a
//! sampled Hartree–Fock validation mode — see README.md); it remains as a
//! minimal library-level driver. Run with
//! `cargo run --release --example portability_report`.
//! Pass experiment ids (e.g. `table4 fig6`) to regenerate a subset.
//!
//! Independent experiments are dispatched concurrently over the persistent
//! rayon pool (set `RAYON_NUM_THREADS=1` for a serial run); the console and
//! CSV output is identical either way.

use mojo_hpc::report::{run_experiments, ExperimentId};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<ExperimentId> = if args.is_empty() {
        ExperimentId::ALL.to_vec()
    } else {
        args.iter()
            .map(|arg| {
                arg.parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    eprintln!(
                        "known ids: {}",
                        ExperimentId::ALL
                            .iter()
                            .map(|i| i.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    std::process::exit(2);
                })
            })
            .collect()
    };

    let started = Instant::now();
    let reports = run_experiments(&ids);
    let elapsed = started.elapsed();

    for report in reports {
        println!("{}", report.render());
        match report.write_csv_files() {
            Ok(paths) => {
                for path in paths {
                    println!("  [csv] {}", path.display());
                }
            }
            Err(err) => eprintln!("  failed to write CSV for {}: {err}", report.id),
        }
        println!();
    }
    eprintln!(
        "regenerated {} experiment(s) in {:.3} s",
        ids.len(),
        elapsed.as_secs_f64()
    );
}
