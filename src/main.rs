//! The `mojo-hpc` binary: scenario-addressable entry point to the
//! reproduction. `mojo-hpc help` prints the subcommand reference; parsing
//! and execution live in [`experiment_report::cli`].
//!
//! The `shard` coordinator re-invokes *this* binary (via
//! `std::env::current_exe`) as its worker subprocesses, so the worker-facing
//! `--shard I/N` flags of `run` and `sweep` always speak the same partition
//! and document schema as the coordinator that spawned them (DESIGN.md §10).
//! Workers run on this host under the fault-tolerant dispatcher
//! ([`experiment_report::dispatch`], DESIGN.md §12): per-worker
//! `--timeout` and bounded retry under `--max-attempts`, while the merged
//! output stays byte-identical to a single-process run.
//!
//! `mojo-hpc serve` keeps one process of this binary resident as a TCP
//! report service ([`experiment_report::serve`], DESIGN.md §13): responses
//! reuse the `run`/`sweep` stdout bytes, results are cached under the
//! stable `Params` encoding, and the points a request still needs run on
//! the same worker pool as `run`/`sweep`.

use experiment_report::cli;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match cli::parse(&args) {
        Ok(command) => cli::execute(&command),
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("\n{}", cli::usage());
            2
        }
    };
    std::process::exit(code);
}
