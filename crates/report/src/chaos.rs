//! Fault-injection seam for the shard worker path (DESIGN.md §12).
//!
//! The dispatcher (`crate::dispatch`) is only trustworthy if its recovery
//! paths are exercised, so the worker entry points of `run --shard` and
//! `sweep --shard` consult the `MOJO_HPC_CHAOS` environment variable before
//! doing any work. The variable holds a comma-separated list of rules:
//!
//! ```text
//! MOJO_HPC_CHAOS=crash:1,hang:2,garble:0
//! ```
//!
//! Each rule is `mode:shard[:attempts]`:
//!
//! * `crash:I` — worker for shard `I` prints a marker to stderr and exits 3;
//! * `hang:I` — worker for shard `I` sleeps forever (the dispatcher's
//!   per-worker timeout must reap it);
//! * `garble:I` — worker for shard `I` prints a non-JSON line on stdout and
//!   exits 0 (a protocol violation the coordinator must catch).
//!
//! The optional `:attempts` suffix bounds how many attempts the rule fires
//! on: by default a rule fires only on the **first** attempt, so a retried
//! worker recovers and the run completes byte-identically. `crash:1:3` fires
//! on attempts 1–3 and `crash:1:*` on every attempt (the retries-exhausted
//! lane). The dispatcher tells each worker its attempt number through the
//! `MOJO_HPC_ATTEMPT` environment variable; a worker launched any other way
//! counts as attempt 1.
//!
//! The seam lives strictly in the worker path: the coordinator never calls
//! [`apply`], so exporting `MOJO_HPC_CHAOS` around a `mojo-hpc shard …`
//! invocation perturbs only the spawned workers.

use std::time::Duration;

/// Environment variable holding the chaos rule list.
pub const CHAOS_ENV: &str = "MOJO_HPC_CHAOS";

/// Environment variable the dispatcher sets to the worker's attempt number
/// (1-based). Absent or unparseable means attempt 1.
pub const ATTEMPT_ENV: &str = "MOJO_HPC_ATTEMPT";

/// The exit code a `crash` rule terminates the worker with.
pub const CRASH_EXIT_CODE: i32 = 3;

/// An injected failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Exit nonzero before doing any work.
    Crash,
    /// Sleep forever; only a timeout reaps the worker.
    Hang,
    /// Print non-JSON on stdout and exit 0.
    Garble,
}

impl ChaosMode {
    fn parse(word: &str) -> Result<ChaosMode, String> {
        match word {
            "crash" => Ok(ChaosMode::Crash),
            "hang" => Ok(ChaosMode::Hang),
            "garble" => Ok(ChaosMode::Garble),
            other => Err(format!(
                "{CHAOS_ENV}: unknown mode '{other}' (known: crash, hang, garble)"
            )),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            ChaosMode::Crash => "crash",
            ChaosMode::Hang => "hang",
            ChaosMode::Garble => "garble",
        }
    }
}

/// One parsed `mode:shard[:attempts]` rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosRule {
    /// The injected failure mode.
    pub mode: ChaosMode,
    /// The shard index the rule targets.
    pub shard: u64,
    /// The rule fires while the worker's attempt number is `<= attempts`
    /// (`u32::MAX` encodes `*`, every attempt).
    pub attempts: u32,
}

/// Parses a `MOJO_HPC_CHAOS` rule list.
pub fn parse_spec(spec: &str) -> Result<Vec<ChaosRule>, String> {
    spec.split(',')
        .filter(|rule| !rule.trim().is_empty())
        .map(|rule| {
            let mut parts = rule.trim().split(':');
            let mode = ChaosMode::parse(parts.next().unwrap_or(""))?;
            let shard = parts
                .next()
                .ok_or_else(|| format!("{CHAOS_ENV}: rule '{rule}' is missing a shard index"))?;
            let shard: u64 = shard
                .parse()
                .map_err(|_| format!("{CHAOS_ENV}: invalid shard index '{shard}' in '{rule}'"))?;
            let attempts = match parts.next() {
                None => 1,
                Some("*") => u32::MAX,
                Some(n) => n.parse::<u32>().map_err(|_| {
                    format!("{CHAOS_ENV}: invalid attempt bound '{n}' in '{rule}' (number or *)")
                })?,
            };
            if parts.next().is_some() {
                return Err(format!(
                    "{CHAOS_ENV}: rule '{rule}' has too many fields (mode:shard[:attempts])"
                ));
            }
            Ok(ChaosRule {
                mode,
                shard,
                attempts,
            })
        })
        .collect()
}

/// The worker's attempt number, from [`ATTEMPT_ENV`] (1 when absent).
pub fn current_attempt() -> u32 {
    std::env::var(ATTEMPT_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Consults [`CHAOS_ENV`] and injects the configured failure for `shard`,
/// if any. Called at the top of the shard-worker execution paths; does not
/// return when a rule fires. A malformed rule list exits 2 — a chaos
/// harness with a typo must fail loudly, not silently run clean.
pub fn apply(shard: u64) {
    let Ok(spec) = std::env::var(CHAOS_ENV) else {
        return;
    };
    let rules = match parse_spec(&spec) {
        Ok(rules) => rules,
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(2);
        }
    };
    let attempt = current_attempt();
    for rule in rules {
        if rule.shard != shard || attempt > rule.attempts {
            continue;
        }
        eprintln!(
            "chaos: injecting {} into shard {shard} (attempt {attempt})",
            rule.mode.name()
        );
        match rule.mode {
            ChaosMode::Crash => std::process::exit(CRASH_EXIT_CODE),
            ChaosMode::Hang => loop {
                std::thread::sleep(Duration::from_secs(3600));
            },
            ChaosMode::Garble => {
                println!("** chaos: garbled shard document **");
                std::process::exit(0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_rule_lists() {
        assert_eq!(
            parse_spec("crash:1,hang:2,garble:0").unwrap(),
            vec![
                ChaosRule {
                    mode: ChaosMode::Crash,
                    shard: 1,
                    attempts: 1
                },
                ChaosRule {
                    mode: ChaosMode::Hang,
                    shard: 2,
                    attempts: 1
                },
                ChaosRule {
                    mode: ChaosMode::Garble,
                    shard: 0,
                    attempts: 1
                },
            ]
        );
        assert_eq!(
            parse_spec("crash:2:4").unwrap(),
            vec![ChaosRule {
                mode: ChaosMode::Crash,
                shard: 2,
                attempts: 4
            }]
        );
        assert_eq!(parse_spec("crash:0:*").unwrap()[0].attempts, u32::MAX);
        assert!(parse_spec("").unwrap().is_empty());
        assert!(parse_spec(" , ").unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_rules() {
        assert!(parse_spec("explode:1").is_err(), "unknown mode");
        assert!(parse_spec("slow:1").is_err(), "no straggler mode");
        assert!(parse_spec("crash").is_err(), "missing shard");
        assert!(parse_spec("crash:x").is_err(), "non-numeric shard");
        assert!(parse_spec("crash:1:y").is_err(), "non-numeric attempts");
        assert!(parse_spec("crash:1:2:3").is_err(), "too many fields");
        assert!(parse_spec("crash:-1").is_err(), "negative shard");
    }
}
