//! Traced run of the benchmark: calls each layer's public functions in the
//! order the product paths reach them and records one span per call.
//!
//! ```text
//! perfbench-tracer report --out DIR --spans FILE [--shard-doc FILE]...
//! perfbench-tracer sweep --plan FILE --spans FILE
//! ```
//!
//! `report` follows `mojo-hpc run --all --format json`: cold memos for every
//! registry preset, the cost and timing models, the functional drivers, then
//! each experiment with warm memos, the JSON rendering and the file writes,
//! and finally the parse and merge of `--shard i/N` worker documents.
//! `sweep` does the same for each plan line (`<workload> <size,...>
//! [key=value ...]`), ending in `render_sweep`. Every process starts with
//! cold memos, so the first call of each memo key pays its generation.
//!
//! Spans stay in memory and are written as one JSON document at exit:
//! `{"spans": [{"name", "start_us", "end_us", "parent"}], "counters": {…},
//! "attempted": N, "failed": N}`. `parent` is the index of the enclosing
//! span, or -1.

use experiment_report::registry::{run_experiment, ExperimentId};
use experiment_report::report::ExperimentReport;
use experiment_report::shard::{self, ShardDocument};
use experiment_report::sweep::{render_sweep, SweepSpec};
use gpu_sim::KernelCost;
use gpu_spec::Precision;
use science_kernels::babelstream::{self, BabelStreamConfig};
use science_kernels::framestream::{self, FrameStreamConfig};
use science_kernels::hartree_fock::{self, HartreeFockConfig, SampleWeighting};
use science_kernels::jacobi::{self, JacobiConfig};
use science_kernels::minibude::{self, MiniBudeConfig};
use science_kernels::stencil7::{self, StencilConfig};
use science_kernels::workload::{self, paper_platform_pairs, Params, WorkloadOutput};
use science_kernels::{cache, WorkloadRun};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use vendor_models::{KernelClass, Platform, StreamOp};

/// One recorded call.
struct Span {
    name: String,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// In-memory span recorder plus the run's operation counts.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed();
        out
    }

    /// Counts one checked operation, recording why it failed.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    fn to_json(&self, pool: &gpu_sim::PoolStats) -> String {
        let mut out = String::from("{\"spans\": [");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"parent\": {}}}",
                span.name,
                span.start.as_micros(),
                span.end.as_micros(),
                span.parent.map_or(-1, |p| p as i64)
            );
        }
        let _ = write!(
            out,
            "],\n\"counters\": {{\"checkouts\": {}, \"hits\": {}, \
             \"fresh_bytes\": {}, \"high_water_bytes\": {}}},\n\
             \"attempted\": {}, \"failed\": {}, \"errors\": [{}]}}\n",
            pool.checkouts,
            pool.hits,
            pool.fresh_bytes,
            pool.high_water_bytes,
            self.attempted,
            self.failed,
            self.errors
                .iter()
                .map(|e| format!("{e:?}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        out
    }
}

/// One sweep or preset point, decoded into its family's driver config.
enum Point {
    Stencil(StencilConfig),
    Stream(BabelStreamConfig, &'static [StreamOp]),
    Bude(MiniBudeConfig),
    Fock(HartreeFockConfig),
    Sampled(HartreeFockConfig, u64, u64),
    Jacobi(JacobiConfig),
    Frames(FrameStreamConfig),
}

impl Point {
    fn decode(workload: &str, params: &Params) -> Result<Point, String> {
        let err = |e: workload::WorkloadError| e.to_string();
        Ok(match workload {
            "stencil" => Point::Stencil(stencil7::workload::config(params).map_err(err)?),
            "babelstream" => Point::Stream(
                babelstream::workload::config(params).map_err(err)?,
                babelstream::workload::parse_ops(params.text("op")).map_err(err)?,
            ),
            "minibude" => Point::Bude(minibude::workload::config(params).map_err(err)?),
            "hartree-fock" => Point::Fock(hartree_fock::workload::config(params).map_err(err)?),
            "hartree-fock-sampled" => Point::Sampled(
                hartree_fock::workload::config(params).map_err(err)?,
                params.int("samples"),
                params.int("shards"),
            ),
            "jacobi" => Point::Jacobi(jacobi::workload::config(params).map_err(err)?),
            "framestream" => Point::Frames(framestream::workload::config(params).map_err(err)?),
            other => return Err(format!("unknown workload '{other}'")),
        })
    }

    /// The family label of the `kernels.exec.*` spans.
    fn family(&self) -> &'static str {
        match self {
            Point::Stencil(_) => "stencil7",
            Point::Stream(..) => "babelstream",
            Point::Bude(_) => "minibude",
            Point::Fock(_) => "hartree_fock",
            Point::Sampled(..) => "hartree_fock_sampled",
            Point::Jacobi(_) => "jacobi",
            Point::Frames(_) => "framestream",
        }
    }

    /// Generates every memo the drivers would fetch for this point, each in
    /// its own span (a warm key costs one map lookup).
    fn memos(&self, t: &mut Tracer) {
        match self {
            Point::Stencil(c) if c.should_execute() => {
                t.span("kernels.cache.stencil_grid", |_| match c.precision {
                    Precision::Fp32 => drop(black_box(cache::stencil_grid_f32(c))),
                    Precision::Fp64 => drop(black_box(cache::stencil_grid(c))),
                });
                t.span("kernels.cache.stencil_reference", |_| {
                    black_box(cache::stencil_reference(c))
                });
            }
            Point::Bude(c) if c.should_execute() => {
                t.span("kernels.cache.minibude_deck", |_| {
                    black_box((cache::minibude_deck(c), cache::minibude_flats(c)))
                });
                t.span("kernels.cache.minibude_reference", |_| {
                    black_box(cache::minibude_reference(c))
                });
            }
            Point::Fock(c) => {
                t.span("kernels.cache.helium_system", |_| {
                    black_box(cache::helium_system(c))
                });
                if c.should_execute() {
                    t.span("kernels.cache.hartree_fock_reference", |_| {
                        black_box(cache::hartree_fock_reference(c))
                    });
                }
            }
            Point::Sampled(c, samples, shards) => {
                t.span("kernels.cache.helium_system", |_| {
                    black_box(cache::helium_system(c))
                });
                t.span("kernels.cache.sampled_plan", |_| {
                    black_box(cache::sampled_plan(
                        c,
                        *samples,
                        *shards,
                        SampleWeighting::Uniform,
                    ))
                });
            }
            Point::Jacobi(c) if c.should_execute() => {
                t.span("kernels.cache.stencil_grid", |_| {
                    black_box(cache::stencil_grid(&jacobi::seed_config(c)))
                });
                t.span("kernels.cache.jacobi_reference", |_| {
                    black_box(cache::jacobi_reference(c))
                });
            }
            _ => {}
        }
    }

    /// The cost-model results one platform's launches of this point need,
    /// with the kernel class that picks the execution profile.
    fn costs(&self, platform: &Platform) -> Vec<(KernelCost, KernelClass)> {
        match self {
            Point::Stencil(c) => vec![(
                stencil7::stencil_cost(c),
                KernelClass::Stencil7 {
                    precision: c.precision,
                },
            )],
            Point::Stream(c, ops) => ops
                .iter()
                .map(|&op| {
                    (
                        babelstream::stream_cost(platform, op, c),
                        KernelClass::Stream {
                            op,
                            precision: c.precision,
                        },
                    )
                })
                .collect(),
            Point::Bude(c) => vec![(
                minibude::fasten_cost(c),
                KernelClass::BudeFasten {
                    ppwi: c.ppwi,
                    wg: c.wg,
                },
            )],
            Point::Fock(c) => vec![(
                hartree_fock::hartree_fock_cost(c, &cache::helium_system(c)),
                KernelClass::HartreeFock {
                    natoms: c.natoms,
                    ngauss: c.ngauss,
                },
            )],
            Point::Sampled(c, ..) => {
                black_box(hartree_fock::surviving_quartets(
                    &cache::helium_system(c).schwarz,
                    c.screening_tol,
                ));
                Vec::new()
            }
            Point::Jacobi(c) => vec![(
                jacobi::jacobi_cost(c, jacobi::planned_iters(c)),
                KernelClass::Stencil7 {
                    precision: Precision::Fp64,
                },
            )],
            Point::Frames(c) => vec![(
                framestream::framestream_cost(c),
                KernelClass::Stream {
                    op: StreamOp::Triad,
                    precision: Precision::Fp64,
                },
            )],
        }
    }

    /// The platforms this point launches on (the sampled validation runs on
    /// the portable H100 only).
    fn platforms(&self) -> &'static [Platform] {
        match self {
            Point::Sampled(..) => &paper_platform_pairs()[..1],
            _ => &paper_platform_pairs()[..],
        }
    }

    /// One functional launch plus verification on `platform`. Returns
    /// whether every launch verified (a skipped verification is not a pass).
    fn exec(&self, platform: &Platform) -> Result<bool, String> {
        let portable = platform.backend.is_portable();
        let verified = |run: WorkloadRun| run.verification.is_verified();
        let e = |e: gpu_sim::SimError| e.to_string();
        Ok(match self {
            Point::Stencil(c) if portable => {
                verified(stencil7::run_portable(platform, c).map_err(e)?)
            }
            Point::Stencil(c) => verified(stencil7::run_vendor(platform, c).map_err(e)?),
            Point::Stream(c, ops) => {
                let mut all = true;
                for &op in *ops {
                    let run = if portable {
                        babelstream::run_portable(platform, op, c)
                    } else {
                        babelstream::run_vendor(platform, op, c)
                    };
                    all &= verified(run.map_err(e)?);
                }
                all
            }
            Point::Bude(c) if portable => verified(minibude::run_portable(platform, c).map_err(e)?),
            Point::Bude(c) => verified(minibude::run_vendor(platform, c).map_err(e)?),
            Point::Fock(c) if portable => {
                verified(hartree_fock::run_portable(platform, c).map_err(e)?)
            }
            Point::Fock(c) => verified(hartree_fock::run_vendor(platform, c).map_err(e)?),
            Point::Sampled(c, samples, shards) => {
                black_box(hartree_fock::run_sampled(platform, c, *samples, *shards).map_err(e)?);
                true
            }
            Point::Jacobi(c) if portable => verified(jacobi::run_portable(platform, c).map_err(e)?),
            Point::Jacobi(c) => verified(jacobi::run_vendor(platform, c).map_err(e)?),
            Point::Frames(c) if portable => {
                verified(framestream::run_portable(platform, c).map_err(e)?)
            }
            Point::Frames(c) => verified(framestream::run_vendor(platform, c).map_err(e)?),
        })
    }
}

/// Traces every layer below the report crate for a set of points: cold
/// memos, cost model, timing model, then the functional drivers. With
/// `require_verified`, a launch that skips or fails verification counts as
/// a failed operation (sweep points are chosen to execute functionally;
/// paper-size registry presets legitimately skip).
fn trace_points(t: &mut Tracer, decoded: &[(String, Point)], require_verified: bool) {
    for (_, point) in decoded {
        point.memos(t);
    }
    let mut launches = Vec::new();
    for (_, point) in decoded {
        for platform in point.platforms() {
            let costs = t.span("kernels.cost", |_| point.costs(platform));
            launches.extend(
                costs
                    .into_iter()
                    .map(|(cost, class)| (platform, cost, class)),
            );
        }
    }
    for (platform, cost, class) in &launches {
        let profile = platform.execution_profile(class);
        t.span("sim.timing", |_| {
            black_box(cache::timing_model(platform).estimate(cost, &profile))
        });
    }
    for (name, point) in decoded {
        for platform in point.platforms() {
            let lane = match point {
                Point::Sampled(..) => String::new(),
                _ if platform.backend.is_portable() => ".portable".to_string(),
                _ => ".vendor".to_string(),
            };
            let outcome = t.span(format!("kernels.exec.{}{lane}", point.family()), |_| {
                point.exec(platform)
            });
            let ok = matches!(outcome, Ok(true)) || (!require_verified && outcome.is_ok());
            t.check(ok, || {
                format!("{name} on {}: {outcome:?}", platform.label())
            });
        }
    }
}

/// Runs `Workload::run` for every point of `spec` (warm memos), checking
/// that every row verified.
fn trace_workload(t: &mut Tracer, spec: &SweepSpec) -> Vec<WorkloadOutput> {
    let engine = spec.workload;
    let mut outputs = Vec::new();
    for &size in &spec.sizes {
        let params = match spec.point(size) {
            Ok(params) => params,
            Err(e) => {
                t.check(false, || e.to_string());
                continue;
            }
        };
        let output = t.span(format!("kernels.workload.{}", engine.name()), |_| {
            engine.run(&params)
        });
        match output {
            Ok(output) => {
                let passed = output
                    .measurements
                    .iter()
                    .all(|m| m.verification.starts_with("passed("));
                t.check(passed, || {
                    format!("{} {size}: unverified rows", engine.name())
                });
                outputs.push(output);
            }
            Err(e) => t.check(false, || format!("{} {size}: {e}", engine.name())),
        }
    }
    outputs
}

/// Parses one plan line: `<workload> <size,...> [key=value ...]`.
fn parse_plan_line(line: &str) -> Result<SweepSpec, String> {
    let mut fields = line.split_whitespace();
    let name = fields.next().ok_or("empty plan line")?;
    let sizes = fields
        .next()
        .ok_or_else(|| format!("plan line '{line}' has no sizes"))?
        .split(',')
        .map(|s| s.parse::<u64>().map_err(|e| format!("size '{s}': {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let overrides: Vec<String> = fields.map(str::to_string).collect();
    let engine = workload::find(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    SweepSpec::new(engine, &overrides, sizes).map_err(|e| e.to_string())
}

fn sweep_mode(t: &mut Tracer, plan: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(plan)
        .map_err(|e| format!("cannot read plan {}: {e}", plan.display()))?;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let spec = parse_plan_line(line)?;
        let name = spec.workload.name();
        let mut points = Vec::new();
        for &size in &spec.sizes {
            let point = spec
                .point(size)
                .map_err(|e| e.to_string())
                .and_then(|params| Point::decode(name, &params))?;
            points.push((name.to_string(), point));
        }
        t.span(format!("sweep {}", line.trim()), |t| {
            trace_points(t, &points, true);
            let outputs = trace_workload(t, &spec);
            t.span("report.sweep_render", |_| {
                black_box(render_sweep(&spec, &outputs).to_json_pretty())
            });
        });
    }
    Ok(())
}

fn report_mode(t: &mut Tracer, out: &Path, shard_docs: &[PathBuf]) -> Result<(), String> {
    // Every distinct registry preset point, in presentation order.
    let mut seen = HashSet::new();
    let mut points = Vec::new();
    for id in ExperimentId::ALL {
        let Some(preset) = id.spec().workload else {
            continue;
        };
        for params in preset.resolve().map_err(|e| e.to_string())? {
            if seen.insert(format!("{}:{}", preset.workload, params.encode())) {
                points.push((preset.workload.to_string(), params));
            }
        }
    }
    let mut decoded = Vec::new();
    for (name, params) in &points {
        match Point::decode(name, params) {
            // Figures 6 and 7 (and Table 5) time the fasten cost model only;
            // their presets decode with functional poses for `sweep`.
            Ok(Point::Bude(c)) => decoded.push((
                name.clone(),
                Point::Bude(MiniBudeConfig {
                    executed_poses: 0,
                    ..c
                }),
            )),
            Ok(point) => decoded.push((name.clone(), point)),
            Err(e) => t.check(false, || e),
        }
    }
    t.span("registry presets", |t| trace_points(t, &decoded, false));
    let reports: Vec<ExperimentReport> = ExperimentId::ALL
        .iter()
        .map(|&id| t.span(format!("report.experiment.{id}"), |_| run_experiment(id)))
        .collect();
    t.span("report.render", |_| {
        black_box(ExperimentReport::render_json_array(&reports))
    });
    for report in &reports {
        let written = t.span("report.write", |_| report.write_json_file_to(out));
        t.check(written.is_ok(), || {
            format!("write {}: {written:?}", report.id)
        });
    }
    if !shard_docs.is_empty() {
        let mut docs = Vec::new();
        for path in shard_docs {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let doc = t.span("report.shard.parse", |_| ShardDocument::parse(&text));
            match doc {
                Ok(doc) => docs.push(doc),
                Err(e) => t.check(false, || format!("{}: {e}", path.display())),
            }
        }
        let items: Vec<String> = ExperimentId::ALL.iter().map(|id| id.to_string()).collect();
        let merged = t.span("report.shard.merge", |_| shard::merge_run(&docs, &items));
        let same = merged.is_ok_and(|m| {
            ExperimentReport::render_json_array(&m) == ExperimentReport::render_json_array(&reports)
        });
        t.check(same, || {
            "merged shard reports differ from the in-process run".to_string()
        });
    }
    Ok(())
}

fn usage() -> String {
    "usage: perfbench-tracer report --out DIR --spans FILE [--shard-doc FILE]...\n       \
     perfbench-tracer sweep --plan FILE --spans FILE"
        .to_string()
}

fn run(args: &[String]) -> Result<(), String> {
    let mode = args.first().ok_or_else(usage)?;
    let (mut out, mut plan, mut spans) = (None, None, None);
    let mut shard_docs = Vec::new();
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let value = PathBuf::from(rest.next().ok_or_else(usage)?);
        match flag.as_str() {
            "--out" => out = Some(value),
            "--plan" => plan = Some(value),
            "--spans" => spans = Some(value),
            "--shard-doc" => shard_docs.push(value),
            _ => return Err(usage()),
        }
    }
    let spans = spans.ok_or_else(usage)?;
    let pool_before = gpu_sim::pool::stats();
    let mut tracer = Tracer::new();
    let result = tracer.span("tracer", |t| match mode.as_str() {
        "report" => report_mode(t, &out.ok_or_else(usage)?, &shard_docs),
        "sweep" => sweep_mode(t, &plan.ok_or_else(usage)?),
        _ => Err(usage()),
    });
    result?;
    let pool = gpu_sim::pool::stats().since(&pool_before);
    std::fs::write(&spans, tracer.to_json(&pool))
        .map_err(|e| format!("cannot write {}: {e}", spans.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench-tracer: {message}");
            ExitCode::from(2)
        }
    }
}
