//! End-to-end benchmark of the DistGER reproduction with per-layer numbers.
//!
//! ```text
//! perfbench --workload <yt-embed|or-embed|ba-socket> --seed N --seconds S --trace 0|1
//!           [--work-dir DIR]
//! perfbench --reference <yt-embed|or-embed> [--work-dir DIR]
//! ```
//!
//! Runs whole rounds of one workload until `S` seconds have passed and
//! prints, as the last line, `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics from a
//! traced run with `--trace 1`. The seed drives the serve traffic; the
//! jobs' inputs are the same in every run (see `embed::INPUT_SEED` and
//! `socket::spec`). Every output is checked against the benchmark's own
//! computations, and a failed check exits with code 1. `--reference` prints the comparison systems' figures
//! on a workload's input instead; they are for reference and not gated.

mod checks;
mod embed;
mod inputs;
mod oracle;
mod reference;
mod report;
mod serving;
mod socket;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use distger_obs::TraceEvent;

use crate::embed::EmbedWorkload;
use crate::inputs::GraphShape;
use crate::report::{quantile, Operations, Readings, END_TO_END, PER_LAYER};

/// Simulated machines of every job.
pub const MACHINES: usize = 2;
/// Embedding dimension of every job.
pub const DIM: usize = 64;
/// Times set-up repeats at each sampling moment; `setup_s` is the median of
/// all of a run's set-ups.
pub const SETUP_REPEATS: usize = 8;

const YT_EMBED: EmbedWorkload = EmbedWorkload {
    name: "yt-embed",
    shape: GraphShape {
        nodes: 4000,
        edges_per_node: 2,
        community_size: 60,
        mixing: 0.1,
    },
};

const OR_EMBED: EmbedWorkload = EmbedWorkload {
    name: "or-embed",
    shape: GraphShape {
        nodes: 3000,
        edges_per_node: 20,
        community_size: 60,
        mixing: 0.1,
    },
};

/// One run's settings.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work_dir: PathBuf,
}

impl Run {
    /// A file of this run in the work directory.
    pub fn file(&self, workload: &str, extension: &str) -> PathBuf {
        self.work_dir
            .join(format!("{workload}-seed{}.{extension}", self.seed))
    }

    /// Writes the Perfetto trace of a traced round.
    pub fn write_trace(&self, workload: &str, events: &[TraceEvent]) -> Result<(), String> {
        let path = self.file(workload, "trace.json");
        std::fs::write(&path, distger_obs::chrome_trace_json(events))
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// Everything a run accumulates over its rounds.
#[derive(Default)]
pub struct RunTotals {
    pub readings: Readings,
    pub ops: Operations,
    /// Open-loop windows measured.
    pub open_windows: u64,
    /// How late the open-loop generator submitted each request.
    pub lags_ms: Vec<f64>,
    /// Answers holding fewer than `K` ids (see `serving::check_answer`).
    pub short_answers: u64,
}

impl RunTotals {
    /// Runs the set-up `SETUP_REPEATS` times, each time one `setup_s` and
    /// `graph.load_s` reading, and returns the last result.
    pub fn time_setup<T>(
        &mut self,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            let t = Instant::now();
            let out = setup()?;
            let secs = t.elapsed().as_secs_f64();
            self.readings.push("setup_s", secs);
            self.readings.push("graph.load_s", secs);
            last = Some(out);
        }
        Ok(last.expect("SETUP_REPEATS > 0"))
    }
}

/// Prints a traced round's tracing overhead.
pub fn print_overhead(untraced_s: f64, traced_s: f64) {
    println!(
        "  tracing overhead: traced {traced_s:.3} s - untraced {untraced_s:.3} s = {:+.3} s",
        traced_s - untraced_s
    );
}

/// Runs whole rounds until the run's seconds have passed. Each round times
/// the set-up before and after its work, so the run samples set-up at
/// several moments, and works on the input the first set-up returned. The
/// peak resident set is read after the first round: later rounds repeat the
/// same work, and what they add to it is allocator fragmentation that
/// differs run to run.
pub fn rounds<T>(
    run: &Run,
    totals: &mut RunTotals,
    mut setup: impl FnMut() -> Result<T, String>,
    mut round: impl FnMut(&mut RunTotals, T) -> Result<(), String>,
) -> Result<(), String> {
    let started = Instant::now();
    loop {
        let input = totals.time_setup(&mut setup)?;
        round(totals, input)?;
        totals.time_setup(&mut setup)?;
        if totals.readings.median("peak_rss_mb").is_none() {
            totals.readings.push("peak_rss_mb", checks::peak_rss_mb()?);
        }
        if started.elapsed().as_secs_f64() >= run.seconds {
            return Ok(());
        }
    }
}

struct Args {
    workload: String,
    /// Print the reference-only figures instead of running the workload.
    reference: bool,
    run: Run,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = None;
    let mut reference = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--reference" => {
                workload = Some(value);
                reference = true;
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let work_dir = work_dir.unwrap_or_else(|| PathBuf::from("target/perfbench-work"));
    let workload = workload.ok_or("--workload is required")?;
    if reference {
        return Ok(Args {
            workload,
            reference,
            run: Run {
                seed: 0,
                seconds: 0.0,
                trace: false,
                work_dir,
            },
        });
    }
    Ok(Args {
        workload,
        reference,
        run: Run {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            work_dir,
        },
    })
}

fn run_workload(args: &Args, totals: &mut RunTotals) -> Result<(), String> {
    let run = &args.run;
    std::fs::create_dir_all(&run.work_dir)
        .map_err(|e| format!("create {}: {e}", run.work_dir.display()))?;
    if args.reference {
        return match args.workload.as_str() {
            "yt-embed" => reference::run(&YT_EMBED, run),
            "or-embed" => reference::run(&OR_EMBED, run),
            other => Err(format!("no reference figures for {other}")),
        };
    }
    match args.workload.as_str() {
        "yt-embed" => embed::run(&YT_EMBED, run, totals)?,
        "or-embed" => embed::run(&OR_EMBED, run, totals)?,
        "ba-socket" => socket::run(run, totals)?,
        other => return Err(format!("unknown workload {other}")),
    }
    totals
        .readings
        .push("serve.generator_lag_ms", quantile(&totals.lags_ms, 0.99));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <yt-embed|or-embed|ba-socket> --seed N \
                 --seconds S --trace 0|1 [--work-dir DIR]\n       \
                 perfbench --reference <yt-embed|or-embed> [--work-dir DIR]"
            );
            return ExitCode::from(2);
        }
    };
    let mut totals = RunTotals::default();
    if let Err(e) = run_workload(&args, &mut totals) {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::from(1);
    }
    if args.reference {
        return ExitCode::SUCCESS;
    }
    println!(
        "{} seed {}: {} open-loop windows, {} answers shorter than k",
        args.workload, args.run.seed, totals.open_windows, totals.short_answers
    );
    let names = if args.run.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    report::print_result(names, &totals.readings, totals.ops);
    ExitCode::SUCCESS
}
