//! Closed-loop benchmark of the qfc workspace.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper --seed 20170327 --seconds 20 --trace 0
//! ```
//!
//! One caller runs one pass at a time. Each pass is timed from outside
//! through the library's public functions and checked against the first
//! pass's output bytes. Passes alternate between the host's worker count
//! (at most `nproc`) and one worker. The last line of standard output is
//! the result object; progress and host facts go to standard error.
//! See `benchmark/README.md` for the workloads and the metric map.

mod alloc;
mod campaign;
mod metrics;
mod paper;
mod tomography;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{fastest_of, median_of, result_line, Samples, END_TO_END, PER_LAYER};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Wall time given to timing set-ups after each round. Set-up is timed
/// between the rounds, not before them, so that it sees the same host
/// as the passes; `setup_s` is the per-set-up time of the fastest
/// batch.
const SETUP_ROUND_SECS: f64 = 0.1;
/// Each batch repeats the set-up until it spans about this long...
const SETUP_BATCH_SECS: f64 = 0.01;
/// ...but at most this many times. A batch keeps what it built until
/// its timer has stopped, so teardown is not timed; few instances keep
/// the batch's memory below the allocator's trim threshold, so a batch
/// reuses the pages of the last one instead of faulting in new ones.
const SETUP_BATCH_MAX: usize = 16;

/// What one pass produced.
pub struct PassOutput {
    /// The bytes every pass of the run must reproduce exactly.
    pub bytes: Vec<u8>,
    /// Layer figures taken by timing the public calls the pass made.
    pub layers: Samples,
}

/// Serializes `value` for the byte comparison.
pub fn json<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, String> {
    serde_json::to_string(value).map_err(|e| e.to_string())
}

/// A benchmark workload: inputs built once from the seed, then passes.
pub trait Workload {
    /// Runs one pass. `Err` means the pass failed a check or a call
    /// returned an error.
    fn pass(&mut self) -> Result<PassOutput, String>;

    /// Calls the workload's public stage functions one by one, times
    /// each, and checks that the reassembled output equals `reference`,
    /// the bytes of a whole pass.
    fn stages(&mut self, reference: &[u8]) -> Result<Samples, String>;

    /// A check the passes cannot make at an arbitrary seed, made once
    /// per run and not timed; `None` when the workload has none.
    fn claims(&self) -> Option<Result<(), String>> {
        None
    }
}

/// The passes of one round.
enum Kind {
    /// At the host's worker count.
    Parallel,
    /// Pinned to one worker.
    Serial,
    /// At the host's worker count, with a trace collector installed.
    Traced,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 20_170_327,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload paper|tomography|campaign is required".to_owned());
    }
    Ok(args)
}

fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper" => Box::new(paper::Paper::setup(seed)),
        "tomography" => Box::new(tomography::Tomography::setup(seed)?),
        "campaign" => Box::new(campaign::Campaign::setup(seed)),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// Times batches of `per_batch` fresh set-ups for about
/// `SETUP_ROUND_SECS`, at least one batch, and lowers `fastest` to the
/// per-set-up time of the fastest batch.
fn time_setups(name: &str, seed: u64, per_batch: usize, fastest: &mut f64) -> Result<(), String> {
    let started = Instant::now();
    loop {
        let mut batch = Vec::with_capacity(per_batch);
        let t0 = Instant::now();
        for _ in 0..per_batch {
            batch.push(setup(name, seed)?);
        }
        *fastest = fastest.min(t0.elapsed().as_secs_f64() / per_batch as f64);
        drop(batch);
        if started.elapsed().as_secs_f64() >= SETUP_ROUND_SECS {
            return Ok(());
        }
    }
}

/// Times a fixed kernel of the benchmark's own, in ms: 200 products of
/// two 32 × 32 `f64` matrices. It calls nothing in the library, so it
/// moves only with the host's speed; a pass time that moves with it was
/// moved by the host.
fn host_reference_ms() -> f64 {
    const N: usize = 32;
    let a = vec![1.000_1_f64; N * N];
    let b = vec![0.999_9_f64; N * N];
    let mut c = vec![0.0_f64; N * N];
    let (ms, ()) = metrics::timed(|| {
        for _ in 0..200 {
            for i in 0..N {
                for k in 0..N {
                    let x = a[i * N + k];
                    for j in 0..N {
                        c[i * N + j] += x * b[k * N + j];
                    }
                }
            }
            std::hint::black_box(&mut c);
        }
    });
    ms
}

/// Pass bookkeeping shared by the timed and the traced run: counts
/// operations and compares every pass with the first.
#[derive(Default)]
struct Checker {
    reference: Option<Vec<u8>>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    /// Counts a check made outside the passes as one operation.
    fn record<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result
            .map_err(|e| {
                self.failed += 1;
                eprintln!("{what} failed: {e}");
            })
            .ok()
    }

    /// Runs and checks one pass at `threads` workers; returns its wall
    /// time, its peak heap and, when it passed its checks, its layer
    /// figures. A failed pass is still timed: it counts as failed, not
    /// as missing.
    fn pass(&mut self, w: &mut dyn Workload, threads: usize) -> (f64, usize, Samples) {
        self.attempted += 1;
        alloc::reset_peak();
        let t0 = Instant::now();
        let out = qfc::runtime::with_threads(threads, || w.pass());
        let elapsed = t0.elapsed().as_secs_f64();
        let peak = alloc::peak_bytes();
        let result = out.and_then(|out| {
            match &self.reference {
                None => self.reference = Some(out.bytes.clone()),
                Some(r) if *r != out.bytes => {
                    return Err(format!(
                        "output differs from the first pass ({} vs {} bytes)",
                        out.bytes.len(),
                        r.len()
                    ))
                }
                Some(_) => {}
            }
            Ok(out.layers)
        });
        eprintln!(
            "pass {}: {elapsed:.4} s at {threads} worker(s)",
            self.attempted
        );
        let layers = result.unwrap_or_else(|e| {
            self.failed += 1;
            eprintln!("pass {} failed: {e}", self.attempted);
            Vec::new()
        });
        (elapsed, peak, layers)
    }
}

fn run(args: &Args) -> Result<String, String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = qfc::runtime::max_threads().clamp(1, nproc);
    eprintln!(
        "workload={} seed={} nproc={nproc} workers={workers} trace={}",
        args.workload, args.seed, args.trace
    );

    // The first set-up runs cold and only sizes the set-up batches.
    let t0 = Instant::now();
    let mut w = setup(&args.workload, args.seed)?;
    let per_batch = (SETUP_BATCH_SECS / t0.elapsed().as_secs_f64().max(1e-9))
        .clamp(1.0, SETUP_BATCH_MAX as f64) as usize;
    let mut setup_s = f64::INFINITY;
    let mut checker = Checker::default();
    if let Some(result) = w.claims() {
        checker.record("claim check", result);
    }

    // Warm-up pass: fills caches and the allocator, and fixes the bytes
    // every later pass must reproduce. It counts as an operation.
    checker.pass(w.as_mut(), workers);

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut values: Samples = Vec::new();
    let mut round = 0u64;
    // At least one full round, then until the budget is spent. Rounds
    // alternate the order of their passes; the traced pass (trace mode
    // only) runs at the host's worker count with a collector installed.
    while round == 0 || started.elapsed() < budget {
        let mut kinds = vec![Kind::Parallel, Kind::Serial];
        if args.trace {
            kinds.push(Kind::Traced);
        }
        if round % 2 == 1 {
            kinds.reverse();
        }
        for kind in kinds {
            match kind {
                Kind::Parallel => {
                    let (secs, peak, layers) = checker.pass(w.as_mut(), workers);
                    values.push(("pass_s", secs));
                    values.push(("peak_heap", peak as f64));
                    values.extend(layers);
                }
                Kind::Serial => {
                    let (secs, _, _) = checker.pass(w.as_mut(), 1);
                    values.push(("pass_serial_s", secs));
                }
                Kind::Traced => {
                    let collector = qfc::obs::Collector::new();
                    let (secs, _, _) = collector.install(|| checker.pass(w.as_mut(), workers));
                    values.push(("traced_pass_s", secs));
                    values.extend(trace::layer_metrics(&collector.snapshot()));
                }
            }
        }
        if args.trace {
            values.push(("host.ref_ms", host_reference_ms()));
        }
        time_setups(&args.workload, args.seed, per_batch, &mut setup_s)?;
        round += 1;
    }
    eprintln!(
        "{} passes in {:.1} s, {} failed; median pass {:.4} s, serial {:.4} s; fastest set-up batch {setup_s:.4e} s per set-up",
        checker.attempted,
        started.elapsed().as_secs_f64(),
        checker.failed,
        median_of(&values, "pass_s"),
        median_of(&values, "pass_serial_s"),
    );

    let mut out: Samples = Vec::new();
    if args.trace {
        let stages = match checker.reference.clone() {
            Some(reference) => w.stages(&reference),
            None => Err("no pass produced a reference".to_owned()),
        };
        if let Some(stage_values) = checker.record("stage decomposition", stages) {
            values.extend(stage_values);
        }
        for &(name, _) in PER_LAYER {
            out.push((name, median_of(&values, name)));
        }
        let serial = median_of(&values, "pass_serial_s");
        let parallel = median_of(&values, "pass_s");
        let traced = median_of(&values, "traced_pass_s");
        if parallel > 0.0 {
            out.push(("runtime.parallel_speedup", serial / parallel));
            out.push(("obs.trace_overhead_pct", (traced / parallel - 1.0) * 100.0));
        }
        out.push(("host.nproc", nproc as f64));
        out.push(("host.workers", workers as f64));
        Ok(result_line(
            PER_LAYER,
            &out,
            checker.attempted,
            checker.failed,
        ))
    } else {
        out.push(("setup_s", setup_s));
        out.push(("pass_s", fastest_of(&values, "pass_s")));
        out.push(("pass_serial_s", fastest_of(&values, "pass_serial_s")));
        out.push(("peak_heap_mb", median_of(&values, "peak_heap") / 1e6));
        Ok(result_line(
            END_TO_END,
            &out,
            checker.attempted,
            checker.failed,
        ))
    }
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("qfc-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Returns `a` on its first pass, `b` on its second and an error on
    /// every later one.
    struct Drifting {
        passes: u32,
    }

    impl Workload for Drifting {
        fn pass(&mut self) -> Result<PassOutput, String> {
            self.passes += 1;
            let bytes = match self.passes {
                1 => b"a".to_vec(),
                2 => b"b".to_vec(),
                _ => return Err("call failed".to_owned()),
            };
            Ok(PassOutput {
                bytes,
                layers: Vec::new(),
            })
        }

        fn stages(&mut self, _reference: &[u8]) -> Result<Samples, String> {
            Ok(Vec::new())
        }
    }

    #[test]
    fn changed_bytes_and_errors_count_as_failed_operations() {
        let mut checker = Checker::default();
        let mut w = Drifting { passes: 0 };
        checker.pass(&mut w, 1);
        assert_eq!((checker.attempted, checker.failed), (1, 0));
        checker.pass(&mut w, 1);
        assert_eq!((checker.attempted, checker.failed), (2, 1));
        checker.pass(&mut w, 1);
        assert_eq!((checker.attempted, checker.failed), (3, 2));
        let line = result_line(END_TO_END, &[], checker.attempted, checker.failed);
        assert!(
            line.starts_with(r#"{"correct": false, "attempted": 3, "failed": 2, "metrics": {"#),
            "{line}"
        );
    }
}
