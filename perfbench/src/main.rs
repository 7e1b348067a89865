//! `perfbench`: one benchmark for the serving system. It starts the
//! repository's `NetServer` in a process of its own over a generated
//! corpus (durable in `churn`), drives it through real sockets with one of
//! three mixes (`lookup`, `scan`, `churn`), checks every answer, and prints
//! one JSON result line. `--trace 1` swaps the end-to-end metrics for per-layer ones
//! measured by a traced in-process replay of the same mix.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload lookup --seed 1 --seconds 20 --trace 0
//! ```

mod client;
mod inputs;
mod layers;
mod local;
mod profile;
mod reference;
mod report;
mod run;
mod server;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::inputs::Workload;
use crate::report::Json;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
        match arg.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Scratch space of one run inside the working directory, removed when the
/// run ends however it ends.
pub struct ScratchDir(pub PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Pins the calling thread to the last CPU it may run on. Threads and
/// processes started after this inherit the mask, so the client, the server
/// process and its workers all share one CPU, which then never idles while
/// a request is in flight: on a small virtual machine a request handed to an
/// idle CPU waits for the host to wake it, and that wait swings with the
/// host's load, not with the program's.
fn pin_to_one_cpu() -> std::io::Result<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
    let mut mask = [0u8; 128];
    // SAFETY: both calls read or write at most `mask.len()` bytes of `mask`.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..mask.len() * 8)
        .rev()
        .find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .ok_or_else(|| std::io::Error::other("empty CPU mask"))?;
    let mut one = [0u8; 128];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: as above.
    if unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        return match server::serve(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench serve: {e}");
                ExitCode::from(2)
            }
        };
    }
    // Before any thread or server process starts, so that all inherit it.
    match pin_to_one_cpu() {
        Ok(cpu) => eprintln!("pinned to CPU {cpu}"),
        Err(e) => eprintln!("perfbench: could not pin to one CPU ({e}); running unpinned"),
    }
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run::run(&options) {
        Ok(outcome) => {
            let correct = outcome.failures.is_empty();
            for failure in &outcome.failures {
                eprintln!("CHECK FAILED: {failure}");
            }
            let result = Json::Object(vec![
                ("correct".into(), Json::Bool(correct)),
                ("attempted".into(), Json::Num(outcome.attempted as f64)),
                ("failed".into(), Json::Num(outcome.failed as f64)),
                ("metrics".into(), outcome.metrics.json()),
            ]);
            println!("{}", result.render());
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
