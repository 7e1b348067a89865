//! The server process: the repository's `NetServer` over a corpus of the
//! generated documents (durable when given `--dir`), plus the writer that
//! commits the seeded edit schedule. The benchmark process starts it as
//! `perfbench serve ...`, reads `READY <port> <setup_ns>` from its standard
//! output, and steers it with one command per line on its standard input:
//!
//! * `CHURN <requests>` starts committing one scheduled edit per that many
//!   requests the server executes;
//! * `STOP` stops the writer;
//! * `EXIT` (or end of input) shuts the server down cleanly.
//!
//! `STOP` answers with `ACK <commits> <errors>`, one `LAT <ns>...` line of
//! commit latencies, one `DOC <index> <epoch> <digest>` line per document,
//! and `END`.

use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cqt_service::{Corpus, Durability, NetServer, NetServerConfig};

use crate::inputs::{doc_id, Inputs, Workload, SHARDS};

/// Worker threads of the server: one per core of the 2-vCPU machines the
/// benchmark is sized for.
pub const WORKERS: usize = 2;
/// Admission-queue capacity, above every workload's outstanding window, so
/// a healthy run sheds nothing.
pub const QUEUE_CAPACITY: usize = 64;

/// The committed part of the write schedule.
#[derive(Default)]
struct Writer {
    next: u64,
    latencies: Vec<u64>,
    errors: u64,
}

impl Writer {
    fn commit_next(&mut self, inputs: &Inputs, corpus: &Corpus) {
        let k = self.next;
        self.next += 1;
        let doc = inputs.hot[k as usize % inputs.hot.len()];
        let id = doc_id(doc).into();
        let tree = corpus
            .snapshot(&id)
            .expect("hot document exists")
            .prepared
            .tree()
            .clone();
        let (_, script) = inputs.commit_script(k, &tree);
        let start = Instant::now();
        let result = corpus.commit(&id, &script);
        self.latencies.push(start.elapsed().as_nanos() as u64);
        if result.is_err() {
            self.errors += 1;
        }
    }

    fn report(&mut self, corpus: &Corpus, documents: usize, out: &mut impl Write) {
        let lat: Vec<String> = self.latencies.iter().map(u64::to_string).collect();
        let _ = writeln!(out, "ACK {} {}", self.latencies.len(), self.errors);
        let _ = writeln!(out, "LAT {}", lat.join(" "));
        for doc in 0..documents {
            let snapshot = corpus
                .snapshot(&doc_id(doc).into())
                .expect("document exists");
            let _ = writeln!(
                out,
                "DOC {doc} {} {}",
                snapshot.epoch,
                snapshot.prepared.tree().structure_digest()
            );
        }
        let _ = writeln!(out, "END");
        let _ = out.flush();
        self.latencies.clear();
        self.errors = 0;
    }
}

/// Entry point of `perfbench serve --workload <w> --seed <n> [--dir <path>]
/// [--twin]`.
pub fn serve(args: &[String]) -> Result<(), String> {
    let mut workload = None;
    let mut seed = None;
    let mut dir = None;
    let mut twin = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => workload = it.next().and_then(|w| Workload::parse(w)),
            "--seed" => seed = it.next().and_then(|s| s.parse::<u64>().ok()),
            "--dir" => dir = it.next().map(PathBuf::from),
            "--twin" => twin = true,
            other => return Err(format!("unknown serve argument {other}")),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        return Err("serve needs --workload and --seed".to_string());
    };
    let inputs = Arc::new(Inputs::generate(workload, seed, twin));

    // Set-up as a user pays it: open the log directory if there is one,
    // insert (a durable insert writes and syncs the document's first
    // snapshot), start serving.
    let start = Instant::now();
    let corpus = match dir {
        Some(dir) => {
            Corpus::open_durable(SHARDS, Durability::wal(&dir))
                .map_err(|e| e.to_string())?
                .0
        }
        None => Corpus::new(SHARDS),
    };
    for (i, tree) in inputs.trees.iter().enumerate() {
        corpus
            .insert(doc_id(i), tree.clone())
            .map_err(|e| e.to_string())?;
    }
    let corpus = Arc::new(corpus);
    let server = Arc::new(
        NetServer::start(
            Arc::clone(&corpus),
            NetServerConfig {
                workers: WORKERS,
                queue_capacity: QUEUE_CAPACITY,
                ..NetServerConfig::default()
            },
        )
        .map_err(|e| e.to_string())?,
    );
    let setup_ns = start.elapsed().as_nanos();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(out, "READY {} {setup_ns}", server.addr().port());
    let _ = out.flush();

    let writer = Arc::new(Mutex::new(Writer::default()));
    let stop = Arc::new(AtomicBool::new(false));
    let mut churn: Option<std::thread::JoinHandle<()>> = None;
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let mut words = line.split_whitespace();
        let command = words.next();
        let numbers: Vec<u64> = words.filter_map(|n| n.parse().ok()).collect();
        match (command, numbers.first().copied()) {
            (Some("CHURN"), Some(per_commit)) => {
                stop.store(false, Ordering::SeqCst);
                let (writer, stop, corpus, inputs, server) = (
                    Arc::clone(&writer),
                    Arc::clone(&stop),
                    Arc::clone(&corpus),
                    Arc::clone(&inputs),
                    Arc::clone(&server),
                );
                churn = Some(std::thread::spawn(move || {
                    let begin = server.stats().executed;
                    let mut k = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        // A fixed schedule: commit k is due once the server
                        // has executed k·per_commit requests since the start,
                        // however long earlier commits took.
                        if server.stats().executed < begin + k * per_commit {
                            std::thread::sleep(Duration::from_millis(1));
                            continue;
                        }
                        writer
                            .lock()
                            .expect("writer lock")
                            .commit_next(&inputs, &corpus);
                        k += 1;
                    }
                }));
            }
            (Some("STOP"), _) => {
                stop.store(true, Ordering::SeqCst);
                if let Some(handle) = churn.take() {
                    handle
                        .join()
                        .map_err(|_| "writer thread panicked".to_string())?;
                }
                writer
                    .lock()
                    .expect("writer lock")
                    .report(&corpus, inputs.trees.len(), &mut out);
            }
            (Some("EXIT"), _) => break,
            _ => return Err(format!("unknown command {line}")),
        }
    }
    stop.store(true, Ordering::SeqCst);
    if let Some(handle) = churn.take() {
        let _ = handle.join();
    }
    if let Ok(server) = Arc::try_unwrap(server) {
        server.shutdown();
    }
    Ok(())
}
