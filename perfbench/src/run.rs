//! One run: the reference check on small-tree twins, repeated set-up with
//! its warm pass, the answer checks, the measured phase, and, in `churn`,
//! the durability epilogue (replica catch-up, crash, recovery).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use cqt_core::{Answer, ExecScratch};
use cqt_service::{Corpus, Durability, Plan, ReplicaFollower};

use crate::client::{drive, server_stats, Rounds, Sample, Status};
use crate::inputs::{doc_id, Inputs, Op, Stratum, Workload, SHARDS};
use crate::layers::{self, Evidence};
use crate::local::{fold, parse, raw_and_canonical_folds, CodecProbe, Local};
use crate::reference::RefTree;
use crate::report::{median, middle_mean, quantile, Metrics};
use crate::{Options, ScratchDir};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Replica catch-ups and recoveries of a traced `churn` run; the per-layer
/// metrics report their medians. An untraced run makes one of each, for
/// its checks.
const TRACED_REPEATS: usize = 5;
/// Slices of the measured phase; each latency metric is the mean of the
/// middle half of the slices' percentiles.
const SLICES: usize = 30;
/// The `churn` writer's schedule: one commit per this many requests the
/// server executes. A schedule in requests rather than in time keeps the
/// share of reads that meet a freshly committed document the same when the
/// machine runs slower.
const REQUESTS_PER_COMMIT: u64 = 64;

/// Connections and outstanding requests per connection of a mix.
fn load(workload: Workload) -> (usize, usize) {
    match workload {
        Workload::Lookup => (2, 2),
        Workload::Scan => (2, 1),
        Workload::Churn => (1, 4),
    }
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub failures: Vec<String>,
}

/// Check outcomes: a count of passes per check, and the first failures.
#[derive(Default)]
pub struct Checks {
    passed: BTreeMap<&'static str, u64>,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        if ok {
            *self.passed.entry(name).or_default() += 1;
        } else {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(format!("{name}: {}", detail()));
            }
        }
    }
}

/// What the server process acknowledged when its writer stopped.
pub struct Acked {
    pub commits: u64,
    pub errors: u64,
    pub latencies_ns: Vec<u64>,
    /// `(epoch, structure_digest)` of every document.
    pub docs: Vec<(u64, u64)>,
}

/// A server process; killed and waited for if dropped while running.
pub struct ServerProc {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    running: bool,
    pub addr: SocketAddr,
    pub setup_ns: u64,
}

impl ServerProc {
    /// Starts a server over `inputs`, durable in `dir` if one is given.
    pub fn spawn(inputs: &Inputs, dir: Option<&Path>, twin: bool) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut command = Command::new(exe);
        command
            .arg("serve")
            .args(["--workload", inputs.workload.name()])
            .args(["--seed", &inputs.seed.to_string()]);
        if let Some(dir) = dir {
            command.arg("--dir").arg(dir);
        }
        if twin {
            command.arg("--twin");
        }
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting the server: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = ServerProc {
            child,
            stdin,
            stdout,
            running: true,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup_ns: 0,
        };
        let line = server.line()?;
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["READY", port, ns] => {
                server
                    .addr
                    .set_port(port.parse().map_err(|_| format!("bad port in {line}"))?);
                server.setup_ns = ns
                    .parse()
                    .map_err(|_| format!("bad set-up time in {line}"))?;
                Ok(server)
            }
            _ => Err(format!("server did not start: {line:?}")),
        }
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("server process closed its output".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(e.to_string()),
        }
    }

    fn send(&mut self, command: &str) -> Result<(), String> {
        writeln!(self.stdin, "{command}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("server command {command}: {e}"))
    }

    /// Sends a writer command and reads its acknowledgement.
    pub fn writer(&mut self, command: &str) -> Result<Acked, String> {
        self.send(command)?;
        let mut acked = Acked {
            commits: 0,
            errors: 0,
            latencies_ns: Vec::new(),
            docs: Vec::new(),
        };
        loop {
            let line = self.line()?;
            let mut words = line.split_whitespace();
            let tag = words.next().unwrap_or("");
            let numbers: Vec<u64> = words.filter_map(|w| w.parse().ok()).collect();
            match (tag, numbers.as_slice()) {
                ("ACK", [commits, errors]) => (acked.commits, acked.errors) = (*commits, *errors),
                ("LAT", latencies) => acked.latencies_ns = latencies.to_vec(),
                ("DOC", [_, epoch, digest]) => acked.docs.push((*epoch, *digest)),
                ("END", _) => return Ok(acked),
                _ => return Err(format!("unexpected server line {line:?}")),
            }
        }
    }

    pub fn start_churn(&mut self, requests_per_commit: u64) -> Result<(), String> {
        self.send(&format!("CHURN {requests_per_commit}"))
    }

    /// Clean shutdown.
    pub fn exit(mut self) -> Result<(), String> {
        self.send("EXIT")?;
        self.running = false;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        status
            .success()
            .then_some(())
            .ok_or_else(|| format!("server exited with {status}"))
    }

    /// A crash: the process is killed without warning. The log holds only
    /// what each commit synced before it was acknowledged.
    pub fn crash(mut self) {
        self.running = false;
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if self.running {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Wall time of the run's stages, printed with the result.
struct Laps(Instant, Vec<String>);

impl Laps {
    fn mark(&mut self, stage: &str) {
        self.1
            .push(format!("{stage} {:.1}s", self.0.elapsed().as_secs_f64()));
        self.0 = Instant::now();
    }
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Compares each answered sample's fingerprints with `expected`; returns
/// the number of mismatches.
fn mismatches(samples: &[Sample], expected: &dyn Fn(Op) -> Option<Vec<u64>>) -> u64 {
    samples
        .iter()
        .filter(|s| s.status == Status::Answered)
        .filter(|s| expected(s.op).is_some_and(|want| want != s.fingerprints))
        .count() as u64
}

/// Strata must be what the engine makes of the queries: the τ strata
/// polynomial on the X̲-property path, the NP-hard strata on Yannakakis or
/// MAC as the query graph dictates.
fn check_strata(inputs: &Inputs, local: &Local, checks: &mut Checks) {
    use cqt_core::SelectedStrategy::*;
    for (q, query) in inputs.queries.iter().enumerate() {
        let plan: &Plan = &local.plans[q];
        let ok = plan.disjuncts().iter().all(|d| {
            let polynomial = d.classification().is_polynomial();
            match query.stratum {
                Stratum::Tau1 | Stratum::Tau2 | Stratum::Tau3 => {
                    polynomial && d.strategy() == XProperty
                }
                Stratum::Acyclic => !polynomial && d.strategy() == Yannakakis,
                Stratum::Cyclic => !polynomial && d.strategy() == Mac,
                Stratum::Kary => plan.head_arity() >= 2,
                Stratum::Xpath | Stratum::Batch => true,
            }
        });
        checks.check("stratum", ok, || {
            format!("{} is not in stratum {}", query.text, query.stratum.name())
        });
    }
}

/// The reference check: every query of the mix, over the small-tree twin
/// of the corpus, sent through a server process like the real one, against
/// the reference evaluator.
fn twin_check(options: &Options, checks: &mut Checks) -> Result<(), String> {
    let twin = Inputs::generate(options.workload, options.seed, true);
    let server = ServerProc::spawn(&twin, None, true)?;
    let ops = twin.all_ops();
    let (samples, _) = drive(server.addr, &twin, Rounds::Fixed(&ops), 2, 4)
        .map_err(|e| format!("twin pass: {e}"))?;
    server.exit()?;
    let mut refs: Vec<RefTree> = twin.trees.iter().map(RefTree::new).collect();
    let mut expected: HashMap<Op, Vec<u64>> = HashMap::new();
    for &op in &ops {
        let documents: Vec<usize> = match twin.workload {
            Workload::Scan => (0..twin.trees.len()).collect(),
            _ => vec![op.variant],
        };
        let answers: Vec<(usize, Vec<Answer>)> = twin
            .members(op)
            .into_iter()
            .map(|q| {
                let query = &twin.queries[q];
                (
                    q,
                    documents.iter().map(|&d| refs[d].answer(query)).collect(),
                )
            })
            .collect();
        expected.insert(op, fold(&answers));
    }
    for sample in &samples {
        let want = &expected[&sample.op];
        checks.check(
            "twin reference",
            sample.status == Status::Answered && sample.fingerprints == *want,
            || {
                let q = twin.members(sample.op);
                format!(
                    "{:?} on the twin corpus: server {:?} {:?}, reference {want:?} ({})",
                    sample.op, sample.status, sample.fingerprints, twin.queries[q[0]].text
                )
            },
        );
    }
    checks.check("twin coverage", samples.len() == ops.len(), || {
        format!("{} of {} twin requests answered", samples.len(), ops.len())
    });
    Ok(())
}

/// The properties checked at full size, over the warm pass's answers.
fn property_checks(
    inputs: &Inputs,
    local: &Local,
    warm: &HashMap<Op, Vec<u64>>,
    checks: &mut Checks,
) {
    let mut scratch = ExecScratch::new();
    let mut answers: HashMap<Op, Vec<(usize, Vec<Answer>)>> = HashMap::new();
    for (&op, socket) in warm {
        let local_answers = Local::answers(inputs, &local.plans, &local.corpus, op, &mut scratch);
        checks.check(
            "socket equals in-process",
            fold(&local_answers) == *socket,
            || {
                format!(
                    "{op:?}: socket {socket:?}, in-process {:?}",
                    fold(&local_answers)
                )
            },
        );
        if let Some(m) = op.alone {
            let batch = Op { alone: None, ..op };
            checks.check(
                "batch member equals alone",
                warm[&batch][m] == socket[0],
                || format!("{batch:?} member {m}"),
            );
        }
        answers.insert(op, local_answers);
    }
    for (&op, per_query) in &answers {
        let kind = &inputs.kinds[op.kind];
        if let (Some(of), None) = (kind.boolean_of, op.alone) {
            let monadic = &answers[&Op { kind: of, ..op }][0].1;
            for (boolean, nodes) in per_query[0].1.iter().zip(monadic) {
                checks.check(
                    "boolean iff nonempty",
                    *boolean == Answer::Boolean(nodes.is_nonempty()),
                    || format!("{op:?}: {boolean:?} against {} answer nodes", nodes.len()),
                );
            }
        }
        if kind.stratum == Stratum::Kary {
            let q = per_query[0].0;
            let cq = &inputs.queries[q].reference[0];
            for (position, &var) in cq.head.iter().enumerate() {
                let spec = parse(inputs.queries[q].lang, &cq.with_head(vec![var]).text());
                let projected = Plan::compile(&spec, &local.options).0;
                let documents = local.corpus.select(&inputs.fanout(op).into_fanout());
                for (document, answer) in documents.iter().zip(&per_query[0].1) {
                    let Answer::Tuples(tuples) = answer else {
                        checks.check("kary shape", false, || format!("{op:?}: {answer:?}"));
                        continue;
                    };
                    let Answer::Nodes(nodes) =
                        projected.execute(&document.handle().snapshot().prepared, &mut scratch)
                    else {
                        continue;
                    };
                    let nodes: HashSet<_> = nodes.into_iter().collect();
                    checks.check(
                        "kary projection",
                        tuples.iter().all(|t| nodes.contains(&t[position])),
                        || format!("{op:?}: head position {position} leaves the projection"),
                    );
                }
            }
        }
    }
    // Documents the label index rules out must have empty reference
    // answers.
    let index = local.corpus.label_index();
    let mut refs: HashMap<usize, RefTree> = HashMap::new();
    for &op in warm.keys().filter(|op| op.alone.is_none()) {
        let documents = local.corpus.select(&inputs.fanout(op).into_fanout());
        for q in inputs.members(op) {
            let Some(survivors) = index.candidates(local.plans[q].required_labels()) else {
                continue;
            };
            for document in documents.iter().filter(|d| !survivors.contains(d.id())) {
                let d: usize = document.id().as_str()[1..].parse().expect("generated id");
                let reference = refs
                    .entry(d)
                    .or_insert_with(|| RefTree::new(&inputs.trees[d]))
                    .answer(&inputs.queries[q]);
                checks.check("pruned is empty", !reference.is_nonempty(), || {
                    format!(
                        "{} pruned on {} but answers there",
                        inputs.queries[q].text, d
                    )
                });
            }
        }
    }
}

/// Replays the acknowledged commits on the in-memory copy, timing the
/// in-memory commit and the edit application, and (for `churn`) collecting
/// every fingerprint each op could have had at any epoch.
fn replay_commits(
    inputs: &Inputs,
    local: &Local,
    commits: u64,
    allowed: Option<&mut HashMap<Op, HashSet<Vec<u64>>>>,
    evidence: &mut Evidence,
) {
    let mut scratch = ExecScratch::new();
    let mut allowed = allowed;
    for k in 0..commits {
        let doc = inputs.hot[k as usize % inputs.hot.len()];
        let id = doc_id(doc).into();
        let tree = local
            .corpus
            .snapshot(&id)
            .expect("hot document")
            .prepared
            .tree()
            .clone();
        let (_, script) = inputs.commit_script(k, &tree);
        let start = Instant::now();
        let _ = script.apply_to(&tree);
        evidence.edit_apply_ns.push(ns(start.elapsed()));
        let start = Instant::now();
        let report = local.corpus.commit(&id, &script);
        evidence.commit_mem_ns.push(ns(start.elapsed()));
        if let Ok(report) = report {
            evidence.carried_relations += report.carried_relations;
        }
        if let Some(allowed) = allowed.as_deref_mut() {
            for op in inputs.ops_touching(doc) {
                let fps = local.fold_on(inputs, &local.corpus, op, &mut scratch);
                allowed.entry(op).or_default().insert(fps);
            }
        }
    }
}

/// Checks that a copy of the leader's corpus (a replica, or the corpus
/// recovered from the log) answers every op as the leader did: the same
/// nodes, each named by its pre-order rank, and the same raw fingerprint.
/// Trees restored by the durability codec number their nodes in pre-order,
/// so raw fingerprints differ wherever the leader's trees do not; returns
/// how many ops differ only that way.
fn same_answers(
    name: &'static str,
    inputs: &Inputs,
    local: &Local,
    copy: &Corpus,
    canonical_final: &HashMap<Op, Vec<u64>>,
    leader_final: &HashMap<Op, Vec<u64>>,
    checks: &mut Checks,
) -> u64 {
    let mut scratch = ExecScratch::new();
    let mut renumbered = 0;
    for (op, want) in canonical_final {
        let (raw, canonical) =
            raw_and_canonical_folds(inputs, &local.plans, copy, *op, &mut scratch);
        checks.check(name, canonical == *want, || format!("{op:?}"));
        if leader_final.get(op) != Some(&raw) {
            renumbered += 1;
        }
    }
    renumbered
}

/// The end of a `churn` run: stop the writer, check the measured reads
/// against every epoch the acknowledged commits produced, read the
/// leader's final answers, catch a cold replica up, crash the server and
/// recover its log. Every acknowledged commit must survive in both copies.
/// Returns the number of measured answers that matched no epoch.
#[allow(clippy::too_many_arguments)]
fn churn_epilogue(
    options: &Options,
    inputs: &Inputs,
    local: &Local,
    mut server: ServerProc,
    warm: &HashMap<Op, Vec<u64>>,
    samples: &[Sample],
    leader_dir: &Path,
    evidence: &mut Evidence,
    checks: &mut Checks,
) -> Result<u64, String> {
    let acked = server.writer("STOP")?;
    checks.check("commits acknowledged", acked.errors == 0, || {
        format!("{} of {} commits failed", acked.errors, acked.commits)
    });
    eprintln!("commits: {}", acked.commits);
    evidence.commit_durable_ns = acked.latencies_ns.iter().map(|&n| n as f64).collect();
    evidence.leader_dir = leader_dir.to_path_buf();

    let mut allowed: HashMap<Op, HashSet<Vec<u64>>> = HashMap::new();
    for (&op, fps) in warm {
        allowed.entry(op).or_default().insert(fps.clone());
    }
    replay_commits(inputs, local, acked.commits, Some(&mut allowed), evidence);
    // A read of a document being written may see any of its epochs.
    let hot: HashSet<usize> = inputs.hot.iter().copied().collect();
    let mismatched = samples
        .iter()
        .filter(|s| s.status == Status::Answered)
        .filter(|s| {
            if hot.contains(&s.op.variant) {
                !allowed[&s.op].contains(&s.fingerprints)
            } else {
                warm[&s.op] != s.fingerprints
            }
        })
        .count() as u64;
    checks.check("measured answers", mismatched == 0, || {
        format!("{mismatched} answers differ from the checked ones")
    });
    for (doc, &(epoch, digest)) in acked.docs.iter().enumerate() {
        let snapshot = local
            .corpus
            .snapshot(&doc_id(doc).into())
            .expect("document");
        checks.check(
            "writer state replays",
            (snapshot.epoch, snapshot.prepared.tree().structure_digest()) == (epoch, digest),
            || {
                format!(
                    "document {doc}: leader at epoch {epoch}, replay at {}",
                    snapshot.epoch
                )
            },
        );
    }

    // The leader's final answers on the whole mix.
    let final_ops: Vec<Op> = inputs
        .all_ops()
        .into_iter()
        .filter(|op| op.alone.is_none())
        .collect();
    let (final_samples, _) = drive(server.addr, inputs, Rounds::Fixed(&final_ops), 2, 4)
        .map_err(|e| format!("final pass: {e}"))?;
    let leader_final: HashMap<Op, Vec<u64>> = final_samples
        .iter()
        .map(|s| (s.op, s.fingerprints.clone()))
        .collect();
    let mut exec_scratch = ExecScratch::new();
    let mut canonical_final = HashMap::new();
    for &op in &final_ops {
        let (raw, canonical) =
            raw_and_canonical_folds(inputs, &local.plans, &local.corpus, op, &mut exec_scratch);
        checks.check(
            "leader final answers",
            leader_final.get(&op) == Some(&raw),
            || format!("{op:?}"),
        );
        canonical_final.insert(op, canonical);
    }

    let repeats = if options.trace { TRACED_REPEATS } else { 1 };
    // Replica catch-up: a cold replica syncs everything from the leader.
    let mut renumbered = 0;
    for i in 0..repeats {
        let replica = ReplicaFollower::new(server.addr, SHARDS);
        let start = Instant::now();
        let progress = replica.sync().map_err(|e| format!("replica sync: {e}"))?;
        evidence.catchup_ns.push(ns(start.elapsed()));
        evidence.replication_records = progress.records_applied;
        evidence.replication_snapshots = progress.snapshots_loaded;
        let positions = replica.positions();
        checks.check(
            "replica documents",
            positions.len() == acked.docs.len(),
            || format!("{} of {} documents", positions.len(), acked.docs.len()),
        );
        for position in positions {
            let d: usize = position.doc_id[1..].parse().expect("generated id");
            checks.check(
                "replica position",
                acked.docs.get(d) == Some(&(position.epoch, position.digest)),
                || format!("{} at epoch {}", position.doc_id, position.epoch),
            );
        }
        if i == 0 {
            renumbered += same_answers(
                "replica answers",
                inputs,
                local,
                &replica.corpus(),
                &canonical_final,
                &leader_final,
                checks,
            );
        }
    }

    // Crash, then recover from what the log holds.
    server.crash();
    for i in 0..repeats {
        let start = Instant::now();
        let (corpus, report) = Corpus::open_durable(SHARDS, Durability::wal(leader_dir))
            .map_err(|e| format!("recovery: {e}"))?;
        evidence.recover_ns.push(ns(start.elapsed()));
        evidence.replayed_records = report.replayed_records();
        for (doc, &(epoch, digest)) in acked.docs.iter().enumerate() {
            let snapshot = corpus.snapshot(&doc_id(doc).into());
            checks.check(
                "recovered state",
                snapshot
                    .as_ref()
                    .map(|s| (s.epoch, s.prepared.tree().structure_digest()))
                    == Some((epoch, digest)),
                || format!("document {doc} after recovery"),
            );
        }
        if i == 0 {
            renumbered += same_answers(
                "recovered answers",
                inputs,
                local,
                &corpus,
                &canonical_final,
                &leader_final,
                checks,
            );
        }
    }
    eprintln!(
        "replica and recovered corpus: {renumbered} of {} answers select the leader's nodes \
         under other node ids, so their raw fingerprints differ",
        2 * canonical_final.len()
    );
    Ok(mismatched)
}

/// One codec probe per round of the `churn` mix; returns how many failed.
/// Every one fails: trees restored by the codec number their nodes in
/// pre-order, so the same answer comes back under other node ids. Each
/// must still select the same node by pre-order rank.
fn codec_probes(rounds: u64, checks: &mut Checks) -> Result<u64, String> {
    let probe = CodecProbe::new();
    let mut scratch = ExecScratch::new();
    let mut failed = 0;
    for _ in 0..rounds {
        let (raw, canonical) = probe.run(&mut scratch)?;
        checks.check("probe selects the same nodes", canonical, String::new);
        failed += u64::from(!raw);
    }
    eprintln!("codec probe: {failed} of {rounds} probes answered under other node ids");
    Ok(failed)
}

pub fn run(options: &Options) -> Result<Outcome, String> {
    let workload = options.workload;
    let inputs = Inputs::generate(workload, options.seed, false);
    println!("profile {}", crate::profile::profile(&inputs).render());
    let scratch = ScratchDir(PathBuf::from(".perfbench_tmp").join(format!(
        "{}-{}-{}",
        workload.name(),
        options.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("scratch directory: {e}"))?;
    let mut checks = Checks::default();
    let mut laps = Laps(Instant::now(), Vec::new());
    let local = Local::new(&inputs);
    check_strata(&inputs, &local, &mut checks);
    twin_check(options, &mut checks)?;
    laps.mark("twin");

    // Set-up, repeated: empty to ready, then one warm pass over every
    // (query, document) pair. Input generation is not timed.
    let ops = inputs.all_ops();
    let mut setup_ns = Vec::new();
    let mut server: Option<ServerProc> = None;
    let mut warm: HashMap<Op, Vec<u64>> = HashMap::new();
    // Only `churn` is durable: its log directory is fresh for every set-up.
    let durable = workload == Workload::Churn;
    let mut leader_dir = PathBuf::new();
    for i in 0..if options.trace { 1 } else { SETUPS } {
        if let Some(previous) = server.take() {
            previous.exit()?;
            let _ = std::fs::remove_dir_all(&leader_dir);
        }
        leader_dir = scratch.0.join(format!("leader-{i}"));
        let started = ServerProc::spawn(&inputs, durable.then_some(leader_dir.as_path()), false)?;
        let start = Instant::now();
        let (samples, _) = drive(started.addr, &inputs, Rounds::Fixed(&ops), 2, 4)
            .map_err(|e| format!("warm pass: {e}"))?;
        setup_ns.push(started.setup_ns as f64 + ns(start.elapsed()));
        for sample in samples {
            checks.check("warm answered", sample.status == Status::Answered, || {
                format!("{:?}: {:?}", sample.op, sample.status)
            });
            if let Some(previous) = warm.insert(sample.op, sample.fingerprints.clone()) {
                checks.check("set-ups agree", previous == sample.fingerprints, || {
                    format!("{:?}", sample.op)
                });
            }
        }
        server = Some(started);
    }
    let mut server = server.expect("at least one set-up");
    checks.check("warm coverage", warm.len() == ops.len(), || {
        format!("{} of {} ops answered", warm.len(), ops.len())
    });
    laps.mark("set-up");
    property_checks(&inputs, &local, &warm, &mut checks);
    laps.mark("properties");

    // The measured phase.
    let (connections, window) = load(workload);
    let stats_before = server_stats(server.addr).map_err(|e| format!("stats: {e}"))?;
    if workload == Workload::Churn {
        server.start_churn(REQUESTS_PER_COMMIT)?;
    }
    let phase = if options.trace {
        options.seconds / 2.0
    } else {
        options.seconds
    };
    let deadline = Instant::now() + Duration::from_secs_f64(phase);
    let (samples, phase_start) = drive(
        server.addr,
        &inputs,
        Rounds::Until(deadline),
        connections,
        window,
    )
    .map_err(|e| format!("measured phase: {e}"))?;
    let stats_after = server_stats(server.addr).map_err(|e| format!("stats: {e}"))?;
    laps.mark("phase");

    let mut evidence = Evidence::default();
    let mut failed = 0;
    let mut attempted = samples.len() as u64;
    let mismatched = if durable {
        let epilogue = churn_epilogue(
            options,
            &inputs,
            &local,
            server,
            &warm,
            &samples,
            &leader_dir,
            &mut evidence,
            &mut checks,
        )?;
        laps.mark("durability");
        let kinds = inputs.kinds.len();
        checks.check("whole rounds", samples.len() % kinds == 0, || {
            format!("{} requests in rounds of {kinds}", samples.len())
        });
        let rounds = (samples.len() / kinds) as u64;
        attempted += rounds;
        failed += codec_probes(rounds, &mut checks)?;
        epilogue
    } else {
        server.exit()?;
        let mismatched = mismatches(&samples, &|op| warm.get(&op).cloned());
        checks.check("measured answers", mismatched == 0, || {
            format!("{mismatched} answers differ from the checked ones")
        });
        mismatched
    };

    // Failure accounting over the measured operations.
    let count = |status: fn(&Status) -> bool| samples.iter().filter(|s| status(&s.status)).count();
    let shed = count(|s| *s == Status::Shed) as u64;
    let errors = count(|s| matches!(s, Status::Error(_))) as u64;
    let missing = count(|s| *s == Status::Missing) as u64;
    failed += shed + errors + missing + mismatched;
    eprintln!(
        "operations: {attempted}; failed: {failed} ({shed} shed, {errors} errors, {missing} \
         missing, {mismatched} fingerprint mismatches)"
    );

    let mut metrics = Metrics::default();
    if options.trace {
        evidence.samples = samples;
        evidence.stats_before = Some(stats_before);
        evidence.stats_after = Some(stats_after);
        layers::measure(
            &inputs,
            &local,
            &mut evidence,
            Duration::from_secs_f64(options.seconds / 2.0),
            &mut checks,
            &mut metrics,
        );
        let spans = PathBuf::from(".perfbench_out").join(format!(
            "spans-{}-{}.tsv",
            workload.name(),
            options.seed
        ));
        if let Err(e) = evidence.tracer.write(&spans) {
            eprintln!("writing {}: {e}", spans.display());
        }
    } else {
        end_to_end(&samples, &inputs, phase_start, setup_ns, &mut metrics);
    }
    drop(scratch);

    let passed: Vec<String> = checks
        .passed
        .iter()
        .map(|(name, n)| format!("{name}={n}"))
        .collect();
    laps.mark("metrics");
    eprintln!("checks passed: {}", passed.join(" "));
    eprintln!("stages: {}", laps.1.join(", "));
    if checks.failed > checks.failures.len() as u64 {
        checks
            .failures
            .push(format!("... {} failed checks in all", checks.failed));
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        failures: checks.failures,
    })
}

/// Latency of a sample for percentiles: a request that failed misses
/// every limit.
fn latency_us(sample: &Sample) -> f64 {
    match sample.status {
        Status::Answered => sample.latency_ns as f64 / 1e3,
        _ => f64::INFINITY,
    }
}

fn end_to_end(
    samples: &[Sample],
    inputs: &Inputs,
    start: Instant,
    mut setup_ns: Vec<f64>,
    metrics: &mut Metrics,
) {
    // The shared machine runs this code up to 1.7 times slower for spells
    // of seconds to minutes. A percentile over the whole phase, or a median
    // over its slices, jumps between the fast and the slow mode when a run
    // spends about half its time in each. The rate over the whole phase,
    // and the mean of the middle half of the slices' percentiles, move in
    // proportion to the time spent slowed, and the latter ignores a slice
    // that one stall spoiled.
    let mut by_time: Vec<&Sample> = samples.iter().collect();
    by_time.sort_by_key(|s| s.done);
    let slice = by_time.len().div_ceil(SLICES).max(1);
    if slice < 1000 {
        eprintln!("only {slice} samples a slice: its p99 has fewer than ten beyond it");
    }
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    let mut strata: Vec<Vec<f64>> = vec![Vec::new(); Stratum::ALL.len()];
    let mut rates = Vec::new();
    let mut from = start;
    for chunk in by_time.chunks(slice) {
        let mut latencies: Vec<f64> = chunk.iter().map(|s| latency_us(s)).collect();
        p50s.push(quantile(&mut latencies, 0.5));
        p99s.push(quantile(&mut latencies, 0.99));
        for (p50s, stratum) in strata.iter_mut().zip(Stratum::ALL) {
            let mut of: Vec<f64> = chunk
                .iter()
                .filter(|s| inputs.kinds[s.op.kind].stratum == stratum)
                .map(|s| latency_us(s))
                .collect();
            if !of.is_empty() {
                p50s.push(median(&mut of));
            }
        }
        let to = chunk[chunk.len() - 1].done;
        rates.push(format!(
            "{:.0}",
            chunk.len() as f64 / to.duration_since(from).as_secs_f64()
        ));
        from = to;
    }
    eprintln!("requests per second by slice: {}", rates.join(" "));
    let answered = samples
        .iter()
        .filter(|s| s.status == Status::Answered)
        .count();
    metrics.add("setup_s", median(&mut setup_ns) / 1e9, "s");
    metrics.add(
        "qps",
        answered as f64 / from.duration_since(start).as_secs_f64(),
        "1/s",
    );
    metrics.add("p50_us", middle_mean(&mut p50s), "us");
    metrics.add("p99_us", middle_mean(&mut p99s), "us");
    for (stratum, p50s) in Stratum::ALL.into_iter().zip(&mut strata) {
        let mut of: Vec<f64> = samples
            .iter()
            .filter(|s| inputs.kinds[s.op.kind].stratum == stratum)
            .map(latency_us)
            .collect();
        eprintln!(
            "stratum {:8} samples {:7} p50 {:9.1} us p99 {:9.1} us max {:9.1} us",
            stratum.name(),
            of.len(),
            quantile(&mut of, 0.5),
            quantile(&mut of, 0.99),
            quantile(&mut of, 1.0)
        );
        metrics.add(
            format!("{}_p50_us", stratum.name()),
            middle_mean(p50s),
            "us",
        );
    }
}
