//! Per-layer metrics of a traced run. Each is measured from outside the
//! layer, by timing calls into its public functions or reading the
//! counters it exposes; the README maps each one to the end-to-end metric
//! it should move.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use cqt_core::{Answer, ExecScratch};
use cqt_service::net::Response;
use cqt_service::{recover_document, Plan};
use cqt_trees::{Axis, PreparedTree};

use crate::client::{Sample, Status};
use crate::inputs::{Inputs, Stratum};
use crate::local::{parse, FoldCache, Local};
use crate::report::{mean, median, Metrics};
use crate::run::Checks;
use crate::trace::{exec_span, Replayer, Tracer};

/// What the run collected for the per-layer metrics.
pub struct Evidence {
    pub samples: Vec<Sample>,
    pub stats_before: Option<Response>,
    pub stats_after: Option<Response>,
    /// Durable commit latencies, as the server process measured them.
    pub commit_durable_ns: Vec<f64>,
    /// The same commits on the in-memory copy.
    pub commit_mem_ns: Vec<f64>,
    pub edit_apply_ns: Vec<f64>,
    pub carried_relations: u64,
    pub replayed_records: u64,
    pub replication_records: u64,
    pub replication_snapshots: u64,
    /// Cold replica catch-ups and recoveries of a traced `churn` run.
    pub catchup_ns: Vec<f64>,
    pub recover_ns: Vec<f64>,
    pub leader_dir: PathBuf,
    pub tracer: Tracer,
}

impl Default for Evidence {
    fn default() -> Self {
        Evidence {
            samples: Vec::new(),
            stats_before: None,
            stats_after: None,
            commit_durable_ns: Vec::new(),
            commit_mem_ns: Vec::new(),
            edit_apply_ns: Vec::new(),
            carried_relations: 0,
            replayed_records: 0,
            replication_records: 0,
            replication_snapshots: 0,
            catchup_ns: Vec::new(),
            recover_ns: Vec::new(),
            leader_dir: PathBuf::new(),
            tracer: Tracer::new(),
        }
    }
}

/// Median nanoseconds per call of `f`, over `rounds` rounds of `reps`
/// calls.
fn per_call_ns(rounds: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut per: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                f();
            }
            start.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    median(&mut per)
}

/// The prune and plan counters of a `Stats` response.
fn counters(stats: &Option<Response>) -> (u64, u64, u64, u64) {
    match stats {
        Some(Response::Stats {
            plan_misses,
            prune_pruned,
            prune_survivors,
            prune_false_positives,
            ..
        }) => (
            *plan_misses,
            *prune_pruned,
            *prune_survivors,
            *prune_false_positives,
        ),
        _ => (0, 0, 0, 0),
    }
}

pub fn measure(
    inputs: &Inputs,
    local: &Local,
    ev: &mut Evidence,
    replay_for: Duration,
    checks: &mut Checks,
    metrics: &mut Metrics,
) {
    // net: the server's own split of each request, and the codec.
    let answered: Vec<&Sample> = ev
        .samples
        .iter()
        .filter(|s| s.status == Status::Answered)
        .collect();
    let us = |v: f64| v / 1e3;
    let mut queue: Vec<f64> = answered.iter().map(|s| s.queue_ns as f64).collect();
    let mut exec: Vec<f64> = answered.iter().map(|s| s.exec_ns as f64).collect();
    let mut wire: Vec<f64> = answered
        .iter()
        .map(|s| s.latency_ns as f64 - s.total_ns as f64)
        .collect();
    let server_exec_mean = mean(&exec);
    metrics.add("net.queue_us", us(median(&mut queue)), "us");
    metrics.add("net.exec_us", us(median(&mut exec)), "us");
    metrics.add("net.wire_us", us(median(&mut wire)), "us");
    let round = inputs.round(0);
    let mut decode: Vec<f64> = round
        .iter()
        .map(|&op| {
            let payload = inputs.request(op, 1).encode();
            per_call_ns(5, 200, || {
                std::hint::black_box(cqt_service::net::Request::decode(std::hint::black_box(
                    &payload,
                )))
                .expect("own request decodes");
            })
        })
        .collect();
    metrics.add("net.decode_ns", median(&mut decode), "ns");
    let mut encode: Vec<f64> = answered
        .iter()
        .take(round.len())
        .map(|s| {
            let response = if s.fingerprints.len() == 1 {
                Response::Answer {
                    id: 1,
                    fingerprint: s.fingerprints[0],
                    docs: 1,
                    queue_ns: s.queue_ns,
                    exec_ns: s.exec_ns,
                    total_ns: s.total_ns,
                }
            } else {
                Response::BatchAnswer {
                    id: 1,
                    docs: 1,
                    queue_ns: s.queue_ns,
                    exec_ns: s.exec_ns,
                    total_ns: s.total_ns,
                    fingerprints: s.fingerprints.clone(),
                }
            };
            per_call_ns(5, 200, || {
                std::hint::black_box(std::hint::black_box(&response).encode());
            })
        })
        .collect();
    metrics.add("net.encode_ns", median(&mut encode), "ns");

    // The traced replay, after one untraced pass that fills the replayer's
    // plan cache and checks its answers.
    let mut replayer = Replayer::new(inputs, &local.corpus);
    let mut folds = FoldCache::default();
    let mut scratch = ExecScratch::new();
    let t = &mut ev.tracer;
    t.on = false;
    for op in inputs.all_ops().into_iter().filter(|op| op.alone.is_none()) {
        let replayed = replayer.replay(t, op);
        let want = folds.get(local, inputs, op, &mut scratch);
        checks.check("replay answers", replayed.fingerprints == *want, || {
            format!("{op:?}")
        });
    }
    let mut traced_total = Vec::new();
    let mut traced_exec = Vec::new();
    let mut untraced_total = Vec::new();
    let (mut kary_answers, mut kary_exec_ns, mut reused) = (0u64, 0u64, Vec::new());
    let deadline = Instant::now() + replay_for;
    let mut r = 0;
    while Instant::now() < deadline {
        // Alternate whole rounds with and without spans, so both see the
        // same requests under the same conditions.
        t.on = r % 2 == 0;
        for op in inputs.round(r / 2) {
            let replayed = replayer.replay(t, op);
            if t.on {
                traced_total.push(replayed.total_ns as f64);
                traced_exec.push(replayed.exec_ns as f64);
                kary_answers += replayed.kary_answers;
                kary_exec_ns += replayed.kary_exec_ns;
                if replayed.fingerprints.len() > 1 {
                    reused.push(replayed.reused_steps as f64);
                }
            } else {
                untraced_total.push(replayed.total_ns as f64);
            }
        }
        r += 1;
    }
    let span = |name: &str| -> f64 {
        let mut values = t.durations.get(name).cloned().unwrap_or_default();
        median(&mut values)
    };
    metrics.add("query.parse_us", us(span("query.parse")), "us");

    // plan
    metrics.add("plan.lookup_ns", span("plan.lookup"), "ns");
    let mut compile: Vec<f64> = local
        .specs
        .iter()
        .map(|spec| {
            let start = Instant::now();
            std::hint::black_box(Plan::compile(spec, &local.options));
            start.elapsed().as_nanos() as f64
        })
        .collect();
    metrics.add("plan.compile_us", us(median(&mut compile)), "us");
    let (_, pruned_before, survivors_before, fp_before) = counters(&ev.stats_before);
    let (misses, pruned_after, survivors_after, fp_after) = counters(&ev.stats_after);
    metrics.add("plan.misses", misses as f64, "count");

    // index
    metrics.add("index.candidates_us", us(span("index.candidates")), "us");
    metrics.add(
        "index.pruned",
        (pruned_after - pruned_before) as f64,
        "count",
    );
    let survivors = (survivors_after - survivors_before) as f64;
    let false_positives = (fp_after - fp_before) as f64;
    metrics.add(
        "index.useful_ratio",
        (survivors - false_positives) / survivors.max(1.0),
        "ratio",
    );

    // shard
    metrics.add("shard.select_us", us(span("shard.select")), "us");
    metrics.add("shard.snapshot_ns", span("shard.snapshot"), "ns");
    metrics.add(
        "shard.commit_mem_us",
        us(median(&mut ev.commit_mem_ns)),
        "us",
    );

    // prepared: a cold build of the relations and label sets the mix uses.
    let axes = [
        Axis::Child,
        Axis::ChildPlus,
        Axis::ChildStar,
        Axis::NextSibling,
        Axis::NextSiblingPlus,
        Axis::Following,
    ];
    let mut labels: Vec<&str> = inputs
        .queries
        .iter()
        .flat_map(|q| {
            q.reference
                .iter()
                .flat_map(|cq| cq.labels.iter().map(|(l, _)| l.as_str()))
        })
        .collect();
    labels.sort_unstable();
    labels.dedup();
    let mut build: Vec<f64> = inputs
        .trees
        .iter()
        .take(32)
        .map(|tree| {
            let tree = tree.clone();
            let start = Instant::now();
            let prepared = PreparedTree::new(tree);
            for axis in axes {
                std::hint::black_box(prepared.relation(axis));
            }
            for label in &labels {
                std::hint::black_box(prepared.label_pre_set_by_name(label));
            }
            start.elapsed().as_nanos() as f64
        })
        .collect();
    metrics.add("prepared.build_ms", median(&mut build) / 1e6, "ms");
    let (mut relation_builds, mut label_set_builds) = (0, 0);
    for document in local.corpus.documents().iter() {
        let snapshot = document.handle().snapshot();
        relation_builds += snapshot.prepared.relation_builds();
        label_set_builds += snapshot.prepared.label_set_builds();
    }
    metrics.add("prepared.relation_builds", relation_builds as f64, "count");
    metrics.add(
        "prepared.label_set_builds",
        label_set_builds as f64,
        "count",
    );
    metrics.add(
        "prepared.carried_relations",
        ev.carried_relations as f64,
        "count",
    );

    // core: one plan on one document, one thread.
    for stratum in &Stratum::ALL[..7] {
        let name = format!("core.exec_us.{}", stratum.name());
        metrics.add(name, us(span(exec_span(*stratum))), "us");
    }
    metrics.add(
        "core.kary_us_per_answer",
        us(kary_exec_ns as f64 / kary_answers.max(1) as f64),
        "us",
    );
    let (product, answers) = kary_shape(inputs, local, &mut scratch);
    metrics.add("core.kary_candidate_product", product, "count");
    metrics.add("core.kary_answers", answers, "count");

    // stats and batch
    metrics.add("stats.fingerprint_ns", span("stats.fingerprint"), "ns");
    metrics.add("batch.prepare_us", us(span("batch.prepare")), "us");
    metrics.add("batch.exec_us", us(span("batch.exec")), "us");
    metrics.add("batch.reused_steps", median(&mut reused), "count");

    // edit and durability: `churn` only; the other workloads write nothing
    // and read 0 here.
    metrics.add("edit.apply_us", us(median(&mut ev.edit_apply_ns)), "us");
    let durable = median(&mut ev.commit_durable_ns);
    metrics.add("durability.commit_us", us(durable), "us");
    let in_memory = median(&mut ev.commit_mem_ns);
    metrics.add("durability.wal_us", us(durable - in_memory), "us");
    let (mut bytes, mut records, mut recover_ms) = (0u64, 0u64, Vec::new());
    let mut doc_dirs: Vec<PathBuf> = std::fs::read_dir(&ev.leader_dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect()
        })
        .unwrap_or_default();
    doc_dirs.sort();
    for dir in &doc_dirs {
        let start = Instant::now();
        let recovered = recover_document(dir);
        recover_ms.push(start.elapsed().as_nanos() as f64 / 1e6);
        checks.check("document recovers", recovered.is_ok(), || {
            format!("{}: {recovered:?}", dir.display())
        });
        if let Ok(doc) = recovered {
            if doc.wal_records > 0 {
                // The valid prefix includes the log's 5-byte header.
                bytes += doc.wal_valid_bytes.saturating_sub(5);
                records += doc.wal_records;
            }
        }
    }
    metrics.add(
        "durability.wal_bytes_per_commit",
        bytes as f64 / records.max(1) as f64,
        "bytes",
    );
    metrics.add(
        "durability.replayed_records",
        ev.replayed_records as f64,
        "count",
    );
    metrics.add("durability.recover_doc_ms", median(&mut recover_ms), "ms");
    metrics.add(
        "durability.recover_ms",
        median(&mut ev.recover_ns) / 1e6,
        "ms",
    );
    metrics.add(
        "replication.catchup_ms",
        median(&mut ev.catchup_ns) / 1e6,
        "ms",
    );
    metrics.add(
        "replication.records",
        ev.replication_records as f64,
        "count",
    );
    metrics.add(
        "replication.snapshots",
        ev.replication_snapshots as f64,
        "count",
    );

    // The trace's own accounting.
    metrics.add("trace.request_self_us", us(span("request.self")), "us");
    metrics.add(
        "trace.exec_gap_us",
        us(server_exec_mean - mean(&traced_exec)),
        "us",
    );
    metrics.add(
        "trace.overhead_us",
        us(mean(&traced_total) - mean(&untraced_total)),
        "us",
    );
}

/// Mean over (k-ary query, document) pairs with answers of the candidate
/// product the enumeration walks (the product of the reduced head domains,
/// which are the projected monadic answers) and of the answer count.
fn kary_shape(inputs: &Inputs, local: &Local, scratch: &mut ExecScratch) -> (f64, f64) {
    let (mut products, mut answers) = (Vec::new(), Vec::new());
    for (q, query) in inputs.queries.iter().enumerate() {
        if query.stratum != Stratum::Kary {
            continue;
        }
        let cq = &query.reference[0];
        let projections: Vec<Plan> = cq
            .head
            .iter()
            .map(|&v| {
                Plan::compile(
                    &parse(query.lang, &cq.with_head(vec![v]).text()),
                    &local.options,
                )
                .0
            })
            .collect();
        for document in local.corpus.documents().iter() {
            let prepared = document.handle().snapshot().prepared;
            let Answer::Tuples(tuples) = local.plans[q].execute(&prepared, scratch) else {
                continue;
            };
            if tuples.is_empty() {
                continue;
            }
            let product: f64 = projections
                .iter()
                .map(|p| match p.execute(&prepared, scratch) {
                    Answer::Nodes(nodes) => nodes.len() as f64,
                    _ => 0.0,
                })
                .product();
            products.push(product);
            answers.push(tuples.len() as f64);
        }
    }
    (mean(&products), mean(&answers))
}
