//! The traced replay: each request of the mix replayed in-process through
//! the layers' public functions, in the order the server's worker calls
//! them (select, label-index candidates, snapshot, plan lookup, execute,
//! fingerprint), with a span around every call. Spans are kept in memory
//! and written out when the run ends; per-layer self times are computed
//! from them.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use cqt_core::{Answer, BatchScratch, ExecScratch};
use cqt_service::{
    answer_fingerprint, Corpus, DocId, PlanCache, PlanKey, PlanOptions, PreparedBatch, PruneStats,
};
use cqt_trees::DocSummary;

use crate::inputs::{Inputs, Op, Stratum};
use crate::local::{fp_key, parse};

/// One timed call. `parent` is the index of the request's root span among
/// the kept spans (`u32::MAX` for a root).
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u32,
}

/// Spans kept for the output file; durations of every span are kept as
/// aggregates regardless.
const KEEP_SPANS: usize = 200_000;

pub struct Tracer {
    pub on: bool,
    origin: Instant,
    pub kept: Vec<Span>,
    /// Span durations in nanoseconds, per span name.
    pub durations: BTreeMap<&'static str, Vec<f64>>,
    request: u32,
    root: u32,
    children_ns: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: true,
            origin: Instant::now(),
            kept: Vec::new(),
            durations: BTreeMap::new(),
            request: 0,
            root: u32::MAX,
            children_ns: 0,
        }
    }

    fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let ns = end.duration_since(start).as_nanos() as u64;
        self.durations.entry(name).or_default().push(ns as f64);
        if self.kept.len() < KEEP_SPANS {
            self.kept.push(Span {
                name,
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                end_ns: end.duration_since(self.origin).as_nanos() as u64,
                parent: self.root,
                request: self.request,
            });
        }
    }

    /// Opens the root span of the next request.
    fn begin_request(&mut self, start: Instant) {
        self.children_ns = 0;
        self.root = u32::MAX;
        if self.on && self.kept.len() < KEEP_SPANS {
            let at = start.duration_since(self.origin).as_nanos() as u64;
            self.kept.push(Span {
                name: "request",
                start_ns: at,
                end_ns: at,
                parent: u32::MAX,
                request: self.request,
            });
            self.root = (self.kept.len() - 1) as u32;
        }
    }

    /// Closes the root span; its self time is the glue between the layer
    /// calls.
    fn end_request(&mut self, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let ns = end.duration_since(start).as_nanos() as u64;
        if let Some(root) = self.kept.get_mut(self.root as usize) {
            root.end_ns = end.duration_since(self.origin).as_nanos() as u64;
        }
        self.durations.entry("request").or_default().push(ns as f64);
        let self_ns = ns.saturating_sub(self.children_ns);
        self.durations
            .entry("request.self")
            .or_default()
            .push(self_ns as f64);
        self.request += 1;
    }

    /// Times `f` as a child of the current request.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        self.children_ns += end.duration_since(start).as_nanos() as u64;
        self.record(name, start, end);
        value
    }

    /// Writes the kept spans as tab-separated lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request\tname\tstart_ns\tend_ns\tparent")?;
        for span in &self.kept {
            let parent = if span.parent == u32::MAX {
                "-".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                span.request, span.name, span.start_ns, span.end_ns, parent
            )?;
        }
        out.flush()
    }
}

pub fn exec_span(stratum: Stratum) -> &'static str {
    match stratum {
        Stratum::Tau1 => "core.exec.tau1",
        Stratum::Tau2 => "core.exec.tau2",
        Stratum::Tau3 => "core.exec.tau3",
        Stratum::Acyclic => "core.exec.acyclic",
        Stratum::Cyclic => "core.exec.cyclic",
        Stratum::Kary => "core.exec.kary",
        Stratum::Xpath => "core.exec.xpath",
        Stratum::Batch => "core.exec.batch",
    }
}

/// What one replayed request measured.
pub struct Replayed {
    pub fingerprints: Vec<u64>,
    /// Whole request, parse included.
    pub total_ns: u64,
    /// The part the server counts as `exec_ns`: everything after parsing.
    pub exec_ns: u64,
    pub kary_answers: u64,
    pub kary_exec_ns: u64,
    pub reused_steps: u64,
}

/// The server's pruning decision, restated from its documented rule: a
/// document outside the label index's candidates is pruned when its own
/// summary rules the plan out; a candidate only when a required axis is
/// empty on it.
fn should_prune(plan: &cqt_service::Plan, index_candidate: bool, summary: &DocSummary) -> bool {
    if plan.is_always_empty() {
        return true;
    }
    if !index_candidate {
        return plan.prunes(summary);
    }
    plan.required_axes()
        .iter()
        .any(|&axis| !summary.can_satisfy(axis))
}

/// Scratch state of one replaying thread.
pub struct Replayer<'a> {
    pub inputs: &'a Inputs,
    pub corpus: &'a Corpus,
    pub cache: PlanCache,
    pub options: PlanOptions,
    scratch: ExecScratch,
    batch_scratch: BatchScratch,
}

impl<'a> Replayer<'a> {
    pub fn new(inputs: &'a Inputs, corpus: &'a Corpus) -> Self {
        Replayer {
            inputs,
            corpus,
            cache: PlanCache::new(),
            options: PlanOptions::default(),
            scratch: ExecScratch::new(),
            batch_scratch: BatchScratch::new(),
        }
    }

    /// Replays `op`, with spans when `t.on`.
    pub fn replay(&mut self, t: &mut Tracer, op: Op) -> Replayed {
        let inputs = self.inputs;
        let members = inputs.members(op);
        let start = Instant::now();
        t.begin_request(start);
        let specs: Vec<_> = members
            .iter()
            .map(|&q| {
                let query = &inputs.queries[q];
                t.span("query.parse", || parse(query.lang, &query.text))
            })
            .collect();
        let exec_start = Instant::now();
        let target = inputs.fanout(op).into_fanout();
        let documents = t.span("shard.select", || self.corpus.select(&target));
        let mut out = Replayed {
            fingerprints: vec![0; members.len()],
            total_ns: 0,
            exec_ns: 0,
            kary_answers: 0,
            kary_exec_ns: 0,
            reused_steps: 0,
        };
        if members.len() == 1 {
            let (q, spec) = (members[0], &specs[0]);
            let stratum = inputs.queries[q].stratum;
            let key = PlanKey::of_spec(spec).with_options(&self.options);
            let plan = t.span("plan.lookup", || {
                self.cache.get_or_compile(spec, &self.options)
            });
            let empty = plan.empty_answer();
            let index = self.corpus.label_index();
            let survivors: Option<BTreeSet<DocId>> = t.span("index.candidates", || {
                index.candidates(plan.required_labels())
            });
            for (j, document) in documents.iter().enumerate() {
                let snapshot = t.span("shard.snapshot", || document.handle().snapshot());
                let candidate = survivors.as_ref().is_none_or(|s| s.contains(document.id()));
                let answer = if should_prune(&plan, candidate, snapshot.prepared.doc_summary()) {
                    empty.clone()
                } else {
                    let plan = t.span("plan.lookup", || {
                        self.cache.get_or_compile_tagged(
                            key.with_document(snapshot.prepared.structure_hash()),
                            spec,
                            &self.options,
                            document.doc_tag(),
                        )
                    });
                    let exec = Instant::now();
                    let answer = t.span(exec_span(stratum), || {
                        plan.execute(&snapshot.prepared, &mut self.scratch)
                    });
                    if let Answer::Tuples(tuples) = &answer {
                        out.kary_answers += tuples.len() as u64;
                        out.kary_exec_ns += exec.elapsed().as_nanos() as u64;
                    }
                    answer
                };
                let fp = t.span("stats.fingerprint", || {
                    answer_fingerprint(fp_key(q, j), &answer)
                });
                out.fingerprints[0] = out.fingerprints[0].wrapping_add(fp);
            }
        } else {
            let index = self.corpus.label_index();
            let batch = t.span("batch.prepare", || {
                PreparedBatch::prepare(&specs, &self.cache, &self.options, Some(index))
            });
            out.reused_steps = batch.reused_steps() as u64;
            let mut answers = Vec::with_capacity(members.len());
            let mut prune = PruneStats::default();
            for (j, document) in documents.iter().enumerate() {
                answers.clear();
                t.span("batch.exec", || {
                    batch.execute_document(
                        document,
                        &mut self.batch_scratch,
                        &mut answers,
                        &mut prune,
                    )
                });
                for (m, answer) in answers.iter().enumerate() {
                    let fp = t.span("stats.fingerprint", || {
                        answer_fingerprint(fp_key(members[m], j), answer)
                    });
                    out.fingerprints[m] = out.fingerprints[m].wrapping_add(fp);
                }
            }
        }
        let end = Instant::now();
        out.total_ns = end.duration_since(start).as_nanos() as u64;
        out.exec_ns = end.duration_since(exec_start).as_nanos() as u64;
        t.end_request(start, end);
        out
    }
}
