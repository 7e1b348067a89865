//! The benchmark's in-process copy of the corpus: the same documents in an
//! in-memory `Corpus`, answered through `Plan::execute`, and folded into
//! fingerprints exactly as the server folds them.

use std::collections::HashMap;
use std::sync::Arc;

use cqt_core::{Answer, ExecScratch};
use cqt_service::{answer_fingerprint, Corpus, Plan, PlanOptions, QuerySpec};
use cqt_trees::{codec, NodeId, PreparedTree, Tree, TreeBuilder};

use crate::inputs::{doc_id, Inputs, Op, SHARDS};
use cqt_service::net::WireLang;

/// Parses a mix query the way the server does.
pub fn parse(lang: WireLang, text: &str) -> QuerySpec {
    match lang {
        WireLang::Cq => QuerySpec::parse_cq(text),
        WireLang::XPath => QuerySpec::parse_xpath(text),
    }
    .expect("mix queries parse")
}

pub struct Local {
    pub corpus: Corpus,
    pub specs: Vec<QuerySpec>,
    /// One document-independent plan per mix query.
    pub plans: Vec<Arc<Plan>>,
    pub options: PlanOptions,
}

/// The server's per-document fingerprint key for query `q` at fan-out
/// position `j`.
pub fn fp_key(q: usize, j: usize) -> u64 {
    (q as u64).wrapping_mul(1_000_003).wrapping_add(j as u64)
}

impl Local {
    pub fn new(inputs: &Inputs) -> Local {
        let corpus = Corpus::new(SHARDS);
        for (i, tree) in inputs.trees.iter().enumerate() {
            corpus
                .insert(doc_id(i), tree.clone())
                .expect("fresh document ids");
        }
        let options = PlanOptions::default();
        let specs: Vec<QuerySpec> = inputs
            .queries
            .iter()
            .map(|q| parse(q.lang, &q.text))
            .collect();
        let plans = specs
            .iter()
            .map(|spec| Arc::new(Plan::compile(spec, &options).0))
            .collect();
        Local {
            corpus,
            specs,
            plans,
            options,
        }
    }

    /// Per member query, the answer on every document of the op's fan-out.
    pub fn answers(
        inputs: &Inputs,
        plans: &[Arc<Plan>],
        corpus: &Corpus,
        op: Op,
        scratch: &mut ExecScratch,
    ) -> Vec<(usize, Vec<Answer>)> {
        let documents = corpus.select(&inputs.fanout(op).into_fanout());
        inputs
            .members(op)
            .into_iter()
            .map(|q| {
                let answers = documents
                    .iter()
                    .map(|doc| plans[q].execute(&doc.handle().snapshot().prepared, scratch))
                    .collect();
                (q, answers)
            })
            .collect()
    }

    /// The op's fingerprints as the server would fold them over `corpus`.
    pub fn fold_on(
        &self,
        inputs: &Inputs,
        corpus: &Corpus,
        op: Op,
        scratch: &mut ExecScratch,
    ) -> Vec<u64> {
        fold(&Local::answers(inputs, &self.plans, corpus, op, scratch))
    }
}

/// The op's fingerprints over `corpus` as the server folds them, and again
/// with every node named by its pre-order rank instead of its arena index.
/// The second pair is equal exactly when the answers select the same nodes
/// of equal trees, however each copy of a tree numbers its nodes.
pub fn raw_and_canonical_folds(
    inputs: &Inputs,
    plans: &[Arc<Plan>],
    corpus: &Corpus,
    op: Op,
    scratch: &mut ExecScratch,
) -> (Vec<u64>, Vec<u64>) {
    let documents = corpus.select(&inputs.fanout(op).into_fanout());
    let mut raw = Vec::new();
    let mut canonical = Vec::new();
    for q in inputs.members(op) {
        let (mut per_doc, mut ranked) = (Vec::new(), Vec::new());
        for doc in documents.iter() {
            let prepared = doc.handle().snapshot().prepared;
            let answer = plans[q].execute(&prepared, scratch);
            ranked.push(by_pre_rank(&answer, prepared.tree()));
            per_doc.push(answer);
        }
        raw.push((q, per_doc));
        canonical.push((q, ranked));
    }
    (fold(&raw), fold(&canonical))
}

/// `answer` with every node named by its pre-order rank in `tree`, sorted.
pub fn by_pre_rank(answer: &Answer, tree: &Tree) -> Answer {
    let rank = |n: &NodeId| NodeId::from_index(tree.pre_rank(*n) as usize);
    match answer {
        Answer::Boolean(b) => Answer::Boolean(*b),
        Answer::Nodes(nodes) => {
            let mut nodes: Vec<NodeId> = nodes.iter().map(rank).collect();
            nodes.sort_unstable();
            Answer::Nodes(nodes)
        }
        Answer::Tuples(tuples) => {
            let mut tuples: Vec<Vec<NodeId>> = tuples
                .iter()
                .map(|t| t.iter().map(rank).collect())
                .collect();
            tuples.sort_unstable();
            Answer::Tuples(tuples)
        }
    }
}

/// The `churn` probe: a fixed document whose nodes were not created in
/// pre-order goes through the tree codec that WAL snapshots, recovery and
/// replica catch-up all use, and must answer a fixed query as before. Its
/// inputs do not depend on the seed.
pub struct CodecProbe {
    tree: Tree,
    plan: Plan,
}

impl CodecProbe {
    pub fn new() -> CodecProbe {
        // A(B(D), C): `C` is created before `D`, so its arena index (2) is
        // not its pre-order rank (3).
        let mut builder = TreeBuilder::new();
        let root = builder.add_root(&["A"]);
        let b = builder.add_child(root, &["B"]);
        builder.add_child(root, &["C"]);
        builder.add_child(b, &["D"]);
        let tree = builder.build().expect("probe tree");
        let spec = parse(WireLang::Cq, "Q(y) :- A(x), Child(x, y), C(y).");
        let plan = Plan::compile(&spec, &PlanOptions::default()).0;
        CodecProbe { tree, plan }
    }

    /// One probe: whether the restored copy's answer fingerprint equals
    /// the original's, and whether the two answers select the same nodes
    /// by pre-order rank.
    pub fn run(&self, scratch: &mut ExecScratch) -> Result<(bool, bool), String> {
        let restored = codec::tree_from_bytes(&codec::tree_to_bytes(&self.tree))
            .map_err(|e| format!("probe tree does not decode: {e}"))?;
        let original = PreparedTree::new(self.tree.clone());
        let restored = PreparedTree::new(restored);
        let before = self.plan.execute(&original, scratch);
        let after = self.plan.execute(&restored, scratch);
        Ok((
            answer_fingerprint(0, &before) == answer_fingerprint(0, &after),
            by_pre_rank(&before, original.tree()) == by_pre_rank(&after, restored.tree()),
        ))
    }
}

pub fn fold(answers: &[(usize, Vec<Answer>)]) -> Vec<u64> {
    answers
        .iter()
        .map(|(q, per_doc)| {
            per_doc.iter().enumerate().fold(0u64, |acc, (j, answer)| {
                acc.wrapping_add(answer_fingerprint(fp_key(*q, j), answer))
            })
        })
        .collect()
}

/// Memoised folds over the local corpus.
#[derive(Default)]
pub struct FoldCache(HashMap<Op, Vec<u64>>);

impl FoldCache {
    pub fn get(
        &mut self,
        local: &Local,
        inputs: &Inputs,
        op: Op,
        scratch: &mut ExecScratch,
    ) -> &Vec<u64> {
        self.0
            .entry(op)
            .or_insert_with(|| local.fold_on(inputs, &local.corpus, op, scratch))
    }
}
