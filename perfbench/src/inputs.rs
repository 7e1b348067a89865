//! Seeded inputs of the three workloads: the corpus, the query mix stratified
//! by signature class, and the write schedule. The server process and the
//! benchmark process both call [`Inputs::generate`] with the same arguments,
//! so the server receives only the generated inputs and the benchmark knows
//! exactly what it sent.

use cqt_service::net::{Request, WireFanOut, WireLang, WireQuery};
use cqt_trees::edit::EditScript;
use cqt_trees::generate::{
    document_corpus, random_edit_script, DocumentCorpusConfig, EditScriptConfig, LabelVocabulary,
};
use cqt_trees::Tree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shards of every corpus the benchmark builds.
pub const SHARDS: usize = 4;

/// The three traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Single-document requests over many mid-size documents.
    Lookup,
    /// Whole-corpus fan-out over an overlapping-vocabulary corpus.
    Scan,
    /// The lookup mix beside a writer committing durable edits.
    Churn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "lookup" => Some(Workload::Lookup),
            "scan" => Some(Workload::Scan),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Lookup => "lookup",
            Workload::Scan => "scan",
            Workload::Churn => "churn",
        }
    }
}

/// The cost classes the paper's dichotomy (Theorem 1.1) and the engine's
/// strategies split queries into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stratum {
    /// Cyclic, signature inside τ₁ = {Child+, Child*}: X̲-property arc consistency.
    Tau1,
    /// Cyclic, signature inside τ₂ = {Following}.
    Tau2,
    /// Cyclic, signature inside τ₃ = {Child, NextSibling, NextSibling+, NextSibling*}.
    Tau3,
    /// Acyclic over an NP-hard signature: Yannakakis.
    Acyclic,
    /// Cyclic over an NP-hard signature: MAC search.
    Cyclic,
    /// Head arity ≥ 2.
    Kary,
    /// Positive Core XPath.
    Xpath,
    /// One `Batch` frame of kindred queries.
    Batch,
}

impl Stratum {
    pub const ALL: [Stratum; 8] = [
        Stratum::Tau1,
        Stratum::Tau2,
        Stratum::Tau3,
        Stratum::Acyclic,
        Stratum::Cyclic,
        Stratum::Kary,
        Stratum::Xpath,
        Stratum::Batch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Stratum::Tau1 => "tau1",
            Stratum::Tau2 => "tau2",
            Stratum::Tau3 => "tau3",
            Stratum::Acyclic => "acyclic",
            Stratum::Cyclic => "cyclic",
            Stratum::Kary => "kary",
            Stratum::Xpath => "xpath",
            Stratum::Batch => "batch",
        }
    }
}

/// The paper's seven axes, as the reference evaluator knows them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefAxis {
    Child,
    ChildPlus,
    ChildStar,
    NextSibling,
    NextSiblingPlus,
    NextSiblingStar,
    Following,
}

impl RefAxis {
    pub const ALL: [RefAxis; 7] = [
        RefAxis::Child,
        RefAxis::ChildPlus,
        RefAxis::ChildStar,
        RefAxis::NextSibling,
        RefAxis::NextSiblingPlus,
        RefAxis::NextSiblingStar,
        RefAxis::Following,
    ];

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn text(self) -> &'static str {
        match self {
            RefAxis::Child => "Child",
            RefAxis::ChildPlus => "Child+",
            RefAxis::ChildStar => "Child*",
            RefAxis::NextSibling => "NextSibling",
            RefAxis::NextSiblingPlus => "NextSibling+",
            RefAxis::NextSiblingStar => "NextSibling*",
            RefAxis::Following => "Following",
        }
    }
}

const VAR_NAMES: [&str; 4] = ["x", "y", "z", "w"];

/// A conjunctive query in the benchmark's own form: what the reference
/// evaluator reads, and what is rendered into the request text. Variables
/// are indices into [`VAR_NAMES`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cq {
    pub head: Vec<usize>,
    pub labels: Vec<(String, usize)>,
    pub axes: Vec<(RefAxis, usize, usize)>,
}

impl Cq {
    pub fn vars(&self) -> usize {
        let mut n = 0;
        for (_, v) in &self.labels {
            n = n.max(v + 1);
        }
        for &(_, a, b) in &self.axes {
            n = n.max(a + 1).max(b + 1);
        }
        n
    }

    /// The query with `head` as its head and the same body.
    pub fn with_head(&self, head: Vec<usize>) -> Cq {
        Cq {
            head,
            ..self.clone()
        }
    }

    /// Datalog text, as the server's parser reads it.
    pub fn text(&self) -> String {
        let head: Vec<&str> = self.head.iter().map(|&v| VAR_NAMES[v]).collect();
        let mut atoms = Vec::new();
        // Label and axis atoms interleaved in variable order keeps the text
        // readable; the order carries no meaning.
        for (v, name) in VAR_NAMES.iter().enumerate().take(self.vars()) {
            for (label, var) in &self.labels {
                if *var == v {
                    atoms.push(format!("{label}({name})"));
                }
            }
            for &(axis, a, b) in &self.axes {
                if a.max(b) == v {
                    atoms.push(format!(
                        "{}({}, {})",
                        axis.text(),
                        VAR_NAMES[a],
                        VAR_NAMES[b]
                    ));
                }
            }
        }
        format!("Q({}) :- {}.", head.join(", "), atoms.join(", "))
    }
}

/// One distinct query text of a mix, with the disjuncts whose union is its
/// answer by the benchmark's own reading.
#[derive(Clone, Debug)]
pub struct Query {
    pub stratum: Stratum,
    pub lang: WireLang,
    pub text: String,
    pub reference: Vec<Cq>,
    pub arity: usize,
}

impl Query {
    fn cq(stratum: Stratum, cq: Cq) -> Query {
        Query {
            stratum,
            lang: WireLang::Cq,
            text: cq.text(),
            arity: cq.head.len(),
            reference: vec![cq],
        }
    }
}

/// One request kind of the mix; a kind is sent once per round.
#[derive(Clone, Debug)]
pub struct Kind {
    pub stratum: Stratum,
    /// The kind whose query is this Boolean query's body with a monadic
    /// head, if this is a Boolean kind.
    pub boolean_of: Option<usize>,
    /// Query indices per variant (one entry when the text does not depend
    /// on the variant). More than one index makes a `Batch` frame.
    pub members: Vec<Vec<usize>>,
}

/// What one request does: a kind against one variant (a document for
/// single-document mixes, a label family for the scan mix), or one
/// member of a batch kind sent alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Op {
    pub kind: usize,
    pub variant: usize,
    pub alone: Option<usize>,
}

/// Everything a run sends and checks.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub trees: Vec<Tree>,
    /// Labels each document's edits draw from (its initial label set).
    pub alphabets: Vec<Vec<String>>,
    pub queries: Vec<Query>,
    pub kinds: Vec<Kind>,
    /// Number of variants: documents, or label families for `scan`.
    pub variants: usize,
    /// Documents the writer commits to, in schedule order.
    pub hot: Vec<usize>,
}

/// Corpus shape of a workload at full size, or of its small-tree twin: the
/// corpus is `draws` generator draws of `documents` documents each.
struct Shape {
    draws: usize,
    documents: usize,
    distinct: usize,
    nodes: usize,
    vocabulary: LabelVocabulary,
}

fn shape(workload: Workload, twin: bool) -> Shape {
    match (workload, twin) {
        // Each draw gives every family one new tree over its private labels,
        // so a family is `draws` distinct trees sharing `T{t}_E`..`T{t}_H`.
        (Workload::Scan, false) => Shape {
            draws: SCAN_FAMILY_SIZE,
            documents: SCAN_FAMILIES,
            distinct: SCAN_FAMILIES,
            nodes: SCAN_NODES,
            vocabulary: LabelVocabulary::Overlapping,
        },
        (Workload::Scan, true) => Shape {
            draws: 3,
            documents: SCAN_FAMILIES,
            distinct: SCAN_FAMILIES,
            nodes: 28,
            vocabulary: LabelVocabulary::Overlapping,
        },
        (_, false) => Shape {
            draws: 1,
            documents: 192,
            distinct: 192,
            nodes: 200,
            vocabulary: LabelVocabulary::Shared,
        },
        (_, true) => Shape {
            draws: 1,
            documents: 16,
            distinct: 16,
            nodes: 28,
            vocabulary: LabelVocabulary::Shared,
        },
    }
}

/// Label families of the scan corpus: each query names a private label of
/// one family, so the label index prunes the other families' documents and
/// every fan-out executes on one family's distinct trees.
pub const SCAN_FAMILIES: usize = 4;
/// Distinct trees per scan family.
pub const SCAN_FAMILY_SIZE: usize = 16;
/// Rotations of the shared labels over a scan family's query slots.
const SCAN_ROTATIONS: usize = 4;
const SCAN_NODES: usize = 1000;
/// Label instantiations of every query template in a mix.
const INSTANTIATIONS: usize = 4;
/// Documents the writer commits to.
pub const HOT_DOCUMENTS: usize = 8;
const ALPHABET: [&str; 8] = ["A", "B", "C", "D", "E", "F", "G", "H"];

pub fn doc_id(index: usize) -> String {
    format!("d{index:04}")
}

impl Inputs {
    /// The inputs of `workload` under `seed`; `twin` selects the small-tree
    /// twin (same generator, seed and vocabulary) the reference evaluator
    /// checks every query against.
    pub fn generate(workload: Workload, seed: u64, twin: bool) -> Inputs {
        let shape = shape(workload, twin);
        let mut rng = StdRng::seed_from_u64(seed);
        let config = DocumentCorpusConfig {
            documents: shape.documents,
            distinct: shape.distinct,
            nodes_per_document: shape.nodes,
            alphabet: ALPHABET.iter().map(|l| l.to_string()).collect(),
            vocabulary: shape.vocabulary,
        };
        let trees: Vec<Tree> = (0..shape.draws)
            .flat_map(|_| document_corpus(&mut rng, &config))
            .collect();
        let alphabets = trees
            .iter()
            .map(|tree| {
                tree.interner()
                    .iter()
                    .map(|(_, name)| name.to_string())
                    .collect()
            })
            .collect();
        let (queries, kinds, variants) = match workload {
            Workload::Scan => scan_mix(),
            _ => doc_mix(trees.len()),
        };
        let mut hot_rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut hot = Vec::new();
        while hot.len() < HOT_DOCUMENTS.min(trees.len()) {
            let doc = hot_rng.gen_range(0..trees.len());
            if !hot.contains(&doc) {
                hot.push(doc);
            }
        }
        Inputs {
            workload,
            seed,
            trees,
            alphabets,
            queries,
            kinds,
            variants,
            hot,
        }
    }

    pub fn members(&self, op: Op) -> Vec<usize> {
        let kind = &self.kinds[op.kind];
        let members = &kind.members[op.variant % kind.members.len()];
        match op.alone {
            Some(m) => vec![members[m]],
            None => members.clone(),
        }
    }

    /// The fan-out target of an op: the document for single-document
    /// mixes, the whole corpus for `scan`.
    pub fn fanout(&self, op: Op) -> WireFanOut {
        match self.workload {
            Workload::Scan => WireFanOut::All,
            _ => WireFanOut::Doc(doc_id(op.variant)),
        }
    }

    /// The wire request of `op`. Each query's fingerprint key is its index,
    /// so a batch member and the same query sent alone fold identically.
    pub fn request(&self, op: Op, id: u64) -> Request {
        let members = self.members(op);
        let fanout = self.fanout(op);
        if members.len() == 1 {
            let query = &self.queries[members[0]];
            Request::Query {
                id,
                lang: query.lang,
                text: query.text.clone(),
                fanout,
                fp_key: members[0] as u64,
            }
        } else {
            Request::Batch {
                id,
                fanout,
                queries: members
                    .iter()
                    .map(|&q| WireQuery {
                        lang: self.queries[q].lang,
                        text: self.queries[q].text.clone(),
                        fp_key: q as u64,
                    })
                    .collect(),
            }
        }
    }

    /// Round `round` of the measured mix: every kind once, in stratum-
    /// interleaved order, each against the variant the round assigns it.
    pub fn round(&self, round: usize) -> Vec<Op> {
        let kinds = self.kinds.len();
        (0..kinds)
            .map(|kind| {
                let variant = match self.workload {
                    // Half of the churn reads go to the documents being
                    // written, half spread over the whole corpus.
                    Workload::Churn if (round + kind).is_multiple_of(2) => {
                        self.hot[(round + kind) / 2 % self.hot.len()]
                    }
                    // Every kind meets every scan family in turn.
                    Workload::Scan => (round + kind) % self.variants,
                    _ => (round * kinds + kind) % self.variants,
                };
                Op {
                    kind,
                    variant,
                    alone: None,
                }
            })
            .collect()
    }

    /// Every (kind, variant) pair once, plus every batch member alone: the
    /// warm pass of set-up, whose answers the checks compare.
    pub fn all_ops(&self) -> Vec<Op> {
        let mut ops = Vec::new();
        for variant in 0..self.variants {
            for (kind, k) in self.kinds.iter().enumerate() {
                ops.push(Op {
                    kind,
                    variant,
                    alone: None,
                });
                let members = k.members[variant % k.members.len()].len();
                if members > 1 {
                    for m in 0..members {
                        ops.push(Op {
                            kind,
                            variant,
                            alone: Some(m),
                        });
                    }
                }
            }
        }
        ops
    }

    /// The ops whose answers a commit to `doc` can change (single-document
    /// mixes).
    pub fn ops_touching(&self, doc: usize) -> Vec<Op> {
        self.all_ops()
            .into_iter()
            .filter(|op| op.variant == doc)
            .collect()
    }

    /// The `k`-th commit of the write schedule against the document's
    /// current tree, relabelling only or changing the structure. Both
    /// processes derive the same script from the same tree.
    pub fn commit_script(&self, k: u64, tree: &Tree) -> (usize, EditScript) {
        let doc = self.hot[k as usize % self.hot.len()];
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ 0x5eed_c0de ^ k.wrapping_mul(0x2545_f491_4f6c_dd1d));
        // Each document alternates between the two kinds of commit.
        let structural = (k as usize / self.hot.len()) % 2 == 1;
        let config = EditScriptConfig {
            edits: 2,
            insert_weight: if structural { 2 } else { 0 },
            delete_weight: if structural { 1 } else { 0 },
            relabel_weight: if structural { 0 } else { 1 },
            max_insert_nodes: 4,
            alphabet: self.alphabets[doc].clone(),
        };
        (doc, random_edit_script(&mut rng, tree, &config))
    }
}

fn cq(head: &[usize], labels: &[(&str, usize)], axes: &[(RefAxis, usize, usize)]) -> Cq {
    Cq {
        head: head.to_vec(),
        labels: labels.iter().map(|(l, v)| (l.to_string(), *v)).collect(),
        axes: axes.to_vec(),
    }
}

/// One instantiation of every template over the slot labels `[a, b, c, d]`.
/// Each entry is a kind: its stratum, whether it is the Boolean twin of the
/// previous entry, and its member queries.
fn templates(s: &[String]) -> Vec<(Stratum, bool, Vec<Query>)> {
    use RefAxis::*;
    let (a, b, c, d) = (s[0].as_str(), s[1].as_str(), s[2].as_str(), s[3].as_str());
    let (x, y, z, w) = (0, 1, 2, 3);
    let abc = [(a, x), (b, y), (c, z)];
    let tau1 = cq(
        &[z],
        &abc,
        &[(ChildPlus, x, y), (ChildPlus, x, z), (ChildStar, y, z)],
    );
    let tau2 = cq(
        &[z],
        &abc,
        &[(Following, x, y), (Following, y, z), (Following, x, z)],
    );
    let tau3 = cq(
        &[z],
        &abc,
        &[(Child, x, y), (Child, x, z), (NextSiblingPlus, y, z)],
    );
    let acyclic = cq(
        &[z],
        &[(a, x), (b, y), (c, z), (d, w)],
        &[(Child, x, y), (ChildPlus, y, z), (Following, x, w)],
    );
    let cyclic = cq(
        &[z],
        &abc,
        &[(ChildPlus, x, y), (ChildPlus, x, z), (NextSibling, y, z)],
    );
    // The k-ary template pairs an `a` node with the `c` descendants of its
    // `b` children. The engine enumerates the product of the reduced head
    // domains and re-checks every candidate pair, and that product is
    // several times the answer count, which grows with subtree sizes: this
    // is the stratum where an output-sensitive enumeration shows.
    let kary = cq(&[x, z], &abc, &[(Child, x, y), (ChildPlus, y, z)]);
    // `//a[b]/following::c` is the introduction's example; both XPath
    // templates reach their answers through sibling or following axes,
    // which no root element has, so they mean the same whether or not a
    // leading `//` may select the root.
    let xpath1 = Query {
        stratum: Stratum::Xpath,
        lang: WireLang::XPath,
        text: format!("//{a}[{b}]/following::{c}"),
        reference: vec![cq(&[z], &abc, &[(Child, x, y), (Following, x, z)])],
        arity: 1,
    };
    let xpath2 = Query {
        stratum: Stratum::Xpath,
        lang: WireLang::XPath,
        text: format!("//{a}/following-sibling::{b}[{c}] | //{a}/following::{d}"),
        reference: vec![
            cq(
                &[y],
                &[(a, x), (b, y), (c, w)],
                &[(NextSiblingPlus, x, y), (Child, y, w)],
            ),
            cq(&[y], &[(a, x), (d, y)], &[(Following, x, y)]),
        ],
        arity: 1,
    };
    let batch = vec![
        cq(&[y], &[(a, x), (b, y)], &[(ChildPlus, x, y)]),
        cq(&[y], &[(a, x), (c, y)], &[(ChildPlus, x, y)]),
        cq(&[y], &[(a, x), (b, y)], &[(Child, x, y)]),
        cq(&[x], &[(a, x), (d, y)], &[(ChildPlus, x, y)]),
    ];
    let mut kinds = Vec::new();
    for (stratum, body) in [
        (Stratum::Tau1, tau1),
        (Stratum::Tau2, tau2),
        (Stratum::Tau3, tau3),
        (Stratum::Acyclic, acyclic),
        (Stratum::Cyclic, cyclic),
    ] {
        kinds.push((stratum, false, vec![Query::cq(stratum, body.clone())]));
        kinds.push((
            stratum,
            true,
            vec![Query::cq(stratum, body.with_head(vec![]))],
        ));
    }
    kinds.push((Stratum::Kary, false, vec![Query::cq(Stratum::Kary, kary)]));
    kinds.push((Stratum::Xpath, false, vec![xpath1]));
    kinds.push((Stratum::Xpath, false, vec![xpath2]));
    kinds.push((
        Stratum::Batch,
        false,
        batch
            .into_iter()
            .map(|q| Query::cq(Stratum::Batch, q))
            .collect(),
    ));
    kinds
}

/// Registers `query`, reusing the index of an identical text.
fn intern(queries: &mut Vec<Query>, query: Query) -> usize {
    match queries.iter().position(|q| q.text == query.text) {
        Some(i) => i,
        None => {
            queries.push(query);
            queries.len() - 1
        }
    }
}

/// Orders kinds so consecutive requests cycle through the strata.
fn interleave(mut kinds: Vec<Kind>) -> Vec<Kind> {
    let mut out: Vec<Kind> = Vec::new();
    while !kinds.is_empty() {
        let mut taken = Vec::new();
        for stratum in Stratum::ALL {
            if let Some(i) = kinds.iter().position(|k| k.stratum == stratum) {
                taken.push(i);
            }
        }
        taken.sort_unstable_by(|a, b| b.cmp(a));
        let mut batch: Vec<Kind> = taken.into_iter().map(|i| kinds.remove(i)).collect();
        batch.sort_by_key(|k| k.stratum);
        out.extend(batch);
    }
    // Boolean kinds refer to their monadic kind by position.
    let mut fixed = out.clone();
    for (i, kind) in out.iter().enumerate() {
        if let Some(text) = kind.boolean_of {
            fixed[i].boolean_of = out
                .iter()
                .position(|k| k.members[0][0] == text && k.boolean_of.is_none());
        }
    }
    fixed
}

/// Builds kinds from per-variant template instantiations.
fn build(per_variant: Vec<Vec<(Stratum, bool, Vec<Query>)>>) -> (Vec<Query>, Vec<Kind>) {
    let mut queries = Vec::new();
    let mut kinds: Vec<Kind> = Vec::new();
    for (variant, instance) in per_variant.into_iter().enumerate() {
        let mut previous = None;
        for (i, (stratum, boolean, members)) in instance.into_iter().enumerate() {
            let members: Vec<usize> = members
                .into_iter()
                .map(|q| intern(&mut queries, q))
                .collect();
            if variant == 0 {
                kinds.push(Kind {
                    stratum,
                    // Temporarily the monadic query's index; `interleave`
                    // turns it into the kind's position.
                    boolean_of: if boolean { previous } else { None },
                    members: vec![members.clone()],
                });
            } else {
                kinds[i].members.push(members.clone());
            }
            previous = Some(members[0]);
        }
    }
    (queries, interleave(kinds))
}

/// The single-document mix: every template, instantiated over rotations of
/// the shared alphabet so each label fills each slot equally often.
fn doc_mix(documents: usize) -> (Vec<Query>, Vec<Kind>, usize) {
    let instances: Vec<_> = (0..INSTANTIATIONS)
        .flat_map(|i| {
            let slots: Vec<String> = (0..4)
                .map(|s| ALPHABET[(2 * i + s) % ALPHABET.len()].to_string())
                .collect();
            templates(&slots)
        })
        .collect();
    let (queries, kinds) = build(vec![instances]);
    (queries, kinds, documents)
}

/// The scan mix: slot `a` of every template is a private label of one
/// family (`T{t}_E`..`T{t}_H`), the other slots rotations of the shared
/// labels `A`..`D`. A variant is a family and a rotation of the shared
/// labels, so every template meets every family under sixteen label
/// choices, and a stratum's latency is not that of a few trees.
fn scan_mix() -> (Vec<Query>, Vec<Kind>, usize) {
    let (shared, private) = ALPHABET.split_at(4);
    let variants = SCAN_FAMILIES * SCAN_ROTATIONS;
    let per_variant = (0..variants)
        .map(|v| {
            let (t, r) = (v % SCAN_FAMILIES, v / SCAN_FAMILIES);
            (0..INSTANTIATIONS)
                .flat_map(|i| {
                    let mut slots = vec![format!("T{t}_{}", private[i % private.len()])];
                    slots.extend((0..3).map(|s| shared[(i + r + s) % shared.len()].to_string()));
                    templates(&slots)
                })
                .collect()
        })
        .collect();
    let (queries, kinds) = build(per_variant);
    (queries, kinds, variants)
}
