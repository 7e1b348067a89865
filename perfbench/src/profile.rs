//! The corpus profile printed with every run: the tree shape and label
//! statistics that drive evaluation cost, and the machine the run used.

use std::collections::BTreeMap;

use cqt_trees::Tree;

use crate::inputs::Inputs;
use crate::report::Json;

const BUILD_PROFILE: &str = if cfg!(debug_assertions) {
    "debug"
} else {
    "release"
};

/// Power-of-two buckets: 0, 1, 2-3, 4-7, ...
fn bucket(value: usize) -> String {
    if value < 2 {
        return value.to_string();
    }
    let low = 1usize << (usize::BITS - 1 - value.leading_zeros());
    format!("{low}-{}", 2 * low - 1)
}

fn histogram(values: impl Iterator<Item = usize>) -> Json {
    let mut counts: BTreeMap<usize, (String, u64)> = BTreeMap::new();
    for value in values {
        let key = if value < 2 {
            value
        } else {
            1 << (usize::BITS - 1 - value.leading_zeros())
        };
        counts.entry(key).or_insert_with(|| (bucket(value), 0)).1 += 1;
    }
    Json::Object(
        counts
            .into_values()
            .map(|(label, n)| (label, Json::Num(n as f64)))
            .collect(),
    )
}

/// Node count, depth and fan-out histograms (leaf depths, child counts),
/// distinct labels and label skew (largest posting list over the mean one,
/// in documents per label), with `nproc`, rustc version, build profile and
/// seed.
pub fn profile(inputs: &Inputs) -> Json {
    let trees: &[Tree] = &inputs.trees;
    let mut sizes: Vec<usize> = trees.iter().map(Tree::len).collect();
    sizes.sort_unstable();
    let depths = trees
        .iter()
        .flat_map(|t| t.leaves().map(move |l| t.depth(l) as usize));
    let fanouts = trees
        .iter()
        .flat_map(|t| t.nodes().map(move |n| t.children(n).len()));
    let mut postings: BTreeMap<String, usize> = BTreeMap::new();
    for tree in trees {
        for (_, name) in tree.interner().iter() {
            *postings.entry(name.to_string()).or_default() += 1;
        }
    }
    let mean = postings.values().sum::<usize>() as f64 / postings.len().max(1) as f64;
    let max = postings.values().copied().max().unwrap_or(0) as f64;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Object(vec![
        ("workload".into(), Json::Str(inputs.workload.name().into())),
        ("seed".into(), Json::Num(inputs.seed as f64)),
        ("nproc".into(), Json::Num(nproc as f64)),
        (
            "rustc".into(),
            Json::Str(env!("PERFBENCH_RUSTC_VERSION").into()),
        ),
        ("profile".into(), Json::Str(BUILD_PROFILE.into())),
        ("documents".into(), Json::Num(trees.len() as f64)),
        (
            "nodes_total".into(),
            Json::Num(sizes.iter().sum::<usize>() as f64),
        ),
        ("nodes_min".into(), Json::Num(sizes[0] as f64)),
        ("nodes_max".into(), Json::Num(sizes[sizes.len() - 1] as f64)),
        ("leaf_depth_histogram".into(), histogram(depths)),
        ("fanout_histogram".into(), histogram(fanouts)),
        ("distinct_labels".into(), Json::Num(postings.len() as f64)),
        ("label_skew".into(), Json::Num(max / mean.max(1.0))),
        ("queries".into(), Json::Num(inputs.queries.len() as f64)),
        ("kinds".into(), Json::Num(inputs.kinds.len() as f64)),
    ])
}
