//! The reference evaluator: the seven axis relations built from plain
//! `Tree` navigation (parent, children, next sibling), and backtracking over
//! the variables. It shares no code with the engine's evaluators, so an
//! answer both agree on is not an artefact of either.

use std::collections::BTreeSet;

use cqt_core::Answer;
use cqt_trees::{NodeId, Tree};

use crate::inputs::{Cq, Query, RefAxis};

/// One document's axis relations, built on first use.
pub struct RefTree<'t> {
    tree: &'t Tree,
    n: usize,
    relations: Option<Vec<Vec<bool>>>,
}

impl<'t> RefTree<'t> {
    pub fn new(tree: &'t Tree) -> Self {
        RefTree {
            tree,
            n: tree.len(),
            relations: None,
        }
    }

    /// `relations[axis][u * n + v]` holds iff `axis(u, v)`.
    fn relations(&mut self) -> &Vec<Vec<bool>> {
        if self.relations.is_none() {
            let tree = self.tree;
            let n = self.n;
            let mut rel = vec![vec![false; n * n]; RefAxis::ALL.len()];
            let mut set = |axis: RefAxis, u: NodeId, v: NodeId| {
                rel[axis.index()][u.index() * n + v.index()] = true;
            };
            for v in tree.nodes() {
                set(RefAxis::ChildStar, v, v);
                set(RefAxis::NextSiblingStar, v, v);
                for &c in tree.children(v) {
                    set(RefAxis::Child, v, c);
                }
                let mut up = tree.parent(v);
                while let Some(a) = up {
                    set(RefAxis::ChildPlus, a, v);
                    set(RefAxis::ChildStar, a, v);
                    up = tree.parent(a);
                }
                if let Some(s) = tree.next_sibling(v) {
                    set(RefAxis::NextSibling, v, s);
                }
                let mut right = tree.next_sibling(v);
                while let Some(s) = right {
                    set(RefAxis::NextSiblingPlus, v, s);
                    set(RefAxis::NextSiblingStar, v, s);
                    right = tree.next_sibling(s);
                }
                // Following(v, y) = ∃z1 z2: Child*(z1, v) ∧ NextSibling+(z1, z2)
                // ∧ Child*(z2, y), the paper's Eq. (1), read literally.
                let mut z1 = Some(v);
                while let Some(anc) = z1 {
                    let mut z2 = tree.next_sibling(anc);
                    while let Some(sib) = z2 {
                        let mut stack = vec![sib];
                        while let Some(y) = stack.pop() {
                            set(RefAxis::Following, v, y);
                            stack.extend(tree.children(y).iter().copied());
                        }
                        z2 = tree.next_sibling(sib);
                    }
                    z1 = tree.parent(anc);
                }
            }
            self.relations = Some(rel);
        }
        self.relations.as_ref().expect("built above")
    }

    /// The answer of `query` (the union of its disjuncts), in the shape
    /// and order the engine's `Answer` uses.
    pub fn answer(&mut self, query: &Query) -> Answer {
        let mut tuples = BTreeSet::new();
        for cq in &query.reference {
            self.solve(cq, &mut tuples);
        }
        match query.arity {
            0 => Answer::Boolean(!tuples.is_empty()),
            1 => Answer::Nodes(tuples.into_iter().map(|t| t[0]).collect()),
            _ => Answer::Tuples(tuples.into_iter().collect()),
        }
    }

    /// Adds the head tuples of every satisfying valuation of `cq` to `out`.
    fn solve(&mut self, cq: &Cq, out: &mut BTreeSet<Vec<NodeId>>) {
        // A label no node carries empties the query (the common case on
        // documents the index prunes).
        if cq
            .labels
            .iter()
            .any(|(label, _)| self.tree.label(label).is_none())
        {
            return;
        }
        let vars = cq.vars();
        let domains: Vec<Vec<NodeId>> = (0..vars)
            .map(|v| {
                self.tree
                    .nodes()
                    .filter(|&node| {
                        cq.labels
                            .iter()
                            .filter(|(_, var)| *var == v)
                            .all(|(label, _)| self.tree.has_label_name(node, label))
                    })
                    .collect()
            })
            .collect();
        if domains.iter().any(Vec::is_empty) {
            return;
        }
        let n = self.n;
        let rel = self.relations();
        let mut assignment: Vec<NodeId> = Vec::with_capacity(vars);
        backtrack(cq, &domains, rel, n, &mut assignment, out);
    }
}

fn backtrack(
    cq: &Cq,
    domains: &[Vec<NodeId>],
    rel: &[Vec<bool>],
    n: usize,
    assignment: &mut Vec<NodeId>,
    out: &mut BTreeSet<Vec<NodeId>>,
) {
    let var = assignment.len();
    if var == domains.len() {
        out.insert(cq.head.iter().map(|&v| assignment[v]).collect());
        return;
    }
    // A Boolean query needs one witness.
    if cq.head.is_empty() && !out.is_empty() {
        return;
    }
    for &node in &domains[var] {
        assignment.push(node);
        let consistent = cq.axes.iter().all(|&(axis, a, b)| {
            if a.max(b) != var {
                return true;
            }
            rel[axis.index()][assignment[a].index() * n + assignment[b].index()]
        });
        if consistent {
            backtrack(cq, domains, rel, n, assignment, out);
        }
        assignment.pop();
    }
}
