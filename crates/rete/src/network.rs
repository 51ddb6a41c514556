//! The classic in-memory Rete runtime (§3.1).
//!
//! Tokens flow from the root through one-input (alpha) tests into
//! two-input nodes whose memories hold partial joins; tokens reaching a
//! production node enter the conflict set. Insertions are `+` tokens,
//! deletions `-` tokens; modifications are a deletion followed by an
//! insertion (§3.1). Negated condition elements are negative nodes with
//! per-token match counts.

use std::collections::HashMap;

use ops5::{RuleId, RuleSet};

use crate::compile::{BJoinTest, BetaKind, NetworkPlan};
use crate::wme::{ConflictDelta, ConflictSet, Instantiation, Wme};

type WmeId = u32;

/// A token suspended at (or output by) a beta node.
#[derive(Debug, Clone)]
struct TokenEntry {
    wmes: Vec<WmeId>,
    /// For negative nodes: number of alpha WMEs currently matching.
    negcount: u32,
}

/// Per-operation cost metrics (reset on every insert/remove).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpMetrics {
    /// Beta-node activations (left or right).
    pub activations: u64,
    /// Join tests evaluated.
    pub join_tests: u64,
    /// Alpha restrictions evaluated.
    pub alpha_tests: u64,
    /// New tokens created.
    pub tokens_created: u64,
    /// Deepest beta node touched — the sequential propagation delay the
    /// paper's Figure 1 argument concerns.
    pub max_depth: usize,
}

impl OpMetrics {
    /// Fold another operation's metrics into this one.
    pub fn accumulate(&mut self, other: &OpMetrics) {
        self.activations += other.activations;
        self.join_tests += other.join_tests;
        self.alpha_tests += other.alpha_tests;
        self.tokens_created += other.tokens_created;
        self.max_depth = self.max_depth.max(other.max_depth);
    }
}

/// The in-memory Rete network.
pub struct ReteNetwork {
    plan: NetworkPlan,
    wmes: Vec<Option<Wme>>,
    free: Vec<WmeId>,
    by_content: HashMap<Wme, Vec<WmeId>>,
    alpha_mem: Vec<Vec<WmeId>>,
    /// Position of each WME inside its alpha memory, so a removal is a
    /// swap_remove instead of an O(|alpha|) retain scan.
    alpha_pos: Vec<HashMap<WmeId, usize>>,
    beta_mem: Vec<Vec<TokenEntry>>,
    /// Join nodes only: token indexes keyed by the token's last WME —
    /// the entry point of WME-driven retraction. Without it, every
    /// retraction partitions the node's whole memory, and a workload
    /// that fires deletes against a large WM pays O(WM) per firing.
    by_last: Vec<HashMap<WmeId, Vec<usize>>>,
    conflict: ConflictSet,
    metrics: OpMetrics,
}

impl ReteNetwork {
    /// Compile and instantiate a network for a rule set.
    pub fn new(rules: &RuleSet) -> Self {
        let plan = NetworkPlan::compile(rules);
        Self::from_plan(plan)
    }

    /// Instantiate a runtime over an already-compiled plan.
    pub fn from_plan(plan: NetworkPlan) -> Self {
        let alpha_mem = vec![Vec::new(); plan.alphas.len()];
        let mut beta_mem = vec![Vec::new(); plan.betas.len()];
        // The root holds the single empty token.
        beta_mem[plan.root()] = vec![TokenEntry {
            wmes: Vec::new(),
            negcount: 0,
        }];
        let alpha_pos = vec![HashMap::new(); plan.alphas.len()];
        let by_last = vec![HashMap::new(); plan.betas.len()];
        ReteNetwork {
            plan,
            wmes: Vec::new(),
            free: Vec::new(),
            by_content: HashMap::new(),
            alpha_mem,
            alpha_pos,
            beta_mem,
            by_last,
            conflict: ConflictSet::new(),
            metrics: OpMetrics::default(),
        }
    }

    /// The compiled network topology.
    pub fn plan(&self) -> &NetworkPlan {
        &self.plan
    }

    /// The maintained conflict set.
    pub fn conflict_set(&self) -> &ConflictSet {
        &self.conflict
    }

    /// Mutable conflict set, for the executor's refraction marks.
    pub fn conflict_set_mut(&mut self) -> &mut ConflictSet {
        &mut self.conflict
    }

    /// Metrics of the most recent insert/remove.
    pub fn last_metrics(&self) -> OpMetrics {
        self.metrics
    }

    /// Number of live WMEs.
    pub fn wme_count(&self) -> usize {
        self.wmes.iter().flatten().count()
    }

    /// Stored tokens across all beta memories plus alpha memory postings —
    /// the Rete space metric for E2 ("an inherently redundant storage
    /// structure", §2.2).
    pub fn stored_entries(&self) -> usize {
        let alpha: usize = self.alpha_mem.iter().map(Vec::len).sum();
        let beta: usize = self.beta_mem.iter().map(Vec::len).sum();
        alpha + beta
    }

    /// Approximate bytes held in memories (tokens and postings).
    pub fn approx_bytes(&self) -> usize {
        let alpha = self.alpha_mem.iter().map(Vec::len).sum::<usize>() * 4;
        let beta: usize = self
            .beta_mem
            .iter()
            .flatten()
            .map(|t| 16 + t.wmes.len() * 4)
            .sum();
        let wmes: usize = self
            .wmes
            .iter()
            .flatten()
            .map(|w| w.tuple.approx_bytes() + 8)
            .sum();
        alpha + beta + wmes
    }

    fn wme(&self, id: WmeId) -> &Wme {
        self.wmes[id as usize].as_ref().expect("live wme")
    }

    fn tests_ok(&mut self, tests: &[BJoinTest], token: &[WmeId], right: WmeId) -> bool {
        self.metrics.join_tests += tests.len() as u64;
        let rw = self.wmes[right as usize].as_ref().expect("live wme");
        for t in tests {
            let lw = self.wmes[token[t.token_pos] as usize]
                .as_ref()
                .expect("live wme");
            let (Some(rv), Some(lv)) = (rw.tuple.get(t.my_attr), lw.tuple.get(t.token_attr)) else {
                return false;
            };
            if !t.op.eval(rv, lv) {
                return false;
            }
        }
        true
    }

    fn touch(&mut self, beta: usize) {
        self.metrics.activations += 1;
        self.metrics.max_depth = self.metrics.max_depth.max(self.plan.betas[beta].depth);
    }

    /// Insert a WME, returning conflict-set deltas.
    pub fn insert(&mut self, wme: Wme) -> Vec<ConflictDelta> {
        self.metrics = OpMetrics::default();
        let id = match self.free.pop() {
            Some(id) => {
                self.wmes[id as usize] = Some(wme.clone());
                id
            }
            None => {
                self.wmes.push(Some(wme.clone()));
                (self.wmes.len() - 1) as WmeId
            }
        };
        self.by_content.entry(wme.clone()).or_default().push(id);

        let mut deltas = Vec::new();
        for a in 0..self.plan.alphas.len() {
            let spec = &self.plan.alphas[a];
            self.metrics.alpha_tests += 1;
            if spec.class != wme.class || !spec.restriction.matches(&wme.tuple) {
                continue;
            }
            self.alpha_mem[a].push(id);
            self.alpha_pos[a].insert(id, self.alpha_mem[a].len() - 1);
            for s in self.plan.alpha_successors[a].clone() {
                self.right_activate(s, id, &mut deltas);
            }
        }
        self.conflict.apply_all(&deltas);
        deltas
    }

    /// Remove one WME equal to `wme` (multiset semantics). Returns the
    /// conflict-set deltas, empty when no such WME exists.
    pub fn remove(&mut self, wme: &Wme) -> Vec<ConflictDelta> {
        self.metrics = OpMetrics::default();
        let Some(ids) = self.by_content.get_mut(wme) else {
            return Vec::new();
        };
        let id = ids.pop().expect("content map entries are non-empty");
        if ids.is_empty() {
            self.by_content.remove(wme);
        }

        let mut deltas = Vec::new();
        // Pass 1: retract tokens that contain this WME (it was appended at
        // the join nodes fed by its alpha memories).
        for a in 0..self.plan.alphas.len() {
            let spec = &self.plan.alphas[a];
            if spec.class != wme.class || !spec.restriction.matches(&wme.tuple) {
                continue;
            }
            if let Some(pos) = self.alpha_pos[a].remove(&id) {
                self.alpha_mem[a].swap_remove(pos);
                if pos < self.alpha_mem[a].len() {
                    let moved = self.alpha_mem[a][pos];
                    self.alpha_pos[a].insert(moved, pos);
                }
            }
            for s in self.plan.alpha_successors[a].clone() {
                if matches!(self.plan.betas[s].kind, BetaKind::Join { .. }) {
                    self.retract_with_last(s, id, &mut deltas);
                }
            }
        }
        // Pass 2: negative nodes lose a matching right WME; suspended
        // tokens may come back to life.
        for a in 0..self.plan.alphas.len() {
            let spec = &self.plan.alphas[a];
            if spec.class != wme.class || !spec.restriction.matches(&wme.tuple) {
                continue;
            }
            for s in self.plan.alpha_successors[a].clone() {
                if matches!(self.plan.betas[s].kind, BetaKind::Negative { .. }) {
                    self.negative_right_removal(s, id, &mut deltas);
                }
            }
        }
        self.wmes[id as usize] = None;
        self.free.push(id);
        self.conflict.apply_all(&deltas);
        deltas
    }

    /// A new WME arrived in the alpha memory feeding `beta`.
    fn right_activate(&mut self, beta: usize, wid: WmeId, deltas: &mut Vec<ConflictDelta>) {
        self.touch(beta);
        match self.plan.betas[beta].kind.clone() {
            BetaKind::Join { parent, tests, .. } => {
                let parent_tokens = self.passing_tokens(parent);
                for t in parent_tokens {
                    if self.tests_ok(&tests, &t, wid) {
                        let mut out = t.clone();
                        out.push(wid);
                        self.emit_token(beta, out, deltas);
                    }
                }
            }
            BetaKind::Negative { tests, .. } => {
                // Right activation of a negative node: suspend newly
                // contradicted tokens.
                let mut newly_suspended = Vec::new();
                let entries = std::mem::take(&mut self.beta_mem[beta]);
                let mut kept = Vec::with_capacity(entries.len());
                for mut e in entries {
                    if self.tests_ok(&tests, &e.wmes, wid) {
                        e.negcount += 1;
                        if e.negcount == 1 {
                            newly_suspended.push(e.wmes.clone());
                        }
                    }
                    kept.push(e);
                }
                self.beta_mem[beta] = kept;
                for t in newly_suspended {
                    for c in self.plan.betas[beta].children.clone() {
                        self.retract_exact(c, &t, deltas);
                    }
                }
            }
            BetaKind::Root | BetaKind::Production { .. } => {
                unreachable!("alpha memories feed only two-input nodes")
            }
        }
    }

    /// Tokens a node passes to its children (negative nodes filter by
    /// count).
    fn passing_tokens(&self, beta: usize) -> Vec<Vec<WmeId>> {
        let filter_neg = matches!(self.plan.betas[beta].kind, BetaKind::Negative { .. });
        self.beta_mem[beta]
            .iter()
            .filter(|e| !filter_neg || e.negcount == 0)
            .map(|e| e.wmes.clone())
            .collect()
    }

    /// A token arrives at `beta` from its parent.
    fn token_arrived(&mut self, beta: usize, token: Vec<WmeId>, deltas: &mut Vec<ConflictDelta>) {
        self.touch(beta);
        match self.plan.betas[beta].kind.clone() {
            BetaKind::Join { alpha, tests, .. } => {
                for wid in self.alpha_mem[alpha].clone() {
                    if self.tests_ok(&tests, &token, wid) {
                        let mut out = token.clone();
                        out.push(wid);
                        self.emit_token(beta, out, deltas);
                    }
                }
                // Join memories are implicit: children read this node's
                // emitted tokens, stored by emit_token.
            }
            BetaKind::Negative { alpha, tests, .. } => {
                let count = self.alpha_mem[alpha]
                    .clone()
                    .into_iter()
                    .filter(|&wid| self.tests_ok(&tests, &token, wid))
                    .count() as u32;
                self.beta_mem[beta].push(TokenEntry {
                    wmes: token.clone(),
                    negcount: count,
                });
                self.metrics.tokens_created += 1;
                if count == 0 {
                    for c in self.plan.betas[beta].children.clone() {
                        self.token_arrived(c, token.clone(), deltas);
                    }
                }
            }
            BetaKind::Production { rule, .. } => {
                self.beta_mem[beta].push(TokenEntry {
                    wmes: token.clone(),
                    negcount: 0,
                });
                deltas.push(ConflictDelta::Add(self.instantiation(rule, &token)));
            }
            BetaKind::Root => unreachable!("root receives no tokens"),
        }
    }

    /// Store a token produced by join node `beta` and propagate it.
    fn emit_token(&mut self, beta: usize, token: Vec<WmeId>, deltas: &mut Vec<ConflictDelta>) {
        self.metrics.tokens_created += 1;
        let last = *token.last().expect("join tokens are non-empty");
        let idx = self.beta_mem[beta].len();
        self.beta_mem[beta].push(TokenEntry {
            wmes: token.clone(),
            negcount: 0,
        });
        self.by_last[beta].entry(last).or_default().push(idx);
        for c in self.plan.betas[beta].children.clone() {
            self.token_arrived(c, token.clone(), deltas);
        }
    }

    /// Remove one token of join node `beta` by index, keeping the
    /// last-WME index consistent across the swap_remove.
    fn remove_token_at(&mut self, beta: usize, idx: usize) -> TokenEntry {
        let entry = self.beta_mem[beta].swap_remove(idx);
        let last = *entry.wmes.last().expect("join tokens are non-empty");
        if let Some(slots) = self.by_last[beta].get_mut(&last) {
            if let Some(p) = slots.iter().position(|&x| x == idx) {
                slots.swap_remove(p);
            }
            if slots.is_empty() {
                self.by_last[beta].remove(&last);
            }
        }
        // The former tail now lives at `idx`: repoint its index entry.
        let old_tail = self.beta_mem[beta].len();
        if idx < old_tail {
            let moved_last = *self.beta_mem[beta][idx]
                .wmes
                .last()
                .expect("join tokens are non-empty");
            if let Some(slots) = self.by_last[beta].get_mut(&moved_last) {
                if let Some(p) = slots.iter().position(|&x| x == old_tail) {
                    slots[p] = idx;
                }
            }
        }
        entry
    }

    /// Remove the tokens of join node `beta` at `idxs`, highest first so
    /// each swap_remove only disturbs indexes we either already handled
    /// or retarget on the spot.
    fn take_tokens_at(&mut self, beta: usize, mut idxs: Vec<usize>) -> Vec<TokenEntry> {
        idxs.sort_unstable_by(|a, b| b.cmp(a));
        let mut out = Vec::with_capacity(idxs.len());
        let mut i = 0;
        while i < idxs.len() {
            let t = idxs[i];
            let tail = self.beta_mem[beta].len() - 1;
            if t != tail {
                // The tail element moves into `t`; if it is itself a
                // pending removal target, chase it to its new position.
                if let Some(p) = idxs[i + 1..].iter().position(|&x| x == tail) {
                    idxs[i + 1 + p] = t;
                }
            }
            out.push(self.remove_token_at(beta, t));
            i += 1;
        }
        out
    }

    /// Remove tokens of join node `beta` whose last element is `wid`.
    fn retract_with_last(&mut self, beta: usize, wid: WmeId, deltas: &mut Vec<ConflictDelta>) {
        self.touch(beta);
        let Some(idxs) = self.by_last[beta].get(&wid).cloned() else {
            return;
        };
        let gone = self.take_tokens_at(beta, idxs);
        for e in gone {
            for c in self.plan.betas[beta].children.clone() {
                self.retract_exact(c, &e.wmes, deltas);
            }
        }
    }

    /// Retract descendants of a token: at `beta`, remove entries whose
    /// prefix equals `token` (join nodes extend by one; negative and
    /// production nodes store it unchanged).
    fn retract_exact(&mut self, beta: usize, token: &[WmeId], deltas: &mut Vec<ConflictDelta>) {
        self.touch(beta);
        match self.plan.betas[beta].kind.clone() {
            BetaKind::Join { .. } => {
                let idxs: Vec<usize> = self.beta_mem[beta]
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.wmes.len() == token.len() + 1 && e.wmes.starts_with(token))
                    .map(|(i, _)| i)
                    .collect();
                let gone = self.take_tokens_at(beta, idxs);
                for e in gone {
                    for c in self.plan.betas[beta].children.clone() {
                        self.retract_exact(c, &e.wmes, deltas);
                    }
                }
            }
            BetaKind::Negative { .. } => {
                let mem = std::mem::take(&mut self.beta_mem[beta]);
                let (gone, kept): (Vec<_>, Vec<_>) = mem.into_iter().partition(|e| e.wmes == token);
                self.beta_mem[beta] = kept;
                for e in gone {
                    if e.negcount == 0 {
                        for c in self.plan.betas[beta].children.clone() {
                            self.retract_exact(c, &e.wmes, deltas);
                        }
                    }
                }
            }
            BetaKind::Production { rule, .. } => {
                let before = self.beta_mem[beta].len();
                self.beta_mem[beta].retain(|e| e.wmes != token);
                if self.beta_mem[beta].len() != before {
                    deltas.push(ConflictDelta::Remove(self.instantiation(rule, token)));
                }
            }
            BetaKind::Root => {}
        }
    }

    /// A right WME vanished from a negative node's alpha memory.
    fn negative_right_removal(&mut self, beta: usize, wid: WmeId, deltas: &mut Vec<ConflictDelta>) {
        self.touch(beta);
        let BetaKind::Negative { tests, .. } = self.plan.betas[beta].kind.clone() else {
            unreachable!()
        };
        let mut revived = Vec::new();
        let entries = std::mem::take(&mut self.beta_mem[beta]);
        let mut kept = Vec::with_capacity(entries.len());
        for mut e in entries {
            if self.tests_ok(&tests, &e.wmes, wid) {
                debug_assert!(e.negcount > 0, "count underflow");
                e.negcount -= 1;
                if e.negcount == 0 {
                    revived.push(e.wmes.clone());
                }
            }
            kept.push(e);
        }
        self.beta_mem[beta] = kept;
        for t in revived {
            for c in self.plan.betas[beta].children.clone() {
                self.token_arrived(c, t.clone(), deltas);
            }
        }
    }

    fn instantiation(&self, rule: RuleId, token: &[WmeId]) -> Instantiation {
        // WMEs are interned by content here; storage-level provenance
        // (tuple ids) is only available to the recompute-based engines.
        Instantiation::new(rule, token.iter().map(|&id| self.wme(id).clone()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::ClassId;
    use relstore::tuple;

    fn example3() -> (RuleSet, ReteNetwork) {
        let rs = ops5::compile(
            r#"
            (literalize Emp name salary manager dno)
            (literalize Dept dno dname floor manager)
            (p R1
                (Emp ^name Mike ^salary <S> ^manager <M>)
                (Emp ^name <M> ^salary {<S1> < <S>})
                -->
                (remove 1))
            (p R2
                (Emp ^dno <D>)
                (Dept ^dno <D> ^dname Toy ^floor 1)
                -->
                (remove 1))
            "#,
        )
        .unwrap();
        let net = ReteNetwork::new(&rs);
        (rs, net)
    }

    #[test]
    fn r1_fires_when_mike_outearns_manager() {
        let (_, mut net) = example3();
        let emp = ClassId(0);
        assert!(net
            .insert(Wme::new(emp, tuple!["Sam", 5000, "Root", 1]))
            .is_empty());
        let deltas = net.insert(Wme::new(emp, tuple!["Mike", 6000, "Sam", 1]));
        assert_eq!(deltas.len(), 1);
        assert!(deltas[0].is_add());
        assert_eq!(deltas[0].instantiation().rule, RuleId(0));
        assert_eq!(net.conflict_set().len(), 1);
    }

    #[test]
    fn r1_does_not_fire_when_manager_earns_more() {
        let (_, mut net) = example3();
        let emp = ClassId(0);
        net.insert(Wme::new(emp, tuple!["Sam", 9000, "Root", 1]));
        let deltas = net.insert(Wme::new(emp, tuple!["Mike", 6000, "Sam", 1]));
        assert!(deltas.is_empty());
    }

    #[test]
    fn out_of_order_arrival_matches_eventually() {
        // Tuples "queue up at the network waiting for a future arrival of
        // a matching tuple" (§3.1).
        let (_, mut net) = example3();
        let emp = ClassId(0);
        let dept = ClassId(1);
        assert!(net
            .insert(Wme::new(emp, tuple!["Ann", 1000, "Sam", 7]))
            .is_empty());
        let deltas = net.insert(Wme::new(dept, tuple![7, "Toy", 1, "Sam"]));
        assert_eq!(deltas.len(), 1, "R2 fires once the Dept tuple arrives");
        assert_eq!(deltas[0].instantiation().rule, RuleId(1));
    }

    #[test]
    fn removal_retracts_instantiations() {
        let (_, mut net) = example3();
        let emp = ClassId(0);
        let dept = ClassId(1);
        net.insert(Wme::new(emp, tuple!["Ann", 1000, "Sam", 7]));
        net.insert(Wme::new(dept, tuple![7, "Toy", 1, "Sam"]));
        assert_eq!(net.conflict_set().len(), 1);
        let deltas = net.remove(&Wme::new(dept, tuple![7, "Toy", 1, "Sam"]));
        assert_eq!(deltas.len(), 1);
        assert!(!deltas[0].is_add());
        assert!(net.conflict_set().is_empty());
        assert_eq!(net.wme_count(), 1);
    }

    #[test]
    fn remove_unknown_wme_is_noop() {
        let (_, mut net) = example3();
        assert!(net
            .remove(&Wme::new(ClassId(0), tuple!["Ghost", 0, "X", 0]))
            .is_empty());
    }

    #[test]
    fn duplicate_wmes_are_multiset() {
        let (_, mut net) = example3();
        let emp = ClassId(0);
        let dept = ClassId(1);
        net.insert(Wme::new(dept, tuple![7, "Toy", 1, "Sam"]));
        net.insert(Wme::new(emp, tuple!["Ann", 1000, "Sam", 7]));
        net.insert(Wme::new(emp, tuple!["Ann", 1000, "Sam", 7]));
        assert_eq!(
            net.conflict_set().len(),
            2,
            "two identical emps, two instantiations"
        );
        net.remove(&Wme::new(emp, tuple!["Ann", 1000, "Sam", 7]));
        assert_eq!(net.conflict_set().len(), 1);
    }

    #[test]
    fn negation_suspends_and_revives() {
        let rs = ops5::compile(
            r#"
            (literalize Emp name dno)
            (literalize Dept dno)
            (p Orphan (Emp ^name <N> ^dno <D>) -(Dept ^dno <D>) --> (remove 1))
            "#,
        )
        .unwrap();
        let mut net = ReteNetwork::new(&rs);
        let emp = ClassId(0);
        let dept = ClassId(1);
        // Emp with no dept → fires.
        let d1 = net.insert(Wme::new(emp, tuple!["Ann", 7]));
        assert_eq!(d1.len(), 1);
        assert!(d1[0].is_add());
        // Matching dept arrives → retracts.
        let d2 = net.insert(Wme::new(dept, tuple![7]));
        assert_eq!(d2.len(), 1);
        assert!(!d2[0].is_add());
        assert!(net.conflict_set().is_empty());
        // Dept removed again → revives.
        let d3 = net.remove(&Wme::new(dept, tuple![7]));
        assert_eq!(d3.len(), 1);
        assert!(d3[0].is_add());
        assert_eq!(net.conflict_set().len(), 1);
        // Unrelated dept does nothing.
        assert!(net.insert(Wme::new(dept, tuple![8])).is_empty());
    }

    #[test]
    fn negation_counts_multiple_blockers() {
        let rs = ops5::compile(
            r#"
            (literalize Emp dno)
            (literalize Dept dno)
            (p NoDept (Emp ^dno <D>) -(Dept ^dno <D>) --> (remove 1))
            "#,
        )
        .unwrap();
        let mut net = ReteNetwork::new(&rs);
        net.insert(Wme::new(ClassId(0), tuple![7]));
        net.insert(Wme::new(ClassId(1), tuple![7]));
        net.insert(Wme::new(ClassId(1), tuple![7]));
        assert!(net.conflict_set().is_empty());
        net.remove(&Wme::new(ClassId(1), tuple![7]));
        assert!(net.conflict_set().is_empty(), "one blocker remains");
        net.remove(&Wme::new(ClassId(1), tuple![7]));
        assert_eq!(net.conflict_set().len(), 1, "all blockers gone");
    }

    #[test]
    fn metrics_track_depth() {
        let (_, mut net) = example3();
        let emp = ClassId(0);
        net.insert(Wme::new(emp, tuple!["Sam", 5000, "Root", 1]));
        net.insert(Wme::new(emp, tuple!["Mike", 6000, "Sam", 1]));
        let m = net.last_metrics();
        assert!(m.max_depth >= 3, "token reached a production node");
        assert!(m.activations > 0);
        assert!(m.alpha_tests > 0);
        assert!(net.stored_entries() > 0);
        assert!(net.approx_bytes() > 0);
    }

    #[test]
    fn insert_remove_inverse_restores_state() {
        let (_, mut net) = example3();
        let emp = ClassId(0);
        let dept = ClassId(1);
        net.insert(Wme::new(dept, tuple![7, "Toy", 1, "Sam"]));
        let baseline_entries = net.stored_entries();
        let baseline_cs = net.conflict_set().sorted();
        let w = Wme::new(emp, tuple!["Ann", 1000, "Sam", 7]);
        net.insert(w.clone());
        net.remove(&w);
        assert_eq!(net.stored_entries(), baseline_entries);
        assert_eq!(net.conflict_set().sorted(), baseline_cs);
    }
}
