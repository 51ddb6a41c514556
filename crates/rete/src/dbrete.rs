//! The paper's straightforward DBMS implementation of the Rete network
//! (§3.2): "the only place where tokens have to be stored is two-input
//! merge nodes … We will denote the two relations used to store the tokens
//! that correspond to the left and right input of a two-input merge node by
//! LEFT and RIGHT respectively."
//!
//! Concretely: each alpha memory becomes a RIGHT relation (the filtered
//! copy of a class), each two-input node's output token memory becomes a
//! LEFT relation, and every activation runs as selections/insertions
//! against a [`relstore::Database`] — so the logical I/O this design costs
//! shows up in [`Database::stats`]. Topology (including node sharing)
//! comes from the same [`NetworkPlan`] as the in-memory runtime, and both
//! runtimes produce identical conflict sets.

use std::collections::HashMap;
use std::sync::Arc;

use ops5::{ClassId, RuleId, RuleSet};
use relstore::{Database, Restriction, Schema, Selection, Tuple, Value};

use crate::compile::{BJoinTest, BetaKind, NetworkPlan};
use crate::wme::{ConflictDelta, ConflictSet, Instantiation, Wme};

type WmeId = i64;

/// Column layout of a beta node's LEFT relation: `wids` id columns, then
/// the concatenated attribute values of each token WME, then (negative
/// nodes only) a trailing match-count column.
#[derive(Debug, Clone, Default)]
struct Layout {
    classes: Vec<ClassId>,
    offsets: Vec<usize>,
    width: usize,
}

impl Layout {
    fn extended(&self, class: ClassId, arity: usize) -> Layout {
        let mut l = self.clone();
        l.offsets.push(l.width);
        l.classes.push(class);
        l.width += arity;
        l
    }

    fn wids(&self) -> usize {
        self.classes.len()
    }

    /// Column of token position `pos`, attribute `attr`.
    fn col(&self, pos: usize, attr: usize) -> usize {
        self.wids() + self.offsets[pos] + attr
    }

    /// Columns of the value block of position `pos`.
    fn value_range(&self, pos: usize, arity: usize) -> std::ops::Range<usize> {
        let start = self.wids() + self.offsets[pos];
        start..start + arity
    }
}

/// DB-backed Rete network.
pub struct DbReteNetwork {
    db: Arc<Database>,
    plan: NetworkPlan,
    rules: RuleSet,
    alpha_rel: Vec<relstore::RelId>,
    beta_rel: Vec<Option<relstore::RelId>>,
    layouts: Vec<Layout>,
    by_content: HashMap<Wme, Vec<WmeId>>,
    next_wid: WmeId,
    conflict: ConflictSet,
}

impl DbReteNetwork {
    /// Build the LEFT/RIGHT relations for a rule set inside `db`.
    ///
    /// Relation names are prefixed `__rete_` to stay clear of WM classes.
    pub fn new(db: Arc<Database>, rules: &RuleSet) -> relstore::Result<Self> {
        let plan = NetworkPlan::compile(rules);
        // RIGHT relations: one per alpha memory.
        let mut alpha_rel = Vec::with_capacity(plan.alphas.len());
        for (i, a) in plan.alphas.iter().enumerate() {
            let arity = rules.class(a.class).arity();
            let mut cols = vec!["wid".to_string()];
            cols.extend((0..arity).map(|k| format!("v{k}")));
            let rid = db.create_relation(Schema::new(format!("__rete_alpha{i}"), cols))?;
            // Index the wid column for retraction.
            db.write(rid, |r| r.create_hash_index(0))??;
            alpha_rel.push(rid);
        }
        // LEFT relations: one per two-input/production node.
        let mut layouts: Vec<Layout> = vec![Layout::default(); plan.betas.len()];
        let mut beta_rel: Vec<Option<relstore::RelId>> = vec![None; plan.betas.len()];
        // Root's layout is empty; compute layouts top-down (children come
        // after parents in the plan's vector by construction).
        for b in 0..plan.betas.len() {
            let layout = match &plan.betas[b].kind {
                BetaKind::Root => Layout::default(),
                BetaKind::Join { parent, alpha, .. } => {
                    let class = plan.alphas[*alpha].class;
                    layouts[*parent].extended(class, rules.class(class).arity())
                }
                BetaKind::Negative { parent, .. } | BetaKind::Production { parent, .. } => {
                    layouts[*parent].clone()
                }
            };
            if !matches!(plan.betas[b].kind, BetaKind::Root) {
                let mut cols: Vec<String> = (0..layout.wids()).map(|k| format!("wid{k}")).collect();
                cols.extend((0..layout.width).map(|k| format!("v{k}")));
                if matches!(plan.betas[b].kind, BetaKind::Negative { .. }) {
                    cols.push("negcount".into());
                }
                let rid = db.create_relation(Schema::new(format!("__rete_beta{b}"), cols))?;
                if layout.wids() > 0 {
                    db.write(rid, |r| r.create_hash_index(layout.wids() - 1))??;
                }
                beta_rel[b] = Some(rid);
            }
            layouts[b] = layout;
        }
        Ok(DbReteNetwork {
            db,
            plan,
            rules: rules.clone(),
            alpha_rel,
            beta_rel,
            layouts,
            by_content: HashMap::new(),
            next_wid: 0,
            conflict: ConflictSet::new(),
        })
    }

    /// Attach to a database that already contains this rule set's
    /// LEFT/RIGHT relations (e.g. restored from a snapshot). All network
    /// state lives in the database, so the conflict set, WME identity map
    /// and id counter are reconstructed from the stored rows.
    pub fn attach(db: Arc<Database>, rules: &RuleSet) -> relstore::Result<Self> {
        let plan = NetworkPlan::compile(rules);
        let mut alpha_rel = Vec::with_capacity(plan.alphas.len());
        for i in 0..plan.alphas.len() {
            alpha_rel.push(db.rel_id(&format!("__rete_alpha{i}"))?);
        }
        let mut layouts: Vec<Layout> = vec![Layout::default(); plan.betas.len()];
        let mut beta_rel: Vec<Option<relstore::RelId>> = vec![None; plan.betas.len()];
        for b in 0..plan.betas.len() {
            let layout = match &plan.betas[b].kind {
                BetaKind::Root => Layout::default(),
                BetaKind::Join { parent, alpha, .. } => {
                    let class = plan.alphas[*alpha].class;
                    layouts[*parent].extended(class, rules.class(class).arity())
                }
                BetaKind::Negative { parent, .. } | BetaKind::Production { parent, .. } => {
                    layouts[*parent].clone()
                }
            };
            if !matches!(plan.betas[b].kind, BetaKind::Root) {
                beta_rel[b] = Some(db.rel_id(&format!("__rete_beta{b}"))?);
            }
            layouts[b] = layout;
        }
        // Rebuild WME identities from the alpha (RIGHT) relations.
        let mut by_content: HashMap<Wme, Vec<WmeId>> = HashMap::new();
        let mut seen = std::collections::HashSet::new();
        let mut next_wid: WmeId = 0;
        for (i, &rid) in alpha_rel.iter().enumerate() {
            let class = plan.alphas[i].class;
            for (_, row) in db.select(rid, &Restriction::default())? {
                let Value::Int(wid) = row[0] else { continue };
                next_wid = next_wid.max(wid + 1);
                if seen.insert(wid) {
                    let wme = Wme::new(class, Tuple::new(row.values()[1..].to_vec()));
                    by_content.entry(wme).or_default().push(wid);
                }
            }
        }
        let mut net = DbReteNetwork {
            db,
            plan,
            rules: rules.clone(),
            alpha_rel,
            beta_rel,
            layouts,
            by_content,
            next_wid,
            conflict: ConflictSet::new(),
        };
        // Rebuild the conflict set from the production-node relations.
        let mut deltas = Vec::new();
        for b in 0..net.plan.betas.len() {
            if let BetaKind::Production { rule, .. } = net.plan.betas[b].kind {
                let rid = net.beta_rel[b].expect("production relation");
                for (_, row) in net.db.select(rid, &Restriction::default())? {
                    deltas.push(ConflictDelta::Add(net.instantiation(rule, b, &row)));
                }
            }
        }
        net.conflict.apply_all(&deltas);
        Ok(net)
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

    /// Tuples stored in LEFT and RIGHT relations — the paper's redundancy
    /// metric for this design.
    pub fn stored_entries(&self) -> usize {
        let alpha: usize = self
            .alpha_rel
            .iter()
            .map(|&r| self.db.relation_len(r))
            .sum();
        let beta: usize = self
            .beta_rel
            .iter()
            .flatten()
            .map(|&r| self.db.relation_len(r))
            .sum();
        alpha + beta
    }

    /// Approximate bytes in LEFT/RIGHT relations.
    pub fn approx_bytes(&self) -> usize {
        let mut total = 0;
        for &r in self.alpha_rel.iter().chain(self.beta_rel.iter().flatten()) {
            total += self
                .db
                .read(r, |rel| rel.approx_bytes().unwrap_or(0))
                .unwrap_or(0);
        }
        total
    }

    fn alpha_row(wid: WmeId, wme: &Wme) -> Tuple {
        let mut v = Vec::with_capacity(1 + wme.tuple.arity());
        v.push(Value::Int(wid));
        v.extend(wme.tuple.values().iter().cloned());
        Tuple::new(v)
    }

    /// Selections on a parent LEFT relation induced by join tests against
    /// a new right WME: `token[token_attr] op.flip() wme[my_attr]`.
    fn parent_selections(&self, parent: usize, tests: &[BJoinTest], wme: &Wme) -> Vec<Selection> {
        let layout = &self.layouts[parent];
        tests
            .iter()
            .map(|t| {
                Selection::new(
                    layout.col(t.token_pos, t.token_attr),
                    t.op.flip(),
                    wme.tuple[t.my_attr].clone(),
                )
            })
            .collect()
    }

    /// Selections on an alpha (RIGHT) relation induced by join tests
    /// against an existing token row: `alpha[1 + my_attr] op token_value`.
    fn alpha_selections(&self, node: usize, tests: &[BJoinTest], token: &Tuple) -> Vec<Selection> {
        let (BetaKind::Join { parent, .. } | BetaKind::Negative { parent, .. }) =
            self.plan.betas[node].kind
        else {
            unreachable!()
        };
        let layout = &self.layouts[parent];
        tests
            .iter()
            .map(|t| {
                Selection::new(
                    1 + t.my_attr,
                    t.op,
                    token[layout.col(t.token_pos, t.token_attr)].clone(),
                )
            })
            .collect()
    }

    /// Extend a parent token row with a right WME.
    fn extend_row(&self, node: usize, parent_row: &Tuple, wid: WmeId, wme: &Wme) -> Tuple {
        let parent_layout = {
            let BetaKind::Join { parent, .. } = self.plan.betas[node].kind else {
                unreachable!()
            };
            &self.layouts[parent]
        };
        let pw = parent_layout.wids();
        let mut v: Vec<Value> = Vec::with_capacity(self.layouts[node].width + pw + 1);
        v.extend(parent_row.values()[..pw].iter().cloned());
        v.push(Value::Int(wid));
        v.extend(
            parent_row.values()[pw..pw + parent_layout.width]
                .iter()
                .cloned(),
        );
        v.extend(wme.tuple.values().iter().cloned());
        Tuple::new(v)
    }

    /// Is this parent row currently passing (negative parents only pass
    /// rows with a zero count)? The root "relation" is virtual.
    fn parent_rows(&self, parent: usize, extra: Vec<Selection>) -> Vec<Tuple> {
        match self.plan.betas[parent].kind {
            BetaKind::Root => {
                if extra.is_empty() {
                    vec![Tuple::new(Vec::new())]
                } else {
                    Vec::new()
                }
            }
            BetaKind::Negative { .. } => {
                let rid = self.beta_rel[parent].expect("negative has relation");
                let count_col = self.layouts[parent].wids() + self.layouts[parent].width;
                let mut sels = extra;
                sels.push(Selection::eq(count_col, 0));
                self.db
                    .select(rid, &Restriction::new(sels))
                    .expect("catalog relation")
                    .into_iter()
                    // Strip the negcount column so children see a plain token row.
                    .map(|(_, t)| Tuple::new(t.values()[..count_col].to_vec()))
                    .collect()
            }
            _ => {
                let rid = self.beta_rel[parent].expect("join has relation");
                self.db
                    .select(rid, &Restriction::new(extra))
                    .expect("catalog relation")
                    .into_iter()
                    .map(|(_, t)| t)
                    .collect()
            }
        }
    }

    /// Insert a WME.
    pub fn insert(&mut self, wme: Wme) -> Vec<ConflictDelta> {
        let wid = self.next_wid;
        self.next_wid += 1;
        self.by_content.entry(wme.clone()).or_default().push(wid);
        let mut deltas = Vec::new();
        for a in 0..self.plan.alphas.len() {
            let spec = &self.plan.alphas[a];
            if spec.class != wme.class || !spec.restriction.matches(&wme.tuple) {
                continue;
            }
            self.db
                .insert(self.alpha_rel[a], Self::alpha_row(wid, &wme))
                .expect("alpha insert");
            for s in self.plan.alpha_successors[a].clone() {
                self.right_activate(s, wid, &wme, &mut deltas);
            }
        }
        self.conflict.apply_all(&deltas);
        deltas
    }

    fn right_activate(
        &mut self,
        node: usize,
        wid: WmeId,
        wme: &Wme,
        deltas: &mut Vec<ConflictDelta>,
    ) {
        match self.plan.betas[node].kind.clone() {
            BetaKind::Join { parent, tests, .. } => {
                let sels = self.parent_selections(parent, &tests, wme);
                for row in self.parent_rows(parent, sels) {
                    let out = self.extend_row(node, &row, wid, wme);
                    self.emit_row(node, out, deltas);
                }
            }
            BetaKind::Negative { parent, tests, .. } => {
                let rid = self.beta_rel[node].expect("negative relation");
                let count_col = self.layouts[parent].wids() + self.layouts[parent].width;
                // Tokens in this node's memory whose tests match the new
                // right WME get their count bumped.
                let sels = self.parent_selections(parent, &tests, wme);
                let hits = self
                    .db
                    .select(rid, &Restriction::new(sels))
                    .expect("neg select");
                for (tid, row) in hits {
                    let Value::Int(c) = row[count_col] else {
                        unreachable!("count column")
                    };
                    self.db.delete(rid, tid).expect("neg delete");
                    self.db
                        .insert(rid, row.with_value(count_col, Value::Int(c + 1)))
                        .expect("neg reinsert");
                    if c == 0 {
                        let token = Tuple::new(row.values()[..count_col].to_vec());
                        for ch in self.plan.betas[node].children.clone() {
                            self.retract_exact(ch, &token, deltas);
                        }
                    }
                }
            }
            _ => unreachable!("alpha feeds two-input nodes"),
        }
    }

    fn emit_row(&mut self, node: usize, row: Tuple, deltas: &mut Vec<ConflictDelta>) {
        let rid = self.beta_rel[node].expect("join relation");
        self.db.insert(rid, row.clone()).expect("token insert");
        for c in self.plan.betas[node].children.clone() {
            self.token_arrived(c, &row, deltas);
        }
    }

    fn token_arrived(&mut self, node: usize, token: &Tuple, deltas: &mut Vec<ConflictDelta>) {
        match self.plan.betas[node].kind.clone() {
            BetaKind::Join { alpha, tests, .. } => {
                let sels = self.alpha_selections(node, &tests, token);
                let rights = self
                    .db
                    .select(self.alpha_rel[alpha], &Restriction::new(sels))
                    .expect("alpha select");
                for (_, arow) in rights {
                    let Value::Int(wid) = arow[0] else {
                        unreachable!("wid column")
                    };
                    let class = self.plan.alphas[alpha].class;
                    let wme = Wme::new(class, Tuple::new(arow.values()[1..].to_vec()));
                    let out = self.extend_row(node, token, wid, &wme);
                    self.emit_row(node, out, deltas);
                }
            }
            BetaKind::Negative { alpha, tests, .. } => {
                let sels = self.alpha_selections(node, &tests, token);
                let count = self
                    .db
                    .select(self.alpha_rel[alpha], &Restriction::new(sels))
                    .expect("alpha select")
                    .len() as i64;
                let rid = self.beta_rel[node].expect("negative relation");
                let mut v = token.values().to_vec();
                v.push(Value::Int(count));
                self.db
                    .insert(rid, Tuple::new(v))
                    .expect("neg token insert");
                if count == 0 {
                    for c in self.plan.betas[node].children.clone() {
                        self.token_arrived(c, token, deltas);
                    }
                }
            }
            BetaKind::Production { rule, .. } => {
                let rid = self.beta_rel[node].expect("production relation");
                self.db
                    .insert(rid, token.clone())
                    .expect("instantiation insert");
                deltas.push(ConflictDelta::Add(self.instantiation(rule, node, token)));
            }
            BetaKind::Root => unreachable!(),
        }
    }

    /// Remove one WME equal to `wme`.
    pub fn remove(&mut self, wme: &Wme) -> Vec<ConflictDelta> {
        let Some(ids) = self.by_content.get_mut(wme) else {
            return Vec::new();
        };
        let wid = ids.pop().expect("non-empty");
        if ids.is_empty() {
            self.by_content.remove(wme);
        }
        let mut deltas = Vec::new();
        for a in 0..self.plan.alphas.len() {
            let spec = &self.plan.alphas[a];
            if spec.class != wme.class || !spec.restriction.matches(&wme.tuple) {
                continue;
            }
            // Delete from the RIGHT relation.
            let rid = self.alpha_rel[a];
            let rows = self
                .db
                .select(rid, &Restriction::new(vec![Selection::eq(0, wid)]))
                .expect("alpha select");
            for (tid, _) in rows {
                self.db.delete(rid, tid).expect("alpha delete");
            }
            for s in self.plan.alpha_successors[a].clone() {
                if matches!(self.plan.betas[s].kind, BetaKind::Join { .. }) {
                    self.retract_with_last(s, wid, &mut deltas);
                }
            }
        }
        for a in 0..self.plan.alphas.len() {
            let spec = &self.plan.alphas[a];
            if spec.class != wme.class || !spec.restriction.matches(&wme.tuple) {
                continue;
            }
            for s in self.plan.alpha_successors[a].clone() {
                if matches!(self.plan.betas[s].kind, BetaKind::Negative { .. }) {
                    self.negative_right_removal(s, wid, wme, &mut deltas);
                }
            }
        }
        self.conflict.apply_all(&deltas);
        deltas
    }

    fn retract_with_last(&mut self, node: usize, wid: WmeId, deltas: &mut Vec<ConflictDelta>) {
        let rid = self.beta_rel[node].expect("join relation");
        let last = self.layouts[node].wids() - 1;
        let rows = self
            .db
            .select(rid, &Restriction::new(vec![Selection::eq(last, wid)]))
            .expect("token select");
        for (tid, row) in rows {
            self.db.delete(rid, tid).expect("token delete");
            for c in self.plan.betas[node].children.clone() {
                self.retract_exact(c, &row, deltas);
            }
        }
    }

    /// Retract all rows of `node` whose token prefix equals `token`.
    fn retract_exact(&mut self, node: usize, token: &Tuple, deltas: &mut Vec<ConflictDelta>) {
        // Prefix match on wid columns identifies descendants uniquely.
        let parent_wids = match self.plan.betas[node].kind {
            BetaKind::Join { parent, .. }
            | BetaKind::Negative { parent, .. }
            | BetaKind::Production { parent, .. } => self.layouts[parent].wids(),
            BetaKind::Root => return,
        };
        let sels: Vec<Selection> = (0..parent_wids)
            .map(|k| Selection::eq(k, token[k].clone()))
            .collect();
        match self.plan.betas[node].kind.clone() {
            BetaKind::Join { .. } => {
                let rid = self.beta_rel[node].expect("join relation");
                let rows = self
                    .db
                    .select(rid, &Restriction::new(sels))
                    .expect("select");
                for (tid, row) in rows {
                    self.db.delete(rid, tid).expect("delete");
                    for c in self.plan.betas[node].children.clone() {
                        self.retract_exact(c, &row, deltas);
                    }
                }
            }
            BetaKind::Negative { parent, .. } => {
                let rid = self.beta_rel[node].expect("neg relation");
                let count_col = self.layouts[parent].wids() + self.layouts[parent].width;
                let rows = self
                    .db
                    .select(rid, &Restriction::new(sels))
                    .expect("select");
                for (tid, row) in rows {
                    self.db.delete(rid, tid).expect("delete");
                    let Value::Int(c) = row[count_col] else {
                        unreachable!()
                    };
                    if c == 0 {
                        let t = Tuple::new(row.values()[..count_col].to_vec());
                        for ch in self.plan.betas[node].children.clone() {
                            self.retract_exact(ch, &t, deltas);
                        }
                    }
                }
            }
            BetaKind::Production { rule, .. } => {
                let rid = self.beta_rel[node].expect("production relation");
                let rows = self
                    .db
                    .select(rid, &Restriction::new(sels))
                    .expect("select");
                for (tid, row) in rows {
                    self.db.delete(rid, tid).expect("delete");
                    deltas.push(ConflictDelta::Remove(self.instantiation(rule, node, &row)));
                }
            }
            BetaKind::Root => {}
        }
    }

    fn negative_right_removal(
        &mut self,
        node: usize,
        _wid: WmeId,
        wme: &Wme,
        deltas: &mut Vec<ConflictDelta>,
    ) {
        let BetaKind::Negative { parent, tests, .. } = self.plan.betas[node].kind.clone() else {
            unreachable!()
        };
        let rid = self.beta_rel[node].expect("neg relation");
        let count_col = self.layouts[parent].wids() + self.layouts[parent].width;
        let sels = self.parent_selections(parent, &tests, wme);
        let hits = self
            .db
            .select(rid, &Restriction::new(sels))
            .expect("neg select");
        for (tid, row) in hits {
            let Value::Int(c) = row[count_col] else {
                unreachable!()
            };
            debug_assert!(c > 0, "count underflow");
            self.db.delete(rid, tid).expect("neg delete");
            self.db
                .insert(rid, row.with_value(count_col, Value::Int(c - 1)))
                .expect("neg reinsert");
            if c == 1 {
                let token = Tuple::new(row.values()[..count_col].to_vec());
                for ch in self.plan.betas[node].children.clone() {
                    self.token_arrived(ch, &token, deltas);
                }
            }
        }
    }

    fn instantiation(&self, rule: RuleId, node: usize, row: &Tuple) -> Instantiation {
        let layout = &self.layouts[node];
        let wmes = (0..layout.wids())
            .map(|pos| {
                let class = layout.classes[pos];
                let arity = self.rules.class(class).arity();
                let range = layout.value_range(pos, arity);
                Wme::new(class, Tuple::new(row.values()[range].to_vec()))
            })
            .collect();
        Instantiation::new(rule, wmes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ReteNetwork;
    use relstore::tuple;

    fn example3_rules() -> RuleSet {
        ops5::compile(
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
        .unwrap()
    }

    #[test]
    fn matches_in_memory_rete_on_example_3() {
        let rules = example3_rules();
        let db = Arc::new(Database::new());
        let mut dbnet = DbReteNetwork::new(db.clone(), &rules).unwrap();
        let mut memnet = ReteNetwork::new(&rules);
        let ops: Vec<(bool, Wme)> = vec![
            (
                true,
                Wme::new(ops5::ClassId(0), tuple!["Sam", 5000, "Root", 1]),
            ),
            (
                true,
                Wme::new(ops5::ClassId(0), tuple!["Mike", 6000, "Sam", 1]),
            ),
            (true, Wme::new(ops5::ClassId(1), tuple![1, "Toy", 1, "Sam"])),
            (
                true,
                Wme::new(ops5::ClassId(0), tuple!["Ann", 1000, "Sam", 1]),
            ),
            (
                false,
                Wme::new(ops5::ClassId(0), tuple!["Mike", 6000, "Sam", 1]),
            ),
            (
                false,
                Wme::new(ops5::ClassId(1), tuple![1, "Toy", 1, "Sam"]),
            ),
        ];
        for (is_insert, w) in ops {
            let (a, b) = if is_insert {
                (dbnet.insert(w.clone()), memnet.insert(w))
            } else {
                (dbnet.remove(&w), memnet.remove(&w))
            };
            let mut a: Vec<_> = a.iter().map(|d| format!("{d:?}")).collect();
            let mut b: Vec<_> = b.iter().map(|d| format!("{d:?}")).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b);
            assert_eq!(
                dbnet.conflict_set().sorted(),
                memnet.conflict_set().sorted()
            );
        }
    }

    #[test]
    fn left_right_relations_accumulate_tokens() {
        // "RIGHT1 will contain all tuples inserted in the Emp relation, as
        // all of them are potential matches" (§3.2).
        let rules = example3_rules();
        let db = Arc::new(Database::new());
        let mut net = DbReteNetwork::new(db.clone(), &rules).unwrap();
        let before = net.stored_entries();
        net.insert(Wme::new(ops5::ClassId(0), tuple!["Ann", 1000, "Sam", 7]));
        assert!(
            net.stored_entries() > before,
            "alpha memories persist the tuple"
        );
        assert!(net.approx_bytes() > 0);
    }

    #[test]
    fn logical_io_is_accounted() {
        let rules = example3_rules();
        let db = Arc::new(Database::new());
        let mut net = DbReteNetwork::new(db.clone(), &rules).unwrap();
        let before = db.stats().snapshot();
        net.insert(Wme::new(ops5::ClassId(0), tuple!["Sam", 5000, "Root", 1]));
        net.insert(Wme::new(ops5::ClassId(0), tuple!["Mike", 6000, "Sam", 1]));
        let cost = db.stats().snapshot().since(&before);
        assert!(cost.tuples_inserted > 0);
        assert!(cost.logical_io() > 0);
    }

    #[test]
    fn negation_parity_with_memory_rete() {
        let rules = ops5::compile(
            r#"
            (literalize Emp dno)
            (literalize Dept dno)
            (p NoDept (Emp ^dno <D>) -(Dept ^dno <D>) --> (remove 1))
            "#,
        )
        .unwrap();
        let db = Arc::new(Database::new());
        let mut dbnet = DbReteNetwork::new(db.clone(), &rules).unwrap();
        let mut memnet = ReteNetwork::new(&rules);
        let ops: Vec<(bool, Wme)> = vec![
            (true, Wme::new(ops5::ClassId(0), tuple![7])),
            (true, Wme::new(ops5::ClassId(1), tuple![7])),
            (true, Wme::new(ops5::ClassId(1), tuple![7])),
            (false, Wme::new(ops5::ClassId(1), tuple![7])),
            (false, Wme::new(ops5::ClassId(1), tuple![7])),
            (true, Wme::new(ops5::ClassId(0), tuple![8])),
            (false, Wme::new(ops5::ClassId(0), tuple![7])),
        ];
        for (is_insert, w) in ops {
            if is_insert {
                dbnet.insert(w.clone());
                memnet.insert(w);
            } else {
                dbnet.remove(&w);
                memnet.remove(&w);
            }
            assert_eq!(
                dbnet.conflict_set().sorted(),
                memnet.conflict_set().sorted()
            );
        }
    }
}
