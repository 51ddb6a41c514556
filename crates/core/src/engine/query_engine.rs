//! The "simplified algorithm" of §4.1: one COND relation per WM class, no
//! intermediate join results.
//!
//! "Instead of storing a large number of intermediate relations, we will
//! only need to store one relation per class of working memory elements"
//! and consequently "the speed may be slower in some cases since
//! re-computation of joins is necessary whenever a change is made to the
//! working memory" (§4.1.2). Variable-free condition checking goes through
//! a [`predindex`] condition index ("one can use intelligent indexing
//! techniques such as R-trees or R+-trees … to check if a given tuple
//! satisfies conditions stored in the COND relations").

use std::collections::BTreeSet;
use std::time::Instant;

use ops5::{ClassId, RuleId};
use predindex::{make_index, ConditionIndex, IndexKind, Rect};
use relstore::{Tuple, TupleId};
use rete::{ConflictDelta, ConflictSet};

use crate::engine::recompute::{eval_rule_via, InstStore};
use crate::engine::{MatchEngine, SpaceStats, WmDelta};
use crate::pdb::ProductionDb;

/// Payload of a COND index entry: (rule, condition element number).
type CondRef = (usize, usize);

/// §4.1 matching engine.
pub struct QueryEngine {
    pdb: ProductionDb,
    /// COND relation per class: the conditions referring to that class.
    cond: Vec<Box<dyn ConditionIndex<CondRef> + Send + Sync>>,
    store: InstStore,
    conflict: ConflictSet,
    last_total: u64,
    /// Set-oriented evaluation: hash-join executor + whole-delta batching.
    batch: bool,
    tracer: obs::Tracer,
}

impl QueryEngine {
    /// Create a new, empty instance.
    pub fn new(pdb: ProductionDb) -> Self {
        Self::with_index(pdb, IndexKind::RTree)
    }

    /// Choose the COND-relation index implementation (E9 ablation).
    pub fn with_index(pdb: ProductionDb, kind: IndexKind) -> Self {
        let mut cond: Vec<Box<dyn ConditionIndex<CondRef> + Send + Sync>> = pdb
            .rules()
            .classes
            .iter()
            .map(|c| make_index(kind, c.arity()))
            .collect();
        for rule in &pdb.rules().rules {
            for (cen, ce) in rule.ces.iter().enumerate() {
                let arity = pdb.rules().class(ce.class).arity();
                // A contradictory alpha restriction can never match: the
                // CE (and for positive CEs the whole rule) is dead.
                if let Some(rect) = Rect::from_restriction(arity, &ce.alpha) {
                    cond[ce.class.0].insert(rect, (rule.id.0, cen));
                }
            }
        }
        QueryEngine {
            pdb,
            cond,
            store: InstStore::new(),
            conflict: ConflictSet::new(),
            last_total: 0,
            batch: true,
            tracer: obs::Tracer::disabled(),
        }
    }

    /// Rules with a condition element whose one-input tests match this
    /// tuple — the only rules the change can affect. Exact stabbing over
    /// rectangles plus the intra-tuple attr tests the rectangles cannot
    /// encode.
    fn affected_rules(&self, class: ClassId, tuple: &Tuple) -> BTreeSet<usize> {
        self.cond[class.0]
            .stab(tuple)
            .into_iter()
            .filter(|&(rid, cen)| {
                let ce = &self.pdb.rules().rule(RuleId(rid)).ces[cen];
                ce.alpha.attr_tests.iter().all(|t| t.matches(tuple))
            })
            .map(|(rid, _)| rid)
            .collect()
    }

    fn reevaluate(&mut self, rules: BTreeSet<usize>) -> Vec<ConflictDelta> {
        obs::prof_span!("eval");
        let mut deltas = Vec::new();
        for rid in rules {
            let rule = self.pdb.rules().rule(RuleId(rid)).clone();
            let matches = eval_rule_via(&self.pdb, &rule, self.batch);
            deltas.extend(self.store.replace(&rule, matches));
        }
        self.conflict.apply_all(&deltas);
        deltas
    }

    /// Stabbing-cost metric (index nodes visited so far).
    pub fn index_visits(&self) -> u64 {
        self.cond.iter().map(|i| i.node_visits()).sum()
    }
}

impl MatchEngine for QueryEngine {
    fn name(&self) -> &'static str {
        "query"
    }

    fn pdb(&self) -> &ProductionDb {
        &self.pdb
    }

    fn maintain_insert(
        &mut self,
        class: ClassId,
        _tid: TupleId,
        tuple: &Tuple,
    ) -> Vec<ConflictDelta> {
        obs::prof_span!("query.maintain");
        let start = Instant::now();
        let affected = self.affected_rules(class, tuple);
        let deltas = self.reevaluate(affected);
        self.last_total = start.elapsed().as_nanos() as u64;
        deltas
    }

    fn maintain_remove(
        &mut self,
        class: ClassId,
        _tid: TupleId,
        tuple: &Tuple,
    ) -> Vec<ConflictDelta> {
        obs::prof_span!("query.maintain");
        let start = Instant::now();
        let affected = self.affected_rules(class, tuple);
        let deltas = self.reevaluate(affected);
        self.last_total = start.elapsed().as_nanos() as u64;
        deltas
    }

    /// Batched maintenance (§4.1 meets §4.2's "update first, maintain
    /// once"): with the whole WM delta applied, union the affected rules
    /// of every change and re-evaluate each exactly once. Since full
    /// re-evaluation against the final WM is idempotent, one pass per
    /// rule yields the same conflict-set diff the per-change loop would.
    fn maintain_delta(&mut self, deltas: &[WmDelta]) -> Vec<ConflictDelta> {
        if !self.batch {
            let mut out = Vec::new();
            for d in deltas {
                if d.insert {
                    out.extend(self.maintain_insert(d.class, d.tid, &d.tuple));
                } else {
                    out.extend(self.maintain_remove(d.class, d.tid, &d.tuple));
                }
            }
            return out;
        }
        obs::prof_span!("query.maintain");
        let start = Instant::now();
        let mut affected = BTreeSet::new();
        for d in deltas {
            affected.extend(self.affected_rules(d.class, &d.tuple));
        }
        let out = self.reevaluate(affected);
        self.last_total = start.elapsed().as_nanos() as u64;
        out
    }

    fn set_batching(&mut self, on: bool) {
        self.batch = on;
    }

    fn conflict_set(&self) -> &ConflictSet {
        &self.conflict
    }

    fn conflict_set_mut(&mut self) -> &mut ConflictSet {
        &mut self.conflict
    }

    fn space(&self) -> SpaceStats {
        // "In terms of space, this algorithm is much better than the Rete
        // Network because no intermediate results are stored" — only the
        // COND entries (one per condition element) count.
        let entries: usize = self.cond.iter().map(|i| i.len()).sum();
        SpaceStats {
            match_entries: entries,
            match_bytes: entries * 96,
            wm_tuples: self.pdb.wm_total(),
        }
    }

    fn last_detect_split(&self) -> Option<(u64, u64)> {
        // Re-evaluation computes all affected joins before the conflict
        // set changes: no maintenance tail after detection (§4.1.2).
        Some((self.last_total, self.last_total))
    }

    fn tracer(&self) -> &obs::Tracer {
        &self.tracer
    }

    fn set_tracer(&mut self, tracer: obs::Tracer) {
        self.tracer = tracer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::tuple;

    fn engine() -> QueryEngine {
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
        QueryEngine::new(ProductionDb::new(rs).unwrap())
    }

    #[test]
    fn example_3_matching() {
        let mut e = engine();
        let emp = ClassId(0);
        let dept = ClassId(1);
        assert!(e.insert(emp, tuple!["Sam", 5000, "Root", 1]).is_empty());
        let d = e.insert(emp, tuple!["Mike", 6000, "Sam", 1]);
        assert_eq!(d.len(), 1, "R1 fires");
        let d = e.insert(dept, tuple![1, "Toy", 1, "Sam"]);
        assert_eq!(d.len(), 2, "R2 fires for Sam and Mike");
        assert_eq!(e.conflict_set().len(), 3);
        // Deleting Mike retracts R1's instantiation and one R2 one.
        let d = e.remove(emp, &tuple!["Mike", 6000, "Sam", 1]);
        assert_eq!(d.iter().filter(|x| !x.is_add()).count(), 2);
        assert_eq!(e.conflict_set().len(), 1);
    }

    #[test]
    fn unaffected_rules_not_reevaluated() {
        let mut e = engine();
        // A Dept tuple that fails R2's alpha tests affects nothing.
        let affected = e.affected_rules(ClassId(1), &tuple![9, "Shoe", 2, "X"]);
        assert!(affected.is_empty());
        assert!(e.insert(ClassId(1), tuple![9, "Shoe", 2, "X"]).is_empty());
    }

    #[test]
    fn index_visits_counted() {
        let mut e = engine();
        e.insert(ClassId(0), tuple!["Ann", 1, "B", 2]);
        assert!(e.index_visits() > 0);
    }

    #[test]
    fn negation_through_recompute() {
        let rs = ops5::compile(
            r#"
            (literalize Emp name dno)
            (literalize Dept dno)
            (p Orphan (Emp ^name <N> ^dno <D>) -(Dept ^dno <D>) --> (remove 1))
            "#,
        )
        .unwrap();
        let mut e = QueryEngine::new(ProductionDb::new(rs).unwrap());
        let d = e.insert(ClassId(0), tuple!["Ann", 7]);
        assert_eq!(d.len(), 1);
        let d = e.insert(ClassId(1), tuple![7]);
        assert_eq!(d.len(), 1);
        assert!(!d[0].is_add());
        let d = e.remove(ClassId(1), &tuple![7]);
        assert_eq!(d.len(), 1);
        assert!(d[0].is_add());
        assert_eq!(e.conflict_set().len(), 1);
    }

    #[test]
    fn space_excludes_intermediate_results() {
        let mut e = engine();
        let before = e.space().match_entries;
        for i in 0..50i64 {
            e.insert(ClassId(0), tuple![format!("e{i}"), 100 * i, "Sam", i % 5]);
        }
        assert_eq!(e.space().match_entries, before, "COND entries are static");
    }
}
