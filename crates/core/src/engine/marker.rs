//! POSTGRES-style rule indexing: markers on the data (§2.3 Basic Locking,
//! §3.2's discussion of the "dual approach").
//!
//! "POSTGRES uses a dual approach, i.e. it stores identifiers of possibly
//! qualifying rules with the data … The space overhead incurred in such an
//! implementation is clearly lower than that of the Rete Network … However,
//! the process of identifying qualifying rules is more expensive … as more
//! false drops may arise."
//!
//! Each condition element contributes one *marker*: an index-interval lock
//! on a single attribute (the first equality test, else the first range
//! test) or a whole-relation marker when no attribute is testable. An
//! arriving tuple collects the markers it falls under — a deliberately
//! coarse test — and the corresponding rules are then *verified* by
//! re-evaluating their LHS. Awakenings that change nothing are counted as
//! false drops.

use std::collections::BTreeSet;
use std::time::Instant;

use ops5::{ClassId, RuleId};
use predindex::Interval;
use relstore::{CompOp, Tuple, TupleId};
use rete::{ConflictDelta, ConflictSet};

use crate::engine::recompute::{eval_rule_via, InstStore};
use crate::engine::{MatchEngine, SpaceStats, WmDelta};
use crate::pdb::ProductionDb;

/// One marker: rule `rule` watches tuples of a class through an interval
/// on `attr` (or all tuples when `attr` is `None`).
#[derive(Debug, Clone)]
struct Marker {
    rule: usize,
    attr: Option<usize>,
    interval: Interval,
}

/// The marker-based engine.
pub struct MarkerEngine {
    pdb: ProductionDb,
    /// Markers per class.
    markers: Vec<Vec<Marker>>,
    store: InstStore,
    conflict: ConflictSet,
    false_drops: u64,
    last_total: u64,
    /// Set-oriented evaluation: hash-join executor + whole-delta batching.
    batch: bool,
    tracer: obs::Tracer,
}

impl MarkerEngine {
    /// Create a new, empty instance.
    pub fn new(pdb: ProductionDb) -> Self {
        let mut markers: Vec<Vec<Marker>> =
            pdb.rules().classes.iter().map(|_| Vec::new()).collect();
        for rule in &pdb.rules().rules {
            for ce in &rule.ces {
                // Pick the most selective single-attribute test: first
                // equality, else first non-Ne comparison, else none.
                let pick = ce
                    .alpha
                    .tests
                    .iter()
                    .find(|s| s.op == CompOp::Eq)
                    .or_else(|| ce.alpha.tests.iter().find(|s| s.op != CompOp::Ne));
                let (attr, interval) = match pick {
                    Some(s) => (Some(s.attr), Interval::from_op(s.op, s.value.clone())),
                    None => (None, Interval::full()),
                };
                markers[ce.class.0].push(Marker {
                    rule: rule.id.0,
                    attr,
                    interval,
                });
            }
        }
        MarkerEngine {
            pdb,
            markers,
            store: InstStore::new(),
            conflict: ConflictSet::new(),
            false_drops: 0,
            last_total: 0,
            batch: true,
            tracer: obs::Tracer::disabled(),
        }
    }

    /// Collect the rules whose markers trap this tuple.
    fn candidates(&self, class: ClassId, tuple: &Tuple) -> BTreeSet<usize> {
        self.markers[class.0]
            .iter()
            .filter(|m| match m.attr {
                Some(a) => tuple.get(a).is_some_and(|v| m.interval.contains(v)),
                None => true,
            })
            .map(|m| m.rule)
            .collect()
    }

    fn verify(&mut self, rules: BTreeSet<usize>) -> Vec<ConflictDelta> {
        let mut deltas = Vec::new();
        for rid in rules {
            let rule = self.pdb.rules().rule(RuleId(rid)).clone();
            let matches = eval_rule_via(&self.pdb, &rule, self.batch);
            let d = self.store.replace(&rule, matches);
            if d.is_empty() {
                // The marker woke the rule for nothing.
                self.false_drops += 1;
            }
            deltas.extend(d);
        }
        self.conflict.apply_all(&deltas);
        deltas
    }
}

impl MatchEngine for MarkerEngine {
    fn name(&self) -> &'static str {
        "marker"
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
        obs::prof_span!("marker.maintain");
        let start = Instant::now();
        let c = self.candidates(class, tuple);
        let deltas = self.verify(c);
        self.last_total = start.elapsed().as_nanos() as u64;
        deltas
    }

    fn maintain_remove(
        &mut self,
        class: ClassId,
        _tid: TupleId,
        tuple: &Tuple,
    ) -> Vec<ConflictDelta> {
        obs::prof_span!("marker.maintain");
        let start = Instant::now();
        let c = self.candidates(class, tuple);
        let deltas = self.verify(c);
        self.last_total = start.elapsed().as_nanos() as u64;
        deltas
    }

    /// Batched maintenance: union the candidate rules every change's
    /// markers trap, then verify each awakened rule exactly once against
    /// the fully-applied WM delta. A rule awakened by several changes in
    /// the same cycle counts at most one false drop.
    fn maintain_delta(&mut self, deltas: &[WmDelta]) -> Vec<ConflictDelta> {
        obs::prof_span!("marker.maintain");
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
        let start = Instant::now();
        let mut candidates = BTreeSet::new();
        for d in deltas {
            candidates.extend(self.candidates(d.class, &d.tuple));
        }
        let out = self.verify(candidates);
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
        // Rule identifiers are tiny — the paper's space advantage.
        let entries: usize = self.markers.iter().map(Vec::len).sum();
        SpaceStats {
            match_entries: entries,
            match_bytes: entries * 24,
            wm_tuples: self.pdb.wm_total(),
        }
    }

    fn false_drops(&self) -> u64 {
        self.false_drops
    }

    fn last_detect_split(&self) -> Option<(u64, u64)> {
        // Candidate collection plus verification both precede any
        // conflict-set change: detection dominates (§2.3's cost remark).
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

    /// The paper's own example: "in the case where all Emp tuples are
    /// marked because of rules R1 and R2, a new insertion to that relation
    /// will trigger both of these rules, even though [R2] should not be
    /// fired because there are no matching Dept tuples."
    #[test]
    fn false_drops_counted() {
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
        let mut e = MarkerEngine::new(ProductionDb::new(rs).unwrap());
        // R2's Emp CE has no constant test → whole-relation marker: every
        // Emp insertion wakes R2 even with no Dept tuples at all.
        let d = e.insert(ClassId(0), tuple!["Ann", 1000, "Sam", 7]);
        assert!(d.is_empty());
        assert!(e.false_drops() >= 1, "R2 woke for nothing");
    }

    #[test]
    fn verification_keeps_conflict_set_exact() {
        let rs = ops5::compile(
            r#"
            (literalize Emp name dno)
            (literalize Dept dno)
            (p R (Emp ^dno <D>) (Dept ^dno <D>) --> (remove 1))
            "#,
        )
        .unwrap();
        let mut e = MarkerEngine::new(ProductionDb::new(rs).unwrap());
        e.insert(ClassId(0), tuple!["Ann", 7]);
        let d = e.insert(ClassId(1), tuple![7]);
        assert_eq!(d.len(), 1);
        assert_eq!(e.conflict_set().len(), 1);
        e.remove(ClassId(1), &tuple![7]);
        assert!(e.conflict_set().is_empty());
    }

    #[test]
    fn interval_markers_trap_ranges() {
        let rs = ops5::compile(
            r#"
            (literalize Emp name age)
            (p Old (Emp ^age {>= 55}) --> (remove 1))
            "#,
        )
        .unwrap();
        let mut e = MarkerEngine::new(ProductionDb::new(rs).unwrap());
        let d = e.insert(ClassId(0), tuple!["Young", 30]);
        assert!(d.is_empty());
        assert_eq!(e.false_drops(), 0, "interval marker excludes age 30");
        let d = e.insert(ClassId(0), tuple!["Old", 60]);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn space_is_tiny() {
        let rs = ops5::compile(
            r#"
            (literalize Emp name dno)
            (literalize Dept dno)
            (p R (Emp ^dno <D>) (Dept ^dno <D>) --> (remove 1))
            "#,
        )
        .unwrap();
        let mut e = MarkerEngine::new(ProductionDb::new(rs).unwrap());
        for i in 0..100i64 {
            e.insert(ClassId(0), tuple![format!("e{i}"), i]);
        }
        assert_eq!(
            e.space().match_entries,
            2,
            "one marker per CE, data-independent"
        );
    }
}
