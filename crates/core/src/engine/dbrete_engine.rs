//! The paper's §3.2 design as an engine: Rete with LEFT/RIGHT relations
//! stored in the same database as working memory.

use std::time::Instant;

use ops5::ClassId;
use relstore::{Tuple, TupleId};
use rete::{ConflictDelta, ConflictSet, DbReteNetwork, Wme};

use crate::engine::{MatchEngine, SpaceStats};
use crate::pdb::ProductionDb;

/// DBMS-backed Rete matching.
pub struct DbReteEngine {
    pdb: ProductionDb,
    net: DbReteNetwork,
    last_total: u64,
    tracer: obs::Tracer,
}

impl DbReteEngine {
    /// Create a new, empty instance.
    pub fn new(pdb: ProductionDb) -> Self {
        let net = match DbReteNetwork::new(pdb.db().clone(), pdb.rules()) {
            Ok(net) => net,
            // The database already holds this rule set's LEFT/RIGHT
            // relations (restored snapshot): re-attach to them — the whole
            // network state is DB-resident.
            Err(relstore::Error::DuplicateRelation(_)) => {
                DbReteNetwork::attach(pdb.db().clone(), pdb.rules())
                    .expect("attach to restored LEFT/RIGHT relations")
            }
            Err(e) => panic!("LEFT/RIGHT relation creation: {e}"),
        };
        DbReteEngine {
            pdb,
            net,
            last_total: 0,
            tracer: obs::Tracer::disabled(),
        }
    }

    /// Did construction attach to pre-existing (already populated)
    /// network relations?
    pub fn attached(&self) -> bool {
        !self.net.conflict_set().is_empty() || self.net.stored_entries() > 0
    }

    /// The underlying DB-resident network.
    pub fn network(&self) -> &DbReteNetwork {
        &self.net
    }
}

impl MatchEngine for DbReteEngine {
    fn name(&self) -> &'static str {
        "db-rete"
    }

    fn match_plan(&self) -> Vec<crate::engine::MatchPlan> {
        // LEFT/RIGHT relations mirror the compile-time network shape, so
        // the effective join order is still the textual CE order.
        crate::engine::explain::match_plans(
            self.pdb(),
            self.name(),
            crate::engine::OrderPolicy::Textual,
        )
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
        obs::prof_span!("dbrete.maintain");
        let start = Instant::now();
        let deltas = self.net.insert(Wme::new(class, tuple.clone()));
        self.last_total = start.elapsed().as_nanos() as u64;
        deltas
    }

    fn maintain_remove(
        &mut self,
        class: ClassId,
        _tid: TupleId,
        tuple: &Tuple,
    ) -> Vec<ConflictDelta> {
        obs::prof_span!("dbrete.maintain");
        let start = Instant::now();
        let deltas = self.net.remove(&Wme::new(class, tuple.clone()));
        self.last_total = start.elapsed().as_nanos() as u64;
        deltas
    }

    fn conflict_set(&self) -> &ConflictSet {
        self.net.conflict_set()
    }

    fn conflict_set_mut(&mut self) -> &mut ConflictSet {
        self.net.conflict_set_mut()
    }

    fn space(&self) -> SpaceStats {
        SpaceStats {
            match_entries: self.net.stored_entries(),
            match_bytes: self.net.approx_bytes(),
            wm_tuples: self.pdb.wm_total(),
        }
    }

    fn needs_bootstrap(&self) -> bool {
        // When attached, the restored LEFT/RIGHT relations already encode
        // the match state; replaying WM would double-count.
        !self.attached()
    }

    fn last_detect_split(&self) -> Option<(u64, u64)> {
        // Like in-memory Rete, the DB-resident network surfaces conflict
        // deltas only after the LEFT/RIGHT relations are maintained:
        // detection cannot complete earlier than maintenance (§4.2.3).
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

    #[test]
    fn db_rete_engine_matches_and_stores_tokens() {
        let rs = ops5::compile(
            r#"
            (literalize Emp name dno)
            (literalize Dept dno)
            (p R (Emp ^dno <D>) (Dept ^dno <D>) --> (remove 1))
            "#,
        )
        .unwrap();
        let pdb = ProductionDb::new(rs).unwrap();
        let mut e = DbReteEngine::new(pdb.clone());
        e.insert(ClassId(0), tuple!["Ann", 7]);
        let deltas = e.insert(ClassId(1), tuple![7]);
        assert_eq!(deltas.len(), 1);
        // LEFT/RIGHT relations hold redundant copies (the §3.2 critique).
        assert!(e.space().match_entries >= 2);
        e.remove(ClassId(0), &tuple!["Ann", 7]);
        assert!(e.conflict_set().is_empty());
    }
}
