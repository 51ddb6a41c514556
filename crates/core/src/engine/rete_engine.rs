//! The AI baseline: classic in-memory Rete (§3.1) with WM mirrored into
//! the DBMS relations (so executors and other tooling see one WM).

use std::time::Instant;

use ops5::ClassId;
use relstore::{Tuple, TupleId};
use rete::{ConflictDelta, ConflictSet, OpMetrics, ReteNetwork, Wme};

use crate::engine::{MatchEngine, SpaceStats};
use crate::pdb::ProductionDb;

/// In-memory Rete matching over DBMS-resident working memory.
pub struct ReteEngine {
    pdb: ProductionDb,
    net: ReteNetwork,
    last_total: u64,
    tracer: obs::Tracer,
}

impl ReteEngine {
    /// Create a new, empty instance.
    pub fn new(pdb: ProductionDb) -> Self {
        let net = ReteNetwork::new(pdb.rules());
        ReteEngine {
            pdb,
            net,
            last_total: 0,
            tracer: obs::Tracer::disabled(),
        }
    }

    /// Propagation metrics of the last operation (E3).
    pub fn last_metrics(&self) -> OpMetrics {
        self.net.last_metrics()
    }

    /// The underlying in-memory network.
    pub fn network(&self) -> &ReteNetwork {
        &self.net
    }
}

impl MatchEngine for ReteEngine {
    fn name(&self) -> &'static str {
        "rete"
    }

    fn match_plan(&self) -> Vec<crate::engine::MatchPlan> {
        // The Rete network compiles CEs in textual order (§3.2's frozen
        // access plan).
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
        obs::prof_span!("rete.maintain");
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
        obs::prof_span!("rete.maintain");
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

    fn last_detect_split(&self) -> Option<(u64, u64)> {
        // Rete updates the conflict set only after full propagation:
        // detection time equals total time (§4.2.3's contrast).
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
    fn engine_mirrors_wm_into_db() {
        let rs = ops5::compile(
            r#"
            (literalize Emp name dno)
            (literalize Dept dno)
            (p R (Emp ^dno <D>) (Dept ^dno <D>) --> (remove 1))
            "#,
        )
        .unwrap();
        let pdb = ProductionDb::new(rs).unwrap();
        let mut e = ReteEngine::new(pdb.clone());
        e.insert(ClassId(0), tuple!["Ann", 7]);
        let deltas = e.insert(ClassId(1), tuple![7]);
        assert_eq!(deltas.len(), 1);
        assert_eq!(e.conflict_set().len(), 1);
        assert_eq!(pdb.wm_total(), 2, "WM relations updated too");
        assert!(e.space().match_entries > 0);
        let (d, t) = e.last_detect_split().unwrap();
        assert_eq!(d, t);

        e.remove(ClassId(1), &tuple![7]);
        assert!(e.conflict_set().is_empty());
        assert_eq!(pdb.wm_total(), 1);
        // Removing a non-existent tuple is a no-op.
        assert!(e.remove(ClassId(1), &tuple![99]).is_empty());
    }
}
