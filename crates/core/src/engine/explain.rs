//! EXPLAIN for match engines: per-rule match plans with estimated and
//! actual cardinalities.
//!
//! §3.2 of the paper contrasts the Rete network — which freezes one access
//! plan per rule at compile time — with a DBMS, where "database technology
//! provides more efficient ways of generating efficient access plans".
//! This module makes that contrast observable: every engine can report,
//! per rule, which COND/WM relations its matching reads, in which order,
//! with the planner's estimated cardinalities next to the row counts an
//! actual evaluation produces (EXPLAIN ANALYZE style).

use obs::json::{Arr, Obj};
use relstore::{CompOp, Planner, QueryExecutor};

use crate::pdb::ProductionDb;

/// How an engine orders a rule's positive condition elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderPolicy {
    /// Statistics-driven greedy join ordering, re-derived at run time
    /// (query and marker engines).
    Planner,
    /// Textual CE order frozen at compile time — the Rete-family plan the
    /// paper's §3.2 critique is aimed at.
    Textual,
}

impl OrderPolicy {
    /// Stable label used in plan renderings and JSON.
    pub fn label(self) -> &'static str {
        match self {
            OrderPolicy::Planner => "planner",
            OrderPolicy::Textual => "textual",
        }
    }
}

/// One step of a rule's match plan.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// Index into the rule query's terms.
    pub term: usize,
    /// Name of the WM/COND relation this step reads.
    pub relation: String,
    /// True for a negated CE (anti-join at the end of the plan).
    pub negated: bool,
    /// Estimated rows: cumulative bindings after this step for positive
    /// steps, the restricted relation size for negated steps.
    pub estimated: f64,
    /// Actual rows: partial bindings produced (positive) or bindings
    /// blocked (negated) when the plan was profiled.
    pub actual: u64,
    /// Join algorithm the step would run under ([`relstore::JoinAlgo`]
    /// label): "hash" for a build/probe hash (anti-)join chosen by the
    /// statistics-driven planner, "nested-loop" otherwise (and always for
    /// compile-time-frozen textual plans).
    pub join_algo: &'static str,
}

/// The match plan of one rule under one engine's ordering policy.
#[derive(Debug, Clone)]
pub struct MatchPlan {
    /// Engine label (as in experiment tables).
    pub engine: &'static str,
    /// Numeric rule id.
    pub rule: u32,
    /// Rule name.
    pub rule_name: String,
    /// The ordering policy the steps follow.
    pub policy: OrderPolicy,
    /// The plan steps: positive CEs in execution order, then negated CEs.
    pub steps: Vec<PlanStep>,
    /// Instantiations the profiled evaluation produced.
    pub results: u64,
    /// How the engine's matching-pattern store is accessed, when it keeps
    /// one: "indexed" (σ-binding hash probes). `None` for engines without
    /// a pattern store.
    pub pattern_store: Option<&'static str>,
}

impl MatchPlan {
    /// Render as indented EXPLAIN ANALYZE-style text.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{} (engine={} policy={}{})\n",
            self.rule_name,
            self.engine,
            self.policy.label(),
            match self.pattern_store {
                Some(store) => format!(" store={store}"),
                None => String::new(),
            }
        );
        for (i, st) in self.steps.iter().enumerate() {
            let op = if st.negated {
                "anti"
            } else if i == 0 {
                "scan"
            } else {
                "join"
            };
            s.push_str(&format!(
                "  {}. {op} {:<12} est={:.1} actual={}{} algo={}\n",
                i + 1,
                st.relation,
                st.estimated,
                st.actual,
                if st.negated { " blocked" } else { "" },
                st.join_algo
            ));
        }
        s.push_str(&format!("  -> {} instantiation(s)\n", self.results));
        s
    }

    /// Render as one JSON object.
    pub fn to_json(&self) -> String {
        let mut steps = Arr::new();
        for (i, st) in self.steps.iter().enumerate() {
            steps = steps.raw(
                &Obj::new()
                    .usize("step", i + 1)
                    .usize("term", st.term)
                    .str("relation", &st.relation)
                    .bool("negated", st.negated)
                    .f64("estimated", st.estimated)
                    .u64("actual", st.actual)
                    .str("join_algo", st.join_algo)
                    .finish(),
            );
        }
        let mut obj = Obj::new()
            .str("engine", self.engine)
            .u64("rule", self.rule as u64)
            .str("rule_name", &self.rule_name)
            .str("policy", self.policy.label());
        if let Some(store) = self.pattern_store {
            obj = obj.str("pattern_store", store);
        }
        obj.raw("steps", &steps.finish())
            .u64("results", self.results)
            .finish()
    }
}

/// Render a set of plans as a JSON array (a `RunReport` section).
pub fn plans_to_json(plans: &[MatchPlan]) -> String {
    let mut arr = Arr::new();
    for p in plans {
        arr = arr.raw(&p.to_json());
    }
    arr.finish()
}

/// Build and profile the match plan of every rule under `policy`,
/// against the current working memory.
pub fn match_plans(
    pdb: &ProductionDb,
    engine: &'static str,
    policy: OrderPolicy,
) -> Vec<MatchPlan> {
    let planner = Planner::new(pdb.db());
    let exec = QueryExecutor::new(pdb.db());
    pdb.rules()
        .rules
        .iter()
        .map(|rule| {
            let query = pdb.query(rule.id);
            let (order, algos): (Vec<usize>, Vec<&'static str>) = match policy {
                OrderPolicy::Planner => {
                    let plan = planner.plan(query, None);
                    let algos = plan.algos.iter().map(|a| a.label()).collect();
                    (plan.order, algos)
                }
                OrderPolicy::Textual => {
                    // Frozen plans evaluate tuple-at-a-time: every step is
                    // an index nested-loop.
                    let order = query.positive_terms();
                    let algos = vec!["nested-loop"; order.len()];
                    (order, algos)
                }
            };
            let profile = exec.exec_explain(query, &order).expect("rule query");
            let rel_name = |t: usize| {
                pdb.db()
                    .schema(query.terms[t].rel)
                    .map(|s| s.name().to_string())
                    .unwrap_or_default()
            };
            let mut steps = Vec::new();
            let mut cum = 1.0f64;
            let mut bound: Vec<usize> = Vec::new();
            for (step_idx, &t) in order.iter().enumerate() {
                // Estimate this step as the planner would: the restricted
                // term size, divided per equi-join into the bound set by
                // the join attribute's distinct count (ANALYZE stats).
                let mut est = planner.term_cardinality(query, t);
                for j in query.joins_of(t) {
                    if let Some((my_attr, op, other, _)) = j.oriented(t) {
                        if op == CompOp::Eq && bound.contains(&other) {
                            let d = pdb
                                .db()
                                .read(query.terms[t].rel, |r| r.distinct_estimate(my_attr))
                                .unwrap_or(1);
                            est /= d.max(1) as f64;
                        }
                    }
                }
                cum *= est;
                bound.push(t);
                steps.push(PlanStep {
                    term: t,
                    relation: rel_name(t),
                    negated: false,
                    estimated: cum,
                    actual: profile.rows[t],
                    join_algo: algos[step_idx],
                });
            }
            for t in query.negated_terms() {
                steps.push(PlanStep {
                    term: t,
                    relation: rel_name(t),
                    negated: true,
                    estimated: planner.term_cardinality(query, t),
                    actual: profile.rows[t],
                    join_algo: match policy {
                        // `cum` is the binding-count estimate after every
                        // positive step — the anti-join's probe input.
                        OrderPolicy::Planner => planner.anti_algo(query, t, cum).label(),
                        OrderPolicy::Textual => "nested-loop",
                    },
                });
            }
            MatchPlan {
                engine,
                rule: rule.id.0 as u32,
                rule_name: rule.name.clone(),
                policy,
                steps,
                results: profile.bindings.len() as u64,
                pattern_store: None,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::ClassId;
    use relstore::tuple;

    fn pdb() -> ProductionDb {
        let rs = ops5::compile(
            r#"
            (literalize Emp name dno)
            (literalize Dept dno dname)
            (p HasDept (Emp ^dno <D>) (Dept ^dno <D>) --> (remove 1))
            (p NoDept (Emp ^dno <D>) -(Dept ^dno <D>) --> (remove 1))
            "#,
        )
        .unwrap();
        let pdb = ProductionDb::new(rs).unwrap();
        pdb.insert_wm(ClassId(0), tuple!["Sam", 1]).unwrap();
        pdb.insert_wm(ClassId(0), tuple!["Ann", 1]).unwrap();
        pdb.insert_wm(ClassId(0), tuple!["Orphan", 99]).unwrap();
        pdb.insert_wm(ClassId(1), tuple![1, "Toy"]).unwrap();
        pdb
    }

    #[test]
    fn plans_cover_all_ces_with_actuals() {
        let pdb = pdb();
        let plans = match_plans(&pdb, "query", OrderPolicy::Planner);
        assert_eq!(plans.len(), 2);
        let has = &plans[0];
        assert_eq!(has.rule_name, "HasDept");
        assert_eq!(has.steps.len(), 2);
        assert!(has.steps.iter().all(|s| !s.negated));
        assert_eq!(has.results, 2, "Sam and Ann join Dept 1");
        let no = &plans[1];
        assert_eq!(no.steps.len(), 2);
        let anti = no.steps.iter().find(|s| s.negated).expect("negated step");
        assert_eq!(anti.relation, "Dept");
        assert_eq!(anti.actual, 2, "Sam and Ann blocked by Dept 1");
        assert_eq!(no.results, 1, "only Orphan survives");
    }

    #[test]
    fn textual_policy_follows_ce_order() {
        let pdb = pdb();
        let plans = match_plans(&pdb, "rete", OrderPolicy::Textual);
        let has = &plans[0];
        assert_eq!(has.policy, OrderPolicy::Textual);
        assert_eq!(
            has.steps[0].relation, "Emp",
            "CE 1 first, regardless of size"
        );
        assert_eq!(has.steps[1].relation, "Dept");
        assert_eq!(has.results, 2);
    }

    #[test]
    fn render_and_json() {
        let pdb = pdb();
        let plans = match_plans(&pdb, "query", OrderPolicy::Planner);
        let text = plans[1].render();
        assert!(text.contains("NoDept"), "{text}");
        assert!(text.contains("anti Dept"), "{text}");
        assert!(text.contains("blocked"), "{text}");
        let json = plans_to_json(&plans);
        assert!(json.starts_with("[{\"engine\":\"query\""), "{json}");
        assert!(json.contains("\"policy\":\"planner\""), "{json}");
        assert!(json.contains("\"negated\":true"), "{json}");
        assert!(json.contains("\"estimated\":"), "{json}");
        assert!(json.contains("\"actual\":"), "{json}");
        assert!(json.contains("\"join_algo\":"), "{json}");
        assert!(text.contains("algo="), "{text}");
    }
}
