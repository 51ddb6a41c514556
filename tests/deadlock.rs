//! §5.2: "It is also possible that both T_i and T_j delete or update
//! tuples from R_i … This could lead to a deadlock of the two
//! transactions." The system must detect such deadlocks, abort a victim,
//! and still drive the run to a correct quiescent state.

use ops5::ClassId;
use prodsys::{make_engine, ConcurrentExecutor, EndReason, EngineKind, ProductionDb};
use relstore::{tuple, LockMode, LockTarget, RelId, TupleId};

#[test]
fn lock_manager_resolves_cycles_under_stress() {
    let db = relstore::Database::new();
    let lm = db.lock_manager();
    let targets: Vec<LockTarget> = (0..4)
        .map(|i| LockTarget::Tuple(RelId(0), TupleId::new(i, 0)))
        .collect();
    std::thread::scope(|s| {
        for w in 0..8u64 {
            let targets = targets.clone();
            let lm = &lm;
            s.spawn(move || {
                for round in 0..50u64 {
                    let txn = relstore::TxnId(w * 1000 + round);
                    // Acquire two targets in opposite orders per worker —
                    // a deadlock factory.
                    let (a, b) = if w % 2 == 0 {
                        (
                            targets[(round % 4) as usize],
                            targets[((round + 1) % 4) as usize],
                        )
                    } else {
                        (
                            targets[((round + 1) % 4) as usize],
                            targets[(round % 4) as usize],
                        )
                    };
                    let ok = lm.acquire(txn, a, LockMode::Exclusive).is_ok()
                        && lm.acquire(txn, b, LockMode::Exclusive).is_ok();
                    let _ = ok;
                    lm.release_all(txn);
                }
            });
        }
    });
    assert_eq!(lm.held_count(), 0, "every lock released despite deadlocks");
}

/// Rules that both read and delete overlapping tuples from one relation —
/// the paper's mutual-delete scenario — run to completion concurrently.
#[test]
fn mutual_deleters_complete() {
    let src = r#"
        (literalize Pair a b)
        (p Left  (Pair ^a <X> ^b <Y>) (Pair ^a <Y> ^b <X>) --> (remove 1))
        (p Right (Pair ^a <X> ^b <Y>) (Pair ^a <Y> ^b <X>) --> (remove 2))
    "#;
    for trial in 0..3 {
        let rules = ops5::compile(src).unwrap();
        let mut engine = make_engine(EngineKind::Rete, ProductionDb::new(rules).unwrap());
        // Mutually-referencing pairs: (i, i+1) and (i+1, i).
        for i in 0..6i64 {
            engine.insert(ClassId(0), tuple![2 * i, 2 * i + 1]);
            engine.insert(ClassId(0), tuple![2 * i + 1, 2 * i]);
        }
        let pdb = engine.pdb().clone();
        let mut conc = ConcurrentExecutor::new(engine, 6);
        let stats = conc.run(10_000);
        assert_eq!(stats.end, EndReason::Quiescent, "trial {trial}");
        assert_eq!(pdb.db().lock_manager().held_count(), 0, "trial {trial}");
        // Quiescent: no matching mutual pair remains.
        let eng = conc.engine();
        let g = eng.lock();
        assert!(g.conflict_set().is_empty(), "trial {trial}: {stats:?}");
    }
}
