//! Negated condition elements (§4.2.2) across engines and executors.

use ops5::ClassId;
use prodsys::{make_engine, EndReason, EngineKind, ProductionDb, ProductionSystem, Strategy};
use relstore::tuple;

const ORPHAN: &str = r#"
    (literalize Emp name dno)
    (literalize Dept dno)
    (p Orphan (Emp ^name <N> ^dno <D>) -(Dept ^dno <D>) --> (remove 1))
"#;

#[test]
fn negation_lifecycle_all_engines() {
    for kind in EngineKind::ALL {
        let rules = ops5::compile(ORPHAN).unwrap();
        let mut e = make_engine(kind, ProductionDb::new(rules).unwrap());
        let label = kind.label();

        // Fires when the dept is absent.
        let d = e.insert(ClassId(0), tuple!["Ann", 7]);
        assert_eq!(d.len(), 1, "{label}");
        // Blocked when it appears.
        let d = e.insert(ClassId(1), tuple![7]);
        assert_eq!(d.len(), 1, "{label}");
        assert!(!d[0].is_add(), "{label}");
        // Two blockers: removing one keeps it blocked.
        e.insert(ClassId(1), tuple![7]);
        e.remove(ClassId(1), &tuple![7]);
        assert!(e.conflict_set().is_empty(), "{label}: one blocker left");
        // Removing the last blocker revives the match.
        let d = e.remove(ClassId(1), &tuple![7]);
        assert_eq!(d.len(), 1, "{label}");
        assert!(d[0].is_add(), "{label}");
    }
}

#[test]
fn multiple_negated_ces() {
    let src = r#"
        (literalize Emp name dno proj)
        (literalize Dept dno)
        (literalize Proj proj)
        (p Lost
            (Emp ^name <N> ^dno <D> ^proj <P>)
            -(Dept ^dno <D>)
            -(Proj ^proj <P>)
            -->
            (remove 1))
    "#;
    for kind in EngineKind::ALL {
        let rules = ops5::compile(src).unwrap();
        let mut e = make_engine(kind, ProductionDb::new(rules).unwrap());
        let label = kind.label();
        let d = e.insert(ClassId(0), tuple!["Ann", 7, "x"]);
        assert_eq!(d.len(), 1, "{label}: both absent → fires");
        e.insert(ClassId(1), tuple![7]);
        assert!(e.conflict_set().is_empty(), "{label}: dept blocks");
        e.insert(ClassId(2), tuple!["x"]);
        e.remove(ClassId(1), &tuple![7]);
        assert!(e.conflict_set().is_empty(), "{label}: proj still blocks");
        e.remove(ClassId(2), &tuple!["x"]);
        assert_eq!(e.conflict_set().len(), 1, "{label}: unblocked again");
    }
}

/// A negation-driven fixpoint program: set difference Emp \ Dept by dno.
#[test]
fn negation_fixpoint_program() {
    let src = r#"
        (literalize Emp name dno)
        (literalize Dept dno)
        (literalize Orphaned name)
        (p FindOrphan
            (Emp ^name <N> ^dno <D>)
            -(Dept ^dno <D>)
            -(Orphaned ^name <N>)
            -->
            (make Orphaned ^name <N>))
    "#;
    for kind in EngineKind::ALL {
        let mut sys = ProductionSystem::from_source(src, kind, Strategy::Fifo).unwrap();
        sys.insert("Emp", tuple!["Ann", 1]).unwrap();
        sys.insert("Emp", tuple!["Bob", 2]).unwrap();
        sys.insert("Emp", tuple!["Cid", 3]).unwrap();
        sys.insert("Dept", tuple![2]).unwrap();
        let out = sys.run(100);
        assert_eq!(out.end, EndReason::Quiescent, "{}", kind.label());
        assert_eq!(
            sys.wm("Orphaned").unwrap(),
            vec![tuple!["Ann"], tuple!["Cid"]],
            "{}",
            kind.label()
        );
    }
}
