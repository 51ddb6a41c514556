//! "Our method can be used for [maintaining materialized views and
//! triggers] as well" (§6): the view workload must converge to the exact
//! view contents on every engine, and track base-table updates
//! incrementally.

use prodsys::{EndReason, EngineKind, ProductionSystem, Strategy};
use relstore::tuple;
use workload::view;

fn build(kind: EngineKind) -> ProductionSystem {
    let mut sys = ProductionSystem::from_source(view::VIEW_RULES, kind, Strategy::Fifo).unwrap();
    for (class, t) in view::base_load() {
        sys.insert(class, t).unwrap();
    }
    sys
}

#[test]
fn view_materializes_on_every_engine() {
    for kind in EngineKind::ALL {
        let mut sys = build(kind);
        let out = sys.run(100);
        assert_eq!(out.end, EndReason::Quiescent, "{}", kind.label());
        assert_eq!(
            sys.wm("View").unwrap(),
            view::expected_view(),
            "{}",
            kind.label()
        );
    }
}

#[test]
fn view_tracks_inserts_and_deletes() {
    for kind in [EngineKind::Rete, EngineKind::Cond, EngineKind::Query] {
        let mut sys = build(kind);
        sys.run(100);

        // A new qualifying employee appears in the view.
        sys.insert("Emp", tuple!["Zoe", 7000, 1]).unwrap();
        sys.run(100);
        assert!(
            sys.wm("View").unwrap().contains(&tuple!["Zoe", 7000, 3]),
            "{}: insert propagated",
            kind.label()
        );

        // Removing the base tuple removes the view row.
        sys.remove("Emp", &tuple!["Zoe", 7000, 1]).unwrap();
        sys.run(100);
        assert!(
            !sys.wm("View").unwrap().contains(&tuple!["Zoe", 7000, 3]),
            "{}: delete propagated",
            kind.label()
        );
        assert_eq!(
            sys.wm("View").unwrap(),
            view::expected_view(),
            "{}",
            kind.label()
        );
    }
}

#[test]
fn non_qualifying_updates_are_ignored() {
    for kind in [EngineKind::Rete, EngineKind::Cond] {
        let mut sys = build(kind);
        sys.run(100);
        // Low salary and wrong department: readily ignorable updates
        // (the RIU idea of Buneman & Clemons, §2.3).
        sys.insert("Emp", tuple!["Tmp", 1000, 1]).unwrap();
        sys.insert("Emp", tuple!["Other", 9999, 2]).unwrap();
        let out = sys.run(100);
        assert_eq!(out.fired, 0, "{}: nothing to do", kind.label());
        assert_eq!(
            sys.wm("View").unwrap(),
            view::expected_view(),
            "{}",
            kind.label()
        );
    }
}
