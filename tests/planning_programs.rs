//! End-to-end multi-cycle programs: a planning chain (monkey & bananas)
//! and an inventory workflow, identical across all five engines.

use prodsys::{EndReason, EngineKind, ProductionSystem, Strategy};
use relstore::tuple;
use workload::programs;

#[test]
fn monkey_and_bananas_plans_identically_on_all_engines() {
    for kind in EngineKind::ALL {
        let mut sys =
            ProductionSystem::from_source(programs::MONKEY_BANANAS, kind, Strategy::Fifo).unwrap();
        for (class, t) in programs::monkey_bananas_wm() {
            sys.insert(class, t).unwrap();
        }
        let out = sys.run(50);
        assert_eq!(
            out.end,
            EndReason::Halted,
            "{}: plan reaches the bananas",
            kind.label()
        );
        assert_eq!(out.fired, 4, "{}", kind.label());
        assert_eq!(
            out.writes,
            programs::monkey_bananas_plan(),
            "{}",
            kind.label()
        );
        // Final world: monkey on the ladder at the bananas, holding them.
        assert_eq!(
            sys.wm("Monkey").unwrap(),
            vec![tuple!["center", "ladder", "bananas"]],
            "{}",
            kind.label()
        );
        assert!(sys
            .wm("Goal")
            .unwrap()
            .contains(&tuple!["satisfied", "holds", "bananas"]));
    }
}

#[test]
fn inventory_workflow_raises_and_clears_pos() {
    for kind in EngineKind::ALL {
        let mut sys =
            ProductionSystem::from_source(programs::INVENTORY, kind, Strategy::Fifo).unwrap();
        for (class, t) in programs::inventory_wm() {
            sys.insert(class, t).unwrap();
        }
        let out = sys.run(50);
        assert_eq!(out.end, EndReason::Quiescent, "{}", kind.label());
        // widget (2 < 10) and sprocket (0 < 5) trigger POs; gadget does not.
        assert_eq!(sys.wm("PO").unwrap().len(), 2, "{}", kind.label());

        // A shipment arrives for the widget.
        sys.insert("Receipt", tuple!["widget", 40]).unwrap();
        let out = sys.run(50);
        assert!(out.fired >= 1, "{}", kind.label());
        assert!(
            sys.wm("PO").unwrap().contains(&tuple!["widget", "closed"]),
            "{}: widget PO closed",
            kind.label()
        );
        assert!(
            sys.wm("Product")
                .unwrap()
                .contains(&tuple!["widget", 40, 10]),
            "{}: stock replenished",
            kind.label()
        );
        assert!(sys.wm("Receipt").unwrap().is_empty(), "{}", kind.label());
        // The sprocket PO stays open.
        assert!(sys.wm("PO").unwrap().contains(&tuple!["sprocket", "open"]));
    }
}

#[test]
fn reordering_after_receipt_consumption() {
    // After closing, dropping stock again must not raise a second PO while
    // the closed one exists (the negated CE sees any PO for the sku).
    let mut sys =
        ProductionSystem::from_source(programs::INVENTORY, EngineKind::Cond, Strategy::Fifo)
            .unwrap();
    sys.insert("Product", tuple!["widget", 2, 10]).unwrap();
    sys.run(50);
    assert_eq!(sys.wm("PO").unwrap().len(), 1);
    sys.insert("Receipt", tuple!["widget", 40]).unwrap();
    sys.run(50);
    // Stock drops again.
    sys.remove("Product", &tuple!["widget", 40, 10]).unwrap();
    sys.insert("Product", tuple!["widget", 1, 10]).unwrap();
    sys.run(50);
    assert_eq!(
        sys.wm("PO").unwrap().len(),
        1,
        "closed PO blocks re-raising"
    );
}
