//! Integration: the cost-based optimizer running against generated TPC-H
//! data, cross-checked against reference evaluation.

use bufferdb::core::optimizer::{choose_join_plan, JoinCostModel, JoinQuery};
use bufferdb::prelude::*;
use bufferdb::tpch;

fn collect(plan: &PlanNode, catalog: &Catalog, cfg: &MachineConfig) -> Result<Vec<Tuple>> {
    execute_query(plan, catalog, cfg, &QueryOpts::new())
        .into_result()
        .map(|(rows, _, _)| rows)
}

fn lineitem_orders_join(catalog: &Catalog, cutoff: &str) -> JoinQuery {
    let l_ship = catalog
        .table("lineitem")
        .unwrap()
        .schema()
        .index_of("l_shipdate")
        .unwrap();
    JoinQuery {
        outer_table: "lineitem".into(),
        outer_predicate: Some(Expr::col(l_ship).le(Expr::lit(bufferdb::types::Datum::Date(
            Date::parse(cutoff).unwrap(),
        )))),
        outer_key: 0,
        inner_table: "orders".into(),
        inner_key: 0,
        inner_index: Some("orders_pkey".into()),
    }
}

#[test]
fn optimizer_switches_methods_with_selectivity() {
    let catalog = tpch::generate_catalog(0.002, 13);
    let cost = JoinCostModel::default();
    let selective = choose_join_plan(
        &lineitem_orders_join(&catalog, "1992-02-01"),
        &catalog,
        &cost,
    )
    .unwrap();
    let bulk = choose_join_plan(
        &lineitem_orders_join(&catalog, "1998-09-02"),
        &catalog,
        &cost,
    )
    .unwrap();
    assert_eq!(selective.method, "nestloop");
    assert_eq!(bulk.method, "hashjoin");
    assert!(selective.cost < bulk.cost);
}

#[test]
fn optimizer_plans_execute_correctly_and_refine_cleanly() {
    let catalog = tpch::generate_catalog(0.002, 13);
    let machine = MachineConfig::pentium4_like();
    let cost = JoinCostModel::default();
    for cutoff in ["1992-02-01", "1998-09-02"] {
        let choice =
            choose_join_plan(&lineitem_orders_join(&catalog, cutoff), &catalog, &cost).unwrap();
        let refined = refine_plan(&choice.plan, &catalog, &RefineConfig::default());
        let a = collect(&choice.plan, &catalog, &machine).unwrap();
        let b = collect(&refined, &catalog, &machine).unwrap();
        assert_eq!(a.len(), b.len(), "{cutoff}");
        // Reference: count matching lineitems directly.
        let li = catalog.table("lineitem").unwrap();
        let cut = Date::parse(cutoff).unwrap();
        let expected = li
            .rows()
            .iter()
            .filter(|r| r.get(10).as_date().unwrap() <= cut)
            .count();
        assert_eq!(a.len(), expected, "{cutoff}");
    }
}

#[test]
fn filter_and_limit_compose_with_buffers() {
    let catalog = tpch::generate_catalog(0.001, 13);
    let machine = MachineConfig::pentium4_like();
    let l_qty = catalog
        .table("lineitem")
        .unwrap()
        .schema()
        .index_of("l_quantity")
        .unwrap();
    let plan = PlanNode::Limit {
        input: Box::new(PlanNode::Filter {
            input: Box::new(PlanNode::Buffer {
                input: Box::new(PlanNode::SeqScan {
                    table: "lineitem".into(),
                    predicate: None,
                    projection: None,
                }),
                size: 64,
            }),
            predicate: Expr::col(l_qty).ge(Expr::lit(bufferdb::types::Datum::Decimal(
                Decimal::from_int(25),
            ))),
        }),
        limit: 10,
    };
    let rows = collect(&plan, &catalog, &machine).unwrap();
    assert_eq!(rows.len(), 10);
    for r in &rows {
        assert!(r.get(l_qty).as_decimal().unwrap() >= Decimal::from_int(25));
    }
    // Refinement over the composed plan stays valid and equivalent.
    let refined = refine_plan(&plan, &catalog, &RefineConfig::default());
    let rows2 = collect(&refined, &catalog, &machine).unwrap();
    assert_eq!(rows.len(), rows2.len());
}
