//! Property-based invariants of the engine.
//!
//! The central soundness property of the whole reproduction is tested here:
//! **answering a roll-up query from any coarser materialized view returns
//! exactly the same result as answering it from the base table.** All of
//! the paper's time savings rest on this rewrite being lossless.

use mv_engine::{
    AggQuery, AggSpec, CmpOp, DataType, EngineError, ExecStats, MaterializedView, Predicate, Table,
    TableBuilder, Value, ViewDefinition,
};
use proptest::prelude::*;

/// The hierarchy prefixes of the sales schema: any query/view key is a
/// (time-prefix, geo-prefix) pair, mirroring the paper's lattice.
const TIME_LEVELS: [&[&str]; 4] = [
    &[],
    &["year"],
    &["year", "month"],
    &["year", "month", "day"],
];
const GEO_LEVELS: [&[&str]; 4] = [
    &[],
    &["country"],
    &["country", "region"],
    &["country", "region", "department"],
];

fn key_columns(time: usize, geo: usize) -> Vec<&'static str> {
    let mut cols: Vec<&'static str> = TIME_LEVELS[time].to_vec();
    cols.extend_from_slice(GEO_LEVELS[geo]);
    cols
}

/// Random small sales table: rows over a constrained domain so that groups
/// collide often (exercising accumulator merges).
fn arb_sales(max_rows: usize) -> impl Strategy<Value = Table> {
    proptest::collection::vec(
        (
            2000i64..2003,
            1i64..4,
            1i64..5,
            0usize..3,
            0usize..2,
            0usize..2,
            -500i64..500,
        ),
        1..max_rows,
    )
    .prop_map(|rows| {
        let countries = ["France", "Italy", "Spain"];
        let regions = ["R0", "R1"];
        let departments = ["D0", "D1"];
        let mut b = TableBuilder::new(&[
            ("year", DataType::Int),
            ("month", DataType::Int),
            ("day", DataType::Int),
            ("country", DataType::Str),
            ("region", DataType::Str),
            ("department", DataType::Str),
            ("profit", DataType::Int),
        ])
        .unwrap();
        for (y, m, d, c, r, dep, p) in rows {
            b = b
                .row(&[
                    Value::Int(y),
                    Value::Int(m),
                    Value::Int(d),
                    Value::from(countries[c]),
                    Value::from(format!("{}-{}", countries[c], regions[r])),
                    Value::from(format!(
                        "{}-{}-{}",
                        countries[c], regions[r], departments[dep]
                    )),
                    Value::Int(p),
                ])
                .unwrap();
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any coarser-or-equal view answers any query identically to the base.
    #[test]
    fn view_rewrite_is_lossless(
        table in arb_sales(60),
        vt in 0usize..4, vg in 0usize..4,
        qt in 0usize..4, qg in 0usize..4,
    ) {
        // Make the view at least as fine as the query on both dimensions.
        let (vt, vg) = (vt.max(qt), vg.max(qg));
        let view_cols = key_columns(vt, vg);
        let query_cols = key_columns(qt, qg);

        let aggs = vec![
            AggSpec::sum("profit"),
            AggSpec::count(),
            AggSpec::min("profit"),
            AggSpec::max("profit"),
            AggSpec::avg("profit"),
        ];
        let def = ViewDefinition::canonical("v", &view_cols, &aggs);
        let view = MaterializedView::materialize(def, &table).unwrap();

        let q = AggQuery::new("q", &query_cols, aggs);
        prop_assert!(view.can_answer(&q).is_ok());
        let (from_base, _) = q.execute(&table).unwrap();
        let (from_view, _) = view.answer(&q).unwrap();
        prop_assert_eq!(from_base.to_sorted_rows(), from_view.to_sorted_rows());
    }

    /// Predicates on view key columns push down losslessly.
    #[test]
    fn predicated_rewrite_is_lossless(
        table in arb_sales(60),
        year in 2000i64..2003,
    ) {
        let def = ViewDefinition::canonical(
            "v",
            &["year", "month", "country"],
            &[AggSpec::sum("profit")],
        );
        let view = MaterializedView::materialize(def, &table).unwrap();
        let q = AggQuery::new("q", &["country"], vec![AggSpec::sum("profit")])
            .with_predicate(Predicate::cmp("year", CmpOp::Ge, year));
        let (from_base, _) = q.execute(&table).unwrap();
        let (from_view, _) = view.answer(&q).unwrap();
        prop_assert_eq!(from_base.to_sorted_rows(), from_view.to_sorted_rows());
    }

    /// Incremental maintenance equals full recomputation after any split of
    /// the data into base + delta.
    #[test]
    fn incremental_refresh_equals_full(
        table in arb_sales(60),
        split_pct in 10usize..90,
    ) {
        let split = (table.num_rows() * split_pct / 100).max(1).min(table.num_rows());
        let mut base = Table::empty(table.schema().clone());
        let mut delta = Table::empty(table.schema().clone());
        for r in 0..table.num_rows() {
            let row = table.row(r);
            if r < split {
                base.push_row(&row).unwrap();
            } else {
                delta.push_row(&row).unwrap();
            }
        }
        let def = ViewDefinition::canonical(
            "v",
            &["year", "country"],
            &[AggSpec::sum("profit"), AggSpec::min("profit"), AggSpec::max("profit")],
        );
        let mut incremental = MaterializedView::materialize(def.clone(), &base).unwrap();
        incremental.refresh_incremental(&delta).unwrap();
        let full = MaterializedView::materialize(def, &table).unwrap();
        prop_assert_eq!(
            incremental.data().to_sorted_rows(),
            full.data().to_sorted_rows()
        );
    }

    /// Thread count never changes results.
    #[test]
    fn parallel_equals_serial(table in arb_sales(80), threads in 2usize..6) {
        let q = AggQuery::new(
            "q",
            &["year", "country"],
            vec![AggSpec::sum("profit"), AggSpec::avg("profit"), AggSpec::count()],
        );
        let (serial, _) = q.execute(&table).unwrap();
        let (parallel, _) = q.execute_with_threads(&table, threads).unwrap();
        prop_assert_eq!(serial.to_sorted_rows(), parallel.to_sorted_rows());
    }

    /// Aggregation invariants: the output group count never exceeds the
    /// input row count; SUM over all groups equals the column's total.
    #[test]
    fn aggregation_conservation(table in arb_sales(80)) {
        let q = AggQuery::new("q", &["year", "month", "country"], vec![AggSpec::sum("profit")]);
        let (out, stats) = q.execute(&table).unwrap();
        prop_assert!(out.num_rows() <= table.num_rows());
        prop_assert_eq!(stats.groups as usize, out.num_rows());

        let total_in: i64 = table
            .column_by_name("profit").unwrap()
            .as_int().unwrap()
            .iter()
            .sum();
        let total_out: i64 = out
            .column_by_name("sum_profit").unwrap()
            .as_int().unwrap()
            .iter()
            .sum();
        prop_assert_eq!(total_in, total_out);
    }
}

/// Every group-by column of the sales schema: Int keys then Str keys.
const KEY_COLUMNS: [&str; 6] = ["year", "month", "day", "country", "region", "department"];

/// The columns of `cols` whose bit is set in `mask`, in order.
fn pick<'a>(cols: &[&'a str], mask: u8) -> Vec<&'a str> {
    cols.iter()
        .enumerate()
        .filter(|(i, _)| mask >> i & 1 == 1)
        .map(|(_, c)| *c)
        .collect()
}

/// The aggregates whose bit is set in `mask` (SUM, COUNT, MIN, MAX, AVG).
fn aggregates(mask: u8) -> Vec<AggSpec> {
    let all = [
        AggSpec::sum("profit"),
        AggSpec::count(),
        AggSpec::min("profit"),
        AggSpec::max("profit"),
        AggSpec::avg("profit"),
    ];
    (0..all.len())
        .filter(|i| mask >> i & 1 == 1)
        .map(|i| all[i].clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A roll-up along any chain top ⊇ parent ⊇ child of key sets and
    /// measure sets is the view materialized from the base: the same
    /// data in the same row order, and the base scan's build stats.
    #[test]
    fn rollup_equals_materialize(
        table in arb_sales(80),
        top_mask in 0u8..64, parent_mask in 0u8..64, child_mask in 0u8..64,
        top_aggs in 0u8..32, parent_aggs in 0u8..32, child_aggs in 0u8..32,
    ) {
        let top_cols = pick(&KEY_COLUMNS, top_mask);
        let parent_cols = pick(&top_cols, parent_mask);
        let child_cols = pick(&parent_cols, child_mask);
        let (parent_aggs, child_aggs) = (top_aggs & parent_aggs, top_aggs & parent_aggs & child_aggs);
        let top = MaterializedView::materialize(
            ViewDefinition::canonical("top", &top_cols, &aggregates(top_aggs)),
            &table,
        )
        .unwrap();
        let parent_def = ViewDefinition::canonical("parent", &parent_cols, &aggregates(parent_aggs));
        let parent = MaterializedView::rollup(parent_def.clone(), &top, &table).unwrap();
        prop_assert_eq!(&parent, &MaterializedView::materialize(parent_def, &table).unwrap());
        let child_def = ViewDefinition::canonical("child", &child_cols, &aggregates(child_aggs));
        let child = MaterializedView::rollup(child_def.clone(), &parent, &table).unwrap();
        prop_assert_eq!(child, MaterializedView::materialize(child_def, &table).unwrap());
    }

    /// Rolling up from a parent that lacks a key column or a measure
    /// the child needs is a typed error.
    #[test]
    fn rollup_from_a_non_ancestor_is_rejected(
        table in arb_sales(40),
        parent_mask in 0u8..63, extra in 0usize..6, aggs in 0u8..32,
    ) {
        let parent_cols = pick(&KEY_COLUMNS, parent_mask);
        let parent = MaterializedView::materialize(
            ViewDefinition::canonical("parent", &parent_cols, &aggregates(aggs)),
            &table,
        )
        .unwrap();
        // A key column the parent lacks: the first one at or after `extra`.
        let missing = (0..6)
            .map(|i| KEY_COLUMNS[(extra + i) % 6])
            .find(|c| !parent_cols.contains(c))
            .unwrap();
        let mut child_cols = parent_cols.clone();
        child_cols.push(missing);
        let finer = ViewDefinition::canonical("finer", &child_cols, &aggregates(aggs));
        prop_assert!(matches!(
            MaterializedView::rollup(finer, &parent, &table),
            Err(EngineError::ViewCannotAnswer { .. })
        ));
        // MIN and MAX are stored only when requested.
        if aggs & 0b1100 != 0b1100 {
            let other = ViewDefinition::canonical("other", &parent_cols, &aggregates(0b1100));
            prop_assert!(matches!(
                MaterializedView::rollup(other, &parent, &table),
                Err(EngineError::ViewCannotAnswer { .. })
            ));
        }
    }

    /// Metering from shapes alone reports what running the group-by
    /// reports: `AggQuery::meter` equals `execute`'s stats (serial and
    /// parallel), and `meter_answer` equals the scan side of `answer`'s.
    #[test]
    fn shape_metering_equals_execution(
        table in arb_sales(80),
        view_mask in 0u8..64, query_mask in 0u8..64, aggs in 1u8..32,
        year in 1999i64..2004, filtered in prop::bool::ANY, threads in 1usize..4,
    ) {
        let mut view_cols = pick(&KEY_COLUMNS, view_mask);
        if !view_cols.contains(&"year") {
            view_cols.insert(0, "year");
        }
        let mut q = AggQuery::new("q", &pick(&view_cols, query_mask), aggregates(aggs));
        if filtered {
            q = q.with_predicate(Predicate::cmp("year", CmpOp::Ge, year));
        }
        let (out, stats) = q.execute_with_threads(&table, threads).unwrap();
        prop_assert_eq!(q.meter(&table, &out).unwrap(), stats);
        prop_assert_eq!(q.execute(&table).unwrap().1, stats);

        let view = MaterializedView::materialize(
            ViewDefinition::canonical("v", &view_cols, &aggregates(aggs)),
            &table,
        )
        .unwrap();
        let (_, answered) = view.answer(&q).unwrap();
        prop_assert_eq!(
            view.meter_answer(&q).unwrap(),
            ExecStats {
                rows_out: 0,
                bytes_out: 0,
                groups: 0,
                ..answered
            }
        );
        // Answered from the view, metered as the base scan: the serial
        // run's result in its row order, and its stats.
        prop_assert_eq!(q.execute_via(&view, &table).unwrap(), q.execute(&table).unwrap());
    }
}

/// Strategy for random roll-up SQL over the sales schema.
fn arb_sql() -> impl Strategy<Value = String> {
    let cols = proptest::sample::subsequence(
        vec!["year", "month", "day", "country", "region", "department"],
        0..4,
    );
    let aggs = proptest::sample::subsequence(
        vec![
            "SUM(profit)",
            "COUNT(*)",
            "MIN(profit)",
            "MAX(profit)",
            "AVG(profit)",
        ],
        1..5,
    );
    (cols, aggs, 2000i64..2003).prop_map(|(cols, aggs, year)| {
        let mut select: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
        select.extend(aggs.iter().map(|a| a.to_string()));
        let mut sql = format!(
            "SELECT {} FROM sales WHERE year >= {}",
            select.join(", "),
            year
        );
        if !cols.is_empty() {
            sql.push_str(&format!(" GROUP BY {}", cols.join(", ")));
        }
        sql
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any SQL of the supported subset parses, executes, and matches the
    /// hand-built equivalent query: the parser adds no semantics.
    #[test]
    fn sql_matches_hand_built_query(table in arb_sales(60), sql in arb_sql()) {
        let parsed = mv_engine::parse_query(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        prop_assert_eq!(parsed.table.as_str(), "sales");
        let (via_sql, _) = parsed.query.execute(&table).unwrap();
        // Build the same query programmatically.
        let hand = AggQuery {
            name: "hand".to_string(),
            group_by: parsed.query.group_by.clone(),
            aggregates: parsed.query.aggregates.clone(),
            predicate: parsed.query.predicate.clone(),
        };
        let (direct, _) = hand.execute(&table).unwrap();
        prop_assert_eq!(via_sql.to_sorted_rows(), direct.to_sorted_rows());
    }

    /// CSV roundtrips any generated table exactly.
    #[test]
    fn csv_roundtrip(table in arb_sales(80)) {
        let csv = mv_engine::csv::table_to_csv(&table);
        let back = mv_engine::csv::table_from_csv(&csv, table.schema()).unwrap();
        prop_assert_eq!(table.to_rows(), back.to_rows());
    }
}
