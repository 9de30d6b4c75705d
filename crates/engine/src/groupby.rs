//! Hash aggregation.
//!
//! The single physical operator this engine needs: scan the input columns,
//! build a hash table keyed on the group columns' integer keys, fold each
//! row into per-group accumulators, then emit one output row per group.
//! A parallel variant partitions the input, aggregates each partition
//! locally and merges the partial states — the same partial-aggregate/
//! combine structure MapReduce gave the paper's Pig Latin queries.

use crate::agg::{AggExpr, AggState};
use crate::fx::FxHashMap;
use crate::{Column, DataType, EngineError, ExecStats, Field, Predicate, Schema, Table};

/// A lowered aggregate with its output column name.
#[derive(Debug, Clone)]
pub(crate) struct LoweredAgg {
    pub expr: AggExpr,
    pub alias: String,
}

/// Partial aggregation state: group keys -> accumulator block, plus a
/// representative input row per group for decoding key values.
struct Partial {
    index: FxHashMap<Box<[i64]>, usize>,
    states: Vec<AggState>,
    rep_rows: Vec<usize>,
    n_aggs: usize,
}

impl Partial {
    fn new(n_aggs: usize) -> Self {
        Partial {
            index: FxHashMap::default(),
            states: Vec::new(),
            rep_rows: Vec::new(),
            n_aggs,
        }
    }

    #[inline]
    fn group_index(&mut self, key: &[i64], row: usize, exprs: &[LoweredAgg]) -> usize {
        if let Some(&g) = self.index.get(key) {
            return g;
        }
        let g = self.rep_rows.len();
        self.index.insert(key.into(), g);
        self.rep_rows.push(row);
        for a in exprs {
            self.states.push(a.expr.init());
        }
        debug_assert_eq!(self.states.len(), (g + 1) * self.n_aggs);
        g
    }
}

/// Runs hash aggregation over `table`.
///
/// * `group_cols` — input column indices forming the key (order defines the
///   output column order);
/// * `aggs` — lowered aggregate expressions with output names;
/// * `mask` — optional row filter (from a predicate evaluation).
///
/// The work it performed is [`meter`]ed separately, from shapes alone.
pub(crate) fn hash_group_by(
    table: &Table,
    group_cols: &[usize],
    aggs: &[LoweredAgg],
    mask: Option<&[bool]>,
) -> Result<Table, EngineError> {
    let partial = aggregate_range(table, group_cols, aggs, mask, 0, table.num_rows());
    build_output(table, group_cols, aggs, partial, mask)
}

/// Parallel hash aggregation: splits rows into `threads` ranges, aggregates
/// each on its own thread, then merges partials. Produces exactly the same
/// result as [`hash_group_by`] (asserted by tests), only faster.
pub(crate) fn parallel_group_by(
    table: &Table,
    group_cols: &[usize],
    aggs: &[LoweredAgg],
    mask: Option<&[bool]>,
    threads: usize,
) -> Result<Table, EngineError> {
    let threads = threads.max(1);
    let rows = table.num_rows();
    if threads == 1 || rows < 2 * threads {
        return hash_group_by(table, group_cols, aggs, mask);
    }
    let chunk = rows.div_ceil(threads);
    let mut partials: Vec<Partial> = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let start = t * chunk;
            let end = ((t + 1) * chunk).min(rows);
            if start >= end {
                continue;
            }
            handles.push(
                scope.spawn(move |_| aggregate_range(table, group_cols, aggs, mask, start, end)),
            );
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("aggregation worker panicked"))
            .collect()
    })
    .expect("crossbeam scope failed");

    // Merge partials into the first one.
    let mut merged = partials.remove(0);
    for partial in partials {
        for (key, &g_src) in &partial.index {
            let rep = partial.rep_rows[g_src];
            let g_dst = merged.group_index(key, rep, aggs);
            for (a, agg) in aggs.iter().enumerate() {
                let src = partial.states[g_src * partial.n_aggs + a];
                merge_state(
                    agg.expr,
                    &mut merged.states[g_dst * merged.n_aggs + a],
                    &src,
                );
            }
        }
    }
    build_output(table, group_cols, aggs, merged, mask)
}

/// Folds `other` into `state` (partial-aggregate combine step).
fn merge_state(expr: AggExpr, state: &mut AggState, other: &AggState) {
    match (expr, state, other) {
        (
            AggExpr::Sum { .. }
            | AggExpr::Count
            | AggExpr::Avg { .. }
            | AggExpr::RatioOfSums { .. },
            AggState::SumCount { sum, count },
            AggState::SumCount { sum: s2, count: c2 },
        ) => {
            *sum += s2;
            *count += c2;
        }
        (
            AggExpr::Min { .. },
            AggState::MinMax { value, seen },
            AggState::MinMax {
                value: v2,
                seen: s2,
            },
        ) => {
            if *s2 && (!*seen || v2 < value) {
                *value = *v2;
                *seen = true;
            }
        }
        (
            AggExpr::Max { .. },
            AggState::MinMax { value, seen },
            AggState::MinMax {
                value: v2,
                seen: s2,
            },
        ) => {
            if *s2 && (!*seen || v2 > value) {
                *value = *v2;
                *seen = true;
            }
        }
        _ => unreachable!("accumulator state mismatch"),
    }
}

/// Aggregates rows `start..end` into a fresh partial.
fn aggregate_range(
    table: &Table,
    group_cols: &[usize],
    aggs: &[LoweredAgg],
    mask: Option<&[bool]>,
    start: usize,
    end: usize,
) -> Partial {
    let mut partial = Partial::new(aggs.len());
    let columns = table.columns();
    let get = |col: usize, row: usize| -> i64 {
        match &columns[col] {
            Column::Int(v) => v[row],
            Column::Str { codes, .. } => codes[row] as i64,
        }
    };
    let mut key: Vec<i64> = vec![0; group_cols.len()];
    for row in start..end {
        if let Some(m) = mask {
            if !m[row] {
                continue;
            }
        }
        for (i, &c) in group_cols.iter().enumerate() {
            key[i] = columns[c].key_at(row);
        }
        let g = partial.group_index(&key, row, aggs);
        let base = g * partial.n_aggs;
        for (a, agg) in aggs.iter().enumerate() {
            agg.expr.update(&mut partial.states[base + a], &get, row);
        }
    }
    partial
}

/// Emits the output table: group columns + one Int column per aggregate.
fn build_output(
    table: &Table,
    group_cols: &[usize],
    aggs: &[LoweredAgg],
    partial: Partial,
    mask: Option<&[bool]>,
) -> Result<Table, EngineError> {
    let in_schema = table.schema();
    let mut fields: Vec<Field> = Vec::with_capacity(group_cols.len() + aggs.len());
    for &c in group_cols {
        fields.push(in_schema.fields()[c].clone());
    }
    for a in aggs {
        fields.push(Field::new(a.alias.clone(), DataType::Int));
    }
    let out_schema = Schema::new(fields)?;

    let n_groups = partial.rep_rows.len();
    // Selected rows bound the group count.
    debug_assert!(
        n_groups
            <= mask
                .map_or(table.num_rows(), |m| m.iter().filter(|&&b| b).count())
                .max(1)
    );
    let mut out_cols: Vec<Column> = out_schema
        .fields()
        .iter()
        .map(|f| Column::empty(f.dtype))
        .collect();

    // Emit groups in insertion order: deterministic given input order.
    for g in 0..n_groups {
        let rep = partial.rep_rows[g];
        for (i, &c) in group_cols.iter().enumerate() {
            match table.column(c) {
                Column::Int(v) => out_cols[i].push_int(v[rep]),
                Column::Str { codes, dict } => out_cols[i].push_str(dict.decode(codes[rep])),
            }
        }
        for (a, agg) in aggs.iter().enumerate() {
            let v = agg.expr.finish(&partial.states[g * partial.n_aggs + a]);
            out_cols[group_cols.len() + a].push_int(v);
        }
    }

    Table::new(out_schema, out_cols)
}

/// Metering of one aggregation pass over `rows` rows of `schema` — the
/// one place the engine's width rules live, so a pass metered from
/// shapes alone reports what executing it reports.
///
/// A columnar scan reads every referenced input column over all rows:
/// the group columns, the predicate's columns (mask evaluation) and each
/// aggregate input, counted per reference. `out`, the pass's result,
/// fills in the produced side (rows, bytes, one group per row); without
/// it only the scan side is set.
pub(crate) fn meter(
    schema: &Schema,
    rows: usize,
    group_cols: &[usize],
    aggs: &[LoweredAgg],
    predicate: Option<&Predicate>,
    out: Option<&Table>,
) -> ExecStats {
    let mut width: u64 = group_cols
        .iter()
        .map(|&c| schema.fields()[c].dtype.byte_width())
        .sum();
    if let Some(p) = predicate {
        width += p
            .columns()
            .iter()
            .map(|c| schema.field(c).map(|f| f.dtype.byte_width()).unwrap_or(0))
            .sum::<u64>();
    }
    for a in aggs {
        width += match a.expr {
            AggExpr::Sum { .. }
            | AggExpr::Min { .. }
            | AggExpr::Max { .. }
            | AggExpr::Avg { .. } => 8,
            AggExpr::Count => 0,
            AggExpr::RatioOfSums { .. } => 16,
        };
    }
    let rows = rows as u64;
    let (rows_out, bytes_out) = out.map_or((0, 0), |t| {
        let n = t.num_rows() as u64;
        (n, n * t.schema().row_byte_width())
    });
    ExecStats {
        rows_scanned: rows,
        bytes_scanned: rows * width,
        rows_out,
        bytes_out,
        groups: rows_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataType, TableBuilder, Value};

    fn sales() -> Table {
        TableBuilder::new(&[
            ("year", DataType::Int),
            ("country", DataType::Str),
            ("profit", DataType::Int),
        ])
        .unwrap()
        .row(&[2000.into(), "France".into(), 35.into()])
        .unwrap()
        .row(&[2000.into(), "France".into(), 40.into()])
        .unwrap()
        .row(&[2000.into(), "Italy".into(), 23.into()])
        .unwrap()
        .row(&[1999.into(), "Italy".into(), 50.into()])
        .unwrap()
        .build()
    }

    fn sum_profit() -> Vec<LoweredAgg> {
        vec![LoweredAgg {
            expr: AggExpr::Sum { col: 2 },
            alias: "sum_profit".to_string(),
        }]
    }

    #[test]
    fn groups_and_sums() {
        let t = sales();
        let out = hash_group_by(&t, &[0, 1], &sum_profit(), None).unwrap();
        let stats = meter(
            t.schema(),
            t.num_rows(),
            &[0, 1],
            &sum_profit(),
            None,
            Some(&out),
        );
        let rows = out.to_sorted_rows();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1999), "Italy".into(), Value::Int(50)],
                vec![Value::Int(2000), "France".into(), Value::Int(75)],
                vec![Value::Int(2000), "Italy".into(), Value::Int(23)],
            ]
        );
        assert_eq!(stats.rows_scanned, 4);
        assert_eq!(stats.groups, 3);
        assert_eq!(stats.rows_out, 3);
        // year(8) + country(4) + profit(8) per row.
        assert_eq!(stats.bytes_scanned, 4 * 20);
    }

    #[test]
    fn empty_group_key_is_grand_total() {
        let t = sales();
        let out = hash_group_by(&t, &[], &sum_profit(), None).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0), vec![Value::Int(148)]);
    }

    #[test]
    fn mask_filters_rows() {
        let t = sales();
        let mask = vec![true, false, true, false];
        let out = hash_group_by(&t, &[1], &sum_profit(), Some(&mask)).unwrap();
        assert_eq!(
            out.to_sorted_rows(),
            vec![
                vec![Value::from("France"), Value::Int(35)],
                vec![Value::from("Italy"), Value::Int(23)],
            ]
        );
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let t = TableBuilder::new(&[("a", DataType::Int), ("v", DataType::Int)])
            .unwrap()
            .build();
        let aggs = vec![LoweredAgg {
            expr: AggExpr::Sum { col: 1 },
            alias: "s".into(),
        }];
        let out = hash_group_by(&t, &[0], &aggs, None).unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(
            meter(t.schema(), 0, &[0], &aggs, None, Some(&out)).groups,
            0
        );
    }

    #[test]
    fn parallel_matches_serial() {
        // Large-ish synthetic input exercising the merge path.
        let mut b = TableBuilder::new(&[
            ("k", DataType::Int),
            ("s", DataType::Str),
            ("v", DataType::Int),
        ])
        .unwrap();
        for i in 0..1000i64 {
            b = b
                .row(&[
                    Value::Int(i % 7),
                    Value::from(if i % 3 == 0 { "x" } else { "y" }),
                    Value::Int(i),
                ])
                .unwrap();
        }
        let t = b.build();
        let aggs = vec![
            LoweredAgg {
                expr: AggExpr::Sum { col: 2 },
                alias: "sum_v".into(),
            },
            LoweredAgg {
                expr: AggExpr::Count,
                alias: "count_rows".into(),
            },
            LoweredAgg {
                expr: AggExpr::Min { col: 2 },
                alias: "min_v".into(),
            },
            LoweredAgg {
                expr: AggExpr::Max { col: 2 },
                alias: "max_v".into(),
            },
            LoweredAgg {
                expr: AggExpr::Avg { col: 2 },
                alias: "avg_v".into(),
            },
        ];
        let serial = hash_group_by(&t, &[0, 1], &aggs, None).unwrap();
        for threads in [2, 3, 8] {
            let par = parallel_group_by(&t, &[0, 1], &aggs, None, threads).unwrap();
            assert_eq!(
                serial.to_sorted_rows(),
                par.to_sorted_rows(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn parallel_with_mask_matches_serial() {
        let mut b = TableBuilder::new(&[("k", DataType::Int), ("v", DataType::Int)]).unwrap();
        for i in 0..500i64 {
            b = b.row(&[Value::Int(i % 5), Value::Int(i)]).unwrap();
        }
        let t = b.build();
        let mask: Vec<bool> = (0..500).map(|i| i % 2 == 0).collect();
        let aggs = vec![LoweredAgg {
            expr: AggExpr::Sum { col: 1 },
            alias: "s".into(),
        }];
        let serial = hash_group_by(&t, &[0], &aggs, Some(&mask)).unwrap();
        let par = parallel_group_by(&t, &[0], &aggs, Some(&mask), 4).unwrap();
        assert_eq!(serial.to_sorted_rows(), par.to_sorted_rows());
    }

    #[test]
    fn small_input_falls_back_to_serial() {
        let t = sales();
        let out = parallel_group_by(&t, &[1], &sum_profit(), None, 8).unwrap();
        assert_eq!(out.num_rows(), 2);
    }
}
