//! Aggregation queries.

use serde::{Deserialize, Serialize};

use crate::agg::AggExpr;
use crate::groupby::{hash_group_by, meter, parallel_group_by, LoweredAgg};
use crate::{
    AggFunc, AggSpec, DataType, EngineError, ExecStats, MaterializedView, Predicate, Schema, Table,
};

/// A roll-up aggregation query: `SELECT group_by…, agg(…)… FROM t [WHERE …]
/// GROUP BY group_by…`.
///
/// This is the query class of the paper's workload ("total profit per year
/// and per country") and the only class its materialized views need to
/// serve.
#[derive(Debug, Clone, PartialEq)]
pub struct AggQuery {
    /// Query identifier, used in workload definitions and reports.
    pub name: String,
    /// Group-by column names (order defines output order).
    pub group_by: Vec<String>,
    /// Requested aggregates (at least one).
    pub aggregates: Vec<AggSpec>,
    /// Optional row filter.
    pub predicate: Option<Predicate>,
}

impl AggQuery {
    /// Builds a query; `group_by` may be empty (grand total).
    pub fn new(name: impl Into<String>, group_by: &[&str], aggregates: Vec<AggSpec>) -> Self {
        AggQuery {
            name: name.into(),
            group_by: group_by.iter().map(|s| s.to_string()).collect(),
            aggregates,
            predicate: None,
        }
    }

    /// Adds a filter.
    pub fn with_predicate(mut self, predicate: Predicate) -> Self {
        self.predicate = Some(predicate);
        self
    }

    /// Validates the query against `schema` and lowers the aggregates to
    /// executor expressions.
    fn plan(&self, schema: &Schema) -> Result<(Vec<usize>, Vec<LoweredAgg>), EngineError> {
        if self.aggregates.is_empty() {
            return Err(EngineError::NoAggregates);
        }
        let mut group_cols = Vec::with_capacity(self.group_by.len());
        for (i, name) in self.group_by.iter().enumerate() {
            if self.group_by[..i].contains(name) {
                return Err(EngineError::DuplicateGroupColumn { name: name.clone() });
            }
            group_cols.push(schema.index_of(name)?);
        }
        let mut lowered = Vec::with_capacity(self.aggregates.len());
        for spec in &self.aggregates {
            let expr = match (spec.func, &spec.column) {
                (AggFunc::Count, _) => AggExpr::Count,
                (func, Some(col_name)) => {
                    let col = schema.index_of(col_name)?;
                    let field = &schema.fields()[col];
                    if field.dtype != DataType::Int {
                        return Err(EngineError::TypeMismatch {
                            column: col_name.clone(),
                            expected: "int",
                            actual: field.dtype.name(),
                        });
                    }
                    match func {
                        AggFunc::Sum => AggExpr::Sum { col },
                        AggFunc::Min => AggExpr::Min { col },
                        AggFunc::Max => AggExpr::Max { col },
                        AggFunc::Avg => AggExpr::Avg { col },
                        AggFunc::Count => unreachable!("handled above"),
                    }
                }
                (func, None) => {
                    return Err(EngineError::UnknownColumn {
                        name: format!("<missing input column for {}>", func.name()),
                    })
                }
            };
            lowered.push(LoweredAgg {
                expr,
                alias: spec.alias.clone(),
            });
        }
        Ok((group_cols, lowered))
    }

    /// Executes against `table`, returning the result and metering record.
    pub fn execute(&self, table: &Table) -> Result<(Table, ExecStats), EngineError> {
        self.execute_with_threads(table, 1)
    }

    /// Executes with a thread budget (1 = serial). Results are identical to
    /// [`AggQuery::execute`]; only wall-clock differs.
    pub fn execute_with_threads(
        &self,
        table: &Table,
        threads: usize,
    ) -> Result<(Table, ExecStats), EngineError> {
        let (group_cols, lowered) = self.plan(table.schema())?;
        let mask = match &self.predicate {
            Some(p) => Some(p.eval(table)?),
            None => None,
        };
        let out = if threads > 1 {
            parallel_group_by(table, &group_cols, &lowered, mask.as_deref(), threads)?
        } else {
            hash_group_by(table, &group_cols, &lowered, mask.as_deref())?
        };
        let stats = meter(
            table.schema(),
            table.num_rows(),
            &group_cols,
            &lowered,
            self.predicate.as_ref(),
            Some(&out),
        );
        Ok((out, stats))
    }

    /// The stats [`AggQuery::execute`] reports for a run over `table`
    /// that yields `out`, computed from their shapes without scanning.
    pub fn meter(&self, table: &Table, out: &Table) -> Result<ExecStats, EngineError> {
        let (group_cols, lowered) = self.plan(table.schema())?;
        Ok(meter(
            table.schema(),
            table.num_rows(),
            &group_cols,
            &lowered,
            self.predicate.as_ref(),
            Some(out),
        ))
    }

    /// Answers the query from `view` — a group-by over the view's rows
    /// only — but reports the stats executing it over `base` would: the
    /// same result, charged as the base scan.
    pub fn execute_via(
        &self,
        view: &MaterializedView,
        base: &Table,
    ) -> Result<(Table, ExecStats), EngineError> {
        let (out, _) = view.answer(self)?;
        let stats = self.meter(base, &out)?;
        Ok((out, stats))
    }
}

/// Serializable description of a query (without predicates), used in
/// experiment configs. Lossless for the paper's workload class.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryShape {
    /// Query identifier.
    pub name: String,
    /// Group-by column names.
    pub group_by: Vec<String>,
}

impl From<&AggQuery> for QueryShape {
    fn from(q: &AggQuery) -> Self {
        QueryShape {
            name: q.name.clone(),
            group_by: q.group_by.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpOp, TableBuilder, Value};

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

    #[test]
    fn basic_rollup() {
        let q = AggQuery::new("q1", &["country"], vec![AggSpec::sum("profit")]);
        let (out, stats) = q.execute(&sales()).unwrap();
        assert_eq!(
            out.to_sorted_rows(),
            vec![
                vec![Value::from("France"), Value::Int(75)],
                vec![Value::from("Italy"), Value::Int(73)],
            ]
        );
        assert_eq!(stats.groups, 2);
    }

    #[test]
    fn multiple_aggregates() {
        let q = AggQuery::new(
            "q",
            &["year"],
            vec![
                AggSpec::sum("profit"),
                AggSpec::count(),
                AggSpec::min("profit"),
                AggSpec::max("profit"),
                AggSpec::avg("profit"),
            ],
        );
        let (out, _) = q.execute(&sales()).unwrap();
        let rows = out.to_sorted_rows();
        // 1999: sum 50, count 1, min 50, max 50, avg 50.
        assert_eq!(
            rows[0],
            vec![
                Value::Int(1999),
                Value::Int(50),
                Value::Int(1),
                Value::Int(50),
                Value::Int(50),
                Value::Int(50)
            ]
        );
        // 2000: sum 98, count 3, min 23, max 40, avg 32.
        assert_eq!(
            rows[1],
            vec![
                Value::Int(2000),
                Value::Int(98),
                Value::Int(3),
                Value::Int(23),
                Value::Int(40),
                Value::Int(32)
            ]
        );
    }

    #[test]
    fn predicate_filters_and_meters() {
        let q = AggQuery::new("q", &["country"], vec![AggSpec::sum("profit")])
            .with_predicate(Predicate::cmp("year", CmpOp::Ge, 2000));
        let (out, stats) = q.execute(&sales()).unwrap();
        assert_eq!(
            out.to_sorted_rows(),
            vec![
                vec![Value::from("France"), Value::Int(75)],
                vec![Value::from("Italy"), Value::Int(23)],
            ]
        );
        // Predicate scanned the year column (8 bytes/row) on top of the
        // aggregation's own scan.
        assert!(stats.bytes_scanned > 4 * (4 + 8));
    }

    #[test]
    fn validation_errors() {
        let t = sales();
        let no_agg = AggQuery::new("q", &["year"], vec![]);
        assert_eq!(no_agg.execute(&t).unwrap_err(), EngineError::NoAggregates);

        let dup = AggQuery::new("q", &["year", "year"], vec![AggSpec::count()]);
        assert!(matches!(
            dup.execute(&t).unwrap_err(),
            EngineError::DuplicateGroupColumn { .. }
        ));

        let missing = AggQuery::new("q", &["nope"], vec![AggSpec::count()]);
        assert!(matches!(
            missing.execute(&t).unwrap_err(),
            EngineError::UnknownColumn { .. }
        ));

        let str_sum = AggQuery::new("q", &[], vec![AggSpec::sum("country")]);
        assert!(matches!(
            str_sum.execute(&t).unwrap_err(),
            EngineError::TypeMismatch { .. }
        ));

        let no_col = AggQuery::new(
            "q",
            &[],
            vec![AggSpec {
                func: AggFunc::Sum,
                column: None,
                alias: "s".into(),
            }],
        );
        assert!(matches!(
            no_col.execute(&t).unwrap_err(),
            EngineError::UnknownColumn { .. }
        ));
    }

    #[test]
    fn threads_do_not_change_results() {
        let q = AggQuery::new(
            "q",
            &["year", "country"],
            vec![AggSpec::sum("profit"), AggSpec::avg("profit")],
        );
        let (serial, _) = q.execute(&sales()).unwrap();
        let (par, _) = q.execute_with_threads(&sales(), 4).unwrap();
        assert_eq!(serial.to_sorted_rows(), par.to_sorted_rows());
    }

    #[test]
    fn shape_roundtrip() {
        let q = AggQuery::new("q1", &["year", "country"], vec![AggSpec::sum("profit")]);
        let shape = QueryShape::from(&q);
        assert_eq!(shape.name, "q1");
        assert_eq!(shape.group_by, vec!["year", "country"]);
    }
}
