//! A concurrent catalog of materialized views.
//!
//! The paper's architecture materializes selected views "in the cloud" and
//! routes queries to them. The catalog is that routing table: named views
//! behind a read-write lock, with a best-view planner that picks the
//! cheapest (smallest) view able to answer a query — the `min` in the
//! selection evaluator's interaction model.

use std::sync::Arc;

use parking_lot::RwLock;

use crate::{AggQuery, EngineError, ExecStats, MaterializedView, Table};

/// Thread-safe named collection of materialized views.
#[derive(Debug, Default)]
pub struct ViewCatalog {
    views: RwLock<Vec<(String, Arc<MaterializedView>)>>,
}

impl ViewCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        ViewCatalog::default()
    }

    /// Registers a view under its definition name. Errors if the name is
    /// taken.
    pub fn register(&self, view: MaterializedView) -> Result<(), EngineError> {
        let name = view.def().name.clone();
        let mut views = self.views.write();
        if views.iter().any(|(n, _)| *n == name) {
            return Err(EngineError::ViewExists { name });
        }
        views.push((name, Arc::new(view)));
        Ok(())
    }

    /// Removes a view by name, returning it.
    pub fn deregister(&self, name: &str) -> Result<Arc<MaterializedView>, EngineError> {
        let mut views = self.views.write();
        match views.iter().position(|(n, _)| n == name) {
            Some(i) => Ok(views.remove(i).1),
            None => Err(EngineError::ViewNotFound {
                name: name.to_string(),
            }),
        }
    }

    /// Fetches a view by name.
    pub fn get(&self, name: &str) -> Result<Arc<MaterializedView>, EngineError> {
        self.views
            .read()
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| Arc::clone(v))
            .ok_or_else(|| EngineError::ViewNotFound {
                name: name.to_string(),
            })
    }

    /// Registered view names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.views.read().iter().map(|(n, _)| n.clone()).collect()
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.views.read().len()
    }

    /// `true` when no view is registered.
    pub fn is_empty(&self) -> bool {
        self.views.read().is_empty()
    }

    /// Incrementally refreshes every registered view with one insert
    /// batch, in registration order, returning each view's metered
    /// refresh work. Views are copy-on-write (`Arc::make_mut`), so
    /// readers holding a pre-refresh `Arc` keep a consistent snapshot.
    pub fn refresh_incremental_all(
        &self,
        delta: &Table,
    ) -> Result<Vec<(String, ExecStats)>, EngineError> {
        let mut views = self.views.write();
        let mut metered = Vec::with_capacity(views.len());
        for (name, view) in views.iter_mut() {
            let stats = Arc::make_mut(view).refresh_incremental(delta)?;
            metered.push((name.clone(), stats));
        }
        Ok(metered)
    }

    /// The smallest registered view able to answer `query`, if any —
    /// smallest by stored row count, which minimises the scan and therefore
    /// the simulated processing time.
    pub fn best_view_for(&self, query: &AggQuery) -> Option<Arc<MaterializedView>> {
        let views = self.views.read();
        smallest_answering(views.iter().map(|(_, v)| &**v), query).map(|i| Arc::clone(&views[i].1))
    }

    /// Executes `query`, answering from the best view when one applies and
    /// falling back to `base` otherwise. Returns the result, the metering
    /// record, and the name of the view used (if any).
    pub fn execute(
        &self,
        query: &AggQuery,
        base: &Table,
    ) -> Result<(Table, ExecStats, Option<String>), EngineError> {
        match self.best_view_for(query) {
            Some(view) => {
                let (out, stats) = view.answer(query)?;
                Ok((out, stats, Some(view.def().name.clone())))
            }
            None => {
                let (out, stats) = query.execute(base)?;
                Ok((out, stats, None))
            }
        }
    }
}

/// Position of the smallest view in `views` able to answer `query` —
/// smallest by stored row count, the first of equals on a tie. This is
/// the catalog's routing rule ([`ViewCatalog::best_view_for`]), shared
/// with callers that keep their own view pools.
pub fn smallest_answering<'a>(
    views: impl IntoIterator<Item = &'a MaterializedView>,
    query: &AggQuery,
) -> Option<usize> {
    views
        .into_iter()
        .enumerate()
        .filter(|(_, v)| v.can_answer(query).is_ok())
        .min_by_key(|(_, v)| v.data().num_rows())
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AggSpec, DataType, TableBuilder, ViewDefinition};

    fn base() -> Table {
        TableBuilder::new(&[
            ("year", DataType::Int),
            ("month", DataType::Int),
            ("country", DataType::Str),
            ("profit", DataType::Int),
        ])
        .unwrap()
        .row(&[2000.into(), 1.into(), "France".into(), 10.into()])
        .unwrap()
        .row(&[2000.into(), 2.into(), "France".into(), 20.into()])
        .unwrap()
        .row(&[2001.into(), 1.into(), "Italy".into(), 30.into()])
        .unwrap()
        .build()
    }

    fn make_view(name: &str, cols: &[&str]) -> MaterializedView {
        MaterializedView::materialize(
            ViewDefinition::canonical(name, cols, &[AggSpec::sum("profit")]),
            &base(),
        )
        .unwrap()
    }

    #[test]
    fn register_get_deregister() {
        let cat = ViewCatalog::new();
        assert!(cat.is_empty());
        cat.register(make_view("v1", &["year", "country"])).unwrap();
        assert_eq!(cat.len(), 1);
        assert!(cat.get("v1").is_ok());
        assert!(matches!(
            cat.register(make_view("v1", &["year"])),
            Err(EngineError::ViewExists { .. })
        ));
        cat.deregister("v1").unwrap();
        assert!(matches!(
            cat.get("v1"),
            Err(EngineError::ViewNotFound { .. })
        ));
        assert!(matches!(
            cat.deregister("v1"),
            Err(EngineError::ViewNotFound { .. })
        ));
    }

    #[test]
    fn best_view_prefers_smaller() {
        let cat = ViewCatalog::new();
        // Fine view: 3 groups; coarse view: 2 groups.
        cat.register(make_view("fine", &["year", "month", "country"]))
            .unwrap();
        cat.register(make_view("coarse", &["year", "country"]))
            .unwrap();
        let q = AggQuery::new("q", &["year"], vec![AggSpec::sum("profit")]);
        let best = cat.best_view_for(&q).unwrap();
        assert_eq!(best.def().name, "coarse");
    }

    #[test]
    fn execute_falls_back_to_base() {
        let cat = ViewCatalog::new();
        cat.register(make_view("v", &["year"])).unwrap();
        // Needs month, which "v" lacks.
        let q = AggQuery::new("q", &["month"], vec![AggSpec::sum("profit")]);
        let (out, _, used) = cat.execute(&q, &base()).unwrap();
        assert!(used.is_none());
        assert_eq!(out.num_rows(), 2);

        let q2 = AggQuery::new("q2", &["year"], vec![AggSpec::sum("profit")]);
        let (out2, _, used2) = cat.execute(&q2, &base()).unwrap();
        assert_eq!(used2.as_deref(), Some("v"));
        assert_eq!(out2.num_rows(), 2);
    }

    #[test]
    fn concurrent_reads_and_writes() {
        let cat = Arc::new(ViewCatalog::new());
        cat.register(make_view("v0", &["year"])).unwrap();
        let q = AggQuery::new("q", &["year"], vec![AggSpec::sum("profit")]);
        crossbeam::thread::scope(|s| {
            for t in 0..4 {
                let cat = Arc::clone(&cat);
                let q = q.clone();
                s.spawn(move |_| {
                    for i in 0..20 {
                        let _ = cat.best_view_for(&q);
                        if i % 5 == 0 {
                            let name = format!("v-{t}-{i}");
                            cat.register(make_view(&name, &["year", "month"])).unwrap();
                        }
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(cat.len(), 1 + 4 * 4);
    }
}
