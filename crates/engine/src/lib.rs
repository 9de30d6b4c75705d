//! An in-memory columnar aggregation engine.
//!
//! This crate is the execution substrate of the reproduction: it plays the
//! role of the paper's Hadoop 0.20 + Pig Latin cluster. It executes the
//! paper's query class — roll-up group-by aggregations over a denormalized
//! star schema — materializes views, answers queries from them, and
//! maintains them incrementally. Every execution reports the work performed
//! ([`ExecStats`]); a [`ThroughputModel`] turns work into deterministic
//! simulated cluster-hours for the cost models (see `crates/cost`).
//!
//! ## Module map — the replay/metering path
//!
//! The calibration loop (`mvcloud::calibrate`) drives these modules, in
//! order:
//!
//! * [`ssb`] / [`datagen`] — generate the fact table the replay runs on;
//! * [`query`](AggQuery) — the roll-up query class, executed with full
//!   per-operator metering;
//! * [`view`](MaterializedView) — materialize candidates (build work is
//!   metered), roll them up from built ancestors, and answer queries
//!   from them;
//! * [`catalog`](ViewCatalog) — best-view routing with base-table
//!   fallback, plus [`ViewCatalog::refresh_incremental_all`] for
//!   epoch-boundary maintenance;
//! * [`replay`](ReplayDriver) — the epoch driver: apply a plan's view
//!   transitions, run the query stream, refresh, and return the metered
//!   [`EpochReplay`];
//! * [`metering`](ThroughputModel) — convert metered bytes into
//!   simulated cluster-hours ([`SimScale`] maps engine bytes to cloud
//!   gigabytes).
//!
//! ```
//! use mv_engine::{
//!     datagen, AggQuery, AggSpec, MaterializedView, SalesConfig, ViewDefinition,
//! };
//!
//! // The paper's running example: V1 = "sales per month and country".
//! let sales = datagen::generate_sales(&SalesConfig::with_rows(1_000));
//! let v1 = MaterializedView::materialize(
//!     ViewDefinition::canonical("V1", &["year", "month", "country"], &[AggSpec::sum("profit")]),
//!     &sales,
//! )
//! .unwrap();
//!
//! // Q1 = "sales per year and country" answered from V1 equals the answer
//! // from the base table.
//! let q1 = AggQuery::new("Q1", &["year", "country"], vec![AggSpec::sum("profit")]);
//! let (from_base, _) = q1.execute(&sales).unwrap();
//! let (from_view, _) = v1.answer(&q1).unwrap();
//! assert_eq!(from_base.to_sorted_rows(), from_view.to_sorted_rows());
//! ```

mod agg;
mod catalog;
mod column;
pub mod csv;
pub mod datagen;
mod dict;
mod error;
mod fx;
mod groupby;
mod maintenance;
mod metering;
mod predicate;
mod query;
pub mod replay;
mod schema;
pub mod sql;
pub mod ssb;
mod table;
mod value;
mod view;

pub use agg::{AggFunc, AggSpec};
pub use catalog::{smallest_answering, ViewCatalog};
pub use column::Column;
pub use datagen::SalesConfig;
pub use dict::Dictionary;
pub use error::EngineError;
pub use fx::{FxHashMap, FxHashSet, FxHasher};
pub use maintenance::RefreshStrategy;
pub use metering::{ExecStats, SimScale, ThroughputModel};
pub use predicate::{CmpOp, Predicate};
pub use query::{AggQuery, QueryShape};
pub use replay::{EpochReplay, QueryExecution, ReplayDriver};
pub use schema::{DataType, Field, Schema};
pub use sql::{parse_query, ParsedQuery, SqlError};
pub use ssb::SsbConfig;
pub use table::{Table, TableBuilder};
pub use value::Value;
pub use view::{MaterializedView, ViewDefinition};
