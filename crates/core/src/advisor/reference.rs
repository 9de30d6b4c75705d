//! The per-view base-scan meter that lattice roll-ups replaced, kept
//! unchanged as the reference [`Advisor::build`](super::Advisor::build)
//! is property-tested against: every workload query and every candidate
//! view is a full group-by over the base table, and every answer probe
//! is executed.

use mv_cost::{QueryCharge, ViewCharge};
use mv_engine::{AggSpec, MaterializedView, ViewDefinition};
use mv_lattice::Cuboid;
use mv_units::{Gb, Hours};

use super::{candidate_cuboids, AdvisorConfig, CandidateMeter, MeasuredCandidate, SizingMode};
use crate::{AdvisorError, Domain};

impl CandidateMeter<'_> {
    /// Executes the workload on the base table and derives its charges
    /// (the paper's step 1).
    fn reference_workload_charges(&self) -> Result<Vec<QueryCharge>, AdvisorError> {
        let mut charges = Vec::with_capacity(self.queries.len());
        for (q, lq) in self.queries.iter().zip(&self.domain.workload.queries) {
            let (out, stats) = q
                .execute_with_threads(&self.domain.base, self.config.threads)
                .map_err(AdvisorError::from)?;
            let (result_size, base_time) = match self.config.sizing {
                SizingMode::MeasuredScaled => (
                    self.scale.bytes_to_cloud(stats.bytes_out),
                    self.config
                        .throughput
                        .hours_for(&stats, self.units, self.scale)?,
                ),
                SizingMode::Extrapolated => {
                    let rows_cloud = self.cloud_groups(&lq.cuboid);
                    let width = out.schema().row_byte_width() as f64;
                    (
                        Gb::from_bytes((rows_cloud * width) as u64),
                        self.scan_hours(stats.bytes_scanned, self.engine_rows, self.cloud_rows)?,
                    )
                }
            };
            charges.push(QueryCharge {
                name: q.name.clone(),
                result_size,
                base_time,
                frequency: lq.frequency,
            });
        }
        Ok(charges)
    }

    /// Materializes and meters one candidate cuboid (the paper's steps
    /// 3 & 4 for a single view).
    fn reference_measure(&self, cuboid: Cuboid) -> Result<MeasuredCandidate, AdvisorError> {
        let label = self.domain.lattice.label(&cuboid);
        let cols = self.domain.lattice.key_columns(&cuboid);
        let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        let def = ViewDefinition::canonical(
            label.clone(),
            &col_refs,
            &[AggSpec::sum(self.domain.measure.clone())],
        );
        let view =
            MaterializedView::materialize_with_threads(def, &self.domain.base, self.config.threads)
                .map_err(AdvisorError::from)?;
        let build = *view.build_stats();
        let view_rows_engine = view.data().num_rows().max(1) as f64;
        let view_rows_cloud = self.cloud_groups(&cuboid);

        // Maintenance: incremental refresh of one monthly delta batch.
        let maintenance = match &self.delta {
            Some(d) if d.num_rows() > 0 => {
                let mut clone = view.clone();
                let stats = clone.refresh_incremental(d).map_err(AdvisorError::from)?;
                match self.config.sizing {
                    SizingMode::MeasuredScaled => self
                        .config
                        .throughput
                        .hours_for(&stats, self.units, self.scale)?,
                    SizingMode::Extrapolated => self.scan_hours(
                        stats.bytes_scanned,
                        d.num_rows().max(1) as f64,
                        self.cloud_rows * self.config.maintenance_delta_fraction,
                    )?,
                }
            }
            _ => Hours::ZERO,
        };

        let (view_size, materialization) = match self.config.sizing {
            SizingMode::MeasuredScaled => (
                self.scale.bytes_to_cloud(view.data().heap_bytes()),
                self.config
                    .throughput
                    .hours_for(&build, self.units, self.scale)?,
            ),
            SizingMode::Extrapolated => {
                let width = view.data().heap_bytes() as f64 / view_rows_engine;
                (
                    Gb::from_bytes((view_rows_cloud * width) as u64),
                    // Building a view scans the whole base table.
                    self.scan_hours(build.bytes_scanned, self.engine_rows, self.cloud_rows)?,
                )
            }
        };
        let mut charge = ViewCharge::new(
            label.clone(),
            view_size,
            materialization,
            maintenance,
            self.queries.len(),
        );
        for (i, q) in self.queries.iter().enumerate() {
            if view.can_answer(q).is_ok() {
                let (_, stats) = view.answer(q).map_err(AdvisorError::from)?;
                let t = match self.config.sizing {
                    SizingMode::MeasuredScaled => self
                        .config
                        .throughput
                        .hours_for(&stats, self.units, self.scale)?,
                    SizingMode::Extrapolated => {
                        self.scan_hours(stats.bytes_scanned, view_rows_engine, view_rows_cloud)?
                    }
                };
                charge = charge.answers(i, t);
            }
        }
        Ok(MeasuredCandidate {
            cuboid,
            label,
            view,
            charge,
        })
    }
}

/// The reference pipeline: the workload and then every candidate, in
/// generation order, each scanned from the base table.
fn reference_build(
    domain: &Domain,
    config: &AdvisorConfig,
) -> Result<(Vec<QueryCharge>, Vec<MeasuredCandidate>), AdvisorError> {
    let meter = CandidateMeter::new(domain, config)?;
    let charges = meter.reference_workload_charges()?;
    let measured = candidate_cuboids(domain, config)
        .into_iter()
        .map(|c| meter.reference_measure(c))
        .collect::<Result<_, _>>()?;
    Ok((charges, measured))
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::{sales_domain, ssb_domain, Advisor, CandidateStrategy};

    /// A random sales or SSB domain with a random advisor configuration
    /// over every knob the metering branches on.
    fn arb_case() -> impl Strategy<Value = (Domain, AdvisorConfig)> {
        (
            (0usize..2, 150usize..1_200, 1usize..11, 0u64..1_000),
            (
                0usize..3,
                1usize..7,
                prop::bool::ANY,
                prop::bool::ANY,
                1usize..3,
            ),
        )
            .prop_map(
                |((ssb, rows, queries, seed), (strategy, k, measured, delta, threads))| {
                    let domain = if ssb == 1 {
                        ssb_domain(rows, 2.0, seed)
                    } else {
                        sales_domain(rows, queries, 2.0, seed)
                    };
                    let config = AdvisorConfig {
                        candidates: [
                            CandidateStrategy::FullLattice,
                            CandidateStrategy::WorkloadClosure,
                            CandidateStrategy::HruGreedy(k),
                        ][strategy],
                        sizing: if measured {
                            SizingMode::MeasuredScaled
                        } else {
                            SizingMode::Extrapolated
                        },
                        maintenance_delta_fraction: if delta { 0.02 } else { 0.0 },
                        threads,
                        ..AdvisorConfig::default()
                    };
                    (domain, config)
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Roll-up metering charges exactly what scanning the base for
        /// every view and query charged, and builds the same views.
        #[test]
        fn rollup_build_matches_base_scan_reference(case in arb_case()) {
            let (domain, config) = case;
            let (charges, reference) = reference_build(&domain, &config).unwrap();
            let advisor = Advisor::build(domain, config.clone()).unwrap();
            prop_assert_eq!(&advisor.problem().model().context().workload, &charges);
            prop_assert_eq!(advisor.candidates().len(), reference.len());
            for (m, r) in advisor.candidates().iter().zip(&reference) {
                prop_assert_eq!(&m.cuboid, &r.cuboid);
                prop_assert_eq!(&m.label, &r.label);
                prop_assert_eq!(&m.charge, &r.charge);
                prop_assert_eq!(m.view.def(), r.view.def());
                prop_assert_eq!(m.view.build_stats(), r.view.build_stats());
                if config.threads == 1 {
                    prop_assert_eq!(m.view.data(), r.view.data());
                } else {
                    // The parallel group-by orders groups by partition.
                    prop_assert_eq!(
                        m.view.data().to_sorted_rows(),
                        r.view.data().to_sorted_rows()
                    );
                }
            }
            let stats = advisor.meter_stats();
            prop_assert_eq!(
                stats.base_scans + stats.rollups,
                (reference.len() + charges.len()) as u64
            );
            let answered: usize = reference
                .iter()
                .map(|r| r.charge.profile.query_ids().len())
                .sum();
            prop_assert_eq!(stats.probes, answered as u64);
        }
    }
}
