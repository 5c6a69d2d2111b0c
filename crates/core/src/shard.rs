//! Shard planning: partition a campaign's (job × injection-point) task
//! matrix into work units and allocate them across N shards by measured
//! cost.
//!
//! A **work unit** is one (job, injection point) — the same granularity
//! the single-node scheduler uses, so a unit's records are produced by
//! one deterministic [`run_point_sweep`] call, bit-identical at any grid
//! thread count, and two workers that accidentally both execute a unit
//! produce bit-identical records (which the merge layer deduplicates). Units are enumerated in
//! canonical order (jobs in matrix order, points in enumeration order),
//! so unit ids are stable across replans of the same manifest.
//!
//! Allocation is **cost-aware**: when a measured cost profile (the
//! `costs.csv` the telemetry layer records — `prepare_ns + replay_ns`
//! per point) is available, units are spread with the classic
//! longest-processing-time greedy rule; otherwise every unit weighs its
//! grid-cell count, which degrades to round-robin for a uniform grid.
//! Both paths are fully deterministic: ties break on unit index, never
//! on iteration order of a hash map or on wall-clock anything.
//!
//! [`run_point_sweep`]: crate::campaign::run_point_sweep

use crate::fault::InjectionPoint;

/// One schedulable unit of campaign work: the full fault grid at one
/// injection point of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkUnit {
    /// Stable unit id (`u` + zero-padded enumeration index).
    pub id: String,
    /// Job identifier the unit belongs to.
    pub job: String,
    /// The injection point.
    pub point: InjectionPoint,
    /// Allocation weight (nanoseconds when measured, grid cells when
    /// estimated). Never zero — zero-cost units would all pile onto one
    /// shard without affecting its load.
    pub cost: u64,
    /// Shard index the planner assigned this unit to.
    pub shard: usize,
}

/// A partitioned campaign: every unit of the job × point matrix with
/// its shard assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// Campaign name the plan was derived from.
    pub campaign: String,
    /// Number of shards the units are spread across.
    pub shards: usize,
    /// Grid cells per unit (informational; the fallback cost basis).
    pub cells_per_unit: usize,
    /// Every unit, in canonical enumeration order.
    pub units: Vec<WorkUnit>,
}

impl ShardPlan {
    /// Builds a plan from the enumerated matrix.
    ///
    /// `matrix` lists `(job_id, point)` in canonical order; `cost_of`
    /// returns the measured cost for a `(job_id, point)` pair, or `None`
    /// when no measurement exists (the unit then weighs
    /// `cells_per_unit`). `shards` is clamped to at least 1.
    pub fn build(
        campaign: impl Into<String>,
        matrix: &[(String, InjectionPoint)],
        cells_per_unit: usize,
        shards: usize,
        mut cost_of: impl FnMut(&str, InjectionPoint) -> Option<u64>,
    ) -> ShardPlan {
        let shards = shards.max(1);
        let fallback = (cells_per_unit as u64).max(1);
        let mut units: Vec<WorkUnit> = matrix
            .iter()
            .enumerate()
            .map(|(idx, (job, point))| WorkUnit {
                id: unit_id(idx),
                job: job.clone(),
                point: *point,
                cost: cost_of(job, *point).unwrap_or(fallback).max(1),
                shard: 0,
            })
            .collect();
        assign_lpt(&mut units, shards);
        ShardPlan {
            campaign: campaign.into(),
            shards,
            cells_per_unit,
            units,
        }
    }

    /// Total assigned cost per shard, indexed by shard number.
    pub fn shard_loads(&self) -> Vec<u64> {
        let mut loads = vec![0u64; self.shards];
        for u in &self.units {
            loads[u.shard] += u.cost;
        }
        loads
    }

    /// Units assigned to one shard, in enumeration order.
    pub fn shard_units(&self, shard: usize) -> Vec<&WorkUnit> {
        self.units.iter().filter(|u| u.shard == shard).collect()
    }

    /// The worst-shard / mean-shard load ratio — 1.0 is a perfect split.
    /// Meaningless (returns 1.0) for an empty plan.
    pub fn imbalance(&self) -> f64 {
        let loads = self.shard_loads();
        let total: u64 = loads.iter().sum();
        let max = loads.iter().copied().max().unwrap_or(0);
        if total == 0 {
            return 1.0;
        }
        max as f64 * self.shards as f64 / total as f64
    }
}

/// The stable unit id for enumeration index `idx`.
pub fn unit_id(idx: usize) -> String {
    format!("u{idx:05}")
}

/// Longest-processing-time greedy assignment: visit units by descending
/// cost (ties: ascending enumeration index, so the order is total) and
/// put each on the least-loaded shard (ties: lowest shard index).
fn assign_lpt(units: &mut [WorkUnit], shards: usize) {
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by(|&a, &b| units[b].cost.cmp(&units[a].cost).then(a.cmp(&b)));
    let mut loads = vec![0u64; shards];
    for idx in order {
        let target = loads
            .iter()
            .enumerate()
            .min_by_key(|&(shard, &load)| (load, shard))
            .map(|(shard, _)| shard)
            .expect("at least one shard");
        units[idx].shard = target;
        loads[target] += units[idx].cost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(jobs: &[&str], points: usize) -> Vec<(String, InjectionPoint)> {
        let mut m = Vec::new();
        for job in jobs {
            for op in 0..points {
                m.push((
                    job.to_string(),
                    InjectionPoint {
                        op_index: op,
                        qubit: 0,
                    },
                ));
            }
        }
        m
    }

    #[test]
    fn plan_is_deterministic_and_covers_the_matrix() {
        let m = matrix(&["a", "b"], 5);
        let a = ShardPlan::build("c", &m, 312, 3, |_, _| None);
        let b = ShardPlan::build("c", &m, 312, 3, |_, _| None);
        assert_eq!(a, b);
        assert_eq!(a.units.len(), 10);
        assert_eq!(a.units[0].id, "u00000");
        assert_eq!(a.units[9].id, "u00009");
        assert!(a.units.iter().all(|u| u.shard < 3));
        // Uniform costs across 10 units and 3 shards: loads 4/3/3.
        let mut loads = a.shard_loads();
        loads.sort_unstable();
        assert_eq!(loads, vec![3 * 312, 3 * 312, 4 * 312]);
    }

    #[test]
    fn measured_costs_drive_the_split() {
        let m = matrix(&["a"], 4);
        // One giant unit and three small ones on two shards: LPT puts the
        // giant alone and the three small together.
        let plan = ShardPlan::build("c", &m, 10, 2, |_, p| {
            Some(if p.op_index == 2 { 900 } else { 100 })
        });
        let giant_shard = plan.units[2].shard;
        for (i, u) in plan.units.iter().enumerate() {
            if i != 2 {
                assert_ne!(u.shard, giant_shard, "unit {i} shares the giant's shard");
            }
        }
        let mut loads = plan.shard_loads();
        loads.sort_unstable();
        assert_eq!(loads, vec![300, 900]);
        assert!(plan.imbalance() > 1.0);
    }

    #[test]
    fn missing_costs_fall_back_to_cells() {
        let m = matrix(&["a"], 3);
        let plan = ShardPlan::build("c", &m, 312, 2, |_, p| {
            (p.op_index == 0).then_some(1_000_000)
        });
        assert_eq!(plan.units[0].cost, 1_000_000);
        assert_eq!(plan.units[1].cost, 312);
        assert_eq!(plan.units[2].cost, 312);
    }

    #[test]
    fn degenerate_shapes_are_safe() {
        // Zero shards clamps to one; empty matrix yields an empty plan.
        let plan = ShardPlan::build("c", &[], 0, 0, |_, _| None);
        assert_eq!(plan.shards, 1);
        assert!(plan.units.is_empty());
        assert_eq!(plan.imbalance(), 1.0);
        // More shards than units leaves trailing shards empty but valid.
        let m = matrix(&["a"], 2);
        let plan = ShardPlan::build("c", &m, 1, 5, |_, _| None);
        assert_eq!(plan.shard_loads().iter().sum::<u64>(), 2);
    }
}
