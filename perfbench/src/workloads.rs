//! The benchmark's workloads as `ScenarioSpec`s, derived from a workload
//! seed.
//!
//! Seed 0 reproduces the registry's own seeds, so the default run prints
//! the paper's E1/E3 tables. Any other seed shifts every *run* seed base of
//! the spec (the engine, process and adversary streams) by
//! `seed * SEED_STRIDE`; the stride exceeds every trial count, so two
//! workload seeds never share a run seed. The network seeds stay the
//! registry's: every seed simulates the same networks the paper's tables
//! were made on, so a workload's work varies with the seed only as much as
//! the executions do, and the spread between seeds measures the program
//! rather than which graphs were drawn.

use radio_bench::scenario::{
    registry, NestOrder, RenderKind, ScenarioSpec, SeedPolicy, StopCondition, TopologyEntry,
    WorkloadEntry,
};
use radio_sim::spec::{AdversaryKind, TopologyKind};
use radio_structures::runner::AlgoKind;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["e1-mis", "e3-ccds", "serve-durable"];

/// Distance between the seed bases of consecutive workload seeds.
const SEED_STRIDE: u64 = 1_000_000;

/// Trials per network size of `serve-durable` at full scale: the
/// thousands-of-trials shape a w.h.p. failure-rate estimate needs.
const SERVE_TRIALS: u64 = 10_000;

/// Trials per network size of `serve-durable` at smoke-test scale.
const SERVE_TRIALS_TINY: u64 = 20;

/// The specs of `workload` at workload seed `seed`. `tiny` picks the
/// smoke-test scale: the registry's quick grids, and 20 trials per size
/// for `serve-durable`.
///
/// # Errors
///
/// Rejects an unknown workload name and a seed whose shifted bases
/// overflow.
pub fn specs(workload: &str, seed: u64, tiny: bool) -> Result<Vec<ScenarioSpec>, String> {
    let mut specs = match workload {
        "e1-mis" => registry::specs("e1", tiny).ok_or("registry lost e1")?,
        "e3-ccds" => registry::specs("e3", tiny).ok_or("registry lost e3")?,
        "serve-durable" => vec![serve_spec(if tiny {
            SERVE_TRIALS_TINY
        } else {
            SERVE_TRIALS
        })],
        other => {
            return Err(format!(
                "unknown workload {other}; expected one of {WORKLOADS:?}"
            ))
        }
    };
    let offset = seed
        .checked_mul(SEED_STRIDE)
        .ok_or_else(|| format!("seed {seed} is too large"))?;
    for spec in &mut specs {
        reseed(spec, offset)?;
    }
    Ok(specs)
}

/// MIS on the two smallest dense random geometric networks, many trials
/// each: cheap units, so checkpoint, sink, aggregate and serve dominate.
fn serve_spec(trials: u64) -> ScenarioSpec {
    ScenarioSpec {
        id: "SERVE-DURABLE".to_string(),
        caption: "MIS (Sec. 4) failure rate over many cheap trials under a random unreliable \
                  adversary"
            .to_string(),
        render: RenderKind::Aggregate,
        topologies: [8, 16]
            .iter()
            .map(|&n| TopologyEntry::new(TopologyKind::GeometricDense { n }))
            .collect(),
        adversaries: vec![AdversaryKind::Random { p: 0.5 }],
        workloads: vec![WorkloadEntry::core(AlgoKind::Mis)],
        trials,
        nest: NestOrder::TopologyMajor,
        seeds: SeedPolicy {
            net_base: 100,
            run_base: 7,
        },
        stop: StopCondition::Default,
        aggregate: None,
    }
}

/// Shifts every run seed base of `spec` — the policy's, and each
/// workload's override — by `offset`.
fn reseed(spec: &mut ScenarioSpec, offset: u64) -> Result<(), String> {
    let shift = |s: &mut u64| -> Result<(), String> {
        *s = s
            .checked_add(offset)
            .ok_or_else(|| format!("seed base {s} + {offset} overflows"))?;
        Ok(())
    };
    shift(&mut spec.seeds.run_base)?;
    for work in &mut spec.workloads {
        if let Some(s) = work.run_seed.as_mut() {
            shift(s)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_registry() {
        assert_eq!(
            specs("e1-mis", 0, false).expect("e1 resolves"),
            registry::specs("e1", false).expect("registry holds e1")
        );
        assert_eq!(
            specs("e3-ccds", 0, true).expect("e3 resolves"),
            registry::specs("e3", true).expect("registry holds e3")
        );
    }

    #[test]
    fn seeds_shift_run_seeds_and_keep_the_networks() {
        for workload in WORKLOADS {
            let base = specs(workload, 0, false).expect("workload resolves");
            let shifted = specs(workload, 2, false).expect("workload resolves");
            for (a, b) in base.iter().zip(&shifted) {
                assert_eq!(b.seeds.run_base, a.seeds.run_base + 2 * SEED_STRIDE);
                assert_eq!(b.seeds.net_base, a.seeds.net_base);
                assert_eq!(b.topologies, a.topologies);
                let units = (0..a.grid_size() as u64).map(|i| (a.unit_at(i), b.unit_at(i)));
                for (ua, ub) in units {
                    assert_eq!(ua.net_seed, ub.net_seed);
                    assert_ne!(ua.run_seed, ub.run_seed);
                }
            }
        }
    }

    #[test]
    fn run_seed_overrides_move_too() {
        let mut spec = serve_spec(1);
        spec.workloads[0].run_seed = Some(5);
        reseed(&mut spec, 10).expect("no overflow");
        assert_eq!(spec.workloads[0].run_seed, Some(15));
    }

    #[test]
    fn serve_durable_has_the_requested_grid() {
        let spec = &specs("serve-durable", 0, false).expect("serve resolves")[0];
        assert_eq!(spec.grid_size(), 20_000);
        assert_eq!(
            specs("serve-durable", 0, true).expect("serve resolves")[0].grid_size(),
            40
        );
    }

    #[test]
    fn unknown_workloads_and_huge_seeds_are_refused() {
        assert!(specs("e2", 0, false).is_err());
        assert!(specs("e1-mis", u64::MAX, false).is_err());
    }
}
