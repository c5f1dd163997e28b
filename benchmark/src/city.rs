//! `city`: one million users — instance build plus the tile-sharded
//! sweep (`approx_alg_sharded`), then single-UAV-loss repairs on a
//! loop stood up from the plan.
//!
//! The only workload that runs `core::shard`, per-tile views and the
//! compressed coverage tables at scale, and the one where memory is
//! the point. Eight UAVs with capacities in [50, 300] cannot serve a
//! fraction of a million users, so `served_users` is a check here,
//! not a quality signal.

use crate::common::{
    check_losses, check_solution, corrupt_check, loss_sweep, substrate_build_ms, Args, Outcome,
    Percentiles, SetupLog, SweepStats, MIN_DELTAS,
};
use crate::scenario::{mix, ScenarioParams};
use crate::trace::Tracer;
use crate::util::{median, peak_rss_mib, process_cpu_s};
use std::time::Instant;
use uavnet_core::{approx_alg_sharded, ShardConfig, Solution, SolverLoop};
use uavnet_workload::FleetStyle;

/// A 12 km zone (1 600 candidate cells) with 1 000 000 users. One
/// instance carries the whole run, and even a 10 m nudge of every user
/// flips its plan between two deployments with different repair costs,
/// so the city is the same on every seed.
const PARAMS: ScenarioParams = ScenarioParams {
    side_m: 12_000.0,
    users: 1_000_000,
    clusters: 12,
    uavs: 8,
    capacity: (50, 300),
    fleet: FleetStyle::CommonRadio,
    jitter_m: 0.0,
};

/// Share of the measured time spent on cold solves; the rest goes to
/// loss repairs.
const SOLVE_SHARE: f64 = 0.6;

/// Timed cold solves per run, at least (after one warm-up solve).
const MIN_SOLVES: usize = 3;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Seed of the workload's hotspot layout and fleet.
const LAYOUT: u64 = 401;

/// Runs the workload.
pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut o = Outcome::new();
    let cfg = args.approx();
    let shard = ShardConfig::new();

    // Set-up: generate and build, SETUP_REPS times, each after the
    // previous instance is dropped.
    let mut log = SetupLog::default();
    let mut scenario = None;
    for _ in 0..SETUP_REPS {
        drop(scenario.take());
        let start = Instant::now();
        scenario = Some(log.generate_and_build(&PARAMS, LAYOUT, mix(args.seed, 0), tracer));
        log.setup_s.push(start.elapsed().as_secs_f64());
    }
    let Some((generated, instance)) = scenario else {
        unreachable!("SETUP_REPS > 0");
    };
    let users = generated.users;
    let coverage_mib = instance.coverage_memory().compressed_bytes as f64 / (1024.0 * 1024.0);

    // Cold sharded solves.
    let mut sweeps = SweepStats::default();
    let mut first: Option<Solution> = None;
    let measured = Instant::now();
    while sweeps.len() < MIN_SOLVES || measured.elapsed().as_secs_f64() < SOLVE_SHARE * args.seconds
    {
        let span = tracer.begin("shard.solve", None);
        let cpu0 = process_cpu_s();
        let t = Instant::now();
        let result = approx_alg_sharded(&instance, &cfg, &shard);
        let wall = t.elapsed();
        let cpu = process_cpu_s() - cpu0;
        tracer.end(span);
        o.attempted += 1;
        match result {
            Ok((solution, stats)) => match &first {
                None => first = Some(solution),
                Some(f) => {
                    sweeps.push(0, wall, cpu, &stats);
                    o.require(
                        f.deployment().placements() == solution.deployment().placements()
                            && f.served_users() == solution.served_users(),
                        || "repeated sharded solves disagree".into(),
                    );
                }
            },
            Err(e) => {
                o.failed += 1;
                eprintln!("sharded solve failed: {e}");
            }
        }
    }
    let Some(solution) = first else {
        o.errors.push("no sharded solve succeeded".into());
        return o;
    };

    // Single-UAV-loss repairs on a loop stood up from the plan, in
    // whole rounds (one repair per deployed UAV); round 0 warms up.
    let span = tracer.begin("incremental.standup", None);
    let base = SolverLoop::from_solution(instance, &solution, args.loop_config());
    tracer.end(span);
    let base = match base {
        Ok(b) => b,
        Err(e) => {
            o.failed += 1;
            o.errors.push(format!("loop stand-up failed: {e}"));
            return o;
        }
    };
    let mut delta_ms = Vec::new();
    let mut reference = None;
    while delta_ms.len() < MIN_DELTAS || !args.expired(measured) {
        let sweep = loss_sweep(&base, tracer, o.attempted);
        o.attempted += (sweep.latencies_ms.len() as u64) + sweep.failed;
        o.failed += sweep.failed;
        match &reference {
            None => reference = Some(sweep),
            Some(r) => {
                o.require(r.same_repairs(&sweep), || {
                    "repeated loss repairs disagree".into()
                });
                delta_ms.extend_from_slice(&sweep.latencies_ms);
            }
        }
        if sweep_is_empty(&reference) {
            break;
        }
    }
    let peak = peak_rss_mib();

    // Independent checks, after the clock stopped.
    let reference = reference.unwrap_or_default();
    let mut served_users = 0;
    if let Some(v) = o.check(
        "city solution",
        check_solution(base.instance(), &users, &[], &solution),
    ) {
        served_users = v.served;
    }
    check_losses(
        &mut o,
        base.instance(),
        &users,
        &[],
        &reference.losses,
        "city",
    );
    if args.corrupt {
        corrupt_check(&mut o, base.instance(), &users, &solution);
    }

    o.end_to_end(
        &log.setup_s,
        sweeps.plan_s(),
        Percentiles::pooled(&delta_ms),
        served_users,
        reference.served_after_loss,
        peak,
    );
    eprintln!(
        "city: {} timed sharded solves, {} timed loss repairs",
        sweeps.len(),
        delta_ms.len()
    );
    if args.trace {
        log.report(&mut o);
        o.layer("model.coverage_mib", coverage_mib);
        o.layer("incremental.refresh_ms", median(&delta_ms));
        o.layer(
            "graph.substrate_build_ms",
            substrate_build_ms(base.instance(), tracer),
        );
        sweeps.report(&mut o);
        o.layer("repair.dropped_placements", reference.dropped as f64);
        o.layer("repair.relays_spent", reference.relays as f64);
    }
    o
}

/// A plan with no placements has nothing to lose; stop repeating.
fn sweep_is_empty(reference: &Option<crate::common::LossSweep>) -> bool {
    reference
        .as_ref()
        .is_some_and(|r| r.losses.is_empty() && r.failed == 0)
}
