//! `plan`: cold `approx_alg` solves of several seeded heterogeneous
//! instances, each followed by a single-UAV-loss repair per deployed
//! UAV on a `SolverLoop` stood up from the solution.
//!
//! Exercises the sweep layers (enumeration, greedy gain queries,
//! matching, connection, scoring) and the repair planner; no mobility
//! delta runs. Fleets use capacity-scaled radios (one radio class per
//! UAV) and users are fat-tailed, so the fleet's capacity does not
//! decide the served count.

use crate::common::{
    check_losses, check_solution, cold_solve, corrupt_check, loss_sweep, substrate_build_ms, Args,
    LossSweep, Outcome, Percentiles, SetupLog, SweepStats, MIN_DELTAS,
};
use crate::scenario::{mix, ScenarioParams};
use crate::trace::Tracer;
use crate::util::{median, peak_rss_mib};
use std::time::Instant;
use uavnet_core::{Instance, Solution, SolverLoop};
use uavnet_workload::FleetStyle;

/// Instances per round.
const INSTANCES: usize = 16;

/// The make-up of each instance: a 4.5 km zone, 5 000 users, ten UAVs
/// with capacities in [200, 800] and capacity-scaled radios.
const PARAMS: ScenarioParams = ScenarioParams {
    side_m: 4_500.0,
    users: 5_000,
    clusters: 12,
    uavs: 10,
    capacity: (200, 800),
    fleet: FleetStyle::CapacityScaledRadio,
    jitter_m: 60.0,
};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// A plan instance must serve below this share of
/// `min(Σcap, n)`, or the workload has slid into saturation.
const SATURATION: f64 = 0.97;

/// What the first round produced for one instance.
struct Reference {
    solution: Solution,
    sweep: LossSweep,
}

/// Seed of the workload's hotspot layout and fleet.
const LAYOUT: u64 = 101;

/// Runs the workload.
pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut o = Outcome::new();

    // Set-up: generate and build every instance, SETUP_REPS times.
    let mut log = SetupLog::default();
    let mut instances: Vec<Instance> = Vec::new();
    for _ in 0..SETUP_REPS {
        instances.clear();
        let start = Instant::now();
        for i in 0..INSTANCES {
            let seed = mix(args.seed, i as u64);
            instances.push(
                log.generate_and_build(&PARAMS, LAYOUT + i as u64, seed, tracer)
                    .1,
            );
        }
        log.setup_s.push(start.elapsed().as_secs_f64());
    }

    // Rounds: solve every instance, then kill each deployed UAV of
    // each solution on a loop stood up from it. Round 0 warms up and
    // fixes the reference results; later rounds are timed.
    let mut sweeps = SweepStats::default();
    let mut delta_ms = Vec::new();
    let mut refs: Vec<Option<Reference>> = (0..INSTANCES).map(|_| None).collect();
    let mut rounds = 0usize;
    let mut next_delta = 0u64;
    let measured = Instant::now();
    while rounds < 2 || !args.expired(measured) || delta_ms.len() < MIN_DELTAS {
        for (i, inst) in instances.iter().enumerate() {
            let timed = (rounds > 0).then_some(&mut sweeps);
            let Some(solution) = cold_solve(args, inst, i, tracer, &mut o, timed) else {
                continue;
            };

            let span = tracer.begin("incremental.standup", None);
            let base = SolverLoop::from_solution(inst.clone(), &solution, args.loop_config());
            tracer.end(span);
            let base = match base {
                Ok(b) => b,
                Err(e) => {
                    o.failed += 1;
                    eprintln!("loop stand-up of instance {i} failed: {e}");
                    continue;
                }
            };
            let sweep = loss_sweep(&base, tracer, next_delta);
            next_delta += base.placements().len() as u64;
            o.attempted += base.placements().len() as u64;
            o.failed += sweep.failed;
            if rounds > 0 {
                delta_ms.extend_from_slice(&sweep.latencies_ms);
            }
            if rounds == 0 {
                refs[i] = Some(Reference { solution, sweep });
            } else if let Some(r) = &refs[i] {
                // Later rounds repeat the same operations and must
                // reproduce the first round bit for bit.
                let same = r.solution.deployment().placements()
                    == solution.deployment().placements()
                    && r.solution.served_users() == solution.served_users()
                    && r.sweep.same_repairs(&sweep);
                o.require(same, || {
                    format!("instance {i}: round {rounds} differs from round 0")
                });
            }
        }
        rounds += 1;
    }
    let peak = peak_rss_mib();

    // Independent checks, after the clock stopped.
    let mut served_users = 0;
    let mut served_after_loss = 0;
    let (mut dropped, mut relays) = (0, 0);
    for (i, (inst, r)) in instances.iter().zip(&refs).enumerate() {
        let Some(r) = r else { continue };
        let users = inst.users();
        if let Some(v) = o.check(
            &format!("instance {i} solution"),
            check_solution(inst, users, &[], &r.solution),
        ) {
            let total_cap: usize = inst.uavs().iter().map(|u| u.capacity as usize).sum();
            let bound = total_cap.min(users.len());
            o.require((v.served as f64) < SATURATION * bound as f64, || {
                format!(
                    "instance {i} serves {} of min(Σcap, n) = {bound}: saturated",
                    v.served
                )
            });
        }
        check_losses(
            &mut o,
            inst,
            users,
            &[],
            &r.sweep.losses,
            &format!("instance {i}"),
        );
        if args.corrupt && i == 0 {
            corrupt_check(&mut o, inst, users, &r.solution);
        }
        served_users += r.solution.served_users();
        served_after_loss += r.sweep.served_after_loss;
        dropped += r.sweep.dropped;
        relays += r.sweep.relays;
    }

    o.end_to_end(
        &log.setup_s,
        sweeps.plan_s(),
        Percentiles::pooled(&delta_ms),
        served_users,
        served_after_loss,
        peak,
    );
    eprintln!(
        "plan: {rounds} rounds, {} timed solves, {} timed loss repairs",
        sweeps.len(),
        delta_ms.len()
    );
    if args.trace {
        log.report(&mut o);
        let coverage: usize = instances
            .iter()
            .map(|i| i.coverage_memory().compressed_bytes)
            .sum();
        o.layer("model.coverage_mib", coverage as f64 / (1024.0 * 1024.0));
        o.layer("incremental.refresh_ms", median(&delta_ms));
        sweeps.report(&mut o);
        o.layer("repair.dropped_placements", dropped as f64);
        o.layer("repair.relays_spent", relays as f64);
        o.layer(
            "graph.substrate_build_ms",
            substrate_build_ms(&instances[0], tracer),
        );
    }
    o
}
