//! `mobility`: an in-process closed loop. A standing `SolverLoop` on a
//! 100 000-user instance absorbs a seeded stream of small `UserMoved`
//! batches (at most 1 % of users each) with an occasional demand
//! surge; each delta is applied as soon as the previous one returns.
//!
//! This is the delta path: no cold sweep runs after set-up. The fleet
//! (eight UAVs, capacities in [50, 300]) is capacity-bound here, so
//! `served_users` is a check; `served_after_loss` shows the repair
//! planner on the standing deployment.

use crate::common::{
    check_losses, check_solution, cold_solve, corrupt_check, loss_sweep, substrate_build_ms, Args,
    DeltaProbe, LossSweep, Outcome, Percentiles, SetupLog, SweepStats, MIN_DELTAS, WARMUP_DELTAS,
};
use crate::scenario::{mix, ScenarioParams, StreamGen};
use crate::trace::Tracer;
use crate::util::{ms, peak_rss_mib};
use std::time::Instant;
use uavnet_core::{Solution, SolverLoop, User};
use uavnet_workload::FleetStyle;

/// A 6 km zone with 100 000 fat-tailed users and eight UAVs. The
/// starting city is the same for every seed (set-up timings and the
/// standing deployment then compare like with like); the seed draws
/// the delta stream.
const PARAMS: ScenarioParams = ScenarioParams {
    side_m: 6_000.0,
    users: 100_000,
    clusters: 12,
    uavs: 8,
    capacity: (50, 300),
    fleet: FleetStyle::CommonRadio,
    jitter_m: 0.0,
};

/// Set-ups before the stream (the last one runs it) and after it;
/// `setup_s` and `plan_s` are medians over all of them, so their
/// samples spread over the whole run.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 2;

/// Seed of the workload's hotspot layout and fleet.
const LAYOUT: u64 = 201;

/// A standing loop with the stream's record of the users and zone.
type Standing = (SolverLoop, Vec<User>, uavnet_geom::AreaSpec);

/// Generates, builds, cold-solves and stands the loop up.
fn set_up(
    args: &Args,
    tracer: &mut Tracer,
    o: &mut Outcome,
    log: &mut SetupLog,
    sweeps: &mut SweepStats,
) -> Option<Standing> {
    let start = Instant::now();
    let (generated, instance) = log.generate_and_build(&PARAMS, LAYOUT, mix(args.seed, 0), tracer);
    let solution = cold_solve(args, &instance, 0, tracer, o, Some(sweeps))?;
    let span = tracer.begin("incremental.standup", None);
    let lp = SolverLoop::from_solution(instance, &solution, args.loop_config());
    tracer.end(span);
    match lp {
        Ok(lp) => {
            log.setup_s.push(start.elapsed().as_secs_f64());
            Some((lp, generated.users, generated.area))
        }
        Err(e) => {
            o.failed += 1;
            eprintln!("loop stand-up failed: {e}");
            None
        }
    }
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut o = Outcome::new();
    let mut log = SetupLog::default();
    let mut sweeps = SweepStats::default();
    let mut standing = None;
    for _ in 0..SETUPS_BEFORE {
        drop(standing.take());
        standing = set_up(args, tracer, &mut o, &mut log, &mut sweeps);
    }
    let Some((mut lp, mut users, area)) = standing else {
        o.errors.push("no standing loop after set-up".into());
        return o;
    };

    // The measured closed loop.
    let mut stream = StreamGen::new(mix(args.seed, 1), area, PARAMS.users);
    let mut delta_ms = Vec::new();
    let mut applied = 0usize;
    let mut probe = DeltaProbe::default();
    let mut checkpoint: Option<(Solution, Vec<User>, LossSweep)> = None;
    let measured = Instant::now();
    while delta_ms.len() < MIN_DELTAS || !args.expired(measured) {
        let id = o.attempted;
        let delta = stream.next_delta(&mut users);
        o.attempted += 1;
        match probe.apply(&mut lp, delta, tracer, id) {
            Ok((outcome, took)) => {
                applied += 1;
                if applied > WARMUP_DELTAS {
                    delta_ms.push(ms(took));
                }
                o.require(outcome.served == lp.served_users(), || {
                    format!(
                        "delta {id}: outcome served {} ≠ loop {}",
                        outcome.served,
                        lp.served_users()
                    )
                });
            }
            Err(e) => {
                o.failed += 1;
                eprintln!("delta {id} failed: {e}");
            }
        }
        if applied == MIN_DELTAS && checkpoint.is_none() {
            // Quality is read after a fixed number of deltas, so it
            // does not depend on how many fit in the measured time.
            // The loss sweep runs here, between two deltas, on copies
            // it drops again, so no third instance outlives it.
            let sweep = loss_sweep(&lp, &mut Tracer::new(false), 0);
            checkpoint = Some((lp.solution(), users.clone(), sweep));
        }
    }
    let peak = peak_rss_mib();
    for _ in 0..SETUPS_AFTER {
        drop(set_up(args, tracer, &mut o, &mut log, &mut sweeps));
    }

    // Independent checks, after the clock stopped.
    let same_positions = lp.instance().users() == users.as_slice();
    o.require(same_positions, || {
        "the loop's user positions differ from the stream's".into()
    });
    let r = check_solution(lp.instance(), &users, &[], &lp.solution());
    o.check("final deployment", r);
    let (mut served_users, mut served_after_loss) = (0, 0);
    let (mut dropped, mut relays) = (0, 0);
    if let Some((sol, cp_users, sweep)) = &checkpoint {
        // Moves change only users, whose positions come from the
        // stream's record; the final instance holds the same grid,
        // fleet and channels.
        let instance = lp.instance();
        if let Some(v) = o.check(
            "deployment after 100 deltas",
            check_solution(instance, cp_users, &[], sol),
        ) {
            served_users = v.served;
        }
        o.attempted += sweep.latencies_ms.len() as u64 + sweep.failed;
        o.failed += sweep.failed;
        check_losses(
            &mut o,
            instance,
            cp_users,
            &[],
            &sweep.losses,
            "after 100 deltas",
        );
        served_after_loss = sweep.served_after_loss;
        dropped = sweep.dropped;
        relays = sweep.relays;
        if args.corrupt {
            corrupt_check(&mut o, instance, cp_users, sol);
        }
    }

    o.end_to_end(
        &log.setup_s,
        sweeps.plan_s(),
        Percentiles::pooled(&delta_ms),
        served_users,
        served_after_loss,
        peak,
    );
    eprintln!("mobility: {applied} deltas applied");
    if args.trace {
        log.report(&mut o);
        o.layer(
            "model.coverage_mib",
            lp.instance().coverage_memory().compressed_bytes as f64 / (1024.0 * 1024.0),
        );
        probe.report(&mut o);
        o.layer(
            "graph.substrate_build_ms",
            substrate_build_ms(lp.instance(), tracer),
        );
        sweeps.report(&mut o);
        o.layer("repair.dropped_placements", dropped as f64);
        o.layer("repair.relays_spent", relays as f64);
    }
    o
}
