//! Pieces every workload shares: arguments, the outcome record, the
//! metric names, single-UAV-loss sweeps and sweep statistics.

use crate::check::{check_deployment, Claim, Verdict};
use crate::scenario::{build, generate, Generated, ScenarioParams};
use crate::trace::Tracer;
use crate::util::{mean, median, ms, process_cpu_s, quantile, Metrics};
use std::time::{Duration, Instant};
use uavnet_core::{
    approx_alg_with_stats, ApproxConfig, ApproxStats, CoreError, Delta, DeltaOutcome, Instance,
    LoopConfig, Solution, SolverLoop, User,
};
use uavnet_geom::CellIndex;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Damage one output before the checks.
    pub corrupt: bool,
    /// Solver threads: `nproc` (at most 8) for `plan` and `city`, one
    /// for `mobility` and `service`.
    pub threads: usize,
}

impl Args {
    /// The cold-solve configuration every workload uses: `s = 1`,
    /// exhaustive enumeration, one worker per thread.
    pub fn approx(&self) -> ApproxConfig {
        ApproxConfig::with_s(1).threads(self.threads)
    }

    /// The incremental-loop configuration (default tiles and
    /// fallback threshold).
    pub fn loop_config(&self) -> LoopConfig {
        LoopConfig::new(self.approx())
    }

    /// Whether the measured time is used up.
    pub fn expired(&self, since: Instant) -> bool {
        since.elapsed().as_secs_f64() >= self.seconds
    }
}

/// Every run applies at least this many deltas, so `delta_p90_ms` has
/// at least ten samples beyond it.
pub const MIN_DELTAS: usize = 100;

/// Leading deltas of a stream whose latency is not sampled (the first
/// applies still fault pages in and fill caches).
pub const WARMUP_DELTAS: usize = 5;

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Failed correctness checks (empty = correct).
    pub errors: Vec<String>,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics.
    pub layers: Metrics,
}

/// The per-layer metrics, in `BENCHMARK.json` order, with units. Each
/// workload starts from all of them at zero, so a traced run prints
/// every one; a zero means the layer is not on that workload's path.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("workload.generate_ms", "ms"),
    ("model.build_ms", "ms"),
    ("model.coverage_mib", "MiB"),
    ("model.rebuild_ms", "ms"),
    ("incremental.refresh_ms", "ms"),
    ("incremental.stations_refreshed", "count"),
    ("incremental.dirty_tiles", "count"),
    ("incremental.refresh_useful_ratio", "ratio"),
    ("incremental.matching_rebuilds", "count"),
    ("graph.substrate_build_ms", "ms"),
    ("approx.subsets_evaluated", "count"),
    ("approx.gain_queries", "count"),
    ("approx.gain_queries_per_s", "1/s"),
    ("approx.enumeration_ms", "ms"),
    ("approx.greedy_ms", "ms"),
    ("approx.connection_ms", "ms"),
    ("approx.scoring_ms", "ms"),
    ("approx.substrate_query_ms", "ms"),
    ("process.cpu_s", "s"),
    ("shard.tile_view_ms", "ms"),
    ("shard.tiles_solved", "count"),
    ("shard.view_escapes", "count"),
    ("repair.dropped_placements", "count"),
    ("repair.relays_spent", "count"),
    ("proto.encode_us", "us"),
    ("proto.decode_us", "us"),
    ("service.frame_bytes", "bytes"),
    ("service.ack_p50_ms", "ms"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.apply_p50_ms", "ms"),
    ("service.publish_p50_ms", "ms"),
    ("service.generator_lag_p90_ms", "ms"),
];

impl Outcome {
    /// An outcome with every per-layer metric present at zero.
    pub fn new() -> Self {
        let mut o = Outcome::default();
        for &(name, unit) in LAYER_METRICS {
            o.layers.set(name, 0.0, unit_of(unit));
        }
        o
    }

    /// Sets a per-layer metric (its unit comes from [`LAYER_METRICS`]).
    pub fn layer(&mut self, name: &str, value: f64) {
        let unit = LAYER_METRICS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| unit_of(u))
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        self.layers.set(name, value, unit);
    }

    /// Records the end-to-end metrics every workload reports.
    #[allow(clippy::too_many_arguments)]
    pub fn end_to_end(
        &mut self,
        setup_s: &[f64],
        plan_s: f64,
        delta_ms: Percentiles,
        served_users: usize,
        served_after_loss: usize,
        peak_rss_mib: f64,
    ) {
        self.e2e.set("setup_s", median(setup_s), "s");
        self.e2e.set("plan_s", plan_s, "s");
        self.e2e.set("delta_p50_ms", delta_ms.p50, "ms");
        self.e2e.set("delta_p90_ms", delta_ms.p90, "ms");
        self.e2e.set("served_users", served_users as f64, "users");
        self.e2e
            .set("served_after_loss", served_after_loss as f64, "users");
        self.e2e.set("peak_rss_mib", peak_rss_mib, "MiB");
    }

    /// Runs a check, recording its failure under `what`.
    pub fn check(&mut self, what: &str, r: Result<Verdict, String>) -> Option<Verdict> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.errors.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Records a failed property unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// A run's delta latency percentiles, in ms.
#[derive(Debug, Clone, Copy)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
}

impl Percentiles {
    /// Percentiles of all samples together.
    pub fn pooled(samples: &[f64]) -> Self {
        Percentiles {
            p50: quantile(samples, 0.5),
            p90: quantile(samples, 0.9),
        }
    }
}

fn unit_of(u: &str) -> &'static str {
    LAYER_METRICS
        .iter()
        .map(|(_, unit)| *unit)
        .find(|unit| *unit == u)
        .unwrap_or("count")
}

/// A solution as a checker claim.
pub fn claim(sol: &Solution) -> Claim<'_> {
    Claim {
        placements: sol.deployment().placements(),
        user_placement: sol.user_placement(),
        served: sol.served_users(),
    }
}

/// Checks `sol` against the benchmark's own user record, with no
/// severed link.
pub fn check_solution(
    instance: &Instance,
    users: &[User],
    dead: &[usize],
    sol: &Solution,
) -> Result<Verdict, String> {
    check_deployment(instance, users, dead, &[], claim(sol))
}

/// One single-UAV-loss repair: which UAV died and what was left.
#[derive(Debug, Clone)]
pub struct Loss {
    /// The killed UAV.
    pub uav: usize,
    /// The repaired deployment.
    pub solution: Solution,
}

/// Results of killing each deployed UAV of a standing loop in turn.
#[derive(Debug, Default)]
pub struct LossSweep {
    /// Users served after each repair, summed.
    pub served_after_loss: usize,
    /// Placements the repairs abandoned, summed.
    pub dropped: usize,
    /// Spare UAVs the repairs spent as relays, summed.
    pub relays: usize,
    /// Wall time of each `KillUavs` apply.
    pub latencies_ms: Vec<f64>,
    /// The repaired deployments.
    pub losses: Vec<Loss>,
    /// Repairs that returned an error.
    pub failed: u64,
}

/// Kills each deployed UAV of `base` on its own copy (the copy is made
/// outside the timed apply).
pub fn loss_sweep(base: &SolverLoop, tracer: &mut Tracer, first_delta: u64) -> LossSweep {
    let mut out = LossSweep::default();
    let deployed: Vec<usize> = base.placements().iter().map(|&(u, _)| u).collect();
    for (i, uav) in deployed.into_iter().enumerate() {
        let mut lp = base.clone();
        // Read the copy's matching once, so the timed repair starts
        // from a warm loop as a standing one would, not from the
        // cache state the copy left.
        std::hint::black_box(lp.solution());
        let delta = Some(first_delta + i as u64);
        let span = tracer.begin("incremental.apply_kill", delta);
        let start = Instant::now();
        let result = lp.apply(Delta::KillUavs(vec![uav]));
        let took = start.elapsed();
        tracer.end(span);
        match result {
            Ok(o) => {
                out.latencies_ms.push(ms(took));
                out.served_after_loss += o.served;
                out.dropped += o.dropped_placements;
                out.relays += o.relays_spent;
                out.losses.push(Loss {
                    uav,
                    solution: lp.solution(),
                });
            }
            Err(_) => out.failed += 1,
        }
    }
    out
}

impl LossSweep {
    /// Whether `other` repaired every loss into the same deployment
    /// (repeated rounds must reproduce the first bit for bit).
    pub fn same_repairs(&self, other: &LossSweep) -> bool {
        self.losses.len() == other.losses.len()
            && self.losses.iter().zip(&other.losses).all(|(a, b)| {
                a.uav == b.uav
                    && a.solution.served_users() == b.solution.served_users()
                    && a.solution.deployment().placements() == b.solution.deployment().placements()
            })
    }
}

/// Checks every repair of a loss sweep against the surviving fleet.
pub fn check_losses(
    o: &mut Outcome,
    instance: &Instance,
    users: &[User],
    dead: &[usize],
    losses: &[Loss],
    what: &str,
) {
    for loss in losses {
        let mut dead_now = dead.to_vec();
        dead_now.push(loss.uav);
        let r = check_solution(instance, users, &dead_now, &loss.solution);
        o.check(&format!("{what}: repair after losing UAV {}", loss.uav), r);
    }
}

/// Per-solve sweep statistics, averaged over the solves of a run.
#[derive(Debug, Default)]
pub struct SweepStats {
    key: Vec<usize>,
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
    subsets: Vec<f64>,
    gain_queries: Vec<f64>,
    enumeration_ms: Vec<f64>,
    greedy_ms: Vec<f64>,
    connection_ms: Vec<f64>,
    scoring_ms: Vec<f64>,
    substrate_query_ms: Vec<f64>,
    tile_view_ms: Vec<f64>,
    tiles_solved: Vec<f64>,
    view_escapes: Vec<f64>,
}

impl SweepStats {
    /// Adds one solve of instance `key`: its wall time, the process
    /// CPU seconds it used and the sweep's own statistics.
    pub fn push(&mut self, key: usize, wall: Duration, cpu_s: f64, st: &ApproxStats) {
        let p = &st.profile;
        let nsms = |ns: u64| ns as f64 / 1e6;
        self.key.push(key);
        self.wall_s.push(wall.as_secs_f64());
        self.cpu_s.push(cpu_s);
        self.subsets.push(st.subsets_evaluated as f64);
        self.gain_queries.push(st.gain_queries as f64);
        self.enumeration_ms.push(nsms(p.enumeration_ns));
        self.greedy_ms.push(nsms(p.greedy_ns));
        self.connection_ms.push(nsms(p.connection_ns));
        self.scoring_ms.push(nsms(p.scoring_ns));
        self.substrate_query_ms.push(nsms(p.substrate_query_ns));
        self.tile_view_ms.push(nsms(p.tile_view_ns));
        self.tiles_solved.push(st.tiles_solved as f64);
        self.view_escapes.push(st.view_escapes as f64);
    }

    /// Number of solves recorded.
    pub fn len(&self) -> usize {
        self.wall_s.len()
    }

    /// `plan_s`: each instance's median solve time, averaged over the
    /// instances (one instance: its median). Solve times of one
    /// instance repeat the same work, so their median drops the host's
    /// outliers; averaging over instances keeps every instance's
    /// weight equal however many solves fit in the run.
    pub fn plan_s(&self) -> f64 {
        let mut keys = self.key.clone();
        keys.sort_unstable();
        keys.dedup();
        let per_key: Vec<f64> = keys
            .iter()
            .map(|&k| {
                let walls: Vec<f64> = self
                    .key
                    .iter()
                    .zip(&self.wall_s)
                    .filter(|(kk, _)| **kk == k)
                    .map(|(_, w)| *w)
                    .collect();
                median(&walls)
            })
            .collect();
        mean(&per_key)
    }

    /// Writes the `approx.*`, `shard.*` and `process.cpu_s` metrics.
    pub fn report(&self, o: &mut Outcome) {
        let total_wall: f64 = self.wall_s.iter().sum();
        let total_q: f64 = self.gain_queries.iter().sum();
        o.layer("approx.subsets_evaluated", mean(&self.subsets));
        o.layer("approx.gain_queries", mean(&self.gain_queries));
        o.layer(
            "approx.gain_queries_per_s",
            if total_wall > 0.0 {
                total_q / total_wall
            } else {
                0.0
            },
        );
        o.layer("approx.enumeration_ms", median(&self.enumeration_ms));
        o.layer("approx.greedy_ms", median(&self.greedy_ms));
        o.layer("approx.connection_ms", median(&self.connection_ms));
        o.layer("approx.scoring_ms", median(&self.scoring_ms));
        o.layer(
            "approx.substrate_query_ms",
            median(&self.substrate_query_ms),
        );
        o.layer("process.cpu_s", median(&self.cpu_s));
        o.layer("shard.tile_view_ms", median(&self.tile_view_ms));
        o.layer("shard.tiles_solved", mean(&self.tiles_solved));
        o.layer("shard.view_escapes", mean(&self.view_escapes));
    }
}

/// Wall time of building the connectivity substrate over `instance`'s
/// location graph, median of three builds.
pub fn substrate_build_ms(instance: &Instance, tracer: &mut Tracer) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let span = tracer.begin("graph.substrate_build", None);
            let start = Instant::now();
            let sub = uavnet_graph::ConnectivitySubstrate::build(instance.location_graph());
            let took = start.elapsed();
            tracer.end(span);
            drop(std::hint::black_box(sub));
            ms(took)
        })
        .collect();
    median(&samples)
}

/// Damages `sol` (the first unserved user is handed to placement 0
/// and the served count raised to match) and records what the checker
/// says about it; with a correct checker the run is marked incorrect.
pub fn corrupt_check(o: &mut Outcome, instance: &Instance, users: &[User], sol: &Solution) {
    let mut assign = sol.user_placement().to_vec();
    if let Some(slot) = assign.iter_mut().find(|s| s.is_none()) {
        *slot = Some(0);
    }
    let c = claim(sol);
    let r = check_deployment(
        instance,
        users,
        &[],
        &[],
        Claim {
            user_placement: &assign,
            served: c.served + 1,
            ..c
        },
    );
    o.check("deliberately corrupted deployment", r);
}

/// Applies deltas to a loop and, in a traced run, attributes each
/// user delta's time: the instance rebuild it implies is timed on its
/// own first (`model.rebuild_ms`), the rest of the apply is the
/// incremental refresh (`incremental.refresh_ms`).
#[derive(Debug, Default)]
pub struct DeltaProbe {
    rebuild_ms: Vec<f64>,
    refresh_ms: Vec<f64>,
    refreshed: usize,
    changed: usize,
    dirty: usize,
    applied: usize,
    rebuilds: usize,
}

impl DeltaProbe {
    /// Applies `delta` (delta id `id`), returning its outcome and the
    /// wall time of the apply alone.
    pub fn apply(
        &mut self,
        lp: &mut SolverLoop,
        delta: Delta,
        tracer: &mut Tracer,
        id: u64,
    ) -> Result<(DeltaOutcome, Duration), CoreError> {
        let mut rebuild = None;
        if tracer.enabled() {
            let span = tracer.begin("model.rebuild", Some(id));
            let t = Instant::now();
            let rebuilt = match &delta {
                Delta::UserMoved(moves) => Some(lp.instance().with_moved_users(moves)),
                Delta::UserSurge(extra) => Some(lp.instance().with_extra_users(extra)),
                _ => None,
            };
            let took = ms(t.elapsed());
            tracer.end(span);
            if let Some(Ok(new)) = rebuilt {
                rebuild = Some(took);
                self.changed += changed_stations(lp.instance(), &new, lp.placements());
            }
        }
        let rebuilds_before = lp.stats().matching_rebuilds;
        let span = tracer.begin("incremental.apply", Some(id));
        let t = Instant::now();
        let result = lp.apply(delta);
        let took = t.elapsed();
        tracer.end(span);
        let outcome = result?;
        self.applied += 1;
        self.refreshed += outcome.stations_refreshed;
        self.dirty += outcome.dirty_tiles;
        self.rebuilds += lp.stats().matching_rebuilds - rebuilds_before;
        if let Some(r) = rebuild {
            self.rebuild_ms.push(r);
            self.refresh_ms.push(ms(took) - r);
        }
        Ok((outcome, took))
    }

    /// Writes the `model.rebuild_ms` and `incremental.*` metrics.
    pub fn report(&self, o: &mut Outcome) {
        let per_delta = |v: usize| v as f64 / self.applied.max(1) as f64;
        o.layer("model.rebuild_ms", median(&self.rebuild_ms));
        o.layer("incremental.refresh_ms", median(&self.refresh_ms));
        o.layer("incremental.stations_refreshed", per_delta(self.refreshed));
        o.layer("incremental.dirty_tiles", per_delta(self.dirty));
        o.layer(
            "incremental.refresh_useful_ratio",
            if self.refreshed > 0 {
                self.changed as f64 / self.refreshed as f64
            } else {
                0.0
            },
        );
        o.layer("incremental.matching_rebuilds", per_delta(self.rebuilds));
    }
}

/// Placements whose coverable user list differs between `old` and `new`.
fn changed_stations(old: &Instance, new: &Instance, placements: &[(usize, CellIndex)]) -> usize {
    placements
        .iter()
        .filter(|&&(uav, cell)| {
            !old.coverable(uav, cell)
                .iter()
                .eq(new.coverable(uav, cell).iter())
        })
        .count()
}

/// Timings of a workload's set-ups.
#[derive(Debug, Default)]
pub struct SetupLog {
    /// Wall seconds of each whole set-up.
    pub setup_s: Vec<f64>,
    generate_ms: Vec<f64>,
    build_ms: Vec<f64>,
}

impl SetupLog {
    /// Generates one scenario and builds its instance, timing both.
    pub fn generate_and_build(
        &mut self,
        p: &ScenarioParams,
        layout: u64,
        seed: u64,
        tracer: &mut Tracer,
    ) -> (Generated, Instance) {
        let span = tracer.begin("workload.generate", None);
        let t = Instant::now();
        let generated = generate(p, layout, seed);
        self.generate_ms.push(ms(t.elapsed()));
        tracer.end(span);
        let span = tracer.begin("model.build", None);
        let t = Instant::now();
        let instance = build(&generated);
        self.build_ms.push(ms(t.elapsed()));
        tracer.end(span);
        (generated, instance)
    }

    /// Writes `workload.generate_ms` and `model.build_ms` (medians per
    /// scenario).
    pub fn report(&self, o: &mut Outcome) {
        o.layer("workload.generate_ms", median(&self.generate_ms));
        o.layer("model.build_ms", median(&self.build_ms));
    }
}

/// One timed cold `approx_alg` solve of instance `key`, recorded in
/// `sweeps`; a failure is counted and yields `None`.
pub fn cold_solve(
    args: &Args,
    instance: &Instance,
    key: usize,
    tracer: &mut Tracer,
    o: &mut Outcome,
    sweeps: Option<&mut SweepStats>,
) -> Option<Solution> {
    let span = tracer.begin("approx.solve", None);
    let cpu0 = process_cpu_s();
    let t = Instant::now();
    let solved = approx_alg_with_stats(instance, &args.approx());
    let wall = t.elapsed();
    let cpu = process_cpu_s() - cpu0;
    tracer.end(span);
    o.attempted += 1;
    match solved {
        Ok((solution, stats)) => {
            if let Some(sweeps) = sweeps {
                sweeps.push(key, wall, cpu, &stats);
            }
            Some(solution)
        }
        Err(e) => {
            o.failed += 1;
            eprintln!("cold solve of instance {key} failed: {e}");
            None
        }
    }
}
