//! `service`: the mobility delta stream as an open loop through
//! `SolverService` over loopback TCP.
//!
//! One publisher connection sends each delta when it falls due, at a
//! fixed rate, whether or not earlier deltas are done; one subscriber
//! connection receives the `deployments` frames. A delta's latency
//! runs from its due time to the arrival of the frame it caused, so a
//! stall is charged to every delta queued behind it. The stream ends
//! with link cuts and UAV losses. After the clock stops, every frame
//! is replayed against an in-process `SolverLoop` twin.

use crate::check::check_deployment;
use crate::common::{
    check_losses, claim, cold_solve, corrupt_check, loss_sweep, substrate_build_ms, Args,
    DeltaProbe, Outcome, Percentiles, SetupLog, SweepStats, MIN_DELTAS, WARMUP_DELTAS,
};
use crate::scenario::{mix, ScenarioParams, StreamGen};
use crate::trace::Tracer;
use crate::util::{mean, median, ms, peak_rss_mib, quantile};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use uavnet_core::{diff_deployments, Delta, Instance, SolverLoop, User};
use uavnet_service::proto::{delta_from_wire, delta_to_wire};
use uavnet_service::{
    ClientConfig, DeploymentMsg, Reply, Request, ServiceClient, ServiceConfig, ServiceHandle,
    ServiceSummary, SolverService,
};
use uavnet_workload::FleetStyle;

/// A mid-size instance: a 3 km zone with 3 000 users and ten UAVs,
/// where a delta's solver work (a few ms) and its wire and hand-off
/// work (about a millisecond) are of the same order. As in `mobility`,
/// the starting city is the same for every seed; the seed draws the
/// delta stream.
const PARAMS: ScenarioParams = ScenarioParams {
    side_m: 3_000.0,
    users: 3_000,
    clusters: 12,
    uavs: 10,
    capacity: (50, 300),
    fleet: FleetStyle::CommonRadio,
    jitter_m: 0.0,
};

/// Mobility deltas per round, before the closing ones. Every round
/// sets a fresh service up and streams the same seeded deltas, so
/// set-up samples spread over the whole run. The percentiles pool the
/// samples of all rounds: 15 sampled mobility deltas and the 4 closing
/// ones (which queue behind the first cut's repair) per round, so the
/// 90th percentile falls among the closing deltas' latencies:
/// `delta_p90_ms` is the reaction latency under faults, not the
/// host's noise, and `delta_p50_ms` that of a mobility delta.
const ROUND_DELTAS: usize = 20;

/// Deltas sent per second.
const RATE_HZ: f64 = 50.0;

/// Deltas that close the stream: cut, loss, cut, loss.
const TAIL: usize = 4;

/// When the publisher sent one delta, against when it fell due.
#[derive(Debug, Clone, Copy)]
struct Sent {
    due: Instant,
    sent: Instant,
}

/// The closing deltas, chosen by fixed rules from the standing
/// placements so that every seed closes the same way: cut the first
/// link (in cell order) between two deployed UAVs, lose the deployed
/// UAV of largest capacity, then cut the next link and lose the next
/// largest.
fn tail(instance: &Instance, placements: &[(usize, usize)]) -> Vec<Delta> {
    let range = instance.uav_channel().range_m();
    let hover = |c: usize| instance.grid().hover_position(c);
    let mut links = Vec::new();
    for (i, &(_, a)) in placements.iter().enumerate() {
        for &(_, b) in &placements[i + 1..] {
            if hover(a).distance(hover(b)) <= range {
                links.push((a.min(b), a.max(b)));
            }
        }
    }
    links.sort_unstable();
    let mut uavs: Vec<usize> = placements.iter().map(|&(u, _)| u).collect();
    uavs.sort_by_key(|&u| (std::cmp::Reverse(instance.uavs()[u].capacity), u));
    let link = |i: usize| links.get(i).map(|&l| vec![l]).unwrap_or_default();
    let uav = |i: usize| uavs.get(i).map(|&u| vec![u]).unwrap_or_default();
    vec![
        Delta::SeverLinks(link(0)),
        Delta::KillUavs(uav(0)),
        Delta::SeverLinks(link(1)),
        Delta::KillUavs(uav(1)),
    ]
}

/// A running service with the stream's record of the users and the
/// zone.
type Standing = (Vec<User>, uavnet_geom::AreaSpec, ServiceHandle);

/// Generates, builds and spawns the service (whose spawn runs the
/// cold solve). `setup_s` is the whole of it and `plan_s` the spawn;
/// `keep` receives a copy of the instance, made outside both timings.
fn set_up(
    args: &Args,
    tracer: &mut Tracer,
    o: &mut Outcome,
    log: &mut SetupLog,
    spawn_s: &mut Vec<f64>,
    config: &ServiceConfig,
    keep: Option<&mut Option<Instance>>,
) -> Option<Standing> {
    let start = Instant::now();
    let (generated, instance) = log.generate_and_build(&PARAMS, LAYOUT, mix(args.seed, 0), tracer);
    let built = start.elapsed();
    if let Some(keep) = keep {
        *keep = Some(instance.clone());
    }
    let span = tracer.begin("service.spawn", None);
    let start = Instant::now();
    let handle = SolverService::spawn(instance, args.loop_config(), config.clone());
    let spawned = start.elapsed();
    tracer.end(span);
    o.attempted += 1;
    match handle {
        Ok(handle) => {
            log.setup_s.push((built + spawned).as_secs_f64());
            spawn_s.push(spawned.as_secs_f64());
            Some((generated.users, generated.area, handle))
        }
        Err(e) => {
            o.failed += 1;
            eprintln!("service spawn failed: {e}");
            None
        }
    }
}

/// What one round's stream produced: per delta what the publisher
/// saw, when its ack arrived (`None` when it got `Busy`), and the
/// `deployments` frame with its arrival time.
struct Streamed {
    deltas: Vec<Delta>,
    sent: Vec<Sent>,
    acked: Vec<Option<Instant>>,
    busy: usize,
    frames: Vec<Option<(Instant, DeploymentMsg)>>,
    errors: Vec<String>,
}

/// Streams `deltas` then the closing deltas through the service at
/// `RATE_HZ`, one publisher and one subscriber connection.
///
/// The publisher is pipelined: one thread writes each `Publish` line
/// when it falls due, another reads the acks and `Busy` replies on the
/// same connection, so a backlog waits in the service's ingress
/// queue, not in the publisher. After the last mobility delta the
/// publisher asks for a snapshot (queued behind the deltas) and picks
/// the closing deltas from it.
fn stream(
    addr: std::net::SocketAddr,
    instance: &Instance,
    deltas: Vec<Delta>,
) -> Result<Streamed, String> {
    let count = deltas.len();
    let total = count + TAIL;
    let period = Duration::from_secs_f64(1.0 / RATE_HZ);
    let timeout = Some(Duration::from_secs(30));
    let client = ClientConfig {
        read_timeout: Duration::from_secs(30),
        ..ClientConfig::default()
    };
    let mut sub = ServiceClient::connect(addr, client)
        .and_then(|mut c| c.subscribe(&["deployments"]).map(|()| c))
        .map_err(|e| format!("subscriber: {e}"))?;
    let publisher = TcpStream::connect(addr)
        .and_then(|s| {
            s.set_nodelay(true)?;
            s.set_read_timeout(timeout)?;
            s.set_write_timeout(timeout)?;
            Ok(s)
        })
        .map_err(|e| format!("publisher: {e}"))?;
    let mut replies = BufReader::new(
        publisher
            .try_clone()
            .map_err(|e| format!("publisher: {e}"))?,
    );
    let busy = AtomicUsize::new(0);
    let (snapshot_tx, snapshot_rx) = mpsc::channel::<DeploymentMsg>();
    let mut frames: Vec<Option<(Instant, DeploymentMsg)>> = vec![None; total];
    let mut errors = Vec::new();
    let (published, acked) = std::thread::scope(|scope| {
        let busy = &busy;
        let writer = scope.spawn(move || -> Result<(Vec<Sent>, Vec<Delta>), String> {
            let mut publisher = publisher;
            let mut write = |request: Request| {
                let line = request.to_line() + "\n";
                publisher.write_all(line.as_bytes())
            };
            let mut deltas = deltas;
            let mut sent = Vec::with_capacity(total);
            let t0 = Instant::now() + Duration::from_millis(20);
            for i in 0..total {
                if i == count {
                    let snap = snapshot_rx
                        .recv_timeout(Duration::from_secs(30))
                        .map_err(|e| format!("snapshot: {e}"))?;
                    deltas.extend(tail(instance, &snap.placements));
                }
                let due = t0 + period * i as u32;
                wait_until(due);
                let at = Instant::now();
                let (topic, payload) = delta_to_wire(&deltas[i]);
                write(Request::Publish {
                    topic: topic.to_string(),
                    seq: i as u64,
                    trace_id: Some(trace_id(i)),
                    payload,
                })
                .map_err(|e| format!("publish {i}: {e}"))?;
                sent.push(Sent { due, sent: at });
                if i + 1 == count {
                    write(Request::Snapshot).map_err(|e| format!("snapshot: {e}"))?;
                }
            }
            Ok((sent, deltas))
        });
        let reader = scope.spawn(move || -> Result<Vec<Option<Instant>>, String> {
            let mut acked = vec![None; total];
            let mut answered = 0;
            let mut line = String::new();
            while answered < total {
                line.clear();
                match replies.read_line(&mut line) {
                    Ok(0) => return Err(format!("publisher closed after {answered} replies")),
                    Ok(_) => {}
                    Err(e) => return Err(format!("publisher after {answered} replies: {e}")),
                }
                let at = Instant::now();
                match Reply::from_line(line.trim_end()) {
                    Ok(Reply::Ack { seq, .. }) if (seq as usize) < total => {
                        acked[seq as usize] = Some(at);
                        answered += 1;
                    }
                    Ok(Reply::Busy { seq, .. }) if (seq as usize) < total => {
                        busy.fetch_add(1, Ordering::SeqCst);
                        answered += 1;
                    }
                    Ok(Reply::Deployment(snapshot)) => {
                        let _ = snapshot_tx.send(snapshot);
                    }
                    other => return Err(format!("unexpected reply to a publish: {other:?}")),
                }
            }
            Ok(acked)
        });
        // A delta that got `Busy` produces no frame.
        let mut received = 0;
        while received + busy.load(Ordering::SeqCst) < total {
            match sub.next_event() {
                Ok(Reply::Deployment(msg)) => {
                    let now = Instant::now();
                    let idx = msg
                        .trace_id
                        .as_deref()
                        .and_then(|t| t.strip_prefix('d'))
                        .and_then(|t| t.parse::<usize>().ok());
                    match idx {
                        Some(i) if i < total && frames[i].is_none() => {
                            frames[i] = Some((now, msg));
                            received += 1;
                        }
                        _ => errors.push(format!("unexpected frame {msg:?}")),
                    }
                }
                Ok(_) => {}
                Err(e) => {
                    errors.push(format!("subscriber after {received} frames: {e}"));
                    break;
                }
            }
        }
        (joined(writer.join()), joined(reader.join()))
    });
    let (sent, deltas) = published?;
    Ok(Streamed {
        deltas,
        sent,
        acked: acked?,
        busy: busy.into_inner(),
        frames,
        errors,
    })
}

/// A scoped thread's result, with a panic as an error.
fn joined<T>(r: std::thread::Result<Result<T, String>>) -> Result<T, String> {
    r.unwrap_or_else(|_| Err("thread panicked".into()))
}

/// Sleeps until shortly before `due`, then spins, so the generator's
/// own wake-up delay stays out of the latency it measures.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_millis(1);
    if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
        std::thread::sleep(wait);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn trace_id(i: usize) -> String {
    format!("d{i}")
}

/// Seed of the workload's hotspot layout and fleet.
const LAYOUT: u64 = 301;

/// Runs the workload.
pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut o = Outcome::new();
    let service_config = ServiceConfig {
        // The stage histograms come from the service's own obs
        // session, which only the traced (obs) build can record.
        record_obs: args.trace && cfg!(feature = "obs"),
        ..ServiceConfig::default()
    };

    // Rounds: set a service up, stream the seeded deltas and the
    // closing ones, shut it down. Round 1 is kept for the checks;
    // later rounds must publish the same deployments.
    let mut log = SetupLog::default();
    let mut spawn_s = Vec::new();
    let mut delta_ms = Vec::new();
    let mut reference: Option<Instance> = None;
    let mut first: Option<(Vec<User>, Streamed, Option<ServiceSummary>)> = None;
    let mut rounds = 0usize;
    let measured = Instant::now();
    while rounds == 0 || !args.expired(measured) || delta_ms.len() < MIN_DELTAS {
        rounds += 1;
        let keep = reference.is_none().then_some(&mut reference);
        let Some((mut users, area, handle)) = set_up(
            args,
            tracer,
            &mut o,
            &mut log,
            &mut spawn_s,
            &service_config,
            keep,
        ) else {
            break;
        };
        let Some(instance) = reference.as_ref() else {
            break;
        };
        let mut gen = StreamGen::new(mix(args.seed, 1), area, PARAMS.users);
        let deltas: Vec<Delta> = (0..ROUND_DELTAS)
            .map(|_| gen.next_delta(&mut users))
            .collect();
        let streamed = stream(handle.addr(), instance, deltas);
        let summary = match handle.shutdown_and_join() {
            Ok(s) => Some(s),
            Err(e) => {
                o.errors.push(format!(
                    "round {rounds}: service did not shut down cleanly: {e}"
                ));
                None
            }
        };
        o.attempted += (ROUND_DELTAS + TAIL) as u64;
        let streamed = match streamed {
            Ok(s) => s,
            Err(e) => {
                o.failed += (ROUND_DELTAS + TAIL) as u64;
                o.errors
                    .push(format!("round {rounds} did not complete: {e}"));
                break;
            }
        };
        o.failed += streamed.busy as u64;
        o.errors.extend_from_slice(&streamed.errors);
        for (i, (s, f)) in streamed.sent.iter().zip(&streamed.frames).enumerate() {
            if let (true, Some((at, _))) = (i >= WARMUP_DELTAS, f) {
                delta_ms.push(ms(at.saturating_duration_since(s.due)));
            }
        }
        match &first {
            None => first = Some((users, streamed, summary)),
            Some((_, reference, _)) => {
                let same = reference.frames.len() == streamed.frames.len()
                    && reference.frames.iter().zip(&streamed.frames).all(|(a, b)| {
                        matches!((a, b), (Some((_, a)), Some((_, b)))
                            if a.served == b.served && a.placements == b.placements)
                    });
                o.require(same || streamed.busy + reference.busy > 0, || {
                    format!("round {rounds} published other deployments than round 1")
                });
            }
        }
    }
    let peak = peak_rss_mib();
    let (Some(instance), Some((users, first, summary))) = (reference, first) else {
        o.errors.push("no round completed".into());
        return o;
    };
    let Streamed {
        deltas,
        sent,
        acked,
        frames,
        ..
    } = first;

    // The in-process twin: round 1's instance, cold-solved once after
    // the clock stopped.
    let mut sweeps = SweepStats::default();
    let twin = cold_solve(args, &instance, 0, tracer, &mut o, Some(&mut sweeps))
        .map(|sol| SolverLoop::from_solution(instance, &sol, args.loop_config()));
    let mut twin = match twin {
        Some(Ok(twin)) => twin,
        Some(Err(e)) => {
            o.errors.push(format!("twin stand-up failed: {e}"));
            return o;
        }
        None => {
            o.errors.push("twin cold solve failed".into());
            return o;
        }
    };

    // Replay round 1's frames against the twin. A delta that got
    // `Busy` was never applied, so it is skipped.
    let mut probe = DeltaProbe::default();
    let mut before = twin.placements().to_vec();
    let mut pre_tail = None;
    let mut epoch = 0;
    for (i, delta) in deltas.iter().enumerate() {
        if i == ROUND_DELTAS {
            pre_tail = Some(twin.clone());
        }
        if acked[i].is_none() {
            continue;
        }
        let outcome = match probe.apply(&mut twin, delta.clone(), tracer, i as u64) {
            Ok((outcome, _)) => outcome,
            Err(e) => {
                o.errors.push(format!("twin rejected delta {i}: {e}"));
                break;
            }
        };
        epoch += 1;
        let Some((_, frame)) = &frames[i] else {
            o.errors
                .push(format!("delta {i} was acked but produced no frame"));
            break;
        };
        let now = twin.placements().to_vec();
        let diff = diff_deployments(&before, &now);
        let same = frame.epoch == epoch
            && frame.served == outcome.served
            && frame.placements == now
            && frame.added == diff.added
            && frame.removed == diff.removed;
        o.require(same, || {
            format!(
                "frame {i} differs from the twin: {frame:?} vs served {}",
                outcome.served
            )
        });
        before = now;
    }

    // Independent checks on the final deployment, against the UAVs
    // the closing deltas killed and the links they cut.
    let dead = twin.dead_uavs();
    let severed: Vec<_> = deltas
        .iter()
        .filter_map(|d| match d {
            Delta::SeverLinks(links) => Some(links.iter().copied()),
            _ => None,
        })
        .flatten()
        .collect();
    let final_solution = twin.solution();
    let mut served_users = 0;
    if let Some(v) = o.check(
        "final deployment",
        check_deployment(
            twin.instance(),
            &users,
            &dead,
            &severed,
            claim(&final_solution),
        ),
    ) {
        served_users = v.served;
    }
    // Single-UAV losses of the deployment the mobility deltas left,
    // before the closing cuts and losses.
    let pre_tail = pre_tail.unwrap_or_else(|| twin.clone());
    let sweep = loss_sweep(&pre_tail, &mut Tracer::new(false), 0);
    o.attempted += sweep.latencies_ms.len() as u64 + sweep.failed;
    o.failed += sweep.failed;
    check_losses(
        &mut o,
        pre_tail.instance(),
        &users,
        &[],
        &sweep.losses,
        "before the closing deltas",
    );
    if args.corrupt {
        corrupt_check(&mut o, twin.instance(), &users, &final_solution);
    }

    o.end_to_end(
        &log.setup_s,
        median(&spawn_s),
        Percentiles::pooled(&delta_ms),
        served_users,
        sweep.served_after_loss,
        peak,
    );
    eprintln!(
        "service: {rounds} rounds of {} deltas at {RATE_HZ}/s",
        ROUND_DELTAS + TAIL
    );
    if args.trace {
        for (i, (s, f)) in sent.iter().zip(&frames).enumerate() {
            if let Some((at, _)) = f {
                tracer.record("service.delta", s.due, *at, Some(i as u64));
            }
            if let Some(at) = acked[i] {
                tracer.record("service.ack", s.sent, at, Some(i as u64));
            }
        }
        log.report(&mut o);
        o.layer(
            "model.coverage_mib",
            twin.instance().coverage_memory().compressed_bytes as f64 / (1024.0 * 1024.0),
        );
        probe.report(&mut o);
        o.layer(
            "graph.substrate_build_ms",
            substrate_build_ms(twin.instance(), tracer),
        );
        sweeps.report(&mut o);
        o.layer("repair.dropped_placements", sweep.dropped as f64);
        o.layer("repair.relays_spent", sweep.relays as f64);

        // Wire work per delta, timed outside the service on the same
        // frames: the publish request and the deployments frame.
        let (mut enc, mut dec, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
        for (i, delta) in deltas.iter().enumerate() {
            let Some((_, frame)) = &frames[i] else {
                continue;
            };
            let span = tracer.begin("proto.encode", Some(i as u64));
            let t = Instant::now();
            let (topic, payload) = delta_to_wire(delta);
            let request = Request::Publish {
                topic: topic.to_string(),
                seq: i as u64,
                trace_id: Some(trace_id(i)),
                payload,
            }
            .to_line();
            let reply = Reply::Deployment(frame.clone()).to_line();
            enc.push(t.elapsed().as_secs_f64() * 1e6);
            tracer.end(span);
            let span = tracer.begin("proto.decode", Some(i as u64));
            let t = Instant::now();
            let decoded = Request::from_line(&request).and_then(|r| match r {
                Request::Publish { topic, payload, .. } => delta_from_wire(&topic, &payload),
                other => Err(uavnet_service::ServiceError::Protocol(format!("{other:?}"))),
            });
            let frame_back = Reply::from_line(&reply);
            dec.push(t.elapsed().as_secs_f64() * 1e6);
            tracer.end(span);
            o.require(
                decoded.as_ref().is_ok_and(|d| d == delta) && frame_back.is_ok(),
                || format!("frame {i} does not survive an encode/decode round trip"),
            );
            bytes.push((request.len() + reply.len() + 2) as f64);
        }
        o.layer("proto.encode_us", median(&enc));
        o.layer("proto.decode_us", median(&dec));
        o.layer("service.frame_bytes", mean(&bytes));
        let rtt: Vec<f64> = sent
            .iter()
            .zip(&acked)
            .filter_map(|(s, a)| a.map(|a| ms(a.saturating_duration_since(s.sent))))
            .collect();
        o.layer("service.ack_p50_ms", median(&rtt));
        let lag: Vec<f64> = sent
            .iter()
            .map(|s| ms(s.sent.saturating_duration_since(s.due)))
            .collect();
        o.layer("service.generator_lag_p90_ms", quantile(&lag, 0.9));
        if let Some(m) = summary.as_ref().and_then(|s| s.metrics.as_ref()) {
            let p50 = |name: &str| m.phase(name).map_or(0.0, |p| p.p50_ns as f64 / 1e6);
            o.layer("service.queue_wait_p50_ms", p50("service.queue_wait"));
            o.layer("service.apply_p50_ms", p50("service.apply"));
            o.layer("service.publish_p50_ms", p50("service.publish"));
        }
    }
    o
}
