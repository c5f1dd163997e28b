//! Differential tests for in-place coverage patching: an instance
//! whose users moved or surged (`Instance::with_moved_users` /
//! `with_extra_users`, and the `SolverLoop` deltas built on them) must
//! be indistinguishable from a fresh `InstanceBuilder::build` of the
//! same users — coverage tables, their compressed memory, best-coverage
//! counts, the spatial index, the fingerprint — while keeping its own
//! (possibly severed) location graph. Rejected batches must change
//! nothing.

use proptest::collection::vec;
use proptest::prelude::*;

use uavnet::channel::UavRadio;
use uavnet::core::{ApproxConfig, CoreError, Delta, Instance, LoopConfig, SolverLoop, User};
use uavnet::geom::{AreaSpec, GridSpec, Point2};

const ZONE_M: f64 = 1_500.0;
const CELL_M: f64 = 300.0;

/// Rate demands from easy to unservable at range, so the rate half of
/// the admissibility check flips too.
const RATES: [f64; 4] = [2_000.0, 2.0e5, 2.0e6, 2.0e8];

/// One coordinate: uniform, or pinned to a zone edge, a cell boundary
/// or a cell center.
fn coord(kind: u8, raw: f64) -> f64 {
    match kind {
        0 => 0.0,
        1 => ZONE_M,
        2 => (raw / CELL_M).round() * CELL_M,
        3 => (raw / CELL_M).floor().min(4.0) * CELL_M + CELL_M / 2.0,
        _ => raw,
    }
}

prop_compose! {
    fn positions()(kx in 0u8..8, x in 0.0f64..ZONE_M, ky in 0u8..8, y in 0.0f64..ZONE_M) -> Point2 {
        Point2::new(coord(kx, x), coord(ky, y))
    }
}

prop_compose! {
    fn users()(pos in positions(), rate in 0usize..RATES.len()) -> User {
        User { pos, min_rate_bps: RATES[rate] }
    }
}

/// A heterogeneous scenario: two or three radio classes (some with a
/// short range, so corner users fall out of every list), an optional
/// gateway, and a few severed links.
#[derive(Debug, Clone)]
struct Scenario {
    users: Vec<User>,
    radios: Vec<(u32, UavRadio)>,
    uav_range: f64,
    gateway: Option<Point2>,
    cuts: Vec<(usize, usize)>,
}

prop_compose! {
    fn scenarios()(
        users in vec(users(), 0..30),
        ranges in vec(150.0f64..500.0, 2..4),
        powers in vec(20.0f64..36.0, 3..4),
        caps in vec(1u32..8, 2..6),
        uav_range in 320.0f64..700.0,
        gateway in proptest::option::of(positions()),
        cuts in vec((0usize..25, 0usize..25), 0..6),
    ) -> Scenario {
        // Every class gets at least one UAV; the rest cycle.
        let radios = caps
            .iter()
            .enumerate()
            .map(|(k, &cap)| {
                let c = k % ranges.len();
                (cap, UavRadio::new(powers[c], 5.0, ranges[c]))
            })
            .collect();
        Scenario { users, radios, uav_range, gateway, cuts }
    }
}

impl Scenario {
    fn build(&self, users: &[User]) -> Instance {
        let grid = GridSpec::new(AreaSpec::new(ZONE_M, ZONE_M, 500.0).unwrap(), CELL_M, 300.0)
            .unwrap()
            .build();
        let mut b = Instance::builder(grid, self.uav_range);
        b.users(users.iter().copied());
        for &(cap, radio) in &self.radios {
            b.add_uav(cap, radio);
        }
        if let Some(g) = self.gateway {
            b.gateway(g);
        }
        b.build()
            .expect("valid instance")
            .with_severed_links(&self.cuts)
            .expect("cuts inside the grid")
    }
}

/// One batch applied to the instance.
#[derive(Debug, Clone)]
enum Batch {
    /// Raw ids (reduced modulo the population, so repeats are common)
    /// and target positions.
    Moves(Vec<(usize, Point2)>),
    Surge(Vec<User>),
}

prop_compose! {
    /// Two move batches to every surge.
    fn batches()(
        kind in 0u8..3,
        moves in vec((0usize..64, positions()), 1..12),
        surge in vec(users(), 1..6),
    ) -> Batch {
        if kind < 2 { Batch::Moves(moves) } else { Batch::Surge(surge) }
    }
}

impl Batch {
    fn to_delta(&self, num_users: usize) -> Delta {
        match self {
            Batch::Moves(raw) => Delta::UserMoved(
                raw.iter()
                    .filter(|_| num_users > 0)
                    .map(|&(id, pos)| ((id % num_users) as u32, pos))
                    .collect(),
            ),
            Batch::Surge(users) => Delta::UserSurge(users.clone()),
        }
    }

    /// Applies the batch to `users` the way the instance must: moves in
    /// batch order (the last move of a repeated id wins), surges
    /// appended.
    fn apply_to(&self, users: &mut Vec<User>) {
        match self.to_delta(users.len()) {
            Delta::UserMoved(moves) => {
                for (id, pos) in moves {
                    users[id as usize].pos = pos;
                }
            }
            Delta::UserSurge(extra) => users.extend(extra),
            _ => unreachable!(),
        }
    }
}

/// The patched instance must equal a fresh build of `users` on every
/// derived structure, and keep the scenario's severed graph.
fn assert_matches_rebuild(patched: &Instance, scenario: &Scenario, users: &[User]) {
    let fresh = scenario.build(users);
    assert_eq!(patched.users(), fresh.users());
    assert_eq!(patched.coverage_tables(), fresh.coverage_tables());
    assert_eq!(
        patched.coverage_tables(),
        patched.coverage_tables_bruteforce()
    );
    assert_eq!(patched.coverage_memory(), fresh.coverage_memory());
    for loc in 0..fresh.num_locations() {
        assert_eq!(
            patched.best_coverage_count(loc),
            fresh.best_coverage_count(loc),
            "best coverage at cell {loc}"
        );
        let center = fresh.grid().cell_center(loc);
        for r in [0.0, 150.0, 420.0, 2_500.0] {
            assert_eq!(
                patched.users_within(center, r),
                fresh.users_within(center, r),
                "users within {r} m of cell {loc}"
            );
        }
    }
    for &u in users.iter().take(4) {
        assert_eq!(
            patched.users_within(u.pos, 90.0),
            fresh.users_within(u.pos, 90.0)
        );
    }
    assert_eq!(patched.fingerprint(), fresh.fingerprint());
    let edges = |i: &Instance| i.location_graph().edges().collect::<Vec<_>>();
    assert_eq!(edges(patched), edges(&fresh));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Long chains of move and surge batches through the copy API,
    /// compared against a fresh build after every batch.
    #[test]
    fn patched_instance_equals_fresh_build(
        scenario in scenarios(),
        chain in vec(batches(), 1..14),
    ) {
        let mut users = scenario.users.clone();
        let mut instance = scenario.build(&users);
        for batch in &chain {
            instance = match batch.to_delta(users.len()) {
                Delta::UserMoved(moves) => instance.with_moved_users(&moves),
                Delta::UserSurge(extra) => instance.with_extra_users(&extra),
                _ => unreachable!(),
            }
            .expect("in-zone batch");
            batch.apply_to(&mut users);
            assert_matches_rebuild(&instance, &scenario, &users);
        }
    }

    /// The same chains through a standing `SolverLoop`, which patches
    /// its instance in place.
    #[test]
    fn solver_loop_instance_equals_fresh_build(
        scenario in scenarios(),
        chain in vec(batches(), 1..8),
    ) {
        let mut users = scenario.users.clone();
        let instance = scenario.build(&users);
        let mut config = LoopConfig::new(ApproxConfig::with_s(1).threads(1));
        config.tile_cells = 2;
        let Ok(mut lp) = SolverLoop::new(instance, config) else {
            // A gateway no cell reaches cannot be solved; nothing to patch.
            continue;
        };
        for batch in &chain {
            match lp.apply(batch.to_delta(users.len())) {
                Ok(_) | Err(CoreError::Connect(_)) => {}
                Err(e) => prop_assert!(false, "untyped failure: {e}"),
            }
            batch.apply_to(&mut users);
            assert_matches_rebuild(lp.instance(), &scenario, &users);
        }
    }
}

fn two_class_scenario(users: Vec<User>) -> Scenario {
    Scenario {
        users,
        radios: vec![
            (4, UavRadio::new(30.0, 5.0, 180.0)),
            (6, UavRadio::new(33.0, 5.0, 450.0)),
            (3, UavRadio::new(30.0, 5.0, 180.0)),
        ],
        uav_range: 650.0,
        gateway: Some(Point2::new(0.0, 0.0)),
        cuts: vec![(0, 1), (6, 7), (12, 13)],
    }
}

fn user(x: f64, y: f64) -> User {
    User {
        pos: Point2::new(x, y),
        min_rate_bps: 2_000.0,
    }
}

#[test]
fn repeated_ids_take_the_last_move() {
    let scenario = two_class_scenario(vec![user(150.0, 150.0), user(700.0, 800.0)]);
    let instance = scenario.build(&scenario.users);
    let moves = [
        (0, Point2::new(1_400.0, 100.0)),
        (1, Point2::new(10.0, 10.0)),
        (0, Point2::new(450.0, 450.0)),
        (1, Point2::new(700.0, 800.0)), // back where it started
        (0, Point2::new(750.0, 1_050.0)),
    ];
    let patched = instance.with_moved_users(&moves).unwrap();
    let users = vec![user(750.0, 1_050.0), user(700.0, 800.0)];
    assert_matches_rebuild(&patched, &scenario, &users);
}

#[test]
fn users_leave_every_list_and_come_back() {
    // A corner is 212 m from the nearest cell center: out of the short
    // class's range; an unservable rate leaves the long class's lists.
    let mut far = user(150.0, 150.0);
    far.min_rate_bps = 2.0e12;
    let scenario = two_class_scenario(vec![user(150.0, 150.0), far, user(1_350.0, 1_350.0)]);
    let instance = scenario.build(&scenario.users);
    let corners = [(0, Point2::new(0.0, 0.0)), (1, Point2::new(1_500.0, 0.0))];
    let patched = instance.with_moved_users(&corners).unwrap();
    let tables = patched.coverage_tables();
    assert!(
        tables[0].iter().all(|list| !list.contains(&0)),
        "short class still covers the corner"
    );
    assert!(
        tables.iter().flatten().all(|list| !list.contains(&1)),
        "unservable user listed"
    );
    let mut users = scenario.users.clone();
    users[0].pos = Point2::new(0.0, 0.0);
    users[1].pos = Point2::new(1_500.0, 0.0);
    assert_matches_rebuild(&patched, &scenario, &users);

    let back = patched
        .with_moved_users(&[
            (0, Point2::new(150.0, 150.0)),
            (1, Point2::new(1_500.0, 1_500.0)),
        ])
        .unwrap();
    users[0].pos = Point2::new(150.0, 150.0);
    users[1].pos = Point2::new(1_500.0, 1_500.0);
    assert_matches_rebuild(&back, &scenario, &users);
}

#[test]
fn empty_instance_surges_then_moves() {
    let scenario = two_class_scenario(Vec::new());
    let mut instance = scenario.build(&[]);
    let mut users = Vec::new();
    for wave in 0..4 {
        let extra: Vec<User> = (0..5)
            .map(|i| user(100.0 + 290.0 * i as f64, 60.0 + 350.0 * wave as f64))
            .collect();
        instance = instance.with_extra_users(&extra).unwrap();
        users.extend(extra);
        assert_matches_rebuild(&instance, &scenario, &users);
        instance = instance
            .with_moved_users(&[(0, Point2::new(1_500.0, 1_500.0 - 100.0 * wave as f64))])
            .unwrap();
        users[0].pos = Point2::new(1_500.0, 1_500.0 - 100.0 * wave as f64);
        assert_matches_rebuild(&instance, &scenario, &users);
    }
}

/// A rejected delta must leave the loop exactly as it was, even when
/// the bad entry sits after valid ones in the same batch.
#[test]
fn rejected_batches_leave_the_loop_untouched() {
    let users: Vec<User> = (0..24)
        .map(|i| user(60.0 + 59.0 * i as f64, 90.0 + 53.0 * (i % 7) as f64))
        .collect();
    let scenario = two_class_scenario(users);
    let mut scenario_no_gateway = scenario.clone();
    scenario_no_gateway.gateway = None;
    let instance = scenario_no_gateway.build(&scenario.users);
    let mut lp = SolverLoop::new(instance, LoopConfig::new(ApproxConfig::with_s(1))).unwrap();
    lp.apply(Delta::UserMoved(vec![(3, Point2::new(700.0, 700.0))]))
        .unwrap();

    let solution = lp.solution();
    let served = lp.served_users();
    let fingerprint = lp.instance().fingerprint();
    let tables = lp.instance().coverage_tables();
    let stats = lp.stats().clone();
    let mut bad_rate = user(500.0, 500.0);
    bad_rate.min_rate_bps = f64::NAN;
    let rejected = [
        Delta::UserMoved(vec![
            (0, Point2::new(900.0, 900.0)),
            (5, Point2::new(100.0, 1_400.0)),
            (24, Point2::new(10.0, 10.0)), // no such user
            (6, Point2::new(1_200.0, 300.0)),
        ]),
        Delta::UserMoved(vec![
            (0, Point2::new(900.0, 900.0)),
            (7, Point2::new(1_500.1, 300.0)), // outside the zone
            (8, Point2::new(40.0, 40.0)),
        ]),
        Delta::UserMoved(vec![(1, Point2::new(f64::NAN, 20.0))]),
        Delta::UserSurge(vec![user(300.0, 300.0), bad_rate, user(600.0, 600.0)]),
        Delta::UserSurge(vec![user(300.0, 300.0), user(-1.0, 600.0)]),
        Delta::UserSurge(vec![User {
            pos: Point2::new(300.0, 300.0),
            min_rate_bps: 0.0,
        }]),
    ];
    for delta in rejected {
        let what = format!("{delta:?}");
        assert!(lp.apply(delta).is_err(), "{what} was accepted");
        assert_eq!(lp.solution(), solution, "{what}");
        assert_eq!(lp.served_users(), served, "{what}");
        assert_eq!(lp.instance().fingerprint(), fingerprint, "{what}");
        assert_eq!(lp.instance().coverage_tables(), tables, "{what}");
        assert_eq!(lp.stats(), &stats, "{what}");
    }
}
