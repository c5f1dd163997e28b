//! Seeded input generation: the benchmark draws users and fleets with
//! the workload crate's samplers and hands only the generated points
//! and UAVs to the instance builder.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use uavnet_core::{Instance, Uav, User};
use uavnet_geom::{AreaSpec, GridSpec, Point2};
use uavnet_workload::{sample_fleet, sample_users, FleetStyle, UserDistribution};

/// Minimum data rate every generated user asks for (voice, bit/s).
pub const MIN_RATE_BPS: f64 = 2_000.0;
/// Hovering altitude `H_uav` in meters.
pub const ALTITUDE_M: f64 = 300.0;
/// UAV-to-UAV range `R_uav` in meters.
pub const UAV_RANGE_M: f64 = 600.0;
/// Grid cell side `λ` in meters.
pub const CELL_M: f64 = 300.0;

/// The make-up of one generated scenario.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioParams {
    /// Side of the square zone in meters.
    pub side_m: f64,
    /// Number of users.
    pub users: usize,
    /// Hotspot count of the fat-tailed user density.
    pub clusters: usize,
    /// Fleet size `K`.
    pub uavs: usize,
    /// Capacity range `[C_min, C_max]`.
    pub capacity: (u32, u32),
    /// How radios scale with capacity.
    pub fleet: FleetStyle,
    /// How far (meters, per axis, uniform) the run seed moves each
    /// user away from the layout's position.
    pub jitter_m: f64,
}

/// Generated inputs, before the instance build.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The zone.
    pub area: AreaSpec,
    /// User positions and rate demands.
    pub users: Vec<User>,
    /// The fleet.
    pub uavs: Vec<Uav>,
}

/// Derives an independent stream seed from the run seed and a salt.
pub fn mix(seed: u64, salt: u64) -> u64 {
    // SplitMix64 finaliser over the pair.
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws one scenario. `layout` fixes the hotspot layout (fat-tailed
/// user density) and the heterogeneous fleet — the "city" a workload
/// is about; `seed` draws where exactly each user stands, by moving
/// every user of the layout up to `p.jitter_m` per axis. Seeds then
/// vary the instance without redrawing its large-scale shape, so
/// run-to-run spread comes from the program, not from a different
/// city on every seed.
pub fn generate(p: &ScenarioParams, layout: u64, seed: u64) -> Generated {
    use rand::Rng;
    let area = AreaSpec::new(p.side_m, p.side_m, 500.0).expect("benchmark zone is valid");
    let mut layout_rng = SmallRng::seed_from_u64(layout);
    let mut rng = SmallRng::seed_from_u64(seed);
    let users = sample_users(
        &mut layout_rng,
        area,
        p.users,
        UserDistribution::FatTailed {
            clusters: p.clusters,
            zipf_exponent: 1.2,
        },
    )
    .into_iter()
    .map(|pos| User {
        pos: area.clamp(Point2::new(
            pos.x + rng.gen_range(-p.jitter_m..=p.jitter_m),
            pos.y + rng.gen_range(-p.jitter_m..=p.jitter_m),
        )),
        min_rate_bps: MIN_RATE_BPS,
    })
    .collect();
    let uavs = sample_fleet(
        &mut layout_rng,
        p.uavs,
        p.capacity.0,
        p.capacity.1,
        30.0,
        5.0,
        500.0,
        p.fleet,
    );
    Generated { area, users, uavs }
}

/// Builds the solver instance from generated inputs.
pub fn build(g: &Generated) -> Instance {
    let grid = GridSpec::new(g.area, CELL_M, ALTITUDE_M)
        .expect("benchmark grid is valid")
        .build();
    let mut builder = Instance::builder(grid, UAV_RANGE_M);
    builder.users(g.users.iter().copied());
    builder.uavs(g.uavs.iter().copied());
    builder.build().expect("generated instance builds")
}

/// Every `SURGE_EVERY`-th delta of a mobility stream is a demand surge.
pub const SURGE_EVERY: u64 = 20;

/// Seeded generator of a mobility delta stream over the benchmark's
/// own record of user positions.
///
/// Most deltas are `UserMoved` batches of 0.1 %–1 % of the scenario's
/// initial users, each displaced by up to 120 m per axis; every
/// [`SURGE_EVERY`]-th delta is a `UserSurge` of 0.1 % new users around
/// an existing one.
#[derive(Debug)]
pub struct StreamGen {
    rng: SmallRng,
    area: AreaSpec,
    initial_users: usize,
    emitted: u64,
}

impl StreamGen {
    /// A generator for `area` whose scenario started with
    /// `initial_users` users.
    pub fn new(seed: u64, area: AreaSpec, initial_users: usize) -> Self {
        StreamGen {
            rng: SmallRng::seed_from_u64(seed),
            area,
            initial_users,
            emitted: 0,
        }
    }

    /// The next delta; `users` is updated to the positions it leads to.
    pub fn next_delta(&mut self, users: &mut Vec<User>) -> uavnet_core::Delta {
        use rand::Rng;
        self.emitted += 1;
        let n = users.len();
        let step = |rng: &mut SmallRng, p: Point2, r: f64| {
            Point2::new(p.x + rng.gen_range(-r..=r), p.y + rng.gen_range(-r..=r))
        };
        if self.emitted.is_multiple_of(SURGE_EVERY) {
            let count = (self.initial_users / 1_000).max(1);
            let anchor = users[self.rng.gen_range(0..n)].pos;
            let surge: Vec<User> = (0..count)
                .map(|_| User {
                    pos: self.area.clamp(step(&mut self.rng, anchor, 150.0)),
                    min_rate_bps: MIN_RATE_BPS,
                })
                .collect();
            users.extend_from_slice(&surge);
            return uavnet_core::Delta::UserSurge(surge);
        }
        let lo = (self.initial_users / 1_000).max(1);
        let hi = (self.initial_users / 100).max(lo);
        let count = self.rng.gen_range(lo..=hi);
        let moves: Vec<(u32, Point2)> = (0..count)
            .map(|_| {
                let id = self.rng.gen_range(0..n);
                let pos = self.area.clamp(step(&mut self.rng, users[id].pos, 120.0));
                users[id].pos = pos;
                (id as u32, pos)
            })
            .collect();
        uavnet_core::Delta::UserMoved(moves)
    }
}
