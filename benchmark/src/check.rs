//! Independent correctness checks, run outside every timed section.
//!
//! Nothing here calls the solver's coverage tables, matching kernel,
//! connectivity substrate or validators. Coverage is recomputed from
//! the channel model (`AtgChannel::can_serve` at each placement's
//! hover position), the optimal served count comes from this module's
//! own Dinic max-flow, and connectivity from its own breadth-first
//! search over the `R_uav` distance between hover positions, leaving
//! out the links a delta severed.

use std::collections::VecDeque;
use uavnet_core::{Instance, User};
use uavnet_geom::CellIndex;

/// What a deployment claims: its placements and, per user, the index
/// of the placement serving it.
#[derive(Debug, Clone, Copy)]
pub struct Claim<'a> {
    /// `(uav, cell)` placements.
    pub placements: &'a [(usize, CellIndex)],
    /// Per user, the serving placement (`None` = unserved).
    pub user_placement: &'a [Option<usize>],
    /// The served count the program reported.
    pub served: usize,
}

/// What a passing check established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Users served by the claim.
    pub served: usize,
    /// `min(Σ capacity of the placed live UAVs, users)`.
    pub admissible: usize,
}

/// Checks a deployment against the channel model, with `users` the
/// benchmark's own record of where every user is, `dead` the UAVs
/// that must not fly and `severed` the cell pairs whose link was cut.
///
/// # Errors
///
/// A description of the first violated property: a dead, repeated or
/// out-of-range UAV or cell; a disconnected placement; a user served
/// out of range or by a placement that does not exist; a load over
/// capacity; a served count that disagrees with the assignment; or an
/// assignment that is not a maximum one.
pub fn check_deployment(
    instance: &Instance,
    users: &[User],
    dead: &[usize],
    severed: &[(CellIndex, CellIndex)],
    claim: Claim<'_>,
) -> Result<Verdict, String> {
    let fleet = instance.uavs();
    let grid = instance.grid();
    let placements = claim.placements;
    if claim.user_placement.len() != users.len() {
        return Err(format!(
            "assignment covers {} users, the scenario has {}",
            claim.user_placement.len(),
            users.len()
        ));
    }
    let mut uav_seen = vec![false; fleet.len()];
    let mut cell_seen = vec![false; grid.num_cells()];
    for &(uav, cell) in placements {
        if uav >= fleet.len() || cell >= grid.num_cells() {
            return Err(format!("placement ({uav}, {cell}) is out of range"));
        }
        if dead.contains(&uav) {
            return Err(format!("dead UAV {uav} is still deployed"));
        }
        if std::mem::replace(&mut uav_seen[uav], true) {
            return Err(format!("UAV {uav} is placed twice"));
        }
        if std::mem::replace(&mut cell_seen[cell], true) {
            return Err(format!("cell {cell} holds two UAVs"));
        }
    }
    if !connected(instance, placements, severed) {
        return Err(format!(
            "the {} placements do not form one network within R_uav",
            placements.len()
        ));
    }

    let mut loads = vec![0u32; placements.len()];
    let mut served = 0usize;
    for (uid, slot) in claim.user_placement.iter().enumerate() {
        let Some(p) = *slot else { continue };
        let Some(&(uav, cell)) = placements.get(p) else {
            return Err(format!("user {uid} is served by missing placement {p}"));
        };
        let user = users[uid];
        if !instance.atg().can_serve(
            &fleet[uav].radio,
            grid.hover_position(cell),
            user.pos,
            user.min_rate_bps,
        ) {
            return Err(format!(
                "user {uid} at {} is out of range of UAV {uav} over cell {cell}",
                user.pos
            ));
        }
        loads[p] += 1;
        if loads[p] > fleet[uav].capacity {
            return Err(format!(
                "UAV {uav} serves more than its capacity {}",
                fleet[uav].capacity
            ));
        }
        served += 1;
    }
    if served != claim.served {
        return Err(format!(
            "reported {} served, the assignment serves {served}",
            claim.served
        ));
    }
    let optimum = max_served(instance, users, placements);
    if optimum != served {
        return Err(format!(
            "assignment serves {served}, the maximum for these placements is {optimum}"
        ));
    }
    let capacity: usize = placements
        .iter()
        .map(|&(uav, _)| fleet[uav].capacity as usize)
        .sum();
    let admissible = capacity.min(users.len());
    if served > admissible {
        return Err(format!(
            "serves {served}, above min(capacity, users) = {admissible}"
        ));
    }
    Ok(Verdict { served, admissible })
}

/// Whether the placements form one network: breadth-first search over
/// pairs whose hover positions lie within `R_uav` of each other and
/// whose link is not in `severed` (either order).
pub fn connected(
    instance: &Instance,
    placements: &[(usize, CellIndex)],
    severed: &[(CellIndex, CellIndex)],
) -> bool {
    if placements.len() <= 1 {
        return true;
    }
    let range = instance.uav_channel().range_m();
    let pos: Vec<_> = placements
        .iter()
        .map(|&(_, cell)| instance.grid().hover_position(cell))
        .collect();
    let cut = |a: usize, b: usize| {
        let (ca, cb) = (placements[a].1, placements[b].1);
        severed.contains(&(ca, cb)) || severed.contains(&(cb, ca))
    };
    let mut seen = vec![false; pos.len()];
    let mut queue = VecDeque::from([0usize]);
    seen[0] = true;
    let mut reached = 1;
    while let Some(a) = queue.pop_front() {
        for b in 0..pos.len() {
            if !seen[b] && pos[a].distance(pos[b]) <= range + 1e-9 && !cut(a, b) {
                seen[b] = true;
                reached += 1;
                queue.push_back(b);
            }
        }
    }
    reached == pos.len()
}

/// Users each placement can serve, recomputed from the channel model.
pub fn coverage(
    instance: &Instance,
    users: &[User],
    placements: &[(usize, CellIndex)],
) -> Vec<Vec<u32>> {
    let fleet = instance.uavs();
    placements
        .iter()
        .map(|&(uav, cell)| {
            let radio = &fleet[uav].radio;
            let hover = instance.grid().hover_position(cell);
            let center = hover.to_plane();
            let r2 = radio.user_range_m() * radio.user_range_m();
            users
                .iter()
                .enumerate()
                .filter(|(_, u)| {
                    u.pos.distance_sq(center) <= r2
                        && instance
                            .atg()
                            .can_serve(radio, hover, u.pos, u.min_rate_bps)
                })
                .map(|(i, _)| i as u32)
                .collect()
        })
        .collect()
}

/// The maximum number of users the placements can serve together
/// (Lemma 1 of the paper: an integral max-flow), by Dinic's algorithm.
pub fn max_served(instance: &Instance, users: &[User], placements: &[(usize, CellIndex)]) -> usize {
    let cover = coverage(instance, users, placements);
    let caps: Vec<u32> = placements
        .iter()
        .map(|&(uav, _)| instance.uavs()[uav].capacity)
        .collect();
    bipartite_max_flow(&caps, &cover, users.len())
}

/// Max-flow of source → station (capacity `caps[s]`) → user (1) →
/// sink (1).
pub fn bipartite_max_flow(caps: &[u32], cover: &[Vec<u32>], num_users: usize) -> usize {
    // Compact the users that appear in any list.
    let mut local = vec![u32::MAX; num_users];
    let mut next = 0u32;
    for list in cover {
        for &u in list {
            if local[u as usize] == u32::MAX {
                local[u as usize] = next;
                next += 1;
            }
        }
    }
    let stations = caps.len();
    let source = 0;
    let sink = 1;
    let node_of_station = |s: usize| 2 + s;
    let node_of_user = |u: u32| 2 + stations + u as usize;
    let mut g = FlowGraph::new(2 + stations + next as usize);
    for (s, list) in cover.iter().enumerate() {
        g.add_edge(source, node_of_station(s), caps[s] as i64);
        for &u in list {
            g.add_edge(node_of_station(s), node_of_user(local[u as usize]), 1);
        }
    }
    for u in 0..next {
        g.add_edge(node_of_user(u), sink, 1);
    }
    g.max_flow(source, sink) as usize
}

struct FlowGraph {
    head: Vec<usize>,
    to: Vec<usize>,
    cap: Vec<i64>,
    next: Vec<usize>,
    level: Vec<i32>,
    cursor: Vec<usize>,
}

const NIL: usize = usize::MAX;

impl FlowGraph {
    fn new(nodes: usize) -> Self {
        FlowGraph {
            head: vec![NIL; nodes],
            to: Vec::new(),
            cap: Vec::new(),
            next: Vec::new(),
            level: vec![0; nodes],
            cursor: vec![NIL; nodes],
        }
    }

    fn add_edge(&mut self, a: usize, b: usize, c: i64) {
        for (from, to, cap) in [(a, b, c), (b, a, 0)] {
            self.to.push(to);
            self.cap.push(cap);
            self.next.push(self.head[from]);
            self.head[from] = self.to.len() - 1;
        }
    }

    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.fill(-1);
        self.level[s] = 0;
        let mut queue = VecDeque::from([s]);
        while let Some(v) = queue.pop_front() {
            let mut e = self.head[v];
            while e != NIL {
                let w = self.to[e];
                if self.cap[e] > 0 && self.level[w] < 0 {
                    self.level[w] = self.level[v] + 1;
                    queue.push_back(w);
                }
                e = self.next[e];
            }
        }
        self.level[t] >= 0
    }

    /// One blocking-flow augmentation along a level path, iteratively
    /// (paths here have four edges, but stay off the call stack).
    fn augment(&mut self, s: usize, t: usize) -> i64 {
        let mut path: Vec<usize> = Vec::new();
        let mut v = s;
        loop {
            if v == t {
                let pushed = path.iter().map(|&e| self.cap[e]).min().unwrap_or(0);
                for &e in &path {
                    self.cap[e] -= pushed;
                    self.cap[e ^ 1] += pushed;
                }
                return pushed;
            }
            let mut advanced = false;
            while self.cursor[v] != NIL {
                let e = self.cursor[v];
                let w = self.to[e];
                if self.cap[e] > 0 && self.level[w] == self.level[v] + 1 {
                    path.push(e);
                    v = w;
                    advanced = true;
                    break;
                }
                self.cursor[v] = self.next[e];
            }
            if !advanced {
                // Dead end: retreat and retire the edge that led here.
                self.level[v] = -1;
                match path.pop() {
                    Some(e) => {
                        v = self.to[e ^ 1];
                        self.cursor[v] = self.next[self.cursor[v]];
                    }
                    None => return 0,
                }
            }
        }
    }

    fn max_flow(&mut self, s: usize, t: usize) -> i64 {
        let mut flow = 0;
        while self.bfs(s, t) {
            self.cursor.copy_from_slice(&self.head);
            loop {
                let pushed = self.augment(s, t);
                if pushed == 0 {
                    break;
                }
                flow += pushed;
            }
        }
        flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavnet_channel::UavRadio;
    use uavnet_geom::{AreaSpec, GridSpec, Point2};

    /// Three cells in a row, 300 m apart; `R_uav` = 350 m links only
    /// neighbours. Two users under cell 0, one under cell 2.
    fn line_instance() -> (Instance, Vec<User>) {
        let grid = GridSpec::new(AreaSpec::new(900.0, 300.0, 500.0).unwrap(), 300.0, 300.0)
            .unwrap()
            .build();
        let users = vec![
            User {
                pos: Point2::new(150.0, 150.0),
                min_rate_bps: 2_000.0,
            },
            User {
                pos: Point2::new(160.0, 140.0),
                min_rate_bps: 2_000.0,
            },
            User {
                pos: Point2::new(750.0, 150.0),
                min_rate_bps: 2_000.0,
            },
        ];
        let mut b = Instance::builder(grid, 350.0);
        b.users(users.iter().copied());
        b.add_uav(1, UavRadio::new(30.0, 5.0, 200.0));
        b.add_uav(1, UavRadio::new(30.0, 5.0, 200.0));
        b.add_uav(1, UavRadio::new(30.0, 5.0, 200.0));
        (b.build().unwrap(), users)
    }

    #[test]
    fn accepts_a_valid_maximum_assignment() {
        let (inst, users) = line_instance();
        let placements = [(0, 0), (1, 1), (2, 2)];
        let assign = [Some(0), None, Some(2)];
        let v = check_deployment(
            &inst,
            &users,
            &[],
            &[],
            Claim {
                placements: &placements,
                user_placement: &assign,
                served: 2,
            },
        )
        .unwrap();
        assert_eq!(v.served, 2);
        assert_eq!(v.admissible, 3);
    }

    #[test]
    fn rejects_an_over_capacity_assignment() {
        let (inst, users) = line_instance();
        let placements = [(0, 0), (1, 1), (2, 2)];
        let assign = [Some(0), Some(0), Some(2)];
        let err = check_deployment(
            &inst,
            &users,
            &[],
            &[],
            Claim {
                placements: &placements,
                user_placement: &assign,
                served: 3,
            },
        )
        .unwrap_err();
        assert!(err.contains("capacity"), "{err}");
    }

    #[test]
    fn rejects_a_disconnected_placement() {
        let (inst, users) = line_instance();
        let placements = [(0, 0), (2, 2)];
        let assign = [Some(0), None, Some(1)];
        let err = check_deployment(
            &inst,
            &users,
            &[],
            &[],
            Claim {
                placements: &placements,
                user_placement: &assign,
                served: 2,
            },
        )
        .unwrap_err();
        assert!(err.contains("network"), "{err}");
    }

    #[test]
    fn rejects_a_placement_linked_only_through_a_severed_link() {
        let (inst, users) = line_instance();
        let placements = [(0, 0), (1, 1), (2, 2)];
        let claim = Claim {
            placements: &placements,
            user_placement: &[Some(0), None, Some(2)],
            served: 2,
        };
        // Cell 2 reaches the rest only over the 1–2 link.
        for severed in [[(1, 2)], [(2, 1)]] {
            let err = check_deployment(&inst, &users, &[], &severed, claim).unwrap_err();
            assert!(err.contains("network"), "{err}");
        }
        // A cut between cells that are not both placed changes nothing.
        check_deployment(&inst, &users, &[], &[(0, 2)], claim).unwrap();
    }

    #[test]
    fn rejects_an_out_of_range_user() {
        let (inst, users) = line_instance();
        let placements = [(0, 0), (1, 1), (2, 2)];
        // User 2 sits under cell 2, 600 m from cell 0's UAV.
        let assign = [Some(0), None, Some(0)];
        let err = check_deployment(
            &inst,
            &users,
            &[],
            &[],
            Claim {
                placements: &placements,
                user_placement: &assign,
                served: 2,
            },
        )
        .unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn rejects_a_dead_uav_and_a_non_maximum_assignment() {
        let (inst, users) = line_instance();
        let placements = [(0, 0), (1, 1), (2, 2)];
        let claim = Claim {
            placements: &placements,
            user_placement: &[Some(0), None, None],
            served: 1,
        };
        let err = check_deployment(&inst, &users, &[], &[], claim).unwrap_err();
        assert!(err.contains("maximum"), "{err}");
        let err = check_deployment(&inst, &users, &[1], &[], claim).unwrap_err();
        assert!(err.contains("dead"), "{err}");
    }

    #[test]
    fn max_flow_matches_hand_counts() {
        // Two stations of capacity 1 sharing one user, plus one
        // private user each: all three users fit.
        assert_eq!(bipartite_max_flow(&[1, 1], &[vec![0, 1], vec![1, 2]], 3), 2);
        assert_eq!(bipartite_max_flow(&[2, 1], &[vec![0, 1], vec![1, 2]], 3), 3);
        assert_eq!(bipartite_max_flow(&[5], &[vec![]], 3), 0);
    }
}
