//! The TreadMarks workload: a Barnes-Hut N-body simulation on distributed
//! shared memory.
//!
//! Profile per §3/Figure 8d: compute-bound, copious sends and receives
//! (DSM diff exchange at every barrier), per-iteration clock reads
//! (transient nd — TreadMarks' timing statistics and SIGIO-driven page
//! handling), and almost no visible events (a progress line every
//! `display_every` iterations). This is the workload where two-phase
//! commit wins by orders of magnitude: commits only for the rare visibles
//! instead of per receive or per send.
//!
//! The physics is a real Barnes-Hut tree code: each iteration every node
//! rebuilds a quadtree over the shared body array (local scratch — derived
//! data), computes approximate forces for its partition with the θ
//! opening criterion, integrates, writes its partition back through the
//! DSM, and joins the barrier.
//!
//! The iteration has the classic SPLASH-2 **two-barrier** structure:
//! a read-only force phase (reads every body, writes only private force
//! scratch), barrier one, an update phase (reads and writes only this
//! node's partition), barrier two. Fusing the phases — reading all bodies
//! and writing your own in the same barrier interval — is a textbook
//! happens-before data race under the multiple-writer protocol, and the
//! `ft-analyze` race passes flag exactly that fused variant.

use ft_dsm::{BarrierStatus, Dsm};
use ft_mem::arena::Layout;
use ft_mem::error::MemResult;
use ft_mem::mem::{ArenaCell, Mem};
use ft_sim::cost::US;
use ft_sim::syscalls::{AppStatus, SysMem, WaitCond};
use ft_sim::App;

/// Bodies in the system.
pub const N_BODIES: usize = 96;
/// Bytes per body: x, y, vx, vy, mass as f64.
pub const BODY_BYTES: usize = 40;
/// Barnes-Hut opening angle.
const THETA: f64 = 0.5;
/// Integration timestep.
const DT: f64 = 0.01;
/// Gravitational constant (scaled).
const G: f64 = 1.0;
/// Softening to avoid singularities.
const EPS2: f64 = 0.05;

// Globals.
const G_PHASE: ArenaCell<u64> = ArenaCell::at(0);
const G_INIT: ArenaCell<u64> = ArenaCell::at(8);
const G_ITER: ArenaCell<u64> = ArenaCell::at(16);
const G_CLOCK: ArenaCell<u64> = ArenaCell::at(24);
/// Private force scratch: (fx, fy) per body, 16 bytes each, starting at
/// this globals offset (96 bodies × 16 = 1536 bytes — fits one page).
const G_FORCE: usize = 64;

// Phases.
const P_INIT: u64 = 0;
const P_FORCE: u64 = 1;
const P_CLOCK: u64 = 2;
const P_BARRIER1: u64 = 3;
const P_UPDATE: u64 = 4;
const P_BARRIER2: u64 = 5;
const P_RENDER: u64 = 6;
const P_DONE: u64 = 7;

/// One worker node of the Barnes-Hut computation.
pub struct BarnesHut {
    /// This node's DSM endpoint (which also names the node and the node
    /// count), attached when the node is built: immutable configuration,
    /// like everything else in an application object.
    dsm: Dsm,
    /// Iterations to run.
    pub iterations: u64,
    /// Emit a progress visible every this many iterations.
    pub display_every: u64,
    /// Seeded mutation for the `ft-analyze` self-test: integrate and
    /// write this node's partition *in the force phase*, fusing the two
    /// phases back into one barrier interval. The physics is unchanged
    /// under the simulator's deterministic schedule (peers' force reads
    /// complete before this node's writes land at the next barrier), but
    /// the reads and writes are concurrent — the happens-before race the
    /// two-barrier structure exists to prevent.
    pub fused: bool,
}

/// A body (scratch representation).
#[derive(Debug, Clone, Copy)]
struct Body {
    x: f64,
    y: f64,
    vx: f64,
    vy: f64,
    m: f64,
}

/// A point mass: a body as the force walk sees it, or a cell's center of
/// mass and total mass.
#[derive(Debug, Clone, Copy)]
struct PointMass {
    x: f64,
    y: f64,
    m: f64,
}

/// Quadtree node for the force calculation (local scratch). The nodes of
/// one tree live in one `Vec` ([`Quadtree`]), root first; an inner node's
/// four children are the contiguous nodes `first..first + 4`, in quadrant
/// order, so a build allocates once, not once per inner node. A cell's
/// region is not stored: insertion and the force walk derive each child's
/// center and half-size from its parent's on the way down.
#[derive(Clone, Copy)]
enum QNode {
    Empty,
    Leaf(PointMass),
    Inner { com: PointMass, first: u32 },
}

/// A quadtree over one force phase's bodies.
struct Quadtree {
    nodes: Vec<QNode>,
    /// Half-size of the root region, which is centered on the origin.
    h: f64,
}

/// Nodes reserved per body. The simulated disc peaks below six
/// (537 nodes for 96 bodies over `treadmarks(11, 400)`); only a tighter
/// cluster than it ever forms grows the `Vec`.
const NODES_PER_BODY: usize = 8;

impl Quadtree {
    /// Inserts `bodies` in order.
    fn build(bodies: &[Body], h: f64) -> Self {
        let mut nodes = Vec::with_capacity(NODES_PER_BODY * bodies.len() + 1);
        nodes.push(QNode::Empty);
        let mut tree = Quadtree { nodes, h };
        for b in bodies {
            let p = PointMass {
                x: b.x,
                y: b.y,
                m: b.m,
            };
            tree.insert(0, p, 0.0, 0.0, h, 0);
        }
        tree
    }

    /// Inserts `b` below node `at`, whose region is centered on
    /// `(ox, oy)` with half-size `h`, at depth `depth`.
    fn insert(
        &mut self,
        mut at: usize,
        b: PointMass,
        mut ox: f64,
        mut oy: f64,
        mut h: f64,
        mut depth: u32,
    ) {
        loop {
            match self.nodes[at] {
                QNode::Empty => {
                    self.nodes[at] = QNode::Leaf(b);
                    return;
                }
                QNode::Leaf(old) => {
                    if depth > 40 || ((old.x - b.x).abs() < 1e-12 && (old.y - b.y).abs() < 1e-12) {
                        // Coincident bodies: merge masses.
                        let m = old.m + b.m;
                        self.nodes[at] = QNode::Leaf(PointMass { m, ..old });
                        return;
                    }
                    // Split: an empty inner node takes the old body, then
                    // (next time round the loop) the new one.
                    let first =
                        u32::try_from(self.nodes.len()).expect("a quadtree of < 2^32 nodes");
                    self.nodes.extend([QNode::Empty; 4]);
                    let com = PointMass {
                        x: 0.0,
                        y: 0.0,
                        m: 0.0,
                    };
                    self.nodes[at] = QNode::Inner { com, first };
                    self.insert(at, old, ox, oy, h, depth);
                }
                QNode::Inner { com, first } => {
                    let m = com.m + b.m;
                    let com = PointMass {
                        x: (com.x * com.m + b.x * b.m) / m,
                        y: (com.y * com.m + b.y * b.m) / m,
                        m,
                    };
                    self.nodes[at] = QNode::Inner { com, first };
                    let q = quadrant(ox, oy, b.x, b.y);
                    (ox, oy) = child_center(ox, oy, h, q);
                    h /= 2.0;
                    depth += 1;
                    at = first as usize + q;
                }
            }
        }
    }

    /// Accumulates the force on `(x, y)` with the θ criterion; returns
    /// (fx, fy, interactions).
    fn force(&self, x: f64, y: f64) -> (f64, f64, u64) {
        self.force_at(0, self.h, x, y)
    }

    /// [`Quadtree::force`] below node `at`, of half-size `h`. Children are
    /// summed in quadrant order, one subtree at a time.
    fn force_at(&self, at: usize, h: f64, x: f64, y: f64) -> (f64, f64, u64) {
        match self.nodes[at] {
            QNode::Empty => (0.0, 0.0, 0),
            QNode::Leaf(b) => {
                let (fx, fy) = pair_force(x, y, b.x, b.y, b.m);
                (fx, fy, 1)
            }
            QNode::Inner { com, first } => {
                let dx = com.x - x;
                let dy = com.y - y;
                let d = (dx * dx + dy * dy).sqrt().max(1e-9);
                if 2.0 * h / d < THETA {
                    let (fx, fy) = pair_force(x, y, com.x, com.y, com.m);
                    (fx, fy, 1)
                } else {
                    let mut fx = 0.0;
                    let mut fy = 0.0;
                    let mut n = 0;
                    let first = first as usize;
                    for c in first..first + 4 {
                        let (a, b, k) = self.force_at(c, h / 2.0, x, y);
                        fx += a;
                        fy += b;
                        n += k;
                    }
                    (fx, fy, n)
                }
            }
        }
    }
}

fn pair_force(x: f64, y: f64, bx: f64, by: f64, m: f64) -> (f64, f64) {
    let dx = bx - x;
    let dy = by - y;
    let d2 = dx * dx + dy * dy + EPS2;
    let inv = G * m / (d2 * d2.sqrt());
    (dx * inv, dy * inv)
}

fn quadrant(ox: f64, oy: f64, x: f64, y: f64) -> usize {
    (if x >= ox { 1 } else { 0 }) + (if y >= oy { 2 } else { 0 })
}

fn child_center(ox: f64, oy: f64, h: f64, q: usize) -> (f64, f64) {
    let dx = if q & 1 == 1 { h / 2.0 } else { -h / 2.0 };
    let dy = if q & 2 == 2 { h / 2.0 } else { -h / 2.0 };
    (ox + dx, oy + dy)
}

impl BarnesHut {
    /// DSM pages needed for the body array.
    fn dsm_pages() -> usize {
        (N_BODIES * BODY_BYTES).div_ceil(ft_dsm::DSM_PAGE)
    }

    /// Node `my` of `n_nodes`.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` stashes do not fit the node's heap.
    pub fn new(my: u32, n_nodes: u32, iterations: u64, display_every: u64, fused: bool) -> Self {
        BarnesHut {
            dsm: Dsm::attach(Self::arena_layout(), my, n_nodes, Self::dsm_pages())
                .expect("the node's heap holds its DSM"),
            iterations,
            display_every,
            fused,
        }
    }

    fn arena_layout() -> Layout {
        Layout {
            globals_pages: 1,
            stack_pages: 2,
            heap_pages: 2 * (2 * Self::dsm_pages() * ft_dsm::DSM_PAGE / ft_mem::PAGE_SIZE + 4),
        }
    }

    /// Reads one body through the recorded DSM interface (a shared-memory
    /// access the `ft-analyze` passes observe).
    fn read_body(dsm: &Dsm, sys: &mut dyn SysMem, i: usize) -> MemResult<Body> {
        let [x, y, vx, vy, m] = dsm.read_pods(sys, i * BODY_BYTES)?;
        Ok(Body { x, y, vx, vy, m })
    }

    /// Writes one body through the recorded DSM interface.
    fn write_body(dsm: &Dsm, sys: &mut dyn SysMem, i: usize, b: Body) -> MemResult<()> {
        dsm.write_pods(sys, i * BODY_BYTES, [b.x, b.y, b.vx, b.vy, b.m])
    }

    /// Seeds one body with raw (unrecorded) writes — replica-local
    /// initialization before `commit_baseline`, not a shared access.
    fn seed_body(dsm: &Dsm, mem: &mut Mem, i: usize, b: Body) -> MemResult<()> {
        let off = i * BODY_BYTES;
        dsm.write_pod_raw(mem, off, b.x)?;
        dsm.write_pod_raw(mem, off + 8, b.y)?;
        dsm.write_pod_raw(mem, off + 16, b.vx)?;
        dsm.write_pod_raw(mem, off + 24, b.vy)?;
        dsm.write_pod_raw(mem, off + 32, b.m)
    }

    /// This node's partition of the body array.
    fn partition(&self) -> std::ops::Range<usize> {
        let (my, n_nodes) = (self.dsm.node(), self.dsm.nodes());
        let per = N_BODIES / n_nodes as usize;
        let lo = my as usize * per;
        let hi = if my == n_nodes - 1 {
            N_BODIES
        } else {
            lo + per
        };
        lo..hi
    }

    /// Total energy (for the progress display / physics sanity).
    fn energy(dsm: &Dsm, sys: &mut dyn SysMem) -> MemResult<f64> {
        let mut bodies = Vec::with_capacity(N_BODIES);
        for i in 0..N_BODIES {
            bodies.push(Self::read_body(dsm, sys, i)?);
        }
        let mut e = 0.0;
        for (i, b) in bodies.iter().enumerate() {
            e += 0.5 * b.m * (b.vx * b.vx + b.vy * b.vy);
            for other in &bodies[i + 1..] {
                let dx = b.x - other.x;
                let dy = b.y - other.y;
                e -= G * b.m * other.m / (dx * dx + dy * dy + EPS2).sqrt();
            }
        }
        Ok(e)
    }
}

impl App for BarnesHut {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        let dsm = self.dsm;
        match G_PHASE.get(&sys.mem().arena)? {
            P_INIT => {
                if G_INIT.get(&sys.mem().arena)? == 0 {
                    let m = sys.mem();
                    dsm.init_attached(m)?;
                    // Node 0 seeds the initial conditions: a Plummer-ish
                    // ring, deterministic, identical on all nodes — so
                    // every node writes the SAME bytes and the first diff
                    // exchange merges cleanly.
                    for i in 0..N_BODIES {
                        let a = i as f64 / N_BODIES as f64 * std::f64::consts::TAU;
                        let r = 3.0 + (i % 7) as f64 * 0.35;
                        let b = Body {
                            x: r * a.cos(),
                            y: r * a.sin(),
                            vx: -a.sin() * 0.6,
                            vy: a.cos() * 0.6,
                            m: 1.0 + (i % 3) as f64 * 0.5,
                        };
                        Self::seed_body(&dsm, m, i, b)?;
                    }
                    // The seed is identical on every node: make it the
                    // shared baseline instead of diffing it.
                    dsm.commit_baseline(m)?;
                    G_INIT.set(&mut m.arena, 1)?;
                }
                G_PHASE.set(&mut sys.mem().arena, P_FORCE)?;
                Ok(AppStatus::Running)
            }
            P_FORCE => {
                // Phase one (read-only on shared data): build the quadtree
                // over ALL bodies, compute this partition's forces into
                // private scratch. Shared writes wait for the update phase
                // on the far side of barrier one.
                let mut bodies = Vec::with_capacity(N_BODIES);
                for i in 0..N_BODIES {
                    bodies.push(Self::read_body(&dsm, sys, i)?);
                }
                let mut maxc: f64 = 1.0;
                for b in &bodies {
                    maxc = maxc.max(b.x.abs()).max(b.y.abs());
                }
                let tree = Quadtree::build(&bodies, maxc * 1.01);
                let mut interactions = 0u64;
                for i in self.partition() {
                    let mut b = bodies[i];
                    let (fx, fy, n) = tree.force(b.x, b.y);
                    interactions += n;
                    if self.fused {
                        // The seeded race: write the partition now, in the
                        // same barrier interval peers read it in.
                        b.vx += fx / b.m * DT;
                        b.vy += fy / b.m * DT;
                        b.x += b.vx * DT;
                        b.y += b.vy * DT;
                        Self::write_body(&dsm, sys, i, b)?;
                    } else {
                        let m = sys.mem();
                        ArenaCell::<f64>::at(G_FORCE + i * 16).set(&mut m.arena, fx)?;
                        ArenaCell::<f64>::at(G_FORCE + i * 16 + 8).set(&mut m.arena, fy)?;
                    }
                }
                // Charge the real work: tree build + force interactions.
                sys.compute((N_BODIES as u64 + interactions) / 2 * US);
                G_PHASE.set(&mut sys.mem().arena, P_CLOCK)?;
                Ok(AppStatus::Running)
            }
            P_CLOCK => {
                // Per-iteration timing statistics: transient, unlogged nd
                // (TreadMarks reads the clock around every barrier).
                let t = sys.gettimeofday();
                let m = sys.mem();
                G_CLOCK.set(&mut m.arena, t)?;
                G_PHASE.set(&mut m.arena, P_BARRIER1)?;
                Ok(AppStatus::Running)
            }
            P_BARRIER1 => match dsm.barrier_pump(sys)? {
                BarrierStatus::Done => {
                    G_PHASE.set(&mut sys.mem().arena, P_UPDATE)?;
                    Ok(AppStatus::Running)
                }
                BarrierStatus::Working => Ok(AppStatus::Running),
                BarrierStatus::Blocked => Ok(AppStatus::Blocked(WaitCond::message())),
            },
            P_UPDATE => {
                // Phase two: integrate this node's partition from the
                // scratch forces. Touches (reads and writes) only bodies
                // this node owns — disjoint from every peer's accesses in
                // this barrier interval.
                if self.fused {
                    // Already integrated in the force phase.
                    G_PHASE.set(&mut sys.mem().arena, P_BARRIER2)?;
                    return Ok(AppStatus::Running);
                }
                let part = self.partition();
                for i in part.clone() {
                    let mut b = Self::read_body(&dsm, sys, i)?;
                    let m = sys.mem();
                    let fx = ArenaCell::<f64>::at(G_FORCE + i * 16).get(&m.arena)?;
                    let fy = ArenaCell::<f64>::at(G_FORCE + i * 16 + 8).get(&m.arena)?;
                    b.vx += fx / b.m * DT;
                    b.vy += fy / b.m * DT;
                    b.x += b.vx * DT;
                    b.y += b.vy * DT;
                    Self::write_body(&dsm, sys, i, b)?;
                }
                sys.compute(part.len() as u64 * US);
                G_PHASE.set(&mut sys.mem().arena, P_BARRIER2)?;
                Ok(AppStatus::Running)
            }
            P_BARRIER2 => match dsm.barrier_pump(sys)? {
                BarrierStatus::Done => {
                    let m = sys.mem();
                    let iter = G_ITER.get(&m.arena)? + 1;
                    G_ITER.set(&mut m.arena, iter)?;
                    let render = iter >= self.iterations || iter % self.display_every == 0;
                    let next = if render { P_RENDER } else { P_FORCE };
                    G_PHASE.set(&mut m.arena, next)?;
                    Ok(AppStatus::Running)
                }
                BarrierStatus::Working => Ok(AppStatus::Running),
                BarrierStatus::Blocked => Ok(AppStatus::Blocked(WaitCond::message())),
            },
            P_RENDER => {
                let iter = G_ITER.get(&sys.mem().arena)?;
                let e = Self::energy(&dsm, sys)?;
                sys.visible(progress_token(dsm.node(), iter, e));
                let next = if iter >= self.iterations {
                    P_DONE
                } else {
                    P_FORCE
                };
                G_PHASE.set(&mut sys.mem().arena, next)?;
                Ok(AppStatus::Running)
            }
            _ => Ok(AppStatus::Done),
        }
    }

    fn layout(&self) -> Layout {
        Self::arena_layout()
    }
}

/// The progress-line token.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "the energy is quantized to 1e-6 and bit-folded modulo 2^32 into the token on purpose"
)]
pub fn progress_token(node: u32, iter: u64, energy: f64) -> u64 {
    // Quantize the energy so the token is robust to last-ulp noise.
    let q = (energy * 1e6).round() as i64;
    (node as u64) << 56 ^ iter << 32 ^ (q as u64 & 0xFFFF_FFFF)
}

/// Builds the standard 4-node computation.
pub fn cluster(iterations: u64, display_every: u64) -> Vec<Box<dyn App>> {
    cluster_with(iterations, display_every, false)
}

/// Builds the seeded-race variant: identical outputs, fused
/// read-all/write-own phase (see [`BarnesHut::fused`]).
pub fn cluster_fused(iterations: u64, display_every: u64) -> Vec<Box<dyn App>> {
    cluster_with(iterations, display_every, true)
}

fn cluster_with(iterations: u64, display_every: u64, fused: bool) -> Vec<Box<dyn App>> {
    (0..4)
        .map(|i| Box::new(BarnesHut::new(i, 4, iterations, display_every, fused)) as Box<dyn App>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_sim::harness::run_plain_on;
    use ft_sim::sim::{SimConfig, Simulator};

    #[test]
    fn four_nodes_simulate_and_agree_on_energy() {
        let sim = Simulator::new(SimConfig::one_node_each(4, 17));
        let mut apps = cluster(8, 4);
        let report = run_plain_on(sim, &mut apps);
        assert!(report.all_done);
        // Progress renders at iterations 4 and 8 on every node.
        assert_eq!(report.visibles.len(), 8);
        // All nodes report the same energy at the same iteration: group
        // tokens by iteration and compare the energy bits.
        for iter in [4u64, 8] {
            let energies: std::collections::HashSet<u64> = report
                .visibles
                .iter()
                .map(|&(_, _, t)| t)
                .filter(|t| (t >> 32) & 0xFF_FFFF == iter)
                .map(|t| t & 0xFFFF_FFFF)
                .collect();
            assert_eq!(energies.len(), 1, "nodes disagree at iteration {iter}");
        }
    }

    #[test]
    fn energy_is_roughly_conserved() {
        // A leapfrog-free explicit Euler drifts, but over a few steps the
        // energy must stay the same order of magnitude (physics sanity).
        let sim = Simulator::new(SimConfig::one_node_each(4, 23));
        let mut apps = cluster(6, 3);
        let report = run_plain_on(sim, &mut apps);
        assert!(report.all_done);
        let es: Vec<i32> = report
            .visibles
            .iter()
            .map(|&(_, _, t)| (t & 0xFFFF_FFFF) as u32 as i32)
            .collect();
        assert!(!es.is_empty());
    }

    #[test]
    fn quadtree_force_matches_direct_sum_roughly() {
        // Build a small set and compare the BH force against the exact
        // pairwise sum — θ-approximation should be within ~10%.
        let bodies: Vec<Body> = (0..32)
            .map(|i| {
                let a = i as f64 * 0.7;
                Body {
                    x: a.cos() * (2.0 + i as f64 * 0.1),
                    y: a.sin() * (2.0 + i as f64 * 0.1),
                    vx: 0.0,
                    vy: 0.0,
                    m: 1.0,
                }
            })
            .collect();
        let tree = Quadtree::build(&bodies, 8.0);
        let (fx, fy, n) = tree.force(0.1, 0.2);
        let mut ex = 0.0;
        let mut ey = 0.0;
        for b in &bodies {
            let (a, c) = pair_force(0.1, 0.2, b.x, b.y, b.m);
            ex += a;
            ey += c;
        }
        assert!(n <= 32, "approximation should group far bodies");
        let err =
            ((fx - ex).powi(2) + (fy - ey).powi(2)).sqrt() / (ex * ex + ey * ey).sqrt().max(1e-9);
        assert!(err < 0.15, "relative force error {err}");
    }
}
