//! State-machine graphs, crash events, and the dangerous-paths algorithms
//! (§2.5), plus the Lose-work theorem checker.
//!
//! > **Lose-work Theorem.** Application-generic recovery from propagation
//! > failures is guaranteed to be possible if and only if the application
//! > executes no commit event on a dangerous path.
//!
//! A process is a state machine whose transitions are events. A *crash
//! event* ends in a crash state. The Single-Process Dangerous Paths
//! Algorithm colors events:
//!
//! 1. Color all crash events.
//! 2. Color an event `e` if **all** events out of `e`'s end state are
//!    colored.
//! 3. Color an event `e` if at least one event out of `e`'s end state is
//!    colored **and** is a *fixed* non-deterministic event.
//!
//! Committing anywhere along a colored (dangerous) path can prevent
//! recovery. We compute the coloring as a fixpoint over *states*: an edge is
//! colored iff its target state is dangerous, and a state is dangerous iff
//! it is a crash state, or all of its outgoing edges are colored (and it has
//! at least one), or some colored outgoing edge is fixed non-deterministic.

use std::collections::BTreeMap;

/// Index of a state in a [`StateGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub usize);

/// Index of an edge (event) in a [`StateGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub usize);

/// Kind of an edge in a process state machine, as the dangerous-paths
/// analysis needs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Deterministic event.
    Det,
    /// Transient non-deterministic event: may resolve differently after a
    /// failure.
    TransientNd,
    /// Fixed non-deterministic event: cannot be relied on to resolve
    /// differently after a failure.
    FixedNd,
}

/// An edge (event) of the state machine.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Source state.
    pub from: StateId,
    /// End state.
    pub to: StateId,
    /// The event's analysis-relevant kind.
    pub kind: EdgeKind,
    /// Human-readable label for rendering.
    pub label: String,
}

/// A process state machine with crash states.
#[derive(Debug, Clone, Default)]
pub struct StateGraph {
    labels: Vec<String>,
    crash: Vec<bool>,
    edges: Vec<Edge>,
    out: Vec<Vec<EdgeId>>,
}

impl StateGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a (non-crash) state.
    pub fn add_state(&mut self, label: impl Into<String>) -> StateId {
        self.labels.push(label.into());
        self.crash.push(false);
        self.out.push(Vec::new());
        StateId(self.labels.len() - 1)
    }

    /// Adds a crash state — a state from which the process cannot continue
    /// (§2.5). Edges ending here are crash events.
    pub fn add_crash_state(&mut self, label: impl Into<String>) -> StateId {
        let id = self.add_state(label);
        self.crash[id.0] = true;
        id
    }

    /// Adds an edge (event) from `from` to `to` of kind `kind`.
    pub fn add_edge(
        &mut self,
        from: StateId,
        to: StateId,
        kind: EdgeKind,
        label: impl Into<String>,
    ) -> EdgeId {
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge {
            from,
            to,
            kind,
            label: label.into(),
        });
        self.out[from.0].push(id);
        id
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge record for `e`.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.0]
    }

    /// Runs the Single-Process Dangerous Paths Algorithm (§2.5).
    pub fn dangerous_paths(&self) -> DangerousPaths {
        let n_states = self.num_states();
        let n_edges = self.num_edges();
        let mut dangerous_state = vec![false; n_states];
        let mut colored_edge = vec![false; n_edges];
        for (i, &c) in self.crash.iter().enumerate() {
            dangerous_state[i] = c;
        }
        // Monotone fixpoint; colors only grow, so iteration terminates.
        loop {
            let mut changed = false;
            for (i, e) in self.edges.iter().enumerate() {
                if !colored_edge[i] && dangerous_state[e.to.0] {
                    colored_edge[i] = true;
                    changed = true;
                }
            }
            for (s, danger) in dangerous_state.iter_mut().enumerate() {
                if *danger {
                    continue;
                }
                let outs = &self.out[s];
                if outs.is_empty() {
                    continue; // Terminal success state: never dangerous.
                }
                let all_colored = outs.iter().all(|e| colored_edge[e.0]);
                let colored_fixed = outs
                    .iter()
                    .any(|e| colored_edge[e.0] && self.edges[e.0].kind == EdgeKind::FixedNd);
                if all_colored || colored_fixed {
                    *danger = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        DangerousPaths {
            dangerous_state,
            colored_edge,
        }
    }

    /// Renders the graph with its dangerous paths as an ASCII adjacency
    /// listing, for the Figure 7 reproduction.
    pub fn render(&self, dp: &DangerousPaths) -> String {
        let mut s = String::new();
        for st in 0..self.num_states() {
            let marker = if self.crash[st] {
                "CRASH"
            } else if dp.dangerous_state[st] {
                "DANGEROUS"
            } else {
                "safe"
            };
            s.push_str(&format!("state {} [{}] {}\n", st, marker, self.labels[st]));
            for &e in &self.out[st] {
                let edge = &self.edges[e.0];
                let kind = match edge.kind {
                    EdgeKind::Det => "det",
                    EdgeKind::TransientNd => "transient-nd",
                    EdgeKind::FixedNd => "fixed-nd",
                };
                let color = if dp.colored_edge[e.0] {
                    " *colored*"
                } else {
                    ""
                };
                s.push_str(&format!(
                    "  --[{} {}]--> state {}{}\n",
                    kind, edge.label, edge.to.0, color
                ));
            }
        }
        s
    }
}

/// The result of the dangerous-paths coloring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DangerousPaths {
    /// `dangerous_state[s]` — committing *at* state `s` violates Lose-work.
    pub dangerous_state: Vec<bool>,
    /// `colored_edge[e]` — the event lies on a dangerous path.
    pub colored_edge: Vec<bool>,
}

impl DangerousPaths {
    /// Is committing at state `s` safe under the Lose-work theorem?
    pub fn commit_safe(&self, s: StateId) -> bool {
        !self.dangerous_state[s.0]
    }

    /// Number of dangerous states.
    pub fn dangerous_count(&self) -> usize {
        self.dangerous_state.iter().filter(|&&d| d).count()
    }
}

/// A witness that Lose-work was violated along an executed path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoseWorkViolation {
    /// The commit's position along the path (number of edges executed
    /// before the commit).
    pub commit_at: usize,
    /// The dangerous state the commit preserved.
    pub state: StateId,
}

/// Checks the Lose-work theorem for one executed path through `graph`.
///
/// `path` is the sequence of edges the process executed from `start`;
/// `commits_at` holds the path positions at which the process committed
/// (position `k` = after executing `k` edges; `0` = the initial state, which
/// is always committed). Returns the first commit that landed on a dangerous
/// state, if any.
///
/// # Panics
///
/// Panics if the path is not connected (an edge's `from` is not the current
/// state) or a commit position exceeds the path length.
pub fn check_lose_work(
    graph: &StateGraph,
    start: StateId,
    path: &[EdgeId],
    commits_at: &[usize],
) -> Result<(), LoseWorkViolation> {
    let dp = graph.dangerous_paths();
    // Reconstruct the state at each path position.
    let mut states = Vec::with_capacity(path.len() + 1);
    states.push(start);
    let mut cur = start;
    for &e in path {
        let edge = graph.edge(e);
        assert_eq!(edge.from, cur, "path is not connected");
        cur = edge.to;
        states.push(cur);
    }
    // The initial state is always committed (§4: Bohrbugs), so position 0 is
    // checked implicitly as well.
    let mut positions: Vec<usize> = commits_at.to_vec();
    if !positions.contains(&0) {
        positions.insert(0, 0);
    }
    for &k in &positions {
        assert!(k < states.len(), "commit position beyond path");
        let s = states[k];
        if !dp.commit_safe(s) {
            return Err(LoseWorkViolation {
                commit_at: k,
                state: s,
            });
        }
    }
    Ok(())
}

/// Metadata about an executed receive event, for the multi-process
/// dangerous-paths algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvMeta {
    /// Index of the sending process in the run set.
    pub sender: usize,
    /// Path position of the matching send on the sender (number of edges the
    /// sender had executed *before* the send edge).
    pub send_step: usize,
}

/// One process's executed history, for the multi-process algorithm.
#[derive(Debug, Clone)]
pub struct ProcessRun {
    /// The process's state machine.
    pub graph: StateGraph,
    /// Start state.
    pub start: StateId,
    /// Executed path (edges, in order).
    pub path: Vec<EdgeId>,
    /// Path positions of this process's commits (see [`check_lose_work`]).
    pub commits_at: Vec<usize>,
    /// For each executed receive: path position → metadata. A `BTreeMap`
    /// because [`multi_process_dangerous`] iterates it: the per-entry edge
    /// reclassification is order-independent, but keeping the walk ordered
    /// costs nothing and keeps the determinism lint's audit trivial.
    pub recv_meta: BTreeMap<usize, RecvMeta>,
}

impl ProcessRun {
    /// The last committed path position (0 if never committed: the initial
    /// state is always committed).
    pub fn last_commit(&self) -> usize {
        self.commits_at.iter().copied().max().unwrap_or(0)
    }

    /// Did this process execute a transient non-deterministic event in path
    /// positions `[from, to)`?
    pub fn transient_nd_between(&self, from: usize, to: usize) -> bool {
        self.path[from..to.min(self.path.len())]
            .iter()
            .any(|&e| self.graph.edge(e).kind == EdgeKind::TransientNd)
    }
}

/// Runs the Multi-Process Dangerous Paths Algorithm (§2.5) for process
/// `target`, returning the coloring of a *reclassified* copy of its graph.
///
/// The algorithm takes a snapshot of where every process last committed and
/// reclassifies each receive event `target` has executed:
///
/// * **transient** — the sender's last commit occurred before the send *and*
///   the sender executed a transient non-deterministic event between its
///   last commit and the send (the message may be regenerated differently);
/// * **fixed** — otherwise (the sender will deterministically regenerate the
///   same message).
///
/// Receives that `target` has not executed keep their static classification.
pub fn multi_process_dangerous(runs: &[ProcessRun], target: usize) -> (StateGraph, DangerousPaths) {
    let t = &runs[target];
    let mut graph = t.graph.clone();
    for (&pos, meta) in &t.recv_meta {
        let edge_id = t.path[pos];
        let sender = &runs[meta.sender];
        let lc = sender.last_commit();
        let transient = lc <= meta.send_step && sender.transient_nd_between(lc, meta.send_step);
        graph.edges[edge_id.0].kind = if transient {
            EdgeKind::TransientNd
        } else {
            EdgeKind::FixedNd
        };
    }
    let dp = graph.dangerous_paths();
    (graph, dp)
}

/// Convenience: may process `target` commit *now* (at the end of its
/// executed path) without violating Lose-work, per the multi-process
/// analysis?
pub fn can_commit_now(runs: &[ProcessRun], target: usize) -> bool {
    let t = &runs[target];
    let (graph, dp) = multi_process_dangerous(runs, target);
    let mut cur = t.start;
    for &e in &t.path {
        cur = graph.edge(e).to;
    }
    dp.commit_safe(cur)
}

/// Builds the Figure 6 example machines (A, B, C) for tests and demos.
///
/// Returns `(graph, start, probe_state)` where `probe_state` is the state at
/// the point marked in the figure (where the commit is contemplated).
pub fn figure6(case: char) -> (StateGraph, StateId, StateId) {
    let mut g = StateGraph::new();
    match case {
        // A: a straight deterministic run ending in a crash.
        'A' => {
            let s0 = g.add_state("s0");
            let s1 = g.add_state("s1 (probe)");
            let s2 = g.add_state("s2");
            let crash = g.add_crash_state("crash");
            g.add_edge(s0, s1, EdgeKind::Det, "d1");
            g.add_edge(s1, s2, EdgeKind::Det, "d2");
            g.add_edge(s2, crash, EdgeKind::Det, "crash event");
            (g, s0, s1)
        }
        // B: a transient nd event after the probe point, one branch of
        // which avoids the crash.
        'B' => {
            let s0 = g.add_state("s0");
            let s1 = g.add_state("s1 (probe)");
            let good = g.add_state("good");
            let done = g.add_state("done");
            let bad = g.add_state("bad");
            let crash = g.add_crash_state("crash");
            g.add_edge(s0, s1, EdgeKind::Det, "d1");
            g.add_edge(s1, good, EdgeKind::TransientNd, "nd-good");
            g.add_edge(s1, bad, EdgeKind::TransientNd, "nd-bad");
            g.add_edge(good, done, EdgeKind::Det, "finish");
            g.add_edge(bad, crash, EdgeKind::Det, "crash event");
            (g, s0, s1)
        }
        // C: a fixed nd event after the probe point with a crashing branch.
        'C' => {
            let s0 = g.add_state("s0");
            let s1 = g.add_state("s1 (probe)");
            let good = g.add_state("good");
            let done = g.add_state("done");
            let bad = g.add_state("bad");
            let crash = g.add_crash_state("crash");
            g.add_edge(s0, s1, EdgeKind::Det, "d1");
            g.add_edge(s1, good, EdgeKind::FixedNd, "fixed-good");
            g.add_edge(s1, bad, EdgeKind::FixedNd, "fixed-bad");
            g.add_edge(good, done, EdgeKind::Det, "finish");
            g.add_edge(bad, crash, EdgeKind::Det, "crash event");
            (g, s0, s1)
        }
        _ => panic!("figure6 case must be 'A', 'B', or 'C'"),
    }
}

/// Builds a graph in the spirit of Figure 7: a lattice with a fixed
/// non-deterministic fork and two crash events, exercising all three
/// coloring rules.
pub fn figure7() -> (StateGraph, StateId) {
    let mut g = StateGraph::new();
    let s0 = g.add_state("s0");
    let s1 = g.add_state("s1");
    let s2 = g.add_state("s2");
    let s3 = g.add_state("s3");
    let s4 = g.add_state("s4");
    let s5 = g.add_state("s5");
    let done = g.add_state("done");
    let crash1 = g.add_crash_state("crash1");
    let crash2 = g.add_crash_state("crash2");
    // s0: transient fork — one side is doomed, the other survivable.
    g.add_edge(s0, s1, EdgeKind::TransientNd, "t1");
    g.add_edge(s0, s2, EdgeKind::TransientNd, "t2");
    // s1 deterministically reaches a fixed-nd fork with a crashing branch.
    g.add_edge(s1, s3, EdgeKind::Det, "d1");
    g.add_edge(s3, s4, EdgeKind::FixedNd, "f-ok");
    g.add_edge(s3, crash1, EdgeKind::FixedNd, "f-crash");
    g.add_edge(s4, done, EdgeKind::Det, "d2");
    // s2 deterministically crashes.
    g.add_edge(s2, s5, EdgeKind::Det, "d3");
    g.add_edge(s5, crash2, EdgeKind::Det, "d4");
    (g, s0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure6a_commit_on_deterministic_doom_is_dangerous() {
        let (g, start, probe) = figure6('A');
        let dp = g.dangerous_paths();
        // Every state on the deterministic path to the crash is dangerous.
        assert!(!dp.commit_safe(start));
        assert!(!dp.commit_safe(probe));
    }

    #[test]
    fn figure6b_commit_before_transient_nd_is_safe() {
        let (g, start, probe) = figure6('B');
        let dp = g.dangerous_paths();
        // "A process can safely commit before a transient nd event as long
        // as at least one of the possible results does not lead to a crash."
        assert!(dp.commit_safe(probe));
        assert!(dp.commit_safe(start));
    }

    #[test]
    fn figure6c_commit_before_fixed_nd_with_crash_branch_is_dangerous() {
        let (g, start, probe) = figure6('C');
        let dp = g.dangerous_paths();
        // "We cannot commit before any fixed nd event that might lead to a
        // crash."
        assert!(!dp.commit_safe(probe));
        assert!(!dp.commit_safe(start));
    }

    #[test]
    fn crash_events_are_colored() {
        let (g, _, _) = figure6('A');
        let dp = g.dangerous_paths();
        // All three edges of case A are colored (rule 1 then rule 2 twice).
        assert!(dp.colored_edge.iter().all(|&c| c));
    }

    #[test]
    fn terminal_success_states_are_never_dangerous() {
        let mut g = StateGraph::new();
        let s0 = g.add_state("s0");
        let done = g.add_state("done");
        g.add_edge(s0, done, EdgeKind::Det, "d");
        let dp = g.dangerous_paths();
        assert!(dp.commit_safe(s0));
        assert!(dp.commit_safe(done));
        assert_eq!(dp.dangerous_count(), 0);
    }

    #[test]
    fn figure7_coloring_shape() {
        let (g, s0) = figure7();
        let dp = g.dangerous_paths();
        // The fixed-nd fork state (s3) is dangerous (rule 3), as is
        // everything after the doomed transient branch (s2, s5). The root
        // survives because one transient branch... also leads to the fixed
        // fork, which is dangerous, so BOTH branches are colored and s0 is
        // dangerous by rule 2? No: s1 leads deterministically to s3 which is
        // dangerous, so the s0->s1 edge is colored only if s1 is dangerous.
        // s1's only outgoing edge goes to dangerous s3, so s1 is dangerous
        // (all outgoing colored); both of s0's transient branches are
        // colored, so s0 is dangerous too.
        assert!(!dp.commit_safe(StateId(3))); // Fixed-nd fork.
        assert!(!dp.commit_safe(StateId(2))); // Doomed branch head.
        assert!(!dp.commit_safe(StateId(5)));
        assert!(!dp.commit_safe(s0));
        // The post-fork good states are safe.
        assert!(dp.commit_safe(StateId(4)));
        assert!(dp.commit_safe(StateId(6)));
    }

    #[test]
    fn lose_work_checker_flags_commit_on_dangerous_path() {
        let (g, start, _) = figure6('A');
        // Path: d1, d2, crash. Commit after 1 edge (at the probe state).
        let path: Vec<EdgeId> = vec![EdgeId(0), EdgeId(1), EdgeId(2)];
        let err = check_lose_work(&g, start, &path, &[1]).unwrap_err();
        assert_eq!(err.commit_at, 0); // Initial state already violates in case A.
    }

    #[test]
    fn lose_work_checker_accepts_safe_commit() {
        let (g, start, _) = figure6('B');
        // Path: d1 then nd-good then finish; commit after d1 (safe probe).
        let path = vec![EdgeId(0), EdgeId(1), EdgeId(3)];
        assert!(check_lose_work(&g, start, &path, &[1]).is_ok());
    }

    #[test]
    #[should_panic(expected = "not connected")]
    fn lose_work_checker_rejects_disconnected_path() {
        let (g, start, _) = figure6('B');
        check_lose_work(&g, start, &[EdgeId(3)], &[]).unwrap();
    }

    #[test]
    fn multi_process_recv_is_fixed_when_sender_deterministic() {
        // Sender committed, then deterministically sent: receiver must treat
        // the receive as fixed.
        let mut sender_g = StateGraph::new();
        let a0 = sender_g.add_state("a0");
        let a1 = sender_g.add_state("a1");
        sender_g.add_edge(a0, a1, EdgeKind::Det, "send");
        let sender = ProcessRun {
            graph: sender_g,
            start: a0,
            path: vec![EdgeId(0)],
            commits_at: vec![0],
            recv_meta: BTreeMap::new(),
        };

        // Receiver: recv forks to done or crash (like figure 6C but with a
        // recv edge).
        let mut recv_g = StateGraph::new();
        let b0 = recv_g.add_state("b0");
        let good = recv_g.add_state("good");
        let bad = recv_g.add_state("bad");
        let crash = recv_g.add_crash_state("crash");
        let done = recv_g.add_state("done");
        recv_g.add_edge(b0, good, EdgeKind::TransientNd, "recv-good");
        recv_g.add_edge(b0, bad, EdgeKind::TransientNd, "recv-bad");
        recv_g.add_edge(good, done, EdgeKind::Det, "finish");
        recv_g.add_edge(bad, crash, EdgeKind::Det, "boom");
        let mut recv_meta = BTreeMap::new();
        recv_meta.insert(
            0usize,
            RecvMeta {
                sender: 0,
                send_step: 0,
            },
        );
        let receiver = ProcessRun {
            graph: recv_g,
            start: b0,
            path: vec![EdgeId(0)],
            commits_at: vec![],
            recv_meta,
        };

        let runs = vec![sender, receiver];
        let (g2, dp) = multi_process_dangerous(&runs, 1);
        // The executed recv (edge 0) was reclassified fixed.
        assert_eq!(g2.edge(EdgeId(0)).kind, EdgeKind::FixedNd);
        // b0 is dangerous only if a *colored* fixed edge leaves it; the
        // executed recv went to `good` (safe), but its sibling edge 1 is
        // still transient and colored — rule 3 needs a colored FIXED edge.
        // Edge 0 (fixed) goes to safe `good`, so not colored: b0 stays safe.
        assert!(dp.commit_safe(b0));
    }

    #[test]
    fn multi_process_recv_is_transient_when_sender_has_uncommitted_nd() {
        // Sender: transient nd then send, no commit after the nd.
        let mut sender_g = StateGraph::new();
        let a0 = sender_g.add_state("a0");
        let a1 = sender_g.add_state("a1");
        let a2 = sender_g.add_state("a2");
        sender_g.add_edge(a0, a1, EdgeKind::TransientNd, "nd");
        sender_g.add_edge(a1, a2, EdgeKind::Det, "send");
        let sender = ProcessRun {
            graph: sender_g,
            start: a0,
            path: vec![EdgeId(0), EdgeId(1)],
            commits_at: vec![],
            recv_meta: BTreeMap::new(),
        };

        let mut recv_g = StateGraph::new();
        let b0 = recv_g.add_state("b0");
        let b1 = recv_g.add_state("b1");
        let crash = recv_g.add_crash_state("crash");
        let done = recv_g.add_state("done");
        // Statically fixed recv that forks to crash or done.
        recv_g.add_edge(b0, b1, EdgeKind::FixedNd, "recv");
        recv_g.add_edge(b1, crash, EdgeKind::Det, "boom");
        recv_g.add_edge(b0, done, EdgeKind::FixedNd, "recv-alt");
        let mut recv_meta = BTreeMap::new();
        recv_meta.insert(
            0usize,
            RecvMeta {
                sender: 0,
                send_step: 1,
            },
        );
        let receiver = ProcessRun {
            graph: recv_g,
            start: b0,
            path: vec![EdgeId(0)],
            commits_at: vec![],
            recv_meta,
        };

        let runs = vec![sender, receiver];
        let (g2, _dp) = multi_process_dangerous(&runs, 1);
        // Sender executed a transient nd after its (implicit) last commit
        // and before the send → the receive is transient for the receiver.
        assert_eq!(g2.edge(EdgeId(0)).kind, EdgeKind::TransientNd);
    }

    #[test]
    fn can_commit_now_composes() {
        // Receiver sits at a safe state after its receive.
        let mut sender_g = StateGraph::new();
        let a0 = sender_g.add_state("a0");
        let a1 = sender_g.add_state("a1");
        sender_g.add_edge(a0, a1, EdgeKind::Det, "send");
        let sender = ProcessRun {
            graph: sender_g,
            start: a0,
            path: vec![EdgeId(0)],
            commits_at: vec![0],
            recv_meta: BTreeMap::new(),
        };
        let mut recv_g = StateGraph::new();
        let b0 = recv_g.add_state("b0");
        let b1 = recv_g.add_state("b1");
        let done = recv_g.add_state("done");
        recv_g.add_edge(b0, b1, EdgeKind::TransientNd, "recv");
        recv_g.add_edge(b1, done, EdgeKind::Det, "finish");
        let mut recv_meta = BTreeMap::new();
        recv_meta.insert(
            0usize,
            RecvMeta {
                sender: 0,
                send_step: 0,
            },
        );
        let receiver = ProcessRun {
            graph: recv_g,
            start: b0,
            path: vec![EdgeId(0)],
            commits_at: vec![],
            recv_meta,
        };
        assert!(can_commit_now(&[sender, receiver], 1));
    }

    #[test]
    fn render_marks_dangerous_states_and_colored_edges() {
        let (g, _) = figure7();
        let dp = g.dangerous_paths();
        let out = g.render(&dp);
        assert!(out.contains("DANGEROUS"));
        assert!(out.contains("*colored*"));
        assert!(out.contains("CRASH"));
        assert!(out.contains("safe"));
    }

    #[test]
    #[should_panic(expected = "must be 'A', 'B', or 'C'")]
    fn figure6_rejects_unknown_case() {
        figure6('Z');
    }

    #[test]
    fn cycle_with_escape_is_safe() {
        // A retry loop: transient nd either escapes to done or loops; no
        // crash anywhere — nothing is dangerous.
        let mut g = StateGraph::new();
        let s0 = g.add_state("loop");
        let done = g.add_state("done");
        g.add_edge(s0, s0, EdgeKind::TransientNd, "retry");
        g.add_edge(s0, done, EdgeKind::TransientNd, "escape");
        let dp = g.dangerous_paths();
        assert_eq!(dp.dangerous_count(), 0);
    }

    #[test]
    fn cycle_that_must_crash_is_dangerous() {
        // Deterministic loop into a crash.
        let mut g = StateGraph::new();
        let s0 = g.add_state("s0");
        let s1 = g.add_state("s1");
        let crash = g.add_crash_state("crash");
        g.add_edge(s0, s1, EdgeKind::Det, "a");
        g.add_edge(s1, crash, EdgeKind::Det, "b");
        let dp = g.dangerous_paths();
        assert!(!dp.commit_safe(s0));
        assert!(!dp.commit_safe(s1));
    }
}
