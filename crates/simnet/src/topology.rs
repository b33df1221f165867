//! Network topology: the pluggable [`TopologyKind`] family (the paper's k×k
//! base-station grid plus torus, random-geometric, scale-free and imported
//! edge lists), minimum spanning tree overlay, shortest-path distances and
//! per-broker routing tables.
//!
//! The paper's experiment setup (Section 5.1):
//!
//! > "we simulated a wireless network with k² base stations organized into
//! > cells [...] The base stations are organized into k rows with each row
//! > containing k stations. Each base station directly connects to its
//! > neighboring stations with wired links. Any pair of stations can connect
//! > with each other via the shortest path in the network. [...] each base
//! > station acts as an event broker and a minimum cost spanning tree of the
//! > network is built to serve as the acyclic overlay."
//!
//! Two distance notions therefore co-exist and are both provided by
//! [`Network`]:
//!
//! * **grid distance** — shortest path in the physical wired network; it
//!   determines latency and hop cost of *point-to-point* broker messages
//!   (handoff requests, queue transfers, home-broker forwarding);
//! * **tree structure** — the acyclic overlay used by reverse-path-forwarding
//!   event routing and by MHH's hop-by-hop subscription migration.
//!
//! Every [`TopologyKind`] builds deterministically from `(side, seed)`; the
//! MST overlay, the all-pairs distance tables and the routing tables are
//! computed **once** at [`Network`] construction and shared (`Arc`) between
//! the workload generator, the fabric and the deployment for the whole run.

use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::random::DetRng;

/// An undirected weighted graph with dense `usize` node indices.
#[derive(Debug, Clone)]
pub struct Graph {
    n: usize,
    adj: Vec<Vec<(usize, u64)>>,
}

impl Graph {
    /// An empty graph with `n` nodes and no edges.
    pub fn with_nodes(n: usize) -> Self {
        Graph {
            n,
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Add an undirected edge with the given weight. Panics on out-of-range
    /// endpoints or self loops (the broker overlay is simple).
    pub fn add_edge(&mut self, a: usize, b: usize, weight: u64) {
        assert!(a < self.n && b < self.n, "edge endpoint out of range");
        assert_ne!(a, b, "self loops are not allowed");
        self.adj[a].push((b, weight));
        self.adj[b].push((a, weight));
    }

    /// Neighbors (and edge weights) of a node.
    pub fn neighbors(&self, v: usize) -> &[(usize, u64)] {
        &self.adj[v]
    }

    /// Total number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|a| a.len()).sum::<usize>() / 2
    }

    /// Build the k×k grid of base stations with unit-weight wired links
    /// between horizontally and vertically adjacent stations.
    pub fn grid(k: usize) -> Self {
        assert!(k >= 1, "grid needs at least one station");
        let n = k * k;
        let mut g = Graph::with_nodes(n);
        for row in 0..k {
            for col in 0..k {
                let v = row * k + col;
                if col + 1 < k {
                    g.add_edge(v, v + 1, 1);
                }
                if row + 1 < k {
                    g.add_edge(v, v + k, 1);
                }
            }
        }
        g
    }

    /// Build the k×k grid but perturb edge weights deterministically from a
    /// seed. With unit weights every spanning tree of the grid is minimal;
    /// the perturbation makes the "minimum cost spanning tree" of the paper a
    /// specific, seed-dependent tree so that different runs exercise
    /// different overlays while remaining replayable.
    pub fn grid_jittered(k: usize, seed: u64) -> Self {
        let mut rng = DetRng::new(seed ^ 0x9E37_79B9_7F4A_7C15);
        let n = k * k;
        let mut g = Graph::with_nodes(n);
        for row in 0..k {
            for col in 0..k {
                let v = row * k + col;
                if col + 1 < k {
                    g.add_edge(v, v + 1, 1_000 + rng.next_below(64));
                }
                if row + 1 < k {
                    g.add_edge(v, v + k, 1_000 + rng.next_below(64));
                }
            }
        }
        g
    }

    /// Build the k×k **torus**: the jittered grid plus wrap-around edges
    /// joining the first and last station of every row and column (so every
    /// station has degree 4 and the diameter halves). Wrap edges are only
    /// added for `k >= 3`; below that they would duplicate existing edges.
    pub fn torus_jittered(k: usize, seed: u64) -> Self {
        let mut rng = DetRng::new(seed ^ 0x546f_7275_735f_4d48);
        let n = k * k;
        let mut g = Graph::with_nodes(n);
        let w = |rng: &mut DetRng| 1_000 + rng.next_below(64);
        for row in 0..k {
            for col in 0..k {
                let v = row * k + col;
                if col + 1 < k {
                    g.add_edge(v, v + 1, w(&mut rng));
                }
                if row + 1 < k {
                    g.add_edge(v, v + k, w(&mut rng));
                }
            }
        }
        if k >= 3 {
            for row in 0..k {
                g.add_edge(row * k, row * k + (k - 1), w(&mut rng));
            }
            for col in 0..k {
                g.add_edge(col, (k - 1) * k + col, w(&mut rng));
            }
        }
        g
    }

    /// Build a **random-geometric** (ad-hoc / PSVR-style) network: `n`
    /// stations dropped uniformly in the unit square, wired when within the
    /// connection radius implied by `target_degree` (expected neighbors per
    /// station). Components left disconnected by the radius are stitched
    /// through their closest cross-component pair, so the result is always
    /// connected. Edge weights are the scaled Euclidean distances, making
    /// the MST overlay geometrically meaningful.
    pub fn random_geometric(n: usize, target_degree: f64, seed: u64) -> Self {
        assert!(n >= 1, "random-geometric needs at least one station");
        let mut rng = DetRng::new(seed ^ 0x5247_475f_4d48_4821);
        let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.next_f64(), rng.next_f64())).collect();
        let mut g = Graph::with_nodes(n);
        let dist =
            |a: (f64, f64), b: (f64, f64)| ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
        let weight = |d: f64| ((d * 10_000.0).round() as u64).max(1);
        if n > 1 {
            let r = (target_degree.max(0.5) / (std::f64::consts::PI * (n - 1) as f64)).sqrt();
            for a in 0..n {
                for b in (a + 1)..n {
                    let d = dist(pts[a], pts[b]);
                    if d <= r {
                        g.add_edge(a, b, weight(d));
                    }
                }
            }
            // Stitch: repeatedly connect the component of node 0 to its
            // closest outside station until everything is reachable.
            loop {
                let reach = g.bfs_distances(0);
                if reach.iter().all(|&d| d != u32::MAX) {
                    break;
                }
                let mut best: Option<(usize, usize, f64)> = None;
                for a in (0..n).filter(|&a| reach[a] != u32::MAX) {
                    for b in (0..n).filter(|&b| reach[b] == u32::MAX) {
                        let d = dist(pts[a], pts[b]);
                        if best.is_none_or(|(_, _, bd)| d < bd) {
                            best = Some((a, b, d));
                        }
                    }
                }
                let (a, b, d) = best.expect("disconnected graph has a crossing pair");
                g.add_edge(a, b, weight(d));
            }
        }
        g
    }

    /// Build a **scale-free** (Barabási–Albert) network: start from a clique
    /// of `m + 1` stations, then attach each new station to `m` distinct
    /// existing stations chosen with probability proportional to their
    /// degree (preferential attachment). Connected by construction; produces
    /// the hub-dominated degree distribution of real broker backbones.
    pub fn scale_free(n: usize, m: usize, seed: u64) -> Self {
        assert!(n >= 1, "scale-free needs at least one station");
        let m = m.clamp(1, n.saturating_sub(1).max(1));
        let mut rng = DetRng::new(seed ^ 0x5343_4146_5245_4521);
        let mut g = Graph::with_nodes(n);
        let w = |rng: &mut DetRng| 1_000 + rng.next_below(64);
        // Degree-weighted endpoint pool: every edge contributes both ends.
        let mut pool: Vec<usize> = Vec::new();
        let core = (m + 1).min(n);
        for a in 0..core {
            for b in (a + 1)..core {
                g.add_edge(a, b, w(&mut rng));
                pool.push(a);
                pool.push(b);
            }
        }
        for v in core..n {
            let mut targets = std::collections::BTreeSet::new();
            // The pool always holds >= m distinct nodes (the initial clique),
            // so rejection sampling terminates; cap the spins defensively and
            // fall back to a scan for pathological pools.
            let mut spins = 0usize;
            while targets.len() < m && spins < 64 * m {
                targets.insert(pool[rng.index(pool.len())]);
                spins += 1;
            }
            for u in 0..v {
                if targets.len() >= m {
                    break;
                }
                targets.insert(u);
            }
            for &t in &targets {
                g.add_edge(v, t, w(&mut rng));
                pool.push(v);
                pool.push(t);
            }
        }
        g
    }

    /// Build a network from an imported undirected edge list. Self-loops and
    /// duplicate pairs are skipped (imported data is input, not a model
    /// bug); node count is the largest endpoint + 1. Edge weights carry the
    /// same deterministic perturbation as the grid, so the MST overlay is a
    /// specific, seed-dependent tree.
    pub fn from_edges(edges: &[(u32, u32)], seed: u64) -> Self {
        let n = edge_list_node_count(edges);
        let mut rng = DetRng::new(seed ^ 0x4544_4745_5f4c_4953);
        let mut g = Graph::with_nodes(n);
        let mut seen = std::collections::BTreeSet::new();
        for &(a, b) in edges {
            let (lo, hi) = (a.min(b) as usize, a.max(b) as usize);
            if lo == hi || !seen.insert((lo, hi)) {
                continue;
            }
            g.add_edge(lo, hi, 1_000 + rng.next_below(64));
        }
        g
    }

    /// Hop-count (unweighted) breadth-first distances from `src` to all
    /// nodes. Unreachable nodes get `u32::MAX`.
    pub fn bfs_distances(&self, src: usize) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.n];
        let mut queue = std::collections::VecDeque::new();
        dist[src] = 0;
        queue.push_back(src);
        while let Some(v) = queue.pop_front() {
            for &(w, _) in &self.adj[v] {
                if dist[w] == u32::MAX {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// All-pairs hop-count distances (BFS from every node). Quadratic in the
    /// node count, which is fine at the paper's scales (≤ 196 brokers).
    pub fn all_pairs_hops(&self) -> Vec<Vec<u32>> {
        (0..self.n).map(|v| self.bfs_distances(v)).collect()
    }

    /// True if every node is reachable from node 0 (or the graph is empty).
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        self.bfs_distances(0).iter().all(|&d| d != u32::MAX)
    }

    /// Compute a minimum spanning tree with Prim's algorithm, returning the
    /// tree as an adjacency structure. Panics if the graph is not connected.
    pub fn minimum_spanning_tree(&self) -> Tree {
        assert!(self.n > 0, "cannot build an MST of an empty graph");
        let mut in_tree = vec![false; self.n];
        let mut parent: Vec<Option<usize>> = vec![None; self.n];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.n];
        // (Reverse(weight), tie-break node, from) — deterministic tie-breaks.
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, usize, usize)>> = BinaryHeap::new();
        in_tree[0] = true;
        let mut added = 1usize;
        for &(w, weight) in &self.adj[0] {
            heap.push(std::cmp::Reverse((weight, w, 0)));
        }
        while let Some(std::cmp::Reverse((weight, v, from))) = heap.pop() {
            let _ = weight;
            if in_tree[v] {
                continue;
            }
            in_tree[v] = true;
            added += 1;
            parent[v] = Some(from);
            adj[from].push(v);
            adj[v].push(from);
            for &(w, wt) in &self.adj[v] {
                if !in_tree[w] {
                    heap.push(std::cmp::Reverse((wt, w, v)));
                }
            }
        }
        assert_eq!(added, self.n, "graph must be connected to span it");
        Tree { parent, adj }
    }
}

/// A rooted spanning tree over the broker graph — the acyclic overlay of the
/// pub/sub system.
#[derive(Debug, Clone)]
pub struct Tree {
    parent: Vec<Option<usize>>,
    adj: Vec<Vec<usize>>,
}

impl Tree {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True when the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Tree neighbors of a node.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adj[v]
    }

    /// Parent of a node in the rooted representation (root has `None`).
    pub fn parent(&self, v: usize) -> Option<usize> {
        self.parent[v]
    }

    /// Total number of tree edges (always `len() - 1` for a spanning tree).
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|a| a.len()).sum::<usize>() / 2
    }

    /// Hop distances from `src` over the tree.
    pub fn distances_from(&self, src: usize) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.len()];
        let mut queue = std::collections::VecDeque::new();
        dist[src] = 0;
        queue.push_back(src);
        while let Some(v) = queue.pop_front() {
            for &w in &self.adj[v] {
                if dist[w] == u32::MAX {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// For a node `src`, compute the next tree hop toward every destination.
    /// `next[dst]` is `src` itself when `dst == src`.
    pub fn next_hops_from(&self, src: usize) -> Vec<usize> {
        let n = self.len();
        let mut next = vec![src; n];
        let mut visited = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        visited[src] = true;
        // Seed the frontier: everything reached through neighbor `nb` keeps
        // `nb` as its first hop.
        for &nb in &self.adj[src] {
            visited[nb] = true;
            next[nb] = nb;
            queue.push_back(nb);
        }
        while let Some(v) = queue.pop_front() {
            for &w in &self.adj[v] {
                if !visited[w] {
                    visited[w] = true;
                    next[w] = next[v];
                    queue.push_back(w);
                }
            }
        }
        next
    }

    /// The unique tree path from `a` to `b`, inclusive of both endpoints.
    pub fn path(&self, a: usize, b: usize) -> Vec<usize> {
        if a == b {
            return vec![a];
        }
        // BFS from b recording predecessors, then walk from a.
        let n = self.len();
        let mut pred = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        pred[b] = b;
        queue.push_back(b);
        while let Some(v) = queue.pop_front() {
            if v == a {
                break;
            }
            for &w in &self.adj[v] {
                if pred[w] == usize::MAX {
                    pred[w] = v;
                    queue.push_back(w);
                }
            }
        }
        assert_ne!(pred[a], usize::MAX, "tree must be connected");
        let mut path = vec![a];
        let mut cur = a;
        while cur != b {
            cur = pred[cur];
            path.push(cur);
        }
        path
    }

    /// The largest pairwise hop distance over the tree. This is the quantity
    /// the sub-unsub protocol's safety interval is derived from (paper,
    /// Section 5.1: "the maximum time for message delivery between any two
    /// stations").
    pub fn diameter(&self) -> u32 {
        (0..self.len())
            .map(|v| {
                self.distances_from(v)
                    .into_iter()
                    .filter(|&d| d != u32::MAX)
                    .max()
                    .unwrap_or(0)
            })
            .max()
            .unwrap_or(0)
    }
}

/// Which network shape a scenario runs on, with its parameters — the cheap,
/// cloneable *description* a configuration carries; [`build`] turns it into
/// a fully pre-processed [`Network`], deterministically from `(side, seed)`.
///
/// [`build`]: TopologyKind::build
#[derive(Debug, Clone, Default, PartialEq)]
pub enum TopologyKind {
    /// The paper's k×k wired grid (Section 5.1).
    #[default]
    Grid,
    /// The k×k grid with wrap-around edges (no edge stations, half the
    /// diameter).
    Torus,
    /// Stations dropped uniformly at random in the unit square, wired within
    /// the radius implied by the target mean degree — the irregular ad-hoc
    /// topology of the PSVR line of work.
    RandomGeometric {
        /// Expected number of neighbors per station (clamped to ≥ 0.5).
        target_degree: f64,
    },
    /// Barabási–Albert preferential attachment: hub-dominated broker
    /// backbones.
    ScaleFree {
        /// Edges each newly attached station brings (m).
        edges_per_node: usize,
    },
    /// An imported undirected edge list (node count = max endpoint + 1).
    /// The list must describe a **connected** graph: the broker overlay is
    /// a spanning tree, so [`build`](TopologyKind::build) panics (with the
    /// `"broker network must be connected"` message) on a disconnected
    /// import — validate external data before wiring it into a scenario.
    EdgeList(Arc<Vec<(u32, u32)>>),
    /// A hand-built graph supplied directly to [`Network::from_graph`];
    /// cannot be built from a description.
    Custom,
}

impl TopologyKind {
    /// Short machine-friendly label used in reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            TopologyKind::Grid => "grid",
            TopologyKind::Torus => "torus",
            TopologyKind::RandomGeometric { .. } => "random-geometric",
            TopologyKind::ScaleFree { .. } => "scale-free",
            TopologyKind::EdgeList(_) => "edge-list",
            TopologyKind::Custom => "custom",
        }
    }

    /// Parse a kind by label, with default parameters (`random-geometric`
    /// targets degree 4, `scale-free` attaches 2 edges per station).
    /// Edge-list and custom topologies carry data and cannot be parsed.
    pub fn parse(name: &str) -> Option<TopologyKind> {
        match name {
            "grid" => Some(TopologyKind::Grid),
            "torus" => Some(TopologyKind::Torus),
            "random-geometric" => Some(TopologyKind::RandomGeometric { target_degree: 4.0 }),
            "scale-free" => Some(TopologyKind::ScaleFree { edges_per_node: 2 }),
            _ => None,
        }
    }

    /// The parseable labels, for error messages.
    pub fn names() -> &'static [&'static str] {
        &["grid", "torus", "random-geometric", "scale-free"]
    }

    /// Number of stations a build with this `side` produces. Grid-family
    /// and random shapes use `side²`; an edge list brings its own count.
    pub fn node_count(&self, side: usize) -> usize {
        match self {
            TopologyKind::EdgeList(edges) => edge_list_node_count(edges),
            _ => side * side,
        }
    }

    /// Build the physical graph of this kind.
    ///
    /// # Panics
    /// Panics on [`TopologyKind::Custom`] (hand-built graphs go through
    /// [`Network::from_graph`]) and on a disconnected edge list.
    pub fn build_graph(&self, side: usize, seed: u64) -> Graph {
        match self {
            TopologyKind::Grid => Graph::grid_jittered(side, seed),
            TopologyKind::Torus => Graph::torus_jittered(side, seed),
            TopologyKind::RandomGeometric { target_degree } => {
                Graph::random_geometric(side * side, *target_degree, seed)
            }
            TopologyKind::ScaleFree { edges_per_node } => {
                Graph::scale_free(side * side, *edges_per_node, seed)
            }
            TopologyKind::EdgeList(edges) => Graph::from_edges(edges, seed),
            TopologyKind::Custom => {
                panic!("custom topologies are built directly via Network::from_graph")
            }
        }
    }

    /// Build the fully pre-processed [`Network`] of this kind.
    pub fn build(&self, side: usize, seed: u64) -> Network {
        Network::from_graph_kind(side, self.build_graph(side, seed), self.clone())
    }
}

/// Display renders the *parameter point* (`scale-free(m=2)`), so swept
/// topologies stay distinguishable in reports; parameter-free kinds render
/// as their plain label.
impl std::fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyKind::RandomGeometric { target_degree } => {
                write!(f, "{}(deg={target_degree})", self.label())
            }
            TopologyKind::ScaleFree { edges_per_node } => {
                write!(f, "{}(m={edges_per_node})", self.label())
            }
            TopologyKind::EdgeList(edges) => write!(f, "{}(edges={})", self.label(), edges.len()),
            _ => f.write_str(self.label()),
        }
    }
}

/// Node count implied by an edge list (max endpoint + 1) — the one
/// definition shared by [`Graph::from_edges`] and
/// [`TopologyKind::node_count`], so the population sizing and the built
/// network can never disagree.
fn edge_list_node_count(edges: &[(u32, u32)]) -> usize {
    edges
        .iter()
        .map(|&(a, b)| a.max(b) as usize + 1)
        .max()
        .unwrap_or(0)
}

/// Parse an edge-list document: one `a b` pair per line, `#` comments and
/// blank lines ignored. Errors carry the 1-based line number.
pub fn parse_edge_list(text: &str) -> Result<Vec<(u32, u32)>, String> {
    let mut edges = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(a), Some(b), None) = (it.next(), it.next(), it.next()) else {
            return Err(format!("line {}: expected exactly `a b`", i + 1));
        };
        let a: u32 = a
            .parse()
            .map_err(|e| format!("line {}: bad endpoint {a:?}: {e}", i + 1))?;
        let b: u32 = b
            .parse()
            .map_err(|e| format!("line {}: bad endpoint {b:?}: {e}", i + 1))?;
        edges.push((a, b));
    }
    Ok(edges)
}

/// A fully pre-processed broker network: physical graph + overlay tree +
/// distance tables + per-broker routing tables, built once per run.
#[derive(Debug, Clone)]
pub struct Network {
    /// Grid side length (k) for the grid family; the side hint the build was
    /// asked for otherwise (0 for imported edge lists).
    pub side: usize,
    /// The shape this network was built from.
    pub kind: TopologyKind,
    /// The physical wired graph.
    pub graph: Graph,
    /// The acyclic overlay (minimum spanning tree of the physical graph).
    pub tree: Tree,
    /// All-pairs hop distances over the physical graph.
    pub grid_dist: Vec<Vec<u32>>,
    /// All-pairs hop distances over the overlay tree.
    pub tree_dist: Vec<Vec<u32>>,
    /// `routing[src][dst]` = the overlay neighbor of `src` that is the next
    /// hop toward `dst` (equal to `src` when `dst == src`). This is the
    /// "routing table for the broker overlay network" of Section 3.
    pub routing: Vec<Vec<usize>>,
}

impl Network {
    /// Build a k×k broker network with a deterministic, seed-dependent MST
    /// overlay.
    pub fn grid(k: usize, seed: u64) -> Self {
        TopologyKind::Grid.build(k, seed)
    }

    /// Build from an arbitrary connected graph (used by tests and the
    /// quickstart example for tiny hand-made topologies). `side` is kept for
    /// reporting only; the kind is [`TopologyKind::Custom`].
    pub fn from_graph(side: usize, graph: Graph) -> Self {
        Self::from_graph_kind(side, graph, TopologyKind::Custom)
    }

    fn from_graph_kind(side: usize, graph: Graph, kind: TopologyKind) -> Self {
        assert!(graph.is_connected(), "broker network must be connected");
        let tree = graph.minimum_spanning_tree();
        let grid_dist = graph.all_pairs_hops();
        let tree_dist: Vec<Vec<u32>> = (0..tree.len()).map(|v| tree.distances_from(v)).collect();
        let routing: Vec<Vec<usize>> = (0..tree.len()).map(|v| tree.next_hops_from(v)).collect();
        Network {
            side,
            kind,
            graph,
            tree,
            grid_dist,
            tree_dist,
            routing,
        }
    }

    /// Number of brokers.
    pub fn broker_count(&self) -> usize {
        self.graph.len()
    }

    /// True when this network is the paper's plain k×k grid (mobility models
    /// with grid-specific movement keep their original cell-math paths on
    /// it, preserving pre-refactor RNG streams byte for byte).
    pub fn is_grid(&self) -> bool {
        matches!(self.kind, TopologyKind::Grid)
    }

    /// Physical neighbors of a broker (adjacency order, deterministic).
    pub fn neighbors(&self, b: usize) -> impl Iterator<Item = usize> + '_ {
        self.graph.neighbors(b).iter().map(|&(w, _)| w)
    }

    /// Hop distance between two brokers over the physical grid.
    pub fn grid_distance(&self, a: usize, b: usize) -> u32 {
        self.grid_dist[a][b]
    }

    /// Hop distance between two brokers over the overlay tree.
    pub fn tree_distance(&self, a: usize, b: usize) -> u32 {
        self.tree_dist[a][b]
    }

    /// Next overlay hop from `src` toward `dst`.
    pub fn next_hop(&self, src: usize, dst: usize) -> usize {
        self.routing[src][dst]
    }

    /// The unique overlay path between two brokers.
    pub fn tree_path(&self, a: usize, b: usize) -> Vec<usize> {
        self.tree.path(a, b)
    }

    /// Maximum pairwise grid distance.
    pub fn grid_diameter(&self) -> u32 {
        self.grid_dist
            .iter()
            .flat_map(|row| row.iter().copied())
            .max()
            .unwrap_or(0)
    }

    /// Maximum pairwise overlay distance.
    pub fn tree_diameter(&self) -> u32 {
        self.tree_dist
            .iter()
            .flat_map(|row| row.iter().copied())
            .max()
            .unwrap_or(0)
    }

    /// Average pairwise grid distance over distinct broker pairs.
    pub fn average_grid_distance(&self) -> f64 {
        let n = self.broker_count();
        if n < 2 {
            return 0.0;
        }
        let total: u64 = self
            .grid_dist
            .iter()
            .enumerate()
            .flat_map(|(i, row)| row.iter().enumerate().filter(move |(j, _)| *j > i))
            .map(|(_, &d)| d as u64)
            .sum();
        total as f64 / (n * (n - 1) / 2) as f64
    }

    /// Average pairwise overlay distance over distinct broker pairs.
    pub fn average_tree_distance(&self) -> f64 {
        let n = self.broker_count();
        if n < 2 {
            return 0.0;
        }
        let total: u64 = self
            .tree_dist
            .iter()
            .enumerate()
            .flat_map(|(i, row)| row.iter().enumerate().filter(move |(j, _)| *j > i))
            .map(|(_, &d)| d as u64)
            .sum();
        total as f64 / (n * (n - 1) / 2) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_expected_shape() {
        let g = Graph::grid(4);
        assert_eq!(g.len(), 16);
        // 2 * k * (k - 1) edges in a k×k grid
        assert_eq!(g.edge_count(), 24);
        assert!(g.is_connected());
        // Corner has 2 neighbors, centre has 4.
        assert_eq!(g.neighbors(0).len(), 2);
        assert_eq!(g.neighbors(5).len(), 4);
    }

    #[test]
    fn bfs_distance_is_manhattan_on_grid() {
        let g = Graph::grid(5);
        let d = g.bfs_distances(0);
        // node (r, c) has index r*5+c; manhattan distance from (0,0)
        for r in 0..5 {
            for c in 0..5 {
                assert_eq!(d[r * 5 + c], (r + c) as u32);
            }
        }
    }

    #[test]
    fn mst_spans_and_is_acyclic() {
        let g = Graph::grid_jittered(6, 99);
        let t = g.minimum_spanning_tree();
        assert_eq!(t.len(), 36);
        assert_eq!(t.edge_count(), 35);
        // Connected: every node reachable from 0.
        assert!(t.distances_from(0).iter().all(|&d| d != u32::MAX));
    }

    #[test]
    fn tree_path_endpoints_and_adjacency() {
        let net = Network::grid(5, 7);
        let p = net.tree_path(0, 24);
        assert_eq!(*p.first().unwrap(), 0);
        assert_eq!(*p.last().unwrap(), 24);
        for w in p.windows(2) {
            assert!(net.tree.neighbors(w[0]).contains(&w[1]));
        }
        assert_eq!(p.len() as u32 - 1, net.tree_distance(0, 24));
    }

    #[test]
    fn next_hop_lies_on_tree_path() {
        let net = Network::grid(6, 3);
        for src in 0..net.broker_count() {
            for dst in 0..net.broker_count() {
                if src == dst {
                    assert_eq!(net.next_hop(src, dst), src);
                    continue;
                }
                let hop = net.next_hop(src, dst);
                let path = net.tree_path(src, dst);
                assert_eq!(path[1], hop, "next hop must be second node on the path");
            }
        }
    }

    #[test]
    fn tree_distance_at_least_grid_distance() {
        let net = Network::grid(7, 11);
        for a in 0..net.broker_count() {
            for b in 0..net.broker_count() {
                assert!(net.tree_distance(a, b) >= net.grid_distance(a, b));
            }
        }
    }

    #[test]
    fn diameters_and_averages_are_sane() {
        let net = Network::grid(10, 1);
        assert_eq!(net.grid_diameter(), 18); // (k-1)*2 for a grid
        assert!(net.tree_diameter() >= net.grid_diameter());
        let avg_grid = net.average_grid_distance();
        let avg_tree = net.average_tree_distance();
        assert!(avg_grid > 0.0 && avg_grid < net.grid_diameter() as f64);
        assert!(avg_tree >= avg_grid);
        assert!(avg_tree <= net.tree_diameter() as f64);
    }

    #[test]
    fn single_node_network_works() {
        let g = Graph::grid(1);
        let net = Network::from_graph(1, g);
        assert_eq!(net.broker_count(), 1);
        assert_eq!(net.tree_path(0, 0), vec![0]);
        assert_eq!(net.grid_diameter(), 0);
        assert_eq!(net.average_grid_distance(), 0.0);
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn self_loops_rejected() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(1, 1, 1);
    }

    #[test]
    fn jittered_grids_differ_by_seed_but_not_shape() {
        let a = Network::grid(6, 1);
        let b = Network::grid(6, 2);
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        // Overlay trees usually differ across seeds; distances over the grid
        // must be identical because weights only perturb tree choice.
        assert_eq!(a.grid_dist, b.grid_dist);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = Network::grid(8, 5);
        let b = Network::grid(8, 5);
        assert_eq!(a.tree_dist, b.tree_dist);
        assert_eq!(a.routing, b.routing);
    }

    #[test]
    fn torus_wraps_and_shrinks_the_diameter() {
        let grid = TopologyKind::Grid.build(6, 9);
        let torus = TopologyKind::Torus.build(6, 9);
        assert_eq!(torus.broker_count(), 36);
        // Every torus station has degree 4; 2k extra edges over the grid.
        assert!(torus.graph.neighbors(0).len() == 4);
        assert_eq!(torus.graph.edge_count(), grid.graph.edge_count() + 12);
        // Opposite corners are close on the torus.
        assert!(torus.grid_diameter() < grid.grid_diameter());
        assert!(!torus.is_grid() && grid.is_grid());
        // Tiny tori degrade to plain grids instead of multigraphs.
        assert_eq!(
            TopologyKind::Torus.build(2, 1).graph.edge_count(),
            Graph::grid(2).edge_count()
        );
    }

    #[test]
    fn random_geometric_is_connected_and_deterministic() {
        for seed in [1u64, 2, 3, 4, 5] {
            let net = TopologyKind::RandomGeometric { target_degree: 3.0 }.build(5, seed);
            assert_eq!(net.broker_count(), 25);
            assert!(net.graph.is_connected());
        }
        let a = Graph::random_geometric(30, 4.0, 7);
        let b = Graph::random_geometric(30, 4.0, 7);
        assert_eq!(a.edge_count(), b.edge_count());
        assert_ne!(
            a.edge_count(),
            Graph::random_geometric(30, 4.0, 8).edge_count()
        );
    }

    #[test]
    fn scale_free_grows_hubs() {
        let net = TopologyKind::ScaleFree { edges_per_node: 2 }.build(7, 3);
        assert_eq!(net.broker_count(), 49);
        assert!(net.graph.is_connected());
        // Preferential attachment concentrates degree: the max degree is a
        // multiple of the mean (~2m = 4).
        let max_deg = (0..49).map(|v| net.graph.neighbors(v).len()).max().unwrap();
        assert!(max_deg >= 8, "no hub emerged: max degree {max_deg}");
        // m clamps into the valid range on degenerate sizes.
        assert!(Graph::scale_free(1, 2, 0).is_connected());
        assert_eq!(Graph::scale_free(3, 9, 0).edge_count(), 3);
    }

    #[test]
    fn edge_list_topology_imports_and_dedups() {
        let text = "0 1\n1 2 # back row\n2 3\n3 0\n\n# dupes and loops skipped\n1 0\n2 2\n";
        let edges = parse_edge_list(text).expect("well-formed");
        assert_eq!(edges.len(), 6);
        let kind = TopologyKind::EdgeList(Arc::new(edges));
        assert_eq!(kind.node_count(99), 4, "node count comes from the list");
        let net = kind.build(0, 5);
        assert_eq!(net.broker_count(), 4);
        assert_eq!(net.graph.edge_count(), 4, "dupe and self-loop dropped");
        assert!(parse_edge_list("0 1 2").is_err());
        assert!(parse_edge_list("0 x").unwrap_err().contains("line 1"));
    }

    #[test]
    fn kinds_parse_round_trip_and_display_parameter_points() {
        for name in TopologyKind::names() {
            let kind = TopologyKind::parse(name).expect("listed kinds parse");
            assert_eq!(kind.label(), *name);
        }
        assert!(TopologyKind::parse("mesh-of-trees").is_none());
        assert_eq!(TopologyKind::default(), TopologyKind::Grid);
        assert_eq!(
            TopologyKind::ScaleFree { edges_per_node: 3 }.to_string(),
            "scale-free(m=3)"
        );
        assert_eq!(
            TopologyKind::RandomGeometric { target_degree: 4.0 }.to_string(),
            "random-geometric(deg=4)"
        );
        assert_eq!(TopologyKind::Torus.to_string(), "torus");
    }

    #[test]
    fn every_buildable_kind_yields_working_routing_tables() {
        let kinds = [
            TopologyKind::Grid,
            TopologyKind::Torus,
            TopologyKind::RandomGeometric { target_degree: 4.0 },
            TopologyKind::ScaleFree { edges_per_node: 2 },
        ];
        for kind in kinds {
            let net = kind.build(4, 11);
            assert_eq!(net.broker_count(), 16, "{kind}");
            for src in 0..16 {
                for dst in 0..16 {
                    let mut cur = src;
                    let mut steps = 0;
                    while cur != dst {
                        cur = net.next_hop(cur, dst);
                        steps += 1;
                        assert!(steps <= 16, "{kind}: routing loop {src}->{dst}");
                    }
                    assert_eq!(steps, net.tree_distance(src, dst) as usize, "{kind}");
                }
            }
        }
    }
}
