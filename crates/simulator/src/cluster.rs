//! The simulated cluster: nodes and their container pools.
//!
//! YARN organizes cluster resources into *containers* — fixed-size slices of
//! a node (the paper uses 1 vcore + 2 GB per container, giving 120 containers
//! on its 4-node testbed). The scheduling problem is then "how to place jobs
//! onto those containers" (§IV), so the simulator models the cluster as a
//! pool of identical containers spread over nodes. Node identity only
//! affects placement bookkeeping (tasks are placed on the least-loaded
//! node), not task speed; the paper's algorithms are locality-oblivious.

use serde::{Deserialize, Serialize};

use crate::error::SimError;
use crate::ids::NodeId;

/// Static description of the simulated cluster.
///
/// # Examples
///
/// The paper's testbed — 4 nodes, 120 containers total:
///
/// ```
/// use lasmq_simulator::ClusterConfig;
///
/// let cluster = ClusterConfig::new(4, 30);
/// assert_eq!(cluster.total_containers(), 120);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    nodes: u32,
    containers_per_node: u32,
    // The container shape is descriptive only, and every serialized cluster
    // carries it.
    vcores_per_container: u32,
    memory_mb_per_container: u32,
    slow_nodes: u32,
    slowdown: f64,
}

impl ClusterConfig {
    /// A cluster of `nodes` nodes, each hosting `containers_per_node`
    /// containers of 1 vcore + 2 GB (the paper's allocation unit).
    pub fn new(nodes: u32, containers_per_node: u32) -> Self {
        ClusterConfig {
            nodes,
            containers_per_node,
            vcores_per_container: 1,
            memory_mb_per_container: 2_048,
            slow_nodes: 0,
            slowdown: 1.0,
        }
    }

    /// A single-node cluster with `containers` containers — convenient for
    /// trace-driven simulations where node topology is irrelevant.
    pub fn single_node(containers: u32) -> Self {
        ClusterConfig::new(1, containers)
    }

    /// Makes the last `slow_nodes` nodes run tasks `slowdown` times slower
    /// — the heterogeneous-environment model of Zaharia et al. (OSDI '08)
    /// that the paper cites as a source of unpredictable task durations
    /// (§III-B). Tasks placed on a slow node take
    /// `duration × slowdown`; schedulers observe only the resulting
    /// progress, never the node speeds.
    ///
    /// # Panics
    ///
    /// Panics if `slowdown < 1` or `slow_nodes` exceeds the node count.
    ///
    /// # Examples
    ///
    /// ```
    /// use lasmq_simulator::{ClusterConfig, NodeId};
    ///
    /// let cluster = ClusterConfig::new(4, 30).with_heterogeneity(1, 2.5);
    /// assert_eq!(cluster.speed_factor(NodeId::new(0)), 1.0);
    /// assert_eq!(cluster.speed_factor(NodeId::new(3)), 2.5);
    /// ```
    pub fn with_heterogeneity(mut self, slow_nodes: u32, slowdown: f64) -> Self {
        assert!(
            slowdown.is_finite() && slowdown >= 1.0,
            "slow nodes are slower, not faster"
        );
        assert!(slow_nodes <= self.nodes, "more slow nodes than nodes");
        self.slow_nodes = slow_nodes;
        self.slowdown = slowdown;
        self
    }

    /// The duration multiplier for tasks placed on `node` (1.0 for full-
    /// speed nodes, `slowdown` for the configured slow nodes).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn speed_factor(&self, node: NodeId) -> f64 {
        assert!((node.index() as u32) < self.nodes, "{node} out of range");
        if node.index() as u32 >= self.nodes - self.slow_nodes {
            self.slowdown
        } else {
            1.0
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Containers hosted by each node.
    pub fn containers_per_node(&self) -> u32 {
        self.containers_per_node
    }

    /// Total containers in the cluster — the capacity every scheduler
    /// divides up.
    pub fn total_containers(&self) -> u32 {
        self.nodes * self.containers_per_node
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidCluster`] if the cluster has zero nodes or
    /// zero containers per node.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.nodes == 0 {
            return Err(SimError::InvalidCluster("cluster has zero nodes".into()));
        }
        if self.containers_per_node == 0 {
            return Err(SimError::InvalidCluster(
                "nodes host zero containers".into(),
            ));
        }
        Ok(())
    }
}

impl Default for ClusterConfig {
    /// The paper's testbed: 4 nodes × 30 containers.
    fn default() -> Self {
        ClusterConfig::new(4, 30)
    }
}

/// Live container accounting for a running simulation.
///
/// Tracks how many containers are free on each node and places new
/// allocations on the least-loaded node (ties broken by node index, so
/// placement is deterministic). Placement queries run on a max segment
/// tree over the per-node free counts, so `allocate` costs O(log nodes)
/// instead of a full scan — the difference between the paper's 4-node
/// testbed and the thousand-node scale configurations.
#[derive(Debug, Clone)]
pub struct ClusterState {
    config: ClusterConfig,
    free_per_node: Vec<u32>,
    free_total: u32,
    /// Max segment tree over `free_per_node`, padded to a power of two;
    /// `tree[1]` is the root, leaves start at `leaves`. Padding leaves
    /// hold 0 free containers and are never selected (a 0-free node can
    /// host nothing).
    tree: Vec<u32>,
    leaves: usize,
}

impl ClusterState {
    /// Creates an all-free cluster from its configuration.
    pub fn new(config: ClusterConfig) -> Self {
        let free_per_node = vec![config.containers_per_node(); config.nodes() as usize];
        let (tree, leaves) = build_max_tree(&free_per_node);
        ClusterState {
            config,
            free_total: config.total_containers(),
            free_per_node,
            tree,
            leaves,
        }
    }

    /// Writes `free` to node `idx`'s leaf and refreshes the path to the
    /// root.
    fn tree_set(&mut self, idx: usize, free: u32) {
        let mut i = self.leaves + idx;
        self.tree[i] = free;
        while i > 1 {
            i /= 2;
            self.tree[i] = self.tree[2 * i].max(self.tree[2 * i + 1]);
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Containers currently unallocated, cluster-wide.
    pub fn free_containers(&self) -> u32 {
        self.free_total
    }

    /// Containers currently allocated, cluster-wide.
    pub fn used_containers(&self) -> u32 {
        self.config.total_containers() - self.free_total
    }

    /// Cluster utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.used_containers() as f64 / self.config.total_containers() as f64
    }

    /// Allocates `containers` containers on the least-loaded node able to
    /// host them as a unit (a task's containers are co-located, as a YARN
    /// container request for a task resolves to one host).
    ///
    /// Returns the chosen node, or `None` if no single node has enough free
    /// containers.
    pub fn allocate(&mut self, containers: u32) -> Option<NodeId> {
        // The least-loaded node is the one with the global maximum free
        // count; it can host the request iff that maximum suffices. The
        // scan order of the legacy linear search (first node attaining
        // the maximum wins) is preserved by descending left-first on
        // ties.
        if containers == 0 || containers > self.tree[1] {
            return None;
        }
        let mut i = 1;
        while i < self.leaves {
            i = if self.tree[2 * i] >= self.tree[2 * i + 1] {
                2 * i
            } else {
                2 * i + 1
            };
        }
        let idx = i - self.leaves;
        let free = self.free_per_node[idx] - containers;
        self.free_per_node[idx] = free;
        self.free_total -= containers;
        self.tree_set(idx, free);
        Some(NodeId::new(idx as u32))
    }

    /// Free containers per node, indexed by node id. Used for snapshots.
    pub fn free_per_node(&self) -> &[u32] {
        &self.free_per_node
    }

    /// Rebuilds live occupancy from snapshotted per-node free counts.
    ///
    /// # Panics
    ///
    /// Panics if the vector length does not match the node count or any
    /// entry exceeds the node's capacity.
    pub fn from_snapshot(config: ClusterConfig, free_per_node: Vec<u32>) -> Self {
        assert_eq!(
            free_per_node.len(),
            config.nodes() as usize,
            "snapshot node count mismatch"
        );
        assert!(
            free_per_node
                .iter()
                .all(|&f| f <= config.containers_per_node()),
            "snapshot free count exceeds node capacity"
        );
        let free_total = free_per_node.iter().sum();
        let (tree, leaves) = build_max_tree(&free_per_node);
        ClusterState {
            config,
            free_per_node,
            free_total,
            tree,
            leaves,
        }
    }

    /// Returns `containers` containers on `node` to the pool.
    ///
    /// # Panics
    ///
    /// Panics if the release would exceed the node's capacity (a
    /// double-release bug).
    pub fn release(&mut self, node: NodeId, containers: u32) {
        let free = self.free_per_node[node.index()] + containers;
        assert!(
            free <= self.config.containers_per_node(),
            "released more containers than {node} hosts"
        );
        self.free_per_node[node.index()] = free;
        self.free_total += containers;
        self.tree_set(node.index(), free);
    }
}

/// Builds the max segment tree for `free_per_node`; returns the tree and
/// its leaf offset.
fn build_max_tree(free_per_node: &[u32]) -> (Vec<u32>, usize) {
    let leaves = free_per_node.len().next_power_of_two();
    let mut tree = vec![0u32; 2 * leaves];
    tree[leaves..leaves + free_per_node.len()].copy_from_slice(free_per_node);
    for i in (1..leaves).rev() {
        tree[i] = tree[2 * i].max(tree[2 * i + 1]);
    }
    (tree, leaves)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_testbed() {
        let c = ClusterConfig::default();
        assert_eq!(c.total_containers(), 120);
        assert_eq!(c.nodes(), 4);
    }

    #[test]
    fn validate_rejects_degenerate_clusters() {
        assert!(ClusterConfig::new(0, 8).validate().is_err());
        assert!(ClusterConfig::new(2, 0).validate().is_err());
        assert!(ClusterConfig::new(1, 1).validate().is_ok());
    }

    #[test]
    fn allocate_prefers_least_loaded_node() {
        let mut state = ClusterState::new(ClusterConfig::new(2, 4));
        let first = state.allocate(3).unwrap();
        assert_eq!(first, NodeId::new(0));
        // Node 0 now has 1 free, node 1 has 4: next allocation goes to node 1.
        let second = state.allocate(2).unwrap();
        assert_eq!(second, NodeId::new(1));
        assert_eq!(state.free_containers(), 3);
    }

    #[test]
    fn allocate_requires_colocated_space() {
        let mut state = ClusterState::new(ClusterConfig::new(2, 2));
        // 4 free total, but no node can host a 3-wide task.
        assert_eq!(state.allocate(3), None);
        assert_eq!(state.free_containers(), 4);
    }

    #[test]
    fn release_restores_capacity() {
        let mut state = ClusterState::new(ClusterConfig::new(1, 4));
        let node = state.allocate(4).unwrap();
        assert_eq!(state.free_containers(), 0);
        assert_eq!(state.utilization(), 1.0);
        state.release(node, 4);
        assert_eq!(state.free_containers(), 4);
        assert_eq!(state.utilization(), 0.0);
    }

    #[test]
    #[should_panic(expected = "released more containers")]
    fn double_release_panics() {
        let mut state = ClusterState::new(ClusterConfig::new(1, 2));
        state.release(NodeId::new(0), 1);
    }

    #[test]
    fn heterogeneity_marks_trailing_nodes_slow() {
        let c = ClusterConfig::new(4, 30).with_heterogeneity(2, 3.0);
        assert_eq!(c.speed_factor(NodeId::new(0)), 1.0);
        assert_eq!(c.speed_factor(NodeId::new(1)), 1.0);
        assert_eq!(c.speed_factor(NodeId::new(2)), 3.0);
        assert_eq!(c.speed_factor(NodeId::new(3)), 3.0);
    }

    #[test]
    #[should_panic(expected = "slower, not faster")]
    fn speedup_rejected() {
        let _ = ClusterConfig::new(2, 4).with_heterogeneity(1, 0.5);
    }

    #[test]
    #[should_panic(expected = "more slow nodes")]
    fn too_many_slow_nodes_rejected() {
        let _ = ClusterConfig::new(2, 4).with_heterogeneity(3, 2.0);
    }

    #[test]
    fn allocate_zero_or_too_many_fails() {
        let mut state = ClusterState::new(ClusterConfig::new(1, 2));
        assert_eq!(state.allocate(0), None);
        assert_eq!(state.allocate(3), None);
    }

    /// Reference placement: the pre-segment-tree linear scan. The tree
    /// must reproduce it decision for decision, including index
    /// tie-breaks, on any (non-power-of-two) node count.
    fn linear_scan(free: &[u32], containers: u32) -> Option<usize> {
        let mut best: Option<(usize, u32)> = None;
        for (idx, &f) in free.iter().enumerate() {
            if f >= containers && best.is_none_or(|(_, b)| f > b) {
                best = Some((idx, f));
            }
        }
        best.map(|(idx, _)| idx)
    }

    #[test]
    fn tree_placement_matches_linear_scan() {
        let mut state = ClusterState::new(ClusterConfig::new(13, 7));
        let mut held: Vec<(NodeId, u32)> = Vec::new();
        // Deterministic churn: widths cycle 1..=5, every third step
        // releases the oldest holding first.
        for step in 0u32..400 {
            if step % 3 == 2 && !held.is_empty() {
                let (node, width) = held.remove(0);
                state.release(node, width);
            }
            let width = 1 + step % 5;
            let expect = linear_scan(state.free_per_node(), width);
            let got = state.allocate(width);
            assert_eq!(
                got.map(|n| n.index()),
                expect,
                "step {step}: tree and linear scan disagree"
            );
            if let Some(node) = got {
                held.push((node, width));
            }
        }
    }
}
