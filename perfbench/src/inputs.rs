//! Workload inputs: the stand-in dataset shapes at `--scale small`,
//! generated from the benchmark's seed.
//!
//! The shapes are those of `gsd-bench`'s Table 3 stand-ins (kron_sim
//! and uk_sim at base |V| = 10 000). The seed comes from the command
//! line and defaults to the stand-in's own, so a run without `--seed`
//! reproduces the graphs `gsd bench --scale small` measures. kron_sim's
//! structure is drawn from the seed; uk_sim keeps its own structure and
//! the seed draws its edge weights (see [`Shape::weighted`]).

use gsd_graph::{EdgeCodec, GeneratorConfig, Graph, GraphKind};
use rand::SeedableRng;

/// One stand-in shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Stand-in name.
    pub name: &'static str,
    /// Generator family.
    pub kind: GraphKind,
    /// Vertex count.
    pub vertices: u32,
    /// Edge count.
    pub edges: u64,
    /// The stand-in's own seed (the default `--seed`).
    pub default_seed: u64,
}

/// The Kron30 stand-in: 60k vertices, 1.9M edges.
pub const KRON_SIM: Shape = Shape {
    name: "kron_sim",
    kind: GraphKind::Kronecker,
    vertices: 60_000,
    edges: 1_900_000,
    default_seed: 505,
};

/// The UK2007 stand-in: 25k vertices, 880k edges.
pub const UK_SIM: Shape = Shape {
    name: "uk_sim",
    kind: GraphKind::WebLocality,
    vertices: 25_000,
    edges: 880_000,
    default_seed: 303,
};

impl Shape {
    /// The directed, unweighted graph for `seed`.
    pub fn directed(&self, seed: u64) -> Graph {
        GeneratorConfig::new(self.kind, self.vertices, self.edges, seed).generate()
    }

    /// The stand-in's own directed structure with weights in `(0, 1]`
    /// drawn from `seed`, as `gsd-bench` draws its SSSP weights. The
    /// structure stays fixed because SSSP's iteration count follows the
    /// hop depth of the graph from the root: across structure seeds it
    /// moves by up to 40 %, across weight seeds by a few percent.
    pub fn weighted(&self, seed: u64) -> Graph {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x5EED);
        gsd_graph::generators::randomize_weights(self.directed(self.default_seed), &mut rng)
    }
}

/// Bytes of edge payload a graph occupies on disk.
pub fn edge_bytes(graph: &Graph) -> u64 {
    graph.num_edges() * EdgeCodec::new(graph.is_weighted()).edge_bytes() as u64
}

/// The paper's memory budget: 5 % of the edge bytes.
pub fn paper_budget(graph: &Graph) -> u64 {
    (edge_bytes(graph) / 20).max(1)
}

/// The paper's interval count: the 5 % budget holds one grid row.
pub const PAPER_P: u32 = 20;

/// The vertex with the highest out-degree (the last one on ties, as
/// `gsd-bench` picks its SSSP/BFS root).
pub fn hub(graph: &Graph) -> u32 {
    graph
        .out_degrees()
        .iter()
        .enumerate()
        .max_by_key(|(_, &d)| d)
        .map_or(0, |(v, _)| v as u32)
}
