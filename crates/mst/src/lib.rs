//! # morph-mst — Boruvka's minimum spanning tree (paper §5, §6.5, §8.4)
//!
//! Boruvka's algorithm contracts the minimum-weight edge leaving each
//! component until one component remains — node merging is the morph
//! operation. Three implementations reproduce the paper's Fig. 11
//! comparison:
//!
//! * [`edge_merge`] — Galois-2.1.4-style contraction that **explicitly
//!   merges adjacency lists**; its cost is proportional to node degrees,
//!   which is why it collapses on dense graphs (1,393 s on RMAT20 in the
//!   paper);
//! * [`component_cpu`] — the improved Galois-2.1.5 approach: "a fast
//!   union-find data structure that maintains groups of nodes, keeps the
//!   graph unmodified, and employs a bulk-synchronous executor";
//! * [`gpu`] — the paper's four-kernel virtual-GPU pipeline over
//!   components (§5), which also keeps the original adjacency lists.
//!
//! [`kruskal`] is the verification oracle: all implementations must match
//! its forest weight (MST weight is unique even under ties).

pub mod component_cpu;
pub mod edge_merge;
pub mod gpu;
pub mod kruskal;

/// Result of an MST computation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MstResult {
    /// Total weight of the spanning forest.
    pub weight: u64,
    /// Number of edges in the forest (`nodes − components`).
    pub edges: usize,
    /// Boruvka rounds executed (0 for Kruskal).
    pub rounds: usize,
}

#[cfg(test)]
pub(crate) mod testgraphs {
    use morph_graph::{Csr, CsrBuilder};
    use rand::prelude::*;

    /// Connected random graph: a scrambled spanning path plus extra edges.
    pub fn random_connected(n: usize, extra: usize, seed: u64) -> Csr {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut rng);
        let mut b = CsrBuilder::new(n);
        for w in order.windows(2) {
            b.add_undirected(w[0], w[1], rng.gen_range(1..1000));
        }
        for _ in 0..extra {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                b.add_undirected(u, v, rng.gen_range(1..1000));
            }
        }
        b.build()
    }

    /// Disconnected graph: two random components.
    pub fn two_components(seed: u64) -> Csr {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = CsrBuilder::new(40);
        for half in 0..2u32 {
            let base = half * 20;
            for i in 0..19 {
                b.add_undirected(base + i, base + i + 1, rng.gen_range(1..100));
            }
            for _ in 0..15 {
                let u = base + rng.gen_range(0..20);
                let v = base + rng.gen_range(0..20);
                if u != v {
                    b.add_undirected(u, v, rng.gen_range(1..100));
                }
            }
        }
        b.build()
    }

    /// Graph with heavy weight ties (stresses cycle breaking).
    pub fn tied_weights(n: usize, seed: u64) -> Csr {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = CsrBuilder::new(n);
        for i in 0..n as u32 - 1 {
            b.add_undirected(i, i + 1, 5);
        }
        for _ in 0..2 * n {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                b.add_undirected(u, v, *[5u32, 5, 7].choose(&mut rng).unwrap());
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use morph_graph::CsrBuilder;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// All four implementations agree on the forest weight and size
        /// for arbitrary undirected graphs (including disconnected ones,
        /// duplicate edges, and heavy ties).
        #[test]
        fn all_engines_agree(
            n in 2usize..40,
            edges in prop::collection::vec((0u32..40, 0u32..40, 1u32..8), 0..120)
        ) {
            let mut b = CsrBuilder::new(n);
            for &(u, v, w) in &edges {
                let (u, v) = (u % n as u32, v % n as u32);
                if u != v {
                    b.add_undirected(u, v, w);
                }
            }
            let g = b.build();
            let oracle = kruskal::mst(&g);
            let a = edge_merge::mst(&g, 2);
            let c = component_cpu::mst(&g, 2);
            let d = gpu::mst(&g, 2);
            prop_assert_eq!(a.weight, oracle.weight);
            prop_assert_eq!(c.weight, oracle.weight);
            prop_assert_eq!(d.weight, oracle.weight);
            prop_assert_eq!(a.edges, oracle.edges);
            prop_assert_eq!(c.edges, oracle.edges);
            prop_assert_eq!(d.edges, oracle.edges);
        }
    }
}
