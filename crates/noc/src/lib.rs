//! # maco-noc — the network-on-chip
//!
//! MACO's NoC is "a classical 2D mesh network of size 4×4" whose nodes
//! attach compute nodes, CCMs, memory controllers or I/O controllers. It
//! "supports X-Y routing algorithm and virtual channels flow control" and
//! provides "up to 128 GB/s memory bandwidth for each compute node
//! (bidirectional read/write bandwidth, 256-bit@2GHz)" — Section III.A.
//!
//! [`fabric`] models it as link occupancy ([`MeshFabric`]): every directed
//! link is a bandwidth resource. Bulk data serialises on the injection and
//! ejection links of its X-Y path ([`routing`]) with pipelined hop latency
//! between them, so flows meeting on an endpoint link queue; control
//! messages ride their own virtual channel and pay hop latency only,
//! charging no link. This contention is what produces the multi-node
//! efficiency loss of Fig. 7. There is no flit-level router: credit flow
//! control and per-VC buffers are not modelled.
//!
//! On top of the topology, [`sfc`] provides space-filling-curve orderings
//! ([`TileOrder`]: row-major, Morton, generalized Hilbert) used by
//! `maco-core` to place logical tiles on mesh-adjacent nodes, and the
//! fabric counts hop·flit traffic so placement quality is measurable.
//!
//! # Example
//!
//! ```
//! use maco_noc::topology::{MeshShape, NodeId};
//! use maco_noc::routing::xy_route;
//!
//! let mesh = MeshShape::new(4, 4);
//! let path = xy_route(mesh, NodeId::new(0, 0), NodeId::new(2, 3));
//! assert_eq!(path.len(), 6, "2 X hops + 3 Y hops + both endpoints");
//! ```

pub mod fabric;
pub mod routing;
pub mod sfc;
pub mod topology;

pub use fabric::{FabricConfig, MeshFabric};
pub use routing::{xy_next_hop, xy_route};
pub use sfc::{hilbert_order, morton_order, TileOrder};
pub use topology::{MeshShape, NodeId, Port};
