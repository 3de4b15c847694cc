//! Fast link-occupancy fabric.
//!
//! The full-system simulator moves far too much traffic for flit-level
//! simulation (a 9216³ GEMM streams hundreds of gigabytes). [`MeshFabric`]
//! prices each transfer analytically while preserving the property that
//! matters for Fig. 7: **links are shared**. Every directed link is a
//! [`BandwidthResource`]. Bulk data serialises on the two links where its
//! flow is undivided — the injection link out of the source router and the
//! ejection link into the destination router — with pipelined hop latency
//! between them, so flows that meet on an endpoint link queue behind one
//! another and per-node bandwidth degrades exactly when the paper says the
//! NoC saturates. Control messages (request headers, acks) ride their own
//! virtual channel: they pay hop latency only and charge no link.

use maco_sim::{BandwidthResource, SimDuration, SimTime};

use crate::routing::{xy_last_link, xy_next_hop};
use crate::topology::{MeshShape, NodeId, Port};

/// Fabric configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricConfig {
    /// Mesh shape.
    pub shape: MeshShape,
    /// Bandwidth per directed link in GB/s. MACO: 256-bit @ 2 GHz = 64 GB/s
    /// per direction (128 GB/s bidirectional, Section III.A).
    pub link_gbps: f64,
    /// Per-hop router + link latency.
    pub hop_latency: SimDuration,
}

impl Default for FabricConfig {
    /// The paper's 4×4 mesh: 64 GB/s per direction, 3 NoC cycles
    /// (1.5 ns @ 2 GHz) per hop.
    fn default() -> Self {
        FabricConfig {
            shape: MeshShape::new(4, 4),
            link_gbps: 64.0,
            hop_latency: SimDuration::from_ps(1_500),
        }
    }
}

/// A resolved X-Y route: its hop count and the link-table slots of the
/// injection and ejection links bulk data serialises on. Resolve it once
/// with [`MeshFabric::route`] and send over it many times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    inject: u32,
    eject: u32,
    hops: u32,
}

/// The analytic mesh fabric.
///
/// # Example
///
/// ```
/// use maco_noc::fabric::{MeshFabric, FabricConfig};
/// use maco_noc::topology::NodeId;
/// use maco_sim::SimTime;
///
/// let mut fabric = MeshFabric::new(FabricConfig::default());
/// let (src, dst) = (NodeId::new(0, 0), NodeId::new(3, 3));
/// let first = fabric.send_bulk(src, dst, 4096, SimTime::ZERO);
/// // A second flow out of the same router queues on its injection link.
/// let second = fabric.send_bulk(src, dst, 4096, SimTime::ZERO);
/// assert!(first > SimTime::ZERO && second > first);
/// // A request header only pays hop latency.
/// let ack = fabric.send_control(dst, src, SimTime::ZERO);
/// assert_eq!(ack, SimTime::ZERO + fabric.config().hop_latency * 7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MeshFabric {
    config: FabricConfig,
    /// Directed links in a flat table indexed by `(router, output port)`
    /// — `None` at mesh edges. The simulation hot loop resolves several
    /// links per tile step, so lookup is an index computation instead of
    /// a hash.
    links: Vec<Option<BandwidthResource>>,
    sends: u64,
    bytes: u64,
    hop_flits: u64,
}

/// Slot of an output port in a router's link-table stripe.
const fn port_slot(port: Port) -> usize {
    match port {
        Port::North => 0,
        Port::South => 1,
        Port::East => 2,
        Port::West => 3,
        Port::Local => panic!("local port has no inter-router link"),
    }
}

/// Output ports per router with inter-router links.
const PORTS: usize = 4;

impl MeshFabric {
    /// Creates the fabric with every directed link idle.
    pub fn new(config: FabricConfig) -> Self {
        let mut links = vec![None; config.shape.node_count() * PORTS];
        for node in config.shape.nodes() {
            for port in [Port::North, Port::South, Port::East, Port::West] {
                if node.neighbor(port, config.shape).is_some() {
                    links[config.shape.index_of(node) * PORTS + port_slot(port)] =
                        Some(BandwidthResource::from_gbps(config.link_gbps));
                }
            }
        }
        MeshFabric {
            config,
            links,
            sends: 0,
            bytes: 0,
            hop_flits: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Resolves the X-Y route from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints differ and either is outside the mesh.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Route {
        if src == dst {
            return Route {
                inject: 0,
                eject: 0,
                hops: 0,
            };
        }
        let shape = self.config.shape;
        assert!(
            shape.contains(src) && shape.contains(dst),
            "route endpoint outside mesh"
        );
        // Both endpoints are checked above, and every link of an X-Y path
        // stays inside their bounding box, so no per-node check is needed.
        let slot = |node: NodeId, port: Port| {
            ((node.y as usize * shape.cols as usize + node.x as usize) * PORTS + port_slot(port))
                as u32
        };
        let (prev, last) = xy_last_link(src, dst);
        Route {
            inject: slot(src, xy_next_hop(src, dst)),
            eject: slot(prev, last),
            hops: src.manhattan(dst),
        }
    }

    /// The serialisation time of `bytes` on a link (every link has the
    /// configured `link_gbps`), rounded exactly as the link charges it.
    pub fn link_service_time(&self, bytes: u64) -> SimDuration {
        BandwidthResource::from_gbps(self.config.link_gbps).service_time(bytes)
    }

    /// Sends a control message (request header, ack) on the dedicated
    /// control virtual channel: hop latency only — 32 B on a 64 GB/s link
    /// serialises in half a nanosecond, and the VC guarantees it never
    /// waits behind bulk data (the head-of-line blocking virtual channels
    /// exist to prevent).
    pub fn send_control(&mut self, src: NodeId, dst: NodeId, now: SimTime) -> SimTime {
        self.control(src.manhattan(dst), now)
    }

    /// [`MeshFabric::send_control`] over a resolved route (control and
    /// bulk traffic between two routers cross the same number of hops).
    pub fn send_control_on(&mut self, route: Route, now: SimTime) -> SimTime {
        self.control(route.hops, now)
    }

    fn control(&mut self, hops: u32, now: SimTime) -> SimTime {
        self.sends += 1;
        now + self.config.hop_latency * (u64::from(hops) + 1)
    }

    /// Sends a bulk data transfer on the data virtual channels; returns the
    /// arrival time of the tail at `dst`. Line-level interleaving makes
    /// intermediate links fair-share below saturation, so serialisation is
    /// charged on the two endpoint links (source injection, destination
    /// ejection) where the flow is undivided; the middle of the path
    /// contributes pipeline hop latency.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints differ and either is outside the mesh.
    pub fn send_bulk(&mut self, src: NodeId, dst: NodeId, bytes: u64, now: SimTime) -> SimTime {
        let route = self.route(src, dst);
        let service = self.link_service_time(bytes);
        self.send_bulk_on(route, bytes, service, now)
    }

    /// [`MeshFabric::send_bulk`] over a resolved route, each endpoint link
    /// busy for `service` — the [`MeshFabric::link_service_time`] of
    /// `bytes`, passed in so a caller sending one size many times computes
    /// it once.
    pub fn send_bulk_on(
        &mut self,
        route: Route,
        bytes: u64,
        service: SimDuration,
        now: SimTime,
    ) -> SimTime {
        self.sends += 1;
        self.bytes += bytes;
        self.hop_flits += u64::from(route.hops) * bytes;
        let hop_latency = self.config.hop_latency;
        if route.hops == 0 {
            // Local turnaround through the router's local port.
            return now + hop_latency;
        }
        let (_, inj_end) = self
            .link_mut(route.inject)
            .acquire_train(now, service, bytes);
        if route.hops == 1 {
            return inj_end + hop_latency;
        }
        let eject_start = inj_end.max(now + hop_latency * u64::from(route.hops - 1));
        let (_, ej_end) = self
            .link_mut(route.eject)
            .acquire_train(eject_start, service, bytes);
        ej_end + hop_latency
    }

    /// The link in table slot `slot`.
    fn link_mut(&mut self, slot: u32) -> &mut BandwidthResource {
        self.links[slot as usize]
            .as_mut()
            .expect("routes only name existing links")
    }

    /// Messages sent.
    pub fn sends(&self) -> u64 {
        self.sends
    }

    /// Payload bytes carried.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Hop·flit traffic: Σ over payload sends of `manhattan(src, dst) ×
    /// bytes` — the link-crossings metric tile placement minimises. Local
    /// (`src == dst`) turnarounds cross no link and count zero.
    pub fn hop_flits(&self) -> u64 {
        self.hop_flits
    }

    /// The highest utilisation among all links over `elapsed` — the
    /// congestion indicator reported by the Fig. 7 harness.
    pub fn max_link_utilization(&self, elapsed: SimDuration) -> f64 {
        self.links
            .iter()
            .flatten()
            .map(|l| l.utilization(elapsed))
            .fold(0.0, f64::max)
    }

    /// Mean utilisation across links over `elapsed`.
    pub fn mean_link_utilization(&self, elapsed: SimDuration) -> f64 {
        let count = self.links.iter().flatten().count();
        if count == 0 {
            return 0.0;
        }
        self.links
            .iter()
            .flatten()
            .map(|l| l.utilization(elapsed))
            .sum::<f64>()
            / count as f64
    }

    /// Resets all link occupancy (between experiment repetitions).
    pub fn reset(&mut self) {
        for l in self.links.iter_mut().flatten() {
            l.reset();
        }
        self.sends = 0;
        self.bytes = 0;
        self.hop_flits = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(x: u8, y: u8) -> NodeId {
        NodeId::new(x, y)
    }

    fn fabric() -> MeshFabric {
        MeshFabric::new(FabricConfig {
            shape: MeshShape::new(4, 4),
            link_gbps: 64.0,
            hop_latency: SimDuration::from_ns(1),
        })
    }

    #[test]
    fn uncongested_cost_is_hops_plus_serialisation() {
        let mut f = fabric();
        // 1 hop, 64 bytes @ 64 GB/s = 1 ns serialisation + 1 ns hop… tail
        // needs serialisation end + hop latency.
        let arrival = f.send_bulk(n(0, 0), n(1, 0), 64, SimTime::ZERO);
        assert_eq!(arrival, SimTime::from_ns(2));
        // 6 hops: injection 100–101 ns, the head reaches the ejection
        // link after 5 pipelined hops, ejection 105–106 ns, one last hop.
        let arrival = f.send_bulk(n(0, 0), n(3, 3), 64, SimTime::from_ns(100));
        assert_eq!(arrival, SimTime::from_ns(107));
    }

    #[test]
    fn local_send_costs_one_hop() {
        let mut f = fabric();
        assert_eq!(
            f.send_bulk(n(2, 2), n(2, 2), 4096, SimTime::ZERO),
            SimTime::from_ns(1)
        );
    }

    #[test]
    fn shared_link_serialises_flows() {
        let mut f = fabric();
        // Two large messages over the same single link.
        let a = f.send_bulk(n(0, 0), n(1, 0), 64_000, SimTime::ZERO);
        let b = f.send_bulk(n(0, 0), n(1, 0), 64_000, SimTime::ZERO);
        // First: 1000 ns serialisation + 1 hop. Second queues behind it.
        assert_eq!(a, SimTime::from_ns(1_001));
        assert_eq!(b, SimTime::from_ns(2_001));
    }

    #[test]
    fn disjoint_paths_do_not_interact() {
        let mut f = fabric();
        let a = f.send_bulk(n(0, 0), n(1, 0), 64_000, SimTime::ZERO);
        let b = f.send_bulk(n(0, 3), n(1, 3), 64_000, SimTime::ZERO);
        assert_eq!(a, b, "bottom-row traffic does not slow top-row traffic");
    }

    #[test]
    fn bulk_data_queues_on_endpoint_links_only() {
        let mut f = fabric();
        // (0,0)→(3,0) injects on (0,0)→(1,0), crosses (1,0)→(2,0) and
        // ejects on (2,0)→(3,0): 1000 ns on each endpoint link plus a hop.
        let a = f.send_bulk(n(0, 0), n(3, 0), 64_000, SimTime::ZERO);
        assert_eq!(a, SimTime::from_ns(2_001));
        // (1,0)→(3,1) injects on a's middle link, which a left free.
        let b = f.send_bulk(n(1, 0), n(3, 1), 64_000, SimTime::ZERO);
        assert_eq!(b, a);
        // (2,0)→(3,0) injects on a's ejection link and queues behind it.
        let c = f.send_bulk(n(2, 0), n(3, 0), 64_000, SimTime::ZERO);
        assert_eq!(c, SimTime::from_ns(3_001));
    }

    #[test]
    fn opposite_directions_are_independent() {
        let mut f = fabric();
        let a = f.send_bulk(n(0, 0), n(1, 0), 64_000, SimTime::ZERO);
        let b = f.send_bulk(n(1, 0), n(0, 0), 64_000, SimTime::ZERO);
        assert_eq!(a, b, "full-duplex links");
    }

    #[test]
    fn utilization_reflects_traffic() {
        let mut f = fabric();
        f.send_bulk(n(0, 0), n(1, 0), 64_000, SimTime::ZERO);
        let util = f.max_link_utilization(SimDuration::from_us(2));
        assert!((util - 0.5).abs() < 0.01, "1000 ns busy / 2000 ns window");
        assert!(f.mean_link_utilization(SimDuration::from_us(2)) < util);
    }

    #[test]
    fn reset_clears_occupancy() {
        let mut f = fabric();
        f.send_bulk(n(0, 0), n(1, 0), 1_000_000, SimTime::ZERO);
        f.reset();
        let a = f.send_bulk(n(0, 0), n(1, 0), 64, SimTime::ZERO);
        assert_eq!(a, SimTime::from_ns(2));
        assert_eq!(f.bytes(), 64);
    }

    #[test]
    fn hop_flits_weight_bytes_by_distance() {
        let mut f = fabric();
        f.send_bulk(n(0, 0), n(1, 0), 64, SimTime::ZERO); // 1 hop
        f.send_bulk(n(0, 0), n(3, 3), 100, SimTime::ZERO); // 6 hops
        f.send_bulk(n(2, 2), n(2, 2), 999, SimTime::ZERO); // local: 0 hops
        f.send_control(n(0, 0), n(3, 0), SimTime::ZERO); // no payload
        assert_eq!(f.hop_flits(), 64 + 6 * 100);
        f.reset();
        assert_eq!(f.hop_flits(), 0);
    }

    #[test]
    #[should_panic(expected = "outside mesh")]
    fn routes_leaving_the_mesh_are_refused() {
        // The last link into (4,0) would start inside the mesh at (3,0).
        fabric().route(n(0, 0), n(4, 0));
    }

    #[test]
    fn default_config_matches_paper() {
        let c = FabricConfig::default();
        assert_eq!(c.shape.node_count(), 16);
        assert!((c.link_gbps - 64.0).abs() < 1e-9);
    }
}
