//! Mesh network-on-chip latency model with queueing-based congestion.
//!
//! In a tiled many-core, a cache miss travels the on-chip mesh to a memory
//! controller and back, so the effective DRAM latency a core sees depends on
//! (a) its Manhattan distance to the nearest controller and (b) how
//! congested the links on the way are — and congestion is created by *other
//! cores'* miss traffic, which in turn depends on the VF levels a controller
//! assigns. This crate provides that coupling for the simulator:
//!
//! * [`NocConfig`] — mesh geometry (reusing the thermal crate's
//!   [`Floorplan`]), memory-controller placement, per-hop latency, link
//!   bandwidth and the DRAM base latency;
//! * [`NocModel`] — precomputed XY routes per core and an M/M/1-style
//!   per-link waiting model: given each core's miss *traffic* (bytes/s),
//!   it returns each core's round-trip memory latency in nanoseconds.
//!
//! The model is the epoch-granularity analogue of analytical NoC
//! performance models (queueing over deterministic XY routes); it is not a
//! flit-level simulator, and doesn't need to be — the controller only ever
//! sees its effect through per-epoch IPS.
//!
//! # Example
//!
//! ```
//! use odrl_noc::{NocConfig, NocModel};
//! use odrl_thermal::Floorplan;
//!
//! let model = NocModel::new(NocConfig::for_floorplan(Floorplan::new(8, 8)?))?;
//! // Uniform light traffic: corner cores (next to a controller) see lower
//! // latency than the die center.
//! let latencies = model.latencies(&vec![1e9; 64]);
//! assert!(latencies[0] < latencies[27]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use odrl_thermal::Floorplan;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Errors produced when constructing a NoC model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NocError {
    /// A parameter was non-finite or out of range.
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A memory-controller tile index was outside the mesh.
    ControllerOutOfRange {
        /// The offending tile index.
        tile: usize,
        /// Number of tiles in the mesh.
        tiles: usize,
    },
    /// No memory controllers were specified.
    NoControllers,
}

impl fmt::Display for NocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidParameter { name, value } => {
                write!(f, "parameter `{name}` has invalid value {value}")
            }
            Self::ControllerOutOfRange { tile, tiles } => {
                write!(
                    f,
                    "memory controller at tile {tile} outside mesh of {tiles} tiles"
                )
            }
            Self::NoControllers => write!(f, "at least one memory controller is required"),
        }
    }
}

impl Error for NocError {}

/// NoC geometry and timing parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NocConfig {
    /// The core mesh.
    pub floorplan: Floorplan,
    /// Tiles hosting memory controllers (requests route to the nearest).
    pub controllers: Vec<usize>,
    /// Router+link traversal latency per hop, in nanoseconds.
    pub hop_ns: f64,
    /// Usable bandwidth per directed link, in bytes per second.
    pub link_bandwidth: f64,
    /// DRAM access latency once at the controller, in nanoseconds.
    pub dram_ns: f64,
    /// Bytes moved per miss in each direction (request + response average).
    pub bytes_per_miss: f64,
}

impl NocConfig {
    /// The default configuration for a mesh: memory controllers at the four
    /// corners, 2 ns hops, 16 GB/s links, 60 ns DRAM, 72-byte messages
    /// (64-byte line + header).
    pub fn for_floorplan(floorplan: Floorplan) -> Self {
        let cols = floorplan.cols();
        let rows = floorplan.rows();
        let mut controllers = vec![floorplan.index(0, 0)];
        if cols > 1 {
            controllers.push(floorplan.index(cols - 1, 0));
        }
        if rows > 1 {
            controllers.push(floorplan.index(0, rows - 1));
        }
        if cols > 1 && rows > 1 {
            controllers.push(floorplan.index(cols - 1, rows - 1));
        }
        Self {
            floorplan,
            controllers,
            hop_ns: 2.0,
            link_bandwidth: 16e9,
            dram_ns: 60.0,
            bytes_per_miss: 72.0,
        }
    }

    fn validate(&self) -> Result<(), NocError> {
        if self.controllers.is_empty() {
            return Err(NocError::NoControllers);
        }
        let tiles = self.floorplan.tiles();
        for &c in &self.controllers {
            if c >= tiles {
                return Err(NocError::ControllerOutOfRange { tile: c, tiles });
            }
        }
        for (name, v) in [
            ("hop_ns", self.hop_ns),
            ("link_bandwidth", self.link_bandwidth),
            ("dram_ns", self.dram_ns),
            ("bytes_per_miss", self.bytes_per_miss),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(NocError::InvalidParameter { name, value: v });
            }
        }
        Ok(())
    }
}

/// A directed mesh link, identified by its source tile and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Dir {
    East,
    West,
    North,
    South,
}

/// The NoC model: precomputed routes plus per-epoch congestion evaluation.
#[derive(Debug, Clone)]
pub struct NocModel {
    config: NocConfig,
    /// For each core: the directed-link indices of its round trip (XY route
    /// to its nearest controller; the return path uses the same links'
    /// opposite directions, which by symmetry carry the same flow, so we
    /// count each link once and double the latency).
    routes: Vec<Vec<usize>>,
    /// Number of directed links (tiles × 4 directions, flattened).
    links: usize,
}

impl NocModel {
    /// Builds the model, precomputing every core's XY route to its nearest
    /// memory controller.
    ///
    /// # Errors
    ///
    /// Returns a [`NocError`] if the configuration is invalid.
    pub fn new(config: NocConfig) -> Result<Self, NocError> {
        config.validate()?;
        let fp = config.floorplan;
        let links = fp.tiles() * 4;
        let routes = (0..fp.tiles())
            .map(|core| {
                let mc = *config
                    .controllers
                    .iter()
                    .min_by_key(|&&c| fp.manhattan(core, c))
                    .expect("validated non-empty");
                Self::xy_route(fp, core, mc)
            })
            .collect();
        Ok(Self {
            config,
            routes,
            links,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// Hop count of core `i`'s one-way route to its controller.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn hops(&self, i: usize) -> usize {
        self.routes[i].len()
    }

    fn link_id(tile: usize, dir: Dir) -> usize {
        tile * 4
            + match dir {
                Dir::East => 0,
                Dir::West => 1,
                Dir::North => 2,
                Dir::South => 3,
            }
    }

    /// Dimension-ordered (X then Y) route from `from` to `to`.
    fn xy_route(fp: Floorplan, from: usize, to: usize) -> Vec<usize> {
        let (mut x, mut y) = fp.position(from);
        let (tx, ty) = fp.position(to);
        let mut links = Vec::with_capacity(fp.manhattan(from, to));
        while x != tx {
            let dir = if tx > x { Dir::East } else { Dir::West };
            links.push(Self::link_id(fp.index(x, y), dir));
            x = if tx > x { x + 1 } else { x - 1 };
        }
        while y != ty {
            let dir = if ty > y { Dir::South } else { Dir::North };
            links.push(Self::link_id(fp.index(x, y), dir));
            y = if ty > y { y + 1 } else { y - 1 };
        }
        links
    }

    /// Computes each core's round-trip memory latency (ns) given each
    /// core's miss traffic in **misses per second**.
    ///
    /// Per-link waiting uses the M/M/1 factor `ρ/(1−ρ)` on top of the hop
    /// latency, with utilization clamped at 0.95 so overload saturates
    /// instead of diverging.
    ///
    /// # Panics
    ///
    /// Panics if `miss_rates.len()` differs from the mesh tile count.
    pub fn latencies(&self, miss_rates: &[f64]) -> Vec<f64> {
        let mut scratch = NocScratch::default();
        let mut out = Vec::new();
        self.latencies_into(miss_rates, &mut scratch, &mut out);
        out
    }

    /// Allocation-free [`NocModel::latencies`]: writes each core's
    /// round-trip latency into `out`, reusing the caller's scratch buffers.
    /// Buffers are sized on first use and reused verbatim afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `miss_rates.len()` differs from the mesh tile count.
    pub fn latencies_into(&self, miss_rates: &[f64], scratch: &mut NocScratch, out: &mut Vec<f64>) {
        assert_eq!(
            miss_rates.len(),
            self.config.floorplan.tiles(),
            "one miss rate per tile required"
        );
        // Accumulate bytes/s per directed link (request path; the response
        // path is the mirror image with identical flow).
        let flow = &mut scratch.flow;
        flow.clear();
        flow.resize(self.links, 0.0);
        for (i, &rate) in miss_rates.iter().enumerate() {
            let bytes = rate.max(0.0) * self.config.bytes_per_miss;
            for &l in &self.routes[i] {
                flow[l] += bytes;
            }
        }
        let waits = &mut scratch.waits;
        waits.clear();
        waits.extend(flow.iter().map(|&f| {
            let rho = (f / self.config.link_bandwidth).clamp(0.0, 0.95);
            self.config.hop_ns * rho / (1.0 - rho)
        }));
        out.clear();
        out.extend(self.routes.iter().map(|route| {
            let path: f64 = route.iter().map(|&l| self.config.hop_ns + waits[l]).sum();
            self.config.dram_ns + 2.0 * path
        }));
    }
}

/// Reusable buffers for [`NocModel::latencies_into`] — per-link flows and
/// waiting times, kept across epochs so the hot loop never reallocates.
#[derive(Debug, Clone, Default)]
pub struct NocScratch {
    flow: Vec<f64>,
    waits: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(cols: usize, rows: usize) -> NocModel {
        NocModel::new(NocConfig::for_floorplan(
            Floorplan::new(cols, rows).unwrap(),
        ))
        .unwrap()
    }

    #[test]
    fn corner_controllers_give_corners_zero_hops() {
        let m = model(8, 8);
        assert_eq!(m.hops(0), 0);
        assert_eq!(m.hops(7), 0);
        assert_eq!(m.hops(56), 0);
        assert_eq!(m.hops(63), 0);
        // Center tiles are the farthest.
        assert!(m.hops(27) >= 3);
    }

    #[test]
    fn unloaded_latency_is_distance_plus_dram() {
        let m = model(4, 4);
        let lat = m.latencies(&[0.0; 16]);
        for (i, &l) in lat.iter().enumerate() {
            let expect = 60.0 + 2.0 * m.hops(i) as f64 * 2.0;
            assert!((l - expect).abs() < 1e-9, "core {i}: {l} vs {expect}");
        }
    }

    #[test]
    fn congestion_raises_latency() {
        let m = model(8, 8);
        let light = m.latencies(&vec![1e6; 64]);
        let heavy = m.latencies(&vec![2e8; 64]);
        for i in 0..64 {
            assert!(heavy[i] >= light[i]);
        }
        // The far-from-controller cores suffer most (longer shared paths).
        let center = 27;
        assert!(heavy[center] > light[center] + 1.0);
    }

    #[test]
    fn overload_saturates_instead_of_diverging() {
        let m = model(4, 4);
        let lat = m.latencies(&[1e12; 16]); // absurd traffic
        for l in lat {
            assert!(l.is_finite());
            assert!(l < 60.0 + 2.0 * 6.0 * (2.0 + 2.0 * 19.0)); // rho<=0.95
        }
    }

    #[test]
    fn one_cores_traffic_slows_a_sharing_neighbor() {
        let m = model(8, 8);
        // Core at (3,0) routes west along row 0 to controller (0,0); core at
        // (2,0) shares the tail of that path.
        let fp = Floorplan::new(8, 8).unwrap();
        let hog = fp.index(3, 0);
        let victim = fp.index(2, 0);
        let quiet = vec![1e5; 64];
        let mut loud = quiet.clone();
        loud[hog] = 2e8;
        let before = m.latencies(&quiet)[victim];
        let after = m.latencies(&loud)[victim];
        assert!(after > before, "victim latency {before} -> {after}");
    }

    #[test]
    fn latencies_into_matches_allocating_path() {
        let m = model(8, 8);
        let mut scratch = NocScratch::default();
        let mut out = Vec::new();
        for scale in [0.0, 1e5, 1e8, 1e12] {
            let rates = vec![scale; 64];
            m.latencies_into(&rates, &mut scratch, &mut out);
            assert_eq!(out, m.latencies(&rates), "scale {scale}");
        }
        // Buffers are reused across calls, never regrown.
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn single_tile_mesh_works() {
        let m = model(1, 1);
        assert_eq!(m.hops(0), 0);
        assert_eq!(m.latencies(&[1e9])[0], 60.0);
    }

    #[test]
    fn rejects_bad_configs() {
        let fp = Floorplan::new(4, 4).unwrap();
        let mut c = NocConfig::for_floorplan(fp);
        c.controllers.clear();
        assert_eq!(NocModel::new(c).unwrap_err(), NocError::NoControllers);

        let mut c = NocConfig::for_floorplan(fp);
        c.controllers.push(99);
        assert!(matches!(
            NocModel::new(c),
            Err(NocError::ControllerOutOfRange { .. })
        ));

        let mut c = NocConfig::for_floorplan(fp);
        c.hop_ns = -1.0;
        assert!(matches!(
            NocModel::new(c),
            Err(NocError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn routes_are_minimal() {
        let m = model(6, 5);
        let fp = Floorplan::new(6, 5).unwrap();
        for i in 0..30 {
            let min_dist = m
                .config()
                .controllers
                .iter()
                .map(|&c| fp.manhattan(i, c))
                .min()
                .unwrap();
            assert_eq!(m.hops(i), min_dist, "core {i}");
        }
    }
}
