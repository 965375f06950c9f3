//! Server specifications for the resource pool.

use serde::{Deserialize, Serialize};

/// A server in the pool: `Z` CPUs of a given per-CPU capacity.
///
/// The paper's case study uses homogeneous 16-way servers with unit
/// per-CPU capacity, so a server's capacity limit `L` is simply 16.
///
/// # Example
///
/// ```
/// use ropus_placement::server::ServerSpec;
///
/// let server = ServerSpec::sixteen_way();
/// assert_eq!(server.cpus(), 16);
/// assert_eq!(server.capacity(), 16.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerSpec {
    cpus: u32,
    cpu_capacity: f64,
    #[serde(default = "default_memory_gb")]
    memory_gb: f64,
}

/// Serde default for deserialized specs that predate the memory
/// attribute: the 16-way server's 64 GB.
fn default_memory_gb() -> f64 {
    64.0
}

impl ServerSpec {
    /// Creates a server spec.
    ///
    /// # Panics
    ///
    /// Panics if `cpus == 0` or `cpu_capacity <= 0`.
    pub fn new(cpus: u32, cpu_capacity: f64) -> Self {
        assert!(cpus > 0, "server must have at least one CPU");
        assert!(
            cpu_capacity.is_finite() && cpu_capacity > 0.0,
            "per-CPU capacity must be positive"
        );
        ServerSpec {
            cpus,
            cpu_capacity,
            memory_gb: 4.0 * cpus as f64,
        }
    }

    /// Replaces the default memory size (4 GB per CPU).
    ///
    /// Memory is the second capacity attribute (§II lists CPU, memory and
    /// I/O; §IX defers their statistical sharing to future work). It is
    /// treated as a *guaranteed* attribute: the aggregate memory footprint
    /// on a server must never exceed this limit.
    ///
    /// # Panics
    ///
    /// Panics if `memory_gb` is not positive and finite.
    pub fn with_memory_gb(mut self, memory_gb: f64) -> Self {
        assert!(
            memory_gb.is_finite() && memory_gb > 0.0,
            "memory capacity must be positive"
        );
        self.memory_gb = memory_gb;
        self
    }

    /// The paper's 16-way server with unit per-CPU capacity (and the
    /// default 64 GB of memory).
    pub fn sixteen_way() -> Self {
        ServerSpec {
            cpus: 16,
            cpu_capacity: 1.0,
            memory_gb: 64.0,
        }
    }

    /// Memory capacity in GB.
    pub fn memory_gb(&self) -> f64 {
        self.memory_gb
    }

    /// Number of CPUs (the paper's `Z`).
    pub fn cpus(&self) -> u32 {
        self.cpus
    }

    /// Capacity of one CPU in allocation units.
    pub fn cpu_capacity(&self) -> f64 {
        self.cpu_capacity
    }

    /// Total capacity limit `L = Z × per-CPU capacity`.
    pub fn capacity(&self) -> f64 {
        self.cpus as f64 * self.cpu_capacity
    }
}

/// A homogeneous pool: `count` servers of the same spec.
///
/// The case study consolidates onto identical 16-way servers; mixed pools
/// are given as an explicit server list to
/// [`consolidate_hetero`](crate::hetero::consolidate_hetero), which runs
/// the same engine and search with one server class per distinct spec.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pool {
    /// The common server specification.
    pub server: ServerSpec,
    /// Number of servers available.
    pub count: usize,
}

impl Pool {
    /// Creates a pool of `count` identical servers.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn homogeneous(server: ServerSpec, count: usize) -> Self {
        assert!(count > 0, "pool must contain at least one server");
        Pool { server, count }
    }

    /// Aggregate capacity of the whole pool.
    pub fn total_capacity(&self) -> f64 {
        self.server.capacity() * self.count as f64
    }

    /// The pool with one server removed — the §VI-C failure scenario.
    ///
    /// Returns `None` when only one server remains.
    pub fn without_one(&self) -> Option<Pool> {
        if self.count <= 1 {
            return None;
        }
        Some(Pool {
            server: self.server,
            count: self.count - 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_way_matches_paper() {
        let s = ServerSpec::sixteen_way();
        assert_eq!(s.cpus(), 16);
        assert_eq!(s.cpu_capacity(), 1.0);
        assert_eq!(s.capacity(), 16.0);
        assert_eq!(s.memory_gb(), 64.0);
    }

    #[test]
    fn memory_defaults_and_overrides() {
        let s = ServerSpec::new(4, 1.0);
        assert_eq!(s.memory_gb(), 16.0);
        let s = s.with_memory_gb(128.0);
        assert_eq!(s.memory_gb(), 128.0);
    }

    #[test]
    #[should_panic(expected = "memory capacity must be positive")]
    fn rejects_non_positive_memory() {
        ServerSpec::sixteen_way().with_memory_gb(0.0);
    }

    #[test]
    fn capacity_scales_with_cpu_capacity() {
        let s = ServerSpec::new(4, 2.5);
        assert_eq!(s.capacity(), 10.0);
    }

    #[test]
    #[should_panic(expected = "at least one CPU")]
    fn rejects_zero_cpus() {
        ServerSpec::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_capacity() {
        ServerSpec::new(4, 0.0);
    }

    #[test]
    fn pool_arithmetic() {
        let pool = Pool::homogeneous(ServerSpec::sixteen_way(), 8);
        assert_eq!(pool.total_capacity(), 128.0);
        let smaller = pool.without_one().unwrap();
        assert_eq!(smaller.count, 7);
        let one = Pool::homogeneous(ServerSpec::sixteen_way(), 1);
        assert!(one.without_one().is_none());
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn pool_rejects_zero_count() {
        Pool::homogeneous(ServerSpec::sixteen_way(), 0);
    }
}
