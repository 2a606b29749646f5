//! The serving stack under test, in its production configuration, run
//! in this process on loopback: two `PolicyServer` backends built the
//! way the `policy_backend` binary builds them by default (2 shards,
//! default `ServiceConfig`, `max_batch` 1024, no background prewarm)
//! behind a `ClusterFront` with `FrontConfig::default()` and a
//! `ClusterHealer` with `HealerConfig::default()`.

use econcast_cluster::{
    ClusterConfig, ClusterFront, ClusterHealer, ClusterRouter, FrontConfig, FrontHandle,
    HealerConfig, SlotSpec,
};
use econcast_service::{
    PolicyClient, PolicyRequest, PolicyServer, RouterConfig, ServerConfig, ServerHandle,
    ServiceConfig, ServiceStats, ShardRouter,
};
use std::net::SocketAddr;

/// Backend processes (here: servers) behind the front.
pub const BACKENDS: usize = 2;
/// Shards per backend (`policy_backend`'s default).
pub const SHARDS: usize = 2;
/// The largest batch a client announces in its hello.
pub const CLIENT_MAX_BATCH: u16 = 1024;

/// The backend server configuration `policy_backend` uses by default.
pub fn backend_config() -> ServerConfig {
    ServerConfig {
        router: RouterConfig {
            shards: SHARDS,
            service: ServiceConfig::default(),
            ..RouterConfig::default()
        },
        max_batch: 1024,
        background_prewarm: false,
        ..ServerConfig::default()
    }
}

/// Binds and starts one backend server on an ephemeral loopback port.
pub fn spawn_backend() -> std::io::Result<ServerHandle> {
    Ok(PolicyServer::bind("127.0.0.1:0", backend_config())?.spawn())
}

/// A running front + backends + healer.
pub struct Stack {
    healer: Option<ClusterHealer>,
    front: Option<FrontHandle>,
    backends: Vec<ServerHandle>,
}

impl Stack {
    /// Spawns the backends, the front over them, and the healer —
    /// `cluster_front`'s wiring with the backends in-process.
    pub fn spawn() -> std::io::Result<Self> {
        let backends = (0..BACKENDS)
            .map(|_| spawn_backend())
            .collect::<std::io::Result<Vec<_>>>()?;
        let slots: Vec<SlotSpec> = backends
            .iter()
            .map(|b| SlotSpec::Remote(b.addr()))
            .collect();
        let router = ClusterRouter::new(&slots, ClusterConfig::default());
        let front = ClusterFront::bind("127.0.0.1:0", router, FrontConfig::default())?.spawn();
        let healer = ClusterHealer::spawn(
            std::sync::Arc::clone(front.router()),
            HealerConfig::default(),
        );
        Ok(Stack {
            healer: Some(healer),
            front: Some(front),
            backends,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.front().addr()
    }

    pub fn front(&self) -> &FrontHandle {
        self.front.as_ref().expect("front runs until shutdown")
    }

    #[cfg(test)]
    pub fn backends(&self) -> &[ServerHandle] {
        &self.backends
    }

    pub fn connect(&self) -> std::io::Result<PolicyClient> {
        PolicyClient::connect(self.addr(), CLIENT_MAX_BATCH)
    }

    /// Cluster-wide counters through the front's stats fan-in.
    pub fn scrape(&self) -> std::io::Result<ServiceStats> {
        self.connect()?.stats(None)
    }

    /// Ring slot (backend) of each request, as the front routes it.
    pub fn slot_of(&self, req: &PolicyRequest) -> usize {
        let canon = crate::check::canonical(req);
        let router = self
            .front()
            .router()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        usize::from(router.slot_of_key(&canon.key))
    }

    /// Local failovers the front's router absorbed so far.
    pub fn failover_reserves(&self) -> u64 {
        self.front()
            .router()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .cluster_stats()
            .local_fallbacks
    }

    /// Resident exact-tier bytes summed over every backend shard.
    pub fn cache_bytes(&self) -> u64 {
        self.backends
            .iter()
            .map(|b| b.router().cache_residency().1)
            .sum()
    }

    /// Stops the healer, the front and the backends, in that order,
    /// joining every thread they started.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(h) = self.healer.take() {
            h.shutdown();
        }
        if let Some(f) = self.front.take() {
            f.shutdown();
        }
        for b in self.backends.drain(..) {
            b.shutdown();
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The backend shard (within its backend) each request lands on: the
/// backends' `ShardRouter` ring is a pure function of its config.
pub fn shard_router_model() -> ShardRouter {
    ShardRouter::new(backend_config().router)
}

/// Serves `reqs` in chunks of `batch` over one connection, failing on
/// any error — the set-up path (cache fills, grid warm-up).
pub fn fill(client: &mut PolicyClient, reqs: &[PolicyRequest], batch: usize) -> Result<(), String> {
    for chunk in reqs.chunks(batch) {
        let results = client
            .serve_batch(chunk)
            .map_err(|e| format!("set-up batch failed: {e}"))?;
        if let Some(Err(e)) = results.iter().find(|r| r.is_err()) {
            return Err(format!("set-up request rejected: {e:?}"));
        }
    }
    Ok(())
}
