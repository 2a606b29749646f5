//! The traced run: per-layer metrics from outside the program.
//!
//! The run replays the workload's batch stream through one *lane* per
//! layer boundary. Every lane is built fresh and fed the same set-up
//! requests and the same earlier batches, so each replay of a batch
//! starts from the same cache state as the end-to-end call:
//!
//! | lane | entry point timed | layer |
//! |---|---|---|
//! | client | `PolicyClient::submit_batch` / `collect` on a full stack | `client` |
//! | cluster | `ClusterRouter::serve_batch` on a second full stack | `cluster` |
//! | remote | `RemoteShard::serve_batch` per backend | `remote` |
//! | shard | `ShardRouter::serve_batch` per backend | `shard` |
//! | service | `PolicyService::serve_batch` per backend shard | `service` |
//! | kernel | the service's tier walk, rebuilt from public parts | `statespace`, `oracle`, `cache`, `grid` |
//!
//! Each timed call is recorded as a span in memory (name, start, end,
//! batch id, parent) and the spans are written to
//! `perfbench/out/spans_<workload>_<seed>.json` when the run ends. A
//! layer's self time is its span minus its inner layer's span(s).
//! Counters come from the stats scrape (`PolicyClient::stats`),
//! diffed over the replay. The program's own tracing stays off.

use crate::check::{canonical, Tally};
use crate::serve::{self, Inputs, Kind, Prepared, Source, CLOSED_BATCH, OPEN_BATCH, WARM_SET};
use crate::sim;
use crate::stack::{self, fill, Stack};
use crate::util::{mean, median, quantile, us, Metrics};
use crate::workload::{MixedItem, MixedStream};
use crate::Outcome;
use bytes::BytesMut;
use econcast_cluster::{RemoteConfig, RemoteShard};
use econcast_core::NodeParams;
use econcast_oracle::{certificate_for, certificate_for_homogeneous};
use econcast_proto::service::{ServiceCodec, ServiceMessage, WIRE_VERSION};
use econcast_service::{
    CachedPolicy, FamilyKey, GridConfig, LruCache, PolicyGrid, PolicyKernel, PolicyRequest,
    PolicyService, ServiceConfig, ServiceStats, ShardRouter,
};
use econcast_statespace::{
    CanonicalInstance, HomogeneousP4, InstanceKey, KernelSelect, P4Options, SolverPool,
    SummaryKernel,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    batch: u64,
    parent: Option<usize>,
}

/// In-memory span recorder.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }

    /// Records `[t0, t1]` and returns its index (a parent handle).
    fn record(
        &mut self,
        name: &'static str,
        t0: Instant,
        t1: Instant,
        batch: u64,
        parent: Option<usize>,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(t0),
            end_ns: self.ns(t1),
            batch,
            parent,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"batch\": {}, \"parent\": {parent}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.batch,
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Times `f`, returning its value and the interval.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Instant, Instant) {
    let t0 = Instant::now();
    let v = f();
    (v, t0, Instant::now())
}

fn dur_us(t0: Instant, t1: Instant) -> f64 {
    us(t1 - t0)
}

/// The service's tier walk rebuilt from public parts — one per
/// backend shard, mirroring its cache and grid state.
struct Mirror {
    lru: LruCache,
    grids: HashMap<FamilyKey, PolicyGrid>,
    pool: SolverPool,
    grid_cfg: GridConfig,
}

/// Kernel-lane samples across the run.
#[derive(Default)]
struct KernelStats {
    canonicalize_ns: Vec<f64>,
    get_ns: Vec<f64>,
    insert_ns: Vec<f64>,
    grid_build_ms: Vec<f64>,
    grid_serve_ns: Vec<f64>,
    solve_us: [Vec<f64>; 3],
    iters: Vec<f64>,
    converged: Vec<f64>,
    certificate_us: Vec<f64>,
}

const GRAY: usize = 0;
const FACT: usize = 1;
const HOMO: usize = 2;

impl Mirror {
    fn new() -> Self {
        let cfg = ServiceConfig::default();
        Mirror {
            lru: LruCache::new(cfg.lru_capacity),
            grids: HashMap::new(),
            pool: SolverPool::new(),
            grid_cfg: cfg.grid.expect("the default service has a grid tier"),
        }
    }

    /// Walks `reqs` through the tiers exactly as
    /// `PolicyService::serve_batch` does, timing each part. Returns the
    /// shard's critical path (µs): canonicalization, cache probes, grid
    /// work and inserts, plus the busiest solve worker.
    fn serve(
        &mut self,
        reqs: &[PolicyRequest],
        ks: &mut KernelStats,
        spans: &mut Spans,
        batch: u64,
        parent: Option<usize>,
    ) -> f64 {
        let mut serial_us = 0.0;
        let mut jobs: Vec<(CanonicalInstance, &PolicyRequest)> = Vec::new();
        let mut pending: HashMap<InstanceKey, usize> = HashMap::new();
        for req in reqs {
            let (canon, t0, t1) = timed(|| canonical(req));
            spans.record("statespace.canonicalize", t0, t1, batch, parent);
            ks.canonicalize_ns.push(dur_us(t0, t1) * 1e3);
            serial_us += dur_us(t0, t1);

            let (hit, t0, t1) = timed(|| self.lru.get(&canon.key).is_some());
            spans.record("cache.get", t0, t1, batch, parent);
            ks.get_ns.push(dur_us(t0, t1) * 1e3);
            serial_us += dur_us(t0, t1);
            if hit {
                continue;
            }
            let rho = canon.sorted_budgets[0];
            if canon.homogeneous
                && (self.grid_cfg.rho_min_w..=self.grid_cfg.rho_max_w).contains(&rho)
            {
                let n = canon.sorted_budgets.len();
                let family =
                    FamilyKey::new(n, req.listen_w, req.transmit_w, req.sigma, req.objective);
                if !self.grids.contains_key(&family) {
                    let grid_cfg = self.grid_cfg;
                    let (grid, t0, t1) = timed(|| {
                        PolicyGrid::build(
                            n,
                            req.listen_w,
                            req.transmit_w,
                            req.sigma,
                            req.objective,
                            &grid_cfg,
                        )
                    });
                    spans.record("grid.build", t0, t1, batch, parent);
                    ks.grid_build_ms.push(dur_us(t0, t1) / 1e3);
                    serial_us += dur_us(t0, t1);
                    self.grids.insert(family, grid);
                }
                let (served, t0, t1) =
                    timed(|| self.grids[&family].serve(rho, canon.tolerance_tier));
                spans.record("grid.serve", t0, t1, batch, parent);
                ks.grid_serve_ns.push(dur_us(t0, t1) * 1e3);
                serial_us += dur_us(t0, t1);
                if let Some(policy) = served {
                    serial_us += self.insert(canon.key.clone(), policy, ks, spans, batch, parent);
                    continue;
                }
            }
            if !pending.contains_key(&canon.key) {
                pending.insert(canon.key.clone(), jobs.len());
                jobs.push((canon, req));
            }
        }
        // The solve phase: jobs run round-robin over the service's
        // workers; its critical path is the busiest worker.
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .clamp(1, jobs.len().max(1));
        let mut busy = vec![0.0; workers];
        let mut solved = Vec::with_capacity(jobs.len());
        for (j, (canon, req)) in jobs.iter().enumerate() {
            let nodes: Vec<NodeParams> = canon
                .sorted_budgets
                .iter()
                .map(|&rho| NodeParams::new(rho, req.listen_w, req.transmit_w))
                .collect();
            let (policy, job_us) = if canon.homogeneous {
                let n = nodes.len();
                let (sol, t0, t1) =
                    timed(|| HomogeneousP4::new(n, nodes[0], req.sigma, req.objective).solve());
                spans.record("statespace.solve_homogeneous", t0, t1, batch, parent);
                ks.solve_us[HOMO].push(dur_us(t0, t1));
                let (cert, c0, c1) = timed(|| {
                    certificate_for_homogeneous(n, &nodes[0], req.sigma, req.objective, &sol)
                });
                spans.record("oracle.certificate", c0, c1, batch, parent);
                ks.certificate_us.push(dur_us(c0, c1));
                ks.converged.push(1.0);
                let policy = CachedPolicy {
                    alpha: vec![sol.alpha; n],
                    beta: vec![sol.beta; n],
                    throughput: sol.throughput,
                    converged: true,
                    kernel: PolicyKernel::ClosedForm,
                    certificate: cert,
                };
                (policy, dur_us(t0, t1) + dur_us(c0, c1))
            } else {
                // `probe_canonical`'s options.
                let opts = P4Options {
                    max_iters: 30_000,
                    tol: canon.tolerance_tier,
                    step0: 2.0,
                    kernel: KernelSelect::Auto,
                };
                let pool = &mut self.pool;
                let (sol, t0, t1) = timed(|| pool.solve(&nodes, req.sigma, req.objective, opts));
                let (name, k) = match sol.kernel {
                    SummaryKernel::GrayCode => ("statespace.solve_graycode", GRAY),
                    SummaryKernel::Factorized => ("statespace.solve_factorized", FACT),
                    SummaryKernel::Homogeneous => ("statespace.solve_homogeneous", HOMO),
                };
                spans.record(name, t0, t1, batch, parent);
                ks.solve_us[k].push(dur_us(t0, t1));
                ks.iters.push(sol.iterations as f64);
                ks.converged.push(if sol.converged { 1.0 } else { 0.0 });
                let (cert, c0, c1) =
                    timed(|| certificate_for(&nodes, req.sigma, req.objective, &sol));
                spans.record("oracle.certificate", c0, c1, batch, parent);
                ks.certificate_us.push(dur_us(c0, c1));
                let policy = CachedPolicy {
                    alpha: sol.alpha,
                    beta: sol.beta,
                    throughput: sol.throughput,
                    converged: sol.converged,
                    kernel: match sol.kernel {
                        SummaryKernel::GrayCode => PolicyKernel::GrayCode,
                        SummaryKernel::Factorized => PolicyKernel::Factorized,
                        SummaryKernel::Homogeneous => PolicyKernel::ClosedForm,
                    },
                    certificate: cert,
                };
                (policy, dur_us(t0, t1) + dur_us(c0, c1))
            };
            busy[j % workers] += job_us;
            solved.push((canon.key.clone(), policy));
        }
        let mut critical_us = serial_us + busy.iter().copied().fold(0.0, f64::max);
        for (key, policy) in solved {
            critical_us += self.insert(key, policy, ks, spans, batch, parent);
        }
        critical_us
    }

    fn insert(
        &mut self,
        key: InstanceKey,
        policy: CachedPolicy,
        ks: &mut KernelStats,
        spans: &mut Spans,
        batch: u64,
        parent: Option<usize>,
    ) -> f64 {
        let ((), t0, t1) = timed(|| self.lru.insert(key, policy));
        spans.record("cache.insert", t0, t1, batch, parent);
        ks.insert_ns.push(dur_us(t0, t1) * 1e3);
        dur_us(t0, t1)
    }
}

/// The inner lanes below the cluster front, for one backend slot.
struct SlotLanes {
    remote: RemoteShard,
    shard: ShardRouter,
    services: Vec<PolicyService>,
    mirrors: Vec<Mirror>,
}

/// Every lane.
struct Lanes {
    client_stack: Stack,
    cluster_stack: Stack,
    /// Backends behind the remote lane (kept alive for its dialers).
    remote_backends: Vec<econcast_service::ServerHandle>,
    slots: Vec<SlotLanes>,
    shard_model: ShardRouter,
}

impl Lanes {
    fn build() -> Result<Self, String> {
        let spawn = || Stack::spawn().map_err(|e| format!("stack spawn failed: {e}"));
        let client_stack = spawn()?;
        let cluster_stack = spawn()?;
        let remote_backends = (0..stack::BACKENDS)
            .map(|_| stack::spawn_backend())
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| format!("backend spawn failed: {e}"))?;
        let slots = remote_backends
            .iter()
            .map(|b| SlotLanes {
                remote: RemoteShard::new(b.addr(), RemoteConfig::default()),
                shard: stack::shard_router_model(),
                services: (0..stack::SHARDS)
                    .map(|_| PolicyService::new(ServiceConfig::default()))
                    .collect(),
                mirrors: (0..stack::SHARDS).map(|_| Mirror::new()).collect(),
            })
            .collect();
        Ok(Lanes {
            client_stack,
            cluster_stack,
            remote_backends,
            slots,
            shard_model: stack::shard_router_model(),
        })
    }

    /// Splits `reqs` as the cluster routes them: per backend slot, the
    /// slot's sub-batch in batch order and its split across the
    /// backend's shards.
    fn split(&self, reqs: &[PolicyRequest]) -> Vec<SlotBatch> {
        let mut out: Vec<SlotBatch> = (0..stack::BACKENDS)
            .map(|_| SlotBatch {
                reqs: Vec::new(),
                per_shard: vec![Vec::new(); stack::SHARDS],
            })
            .collect();
        for r in reqs {
            let slot = &mut out[self.cluster_stack.slot_of(r)];
            let shard = usize::from(self.shard_model.shard_of_request(r).expect("valid request"));
            slot.reqs.push(r.clone());
            slot.per_shard[shard].push(r.clone());
        }
        out
    }
}

/// One backend slot's share of a batch.
struct SlotBatch {
    reqs: Vec<PolicyRequest>,
    per_shard: Vec<Vec<PolicyRequest>>,
}

/// Everything a replay measured.
#[derive(Default)]
struct Replay {
    client_us: Vec<f64>,
    client_untraced_us: Vec<f64>,
    submit_us: Vec<f64>,
    collect_us: Vec<f64>,
    cluster_self_us: Vec<f64>,
    remote_self_us: Vec<f64>,
    shard_self_us: Vec<f64>,
    service_self_us: Vec<f64>,
    unattributed: Vec<f64>,
    encode_ns_per_req: Vec<f64>,
    decode_ns_per_req: Vec<f64>,
    bytes_per_req: Vec<f64>,
    lag_us: Vec<f64>,
    slot_counts: Vec<u64>,
    shard_counts: Vec<u64>,
    requests: u64,
    tally: Tally,
    ks: KernelStats,
}

/// Encodes and decodes the batch's request and response frames,
/// returning (encode ns, decode ns, bytes).
fn proto_pass(
    reqs: &[PolicyRequest],
    results: &[econcast_service::WireResult],
) -> Result<(f64, f64, f64), String> {
    let mut msgs: Vec<ServiceMessage> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| ServiceMessage::Request(r.to_wire(i as u32)))
        .collect();
    for r in results {
        msgs.push(match r {
            Ok(resp) => ServiceMessage::Response(resp.clone()),
            Err(e) => ServiceMessage::Error(*e),
        });
    }
    let mut buf = BytesMut::new();
    let t0 = Instant::now();
    for m in &msgs {
        ServiceCodec::encode_versioned(m, &mut buf, WIRE_VERSION);
    }
    let t1 = Instant::now();
    let mut codec = ServiceCodec::new();
    codec.feed(&buf);
    let decoded = codec.drain().map_err(|e| format!("decode failed: {e:?}"))?;
    let t2 = Instant::now();
    if decoded.len() != msgs.len() {
        return Err("codec round trip lost frames".into());
    }
    Ok((us(t1 - t0) * 1e3, us(t2 - t1) * 1e3, buf.len() as f64))
}

/// Replays one batch through every lane.
fn replay_batch(
    lanes: &mut Lanes,
    client: &mut econcast_service::PolicyClient,
    inputs: &Inputs,
    items: &[MixedItem],
    b: u64,
    r: &mut Replay,
    spans: &mut Spans,
) -> Result<(), String> {
    let (reqs, g0, g1) = timed(|| serve::materialize(items, &inputs.warm));
    r.lag_us.push(dur_us(g0, g1));
    let n = reqs.len() as f64;
    r.requests += reqs.len() as u64;

    // Client lane. Even batches are timed with the span recorder,
    // odd ones with a bare pair of clock reads: the difference of
    // their medians is the recorder's overhead.
    let traced = b.is_multiple_of(2);
    let t0 = Instant::now();
    let ticket = client
        .submit_batch(&reqs)
        .map_err(|e| format!("submit failed: {e}"))?;
    let t1 = Instant::now();
    let results = client
        .collect(ticket)
        .map_err(|e| format!("collect failed: {e}"))?;
    let t2 = Instant::now();
    let client_us = dur_us(t0, t2);
    if traced {
        let root = spans.record("client.batch", t0, t2, b, None);
        spans.record("client.submit", t0, t1, b, Some(root));
        spans.record("client.collect", t1, t2, b, Some(root));
        r.client_us.push(client_us);
    } else {
        r.client_untraced_us.push(client_us);
    }
    r.submit_us.push(dur_us(t0, t1));
    r.collect_us.push(dur_us(t1, t2));
    let (enc, dec, bytes) = proto_pass(&reqs, &results)?;
    r.encode_ns_per_req.push(enc / n);
    r.decode_ns_per_req.push(dec / n);
    r.bytes_per_req.push(bytes / n);
    serve::file_results(&mut r.tally, items, &reqs, results, &inputs.warm_ref);

    // Cluster lane.
    let router = std::sync::Arc::clone(lanes.cluster_stack.front().router());
    let (_, c0, c1) = timed(|| {
        router
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .serve_batch(&reqs)
    });
    let cluster_span = spans.record("cluster.serve_batch", c0, c1, b, None);
    let cluster_us = dur_us(c0, c1);

    // Remote, shard, service and kernel lanes, slot by slot.
    let mut remote_max = 0.0f64;
    for (s, slot) in lanes.split(&reqs).iter().enumerate() {
        if slot.reqs.is_empty() {
            continue;
        }
        r.slot_counts[s] += slot.reqs.len() as u64;
        let lane = &mut lanes.slots[s];
        let (res, r0, r1) = timed(|| lane.remote.serve_batch(&slot.reqs));
        res.map_err(|e| format!("remote lane failed: {e}"))?;
        let remote_span = spans.record("remote.serve_batch", r0, r1, b, Some(cluster_span));
        let remote_us = dur_us(r0, r1);
        let (_, s0, s1) = timed(|| lane.shard.serve_batch(&slot.reqs));
        let shard_span = spans.record("shard.serve_batch", s0, s1, b, Some(remote_span));
        let shard_us = dur_us(s0, s1);
        let mut services_us = 0.0;
        for (h, subsub) in slot.per_shard.iter().enumerate() {
            if subsub.is_empty() {
                continue;
            }
            r.shard_counts[s * stack::SHARDS + h] += subsub.len() as u64;
            let svc = &mut lane.services[h];
            let (_, v0, v1) = timed(|| svc.serve_batch(subsub));
            let service_span = spans.record("service.serve_batch", v0, v1, b, Some(shard_span));
            let kernel_us = lane.mirrors[h].serve(subsub, &mut r.ks, spans, b, Some(service_span));
            r.service_self_us.push(dur_us(v0, v1) - kernel_us);
            services_us += dur_us(v0, v1);
        }
        r.remote_self_us.push(remote_us - shard_us);
        r.shard_self_us.push(shard_us - services_us);
        remote_max = remote_max.max(remote_us);
    }
    r.cluster_self_us.push(cluster_us - remote_max);
    // What no lane accounts for: the client's batch minus the cluster
    // router's span and the codec work for this batch.
    let proto_us = (enc + dec) / 1e3;
    r.unattributed
        .push((client_us - cluster_us - proto_us) / client_us);
    Ok(())
}

/// Sets up every lane with the same requests, in the same order.
fn setup_lanes(
    lanes: &mut Lanes,
    setup: &[PolicyRequest],
    ks: &mut KernelStats,
) -> Result<(), String> {
    for st in [&lanes.client_stack, &lanes.cluster_stack] {
        let mut c = st.connect().map_err(|e| format!("connect failed: {e}"))?;
        fill(&mut c, setup, CLOSED_BATCH)?;
    }
    let mut scratch = Spans::new();
    for chunk in setup.chunks(CLOSED_BATCH) {
        for (s, slot) in lanes.split(chunk).iter().enumerate() {
            if slot.reqs.is_empty() {
                continue;
            }
            let lane = &mut lanes.slots[s];
            lane.remote
                .serve_batch(&slot.reqs)
                .map_err(|e| format!("remote lane set-up failed: {e}"))?;
            lane.shard.serve_batch(&slot.reqs);
            for (h, subsub) in slot.per_shard.iter().enumerate() {
                if !subsub.is_empty() {
                    lane.services[h].serve_batch(subsub);
                    lane.mirrors[h].serve(subsub, ks, &mut scratch, 0, None);
                }
            }
        }
    }
    Ok(())
}

/// `metrics.overhead_frac`: warm in-process `serve_batch` with the
/// always-on metrics plane recording vs not, alternating batches.
fn metrics_overhead(warm: &[PolicyRequest], seconds: f64) -> f64 {
    let mut svc = PolicyService::new(ServiceConfig::default());
    for chunk in warm.chunks(CLOSED_BATCH) {
        svc.serve_batch(chunk);
    }
    let batches: Vec<&[PolicyRequest]> = warm.chunks(CLOSED_BATCH).collect();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while Instant::now() < deadline {
        // Alternate which setting runs first on each batch pair, so a
        // warm-cache advantage of the second call cancels out.
        let recording = (i % 2 == 0) != ((i / 2) % 2 == 1);
        econcast_metrics::set_recording(recording);
        let (_, t0, t1) = timed(|| svc.serve_batch(batches[(i / 2) % batches.len()]));
        if recording {
            on.push(dur_us(t0, t1))
        } else {
            off.push(dur_us(t0, t1))
        }
        i += 1;
    }
    econcast_metrics::set_recording(true);
    median(&on) / median(&off) - 1.0
}

fn diff(after: &ServiceStats, before: &ServiceStats) -> ServiceStats {
    let a = after.to_wire().to_array();
    let b = before.to_wire().to_array();
    let mut d = a;
    for i in 0..d.len() {
        d[i] = a[i].saturating_sub(b[i]);
    }
    ServiceStats::from_wire(&econcast_proto::service::WireServiceStats::from_array(d))
}

/// The traced run for `kind` (`None` = `sim_grid`, whose serving
/// layers are measured on `warm_hot`'s inputs so every traced run
/// reports every layer).
pub fn run(kind: Option<Kind>, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let serving = kind.unwrap_or(Kind::WarmHot);
    // Budget: the simulator's layers get a slice, the serving replay
    // the rest.
    let sim_seconds = if kind.is_none() {
        seconds * 0.5
    } else {
        (seconds * 0.1).max(0.5)
    };
    let open_seconds = if serving == Kind::OpenMixed {
        seconds * 0.4
    } else {
        0.0
    };
    let kernel_seconds = (seconds * 0.1).max(0.5);
    let replay_seconds = seconds - sim_seconds - open_seconds - kernel_seconds;

    let mut m = Metrics::default();
    let mut loadgen = None;
    let mut admission = ServiceStats::default();
    let inputs = if serving == Kind::OpenMixed {
        let (prep, _) = serve::prepare(serving, seed, 1)?;
        // The open loop's own figures (lag, ladder, admission) on an
        // untraced stack of their own.
        let before = prep
            .stack
            .scrape()
            .map_err(|e| format!("scrape failed: {e}"))?;
        let rungs = serve::open_loop(seed, &prep, open_seconds)?;
        let after = prep
            .stack
            .scrape()
            .map_err(|e| format!("scrape failed: {e}"))?;
        admission = diff(&after, &before);
        let lag: Vec<f64> = rungs
            .iter()
            .flat_map(|r| r.lag_us.iter().copied())
            .collect();
        loadgen = Some(quantile(&lag, 0.99));
        let Prepared { stack, inputs } = prep;
        stack.shutdown();
        inputs
    } else {
        Inputs::new(serving, seed)?
    };
    let warm = std::sync::Arc::clone(&inputs.warm);

    let mut lanes = Lanes::build()?;
    let mut setup = serve::grid_warmup(seed, &lanes.client_stack);
    setup.extend(warm.iter().cloned());
    let mut r = Replay {
        slot_counts: vec![0; stack::BACKENDS],
        shard_counts: vec![0; stack::BACKENDS * stack::SHARDS],
        ..Replay::default()
    };
    // Set-up work counts towards the cache and grid figures (grid
    // builds happen there), not towards the per-batch spans.
    setup_lanes(&mut lanes, &setup, &mut r.ks)?;
    let mut client = lanes
        .client_stack
        .connect()
        .map_err(|e| format!("connect failed: {e}"))?;
    let before = lanes
        .client_stack
        .scrape()
        .map_err(|e| format!("scrape failed: {e}"))?;
    let failovers_before =
        lanes.client_stack.failover_reserves() + lanes.cluster_stack.failover_reserves();

    let mut spans = Spans::new();
    let mut closed = Source::new(serving, seed, 0);
    let mut open = MixedStream::new(seed, 0, WARM_SET, serve::OPEN_FRESH_SHARE);
    let deadline = Instant::now() + Duration::from_secs_f64(replay_seconds);
    let mut b = 0u64;
    while b < 4 || Instant::now() < deadline {
        let items: Vec<MixedItem> = match serving {
            Kind::OpenMixed => (0..OPEN_BATCH).map(|_| open.next_item()).collect(),
            _ => closed.next_batch(CLOSED_BATCH),
        };
        replay_batch(
            &mut lanes,
            &mut client,
            &inputs,
            &items,
            b,
            &mut r,
            &mut spans,
        )?;
        b += 1;
    }
    let after = lanes
        .client_stack
        .scrape()
        .map_err(|e| format!("scrape failed: {e}"))?;
    let d = diff(&after, &before);
    let failovers = lanes.client_stack.failover_reserves()
        + lanes.cluster_stack.failover_reserves()
        - failovers_before;
    r.tally.settle()?;
    // Any miss fails the closed-loop workloads, as in their timed runs.
    let correct = d.requests == r.requests
        && r.tally.wrong == 0
        && (serving == Kind::OpenMixed || r.tally.failed == 0);

    let path = std::path::PathBuf::from(format!(
        "perfbench/out/spans_{}_{seed}.json",
        match kind {
            Some(Kind::ColdSolve) => "cold_solve",
            Some(Kind::WarmHot) => "warm_hot",
            Some(Kind::OpenMixed) => "open_mixed",
            None => "sim_grid",
        }
    ));
    spans
        .write(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} spans over {b} batches written to {}",
        spans.spans.len(),
        path.display()
    );

    let req = d.requests.max(1) as f64;
    let share_max = |counts: &[u64]| {
        counts.iter().copied().max().unwrap_or(0) as f64 / counts.iter().sum::<u64>().max(1) as f64
    };
    m.put("client.submit_us_p50", median(&r.submit_us), "us");
    m.put("client.collect_us_p50", median(&r.collect_us), "us");
    m.put(
        "proto.encode_ns_per_req",
        median(&r.encode_ns_per_req),
        "ns",
    );
    m.put(
        "proto.decode_ns_per_req",
        median(&r.decode_ns_per_req),
        "ns",
    );
    m.put("proto.bytes_per_req", mean(&r.bytes_per_req), "B");
    m.put("cluster.self_us_p50", median(&r.cluster_self_us), "us");
    m.put("cluster.slot_share_max", share_max(&r.slot_counts), "ratio");
    m.put("cluster.failover_reserves", failovers as f64, "count");
    m.put("remote.self_us_p50", median(&r.remote_self_us), "us");
    m.put(
        "admission.queue_peak",
        (d.queue_depth_peak.max(admission.queue_depth_peak)) as f64,
        "count",
    );
    m.put(
        "admission.degraded",
        (d.degraded_serves + admission.degraded_serves) as f64,
        "count",
    );
    m.put(
        "admission.shed",
        (d.shed_rejects + admission.shed_rejects) as f64,
        "count",
    );
    m.put(
        "admission.deadline_expired",
        (d.deadline_expired + admission.deadline_expired) as f64,
        "count",
    );
    m.put("shard.self_us_p50", median(&r.shard_self_us), "us");
    m.put("shard.share_max", share_max(&r.shard_counts), "ratio");
    m.put("service.self_us_p50", median(&r.service_self_us), "us");
    m.put(
        "service.exact_hit_ratio",
        d.exact_hits as f64 / req,
        "ratio",
    );
    m.put("service.grid_hit_ratio", d.grid_hits as f64 / req, "ratio");
    m.put(
        "service.dedup_ratio",
        d.batch_dedup_hits as f64 / req,
        "ratio",
    );
    m.put(
        "service.solves_per_req",
        (d.solver_solves + d.closed_form_hits) as f64 / req,
        "ratio",
    );
    let ks = &r.ks;
    let kernels = cold_kernels(seed, kernel_seconds);
    m.put("cache.get_ns", median(&ks.get_ns), "ns");
    m.put("cache.insert_ns", median(&ks.insert_ns), "ns");
    m.put("cache.evictions", d.lru_evictions as f64, "count");
    m.put("cache.bytes", lanes.client_stack.cache_bytes() as f64, "B");
    m.put("grid.builds", after.grid_builds as f64, "count");
    m.put("grid.build_ms", median(&ks.grid_build_ms), "ms");
    m.put("grid.serve_ns", median(&ks.grid_serve_ns), "ns");
    m.put(
        "statespace.canonicalize_ns",
        median(&ks.canonicalize_ns),
        "ns",
    );
    m.put(
        "statespace.solve_us_graycode",
        median(&kernels.solve_us[GRAY]),
        "us",
    );
    m.put(
        "statespace.solve_us_factorized",
        median(&kernels.solve_us[FACT]),
        "us",
    );
    m.put(
        "statespace.solve_us_homogeneous",
        median(&kernels.solve_us[HOMO]),
        "us",
    );
    m.put(
        "statespace.solves_graycode",
        kernels.solve_us[GRAY].len() as f64,
        "count",
    );
    m.put(
        "statespace.solves_factorized",
        kernels.solve_us[FACT].len() as f64,
        "count",
    );
    m.put(
        "statespace.solves_homogeneous",
        kernels.solve_us[HOMO].len() as f64,
        "count",
    );
    m.put("statespace.iters_per_solve", mean(&kernels.iters), "count");
    m.put(
        "statespace.converged_frac",
        mean(&kernels.converged),
        "ratio",
    );
    m.put(
        "oracle.certificate_us",
        median(&kernels.certificate_us),
        "us",
    );
    m.put(
        "metrics.overhead_frac",
        metrics_overhead(&warm_or_cold(&warm, seed), 0.5),
        "ratio",
    );
    let lag_p99 = loadgen.unwrap_or_else(|| quantile(&r.lag_us, 0.99));
    m.put("loadgen.lag_p99_us", lag_p99, "us");
    m.put("bench.unattributed_frac", median(&r.unattributed), "ratio");
    m.put(
        "bench.trace_overhead_frac",
        median(&r.client_us) / median(&r.client_untraced_us) - 1.0,
        "ratio",
    );

    drop(client);
    let Lanes {
        client_stack,
        cluster_stack,
        remote_backends,
        slots,
        ..
    } = lanes;
    drop(slots);
    client_stack.shutdown();
    cluster_stack.shutdown();
    for b in remote_backends {
        b.shutdown();
    }

    let mut inputs = sim::inputs(seed);
    let sim_run = sim::run(&mut inputs, sim_seconds);
    sim::layer_metrics(&sim_run, &mut m);

    Ok(Outcome {
        correct,
        attempted: r.tally.attempted,
        failed: r.tally.failed,
        metrics: m,
    })
}

/// The warm set, or for `cold_solve` (which has none) the seed's warm
/// set drawn the same way — the metrics plane is timed on cache hits.
fn warm_or_cold(warm: &[PolicyRequest], seed: u64) -> Vec<PolicyRequest> {
    if warm.is_empty() {
        crate::workload::warm_set(seed, WARM_SET)
    } else {
        warm.to_vec()
    }
}

/// `statespace` and `oracle` figures: `cold_solve`'s instances solved
/// with the options `probe_canonical` uses (grid-range homogeneous
/// instances are grid serves, not solves, and are skipped).
fn cold_kernels(seed: u64, seconds: f64) -> KernelStats {
    let mut stream = crate::workload::ColdStream::new(seed, 0x7ACE);
    let grid = GridConfig::default();
    let mut mirror = Mirror::new();
    let mut ks = KernelStats::default();
    let mut spans = Spans::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while ks.certificate_us.len() < 8 || Instant::now() < deadline {
        let req = stream.next_request();
        let in_grid = req.budgets_w.iter().all(|&b| b == req.budgets_w[0])
            && (grid.rho_min_w..=grid.rho_max_w).contains(&req.budgets_w[0]);
        if !in_grid {
            // Fresh keys miss the mirror's cache, so every call solves.
            mirror.serve(std::slice::from_ref(&req), &mut ks, &mut spans, 0, None);
        }
    }
    ks
}
