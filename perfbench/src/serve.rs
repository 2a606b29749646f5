//! The serving workloads: set-up, the closed loop (`cold_solve`,
//! `warm_hot`) and the open loop (`open_mixed`).

use crate::check::{reference_serve, Tally};
use crate::stack::{fill, shard_router_model, Stack};
use crate::util::{quantile, us};
use crate::workload::{self, ColdStream, MixedItem, MixedStream, Rng, WarmStream};
use econcast_core::NodeParams;
use econcast_service::{PolicyClient, PolicyRequest, PolicyResponse};
use std::collections::VecDeque;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Closed-loop clients (one connection each): the machine's 2 cores.
pub const CLIENTS: usize = 2;
/// Closed-loop batch size. Batch-1 cluster round trips are bimodal
/// (see the benchmark's README), batch 32 is not.
pub const CLOSED_BATCH: usize = 32;
/// Distinct instances in the warm set: about a quarter of one
/// shard's 1024-entry LRU lands on each of the 4 backend shards.
pub const WARM_SET: usize = 1024;
/// Open-loop connections.
pub const OPEN_CONNS: usize = 2;
/// Open-loop batch size.
pub const OPEN_BATCH: usize = 8;
/// Share of fresh `cold_solve` instances in `open_mixed`.
pub const OPEN_FRESH_SHARE: f64 = 0.02;
/// The frozen open-loop ladder of offered rates (requests/s), from
/// the stack's capacity measured on this repository's reference
/// machine (see the README). Never recalibrated per run.
pub const OPEN_LADDER_RPS: [f64; 5] = [500.0, 1000.0, 2000.0, 4000.0, 7000.0];
/// The rung whose figures the end-to-end metrics report.
pub const OPEN_MIDDLE: usize = 2;
/// Share of the run the middle rung gets (the other rungs split the
/// rest): its figures are the reported ones, so it gets the samples.
pub const OPEN_MIDDLE_SHARE: f64 = 0.8;
/// The open loop's latency limit on p99, from each request's
/// scheduled send.
pub const SLO_LIMIT_US: f64 = 10_000.0;
/// Timed-phase set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ColdSolve,
    WarmHot,
    OpenMixed,
}

/// The workload's fixed inputs: the warm set and its reference
/// responses (empty for `cold_solve`).
pub struct Inputs {
    pub warm: Arc<Vec<PolicyRequest>>,
    pub warm_ref: Arc<Vec<PolicyResponse>>,
}

impl Inputs {
    pub fn new(kind: Kind, seed: u64) -> Result<Self, String> {
        let warm = if kind == Kind::ColdSolve {
            Vec::new()
        } else {
            workload::warm_set(seed, WARM_SET)
        };
        let warm_ref = reference_serve(&warm.iter().collect::<Vec<_>>(), CLOSED_BATCH)?;
        Ok(Inputs {
            warm: Arc::new(warm),
            warm_ref: Arc::new(warm_ref),
        })
    }
}

/// A set-up stack with the workload's fixed inputs.
pub struct Prepared {
    pub stack: Stack,
    pub inputs: Inputs,
}

/// In-grid warm-up requests: per grid family, seeded fresh budgets
/// until the family has reached every backend shard that any of the
/// first [`GRID_PROBE`] draws reaches, so each shard builds each grid
/// during set-up, not in the timed phase. (Not every (backend, shard)
/// pair is reachable: the front's ring and the backends' rings are the
/// same function of the key, so each backend sees one shard's keys.)
pub fn grid_warmup(seed: u64, stack: &Stack) -> Vec<PolicyRequest> {
    let shards = shard_router_model();
    let mut rng = Rng::new(seed).fork(0x6121D);
    let mut out = Vec::new();
    let home = |req: &PolicyRequest| {
        (
            stack.slot_of(req),
            usize::from(shards.shard_of_request(req).expect("valid request")),
        )
    };
    for (n, sigma, mode) in workload::grid_families() {
        let mut draw = || {
            let rho = rng.log_uniform(2e-6, 60e-6);
            PolicyRequest::homogeneous(
                n,
                NodeParams::new(rho, workload::LISTEN_W, workload::TRANSMIT_W),
                sigma,
                mode,
                1e-2,
            )
        };
        let probe: Vec<PolicyRequest> = (0..GRID_PROBE).map(|_| draw()).collect();
        let mut missing: std::collections::BTreeSet<(usize, usize)> =
            probe.iter().map(&home).collect();
        for req in probe {
            if missing.remove(&home(&req)) {
                out.push(req);
            }
        }
    }
    out
}

/// Budgets drawn per grid family when choosing its warm-up requests.
const GRID_PROBE: usize = 64;

/// Spawns the stack and fills it for `kind`: grids for every workload,
/// plus the warm set for the warm ones. Returns the stack and the
/// elapsed set-up time.
fn setup_once(kind: Kind, seed: u64, warm: &[PolicyRequest]) -> Result<(Stack, f64), String> {
    let t0 = Instant::now();
    let stack = Stack::spawn().map_err(|e| format!("stack spawn failed: {e}"))?;
    let mut client = stack
        .connect()
        .map_err(|e| format!("connect failed: {e}"))?;
    fill(&mut client, &grid_warmup(seed, &stack), CLOSED_BATCH)?;
    if kind != Kind::ColdSolve {
        fill(&mut client, warm, CLOSED_BATCH)?;
    }
    Ok((stack, t0.elapsed().as_secs_f64()))
}

/// Sets up `setups` times, keeping the last stack, and returns it with
/// the median set-up time.
pub fn prepare(kind: Kind, seed: u64, setups: usize) -> Result<(Prepared, f64), String> {
    let inputs = Inputs::new(kind, seed)?;
    let mut times = Vec::new();
    let mut kept: Option<Stack> = None;
    for _ in 0..setups.max(1) {
        if let Some(stack) = kept.take() {
            stack.shutdown();
        }
        let (stack, secs) = setup_once(kind, seed, &inputs.warm)?;
        eprintln!("perfbench: set-up took {secs:.3} s");
        times.push(secs);
        kept = Some(stack);
    }
    let stack = kept.expect("at least one set-up");
    Ok((Prepared { stack, inputs }, crate::util::median(&times)))
}

/// A batch source for one closed-loop client.
pub enum Source {
    Cold(ColdStream),
    Warm(WarmStream),
}

impl Source {
    pub fn new(kind: Kind, seed: u64, client: u64) -> Self {
        match kind {
            Kind::ColdSolve => Source::Cold(ColdStream::new(seed, client)),
            _ => Source::Warm(WarmStream::new(seed, client, WARM_SET)),
        }
    }

    pub fn next_batch(&mut self, len: usize) -> Vec<MixedItem> {
        (0..len)
            .map(|_| match self {
                Source::Cold(s) => MixedItem::Fresh(s.next_request()),
                Source::Warm(s) => MixedItem::Warm(s.next_index()),
            })
            .collect()
    }
}

pub fn materialize(items: &[MixedItem], warm: &[PolicyRequest]) -> Vec<PolicyRequest> {
    items
        .iter()
        .map(|it| match it {
            MixedItem::Warm(i) => warm[*i].clone(),
            MixedItem::Fresh(r) => r.clone(),
        })
        .collect()
}

/// Files a batch's results into the tally.
pub fn file_results(
    tally: &mut Tally,
    items: &[MixedItem],
    reqs: &[PolicyRequest],
    results: Vec<econcast_service::WireResult>,
    warm_ref: &[PolicyResponse],
) {
    for ((item, req), result) in items.iter().zip(reqs).zip(results) {
        match item {
            MixedItem::Warm(i) => tally.warm(req, &result, &warm_ref[*i]),
            MixedItem::Fresh(_) => tally.fresh(req, result),
        }
    }
}

/// What a closed-loop phase measured.
#[derive(Debug, Default)]
pub struct ClosedRun {
    /// Batch round trips (µs).
    pub lat_us: Vec<f64>,
    /// The generator's own delay between a reply and the next send (µs).
    pub lag_us: Vec<f64>,
    pub tally: Tally,
    pub elapsed_s: f64,
    /// Per segment: correct responses per second, and the batch round
    /// trip's median and p99 (µs).
    pub segment_goodput: Vec<f64>,
    pub segment_p50_us: Vec<f64>,
    pub segment_p99_us: Vec<f64>,
}

/// Runs [`CLIENTS`] closed-loop clients for `seconds`, split into
/// [`SEGMENTS`] timed segments. Between segments the clients idle and
/// the fresh responses collected so far are checked against the
/// reference, so the benchmark's own storage stays small next to the
/// program's memory (which `peak_rss_mb` measures).
pub fn closed_loop(
    kind: Kind,
    seed: u64,
    prep: &Prepared,
    seconds: f64,
) -> Result<ClosedRun, String> {
    let connect = || {
        PolicyClient::connect(prep.stack.addr(), crate::stack::CLIENT_MAX_BATCH)
            .map_err(|e| format!("connect failed: {e}"))
    };
    let mut clients = (0..CLIENTS)
        .map(|c| Ok((connect()?, Source::new(kind, seed, c as u64))))
        .collect::<Result<Vec<_>, String>>()?;
    let mut total = ClosedRun::default();
    let segment = Duration::from_secs_f64(seconds / SEGMENTS as f64);
    for _ in 0..SEGMENTS {
        let barrier = Barrier::new(CLIENTS + 1);
        let (runs, elapsed_s) = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|(client, source)| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        closed_client(client, source, &prep.inputs, barrier, segment)
                    })
                })
                .collect();
            barrier.wait();
            let t0 = Instant::now();
            let runs: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect();
            (runs, t0.elapsed().as_secs_f64())
        });
        total.elapsed_s += elapsed_s;
        let mut ok = 0;
        let mut lat = Vec::new();
        for run in runs {
            let mut run = run?;
            run.tally.settle()?;
            ok += run.tally.ok;
            lat.extend_from_slice(&run.lat_us);
            total.lat_us.extend(run.lat_us);
            total.lag_us.extend(run.lag_us);
            total.tally.merge(run.tally);
        }
        total.segment_goodput.push(ok as f64 / elapsed_s);
        total.segment_p50_us.push(crate::util::median(&lat));
        total.segment_p99_us.push(quantile(&lat, 0.99));
    }
    Ok(total)
}

/// Timed segments of a closed-loop run.
pub const SEGMENTS: usize = 10;

/// One closed-loop client for one segment: send a batch, wait for its
/// reply, file it, repeat.
fn closed_client(
    client: &mut PolicyClient,
    source: &mut Source,
    inputs: &Inputs,
    barrier: &Barrier,
    segment: Duration,
) -> Result<ClosedRun, String> {
    let mut run = ClosedRun::default();
    barrier.wait();
    let deadline = Instant::now() + segment;
    let mut ready = Instant::now();
    while Instant::now() < deadline {
        let items = source.next_batch(CLOSED_BATCH);
        let reqs = materialize(&items, &inputs.warm);
        let t0 = Instant::now();
        run.lag_us.push(us(t0 - ready));
        match client.serve_batch(&reqs) {
            Ok(results) => {
                run.lat_us.push(us(t0.elapsed()));
                file_results(&mut run.tally, &items, &reqs, results, &inputs.warm_ref);
            }
            Err(e) => {
                run.tally.lost(reqs.len());
                return Err(format!("closed-loop batch lost: {e}"));
            }
        }
        ready = Instant::now();
    }
    Ok(run)
}

/// One rung of the open-loop ladder.
#[derive(Debug, Default)]
pub struct Rung {
    pub offered_rps: f64,
    pub duration_s: f64,
    /// Per-batch latency from the scheduled send (µs); a batch with
    /// any failed request counts as missing the limit.
    pub lat_us: Vec<f64>,
    /// Batches scheduled in the rung.
    pub batches: u64,
    /// Requests still unanswered when the rung's schedule ended.
    pub backlog_at_end: u64,
    pub lag_us: Vec<f64>,
    pub tally: Tally,
}

impl Rung {
    pub fn p99_us(&self) -> f64 {
        let mut all = self.lat_us.clone();
        // Unanswered batches miss the limit.
        all.resize(self.batches as usize, f64::INFINITY);
        quantile(&all, 0.99)
    }

    /// Whether the rung meets the limit: p99 from the schedule within
    /// [`SLO_LIMIT_US`] (failures and misses counted as misses), and
    /// no more requests outstanding at the rung's end than the limit
    /// lets the offered rate keep in flight.
    pub fn meets_slo(&self) -> bool {
        self.p99_us() <= SLO_LIMIT_US
            && (self.backlog_at_end as f64)
                <= self.offered_rps * SLO_LIMIT_US * 1e-6 + OPEN_BATCH as f64
    }
}

/// How long a rung waits for its in-flight batches after its schedule
/// ends; what is still unanswered then counts as lost.
const DRAIN: Duration = Duration::from_secs(5);

/// Longest the open-loop generator sleeps at a time.
const NAP: Duration = Duration::from_micros(100);

struct InFlight {
    ticket: econcast_service::Ticket,
    due: Instant,
    items: Vec<MixedItem>,
    reqs: Vec<PolicyRequest>,
    failed_before: u64,
}

/// Drives one connection through one rung: Poisson batch arrivals at
/// `rate_rps / OPEN_CONNS` requests/s, each batch sent when due
/// (never waiting for earlier replies) and timed from when it was due.
fn open_conn(
    client: &mut PolicyClient,
    stream: &mut MixedStream,
    prep: &Prepared,
    rate_rps: f64,
    start: Instant,
    duration: Duration,
) -> Result<Rung, String> {
    let batch_rate = rate_rps / OPEN_CONNS as f64 / OPEN_BATCH as f64;
    let end = start + duration;
    let drain_deadline = end + DRAIN;
    let mut rung = Rung::default();
    let mut inflight: VecDeque<InFlight> = VecDeque::new();
    let mut next_due = start + Duration::from_secs_f64(stream.gap_s(batch_rate));
    loop {
        let now = Instant::now();
        if next_due < end && now >= next_due {
            let items: Vec<MixedItem> = (0..OPEN_BATCH).map(|_| stream.next_item()).collect();
            let reqs = materialize(&items, &prep.inputs.warm);
            rung.batches += 1;
            rung.lag_us.push(us(Instant::now() - next_due));
            match client.submit_batch(&reqs) {
                Ok(ticket) => inflight.push_back(InFlight {
                    ticket,
                    due: next_due,
                    items,
                    reqs,
                    failed_before: rung.tally.failed,
                }),
                Err(e) => return Err(format!("open-loop submit failed: {e}")),
            }
            next_due += Duration::from_secs_f64(stream.gap_s(batch_rate));
            continue;
        }
        if next_due >= end && inflight.is_empty() {
            break;
        }
        if now >= drain_deadline {
            break;
        }
        if now >= end && rung.backlog_at_end == 0 && !inflight.is_empty() {
            rung.backlog_at_end = inflight.iter().map(|f| f.reqs.len() as u64).sum();
        }
        // Collect whatever has completed.
        let mut k = 0;
        while k < inflight.len() {
            match client.try_collect(&inflight[k].ticket) {
                Ok(Some(results)) => {
                    let done = Instant::now();
                    let f = inflight.remove(k).expect("index in range");
                    file_results(
                        &mut rung.tally,
                        &f.items,
                        &f.reqs,
                        results,
                        &prep.inputs.warm_ref,
                    );
                    if rung.tally.failed == f.failed_before {
                        rung.lat_us.push(us(done - f.due));
                    }
                }
                Ok(None) => k += 1,
                Err(e) => return Err(format!("open-loop collect failed: {e}")),
            }
        }
        if next_due >= end && inflight.is_empty() {
            break;
        }
        // Nap in short slices until the next send: on a VM, a vCPU
        // that idles longer halts, and waking it can take milliseconds,
        // which would make the generator late by that much.
        let wake = if next_due < end {
            next_due
        } else {
            drain_deadline
        };
        let now = Instant::now();
        if wake > now {
            std::thread::sleep((wake - now).min(NAP));
        }
    }
    // Whatever never completed is lost.
    for f in inflight {
        rung.tally.lost(f.reqs.len());
    }
    Ok(rung)
}

/// Runs the frozen ladder: the middle rung gets [`OPEN_MIDDLE_SHARE`]
/// of `seconds`, the other rungs split the rest.
pub fn open_loop(seed: u64, prep: &Prepared, seconds: f64) -> Result<Vec<Rung>, String> {
    let addr = prep.stack.addr();
    let others = (1.0 - OPEN_MIDDLE_SHARE) / (OPEN_LADDER_RPS.len() - 1) as f64;
    let mut clients = (0..OPEN_CONNS)
        .map(|_| PolicyClient::connect(addr, crate::stack::CLIENT_MAX_BATCH))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect failed: {e}"))?;
    let mut streams: Vec<MixedStream> = (0..OPEN_CONNS)
        .map(|c| MixedStream::new(seed, c as u64, WARM_SET, OPEN_FRESH_SHARE))
        .collect();
    let mut rungs = Vec::new();
    for (i, &rate) in OPEN_LADDER_RPS.iter().enumerate() {
        let share = if i == OPEN_MIDDLE {
            OPEN_MIDDLE_SHARE
        } else {
            others
        };
        let per_rung = Duration::from_secs_f64(seconds * share);
        let start = Instant::now() + Duration::from_millis(5);
        let parts = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(streams.iter_mut())
                .map(|(client, stream)| {
                    scope.spawn(move || open_conn(client, stream, prep, rate, start, per_rung))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("open-loop thread panicked"))
                .collect::<Vec<_>>()
        });
        let mut rung = Rung {
            offered_rps: rate,
            duration_s: per_rung.as_secs_f64(),
            ..Rung::default()
        };
        for part in parts {
            let part = part?;
            rung.lat_us.extend(part.lat_us);
            rung.lag_us.extend(part.lag_us);
            rung.batches += part.batches;
            rung.backlog_at_end += part.backlog_at_end;
            rung.tally.merge(part.tally);
        }
        rungs.push(rung);
    }
    Ok(rungs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_set_fits_every_shard_and_hits_exactly_after_setup() {
        let (prep, _) = prepare(Kind::WarmHot, 17, 1).expect("set-up");
        let capacity = econcast_service::ServiceConfig::default().lru_capacity as u64;
        for backend in prep.stack.backends() {
            for shard in 0..crate::stack::SHARDS {
                let stats = backend.router().shard_stats(shard);
                assert!(
                    stats.lru_len <= capacity,
                    "a shard holds {} entries",
                    stats.lru_len
                );
                assert_eq!(stats.lru_evictions, 0);
            }
        }
        let before = prep.stack.scrape().expect("scrape");
        let mut client = prep.stack.connect().expect("connect");
        fill(&mut client, &prep.inputs.warm, CLOSED_BATCH).expect("serve");
        let after = prep.stack.scrape().expect("scrape");
        let requests = after.requests - before.requests;
        assert_eq!(requests, WARM_SET as u64);
        assert_eq!(
            after.exact_hits - before.exact_hits,
            requests,
            "exact hit ratio below 1"
        );
        drop(client);
        prep.stack.shutdown();
    }
}
