//! The `sim_grid` workload: the paper's Section VII simulator run to
//! fixed simulated horizons — EconCast (groupput, capture) on a 7×7
//! grid, and on one heterogeneous clique whose (P4) optimum predicts
//! the simulated throughput.
//!
//! One "request" of this workload is a round: one grid replication
//! plus [`CLIQUE_REPS`] clique replications, each on its own seeded
//! RNG stream.

use crate::util::{mean, median, us};
use crate::workload::Rng;
use econcast_core::{NodeParams, ProtocolConfig, ThroughputMode, Topology};
use econcast_oracle::{certificate_for, AchievabilityGap};
use econcast_sim::{SimConfig, SimReport, Simulator};
use econcast_statespace::{solve_p4, P4Options, P4Solution};
use std::time::Instant;

pub const GRID_SIDE: usize = 7;
pub const GRID_HORIZON: f64 = 20_000.0;
pub const CLIQUE_HORIZON: f64 = 2_000_000.0;
pub const CLIQUE_REPS: usize = 1;
pub const SIGMA: f64 = 0.5;
/// Set-ups per run: one takes tens of µs, so `setup_s` is the median
/// of many.
pub const SETUPS: usize = 31;
/// A clique replication passes when its throughput is positive and no
/// more than this above the oracle `T*`, and every node's average
/// power is within this of its budget. (Its distance from the (P4)
/// prediction is reported as `sim.gap`, not checked: one finite run
/// scatters around the prediction.)
pub const CLIQUE_BAND: f64 = 0.3;

/// The workload's fixed inputs for one seed.
#[derive(Debug, Clone)]
pub struct SimInputs {
    pub grid: SimConfig,
    pub clique_nodes: Vec<NodeParams>,
    pub prediction: P4Solution,
    pub certificate: AchievabilityGap,
    rng: Rng,
}

fn grid_config(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::ideal_clique(
        GRID_SIDE * GRID_SIDE,
        NodeParams::from_microwatts(10.0, 500.0, 500.0),
        ProtocolConfig::capture_groupput(SIGMA),
        GRID_HORIZON,
        seed,
    );
    cfg.topology = Topology::square_grid(GRID_SIDE);
    cfg
}

fn clique_config(inputs: &SimInputs, seed: u64) -> SimConfig {
    let n = inputs.clique_nodes.len();
    let mut cfg = SimConfig::ideal_clique(
        n,
        inputs.clique_nodes[0],
        ProtocolConfig::capture_groupput(SIGMA),
        CLIQUE_HORIZON,
        seed,
    );
    cfg.nodes = inputs.clique_nodes.clone();
    // Start the multipliers at the (P4) optimum's mean and discard the
    // first half, so the measured window is the stationary regime the
    // (P4) optimum predicts, not the per-node multipliers' adaptation.
    cfg.eta0 = mean(&inputs.prediction.eta);
    cfg.warmup = CLIQUE_HORIZON * 0.5;
    cfg
}

/// The clique's budgets (µW): one fixed heterogeneous instance, so the
/// seed varies only the simulators' random streams.
pub const CLIQUE_BUDGETS_UW: [f64; 5] = [8.0, 10.0, 12.0, 16.0, 20.0];

/// Builds the inputs: the clique's (P4) prediction and certificate are
/// solved here; the seed drives every replication's RNG stream.
pub fn inputs(seed: u64) -> SimInputs {
    let mut rng = Rng::new(seed).fork(0x51A);
    let clique_nodes: Vec<NodeParams> = CLIQUE_BUDGETS_UW
        .iter()
        .map(|&b| NodeParams::from_microwatts(b, 500.0, 450.0))
        .collect();
    let prediction = solve_p4(
        &clique_nodes,
        SIGMA,
        ThroughputMode::Groupput,
        P4Options::default(),
    );
    let certificate = certificate_for(&clique_nodes, SIGMA, ThroughputMode::Groupput, &prediction);
    SimInputs {
        grid: grid_config(rng.next_u64()),
        clique_nodes,
        prediction,
        certificate,
        rng,
    }
}

/// Set-up as the workload pays it: inputs (including the (P4) solve)
/// and both simulators constructed. Returns seconds.
pub fn setup_once(seed: u64) -> Result<f64, String> {
    let t0 = Instant::now();
    let inp = inputs(seed);
    let grid = Simulator::new(inp.grid.clone())?;
    let clique = Simulator::new(clique_config(&inp, 1))?;
    std::hint::black_box((grid, clique));
    Ok(t0.elapsed().as_secs_f64())
}

/// Everything the sim rounds measured.
#[derive(Debug, Default)]
pub struct SimRun {
    pub rounds: u64,
    pub failed: u64,
    pub elapsed_s: f64,
    /// Round wall times (µs).
    pub round_us: Vec<f64>,
    /// Simulated ÷ oracle throughput, per clique replication.
    pub oracle_ratio: Vec<f64>,
    /// |simulated ÷ (P4) T^σ − 1| per clique replication.
    pub gap: Vec<f64>,
    /// `Simulator::new` times (ms), grid replications.
    pub setup_ms: Vec<f64>,
    /// Run time per transmitted packet (ns), grid replications.
    pub ns_per_packet: Vec<f64>,
    pub packets: Vec<f64>,
    pub stale_dropped: Vec<f64>,
    pub sim_units: f64,
    pub sim_wall_s: f64,
}

impl SimRun {
    pub fn units_per_s(&self) -> f64 {
        self.sim_units / self.sim_wall_s
    }
}

fn grid_ok(r: &SimReport) -> bool {
    r.groupput.is_finite()
        && r.groupput > 0.0
        && r.packets_transmitted > 0
        && r.nodes.len() == GRID_SIDE * GRID_SIDE
}

/// Runs rounds until `seconds` have passed (at least one round).
pub fn run(inp: &mut SimInputs, seconds: f64) -> SimRun {
    let mut out = SimRun::default();
    let t_all = Instant::now();
    let t_sigma = inp.prediction.throughput;
    let oracle = inp.certificate.oracle;
    while out.rounds == 0 || t_all.elapsed().as_secs_f64() < seconds {
        let t_round = Instant::now();
        let mut ok = true;

        let mut grid = inp.grid.clone();
        grid.seed = inp.rng.next_u64();
        let t0 = Instant::now();
        match Simulator::new(grid) {
            Ok(sim) => {
                out.setup_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                let t1 = Instant::now();
                let r = sim.run();
                let wall = t1.elapsed().as_secs_f64();
                out.sim_units += r.elapsed;
                out.sim_wall_s += wall;
                out.ns_per_packet
                    .push(wall * 1e9 / r.packets_transmitted.max(1) as f64);
                out.packets.push(r.packets_transmitted as f64);
                out.stale_dropped.push(r.stale_events_dropped as f64);
                ok &= grid_ok(&r);
            }
            Err(_) => ok = false,
        }

        for _ in 0..CLIQUE_REPS {
            let seed = inp.rng.next_u64();
            let cfg = clique_config(inp, seed);
            let Ok(sim) = Simulator::new(cfg) else {
                ok = false;
                continue;
            };
            let t1 = Instant::now();
            let r = sim.run();
            out.sim_units += r.elapsed;
            out.sim_wall_s += t1.elapsed().as_secs_f64();
            let gap = (r.groupput / t_sigma - 1.0).abs();
            let powers_ok = r.nodes.iter().zip(&inp.clique_nodes).all(|(node, p)| {
                ((node.average_power(r.elapsed) - p.budget_w) / p.budget_w).abs() < CLIQUE_BAND
            });
            ok &= r.groupput.is_finite()
                && r.groupput > 0.0
                && r.groupput <= oracle * (1.0 + CLIQUE_BAND)
                && powers_ok;
            out.gap.push(gap);
            out.oracle_ratio.push(r.groupput / oracle);
        }
        out.rounds += 1;
        if !ok {
            out.failed += 1;
        }
        out.round_us.push(us(t_round.elapsed()));
    }
    out.elapsed_s = t_all.elapsed().as_secs_f64();
    out
}

/// Per-layer figures of the simulator.
pub fn layer_metrics(run: &SimRun, m: &mut crate::util::Metrics) {
    m.put("sim.setup_ms", median(&run.setup_ms), "ms");
    m.put("sim.ns_per_packet", median(&run.ns_per_packet), "ns");
    m.put("sim.packets", median(&run.packets), "count");
    m.put(
        "sim.stale_events_dropped",
        median(&run.stale_dropped),
        "count",
    );
    m.put("sim.units_per_s", run.units_per_s(), "1/s");
    m.put("sim.gap", mean(&run.gap), "ratio");
}
