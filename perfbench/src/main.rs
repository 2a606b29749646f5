//! `perfbench` — the repository's benchmark: one command that runs a
//! named workload against the production serving stack (or the
//! paper's simulator), checks every answer, and prints each metric by
//! name with its unit.
//!
//! ```text
//! perfbench --workload <cold_solve|warm_hot|open_mixed|sim_grid>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` runs the
//! separate traced run and prints the per-layer metrics. The last
//! line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod check;
mod serve;
mod sim;
mod stack;
mod trace;
mod util;
mod workload;

pub use serve::OPEN_FRESH_SHARE;

use serve::{Kind, SLO_LIMIT_US};
use util::{median, peak_rss_mb, quantile, Metrics};

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <cold_solve|warm_hot|open_mixed|sim_grid> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("--seed must be a non-negative integer")),
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .unwrap_or_else(|_| usage("--seconds must be a number"));
                if !(s > 0.0 && s <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                })
            }
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or(false),
    }
}

/// The result line's fields.
pub struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn main() {
    let args = parse_args();
    let kind = match args.workload.as_str() {
        "cold_solve" => Some(Kind::ColdSolve),
        "warm_hot" => Some(Kind::WarmHot),
        "open_mixed" => Some(Kind::OpenMixed),
        "sim_grid" => None,
        other => usage(&format!("unknown workload `{other}`")),
    };
    let result = match (kind, args.trace) {
        (Some(kind), false) => run_serving(kind, &args),
        (None, false) => run_sim(&args),
        (kind, true) => trace::run(kind, args.seed, args.seconds),
    };
    match result {
        Ok(out) => {
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                out.correct,
                out.attempted,
                out.failed,
                out.metrics.to_json()
            );
            if !out.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Prints one human-readable line (never the last line of stdout).
fn note(line: String) {
    println!("# {line}");
}

/// The reported figures of one serving run.
struct Figures {
    /// The reported phase's tally (open loop: the middle rung).
    tally: check::Tally,
    goodput_rps: f64,
    p50_us: f64,
    p99_us: f64,
    /// Latency samples (µs); unanswered batches count as infinite.
    lat_us: Vec<f64>,
    lag_us: Vec<f64>,
    /// Requests sent and wrong answers over the whole timed phase.
    sent: u64,
    wrong: u64,
}

/// Closed loop: goodput, p50 and p99 are medians over the run's
/// segments, which makes them robust to a transient stall of the
/// machine (on `cold_solve` a segment's p99 rests on about 100 batches).
fn closed_figures(kind: Kind, args: &Args, prep: &serve::Prepared) -> Result<Figures, String> {
    let run = serve::closed_loop(kind, args.seed, prep, args.seconds)?;
    Ok(Figures {
        goodput_rps: median(&run.segment_goodput),
        p50_us: median(&run.segment_p50_us),
        p99_us: median(&run.segment_p99_us),
        sent: run.tally.attempted,
        wrong: run.tally.wrong,
        tally: run.tally,
        lat_us: run.lat_us,
        lag_us: run.lag_us,
    })
}

/// Open loop: the frozen ladder; the middle rung is reported.
fn open_figures(args: &Args, prep: &serve::Prepared) -> Result<Figures, String> {
    let rungs = serve::open_loop(args.seed, prep, args.seconds)?;
    let mut max_slo = 0.0;
    let mut lag_us = Vec::new();
    let mut all = check::Tally::default();
    let mut middle = None;
    for (i, mut r) in rungs.into_iter().enumerate() {
        r.tally.settle()?;
        note(format!(
            "rung {:>7.0} req/s: {} batches, p50 {:.0} µs, p99 {:.0} µs, backlog {}, failed {}, \
             lag p99 {:.0} µs, meets p99 ≤ {SLO_LIMIT_US} µs: {}",
            r.offered_rps,
            r.batches,
            median(&r.lat_us),
            r.p99_us(),
            r.backlog_at_end,
            r.tally.failed,
            quantile(&r.lag_us, 0.99),
            r.meets_slo()
        ));
        if r.meets_slo() {
            max_slo = r.offered_rps;
        }
        lag_us.extend_from_slice(&r.lag_us);
        all.merge(r.tally.clone());
        if i == serve::OPEN_MIDDLE {
            middle = Some(r);
        }
    }
    note(format!(
        "max ladder rate meeting the limit: {max_slo} req/s"
    ));
    let mid = middle.expect("the ladder has a middle rung");
    let mut lat_us = mid.lat_us.clone();
    lat_us.resize(mid.batches as usize, f64::INFINITY);
    Ok(Figures {
        goodput_rps: mid.tally.ok as f64 / mid.duration_s,
        p50_us: median(&lat_us),
        p99_us: quantile(&lat_us, 0.99),
        lat_us,
        lag_us,
        sent: all.attempted,
        wrong: all.wrong,
        tally: mid.tally,
    })
}

fn run_serving(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let (prep, setup_s) = serve::prepare(kind, args.seed, serve::SETUPS)?;
    let before = prep
        .stack
        .scrape()
        .map_err(|e| format!("scrape failed: {e}"))?;
    let fig = match kind {
        Kind::OpenMixed => open_figures(args, &prep)?,
        _ => closed_figures(kind, args, &prep)?,
    };
    let after = prep
        .stack
        .scrape()
        .map_err(|e| format!("scrape failed: {e}"))?;
    let counted = after.requests - before.requests;
    note(format!(
        "requests sent {}, counted by the scrape {counted}; wrong answers {}",
        fig.sent, fig.wrong
    ));
    let lat = &fig.lat_us;
    note(format!(
        "latency samples (batches): {}; p90 {:.0} µs, p95 {:.0} µs, p99 {:.0} µs, max {:.0} µs; \
         generator lag p99 {:.1} µs",
        lat.len(),
        quantile(lat, 0.90),
        quantile(lat, 0.95),
        quantile(lat, 0.99),
        quantile(lat, 1.0),
        quantile(&fig.lag_us, 0.99)
    ));
    let tally = &fig.tally;
    let mut correct = counted == fig.sent && fig.wrong == 0 && tally.attempted > 0;
    if kind != Kind::OpenMixed {
        correct &= tally.failed == 0;
    }
    let mut m = Metrics::default();
    m.put("goodput_rps", fig.goodput_rps, "req/s");
    m.put("latency_p50_us", fig.p50_us, "us");
    m.put("latency_p99_us", fig.p99_us, "us");
    m.put(
        "ok_frac",
        tally.ok as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
    m.put("policy_ratio_mean", tally.ratio_mean(), "ratio");
    m.put("setup_s", setup_s, "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    prep.stack.shutdown();
    Ok(Outcome {
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
    })
}

fn run_sim(args: &Args) -> Result<Outcome, String> {
    let setups = (0..sim::SETUPS)
        .map(|_| sim::setup_once(args.seed))
        .collect::<Result<Vec<f64>, String>>()?;
    let mut inputs = sim::inputs(args.seed);
    let run = sim::run(&mut inputs, args.seconds);
    note(format!(
        "{} rounds in {:.2} s; {:.0} sim units/s; mean |sim/T^σ − 1| {:.4} over {} clique runs",
        run.rounds,
        run.elapsed_s,
        run.units_per_s(),
        util::mean(&run.gap),
        run.gap.len()
    ));
    let ok = run.rounds - run.failed;
    let mut m = Metrics::default();
    m.put("goodput_rps", ok as f64 / run.elapsed_s, "req/s");
    m.put("latency_p50_us", median(&run.round_us), "us");
    m.put("latency_p99_us", quantile(&run.round_us, 0.99), "us");
    m.put("ok_frac", ok as f64 / run.rounds as f64, "ratio");
    m.put("policy_ratio_mean", util::mean(&run.oracle_ratio), "ratio");
    m.put("setup_s", median(&setups), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(Outcome {
        correct: run.failed == 0,
        attempted: run.rounds,
        failed: run.failed,
        metrics: m,
    })
}
