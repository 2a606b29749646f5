//! Seeded request generators for the serving workloads.
//!
//! Every request the stack receives comes from here, and only from a
//! seed: the same seed gives the same request stream. Instances are
//! drawn from the paper's parameter ranges — a 500 µW / 450 µW radio
//! with µW-scale harvesting budgets for the heterogeneous and in-grid
//! cliques, and the CC2500's measured 67.08 mW / 56.29 mW powers with
//! mW-scale budgets (above the grid's 10 mW roof) for the large
//! closed-form cliques.

use econcast_core::{NodeParams, ThroughputMode};
use econcast_service::PolicyRequest;

/// SplitMix64: a tiny, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Log-uniform in `[lo, hi)`.
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + self.unit() * (hi.ln() - lo.ln())).exp()
    }

    /// Exponential with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// A derived, independent stream (per client, per purpose).
    pub fn fork(&mut self, salt: u64) -> Rng {
        Rng::new(self.next_u64() ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }
}

/// Radio powers of the µW-budget instances (W).
pub const LISTEN_W: f64 = 500e-6;
pub const TRANSMIT_W: f64 = 450e-6;
/// CC2500 powers measured in the paper's testbed (W).
pub const CC2500_LISTEN_W: f64 = 67.08e-3;
pub const CC2500_TRANSMIT_W: f64 = 56.29e-3;

/// The temperatures and objectives every category draws from.
const SIGMAS: [f64; 2] = [0.25, 0.5];

/// Node counts of the in-grid homogeneous families. Few families, so
/// every backend shard builds each grid once during set-up and the
/// timed phase serves fresh budgets from resident grids.
pub const GRID_NS: [usize; 2] = [10, 50];

/// The instance classes of `cold_solve`, with their shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Heterogeneous anyput, N ≤ 10: the Gray-code kernel.
    HetGray,
    /// Heterogeneous groupput, or anyput with N > 10: the factorized
    /// kernel.
    HetFactorized,
    /// Homogeneous, budget above the grid's roof: the closed form.
    HomClosedForm,
    /// Homogeneous, budget inside the grid's range: a grid serve.
    HomGrid,
}

/// `cold_solve` class shares: half heterogeneous (split between the
/// two kernels), a quarter closed form, a quarter grid.
pub const CLASS_SHARES: [(Class, f64); 4] = [
    (Class::HetGray, 0.25),
    (Class::HetFactorized, 0.25),
    (Class::HomClosedForm, 0.25),
    (Class::HomGrid, 0.25),
];

fn objective(rng: &mut Rng) -> ThroughputMode {
    if rng.next_u64() & 1 == 0 {
        ThroughputMode::Groupput
    } else {
        ThroughputMode::Anyput
    }
}

fn sigma(rng: &mut Rng) -> f64 {
    SIGMAS[rng.range(0, SIGMAS.len() - 1)]
}

/// One fresh instance of `class`. Budgets are continuous draws, so two
/// draws share a canonical key only with negligible probability (the
/// generator tests pin that none repeat).
pub fn instance(rng: &mut Rng, class: Class) -> PolicyRequest {
    let u = rng.unit();
    instance_at(rng, class, u)
}

/// An instance of `class` whose size (and, for the factorized class,
/// objective) is set by the quantile `u ∈ [0, 1)`; everything else is
/// drawn from `rng`.
fn instance_at(rng: &mut Rng, class: Class, u: f64) -> PolicyRequest {
    let pick =
        |u: f64, lo: usize, hi: usize| lo + ((u * (hi - lo + 1) as f64) as usize).min(hi - lo);
    let het = |rng: &mut Rng, n: usize, objective: ThroughputMode| PolicyRequest {
        budgets_w: (0..n).map(|_| rng.log_uniform(2e-6, 60e-6)).collect(),
        listen_w: LISTEN_W,
        transmit_w: TRANSMIT_W,
        sigma: sigma(rng),
        objective,
        tolerance: 1e-2,
    };
    match class {
        Class::HetGray => het(rng, pick(u, 3, 8), ThroughputMode::Anyput),
        Class::HetFactorized => {
            if u < 0.5 {
                het(rng, pick(2.0 * u, 3, 32), ThroughputMode::Groupput)
            } else {
                het(rng, pick(2.0 * u - 1.0, 11, 20), ThroughputMode::Anyput)
            }
        }
        Class::HomClosedForm => {
            let n = pick(u, 50, 1000);
            let rho = rng.log_uniform(10.5e-3, 40e-3);
            PolicyRequest::homogeneous(
                n,
                NodeParams::new(rho, CC2500_LISTEN_W, CC2500_TRANSMIT_W),
                sigma(rng),
                objective(rng),
                1e-2,
            )
        }
        Class::HomGrid => {
            let n = GRID_NS[pick(u, 0, GRID_NS.len() - 1)];
            let rho = rng.log_uniform(2e-6, 60e-6);
            PolicyRequest::homogeneous(
                n,
                NodeParams::new(rho, LISTEN_W, TRANSMIT_W),
                sigma(rng),
                objective(rng),
                1e-2,
            )
        }
    }
}

/// Draws a class by [`CLASS_SHARES`].
pub fn class(rng: &mut Rng) -> Class {
    let u = rng.unit();
    let mut acc = 0.0;
    for (class, share) in CLASS_SHARES {
        acc += share;
        if u < acc {
            return class;
        }
    }
    CLASS_SHARES[CLASS_SHARES.len() - 1].0
}

/// The `cold_solve` stream: every request a fresh canonical instance.
#[derive(Debug, Clone)]
pub struct ColdStream {
    rng: Rng,
}

impl ColdStream {
    pub fn new(seed: u64, client: u64) -> Self {
        ColdStream {
            rng: Rng::new(seed).fork(0xC01D ^ client),
        }
    }

    pub fn next_request(&mut self) -> PolicyRequest {
        let class = class(&mut self.rng);
        instance(&mut self.rng, class)
    }

    #[cfg(test)]
    pub fn batch(&mut self, len: usize) -> Vec<PolicyRequest> {
        (0..len).map(|_| self.next_request()).collect()
    }
}

/// Every in-grid homogeneous family the generators draw from.
pub fn grid_families() -> Vec<(usize, f64, ThroughputMode)> {
    let mut out = Vec::new();
    for n in GRID_NS {
        for s in SIGMAS {
            for mode in [ThroughputMode::Groupput, ThroughputMode::Anyput] {
                out.push((n, s, mode));
            }
        }
    }
    out
}

/// The `warm_hot` working set: `len` distinct instances with exactly
/// `cold_solve`'s class shares, each class's sizes stratified over its
/// range (one draw per equal-width quantile bin), so the set's total
/// size — and with it the bytes a pass over it moves — barely varies
/// from seed to seed while every instance is still seeded. Served once
/// during set-up.
pub fn warm_set(seed: u64, len: usize) -> Vec<PolicyRequest> {
    let mut rng = Rng::new(seed).fork(0x3A2E);
    let mut out = Vec::with_capacity(len);
    for (c, (class, share)) in CLASS_SHARES.iter().enumerate() {
        let count = if c + 1 == CLASS_SHARES.len() {
            len - out.len()
        } else {
            (share * len as f64).round() as usize
        };
        for k in 0..count {
            let u = (k as f64 + rng.unit()) / count as f64;
            out.push(instance_at(&mut rng, *class, u));
        }
    }
    out
}

/// A stream cycling over the warm set in a seeded order: each client
/// walks its own seeded permutation, so batches mix the whole set.
#[derive(Debug, Clone)]
pub struct WarmStream {
    order: Vec<usize>,
    pos: usize,
}

impl WarmStream {
    pub fn new(seed: u64, client: u64, set_len: usize) -> Self {
        let mut rng = Rng::new(seed).fork(0x3A2F ^ client);
        let mut order: Vec<usize> = (0..set_len).collect();
        for i in (1..order.len()).rev() {
            let j = rng.range(0, i);
            order.swap(i, j);
        }
        WarmStream { order, pos: 0 }
    }

    pub fn next_index(&mut self) -> usize {
        let i = self.order[self.pos % self.order.len()];
        self.pos += 1;
        i
    }
}

/// One request of the `open_mixed` stream: a warm-set index, or a
/// fresh instance.
#[derive(Debug, Clone)]
pub enum MixedItem {
    Warm(usize),
    Fresh(PolicyRequest),
}

/// The `open_mixed` stream: mostly warm-set hits with a minority of
/// fresh `cold_solve` instances.
#[derive(Debug, Clone)]
pub struct MixedStream {
    rng: Rng,
    warm: WarmStream,
    cold: ColdStream,
    fresh_share: f64,
}

impl MixedStream {
    pub fn new(seed: u64, conn: u64, set_len: usize, fresh_share: f64) -> Self {
        MixedStream {
            rng: Rng::new(seed).fork(0x0BE1 ^ conn),
            warm: WarmStream::new(seed, 0x100 + conn, set_len),
            cold: ColdStream::new(seed, 0x200 + conn),
            fresh_share,
        }
    }

    pub fn next_item(&mut self) -> MixedItem {
        if self.rng.unit() < self.fresh_share {
            MixedItem::Fresh(self.cold.next_request())
        } else {
            MixedItem::Warm(self.warm.next_index())
        }
    }

    /// Exponential inter-arrival gap (s) for a Poisson process at
    /// `rate` arrivals per second.
    pub fn gap_s(&mut self, rate: f64) -> f64 {
        self.rng.exponential(1.0 / rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use econcast_service::GridConfig;
    use econcast_statespace::{CanonicalInstance, InstanceKey};
    use std::collections::HashSet;

    fn key(r: &PolicyRequest) -> InstanceKey {
        CanonicalInstance::new(
            &r.budgets_w,
            r.listen_w,
            r.transmit_w,
            r.sigma,
            r.objective,
            r.tolerance,
        )
        .key
    }

    #[test]
    fn same_seed_gives_identical_requests() {
        assert_eq!(
            ColdStream::new(7, 0).batch(500),
            ColdStream::new(7, 0).batch(500)
        );
        assert_ne!(
            ColdStream::new(7, 0).batch(50),
            ColdStream::new(8, 0).batch(50)
        );
        assert_eq!(warm_set(3, 300), warm_set(3, 300));
        let items = |seed| {
            let mut s = MixedStream::new(seed, 1, 64, 0.1);
            (0..400)
                .map(|_| match s.next_item() {
                    MixedItem::Warm(i) => format!("w{i}"),
                    MixedItem::Fresh(r) => format!("{r:?}"),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(items(11), items(11));
    }

    #[test]
    fn cold_solve_never_repeats_a_canonical_key() {
        let mut seen = HashSet::new();
        for client in 0..2 {
            let mut s = ColdStream::new(42, client);
            for _ in 0..20_000 {
                assert!(seen.insert(key(&s.next_request())), "repeated key");
            }
        }
    }

    #[test]
    fn generated_requests_validate_and_hit_their_class() {
        let mut rng = Rng::new(5);
        let grid = GridConfig::default();
        for _ in 0..2000 {
            let class = class(&mut rng);
            let r = instance(&mut rng, class);
            assert!(r.validate().is_ok());
            let canon = key(&r);
            let homogeneous = r.budgets_w.iter().all(|&b| b == r.budgets_w[0]);
            match class {
                Class::HetGray => {
                    assert!(!homogeneous && r.num_nodes() <= 10);
                    assert_eq!(r.objective, ThroughputMode::Anyput);
                }
                Class::HetFactorized => {
                    assert!(!homogeneous);
                    assert!(r.objective == ThroughputMode::Groupput || r.num_nodes() > 10);
                }
                Class::HomClosedForm => {
                    assert!(homogeneous && r.budgets_w[0] > grid.rho_max_w);
                    assert!((50..=1000).contains(&canon.num_nodes()));
                }
                Class::HomGrid => {
                    assert!(homogeneous);
                    assert!((grid.rho_min_w..=grid.rho_max_w).contains(&r.budgets_w[0]));
                }
            }
        }
    }

    #[test]
    fn open_mixed_fresh_share_is_as_recorded() {
        let share = crate::OPEN_FRESH_SHARE;
        let mut s = MixedStream::new(9, 0, 256, share);
        let n = 40_000;
        let fresh = (0..n)
            .filter(|_| matches!(s.next_item(), MixedItem::Fresh(_)))
            .count();
        let observed = fresh as f64 / n as f64;
        // Binomial standard error at n = 40 000 is ≈ 0.0015.
        assert!(
            (observed - share).abs() < 0.006,
            "fresh share {observed} vs recorded {share}"
        );
    }
}
