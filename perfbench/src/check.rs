//! Correctness of every served response.
//!
//! A response is correct when its weak-duality certificate is
//! consistent (`AchievabilityGap::is_consistent` at the request's
//! tolerance tier) and its policies match an in-process
//! `PolicyService` reference serve of the same request within that
//! tier. Warm-set responses are checked as they arrive against a
//! reference computed once per instance; fresh instances are kept and
//! checked after the timed phase.

use econcast_proto::service::WirePolicyResponse;
use econcast_service::{PolicyRequest, PolicyResponse, PolicyService, ServiceConfig, WireResult};
use econcast_statespace::{quantize_tolerance, CanonicalInstance};

pub fn canonical(req: &PolicyRequest) -> CanonicalInstance {
    CanonicalInstance::new(
        &req.budgets_w,
        req.listen_w,
        req.transmit_w,
        req.sigma,
        req.objective,
        req.tolerance,
    )
}

/// Serves `reqs` through a fresh in-process reference service in
/// chunks of `batch` (any chunking gives the same policies: solves are
/// deterministic and cached entries are the producing solve's bits).
pub fn reference_serve(
    reqs: &[&PolicyRequest],
    batch: usize,
) -> Result<Vec<PolicyResponse>, String> {
    let mut svc = PolicyService::new(ServiceConfig::default());
    let mut out = Vec::with_capacity(reqs.len());
    for chunk in reqs.chunks(batch) {
        let owned: Vec<PolicyRequest> = chunk.iter().map(|r| (*r).clone()).collect();
        for r in svc.serve_batch(&owned) {
            out.push(r.map_err(|e| format!("reference serve rejected a request: {e}"))?);
        }
    }
    Ok(out)
}

fn close(a: f64, b: f64, tier: f64) -> bool {
    a.to_bits() == b.to_bits() || (a - b).abs() <= tier * a.abs().max(b.abs()) + 1e-15
}

/// Whether a served wire response is correct for `req` given the
/// reference serve of the same request.
pub fn response_ok(req: &PolicyRequest, got: &WirePolicyResponse, want: &PolicyResponse) -> bool {
    let tier = quantize_tolerance(req.tolerance);
    let served = PolicyResponse::from_wire(got, req.sigma);
    served.certificate.is_consistent(tier)
        && served.policies.len() == want.policies.len()
        && close(served.throughput, want.throughput, tier)
        && served
            .policies
            .iter()
            .zip(&want.policies)
            .all(|(p, q)| close(p.listen, q.listen, tier) && close(p.transmit, q.transmit, tier))
}

/// Per-thread tallies of one measured phase.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered with a typed error (including `Overloaded`),
    /// lost to a transport error, or answered wrongly.
    pub failed: u64,
    /// Of `failed`: responses whose policies or certificate were wrong.
    pub wrong: u64,
    /// Correct responses.
    pub ok: u64,
    /// Sum of `T^σ/T*` over correct responses.
    pub ratio_sum: f64,
    /// Fresh instances awaiting the post-run reference check.
    pub pending: Vec<(PolicyRequest, WirePolicyResponse)>,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.ok += other.ok;
        self.ratio_sum += other.ratio_sum;
        self.pending.extend(other.pending);
    }

    fn pass(&mut self, resp: &WirePolicyResponse) {
        self.ok += 1;
        self.ratio_sum += resp.cert_t_sigma / resp.cert_oracle;
    }

    fn fail_wrong(&mut self) {
        self.failed += 1;
        self.wrong += 1;
    }

    /// Files one warm-set result, checked against its reference now.
    pub fn warm(&mut self, req: &PolicyRequest, result: &WireResult, want: &PolicyResponse) {
        self.attempted += 1;
        match result {
            Ok(resp) if response_ok(req, resp, want) => self.pass(resp),
            Ok(_) => self.fail_wrong(),
            Err(_) => self.failed += 1,
        }
    }

    /// Files one fresh-instance result for the post-run check.
    pub fn fresh(&mut self, req: &PolicyRequest, result: WireResult) {
        self.attempted += 1;
        match result {
            Ok(resp) => self.pending.push((req.clone(), resp)),
            Err(_) => self.failed += 1,
        }
    }

    /// A batch lost to a transport error: every request in it failed.
    pub fn lost(&mut self, n: usize) {
        self.attempted += n as u64;
        self.failed += n as u64;
    }

    /// Checks every pending fresh response against a reference serve.
    pub fn settle(&mut self) -> Result<(), String> {
        let pending = std::mem::take(&mut self.pending);
        let reqs: Vec<&PolicyRequest> = pending.iter().map(|(r, _)| r).collect();
        let want = reference_serve(&reqs, 64)?;
        for ((req, got), want) in pending.iter().zip(&want) {
            if response_ok(req, got, want) {
                self.pass(got);
            } else {
                self.fail_wrong();
            }
        }
        Ok(())
    }

    pub fn ratio_mean(&self) -> f64 {
        if self.ok == 0 {
            f64::NAN
        } else {
            self.ratio_sum / self.ok as f64
        }
    }
}
