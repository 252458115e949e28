//! Correctness checks, run untimed after the measured phase: served
//! answers against the dense power-iteration oracle on the graph they
//! were served on, and socket answers against the same requests served
//! in process, bit for bit.

use ppr_core::power::power_iteration;
use ppr_core::PprConfig;
use ppr_graph::{CsrGraph, NodeId};
use ppr_serve::{Request, Response};
use std::collections::HashMap;
use std::sync::Arc;

/// One served answer kept for the oracle check.
#[derive(Clone)]
pub struct Sample {
    pub request: Request,
    pub response: Response,
    /// The graph of the epoch the answer was served in.
    pub graph: Arc<CsrGraph>,
}

/// Tolerance of the ε contract: a query built at tolerance ε is within
/// 2ε/α of the power-iteration ground truth, entry by entry.
pub fn bound(cfg: &PprConfig) -> f64 {
    2.0 * cfg.epsilon / cfg.alpha
}

/// Check every sample; returns the number of wrong answers.
pub fn check(samples: &[Sample], cfg: &PprConfig) -> usize {
    let truth_cfg = PprConfig {
        epsilon: 1e-10,
        ..*cfg
    };
    let tol = bound(cfg);
    let mut memo: HashMap<(usize, NodeId), Vec<f64>> = HashMap::new();
    let mut wrong = 0;
    for s in samples {
        let key = Arc::as_ptr(&s.graph) as usize;
        let mut truth = |u: NodeId| -> Vec<f64> {
            memo.entry((key, u))
                .or_insert_with(|| power_iteration(&*s.graph, u, &truth_cfg))
                .clone()
        };
        let oracle: Vec<f64> = match &s.request {
            Request::Ppv(u) | Request::TopK { source: u, .. } => truth(*u),
            Request::Preference(pref) => {
                let mut acc = vec![0.0; s.graph.node_count()];
                for &(u, w) in pref {
                    for (a, t) in acc.iter_mut().zip(truth(u)) {
                        *a += w * t;
                    }
                }
                acc
            }
        };
        let ok = match (&s.request, &s.response) {
            (Request::TopK { k, .. }, Response::TopK(list)) => top_k_ok(list, *k, &oracle, tol),
            (Request::Ppv(_) | Request::Preference(_), Response::Ppv(v)) => {
                let mut dense = vec![0.0; oracle.len()];
                let mut in_range = true;
                for (id, x) in v.iter() {
                    match dense.get_mut(id as usize) {
                        Some(d) => *d = x,
                        None => in_range = false,
                    }
                }
                in_range && dense.iter().zip(&oracle).all(|(a, b)| (a - b).abs() <= tol)
            }
            _ => false,
        };
        if !ok {
            wrong += 1;
        }
    }
    wrong
}

/// A top-k list is right when it is sorted, every score matches the
/// oracle, and nothing left out beats the weakest entry by more than the
/// tolerance on both sides.
fn top_k_ok(list: &[(NodeId, f64)], k: usize, oracle: &[f64], tol: f64) -> bool {
    if list.len() > k || list.windows(2).any(|w| w[0].1 < w[1].1) {
        return false;
    }
    let scores_ok = list
        .iter()
        .all(|&(v, s)| oracle.get(v as usize).is_some_and(|t| (s - t).abs() <= tol));
    let mut sorted = oracle.to_vec();
    sorted.sort_unstable_by(|a, b| b.total_cmp(a));
    let weakest = list.last().map_or(0.0, |&(_, s)| s);
    let kth = sorted.get(k.saturating_sub(1)).copied().unwrap_or(0.0);
    scores_ok && (list.len() == k || kth <= 2.0 * tol) && kth <= weakest + 2.0 * tol
}

/// FNV-1a over a response's ids and value bits (`to_bits`, so
/// `0.0` and `-0.0` differ): equal fingerprints mean, barring a 64-bit
/// collision, bit-identical answers.
pub fn fingerprint(r: &Response) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    };
    match r {
        Response::Ppv(v) => {
            eat(0);
            for (id, x) in v.iter() {
                eat(u64::from(id));
                eat(x.to_bits());
            }
        }
        Response::TopK(list) => {
            eat(1);
            for &(id, x) in list {
                eat(u64::from(id));
                eat(x.to_bits());
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_core::SparseVector;

    #[test]
    fn fingerprint_sees_every_bit() {
        let a = Response::TopK(vec![(1, 0.5), (2, 0.25)]);
        let b = Response::TopK(vec![(1, 0.5), (2, 0.25)]);
        let c = Response::TopK(vec![(1, 0.5), (2, f64::from_bits(0.25f64.to_bits() + 1))]);
        let d = Response::TopK(vec![(1, 0.0)]);
        let e = Response::TopK(vec![(1, -0.0)]);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
        assert_ne!(fingerprint(&d), fingerprint(&e));
        assert_ne!(
            fingerprint(&Response::Ppv(SparseVector::new())),
            fingerprint(&Response::TopK(Vec::new()))
        );
    }
}
