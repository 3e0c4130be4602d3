//! Elastic replanning: resolving a `replan` request against the daemon's
//! memory of prior requests.
//!
//! A replan names its prior plan by fingerprint and describes the cluster
//! change as a [`ClusterDelta`]. The cache stores only the *plan* under
//! that fingerprint (deliberately — entries must stay small), so the
//! daemon additionally remembers the request triple `(graph, cluster,
//! options)` of recently planned fingerprints in a bounded FIFO
//! [`ReplanIndex`]. A replan needs both halves: the triple to rebuild the
//! request on the post-delta cluster, and the cached plan to seed
//! synthesis warm and to diff against. Either half missing — never
//! planned, expired, or evicted — answers with a typed
//! `unknown_fingerprint` frame, and clients fall back to a cold `plan`.
//!
//! The index survives restarts: every persisted cache record embeds the
//! request triple as a `"req"` field ([`hap_codec::persist_line_with_req`])
//! and boot rebuilds the index from the log, verifying each recovered
//! triple actually fingerprints to its record's key before trusting it.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use hap_cluster::{ClusterDelta, ClusterSpec};
use hap_codec::{
    request_fingerprint_values, Decode, Encode, Value, WireError, UNKNOWN_FINGERPRINT_KIND,
};

use crate::cache::CachedPlan;
use crate::dispatch::Shared;

/// The remembered request behind a fingerprint.
#[derive(Clone)]
pub(crate) struct RequestTriple {
    pub graph: Value,
    pub cluster: Value,
    pub options: Value,
}

impl RequestTriple {
    /// The triple in its wire/persist object form — a cache record's
    /// `"req"` field and a `replicate` frame's `"req"` field alike.
    pub(crate) fn encode_req(&self) -> Value {
        Value::obj(vec![
            ("graph", self.graph.clone()),
            ("cluster", self.cluster.clone()),
            ("options", self.options.clone()),
        ])
    }

    /// Decodes the object form back into a triple. Returns `None` when a
    /// field is missing — callers treat a malformed triple as absent.
    pub(crate) fn decode_req(v: &Value) -> Option<RequestTriple> {
        Some(RequestTriple {
            graph: v.get("graph")?.clone(),
            cluster: v.get("cluster")?.clone(),
            options: v.get("options")?.clone(),
        })
    }
}

/// A bounded FIFO map from request fingerprint to its request triple.
///
/// Insertion order is eviction order: replans target *recent* plans, and
/// FIFO keeps the structure O(1) without the cache's sharded-LRU weight.
pub(crate) struct ReplanIndex {
    cap: usize,
    map: HashMap<u64, Arc<RequestTriple>>,
    order: VecDeque<u64>,
}

impl ReplanIndex {
    pub fn new(cap: usize) -> Self {
        ReplanIndex { cap: cap.max(1), map: HashMap::new(), order: VecDeque::new() }
    }

    /// Remembers `fp → triple`, evicting the oldest entry at capacity.
    /// Re-recording a known fingerprint is a no-op (the triple is a pure
    /// function of the fingerprint).
    pub fn record(&mut self, fp: u64, triple: Arc<RequestTriple>) {
        if self.map.contains_key(&fp) {
            return;
        }
        if self.map.len() >= self.cap {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
            }
        }
        self.map.insert(fp, triple);
        self.order.push_back(fp);
    }

    pub fn get(&self, fp: u64) -> Option<Arc<RequestTriple>> {
        self.map.get(&fp).cloned()
    }

    /// True when the fingerprint is already recorded (lets callers skip
    /// building a triple on the hot path).
    pub fn contains(&self, fp: u64) -> bool {
        self.map.contains_key(&fp)
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.map.len()
    }
}

/// A replan resolved to a concrete planning request: the prior request's
/// graph and options, the post-delta cluster, the new fingerprint, and the
/// prior plan to seed synthesis with and diff against.
pub(crate) struct PreparedReplan {
    pub fp: u64,
    pub triple: Arc<RequestTriple>,
    pub prior: Arc<CachedPlan>,
}

/// Resolves a replan request: looks up the prior request and plan, applies
/// the delta, fingerprints the post-delta request, and records it in the
/// index so replans chain. Every failure is a typed [`WireError`].
pub(crate) fn prepare(
    shared: &Shared,
    prior_fp: u64,
    delta: &ClusterDelta,
) -> Result<PreparedReplan, WireError> {
    let prior_triple =
        crate::sync::lock_recover(&shared.replans).get(prior_fp).ok_or_else(|| {
            WireError::new(
                UNKNOWN_FINGERPRINT_KIND,
                format!(
                    "no request recorded for {}; plan it cold first",
                    hap_codec::render_fingerprint(prior_fp)
                ),
            )
        })?;
    let prior = shared.cache.get(prior_fp).ok_or_else(|| {
        WireError::new(
            UNKNOWN_FINGERPRINT_KIND,
            format!(
                "plan {} expired or was evicted; plan it cold first",
                hap_codec::render_fingerprint(prior_fp)
            ),
        )
    })?;
    let prior_cluster = ClusterSpec::decode(&prior_triple.cluster).map_err(WireError::from)?;
    let next_cluster = delta.apply(&prior_cluster).map_err(|e| WireError::from(&e))?;
    let triple = Arc::new(RequestTriple {
        graph: prior_triple.graph.clone(),
        cluster: next_cluster.encode(),
        options: prior_triple.options.clone(),
    });
    let fp = request_fingerprint_values(&triple.graph, &triple.cluster, &triple.options);
    crate::sync::lock_recover(&shared.replans).record(fp, triple.clone());
    Ok(PreparedReplan { fp, triple, prior })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triple(tag: u64) -> Arc<RequestTriple> {
        Arc::new(RequestTriple {
            graph: Value::int(tag),
            cluster: Value::int(tag),
            options: Value::int(tag),
        })
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let mut index = ReplanIndex::new(2);
        index.record(1, triple(1));
        index.record(2, triple(2));
        index.record(3, triple(3));
        assert_eq!(index.len(), 2);
        assert!(index.get(1).is_none());
        assert!(index.get(2).is_some());
        assert!(index.get(3).is_some());
    }

    #[test]
    fn re_recording_does_not_duplicate() {
        let mut index = ReplanIndex::new(2);
        index.record(1, triple(1));
        index.record(1, triple(1));
        index.record(2, triple(2));
        index.record(3, triple(3));
        // fp 1 was recorded once, so it is the FIFO victim exactly once.
        assert_eq!(index.len(), 2);
        assert!(index.get(1).is_none());
    }
}
