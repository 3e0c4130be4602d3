//! The distributed plan-cache tier's soak (CI: `cluster-soak`): three
//! daemons on a consistent-hash ring with K=2 replication, driven over
//! real loopback sockets through the ring-aware [`ClusterClient`].
//!
//! What the harness proves:
//!
//! * **Ring-wide single flight** — duplicate requests synthesize exactly
//!   once *cluster-wide*: non-owners proxy to the fingerprint's primary
//!   instead of synthesizing, counter-asserted across all daemons.
//! * **Typed redirects** — a daemon receiving a request stamped with a
//!   different membership epoch answers `not_owner` with the owner's
//!   address; clients follow it and adopt the newer ring.
//! * **Kill/rejoin chaos** — killing a plan's primary owner mid-traffic
//!   loses nothing acknowledged (synchronous K-way replication moved the
//!   plan before the ack), the surviving replica re-covers the range from
//!   cache, and a rejoined node picks up its share again.
//! * **Bit identity throughout** — every reply, through every route
//!   (direct, proxied, failed-over, replicated, replanned), carries the
//!   exact bits of in-process cold synthesis.
//!
//! The schedule *order* is seeded (`HAP_CLUSTER_SEED`, logged so a
//! failing randomized CI run is reproducible); request content and
//! fingerprints are fixed, so the assertions hold for every seed.

use std::collections::HashMap;

use hap_service::testing::{self, hot_hit_rate, hot_request, ReplyBits, StressCluster, StressOp};
use hap_service::{
    Client, ClusterClient, RetryPolicy, Ring, RingInfo, Server, ServiceConfig, StatsSnapshot,
};

const HOT_N: usize = 6;
const FLOOD_N: usize = 8;
const REPEATS: usize = 2;
const REPLICATION: u32 = 2;

fn cluster_seed() -> u64 {
    std::env::var("HAP_CLUSTER_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC1A5_7E12)
}

/// The bits cold in-process synthesis produces for hot request `i` — the
/// ground truth every wire reply must match.
fn cold_bits(i: usize) -> ReplyBits {
    let req = hot_request(i);
    let plan = hap::parallelize(&req.graph, &req.cluster, &req.options).unwrap();
    ReplyBits {
        program_fp: plan.program.fingerprint(),
        time_bits: plan.estimated_time.to_bits(),
        ratio_bits: plan
            .ratios
            .iter()
            .map(|row| row.iter().map(|b| b.to_bits()).collect())
            .collect(),
    }
}

/// Every hot reply in `outcomes` must carry its fingerprint's known bits.
fn assert_hot_bits(outcomes: &[testing::StepOutcome], bits: &HashMap<usize, ReplyBits>, tag: &str) {
    for o in outcomes {
        if let StressOp::Hot(i) = o.op {
            assert_eq!(&o.bits, &bits[&i], "{tag}: hot-{i} plan drifted");
        }
    }
}

#[test]
fn ring_verb_reports_membership_and_daemons_agree() {
    let cluster = StressCluster::start(3, REPLICATION, |_, _| {});
    for addr in cluster.addrs() {
        let mut client = Client::connect(&*addr).unwrap();
        let (info, self_addr, installed) = client.ring().unwrap();
        assert!(!installed, "a plain query installs nothing");
        assert_eq!(info.epoch, 1);
        assert_eq!(info.replication, REPLICATION);
        assert_eq!(info.members.len(), 3);
        assert_eq!(self_addr, addr, "each daemon knows its own ring address");
        assert!(info.members.contains(&addr));
    }
    // A stale (equal-epoch) install is rejected, monotonically.
    let info = cluster.ring().info().clone();
    let mut client = Client::connect(cluster.addr(0)).unwrap();
    assert!(!client.install_ring(&info, cluster.addr(0)).unwrap(), "equal epoch is stale");
}

#[test]
fn cluster_routes_replicates_and_keeps_single_flight_ring_wide() {
    let cluster = StressCluster::start(3, REPLICATION, |_, _| {});
    let mut client = ClusterClient::connect(&cluster.addrs()).unwrap();
    assert_eq!(client.ring_epoch(), 1, "the client learned the ring from its seeds");

    // Cold pass: every plan synthesizes once, at its fingerprint's owner.
    for i in 0..HOT_N {
        let req = hot_request(i);
        let reply = client.plan(&req.graph, &req.cluster, &req.options).unwrap();
        assert_eq!(reply.source, "synthesized", "hot-{i} cold");
        assert_eq!(ReplyBits::of(&reply), cold_bits(i), "hot-{i} differs from in-process plan");
    }
    // Warm pass: all hits, no new syntheses anywhere.
    for i in 0..HOT_N {
        let req = hot_request(i);
        let reply = client.plan(&req.graph, &req.cluster, &req.options).unwrap();
        assert_eq!(reply.source, "cache", "hot-{i} warm");
    }
    assert_eq!(client.redirects_followed(), 0, "ring-aware routing needs no redirects");
    assert_eq!(client.failovers(), 0);

    // Ring-wide single flight, counter-asserted across all daemons: N
    // distinct fingerprints → exactly N syntheses in the whole cluster.
    assert_eq!(cluster.total(|s| s.synthesized), HOT_N as u64);
    // Synchronous K=2 replication: every plan was acked by exactly one
    // other owner before its requester saw the response.
    assert_eq!(cluster.total(|s| s.replicated_out), HOT_N as u64);
    assert_eq!(cluster.total(|s| s.replicated_in), HOT_N as u64);
    assert_eq!(cluster.total(|s| s.shed), 0);
    assert_eq!(cluster.total(|s| s.errors), 0);

    // A ring-naive client asking a *non-owner* is proxied to the owner —
    // not answered with a locally synthesized duplicate. (The replica
    // would answer from its own replicated cache; the one daemon that
    // owns nothing of this fingerprint must forward.)
    let fp = hot_request(0).fingerprint();
    let other = (0..3).find(|&i| !cluster.is_owner(i, fp)).unwrap();
    let synthesized_before = cluster.total(|s| s.synthesized);
    let mut naive = Client::connect(cluster.addr(other)).unwrap();
    let req = hot_request(0);
    let reply = naive.plan(&req.graph, &req.cluster, &req.options).unwrap();
    assert_eq!(reply.source, "cache", "the owner answered from its cache through the proxy");
    assert_eq!(ReplyBits::of(&reply), cold_bits(0), "proxied reply is byte-faithful");
    assert_eq!(
        cluster.total(|s| s.synthesized),
        synthesized_before,
        "proxying synthesizes nothing"
    );
    assert_eq!(cluster.service(other).stats().proxied, 1);
}

#[test]
fn stale_epoch_requests_get_typed_redirects_and_clients_follow() {
    let mut cluster = StressCluster::start(2, 1, |_, _| {});
    let ring_before = cluster.ring();
    let stable = cluster.addr(0).to_string();

    // The client learns epoch 1: members [node0, node1].
    let mut client = ClusterClient::connect(&cluster.addrs()).unwrap();
    assert_eq!(client.ring_epoch(), 1);

    // Membership churn the client does not see: node 1 dies and rejoins
    // on a fresh port. The ephemeral-port allocator may hand the rejoiner
    // its old port back — identical address, identical token map, nothing
    // moves — so churn until the address genuinely changed.
    let old_addr = cluster.addr(1).to_string();
    cluster.kill(1);
    cluster.rejoin(1);
    while cluster.addr(1) == old_addr {
        cluster.kill(1);
        cluster.rejoin(1);
    }
    assert!(cluster.epoch() >= 3);
    let ring_after = cluster.ring();

    // A fingerprint the stale client routes to node 0, which the *new*
    // ring assigns to the rejoined node: node 0 must answer with a typed
    // `not_owner` redirect naming the rejoined node, and the client must
    // follow it and adopt epoch 3.
    let moved = (0..256)
        .find(|&i| {
            let fp = hot_request(i).fingerprint();
            ring_before.primary(fp) == Some(stable.as_str())
                && ring_after.primary(fp) != Some(stable.as_str())
        })
        .expect("some fingerprint moved off node 0 across the churn");
    let req = hot_request(moved);
    let reply = client.plan(&req.graph, &req.cluster, &req.options).unwrap();
    assert_eq!(reply.source, "synthesized");
    assert_eq!(ReplyBits::of(&reply), cold_bits(moved));
    assert!(client.redirects_followed() >= 1, "the stale route had to be redirected");
    assert_eq!(
        client.ring_epoch(),
        cluster.epoch(),
        "following the redirect taught the client the new ring"
    );
    let stats0 = cluster.service(0).stats();
    assert!(stats0.redirected >= 1, "node 0 redirected the stale request: {stats0:?}");
    assert_eq!(stats0.errors, 0, "redirects are routing, not errors: {stats0:?}");
}

/// The acceptance soak: 3 daemons, K=2, seeded hot+flood+replan traffic,
/// with the primary owner of a hot plan killed mid-run and rejoined after.
#[test]
fn cluster_soak_survives_owner_kill_and_rejoin() {
    let seed = cluster_seed();
    println!("cluster soak seed: {seed} (set HAP_CLUSTER_SEED to reproduce)");
    let mut cluster = StressCluster::start(3, REPLICATION, |_, _| {});
    let retry = RetryPolicy::default();

    // Warm the hot set through the ring and pin every plan to its
    // in-process cold-synthesis bits.
    let warmup: Vec<StressOp> = (0..HOT_N).map(StressOp::Hot).collect();
    let warm = testing::drive_cluster(&cluster.addrs(), &warmup, &retry);
    let mut bits = HashMap::new();
    for o in &warm {
        assert_eq!(o.source, "synthesized", "warmup is all cold");
        let StressOp::Hot(i) = o.op else { unreachable!() };
        assert_eq!(o.bits, cold_bits(i), "hot-{i} differs from in-process synthesis");
        bits.insert(i, o.bits.clone());
    }

    // Phase 1: steady-state traffic on the full ring.
    let ops = testing::schedule(seed, HOT_N, REPEATS, FLOOD_N);
    let phase1 = testing::drive_cluster(&cluster.addrs(), &ops, &retry);
    assert_hot_bits(&phase1, &bits, "phase 1");
    assert_eq!(hot_hit_rate(&phase1), 1.0, "a warmed full ring hits everything");
    // Ring-wide single flight so far: one synthesis per distinct
    // fingerprint (hot set + phase-1 one-offs), across all three daemons.
    let synth_after_1 = cluster.total(|s| s.synthesized);
    assert_eq!(synth_after_1, (HOT_N + FLOOD_N) as u64, "duplicates must never re-synthesize");

    // Mid-traffic chaos: kill the primary owner of hot plan 0.
    let victim = cluster.primary_index(hot_request(0).fingerprint());
    cluster.kill(victim);

    // Phase 2: the same traffic shape plus device-loss replans, against
    // the survivors. Every acknowledged plan was replicated synchronously
    // before its ack, and a leave moves a key only to its next owner —
    // the replica — so every hot request still *hits*.
    const REPLANS: usize = 2;
    let ops = testing::chaos_schedule(seed ^ 1, HOT_N, REPEATS, FLOOD_N, REPLANS);
    let phase2 = testing::drive_cluster(&cluster.addrs(), &ops, &retry);
    assert_hot_bits(&phase2, &bits, "phase 2");
    for o in &phase2 {
        if let StressOp::Hot(i) = o.op {
            assert_eq!(
                o.source, "cache",
                "hot-{i}: an owner kill must not lose an acknowledged plan"
            );
        }
    }
    // Replans answered from the replicated prior (request triple included)
    // and match cold synthesis on the post-delta cluster.
    let mut replan_cold = HashMap::new();
    for o in &phase2 {
        if let StressOp::Replan(i) = o.op {
            let expected = replan_cold.entry(i).or_insert_with(|| {
                let req = hot_request(i);
                let cluster_spec = testing::replan_delta(i).apply(&req.cluster).unwrap();
                let plan = hap::parallelize(&req.graph, &cluster_spec, &req.options).unwrap();
                ReplyBits {
                    program_fp: plan.program.fingerprint(),
                    time_bits: plan.estimated_time.to_bits(),
                    ratio_bits: plan
                        .ratios
                        .iter()
                        .map(|row| row.iter().map(|b| b.to_bits()).collect())
                        .collect(),
                }
            });
            assert_eq!(&o.bits, expected, "replan-{i} drifted from cold synthesis");
        }
    }
    // Phase 2's only syntheses: its one-offs and (at most) the replans'
    // post-delta plans — never a hot re-synthesis.
    let synth_after_2 = cluster.total(|s| s.synthesized);
    assert!(
        synth_after_2 - synth_after_1 <= (FLOOD_N + REPLANS) as u64,
        "an acknowledged hot plan was re-synthesized after the owner kill: \
         {synth_after_1} -> {synth_after_2}"
    );

    // The dead node rejoins (fresh port, epoch bump pushed everywhere).
    cluster.rejoin(victim);
    // One re-warm pass: the rejoined node re-covers its share of the
    // keyspace (its cache starts empty; first touch per moved key).
    let rewarm = testing::drive_cluster(&cluster.addrs(), &warmup, &retry);
    assert_hot_bits(&rewarm, &bits, "re-warm");
    let synth_after_rewarm = cluster.total(|s| s.synthesized);
    assert!(
        synth_after_rewarm - synth_after_2 <= HOT_N as u64,
        "re-covering a rejoined range costs at most one synthesis per moved key"
    );

    // Phase 3: steady state on the re-grown ring — everything hits again.
    let ops = testing::schedule(seed ^ 2, HOT_N, REPEATS, FLOOD_N);
    let phase3 = testing::drive_cluster(&cluster.addrs(), &ops, &retry);
    assert_hot_bits(&phase3, &bits, "phase 3");
    assert_eq!(hot_hit_rate(&phase3), 1.0, "the re-warmed ring hits everything");

    // Measured hit rate across the whole soak (the acceptance bar).
    let all: Vec<_> = phase1.iter().chain(phase2.iter()).chain(phase3.iter()).cloned().collect();
    assert!(
        hot_hit_rate(&all) >= 0.90,
        "hot-set hit rate through kill and rejoin: {:.3}",
        hot_hit_rate(&all)
    );

    // Cluster-wide hygiene: nothing shed, nothing errored, and the
    // rejoined daemon is genuinely back in the data path.
    assert_eq!(cluster.total(|s| s.shed), 0, "the soak must never shed");
    assert_eq!(cluster.total(|s| s.errors), 0, "the soak must never error");
    assert_eq!(cluster.epoch(), 3);
    for addr in cluster.addrs() {
        let mut c = Client::connect(&*addr).unwrap();
        let (info, _, _) = c.ring().unwrap();
        assert_eq!(info.epoch, 3, "every live daemon holds the final membership");
    }
    let back: StatsSnapshot = cluster.service(victim).stats();
    assert!(
        back.hits + back.synthesized + back.replicated_in + back.proxied > 0,
        "the rejoined daemon never served or stored anything: {back:?}"
    );
}

/// The cold bits for hot request `i` replanned with `replan_delta(i)`.
fn replan_cold_bits(i: usize) -> ReplyBits {
    let req = hot_request(i);
    let cluster = testing::replan_delta(i).apply(&req.cluster).unwrap();
    let plan = hap::parallelize(&req.graph, &cluster, &req.options).unwrap();
    ReplyBits {
        program_fp: plan.program.fingerprint(),
        time_bits: plan.estimated_time.to_bits(),
        ratio_bits: plan
            .ratios
            .iter()
            .map(|row| row.iter().map(|b| b.to_bits()).collect())
            .collect(),
    }
}

/// Every proxy branch a ring-naive client can reach: a plan and a replan
/// whose owner is dead fall back to local resolution, an unknown prior
/// owned by a dead member fails typed, and a replan sent to a live
/// non-owner is answered by the owner through the proxy.
#[test]
fn proxy_paths_fall_back_locally_and_relay_the_owner() {
    // A dead member: a loopback port that was bound and then closed.
    let dead = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let server = Server::start(ServiceConfig::default()).unwrap();
    let live = server.addr().to_string();
    let info = RingInfo {
        epoch: 1,
        vnodes: ServiceConfig::default().ring_vnodes,
        replication: 1,
        members: vec![live.clone(), dead.clone()],
    };
    let mut client = Client::connect(&*live).unwrap();
    assert!(client.install_ring(&info, &live).unwrap());
    let ring = Ring::build(info);
    let mut dead_owned =
        (0..64).filter(|&i| ring.primary(hot_request(i).fingerprint()) == Some(&*dead));
    let (i, j) = (dead_owned.next().unwrap(), dead_owned.next().unwrap());

    // (a) The primary is dead: the plan synthesizes locally.
    let req = hot_request(i);
    let reply = client.plan(&req.graph, &req.cluster, &req.options).unwrap();
    assert_eq!(reply.source, "synthesized");
    assert_eq!(ReplyBits::of(&reply), cold_bits(i), "fallback plan differs from in-process");
    let stats = server.service().stats();
    assert_eq!((stats.proxied, stats.errors), (1, 0), "{stats:?}");

    // (b) A replan of that plan: the prior is known here and its owner is
    // dead, so the rebase runs locally, warm-seeded by the prior.
    let replanned = client.replan(reply.fingerprint, &testing::replan_delta(i)).unwrap();
    assert_eq!(replanned.plan.source, "synthesized");
    assert_eq!(replanned.diff.prior_fingerprint, reply.fingerprint);
    assert_eq!(ReplyBits::of(&replanned.plan), replan_cold_bits(i));
    let stats = server.service().stats();
    assert_eq!((stats.replanned, stats.warm_seeded, stats.proxied), (1, 1, 2), "{stats:?}");
    assert_eq!(stats.errors, 0, "{stats:?}");

    // (c) An unknown prior owned by the dead member: nobody can rebase it.
    let err = client.replan(hot_request(j).fingerprint(), &testing::replan_delta(j)).unwrap_err();
    assert_eq!(err.kind, "unknown_fingerprint", "{err}");
    let stats = server.service().stats();
    assert_eq!((stats.errors, stats.proxied), (1, 3), "{stats:?}");

    // (d) A live ring: a ring-naive replan at the non-owner is relayed to
    // the owner, which holds the prior and runs the rebase.
    let cluster = StressCluster::start(2, 1, |_, _| {});
    let k = 0;
    let req = hot_request(k);
    let fp = req.fingerprint();
    let owner = cluster.primary_index(fp);
    let other = 1 - owner;
    let mut direct = Client::connect(cluster.addr(owner)).unwrap();
    direct.plan(&req.graph, &req.cluster, &req.options).unwrap();
    let mut naive = Client::connect(cluster.addr(other)).unwrap();
    let relayed = naive.replan(fp, &testing::replan_delta(k)).unwrap();
    assert_eq!(relayed.plan.source, "synthesized");
    assert_eq!(relayed.diff.prior_fingerprint, fp);
    assert_eq!(ReplyBits::of(&relayed.plan), replan_cold_bits(k));
    let (at_other, at_owner) = (cluster.service(other).stats(), cluster.service(owner).stats());
    assert_eq!((at_other.proxied, at_other.replanned, at_other.errors), (1, 0, 0), "{at_other:?}");
    assert_eq!((at_owner.replanned, at_owner.synthesized), (1, 2), "{at_owner:?}");
}
