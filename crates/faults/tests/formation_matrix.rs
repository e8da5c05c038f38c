//! Fault-matrix integration test for the resilient formation pipeline.
//!
//! Sweeps probe loss × {no faults, landmark crash, correlated
//! stub-domain outage, everything at once} through the full
//! [`FormationFaults`] → [`ecg_coords::ProbeFaults`] →
//! [`FormPlan::faults`] → [`ecg_core::form`] path and asserts that every
//! cell completes without panicking, reports a consistent
//! [`FormationHealth`] (exactly the crashed caches quarantined, dead
//! landmarks drawn from the crash set, a full partition of the
//! survivors), and produces bit-identical output whether the
//! data-parallel kernels run on one thread or four.
//!
//! The whole matrix lives in a single `#[test]` because
//! `ecg_par::set_max_threads` is process-global; a second test in this
//! binary would race it.

use ecg_coords::{ProbeConfig, ProbeFaults};
use ecg_core::{
    FormContext, FormPlan, FormationHealth, GroupingOutcome, ResilienceConfig, SchemeConfig,
};
use ecg_faults::FormationFaults;
use ecg_topology::{CacheId, EdgeNetwork, OriginPlacement, TransitStubConfig, TransitStubTopology};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CACHES: usize = 24;
const GROUPS: usize = 4;
const SEED: u64 = 0x5EED_FA17;

fn build_network() -> (TransitStubTopology, EdgeNetwork) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let topo = TransitStubConfig::for_caches(CACHES).generate(&mut rng);
    let network =
        EdgeNetwork::place(&topo, CACHES, OriginPlacement::TransitNode, &mut rng).unwrap();
    (topo, network)
}

fn form(network: &EdgeNetwork, faults: &ProbeFaults, loss: f64, cell_seed: u64) -> GroupingOutcome {
    let config = SchemeConfig::sl(GROUPS)
        .probe(ProbeConfig::default().loss_rate(loss))
        .resilience(ResilienceConfig::default());
    let mut rng = StdRng::seed_from_u64(cell_seed);
    let plan = FormPlan::new(network.rtt_matrix(), &config).faults(faults);
    ecg_core::form(&plan, &mut FormContext::new(), &mut rng)
        .expect("faulted formation must still produce a grouping")
}

fn assert_outcomes_identical(a: &GroupingOutcome, b: &GroupingOutcome, cell: &str) {
    assert_eq!(
        a.assignments(),
        b.assignments(),
        "assignments differ: {cell}"
    );
    assert_eq!(a.groups(), b.groups(), "groups differ: {cell}");
    assert_eq!(
        a.landmarks().landmarks,
        b.landmarks().landmarks,
        "landmarks differ: {cell}"
    );
    assert_eq!(
        a.probes_sent(),
        b.probes_sent(),
        "probe count differs: {cell}"
    );
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(a.server_distances_ms()),
        bits(b.server_distances_ms()),
        "server distances differ: {cell}"
    );
    assert_eq!(
        bits(a.points().as_flat()),
        bits(b.points().as_flat()),
        "feature matrices differ: {cell}"
    );
    assert_eq!(a.health(), b.health(), "health reports differ: {cell}");
}

fn assert_health_consistent(outcome: &GroupingOutcome, crashed: &[CacheId], cell: &str) {
    let health: &FormationHealth = outcome
        .health()
        .expect("resilient runs always report health");

    // Exactly the crashed caches are quarantined: a dead cache observes
    // nothing, a live one (with the default one-feature floor) always
    // observes something.
    assert_eq!(health.quarantined, crashed, "quarantine set: {cell}");

    // Dead landmarks are prober node indices of crashed caches, and
    // every one of them was failed over.
    for &node in &health.dead_landmarks {
        assert!(
            crashed.iter().any(|c| c.index() + 1 == node),
            "dead landmark node {node} is not a crashed cache: {cell}"
        );
    }
    assert!(
        health.landmark_failovers >= health.dead_landmarks.len(),
        "failover count below dead-landmark count: {cell}"
    );

    // Surviving landmarks are alive.
    for &lm in &outcome.landmarks().landmarks {
        assert!(
            !crashed.iter().any(|c| c.index() + 1 == lm),
            "crashed node {lm} kept as landmark: {cell}"
        );
    }

    // The grouping is still a full partition (quarantined caches are
    // re-homed, not dropped) into non-empty groups.
    let mut seen = [false; CACHES];
    for (g, group) in outcome.groups().iter().enumerate() {
        assert!(!group.is_empty(), "group {g} is empty: {cell}");
        for &c in group {
            assert!(!seen[c.index()], "cache {c} in two groups: {cell}");
            seen[c.index()] = true;
        }
    }
    assert!(
        seen.iter().all(|&s| s),
        "cache dropped from grouping: {cell}"
    );

    if crashed.is_empty() {
        assert!(
            health.dead_landmarks.is_empty() && health.landmark_failovers == 0,
            "phantom failover on crash-free network: {cell}"
        );
    }
}

#[test]
fn fault_matrix_completes_consistently_on_any_thread_count() {
    let (topo, network) = build_network();

    // The outage scenario takes out one whole stub domain — the first
    // one hosting at least two caches while leaving enough survivors to
    // cluster.
    let outage = (0..topo.stub_domains().len())
        .map(|d| FormationFaults::new().stub_domain_outage(&topo, &network, d))
        .find(|f| f.crash_count() >= 2 && CACHES - f.crash_count() > GROUPS)
        .expect("no stub domain hosts 2..=19 caches");

    let scenarios: [(&str, FormationFaults); 4] = [
        ("none", FormationFaults::new()),
        ("crash", FormationFaults::new().crash(CacheId(3))),
        ("outage", outage.clone()),
        (
            "crash+outage+blackhole",
            outage
                .crash(CacheId(3))
                .blackhole(CacheId(1), CacheId(2))
                .blackhole_to_origin(CacheId(5)),
        ),
    ];

    for (f, (name, faults)) in scenarios.iter().enumerate() {
        let probe_faults = faults.to_probe_faults();
        let crashed: Vec<CacheId> = faults.crashed_caches().collect();
        for (l, &loss) in [0.0f64, 0.2, 0.4].iter().enumerate() {
            let cell = format!("loss={loss} faults={name}");
            let cell_seed = SEED ^ ((f as u64) << 8) ^ l as u64;

            ecg_par::set_max_threads(Some(1));
            let single = form(&network, &probe_faults, loss, cell_seed);
            ecg_par::set_max_threads(Some(4));
            let quad = form(&network, &probe_faults, loss, cell_seed);
            ecg_par::set_max_threads(None);

            assert_health_consistent(&single, &crashed, &cell);
            assert_outcomes_identical(&single, &quad, &cell);
        }
    }
}
