//! Offline-build exactness: a [`ParallelismMode::Threads`] build must be
//! **bit-identical** to the [`ParallelismMode::Sequential`] build — same
//! base vectors, same skeleton columns, same machine placement, same
//! build statistics — on any graph, machine count, and worker count, for
//! both GPA and HGPA. The builds differ only in *when* each work item
//! runs (and hence in the wall-clock / modeled timing fields of
//! [`OfflineReport`], which this suite checks for shape, not value).
//!
//! The same holds for incremental maintenance: a mixed update batch
//! applied by a [`MaintenanceEngine`] under `Threads(N)` leaves the index
//! and its [`UpdateStats`] bit-identical to the `Sequential` engine's.

use exact_ppr::core::gpa::{GpaBuildOptions, GpaIndex};
use exact_ppr::core::hgpa::{HgpaBuildOptions, HgpaIndex, OfflineReport};
use exact_ppr::core::incremental::{MaintenanceEngine, UpdateStats};
use exact_ppr::core::{ParallelismMode, PprConfig};
use exact_ppr::graph::csr::from_edges;
use exact_ppr::graph::generators::{hierarchical_sbm, HsbmConfig};
use exact_ppr::graph::{apply_delta, CsrGraph, EdgeUpdate, GraphDelta, NodeId, NodeUpdate};
use exact_ppr::partition::HierarchyConfig;
use proptest::prelude::*;

/// Strategy: a random directed graph with 12..=80 nodes.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (12usize..=80).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 1..(n * 4));
        edges.prop_map(move |es| {
            let filtered: Vec<(u32, u32)> = es.into_iter().filter(|(u, v)| u != v).collect();
            from_edges(n, &filtered)
        })
    })
}

fn report_shape_ok(report: &OfflineReport, machines: usize) {
    assert_eq!(report.per_machine_seconds.len(), machines);
    assert!(report.per_machine_seconds.iter().all(|&s| s >= 0.0));
    assert!(report.wall_seconds > 0.0);
}

/// GPA: sequential vs threaded builds agree on every stored artifact.
fn gpa_differential(
    g: &CsrGraph,
    cfg: &PprConfig,
    machines: usize,
    workers: usize,
) -> Result<(), String> {
    let opts = GpaBuildOptions {
        machines,
        ..Default::default()
    };
    let (seq, seq_report) = GpaIndex::build_distributed(g, cfg, &opts);
    let threaded_opts = GpaBuildOptions {
        parallelism: ParallelismMode::Threads(workers),
        ..opts
    };
    let (thr, thr_report) = GpaIndex::build_distributed(g, cfg, &threaded_opts);

    if seq.base_vectors() != thr.base_vectors() {
        return Err("base vectors diverged".into());
    }
    if seq.skeleton_columns() != thr.skeleton_columns() {
        return Err("skeleton columns diverged".into());
    }
    if seq.hubs() != thr.hubs() {
        return Err("hub sets diverged".into());
    }
    if seq.machine_of_hub() != thr.machine_of_hub()
        || seq.machine_of_part() != thr.machine_of_part()
    {
        return Err("machine placement diverged".into());
    }
    if seq.stored_entries() != thr.stored_entries() {
        return Err("stored entry counts diverged".into());
    }
    report_shape_ok(&seq_report, machines);
    report_shape_ok(&thr_report, machines);
    Ok(())
}

/// HGPA: sequential vs threaded builds agree on every stored artifact.
fn hgpa_differential(
    g: &CsrGraph,
    cfg: &PprConfig,
    machines: usize,
    workers: usize,
) -> Result<(), String> {
    let opts = HgpaBuildOptions {
        machines,
        hierarchy: HierarchyConfig {
            max_leaf_size: 16,
            ..Default::default()
        },
        ..Default::default()
    };
    let (seq, seq_report) = HgpaIndex::build_distributed(g, cfg, &opts);
    let threaded_opts = HgpaBuildOptions {
        parallelism: ParallelismMode::Threads(workers),
        ..opts
    };
    let (thr, thr_report) = HgpaIndex::build_distributed(g, cfg, &threaded_opts);

    if seq.base_vectors() != thr.base_vectors() {
        return Err("base vectors diverged".into());
    }
    if seq.skeleton_columns() != thr.skeleton_columns() {
        return Err("skeleton columns diverged".into());
    }
    if seq.hub_ids() != thr.hub_ids() {
        return Err("hub ranks diverged".into());
    }
    if seq.machine_of_hub() != thr.machine_of_hub()
        || seq.machine_of_base() != thr.machine_of_base()
    {
        return Err("machine placement diverged".into());
    }
    if seq.stats() != thr.stats() {
        return Err(format!(
            "build stats diverged: {:?} vs {:?}",
            seq.stats(),
            thr.stats()
        ));
    }
    report_shape_ok(&seq_report, machines);
    report_shape_ok(&thr_report, machines);
    Ok(())
}

/// A mixed batch for `idx` on `g`: node `remove` leaves, one node joins
/// with an in- and an out-edge, the `inserts` go in, the edges at
/// `removes` (indices into `g`'s edge list) go out, and one insertion
/// crosses two children of the root so that an endpoint is promoted to
/// a hub. Edges on the removed node are dropped from the batch (the
/// delta layer rejects them).
fn mixed_batch(
    g: &CsrGraph,
    idx: &HgpaIndex,
    remove: NodeId,
    inserts: &[(NodeId, NodeId)],
    removes: &[usize],
) -> GraphDelta {
    let n = g.node_count() as NodeId;
    let h = idx.hierarchy();
    let leaf_member = |sg: usize| {
        h.nodes[sg]
            .members
            .iter()
            .copied()
            .filter(|&v| v != remove && h.hub_level[v as usize].is_none())
            .collect::<Vec<_>>()
    };
    let children = &h.nodes[h.root()].children;
    let cross = (children.len() >= 2)
        .then(|| {
            let (left, right) = (leaf_member(children[0]), leaf_member(children[1]));
            left.iter()
                .flat_map(|&a| right.iter().map(move |&b| (a, b)))
                .find(|&(a, b)| !g.has_edge(a, b))
        })
        .flatten();
    let edges = g.edges().collect::<Vec<_>>();
    let mut updates: Vec<EdgeUpdate> = removes
        .iter()
        .filter_map(|&i| edges.get(i % edges.len().max(1)))
        .map(|&(u, v)| EdgeUpdate::Remove(u, v))
        .collect();
    updates.extend(
        inserts
            .iter()
            .map(|&(u, v)| EdgeUpdate::Insert(u % n, v % n)),
    );
    updates.extend(cross.map(|(a, b)| EdgeUpdate::Insert(a, b)));
    updates.retain(|up| {
        let (u, v) = up.endpoints();
        u != remove && v != remove
    });
    let other = (remove + 1) % n;
    updates.push(EdgeUpdate::Insert(n, other));
    updates.push(EdgeUpdate::Insert(other, n));
    GraphDelta {
        nodes: vec![NodeUpdate::Remove(remove), NodeUpdate::Add],
        edges: updates,
    }
}

/// Maintenance: one mixed batch applied under `Sequential` and under
/// `Threads(workers)` engines leaves identical indexes and stats.
fn maintenance_differential(
    g: &CsrGraph,
    machines: usize,
    workers: usize,
    remove: NodeId,
    inserts: &[(NodeId, NodeId)],
    removes: &[usize],
) -> Result<(), String> {
    let opts = HgpaBuildOptions {
        machines,
        hierarchy: HierarchyConfig {
            max_leaf_size: 16,
            ..Default::default()
        },
        ..Default::default()
    };
    let built = HgpaIndex::build(g, &PprConfig::default(), &opts);
    let delta = mixed_batch(
        g,
        &built,
        remove % g.node_count() as NodeId,
        inserts,
        removes,
    );
    let applied = apply_delta(g, &delta).map_err(|e| e.to_string())?;
    let run = |mode: ParallelismMode| -> Result<(HgpaIndex, UpdateStats), String> {
        let mut idx = built.clone();
        let stats = MaintenanceEngine::with_parallelism(mode)
            .apply(&mut idx, &applied)
            .map_err(|e| e.to_string())?;
        Ok((idx, stats))
    };
    let (seq, seq_stats) = run(ParallelismMode::Sequential)?;
    let (thr, thr_stats) = run(ParallelismMode::Threads(workers))?;

    if seq_stats.nodes_added != 1 || seq_stats.nodes_removed != 1 {
        return Err(format!("node churn not applied: {seq_stats:?}"));
    }
    if seq_stats.vectors_recomputed == 0 {
        return Err("the batch recomputed nothing".into());
    }
    if seq.hierarchy().nodes[seq.hierarchy().root()].children.len() >= 2
        && seq_stats.promoted_hubs.is_empty()
    {
        return Err("the cross-child insertion promoted no hub".into());
    }
    if seq_stats != thr_stats {
        return Err(format!(
            "update stats diverged: {seq_stats:?} vs {thr_stats:?}"
        ));
    }
    if seq.base_vectors() != thr.base_vectors() {
        return Err("base vectors diverged".into());
    }
    if seq.skeleton_columns() != thr.skeleton_columns() {
        return Err("skeleton columns diverged".into());
    }
    if seq.hub_ids() != thr.hub_ids() {
        return Err("hub ranks diverged".into());
    }
    if seq.hierarchy() != thr.hierarchy() {
        return Err("hierarchies diverged".into());
    }
    Ok(())
}

proptest! {
    // Default-config cases so the CI deep-test job can scale this suite
    // via `PROPTEST_CASES`.
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn gpa_threaded_build_is_bit_identical(
        g in arb_graph(),
        machines in 1usize..6,
        workers in 2usize..9,
    ) {
        gpa_differential(&g, &PprConfig::default(), machines, workers)?;
    }

    #[test]
    fn hgpa_threaded_build_is_bit_identical(
        g in arb_graph(),
        machines in 1usize..6,
        workers in 2usize..9,
    ) {
        hgpa_differential(&g, &PprConfig::default(), machines, workers)?;
    }

    #[test]
    fn hgpa_threaded_maintenance_is_bit_identical(
        g in arb_graph(),
        machines in 1usize..6,
        workers in 2usize..=4,
        remove in 0u32..80,
        inserts in proptest::collection::vec((0u32..80, 0u32..80), 1..8),
        removes in proptest::collection::vec(0usize..320, 1..6),
    ) {
        maintenance_differential(&g, machines, workers, remove, &inserts, &removes)?;
    }
}

/// A community-structured graph big enough that every worker count gets
/// many items per machine — the deterministic pin for the quick profile.
#[test]
fn bigger_builds_stay_bit_identical_across_the_worker_sweep() {
    let g = hierarchical_sbm(
        &HsbmConfig {
            nodes: 400,
            depth: 4,
            locality: 0.9,
            ..Default::default()
        },
        17,
    );
    let cfg = PprConfig::default();
    for workers in [2usize, 4, 8] {
        gpa_differential(&g, &cfg, 6, workers).unwrap();
        hgpa_differential(&g, &cfg, 6, workers).unwrap();
        maintenance_differential(&g, 6, workers, 123, &[(5, 120), (301, 17)], &[0, 777]).unwrap();
    }
}

/// The modeled per-machine accounting stays a *distribution* of cost —
/// every machine gets timed items — and the wall/peak fields are sane,
/// threaded or not.
#[test]
fn offline_report_accounts_modeled_and_wall_time() {
    let g = hierarchical_sbm(
        &HsbmConfig {
            nodes: 500,
            depth: 4,
            locality: 0.9,
            ..Default::default()
        },
        23,
    );
    let cfg = PprConfig::default();
    for parallelism in [ParallelismMode::Sequential, ParallelismMode::Threads(4)] {
        let (_, report) = HgpaIndex::build_distributed(
            &g,
            &cfg,
            &HgpaBuildOptions {
                machines: 4,
                parallelism,
                hierarchy: HierarchyConfig {
                    max_leaf_size: 32,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        report_shape_ok(&report, 4);
        assert!(report.peak_scratch_bytes > 0, "{parallelism:?}");
        let total: f64 = report.per_machine_seconds.iter().sum();
        assert!(total > 0.0);
        // No machine's modeled share holds all the work (§5's claim).
        assert!(
            report.max_machine_seconds() < 0.9 * total,
            "{parallelism:?}: {:?}",
            report.per_machine_seconds
        );
    }
}
