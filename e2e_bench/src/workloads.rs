//! The four workloads and the phases every run goes through: set-up,
//! measured phase, correctness checks, edits, and (traced runs only)
//! the replays that split the blocking steps by layer.

use crate::edits::{self, EditWorker};
use crate::openloop::{self, Due};
use crate::oracle::{self, Sample};
use crate::rng::{jittered_times, poisson_times, SplitMix};
use crate::stats::{
    highest_supported, mean, median, percentile, samples_beyond, Tally, TAIL_SUPPORT,
};
use crate::trace::{Recorder, SpanId, NONE};
use ppr_cluster::{
    Cluster, ClusterConfig, DistributedQueryable, ParallelismMode, ResilienceConfig, SocketCluster,
    SocketConfig, WireMetrics,
};
use ppr_core::hgpa::{HgpaBuildOptions, HgpaIndex, OfflineReport};
use ppr_core::incremental::MaintenanceEngine;
use ppr_core::{persist, PprConfig, Scratch};
use ppr_graph::{reverse_reachable, CsrGraph, EdgeUpdate, GraphDelta, NodeId};
use ppr_partition::Hierarchy;
use ppr_serve::{plan_delta, DeltaPlan, DynamicPprServer, Request, Response, ServeConfig};
use ppr_workload::{Dataset, ZipfQueryStream};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Requests per closed-loop round, and the cap on open-loop coalescing.
const BATCH: usize = 16;
/// Threads, connections and shards: the load generator is one process
/// using at most two cores.
const THREADS: usize = 2;
/// Set-ups per run, at least; `setup_s` is their median. Set-up repeats
/// until [`SETUP_MIN_S`] seconds have gone into it, so a cheap set-up
/// (read-cold's load) takes its median over more samples.
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;
/// Answers per run checked against the power-iteration oracle.
const ORACLE_SAMPLES: usize = 8;
/// read-socket keeps every this-many-th batch for the bit-identity check.
const BITCHECK_STRIDE: u64 = 16;
const BITCHECK_MAX: usize = 256;
/// Most recorded rounds the traced run replays through the cluster.
const REPLAY_MAX: usize = 48;

/// How requests arrive.
#[derive(Clone, Copy, Debug)]
pub enum Arrivals {
    /// One client sends [`BATCH`] requests and waits for all of them.
    Closed,
    /// Poisson query arrivals plus a fixed-rate, jittered feed of
    /// single-edge update batches.
    Open { query_rate: f64, update_rate: f64 },
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub stresses: &'static str,
    pub bypasses: &'static str,
    pub dataset: Dataset,
    pub nodes: usize,
    pub machines: usize,
    pub cache_bytes: u64,
    pub zipf: f64,
    pub arrivals: Arrivals,
    /// Set-up loads a `.pprx` written before timing instead of building.
    pub cold_start: bool,
    /// Fan-outs go to real worker processes over TCP.
    pub socket: bool,
    /// Single-edge edits a closed-loop run applies to a replica of the
    /// served index in a child process, spread evenly through the read
    /// phase (the read workloads' source of update latency).
    pub edits: usize,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "read-hot",
        why: "Zipf reads with a 64 MiB cache: the cache and response assembly do most of the work",
        stresses: "serve (cache probe, assembly, top-k), cluster rounds for misses",
        bypasses: "wire, cluster::socket, persist load",
        dataset: Dataset::Web,
        nodes: 10_000,
        machines: 6,
        cache_bytes: 64 << 20,
        zipf: 1.1,
        arrivals: Arrivals::Closed,
        cold_start: false,
        socket: false,
        edits: 5,
    },
    Spec {
        name: "read-cold",
        why: "uniform reads, cache off, index loaded from .pprx: every source is a fan-out",
        stresses: "core query kernels, cluster merge, core::persist load",
        bypasses: "serve cache, partitioner, wire",
        dataset: Dataset::Pld,
        nodes: 10_000,
        machines: 6,
        cache_bytes: 0,
        zipf: 0.0,
        arrivals: Arrivals::Closed,
        cold_start: true,
        socket: false,
        edits: 5,
    },
    Spec {
        name: "mixed-rw",
        why: "open-loop Poisson queries and single-edge updates: epoch barriers dominate",
        stresses: "core::incremental, graph delta/reach, serve invalidation and queueing",
        bypasses: "wire, cluster::socket, persist load",
        dataset: Dataset::Email,
        nodes: 6_000,
        machines: 6,
        cache_bytes: 64 << 20,
        zipf: 1.1,
        arrivals: Arrivals::Open {
            query_rate: 200.0,
            update_rate: 1.0,
        },
        cold_start: false,
        socket: false,
        edits: 0,
    },
    Spec {
        name: "read-socket",
        why: "read-hot's stream over 2 real worker processes: the only workload on the wire",
        stresses: "wire framing, cluster::socket rounds and supervision",
        bypasses: "in-process fan-out compute, persist load",
        dataset: Dataset::Web,
        nodes: 10_000,
        machines: 2,
        cache_bytes: 64 << 20,
        zipf: 1.1,
        arrivals: Arrivals::Closed,
        cold_start: false,
        socket: true,
        edits: 5,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// A named metric with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// Everything one run reports.
pub struct Outcome {
    pub tally: Tally,
    pub correct: bool,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Human-readable provenance and check lines.
    pub notes: Vec<String>,
}

/// The request mix: 80% `Ppv`, 10% `TopK{k:20}`, 10% two-source
/// `Preference`, drawn from a seeded Zipf stream.
struct RequestStream {
    zipf: ZipfQueryStream,
    issued: u64,
}

impl RequestStream {
    fn new(g: &CsrGraph, exponent: f64, seed: u64) -> Self {
        Self {
            zipf: ZipfQueryStream::new(g, exponent, seed),
            issued: 0,
        }
    }

    fn next(&mut self) -> Request {
        self.issued += 1;
        match self.issued % 10 {
            3 => {
                let a = self.zipf.next_query();
                let b = self.zipf.next_query();
                Request::Preference(vec![(a, 0.6), (b, 0.4)])
            }
            7 => Request::TopK {
                source: self.zipf.next_query(),
                k: 20,
            },
            _ => Request::Ppv(self.zipf.next_query()),
        }
    }

    fn batch(&mut self, n: usize) -> Vec<Request> {
        (0..n).map(|_| self.next()).collect()
    }
}

fn distinct_sources(requests: &[Request]) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = Vec::new();
    for r in requests {
        match r {
            Request::Ppv(u) | Request::TopK { source: u, .. } => out.push(*u),
            Request::Preference(p) => out.extend(p.iter().map(|&(u, _)| u)),
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Keeps a uniform sample of served answers (reservoir sampling over
/// batches) for the oracle check.
struct Reservoir {
    rng: SplitMix,
    seen: usize,
    kept: Vec<Sample>,
    graph: Option<(u64, Arc<CsrGraph>)>,
}

impl Reservoir {
    fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix::derive(seed, 0x0AC1E),
            seen: 0,
            kept: Vec::new(),
            graph: None,
        }
    }

    fn offer(&mut self, server: &DynamicPprServer, requests: &[Request], responses: &[Response]) {
        self.seen += 1;
        let slot = if self.kept.len() < ORACLE_SAMPLES {
            None
        } else {
            let j = self.rng.below(self.seen);
            if j >= ORACLE_SAMPLES {
                return;
            }
            Some(j)
        };
        let i = self.rng.below(requests.len());
        let graph = match &self.graph {
            Some((epoch, g)) if *epoch == server.epoch() => g.clone(),
            _ => {
                let g = Arc::new(server.graph().clone());
                self.graph = Some((server.epoch(), g.clone()));
                g
            }
        };
        let sample = Sample {
            request: requests[i].clone(),
            response: responses[i].clone(),
            graph,
        };
        match slot {
            None => self.kept.push(sample),
            Some(j) => self.kept[j] = sample,
        }
    }
}

/// What one measured phase saw.
#[derive(Default)]
struct Phase {
    /// Independent latency samples: one per batch in the closed loop,
    /// whose [`BATCH`] requests share their batch's latency, and one
    /// per query in the open loop, where each counts from its own due
    /// time.
    query_latency: Vec<f64>,
    update_latency: Vec<f64>,
    /// Service time of each update batch (dispatch → epoch released).
    update_service: Vec<f64>,
    queue_wait: Vec<f64>,
    late: Vec<f64>,
    elapsed: f64,
    /// Seconds the server spent inside `run_batch`.
    query_busy: f64,
    /// Distinct sources the phase asked for: the working set.
    sources: HashSet<NodeId>,
    queries: u64,
    batches: u64,
    fresh: u64,
    cached: u64,
    rounds: u64,
    tally: Tally,
    samples: Vec<Sample>,
    /// Requests and response fingerprints of every
    /// [`BITCHECK_STRIDE`]-th batch.
    bitcheck: Vec<(Vec<Request>, Vec<u64>)>,
    /// Distinct sources of the first rounds that went to the cluster.
    rounds_seen: Vec<Vec<NodeId>>,
    /// Update batches applied, in order, with whether the cache held
    /// anything when they were (the server reverse-reaches only then).
    updates: Vec<(Vec<EdgeUpdate>, bool)>,
}

impl Phase {
    fn qps(&self) -> f64 {
        self.queries as f64 / self.elapsed.max(1e-9)
    }

    fn p50_ms(&self) -> f64 {
        median(&self.query_latency) * 1e3
    }
}

/// The server plus what set-up produced.
struct Ready {
    server: DynamicPprServer,
    offline: Option<OfflineReport>,
    socket: Option<Arc<SocketCluster>>,
    seconds: f64,
}

pub struct Bench {
    spec: Spec,
    seed: u64,
    seconds: f64,
    graph: CsrGraph,
    cfg: PprConfig,
    opts: HgpaBuildOptions,
    serve_cfg: ServeConfig,
    out_dir: PathBuf,
    pprx: PathBuf,
    snapshot: PathBuf,
}

impl Bench {
    pub fn new(spec: Spec, seed: u64, seconds: f64, root: &Path) -> std::io::Result<Self> {
        let out_dir = root.join("e2e_bench").join("out");
        std::fs::create_dir_all(&out_dir)?;
        let tag = format!("{}-{}", spec.name, std::process::id());
        let parallelism = ParallelismMode::Threads(THREADS);
        Ok(Self {
            spec,
            seed,
            seconds,
            // The graph is the workload's fixed dataset stand-in; the
            // seed drives the traffic.
            graph: spec.dataset.generate_with_nodes(spec.nodes),
            cfg: PprConfig::default(),
            opts: HgpaBuildOptions {
                machines: spec.machines,
                parallelism,
                ..Default::default()
            },
            serve_cfg: ServeConfig {
                cache_capacity_bytes: spec.cache_bytes,
                max_batch: BATCH,
                shards: THREADS,
                parallelism,
                ..Default::default()
            },
            pprx: out_dir.join(format!("{tag}.pprx")),
            snapshot: out_dir.join(format!("{tag}-snapshot.pprx")),
            out_dir,
        })
    }

    pub fn out_dir(&self) -> &Path {
        &self.out_dir
    }

    /// `HgpaIndex::build_distributed`, split in its two steps so each
    /// gets a span.
    fn build(&self, rec: &mut Recorder, parent: SpanId) -> (HgpaIndex, OfflineReport) {
        let s = rec.start("partition", parent, 0);
        let t = Instant::now();
        let hierarchy = Hierarchy::build(&self.graph, &self.opts.hierarchy);
        let partition_seconds = t.elapsed().as_secs_f64();
        rec.end(s, &[("subgraphs", hierarchy.nodes.len() as f64)]);
        let s = rec.start("core.build", parent, 0);
        let (index, mut report) = HgpaIndex::build_distributed_with_hierarchy(
            &self.graph,
            &self.cfg,
            &self.opts,
            hierarchy,
        );
        report.partition_seconds = partition_seconds;
        rec.end(
            s,
            &[
                ("wall_s", report.wall_seconds),
                ("max_machine_s", report.max_machine_seconds()),
                ("stored_entries", index.stored_entries() as f64),
                ("peak_scratch_bytes", report.peak_scratch_bytes as f64),
            ],
        );
        (index, report)
    }

    fn save(&self, index: &HgpaIndex, rec: &mut Recorder, parent: SpanId) -> std::io::Result<f64> {
        let s = rec.start("core.persist.save", parent, 0);
        persist::save_hgpa_file(index, &self.pprx)?;
        let bytes = std::fs::metadata(&self.pprx)?.len();
        rec.end(s, &[("bytes", bytes as f64)]);
        Ok(bytes as f64 / 1e6)
    }

    /// From the generated graph to a server ready to answer.
    fn setup(&self, rec: &mut Recorder, parent: SpanId) -> std::io::Result<Ready> {
        let t = Instant::now();
        if self.spec.cold_start {
            let s = rec.start("core.persist.load", parent, 0);
            let server =
                DynamicPprServer::from_persisted(&self.pprx, self.graph.clone(), self.serve_cfg)?;
            rec.end(s, &[]);
            return Ok(Ready {
                server,
                offline: None,
                socket: None,
                seconds: t.elapsed().as_secs_f64(),
            });
        }
        let (index, offline) = self.build(rec, parent);
        let mut server = DynamicPprServer::from_index(self.graph.clone(), index, self.serve_cfg);
        let socket = if self.spec.socket {
            let s = rec.start("cluster.socket.launch", parent, 0);
            let sock = Arc::new(self.launch(&server)?);
            rec.end(s, &[]);
            server.attach_socket(sock.clone());
            Some(sock)
        } else {
            None
        };
        Ok(Ready {
            server,
            offline: Some(offline),
            socket,
            seconds: t.elapsed().as_secs_f64(),
        })
    }

    /// Spawn the worker processes: this very binary, re-invoked with the
    /// `worker` argument.
    fn launch(&self, server: &DynamicPprServer) -> std::io::Result<SocketCluster> {
        let exe = std::env::current_exe()?.display().to_string();
        let config = SocketConfig::new(
            self.spec.machines,
            vec![exe, "worker".to_string()],
            self.snapshot.clone(),
        );
        SocketCluster::launch(config, server.index(), server.graph(), server.epoch())
    }

    /// Run the workload. `trace` selects the traced run, which reports
    /// per-layer metrics instead of end-to-end ones.
    pub fn run(&self, trace: bool) -> std::io::Result<Outcome> {
        let result = if trace {
            self.run_traced()
        } else {
            self.run_untraced()
        };
        let _ = std::fs::remove_file(&self.pprx);
        let _ = std::fs::remove_file(&self.snapshot);
        result
    }

    /// Build (or load) and save the index that read-cold's set-up loads.
    fn prebuild(&self, rec: &mut Recorder) -> std::io::Result<Option<(OfflineReport, f64)>> {
        if !self.spec.cold_start {
            return Ok(None);
        }
        let p = rec.start("prebuild", NONE, 0);
        let (index, offline) = self.build(rec, p);
        let mb = self.save(&index, rec, p)?;
        rec.end(p, &[]);
        Ok(Some((offline, mb)))
    }

    fn run_untraced(&self) -> std::io::Result<Outcome> {
        let mut off = Recorder::new(false);
        let pre = self.prebuild(&mut off)?;
        let mut setup_seconds = Vec::new();
        let mut ready = None;
        while setup_seconds.len() < SETUP_REPS || setup_seconds.iter().sum::<f64>() < SETUP_MIN_S {
            if let Some(Ready {
                socket: Some(sock),
                mut server,
                ..
            }) = ready.take()
            {
                server.detach_socket();
                sock.shutdown();
            }
            let r = self.setup(&mut off, NONE)?;
            setup_seconds.push(r.seconds);
            ready = Some(r);
        }
        let Ready {
            mut server, socket, ..
        } = ready.expect("at least one set-up");
        let index_mb = match pre {
            Some((_, mb)) => mb,
            None => self.save(server.index(), &mut off, NONE)?,
        };
        host_reset_peak();

        let ticks = crate::host::cpu_ticks();
        let phase = self.measure(&mut server, &mut off, NONE, self.seconds, 0)?;
        let steal = crate::host::steal_share(ticks, crate::host::cpu_ticks());
        let peak_rss_mb = crate::host::peak_rss_bytes() as f64 / 1e6;
        let reference = socket.as_ref().map(|_| server.index().clone());
        let mut tally = phase.tally;
        let mut notes = self.provenance(&server, &phase);
        notes.push(match steal {
            Some(x) => format!(
                "host: {:.1}% of CPU time stolen by the hypervisor during the phase",
                100.0 * x
            ),
            None => "host: steal time unknown".to_string(),
        });
        let mut correct = self.check(&phase, reference, &mut tally, &mut notes);

        let update_latency = &phase.update_latency;
        if let Some(sock) = socket {
            let restarts = sock.supervisor_stats().restarts;
            tally.demote(restarts);
            notes.push(format!("worker restarts: {restarts}"));
            correct &= restarts == 0;
            server.detach_socket();
            sock.shutdown();
        }
        correct &= tally.failed == 0;

        let q = &phase.query_latency;
        let tail = |n: usize| match highest_supported(n, &[0.5, 0.9, 0.99]) {
            Some(p) => format!("p{:.0}", p * 100.0),
            None => "none".to_string(),
        };
        let unit = match self.spec.arrivals {
            Arrivals::Closed => "batches of 16",
            Arrivals::Open { .. } => "queries",
        };
        notes.push(format!(
            "latency samples: {} {unit} ({} beyond p99; highest percentile with {TAIL_SUPPORT} beyond: {}), \
             {} update batches ({} beyond p90; highest: {})",
            q.len(),
            samples_beyond(q.len(), 0.99),
            tail(q.len()),
            update_latency.len(),
            samples_beyond(update_latency.len(), 0.9),
            tail(update_latency.len()),
        ));
        let ms = |p: f64| percentile(q, p) * 1e3;
        notes.push(format!(
            "query latency: p10 {:.3} p25 {:.3} p50 {:.3} p75 {:.3} p90 {:.3} p99 {:.3} ms",
            ms(0.1),
            ms(0.25),
            ms(0.5),
            ms(0.75),
            ms(0.9),
            ms(0.99)
        ));
        notes.push(format!("fail_rate = {} ratio", tally.fail_rate()));
        Ok(Outcome {
            tally,
            correct,
            end_to_end: vec![
                ("setup_s", median(&setup_seconds), "s"),
                ("throughput_qps", phase.qps(), "req/s"),
                ("query_p50_ms", percentile(q, 0.5) * 1e3, "ms"),
                ("query_p99_ms", percentile(q, 0.99) * 1e3, "ms"),
                ("update_p50_ms", percentile(update_latency, 0.5) * 1e3, "ms"),
                ("update_p90_ms", percentile(update_latency, 0.9) * 1e3, "ms"),
                ("index_mb", index_mb, "MB"),
                ("peak_rss_mb", peak_rss_mb, "MB"),
            ],
            per_layer: Vec::new(),
            notes,
        })
    }

    /// Oracle and bit-identity checks; returns whether all passed.
    fn check(
        &self,
        phase: &Phase,
        reference: Option<HgpaIndex>,
        tally: &mut Tally,
        notes: &mut Vec<String>,
    ) -> bool {
        let wrong = oracle::check(&phase.samples, &self.cfg);
        tally.demote(wrong as u64);
        notes.push(format!(
            "oracle: {} of {} sampled answers within 2*eps/alpha = {:e} of power iteration",
            phase.samples.len() - wrong,
            phase.samples.len(),
            oracle::bound(&self.cfg)
        ));
        let mut mismatched = 0usize;
        if let Some(index) = reference {
            // Same requests, in-process transport, same index: every
            // answer must match bit for bit (cached answers are
            // bit-identical to fresh ones, so cache state does not
            // matter).
            let mut local = DynamicPprServer::from_index(self.graph.clone(), index, self.serve_cfg);
            let mut compared = 0usize;
            for (requests, prints) in &phase.bitcheck {
                let out = local.run_batch(requests);
                compared += prints.len();
                mismatched += prints
                    .iter()
                    .zip(&out.responses)
                    .filter(|(p, r)| **p != oracle::fingerprint(r))
                    .count()
                    + prints.len().abs_diff(out.responses.len());
            }
            tally.demote(mismatched as u64);
            notes.push(format!(
                "socket vs in-process: {} of {compared} answers bit-identical",
                compared - mismatched
            ));
        }
        wrong == 0 && mismatched == 0
    }

    /// Warm up (closed loop only), then run the measured phase.
    fn measure(
        &self,
        server: &mut DynamicPprServer,
        rec: &mut Recorder,
        parent: SpanId,
        seconds: f64,
        request_base: u64,
    ) -> std::io::Result<Phase> {
        let mut stream = RequestStream::new(&self.graph, self.spec.zipf, self.seed);
        match self.spec.arrivals {
            Arrivals::Closed => {
                let editor = EditWorker::spawn(self.spec.name, &self.pprx)?;
                let warm = (seconds * 0.1).min(2.0);
                let t = Instant::now();
                while t.elapsed().as_secs_f64() < warm {
                    server.run_batch(&stream.batch(BATCH));
                }
                self.closed_loop(
                    server,
                    rec,
                    parent,
                    seconds,
                    request_base,
                    &mut stream,
                    editor,
                )
            }
            Arrivals::Open {
                query_rate,
                update_rate,
            } => Ok(self.open_loop(
                server,
                rec,
                parent,
                seconds,
                request_base,
                &mut stream,
                query_rate,
                update_rate,
            )),
        }
    }

    /// One client sends [`BATCH`] requests and waits. Edit `j` of the
    /// workload's edits falls due at `(j + 1/2) / edits` of the phase;
    /// `editor` applies it with the client paused, and the pause is not
    /// phase time. Spreading the edits over the phase averages their
    /// latency over the host's slow drifts, as mixed-rw's update stream
    /// does; applying them to the served index would wipe read-hot's
    /// cache.
    #[allow(clippy::too_many_arguments)]
    fn closed_loop(
        &self,
        server: &mut DynamicPprServer,
        rec: &mut Recorder,
        parent: SpanId,
        seconds: f64,
        request_base: u64,
        stream: &mut RequestStream,
        mut editor: EditWorker,
    ) -> std::io::Result<Phase> {
        let mut phase = Phase::default();
        let mut reservoir = Reservoir::new(self.seed);
        let edits = edits::edit_batches(&self.graph, self.spec.edits);
        let mut next_edit = 0;
        let mut paused = 0.0;
        let t0 = Instant::now();
        loop {
            let now = t0.elapsed().as_secs_f64() - paused;
            if now >= seconds {
                break;
            }
            if next_edit < edits.len()
                && now >= (next_edit as f64 + 0.5) * seconds / edits.len() as f64
            {
                let t = Instant::now();
                let s = rec.start("replica.apply", parent, next_edit as u64);
                match editor.apply(next_edit)? {
                    Ok(a) => {
                        rec.end(s, &[("recomputed", a.recomputed as f64)]);
                        phase.update_latency.push(a.seconds);
                        phase.tally.ok(1);
                        phase.updates.push((edits[next_edit].clone(), false));
                    }
                    Err(e) => {
                        rec.end(s, &[("error", 1.0)]);
                        eprintln!("edit rejected: {e}");
                        phase.tally.fail(1);
                    }
                }
                paused += t.elapsed().as_secs_f64();
                next_edit += 1;
                continue;
            }
            let requests = stream.batch(BATCH);
            let b = phase.batches;
            let s = rec.start("serve.run_batch", parent, request_base + b);
            let t = Instant::now();
            let out = server.run_batch(&requests);
            phase.query_latency.push(t.elapsed().as_secs_f64());
            self.account(&mut phase, rec, s, &requests, &out);
            reservoir.offer(server, &requests, &out.responses);
            if self.spec.socket && b % BITCHECK_STRIDE == 0 && phase.bitcheck.len() < BITCHECK_MAX {
                let prints = out.responses.iter().map(oracle::fingerprint).collect();
                phase.bitcheck.push((requests, prints));
            }
        }
        phase.elapsed = t0.elapsed().as_secs_f64() - paused;
        phase.samples = reservoir.kept;
        Ok(phase)
    }

    /// Per-batch bookkeeping shared by both loops.
    fn account(
        &self,
        phase: &mut Phase,
        rec: &mut Recorder,
        span: SpanId,
        requests: &[Request],
        out: &ppr_serve::BatchOutcome,
    ) {
        rec.end(
            span,
            &[
                ("requests", requests.len() as f64),
                ("fresh", out.fresh_sources as f64),
                ("cached", out.cached_sources as f64),
                ("modeled_net_s", out.modeled_network_seconds),
                ("round_bytes", out.round_bytes as f64),
            ],
        );
        phase.batches += 1;
        phase.queries += requests.len() as u64;
        phase.query_busy += out.seconds;
        for r in requests {
            match r {
                Request::Ppv(u) | Request::TopK { source: u, .. } => {
                    phase.sources.insert(*u);
                }
                Request::Preference(p) => phase.sources.extend(p.iter().map(|&(u, _)| u)),
            }
        }
        phase.tally.ok(requests.len() as u64);
        phase.fresh += out.fresh_sources as u64;
        phase.cached += out.cached_sources as u64;
        if out.fresh_sources > 0 {
            phase.rounds += 1;
            if rec.enabled() && phase.rounds_seen.len() < REPLAY_MAX {
                phase.rounds_seen.push(distinct_sources(requests));
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn open_loop(
        &self,
        server: &mut DynamicPprServer,
        rec: &mut Recorder,
        parent: SpanId,
        seconds: f64,
        request_base: u64,
        stream: &mut RequestStream,
        query_rate: f64,
        update_rate: f64,
    ) -> Phase {
        let mut rng = SplitMix::derive(self.seed, 0x0BE7);
        let queries = poisson_times(&mut rng, query_rate, seconds);
        let updates = jittered_times(&mut rng, update_rate, seconds);
        let mut edits = edits::edit_batches(&self.graph, updates.len()).into_iter();
        let mut schedule: Vec<(Due, Event)> = queries
            .iter()
            .map(|&at| (Due { at, update: false }, Event::Query(stream.next())))
            .chain(updates.iter().filter_map(|&at| {
                edits
                    .next()
                    .map(|e| (Due { at, update: true }, Event::Update(e)))
            }))
            .collect();
        schedule.sort_by(|a, b| a.0.at.total_cmp(&b.0.at));
        let (due, events): (Vec<Due>, Vec<Event>) = schedule.into_iter().unzip();
        let mut target = OpenTarget {
            bench: self,
            server,
            rec,
            parent,
            request_base,
            events: &events,
            phase: Phase::default(),
            reservoir: Reservoir::new(self.seed),
        };
        let times = openloop::run(&due, BATCH, &mut target);
        let mut phase = target.phase;
        phase.samples = target.reservoir.kept;
        phase.query_latency = times.query_latency;
        phase.update_latency = times.update_latency;
        phase.queue_wait = times.queue_wait;
        phase.late = times.late;
        phase.elapsed = times.elapsed;
        phase
    }

    fn provenance(&self, server: &DynamicPprServer, phase: &Phase) -> Vec<String> {
        let s = &self.spec;
        let lookups = phase.fresh + phase.cached;
        let ppv_sizes: Vec<f64> = phase
            .samples
            .iter()
            .filter_map(|x| x.response.as_ppv())
            .map(|v| v.wire_bytes() as f64)
            .collect();
        let ppv_bytes = mean(&ppv_sizes);
        let capacity = phase.queries as f64 / phase.query_busy.max(1e-9);
        let mut notes = vec![
            format!("workload: {} -- {}", s.name, s.why),
            format!("stresses: {}; bypasses: {}", s.stresses, s.bypasses),
            format!(
                "graph: {} stand-in, {} nodes, {} edges; {} machines, {THREADS} threads, {THREADS} shards",
                s.dataset.name(),
                self.graph.node_count(),
                self.graph.edge_count(),
                s.machines
            ),
            format!(
                "cache: capacity {:.1} MB against a working set of ~{:.1} MB ({} distinct sources x \
                 ~{:.0} kB per PPV); {:.1} MB resident at the end; {:.1}% of {} source lookups hit",
                s.cache_bytes as f64 / 1e6,
                phase.sources.len() as f64 * ppv_bytes / 1e6,
                phase.sources.len(),
                ppv_bytes / 1e3,
                server.cache_bytes() as f64 / 1e6,
                100.0 * phase.cached as f64 / lookups.max(1) as f64,
                lookups
            ),
        ];
        match s.arrivals {
            Arrivals::Closed => notes.push(format!(
                "load: closed loop, 1 client x {BATCH} requests, zipf {}; measured capacity {:.0} req/s",
                s.zipf,
                capacity
            )),
            Arrivals::Open {
                query_rate,
                update_rate,
            } => {
                let update_busy = mean(&phase.update_service);
                notes.push(format!(
                    "load: open loop, offered {query_rate} req/s + {update_rate} update batches/s; \
                     achieved {:.0} req/s against a measured query capacity of {:.0} req/s \
                     (requests / time inside run_batch); one update batch takes {:.0} ms of service \
                     on average, so updates alone could be served at ~{:.1}/s ({:.0}% busy on updates)",
                    phase.qps(),
                    capacity,
                    update_busy * 1e3,
                    1.0 / update_busy.max(1e-9),
                    100.0 * phase.update_service.iter().sum::<f64>() / phase.elapsed.max(1e-9)
                ))
            }
        }
        notes
    }

    fn run_traced(&self) -> std::io::Result<Outcome> {
        let mut rec = Recorder::new(true);
        let pre = self.prebuild(&mut rec)?;
        let setup_span = rec.start("setup", NONE, 0);
        let Ready {
            server: mut first,
            offline,
            socket,
            ..
        } = self.setup(&mut rec, setup_span)?;
        rec.end(setup_span, &[]);
        let offline = offline.or(pre.map(|(o, _)| o)).unwrap_or_default();
        if !self.spec.cold_start {
            self.save(first.index(), &mut rec, NONE)?;
            let s = rec.start("core.persist.load", NONE, 0);
            let loaded = persist::load_hgpa_file(&self.pprx)?;
            rec.end(s, &[("nodes", loaded.node_count() as f64)]);
        }
        let initial = (first.graph().clone(), first.index().clone());
        let half = self.seconds / 2.0;

        // Untraced half: the reference for the tracing overhead, and the
        // answers the correctness checks look at.
        let mut off = Recorder::new(false);
        let plain = self.measure(&mut first, &mut off, NONE, half, 0)?;
        let mut tally = plain.tally;
        let mut notes = self.provenance(&first, &plain);
        let reference = socket.as_ref().map(|_| first.index().clone());
        let mut correct = self.check(&plain, reference, &mut tally, &mut notes);
        drop(first);

        // Traced half: a fresh server on the same index, same inputs.
        let mut server =
            DynamicPprServer::from_index(initial.0.clone(), initial.1.clone(), self.serve_cfg);
        if let Some(sock) = &socket {
            server.attach_socket(sock.clone());
        }
        let wire_before = socket
            .as_ref()
            .map(|s| (s.metrics(), s.supervisor_stats().rounds));
        let p = rec.start("phase", NONE, 0);
        let traced = self.measure(&mut server, &mut rec, p, half, 1 << 32)?;
        rec.end(p, &[]);
        tally.absorb(&traced.tally);
        let wire_after = socket
            .as_ref()
            .map(|s| (s.metrics(), s.supervisor_stats().rounds));
        let cache_mb = server.cache_bytes() as f64 / 1e6;

        self.replay_rounds(&server, socket.as_deref(), &traced.rounds_seen, &mut rec);
        self.replay_updates(initial, &traced.updates, &mut rec);

        let restarts = socket.as_ref().map_or(0, |s| s.supervisor_stats().restarts);
        if let Some(sock) = socket {
            tally.demote(restarts);
            server.detach_socket();
            sock.shutdown();
        }
        correct &= tally.failed == 0;

        let path = self
            .out_dir
            .join(format!("trace-{}-seed{}.jsonl", self.spec.name, self.seed));
        let header = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{}}}",
            self.spec.name, self.seed, self.seconds
        );
        rec.write_jsonl(&path, &header)?;
        notes.push(format!(
            "spans: {} written to {}",
            rec.spans().len(),
            path.display()
        ));
        for (name, (count, total, own)) in rec.by_name() {
            notes.push(format!(
                "span {name:<28} n={count:<6} total {:>10.3} ms  self {:>10.3} ms",
                total * 1e3,
                own * 1e3
            ));
        }

        let wire = match (wire_before, wire_after) {
            (Some((b, rb)), Some((a, ra))) => Some(wire_delta(&b, &a, ra.saturating_sub(rb))),
            _ => None,
        };
        let per_layer = layer_metrics(LayerInputs {
            rec: &rec,
            traced: &traced,
            plain: &plain,
            offline: &offline,
            cache_mb,
            wire,
            restarts,
        });
        Ok(Outcome {
            tally,
            correct,
            end_to_end: Vec::new(),
            per_layer,
            notes,
        })
    }

    /// Replay recorded rounds through the public cluster and core entry
    /// points, to split a round into machine compute and merge.
    fn replay_rounds(
        &self,
        server: &DynamicPprServer,
        socket: Option<&SocketCluster>,
        rounds: &[Vec<NodeId>],
        rec: &mut Recorder,
    ) {
        let index = server.index();
        let cluster = Cluster::new(ClusterConfig {
            machines: index.machines(),
            network: self.serve_cfg.network,
            parallelism: self.serve_cfg.parallelism,
        });
        let mut scratch = Scratch::with_len(index.node_count());
        for (b, sources) in rounds.iter().enumerate() {
            let b = b as u64;
            let top = rec.start("replay.round", NONE, b);
            let s = rec.start("cluster.query_many", top, b);
            let report = cluster.query_many(index, sources);
            let entries: usize = report.machines.iter().map(|m| m.entries).sum();
            let results: usize = report.results.iter().map(|r| r.nnz()).sum();
            rec.end(
                s,
                &[
                    ("sources", sources.len() as f64),
                    ("reply_entries", entries as f64),
                    ("result_entries", results as f64),
                    ("reply_bytes", report.total_bytes() as f64),
                    ("wall_s", report.wall_seconds),
                    (
                        "max_machine_s",
                        report
                            .machines
                            .iter()
                            .map(|m| m.compute_seconds)
                            .fold(0.0, f64::max),
                    ),
                    ("merge_s", report.coordinator_seconds),
                    ("modeled_net_s", report.modeled_network_seconds),
                ],
            );
            for m in 0..index.machines() {
                let s = rec.start("core.machine_vectors_into", top, b);
                let v = index.machine_vectors_into(sources, m as u32, &mut scratch);
                std::hint::black_box(v);
                rec.end(s, &[("sources", sources.len() as f64)]);
            }
            if let Some(sock) = socket {
                let s = rec.start("cluster.socket.round", top, b);
                let replies = sock.round(sources, &ResilienceConfig::default());
                let missing = replies.iter().filter(|r| r.is_none()).count();
                rec.end(s, &[("missing", missing as f64)]);
            }
            rec.end(top, &[]);
        }
    }

    /// Replay the applied update batches on a replica of the initial
    /// index through the same public steps the server takes.
    fn replay_updates(
        &self,
        initial: (CsrGraph, HgpaIndex),
        updates: &[(Vec<EdgeUpdate>, bool)],
        rec: &mut Recorder,
    ) {
        let (mut graph, mut index) = initial;
        let mut engine = MaintenanceEngine::new();
        for (k, (batch, cache_held)) in updates.iter().enumerate() {
            let k = k as u64;
            let top = rec.start("replay.update", NONE, k);
            let s = rec.start("graph.plan_delta", top, k);
            let plan = plan_delta(&graph, &GraphDelta::from_edges(batch.clone()));
            rec.end(s, &[]);
            if let Ok(DeltaPlan::Apply(applied)) = plan {
                let s = rec.start("core.incremental.apply", top, k);
                let stats = engine.apply(&mut index, &applied);
                match &stats {
                    Ok(st) => rec.end(
                        s,
                        &[
                            ("recomputed", st.vectors_recomputed as f64),
                            ("skipped", st.vectors_skipped as f64),
                            ("subgraphs", st.subgraphs_recomputed as f64),
                            ("promoted", st.promoted_hubs.len() as f64),
                        ],
                    ),
                    Err(_) => rec.end(s, &[]),
                }
                if let (Ok(st), true) = (stats, *cache_held) {
                    let s = rec.start("graph.reverse_reach", top, k);
                    std::hint::black_box(reverse_reachable(&applied.graph, &st.dirty_nodes));
                    rec.end(s, &[]);
                }
                graph = applied.graph;
            }
            rec.end(top, &[]);
        }
    }
}

enum Event {
    Query(Request),
    Update(Vec<EdgeUpdate>),
}

/// Apply one update batch through the server, as one epoch barrier.
fn apply(
    server: &mut DynamicPprServer,
    rec: &mut Recorder,
    parent: SpanId,
    request: u64,
    batch: &[EdgeUpdate],
    tally: &mut Tally,
) -> bool {
    let s = rec.start("serve.apply_updates", parent, request);
    match server.apply_updates(batch) {
        Ok(o) => {
            rec.end(
                s,
                &[
                    ("applied", o.applied as f64),
                    ("recomputed", o.stats.vectors_recomputed as f64),
                    ("evicted", o.evicted as f64),
                    ("retained", o.retained as f64),
                ],
            );
            tally.ok(1);
            true
        }
        Err(e) => {
            rec.end(s, &[("error", 1.0)]);
            eprintln!("update batch rejected: {e}");
            tally.fail(1);
            false
        }
    }
}

struct OpenTarget<'a> {
    bench: &'a Bench,
    server: &'a mut DynamicPprServer,
    rec: &'a mut Recorder,
    parent: SpanId,
    request_base: u64,
    events: &'a [Event],
    phase: Phase,
    reservoir: Reservoir,
}

impl openloop::Target for OpenTarget<'_> {
    fn serve(&mut self, batch: std::ops::Range<usize>) {
        let requests: Vec<Request> = self.events[batch]
            .iter()
            .filter_map(|e| match e {
                Event::Query(r) => Some(r.clone()),
                Event::Update(_) => None,
            })
            .collect();
        let s = self.rec.start(
            "serve.run_batch",
            self.parent,
            self.request_base + self.phase.batches,
        );
        let out = self.server.run_batch(&requests);
        self.bench
            .account(&mut self.phase, self.rec, s, &requests, &out);
        self.reservoir.offer(self.server, &requests, &out.responses);
    }

    fn update(&mut self, event: usize) {
        let Event::Update(batch) = &self.events[event] else {
            return;
        };
        let cache_held = self.server.cache_len() > 0;
        let k = self.phase.updates.len() as u64;
        let t = Instant::now();
        if apply(
            self.server,
            self.rec,
            self.parent,
            k,
            batch,
            &mut self.phase.tally,
        ) {
            self.phase.update_service.push(t.elapsed().as_secs_f64());
            self.phase.updates.push((batch.clone(), cache_held));
        }
    }
}

fn host_reset_peak() {
    if !crate::host::reset_peak_rss() {
        eprintln!("note: cannot reset VmHWM; peak_rss_mb includes set-up");
    }
}

/// Wire traffic of the traced phase: (bytes, frames, rounds).
fn wire_delta(before: &WireMetrics, after: &WireMetrics, rounds: u64) -> (f64, f64, f64) {
    let bytes = (after.bytes_sent + after.bytes_received)
        .saturating_sub(before.bytes_sent + before.bytes_received);
    let frames = (after.frames_sent + after.frames_received)
        .saturating_sub(before.frames_sent + before.frames_received);
    (bytes as f64, frames as f64, rounds as f64)
}

struct LayerInputs<'a> {
    rec: &'a Recorder,
    traced: &'a Phase,
    plain: &'a Phase,
    offline: &'a OfflineReport,
    cache_mb: f64,
    wire: Option<(f64, f64, f64)>,
    restarts: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run. A layer the workload bypasses
/// reports 0.
fn layer_metrics(x: LayerInputs<'_>) -> Vec<Metric> {
    let rec = x.rec;
    let t = x.traced;
    let ms = 1e3;
    let sum = |name: &str, key: &str| rec.counter_sum(name, key);
    let mean_ms = |name: &str| mean(&rec.durations(name)) * ms;
    let span_s = |name: &str| rec.durations(name).first().copied().unwrap_or(0.0);
    let rounds = rec.durations("cluster.query_many").len() as f64;
    let sources = sum("cluster.query_many", "sources");
    let mv_sources = sum("core.machine_vectors_into", "sources");
    let mv_seconds: f64 = rec.durations("core.machine_vectors_into").iter().sum();
    let updates = rec.durations("core.incremental.apply").len() as f64;
    let recomputed = sum("core.incremental.apply", "recomputed");
    let skipped = sum("core.incremental.apply", "skipped");
    let applies: Vec<f64> = ["serve.apply_updates", "replica.apply"]
        .iter()
        .flat_map(|n| rec.durations(n))
        .collect();
    let busy: f64 = applies.iter().sum();
    let steps: f64 = [
        "graph.plan_delta",
        "core.incremental.apply",
        "graph.reverse_reach",
    ]
    .iter()
    .map(|n| rec.durations(n).iter().sum::<f64>())
    .sum();
    let evicted = sum("serve.apply_updates", "evicted");
    let retained = sum("serve.apply_updates", "retained");
    let (wire_bytes, wire_frames, wire_rounds) = x.wire.unwrap_or_default();
    let reach = rec.durations("graph.reverse_reach");
    let reach_per_update = ratio(reach.iter().sum::<f64>(), updates) * ms;
    vec![
        (
            "serve.hit_rate",
            ratio(t.cached as f64, (t.cached + t.fresh) as f64),
            "ratio",
        ),
        (
            "serve.fresh_per_batch",
            ratio(t.fresh as f64, t.batches as f64),
            "count",
        ),
        (
            "cluster.rounds_per_kq",
            ratio(t.rounds as f64 * 1e3, t.queries as f64),
            "count",
        ),
        (
            "serve.batch_ms",
            median(&rec.durations("serve.run_batch")) * ms,
            "ms",
        ),
        ("serve.cache_mb", x.cache_mb, "MB"),
        (
            "cluster.round_ms",
            ratio(sum("cluster.query_many", "wall_s"), rounds) * ms,
            "ms",
        ),
        (
            "cluster.max_machine_ms",
            ratio(sum("cluster.query_many", "max_machine_s"), rounds) * ms,
            "ms",
        ),
        (
            "cluster.merge_ms",
            ratio(sum("cluster.query_many", "merge_s"), rounds) * ms,
            "ms",
        ),
        (
            "cluster.merge_share",
            ratio(
                sum("cluster.query_many", "merge_s"),
                sum("cluster.query_many", "wall_s"),
            ),
            "ratio",
        ),
        (
            "cluster.reply_entries_per_source",
            ratio(sum("cluster.query_many", "reply_entries"), sources),
            "count",
        ),
        (
            "cluster.result_entries_per_source",
            ratio(sum("cluster.query_many", "result_entries"), sources),
            "count",
        ),
        (
            "cluster.reply_bytes_per_source",
            ratio(sum("cluster.query_many", "reply_bytes"), sources),
            "B",
        ),
        (
            "cluster.modeled_net_ms",
            ratio(sum("cluster.query_many", "modeled_net_s"), rounds) * ms,
            "ms",
        ),
        (
            "core.query.us_per_source",
            ratio(mv_seconds, mv_sources) * 1e6,
            "us",
        ),
        ("partition.s", x.offline.partition_seconds, "s"),
        ("core.build.precompute_s", x.offline.wall_seconds, "s"),
        (
            "core.build.max_machine_s",
            x.offline.max_machine_seconds(),
            "s",
        ),
        (
            "core.build.stored_entries",
            sum("core.build", "stored_entries"),
            "count",
        ),
        (
            "core.build.peak_scratch_mb",
            x.offline.peak_scratch_bytes as f64 / 1e6,
            "MB",
        ),
        ("core.persist.load_s", span_s("core.persist.load"), "s"),
        ("core.persist.save_s", span_s("core.persist.save"), "s"),
        (
            "core.incremental.apply_ms",
            mean_ms("core.incremental.apply"),
            "ms",
        ),
        (
            "core.incremental.vectors_recomputed",
            ratio(recomputed, updates),
            "count",
        ),
        (
            "core.incremental.skip_ratio",
            ratio(skipped, recomputed + skipped),
            "ratio",
        ),
        (
            "core.incremental.subgraphs",
            ratio(sum("core.incremental.apply", "subgraphs"), updates),
            "count",
        ),
        (
            "core.incremental.hubs_promoted",
            ratio(sum("core.incremental.apply", "promoted"), updates),
            "count",
        ),
        ("graph.plan_delta_ms", mean_ms("graph.plan_delta"), "ms"),
        ("graph.reverse_reach_ms", reach_per_update, "ms"),
        ("serve.update_busy_ms", mean(&applies) * ms, "ms"),
        ("serve.update_residual", ratio(busy - steps, busy), "ratio"),
        (
            "serve.invalidate_retained_ratio",
            ratio(retained, evicted + retained),
            "ratio",
        ),
        ("serve.queue_wait_ms", mean(&t.queue_wait) * ms, "ms"),
        (
            "cluster.socket.launch_s",
            span_s("cluster.socket.launch"),
            "s",
        ),
        (
            "cluster.socket.round_ms",
            mean_ms("cluster.socket.round"),
            "ms",
        ),
        (
            "wire.bytes_per_query",
            ratio(wire_bytes, t.queries as f64),
            "B",
        ),
        (
            "wire.frames_per_round",
            ratio(wire_frames, wire_rounds),
            "count",
        ),
        ("cluster.socket.restarts", x.restarts as f64, "count"),
        ("workload.late_ms", mean(&t.late) * ms, "ms"),
        ("trace.overhead_qps", t.qps() - x.plain.qps(), "req/s"),
        ("trace.overhead_p50_ms", t.p50_ms() - x.plain.p50_ms(), "ms"),
    ]
}
