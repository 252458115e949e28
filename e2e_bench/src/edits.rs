//! Single-edge edits, and the child process that applies the read
//! workloads' edits.
//!
//! The read workloads time a few edits on a replica of the served index
//! (`IndexReplica::apply`, the path socket workers take). The replica
//! lives in a child process, started as `ppr-e2e-bench edit <workload>
//! <index.pprx>`, so its copy of the graph and index never counts in
//! the coordinator's `peak_rss_mb`. The child loads the index, answers
//! `ready`, then applies edit `j` for each line `j` it reads and answers
//! `ok <seconds> <vectors recomputed>` or `err <message>`. It exits at
//! the end of its input.

use crate::workloads;
use ppr_core::persist;
use ppr_graph::{CsrGraph, EdgeUpdate, GraphDelta};
use ppr_serve::IndexReplica;
use ppr_workload::{MixedEvent, MixedStream, MixedStreamConfig};
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Seed of every workload's edit stream. The edits are fixed, like the
/// graph: single edits differ in cost by more than run-to-run noise, so
/// a seeded draw would make update latency follow the draw, not the
/// program.
pub const EDIT_SEED: u64 = 0xED17;

/// `count` single-edge update batches, each valid against the graph all
/// earlier batches produce.
pub fn edit_batches(g: &CsrGraph, count: usize) -> Vec<Vec<EdgeUpdate>> {
    let mut stream = MixedStream::new(
        g,
        MixedStreamConfig {
            update_rate: 1.0,
            updates_per_batch: 1,
            ..Default::default()
        },
        EDIT_SEED,
    );
    (0..count)
        .filter_map(|_| match stream.next_event() {
            MixedEvent::Update(b) => Some(b),
            _ => None,
        })
        .collect()
}

/// One applied edit, as the child reports it.
pub struct Applied {
    pub seconds: f64,
    pub recomputed: u64,
}

/// The coordinator's handle on the edit child. Dropping it closes the
/// child's input and waits for it to exit.
pub struct EditWorker {
    child: Child,
    input: Option<ChildStdin>,
    output: BufReader<ChildStdout>,
}

impl EditWorker {
    /// Start the child on `workload`'s graph and the index in `pprx`,
    /// and wait until it is ready.
    pub fn spawn(workload: &str, pprx: &Path) -> io::Result<Self> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("edit")
            .arg(workload)
            .arg(pprx)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let input = child.stdin.take();
        let output = child.stdout.take().map(BufReader::new);
        let mut worker = Self {
            child,
            input,
            output: output.ok_or_else(|| io::Error::other("edit child has no stdout"))?,
        };
        match worker.read_line()?.as_str() {
            "ready" => Ok(worker),
            other => Err(io::Error::other(format!("edit child: {other}"))),
        }
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.output.read_line(&mut line)? == 0 {
            return Err(io::Error::other("edit child exited"));
        }
        Ok(line.trim_end().to_string())
    }

    /// Apply edit `j`. The outer error is a broken child, the inner one
    /// an edit the replica rejected.
    pub fn apply(&mut self, j: usize) -> io::Result<Result<Applied, String>> {
        let input = self.input.as_mut().expect("open until drop");
        writeln!(input, "{j}")?;
        input.flush()?;
        let line = self.read_line()?;
        let mut words = line.split_whitespace();
        match (words.next(), words.next(), words.next()) {
            (Some("ok"), Some(s), Some(r)) => match (s.parse(), r.parse()) {
                (Ok(seconds), Ok(recomputed)) => Ok(Ok(Applied {
                    seconds,
                    recomputed,
                })),
                _ => Err(io::Error::other(format!("edit child: {line}"))),
            },
            (Some("err"), ..) => Ok(Err(line[3..].trim().to_string())),
            _ => Err(io::Error::other(format!("edit child: {line}"))),
        }
    }
}

impl Drop for EditWorker {
    fn drop(&mut self) {
        // End of input makes the child exit.
        drop(self.input.take());
        let _ = self.child.wait();
    }
}

/// The child's side: `ppr-e2e-bench edit <workload> <index.pprx>`.
pub fn serve(workload: &str, pprx: &Path) -> io::Result<()> {
    let spec = workloads::spec(workload)
        .ok_or_else(|| io::Error::other(format!("unknown workload {workload}")))?;
    let graph = spec.dataset.generate_with_nodes(spec.nodes);
    let batches = edit_batches(&graph, spec.edits);
    let mut replica = IndexReplica::new(graph, persist::load_hgpa_file(pprx)?, 0);
    let mut out = io::stdout().lock();
    writeln!(out, "ready")?;
    out.flush()?;
    for line in io::stdin().lock().lines() {
        let line = line?;
        let batch = line
            .trim()
            .parse::<usize>()
            .ok()
            .and_then(|j| batches.get(j))
            .ok_or_else(|| io::Error::other(format!("no edit {line}")))?;
        let t = Instant::now();
        let epoch = replica.epoch() + 1;
        match replica.apply(&GraphDelta::from_edges(batch.clone()), epoch) {
            Ok(st) => writeln!(
                out,
                "ok {} {}",
                t.elapsed().as_secs_f64(),
                st.vectors_recomputed
            )?,
            Err(e) => writeln!(out, "err {e}")?,
        }
        out.flush()?;
    }
    Ok(())
}
