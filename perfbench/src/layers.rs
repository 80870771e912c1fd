//! The read path, replayed in-process one layer call at a time.
//!
//! The traced run replays a workload's recorded queries through the same
//! public calls the measured path makes, in the same order, with a span
//! around each call: `MetaTree::candidate_leaves` (meta), `Dataset::file`
//! (dataset), `BatFile::plan` or `QueryPlan::new` (plan),
//! `BatFile::prefetch` (fetch), `BatFile::execute_plan` or
//! `QueryPlan::execute` (execute, with the estimated decode time split
//! out as codec), `ServerMsg::encode`/`decode` (wire) and the client's
//! digest of the decoded chunks (client). The same replay with no tracer
//! attached is the untraced reference for `trace.overhead`.

use crate::common::{Digest, StreamHash};
use crate::trace::{SpanId, Tracer};
use bat_layout::format::TreeletLayout;
use bat_layout::{BatFile, FilePlan, PlanStrategy, Query};
use bat_stream::{Chunk, ServerMsg, CHUNK_POINTS};
use libbat::Dataset;
use std::io;

/// Which measured path a replay mirrors.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `Dataset::query`: leaves in candidate order, each planned then
    /// executed with `BatFile::execute_plan`.
    Dataset,
    /// The stream server: `QueryPlan::new`, then `QueryPlan::execute`
    /// into chunks that cross the wire codec.
    Serve,
}

/// Optional span recording: with no tracer the replay makes the same
/// calls and records nothing.
pub struct Rec<'a>(pub Option<&'a mut Tracer>);

impl Rec<'_> {
    fn begin(&mut self, name: &'static str) -> Option<SpanId> {
        self.0.as_mut().map(|t| t.begin(name))
    }

    fn end(&mut self, id: Option<SpanId>) {
        if let (Some(t), Some(id)) = (self.0.as_mut(), id) {
            t.end(id);
        }
    }

    fn count(&mut self, name: &'static str, v: f64) {
        if let Some(t) = self.0.as_mut() {
            t.count(name, v);
        }
    }
}

/// A v2 block decoded during one `execute_plan`, for the decode-time
/// estimate: which execute span it belongs to and how it was decoded.
pub struct DecodeEvent {
    pub span: SpanId,
    /// Bytes decoded by the parallel warm-up, and its parallelism.
    pub warm_bytes: u64,
    pub warm_threads: usize,
    /// Bytes decoded again on the demand path (blocks the cache did not
    /// keep).
    pub demand_bytes: u64,
}

/// Blocks the replay missed in cache, for the decode-only benchmark.
#[derive(Default)]
pub struct Missed {
    /// `(leaf, treelet)`, deduplicated.
    pub blocks: std::collections::BTreeSet<(u32, u32)>,
    pub events: Vec<DecodeEvent>,
}

fn file_plan_counts(rec: &mut Rec<'_>, plan: &FilePlan) {
    rec.count("plan.files", 1.0);
    rec.count("plan.shallow_nodes", plan.shallow_nodes_visited as f64);
    rec.count("plan.nodes_pruned", plan.nodes_pruned() as f64);
    rec.count("plan.treelets", plan.num_treelets() as f64);
    if plan.strategy == PlanStrategy::Index {
        rec.count("plan.files_index", 1.0);
    }
}

fn exec_counts(rec: &mut Rec<'_>, s: &bat_layout::reader::QueryStats) {
    rec.count("execute.points_tested", s.points_tested as f64);
    rec.count("execute.points_returned", s.points_returned as f64);
    rec.count("execute.pages", s.pages_touched as f64);
    rec.count("bitmap.hits", s.filter_hits as f64);
    rec.count("bitmap.false_positives", s.filter_false_positives as f64);
}

/// Decoded (v1-layout) size of treelet `t`.
fn decoded_size(file: &BatFile, t: u32) -> u64 {
    let head = file.head();
    let leaf = &head.leaves[t as usize];
    TreeletLayout::compute(
        leaf.num_nodes as usize,
        leaf.num_particles as usize,
        &head.descs,
    )
    .size as u64
}

/// Replay one query along `path`, returning the digest of its points.
pub fn replay_query(
    ds: &Dataset,
    query: &Query,
    path: Path,
    rec: &mut Rec<'_>,
    missed: &mut Missed,
) -> io::Result<Digest> {
    let invalid =
        |e: &dyn std::fmt::Display| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
    let q = query
        .clone()
        .validated(ds.descs().len())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    rec.count("queries", 1.0);

    // The serve path culls inside `QueryPlan::new`; this separate call
    // times the cull on its own there and feeds only the meta metrics.
    let span = rec.begin("meta");
    let candidates = ds.meta().candidate_leaves(&q).map_err(|e| invalid(&e))?;
    rec.end(span);
    rec.count("meta.leaves", candidates.len() as f64);

    let mut hash = StreamHash::new();
    match path {
        Path::Dataset => {
            for leaf in candidates {
                let span = rec.begin("dataset");
                let file = ds.file(leaf)?;
                rec.end(span);
                let span = rec.begin("plan");
                let plan = file.plan(&q).map_err(|e| invalid(&e))?;
                rec.end(span);
                file_plan_counts(rec, &plan);

                let span = rec.begin("fetch");
                file.prefetch(&plan);
                rec.end(span);

                // Which planned blocks the cache lacks: `execute_plan`
                // decodes them (v2), in parallel when there are several.
                let cache = file.cache().cloned();
                let pending: Vec<u32> = match (&cache, file.head().is_v2()) {
                    (Some(c), true) => plan
                        .treelets()
                        .iter()
                        .copied()
                        .filter(|&t| !c.contains(file.file_id(), t))
                        .collect(),
                    _ => Vec::new(),
                };

                let span = rec.begin("execute");
                let stats = file
                    .execute_plan(&q, &plan, |p| hash.record(&p))
                    .map_err(|e| invalid(&e))?;
                rec.end(span);
                exec_counts(rec, &stats);

                if let (Some(span), Some(c)) = (span, &cache) {
                    let warm = pending.len() >= 2;
                    let mut ev = DecodeEvent {
                        span,
                        warm_bytes: 0,
                        warm_threads: pending.len().min(threads()),
                        demand_bytes: 0,
                    };
                    for &t in &pending {
                        let size = decoded_size(&file, t);
                        if warm {
                            ev.warm_bytes += size;
                        }
                        if !warm || !c.contains(file.file_id(), t) {
                            ev.demand_bytes += size;
                        }
                        missed.blocks.insert((leaf, t));
                    }
                    if ev.warm_bytes + ev.demand_bytes > 0 {
                        missed.events.push(ev);
                    }
                }
            }
        }
        Path::Serve => {
            // What the server's pool worker does for one request:
            // `QueryPlan::new`, then `QueryPlan::execute` into bounded
            // chunks. The plan culls the leaves again (inside the plan
            // span) and opens, plans and orders the files itself;
            // execution prefetches each file (a no-op over mmap).
            let span = rec.begin("plan");
            let plan = bat_serve::QueryPlan::new(ds, &q).map_err(|e| invalid(&e))?;
            rec.end(span);
            let ps = plan.stats();
            rec.count("plan.files", ps.files_considered as f64);
            rec.count("plan.nodes_pruned", ps.nodes_pruned() as f64);
            rec.count("plan.treelets", ps.treelets_planned as f64);
            rec.count("plan.files_index", ps.files_index as f64);

            let num_attrs = ds.descs().len();
            let mut chunks: Vec<Chunk> = Vec::new();
            let mut chunk = Chunk {
                positions: Vec::with_capacity(CHUNK_POINTS),
                attrs: Vec::with_capacity(CHUNK_POINTS * num_attrs),
                num_attrs,
            };
            let span = rec.begin("execute");
            let stats = plan
                .execute(None, |p| {
                    chunk.positions.push(p.position);
                    chunk.attrs.extend_from_slice(p.attrs);
                    if chunk.len() == CHUNK_POINTS {
                        let full = std::mem::take(&mut chunk);
                        chunk.num_attrs = num_attrs;
                        chunk.positions.reserve(CHUNK_POINTS);
                        chunks.push(full);
                    }
                })
                .map_err(|e| invalid(&e))?;
            if !chunk.is_empty() {
                chunks.push(chunk);
            }
            rec.end(span);
            exec_counts(rec, &stats);

            let span = rec.begin("wire.encode");
            let frames: Vec<Vec<u8>> = chunks
                .into_iter()
                .map(|c| ServerMsg::Chunk(c).encode())
                .collect();
            rec.end(span);
            let bytes: usize = frames.iter().map(Vec::len).sum();
            rec.count("wire.bytes", bytes as f64);
            rec.count("wire.chunks", frames.len() as f64);

            let span = rec.begin("wire.decode");
            let mut decoded = Vec::with_capacity(frames.len());
            for f in &frames {
                match ServerMsg::decode(f).map_err(|e| invalid(&e))? {
                    ServerMsg::Chunk(c) => decoded.push(c),
                    other => return Err(invalid(&format!("unexpected frame {other:?}"))),
                }
            }
            rec.end(span);
            // The client consuming the stream: the measured clients
            // digest every chunk the same way.
            let span = rec.begin("client");
            for c in &decoded {
                hash.chunk(c);
            }
            rec.end(span);
        }
    }
    Ok(hash.digest())
}

/// Shallow-tree nodes `BatFile::plan` visits for `q` over every candidate
/// leaf. `QueryPlan` does not report them, so a [`Path::Serve`] replay
/// counts them here, outside its timed spans.
pub fn shallow_nodes(ds: &Dataset, q: &Query) -> io::Result<u64> {
    let invalid =
        |e: &dyn std::fmt::Display| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
    let q = q
        .clone()
        .validated(ds.descs().len())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let mut nodes = 0;
    for leaf in ds.meta().candidate_leaves(&q).map_err(|e| invalid(&e))? {
        nodes += ds
            .file(leaf)?
            .plan(&q)
            .map_err(|e| invalid(&e))?
            .shallow_nodes_visited;
    }
    Ok(nodes)
}

/// Replay `items` (query, reference digest) along `path`, with spans when
/// a tracer is given (one root `query` span per item, query id = index).
/// With a `budget`, stops once that much time has passed. Returns how
/// many items ran and the wall time; digest mismatches mark the report.
pub fn replay(
    ds: &Dataset,
    items: &[(&Query, Digest)],
    path: Path,
    budget: Option<std::time::Duration>,
    mut tracer: Option<&mut Tracer>,
    missed: &mut Missed,
    report: &mut crate::summary::Report,
) -> io::Result<(usize, f64)> {
    let t0 = std::time::Instant::now();
    let mut n = 0;
    for (id, (q, want)) in items.iter().enumerate() {
        if budget.is_some_and(|b| t0.elapsed() >= b) {
            break;
        }
        let root = tracer.as_mut().map(|t| {
            t.set_query(id as u64);
            t.begin("query")
        });
        let got = replay_query(ds, q, path, &mut Rec(tracer.as_deref_mut()), missed)?;
        if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
            t.end(root);
        }
        if got != *want {
            report.mismatch(format!(
                "replayed query {id}: got {got:?}, reference {want:?}"
            ));
        }
        n += 1;
    }
    Ok((n, t0.elapsed().as_secs_f64()))
}

/// Worker threads the decode warm-up can use.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Decode-only throughput of `format::decode_block` over the blocks the
/// replay missed, read from the leaf files on disk: raw (decoded) bytes
/// out per second, in GB/s. Returns 0 when nothing was decoded.
pub fn decode_gbps(ds: &Dataset, dir: &std::path::Path, missed: &Missed) -> io::Result<f64> {
    const MAX_BYTES: u64 = 192 << 20;
    let mut by_leaf: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
    for &(leaf, t) in &missed.blocks {
        by_leaf.entry(leaf).or_default().push(t);
    }
    let (mut out_bytes, mut secs) = (0u64, 0.0f64);
    'files: for (leaf, treelets) in by_leaf {
        let bytes = std::fs::read(dir.join(&ds.meta().leaves[leaf as usize].file))?;
        let head = bat_layout::format::read_head(&bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        for t in treelets {
            let (Some(rec), Some(stored)) = (
                head.codec_rec(t as usize),
                head.stored_block_size(t as usize),
            ) else {
                continue;
            };
            let leaf_rec = &head.leaves[t as usize];
            let layout = TreeletLayout::compute(
                leaf_rec.num_nodes as usize,
                leaf_rec.num_particles as usize,
                &head.descs,
            );
            let start = leaf_rec.offset as usize;
            let block = &bytes[start..start + stored];
            let t0 = std::time::Instant::now();
            let decoded = bat_layout::format::decode_block(
                std::hint::black_box(block),
                rec,
                &layout,
                &head.descs,
                leaf_rec.num_particles as usize,
            )
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            secs += t0.elapsed().as_secs_f64();
            out_bytes += std::hint::black_box(decoded).len() as u64;
            if out_bytes >= MAX_BYTES {
                break 'files;
            }
        }
    }
    Ok(if secs > 0.0 {
        out_bytes as f64 / secs / 1e9
    } else {
        0.0
    })
}

/// Lay the estimated decode time of each recorded event under its
/// execute span (capped at the span), so execute self time excludes it.
/// Returns the total estimated decode seconds.
pub fn add_decode_spans(tracer: &mut Tracer, missed: &Missed, gbps: f64) -> f64 {
    if gbps <= 0.0 {
        return 0.0;
    }
    let per_byte_ns = 1.0 / gbps; // 1 GB/s = 1 byte/ns
    let mut total_ns = 0u64;
    for ev in &missed.events {
        let warm = ev.warm_bytes as f64 * per_byte_ns / ev.warm_threads.max(1) as f64;
        let demand = ev.demand_bytes as f64 * per_byte_ns;
        let est = ((warm + demand) as u64).min(tracer.duration_ns(ev.span));
        tracer.add_child(ev.span, "codec.decode", 0, est);
        total_ns += est;
    }
    total_ns as f64 * 1e-9
}
