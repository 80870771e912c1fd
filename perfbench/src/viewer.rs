//! `viewer-local`: progressive viewer sessions over a Coal Boiler
//! timestep, served by the stream server (two pool workers, mmap, a page
//! cache that holds the whole dataset). Its traced run also serves the
//! timestep through the shard fabric (front → router → two shard worker
//! processes over Unix sockets) to measure the shard layer.

use crate::common::{self, Ctx, Digest, StreamHash, MIB, V1};
use crate::layers::{self, Missed, Path};
use crate::summary::{median, phase, ratio, tail, Report};
use crate::trace::Tracer;
use bat_comm::{Cluster, ClusterConfig};
use bat_layout::{PageCache, Query};
use bat_serve::ServeOptions;
use bat_stream::{RequestError, ShardFront, ShardRouter, StreamClient, StreamServer};
use bat_workloads::CoalBoiler;
use libbat::Dataset;
use std::io;
use std::net::SocketAddr;
use std::path::{Path as FsPath, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BASENAME: &str = "coal";
/// Coal Boiler timestep (the first published one) and population.
const STEP: u32 = bat_workloads::coal_boiler::STEP_FIRST;
const PARTICLES: f64 = 600_000.0;
/// Rank threads of the set-up write, so the timestep has several leaves.
const WRITE_RANKS: usize = 8;
const TARGET_FILE_BYTES: u64 = 4 << 20;
/// Timed writes of the timestep per set-up, for a steady `write_mb_s`.
const SETUP_WRITES: usize = 5;
/// Seeded sessions in the pool the clients cycle through.
const SESSIONS: usize = 256;
/// Share of the particles a session's box holds, by session block: a
/// viewer zooms to a region of a given size in data, not in space, so
/// sessions cost alike wherever their seeded centre falls.
const BOX_SHARES: [f64; 4] = [0.005, 0.01, 0.02, 0.04];
/// A session's progressive quality ladder.
const LADDER: [f64; 4] = [0.1, 0.3, 0.6, 1.0];
/// Attribute of the banded sessions (temperature) and the band width.
const BAND_ATTR: usize = 3;
const BAND_WIDTH: f64 = 0.05;
const BUSY_RETRIES: usize = 16;

/// One progressive session: the ladder of queries over one box.
pub type Session = Vec<Query>;

/// A written timestep and its seeded session pool with reference digests.
pub struct Prepared {
    pub dir: PathBuf,
    pub sessions: Vec<Session>,
    /// `refs[s][i]`: the single-process v1, mmap, cache-off digest of
    /// `sessions[s][i]`, in serving-planner order.
    pub refs: Vec<Vec<Digest>>,
    /// Throughput (MB/s) of each of the set-up's writes.
    pub write_rates: Vec<f64>,
    pub payload_bytes: u64,
    pub stored_bytes: u64,
}

/// The seeded Coal Boiler population of `particles` particles and the
/// seeded session pool over it.
pub fn generate(ctx: &Ctx, particles: f64) -> (CoalBoiler, bat_layout::ParticleSet, Vec<Session>) {
    let coal = CoalBoiler::new(
        particles / bat_workloads::coal_boiler::COUNT_FIRST as f64,
        ctx.sub_seed(1),
    );
    let all = coal.generate_rank(STEP, &coal.grid(STEP, 1), 0);
    let domain = bat_geom::Aabb::from_points(&all.positions);

    let mut rng = ctx.rng(2);
    let temps = common::attr_sample(&all, BAND_ATTR, 4096, &mut rng);
    let sample: Vec<bat_geom::Vec3> = (0..16_384)
        .map(|_| all.positions[rng.next_below(all.len() as u64) as usize])
        .collect();
    let mut sessions = Vec::with_capacity(SESSIONS);
    for s in 0..SESSIONS {
        let centre = all.positions[rng.next_below(all.len() as u64) as usize];
        let share = BOX_SHARES[(s / 4) % BOX_SHARES.len()];
        let bounds = common::box_holding(&domain, centre, share, &sample);
        let mut base = Query::new().with_bounds(bounds);
        if s % 4 == 3 {
            let (lo, hi) = common::band(&temps, rng.uniform(0.0, 1.0 - BAND_WIDTH), BAND_WIDTH);
            base = base.with_filter(BAND_ATTR, lo, hi);
        }
        let mut prev = 0.0;
        let ladder: Session = LADDER
            .iter()
            .map(|&q| {
                let step = base.clone().with_quality(q).with_prev_quality(prev);
                prev = q;
                step
            })
            .collect();
        sessions.push(ladder);
    }
    (coal, all, sessions)
}

/// Generate the timestep, write it as v1 from 8 rank threads, cut the
/// session pool and compute the reference digests.
pub fn prepare(ctx: &Ctx, dir: &FsPath) -> io::Result<Prepared> {
    let (coal, all, sessions) = generate(ctx, PARTICLES);
    let grid = coal.grid(STEP, WRITE_RANKS);
    let sets = common::partition(&all, &grid);
    drop(all);
    let (w, write_rates) = common::timed_writes(
        sets,
        &grid,
        TARGET_FILE_BYTES,
        V1,
        dir,
        BASENAME,
        SETUP_WRITES,
    )?;

    let reference = common::open_reference(dir, BASENAME)?;
    let refs = sessions
        .iter()
        .map(|s| {
            s.iter()
                .map(|q| common::plan_digest(&reference, q))
                .collect()
        })
        .collect::<io::Result<Vec<Vec<Digest>>>>()?;
    Ok(Prepared {
        dir: dir.to_path_buf(),
        sessions,
        refs,
        write_rates,
        payload_bytes: w.report.bytes_total,
        stored_bytes: common::dir_bytes(dir)?,
    })
}

/// A page-cache budget that admits every treelet block of the dataset
/// with room to spare in each shard, so nothing is rejected or evicted.
fn whole_dataset_cache(ds: &Dataset) -> io::Result<Arc<PageCache>> {
    let (mut total, mut largest) = (0usize, 0usize);
    for leaf in 0..ds.num_files() as u32 {
        let f = ds.file(leaf)?;
        for t in 0..f.head().leaves.len() {
            let size = f.head().stored_block_size(t).unwrap_or(0) + bat_wire::PAGE_SIZE;
            total += size;
            largest = largest.max(size);
        }
    }
    let shards = bat_layout::cache::MAX_SHARDS;
    Ok(PageCache::new((4 * total).max(shards * 2 * largest)))
}

/// The shard fabric: front and router in this process, shard workers as
/// child processes of this binary.
struct Fabric {
    handle: Option<bat_stream::ServerHandle>,
    router: Arc<ShardRouter>,
    children: Vec<std::process::Child>,
    sock_dir: PathBuf,
}

impl Fabric {
    fn start(dataset_dir: &FsPath, sock_dir: &FsPath, shards: usize) -> io::Result<Fabric> {
        std::fs::create_dir_all(sock_dir)?;
        // `unix:` endpoints may be relative: the workers share this
        // process's working directory, and a relative path stays within
        // the socket-path length limit wherever the checkout lives.
        let mut cfg = ClusterConfig::unix_in_dir(sock_dir, 1 + shards);
        cfg.endpoints = cfg.endpoints.iter().map(|e| format!("unix:{e}")).collect();
        let exe = std::env::current_exe()?;
        let mut children = Vec::with_capacity(shards);
        for s in 0..shards {
            children.push(
                std::process::Command::new(&exe)
                    .arg("--shard-worker")
                    .arg(dataset_dir)
                    .arg(BASENAME)
                    .env("BAT_CLUSTER", cfg.with_rank(1 + s).to_spec())
                    .env("BAT_SHARD_REPLICAS", "1")
                    .spawn()?,
            );
        }
        // The router connects once every worker is listening.
        let front = || -> io::Result<_> {
            let comm = Cluster::connect(&cfg)?;
            let ds = Dataset::open(dataset_dir, BASENAME)?;
            let router = Arc::new(ShardRouter::new(comm, Arc::new(ds)));
            let options = ServeOptions {
                workers: Some(2),
                queue_depth: Some(8),
                deadline: None,
                cache: None,
            };
            let handle = ShardFront::bind("127.0.0.1:0", router.clone(), options)?.spawn()?;
            Ok((router, handle))
        };
        match front() {
            Ok((router, handle)) => Ok(Fabric {
                handle: Some(handle),
                router,
                children,
                sock_dir: sock_dir.to_path_buf(),
            }),
            Err(e) => {
                // No router to broadcast a shutdown: stop the workers here.
                for c in &mut children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                let _ = std::fs::remove_dir_all(sock_dir);
                Err(e)
            }
        }
    }

    fn addr(&self) -> SocketAddr {
        self.handle.as_ref().expect("running front").addr()
    }
}

impl Drop for Fabric {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
        self.router.shutdown();
        for c in &mut self.children {
            // A worker exits on the shutdown broadcast; one that does not
            // within a few seconds is killed, and every one is reaped.
            let t0 = Instant::now();
            while matches!(c.try_wait(), Ok(None)) && t0.elapsed() < Duration::from_secs(5) {
                std::thread::sleep(Duration::from_millis(10));
            }
            let _ = c.kill();
            let _ = c.wait();
        }
        let _ = std::fs::remove_dir_all(&self.sock_dir);
    }
}

/// What one client observed.
#[derive(Default)]
struct ClientLog {
    latencies_ms: Vec<f64>,
    /// `(completion time, session, rung)` of every completed query.
    order: Vec<(Instant, usize, usize)>,
    attempted: u64,
    failures: Vec<String>,
    mismatches: Vec<String>,
    busy_retries: u64,
}

/// One closed-loop client: sessions `first, first + stride, …` of the
/// pool, cyclically, each rung after the previous one completed.
fn client_loop(
    addr: SocketAddr,
    prep: &Prepared,
    first: usize,
    stride: usize,
    until: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = match StreamClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.attempted += 1;
            log.failures.push(format!("connect: {e}"));
            return log;
        }
    };
    let mut s = first;
    'sessions: while Instant::now() < until {
        for (i, q) in prep.sessions[s].iter().enumerate() {
            if Instant::now() >= until {
                break 'sessions;
            }
            log.attempted += 1;
            let t0 = Instant::now();
            let mut retries = 0;
            let result = loop {
                let mut hash = StreamHash::new();
                match client.request(q, |c| hash.chunk(c)) {
                    Ok(_) => break Ok(hash.digest()),
                    Err(RequestError::Busy { retry_after }) if retries < BUSY_RETRIES => {
                        retries += 1;
                        log.busy_retries += 1;
                        std::thread::sleep(retry_after);
                    }
                    Err(e) => break Err(e),
                }
            };
            match result {
                Ok(d) => {
                    let done = Instant::now();
                    log.latencies_ms.push((done - t0).as_secs_f64() * 1e3);
                    log.order.push((done, s, i));
                    if d != prep.refs[s][i] {
                        log.mismatches.push(format!(
                            "session {s} rung {i}: got {d:?}, reference {:?}",
                            prep.refs[s][i]
                        ));
                    }
                }
                Err(e) => {
                    log.failures.push(format!("session {s} rung {i}: {e}"));
                    // A broken connection ends this client's run.
                    if matches!(e, RequestError::Io(_)) {
                        break 'sessions;
                    }
                }
            }
        }
        s = (s + stride) % prep.sessions.len();
    }
    log
}

struct Setup {
    prep: Prepared,
    /// The running server; dropping it stops the server.
    server: bat_stream::ServerHandle,
}

fn setup(ctx: &Ctx, rep: usize) -> io::Result<Setup> {
    let dir = ctx.work.join(format!("data-{rep}"));
    let prep = prepare(ctx, &dir)?;
    let ds = Dataset::open(&dir, BASENAME)?;
    ds.set_backend(libbat::ReadBackend::Mmap);
    let options = ServeOptions {
        workers: Some(2),
        queue_depth: Some(8),
        deadline: None,
        cache: Some(whole_dataset_cache(&ds)?),
    };
    let server = StreamServer::bind_with("127.0.0.1:0", ds, options)?.spawn()?;
    // Warm-up: one full-quality scan touches every treelet, so the page
    // cache holds the dataset before timing.
    let mut client = StreamClient::connect(server.addr())?;
    client
        .request(&Query::new(), |_| {})
        .map_err(|e| io::Error::other(format!("warm-up scan: {e}")))?;
    Ok(Setup { prep, server })
}

pub fn run(ctx: &Ctx, report: &mut Report) -> io::Result<()> {
    let (setup_s, write_mb_s, st) = common::repeated_setup(|rep| {
        let st = setup(ctx, rep)?;
        let rates = st.prep.write_rates.clone();
        Ok((st, rates))
    })?;
    crate::heap::reset_peak();

    let clients = 2;
    let addr = st.server.addr();
    let t0 = Instant::now();
    let until = common::deadline(ctx.seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let prep = &st.prep;
                scope.spawn(move || client_loop(addr, prep, c, clients, until))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let peak_heap = crate::heap::peak_mib();

    let (mut latencies, mut done) = (Vec::new(), Vec::new());
    let mut busy_retries = 0;
    for log in &logs {
        report.attempted += log.attempted;
        for f in &log.failures {
            report.fail(f);
        }
        for m in &log.mismatches {
            report.mismatch(m);
        }
        latencies.extend_from_slice(&log.latencies_ms);
        done.extend(log.order.iter().map(|o| (o.0 - t0).as_secs_f64()));
        busy_retries += log.busy_retries;
    }
    if latencies.is_empty() {
        report.mismatch("no query completed");
        return Ok(());
    }
    let ph = phase(&done, &latencies, wall);
    let t = ph.tail;
    println!(
        "{}, busy retries {busy_retries}",
        ph.describe(ctx.workload, "queries", wall)
    );

    if !report.traced() {
        report.set("setup_s", setup_s);
        report.set("query_p50_ms", ph.p50_ms);
        report.set("query_p99_ms", ph.tail.value);
        report.set("qps", ph.qps);
        report.set(
            "ok_rate",
            1.0 - ratio(report.failed as f64, report.attempted as f64),
        );
        report.set("write_mb_s", write_mb_s);
        report.set(
            "stored_bytes_per_byte",
            st.prep.stored_bytes as f64 / st.prep.payload_bytes as f64,
        );
        report.set("peak_heap_mib", peak_heap);
        return Ok(());
    }

    report.set("query.samples", t.samples as f64);
    report.set("query.tail_percentile", t.percentile);
    report.set("serve.busy_retries", busy_retries as f64);
    // Replay the measured queries in completion order.
    let mut order: Vec<(Instant, usize, usize)> =
        logs.iter().flat_map(|l| l.order.iter().copied()).collect();
    order.sort_by_key(|o| o.0);
    let queries: Vec<(usize, usize)> = order.iter().map(|o| (o.1, o.2)).collect();
    trace_local(ctx, &st.prep, &queries, median(&latencies), report)?;
    trace_local_fabric(ctx, &st.prep, report)
}

/// Open the timestep the way the server holds it: mmap, a whole-dataset
/// cache, every leaf opened and every treelet cached by one full scan.
/// Returns the handle, its cache and the mean leaf open time in ms.
fn open_local(prep: &Prepared) -> io::Result<(Dataset, Arc<PageCache>, f64)> {
    let ds = Dataset::open(&prep.dir, BASENAME)?;
    ds.set_backend(libbat::ReadBackend::Mmap);
    let cache = whole_dataset_cache(&ds)?;
    ds.set_cache(Some(cache.clone()));
    let t0 = Instant::now();
    for leaf in 0..ds.num_files() as u32 {
        ds.file(leaf)?;
    }
    let open_ms = t0.elapsed().as_secs_f64() * 1e3 / ds.num_files() as f64;
    ds.query(&Query::new(), |_| {})?;
    Ok((ds, cache, open_ms))
}

fn replay_items<'a>(prep: &'a Prepared, queries: &[(usize, usize)]) -> Vec<(&'a Query, Digest)> {
    queries
        .iter()
        .map(|&(s, i)| (&prep.sessions[s][i], prep.refs[s][i]))
        .collect()
}

fn trace_local(
    ctx: &Ctx,
    prep: &Prepared,
    queries: &[(usize, usize)],
    client_p50_ms: f64,
    report: &mut Report,
) -> io::Result<()> {
    let items = replay_items(prep, queries);
    let budget = Duration::from_secs_f64(ctx.seconds * 0.5);
    let (ds, _, _) = open_local(prep)?;
    let (n, untraced) = layers::replay(
        &ds,
        &items,
        Path::Serve,
        Some(budget),
        None,
        &mut Missed::default(),
        report,
    )?;
    drop(ds);

    let (ds, cache, open_ms) = open_local(prep)?;
    report.set("dataset.file_open_ms", open_ms);
    let before = cache.stats();
    let mut tracer = Tracer::new();
    let (_, traced) = layers::replay(
        &ds,
        &items[..n],
        Path::Serve,
        None,
        Some(&mut tracer),
        &mut Missed::default(),
        report,
    )?;
    let after = cache.stats();
    for (q, _) in &items[..n] {
        let nodes = layers::shallow_nodes(&ds, q)?;
        tracer.count("plan.shallow_nodes", nodes as f64);
    }
    read_layer_metrics(&tracer, n, traced, report);
    cache_metrics(before, after, n, report);
    let in_process: Vec<f64> = tracer
        .per_query_secs("query")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    if !in_process.is_empty() {
        report.set(
            "stream.residual_ms_per_query",
            client_p50_ms - median(&in_process),
        );
    }
    finish_trace(ctx, &tracer, untraced, traced, report)
}

/// The shard layer: replay `queries` through `ShardRouter::query`
/// in-process with spans, stopping after half the run length, with
/// `QueryPlan::new` on the router timed alongside. Sets the `router.*`
/// metrics and `front.residual_ms_per_query` against the fabric clients'
/// median; returns the tracer.
fn trace_router(
    ctx: &Ctx,
    prep: &Prepared,
    fabric: &Fabric,
    queries: &[(usize, usize)],
    client_p50_ms: f64,
    report: &mut Report,
) -> io::Result<Tracer> {
    let budget = Duration::from_secs_f64(ctx.seconds * 0.5);
    let router = &fabric.router;
    let mut tracer = Tracer::new();
    let t0 = Instant::now();
    let mut n = 0;
    for &(s, i) in queries {
        if t0.elapsed() >= budget {
            break;
        }
        let q = &prep.sessions[s][i];
        tracer.set_query(n as u64);
        let root = tracer.begin("query");
        tracer
            .span("router.plan", || {
                bat_serve::QueryPlan::new(router.dataset(), q).map(|_| ())
            })
            .map_err(io::Error::other)?;
        let span = tracer.begin("router.query");
        let mut hash = StreamHash::new();
        router
            .query(q, None, |c| hash.chunk(&c))
            .map_err(io::Error::other)?;
        tracer.end(span);
        tracer.end(root);
        if hash.digest() != prep.refs[s][i] {
            report.mismatch(format!(
                "router replay: {:?} vs {:?}",
                hash.digest(),
                prep.refs[s][i]
            ));
        }
        n += 1;
    }

    let routed_ms: Vec<f64> = tracer
        .per_query_secs("router.query")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    if !routed_ms.is_empty() {
        report.set("router.ms_p50", median(&routed_ms));
        report.set("router.ms_p99", tail(&routed_ms).value);
        report.set(
            "front.residual_ms_per_query",
            client_p50_ms - median(&routed_ms),
        );
    }
    report.set(
        "router.plan_ms_per_query",
        tracer.total_secs("router.plan") * 1e3 / n.max(1) as f64,
    );
    Ok(tracer)
}

/// `viewer-local`'s traced run also covers the shard layer, which no
/// measured workload runs: the same timestep behind a
/// two-worker fabric, one client for a quarter of the run length, then
/// the router replay of what it completed. Its spans go to a second file.
fn trace_local_fabric(ctx: &Ctx, prep: &Prepared, report: &mut Report) -> io::Result<()> {
    let fabric = Fabric::start(&prep.dir, &ctx.work.join("sock-trace"), 2)?;
    let log = client_loop(
        fabric.addr(),
        prep,
        0,
        1,
        common::deadline(ctx.seconds * 0.25),
    );
    report.attempted += log.attempted;
    for f in &log.failures {
        report.fail(f);
    }
    for m in &log.mismatches {
        report.mismatch(m);
    }
    if log.latencies_ms.is_empty() {
        report.mismatch("no fabric query completed");
        return Ok(());
    }
    let queries: Vec<(usize, usize)> = log.order.iter().map(|o| (o.1, o.2)).collect();
    let tracer = trace_router(
        ctx,
        prep,
        &fabric,
        &queries,
        median(&log.latencies_ms),
        report,
    )?;
    tracer.write_tsv(&ctx.trace_out.with_extension("router.tsv"))
}

/// Per-layer metrics common to every replayed read path.
pub fn read_layer_metrics(tracer: &Tracer, n: usize, traced_wall: f64, report: &mut Report) {
    let per_q = |v: f64| v / n.max(1) as f64;
    let c = |name: &str| tracer.counter(name);
    let selfs = tracer.self_secs();
    let self_ms = |name: &str| selfs.get(name).copied().unwrap_or(0.0) * 1e3;
    report.set("meta.cull_us", per_q(tracer.total_secs("meta")) * 1e6);
    report.set("meta.leaves_per_query", per_q(c("meta.leaves")));
    report.set("plan.ms_per_query", per_q(self_ms("plan")));
    report.set(
        "plan.shallow_nodes_per_query",
        per_q(c("plan.shallow_nodes")),
    );
    report.set("plan.treelets_per_query", per_q(c("plan.treelets")));
    report.set(
        "plan.pruned_share",
        ratio(c("plan.nodes_pruned"), c("plan.shallow_nodes")),
    );
    report.set(
        "plan.index_share",
        ratio(c("plan.files_index"), c("plan.files")),
    );
    report.set("fetch.ms_per_query", per_q(self_ms("fetch")));
    report.set("execute.ms_per_query", per_q(self_ms("execute")));
    report.set(
        "execute.points_tested_per_query",
        per_q(c("execute.points_tested")),
    );
    report.set(
        "execute.useful_ratio",
        ratio(c("execute.points_returned"), c("execute.points_tested")),
    );
    report.set("execute.pages_per_query", per_q(c("execute.pages")));
    report.set(
        "bitmap.false_positive_rate",
        ratio(
            c("bitmap.false_positives"),
            c("bitmap.false_positives") + c("bitmap.hits"),
        ),
    );
    let wire_mib = c("wire.bytes") / MIB;
    report.set(
        "wire.encode_mib_s",
        ratio(wire_mib, tracer.total_secs("wire.encode")),
    );
    report.set(
        "wire.decode_mib_s",
        ratio(wire_mib, tracer.total_secs("wire.decode")),
    );
    if c("wire.chunks") > 0.0 {
        report.set("wire.chunks_per_query", per_q(c("wire.chunks")));
    }
    report.set(
        "codec.decode_share",
        ratio(
            selfs.get("codec.decode").copied().unwrap_or(0.0),
            traced_wall,
        ),
    );
}

pub fn cache_metrics(
    before: bat_layout::CacheStats,
    after: bat_layout::CacheStats,
    n: usize,
    report: &mut Report,
) {
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    let n = n.max(1) as f64;
    report.set("cache.hit_ratio", ratio(hits, hits + misses));
    report.set(
        "cache.evictions_per_query",
        (after.evictions - before.evictions) as f64 / n,
    );
    report.set(
        "cache.rejected_per_query",
        (after.rejected - before.rejected) as f64 / n,
    );
    report.set("cache.resident_mib", after.bytes as f64 / MIB);
}

/// Overhead and coverage of the trace, and the span dump.
pub fn finish_trace(
    ctx: &Ctx,
    tracer: &Tracer,
    untraced: f64,
    traced: f64,
    report: &mut Report,
) -> io::Result<()> {
    report.set("trace.overhead", ratio(traced, untraced) - 1.0);
    let layers: f64 = tracer
        .self_secs()
        .iter()
        .filter(|(name, _)| **name != "query")
        .map(|(_, s)| s)
        .sum();
    report.set("trace.layer_sum_ratio", ratio(layers, traced));
    tracer.write_tsv(&ctx.trace_out)
}
