//! `analysis-remote`: one in-process analysis client calling
//! `Dataset::query` over simulated object storage (`ReadBackend::RangeSim`)
//! on a clustered cosmology timestep stored as `v2-lossless` with exact
//! indexes on `local_density` and `mass`, behind a page cache of about a
//! quarter of the decoded bytes.

use crate::common::{self, Ctx, Digest, Format, MIB, V1};
use crate::layers::{self, Missed, Path};
use crate::summary::{phase, ratio, Report};
use crate::trace::Tracer;
use crate::viewer::{cache_metrics, finish_trace, read_layer_metrics};
use bat_iosim::{ObjectStore, ObjectStoreConfig};
use bat_layout::{PageCache, ParticleSet, Query};
use bat_workloads::{Cosmology, RankGrid};
use libbat::{Dataset, ReadBackend};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BASENAME: &str = "cosmo";
const PARTICLES: u64 = 300_000;
const HALOS: usize = 256;
const RANKS: usize = 2;
const TARGET_FILE_BYTES: u64 = 2 << 20;
/// Timed writes of the timestep per set-up, for a steady `write_mb_s`.
const SETUP_WRITES: usize = 4;
const V2_INDEXED: Format = Format {
    codec: "v2-lossless",
    index: Some("local_density,mass"),
};
/// Seeded queries in the pool the client cycles through.
const QUERIES: usize = 24;
/// Queries run before timing starts (digest-checked, not sampled).
const WARMUP: usize = 6;
/// Selectivity of the rare and medium attribute bands.
const RARE: f64 = 0.005;
const MEDIUM: f64 = 0.2;
/// Box edges as a fraction of the domain: 1/64 to 1/8 of its volume.
const BOX_EDGES: [f32; 4] = [0.25, 0.315, 0.397, 0.5];
/// Cosmology attribute indices.
const MASS: usize = 3;
const POTENTIAL: usize = 4;
const LOCAL_DENSITY: usize = 5;

struct Setup {
    data_dir: PathBuf,
    queries: Vec<Query>,
    refs: Vec<Digest>,
    ds: Dataset,
    store: Arc<ObjectStore>,
    /// Throughput (MB/s) of each of the set-up's writes.
    write_rates: Vec<f64>,
    payload_bytes: u64,
    stored_bytes: u64,
}

/// The query mix, cycled by kind: a rare band (≤1%, index plan), a
/// medium band (~20%, bitmap plan) and a full-quality box extract of
/// 1/64–1/8 of the domain, around a halo particle or at a random point.
/// Kinds, band widths and box sizes follow a fixed ladder; the seed picks
/// attribute values and box centres.
fn query_mix(ctx: &Ctx, all: &bat_layout::ParticleSet, domain: &bat_geom::Aabb) -> Vec<Query> {
    let mut rng = ctx.rng(12);
    let sorted =
        |a: usize, rng: &mut bat_geom::rng::Xoshiro256| common::attr_sample(all, a, 8192, rng);
    let samples = [
        (MASS, sorted(MASS, &mut rng)),
        (LOCAL_DENSITY, sorted(LOCAL_DENSITY, &mut rng)),
        (POTENTIAL, sorted(POTENTIAL, &mut rng)),
    ];
    (0..QUERIES)
        .map(|i| {
            let k = i / 3;
            match i % 3 {
                0 => {
                    let (a, s) = &samples[k % 2];
                    let (lo, hi) = common::band(s, rng.uniform(0.0, 1.0 - RARE), RARE);
                    Query::new().with_filter(*a, lo, hi)
                }
                1 => {
                    let (a, s) = &samples[k % 3];
                    let (lo, hi) = common::band(s, rng.uniform(0.0, 1.0 - MEDIUM), MEDIUM);
                    Query::new().with_filter(*a, lo, hi)
                }
                _ => {
                    let centre = if k % 2 == 0 {
                        // A random particle: 85% of them sit in halos.
                        all.positions[rng.next_below(all.len() as u64) as usize]
                    } else {
                        bat_geom::Vec3::new(
                            rng.uniform_f32(domain.min.x, domain.max.x),
                            rng.uniform_f32(domain.min.y, domain.max.y),
                            rng.uniform_f32(domain.min.z, domain.max.z),
                        )
                    };
                    let frac = BOX_EDGES[(k / 2) % BOX_EDGES.len()];
                    Query::new().with_bounds(common::box_around(domain, centre, frac))
                }
            }
        })
        .collect()
}

/// The seeded cosmology timestep of `particles` particles, split over
/// the write ranks, and the seeded query pool over it.
pub fn generate(ctx: &Ctx, particles: u64) -> (Vec<ParticleSet>, RankGrid, Vec<Query>) {
    let cosmo = Cosmology::new(particles, HALOS, ctx.sub_seed(11));
    let all = cosmo.generate_rank(&cosmo.grid(1), 0);
    let queries = query_mix(ctx, &all, &cosmo.bounds());
    let grid = cosmo.grid(RANKS);
    (common::partition(&all, &grid), grid, queries)
}

/// Write `sets` as the measured timestep, v2-lossless with indexes,
/// `count` times (see [`common::timed_writes`]).
pub fn write_measured(
    sets: Vec<ParticleSet>,
    grid: &RankGrid,
    dir: &std::path::Path,
    count: usize,
) -> io::Result<(common::WriteOutcome, Vec<f64>)> {
    common::timed_writes(
        sets,
        grid,
        TARGET_FILE_BYTES,
        V2_INDEXED,
        dir,
        BASENAME,
        count,
    )
}

fn setup(ctx: &Ctx, rep: usize) -> io::Result<Setup> {
    let (sets, grid, queries) = generate(ctx, PARTICLES);

    // The v1 reference copy of the same particles, then the measured copy.
    let ref_dir = ctx.work.join(format!("ref-{rep}"));
    common::write_step(
        sets.clone(),
        &grid,
        TARGET_FILE_BYTES,
        V1,
        &ref_dir,
        BASENAME,
    )?;
    let reference = common::open_reference(&ref_dir, BASENAME)?;
    let refs = queries
        .iter()
        .map(|q| common::query_digest(&reference, q))
        .collect::<io::Result<Vec<_>>>()?;
    drop(reference);
    std::fs::remove_dir_all(&ref_dir)?;

    let data_dir = ctx.work.join(format!("data-{rep}"));
    let (w, write_rates) = write_measured(sets, &grid, &data_dir, SETUP_WRITES)?;
    let store = ObjectStore::new(ObjectStoreConfig::default());
    let ds = open_remote(&data_dir, &store)?.ds;
    Ok(Setup {
        stored_bytes: common::dir_bytes(&data_dir)?,
        data_dir,
        queries,
        refs,
        ds,
        store,
        write_rates,
        payload_bytes: w.report.bytes_total,
    })
}

/// The v2 timestep opened over the simulated store.
struct Remote {
    ds: Dataset,
    cache: Arc<PageCache>,
    /// Mean time to open one leaf (upload to the store, fetch its head).
    open_ms: f64,
    /// Stored treelet bytes per decoded treelet byte: the codec's ratio.
    codec_ratio: f64,
}

/// Open the v2 timestep over the simulated store with a page cache of a
/// quarter of its decoded bytes (`PageCache::new`, the default sharding),
/// every leaf opened up front. The handle uploads each leaf on open.
fn open_remote(dir: &std::path::Path, store: &Arc<ObjectStore>) -> io::Result<Remote> {
    let ds = Dataset::open(dir, BASENAME)?;
    ds.set_backend(ReadBackend::RangeSim(store.clone()));
    let (mut decoded, mut stored) = (0u64, 0u64);
    for leaf in &ds.meta().leaves {
        let bytes = std::fs::read(dir.join(&leaf.file))?;
        let head = bat_layout::format::read_head(&bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        for (t, l) in head.leaves.iter().enumerate() {
            decoded += bat_layout::format::TreeletLayout::compute(
                l.num_nodes as usize,
                l.num_particles as usize,
                &head.descs,
            )
            .size as u64;
            stored += head.stored_block_size(t).unwrap_or(0) as u64;
        }
    }
    let cache = PageCache::new((decoded / 4) as usize);
    ds.set_cache(Some(cache.clone()));
    let t0 = Instant::now();
    for leaf in 0..ds.num_files() as u32 {
        ds.file(leaf)?;
    }
    Ok(Remote {
        open_ms: t0.elapsed().as_secs_f64() * 1e3 / ds.num_files() as f64,
        codec_ratio: ratio(stored as f64, decoded as f64),
        ds,
        cache,
    })
}

pub fn run(ctx: &Ctx, report: &mut Report) -> io::Result<()> {
    let (setup_s, write_mb_s, st) = common::repeated_setup(|rep| {
        let st = setup(ctx, rep)?;
        let rates = st.write_rates.clone();
        Ok((st, rates))
    })?;
    let n = st.queries.len();
    let check = |i: usize, report: &mut Report| {
        let q = &st.queries[i % n];
        let mut h = common::StreamHash::new();
        let t0 = Instant::now();
        let r = st.ds.query(q, |p| h.record(&p));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match r {
            Ok(_) if h.digest() != st.refs[i % n] => {
                report.mismatch(format!(
                    "query {} ({q:?}): got {:?}, reference {:?}",
                    i % n,
                    h.digest(),
                    st.refs[i % n]
                ));
                Some(ms)
            }
            Ok(_) => Some(ms),
            Err(e) => {
                report.fail(format!("query {}: {e}", i % n));
                None
            }
        }
    };
    for i in 0..WARMUP {
        report.attempted += 1;
        check(i, report);
    }

    crate::heap::reset_peak();
    let store_before = st.store.stats();
    let (mut latencies, mut done) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let until = common::deadline(ctx.seconds);
    let mut i = WARMUP;
    while Instant::now() < until {
        report.attempted += 1;
        if let Some(ms) = check(i, report) {
            latencies.push(ms);
            done.push(t0.elapsed().as_secs_f64());
        }
        i += 1;
    }
    let wall = t0.elapsed().as_secs_f64();
    let store = st.store.stats();
    let peak_heap = crate::heap::peak_mib();
    if latencies.is_empty() {
        report.mismatch("no query completed");
        return Ok(());
    }
    let ph = phase(&done, &latencies, wall);
    let t = ph.tail;
    let done = latencies.len() as f64;
    println!(
        "{}, {:.1} GETs and {:.2} MiB per query",
        ph.describe(ctx.workload, "queries", wall),
        (store.requests - store_before.requests) as f64 / done,
        (store.bytes - store_before.bytes) as f64 / MIB / done,
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
            st.stored_bytes as f64 / st.payload_bytes as f64,
        );
        report.set("peak_heap_mib", peak_heap);
        return Ok(());
    }

    report.set("query.samples", t.samples as f64);
    report.set("query.tail_percentile", t.percentile);
    report.set(
        "store.gets_per_query",
        (store.requests - store_before.requests) as f64 / done,
    );
    report.set(
        "store.mib_per_query",
        (store.bytes - store_before.bytes) as f64 / MIB / done,
    );

    // Replay the measured sequence (warm-up included) untraced, then
    // traced, each from a fresh store, handle and cache.
    let replayed: Vec<(&Query, Digest)> = (0..i)
        .map(|k| (&st.queries[k % n], st.refs[k % n]))
        .collect();
    let budget = Duration::from_secs_f64(ctx.seconds * 0.5);
    let fresh = ObjectStore::new(ObjectStoreConfig::default());
    let ds = open_remote(&st.data_dir, &fresh)?.ds;
    let (count, untraced) = layers::replay(
        &ds,
        &replayed,
        Path::Dataset,
        Some(budget),
        None,
        &mut Missed::default(),
        report,
    )?;
    drop(ds);

    let fresh = ObjectStore::new(ObjectStoreConfig::default());
    let Remote {
        ds,
        cache,
        open_ms,
        codec_ratio,
    } = open_remote(&st.data_dir, &fresh)?;
    report.set("dataset.file_open_ms", open_ms);
    report.set("codec.stored_ratio", codec_ratio);
    let range_before = range_totals(&ds)?;
    let store_before = fresh.stats();
    let cache_before = cache.stats();
    let mut tracer = Tracer::new();
    let mut missed = Missed::default();
    let (_, traced) = layers::replay(
        &ds,
        &replayed[..count],
        Path::Dataset,
        None,
        Some(&mut tracer),
        &mut missed,
        report,
    )?;
    let range = range_totals(&ds)?;
    let store = fresh.stats();
    cache_metrics(cache_before, cache.stats(), count, report);

    let gbps = layers::decode_gbps(&ds, &st.data_dir, &missed)?;
    layers::add_decode_spans(&mut tracer, &missed, gbps);
    let decoded: u64 = missed
        .events
        .iter()
        .map(|e| e.warm_bytes + e.demand_bytes)
        .sum();
    let per_q = |v: f64| v / count.max(1) as f64;
    report.set("codec.decode_gbps", gbps);
    report.set("codec.decoded_mib_per_query", per_q(decoded as f64 / MIB));
    read_layer_metrics(&tracer, count, traced, report);

    let requests = (range.requests - range_before.requests) as f64;
    let coalesced = (range.coalesced - range_before.coalesced) as f64;
    report.set("fetch.requests_per_query", per_q(requests));
    report.set(
        "fetch.mib_per_query",
        per_q((range.bytes_fetched - range_before.bytes_fetched) as f64 / MIB),
    );
    report.set(
        "fetch.coalesced_share",
        ratio(coalesced, requests + coalesced),
    );
    report.set(
        "fetch.prefetch_hit_ratio",
        ratio(
            (range.prefetch_hits - range_before.prefetch_hits) as f64,
            tracer.counter("plan.treelets"),
        ),
    );
    report.set(
        "fetch.retries",
        (range.retries - range_before.retries) as f64,
    );
    report.set(
        "fetch.store_sim_ms_per_query",
        per_q((store.sim_ns - store_before.sim_ns) as f64 / 1e6),
    );
    finish_trace(ctx, &tracer, untraced, traced, report)
}

/// Range-request counters summed over every opened leaf.
fn range_totals(ds: &Dataset) -> io::Result<bat_layout::source::RangeStats> {
    let mut t = bat_layout::source::RangeStats::default();
    for leaf in 0..ds.num_files() as u32 {
        if let Some(s) = ds.file(leaf)?.range_stats() {
            t.requests += s.requests;
            t.bytes_fetched += s.bytes_fetched;
            t.coalesced += s.coalesced;
            t.retries += s.retries;
            t.prefetch_hits += s.prefetch_hits;
        }
    }
    Ok(t)
}
