//! Pieces every workload shares: seeded inputs, dataset writes, output
//! digests, closed-loop deadlines and the repeated set-up.

use bat_comm::Cluster;
use bat_geom::rng::Xoshiro256;
use bat_geom::Aabb;
use bat_layout::{ParticleSet, PointRecord, Query};
use bat_workloads::RankGrid;
use libbat::write::{write_particles, WriteConfig, WriteReport};
use libbat::Dataset;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Everything a workload run is given.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory for this run (inside the checkout).
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_out: PathBuf,
}

impl Ctx {
    /// A generator seeded from the run seed and a per-input tag, so each
    /// input stream is independent of how many values the others drew.
    pub fn rng(&self, tag: u64) -> Xoshiro256 {
        Xoshiro256::new(self.sub_seed(tag))
    }

    pub fn sub_seed(&self, tag: u64) -> u64 {
        let mut z = self.seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Set-up runs this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// FNV-1a over a point stream, one 64-bit word per value (each position
/// coordinate's `f32` bits, then each attribute's `f64` bits, in arrival
/// order), plus the point count. Word-wise folding keeps the check cheap
/// next to the queries it checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub hash: u64,
    pub points: u64,
}

pub struct StreamHash(Digest);

impl StreamHash {
    pub fn new() -> StreamHash {
        StreamHash(Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            points: 0,
        })
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.0.hash = (self.0.hash ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn point(&mut self, pos: bat_geom::Vec3, attrs: impl Iterator<Item = f64>) {
        for c in [pos.x, pos.y, pos.z] {
            self.word(c.to_bits() as u64);
        }
        for a in attrs {
            self.word(a.to_bits());
        }
        self.0.points += 1;
    }

    pub fn record(&mut self, p: &PointRecord<'_>) {
        self.point(p.position, p.attrs.iter().copied());
    }

    pub fn chunk(&mut self, c: &bat_stream::Chunk) {
        for (i, p) in c.positions.iter().enumerate() {
            self.point(*p, (0..c.num_attrs).map(|a| c.attr(i, a)));
        }
    }

    pub fn digest(&self) -> Digest {
        self.0
    }
}

/// Split one generated population into per-rank sets by the grid, in
/// generation order — the same sets `generate_rank` yields per rank, for
/// one pass over the generator instead of one per rank.
pub fn partition(all: &ParticleSet, grid: &RankGrid) -> Vec<ParticleSet> {
    let mut sets: Vec<ParticleSet> = (0..grid.len())
        .map(|_| ParticleSet::new(all.descs_arc()))
        .collect();
    let mut vals = vec![0.0f64; all.num_attrs()];
    for (i, &p) in all.positions.iter().enumerate() {
        for (a, v) in vals.iter_mut().enumerate() {
            *v = all.value(a, i);
        }
        sets[grid.rank_of_point(p)].push(p, &vals);
    }
    sets
}

/// Timings of one collective write.
pub struct WriteOutcome {
    pub report: WriteReport,
    /// Slowest rank's wall time inside `write_particles`.
    pub secs: f64,
}

/// The codec and index settings a write runs under (the library reads
/// them from the environment at write time).
#[derive(Clone, Copy)]
pub struct Format {
    pub codec: &'static str,
    pub index: Option<&'static str>,
}

pub const V1: Format = Format {
    codec: "v1",
    index: None,
};

/// Flush every filesystem's dirty data (`sync(2)`), so a timed write's
/// fsyncs wait for its own bytes, not for what earlier steps left dirty.
pub fn sync_filesystems() {
    #[cfg(unix)]
    {
        extern "C" {
            fn sync();
        }
        // SAFETY: `sync` takes no arguments, touches no memory of this
        // process and cannot fail.
        unsafe { sync() }
    }
}

/// Collectively write one timestep: rank `r` of a `sets.len()`-rank
/// cluster writes `sets[r]` with bounds `grid.bounds_of(r)`. The write
/// starts from clean filesystems (see [`sync_filesystems`]).
pub fn write_step(
    sets: Vec<ParticleSet>,
    grid: &RankGrid,
    target_bytes: u64,
    format: Format,
    dir: &Path,
    basename: &str,
) -> io::Result<WriteOutcome> {
    std::fs::create_dir_all(dir)?;
    sync_filesystems();
    // Set before the rank threads start and restored after they join.
    std::env::set_var("BAT_TREELET_CODEC", format.codec);
    match format.index {
        Some(spec) => std::env::set_var("BAT_INDEX_ATTRS", spec),
        None => std::env::remove_var("BAT_INDEX_ATTRS"),
    }
    let ranks = sets.len();
    let slots = Mutex::new(sets.into_iter().map(Some).collect::<Vec<_>>());
    let results = Cluster::run(ranks, |comm| {
        let set = slots.lock().expect("rank slots")[comm.rank()]
            .take()
            .expect("one set per rank");
        let cfg = WriteConfig::with_target_size(target_bytes, set.bytes_per_particle() as u64);
        let t0 = Instant::now();
        let r = write_particles(&comm, set, grid.bounds_of(comm.rank()), &cfg, dir, basename);
        (r.map_err(|e| e.to_string()), t0.elapsed().as_secs_f64())
    });
    std::env::remove_var("BAT_TREELET_CODEC");
    std::env::remove_var("BAT_INDEX_ATTRS");
    let secs = results.iter().map(|r| r.1).fold(0.0, f64::max);
    let report = results
        .into_iter()
        .next()
        .expect("rank 0")
        .0
        .map_err(io::Error::other)?;
    Ok(WriteOutcome { report, secs })
}

/// Write the same timestep `count` times, the last into `dir` and the
/// others into scratch siblings that are removed again. Returns the last
/// write and every write's throughput in MB/s.
pub fn timed_writes(
    sets: Vec<ParticleSet>,
    grid: &RankGrid,
    target_bytes: u64,
    format: Format,
    dir: &Path,
    basename: &str,
    count: usize,
) -> io::Result<(WriteOutcome, Vec<f64>)> {
    let mut rates = Vec::with_capacity(count);
    for i in 1..count {
        let scratch = dir.with_extension(format!("w{i}"));
        let w = write_step(sets.clone(), grid, target_bytes, format, &scratch, basename)?;
        rates.push(w.report.bytes_total as f64 / 1e6 / w.secs);
        std::fs::remove_dir_all(&scratch)?;
    }
    let w = write_step(sets, grid, target_bytes, format, dir, basename)?;
    rates.push(w.report.bytes_total as f64 / 1e6 / w.secs);
    Ok((w, rates))
}

/// On-disk bytes of every file in `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for e in std::fs::read_dir(dir)? {
        let e = e?;
        if e.file_type()?.is_file() {
            total += e.metadata()?.len();
        }
    }
    Ok(total)
}

/// Open `dir/basename` over mmap with caching off: the reference reader.
pub fn open_reference(dir: &Path, basename: &str) -> io::Result<Dataset> {
    let ds = Dataset::open(dir, basename)?;
    ds.set_backend(libbat::ReadBackend::Mmap);
    ds.set_cache(None);
    Ok(ds)
}

/// Digest of `q` through `Dataset::query` (leaf-candidate order).
pub fn query_digest(ds: &Dataset, q: &Query) -> io::Result<Digest> {
    let mut h = StreamHash::new();
    ds.query(q, |p| h.record(&p))?;
    Ok(h.digest())
}

/// Digest of `q` through the serving planner (coverage order), the
/// order the stream server and the shard router emit.
pub fn plan_digest(ds: &Dataset, q: &Query) -> io::Result<Digest> {
    let mut h = StreamHash::new();
    let plan = bat_serve::QueryPlan::new(ds, q).map_err(io::Error::other)?;
    plan.execute(None, |p| h.record(&p))
        .map_err(io::Error::other)?;
    Ok(h.digest())
}

/// `n` values of attribute `a`, drawn at seeded random from `set`, sorted:
/// an empirical distribution to cut attribute bands of known selectivity.
pub fn attr_sample(set: &ParticleSet, a: usize, n: usize, rng: &mut Xoshiro256) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n)
        .map(|_| set.value(a, rng.next_below(set.len() as u64) as usize))
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The band `[q(lo), q(lo + width)]` of a sorted sample.
pub fn band(sorted: &[f64], lo: f64, width: f64) -> (f64, f64) {
    let at = |q: f64| sorted[((q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round()) as usize];
    (at(lo), at(lo + width))
}

/// A box of edge `frac` × the domain's extent per axis, centred on `c`.
pub fn box_around(domain: &Aabb, c: bat_geom::Vec3, frac: f32) -> Aabb {
    let half = domain.extent() * (0.5 * frac);
    Aabb::new(c - half, c + half)
}

/// The box centred on `c`, with the domain's aspect ratio, that holds
/// about `share` of the points `sample` stands for (bisection on its
/// scale).
pub fn box_holding(
    domain: &Aabb,
    c: bat_geom::Vec3,
    share: f64,
    sample: &[bat_geom::Vec3],
) -> Aabb {
    let want = (share * sample.len() as f64).ceil() as usize;
    let (mut lo, mut hi) = (0.0f32, 2.0f32);
    for _ in 0..20 {
        let mid = 0.5 * (lo + hi);
        let b = box_around(domain, c, mid);
        if sample.iter().filter(|p| b.contains_point(**p)).count() < want {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    box_around(domain, c, hi)
}

/// Run the workload's set-up [`SETUP_REPS`] times and keep the last.
///
/// `f(rep)` sets up once and returns its state and the throughput (MB/s)
/// of each write of the dataset it made. Each repetition's state is
/// dropped (which stops its server) before the next one starts, so the
/// repetitions do not overlap. Returns the median set-up time, the median
/// write throughput over every repetition's writes, and the last state.
pub fn repeated_setup<T>(
    mut f: impl FnMut(usize) -> io::Result<(T, Vec<f64>)>,
) -> io::Result<(f64, f64, T)> {
    let (mut times, mut rates) = (Vec::with_capacity(SETUP_REPS), Vec::new());
    let mut state = None;
    for rep in 0..SETUP_REPS {
        drop(state.take());
        let t0 = Instant::now();
        let (s, r) = f(rep)?;
        times.push(t0.elapsed().as_secs_f64());
        rates.extend(r);
        state = Some(s);
    }
    let write_mb_s = if rates.is_empty() {
        0.0
    } else {
        crate::summary::median(&rates)
    };
    Ok((
        crate::summary::median(&times),
        write_mb_s,
        state.expect("at least one set-up"),
    ))
}

/// A closed-loop deadline.
pub fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

pub const MIB: f64 = (1u64 << 20) as f64;
