//! `ingest`: `write_particles` from two rank threads writing successive
//! Dam Break timesteps as `v2-lossless` with an exact index on `density`,
//! each into a fresh directory, then re-opening and checking each one.

use crate::common::{self, Ctx, Digest, Format, MIB, V1};
use crate::summary::{phase, ratio, slowest, Report};
use crate::trace::Tracer;
use bat_geom::{Aabb, Vec3};
use bat_iosim::WritePhase;
use bat_layout::{Codec, ParticleSet, Query};
use bat_workloads::{DamBreak, RankGrid};
use libbat::write::{write_particles_in_transit, WriteConfig};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

const BASENAME: &str = "dam";
const PARTICLES: u64 = 1_000_000;
const RANKS: usize = 2;
const TARGET_FILE_BYTES: u64 = 4 << 20;
/// The fixed set of timesteps the loop cycles over.
const STEPS: [u32; 3] = [1_000, 4_000, 8_000];
const V2_INDEXED: Format = Format {
    codec: "v2-lossless",
    index: Some("density"),
};

/// The fixed check query: a full-quality box across the collapsing
/// column's front.
fn check_query() -> Query {
    Query::new().with_bounds(Aabb::new(
        Vec3::new(0.5, 0.0, 0.0),
        Vec3::new(2.5, 1.0, 1.0),
    ))
}

struct Step {
    sets: Vec<ParticleSet>,
    /// Digest of [`check_query`] on the v1 mmap, cache-off copy.
    reference: Digest,
}

struct Setup {
    grid: RankGrid,
    steps: Vec<Step>,
}

fn setup(ctx: &Ctx, rep: usize) -> io::Result<Setup> {
    let dam = DamBreak::new(PARTICLES, ctx.sub_seed(21));
    let grid = dam.grid(RANKS);
    let mut steps = Vec::with_capacity(STEPS.len());
    for &step in &STEPS {
        let all = dam.generate_rank(step, &dam.grid(1), 0);
        let sets = common::partition(&all, &grid);
        drop(all);
        let dir = ctx.work.join(format!("ref-{rep}-{step}"));
        common::write_step(sets.clone(), &grid, TARGET_FILE_BYTES, V1, &dir, BASENAME)?;
        let reference =
            common::query_digest(&common::open_reference(&dir, BASENAME)?, &check_query())?;
        std::fs::remove_dir_all(&dir)?;
        steps.push(Step { sets, reference });
    }
    Ok(Setup { grid, steps })
}

/// One written, re-opened and checked timestep.
struct Written {
    write_secs: f64,
    payload: u64,
    stored: u64,
    times: bat_iosim::PhaseTimes,
}

/// Re-open a freshly written step: `verify_dataset` must be clean and the
/// check query must match the v1 reference.
fn check(dir: &Path, want: Digest, op: usize, report: &mut Report) -> io::Result<()> {
    let verify = libbat::verify_dataset(dir, BASENAME)?;
    if !verify.is_clean() {
        report.mismatch(format!(
            "ingest op {op}: verify_dataset found damage: {:?}",
            verify.damaged().collect::<Vec<_>>()
        ));
    }
    let got = common::query_digest(&common::open_reference(dir, BASENAME)?, &check_query())?;
    if got != want {
        report.mismatch(format!(
            "ingest op {op}: got {got:?}, v1 reference {want:?}"
        ));
    }
    Ok(())
}

/// Write step `op % STEPS` into a fresh directory. With `encode`, every
/// aggregator's BAT is also encoded as v2-lossless into a sink and the
/// `(raw bytes, encoded bytes, seconds)` are accumulated there.
fn write_op(
    st: &Setup,
    op: usize,
    dir: &Path,
    encode: Option<&Mutex<(u64, u64, f64)>>,
) -> io::Result<Written> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    common::sync_filesystems();
    let step = &st.steps[op % st.steps.len()];
    let slots = Mutex::new(step.sets.iter().cloned().map(Some).collect::<Vec<_>>());
    std::env::set_var("BAT_TREELET_CODEC", V2_INDEXED.codec);
    std::env::set_var("BAT_INDEX_ATTRS", V2_INDEXED.index.expect("indexed"));
    let results = bat_comm::Cluster::run(RANKS, |comm| {
        let set = slots.lock().expect("rank slots")[comm.rank()]
            .take()
            .expect("one set per rank");
        let cfg = WriteConfig::with_target_size(TARGET_FILE_BYTES, set.bytes_per_particle() as u64);
        let bounds = st.grid.bounds_of(comm.rank());
        let t0 = Instant::now();
        let r = write_particles_in_transit(&comm, set, bounds, &cfg, dir, BASENAME, |_, bat| {
            if let Some(acc) = encode {
                // `writer_with` compresses the treelets; `write_to` streams.
                let t0 = Instant::now();
                let writer = bat.writer_with(Codec::V2Lossless);
                let mut sink = CountingSink(0);
                let ok = writer.write_to(&mut sink).is_ok();
                let secs = t0.elapsed().as_secs_f64();
                if ok {
                    let bpp = 12 + bat.descs().iter().map(|d| d.dtype.size()).sum::<usize>();
                    let raw = (bat.num_particles() * bpp) as u64;
                    let mut a = acc.lock().expect("encode totals");
                    a.0 += raw;
                    a.1 += sink.0;
                    a.2 += secs;
                }
            }
        });
        (r.map_err(|e| e.to_string()), t0.elapsed().as_secs_f64())
    });
    std::env::remove_var("BAT_TREELET_CODEC");
    std::env::remove_var("BAT_INDEX_ATTRS");
    let write_secs = results.iter().map(|r| r.1).fold(0.0, f64::max);
    let report = results
        .into_iter()
        .next()
        .expect("rank 0")
        .0
        .map_err(io::Error::other)?;
    Ok(Written {
        write_secs,
        payload: report.bytes_total,
        stored: common::dir_bytes(dir)?,
        times: report.times,
    })
}

/// `io::sink` that counts what it is given.
struct CountingSink(u64);

impl io::Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) -> io::Result<()> {
    // The measured loop's writes give `write_mb_s`; the set-up's v1
    // reference writes are not reported.
    let (setup_s, _, st) = common::repeated_setup(|rep| Ok((setup(ctx, rep)?, Vec::new())))?;
    let dir_of = |op: usize| -> PathBuf { ctx.work.join(format!("step-{}", op % 2)) };

    crate::heap::reset_peak();
    let (mut payload, mut stored, mut write_secs) = (0u64, 0u64, 0.0f64);
    let (mut latencies, mut done) = (Vec::new(), Vec::new());
    let mut op_secs = Vec::new();
    let t0 = Instant::now();
    let until = common::deadline(ctx.seconds);
    let mut op = 0;
    while Instant::now() < until {
        report.attempted += 1;
        let t_op = Instant::now();
        match write_op(&st, op, &dir_of(op), None) {
            Ok(w) => {
                check(
                    &dir_of(op),
                    st.steps[op % st.steps.len()].reference,
                    op,
                    report,
                )?;
                latencies.push(w.write_secs * 1e3);
                done.push(t0.elapsed().as_secs_f64());
                payload += w.payload;
                stored += w.stored;
                write_secs += w.write_secs;
            }
            Err(e) => report.fail(format!("ingest op {op}: {e}")),
        }
        op_secs.push(t_op.elapsed().as_secs_f64());
        op += 1;
    }
    let wall = t0.elapsed().as_secs_f64();
    let peak_heap = crate::heap::peak_mib();
    if latencies.is_empty() {
        report.mismatch("no write completed");
        return Ok(());
    }
    // A write of a million particles takes about a second, so a run holds
    // too few for a percentile with ten samples beyond it: the tail is the
    // slowest write (p100), over the whole run.
    let mut ph = phase(&done, &latencies, wall);
    ph.tail = slowest(&latencies);
    ph.tail_windows = 1;
    let t = ph.tail;
    println!("{}", ph.describe(ctx.workload, "timestep writes", wall));

    if !report.traced() {
        report.set("setup_s", setup_s);
        report.set("query_p50_ms", ph.p50_ms);
        report.set("query_p99_ms", ph.tail.value);
        report.set("qps", ph.qps);
        report.set(
            "ok_rate",
            1.0 - ratio(report.failed as f64, report.attempted as f64),
        );
        report.set("write_mb_s", payload as f64 / 1e6 / write_secs);
        report.set("stored_bytes_per_byte", stored as f64 / payload as f64);
        report.set("peak_heap_mib", peak_heap);
        return Ok(());
    }

    report.set("query.samples", t.samples as f64);
    report.set("query.tail_percentile", t.percentile);
    // Replay the first ops of the measured loop (at least one, at most
    // half the run length) with spans: each op's write, with the slowest
    // rank's phase times laid out beneath it, then the re-open checks.
    let mut tracer = Tracer::new();
    let encode = Mutex::new((0u64, 0u64, 0.0f64));
    let mut phases = bat_iosim::PhaseTimes::new();
    let (mut untraced, mut replayed) = (0.0, 0);
    let t0 = Instant::now();
    while replayed < op_secs.len() && (replayed == 0 || untraced < ctx.seconds * 0.5) {
        let op = replayed;
        tracer.set_query(op as u64);
        let root = tracer.begin("query");
        let span = tracer.begin("write");
        let w = write_op(&st, op, &dir_of(op), Some(&encode))?;
        tracer.end(span);
        let mut offset = 0;
        for (phase, name) in [
            (WritePhase::TreeBuild, "write.tree_build"),
            (WritePhase::Scatter, "write.scatter"),
            (WritePhase::Transfer, "write.transfer"),
            (WritePhase::LayoutBuild, "write.layout_build"),
            (WritePhase::FileWrite, "write.file_write"),
            (WritePhase::Metadata, "write.metadata"),
        ] {
            let ns = (w.times[phase] * 1e9) as u64;
            let ns = ns.min(tracer.duration_ns(span).saturating_sub(offset));
            tracer.add_child(span, name, offset, ns);
            offset += ns;
        }
        phases.add(&w.times);
        tracer.span("verify", || {
            check(
                &dir_of(op),
                st.steps[op % st.steps.len()].reference,
                op,
                report,
            )
        })?;
        tracer.end(root);
        untraced += op_secs[op];
        replayed += 1;
    }
    let traced = t0.elapsed().as_secs_f64();

    let n = replayed as f64;
    for (phase, name) in [
        (WritePhase::TreeBuild, "write.tree_build_ms"),
        (WritePhase::Scatter, "write.scatter_ms"),
        (WritePhase::Transfer, "write.transfer_ms"),
        (WritePhase::LayoutBuild, "write.layout_build_ms"),
        (WritePhase::FileWrite, "write.file_write_ms"),
        (WritePhase::Metadata, "write.metadata_ms"),
    ] {
        report.set(name, phases[phase] * 1e3 / n);
    }
    report.set(
        "write.phase_sum_ratio",
        ratio(phases.component_sum(), phases.total),
    );
    let (raw, encoded, secs) = *encode.lock().expect("encode totals");
    report.set("codec.encode_mib_s", ratio(raw as f64 / MIB, secs));
    report.set("codec.stored_ratio", ratio(encoded as f64, raw as f64));
    crate::viewer::finish_trace(ctx, &tracer, untraced, traced, report)
}
