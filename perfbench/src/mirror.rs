//! The traced mirror: the radio-lab pipeline re-driven through each
//! layer's public functions, with a timing span around every call into a
//! layer.
//!
//! Two shapes are mirrored:
//!
//! * [`run_materialized`] mirrors `run_spec` → `run_algo` →
//!   `run_algo_batch` for the materialized sweeps (`e1-mis`, `e3-ccds`):
//!   `spec.plan()`, then per unit `TopologyKind::build_with`,
//!   `EngineBuilder::spawn`, `BatchedEngine::run_all` (which runs a lone
//!   engine through `Engine::run`), `check_mis`/`check_ccds`, and finally
//!   `render`.
//! * [`run_sliced`] mirrors `run_slice_checkpointed` for each shard of a
//!   served sweep (`serve-durable`): the same per-unit calls, then the
//!   records pushed into a `StreamAggregate` and a `JsonlWriter` behind
//!   timing wrappers of the `RecordSink` trait, a flush and `sync_data` per
//!   chunk, and a `SweepCheckpoint::save` per chunk.
//!
//! The adversary is wrapped in [`TimedAdversary`], which times every
//! proposal and counts the proposed edges and those with a broadcasting
//! endpoint. The mirror writes every record it produces, so the caller can
//! check that it is record-identical to the CLI's records — that is what
//! makes its numbers numbers about the same program.

use radio_bench::checkpoint::{
    merge_partials, shard_range, spec_fingerprint, ShardRef, SweepCheckpoint, CHECKPOINT_SCHEMA,
};
use radio_bench::scenario::{
    render, ScenarioRun, ScenarioSpec, StopCondition, TrialUnit, Workload,
};
use radio_bench::serve::spool::{list_specs, load_partials};
use radio_bench::sink::{JsonlWriter, RecordSink, SinkFile, StreamAggregate};
use radio_sim::adversary::Adversary;
use radio_sim::{
    AdversaryKind, BatchedEngine, DualGraph, Engine, EngineBuilder, IdAssignment,
    LinkDetectorAssignment, Process, StepMode,
};
use radio_structures::checker::{check_ccds, check_mis};
use radio_structures::params::MisParams;
use radio_structures::runner::{AlgoKind, RunRecord};
use radio_structures::{Ccds, CcdsConfig, Mis};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::cell::RefCell;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::ops::Range;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// Everything one traced pass measured: busy seconds per layer span and
/// the counts made at the same boundaries. Seconds are summed over every
/// call of the span.
#[derive(Debug, Default, Serialize)]
pub struct Trace {
    /// Wall seconds of the whole pass.
    pub wall_s: f64,
    /// `ScenarioSpec::plan`.
    pub plan_s: f64,
    /// `TopologyKind::build_with`.
    pub build_s: f64,
    /// Networks built.
    pub nets: u64,
    /// Reliable-graph CSR edge slots over the built networks.
    pub edge_slots: u64,
    /// `EngineBuilder::new(net.clone()) … .spawn(…)`, the per-trial
    /// network clone included.
    pub spawn_s: f64,
    /// `BatchedEngine::run_all` (a lone engine's `Engine::run`), adversary
    /// included.
    pub run_s: f64,
    /// Time inside [`TimedAdversary::extra_edges`], its own counting
    /// included; `run_s - adversary_wrap_s` is the engine's self time.
    pub adversary_wrap_s: f64,
    /// Time inside the wrapped adversary's `extra_edges` alone.
    pub propose_s: f64,
    /// Edges the adversary proposed.
    pub edges_proposed: u64,
    /// Proposed edges with at least one broadcasting endpoint — the only
    /// ones that can change a delivery.
    pub edges_useful: u64,
    /// Σ n · rounds over every engine run.
    pub node_rounds: u64,
    /// The part of `node_rounds` whose engine resolved to the bitset tier.
    pub bitset_node_rounds: u64,
    /// The part of `node_rounds` stepped by a multi-trial `BatchedEngine`.
    pub batched_node_rounds: u64,
    /// Broadcast actions over every engine run.
    pub broadcasts: u64,
    /// Successful deliveries over every engine run.
    pub deliveries: u64,
    /// Listener-side collisions over every engine run.
    pub collisions: u64,
    /// `check_mis` / `check_ccds`.
    pub check_s: f64,
    /// The `run_algo` equivalent: spawn, run, check and record assembly.
    pub run_algo_s: f64,
    /// Milliseconds per unit, build through record, in unit order.
    pub unit_ms: Vec<f64>,
    /// `StreamAggregate::accept` through the timing wrapper.
    pub aggregate_push_s: f64,
    /// `StreamAggregate::snapshot`, taken for every checkpoint.
    pub aggregate_snapshot_s: f64,
    /// `JsonlWriter::accept` through the timing wrapper.
    pub sink_push_s: f64,
    /// `JsonlWriter::flush_chunk`, `sync_data` and the final `finish`.
    pub sink_flush_s: f64,
    /// Bytes of JSONL the sink wrote.
    pub sink_bytes: u64,
    /// `SweepCheckpoint::save`.
    pub checkpoint_save_s: f64,
    /// Checkpoints saved.
    pub checkpoint_saves: u64,
    /// Bytes of checkpoint written over all saves.
    pub checkpoint_bytes: u64,
    /// `merge_partials` over a spool's published partials.
    pub merge_s: f64,
    /// `render` of the materialized tables.
    pub render_s: f64,
}

/// Seconds since `t`.
fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The adversary counters a [`TimedAdversary`] shares with its trace.
#[derive(Default)]
struct AdversaryStats {
    wrap_s: f64,
    propose_s: f64,
    proposed: u64,
    useful: u64,
}

/// A timing wrapper around any [`Adversary`].
struct TimedAdversary {
    inner: Box<dyn Adversary>,
    stats: Rc<RefCell<AdversaryStats>>,
}

impl Adversary for TimedAdversary {
    fn extra_edges(
        &mut self,
        round: u64,
        net: &DualGraph,
        broadcasting: &[bool],
        out: &mut Vec<(usize, usize)>,
    ) {
        let wrap = Instant::now();
        self.inner.extra_edges(round, net, broadcasting, out);
        let propose_s = secs(wrap);
        let live = |v: usize| broadcasting.get(v).copied().unwrap_or(false);
        let useful = out.iter().filter(|&&(u, v)| live(u) || live(v)).count();
        let mut stats = self.stats.borrow_mut();
        stats.propose_s += propose_s;
        stats.proposed += out.len() as u64;
        stats.useful += useful as u64;
        stats.wrap_s += secs(wrap);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A timing wrapper around any [`RecordSink`].
struct TimedSink<S> {
    inner: S,
    push_s: f64,
    flush_s: f64,
}

impl<S> TimedSink<S> {
    fn new(inner: S) -> Self {
        TimedSink {
            inner,
            push_s: 0.0,
            flush_s: 0.0,
        }
    }
}

impl<S: RecordSink> RecordSink for TimedSink<S> {
    fn accept(
        &mut self,
        spec: &ScenarioSpec,
        unit: &TrialUnit,
        records: &[RunRecord],
    ) -> io::Result<()> {
        let t = Instant::now();
        let result = self.inner.accept(spec, unit, records);
        self.push_s += secs(t);
        result
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        let t = Instant::now();
        let result = self.inner.flush_chunk();
        self.flush_s += secs(t);
        result
    }
}

/// The spec's stop condition as a round cap (`ScenarioSpec::max_rounds`
/// is private to the bench crate).
fn max_rounds(spec: &ScenarioSpec) -> Option<u64> {
    match spec.stop {
        StopCondition::Default => None,
        StopCondition::Rounds { max } => Some(max),
    }
}

impl Trace {
    /// Runs `engines` through `BatchedEngine::run_all` inside the run span
    /// and counts their rounds and channel events.
    fn run_engines<P: Process>(
        &mut self,
        engines: Vec<Engine<P>>,
        budget: u64,
        adversary: &RefCell<AdversaryStats>,
    ) -> Vec<Engine<P>> {
        // The selection rule of `run_all`: ≥ 2 engines on the bitset tier
        // step as one batch.
        let batched = engines.len() >= 2
            && engines
                .iter()
                .all(|e| matches!(e.step_mode(), StepMode::Bitset | StepMode::Batched));
        let t = Instant::now();
        let (engines, _) = BatchedEngine::run_all(engines, budget);
        self.run_s += secs(t);
        for e in &engines {
            let node_rounds = e.net().n() as u64 * e.round();
            self.node_rounds += node_rounds;
            if e.step_mode() == StepMode::Bitset {
                self.bitset_node_rounds += node_rounds;
            }
            if batched {
                self.batched_node_rounds += node_rounds;
            }
            let m = e.metrics();
            self.broadcasts += m.broadcasts;
            self.deliveries += m.deliveries;
            self.collisions += m.collisions;
        }
        let stats = adversary.take();
        self.adversary_wrap_s += stats.wrap_s;
        self.propose_s += stats.propose_s;
        self.edges_proposed += stats.proposed;
        self.edges_useful += stats.useful;
        engines
    }

    /// Spawns one engine inside the spawn span.
    fn spawn<P: Process>(
        &mut self,
        builder: impl FnOnce() -> EngineBuilder,
        factory: impl FnMut(radio_sim::SpawnInfo<'_>) -> P,
    ) -> Engine<P> {
        let t = Instant::now();
        let engine = builder()
            .spawn(factory)
            .expect("engine assembly from a validated network cannot fail");
        self.spawn_s += secs(t);
        engine
    }

    /// The mirror of `run_algo_batch` for the algorithms the benchmark's
    /// workloads run: one record per seed, field for field.
    fn run_algo(
        &mut self,
        net: &DualGraph,
        algo: &AlgoKind,
        adversary: AdversaryKind,
        seeds: &[u64],
        max_rounds: Option<u64>,
    ) -> Result<Vec<RunRecord>, String> {
        let started = Instant::now();
        let n = net.n();
        let delta = net.max_degree_g();
        let stats = Rc::new(RefCell::new(AdversaryStats::default()));
        let timed = |seed: u64| TimedAdversary {
            inner: adversary.build(seed ^ 0x5eed),
            stats: Rc::clone(&stats),
        };
        let ids = IdAssignment::identity(n);
        let det = LinkDetectorAssignment::zero_complete(net, &ids);
        let h = det.h_graph(&ids);
        let records = match *algo {
            AlgoKind::Mis => {
                let params = MisParams::default();
                let budget =
                    max_rounds.map_or(params.total_rounds(n), |m| params.total_rounds(n).min(m));
                let engines = seeds
                    .iter()
                    .map(|&seed| {
                        self.spawn(
                            || {
                                EngineBuilder::new(net.clone())
                                    .seed(seed)
                                    .ids(ids.clone())
                                    .detector(det.clone())
                                    .adversary(timed(seed))
                            },
                            |info| Mis::new(info.n, info.id, params),
                        )
                    })
                    .collect();
                let engines = self.run_engines(engines, budget, &stats);
                engines
                    .iter()
                    .map(|engine| {
                        let mut rec = RunRecord::blank(algo.name(), n, delta);
                        let outputs = engine.outputs();
                        let t = Instant::now();
                        rec.valid = check_mis(net, &h, &outputs).is_valid();
                        self.check_s += secs(t);
                        rec.solve_round = engine.all_decided_round();
                        rec.rounds_executed = engine.round();
                        rec.metrics = Some(*engine.metrics());
                        rec.outputs = outputs;
                        rec.push_extra("budget", params.total_rounds(n) as f64);
                        rec
                    })
                    .collect()
            }
            AlgoKind::Ccds { b } => {
                let cfg = CcdsConfig::new(n, delta, b);
                let schedule = match cfg.schedule() {
                    Ok(s) => s,
                    Err(e) => {
                        return Ok(seeds
                            .iter()
                            .map(|_| {
                                let mut rec = RunRecord::blank(algo.name(), n, delta);
                                rec.error = Some(e.to_string());
                                rec
                            })
                            .collect())
                    }
                };
                let budget = max_rounds.map_or(schedule.total + 1, |m| (schedule.total + 1).min(m));
                let engines = seeds
                    .iter()
                    .map(|&seed| {
                        self.spawn(
                            || {
                                EngineBuilder::new(net.clone())
                                    .seed(seed)
                                    .ids(ids.clone())
                                    .detector(det.clone())
                                    .adversary(timed(seed))
                                    .max_message_bits(cfg.b)
                            },
                            |info| Ccds::new(&cfg, info.id).expect("config validated above"),
                        )
                    })
                    .collect();
                let engines = self.run_engines(engines, budget, &stats);
                engines
                    .iter()
                    .map(|engine| {
                        let mut rec = RunRecord::blank(algo.name(), n, delta);
                        let outputs = engine.outputs();
                        let t = Instant::now();
                        let report = check_ccds(net, &h, &outputs);
                        self.check_s += secs(t);
                        rec.valid = report.terminated && report.connected && report.dominating;
                        rec.solve_round = engine.all_decided_round();
                        rec.rounds_executed = engine.round();
                        rec.schedule_total = Some(schedule.total);
                        rec.metrics = Some(*engine.metrics());
                        let in_mis = || engine.procs().iter().filter(|p| p.mis().in_mis());
                        rec.max_explorations = Some(
                            in_mis()
                                .map(|p| p.counters().explorations)
                                .max()
                                .unwrap_or(0),
                        );
                        rec.mis_size = Some(in_mis().count());
                        rec.push_extra(
                            "max_gprime_neighbors",
                            report.max_gprime_neighbors_in_set as f64,
                        );
                        rec.outputs = outputs;
                        rec
                    })
                    .collect()
            }
            ref other => return Err(format!("the mirror does not cover {}", other.name())),
        };
        self.run_algo_s += secs(started);
        Ok(records)
    }

    /// The mirror of `run_unit`: a private network build, then the
    /// algorithm with the detector stream continuing the topology stream.
    fn run_unit(
        &mut self,
        spec: &ScenarioSpec,
        unit: &TrialUnit,
    ) -> Result<Vec<RunRecord>, String> {
        let Workload::Core { algo } = &spec.workloads[unit.work].kind else {
            return Err(format!(
                "{}: the mirror covers Core workloads only",
                spec.id
            ));
        };
        if unit.det_seed.is_some() {
            return Err(format!(
                "{}: the mirror does not cover pinned detector seeds",
                spec.id
            ));
        }
        let started = Instant::now();
        let mut net_rng = StdRng::seed_from_u64(unit.net_seed);
        let t = Instant::now();
        let built = spec.topologies[unit.topo].kind.build_with(&mut net_rng);
        self.build_s += secs(t);
        let records = match built {
            Ok(net) => {
                self.nets += 1;
                self.edge_slots += net.g_csr().edge_slots() as u64;
                self.run_algo(
                    &net,
                    algo,
                    spec.adversaries[unit.adv],
                    &[unit.run_seed],
                    max_rounds(spec),
                )?
            }
            Err(e) => vec![RunRecord::failed(algo.name(), e.to_string())],
        };
        self.unit_ms.push(secs(started) * 1e3);
        Ok(records)
    }
}

/// Writes `records` as JSONL, one record per line.
fn write_records(out: &mut impl Write, records: &[RunRecord]) -> io::Result<()> {
    for rec in records {
        writeln!(out, "{}", rec.to_jsonl())?;
    }
    Ok(())
}

/// Mirrors `run_spec` + `render` for every spec in turn (as `radio-lab`
/// runs its inputs), writing the records to `records_out` and the
/// rendered tables, exactly as `radio-lab` prints them, to `tables_out`.
///
/// # Errors
///
/// Surfaces I/O errors and the mirror's refusals as text.
pub fn run_materialized(
    specs: &[ScenarioSpec],
    records_out: &Path,
    tables_out: &Path,
) -> Result<Trace, String> {
    let started = Instant::now();
    let mut trace = Trace::default();
    let io_err = |e: io::Error| e.to_string();
    let mut records_file = BufWriter::new(File::create(records_out).map_err(io_err)?);
    let mut tables = String::new();
    for spec in specs {
        // A deterministic topology would make `run_spec` share one network
        // across a cell's trials and fuse them, which the mirror does not
        // reproduce.
        if spec.topologies.iter().any(|t| t.kind.is_deterministic()) {
            return Err(format!(
                "{}: deterministic topologies are not mirrored",
                spec.id
            ));
        }
        let t = Instant::now();
        let units = spec.plan();
        trace.plan_s += secs(t);
        let mut records = Vec::with_capacity(units.len());
        for unit in &units {
            let recs = trace.run_unit(spec, unit)?;
            write_records(&mut records_file, &recs).map_err(io_err)?;
            records.push(recs);
        }
        let run = ScenarioRun {
            units,
            records,
            wall_s: 0.0,
        };
        let t = Instant::now();
        let table = render(spec, &run);
        trace.render_s += secs(t);
        tables.push_str(&table.render());
        tables.push('\n');
    }
    records_file.flush().map_err(io_err)?;
    std::fs::write(tables_out, tables).map_err(io_err)?;
    trace.wall_s = secs(started);
    Ok(trace)
}

/// Mirrors a served sweep of `spec`: `shards` contiguous slices, each run
/// like `run_slice_checkpointed` with a record log and a per-chunk
/// checkpoint under `work_dir`; then the shard logs concatenated into
/// `records_out`, and `merge_partials` timed over the published partials
/// of the served run in `spool`.
///
/// # Errors
///
/// Surfaces I/O errors and the mirror's refusals as text.
pub fn run_sliced(
    spec: &ScenarioSpec,
    chunk: u64,
    shards: u64,
    work_dir: &Path,
    records_out: &Path,
    spool: &Path,
) -> Result<Trace, String> {
    let started = Instant::now();
    let mut trace = Trace::default();
    let total = spec.grid_size() as u64;
    let mut logs = Vec::new();
    for index in 0..shards {
        let shard = ShardRef {
            index,
            count: shards,
        };
        let log = work_dir.join(format!("s{index}.jsonl"));
        let checkpoint = work_dir.join(format!("s{index}.ckpt"));
        run_slice(
            &mut trace,
            spec,
            chunk,
            shard_range(total, shard),
            shard,
            &log,
            &checkpoint,
        )
        .map_err(|e| format!("{}: shard {shard}: {e}", spec.id))?;
        logs.push(log);
    }
    let mut out = File::create(records_out).map_err(|e| e.to_string())?;
    for log in &logs {
        let mut file = File::open(log).map_err(|e| e.to_string())?;
        io::copy(&mut file, &mut out).map_err(|e| e.to_string())?;
    }
    for sd in list_specs(spool).map_err(|e| e.to_string())? {
        let manifest = sd.load_manifest().map_err(|e| e.to_string())?;
        let partials = load_partials(&sd, &manifest).map_err(|e| e.to_string())?;
        let t = Instant::now();
        merge_partials(partials).map_err(|e| e.to_string())?;
        trace.merge_s += secs(t);
    }
    trace.wall_s = secs(started);
    Ok(trace)
}

/// One shard's slice, in the order `run_slice_checkpointed` keeps: every
/// unit of a chunk into both sinks, then the record log flushed and
/// synced, then the checkpoint saved; the checkpoint is consumed at the
/// end.
fn run_slice(
    trace: &mut Trace,
    spec: &ScenarioSpec,
    chunk: u64,
    bounds: Range<u64>,
    shard: ShardRef,
    log_path: &Path,
    checkpoint_path: &Path,
) -> io::Result<()> {
    let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
    let fingerprint = spec_fingerprint(spec);
    let mut agg = TimedSink::new(StreamAggregate::for_spec(spec));
    let file = SinkFile::new(File::create(log_path)?);
    let mut log = TimedSink::new(JsonlWriter::new(BufWriter::new(file)));
    let started = Instant::now();
    let mut records = 0u64;
    let mut next = bounds.start;
    while next < bounds.end {
        let end = (next + chunk).min(bounds.end);
        for i in next..end {
            let unit = spec.unit_at(i);
            let recs = trace.run_unit(spec, &unit).map_err(invalid)?;
            records += recs.len() as u64;
            agg.accept(spec, &unit, &recs)?;
            log.accept(spec, &unit, &recs)?;
        }
        log.flush_chunk()?;
        let t = Instant::now();
        log.inner.sync_data()?;
        log.flush_s += secs(t);
        next = end;
        let t = Instant::now();
        let aggregate = agg.inner.snapshot();
        trace.aggregate_snapshot_s += secs(t);
        let checkpoint = SweepCheckpoint {
            schema: CHECKPOINT_SCHEMA.to_string(),
            fingerprint: fingerprint.clone(),
            shard: Some(shard),
            start: bounds.start,
            end: bounds.end,
            next_index: next,
            records,
            wall_s: secs(started),
            jsonl_lines: Some(log.inner.lines()),
            aggregate,
        };
        let t = Instant::now();
        checkpoint.save(checkpoint_path)?;
        trace.checkpoint_save_s += secs(t);
        trace.checkpoint_saves += 1;
        trace.checkpoint_bytes += std::fs::metadata(checkpoint_path)?.len();
    }
    std::fs::remove_file(checkpoint_path)?;
    let t = Instant::now();
    log.inner.finish()?;
    log.flush_s += secs(t);
    trace.sink_bytes += std::fs::metadata(log_path)?.len();
    trace.aggregate_push_s += agg.push_s;
    trace.sink_push_s += log.push_s;
    trace.sink_flush_s += log.flush_s;
    Ok(())
}
