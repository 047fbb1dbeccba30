//! Regenerates every table and figure of the paper.
//!
//! ```text
//! reproduce [--quick] [--markdown] [--results DIR]
//!           [--no-cache] [--cache-dir DIR]
//!           [--timeline] [--simpoint] [--events FILE] [--trace] [--race]
//!           [--profile] [--profile-interval N]
//!           [--serve-metrics ADDR]
//!           [table1 .. fig10]
//! ```
//!
//! With no experiment arguments, all twenty artifacts are produced. Each is
//! printed to stdout and written as `<slug>.txt` / `<slug>.csv` under the
//! results directory (default `results/`). Characterization results are
//! memoized content-addressed under the cache directory (default
//! `results/cache`), so repeated runs replay from disk; `--no-cache` forces
//! full re-simulation and writes nothing.
//!
//! `--simpoint` additionally runs a representative-interval campaign over
//! the CPU2017 ref pairs: each pair is profiled in intervals, clustered,
//! sparsely replayed, and the per-pair speedup-vs-error record lands
//! content-addressed under `<results>/simpoints/` (rendered by
//! `simpoint-report`, audited by `lint --simpoint`).
//!
//! Observability: `--timeline` records an interval-sampled counter timeline
//! per pair (written as CSV + SVG sparkline under `<results>/timelines/`;
//! sampled runs bypass the result cache), and `--events FILE` streams
//! structured perfmon span/event records as JSONL. A per-stage summary table
//! (wall time, peak RSS, throughput, cache statistics) prints to stderr at
//! the end of every run. `--trace` records a causal span trace of the whole
//! run — every per-pair job nests under the run root across the scheduler's
//! worker threads — exported as Perfetto-loadable Chrome Trace Event JSON
//! under `<results>/traces/` (feed it to `trace-report`). `--race` records synchronization events from the
//! store's index shards and the metrics registry, and at the end of the
//! run audits them with the vector-clock happens-before
//! checker (`X`-rules; any finding exits nonzero). `--profile` records an
//! op-clocked statistical profile of the whole run — engine samples fold
//! under the pipeline stage and scheduler job frames — and writes the
//! `.prof` artifact, folded stacks, and a flamegraph SVG under
//! `<results>/profiles/` (feed the `.prof` to `prof-report`; profiled runs
//! bypass the result cache so there is always engine work to sample).
//! Process metrics are always on: `--serve-metrics
//! ADDR` scrapes them live (Prometheus text at `/metrics`, JSON at
//! `/metrics.json`), a final snapshot lands in `<results>/metrics.json`,
//! and a panic dumps the flight recorder's last events to
//! `<results>/flight-recorder.json`. Any pipeline error renders on stderr
//! and exits nonzero.

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use perfmon::Recorder;
use simdash::manifest::kind as artifact_kind;
use simdash::ManifestBuilder;
use uarch_sim::timeline::SamplerConfig;
use workchar::cache::CacheContext;
use workchar::characterize::RunConfig;
use workchar::cli::{ArgStream, PipelineFlags};
use workchar::dataset::Dataset;
use workchar::error::{Error, Result};
use workchar::experiments::{self, correlation_notes, ExperimentId};
use workchar::observe::{rel_artifact, write_timeline_artifacts, PipelineSpan};

struct Options {
    quick: bool,
    markdown: bool,
    shared: PipelineFlags,
    selected: Vec<ExperimentId>,
}

fn parse_args() -> Result<Option<Options>> {
    let mut opts = Options {
        quick: false,
        markdown: false,
        shared: PipelineFlags::new(),
        selected: Vec::new(),
    };
    let mut args = ArgStream::from_env();
    while let Some(arg) = args.next() {
        if opts.shared.accept(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--markdown" => opts.markdown = true,
            "--help" | "-h" => {
                print_usage();
                return Ok(None);
            }
            slug => match ExperimentId::from_slug(slug) {
                Some(id) => opts.selected.push(id),
                None => {
                    return Err(Error::Usage(format!("unknown experiment '{slug}'")));
                }
            },
        }
    }
    if opts.selected.is_empty() {
        opts.selected = ExperimentId::ALL.to_vec();
    }
    Ok(Some(opts))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run with --help for usage");
            return ExitCode::from(2);
        }
    };
    match real_main(opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main(opts: Options) -> Result<()> {
    // Metrics are on for the whole run: the substrate crates' counters are
    // sentinel-gated and cost one atomic add per hit, and the flight
    // recorder dumps its last events to the results directory on panic.
    simmetrics::enable();
    workchar::telemetry::register_pipeline_metrics();
    simmetrics::flight::install_dump(&opts.shared.results_dir.join("flight-recorder.json"));
    let _metrics_server = match &opts.shared.serve_metrics {
        Some(addr) => {
            let server = simmetrics::http::serve(addr)?;
            eprintln!("serving metrics on http://{}/metrics", server.local_addr());
            Some(server)
        }
        None => None,
    };

    let recorder = match &opts.shared.events {
        Some(path) => Recorder::to_path(path)?,
        None => Recorder::in_memory(),
    };

    // The run manifest opens before any artifact is written; every write
    // site below registers its pointer, and the finished manifest lands
    // under `<results>/runs/` (the dashboard and D-rules start there).
    let mut manifest = ManifestBuilder::start(
        "reproduce",
        if opts.quick { "quick" } else { "default" },
        &opts
            .shared
            .config_summary(&experiment_summary(&opts.selected)),
    );
    if let Some(path) = &opts.shared.events {
        manifest.artifact(
            artifact_kind::EVENTS,
            rel_artifact(&opts.shared.results_dir, path),
        );
    }

    // The trace root opens before any stage so every span of the run —
    // including per-pair jobs on scheduler worker threads — nests under it.
    let trace_root = if opts.shared.trace {
        simtrace::enable();
        let mut root = simtrace::root("run/reproduce");
        root.arg("quick", opts.quick);
        root.arg("run_id", manifest.run_id());
        Some(root)
    } else {
        None
    };

    // Race auditing records every sync event for the whole run; the
    // happens-before check happens once at the end, after all stages.
    if opts.shared.race {
        simrace::enable();
        eprintln!("race auditing on: recording sync events for a happens-before check");
    }

    // The profile root frame opens before any stage so every sample of the
    // run folds under it, mirroring the trace root.
    let prof_root = if opts.shared.profile {
        simprof::enable_with_interval(opts.shared.profile_interval);
        eprintln!(
            "profiling on: one sample per {} engine ops, artifacts under {}",
            opts.shared.profile_interval,
            opts.shared.results_dir.join("profiles").display()
        );
        Some(simprof::frame("run/reproduce"))
    } else {
        None
    };

    // A cache-hit run executes no engine ops, leaving nothing to sample,
    // so profiled runs bypass the cache entirely.
    let cache = if opts.shared.no_cache || opts.shared.profile {
        None
    } else {
        match CacheContext::open(&opts.shared.cache_dir) {
            Ok(ctx) => {
                if let Some(store) = ctx.store() {
                    if !store.is_empty() {
                        eprintln!(
                            "result cache at {}: {} records on hand",
                            opts.shared.cache_dir.display(),
                            store.len()
                        );
                    }
                }
                Some(ctx)
            }
            Err(e) => {
                eprintln!(
                    "warning: cannot open cache at {}: {e}; running uncached",
                    opts.shared.cache_dir.display()
                );
                None
            }
        }
    };

    let mut config = if opts.quick {
        RunConfig::quick()
    } else {
        RunConfig::default()
    };
    if opts.shared.timeline {
        config = config.with_sampler(SamplerConfig::default());
        if cache.is_some() {
            eprintln!("timeline sampling on: runs bypass the result cache");
        }
    }
    if opts.shared.lint {
        let cpu17 = workload_synth::cpu2017::suite();
        let cpu06 = workload_synth::cpu2006::suite();
        let report = workchar::lint::check_campaign(&[&cpu17, &cpu06], &config);
        if !report.is_empty() {
            eprint!("{}", report.to_table());
        }
        if report.failed(opts.shared.deny_warnings) {
            return Err(report.into());
        }
        eprintln!("lint: profiles and config — {}", report.summary());
    }
    eprintln!(
        "characterizing SPEC CPU2017 (194 pairs, 3 input sizes) and CPU2006 (29 apps) \
         on {} ...",
        config.system.name
    );
    let t0 = Instant::now();
    let mut span = PipelineSpan::open(&recorder, "collect-dataset");
    let data = match Dataset::collect_with(config.clone(), cache.as_ref()) {
        Ok(data) => data,
        Err(e) => {
            // Even a failed campaign leaves a manifest: the per-pair
            // failure details are exactly what the --diff gate and the
            // dashboard need to explain a regression.
            if let Error::Characterization { failures, .. } = &e {
                for f in failures {
                    manifest.pair_failed(&f.label, &f.message);
                }
            }
            if let Err(werr) = manifest.write(&opts.shared.results_dir) {
                eprintln!("warning: cannot write run manifest: {werr}");
            }
            return Err(e);
        }
    };
    for r in data.cpu17.iter().chain(&data.cpu06) {
        manifest.pair_ok(&r.id);
    }
    let wall = t0.elapsed().as_secs_f64();
    let sim_ops: u64 = data
        .cpu17
        .iter()
        .chain(&data.cpu06)
        .map(|r| r.sim_ops)
        .sum();
    span.record("records_cpu17", data.cpu17.len());
    span.record("records_cpu06", data.cpu06.len());
    span.record("sim_ops", sim_ops);
    if wall > 0.0 {
        span.record("sim_ops_per_sec", sim_ops as f64 / wall);
    }
    if let Some(ctx) = &cache {
        let snap = ctx.stats.snapshot();
        span.record("cache_hits", snap.hits);
        span.record("cache_misses", snap.misses);
    }
    span.finish();
    eprintln!(
        "collected {} CPU2017 and {} CPU2006 records in {wall:.1}s",
        data.cpu17.len(),
        data.cpu06.len(),
    );
    if let Some(ctx) = &cache {
        let snap = ctx.stats.snapshot();
        eprintln!("cache: {snap}");
        recorder.stat(
            "cache",
            &[
                ("hits", snap.hits.into()),
                ("misses", snap.misses.into()),
                ("hit_rate", snap.hit_rate().into()),
                ("bytes_read", snap.bytes_read.into()),
                ("bytes_written", snap.bytes_written.into()),
            ],
        );
    }

    std::fs::create_dir_all(&opts.shared.results_dir)?;
    let mut report = String::from(
        "# SPEC CPU2017 characterization — regenerated artifacts\n\n         Produced by the `reproduce` binary; see EXPERIMENTS.md for the\n         paper-vs-measured discussion.\n\n",
    );
    for id in &opts.selected {
        let id = *id;
        let mut span = PipelineSpan::open(&recorder, "experiment");
        span.record("id", id.slug());
        let artifact = experiments::run(id, &data)?;
        span.record("tables", artifact.tables.len());
        span.record("figures", artifact.figures.len());
        let text = artifact.render();
        println!("{text}");
        write_file(
            &opts.shared.results_dir,
            &format!("{}.txt", id.slug()),
            &text,
        );
        write_file(
            &opts.shared.results_dir,
            &format!("{}.csv", id.slug()),
            &artifact.render_csv(),
        );
        report.push_str(&format!("## {id}\n\n"));
        for table in &artifact.tables {
            report.push_str(&table.render_markdown());
            report.push('\n');
        }
        for (i, figure) in artifact.figures.iter().enumerate() {
            let name = if artifact.figures.len() == 1 {
                format!("{}.svg", id.slug())
            } else {
                format!("{}_{}.svg", id.slug(), i + 1)
            };
            write_file(
                &opts.shared.results_dir,
                &name,
                &figure.render_svg(900, 420),
            );
            report.push_str(&format!("![{}]({name})\n\n", figure.title()));
        }
        for (title, body) in &artifact.texts {
            report.push_str(&format!("**{title}**\n\n```text\n{body}```\n\n"));
        }
        span.finish();
    }
    if opts.markdown {
        write_file(&opts.shared.results_dir, "REPORT.md", &report);
        manifest.artifact(artifact_kind::REPORT, "REPORT.md");
    }

    if opts.shared.timeline {
        let mut span = PipelineSpan::open(&recorder, "timeline-artifacts");
        let dir = opts.shared.results_dir.join("timelines");
        let mut records = data.cpu17.clone();
        records.extend(data.cpu06.iter().cloned());
        let written = write_timeline_artifacts(&records, &dir)?;
        manifest.artifact(
            artifact_kind::TIMELINES_DIR,
            rel_artifact(&opts.shared.results_dir, &dir),
        );
        span.record("pairs", written);
        span.finish();
        eprintln!("wrote {written} pair timelines under {}", dir.display());
    }

    if opts.shared.simpoint {
        let mut span = PipelineSpan::open(&recorder, "simpoint-campaign");
        let dir = opts.shared.results_dir.join("simpoints");
        let store = simstore::Store::open(&dir)?;
        let sp = simpoint::SimpointConfig::default();
        let apps = workload_synth::cpu2017::suite();
        eprintln!(
            "simpoint: representative-interval analysis of the CPU2017 ref pairs \
             (records under {})...",
            dir.display()
        );
        let records = workchar::simpoints::run_roster(
            &apps,
            workload_synth::profile::InputSize::Ref,
            &config,
            &sp,
            Some(&store),
        )?;
        span.record("pairs", records.len());
        let table = workchar::simpoints::summary_table(&records);
        let text = table.render_ascii();
        println!("{text}");
        write_file(&opts.shared.results_dir, "simpoints.txt", &text);
        manifest.artifact(
            artifact_kind::SIMPOINTS_DIR,
            rel_artifact(&opts.shared.results_dir, &dir),
        );
        span.finish();
    }

    // Full per-pair record dump — the machine-readable artifact downstream
    // analyses start from.
    write_file(
        &opts.shared.results_dir,
        "records_cpu2017.csv",
        &workchar::characterize::records_csv(&data.cpu17),
    );
    write_file(
        &opts.shared.results_dir,
        "records_cpu2006.csv",
        &workchar::characterize::records_csv(&data.cpu06),
    );
    manifest.artifact(artifact_kind::RECORDS_CSV, "records_cpu2017.csv");
    manifest.artifact(artifact_kind::RECORDS_CSV, "records_cpu2006.csv");

    println!("==== inline correlations (Sections IV-C / IV-D) ====");
    for (name, c) in correlation_notes(&data) {
        println!("{name}: {c:+.3}");
    }

    // Final metric snapshot — the same series the HTTP endpoint serves,
    // persisted for offline inspection.
    write_file(
        &opts.shared.results_dir,
        "metrics.json",
        &simmetrics::json::render(&simmetrics::snapshot()),
    );
    manifest.artifact(artifact_kind::METRICS, "metrics.json");

    if let Some(root) = trace_root {
        root.finish();
        let spans = simtrace::drain();
        let dir = opts.shared.results_dir.join("traces");
        let json_path = simtrace::export(&dir, "reproduce", &spans)?;
        manifest.artifact(
            artifact_kind::TRACE_JSON,
            rel_artifact(&opts.shared.results_dir, &json_path),
        );
        eprintln!(
            "wrote {} trace spans to {} (load in Perfetto, or run trace-report)",
            spans.len(),
            json_path.display()
        );
    }

    if let Some(root) = prof_root {
        drop(root);
        simprof::disable();
        let profile = simprof::drain();
        let dir = opts.shared.results_dir.join("profiles");
        let paths = simprof::export(&dir, "reproduce", &profile)?;
        manifest.artifact(
            artifact_kind::PROFILE,
            rel_artifact(&opts.shared.results_dir, &paths.prof),
        );
        manifest.artifact(
            artifact_kind::FOLDED,
            rel_artifact(&opts.shared.results_dir, &paths.folded),
        );
        manifest.artifact(
            artifact_kind::FLAMEGRAPH,
            rel_artifact(&opts.shared.results_dir, &paths.svg),
        );
        eprintln!(
            "wrote {} profile samples ({} ops) to {} (run prof-report, or open {})",
            profile.samples.len(),
            profile.total_weight(),
            paths.prof.display(),
            paths.svg.display()
        );
    }

    if opts.shared.race {
        simrace::disable();
        let events = simrace::drain();
        let report = simrace::checker::check_events("run/reproduce", &events);
        eprintln!(
            "race audit: {} sync events — {}",
            events.len(),
            report.summary()
        );
        if !report.is_empty() {
            eprint!("{}", report.to_table());
        }
        if report.failed(opts.shared.deny_warnings) {
            return Err(report.into());
        }
    }

    let run_id = manifest.run_id().to_string();
    let manifest_path = manifest.write(&opts.shared.results_dir)?;
    eprintln!(
        "run {run_id}: manifest at {} (render with dash-report)",
        manifest_path.display()
    );

    eprint!("{}", recorder.render_summary());
    Ok(())
}

/// The experiments token of the manifest `config` field: `all` for a
/// full run, otherwise the selected slugs in order.
fn experiment_summary(selected: &[ExperimentId]) -> String {
    if selected == ExperimentId::ALL {
        "all".to_string()
    } else {
        selected
            .iter()
            .map(|id| id.slug())
            .collect::<Vec<_>>()
            .join("+")
    }
}

fn write_file(dir: &std::path::Path, name: &str, contents: &str) {
    let path = dir.join(name);
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(contents.as_bytes())) {
        Ok(()) => {}
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

fn print_usage() {
    println!(
        "usage: reproduce [--quick] [--markdown] [--results DIR] \
         [--no-cache] [--cache-dir DIR] [--lint] [--deny-warnings] \
         [--timeline] [--simpoint] [--events FILE] [--trace] [--race] \
         [--profile] [--profile-interval N] \
         [--serve-metrics ADDR] [table1..table10 fig1..fig10]"
    );
    print!("{}", PipelineFlags::usage_lines());
    println!("experiments:");
    for id in ExperimentId::ALL {
        println!("  {id}");
    }
}
