/**
 * @file
 * perfbench: the repository's end-to-end benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *   perfbench --self-test
 *
 * An untraced run (--trace 0) repeats a fresh set-up and one timed
 * repetition of the workload for S seconds and prints the end-to-end
 * metrics (trimmed means over the repetitions; the median set-up), in
 * reference-host seconds. A traced run (--trace 1)
 * measures the untraced wall again, replays the workload with spans
 * around every public call, runs the layer probes and prints the
 * per-layer metrics, the tracing overhead, and writes the spans as
 * Chrome trace-event JSON. Either way the correctness gate runs outside
 * the timed phase, and the last line of standard output is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. Any gate
 * mismatch or sanity violation exits non-zero.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>

#include "bench.hh"
#include "core/experiments.hh"
#include "jit/arena.hh"
#include "support/logging.hh"

namespace perfbench {
namespace {

namespace core = risc1::core;
namespace sim = risc1::sim;
using risc1::strprintf;

/** A metric of BENCHMARK.json, with the unit it is printed in. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics of an untraced run, in BENCHMARK.json order. */
const std::vector<MetricSpec> EndToEnd = {
    {"wall_s", "s"},
    {"cpu_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/**
 * The per-layer metrics of a traced run, in BENCHMARK.json order. Every
 * workload prints all of them; a layer the workload does not exercise
 * reads 0 (a count) or is measured by the shared layer probes (a time).
 */
const std::vector<MetricSpec> PerLayer = {
    {"asm.assemble_s", "s"},
    {"asm.src_bytes", "bytes"},
    {"image.build_s", "s"},
    {"image.pages", "count"},
    {"image.decoded_ops", "count"},
    {"cpu.new_us.p50", "us"},
    {"cpu.new_us.p99", "us"},
    {"cpu.new_us.threaded.p50", "us"},
    {"cpu.new_us.superblock.p50", "us"},
    {"cpu.new_us.jit.p50", "us"},
    {"load.image_us.p50", "us"},
    {"load.image_us.p99", "us"},
    {"load.program_us.p50", "us"},
    {"run.fresh_us.p50", "us"},
    {"run.fresh_us.p99", "us"},
    {"run.fresh_minsts_per_s", "Minst/s"},
    {"run.warm_minsts_per_s", "Minst/s"},
    {"sb.blocks_formed", "count"},
    {"sb.blocks_demoted", "count"},
    {"sb.dispatches", "count"},
    {"sb.mean_block_len", "insts"},
    {"sb.chained", "count"},
    {"sb.demoted_frac", "ratio"},
    {"jit.code_bytes", "bytes"},
    {"jit.chain_patches", "count"},
    {"jit.code_bytes_per_kinst", "bytes/kinst"},
    {"inject.to_point_us.p50", "us"},
    {"inject.to_point_us.p99", "us"},
    {"inject.apply_us.p50", "us"},
    {"inject.apply_us.p99", "us"},
    {"inject.after_us.p50", "us"},
    {"inject.after_us.p99", "us"},
    {"outcome.masked", "count"},
    {"outcome.sdc", "count"},
    {"outcome.trap", "count"},
    {"outcome.hang", "count"},
    {"outcome.hang_time_frac", "ratio"},
    {"snapshot.capture_us.p50", "us"},
    {"snapshot.capture_us.p99", "us"},
    {"snapshot.restore_us.p50", "us"},
    {"snapshot.count", "count"},
    {"recover.replayed_insts", "count"},
    {"recover.recovered_frac", "ratio"},
    {"parallel.efficiency", "ratio"},
    {"fleet.shards", "count"},
    {"fleet.remote_shards", "count"},
    {"fleet.in_process_shards", "count"},
    {"fleet.retries", "count"},
    {"fleet.rejected_cache", "count"},
    {"fleet.quarantined", "count"},
    {"fleet.record_bytes", "bytes"},
    {"fleet.cache_write_us", "us"},
    {"fleet.cache_load_us", "us"},
    {"net.frame_encode_us", "us"},
    {"net.frame_decode_us", "us"},
    {"net.status_rtt_ms.p50", "ms"},
    {"net.status_rtt_ms.p99", "ms"},
    {"vax.run_s", "s"},
    {"vax.minsts_per_s", "Minst/s"},
    {"model.guest_insts", "count"},
    {"model.guest_cycles", "count"},
    {"model.cpi", "cycles/inst"},
    {"trace.untraced_wall_s", "s"},
    {"trace.traced_wall_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.span_share", "ratio"},
};

/** Injections per suite program of the report's probe campaign. */
constexpr unsigned ProbeInjections = 4;

struct Args
{
    Config cfg;
    bool selfTest = false;
    std::string error;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                a.error = arg + " needs a value";
                return "";
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            a.cfg.workload = value();
            have_workload = true;
        } else if (arg == "--seed") {
            a.cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            a.cfg.seconds = std::strtod(value().c_str(), nullptr);
        } else if (arg == "--trace") {
            a.cfg.trace = value() == "1";
        } else if (arg == "--perturb") {
            a.cfg.perturb = true;
        } else if (arg == "--self-test") {
            a.selfTest = true;
        } else {
            a.error = "unknown argument " + arg;
        }
    }
    if (!a.selfTest && a.error.empty()) {
        const auto &names = workloadNames();
        if (!have_workload ||
            std::find(names.begin(), names.end(), a.cfg.workload) ==
                names.end())
            a.error = "--workload must be one of campaign, campaign_jit, "
                      "fleet_recover, report";
        else if (!(a.cfg.seconds > 0))
            a.error = "--seconds must be positive";
    }
    return a;
}

/** The `spec` metrics of `values` as the JSON result's "metrics". */
std::string
metricsJson(const std::vector<MetricSpec> &spec, const MetricSet &values,
            std::vector<std::string> &errors)
{
    std::string json = "{";
    for (size_t i = 0; i < spec.size(); ++i) {
        // A count the workload never produced is a layer that did no
        // work; any other missing metric is a benchmark bug.
        double v = values.get(spec[i].name);
        if (!values.has(spec[i].name) &&
            std::strcmp(spec[i].unit, "count") != 0)
            errors.push_back(std::string("metric ") + spec[i].name +
                             " was not measured");
        if (!std::isfinite(v)) {
            errors.push_back(std::string("metric ") + spec[i].name +
                             " is not finite");
            v = 0;
        }
        json += strprintf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                          i ? ", " : "", spec[i].name, v, spec[i].unit);
    }
    return json + "}";
}

void
printMetrics(const char *title, const MetricSet &m)
{
    std::printf("-- %s\n", title);
    for (const Metric &x : m.all())
        std::printf("  %-34s %14.6g %s\n", x.name.c_str(), x.value,
                    x.unit.c_str());
}

/** Repeat `wl` for `seconds` (at least `min_reps` times). */
std::vector<Rep>
timedPhase(Workload &wl, double seconds, unsigned min_reps, Tracer *tracer)
{
    std::vector<Rep> reps;
    CpuRotation rotation(wl.threads());
    const Clock::time_point t0 = Clock::now();
    while (reps.size() < min_reps || secondsSince(t0) < seconds) {
        rotation.next();
        Span span(tracer, "bench.rep", "repetition");
        reps.push_back(wl.repeat(tracer));
    }
    return reps;
}

/** Operations a run attempted and failed, and why they failed. */
struct Tally
{
    unsigned attempted = 0;
    unsigned failed = 0;
    std::vector<std::string> errors;
};

/** Fold repetitions into the tally; later outputs must match the
 *  first (the workload is deterministic for its seed). */
void
tallyReps(const std::vector<Rep> &reps, Tally &tally)
{
    for (size_t i = 0; i < reps.size(); ++i) {
        tally.attempted += reps[i].attempted;
        unsigned bad = reps[i].failed;
        if (reps[i].output != reps.front().output) {
            tally.errors.push_back(strprintf(
                "repetition %zu differs from repetition 0", i));
            bad = reps[i].attempted;
        }
        tally.failed += std::min(bad, reps[i].attempted);
    }
}

/**
 * model.*: guest instructions and cycles of the suite baselines. They
 * are simulated counts: no simulator-only change may move them.
 */
void
modelMetrics(const std::vector<Prepared> &suite, MetricSet &out)
{
    double insts = 0, cycles = 0;
    for (const Prepared &p : suite) {
        insts += double(p.base.instructions);
        cycles += double(p.base.cycles);
    }
    out.add("model.guest_insts", insts, "count");
    out.add("model.guest_cycles", cycles, "count");
    out.add("model.cpi", insts > 0 ? cycles / insts : 0, "cycles/inst");
}

/** Every engine must retire the baselines' instructions and cycles. */
void
modelCheck(const std::vector<Prepared> &suite,
           std::vector<std::string> &errors)
{
    std::vector<std::string> engines = {"ref", "threaded", "superblock"};
    if (risc1::jit::hostSupported())
        engines.push_back("jit");
    for (const std::string &engine : engines) {
        const sim::CpuOptions opts = engineOptions(engine);
        for (const Prepared &p : suite) {
            sim::Cpu cpu(opts);
            cpu.load(*p.image);
            const sim::ExecResult r = cpu.run();
            if (r.instructions != p.base.instructions ||
                r.cycles != p.base.cycles)
                errors.push_back(strprintf(
                    "model: %s on %s retired %llu insts / %llu cycles, "
                    "expected %llu / %llu",
                    p.wl->name.c_str(), engine.c_str(),
                    static_cast<unsigned long long>(r.instructions),
                    static_cast<unsigned long long>(r.cycles),
                    static_cast<unsigned long long>(p.base.instructions),
                    static_cast<unsigned long long>(p.base.cycles)));
        }
    }
}

/** The workload's correctness gate, outside every timed phase. */
void
runGate(Workload &wl, Tally &tally)
{
    for (const std::string &e : wl.gate())
        tally.errors.push_back("gate: " + e);
}

std::vector<double>
field(const std::vector<Rep> &reps, double Rep::*member)
{
    std::vector<double> v;
    for (const Rep &r : reps)
        v.push_back(r.*member);
    return v;
}

/** `v` with each element multiplied by the matching one of `scale`. */
std::vector<double>
scaled(std::vector<double> v, const std::vector<double> &scale)
{
    for (size_t i = 0; i < v.size(); ++i)
        v[i] *= scale[i];
    return v;
}

/**
 * The untraced run: each repetition after a fresh set-up, for
 * cfg.seconds. Set-up samples thus spread over the whole run like the
 * timed ones, and the end-to-end metrics summarise the repetitions. Each
 * repetition is preceded by a host-speed calibration on the same CPUs,
 * and the end-to-end times are in reference-host seconds.
 */
void
measureEndToEnd(const Config &cfg, Workload &wl,
                std::vector<Prepared> &suite, MetricSet &e2e, Tally &tally)
{
    // Host speed (reference = 1) beside each repetition, for wall and
    // for CPU time.
    std::vector<double> setup, scale, cpuScale;
    std::vector<Rep> reps;
    {
        CpuRotation rotation(wl.threads());
        const Clock::time_point start = Clock::now();
        while (reps.size() < 3 || secondsSince(start) < cfg.seconds) {
            if (!reps.empty())
                wl.tearDown();
            // Set-up starts the fleet's threads, so it rotates too.
            rotation.next();
            // Calibrate before set-up, while none of the workload's own
            // threads (the fleet's sessions and heartbeats) compete.
            const Calibration cal = calibrate(wl.threads());
            scale.push_back(ReferenceCalibrationSeconds / cal.wall);
            cpuScale.push_back(ReferenceCalibrationSeconds / cal.cpu);
            const Clock::time_point t0 = Clock::now();
            suite = prepareSuite(core::campaignCpuOptions(), nullptr);
            wl.setUp(nullptr);
            setup.push_back(secondsSince(t0));
            reps.push_back(wl.repeat(nullptr));
        }
    }
    tallyReps(reps, tally);
    runGate(wl, tally);

    const std::vector<double> walls = field(reps, &Rep::wall);
    const std::vector<double> cpus = field(reps, &Rep::cpu);
    e2e.add("wall_s", trimmedMean(scaled(walls, scale)), "s");
    e2e.add("cpu_s", trimmedMean(scaled(cpus, cpuScale)), "s");
    e2e.add("setup_s", median(scaled(setup, scale)), "s");

    const auto print = [](const char *title, const std::vector<double> &v) {
        std::printf("%s:", title);
        for (double x : v)
            std::printf(" %.4f", x);
        std::printf("\n");
    };
    print("wall_s per repetition, host seconds", walls);
    print("host speed per repetition (reference = 1)", scale);
    print("host CPU speed per repetition (reference = 1)", cpuScale);
    MetricSet extra;
    extra.add("host.wall_s", trimmedMean(walls), "s");
    extra.add("host.wall_s.p50", median(walls), "s");
    extra.add("host.wall_s.p90", percentile(walls, 90), "s");
    extra.add("host.cpu_s", trimmedMean(cpus), "s");
    extra.add("host.setup_s", median(setup), "s");
    extra.add("host.speed", median(scale), "ratio");
    extra.add("host.cpu_speed", median(cpuScale), "ratio");
    extra.add("repetitions", double(walls.size()), "count");
    extra.add("parallel.efficiency",
              trimmedMean(cpus) / (trimmedMean(walls) * wl.threads()),
              "ratio");
    for (const std::string &e : sanityErrors(extra))
        tally.errors.push_back("sanity: " + e);
    printMetrics("diagnostics", extra);
}

/**
 * Self time per layer inside the traced repetitions (spans under a
 * "bench.rep" span), per repetition, and its share of the untraced
 * wall. Worker threads add up, so the shares of a phase running on N
 * threads can reach N. Prints them; returns the summed share.
 */
double
printSelfTimes(const std::vector<SpanRecord> &spans, double reps,
               double untraced)
{
    std::map<uint64_t, const SpanRecord *> by_id;
    for (const SpanRecord &s : spans)
        by_id[s.id] = &s;
    std::vector<SpanRecord> in_reps;
    for (const SpanRecord &s : spans) {
        for (const SpanRecord *p = &s; p;) {
            if (std::strcmp(p->layer, "bench.rep") == 0) {
                in_reps.push_back(s);
                break;
            }
            const auto it = by_id.find(p->parent);
            p = it == by_id.end() ? nullptr : it->second;
        }
    }
    double share = 0;
    MetricSet self;
    for (const LayerTime &lt : layerSelfTimes(in_reps)) {
        if (lt.layer == "bench.rep")
            continue;
        const double per_rep = lt.selfSeconds / reps;
        self.add("self." + lt.layer + "_s", per_rep, "s");
        self.add("share." + lt.layer, per_rep / untraced, "ratio");
        share += per_rep / untraced;
    }
    printMetrics("self time per traced repetition", self);
    return share;
}

/**
 * The traced run: the untraced wall for a third of cfg.seconds, then a
 * third with spans (campaigns replay their grid from the public per-run
 * calls; the fleet and the report run as they are, with spans around
 * runFleet and each report driver), then the shadow campaign, the
 * layer probes and the workload's own layer metrics.
 */
void
measureLayers(const Config &cfg, const std::string &run_id, Workload &wl,
              std::vector<Prepared> &suite, MetricSet &layers, Tally &tally)
{
    Tracer tracer(run_id);
    {
        Span span(&tracer, "bench.setup", "set-up");
        suite = prepareSuite(core::campaignCpuOptions(), &tracer);
        wl.setUp(&tracer);
    }
    const double third = cfg.seconds / 3;
    const std::vector<Rep> plain = timedPhase(wl, third, 2, nullptr);
    tallyReps(plain, tally);
    const double untraced = trimmedMean(field(plain, &Rep::wall));
    layers.add("parallel.efficiency",
               trimmedMean(field(plain, &Rep::cpu)) /
                   (untraced * wl.threads()),
               "ratio");

    const std::vector<core::FaultCampaignRow> *lib_rows = wl.rows();
    std::vector<double> traced_walls;
    ShadowResult shadow;
    if (lib_rows && !wl.recovers()) {
        CpuRotation rotation(wl.threads());
        const Clock::time_point t0 = Clock::now();
        while (traced_walls.size() < 2 || secondsSince(t0) < third) {
            rotation.next();
            Span span(&tracer, "bench.rep", "repetition");
            shadow = shadowCampaign(cfg, suite, cfg.injections, false,
                                    tracer);
            traced_walls.push_back(shadow.wall);
        }
    } else {
        const std::vector<Rep> traced = timedPhase(wl, third, 2, &tracer);
        tallyReps(traced, tally);
        traced_walls = field(traced, &Rep::wall);
        // The fleet's shadow replays its recovering grid; the report
        // gets a small probe campaign for the injection layer.
        const unsigned n = lib_rows ? cfg.injections : ProbeInjections;
        shadow = shadowCampaign(cfg, suite, n, wl.recovers(), tracer);
    }
    runGate(wl, tally);
    const std::vector<core::FaultCampaignRow> ref_rows =
        lib_rows ? *lib_rows
                 : core::faultCampaign(ProbeInjections, cfg.seed, cfg.threads,
                                       true);
    const std::string diff = rowsDiff(shadow.rows, ref_rows);
    if (!diff.empty())
        tally.errors.push_back("shadow campaign differs from the library: " +
                               diff);
    for (const Metric &m : shadow.metrics.all())
        layers.add(m.name, m.value, m.unit);

    probeLayers(cfg, suite, ref_rows, wl.pool(), tracer, layers,
                tally.errors);
    wl.layerMetrics(layers, &tracer);
    modelMetrics(suite, layers);

    const double traced = trimmedMean(traced_walls);
    layers.add("trace.untraced_wall_s", untraced, "s");
    layers.add("trace.traced_wall_s", traced, "s");
    layers.add("trace.overhead_frac", traced / untraced - 1, "ratio");
    const std::vector<SpanRecord> spans = tracer.spans();
    layers.add("trace.span_share",
               printSelfTimes(spans, double(traced_walls.size()), untraced),
               "ratio");

    const std::string path =
        strprintf(".bench_work/trace-%s.json", run_id.c_str());
    if (tracer.writeChromeJson(path))
        std::printf("trace: %zu of %zu spans written to %s\n",
                    std::min(spans.size(), Tracer::MaxWrittenSpans),
                    spans.size(), path.c_str());
    else
        tally.errors.push_back("cannot write " + path);
    for (const std::string &e : sanityErrors(layers))
        tally.errors.push_back("sanity: " + e);
}

int
run(Config cfg)
{
    const std::string run_id = strprintf(
        "%s-seed%llu-%s", cfg.workload.c_str(),
        static_cast<unsigned long long>(cfg.seed),
        cfg.trace ? "traced" : "untraced");
    cfg.workDir = strprintf(".bench_work/%s-%d", run_id.c_str(),
                            static_cast<int>(getpid()));

    std::printf("perfbench: workload %s, seed %llu, %g s, trace %d\n",
                cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed), cfg.seconds,
                cfg.trace ? 1 : 0);
    std::printf("host: %s, jit::hostSupported() = %s\n",
                risc1::jit::hostArchName(),
                risc1::jit::hostSupported() ? "true" : "false");
    if (cfg.workload == "campaign_jit" && !risc1::jit::hostSupported()) {
        // Measuring interpreted blocks under the JIT's name would be a
        // lie; the workload does not exist on this host.
        std::printf("campaign_jit: unsupported on %s (no JIT templates)\n",
                    risc1::jit::hostArchName());
        return 3;
    }
    std::filesystem::create_directories(cfg.workDir);

    std::unique_ptr<Workload> wl = makeWorkload(cfg);
    std::printf("engine: %s, compute threads: %u, grid: %u injections x "
                "%zu programs\n",
                activeEngineName().c_str(), wl->threads(), cfg.injections,
                risc1::workloads::allWorkloads().size());
    std::fflush(stdout);

    Tally tally;
    MetricSet e2e, layers;
    std::vector<Prepared> suite;
    if (cfg.trace)
        measureLayers(cfg, run_id, *wl, suite, layers, tally);
    else
        measureEndToEnd(cfg, *wl, suite, e2e, tally);
    modelCheck(suite, tally.errors);
    if (const unsigned bad = baselineFailures(suite))
        tally.errors.push_back(
            strprintf("%u baselines missed the oracle", bad));
    wl->tearDown();
    wl.reset();
    std::filesystem::remove_all(cfg.workDir);

    e2e.add("peak_rss_mb", peakRssMb(), "MiB");
    const std::string metrics =
        cfg.trace ? metricsJson(PerLayer, layers, tally.errors)
                  : metricsJson(EndToEnd, e2e, tally.errors);
    // Each gate or sanity error is one more failed operation.
    const unsigned attempted = tally.attempted;
    const unsigned failed =
        std::min(attempted, tally.failed + unsigned(tally.errors.size()));
    if (cfg.trace)
        printMetrics("per-layer metrics (traced run)", layers);
    printMetrics("end-to-end metrics", e2e);
    std::printf("  %-34s %14.6g ratio  (%u of %u operations)\n",
                "failed_frac",
                attempted ? double(failed) / double(attempted) : 1.0, failed,
                attempted);
    for (const std::string &e : tally.errors)
        std::printf("ERROR %s\n", e.c_str());

    const bool correct = tally.errors.empty() && attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", std::max(attempted, 1u),
                std::max(failed, correct ? 0u : 1u), metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Args args = parseArgs(argc, argv);
    if (!args.error.empty()) {
        std::fprintf(stderr, "perfbench: %s\n", args.error.c_str());
        return 2;
    }
    if (args.selfTest)
        return selfTest();
    try {
        return run(args.cfg);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "perfbench: %s\n", err.what());
        return 1;
    }
}
