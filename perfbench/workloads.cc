/**
 * @file
 * Workload set-up (assemble, image, checked baselines), engine
 * selection, and the four timed workloads: the default-engine campaign,
 * the JIT campaign, the recovering campaign on a loopback fleet, and
 * the serial evaluation report. Each workload also carries its own
 * correctness gate, run outside the timed phase.
 */

#include <filesystem>
#include <map>
#include <thread>
#include <tuple>

#include "bench.hh"
#include "core/calltrace.hh"
#include "core/fleet.hh"
#include "core/fleetnet.hh"
#include "jit/arena.hh"
#include "support/logging.hh"
#include "workloads/workload.hh"

namespace perfbench {

namespace core = risc1::core;
namespace sim = risc1::sim;
namespace fs = std::filesystem;
using risc1::strprintf;

// ---- set-up ----------------------------------------------------------------

std::vector<Prepared>
prepareSuite(const sim::CpuOptions &opts, Tracer *tracer)
{
    std::vector<Prepared> suite;
    for (const auto &wl : risc1::workloads::allWorkloads()) {
        Prepared p;
        p.wl = &wl;
        {
            Span span(tracer, "asm", "workloads::buildRisc");
            const Clock::time_point t0 = Clock::now();
            p.program = risc1::workloads::buildRisc(wl, wl.defaultScale);
            p.assembleSeconds = secondsSince(t0);
        }
        {
            Span span(tracer, "sim.image", "ProgramImage::ProgramImage");
            const Clock::time_point t0 = Clock::now();
            p.image = std::make_shared<const sim::ProgramImage>(p.program);
            p.imageSeconds = secondsSince(t0);
        }
        p.expected = wl.expected(wl.defaultScale);
        std::unique_ptr<sim::Cpu> cpu;
        {
            Span span(tracer, "sim.cpu", "Cpu::Cpu");
            cpu = std::make_unique<sim::Cpu>(opts);
        }
        {
            Span span(tracer, "sim.load", "Cpu::load(ProgramImage)");
            cpu->load(*p.image);
        }
        {
            Span span(tracer, "sim.run", "Cpu::run");
            p.base = cpu->run();
        }
        p.ok = p.base.halted() &&
               cpu->memory().peek32(risc1::workloads::ResultAddr) ==
                   p.expected;
        suite.push_back(std::move(p));
    }
    return suite;
}

unsigned
baselineFailures(const std::vector<Prepared> &suite)
{
    unsigned bad = 0;
    for (const Prepared &p : suite)
        bad += p.ok ? 0 : 1;
    return bad;
}

// ---- engines -----------------------------------------------------------------

EngineScope::EngineScope(const std::string &name)
    : previous_(selectedEngineName())
{
    if (!core::setCampaignEngine(name))
        risc1::fatal("perfbench: unknown engine %s", name.c_str());
    core::setCampaignJitChain(true);
}

EngineScope::~EngineScope()
{
    core::setCampaignEngine(previous_);
}

std::string
selectedEngineName()
{
    const sim::CpuOptions o = core::campaignCpuOptions();
    if (!o.predecode)
        return "ref";
    if (!o.superblock)
        return "threaded";
    return o.jit ? "jit" : "superblock";
}

std::string
activeEngineName()
{
    const std::string name = selectedEngineName();
    return name == "jit" && !risc1::jit::hostSupported() ? "superblock"
                                                         : name;
}

sim::CpuOptions
engineOptions(const std::string &name)
{
    EngineScope scope(name);
    return core::campaignCpuOptions();
}

// ---- canonical rows ------------------------------------------------------------

namespace {

template <typename T>
void
putBytes(std::string &out, const T &value)
{
    out.append(reinterpret_cast<const char *>(&value), sizeof value);
}

} // namespace

std::string
rowBytes(const std::vector<core::FaultCampaignRow> &rows)
{
    std::string out;
    for (const core::FaultCampaignRow &r : rows) {
        out += r.name;
        out += '\0';
        putBytes(out, r.injections);
        putBytes(out, r.byOutcome);
        putBytes(out, r.baselineInsts);
        putBytes(out, r.recovered);
        putBytes(out, r.checkpoints);
        putBytes(out, r.replayedInsts);
        putBytes(out, r.byTarget);
        putBytes(out, r.recoveredByTarget);
    }
    return out;
}

std::vector<std::string>
tallyErrors(const std::vector<core::FaultCampaignRow> &rows)
{
    std::vector<std::string> errors;
    for (const core::FaultCampaignRow &r : rows) {
        unsigned sum = 0, by_target = 0;
        for (unsigned c = 0; c < core::NumFaultOutcomes; ++c)
            sum += r.byOutcome[c];
        for (unsigned t = 0; t < core::NumFaultTargets; ++t)
            by_target += r.targetInjections(t);
        if (sum != r.injections || by_target != r.injections)
            errors.push_back(strprintf(
                "%s: tallies sum to %u (by outcome) and %u (by target), "
                "not %u injections",
                r.name.c_str(), sum, by_target, r.injections));
    }
    return errors;
}

std::string
rowsDiff(const std::vector<core::FaultCampaignRow> &got,
         const std::vector<core::FaultCampaignRow> &want)
{
    if (got.size() != want.size())
        return strprintf("%zu rows, expected %zu", got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
        if (rowBytes({got[i]}) != rowBytes({want[i]}))
            return "row " + got[i].name + " differs";
    return "";
}

void
perturbRows(std::vector<core::FaultCampaignRow> &rows)
{
    // Move one run from one class to another: the sum still matches,
    // so only the comparison against an independent result catches it.
    core::FaultCampaignRow &row = rows.front();
    const unsigned from = row.byOutcome[0] ? 0 : 1;
    const unsigned to = (from + 1) % core::NumFaultOutcomes;
    --row.byOutcome[from];
    ++row.byOutcome[to];
}

// ---- the workloads ------------------------------------------------------------------

namespace {

/** Shared repetition bookkeeping of the three campaign workloads. */
Rep
campaignRep(const std::vector<core::FaultCampaignRow> &rows, double wall,
            double cpu)
{
    Rep rep;
    rep.wall = wall;
    rep.cpu = cpu;
    for (const core::FaultCampaignRow &r : rows)
        rep.attempted += r.injections;
    for (const core::FaultCampaignRow &r : rows)
        if (!tallyErrors({r}).empty())
            rep.failed += r.injections;
    rep.output = rowBytes(rows);
    return rep;
}

/**
 * `campaign` and `campaign_jit`: core::faultCampaign on the streaming
 * path with `threads` jobs, under one engine. The gate reruns the same
 * grid under a second engine and requires byte-identical rows.
 */
class CampaignWorkload : public Workload
{
  public:
    CampaignWorkload(const Config &cfg, const std::string &engine,
                     const std::string &other_engine)
        : cfg_(cfg), scope_(engine), otherEngine_(other_engine)
    {}

    unsigned threads() const override { return cfg_.threads; }

    Rep
    repeat(Tracer *tracer) override
    {
        Span span(tracer, "core.parallel", "core::faultCampaign");
        const Stopwatch watch;
        std::vector<core::FaultCampaignRow> rows = core::faultCampaign(
            cfg_.injections, cfg_.seed, cfg_.threads, true);
        const auto [wall, cpu] = watch.stop();
        if (first_.empty()) {
            if (cfg_.perturb)
                perturbRows(rows);
            first_ = rows;
        }
        return campaignRep(rows, wall, cpu);
    }

    std::vector<std::string>
    gate() override
    {
        std::vector<std::string> errors = tallyErrors(first_);
        std::vector<core::FaultCampaignRow> other;
        {
            EngineScope other_scope(otherEngine_);
            other = core::faultCampaign(cfg_.injections, cfg_.seed,
                                        cfg_.threads, true);
        }
        const std::string diff = rowsDiff(first_, other);
        if (!diff.empty())
            errors.push_back("rows differ from the " + otherEngine_ +
                             " engine: " + diff);
        return errors;
    }

    const std::vector<core::FaultCampaignRow> *
    rows() const override
    {
        return &first_;
    }

  private:
    Config cfg_;
    EngineScope scope_;
    std::string otherEngine_;
    std::vector<core::FaultCampaignRow> first_;
};

/** Shards of the fleet campaign grid. */
constexpr uint64_t FleetShards = 32;

/**
 * `fleet_recover`: the recovering campaign through core::runFleet over
 * an in-process RemotePool served by `threads` loopback workers, each
 * running runFleetWorker with one job, into a fresh cache directory per
 * repetition.
 */
class FleetWorkload : public Workload
{
  public:
    explicit FleetWorkload(const Config &cfg) : cfg_(cfg), scope_("superblock")
    {
        recovery_.enabled = true;
        recovery_.checkpointInterval = cfg_.checkpointInterval;
    }

    ~FleetWorkload() override { tearDown(); }

    unsigned threads() const override { return cfg_.threads; }

    void
    setUp(Tracer *tracer) override
    {
        Span span(tracer, "core.fleet", "RemotePool+runFleetWorker");
        pool_ = std::make_unique<core::RemotePool>();
        const uint16_t port = pool_->port();
        for (unsigned i = 0; i < cfg_.threads; ++i)
            workers_.emplace_back([port] {
                try {
                    core::runFleetWorker("127.0.0.1", port, 1);
                } catch (const std::exception &err) {
                    risc1::warn("perfbench worker: %s", err.what());
                }
            });
        const Clock::time_point t0 = Clock::now();
        while (pool_->connectedWorkers() < cfg_.threads) {
            if (secondsSince(t0) > 20)
                risc1::fatal("perfbench: fleet workers did not connect");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }

    void
    tearDown() override
    {
        if (pool_)
            pool_->shutdown();
        for (std::thread &t : workers_)
            t.join();
        workers_.clear();
        pool_.reset();
    }

    Rep
    repeat(Tracer *tracer) override
    {
        const std::string dir =
            strprintf("%s/fleet-cache-%u", cfg_.workDir.c_str(), reps_++);
        fs::remove_all(dir);
        core::FleetResult res;
        const Stopwatch watch;
        {
            Span span(tracer, "core.fleet", "core::runFleet");
            res = core::runFleet(fleetOptions(dir));
        }
        const auto [wall, cpu] = watch.stop();
        walls_.push_back(wall);
        if (first_.empty()) {
            if (cfg_.perturb)
                perturbRows(res.rows);
            first_ = res.rows;
            stats_ = res.stats;
        }
        // Keep the newest complete cache for the warm-resume probe.
        if (!lastCache_.empty())
            fs::remove_all(lastCache_);
        lastCache_ = dir;

        Rep rep = campaignRep(res.rows, wall, cpu);
        const core::FleetStats &st = res.stats;
        rep.attempted = st.shards;
        rep.failed = std::min<unsigned>(
            st.shards, (rep.failed ? st.shards : 0) + st.retries +
                           st.inProcessShards + st.quarantinedWorkers +
                           st.rejectedCache + (st.halted ? st.shards : 0));
        return rep;
    }

    std::vector<std::string>
    gate() override
    {
        std::vector<std::string> errors = tallyErrors(first_);
        const Clock::time_point t0 = Clock::now();
        const std::vector<core::FaultCampaignRow> ref = core::faultCampaign(
            cfg_.injections, cfg_.seed, cfg_.threads, true, recovery_);
        inProcessWall_ = secondsSince(t0);
        const std::string diff = rowsDiff(first_, ref);
        if (!diff.empty())
            errors.push_back(
                "fleet rows differ from in-process faultCampaign: " + diff);
        return errors;
    }

    const std::vector<core::FaultCampaignRow> *
    rows() const override
    {
        return &first_;
    }
    bool recovers() const override { return true; }
    core::RemotePool *pool() override { return pool_.get(); }

    void
    layerMetrics(MetricSet &out, Tracer *tracer) override
    {
        out.add("fleet.shards", stats_.shards, "count");
        out.add("fleet.remote_shards", stats_.remoteShards, "count");
        out.add("fleet.in_process_shards", stats_.inProcessShards, "count");
        out.add("fleet.retries", stats_.retries, "count");
        out.add("fleet.rejected_cache", stats_.rejectedCache, "count");
        out.add("fleet.quarantined", stats_.quarantinedWorkers, "count");
        if (inProcessWall_ > 0)
            out.add("fleet.overhead_s", trimmedMean(walls_) - inProcessWall_,
                    "s");
        if (!lastCache_.empty()) {
            Span span(tracer, "core.fleet", "core::runFleet(warm)");
            const Clock::time_point t0 = Clock::now();
            const core::FleetResult warm =
                core::runFleet(fleetOptions(lastCache_));
            out.add("fleet.resume_s", secondsSince(t0), "s");
            out.add("fleet.resume_cached_shards", warm.stats.cachedShards,
                    "count");
        }
    }

  private:
    core::FleetOptions
    fleetOptions(const std::string &dir) const
    {
        core::FleetOptions o;
        o.injections = cfg_.injections;
        o.seed = cfg_.seed;
        o.workers = cfg_.threads;
        o.jobsPerWorker = 1;
        // Small shards keep the two workers evenly loaded: with a few
        // large ones the last shard alone sets the campaign's wall.
        const uint64_t slots =
            uint64_t{risc1::workloads::allWorkloads().size()} *
            cfg_.injections;
        o.shardSlots = (slots + FleetShards - 1) / FleetShards;
        o.cacheDir = dir;
        o.streaming = true;
        o.recovery = recovery_;
        o.pool = pool_.get();
        return o;
    }

    Config cfg_;
    EngineScope scope_;
    core::RecoveryOptions recovery_;
    std::unique_ptr<core::RemotePool> pool_;
    std::vector<std::thread> workers_;
    unsigned reps_ = 0;
    std::vector<double> walls_;
    std::string lastCache_;
    std::vector<core::FaultCampaignRow> first_;
    core::FleetStats stats_;
    double inProcessWall_ = 0;
};

/** One make_report section: its driver, run at a job count. */
struct ReportDriver
{
    const char *name;
    std::string (*run)(unsigned jobs);
};

const std::vector<ReportDriver> &
reportDrivers()
{
    static const std::vector<ReportDriver> drivers = {
        {"e3_call_overhead",
         [](unsigned j) {
             return core::callOverheadTable(core::callOverhead(6, 2000, j));
         }},
        {"e4_code_size",
         [](unsigned j) { return core::codeSizeTable(core::codeSize(j)); }},
        {"e5_exec_time",
         [](unsigned j) {
             const auto rows = core::execTime(j);
             std::string out = core::execTimeTable(rows);
             for (const auto &r : rows)
                 if (!r.resultsMatch)
                     out += "MISMATCH " + r.name + "\n";
             return out;
         }},
        {"e6_window_sweep",
         [](unsigned j) {
             return core::windowSweepTable(
                 core::windowSweep({2, 4, 6, 8, 12, 16}, j));
         }},
        {"e6_synthetic_sweep",
         [](unsigned) {
             return core::syntheticWindowSweepTable(
                 core::syntheticWindowSweep({2, 4, 6, 8, 12, 16}));
         }},
        {"e7_mem_traffic",
         [](unsigned j) {
             return core::memTrafficTable(core::memTraffic(j));
         }},
        {"e8_instr_mix",
         [](unsigned j) { return core::instrMixTable(core::instrMix(j)); }},
        {"a2_immediates",
         [](unsigned j) {
             return core::immediateUsageTable(core::immediateUsage(j));
         }},
        {"e9_delay_slots",
         [](unsigned j) {
             return core::delaySlotTable(core::delaySlots(j));
         }},
        {"a1_window_ablation",
         [](unsigned j) {
             return core::windowAblationTable(core::windowAblation(j));
         }},
    };
    return drivers;
}

/**
 * `report`: every make_report driver called serially with one job, as
 * the report binary does. The gate recomputes every section with
 * `threads` jobs, which must render byte-identical tables.
 */
class ReportWorkload : public Workload
{
  public:
    explicit ReportWorkload(const Config &cfg) : cfg_(cfg), scope_("superblock")
    {}

    unsigned threads() const override { return 1; }

    Rep
    repeat(Tracer *tracer) override
    {
        Rep rep;
        const Stopwatch watch;
        std::vector<std::string> sections;
        for (const ReportDriver &d : reportDrivers()) {
            Span span(tracer, "core.experiments", d.name);
            const Clock::time_point d0 = Clock::now();
            sections.push_back(d.run(1));
            driverSeconds_[d.name].push_back(secondsSince(d0));
        }
        std::tie(rep.wall, rep.cpu) = watch.stop();
        if (first_.empty()) {
            if (cfg_.perturb)
                sections.front() += "perturbed\n";
            first_ = sections;
        }
        rep.attempted = static_cast<unsigned>(sections.size());
        for (const std::string &s : sections) {
            rep.output += s;
            if (s.find("MISMATCH") != std::string::npos)
                ++rep.failed;
        }
        return rep;
    }

    std::vector<std::string>
    gate() override
    {
        std::vector<std::string> errors;
        const auto &drivers = reportDrivers();
        for (size_t i = 0; i < drivers.size(); ++i) {
            const std::string again = drivers[i].run(cfg_.threads);
            if (again != first_[i])
                errors.push_back(strprintf(
                    "%s: table at %u jobs differs from the serial one",
                    drivers[i].name, cfg_.threads));
            if (first_[i].find("MISMATCH") != std::string::npos)
                errors.push_back(std::string(drivers[i].name) +
                                 ": RISC and vax80 results disagree");
        }
        return errors;
    }

    void
    layerMetrics(MetricSet &out, Tracer *) override
    {
        for (const ReportDriver &d : reportDrivers())
            out.add(strprintf("report.%s_s", d.name),
                    median(driverSeconds_[d.name]), "s");
    }

  private:
    Config cfg_;
    EngineScope scope_;
    std::vector<std::string> first_;
    std::map<std::string, std::vector<double>> driverSeconds_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "campaign", "campaign_jit", "fleet_recover", "report"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const Config &cfg)
{
    if (cfg.workload == "campaign")
        return std::make_unique<CampaignWorkload>(
            cfg, "superblock",
            risc1::jit::hostSupported() ? "jit" : "threaded");
    if (cfg.workload == "campaign_jit")
        return std::make_unique<CampaignWorkload>(cfg, "jit", "superblock");
    if (cfg.workload == "fleet_recover")
        return std::make_unique<FleetWorkload>(cfg);
    if (cfg.workload == "report")
        return std::make_unique<ReportWorkload>(cfg);
    return nullptr;
}

} // namespace perfbench
