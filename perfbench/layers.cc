/**
 * @file
 * The traced run's layer measurements: the shadow campaign (the
 * campaign grid replayed from public per-run calls, one span around
 * each) and the layer probes every workload shares.
 */

#include <atomic>
#include <exception>
#include <filesystem>
#include <mutex>
#include <thread>

#include "bench.hh"
#include "core/fleet.hh"
#include "net/frame.hh"
#include "net/transport.hh"
#include "sim/faultinject.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "vax/cpu.hh"
#include "workloads/workload.hh"

namespace perfbench {

namespace core = risc1::core;
namespace sim = risc1::sim;
using risc1::strprintf;

namespace {

/** Per-run RNG seed, as core::faultCampaign derives it. */
uint64_t
runSeed(uint64_t seed, uint64_t workload, uint64_t run)
{
    uint64_t s = seed;
    s = s * 0x9e3779b97f4a7c15ull + workload + 1;
    s = s * 0x9e3779b97f4a7c15ull + run + 1;
    return s;
}

/** Outcome class of a finished run, as core::faultCampaign judges it. */
core::FaultOutcome
classify(const sim::ExecResult &result, uint32_t got, uint32_t expected)
{
    switch (result.reason) {
      case sim::StopReason::Halted:
        return got == expected ? core::FaultOutcome::Masked
                               : core::FaultOutcome::Sdc;
      case sim::StopReason::Fault:
        return core::FaultOutcome::DetectedTrap;
      default:
        return core::FaultOutcome::WatchdogHang;
    }
}

/** Microseconds `fn()` takes on the steady clock. */
template <typename Fn>
double
timeUs(Fn &&fn)
{
    const Clock::time_point t0 = Clock::now();
    fn();
    return secondsSince(t0) * 1e6;
}

/** Operations per timed batch of a layer probe. */
constexpr unsigned Batch = 8;

/**
 * Mean microseconds per call over a batch of Batch calls to `fn()`:
 * sub-microsecond calls are timed far above the clock's resolution.
 */
template <typename Fn>
double
batchUs(Fn &&fn)
{
    return timeUs([&] {
               for (unsigned i = 0; i < Batch; ++i)
                   fn();
           }) /
           Batch;
}

/** What one shadow run reports back. */
struct SlotOut
{
    core::FaultOutcome outcome = core::FaultOutcome::Masked;
    uint8_t target = 0;
    bool recovered = false;
    uint32_t checkpoints = 0;
    uint64_t replayed = 0;
    uint64_t insts = 0;     //!< guest instructions retired, replay included
    size_t jitBytes = 0;    //!< native code held at the end of the run
    size_t jitPatches = 0;  //!< live chain patches at the end of the run
    double seconds = 0;     //!< wall of the whole run
};

/** Per-thread timing samples of the shadow campaign, in microseconds. */
struct ShadowSamples
{
    std::vector<double> cpuNew, loadImage, toPoint, apply, after, capture,
        restore;

    void
    merge(const ShadowSamples &o)
    {
        const auto cat = [](std::vector<double> &a,
                            const std::vector<double> &b) {
            a.insert(a.end(), b.begin(), b.end());
        };
        cat(cpuNew, o.cpuNew);
        cat(loadImage, o.loadImage);
        cat(toPoint, o.toPoint);
        cat(apply, o.apply);
        cat(after, o.after);
        cat(capture, o.capture);
        cat(restore, o.restore);
    }
};

/**
 * One grid slot: core::faultCampaign's per-run body spelled out call by
 * call, so each public call gets its own span and timing sample.
 */
SlotOut
shadowSlot(const Prepared &p, const sim::CpuOptions &opts, uint64_t seed,
           size_t w, uint64_t r, bool recovery, uint64_t interval,
           Tracer &tr, ShadowSamples &smp)
{
    const Clock::time_point t0 = Clock::now();
    SlotOut out;
    risc1::Rng rng(runSeed(seed, w, r));
    sim::Injection inj;
    {
        Span s(&tr, "sim.faultinject", "drawInjection");
        inj = sim::drawInjection(rng, p.base.instructions);
    }
    out.target = static_cast<uint8_t>(inj.target);
    std::unique_ptr<sim::Cpu> cpu;
    smp.cpuNew.push_back(timeUs([&] {
        Span s(&tr, "sim.cpu", "Cpu::Cpu");
        cpu = std::make_unique<sim::Cpu>(opts);
    }));
    smp.loadImage.push_back(timeUs([&] {
        Span s(&tr, "sim.load", "Cpu::load(ProgramImage)");
        cpu->load(*p.image);
    }));

    // Recovery pauses at every multiple of `interval` retired
    // instructions to snapshot; without it one segment reaches the
    // injection point and one runs to the end.
    const uint64_t K = interval;
    sim::Snapshot ckpt;
    uint64_t ckpt_at = 0;
    const auto capture = [&] {
        smp.capture.push_back(timeUs([&] {
            Span s(&tr, "sim.snapshot", "Cpu::snapshot");
            ckpt = cpu->snapshot();
        }));
        ckpt_at = cpu->stats().instructions;
    };
    const auto nextStop = [&](uint64_t cap) {
        if (!recovery)
            return cap;
        return std::min((cpu->stats().instructions / K + 1) * K, cap);
    };
    if (recovery)
        capture();

    sim::ExecResult result;
    bool finished = false;
    double to_point = 0;
    while (!finished && cpu->stats().instructions < inj.atInstruction) {
        sim::ExecResult seg;
        to_point += timeUs([&] {
            Span s(&tr, "sim.faultinject", "Cpu::runUntil(to point)");
            seg = cpu->runUntil(nextStop(inj.atInstruction));
        });
        if (seg.reason != sim::StopReason::Paused) {
            result = seg;
            finished = true; // ended before the injection landed
        } else if (recovery && cpu->stats().instructions % K == 0) {
            capture();
            ++out.checkpoints;
        }
    }
    smp.toPoint.push_back(to_point);
    if (!finished) {
        smp.apply.push_back(timeUs([&] {
            Span s(&tr, "sim.faultinject", "applyInjection");
            sim::applyInjection(*cpu, rng, inj);
        }));
        double after = 0;
        while (!finished) {
            sim::ExecResult seg;
            after += timeUs([&] {
                Span s(&tr, "sim.faultinject", "Cpu::run(after)");
                seg = recovery ? cpu->runUntil(nextStop(UINT64_MAX))
                               : cpu->run();
            });
            if (seg.reason != sim::StopReason::Paused) {
                result = seg;
                finished = true;
            } else {
                capture();
                ++out.checkpoints;
            }
        }
        smp.after.push_back(after);
    }

    out.outcome = classify(
        result, cpu->memory().peek32(risc1::workloads::ResultAddr),
        p.expected);
    out.insts = cpu->stats().instructions;
    if (recovery && (out.outcome == core::FaultOutcome::DetectedTrap ||
                     out.outcome == core::FaultOutcome::WatchdogHang)) {
        smp.restore.push_back(timeUs([&] {
            Span s(&tr, "sim.snapshot", "Cpu::restore");
            cpu->restore(ckpt);
        }));
        sim::ExecResult rerun;
        {
            Span s(&tr, "sim.run", "Cpu::run(replay)");
            rerun = cpu->run();
        }
        out.replayed = cpu->stats().instructions - ckpt_at;
        out.insts += out.replayed;
        out.recovered =
            rerun.halted() &&
            cpu->memory().peek32(risc1::workloads::ResultAddr) == p.expected;
    }
    out.jitBytes = cpu->jitCodeBytes();
    out.jitPatches = cpu->jitChainPatches();
    out.seconds = secondsSince(t0);
    return out;
}

void
addPercentiles(MetricSet &out, const std::string &name,
               const std::vector<double> &v, const std::string &unit)
{
    out.add(name + ".p50", percentile(v, 50), unit);
    out.add(name + ".p99", percentile(v, 99), unit);
}

} // namespace

ShadowResult
shadowCampaign(const Config &cfg, const std::vector<Prepared> &suite,
               unsigned injections, bool recovery, Tracer &tracer)
{
    ShadowResult res;
    const sim::CpuOptions campaign_opts = core::campaignCpuOptions();
    std::vector<sim::CpuOptions> opts(suite.size(), campaign_opts);
    res.rows.resize(suite.size());
    for (size_t w = 0; w < suite.size(); ++w) {
        // The same livelock budget core::faultCampaign gives each run.
        opts[w].watchdogCycles = suite[w].base.cycles * 8 + 100'000;
        res.rows[w].name = suite[w].wl->name;
        res.rows[w].injections = injections;
        res.rows[w].baselineInsts = suite[w].base.instructions;
    }

    const size_t total = suite.size() * injections;
    std::vector<SlotOut> outs(total);
    std::vector<ShadowSamples> samples(cfg.threads);
    std::atomic<size_t> next{0};
    const Clock::time_point t0 = Clock::now();
    {
        // Worker spans hang off the caller's open span; the caller only
        // waits, so it gets no span of its own to inflate self time.
        const uint64_t parent = tracer.current();
        std::mutex error_mutex;
        std::exception_ptr error;
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < cfg.threads; ++t)
            threads.emplace_back([&, t] {
                try {
                    Span worker(&tracer, "core.parallel", "shadow worker",
                                parent);
                    for (size_t i; (i = next.fetch_add(1)) < total;) {
                        const size_t w = i / injections;
                        outs[i] = shadowSlot(suite[w], opts[w], cfg.seed, w,
                                             i % injections, recovery,
                                             cfg.checkpointInterval, tracer,
                                             samples[t]);
                    }
                } catch (...) {
                    std::lock_guard<std::mutex> lock(error_mutex);
                    if (!error)
                        error = std::current_exception();
                }
            });
        for (std::thread &t : threads)
            t.join();
        if (error)
            std::rethrow_exception(error);
    }
    res.wall = secondsSince(t0);

    ShadowSamples all;
    for (const ShadowSamples &s : samples)
        all.merge(s);
    uint64_t insts = 0, checkpoints = 0, replayed = 0, jit_bytes = 0,
             jit_patches = 0;
    unsigned detected = 0, recovered = 0;
    double seconds = 0, hang_seconds = 0;
    unsigned by_outcome[core::NumFaultOutcomes] = {};
    for (size_t i = 0; i < total; ++i) {
        const SlotOut &o = outs[i];
        core::FaultCampaignRow &row = res.rows[i / injections];
        const unsigned c = static_cast<unsigned>(o.outcome);
        ++row.byOutcome[c];
        ++row.byTarget[o.target][c];
        if (o.recovered) {
            ++row.recovered[c];
            ++row.recoveredByTarget[o.target][c];
        }
        row.checkpoints += o.checkpoints;
        row.replayedInsts += o.replayed;
        ++by_outcome[c];
        insts += o.insts;
        checkpoints += o.checkpoints;
        replayed += o.replayed;
        jit_bytes += o.jitBytes;
        jit_patches += o.jitPatches;
        seconds += o.seconds;
        if (o.outcome == core::FaultOutcome::WatchdogHang)
            hang_seconds += o.seconds;
        if (o.outcome == core::FaultOutcome::DetectedTrap ||
            o.outcome == core::FaultOutcome::WatchdogHang)
            ++detected;
        recovered += o.recovered ? 1 : 0;
    }

    MetricSet &m = res.metrics;
    addPercentiles(m, "cpu.new_us", all.cpuNew, "us");
    addPercentiles(m, "load.image_us", all.loadImage, "us");
    addPercentiles(m, "inject.to_point_us", all.toPoint, "us");
    addPercentiles(m, "inject.apply_us", all.apply, "us");
    addPercentiles(m, "inject.after_us", all.after, "us");
    m.add("outcome.masked", by_outcome[0], "count");
    m.add("outcome.sdc", by_outcome[1], "count");
    m.add("outcome.trap", by_outcome[2], "count");
    m.add("outcome.hang", by_outcome[3], "count");
    m.add("outcome.hang_time_frac", seconds > 0 ? hang_seconds / seconds : 0,
          "ratio");
    m.add("jit.code_bytes", total ? double(jit_bytes) / total : 0, "bytes");
    m.add("jit.chain_patches", total ? double(jit_patches) / total : 0,
          "count");
    m.add("jit.code_bytes_per_kinst",
          insts ? double(jit_bytes) / (double(insts) / 1000) : 0,
          "bytes/kinst");
    m.add("shadow.runs", double(total), "count");
    m.add("shadow.guest_insts", double(insts), "count");
    m.add("snapshot.count", double(checkpoints), "count");
    m.add("recover.replayed_insts", double(replayed), "count");
    m.add("recover.recovered_frac", detected ? double(recovered) / detected : 0,
          "ratio");
    if (recovery) {
        addPercentiles(m, "snapshot.capture_us", all.capture, "us");
        m.add("snapshot.restore_us.p50", percentile(all.restore, 50), "us");
    }
    return res;
}

void
probeLayers(const Config &cfg, const std::vector<Prepared> &suite,
            const std::vector<core::FaultCampaignRow> &rows,
            core::RemotePool *pool, Tracer &tr, MetricSet &out,
            std::vector<std::string> &errors)
{
    const sim::CpuOptions opts = core::campaignCpuOptions();
    constexpr unsigned Rounds = 3;

    // asm and sim.image: the set-up's own timings.
    double asm_s = 0, image_s = 0, src_bytes = 0, pages = 0, ops = 0;
    for (const Prepared &p : suite) {
        asm_s += p.assembleSeconds;
        image_s += p.imageSeconds;
        src_bytes += double(p.wl->riscSource(p.wl->defaultScale).size());
        pages += double(p.image->pages().size());
        ops += double(p.image->decoded().size());
    }
    out.add("asm.assemble_s", asm_s, "s");
    out.add("asm.src_bytes", src_bytes, "bytes");
    out.add("image.build_s", image_s, "s");
    out.add("image.pages", pages, "count");
    out.add("image.decoded_ops", ops, "count");

    // sim.cpu: construction cost of each engine.
    for (const char *engine : {"threaded", "superblock", "jit"}) {
        const sim::CpuOptions eo = engineOptions(engine);
        std::vector<double> us;
        for (unsigned i = 0; i < 20 * Rounds; ++i) {
            Span s(&tr, "sim.cpu", "Cpu::Cpu (batch)");
            us.push_back(batchUs([&] { sim::Cpu cpu(eo); }));
        }
        out.add(strprintf("cpu.new_us.%s.p50", engine), percentile(us, 50),
                "us");
    }

    // sim.load and sim.run: eager program loads, then fresh runs (new
    // Cpu, attach the image, run) and warm runs (the same image
    // reloaded into the Cpu that just ran it).
    std::vector<double> load_prog, fresh_us;
    double fresh_s = 0, warm_s = 0, fresh_insts = 0, warm_insts = 0;
    sim::SimStats sb; // engine counters summed over one fresh round
    for (unsigned round = 0; round < Rounds; ++round) {
        for (const Prepared &p : suite) {
            {
                sim::Cpu eager(opts);
                Span s(&tr, "sim.load", "Cpu::load(Program) (batch)");
                load_prog.push_back(
                    batchUs([&] { eager.load(p.program); }));
            }
            sim::Cpu cpu(opts);
            {
                Span s(&tr, "sim.load", "Cpu::load(ProgramImage)");
                cpu.load(*p.image);
            }
            const double us = timeUs([&] {
                Span s(&tr, "sim.run", "Cpu::run(fresh)");
                cpu.run();
            });
            fresh_us.push_back(us);
            fresh_s += us / 1e6;
            fresh_insts += double(cpu.stats().instructions);
            if (round == 0) {
                const sim::SimStats &st = cpu.stats();
                sb.sbDispatches += st.sbDispatches;
                sb.sbInstructions += st.sbInstructions;
                sb.sbBlocksFormed += st.sbBlocksFormed;
                sb.sbBlocksDemoted += st.sbBlocksDemoted;
                sb.sbChained += st.sbChained;
            }
            {
                Span s(&tr, "sim.load", "Cpu::load(ProgramImage)");
                cpu.load(*p.image);
            }
            warm_s += timeUs([&] {
                          Span s(&tr, "sim.run", "Cpu::run(warm)");
                          cpu.run();
                      }) /
                      1e6;
            warm_insts += double(cpu.stats().instructions);
        }
    }
    out.add("load.program_us.p50", percentile(load_prog, 50), "us");
    addPercentiles(out, "run.fresh_us", fresh_us, "us");
    out.add("run.fresh_minsts_per_s", fresh_insts / fresh_s / 1e6,
            "Minst/s");
    out.add("run.warm_minsts_per_s", warm_insts / warm_s / 1e6, "Minst/s");
    out.add("sb.blocks_formed", double(sb.sbBlocksFormed), "count");
    out.add("sb.blocks_demoted", double(sb.sbBlocksDemoted), "count");
    out.add("sb.dispatches", double(sb.sbDispatches), "count");
    out.add("sb.chained", double(sb.sbChained), "count");
    out.add("sb.mean_block_len", sb.sbMeanBlockLen(), "insts");
    out.add("sb.demoted_frac",
            sb.sbBlocksFormed ? double(sb.sbBlocksDemoted) /
                                    double(sb.sbBlocksFormed)
                              : 0,
            "ratio");

    // sim.snapshot: capture and restore at each program's midpoint.
    std::vector<double> capture, restore;
    for (const Prepared &p : suite) {
        sim::Cpu cpu(opts);
        cpu.load(*p.image);
        cpu.runUntil(p.base.instructions / 2);
        for (unsigned i = 0; i < Rounds; ++i) {
            sim::Snapshot snap;
            {
                Span s(&tr, "sim.snapshot", "Cpu::snapshot (batch)");
                capture.push_back(batchUs([&] { snap = cpu.snapshot(); }));
            }
            Span s(&tr, "sim.snapshot", "Cpu::restore (batch)");
            restore.push_back(batchUs([&] { cpu.restore(snap); }));
        }
    }
    // A recovering shadow campaign already measured these on its own
    // checkpoints; elsewhere the probe stands in.
    if (!out.has("snapshot.capture_us.p50")) {
        addPercentiles(out, "snapshot.capture_us", capture, "us");
        out.add("snapshot.restore_us.p50", percentile(restore, 50), "us");
    }

    // net and core.fleet cache I/O, on a shard record of `rows`.
    const core::ShardParams params;
    const std::vector<uint8_t> record =
        core::serializeShardRecord(params, rows);
    out.add("fleet.record_bytes", double(record.size()), "bytes");
    std::vector<double> enc, dec, wr, ld;
    auto [tx, rx] = risc1::net::loopbackPair();
    for (unsigned i = 0; i < 10 * Rounds; ++i) {
        std::vector<uint8_t> frame;
        {
            Span s(&tr, "net", "encodeFrame (batch)");
            enc.push_back(batchUs([&] {
                frame = risc1::net::encodeFrame(
                    risc1::net::FrameType::ShardDone, record);
            }));
        }
        // Queue a batch of frames on the socket pair, then time their
        // decode; a batch of a few KB fits the socket buffer.
        for (unsigned b = 0; b < Batch; ++b)
            tx->send(reinterpret_cast<const char *>(frame.data()),
                     frame.size());
        bool intact = true;
        {
            Span s(&tr, "net", "recvFrame (batch)");
            dec.push_back(batchUs([&] {
                const std::optional<risc1::net::Frame> got =
                    risc1::net::recvFrame(*rx);
                intact = intact && got && got->payload == record;
            }));
        }
        if (!intact) {
            errors.push_back("net: a shard record did not survive a frame "
                             "round trip");
            break;
        }
    }
    out.add("net.frame_encode_us", percentile(enc, 50), "us");
    out.add("net.frame_decode_us", percentile(dec, 50), "us");

    const std::string path = cfg.workDir + "/probe.shard";
    for (unsigned i = 0; i < 10 * Rounds; ++i) {
        wr.push_back(timeUs([&] {
            Span s(&tr, "core.fleet", "writeShardFile");
            core::writeShardFile(path, record);
        }));
        std::vector<core::FaultCampaignRow> back;
        ld.push_back(timeUs([&] {
            Span s(&tr, "core.fleet", "loadShardFile");
            back = core::loadShardFile(path, params);
        }));
        if (rowBytes(back) != rowBytes(rows)) {
            errors.push_back("fleet: a shard record did not survive the "
                             "cache");
            break;
        }
    }
    std::filesystem::remove(path);
    out.add("fleet.cache_write_us", percentile(wr, 50), "us");
    out.add("fleet.cache_load_us", percentile(ld, 50), "us");

    // Status round trips against the live pool, or a private idle one.
    std::unique_ptr<core::RemotePool> own;
    if (!pool) {
        own = std::make_unique<core::RemotePool>();
        pool = own.get();
    }
    std::vector<double> rtt;
    for (unsigned i = 0; i < 20 * Rounds; ++i)
        rtt.push_back(timeUs([&] {
                          Span s(&tr, "net", "fetchFleetStatus");
                          core::fetchFleetStatus("127.0.0.1", pool->port());
                      }) /
                      1e3);
    addPercentiles(out, "net.status_rtt_ms", rtt, "ms");
    own.reset();

    // vax: VaxCpu::load + run over the suite.
    double vax_s = 0, vax_insts = 0;
    for (const Prepared &p : suite) {
        const risc1::vax::VaxProgram prog = p.wl->buildVax(p.wl->defaultScale);
        risc1::vax::VaxCpu vcpu;
        sim::ExecResult res;
        vax_s += timeUs([&] {
                     Span s(&tr, "vax", "VaxCpu::load+run");
                     vcpu.load(prog);
                     res = vcpu.run();
                 }) /
                 1e6;
        vax_insts += double(vcpu.stats().instructions);
        if (!res.halted() ||
            vcpu.memory().peek32(risc1::workloads::ResultAddr) != p.expected)
            errors.push_back("vax80 run of " + p.wl->name +
                             " missed the oracle");
    }
    out.add("vax.run_s", vax_s, "s");
    out.add("vax.minsts_per_s", vax_insts / vax_s / 1e6, "Minst/s");
}

} // namespace perfbench
