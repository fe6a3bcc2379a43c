/**
 * @file
 * Shared declarations of the perfbench binary: sample statistics, the
 * metric list a run prints, the in-memory span tracer, the workload set
 * up (assemble, image, checked baselines), the four timed workloads and
 * the correctness gate. Everything here calls the simulator only
 * through its public headers.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/experiments.hh"
#include "core/fleetnet.hh"
#include "sim/cpu.hh"
#include "sim/image.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `start` on the steady clock. */
double secondsSince(Clock::time_point start);

/** User + system CPU seconds of this process (getrusage). */
double processCpuSeconds();

/** Peak resident set of this process in MiB (getrusage). */
double peakRssMb();

/**
 * Wall and CPU time of one phase. The CPU interval is read inside the
 * wall interval, so a single-threaded phase never shows more CPU than
 * wall time.
 */
class Stopwatch
{
  public:
    Stopwatch() : wall0_(Clock::now()), cpu0_(processCpuSeconds()) {}

    /** Stop; returns {wall seconds, CPU seconds}. */
    std::pair<double, double>
    stop() const
    {
        const double cpu = processCpuSeconds() - cpu0_;
        return {secondsSince(wall0_), cpu};
    }

  private:
    Clock::time_point wall0_;
    double cpu0_;
};

/**
 * Rotates the calling thread over the CPUs the process may use: each
 * next() pins it, and every thread it starts afterwards, to `width`
 * consecutive CPUs one further along than the last. Left alone, the
 * scheduler keeps a thread on one vCPU however contended that vCPU's
 * physical core is on a shared host; rotating makes every run sample
 * every vCPU alike. The original mask is restored on destruction.
 */
class CpuRotation
{
  public:
    explicit CpuRotation(unsigned width);
    ~CpuRotation();
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void next();

  private:
    std::vector<int> cpus_; //!< CPUs the process may use
    unsigned width_;
    unsigned step_ = 0;
};

/** What one host-speed calibration took. */
struct Calibration
{
    double wall = 0; //!< steady-clock seconds
    double cpu = 0;  //!< CPU seconds per thread
};

/**
 * Host speed, measured beside every repetition: a fixed interpreter loop
 * in the benchmark's own code, run on `threads` threads at once. On a
 * shared host the speed of the same code drifts by a fifth or more over
 * minutes. Scaling a repetition's wall time by
 * ReferenceCalibrationSeconds ÷ the loop's wall time, and its CPU time
 * by the same ÷ the loop's CPU time per thread, expresses both in
 * seconds of the reference host and cancels that drift. The two differ
 * where the hypervisor runs other guests on our vCPUs: wall time counts
 * that, CPU time does not.
 */
Calibration calibrate(unsigned threads);

/**
 * The loop's wall and per-thread CPU seconds on the reference host (a
 * quiet moment of the 4-vCPU Intel Xeon VM of the first baseline,
 * RelWithDebInfo).
 */
constexpr double ReferenceCalibrationSeconds = 0.08;

// ---- sample statistics --------------------------------------------------

/** Nearest-rank percentile `p` in [0, 100] of `v`; 0 when empty. */
double percentile(std::vector<double> v, double p);

inline double median(const std::vector<double> &v)
{
    return percentile(v, 50);
}

/**
 * Mean of the middle 80% of `v` (a tenth cut from each end); 0 when
 * empty. The end-to-end summary of a run's repetitions: on a shared
 * host whose speed switches between two levels for seconds at a time,
 * a median jumps between the levels while this tracks the share of
 * time spent in each, and the cut ends still drop warm-up outliers.
 */
double trimmedMean(std::vector<double> v);

// ---- the metrics a run prints -------------------------------------------

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Ordered name -> value list, printed as text and as the JSON line. */
class MetricSet
{
  public:
    void add(const std::string &name, double value, const std::string &unit);
    /** Value of `name`; 0 when absent. */
    double get(const std::string &name) const;
    bool has(const std::string &name) const;
    const std::vector<Metric> &all() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
};

/**
 * Highest simulated rate (guest instructions per second of host wall
 * time, in millions) one host thread can plausibly reach: one guest
 * instruction per cycle of a 5 GHz core. A `*_minsts_per_s` above it
 * means a rate was divided by the wrong clock.
 */
constexpr double MaxMinstsPerSecond = 5000;

/**
 * Physical-sanity check of a metric set: every `*_minsts_per_s` must
 * be positive and at most MaxMinstsPerSecond, and `parallel.efficiency`
 * at most 1.0. Returns one message per violation.
 */
std::vector<std::string> sanityErrors(const MetricSet &metrics);

// ---- span tracer ----------------------------------------------------------

/** One closed span, in nanoseconds since the tracer's epoch. */
struct SpanRecord
{
    uint64_t id = 0;
    uint64_t parent = 0; //!< 0 for a root span
    const char *layer = "";
    const char *name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    unsigned thread = 0;
};

/**
 * In-memory span recorder. Spans are kept per thread while the run
 * lasts and written as Chrome trace-event JSON at the end. A null
 * tracer records nothing, so the untraced path pays only a branch.
 */
class Tracer
{
  public:
    explicit Tracer(std::string run_id);
    ~Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Open a span on the calling thread; returns its id. */
    uint64_t begin(const char *layer, const char *name,
                   uint64_t parent_override = 0);
    /** Close the innermost open span of the calling thread. */
    void end();

    /** Innermost open span of the calling thread (0 if none). */
    uint64_t current() const;

    /** Every closed span, from every thread. */
    std::vector<SpanRecord> spans() const;

    /** Most spans writeChromeJson puts in one file. */
    static constexpr size_t MaxWrittenSpans = 50'000;

    /** Write the spans as Chrome trace-event JSON (Perfetto opens it). */
    bool writeChromeJson(const std::string &path) const;

  private:
    struct ThreadBuf;
    ThreadBuf &local();

    std::string runId_;
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<ThreadBuf>> bufs_;
    std::atomic<uint64_t> nextId_{1};
};

/** RAII span; does nothing when the tracer is null. */
class Span
{
  public:
    Span(Tracer *tracer, const char *layer, const char *name,
         uint64_t parent = 0)
        : tracer_(tracer)
    {
        if (tracer_)
            tracer_->begin(layer, name, parent);
    }
    ~Span()
    {
        if (tracer_)
            tracer_->end();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer_;
};

/** Per-layer sum of span self time (duration minus child coverage). */
struct LayerTime
{
    std::string layer;
    double selfSeconds = 0;
    size_t spans = 0;
};
std::vector<LayerTime> layerSelfTimes(const std::vector<SpanRecord> &spans);

// ---- workload set-up --------------------------------------------------------

/** One suite program, assembled, imaged and baselined. */
struct Prepared
{
    const risc1::workloads::Workload *wl = nullptr;
    risc1::assembler::Program program;
    std::shared_ptr<const risc1::sim::ProgramImage> image;
    uint32_t expected = 0;
    risc1::sim::ExecResult base;
    bool ok = false; //!< baseline halted with the oracle's result
    double assembleSeconds = 0;
    double imageSeconds = 0;
};

/**
 * Assemble every suite workload, build its ProgramImage and run its
 * uninjected baseline under `opts`, checking it against the oracle.
 */
std::vector<Prepared> prepareSuite(const risc1::sim::CpuOptions &opts,
                                   Tracer *tracer);

/** Baselines that missed the oracle. */
unsigned baselineFailures(const std::vector<Prepared> &suite);

// ---- engines -----------------------------------------------------------------

/**
 * Scoped campaign engine: selects `name` (with chaining on) for every
 * campaign guest until destroyed, then restores the engine that was
 * selected before. setCampaignEngine is process-wide, so every engine
 * switch in the benchmark goes through this guard.
 */
class EngineScope
{
  public:
    explicit EngineScope(const std::string &name);
    ~EngineScope();
    EngineScope(const EngineScope &) = delete;
    EngineScope &operator=(const EngineScope &) = delete;

  private:
    std::string previous_;
};

/** The engine selected for campaign guests ("ref" ... "jit"). */
std::string selectedEngineName();

/**
 * The engine campaign guests actually run under: the selection, except
 * that "jit" on a host without JIT templates runs "superblock".
 */
std::string activeEngineName();

/** CpuOptions of engine `name` ("ref", "threaded", "superblock", "jit"). */
risc1::sim::CpuOptions engineOptions(const std::string &name);

// ---- the workloads ----------------------------------------------------------------

/** Grid and threading shared by every workload. */
struct Config
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool perturb = false;      //!< corrupt one result before the gate
    std::string workDir;       //!< working space inside the checkout
    unsigned injections = 96;  //!< per suite program: ~1 s of campaign
    unsigned threads = 2;      //!< compute threads
    uint64_t checkpointInterval = 1000;
};

/** What one timed repetition of a workload did. */
struct Rep
{
    double wall = 0;
    double cpu = 0;
    unsigned attempted = 0;
    unsigned failed = 0;
    std::string output; //!< canonical bytes of the result, for the gate
};

/** A workload: its set-up, one timed repetition, and its gate. */
class Workload
{
  public:
    Workload() = default;
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Compute threads of one repetition (for parallel.efficiency). */
    virtual unsigned threads() const = 0;
    /** Work done before timing (pool start-up, for the fleet). */
    virtual void setUp(Tracer *) {}
    virtual void tearDown() {}
    /** One timed repetition. */
    virtual Rep repeat(Tracer *tracer) = 0;
    /**
     * Outside the timed phase: check the first repetition's result
     * against an independent computation. One message per mismatch.
     */
    virtual std::vector<std::string> gate() = 0;
    /** Campaign rows of the first repetition (null for the report). */
    virtual const std::vector<risc1::core::FaultCampaignRow> *
    rows() const
    {
        return nullptr;
    }
    /** Whether the campaign checkpoints and rolls back. */
    virtual bool recovers() const { return false; }
    /** The live worker pool, if the workload runs one. */
    virtual risc1::core::RemotePool *pool() { return nullptr; }
    /** Per-layer metrics only this workload can measure. */
    virtual void layerMetrics(MetricSet &, Tracer *) {}
};

std::unique_ptr<Workload> makeWorkload(const Config &cfg);

/** Names accepted by --workload, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

// ---- canonical result bytes ------------------------------------------------------

/** Every field of every row, as bytes: equal iff the rows are equal. */
std::string rowBytes(const std::vector<risc1::core::FaultCampaignRow> &rows);

/** Rows whose tallies do not sum to their injections. */
std::vector<std::string>
tallyErrors(const std::vector<risc1::core::FaultCampaignRow> &rows);

/**
 * Compare `got` to `want` and name the first differing row, or return
 * an empty string when they are byte-identical.
 */
std::string rowsDiff(const std::vector<risc1::core::FaultCampaignRow> &got,
                     const std::vector<risc1::core::FaultCampaignRow> &want);

/** Flip one tally (keeping its sum) to perturb a result on purpose. */
void perturbRows(std::vector<risc1::core::FaultCampaignRow> &rows);

// ---- the traced run ---------------------------------------------------------------

/**
 * The campaign grid replayed from the benchmark's own loop over the
 * public per-run calls (Cpu, load, drawInjection, runUntil,
 * applyInjection, run, snapshot, restore), with a span around each, on
 * `cfg.threads` threads. Its rows must equal core::faultCampaign's.
 */
struct ShadowResult
{
    std::vector<risc1::core::FaultCampaignRow> rows;
    double wall = 0;
    MetricSet metrics; //!< cpu/load/inject/snapshot/outcome metrics
};

ShadowResult shadowCampaign(const Config &cfg,
                            const std::vector<Prepared> &suite,
                            unsigned injections, bool recovery,
                            Tracer &tracer);

/**
 * Layer probes shared by every workload, under the workload's engine:
 * Cpu construction per engine, image and program loads, fresh and warm
 * runs with their engine counters, snapshot capture/restore, frame
 * encode/decode, shard-cache I/O, status round trips against `pool`
 * (a private pool when null) and vax80 runs.
 */
void probeLayers(const Config &cfg, const std::vector<Prepared> &suite,
                 const std::vector<risc1::core::FaultCampaignRow> &rows,
                 risc1::core::RemotePool *pool, Tracer &tracer,
                 MetricSet &out, std::vector<std::string> &errors);

/** Self-test of the sanity check and the row gate. */
int selfTest();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
