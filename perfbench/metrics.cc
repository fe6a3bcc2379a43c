/**
 * @file
 * Clocks, resource usage, sample statistics and the physical-sanity
 * check every run applies to its own metrics.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "bench.hh"
#include "support/logging.hh"

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

namespace {

void
pinTo(const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int cpu : cpus)
        CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
}

} // namespace

CpuRotation::CpuRotation(unsigned width) : width_(width)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &set))
                cpus_.push_back(cpu);
}

CpuRotation::~CpuRotation()
{
    if (!cpus_.empty())
        pinTo(cpus_);
}

void
CpuRotation::next()
{
    if (cpus_.size() <= width_)
        return; // nothing to rotate over
    std::vector<int> pick;
    for (unsigned k = 0; k < width_; ++k)
        pick.push_back(cpus_[(step_ + k) % cpus_.size()]);
    ++step_;
    pinTo(pick);
}

namespace {

/**
 * A fixed register-machine interpreter: switch dispatch over a short
 * program, data-dependent branches and a small memory, like the
 * simulator's own inner loops but in the benchmark's own code, so no
 * change to the simulator moves it. Returns a digest of its state.
 */
uint32_t
referenceInterpreter(uint64_t steps, uint32_t seed)
{
    static const uint8_t program[32] = {0, 1, 2, 3, 4, 5, 6, 7, 1, 3, 0,
                                        2, 5, 4, 7, 6, 2, 0, 3, 1, 6, 7,
                                        4, 5, 3, 2, 1, 0, 7, 5, 6, 4};
    uint32_t regs[16];
    for (uint32_t i = 0; i < 16; ++i)
        regs[i] = seed * (i + 1) + 0x9e3779b9u * i;
    uint32_t mem[256] = {};
    uint64_t pc = 0;
    for (uint64_t s = 0; s < steps; ++s, ++pc) {
        uint32_t &dst = regs[s & 15];
        const uint32_t a = dst, b = regs[(s >> 4) & 15];
        switch (program[pc & 31]) {
          case 0: dst = a + b; break;
          case 1: dst = a ^ (b << 3); break;
          case 2: mem[a & 255] = b; break;
          case 3: dst = mem[b & 255] + 1; break;
          case 4: pc += (a & 1) * 3; break;
          case 5: dst = a * 2654435761u; break;
          case 6: regs[(s + 1) & 15] = a - b; break;
          default: pc += b & 7; break;
        }
    }
    uint32_t digest = 0;
    for (uint32_t r : regs)
        digest = digest * 31 + r;
    return digest;
}

/** Interpreter steps per thread of one calibration. */
constexpr uint64_t CalibrationSteps = 16'000'000;

} // namespace

Calibration
calibrate(unsigned threads)
{
    std::vector<uint32_t> digests(threads);
    std::vector<std::thread> workers;
    const Stopwatch watch;
    for (unsigned t = 0; t < threads; ++t)
        workers.emplace_back([&digests, t] {
            digests[t] = referenceInterpreter(CalibrationSteps, t + 1);
        });
    for (std::thread &w : workers)
        w.join();
    const auto [wall, cpu] = watch.stop();
    // Consume the digests, so the compiler cannot drop the loops.
    static volatile uint32_t sink;
    for (uint32_t d : digests)
        sink = sink + d;
    return {wall, cpu / threads};
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    // Nearest rank: the smallest value with at least p% at or below it.
    const double rank = std::ceil(p / 100.0 * double(v.size()));
    const size_t idx = rank < 1 ? 0 : size_t(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
trimmedMean(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t cut = v.size() / 10;
    double sum = 0;
    for (size_t i = cut; i < v.size() - cut; ++i)
        sum += v[i];
    return sum / double(v.size() - 2 * cut);
}

void
MetricSet::add(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.push_back({name, value, unit});
}

double
MetricSet::get(const std::string &name) const
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            return m.value;
    return 0;
}

bool
MetricSet::has(const std::string &name) const
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            return true;
    return false;
}

std::vector<std::string>
sanityErrors(const MetricSet &metrics)
{
    std::vector<std::string> errors;
    const std::string rate_suffix = "minsts_per_s";
    for (const Metric &m : metrics.all()) {
        const bool is_rate =
            m.name.size() > rate_suffix.size() &&
            m.name.compare(m.name.size() - rate_suffix.size(),
                           rate_suffix.size(), rate_suffix) == 0;
        if (is_rate && !(m.value > 0 && m.value <= MaxMinstsPerSecond))
            errors.push_back(risc1::strprintf(
                "%s = %g Minst/s is outside (0, %g]", m.name.c_str(),
                m.value, MaxMinstsPerSecond));
        if (m.name == "parallel.efficiency" && !(m.value <= 1.0))
            errors.push_back(risc1::strprintf(
                "parallel.efficiency = %g exceeds 1.0", m.value));
        if (!std::isfinite(m.value))
            errors.push_back(m.name + " is not finite");
    }
    return errors;
}

} // namespace perfbench
