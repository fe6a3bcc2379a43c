/**
 * @file
 * The in-memory span tracer and its Chrome trace-event writer.
 */

#include <algorithm>
#include <fstream>
#include <map>

#include "bench.hh"

namespace perfbench {

struct Tracer::ThreadBuf
{
    unsigned thread = 0;
    std::vector<SpanRecord> open;
    std::vector<SpanRecord> closed;
};

namespace {

/** The calling thread's buffer in the tracer that last used it. */
thread_local const Tracer *tlsOwner = nullptr;
thread_local void *tlsBuf = nullptr;

int64_t
nsSince(Clock::time_point epoch)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

/** JSON string body with the characters JSON forbids escaped. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out;
}

} // namespace

Tracer::Tracer(std::string run_id)
    : runId_(std::move(run_id)), epoch_(Clock::now())
{}

Tracer::~Tracer() = default;

Tracer::ThreadBuf &
Tracer::local()
{
    if (tlsOwner != this) {
        std::lock_guard<std::mutex> lock(mutex_);
        bufs_.push_back(std::make_unique<ThreadBuf>());
        bufs_.back()->thread = static_cast<unsigned>(bufs_.size());
        tlsOwner = this;
        tlsBuf = bufs_.back().get();
    }
    return *static_cast<ThreadBuf *>(tlsBuf);
}

uint64_t
Tracer::begin(const char *layer, const char *name, uint64_t parent_override)
{
    ThreadBuf &buf = local();
    SpanRecord rec;
    rec.id = nextId_.fetch_add(1, std::memory_order_relaxed);
    rec.parent = parent_override ? parent_override
                 : buf.open.empty() ? 0
                                    : buf.open.back().id;
    rec.layer = layer;
    rec.name = name;
    rec.thread = buf.thread;
    rec.startNs = nsSince(epoch_);
    buf.open.push_back(rec);
    return rec.id;
}

void
Tracer::end()
{
    ThreadBuf &buf = local();
    SpanRecord rec = buf.open.back();
    buf.open.pop_back();
    rec.endNs = nsSince(epoch_);
    buf.closed.push_back(rec);
}

uint64_t
Tracer::current() const
{
    if (tlsOwner != this)
        return 0;
    const auto *buf = static_cast<const ThreadBuf *>(tlsBuf);
    return buf->open.empty() ? 0 : buf->open.back().id;
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<SpanRecord> all;
    for (const auto &buf : bufs_)
        all.insert(all.end(), buf->closed.begin(), buf->closed.end());
    return all;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const std::string run = jsonEscape(runId_);
    std::vector<SpanRecord> all = spans();
    // Keep the file openable: the earliest MaxWrittenSpans spans, which
    // cover set-up and the first repetitions in full.
    std::sort(all.begin(), all.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return a.startNs < b.startNs;
              });
    if (all.size() > MaxWrittenSpans)
        all.resize(MaxWrittenSpans);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    bool first = true;
    for (const SpanRecord &s : all) {
        if (!first)
            out << ",\n";
        first = false;
        // Complete ("X") events: ts/dur in microseconds. The explicit
        // start/end, parent and run id ride in args.
        out << "{\"name\": \"" << s.name << "\", \"cat\": \"" << s.layer
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
            << ", \"ts\": " << double(s.startNs) / 1e3
            << ", \"dur\": " << double(s.endNs - s.startNs) / 1e3
            << ", \"args\": {\"id\": " << s.id << ", \"parent\": "
            << s.parent << ", \"run\": \"" << run
            << "\", \"start_ns\": " << s.startNs
            << ", \"end_ns\": " << s.endNs << "}}";
    }
    out << "\n]}\n";
    return bool(out);
}

std::vector<LayerTime>
layerSelfTimes(const std::vector<SpanRecord> &spans)
{
    // Child coverage per parent: children of one span on its own thread
    // are nested and disjoint, so their durations simply add up. A
    // child on another thread (a worker under a repetition span) runs
    // concurrently with its parent and is not subtracted.
    std::map<uint64_t, const SpanRecord *> by_id;
    for (const SpanRecord &s : spans)
        by_id[s.id] = &s;
    std::map<uint64_t, int64_t> covered;
    for (const SpanRecord &s : spans) {
        const auto it = by_id.find(s.parent);
        if (it != by_id.end() && it->second->thread == s.thread)
            covered[s.parent] += s.endNs - s.startNs;
    }
    std::map<std::string, LayerTime> by_layer;
    for (const SpanRecord &s : spans) {
        LayerTime &lt = by_layer[s.layer];
        lt.layer = s.layer;
        lt.selfSeconds +=
            double(std::max<int64_t>(s.endNs - s.startNs - covered[s.id],
                                     0)) /
            1e9;
        ++lt.spans;
    }
    std::vector<LayerTime> out;
    for (auto &[name, lt] : by_layer)
        out.push_back(lt);
    return out;
}

} // namespace perfbench
