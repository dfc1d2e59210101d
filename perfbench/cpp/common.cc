#include "common.h"

#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "graph/op_class.h"

namespace perfbench {

namespace {

/** Per-op records of this many final steps go into the artifact. */
constexpr std::size_t kArtifactSteps = 2;
/** Aux-lane spans kept per tracer (the most recent ones). */
constexpr std::size_t kArtifactAuxSpans = 512;

void
WriteTracer(std::ostream& out, const fathom::runtime::Tracer& tracer)
{
    struct TypeTotal {
        std::int64_t count = 0;
        double seconds = 0.0;
        std::string op_class;
    };
    std::map<std::string, TypeTotal> by_type;
    for (const auto& step : tracer.steps()) {
        for (const auto& r : step.records) {
            TypeTotal& t = by_type[r.op_type];
            t.count += 1;
            t.seconds += r.wall_seconds;
            t.op_class = fathom::graph::OpClassName(r.op_class);
        }
    }
    out << "{\"steps\": " << tracer.steps().size() << ", \"by_type\": {";
    bool first = true;
    for (const auto& [type, t] : by_type) {
        out << (first ? "" : ", ") << JsonString(type) << ": {\"class\": "
            << JsonString(t.op_class) << ", \"count\": " << t.count
            << ", \"ms\": " << JsonNumber(t.seconds * 1e3) << "}";
        first = false;
    }
    out << "}, \"last_steps\": [";
    const auto& steps = tracer.steps();
    const std::size_t begin =
        steps.size() > kArtifactSteps ? steps.size() - kArtifactSteps : 0;
    for (std::size_t s = begin; s < steps.size(); ++s) {
        const auto& step = steps[s];
        out << (s == begin ? "" : ", ") << "{\"wall_ms\": "
            << JsonNumber(step.wall_seconds * 1e3) << ", \"records\": [";
        for (std::size_t i = 0; i < step.records.size(); ++i) {
            const auto& r = step.records[i];
            out << (i == 0 ? "" : ", ") << "{\"seq\": " << r.seq
                << ", \"op\": " << JsonString(r.op_type)
                << ", \"start_us\": " << JsonNumber(r.start_seconds * 1e6)
                << ", \"dur_us\": " << JsonNumber(r.wall_seconds * 1e6)
                << ", \"flops\": " << JsonNumber(r.cost.flops)
                << ", \"bytes\": " << JsonNumber(r.cost.bytes)
                << ", \"worker\": " << r.worker << "}";
        }
        out << "]}";
    }
    out << "], \"aux_spans\": [";
    const auto& aux = tracer.aux_spans();
    const std::size_t aux_begin =
        aux.size() > kArtifactAuxSpans ? aux.size() - kArtifactAuxSpans : 0;
    for (std::size_t i = aux_begin; i < aux.size(); ++i) {
        const auto& a = aux[i];
        const auto lane = static_cast<std::size_t>(a.lane);
        out << (i == aux_begin ? "" : ", ") << "{\"lane\": "
            << JsonString(lane < tracer.aux_lanes().size()
                              ? tracer.aux_lanes()[lane]
                              : std::to_string(a.lane))
            << ", \"label\": " << JsonString(a.label)
            << ", \"start_ms\": " << JsonNumber(a.start_seconds * 1e3)
            << ", \"dur_ms\": " << JsonNumber(a.dur_seconds * 1e3) << "}";
    }
    out << "]}";
}

void
WriteSnapshot(std::ostream& out, const fathom::telemetry::MetricsSnapshot& s)
{
    out << "{\"counters\": {";
    for (std::size_t i = 0; i < s.counters.size(); ++i) {
        out << (i == 0 ? "" : ", ") << JsonString(s.counters[i].first) << ": "
            << s.counters[i].second;
    }
    out << "}, \"gauges\": {";
    for (std::size_t i = 0; i < s.gauges.size(); ++i) {
        out << (i == 0 ? "" : ", ") << JsonString(s.gauges[i].first) << ": "
            << JsonNumber(s.gauges[i].second);
    }
    out << "}, \"histograms\": {";
    for (std::size_t i = 0; i < s.histograms.size(); ++i) {
        const auto& h = s.histograms[i].second;
        out << (i == 0 ? "" : ", ") << JsonString(s.histograms[i].first)
            << ": {\"count\": " << h.count << ", \"sum\": " << h.sum
            << ", \"mean\": " << JsonNumber(h.Mean()) << "}";
    }
    out << "}}";
}

}  // namespace

Reference::Reference(const std::string& path, bool write_missing)
    : path_(path), write_missing_(write_missing)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        std::istringstream fields(line);
        std::string key;
        std::string value;
        if (fields >> key >> value) {
            values_[key] = value;
        }
    }
}

bool
Reference::Expect(const std::string& key, const std::string& actual)
{
    const auto it = values_.find(key);
    if (it == values_.end()) {
        if (write_missing_) {
            values_[key] = actual;
            added_[key] = actual;
            return true;
        }
        std::cerr << "reference: no recorded value for " << key << " (got "
                  << actual << ")\n";
        return false;
    }
    if (it->second != actual) {
        std::cerr << "reference: " << key << " expected " << it->second
                  << ", got " << actual << "\n";
        return false;
    }
    return true;
}

void
Reference::Save() const
{
    if (added_.empty()) {
        return;
    }
    std::ofstream out(path_, std::ios::app);
    for (const auto& [key, value] : added_) {
        out << key << " " << value << "\n";
    }
}

void
Result::Mismatch(const std::string& what)
{
    std::cerr << "output check failed: " << what << "\n";
    mismatches.push_back(what);
}

std::string
WriteArtifact(const Options& options, const Result& result,
              const TraceArtifact& artifact)
{
    std::filesystem::create_directories(options.artifact_dir);
    const std::string path = options.artifact_dir + "/trace-" +
                             options.workload + "-seed" +
                             std::to_string(options.seed) + ".json";
    std::ofstream out(path);
    out << "{\"workload\": " << JsonString(options.workload)
        << ", \"seed\": " << options.seed << ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric& m = result.metrics[i];
        out << (i == 0 ? "" : ", ") << JsonString(m.name)
            << ": {\"value\": " << JsonNumber(m.value)
            << ", \"unit\": " << JsonString(m.unit) << "}";
    }
    out << "}, \"layers\": {";
    bool first = true;
    for (const auto& [name, s] : artifact.spans->Summarize()) {
        out << (first ? "" : ", ") << JsonString(name)
            << ": {\"count\": " << s.count
            << ", \"total_ms\": " << JsonNumber(s.total_seconds * 1e3)
            << ", \"self_ms\": " << JsonNumber(s.self_seconds * 1e3) << "}";
        first = false;
    }
    out << "}, \"spans\": [";
    const auto spans = artifact.spans->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out << (i == 0 ? "" : ",\n") << "{\"i\": " << i
            << ", \"name\": " << JsonString(s.name)
            << ", \"start_ms\": " << JsonNumber(s.start * 1e3)
            << ", \"end_ms\": " << JsonNumber(s.end * 1e3)
            << ", \"parent\": " << s.parent << ", \"id\": " << s.id << "}";
    }
    out << "],\n\"op_traces\": {";
    for (std::size_t i = 0; i < artifact.tracers.size(); ++i) {
        out << (i == 0 ? "" : ",\n") << JsonString(artifact.tracers[i].first)
            << ": ";
        WriteTracer(out, *artifact.tracers[i].second);
    }
    out << "},\n\"counters\": {";
    for (std::size_t i = 0; i < artifact.counters.size(); ++i) {
        out << (i == 0 ? "" : ",\n") << JsonString(artifact.counters[i].first)
            << ": ";
        WriteSnapshot(out, artifact.counters[i].second);
    }
    out << "}}\n";
    return path;
}

double
SecondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
PeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

bool
BitEqual(const fathom::Tensor& a, const fathom::Tensor& b)
{
    if (a.dtype() != b.dtype() || a.shape() != b.shape()) {
        return false;
    }
    if (a.dtype() == fathom::DType::kFloat32) {
        return std::memcmp(a.data<float>(), b.data<float>(),
                           a.byte_size()) == 0;
    }
    return std::memcmp(a.data<std::int32_t>(), b.data<std::int32_t>(),
                       a.byte_size()) == 0;
}

std::string
HexFloat(float v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", static_cast<double>(v));
    return buf;
}

fathom::workloads::WorkloadConfig
BaseConfig(const Options& options)
{
    fathom::workloads::WorkloadConfig config;
    config.seed = options.seed;
    config.threads = kIntraOpThreads;
    config.inter_op_threads = kInterOpThreads;
    config.prefetch_depth = kPrefetchDepth;
    config.producer_threads = kProducerThreads;
    config.tracing = false;
    config.telemetry = false;
    return config;
}

std::string
JsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
JsonNumber(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

}  // namespace perfbench
