/**
 * @file
 * Shared plumbing of the benchmark binary: command-line options, the
 * result every workload fills, output checks against the recorded
 * reference, and the traced run's artifact.
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/tracer.h"
#include "spans.h"
#include "telemetry/metrics.h"
#include "tensor/tensor.h"
#include "workloads/workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** The seed whose outputs are pinned in the reference file. */
inline constexpr std::uint64_t kReferenceSeed = 1;

/** Execution settings shared by every workload (see README.md). */
inline constexpr int kIntraOpThreads = 2;
inline constexpr int kInterOpThreads = 1;
inline constexpr int kPrefetchDepth = 2;
inline constexpr int kProducerThreads = 1;

/**
 * Each run sets up at least kMinSetupReps times and until
 * kMinSetupSeconds have passed (at most kMaxSetupReps times); setup_s
 * is the median, so cheap set-ups are sampled more.
 */
inline constexpr int kMinSetupReps = 5;
inline constexpr int kMaxSetupReps = 200;
inline constexpr double kMinSetupSeconds = 2.0;

/** @return true while another set-up repetition is due. */
inline bool
MoreSetupReps(int reps_done, double seconds_spent)
{
    return reps_done < kMinSetupReps ||
           (seconds_spent < kMinSetupSeconds && reps_done < kMaxSetupReps);
}

struct Options {
    std::string workload;
    std::uint64_t seed = kReferenceSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string reference_path;
    std::string artifact_dir;
    /** Record missing reference entries instead of failing on them. */
    bool write_reference = false;
};

/**
 * Thrown when a run's measuring conditions did not hold (e.g. the load
 * generator fell behind); such a run reports no metrics.
 */
class InvalidRun : public std::runtime_error {
  public:
    using std::runtime_error::runtime_error;
};

/** The recorded outputs the checks compare against. */
class Reference {
  public:
    Reference(const std::string& path, bool write_missing);

    /**
     * Compares @p actual with the recorded value under @p key.
     * @return false (and says why on stderr) on a mismatch, or when the
     * key is missing and the reference is not being written.
     */
    bool Expect(const std::string& key, const std::string& actual);

    /** Appends the entries recorded by Expect in write mode. */
    void Save() const;

  private:
    std::string path_;
    bool write_missing_;
    std::map<std::string, std::string> values_;
    std::map<std::string, std::string> added_;
};

/** One reported metric. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload run reports. */
struct Result {
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    /** Output checks that failed; any entry makes the run incorrect. */
    std::vector<std::string> mismatches;
    std::vector<Metric> metrics;

    void Add(const std::string& name, double value, const std::string& unit)
    {
        metrics.push_back({name, value, unit});
    }
    void Mismatch(const std::string& what);
};

/** Everything a traced run writes to its artifact. */
struct TraceArtifact {
    const SpanRecorder* spans = nullptr;
    /** Program per-op traces: (label, tracer), e.g. ("train", ...). */
    std::vector<std::pair<std::string, const fathom::runtime::Tracer*>>
        tracers;
    /** Registry snapshots taken at phase ends: (label, snapshot). */
    std::vector<std::pair<std::string, fathom::telemetry::MetricsSnapshot>>
        counters;
};

/** Writes the artifact as JSON. @return the file written. */
std::string WriteArtifact(const Options& options, const Result& result,
                          const TraceArtifact& artifact);

/** @return seconds from @p start to now. */
double SecondsSince(Clock::time_point start);

/** @return the process's peak resident set size, in MB. */
double PeakRssMb();

/** @return true if the two tensors have equal dtype, shape and bytes. */
bool BitEqual(const fathom::Tensor& a, const fathom::Tensor& b);

/** @return the exact bit pattern of @p v as text, e.g. "0x1.37p+2". */
std::string HexFloat(float v);

/** @return a WorkloadConfig with the shared execution settings. */
fathom::workloads::WorkloadConfig BaseConfig(const Options& options);

/** @return the JSON text of @p s, quoted and escaped. */
std::string JsonString(const std::string& s);

/** @return @p v as the shortest JSON number that reads back exactly. */
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H
