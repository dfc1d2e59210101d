/**
 * @file
 * Benchmark binary: runs one workload in this process and prints, as
 * its last line, one JSON object with the run's correctness, attempted
 * and failed operation counts, and its metrics (end-to-end when
 * untraced, per-layer when traced). See ../README.md.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --reference <file> --artifact-dir <dir> [--write-reference]
 *
 * Exit codes: 0 all output checks passed; 1 an output check failed
 * (the result line still prints, with "correct": false); 2 bad
 * arguments or an error; 3 the run's measuring conditions did not hold
 * (no result line).
 */
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <string>

#include "common.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace perfbench;

const std::map<std::string,
               std::function<Result(const Options&, Reference&)>>&
Workloads()
{
    static const std::map<std::string,
                          std::function<Result(const Options&, Reference&)>>
        kWorkloads = {
            {"train-seq2seq",
             [](const Options& o, Reference& r) {
                 return RunTrain(o, r, "seq2seq");
             }},
            {"train-alexnet",
             [](const Options& o, Reference& r) {
                 return RunTrain(o, r, "alexnet");
             }},
            {"serve-alexnet", RunServe},
            {"characterize", RunCharacterize},
        };
    return kWorkloads;
}

Options
ParseArgs(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--write-reference") {
            o.write_reference = true;
            continue;
        }
        if (i + 1 >= argc) {
            throw std::invalid_argument("flag " + flag + " needs a value");
        }
        const std::string value = argv[++i];
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            o.seconds = std::stod(value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") {
                throw std::invalid_argument("--trace takes 0 or 1");
            }
            o.trace = value == "1";
        } else if (flag == "--reference") {
            o.reference_path = value;
        } else if (flag == "--artifact-dir") {
            o.artifact_dir = value;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (Workloads().count(o.workload) == 0) {
        throw std::invalid_argument("unknown workload '" + o.workload + "'");
    }
    if (!(o.seconds > 0.0) || o.reference_path.empty() ||
        o.artifact_dir.empty()) {
        throw std::invalid_argument(
            "need --seconds > 0, --reference and --artifact-dir");
    }
    return o;
}

void
PrintResult(const Result& result)
{
    std::cout << "{\"correct\": "
              << (result.mismatches.empty() ? "true" : "false")
              << ", \"attempted\": " << result.attempted
              << ", \"failed\": " << result.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric& m = result.metrics[i];
        std::cout << (i == 0 ? "" : ", ") << JsonString(m.name)
                  << ": {\"value\": " << JsonNumber(m.value)
                  << ", \"unit\": " << JsonString(m.unit) << "}";
    }
    std::cout << "}}" << std::endl;
}

}  // namespace

int
main(int argc, char** argv)
{
    try {
        const Options options = ParseArgs(argc, argv);
        fathom::workloads::RegisterAllWorkloads();
        Reference reference(options.reference_path, options.write_reference);
        Result result = Workloads().at(options.workload)(options, reference);
        if (!options.trace) {
            result.Add("peak_rss_mb", PeakRssMb(), "MB");
            result.Add("success_ratio",
                       PerUnit(static_cast<double>(result.attempted -
                                                   result.failed),
                               static_cast<double>(result.attempted)),
                       "ratio");
        }
        reference.Save();
        PrintResult(result);
        return result.mismatches.empty() ? 0 : 1;
    } catch (const InvalidRun& e) {
        std::cerr << "invalid run: " << e.what() << "\n";
        return 3;
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
