// qbench_driver: runs one benchmark workload and prints its metrics.
//
//   qbench_driver --workload nba10k|synth10k|serve-mix --seed N
//                 --seconds S --trace 0|1 --data-dir DIR
//                 [--reference FILE]
//   qbench_driver --write-reference FILE --data-dir DIR
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). --write-reference runs every distinct query of every
// workload once and writes their answers to FILE.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "obs/json.h"
#include "workloads.h"

namespace {

using bayescrowd::obs::JsonValue;

int Usage(const std::string& problem) {
  std::fprintf(stderr,
               "qbench_driver: %s\n"
               "usage: qbench_driver --workload W --seed N --seconds S "
               "--trace 0|1 --data-dir DIR [--reference FILE]\n"
               "       qbench_driver --write-reference FILE --data-dir DIR\n",
               problem.c_str());
  return 2;
}

int Fail(const bayescrowd::Status& status) {
  std::fprintf(stderr, "qbench_driver: %s\n", status.ToString().c_str());
  return 1;
}

bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

int WriteReference(const std::string& path, const std::string& data_dir) {
  qbench::ReferenceSet all;
  for (const std::string& workload : qbench::WorkloadNames()) {
    auto reference = qbench::ComputeReference(workload, data_dir);
    if (!reference.ok()) return Fail(reference.status());
    all.insert(reference.value().begin(), reference.value().end());
    std::printf("qbench: %s reference computed\n", workload.c_str());
  }
  const bayescrowd::Status saved = qbench::SaveReference(all, path);
  if (!saved.ok()) return Fail(saved);
  std::printf("qbench: wrote %zu reference answers to %s\n", all.size(),
              path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) {
      return Usage("bad argument '" + arg + "'");
    }
    flags[arg.substr(2)] = argv[++i];
  }
  for (const auto& [name, value] : flags) {
    if (name != "workload" && name != "seed" && name != "seconds" &&
        name != "trace" && name != "data-dir" && name != "reference" &&
        name != "write-reference") {
      return Usage("unknown flag --" + name);
    }
  }
  if (flags.count("data-dir") == 0) return Usage("--data-dir is required");
  if (flags.count("write-reference") != 0) {
    return WriteReference(flags["write-reference"], flags["data-dir"]);
  }

  qbench::RunConfig config;
  config.workload = flags["workload"];
  config.data_dir = flags["data-dir"];
  double seed = 0.0;
  double trace = 0.0;
  if (!ParseNumber(flags["seed"], &seed) || seed < 0.0 ||
      !ParseNumber(flags["seconds"], &config.seconds) ||
      config.seconds <= 0.0 || !ParseNumber(flags["trace"], &trace) ||
      (trace != 0.0 && trace != 1.0)) {
    return Usage("--seed, --seconds and --trace need valid numbers");
  }
  config.seed = static_cast<std::uint64_t>(seed);
  config.trace = trace == 1.0;

  qbench::ReferenceSet reference;
  if (flags.count("reference") != 0) {
    auto loaded = qbench::LoadReference(flags["reference"]);
    if (!loaded.ok()) return Fail(loaded.status());
    reference = std::move(loaded).value();
    config.reference = &reference;
  }

  auto queries = qbench::WorkloadQueries(config.workload, config.seconds);
  if (!queries.ok()) return Fail(queries.status());
  std::printf("qbench: workload=%s seed=%llu trace=%d build_type=%s "
              "lanes=%zu queries_per_run=%zu\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              config.trace ? 1 : 0, QBENCH_BUILD_TYPE, qbench::kPoolLanes,
              queries.value());
  std::fflush(stdout);

  auto report = qbench::RunWorkload(config);
  if (!report.ok()) return Fail(report.status());
  for (const std::string& note : report.value().notes) {
    std::printf("qbench: FAILED %s\n", note.c_str());
  }
  JsonValue metrics = JsonValue::Object();
  for (const auto& [name, metric] : report.value().metrics) {
    JsonValue entry = JsonValue::Object();
    entry["value"] = metric.value;
    entry["unit"] = metric.unit;
    metrics[name] = std::move(entry);
  }
  JsonValue out = JsonValue::Object();
  out["correct"] = report.value().failed == 0;
  out["attempted"] = report.value().attempted;
  out["failed"] = report.value().failed;
  out["metrics"] = std::move(metrics);
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}
