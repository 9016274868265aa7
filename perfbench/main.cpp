//===- perfbench/main.cpp - Repo benchmark entry point ---------------------===//
//
//   aspen_perfbench --workload <serve-mixed|ingest-durable|snapshot-analytics>
//                   --seed <n> --seconds <s> --trace <0|1> --out <dir>
//                   [--smoke]
//
// Runs one workload with a fixed amount of work (sized by --seconds and
// never cut by a clock), checks every output against references computed
// apart from the program, and prints as its last stdout line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the run records
// spans and prints the per-layer metrics instead. Human-readable detail
// goes to stderr.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "aspen_perfbench: %s\nusage: aspen_perfbench --workload "
               "<serve-mixed|ingest-durable|snapshot-analytics> --seed <n> "
               "--seconds <s> --trace <0|1> --out <dir> [--smoke]\n",
               Why);
  std::exit(2);
}

Config parseArgs(int Argc, char **Argv) {
  Config C;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + A).c_str());
      return Argv[++I];
    };
    try {
      if (A == "--workload")
        C.Workload = Value();
      else if (A == "--seed")
        C.Seed = std::stoull(Value());
      else if (A == "--seconds")
        C.Seconds = std::stoi(Value());
      else if (A == "--trace")
        C.Trace = std::stoi(Value()) != 0;
      else if (A == "--out")
        C.OutDir = Value();
      else if (A == "--smoke")
        C.Smoke = true;
      else
        usage(("unknown argument " + A).c_str());
    } catch (const std::logic_error &) {
      usage(("bad value for " + A).c_str());
    }
  }
  if (C.Workload.empty() || C.OutDir.empty())
    usage("--workload and --out are required");
  if (C.Seconds < 1 || C.Seconds > 60)
    usage("--seconds must be in [1, 60]");
  return C;
}

void printMetrics(const std::vector<std::pair<std::string, std::string>> &Names,
                  const std::map<std::string, double> &Values) {
  bool First = true;
  for (const auto &[Name, Unit] : Names) {
    auto It = Values.find(Name);
    double V = It == Values.end() ? 0.0 : It->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(), V, Unit.c_str());
    First = false;
  }
}

} // namespace

int main(int Argc, char **Argv) {
  Config C = parseArgs(Argc, Argv);
  Ledger L;
  Tracer Tr(C.Trace);
  RunResult R;
  double Probe = hostProbeSeconds();
  const CpuTimes Cpu0 = readCpuTimes();
  try {
    if (C.Workload == "serve-mixed")
      runServeMixed(C, L, Tr, R);
    else if (C.Workload == "ingest-durable")
      runIngestDurable(C, L, Tr, R);
    else if (C.Workload == "snapshot-analytics")
      runSnapshotAnalytics(C, L, Tr, R);
    else
      usage(("unknown workload " + C.Workload).c_str());
  } catch (const std::exception &E) {
    std::fprintf(stderr, "aspen_perfbench: run aborted: %s\n", E.what());
    return 1;
  }
  const double Steal = stealShare(Cpu0, readCpuTimes());
  R.Layers["host.probe_s"] = Probe;
  R.Layers["host.steal_share"] = Steal;

  std::fprintf(stderr,
               "workload %s seed %llu seconds %d machine/workers %d "
               "host.probe_s %.4f host.steal_share %.5f\n",
               C.Workload.c_str(), (unsigned long long)C.Seed, C.Seconds,
               machineWorkers(), Probe, Steal);
  for (const std::string &N : R.Notes)
    std::fprintf(stderr, "  note: %s\n", N.c_str());
  for (const auto &[K, V] : R.EndToEnd) {
    auto It = R.EndToEndName.find(K);
    std::string Name =
        It == R.EndToEndName.end() ? K : K + " (" + It->second + ")";
    std::fprintf(stderr, "  e2e   %-50s %.6g\n", Name.c_str(), V);
  }
  if (C.Trace) {
    for (const auto &[K, V] : R.Layers)
      std::fprintf(stderr, "  layer %-34s %.6g\n", K.c_str(), V);
    for (const auto &[Name, N] : Tr.selfTimes())
      std::fprintf(stderr, "  span  %-34s n=%-7llu total %.4fs self %.4fs\n",
                   Name.c_str(), (unsigned long long)N.Count, N.Total,
                   N.Self);
    std::string Path = C.OutDir + "/trace-" + C.Workload + "-" +
                       std::to_string(C.Seed) + ".jsonl";
    Tr.write(Path);
    std::fprintf(stderr, "  spans written to %s\n", Path.c_str());
  }
  std::fprintf(stderr, "  attempted %llu failed %llu correct %s\n",
               (unsigned long long)L.attempted(),
               (unsigned long long)L.failed(), L.correct() ? "yes" : "NO");

  if (C.Trace) {
    // The end-to-end figures as measured with tracing on; compared with an
    // untraced run of the same seed they give the tracing overhead.
    std::printf("{\"traced_end_to_end\": {");
    printMetrics(endToEndMetrics(), R.EndToEnd);
    std::printf("}}\n");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              L.correct() ? "true" : "false",
              (unsigned long long)L.attempted(),
              (unsigned long long)L.failed());
  if (C.Trace)
    printMetrics(layerMetrics(), R.Layers);
  else
    printMetrics(endToEndMetrics(), R.EndToEnd);
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}
