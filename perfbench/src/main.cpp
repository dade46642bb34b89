// perfbench: end-to-end and per-layer benchmark of the detect path.
//
//   perfbench --workload paper-sparse|service-mix|flood-dense --seed N
//             --seconds S --trace 0|1 [--source-id ID] [--reference FILE]
//             [--trace-out FILE]
//
// Prints a host stamp, one `metric` line per measurement (name, value,
// unit, sample count), the payload digest, and as its last line the result
// object {"correct", "attempted", "failed", "metrics"}. Exits non-zero when
// any correctness check fails. perfbench/run.py builds and invokes it.
#include <cstdio>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload paper-sparse|service-mix|flood-dense "
               "--seed N --seconds S --trace 0|1 [--source-id ID] [--reference FILE] "
               "[--trace-out FILE]\n",
               message);
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) return false;
  try {
    *out = std::stoull(text);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.reference_path = "perfbench/reference.json";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &options.seed)) return usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      if (!parse_u64(value, &number) || number == 0 || number > 3600)
        return usage("--seconds takes a whole number in [1, 3600]");
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--source-id") {
      options.source_id = value;
    } else if (flag == "--reference") {
      options.reference_path = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.trace_out.empty())
    options.trace_out = "perfbench-" + options.workload + "-" + std::to_string(options.seed) +
                        ".trace.json";
  try {
    if (options.workload == "paper-sparse") return perfbench::run_paper_sparse(options);
    if (options.workload == "service-mix") return perfbench::run_service_mix(options);
    if (options.workload == "flood-dense") return perfbench::run_flood_dense(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return usage("--workload must be paper-sparse, service-mix or flood-dense");
}
