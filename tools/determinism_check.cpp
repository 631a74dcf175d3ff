// Determinism harness: prove a benchmark binary is bit-identical across
// runs.
//
// Usage:
//   determinism_check BENCH_BINARY... [-- BENCH_ARGS...]
//
// Runs each binary twice with --metrics-out into a scratch directory,
// canonicalizes both gpuddt-metrics-v1 dumps (obs/canon.h: counters and
// histograms, findings dropped) and requires the two canonical texts to
// match byte-for-byte. Virtual time has no tolerance: the simulator's
// clocks, resource reservations and cache behavior are fully determined
// by the program, so ANY divergence between two runs of the same binary
// is a determinism bug (historically: free-running rank threads racing on
// shared virtual-time state - see docs/determinism.md). Arguments after
// `--` are forwarded to every benchmark invocation (e.g. a
// --benchmark_filter for a quick gate).
//
// Exits 0 when every binary double-runs identically, 1 otherwise.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/canon.h"
#include "obs/json.h"

namespace {

std::string scratch_dir() {
  const char* tmp = std::getenv("TMPDIR");
  return tmp != nullptr && *tmp != '\0' ? tmp : "/tmp";
}

/// Shell-quote a single argument (the binaries and forwarded args come
/// from a trusted CTest/ci.sh command line; quoting just keeps paths with
/// spaces working).
std::string quote(const std::string& s) {
  std::string q = "'";
  for (const char c : s) {
    if (c == '\'') {
      q += "'\\''";
    } else {
      q += c;
    }
  }
  q += "'";
  return q;
}

bool run_once(const std::string& binary,
              const std::vector<std::string>& extra_args,
              const std::string& metrics_path, std::string* canonical) {
  std::string cmd = quote(binary);
  for (const std::string& a : extra_args) cmd += " " + quote(a);
  cmd += " --metrics-out=" + quote(metrics_path);
  cmd += " > /dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  if (rc != 0) {
    std::cerr << "FAIL " << binary << ": exit status " << rc
              << " (rerun without determinism_check for its output)\n";
    return false;
  }
  std::ifstream in(metrics_path, std::ios::binary);
  if (!in) {
    std::cerr << "FAIL " << binary << ": no metrics dump at " << metrics_path
              << "\n";
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  try {
    *canonical = gpuddt::obs::canonical_metrics(
        gpuddt::obs::json::parse(ss.str()));
  } catch (const std::exception& e) {
    std::cerr << "FAIL " << binary << ": " << e.what() << "\n";
    return false;
  }
  return true;
}

/// Print the first line where the two canonical texts diverge.
void report_divergence(const std::string& a, const std::string& b) {
  std::istringstream sa(a);
  std::istringstream sb(b);
  std::string la;
  std::string lb;
  int line = 0;
  while (true) {
    const bool ga = static_cast<bool>(std::getline(sa, la));
    const bool gb = static_cast<bool>(std::getline(sb, lb));
    ++line;
    if (!ga && !gb) return;
    if (la != lb || ga != gb) {
      std::cerr << "  first divergence at canonical line " << line << ":\n"
                << "    run 1: " << (ga ? la : "<eof>") << "\n"
                << "    run 2: " << (gb ? lb : "<eof>") << "\n";
      return;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> binaries;
  std::vector<std::string> extra_args;
  bool after_dashes = false;
  for (int i = 1; i < argc; ++i) {
    if (!after_dashes && std::string(argv[i]) == "--") {
      after_dashes = true;
    } else if (after_dashes) {
      extra_args.emplace_back(argv[i]);
    } else {
      binaries.emplace_back(argv[i]);
    }
  }
  if (binaries.empty()) {
    std::cerr << "usage: determinism_check BENCH_BINARY... [-- ARGS...]\n";
    return 2;
  }
  const std::string dir = scratch_dir();
  int failures = 0;
  for (const std::string& bin : binaries) {
    // Scratch names keyed by pid so parallel ctest invocations don't
    // clobber each other.
    const std::string tag = std::to_string(::getpid());
    const std::string p1 = dir + "/gpuddt_det_" + tag + "_a.json";
    const std::string p2 = dir + "/gpuddt_det_" + tag + "_b.json";
    std::string c1;
    std::string c2;
    const bool ok = run_once(bin, extra_args, p1, &c1) &&
                    run_once(bin, extra_args, p2, &c2);
    std::remove(p1.c_str());
    std::remove(p2.c_str());
    if (!ok) {
      ++failures;
      continue;
    }
    if (c1 != c2) {
      std::cerr << "FAIL " << bin
                << ": two runs produced different canonical metrics\n";
      report_divergence(c1, c2);
      ++failures;
      continue;
    }
    std::printf("ok   %-48s (%zu canonical bytes)\n", bin.c_str(),
                c1.size());
  }
  if (failures > 0) {
    std::cerr << failures << " binar" << (failures == 1 ? "y" : "ies")
              << " failed the determinism check\n";
    return 1;
  }
  return 0;
}
