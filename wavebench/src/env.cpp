#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common.hpp"
#include "wavemig/fault/fault_injection.hpp"

namespace wavebench {

namespace {

volatile std::uint64_t spin_sink = 0;

void spin(std::uint64_t iterations) {
  std::uint64_t x = 1;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    x ^= x >> 13;
  }
  spin_sink = x;
}

/// Wall time of `threads` threads each spinning the same fixed loop.
double spin_ms(unsigned threads, std::uint64_t iterations) {
  const auto t0 = bench_clock::now();
  std::vector<std::thread> pool;
  for (unsigned i = 0; i < threads; ++i) {
    pool.emplace_back([iterations] { spin(iterations); });
  }
  for (auto& t : pool) {
    t.join();
  }
  return ms_between(t0, bench_clock::now());
}

}  // namespace

std::vector<std::string> environment_record() {
  std::vector<std::string> lines;
  lines.push_back("env.nproc " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));

  // Effective parallelism: k threads doing k units of work in the time one
  // thread does one unit means k usable CPUs.
  constexpr std::uint64_t iterations = 4'000'000;
  spin_ms(1, iterations / 4);  // wake the core up
  const double t1 = spin_ms(1, iterations);
  double effective = 1.0;
  std::string probe = "env.spin_probe_ms";
  for (const unsigned k : {1u, 2u, 4u}) {
    const double tk = k == 1 ? t1 : spin_ms(k, iterations);
    effective = std::max(effective, static_cast<double>(k) * t1 / tk);
    probe += " t" + std::to_string(k) + "=" + std::to_string(tk);
  }
  lines.push_back(probe);
  char buf[64];
  std::snprintf(buf, sizeof buf, "env.effective_parallelism %.2f", effective);
  lines.push_back(buf);

#if defined(__x86_64__) || defined(_M_X64)
  const bool cpu_avx2 = __builtin_cpu_supports("avx2") != 0;
  const bool built_avx2 = WAVEBENCH_AVX2_OPTION != 0;
#else
  const bool cpu_avx2 = false;
  const bool built_avx2 = false;
#endif
  lines.push_back(std::string{"env.avx2 built="} + (built_avx2 ? "1" : "0") +
                  " cpu=" + (cpu_avx2 ? "1" : "0") +
                  " dispatched=" + (built_avx2 && cpu_avx2 ? "1" : "0"));
  lines.push_back(std::string{"env.build_type "} + WAVEBENCH_BUILD_TYPE);
#if defined(WAVEMIG_FAULT_INJECTION)
  const char* fault_compiled = "1";
#else
  const char* fault_compiled = "0";
#endif
  lines.push_back(std::string{"env.fault_injection compiled_in="} + fault_compiled +
                  " armed_sites=" + std::to_string(wavemig::fault::armed_sites().size()));
  lines.push_back(std::string{"env.compiler "} + WAVEBENCH_COMPILER);
  lines.push_back(std::string{"env.processor "} + WAVEBENCH_PROCESSOR);
  return lines;
}

}  // namespace wavebench
