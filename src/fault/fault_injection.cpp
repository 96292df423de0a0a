#include "wavemig/fault/fault_injection.hpp"

#include <cstdlib>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_map>

namespace wavemig::fault {

namespace detail {
std::atomic<std::size_t> armed_count{0};
}  // namespace detail

namespace {

struct site_state {
  fault_config config;
  bool armed{false};
  std::uint64_t hits{0};   ///< counted while armed
  std::uint64_t fires{0};  ///< trigger firings since arm() (survives disarm)
};

struct registry {
  std::mutex mutex;
  std::unordered_map<std::string, site_state> sites;
  std::mt19937_64 rng{read_seed()};
  std::uint64_t seed{read_seed()};

  static std::uint64_t read_seed() {
    if (const char* env = std::getenv("WAVEMIG_FAULT_SEED")) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(env, &end, 10);
      if (end != env && *end == '\0') {
        return static_cast<std::uint64_t>(v);
      }
    }
    return 0xC0FFEE5EEDull;  // fixed default: chaos runs reproduce by default
  }

  static registry& instance() {
    static registry r;
    return r;
  }
};

}  // namespace

void arm(const std::string& site, fault_config config) {
  auto& reg = registry::instance();
  std::lock_guard<std::mutex> lock{reg.mutex};
  auto& state = reg.sites[site];
  if (!state.armed) {
    detail::armed_count.fetch_add(1, std::memory_order_relaxed);
  }
  state.armed = true;
  state.config = config;
  state.hits = 0;
  state.fires = 0;
}

void disarm(const std::string& site) {
  auto& reg = registry::instance();
  std::lock_guard<std::mutex> lock{reg.mutex};
  const auto it = reg.sites.find(site);
  if (it != reg.sites.end() && it->second.armed) {
    it->second.armed = false;
    detail::armed_count.fetch_sub(1, std::memory_order_relaxed);
  }
}

void disarm_all() {
  auto& reg = registry::instance();
  std::lock_guard<std::mutex> lock{reg.mutex};
  for (auto& [name, state] : reg.sites) {
    if (state.armed) {
      state.armed = false;
      detail::armed_count.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

std::uint64_t fire_count(const std::string& site) {
  auto& reg = registry::instance();
  std::lock_guard<std::mutex> lock{reg.mutex};
  const auto it = reg.sites.find(site);
  return it == reg.sites.end() ? 0 : it->second.fires;
}

std::uint64_t hit_count(const std::string& site) {
  auto& reg = registry::instance();
  std::lock_guard<std::mutex> lock{reg.mutex};
  const auto it = reg.sites.find(site);
  return it == reg.sites.end() ? 0 : it->second.hits;
}

std::uint64_t seed() { return registry::instance().seed; }

std::vector<std::string> armed_sites() {
  auto& reg = registry::instance();
  std::lock_guard<std::mutex> lock{reg.mutex};
  std::vector<std::string> names;
  for (const auto& [name, state] : reg.sites) {
    if (state.armed) {
      names.push_back(name);
    }
  }
  return names;
}

fault_result hit(const char* site) {
  auto& reg = registry::instance();
  fault_result result;
  {
    std::lock_guard<std::mutex> lock{reg.mutex};
    const auto it = reg.sites.find(site);
    if (it == reg.sites.end() || !it->second.armed) {
      return result;
    }
    site_state& state = it->second;
    ++state.hits;
    const std::uint64_t nth = state.config.every_nth == 0 ? 1 : state.config.every_nth;
    if (state.hits % nth != 0) {
      return result;
    }
    if (state.config.probability < 1.0) {
      std::uniform_real_distribution<double> dist{0.0, 1.0};
      if (dist(reg.rng) >= state.config.probability) {
        return result;
      }
    }
    ++state.fires;
    result.fired = true;
    result.action = state.config.action;
    result.delay = state.config.delay;
    result.max_bytes = state.config.max_bytes;
    if (state.config.one_shot) {
      state.armed = false;
      detail::armed_count.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  // Delay/stall actions sleep right here (outside the lock), so most sites
  // need nothing beyond the `.fired` branch they already have.
  if (result.action == fault_action::delay || result.action == fault_action::stall) {
    if (result.delay.count() > 0) {
      std::this_thread::sleep_for(result.delay);
    }
  }
  return result;
}

}  // namespace wavemig::fault
