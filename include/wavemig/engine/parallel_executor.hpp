#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "wavemig/buffer_insertion.hpp"
#include "wavemig/engine/compiled_netlist.hpp"
#include "wavemig/engine/wave_engine.hpp"
#include "wavemig/tech_scenario.hpp"

namespace wavemig::engine {

namespace detail {
struct group_state;
}  // namespace detail

/// Fired exactly once when a submitted group completes, on the worker that
/// finished its last task; `error` is the group's first exception (null on
/// success). It is the group's only completion signal. Keep it light — it
/// occupies a worker lane — and never block on the executor from inside it.
using group_callback = std::function<void(std::exception_ptr)>;

/// Persistent worker pool for sharded packed execution. Workers are spawned
/// once and reused across runs, and each worker owns a scratch buffer that
/// the chunk kernel reuses, so the steady-state hot path performs no
/// allocation and no thread creation.
///
/// Scheduling is work-stealing over per-worker deques: every worker owns a
/// deque of tasks and pushes/pops it under its own (uncontended) lock; a
/// sharded run pre-partitions its plane-block tasks contiguously across the
/// worker deques, so each worker walks its own ascending chunk range
/// (prefetch-friendly) and only when its deque runs dry does it steal whole
/// plane-blocks from the *back* of a victim's deque — the blocks farthest
/// from where the victim is currently working. There is no single global
/// queue mutex on the hot path: concurrent sessions and sharded runs
/// contend only when they actually steal from each other.
///
/// One entry point, `submit_group`, shards an index space over the deques
/// and returns at once; its completion callback is the only completion
/// signal. The packed core (run_waves_parallel and the serving dispatcher)
/// runs every sharded pass through it. Safe to call from multiple threads
/// concurrently.
///
/// Precondition: never *block on* the pool (`run_waves_parallel`,
/// `batch_session::run`, or a wait on a group's callback) from inside a
/// task running on the same executor — the blocked worker is the one that
/// would have to run the awaited tasks, which deadlocks. `submit_group`
/// without waiting is fine from inside tasks.
class parallel_executor {
public:
  /// `num_threads == 0` resolves to the hardware concurrency (at least 1).
  explicit parallel_executor(unsigned num_threads = 0);
  ~parallel_executor();

  parallel_executor(const parallel_executor&) = delete;
  parallel_executor& operator=(const parallel_executor&) = delete;

  [[nodiscard]] unsigned num_threads() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueues `fn(task, worker)` for every task in [0, num_tasks) and
  /// returns without waiting. Tasks are pre-partitioned contiguously across
  /// the workers and rebalanced by stealing; `worker` is the stable index of
  /// the executing worker in [0, num_threads()). The executor owns `fn`
  /// until the group completes. `on_complete` (optional) fires exactly
  /// once, on the worker that finishes the group's last task, with the
  /// group's first error (null on success); a group of zero tasks fires it
  /// before `submit_group` returns, on the calling thread. An exception from
  /// a task cancels the group's tasks that have not started yet.
  void submit_group(std::size_t num_tasks, std::function<void(std::size_t, unsigned)> fn,
                    group_callback on_complete = {});

  /// Reusable per-worker scratch for the packed chunk kernel. Only the
  /// worker with index `worker` may touch it while tasks are running.
  [[nodiscard]] std::vector<std::uint64_t>& scratch(unsigned worker) {
    return scratch_[worker];
  }

private:
  /// One queued unit of work: task `index` of a sharded group. Items carry a
  /// shared reference to the group, so an item survives in a deque (or in a
  /// thief's hands) past any other item's completion.
  struct task_item {
    std::shared_ptr<detail::group_state> group;
    std::size_t index{0};
  };

  /// Per-worker deque. The owner pushes/pops the front, thieves take from
  /// the back; the mutex is uncontended unless someone is actually
  /// stealing. Padding out to a cache line would be a further refinement;
  /// the mutex already keeps false sharing off the hot path.
  struct work_deque {
    std::mutex mutex;
    std::deque<task_item> items;
  };

  void worker_loop(unsigned worker);
  /// Pops the next item for `worker` (own deque first, then steals). False
  /// when the executor is stopping and every deque is drained.
  bool next_item(unsigned worker, task_item& item);
  void run_item(task_item& item, unsigned worker);
  /// Wakes sleepers after `count` new items were made visible.
  void notify_new_work(std::size_t count);

  std::vector<std::vector<std::uint64_t>> scratch_;
  std::vector<std::unique_ptr<work_deque>> deques_;
  std::atomic<std::size_t> pending_{0};   ///< queued items across all deques
  std::atomic<unsigned> sleepers_{0};     ///< workers parked on sleep_cv_
  std::atomic<unsigned> rr_next_{0};      ///< rotates each group's first worker
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  bool stop_{false};                      ///< guarded by sleep_mutex_
  std::vector<std::thread> workers_;  // last member: joins before the rest dies
};

/// Sharded packed execution: identical contract and bit-identical result
/// words to `run_waves_packed`. The batch is one member of the packed core,
/// cut into multi-chunk blocks — full kernel width on big batches,
/// shrinking toward one chunk per block when the batch is too small to feed
/// every worker at full width — that run as one `submit_group`. Each block
/// reads its chunk range of the batch's planes in place and writes the same
/// range of every result plane, so assembly is deterministic regardless of
/// completion order and identical at every block size. Blocks the calling
/// thread until the group's completion callback fired.
packed_wave_result run_waves_parallel(const compiled_netlist& net, const wave_batch& waves,
                                      unsigned phases, parallel_executor& executor);

/// Order-sensitive structural fingerprint of a network: FNV-1a over node
/// kinds, fan-in references, PI positions, and output drivers. Networks
/// that compile to different programs fingerprint differently (modulo
/// 64-bit collisions); names are deliberately excluded — they do not affect
/// execution.
[[nodiscard]] std::uint64_t network_fingerprint(const mig_network& net);

/// Bounds for a session's compiled-netlist cache. A value of 0 leaves the
/// corresponding dimension unbounded (the PR-2 behavior: cache everything
/// forever). `max_bytes` is charged per entry via
/// `compiled_netlist::memory_bytes()` and is a hard ceiling: the cache
/// evicts until it is back under the bound, even when that means the entry
/// that was inserted a moment ago — requests already holding the program
/// keep it alive through their shared_ptr, so eviction never invalidates an
/// in-flight run.
struct cache_limits {
  std::size_t max_entries{0};
  std::size_t max_bytes{0};
};

/// Point-in-time counters of a session's compiled-netlist cache. `hits` /
/// `misses` / `evictions` are monotonic over the session's lifetime;
/// `entries` / `bytes` describe what is resident right now (`bytes` never
/// exceeds `cache_limits::max_bytes` when that bound is set).
struct session_stats {
  std::uint64_t hits{0};
  std::uint64_t misses{0};
  std::uint64_t evictions{0};
  std::size_t entries{0};
  std::size_t bytes{0};
};

/// Serving-style compiled-netlist cache: the first batch against a network
/// compiles the program of its balanced netlist (`insert_buffers` with the
/// session options) once, without building a buffer — the gates of the
/// unbalanced netlist, clocked by `plan_balance`; every later batch against
/// a structurally identical network reuses the cached program. Keyed by
/// (network fingerprint, buffer strategy, phases), so one session can
/// interleave requests against many circuits without re-lowering any of
/// them.
///
/// Long-lived sessions can bound the cache with `cache_limits`: entries are
/// evicted least-recently-used first whenever the entry or byte bound is
/// exceeded. Programs are refcounted (`shared_ptr`), so evicting an entry
/// whose program a request still executes only drops the cache's reference;
/// the run completes on its own copy and the memory is released when the
/// last request finishes.
///
/// Thread-safe: concurrent `run`/`compile` calls may share the session and
/// its executor. Two threads missing on the same key may both compile; one
/// result wins the cache, both runs are correct.
///
/// The lowered program itself does not depend on `phases` (coherence is
/// checked at run time), so a circuit served at several phase counts keeps
/// one entry per count — a little redundant memory in exchange for a key
/// that stays valid if lowering ever becomes phase-specialized.
class batch_session {
public:
  /// `compile` controls the post-lowering optimizer every cached program is
  /// built with (see engine/optimizer.hpp); results are bit-identical at
  /// every level, so serving sessions can default to the highest one.
  explicit batch_session(parallel_executor& executor,
                         buffer_insertion_options options = {}, cache_limits limits = {},
                         compile_options compile = {});

  /// The cache lookup: returns the prepared and lowered program for `net`,
  /// compiling on a miss and touching the LRU order on a hit. The returned
  /// reference keeps the program alive independently of any later eviction.
  ///
  /// A miss builds no balancing buffer. It lowers the unbalanced netlist and
  /// takes depth, PO levels and edge spans from `plan_balance`, which gives
  /// the program — comb ops, slots and clock metadata — that lowering the
  /// balanced netlist under its schedule would: every served program is
  /// fired by the balancer's one clock. Only the packed program is cached;
  /// the cycle-accurate `tick_program` is never built here.
  ///
  /// * `scenario` — null means none: the miss plans `insert_buffers` with
  ///   the session options, refusing exactly what it refuses (a tree under
  ///   a fan-out limit too small for a driver throws std::invalid_argument,
  ///   before anything is cached or counted), and the entry is untagged,
  ///   equal to `compiled_netlist{b.net, b.schedule}` with
  ///   `b = insert_buffers(net, options)`. Otherwise the miss runs
  ///   wave_pipeline's fan-out restriction and loss budget
  ///   (`prepared = prepare_for_balancing(net, prep)`, with this session's
  ///   strategy and schedule and the scenario's fan-out limit and loss
  ///   budget) and plans the balancing wave_pipeline would do: the program
  ///   equals `compiled_netlist{b.net, b.schedule}` with
  ///   `b = insert_buffers(prepared, balance_options(prep))`, which under
  ///   `asap` is `compiled_netlist{wave_pipeline(net, prep).net}`. It
  ///   carries the scenario fingerprint and FDM lane count in its compile
  ///   options, and the key gains the scenario fingerprint — so the same
  ///   netlist under two scenarios, or with and without one, occupies
  ///   distinct entries.
  /// * `opts` — per-program compile options; nullopt means the session's.
  ///   Every key carries the options fingerprint, so the same netlist at two
  ///   opt levels occupies two entries and can never cross-serve.
  /// * `fingerprint` — for callers that already hashed the network (the
  ///   serving dispatcher memoizes it per shared network): a hot hit is then
  ///   one hash-map lookup plus an LRU splice, with no O(network) re-hash.
  ///   It must equal `network_fingerprint(net)`; anything else silently
  ///   serves the wrong program.
  ///
  /// Throws std::invalid_argument when `phases == 0`, before the cache is
  /// touched, so a malformed request neither compiles nor evicts anything.
  [[nodiscard]] std::shared_ptr<const compiled_netlist> compile(
      const mig_network& net, unsigned phases, const tech_scenario* scenario = nullptr,
      const std::optional<compile_options>& opts = std::nullopt,
      std::optional<std::uint64_t> fingerprint = std::nullopt);

  /// `compile` (with the session's options), then `run_waves_parallel` on
  /// the executor. The returned words are bit-identical to
  /// `run_waves_packed` on the prepared network.
  packed_wave_result run(const mig_network& net, const wave_batch& waves, unsigned phases,
                         const tech_scenario* scenario = nullptr);

  [[nodiscard]] session_stats stats() const;

private:
  struct cache_key {
    std::uint64_t fingerprint;
    buffer_strategy strategy;
    unsigned phases;
    /// tech_scenario::fingerprint() of the request's scenario; 0 = untagged
    /// (the scenario-less compile path — tech_scenario fingerprints are
    /// never 0).
    std::uint64_t scenario{0};
    /// options_fingerprint() of the full effective compile_options the
    /// program was built with (opt level, scenario tag, FDM lanes). Two
    /// compiles of the same network under different options are different
    /// executable programs and must never share an entry.
    std::uint64_t options{0};
    friend bool operator==(const cache_key&, const cache_key&) = default;
  };
  struct cache_key_hash {
    std::size_t operator()(const cache_key& k) const noexcept;
  };
  struct cache_entry {
    std::shared_ptr<const compiled_netlist> program;
    std::size_t bytes{0};
    std::list<cache_key>::iterator lru_pos;
  };

  /// Pops LRU entries until both bounds hold again. Caller holds mutex_.
  void evict_to_limits();
  /// Cache-hit half of compile: touches the LRU order and returns the
  /// program, or null on a miss. Takes mutex_.
  [[nodiscard]] std::shared_ptr<const compiled_netlist> lookup(const cache_key& key);
  /// Miss half: inserts `fresh` (first insert wins on a racing miss),
  /// evicts to limits, and returns the surviving program. Takes mutex_.
  [[nodiscard]] std::shared_ptr<const compiled_netlist> insert(
      const cache_key& key, std::shared_ptr<const compiled_netlist> fresh);

  parallel_executor& executor_;
  buffer_insertion_options options_;
  cache_limits limits_;
  compile_options compile_options_;
  mutable std::mutex mutex_;
  std::list<cache_key> lru_;  // front = most recently used
  std::unordered_map<cache_key, cache_entry, cache_key_hash> cache_;
  std::size_t bytes_{0};
  std::uint64_t hits_{0};
  std::uint64_t misses_{0};
  std::uint64_t evictions_{0};
};

}  // namespace wavemig::engine
