#include "wavemig/engine/parallel_executor.hpp"

#include <algorithm>
#include <cstring>
#include <exception>

#include "block_splice.hpp"
#include "wavemig/fault/fault_injection.hpp"
#include "wavemig/pipeline.hpp"

namespace wavemig::engine {

namespace detail {

/// Shared state of one submitted group: the task body, the countdown, and
/// the completion machinery. Deque items and `task_group` tokens hold it
/// through a shared_ptr, so the state outlives whichever of them finishes
/// last.
struct group_state {
  std::function<void(std::size_t, unsigned)> fn;
  std::atomic<std::size_t> remaining{0};
  std::atomic<bool> cancelled{false};
  mutable std::mutex mutex;
  std::condition_variable cv;
  bool done{false};
  std::exception_ptr error;
  group_callback on_complete;
};

}  // namespace detail

namespace {

/// Identity of the current thread inside a pool, so `submit` from a worker
/// lands on that worker's own deque (locality) instead of round-robin.
struct worker_identity {
  const void* owner{nullptr};
  unsigned index{0};
};
thread_local worker_identity tls_worker;

}  // namespace

// --------------------------------------------------------- task_group ---

bool task_group::done() const {
  if (!state_) {
    return true;
  }
  std::lock_guard<std::mutex> lock{state_->mutex};
  return state_->done;
}

void task_group::wait() const {
  if (!state_) {
    return;
  }
  std::unique_lock<std::mutex> lock{state_->mutex};
  state_->cv.wait(lock, [this] { return state_->done; });
}

std::exception_ptr task_group::error() const {
  if (!state_) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock{state_->mutex};
  return state_->error;
}

// ------------------------------------------------------------ executor ---

parallel_executor::parallel_executor(unsigned num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  scratch_.resize(num_threads);
  deques_.reserve(num_threads);
  for (unsigned w = 0; w < num_threads; ++w) {
    deques_.push_back(std::make_unique<work_deque>());
  }
  workers_.reserve(num_threads);
  for (unsigned w = 0; w < num_threads; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

parallel_executor::~parallel_executor() {
  {
    std::lock_guard<std::mutex> lock{sleep_mutex_};
    stop_ = true;
  }
  sleep_cv_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void parallel_executor::worker_loop(unsigned worker) {
  tls_worker = {this, worker};
  task_item item;
  while (next_item(worker, item)) {
    run_item(item, worker);
    item = task_item{};  // release the group/fn before going back to sleep
  }
  tls_worker = {};
}

bool parallel_executor::next_item(unsigned worker, task_item& item) {
  auto& own = *deques_[worker];
  const std::size_t num_workers = deques_.size();
  for (;;) {
    // Own deque first, from the front: a group's pre-partitioned range runs
    // in ascending chunk order (prefetch-friendly), plain submissions FIFO.
    {
      std::lock_guard<std::mutex> lock{own.mutex};
      if (!own.items.empty()) {
        item = std::move(own.items.front());
        own.items.pop_front();
        pending_.fetch_sub(1);
        return true;
      }
    }
    // Empty: steal a whole item (one plane-block of a group, or one plain
    // task) from the back of a victim — the work farthest from where the
    // victim is currently progressing.
    // executor.steal.delay (delay action, sleeps inside hit()): widens the
    // own-empty → steal race window so chaos runs exercise interleavings a
    // quiet machine rarely produces.
    (void)WAVEMIG_FAULT_HIT("executor.steal.delay");
    for (std::size_t i = 1; i < num_workers; ++i) {
      auto& victim = *deques_[(worker + i) % num_workers];
      std::lock_guard<std::mutex> lock{victim.mutex};
      if (!victim.items.empty()) {
        item = std::move(victim.items.back());
        victim.items.pop_back();
        pending_.fetch_sub(1);
        return true;
      }
    }
    // Nothing anywhere: park. `pending_` is incremented before an item
    // becomes visible in a deque, so a positive count here means a push is
    // in progress — loop and rescan instead of sleeping past it.
    std::unique_lock<std::mutex> lock{sleep_mutex_};
    if (pending_.load() > 0) {
      continue;
    }
    if (stop_) {
      return false;  // stop requested and every deque drained
    }
    sleepers_.fetch_add(1);
    sleep_cv_.wait(lock, [this] { return stop_ || pending_.load() > 0; });
    sleepers_.fetch_sub(1);
  }
}

void parallel_executor::run_item(task_item& item, unsigned worker) {
  // executor.worker.stall (delay/stall action, sleeps inside hit()): one
  // worker goes dark mid-pass; stealing must keep the rest of the group
  // progressing and the result bit-identical.
  (void)WAVEMIG_FAULT_HIT("executor.worker.stall");
  if (!item.group) {
    item.fn(worker);  // plain tasks must not throw (documented contract)
    return;
  }
  detail::group_state& group = *item.group;
  if (!group.cancelled.load(std::memory_order_relaxed)) {
    try {
      group.fn(item.index, worker);
    } catch (...) {
      std::lock_guard<std::mutex> lock{group.mutex};
      if (!group.error) {
        group.error = std::current_exception();
      }
      group.cancelled.store(true, std::memory_order_relaxed);
    }
  }
  if (group.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last task: publish completion, then fire the callback outside the
    // lock (it may submit follow-up work against this executor).
    group_callback on_complete;
    std::exception_ptr error;
    {
      std::lock_guard<std::mutex> lock{group.mutex};
      group.done = true;
      error = group.error;
      on_complete = std::move(group.on_complete);
    }
    group.cv.notify_all();
    if (on_complete) {
      try {
        on_complete(error);
      } catch (...) {
        // A throwing completion must not take down the worker.
      }
    }
  }
}

void parallel_executor::push_item(unsigned deque_index, task_item item) {
  auto& deque = *deques_[deque_index];
  std::lock_guard<std::mutex> lock{deque.mutex};
  deque.items.push_back(std::move(item));
}

void parallel_executor::notify_new_work(std::size_t count) {
  if (sleepers_.load() == 0) {
    return;  // every worker is already awake and will rescan
  }
  // The (empty) critical section orders this notify after any worker that
  // last saw pending_ == 0: such a worker is either fully parked (the
  // notify reaches it) or re-evaluates the predicate under the mutex and
  // sees the new count.
  { std::lock_guard<std::mutex> lock{sleep_mutex_}; }
  if (count > 1) {
    sleep_cv_.notify_all();
  } else {
    sleep_cv_.notify_one();
  }
}

void parallel_executor::submit(std::function<void(unsigned)> task) {
  task_item item;
  item.fn = std::move(task);
  const unsigned target = tls_worker.owner == this
                              ? tls_worker.index
                              : rr_next_.fetch_add(1, std::memory_order_relaxed) %
                                    static_cast<unsigned>(deques_.size());
  pending_.fetch_add(1);
  push_item(target, std::move(item));
  notify_new_work(1);
}

task_group parallel_executor::submit_group_impl(
    std::size_t num_tasks, std::function<void(std::size_t, unsigned)> fn,
    group_callback on_complete) {
  auto state = std::make_shared<detail::group_state>();
  state->fn = std::move(fn);
  if (num_tasks == 0) {
    state->done = true;
    if (on_complete) {
      try {
        on_complete(nullptr);
      } catch (...) {
      }
    }
    return task_group{std::move(state)};
  }
  state->on_complete = std::move(on_complete);
  state->remaining.store(num_tasks, std::memory_order_relaxed);

  // Contiguous pre-partition: worker (start + w) % W owns the w-th range of
  // the index space, so each worker walks an ascending contiguous run of
  // plane-blocks and stealing only rebalances the edges. `start` rotates
  // per group so concurrent small groups spread across different workers.
  const std::size_t num_workers = deques_.size();
  const unsigned start = rr_next_.fetch_add(1, std::memory_order_relaxed) %
                         static_cast<unsigned>(num_workers);
  pending_.fetch_add(num_tasks);  // before visibility: claims never underflow
  for (std::size_t w = 0; w < num_workers; ++w) {
    const std::size_t first = num_tasks * w / num_workers;
    const std::size_t last = num_tasks * (w + 1) / num_workers;
    if (first == last) {
      continue;
    }
    auto& deque = *deques_[(start + w) % num_workers];
    std::lock_guard<std::mutex> lock{deque.mutex};
    for (std::size_t t = first; t < last; ++t) {
      task_item item;
      item.group = state;
      item.index = t;
      deque.items.push_back(std::move(item));
    }
  }
  notify_new_work(num_tasks);
  return task_group{std::move(state)};
}

task_group parallel_executor::submit_group(std::size_t num_tasks,
                                           std::function<void(std::size_t, unsigned)> fn,
                                           group_callback on_complete) {
  return submit_group_impl(num_tasks, std::move(fn), std::move(on_complete));
}

void parallel_executor::for_each(std::size_t num_tasks,
                                 const std::function<void(std::size_t, unsigned)>& fn) {
  if (num_tasks == 0) {
    return;
  }
  // `fn` is captured by reference: this call blocks until the group
  // completed, so the reference outlives the tasks.
  const task_group group = submit_group_impl(
      num_tasks, [&fn](std::size_t task, unsigned worker) { fn(task, worker); }, {});
  group.wait();
  if (auto error = group.error()) {
    std::rethrow_exception(error);
  }
}

// ------------------------------------------------------- parallel run ---

packed_wave_result run_waves_parallel(const compiled_netlist& net, const wave_batch& waves,
                                      unsigned phases, parallel_executor& executor) {
  validate_packed_run(net, waves.num_pis(), phases, "run_waves_parallel");

  packed_wave_result result;
  result.num_pos = net.num_pos();
  result.num_waves = waves.num_waves();
  fill_packed_clock_metrics(result, net, phases, waves.num_waves());
  result.words.resize(waves.num_chunks() * net.num_pos());

  // One task per multi-chunk block (not per chunk), partitioned by the
  // shared shard_block_chunks policy: the multi-word kernel runs at full
  // width inside every task and dispatch overhead amortizes over the block.
  // Sharding slices the batch's plane view — same planes, offset base, no
  // copy — and every block writes a disjoint chunk range of each result
  // plane, so the assembly is deterministic by construction and the result
  // words are identical at every block size.
  const std::size_t num_chunks = waves.num_chunks();
  const std::size_t block =
      compiled_netlist::shard_block_chunks(num_chunks, executor.num_threads());
  const std::size_t num_blocks = (num_chunks + block - 1) / block;
  const wave_block_view pis = waves.view();
  const wave_block_mut_view pos{result.words.data(), num_chunks, net.num_pos(), num_chunks};
  executor.for_each(num_blocks, [&](std::size_t b, unsigned worker) {
    const std::size_t first = b * block;
    const std::size_t count = std::min(block, num_chunks - first);
    eval_packed_planes(net, pis.slice(first, count), pos.slice(first, count),
                       executor.scratch(worker));
  });
  detail::mask_result_tail(result);
  return result;
}

// ------------------------------------------------------------- stream ---

parallel_wave_stream::parallel_wave_stream(const compiled_netlist& net, unsigned phases,
                                           parallel_executor& executor,
                                           std::size_t expected_waves)
    : net_{net},
      phases_{phases},
      executor_{executor},
      expected_waves_{expected_waves},
      pending_{net.num_pis()} {
  validate_packed_run(net, net.num_pis(), phases, "parallel_wave_stream");
  pending_.reserve(block_waves);
}

parallel_wave_stream::~parallel_wave_stream() {
  // In-flight block tasks reference this stream's jobs; never die under them.
  wait_in_flight();
}

void parallel_wave_stream::push(const std::vector<bool>& wave) {
  pending_.append(wave);  // validates the width
  ++pushed_;
  if (pending_.num_waves() == block_waves) {
    dispatch_block();
  }
}

void parallel_wave_stream::ensure_direct_capacity(std::size_t needed_chunks) {
  if (direct_stride_ >= needed_chunks) {
    return;
  }
  std::size_t new_stride = std::max(needed_chunks, (expected_waves_ + 63) / 64);
  if (direct_stride_ != 0) {
    // The hint undershot: re-striding moves every plane, which must not
    // race the in-flight jobs still writing the old layout. Correctness is
    // preserved; the one-off stall is the price of a wrong hint.
    wait_in_flight();
    new_stride = std::max(needed_chunks, 2 * direct_stride_);
  }
  std::vector<std::uint64_t> grown(new_stride * net_.num_pos(), 0);
  if (chunks_dispatched_ != 0) {
    for (std::size_t p = 0; p < net_.num_pos(); ++p) {
      std::memcpy(grown.data() + p * new_stride, direct_words_.data() + p * direct_stride_,
                  chunks_dispatched_ * sizeof(std::uint64_t));
    }
  }
  direct_words_.swap(grown);
  direct_stride_ = new_stride;
}

void parallel_wave_stream::dispatch_block() {
  jobs_.emplace_back(std::move(pending_));
  pending_ = wave_batch{net_.num_pis()};
  pending_.reserve(block_waves);
  block_job* job = &jobs_.back();  // deque: stable across later push_backs
  const std::size_t chunks = job->inputs.num_chunks();

  // Hinted streams write straight into the final full-width result planes
  // at this block's chunk offset — no per-job buffer, no finish()-time
  // splice. Unhinted streams keep the per-job buffer + splice path.
  std::uint64_t* out_base;
  std::size_t out_stride;
  if (expected_waves_ != 0) {
    ensure_direct_capacity(chunks_dispatched_ + chunks);
    out_base = direct_words_.data() + chunks_dispatched_;
    out_stride = direct_stride_;
  } else {
    job->out.resize(chunks * net_.num_pos());
    out_base = job->out.data();
    out_stride = chunks;
  }
  chunks_dispatched_ += chunks;

  {
    std::lock_guard<std::mutex> lock{mutex_};
    ++in_flight_;
  }
  executor_.submit([this, job, out_base, out_stride](unsigned worker) {
    const std::size_t job_chunks = job->inputs.num_chunks();
    eval_packed_planes(net_, job->inputs.view(),
                       {out_base, out_stride, net_.num_pos(), job_chunks},
                       executor_.scratch(worker));
    completed_.fetch_add(job->inputs.num_waves(), std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock{mutex_};
    if (--in_flight_ == 0) {
      all_done_.notify_all();
    }
  });
}

void parallel_wave_stream::wait_in_flight() {
  std::unique_lock<std::mutex> lock{mutex_};
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

packed_wave_result parallel_wave_stream::finish() {
  if (!pending_.empty()) {
    dispatch_block();
  }
  wait_in_flight();

  packed_wave_result result;
  result.num_pos = net_.num_pos();
  result.num_waves = pushed_;
  fill_packed_clock_metrics(result, net_, phases_, pushed_);
  const std::size_t total_chunks = result.num_chunks();
  if (expected_waves_ != 0) {
    // Direct-write path: blocks already landed at their final chunk
    // offsets. An exact (or matching) hint hands the buffer over as-is; an
    // overshot hint compacts each plane down to the result stride first
    // (ascending planes: the destination never overruns the source).
    if (direct_stride_ > total_chunks) {
      for (std::size_t p = 0; p < result.num_pos; ++p) {
        std::memmove(direct_words_.data() + p * total_chunks,
                     direct_words_.data() + p * direct_stride_,
                     total_chunks * sizeof(std::uint64_t));
      }
    }
    direct_words_.resize(total_chunks * result.num_pos);
    result.words = std::move(direct_words_);
    direct_words_ = {};
    direct_stride_ = 0;
  } else if (jobs_.size() == 1) {
    // A single block already has the result's plane stride.
    result.words = std::move(jobs_.front().out);
  } else if (!jobs_.empty()) {
    // Splice each job's plane-major block (stride == its own chunk count)
    // into the full-width result planes — contiguous chunk-word copies, in
    // push order, so the words are bit-identical to the single-threaded
    // packed path.
    result.words.resize(total_chunks * net_.num_pos());
    std::size_t chunk_offset = 0;
    for (const auto& job : jobs_) {
      const std::size_t job_chunks = job.inputs.num_chunks();
      detail::splice_block_planes(job.out.data(), job_chunks, result.words.data(),
                                  total_chunks, chunk_offset, net_.num_pos());
      chunk_offset += job_chunks;
    }
  }
  detail::mask_result_tail(result);

  jobs_.clear();
  chunks_dispatched_ = 0;
  pushed_ = 0;
  completed_.store(0, std::memory_order_relaxed);
  return result;
}

// ------------------------------------------------------------ session ---

std::uint64_t network_fingerprint(const mig_network& net) {
  constexpr std::uint64_t offset = 1469598103934665603ull;
  constexpr std::uint64_t prime = 1099511628211ull;
  std::uint64_t h = offset;
  const auto mix = [&](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((v >> (8 * byte)) & 0xffu)) * prime;
    }
  };
  mix(net.num_pis());
  net.foreach_node([&](node_index n) {
    mix(static_cast<std::uint64_t>(net.kind(n)));
    if (net.is_pi(n)) {
      mix(net.pi_position(n));
    }
    for (const signal f : net.fanins(n)) {
      mix((static_cast<std::uint64_t>(f.index()) << 1) |
          static_cast<std::uint64_t>(f.is_complemented()));
    }
  });
  for (const auto& po : net.pos()) {
    mix((static_cast<std::uint64_t>(po.driver.index()) << 1) |
        static_cast<std::uint64_t>(po.driver.is_complemented()));
  }
  return h;
}

std::size_t batch_session::cache_key_hash::operator()(const cache_key& k) const noexcept {
  std::uint64_t h = k.fingerprint;
  h ^= (static_cast<std::uint64_t>(k.strategy) + 1) * 0x9e3779b97f4a7c15ull;
  h ^= (static_cast<std::uint64_t>(k.phases) + 1) * 0xbf58476d1ce4e5b9ull;
  h ^= (k.scenario + 1) * 0x94d049bb133111ebull;
  h ^= (k.options + 1) * 0x2545f4914f6cdd1dull;
  return static_cast<std::size_t>(h ^ (h >> 32));
}

batch_session::batch_session(parallel_executor& executor, buffer_insertion_options options,
                             cache_limits limits, compile_options compile)
    : executor_{executor}, options_{options}, limits_{limits}, compile_options_{compile} {}

void batch_session::evict_to_limits() {
  while (!lru_.empty() &&
         ((limits_.max_entries != 0 && cache_.size() > limits_.max_entries) ||
          (limits_.max_bytes != 0 && bytes_ > limits_.max_bytes))) {
    const auto it = cache_.find(lru_.back());
    bytes_ -= it->second.bytes;
    cache_.erase(it);
    lru_.pop_back();
    ++evictions_;
  }
}

std::shared_ptr<const compiled_netlist> batch_session::compile(const mig_network& net,
                                                               unsigned phases) {
  return compile(net, phases, network_fingerprint(net));
}

std::shared_ptr<const compiled_netlist> batch_session::lookup(const cache_key& key) {
  std::lock_guard<std::mutex> lock{mutex_};
  if (const auto it = cache_.find(key); it != cache_.end()) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.program;
  }
  return nullptr;
}

std::shared_ptr<const compiled_netlist> batch_session::insert(
    const cache_key& key, std::shared_ptr<const compiled_netlist> fresh) {
  std::lock_guard<std::mutex> lock{mutex_};
  ++misses_;
  const auto [it, inserted] = cache_.try_emplace(key);
  if (inserted) {
    it->second.program = std::move(fresh);
    it->second.bytes = it->second.program->memory_bytes();
    lru_.push_front(key);
    it->second.lru_pos = lru_.begin();
    bytes_ += it->second.bytes;
  } else {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  }
  // Hold our own reference before eviction: when this entry alone exceeds
  // max_bytes it is evicted immediately, yet the caller's run proceeds.
  auto program = it->second.program;
  evict_to_limits();
  return program;
}

std::shared_ptr<const compiled_netlist> batch_session::compile(const mig_network& net,
                                                               unsigned phases,
                                                               std::uint64_t fingerprint) {
  return compile(net, phases, fingerprint, compile_options_);
}

std::shared_ptr<const compiled_netlist> batch_session::compile(const mig_network& net,
                                                               unsigned phases,
                                                               std::uint64_t fingerprint,
                                                               const compile_options& opts) {
  const cache_key key{fingerprint, options_.strategy, phases, 0, options_fingerprint(opts)};
  if (auto program = lookup(key)) {
    return program;
  }

  // Balance + lower + optimize outside the lock; a concurrent miss on the
  // same key compiles the identical program and the first insert wins.
  const auto balanced = insert_buffers(net, options_);
  return insert(key,
                std::make_shared<const compiled_netlist>(balanced.net, balanced.schedule, opts));
}

std::shared_ptr<const compiled_netlist> batch_session::compile(const mig_network& net,
                                                               unsigned phases,
                                                               const tech_scenario& scenario) {
  return compile(net, phases, network_fingerprint(net), scenario);
}

std::shared_ptr<const compiled_netlist> batch_session::compile(const mig_network& net,
                                                               unsigned phases,
                                                               std::uint64_t fingerprint,
                                                               const tech_scenario& scenario) {
  return compile(net, phases, fingerprint, scenario, compile_options_);
}

std::shared_ptr<const compiled_netlist> batch_session::compile(const mig_network& net,
                                                               unsigned phases,
                                                               std::uint64_t fingerprint,
                                                               const tech_scenario& scenario,
                                                               const compile_options& opts) {
  // The effective options — scenario tag and FDM lane count applied on top
  // of the session/request base — are computed *before* the key, so the
  // options fingerprint in the key always describes exactly the program
  // the entry holds.
  compile_options tagged = opts;
  tagged.scenario_fingerprint = scenario.fingerprint();
  tagged.fdm_lanes = scenario.fdm_lanes;
  const cache_key key{fingerprint, options_.strategy, phases, tagged.scenario_fingerprint,
                      options_fingerprint(tagged)};
  if (auto program = lookup(key)) {
    return program;
  }

  // Scenario preparation runs the full pipeline — fan-out restriction at
  // the scenario's capability, loss-budget repeaters, then balancing with
  // this session's strategy/schedule — and the lowered program carries the
  // scenario tag and FDM lane count in its compile options.
  pipeline_options prep;
  prep.scenario = scenario;
  prep.strategy = options_.strategy;
  prep.schedule = options_.schedule;
  auto prepared = wave_pipeline(net, prep);

  return insert(key, std::make_shared<const compiled_netlist>(prepared.net, tagged));
}

packed_wave_result batch_session::run(const mig_network& net, const wave_batch& waves,
                                      unsigned phases) {
  const auto compiled = compile(net, phases);
  return run_waves_parallel(*compiled, waves, phases, executor_);
}

packed_wave_result batch_session::run(const mig_network& net, const wave_batch& waves,
                                      unsigned phases, const tech_scenario& scenario) {
  const auto compiled = compile(net, phases, scenario);
  return run_waves_parallel(*compiled, waves, phases, executor_);
}

session_stats batch_session::stats() const {
  std::lock_guard<std::mutex> lock{mutex_};
  session_stats s{hits_, misses_, evictions_, cache_.size(), bytes_, 0, 0};
  for (const auto& [key, entry] : cache_) {
    s.comb_ops += entry.program->num_comb_ops();
    s.comb_slots += entry.program->comb_slot_count();
  }
  return s;
}

std::size_t batch_session::cached_netlists() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return cache_.size();
}

std::uint64_t batch_session::cache_hits() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return hits_;
}

std::uint64_t batch_session::cache_misses() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return misses_;
}

}  // namespace wavemig::engine
