#include "mpisim/mpisim.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "mpisim/fiber.hpp"
#include "trace/flight.hpp"
#include "trace/trace.hpp"

namespace hpsum::mpisim {

namespace {
namespace flight = trace::flight;

/// Default worker rule: one worker (OS thread) per rank up to here,
/// hardware_concurrency workers above (docs/MPISIM.md).
constexpr int kOneWorkerPerRankLimit = 128;

/// memcpy with the zero-length case allowed: empty messages and
/// zero-count collectives hand us null/empty vector data(), which the
/// raw memcpy contract (nonnull attributes) forbids even for n == 0.
void copy_bytes(void* dst, const void* src, std::size_t n) {
  if (n > 0) std::memcpy(dst, src, n);
}

void check_user_tag(int tag) {
  if (tag < 0 || tag >= kUserTagLimit) {
    throw std::invalid_argument(
        "mpisim: user tag " + std::to_string(tag) + " outside [0, " +
        std::to_string(kUserTagLimit) +
        ") — tags at and above the limit are reserved for collectives");
  }
}

}  // namespace

/// Shared state for one run(): one fiber and mailbox (the "network") per
/// rank, the barrier, the worker wake channels, the poison latch, and run
/// statistics. Rank r's fiber runs on worker r % workers.
class Runtime {
 public:
  struct Message {
    int source = 0;
    int tag = 0;
    std::vector<std::byte> data;
  };

  /// Creates one suspended fiber per rank running `body`. The first real
  /// failure poisons the runtime (waking every blocked peer); the
  /// resulting RankAborted cascade on other ranks is expected and not
  /// re-recorded.
  Runtime(int nranks, int workers, const std::function<void(Comm&)>& body)
      : nranks_(nranks),
        ranks_(static_cast<std::size_t>(nranks)),
        workers_(static_cast<std::size_t>(workers)) {
    for (int r = 0; r < nranks; ++r) {
      rank_state(r).fiber = std::make_unique<detail::Fiber>([this, &body, r] {
        Comm comm(*this, r);
        try {
          body(comm);
        } catch (const RankAborted&) {
          // A peer failed first; the root cause is already recorded.
        } catch (...) {
          poison(std::current_exception());
        }
      });
    }
  }

  [[nodiscard]] int size() const noexcept { return nranks_; }

  [[nodiscard]] bool poisoned() const noexcept {
    return poisoned_.load(std::memory_order_acquire);
  }

  /// Throws RankAborted if a peer rank has failed — called on entry to
  /// every blocking primitive so no rank can hang on a dead peer.
  void abort_check() const {
    if (poisoned()) throw RankAborted();
  }

  /// Records the first failure and wakes every worker; each blocked
  /// recv/barrier then observes the flag and throws RankAborted.
  void poison(std::exception_ptr err) {
    {
      const std::lock_guard<std::mutex> lock(err_mu_);
      if (!first_error_) first_error_ = std::move(err);
    }
    poisoned_.store(true, std::memory_order_release);
    wake_all_workers();
  }

  [[nodiscard]] std::exception_ptr first_error() {
    const std::lock_guard<std::mutex> lock(err_mu_);
    return first_error_;
  }

  /// Delivers a deep-copied message into `dest`'s mailbox.
  void post(int dest, Message msg) {
    check_rank(dest);
    Rank& box = rank_state(dest);
    {
      const std::lock_guard<std::mutex> lock(box.mu);
      box.queue.push_back(std::move(msg));
    }
    wake_worker(dest % static_cast<int>(workers_.size()));
  }

  /// Called on `dest`'s own fiber: yields until a message from
  /// (source, tag) is queued, then removes and returns it. Throws
  /// RankAborted once the runtime is poisoned (instead of waiting for a
  /// message that will never come).
  Message take(int dest, int source, int tag) {
    check_rank(source);
    Rank& me = rank_state(dest);
    for (;;) {
      {
        const std::lock_guard<std::mutex> lock(me.mu);
        if (poisoned()) throw RankAborted();
        if (auto msg = match(me, source, tag)) {
          me.block = Block::kNone;
          return std::move(*msg);
        }
        // Register the wait reason while holding the mailbox lock: a post
        // landing after this scan bumps our worker's epoch, so the yield
        // below cannot miss it.
        me.block = Block::kRecv;
        me.src = source;
        me.tag = tag;
      }
      detail::Fiber::yield();
    }
  }

  /// Generation-counter barrier, called on `rank`'s own fiber (std::barrier
  /// cannot be interrupted, and the abort protocol needs to wake waiters
  /// on poison).
  void barrier_wait(int rank) {
    Rank& me = rank_state(rank);
    std::unique_lock<std::mutex> lock(bar_mu_);
    if (poisoned()) throw RankAborted();
    const std::uint64_t my_gen = bar_gen_.load(std::memory_order_relaxed);
    if (++bar_arrived_ == nranks_) {
      bar_arrived_ = 0;
      bar_gen_.store(my_gen + 1, std::memory_order_release);
      lock.unlock();
      wake_all_workers();
      return;
    }
    me.block = Block::kBarrier;
    me.barrier_gen = my_gen;
    lock.unlock();
    while (bar_gen_.load(std::memory_order_acquire) == my_gen) {
      if (poisoned()) {
        me.block = Block::kNone;
        throw RankAborted();
      }
      detail::Fiber::yield();
    }
    me.block = Block::kNone;
  }

  /// Worker `w`'s scheduler: resumes its runnable rank fibers until all of
  /// them have finished, sleeping on its epoch when none can progress.
  void work(int w) {
    const int stride = static_cast<int>(workers_.size());
    std::vector<Rank*> mine;
    for (int r = w; r < nranks_; r += stride) mine.push_back(&rank_state(r));
    // A worker hosting one rank is that rank's lane (rank w), exactly as a
    // dedicated rank thread would be.
    flight::set_track(mine.size() == 1 ? "mpisim" : "mpisim.mux", w, 0);
    Worker& me = workers_[static_cast<std::size_t>(w)];
    std::size_t live = mine.size();
    while (live > 0) {
      std::uint64_t seen = 0;
      {
        const std::lock_guard<std::mutex> lock(me.mu);
        seen = me.epoch;
      }
      bool progressed = false;
      for (Rank* c : mine) {
        if (c->fiber->finished() || !ready(*c)) continue;
        c->fiber->resume();
        progressed = true;
        if (c->fiber->finished()) --live;
      }
      if (live > 0 && !progressed) {
        // Sleep until the epoch moves past the pre-scan snapshot: any wake
        // that raced the scan is caught by the predicate, not lost.
        std::unique_lock<std::mutex> lock(me.mu);
        me.cv.wait(lock, [&] { return me.epoch != seen; });
      }
    }
  }

  void note_message(std::size_t bytes) {
    stat_messages_.fetch_add(1, std::memory_order_relaxed);
    stat_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void note_wire(std::size_t raw_bytes, std::size_t encoded_bytes) {
    stat_wire_raw_.fetch_add(raw_bytes, std::memory_order_relaxed);
    stat_wire_encoded_.fetch_add(encoded_bytes, std::memory_order_relaxed);
  }

  [[nodiscard]] RunStats stats_snapshot() const {
    RunStats s;
    s.messages = stat_messages_.load(std::memory_order_relaxed);
    s.bytes_sent = stat_bytes_.load(std::memory_order_relaxed);
    s.wire_raw_bytes = stat_wire_raw_.load(std::memory_order_relaxed);
    s.wire_encoded_bytes = stat_wire_encoded_.load(std::memory_order_relaxed);
    s.workers = static_cast<int>(workers_.size());
    return s;
  }

 private:
  enum class Block { kNone, kRecv, kBarrier };

  /// One rank: its mailbox, its fiber, and why the fiber is blocked. The
  /// block fields are written and read only on the rank's own worker
  /// thread (the fiber runs there), so they need no locking; ready()
  /// re-derives readiness from the locked mailbox and the barrier counter.
  struct Rank {
    std::mutex mu;  ///< guards queue
    std::deque<Message> queue;
    std::unique_ptr<detail::Fiber> fiber;
    Block block = Block::kNone;
    int src = -1;
    int tag = -1;
    std::uint64_t barrier_gen = 0;
  };

  /// A worker's wake channel: it sleeps until its epoch moves (message for
  /// one of its ranks, barrier release, or poison).
  struct Worker {
    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t epoch = 0;
  };

  [[nodiscard]] Rank& rank_state(int r) {
    return ranks_[static_cast<std::size_t>(r)];
  }

  static std::optional<Message> match(Rank& box, int source, int tag) {
    const auto it = std::find_if(
        box.queue.begin(), box.queue.end(), [&](const Message& m) {
          return m.source == source && m.tag == tag;
        });
    if (it == box.queue.end()) return std::nullopt;
    Message msg = std::move(*it);
    box.queue.erase(it);
    return msg;
  }

  /// May this rank's fiber make progress?
  [[nodiscard]] bool ready(Rank& c) {
    if (poisoned()) return true;
    switch (c.block) {
      case Block::kNone:
        return true;
      case Block::kBarrier:
        return bar_gen_.load(std::memory_order_acquire) != c.barrier_gen;
      case Block::kRecv: {
        const std::lock_guard<std::mutex> lock(c.mu);
        return std::any_of(c.queue.begin(), c.queue.end(),
                           [&](const Message& m) {
                             return m.source == c.src && m.tag == c.tag;
                           });
      }
    }
    return true;
  }

  void wake_worker(int w) {
    Worker& wk = workers_[static_cast<std::size_t>(w)];
    {
      const std::lock_guard<std::mutex> lock(wk.mu);
      ++wk.epoch;
    }
    wk.cv.notify_all();
  }

  void wake_all_workers() {
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      wake_worker(static_cast<int>(w));
    }
  }

  void check_rank(int r) const {
    if (r < 0 || r >= nranks_) {
      throw std::out_of_range("mpisim: rank out of range");
    }
  }

  int nranks_;
  std::vector<Rank> ranks_;
  std::vector<Worker> workers_;

  std::mutex bar_mu_;
  int bar_arrived_ = 0;
  std::atomic<std::uint64_t> bar_gen_{0};

  std::atomic<bool> poisoned_{false};
  std::mutex err_mu_;
  std::exception_ptr first_error_;

  std::atomic<std::uint64_t> stat_messages_{0};
  std::atomic<std::uint64_t> stat_bytes_{0};
  std::atomic<std::uint64_t> stat_wire_raw_{0};
  std::atomic<std::uint64_t> stat_wire_encoded_{0};
};

int Comm::size() const noexcept { return rt_->size(); }

void Comm::send_raw(int dest, int tag, const void* buf, std::size_t bytes) {
  rt_->abort_check();
  trace::count(trace::Counter::kMpisimMessages);
  trace::count(trace::Counter::kMpisimBytesSent, bytes);
  trace::observe(trace::Hist::kMpisimMsgBytes, bytes);
  rt_->note_message(bytes);
  flight::instant(
      flight::EventId::kMpiSend,
      flight::pack_pair(static_cast<std::uint64_t>(rank_),
                        static_cast<std::uint64_t>(dest)),
      flight::pack_pair(flight::current_reduction_id(), bytes));
  Runtime::Message msg;
  msg.source = rank_;
  msg.tag = tag;
  const auto* p = static_cast<const std::byte*>(buf);
  msg.data.assign(p, p + bytes);
  rt_->post(dest, std::move(msg));
}

void Comm::recv_raw(int source, int tag, void* buf, std::size_t bytes) {
  Runtime::Message msg = rt_->take(rank_, source, tag);
  flight::instant(
      flight::EventId::kMpiRecv,
      flight::pack_pair(static_cast<std::uint64_t>(rank_),
                        static_cast<std::uint64_t>(source)),
      flight::pack_pair(flight::current_reduction_id(), bytes));
  if (msg.data.size() != bytes) {
    throw std::logic_error("mpisim: recv size mismatch (expected " +
                           std::to_string(bytes) + ", got " +
                           std::to_string(msg.data.size()) + ")");
  }
  copy_bytes(buf, msg.data.data(), bytes);
}

std::vector<std::byte> Comm::recv_any(int source, int tag) {
  Runtime::Message msg = rt_->take(rank_, source, tag);
  flight::instant(
      flight::EventId::kMpiRecv,
      flight::pack_pair(static_cast<std::uint64_t>(rank_),
                        static_cast<std::uint64_t>(source)),
      flight::pack_pair(flight::current_reduction_id(), msg.data.size()));
  return std::move(msg.data);
}

void Comm::send(int dest, int tag, const void* buf, std::size_t bytes) {
  check_user_tag(tag);
  send_raw(dest, tag, buf, bytes);
}

void Comm::recv(int source, int tag, void* buf, std::size_t bytes) {
  check_user_tag(tag);
  recv_raw(source, tag, buf, bytes);
}

void Comm::barrier() { rt_->barrier_wait(rank_); }

// ---------------------------------------------------------------------------
// Collectives: four topologies over the same codec-aware transport; docs/MPISIM.md derives the schedules and the FIFO-tag
// argument that lets a whole collective reuse a single tag.

struct detail::Coll {
  /// Largest power of two q = 2^m that fits in p, and the r = p - q excess
  /// ranks that fold pairwise before/after the power-of-two phases.
  struct Pow2 {
    int q = 1;
    int m = 0;
    int r = 0;
  };

  static Pow2 pow2_split(int p) {
    Pow2 s;
    while (s.q * 2 <= p) {
      s.q *= 2;
      ++s.m;
    }
    s.r = p - s.q;
    return s;
  }

  struct Ctx {
    Comm& c;
    int me;  ///< my rank
    int p;   ///< world size
    int tag;
    const Datatype& dt;
    const Op& op;
    std::size_t count;
    bool sparse;
    std::vector<std::byte> scratch;  ///< recv_combine staging, lazily sized
  };

  /// Rank of virtual rank v in the power-of-two phase.
  static int vreal(const Pow2& s, int v) { return v < s.r ? 2 * v : v + s.r; }

  static void note_wire(Ctx& x, std::size_t raw_bytes,
                        std::size_t encoded_bytes) {
    trace::count(trace::Counter::kMpisimWireRawBytes, raw_bytes);
    trace::count(trace::Counter::kMpisimWireEncodedBytes, encoded_bytes);
    x.c.rt_->note_wire(raw_bytes, encoded_bytes);
  }

  /// Ships elements [lo, hi) of `base`. Sparse mode encodes them together
  /// with the sender's current status mask — in-band status gossip.
  static void send_range(Ctx& x, int to, const std::byte* base,
                         std::size_t lo, std::size_t hi) {
    const std::size_t raw_bytes = (hi - lo) * x.dt.size;
    const std::byte* p = base + lo * x.dt.size;
    if (!x.sparse) {
      note_wire(x, raw_bytes, raw_bytes);
      x.c.send_raw(to, x.tag, p, raw_bytes);
      return;
    }
    const std::vector<std::byte> msg =
        x.op.codec->encode(p, hi - lo, x.op.observed_status());
    note_wire(x, raw_bytes, msg.size());
    x.c.send_raw(to, x.tag, msg.data(), msg.size());
  }

  /// Receives elements [lo, hi) into `base` (no combine). Sparse mode ORs
  /// the message's status mask into this rank's Op mask.
  static void recv_range(Ctx& x, int from, std::byte* base, std::size_t lo,
                         std::size_t hi) {
    if (!x.sparse) {
      x.c.recv_raw(from, x.tag, base + lo * x.dt.size,
                   (hi - lo) * x.dt.size);
      return;
    }
    const std::vector<std::byte> msg = x.c.recv_any(from, x.tag);
    const std::uint8_t st = x.op.codec->decode(
        msg.data(), msg.size(), base + lo * x.dt.size, hi - lo);
    if (st != 0) {
      x.op.sticky_status->fetch_or(st, std::memory_order_relaxed);
    }
  }

  /// Receives elements [lo, hi) and combines them into `acc` in ascending
  /// element order (the deterministic per-rank op order).
  static void recv_combine(Ctx& x, int from, std::byte* acc, std::size_t lo,
                           std::size_t hi) {
    if (x.scratch.size() < x.count * x.dt.size) {
      x.scratch.resize(x.count * x.dt.size);
    }
    recv_range(x, from, x.scratch.data(), lo, hi);
    for (std::size_t e = lo; e < hi; ++e) {
      x.op.fn(acc + e * x.dt.size, x.scratch.data() + e * x.dt.size);
    }
  }

  /// Start-of-collective bookkeeping shared by reduce and allreduce.
  static void begin(const Op& op, ReduceAlgo algo) {
    if (op.codec && !op.sticky_status) {
      throw std::invalid_argument(
          "mpisim: an Op with a wire codec requires sticky_status (the "
          "codec carries the status mask in-band)");
    }
    op.reset_status();
    if (op.sticky_status && op.seed_status != 0) {
      op.sticky_status->fetch_or(op.seed_status, std::memory_order_relaxed);
    }
    trace::count(trace::Counter::kMpisimReductions);
    switch (algo) {
      case ReduceAlgo::kLinear:
        trace::count(trace::Counter::kMpisimAlgoLinear);
        break;
      case ReduceAlgo::kBinomialTree:
        trace::count(trace::Counter::kMpisimAlgoBinomialTree);
        break;
      case ReduceAlgo::kRecursiveDoubling:
        trace::count(trace::Counter::kMpisimAlgoRecDoubling);
        break;
      case ReduceAlgo::kRecursiveHalving:
        trace::count(trace::Counter::kMpisimAlgoRecHalving);
        break;
    }
  }

  /// Pairwise pre-fold for non-power-of-two collectives: the first 2r
  /// ranks fold odd into even, leaving q = 2^m virtual participants.
  /// Returns this rank's virtual rank, or -1 for folded-out (odd) ranks.
  static int fold_in(Ctx& x, std::byte* acc, const Pow2& s) {
    if (x.me >= 2 * s.r) return x.me - s.r;
    if (x.me % 2 == 0) {
      recv_combine(x, x.me + 1, acc, 0, x.count);
      return x.me / 2;
    }
    send_range(x, x.me - 1, acc, 0, x.count);
    return -1;
  }

  /// Post-distribute the full result back to folded-out ranks.
  static void fold_out(Ctx& x, std::byte* acc, const Pow2& s) {
    if (x.me >= 2 * s.r) return;
    if (x.me % 2 == 0) {
      send_range(x, x.me + 1, acc, 0, x.count);
    } else {
      recv_range(x, x.me - 1, acc, 0, x.count);
    }
  }

  /// Recursive-doubling butterfly: log2(q) pairwise full-buffer exchanges;
  /// every participant ends with the complete reduction (and, in sparse
  /// mode, the OR of every participant's status mask — hypercube gossip).
  static void butterfly(Ctx& x, std::byte* acc) {
    const Pow2 s = pow2_split(x.p);
    const int vr = fold_in(x, acc, s);
    if (vr >= 0) {
      for (int mask = 1; mask < s.q; mask <<= 1) {
        const int partner = vreal(s, vr ^ mask);
        send_range(x, partner, acc, 0, x.count);
        recv_combine(x, partner, acc, 0, x.count);
      }
    }
    fold_out(x, acc, s);
  }

  /// Element range owned by virtual rank v after `level` halvings: each
  /// round splits [lo, hi) at lo + ceil(len/2), low half to the 0-bit
  /// side. Ranges may be empty when count < q — the (status-carrying)
  /// empty messages still flow, keeping the schedule and gossip uniform.
  static std::pair<std::size_t, std::size_t> vrange(std::size_t count, int m,
                                                    int v, int level) {
    std::size_t lo = 0;
    std::size_t hi = count;
    for (int i = 0; i < level; ++i) {
      const std::size_t mid = lo + (hi - lo + 1) / 2;
      if (((v >> (m - 1 - i)) & 1) != 0) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return {lo, hi};
  }

  /// Recursive-halving reduce-scatter: after round i, each virtual rank
  /// holds the combined elements of vrange(vr, i+1). Partner order is
  /// top bit first (q/2, q/4, ..., 1).
  static void reduce_scatter(Ctx& x, std::byte* acc, const Pow2& s, int vr) {
    for (int i = 0; i < s.m; ++i) {
      const int pvr = vr ^ (s.q >> (i + 1));
      const int partner = vreal(s, pvr);
      const auto [plo, phi] = vrange(x.count, s.m, pvr, i + 1);
      const auto [mlo, mhi] = vrange(x.count, s.m, vr, i + 1);
      send_range(x, partner, acc, plo, phi);
      recv_combine(x, partner, acc, mlo, mhi);
    }
  }

  /// Allgather by recursive doubling of the owned range (the reverse
  /// partner order of reduce_scatter; FIFO per (source, tag) keeps the
  /// back-to-back same-partner messages correctly paired).
  static void allgather_ranges(Ctx& x, std::byte* acc, const Pow2& s,
                               int vr) {
    for (int i = s.m - 1; i >= 0; --i) {
      const int pvr = vr ^ (s.q >> (i + 1));
      const int partner = vreal(s, pvr);
      const auto [mlo, mhi] = vrange(x.count, s.m, vr, i + 1);
      const auto [plo, phi] = vrange(x.count, s.m, pvr, i + 1);
      send_range(x, partner, acc, mlo, mhi);
      recv_range(x, partner, acc, plo, phi);
    }
  }

  /// Codec-aware broadcast of a finished result (used by the reduce+bcast
  /// allreduce shapes): in sparse mode the root's message also carries its
  /// final — global — status mask, so every rank ends with full status.
  static void bcast_result(Ctx& x, std::byte* buf, int root) {
    x.tag = x.c.next_collective_tag();
    const std::size_t raw_bytes = x.count * x.dt.size;
    if (x.me != root) {
      recv_range(x, root, buf, 0, x.count);
      return;
    }
    if (!x.sparse) {
      for (int g = 0; g < x.p; ++g) {
        if (g == root) continue;
        note_wire(x, raw_bytes, raw_bytes);
        x.c.send_raw(g, x.tag, buf, raw_bytes);
      }
      return;
    }
    const std::vector<std::byte> msg =
        x.op.codec->encode(buf, x.count, x.op.observed_status());
    for (int g = 0; g < x.p; ++g) {
      if (g == root) continue;
      note_wire(x, raw_bytes, msg.size());
      x.c.send_raw(g, x.tag, msg.data(), msg.size());
    }
  }

  static void reduce_core(Ctx& x, const std::byte* send_buf,
                          std::byte* recv_buf, int root, ReduceAlgo algo) {
    const std::size_t bytes = x.count * x.dt.size;
    switch (algo) {
      case ReduceAlgo::kLinear: {
        if (x.me == root) {
          copy_bytes(recv_buf, send_buf, bytes);
          // Deterministic order: ascending rank, regardless of arrival.
          for (int g = 0; g < x.p; ++g) {
            if (g == root) continue;
            recv_combine(x, g, recv_buf, 0, x.count);
          }
        } else {
          send_range(x, root, send_buf, 0, x.count);
        }
        return;
      }
      case ReduceAlgo::kBinomialTree: {
        // log2(p) rounds of pairwise combines on root-relative ranks, the
        // higher partner folding into the lower — a different deterministic
        // op order than kLinear (bit-identical for HP, different rounding
        // for doubles).
        const int vr = (x.me - root + x.p) % x.p;
        std::vector<std::byte> acc(bytes);
        copy_bytes(acc.data(), send_buf, bytes);
        for (int step = 1; step < x.p; step <<= 1) {
          if ((vr & step) != 0) {
            send_range(x, (vr - step + root) % x.p, acc.data(), 0, x.count);
            break;
          }
          if (vr + step < x.p) {
            recv_combine(x, (vr + step + root) % x.p, acc.data(), 0, x.count);
          }
        }
        if (x.me == root) copy_bytes(recv_buf, acc.data(), bytes);
        return;
      }
      case ReduceAlgo::kRecursiveDoubling: {
        // The butterfly is inherently an allreduce; as a rooted reduce,
        // off-root ranks simply discard their copy (topology testbed, not
        // a message-optimal rooted reduce — see ReduceAlgo docs).
        std::vector<std::byte> acc(bytes);
        copy_bytes(acc.data(), send_buf, bytes);
        butterfly(x, acc.data());
        if (x.me == root) copy_bytes(recv_buf, acc.data(), bytes);
        return;
      }
      case ReduceAlgo::kRecursiveHalving: {
        std::vector<std::byte> acc(bytes);
        copy_bytes(acc.data(), send_buf, bytes);
        const Pow2 s = pow2_split(x.p);
        const int vr = fold_in(x, acc.data(), s);
        if (vr >= 0) reduce_scatter(x, acc.data(), s, vr);
        // Gather the owned (fully reduced) ranges to the root. Empty
        // ranges are skipped on both sides; the root still receives every
        // participant's status because reduce-scatter gossip left every
        // owner holding the global mask.
        for (int v = 0; v < s.q; ++v) {
          const auto [lo, hi] = vrange(x.count, s.m, v, s.m);
          if (lo == hi) continue;
          const int owner = vreal(s, v);
          if (x.me == root && owner == root) {
            copy_bytes(recv_buf + lo * x.dt.size, acc.data() + lo * x.dt.size,
                        (hi - lo) * x.dt.size);
          } else if (x.me == root) {
            recv_range(x, owner, recv_buf, lo, hi);
          } else if (x.me == owner) {
            send_range(x, root, acc.data(), lo, hi);
          }
        }
        return;
      }
    }
  }

  static void reduce(Comm& c, const void* send_buf, void* recv_buf,
                     std::size_t count, const Datatype& dt, const Op& op,
                     int root, ReduceAlgo algo) {
    begin(op, algo);
    ReduceAlgo effective = algo;
    if (count == 0 && (algo == ReduceAlgo::kRecursiveDoubling ||
                       algo == ReduceAlgo::kRecursiveHalving)) {
      // The element-range recursion has nothing to split; linear still
      // moves every rank's (status-carrying) empty message to the root.
      effective = ReduceAlgo::kLinear;
    }
    Ctx x{c, c.rank(), c.size(), c.next_collective_tag(), dt, op, count,
          op.codec != nullptr, {}};
    const flight::Span reduce_span(flight::EventId::kMpiReduce,
                                   flight::current_reduction_id(),
                                   count * dt.size);
    reduce_core(x, static_cast<const std::byte*>(send_buf),
                static_cast<std::byte*>(recv_buf), root, effective);
  }

  static void allreduce(Comm& c, const void* send_buf, void* recv_buf,
                        std::size_t count, const Datatype& dt, const Op& op,
                        ReduceAlgo algo) {
    begin(op, algo);
    ReduceAlgo effective = algo;
    if (count == 0 && (algo == ReduceAlgo::kRecursiveDoubling ||
                       algo == ReduceAlgo::kRecursiveHalving)) {
      effective = ReduceAlgo::kBinomialTree;
    }
    Ctx x{c, c.rank(), c.size(), c.next_collective_tag(), dt, op, count,
          op.codec != nullptr, {}};
    const flight::Span reduce_span(flight::EventId::kMpiReduce,
                                   flight::current_reduction_id(),
                                   count * dt.size);
    const std::size_t bytes = count * dt.size;
    auto* recv = static_cast<std::byte*>(recv_buf);
    switch (effective) {
      case ReduceAlgo::kLinear:
      case ReduceAlgo::kBinomialTree:
        reduce_core(x, static_cast<const std::byte*>(send_buf), recv,
                    /*root=*/0, effective);
        bcast_result(x, recv, /*root=*/0);
        return;
      case ReduceAlgo::kRecursiveDoubling: {
        std::vector<std::byte> acc(bytes);
        copy_bytes(acc.data(), send_buf, bytes);
        butterfly(x, acc.data());
        copy_bytes(recv, acc.data(), bytes);
        return;
      }
      case ReduceAlgo::kRecursiveHalving: {
        std::vector<std::byte> acc(bytes);
        copy_bytes(acc.data(), send_buf, bytes);
        const Pow2 s = pow2_split(x.p);
        const int vr = fold_in(x, acc.data(), s);
        if (vr >= 0) {
          reduce_scatter(x, acc.data(), s, vr);
          allgather_ranges(x, acc.data(), s, vr);
        }
        fold_out(x, acc.data(), s);
        copy_bytes(recv, acc.data(), bytes);
        return;
      }
    }
  }
};

void Comm::reduce(const void* send_buf, void* recv_buf, std::size_t count,
                  const Datatype& dt, const Op& op, int root,
                  ReduceAlgo algo) {
  detail::Coll::reduce(*this, send_buf, recv_buf, count, dt, op, root, algo);
}

void Comm::allreduce(const void* send_buf, void* recv_buf, std::size_t count,
                     const Datatype& dt, const Op& op, ReduceAlgo algo) {
  detail::Coll::allreduce(*this, send_buf, recv_buf, count, dt, op, algo);
}

void run(int nranks, const std::function<void(Comm&)>& body,
         const RunOptions& opts) {
  if (nranks < 1) {
    throw std::invalid_argument("mpisim::run: nranks must be >= 1");
  }
  int workers = opts.workers;
  if (workers <= 0) {
    const auto hw = static_cast<int>(std::thread::hardware_concurrency());
    workers = nranks <= kOneWorkerPerRankLimit ? nranks : std::max(hw, 1);
  }
  workers = std::min(workers, nranks);
  Runtime rt(nranks, workers, body);
  {
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    try {
      for (int w = 0; w < workers; ++w) {
        pool.emplace_back([&rt, w] { rt.work(w); });
      }
    } catch (...) {
      // A worker failed to start: its ranks never run, so the started
      // workers' ranks must abort rather than wait on them forever.
      rt.poison(std::current_exception());
    }
  }  // join: every rank either finished or aborted
  if (opts.stats != nullptr) *opts.stats = rt.stats_snapshot();
  if (std::exception_ptr err = rt.first_error()) {
    std::rethrow_exception(err);
  }
}

void run(int nranks, const std::function<void(Comm&)>& body) {
  run(nranks, body, RunOptions{});
}

}  // namespace hpsum::mpisim
