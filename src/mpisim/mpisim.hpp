// mpisim — an in-process message-passing runtime (the MPI substitute).
//
// No MPI implementation is installed on this host, so the paper's MPI
// experiment (Fig 6: MPI_Reduce over a custom HP datatype with a custom
// MPI_Op) runs on this runtime instead (DESIGN.md §2, docs/MPISIM.md). It
// preserves the properties the experiment exercises:
//   - ranks have separate address spaces for message data: every send deep-
//     copies into the receiver's mailbox, so HP values really are
//     serialized, moved, and deserialized;
//   - reductions take a user-registered Datatype + Op, exactly the
//     MPI_Type_contiguous / MPI_Op_create shape the paper describes;
//   - four reduction algorithms (linear, binomial tree, recursive
//     doubling, recursive halving) apply the op in different deterministic
//     orders, which is precisely what makes double sums irreproducible and
//     HP sums bit-identical across topologies.
//
// Rank bodies run as cooperative fibers on a worker pool: one worker per
// rank up to 128 ranks, hardware_concurrency workers above (RunOptions).
// Ops may attach a WireCodec to compress payloads and carry their status
// mask in-band (see hp_ops.hpp / docs/FORMAT.md).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace hpsum::mpisim {

/// Collective operations stamp their messages with tags at or above this
/// base; user point-to-point tags must stay in [0, kUserTagLimit). Enforced
/// by send/recv (std::invalid_argument) so a point-to-point message can
/// never cross-match a collective and corrupt a reduction.
inline constexpr int kUserTagLimit = 1 << 20;

namespace detail {
/// Maps a monotonically increasing per-rank collective sequence number into
/// the collective tag window [kUserTagLimit, 2*kUserTagLimit). The window
/// wraps, so multi-billion-collective scaling runs cannot overflow the
/// (signed int) tag — 2^20 collectives would have to be simultaneously
/// outstanding for two live collectives to alias, and the SPMD contract
/// keeps ranks within one collective of each other.
[[nodiscard]] constexpr int collective_tag(std::uint64_t seq) noexcept {
  return kUserTagLimit +
         static_cast<int>(seq % static_cast<std::uint64_t>(kUserTagLimit));
}
struct Coll;
}  // namespace detail

/// Thrown by communication calls on ranks whose peers have failed: when any
/// rank body throws, the runtime is poisoned and every rank blocked in (or
/// later entering) recv/send/barrier/collectives aborts with this error
/// instead of deadlocking. run() rethrows the original (first) error, not
/// the RankAborted cascade.
class RankAborted : public std::runtime_error {
 public:
  RankAborted()
      : std::runtime_error(
            "mpisim: rank aborted (a peer rank failed; see the first "
            "rethrown error)") {}
};

/// Element type descriptor (MPI_Datatype analogue): contiguous bytes.
struct Datatype {
  std::size_t size = 0;  ///< bytes per element
  std::string name;

  /// Built-in: one double.
  static Datatype f64() { return {sizeof(double), "f64"}; }

  /// Contiguous blob of `bytes` bytes (how HP and Hallberg values travel:
  /// the analogue of MPI_Type_contiguous over MPI_UINT64_T).
  static Datatype contiguous(std::size_t bytes, std::string type_name) {
    return {bytes, std::move(type_name)};
  }
};

/// Optional per-Op payload codec. When an Op carries one, collectives ship
/// its encoded form instead of the raw element bytes, and the codec is
/// responsible for round-tripping them exactly. The status byte folded
/// into each message is the sender's Op::observed_status() at send time;
/// decode returns the received mask, which the runtime ORs into the
/// receiver's Op mask — in-band status gossip that makes a separate
/// status-only reduction unnecessary (docs/FORMAT.md, hp_ops.hpp).
struct WireCodec {
  std::string name;
  std::function<std::vector<std::byte>(const std::byte* raw,
                                       std::size_t count, std::uint8_t status)>
      encode;
  std::function<std::uint8_t(const std::byte* msg, std::size_t msg_bytes,
                             std::byte* raw, std::size_t count)>
      decode;
};

/// Reduction operator (MPI_Op analogue): combines one element in place,
/// inout = inout (op) in.
struct Op {
  std::function<void(std::byte* inout, const std::byte* in)> fn;
  std::string name;
  /// Optional condition mask. Ops whose combine step can observe
  /// exceptional conditions (e.g. HP add overflow) OR them in here instead
  /// of discarding them; copies of the Op share one mask. Collects the
  /// combines executed by the rank holding this Op, plus — when a codec is
  /// attached — every status mask received on the wire (see WireCodec).
  /// Without a codec, gather conditions from *all* ranks by reducing the
  /// mask too (see reduce_hp_value).
  ///
  /// Scope is ONE reduction: Comm::reduce / Comm::allreduce clear the
  /// mask on entry, so observed_status() after a reduction reports that
  /// reduction's conditions only. (An Op reused across reductions used to
  /// bleed an overflow seen in one allreduce into the status of later,
  /// unrelated reductions.)
  std::shared_ptr<std::atomic<std::uint8_t>> sticky_status;

  /// Optional payload codec; null means raw element bytes on the wire.
  /// Requires sticky_status (collectives validate).
  std::shared_ptr<const WireCodec> codec;

  /// OR'd into the mask right after the start-of-reduction reset: lets a
  /// caller's pre-existing local conditions (e.g. the deposit-phase status
  /// of its HP partial) ride the wire with the payload.
  std::uint8_t seed_status = 0;

  /// The conditions observed by this op's combines during the most recent
  /// reduction (0 if the op does not track any).
  [[nodiscard]] std::uint8_t observed_status() const noexcept {
    return sticky_status ? sticky_status->load(std::memory_order_relaxed) : 0;
  }

  /// Clears the condition mask — the start-of-reduction reset that scopes
  /// observed_status() to a single operation.
  void reset_status() const noexcept {
    if (sticky_status) sticky_status->store(0, std::memory_order_relaxed);
  }
};

/// Reduction algorithm. Different algorithms apply Op in different (but
/// deterministic) orders — the order-invariance testbed. All four produce
/// bit-identical results for exact (associative + commutative) ops like HP
/// limb addition; for doubles each topology rounds differently.
enum class ReduceAlgo {
  kLinear,        ///< root folds ranks 1..p-1 into its buffer in rank order
  kBinomialTree,  ///< log2(p) rounds of pairwise combines toward the root
  /// Butterfly (hypercube) exchange: log2(p) rounds, every rank combines
  /// with partner rank^mask and ends holding the full result — the natural
  /// allreduce. Non-power-of-two rank counts pre-fold the excess pairwise.
  /// As a rooted reduce this runs the butterfly and discards off-root
  /// copies (a topology testbed, not a message-optimal rooted reduce).
  kRecursiveDoubling,
  /// Reduce-scatter by recursive halving of the element range, then
  /// allgather (for allreduce) or a gather of the owned ranges to the root
  /// (for reduce). Bandwidth-optimal for long vectors.
  kRecursiveHalving
};

class Runtime;
class Comm;

/// The execution engine. Fibers on a worker pool are the only one; the
/// one-value enum stays because perfbench/hpsum_perf.cpp still names it.
enum class RunMode { kMultiplexed };

/// Aggregate statistics for one run(), collected with plain atomics so
/// they are exact even when the trace subsystem is compiled out
/// (HPSUM_TRACE=OFF) — the fig6 wire-compression numbers come from here.
struct RunStats {
  std::uint64_t messages = 0;    ///< point-to-point + collective messages
  std::uint64_t bytes_sent = 0;  ///< total payload bytes posted
  /// Collective payload bytes before encoding (what the raw wire would
  /// have carried). Equals wire_encoded_bytes for codec-less ops.
  std::uint64_t wire_raw_bytes = 0;
  /// Collective payload bytes actually posted after any Op codec.
  std::uint64_t wire_encoded_bytes = 0;
  int workers = 0;  ///< worker threads used
};

/// Tuning knobs for run().
struct RunOptions {
  /// Ignored: there is one engine (see RunMode).
  RunMode mode = RunMode::kMultiplexed;
  /// Worker threads; rank r runs on worker r % workers. 0 = one worker per
  /// rank up to 128 ranks (each rank keeps its own OS thread, so thread-CPU
  /// timers inside a rank body time that rank alone), hardware_concurrency
  /// workers above. Capped at the rank count.
  int workers = 0;
  /// When non-null, filled with this run's statistics on completion.
  RunStats* stats = nullptr;
};

/// Per-rank communicator handle (valid only inside the rank body).
class Comm {
 public:
  /// This rank's id in [0, size()).
  [[nodiscard]] int rank() const noexcept { return rank_; }

  /// Number of ranks.
  [[nodiscard]] int size() const noexcept;

  /// Blocking tagged point-to-point send (deep copy; never deadlocks on
  /// itself since delivery is asynchronous). `tag` must be in
  /// [0, kUserTagLimit) — throws std::invalid_argument otherwise.
  void send(int dest, int tag, const void* buf, std::size_t bytes);

  /// Blocking tagged receive from a specific source. `bytes` must match the
  /// sent size (checked; throws std::logic_error on mismatch — the
  /// classic truncated-message failure surfaced loudly). Tag rules as in
  /// send().
  void recv(int source, int tag, void* buf, std::size_t bytes);

  /// Synchronizes all ranks.
  void barrier();

  /// Element-wise reduction of `count` elements of `dt` to `root`
  /// (MPI_Reduce analogue). `recv` may be null on non-root ranks.
  void reduce(const void* send, void* recv, std::size_t count,
              const Datatype& dt, const Op& op, int root,
              ReduceAlgo algo = ReduceAlgo::kBinomialTree);

  /// Reduction delivered to every rank (MPI_Allreduce analogue).
  /// kLinear/kBinomialTree run reduce + bcast; kRecursiveDoubling runs the
  /// butterfly natively; kRecursiveHalving runs reduce-scatter +
  /// allgather. For non-exact ops (doubles) the two native algorithms may
  /// deliver differently-rounded values on different ranks — exact HP
  /// payloads are bit-identical everywhere, which is the point.
  void allreduce(const void* send, void* recv, std::size_t count,
                 const Datatype& dt, const Op& op,
                 ReduceAlgo algo = ReduceAlgo::kBinomialTree);

 private:
  friend class Runtime;
  friend struct detail::Coll;
  Comm(Runtime& rt, int rank) : rt_(&rt), rank_(rank) {}

  /// Internal transport used by collectives: no user-tag validation (tags
  /// here are collective tags), same counters/flight events as send/recv.
  void send_raw(int dest, int tag, const void* buf, std::size_t bytes);
  void recv_raw(int source, int tag, void* buf, std::size_t bytes);
  /// Variable-size receive for codec-encoded payloads.
  [[nodiscard]] std::vector<std::byte> recv_any(int source, int tag);

  [[nodiscard]] int next_collective_tag() noexcept {
    return detail::collective_tag(coll_seq_++);
  }

  Runtime* rt_;
  int rank_;
  /// Per-rank collective sequence number; stamps collective message tags so
  /// back-to-back collectives cannot cross-match (wraps via
  /// detail::collective_tag).
  std::uint64_t coll_seq_ = 0;
};

/// Launches `nranks` rank bodies as fibers on a worker pool (RunOptions)
/// and waits for completion. If any rank body throws, the runtime is
/// poisoned: every other rank blocked in a communication call aborts with
/// RankAborted (no deadlock), and the first original error is rethrown
/// here.
void run(int nranks, const std::function<void(Comm&)>& body,
         const RunOptions& opts);
void run(int nranks, const std::function<void(Comm&)>& body);

}  // namespace hpsum::mpisim
