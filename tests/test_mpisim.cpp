// Tests for the message-passing runtime and its HP reduction ops.
#include "mpisim/mpisim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/hp_status.hpp"

#include "backends/scaling.hpp"
#include "core/reduce.hpp"
#include "mpisim/hp_ops.hpp"
#include "workload/workload.hpp"

namespace hpsum::mpisim {
namespace {

TEST(Mpisim, RunGivesEveryRankCorrectIdentity) {
  std::vector<int> seen(8, -1);
  run(8, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), 8);
    seen[static_cast<std::size_t>(comm.rank())] = comm.rank();
  });
  for (int r = 0; r < 8; ++r) EXPECT_EQ(seen[static_cast<std::size_t>(r)], r);
}

TEST(Mpisim, RunRejectsBadRankCount) {
  EXPECT_THROW(run(0, [](Comm&) {}), std::invalid_argument);
}

TEST(Mpisim, SendRecvRoundTrip) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const double payload = 42.5;
      comm.send(1, 7, &payload, sizeof payload);
    } else {
      double got = 0;
      comm.recv(0, 7, &got, sizeof got);
      EXPECT_EQ(got, 42.5);
    }
  });
}

TEST(Mpisim, TagsKeepMessagesApart) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const int a = 1;
      const int b = 2;
      comm.send(1, 10, &a, sizeof a);
      comm.send(1, 20, &b, sizeof b);
    } else {
      int got = 0;
      comm.recv(0, 20, &got, sizeof got);  // out of send order
      EXPECT_EQ(got, 2);
      comm.recv(0, 10, &got, sizeof got);
      EXPECT_EQ(got, 1);
    }
  });
}

TEST(Mpisim, RecvSizeMismatchThrows) {
  EXPECT_THROW(run(2,
                   [](Comm& comm) {
                     if (comm.rank() == 0) {
                       const double payload = 1.0;
                       comm.send(1, 1, &payload, sizeof payload);
                     } else {
                       float small = 0;
                       comm.recv(0, 1, &small, sizeof small);
                     }
                   }),
               std::logic_error);
}

TEST(Mpisim, SendToInvalidRankThrows) {
  EXPECT_THROW(run(2,
                   [](Comm& comm) {
                     if (comm.rank() == 0) {
                       const int x = 1;
                       comm.send(5, 1, &x, sizeof x);
                     }
                   }),
               std::out_of_range);
}

TEST(Mpisim, BarrierOrdersPhases) {
  std::atomic<int> phase1{0};
  std::atomic<bool> ok{true};
  run(8, [&](Comm& comm) {
    phase1.fetch_add(1);
    comm.barrier();
    // After the barrier every rank must observe all 8 phase-1 increments.
    if (phase1.load() != 8) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(Mpisim, ReduceDoubleLinearMatchesSequentialOrder) {
  // The linear algorithm folds ranks in ascending order, which is exactly
  // a left-to-right double sum of the per-rank values.
  const std::vector<double> vals = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7};
  run(7, [&](Comm& comm) {
    const double mine = vals[static_cast<std::size_t>(comm.rank())];
    double out = 0;
    comm.reduce(&mine, &out, 1, Datatype::f64(), f64_sum_op(), 0,
                ReduceAlgo::kLinear);
    if (comm.rank() == 0) {
      double expect = 0;
      for (const double v : vals) expect += v;
      EXPECT_EQ(out, expect);
    }
  });
}

TEST(Mpisim, ReduceMultiElementAppliesOpPerElement) {
  run(4, [](Comm& comm) {
    const double mine[3] = {1.0 * comm.rank(), 2.0, -1.0};
    double out[3] = {0, 0, 0};
    comm.reduce(mine, out, 3, Datatype::f64(), f64_sum_op(), 0,
                ReduceAlgo::kBinomialTree);
    if (comm.rank() == 0) {
      EXPECT_EQ(out[0], 0.0 + 1.0 + 2.0 + 3.0);
      EXPECT_EQ(out[1], 8.0);
      EXPECT_EQ(out[2], -4.0);
    }
  });
}

TEST(Mpisim, AllreduceAgreesOnAllRanks) {
  std::vector<double> results(9, 0.0);
  run(9, [&](Comm& comm) {
    const double mine = 1.5;
    double out = 0;
    comm.allreduce(&mine, &out, 1, Datatype::f64(), f64_sum_op());
    results[static_cast<std::size_t>(comm.rank())] = out;
  });
  for (const double r : results) EXPECT_EQ(r, 13.5);
}

TEST(Mpisim, HpReduceIsInvariantAcrossAlgorithmsAndRankCounts) {
  // The Fig 6 headline: the same global data reduced over different rank
  // topologies and reduction trees gives a bit-identical HP sum.
  const auto xs = workload::uniform_set(30000, 61);
  const HpConfig cfg{6, 3};
  const HpDyn ref = reduce_hp(xs, cfg);

  for (const int ranks : {1, 2, 5, 8, 16}) {
    for (const ReduceAlgo algo :
         {ReduceAlgo::kLinear, ReduceAlgo::kBinomialTree}) {
      std::vector<util::Limb> root_limbs;
      run(ranks, [&](Comm& comm) {
        const auto slices = backends::partition(xs, comm.size());
        HpDyn local(cfg);
        for (const double x : slices[static_cast<std::size_t>(comm.rank())]) {
          local += x;
        }
        const HpDyn total = reduce_hp_value(comm, local, 0, algo);
        if (comm.rank() == 0) {
          root_limbs.assign(total.limbs().begin(), total.limbs().end());
        }
      });
      ASSERT_EQ(root_limbs.size(), ref.limbs().size());
      for (std::size_t i = 0; i < root_limbs.size(); ++i) {
        EXPECT_EQ(root_limbs[i], ref.limbs()[i])
            << "ranks=" << ranks << " algo=" << static_cast<int>(algo);
      }
    }
  }
}

TEST(Mpisim, DoubleReduceVariesAcrossTopologies) {
  // The premise: the identical experiment with the double op is NOT
  // invariant — linear vs tree orderings round differently.
  const auto xs = workload::uniform_set(30000, 62);
  std::vector<double> results;
  for (const int ranks : {4, 16}) {
    for (const ReduceAlgo algo :
         {ReduceAlgo::kLinear, ReduceAlgo::kBinomialTree}) {
      double root_val = 0;
      run(ranks, [&](Comm& comm) {
        const auto slices = backends::partition(xs, comm.size());
        double local = 0;
        for (const double x : slices[static_cast<std::size_t>(comm.rank())]) {
          local += x;
        }
        double out = 0;
        comm.reduce(&local, &out, 1, Datatype::f64(), f64_sum_op(), 0, algo);
        if (comm.rank() == 0) root_val = out;
      });
      results.push_back(root_val);
    }
  }
  bool any_diff = false;
  for (const double r : results) any_diff = any_diff || (r != results[0]);
  EXPECT_TRUE(any_diff);
}

TEST(MpisimDetail, CollectiveTagsStayInWindowAndWrap) {
  EXPECT_EQ(detail::collective_tag(0), kUserTagLimit);
  EXPECT_EQ(detail::collective_tag(1), kUserTagLimit + 1);
  const auto limit = static_cast<std::uint64_t>(kUserTagLimit);
  EXPECT_EQ(detail::collective_tag(limit - 1), 2 * kUserTagLimit - 1);
  // Regression: the tag used to be kCollectiveTagBase + seq with no bound,
  // so a long-running simulation could walk the tag past INT_MAX into
  // signed overflow. Now it wraps within the collective window.
  EXPECT_EQ(detail::collective_tag(limit), kUserTagLimit);
  for (const std::uint64_t seq :
       {limit * 3 + 17, std::numeric_limits<std::uint64_t>::max()}) {
    const int tag = detail::collective_tag(seq);
    EXPECT_GE(tag, kUserTagLimit);
    EXPECT_LT(tag, 2 * kUserTagLimit);
  }
}

TEST(Mpisim, UserTagsAtOrAboveCollectiveBaseAreRejected) {
  // Regression: send/recv accepted tags >= kUserTagLimit, letting a
  // point-to-point message cross-match a collective's traffic and corrupt
  // the reduction. Now they are rejected up front.
  const auto expect_rejected = [](const std::function<void(Comm&)>& body) {
    EXPECT_THROW(run(1, body), std::invalid_argument);
  };
  const int x = 1;
  expect_rejected([&](Comm& comm) { comm.send(0, kUserTagLimit, &x, sizeof x); });
  expect_rejected([&](Comm& comm) { comm.send(0, -1, &x, sizeof x); });
  expect_rejected([](Comm& comm) {
    int got = 0;
    comm.recv(0, kUserTagLimit + 5, &got, sizeof got);
  });
  expect_rejected([](Comm& comm) {
    int got = 0;
    comm.recv(0, -7, &got, sizeof got);
  });
  // The boundary tags themselves are fine.
  run(1, [&](Comm& comm) {
    comm.send(0, 0, &x, sizeof x);
    comm.send(0, kUserTagLimit - 1, &x, sizeof x);
    int got = 0;
    comm.recv(0, 0, &got, sizeof got);
    comm.recv(0, kUserTagLimit - 1, &got, sizeof got);
  });
}

TEST(Mpisim, RankExceptionAbortsBlockedPeersInsteadOfDeadlocking) {
  // Regression: a rank body throwing while peers were blocked in recv used
  // to deadlock run() — the join loop waited forever on the blocked ranks,
  // and the error was never rethrown. Now the first failure poisons the
  // runtime, blocked ranks abort with RankAborted, and run() rethrows the
  // original error. Before the fix this test hung.
  try {
    run(4, [](Comm& comm) {
      if (comm.rank() == 3) throw std::runtime_error("rank 3 exploded");
      int never = 0;
      comm.recv(3, 1, &never, sizeof never);  // blocks forever without abort
    });
    FAIL() << "run() should have rethrown the rank error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 3 exploded");
  }
}

TEST(Mpisim, RankExceptionAbortsBlockedBarrierAndCollectives) {
  try {
    run(6, [](Comm& comm) {
      if (comm.rank() == 0) throw std::logic_error("early failure");
      if (comm.rank() % 2 == 0) {
        comm.barrier();
      } else {
        double out = 0;
        const double mine = 1.0;
        comm.allreduce(&mine, &out, 1, Datatype::f64(), f64_sum_op());
      }
    });
    FAIL() << "run() should have rethrown the rank error";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "early failure");
  }
}

TEST(Mpisim, RankExceptionAbortsMultiplexedRanks) {
  RunOptions opts;
  opts.workers = 2;
  try {
    run(64,
        [](Comm& comm) {
          if (comm.rank() == 17) throw std::runtime_error("fiber down");
          int never = 0;
          comm.recv(17, 1, &never, sizeof never);
        },
        opts);
    FAIL() << "run() should have rethrown the rank error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "fiber down");
  }
}

TEST(Mpisim, LateEntrantsToPoisonedRuntimeAbortToo) {
  // A rank that starts communicating only after the failure must also
  // abort (abort_check on entry), not enqueue into a dead world.
  std::atomic<int> aborted{0};
  try {
    run(3, [&](Comm& comm) {
      if (comm.rank() == 0) throw std::runtime_error("instant failure");
      try {
        for (;;) {
          comm.barrier();
        }
      } catch (const RankAborted&) {
        aborted.fetch_add(1);
        throw;
      }
    });
    FAIL() << "run() should have rethrown the rank error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "instant failure");
  }
  EXPECT_EQ(aborted.load(), 2);
}

TEST(Mpisim, MultiplexedModeMatchesThreadedPointToPoint) {
  // A send/recv ring shift: rank r sends to r+1 and receives from r-1.
  // One thread per rank (workers = 0 at 12 ranks) and fibers sharing one
  // or three workers must deliver the same messages.
  for (const int workers : {0, 1, 3}) {
    RunOptions opts;
    opts.workers = workers;
    std::vector<int> got(12, -1);
    run(12,
        [&](Comm& comm) {
          const int p = comm.size();
          const int next = (comm.rank() + 1) % p;
          const int prev = (comm.rank() + p - 1) % p;
          const int mine = comm.rank() * 3;
          int in = -1;
          comm.send(next, 2, &mine, sizeof mine);
          comm.recv(prev, 2, &in, sizeof in);
          comm.barrier();
          got[static_cast<std::size_t>(comm.rank())] = in;
        },
        opts);
    for (int r = 0; r < 12; ++r) {
      EXPECT_EQ(got[static_cast<std::size_t>(r)], ((r + 11) % 12) * 3)
          << "workers=" << workers;
    }
  }
}

TEST(Mpisim, SparseWireCutsHpReductionBytes) {
  const HpConfig cfg{6, 3};
  const auto xs = workload::lognormal_set(4096, 77);
  std::vector<util::Limb> totals[2];
  const auto run_wire = [&](Wire wire, std::vector<util::Limb>* limbs) {
    RunStats stats;
    RunOptions opts;
    opts.stats = &stats;
    run(8,
        [&](Comm& comm) {
          const auto slices = backends::partition(xs, comm.size());
          HpDyn local(cfg);
          for (const double x :
               slices[static_cast<std::size_t>(comm.rank())]) {
            local += x;
          }
          const HpDyn total = allreduce_hp_value(
              comm, local, ReduceAlgo::kRecursiveDoubling, wire);
          if (comm.rank() == 0) {
            limbs->assign(total.limbs().begin(), total.limbs().end());
          }
        },
        opts);
    return stats;
  };
  const RunStats raw = run_wire(Wire::kRaw, &totals[0]);
  const RunStats sparse = run_wire(Wire::kSparse, &totals[1]);
  EXPECT_EQ(totals[0], totals[1]);  // the codec is exact
  EXPECT_EQ(raw.wire_raw_bytes, raw.wire_encoded_bytes);
  EXPECT_LT(sparse.wire_encoded_bytes * 3, sparse.wire_raw_bytes);
  // Same payload schedule either way (plus kRaw's status reduction).
  EXPECT_GE(raw.messages, sparse.messages);
}

// The tentpole matrix: all four reduction topologies, both wire formats,
// one worker per rank and fibers sharing one or three workers, across
// power-of-two and awkward rank counts — every combination must produce
// the bit-identical HP limbs AND status.
TEST(Mpisim, HpReductionMatrixIsBitIdenticalAcrossEverything) {
  auto xs = workload::uniform_set(24000, 71);
  // Spice the stream so the status mask is non-trivial: values far below
  // the HP{6,3} lsb raise kInexact on deposit, and their flags must
  // survive every topology/wire/worker combination.
  xs[100] = 1e-300;
  xs[20000] = -1e-290;
  const HpConfig cfg{6, 3};
  HpDyn ref(cfg);
  for (const double x : xs) ref += x;

  for (const int ranks : {2, 5, 8, 16}) {
    for (const ReduceAlgo algo :
         {ReduceAlgo::kLinear, ReduceAlgo::kBinomialTree,
          ReduceAlgo::kRecursiveDoubling, ReduceAlgo::kRecursiveHalving}) {
      for (const Wire wire : {Wire::kRaw, Wire::kSparse}) {
        for (const int workers : {0, 1, 3}) {
          RunOptions opts;
          opts.workers = workers;
          std::vector<util::Limb> root_limbs;
          HpStatus root_status = HpStatus::kOk;
          run(ranks,
              [&](Comm& comm) {
                const auto slices = backends::partition(xs, comm.size());
                HpDyn local(cfg);
                for (const double x :
                     slices[static_cast<std::size_t>(comm.rank())]) {
                  local += x;
                }
                const HpDyn total =
                    reduce_hp_value(comm, local, 0, algo, wire);
                if (comm.rank() == 0) {
                  root_limbs.assign(total.limbs().begin(),
                                    total.limbs().end());
                  root_status = total.status();
                }
              },
              opts);
          const auto ctx = [&] {
            return "ranks=" + std::to_string(ranks) +
                   " algo=" + std::to_string(static_cast<int>(algo)) +
                   " wire=" + std::to_string(static_cast<int>(wire)) +
                   " workers=" + std::to_string(workers);
          };
          ASSERT_EQ(root_limbs.size(), ref.limbs().size()) << ctx();
          for (std::size_t i = 0; i < root_limbs.size(); ++i) {
            EXPECT_EQ(root_limbs[i], ref.limbs()[i]) << ctx() << " limb " << i;
          }
          EXPECT_EQ(root_status, ref.status()) << ctx();
        }
      }
    }
  }
}

TEST(Mpisim, HpAllreduceAgreesOnEveryRankWithGlobalStatus) {
  auto xs = workload::uniform_set(16000, 73);
  xs[7] = 1e-300;  // kInexact must reach every rank
  const HpConfig cfg{6, 3};
  HpDyn ref(cfg);
  for (const double x : xs) ref += x;

  for (const ReduceAlgo algo :
       {ReduceAlgo::kLinear, ReduceAlgo::kBinomialTree,
        ReduceAlgo::kRecursiveDoubling, ReduceAlgo::kRecursiveHalving}) {
    for (const Wire wire : {Wire::kRaw, Wire::kSparse}) {
      const int ranks = 12;
      std::vector<std::vector<util::Limb>> limbs(
          static_cast<std::size_t>(ranks));
      std::vector<HpStatus> status(static_cast<std::size_t>(ranks),
                                   HpStatus::kOk);
      run(ranks, [&](Comm& comm) {
        const auto slices = backends::partition(xs, comm.size());
        HpDyn local(cfg);
        for (const double x : slices[static_cast<std::size_t>(comm.rank())]) {
          local += x;
        }
        const HpDyn total = allreduce_hp_value(comm, local, algo, wire);
        const auto r = static_cast<std::size_t>(comm.rank());
        limbs[r].assign(total.limbs().begin(), total.limbs().end());
        status[r] = total.status();
      });
      for (int r = 0; r < ranks; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        ASSERT_EQ(limbs[ri].size(), ref.limbs().size());
        for (std::size_t i = 0; i < limbs[ri].size(); ++i) {
          EXPECT_EQ(limbs[ri][i], ref.limbs()[i])
              << "rank=" << r << " algo=" << static_cast<int>(algo)
              << " wire=" << static_cast<int>(wire);
        }
        EXPECT_EQ(status[ri], ref.status())
            << "rank=" << r << " algo=" << static_cast<int>(algo)
            << " wire=" << static_cast<int>(wire);
      }
    }
  }
}

// The scaling claim behind the fiber workers: a rank count far past any
// OS thread limit (1024 fibers on hardware_concurrency workers), all four
// topologies bit-identical. CI runs this
// (ctest -R ThousandRank) as the large-scale agreement gate.
TEST(Mpisim, ThousandRankMultiplexedReductionsAgree) {
  const int ranks = 1024;
  const HpConfig cfg{6, 3};
  const auto xs = workload::lognormal_set(8192, 79);
  HpDyn ref(cfg);
  for (const double x : xs) ref += x;

  for (const ReduceAlgo algo :
       {ReduceAlgo::kLinear, ReduceAlgo::kBinomialTree,
        ReduceAlgo::kRecursiveDoubling, ReduceAlgo::kRecursiveHalving}) {
    std::vector<util::Limb> root_limbs;
    HpStatus root_status = HpStatus::kOk;
    run(ranks,
        [&](Comm& comm) {
          const auto slices = backends::partition(xs, comm.size());
          HpDyn local(cfg);
          for (const double x :
               slices[static_cast<std::size_t>(comm.rank())]) {
            local += x;
          }
          const HpDyn total = reduce_hp_value(
              comm, local, 0, algo, Wire::kSparse);
          if (comm.rank() == 0) {
            root_limbs.assign(total.limbs().begin(), total.limbs().end());
            root_status = total.status();
          }
        });
    ASSERT_EQ(root_limbs.size(), ref.limbs().size());
    for (std::size_t i = 0; i < root_limbs.size(); ++i) {
      EXPECT_EQ(root_limbs[i], ref.limbs()[i])
          << "algo=" << static_cast<int>(algo) << " limb " << i;
    }
    EXPECT_EQ(root_status, ref.status()) << "algo=" << static_cast<int>(algo);
  }
}

TEST(Mpisim, RunStatsReportResolvedModeAndTraffic) {
  // RunStats reports the workers used and the run's traffic.
  RunStats stats;
  RunOptions opts;
  opts.stats = &stats;
  run(4, [](Comm& comm) { comm.barrier(); }, opts);
  EXPECT_EQ(stats.workers, 4);  // one worker per rank at 4 ranks

  opts.workers = 2;
  run(4,
      [](Comm& comm) {
        const double x = 1.0;
        double out = 0;
        comm.allreduce(&x, &out, 1, Datatype::f64(), f64_sum_op());
      },
      opts);
  EXPECT_EQ(stats.workers, 2);
  EXPECT_GT(stats.messages, 0u);
  EXPECT_GT(stats.bytes_sent, 0u);
  // No codec on the f64 op: encoded == raw.
  EXPECT_EQ(stats.wire_raw_bytes, stats.wire_encoded_bytes);
  EXPECT_GT(stats.wire_raw_bytes, 0u);
}

TEST(Mpisim, AutoModeSwitchesToMultiplexedAboveThreadLimit) {
  // The default worker rule: one worker (OS thread) per rank up to 128
  // ranks, hardware_concurrency workers above.
  RunStats stats;
  RunOptions opts;
  opts.stats = &stats;
  run(130, [](Comm& comm) { comm.barrier(); }, opts);
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  EXPECT_EQ(stats.workers, std::min(hw, 130));
  EXPECT_EQ(stats.messages, 0u);
}

TEST(Mpisim, HallbergReduceInvariantAfterNormalize) {
  const auto xs = workload::uniform_set(20000, 63);
  const HallbergParams p{10, 38};
  Hallberg ref(p);
  for (const double x : xs) ref.add(x);
  ref.normalize();

  for (const int ranks : {3, 8}) {
    std::vector<std::int64_t> root_limbs;
    run(ranks, [&](Comm& comm) {
      const auto slices = backends::partition(xs, comm.size());
      Hallberg local(p);
      for (const double x : slices[static_cast<std::size_t>(comm.rank())]) {
        local.add(x);
      }
      std::vector<std::byte> send(local.limbs().size() * sizeof(std::int64_t));
      std::memcpy(send.data(), local.limbs().data(), send.size());
      std::vector<std::byte> recv(send.size());
      comm.reduce(send.data(), recv.data(), 1, hallberg_datatype(p),
                  hallberg_sum_op(p), 0);
      if (comm.rank() == 0) {
        Hallberg total(p);
        std::memcpy(total.limbs().data(), recv.data(), recv.size());
        total.normalize();
        root_limbs = total.limbs();
      }
    });
    EXPECT_EQ(root_limbs, ref.limbs()) << "ranks=" << ranks;
  }
}

}  // namespace
}  // namespace hpsum::mpisim
