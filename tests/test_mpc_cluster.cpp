#include "mpc/cluster.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <string>

#include "mpc/dist_vector.h"

namespace monge::mpc {
namespace {

MpcConfig small_config(std::int64_t machines, std::int64_t space = 1 << 20,
                       bool strict = true) {
  MpcConfig cfg;
  cfg.num_machines = machines;
  cfg.space_words = space;
  cfg.strict = strict;
  cfg.threads = 2;
  return cfg;
}

TEST(Cluster, CountsRounds) {
  Cluster c(small_config(4));
  EXPECT_EQ(c.rounds(), 0);
  for (int i = 0; i < 5; ++i) c.run_round([](MachineCtx&) {});
  EXPECT_EQ(c.rounds(), 5);
  c.reset_stats();
  EXPECT_EQ(c.rounds(), 0);
}

TEST(Cluster, DeliversMessagesNextRound) {
  Cluster c(small_config(3));
  c.run_round([](MachineCtx& mc) {
    if (mc.id() == 0) mc.send(2, 7, {10, 20});
    EXPECT_TRUE(mc.inbox().empty());  // nothing in flight yet
  });
  c.run_round([](MachineCtx& mc) {
    if (mc.id() == 2) {
      ASSERT_EQ(mc.inbox().size(), 1u);
      EXPECT_EQ(mc.inbox()[0].from, 0);
      EXPECT_EQ(mc.inbox()[0].tag, 7);
      EXPECT_EQ(mc.inbox()[0].payload, (std::vector<Word>{10, 20}));
    } else {
      EXPECT_TRUE(mc.inbox().empty());
    }
  });
  // Mailboxes are cleared after consumption.
  c.run_round([](MachineCtx& mc) { EXPECT_TRUE(mc.inbox().empty()); });
}

TEST(Cluster, DeliveryOrderedBySender) {
  Cluster c(small_config(8));
  c.run_round([](MachineCtx& mc) {
    if (mc.id() > 0) mc.send(0, mc.id(), {mc.id()});
  });
  c.run_round([](MachineCtx& mc) {
    if (mc.id() != 0) return;
    ASSERT_EQ(mc.inbox().size(), 7u);
    for (std::size_t k = 0; k < 7; ++k) {
      EXPECT_EQ(mc.inbox()[k].from, static_cast<std::int64_t>(k) + 1);
    }
  });
}

TEST(Cluster, TypedSendRoundTrip) {
  struct Pair {
    std::int32_t a;
    std::int32_t b;
  };
  Cluster c(small_config(2));
  const std::vector<Pair> sent = {{1, 2}, {3, 4}, {-5, 6}};
  c.run_round([&](MachineCtx& mc) {
    if (mc.id() == 0) mc.send_items<Pair>(1, 0, sent);
  });
  c.run_round([&](MachineCtx& mc) {
    if (mc.id() != 1) return;
    ASSERT_EQ(mc.inbox().size(), 1u);
    const auto got = mc.inbox()[0].decode<Pair>();
    ASSERT_EQ(got.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(got[i].a, sent[i].a);
      EXPECT_EQ(got[i].b, sent[i].b);
    }
  });
}

TEST(Cluster, StrictModeRejectsOversizedTraffic) {
  Cluster c(small_config(2, /*space=*/16, /*strict=*/true));
  EXPECT_THROW(c.run_round([](MachineCtx& mc) {
    if (mc.id() == 0) mc.send(1, 0, std::vector<Word>(100, 1));
  }),
               SpaceLimitError);
}

TEST(Cluster, LenientModeAllowsOversizedTraffic) {
  Cluster c(small_config(2, /*space=*/16, /*strict=*/false));
  EXPECT_NO_THROW(c.run_round([](MachineCtx& mc) {
    if (mc.id() == 0) mc.send(1, 0, std::vector<Word>(100, 1));
  }));
  c.run_round([](MachineCtx&) {});
  EXPECT_GT(c.stats().max_machine_words, 16);
}

TEST(Cluster, SpaceErrorCarriesDiagnostics) {
  Cluster c(small_config(2, 16, true));
  try {
    c.run_round([](MachineCtx& mc) {
      if (mc.id() == 1) mc.send(0, 0, std::vector<Word>(50, 0));
    });
    FAIL() << "expected SpaceLimitError";
  } catch (const SpaceLimitError& e) {
    EXPECT_EQ(e.machine(), 1);
    EXPECT_EQ(e.limit(), 16);
    EXPECT_GE(e.words(), 50);
  }
}

TEST(Cluster, TracksCommunicationTotals) {
  Cluster c(small_config(4));
  c.run_round([](MachineCtx& mc) { mc.send((mc.id() + 1) % 4, 0, {1, 2, 3}); });
  c.run_round([](MachineCtx&) {});
  // 4 messages * (3 payload + 2 envelope) words.
  EXPECT_EQ(c.stats().total_comm_words, 4 * 5);
}

TEST(Cluster, ResidentAuditing) {
  Cluster c(small_config(2, /*space=*/64, /*strict=*/true));
  {
    DistVector<std::int64_t> dv(c, 100);  // 50 words per machine
    EXPECT_EQ(c.resident_words(0), 50);
    EXPECT_NO_THROW(c.run_round([](MachineCtx&) {}));
    DistVector<std::int64_t> dv2(c, 60);  // +30 words -> 80 > 64
    EXPECT_THROW(c.run_round([](MachineCtx&) {}), SpaceLimitError);
  }
  // Auditors unregistered on destruction.
  EXPECT_EQ(c.resident_words(0), 0);
  EXPECT_NO_THROW(c.run_round([](MachineCtx&) {}));
}

TEST(Cluster, FullyScalableConfigShapes) {
  const auto cfg = MpcConfig::fully_scalable(1 << 20, 0.5);
  EXPECT_EQ(cfg.num_machines, 1 << 10);
  EXPECT_GT(cfg.space_words, 1 << 10);
  // Machines grow with delta, space shrinks.
  const auto hi = MpcConfig::fully_scalable(1 << 20, 0.7);
  EXPECT_GT(hi.num_machines, cfg.num_machines);
  EXPECT_LT(hi.space_words, cfg.space_words);
}

TEST(DistVectorTest, LayoutCoversAllIndices) {
  for (std::int64_t m : {1, 2, 3, 7, 10}) {
    for (std::int64_t n : {0, 1, 5, 9, 10, 23, 100}) {
      BlockLayout layout{n, m};
      std::int64_t covered = 0;
      for (std::int64_t i = 0; i < m; ++i) {
        EXPECT_EQ(layout.hi(i) - layout.lo(i), layout.size(i));
        covered += layout.size(i);
      }
      EXPECT_EQ(covered, n);
      for (std::int64_t idx = 0; idx < n; ++idx) {
        const std::int64_t o = layout.owner(idx);
        EXPECT_LE(layout.lo(o), idx);
        EXPECT_LT(idx, layout.hi(o));
      }
    }
  }
}

TEST(DistVectorTest, HostRoundTrip) {
  Cluster c(small_config(5));
  std::vector<std::int64_t> data(123);
  std::iota(data.begin(), data.end(), -17);
  auto dv = DistVector<std::int64_t>::from_host(c, data);
  EXPECT_TRUE(dv.is_balanced());
  EXPECT_EQ(dv.to_host(), data);
}

TEST(ClusterValidation, RejectsBadConfigsAtConstruction) {
  EXPECT_THROW(Cluster{small_config(0)}, InvalidRequestError);
  EXPECT_THROW(Cluster{small_config(-3)}, InvalidRequestError);
  EXPECT_THROW(Cluster{small_config(2, /*space=*/0)}, InvalidRequestError);

  MpcConfig cfg = small_config(2);
  cfg.checkpoint_interval = 0;
  EXPECT_THROW(Cluster{cfg}, InvalidRequestError);

  cfg = small_config(2);
  cfg.faults.crash_prob = std::nan("");
  EXPECT_THROW(Cluster{cfg}, InvalidRequestError);

  cfg = small_config(2);
  cfg.faults.drop_prob = 1.5;
  EXPECT_THROW(Cluster{cfg}, InvalidRequestError);

  cfg = small_config(2);
  cfg.faults.corrupt_prob = -0.25;
  EXPECT_THROW(Cluster{cfg}, InvalidRequestError);

  cfg = small_config(2);
  cfg.faults.max_round_retries = -1;
  EXPECT_THROW(Cluster{cfg}, InvalidRequestError);

  cfg = small_config(2);
  cfg.faults.scheduled.push_back({/*round=*/0, /*machine=*/2,
                                  FaultKind::kCrash});  // out of range
  EXPECT_THROW(Cluster{cfg}, InvalidRequestError);

  cfg = small_config(2);
  cfg.faults.scheduled.push_back({/*round=*/-1, /*machine=*/0,
                                  FaultKind::kCrash});
  EXPECT_THROW(Cluster{cfg}, InvalidRequestError);
}

TEST(ClusterValidation, FullyScalableRejectsBadKnobs) {
  EXPECT_THROW(MpcConfig::fully_scalable(0, 0.5), InvalidRequestError);
  EXPECT_THROW(MpcConfig::fully_scalable(1 << 10, 0.0), InvalidRequestError);
  EXPECT_THROW(MpcConfig::fully_scalable(1 << 10, 1.0), InvalidRequestError);
  EXPECT_THROW(MpcConfig::fully_scalable(1 << 10, std::nan("")),
               InvalidRequestError);
  EXPECT_THROW(MpcConfig::fully_scalable(1 << 10, 0.5, 0.0),
               InvalidRequestError);
  EXPECT_THROW(MpcConfig::fully_scalable(1 << 10, 0.5, std::nan("")),
               InvalidRequestError);
  EXPECT_THROW(
      MpcConfig::fully_scalable(1 << 10, 0.5,
                                std::numeric_limits<double>::infinity()),
      InvalidRequestError);
  EXPECT_NO_THROW(MpcConfig::fully_scalable(1 << 10, 0.5));
}

TEST(Cluster, ClosureErrorsSurfaceLowestMachineDeterministically) {
  // Two machines fail in the same round; the surfaced exception must be
  // machine 1's on every execution, regardless of pool scheduling.
  Cluster c(small_config(4));
  for (int it = 0; it < 25; ++it) {
    try {
      c.run_round([](MachineCtx& mc) {
        if (mc.id() == 1 || mc.id() == 3) {
          throw std::runtime_error("boom from machine " +
                                   std::to_string(mc.id()));
        }
      });
      FAIL() << "expected the closure error to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom from machine 1");
    }
  }
}

TEST(Cluster, TwoOverBudgetMachinesReportTheLowerId) {
  // Satellite regression: simultaneous budget overruns on machines 1 and 3
  // must always cite machine 1.
  Cluster c(small_config(4, /*space=*/16, /*strict=*/true));
  for (int it = 0; it < 25; ++it) {
    try {
      c.run_round([](MachineCtx& mc) {
        if (mc.id() == 1 || mc.id() == 3) {
          mc.send(mc.id(), 0, std::vector<Word>(100, 1));
        }
      });
      FAIL() << "expected SpaceLimitError";
    } catch (const SpaceLimitError& e) {
      EXPECT_EQ(e.machine(), 1);
    }
  }
}

TEST(ClusterChaos, ScheduledCrashRecoversBitIdentically) {
  // A ring computation over a registered DistVector: each round, machine i
  // adds its inbox word into its shard and forwards its running sum.
  const auto run = [](FaultPlan fp) {
    MpcConfig cfg = small_config(4);
    cfg.faults = std::move(fp);
    Cluster c(cfg);
    std::vector<std::int64_t> init(32);
    std::iota(init.begin(), init.end(), 1);
    auto dv = DistVector<std::int64_t>::from_host(c, init);
    for (int r = 0; r < 4; ++r) {
      c.run_round([&](MachineCtx& mc) {
        const std::int64_t i = mc.id();
        std::int64_t got = 0;
        for (const Message& msg : mc.inbox()) got += msg.payload.at(0);
        auto& shard = dv.local(i);
        std::int64_t sum = 0;
        for (auto& x : shard) {
          x += got;
          sum += x;
        }
        mc.send((i + 1) % mc.machines(), 0, {sum});
      });
    }
    return std::make_pair(dv.to_host(), c.stats());
  };

  const auto [clean, clean_stats] = run(FaultPlan{});
  FaultPlan fp;
  fp.scheduled.push_back({/*round=*/2, /*machine=*/1, FaultKind::kCrash});
  const auto [chaos, chaos_stats] = run(fp);

  // Bit-identical output, identical paper-side accounting.
  EXPECT_EQ(chaos, clean);
  EXPECT_EQ(chaos_stats.rounds, clean_stats.rounds);
  EXPECT_EQ(chaos_stats.total_comm_words, clean_stats.total_comm_words);
  // Recovery strictly on the recovery ledger.
  EXPECT_EQ(clean_stats.recovery, RecoveryStats{});
  EXPECT_EQ(chaos_stats.recovery.crashes_recovered, 1);
  EXPECT_GE(chaos_stats.recovery.recovery_rounds, 1);
  EXPECT_GE(chaos_stats.recovery.checkpoints, 4);
  EXPECT_GT(chaos_stats.recovery.checkpoint_words, 0);
  EXPECT_GT(chaos_stats.recovery.recovery_comm_words, 0);
}

TEST(ClusterChaos, CrashWithoutFreshCheckpointIsUnrecoverable) {
  MpcConfig cfg = small_config(2);
  cfg.checkpoint_interval = 2;  // rounds 0, 2, ... are checkpointed
  cfg.faults.scheduled.push_back({/*round=*/1, /*machine=*/0,
                                  FaultKind::kCrash});
  Cluster c(cfg);
  EXPECT_NO_THROW(c.run_round([](MachineCtx&) {}));  // round 0
  try {
    c.run_round([](MachineCtx&) {});  // round 1: crash, no round-1 snapshot
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.machine(), 0);
    EXPECT_EQ(e.round(), 1);
    EXPECT_EQ(e.code(), ErrorCode::kFault);
  }
}

TEST(ClusterChaos, RetryBudgetExhaustionThrowsFaultError) {
  MpcConfig cfg = small_config(2);
  cfg.faults.crash_prob = 1.0;  // crash on every attempt
  cfg.faults.max_round_retries = 3;
  Cluster c(cfg);
  EXPECT_THROW(c.run_round([](MachineCtx&) {}), FaultError);
  // The exhausted retries are still accounted.
  EXPECT_EQ(c.stats().recovery.recovery_rounds, 3);
}

TEST(ClusterChaos, CrashWithNonRecoverableResidentIsUnrecoverable) {
  MpcConfig cfg = small_config(2);
  cfg.faults.scheduled.push_back({/*round=*/0, /*machine=*/1,
                                  FaultKind::kCrash});
  Cluster c(cfg);
  // Audit-only registration: words but no checkpoint/restore hooks.
  const std::int64_t id = c.register_resident([](std::int64_t) {
    return std::int64_t{1};
  });
  EXPECT_THROW(c.run_round([](MachineCtx&) {}), FaultError);
  c.unregister_resident(id);
}

TEST(ClusterChaos, MessageFaultsAreMaskedByReliableTransport) {
  MpcConfig cfg = small_config(2);
  cfg.faults.drop_prob = 1.0;
  cfg.faults.duplicate_prob = 1.0;
  cfg.faults.corrupt_prob = 1.0;
  Cluster c(cfg);
  c.run_round([](MachineCtx& mc) {
    if (mc.id() == 0) mc.send(1, 9, {10, 20, 30});
  });
  c.run_round([](MachineCtx& mc) {
    if (mc.id() != 1) return;
    // Delivery is pristine: the transport masked every injected event.
    ASSERT_EQ(mc.inbox().size(), 1u);
    EXPECT_EQ(mc.inbox()[0].payload, (std::vector<Word>{10, 20, 30}));
  });
  EXPECT_EQ(c.stats().recovery.messages_dropped, 1);
  EXPECT_EQ(c.stats().recovery.messages_duplicated, 1);
  EXPECT_EQ(c.stats().recovery.messages_corrupted, 1);
  EXPECT_GT(c.stats().recovery.recovery_comm_words, 0);
  // The paper-side ledger records the message once, as if fault-free.
  EXPECT_EQ(c.stats().total_comm_words, 3 + 2);
}

TEST(ClusterChaos, StragglersAreCountedButHarmless) {
  MpcConfig cfg = small_config(3);
  cfg.faults.straggle_prob = 1.0;
  Cluster c(cfg);
  c.run_round([](MachineCtx&) {});
  c.run_round([](MachineCtx&) {});
  EXPECT_EQ(c.stats().recovery.straggler_delays, 2 * 3);
  EXPECT_EQ(c.stats().rounds, 2);
}

TEST(DistVectorTest, MoveKeepsAuditingConsistent) {
  Cluster c(small_config(2));
  DistVector<std::int64_t> a(c, 100);
  const std::int64_t before = c.resident_words(0);
  DistVector<std::int64_t> b = std::move(a);
  EXPECT_EQ(c.resident_words(0), before);  // no double counting
  DistVector<std::int64_t> d(c, 10);
  d = std::move(b);
  EXPECT_EQ(c.resident_words(0), before);  // old shard of d released
}

// A 24-byte item: three words per element in the resident audit.
struct WideItem {
  std::int64_t x = 0;
  std::int64_t y = 0;
  std::int64_t z = 0;
};

// Three DistVectors of 30 items each on 3 machines, 10 items per shard:
// 10 int32 words + 10 int64 words + 30 WideItem words = 50 per machine.
// The round empties machine 0's shards, grows machine 1 by 10 int32,
// 5 int64 and 4 WideItem (+27 -> 77) and machine 2 by 4 WideItem
// (+12 -> 62).
void unbalance_round(Cluster& c, DistVector<std::int32_t>& narrow,
                     DistVector<std::int64_t>& word, DistVector<WideItem>& wide) {
  c.run_round([&](MachineCtx& mc) {
    const std::int64_t i = mc.id();
    if (i == 0) {
      narrow.local(i).clear();
      word.local(i).clear();
      wide.local(i).clear();
    } else if (i == 1) {
      narrow.local(i).resize(20, 7);
      word.local(i).resize(15, 7);
      wide.local(i).resize(14);
    } else {
      wide.local(i).resize(14);
    }
  });
}

TEST(Cluster, ResidentAuditAcrossItemWidths) {
  Cluster c(small_config(3, /*space=*/1 << 20, /*strict=*/false));
  DistVector<std::int32_t> narrow(c, 30);
  DistVector<std::int64_t> word(c, 30);
  auto wide = std::make_unique<DistVector<WideItem>>(c, 30);
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_EQ(c.resident_words(i), 50);

  unbalance_round(c, narrow, word, *wide);
  EXPECT_FALSE(wide->is_balanced());
  EXPECT_EQ(c.resident_words(0), 0);
  EXPECT_EQ(c.resident_words(1), 77);
  EXPECT_EQ(c.resident_words(2), 62);
  EXPECT_EQ(c.stats().max_resident_words, 77);
  EXPECT_EQ(c.stats().max_machine_words, 77);  // no traffic this round

  // A moved-from vector stops counting; the moved-to one counts once.
  DistVector<WideItem> moved = std::move(*wide);
  EXPECT_EQ(c.resident_words(1), 77);
  wide.reset();
  EXPECT_EQ(c.resident_words(1), 77);

  // An audit-only registration adds through the per-machine adapter.
  const std::int64_t extra = c.register_resident(
      [](std::int64_t machine) { return 100 * machine; });
  EXPECT_EQ(c.resident_words(2), 262);
  c.unregister_resident(extra);
  EXPECT_EQ(c.resident_words(2), 62);

  {
    // A destroyed vector stops counting: 14 WideItem leave machine 1.
    DistVector<WideItem> gone = std::move(moved);
  }
  EXPECT_EQ(c.resident_words(0), 0);
  EXPECT_EQ(c.resident_words(1), 35);
  EXPECT_EQ(c.resident_words(2), 20);
  c.reset_stats();
  c.run_round([](MachineCtx&) {});
  EXPECT_EQ(c.stats().max_resident_words, 35);
}

TEST(Cluster, ResidentAuditStrictReportsLowestOverBudgetMachine) {
  // Budget 61: machines 1 (77 words) and 2 (62 words) both overflow after
  // the round; the lowest id wins and the error carries its word count.
  Cluster c(small_config(3, /*space=*/61, /*strict=*/true));
  DistVector<std::int32_t> narrow(c, 30);
  DistVector<std::int64_t> word(c, 30);
  DistVector<WideItem> wide(c, 30);
  EXPECT_NO_THROW(c.run_round([](MachineCtx&) {}));
  try {
    unbalance_round(c, narrow, word, wide);
    FAIL() << "expected SpaceLimitError";
  } catch (const SpaceLimitError& e) {
    EXPECT_EQ(e.machine(), 1);
    EXPECT_EQ(e.words(), 77);
    EXPECT_EQ(e.limit(), 61);
  }
}

}  // namespace
}  // namespace monge::mpc
