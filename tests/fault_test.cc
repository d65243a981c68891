#include "green/common/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "green/common/cancel.h"
#include "green/common/retry.h"

namespace green {
namespace {

// --- spec parsing ---

TEST(ParseFaultSpecsTest, EmptyConfigParsesToNoSpecs) {
  auto specs = ParseFaultSpecs("");
  ASSERT_TRUE(specs.ok());
  EXPECT_TRUE(specs->empty());

  specs = ParseFaultSpecs(" ,  , ");
  ASSERT_TRUE(specs.ok());
  EXPECT_TRUE(specs->empty());
}

TEST(ParseFaultSpecsTest, ValidClauses) {
  auto specs = ParseFaultSpecs(
      "run.fit@0.05, run.predict#7=timeout, sweep.cell#5=abort,"
      "journal.append@1.0=skip");
  ASSERT_TRUE(specs.ok());
  ASSERT_EQ(specs->size(), 4u);

  EXPECT_EQ((*specs)[0].site, "run.fit");
  EXPECT_DOUBLE_EQ((*specs)[0].probability, 0.05);
  EXPECT_EQ((*specs)[0].nth, 0);
  EXPECT_EQ((*specs)[0].kind, FaultKind::kFail);

  EXPECT_EQ((*specs)[1].site, "run.predict");
  EXPECT_EQ((*specs)[1].nth, 7);
  EXPECT_EQ((*specs)[1].kind, FaultKind::kTimeout);

  EXPECT_EQ((*specs)[2].site, "sweep.cell");
  EXPECT_EQ((*specs)[2].nth, 5);
  EXPECT_EQ((*specs)[2].kind, FaultKind::kAbort);

  EXPECT_EQ((*specs)[3].site, "journal.append");
  EXPECT_DOUBLE_EQ((*specs)[3].probability, 1.0);
  EXPECT_EQ((*specs)[3].kind, FaultKind::kSkip);
}

TEST(ParseFaultSpecsTest, GarbageAndOverflowRejected) {
  // No @/# separator.
  EXPECT_FALSE(ParseFaultSpecs("run.fit").ok());
  // Empty site.
  EXPECT_FALSE(ParseFaultSpecs("@0.5").ok());
  EXPECT_FALSE(ParseFaultSpecs("#3").ok());
  // Probability out of (0, 1].
  EXPECT_FALSE(ParseFaultSpecs("run.fit@0").ok());
  EXPECT_FALSE(ParseFaultSpecs("run.fit@2").ok());
  EXPECT_FALSE(ParseFaultSpecs("run.fit@-0.1").ok());
  // Non-numeric / trailing garbage probability.
  EXPECT_FALSE(ParseFaultSpecs("run.fit@abc").ok());
  EXPECT_FALSE(ParseFaultSpecs("run.fit@0.5x").ok());
  // nth out of range or overflowing.
  EXPECT_FALSE(ParseFaultSpecs("run.fit#0").ok());
  EXPECT_FALSE(ParseFaultSpecs("run.fit#-3").ok());
  EXPECT_FALSE(ParseFaultSpecs("run.fit#9999999999999").ok());
  EXPECT_FALSE(ParseFaultSpecs("run.fit#99999999999999999999999").ok());
  // Both @ and # in one clause.
  EXPECT_FALSE(ParseFaultSpecs("run.fit@0.5#3").ok());
  // Unknown kind.
  EXPECT_FALSE(ParseFaultSpecs("run.fit#1=explode").ok());
  // One bad clause fails the whole strict parse.
  EXPECT_FALSE(ParseFaultSpecs("run.fit#1, run.fit@2").ok());
}

TEST(ParseFaultSpecsTest, LenientDropsBadClausesKeepsGood) {
  const FaultInjector injector = FaultInjector::Lenient(
      "run.fit#1, garbage, run.predict@0.5, @1.0, x#0", 42);
  EXPECT_EQ(injector.size(), 2u);

  const FaultInjector all_bad = FaultInjector::Lenient("nope, @, #", 42);
  EXPECT_TRUE(all_bad.empty());

  // Out-of-range probability and a zero count are dropped too.
  const FaultInjector mixed = FaultInjector::Lenient(
      "garbage, run.fit@2.0, run.fit#0, @0.5, run.fit#3", 1);
  EXPECT_EQ(mixed.size(), 1u);  // Only run.fit#3 survives.
}

TEST(ParseFaultSpecsTest, UnknownSiteRejected) {
  // A misspelled site would arm nothing, so a chaos run would quietly run
  // clean: the strict parse fails and names the site.
  const auto typo = FaultInjector::Parse("run.fti@1", 7);
  ASSERT_FALSE(typo.ok());
  EXPECT_EQ(typo.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(typo.status().message().find("run.fti"), std::string::npos);
  EXPECT_FALSE(ParseFaultSpecs("run.fit@0.5, serve.admitt#1").ok());

  // Lenient drops only the unknown clause and keeps its valid neighbours.
  const FaultInjector lenient = FaultInjector::Lenient(
      "serve.admit@1, run.fti@1, journal.append#1", 7);
  EXPECT_EQ(lenient.size(), 2u);
  EXPECT_FALSE(lenient.Check("serve.admit").ok());
  EXPECT_FALSE(lenient.Check("journal.append").ok());
  EXPECT_TRUE(lenient.Check("run.fti").ok());
}

// --- injected status ---

TEST(MakeInjectedStatusTest, KindsMapToCodes) {
  const Status fail = MakeInjectedStatus(FaultKind::kFail, "s");
  EXPECT_EQ(fail.code(), Status::Code::kInternal);
  EXPECT_NE(fail.message().find("injected fault at s"), std::string::npos);

  const Status timeout = MakeInjectedStatus(FaultKind::kTimeout, "s");
  EXPECT_EQ(timeout.code(), Status::Code::kDeadlineExceeded);

  const Status skip = MakeInjectedStatus(FaultKind::kSkip, "s");
  EXPECT_EQ(skip.code(), Status::Code::kUnimplemented);
}

TEST(MakeInjectedStatusDeathTest, AbortAborts) {
  EXPECT_DEATH(MakeInjectedStatus(FaultKind::kAbort, "boom"),
               "injected abort at boom");
}

// --- firing semantics ---

TEST(FaultInjectorTest, EmptyInjectorNeverFires) {
  const FaultInjector injector;
  EXPECT_TRUE(injector.empty());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(injector.Check("run.fit").ok());
  }
}

TEST(FaultInjectorTest, NthFiresExactlyOnceAtNthCall) {
  auto injector = FaultInjector::Parse("run.fit#3", 1);
  ASSERT_TRUE(injector.ok());
  EXPECT_TRUE(injector->Check("run.fit").ok());   // Call 1.
  EXPECT_TRUE(injector->Check("run.fit").ok());   // Call 2.
  EXPECT_FALSE(injector->Check("run.fit").ok());  // Call 3: fires.
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(injector->Check("run.fit").ok());  // Never again.
  }
}

TEST(FaultInjectorTest, SiteMismatchNeverFires) {
  auto injector = FaultInjector::Parse("run.fit@1.0,run.predict#1", 1);
  ASSERT_TRUE(injector.ok());
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(injector->Check("journal.append").ok());
  }
}

TEST(FaultInjectorTest, ProbabilityOneAlwaysFires) {
  auto injector = FaultInjector::Parse("run.fit@1.0", 1);
  ASSERT_TRUE(injector.ok());
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(injector->Check("run.fit").ok());
  }
}

TEST(FaultInjectorTest, SameSeedSameDecisions) {
  auto draw = [](uint64_t seed) {
    FaultInjector injector = FaultInjector::Lenient("run.fit@0.5", seed);
    std::vector<bool> out;
    for (int i = 0; i < 200; ++i) {
      out.push_back(!injector.Check("run.fit").ok());
    }
    return out;
  };
  const std::vector<bool> a = draw(7);
  const std::vector<bool> b = draw(7);
  EXPECT_EQ(a, b);
  // Sanity: p=0.5 over 200 draws hits both outcomes.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 200);

  // A different seed gives a different decision sequence.
  EXPECT_NE(a, draw(8));
}

// --- scoped determinism ---

TEST(FaultScopeTest, CurrentTracksNesting) {
  EXPECT_EQ(FaultScope::Current(), nullptr);
  {
    FaultScope outer("outer");
    EXPECT_EQ(FaultScope::Current(), &outer);
    EXPECT_EQ(FaultScope::Current()->key(), "outer");
    {
      FaultScope inner("inner");
      EXPECT_EQ(FaultScope::Current(), &inner);
    }
    EXPECT_EQ(FaultScope::Current(), &outer);
  }
  EXPECT_EQ(FaultScope::Current(), nullptr);
}

TEST(FaultScopeTest, OrdinalsAdvancePerCheck) {
  FaultScope scope("k");
  EXPECT_EQ(scope.NextOrdinal(), 0u);
  EXPECT_EQ(scope.NextOrdinal(), 1u);
  EXPECT_EQ(scope.NextOrdinal(), 2u);
}

TEST(FaultScopeTest, ScopedDecisionsIndependentOfExecutionOrder) {
  // The same (scope key, ordinal) must draw the same fault decision no
  // matter in which order scopes are visited or interleaved — this is
  // what makes parallel sweeps bit-identical to sequential ones.
  const std::vector<std::string> keys = {"cell-a", "cell-b", "cell-c",
                                         "cell-d"};
  auto draw_all = [&](bool reversed) {
    FaultInjector injector = FaultInjector::Lenient("run.fit@0.5", 11);
    std::vector<std::pair<std::string, bool>> decisions;
    std::vector<std::string> order = keys;
    if (reversed) std::reverse(order.begin(), order.end());
    for (const std::string& key : order) {
      FaultScope scope(key);
      for (int i = 0; i < 8; ++i) {
        decisions.emplace_back(key, !injector.Check("run.fit").ok());
      }
    }
    std::sort(decisions.begin(), decisions.end());
    return decisions;
  };
  EXPECT_EQ(draw_all(false), draw_all(true));
}

// --- concurrency (run under TSan via the `concurrency` ctest label) ---

TEST(FaultInjectorConcurrencyTest, NthFiresExactlyOnceUnderContention) {
  auto injector = FaultInjector::Parse("run.fit#100", 3);
  ASSERT_TRUE(injector.ok());
  std::atomic<int> fired{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        if (!injector->Check("run.fit").ok()) fired.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(fired.load(), 1);  // Single-shot latch, no double fire.
}

TEST(FaultInjectorConcurrencyTest, ScopedChecksRaceFree) {
  const FaultInjector injector =
      FaultInjector::Lenient("run.fit@0.5", 5);
  std::vector<std::thread> threads;
  std::atomic<int> fired{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      FaultScope scope("thread-" + std::to_string(t));
      for (int i = 0; i < 200; ++i) {
        if (!injector.Check("run.fit").ok()) fired.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GT(fired.load(), 0);
  EXPECT_LT(fired.load(), 8 * 200);
}

TEST(CancelTokenConcurrencyTest, SetOnceVisibleEverywhere) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  std::vector<std::thread> threads;
  std::atomic<int> observed{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      while (!token.cancelled()) {
      }
      observed.fetch_add(1);
    });
  }
  token.Cancel();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(observed.load(), 4);
  EXPECT_TRUE(token.cancelled());  // Cancellation is monotonic.
}

TEST(CancelTokenTest, DeadlineArmsOnceAndStaysCancelled) {
  CancelToken unarmed;
  unarmed.CancelAfter(std::nan(""));  // Arms nothing.
  unarmed.CancelAfter(1e300);         // Beyond any horizon: arms nothing.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_FALSE(unarmed.cancelled());

  CancelToken past;
  past.CancelAfter(-1.0);
  EXPECT_TRUE(past.cancelled());

  CancelToken soon;
  soon.CancelAfter(1e-9);
  while (!soon.cancelled()) {
  }
  // A later deadline never moves an armed one back.
  soon.CancelAfter(3600.0);
  EXPECT_TRUE(soon.cancelled());

  CancelToken later;
  later.CancelAfter(3600.0);
  EXPECT_FALSE(later.cancelled());
  later.Cancel();
  later.CancelAfter(3600.0);
  EXPECT_TRUE(later.cancelled());
}

TEST(CancelTokenConcurrencyTest, EarliestOfRacingDeadlinesWins) {
  CancelToken token;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    // Thread 0 arms a 1 ms deadline; the others race it with an hour.
    threads.emplace_back([&token, t] {
      token.CancelAfter(t == 0 ? 1e-3 : 3600.0);
      while (!token.cancelled()) {
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(token.cancelled());
}

// --- retry policy ---

TEST(RetryPolicyTest, RetryableClassification) {
  EXPECT_TRUE(IsRetryable(Status::Internal("transient")));
  EXPECT_TRUE(IsRetryable(Status::IoError("disk hiccup")));
  EXPECT_TRUE(IsRetryable(Status::ResourceExhausted("oom")));
  EXPECT_FALSE(IsRetryable(Status::Ok()));
  EXPECT_FALSE(IsRetryable(Status::InvalidArgument("semantic")));
  EXPECT_FALSE(IsRetryable(Status::Unimplemented("unsupported")));
  EXPECT_FALSE(IsRetryable(Status::DeadlineExceeded("would repeat")));
  EXPECT_FALSE(IsRetryable(Status::NotFound("missing")));
}

}  // namespace
}  // namespace green
