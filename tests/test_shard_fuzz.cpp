// Oracle-armed fuzz under sharding: 200 random scenarios run with
// DCP_SHARDS=4 must produce verdicts identical to the serial run, with
// every invariant in the catalogue armed on every shard's simulator.
// Scenarios whose fault plans have effect silently fall back to serial
// inside run_fuzz_scenario — their digests then match trivially, which is
// exactly the escape-hatch contract.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "check/fuzzer.h"

namespace dcp {
namespace {

class ScopedShardsEnv {
 public:
  explicit ScopedShardsEnv(int shards) {
    const char* prev = std::getenv("DCP_SHARDS");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    setenv("DCP_SHARDS", std::to_string(shards).c_str(), 1);
  }
  ~ScopedShardsEnv() {
    if (had_prev_) {
      setenv("DCP_SHARDS", prev_.c_str(), 1);
    } else {
      unsetenv("DCP_SHARDS");
    }
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

struct FuzzDigest {
  bool violated = false;
  std::string invariant;
  Time at = 0;
  std::size_t num_violations = 0;
  bool all_complete = false;

  bool operator==(const FuzzDigest&) const = default;
};

std::vector<FuzzDigest> fuzz_batch(int shards) {
  ScopedShardsEnv env(shards);
  std::vector<FuzzDigest> out;
  for (std::size_t i = 0; i < 200; ++i) {
    const WorldSpec s = generate_fuzz_scenario(/*seed=*/2000 + i);
    const FuzzVerdict v = run_fuzz_scenario(s);
    out.push_back(FuzzDigest{v.violated, v.invariant, v.at, v.num_violations, v.all_complete});
  }
  return out;
}

TEST(ShardFuzz, TwoHundredSeedsCleanAndIdenticalToSerial) {
  const std::vector<FuzzDigest> sharded = fuzz_batch(4);
  const std::vector<FuzzDigest> serial = fuzz_batch(1);
  ASSERT_EQ(sharded.size(), serial.size());
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    EXPECT_EQ(sharded[i], serial[i]) << "seed " << 2000 + i;
    EXPECT_FALSE(sharded[i].violated) << "seed " << 2000 + i << ": " << sharded[i].invariant;
  }
}

}  // namespace
}  // namespace dcp
