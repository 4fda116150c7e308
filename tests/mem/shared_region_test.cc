#include "mem/shared_region.h"

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cstring>

#include "mem/page.h"

namespace faasm {
namespace {

TEST(SharedRegionTest, CreateAndWriteThroughHostView) {
  auto region = SharedRegion::Create("test", 1000, kHostPageBytes);
  ASSERT_TRUE(region.ok()) << region.status().ToString();
  auto& r = *region.value();
  EXPECT_EQ(r.size(), 1000u);
  EXPECT_EQ(r.mapped_size(), kHostPageBytes);
  std::memset(r.host_view(), 0xAB, r.size());
  EXPECT_EQ(r.host_view()[999], 0xAB);
}

TEST(SharedRegionTest, ZeroSizeRejected) {
  auto region = SharedRegion::Create("empty", 0, kHostPageBytes);
  EXPECT_FALSE(region.ok());
  EXPECT_EQ(region.status().code(), StatusCode::kInvalidArgument);
}

TEST(SharedRegionTest, SizeRoundsUpToHostPages) {
  auto region = SharedRegion::Create("round", kHostPageBytes + 1, kHostPageBytes);
  ASSERT_TRUE(region.ok());
  EXPECT_EQ(region.value()->mapped_size(), 2 * kHostPageBytes);
}

TEST(SharedRegionTest, TwoViewsOfSamePhysicalMemory) {
  // A second MAP_SHARED view of the region's fd must alias the first.
  auto region = SharedRegion::Create("alias", kHostPageBytes, kHostPageBytes);
  ASSERT_TRUE(region.ok());
  auto& r = *region.value();
  void* second = mmap(nullptr, r.mapped_size(), PROT_READ | PROT_WRITE, MAP_SHARED, r.fd(), 0);
  ASSERT_NE(second, MAP_FAILED);
  r.host_view()[42] = 7;
  EXPECT_EQ(static_cast<uint8_t*>(second)[42], 7);
  static_cast<uint8_t*>(second)[43] = 9;
  EXPECT_EQ(r.host_view()[43], 9);
  munmap(second, r.mapped_size());
}

}  // namespace
}  // namespace faasm
