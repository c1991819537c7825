// The analyzer's capture store: fixed chunks that never move, read back
// in order, fingerprinted exactly as a flat store was, and reused by
// clear() without a single allocation.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc_counter.hpp"
#include "pcie/trace.hpp"

namespace bb::pcie {
namespace {

constexpr std::size_t kChunk = Trace::kChunkRecords;

/// Packet `i` of a synthetic capture: every TLP type, direction and
/// content, all three DLLP types and the odd poisoned TLP.
void record(Trace& tr, std::size_t i) {
  const TimePs t(static_cast<std::int64_t>(i) * 1250 +
                 static_cast<std::int64_t>(i % 7));
  const Direction dir = i % 2 ? Direction::kUpstream : Direction::kDownstream;
  if (i % 5 == 4) {
    Dllp d;
    d.type = static_cast<DllpType>(i % 3);
    d.ack_seq = i;
    tr.record_dllp(t, dir, d);
    return;
  }
  Tlp tlp;
  tlp.type = static_cast<TlpType>(i % 3);
  tlp.dir = dir;
  tlp.bytes = static_cast<std::uint32_t>(8 + (i % 64) * 8);
  tlp.tag = i * 3;
  tlp.poisoned = i % 97 == 0;
  switch (i % 7) {
    case 0:
      break;
    case 1:
      tlp.content = DoorbellWrite{};
      break;
    case 2: {
      DescriptorWrite dw;
      dw.md.msg_id = i;
      tlp.content = dw;
      break;
    }
    case 3:
      tlp.content = CqeWrite{0, i, 1};
      break;
    case 4:
      tlp.content = PayloadWrite{i, 0, 64};
      break;
    case 5:
      tlp.content = ReadRequest{};
      break;
    default:
      tlp.content = ReadCompletion{};
      break;
  }
  tr.record_tlp(t, tlp);
}

TEST(TraceCapture, RecordsAcrossChunkBoundariesReadBackInOrder) {
  Trace tr;
  const std::size_t n = 3 * kChunk + 17;
  for (std::size_t i = 0; i < n; ++i) record(tr, i);
  ASSERT_EQ(tr.size(), n);

  std::size_t i = 0;
  for (const TraceRecord& r : tr) {
    ASSERT_EQ(r.t, tr[i].t) << "record " << i;
    EXPECT_EQ(r.t.ps(), static_cast<std::int64_t>(i * 1250 + i % 7));
    EXPECT_EQ(r.is_dllp, i % 5 == 4);
    if (!r.is_dllp) {
      EXPECT_EQ(r.tag, i * 3);
    }
    ++i;
  }
  EXPECT_EQ(i, n);
  // Neighbours of each boundary, by index.
  for (std::size_t b = kChunk; b < n; b += kChunk) {
    EXPECT_LT(tr[b - 1].t, tr[b].t);
  }
}

TEST(TraceCapture, MultiChunkChecksumMatchesTheFlatStore) {
  // Recorded with the single-vector store this one replaced, for the
  // same sequence of records.
  constexpr std::size_t kRecords = 6161;
  static_assert(kRecords > 3 * kChunk);
  Trace tr;
  for (std::size_t i = 0; i < kRecords; ++i) record(tr, i);
  EXPECT_EQ(tr.checksum(), 0xadb339e51ed56d3full);
}

TEST(TraceCapture, FullChunksAllocateOnlyChunksAndTheirIndex) {
  constexpr std::size_t kChunks = 5;
  // What the chunk index's growth costs for kChunks entries, measured on
  // a vector of the same element count.
  const std::uint64_t index0 = support::heap_allocs();
  {
    std::vector<void*> index;
    for (std::size_t c = 0; c < kChunks; ++c) index.push_back(nullptr);
  }
  const std::uint64_t index_allocs = support::heap_allocs() - index0;

  Trace tr;
  const std::uint64_t before = support::heap_allocs();
  for (std::size_t i = 0; i < kChunks * kChunk; ++i) record(tr, i);
  EXPECT_EQ(support::heap_allocs() - before, kChunks + index_allocs);
}

TEST(TraceCapture, ClearKeepsChunksForTheNextCapture) {
  Trace tr;
  const std::size_t n = 2 * kChunk + 5;
  for (std::size_t i = 0; i < n; ++i) record(tr, i);
  const std::uint64_t first = tr.checksum();

  tr.clear();
  EXPECT_EQ(tr.size(), 0u);
  const std::uint64_t before = support::heap_allocs();
  for (std::size_t i = 0; i < n; ++i) record(tr, i);
  EXPECT_EQ(support::heap_allocs() - before, 0u);
  EXPECT_EQ(tr.size(), n);
  EXPECT_EQ(tr.checksum(), first);
}

}  // namespace
}  // namespace bb::pcie
