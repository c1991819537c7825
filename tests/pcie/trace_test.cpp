#include "pcie/trace.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <variant>
#include <vector>

namespace bb::pcie {
namespace {

using namespace bb::literals;

Tlp make_tlp(TlpType type, Direction dir, std::uint32_t bytes,
             std::uint64_t msg_id = 0) {
  Tlp t;
  t.type = type;
  t.dir = dir;
  t.bytes = bytes;
  if (msg_id != 0) {
    DescriptorWrite dw;
    dw.md.msg_id = msg_id;
    t.content = dw;
  }
  return t;
}

TEST(Trace, RecordsCarryMsgIdAndKind) {
  Trace tr;
  tr.record_tlp(10_ns, make_tlp(TlpType::kMemWrite, Direction::kDownstream,
                                64, 42));
  ASSERT_EQ(tr.size(), 1u);
  EXPECT_EQ(tr[0].msg_id, 42u);
  EXPECT_EQ(tr[0].kind(), "PIO-MD");
}

TEST(Trace, DownstreamWritesFiltersDirectionTypeAndSize) {
  Trace tr;
  tr.record_tlp(1_ns, make_tlp(TlpType::kMemWrite, Direction::kDownstream, 64));
  tr.record_tlp(2_ns, make_tlp(TlpType::kMemWrite, Direction::kUpstream, 64));
  tr.record_tlp(3_ns, make_tlp(TlpType::kMemRead, Direction::kDownstream, 0));
  tr.record_dllp(4_ns, Direction::kDownstream, Dllp{});
  const auto down = tr.downstream_writes();
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0].t, 1_ns);
  const auto up = tr.upstream_writes();
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(up[0].t, 2_ns);
}

TEST(Trace, DeltasComputeConsecutiveGaps) {
  Trace tr;
  for (double t : {100.0, 382.0, 665.0, 947.0}) {
    tr.record_tlp(TimePs::from_ns(t),
                  make_tlp(TlpType::kMemWrite, Direction::kDownstream, 64));
  }
  const Samples deltas = Trace::deltas(tr.downstream_writes());
  ASSERT_EQ(deltas.size(), 3u);
  EXPECT_NEAR(deltas.values_ns()[0], 282.0, 1e-9);
  EXPECT_NEAR(deltas.values_ns()[1], 283.0, 1e-9);
  EXPECT_NEAR(deltas.values_ns()[2], 282.0, 1e-9);
}

TEST(Trace, SpansPairsFirstLaterRecord) {
  Trace tr;
  // "ping" downstream at 0, "completion" upstream at 900; next pair at
  // 1000/1900.
  tr.record_tlp(0_ns, make_tlp(TlpType::kMemWrite, Direction::kDownstream, 64));
  tr.record_tlp(900_ns, make_tlp(TlpType::kMemWrite, Direction::kUpstream, 64));
  tr.record_tlp(1000_ns,
                make_tlp(TlpType::kMemWrite, Direction::kDownstream, 64));
  tr.record_tlp(1900_ns,
                make_tlp(TlpType::kMemWrite, Direction::kUpstream, 64));
  const Samples spans =
      Trace::spans(tr.downstream_writes(), tr.upstream_writes());
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NEAR(spans.values_ns()[0], 900.0, 1e-9);
  EXPECT_NEAR(spans.values_ns()[1], 900.0, 1e-9);
}

TEST(Trace, RenderShowsFigSixStyleRows) {
  Trace tr;
  tr.record_tlp(282.33_ns,
                make_tlp(TlpType::kMemWrite, Direction::kDownstream, 64, 5));
  const std::string out = tr.render();
  EXPECT_NE(out.find("MWr"), std::string::npos);
  EXPECT_NE(out.find("down"), std::string::npos);
  EXPECT_NE(out.find("64"), std::string::npos);
  EXPECT_NE(out.find("282.33"), std::string::npos);
}

TEST(Trace, CsvExport) {
  Trace tr;
  tr.record_tlp(282.33_ns,
                make_tlp(TlpType::kMemWrite, Direction::kDownstream, 64, 5));
  tr.record_dllp(300_ns, Direction::kUpstream, Dllp{});
  const std::string csv = tr.to_csv();
  EXPECT_NE(csv.find("time_ns,dir,packet,bytes,kind,msg_id"),
            std::string::npos);
  EXPECT_NE(csv.find("282.330,down,MWr,64,PIO-MD,5"), std::string::npos);
  EXPECT_NE(csv.find("300.000,up,Ack,8"), std::string::npos);
}

TEST(Trace, LabelsEveryContentEveryDllpAndTheEpBit) {
  // One TLP per TlpContent alternative (in variant order), the three
  // DLLP types, then a poisoned PIO descriptor.
  const TlpContent contents[] = {
      std::monostate{}, DoorbellWrite{}, DescriptorWrite{}, CqeWrite{},
      PayloadWrite{},   ReadRequest{},   ReadCompletion{}};
  static_assert(std::size(contents) == std::variant_size_v<TlpContent>);
  Trace tr;
  for (const TlpContent& c : contents) {
    Tlp t;
    t.content = c;
    tr.record_tlp(1_ns, t);
  }
  for (DllpType d : {DllpType::kAck, DllpType::kNak, DllpType::kUpdateFC}) {
    Dllp dllp;
    dllp.type = d;
    tr.record_dllp(2_ns, Direction::kUpstream, dllp);
  }
  Tlp ep = make_tlp(TlpType::kMemWrite, Direction::kDownstream, 64, 7);
  ep.poisoned = true;
  tr.record_tlp(50_ns, ep);

  const std::vector<std::string> want = {
      "-",        "DoorBell", "PIO-MD", "CQE",      "payload", "DMA-read",
      "DMA-data", "Ack",      "Nak",    "UpdateFC", "PIO-MD!EP"};
  ASSERT_EQ(tr.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(tr[i].kind(), want[i]) << "record " << i;
  }
  EXPECT_NE(tr.render(0, want.size())
                .find("          50.00  down  MWr          64  PIO-MD!EP  7\n"),
            std::string::npos);
  EXPECT_NE(tr.to_csv().find("\n50.000,down,MWr,64,PIO-MD!EP,7\n"),
            std::string::npos);
}

TEST(Analyzer, DisabledCaptureRecordsNothing) {
  Analyzer a;
  a.set_enabled(false);
  a.on_tlp(1_ns, make_tlp(TlpType::kMemWrite, Direction::kDownstream, 64));
  EXPECT_EQ(a.trace().size(), 0u);
  a.set_enabled(true);
  a.on_tlp(2_ns, make_tlp(TlpType::kMemWrite, Direction::kDownstream, 64));
  EXPECT_EQ(a.trace().size(), 1u);
}

}  // namespace
}  // namespace bb::pcie
