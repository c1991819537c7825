#include "pcie/trace.hpp"

#include <cstdio>
#include <iterator>
#include <variant>

namespace bb::pcie {

namespace {

std::uint64_t msg_id_of(const Tlp& tlp) {
  if (const auto* d = std::get_if<DescriptorWrite>(&tlp.content)) {
    return d->md.msg_id;
  }
  if (const auto* c = std::get_if<CqeWrite>(&tlp.content)) return c->msg_id;
  if (const auto* p = std::get_if<PayloadWrite>(&tlp.content)) return p->msg_id;
  return 0;
}

/// Label of each TlpContent alternative, indexed by variant index.
constexpr const char* kContentLabels[] = {
    "-", "DoorBell", "PIO-MD", "CQE", "payload", "DMA-read", "DMA-data"};
static_assert(std::size(kContentLabels) == std::variant_size_v<TlpContent>,
              "every TlpContent alternative needs a label");

}  // namespace

std::string TraceRecord::kind() const {
  if (is_dllp) return to_string(dllp_type);
  std::string k = kContentLabels[content];
  // Never set on the error-free path, so golden traces are untouched.
  if (poisoned) k += "!EP";
  return k;
}

void Trace::record_tlp(TimePs t, const Tlp& tlp) {
  TraceRecord r;
  r.t = t;
  r.dir = tlp.dir;
  r.is_dllp = false;
  r.tlp_type = tlp.type;
  r.bytes = tlp.bytes;
  r.tag = tlp.tag;
  r.msg_id = msg_id_of(tlp);
  r.content = static_cast<std::uint8_t>(tlp.content.index());
  r.poisoned = tlp.poisoned;
  push(r);
}

void Trace::record_dllp(TimePs t, Direction dir, const Dllp& dllp) {
  TraceRecord r;
  r.t = t;
  r.dir = dir;
  r.is_dllp = true;
  r.dllp_type = dllp.type;
  r.bytes = 8;
  r.tag = dllp.ack_seq;
  push(r);
}

void Trace::push(const TraceRecord& r) {
  const std::size_t chunk = size_ / kChunkRecords;
  if (chunk == chunks_.size()) {
    chunks_.push_back(std::make_unique<TraceRecord[]>(kChunkRecords));
  }
  chunks_[chunk][size_ % kChunkRecords] = r;
  ++size_;
}

std::vector<TraceRecord> Trace::filter(
    const std::function<bool(const TraceRecord&)>& pred) const {
  std::vector<TraceRecord> out;
  for (const auto& r : *this) {
    if (pred(r)) out.push_back(r);
  }
  return out;
}

std::vector<TraceRecord> Trace::downstream_writes(
    std::uint32_t min_bytes) const {
  return filter([min_bytes](const TraceRecord& r) {
    return !r.is_dllp && r.dir == Direction::kDownstream &&
           r.tlp_type == TlpType::kMemWrite && r.bytes >= min_bytes;
  });
}

std::vector<TraceRecord> Trace::upstream_writes(std::uint32_t min_bytes) const {
  return filter([min_bytes](const TraceRecord& r) {
    return !r.is_dllp && r.dir == Direction::kUpstream &&
           r.tlp_type == TlpType::kMemWrite && r.bytes >= min_bytes;
  });
}

Samples Trace::deltas(const std::vector<TraceRecord>& recs) {
  Samples s;
  for (std::size_t i = 1; i < recs.size(); ++i) {
    s.add(recs[i].t - recs[i - 1].t);
  }
  return s;
}

Samples Trace::spans(const std::vector<TraceRecord>& from,
                     const std::vector<TraceRecord>& to) {
  Samples s;
  std::size_t j = 0;
  for (const auto& f : from) {
    while (j < to.size() && to[j].t <= f.t) ++j;
    if (j == to.size()) break;
    s.add(to[j].t - f.t);
    ++j;
  }
  return s;
}

std::string Trace::to_csv() const {
  std::string out = "time_ns,dir,packet,bytes,kind,msg_id\n";
  char line[160];
  for (const auto& r : *this) {
    std::snprintf(line, sizeof(line), "%.3f,%s,%s,%u,%s,%llu\n", r.t.to_ns(),
                  to_string(r.dir).c_str(),
                  r.is_dllp ? to_string(r.dllp_type).c_str()
                            : to_string(r.tlp_type).c_str(),
                  r.bytes, r.kind().c_str(),
                  static_cast<unsigned long long>(r.msg_id));
    out += line;
  }
  return out;
}

std::string Trace::render(std::size_t start, std::size_t count) const {
  std::string out =
      "      time (ns)  dir   pkt       bytes  kind       msg\n";
  char line[160];
  for (std::size_t i = start; i < size_ && i < start + count; ++i) {
    const auto& r = (*this)[i];
    std::snprintf(line, sizeof(line), "%15.2f  %-4s  %-8s  %5u  %-9s  %llu\n",
                  r.t.to_ns(), to_string(r.dir).c_str(),
                  r.is_dllp ? to_string(r.dllp_type).c_str()
                            : to_string(r.tlp_type).c_str(),
                  r.bytes, r.kind().c_str(),
                  static_cast<unsigned long long>(r.msg_id));
    out += line;
  }
  return out;
}

std::uint64_t Trace::checksum() const {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& r : *this) {
    mix(static_cast<std::uint64_t>(r.t.ps()));
    mix(static_cast<std::uint64_t>(r.dir));
    mix(static_cast<std::uint64_t>(r.is_dllp));
    mix(static_cast<std::uint64_t>(r.tlp_type));
    mix(static_cast<std::uint64_t>(r.dllp_type));
    mix(r.bytes);
    mix(r.tag);
    mix(r.msg_id);
    for (char c : r.kind()) {
      mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
  }
  return h;
}

}  // namespace bb::pcie
