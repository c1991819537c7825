#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kDriver: return "driver";
    case Layer::kScenario: return "scenario";
    case Layer::kCpu: return "cpu";
    case Layer::kLlp: return "llp";
    case Layer::kHlp: return "hlp";
    case Layer::kColl: return "coll";
  }
  return "?";
}

Tracer::Tracer() : origin_ns_(host_now_ns()) {}

std::size_t Tracer::fn_index(Layer layer, const char* fn) {
  for (std::size_t i = 0; i < fns_.size(); ++i) {
    if (fns_[i].fn == fn && fns_[i].layer == layer) return i;
  }
  FnStats s;
  s.layer = layer;
  s.fn = fn;
  fns_.push_back(std::move(s));
  return fns_.size() - 1;
}

Tracer::Lane::Lane(Tracer& t, const bb::sim::Simulator& sim, int trial,
                   int lane)
    : t_(t), sim_(sim), trial_(trial), lane_(lane) {}

std::int64_t Tracer::Lane::charge() {
  const std::int64_t now = host_now_ns();
  if (!stack_.empty() && t_.last_event_ns_ != 0) {
    stack_.back().exclusive_ns += static_cast<double>(now - t_.last_event_ns_);
  }
  t_.last_event_ns_ = now;
  return now;
}

void Tracer::Lane::begin(Layer layer, const char* fn, std::uint64_t op) {
  Open o;
  o.fn_index = t_.fn_index(layer, fn);
  o.id = t_.next_id_++;
  o.parent = stack_.empty() ? 0 : stack_.back().id;
  o.op = op;
  o.sim_start_ps = sim_.now().ps();
  o.child_ns = 0.0;
  o.exclusive_ns = 0.0;
  o.host_start = charge();
  stack_.push_back(o);
}

void Tracer::Lane::end() {
  const std::int64_t host_end = charge();
  const Open o = stack_.back();
  stack_.pop_back();
  const double dur = static_cast<double>(host_end - o.host_start);
  if (!stack_.empty()) stack_.back().child_ns += dur;
  t_.close(o.fn_index,
           Kept{o.fn_index, o.id, o.parent, o.op, trial_, lane_, o.host_start,
                host_end, o.sim_start_ps, sim_.now().ps()},
           dur - o.child_ns, o.exclusive_ns);
}

void Tracer::record_span(Layer layer, const char* fn, int trial,
                         std::int64_t host_start, std::int64_t host_end) {
  const std::size_t i = fn_index(layer, fn);
  const double dur = static_cast<double>(host_end - host_start);
  close(i, Kept{i, next_id_++, 0, 0, trial, -1, host_start, host_end, 0, 0},
        dur, dur);
}

void Tracer::close(std::size_t i, const Kept& span, double self_ns,
                   double exclusive_ns) {
  const double dur = static_cast<double>(span.host_end - span.host_start);
  const double sim_ns =
      static_cast<double>(span.sim_end_ps - span.sim_start_ps) / 1e3;
  FnStats& s = fns_[i];
  ++s.calls;
  s.host_ns += dur;
  s.self_ns += self_ns;
  s.exclusive_ns += exclusive_ns;
  s.sim_ns += sim_ns;
  s.host_samples_ns.push_back(static_cast<float>(dur));
  s.sim_samples_ns.push_back(static_cast<float>(sim_ns));
  if (kept_.size() < kMaxKeptSpans) kept_.push_back(span);
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Kept& k = kept_[i];
    const FnStats& s = fns_[k.fn_index];
    std::fprintf(
        f,
        "%s{\"name\":\"%s.%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%d,"
        "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
        "\"parent\":%llu,\"op\":%llu,\"sim_start_ns\":%.3f,"
        "\"sim_end_ns\":%.3f}}\n",
        i == 0 ? "" : ",", layer_name(s.layer), s.fn, layer_name(s.layer),
        k.trial, k.lane, static_cast<double>(k.host_start - origin_ns_) / 1e3,
        static_cast<double>(k.host_end - k.host_start) / 1e3,
        static_cast<unsigned long long>(k.id),
        static_cast<unsigned long long>(k.parent),
        static_cast<unsigned long long>(k.op),
        static_cast<double>(k.sim_start_ps) / 1e3,
        static_cast<double>(k.sim_end_ps) / 1e3);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double Tracer::layer_exclusive_ns(Layer l) const {
  double ns = 0.0;
  for (const FnStats& s : fns_) {
    if (s.layer == l) ns += s.exclusive_ns;
  }
  return ns;
}

std::string Tracer::self_time_table(double ops) const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "%-9s %-22s %10s %13s %11s %11s %12s\n",
                "layer", "function", "calls", "host_ns/call", "self_ns/op",
                "excl_ns/op", "sim_ns/call");
  out += line;
  std::vector<const FnStats*> order;
  for (const FnStats& s : fns_) order.push_back(&s);
  std::stable_sort(order.begin(), order.end(),
                   [](const FnStats* a, const FnStats* b) {
                     return a->layer < b->layer;
                   });
  double total = 0.0;
  for (const FnStats* s : order) {
    const double calls = static_cast<double>(std::max<std::uint64_t>(s->calls, 1));
    std::snprintf(line, sizeof line,
                  "%-9s %-22s %10llu %13.1f %11.1f %11.1f %12.1f\n",
                  layer_name(s->layer), s->fn,
                  static_cast<unsigned long long>(s->calls), s->host_ns / calls,
                  s->self_ns / ops, s->exclusive_ns / ops, s->sim_ns / calls);
    out += line;
    total += s->exclusive_ns;
  }
  for (int l = 0; l < kLayerCount; ++l) {
    std::snprintf(line, sizeof line, "%-9s %-22s %10s %13s %11s %11.1f\n",
                  layer_name(static_cast<Layer>(l)), "(layer)", "", "", "",
                  layer_exclusive_ns(static_cast<Layer>(l)) / ops);
    out += line;
  }
  std::snprintf(line, sizeof line, "%-9s %-22s %10s %13s %11s %11.1f\n", "all",
                "(traced host time)", "", "", "", total / ops);
  out += line;
  return out;
}

}  // namespace perfbench
