#include "coll/coll.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace bb::coll {

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::kAuto: return "auto";
    case Algo::kDissemination: return "dissemination";
    case Algo::kRingToken: return "ring-token";
    case Algo::kBinomialTree: return "binomial-tree";
    case Algo::kChain: return "chain";
    case Algo::kBruck: return "bruck";
    case Algo::kRingAllgather: return "ring";
    case Algo::kRecursiveDoubling: return "recursive-doubling";
    case Algo::kRingAllreduce: return "ring";
  }
  BB_UNREACHABLE("bad Algo");
}

Algo resolve_barrier(const CollTuning& t, int nranks, Algo a) {
  if (a != Algo::kAuto) {
    BB_ASSERT(a == Algo::kDissemination || a == Algo::kRingToken);
    return a;
  }
  return nranks <= t.barrier_ring_max_ranks ? Algo::kRingToken
                                            : Algo::kDissemination;
}

Algo resolve_bcast(const CollTuning& t, int nranks, std::uint32_t bytes,
                   Algo a) {
  if (a != Algo::kAuto) {
    BB_ASSERT(a == Algo::kBinomialTree || a == Algo::kChain);
    return a;
  }
  (void)nranks;
  return bytes >= t.bcast_chain_min_bytes ? Algo::kChain
                                          : Algo::kBinomialTree;
}

Algo resolve_allgather(const CollTuning& t, int nranks,
                       std::uint32_t bytes_per_rank, Algo a) {
  if (a != Algo::kAuto) {
    BB_ASSERT(a == Algo::kBruck || a == Algo::kRingAllgather);
    return a;
  }
  (void)nranks;
  return bytes_per_rank >= t.allgather_ring_min_bytes ? Algo::kRingAllgather
                                                      : Algo::kBruck;
}

Algo resolve_allreduce(const CollTuning& t, int nranks, std::uint32_t bytes,
                       Algo a) {
  if (a != Algo::kAuto) {
    BB_ASSERT(a == Algo::kRecursiveDoubling || a == Algo::kRingAllreduce);
    return a;
  }
  (void)nranks;
  return bytes >= t.allreduce_ring_min_bytes ? Algo::kRingAllreduce
                                             : Algo::kRecursiveDoubling;
}

namespace {

/// Keeps the first non-OK status of a schedule's waits in `first`. A
/// failed wait does not end the schedule: the remaining steps run as they
/// would have, and the schedule returns `first`.
void keep_first(common::Status& first, common::Status s) {
  if (first == common::Status::kOk) first = s;
}

/// Simultaneous exchange with (possibly identical) peers: recv posted
/// first (MPI idiom), both completed by the shared progress engine, the
/// received payload handed back; the waitall's status folds into `st`.
sim::Task<std::vector<double>> sendrecv(Communicator& c, int dst,
                                        std::uint32_t send_bytes,
                                        std::vector<double> send_data,
                                        int src, std::uint32_t recv_bytes,
                                        common::Status& st) {
  hlp::Request* rr = c.irecv(src, recv_bytes);
  hlp::Request* sr = co_await c.isend(dst, send_bytes, std::move(send_data));
  std::vector<hlp::Request*> reqs;
  reqs.push_back(sr);
  reqs.push_back(rr);
  keep_first(st, co_await c.waitall(reqs));
  co_return c.take_data(src);
}

void reduce_into(ReduceOp op, std::vector<double>& dst,
                 const std::vector<double>& src, std::size_t dst_off = 0) {
  BB_ASSERT(dst_off + src.size() <= dst.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    double& d = dst[dst_off + i];
    d = op == ReduceOp::kSum ? d + src[i] : std::max(d, src[i]);
  }
}

// ---------------------------------------------------------------- Barrier

sim::Task<common::Status> barrier_dissemination(Communicator& c) {
  common::Status st = common::Status::kOk;
  const int n = c.size(), r = c.rank();
  // Round k: notify rank r+2^k, hear from rank r-2^k. ceil(log2 n)
  // rounds, after which every rank transitively heard from every other.
  for (int k = 1; k < n; k <<= 1) {
    const int dst = (r + k) % n;
    const int src = (r - k + n) % n;
    // Named empty payload: GCC 12 double-destroys prvalue temporaries
    // passed as coroutine arguments inside co_await expressions.
    std::vector<double> token;
    (void)co_await sendrecv(c, dst, 8, std::move(token), src, 8, st);
  }
  co_return st;
}

sim::Task<common::Status> barrier_ring_token(Communicator& c) {
  common::Status st = common::Status::kOk;
  const int n = c.size(), r = c.rank();
  const int right = (r + 1) % n, left = (r - 1 + n) % n;
  // Two laps of a token: lap one proves everyone arrived, lap two
  // releases everyone (a rank may only leave once the token has visited
  // all ranks *after* its own arrival).
  for (int lap = 0; lap < 2; ++lap) {
    if (r == 0) {
      hlp::Request* s = co_await c.isend(right, 8);
      keep_first(st, co_await c.wait(s));
      hlp::Request* rr = c.irecv(left, 8);
      keep_first(st, co_await c.wait(rr));
      (void)c.take_data(left);
    } else {
      hlp::Request* rr = c.irecv(left, 8);
      keep_first(st, co_await c.wait(rr));
      (void)c.take_data(left);
      hlp::Request* s = co_await c.isend(right, 8);
      keep_first(st, co_await c.wait(s));
    }
  }
  co_return st;
}

// ------------------------------------------------------------------ Bcast

sim::Task<common::Status> bcast_binomial(Communicator& c, int root,
                                         std::uint32_t bytes,
                                         std::vector<double>& data) {
  common::Status st = common::Status::kOk;
  const int n = c.size(), r = c.rank();
  const int vr = (r - root + n) % n;  // relative rank: root becomes 0
  const std::uint32_t wb = wire_bytes(bytes);

  // Receive phase: the lowest set bit of vr names the subtree parent.
  int mask = 1;
  while (mask < n) {
    if (vr & mask) {
      const int src = (vr - mask + root) % n;
      hlp::Request* rr = c.irecv(src, wb);
      keep_first(st, co_await c.wait(rr));
      data = c.take_data(src);
      break;
    }
    mask <<= 1;
  }
  // Send phase: peel the mask back down, feeding each child subtree.
  mask >>= 1;
  std::vector<hlp::Request*> sends;
  while (mask > 0) {
    if (vr + mask < n) {
      const int dst = (vr + mask + root) % n;
      sends.push_back(co_await c.isend(dst, wb, data));
    }
    mask >>= 1;
  }
  if (!sends.empty()) keep_first(st, co_await c.waitall(sends));
  co_return st;
}

sim::Task<common::Status> bcast_chain(Communicator& c, int root,
                                      std::uint32_t bytes,
                                      std::vector<double>& data) {
  common::Status st = common::Status::kOk;
  const int n = c.size(), r = c.rank();
  const std::uint32_t seg =
      std::max<std::uint32_t>(8, c.tuning().bcast_chain_segment_bytes);
  const int vr = (r - root + n) % n;
  const int nseg = static_cast<int>((bytes + seg - 1) / seg);
  auto seg_bytes = [&](int s) {
    const std::uint32_t last = bytes - seg * static_cast<std::uint32_t>(nseg - 1);
    return wire_bytes(s == nseg - 1 ? last : seg);
  };
  const int prev = (vr - 1 + root + n) % n;
  const int next = (vr + 1 + root) % n;

  if (vr == 0) {
    // Root: stream all segments down the chain. The logical payload
    // rides on segment 0; later segments carry bytes only.
    std::vector<hlp::Request*> sends;
    sends.reserve(static_cast<std::size_t>(nseg));
    for (int s = 0; s < nseg; ++s) {
      std::vector<double> payload;
      if (s == 0) payload = data;
      sends.push_back(co_await c.isend(next, seg_bytes(s), std::move(payload)));
    }
    keep_first(st, co_await c.waitall(sends));
    co_return st;
  }

  // Interior and tail ranks: pre-post every segment, then forward each
  // the moment it lands -- segment s flows down the chain while segment
  // s+1 is still in flight upstream (the pipeline).
  std::vector<hlp::Request*> recvs;
  recvs.reserve(static_cast<std::size_t>(nseg));
  for (int s = 0; s < nseg; ++s) recvs.push_back(c.irecv(prev, seg_bytes(s)));
  std::vector<hlp::Request*> sends;
  for (int s = 0; s < nseg; ++s) {
    keep_first(st, co_await c.wait(recvs[static_cast<std::size_t>(s)]));
    std::vector<double> got = c.take_data(prev);
    if (s == 0) data = got;
    if (vr != n - 1) {
      sends.push_back(co_await c.isend(next, seg_bytes(s), std::move(got)));
    }
  }
  if (!sends.empty()) keep_first(st, co_await c.waitall(sends));
  co_return st;
}

// -------------------------------------------------------------- Allgather

sim::Task<common::Status> allgather_ring(
    Communicator& c, std::uint32_t bytes_per_rank,
    const std::vector<double>& mine, std::vector<std::vector<double>>& out) {
  common::Status st = common::Status::kOk;
  const int n = c.size(), r = c.rank();
  const std::uint32_t wb = wire_bytes(bytes_per_rank);
  const int right = (r + 1) % n, left = (r - 1 + n) % n;
  out.assign(static_cast<std::size_t>(n), {});
  out[static_cast<std::size_t>(r)] = mine;
  // Step s: pass block (r-s) right while block (r-s-1) arrives from the
  // left; after n-1 steps every block has visited every rank.
  for (int s = 0; s < n - 1; ++s) {
    const int sb = (r - s + n) % n;
    const int rb = (r - s - 1 + n) % n;
    out[static_cast<std::size_t>(rb)] = co_await sendrecv(
        c, right, wb, out[static_cast<std::size_t>(sb)], left, wb, st);
  }
  co_return st;
}

sim::Task<common::Status> allgather_bruck(
    Communicator& c, std::uint32_t bytes_per_rank,
    const std::vector<double>& mine, std::vector<std::vector<double>>& out) {
  common::Status st = common::Status::kOk;
  const int n = c.size(), r = c.rank();
  const std::size_t elems = mine.size();
  // tmp[i] accumulates the contribution of rank (r+i) % n; round k ships
  // the first min(k, n-k) filled blocks k ranks backwards, doubling the
  // filled prefix. Works for any n (the tail round is partial).
  std::vector<std::vector<double>> tmp(static_cast<std::size_t>(n));
  tmp[0] = mine;
  for (int k = 1; k < n; k <<= 1) {
    const int cnt = std::min(k, n - k);
    const int dst = (r - k + n) % n, src = (r + k) % n;
    std::vector<double> payload;
    payload.reserve(static_cast<std::size_t>(cnt) * elems);
    for (int i = 0; i < cnt; ++i) {
      payload.insert(payload.end(), tmp[static_cast<std::size_t>(i)].begin(),
                     tmp[static_cast<std::size_t>(i)].end());
    }
    const std::uint32_t wb =
        wire_bytes(static_cast<std::uint64_t>(cnt) * bytes_per_rank);
    std::vector<double> got =
        co_await sendrecv(c, dst, wb, std::move(payload), src, wb, st);
    BB_ASSERT(got.size() == static_cast<std::size_t>(cnt) * elems);
    for (int i = 0; i < cnt; ++i) {
      auto first = got.begin() + static_cast<std::ptrdiff_t>(
                                     static_cast<std::size_t>(i) * elems);
      tmp[static_cast<std::size_t>(k + i)].assign(
          first, first + static_cast<std::ptrdiff_t>(elems));
    }
  }
  out.assign(static_cast<std::size_t>(n), {});
  for (int i = 0; i < n; ++i) {
    out[static_cast<std::size_t>((r + i) % n)] =
        std::move(tmp[static_cast<std::size_t>(i)]);
  }
  co_return st;
}

// -------------------------------------------------------------- Allreduce

sim::Task<common::Status> allreduce_ring(Communicator& c, std::uint32_t bytes,
                                         std::vector<double>& inout,
                                         ReduceOp op) {
  common::Status st = common::Status::kOk;
  const int n = c.size(), r = c.rank();
  const std::size_t elems = inout.size();
  (void)bytes;
  // Ceil-partition the vector into n chunks (front chunks one element
  // larger); chunks that come up empty still cost one 8B control slot on
  // the wire, which the cost model mirrors.
  std::vector<std::size_t> counts(static_cast<std::size_t>(n)),
      displs(static_cast<std::size_t>(n));
  const std::size_t base = elems / static_cast<std::size_t>(n);
  const std::size_t rem = elems % static_cast<std::size_t>(n);
  for (std::size_t i = 0, off = 0; i < static_cast<std::size_t>(n); ++i) {
    counts[i] = base + (i < rem ? 1 : 0);
    displs[i] = off;
    off += counts[i];
  }
  auto chunk_wire = [&](int i) {
    return wire_bytes(8ull * counts[static_cast<std::size_t>(i)]);
  };
  auto chunk_copy = [&](int i) {
    const auto b = inout.begin() +
                   static_cast<std::ptrdiff_t>(displs[static_cast<std::size_t>(i)]);
    return std::vector<double>(
        b, b + static_cast<std::ptrdiff_t>(counts[static_cast<std::size_t>(i)]));
  };
  const int right = (r + 1) % n, left = (r - 1 + n) % n;

  // Reduce-scatter lap: after step s rank r holds the partial reduction
  // of chunk (r-s-1) over s+2 ranks; after n-1 steps it owns the fully
  // reduced chunk (r+1) % n.
  for (int s = 0; s < n - 1; ++s) {
    const int sc = (r - s + n) % n;
    const int rc = (r - s - 1 + n) % n;
    std::vector<double> outgoing = chunk_copy(sc);
    std::vector<double> got =
        co_await sendrecv(c, right, chunk_wire(sc), std::move(outgoing), left,
                          chunk_wire(rc), st);
    reduce_into(op, inout, got, displs[static_cast<std::size_t>(rc)]);
  }
  // Allgather lap: circulate the reduced chunks.
  for (int s = 0; s < n - 1; ++s) {
    const int sc = (r + 1 - s + n) % n;
    const int rc = (r - s + n) % n;
    std::vector<double> outgoing = chunk_copy(sc);
    std::vector<double> got =
        co_await sendrecv(c, right, chunk_wire(sc), std::move(outgoing), left,
                          chunk_wire(rc), st);
    std::copy(got.begin(), got.end(),
              inout.begin() +
                  static_cast<std::ptrdiff_t>(displs[static_cast<std::size_t>(rc)]));
  }
  co_return st;
}

sim::Task<common::Status> allreduce_recursive_doubling(
    Communicator& c, std::uint32_t bytes, std::vector<double>& inout,
    ReduceOp op) {
  common::Status st = common::Status::kOk;
  const int n = c.size(), r = c.rank();
  const std::uint32_t wb = wire_bytes(bytes);
  // MPICH non-power-of-two fold: the first 2*rem ranks pair up so that
  // pof2 ranks run the power-of-two exchange, then the result unfolds.
  int pof2 = 1;
  while (pof2 * 2 <= n) pof2 *= 2;
  const int rem = n - pof2;

  int newrank;
  if (r < 2 * rem) {
    if ((r & 1) == 0) {
      hlp::Request* s = co_await c.isend(r + 1, wb, inout);
      keep_first(st, co_await c.wait(s));
      newrank = -1;  // folded out until the final unfold
    } else {
      hlp::Request* rr = c.irecv(r - 1, wb);
      keep_first(st, co_await c.wait(rr));
      reduce_into(op, inout, c.take_data(r - 1));
      newrank = r / 2;
    }
  } else {
    newrank = r - rem;
  }

  if (newrank >= 0) {
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int peer_new = newrank ^ mask;
      const int peer = peer_new < rem ? peer_new * 2 + 1 : peer_new + rem;
      std::vector<double> got =
          co_await sendrecv(c, peer, wb, inout, peer, wb, st);
      reduce_into(op, inout, got);
    }
  }

  if (r < 2 * rem) {
    if (r & 1) {
      hlp::Request* s = co_await c.isend(r - 1, wb, inout);
      keep_first(st, co_await c.wait(s));
    } else {
      hlp::Request* rr = c.irecv(r + 1, wb);
      keep_first(st, co_await c.wait(rr));
      inout = c.take_data(r + 1);
    }
  }
  co_return st;
}

}  // namespace

// ----------------------------------------------------------- entry points

sim::Task<common::Status> barrier(Communicator& c, Algo a) {
  if (c.size() < 2) co_return common::Status::kOk;
  switch (resolve_barrier(c.tuning(), c.size(), a)) {
    case Algo::kRingToken: co_return co_await barrier_ring_token(c);
    default: co_return co_await barrier_dissemination(c);
  }
}

sim::Task<common::Status> bcast(Communicator& c, int root,
                                std::uint32_t bytes, std::vector<double>& data,
                                Algo a) {
  BB_ASSERT(root >= 0 && root < c.size());
  BB_ASSERT(bytes >= 8 && bytes % 8 == 0);
  if (c.size() < 2) co_return common::Status::kOk;
  if (c.rank() == root) BB_ASSERT(data.size() == bytes / 8);
  switch (resolve_bcast(c.tuning(), c.size(), bytes, a)) {
    case Algo::kChain: co_return co_await bcast_chain(c, root, bytes, data);
    default: co_return co_await bcast_binomial(c, root, bytes, data);
  }
}

sim::Task<common::Status> allgather(Communicator& c,
                                    std::uint32_t bytes_per_rank,
                                    const std::vector<double>& mine,
                                    std::vector<std::vector<double>>& out,
                                    Algo a) {
  BB_ASSERT(bytes_per_rank >= 8 && bytes_per_rank % 8 == 0);
  BB_ASSERT(mine.size() == bytes_per_rank / 8);
  if (c.size() < 2) {
    out.assign(1, mine);
    co_return common::Status::kOk;
  }
  switch (resolve_allgather(c.tuning(), c.size(), bytes_per_rank, a)) {
    case Algo::kRingAllgather:
      co_return co_await allgather_ring(c, bytes_per_rank, mine, out);
    default:
      co_return co_await allgather_bruck(c, bytes_per_rank, mine, out);
  }
}

sim::Task<common::Status> allreduce(Communicator& c, std::uint32_t bytes,
                                    std::vector<double>& inout, ReduceOp op,
                                    Algo a) {
  BB_ASSERT(bytes >= 8 && bytes % 8 == 0);
  BB_ASSERT(inout.size() == bytes / 8);
  if (c.size() < 2) co_return common::Status::kOk;
  switch (resolve_allreduce(c.tuning(), c.size(), bytes, a)) {
    case Algo::kRingAllreduce:
      co_return co_await allreduce_ring(c, bytes, inout, op);
    default:
      co_return co_await allreduce_recursive_doubling(c, bytes, inout, op);
  }
}

}  // namespace bb::coll
