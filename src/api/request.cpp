#include "api/request.h"

#include <span>

namespace monge {

namespace {

/// Two independent 64-bit accumulation streams (FNV-1a-style fold followed
/// by the splitmix64 finalizer, with distinct offsets and combining rules)
/// over the request's words. Every variable-length field is preceded by
/// its length and every request by a type tag, so no two distinct payloads
/// serialize to the same word stream.
struct DigestBuilder {
  std::uint64_t lo = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  std::uint64_t hi = 0x6a09e667f3bcc909ULL;  // frac(sqrt(2))

  static std::uint64_t mix(std::uint64_t z) {  // splitmix64 finalizer
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  void word(std::uint64_t w) {
    lo = mix((lo ^ w) * 0x100000001b3ULL);  // FNV-1a prime
    hi = mix((hi + w) * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);
  }

  void words32(std::span<const std::int32_t> v) {
    word(static_cast<std::uint64_t>(v.size()));
    for (const std::int32_t x : v) {
      word(static_cast<std::uint64_t>(static_cast<std::int64_t>(x)));
    }
  }

  void words64(std::span<const std::int64_t> v) {
    word(static_cast<std::uint64_t>(v.size()));
    for (const std::int64_t x : v) word(static_cast<std::uint64_t>(x));
  }

  RequestDigest digest() const { return {lo, hi}; }
};

}  // namespace

RequestDigest request_digest(const MultiplyRequest& req) {
  DigestBuilder b;
  b.word('M');
  b.word(static_cast<std::uint64_t>(req.kind));
  b.word(static_cast<std::uint64_t>(req.a.cols()));
  b.words32(req.a.row_to_col());
  b.word(static_cast<std::uint64_t>(req.b.cols()));
  b.words32(req.b.row_to_col());
  return b.digest();
}

RequestDigest request_digest(const LisRequest& req) {
  DigestBuilder b;
  b.word('L');
  b.words64(req.seq);
  b.word(req.want_kernel ? 1 : 0);
  b.word(static_cast<std::uint64_t>(req.windows.size()));
  for (const auto& [l, r] : req.windows) {
    b.word(static_cast<std::uint64_t>(l));
    b.word(static_cast<std::uint64_t>(r));
  }
  return b.digest();
}

RequestDigest request_digest(const LcsRequest& req) {
  DigestBuilder b;
  b.word('C');
  b.words64(req.s);
  b.words64(req.t);
  return b.digest();
}

RequestDigest request_digest(const BuildIndexRequest& req) {
  DigestBuilder b;
  b.word('B');
  b.word(static_cast<std::uint64_t>(req.kind));
  b.words64(req.seq);
  b.words64(req.t);
  return b.digest();
}

RequestDigest request_digest(const WindowLisQuery& req) {
  DigestBuilder b;
  b.word('W');
  // The index id is process-unique and never reused, so the digest can
  // stand in for the whole indexed payload.
  b.word(req.handle.id());
  b.word(static_cast<std::uint64_t>(req.windows.size()));
  for (const auto& [l, r] : req.windows) {
    b.word(static_cast<std::uint64_t>(l));
    b.word(static_cast<std::uint64_t>(r));
  }
  return b.digest();
}

RequestDigest request_digest(const SubstringLcsQuery& req) {
  DigestBuilder b;
  b.word('S');
  b.word(req.handle.id());
  b.word(static_cast<std::uint64_t>(req.substrings.size()));
  for (const auto& [i, j] : req.substrings) {
    b.word(static_cast<std::uint64_t>(i));
    b.word(static_cast<std::uint64_t>(j));
  }
  return b.digest();
}

}  // namespace monge
