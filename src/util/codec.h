// Word codec for trivially-copyable items.
//
// The MPC simulator moves everything as flat arrays of 64-bit words
// (mpc::Message payloads); typed senders/receivers pack and unpack arrays
// of trivially-copyable structs, each item padded up to whole words. Both
// halves of that codec used to live duplicated inside src/mpc/cluster.h
// (MachineCtx::send_items / Message::decode); they are hoisted here so the
// stride arithmetic and the memcpy loops exist exactly once.
//
// Contract: pack_words(items).size() == items.size() * kWordsPerItem<T>,
// padding bytes are zero, and unpack_words<T>(pack_words<T>(items)) is the
// identity for every trivially-copyable T (round-trip pinned by
// tests/test_codec.cpp). The `_into` forms append to a caller-owned vector,
// so absorb loops and checkpoints decode and encode in place; the
// allocating forms are thin wrappers over them.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/error.h"

namespace monge::util {

/// Number of 64-bit words one packed T occupies (sizeof(T) rounded up to
/// whole words — the codec's stride).
template <typename T>
inline constexpr std::size_t kWordsPerItem = (sizeof(T) + 7) / 8;

/// Appends items to `out`, one kWordsPerItem<T> stride per item; padding
/// bytes are zeroed so packed payloads compare equal. The single packing
/// implementation: pack_words and the checkpoint hooks both come here.
template <typename T>
void pack_words_into(std::span<const T> items, std::vector<std::int64_t>& out) {
  static_assert(std::is_trivially_copyable_v<T>);
  constexpr std::size_t wpe = kWordsPerItem<T>;
  const std::size_t base = out.size();
  out.insert(out.end(), items.size() * wpe, 0);
  std::int64_t* dst = out.data() + base;
  for (std::size_t i = 0; i < items.size(); ++i) {
    std::memcpy(dst + i * wpe, &items[i], sizeof(T));
  }
}

/// Packs an array of T into a fresh word array (see pack_words_into).
template <typename T>
std::vector<std::int64_t> pack_words(std::span<const T> items) {
  std::vector<std::int64_t> words;
  pack_words_into<T>(items, words);
  return words;
}

/// Inverse of pack_words_into: appends the decoded items to `out`.
/// words.size() must be a whole number of item strides — a truncated or
/// corrupted payload throws monge::CodecError and leaves `out` unchanged.
/// The single decoding implementation: unpack_words, Message::decode and
/// Message::decode_into all come here.
template <typename T>
void unpack_words_into(std::span<const std::int64_t> words,
                       std::vector<T>& out) {
  static_assert(std::is_trivially_copyable_v<T>);
  constexpr std::size_t wpe = kWordsPerItem<T>;
  if (words.size() % wpe != 0) {
    throw CodecError("payload of " + std::to_string(words.size()) +
                     " words is not a whole number of " +
                     std::to_string(wpe) + "-word items");
  }
  const std::size_t count = words.size() / wpe;
  const std::size_t base = out.size();
  // insert, not resize: gcc 12 reports a false -Warray-bounds on
  // resize-growth of a small constant-sized vector once this is inlined.
  out.insert(out.end(), count, T{});
  // The static_assert above makes the memcpy well-defined even when T is
  // "non-trivial" only through default member initializers; the void* cast
  // tells -Wclass-memaccess exactly that.
  T* dst = out.data() + base;
  for (std::size_t i = 0; i < count; ++i) {
    std::memcpy(static_cast<void*>(dst + i), words.data() + i * wpe,
                sizeof(T));
  }
}

/// Decodes a payload into a fresh array (see unpack_words_into).
template <typename T>
std::vector<T> unpack_words(std::span<const std::int64_t> words) {
  std::vector<T> items;
  unpack_words_into<T>(words, items);
  return items;
}

}  // namespace monge::util
