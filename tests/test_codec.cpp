// Round-trip tests for the word codec (util/codec.h) that the MPC
// simulator's typed message helpers (MachineCtx::send_items /
// Message::decode) are built on.
#include "util/codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mpc/cluster.h"
#include "util/error.h"
#include "util/rng.h"

namespace monge::util {
namespace {

struct ThreeInts {  // 12 bytes -> 2 words, 4 padding bytes
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;
  friend bool operator==(const ThreeInts&, const ThreeInts&) = default;
};

struct WordPair {  // 16 bytes -> exactly 2 words, no padding
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  friend bool operator==(const WordPair&, const WordPair&) = default;
};

TEST(Codec, WordsPerItemStride) {
  EXPECT_EQ(kWordsPerItem<std::uint8_t>, 1u);
  EXPECT_EQ(kWordsPerItem<std::int32_t>, 1u);
  EXPECT_EQ(kWordsPerItem<std::int64_t>, 1u);
  EXPECT_EQ(kWordsPerItem<ThreeInts>, 2u);
  EXPECT_EQ(kWordsPerItem<WordPair>, 2u);
}

TEST(Codec, RoundTripFuzz) {
  Rng rng(2024);
  for (int it = 0; it < 200; ++it) {
    const auto n = static_cast<std::size_t>(rng.next_below(64));
    std::vector<ThreeInts> items(n);
    for (auto& x : items) {
      x.a = static_cast<std::int32_t>(rng.next_in(-1000000, 1000000));
      x.b = static_cast<std::int32_t>(rng.next_in(-1000000, 1000000));
      x.c = static_cast<std::int32_t>(rng.next_in(-1000000, 1000000));
    }
    const auto words = pack_words<ThreeInts>(items);
    ASSERT_EQ(words.size(), n * kWordsPerItem<ThreeInts>);
    EXPECT_EQ(unpack_words<ThreeInts>(words), items);
  }
}

TEST(Codec, RoundTripScalarAndEmpty) {
  const std::vector<std::int64_t> scalars{-1, 0, 1, INT64_MIN, INT64_MAX};
  EXPECT_EQ(unpack_words<std::int64_t>(pack_words<std::int64_t>(scalars)),
            scalars);
  EXPECT_TRUE(pack_words<WordPair>({}).empty());
  EXPECT_TRUE(unpack_words<WordPair>({}).empty());
}

TEST(Codec, PaddingBytesAreZeroed) {
  // Equal items must produce bitwise-equal payloads: the 4 padding bytes
  // of each ThreeInts stride are zeroed, never uninitialized.
  const std::vector<ThreeInts> items{{1, 2, 3}, {1, 2, 3}};
  const auto words = pack_words<ThreeInts>(items);
  ASSERT_EQ(words.size(), 4u);
  EXPECT_EQ(words[0], words[2]);
  EXPECT_EQ(words[1], words[3]);
}

TEST(Codec, TruncatedPayloadThrows) {
  const std::vector<std::int64_t> odd(3, 0);  // 3 words, 2-word stride
  EXPECT_THROW(unpack_words<ThreeInts>(odd), CodecError);
}

TEST(Codec, CorruptPayloadErrorsCarryTheTaxonomy) {
  // A CodecError is a monge::Error with code kCodec — and, unlike the
  // MONGE_CHECK logic_error family, a runtime_error: corrupt payloads are
  // an input/transport condition, not a programming bug.
  const std::vector<std::int64_t> bad(5, 42);  // 5 words, 2-word stride
  try {
    unpack_words<WordPair>(bad);
    FAIL() << "expected CodecError";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCodec);
    EXPECT_NE(std::string(e.what()).find("5 words"), std::string::npos);
  }
  EXPECT_THROW(unpack_words<WordPair>(bad), std::runtime_error);
}

TEST(Codec, CorruptPayloadEveryTruncationLength) {
  // Every word count that is not a multiple of the stride throws; every
  // multiple decodes.
  for (std::size_t len = 0; len <= 8; ++len) {
    const std::vector<std::int64_t> payload(len, 7);
    if (len % kWordsPerItem<ThreeInts> == 0) {
      EXPECT_EQ(unpack_words<ThreeInts>(payload).size(),
                len / kWordsPerItem<ThreeInts>);
    } else {
      EXPECT_THROW(unpack_words<ThreeInts>(payload), CodecError);
    }
  }
}

TEST(Codec, IntoFormsAppendAfterExistingContents) {
  // The in-place forms append: existing contents stay, and the appended
  // items round-trip exactly. ThreeInts takes the padded per-item path,
  // WordPair and int32 the contiguous / narrow ones.
  Rng rng(7);
  for (int it = 0; it < 50; ++it) {
    const auto n = static_cast<std::size_t>(rng.next_below(16));
    std::vector<ThreeInts> items(n);
    std::vector<WordPair> pairs(n);
    std::vector<std::int32_t> narrow(n);
    for (std::size_t i = 0; i < n; ++i) {
      items[i] = {static_cast<std::int32_t>(rng.next_in(-99, 99)),
                  static_cast<std::int32_t>(rng.next_in(-99, 99)),
                  static_cast<std::int32_t>(rng.next_in(-99, 99))};
      pairs[i] = {rng.next_in(-99, 99), rng.next_in(-99, 99)};
      narrow[i] = static_cast<std::int32_t>(rng.next_in(-99, 99));
    }

    std::vector<ThreeInts> got_items{{1, 2, 3}};
    unpack_words_into<ThreeInts>(pack_words<ThreeInts>(items), got_items);
    ASSERT_EQ(got_items.size(), n + 1);
    EXPECT_EQ(got_items[0], (ThreeInts{1, 2, 3}));
    EXPECT_EQ(std::vector<ThreeInts>(got_items.begin() + 1, got_items.end()),
              items);

    std::vector<WordPair> got_pairs{{-1, -2}, {-3, -4}};
    unpack_words_into<WordPair>(pack_words<WordPair>(pairs), got_pairs);
    ASSERT_EQ(got_pairs.size(), n + 2);
    EXPECT_EQ(got_pairs[1], (WordPair{-3, -4}));
    EXPECT_EQ(std::vector<WordPair>(got_pairs.begin() + 2, got_pairs.end()),
              pairs);

    std::vector<std::int32_t> got_narrow{42};
    unpack_words_into<std::int32_t>(pack_words<std::int32_t>(narrow),
                                    got_narrow);
    ASSERT_EQ(got_narrow.size(), n + 1);
    EXPECT_EQ(got_narrow[0], 42);
    EXPECT_EQ(
        std::vector<std::int32_t>(got_narrow.begin() + 1, got_narrow.end()),
        narrow);

    // pack_words_into appends too: prefix words, then the same packing.
    std::vector<std::int64_t> words{9, 8};
    pack_words_into<ThreeInts>(items, words);
    const auto packed = pack_words<ThreeInts>(items);
    ASSERT_EQ(words.size(), packed.size() + 2);
    EXPECT_EQ(words[0], 9);
    EXPECT_EQ(words[1], 8);
    EXPECT_EQ(std::vector<std::int64_t>(words.begin() + 2, words.end()),
              packed);
  }
}

TEST(Codec, TruncatedPayloadLeavesDestinationUnchanged) {
  const std::vector<ThreeInts> before{{1, 2, 3}, {4, 5, 6}};
  std::vector<ThreeInts> out = before;
  const std::vector<std::int64_t> odd(3, 0);  // 3 words, 2-word stride
  EXPECT_THROW(unpack_words_into<ThreeInts>(odd, out), CodecError);
  EXPECT_EQ(out, before);

  mpc::Message msg;
  msg.payload = {1, 2, 3, 4, 5};
  EXPECT_THROW(msg.decode_into(out), CodecError);
  EXPECT_EQ(out, before);
  msg.payload = {1, 2, 3, 4};
  msg.decode_into(out);
  EXPECT_EQ(out.size(), before.size() + 2);
}

TEST(Codec, MessageDecodeRejectsCorruptPayload) {
  // The typed-message path surfaces the same CodecError: a Message whose
  // payload lost a word (transport corruption) fails decode<T>().
  mpc::Message msg;
  msg.from = 0;
  msg.tag = 0;
  msg.payload = {1, 2, 3};  // not a multiple of the 2-word stride
  EXPECT_THROW(msg.decode<ThreeInts>(), CodecError);
  msg.payload = {1, 2, 3, 4};
  EXPECT_NO_THROW(msg.decode<ThreeInts>());
}

}  // namespace
}  // namespace monge::util
